//! Piece bitmaps: word-level kernels, the engine's flat [`BitArena`],
//! and the owned [`Bitfield`] wire/serde adapter.
//!
//! BitTorrent peers advertise the pieces they hold as a bitmap; the
//! paper's monitoring agents classify seeds vs leechers from exactly these
//! bitmaps (§2.2). The engine uses them for piece accounting, rarest-first
//! counting and availability checks.
//!
//! The module is layered:
//!
//! * **Kernels** — free functions over raw `&[u64]` word slices
//!   (`fill_ones`, `count_ones`, `any_and`, `any_and_not`, `ones`,
//!   `and_not_ones`).
//!   Every consumer of piece bitmaps funnels through these, so the
//!   per-bit/per-word contract is tested in exactly one place.
//! * **[`BitArena`]** — one contiguous `Vec<u64>` holding every peer's
//!   bitmap at a fixed words-per-row stride, rows handed out by peer id.
//!   The engine's per-tick phases stream over rows cache-linearly instead
//!   of chasing one heap allocation per peer (the chunked flat-storage
//!   layout voxel engines use for world data).
//! * **[`Bitfield`]** — the owned, serializable single bitmap. It is now a
//!   thin adapter over the kernels, kept for the `swarm-net` wire boundary
//!   (`Message::Bitfield` frames), serde payloads and tests.
//!
//! **Tail invariant**: in every representation, bits at positions
//! `len..stride*64` of the final word are zero. The word-wise AND-NOT
//! kernels rely on it — `theirs & !mine` needs no tail masking because the
//! tail is zero in both operands by construction. [`fill_ones`] masks the
//! final word, and nothing else can set an out-of-range bit (`set`
//! asserts). A dedicated test pins this contract.

use serde::{Deserialize, Serialize};

// --- word-level kernels --------------------------------------------------

/// Set bits `0..len` in `words`, whole words at a time, masking the tail
/// word so bits past `len` stay zero. `words` must hold at least
/// `len.div_ceil(64)` words; any further words are left untouched.
#[inline]
pub fn fill_ones(words: &mut [u64], len: usize) {
    let full = len / 64;
    words[..full].fill(u64::MAX);
    let tail = len % 64;
    if tail != 0 {
        words[full] = (1u64 << tail) - 1;
    }
}

/// Total set bits — one popcount per word.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Is any bit set in `a & b` — do the two bitmaps share a piece?
#[inline]
pub fn any_and(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

/// Is any bit set in `theirs & !mine` — i.e. does `theirs` hold a piece
/// `mine` lacks? The word-wise interest check; no tail masking needed
/// (see the module-level tail invariant).
#[inline]
pub fn any_and_not(theirs: &[u64], mine: &[u64]) -> bool {
    debug_assert_eq!(theirs.len(), mine.len());
    theirs.iter().zip(mine).any(|(&t, &m)| t & !m != 0)
}

/// Iterate set-bit positions in ascending order. Word-at-a-time: cost is
/// O(words + set bits), not O(len).
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            }
        })
    })
}

/// Iterate positions set in `theirs & !mine` (the pieces `mine`'s owner is
/// *interested in* when talking to `theirs`'s owner), ascending.
pub fn and_not_ones<'a>(theirs: &'a [u64], mine: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
    debug_assert_eq!(theirs.len(), mine.len());
    theirs
        .iter()
        .zip(mine)
        .enumerate()
        .flat_map(|(wi, (&t, &m))| {
            let mut w = t & !m;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
}

// --- flat bitmap arena ---------------------------------------------------

/// All peers' piece bitmaps in one contiguous `Vec<u64>` at a fixed
/// words-per-row stride, rows indexed by peer id.
///
/// Rows are only ever appended (the engine's population only grows), so a
/// row slice is stable for the id's lifetime and the whole arena stays one
/// allocation that doubles amortized. The tick-loop kernels — interest
/// scans, candidate walks, holder drops — take `&[u64]` row slices, so a
/// sweep over `online_ids` touches memory in one linear stream.
#[derive(Debug, Clone)]
pub struct BitArena {
    words: Vec<u64>,
    /// Words per row: `bits_per_row.div_ceil(64)`, fixed at construction.
    stride: usize,
    bits_per_row: usize,
}

impl BitArena {
    /// An empty arena whose rows will each cover `bits_per_row` pieces.
    pub fn new(bits_per_row: usize) -> Self {
        assert!(bits_per_row > 0, "content must have at least one piece");
        BitArena {
            words: Vec::new(),
            stride: bits_per_row.div_ceil(64),
            bits_per_row,
        }
    }

    /// Pieces each row ranges over.
    pub fn bits_per_row(&self) -> usize {
        self.bits_per_row
    }

    /// Words each row occupies (the arena stride).
    pub fn words_per_row(&self) -> usize {
        self.stride
    }

    /// Number of rows currently in the arena.
    pub fn rows(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Append an all-zero row, returning its id.
    pub fn push_row(&mut self) -> usize {
        let id = self.rows();
        self.words.resize(self.words.len() + self.stride, 0);
        id
    }

    /// Append an all-one row (a seed's bitmap, tail word masked).
    pub fn push_full_row(&mut self) -> usize {
        let id = self.push_row();
        let len = self.bits_per_row;
        fill_ones(self.row_mut(id), len);
        id
    }

    /// The word slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        debug_assert!(r < self.rows());
        // SAFETY: rows are append-only and callers index by peer id, so
        // `r < rows()` (debug-asserted above) and the word range is in
        // bounds by construction (`words.len() == rows() * stride`).
        // `row()` runs in every interest scan and candidate walk; the
        // checked slice showed up as real cost in engine profiles.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().add(r * self.stride), self.stride) }
    }

    /// The mutable word slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        debug_assert!(r < self.rows());
        // SAFETY: same bounds argument as [`Self::row`]; `&mut self`
        // guarantees exclusivity.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.words.as_mut_ptr().add(r * self.stride),
                self.stride,
            )
        }
    }

    /// Does row `r` hold `bit`?
    #[inline]
    pub fn has(&self, r: usize, bit: usize) -> bool {
        debug_assert!(bit < self.bits_per_row);
        debug_assert!(r < self.rows());
        // SAFETY: `r < rows()` and `bit < bits_per_row <= stride * 64`
        // (both debug-asserted), so the word index is in bounds.
        unsafe { *self.words.get_unchecked(r * self.stride + bit / 64) & (1u64 << (bit % 64)) != 0 }
    }

    /// Set `bit` in row `r`.
    #[inline]
    pub fn set(&mut self, r: usize, bit: usize) {
        assert!(
            bit < self.bits_per_row,
            "piece {bit} out of range 0..{}",
            self.bits_per_row
        );
        self.words[r * self.stride + bit / 64] |= 1u64 << (bit % 64);
    }
}

// --- owned bitfield (wire/serde adapter) ---------------------------------

/// A fixed-size owned bitmap over content pieces.
///
/// The engine keeps its bitmaps in the [`BitArena`]; this owned type
/// remains the adapter at the boundaries — `swarm-net`'s wire frames,
/// serde payloads and tests — and delegates all bit manipulation to the
/// module's kernels so both representations share one contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitfield {
    bits: Vec<u64>,
    len: usize,
}

impl Bitfield {
    /// All-zero bitfield over `len` pieces.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "content must have at least one piece");
        Bitfield {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one bitfield (a seed's bitmap): whole words filled directly
    /// with a masked tail word, not a per-bit loop.
    pub fn full(len: usize) -> Self {
        let mut b = Self::new(len);
        fill_ones(&mut b.bits, len);
        b
    }

    /// Number of pieces the bitfield ranges over.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitfield covers zero pieces — impossible by
    /// construction, kept for API completeness.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words backing this bitfield (tail bits past `len` are
    /// zero — the module-level invariant).
    pub fn as_words(&self) -> &[u64] {
        &self.bits
    }

    #[inline]
    fn index(&self, piece: usize) -> (usize, u64) {
        assert!(
            piece < self.len,
            "piece {piece} out of range 0..{}",
            self.len
        );
        (piece / 64, 1u64 << (piece % 64))
    }

    /// Does the peer hold `piece`?
    #[inline]
    pub fn has(&self, piece: usize) -> bool {
        let (w, m) = self.index(piece);
        self.bits[w] & m != 0
    }

    /// Mark `piece` as held.
    #[inline]
    pub fn set(&mut self, piece: usize) {
        let (w, m) = self.index(piece);
        self.bits[w] |= m;
    }

    /// Number of pieces held.
    pub fn count(&self) -> usize {
        count_ones(&self.bits)
    }

    /// Does this bitfield hold every piece (i.e. is the peer a seed)?
    pub fn is_complete(&self) -> bool {
        self.count() == self.len
    }

    /// Union in-place: pieces held by `self` or `other`.
    ///
    /// # Panics
    /// If lengths differ.
    pub fn union_with(&mut self, other: &Bitfield) {
        assert_eq!(self.len, other.len, "bitfield length mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Iterate over held pieces in ascending order. Word-at-a-time: cost
    /// is O(words + set bits), not O(len).
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones(&self.bits)
    }

    /// Iterate over pieces that `other` holds and `self` lacks (the pieces
    /// `self` is *interested* in when talking to `other`), ascending.
    /// Word-at-a-time over `other & !self`; tail bits past `len` are zero
    /// in both operands by construction, so no masking is needed.
    pub fn missing_from<'a>(&'a self, other: &'a Bitfield) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len, other.len, "bitfield length mismatch");
        and_not_ones(&other.bits, &self.bits)
    }

    /// Is `self` interested in `other` (does `other` hold any piece `self`
    /// lacks)? Cheap word-wise check.
    pub fn interested_in(&self, other: &Bitfield) -> bool {
        assert_eq!(self.len, other.len, "bitfield length mismatch");
        any_and_not(&other.bits, &self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_is_empty_full_is_complete() {
        let b = Bitfield::new(100);
        assert_eq!(b.count(), 0);
        assert!(!b.is_complete());
        let f = Bitfield::full(100);
        assert_eq!(f.count(), 100);
        assert!(f.is_complete());
    }

    #[test]
    fn full_tail_bits_are_zero() {
        // The no-masking contract of the AND-NOT kernels: bits past `len`
        // in the final word must be zero, for every tail width including
        // the exact-boundary (no tail) cases.
        for len in [1, 7, 63, 64, 65, 127, 128, 129, 190] {
            let f = Bitfield::full(len);
            let words = f.as_words();
            assert_eq!(words.len(), len.div_ceil(64));
            assert_eq!(count_ones(words), len, "len {len}");
            let tail = len % 64;
            if tail != 0 {
                assert_eq!(
                    words[len / 64] >> tail,
                    0,
                    "tail bits past len {len} must be zero"
                );
            }
            // And a full bitfield is never interested in anything.
            assert!(!f.interested_in(&Bitfield::full(len)));
            assert!(Bitfield::new(len).interested_in(&f));
        }
    }

    #[test]
    fn set_and_has() {
        let mut b = Bitfield::new(130);
        assert!(!b.has(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.has(0) && b.has(63) && b.has(64) && b.has(129));
        assert!(!b.has(1) && !b.has(128));
        assert_eq!(b.count(), 4);
    }

    #[test]
    fn set_is_idempotent() {
        let mut b = Bitfield::new(8);
        b.set(3);
        b.set(3);
        assert_eq!(b.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn has_out_of_range_panics() {
        Bitfield::new(10).has(10);
    }

    #[test]
    fn union_covers_both() {
        let mut a = Bitfield::new(10);
        a.set(1);
        let mut b = Bitfield::new(10);
        b.set(7);
        a.union_with(&b);
        assert!(a.has(1) && a.has(7));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn ones_lists_set_pieces_ascending() {
        let mut b = Bitfield::new(130);
        for p in [0, 5, 63, 64, 100, 129] {
            b.set(p);
        }
        let got: Vec<usize> = b.ones().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 100, 129]);
        assert_eq!(Bitfield::new(7).ones().count(), 0);
        assert_eq!(Bitfield::full(70).ones().count(), 70);
    }

    #[test]
    fn missing_from_lists_interesting_pieces() {
        let mut me = Bitfield::new(6);
        me.set(0);
        me.set(1);
        let mut them = Bitfield::new(6);
        them.set(1);
        them.set(2);
        them.set(5);
        let missing: Vec<usize> = me.missing_from(&them).collect();
        assert_eq!(missing, vec![2, 5]);
    }

    #[test]
    fn interest_matches_missing_from() {
        let mut me = Bitfield::new(70);
        let mut them = Bitfield::new(70);
        assert!(!me.interested_in(&them));
        them.set(65);
        assert!(me.interested_in(&them));
        me.set(65);
        assert!(!me.interested_in(&them));
        assert_eq!(me.missing_from(&them).count(), 0);
    }

    #[test]
    fn seed_is_never_interested() {
        let seed = Bitfield::full(40);
        let mut leecher = Bitfield::new(40);
        leecher.set(3);
        assert!(!seed.interested_in(&leecher));
        assert!(leecher.interested_in(&seed));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn union_rejects_length_mismatch() {
        let mut a = Bitfield::new(10);
        a.union_with(&Bitfield::new(11));
    }

    #[test]
    fn arena_rows_are_independent_and_strided() {
        let mut a = BitArena::new(130);
        assert_eq!(a.words_per_row(), 3);
        assert_eq!(a.rows(), 0);
        let seed = a.push_full_row();
        let empty = a.push_row();
        assert_eq!((seed, empty), (0, 1));
        assert_eq!(a.rows(), 2);
        assert_eq!(count_ones(a.row(seed)), 130);
        assert_eq!(count_ones(a.row(empty)), 0);
        a.set(empty, 0);
        a.set(empty, 64);
        a.set(empty, 129);
        assert!(a.has(empty, 64) && !a.has(empty, 65));
        assert_eq!(count_ones(a.row(seed)), 130, "rows must not alias");
        assert_eq!(ones(a.row(empty)).collect::<Vec<_>>(), vec![0, 64, 129]);
        // Tail invariant holds for the full row.
        assert_eq!(a.row(seed)[2] >> (130 % 64), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arena_set_out_of_range_panics() {
        let mut a = BitArena::new(64);
        a.push_row();
        a.set(0, 64);
    }

    /// Naive per-bit reference: positions of set bits, via `has`.
    fn naive_ones(bf: &Bitfield) -> Vec<usize> {
        (0..bf.len()).filter(|&p| bf.has(p)).collect()
    }

    /// Naive per-bit reference for `missing_from`.
    fn naive_missing(mine: &Bitfield, theirs: &Bitfield) -> Vec<usize> {
        (0..mine.len())
            .filter(|&p| theirs.has(p) && !mine.has(p))
            .collect()
    }

    /// Random-bitmap strategy over word-straddling lengths: the exact
    /// boundary cases (63/64/65, 127/128/129) plus arbitrary fills.
    fn straddling_pair() -> impl Strategy<Value = (Bitfield, Bitfield)> {
        prop::sample::select(vec![1usize, 63, 64, 65, 127, 128, 129, 200]).prop_flat_map(|len| {
            let a = prop::collection::vec(prop::bool::ANY, len..len + 1);
            let b = prop::collection::vec(prop::bool::ANY, len..len + 1);
            (a, b).prop_map(move |(a, b)| {
                let mut x = Bitfield::new(len);
                let mut y = Bitfield::new(len);
                for (p, &set) in a.iter().enumerate() {
                    if set {
                        x.set(p);
                    }
                }
                for (p, &set) in b.iter().enumerate() {
                    if set {
                        y.set(p);
                    }
                }
                (x, y)
            })
        })
    }

    proptest! {
        #[test]
        fn kernels_match_naive_reference(pair in straddling_pair()) {
            let (mine, theirs) = pair;
            // ones / count against the per-bit reference.
            prop_assert_eq!(mine.ones().collect::<Vec<_>>(), naive_ones(&mine));
            prop_assert_eq!(mine.count(), naive_ones(&mine).len());
            // missing_from / interested_in against the per-bit reference.
            let expect = naive_missing(&mine, &theirs);
            prop_assert_eq!(
                mine.missing_from(&theirs).collect::<Vec<_>>(),
                expect.clone()
            );
            prop_assert_eq!(mine.interested_in(&theirs), !expect.is_empty());
            // The kernel entry points agree with the Bitfield adapters
            // when fed the raw words.
            prop_assert_eq!(
                and_not_ones(theirs.as_words(), mine.as_words()).collect::<Vec<_>>(),
                expect.clone()
            );
            prop_assert_eq!(
                any_and_not(theirs.as_words(), mine.as_words()),
                !expect.is_empty()
            );
            prop_assert_eq!(count_ones(mine.as_words()), mine.count());
            prop_assert_eq!(
                any_and(theirs.as_words(), mine.as_words()),
                mine.ones().any(|p| theirs.has(p))
            );
        }

        #[test]
        fn full_matches_per_bit_loop(len in prop::sample::select(
            vec![1usize, 63, 64, 65, 127, 128, 129, 200],
        )) {
            // The word-filled `full` must equal the per-bit construction.
            let mut per_bit = Bitfield::new(len);
            for p in 0..len {
                per_bit.set(p);
            }
            prop_assert_eq!(Bitfield::full(len), per_bit);
        }

        #[test]
        fn arena_matches_bitfield(pair in straddling_pair()) {
            let (mine, theirs) = pair;
            // An arena row built by the same `set` calls is word-identical
            // to the owned bitfield, so every kernel result transfers.
            let len = mine.len();
            let mut arena = BitArena::new(len);
            let (a, b) = (arena.push_row(), arena.push_row());
            for p in mine.ones() {
                arena.set(a, p);
            }
            for p in theirs.ones() {
                arena.set(b, p);
            }
            prop_assert_eq!(arena.row(a), mine.as_words());
            prop_assert_eq!(arena.row(b), theirs.as_words());
            prop_assert_eq!(
                and_not_ones(arena.row(b), arena.row(a)).collect::<Vec<_>>(),
                naive_missing(&mine, &theirs)
            );
        }
    }
}
