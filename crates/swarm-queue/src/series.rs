//! Numerical kernel: ln-factorials, log-sum-exp accumulation and convergent
//! series summation.
//!
//! The busy-period formulas of the paper (eqs. 9, 12, 18, 19) are infinite
//! series whose terms contain `β^i / i!`. For bundled swarms the effective
//! load `βα ≈ K²λs/μ` reaches the hundreds, so individual terms — and the
//! sums — overflow `f64`. Every series in this crate is therefore also
//! evaluated in the log domain with the tools here.

/// Natural log of `n!` via `ln Γ(n+1)`.
///
/// Exact table for small `n`, Stirling series beyond it; absolute error is
/// below 1e-12 for all `n`, far tighter than the series truncation error.
pub fn ln_factorial(n: u64) -> f64 {
    // Exact for n <= 20 (fits in f64 integer range).
    const EXACT: [f64; 21] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5040.0,
        40320.0,
        362880.0,
        3628800.0,
        39916800.0,
        479001600.0,
        6227020800.0,
        87178291200.0,
        1307674368000.0,
        20922789888000.0,
        355687428096000.0,
        6402373705728000.0,
        121645100408832000.0,
        2432902008176640000.0,
    ];
    if n <= 20 {
        return EXACT[n as usize].ln();
    }
    // Stirling's series for ln Γ(x) at x = n + 1.
    let x = (n + 1) as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    (x - 0.5) * x.ln() - x
        + 0.5 * (2.0 * std::f64::consts::PI).ln()
        + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0)))
}

/// Natural log of the binomial coefficient `C(n, k)`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_binomial requires k <= n, got C({n},{k})");
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Natural log of the Poisson pmf `e^{-x} x^i / i!`.
///
/// Returns `-inf` for `x == 0, i > 0`.
pub fn ln_poisson_pmf(x: f64, i: u64) -> f64 {
    assert!(x >= 0.0, "Poisson mean must be nonnegative, got {x}");
    if x == 0.0 {
        return if i == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    -x + i as f64 * x.ln() - ln_factorial(i)
}

/// Gap below a [`LogSumExp`]'s running maximum past which adding a term
/// cannot change the sum's bits: the scaled sum is always ≥ 1 once
/// non-empty, and `e^{-37} < 2^{-53}` is less than half its ulp, so the
/// addition rounds straight back to the same value. Callers may skip such
/// terms (and the work of computing them) without changing the result.
pub(crate) const LN_ABSORBED: f64 = -37.0;

/// Streaming log-sum-exp accumulator: maintains `ln Σ e^{t_k}` over terms
/// added as logs, without ever materializing the linear-domain sum.
#[derive(Debug, Clone, Copy)]
pub struct LogSumExp {
    /// Running maximum of the log-terms.
    max: f64,
    /// `Σ e^{t_k - max}`.
    scaled_sum: f64,
}

impl Default for LogSumExp {
    fn default() -> Self {
        Self::new()
    }
}

impl LogSumExp {
    /// An empty accumulator (`ln 0 = -inf`).
    pub fn new() -> Self {
        LogSumExp {
            max: f64::NEG_INFINITY,
            scaled_sum: 0.0,
        }
    }

    /// Add a term given as its natural log. `-inf` terms are no-ops.
    pub fn add_ln(&mut self, ln_term: f64) {
        if ln_term == f64::NEG_INFINITY {
            return;
        }
        debug_assert!(!ln_term.is_nan(), "NaN log-term");
        if ln_term > self.max {
            // Rescale the existing sum to the new maximum.
            self.scaled_sum = self.scaled_sum * (self.max - ln_term).exp() + 1.0;
            self.max = ln_term;
        } else {
            self.scaled_sum += (ln_term - self.max).exp();
        }
    }

    /// The largest term added so far, as a log; `-inf` when empty.
    pub(crate) fn ln_max(&self) -> f64 {
        self.max
    }

    /// `ln Σ e^{t_k}` so far; `-inf` when empty.
    pub fn ln_sum(&self) -> f64 {
        if self.max == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            self.max + self.scaled_sum.ln()
        }
    }
}

/// `ln(e^a - e^b)` for `a >= b`, computed without overflow.
///
/// Returns `-inf` when `a == b`.
///
/// # Panics
/// If `a < b` (the difference would be negative, which has no log).
pub fn ln_sub_exp(a: f64, b: f64) -> f64 {
    assert!(
        a >= b,
        "ln_sub_exp requires a >= b, got a={a}, b={b} (negative difference)"
    );
    if b == f64::NEG_INFINITY {
        return a;
    }
    // ln(e^a - e^b) = a + ln(1 - e^{b-a})
    a + (-(b - a).exp()).ln_1p()
}

/// `ln(e^a + e^b)` computed without overflow.
pub fn ln_add_exp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    hi + (lo - hi).exp().ln_1p()
}

/// Kahan-compensated summation accumulator for linear-domain series.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kahan {
    sum: f64,
    comp: f64,
}

impl Kahan {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term with compensation.
    pub fn add(&mut self, x: f64) {
        let y = x - self.comp;
        let t = self.sum + y;
        self.comp = (t - self.sum) - y;
        self.sum = t;
    }

    /// Current compensated sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// Controls for series truncation.
#[derive(Debug, Clone, Copy)]
pub struct SeriesControl {
    /// Stop once a term is smaller than `rel_tol` times the accumulated sum
    /// (in the log domain: once `ln term < ln sum + ln rel_tol`) *and* the
    /// terms are decreasing.
    pub rel_tol: f64,
    /// Hard cap on the number of terms; exceeding it panics, since it means
    /// the series was driven far outside its intended regime.
    pub max_terms: usize,
}

impl Default for SeriesControl {
    fn default() -> Self {
        SeriesControl {
            rel_tol: 1e-14,
            max_terms: 200_000,
        }
    }
}

/// Sum a positive series given term logs, in the log domain.
///
/// `ln_term(i)` must return the natural log of the `i`-th term (`i >= 1`).
/// Terms may first grow (they do: `β^i/i!` peaks near `i = β·α`) and then
/// decay; summation stops when a term falls below `rel_tol` relative to the
/// running sum *after* the terms have started decreasing.
///
/// Returns `ln Σ_{i>=1} term(i)`.
pub fn ln_sum_series(mut ln_term: impl FnMut(u64) -> f64, ctl: SeriesControl) -> f64 {
    let mut acc = LogSumExp::new();
    let mut prev = f64::NEG_INFINITY;
    let mut decreasing = false;
    for i in 1..=(ctl.max_terms as u64) {
        let t = ln_term(i);
        debug_assert!(!t.is_nan(), "series term {i} is NaN");
        acc.add_ln(t);
        if t < prev {
            decreasing = true;
        }
        if decreasing && t < acc.ln_sum() + ctl.rel_tol.ln() {
            return acc.ln_sum();
        }
        prev = t;
    }
    panic!(
        "series did not converge within {} terms (last ln-term {prev:.3})",
        ctl.max_terms
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(20) - 2432902008176640000f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_factorial_stirling_continuity() {
        // Stirling branch should agree with the recurrence ln(n!) = ln n + ln((n-1)!)
        let direct = ln_factorial(21);
        let recur = (21f64).ln() + ln_factorial(20);
        assert!((direct - recur).abs() < 1e-10);
        let direct = ln_factorial(1000);
        let recur = (1000f64).ln() + ln_factorial(999);
        assert!((direct - recur).abs() < 1e-9);
    }

    #[test]
    fn ln_binomial_matches_pascal() {
        assert!((ln_binomial(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_binomial(10, 5) - 252f64.ln()).abs() < 1e-12);
        assert_eq!(ln_binomial(7, 0), 0.0);
        assert_eq!(ln_binomial(7, 7), 0.0);
    }

    #[test]
    fn ln_poisson_pmf_sums_to_one() {
        let x = 7.3;
        let mut acc = LogSumExp::new();
        for i in 0..200 {
            acc.add_ln(ln_poisson_pmf(x, i));
        }
        assert!(acc.ln_sum().abs() < 1e-12);
    }

    #[test]
    fn ln_poisson_pmf_zero_mean() {
        assert_eq!(ln_poisson_pmf(0.0, 0), 0.0);
        assert_eq!(ln_poisson_pmf(0.0, 3), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_matches_direct() {
        let terms = [1.0, 2.5, -3.0, 0.0];
        let mut acc = LogSumExp::new();
        for &t in &terms {
            acc.add_ln(t);
        }
        let direct: f64 = terms.iter().map(|t| t.exp()).sum();
        assert!((acc.ln_sum() - direct.ln()).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_handles_huge_terms() {
        let mut acc = LogSumExp::new();
        acc.add_ln(1000.0); // e^1000 overflows f64
        acc.add_ln(1000.0);
        assert!((acc.ln_sum() - (1000.0 + 2f64.ln())).abs() < 1e-12);
    }

    #[test]
    fn absorbed_terms_round_away_from_the_smallest_scaled_sum() {
        // A non-empty accumulator's scaled sum is at least 1.
        assert!(LN_ABSORBED.exp() < f64::EPSILON / 2.0);
        assert_eq!(1.0 + LN_ABSORBED.exp(), 1.0);
        let mut acc = LogSumExp::new();
        acc.add_ln(0.0);
        acc.add_ln(LN_ABSORBED - 1e-9);
        assert_eq!(acc.ln_sum().to_bits(), 0f64.to_bits());
        assert_eq!(acc.ln_max(), 0.0);
    }

    #[test]
    fn log_sum_exp_empty() {
        assert_eq!(LogSumExp::new().ln_sum(), f64::NEG_INFINITY);
    }

    #[test]
    fn ln_sub_exp_basic() {
        let v = ln_sub_exp(3f64.ln(), 1f64.ln());
        assert!((v - 2f64.ln()).abs() < 1e-12);
        assert_eq!(ln_sub_exp(5.0, f64::NEG_INFINITY), 5.0);
        assert_eq!(ln_sub_exp(2.0, 2.0), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "requires a >= b")]
    fn ln_sub_exp_rejects_negative_difference() {
        ln_sub_exp(1.0, 2.0);
    }

    #[test]
    fn ln_add_exp_basic() {
        let v = ln_add_exp(3f64.ln(), 1f64.ln());
        assert!((v - 4f64.ln()).abs() < 1e-12);
        assert_eq!(
            ln_add_exp(f64::NEG_INFINITY, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
        assert_eq!(ln_add_exp(f64::NEG_INFINITY, 7.0), 7.0);
    }

    #[test]
    fn kahan_beats_naive_on_adversarial_input() {
        let mut k = Kahan::new();
        k.add(1e16);
        for _ in 0..10 {
            k.add(1.0);
        }
        k.add(-1e16);
        assert_eq!(k.sum(), 10.0);
    }

    #[test]
    fn ln_sum_series_exponential() {
        // Σ_{i>=1} x^i / i! = e^x - 1
        let x: f64 = 5.0;
        let ln = ln_sum_series(
            |i| i as f64 * x.ln() - ln_factorial(i),
            SeriesControl::default(),
        );
        assert!((ln.exp() - (x.exp() - 1.0)).abs() / (x.exp() - 1.0) < 1e-12);
    }

    #[test]
    fn ln_sum_series_large_argument_stays_finite() {
        // x = 700 would overflow in the linear domain; ln(e^x - 1) ≈ x.
        let x: f64 = 700.0;
        let ln = ln_sum_series(
            |i| i as f64 * x.ln() - ln_factorial(i),
            SeriesControl::default(),
        );
        assert!((ln - x).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn ln_sum_series_detects_divergence() {
        // Harmonic-like slow decay with growing terms never satisfies the cap.
        ln_sum_series(
            |i| i as f64, // e^i grows forever
            SeriesControl {
                rel_tol: 1e-14,
                max_terms: 100,
            },
        );
    }
}
