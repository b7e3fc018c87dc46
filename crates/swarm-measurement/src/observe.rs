//! Seed-presence dynamics and monitoring agents.
//!
//! The paper's agents join each swarm and classify seeds from peer
//! bitmaps, recording roughly hourly whether at least one seed is online.
//! Here, each swarm's *ground-truth* seed presence is an alternating
//! renewal process driven by the paper's own model: seeds (the original
//! publisher plus altruistic completers) form an M/G/∞ queue whose busy
//! periods are seed-present intervals (eq. 9 parameterization), and idle
//! periods are exponential with mean `1/r`. Demand and publisher interest
//! decay with swarm age, which is what separates the paper's first-month
//! curve from the whole-trace curve in Figure 1.
//!
//! This module owns the workspace's one simulator of that process, the
//! event-driven [`seed_walk`]. The monitoring agents ([`monitor`]) sample
//! its trajectory at hour boundaries; the sharded catalog runtime
//! (`swarm-catalog`) walks it with a hook that adds the peers arriving
//! while a seed is online.

use crate::catalog::Swarm;
use rand::Rng;
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};
use swarm_queue::busy::TwoPhaseBusyPeriod;

/// Hours per "month" of monitoring (30 days).
pub const HOURS_PER_MONTH: f64 = 720.0;

/// How often (in hours) the slowly-varying seed-process parameters are
/// refreshed by [`seed_walk`]: weekly.
pub const PARAM_REFRESH_HOURS: usize = 24 * 7;

/// Age-dependent effective parameters of a swarm's seed process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedProcessParams {
    /// Mean seed-present (busy) period length in hours.
    pub on_mean: f64,
    /// Mean seedless (idle) period length in hours (`1/r(age)`).
    pub off_mean: f64,
}

/// Demand decay with age: a popularity wave that fades over a few weeks
/// onto a small persistent tail (Figure 7's new-vs-old contrast).
pub fn demand_decay(age_days: f64) -> f64 {
    0.05 + 0.95 * (-age_days / 20.0).exp()
}

/// Publisher-interest decay with age: publishers re-seed new content
/// often, old content rarely.
pub fn publisher_decay(age_days: f64) -> f64 {
    0.008 + 0.992 * (-age_days / 14.0).exp()
}

/// Effective seed-process parameters of `swarm` at the given age.
///
/// The busy period comes from the eq. (9) machinery with seeds as
/// customers: publishers arrive at `r(age)` and stay `u`; altruistic
/// completers appear at `ψ(age)` (a fixed fraction of demand) and stay
/// their lingering time.
pub fn seed_process(swarm: &Swarm, age_days: f64) -> SeedProcessParams {
    let r = (swarm.publisher_rate * publisher_decay(age_days)).max(1e-7);
    let psi = (swarm.altruist_rate * demand_decay(age_days)).max(1e-9);
    let p = TwoPhaseBusyPeriod {
        beta: r + psi,
        theta: swarm.publisher_residence,
        q1: psi / (r + psi),
        alpha1: swarm.altruist_residence,
        alpha2: swarm.publisher_residence,
    };
    let on_mean = p.expected().min(24.0 * 365.0 * 10.0); // cap at 10 years
    SeedProcessParams {
        on_mean,
        off_mean: 1.0 / r,
    }
}

/// Stationary probability that at least one seed is online at the given
/// age (the snapshot statistic used in §2.3.2).
pub fn stationary_availability(swarm: &Swarm, age_days: f64) -> f64 {
    let p = seed_process(swarm, age_days);
    p.on_mean / (p.on_mean + p.off_mean)
}

/// Outcome of one [`seed_walk`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedWalk {
    /// Hours with at least one seed online.
    pub on_hours: f64,
    /// ON↔OFF transitions.
    pub toggles: u64,
    /// Dwells walked, one exponential draw each.
    pub dwells: u64,
    /// Was a seed online at the end of the horizon?
    pub final_on: bool,
}

/// Event-driven walk of `swarm`'s seed ON/OFF process over
/// `horizon_hours`, starting at age `start_age_days`.
///
/// The first state is drawn from the stationary availability at the
/// start age. Time then advances in weekly [`PARAM_REFRESH_HOURS`]
/// segments: within a segment the [`seed_process`] parameters are
/// constant, so dwell times are exponential and truncating one at the
/// segment end is exact by memorylessness.
///
/// `on_dwell(rng, from, until, age_days)` is called for every dwell
/// `[from, until)` hours with a seed online, right after the dwell's own
/// draw and before the next one; `age_days` is the swarm's age at the
/// start of the segment. Whatever the hook draws from `rng` therefore
/// lands at a fixed point in the stream.
pub fn seed_walk<R, F>(
    swarm: &Swarm,
    start_age_days: f64,
    horizon_hours: f64,
    rng: &mut R,
    mut on_dwell: F,
) -> SeedWalk
where
    R: Rng + ?Sized,
    F: FnMut(&mut R, f64, f64, f64),
{
    let refresh = PARAM_REFRESH_HOURS as f64;
    let p0 = seed_process(swarm, start_age_days);
    let mut on = rng.gen::<f64>() < p0.on_mean / (p0.on_mean + p0.off_mean);
    let (mut on_hours, mut toggles, mut dwells) = (0.0, 0, 0);
    let mut t = 0.0f64;
    while t < horizon_hours {
        let seg_end = (((t / refresh).floor() + 1.0) * refresh).min(horizon_hours);
        let age_days = start_age_days + t / 24.0;
        // The first segment starts at `start_age_days`, where `p0` already is.
        let params = if t == 0.0 {
            p0
        } else {
            seed_process(swarm, age_days)
        };
        while t < seg_end {
            let mean = if on { params.on_mean } else { params.off_mean };
            let dwell = Exp::new(1.0 / mean).expect("positive rate").sample(rng);
            let until = (t + dwell).min(seg_end);
            if on {
                on_hours += until - t;
                on_dwell(rng, t, until, age_days);
            }
            dwells += 1;
            t = until;
            if until < seg_end {
                on = !on;
                toggles += 1;
            }
        }
    }
    SeedWalk {
        on_hours,
        toggles,
        dwells,
        final_on: on,
    }
}

/// Is `t`, where a [`seed_walk`] dwell over `horizon_hours` starts or
/// ends, an ON↔OFF toggle? The walk toggles only strictly inside a
/// refresh segment, so every such point that is not a segment edge (a
/// multiple of [`PARAM_REFRESH_HOURS`] or the horizon) is one.
pub fn is_toggle(t: f64, horizon_hours: f64) -> bool {
    t != horizon_hours && t % PARAM_REFRESH_HOURS as f64 != 0.0
}

/// Hourly seed-presence samples over `months` months of monitoring,
/// starting at the swarm's creation: the agents' view of one
/// [`seed_walk`].
///
/// Sample `h` is the state at the end of hour `h`, as an agent polling
/// on the hour records it: online iff an ON dwell `[from, until)` has
/// `from < h + 1 <= until`, i.e. `h` in `floor(from)..floor(until)`.
/// Toggles fall on whole hours with probability zero, so the limit from
/// the left is the state at `h + 1`.
pub fn monitor<R: Rng + ?Sized>(swarm: &Swarm, months: u32, rng: &mut R) -> Vec<bool> {
    assert!(months >= 1, "must monitor for at least one month");
    let horizon_hours = months as f64 * HOURS_PER_MONTH;
    let mut samples = vec![false; horizon_hours as usize];
    seed_walk(swarm, 0.0, horizon_hours, rng, |_, from, until, _| {
        samples[from as usize..until as usize].fill(true);
    });
    samples
}

/// Fraction of samples with a seed present.
pub fn availability_fraction(samples: &[bool]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().filter(|&&s| s).count() as f64 / samples.len() as f64
}

/// Expected number of completed downloads over a monitoring window: peers
/// arrive at the (decayed) demand and complete when content is available.
pub fn expected_downloads(swarm: &Swarm, months: u32) -> f64 {
    let mut total = 0.0;
    for m in 0..months {
        let age_days = m as f64 * 30.0 + 15.0;
        let demand = swarm.demand * demand_decay(age_days);
        let avail = stationary_availability(swarm, age_days);
        total += demand * avail * HOURS_PER_MONTH;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{generate_catalog, CatalogConfig, Category};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn any_swarm() -> Swarm {
        generate_catalog(&CatalogConfig {
            scale: 0.002,
            seed: 3,
        })
        .into_iter()
        .find(|s| s.category == Category::Music)
        .expect("music swarm exists")
    }

    #[test]
    fn decay_functions_monotone() {
        assert!(demand_decay(0.0) > demand_decay(10.0));
        assert!(demand_decay(10.0) > demand_decay(100.0));
        assert!(demand_decay(1e6) >= 0.05 - 1e-12);
        assert!(publisher_decay(0.0) > publisher_decay(365.0));
    }

    #[test]
    fn seed_process_degrades_with_age() {
        let s = any_swarm();
        let young = seed_process(&s, 0.0);
        let old = seed_process(&s, 365.0);
        assert!(young.on_mean >= old.on_mean);
        assert!(young.off_mean <= old.off_mean);
        assert!(stationary_availability(&s, 0.0) >= stationary_availability(&s, 365.0));
    }

    #[test]
    fn seed_process_bits_are_pinned_for_heaviest_fig1_swarms() {
        // Figure 1's quick catalog; swarms 518, 398 and 31 carry the
        // largest eq. (9) loads (β·α₂ ≈ 1605, 765, 672 at age 0). Values
        // are (id, age in days, on_mean bits, off_mean bits).
        const GOLDEN: [(u64, f64, u64, u64); 9] = [
            (518, 0.0, 0x40f5630000000000, 0x4012bea3da269535),
            (518, 7.0, 0x40f5630000000000, 0x401ebec5bd1bd9d0),
            (518, 203.0, 0x40f5630000000000, 0x40824de0fdaadf20),
            (398, 0.0, 0x40f5630000000000, 0x3ffc33edf8d41bc1),
            (398, 7.0, 0x40f5630000000000, 0x40072118bb047d21),
            (398, 203.0, 0x40f1b92d14259b68, 0x406b8a4585037b52),
            (31, 0.0, 0x40f5630000000000, 0x401891b6e50c9002),
            (31, 7.0, 0x40f5630000000000, 0x402426391621bc08),
            (31, 203.0, 0x40c822c459386bf1, 0x4087fdea46a76198),
        ];
        let catalog = generate_catalog(&CatalogConfig {
            scale: 0.002,
            seed: 1001,
        });
        for (id, age, on_bits, off_bits) in GOLDEN {
            let p = seed_process(&catalog[id as usize], age);
            assert_eq!(
                (p.on_mean.to_bits(), p.off_mean.to_bits()),
                (on_bits, off_bits),
                "swarm {id} at {age} days: {p:?}"
            );
        }
    }

    #[test]
    fn monitor_matches_stationary_availability() {
        let s = any_swarm();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Average over many independent month-long traces.
        let mut frac_sum = 0.0;
        let reps = 200;
        for _ in 0..reps {
            let samples = monitor(&s, 1, &mut rng);
            assert_eq!(samples.len(), 720);
            frac_sum += availability_fraction(&samples);
        }
        let measured = frac_sum / reps as f64;
        // With decaying parameters the occupancy lags the stationary
        // curve (the process remembers its more-available past), so the
        // measured month-average must lie between the end-of-month and
        // start-of-month stationary availabilities.
        let lo = stationary_availability(&s, 30.0);
        let hi = stationary_availability(&s, 0.0);
        assert!(
            measured >= lo - 0.05 && measured <= hi + 0.05,
            "measured {measured} outside stationary envelope [{lo}, {hi}]"
        );
    }

    #[test]
    fn monitor_samples_the_walk() {
        // The agents' hour samples and the walk they poll describe one
        // trajectory: each maximal ON interval's sample count is within
        // one hour of its length, and there are at most toggles + 1.
        let catalog = generate_catalog(&CatalogConfig {
            scale: 0.002,
            seed: 1001,
        });
        let horizon = 7.0 * HOURS_PER_MONTH;
        for seed in [1002, 1003] {
            for s in &catalog {
                let samples = monitor(s, 7, &mut ChaCha8Rng::seed_from_u64(seed));
                let walk = seed_walk(
                    s,
                    0.0,
                    horizon,
                    &mut ChaCha8Rng::seed_from_u64(seed),
                    |_, _, _, _| {},
                );
                let on_samples = samples.iter().filter(|&&on| on).count() as f64;
                assert!(
                    (on_samples - walk.on_hours).abs() <= (walk.toggles + 1) as f64,
                    "swarm {}: {on_samples} ON samples vs {walk:?}",
                    s.id
                );
                assert_eq!(samples.last(), Some(&walk.final_on), "swarm {}", s.id);
            }
        }
    }

    #[test]
    fn availability_fraction_edge_cases() {
        assert!(availability_fraction(&[]).is_nan());
        assert_eq!(availability_fraction(&[true, true]), 1.0);
        assert_eq!(availability_fraction(&[true, false, false, false]), 0.25);
    }

    #[test]
    fn expected_downloads_positive_and_decaying() {
        let s = any_swarm();
        let one = expected_downloads(&s, 1);
        let seven = expected_downloads(&s, 7);
        assert!(one > 0.0);
        assert!(seven > one);
        // Month 7 adds less than month 1 did (decay).
        let six = expected_downloads(&s, 6);
        assert!(seven - six < one);
    }

    #[test]
    #[should_panic(expected = "at least one month")]
    fn monitor_rejects_zero_months() {
        let s = any_swarm();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        monitor(&s, 0, &mut rng);
    }
}
