//! The Figure 1 pipeline: per-swarm seed-availability CDFs.
//!
//! Figure 1 plots, over ~45k swarms each monitored for at least a month,
//! the CDF of the fraction of time at least one seed was available —
//! once over the first month after creation, once over the whole
//! (7-month) trace.

use crate::catalog::Swarm;
use crate::observe::{availability_fraction, monitor, HOURS_PER_MONTH};
use rand::Rng;
use serde::{Deserialize, Serialize};
use swarm_stats::Ecdf;

/// Result of the availability study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AvailabilityStudy {
    /// Per-swarm availability over the first month after creation.
    pub first_month: Ecdf,
    /// Per-swarm availability over the full monitoring window.
    pub whole_trace: Ecdf,
    /// Months in the full window.
    pub months: u32,
}

impl AvailabilityStudy {
    /// Fraction of swarms with a seed available the whole first month
    /// (the paper: "less than 35%").
    pub fn always_available_first_month(&self) -> f64 {
        1.0 - self.first_month.eval(1.0 - 1e-9)
    }

    /// Fraction of swarms unavailable at least `1 - threshold` of the
    /// whole trace; the paper: "almost 80% of the swarms are unavailable
    /// 80% of the time" → `whole_trace.eval(0.2) ≈ 0.8`.
    pub fn mostly_unavailable_whole_trace(&self, threshold: f64) -> f64 {
        self.whole_trace.eval(threshold)
    }
}

/// Run the availability study on the catalog: monitor every swarm hourly
/// for `months` months from its creation and build both CDFs.
pub fn availability_study<R: Rng + ?Sized>(
    swarms: &[Swarm],
    months: u32,
    rng: &mut R,
) -> AvailabilityStudy {
    assert!(months >= 1);
    let mut first = Vec::with_capacity(swarms.len());
    let mut whole = Vec::with_capacity(swarms.len());
    for s in swarms {
        let samples = monitor(s, months, rng);
        first.push(availability_fraction(&samples[..HOURS_PER_MONTH as usize]));
        whole.push(availability_fraction(&samples));
    }
    AvailabilityStudy {
        first_month: Ecdf::new(first),
        whole_trace: Ecdf::new(whole),
        months,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{generate_catalog, CatalogConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn study_reproduces_figure_1_calibration() {
        let swarms = generate_catalog(&CatalogConfig {
            scale: 0.004,
            seed: 17,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let study = availability_study(&swarms, 7, &mut rng);

        // Paper: "less than 35% of the swarms had at least one seed
        // available all the time" in the first month.
        let always = study.always_available_first_month();
        assert!(always < 0.45, "always-available share too high: {always}");
        assert!(always > 0.05, "some swarms must be fully seeded: {always}");

        // Paper: "almost 80% of the swarms are unavailable 80% of the
        // time" over the whole trace.
        let mostly_off = study.mostly_unavailable_whole_trace(0.2);
        assert!(
            mostly_off > 0.55,
            "whole-trace unavailability too low: {mostly_off}"
        );

        // The whole-trace curve dominates the first-month curve (old
        // swarms are less available): CDF higher at every point.
        for q in [0.1, 0.3, 0.5, 0.7, 0.9] {
            assert!(
                study.whole_trace.eval(q) >= study.first_month.eval(q) - 0.05,
                "whole-trace CDF must lie above first-month at {q}"
            );
        }
    }

    #[test]
    fn fractions_are_probabilities() {
        let swarms = generate_catalog(&CatalogConfig {
            scale: 0.001,
            seed: 29,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let study = availability_study(&swarms, 2, &mut rng);
        for &v in study.first_month.sorted_values() {
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(study.months, 2);
    }
}
