//! Expected busy periods of the M/G/∞ queue.
//!
//! Browne & Steele (1993) give the expected busy period when the customer
//! *initiating* the busy period has an exceptional residence time. The
//! paper builds every availability result on three specializations:
//!
//! * **eq. (20)** — all customers exponential with mean `α`:
//!   `E[B] = (e^{βα} − 1)/β` ([`classical_busy_period`]);
//! * **eq. (18)** — general initiator with Laplace transform `h`, other
//!   customers exponential with mean `α`:
//!   `E[B] = θ + Σ_{i≥1} (βα)^i α (1 − h(i/α)) / (i!·i)`
//!   ([`exceptional_busy_period`]);
//! * **eq. (9)** — exponential initiator with mean `θ`, other customers a
//!   two-phase exponential mixture (peers with mean `α₁ = s/μ` w.p.
//!   `q₁ = λ/(λ+r)`, publishers with mean `α₂ = u` otherwise)
//!   ([`two_phase_busy_period`]).
//!
//! For bundles the exponent `βα ≈ K²λs/μ` reaches the hundreds, so each
//! formula has an `ln_*` twin evaluated entirely in the log domain.

use crate::dist::ResidenceTime;
use crate::series::{
    ln_add_exp, ln_factorial, ln_sub_exp, ln_sum_series, LogSumExp, SeriesControl, LN_ABSORBED,
};
use serde::{Deserialize, Serialize};

fn check_positive(name: &str, v: f64) {
    assert!(
        v > 0.0 && v.is_finite(),
        "{name} must be positive and finite, got {v}"
    );
}

/// Classical M/G/∞ busy period, paper eq. (20): all customers (including
/// the initiator) exponential with mean `alpha`, Poisson arrivals at rate
/// `beta`.
///
/// Returns `+inf` when `beta * alpha` exceeds ~709 (f64 overflow); use
/// [`ln_classical_busy_period`] in that regime.
pub fn classical_busy_period(beta: f64, alpha: f64) -> f64 {
    check_positive("beta", beta);
    check_positive("alpha", alpha);
    ((beta * alpha).exp() - 1.0) / beta
}

/// `ln E[B]` for the classical busy period, finite for any load:
/// `ln((e^{βα} − 1)/β)`.
pub fn ln_classical_busy_period(beta: f64, alpha: f64) -> f64 {
    check_positive("beta", beta);
    check_positive("alpha", alpha);
    ln_sub_exp(beta * alpha, 0.0) - beta.ln()
}

/// Busy period with an exceptional initiator, paper eq. (18).
///
/// The initiator draws its residence from `initiator` (mean `θ`, Laplace
/// transform `h`); all subsequent customers are exponential with mean
/// `alpha`; arrivals are Poisson at rate `beta`:
///
/// `E[B] = θ + Σ_{i≥1} (βα)^i α [1 − h(i/α)] / (i!·i)`
pub fn exceptional_busy_period(beta: f64, initiator: &dyn ResidenceTime, alpha: f64) -> f64 {
    ln_exceptional_busy_period(beta, initiator, alpha).exp()
}

/// `ln E[B]` for [`exceptional_busy_period`], evaluated in the log domain.
pub fn ln_exceptional_busy_period(beta: f64, initiator: &dyn ResidenceTime, alpha: f64) -> f64 {
    check_positive("beta", beta);
    check_positive("alpha", alpha);
    let theta = initiator.mean();
    assert!(theta >= 0.0, "initiator mean must be nonnegative");
    let ln_ba = (beta * alpha).ln();
    let ln_series = ln_sum_series(
        |i| {
            let h = initiator.laplace(i as f64 / alpha);
            debug_assert!(
                (0.0..=1.0 + 1e-12).contains(&h),
                "Laplace transform out of [0,1]: {h}"
            );
            let one_minus_h = (1.0 - h).max(0.0);
            if one_minus_h == 0.0 {
                return f64::NEG_INFINITY;
            }
            i as f64 * ln_ba + alpha.ln() + one_minus_h.ln() - ln_factorial(i) - (i as f64).ln()
        },
        SeriesControl::default(),
    );
    if theta == 0.0 {
        ln_series
    } else {
        ln_add_exp(theta.ln(), ln_series)
    }
}

/// Parameters of the paper's eq. (9): exponential initiator with mean
/// `theta`, subsequent customers a two-phase exponential mixture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoPhaseBusyPeriod {
    /// Poisson arrival rate `β` of customers *during* the busy period
    /// (peers plus publishers: `λ + r` for a swarm, `Λ + R` for a bundle).
    pub beta: f64,
    /// Mean residence time `θ` of the exceptional initiator (the publisher
    /// that starts the busy period: `u` or `U`).
    pub theta: f64,
    /// Probability that a subsequent customer is of type 1 (a peer):
    /// `q₁ = λ/(λ+r)`.
    pub q1: f64,
    /// Mean residence of type-1 customers (`α₁ = s/μ`, the download time).
    pub alpha1: f64,
    /// Mean residence of type-2 customers (`α₂ = u`, publisher residence).
    pub alpha2: f64,
}

impl TwoPhaseBusyPeriod {
    fn validate(&self) {
        check_positive("beta", self.beta);
        check_positive("theta", self.theta);
        check_positive("alpha1", self.alpha1);
        check_positive("alpha2", self.alpha2);
        assert!(
            (0.0..=1.0).contains(&self.q1),
            "q1 must be in [0,1], got {}",
            self.q1
        );
    }

    /// `E[B]` by eq. (9). May be `+inf` under extreme loads; use
    /// [`Self::ln_expected`] there.
    pub fn expected(&self) -> f64 {
        self.ln_expected().exp()
    }

    /// `ln E[B]` by eq. (9), evaluated in the log domain:
    ///
    /// `E[B] = θ + Σ_{i≥1} (βⁱ/i!) Σ_{j=0}^{i} C(i,j) q₁ʲ q₂^{i−j}
    ///          α₁^{1+j} α₂^{1−j+i} θ / (α₁α₂ + jθα₂ + θα₁(i−j))`
    ///
    /// The double series is O(N²) in the number of outer terms, so the
    /// invariant logs are hoisted, `ln i!` comes from a table filled by
    /// [`ln_factorial`], and inner terms that provably cannot change the
    /// accumulator's bits are skipped before their `denom.ln()` (see
    /// DESIGN.md, "Numerical notes"). Every term that is kept is computed
    /// with the same operations in the same order as the plain loop, so
    /// the result is bit-identical to it.
    pub fn ln_expected(&self) -> f64 {
        self.validate();
        let &TwoPhaseBusyPeriod {
            beta,
            theta,
            q1,
            alpha1,
            alpha2,
        } = self;
        let q2 = 1.0 - q1;
        let ln_q1 = if q1 > 0.0 { q1.ln() } else { f64::NEG_INFINITY };
        let ln_q2 = if q2 > 0.0 { q2.ln() } else { f64::NEG_INFINITY };
        let (ln_beta, ln_theta) = (beta.ln(), theta.ln());
        let (ln_alpha1, ln_alpha2) = (alpha1.ln(), alpha2.ln());
        let denom = |i: u64, j: u64| {
            alpha1 * alpha2 + j as f64 * theta * alpha2 + theta * alpha1 * (i - j) as f64
        };
        // ln_fact[n] = ln n! for every n reached so far.
        let mut ln_fact = vec![ln_factorial(0)];

        let ln_series = ln_sum_series(
            |i| {
                ln_fact.push(ln_factorial(i));
                let lf = |n: u64| ln_fact[n as usize];
                // `denom` is linear in j: its minimum over 0..=i sits at
                // an endpoint, which bounds `−ln denom` from above.
                let ln_denom_min = denom(i, 0).min(denom(i, i)).ln();
                let mut inner = LogSumExp::new();
                for j in 0..=i {
                    // Degenerate mixture weights: skip impossible terms
                    // rather than evaluate 0^0 via logs.
                    if (q1 == 0.0 && j > 0) || (q2 == 0.0 && j < i) {
                        continue;
                    }
                    let jf = j as f64;
                    let imj = (i - j) as f64;
                    let mut t = lf(i) - lf(j) - lf(i - j);
                    if j > 0 {
                        t += jf * ln_q1;
                    }
                    if i - j > 0 {
                        t += imj * ln_q2;
                    }
                    let rest =
                        (1.0 + jf) * ln_alpha1 + (1.0 - jf + i as f64) * ln_alpha2 + ln_theta;
                    // Absorbed even at its upper bound: the 1-nat margin
                    // past `LN_ABSORBED` covers the bound's own rounding.
                    if t + (rest - ln_denom_min) < inner.ln_max() + (LN_ABSORBED - 1.0) {
                        continue;
                    }
                    t += rest - denom(i, j).ln();
                    if t - inner.ln_max() < LN_ABSORBED {
                        continue;
                    }
                    inner.add_ln(t);
                }
                i as f64 * ln_beta - lf(i) + inner.ln_sum()
            },
            SeriesControl::default(),
        );
        ln_add_exp(ln_theta, ln_series)
    }
}

/// Convenience wrapper: eq. (9) in linear domain.
pub fn two_phase_busy_period(p: TwoPhaseBusyPeriod) -> f64 {
    p.expected()
}

/// Convenience wrapper: eq. (9) in the log domain.
pub fn ln_two_phase_busy_period(p: TwoPhaseBusyPeriod) -> f64 {
    p.ln_expected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exp, MaxOfExponentials};
    use proptest::prelude::*;

    /// The plain eq. (9) double loop: every log taken in place, every
    /// inner term accumulated. [`TwoPhaseBusyPeriod::ln_expected`] must
    /// reproduce it bit for bit.
    fn ln_expected_reference(p: &TwoPhaseBusyPeriod) -> f64 {
        p.validate();
        let &TwoPhaseBusyPeriod {
            beta,
            theta,
            q1,
            alpha1,
            alpha2,
        } = p;
        let q2 = 1.0 - q1;
        let ln_q1 = if q1 > 0.0 { q1.ln() } else { f64::NEG_INFINITY };
        let ln_q2 = if q2 > 0.0 { q2.ln() } else { f64::NEG_INFINITY };

        let ln_series = ln_sum_series(
            |i| {
                let mut inner = LogSumExp::new();
                for j in 0..=i {
                    if (q1 == 0.0 && j > 0) || (q2 == 0.0 && j < i) {
                        continue;
                    }
                    let jf = j as f64;
                    let imj = (i - j) as f64;
                    let denom = alpha1 * alpha2 + jf * theta * alpha2 + theta * alpha1 * imj;
                    let mut t = crate::series::ln_binomial(i, j);
                    if j > 0 {
                        t += jf * ln_q1;
                    }
                    if i - j > 0 {
                        t += imj * ln_q2;
                    }
                    t +=
                        (1.0 + jf) * alpha1.ln() + (1.0 - jf + i as f64) * alpha2.ln() + theta.ln()
                            - denom.ln();
                    inner.add_ln(t);
                }
                i as f64 * beta.ln() - ln_factorial(i) + inner.ln_sum()
            },
            SeriesControl::default(),
        );
        ln_add_exp(theta.ln(), ln_series)
    }

    fn assert_bit_identical(p: TwoPhaseBusyPeriod) {
        let (fast, slow) = (p.ln_expected(), ln_expected_reference(&p));
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "{p:?}: fast {fast:e} vs reference {slow:e}"
        );
    }

    /// Small-load swarm: the `eq9_two_phase_small_load` bench case.
    const SMALL_LOAD: TwoPhaseBusyPeriod = TwoPhaseBusyPeriod {
        beta: 1.0 / 60.0 + 1.0 / 900.0,
        theta: 300.0,
        q1: 0.9375,
        alpha1: 80.0,
        alpha2: 300.0,
    };

    /// K = 6 bundle (load ~48): the `eq9_two_phase_bundle_load` bench case.
    const K6_BUNDLE: TwoPhaseBusyPeriod = TwoPhaseBusyPeriod {
        beta: 6.0 / 60.0 + 1.0 / 900.0,
        theta: 300.0,
        q1: 0.989,
        alpha1: 480.0,
        alpha2: 300.0,
    };

    /// The heaviest swarm of Figure 1's quick catalog (scale 0.002, seed
    /// 1001) at age 0: `β·α₂ ≈ 1,605`, the measurement study's worst case.
    const CATALOG_HEAVY: TwoPhaseBusyPeriod = TwoPhaseBusyPeriod {
        beta: 0.2305811236819636,
        theta: 6962.240661799043,
        q1: 0.07453919301692861,
        alpha1: 1.1309765934891878,
        alpha2: 6962.240661799043,
    };

    #[test]
    fn fast_eq9_is_bit_identical_on_fixed_cases() {
        assert_bit_identical(SMALL_LOAD);
        assert_bit_identical(K6_BUNDLE);
        for q1 in [0.0, 1.0] {
            assert_bit_identical(TwoPhaseBusyPeriod { q1, ..SMALL_LOAD });
            assert_bit_identical(TwoPhaseBusyPeriod { q1, ..K6_BUNDLE });
        }
    }

    #[test]
    #[ignore = "heavy load; run with `cargo test --release -p swarm-queue -- --ignored`"]
    fn fast_eq9_is_bit_identical_at_catalog_heavy_load() {
        assert_bit_identical(CATALOG_HEAVY);
        for q1 in [0.0, 1.0] {
            assert_bit_identical(TwoPhaseBusyPeriod {
                q1,
                ..CATALOG_HEAVY
            });
        }
    }

    #[test]
    #[ignore = "heavy load; run with `cargo test --release -p swarm-queue -- --ignored`"]
    fn fast_eq9_is_bit_identical_at_bundle_scale_load() {
        // The K = 30 bundle of `two_phase_ln_survives_bundle_scale_loads`:
        // β·α₁ = 27,000, tens of thousands of outer terms.
        assert_bit_identical(TwoPhaseBusyPeriod {
            beta: 15.0,
            theta: 300.0,
            q1: 0.99,
            alpha1: 1800.0,
            alpha2: 300.0,
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fast_eq9_is_bit_identical(
            beta in 0.01..0.3f64,
            theta in 1.0..30f64,
            q1 in 0.0..1.0f64,
            alpha1 in 0.5..30f64,
            alpha2 in 0.5..30f64,
        ) {
            let p = TwoPhaseBusyPeriod { beta, theta, q1, alpha1, alpha2 };
            prop_assert_eq!(p.ln_expected().to_bits(), ln_expected_reference(&p).to_bits());
        }
    }

    #[test]
    fn classical_small_load() {
        // βα = 0.5: E[B] = (e^0.5 - 1)/β
        let b = classical_busy_period(0.25, 2.0);
        assert!((b - (0.5f64.exp() - 1.0) / 0.25).abs() < 1e-12);
    }

    #[test]
    fn ln_classical_matches_linear() {
        let b = classical_busy_period(0.1, 5.0);
        let ln_b = ln_classical_busy_period(0.1, 5.0);
        assert!((ln_b - b.ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_classical_survives_huge_load() {
        // βα = 2000: linear form overflows, log form ≈ βα − ln β
        let ln_b = ln_classical_busy_period(2.0, 1000.0);
        assert!((ln_b - (2000.0 - 2f64.ln())).abs() < 1e-9);
        assert_eq!(classical_busy_period(2.0, 1000.0), f64::INFINITY);
    }

    #[test]
    fn classical_busy_period_grows_with_load() {
        let mut prev = 0.0;
        for k in 1..=10 {
            let b = classical_busy_period(0.01 * k as f64, 10.0);
            assert!(b > prev);
            prev = b;
        }
    }

    #[test]
    fn exceptional_with_exponential_initiator_theta_eq_alpha_reduces_to_classical() {
        // eq (18) with H = Exp(α) must equal eq (20).
        let (beta, alpha) = (0.3, 4.0);
        let b18 = exceptional_busy_period(beta, &Exp::new(alpha), alpha);
        let b20 = classical_busy_period(beta, alpha);
        assert!(
            ((b18 - b20) / b20).abs() < 1e-10,
            "eq18={b18} vs eq20={b20}"
        );
    }

    #[test]
    fn exceptional_eq19_closed_form() {
        // eq (19): exponential initiator mean θ ≠ α.
        // E[B] = θ + αθ Σ (βα)^i / (i! (α + iθ))
        let (beta, theta, alpha) = (0.2, 7.0, 3.0);
        let mut direct = theta;
        let mut pow = 1.0;
        let mut fact = 1.0;
        for i in 1..200u32 {
            pow *= beta * alpha;
            fact *= i as f64;
            direct += alpha * theta * pow / (fact * (alpha + i as f64 * theta));
        }
        let b = exceptional_busy_period(beta, &Exp::new(theta), alpha);
        assert!(((b - direct) / direct).abs() < 1e-10, "{b} vs {direct}");
    }

    #[test]
    fn exceptional_longer_initiator_gives_longer_busy_period() {
        let beta = 0.2;
        let alpha = 3.0;
        let short = exceptional_busy_period(beta, &Exp::new(1.0), alpha);
        let long = exceptional_busy_period(beta, &Exp::new(10.0), alpha);
        assert!(long > short);
    }

    #[test]
    fn exceptional_with_max_initiator_exceeds_single() {
        // A busy period started by max(X1..X5) outlasts one started by X1.
        let beta = 0.2;
        let alpha = 3.0;
        let one = exceptional_busy_period(beta, &MaxOfExponentials::new(1, alpha), alpha);
        let five = exceptional_busy_period(beta, &MaxOfExponentials::new(5, alpha), alpha);
        assert!(five > one);
        // n = 1 must agree with the classical form.
        let classical = classical_busy_period(beta, alpha);
        assert!(((one - classical) / classical).abs() < 1e-10);
    }

    #[test]
    fn two_phase_reduces_to_classical_when_all_means_equal() {
        // α1 = α2 = θ = α ⇒ eq (9) = eq (20) regardless of q1.
        let (beta, alpha) = (0.15, 6.0);
        for &q1 in &[0.0, 0.3, 0.5, 0.9, 1.0] {
            let p = TwoPhaseBusyPeriod {
                beta,
                theta: alpha,
                q1,
                alpha1: alpha,
                alpha2: alpha,
            };
            let b9 = p.expected();
            let b20 = classical_busy_period(beta, alpha);
            assert!(((b9 - b20) / b20).abs() < 1e-10, "q1={q1}: {b9} vs {b20}");
        }
    }

    #[test]
    fn two_phase_reduces_to_eq19_when_components_equal() {
        // α1 = α2 = α, θ free ⇒ eq (9) = eq (19) = exceptional exp initiator.
        let (beta, theta, alpha) = (0.25, 9.0, 2.5);
        let p = TwoPhaseBusyPeriod {
            beta,
            theta,
            q1: 0.4,
            alpha1: alpha,
            alpha2: alpha,
        };
        let b9 = p.expected();
        let b19 = exceptional_busy_period(beta, &Exp::new(theta), alpha);
        assert!(((b9 - b19) / b19).abs() < 1e-10, "{b9} vs {b19}");
    }

    #[test]
    fn two_phase_degenerate_q1_one_uses_only_component_one() {
        let p = TwoPhaseBusyPeriod {
            beta: 0.2,
            theta: 5.0,
            q1: 1.0,
            alpha1: 3.0,
            alpha2: 1234.0, // must be irrelevant
        };
        let q = TwoPhaseBusyPeriod { alpha2: 5.6, ..p };
        assert!(((p.expected() - q.expected()) / p.expected()).abs() < 1e-10);
    }

    #[test]
    fn two_phase_monotone_in_beta_and_theta() {
        let base = TwoPhaseBusyPeriod {
            beta: 0.1,
            theta: 5.0,
            q1: 0.6,
            alpha1: 4.0,
            alpha2: 2.0,
        };
        let more_arrivals = TwoPhaseBusyPeriod { beta: 0.2, ..base };
        let longer_initiator = TwoPhaseBusyPeriod {
            theta: 10.0,
            ..base
        };
        assert!(more_arrivals.expected() > base.expected());
        assert!(longer_initiator.expected() > base.expected());
    }

    #[test]
    fn two_phase_ln_matches_linear_in_safe_range() {
        let p = TwoPhaseBusyPeriod {
            beta: 0.3,
            theta: 4.0,
            q1: 0.7,
            alpha1: 6.0,
            alpha2: 2.0,
        };
        assert!((p.ln_expected() - p.expected().ln()).abs() < 1e-10);
    }

    #[test]
    fn two_phase_ln_survives_bundle_scale_loads() {
        // K = 30 bundle: β α₁ ≈ 30·0.5 · 30·60 = huge; ln stays finite.
        let p = TwoPhaseBusyPeriod {
            beta: 15.0,
            theta: 300.0,
            q1: 0.99,
            alpha1: 1800.0,
            alpha2: 300.0,
        };
        let ln_b = p.ln_expected();
        assert!(ln_b.is_finite());
        // βα₁ = 27000; ln E[B] must be of that order.
        assert!(ln_b > 20_000.0 && ln_b < 30_000.0, "ln_b = {ln_b}");
    }

    #[test]
    #[should_panic(expected = "q1 must be in [0,1]")]
    fn two_phase_rejects_bad_weight() {
        TwoPhaseBusyPeriod {
            beta: 0.1,
            theta: 1.0,
            q1: 1.5,
            alpha1: 1.0,
            alpha2: 1.0,
        }
        .expected();
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn classical_rejects_zero_beta() {
        classical_busy_period(0.0, 1.0);
    }
}
