//! Microbenchmarks of the busy-period formulas — the inner loop of every
//! model sweep (each Figure 3 curve evaluates eq. (9) ~100 times).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use swarm_queue::busy::{classical_busy_period, TwoPhaseBusyPeriod};
use swarm_queue::dist::Exp;
use swarm_queue::general::{general_busy_period, IntegratedTail};

fn bench_busy(c: &mut Criterion) {
    c.bench_function("classical_busy_period", |b| {
        b.iter(|| classical_busy_period(black_box(0.02), black_box(80.0)))
    });

    let p_small = TwoPhaseBusyPeriod {
        beta: 1.0 / 60.0 + 1.0 / 900.0,
        theta: 300.0,
        q1: 0.9375,
        alpha1: 80.0,
        alpha2: 300.0,
    };
    c.bench_function("eq9_two_phase_small_load", |b| {
        b.iter(|| black_box(p_small).expected())
    });

    // K = 6 bundle: load ~48, hundreds of series terms.
    let p_bundle = TwoPhaseBusyPeriod {
        beta: 6.0 / 60.0 + 1.0 / 900.0,
        theta: 300.0,
        q1: 0.989,
        alpha1: 480.0,
        alpha2: 300.0,
    };
    c.bench_function("eq9_two_phase_bundle_load", |b| {
        b.iter(|| black_box(p_bundle).ln_expected())
    });

    // The heaviest swarm of Figure 1's quick catalog at age 0 (β·α₂ ≈
    // 1,605): the eq. (9) evaluation the measurement study spends most on.
    let p_catalog_heavy = TwoPhaseBusyPeriod {
        beta: 0.2305811236819636,
        theta: 6962.240661799043,
        q1: 0.07453919301692861,
        alpha1: 1.1309765934891878,
        alpha2: 6962.240661799043,
    };
    c.bench_function("eq9_two_phase_catalog_heavy", |b| {
        b.iter(|| black_box(p_catalog_heavy).ln_expected())
    });

    c.bench_function("eq18_exceptional_initiator", |b| {
        let initiator = Exp::new(300.0);
        b.iter(|| {
            swarm_queue::busy::exceptional_busy_period(black_box(0.02), &initiator, black_box(80.0))
        })
    });

    c.bench_function("general_busy_period_lingering", |b| {
        let tail = IntegratedTail::mix(
            0.9,
            &IntegratedTail::hypoexp2(80.0, 120.0),
            &IntegratedTail::exponential(300.0),
        );
        b.iter(|| general_busy_period(black_box(0.02), black_box(300.0), &tail))
    });
}

criterion_group!(benches, bench_busy);
criterion_main!(benches);
