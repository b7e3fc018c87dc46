//! Pinned `BtResult` summaries for the two benchmark regimes.
//!
//! Engine optimisations must leave every decision and RNG draw where it
//! was. This test pins, bit for bit, what three seeds each of a busy
//! §4.3 K = 6 bundle and a mostly idle K = 4 swarm with a rarely
//! returning publisher produce: arrivals, completions, the availability
//! bits, peers in flight at the horizon, the last available tick, an
//! FNV-1a over the download-time bits, and the engine's deterministic
//! `bt.ticks` / `bt.ticks_elided` / `bt.bytes_moved` counter deltas.
//!
//! Own test binary: it owns the process-global `swarm-obs` state
//! (enable switch + counter registry), which must not race with other
//! tests' runs.

use swarm_bt::{run, BtConfig, BtPublisher};

/// Busy regime: the paper's §4.3 K = 6 bundle (96 pieces, two bitmap
/// words per row).
fn bundle(seed: u64) -> BtConfig {
    BtConfig::paper_section_4_3(6, seed)
}

/// Idle regime: K = 4, arrivals every 300 s, publisher on 30 s / off
/// 3000 s, PEX off — leechers spend most of the run blocked.
fn idle(seed: u64) -> BtConfig {
    BtConfig {
        arrival_rate: 1.0 / 300.0,
        publisher: BtPublisher::OnOff {
            on_mean: 30.0,
            off_mean: 3_000.0,
            initially_on: true,
        },
        horizon: 60_000,
        drain_ticks: 600,
        pex_interval: 0,
        ..BtConfig::paper_section_4_3(4, seed)
    }
}

fn fnv1a_f64s(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// arrivals, completions, availability bits, in flight at the horizon,
/// last available tick, download-time digest, then the `bt.ticks`,
/// `bt.ticks_elided` and `bt.bytes_moved` deltas.
type Pinned = (u64, u64, u64, u64, Option<u64>, u64, u64, u64, u64);

fn pin(cfg: &BtConfig) -> Pinned {
    let counters = ["bt.ticks", "bt.ticks_elided", "bt.bytes_moved"].map(swarm_obs::counter);
    let before = counters.map(|c| c.get());
    let r = run(cfg);
    let [ticks, elided, bytes] = [0, 1, 2].map(|i| counters[i].get() - before[i]);
    (
        r.arrivals,
        r.completions,
        r.availability.to_bits(),
        r.in_flight_at_horizon,
        r.last_available_tick,
        fnv1a_f64s(r.download_times.values()),
        ticks,
        elided,
        bytes,
    )
}

#[test]
fn results_are_pinned_for_the_benchmark_regimes() {
    #[rustfmt::skip]
    const GOLDEN: [(&str, u64, Pinned); 6] = [
        ("bundle", 1, (122, 122, 0x3fd4444444444444, 0, Some(3634), 0xf22e2db5d1a6abf3, 3635, 1916, 2980840)),
        ("bundle", 2, (115, 115, 0x3fea962fc962fc96, 0, Some(2056), 0x3ae917abf70f2f4e, 2057, 568, 2795248)),
        ("bundle", 3, (120, 80, 0x3fd8444444444444, 40, Some(3475), 0x097611f8304a757b, 4800, 3228, 2923252)),
        ("idle", 1, (209, 84, 0x3f84e3bcd35a8588, 125, Some(59115), 0x9970bebc2914862d, 60600, 56229, 3343856)),
        ("idle", 2, (181, 88, 0x3f88bf258bf258bf, 93, Some(58137), 0x14e66f83092ad6d7, 60600, 56534, 2918717)),
        ("idle", 3, (186, 16, 0x3f7cac083126e979, 170, Some(52813), 0xe11e644eeebc4d67, 60600, 56532, 2966356)),
    ];
    swarm_obs::set_enabled(true);
    let got: Vec<Pinned> = GOLDEN
        .iter()
        .map(|&(kind, seed, _)| {
            pin(&if kind == "bundle" {
                bundle(seed)
            } else {
                idle(seed)
            })
        })
        .collect();
    swarm_obs::set_enabled(false);
    for (&(kind, seed, want), got) in GOLDEN.iter().zip(got) {
        assert_eq!(got, want, "{kind} seed {seed}");
    }
}
