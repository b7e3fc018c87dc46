//! The sharded catalog engine.
//!
//! One [`SwarmSummary`] per catalog swarm, produced by walking the
//! swarm's seed process with `swarm_measurement::observe::seed_walk`,
//! which owns the seed ON/OFF simulator (stationary first draw, weekly
//! parameter refresh, exact exponential dwells). This module adds the
//! peers that arrive while a seed is online, and the completers that
//! linger as seeds, drawing them from the swarm's stream inside the
//! walk's ON-dwell hook. An idle swarm therefore costs one RNG draw per
//! week of simulated time.
//!
//! # Determinism
//!
//! Every swarm draws from a private ChaCha8 stream keyed by
//! `(catalog_seed, swarm_id)` (see [`swarm_stream`]), and every field of
//! [`SwarmSummary`] is accumulated sequentially inside that swarm's own
//! walk. Shard assignment, shard count and steal order therefore cannot
//! perturb any summary: a run at 8 threads is bit-identical to a
//! 1-thread run. Anything aggregated *across* swarms must either be an
//! integer sum (order-independent) or be computed serially in id order
//! from the returned summaries — which is what [`CatalogRun`]'s
//! accessors do.

use crate::obsbatch::ShardObs;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use swarm_measurement::observe::{
    demand_decay, is_toggle, seed_walk, HOURS_PER_MONTH, PARAM_REFRESH_HOURS,
};
use swarm_measurement::Swarm;
use swarm_stats::parallel::run_stealing;

/// Default root seed for per-swarm streams.
pub const DEFAULT_CATALOG_SEED: u64 = 0xCA7A_1065;

/// Window width of the catalog time series, in hours of simulated time
/// (the virtual-tick unit of this engine). One week — the same
/// [`PARAM_REFRESH_HOURS`] discretization the walk itself advances by,
/// so window boundaries align with parameter-refresh segments.
pub const TS_WINDOW_HOURS: u64 = PARAM_REFRESH_HOURS as u64;

/// Configuration of one catalog run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CatalogRunConfig {
    /// Root seed all per-swarm streams derive from.
    pub catalog_seed: u64,
    /// Monitoring horizon in 30-day months (≥ 1).
    pub months: u32,
    /// Worker threads to request (≥ 1 effective; extra workers beyond
    /// the first are leased from the global [`ThreadBudget`] and the
    /// pool degrades gracefully when the budget grants fewer).
    ///
    /// [`ThreadBudget`]: swarm_stats::parallel::ThreadBudget
    pub threads: usize,
    /// When true, each swarm starts at its generated `age_days` (a
    /// snapshot continuation, as in the §2.3.2 case studies); when
    /// false all swarms start at creation (age 0), as in Figure 1.
    pub start_at_generated_age: bool,
}

impl Default for CatalogRunConfig {
    fn default() -> Self {
        CatalogRunConfig {
            catalog_seed: DEFAULT_CATALOG_SEED,
            months: 7,
            threads: 1,
            start_at_generated_age: false,
        }
    }
}

/// Per-swarm outcome of a catalog run. Every field is deterministic in
/// `(catalog_seed, swarm_id, config)` alone.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwarmSummary {
    /// Swarm id (== index into [`CatalogRun::per_swarm`]).
    pub id: u64,
    /// Hours with at least one seed online, over the whole horizon.
    pub on_hours: f64,
    /// Hours with a seed online during the first month.
    pub first_month_on_hours: f64,
    /// ON↔OFF transitions of the seed process.
    pub toggles: u64,
    /// Peers that arrived while a seed was present — i.e. downloads
    /// served. (Arrivals during seedless time find nothing to fetch and
    /// are not counted, matching the impatient-peer reading of §2.)
    pub arrivals: u64,
    /// Arrived peers that stayed to seed after completing (the
    /// altruists feeding the swarm's own seed process).
    pub lingered: u64,
    /// Dwell segments processed (the engine's event count).
    pub events: u64,
    /// Was a seed present at the end of the horizon?
    pub final_on: bool,
}

impl SwarmSummary {
    /// Fraction of the horizon with a seed available.
    pub fn availability(&self, horizon_hours: f64) -> f64 {
        self.on_hours / horizon_hours
    }

    /// Fraction of the first month with a seed available.
    pub fn first_month_availability(&self) -> f64 {
        self.first_month_on_hours / HOURS_PER_MONTH
    }
}

/// Outcome of ticking the whole catalog.
#[derive(Debug, Clone)]
pub struct CatalogRun {
    /// The configuration that produced this run.
    pub config: CatalogRunConfig,
    /// Monitoring horizon in hours.
    pub horizon_hours: f64,
    /// One summary per swarm, indexed by swarm id.
    pub per_swarm: Vec<SwarmSummary>,
    /// Wall-clock time of the sharded execution.
    pub wall: Duration,
}

impl CatalogRun {
    /// Total downloads served across the catalog.
    pub fn total_arrivals(&self) -> u64 {
        self.per_swarm.iter().map(|s| s.arrivals).sum()
    }

    /// Total seed-process transitions across the catalog.
    pub fn total_toggles(&self) -> u64 {
        self.per_swarm.iter().map(|s| s.toggles).sum()
    }

    /// End-of-horizon seed presence per swarm — the live analog of the
    /// stationary snapshot sample used by `book_stats`.
    pub fn seeded_flags(&self) -> Vec<bool> {
        self.per_swarm.iter().map(|s| s.final_on).collect()
    }
}

/// SplitMix64 — the standard 64-bit mixer, used here to expand
/// `(catalog_seed, swarm_id)` into a 256-bit ChaCha key.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The private RNG stream of one swarm: ChaCha8 keyed by a SplitMix64
/// expansion of `(catalog_seed, swarm_id)`. Streams for distinct ids
/// are statistically independent, and a swarm's stream never depends on
/// which shard simulates it.
pub fn swarm_stream(catalog_seed: u64, swarm_id: u64) -> ChaCha8Rng {
    let mut state = catalog_seed ^ swarm_id.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    ChaCha8Rng::from_seed(key)
}

/// One swarm's [`seed_walk`] over the horizon, with its peers: while a
/// seed is present, peer arrivals are generated from their
/// exponential inter-arrival times at the (age-decayed) demand, and each
/// arrival lingers as a seed with probability `altruist_rate / demand`.
pub fn simulate_swarm(swarm: &Swarm, cfg: &CatalogRunConfig) -> SwarmSummary {
    simulate_swarm_recorded(swarm, cfg, None)
}

/// Credit an on-dwell `[from, until)` (hours) to the recorder as
/// integer seconds, split at [`TS_WINDOW_HOURS`] boundaries so each
/// window carries exactly its share. Integer seconds keep the series
/// in the exactly-summable domain the cross-shard diff gate needs.
fn record_on_span(rec: &mut swarm_obs::Recorder, from: f64, until: f64) {
    let w = TS_WINDOW_HOURS as f64;
    let mut a = from;
    while a < until {
        let b = until.min(((a / w).floor() + 1.0) * w);
        rec.add(a as u64, "on_seconds", ((b - a) * 3600.0).round() as u64);
        a = b;
    }
}

/// [`simulate_swarm`] with an optional time-series recorder: arrivals,
/// lingering completers and seed toggles land in the window of their
/// event hour, seed on-time is spread across the windows it covers.
/// Every recorded quantity is derived from the swarm's own
/// deterministic walk, so recorders merged across any shard partition
/// produce identical windows (the shard-invariance test enforces it).
pub fn simulate_swarm_recorded(
    swarm: &Swarm,
    cfg: &CatalogRunConfig,
    mut ts: Option<&mut swarm_obs::Recorder>,
) -> SwarmSummary {
    assert!(cfg.months >= 1, "must run for at least one month");
    let mut rng = swarm_stream(cfg.catalog_seed, swarm.id);
    let horizon = cfg.months as f64 * HOURS_PER_MONTH;
    let start_age = if cfg.start_at_generated_age {
        swarm.age_days
    } else {
        0.0
    };
    let linger_p = (swarm.altruist_rate / swarm.demand).clamp(0.0, 1.0);
    let fm_end = HOURS_PER_MONTH.min(horizon);
    let mut first_month_on_hours = 0.0;
    let (mut arrivals, mut lingered) = (0, 0);

    let walk = seed_walk(
        swarm,
        start_age,
        horizon,
        &mut rng,
        |rng, from, until, age_days| {
            if from < fm_end {
                first_month_on_hours += until.min(fm_end) - from;
            }
            if let Some(rec) = ts.as_deref_mut() {
                record_on_span(rec, from, until);
                for t in [from, until] {
                    if is_toggle(t, horizon) {
                        rec.add(t as u64, "toggles", 1);
                    }
                }
            }
            // Peers arriving while the content is fetchable.
            let gap = Exp::new((swarm.demand * demand_decay(age_days)).max(1e-12))
                .expect("positive rate");
            let mut next = from + gap.sample(rng);
            while next < until {
                arrivals += 1;
                let lingers = rng.gen::<f64>() < linger_p;
                if lingers {
                    lingered += 1;
                }
                if let Some(rec) = ts.as_deref_mut() {
                    rec.add(next as u64, "arrivals", 1);
                    rec.add(next as u64, "lingered", u64::from(lingers));
                }
                next += gap.sample(rng);
            }
        },
    );
    SwarmSummary {
        id: swarm.id,
        on_hours: walk.on_hours,
        first_month_on_hours,
        toggles: walk.toggles,
        arrivals,
        lingered,
        events: walk.dwells,
        final_on: walk.final_on,
    }
}

/// Tick the entire catalog.
///
/// Swarms are partitioned in contiguous blocks across the shard pool;
/// idle shards steal from busy ones, and each shard batches its
/// telemetry locally, flushing to the global registry exactly once at
/// the shard barrier (see [`ShardObs`]). Swarm ids must be dense and
/// equal to their index (the catalog generator guarantees this).
pub fn run_catalog(swarms: &[Swarm], cfg: &CatalogRunConfig) -> CatalogRun {
    for (i, s) in swarms.iter().enumerate() {
        assert_eq!(s.id, i as u64, "catalog ids must be dense");
    }
    let start = Instant::now();
    let per_swarm = run_stealing(
        swarms.len(),
        cfg.threads,
        ShardObs::new,
        |obs, i| {
            let tick = Instant::now();
            let summary = simulate_swarm_recorded(&swarms[i], cfg, obs.ts_mut());
            obs.record_swarm(&summary, tick.elapsed());
            summary
        },
        |_shard, obs| obs.flush(),
    );
    CatalogRun {
        config: *cfg,
        horizon_hours: cfg.months as f64 * HOURS_PER_MONTH,
        per_swarm,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_measurement::{generate_catalog, CatalogConfig};

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn small_catalog() -> Vec<Swarm> {
        generate_catalog(&CatalogConfig {
            scale: 0.001,
            seed: 11,
        })
    }

    #[test]
    fn streams_are_keyed_by_seed_and_id() {
        let mut a = swarm_stream(1, 2);
        let mut b = swarm_stream(1, 2);
        let mut c = swarm_stream(1, 3);
        let mut d = swarm_stream(2, 2);
        let (xa, xb, xc, xd) = (
            a.gen::<u64>(),
            b.gen::<u64>(),
            c.gen::<u64>(),
            d.gen::<u64>(),
        );
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        assert_ne!(xa, xd);
    }

    #[test]
    fn summary_is_internally_consistent() {
        for s in small_catalog().iter().take(40) {
            let cfg = CatalogRunConfig {
                months: 2,
                ..CatalogRunConfig::default()
            };
            let out = simulate_swarm(s, &cfg);
            let horizon = 2.0 * HOURS_PER_MONTH;
            assert!(out.on_hours >= 0.0 && out.on_hours <= horizon + 1e-9);
            assert!(out.first_month_on_hours <= HOURS_PER_MONTH + 1e-9);
            assert!(out.first_month_on_hours <= out.on_hours + 1e-9);
            assert!(out.lingered <= out.arrivals);
            assert!(out.events >= out.toggles);
            // A walk covering the horizon needs at least one dwell per
            // refresh segment.
            assert!(out.events as f64 >= horizon / PARAM_REFRESH_HOURS as f64);
        }
    }

    #[test]
    fn rerun_is_bit_identical() {
        let swarms = small_catalog();
        let cfg = CatalogRunConfig {
            months: 2,
            ..CatalogRunConfig::default()
        };
        let a = run_catalog(&swarms, &cfg);
        let b = run_catalog(&swarms, &cfg);
        assert_eq!(a.per_swarm, b.per_swarm);
    }

    #[test]
    fn summaries_are_pinned_for_fig1_swarms() {
        // Figure 1's quick catalog walked as `catalog-live` walks it.
        // Swarms 518, 398 and 31 carry the largest eq. (9) loads and 372
        // toggles most often. Each row pins one swarm and start setting:
        // on_hours bits, first_month_on_hours bits, toggles, arrivals,
        // lingered, events, final_on and an FNV-1a of the recorded windows.
        type Pinned = (u64, u64, u64, u64, u64, u64, bool, u64);
        #[rustfmt::skip]
        const GOLDEN: [(usize, bool, Pinned); 12] = [
            (518, false, (0x40b3b00000000000, 0x4086800000000000, 0, 252, 16, 30, true, 0x81f76639facfee86)),
            (518, true, (0x40b3b00000000000, 0x4086800000000000, 0, 88, 3, 30, true, 0xb271cd82d3ed3213)),
            (398, false, (0x40b3b00000000000, 0x4086800000000000, 0, 470, 23, 30, true, 0x53ddb1b29b8dc808)),
            (398, true, (0x40b3b00000000000, 0x4086800000000000, 0, 176, 10, 30, true, 0x51271f390bde2934)),
            (31, false, (0x40b3b00000000000, 0x4086800000000000, 0, 2339, 125, 30, true, 0xf376177ef5b0db98)),
            (31, true, (0x40b3b00000000000, 0x4086800000000000, 0, 823, 42, 30, true, 0xfc700a5624857ef5)),
            (372, false, (0x40698008af008b98, 0x406402cbc642eab0, 328, 68, 2, 358, false, 0x1998d656047b79dc)),
            (372, true, (0x405d9280e421ef68, 0x4057b75981070358, 192, 19, 2, 222, false, 0xf6deb932d283d55a)),
            (0, false, (0x4084a086d26cb2ea, 0x407dce608956a720, 13, 2153, 91, 43, false, 0x101c7ed185a2659a)),
            (0, true, (0x405743a5edbd7e20, 0x405095fc8f089ed0, 4, 38, 1, 34, false, 0x5db8bac442fb3976)),
            (1500, false, (0x40af2ad089ae5b1b, 0x4086800000000000, 11, 28, 2, 41, false, 0xecb9efa2a9cbc6ab)),
            (1500, true, (0x40ac73390083b8dc, 0x4084c413c857cd0c, 9, 9, 0, 39, false, 0xcc45292937de77b3)),
        ];
        let catalog = generate_catalog(&CatalogConfig {
            scale: 0.002,
            seed: 1001,
        });
        for (id, start_at_generated_age, want) in GOLDEN {
            let cfg = CatalogRunConfig {
                catalog_seed: 1003,
                months: 7,
                threads: 1,
                start_at_generated_age,
            };
            let mut rec = swarm_obs::Recorder::new(TS_WINDOW_HOURS);
            let s = simulate_swarm_recorded(&catalog[id], &cfg, Some(&mut rec));
            assert_eq!(
                (
                    s.on_hours.to_bits(),
                    s.first_month_on_hours.to_bits(),
                    s.toggles,
                    s.arrivals,
                    s.lingered,
                    s.events,
                    s.final_on,
                    fnv1a(format!("{:?}", rec.windows()).as_bytes()),
                ),
                want,
                "swarm {id}, start_at_generated_age {start_at_generated_age}: {s:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one month")]
    fn zero_months_rejected() {
        let swarms = small_catalog();
        simulate_swarm(
            &swarms[0],
            &CatalogRunConfig {
                months: 0,
                ..CatalogRunConfig::default()
            },
        );
    }
}
