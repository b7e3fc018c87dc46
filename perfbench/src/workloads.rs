//! The three workloads. Each builds its op inputs from the workload seed,
//! and every op of a workload comes from one configuration class: only
//! the op's seed or its input slice varies.

use crate::trace::Tracer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use swarm_bt::{BtConfig, BtPublisher, BtResult};
use swarm_catalog::{availability_study_live, run_catalog, CatalogRunConfig};
use swarm_measurement::{
    availability_study, bias_study, generate_catalog, AvailabilityStudy, CatalogConfig, Observer,
    Swarm,
};
use swarm_sim::{Patience, PublisherProcess, ServiceModel, SimConfig, SimResult};

/// One workload: inputs built once in set-up, then ops run one at a time.
pub trait Workload: Sized {
    /// What one op returns; checked and digested outside the timed region.
    type Out;
    /// Untimed ops run at the end of set-up: about 0.4 s of them, so one
    /// set-up spans more than the host's sub-second speed swings.
    const WARMUP: usize;
    /// Whether the traced run turns on `swarm-obs` telemetry for the
    /// engine's tick counters.
    const OBS: bool;

    /// Generate every op input from `seed`.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;
    fn len(&self) -> usize;
    /// The op's configuration with its seed and input slice removed.
    fn class(&self, i: usize) -> String;
    fn run(&self, i: usize, tr: &mut Tracer) -> Self::Out;
    fn check(&mut self, i: usize, out: &Self::Out) -> Result<(), String>;
    fn digest(out: &Self::Out, d: &mut Digest);
}

/// SplitMix64 finaliser: independent op seeds from one workload seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn op_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| mix(seed, i)).collect()
}

/// FNV-1a over op outputs.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

fn in_unit(what: &str, v: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(format!("{what} {v} outside [0, 1]"))
    }
}

fn check_counts(what: &str, arrivals: u64, completions: u64, av: f64) -> Result<(), String> {
    if completions > arrivals {
        return Err(format!(
            "{what}: {completions} completions > {arrivals} arrivals"
        ));
    }
    in_unit(&format!("{what} availability"), av)
}

fn check_times(what: &str, times: &[f64]) -> Result<(), String> {
    match times.iter().find(|t| !(t.is_finite() && **t >= 0.0)) {
        Some(t) => Err(format!("{what}: download time {t}")),
        None => Ok(()),
    }
}

fn check_bt(r: &BtResult) -> Result<(), String> {
    check_counts("swarm-bt", r.arrivals, r.completions, r.availability)?;
    check_times("swarm-bt", r.download_times.values())
}

fn digest_bt(r: &BtResult, d: &mut Digest) {
    d.u64(r.arrivals);
    d.u64(r.completions);
    d.f64(r.availability);
    d.u64(r.in_flight_at_horizon);
    r.download_times.values().iter().for_each(|&t| d.f64(t));
}

/// `swarm_bt::run` inside a span; in a traced run also the engine's
/// tick and byte counters, read as deltas around the call.
fn traced_bt_run(cfg: &BtConfig, tr: &mut Tracer) -> BtResult {
    const COUNTERS: [(&str, &str); 3] = [
        ("bt.ticks", "swarm-bt.ticks"),
        ("bt.ticks_elided", "swarm-bt.ticks_elided"),
        ("bt.bytes_moved", "swarm-bt.bytes_moved"),
    ];
    let before = tr
        .is_on()
        .then(|| COUNTERS.map(|(c, _)| swarm_obs::counter(c).get()));
    let r = tr.call("swarm-bt.run", || swarm_bt::run(cfg));
    if let Some(before) = before {
        for ((c, name), b) in COUNTERS.iter().zip(before) {
            tr.count(name, (swarm_obs::counter(c).get() - b) as f64);
        }
        tr.count("swarm-bt.arrivals", r.arrivals as f64);
        tr.count("swarm-bt.completions", r.completions as f64);
    }
    r
}

fn seedless(cfg: &BtConfig) -> String {
    format!(
        "{:?}",
        BtConfig {
            seed: 0,
            ..cfg.clone()
        }
    )
}

// ---------------------------------------------------------------------
// bundle-swarm
// ---------------------------------------------------------------------

/// Files per bundle: 6 × 16 pieces = 96, so a bitmap spans two words.
const BUNDLE_K: u32 = 6;
/// Ops per pass. Passes of about 9 s keep a 20 s run at two passes of
/// distinct inputs, which varies less across seeds than more repeats of
/// fewer inputs.
const BUNDLE_OPS: usize = 160;
/// Flow-level horizon (s): long enough to cross several publisher
/// on/off cycles, short enough that `swarm-sim` stays a minority.
const BUNDLE_SIM_HORIZON: f64 = 10_000.0;

/// Paper §4.3 K-file bundle through both engines.
pub struct BundleSwarm {
    bt: Vec<BtConfig>,
    sim: Vec<SimConfig>,
}

fn bundle_bt_config(seed: u64) -> BtConfig {
    BtConfig::paper_section_4_3(BUNDLE_K, seed)
}

fn bundle_sim_config(seed: u64) -> SimConfig {
    let k = BUNDLE_K as f64;
    SimConfig {
        lambda: k / 60.0,
        service: ServiceModel::Fluid {
            size: 4_000.0 * k,
            peer_upload: 50.0,
            publisher_upload: 100.0,
            download_cap: 4_000.0,
        },
        publisher: PublisherProcess::SingleOnOff {
            on_mean: 300.0,
            off_mean: 900.0,
            initially_on: true,
        },
        patience: Patience::Patient,
        linger_mean: None,
        coverage_threshold: 9,
        horizon: BUNDLE_SIM_HORIZON,
        warmup: 0.0,
        seed,
        record_timeline: false,
    }
}

fn check_sim(r: &SimResult) -> Result<(), String> {
    check_counts("swarm-sim", r.arrivals, r.completions, r.availability)?;
    check_times("swarm-sim", r.download_times.values())
}

impl Workload for BundleSwarm {
    type Out = (BtResult, SimResult);
    const WARMUP: usize = 8;
    const OBS: bool = true;

    fn setup(seed: u64, _tr: &mut Tracer) -> Self {
        let seeds = op_seeds(seed, BUNDLE_OPS);
        BundleSwarm {
            bt: seeds.iter().map(|&s| bundle_bt_config(s)).collect(),
            sim: seeds.iter().map(|&s| bundle_sim_config(s)).collect(),
        }
    }

    fn len(&self) -> usize {
        self.bt.len()
    }

    fn class(&self, i: usize) -> String {
        let sim = SimConfig {
            seed: 0,
            ..self.sim[i]
        };
        format!("{} {sim:?}", seedless(&self.bt[i]))
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Self::Out {
        let bt = traced_bt_run(&self.bt[i], tr);
        let sim = tr.call("swarm-sim.run", || swarm_sim::run(&self.sim[i]));
        (bt, sim)
    }

    fn check(&mut self, _i: usize, (bt, sim): &Self::Out) -> Result<(), String> {
        check_bt(bt)?;
        check_sim(sim)
    }

    fn digest((bt, sim): &Self::Out, d: &mut Digest) {
        digest_bt(bt, d);
        d.u64(sim.arrivals);
        d.u64(sim.completions);
        d.f64(sim.availability);
    }
}

// ---------------------------------------------------------------------
// idle-publisher
// ---------------------------------------------------------------------

/// Ops per pass (about 9 s).
const IDLE_OPS: usize = 176;
/// Arrival window (ticks).
const IDLE_HORIZON: u64 = 60_000;

/// A mostly idle K = 4 swarm whose publisher returns rarely: the
/// fast-forward detector and accounting replay dominate.
pub struct IdlePublisher {
    cfgs: Vec<BtConfig>,
}

fn idle_config(seed: u64) -> BtConfig {
    BtConfig {
        arrival_rate: 1.0 / 300.0,
        publisher: BtPublisher::OnOff {
            on_mean: 30.0,
            off_mean: 3_000.0,
            initially_on: true,
        },
        horizon: IDLE_HORIZON,
        drain_ticks: 600,
        pex_interval: 0,
        ..BtConfig::paper_section_4_3(4, seed)
    }
}

impl Workload for IdlePublisher {
    type Out = BtResult;
    const WARMUP: usize = 8;
    const OBS: bool = true;

    fn setup(seed: u64, _tr: &mut Tracer) -> Self {
        IdlePublisher {
            cfgs: op_seeds(seed, IDLE_OPS)
                .into_iter()
                .map(idle_config)
                .collect(),
        }
    }

    fn len(&self) -> usize {
        self.cfgs.len()
    }

    fn class(&self, i: usize) -> String {
        seedless(&self.cfgs[i])
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> BtResult {
        traced_bt_run(&self.cfgs[i], tr)
    }

    fn check(&mut self, _i: usize, out: &BtResult) -> Result<(), String> {
        check_bt(out)
    }

    fn digest(out: &BtResult, d: &mut Digest) {
        digest_bt(out, d);
    }
}

// ---------------------------------------------------------------------
// catalog-study
// ---------------------------------------------------------------------

/// Figure 1's quick catalog (`repro fig1 --quick`): about 2,200 swarms.
///
/// The catalog is this fixed input, not one generated from the workload
/// seed. A swarm's cost in every arm is set by its generated publisher
/// load (busy-period evaluations), and that load is heavy-tailed: over
/// seeded catalogs one pass took 3.6–11.7 s, a single swarm 6.5 s. The
/// workload seed drives every stochastic stream of the study instead.
const FIG1_CATALOG: CatalogConfig = CatalogConfig {
    scale: 0.002,
    seed: 1001,
};
/// Swarms per op; the ragged last chunk is dropped.
const CHUNK: usize = 16;
const STUDY_MONTHS: u32 = 7;
const BIAS_MONTHS: u32 = 3;
const DETECTION: f64 = 0.7;

/// The §2 measurement study, one catalog chunk per op.
pub struct CatalogStudy {
    chunks: Vec<Vec<Swarm>>,
    seeds: Vec<u64>,
}

/// What one catalog-study op produces.
pub struct StudyOut {
    sampled: AvailabilityStudy,
    live: AvailabilityStudy,
    events: u64,
    true_cdf: Vec<f64>,
    measured_cdf: Vec<f64>,
}

fn run_config(seed: u64) -> CatalogRunConfig {
    CatalogRunConfig {
        catalog_seed: seed,
        months: STUDY_MONTHS,
        threads: 1,
        start_at_generated_age: false,
    }
}

/// Split `catalog` into whole chunks, renumbering each chunk's ids from
/// zero (`run_catalog` requires id = index).
fn chunk_catalog(catalog: &[Swarm]) -> Vec<Vec<Swarm>> {
    catalog
        .chunks_exact(CHUNK)
        .map(|c| {
            c.iter()
                .enumerate()
                .map(|(i, s)| Swarm {
                    id: i as u64,
                    subset_of: None,
                    ..s.clone()
                })
                .collect()
        })
        .collect()
}

fn check_arm(what: &str, s: &AvailabilityStudy, n: usize) -> Result<(), String> {
    for (cdf, v) in [
        ("first month", &s.first_month),
        ("whole trace", &s.whole_trace),
    ] {
        if v.len() != n {
            return Err(format!("{what} {cdf}: {} of {n} swarms", v.len()));
        }
        v.sorted_values()
            .iter()
            .try_for_each(|&x| in_unit(&format!("{what} {cdf}"), x))?;
    }
    Ok(())
}

impl Workload for CatalogStudy {
    type Out = StudyOut;
    const WARMUP: usize = 12;
    const OBS: bool = false;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let catalog = tr.call("swarm-measurement.generate_catalog", || {
            generate_catalog(&FIG1_CATALOG)
        });
        let chunks = chunk_catalog(&catalog);
        CatalogStudy {
            seeds: op_seeds(seed, chunks.len()),
            chunks,
        }
    }

    fn len(&self) -> usize {
        self.chunks.len()
    }

    fn class(&self, i: usize) -> String {
        format!(
            "{} swarms {:?} bias {BIAS_MONTHS} months at {DETECTION}",
            self.chunks[i].len(),
            run_config(0)
        )
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> StudyOut {
        let chunk = &self.chunks[i];
        let mut rng = ChaCha8Rng::seed_from_u64(self.seeds[i]);
        let sampled = tr.call("swarm-measurement.availability_study", || {
            availability_study(chunk, STUDY_MONTHS, &mut rng)
        });
        let run = tr.call("swarm-catalog.run_catalog", || {
            run_catalog(chunk, &run_config(self.seeds[i]))
        });
        let live = tr.call("swarm-catalog.study_live", || availability_study_live(&run));
        let bias = tr.call("swarm-measurement.bias_study", || {
            bias_study(chunk, BIAS_MONTHS, Observer::new(DETECTION), &mut rng)
        });
        let events = run.per_swarm.iter().map(|s| s.events).sum();
        tr.count("swarm-catalog.events", events as f64);
        tr.count(
            "swarm-measurement.swarm_months",
            (chunk.len() as u32 * (STUDY_MONTHS + BIAS_MONTHS)) as f64,
        );
        StudyOut {
            sampled,
            live,
            events,
            true_cdf: bias.true_cdf.sorted_values().to_vec(),
            measured_cdf: bias.measured_cdf.sorted_values().to_vec(),
        }
    }

    fn check(&mut self, i: usize, out: &StudyOut) -> Result<(), String> {
        let n = self.chunks[i].len();
        check_arm("sampled study", &out.sampled, n)?;
        check_arm("live study", &out.live, n)?;
        for (what, v) in [
            ("bias true", &out.true_cdf),
            ("bias measured", &out.measured_cdf),
        ] {
            if v.len() != n {
                return Err(format!("{what}: {} of {n} swarms", v.len()));
            }
            v.iter().try_for_each(|&x| in_unit(what, x))?;
        }
        Ok(())
    }

    fn digest(out: &StudyOut, d: &mut Digest) {
        for s in [&out.sampled, &out.live] {
            s.first_month.sorted_values().iter().for_each(|&x| d.f64(x));
            s.whole_trace.sorted_values().iter().for_each(|&x| d.f64(x));
        }
        out.true_cdf.iter().for_each(|&x| d.f64(x));
        out.measured_cdf.iter().for_each(|&x| d.f64(x));
        d.u64(out.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_up<W: Workload>(seed: u64) -> W {
        W::setup(seed, &mut Tracer::new(false))
    }

    /// Digest of the first `ops` ops, each checked like a timed op.
    fn digest_of<W: Workload>(seed: u64, ops: usize) -> u64 {
        let mut tr = Tracer::new(false);
        let mut w = W::setup(seed, &mut tr);
        let mut d = Digest::default();
        for i in 0..ops {
            let out = w.run(i, &mut tr);
            w.check(i, &out).expect("op output passes its check");
            W::digest(&out, &mut d);
        }
        d.value()
    }

    /// Every op of every seed shares one configuration class.
    fn one_class<W: Workload>() {
        let a = set_up::<W>(1);
        let b = set_up::<W>(2);
        assert!(a.len() >= 20, "too few ops per pass: {}", a.len());
        let class = a.class(0);
        for w in [&a, &b] {
            for i in 0..w.len() {
                assert_eq!(w.class(i), class, "op {i}");
            }
        }
    }

    fn digest_follows_seed<W: Workload>(ops: usize) {
        let d7 = digest_of::<W>(7, ops);
        assert_eq!(d7, digest_of::<W>(7, ops), "same seed, same digest");
        assert_ne!(d7, digest_of::<W>(8, ops), "other seed, other digest");
    }

    #[test]
    fn bundle_swarm_is_one_class_and_seeded() {
        one_class::<BundleSwarm>();
        digest_follows_seed::<BundleSwarm>(2);
    }

    #[test]
    fn idle_publisher_is_one_class_and_seeded() {
        one_class::<IdlePublisher>();
        digest_follows_seed::<IdlePublisher>(2);
    }

    #[test]
    fn catalog_study_is_one_class_and_seeded() {
        one_class::<CatalogStudy>();
        digest_follows_seed::<CatalogStudy>(3);
    }

    #[test]
    fn op_seeds_differ_between_ops_and_workload_seeds() {
        let a = op_seeds(1, 64);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert_ne!(a, op_seeds(2, 64));
    }

    #[test]
    fn catalog_chunks_are_whole_and_renumbered() {
        let w = set_up::<CatalogStudy>(1);
        for chunk in &w.chunks {
            assert_eq!(chunk.len(), CHUNK);
            assert!(chunk.iter().enumerate().all(|(i, s)| s.id == i as u64));
        }
    }

    #[test]
    fn a_failed_check_is_reported() {
        let mut w = set_up::<IdlePublisher>(3);
        let mut out = w.run(0, &mut Tracer::new(false));
        assert!(w.check(0, &out).is_ok());
        out.completions = out.arrivals + 1;
        assert!(w.check(0, &out).is_err());
    }
}
