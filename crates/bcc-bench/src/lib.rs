//! Shared infrastructure for the experiment binaries.
//!
//! The five binaries in `src/bin/` regenerate the paper's evaluation and
//! the extensions indexed in DESIGN.md §4:
//!
//! | binary | experiment ids | paper artifact |
//! |---|---|---|
//! | `fig3` | E-F3a, E-F3b | Fig. 3 — optimal sum rates vs relay gain/position |
//! | `fig4` | E-F4a, E-F4b, E-X2 | Fig. 4 — rate regions and outer bounds |
//! | `crossover` | E-X1 | MABC/TDBC low-vs-high SNR reversal |
//! | `ablation` | E-A1, E-A2 | side-information & LP-vs-grid ablations |
//! | `validate` | E-V1, E-V2 | packet/symbol/fading validations |
//! | `dmt` | E-D1, E-D2 | finite-SNR DMT sweep & optimum power allocation |
//! | `multipair` | E-M1, E-M2 | K-pair shared-relay sum-rate/fairness & outage study |
//! | `city` | E-C1 | city-scale many-relay × many-pair assignment study |
//!
//! This library crate carries the paper's canonical parameter sets and the
//! output-directory convention so the binaries agree on both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bcc_core::gaussian::GaussianNetwork;
use bcc_core::scenario::SweepResult;
use bcc_num::Db;
use bcc_plot::Series;
use std::fs;
use std::path::{Path, PathBuf};

pub mod benchjson;

/// Fig. 3 transmit power: `P = 15 dB`.
pub const FIG3_POWER_DB: f64 = 15.0;
/// Fig. 3 direct-link gain normalisation: `G_ab = 0 dB`.
pub const FIG3_GAB_DB: f64 = 0.0;

/// Fig. 4 gains `(G_ab, G_ar, G_br)` in dB — see DESIGN.md §4 for why the
/// garbled caption resolves to this assignment.
pub const FIG4_GAINS_DB: (f64, f64, f64) = (-7.0, 0.0, 5.0);
/// Fig. 4 power settings (top and bottom panel).
pub const FIG4_POWERS_DB: [f64; 2] = [0.0, 10.0];

/// The Fig. 4 network at transmit power `p_db`.
pub fn fig4_network(p_db: f64) -> GaussianNetwork {
    let (gab, gar, gbr) = FIG4_GAINS_DB;
    GaussianNetwork::from_db(Db::new(p_db), Db::new(gab), Db::new(gar), Db::new(gbr))
}

/// A Fig. 3 network with symmetric relay gains `G_ar = G_br = g_db`.
pub fn fig3_symmetric_network(g_db: f64) -> GaussianNetwork {
    GaussianNetwork::from_db(
        Db::new(FIG3_POWER_DB),
        Db::new(FIG3_GAB_DB),
        Db::new(g_db),
        Db::new(g_db),
    )
}

/// Converts a batch [`SweepResult`] into one plottable [`Series`] per
/// evaluated protocol (in evaluation order) — the bridge between
/// `bcc-core`'s typed results and `bcc-plot`'s chart/CSV writers.
pub fn sweep_series(sweep: &SweepResult) -> Vec<Series> {
    sweep
        .protocols()
        .iter()
        .map(|&p| Series::from_points(p.name(), sweep.series_points(p)))
        .collect()
}

/// Canonical configuration of the finite-SNR DMT / power-allocation study
/// (E-D1/E-D2) — one source of truth shared by the `dmt` binary and the
/// workspace golden tests, so the pinned slopes and the published JSON
/// describe the same experiment.
pub mod dmtstudy {
    use bcc_channel::ChannelState;
    use bcc_core::prelude::*;

    /// SNR grid of the DMT sweep (per-node power in dB, noise unit).
    pub const SNR_GRID_DB: [f64; 6] = [0.0, 4.0, 8.0, 12.0, 16.0, 20.0];
    /// Multiplexing gains `r` of the sweep (sum-rate targets
    /// `r·log2(1+SNR)`).
    pub const GAINS: [f64; 3] = [0.1, 0.25, 0.5];
    /// Default Monte-Carlo trials per grid point (the binary's
    /// `--trials` overrides it; golden tests use a reduced count).
    pub const TRIALS: usize = 4000;
    /// Master seed of the study.
    pub const SEED: u64 = 0xD117_0001;
    /// Outage level ε of the allocation search.
    pub const EPS: f64 = 0.1;
    /// Common per-node power (dB) of the allocation study's budget.
    pub const ALLOC_POWER_DB: f64 = 10.0;

    /// The study's channel: fully symmetric unit gains, so the direct and
    /// relay links carry the same average SNR, relay-aided protocols get
    /// their diversity from path *multiplicity* alone, and the symmetric-
    /// case allocation golden test is exact by symmetry.
    pub fn state() -> ChannelState {
        ChannelState::new(1.0, 1.0, 1.0)
    }

    /// The DMT sweep scenario at `trials` Monte-Carlo trials per point.
    pub fn dmt_scenario(trials: usize) -> Scenario {
        Scenario::power_sweep_db(GaussianNetwork::new(1.0, state()), SNR_GRID_DB)
            .multiplexing_gains(GAINS)
            .rayleigh(trials, SEED)
    }

    /// The power-allocation scenario at `trials` trials.
    pub fn allocation_scenario(trials: usize) -> Scenario {
        Scenario::at(GaussianNetwork::from_db(
            Db::new(ALLOC_POWER_DB),
            Db::new(0.0),
            Db::new(0.0),
            Db::new(0.0),
        ))
        .rayleigh(trials, SEED)
    }
}

/// Canonical configuration of the deep-outage importance-sampling study
/// (the `deep_outage` bench-report scenario) — a direct-transmission
/// tail near `1e-6` that plain Monte Carlo cannot resolve, pinned
/// against the closed-form Rayleigh tail. One source of truth shared by
/// the bench gate and the CI smoke leg.
pub mod deepstudy {
    use bcc_core::prelude::*;

    /// Transmit power \[dB\] placing the DT Rayleigh tail near `1e-6` at
    /// multiplexing gain [`GAIN`].
    pub const POWER_DB: f64 = 75.0;
    /// Multiplexing gain `r` of the finite-SNR target
    /// `r·log2(1 + SNR_ref)`.
    pub const GAIN: f64 = 0.1;
    /// Master seed of the tilted fade streams.
    pub const SEED: u64 = 0xDEE2_0001;
    /// Escalating trial budgets; the bench reports the first rung whose
    /// relative error meets [`REL_ERR_TARGET`] — "time to fixed relative
    /// error" at the deep target.
    pub const TRIAL_LADDER: [usize; 4] = [2_500, 5_000, 10_000, 20_000];
    /// Relative-error budget of the study (10%).
    pub const REL_ERR_TARGET: f64 = 0.1;
    /// Trials plain MC would need for ~10% relative error at `p = 1e-3`
    /// (`(1 − p)/(p·0.1²) ≈ 1e5`). The gate requires the importance
    /// sampler to resolve its *thousand-fold deeper* `1e-6` tail in
    /// fewer trials than this.
    pub const PLAIN_MC_FLOOR: usize = 100_000;

    /// The single-cell deep-outage scenario at `trials` tilted trials.
    pub fn deep_scenario(trials: usize) -> Scenario {
        Scenario::at(crate::fig4_network(POWER_DB))
            .protocols([Protocol::DirectTransmission])
            .multiplexing_gains([GAIN])
            .rayleigh(trials, SEED)
    }

    /// The study's estimator settings: sampling is forced so the bench
    /// times the tilted kernel path rather than the analytic fast path
    /// (which would short-circuit the DT cell entirely).
    pub fn deep_spec() -> DeepSpec {
        DeepSpec::new().force_sampling(true)
    }
}

/// Canonical configuration of the multi-pair shared-relay study
/// (E-M1/E-M2) — one source of truth shared by the `multipair` binary
/// and the workspace golden tests, so the pinned shapes and the
/// published CSV describe the same experiment.
pub mod multipairstudy {
    use bcc_channel::ChannelState;
    use bcc_core::prelude::*;

    /// Number of terminal pairs sharing the relay.
    pub const K: usize = 3;
    /// SNR grid of the sweep (common per-node power in dB).
    pub const SNR_GRID_DB: [f64; 6] = [0.0, 4.0, 8.0, 12.0, 16.0, 20.0];
    /// Default Monte-Carlo trials per grid point of the outage study
    /// (the binary's `--trials` overrides it; the CI smoke leg runs a
    /// reduced count).
    pub const TRIALS: usize = 2000;
    /// Master seed of the study.
    pub const SEED: u64 = 0x3BCC_0001;
    /// Outage level ε quoted by the study.
    pub const EPS: f64 = 0.1;

    /// The study's three deliberately heterogeneous pairs at unit power:
    /// one relay-advantaged (the Fig. 4 gains), one fully symmetric, one
    /// direct-advantaged (a weak relay) — so the time-share/joint gap
    /// and the per-pair protocol preferences are all visible in one run.
    pub fn pair_set() -> PairSet {
        PairSet::new(vec![
            GaussianNetwork::from_db(Db::new(0.0), Db::new(-7.0), Db::new(0.0), Db::new(5.0)),
            GaussianNetwork::new(1.0, ChannelState::new(1.0, 1.0, 1.0)),
            GaussianNetwork::new(1.0, ChannelState::new(1.0, 0.1, 0.1)),
        ])
    }

    /// The deterministic sweep scenario (E-M1).
    pub fn sweep_scenario() -> MultiPairScenario {
        MultiPairScenario::power_sweep_db(&pair_set(), SNR_GRID_DB)
    }

    /// The Rayleigh outage scenario (E-M2) at `trials` trials per point.
    pub fn outage_scenario(trials: usize) -> MultiPairScenario {
        sweep_scenario().rayleigh(trials, SEED)
    }
}

/// Canonical configuration of the city-scale relay-assignment study
/// (the `city_scale` bench-report scenario and the `city` binary). One
/// source of truth shared by the bench gates
/// (`assignment_rate ≥ random_rate`, bounded allocations) and the CI
/// smoke leg, so the gated numbers and the published CSV describe the
/// same deployment.
pub mod citystudy {
    use bcc_channel::Topology;
    use bcc_core::protocol::Protocol;

    /// Placement seed of the canonical city.
    pub const SEED: u64 = 0xC17B_0001;
    /// Pairs `K` of the bench run (the binary's `--pairs` overrides it;
    /// the CI smoke leg runs a reduced count).
    pub const PAIRS: usize = 4_000;
    /// Candidate relays `n`.
    pub const RELAYS: usize = 48;
    /// Disc radius of the placement (distance units of the `d_min`
    /// clamp).
    pub const RADIUS: f64 = 12.0;
    /// Path-loss exponent (urban-ish).
    pub const GAMMA: f64 = 3.0;
    /// Common per-node transmit power (dB).
    pub const POWER_DB: f64 = 10.0;
    /// Protocols the edge weight maximises over — the two- and
    /// three-phase relayings; DT needs no relay and HBC's extra phase
    /// prices identically into the same inner-bound kernel.
    pub const PROTOCOLS: [Protocol; 2] = [Protocol::Mabc, Protocol::Tdbc];

    /// The canonical city at `pairs` terminal pairs.
    ///
    /// # Panics
    ///
    /// Panics only on an invalid pair count (the canonical extents are
    /// validated by construction).
    pub fn topology(pairs: usize) -> Topology {
        Topology::random(SEED, pairs, RELAYS, RADIUS, GAMMA).expect("canonical city is valid")
    }
}

/// Canonical configuration of the serving-layer load study (E-S1). The
/// `serve-loadgen` binary, the `serve_loadgen` bench-report scenario and
/// the CI smoke leg all read these constants, so the gated numbers and
/// the published JSON describe the same workload.
pub mod servestudy {
    use bcc_num::faults::{FaultPlan, FaultSite};
    use bcc_serve::{LoadSpec, QuantSpec, ServeConfig, StreamKind};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Master seed of the study's query streams.
    pub const SEED: u64 = 0x5E4E_0001;
    /// Hot-set pool size of the mixed stream — 64 states against a
    /// 4 096-entry cache, so steady state is hit-dominated with a fresh
    /// miss now and then from the floor sub-stream.
    pub const HOTSET_POOL: usize = 64;
    /// Queries of the mixed (hot-set) closed-loop run.
    pub const MIXED_QUERIES: u64 = 40_000;
    /// Queries of the repeated-state (all-hit) closed-loop run.
    pub const REPEATED_QUERIES: u64 = 200_000;
    /// Quantization grid step (dB).
    pub const STEP_DB: f64 = 0.25;
    /// Decision-cache capacity (entries).
    pub const CACHE_CAPACITY: usize = 4_096;
    /// Submission-batch size of the batched-drain throughput runs.
    pub const BATCH: usize = 1_024;
    /// Transmit power (dB) of the base operating point.
    pub const POWER_DB: f64 = 10.0;
    /// Every n-th mixed query carries this QoS floor, keeping the
    /// simplex path in play amid kernel traffic.
    pub const FLOOR_EVERY: u64 = 16;
    /// The QoS floor `(ra, rb)` of the floored sub-stream.
    pub const FLOOR: (f64, f64) = (0.05, 0.05);

    /// The study's serve configuration.
    pub fn config() -> ServeConfig {
        ServeConfig::default()
            .quant(QuantSpec::db_grid(STEP_DB))
            .cache_capacity(CACHE_CAPACITY)
            .queue_capacity(BATCH)
    }

    /// Base spec around the Fig. 4 operating point at
    /// [`POWER_DB`](self::POWER_DB).
    fn base(kind: StreamKind, seed: u64) -> LoadSpec {
        let net = super::fig4_network(POWER_DB);
        LoadSpec::new(kind, seed, net.state(), net.powers())
    }

    /// The mixed steady-state stream: hot-set draws with a periodic QoS
    /// floor.
    pub fn mixed_stream() -> LoadSpec {
        base(StreamKind::HotSet { pool: HOTSET_POOL }, SEED).floor_every(
            FLOOR_EVERY,
            FLOOR.0,
            FLOOR.1,
        )
    }

    /// The repeated-state stream (pure cache-latency regime).
    pub fn repeated_stream() -> LoadSpec {
        base(StreamKind::Repeated, SEED ^ 0x0E11)
    }

    /// The all-miss stream (pure solve-throughput regime).
    pub fn fresh_stream() -> LoadSpec {
        base(StreamKind::Fresh, SEED ^ 0xF5)
    }

    /// Seed of the canonical chaos [`FaultPlan`].
    pub const CHAOS_SEED: u64 = 0xC4A0_5EED;
    /// Every n-th chaos query carries a malformed (NaN) floor, so the
    /// injected stream exercises up-front validation too.
    pub const INVALID_EVERY: u64 = 997;

    /// The canonical fault plan of the chaos smoke runs: every site
    /// armed at once — transient LP faults that recover on the engine's
    /// retry, per-key kernel poison (degrades to the DT fallback), cache
    /// evict/corrupt fates, and worker panics that occasionally
    /// double-fire past the retry. Decisions are a pure function of
    /// [`CHAOS_SEED`], so the injected run is bit-reproducible across
    /// threads and batch sizes.
    pub fn chaos_plan() -> FaultPlan {
        FaultPlan::new(CHAOS_SEED)
            .with(FaultSite::LpIterationLimit, 0.05, 1)
            .with(FaultSite::LpWarmReject, 0.10, 2)
            .with(FaultSite::KernelPoison, 0.01, 1)
            .with(FaultSite::CacheEvict, 0.02, 1)
            .with(FaultSite::CacheCorrupt, 0.02, 1)
            .with(FaultSite::WorkerPanic, 0.05, 2)
    }

    /// The injected-fault stream: the mixed hot-set stream with a
    /// malformed query every [`INVALID_EVERY`] slots.
    pub fn chaos_stream() -> LoadSpec {
        mixed_stream().invalid_every(INVALID_EVERY)
    }

    /// Panic-hook invocations whose payload is *not* the injected chaos
    /// marker — a genuine panic anywhere in the run.
    static GENUINE_PANICS: AtomicU64 = AtomicU64::new(0);

    /// Installs a panic hook that counts genuine panics (see
    /// [`genuine_panics`]) and silences the injected ones: the serve
    /// engine catches and degrades their unwinds, and the default hook
    /// would bury a chaos run's output in backtraces.
    pub fn install_panic_audit() {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected worker panic"));
            if !injected {
                GENUINE_PANICS.fetch_add(1, Relaxed);
                previous(info);
            }
        }));
    }

    /// Genuine panics counted since [`install_panic_audit`]; a chaos run
    /// gates on this staying zero.
    pub fn genuine_panics() -> u64 {
        GENUINE_PANICS.load(Relaxed)
    }
}

/// Directory where binaries drop CSV artifacts (`results/` at the
/// workspace root, created on demand).
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/bcc-bench.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::protocol::Protocol;

    #[test]
    fn fig4_network_uses_canonical_gains() {
        let net = fig4_network(10.0);
        let s = net.state();
        assert!((s.gab() - Db::new(-7.0).to_linear()).abs() < 1e-12);
        assert!((s.gar() - 1.0).abs() < 1e-12);
        assert!((s.gbr() - Db::new(5.0).to_linear()).abs() < 1e-12);
        assert!(
            s.relay_advantaged(),
            "Fig. 4 must be in the interesting case"
        );
    }

    #[test]
    fn fig3_network_is_symmetric() {
        let net = fig3_symmetric_network(10.0);
        assert_eq!(net.state().gar(), net.state().gbr());
        assert!((net.power().expect("symmetric network") - Db::new(15.0).to_linear()).abs() < 1e-9);
    }

    #[test]
    fn fig4_reproduces_headline_ordering() {
        // Low power: MABC ≥ TDBC; high power: TDBC ≥ MABC.
        let low = fig4_network(FIG4_POWERS_DB[0]);
        let high = fig4_network(FIG4_POWERS_DB[1] + 5.0);
        let sr = |net: &GaussianNetwork, p| net.max_sum_rate(p).unwrap().sum_rate;
        assert!(sr(&low, Protocol::Mabc) > sr(&low, Protocol::Tdbc));
        assert!(sr(&high, Protocol::Tdbc) > sr(&high, Protocol::Mabc));
    }

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.exists());
    }

    #[test]
    fn sweep_series_mirrors_sweep_result() {
        use bcc_core::scenario::Scenario;
        let sweep = Scenario::power_sweep_db(fig4_network(0.0), [0.0, 10.0])
            .build()
            .sweep()
            .unwrap();
        let series = sweep_series(&sweep);
        assert_eq!(series.len(), Protocol::ALL.len());
        for (s, p) in series.iter().zip(Protocol::ALL) {
            assert_eq!(s.name, p.name());
            assert_eq!(s.points, sweep.series_points(p));
        }
    }
}
