//! bench-report — times the canonical evaluation scenarios in serial and
//! parallel modes and writes the machine-readable `BENCH_evaluator.json`
//! (schema 7) that CI uploads and trends.
//!
//! Seven workloads cover the engine's hot paths at production scale:
//!
//! * **`fig3_sweep`** — the paper's Fig. 3 symmetric-gain sweep on a
//!   60 001-point grid (every protocol, ~240k solves);
//! * **`crossover_search`** — the E-X1 power sweep (17 501 points) plus the
//!   bisection locating the ≈13.7 dB MABC/TDBC crossover;
//! * **`outage_10k`** — a 10 000-trial Rayleigh outage study at the
//!   Fig. 4 operating point (~40k solves on faded networks);
//! * **`deep_outage`** — the importance-sampled deep-tail study
//!   (`bcc_bench::deepstudy`): a direct-transmission outage near `1e-6`
//!   resolved by tilted fade streams, escalating a trial ladder until the
//!   relative error meets the 10% budget (time-to-fixed-relative-error).
//!   Its extras record the achieved `rel_err`, the trial budget
//!   `is_trials`, the IS-vs-plain-MC per-trial variance ratio
//!   `var_ratio`, and the z-score against the closed-form tail;
//! * **`multipair_k3`** — a 4 001-point, three-pair shared-relay sweep
//!   (sum-rate *and* max–min per pair × protocol, ~96k solves through
//!   the blocked `point × pair` fan-out);
//! * **`city_scale`** — the city-scale relay-assignment study
//!   (`bcc_bench::citystudy`): 4 000 pairs × 48 candidate relays on a
//!   disc, every `(pair, relay)` edge's best-protocol sum rate through
//!   the streamed `CityEvaluator` (~384k batched solves), then the
//!   greedy/random/refined assignment comparison. Its extras record the
//!   mean congestion-free `assignment_rate` (greedy) and `random_rate`
//!   plus the time-shared refined rate;
//! * **`serve_loadgen`** — the serving layer's canonical load study
//!   (`bcc_bench::servestudy`): a 40k-query hot-set stream through a
//!   `bcc-serve` engine, closed loop (throughput + p50/p99/p999 service
//!   times) and batched drain, plus a 200k-query repeated-state all-hit
//!   stream, plus a chaos pass of the same stream under the canonical
//!   `servestudy::chaos_plan` fault plan (asserted bit-identical across
//!   worker counts first).
//!
//! Serial numbers pin the evaluator to one worker
//! (`Scenario::threads(1)`); parallel numbers use the ambient policy
//! (`BCC_THREADS` or available parallelism). Results are bit-identical in
//! both modes — asserted here on every run — so the report measures wall
//! time only.
//!
//! Beyond wall time, each scenario records the **solver-mix counters** of
//! one serial run: simplex `pivots`, `warm_hits` (solves served from a
//! remembered basis), `kernel_hits` (solves served by the closed-form
//! kernels, no LP at all), `batched_points`/`lanes_filled` (points that
//! rode the SoA lane kernels, and how many landed in full SIMD-width
//! lanes rather than the scalar tail) and `allocs_per_point` (heap
//! allocations per grid point/trial, measured by a counting global
//! allocator — the zero-allocation hot-loop regression canary). The
//! report also records the `block_size` the batched paths chunk by and
//! the `lane_isa` their lane kernels ran on (`bcc_core::batch::lane_isa`:
//! `avx512f`, `avx2` or `portable`), so a baseline recorded on one lane
//! path is not read against a run on another unawares.
//!
//! Usage:
//!
//! ```text
//! bench-report [--out PATH] [--check BASELINE.json]
//! ```
//!
//! `--out` defaults to `results/BENCH_evaluator.json`. With `--check`, the
//! run prints one verdict per rule of the [`gates`] table, which lists
//! the rules and their bounds, and exits 1 if any rule fails. A baseline
//! that cannot be read is a bad argument: the usage is printed and the
//! run exits 2 before timing anything. Refresh the baseline by copying a
//! trusted run's `BENCH_evaluator.json` over `ci/bench_baseline.json`.

use bcc_bench::{benchjson, fig4_network, results_dir, servestudy, FIG3_GAB_DB, FIG3_POWER_DB};
use bcc_core::comparison::sum_rate_crossover_db;
use bcc_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Counts every heap allocation the process performs, so the report can
/// state allocations *per grid point* for each workload and CI can catch a
/// change that silently reintroduces per-point allocation into the hot
/// loops.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Default regression tolerance of `--check`: measured wall time may
/// exceed the baseline by at most this factor. Override with
/// `BCC_BENCH_TOLERANCE` when the gate runs on hardware meaningfully
/// slower than the machine that produced the committed baseline (the
/// baseline measures *code on a runner class*, not code alone).
const TOLERANCE: f64 = 1.15;

fn tolerance() -> f64 {
    std::env::var("BCC_BENCH_TOLERANCE")
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t >= 1.0)
        .unwrap_or(TOLERANCE)
}

/// Timing repetitions per mode; the minimum is reported (robust against
/// scheduler noise on shared CI runners).
const REPS: usize = 3;

/// Solver-mix counters of one serial run of a scenario.
#[derive(Clone, Copy)]
struct SolveMix {
    pivots: u64,
    warm_hits: u64,
    kernel_hits: u64,
    /// Points solved through the batched SoA lane kernels.
    batched_points: u64,
    /// Of those, how many rode in full SIMD-width lanes (the remainder
    /// is the per-block scalar tail).
    lanes_filled: u64,
    allocs_per_point: f64,
}

struct Timing {
    name: &'static str,
    points: usize,
    trials: usize,
    serial_ms: f64,
    parallel_ms: f64,
    mix: SolveMix,
    /// Scenario-specific metrics rendered verbatim into the JSON object
    /// (e.g. the serve scenario's throughput and latency quantiles).
    extra: Vec<(&'static str, f64)>,
}

impl Timing {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms
    }

    /// The scenario-specific metric `key`; panics if it is not recorded.
    fn extra(&self, key: &str) -> f64 {
        self.extra
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{} records {key}", self.name))
    }
}

fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs `f` once, returning the solver-mix counter deltas normalised by
/// `units` (grid points or trials).
///
/// The LP and kernel counters are per-thread (see `bcc_num::metrics`),
/// and every measured workload below pins itself to one worker
/// (`Scenario::threads(1)`), which runs inline on this thread — so one
/// scoped read of each set captures it completely. The allocation
/// counter is process-wide, but the binary is single-threaded outside
/// the parallel timing runs.
fn measure_mix(units: usize, f: impl FnOnce()) -> SolveMix {
    let a0 = ALLOCS.load(Relaxed);
    let (((), lp), kernel) = bcc_core::batch::stats::scoped(|| bcc_lp::stats::scoped(f));
    let allocs = ALLOCS.load(Relaxed) - a0;
    SolveMix {
        pivots: lp.pivots,
        warm_hits: lp.warm_hits,
        kernel_hits: kernel.kernel_hits,
        batched_points: kernel.batched_points,
        lanes_filled: kernel.lanes_filled,
        allocs_per_point: allocs as f64 / units.max(1) as f64,
    }
}

fn fig3_scenario() -> Scenario {
    Scenario::symmetric_gain_sweep_db(
        FIG3_POWER_DB,
        FIG3_GAB_DB,
        (0..=60_000).map(|k| f64::from(k) * 0.0005),
    )
}

fn crossover_scenario() -> Scenario {
    Scenario::power_sweep_db(
        fig4_network(0.0),
        (0..=17_500).map(|k| -10.0 + f64::from(k) * 0.002),
    )
}

/// The K-pair workload: 4 001 power points × the canonical E-M1 study
/// pairs (`bcc_bench::multipairstudy::pair_set`, so the gate and the
/// published study measure the same networks) × every protocol,
/// sum-rate and max–min per pair (the blocked `point × pair` fan-out of
/// `MultiPairEvaluator::sweep`).
fn multipair_scenario() -> MultiPairScenario {
    MultiPairScenario::power_sweep_db(
        &bcc_bench::multipairstudy::pair_set(),
        (0..=4_000).map(|k| f64::from(k) * 0.005),
    )
}

/// The city workload: the canonical `citystudy` placement at full bench
/// scale — `PAIRS × RELAYS` edges through the streamed per-pair fan-out.
fn city_scenario() -> bcc_core::city::CityScenario {
    use bcc_bench::citystudy;
    Scenario::city(citystudy::topology(citystudy::PAIRS), citystudy::POWER_DB)
        .protocols(citystudy::PROTOCOLS)
}

/// Times one sweep-shaped scenario, in a fixed order: a serial vs
/// parallel bit-identity assert, one counted serial run for the solver
/// mix, then [`best_ms`] at 1 and at `parallel_threads` workers.
/// `prepare(threads)` builds what the counted run leaves out; `run` is
/// the work being measured. Returns the timing (without extras) and the
/// serial result.
fn time_scenario<E, R: PartialEq + std::fmt::Debug>(
    name: &'static str,
    (points, trials, units): (usize, usize, usize),
    parallel_threads: usize,
    prepare: impl Fn(usize) -> E,
    run: impl Fn(&mut E) -> R,
) -> (Timing, R) {
    let serial = run(&mut prepare(1));
    assert_eq!(
        serial,
        run(&mut prepare(parallel_threads)),
        "{name}: the parallel run must be bit-identical"
    );
    let mut measured = prepare(1);
    let mix = measure_mix(units, || {
        run(&mut measured);
    });
    let serial_ms = best_ms(REPS, || {
        run(&mut prepare(1));
    });
    let parallel_ms = best_ms(REPS, || {
        run(&mut prepare(parallel_threads));
    });
    let timing = Timing {
        name,
        points,
        trials,
        serial_ms,
        parallel_ms,
        mix,
        extra: Vec::new(),
    };
    (timing, serial)
}

fn time_fig3(parallel_threads: usize) -> Timing {
    let points = fig3_scenario().build().points().len();
    let sweep = |&mut threads: &mut usize| {
        fig3_scenario()
            .threads(threads)
            .build()
            .sweep()
            .expect("solvable")
    };
    time_scenario(
        "fig3_sweep",
        (points, 0, points),
        parallel_threads,
        |t| t,
        sweep,
    )
    .0
}

fn time_crossover(parallel_threads: usize) -> Timing {
    let net = fig4_network(0.0);
    let points = crossover_scenario().build().points().len();
    let run = |&mut threads: &mut usize| {
        let sweep = crossover_scenario()
            .threads(threads)
            .build()
            .sweep()
            .expect("solvable");
        let crossing = sum_rate_crossover_db(&net, Protocol::Mabc, Protocol::Tdbc, -10.0, 25.0)
            .expect("solvable")
            .expect("the paper's crossover exists in this range");
        assert!(
            (crossing.value() - 13.7).abs() < 0.5,
            "crossover drifted: {}",
            crossing.value()
        );
        sweep
    };
    time_scenario(
        "crossover_search",
        (points, 0, points),
        parallel_threads,
        |t| t,
        run,
    )
    .0
}

fn time_outage(parallel_threads: usize) -> Timing {
    let outage = |&mut threads: &mut usize| {
        Scenario::at(fig4_network(10.0))
            .rayleigh(10_000, 0xBCC0_0001)
            .threads(threads)
            .build()
            .outage()
            .expect("runs")
    };
    time_scenario(
        "outage_10k",
        (1, 10_000, 10_000),
        parallel_threads,
        |t| t,
        outage,
    )
    .0
}

/// The deep-outage workload (`bcc_bench::deepstudy`): escalates the
/// trial ladder until the importance-sampled DT tail near 1e-6 meets the
/// 10% relative-error budget, then times that rung through
/// [`time_scenario`]. The extras carry the quality metrics the gate
/// asserts on: achieved relative error, the winning trial budget, the
/// per-trial variance advantage over plain MC (`p(1−p)/var`), and the
/// z-score against the closed-form tail.
fn time_deep_outage(parallel_threads: usize) -> Timing {
    use bcc_bench::deepstudy;
    let spec = deepstudy::deep_spec();
    let run = |trials: usize, threads: usize| {
        deepstudy::deep_scenario(trials)
            .threads(threads)
            .build()
            .deep_outage(&spec)
            .expect("deep-outage study runs")
    };
    let cell_of = |res: &bcc_core::DeepOutageResult| *res.cell(Protocol::DirectTransmission, 0, 0);

    // Time to fixed relative error: the first rung that meets the 10%
    // budget (the last rung is reported even if it falls short — the
    // gate, not the ladder, fails the run then).
    let trials = deepstudy::TRIAL_LADDER
        .into_iter()
        .find(|&rung| {
            cell_of(&run(rung, 1))
                .rel_error
                .is_some_and(|r| r <= deepstudy::REL_ERR_TARGET)
        })
        .unwrap_or(*deepstudy::TRIAL_LADDER.last().expect("non-empty ladder"));
    let (mut timing, serial) = time_scenario(
        "deep_outage",
        (1, trials, trials),
        parallel_threads,
        |t| t,
        |&mut threads: &mut usize| run(trials, threads),
    );

    let cell = cell_of(&serial);
    let p = cell.probability.expect("tilted estimate resolves");
    let rel = cell.rel_error.expect("resolved");
    let exact = bcc_core::analytic_outage(
        &fig4_network(deepstudy::POWER_DB),
        Protocol::DirectTransmission,
        FadingModel::Rayleigh,
        serial.target_rate(0, 0),
    )
    .and_then(|t| t.exact())
    .expect("DT Rayleigh tail is closed-form");
    // Per-trial variance advantage over plain MC at the same target: a
    // plain indicator has variance p(1−p); the weighted indicator's is
    // the cell's estimator variance.
    let var_ratio = p * (1.0 - p) / cell.variance;
    let abs_z = (p - exact).abs() / (rel * p);
    timing.extra = vec![
        ("rel_err", rel),
        ("is_trials", trials as f64),
        ("var_ratio", var_ratio),
        ("prob_x1e9", p * 1e9),
        ("exact_x1e9", exact * 1e9),
        ("abs_z", abs_z),
    ];
    timing
}

fn time_multipair(parallel_threads: usize) -> Timing {
    let ev = multipair_scenario().build();
    let points = ev.points().len();
    let units = points * ev.num_pairs();
    // The evaluator is built outside the counted run: constructing a
    // K-pair grid inherently allocates one pair list per point, but the
    // gated quantity is the solve loop — the evaluator is reusable, so a
    // long-lived service pays construction once.
    let build = |threads| multipair_scenario().threads(threads).build();
    let sweep = |ev: &mut MultiPairEvaluator| ev.sweep().expect("solvable");
    time_scenario(
        "multipair_k3",
        (points, 0, units),
        parallel_threads,
        build,
        sweep,
    )
    .0
}

/// The city-scale relay-assignment workload (E-C1): every `(pair,
/// relay)` edge of the canonical `citystudy` placement through the
/// streamed per-pair fan-out, then the greedy/random/refined
/// comparison. `units` is the edge count `K × n` — the quantity the
/// allocation gate normalises by — and the extras carry the aggregate
/// rates the dominance gate asserts on.
fn time_city(parallel_threads: usize) -> Timing {
    use bcc_core::city::{AssignmentKind, Schedule};

    let ev = city_scenario().build();
    let (k, n) = (ev.topology().num_pairs(), ev.topology().num_relays());
    // Evaluator construction (topology clone) stays outside the counted
    // run — the gated quantity is the edge-solve loop.
    let build = |threads| city_scenario().threads(threads).build();
    let sweep = |ev: &mut CityEvaluator| ev.sweep().expect("solvable");
    let (mut timing, serial) =
        time_scenario("city_scale", (k, 0, k * n), parallel_threads, build, sweep);
    timing.extra = vec![
        (
            "assignment_rate",
            serial.best_edge_rate(AssignmentKind::Greedy),
        ),
        ("random_rate", serial.best_edge_rate(AssignmentKind::Random)),
        (
            "refined_ts_rate",
            serial.scheduled_rate(AssignmentKind::Refined, Schedule::TimeShare),
        ),
        (
            "greedy_ts_rate",
            serial.scheduled_rate(AssignmentKind::Greedy, Schedule::TimeShare),
        ),
        ("relays", n as f64),
    ];
    timing
}

/// The serving-layer workload (E-S1): the canonical `servestudy` mixed
/// hot-set stream through a `bcc-serve` engine, closed loop for latency
/// quantiles and batched for drain throughput, plus the repeated-state
/// all-hit stream. `serial_ms`/`parallel_ms` time the batched drain of
/// the mixed stream at 1 vs `parallel_threads` workers (asserted
/// bit-identical first); the extras carry throughput (`qps`,
/// `repeated_qps`), latency quantiles and the cache hit counters the
/// gate asserts on.
fn time_serve(parallel_threads: usize) -> Timing {
    use bcc_serve::{Query, ServeConfig, ServedFrom, Server};

    // One closed-loop pass, and one batched drain in `BATCH`-sized
    // submissions at `threads` workers.
    let serve_all = |config: &ServeConfig, queries: &[Query]| {
        let mut server = Server::new(config);
        for q in queries {
            let _ = server.serve(q);
        }
    };
    let drain = |config: &ServeConfig, queries: &[Query], threads: usize| {
        let mut server = Server::new(&config.threads(threads));
        let mut answers = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(servestudy::BATCH) {
            for &q in chunk {
                server.submit(q).expect("queue sized to the batch");
            }
            answers.extend(server.drain());
        }
        answers
    };
    let config = servestudy::config();
    let queries = servestudy::mixed_stream().queries(servestudy::MIXED_QUERIES);
    assert_eq!(
        drain(&config, &queries, 1),
        drain(&config, &queries, parallel_threads),
        "batched serve drains must be bit-identical across worker counts"
    );

    // Solver mix of one serial closed-loop pass (every solve lands on
    // this thread, so the thread-local counters capture it completely).
    let mix = measure_mix(queries.len(), || serve_all(&config, &queries));

    // Closed loop: per-query service times and throughput, plus the
    // serve-stats delta for the hit-rate extras.
    let mut server = Server::new(&config);
    let mut latencies_us = Vec::with_capacity(queries.len());
    let t0 = Instant::now();
    let ((), serve_delta) = bcc_serve::stats::scoped(|| {
        for q in &queries {
            let t = Instant::now();
            let _ = server.serve(q);
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    let qps = queries.len() as f64 / t0.elapsed().as_secs_f64();
    let ecdf = bcc_num::stats::Ecdf::new(latencies_us);

    // Repeated-state stream: the all-hit regime the cache gate watches.
    let repeated = servestudy::repeated_stream();
    let mut rep_server = Server::new(&config);
    let t0 = Instant::now();
    let ((), rep_delta) = bcc_serve::stats::scoped(|| {
        for k in 0..servestudy::REPEATED_QUERIES {
            let d = rep_server.serve(&repeated.query(k)).expect("feasible");
            debug_assert!(k == 0 || d.served_from == ServedFrom::Cache);
        }
    });
    let repeated_qps = servestudy::REPEATED_QUERIES as f64 / t0.elapsed().as_secs_f64();

    // Chaos pass: the same workload under the canonical fault plan, with
    // malformed queries salted in. Bit-identical across worker counts
    // (the whole point of seed-driven injection), then one counted
    // closed-loop pass for the degradation extras the gate asserts on.
    let chaos_queries = servestudy::chaos_stream().queries(servestudy::MIXED_QUERIES);
    let chaos_config = config.faults(servestudy::chaos_plan());
    assert_eq!(
        drain(&chaos_config, &chaos_queries, 1),
        drain(&chaos_config, &chaos_queries, parallel_threads),
        "injected-fault drains must be bit-identical across worker counts"
    );
    let ((), chaos_delta) = bcc_serve::stats::scoped(|| serve_all(&chaos_config, &chaos_queries));

    let serial_ms = best_ms(REPS, || {
        drain(&config, &queries, 1);
    });
    let parallel_ms = best_ms(REPS, || {
        drain(&config, &queries, parallel_threads);
    });
    Timing {
        name: "serve_loadgen",
        points: queries.len(),
        trials: servestudy::REPEATED_QUERIES as usize,
        serial_ms,
        parallel_ms,
        mix,
        extra: vec![
            ("qps", qps),
            ("p50_us", ecdf.quantile(0.50)),
            ("p99_us", ecdf.quantile(0.99)),
            ("p999_us", ecdf.quantile(0.999)),
            ("hit_rate", serve_delta.hit_rate()),
            ("repeated_qps", repeated_qps),
            ("repeated_cache_hits", rep_delta.cache_hits as f64),
            ("degraded", serve_delta.degraded as f64),
            ("chaos_degraded", chaos_delta.degraded as f64),
            (
                "chaos_validated_rejects",
                chaos_delta.validated_rejects as f64,
            ),
            ("chaos_panics", servestudy::genuine_panics() as f64),
        ],
    }
}

fn render_json(available: usize, parallel: usize, timings: &[Timing]) -> String {
    let mut out = String::from("{\n  \"schema\": 7,\n");
    out.push_str(&format!(
        "  \"threads\": {{ \"available\": {available}, \"parallel\": {parallel} }},\n"
    ));
    out.push_str(&format!(
        "  \"lane_isa\": \"{}\",\n",
        bcc_core::batch::lane_isa()
    ));
    out.push_str(&format!(
        "  \"block_size\": {},\n",
        bcc_core::batch::DEFAULT_BLOCK
    ));
    out.push_str("  \"scenarios\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let extras: String = t
            .extra
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {v:.3}"))
            .collect();
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"points\": {}, \"trials\": {}, \
             \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \
             \"pivots\": {}, \"warm_hits\": {}, \"kernel_hits\": {}, \
             \"batched_points\": {}, \"lanes_filled\": {}, \
             \"allocs_per_point\": {:.3}{} }}{}\n",
            t.name,
            t.points,
            t.trials,
            t.serial_ms,
            t.parallel_ms,
            t.speedup(),
            t.mix.pivots,
            t.mix.warm_hits,
            t.mix.kernel_hits,
            t.mix.batched_points,
            t.mix.lanes_filled,
            t.mix.allocs_per_point,
            extras,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One gate verdict: `Err(failure)` if the rule `fails`, else
/// `Ok(reading)`.
fn verdict(fails: bool, reading: String, failure: String) -> Result<String, String> {
    if fails {
        Err(failure)
    } else {
        Ok(reading)
    }
}

/// A fast-path canary: `what` counted `count` events, and zero means the
/// path went quiet (`why`).
fn fired(what: &str, count: f64, why: &str) -> Result<String, String> {
    verdict(
        count == 0.0,
        format!("{what} = {count:.0}"),
        format!("{what} == 0: {why}"),
    )
}

/// A bound on one reading: the failure is the reading followed by `why`.
fn bounded(fails: bool, reading: String, why: &str) -> Result<String, String> {
    let failure = format!("{reading}: {why}");
    verdict(fails, reading, failure)
}

/// The `--check` gate table: one verdict per rule, in report order; `Ok`
/// carries the reading printed as `check ok`, `Err` the regression.
///
/// The Fig. 3 sweep's wall time (serial and parallel each) may exceed
/// `baseline` (the committed `BENCH_evaluator.json`) by at most the
/// [`tolerance`] factor, and the serve `qps` may drop below it by at
/// most that factor. The rest are fixed bounds. A fast path going quiet
/// is a silent perf loss even at unchanged wall time: the closed-form
/// kernel must fire and run *batched*, and the warm start must fire
/// where the simplex is in play (floored serve queries). The deep-outage
/// sampler must meet its 10% relative-error budget in fewer trials than
/// plain MC needs for a 1e-3 tail, beat plain MC's per-trial variance
/// and agree with the closed-form tail; the K-pair and city hot loops
/// stay allocation-free (0.05 per point); greedy best-edge attachment,
/// a per-pair maximum, cannot lose to random unless the candidate
/// reduction breaks; and the fault-free serve stream never degrades
/// while the injected one degrades, rejects its malformed queries and
/// contains every injected panic.
fn gates(timings: &[Timing], baseline: &str) -> Vec<Result<String, String>> {
    use bcc_bench::deepstudy::{PLAIN_MC_FLOOR, REL_ERR_TARGET};
    let tolerance = tolerance();
    let scenario = |name| {
        timings
            .iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("timings include {name}"))
    };
    let (fig3, deep) = (scenario("fig3_sweep"), scenario("deep_outage"));
    let (multipair, city) = (scenario("multipair_k3"), scenario("city_scale"));
    let serve = scenario("serve_loadgen");
    let wall = |field: &str, measured: f64| {
        let Some(base) = benchjson::scenario_field(baseline, fig3.name, field) else {
            return Err(format!(
                "baseline has no \"{field}\" for scenario \"{}\"",
                fig3.name
            ));
        };
        let allowed = base * tolerance;
        verdict(
            measured > allowed,
            format!(
                "{} {field} {measured:.1} ms within {allowed:.1} ms (baseline {base:.1} ms)",
                fig3.name
            ),
            format!(
                "{} {field} regressed: {measured:.1} ms > {allowed:.1} ms \
                 (baseline {base:.1} ms × {tolerance})",
                fig3.name
            ),
        )
    };
    let qps = serve.extra("qps");
    let qps_gate = match benchjson::scenario_field(baseline, serve.name, "qps") {
        Some(base) => {
            let floor = base / tolerance;
            verdict(
                qps < floor,
                format!("serve_loadgen qps {qps:.0} above {floor:.0} (baseline {base:.0})"),
                format!(
                    "serve_loadgen qps regressed: {qps:.0} q/s < {floor:.0} q/s \
                     (baseline {base:.0} q/s ÷ {tolerance})"
                ),
            )
        }
        None => Err("baseline has no \"qps\" for serve_loadgen".to_string()),
    };
    let warm: u64 = timings.iter().map(|t| t.mix.warm_hits).sum();
    let (rel_err, abs_z) = (deep.extra("rel_err"), deep.extra("abs_z"));
    let (var_ratio, trials) = (deep.extra("var_ratio"), deep.trials);
    let (multipair_allocs, city_allocs) =
        (multipair.mix.allocs_per_point, city.mix.allocs_per_point);
    let (assignment, random) = (city.extra("assignment_rate"), city.extra("random_rate"));
    let (refined_ts, greedy_ts) = (city.extra("refined_ts_rate"), city.extra("greedy_ts_rate"));
    let (degraded, panics) = (serve.extra("degraded"), serve.extra("chaos_panics"));
    vec![
        wall("serial_ms", fig3.serial_ms),
        wall("parallel_ms", fig3.parallel_ms),
        fired(
            "fig3_sweep kernel_hits",
            fig3.mix.kernel_hits as f64,
            "the closed-form kernel never fired (silently disabled?)",
        ),
        fired(
            "fig3_sweep batched_points",
            fig3.mix.batched_points as f64,
            "the sweep fell back to scalar per-point solves \
             (batched lane kernels silently disabled?)",
        )
        .map(|ok| format!("{ok} (lanes_filled = {})", fig3.mix.lanes_filled)),
        verdict(
            warm == 0,
            format!("warm_hits across scenarios = {warm}"),
            "warm_hits == 0 across every scenario: the warm-start fast path \
             never fired (silently disabled?)"
                .to_string(),
        ),
        verdict(
            rel_err > REL_ERR_TARGET,
            format!("deep_outage rel_err = {rel_err:.3}"),
            format!(
                "deep_outage rel_err = {rel_err:.3}: the tilted estimator missed the \
                 {:.0}% relative-error budget even at the top of the trial ladder",
                REL_ERR_TARGET * 100.0
            ),
        ),
        verdict(
            trials >= PLAIN_MC_FLOOR,
            format!("deep_outage is_trials = {trials} (plain-MC 1e-3 floor {PLAIN_MC_FLOOR})"),
            format!(
                "deep_outage is_trials = {trials}: the 1e-6 tail took at least as many \
                 trials as plain MC needs for 1e-3 ({PLAIN_MC_FLOOR})"
            ),
        ),
        verdict(
            var_ratio <= 1.0,
            format!("deep_outage var_ratio = {var_ratio:.1}"),
            format!(
                "deep_outage var_ratio = {var_ratio:.2}: importance sampling lost its \
                 per-trial variance advantage over plain MC"
            ),
        ),
        bounded(
            abs_z > 5.0,
            format!("deep_outage abs_z = {abs_z:.2}"),
            "the estimate is more than 5 standard errors from the closed-form tail \
             (biased sampler?)",
        ),
        bounded(
            multipair_allocs > 0.05,
            format!("multipair_k3 allocs_per_point = {multipair_allocs:.3}"),
            "the K-pair hot loop allocates per pair-point (budget 0.05)",
        ),
        fired(
            "multipair_k3 kernel_hits",
            multipair.mix.kernel_hits as f64,
            "the closed-form kernel never fired on the K-pair sweep (silently disabled?)",
        ),
        verdict(
            assignment < random,
            format!("city_scale assignment_rate {assignment:.4} ≥ random_rate {random:.4}"),
            format!(
                "city_scale assignment_rate = {assignment:.4} < random_rate = \
                 {random:.4}: greedy best-edge attachment lost to random \
                 (candidate reduction broken?)"
            ),
        ),
        verdict(
            refined_ts < greedy_ts,
            format!("city_scale refined_ts_rate {refined_ts:.4} ≥ greedy seed {greedy_ts:.4}"),
            format!(
                "city_scale refined_ts_rate = {refined_ts:.4} < greedy seed's \
                 {greedy_ts:.4}: the refinement search regressed below its seed"
            ),
        ),
        bounded(
            city_allocs > 0.05,
            format!("city_scale allocs_per_point = {city_allocs:.3}"),
            "the streamed edge loop allocates per edge (budget 0.05)",
        ),
        fired(
            "city_scale batched_points",
            city.mix.batched_points as f64,
            "the edge grid fell back to scalar per-point solves \
             (lane kernels silently disabled?)",
        )
        .map(|ok| format!("{ok} (lanes_filled = {})", city.mix.lanes_filled)),
        qps_gate,
        fired(
            "serve_loadgen repeated_cache_hits",
            serve.extra("repeated_cache_hits"),
            "a repeated-state stream never hit the decision cache \
             (quantization or cache broken?)",
        ),
        fired(
            "serve_loadgen kernel_hits",
            serve.mix.kernel_hits as f64,
            "serve misses never reached the closed-form kernel (silently disabled?)",
        ),
        bounded(
            degraded > 0.0,
            format!("serve_loadgen degraded = {degraded:.0} on the fault-free stream"),
            "a healthy serve must never fall back to the conservative answer",
        ),
        fired(
            "serve_loadgen chaos_degraded",
            serve.extra("chaos_degraded"),
            "the injected fault plan never exercised the degraded fallback \
             (injection silently disabled?)",
        ),
        fired(
            "serve_loadgen chaos_validated_rejects",
            serve.extra("chaos_validated_rejects"),
            "malformed queries were not refused up front",
        ),
        bounded(
            panics > 0.0,
            format!("serve_loadgen chaos_panics = {panics:.0}"),
            "a genuine panic escaped the injected run (isolation broken)",
        ),
    ]
}

const USAGE: &str = "usage: bench-report [--out PATH] [--check BASELINE.json]";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Cli {
    /// Print the usage and exit.
    Help,
    /// Run the report, writing it to `out` (default
    /// `results/BENCH_evaluator.json`) and gating it against `check`.
    Run {
        out: Option<PathBuf>,
        check: Option<PathBuf>,
    },
}

/// Parses the arguments after the program name; `Err` carries the
/// message to print above the usage.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let (mut out, mut check) = (None, None);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "-h" | "--help" => return Ok(Cli::Help),
            "--out" => &mut out,
            "--check" => &mut check,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let path = args.next().ok_or_else(|| format!("{arg} needs a path"))?;
        *slot = Some(PathBuf::from(path));
    }
    Ok(Cli::Run { out, check })
}

/// Reads the `--check` baseline; `Err` carries the message to print
/// above the usage.
fn load_baseline(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))
}

fn main() {
    servestudy::install_panic_audit();
    let (out_path, check_path) = match parse_args(std::env::args().skip(1)) {
        Ok(Cli::Run { out, check }) => (out, check),
        Ok(Cli::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("bench-report: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_path = out_path.unwrap_or_else(|| results_dir().join("BENCH_evaluator.json"));
    let check = check_path.map(|path| match load_baseline(&path) {
        Ok(baseline) => (path, baseline),
        Err(msg) => {
            eprintln!("bench-report: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    });

    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let parallel = bcc_num::par::thread_count();
    println!(
        "bench-report: {available} hardware threads, parallel mode uses {parallel}, \
         lane ISA {}\n",
        bcc_core::batch::lane_isa()
    );

    let timings = [
        time_fig3(parallel),
        time_crossover(parallel),
        time_outage(parallel),
        time_deep_outage(parallel),
        time_multipair(parallel),
        time_city(parallel),
        time_serve(parallel),
    ];
    for t in &timings {
        println!(
            "{:<18} {:>6} pts {:>6} trials  serial {:>9.1} ms  parallel {:>9.1} ms  \
             speedup {:.2}x  pivots {:>8}  warm {:>7}  kernel {:>7}  batched {:>7}  \
             lanes {:>7}  allocs/pt {:>7.2}",
            t.name,
            t.points,
            t.trials,
            t.serial_ms,
            t.parallel_ms,
            t.speedup(),
            t.mix.pivots,
            t.mix.warm_hits,
            t.mix.kernel_hits,
            t.mix.batched_points,
            t.mix.lanes_filled,
            t.mix.allocs_per_point,
        );
        if !t.extra.is_empty() {
            let rendered: Vec<String> =
                t.extra.iter().map(|(k, v)| format!("{k} {v:.1}")).collect();
            println!("{:<18} {}", "", rendered.join("  "));
        }
    }

    let json = render_json(available, parallel, &timings);
    std::fs::write(&out_path, &json).expect("write BENCH_evaluator.json");
    println!("\nreport written to {}", out_path.display());

    if let Some((baseline_path, baseline)) = check {
        let mut passed = true;
        for verdict in gates(&timings, &baseline) {
            match verdict {
                Ok(reading) => println!("check ok: {reading}"),
                Err(msg) => {
                    eprintln!("REGRESSION: {msg}");
                    passed = false;
                }
            }
        }
        if !passed {
            std::process::exit(1);
        }
        println!("bench check passed against {}", baseline_path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::{gates, load_baseline, parse_args, tolerance, Cli, SolveMix, Timing};
    use bcc_bench::benchjson::scenario_field;
    use bcc_bench::deepstudy::{PLAIN_MC_FLOOR, REL_ERR_TARGET};
    use std::path::PathBuf;

    const BASELINE: &str = include_str!("../../../../ci/bench_baseline.json");

    /// The committed baseline read back as a report: every scenario with
    /// the counters and gated extras it recorded.
    fn baseline_report() -> Vec<Timing> {
        let gated: [(&'static str, &[&'static str]); 7] = [
            ("fig3_sweep", &[]),
            ("crossover_search", &[]),
            ("outage_10k", &[]),
            ("deep_outage", &["rel_err", "var_ratio", "abs_z"]),
            ("multipair_k3", &[]),
            (
                "city_scale",
                &[
                    "assignment_rate",
                    "random_rate",
                    "refined_ts_rate",
                    "greedy_ts_rate",
                ],
            ),
            (
                "serve_loadgen",
                &[
                    "qps",
                    "repeated_cache_hits",
                    "degraded",
                    "chaos_degraded",
                    "chaos_validated_rejects",
                    "chaos_panics",
                ],
            ),
        ];
        gated
            .into_iter()
            .map(|(name, extras)| {
                let field = |f: &str| {
                    scenario_field(BASELINE, name, f)
                        .unwrap_or_else(|| panic!("baseline {name} records {f}"))
                };
                Timing {
                    name,
                    points: field("points") as usize,
                    trials: field("trials") as usize,
                    serial_ms: field("serial_ms"),
                    parallel_ms: field("parallel_ms"),
                    mix: SolveMix {
                        pivots: field("pivots") as u64,
                        warm_hits: field("warm_hits") as u64,
                        kernel_hits: field("kernel_hits") as u64,
                        batched_points: field("batched_points") as u64,
                        lanes_filled: field("lanes_filled") as u64,
                        allocs_per_point: field("allocs_per_point"),
                    },
                    extra: extras.iter().map(|&k| (k, field(k))).collect(),
                }
            })
            .collect()
    }

    fn set(t: &mut Timing, key: &str, value: f64) {
        t.extra
            .iter_mut()
            .find(|(k, _)| *k == key)
            .expect("gated")
            .1 = value;
    }

    fn failed_rules(report: &[Timing], baseline: &str) -> Vec<usize> {
        let verdicts = gates(report, baseline);
        assert_eq!(verdicts.len(), 22, "one verdict per rule");
        (0..verdicts.len())
            .filter(|&i| verdicts[i].is_err())
            .collect()
    }

    #[test]
    fn the_baseline_passes_every_gate() {
        let verdicts = gates(&baseline_report(), BASELINE);
        assert!(verdicts.iter().all(Result::is_ok), "{verdicts:#?}");
        assert_eq!(
            verdicts[2],
            Ok("fig3_sweep kernel_hits = 240004".to_string())
        );
    }

    #[test]
    fn each_reading_one_step_past_its_bound_fails_its_rule_alone() {
        // In gate order: the scenario whose reading moves, and the move.
        type Step = (&'static str, fn(&mut Timing));
        let steps: [Step; 22] = [
            ("fig3_sweep", |t| t.serial_ms *= tolerance() * 1.001),
            ("fig3_sweep", |t| t.parallel_ms *= tolerance() * 1.001),
            ("fig3_sweep", |t| t.mix.kernel_hits = 0),
            ("fig3_sweep", |t| t.mix.batched_points = 0),
            ("serve_loadgen", |t| t.mix.warm_hits = 0),
            ("deep_outage", |t| set(t, "rel_err", REL_ERR_TARGET + 0.001)),
            ("deep_outage", |t| t.trials = PLAIN_MC_FLOOR),
            ("deep_outage", |t| set(t, "var_ratio", 1.0)),
            ("deep_outage", |t| set(t, "abs_z", 5.01)),
            ("multipair_k3", |t| t.mix.allocs_per_point = 0.051),
            ("multipair_k3", |t| t.mix.kernel_hits = 0),
            ("city_scale", |t| {
                set(t, "assignment_rate", t.extra("random_rate") - 0.001)
            }),
            ("city_scale", |t| {
                set(t, "refined_ts_rate", t.extra("greedy_ts_rate") - 0.001)
            }),
            ("city_scale", |t| t.mix.allocs_per_point = 0.051),
            ("city_scale", |t| t.mix.batched_points = 0),
            ("serve_loadgen", |t| {
                set(t, "qps", t.extra("qps") / tolerance() * 0.999)
            }),
            ("serve_loadgen", |t| set(t, "repeated_cache_hits", 0.0)),
            ("serve_loadgen", |t| t.mix.kernel_hits = 0),
            ("serve_loadgen", |t| set(t, "degraded", 1.0)),
            ("serve_loadgen", |t| set(t, "chaos_degraded", 0.0)),
            ("serve_loadgen", |t| set(t, "chaos_validated_rejects", 0.0)),
            ("serve_loadgen", |t| set(t, "chaos_panics", 1.0)),
        ];
        for (rule, (name, step)) in steps.into_iter().enumerate() {
            let mut report = baseline_report();
            step(
                report
                    .iter_mut()
                    .find(|t| t.name == name)
                    .expect("scenario"),
            );
            assert_eq!(
                failed_rules(&report, BASELINE),
                [rule],
                "rule {rule} on {name}"
            );
        }
    }

    #[test]
    fn a_baseline_without_a_gated_field_fails_that_rule() {
        let report = baseline_report();
        for (field, rule, msg) in [
            (
                "\"serial_ms\"",
                0,
                "baseline has no \"serial_ms\" for scenario \"fig3_sweep\"",
            ),
            ("\"qps\"", 15, "baseline has no \"qps\" for serve_loadgen"),
        ] {
            // The first occurrence is the gated scenario's field.
            let baseline = BASELINE.replacen(field, "\"unrecorded\"", 1);
            assert_eq!(failed_rules(&report, &baseline), [rule], "{field}");
            assert_eq!(gates(&report, &baseline)[rule], Err(msg.to_string()));
        }
    }

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn help_flags_win_wherever_they_appear() {
        assert_eq!(parse(&["--help"]), Ok(Cli::Help));
        assert_eq!(parse(&["-h"]), Ok(Cli::Help));
        assert_eq!(parse(&["--out", "r.json", "--help"]), Ok(Cli::Help));
    }

    #[test]
    fn paths_are_optional_and_parsed() {
        assert_eq!(
            parse(&[]),
            Ok(Cli::Run {
                out: None,
                check: None
            })
        );
        assert_eq!(
            parse(&["--check", "base.json", "--out", "r.json"]),
            Ok(Cli::Run {
                out: Some(PathBuf::from("r.json")),
                check: Some(PathBuf::from("base.json")),
            })
        );
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        assert_eq!(
            parse(&["--verbose"]),
            Err("unknown argument \"--verbose\"".into())
        );
        assert_eq!(parse(&["--out"]), Err("--out needs a path".into()));
        assert_eq!(
            parse(&["--out", "r.json", "--check"]),
            Err("--check needs a path".into())
        );
    }

    #[test]
    fn a_missing_baseline_is_an_error_not_a_panic() {
        let path = std::env::temp_dir().join("bench-report-no-such-baseline.json");
        let msg = load_baseline(&path).expect_err("nothing at that path");
        assert!(
            msg.starts_with(&format!("cannot read baseline {}: ", path.display())),
            "{msg}"
        );
    }
}
