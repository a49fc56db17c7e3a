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
//!   `var_ratio`, and the z-score against the closed-form tail; the gate
//!   requires the 1e-6 tail resolved in fewer trials than plain MC needs
//!   for 1e-3;
//! * **`multipair_k3`** — a 4 001-point, three-pair shared-relay sweep
//!   (sum-rate *and* max–min per pair × protocol, ~96k solves through
//!   the blocked `point × pair` fan-out);
//! * **`city_scale`** — the city-scale relay-assignment study
//!   (`bcc_bench::citystudy`): 4 000 pairs × 48 candidate relays on a
//!   disc, every `(pair, relay)` edge's best-protocol sum rate through
//!   the streamed `CityEvaluator` (~384k batched solves), then the
//!   greedy/random/refined assignment comparison. Its extras record the
//!   mean congestion-free `assignment_rate` (greedy) and `random_rate`
//!   plus the time-shared refined rate; the gates require
//!   `assignment_rate ≥ random_rate` (a per-pair-max dominance that can
//!   only break if the reduction itself breaks) and the allocation-free
//!   hot loop (`allocs_per_point ≤ 0.05` over the edge grid);
//! * **`serve_loadgen`** — the serving layer's canonical load study
//!   (`bcc_bench::servestudy`): a 40k-query hot-set stream through a
//!   `bcc-serve` engine, closed loop (throughput + p50/p99/p999 service
//!   times) and batched drain, plus a 200k-query repeated-state all-hit
//!   stream, plus a chaos pass of the same stream under the canonical
//!   `servestudy::chaos_plan` fault plan (asserted bit-identical across
//!   worker counts first). Its gates are direction-aware: `qps` may not
//!   drop below baseline ÷ tolerance, the repeated stream must hit the
//!   cache, serve misses must reach the closed-form kernel, the
//!   fault-free stream must record **zero** degraded answers, and the
//!   injected stream must record **some** degraded answers, reject its
//!   malformed queries, and contain every injected panic
//!   (`chaos_panics == 0`).
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
//! report also records the `block_size` the batched paths chunk by.
//!
//! Usage:
//!
//! ```text
//! bench-report [--out PATH] [--check BASELINE.json]
//! ```
//!
//! `--out` defaults to `results/BENCH_evaluator.json`. With `--check`, the
//! run exits non-zero if the Fig. 3 sweep's wall time regressed more than
//! 15% against the committed baseline (serial and parallel each), **or if
//! a fast path silently turned off**: `kernel_hits == 0` or
//! `batched_points == 0` on the Fig. 3 sweep (every solve there is
//! closed-form and must run through the SoA lane kernels), or
//! `warm_hits == 0` summed across all scenarios (a floor-free inner
//! sweep never touches the simplex now, so the warm path's canary is the
//! serve study's floored sub-stream). The factor is overridable via
//! `BCC_BENCH_TOLERANCE` (≥ 1.0) for runners slower than the baseline
//! machine. Refresh the baseline by copying a trusted run's
//! `BENCH_evaluator.json` over `ci/bench_baseline.json`.

use bcc_bench::{benchjson, fig4_network, results_dir, FIG3_GAB_DB, FIG3_POWER_DB};
use bcc_core::comparison::sum_rate_crossover_db;
use bcc_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
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

/// Panic-hook invocations whose payload is *not* the injected chaos
/// marker — a genuine panic anywhere in the run. The serve scenario's
/// chaos pass gates on this staying zero.
static GENUINE_PANICS: AtomicU64 = AtomicU64::new(0);

/// Counts genuine panics and silences the injected ones (their unwinds
/// are caught and degraded by the serve engine; the default hook would
/// bury the report in backtraces).
fn install_panic_audit() {
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

fn outage_scenario() -> Scenario {
    Scenario::at(fig4_network(10.0)).rayleigh(10_000, 0xBCC0_0001)
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
        outage_scenario()
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
/// 10% relative-error budget, then times that rung serial vs parallel
/// (bit-identity asserted on the full result first). The extras carry
/// the quality metrics the gate asserts on: achieved relative error,
/// the winning trial budget, the per-trial variance advantage over plain
/// MC (`p(1−p)/var`), and the z-score against the closed-form tail.
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

    // Time to fixed relative error: climb the ladder until the 10%
    // budget is met (the last rung is reported even if it falls short —
    // the gate, not the ladder, fails the run then).
    let mut trials = *deepstudy::TRIAL_LADDER.last().expect("non-empty ladder");
    let mut serial = None;
    for &rung in &deepstudy::TRIAL_LADDER {
        let res = run(rung, 1);
        let done = cell_of(&res)
            .rel_error
            .is_some_and(|r| r <= deepstudy::REL_ERR_TARGET);
        trials = rung;
        serial = Some(res);
        if done {
            break;
        }
    }
    let serial = serial.expect("ladder is non-empty");
    let parallel = run(trials, parallel_threads);
    assert_eq!(
        cell_of(&serial),
        cell_of(&parallel),
        "parallel deep outage must be bit-identical"
    );

    let cell = cell_of(&serial);
    let p = cell.probability.expect("tilted estimate resolves");
    let rel = cell.rel_error.expect("resolved");
    let exact = bcc_core::analytic_outage(
        &bcc_bench::fig4_network(deepstudy::POWER_DB),
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

    let mix = measure_mix(trials, || {
        run(trials, 1);
    });
    let serial_ms = best_ms(REPS, || {
        run(trials, 1);
    });
    let parallel_ms = best_ms(REPS, || {
        run(trials, parallel_threads);
    });
    Timing {
        name: "deep_outage",
        points: 1,
        trials,
        serial_ms,
        parallel_ms,
        mix,
        extra: vec![
            ("rel_err", rel),
            ("is_trials", trials as f64),
            ("var_ratio", var_ratio),
            ("prob_x1e9", p * 1e9),
            ("exact_x1e9", exact * 1e9),
            ("abs_z", abs_z),
        ],
    }
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
    use bcc_bench::servestudy;
    use bcc_serve::{ServedFrom, Server};

    let queries = servestudy::mixed_stream().queries(servestudy::MIXED_QUERIES);
    let drain_all = |threads: usize| {
        let mut server = Server::new(&servestudy::config().threads(threads));
        let mut answers = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(servestudy::BATCH) {
            for &q in chunk {
                server.submit(q).expect("queue sized to the batch");
            }
            answers.extend(server.drain());
        }
        answers
    };
    assert_eq!(
        drain_all(1),
        drain_all(parallel_threads),
        "batched serve drains must be bit-identical across worker counts"
    );

    // Solver mix of one serial closed-loop pass (every solve lands on
    // this thread, so the thread-local counters capture it completely).
    let mix = measure_mix(queries.len(), || {
        let mut server = Server::new(&servestudy::config());
        for q in &queries {
            let _ = server.serve(q);
        }
    });

    // Closed loop: per-query service times and throughput, plus the
    // serve-stats delta for the hit-rate extras.
    let mut server = Server::new(&servestudy::config());
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
    let mut rep_server = Server::new(&servestudy::config());
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
    let chaos_config = servestudy::config().faults(servestudy::chaos_plan());
    let drain_chaos = |threads: usize| {
        let mut server = Server::new(&chaos_config.threads(threads));
        let mut answers = Vec::with_capacity(chaos_queries.len());
        for chunk in chaos_queries.chunks(servestudy::BATCH) {
            for &q in chunk {
                server.submit(q).expect("queue sized to the batch");
            }
            answers.extend(server.drain());
        }
        answers
    };
    assert_eq!(
        drain_chaos(1),
        drain_chaos(parallel_threads),
        "injected-fault drains must be bit-identical across worker counts"
    );
    let mut chaos_server = Server::new(&chaos_config);
    let ((), chaos_delta) = bcc_serve::stats::scoped(|| {
        for q in &chaos_queries {
            let _ = chaos_server.serve(q);
        }
    });

    let serial_ms = best_ms(REPS, || {
        drain_all(1);
    });
    let parallel_ms = best_ms(REPS, || {
        drain_all(parallel_threads);
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
            ("chaos_panics", GENUINE_PANICS.load(Relaxed) as f64),
        ],
    }
}

fn render_json(available: usize, parallel: usize, timings: &[Timing]) -> String {
    let mut out = String::from("{\n  \"schema\": 7,\n");
    out.push_str(&format!(
        "  \"threads\": {{ \"available\": {available}, \"parallel\": {parallel} }},\n"
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

/// Applies the `--check` gate to one field of the Fig. 3 scenario.
/// Returns an error message on regression.
fn check_field(baseline: &str, timing: &Timing, field: &str, measured: f64) -> Result<(), String> {
    let Some(base) = benchjson::scenario_field(baseline, timing.name, field) else {
        return Err(format!(
            "baseline has no \"{field}\" for scenario \"{}\"",
            timing.name
        ));
    };
    let tolerance = tolerance();
    let allowed = base * tolerance;
    if measured > allowed {
        return Err(format!(
            "{} {field} regressed: {measured:.1} ms > {allowed:.1} ms \
             (baseline {base:.1} ms × {tolerance})",
            timing.name
        ));
    }
    println!(
        "check ok: {} {field} {measured:.1} ms within {allowed:.1} ms (baseline {base:.1} ms)",
        timing.name
    );
    Ok(())
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

fn main() {
    install_panic_audit();
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

    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let parallel = bcc_num::par::thread_count();
    println!("bench-report: {available} hardware threads, parallel mode uses {parallel}\n");

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

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", baseline_path.display()));
        let fig3 = &timings[0];
        let mut failures = Vec::new();
        for (field, measured) in [
            ("serial_ms", fig3.serial_ms),
            ("parallel_ms", fig3.parallel_ms),
        ] {
            if let Err(msg) = check_field(&baseline, fig3, field, measured) {
                failures.push(msg);
            }
        }
        // A fast path going quiet is a silent perf loss even when wall
        // time hasn't (yet) tripped the timing gate on a fast runner. The
        // closed-form kernel carries all four protocols on the fig3
        // sweep, and it must run *batched* — a floor-free inner sweep
        // falling back to per-point scalar solves is a regression even at
        // identical answers. The warm-start path must still fire on the
        // workloads where the simplex is actually in play (floored serve
        // queries).
        if fig3.mix.kernel_hits == 0 {
            failures.push(
                "fig3_sweep kernel_hits == 0: the closed-form kernel never fired \
                 (silently disabled?)"
                    .to_string(),
            );
        } else {
            println!(
                "check ok: fig3_sweep kernel_hits = {}",
                fig3.mix.kernel_hits
            );
        }
        if fig3.mix.batched_points == 0 {
            failures.push(
                "fig3_sweep batched_points == 0: the sweep fell back to scalar \
                 per-point solves (batched lane kernels silently disabled?)"
                    .to_string(),
            );
        } else {
            println!(
                "check ok: fig3_sweep batched_points = {} (lanes_filled = {})",
                fig3.mix.batched_points, fig3.mix.lanes_filled
            );
        }
        let warm_total: u64 = timings.iter().map(|t| t.mix.warm_hits).sum();
        if warm_total == 0 {
            failures.push(
                "warm_hits == 0 across every scenario: the warm-start fast path \
                 never fired (silently disabled?)"
                    .to_string(),
            );
        } else {
            println!("check ok: warm_hits across scenarios = {warm_total}");
        }
        // The K-pair sweep hot loop must stay allocation-free per
        // pair-point (warm-up and result assembly amortise to noise on
        // this grid; 0.05 is far below one allocation per point).
        let scenario = |name: &str| {
            timings
                .iter()
                .find(|t| t.name == name)
                .unwrap_or_else(|| panic!("timings include {name}"))
        };
        // Deep-outage quality gates: the importance sampler must resolve
        // its ~1e-6 tail within the 10% relative-error budget, in fewer
        // trials than plain MC needs for a 1e-3 tail, with a genuine
        // per-trial variance advantage, and statistically consistent
        // with the closed-form answer.
        {
            use bcc_bench::deepstudy;
            let deep = scenario("deep_outage");
            let extra = |key: &str| {
                deep.extra
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("deep_outage records {key}"))
            };
            let rel_err = extra("rel_err");
            if rel_err > deepstudy::REL_ERR_TARGET {
                failures.push(format!(
                    "deep_outage rel_err = {rel_err:.3}: the tilted estimator missed the \
                     {:.0}% relative-error budget even at the top of the trial ladder",
                    deepstudy::REL_ERR_TARGET * 100.0
                ));
            } else {
                println!("check ok: deep_outage rel_err = {rel_err:.3}");
            }
            if deep.trials >= deepstudy::PLAIN_MC_FLOOR {
                failures.push(format!(
                    "deep_outage is_trials = {}: the 1e-6 tail took at least as many \
                     trials as plain MC needs for 1e-3 ({})",
                    deep.trials,
                    deepstudy::PLAIN_MC_FLOOR
                ));
            } else {
                println!(
                    "check ok: deep_outage is_trials = {} (plain-MC 1e-3 floor {})",
                    deep.trials,
                    deepstudy::PLAIN_MC_FLOOR
                );
            }
            let var_ratio = extra("var_ratio");
            if var_ratio <= 1.0 {
                failures.push(format!(
                    "deep_outage var_ratio = {var_ratio:.2}: importance sampling lost its \
                     per-trial variance advantage over plain MC"
                ));
            } else {
                println!("check ok: deep_outage var_ratio = {var_ratio:.1}");
            }
            let abs_z = extra("abs_z");
            if abs_z > 5.0 {
                failures.push(format!(
                    "deep_outage abs_z = {abs_z:.2}: the estimate is more than 5 standard \
                     errors from the closed-form tail (biased sampler?)"
                ));
            } else {
                println!("check ok: deep_outage abs_z = {abs_z:.2}");
            }
        }
        let multipair = scenario("multipair_k3");
        if multipair.mix.allocs_per_point > 0.05 {
            failures.push(format!(
                "multipair_k3 allocs_per_point = {:.3}: the K-pair hot loop \
                 allocates per pair-point (budget 0.05)",
                multipair.mix.allocs_per_point
            ));
        } else {
            println!(
                "check ok: multipair_k3 allocs_per_point = {:.3}",
                multipair.mix.allocs_per_point
            );
        }
        if multipair.mix.kernel_hits == 0 {
            failures.push(
                "multipair_k3 kernel_hits == 0: the closed-form kernel never fired \
                 on the K-pair sweep (silently disabled?)"
                    .to_string(),
            );
        } else {
            println!(
                "check ok: multipair_k3 kernel_hits = {}",
                multipair.mix.kernel_hits
            );
        }
        // City-assignment gates: the greedy best-edge aggregate is a
        // per-pair maximum, so it can only fall below the random
        // baseline if the candidate reduction itself is broken; and the
        // streamed edge loop must stay allocation-free per edge and on
        // the batched kernel path.
        {
            let city = scenario("city_scale");
            let city_extra = |key: &str| {
                city.extra
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("city timing records {key}"))
            };
            let assignment_rate = city_extra("assignment_rate");
            let random_rate = city_extra("random_rate");
            if assignment_rate < random_rate {
                failures.push(format!(
                    "city_scale assignment_rate = {assignment_rate:.4} < random_rate = \
                     {random_rate:.4}: greedy best-edge attachment lost to random \
                     (candidate reduction broken?)"
                ));
            } else {
                println!(
                    "check ok: city_scale assignment_rate {assignment_rate:.4} ≥ \
                     random_rate {random_rate:.4}"
                );
            }
            let refined_ts = city_extra("refined_ts_rate");
            let greedy_ts = city_extra("greedy_ts_rate");
            if refined_ts < greedy_ts {
                failures.push(format!(
                    "city_scale refined_ts_rate = {refined_ts:.4} < greedy seed's \
                     {greedy_ts:.4}: the refinement search regressed below its seed"
                ));
            } else {
                println!(
                    "check ok: city_scale refined_ts_rate {refined_ts:.4} ≥ greedy \
                     seed {greedy_ts:.4}"
                );
            }
            if city.mix.allocs_per_point > 0.05 {
                failures.push(format!(
                    "city_scale allocs_per_point = {:.3}: the streamed edge loop \
                     allocates per edge (budget 0.05)",
                    city.mix.allocs_per_point
                ));
            } else {
                println!(
                    "check ok: city_scale allocs_per_point = {:.3}",
                    city.mix.allocs_per_point
                );
            }
            if city.mix.batched_points == 0 {
                failures.push(
                    "city_scale batched_points == 0: the edge grid fell back to \
                     scalar per-point solves (lane kernels silently disabled?)"
                        .to_string(),
                );
            } else {
                println!(
                    "check ok: city_scale batched_points = {} (lanes_filled = {})",
                    city.mix.batched_points, city.mix.lanes_filled
                );
            }
        }
        // Serving-path gates: throughput is higher-is-better (a drop
        // below baseline/tolerance is the regression), and the two cache
        // fast-path canaries must fire — repeated-state streams must hit
        // the cache, and serve misses must reach the closed-form kernel.
        let serve = scenario("serve_loadgen");
        let measured_qps = serve
            .extra
            .iter()
            .find(|(k, _)| *k == "qps")
            .map(|(_, v)| *v)
            .expect("serve timing records qps");
        match benchjson::scenario_field(&baseline, serve.name, "qps") {
            Some(base_qps) => {
                let floor = base_qps / tolerance();
                if measured_qps < floor {
                    failures.push(format!(
                        "serve_loadgen qps regressed: {measured_qps:.0} q/s < {floor:.0} q/s \
                         (baseline {base_qps:.0} q/s ÷ {})",
                        tolerance()
                    ));
                } else {
                    println!(
                        "check ok: serve_loadgen qps {measured_qps:.0} above {floor:.0} \
                         (baseline {base_qps:.0})"
                    );
                }
            }
            None => failures.push("baseline has no \"qps\" for serve_loadgen".to_string()),
        }
        let repeated_hits = serve
            .extra
            .iter()
            .find(|(k, _)| *k == "repeated_cache_hits")
            .map(|(_, v)| *v)
            .expect("serve timing records repeated_cache_hits");
        if repeated_hits == 0.0 {
            failures.push(
                "serve_loadgen repeated_cache_hits == 0: a repeated-state stream \
                 never hit the decision cache (quantization or cache broken?)"
                    .to_string(),
            );
        } else {
            println!("check ok: serve_loadgen repeated_cache_hits = {repeated_hits:.0}");
        }
        if serve.mix.kernel_hits == 0 {
            failures.push(
                "serve_loadgen kernel_hits == 0: serve misses never reached the \
                 closed-form kernel (silently disabled?)"
                    .to_string(),
            );
        } else {
            println!(
                "check ok: serve_loadgen kernel_hits = {}",
                serve.mix.kernel_hits
            );
        }
        // Degradation gates, both directions: the fault-free stream must
        // never fall back to the conservative answer, and the injected
        // stream must degrade somewhere, reject its malformed queries,
        // and contain every injected panic.
        let serve_extra = |key: &str| {
            serve
                .extra
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("serve timing records {key}"))
        };
        let degraded = serve_extra("degraded");
        if degraded > 0.0 {
            failures.push(format!(
                "serve_loadgen degraded = {degraded:.0} on the fault-free stream: \
                 a healthy serve must never fall back to the conservative answer"
            ));
        } else {
            println!("check ok: serve_loadgen degraded = 0 on the fault-free stream");
        }
        let chaos_degraded = serve_extra("chaos_degraded");
        if chaos_degraded == 0.0 {
            failures.push(
                "serve_loadgen chaos_degraded == 0: the injected fault plan never \
                 exercised the degraded fallback (injection silently disabled?)"
                    .to_string(),
            );
        } else {
            println!("check ok: serve_loadgen chaos_degraded = {chaos_degraded:.0}");
        }
        let chaos_rejects = serve_extra("chaos_validated_rejects");
        if chaos_rejects == 0.0 {
            failures.push(
                "serve_loadgen chaos_validated_rejects == 0: malformed queries were \
                 not refused up front"
                    .to_string(),
            );
        } else {
            println!("check ok: serve_loadgen chaos_validated_rejects = {chaos_rejects:.0}");
        }
        let chaos_panics = serve_extra("chaos_panics");
        if chaos_panics > 0.0 {
            failures.push(format!(
                "serve_loadgen chaos_panics = {chaos_panics:.0}: a genuine panic \
                 escaped the injected run (isolation broken)"
            ));
        } else {
            println!("check ok: serve_loadgen chaos_panics = 0");
        }
        if !failures.is_empty() {
            for msg in &failures {
                eprintln!("REGRESSION: {msg}");
            }
            std::process::exit(1);
        }
        println!("bench check passed against {}", baseline_path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Cli};
    use std::path::PathBuf;

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
}
