//! The run shared by the three batch workloads: set-up, output checks,
//! then interleaved serial, parallel and replay passes until the run's
//! time is up.

use crate::probe::{self, Counts};
use crate::report::{Report, MAXMIN_MS, SUM_MS};
use crate::stats::{median, Samples};
use crate::trace::{Calibration, Probe, Stage, StageClock, Tracer, Untraced, STAGES};
use crate::RunConfig;
use bcc_core::{CoreError, Protocol};
use std::time::{Duration, Instant};

/// A batch workload: a scenario compiled into a serial and a parallel
/// evaluator, and a replay of one serial pass through the public layer
/// calls the evaluator makes, in its order and block size.
pub trait BatchWorkload: Sized {
    /// The result of one evaluator pass.
    type Output: PartialEq;

    /// Builds the workload's inputs from `seed` and compiles the
    /// evaluators, the parallel one at `threads` workers.
    fn build(seed: u64, threads: usize) -> Self;

    /// One evaluator pass.
    fn pass(&mut self, parallel: bool) -> Result<Self::Output, CoreError>;

    /// Fold of every result bit the output's accessors expose.
    fn fingerprint(&self, out: &Self::Output) -> u64;

    /// Fold of the per-item values a replay also produces.
    fn values(&self, out: &Self::Output) -> u64;

    /// Solves in one pass, and how many of them failed (skipped or
    /// non-finite).
    fn tally(&self, out: &Self::Output) -> (u64, u64);

    /// Replays one serial pass, keeping its per-item values.
    fn replay<P: Probe>(&mut self, probe: &mut P) -> Result<(), CoreError>;

    /// Fold of the last replay's per-item values, in [`Self::values`]'
    /// order.
    fn replay_values(&self) -> u64;

    /// The fingerprint stored for `seed`, where one is stored.
    fn golden(seed: u64) -> Option<u64>;

    /// Computed size of one pass's result.
    fn result_bytes(&self) -> usize;

    /// Fade draws one pass makes.
    fn fade_draws(&self) -> u64 {
        0
    }
}

/// A workload whose first pass passed the output checks, with the
/// values later passes must reproduce.
struct Checked<W> {
    w: W,
    fingerprint: u64,
    values: u64,
    solves: u64,
}

/// Times of every set-up in a run: construction alone, and construction
/// plus the warm-up pass (`setup_s`). A run sets up once before measuring
/// and once per round after, so set-up times span the run like the
/// others.
#[derive(Default)]
pub struct SetUps {
    pub build: Samples,
    pub total: Samples,
}

impl SetUps {
    /// Runs `build`, then `warm` on what it built, timing both.
    pub fn time<B, T>(
        &mut self,
        build: impl FnOnce() -> B,
        warm: impl FnOnce(&mut B) -> T,
    ) -> (B, T) {
        let t0 = Instant::now();
        let mut built = build();
        self.build.push(t0.elapsed());
        let out = warm(&mut built);
        self.total.push(t0.elapsed());
        (built, out)
    }
}

/// One set-up of `W`: its evaluators and the warm-up pass's output.
fn set_up<W: BatchWorkload>(setups: &mut SetUps, cfg: &RunConfig) -> (W, W::Output) {
    setups.time(
        || W::build(cfg.seed, cfg.threads),
        |w| w.pass(false).expect("the warm-up pass solves"),
    )
}

/// Runs `W` for the configured time and fills `rep`.
pub fn run<W: BatchWorkload>(cfg: &RunConfig, rep: &mut Report) {
    let mut setups = SetUps::default();
    let (w, warm) = set_up::<W>(&mut setups, cfg);
    let mut c = check(w, warm, cfg, rep);
    if cfg.trace {
        traced(&mut c, cfg, rep, &mut setups);
    } else {
        measured(&mut c, cfg, rep, &mut setups);
    }
}

/// The output checks on the first pass: the stored fingerprint, serial
/// against parallel, and the replay against the evaluator.
fn check<W: BatchWorkload>(
    mut w: W,
    first: W::Output,
    cfg: &RunConfig,
    rep: &mut Report,
) -> Checked<W> {
    let fingerprint = w.fingerprint(&first);
    match W::golden(cfg.seed) {
        Some(stored) => rep.check(
            "fingerprint",
            fingerprint == stored,
            format!("{fingerprint:#018x} (stored {stored:#018x})"),
        ),
        None => rep.check(
            "fingerprint",
            true,
            format!("{fingerprint:#018x} (none stored for seed {})", cfg.seed),
        ),
    }
    let parallel = w.pass(true);
    let same = parallel
        .as_ref()
        .is_ok_and(|p| *p == first && w.fingerprint(p) == fingerprint);
    rep.check(
        "serial == parallel",
        same,
        format!("bitwise at 1 and {} workers", cfg.threads),
    );
    drop(parallel);
    let values = w.values(&first);
    let replayed = w.replay(&mut Untraced).is_ok() && w.replay_values() == values;
    rep.check(
        "replay == evaluator",
        replayed,
        format!("values {values:#018x}"),
    );
    let (solves, failed) = w.tally(&first);
    rep.tally(solves, failed);
    Checked {
        w,
        fingerprint,
        values,
        solves,
    }
}

/// One evaluator pass: its solve time and output.
fn pass_timed<W: BatchWorkload>(
    c: &mut Checked<W>,
    parallel: bool,
) -> (Duration, Result<W::Output, CoreError>) {
    let t0 = Instant::now();
    let out = c.w.pass(parallel);
    (t0.elapsed(), out)
}

/// Checks a pass's output against the first pass, then drops it; returns
/// the time the drop took, which belongs to the pass.
fn verify_drop<W: BatchWorkload>(
    c: &Checked<W>,
    out: Result<W::Output, CoreError>,
    rep: &mut Report,
) -> Duration {
    match &out {
        Ok(o) => {
            rep.verify(
                "pass output == first pass",
                c.w.fingerprint(o) == c.fingerprint,
            );
            let (solves, failed) = c.w.tally(o);
            rep.tally(solves, failed);
        }
        Err(_) => {
            rep.verify("pass solves", false);
            rep.tally(c.solves, c.solves);
        }
    }
    let t0 = Instant::now();
    drop(out);
    t0.elapsed()
}

/// A timed evaluator pass, result drop included.
fn full_pass<W: BatchWorkload>(c: &mut Checked<W>, parallel: bool, rep: &mut Report) -> Duration {
    let (solve, out) = pass_timed(c, parallel);
    solve + verify_drop(c, out, rep)
}

/// A replay through `probe`, checked against the evaluator's values.
fn replay_checked<W: BatchWorkload, P: Probe>(
    c: &mut Checked<W>,
    probe: &mut P,
    rep: &mut Report,
) -> Duration {
    let t0 = Instant::now();
    let ok = c.w.replay(probe).is_ok();
    let d = t0.elapsed();
    rep.verify("replay == evaluator", ok && c.w.replay_values() == c.values);
    d
}

/// Step order of round `round`: forward on even rounds, reversed on odd
/// ones, so no step always runs right after the same other step.
pub(crate) fn order<const N: usize>(round: usize) -> [usize; N] {
    std::array::from_fn(|i| {
        if round.is_multiple_of(2) {
            i
        } else {
            N - 1 - i
        }
    })
}

/// The end-to-end run: serial and parallel evaluator passes, and an
/// untraced replay timing each block's service time.
fn measured<W: BatchWorkload>(
    c: &mut Checked<W>,
    cfg: &RunConfig,
    rep: &mut Report,
    setups: &mut SetUps,
) {
    let (mut serial, mut parallel) = (Samples::new(), Samples::new());
    let mut blocks = StageClock::new(Stage::Block);
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut round = 0;
    while Instant::now() < deadline {
        for step in order::<4>(round) {
            match step {
                0 => serial.push(full_pass(c, false, rep)),
                1 => parallel.push(full_pass(c, true, rep)),
                2 => {
                    replay_checked(c, &mut blocks, rep);
                }
                _ => drop(set_up::<W>(setups, cfg)),
            }
        }
        round += 1;
    }
    let setup_s = rep.timing("setup", &mut setups.total, 1e9, "s");
    let serial_ms = rep.timing("serial pass", &mut serial, 1e6, "ms");
    let label = format!("parallel pass, {} workers", cfg.threads);
    rep.timing(&label, &mut parallel, 1e6, "ms");
    rep.timing("block service time", &mut blocks.samples, 1e3, "us");
    rep.set("setup_s", setup_s);
    rep.set("serial_ms", serial_ms);
    rep.set("qps", c.solves as f64 / (serial_ms / 1e3));
    rep.set("p50_us", blocks.samples.quantile(0.5, 1e3));
    rep.set("p99_us", blocks.samples.quantile(0.99, 1e3));
    rep.set("peak_rss_mib", probe::peak_rss_mib());
}

/// Per-pass values of the traced run.
#[derive(Default)]
struct Layers {
    stage_ms: Vec<Vec<f64>>,
    total_ms: Vec<f64>,
    spans: Vec<f64>,
    counts: PassCounts,
}

impl Layers {
    fn stage(&self, s: Stage) -> f64 {
        median(&self.stage_ms[s as usize])
    }
}

/// The [`Counts`] of every measured pass of a traced run.
#[derive(Default)]
pub struct PassCounts {
    allocations: Vec<f64>,
    minor_faults: Vec<f64>,
    lp_solves: Vec<f64>,
    lp_pivots: Vec<f64>,
    lp_warm: Vec<f64>,
    points: Vec<f64>,
    lanes: Vec<f64>,
}

impl PassCounts {
    /// Records one pass's counters.
    pub fn push(&mut self, d: &Counts) {
        self.allocations.push(d.allocations as f64);
        self.minor_faults.push(d.minor_faults as f64);
        self.lp_solves.push(d.lp.solves as f64);
        self.lp_pivots.push(d.lp.pivots as f64);
        self.lp_warm.push(d.lp.warm_hits as f64);
        self.points.push(d.batched_points as f64);
        self.lanes.push(d.lanes_filled as f64);
    }

    /// Sets `scenario.allocs`, `scenario.minor_faults`, `batch.points`,
    /// `batch.lane_fill` and `lp.*` to their per-pass medians.
    pub fn report(&self, rep: &mut Report) {
        rep.set("scenario.allocs", median(&self.allocations));
        rep.set("scenario.minor_faults", median(&self.minor_faults));
        let points = median(&self.points);
        rep.set("batch.points", points);
        rep.set("batch.lane_fill", ratio(median(&self.lanes), points));
        let solves = median(&self.lp_solves);
        let pivots = median(&self.lp_pivots);
        rep.set("lp.solves", solves);
        rep.set("lp.pivots", pivots);
        rep.set("lp.pivots_per_solve", ratio(pivots, solves));
        rep.set("lp.warm_rate", ratio(median(&self.lp_warm), solves));
    }
}

/// Sets `par.*` from the median serial and parallel pass times and the
/// CPU ticks all parallel passes used. The parallel pass is a per-layer
/// metric: on a shared runner its speed-up comes and goes with the load
/// on the other cores, too much for an end-to-end bound.
pub fn report_par(
    rep: &mut Report,
    threads: usize,
    serial_ms: f64,
    par_ms: f64,
    ticks: u64,
    passes: u64,
) {
    rep.set("par.threads", threads as f64);
    rep.set("par.parallel_ms", par_ms);
    rep.set(
        "par.cpu_ms",
        ratio(ticks as f64 * probe::ms_per_tick(), passes as f64),
    );
    rep.set("par.efficiency", ratio(serial_ms, par_ms * threads as f64));
}

/// Sets `scenario.residual_ms` and `trace.*` from the median untraced
/// evaluator pass, untraced replay and traced replay (ms), and each traced
/// pass's total self time (ms) and span count. Returns the coverage: stage
/// self times plus the residual over the untraced pass.
pub fn report_trace(
    rep: &mut Report,
    eval_ms: f64,
    replay_ms: f64,
    traced_ms: f64,
    total_ms: &[f64],
    spans: &[f64],
) -> f64 {
    let residual = eval_ms - replay_ms;
    let coverage = ratio(median(total_ms) + residual, eval_ms);
    rep.set("scenario.residual_ms", residual);
    rep.set("trace.replay_ms", replay_ms);
    rep.set("trace.overhead_ms", traced_ms - replay_ms);
    rep.set("trace.coverage", coverage);
    rep.set("trace.spans", median(spans));
    coverage
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The traced run: untraced evaluator passes with counters, untraced
/// and traced replays, and parallel passes with CPU time.
fn traced<W: BatchWorkload>(
    c: &mut Checked<W>,
    cfg: &RunConfig,
    rep: &mut Report,
    setups: &mut SetUps,
) {
    let cal = Calibration::measure();
    let mut tracer = Tracer::new();
    let (mut eval, mut replay, mut traced, mut par) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let mut layers = Layers {
        stage_ms: vec![Vec::new(); STAGES],
        ..Layers::default()
    };
    let (mut cpu_ticks, mut par_passes) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut round = 0;
    while Instant::now() < deadline {
        for step in order::<5>(round) {
            match step {
                0 => {
                    let before = Counts::before();
                    let (solve, out) = pass_timed(c, false);
                    layers.counts.push(&Counts::since(&before));
                    eval.push(solve + verify_drop(c, out, rep));
                }
                1 => replay.push(replay_checked(c, &mut Untraced, rep)),
                2 => {
                    traced.push(replay_checked(c, &mut tracer, rep));
                    let t = tracer.finish_pass(cal);
                    for (s, v) in layers.stage_ms.iter_mut().enumerate() {
                        v.push(t.self_ns[s] / 1e6);
                    }
                    layers.total_ms.push(t.total_ns() / 1e6);
                    layers.spans.push(t.spans as f64);
                }
                3 => {
                    let before = probe::proc_stat().cpu_ticks;
                    par.push(full_pass(c, true, rep));
                    cpu_ticks += probe::proc_stat().cpu_ticks - before;
                    par_passes += 1;
                }
                _ => drop(set_up::<W>(setups, cfg)),
            }
        }
        round += 1;
    }
    println!(
        "trace calibration: {:.1} ns inside a span, {:.1} ns per span",
        cal.inside_ns, cal.per_span_ns
    );
    let build_ms = rep.timing("scenario build", &mut setups.build, 1e6, "ms");
    let eval_ms = rep.timing("serial evaluator pass", &mut eval, 1e6, "ms");
    let replay_ms = rep.timing("untraced replay", &mut replay, 1e6, "ms");
    let traced_ms = rep.timing("traced replay", &mut traced, 1e6, "ms");
    let label = format!("parallel pass, {} workers", cfg.threads);
    let par_ms = rep.timing(&label, &mut par, 1e6, "ms");
    let residual = eval_ms - replay_ms;

    rep.set("scenario.build_ms", build_ms);
    layers.counts.report(rep);
    rep.set(
        "scenario.result_mib",
        c.w.result_bytes() as f64 / (1024.0 * 1024.0),
    );
    rep.set("batch.pack_ms", layers.stage(Stage::Pack));
    rep.set("batch.caps_ms", layers.stage(Stage::Caps));
    for p in Protocol::ALL {
        rep.set(SUM_MS[p.index()], layers.stage(Stage::sum(p)));
        rep.set(MAXMIN_MS[p.index()], layers.stage(Stage::max_min(p)));
    }
    rep.set("fading.sample_ms", layers.stage(Stage::Sample));
    rep.set("fading.draws", c.w.fade_draws() as f64);
    report_par(rep, cfg.threads, eval_ms, par_ms, cpu_ticks, par_passes);
    let coverage = report_trace(
        rep,
        eval_ms,
        replay_ms,
        traced_ms,
        &layers.total_ms,
        &layers.spans,
    );

    println!("layer split of the serial evaluator pass ({eval_ms:.3} ms):");
    for s in Stage::ALL {
        let ms = layers.stage(s);
        if layers.stage_ms[s as usize].iter().any(|&v| v != 0.0) {
            println!(
                "  {:<20} {ms:>10.3} ms {:>6.1}%",
                s.name(),
                100.0 * ratio(ms, eval_ms)
            );
        }
    }
    println!(
        "  {:<20} {residual:>10.3} ms {:>6.1}%",
        "scenario.residual",
        100.0 * ratio(residual, eval_ms)
    );
    println!("  stage self times + residual cover {coverage:.4} of the untraced pass");
    crate::write_spans(&tracer, cfg, rep.workload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_alternate_step_order() {
        assert_eq!(order::<3>(0), [0, 1, 2]);
        assert_eq!(order::<3>(1), [2, 1, 0]);
        assert_eq!(order::<4>(3), [3, 2, 1, 0]);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
