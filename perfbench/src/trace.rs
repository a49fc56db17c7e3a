//! Spans around the public layer calls of a replayed pass.
//!
//! Each replay is written once, generic over a [`Probe`]: [`Untraced`]
//! compiles every span away, [`StageClock`] times one stage (the service
//! time of a block or a query), and [`Tracer`] keeps every span in memory
//! — stage, pass, parent, start and end — and reduces a pass to per-stage
//! self times.

use crate::stats::{median, Samples};
use bcc_core::Protocol;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// A traced region: a root (a pass, a block of points, one query) or one
/// public layer call. Names follow the per-layer metrics they feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Pass,
    Block,
    Query,
    Pack,
    Caps,
    Sample,
    SumDt,
    SumMabc,
    SumTdbc,
    SumHbc,
    MaxMinDt,
    MaxMinMabc,
    MaxMinTdbc,
    MaxMinHbc,
    Validate,
    Snap,
    CacheGet,
    CacheInsert,
    Solve,
}

/// Number of [`Stage`]s.
pub const STAGES: usize = 19;

impl Stage {
    /// Every stage in declaration order, so `ALL[s as usize] == s`.
    pub const ALL: [Stage; STAGES] = [
        Stage::Pass,
        Stage::Block,
        Stage::Query,
        Stage::Pack,
        Stage::Caps,
        Stage::Sample,
        Stage::SumDt,
        Stage::SumMabc,
        Stage::SumTdbc,
        Stage::SumHbc,
        Stage::MaxMinDt,
        Stage::MaxMinMabc,
        Stage::MaxMinTdbc,
        Stage::MaxMinHbc,
        Stage::Validate,
        Stage::Snap,
        Stage::CacheGet,
        Stage::CacheInsert,
        Stage::Solve,
    ];

    /// The stage's name in span files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Pass => "pass",
            Stage::Block => "block",
            Stage::Query => "query",
            Stage::Pack => "batch.pack",
            Stage::Caps => "batch.caps",
            Stage::Sample => "fading.sample",
            Stage::SumDt => "kernel.sum.dt",
            Stage::SumMabc => "kernel.sum.mabc",
            Stage::SumTdbc => "kernel.sum.tdbc",
            Stage::SumHbc => "kernel.sum.hbc",
            Stage::MaxMinDt => "kernel.maxmin.dt",
            Stage::MaxMinMabc => "kernel.maxmin.mabc",
            Stage::MaxMinTdbc => "kernel.maxmin.tdbc",
            Stage::MaxMinHbc => "kernel.maxmin.hbc",
            Stage::Validate => "serve.validate",
            Stage::Snap => "serve.snap",
            Stage::CacheGet => "serve.cache_get",
            Stage::CacheInsert => "serve.cache_insert",
            Stage::Solve => "serve.solve",
        }
    }

    /// The sum-rate block solve of `p`.
    pub fn sum(p: Protocol) -> Stage {
        [Stage::SumDt, Stage::SumMabc, Stage::SumTdbc, Stage::SumHbc][p.index()]
    }

    /// The max–min block solve of `p`.
    pub fn max_min(p: Protocol) -> Stage {
        [
            Stage::MaxMinDt,
            Stage::MaxMinMabc,
            Stage::MaxMinTdbc,
            Stage::MaxMinHbc,
        ][p.index()]
    }
}

/// What a replay reports at each span boundary.
pub trait Probe {
    /// A span of `stage` opens.
    fn enter(&mut self, stage: Stage);
    /// The innermost open span, of `stage`, closes.
    fn exit(&mut self, stage: Stage);
}

/// Runs `f` inside a span of `stage`.
#[inline(always)]
pub fn span<P: Probe, R>(probe: &mut P, stage: Stage, f: impl FnOnce() -> R) -> R {
    probe.enter(stage);
    let r = f();
    probe.exit(stage);
    r
}

/// No spans at all: the replay runs as plain calls.
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn enter(&mut self, _: Stage) {}
    #[inline(always)]
    fn exit(&mut self, _: Stage) {}
}

/// Times every span of one stage and ignores the rest.
pub struct StageClock {
    stage: Stage,
    started: Option<Instant>,
    /// One duration per closed span of the stage.
    pub samples: Samples,
}

impl StageClock {
    /// A clock for spans of `stage`.
    pub fn new(stage: Stage) -> Self {
        StageClock {
            stage,
            started: None,
            samples: Samples::new(),
        }
    }
}

impl Probe for StageClock {
    #[inline]
    fn enter(&mut self, stage: Stage) {
        if stage == self.stage {
            self.started = Some(Instant::now());
        }
    }

    #[inline]
    fn exit(&mut self, stage: Stage) {
        if stage == self.stage {
            if let Some(t) = self.started.take() {
                self.samples.push(t.elapsed());
            }
        }
    }
}

/// One recorded span. `parent` indexes the span's pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub stage: Stage,
    pub pass: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What a span costs the traced run, measured on this machine so self
/// times can leave it out.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Calibration {
    /// Median duration an empty span records: the share of its own
    /// bookkeeping that falls between its two timestamps.
    pub inside_ns: f64,
    /// Wall time one empty span costs in all; the rest of it lands in the
    /// parent's self time.
    pub per_span_ns: f64,
}

impl Calibration {
    /// Times empty spans through a [`Tracer`].
    pub fn measure() -> Calibration {
        const SPANS: usize = 200_000;
        let mut t = Tracer::new();
        t.spans.reserve(SPANS);
        let t0 = Instant::now();
        for _ in 0..SPANS {
            t.enter(Stage::Pass);
            t.exit(Stage::Pass);
        }
        let per_span_ns = t0.elapsed().as_nanos() as f64 / SPANS as f64;
        let inside: Vec<f64> = t.spans.iter().map(|s| s.duration_ns() as f64).collect();
        Calibration {
            inside_ns: median(&inside),
            per_span_ns,
        }
    }
}

/// Per-stage self time and span count of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageTotals {
    pub self_ns: [f64; STAGES],
    pub count: [u64; STAGES],
    pub spans: usize,
}

impl StageTotals {
    /// Reduces one pass's spans: a span's self time is its duration less
    /// its children's, less the calibrated bookkeeping of the span itself
    /// and of each child's timestamps that falls outside the child.
    pub fn of(spans: &[Span], cal: Calibration) -> StageTotals {
        let mut child_ns = vec![0u64; spans.len()];
        let mut children = vec![0u32; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
                children[p as usize] += 1;
            }
        }
        let outside = cal.per_span_ns - cal.inside_ns;
        let mut t = StageTotals {
            spans: spans.len(),
            ..StageTotals::default()
        };
        for (i, s) in spans.iter().enumerate() {
            let own = s.duration_ns() as f64
                - child_ns[i] as f64
                - cal.inside_ns
                - f64::from(children[i]) * outside;
            t.self_ns[s.stage as usize] += own;
            t.count[s.stage as usize] += 1;
        }
        t
    }

    /// Self time of every span of the pass together.
    pub fn total_ns(&self) -> f64 {
        self.self_ns.iter().sum()
    }

    /// Self time per span of `stage` (0 when there is none).
    pub fn per_span_ns(&self, stage: Stage) -> f64 {
        match self.count[stage as usize] {
            0 => 0.0,
            n => self.self_ns[stage as usize] / n as f64,
        }
    }
}

/// Spans kept in memory for writing out; later passes are reduced and
/// dropped once this many are held.
const KEEP_SPANS: usize = 250_000;

/// Records every span of a replay and reduces each pass on request.
pub struct Tracer {
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    kept: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
            kept: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Closes the current pass: reduces its spans to per-stage totals and
    /// keeps them for [`Tracer::write_jsonl`] while the budget lasts.
    /// Spans a failed replay left open keep a zero duration.
    pub fn finish_pass(&mut self, cal: Calibration) -> StageTotals {
        self.open.clear();
        let totals = StageTotals::of(&self.spans, cal);
        if self.kept.len() + self.spans.len() <= KEEP_SPANS {
            self.kept.extend_from_slice(&self.spans);
        }
        self.spans.clear();
        self.pass += 1;
        totals
    }

    /// Writes the kept spans as JSON lines after a `header` line. `id`
    /// and `parent` index a span's pass.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let mut first = 0;
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 && self.kept[i - 1].pass != s.pass {
                first = i;
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"pass\":{},\"id\":{},\"parent\":{parent},\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.pass,
                i - first,
                s.stage.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Probe for Tracer {
    #[inline]
    fn enter(&mut self, stage: Stage) {
        let parent = self.open.last().copied();
        let id = u32::try_from(self.spans.len()).expect("spans of one pass fit in u32");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stage,
            pass: self.pass,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    #[inline]
    fn exit(&mut self, stage: Stage) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("a span closes only after it opens") as usize;
        debug_assert_eq!(self.spans[id].stage, stage, "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(stage: Stage, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            stage,
            pass: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    /// `pass [0, 100]` holds `pack [10, 40]` (which holds `caps [15, 25]`)
    /// and `sum.dt [50, 90]`.
    fn nested() -> Vec<Span> {
        vec![
            at(Stage::Pass, None, 0, 100),
            at(Stage::Pack, Some(0), 10, 40),
            at(Stage::Caps, Some(1), 15, 25),
            at(Stage::SumDt, Some(0), 50, 90),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let t = StageTotals::of(&nested(), Calibration::default());
        assert_eq!(t.self_ns[Stage::Pass as usize], 30.0);
        assert_eq!(t.self_ns[Stage::Pack as usize], 20.0);
        assert_eq!(t.self_ns[Stage::Caps as usize], 10.0);
        assert_eq!(t.self_ns[Stage::SumDt as usize], 40.0);
        assert_eq!(t.total_ns(), 100.0, "self times tile the root span");
        assert_eq!(t.spans, 4);
        assert_eq!(t.count[Stage::Pack as usize], 1);
    }

    #[test]
    fn calibration_removes_span_bookkeeping() {
        let cal = Calibration {
            inside_ns: 2.0,
            per_span_ns: 5.0,
        };
        let t = StageTotals::of(&nested(), cal);
        // Each span loses its inside share; each parent also loses the
        // outside share of every direct child.
        assert_eq!(
            t.self_ns[Stage::Pass as usize],
            100.0 - 70.0 - 2.0 - 2.0 * 3.0
        );
        assert_eq!(t.self_ns[Stage::Pack as usize], 30.0 - 10.0 - 2.0 - 3.0);
        assert_eq!(t.self_ns[Stage::Caps as usize], 10.0 - 2.0);
        assert_eq!(t.self_ns[Stage::SumDt as usize], 40.0 - 2.0);
        // In all: the root's duration less every other span's full cost
        // and the root's own inside share.
        assert_eq!(t.total_ns(), 100.0 - 3.0 * 5.0 - 2.0);
        assert_eq!(t.per_span_ns(Stage::Caps), 8.0);
        assert_eq!(t.per_span_ns(Stage::Solve), 0.0);
    }

    #[test]
    fn tracer_records_parents_and_passes() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            t.enter(Stage::Pass);
            span(&mut t, Stage::Pack, || {
                span(&mut Untraced, Stage::Caps, || ())
            });
            span(&mut t, Stage::Caps, || ());
            t.exit(Stage::Pass);
            let totals = t.finish_pass(Calibration::default());
            assert_eq!(totals.spans, 3);
            assert_eq!(totals.count[Stage::Caps as usize], 1);
        }
        let parents: Vec<Option<u32>> = t.kept.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None, Some(0), Some(0)]);
        let passes: Vec<u32> = t.kept.iter().map(|s| s.pass).collect();
        assert_eq!(passes, [0, 0, 0, 1, 1, 1]);
        assert!(t.kept.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn stage_clock_times_only_its_stage() {
        let mut c = StageClock::new(Stage::Block);
        span(&mut c, Stage::Pass, || ());
        for _ in 0..3 {
            c.enter(Stage::Block);
            span(&mut c, Stage::Pack, || ());
            c.exit(Stage::Block);
        }
        assert_eq!(c.samples.len(), 3);
    }

    #[test]
    fn stage_table_is_consistent() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGES);
        for p in Protocol::ALL {
            let short = p.name().to_lowercase();
            assert!(Stage::sum(p).name().ends_with(&short));
            assert!(Stage::max_min(p).name().ends_with(&short));
        }
    }
}
