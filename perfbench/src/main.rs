//! `perfbench` — the repository's benchmark. It measures the bcc library
//! from outside, through its public API.
//!
//! ```text
//! perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Four workloads, each chosen to stress different layers:
//!
//! * `paper_sweep` — the paper's Fig. 3 relay-gain sweep (60,001 points,
//!   four protocols): closed-form SoA lane kernels and result assembly.
//! * `fading_outage` — Rayleigh outage on the Fig. 4 network (5 powers ×
//!   20,000 trials): the only workload that runs the fade sampler.
//! * `fair_multipair` — three pairs sharing one relay (4,001 powers, sum
//!   rate and max–min): HBC max–min runs on the warm simplex.
//! * `serve_mixed` — `bcc-serve` at the Fig. 4 point: cache reads and
//!   writes, closed loop and batched.
//!
//! A run sets up several times, checks the outputs (stored fingerprints
//! at the default seed, serial against parallel bit for bit, the Fig. 4
//! anchors, and on `serve_mixed` the closed loop against both drains),
//! then measures for `--seconds`. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it replays each pass through the
//! public layer calls with a span around each, reports per-layer metrics
//! and writes the spans to `perfbench/out/`. Every timing line gives the
//! median, quartiles, the deepest percentile with ten samples beyond it,
//! and the sample count. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! Worker threads never exceed the machine's available parallelism.

mod batch;
mod probe;
mod report;
mod serve;
mod stats;
mod sweeps;
mod trace;

use bcc_bench::fig4_network;
use bcc_core::{Protocol, Scenario};
use report::Report;
use std::path::Path;

#[global_allocator]
static ALLOCATOR: probe::CountingAlloc = probe::CountingAlloc;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "paper_sweep",
    "fading_outage",
    "fair_multipair",
    "serve_mixed",
];

/// Fig. 4 sum rates at 10 dB (DT, MABC, TDBC, HBC) to four decimals.
const FIG4_ANCHORS: [f64; 4] = [1.5827, 3.3053, 3.0570, 3.3313];

const USAGE: &str =
    "usage: perfbench [--workload paper_sweep|fading_outage|fair_multipair|serve_mixed|all] \
     [--seed N] [--seconds S] [--trace 0|1]";

/// One run's settings.
pub struct RunConfig {
    /// Seed of the fading trials and the serve streams; grids are fixed.
    pub seed: u64,
    /// How long each workload measures.
    pub seconds: u64,
    /// Worker threads of the parallel passes: the available parallelism.
    pub threads: usize,
    /// Replay through spans and report per-layer metrics.
    pub trace: bool,
    /// The machine, stamped on every output.
    pub runner: probe::Runner,
}

fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(Vec<&'static str>, RunConfig), String> {
    let runner = probe::Runner::detect();
    let mut cfg = RunConfig {
        seed: 0,
        seconds: 10,
        threads: runner.nproc,
        trace: false,
        runner,
    };
    let mut workloads = WORKLOADS.to_vec();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|&&w| w == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                workloads = vec![*w];
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if cfg.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((workloads, cfg))
}

/// Checks the Fig. 4 sum rates at 10 dB against the paper's values.
fn check_anchors(rep: &mut Report) {
    let cmp = Scenario::at(fig4_network(10.0))
        .threads(1)
        .build()
        .compare();
    for (p, anchor) in Protocol::ALL.into_iter().zip(FIG4_ANCHORS) {
        let got = cmp.as_ref().ok().and_then(|c| c.get(p)).map(|s| s.sum_rate);
        rep.check(
            &format!("Fig. 4 anchor {}", p.name()),
            got.is_some_and(|v| (v - anchor).abs() <= 5e-5),
            format!("{got:?} vs {anchor}"),
        );
    }
}

/// Escapes `s` for a JSON string.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Writes a traced run's spans to `perfbench/out/`, stamped with the
/// runner class, worker count and seed.
pub fn write_spans(tracer: &trace::Tracer, cfg: &RunConfig, workload: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}-seed{}.spans.jsonl", cfg.seed));
    let header = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"nproc\":{},\"cpu\":\"{}\",\"workers\":{}}}",
        cfg.seed,
        cfg.runner.nproc,
        json_escape(&cfg.runner.cpu_model),
        cfg.threads
    );
    match tracer.write_jsonl(&path, &header) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
}

fn main() {
    let (workloads, cfg) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "# runner nproc {} cpu \"{}\" workers {}",
        cfg.runner.nproc, cfg.runner.cpu_model, cfg.threads
    );
    let mut reports = Vec::new();
    for name in workloads {
        let isolated = probe::reset_peak_rss();
        println!(
            "# workload {name} seed {} seconds {} trace {} peak-rss-reset {isolated}",
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace)
        );
        let mut rep = Report::new(name);
        check_anchors(&mut rep);
        match name {
            "paper_sweep" => batch::run::<sweeps::PaperSweep>(&cfg, &mut rep),
            "fading_outage" => batch::run::<sweeps::FadingOutage>(&cfg, &mut rep),
            "fair_multipair" => batch::run::<sweeps::FairMultipair>(&cfg, &mut rep),
            _ => serve::run(&cfg, &mut rep),
        }
        println!(
            "# {name}: attempted {} failed {} failed_frac {}",
            rep.attempted,
            rep.failed,
            rep.failed as f64 / rep.attempted.max(1) as f64
        );
        reports.push(rep);
    }
    println!("{}", report::json_line(&reports, cfg.trace));
    if !reports.iter().all(|r| r.correct) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Vec<&'static str>, RunConfig), String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let (w, cfg) = parse(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(w, ["serve_mixed"]);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 3, true));
        assert_eq!(parse(&[]).expect("defaults").0, WORKLOADS);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--help", "x"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn json_escape_quotes_and_backslashes() {
        assert_eq!(json_escape("a\"b\\c\td"), "a\\\"b\\\\c d");
    }
}
