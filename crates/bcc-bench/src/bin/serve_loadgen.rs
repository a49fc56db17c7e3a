//! serve-loadgen — closed-loop load generator for the `bcc-serve` query
//! engine.
//!
//! Drives a deterministic query stream (see `bcc_serve::loadgen`)
//! through one serving engine in closed loop — each query is submitted
//! as soon as the previous answer returns, so the measured latencies are
//! service times, not queueing artefacts — and reports throughput
//! (queries/sec), the latency distribution (p50/p99/p999 in µs) and the
//! serve-stats delta (hit rate, kernel vs simplex solves, evictions,
//! degraded/shed/validated-reject counters). A second pass drains the
//! same stream through the batched `Server` at the configured batch
//! size for the throughput-oriented number.
//!
//! With `--faults`, the run arms the canonical chaos
//! [`FaultPlan`](bcc_num::faults::FaultPlan)
//! (`bcc_bench::servestudy::chaos_plan`) and salts the stream with
//! malformed queries: every injected failure must be contained to its
//! query (the run aborts on any uncontained panic), some answers must
//! degrade to the conservative fallback, and the whole stream is
//! bit-reproducible across thread counts. Without it, the run asserts
//! the converse: zero degraded answers on a healthy stream.
//!
//! Usage:
//!
//! ```text
//! serve-loadgen [--queries N] [--stream repeated|hotset|fresh]
//!               [--pool N] [--batch N] [--step-db X] [--capacity N]
//!               [--seed N] [--faults] [--out PATH]
//! ```
//!
//! Defaults follow `bcc_bench::servestudy` (hot-set stream, Fig. 4
//! operating point). Writes `results/SERVE_loadgen.json` (schema 2).
//! `-h`/`--help` prints the usage and exits 0; an unknown flag, a
//! missing or unparsable value, an unknown stream kind, a zero count or
//! a quantization step below `QuantSpec::MIN_STEP_DB` prints it to
//! stderr and exits 2.

use bcc_bench::{results_dir, servestudy};
use bcc_num::stats::Ecdf;
use bcc_serve::{LoadSpec, QuantSpec, Server, StreamKind};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

const USAGE: &str = "usage: serve-loadgen [--queries N] [--stream repeated|hotset|fresh] \
                     [--pool N] [--batch N] [--step-db X] [--capacity N] [--seed N] \
                     [--faults] [--out PATH]";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Cli {
    /// Print the usage and exit.
    Help,
    /// Run the load study.
    Run(Args),
}

#[derive(Debug, PartialEq)]
struct Args {
    queries: u64,
    /// The `--stream` name, as printed and reported.
    stream: String,
    /// The stream shape `stream` names (the hot set sized by `--pool`).
    kind: StreamKind,
    batch: usize,
    step_db: f64,
    capacity: usize,
    seed: u64,
    faults: bool,
    out: Option<PathBuf>,
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} got {value:?}, which does not parse"))
}

/// The count after `flag`; the run needs at least one.
fn count<T: FromStr + PartialOrd + From<u8>>(flag: &str, arg: Option<String>) -> Result<T, String> {
    let n = value(flag, arg)?;
    if n < T::from(1) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Parses the arguments after the program name; `Err` carries the
/// message to print above the usage.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut args = Args {
        queries: servestudy::MIXED_QUERIES,
        stream: "hotset".to_string(),
        kind: StreamKind::HotSet {
            pool: servestudy::HOTSET_POOL,
        },
        batch: servestudy::BATCH,
        step_db: servestudy::STEP_DB,
        capacity: servestudy::CACHE_CAPACITY,
        seed: servestudy::SEED,
        faults: false,
        out: None,
    };
    let mut pool = servestudy::HOTSET_POOL;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Cli::Help),
            "--queries" => args.queries = count(&arg, it.next())?,
            "--stream" => args.stream = value(&arg, it.next())?,
            "--pool" => pool = count(&arg, it.next())?,
            "--batch" => args.batch = count(&arg, it.next())?,
            "--step-db" => {
                args.step_db = value(&arg, it.next())?;
                let min = QuantSpec::MIN_STEP_DB;
                if !(args.step_db.is_finite() && args.step_db >= min) {
                    return Err(format!("--step-db must be finite and at least {min} dB"));
                }
            }
            "--capacity" => args.capacity = value(&arg, it.next())?,
            "--seed" => args.seed = value(&arg, it.next())?,
            "--faults" => args.faults = true,
            "--out" => args.out = Some(value(&arg, it.next())?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.kind = match args.stream.as_str() {
        "repeated" => StreamKind::Repeated,
        "hotset" => StreamKind::HotSet { pool },
        "fresh" => StreamKind::Fresh,
        other => return Err(format!("unknown stream kind {other:?}")),
    };
    Ok(Cli::Run(args))
}

fn spec_for(args: &Args) -> LoadSpec {
    let mut spec = servestudy::mixed_stream();
    spec.kind = args.kind;
    spec.seed = args.seed;
    if args.kind == StreamKind::Repeated {
        // The all-hit regime measures pure cache latency; a periodic
        // floor would split it across two keys.
        spec.floor_every = None;
    }
    if args.faults {
        // The injected stream carries malformed queries too, so the
        // validation path is exercised amid the fault sites.
        spec.invalid_every = Some(servestudy::INVALID_EVERY);
    }
    spec
}

fn main() {
    servestudy::install_panic_audit();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Cli::Run(args)) => args,
        Ok(Cli::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("serve-loadgen: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = spec_for(&args);
    let mut config = servestudy::config()
        .quant(QuantSpec::db_grid(args.step_db))
        .cache_capacity(args.capacity)
        .queue_capacity(args.batch);
    if args.faults {
        config = config.faults(servestudy::chaos_plan());
    }

    println!(
        "serve-loadgen: {} queries, stream {}, cache {} entries, {} dB grid, faults {}",
        args.queries,
        args.stream,
        args.capacity,
        args.step_db,
        if args.faults { "armed" } else { "off" },
    );

    // Closed loop: one query in flight at a time, per-query latency.
    let mut server = Server::new(&config);
    let queries = spec.queries(args.queries);
    let mut latencies_us = Vec::with_capacity(queries.len());
    let (wall, delta) = {
        let t0 = Instant::now();
        let ((), delta) = bcc_serve::stats::scoped(|| {
            for q in &queries {
                let t = Instant::now();
                let _ = server.serve(q);
                latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        });
        (t0.elapsed().as_secs_f64(), delta)
    };
    let qps = args.queries as f64 / wall;
    let ecdf = Ecdf::new(latencies_us);
    let (p50, p99, p999) = (
        ecdf.quantile(0.50),
        ecdf.quantile(0.99),
        ecdf.quantile(0.999),
    );
    println!(
        "closed loop : {qps:>10.0} q/s  p50 {p50:>7.2} µs  p99 {p99:>7.2} µs  \
         p999 {p999:>7.2} µs"
    );
    println!(
        "serve stats : hit rate {:.3} ({} hits / {} queries), kernel {}, simplex {}, \
         evictions {}, infeasible answers included",
        delta.hit_rate(),
        delta.cache_hits,
        delta.queries,
        delta.kernel_solves,
        delta.simplex_solves,
        delta.evictions,
    );
    let corruptions = server.engine_mut().cache().corruptions_detected();
    println!(
        "degradation : degraded {}, shed {}, validated rejects {}, corruptions detected {}",
        delta.degraded, delta.shed, delta.validated_rejects, corruptions,
    );

    // Batched drain of the same stream on a fresh server: throughput of
    // the admission path at the configured batch size.
    let mut batched = Server::new(&config);
    let t0 = Instant::now();
    for chunk in queries.chunks(args.batch) {
        for &q in chunk {
            batched.submit(q).expect("queue sized to the batch");
        }
        let answers = batched.drain();
        assert_eq!(answers.len(), chunk.len());
    }
    let batch_wall = t0.elapsed().as_secs_f64();
    let batch_qps = args.queries as f64 / batch_wall;
    println!(
        "batched drain: {batch_qps:>9.0} q/s at batch {}",
        args.batch
    );

    // The degradation contract, both directions: a healthy run never
    // degrades; an injected run degrades somewhere, rejects the
    // malformed queries, and contains every panic.
    let panics = servestudy::genuine_panics();
    assert_eq!(panics, 0, "a genuine panic escaped the run");
    if args.faults {
        assert!(
            delta.degraded > 0,
            "the chaos plan should degrade some answers"
        );
        assert!(
            delta.validated_rejects > 0,
            "the chaos stream should carry malformed queries"
        );
        println!("fault audit : zero uncontained panics, degradation contract held");
    } else {
        assert_eq!(delta.degraded, 0, "a healthy stream must never degrade");
        assert_eq!(
            delta.validated_rejects, 0,
            "healthy streams are well-formed"
        );
    }

    let out = args
        .out
        .unwrap_or_else(|| results_dir().join("SERVE_loadgen.json"));
    let json = format!(
        "{{\n  \"schema\": 2,\n  \"stream\": \"{}\",\n  \"faults\": {},\n  \
         \"queries\": {},\n  \
         \"qps\": {:.1},\n  \"batch_qps\": {:.1},\n  \"p50_us\": {:.3},\n  \
         \"p99_us\": {:.3},\n  \"p999_us\": {:.3},\n  \"hit_rate\": {:.4},\n  \
         \"cache_hits\": {},\n  \"kernel_solves\": {},\n  \"simplex_solves\": {},\n  \
         \"evictions\": {},\n  \"degraded\": {},\n  \"shed\": {},\n  \
         \"validated_rejects\": {},\n  \"corruptions_detected\": {},\n  \"panics\": {}\n}}\n",
        args.stream,
        args.faults,
        args.queries,
        qps,
        batch_qps,
        p50,
        p99,
        p999,
        delta.hit_rate(),
        delta.cache_hits,
        delta.kernel_solves,
        delta.simplex_solves,
        delta.evictions,
        delta.degraded,
        delta.shed,
        delta.validated_rejects,
        corruptions,
        panics,
    );
    std::fs::write(&out, json).expect("write SERVE_loadgen.json");
    println!("report written to {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Cli};
    use bcc_bench::servestudy;
    use bcc_serve::StreamKind;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|a| (*a).to_string()))
    }

    fn run(args: &[&str]) -> super::Args {
        match parse(args) {
            Ok(Cli::Run(args)) => args,
            other => panic!("{args:?} should run, got {other:?}"),
        }
    }

    #[test]
    fn help_flags_win_wherever_they_appear() {
        assert_eq!(parse(&["--help"]), Ok(Cli::Help));
        assert_eq!(parse(&["-h"]), Ok(Cli::Help));
        assert_eq!(parse(&["--queries", "10", "--help"]), Ok(Cli::Help));
    }

    #[test]
    fn defaults_follow_the_study_and_values_parse() {
        let args = run(&[]);
        assert_eq!(args.queries, servestudy::MIXED_QUERIES);
        assert_eq!(
            args.kind,
            StreamKind::HotSet {
                pool: servestudy::HOTSET_POOL
            }
        );
        assert!(!args.faults);
        // The pool sizes the hot set wherever it appears.
        let args = run(&[
            "--pool", "8", "--stream", "hotset", "--batch", "3", "--faults",
        ]);
        assert_eq!(args.kind, StreamKind::HotSet { pool: 8 });
        assert_eq!((args.batch, args.faults), (3, true));
        let args = run(&["--stream", "fresh", "--step-db", "0.5", "--seed", "7"]);
        assert_eq!(args.kind, StreamKind::Fresh);
        assert_eq!(
            (args.stream.as_str(), args.step_db, args.seed),
            ("fresh", 0.5, 7)
        );
    }

    #[test]
    fn bad_arguments_are_errors() {
        for (args, msg) in [
            (&["--verbose"][..], "unknown argument \"--verbose\""),
            (&["--queries"], "--queries needs a value"),
            (
                &["--queries", "abc"],
                "--queries got \"abc\", which does not parse",
            ),
            (&["--batch", "0"], "--batch must be at least 1"),
            (&["--queries", "0"], "--queries must be at least 1"),
            (&["--stream", "bogus"], "unknown stream kind \"bogus\""),
            (
                &["--step-db", "0"],
                "--step-db must be finite and at least 0.000000000001 dB",
            ),
        ] {
            assert_eq!(parse(args), Err(msg.to_string()), "{args:?}");
        }
    }
}
