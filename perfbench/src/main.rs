//! The repository benchmark: end-to-end and per-layer metrics for two
//! workloads (`sim_1000`, `node_light`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this
//! binary and the `algorand-node` binary from the checkout first. The
//! last stdout line is the result object; lines before it give the run's
//! facts (host, build, seed, sample sizes) and attribution tables.

mod cluster;
mod loadgen;
mod micro;
mod nodebench;
mod procfs;
mod report;
mod simbench;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

/// Logs a phase boundary to stderr with the time since start, so a slow
/// run shows where its time went.
pub fn progress(what: &str) {
    static START: OnceLock<Instant> = OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("[perfbench {t:7.2}s] {what}");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(
        std::env::var("PERFBENCH_WORK")
            .unwrap_or_else(|_| format!(".bench_build/perfbench-work-{}", std::process::id())),
    );
    let node_bin = PathBuf::from(
        std::env::var("ALGORAND_NODE_BIN")
            .unwrap_or_else(|_| ".bench_build/release/algorand-node".into()),
    );
    progress(&format!("start {}", args.workload));
    let outcome = match args.workload.as_str() {
        "sim_1000" => simbench::run(args.seed, args.seconds, args.trace),
        "node_light" => nodebench::light(args.seed, args.seconds, args.trace, &work, &node_bin),
        other => Err(format!("unknown workload {other:?}")),
    };
    if outcome.as_ref().map_or(true, |r| !r.problems.is_empty()) {
        eprint!("{}", cluster::stderr_tails(&work));
    }
    let _ = std::fs::remove_dir_all(&work);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.fact("workload", &args.workload);
    report.fact("seed", args.seed);
    report.fact("trace", u8::from(args.trace));
    report.fact("nproc", nproc);
    report.fact(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.fact(
        "source",
        std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".into()),
    );
    if report.problems.is_empty() {
        report.check_metric_set(args.trace);
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    for t in &report.tables {
        println!("{t}");
    }
    if !report.extras.is_empty() {
        println!("{}", report.extras_line());
    }
    println!("{}", report.facts_line());
    println!("{}", report.result_line(args.trace));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
