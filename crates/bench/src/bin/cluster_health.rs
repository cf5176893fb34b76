//! Operator tool: scrape a running localnet and print its health.
//!
//! ```text
//! cluster_health <addr>... [--out FILE] [--interval-ms N]
//! cluster_health --dir DEPLOY_ROOT [--out FILE] [--interval-ms N]
//! ```
//!
//! Addresses are `host:port` peer endpoints (the same port consensus
//! uses — telemetry is a frame kind, not a second listener). With
//! `--dir`, the tool discovers the deployment instead: every `*/addr`
//! file under the given root (the per-node WAL dirs a harness lays out)
//! names one process.
//!
//! Each node is scraped twice, `--interval-ms` apart (default 750), so
//! the report includes per-node round rates; the merged report shows
//! per-node tip/digest/monitor verdict/core counters and the
//! cluster-wide roll-up (tip spread, digest agreement, total
//! violations). Exit code: 0 when every node was reachable and clean,
//! 1 otherwise — usable as a health check in scripts.

use algorand_node::telemetry::ClusterHealth;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut addrs: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut interval_ms: u64 = 750;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next(),
            "--interval-ms" => {
                interval_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--interval-ms needs a number"));
            }
            "--dir" => {
                let root = args.next().unwrap_or_else(|| usage("--dir needs a path"));
                addrs.extend(discover(Path::new(&root)));
            }
            a if a.starts_with("--") => usage(&format!("unknown flag {a}")),
            a => addrs.push(a.to_string()),
        }
    }
    if addrs.is_empty() {
        usage("no addresses (pass host:port endpoints or --dir DEPLOY_ROOT)");
    }
    addrs.sort();
    addrs.dedup();

    let health = ClusterHealth::collect_with_rates(&addrs, Duration::from_secs(10), |_| {
        std::thread::sleep(Duration::from_millis(interval_ms))
    });
    let report = health.render();
    print!("{report}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("cluster_health: write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    let healthy =
        health.unreachable.is_empty() && health.total_violations() == 0 && health.digests_agree();
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Reads every `*/addr` file one level under `root` — the layout the
/// localnet harness creates (`n0/addr`, `n1/addr`, …).
fn discover(root: &Path) -> Vec<String> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        usage(&format!(
            "--dir {}: not a readable directory",
            root.display()
        ));
    };
    for entry in entries.flatten() {
        let addr_file = entry.path().join("addr");
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            let addr = addr.trim();
            if !addr.is_empty() {
                found.push(addr.to_string());
            }
        }
    }
    found
}

fn usage(err: &str) -> ! {
    eprintln!("cluster_health: {err}");
    eprintln!("usage: cluster_health <addr>... [--dir DEPLOY_ROOT] [--out FILE] [--interval-ms N]");
    std::process::exit(2)
}
