//! `sim_1000`: the parallel discrete-event engine carrying 1,000 nodes
//! with a light payment stream. No sockets, no disk: per-delivery work
//! (ingest, verify-cache lookups, relay dedup, tally) dominates.

use crate::micro;
use crate::procfs;
use crate::progress;
use crate::report::{attribution_table, Report};
use crate::stats::median;
use algorand_sim::{DesConfig, ParallelSim, SimConfig};
use std::time::Instant;

/// Population, as in the paper's 1,000-VM testbed.
const NODES: usize = 1_000;
/// Light payment stream, transactions per virtual second.
const TX_RATE: f64 = 5.0;
/// Virtual-time slice between round-boundary checks, µs.
const SLICE_US: u64 = 50_000;
/// Virtual time without a new round after which the run has stalled.
const STALL_US: u64 = 60_000_000;
/// Constructions per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Population of the same-seed determinism replica.
const REPLICA_NODES: usize = 60;
/// Rounds of the single-user baseline; it reports their median.
const BASELINE_ROUNDS: u64 = 10;

fn config(n: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(n);
    cfg.seed = seed;
    cfg.tx_rate = TX_RATE;
    cfg.tx_total = 1_000_000;
    cfg
}

fn min_tip(sim: &ParallelSim, n: usize) -> u64 {
    (0..n).map(|i| sim.tip_round(i)).min().unwrap_or(0)
}

/// What [`run_rounds`] measured.
struct Rounds {
    /// Wall seconds of each round, in order.
    wall: Vec<f64>,
    /// Virtual time reached, µs.
    virtual_us: u64,
}

impl Rounds {
    fn count(&self) -> u64 {
        self.wall.len() as u64
    }

    fn total_wall(&self) -> f64 {
        self.wall.iter().sum()
    }
}

/// Runs whole rounds until at least `min_rounds` are done and `secs` of
/// wall time has passed.
fn run_rounds(
    sim: &mut ParallelSim,
    n: usize,
    min_rounds: u64,
    secs: f64,
) -> Result<Rounds, String> {
    let t0 = Instant::now();
    let mut out = Rounds {
        wall: Vec::new(),
        virtual_us: 0,
    };
    let (mut last_wall, mut last_vt) = (0.0, 0);
    loop {
        out.virtual_us += SLICE_US;
        sim.run_until(out.virtual_us);
        let tip = min_tip(sim, n);
        if tip > out.count() {
            // Rounds finished inside one slice share its wall time.
            let now = t0.elapsed().as_secs_f64();
            let new = tip - out.count();
            for _ in 0..new {
                out.wall.push((now - last_wall) / new as f64);
            }
            (last_wall, last_vt) = (now, out.virtual_us);
            if tip >= min_rounds && now >= secs {
                return Ok(out);
            }
        }
        if out.virtual_us - last_vt >= STALL_US {
            return Err(format!("simulation stalled at round {tip}"));
        }
    }
}

/// The same seed must give the same chain digest: a small replica of
/// the workload run at one worker and at `workers`.
fn determinism(seed: u64, workers: usize) -> bool {
    let digest = |w: usize| {
        let mut sim = ParallelSim::new(DesConfig {
            sim: config(REPLICA_NODES, seed),
            workers: w,
            trace_node_budget: 0,
        });
        sim.run_rounds(2, STALL_US);
        (min_tip(&sim, REPLICA_NODES) >= 2).then(|| sim.chain_digest())
    };
    let a = digest(1);
    a.is_some() && a == digest(workers)
}

/// `sim_1000`.
pub fn run(seed: u64, secs: f64, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.fact("nodes", NODES);
    report.fact("workers", workers);
    let mut times = Vec::new();
    let mut sim = None;
    for _ in 0..SETUPS {
        drop(sim.take());
        let t = Instant::now();
        sim = Some(ParallelSim::new(DesConfig {
            sim: config(NODES, seed),
            workers,
            trace_node_budget: 0,
        }));
        times.push(t.elapsed().as_secs_f64());
    }
    let mut sim = sim.expect("constructed");
    progress("constructed");

    let cpu0 = procfs::self_cpu_s();
    let measured = run_rounds(&mut sim, NODES, 1, secs)?;
    let cpu = procfs::self_cpu_s() - cpu0;
    progress("rounds done");
    let (rounds, wall) = (measured.count(), measured.total_wall());
    let virtual_s = measured.virtual_us as f64 / 1e6;
    report.attempted = NODES as u64 * rounds;
    report.fact("rounds", rounds);
    report.fact("virtual_s", virtual_s);
    report.fact("wall_s", format!("{wall:.3}"));
    report.fact(
        "sim_wall_s_per_virtual_s",
        format!("{:.4}", wall / virtual_s),
    );

    let stats = sim.tx_stats().ok_or("no workload ran")?;
    report.check(stats.duplicate_commits == 0, || {
        format!("{} duplicate commits", stats.duplicate_commits)
    });
    report.check(determinism(seed, workers), || {
        "same seed gave different chain digests".into()
    });
    report.fact(
        "chain_digest",
        algorand_node::runtime::hex(&sim.chain_digest()),
    );
    // The measured round's block was assembled before the first
    // payment arrived: these transactions are gossiped and pooled by
    // every node, but none is in a block yet.
    report.fact("tx_injected", sim.injected_txs().len());
    report.fact("tx_committed", stats.committed);
    let c = |name: &str| sim.registry().counter(name).get() as f64;
    let dups = c("gossip.duplicates");
    let deliveries = c("gossip.relayed") + dups + c("gossip.equivocations");
    report.fact("deliveries", deliveries);
    if !report.problems.is_empty() {
        return Ok(report);
    }
    report.e2e("setup_s", median(&times), "s");
    report.e2e("peak_rss_mb", procfs::self_peak_rss_mb(), "MB");
    report.e2e("round_wall_s", median(&measured.wall), "s");
    report.e2e("cpu_s_per_round", cpu / rounds as f64, "s");

    if traced {
        let p = sim.pipeline_report();
        let r = rounds as f64;
        report.layer("net.messages_per_round", deliveries / r, "count");
        report.layer(
            "net.bytes_per_round",
            sim.network().total_bytes_sent() as f64 / r,
            "B",
        );
        report.layer(
            "core.pipeline.ingested_per_round",
            p.stages.ingested as f64 / NODES as f64 / r,
            "count",
        );
        report.layer(
            "core.verify.cache_misses_per_round",
            p.cache_misses as f64 / r,
            "count",
        );
        let lookups = (p.cache_hits + p.cache_misses) as f64;
        report.layer("core.verify.lookups_per_round", lookups / r, "count");
        report.extra("sim.des.deliveries_per_wall_s", deliveries / wall, "1/s");
        report.extra(
            "core.verify.hit_ratio",
            p.cache_hits as f64 / lookups.max(1.0),
            "ratio",
        );
        report.extra(
            "gossip.relay.duplicate_ratio",
            dups / deliveries.max(1.0),
            "ratio",
        );
        let (admitted, rejected) = (c("txpool.admitted"), c("txpool.rejected"));
        report.extra(
            "txpool.admitted_ratio",
            admitted / (admitted + rejected).max(1.0),
            "ratio",
        );
        let params = sim.config().sim.params;
        let stake = sim.config().sim.stake_per_user;
        let costs = micro::sim_layers(&mut report, NODES, stake, &params, 8);
        let rows = [
            (
                "vote verify (cache miss)",
                p.cache_misses as f64 * costs.verify_vote,
            ),
            ("verify-cache hit", p.cache_hits as f64 * costs.cache_hit),
            ("relay dedup", deliveries * costs.relay_classify),
        ];
        let (table, unattributed) = attribution_table(
            "sim_1000 CPU attribution (count × per-call cost, CPU seconds)",
            cpu,
            &rows,
        );
        report.tables.push(table);
        report.layer("attribution.unattributed_frac", unattributed, "ratio");
        drop(sim);
        report.layer(
            "baseline.single_node_round_s",
            single_user_round_s(seed)?,
            "s",
        );
    }
    Ok(report)
}

/// `n_users = 1` reference: median wall seconds per round of the same
/// simulation with a single user.
fn single_user_round_s(seed: u64) -> Result<f64, String> {
    progress("single-user baseline");
    let mut sim = ParallelSim::new(DesConfig {
        sim: config(1, seed),
        workers: 1,
        trace_node_budget: 0,
    });
    let rounds = run_rounds(&mut sim, 1, BASELINE_ROUNDS, 0.0)?;
    Ok(median(&rounds.wall))
}
