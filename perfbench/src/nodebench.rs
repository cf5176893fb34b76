//! The real-node workload `node_light`: open-loop payments at a fixed
//! light rate, then a kill -9 / restart rejoin leg.

use crate::cluster::{exit_metrics, get, restore, scrape, wait_for, Cluster, Spec};
use crate::loadgen::{self, LoadGen, PollLog, Poller};
use crate::micro;
use crate::procfs::{cpu_at, CpuSampler};
use crate::progress;
use crate::report::{attribution_table, Report};
use crate::stats::{median, quantile, tail_percentile};
use algorand_core::Node;
use algorand_node::config::derive_keypairs;
use algorand_node::telemetry::drain_cluster;
use algorand_obs::merge::{merge, NodeTrace};
use algorand_obs::{CausalGraph, EdgeKind, Sample, SpanKind, TraceEvent};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Node processes, one user each.
const NODES: usize = 5;
/// Stake per user: 5 × 100 keeps the committee margin ≥ 7σ.
const STAKE: u64 = 100;
/// λ_priority = λ_stepvar. 100 ms times out under load; on a 2-core
/// host 250 ms still hit a step timeout in 2 of 10 light runs, 350 ms in
/// 1 of 10.
const LAMBDA_MS: u64 = 350;
/// Transactions enter at node 0; node 1 is polled for commit times;
/// node 4 is the rejoin leg's victim; nodes 2 and 3 are untouched.
const ENTRY: usize = 0;
const POLLED: usize = 1;
const VICTIM: usize = 4;
/// Poll interval for commit times.
const POLL_EVERY: Duration = Duration::from_millis(10);
/// `node_light` offered rate (about a third of the knee).
const LIGHT_RATE: f64 = 44.0;
/// `node_light` transactions per run, at least (the window stretches).
const MIN_TXS: usize = 1000;
/// Bring-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Longest wait for the last transactions to commit.
const DRAIN_MAX: Duration = Duration::from_secs(5);
/// Rounds the victim stays down: long enough that it must catch up
/// through blocksync rather than ordinary vote gossip.
const DOWN_ROUNDS: u64 = 3;
/// Longest the victim stays down when the other four do not finalize
/// `DOWN_ROUNDS` sooner: four of five users leave no room for one slow
/// node, and a stalled cluster only recovers once the victim is back.
const DOWN_MAX: Duration = Duration::from_secs(5);
/// Longest catch-up allowed before the run fails.
const CATCHUP_MAX: Duration = Duration::from_secs(8);
/// Kill/restart cycles of the rejoin leg; `catchup_s` is their median.
const REJOINS: usize = 2;
/// Seconds of node lifetime after the load window: drain, then each
/// cycle's downtime and catch-up.
const REJOIN_SLACK_S: u64 = 22;
/// CPU sampling interval over the load window.
const CPU_SAMPLE_EVERY: Duration = Duration::from_millis(20);
/// Seconds of load in each short leg (polled, unpolled, traced).
const LEG_S: f64 = 8.0;
/// Generator lateness (p99) beyond which a run is invalid.
const MAX_LATENESS_S: f64 = 0.05;

/// Bring-ups per run: `setup_s` is reported only untraced.
fn bring_ups(traced: bool) -> usize {
    if traced {
        1
    } else {
        SETUPS
    }
}

/// How long to wait for nodes due to exit `deadline_secs` after
/// `started`: their remaining life plus a grace for the last restart.
fn exit_wait(started: Instant, deadline_secs: u64) -> Duration {
    Duration::from_secs(deadline_secs).saturating_sub(started.elapsed()) + Duration::from_secs(5)
}

fn spec(seed: u64, trace: bool, deadline_secs: u64) -> Spec {
    Spec {
        nodes: NODES,
        stake: STAKE,
        seed,
        lambda_ms: LAMBDA_MS,
        trace,
        deadline_secs,
    }
}

/// Brings the cluster up `bring_ups` times and keeps the last one;
/// returns it with the median bring-up time (spawn, mesh, start barrier
/// and warm-up to the first finalized round).
fn setup(root: &Path, bin: &Path, spec: &Spec, bring_ups: usize) -> Result<(Cluster, f64), String> {
    let mut times = Vec::new();
    for k in 1..bring_ups {
        let t = Instant::now();
        let mut c = Cluster::start(spec, &root.join(format!("warm{k}")), bin, 1)?;
        times.push(t.elapsed().as_secs_f64());
        c.kill_all();
        let _ = std::fs::remove_dir_all(root.join(format!("warm{k}")));
    }
    let t = Instant::now();
    let c = Cluster::start(spec, &root.join("run"), bin, 1)?;
    times.push(t.elapsed().as_secs_f64());
    progress("cluster up");
    Ok((c, median(&times)))
}

/// Every node's exposition, scraped at one instant (window edges).
fn scrape_all(c: &Cluster) -> Result<Vec<Vec<Sample>>, String> {
    c.addrs.iter().map(|a| scrape(a)).collect()
}

/// Cluster-wide delta of unlabeled `name` between two edge scrapes.
fn delta(a: &[Vec<Sample>], b: &[Vec<Sample>], name: &str) -> f64 {
    a.iter()
        .zip(b)
        .map(|(a, b)| get(b, name) - get(a, name))
        .sum()
}

/// Where every sent transaction ended up.
struct Commits {
    /// Commit latency per transaction, seconds; `None` = never committed.
    latency: Vec<Option<f64>>,
    /// Commit time per transaction (seconds from load start).
    /// Transactions that appear in more than one block.
    duplicated: usize,
}

/// Maps each planned transaction to its block in the polled node's
/// finalized chain and that round's first-seen time.
fn commits(plan: &[loadgen::Planned], node: &Node, log: &PollLog, offset_s: f64) -> Commits {
    let chain = node.chain();
    let mut rounds: HashMap<[u8; 32], Vec<u64>> = HashMap::new();
    for r in 1..=chain.tip().round {
        if let Some(b) = chain.block_at(r) {
            for tx in &b.txs {
                rounds.entry(tx.id()).or_default().push(r);
            }
        }
    }
    let mut out = Commits {
        latency: Vec::new(),
        duplicated: rounds.values().filter(|v| v.len() > 1).count(),
    };
    for p in plan {
        let at = rounds
            .get(&p.id)
            .and_then(|rs| log.first_seen.get(&rs[0]))
            .map(|t| t - offset_s);
        out.latency.push(at.map(|t| (t - p.due_s).max(0.0)));
    }
    out
}

/// Tail percentile of a latency sample in which failures count as
/// infinitely late; returns (percentile, value).
fn tail(latency: &[Option<f64>], want: f64) -> Option<(f64, f64)> {
    let mut v: Vec<f64> = latency.iter().map(|l| l.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    let q = tail_percentile(v.len(), want)?;
    Some((q, quantile(&v, q)))
}

/// Median round duration from first-seen times of rounds finalized in
/// `[from, to]` seconds.
fn round_durations(log: &PollLog, from: f64, to: f64) -> Vec<f64> {
    let seen: Vec<(u64, f64)> = log.first_seen.iter().map(|(&r, &t)| (r, t)).collect();
    seen.windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1 && w[0].1 >= from && w[1].1 <= to)
        .map(|w| w[1].1 - w[0].1)
        .collect()
}

/// Node CPU spent in each round, for consecutive rounds first seen while
/// CPU was being sampled: a median over these ignores the odd stalled
/// or bursty round.
fn cpu_per_round(log: &PollLog, samples: &[(f64, f64)]) -> Vec<f64> {
    let seen: Vec<f64> = log.first_seen.values().copied().collect();
    log.first_seen
        .keys()
        .zip(log.first_seen.keys().skip(1))
        .zip(seen.windows(2))
        .filter(|((a, b), _)| **b == **a + 1)
        .filter_map(|(_, w)| Some(cpu_at(samples, w[1])? - cpu_at(samples, w[0])?))
        .collect()
}

/// Checks shared by every cluster run once its processes have exited:
/// exit codes, decode failures, and digest agreement at the common
/// round. Returns the restored polled node and the exit expositions.
fn audit(
    c: &Cluster,
    exits: &[bool],
    report: &mut Report,
    label: &str,
) -> Result<(Node, Vec<Vec<Sample>>), String> {
    for (i, ok) in exits.iter().enumerate() {
        report.check(*ok, || format!("{label}: node {i} did not exit 0"));
    }
    let finals: Vec<Vec<Sample>> = c.cfgs.iter().map(exit_metrics).collect::<Result<_, _>>()?;
    for (i, m) in finals.iter().enumerate() {
        let df = get(m, "node.decode_failures");
        report.check(df == 0.0, || {
            format!("{label}: node {i} had {df} decode failures")
        });
    }
    let mut nodes = Vec::new();
    for cfg in &c.cfgs {
        nodes.push(restore(cfg)?);
    }
    let common = nodes
        .iter()
        .map(|n| n.chain().tip().round)
        .min()
        .unwrap_or(0);
    report.check(common >= 2, || {
        format!("{label}: common round only {common}")
    });
    let digests: Vec<_> = nodes
        .iter()
        .map(|n| n.chain().digest_through(common))
        .collect();
    report.check(
        digests.iter().all(|d| *d == digests[0] && d.is_some()),
        || format!("{label}: node digests disagree at common round {common}"),
    );
    Ok((nodes.swap_remove(POLLED), finals))
}

/// Per-layer counts from window-edge scrapes.
fn layer_counts(report: &mut Report, a: &[Vec<Sample>], b: &[Vec<Sample>], rounds: f64) {
    let n = a.len() as f64;
    let per_round = |name: &str| delta(a, b, name) / rounds;
    report.layer(
        "net.messages_per_round",
        per_round("transport.frames_received"),
        "count",
    );
    report.layer(
        "net.bytes_per_round",
        per_round("transport.bytes_sent"),
        "B",
    );
    report.layer(
        "core.pipeline.ingested_per_round",
        per_round("pipeline.ingested") / n,
        "count",
    );
    let hits = delta(a, b, "verify.cache_hits");
    let misses = delta(a, b, "verify.cache_misses");
    report.layer(
        "core.verify.cache_misses_per_round",
        misses / rounds / n,
        "count",
    );
    report.layer(
        "core.verify.lookups_per_round",
        (hits + misses) / rounds / n,
        "count",
    );
    report.extra(
        "core.verify.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    report.extra(
        "node.transport.frames_sent_per_round",
        per_round("transport.frames_sent"),
        "count",
    );
    report.extra(
        "node.transport.send_drops",
        delta(a, b, "transport.send_drops"),
        "count",
    );
    report.extra(
        "ba.timeouts_per_100_rounds",
        100.0 * per_round("recovery.timeout_escalations") / n,
        "count",
    );
}

/// Transactions per finalized block over rounds `(from, to]`.
fn txs_per_block(node: &Node, from: u64, to: u64) -> f64 {
    let chain = node.chain();
    let txs: usize = (from + 1..=to)
        .filter_map(|r| chain.block_at(r))
        .map(|b| b.txs.len())
        .sum();
    txs as f64 / (to - from).max(1) as f64
}

/// Generator lateness check and its per-layer figure.
fn lateness(report: &mut Report, late: &[f64]) {
    let mut v = late.to_vec();
    v.sort_by(f64::total_cmp);
    let p99 = quantile(&v, 0.99);
    report.extra("loadgen.lateness_p99_ms", p99 * 1e3, "ms");
    report.fact("loadgen_lateness_p99_ms", format!("{:.3}", p99 * 1e3));
    report.check(p99 <= MAX_LATENESS_S, || {
        format!("generator fell behind: lateness p99 {:.1} ms", p99 * 1e3)
    });
}

/// `node_light`.
pub fn light(
    seed: u64,
    secs: f64,
    traced: bool,
    root: &Path,
    bin: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let users = derive_keypairs(seed, NODES);
    let plan = loadgen::plan(seed, &users, LIGHT_RATE, secs, MIN_TXS);
    report.fact("offered_tx_per_s", LIGHT_RATE);
    report.fact("transactions", plan.len());
    // Nodes exit on their own deadline, so it must cover the window,
    // the drain and the rejoin leg with little slack.
    let window = plan.last().map_or(secs, |p| p.due_s);
    let deadline = window.ceil() as u64 + REJOIN_SLACK_S;
    let (mut c, setup_s) = setup(root, bin, &spec(seed, false, deadline), bring_ups(traced))?;
    let started = Instant::now();

    let mut lg = LoadGen::connect(&c.addrs[ENTRY])?;
    let t0 = Instant::now();
    let poller = Poller::start(&c.addrs[POLLED], t0, POLL_EVERY)?;
    let edge_a = scrape_all(&c)?;
    let tip_a = get(&edge_a[POLLED], "node.tip_round");
    let threads = c.threads_per_process();
    let lead = 0.05;
    let sampler = CpuSampler::start(c.pids(), t0, CPU_SAMPLE_EVERY);
    let late = lg.run(&plan, t0 + Duration::from_secs_f64(lead))?;
    let sent = plan.len() as u64;
    let _ = wait_for(DRAIN_MAX, || {
        poller.committed.load(Ordering::SeqCst) >= sent
    });
    let edge_b = scrape_all(&c)?;
    let tip_b = get(&edge_b[POLLED], "node.tip_round");
    let window_end = t0.elapsed().as_secs_f64();
    let cpu_samples = sampler.finish();
    progress("load window done");

    // Rejoin leg, REJOINS times: kill -9 the victim, keep it down, restart
    // it from its WAL and time it back to the cluster tip.
    c.sample_rss();
    let mut catchups = Vec::new();
    let mut rounds_down = Vec::new();
    for _ in 0..REJOINS {
        c.kill(VICTIM);
        let down_at = poller.tip.load(Ordering::SeqCst);
        let _ = wait_for(DOWN_MAX, || {
            poller.tip.load(Ordering::SeqCst) >= down_at + DOWN_ROUNDS
        });
        rounds_down.push(poller.tip.load(Ordering::SeqCst) - down_at);
        let t_restart = Instant::now();
        let remaining = deadline.saturating_sub(started.elapsed().as_secs()).max(3);
        c.restart(VICTIM, &root.join("run"), remaining)?;
        let victim = Poller::start(&c.addrs[VICTIM], t_restart, POLL_EVERY)?;
        let caught_up = wait_for(CATCHUP_MAX, || {
            victim.tip.load(Ordering::SeqCst) >= poller.tip.load(Ordering::SeqCst)
        });
        drop(victim);
        catchups.push(t_restart.elapsed().as_secs_f64());
        report.check(caught_up.is_ok(), || "victim did not catch up".into());
        c.sample_rss();
    }
    let catchup_s = median(&catchups);
    progress("rejoin cycles done");
    let log = poller.finish()?;
    report.check(!log.ended_early, || {
        "polled node exited before the rejoin leg ended".into()
    });
    drop(lg);
    let exits = c.wait_exits(exit_wait(started, deadline));
    progress("nodes exited");

    let (polled, finals) = audit(&c, &exits, &mut report, "node_light")?;
    let done = commits(&plan, &polled, &log, lead);
    let failed = done.latency.iter().filter(|l| l.is_none()).count();
    report.attempted = sent;
    report.failed = failed as u64;
    report.check(failed == 0, || {
        format!("{failed} of {sent} transactions never committed")
    });
    report.check(done.duplicated == 0, || {
        format!("{} transactions committed twice", done.duplicated)
    });
    lateness(&mut report, &late);

    let mut lat: Vec<f64> = done.latency.iter().flatten().copied().collect();
    lat.sort_by(f64::total_cmp);
    let rounds_in_window = tip_b - tip_a;
    let durations = round_durations(&log, 0.0, window_end);
    report.check(
        !durations.is_empty() && !lat.is_empty() && !cpu_per_round(&log, &cpu_samples).is_empty(),
        || "no rounds observed".into(),
    );
    if !report.problems.is_empty() {
        return Ok(report);
    }
    let (q, tail_v) = tail(&done.latency, 0.99).ok_or("too few transactions for a tail")?;
    // Reported, not gated: a single BA⋆ step timeout in the window
    // puts it near 6 s (see NOTES.md).
    report.fact(
        "tx_latency_tail_s",
        format!("p{:.1}={tail_v:.4}", q * 100.0),
    );
    report.fact("rounds_in_window", rounds_in_window);
    report.fact(
        "timeouts_in_window",
        delta(&edge_a, &edge_b, "recovery.timeout_escalations"),
    );
    report.fact("catchups_s", format!("{catchups:.3?}"));
    // Reported, not gated: every gated metric must exist on every
    // workload, and the simulation has neither (see NOTES.md).
    report.fact("tx_latency_p50_s", format!("{:.4}", quantile(&lat, 0.5)));
    report.fact("catchup_s", format!("{catchup_s:.4}"));
    report.fact("rounds_down", format!("{rounds_down:?}"));
    report.fact("commit_polls", log.scrapes);

    report.e2e("setup_s", setup_s, "s");
    report.e2e("peak_rss_mb", c.peak_rss_mb(), "MB");
    report.e2e("round_wall_s", median(&durations), "s");
    report.e2e(
        "cpu_s_per_round",
        median(&cpu_per_round(&log, &cpu_samples)),
        "s",
    );

    if traced {
        layer_counts(&mut report, &edge_a, &edge_b, rounds_in_window);
        report.extra(
            "node.transport.max_queue_depth",
            log.max_queue_depth,
            "count",
        );
        report.extra("node.threads_per_process", threads, "count");
        node_wal_layers(&mut report, &finals);
        let v = &finals[VICTIM];
        report.extra("node.wal.replay_ms", get(v, "wal.replay_us") / 1e3, "ms");
        report.extra(
            "node.blocksync.requests",
            get(v, "blocksync.requests"),
            "count",
        );
        report.extra(
            "node.blocksync.cooldown_hits",
            get(v, "blocksync.cooldown_hits"),
            "count",
        );
        report.extra(
            "txpool.admitted_ratio",
            (sent as f64 - failed as f64) / sent as f64,
            "ratio",
        );
        report.extra(
            "ledger.txs_per_block",
            txs_per_block(&polled, tip_a as u64, tip_b as u64),
            "count",
        );
        micro::node_layers(&mut report, &polled, &c.cfgs[POLLED]);
        let unpolled = short_leg(&mut report, seed, root, bin, Leg::Unpolled)?;
        let polled = short_leg(&mut report, seed, root, bin, Leg::Polled)?;
        let traced = short_leg(&mut report, seed, root, bin, Leg::Traced)?;
        observer_effect(&mut report, &unpolled, &polled);
        report.extra(
            "trace.overhead_frac",
            traced.cpu_per_round / unpolled.cpu_per_round - 1.0,
            "ratio",
        );
        critical_path_layers(&mut report, &traced.traces)?;
        single_node_baseline(&mut report, seed, root, bin)?;
    }
    Ok(report)
}

/// WAL fsync latency: median across nodes of each node's p50 and p99.
fn node_wal_layers(report: &mut Report, finals: &[Vec<Sample>]) {
    let p = |name: &str| median(&finals.iter().map(|m| get(m, name)).collect::<Vec<_>>());
    report.extra("node.wal.fsync_us_p50", p("wal.fsync_us_p50"), "us");
    report.extra("node.wal.fsync_us_p99", p("wal.fsync_us_p99"), "us");
}

/// Observer effect of commit-time polling: the polled node's own round
/// latency in a leg polled every [`POLL_EVERY`] over the same in a leg
/// with identical settings and no polling. A step needs most of the five
/// users' votes, so a slowed node slows every node: only a comparison
/// across runs shows it.
fn observer_effect(report: &mut Report, unpolled: &LegResult, polled: &LegResult) {
    let ratio = polled.round_latency_us / unpolled.round_latency_us.max(1.0);
    report.extra("obs.poll_effect_ratio", ratio, "ratio");
    report.fact(
        "leg_round_latency_ms",
        format!(
            "unpolled={:.1} polled={:.1}",
            unpolled.round_latency_us / 1e3,
            polled.round_latency_us / 1e3
        ),
    );
}

/// The short legs: the same cluster under the same [`LEG_S`] seconds of
/// load, differing only in commit-time polling and tracing.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Leg {
    /// No poller, no trace: the reference for the other two.
    Unpolled,
    /// Node [`POLLED`] scraped every [`POLL_EVERY`] for its whole life.
    Polled,
    /// Every node records its trace; drained before exit.
    Traced,
}

/// What a short leg measured.
struct LegResult {
    /// Node CPU per round over the load, seconds.
    cpu_per_round: f64,
    /// Node [`POLLED`]'s own mean `round.latency_us` over the rounds it
    /// finalized during the load (the exposition's p50 is bucketed to
    /// about an eighth, too coarse for a ratio near 1).
    round_latency_us: f64,
    /// Drained traces (traced leg only).
    traces: Vec<NodeTrace>,
}

/// Runs one short leg with the usual exit checks; the traced leg also
/// checks that every node's in-process monitor stayed clean.
fn short_leg(
    report: &mut Report,
    seed: u64,
    root: &Path,
    bin: &Path,
    leg: Leg,
) -> Result<LegResult, String> {
    let users = derive_keypairs(seed, NODES);
    let plan = loadgen::plan(seed ^ 0x7ace, &users, LIGHT_RATE, LEG_S, 0);
    let deadline = LEG_S as u64 + 8;
    let name = format!("{leg:?}").to_lowercase();
    progress(&format!("{name} leg"));
    let traced = leg == Leg::Traced;
    let mut c = Cluster::start(&spec(seed, traced, deadline), &root.join(&name), bin, 1)?;
    let started = Instant::now();
    let mut lg = LoadGen::connect(&c.addrs[ENTRY])?;
    let t0 = Instant::now();
    let poller = match leg {
        Leg::Polled => Some(Poller::start(&c.addrs[POLLED], t0, POLL_EVERY)?),
        _ => None,
    };
    let (cpu_a, edge_a) = (c.cpu_s(), scrape(&c.addrs[POLLED])?);
    lg.run(&plan, t0)?;
    std::thread::sleep(Duration::from_secs(1));
    let (cpu_b, edge_b) = (c.cpu_s(), scrape(&c.addrs[POLLED])?);
    let window = |name: &str| get(&edge_b, name) - get(&edge_a, name);
    let rounds = window("node.tip_round");
    report.fact(
        &format!("{name}_leg_timeouts"),
        window("recovery.timeout_escalations"),
    );
    let traces = if traced {
        let (traces, failed) = drain_cluster(&c.addrs, Duration::from_secs(10));
        report.check(failed.is_empty(), || {
            format!("trace drain failed: {failed:?}")
        });
        progress("traces drained");
        traces
    } else {
        Vec::new()
    };
    drop(lg);
    let exits = c.wait_exits(exit_wait(started, deadline));
    // The poller ends by itself when its node exits.
    drop(poller);
    let (_, finals) = audit(&c, &exits, report, &name)?;
    if traced {
        for (i, m) in finals.iter().enumerate() {
            let v = get(m, "monitor.violations");
            report.check(v == 0.0, || {
                format!("traced: node {i} monitor flagged {v} violations")
            });
        }
    }
    Ok(LegResult {
        cpu_per_round: (cpu_b - cpu_a) / rounds.max(1.0),
        round_latency_us: window("round.latency_us_sum")
            / window("round.latency_us_count").max(1.0),
        traces,
    })
}

/// Critical-path attribution of the traced leg's final rounds, merged
/// across processes.
fn critical_path_layers(report: &mut Report, traces: &[NodeTrace]) -> Result<(), String> {
    let merged = merge(traces)?;
    let steps: Vec<_> = merged
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::BaStep)
        .collect();
    let on_votes = steps.iter().filter(|e| e.ok).count();
    report.extra(
        "ba.steps_on_votes_ratio",
        on_votes as f64 / steps.len().max(1) as f64,
        "ratio",
    );
    let graph = CausalGraph::build(&merged.events);
    let walks = StepWalks::build(&merged.events);
    let (mut paths, mut cyclic) = (Vec::new(), 0);
    for r in graph.rounds() {
        if walks.terminates(r) {
            paths.extend(graph.critical_path(r));
        } else {
            cyclic += 1;
        }
    }
    report.fact("cp_rounds_walked", paths.len());
    report.fact("cp_rounds_cyclic", cyclic);
    let (mut total, mut sums) = (0.0, [0.0f64; 5]);
    for p in paths.iter().filter(|p| p.final_consensus) {
        total += p.latency() as f64;
        for e in &p.edges {
            let slot = match e.kind {
                EdgeKind::Proposal => 0,
                EdgeKind::Gossip if e.from_node == e.to_node => 1,
                EdgeKind::Gossip => 2,
                EdgeKind::Verify => 3,
                EdgeKind::BaStep => 4,
            };
            sums[slot] += e.duration() as f64;
        }
    }
    report.check(total > 0.0, || {
        "traced run yielded no critical paths".into()
    });
    let total = total.max(1.0);
    let names = ["proposal", "relay_local", "wire", "verify"];
    for (name, v) in names.iter().zip(sums) {
        report.extra(&format!("trace.cp.{name}_frac"), v / total, "ratio");
    }
    let rows: Vec<(&str, f64)> = vec![
        ("proposal", sums[0] / 1e6),
        ("gossip relay (local)", sums[1] / 1e6),
        ("gossip wire", sums[2] / 1e6),
        ("verify", sums[3] / 1e6),
        ("ba_step wait", sums[4] / 1e6),
    ];
    let (table, unattributed) = attribution_table(
        "node_light critical-path attribution (seconds summed over final rounds)",
        total / 1e6,
        &rows,
    );
    report.tables.push(table);
    report.layer("attribution.unattributed_frac", unattributed, "ratio");
    Ok(())
}

/// The step-to-step part of `obs::CausalGraph::critical_path`'s backward
/// walk, indexed the same way, to find rounds whose walk never ends:
/// when the merged trace's cause links form a loop (step A gated by a
/// vote emitted after step B, B gated by a vote emitted after A), that
/// walk revisits the same steps forever and grows without bound. Such
/// rounds are skipped and counted (see NOTES.md, known defects).
struct StepWalks<'a> {
    steps_by_id: HashMap<u64, (usize, &'a TraceEvent)>,
    steps_seq: HashMap<(u32, u64), Vec<(usize, &'a TraceEvent)>>,
    emissions: HashMap<u64, (usize, &'a TraceEvent)>,
    rounds: Vec<&'a TraceEvent>,
}

impl<'a> StepWalks<'a> {
    fn build(events: &'a [TraceEvent]) -> StepWalks<'a> {
        let mut w = StepWalks {
            steps_by_id: HashMap::new(),
            steps_seq: HashMap::new(),
            emissions: HashMap::new(),
            rounds: Vec::new(),
        };
        for (idx, ev) in events.iter().enumerate() {
            match ev.kind {
                SpanKind::BaStep if ev.id != 0 => {
                    w.steps_by_id.entry(ev.id).or_insert((idx, ev));
                    w.steps_seq
                        .entry((ev.node, ev.round))
                        .or_default()
                        .push((idx, ev));
                }
                SpanKind::Sortition if ev.id != 0 && ev.label == "committee" => {
                    w.emissions.entry(ev.id).or_insert((idx, ev));
                }
                SpanKind::Round => w.rounds.push(ev),
                _ => {}
            }
        }
        w
    }

    /// The last step `node` concluded in `round` before index `before`.
    fn prev_phase(&self, node: u32, round: u64, before: usize) -> Option<(usize, &'a TraceEvent)> {
        self.steps_seq
            .get(&(node, round))?
            .iter()
            .rev()
            .find(|(i, _)| *i < before)
            .copied()
    }

    /// Whether the walk of `round` ends (it visits each step at most once).
    fn terminates(&self, round: u64) -> bool {
        let Some(anchor) = self
            .rounds
            .iter()
            .filter(|ev| ev.round == round)
            .min_by_key(|ev| (!ev.ok, ev.end, ev.node))
        else {
            return true;
        };
        let mut cur = self.steps_by_id.get(&anchor.cause).copied().or_else(|| {
            self.steps_seq
                .get(&(anchor.node, round))
                .and_then(|seq| seq.last())
                .copied()
        });
        let mut seen = HashSet::new();
        while let Some((idx, st)) = cur {
            if !seen.insert(idx) {
                return false;
            }
            cur = if st.cause == 0 {
                self.prev_phase(st.node, round, idx)
            } else {
                match self.emissions.get(&st.cause) {
                    Some(&(eidx, em)) => self.prev_phase(em.node, round, eidx),
                    None => None,
                }
            };
        }
        true
    }
}

/// `n_users = 1` reference: a single process's round time.
fn single_node_baseline(
    report: &mut Report,
    seed: u64,
    root: &Path,
    bin: &Path,
) -> Result<(), String> {
    let spec = Spec {
        nodes: 1,
        ..spec(seed, false, 6)
    };
    progress("single-node baseline");
    let mut c = Cluster::start(&spec, &root.join("single"), bin, 1)?;
    let t0 = Instant::now();
    let poller = Poller::start(&c.addrs[0], t0, POLL_EVERY)?;
    std::thread::sleep(Duration::from_secs(3));
    let log = poller.finish()?;
    let exits = c.wait_exits(exit_wait(t0, spec.deadline_secs));
    report.check(exits.iter().all(|e| *e), || {
        "single node did not exit 0".into()
    });
    let d = round_durations(&log, 0.0, f64::INFINITY);
    report.check(!d.is_empty(), || "single node finalized no rounds".into());
    if !d.is_empty() {
        report.layer("baseline.single_node_round_s", median(&d), "s");
    }
    Ok(())
}
