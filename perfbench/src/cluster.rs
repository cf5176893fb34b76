//! A loopback cluster of real `algorand-node` processes: spawn, mesh,
//! TELEMETRY scrapes, kill and restart, and reading each node's
//! finalized chain back from its WAL once it has exited.

use crate::procfs;
use algorand_core::{Node, PipelineVerifier};
use algorand_node::{telemetry, NodeConfig, Wal};
use algorand_obs::expose::{self, Sample};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deployment shape shared by every node of a cluster.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Node processes (one user each).
    pub nodes: usize,
    /// Stake per user.
    pub stake: u64,
    /// Deployment seed (keys, genesis).
    pub seed: u64,
    /// λ_priority and λ_stepvar, milliseconds.
    pub lambda_ms: u64,
    /// Record the node trace (for the traced run).
    pub trace: bool,
    /// Seconds of consensus before every node exits on its own.
    pub deadline_secs: u64,
}

/// A running cluster. Dropping it kills and reaps every process.
pub struct Cluster {
    bin: PathBuf,
    /// One config per node, as written to `<root>/n<i>.conf`.
    pub cfgs: Vec<NodeConfig>,
    children: Vec<Option<Child>>,
    /// Resolved listen address per node.
    pub addrs: Vec<String>,
    /// Latest peak-RSS reading per node life, MB (summed at the end).
    rss_mb: Vec<f64>,
    /// CPU seconds of processes that already exited or were killed.
    retired_cpu_s: f64,
}

const POLL: Duration = Duration::from_millis(5);

impl Cluster {
    /// Spawns `spec.nodes` processes under `root`. Node `i` dials every
    /// node spawned before it, so the mesh is complete the moment the
    /// last process starts, and `min_peers` holds consensus until then.
    /// Returns once every node has finalized `warm_rounds` rounds.
    pub fn start(
        spec: &Spec,
        root: &Path,
        bin: &Path,
        warm_rounds: u64,
    ) -> Result<Cluster, String> {
        let _ = std::fs::remove_dir_all(root);
        std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let mut cluster = Cluster {
            bin: bin.to_path_buf(),
            cfgs: Vec::new(),
            children: Vec::new(),
            addrs: Vec::new(),
            rss_mb: vec![0.0; spec.nodes],
            retired_cpu_s: 0.0,
        };
        for i in 0..spec.nodes {
            let cfg = NodeConfig {
                index: i,
                n_users: spec.nodes,
                stake_per_user: spec.stake,
                seed: spec.seed,
                listen: "127.0.0.1:0".into(),
                peers: cluster.addrs.clone(),
                wal_dir: root.join(format!("n{i}")),
                target_round: 0,
                deadline_secs: spec.deadline_secs,
                linger_secs: 0,
                tx_count: 0,
                min_peers: spec.nodes - 1,
                start_at_ms: 0,
                lambda_priority_ms: spec.lambda_ms,
                lambda_stepvar_ms: spec.lambda_ms,
                trace: spec.trace,
                // Commit times are read by polling one node every few
                // milliseconds over a single connection.
                telemetry_burst: 256,
                telemetry_rate_per_s: 2_000,
                ..NodeConfig::default()
            };
            let conf = root.join(format!("n{i}.conf"));
            std::fs::write(&conf, cfg.render()).map_err(|e| format!("write config: {e}"))?;
            cluster.children.push(Some(cluster.spawn(&conf, i)?));
            let addr_file = cfg.wal_dir.join("addr");
            wait_for(Duration::from_secs(20), || addr_file.exists())
                .map_err(|_| format!("node {i} never published its address"))?;
            let addr = std::fs::read_to_string(&addr_file).map_err(|e| e.to_string())?;
            cluster.addrs.push(addr.trim().to_string());
            cluster.cfgs.push(cfg);
        }
        for i in 0..spec.nodes {
            let addr = &cluster.addrs[i];
            wait_for(Duration::from_secs(30), || {
                scrape(addr).is_ok_and(|m| get(&m, "node.tip_round") >= warm_rounds as f64)
            })
            .map_err(|_| format!("node {i} did not finalize {warm_rounds} rounds"))?;
        }
        Ok(cluster)
    }

    /// Spawns node `i`, appending its stderr to `<root>/n<i>.stderr`.
    fn spawn(&self, conf: &Path, i: usize) -> Result<Child, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(conf.with_file_name(format!("n{i}.stderr")))
            .map_err(|e| format!("open node log: {e}"))?;
        Command::new(&self.bin)
            .arg(conf)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))
    }

    /// Process ids of the live nodes.
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().flatten().map(Child::id).collect()
    }

    /// Summed utime + stime of every node process, this life and earlier
    /// ones, in seconds.
    pub fn cpu_s(&self) -> f64 {
        self.retired_cpu_s
            + self
                .pids()
                .iter()
                .filter_map(|&p| procfs::cpu_s(p))
                .sum::<f64>()
    }

    /// Refreshes the per-node peak RSS readings (call before exits).
    pub fn sample_rss(&mut self) {
        for (i, child) in self.children.iter().enumerate() {
            if let Some(mb) = child.as_ref().and_then(|c| procfs::peak_rss_mb(c.id())) {
                self.rss_mb[i] = self.rss_mb[i].max(mb);
            }
        }
    }

    /// Summed peak RSS over node processes, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.rss_mb.iter().sum()
    }

    /// Mean live thread count per node process.
    pub fn threads_per_process(&self) -> f64 {
        let t: Vec<f64> = self
            .pids()
            .iter()
            .filter_map(|&p| procfs::threads(p))
            .collect();
        t.iter().sum::<f64>() / t.len().max(1) as f64
    }

    /// `kill -9` node `i` and reap it.
    pub fn kill(&mut self, i: usize) {
        self.sample_rss();
        if let Some(mut child) = self.children[i].take() {
            self.retired_cpu_s += procfs::cpu_s(child.id()).unwrap_or(0.0);
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Restarts node `i` from its WAL, to exit `deadline_secs` after it
    /// rejoins consensus.
    pub fn restart(&mut self, i: usize, root: &Path, deadline_secs: u64) -> Result<(), String> {
        let mut cfg = self.cfgs[i].clone();
        cfg.deadline_secs = deadline_secs;
        // Every other node is up: dial them all directly.
        cfg.peers = (0..self.addrs.len())
            .filter(|&j| j != i)
            .map(|j| self.addrs[j].clone())
            .collect();
        let _ = std::fs::remove_file(cfg.wal_dir.join("addr"));
        let conf = root.join(format!("n{i}.conf"));
        std::fs::write(&conf, cfg.render()).map_err(|e| format!("write config: {e}"))?;
        self.children[i] = Some(self.spawn(&conf, i)?);
        let addr_file = cfg.wal_dir.join("addr");
        wait_for(Duration::from_secs(20), || addr_file.exists())
            .map_err(|_| format!("restarted node {i} never published its address"))?;
        let addr = std::fs::read_to_string(&addr_file).map_err(|e| e.to_string())?;
        self.addrs[i] = addr.trim().to_string();
        self.cfgs[i] = cfg;
        Ok(())
    }

    /// Waits for every node to exit on its deadline; true per node that
    /// exited with status 0. Stragglers past `timeout` are killed.
    pub fn wait_exits(&mut self, timeout: Duration) -> Vec<bool> {
        let deadline = Instant::now() + timeout;
        let mut ok = vec![false; self.children.len()];
        loop {
            let mut running = false;
            for (i, slot) in self.children.iter_mut().enumerate() {
                let Some(child) = slot else { continue };
                match child.try_wait() {
                    Ok(Some(status)) => {
                        ok[i] = status.success();
                        *slot = None;
                    }
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        *slot = None;
                    }
                    Ok(None) => {
                        running = true;
                        // The last reading before exit is the peak.
                        if let Some(mb) = procfs::peak_rss_mb(child.id()) {
                            self.rss_mb[i] = self.rss_mb[i].max(mb);
                        }
                    }
                    Err(_) => *slot = None,
                }
            }
            if !running {
                return ok;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Kills every live process (error paths and throwaway clusters).
    pub fn kill_all(&mut self) {
        for i in 0..self.children.len() {
            self.kill(i);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// The last lines every node wrote to stderr under `work`, for the
/// diagnosis of a failed run.
pub fn stderr_tails(work: &Path) -> String {
    let mut out = String::new();
    let Ok(runs) = std::fs::read_dir(work) else {
        return out;
    };
    for run in runs.flatten() {
        for i in 0..8 {
            let path = run.path().join(format!("n{i}.stderr"));
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let lines: Vec<&str> = text.lines().collect();
            for line in &lines[lines.len().saturating_sub(5)..] {
                out.push_str(&format!("{}: {line}\n", path.display()));
            }
        }
    }
    out
}

/// Polls `cond` every few milliseconds until it holds or `timeout`.
pub fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> Result<(), ()> {
    let deadline = Instant::now() + timeout;
    while !cond() {
        if Instant::now() >= deadline {
            return Err(());
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

/// One TELEMETRY scrape of `addr`'s metrics exposition, parsed.
pub fn scrape(addr: &str) -> Result<Vec<Sample>, String> {
    let text = telemetry::scrape_metrics(addr, Duration::from_secs(5))
        .map_err(|e| format!("scrape {addr}: {e}"))?;
    expose::parse(&text)
}

/// The value of the unlabeled sample `name` (0 when absent).
pub fn get(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map_or(0.0, |s| s.value as f64)
}

/// Maximum over every labelled instance of `name`.
pub fn max_labeled(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value as f64)
        .fold(0.0, f64::max)
}

/// The final exposition a node wrote on exit.
pub fn exit_metrics(cfg: &NodeConfig) -> Result<Vec<Sample>, String> {
    let path = cfg.wal_dir.join("metrics.txt");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    expose::parse(&text)
}

/// Rebuilds an exited node's finalized chain from its WAL, verifying
/// every certificate on the way, exactly as a restart does.
pub fn restore(cfg: &NodeConfig) -> Result<Node, String> {
    let path = cfg.wal_dir.join("node.wal");
    let (_wal, replay) = Wal::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok(Node::restore(
        cfg.keypair(),
        cfg.genesis(),
        cfg.params(),
        Arc::new(PipelineVerifier::new()),
        &replay.snapshot,
        0,
    ))
}
