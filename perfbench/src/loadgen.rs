//! The open-loop load generator and the commit-time poller.
//!
//! The generator is one connection to one entry node. To be allowed to
//! send GOSSIP it must say HELLO, and it advertises the entry node's own
//! address: the node then never records it as a dialable peer, so it
//! never spreads through peer exchange and no node ever dials it. Being
//! a protocol peer, it receives the entry node's broadcasts; a drain
//! thread reads and discards them so its send queue never fills.

use crate::cluster::{get, max_labeled};
use crate::stats::poisson_schedule;
use algorand_core::WireMessage;
use algorand_crypto::Keypair;
use algorand_ledger::Transaction;
use algorand_node::frame;
use algorand_obs::expose::{self, Sample};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One transaction of the plan.
pub struct Planned {
    /// Due time, seconds from the start of the load.
    pub due_s: f64,
    /// Transaction id, to find it in the finalized chain.
    pub id: [u8; 32],
    /// The framed GOSSIP bytes to write.
    pub frame: Vec<u8>,
}

/// Payments at `rate` per second for at least `secs` seconds and at
/// least `min_count` transactions: Poisson arrivals, senders round-robin
/// over the deployment's users, each paying 1 unit to the next user so
/// every balance stays near its genesis stake for the whole run.
pub fn plan(seed: u64, users: &[Keypair], rate: f64, secs: f64, min_count: usize) -> Vec<Planned> {
    let mut nonces = vec![0u64; users.len()];
    poisson_schedule(seed, rate, secs, min_count)
        .into_iter()
        .enumerate()
        .map(|(i, due_s)| {
            let k = i % users.len();
            nonces[k] += 1;
            let tx = Transaction::payment(&users[k], users[(k + 1) % users.len()].pk, 1, nonces[k]);
            let wire = WireMessage::Transaction(tx.clone()).encoded();
            Planned {
                due_s,
                id: tx.id(),
                frame: frame::encode_frame(frame::GOSSIP, &wire).expect("small frame"),
            }
        })
        .collect()
}

/// A connected generator.
pub struct LoadGen {
    writer: TcpStream,
    drain: Option<JoinHandle<()>>,
}

impl LoadGen {
    /// Connects to `entry` and identifies as a protocol peer.
    pub fn connect(entry: &str) -> Result<LoadGen, String> {
        let stream = TcpStream::connect(entry).map_err(|e| format!("connect {entry}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        frame::write_frame(&mut writer, frame::HELLO, entry.as_bytes())
            .map_err(|e| format!("hello: {e}"))?;
        let drain = std::thread::spawn(move || {
            let mut r = BufReader::new(stream);
            while frame::read_frame(&mut r).is_ok() {}
        });
        Ok(LoadGen {
            writer,
            drain: Some(drain),
        })
    }

    /// Sends every planned transaction at its due time measured from
    /// `t0`. Returns each send's lateness in seconds.
    pub fn run(&mut self, plan: &[Planned], t0: Instant) -> Result<Vec<f64>, String> {
        let mut late = Vec::with_capacity(plan.len());
        for p in plan {
            let due = t0 + Duration::from_secs_f64(p.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            self.writer
                .write_all(&p.frame)
                .map_err(|e| format!("send transaction: {e}"))?;
            late.push(Instant::now().saturating_duration_since(due).as_secs_f64());
        }
        Ok(late)
    }
}

impl Drop for LoadGen {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// What the poller saw.
#[derive(Default)]
pub struct PollLog {
    /// First time, seconds from the poller's `t0`, each round was seen
    /// finalized at the polled node.
    pub first_seen: BTreeMap<u64, f64>,
    /// Scrapes made.
    pub scrapes: u64,
    /// Deepest send queue seen on the polled node.
    pub max_queue_depth: f64,
    /// The node stopped answering before the poller was stopped.
    pub ended_early: bool,
}

/// A persistent TELEMETRY connection. It never says HELLO, so the node
/// serves it without counting it as a peer.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// The node's metrics exposition, parsed.
    fn metrics(&mut self) -> io::Result<Vec<Sample>> {
        self.writer.write_all(&frame::encode_frame(
            frame::TELEMETRY,
            &[frame::TEL_METRICS_REQ],
        )?)?;
        loop {
            let (kind, payload) = frame::read_frame(&mut self.reader)?;
            match payload.first() {
                Some(&op) if kind == frame::TELEMETRY && op == frame::TEL_METRICS_RESP => {
                    let text =
                        String::from_utf8(payload[1..].to_vec()).map_err(io::Error::other)?;
                    return expose::parse(&text).map_err(io::Error::other);
                }
                Some(&frame::TEL_THROTTLED) if kind == frame::TELEMETRY => {
                    return Err(io::Error::other("scrape throttled"));
                }
                _ => {}
            }
        }
    }
}

/// Scrapes one node every `interval` over one connection, recording when
/// each round first appears, until stopped.
pub struct Poller {
    stop: Arc<AtomicBool>,
    /// Latest `node.tip_round`.
    pub tip: Arc<AtomicU64>,
    /// Latest `workload.committed` (transactions in the chain).
    pub committed: Arc<AtomicU64>,
    handle: Option<JoinHandle<PollLog>>,
}

impl Poller {
    /// Starts polling `addr`.
    pub fn start(addr: &str, t0: Instant, interval: Duration) -> Result<Poller, String> {
        let mut conn = Conn::connect(addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let tip = Arc::new(AtomicU64::new(0));
        let committed = Arc::new(AtomicU64::new(0));
        let (s, t, c) = (stop.clone(), tip.clone(), committed.clone());
        let handle = std::thread::spawn(move || {
            let mut log = PollLog::default();
            // Rounds already final at the first scrape have no first-seen
            // time of their own.
            let mut last = None;
            while !s.load(Ordering::SeqCst) {
                // A node that reached its deadline closes the connection:
                // the log so far is the log.
                let Ok(samples) = conn.metrics() else {
                    log.ended_early = true;
                    break;
                };
                let at = t0.elapsed().as_secs_f64();
                log.scrapes += 1;
                let now_tip = get(&samples, "node.tip_round") as u64;
                let seen = *last.get_or_insert(now_tip);
                for r in seen + 1..=now_tip {
                    log.first_seen.insert(r, at);
                }
                last = Some(seen.max(now_tip));
                t.store(now_tip, Ordering::SeqCst);
                c.store(get(&samples, "workload.committed") as u64, Ordering::SeqCst);
                log.max_queue_depth = log
                    .max_queue_depth
                    .max(max_labeled(&samples, "transport.send_queue_depth"));
                std::thread::sleep(interval);
            }
            log
        });
        Ok(Poller {
            stop,
            tip,
            committed,
            handle: Some(handle),
        })
    }

    /// Stops polling and returns the log.
    pub fn finish(mut self) -> Result<PollLog, String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("joined once")
            .join()
            .map_err(|_| "poller panicked".to_string())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}
