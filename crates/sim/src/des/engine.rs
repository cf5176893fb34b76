//! The conservative parallel discrete-event engine.
//!
//! # Execution model
//!
//! Virtual time advances in synchronized *windows* `[T, E)` where
//! `E = min(T + lookahead, next global event, next peer churn, t_end)`
//! and the lookahead is the network's minimum one-way delay
//! ([`crate::network::Network::min_delay`]). Because every message sent
//! at a time `t ≥ T` arrives no earlier than `t + lookahead ≥ E`, no
//! event inside a window can cause another event inside the same window
//! at a *different* node — so each node's events can be processed on any
//! worker thread without synchronization.
//!
//! A window runs in three phases:
//!
//! 1. **Extract (sequential).** Pop every event below `E` from the
//!    bucketed queue in canonical `(time, class, seq)` order and assign
//!    each a monotone *order hint* from the engine-global counter.
//! 2. **Node phase (parallel).** Work units — one per honest node, plus
//!    a single unit holding *all* malicious nodes so coalition state is
//!    mutated in canonical order — are claimed by workers. Each unit
//!    processes its events in key order, touching only per-node state
//!    (protocol node, relay view, private tracer, pending wake). Sends
//!    are buffered as intents; chained timer wakes that land inside the
//!    window run immediately, inheriting their trigger's hint.
//! 3. **Barrier (sequential).** Intents are sorted by
//!    `(hint, emission index)` and replayed against the shared state in
//!    that canonical order: topology fan-out, uplink serialization,
//!    jitter/loss RNG draws, delivery scheduling (which assigns the next
//!    window's sequence numbers), gossip-hop tracing, and batched
//!    verification pre-warm via the [`VerifyPool`]. Per-node trace
//!    buffers are then drained, merged by hint, fed to the invariant
//!    monitor, and retained under the per-node budget.
//!
//! Every shared-state mutation happens in a sequential phase in an order
//! derived only from canonical keys — never from thread interleaving —
//! so for any seed the chain digests, monitor verdicts, and exported
//! traces are byte-identical at 1, 2, or N workers. The determinism gate
//! (`bench/src/bin/des_determinism.rs`) enforces exactly that.

use crate::adversary::{AdversaryShared, Outgoing};
use crate::des::queue::{BucketQueue, OrderKey, CLASS_DELIVER, CLASS_WAKE};
use crate::event::Micros;
use crate::faults::{FaultAction, FaultEvent, FaultSchedule};
use crate::harness::{
    self, FaultReport, InjectStep, KindBytes, NodeCarry, PipelineReport, Prewarmer, SimConfig,
    SimMsg, Slot, TxRecord, TxStats, Workload, ANNOUNCE_SIZE, GENESIS_SEED, TRACE_CAP,
};
use crate::network::Network;
use algorand_core::{Node, PipelineVerifier, RoundRecord, VerifyPool, WireMessage};
use algorand_crypto::rng::Rng;
use algorand_crypto::Keypair;
use algorand_gossip::{RelayDecision, RelayMetrics, RelayState, Topology};
use algorand_ledger::Blockchain;
use algorand_obs::{
    stable_id, write_jsonl_trimmed, MonitorHandle, MonitorReport, Registry, SpanKind, TraceEvent,
    TraceObserver, Tracer, NO_NODE,
};
use algorand_txpool::PoolMetrics;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Below this many window events the parallel engine stays on the
/// calling thread: spawning workers for a handful of events costs more
/// than it saves.
const PARALLEL_THRESHOLD: usize = 192;

/// Configuration for the parallel engine.
#[derive(Clone, Debug)]
pub struct DesConfig {
    /// The shared population/workload/fault configuration.
    pub sim: SimConfig,
    /// Worker threads for the node phase (1 = run windows inline).
    /// Results are byte-identical at any value.
    pub workers: usize,
    /// Per-node cap on *retained* trace events (0 = unlimited). Events
    /// past the budget are counted as `trimmed` in the export header;
    /// the invariant monitor still observes the full stream.
    pub trace_node_budget: usize,
}

impl DesConfig {
    /// Default parallel configuration for `n` users.
    pub fn new(n: usize) -> DesConfig {
        DesConfig {
            sim: SimConfig::new(n),
            workers: 1,
            trace_node_budget: 0,
        }
    }
}

/// One queued node event.
enum DesEvent {
    Deliver { from: usize, msg: Arc<SimMsg> },
    Wake,
}

/// A global (non-node) event, handled sequentially between windows.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum GlobalKind {
    Inject,
    Fault(usize),
}

/// One event routed into a node's window inbox.
struct InEvent {
    hint: u64,
    time: Micros,
    kind: InKind,
}

enum InKind {
    Deliver { from: usize, msg: Arc<SimMsg> },
    Wake,
}

impl InEvent {
    fn class(&self) -> u8 {
        match self.kind {
            InKind::Deliver { .. } => CLASS_DELIVER,
            InKind::Wake => CLASS_WAKE,
        }
    }

    fn tiebreak(&self, node: usize) -> u64 {
        match self.kind {
            InKind::Deliver { .. } => self.hint,
            InKind::Wake => node as u64,
        }
    }
}

/// A deferred send, replayed against shared network state at the
/// barrier in `(hint, seq)` order.
struct Intent {
    hint: u64,
    seq: u64,
    time: Micros,
    from: usize,
    kind: IntentKind,
}

enum IntentKind {
    /// Gossip to every neighbour except `exclude`.
    Forward {
        msg: Arc<SimMsg>,
        exclude: Option<usize>,
    },
    /// Equivocation split: `a` to even-indexed peers, `b` to odd.
    Split { a: Arc<SimMsg>, b: Arc<SimMsg> },
}

/// All state one node's events may touch during the parallel phase.
struct NodeCell {
    id: usize,
    slot: Slot,
    relay: RelayState,
    /// This node's private trace buffer, merged canonically at barriers.
    tracer: Tracer,
    /// Earliest pending timer wake (global clock), `MAX` if none.
    next_wake: Micros,
    /// The wake time currently enqueued in the shared queue (`MAX` if
    /// none) — avoids duplicate queue entries for an unchanged wake.
    enqueued_wake: Micros,
    clock_skew: i64,
    crashed: bool,
    snapshot: Option<Vec<u8>>,
    /// Window inbox, filled by the sequential extract phase.
    inbox: Vec<InEvent>,
    /// Send intents buffered during the parallel phase.
    outbox: Vec<Intent>,
    /// Emission counter for intent ordering, monotone per window.
    out_seq: u64,
    /// Hint of the last processed event (inherited by chained wakes).
    last_hint: u64,
}

/// The parallel discrete-event simulation.
pub struct ParallelSim {
    cfg: DesConfig,
    cells: Vec<Mutex<NodeCell>>,
    keypairs: Vec<Keypair>,
    topology: Topology,
    net: Network,
    queue: BucketQueue<DesEvent>,
    /// Global events (workload injections, scripted faults), processed
    /// sequentially between windows.
    globals: std::collections::BinaryHeap<std::cmp::Reverse<(Micros, u64, GlobalKind)>>,
    faults: Vec<FaultEvent>,
    next_churn: Micros,
    churn_epoch: u64,
    verifier: Arc<PipelineVerifier>,
    pool: VerifyPool,
    prewarm: Prewarmer,
    adversary: Arc<Mutex<AdversaryShared>>,
    workload: Option<Workload>,
    started: bool,
    restarts: usize,
    partitions_activated: usize,
    registry: Registry,
    /// Engine-owned tracer for hop/fault spans (sequential phases only).
    engine_tracer: Tracer,
    monitor: Option<MonitorHandle>,
    /// The monitor's live feed, driven manually with the merged stream.
    monitor_feed: Option<Box<dyn TraceObserver>>,
    kind_bytes: KindBytes,
    carry: HashMap<usize, NodeCarry>,
    /// Engine-global canonical order counter: event hints and delivery
    /// sequence numbers, advanced only in sequential phases.
    order: u64,
    now: Micros,
    /// Canonically merged trace, in hint order.
    retained: Vec<TraceEvent>,
    retained_per_node: Vec<usize>,
    trimmed: u64,
}

impl ParallelSim {
    /// Builds the engine: same population, topology, network, and
    /// workload construction as [`crate::runner::Simulation`], but with
    /// per-node trace buffers and a bucketed event queue.
    pub fn new(mut cfg: DesConfig) -> ParallelSim {
        cfg.sim.apply_injected_bug();
        let sim = &cfg.sim;
        let keypairs = sim.build_keypairs();
        let verifier = Arc::new(PipelineVerifier::new());
        let adversary = Arc::new(Mutex::new(AdversaryShared::default()));
        let registry = Registry::new();
        let trace = sim.trace;
        let monitor = (sim.monitor && trace).then(|| MonitorHandle::new(sim.monitor_config()));
        let monitor_feed = monitor.as_ref().map(MonitorHandle::observer);
        let pool_metrics = PoolMetrics::registered(&registry);
        let mut node_tracers: Vec<Tracer> = (0..sim.n_users)
            .map(|_| {
                if trace {
                    Tracer::bounded(TRACE_CAP)
                } else {
                    Tracer::disabled()
                }
            })
            .collect();
        let slots =
            harness::build_slots(sim, &keypairs, &verifier, &adversary, &pool_metrics, |i| {
                node_tracers[i].clone()
            });
        let mut topo_rng = Rng::seed_from_u64(sim.seed);
        let weights = vec![sim.stake_per_user; sim.n_users];
        let topology = Topology::weighted(sim.n_users, sim.out_degree, &weights, &mut topo_rng);
        let relay_metrics = RelayMetrics::registered(&registry);
        let cells = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                Mutex::new(NodeCell {
                    id: i,
                    slot,
                    relay: RelayState::with_metrics(relay_metrics.clone()),
                    tracer: std::mem::take(&mut node_tracers[i]),
                    next_wake: Micros::MAX,
                    enqueued_wake: Micros::MAX,
                    clock_skew: 0,
                    crashed: false,
                    snapshot: None,
                    inbox: Vec::new(),
                    outbox: Vec::new(),
                    out_seq: 0,
                    last_hint: 0,
                })
            })
            .collect();
        let net = Network::new(sim.n_users, sim.net.clone());
        let workload = Workload::from_config(sim);
        let n_users = sim.n_users;
        ParallelSim {
            cells,
            keypairs,
            topology,
            net,
            queue: BucketQueue::new(),
            globals: std::collections::BinaryHeap::new(),
            faults: Vec::new(),
            next_churn: if sim.peer_churn_interval > 0 {
                sim.peer_churn_interval
            } else {
                u64::MAX
            },
            churn_epoch: 0,
            verifier,
            pool: VerifyPool::new(sim.verify_pool_workers),
            prewarm: Prewarmer::new(),
            adversary,
            workload,
            started: false,
            restarts: 0,
            partitions_activated: 0,
            registry,
            engine_tracer: if trace {
                Tracer::bounded(TRACE_CAP)
            } else {
                Tracer::disabled()
            },
            monitor,
            monitor_feed,
            kind_bytes: KindBytes::default(),
            carry: HashMap::new(),
            order: 0,
            now: 0,
            retained: Vec::new(),
            retained_per_node: vec![0; n_users],
            trimmed: 0,
            cfg,
        }
    }

    /// Installs a scripted fault schedule (accumulates, as on the serial
    /// runner).
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        let base = self.faults.len();
        let events = schedule.into_events();
        for (k, e) in events.iter().enumerate() {
            let seq = self.next_order();
            self.globals
                .push(std::cmp::Reverse((e.at, seq, GlobalKind::Fault(base + k))));
        }
        self.faults.extend(events);
    }

    /// The shared adversary state.
    pub fn adversary(&self) -> Arc<Mutex<AdversaryShared>> {
        self.adversary.clone()
    }

    /// Starts every node at time 0.
    pub fn start(&mut self) {
        assert!(!self.started, "already started");
        self.started = true;
        for i in 0..self.cells.len() {
            let hint = self.next_order();
            let outgoing = {
                let mut g = self.cells[i].lock().expect("cell");
                g.tracer.set_order_hint(hint);
                g.slot.start(0)
            };
            self.dispatch_sequential(i, outgoing, 0, hint);
            self.reschedule_sequential(i);
        }
        if let Some(wl) = &self.workload {
            let at = wl.interval;
            let seq = self.next_order();
            self.globals
                .push(std::cmp::Reverse((at, seq, GlobalKind::Inject)));
        }
    }

    /// Runs until virtual time `t_end` or until all queues drain.
    pub fn run_until(&mut self, t_end: Micros) {
        if !self.started {
            self.start();
        }
        loop {
            let next_node = self.queue.next_time();
            let next_global = self.globals.peek().map(|std::cmp::Reverse((t, _, _))| *t);
            let t = match (next_node, next_global) {
                (None, None) => break,
                (a, b) => a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX)),
            };
            if t > t_end {
                break;
            }
            self.now = t;
            // §8.4 peer churn: regenerate the gossip topology between
            // windows, so a window never straddles a topology change.
            while t >= self.next_churn {
                self.churn_epoch += 1;
                self.next_churn = self
                    .next_churn
                    .saturating_add(self.cfg.sim.peer_churn_interval.max(1));
                let mut rng = Rng::seed_from_u64(self.cfg.sim.seed ^ (self.churn_epoch << 32));
                let weights = vec![self.cfg.sim.stake_per_user; self.cfg.sim.n_users];
                self.topology = Topology::weighted(
                    self.cfg.sim.n_users,
                    self.cfg.sim.out_degree,
                    &weights,
                    &mut rng,
                );
            }
            // Global events at the frontier run sequentially, before any
            // node window (a fixed canonical rule on time ties).
            if next_global.is_some_and(|g| g <= next_node.unwrap_or(u64::MAX)) {
                let std::cmp::Reverse((at, _, kind)) = self.globals.pop().expect("peeked");
                match kind {
                    GlobalKind::Inject => self.inject_next_tx(at),
                    GlobalKind::Fault(idx) => {
                        let action = self.faults[idx].action.clone();
                        self.apply_fault(action, at);
                    }
                }
                continue;
            }
            // Conservative window: no event in [T, E) can schedule
            // another event below E at a different node.
            let window_end = (t + self.net.min_delay())
                .min(next_global.unwrap_or(u64::MAX))
                .min(self.next_churn)
                .min(t_end.saturating_add(1));
            self.run_window(window_end);
        }
    }

    /// Runs until every live node's chain has `rounds` rounds, or until
    /// `t_cap` virtual time passes.
    pub fn run_rounds(&mut self, rounds: u64, t_cap: Micros) {
        if !self.started {
            self.start();
        }
        loop {
            let all_done = self.cells.iter().all(|c| {
                let g = c.lock().expect("cell");
                g.crashed || g.slot.node().chain().tip().round >= rounds
            });
            if all_done {
                return;
            }
            let next_node = self.queue.next_time();
            let next_global = self.globals.peek().map(|std::cmp::Reverse((t, _, _))| *t);
            let next = match (next_node, next_global) {
                (None, None) => return,
                (a, b) => a.unwrap_or(u64::MAX).min(b.unwrap_or(u64::MAX)),
            };
            if next > t_cap {
                return;
            }
            self.run_until((next + 1_000_000).min(t_cap));
        }
    }

    // --- Window machinery ----------------------------------------------------

    /// One window: extract, parallel node phase, sequential barrier.
    fn run_window(&mut self, window_end: Micros) {
        // Phase 1 — extract: pop in canonical order, stamp hints, route.
        let popped = self.queue.pop_window(window_end);
        let mut touched: Vec<usize> = Vec::new();
        let mut n_events = 0usize;
        for (key, ev) in popped {
            let hint = self.next_order();
            n_events += 1;
            let (node, kind) = match ev {
                DesEvent::Deliver { from, msg } => (
                    key.tiebreak_node_for_deliver(),
                    InKind::Deliver { from, msg },
                ),
                DesEvent::Wake => (key.tiebreak as usize, InKind::Wake),
            };
            let mut g = self.cells[node].lock().expect("cell");
            if matches!(kind, InKind::Wake) {
                // The enqueued entry just left the queue.
                g.enqueued_wake = Micros::MAX;
            }
            if g.inbox.is_empty() {
                touched.push(node);
            }
            g.inbox.push(InEvent {
                hint,
                time: key.time,
                kind,
            });
        }
        if touched.is_empty() {
            return;
        }
        touched.sort_unstable();

        // Work units: one per honest node; all malicious nodes together,
        // so the shared coalition state mutates in canonical order.
        let n_honest = self.cfg.sim.n_users - self.cfg.sim.n_malicious;
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut malicious_unit: Vec<usize> = Vec::new();
        for &n in &touched {
            if n < n_honest {
                units.push(vec![n]);
            } else {
                malicious_unit.push(n);
            }
        }
        if !malicious_unit.is_empty() {
            units.push(malicious_unit);
        }

        // Phase 2 — node phase, parallel when it pays off.
        let ctx = UnitCtx {
            window_end,
            relay_all_blocks: self.cfg.sim.relay_all_blocks,
            ignore_catchup: self.cfg.sim.injected_bug
                == Some(crate::harness::InjectedBug::IgnoreCatchupResponses),
        };
        let cells = &self.cells;
        let workers = self.cfg.workers.max(1);
        if workers == 1 || units.len() < 2 || n_events < PARALLEL_THRESHOLD {
            for unit in &units {
                process_unit(cells, unit, &ctx);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let units_ref = &units;
            let ctx_ref = &ctx;
            std::thread::scope(|s| {
                for _ in 0..workers.min(units.len()) - 1 {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(unit) = units_ref.get(i) else { break };
                        process_unit(cells, unit, ctx_ref);
                    });
                }
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(unit) = units_ref.get(i) else { break };
                    process_unit(cells, unit, ctx_ref);
                }
            });
        }

        // Phase 3 — barrier: replay intents canonically, then merge
        // traces and arm wakes.
        let mut intents: Vec<Intent> = Vec::new();
        for &n in &touched {
            let mut g = self.cells[n].lock().expect("cell");
            intents.append(&mut g.outbox);
        }
        // (hint, seq) is unique: hints are per-event, and a chained wake
        // sharing its trigger's hint continues the same cell's seq run.
        intents.sort_unstable_by_key(|i| (i.hint, i.seq));
        for intent in intents {
            match intent.kind {
                IntentKind::Forward { ref msg, exclude } => {
                    let peers: Vec<usize> = self.topology.neighbors(intent.from).to_vec();
                    for p in peers {
                        if Some(p) == exclude {
                            continue;
                        }
                        self.transmit(intent.from, p, msg, intent.time, intent.hint);
                    }
                }
                IntentKind::Split { ref a, ref b } => {
                    let peers: Vec<usize> = self.topology.neighbors(intent.from).to_vec();
                    for (idx, &p) in peers.iter().enumerate() {
                        let msg = if idx % 2 == 0 { a } else { b };
                        self.transmit(intent.from, p, msg, intent.time, intent.hint);
                    }
                }
            }
        }
        for &n in &touched {
            let mut g = self.cells[n].lock().expect("cell");
            if g.next_wake < g.enqueued_wake {
                g.enqueued_wake = g.next_wake;
                let key = OrderKey {
                    time: g.next_wake,
                    class: CLASS_WAKE,
                    tiebreak: n as u64,
                };
                self.queue.schedule(key, DesEvent::Wake);
            }
        }
        self.flush_traces();
    }

    /// Serializes one transmission onto the shared network, tracing the
    /// hop and pre-warming the verification cache, and schedules the
    /// delivery under the next canonical sequence number.
    fn transmit(&mut self, from: usize, to: usize, msg: &Arc<SimMsg>, now: Micros, hint: u64) {
        let size = {
            let g = self.cells[to].lock().expect("cell");
            if msg.pull_based && g.relay.has_seen(&msg.id) {
                ANNOUNCE_SIZE.min(msg.size)
            } else {
                msg.size
            }
        };
        if let Some(arrival) = self.net.transmit(from, to, size, now) {
            if self.engine_tracer.is_enabled() {
                self.trace_hop(from, to, msg, size, now, arrival, hint);
            }
            {
                let g0 = self.cells[0].lock().expect("cell");
                self.prewarm.enqueue(
                    msg,
                    g0.slot.node().chain(),
                    &self.cfg.sim.params,
                    &self.pool,
                    &self.verifier,
                );
            }
            let seq = self.next_order();
            self.queue.schedule(
                OrderKey {
                    time: arrival,
                    class: CLASS_DELIVER,
                    // The low bits carry the target node so extraction
                    // can route without a payload peek; see OrderKey ext.
                    tiebreak: pack_deliver_tiebreak(seq, to),
                },
                DesEvent::Deliver {
                    from,
                    msg: msg.clone(),
                },
            );
        }
    }

    /// Per-kind byte accounting plus one causally stamped gossip-hop
    /// span per content transfer (same rules as the serial runner).
    #[allow(clippy::too_many_arguments)]
    fn trace_hop(
        &mut self,
        from: usize,
        to: usize,
        msg: &Arc<SimMsg>,
        size: usize,
        now: Micros,
        arrival: Micros,
        hint: u64,
    ) {
        let full_body = size == msg.size;
        let hop = match &msg.wire {
            WireMessage::Vote(v) => {
                self.kind_bytes.vote += size as u64;
                Some(("vote", v.round))
            }
            WireMessage::Priority(p) => {
                self.kind_bytes.priority += size as u64;
                Some(("priority", p.round))
            }
            WireMessage::Block(b) => {
                self.kind_bytes.block += size as u64;
                full_body.then_some(("block_body", b.block.round))
            }
            WireMessage::ForkProposal(f) => {
                self.kind_bytes.fork += size as u64;
                full_body.then_some(("fork_body", f.block.round))
            }
            WireMessage::Transaction(_) => {
                self.kind_bytes.tx += size as u64;
                None
            }
            WireMessage::CatchupRequest { .. } | WireMessage::CatchupResponse(_) => {
                self.kind_bytes.catchup += size as u64;
                None
            }
        };
        if let Some((label, round)) = hop {
            self.engine_tracer.set_order_hint(hint);
            self.engine_tracer
                .span(SpanKind::GossipHop, to as u32, round, now)
                .label(label)
                .id(stable_id(&msg.id))
                .peer(from as u32)
                .value(size as u64)
                .end_at(arrival);
        }
    }

    /// Drains every per-node tracer plus the engine tracer, merges by
    /// hint into one canonical stream, feeds the invariant monitor the
    /// *full* stream, and retains events under the per-node budget.
    fn flush_traces(&mut self) {
        if !self.engine_tracer.is_enabled() {
            return;
        }
        let mut batch: Vec<(u64, TraceEvent)> = Vec::new();
        for cell in &self.cells {
            let g = cell.lock().expect("cell");
            batch.extend(g.tracer.drain_with_hints());
        }
        // Engine spans last: at an equal hint, the node's own events
        // precede the hops they caused (stable sort keeps source order).
        batch.extend(self.engine_tracer.drain_with_hints());
        batch.sort_by_key(|(h, _)| *h);
        if let Some(feed) = &mut self.monitor_feed {
            for (_, ev) in &batch {
                feed.observe(ev);
            }
        }
        let budget = self.cfg.trace_node_budget;
        for (_, ev) in batch {
            let n = ev.node;
            if budget > 0 && n != NO_NODE {
                let count = &mut self.retained_per_node[n as usize];
                if *count >= budget {
                    self.trimmed += 1;
                    continue;
                }
                *count += 1;
            }
            self.retained.push(ev);
        }
    }

    // --- Sequential-phase dispatch (start, inject, restart) -----------------

    /// Immediately fans node-originated messages out onto the network —
    /// only callable from sequential phases.
    fn dispatch_sequential(
        &mut self,
        from: usize,
        outgoing: Vec<Outgoing>,
        now: Micros,
        hint: u64,
    ) {
        for o in outgoing {
            match o {
                Outgoing::Broadcast(wire) => {
                    let msg = SimMsg::new(wire);
                    self.cells[from]
                        .lock()
                        .expect("cell")
                        .relay
                        .classify(msg.id, msg.relay_slot);
                    let peers: Vec<usize> = self.topology.neighbors(from).to_vec();
                    for p in peers {
                        self.transmit(from, p, &msg, now, hint);
                    }
                }
                Outgoing::Split(wire_a, wire_b) => {
                    let msg_a = SimMsg::new(wire_a);
                    let msg_b = SimMsg::new(wire_b);
                    {
                        let mut g = self.cells[from].lock().expect("cell");
                        g.relay.classify(msg_a.id, msg_a.relay_slot);
                        g.relay.classify(msg_b.id, msg_b.relay_slot);
                    }
                    let peers: Vec<usize> = self.topology.neighbors(from).to_vec();
                    for (idx, &p) in peers.iter().enumerate() {
                        let msg = if idx % 2 == 0 { &msg_a } else { &msg_b };
                        self.transmit(from, p, msg, now, hint);
                    }
                }
            }
        }
    }

    /// Arms node `i`'s wake from its current deadline (sequential
    /// phases).
    fn reschedule_sequential(&mut self, i: usize) {
        let mut g = self.cells[i].lock().expect("cell");
        if let Some(d) = g.slot.next_deadline() {
            let d = harness::unskewed_global(d, g.clock_skew);
            if d < g.next_wake {
                g.next_wake = d;
            }
        }
        if g.next_wake < g.enqueued_wake {
            g.enqueued_wake = g.next_wake;
            let key = OrderKey {
                time: g.next_wake,
                class: CLASS_WAKE,
                tiebreak: i as u64,
            };
            drop(g);
            self.queue.schedule(key, DesEvent::Wake);
        }
    }

    /// Injects the next workload payment (global event).
    fn inject_next_tx(&mut self, now: Micros) {
        let Some(mut wl) = self.workload.take() else {
            return;
        };
        if wl.remaining == 0 {
            self.workload = Some(wl);
            return;
        }
        let crashed: Vec<bool> = self
            .cells
            .iter()
            .map(|c| c.lock().expect("cell").crashed)
            .collect();
        let schedule_next = |sim: &mut ParallelSim, at: Micros| {
            let seq = sim.next_order();
            sim.globals
                .push(std::cmp::Reverse((at, seq, GlobalKind::Inject)));
        };
        match wl.plan(&crashed) {
            InjectStep::Quiet => {
                self.workload = Some(wl);
            }
            InjectStep::Retry => {
                let at = now + wl.interval;
                self.workload = Some(wl);
                schedule_next(self, at);
            }
            InjectStep::Pay { sender, to, amount } => {
                let tx = wl.payment(&self.keypairs, sender, to, amount);
                let hint = self.next_order();
                let submitted = {
                    let mut g = self.cells[sender].lock().expect("cell");
                    g.tracer.set_order_hint(hint);
                    g.slot.node_mut().submit_transaction(tx.clone())
                };
                if let Some(msg) = submitted {
                    wl.commit(
                        sender,
                        amount,
                        TxRecord {
                            id: tx.id(),
                            sender,
                            submitted: now,
                        },
                    );
                    let at = now + wl.interval;
                    let again = wl.remaining > 0;
                    self.workload = Some(wl);
                    self.dispatch_sequential(sender, vec![Outgoing::Broadcast(msg)], now, hint);
                    if again {
                        schedule_next(self, at);
                    }
                } else {
                    let at = now + wl.interval;
                    self.workload = Some(wl);
                    schedule_next(self, at);
                }
            }
        }
    }

    /// Applies one scripted fault (global event).
    fn apply_fault(&mut self, action: FaultAction, now: Micros) {
        if self.engine_tracer.is_enabled() {
            let (label, node) = match &action {
                FaultAction::Partition(_) => ("partition", NO_NODE),
                FaultAction::Heal => ("heal", NO_NODE),
                FaultAction::Loss(_) => ("loss", NO_NODE),
                FaultAction::DelaySpike { .. } => ("delay_spike", NO_NODE),
                FaultAction::DelayClear => ("delay_clear", NO_NODE),
                FaultAction::Crash(i) => ("crash", *i as u32),
                FaultAction::Restart(i) => ("restart", *i as u32),
                FaultAction::ClockSkew { node, .. } => ("clock_skew", *node as u32),
            };
            let hint = self.next_order();
            self.engine_tracer.set_order_hint(hint);
            self.engine_tracer
                .span(SpanKind::Fault, node, 0, now)
                .label(label)
                .instant();
        }
        match action {
            FaultAction::Partition(spec) => {
                self.partitions_activated += 1;
                self.net.set_partition(Some(spec));
            }
            FaultAction::Heal => self.net.set_partition(None),
            FaultAction::Loss(prob) => self.net.set_loss_prob(prob),
            FaultAction::DelaySpike { factor, extra } => {
                self.net.set_delay_spike(Some((factor, extra)));
            }
            FaultAction::DelayClear => self.net.set_delay_spike(None),
            FaultAction::Crash(i) => self.crash_node(i),
            FaultAction::Restart(i) => self.restart_node(i, now),
            FaultAction::ClockSkew { node, skew } => {
                self.cells[node].lock().expect("cell").clock_skew = skew;
                self.reschedule_sequential(node);
            }
        }
    }

    fn crash_node(&mut self, i: usize) {
        let mut g = self.cells[i].lock().expect("cell");
        if g.crashed {
            return;
        }
        let Slot::Honest(node) = &g.slot else {
            debug_assert!(false, "chaos scripts crash honest nodes only");
            return;
        };
        g.snapshot = Some(node.snapshot());
        g.crashed = true;
        g.next_wake = Micros::MAX;
    }

    fn restart_node(&mut self, i: usize, now: Micros) {
        let hint = self.next_order();
        let (outgoing, local) = {
            let mut g = self.cells[i].lock().expect("cell");
            if !g.crashed {
                return;
            }
            let snapshot = g.snapshot.take().unwrap_or_default();
            if let Slot::Honest(old) = &g.slot {
                self.carry.entry(i).or_default().fold_from(old);
            }
            let alloc: Vec<_> = self
                .keypairs
                .iter()
                .map(|k| (k.pk, self.cfg.sim.stake_per_user))
                .collect();
            let genesis = Blockchain::new(self.cfg.sim.params.chain, alloc, GENESIS_SEED);
            let local = harness::skewed_local(now, g.clock_skew);
            let mut node = Node::restore(
                self.keypairs[i].clone(),
                genesis,
                self.cfg.sim.params,
                self.verifier.clone(),
                &snapshot,
                local,
            );
            node.payload_bytes = self.cfg.sim.payload_bytes;
            node.block_tx_bytes = self.cfg.sim.block_tx_bytes;
            node.set_tracer(g.tracer.clone(), i as u32);
            node.pool
                .set_metrics(PoolMetrics::registered(&self.registry));
            g.slot = Slot::Honest(Box::new(node));
            g.relay = RelayState::with_metrics(RelayMetrics::registered(&self.registry));
            g.crashed = false;
            g.tracer.set_order_hint(hint);
            let outgoing = g.slot.start(local);
            (outgoing, local)
        };
        self.restarts += 1;
        let _ = local;
        self.dispatch_sequential(i, outgoing, now, hint);
        self.reschedule_sequential(i);
    }

    fn next_order(&mut self) -> u64 {
        self.order += 1;
        self.order
    }

    // --- Results and reports -------------------------------------------------

    /// The current virtual time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &DesConfig {
        &self.cfg
    }

    /// The network (bytes accounting).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Honest node 0's chain tip round (progress probe).
    pub fn tip_round(&self, i: usize) -> u64 {
        self.cells[i]
            .lock()
            .expect("cell")
            .slot
            .node()
            .chain()
            .tip()
            .round
    }

    /// A digest of every honest node's canonical chain — must be
    /// byte-identical for any worker count at the same seed.
    pub fn chain_digest(&self) -> [u8; 32] {
        let guards: Vec<_> = self.cells.iter().map(|c| c.lock().expect("cell")).collect();
        let slots: Vec<&Slot> = guards.iter().map(|g| &g.slot).collect();
        harness::chain_digest(&slots)
    }

    /// Per-honest-node round records including pre-crash history.
    pub fn combined_records(&self) -> Vec<Vec<RoundRecord>> {
        let guards: Vec<_> = self.cells.iter().map(|c| c.lock().expect("cell")).collect();
        let slots: Vec<&Slot> = guards.iter().map(|g| &g.slot).collect();
        harness::combined_records(&slots, &self.carry)
    }

    /// Aggregated staged-pipeline counters.
    pub fn pipeline_report(&self) -> PipelineReport {
        let guards: Vec<_> = self.cells.iter().map(|c| c.lock().expect("cell")).collect();
        let slots: Vec<&Slot> = guards.iter().map(|g| &g.slot).collect();
        harness::pipeline_report(&slots, &self.carry, &self.verifier, &self.pool)
    }

    /// Fault-injection and recovery counters.
    pub fn fault_report(&self) -> FaultReport {
        let guards: Vec<_> = self.cells.iter().map(|c| c.lock().expect("cell")).collect();
        let slots: Vec<&Slot> = guards.iter().map(|g| &g.slot).collect();
        harness::fault_report(
            &slots,
            &self.carry,
            &self.net,
            self.partitions_activated,
            self.restarts,
        )
    }

    /// End-to-end transaction metrics for the workload (if one ran).
    pub fn tx_stats(&self) -> Option<TxStats> {
        let wl = self.workload.as_ref()?;
        let combined = self.combined_records();
        let g0 = self.cells[0].lock().expect("cell");
        Some(harness::tx_stats(
            &wl.injected,
            g0.slot.node().chain(),
            &combined,
        ))
    }

    /// The transactions the workload has injected so far.
    pub fn injected_txs(&self) -> Vec<TxRecord> {
        self.workload
            .as_ref()
            .map_or_else(Vec::new, |wl| wl.injected.clone())
    }

    /// The invariant monitor's report, if one was attached. The monitor
    /// is fed the canonically merged stream, so its verdicts are
    /// worker-count independent too.
    pub fn monitor_report(&mut self) -> Option<MonitorReport> {
        self.flush_traces();
        self.monitor.as_ref().map(MonitorHandle::report)
    }

    /// Events dropped by tracer buffer caps (0 = complete stream).
    pub fn trace_dropped(&self) -> u64 {
        let mut dropped = self.engine_tracer.dropped();
        for cell in &self.cells {
            dropped += cell.lock().expect("cell").tracer.dropped();
        }
        dropped
    }

    /// Events deliberately trimmed by the per-node retention budget.
    pub fn trace_trimmed(&self) -> u64 {
        self.trimmed
    }

    /// Number of retained (exportable) trace events.
    pub fn trace_retained(&self) -> usize {
        self.retained.len()
    }

    /// The process-wide metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Exports the canonically merged trace as byte-stable JSONL, with
    /// the same bandwidth summary records as the serial runner and a
    /// `trimmed` count in the header when the per-node budget dropped
    /// events.
    pub fn export_trace(&mut self, schedule: &str) -> String {
        self.flush_traces();
        let mut events: Vec<TraceEvent> = self.retained.clone();
        let now = self.now;
        let summary = |node: u32, label: &'static str, value: u64| TraceEvent {
            kind: SpanKind::GossipHop,
            node,
            round: 0,
            step: 0,
            label: label.into(),
            start: 0,
            end: now,
            value,
            ok: true,
            id: 0,
            cause: 0,
            peer: NO_NODE,
        };
        for i in 0..self.cfg.sim.n_users {
            events.push(summary(i as u32, "uplink_total", self.net.bytes_sent(i)));
            events.push(summary(
                i as u32,
                "downlink_total",
                self.net.bytes_received(i),
            ));
        }
        if self.engine_tracer.is_enabled() {
            for (label, bytes) in self.kind_bytes.summary() {
                events.push(summary(NO_NODE, label, bytes));
            }
        }
        write_jsonl_trimmed(
            self.cfg.sim.seed,
            schedule,
            self.trace_dropped(),
            self.trimmed,
            &events,
        )
    }
}

impl OrderKey {
    /// The target node a delivery was routed to (packed into the low
    /// tiebreak bits by [`pack_deliver_tiebreak`]).
    fn tiebreak_node_for_deliver(&self) -> usize {
        (self.tiebreak & NODE_MASK) as usize
    }
}

/// Low bits of a delivery tiebreak carry the target node id so window
/// extraction can route events without inspecting payloads; high bits
/// carry the canonical sequence number, which keeps the full key
/// strictly increasing in schedule order (node ids only break ties that
/// cannot occur).
const NODE_BITS: u64 = 20;
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;

fn pack_deliver_tiebreak(seq: u64, node: usize) -> u64 {
    debug_assert!((node as u64) <= NODE_MASK);
    (seq << NODE_BITS) | (node as u64 & NODE_MASK)
}

/// Read-only context shared by every work unit in one window.
struct UnitCtx {
    window_end: Micros,
    relay_all_blocks: bool,
    /// Planted defect: honest ingest swallows catch-up responses.
    ignore_catchup: bool,
}

/// Processes every inbox event of one work unit's cells in canonical
/// key order, including chained wakes that land inside the window. Only
/// per-node state is touched; sends become buffered intents.
fn process_unit(cells: &[Mutex<NodeCell>], unit: &[usize], ctx: &UnitCtx) {
    let mut guards: Vec<MutexGuard<NodeCell>> = unit
        .iter()
        .map(|&i| cells[i].lock().expect("cell"))
        .collect();
    let inboxes: Vec<Vec<InEvent>> = guards
        .iter_mut()
        .map(|g| std::mem::take(&mut g.inbox))
        .collect();
    let mut cursor = vec![0usize; guards.len()];
    loop {
        // Pick the smallest (time, class, tiebreak) among every cell's
        // next inbox entry and pending in-window wake; on an exact tie
        // between an inbox wake and the cell's own pending wake (the
        // same wake, seen twice) consume the inbox entry.
        let mut best: Option<((Micros, u8, u64), usize, bool)> = None;
        for (ci, g) in guards.iter().enumerate() {
            if let Some(e) = inboxes[ci].get(cursor[ci]) {
                let k = (e.time, e.class(), e.tiebreak(g.id));
                if best.is_none_or(|(bk, _, bl)| k < bk || (k == bk && bl)) {
                    best = Some((k, ci, false));
                }
            }
            if !g.crashed && g.next_wake < ctx.window_end {
                let k = (g.next_wake, CLASS_WAKE, g.id as u64);
                if best.is_none_or(|(bk, _, _)| k < bk) {
                    best = Some((k, ci, true));
                }
            }
        }
        let Some((_, ci, local)) = best else { break };
        let g = &mut guards[ci];
        if local {
            let t = g.next_wake;
            let hint = g.last_hint;
            run_wake(g, t, hint, false, ctx);
        } else {
            let e = &inboxes[ci][cursor[ci]];
            cursor[ci] += 1;
            match &e.kind {
                InKind::Wake => run_wake(g, e.time, e.hint, true, ctx),
                InKind::Deliver { from, msg } => run_deliver(g, e.time, e.hint, *from, msg, ctx),
            }
        }
    }
}

/// One message delivery on a node (parallel phase).
fn run_deliver(
    g: &mut NodeCell,
    time: Micros,
    hint: u64,
    from: usize,
    msg: &Arc<SimMsg>,
    ctx: &UnitCtx,
) {
    if g.crashed {
        return; // In-flight packets to a dead process.
    }
    if ctx.ignore_catchup && matches!(msg.wire, WireMessage::CatchupResponse(_)) {
        return; // Planted defect: ingest drops it.
    }
    g.last_hint = hint;
    g.tracer.set_order_hint(hint);
    let decision = g.relay.classify(msg.id, msg.relay_slot);
    if decision == RelayDecision::Duplicate {
        return;
    }
    let now_t = harness::skewed_local(time, g.clock_skew);
    let outgoing = g.slot.on_message(&msg.wire, now_t);
    // §6 discard rules, identical to the serial runner.
    let discard = g.slot.discards(&msg.wire, ctx.relay_all_blocks);
    if decision == RelayDecision::Relay && !discard {
        let seq = g.out_seq;
        g.out_seq += 1;
        g.outbox.push(Intent {
            hint,
            seq,
            // Relay-forward happens on the node's local clock, exactly
            // as on the serial runner.
            time: now_t,
            from: g.id,
            kind: IntentKind::Forward {
                msg: msg.clone(),
                exclude: Some(from),
            },
        });
    }
    buffer_outgoing(g, hint, time, outgoing);
    let round = g.slot.node().current_round();
    let horizon = g.slot.node().params().relay_stall_horizon();
    g.relay.prune(round, time, horizon);
    reschedule_local(g);
}

/// One timer wake on a node (parallel phase). `from_inbox` wakes carry
/// the staleness check; local chained wakes are exact by construction.
fn run_wake(g: &mut NodeCell, t: Micros, hint: u64, from_inbox: bool, _ctx: &UnitCtx) {
    if g.crashed {
        return;
    }
    if from_inbox && g.next_wake > t {
        return; // Stale: a newer wake supersedes this entry.
    }
    g.next_wake = Micros::MAX;
    g.last_hint = hint;
    g.tracer.set_order_hint(hint);
    let local = harness::skewed_local(t, g.clock_skew);
    let outgoing = g.slot.on_tick(local);
    buffer_outgoing(g, hint, t, outgoing);
    let round = g.slot.node().current_round();
    let horizon = g.slot.node().params().relay_stall_horizon();
    g.relay.prune(round, t, horizon);
    reschedule_local(g);
}

/// Buffers node-originated messages as send intents (the serial
/// runner's `dispatch`, deferred to the barrier). Origin-relay marking
/// is per-node state and happens here.
fn buffer_outgoing(g: &mut NodeCell, hint: u64, global_time: Micros, outgoing: Vec<Outgoing>) {
    for o in outgoing {
        match o {
            Outgoing::Broadcast(wire) => {
                let msg = SimMsg::new(wire);
                // Mark as seen so an echoed copy is not re-processed.
                g.relay.classify(msg.id, msg.relay_slot);
                let seq = g.out_seq;
                g.out_seq += 1;
                g.outbox.push(Intent {
                    hint,
                    seq,
                    time: global_time,
                    from: g.id,
                    kind: IntentKind::Forward { msg, exclude: None },
                });
            }
            Outgoing::Split(wire_a, wire_b) => {
                let a = SimMsg::new(wire_a);
                let b = SimMsg::new(wire_b);
                g.relay.classify(a.id, a.relay_slot);
                g.relay.classify(b.id, b.relay_slot);
                let seq = g.out_seq;
                g.out_seq += 1;
                g.outbox.push(Intent {
                    hint,
                    seq,
                    time: global_time,
                    from: g.id,
                    kind: IntentKind::Split { a, b },
                });
            }
        }
    }
}

/// Folds the node's next deadline into its pending wake (parallel
/// phase: cell state only; the barrier arms the shared queue).
fn reschedule_local(g: &mut NodeCell) {
    if let Some(d) = g.slot.next_deadline() {
        let d = harness::unskewed_global(d, g.clock_skew);
        if d < g.next_wake {
            g.next_wake = d;
        }
    }
}
