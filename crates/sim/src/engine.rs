//! The simulation engine: step loop, message queues, node lifecycle.
//!
//! The step loop is the hot path of every experiment, so it is written to be
//! allocation-free in steady state: messages live in per-destination buckets
//! that are double-buffered across steps (no global sort), and handler output
//! goes through one reusable scratch buffer instead of a fresh `Vec` per call.
//!
//! # Sharded execution
//!
//! The engine partitions nodes across `S` [`Shard`]s (round-robin by id;
//! `S = 1` by default, reproducing the classic single-threaded behavior).
//! Each [`step`](Sim::step), shards advance their nodes **in parallel** on a
//! persistent pool of worker threads (spawned once in
//! [`Sim::new_sharded`], parked between steps, joined on drop — a
//! steady-state step spawns zero threads): deliveries, handler invocations,
//! ticks and loss sampling all happen shard-locally (every node owns a
//! private RNG stream, so no draw ever crosses a shard). Sends land in
//! per-destination-shard staging outboxes that the engine exchanges at the
//! step barrier, merging them into the destination buckets in a canonical
//! order — deliver-phase sends before tick-phase sends, each sorted by sender
//! id, which is exactly the order a single shard produces naturally. Every
//! handler therefore sees the same messages in the same order with the same
//! RNG state whatever `S` is: **a run is byte-identical for `S = 1` and
//! `S = N`.**

use std::sync::Arc;

use rand::SeedableRng;

use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::process::{Context, Message, NodeId, Process, SimRng, Step};
use crate::shard::{Phase, Shard, Staged};

/// Derives node `index`'s private RNG stream from the simulation seed by
/// mixing the index into the seed (golden-ratio multiply, then the
/// `seed_from_u64` SplitMix64 expansion). What matters for the engine is
/// that the stream is a pure function of `(seed, index)` — independent of
/// every other node and of the shard layout. Note: the vendored
/// `rand_chacha` stand-in has no `set_stream`, so this is a seed-mix
/// derivation, not the ChaCha stream-counter construction; switch to
/// `set_stream(index)` if the real crate ever lands.
pub(crate) fn node_rng(seed: u64, index: usize) -> SimRng {
    SimRng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Salt separating a node's **latency** stream from its protocol stream.
/// Latency draws happen at enqueue (once per message into the node) while
/// protocol and loss draws happen inside the node's handlers; giving the two
/// different streams means neither sequence can perturb the other — which is
/// what lets a latency model be swapped in without reshuffling a single
/// protocol draw, and the unit model (no draws at all) replay the
/// pre-event-queue engine byte-for-byte.
const LATENCY_STREAM_SALT: u64 = 0x6C61_7465_6E63_795F;

/// Derives node `index`'s dedicated latency stream: `node_rng` over a salted
/// seed. A pure function of `(seed, index)`, so shards can derive streams
/// lazily (on the first sampled message into a node) and the result is
/// independent of the shard layout and of when the node joined.
pub(crate) fn latency_rng(seed: u64, index: usize) -> SimRng {
    node_rng(seed ^ LATENCY_STREAM_SALT, index)
}

/// A deterministic discrete-event simulator over a protocol `P`.
///
/// Messages are timestamped events: each is enqueued with a delivery time
/// `now + latency(link)` into a per-shard timing wheel, with the latency
/// sampled from the destination's dedicated stream per the installed
/// [`LatencyModel`] ([`set_latency`](Sim::set_latency)). The default unit
/// model makes every latency exactly 1 without drawing — the classic
/// cycle-based engine is the latency ≡ 1 special case, byte for byte.
///
/// See the [crate docs](crate) for the execution model. The engine is generic: the
/// DPS overlay, the broadcast baseline and the test protocols all run on it
/// unchanged.
pub struct Sim<P: Process> {
    /// The execution shards; node with global index `i` lives in
    /// `shards[i % S]` at local slot `i / S`. Always at least one.
    shards: Vec<Shard<P>>,
    /// Persistent shard workers, spawned once for `S > 1` (never for the
    /// serial layout) and joined when the simulation is dropped. `step`
    /// hands each shard to its worker by ownership transfer and collects
    /// them back at the barrier — no thread is spawned after construction.
    pool: Option<WorkerPool<P>>,
    /// Nodes ever added (dense global ids `0..total_nodes`).
    total_nodes: usize,
    now: Step,
    /// Link-fault schedule (partitions, lossy links), enforced at delivery.
    /// Behind an `Arc` so each step can hand the workers a reference-counted
    /// handle instead of cloning the plan; driver mutations between steps go
    /// through `Arc::make_mut` (which never actually clones there, because
    /// the barrier has already collected every worker's handle).
    fault: Arc<FaultPlan>,
    /// Driver-level RNG: scenario choices made *between* steps (picking a
    /// crash victim, a publisher). Protocol handlers use per-node streams.
    rng: SimRng,
    /// Seed the per-node streams are derived from.
    seed: u64,
    /// Metrics window length, applied to every shard partial.
    metrics_window: Step,
    /// The link-latency model (shards hold clones of the same `Arc`).
    /// Default [`LatencyModel::Unit`]: the classic cycle engine.
    latency: Arc<LatencyModel>,
}

/// A cheap copyable summary of the state of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSnapshot {
    /// Current step.
    pub now: Step,
    /// Nodes ever added.
    pub total_nodes: usize,
    /// Nodes currently alive.
    pub alive_nodes: usize,
    /// Deliverable messages waiting in the timing wheel, across all future
    /// delivery times (messages queued to nodes that have since crashed are
    /// purged and not counted).
    pub in_flight: usize,
}

impl<P: Process> Sim<P> {
    /// Creates an empty simulation with the given RNG seed and a single shard
    /// (classic serial execution). Two runs with the same seed and the same
    /// sequence of calls produce identical traces.
    pub fn new(seed: u64) -> Self {
        Sim::new_sharded(seed, 1)
    }

    /// Creates an empty simulation executing on `shards` parallel shards
    /// (clamped to at least 1). The trace, metrics and every observable
    /// outcome are **byte-identical** to `Sim::new(seed)` — sharding only
    /// changes how many cores a step uses. Nodes are assigned round-robin:
    /// global id `i` lives in shard `i % shards`.
    ///
    /// For `shards > 1` this spawns the persistent worker pool (one thread
    /// per shard, parked between steps); the workers live exactly as long as
    /// the `Sim` and are joined when it drops. `shards = 1` spawns nothing
    /// and steps inline, exactly like [`Sim::new`].
    ///
    /// ```
    /// use dps_sim::{Context, Message, MsgClass, NodeId, Process, Sim};
    ///
    /// #[derive(Clone, Debug)]
    /// struct Hop(u32);
    /// impl Message for Hop {
    ///     fn class(&self) -> MsgClass { MsgClass::Management }
    /// }
    /// struct Counter(u32);
    /// impl Process for Counter {
    ///     type Msg = Hop;
    ///     fn on_message(&mut self, _from: NodeId, msg: Hop, ctx: &mut Context<'_, Hop>) {
    ///         self.0 += 1;
    ///         if msg.0 > 0 {
    ///             let next = NodeId::from_index((ctx.me().index() + 1) % 8);
    ///             ctx.send(next, Hop(msg.0 - 1));
    ///         }
    ///     }
    /// }
    ///
    /// // The same run on one shard and on four: identical observables.
    /// let run = |shards: usize| {
    ///     let mut sim = Sim::new_sharded(99, shards);
    ///     for _ in 0..8 { sim.add_node(Counter(0)); }
    ///     sim.post(NodeId::from_index(0), Hop(25));
    ///     sim.run(40); // workers (if any) persist across all 40 steps
    ///     let hops: Vec<u32> = sim.node_ids().iter().map(|n| sim.node(*n).unwrap().0).collect();
    ///     (hops, sim.snapshot())
    /// };
    /// assert_eq!(run(1), run(4));
    /// // Dropping `sim` joined the 4 workers; nothing outlives the run.
    /// ```
    pub fn new_sharded(seed: u64, shards: usize) -> Self {
        let n = shards.max(1);
        let metrics_window = 100;
        Sim {
            shards: (0..n)
                .map(|i| Shard::new(i, n, metrics_window, seed))
                .collect(),
            pool: (n > 1).then(|| WorkerPool::spawn(n)),
            total_nodes: 0,
            now: 0,
            fault: Arc::new(FaultPlan::none()),
            rng: SimRng::seed_from_u64(seed),
            seed,
            metrics_window,
            latency: Arc::new(LatencyModel::Unit),
        }
    }

    /// Installs the link-latency model for this run. Must be called **before
    /// anything is queued** — on a fresh simulation, prior to `add_node`
    /// (whose `on_start` sends would otherwise be enqueued under the old
    /// model) — and panics otherwise, or if the model's ranges are invalid.
    ///
    /// The default is [`LatencyModel::Unit`]: every link takes exactly one
    /// step and **no latency stream is ever derived or drawn from**, which
    /// keeps unit-latency runs byte-identical to the classic cycle-based
    /// engine. Any other model sizes each shard's timing wheel to
    /// `max_latency + 1` slots and samples per message from the destination
    /// node's dedicated latency stream.
    pub fn set_latency(&mut self, model: LatencyModel) {
        if let Err(e) = model.validate() {
            panic!("invalid latency model: {e}");
        }
        assert_eq!(
            self.now, 0,
            "set_latency must be called before the first step"
        );
        assert_eq!(
            self.snapshot().in_flight,
            0,
            "set_latency must be called before any message is enqueued"
        );
        let wheel_len = (model.max_latency() + 1).max(2) as usize;
        let model = Arc::new(model);
        for sh in &mut self.shards {
            sh.latency = Arc::clone(&model);
            sh.wheel.clear();
            sh.wheel.resize_with(wheel_len, Vec::new);
        }
        self.latency = model;
    }

    /// The link-latency model in force.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Number of execution shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard index and local slot of global node index `i`.
    fn locate(&self, i: usize) -> (usize, usize) {
        (i % self.n_shards(), i / self.n_shards())
    }

    /// The link-fault schedule in force (default: no faults).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Mutable access to the fault schedule: scenario drivers start
    /// partitions, heal them and set loss rates through this. Driver calls
    /// run between steps, when no worker holds a plan handle, so the
    /// copy-on-write below is a plain in-place mutation in practice.
    pub fn fault_plan_mut(&mut self) -> &mut FaultPlan {
        Arc::make_mut(&mut self.fault)
    }

    /// Replaces the fault schedule wholesale.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Arc::new(plan);
    }

    /// Sets the metrics window length in steps (default 100, the sampling period
    /// used throughout the paper's §5.2.1). Resets collected metrics.
    pub fn set_metrics_window(&mut self, steps: Step) {
        self.metrics_window = steps;
        for sh in &mut self.shards {
            sh.metrics = Metrics::new(steps);
            // Align the fresh collector with the current step: rolling is
            // otherwise only done once per step(), so traffic recorded before
            // the next step would be stamped into the window starting at 0.
            sh.metrics.roll_to(self.now);
        }
    }

    /// Adds a node running `proc`; `on_start` fires immediately (its sends are
    /// delivered at the next step). Returns the new node's id.
    pub fn add_node(&mut self, proc: P) -> NodeId {
        let idx = self.total_nodes;
        let id = NodeId::from_index(idx);
        let (s, l) = self.locate(idx);
        self.total_nodes += 1;
        let shard = &mut self.shards[s];
        debug_assert_eq!(shard.procs.len(), l, "round-robin assignment broken");
        shard.procs.push(proc);
        shard.alive.push(true);
        shard.rngs.push(node_rng(self.seed, idx));
        shard.alive_count += 1;
        // Note: the node's dedicated latency stream is NOT derived here —
        // `lat_rngs` grows lazily at the first sampled enqueue, and may
        // already cover this slot (messages can be addressed to a node
        // before it joins; the partially consumed stream must survive).
        let mut ctx = Context {
            me: id,
            now: self.now,
            rng: &mut shard.rngs[l],
            out: &mut shard.scratch_out,
        };
        shard.procs[l].on_start(&mut ctx);
        self.flush_outgoing(id);
        id
    }

    /// Crashes a node: it stops processing and all messages addressed to it are
    /// dropped. Idempotent. Crashing is silent — neighbors only find out through
    /// their own failure-detection traffic, as in the paper.
    ///
    /// Messages already queued to the victim are purged immediately (accounted
    /// as [`DropReason`](crate::DropReason)`::Crashed`), so
    /// [`SimSnapshot::in_flight`] keeps counting deliverable messages only.
    pub fn crash(&mut self, id: NodeId) {
        if id.index() >= self.total_nodes {
            return;
        }
        let (s, l) = self.locate(id.index());
        let shard = &mut self.shards[s];
        if let Some(alive) = shard.alive.get_mut(l) {
            if *alive {
                *alive = false;
                shard.alive_count -= 1;
                shard.purge_queued(l);
            }
        }
    }

    /// Whether `id` is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        if id.index() >= self.total_nodes {
            return false;
        }
        let (s, l) = self.locate(id.index());
        self.shards[s].alive.get(l).is_some_and(|a| *a)
    }

    /// Immutable access to a node's protocol state (alive or crashed).
    pub fn node(&self, id: NodeId) -> Option<&P> {
        if id.index() >= self.total_nodes {
            return None;
        }
        let (s, l) = self.locate(id.index());
        self.shards[s].procs.get(l)
    }

    /// Mutable access to a node's protocol state. Intended for scenario drivers
    /// (e.g. installing a new subscription before the next step), not for
    /// bypassing the message-passing discipline mid-step.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut P> {
        if id.index() >= self.total_nodes {
            return None;
        }
        let (s, l) = self.locate(id.index());
        self.shards[s].procs.get_mut(l)
    }

    /// Ids of all nodes ever added, in join order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.total_nodes).map(NodeId::from_index).collect()
    }

    /// Iterates over the currently alive node ids, ascending — global id
    /// order, independent of the shard layout. Allocation-free; prefer this
    /// (or [`alive_count`](Sim::alive_count)/[`nth_alive`](Sim::nth_alive))
    /// over [`alive_ids`](Sim::alive_ids) in per-step loops.
    pub fn alive(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        let n = self.n_shards();
        (0..self.total_nodes)
            .filter(move |i| self.shards[i % n].alive[i / n])
            .map(NodeId::from_index)
    }

    /// Number of currently alive nodes. O(shards): summed over the per-shard
    /// incremental counts.
    pub fn alive_count(&self) -> usize {
        self.shards.iter().map(|s| s.alive_count).sum()
    }

    /// The `k`-th alive node in ascending **global id** order, if
    /// `k < alive_count()`. Combined with a random `k` this picks a uniform
    /// alive node without materializing the population; the global ordering
    /// makes the pick independent of the shard count, which keeps sharded
    /// scenario runs byte-identical.
    pub fn nth_alive(&self, k: usize) -> Option<NodeId> {
        self.alive().nth(k)
    }

    /// Ids of the currently alive nodes, ascending.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.alive().collect()
    }

    /// Injects an external message to `to`, delivered after the link's
    /// sampled latency (the next step under the default unit model),
    /// attributed to the recipient itself (external stimuli such as a user's
    /// Publish call).
    pub fn post(&mut self, to: NodeId, msg: P::Msg) {
        let now = self.now;
        let d = to.index() % self.n_shards();
        self.shards[d].metrics.on_send(to, msg.class());
        self.shards[d].enqueue(to, to, msg, now);
    }

    /// Runs the protocol handler `f` on node `id` as if it were executing within
    /// the current step (e.g. the application invoking `Subscribe` or `Publish` on
    /// its local DPS instance). Outgoing messages are queued for the next step.
    pub fn invoke<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Msg>),
    {
        if !self.is_alive(id) {
            return;
        }
        let (s, l) = self.locate(id.index());
        let shard = &mut self.shards[s];
        let mut ctx = Context {
            me: id,
            now: self.now,
            rng: &mut shard.rngs[l],
            out: &mut shard.scratch_out,
        };
        f(&mut shard.procs[l], &mut ctx);
        self.flush_outgoing(id);
    }

    /// Current step number (the number of completed [`step`](Sim::step) calls).
    pub fn now(&self) -> Step {
        self.now
    }

    /// Collected traffic metrics, merged across the shard partials. With a
    /// single shard this is a plain clone; the merge is identical whatever
    /// the shard count (counters are sums, windows roll in lockstep).
    pub fn metrics(&self) -> Metrics {
        let mut merged = self.shards[0].metrics.clone();
        for sh in &self.shards[1..] {
            merged.absorb(&sh.metrics);
        }
        merged
    }

    /// Forgets the completed metrics windows (one per-node counter set per
    /// window, so they grow with every step). Totals, drop counts and the
    /// current window stay; [`metrics`](Sim::metrics) then lists only the
    /// windows completed since. Observational only: no node or message is
    /// touched.
    pub fn clear_metrics_windows(&mut self) {
        for sh in &mut self.shards {
            sh.metrics.clear_windows();
        }
    }

    /// A summary snapshot of the run.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            now: self.now,
            total_nodes: self.total_nodes,
            alive_nodes: self.alive_count(),
            in_flight: self.shards.iter().map(|s| s.in_flight).sum(),
        }
    }

    /// The driver-level deterministic RNG, for scenario choices made between
    /// steps (e.g. picking a victim node to crash). Distinct from the
    /// per-node streams protocol handlers draw from, so driver draws are
    /// unaffected by anything that happens inside a step.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Advances one step: delivers the messages whose sampled delivery time
    /// is due (in destination-id order, then deliver-phase/tick-phase send
    /// order), then ticks every alive node (in id order). With more than one shard the per-shard work runs on the
    /// persistent worker pool — each shard is handed to its (already running)
    /// worker and collected back at the barrier, so no thread is ever spawned
    /// here; the staging outboxes are then merged (see the crate docs on
    /// sharded execution).
    pub fn step(&mut self) {
        self.now += 1;
        // The only metrics roll of the step: every send/receive below happens
        // at this `now`, so per-message rolling would be a no-op. Rolling all
        // partials together keeps them mergeable.
        for sh in &mut self.shards {
            sh.metrics.roll_to(self.now);
        }

        // Fault fast path: both checks hoisted out of the per-message loops so
        // fault-free runs replay byte-identically (no stray RNG draws).
        let partition_active = self.fault.active_partitions(self.now).next().is_some();
        let loss_active = self.fault.has_loss_at(self.now);
        let now = self.now;

        match &self.pool {
            // Serial fast path: the classic single-shard layout has no pool
            // and steps inline on the caller's thread.
            None => {
                self.shards[0].step_local(now, &self.fault, partition_active, loss_active);
            }
            Some(pool) => {
                pool.step(
                    &mut self.shards,
                    now,
                    &self.fault,
                    partition_active,
                    loss_active,
                );
            }
        }

        self.merge_staging();
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// The step barrier: drains every shard's staging outboxes into the
    /// destination shards' next-step buckets in the canonical order —
    /// deliver-phase sends first, then tick-phase sends, each k-way-merged by
    /// ascending sender id (each source is already sorted: shards process
    /// their nodes in ascending order). Dead-destination drops are applied
    /// here, which is equivalent to dropping at send time because liveness
    /// cannot change during the parallel phase.
    fn merge_staging(&mut self) {
        let now = self.now;
        let n = self.shards.len();
        if n == 1 {
            // Single shard: sends were enqueued directly (the production
            // order is the canonical order), nothing was staged.
            debug_assert!(
                self.shards[0].staging[0].deliver.is_empty()
                    && self.shards[0].staging[0].tick.is_empty()
            );
            return;
        }
        for d in 0..n {
            for phase in [Phase::Deliver, Phase::Tick] {
                // Move the S source buffers out (Vec headers only) so the
                // destination shard can be borrowed mutably alongside them.
                let mut sources: Vec<Vec<Staged<P::Msg>>> = (0..n)
                    .map(|s| {
                        let outbox = &mut self.shards[s].staging[d];
                        match phase {
                            Phase::Deliver => std::mem::take(&mut outbox.deliver),
                            Phase::Tick => std::mem::take(&mut outbox.tick),
                        }
                    })
                    .collect();
                {
                    let dest = &mut self.shards[d];
                    let mut its: Vec<_> =
                        sources.iter_mut().map(|v| v.drain(..).peekable()).collect();
                    loop {
                        let mut best: Option<usize> = None;
                        let mut best_from = usize::MAX;
                        for (s, it) in its.iter_mut().enumerate() {
                            if let Some(st) = it.peek() {
                                if best.is_none() || st.from.index() < best_from {
                                    best_from = st.from.index();
                                    best = Some(s);
                                }
                            }
                        }
                        let Some(s) = best else { break };
                        let Staged { from, to, msg } = its[s].next().expect("peeked");
                        dest.enqueue(from, to, msg, now);
                    }
                }
                // Hand the (drained, capacity-retaining) buffers back.
                for (s, v) in sources.into_iter().enumerate() {
                    let outbox = &mut self.shards[s].staging[d];
                    match phase {
                        Phase::Deliver => outbox.deliver = v,
                        Phase::Tick => outbox.tick = v,
                    }
                }
            }
        }
    }

    /// Drains the scratch outbox of `from`'s shard into the next-step buckets
    /// (driver-side path: `add_node`/`invoke` run between steps, so their
    /// sends bypass staging and enqueue directly, in call order — exactly the
    /// classic behavior). Sends to already-crashed nodes are dropped at
    /// enqueue (a send to a node id not yet added is kept: the node may join
    /// before the next step).
    fn flush_outgoing(&mut self, from: NodeId) {
        let now = self.now;
        let s = from.index() % self.n_shards();
        let mut out = std::mem::take(&mut self.shards[s].scratch_out);
        for (to, msg) in out.drain(..) {
            self.shards[s].metrics.on_send(from, msg.class());
            let d = to.index() % self.n_shards();
            self.shards[d].enqueue(from, to, msg, now);
        }
        self.shards[s].scratch_out = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DropReason;
    use crate::process::MsgClass;
    use crate::Message;
    use rand::Rng;

    #[derive(Clone, Debug)]
    enum TestMsg {
        Token(u64),
    }

    impl Message for TestMsg {
        fn class(&self) -> MsgClass {
            MsgClass::Publication
        }
    }

    /// Forwards any token to a random other node, recording the trace.
    struct Forwarder {
        n: usize,
        seen: Vec<(Step, u64)>,
    }

    impl Process for Forwarder {
        type Msg = TestMsg;

        fn on_message(&mut self, _from: NodeId, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            let TestMsg::Token(t) = msg;
            self.seen.push((ctx.now(), t));
            if t > 0 {
                let next = NodeId::from_index(ctx.rng().random_range(0..self.n));
                ctx.send(next, TestMsg::Token(t - 1));
            }
        }
    }

    fn run_trace_sharded(seed: u64, shards: usize) -> Vec<Vec<(Step, u64)>> {
        let mut sim = Sim::new_sharded(seed, shards);
        for _ in 0..5 {
            sim.add_node(Forwarder { n: 5, seen: vec![] });
        }
        sim.post(NodeId::from_index(0), TestMsg::Token(20));
        sim.run(30);
        sim.node_ids()
            .into_iter()
            .map(|id| sim.node(id).unwrap().seen.clone())
            .collect()
    }

    fn run_trace(seed: u64) -> Vec<Vec<(Step, u64)>> {
        run_trace_sharded(seed, 1)
    }

    #[test]
    fn deterministic_replay() {
        assert_eq!(run_trace(7), run_trace(7));
        // Different seeds virtually always give different traces.
        assert_ne!(run_trace(7), run_trace(8));
    }

    #[test]
    fn sharded_replay_is_byte_identical() {
        // The tentpole property: the same run on 1, 2, 3 and 4 shards yields
        // the same trace, snapshot and metrics — delivery order included.
        let serial = run_trace_sharded(7, 1);
        for s in 2..=4 {
            assert_eq!(serial, run_trace_sharded(7, s), "diverged at {s} shards");
        }
    }

    #[test]
    fn sharded_replay_matches_under_faults_and_churn() {
        // Same property with loss sampling, a partition window and crashes in
        // the mix: loss draws come from destination-node streams and crash
        // purges are per-shard, so nothing may depend on the layout.
        let run = |shards: usize| {
            let mut sim: Sim<Forwarder> = Sim::new_sharded(11, shards);
            for _ in 0..7 {
                sim.add_node(Forwarder { n: 7, seen: vec![] });
            }
            sim.fault_plan_mut().set_default_loss(0.3);
            sim.fault_plan_mut().add_split(10, 14, 3);
            for i in 0..4 {
                sim.post(NodeId::from_index(i), TestMsg::Token(30));
            }
            sim.run(8);
            sim.crash(NodeId::from_index(2));
            sim.run(22);
            let traces: Vec<_> = sim
                .node_ids()
                .into_iter()
                .map(|id| sim.node(id).unwrap().seen.clone())
                .collect();
            let m = sim.metrics();
            (
                traces,
                sim.snapshot(),
                m.total_sent(MsgClass::Publication),
                m.total_received(MsgClass::Publication),
                m.dropped_for(DropReason::Loss),
                m.dropped_for(DropReason::Partitioned),
                m.dropped_for(DropReason::Crashed),
            )
        };
        let serial = run(1);
        for s in [2, 3, 5] {
            assert_eq!(serial, run(s), "diverged at {s} shards");
        }
    }

    #[test]
    fn unit_latency() {
        let mut sim: Sim<Forwarder> = Sim::new(0);
        let a = sim.add_node(Forwarder { n: 1, seen: vec![] });
        sim.post(a, TestMsg::Token(0));
        assert!(sim.node(a).unwrap().seen.is_empty());
        sim.step();
        assert_eq!(sim.node(a).unwrap().seen, vec![(1, 0)]);
    }

    #[test]
    fn crashed_nodes_receive_nothing() {
        let mut sim: Sim<Forwarder> = Sim::new(0);
        let a = sim.add_node(Forwarder { n: 2, seen: vec![] });
        let b = sim.add_node(Forwarder { n: 2, seen: vec![] });
        sim.crash(b);
        assert!(!sim.is_alive(b));
        assert!(sim.is_alive(a));
        sim.post(b, TestMsg::Token(9));
        sim.run(3);
        assert!(sim.node(b).unwrap().seen.is_empty());
        assert_eq!(sim.snapshot().alive_nodes, 1);
    }

    #[test]
    fn token_is_conserved() {
        // Token starts at 20 and decrements each hop: exactly 21 deliveries total
        // (no loss without crashes, no duplication).
        let traces = run_trace(3);
        let total: usize = traces.iter().map(Vec::len).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn metrics_count_sends_and_receives() {
        let mut sim: Sim<Forwarder> = Sim::new(0);
        let a = sim.add_node(Forwarder { n: 1, seen: vec![] });
        sim.post(a, TestMsg::Token(3)); // a sends to itself 3 more times
        sim.run(10);
        let m = sim.metrics();
        assert_eq!(m.total_sent(MsgClass::Publication), 4);
        assert_eq!(m.total_received(MsgClass::Publication), 4);
    }

    #[test]
    fn invoke_runs_in_current_step() {
        let mut sim: Sim<Forwarder> = Sim::new(0);
        let a = sim.add_node(Forwarder { n: 1, seen: vec![] });
        sim.invoke(a, |_proc, ctx| {
            let me = ctx.me();
            ctx.send(me, TestMsg::Token(0));
        });
        sim.step();
        assert_eq!(sim.node(a).unwrap().seen.len(), 1);
        // Invoking a crashed node is a no-op.
        sim.crash(a);
        sim.invoke(a, |_proc, ctx| {
            let me = ctx.me();
            ctx.send(me, TestMsg::Token(0));
        });
        sim.step();
        assert_eq!(sim.node(a).unwrap().seen.len(), 1);
    }

    #[test]
    fn alive_accessors_track_crashes() {
        let mut sim: Sim<Forwarder> = Sim::new_sharded(0, 2);
        let ids: Vec<NodeId> = (0..5)
            .map(|_| sim.add_node(Forwarder { n: 5, seen: vec![] }))
            .collect();
        assert_eq!(sim.alive_count(), 5);
        sim.crash(ids[1]);
        sim.crash(ids[1]); // idempotent
        sim.crash(ids[3]);
        assert_eq!(sim.alive_count(), 3);
        assert_eq!(sim.alive_ids(), vec![ids[0], ids[2], ids[4]]);
        assert_eq!(sim.nth_alive(0), Some(ids[0]));
        assert_eq!(sim.nth_alive(1), Some(ids[2]));
        assert_eq!(sim.nth_alive(2), Some(ids[4]));
        assert_eq!(sim.nth_alive(3), None);
    }

    #[test]
    fn clearing_metrics_windows_keeps_totals_and_later_windows() {
        let mut sim: Sim<Forwarder> = Sim::new_sharded(3, 2);
        for _ in 0..5 {
            sim.add_node(Forwarder { n: 5, seen: vec![] });
        }
        sim.post(NodeId::from_index(0), TestMsg::Token(1_000));
        sim.run(250);
        let before = sim.metrics();
        assert_eq!(before.windows().len(), 2);
        sim.clear_metrics_windows();
        let after = sim.metrics();
        assert!(after.windows().is_empty());
        assert_eq!(
            after.total_sent(MsgClass::Publication),
            before.total_sent(MsgClass::Publication)
        );
        sim.run(100);
        let windows = sim.metrics().windows().to_vec();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].0, 200, "the window open at the clear completes");
    }

    #[test]
    fn metrics_reset_mid_run_stamps_current_window() {
        let mut sim: Sim<Forwarder> = Sim::new(0);
        let a = sim.add_node(Forwarder { n: 1, seen: vec![] });
        sim.run(25);
        sim.set_metrics_window(10);
        // Traffic recorded between the reset and the next step must land in
        // the window containing `now`, not in a window stamped 0.
        sim.post(a, TestMsg::Token(0));
        sim.run(10);
        let metrics = sim.metrics();
        let windows = metrics.windows();
        let traffic: Vec<_> = windows
            .iter()
            .filter(|(_, per_node)| per_node.iter().any(|c| c.sent != [0; 3]))
            .collect();
        assert_eq!(traffic.len(), 1);
        assert_eq!(traffic[0].0, 20); // the window [20, 30) contains now = 25
    }

    #[test]
    fn crash_purges_queued_messages_and_in_flight() {
        // `in_flight` must count deliverable messages only, so drain loops
        // that poll `in_flight == 0` terminate.
        let mut sim: Sim<Forwarder> = Sim::new(0);
        let a = sim.add_node(Forwarder { n: 2, seen: vec![] });
        let b = sim.add_node(Forwarder { n: 2, seen: vec![] });
        sim.post(b, TestMsg::Token(0));
        sim.post(b, TestMsg::Token(0));
        assert_eq!(sim.snapshot().in_flight, 2);
        sim.crash(b);
        assert_eq!(sim.snapshot().in_flight, 0);
        assert_eq!(
            sim.metrics()
                .dropped(DropReason::Crashed, MsgClass::Publication),
            2
        );
        // Sends addressed to an already-crashed node never enter the queue.
        sim.invoke(a, |_proc, ctx| ctx.send(b, TestMsg::Token(0)));
        assert_eq!(sim.snapshot().in_flight, 0);
        assert_eq!(
            sim.metrics()
                .dropped(DropReason::Crashed, MsgClass::Publication),
            3
        );
        sim.run(3);
        assert!(sim.node(b).unwrap().seen.is_empty());
    }

    #[test]
    fn partition_severs_cross_side_links_until_heal() {
        let mut sim: Sim<Forwarder> = Sim::new(0);
        let a = sim.add_node(Forwarder { n: 2, seen: vec![] });
        let b = sim.add_node(Forwarder { n: 2, seen: vec![] });
        sim.fault_plan_mut().add_split(0, u64::MAX, 1); // a | b
        sim.invoke(a, |_proc, ctx| ctx.send(b, TestMsg::Token(0)));
        sim.invoke(b, |_proc, ctx| ctx.send(a, TestMsg::Token(0)));
        sim.invoke(a, |_proc, ctx| {
            let me = ctx.me();
            ctx.send(me, TestMsg::Token(0)); // same side: delivered
        });
        sim.run(2);
        assert!(sim.node(b).unwrap().seen.is_empty());
        assert_eq!(sim.node(a).unwrap().seen.len(), 1);
        assert_eq!(sim.metrics().dropped_for(DropReason::Partitioned), 2);
        // Heal: cross-side traffic flows again.
        let now = sim.now();
        sim.fault_plan_mut().heal_at(now);
        sim.invoke(a, |_proc, ctx| ctx.send(b, TestMsg::Token(0)));
        sim.run(2);
        assert_eq!(sim.node(b).unwrap().seen.len(), 1);
        assert_eq!(sim.metrics().dropped_for(DropReason::Partitioned), 2);
    }

    #[test]
    fn oneway_split_severs_one_direction_only() {
        // The asymmetric cut: low -> high drops, high -> low still delivers.
        let mut sim: Sim<Forwarder> = Sim::new(0);
        let a = sim.add_node(Forwarder { n: 2, seen: vec![] });
        let b = sim.add_node(Forwarder { n: 2, seen: vec![] });
        sim.fault_plan_mut().add_split_oneway(0, u64::MAX, 1, true);
        sim.invoke(a, |_proc, ctx| ctx.send(b, TestMsg::Token(0))); // low -> high: cut
        sim.invoke(b, |_proc, ctx| ctx.send(a, TestMsg::Token(0))); // high -> low: open
        sim.run(2);
        assert!(
            sim.node(b).unwrap().seen.is_empty(),
            "low->high crossed a one-way cut"
        );
        assert_eq!(
            sim.node(a).unwrap().seen.len(),
            1,
            "high->low must stay open"
        );
        assert_eq!(sim.metrics().dropped_for(DropReason::Partitioned), 1);
        // Heal, then cut the other direction.
        let now = sim.now();
        sim.fault_plan_mut().heal_at(now);
        sim.fault_plan_mut()
            .add_split_oneway(now, u64::MAX, 1, false);
        sim.invoke(a, |_proc, ctx| ctx.send(b, TestMsg::Token(0)));
        sim.invoke(b, |_proc, ctx| ctx.send(a, TestMsg::Token(0)));
        sim.run(2);
        assert_eq!(sim.node(b).unwrap().seen.len(), 1);
        assert_eq!(sim.node(a).unwrap().seen.len(), 1);
    }

    #[test]
    fn total_loss_drops_everything_deterministically() {
        let run = |rate: f64| {
            let mut sim: Sim<Forwarder> = Sim::new(5);
            let a = sim.add_node(Forwarder { n: 2, seen: vec![] });
            let b = sim.add_node(Forwarder { n: 2, seen: vec![] });
            sim.fault_plan_mut().set_default_loss(rate);
            for _ in 0..20 {
                sim.invoke(a, |_proc, ctx| ctx.send(b, TestMsg::Token(0)));
                sim.step();
            }
            (
                sim.node(b).unwrap().seen.len(),
                sim.metrics().dropped_for(DropReason::Loss),
            )
        };
        assert_eq!(run(1.0), (0, 20));
        assert_eq!(run(0.0), (20, 0));
        let (got, lost) = run(0.5);
        assert_eq!(got as u64 + lost, 20);
        assert!(lost > 0 && got > 0, "0.5 loss should drop some, not all");
        // Same seed, same faults: byte-identical outcome.
        assert_eq!(run(0.5), run(0.5));
    }

    #[test]
    fn fault_free_replay_is_untouched_by_trivial_plans() {
        // A plan with only zero-rate loss rules must not perturb any RNG
        // stream: the trace equals the plain run's.
        let with_plan = |trivial: bool| {
            let mut sim = Sim::new(7);
            for _ in 0..5 {
                sim.add_node(Forwarder { n: 5, seen: vec![] });
            }
            if trivial {
                sim.fault_plan_mut().set_default_loss(0.0);
            }
            sim.post(NodeId::from_index(0), TestMsg::Token(20));
            sim.run(30);
            sim.node_ids()
                .into_iter()
                .map(|id| sim.node(id).unwrap().seen.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(with_plan(true), with_plan(false));
    }

    /// Records every delivery as `(step, sender, tag)` — the probe for the
    /// event-queue ordering and latency tests below.
    struct Recorder {
        peers: Vec<NodeId>,
        log: Vec<(Step, usize, u64)>,
    }

    impl Message for (u64,) {
        fn class(&self) -> MsgClass {
            MsgClass::Management
        }
    }

    impl Process for Recorder {
        type Msg = (u64,);

        fn on_message(&mut self, from: NodeId, msg: (u64,), ctx: &mut Context<'_, (u64,)>) {
            self.log.push((ctx.now(), from.index(), msg.0));
            // A trigger message (tag < 100) makes this node fan its tag out
            // to every peer from the deliver phase.
            if msg.0 < 100 {
                for p in self.peers.clone() {
                    ctx.send(p, (100 + msg.0,));
                }
            }
        }

        fn on_tick(&mut self, ctx: &mut Context<'_, (u64,)>) {
            // Every node also sends a tick-tagged message to every peer at
            // step 1, so deliver-phase and tick-phase sends share timestamps.
            if ctx.now() == 1 {
                for p in self.peers.clone() {
                    ctx.send(p, (200,));
                }
            }
        }
    }

    #[test]
    fn same_timestamp_orders_deliver_before_tick_then_sender_then_send_order() {
        // Nodes 0 and 1 each receive a trigger at step 1; both then send to
        // node 2 from the deliver phase, and all three nodes send to node 2
        // from the tick phase of the same step. Everything lands at step 2
        // with unit latency, so node 2's log pins the tie-break order:
        // deliver-phase sends first (ascending sender), then tick-phase
        // sends (ascending sender). The order must not depend on the layout.
        let run = |shards: usize| {
            let mut sim: Sim<Recorder> = Sim::new_sharded(3, shards);
            let mk = |peers: Vec<NodeId>| Recorder { peers, log: vec![] };
            let sink = NodeId::from_index(2);
            sim.add_node(mk(vec![sink]));
            sim.add_node(mk(vec![sink]));
            sim.add_node(mk(vec![]));
            sim.post(NodeId::from_index(0), (0,));
            sim.post(NodeId::from_index(1), (1,));
            sim.run(3);
            sim.node(sink).unwrap().log.clone()
        };
        let serial = run(1);
        assert_eq!(
            serial,
            vec![
                (2, 0, 100), // deliver-phase, sender 0
                (2, 1, 101), // deliver-phase, sender 1
                (2, 0, 200), // tick-phase, sender 0
                (2, 1, 200), // tick-phase, sender 1
            ]
        );
        for s in [2, 3] {
            assert_eq!(serial, run(s), "tie-break order diverged at {s} shards");
        }
    }

    #[test]
    fn sampled_latency_defers_delivery_to_the_drawn_step() {
        // A point-range model: always draws, always 3. A message posted at
        // step 0 is delivered at step 3, not step 1.
        let mut sim: Sim<Recorder> = Sim::new(0);
        sim.set_latency(LatencyModel::Uniform { min: 3, max: 3 });
        let a = sim.add_node(Recorder {
            peers: vec![],
            log: vec![],
        });
        sim.post(a, (100,));
        sim.run(2);
        assert!(sim.node(a).unwrap().log.is_empty());
        assert_eq!(sim.snapshot().in_flight, 1);
        sim.step();
        assert_eq!(sim.node(a).unwrap().log, vec![(3, 0, 100)]);
        assert_eq!(sim.snapshot().in_flight, 0);
    }

    #[test]
    fn unit_and_point_uniform_runs_are_byte_identical() {
        // Uniform{1,1} exercises the real sampling + wheel machinery but
        // every draw yields 1 — the run must be observationally identical to
        // the draw-free unit model (protocol streams are untouched by the
        // dedicated latency streams).
        let run = |model: Option<LatencyModel>, shards: usize| {
            let mut sim = Sim::new_sharded(7, shards);
            if let Some(m) = model {
                sim.set_latency(m);
            }
            for _ in 0..5 {
                sim.add_node(Forwarder { n: 5, seen: vec![] });
            }
            sim.post(NodeId::from_index(0), TestMsg::Token(20));
            sim.run(30);
            let traces: Vec<_> = sim
                .node_ids()
                .into_iter()
                .map(|id| sim.node(id).unwrap().seen.clone())
                .collect();
            (traces, sim.snapshot())
        };
        for shards in [1, 2, 4] {
            assert_eq!(
                run(None, shards),
                run(Some(LatencyModel::Uniform { min: 1, max: 1 }), shards),
                "unit vs point-uniform diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn nonunit_latency_replays_byte_identically_across_shards() {
        // The tentpole determinism property under real latency spread: the
        // per-destination latency streams are consumed in the canonical
        // enqueue order, so the sharded run equals the serial one.
        let run = |shards: usize| {
            let mut sim: Sim<Forwarder> = Sim::new_sharded(13, shards);
            sim.set_latency(LatencyModel::Bimodal {
                fast: (1, 2),
                slow: (5, 9),
                slow_weight: 0.25,
            });
            for _ in 0..7 {
                sim.add_node(Forwarder { n: 7, seen: vec![] });
            }
            sim.fault_plan_mut().set_default_loss(0.2);
            for i in 0..4 {
                sim.post(NodeId::from_index(i), TestMsg::Token(30));
            }
            sim.run(10);
            sim.crash(NodeId::from_index(3));
            sim.run(60);
            let traces: Vec<_> = sim
                .node_ids()
                .into_iter()
                .map(|id| sim.node(id).unwrap().seen.clone())
                .collect();
            (traces, sim.snapshot(), sim.metrics().total_dropped())
        };
        let serial = run(1);
        for s in [2, 3, 4] {
            assert_eq!(serial, run(s), "diverged at {s} shards");
        }
    }

    #[test]
    fn classed_latency_respects_destination_classes() {
        // Class 0 (even ids): latency 1. Class 1 (odd ids): exactly 4.
        let mut sim: Sim<Recorder> = Sim::new(0);
        sim.set_latency(LatencyModel::Classed {
            classes: vec![(1, 1), (4, 4)],
        });
        let mk = || Recorder {
            peers: vec![],
            log: vec![],
        };
        let even = sim.add_node(mk());
        let odd = sim.add_node(mk());
        sim.post(even, (100,));
        sim.post(odd, (100,));
        sim.run(6);
        assert_eq!(sim.node(even).unwrap().log, vec![(1, 0, 100)]);
        assert_eq!(sim.node(odd).unwrap().log, vec![(4, 1, 100)]);
    }

    #[test]
    fn crash_purges_messages_across_all_wheel_slots() {
        let mut sim: Sim<Recorder> = Sim::new(0);
        sim.set_latency(LatencyModel::Uniform { min: 2, max: 6 });
        let a = sim.add_node(Recorder {
            peers: vec![],
            log: vec![],
        });
        let b = sim.add_node(Recorder {
            peers: vec![],
            log: vec![],
        });
        let _ = a;
        for _ in 0..8 {
            sim.post(b, (100,));
        }
        assert_eq!(sim.snapshot().in_flight, 8);
        sim.crash(b);
        assert_eq!(sim.snapshot().in_flight, 0);
        sim.run(8);
        assert!(sim.node(b).unwrap().log.is_empty());
    }

    #[test]
    #[should_panic(expected = "set_latency must be called before the first step")]
    fn set_latency_after_a_step_panics() {
        let mut sim: Sim<Recorder> = Sim::new(0);
        sim.step();
        sim.set_latency(LatencyModel::Uniform { min: 1, max: 2 });
    }

    #[test]
    #[should_panic(expected = "invalid latency model")]
    fn set_latency_rejects_bad_models() {
        let mut sim: Sim<Recorder> = Sim::new(0);
        sim.set_latency(LatencyModel::Uniform { min: 0, max: 2 });
    }

    #[test]
    fn messages_to_future_nodes_reach_them_once_added() {
        // A message can be addressed to a node that joins before the next
        // step; the bucket queue must deliver it whatever shard the joiner
        // lands on.
        for shards in [1, 2] {
            let mut sim: Sim<Forwarder> = Sim::new_sharded(0, shards);
            let a = sim.add_node(Forwarder { n: 1, seen: vec![] });
            let _ = a;
            let future = NodeId::from_index(1);
            sim.post(future, TestMsg::Token(0));
            let b = sim.add_node(Forwarder { n: 2, seen: vec![] });
            assert_eq!(b, future);
            sim.step();
            assert_eq!(sim.node(b).unwrap().seen, vec![(1, 0)]);
        }
    }
}
