//! Delivery instrumentation: hooks the experiment harness uses to account events.
//!
//! The protocol state machines call into a shared [`StatsSink`] when a node
//! receives a publication for the first time ("contacted", Table 1) and when a
//! received publication matches one of the node's own subscriptions ("delivered" /
//! `Notify`, Figures 3(a)–(b)). Both milestones carry the simulation step at
//! which they happened, so harnesses can compute publish→deliver latency
//! distributions. The default sink does nothing and costs nothing.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use dps_content::{Event, SharedEvent};
use dps_sim::{NodeId, Step};

use crate::config::DpsConfig;
use crate::msg::PubId;
use crate::seen::SeenCache;

/// Observer of protocol-level delivery milestones.
///
/// Implementations must be cheap and thread-safe (the simulator itself is
/// single-threaded, but experiment harnesses aggregate across runs in parallel).
pub trait StatsSink: Send + Sync {
    /// `node` received publication `id` for the first time (it was *contacted*)
    /// at step `now`.
    fn on_contact(&self, id: PubId, node: NodeId, now: Step);
    /// `node` received publication `id` at step `now` and it matched one of
    /// its subscription filters (the `Notify` upcall of the paper).
    fn on_notify(&self, id: PubId, node: NodeId, now: Step);
    /// Like [`on_notify`](StatsSink::on_notify), but carrying the event body,
    /// called at the same site. Default: ignored — counting-only sinks never
    /// touch the payload, so the simulator's zero-copy fan-out is unaffected.
    /// Session hosts (the in-process `dps::session::Hub` and the broker)
    /// override it to queue payloads for *watched* nodes.
    fn on_deliver(&self, _id: PubId, _node: NodeId, _event: &Event, _now: Step) {}
}

/// A sink that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl StatsSink for NoopSink {
    fn on_contact(&self, _id: PubId, _node: NodeId, _now: Step) {}
    fn on_notify(&self, _id: PubId, _node: NodeId, _now: Step) {}
}

/// A simple recording sink: remembers every `(publication, node)` contact pair
/// and, for notifies, the step of the **first** notify (the publish→deliver
/// latency endpoint — re-notifies through other trees never move it).
/// Sufficient for all the paper's measurements at the scales of the reduced
/// experiments, and for the full 10k × 10k Table 1 runs it stays within a few
/// hundred MB thanks to the compact pair encoding.
#[derive(Debug)]
pub struct CountingSink {
    inner: Mutex<CountingInner>,
    /// Publication ids each watch queue remembers for dedup.
    watch_window: usize,
}

#[derive(Debug, Default)]
struct CountingInner {
    contacts: HashSet<(PubId, NodeId)>,
    /// First-notify step per `(publication, node)` pair.
    notifies: HashMap<(PubId, NodeId), Step>,
    /// Delivery queues for *watched* nodes (session endpoints): payloads are
    /// retained only here, so unwatched — i.e. simulation-only — runs never
    /// clone an event body. Each queue dedups by publication id: redundant
    /// re-deliveries through other trees enqueue nothing.
    watched: HashMap<NodeId, WatchQueue>,
}

#[derive(Debug)]
struct WatchQueue {
    /// Bounded like the node's own dedup caches, so a long-lived watch does
    /// not grow with every publication it ever saw.
    seen: SeenCache<PubId>,
    queue: Vec<(PubId, SharedEvent)>,
}

impl Default for CountingSink {
    fn default() -> Self {
        CountingSink::for_config(&DpsConfig::default())
    }
}

impl CountingSink {
    /// New empty sink, sized for nodes running the default [`DpsConfig`].
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// New empty sink for nodes running `cfg`. Each watch queue dedups over
    /// the last `4 × cfg.seen_cap` publications: the node's own route-dedup
    /// window, beyond which the node itself may deliver a publication again.
    pub fn for_config(cfg: &DpsConfig) -> Self {
        CountingSink {
            inner: Mutex::default(),
            watch_window: 4 * cfg.seen_cap,
        }
    }

    /// Number of distinct nodes contacted by `id`.
    pub fn contacted(&self, id: PubId) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.contacts.iter().filter(|(p, _)| *p == id).count()
    }

    /// Number of distinct nodes notified by `id`.
    pub fn notified(&self, id: PubId) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.notifies.keys().filter(|(p, _)| *p == id).count()
    }

    /// Whether `(id, node)` was notified.
    pub fn was_notified(&self, id: PubId, node: NodeId) -> bool {
        self.inner
            .lock()
            .unwrap()
            .notifies
            .contains_key(&(id, node))
    }

    /// The step at which `node` was **first** notified of `id`, if ever.
    pub fn notify_step(&self, id: PubId, node: NodeId) -> Option<Step> {
        self.inner
            .lock()
            .unwrap()
            .notifies
            .get(&(id, node))
            .copied()
    }

    /// Whether `(id, node)` was contacted.
    pub fn was_contacted(&self, id: PubId, node: NodeId) -> bool {
        self.inner.lock().unwrap().contacts.contains(&(id, node))
    }

    /// Total contact pairs.
    pub fn total_contacts(&self) -> usize {
        self.inner.lock().unwrap().contacts.len()
    }

    /// Total notify pairs.
    pub fn total_notifies(&self) -> usize {
        self.inner.lock().unwrap().notifies.len()
    }

    /// Runs `f` over all contact pairs.
    pub fn for_each_contact(&self, mut f: impl FnMut(PubId, NodeId)) {
        for (p, n) in self.inner.lock().unwrap().contacts.iter() {
            f(*p, *n);
        }
    }

    /// Forgets every contact and notify pair recorded so far. Watch queues
    /// are untouched: they carry deliveries, not history.
    pub fn clear_history(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.contacts.clear();
        inner.notifies.clear();
    }

    /// Starts retaining delivery payloads for `node`. Idempotent. Deliveries
    /// that happened before the watch began are not replayed.
    pub fn watch(&self, node: NodeId) {
        let window = self.watch_window;
        self.inner
            .lock()
            .unwrap()
            .watched
            .entry(node)
            .or_insert_with(|| WatchQueue {
                seen: SeenCache::new(window),
                queue: Vec::new(),
            });
    }

    /// Stops retaining payloads for `node` and discards anything queued.
    pub fn unwatch(&self, node: NodeId) {
        self.inner.lock().unwrap().watched.remove(&node);
    }

    /// Whether `node` is currently watched.
    pub fn is_watched(&self, node: NodeId) -> bool {
        self.inner.lock().unwrap().watched.contains_key(&node)
    }

    /// Moves everything queued for `node` since the last drain into `into`
    /// (oldest first). A node that is not watched drains nothing.
    pub fn drain_deliveries(&self, node: NodeId, into: &mut Vec<(PubId, SharedEvent)>) {
        if let Some(w) = self.inner.lock().unwrap().watched.get_mut(&node) {
            into.append(&mut w.queue);
        }
    }
}

impl StatsSink for CountingSink {
    fn on_contact(&self, id: PubId, node: NodeId, _now: Step) {
        self.inner.lock().unwrap().contacts.insert((id, node));
    }

    fn on_notify(&self, id: PubId, node: NodeId, now: Step) {
        // First notify wins: the entry API keeps the earliest step even if a
        // slower redundant path re-delivers the publication later.
        self.inner
            .lock()
            .unwrap()
            .notifies
            .entry((id, node))
            .or_insert(now);
    }

    fn on_deliver(&self, id: PubId, node: NodeId, event: &Event, _now: Step) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(w) = inner.watched.get_mut(&node) {
            if w.seen.insert(id) {
                // The one payload clone of a watched delivery: queues hold the
                // event by refcount from here on.
                w.queue.push((id, SharedEvent::new(event.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_records_pairs() {
        let s = CountingSink::new();
        let p = PubId(NodeId::from_index(0), 1);
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        s.on_contact(p, n1, 3);
        s.on_contact(p, n1, 4); // dedup
        s.on_contact(p, n2, 3);
        s.on_notify(p, n2, 5);
        assert_eq!(s.contacted(p), 2);
        assert_eq!(s.notified(p), 1);
        assert!(s.was_notified(p, n2));
        assert!(!s.was_notified(p, n1));
        assert!(s.was_contacted(p, n1));
        assert_eq!(s.total_contacts(), 2);
        assert_eq!(s.total_notifies(), 1);
        let mut seen = 0;
        s.for_each_contact(|_, _| seen += 1);
        assert_eq!(seen, 2);
    }

    #[test]
    fn first_notify_step_wins() {
        let s = CountingSink::new();
        let p = PubId(NodeId::from_index(0), 1);
        let n = NodeId::from_index(1);
        assert_eq!(s.notify_step(p, n), None);
        s.on_notify(p, n, 7);
        s.on_notify(p, n, 12); // a slower redundant path re-delivers
        assert_eq!(s.notify_step(p, n), Some(7));
    }

    #[test]
    fn watch_queues_payloads_only_for_watched_nodes() {
        let s = CountingSink::new();
        let p = PubId(NodeId::from_index(0), 1);
        let q = PubId(NodeId::from_index(0), 2);
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        let ev: Event = "a = 1".parse().unwrap();
        s.watch(n1);
        assert!(s.is_watched(n1));
        assert!(!s.is_watched(n2));
        s.on_deliver(p, n1, &ev, 3);
        s.on_deliver(p, n1, &ev, 9); // redundant re-delivery: deduped
        s.on_deliver(q, n1, &ev, 4);
        s.on_deliver(p, n2, &ev, 3); // unwatched: dropped
        let mut got = Vec::new();
        s.drain_deliveries(n1, &mut got);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, p);
        assert_eq!(got[1].0, q);
        assert_eq!(*got[0].1, ev);
        got.clear();
        s.drain_deliveries(n1, &mut got);
        assert!(got.is_empty(), "drain consumes");
        s.drain_deliveries(n2, &mut got);
        assert!(got.is_empty());
        s.unwatch(n1);
        s.on_deliver(q, n1, &ev, 5);
        s.drain_deliveries(n1, &mut got);
        assert!(got.is_empty(), "unwatch discards and stops retention");
    }

    #[test]
    fn watch_dedup_forgets_ids_past_its_window() {
        // A window of 4 × seen_cap = 4 publication ids.
        let s = CountingSink::for_config(&DpsConfig {
            seen_cap: 1,
            ..DpsConfig::default()
        });
        let n = NodeId::from_index(1);
        let ev: Event = "a = 1".parse().unwrap();
        let id = |seq| PubId(NodeId::from_index(0), seq);
        s.watch(n);
        for seq in 1..=5 {
            s.on_deliver(id(seq), n, &ev, 0);
        }
        s.on_deliver(id(2), n, &ev, 1); // inside the window: deduped
        s.on_deliver(id(1), n, &ev, 1); // evicted by 5: queued again
        let mut got = Vec::new();
        s.drain_deliveries(n, &mut got);
        let seqs: Vec<u32> = got.iter().map(|(p, _)| p.1).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 1]);
        let inner = s.inner.lock().unwrap();
        assert_eq!(inner.watched[&n].seen.len(), 4, "dedup memory is capped");
    }

    #[test]
    fn clear_history_keeps_watch_queues() {
        let s = CountingSink::new();
        let p = PubId(NodeId::from_index(0), 1);
        let n = NodeId::from_index(1);
        let ev: Event = "a = 1".parse().unwrap();
        s.watch(n);
        s.on_contact(p, n, 1);
        s.on_notify(p, n, 1);
        s.on_deliver(p, n, &ev, 1);
        s.clear_history();
        assert_eq!((s.total_contacts(), s.total_notifies()), (0, 0));
        s.on_deliver(p, n, &ev, 2); // the dedup window survives the clear
        let mut got = Vec::new();
        s.drain_deliveries(n, &mut got);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn noop_sink_is_silent() {
        let s = NoopSink;
        s.on_contact(PubId(NodeId::from_index(0), 0), NodeId::from_index(0), 1);
        s.on_notify(PubId(NodeId::from_index(0), 0), NodeId::from_index(0), 1);
    }
}
