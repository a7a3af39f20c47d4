//! The broker: a long-lived process hosting a shard of the DPS overlay behind
//! a [`Transport`](crate::transport::Transport) listener.
//!
//! Each client session gets a dedicated overlay node; subscriptions and
//! publications from the session act on that node exactly as the in-process
//! [`dps::Hub`] sessions do — the overlay cannot tell a served client from a
//! simulated one. The broker is a **single-threaded, non-blocking event
//! loop**: one [`Broker::pump`] call accepts pending connections, reads and
//! applies every decodable client frame, sends the replies (acks) at once,
//! advances the overlay simulation a fixed number of steps, fans matched
//! deliveries out to sessions (gated by per-subscription credit), and
//! flushes output buffers. Driven in lockstep over a
//! [`ChannelTransport`](crate::transport::ChannelTransport) this is fully
//! deterministic; [`Broker::serve`] wraps it in a wall-clock loop for socket
//! deployments that sleeps in [`wait_ready`](crate::transport::wait_ready)
//! between turns and wakes as soon as a client sends something.
//!
//! # Backpressure
//!
//! `Deliver` frames consume per-subscription credit granted by `Subscribe`
//! and `Credit` frames. A subscriber that stops granting credit (or stops
//! reading its socket) stalls only itself: matched events queue in a bounded
//! per-subscription buffer (oldest dropped first past
//! [`BrokerConfig::max_pending`]), and the event loop never blocks on any one
//! session's socket.

use std::collections::{BTreeMap, VecDeque};
use std::os::fd::BorrowedFd;
use std::time::Duration;

use dps::{DpsConfig, DpsError, DpsNetwork};
use dps_content::{SharedEvent, SharedFilter};
use dps_overlay::PubId;
use dps_sim::NodeId;

use crate::transport::{self, Connection, Listener};
use crate::wire::{self, Frame, FrameReader, PubRef, WireError, PROTOCOL_VERSION};

/// Longest [`Broker::serve`] waits for input between turns: with every client
/// quiet, the overlay's own timers (heartbeats, retries, in-flight
/// dissemination) still advance at least this often.
const IDLE_TICK: Duration = Duration::from_micros(500);

/// Tuning knobs for a [`Broker`].
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Overlay flavor for the hosted shard.
    pub net: DpsConfig,
    /// Simulation seed (the overlay is deterministic given this).
    pub seed: u64,
    /// Background overlay nodes created at startup (population that routes
    /// and hosts groups even with zero sessions attached).
    pub background_nodes: usize,
    /// Simulation steps run at startup so the background overlay converges
    /// before the first session arrives.
    pub warmup_steps: u64,
    /// Simulation steps advanced per [`Broker::pump`] call.
    pub steps_per_pump: u64,
    /// Per-subscription cap on deliveries queued while out of credit; beyond
    /// it the oldest queued delivery is dropped (and counted).
    pub max_pending: usize,
    /// Per-session cap on buffered outbound bytes; `Deliver` emission pauses
    /// (keeping frames in the pending queue) while a session's buffer is
    /// above it, so a session that stops reading cannot balloon the broker.
    pub max_outbuf: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            net: DpsConfig::default(),
            seed: 42,
            background_nodes: 8,
            warmup_steps: 60,
            steps_per_pump: 4,
            max_pending: 1024,
            max_outbuf: 256 * 1024,
        }
    }
}

struct SubState {
    overlay: dps::SubId,
    filter: SharedFilter,
    credit: u32,
    pending: VecDeque<Frame>,
    dropped: u64,
}

struct SessionState {
    conn: Box<dyn Connection>,
    reader: FrameReader,
    out: VecDeque<u8>,
    /// Set once the session's `Hello` is accepted.
    node: Option<NodeId>,
    subs: BTreeMap<u64, SubState>,
    /// A `Close` has been queued: flush, then drop the link.
    closing: bool,
    /// The link died abruptly: drop without flushing.
    dead: bool,
}

impl SessionState {
    fn queue(&mut self, frame: &Frame) {
        // Only an over-sized frame can fail here; drop the session rather
        // than send it a half-encoded stream.
        if wire::encode_into(frame, &mut self.out).is_err() {
            self.dead = true;
        }
    }

    /// Writes as much buffered output as the link takes without blocking.
    /// Errs only when the link failed.
    fn write_out(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            let (head, _) = self.out.as_slices();
            match self.conn.send(head) {
                Ok(0) => break,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Sink for the broker's human-readable log lines.
pub type LogSink = Box<dyn FnMut(&str) + Send>;

/// See the module docs.
pub struct Broker {
    net: DpsNetwork,
    listener: Box<dyn Listener>,
    sessions: BTreeMap<u64, SessionState>,
    next_session: u64,
    cfg: BrokerConfig,
    drain_buf: Vec<(PubId, SharedEvent)>,
    log: Option<LogSink>,
}

impl Broker {
    /// Builds the hosted overlay (background population + warmup) and starts
    /// accepting on `listener`.
    pub fn new(cfg: BrokerConfig, listener: Box<dyn Listener>) -> Self {
        let mut net = DpsNetwork::new(cfg.net.clone(), cfg.seed);
        net.add_nodes(cfg.background_nodes);
        net.run(cfg.warmup_steps);
        Broker {
            net,
            listener,
            sessions: BTreeMap::new(),
            next_session: 1,
            cfg,
            drain_buf: Vec::new(),
            log: None,
        }
    }

    /// Routes broker log lines (session lifecycle, protocol errors) to `f`.
    pub fn set_log(&mut self, f: LogSink) {
        self.log = Some(f);
    }

    fn log(&mut self, line: &str) {
        if let Some(f) = &mut self.log {
            f(line);
        }
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The hosted network (metrics, oracle, faults — the full driver surface).
    pub fn network(&self) -> &DpsNetwork {
        &self.net
    }

    /// Mutable access to the hosted network, for fault injection in tests.
    pub fn network_mut(&mut self) -> &mut DpsNetwork {
        &mut self.net
    }

    /// One event-loop turn: accept, read+apply, flush the replies, step the
    /// overlay, fan out deliveries, flush. Never blocks. Returns the number of
    /// client frames applied, which lockstep drivers use as a settling signal.
    pub fn pump(&mut self) -> std::io::Result<usize> {
        self.accept_pending()?;
        let mut applied = 0;
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for id in &ids {
            applied += self.read_session(*id);
        }
        // Replies to the frames just applied (acks, `Hello`) leave before the
        // overlay steps, so a request's round trip does not wait out the step
        // batch. A link that fails here is marked dead by the end-of-turn
        // flush.
        for s in self.sessions.values_mut().filter(|s| !s.dead) {
            let _ = s.write_out();
        }
        self.net.run(self.cfg.steps_per_pump);
        for id in &ids {
            self.fan_out(*id);
        }
        self.flush_and_reap();
        Ok(applied)
    }

    /// Wall-clock serving loop: pumps until `stop` returns true. Between
    /// turns it waits until the listener or a session the next turn will read
    /// is readable, for at most a 500 µs idle tick, so a client's frame is
    /// picked up as soon as it lands. Sources without a descriptor
    /// (in-process transports) are only picked up on the tick.
    ///
    /// A served broker forgets each turn's per-publication history
    /// ([`DpsNetwork::clear_history`]) after the turn, so memory stays flat
    /// however long it runs; [`network`](Self::network)'s reports and
    /// delivery ratios then cover at most the last turn. Drivers that want
    /// the full oracle history call [`pump`](Self::pump) themselves.
    pub fn serve(&mut self, mut stop: impl FnMut() -> bool) -> std::io::Result<()> {
        while !stop() {
            self.pump()?;
            self.net.clear_history();
            transport::wait_ready(&self.wait_set(), &[], IDLE_TICK)?;
        }
        Ok(())
    }

    /// The descriptors [`serve`](Self::serve) waits on: the listener and
    /// every session the next pump reads. Closing and dead sessions are left
    /// out — their unread input (or a peer's hang-up) would keep them
    /// readable and spin the loop until they are reaped.
    fn wait_set(&self) -> Vec<BorrowedFd<'_>> {
        self.listener
            .fd()
            .into_iter()
            .chain(
                self.sessions
                    .values()
                    .filter(|s| !s.closing && !s.dead)
                    .filter_map(|s| s.conn.fd()),
            )
            .collect()
    }

    fn accept_pending(&mut self) -> std::io::Result<()> {
        while let Some(conn) = self.listener.accept()? {
            let id = self.next_session;
            self.next_session += 1;
            self.sessions.insert(
                id,
                SessionState {
                    conn,
                    reader: FrameReader::new(),
                    out: VecDeque::new(),
                    node: None,
                    subs: BTreeMap::new(),
                    closing: false,
                    dead: false,
                },
            );
            self.log(&format!("session {id}: connected"));
        }
        Ok(())
    }

    /// Drains one session's socket and applies every complete frame.
    fn read_session(&mut self, id: u64) -> usize {
        let mut applied = 0;
        let mut eof = false;
        let mut buf = [0u8; 4096];
        {
            let s = self.sessions.get_mut(&id).expect("session exists");
            if s.closing || s.dead {
                return 0;
            }
            loop {
                match s.conn.recv(&mut buf) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => s.reader.feed(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        s.dead = true;
                        break;
                    }
                }
            }
        }
        loop {
            let next = {
                let s = self.sessions.get_mut(&id).expect("session exists");
                if s.closing || s.dead {
                    return applied;
                }
                s.reader.next_frame()
            };
            match next {
                Ok(Some(frame)) => {
                    applied += 1;
                    self.apply(id, frame);
                }
                Ok(None) => break,
                Err(e) => {
                    // Loud, named, and terminal: the stream is unrecoverable.
                    self.log(&format!("session {id}: dropping link: {e}"));
                    self.close_session(id, &format!("protocol error: {e}"));
                    return applied;
                }
            }
        }
        if eof {
            let leftovers = {
                let s = self.sessions.get_mut(&id).expect("session exists");
                s.reader.finish().err()
            };
            if let Some(e) = leftovers {
                self.log(&format!("session {id}: EOF mid-frame: {e}"));
            } else {
                self.log(&format!("session {id}: EOF"));
            }
            self.teardown(id);
            let s = self.sessions.get_mut(&id).expect("session exists");
            s.dead = true;
        }
        applied
    }

    /// Applies one client frame to the session and the hosted overlay.
    fn apply(&mut self, id: u64, frame: Frame) {
        // Before Hello, nothing else is legal.
        let node = self.sessions[&id].node;
        match (&frame, node) {
            (Frame::Hello { .. }, _) | (_, Some(_)) => {}
            (_, None) => {
                self.close_session(id, "protocol error: expected Hello first");
                return;
            }
        }
        match frame {
            Frame::Hello { version, .. } => {
                if version != PROTOCOL_VERSION {
                    let e = WireError::Version {
                        theirs: version,
                        ours: PROTOCOL_VERSION,
                    };
                    self.log(&format!("session {id}: {e}"));
                    self.close_session(id, &e.to_string());
                    return;
                }
                if node.is_some() {
                    self.close_session(id, "protocol error: duplicate Hello");
                    return;
                }
                let n = self.net.add_node();
                let s = self.sessions.get_mut(&id).expect("session exists");
                s.node = Some(n);
                s.queue(&Frame::Hello {
                    version: PROTOCOL_VERSION,
                    session: Some(id),
                });
                self.log(&format!("session {id}: hello, node {}", n.index()));
            }
            Frame::Subscribe {
                seq,
                sub,
                filter,
                credit,
            } => {
                let node = node.expect("checked above");
                if self.sessions[&id].subs.contains_key(&sub) {
                    self.ack_err(id, seq, &format!("subscription id {sub} already in use"));
                    return;
                }
                match self.net.try_subscribe(node, filter.clone()) {
                    Ok(overlay) => {
                        self.net.sink().watch(node);
                        let s = self.sessions.get_mut(&id).expect("session exists");
                        s.subs.insert(
                            sub,
                            SubState {
                                overlay,
                                filter,
                                credit,
                                pending: VecDeque::new(),
                                dropped: 0,
                            },
                        );
                        s.queue(&Frame::Ack {
                            seq,
                            pub_id: None,
                            error: None,
                        });
                    }
                    Err(e) => self.ack_err(id, seq, &e.to_string()),
                }
            }
            Frame::Unsubscribe { seq, sub } => {
                let node = node.expect("checked above");
                let overlay = self.sessions[&id].subs.get(&sub).map(|s| s.overlay);
                match overlay {
                    Some(overlay) => {
                        let out = self.net.try_unsubscribe(node, overlay);
                        let s = self.sessions.get_mut(&id).expect("session exists");
                        s.subs.remove(&sub);
                        if s.subs.is_empty() {
                            self.net.sink().unwatch(node);
                        }
                        match out {
                            Ok(()) => {
                                let s = self.sessions.get_mut(&id).expect("session exists");
                                s.queue(&Frame::Ack {
                                    seq,
                                    pub_id: None,
                                    error: None,
                                });
                            }
                            Err(e) => self.ack_err(id, seq, &e.to_string()),
                        }
                    }
                    None => self.ack_err(id, seq, &format!("unknown subscription id {sub}")),
                }
            }
            Frame::Publish { seq, event } => {
                let node = node.expect("checked above");
                match self.net.try_publish(node, event) {
                    Ok(pid) => {
                        let s = self.sessions.get_mut(&id).expect("session exists");
                        s.queue(&Frame::Ack {
                            seq,
                            pub_id: Some(PubRef {
                                node: pid.0.index() as u64,
                                seq: pid.1,
                            }),
                            error: None,
                        });
                    }
                    Err(e) => self.ack_err(id, seq, &e.to_string()),
                }
            }
            Frame::Credit { sub, more } => {
                let s = self.sessions.get_mut(&id).expect("session exists");
                if let Some(st) = s.subs.get_mut(&sub) {
                    st.credit = st.credit.saturating_add(more);
                }
                // Credit for an unknown sub is a no-op (it may race a close).
            }
            Frame::Close { reason } => {
                self.log(&format!("session {id}: close ({reason})"));
                self.close_session(id, "goodbye");
            }
            Frame::Deliver { .. } | Frame::Ack { .. } => {
                self.close_session(id, "protocol error: broker-only frame from client");
            }
        }
    }

    fn ack_err(&mut self, id: u64, seq: u64, error: &str) {
        self.log(&format!("session {id}: request {seq} refused: {error}"));
        let s = self.sessions.get_mut(&id).expect("session exists");
        s.queue(&Frame::Ack {
            seq,
            pub_id: None,
            error: Some(error.to_string()),
        });
    }

    /// Graceful teardown: cancel state, echo `Close`, flush, then drop.
    fn close_session(&mut self, id: u64, reason: &str) {
        self.teardown(id);
        let s = self.sessions.get_mut(&id).expect("session exists");
        if !s.closing {
            s.queue(&Frame::Close {
                reason: reason.to_string(),
            });
            s.closing = true;
        }
    }

    /// Releases a session's overlay footprint (subscriptions, watch, node).
    fn teardown(&mut self, id: u64) {
        let s = self.sessions.get_mut(&id).expect("session exists");
        let node = s.node.take();
        let subs: Vec<dps::SubId> = s.subs.values().map(|st| st.overlay).collect();
        s.subs.clear();
        if let Some(node) = node {
            for overlay in subs {
                let _ = self.net.try_unsubscribe(node, overlay);
            }
            self.net.sink().unwatch(node);
            // Retire the node: the overlay heals around it, and the oracle
            // stops expecting deliveries there.
            self.net.crash(node);
        }
    }

    /// Demultiplexes the session node's matched deliveries into per-sub
    /// queues and emits as much as credit (and the output buffer cap) allows.
    fn fan_out(&mut self, id: u64) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        let Some(node) = s.node else { return };
        self.drain_buf.clear();
        self.net.sink().drain_deliveries(node, &mut self.drain_buf);
        for (pid, event) in self.drain_buf.drain(..) {
            for (cid, st) in s.subs.iter_mut() {
                if st.filter.matches(&event) {
                    st.pending.push_back(Frame::Deliver {
                        sub: *cid,
                        publisher: pid.0.index() as u64,
                        pub_seq: pid.1,
                        event: event.clone(),
                    });
                    if st.pending.len() > self.cfg.max_pending {
                        st.pending.pop_front();
                        st.dropped += 1;
                    }
                }
            }
        }
        for st in s.subs.values_mut() {
            while st.credit > 0 && s.out.len() < self.cfg.max_outbuf {
                let Some(f) = st.pending.pop_front() else {
                    break;
                };
                st.credit -= 1;
                if wire::encode_into(&f, &mut s.out).is_err() {
                    s.dead = true;
                }
            }
        }
    }

    /// Writes buffered output (never blocking) and reaps finished sessions.
    fn flush_and_reap(&mut self) {
        let mut done: Vec<u64> = Vec::new();
        for (id, s) in self.sessions.iter_mut() {
            if s.dead {
                done.push(*id);
                continue;
            }
            if s.write_out().is_err() {
                s.dead = true;
            }
            if s.closing && s.out.is_empty() {
                s.conn.shutdown();
                done.push(*id);
            }
        }
        for id in done {
            // Abrupt deaths still need their overlay footprint released.
            self.teardown(id);
            self.sessions.remove(&id);
            self.log(&format!("session {id}: gone"));
        }
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("addr", &self.listener.local_addr())
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

/// Convenience for error mapping at call sites that cross from wire to API.
pub fn wire_to_dps(e: WireError) -> DpsError {
    match e {
        WireError::Io(m) => DpsError::Transport(m),
        WireError::Closed => DpsError::SessionClosed,
        other => DpsError::Protocol(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChannelTransport, Transport, UnixTransport};
    use std::sync::{Arc, Mutex};

    /// A server-side connection that keeps the bytes of every `send` call.
    struct Recording {
        inner: Box<dyn Connection>,
        sends: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Connection for Recording {
        fn send(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.inner.send(buf)?;
            self.sends.lock().unwrap().push(buf[..n].to_vec());
            Ok(n)
        }

        fn recv(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.recv(buf)
        }

        fn shutdown(&mut self) {
            self.inner.shutdown();
        }
    }

    struct RecordingListener {
        inner: Box<dyn Listener>,
        sends: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Listener for RecordingListener {
        fn accept(&mut self) -> std::io::Result<Option<Box<dyn Connection>>> {
            Ok(self.inner.accept()?.map(|inner| {
                Box::new(Recording {
                    inner,
                    sends: self.sends.clone(),
                }) as Box<dyn Connection>
            }))
        }

        fn local_addr(&self) -> String {
            self.inner.local_addr()
        }
    }

    fn decode_all(bytes: &[u8]) -> Vec<Frame> {
        let mut r = FrameReader::new();
        r.feed(bytes);
        std::iter::from_fn(|| r.next_frame().unwrap()).collect()
    }

    #[test]
    fn replies_leave_before_the_overlay_steps() {
        let t = ChannelTransport::new();
        let sends = Arc::new(Mutex::new(Vec::new()));
        let listener = RecordingListener {
            inner: t.listen("hub").unwrap(),
            sends: sends.clone(),
        };
        // Enough steps per turn that a publication reaches the publisher's
        // own subscription within the turn that acks it.
        let cfg = BrokerConfig {
            background_nodes: 2,
            warmup_steps: 10,
            steps_per_pump: 64,
            ..BrokerConfig::default()
        };
        let mut broker = Broker::new(cfg, Box::new(listener));
        let mut client = t.connect("hub").unwrap();
        let mut send = |f: &Frame| {
            let bytes = wire::encode(f).unwrap();
            assert_eq!(client.send(&bytes).unwrap(), bytes.len());
        };
        send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            session: None,
        });
        send(&Frame::Subscribe {
            seq: 1,
            sub: 1,
            filter: "price > 0".parse::<dps_content::Filter>().unwrap().into(),
            credit: 64,
        });
        for _ in 0..8 {
            broker.pump().unwrap();
        }

        sends.lock().unwrap().clear();
        send(&Frame::Publish {
            seq: 2,
            event: "price = 5".parse::<dps_content::Event>().unwrap().into(),
        });
        broker.pump().unwrap();
        let turn: Vec<Vec<Frame>> = sends
            .lock()
            .unwrap()
            .iter()
            .map(|b| decode_all(b))
            .collect();
        assert_eq!(turn.len(), 2, "one write for the ack, one for the delivery");
        assert!(
            matches!(
                turn[0][..],
                [Frame::Ack {
                    seq: 2,
                    error: None,
                    ..
                }]
            ),
            "the ack is written on its own, before the overlay steps: {turn:?}"
        );
        assert!(
            matches!(turn[1][..], [Frame::Deliver { sub: 1, .. }]),
            "the turn's delivery follows: {turn:?}"
        );
    }

    #[test]
    fn serve_waits_on_neither_closing_nor_dead_sessions() {
        let dir = std::env::temp_dir().join(format!("dps-waitset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = dir.join("b.sock").display().to_string();
        let cfg = BrokerConfig {
            background_nodes: 2,
            warmup_steps: 0,
            ..BrokerConfig::default()
        };
        let mut broker = Broker::new(cfg, UnixTransport.listen(&addr).unwrap());
        let quiet = UnixTransport.connect(&addr).unwrap();
        let hung_up = UnixTransport.connect(&addr).unwrap();
        let mut chatty = UnixTransport.connect(&addr).unwrap();
        broker.pump().unwrap();
        assert_eq!(broker.session_count(), 3);

        // One peer hangs up, another sends bytes nobody has read yet: both
        // descriptors are readable.
        drop(hung_up);
        chatty.send(b"unread").unwrap();
        let timeout = Duration::from_millis(20);
        assert_eq!(
            transport::wait_ready(&broker.wait_set(), &[], timeout).unwrap(),
            2
        );

        // Once their sessions are closing (a `Close` still unflushed) or
        // dead, the next pump reads neither, so serve must not wake on them.
        broker.sessions.get_mut(&2).unwrap().closing = true;
        broker.sessions.get_mut(&3).unwrap().dead = true;
        assert_eq!(broker.wait_set().len(), 2, "the listener and one session");
        assert_eq!(
            transport::wait_ready(&broker.wait_set(), &[], timeout).unwrap(),
            0
        );
        drop((quiet, chatty, broker));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
