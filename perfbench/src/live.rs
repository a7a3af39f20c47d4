//! `broker-ack` and `broker-fanout`: a live `dps-broker` process on a Unix
//! socket, driven by one generator thread over two connections.
//!
//! - `broker-ack` is a closed loop: a `dps-client` publisher issues
//!   ack-synchronous publishes back to back while a `dps-client` subscriber
//!   session holds four selective stock-exchange filters. It measures the
//!   interactive path, where nearly all time is spent waiting.
//! - `broker-fanout` is an open loop at a fixed offered rate: a pipelined
//!   publisher written against `dps_broker::wire` (a `dps-client` publish
//!   waits for its ack) feeds a broker with 64 background nodes, and a
//!   `dps-client` subscriber session holds 128 broad multiplayer-game
//!   filters. It measures the per-delivery cost of the broker.
//!
//! Requests are timed from their due time. The generator sleeps in `ppoll`
//! between events, so it never spins a core the broker needs.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dps::{SharedEvent, SharedFilter};
use dps_broker::wire::{self, Frame, FrameReader, PubRef, PROTOCOL_VERSION};
use dps_broker::{Connection, Listener, Transport};
use dps_client::{Publisher, Session, Subscriber};
use dps_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median, ratio, summarize};
use crate::trace::{slice_traced, Tracer};
use crate::{replay, sys, Opts, Report};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ack,
    Fanout,
}

/// Offered publication rate of `broker-fanout`: about a fifth of the rate at
/// which the broker saturated (about 1,400 publications/s, its thread 98%
/// busy and latency climbing) on a 2-CPU box at the commit that introduced
/// this benchmark, which keeps its thread about 40% busy. At half the
/// saturation rate (65% busy) queueing amplified every change in the shared
/// host's speed, and the delivery p90 of runs of the same code spread by a
/// third. A property of the workload, not a knob: keep it fixed so results
/// stay comparable across commits.
const FANOUT_RATE: f64 = 300.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Distinct events cycled through by the publisher.
const POOL: usize = 8192;
/// Credit window of each subscription (the client default).
const CREDIT: u32 = dps_client::DEFAULT_CREDIT;
/// Bound on waiting for late acks and deliveries after the window closes.
const GRACE: Duration = Duration::from_secs(3);
/// Length of the sub-windows the end-to-end figures are medians over.
const SUB: Duration = Duration::from_millis(500);
/// Request timeout of the client sessions.
const TIMEOUT: Duration = Duration::from_secs(5);

struct Params {
    nodes: usize,
    filters: Vec<SharedFilter>,
    pool: Vec<SharedEvent>,
    /// Per pool event, the filters it matches.
    matches: Vec<Vec<u16>>,
    /// Set-up probes: events that together match every filter.
    probes: Vec<usize>,
}

fn params(kind: Kind, seed: u64) -> Params {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491).wrapping_add(17));
    let (w, nodes) = match kind {
        Kind::Ack => (Workload::stock_exchange(), 8),
        Kind::Fanout => (Workload::multiplayer_game(), 64),
    };
    let pool: Vec<SharedEvent> = (0..POOL).map(|_| w.event(&mut rng).into()).collect();
    let filters: Vec<SharedFilter> = match kind {
        // Selective: of the first filters matching about 5% of the pool — in
        // this preset exactly the symbol-prefix filters, each covering 1/20 of
        // the dictionary — the four closest to 5%, so deliveries per
        // publication (and the broker CPU spent per delivery) do not depend
        // on the seed.
        Kind::Ack => {
            let target = POOL / 20;
            let mut candidates: Vec<(usize, SharedFilter)> = (0..10_000)
                .map(|_| SharedFilter::from(w.subscription(&mut rng)))
                .map(|f| (pool.iter().filter(|e| f.matches(e)).count(), f))
                .filter(|(hits, _)| (0.04..=0.06).contains(&(*hits as f64 / POOL as f64)))
                .take(32)
                .collect();
            candidates.sort_by_key(|(hits, _)| hits.abs_diff(target));
            candidates.into_iter().take(4).map(|(_, f)| f).collect()
        }
        Kind::Fanout => (0..128).map(|_| w.subscription(&mut rng).into()).collect(),
    };
    let matches: Vec<Vec<u16>> = pool
        .iter()
        .map(|e| {
            (0..filters.len() as u16)
                .filter(|j| filters[*j as usize].matches(e))
                .collect()
        })
        .collect();
    // Greedy cover of the filters by pool events.
    let mut covered = vec![false; filters.len()];
    let mut probes = Vec::new();
    for j in 0..filters.len() {
        if covered[j] {
            continue;
        }
        let i = (0..POOL)
            .find(|i| matches[*i].contains(&(j as u16)))
            .expect("every filter matches some pool event");
        for k in &matches[i] {
            covered[*k as usize] = true;
        }
        probes.push(i);
    }
    Params {
        nodes,
        filters,
        pool,
        matches,
        probes,
    }
}

// ---------------------------------------------------------------------------
// Broker process
// ---------------------------------------------------------------------------

/// A spawned `dps-broker`; killed and reaped on drop.
struct BrokerProc {
    child: Child,
}

impl BrokerProc {
    /// Starts the broker, on CPU `cpu` alone when one is given.
    fn spawn(
        bin: &std::path::Path,
        socket: &str,
        seed: u64,
        nodes: usize,
        cpu: Option<usize>,
    ) -> BrokerProc {
        let mut cmd = Command::new(bin);
        cmd.args(["--socket", socket, "--seed", &seed.to_string()])
            .args(["--nodes", &nodes.to_string(), "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        // SAFETY: the closure runs in the forked child before exec and only
        // makes async-signal-safe system calls.
        unsafe {
            cmd.pre_exec(move || {
                sys::die_with_parent()?;
                match cpu {
                    Some(c) => sys::pin_to_cpu(c),
                    None => Ok(()),
                }
            });
        }
        let child = cmd
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        BrokerProc { child }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for BrokerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Counting Unix transport
// ---------------------------------------------------------------------------

/// Byte and frame counts of one generator connection.
#[derive(Default)]
pub struct Counters {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    credit_frames: AtomicU64,
    fd: AtomicI32,
}

impl Counters {
    fn bytes(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed) + self.bytes_out.load(Ordering::Relaxed)
    }
    fn credits(&self) -> u64 {
        self.credit_frames.load(Ordering::Relaxed)
    }
    fn fd(&self) -> i32 {
        self.fd.load(Ordering::Relaxed)
    }
}

struct CountedConn {
    stream: UnixStream,
    counters: Arc<Counters>,
    /// Decodes what the client sends, to count its `Credit` frames.
    snoop: Option<FrameReader>,
}

impl Connection for CountedConn {
    fn send(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.stream.write(buf)?;
        self.counters
            .bytes_out
            .fetch_add(n as u64, Ordering::Relaxed);
        if let Some(r) = &mut self.snoop {
            r.feed(&buf[..n]);
            while let Ok(Some(f)) = r.next_frame() {
                if matches!(f, Frame::Credit { .. }) {
                    self.counters.credit_frames.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(n)
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.counters
            .bytes_in
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn shutdown(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

/// Unix-socket client transport that counts bytes both ways.
struct CountingUnix {
    counters: Arc<Counters>,
    snoop: bool,
}

impl Transport for CountingUnix {
    fn listen(&self, _addr: &str) -> io::Result<Box<dyn Listener>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "client-only transport",
        ))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn Connection>> {
        let stream = UnixStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        self.counters
            .fd
            .store(stream.as_raw_fd(), Ordering::Relaxed);
        Ok(Box::new(CountedConn {
            stream,
            counters: self.counters.clone(),
            snoop: self.snoop.then(FrameReader::new),
        }))
    }
}

// ---------------------------------------------------------------------------
// Raw wire client
// ---------------------------------------------------------------------------

/// A client written directly against `dps_broker::wire`: frames are queued,
/// flushed without blocking, and read back as they arrive.
pub struct RawClient {
    conn: Box<dyn Connection>,
    reader: FrameReader,
    out: Vec<u8>,
}

impl RawClient {
    pub fn new(conn: Box<dyn Connection>) -> Self {
        RawClient {
            conn,
            reader: FrameReader::new(),
            out: Vec::new(),
        }
    }

    pub fn queue(&mut self, f: &Frame) {
        self.queue_bytes(&wire::encode(f).expect("frame under the size cap"));
    }

    pub fn queue_bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Writes as much queued output as the transport takes.
    pub fn flush(&mut self) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.conn.send(&self.out) {
                Ok(0) => break,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Moves every byte the transport has into the frame reader.
    pub fn recv(&mut self) -> io::Result<()> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.conn.recv(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.reader.feed(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete frame already received, if any.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.reader.next_frame().expect("broker frames decode")
    }
}

// ---------------------------------------------------------------------------
// One set-up: broker process, two sessions, subscriptions, placement probes
// ---------------------------------------------------------------------------

enum Pub {
    Client(Publisher),
    Raw(RawClient),
}

struct Rig {
    broker: BrokerProc,
    publisher: Pub,
    pub_counters: Arc<Counters>,
    subs: Vec<Subscriber>,
    sub_counters: Arc<Counters>,
    /// Publications made during set-up; their deliveries are ignored.
    probe_refs: HashSet<(u64, u32)>,
    next_seq: u64,
}

/// A delivery as the generator saw it.
#[derive(Clone, Copy)]
struct Seen {
    sub: u16,
    publisher: u64,
    seq: u32,
    at: Instant,
}

impl Rig {
    fn setup(opts: &Opts, p: &Params, socket: &str, kind: Kind, cpu: Option<usize>) -> Rig {
        let broker = BrokerProc::spawn(&opts.broker, socket, opts.seed, p.nodes, cpu);
        let sub_counters = Arc::new(Counters::default());
        let pub_counters = Arc::new(Counters::default());
        let sub_t = CountingUnix {
            counters: sub_counters.clone(),
            snoop: true,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        let sub_session = loop {
            match Session::connect(&sub_t, socket, TIMEOUT) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("broker did not come up on {socket}: {e}"),
            }
        };
        let pub_t = CountingUnix {
            counters: pub_counters.clone(),
            snoop: false,
        };
        let publisher = match kind {
            Kind::Ack => {
                let s = Session::connect(&pub_t, socket, TIMEOUT).expect("publisher session");
                Pub::Client(s.publisher().expect("publisher handle"))
            }
            Kind::Fanout => {
                let mut c = RawClient::new(pub_t.connect(socket).expect("publisher connection"));
                c.queue(&Frame::Hello {
                    version: PROTOCOL_VERSION,
                    session: None,
                });
                match raw_await(&mut c, pub_counters.fd(), |f| {
                    matches!(f, Frame::Hello { .. }).then_some(())
                }) {
                    Some(()) => Pub::Raw(c),
                    None => panic!("no Hello from the broker"),
                }
            }
        };
        let subs: Vec<Subscriber> = p
            .filters
            .iter()
            .map(|f| {
                sub_session
                    .subscriber_with(
                        f.clone(),
                        dps_client::SubscribeOptions {
                            credit: CREDIT,
                            auto_credit: true,
                        },
                    )
                    .expect("subscription accepted")
            })
            .collect();
        let mut rig = Rig {
            broker,
            publisher,
            pub_counters,
            subs,
            sub_counters,
            probe_refs: HashSet::new(),
            next_seq: 1,
        };
        rig.await_placement(p);
        rig
    }

    /// Publishes one event and waits for its ack (set-up only).
    fn publish_sync(&mut self, ev: &SharedEvent) -> PubRef {
        match &mut self.publisher {
            Pub::Client(p) => p.publish(ev.clone()).expect("probe publish acked"),
            Pub::Raw(c) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                c.queue(&Frame::Publish {
                    seq,
                    event: ev.clone(),
                });
                raw_await(c, self.pub_counters.fd(), |f| match f {
                    Frame::Ack {
                        seq: s,
                        pub_id: Some(r),
                        ..
                    } if *s == seq => Some(*r),
                    _ => None,
                })
                .expect("probe publish acked")
            }
        }
    }

    /// Subscriptions take overlay steps to be placed. Publishes the probe
    /// events until every filter receives its probe in two rounds in a row.
    fn await_placement(&mut self, p: &Params) {
        let mut good_rounds = 0;
        let deadline = Instant::now() + Duration::from_secs(60);
        while good_rounds < 2 {
            assert!(Instant::now() < deadline, "subscriptions never placed");
            let mut round: HashMap<(u64, u32), usize> = HashMap::new();
            for &i in &p.probes {
                let r = self.publish_sync(&p.pool[i]);
                self.probe_refs.insert((r.node, r.seq));
                round.insert((r.node, r.seq), i);
            }
            let mut got = vec![false; p.filters.len()];
            let wait_until = Instant::now() + Duration::from_millis(200);
            while Instant::now() < wait_until && got.iter().any(|g| !g) {
                sys::wait_readable(&[self.sub_counters.fd()], Duration::from_millis(5));
                for (j, s) in self.subs.iter().enumerate() {
                    for d in s.drain() {
                        if round.contains_key(&(d.publisher, d.seq)) {
                            got[j] = true;
                        }
                    }
                }
            }
            if got.iter().all(|g| *g) {
                good_rounds += 1;
            } else {
                good_rounds = 0;
            }
        }
    }
}

/// Flushes `c` and reads frames until `want` accepts one (10 s bound).
fn raw_await<T>(
    c: &mut RawClient,
    fd: i32,
    mut want: impl FnMut(&Frame) -> Option<T>,
) -> Option<T> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        c.flush().ok()?;
        c.recv().ok()?;
        while let Some(f) = c.next_frame() {
            if let Some(v) = want(&f) {
                return Some(v);
            }
        }
        sys::wait_readable(&[fd], Duration::from_millis(5));
    }
    None
}

// ---------------------------------------------------------------------------
// The measured window
// ---------------------------------------------------------------------------

/// One measured publication.
struct Sent {
    pool_idx: usize,
    due: Instant,
    acked: Option<(PubRef, Instant)>,
}

pub fn run(opts: &Opts, tracer: &mut Tracer, kind: Kind) -> Report {
    // The generator on the first allowed CPU and the broker on the second,
    // so the scheduler cannot move either next to the other: left to it, the
    // broker's CPU per delivery spread about twice as wide over ten runs.
    let cpus = sys::allowed_cpus();
    let broker_cpu = if cpus.len() >= 2 {
        sys::pin_to_cpu(cpus[0]).expect("pin the generator to a CPU it may use");
        Some(cpus[1])
    } else {
        None
    };
    let p = params(kind, opts.seed);
    let run_dir = opts.out_dir.join("run");
    std::fs::create_dir_all(&run_dir).expect("create the socket directory");
    // Relative to the working directory: socket paths are capped at 108
    // bytes and the checkout's absolute path may be long.
    let socket = format!(
        "{}/broker-{}.sock",
        relative(&run_dir).display(),
        std::process::id()
    );

    tracer.record_all();
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t0 = Instant::now();
        rig = Some(Rig::setup(opts, &p, &socket, kind, broker_cpu));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");

    let mut sent: Vec<Sent> = Vec::new();
    let mut seen: Vec<Seen> = Vec::new();
    let mut failed = 0u64;
    let mut late_us: Vec<f64> = Vec::new();
    let bytes0 = rig.pub_counters.bytes() + rig.sub_counters.bytes();
    let credits0 = rig.sub_counters.credits();
    let mut traced_deliveries = 0usize;
    let pid = rig.broker.pid();
    let window = Duration::from_secs(opts.seconds);
    let cpu0 = sys::cpu_seconds(Some(pid));
    let first_seq = rig.next_seq;
    let start = Instant::now();
    let end = start + window;
    let windows = (window.as_nanos() / SUB.as_nanos()) as usize;
    // The host's steal time at each sub-window boundary, as first observed.
    let mut steal_marks: Vec<f64> = vec![sys::steal_seconds()];
    let mark = |marks: &mut Vec<f64>| {
        if marks.len() <= windows && Instant::now() >= start + SUB * marks.len() as u32 {
            marks.push(sys::steal_seconds());
        }
    };
    match kind {
        Kind::Ack => {
            let Pub::Client(publisher) = &rig.publisher else {
                unreachable!("broker-ack publishes through dps-client")
            };
            while Instant::now() < end {
                let i = sent.len();
                let due = Instant::now();
                tracer.follow_slices(start, due);
                let ev = p.pool[i % POOL].clone();
                let span = tracer.begin("client.publish", i as u64);
                let out = publisher.publish(ev);
                tracer.end(span);
                let at = Instant::now();
                sent.push(Sent {
                    pool_idx: i % POOL,
                    due,
                    acked: out.as_ref().ok().map(|r| (*r, at)),
                });
                if out.is_err() {
                    failed += 1;
                }
                let n = drain(&rig.subs, tracer, &mut seen);
                if tracer.recording() {
                    traced_deliveries += n;
                }
                mark(&mut steal_marks);
            }
        }
        Kind::Fanout => {
            let interval = Duration::from_secs_f64(1.0 / FANOUT_RATE);
            let Pub::Raw(c) = &mut rig.publisher else {
                unreachable!("broker-fanout publishes through the raw wire client")
            };
            let mut ready = [false, false];
            loop {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                // Issue everything that is due.
                loop {
                    let due = start + interval * sent.len() as u32;
                    if due > now || due >= end {
                        break;
                    }
                    tracer.follow_slices(start, due);
                    let seq = rig.next_seq;
                    rig.next_seq += 1;
                    let idx = sent.len() % POOL;
                    let frame = Frame::Publish {
                        seq,
                        event: p.pool[idx].clone(),
                    };
                    let bytes = tracer.time("wire.encode", seq, || wire::encode(&frame));
                    c.queue_bytes(&bytes.expect("frame under the size cap"));
                    late_us.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                    sent.push(Sent {
                        pool_idx: idx,
                        due,
                        acked: None,
                    });
                }
                tracer.follow_slices(start, now);
                let span = tracer.begin("transport.send", 0);
                let flushed = c.flush();
                tracer.end(span);
                if flushed.is_err() {
                    break;
                }
                if ready[0] {
                    failed += read_acks(c, tracer, &mut sent, first_seq);
                }
                if ready[1] {
                    let n = drain(&rig.subs, tracer, &mut seen);
                    if tracer.recording() {
                        traced_deliveries += n;
                    }
                }
                mark(&mut steal_marks);
                let next_due = start + interval * sent.len() as u32;
                let timeout = next_due.saturating_duration_since(Instant::now());
                let r = sys::wait_readable(
                    &[rig.pub_counters.fd(), rig.sub_counters.fd()],
                    timeout.min(end.saturating_duration_since(Instant::now())),
                );
                ready = [r[0], r[1]];
            }
        }
    }
    while steal_marks.len() <= windows {
        mark(&mut steal_marks);
    }
    let cpu_s = sys::cpu_seconds(Some(pid)) - cpu0;
    let window_deliveries = seen.len();
    tracer.record_all();
    // Late acks of the pipelined publisher.
    if let Pub::Raw(c) = &mut rig.publisher {
        let grace_end = Instant::now() + GRACE;
        while sent.iter().any(|s| s.acked.is_none()) && Instant::now() < grace_end {
            let r = sys::wait_readable(&[rig.pub_counters.fd()], Duration::from_millis(5));
            if r[0] {
                failed += read_acks(c, tracer, &mut sent, first_seq);
            }
        }
    }

    // Expected deliveries, per filter in publish order.
    let mut expected: Vec<Vec<(u64, u32)>> = vec![Vec::new(); p.filters.len()];
    let mut sent_at: HashMap<(u64, u32), usize> = HashMap::new();
    for (i, s) in sent.iter().enumerate() {
        match s.acked {
            Some((r, _)) => {
                sent_at.insert((r.node, r.seq), i);
                for j in &p.matches[s.pool_idx] {
                    expected[*j as usize].push((r.node, r.seq));
                }
            }
            // A pipelined publish never acked; a refused ack-synchronous one
            // was counted when its call returned.
            None if kind == Kind::Fanout => failed += 1,
            None => {}
        }
    }
    let total_expected: usize = expected.iter().map(Vec::len).sum();
    // Late deliveries.
    let grace_end = Instant::now() + GRACE;
    let valid = |seen: &[Seen]| {
        seen.iter()
            .filter(|d| sent_at.contains_key(&(d.publisher, d.seq)))
            .count()
    };
    while valid(&seen) < total_expected && Instant::now() < grace_end {
        sys::wait_readable(&[rig.sub_counters.fd()], Duration::from_millis(5));
        drain(&rig.subs, tracer, &mut seen);
    }
    let peak_rss = sys::peak_rss_mib(Some(pid));
    let bytes = rig.pub_counters.bytes() + rig.sub_counters.bytes() - bytes0;
    let credits = rig.sub_counters.credits() - credits0;

    let mut r = Report::default();
    // Output check: each filter's deliveries equal its expected list, in
    // publish order, with nothing missing, extra or repeated.
    let mut received: Vec<Vec<(u64, u32)>> = vec![Vec::new(); p.filters.len()];
    let mut deliver_us = vec![Vec::new(); windows];
    let mut deliver_traced = Vec::new();
    let mut deliver_untraced = Vec::new();
    let mut first: HashSet<(u16, u64, u32)> = HashSet::new();
    for d in &seen {
        let key = (d.publisher, d.seq);
        if rig.probe_refs.contains(&key) {
            continue;
        }
        received[d.sub as usize].push(key);
        if let Some(&i) = sent_at.get(&key) {
            if first.insert((d.sub, d.publisher, d.seq)) {
                let us = d.at.saturating_duration_since(sent[i].due).as_secs_f64() * 1e6;
                deliver_us[window_of(start, sent[i].due, windows)].push(us);
                if slice_traced(start, sent[i].due) {
                    deliver_traced.push(us);
                } else {
                    deliver_untraced.push(us);
                }
            }
        }
    }
    let mut bad_deliveries = 0u64;
    for (j, (exp, got)) in expected.iter().zip(&received).enumerate() {
        let bad = delivery_errors(exp, got);
        if bad > 0 {
            eprintln!(
                "perfbench: filter {j}: {bad} delivery errors ({} expected, {} received)",
                exp.len(),
                got.len()
            );
        }
        bad_deliveries += bad;
    }
    let delivered = (total_expected as u64).saturating_sub(
        expected
            .iter()
            .zip(&received)
            .map(|(e, g)| missing(e, g))
            .sum::<u64>(),
    );

    let mut ack_us = vec![Vec::new(); windows];
    let mut ack_traced: Vec<f64> = Vec::new();
    let mut ack_untraced: Vec<f64> = Vec::new();
    for s in &sent {
        let Some((_, at)) = s.acked else { continue };
        let us = at.saturating_duration_since(s.due).as_secs_f64() * 1e6;
        ack_us[window_of(start, s.due, windows)].push(us);
        if slice_traced(start, s.due) {
            ack_traced.push(us);
        } else {
            ack_untraced.push(us);
        }
    }
    // Per sub-window statistics; each end-to-end figure is their median over
    // the third of the sub-windows in which the hypervisor took the least
    // time from this machine's CPUs. On a shared host, steal comes in bursts
    // of a few seconds that multiply the latency tails of the windows they
    // hit; the program's own stalls show in every window, so they still count.
    let steal: Vec<f64> = steal_marks.windows(2).map(|m| m[1] - m[0]).collect();
    let mut quiet: Vec<usize> = (0..windows).collect();
    quiet.sort_by(|a, b| steal[*a].total_cmp(&steal[*b]).then(a.cmp(b)));
    quiet.truncate(windows.div_ceil(3));
    let per = |f: &dyn Fn(usize) -> f64| median(&quiet.iter().map(|k| f(*k)).collect::<Vec<_>>());
    let acks: Vec<crate::stats::Summary> = ack_us.iter_mut().map(|v| summarize(v)).collect();
    let delivers: Vec<crate::stats::Summary> =
        deliver_us.iter_mut().map(|v| summarize(v)).collect();

    r.param("broker_background_nodes", p.nodes);
    r.param("filters", p.filters.len());
    r.param("event_pool", POOL);
    r.param("setups", SETUPS);
    r.param("credit_window", CREDIT);
    r.param_str(
        "cpus",
        &match broker_cpu {
            Some(c) => format!("generator on CPU {}, broker on CPU {c}", cpus[0]),
            None => "one CPU, unpinned".into(),
        },
    );
    r.param("probe_events", p.probes.len());
    match kind {
        Kind::Fanout => {
            r.param_str("loop", "open");
            r.param("offered_pubs_per_s", FANOUT_RATE);
        }
        Kind::Ack => r.param_str("loop", "closed, one publisher, ack-synchronous"),
    }
    r.param("published", sent.len());
    r.param("expected_deliveries", total_expected);
    r.param("broker_cpu_s", cpu_s);

    r.param("sub_windows", windows);
    r.param("quiet_sub_windows", quiet.len());
    r.param("steal_s", steal.iter().sum::<f64>());
    r.param(
        "steal_s_quiet",
        quiet.iter().map(|k| steal[*k]).sum::<f64>(),
    );
    r.samples("ack", acks.iter().map(|a| a.n).sum());
    r.samples("deliver", delivers.iter().map(|d| d.n).sum());
    r.samples(
        "ack_per_sub_window_min",
        acks.iter().map(|a| a.n).min().unwrap_or(0),
    );
    r.samples(
        "deliver_per_sub_window_min",
        delivers.iter().map(|d| d.n).min().unwrap_or(0),
    );
    r.e2e("setup_s", median(&setups));
    r.e2e("ack_p50_us", per(&|k| acks[k].p50));
    r.e2e("ack_p90_us", per(&|k| acks[k].p90));
    r.e2e("deliver_p50_us", per(&|k| delivers[k].p50));
    r.e2e("deliver_p90_us", per(&|k| delivers[k].p90));
    r.e2e("pubs_per_s", per(&|k| acks[k].n as f64 / SUB.as_secs_f64()));
    // CPU time leaves out steal, and a sub-window's ratio is noisy with a
    // few hundred deliveries in it (broker-ack), so this one is taken over
    // the whole window.
    r.e2e(
        "cpu_us_per_delivery",
        1e6 * ratio(cpu_s, window_deliveries as f64),
    );
    r.e2e(
        "delivered_ratio",
        ratio(delivered as f64, total_expected as f64),
    );
    r.e2e("peak_rss_mib", peak_rss);

    r.attempted = sent.len() as u64 + total_expected as u64;
    r.failed = failed + bad_deliveries;
    if total_expected == 0 {
        r.fail("no delivery was expected".into());
    }

    if tracer.enabled() {
        let l = tracer.layers();
        let publishes = sent.len() as f64;
        r.layer("transport.bytes_per_pub", ratio(bytes as f64, publishes));
        r.layer(
            "client.credit_frames_per_delivery",
            ratio(credits as f64, seen.len() as f64),
        );
        r.layer_per(
            &l,
            "client.drain",
            "client.drain_ns_per_delivery",
            traced_deliveries as f64,
        );
        let mut late = late_us;
        let late = summarize(&mut late);
        r.samples("gen.late", late.n);
        r.layer("gen.late_us_p90", late.p90);
        let (base, with) = match kind {
            Kind::Ack => (
                summarize(&mut ack_untraced).p50,
                summarize(&mut ack_traced).p50,
            ),
            Kind::Fanout => (
                summarize(&mut deliver_untraced).p50,
                summarize(&mut deliver_traced).p50,
            ),
        };
        r.layer("trace.overhead_frac", ratio(with - base, base));
        if kind == Kind::Ack {
            r.layer_p50_us(&l, "client.publish", "client.publish_us");
        }
        drop(l);

        // Lockstep replays of the same input, in this process.
        let events: Vec<SharedEvent> = sent
            .iter()
            .take(if opts.smoke { 200 } else { 2000 })
            .map(|s| p.pool[s.pool_idx].clone())
            .collect();
        let input = replay::Input {
            seed: opts.seed,
            background_nodes: p.nodes,
            filters: &p.filters,
            events: &events,
        };
        let work_ns = replay::broker(tracer, &input, &mut r);
        replay::overlay_facade(tracer, &input, &mut r);
        let (hits, queries) = replay::content(tracer, &p.filters, &events);
        let l = tracer.layers();
        r.layer("content.hits_per_query", ratio(hits as f64, queries as f64));
        r.layer_per(
            &l,
            "content.insert",
            "content.insert_ns",
            p.filters.len() as f64,
        );
        r.layer_per(&l, "content.match", "content.match_ns", queries as f64);
        if kind == Kind::Ack {
            let publish_ns = r.layers["client.publish_us"] * 1e3;
            r.layer("client.wait_frac", 1.0 - ratio(work_ns, publish_ns));
        }
    }
    drop(rig);
    let _ = std::fs::remove_file(&socket);
    r
}

/// The sub-window a request due at `due` belongs to.
fn window_of(start: Instant, due: Instant, windows: usize) -> usize {
    let k = due.saturating_duration_since(start).as_nanos() / SUB.as_nanos();
    (k as usize).min(windows - 1)
}

/// Drains every subscription of the subscriber session, recording what
/// arrived and when.
fn drain(subs: &[Subscriber], tracer: &mut Tracer, seen: &mut Vec<Seen>) -> usize {
    let mut n = 0;
    for (j, s) in subs.iter().enumerate() {
        let span = tracer.begin("client.drain", 0);
        let got = s.drain();
        tracer.end(span);
        if got.is_empty() {
            continue;
        }
        let at = Instant::now();
        n += got.len();
        seen.extend(got.iter().map(|d| Seen {
            sub: j as u16,
            publisher: d.publisher,
            seq: d.seq,
            at,
        }));
    }
    n
}

/// Reads the pipelined publisher's acks; returns how many were refusals.
fn read_acks(c: &mut RawClient, tracer: &mut Tracer, sent: &mut [Sent], first_seq: u64) -> u64 {
    let span = tracer.begin("transport.recv", 0);
    let got = c.recv();
    tracer.end(span);
    let mut refused = 0;
    if got.is_err() {
        return 0;
    }
    loop {
        let span = tracer.begin("wire.decode", 0);
        let f = c.next_frame();
        tracer.end(span);
        let Some(f) = f else { break };
        let at = Instant::now();
        if let Frame::Ack { seq, pub_id, error } = f {
            // Set-up probes used the sequence numbers before the window's.
            if seq < first_seq {
                continue;
            }
            let i = (seq - first_seq) as usize;
            match (pub_id, error) {
                (Some(r), None) if i < sent.len() => sent[i].acked = Some((r, at)),
                _ => refused += 1,
            }
        }
    }
    refused
}

/// Missing, extra, repeated and out-of-order entries of `got` against `exp`.
fn delivery_errors(exp: &[(u64, u32)], got: &[(u64, u32)]) -> u64 {
    let pos: HashMap<(u64, u32), usize> = exp.iter().enumerate().map(|(i, k)| (*k, i)).collect();
    let mut seen = HashSet::new();
    let mut last = None;
    let mut bad = 0u64;
    for k in got {
        match pos.get(k) {
            None => bad += 1,
            Some(_) if !seen.insert(*k) => bad += 1,
            Some(&i) => {
                if last.is_some_and(|l| i < l) {
                    bad += 1;
                } else {
                    last = Some(i);
                }
            }
        }
    }
    bad + missing(exp, got)
}

fn missing(exp: &[(u64, u32)], got: &[(u64, u32)]) -> u64 {
    let got: HashSet<&(u64, u32)> = got.iter().collect();
    exp.iter().filter(|k| !got.contains(k)).count() as u64
}

/// `path` relative to the working directory, when it lies below it.
fn relative(path: &std::path::Path) -> std::path::PathBuf {
    let cwd = std::env::current_dir().expect("working directory");
    let abs = if path.is_absolute() {
        path.to_path_buf()
    } else {
        cwd.join(path)
    };
    abs.strip_prefix(&cwd)
        .map_or(abs.clone(), |p| p.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_check_counts_each_kind_of_error() {
        let exp = [(1, 1), (1, 2), (1, 3)];
        assert_eq!(delivery_errors(&exp, &exp), 0);
        assert_eq!(delivery_errors(&exp, &[(1, 1), (1, 3)]), 1); // missing
        assert_eq!(delivery_errors(&exp, &[(1, 1), (1, 2), (1, 2), (1, 3)]), 1); // repeat
        assert_eq!(delivery_errors(&exp, &[(1, 2), (1, 1), (1, 3)]), 1); // order
        assert_eq!(delivery_errors(&exp, &[(1, 1), (1, 2), (1, 3), (9, 9)]), 1);
        // extra
    }
}
