//! Transport abstraction for the broker and its clients.
//!
//! The wire protocol ([`crate::wire`]) is transport-agnostic: anything that
//! moves ordered bytes both ways can carry it. This module defines the three
//! traits the broker is written against — [`Connection`], [`Listener`],
//! [`Transport`] — and ships two implementations:
//!
//! - [`UnixTransport`]: Unix-domain stream sockets, for real multi-process
//!   deployments (and the CI smoke job);
//! - [`ChannelTransport`]: an in-process byte-queue transport, for
//!   deterministic lockstep tests — no kernel, no scheduler, byte-identical
//!   runs.
//!
//! TCP or QUIC drop in later by implementing the same three traits; nothing
//! in the broker or client names a socket type.
//!
//! # Non-blocking contract
//!
//! All connections are non-blocking. `recv` and `send` follow std's
//! convention: `Err(e)` with `e.kind() == WouldBlock` means "nothing to do
//! right now", `Ok(0)` from `recv` means the peer closed cleanly. The broker's
//! event loop relies on this: it must never park inside one session's socket
//! while other sessions have work.
//!
//! # Readiness
//!
//! Instead of parking in a socket, the broker and the client park in
//! [`wait_ready`] on every descriptor at once (`ppoll(2)`), and wake as soon
//! as any of them has input. Connections and listeners expose their
//! descriptor through `fd()`; in-process transports have none and return
//! `None`, so a waiter can only time out on them.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, AsRawFd, BorrowedFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One ordered, bidirectional byte stream (non-blocking; see module docs).
pub trait Connection: Send {
    /// Writes as much of `buf` as the transport will take; `WouldBlock` when
    /// the peer's window is full.
    fn send(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Reads available bytes; `Ok(0)` is clean EOF, `WouldBlock` means none
    /// buffered yet.
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Closes the write side; the peer's next `recv` drains to `Ok(0)`.
    fn shutdown(&mut self);
    /// The descriptor [`wait_ready`] can block on, if the transport has one.
    fn fd(&self) -> Option<BorrowedFd<'_>> {
        None
    }
}

/// Accepts inbound [`Connection`]s (non-blocking).
pub trait Listener: Send {
    /// The next pending connection, or `None` when nobody is waiting.
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>>;
    /// The address this listener is bound to, for logs.
    fn local_addr(&self) -> String;
    /// The descriptor [`wait_ready`] can block on (readable when a connection
    /// is pending), if the transport has one.
    fn fd(&self) -> Option<BorrowedFd<'_>> {
        None
    }
}

/// A way of reaching (and serving) brokers: names addresses, mints listeners
/// and connections.
pub trait Transport {
    /// Binds a listener at `addr`.
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>>;
    /// Connects to the listener at `addr`.
    fn connect(&self, addr: &str) -> io::Result<Box<dyn Connection>>;
}

// ---------------------------------------------------------------------------
// Unix-domain sockets
// ---------------------------------------------------------------------------

/// [`Transport`] over Unix-domain stream sockets; `addr` is a filesystem path.
/// Binding unlinks a stale socket file first, so a crashed broker does not
/// wedge its successor.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnixTransport;

struct UnixConn(UnixStream);

impl Connection for UnixConn {
    fn send(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }

    fn shutdown(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Write);
    }

    fn fd(&self) -> Option<BorrowedFd<'_>> {
        Some(self.0.as_fd())
    }
}

struct UnixAcceptor {
    listener: UnixListener,
    path: PathBuf,
}

impl Listener for UnixAcceptor {
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(true)?;
                Ok(Some(Box::new(UnixConn(stream))))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn local_addr(&self) -> String {
        self.path.display().to_string()
    }

    fn fd(&self) -> Option<BorrowedFd<'_>> {
        Some(self.listener.as_fd())
    }
}

impl Drop for UnixAcceptor {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Transport for UnixTransport {
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        let path = PathBuf::from(addr);
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        Ok(Box::new(UnixAcceptor { listener, path }))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn Connection>> {
        let stream = UnixStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        Ok(Box::new(UnixConn(stream)))
    }
}

// ---------------------------------------------------------------------------
// Readiness
// ---------------------------------------------------------------------------

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` as Linux lays it out (`time_t` is a `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until a descriptor in `readable` has input (or its peer hung up),
/// one in `writable` can take output, or `timeout` passes. Returns how many
/// descriptors are ready; 0 means the timeout passed or a signal interrupted
/// the wait, which callers treat alike since they poll every source next.
/// With both sets empty this is a plain sleep of `timeout`.
#[allow(unsafe_code)]
pub fn wait_ready(
    readable: &[BorrowedFd<'_>],
    writable: &[BorrowedFd<'_>],
    timeout: Duration,
) -> io::Result<usize> {
    let mut set: Vec<PollFd> = readable
        .iter()
        .map(|fd| (fd, POLLIN))
        .chain(writable.iter().map(|fd| (fd, POLLOUT)))
        .map(|(fd, events)| PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        // Below 10^9, so it fits even a 32-bit long.
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
    // `pollfd` structs with the C layout, and every `fd` in it is borrowed
    // from an open descriptor for the duration of the call. `ts` outlives the
    // call, and a null signal mask means "leave the mask alone".
    let rc = unsafe {
        ppoll(
            set.as_mut_ptr(),
            set.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    match usize::try_from(rc) {
        Ok(n) => Ok(n),
        Err(_) => match io::Error::last_os_error() {
            e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            e => Err(e),
        },
    }
}

// ---------------------------------------------------------------------------
// In-process channels
// ---------------------------------------------------------------------------

/// One direction of a channel connection.
#[derive(Debug, Default)]
struct Pipe {
    bytes: VecDeque<u8>,
    closed: bool,
}

type SharedPipe = Arc<Mutex<Pipe>>;

struct ChannelConn {
    /// Bytes we read (peer writes here).
    rx: SharedPipe,
    /// Bytes we write (peer reads here).
    tx: SharedPipe,
}

impl Connection for ChannelConn {
    fn send(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut p = self.tx.lock().unwrap();
        if p.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        p.bytes.extend(buf);
        Ok(buf.len())
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut p = self.rx.lock().unwrap();
        if p.bytes.is_empty() {
            return if p.closed {
                Ok(0)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "no bytes queued"))
            };
        }
        let n = buf.len().min(p.bytes.len());
        for b in buf.iter_mut().take(n) {
            *b = p.bytes.pop_front().unwrap();
        }
        Ok(n)
    }

    fn shutdown(&mut self) {
        self.tx.lock().unwrap().closed = true;
    }
}

impl Drop for ChannelConn {
    fn drop(&mut self) {
        self.tx.lock().unwrap().closed = true;
        self.rx.lock().unwrap().closed = true;
    }
}

#[derive(Default)]
struct ChannelRegistry {
    /// Pending server-side halves per listening address.
    pending: HashMap<String, VecDeque<ChannelConn>>,
    listening: HashMap<String, bool>,
}

/// In-process [`Transport`]: connections are paired byte queues, addresses
/// live in a registry shared by `clone`s of this value. Fully deterministic —
/// no kernel buffering, no thread scheduling — which is what makes lockstep
/// broker tests byte-identical across runs.
#[derive(Clone, Default)]
pub struct ChannelTransport {
    registry: Arc<Mutex<ChannelRegistry>>,
}

impl ChannelTransport {
    /// A fresh, empty address space.
    pub fn new() -> Self {
        ChannelTransport::default()
    }
}

struct ChannelListener {
    registry: Arc<Mutex<ChannelRegistry>>,
    addr: String,
}

impl Listener for ChannelListener {
    fn accept(&mut self) -> io::Result<Option<Box<dyn Connection>>> {
        let mut reg = self.registry.lock().unwrap();
        Ok(reg
            .pending
            .get_mut(&self.addr)
            .and_then(|q| q.pop_front())
            .map(|c| Box::new(c) as Box<dyn Connection>))
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl Drop for ChannelListener {
    fn drop(&mut self) {
        let mut reg = self.registry.lock().unwrap();
        reg.listening.remove(&self.addr);
        reg.pending.remove(&self.addr);
    }
}

impl Transport for ChannelTransport {
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        let mut reg = self.registry.lock().unwrap();
        if reg.listening.insert(addr.to_string(), true).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("channel address {addr:?} already has a listener"),
            ));
        }
        reg.pending.entry(addr.to_string()).or_default();
        Ok(Box::new(ChannelListener {
            registry: self.registry.clone(),
            addr: addr.to_string(),
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn Connection>> {
        let mut reg = self.registry.lock().unwrap();
        if !reg.listening.contains_key(addr) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no channel listener at {addr:?}"),
            ));
        }
        let client_to_server: SharedPipe = Arc::default();
        let server_to_client: SharedPipe = Arc::default();
        let server_half = ChannelConn {
            rx: client_to_server.clone(),
            tx: server_to_client.clone(),
        };
        reg.pending
            .get_mut(addr)
            .expect("listening implies a pending queue")
            .push_back(server_half);
        Ok(Box::new(ChannelConn {
            rx: server_to_client,
            tx: client_to_server,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_moves_bytes_both_ways() {
        let t = ChannelTransport::new();
        let mut listener = t.listen("hub").unwrap();
        assert!(listener.accept().unwrap().is_none());
        let mut client = t.connect("hub").unwrap();
        let mut server = listener.accept().unwrap().expect("one pending conn");

        client.send(b"ping").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(server.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        server.send(b"pong").unwrap();
        assert_eq!(client.recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");

        // Empty queue reads as WouldBlock while open, EOF once shut down.
        assert_eq!(
            client.recv(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        server.shutdown();
        assert_eq!(client.recv(&mut buf).unwrap(), 0);
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let t = ChannelTransport::new();
        let err = match t.connect("nowhere") {
            Err(e) => e,
            Ok(_) => panic!("connect to a bare address must fail"),
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    /// A connected Unix-socket pair whose temp dir is removed on drop.
    struct UnixPair {
        dir: PathBuf,
        listener: Box<dyn Listener>,
        client: Box<dyn Connection>,
        server: Box<dyn Connection>,
    }

    impl UnixPair {
        fn new(tag: &str) -> UnixPair {
            let dir = std::env::temp_dir().join(format!("dps-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let addr = dir.join("t.sock").display().to_string();
            let mut listener = UnixTransport.listen(&addr).unwrap();
            let client = UnixTransport.connect(&addr).unwrap();
            let server = listener.accept().unwrap().expect("connect queued a peer");
            UnixPair {
                dir,
                listener,
                client,
                server,
            }
        }
    }

    impl Drop for UnixPair {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn wait_ready_wakes_as_soon_as_the_peer_writes() {
        let mut pair = UnixPair::new("wake");
        let fd = pair
            .server
            .fd()
            .expect("unix connections have a descriptor");
        let long = Duration::from_secs(20);
        assert_eq!(wait_ready(&[fd], &[], Duration::ZERO).unwrap(), 0);
        // An idle socket can take output right away.
        assert_eq!(wait_ready(&[], &[fd], long).unwrap(), 1);

        let client = &mut pair.client;
        let (go, start) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                start.recv().unwrap();
                client.send(b"x").unwrap();
            });
            let t0 = std::time::Instant::now();
            go.send(()).unwrap();
            assert_eq!(wait_ready(&[fd], &[], long).unwrap(), 1);
            assert!(
                t0.elapsed() < long / 2,
                "woke on the write, not the timeout"
            );
        });
    }

    #[test]
    fn wait_ready_times_out_with_nothing_ready() {
        let pair = UnixPair::new("idle");
        let fds = [pair.server.fd().unwrap(), pair.listener.fd().unwrap()];
        let timeout = Duration::from_millis(20);
        let t0 = std::time::Instant::now();
        assert_eq!(wait_ready(&fds, &[], timeout).unwrap(), 0);
        assert!(t0.elapsed() >= timeout);
    }

    #[test]
    fn channel_endpoints_have_no_descriptor() {
        let t = ChannelTransport::new();
        let mut listener = t.listen("hub").unwrap();
        let client = t.connect("hub").unwrap();
        assert!(listener.fd().is_none());
        assert!(client.fd().is_none());
        assert!(listener.accept().unwrap().unwrap().fd().is_none());
    }

    #[test]
    fn unix_round_trip() {
        let dir = std::env::temp_dir().join(format!("dps-ut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = dir.join("t.sock").display().to_string();
        let t = UnixTransport;
        let mut listener = t.listen(&addr).unwrap();
        assert!(listener.accept().unwrap().is_none());
        let mut client = t.connect(&addr).unwrap();
        let mut server = loop {
            if let Some(c) = listener.accept().unwrap() {
                break c;
            }
        };
        client.send(b"hello").unwrap();
        let mut buf = [0u8; 16];
        let n = loop {
            match server.recv(&mut buf) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("recv: {e}"),
            }
        };
        assert_eq!(&buf[..n], b"hello");
        drop(listener);
        assert!(!std::path::Path::new(&addr).exists(), "socket unlinked");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
