//! The single-threaded, non-blocking serving loop.
//!
//! One thread owns everything: the listener, every connection, the
//! bounded admission queue, and the [`ServerCore`]. Connections are
//! `std` sockets in non-blocking mode polled in a loop — no async
//! runtime, matching the workspace's zero-dependency rule. For 1 ms
//! after anything happens the loop polls on, yielding the CPU between
//! passes; only once it has been quiet that long does it sleep 500 µs
//! between passes.
//!
//! Robustness behaviors, each with its own counter (`server.*` in the
//! metrics registry, mirrored locally for the `stats` response):
//!
//! * **Bounded admission** — arrive/update/depart queue behind
//!   `queue_cap`; overflow is *shed* with
//!   `{"ok":false,"reason":"shed"}` instead of queued unboundedly.
//! * **Frame caps** — a line longer than `frame_cap` bytes is rejected
//!   (`oversized`) and the connection closed; a malformed line gets a
//!   `malformed` rejection but keeps the connection.
//! * **Slowloris guard** — a connection holding a partial frame longer
//!   than `read_timeout` without sending another byte is dropped.
//! * **Disconnect tolerance** — a client vanishing mid-conversation
//!   never stalls the loop; pending responses to it are discarded.
//!
//! Every complete request line is answered with exactly one response
//! line, in order. Ticks run either on an explicit `tick` command
//! (`tick_interval: None` — the deterministic mode the chaos harness
//! and lockstep clients use) or on a timer.

use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rebudget_telemetry as telemetry;

use crate::proto::{err_response, ok_response, parse_request, Request};
use crate::state::{ServerCore, TickReport};
use crate::ServerResult;

/// How long the loop keeps polling after the last thing that happened.
/// A lockstep client's next frame follows its ack within microseconds.
/// Sleeping as soon as a pass finds nothing would make that frame race
/// the sleep: answered at once or ~500 µs later, depending on CPU
/// placement and host timing.
const BUSY_POLL: Duration = Duration::from_millis(1);
/// The pause between passes once the loop has been quiet for
/// [`BUSY_POLL`].
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Serving-loop knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Admission queue bound; overflow is shed.
    pub queue_cap: usize,
    /// Maximum bytes per request line.
    pub frame_cap: usize,
    /// How long a connection may hold a partial frame without sending
    /// another byte before it is dropped (slowloris guard).
    pub read_timeout: Duration,
    /// Timer-driven tick period; `None` runs ticks only on explicit
    /// `tick` commands (the deterministic mode).
    pub tick_interval: Option<Duration>,
    /// Shut down (seal the ledger) after this many committed ticks.
    pub max_ticks: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            queue_cap: 1024,
            frame_cap: 64 * 1024,
            read_timeout: Duration::from_secs(5),
            tick_interval: None,
            max_ticks: None,
        }
    }
}

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix domain socket at this path (removed and re-bound if a
    /// stale file is left from a killed daemon).
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP listen address, e.g. `127.0.0.1:0`.
    Tcp(String),
}

trait Sock: io::Read + io::Write + Send {
    /// Ends the output: the peer reads what was sent, then EOF.
    fn shutdown_write(&self) -> io::Result<()>;
}
#[cfg(unix)]
impl Sock for UnixStream {
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}
impl Sock for TcpStream {
    fn shutdown_write(&self) -> io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}

/// A bound listener, split from [`Daemon::serve`] so callers can
/// announce readiness (and the resumed tick) before serving begins.
pub struct Listener {
    inner: ListenerInner,
    /// Human-readable bound address.
    pub local_addr: String,
}

enum ListenerInner {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds (non-blocking) to `endpoint`.
    ///
    /// # Errors
    ///
    /// [`crate::ServerError::Io`] for bind failures.
    pub fn bind(endpoint: &Endpoint) -> ServerResult<Self> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A SIGKILLed daemon leaves its socket file behind; the
                // state directory (ledger collision) is the real
                // single-instance guard, so a stale file is removed.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Self {
                    inner: ListenerInner::Unix(l),
                    local_addr: path.display().to_string(),
                })
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                let local = l.local_addr()?;
                Ok(Self {
                    inner: ListenerInner::Tcp(l),
                    local_addr: local.to_string(),
                })
            }
        }
    }

    fn accept(&self) -> io::Result<Option<Box<dyn Sock>>> {
        let sock: Box<dyn Sock> = match &self.inner {
            #[cfg(unix)]
            ListenerInner::Unix(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    Box::new(s)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
            ListenerInner::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(true)?;
                    s.set_nodelay(true)?;
                    Box::new(s)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            },
        };
        Ok(Some(sock))
    }
}

/// Request accounting, mirrored into `server.*` counters while telemetry
/// is on. The ledger of request fates: every complete admission frame
/// ends up in exactly one of `shed`, `accepted`, or `rejected` once its
/// tick has run (or `malformed` if it never parsed); `requests` counts
/// every complete frame received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Complete request lines received (admission + control).
    pub requests: u64,
    /// Lines that failed to parse or validate.
    pub malformed: u64,
    /// Frames over `frame_cap` (connection closed).
    pub oversized: u64,
    /// Admission commands shed at the full queue.
    pub shed: u64,
    /// Admission commands applied successfully at a tick.
    pub accepted: u64,
    /// Admission commands rejected at apply (duplicate/unknown id, …).
    pub rejected: u64,
    /// Control commands handled (tick / stats / shutdown).
    pub control: u64,
    /// Connections dropped by the slowloris guard.
    pub slowloris: u64,
    /// Connections that disconnected (EOF or write failure).
    pub disconnects: u64,
    /// Ticks committed by this process (resumed ticks not included).
    pub ticks: u64,
    /// Ticks that fell back to `EqualShare`.
    pub fallback_ticks: u64,
}

macro_rules! bump {
    ($stats:expr, $field:ident) => {{
        $stats.$field += 1;
        if telemetry::enabled() {
            telemetry::global()
                .registry
                .counter(concat!("server.", stringify!($field)))
                .incr();
        }
    }};
}

struct Conn {
    /// `None` once closed — dropping the boxed stream closes the fd, so
    /// the peer actually observes EOF/reset.
    sock: Option<Box<dyn Sock>>,
    /// Monotone id; queued commands name their sender by id, not index,
    /// so a recycled slot can never receive someone else's rejection.
    id: u64,
    buf: Vec<u8>,
    out: Vec<u8>,
    last_activity: Instant,
}

impl Conn {
    fn is_open(&self) -> bool {
        self.sock.is_some()
    }

    /// Writes as much pending output as the socket will take.
    /// `Ok(true)` if fully drained, `Ok(false)` on `WouldBlock`,
    /// `Err` on a fatal socket error.
    fn write_out(&mut self) -> io::Result<bool> {
        let Some(sock) = self.sock.as_mut() else {
            return Ok(true);
        };
        while !self.out.is_empty() {
            match sock.write(&self.out) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Best-effort flush of pending output, then ends the output and
    /// drops the socket (which closes it). Ending the output first sends
    /// the EOF even when the peer's unread bytes make the close a reset.
    fn close(&mut self) {
        let _ = self.write_out();
        if let Some(sock) = self.sock.as_mut() {
            let _ = sock.flush();
            let _ = sock.shutdown_write();
        }
        self.sock = None;
        self.buf.clear();
        self.out.clear();
    }

    /// Drops the socket without flushing (for misbehaving peers).
    fn abort(&mut self) {
        self.sock = None;
        self.buf.clear();
        self.out.clear();
    }
}

/// One queued admission command.
struct Queued {
    req: Request,
    /// [`Conn::id`] of the (possibly since-departed) sender.
    conn_id: u64,
}

/// What a serving run did, for the CLI's summary line.
#[derive(Debug, Clone)]
pub struct DaemonSummary {
    /// Ticks committed across the daemon's lifetime (including resumed
    /// ones from before a crash).
    pub ticks: u64,
    /// Sealed ledger record count.
    pub records: usize,
    /// Request accounting for this process.
    pub stats: Stats,
}

/// The serving loop around a [`ServerCore`].
pub struct Daemon {
    core: ServerCore,
    config: DaemonConfig,
    stats: Stats,
    queue: VecDeque<Queued>,
    conns: Vec<Conn>,
    next_conn_id: u64,
    shutdown: bool,
}

impl Daemon {
    /// Wraps a recovered-or-fresh core in a serving loop.
    #[must_use]
    pub fn new(core: ServerCore, config: DaemonConfig) -> Self {
        Self {
            core,
            config,
            stats: Stats::default(),
            queue: VecDeque::new(),
            conns: Vec::new(),
            next_conn_id: 0,
            shutdown: false,
        }
    }

    /// The wrapped core (for readiness announcements).
    #[must_use]
    pub fn core(&self) -> &ServerCore {
        &self.core
    }

    /// Serves until a `shutdown` command (or `max_ticks`), then seals
    /// the ledger.
    ///
    /// # Errors
    ///
    /// [`crate::ServerError::Io`] for listener failures and
    /// [`crate::ServerError::Market`]/[`crate::ServerError::Snapshot`]
    /// from tick commits. Per-connection errors are handled, not
    /// propagated.
    pub fn serve(mut self, listener: Listener) -> ServerResult<DaemonSummary> {
        let mut last_tick = Instant::now();
        let mut last_active = Instant::now();
        loop {
            let mut active = false;
            while let Some(sock) = listener.accept()? {
                let id = self.next_conn_id;
                self.next_conn_id += 1;
                self.conns.push(Conn {
                    sock: Some(sock),
                    id,
                    buf: Vec::new(),
                    out: Vec::new(),
                    last_activity: Instant::now(),
                });
                active = true;
            }
            for i in 0..self.conns.len() {
                if self.conns[i].is_open() {
                    active |= self.pump_conn(i)?;
                }
            }
            if self.shutdown {
                break;
            }
            if let Some(interval) = self.config.tick_interval {
                if last_tick.elapsed() >= interval {
                    self.run_tick()?;
                    last_tick = Instant::now();
                    active = true;
                }
            }
            if let Some(max) = self.config.max_ticks {
                if self.core.tick_index() >= max {
                    break;
                }
            }
            self.guard_slowloris();
            self.flush_all();
            if active {
                last_active = Instant::now();
            } else if last_active.elapsed() < BUSY_POLL {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        self.flush_all();
        for conn in &mut self.conns {
            conn.close();
        }
        let records = self.core.seal()?;
        Ok(DaemonSummary {
            ticks: self.core.tick_index(),
            records,
            stats: self.stats,
        })
    }

    /// Reads whatever `conn` has, handling every complete line.
    /// Returns whether anything happened.
    fn pump_conn(&mut self, i: usize) -> ServerResult<bool> {
        let mut active = false;
        let mut eof = false;
        let mut tmp = [0u8; 4096];
        while let Some(sock) = self.conns[i].sock.as_mut() {
            match sock.read(&mut tmp) {
                Ok(0) => {
                    eof = true;
                    active = true;
                    break;
                }
                Ok(n) => {
                    self.conns[i].buf.extend_from_slice(&tmp[..n]);
                    self.conns[i].last_activity = Instant::now();
                    active = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    active = true;
                    break;
                }
            }
        }
        // Handle every complete buffered line — including lines that
        // arrived in the same segment as an EOF — enforcing the frame
        // cap on both complete and still-partial frames.
        loop {
            let conn = &mut self.conns[i];
            if !conn.is_open() {
                break;
            }
            match conn.buf.iter().position(|&b| b == b'\n') {
                Some(pos) if pos > self.config.frame_cap => {
                    self.oversize(i);
                    break;
                }
                Some(pos) => {
                    let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..pos]).into_owned();
                    let line = line.trim_end_matches('\r').to_string();
                    if line.is_empty() {
                        continue;
                    }
                    self.handle_line(i, &line)?;
                    active = true;
                }
                None if conn.buf.len() > self.config.frame_cap => {
                    self.oversize(i);
                    break;
                }
                None => break,
            }
        }
        if eof && self.conns[i].is_open() {
            bump!(self.stats, disconnects);
            self.conns[i].close();
        }
        Ok(active)
    }

    fn oversize(&mut self, i: usize) {
        bump!(self.stats, oversized);
        let cap = self.config.frame_cap;
        self.respond(
            i,
            &err_response("oversized", &format!("frame exceeds {cap} bytes")),
        );
        // `close` flushes the rejection before dropping the socket.
        self.conns[i].close();
    }

    fn event_request(&self, cmd: &str, outcome: &str) {
        if telemetry::enabled() {
            telemetry::record(
                telemetry::Event::new("server_request")
                    .field_str("cmd", cmd)
                    .field_str("outcome", outcome),
            );
        }
    }

    fn handle_line(&mut self, i: usize, line: &str) -> ServerResult<()> {
        bump!(self.stats, requests);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(e) => {
                bump!(self.stats, malformed);
                self.event_request("?", "malformed");
                self.respond(i, &err_response("malformed", &e.0));
                return Ok(());
            }
        };
        if req.is_admission() {
            if self.queue.len() >= self.config.queue_cap {
                bump!(self.stats, shed);
                self.event_request(req.cmd(), "shed");
                let cap = self.config.queue_cap;
                self.respond(
                    i,
                    &err_response("shed", &format!("admission queue full (cap {cap})")),
                );
            } else {
                self.event_request(req.cmd(), "queued");
                let ack = ok_response(&[
                    ("queued", "true".into()),
                    ("tick", self.core.tick_index().to_string()),
                ]);
                let conn_id = self.conns[i].id;
                self.queue.push_back(Queued { req, conn_id });
                self.respond(i, &ack);
            }
            return Ok(());
        }
        bump!(self.stats, control);
        match req {
            Request::Tick => {
                let report = self.run_tick()?;
                self.event_request("tick", "ok");
                let line = ok_response(&[
                    ("tick", report.tick.to_string()),
                    ("players", report.players.to_string()),
                    ("admitted", report.admitted.to_string()),
                    ("converged", report.converged.to_string()),
                    ("fallback", report.fallback.to_string()),
                    ("iterations", report.iterations.to_string()),
                ]);
                self.respond(i, &line);
            }
            Request::Stats => {
                self.event_request("stats", "ok");
                let s = &self.stats;
                let line = ok_response(&[
                    ("tick", self.core.tick_index().to_string()),
                    ("players", self.core.players().to_string()),
                    ("degraded", self.core.degraded().to_string()),
                    ("records", self.core.records().to_string()),
                    ("queued", self.queue.len().to_string()),
                    ("requests", s.requests.to_string()),
                    ("accepted", s.accepted.to_string()),
                    ("rejected", s.rejected.to_string()),
                    ("shed", s.shed.to_string()),
                    ("malformed", s.malformed.to_string()),
                    ("oversized", s.oversized.to_string()),
                ]);
                self.respond(i, &line);
            }
            Request::Shutdown => {
                self.event_request("shutdown", "ok");
                // Any still-queued admissions are committed first: the
                // client was promised a tick would apply them.
                if !self.queue.is_empty() {
                    self.run_tick()?;
                }
                let line = ok_response(&[("records", self.core.records().to_string())]);
                self.respond(i, &line);
                self.shutdown = true;
            }
            _ => unreachable!("admission handled above"),
        }
        Ok(())
    }

    /// Drains the admission queue and commits one tick.
    fn run_tick(&mut self) -> ServerResult<TickReport> {
        let mut admitted = 0usize;
        while let Some(q) = self.queue.pop_front() {
            match self.core.apply(&q.req) {
                Ok(()) => {
                    bump!(self.stats, accepted);
                    admitted += 1;
                }
                Err(e) => {
                    bump!(self.stats, rejected);
                    self.event_request(q.req.cmd(), "rejected");
                    // The enqueue ack promised nothing beyond a try; a
                    // rejected apply is surfaced on the sender's
                    // connection as an extra line if it is still here.
                    if let Some(t) = self.conns.iter().position(|c| c.id == q.conn_id) {
                        self.respond(t, &err_response("rejected", &e.to_string()));
                    }
                }
            }
        }
        let report = self.core.tick(admitted)?;
        bump!(self.stats, ticks);
        if report.fallback {
            bump!(self.stats, fallback_ticks);
        }
        if telemetry::enabled() {
            telemetry::record(
                telemetry::Event::new("server_tick")
                    .field_u64("tick", report.tick)
                    .field_u64("players", report.players as u64)
                    .field_u64("admitted", report.admitted as u64)
                    .field_bool("converged", report.converged)
                    .field_bool("fallback", report.fallback),
            );
        }
        Ok(report)
    }

    fn respond(&mut self, i: usize, line: &str) {
        if let Some(conn) = self.conns.get_mut(i) {
            if conn.is_open() {
                conn.out.extend_from_slice(line.as_bytes());
                conn.out.push(b'\n');
            }
        }
    }

    fn guard_slowloris(&mut self) {
        let timeout = self.config.read_timeout;
        for i in 0..self.conns.len() {
            let conn = &mut self.conns[i];
            if conn.is_open() && !conn.buf.is_empty() && conn.last_activity.elapsed() > timeout {
                conn.abort();
                bump!(self.stats, slowloris);
            }
        }
    }

    fn flush_all(&mut self) {
        for i in 0..self.conns.len() {
            if !self.conns[i].is_open() || self.conns[i].out.is_empty() {
                continue;
            }
            if self.conns[i].write_out().is_err() {
                self.conns[i].abort();
                bump!(self.stats, disconnects);
            }
        }
        // Drop fully-closed trailing connections; interior slots keep
        // their index so in-flight line handling stays valid.
        while self.conns.last().is_some_and(|c| !c.is_open()) {
            self.conns.pop();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::state::ServerConfig;
    use rebudget_market::equilibrium::EquilibriumOptions;
    use rebudget_market::{RetryPolicy, SolverKind};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn test_config() -> ServerConfig {
        ServerConfig {
            capacities: vec![10.0; 4],
            solver: SolverKind::ProportionalResponse,
            options: EquilibriumOptions::large_scale(),
            retry: RetryPolicy::default(),
            fallback_after: 3,
            seed: 1,
            commit_delay_ms: 0,
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rebudget-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Spawns a daemon on an ephemeral TCP port; returns the address
    /// and the serving thread's handle.
    fn spawn_daemon(
        tag: &str,
        dconfig: DaemonConfig,
    ) -> (String, std::thread::JoinHandle<DaemonSummary>) {
        let dir = temp_dir(tag);
        let core = ServerCore::open(test_config(), &dir).unwrap();
        let daemon = Daemon::new(core, dconfig);
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr.clone();
        let handle = std::thread::spawn(move || daemon.serve(listener).unwrap());
        (addr, handle)
    }

    fn roundtrip(reader: &mut impl BufRead, sock: &mut impl Write, line: &str) -> String {
        writeln!(sock, "{line}").unwrap();
        sock.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    }

    #[test]
    fn serves_a_session_end_to_end() {
        let (addr, handle) = spawn_daemon("session", DaemonConfig::default());
        let sock = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let mut sock = sock;
        let ack = roundtrip(
            &mut reader,
            &mut sock,
            "{\"cmd\":\"arrive\",\"id\":\"a\",\"budget\":100,\"interests\":[[0,1],[1,2]]}",
        );
        assert!(ack.contains("\"ok\":true"), "{ack}");
        let ack = roundtrip(
            &mut reader,
            &mut sock,
            "{\"cmd\":\"arrive\",\"id\":\"b\",\"budget\":100,\"interests\":[[1,1],[2,2]]}",
        );
        assert!(ack.contains("\"queued\":true"), "{ack}");
        let tick = roundtrip(&mut reader, &mut sock, "{\"cmd\":\"tick\"}");
        assert!(tick.contains("\"tick\":0"), "{tick}");
        assert!(tick.contains("\"players\":2"), "{tick}");
        assert!(tick.contains("\"admitted\":2"), "{tick}");
        assert!(tick.contains("\"converged\":true"), "{tick}");
        // Malformed line: named rejection, connection stays usable.
        let bad = roundtrip(&mut reader, &mut sock, "definitely not json");
        assert!(bad.contains("\"reason\":\"malformed\""), "{bad}");
        // Unknown player rejection surfaces at the tick.
        let ack = roundtrip(&mut reader, &mut sock, "{\"cmd\":\"depart\",\"id\":\"zz\"}");
        assert!(ack.contains("\"queued\":true"), "{ack}");
        writeln!(sock, "{{\"cmd\":\"tick\"}}").unwrap();
        let mut lines = Vec::new();
        for _ in 0..2 {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            lines.push(l);
        }
        let joined = lines.join("");
        assert!(joined.contains("\"reason\":\"rejected\""), "{joined}");
        assert!(joined.contains("\"tick\":1"), "{joined}");
        let stats = roundtrip(&mut reader, &mut sock, "{\"cmd\":\"stats\"}");
        assert!(stats.contains("\"players\":2"), "{stats}");
        assert!(stats.contains("\"rejected\":1"), "{stats}");
        let bye = roundtrip(&mut reader, &mut sock, "{\"cmd\":\"shutdown\"}");
        assert!(bye.contains("\"ok\":true"), "{bye}");
        let summary = handle.join().unwrap();
        assert_eq!(summary.ticks, 2);
        assert_eq!(summary.records, 2);
        assert_eq!(summary.stats.accepted, 2);
        assert_eq!(summary.stats.rejected, 1);
        assert_eq!(summary.stats.malformed, 1);
        // Every request frame is accounted for exactly once.
        assert_eq!(
            summary.stats.requests,
            summary.stats.accepted
                + summary.stats.rejected
                + summary.stats.shed
                + summary.stats.malformed
                + summary.stats.control
        );
        // With telemetry off, `Stats` alone keeps the count: no frame
        // touched the metrics registry.
        let counters = telemetry::global().registry.snapshot().counters;
        assert!(
            counters
                .iter()
                .all(|(name, _)| !name.starts_with("server.")),
            "{counters:?}"
        );
    }

    #[test]
    fn sheds_above_the_admission_bound() {
        let config = DaemonConfig {
            queue_cap: 2,
            ..DaemonConfig::default()
        };
        let (addr, handle) = spawn_daemon("shed", config);
        let sock = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let mut sock = sock;
        let mut sheds = 0;
        for k in 0..5 {
            let resp = roundtrip(
                &mut reader,
                &mut sock,
                &format!(
                    "{{\"cmd\":\"arrive\",\"id\":\"p{k}\",\"budget\":10,\"interests\":[[0,1]]}}"
                ),
            );
            if resp.contains("\"reason\":\"shed\"") {
                sheds += 1;
            }
        }
        assert_eq!(sheds, 3, "cap 2 of 5 queued");
        roundtrip(&mut reader, &mut sock, "{\"cmd\":\"tick\"}");
        roundtrip(&mut reader, &mut sock, "{\"cmd\":\"shutdown\"}");
        let summary = handle.join().unwrap();
        assert_eq!(summary.stats.shed, 3);
        assert_eq!(summary.stats.accepted, 2);
    }

    #[test]
    fn oversized_frames_close_the_connection() {
        let config = DaemonConfig {
            frame_cap: 128,
            ..DaemonConfig::default()
        };
        let (addr, handle) = spawn_daemon("oversize", config);
        let sock = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let mut sock = sock;
        let huge = format!(
            "{{\"cmd\":\"arrive\",\"id\":\"p\",\"budget\":1,\"interests\":[[0,1]],\"pad\":\"{}\"}}",
            "x".repeat(512)
        );
        let resp = roundtrip(&mut reader, &mut sock, &huge);
        assert!(resp.contains("\"reason\":\"oversized\""), "{resp}");
        // The connection is closed after the rejection.
        let mut rest = String::new();
        reader.read_line(&mut rest).unwrap();
        assert!(rest.is_empty(), "EOF after oversized frame, got {rest:?}");
        // A fresh connection still works.
        let sock2 = TcpStream::connect(&addr).unwrap();
        let mut reader2 = BufReader::new(sock2.try_clone().unwrap());
        let mut sock2 = sock2;
        let bye = roundtrip(&mut reader2, &mut sock2, "{\"cmd\":\"shutdown\"}");
        assert!(bye.contains("\"ok\":true"), "{bye}");
        let summary = handle.join().unwrap();
        assert_eq!(summary.stats.oversized, 1);
    }

    #[test]
    fn slowloris_partial_frames_are_dropped() {
        let config = DaemonConfig {
            read_timeout: Duration::from_millis(50),
            ..DaemonConfig::default()
        };
        let (addr, handle) = spawn_daemon("slowloris", config);
        let mut slow = TcpStream::connect(&addr).unwrap();
        // A partial frame, never completed.
        slow.write_all(b"{\"cmd\":\"arr").unwrap();
        slow.flush().unwrap();
        std::thread::sleep(Duration::from_millis(200));
        // The guard must have dropped it: reads now see EOF/reset.
        let mut buf = [0u8; 16];
        let dropped = matches!(slow.read(&mut buf), Ok(0) | Err(_));
        assert!(dropped, "slowloris connection still open");
        let sock = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let mut sock = sock;
        let bye = roundtrip(&mut reader, &mut sock, "{\"cmd\":\"shutdown\"}");
        assert!(bye.contains("\"ok\":true"), "{bye}");
        let summary = handle.join().unwrap();
        assert_eq!(summary.stats.slowloris, 1);
    }
}
