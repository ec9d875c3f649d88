//! Chaos harness for `rebudget serve`: the kill-safety acceptance test.
//!
//! Drives a real daemon subprocess over its Unix socket with the seeded
//! [`rebudget_server::WorkloadSpec`] churn, injects every class of
//! client misbehavior (malformed frames, oversized frames, slowloris
//! partial frames, mid-line disconnects), SIGKILLs the daemon at
//! randomized points — including inside the widened append→snapshot
//! commit window (`--commit-delay-ms`) — restarts it, re-drives exactly
//! the ticks the crash lost (the workload is per-tick pure), and proves
//! the final sealed ledger is **byte-identical** to an uninterrupted
//! reference run. The ledger must then pass `scenario audit`. A second
//! run does the same after a long uptime, where recovery has thousands
//! of records to validate.

#![cfg(unix)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use rebudget_server::{Request, WorkloadSpec};

const BIN: &str = env!("CARGO_BIN_EXE_rebudget");

/// Total market quanta in the short chaos run (reference and chaos alike).
const TICKS: u64 = 8;

/// Ticks committed before the long-uptime SIGKILL: the uptime of the
/// benchmark's `serve-uptime` workload.
const LONG_TICKS: u64 = 2000;

/// Ticks re-driven after the long-uptime restart.
const TAIL_TICKS: u64 = 10;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rebudget-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The workload both runs replay: must match the daemon's `--resources`.
fn spec() -> WorkloadSpec {
    WorkloadSpec::small(11, 6)
}

struct Daemon {
    child: Child,
    /// Tick index the daemon reported on its readiness line — the last
    /// durably committed tick, so re-driving starts at `ready_tick + 1`.
    ready_tick: u64,
}

impl Daemon {
    fn spawn(socket: &Path, state_dir: &Path, extra: &[&str]) -> Self {
        let mut child = Command::new(BIN)
            .arg("serve")
            .arg(format!("--socket={}", socket.display()))
            .arg(format!("--state-dir={}", state_dir.display()))
            .args(["--resources=6", "--capacity=8.0", "--seed=11"])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn daemon");
        // The readiness line is printed after the socket is bound, so
        // reading it doubles as the connect barrier:
        //   serving on PATH at tick N (M player(s))
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let mut line = String::new();
        stderr.read_line(&mut line).expect("readiness line");
        assert!(line.starts_with("serving on "), "unexpected stderr: {line}");
        let ready_tick: u64 = line
            .split(" at tick ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable readiness line: {line}"));
        Daemon { child, ready_tick }
    }

    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reap");
    }

    fn wait_clean(mut self) {
        let status = self.child.wait().expect("wait");
        assert!(status.success(), "daemon exited {status}");
    }
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &Path) -> Self {
        let stream = UnixStream::connect(socket).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write newline");
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(!line.is_empty(), "daemon closed the connection");
        line
    }

    fn request(&mut self, req: &Request) -> String {
        self.send_raw(&req.to_line());
        self.read_line()
    }

    /// Sends every admission command for `tick`, then the tick command,
    /// and reads until the tick response (skipping any per-command
    /// rejection lines the tick surfaces).
    fn drive_tick(&mut self, spec: &WorkloadSpec, tick: u64) {
        for cmd in spec.commands_for_tick(tick) {
            let resp = self.request(&cmd);
            assert!(
                resp.contains("\"queued\":true"),
                "tick {tick} admission not queued: {resp}"
            );
        }
        self.send_raw(&Request::Tick.to_line());
        loop {
            let resp = self.read_line();
            if resp.contains("\"reason\":\"rejected\"") {
                continue;
            }
            assert!(
                resp.contains("\"ok\":true") && resp.contains("\"tick\":"),
                "tick {tick} response: {resp}"
            );
            break;
        }
    }
}

/// An uninterrupted run of `ticks` quanta: the reference ledger bytes.
fn reference_ledger(tag: &str, ticks: u64) -> String {
    let dir = temp_dir(tag);
    let socket = dir.join("ref.sock");
    let state = dir.join("state");
    let daemon = Daemon::spawn(&socket, &state, &[]);
    assert_eq!(daemon.ready_tick, 0);
    let mut client = Client::connect(&socket);
    let spec = spec();
    for tick in 1..=ticks {
        client.drive_tick(&spec, tick);
    }
    shutdown(daemon, client);
    std::fs::read_to_string(state.join("server.ledger")).expect("reference ledger")
}

/// Graceful shutdown: the daemon seals its ledger and exits cleanly.
fn shutdown(daemon: Daemon, mut client: Client) {
    let resp = client.request(&Request::Shutdown);
    assert!(resp.contains("\"records\":"), "shutdown: {resp}");
    daemon.wait_clean();
}

/// The sealed ledger passes the hash-chain integrity audit.
fn assert_audits(ledger: &Path) {
    let audit = rebudget_cli::run(&[
        "scenario".to_string(),
        "audit".to_string(),
        ledger.display().to_string(),
    ])
    .expect("audit passes");
    assert!(audit.contains("ok"), "audit output: {audit}");
}

/// Malformed, oversized, slowloris, and mid-line-disconnect clients, all
/// on their own connections so the main session stays clean.
fn inject_abuse(socket: &Path) {
    // Malformed line: named error, connection stays open; then drop it
    // mid-session (a disconnect the daemon must absorb).
    let mut bad = Client::connect(socket);
    bad.send_raw("this is not json");
    let resp = bad.read_line();
    assert!(resp.contains("\"reason\":\"malformed\""), "{resp}");
    drop(bad);

    // Oversized frame (default cap 64 KiB): one rejection line, then the
    // daemon closes the connection.
    let mut big = Client::connect(socket);
    big.send_raw(&"x".repeat(70_000));
    let resp = big.read_line();
    assert!(resp.contains("\"reason\":\"oversized\""), "{resp}");
    let mut rest = Vec::new();
    match big.reader.read_to_end(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "data after oversize close"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
            "{e}"
        ),
    }

    // Mid-line disconnect: half a frame, then vanish.
    let mut half = Client::connect(socket);
    half.writer
        .write_all(b"{\"cmd\":\"arr")
        .expect("partial write");
    drop(half);

    // Slowloris: a partial frame parked past --read-timeout-ms must get
    // the connection dropped without a response.
    let slow = UnixStream::connect(socket).expect("connect slowloris");
    slow.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    (&slow)
        .write_all(b"{\"cmd\":\"tick")
        .expect("partial write");
    let mut buf = [0u8; 64];
    match (&slow).read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("slowloris got {n} bytes instead of EOF"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
            "slowloris read: {e}"
        ),
    }
}

/// The acceptance test: SIGKILL at randomized points — once inside the
/// widened append→snapshot window, once right at tick submission — then
/// resume, re-drive the lost ticks, and match the reference ledger
/// byte for byte. The sealed ledger must also pass `scenario audit`.
#[test]
fn sigkill_mid_tick_resumes_byte_identical() {
    let reference = reference_ledger("ref", TICKS);

    let dir = temp_dir("chaos");
    let socket = dir.join("chaos.sock");
    let state = dir.join("state");
    let spec = spec();
    // Widen the window between ledger append and snapshot commit so the
    // first SIGKILL reliably lands where the ledger is one record ahead.
    let extra = &["--commit-delay-ms=200", "--read-timeout-ms=300"];

    // (kill tick, delay before SIGKILL): 120 ms lands mid commit-delay
    // (ledger ahead of snapshot); 0 ms races the solve itself.
    let kills = [(3u64, 120u64), (6, 0)];
    for (kill_tick, delay_ms) in kills {
        let daemon = Daemon::spawn(&socket, &state, extra);
        assert!(
            daemon.ready_tick < kill_tick,
            "daemon resumed at {} past kill point {kill_tick}",
            daemon.ready_tick
        );
        let mut next_tick = daemon.ready_tick + 1;
        inject_abuse(&socket);
        let mut client = Client::connect(&socket);
        while next_tick < kill_tick {
            client.drive_tick(&spec, next_tick);
            next_tick += 1;
        }
        // Submit the doomed tick's commands and the tick itself, then
        // SIGKILL without waiting for the response.
        for cmd in spec.commands_for_tick(kill_tick) {
            let resp = client.request(&cmd);
            assert!(resp.contains("\"queued\":true"), "{resp}");
        }
        client.send_raw(&Request::Tick.to_line());
        std::thread::sleep(Duration::from_millis(delay_ms));
        daemon.sigkill();
    }

    // Final resume: finish the remaining ticks and seal gracefully.
    let daemon = Daemon::spawn(&socket, &state, &[]);
    let mut client = Client::connect(&socket);
    for tick in daemon.ready_tick + 1..=TICKS {
        client.drive_tick(&spec, tick);
    }
    let stats = client.request(&Request::Stats);
    assert!(
        stats.contains(&format!("\"tick\":{TICKS}")),
        "final stats: {stats}"
    );
    shutdown(daemon, client);
    // The seal removes both snapshot slots, and no write leaves a temp
    // or rotated file behind.
    let left: Vec<_> = std::fs::read_dir(&state)
        .expect("state dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(left, ["server.ledger"], "state dir after the seal");

    let ledger = state.join("server.ledger");
    let chaos = std::fs::read_to_string(&ledger).expect("chaos ledger");
    assert_eq!(
        chaos, reference,
        "chaos ledger diverged from the uninterrupted reference"
    );
    assert_audits(&ledger);
}

/// Kill safety at a realistic uptime: SIGKILL after `LONG_TICKS`
/// committed ticks, restart, and the readiness line must name exactly
/// the committed tick. Re-driving the tail must then match an
/// uninterrupted reference byte for byte and pass the audit.
#[test]
fn sigkill_after_long_uptime_resumes_byte_identical() {
    let reference = reference_ledger("long-ref", LONG_TICKS + TAIL_TICKS);

    let dir = temp_dir("long");
    let socket = dir.join("long.sock");
    let state = dir.join("state");
    let spec = spec();
    let daemon = Daemon::spawn(&socket, &state, &[]);
    let mut client = Client::connect(&socket);
    for tick in 1..=LONG_TICKS {
        client.drive_tick(&spec, tick);
    }
    drop(client);
    daemon.sigkill();

    let daemon = Daemon::spawn(&socket, &state, &[]);
    assert_eq!(
        daemon.ready_tick, LONG_TICKS,
        "recovery must resume at the last committed tick"
    );
    let mut client = Client::connect(&socket);
    for tick in LONG_TICKS + 1..=LONG_TICKS + TAIL_TICKS {
        client.drive_tick(&spec, tick);
    }
    shutdown(daemon, client);

    let ledger = state.join("server.ledger");
    let resumed = std::fs::read_to_string(&ledger).expect("resumed ledger");
    assert_eq!(
        resumed, reference,
        "long-uptime resume diverged from the uninterrupted reference"
    );
    assert_audits(&ledger);
}

/// A SIGKILL, then one flipped byte in the newest snapshot slot: the
/// restarted binary recovers from the older slot, whose tick its
/// readiness line names, and, re-driven from there, seals a ledger
/// byte-identical to the uninterrupted reference.
#[test]
fn sigkill_with_a_corrupt_newest_slot_resumes_from_the_older() {
    const KILLED_AT: u64 = 5;
    let reference = reference_ledger("slot-ref", TICKS);

    let dir = temp_dir("slot");
    let socket = dir.join("slot.sock");
    let state = dir.join("state");
    let spec = spec();
    let daemon = Daemon::spawn(&socket, &state, &[]);
    let mut client = Client::connect(&socket);
    for tick in 1..=KILLED_AT {
        client.drive_tick(&spec, tick);
    }
    drop(client);
    daemon.sigkill();

    // The snapshot that says tick `T` is in slot `T % 2`; the other slot
    // holds tick `T - 1`.
    let slots = ["server.snapshot", "server.snapshot.1"];
    let newest = state.join(slots[(KILLED_AT % 2) as usize]);
    let mut bytes = std::fs::read(&newest).expect("newest slot");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x20;
    std::fs::write(&newest, &bytes).expect("flip a byte of the newest slot");

    let daemon = Daemon::spawn(&socket, &state, &[]);
    assert_eq!(
        daemon.ready_tick,
        KILLED_AT - 1,
        "recovery must resume from the older slot's tick"
    );
    let mut client = Client::connect(&socket);
    for tick in daemon.ready_tick + 1..=TICKS {
        client.drive_tick(&spec, tick);
    }
    shutdown(daemon, client);

    let ledger = state.join("server.ledger");
    let resumed = std::fs::read_to_string(&ledger).expect("resumed ledger");
    assert_eq!(
        resumed, reference,
        "the resume from the older slot diverged from the uninterrupted reference"
    );
    assert_audits(&ledger);
}

/// The trace journal is written an event at a time, before the response
/// it explains, so a SIGKILLed traced daemon keeps every event of every
/// request it answered: the file validates and is a prefix of an
/// uninterrupted run's trace.
#[test]
fn sigkill_keeps_the_trace_of_every_answered_request() {
    let dir = temp_dir("trace");
    let socket = dir.join("s.sock");
    let state = dir.join("state");
    let trace = dir.join("trace.jsonl");
    let flag = format!("--trace={}", trace.display());
    let run = |ticks: u64, kill: bool| {
        let _ = std::fs::remove_dir_all(&state);
        let _ = std::fs::remove_file(&trace);
        let daemon = Daemon::spawn(&socket, &state, &[&flag]);
        let mut client = Client::connect(&socket);
        for tick in 1..=ticks {
            client.drive_tick(&spec(), tick);
        }
        if kill {
            daemon.sigkill();
        } else {
            shutdown(daemon, client);
        }
        std::fs::read(&trace).expect("trace written")
    };
    let full = run(4, false);
    let cut = run(2, true);
    let summary = rebudget_telemetry::schema::validate_stream(&cut).expect("cut trace validates");
    assert_eq!(summary.torn_bytes, 0, "each event is one whole write");
    assert!(
        full.starts_with(&cut),
        "the cut trace is a prefix of the full one"
    );
    let ticks = String::from_utf8_lossy(&cut)
        .matches("\"event\":\"server_tick\"")
        .count();
    assert_eq!(ticks, 2, "every answered tick's event survives the kill");
}

/// A sealed state directory refuses to serve again — with the dedicated
/// server exit code, not a usage error.
#[test]
fn sealed_state_dir_refuses_reopen_with_exit_5() {
    let dir = temp_dir("sealed");
    let socket = dir.join("s.sock");
    let state = dir.join("state");
    let daemon = Daemon::spawn(&socket, &state, &[]);
    let mut client = Client::connect(&socket);
    client.drive_tick(&spec(), 1);
    client.request(&Request::Shutdown);
    daemon.wait_clean();

    let output = Command::new(BIN)
        .arg("serve")
        .arg(format!("--socket={}", socket.display()))
        .arg(format!("--state-dir={}", state.display()))
        .args(["--resources=6", "--capacity=8.0", "--seed=11"])
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(rebudget_cli::EXIT_SERVER));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("sealed"), "stderr: {stderr}");
}

/// Flag validation fails fast with the usage exit code, before any
/// socket or state directory is touched.
#[test]
fn serve_usage_errors_exit_2() {
    for args in [
        vec!["serve"],
        vec!["serve", "--socket=/tmp/x.sock"],
        vec![
            "serve",
            "--socket=/tmp/x.sock",
            "--tcp=127.0.0.1:0",
            "--state-dir=/tmp/x",
        ],
        vec![
            "serve",
            "--socket=/tmp/x.sock",
            "--state-dir=/tmp/x",
            "--tol=0",
        ],
        vec![
            "serve",
            "--socket=/tmp/x.sock",
            "--state-dir=/tmp/x",
            "--bogus=1",
        ],
    ] {
        let output = Command::new(BIN).args(&args).output().expect("run");
        assert_eq!(
            output.status.code(),
            Some(rebudget_cli::EXIT_USAGE),
            "args {args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}
