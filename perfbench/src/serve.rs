//! The two workloads, `serve-churn` and `serve-uptime`: `rebudget serve`
//! as a subprocess over a Unix socket, driven closed-loop by one client
//! connection, then SIGKILLed and restarted on the same state directory.
//!
//! The traced run adds the in-process view of the same layers: the same
//! frame lines through `parse_request`, the same commands through
//! `ServerCore::{apply, tick}` (untraced on its own, then as an untraced
//! and traced pair, the traced core with a `tick` span whose nested
//! `solve` span splits solve from commit), and
//! the durable read paths (`valid_prefix`, `verify`, `ServerCore::open`)
//! over the daemon's own files. Both traced runs then measure the layers
//! no daemon touches: the first-order solver's roofline
//! ([`crate::roofline`]) and the scenario pipeline ([`crate::library`]).
//!
//! A run repeats whole sessions — set-up, then the timed ticks, each on a
//! fresh daemon — over the same frames, and takes the tick and ack
//! metrics from each operation's best round trip over the sessions.

use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt as _;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;

use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{RetryPolicy, SolverKind};
use rebudget_scenario::ledger::verify;
use rebudget_scenario::valid_prefix;
use rebudget_server::proto::Request;
use rebudget_server::{parse_request, ServerConfig, ServerCore, WorkloadSpec};
use rebudget_telemetry as telemetry;
use rebudget_telemetry::schema::{parse_json, Json};

use crate::report::{describe, note, peak_rss_mib, Report};
use crate::stats::{best_of, drift, highest_supported, median, percentile, self_time};
use crate::{library, roofline, Args, Size};

/// Per-tick solve tolerance: the daemon's online operating point.
const TOL: f64 = 1e-4;
/// Capacity per resource (the daemon's default).
const CAPACITY: f64 = 100.0;
const SOCKET: &str = "daemon.sock";
const TICK: &str = "{\"cmd\":\"tick\"}";
/// Percentiles the tail metrics may use, highest first.
const LADDER: [f64; 3] = [99.0, 90.0, 50.0];
/// Fewest ticks a `tick_drift` window holds: 10% of serve-churn's 100
/// ticks is 10, and medians of 10 of its ticks, which swing by ±20% from
/// one tick to the next, moved its drift by 30% between runs. With 25 it
/// still moved by 38% between seeds (1.24–1.87), so the drift is a traced
/// metric, without a bound, rather than an end-to-end one.
const DRIFT_MIN_WINDOW: usize = 25;
/// The daemon's `stats` counters that must stay zero.
const COUNTERS: [&str; 3] = ["shed", "rejected", "malformed"];

/// How one serve workload is sized.
struct Plan {
    spec: WorkloadSpec,
    /// Timed ticks after the cold tick 0.
    ticks: u64,
    /// Sessions (set-up and timed ticks, each on a fresh daemon) per run.
    sessions: usize,
}

/// Sessions of a traced run, whose per-layer metrics take no best-of.
const TRACED_SESSIONS: usize = 1;

fn plan(args: &Args) -> Plan {
    let churn = args.workload == "serve-churn";
    let spec = if churn {
        WorkloadSpec {
            seed: args.seed,
            initial_players: 10_000,
            resources: 64,
            arrivals_per_tick: 100,
            mean_lifetime: 100,
            update_percent: 1,
        }
    } else {
        WorkloadSpec::small(args.seed, 16)
    };
    let plan = match (args.size, churn) {
        (Size::Full, true) => Plan {
            spec,
            ticks: 10 * args.seconds,
            sessions: 3,
        },
        (Size::Full, false) => Plan {
            spec,
            ticks: 200 * args.seconds,
            sessions: 3,
        },
        (Size::Smoke, _) => Plan {
            spec: WorkloadSpec {
                initial_players: spec.initial_players.min(500),
                arrivals_per_tick: spec.arrivals_per_tick.min(5),
                ..spec
            },
            ticks: 30,
            sessions: 2,
        },
    };
    if args.trace {
        Plan {
            sessions: TRACED_SESSIONS,
            ..plan
        }
    } else {
        plan
    }
}

/// The server configuration `rebudget serve` builds from the flags
/// [`spawn`] passes, for the in-process replays.
fn server_config(spec: &WorkloadSpec) -> ServerConfig {
    let mut options =
        EquilibriumOptions::large_scale().with_solver(SolverKind::ProportionalResponse);
    options.price_tolerance = TOL;
    ServerConfig {
        capacities: vec![CAPACITY; spec.resources],
        solver: SolverKind::ProportionalResponse,
        options,
        retry: RetryPolicy::default(),
        fallback_after: 3,
        seed: spec.seed,
        commit_delay_ms: 0,
    }
}

/// Every tick's admission commands and wire lines, rendered before any
/// timing: `commands_for_tick` scans every index ever scheduled, so
/// calling it inside the timed loop would charge the generator's
/// O(tick) cost to the daemon.
struct Frames {
    commands: Vec<Vec<Request>>,
    lines: Vec<Vec<String>>,
    /// Live players after each tick, from the schedule alone.
    live: Vec<usize>,
}

fn render(spec: &WorkloadSpec, ticks: u64, report: &mut Report) -> Frames {
    let mut frames = Frames {
        commands: Vec::new(),
        lines: Vec::new(),
        live: Vec::new(),
    };
    for t in 0..=ticks {
        let commands = spec.commands_for_tick(t);
        // Cross-check the rendered batch against the schedule: arrivals
        // and departures are the players whose liveness flips at `t`.
        let horizon = spec.initial_players + t as usize * spec.arrivals_per_tick;
        let was = |k: usize| t > 0 && spec.live(k, t - 1);
        let arrivals = (0..horizon).filter(|&k| spec.live(k, t) && !was(k)).count();
        let departures = (0..horizon).filter(|&k| was(k) && !spec.live(k, t)).count();
        let live = (0..horizon).filter(|&k| spec.live(k, t)).count();
        let count = |cmd: &str| commands.iter().filter(|r| r.cmd() == cmd).count();
        report.gate(
            count("arrive") == arrivals && count("depart") == departures,
            || {
                format!(
                    "tick {t}: rendered {} arrivals / {} departures, schedule has {arrivals} / {departures}",
                    count("arrive"),
                    count("depart")
                )
            },
        );
        frames
            .lines
            .push(commands.iter().map(Request::to_line).collect());
        frames.commands.push(commands);
        frames.live.push(live);
    }
    frames
}

/// A CPU set as the kernel's `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
fn affinity() -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        mask[0] = 1;
    }
    mask
}

/// Restricts the calling thread, and the threads and processes it starts
/// from then on, to `mask`.
fn set_affinity(mask: &CpuMask) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed; the
    // call is a plain system call, so it is also safe between fork and
    // exec.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
}

/// Where the client and the daemon run, and how many threads the solver
/// gets.
///
/// The solver gets the CPUs the client leaves: one thread fewer than the
/// CPUs allowed, at least one. On the 2-vCPU VM the benchmark was built
/// on, a second solver thread made serve-churn's ticks slower, not
/// faster (p50 83 ms against 74 ms).
///
/// The client always runs on the last allowed CPU. Left to the scheduler,
/// the daemon and the client land on one CPU in some runs and on two in
/// others, and every admission ack of a run then either finds the
/// daemon's event loop still awake (~15 µs) or in its 500 µs idle sleep
/// (~580 µs); serve-churn's set-up took 0.9 s or 5.8 s accordingly. So
/// the placement is fixed: serve-uptime puts the daemon on the other
/// CPUs, as a client on another machine would be, and its acks wait out
/// the idle sleep; serve-churn puts the daemon on the client's CPU, whose
/// solver keeps it busy while the client only waits, and its acks mostly
/// find the loop awake. With one CPU allowed, nothing is pinned.
struct Placement {
    all: CpuMask,
    client: CpuMask,
    daemon: CpuMask,
    threads: usize,
}

fn placement(split: bool) -> Placement {
    let all = affinity();
    let cpus: Vec<usize> = (0..1024)
        .filter(|&c| all[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let (mut client, mut daemon) = (all, all);
    if let [rest @ .., last] = cpus.as_slice() {
        if !rest.is_empty() {
            client = [0; 16];
            client[last / 64] |= 1 << (last % 64);
            if split {
                for (d, c) in daemon.iter_mut().zip(&client) {
                    *d &= !c;
                }
            } else {
                daemon = client;
            }
        }
    }
    Placement {
        all,
        client,
        daemon,
        threads: cpus.len().saturating_sub(1).max(1),
    }
}

/// A running daemon; killed and reaped on drop.
struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    stderr: BufReader<ChildStderr>,
    /// Tick named in the readiness line.
    ready_tick: u64,
}

impl Drop for Daemon {
    /// SIGKILL, then reap: no daemon outlives the driver.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// SIGKILLs the daemon and waits until it is gone.
    fn kill(self) {
        drop(self);
    }
}

/// Starts `rebudget serve` on `state_dir` and waits for its readiness
/// line.
fn spawn(
    args: &Args,
    spec: &WorkloadSpec,
    state_dir: &str,
    queue_cap: usize,
    place: &Placement,
) -> Result<Daemon, String> {
    let mut command = Command::new(&args.daemon);
    let cpus = place.daemon;
    // SAFETY: the hook only makes one system call.
    unsafe {
        command.pre_exec(move || {
            set_affinity(&cpus);
            Ok(())
        });
    }
    let mut child = command
        .env("RAYON_NUM_THREADS", place.threads.to_string())
        .arg("serve")
        .arg(format!("--socket={SOCKET}"))
        .arg(format!("--state-dir={state_dir}"))
        .arg(format!("--resources={}", spec.resources))
        .arg(format!("--capacity={CAPACITY}"))
        .arg("--solver=propresp")
        .arg(format!("--tol={TOL}"))
        .arg(format!("--seed={}", spec.seed))
        // The default bound (1024) would shed the tick-0 arrivals.
        .arg(format!("--queue-cap={queue_cap}"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", args.daemon.display()))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut daemon = Daemon {
        child,
        stderr: BufReader::new(stderr),
        ready_tick: 0,
    };
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        if daemon.stderr.read_line(&mut line).unwrap_or(0) == 0 {
            return Err(format!("daemon exited before readiness: {seen}"));
        }
        // "serving on ADDR at tick T (N player(s)...)"
        if let Some(rest) = line.strip_prefix("serving on ") {
            daemon.ready_tick = rest
                .split(" at tick ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("unparsable readiness line {line:?}"))?;
            return Ok(daemon);
        }
        seen.push_str(&line);
    }
}

/// One closed-loop client connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect() -> Result<Self, String> {
        let writer = UnixStream::connect(SOCKET).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { reader, writer })
    }

    /// Sends one frame and waits for its response line. Returns the line
    /// and the round trip in seconds.
    fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        let t0 = Instant::now();
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok((resp, t0.elapsed().as_secs_f64())),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

fn field<'a>(resp: &'a Json, key: &str) -> Option<&'a Json> {
    match resp {
        Json::Object(map) => map.get(key),
        _ => None,
    }
}

fn is_true(resp: &Json, key: &str) -> bool {
    matches!(field(resp, key), Some(Json::Bool(true)))
}

fn number(resp: &Json, key: &str) -> Option<u64> {
    field(resp, key).and_then(Json::as_u64)
}

/// Sends one tick's admission frames, each waiting for its `queued` ack.
/// Returns the per-frame round trips in µs.
fn admit(client: &mut Client, lines: &[String], report: &mut Report) -> Result<Vec<f64>, String> {
    let mut rtts = Vec::with_capacity(lines.len());
    for line in lines {
        let (resp, secs) = client.call(line)?;
        rtts.push(secs * 1e6);
        let ok = parse_json(&resp).is_ok_and(|r| is_true(&r, "ok") && is_true(&r, "queued"));
        report.op(ok);
        if !ok {
            report.fail(format!("admission not queued: {}", resp.trim_end()));
        }
    }
    Ok(rtts)
}

/// Sends `tick` and checks its durable ack. Returns the round trip in ms.
fn tick(client: &mut Client, t: u64, frames: &Frames, report: &mut Report) -> Result<f64, String> {
    let (resp, secs) = client.call(TICK)?;
    let ms = secs * 1e3;
    let want_admitted = frames.commands[t as usize].len() as u64;
    let ok = parse_json(&resp).is_ok_and(|r| {
        is_true(&r, "ok")
            && number(&r, "tick") == Some(t)
            && number(&r, "players") == Some(frames.live[t as usize] as u64)
            && number(&r, "admitted") == Some(want_admitted)
            && is_true(&r, "converged")
            && matches!(field(&r, "fallback"), Some(Json::Bool(false)))
    });
    report.op(ok);
    if !ok {
        report.fail(format!(
            "tick {t}: expected {want_admitted} admitted, {} live, converged without fallback; got {}",
            frames.live[t as usize],
            resp.trim_end()
        ));
    }
    Ok(ms)
}

/// Daemon start, the initial admissions and the cold tick 0.
fn set_up(
    args: &Args,
    plan: &Plan,
    state_dir: &str,
    queue_cap: usize,
    place: &Placement,
    frames: &Frames,
    report: &mut Report,
) -> Result<(Daemon, Client, f64), String> {
    let t0 = Instant::now();
    let daemon = spawn(args, &plan.spec, state_dir, queue_cap, place)?;
    let mut client = Client::connect()?;
    admit(&mut client, &frames.lines[0], report)?;
    tick(&mut client, 0, frames, report)?;
    Ok((daemon, client, t0.elapsed().as_secs_f64()))
}

/// Scratch directory under the repository root, removed on drop.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let plan = plan(args);
    let spec = plan.spec;
    let frames = render(&spec, plan.ticks, report);
    let queue_cap = frames.lines.iter().map(Vec::len).max().unwrap_or(0) + 1;
    let admissions: usize = frames.lines.iter().map(Vec::len).sum();
    note(&format!(
        "{}: {} players at tick 0, {} timed ticks, {admissions} admission frames, queue cap {queue_cap}",
        args.workload, spec.initial_players, plan.ticks
    ));

    // Every path below is relative to a fresh scratch directory, which
    // keeps the socket path short and every run isolated.
    let scratch = Scratch(args.root.join(".perfbench_tmp").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&scratch.0);
    std::fs::create_dir_all(&scratch.0).map_err(|e| e.to_string())?;
    std::env::set_current_dir(&scratch.0).map_err(|e| e.to_string())?;

    // The client, and the in-process replays after it, run on the last
    // CPU; serve-uptime's daemon on the others, serve-churn's beside it.
    let place = placement(args.workload == "serve-uptime");
    set_affinity(&place.client);

    // Whole sessions over the same frames, each on a fresh state
    // directory: set-up, the timed ticks, SIGKILL, and recovery, a restart
    // on the killed daemon's directory. The last session's recovered
    // daemon carries on.
    let committed = plan.ticks + 1;
    let mut recovered = None;
    let mut recoveries = Vec::new();
    let mut killed_ledger = None;
    let mut setups = Vec::new();
    let mut tick_runs = Vec::new();
    let mut ack_runs = Vec::new();
    let mut rss = Vec::new();
    let mut cpu_ms = Vec::new();
    let mut counters = [0u64; 3];
    for k in 0..plan.sessions {
        let last = k + 1 == plan.sessions;
        let dir = if last {
            "state".to_string()
        } else {
            format!("session-{k}")
        };
        let (daemon, mut client, secs) =
            set_up(args, &plan, &dir, queue_cap, &place, &frames, report)?;
        setups.push(secs);
        let pid = daemon.child.id();
        let cpu0 = daemon_cpu_s(pid);
        let mut acks = Vec::new();
        let mut ticks = Vec::new();
        for t in 1..=plan.ticks {
            acks.extend(admit(&mut client, &frames.lines[t as usize], report)?);
            ticks.push(tick(&mut client, t, &frames, report)?);
        }
        cpu_ms.push((daemon_cpu_s(pid) - cpu0) * 1e3 / plan.ticks as f64);
        let stats = parse_json(&client.call("{\"cmd\":\"stats\"}")?.0).map_err(|e| e.0)?;
        for (total, key) in counters.iter_mut().zip(COUNTERS) {
            *total = total.saturating_add(number(&stats, key).unwrap_or(u64::MAX));
        }
        rss.push(peak_rss_mib(pid).unwrap_or(f64::NAN));
        drop(client);
        // SIGKILL, not `shutdown`: recovery must see an unsealed ledger.
        daemon.kill();
        tick_runs.push(ticks);
        ack_runs.push(acks);

        // Durable read paths over the killed daemon's files (traced run).
        if args.trace && last {
            killed_ledger = Some(
                std::fs::read_to_string(format!("{dir}/server.ledger"))
                    .map_err(|e| e.to_string())?,
            );
            copy_dir(Path::new(&dir), Path::new("state-copy"))?;
        }

        // Restart on the same state directory until the readiness line.
        let t0 = Instant::now();
        let daemon = spawn(args, &spec, &dir, queue_cap, &place)?;
        recoveries.push(t0.elapsed().as_secs_f64());
        report.op(daemon.ready_tick == committed);
        report.gate(daemon.ready_tick == committed, || {
            format!(
                "session {k} recovered at tick {}, committed {committed}",
                daemon.ready_tick
            )
        });
        if last {
            recovered = Some(daemon);
        } else {
            daemon.kill();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let mut daemon = recovered.ok_or("no session ran")?;
    // A gate, not a metric: any shed, rejected or malformed frame fails
    // the run, so as a metric each would always read 0.
    report.gate(counters == [0; 3], || {
        format!("daemon {COUNTERS:?} counters summed to {counters:?}, want none")
    });
    note(&format!("daemon {COUNTERS:?}: {counters:?}"));
    // Each tick's, and each admission frame's, best round trip over the
    // sessions: a spell of host contention shorter than a session then
    // moves no metric taken from these.
    let ticks = best_of(&tick_runs);
    let acks = best_of(&ack_runs);
    // Likewise the best recovery: one recovery per run moved serve-uptime's
    // `recover_s` by 10% between runs.
    let recover_s = recoveries.iter().copied().fold(f64::INFINITY, f64::min);

    // Graceful shutdown seals the ledger: one record per committed tick.
    let mut client = Client::connect()?;
    let (bye, _) = client.call("{\"cmd\":\"shutdown\"}")?;
    drop(client);
    let status = daemon.child.wait().map_err(|e| e.to_string())?;
    report.gate(bye.contains("\"ok\":true") && status.success(), || {
        format!("shutdown answered {} and exited {status}", bye.trim_end())
    });
    let sealed = std::fs::read_to_string("state/server.ledger").map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let summary = verify(&sealed);
    let verify_s = t0.elapsed().as_secs_f64();
    report.gate(
        summary
            .as_ref()
            .is_ok_and(|s| s.records as u64 == committed),
        || format!("sealed ledger: {summary:?}, want {committed} records"),
    );

    describe("setup_s", "s", &setups);
    for (k, (t, a)) in tick_runs.iter().zip(&ack_runs).enumerate() {
        note(&format!(
            "session {k}: tick p50 {:.3} ms, ack p50 {:.2} us, daemon on CPU {:.3} ms per tick",
            median(t),
            median(a),
            cpu_ms[k]
        ));
    }
    describe("best tick_ms", "ms", &ticks);
    let window = (ticks.len() / 10).max(DRIFT_MIN_WINDOW).min(ticks.len());
    describe("best tick_ms first window", "ms", &ticks[..window]);
    describe("best tick_ms last window", "ms", &ticks[ticks.len() - window..]);
    describe("best ack_us", "us", &acks);
    describe("recover_s", "s", &recoveries);
    if !args.trace {
        report.metric("setup_s", median(&setups), "s");
        report.metric("tick_p50_ms", median(&ticks), "ms");
        report.metric("tick_p90_ms", tail(&ticks, 90.0), "ms");
        report.metric("ack_p50_us", median(&acks), "us");
        report.metric("ack_p99_us", tail(&acks, 99.0), "us");
        report.metric("recover_s", recover_s, "s");
        report.metric("peak_rss_mb", median(&rss), "MiB");
        return Ok(());
    }

    // --- Traced run: the per-layer view. ---
    let lines: Vec<&String> = frames.lines.iter().flatten().collect();
    let mut parse_us = Vec::with_capacity(lines.len());
    for line in &lines {
        let t0 = Instant::now();
        let parsed = parse_request(line);
        parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        report.gate(parsed.is_ok(), || format!("parse_request rejected {line}"));
    }
    let frame_bytes =
        lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / lines.len().max(1) as f64;

    // The in-process tick on its own, then the untraced/traced pair that
    // gives the commit split and the tracing overhead, with the daemon's
    // solver threads. The driver has no other threads running here.
    std::env::set_var("RAYON_NUM_THREADS", place.threads.to_string());
    let [alone] = replay(&spec, &frames, [false], report)?;
    let [paired, traced] = replay(&spec, &frames, [false, true], report)?;

    let ledger_text = killed_ledger.unwrap_or_default();
    let t0 = Instant::now();
    let prefix = valid_prefix(&ledger_text);
    let valid_prefix_s = t0.elapsed().as_secs_f64();
    report.gate(prefix.records as u64 == committed, || {
        format!(
            "killed ledger holds {} valid records, want {committed}",
            prefix.records
        )
    });
    let t0 = Instant::now();
    let reopened = ServerCore::open(server_config(&spec), Path::new("state-copy"));
    let open_s = t0.elapsed().as_secs_f64();
    report.gate(
        reopened.as_ref().is_ok_and(|c| c.tick_index() == committed),
        || "in-process reopen did not resume at the committed tick".into(),
    );
    drop(reopened);
    let snapshot_bytes = std::fs::metadata("state-copy/server.snapshot")
        .map(|m| m.len() as f64)
        .unwrap_or(f64::NAN);

    // One session's medians, like the in-process figures they are set
    // against.
    let ack_p50 = median(&ack_runs[0]);
    let parse_p50 = median(&parse_us);
    let ledger_bytes = ledger_text.len() as f64;
    let r = report;
    r.metric("daemon.ack_self_us", ack_p50 - parse_p50, "us");
    r.metric(
        "daemon.tick_self_ms",
        median(&tick_runs[0]) - median(&alone.tick_ms),
        "ms",
    );
    r.metric(
        "tick_drift",
        drift(&tick_runs[0], 0.1, DRIFT_MIN_WINDOW),
        "ratio",
    );
    r.metric("proto.parse_us", parse_p50, "us");
    r.metric("proto.frame_bytes", frame_bytes, "B");
    r.metric("state.apply_us", median(&alone.apply_us), "us");
    r.metric("state.tick_ms", median(&alone.tick_ms), "ms");
    r.metric("state.tick_p90_ms", tail(&alone.tick_ms, 90.0), "ms");
    r.metric("state.commit_ms", median(&traced.commit_ms), "ms");
    r.metric("state.players", median(&traced.players), "count");
    r.metric("state.admitted", median(&traced.admitted), "count");
    r.metric("solver.solve_ms", median(&traced.solve_ms), "ms");
    r.metric("solver.iterations", median(&traced.iterations), "count");
    r.metric("ledger.bytes", ledger_bytes, "B");
    r.metric(
        "ledger.bytes_per_tick",
        ledger_bytes / committed as f64,
        "B",
    );
    r.metric("snapshot.bytes", snapshot_bytes, "B");
    r.metric(
        "durable.bytes_per_tick",
        ledger_bytes / committed as f64 + snapshot_bytes,
        "B",
    );
    r.metric("ledger.valid_prefix_s", valid_prefix_s, "s");
    r.metric("ledger.verify_s", verify_s, "s");
    r.metric("recover.open_s", open_s, "s");
    r.metric(
        "trace.overhead_tick",
        median(&traced.tick_ms) / median(&paired.tick_ms),
        "ratio",
    );
    // The layers no daemon touches, the same in both workloads' traced
    // runs: the first-order solver on its own (on every CPU, as it
    // compares Serial with Auto) and the paper's scenario pipeline.
    set_affinity(&place.all);
    std::env::remove_var("RAYON_NUM_THREADS");
    roofline::run(args, r)?;
    library::run(args, r)
}

/// Tail percentile `p`, with a note when fewer than ten samples lie
/// beyond it (only at sizes below the benchmark's own).
fn tail(samples: &[f64], p: f64) -> f64 {
    if highest_supported(samples.len(), &LADDER).is_none_or(|best| best < p) {
        note(&format!(
            "p{p} of {} samples leaves fewer than ten beyond it",
            samples.len()
        ));
    }
    percentile(samples, p)
}

/// What an in-process replay measured, per timed tick (tick 0 excluded).
#[derive(Default)]
struct Replay {
    apply_us: Vec<f64>,
    tick_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    iterations: Vec<f64>,
    players: Vec<f64>,
    admitted: Vec<f64>,
}

/// Drives one fresh in-process `ServerCore` per entry of `traced` through
/// the same commands, tick by tick. A traced core runs with telemetry on
/// and each tick inside a `tick` span, so the solver's `solve` span nests
/// under it and the tick's self time is the commit (CSR assembly, ledger
/// append and snapshot). A pair alternates which core goes first, so the
/// ratio of their tick times is the tracing overhead, free of order
/// effects; a single untraced core gives the tick time free of the other
/// core's cache and memory pressure.
fn replay<const N: usize>(
    spec: &WorkloadSpec,
    frames: &Frames,
    traced: [bool; N],
    report: &mut Report,
) -> Result<[Replay; N], String> {
    let dir = |side: usize| format!("inproc-{side}");
    let mut cores = Vec::with_capacity(N);
    for side in 0..N {
        let _ = std::fs::remove_dir_all(dir(side));
        cores.push(
            ServerCore::open(server_config(spec), Path::new(&dir(side)))
                .map_err(|e| e.to_string())?,
        );
    }
    let mut out: [Replay; N] = std::array::from_fn(|_| Replay::default());
    telemetry::reset();
    let registry = &telemetry::global().registry;
    let span_sum = |name: &str| registry.histogram(name).snapshot().sum as f64 / 1e6;
    for (t, commands) in frames.commands.iter().enumerate() {
        for k in 0..N {
            let side = if t % 2 == 0 { k } else { N - 1 - k };
            let core = &mut cores[side];
            let mut apply_us = Vec::with_capacity(commands.len());
            for req in commands {
                let t0 = Instant::now();
                let applied = core.apply(req);
                apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
                report.gate(applied.is_ok(), || {
                    format!("apply {}: {applied:?}", req.cmd())
                });
            }
            telemetry::set_enabled(traced[side]);
            let (tick0, solve0) = (span_sum("span.tick"), span_sum("span.tick/solve"));
            let t0 = Instant::now();
            let tick = {
                let _span = telemetry::span!("tick");
                core.tick(commands.len())
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            telemetry::set_enabled(false);
            let tick = tick.map_err(|e| e.to_string())?;
            report.gate(tick.converged && !tick.fallback, || {
                format!("in-process tick {t} did not converge cleanly")
            });
            if t == 0 {
                continue;
            }
            let r = &mut out[side];
            r.apply_us.extend(apply_us);
            r.tick_ms.push(ms);
            r.iterations.push(tick.iterations as f64);
            r.players.push(tick.players as f64);
            r.admitted.push(tick.admitted as f64);
            if traced[side] {
                let solve = span_sum("span.tick/solve") - solve0;
                r.solve_ms.push(solve);
                r.commit_ms
                    .push(self_time(span_sum("span.tick") - tick0, &[solve]));
            }
        }
    }
    drop(cores);
    telemetry::reset();
    for side in 0..N {
        let _ = std::fs::remove_dir_all(dir(side));
    }
    Ok(out)
}

/// User plus system CPU seconds of process `pid` so far, from
/// `/proc/PID/stat` (in 10 ms clock ticks), or `NaN` if unreadable.
fn daemon_cpu_s(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3, so
    // utime and stime (fields 14 and 15) are the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |k: usize| fields.get(k).and_then(|w| w.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}
