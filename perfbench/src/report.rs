//! Result collection: metrics, operation counts, correctness gates, and
//! the final JSON line.

use std::fmt::Write as _;

use crate::stats::quartiles;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in report order.
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Failed correctness gates.
    failures: Vec<String>,
}

impl Report {
    /// Records a metric. A non-finite value fails the run instead: it
    /// would mean a measurement had no samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_string(), value, unit));
        } else {
            self.fail(format!("metric {name} has no finite value ({value})"));
        }
    }

    /// Counts one operation (frame, tick, solve, scenario) and whether it
    /// succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Checks one correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed gate.
    pub fn fail(&mut self, what: String) {
        eprintln!("gate failed: {what}");
        self.failures.push(what);
    }

    /// Whether every gate held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Prints the result line and exits: 0 when correct, 1 otherwise.
    pub fn finish(self) -> ! {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if k == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        println!("{line}");
        std::process::exit(if self.correct() { 0 } else { 1 });
    }
}

/// Prints a human-readable note line (never the last stdout line).
pub fn note(text: &str) {
    println!("# {text}");
}

/// Prints a note with the sample count and quartiles of a timing series.
pub fn describe(name: &str, unit: &str, samples: &[f64]) {
    match quartiles(samples) {
        Some((q1, q2, q3)) => note(&format!(
            "{name}: n={} quartiles {q1:.4} / {q2:.4} / {q3:.4} {unit}",
            samples.len()
        )),
        None => note(&format!("{name}: n={} {samples:?} {unit}", samples.len())),
    }
}

/// Peak resident set (`VmHWM`) in MiB of process `pid`.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Which CPU-time clock [`cpu_s`] reads.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    /// The calling thread.
    Thread,
    /// Every thread of the process, live or exited.
    Process,
}

/// On-CPU time in seconds (`clock_gettime` with `CLOCK_THREAD_CPUTIME_ID`
/// or `CLOCK_PROCESS_CPUTIME_ID`). The kernel does not charge time the
/// host stole from the vCPU to it, so on a shared VM it tracks the
/// program's own work where wall time tracks the neighbours' too; on an
/// idle machine it equals a single thread's wall time.
pub fn cpu_s(clock: CpuClock) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    let id = match clock {
        CpuClock::Process => 2, // CLOCK_PROCESS_CPUTIME_ID
        CpuClock::Thread => 3,  // CLOCK_THREAD_CPUTIME_ID
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout, and
    // both clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}
