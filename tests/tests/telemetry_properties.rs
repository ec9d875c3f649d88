//! Property tests for the telemetry substrate.
//!
//! The metrics registry backs both the `--metrics` CLI section and the
//! tracing-overhead bench, so its algebra has to be boringly solid:
//! histogram merge must be a commutative monoid (sweep shards merge in
//! nondeterministic order), counters must be exact under threaded
//! increments (the parallel Jacobi fan-out), and span guards must
//! survive any drop order (guards get moved into structs that outlive
//! their scope). Inputs are driven by the vendored deterministic
//! `rand`, so every failure reproduces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rebudget_telemetry::metrics::{Histogram, MetricsRegistry};
use rebudget_telemetry::HistogramSnapshot;

fn random_snapshot(rng: &mut StdRng, samples: usize) -> HistogramSnapshot {
    let h = Histogram::default();
    for _ in 0..samples {
        // Spread mass across the full log₂ range, including zero.
        let magnitude = rng.random_range(0..64);
        let v: u64 = rng.random_range(0..u64::MAX) >> magnitude;
        h.record(v);
    }
    h.snapshot()
}

#[test]
fn histogram_merge_is_commutative() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..50 {
        let a = random_snapshot(&mut rng, 40);
        let b = random_snapshot(&mut rng, 40);
        assert_eq!(
            a.merge(&b),
            b.merge(&a),
            "merge must not care about operand order"
        );
    }
}

#[test]
fn histogram_merge_is_associative() {
    let mut rng = StdRng::seed_from_u64(202);
    for _ in 0..50 {
        let a = random_snapshot(&mut rng, 30);
        let b = random_snapshot(&mut rng, 30);
        let c = random_snapshot(&mut rng, 30);
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left, right, "(a+b)+c must equal a+(b+c)");
    }
}

#[test]
fn histogram_merge_identity_is_the_empty_snapshot() {
    let mut rng = StdRng::seed_from_u64(303);
    let a = random_snapshot(&mut rng, 60);
    assert_eq!(
        a.merge(&HistogramSnapshot::default()),
        a,
        "empty snapshot is the neutral element"
    );
}

#[test]
fn merged_shards_equal_one_big_histogram() {
    // Recording N samples across independent shards and merging must give
    // the same snapshot as recording them all into one histogram — the
    // exact situation of per-thread histograms folded for `--metrics`.
    let mut rng = StdRng::seed_from_u64(404);
    let samples: Vec<u64> = (0..500)
        .map(|_| rng.random_range(0..u64::MAX) >> rng.random_range(0..64))
        .collect();
    let whole = Histogram::default();
    for &v in &samples {
        whole.record(v);
    }
    let mut folded = HistogramSnapshot::default();
    for chunk in samples.chunks(37) {
        let shard = Histogram::default();
        for &v in chunk {
            shard.record(v);
        }
        folded = folded.merge(&shard.snapshot());
    }
    assert_eq!(folded, whole.snapshot());
}

#[test]
#[allow(clippy::expect_used)]
fn counters_are_exact_under_threaded_increments() {
    // N threads × M increments on shared counters must lose nothing —
    // the registry's whole reason to use atomics instead of a mutex.
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    const THREADS: usize = 16;
    const PER_THREAD: u64 = 5_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = std::sync::Arc::clone(&registry);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    registry.counter("shared").incr();
                    registry
                        .counter(if t % 2 == 0 { "even" } else { "odd" })
                        .add(1);
                    registry.histogram("values").record(i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }
    assert_eq!(
        registry.counter("shared").get(),
        THREADS as u64 * PER_THREAD
    );
    assert_eq!(
        registry.counter("even").get() + registry.counter("odd").get(),
        THREADS as u64 * PER_THREAD
    );
    let snap = registry.histogram("values").snapshot();
    assert_eq!(snap.count, THREADS as u64 * PER_THREAD);
}

#[test]
#[allow(clippy::expect_used)]
fn span_guards_survive_randomized_drop_orders() {
    // Open a random nesting of spans, then drop them in a shuffled order.
    // No permutation may panic, and the thread's span stack must fully
    // drain so the next root span gets a bare path.
    let mut rng = StdRng::seed_from_u64(505);
    rebudget_telemetry::set_enabled(true);
    for round in 0..30 {
        let mut guards = Vec::new();
        for k in 0..rng.random_range(2..8usize) {
            guards.push(rebudget_telemetry::span::span(&format!("s{k}")));
        }
        while !guards.is_empty() {
            let pick = rng.random_range(0..guards.len());
            drop(guards.swap_remove(pick));
        }
        let fresh = rebudget_telemetry::span::span("root");
        assert_eq!(fresh.path(), Some("root"), "round {round}: stack drained");
    }
    rebudget_telemetry::set_enabled(false);
}

#[test]
#[allow(clippy::expect_used)]
fn journal_seq_is_dense_under_concurrent_recording() {
    // Events recorded from many threads still get a gap-free, strictly
    // increasing seq in file order — the invariant validate_stream
    // enforces on written traces.
    let dir = std::env::temp_dir().join(format!("rebudget-dense-seq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.jsonl");
    let journal = rebudget_telemetry::Journal::new();
    journal.open(&path).expect("trace file");
    std::thread::scope(|scope| {
        for t in 0..8 {
            let journal = &journal;
            scope.spawn(move || {
                for i in 0..200 {
                    journal.record(
                        rebudget_telemetry::Event::new("solve_start")
                            .field_u64("players", t)
                            .field_u64("resources", i),
                    );
                }
            });
        }
    });
    journal.finish().expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_dir_all(&dir);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8 * 200);
    for (i, line) in lines.iter().enumerate() {
        let seq = rebudget_telemetry::schema::validate_line(line).expect("valid event");
        assert_eq!(seq, i as u64, "seq must match file position");
    }
}
