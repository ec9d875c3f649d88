//! The daemon's request parse, in nanoseconds per frame, over the
//! admission frames of the repository benchmark's serve-churn workload:
//! seed 7001, ticks 1–39, rendered as `rebudget serve` receives them
//! (10 000 players at tick 0, 100 arrivals per tick, mean lifetime 100
//! ticks, 1% utility updates, 64 goods).
//!
//! `parse_request` is the daemon's whole per-frame parse; `parse_json`
//! is the JSON read inside it. Each is timed as the fastest of
//! `BENCH_SAMPLES` passes over every frame, and every frame must parse.
//! Both are also reported through the criterion harness.
//!
//! `BENCH_SAMPLES=10 BENCH_BATCH_MS=20 BENCH_WARMUP_MS=20 cargo bench -p
//! rebudget-bench --bench proto` keeps a run short.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rebudget_server::proto::parse_request;
use rebudget_server::workload::WorkloadSpec;
use rebudget_telemetry::schema::parse_json;

/// The serve-churn frames of ticks 1–39.
fn frames() -> Vec<String> {
    let spec = WorkloadSpec {
        seed: 7001,
        initial_players: 10_000,
        resources: 64,
        arrivals_per_tick: 100,
        mean_lifetime: 100,
        update_percent: 1,
    };
    (1..40)
        .flat_map(|t| spec.commands_for_tick(t))
        .map(|req| req.to_line())
        .collect()
}

/// Fastest of `samples` wall-clock passes of `f`, in seconds.
fn fastest(samples: usize, mut f: impl FnMut()) -> f64 {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench_proto(c: &mut Criterion) {
    let samples = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(15);
    let frames = frames();
    for line in &frames {
        let req = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(req.to_line(), *line, "a frame re-renders to itself");
    }
    let request = || {
        for line in &frames {
            black_box(parse_request(black_box(line)).expect("parsed above"));
        }
    };
    let json = || {
        for line in &frames {
            black_box(parse_json(black_box(line)).expect("parsed above"));
        }
    };
    let mut group = c.benchmark_group("proto");
    group.bench_function("parse_request/serve_churn_frames", |b| b.iter(request));
    group.bench_function("parse_json/serve_churn_frames", |b| b.iter(json));
    group.finish();
    let bytes: usize = frames.iter().map(String::len).sum();
    for (label, secs) in [
        ("parse_request", fastest(samples, request)),
        ("parse_json", fastest(samples, json)),
    ] {
        println!(
            "proto/{label}: {:.0} ns/frame ({} frames, {:.1} bytes/frame)",
            secs / frames.len() as f64 * 1e9,
            frames.len(),
            bytes as f64 / frames.len() as f64
        );
    }
}

criterion_group!(benches, bench_proto);
criterion_main!(benches);
