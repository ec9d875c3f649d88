#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `rebudget` daemon and the
`perfbench` driver in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one workload, and passes the driver's output through:
the last stdout line is the JSON result. Exits non-zero if the build fails
or any correctness gate fails.

Extra modes, for working on the benchmark itself:

    --workload all      every workload in turn; the last line merges the
                        results, naming each metric `<workload>.<metric>`
    --size smoke        every code path at a size that takes seconds
    --spread K          K runs per workload on seeds N..N+K-1; prints each
                        end-to-end metric's median and quartile spread
                        against its bound in BENCHMARK.json
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["serve-churn", "serve-uptime"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Builds both binaries; returns their paths, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "rebudget-cli", "--bin", "rebudget"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        except FileNotFoundError as e:
            log(f"error: {e}")
            return None
        if done.returncode != 0:
            log(f"error: build step failed: {' '.join(cmd)}")
            return None
    return target / "release" / "rebudget", target / "release" / "perfbench"


def kill_group(proc):
    """SIGKILLs the process group `proc` leads and waits until it is gone.

    The driver is reaped here; the daemon it spawned is reaped by init once
    orphaned, so the group is polled until no member is left (or 10 s).
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(binaries, workload, seed, seconds, trace, size, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    daemon, driver = binaries
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(ROOT), "--daemon", str(daemon), "--size", size]
    # Write back what the build and earlier runs left dirty (a serve-churn
    # run writes ~260 MB), so that the kernel's writeback does not land in
    # this run's timed phase.
    os.sync()
    # A session of its own, so that on a timeout the driver and the daemon
    # it spawned can be killed together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} ran longer than {RUN_TIMEOUT_S} s")
        kill_group(proc)
        shutil.rmtree(ROOT / ".perfbench_tmp" / f"{workload}-{proc.pid}",
                      ignore_errors=True)
        return 1, None
    finally:
        scratch = ROOT / ".perfbench_tmp"
        if scratch.is_dir() and not any(scratch.iterdir()):
            shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def run_all(binaries, args):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        rc, result = run_one(binaries, workload, args.seed, args.seconds,
                             args.trace, args.size)
        code = code or rc
        if result is None:
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return code


def spread(binaries, args, workloads):
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    code = 0
    for workload in workloads:
        values = {}
        for seed in range(args.seed, args.seed + args.spread):
            rc, result = run_one(binaries, workload, seed, args.seconds, 0,
                                 args.size, echo=False)
            if rc != 0 or result is None:
                log(f"{workload} seed {seed}: failed (exit {rc})")
                code = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / q2
            bound = bounds.get(name, float("nan"))
            print(f"{workload:17} {name:14} median {q2:12.6g}  spread "
                  f"{rel:7.2%}  bound {bound:.0%}  "
                  f"{'ok' if rel < bound / 3 else 'WIDE'}  "
                  f"{' '.join(f'{v:.4g}' for v in vals)}", flush=True)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--spread", type=int, default=0)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    binaries = build(target)
    if binaries is None:
        return 1
    if args.spread:
        chosen = WORKLOADS if args.workload == "all" else [args.workload]
        return spread(binaries, args, chosen)
    if args.workload == "all":
        return run_all(binaries, args)
    rc, _ = run_one(binaries, args.workload, args.seed, args.seconds,
                    args.trace, args.size)
    return rc


if __name__ == "__main__":
    sys.exit(main())
