"""Child process of the benchmark: runs one workload, prints one JSON line.

``run.py`` starts it from the checkout root with ``PYTHONPATH`` set to the
checkout's ``src`` and ``WFANO_THREADS`` removed, so the process, its memory
and its import belong to this workload alone.  One thread, closed loop: each
request is sent when the previous one has returned.

A run is a series of passes.  A pass of ``certify_stream`` or
``geometry_mix`` is the next 200 requests of the seeded stream; a pass of
``sweep`` or ``moments_table`` is one CLI invocation.  Outputs are checked
after each pass, outside its timing, and a fixed reference loop is timed
before each pass to scale the time metrics (``REFERENCE_S``).  With
``--trace 1`` every pass runs twice, untraced and then traced, so the
tracing overhead compares equal inputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import wfano
import wfano.cli

import spans
import workloads

MIN_PASSES = 3
# Tail percentile of op latency.  Not 99: on certify_stream the gen-2 garbage
# collections that argparse's cyclic parsers trigger land in 0.67% of
# requests, so the 99th percentile straddles that cluster; over ten seeds its
# quartile spread was 25-40% of its median (2-vCPU VM, CPython 3.11).  The
# 98th sits below the cluster, with 100+ samples beyond it.
TAIL = 98
WARMUP_OPS = 20
SETUP_RUNS = 9
# The time metrics are scaled to a machine on which reference() takes this
# long.  A shared 2-vCPU VM changed speed by up to 40% over minutes, moving
# every wall time of a run together; the run's own reference speed cancels
# that.  Raw values are reported as well.
REFERENCE_S = 0.010
TIMES = ("setup_s", "wall_s", "op_p50_ms", "op_p98_ms", "first_output_s")


class Sink:
    """The output stream handed to ``cli.run``: keeps what is written and
    the time of the first write."""

    def __init__(self):
        self.chunks: list[str] = []
        self.first = 0.0

    def write(self, text: str) -> None:
        if not self.first:
            self.first = time.perf_counter()
        self.chunks.append(text)

    def take(self) -> tuple[str, float]:
        out, first = "".join(self.chunks), self.first
        self.chunks, self.first = [], 0.0
        return out, first


def run_pass(ops, sink: Sink):
    """Run ops back to back; per op (latency, time to first byte, code, output)."""
    clock = time.perf_counter
    run = wfano.cli.run
    results = []
    start = clock()
    for op in ops:
        t0 = clock()
        if op.argv is not None:
            code = run(op.argv, out=sink)
            t1 = clock()
            out, first = sink.take()
            results.append((t1 - t0, first - t0 if first else None, code, out))
            continue
        try:
            out, code = op.call(), 0
        except ValueError as exc:
            out, code = exc, 2
        except Exception as exc:  # a defect in the library, counted as a failure
            out, code = exc, 3
        results.append((clock() - t0, None, code, out))
    return results, clock() - start


def judge(op, code: int, out) -> str:
    """"ok"; "failed": wrong exit code but no wrong answer; "wrong": an
    output failed its check, or invalid input was accepted."""
    if code != op.expect:
        return "wrong" if code == 0 else "failed"
    try:
        return "ok" if op.check(out) else "wrong"
    except Exception:
        return "wrong"


class Tally:
    """What the passes of one phase did."""

    def __init__(self):
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.firsts: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed: Counter[str] = Counter()
        self.wrong: Counter[str] = Counter()
        self.digests: list[str] = []
        self.out_bytes = 0

    def add(self, ops, results, wall: float) -> None:
        self.walls.append(wall)
        digest = hashlib.sha256()
        for op, (latency, first, code, out) in zip(ops, results):
            self.attempted += 1
            self.latencies.append(latency)
            if first is not None:
                self.firsts.append(first)
            if op.argv is not None:
                data = out.encode()
                digest.update(data)
                self.out_bytes += len(data)
            verdict = judge(op, code, out)
            if verdict == "ok":
                self.items += op.items
                continue
            self.failed[op.kind] += 1
            if verdict == "wrong":
                self.wrong[op.kind] += 1
        self.digests.append(digest.hexdigest())

    def metrics(self) -> dict[str, float]:
        lat = self.latencies
        return {
            "wall_s": statistics.median(self.walls),
            "items_per_s": self.items / sum(self.walls),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p98_ms": statistics.quantiles(lat, n=100, method="inclusive")[TAIL - 1] * 1e3,
            "first_output_s": statistics.median(self.firsts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work of wfano's kind
    (exact fractions, small containers, JSON).  No change under ``src/`` can
    alter it, so its speed is the machine's; garbage collection is off while
    it runs, so the program's heap cannot slow it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        rows = []
        for i in range(1, 1300):
            acc += Fraction(i, 3 * i + 1)
            rows.append({"i": i, "g": math.gcd(i, 360), "s": str(acc.denominator % 997),
                         "t": (i, -i)})
        json.dumps(rows)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def warm_up(workload, sink: Sink) -> None:
    """Load lazily imported modules and fill caches before timing."""
    ops = workload.ops(0) if workload.repeats else workload.ops(-1)[:WARMUP_OPS]
    run_pass(ops, sink)


def setup_probe(root: Path) -> float:
    """Wall time of a fresh interpreter that imports wfano.cli, i.e. is ready
    to serve its first call."""
    env = dict(os.environ, PYTHONPATH=str(Path(wfano.__file__).parents[1]))
    t0 = time.perf_counter()
    # no timeout: waiting with one polls on a back-off schedule, which would
    # round the measured time up to the next poll
    subprocess.run([sys.executable, "-c", "import wfano.cli"], cwd=root, env=env, check=True)
    return time.perf_counter() - t0


def measure(workload, seconds: float, trace: bool, root: Path, seed: int) -> dict:
    sink = Sink()
    warm_up(workload, sink)
    plain, traced = Tally(), Tally()
    tracer = spans.Tracer() if trace else None
    setup: list[float] = []
    refs: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < MIN_PASSES or time.perf_counter() < deadline:
        # spread the set-up probes over the run, so that they see the same
        # machine as the passes do
        if not trace and len(setup) < SETUP_RUNS and (
                time.perf_counter() - start >= seconds * len(setup) / SETUP_RUNS):
            setup.append(setup_probe(root))
        ops = workload.ops(i)
        if not trace:
            refs.append(reference())
        plain.add(ops, *run_pass(ops, sink))
        if tracer is not None:
            traced_sink = Sink()
            with tracer:
                traced_sink.write = tracer.wrap_write(traced_sink.write)
                results, wall = run_pass(ops, traced_sink)
            traced.add(ops, results, wall)
        i += 1
    while not trace and len(setup) < SETUP_RUNS:
        setup.append(setup_probe(root))
    tallies = [plain, traced] if trace else [plain]
    same_bytes = (len(set(plain.digests)) == 1 if workload.repeats else True) and (
        not trace or traced.digests == plain.digests)
    tail = statistics.quantiles(plain.latencies, n=100, method="inclusive")[TAIL - 1]
    report = {
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(sum(t.failed.values()) for t in tallies),
        "correct": same_bytes and not any(t.wrong for t in tallies),
        "info": {
            "passes": len(plain.walls),
            "ops": len(plain.latencies),
            "beyond_tail": sum(x > tail for x in plain.latencies),
            "first_outputs": len(plain.firsts),
            "setup_runs": len(setup),
            "failed_by_kind": sum((t.failed for t in tallies), Counter()),
            "wrong_by_kind": sum((t.wrong for t in tallies), Counter()),
            "sha256_pass0": plain.digests[0],
            "same_bytes": same_bytes,
            "wfano": wfano.__file__,
        },
    }
    if not trace:
        raw = dict(plain.metrics(), setup_s=statistics.median(setup))
        speed = REFERENCE_S / statistics.median(refs)
        report["metrics"] = {k: v * speed if k in TIMES else v for k, v in raw.items()}
        report["metrics"]["items_per_s"] /= speed
        report["info"].update(raw=raw, speed=speed, references=len(refs))
        return report
    passes = len(traced.walls)
    layers = tracer.summary(passes, traced.out_bytes)
    layers["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced.walls, plain.walls)) - 1
    report["metrics"] = layers
    report["info"]["traced_wall_s"] = statistics.mean(traced.walls)
    tracer.write(root / "bench" / "traces" / f"{workload.name}-seed{seed}.json")
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    root = Path.cwd().resolve()
    if not Path(wfano.__file__).resolve().is_relative_to(root / "src"):
        print(f"wfano imported from {wfano.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    report = measure(workload, args.seconds, bool(args.trace), root, args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
