"""wfano benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports wfano from ``src/`` there.
Workloads: certify_stream, sweep, moments_table, geometry_mix (see
``workloads.py``).  With ``--trace 0`` the last line of stdout holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run
(``spans.py``); the lines before it give sample counts, failures, the
SHA-256 of the emitted bytes and the environment.

The workload runs in a fresh child (``worker.py``) without
``WFANO_THREADS``, so its memory and import belong to it alone.  Time metrics
are scaled by the run's speed on a fixed reference loop (``REFERENCE_S`` in
``worker.py``), so that the drift of a shared machine cancels; the raw values
are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170

# (name, unit, sample count) in the order of BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", lambda i: f"median of {i['setup_runs']} fresh imports over the run"),
    ("wall_s", "s", lambda i: f"median of {i['passes']} passes"),
    ("items_per_s", "1/s", lambda i: f"over {i['passes']} passes"),
    ("op_p50_ms", "ms", lambda i: f"{i['ops']} ops"),
    ("op_p98_ms", "ms", lambda i: f"{i['ops']} ops, {i['beyond_tail']} beyond p98"),
    ("first_output_s", "s", lambda i: f"median of {i['first_outputs']} outputs"),
    ("peak_rss_mb", "MB", lambda i: "workload child"),
]


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WFANO_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "wfano" / "cli.py").is_file():
        print(f"no wfano source under {root / 'src'}; run from the checkout root",
              file=sys.stderr)
        return 2
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=DEADLINE_S)
    except subprocess.SubprocessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        print(f"worker exited with {child.returncode}", file=sys.stderr)
        return 1
    report = json.loads(child.stdout.strip().splitlines()[-1])
    print("\n".join(render(report, args)))
    return 0


def render(report: dict, args) -> list[str]:
    """Human-readable lines, then the JSON result line the contract asks for."""
    info = report["info"]
    measured = report["metrics"]
    units = [(name, unit) for name, unit, _ in
             (END_TO_END if args.trace == 0 else spans.metric_names())]
    lines = [f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} python={platform.python_version()} "
             f"nproc={len(os.sched_getaffinity(0))} wfano={info['wfano']}"]
    if args.trace == 0:
        lines.append(f"# time metrics scaled by {info['speed']:.4g}, the speed of this run's "
                     f"machine against the reference ({info['references']} samples)")
        lines += [f"# {name:<16} {measured[name]:>14.6g} {unit:<5} raw {info['raw'][name]:<11.6g}"
                  f" {samples(info)}" for name, unit, samples in END_TO_END]
    else:
        lines += layer_lines(measured, info)
    fail_frac = report["failed"] / report["attempted"]
    lines += [
        f"# fail_frac {fail_frac:.6g} = {report['failed']}/{report['attempted']}; "
        f"failed by kind {info['failed_by_kind']}; wrong answers {info['wrong_by_kind']}",
        f"# sha256 of emitted bytes, pass 0: {info['sha256_pass0']} "
        f"(identical across runs of the pass: {info['same_bytes']})",
        json.dumps({
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in units},
        }),
    ]
    return lines


def layer_lines(measured: dict, info: dict) -> list[str]:
    """Layers by self time per traced pass, with their share of the pass and
    the end-to-end metrics they are predicted to move."""
    wall = info["traced_wall_s"]
    lines = [f"# traced pass {wall:.6g} s, mean of {info['passes']} passes; overhead "
             f"{measured['trace.overhead_frac']:.4g} of the untraced pass"]
    rows = []
    for module, attr, kind, predicts in spans.LAYERS:
        base = spans.layer_name(module, attr)
        if kind != "count" and measured[f"{base}.calls"]:
            rows.append((measured[f"{base}.self_s"], base, predicts))
    lines += [f"# {base:<34} calls {measured[base + '.calls']:>10.6g}  self {self_s:>10.4g} s"
              f"  share {self_s / wall:6.3f}  moves: {predicts}"
              for self_s, base, predicts in sorted(rows, reverse=True)]
    lines += [f"# {name:<34} {measured[name]:.6g}" for name in (
        "moments.Poly1D.mul.calls", "engine.enumerate_data.candidates",
        "engine.enumerate_data.rows", "engine.enumerate_data.yield_ratio",
        "cli.out.bytes", "cli.out.write_s")]
    return lines


if __name__ == "__main__":
    sys.exit(main())
