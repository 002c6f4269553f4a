"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that corrupted outputs trip the correctness checks, that the tracer reaches
every namespace holding a traced function, and that the command refuses to
run without the program's source.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> workloads.Workload:
    if name == "sweep":
        op = workloads.sweep_op(2, 6, 1)
        return workloads.Workload(name, lambda i: [op], True)
    if name == "moments_table":
        op = workloads.table_op(3, 2, 2)
        return workloads.Workload(name, lambda i: [op], True)
    return workloads.make(name, seed=7, pass_size=12)


def _result(name: str, trace: int, tmp_path) -> dict:
    report = worker.measure(tiny(name), 0.0, bool(trace), tmp_path, seed=7)
    args = argparse.Namespace(workload=name, seed=7, seconds=0.0, trace=trace)
    lines = run.render(report, args)
    return json.loads(lines[-1])


def test_spec_matches_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        [(name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        spans.metric_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(name, trace, tmp_path):
    result = _result(name, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert (tmp_path / "bench" / "traces" / f"{name}-seed7.json").is_file()


def _run_one(op):
    results, _ = worker.run_pass([op], worker.Sink())
    _, _, code, out = results[0]
    assert worker.judge(op, code, out) == "ok"
    return code, out


def _corrupt_certificate(text: str) -> str:
    rep = json.loads(text)
    o = rep["outputs"]
    o["anticanonical_bound"] = str(Fraction(o["anticanonical_bound"]) + 1)
    return json.dumps(rep)


def _corrupt_csv(text: str, column: int) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[1][column] = str(Fraction(rows[1][column]) + 1)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_corrupted_outputs_trip_the_checks():
    rng = random.Random(3)
    cert = workloads._certify_valid("one")(rng)
    code, out = _run_one(cert)
    assert worker.judge(cert, code, _corrupt_certificate(out)) == "wrong"

    table = workloads.table_op(3, 2, 2)
    code, out = _run_one(table)
    assert worker.judge(table, code, _corrupt_csv(out, 5)) == "wrong"

    sweep = workloads.sweep_op(2, 6, 1)
    code, out = _run_one(sweep)
    assert worker.judge(sweep, code, _corrupt_csv(out, 3)) == "wrong"

    index = workloads._wps_index(rng)
    code, out = _run_one(index)
    rep = json.loads(out)
    rep["outputs"]["index"] += 1
    assert worker.judge(index, code, json.dumps(rep)) == "wrong"

    zariski = workloads._zariski(rng)
    code, dec = _run_one(zariski)
    bad = type(dec)(positive=dec.negative, negative=dec.positive, support=dec.support)
    assert worker.judge(zariski, code, bad) == "wrong"


def test_a_wrong_answer_marks_the_run_incorrect(monkeypatch):
    original = workloads.check_table
    monkeypatch.setattr(workloads, "check_table", lambda text, *a: original(text[:-3], *a))
    report = worker.measure(tiny("moments_table"), 0.0, False, ROOT, seed=7)
    assert report["correct"] is False and report["failed"] == report["attempted"]


def test_accepted_invalid_input_is_wrong_and_exit_3_is_a_failure():
    op = workloads._certify_degree_zero(random.Random(1))
    assert worker.judge(op, 0, "{}") == "wrong"
    assert worker.judge(op, 3, "{}") == "failed"


def test_tracer_reaches_every_namespace():
    import wfano
    from wfano import engine, lattice, moments, wpoly

    originals = {(m, a): getattr(sys.modules[f"wfano.{m}"], a)
                 for m, a, kind, _ in spans.LAYERS if kind == "func"}
    modules = [m for n, m in sys.modules.items() if n == "wfano" or n.startswith("wfano.")]
    with spans.Tracer():
        for fn in originals.values():
            assert not any(v is fn for m in modules for v in vars(m).values())
        assert engine.fano_index is lattice.fano_index
        assert engine.delta_eckardt is moments.delta_eckardt
        assert wpoly.build.__wrapped__ is originals["blowup", "build"]
        assert wfano.certify is engine.certify
        assert "__wrapped__" in vars(lattice.WeightVector.__init__)
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[f"wfano.{m}"], a) is fn
    assert engine.unstable_check is originals["moments", "unstable_check"]
    assert "__wrapped__" not in vars(lattice.WeightVector.__init__)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
