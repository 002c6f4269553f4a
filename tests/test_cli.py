import argparse
import collections
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfano import blowup as bl
from wfano import cli
from wfano import convex as cx
from wfano import engine as ce
from wfano import lattice
from wfano import moments as mo
from wfano.cli import run
from wfano.lattice import WeightVector
from wfano.schema import ERROR_SCHEMA, REPORT_SCHEMA


def _run(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def _run_json(argv):
    code, text = _run(argv)
    return code, json.loads(text)


def test_certify_example():
    code, rep = _run_json(["certify", "--weights", "1,1,1,1,2", "--degree", "5"])
    assert code == 0
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["outputs"]["bound"] == "4/3"
    assert rep["outputs"]["verdict"] == "K-stable"
    assert rep["schema_version"] == "wfano-certify/1"


def test_certify_refuses_a_degree_above_the_cap():
    """The weight-one knapsack holds d + 1 bits, so a degree past
    ``MAX_DEGREE`` is a precondition error (exit 2), checked after every
    older refusal; the cap itself still certifies."""
    big = ce.MAX_DEGREE + 3
    code, rep = _run_json(["certify", "--weights", f"1,1,1,1,{big - 3}", "--degree", str(big)])
    assert code == 2
    jsonschema.validate(rep, ERROR_SCHEMA)
    assert rep["error"] == {"kind": "precondition",
                            "message": f"degree {big} exceeds the limit {ce.MAX_DEGREE}"}
    code, rep = _run_json(["certify", "--weights", "1,1,1,2", "--degree", str(big)])
    assert rep["error"]["message"] == f"index sum(a_i) - d = {5 - big} is not positive"
    code, rep = _run_json(["certify", "--weights", "1,1,1,1,999996", "--degree", "999999"])
    assert code == 0
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["inputs"]["index"] == 1


def test_weight_lists_past_the_cap_are_refused():
    """At most ``MAX_WEIGHTS`` weights: the parser counts repetitions before
    it expands them, so a count of 10^9 exits 2 at once, and the constructor
    refuses a longer vector before its well-formedness test."""
    cap = lattice.MAX_WEIGHTS
    message = f"a weight vector has at most MAX_WEIGHTS = {cap} entries"
    for text in ("1^1000000000,2", f"1^{cap},2", ",".join(["1"] * (cap + 1))):
        code, rep = _run_json(["wps", "index", "--weights", text, "--degree", "3"])
        assert code == 2 and rep["error"] == {"kind": "weights", "message": message}
    code, rep = _run_json(["wps", "index", "--weights", f"1^{cap - 1},2", "--degree", "3"])
    assert code == 0 and rep["outputs"]["index"] == cap - 2
    assert len(WeightVector((1,) * cap)) == cap
    with pytest.raises(ValueError, match=message):
        WeightVector((1,) * (cap + 1))


def test_moments_example():
    code, rep = _run_json(["moments", "s-value", "--n", "3", "--a", "2",
                           "--k", "2", "--j", "1"])
    assert code == 0
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["outputs"]["s_value"] == "7/8"


def test_wps_normalize_example():
    code, rep = _run_json(["wps", "normalize", "--weights", "2,2,3"])
    assert code == 0
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["outputs"]["weights"] == "1,1,3"


def test_weight_text_form():
    code, rep = _run_json(["wps", "index", "--weights", "P(1^4,2)",
                           "--degree", "5"])
    assert code == 0
    assert rep["outputs"]["index"] == 1


def test_exit_code_2_on_precondition():
    code, rep = _run_json(["certify", "--weights", "1,1,1", "--degree", "9"])
    assert code == 2
    jsonschema.validate(rep, ERROR_SCHEMA)

    code, rep = _run_json(["wps", "stratum", "--weights", "1,1,2",
                           "--vanish", "0,1"])
    assert code == 2

    code, rep = _run_json(["certify", "--weights", "2,4,6,8", "--degree", "3"])
    assert code == 2

    for argv in (["certify", "--weights", "1,1,1,1,2", "--degree", "0"],
                 ["blowup", "transform", "--weights", "1,1,1,2", "--r", "1",
                  "--poly", "x0+x3"],
                 ["certify", "--weights", "1,1,1,1,2", "--degree", "5", "--m", "0"],
                 ["certify", "--weights", "1,1,1,1,2", "--degree", "5", "--m", "-3"],
                 ["wps", "index", "--weights", "1,1,2", "--degree", "0"],
                 ["wps", "stratum", "--weights", "1,2,3", "--vanish", "0,0"],
                 ["wps", "index", "--weights", "1,1,2", "--degree", "-3"],
                 ["blowup", "transform", "--weights", "1,1,1,2", "--r", "1",
                  "--poly", "1/0*x2"],
                 ["enumerate", "--n", "0", "--max-weight", "3", "--index", "1"],
                 ["enumerate", "--n", "-1", "--max-weight", "3", "--index", "1", "--csv"],
                 ["moments", "table", "--n-max", "65", "--a-max", "1", "--k-max", "1"],
                 ["moments", "table", "--n-max", "1"],
                 ["moments", "table", "--a-max", "0"],
                 ["moments", "table", "--k-max", "-2"],
                 ["blowup", "transform", "--weights", "1,1,1", "--r", "1", "--poly", "1"],
                 ["blowup", "transform", "--weights", "1,1,2", "--r", "1", "--poly", "z"],
                 ["okounkov", "case", "hirzebruch", "--a", "2", "--csv-samples", "-3"],
                 ["okounkov", "case", "hirzebruch", "--a", "2", "--k", "9", "--b", "4",
                  "--flag-in-surface"]):
        code, text = _run(argv)
        assert code == 2
        assert text.startswith("{"), argv
        rep = json.loads(text)
        jsonschema.validate(rep, ERROR_SCHEMA)
        assert rep["error"]["kind"] == "precondition"
        if argv[-1] == "z":
            assert rep["error"]["message"] == "unknown variable z"

    # CSV has no decimals and no aligned text: the global flags are refused
    for argv in (["--approx", "moments", "table"],
                 ["--format", "text", "moments", "table"],
                 ["--approx", "enumerate", "--n", "2", "--max-weight", "4", "--index", "1",
                  "--csv"],
                 ["--format", "text", "okounkov", "case", "hirzebruch", "--a", "2",
                  "--csv-samples", "4"],
                 ["--format", "text", "enumerate", "--n", "2", "--max-weight", "4", "--index",
                  "1", "--csv"],
                 ["--approx", "okounkov", "case", "hirzebruch", "--a", "2",
                  "--csv-samples", "4"]):
        code, text = _run(argv)
        assert code == 2
        assert text.startswith("{"), argv
        rep = json.loads(text)
        jsonschema.validate(rep, ERROR_SCHEMA)
        flag = "--approx" if argv[0] == "--approx" else "--format text"
        assert rep["error"] == {"kind": "usage",
                                "message": f"{flag} does not apply to CSV output"}

    for vanish in ("0,a", ""):
        code, rep = _run_json(["wps", "stratum", "--weights", "1,1,2", "--vanish", vanish])
        assert code == 2
        jsonschema.validate(rep, ERROR_SCHEMA)
        assert rep["error"] == {"kind": "usage",
                                "message": "argument --vanish: must be comma separated indices"}


def test_eckardt_assertion_on_a_curve_is_ignored():
    """n = 1 has no Eckardt vertex: --eckardt leaves the certificate as it is."""
    base = ["certify", "--weights", "1,1,2", "--degree", "3"]
    code, plain = _run_json(base)
    assert code == 0
    for extra in (["--eckardt"], ["--m", "1"], ["--eckardt", "--m", "1"]):
        code, rep = _run_json(base + extra)
        assert code == 0, extra
        assert rep["outputs"] == plain["outputs"]
        assert rep["trace"] == plain["trace"]


def _mostly(valid, anything):
    """Draw from ``valid`` four times in five, so that the fuzz reaches the
    success paths, and from ``anything`` otherwise."""
    return st.sampled_from([valid] * 4 + [anything]).flatmap(lambda s: s)


_WELL_FORMED_WEIGHTS = st.lists(st.integers(1, 8), min_size=3, max_size=6).map(sorted).filter(
    lambda ws: all(math.gcd(*ws[:i], *ws[i + 1:]) == 1 for i in range(len(ws)))).map(
    lambda ws: ",".join(map(str, ws)))
_ANY_WEIGHTS = st.one_of(
    st.lists(st.integers(-1, 8), min_size=0, max_size=7).map(
        lambda ws: ",".join(map(str, ws))),
    st.sampled_from(["P(1^4,2)", "P(1^12,4)", "P(2^3,1)", "1,,2", "x", "P()"]),
)
_WEIGHTS = _mostly(_WELL_FORMED_WEIGHTS, _ANY_WEIGHTS)
_MONOMIAL = st.tuples(
    st.sampled_from(["", "2*", "-3*", "1/2*", "0*", "1/0*"]),
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=1, max_size=3),
).map(lambda t: t[0] + "*".join(f"x{i}^{e}" for i, e in t[1]))
_POLY = st.lists(st.tuples(st.sampled_from(["+", "-"]), _MONOMIAL),
                 min_size=1, max_size=4).map(lambda ts: "".join(s + m for s, m in ts))


@functools.lru_cache(maxsize=None)
def _monomials(weights: tuple[int, ...], d: int) -> tuple[tuple[int, ...], ...]:
    """Every exponent vector of weighted degree ``d`` over ``weights``."""
    if not weights:
        return ((),) if d == 0 else ()
    head, rest = weights[0], weights[1:]
    return tuple((e, *tail) for e in range(d // head + 1)
                 for tail in _monomials(rest, d - e * head))


def _int_weights(weights: str) -> tuple[int, ...]:
    """``weights`` as integers when it is a comma list of positive integers,
    else ()."""
    try:
        ws = tuple(int(x) for x in weights.split(","))
    except ValueError:
        return ()
    return ws if min(ws) >= 1 else ()


def _transform_argv(weights: str):
    """``blowup transform`` over ``weights``: for integer weights, mostly a
    split index in range and a sum of monomials of one weighted degree (at
    most 10); else any index and any ``_POLY``."""
    ws = _int_weights(weights)
    degrees = [d for d in range(1, 11) if ws and _monomials(ws, d)]
    if not degrees:
        r, poly = st.integers(-1, 4), _POLY
    else:
        term = st.tuples(st.sampled_from(["+", "-"]), st.sampled_from(["", "2*", "1/2*"]))
        homogeneous = st.sampled_from(degrees).flatmap(lambda d: st.lists(
            st.tuples(term, st.sampled_from(_monomials(ws, d))), min_size=1, max_size=4)).map(
            lambda ts: "".join(sign + coeff + "*".join(
                f"x{i}^{e}" for i, e in enumerate(exps) if e)
                for (sign, coeff), exps in ts))
        r = _mostly(st.integers(1, max(1, len(ws) - 2)), st.integers(-1, 4))
        poly = _mostly(homogeneous, _POLY)
    # "--poly=" keeps a text with a leading "-" from reading as an option
    return st.builds(lambda r, poly: ["blowup", "transform", "--weights", weights,
                                      "--r", str(r), f"--poly={poly}"], r, poly)


_FLAGS = st.lists(st.sampled_from([["--eckardt"], ["--general"], ["--csv"]]),
                  max_size=2).map(lambda fs: [f for flag in fs for f in flag])

_INT = st.integers(-2, 6).map(str)
_Q_IN_W1 = st.sampled_from([[], ["--q-in-w1"]])

_ARGV = st.one_of(
    st.builds(lambda w, d, fl, m, b1: ["certify", "--weights", w, "--degree", str(d),
                                       *[f for f in fl if f != "--csv"], *m, *b1],
              _WEIGHTS, _mostly(st.integers(1, 24), st.integers(-3, 30)), _FLAGS,
              st.one_of(st.just([]), _mostly(st.integers(1, 4), st.integers(-3, 4)).map(
                  lambda m: ["--m", str(m)])),
              st.one_of(st.just([]), st.sampled_from(["yes", "no", "unknown"]).map(
                  lambda b: ["--b1", b]))),
    st.builds(lambda w, d: ["wps", "index", "--weights", w, "--degree", str(d)],
              _WEIGHTS, st.integers(-3, 30)),
    st.builds(lambda n, mw, by, fl: ["enumerate", "--n", str(n), "--max-weight", str(mw),
                                     *by, *fl],
              st.integers(-2, 2), st.integers(-1, 6),
              st.sampled_from([[], ["--index", "1"], ["--index", "-2"], ["--degree", "7"],
                               ["--degree", "0"], ["--index", "1", "--degree", "5"]]),
              _FLAGS),
    _WEIGHTS.flatmap(_transform_argv),
    st.builds(lambda n, a, k, j, q: ["moments", "s-value", "--n", n, "--a", a, "--k", k,
                                     "--j", j, *q],
              _INT, _INT, _INT, _INT, _Q_IN_W1),
    st.builds(lambda n, a, k: ["moments", "table", "--n-max", str(n), "--a-max", a,
                               "--k-max", k],
              st.one_of(st.integers(-1, 9), st.sampled_from([65, 70])),
              st.integers(-1, 3).map(str), st.integers(-1, 3).map(str)),
    st.builds(lambda name, a, b, k, fl, cs: ["okounkov", "case", name, "--a", a, "--b", b,
                                             "--k", k, *fl, *cs],
              st.sampled_from(["hirzebruch", "hirzebruch2", "perhaps-useful"]),
              _INT, _INT, _INT, st.sampled_from([[], ["--flag-in-surface"]]),
              st.one_of(st.just([]), st.integers(-3, 20).map(
                  lambda c: ["--csv-samples", str(c)]))),
    st.builds(lambda w: ["wps", "normalize", "--weights", w], _WEIGHTS),
    st.builds(lambda w, v: ["wps", "stratum", "--weights", w, "--vanish", v],
              _WEIGHTS, st.one_of(
                  st.lists(st.integers(-1, 7), min_size=1, max_size=5).map(
                      lambda vs: ",".join(map(str, vs))),
                  st.sampled_from(["", "x", "0,,1"]))),
    st.builds(lambda w, t, p: ["wps", "base-locus", "--weights", w, "--threshold", t, *p],
              _WEIGHTS, _INT,
              st.one_of(st.just([]), st.integers(-1, 7).map(lambda i: ["--point", str(i)]))),
    st.builds(lambda w, r: ["blowup", "build", "--weights", w, "--r", str(r)],
              _WEIGHTS, st.integers(-1, 6)),
    st.builds(lambda w, r, k: ["blowup", "intersect", "--weights", w, "--r", str(r),
                               "--k", k],
              _WEIGHTS, st.integers(-1, 6), _INT),
)


@settings(max_examples=250, deadline=None)
@given(_ARGV)
@example(["certify", "--weights", "1,1,1,1,2", "--degree", "5", "--m", "0"])
@example(["wps", "index", "--weights", "1,1,2", "--degree", "0"])
@example(["blowup", "transform", "--weights", "1,1,1,2", "--r", "1", "--poly", "1/0*x2"])
@example(["enumerate", "--n", "0", "--max-weight", "3", "--index", "1", "--csv"])
@example(["enumerate", "--n", "1", "--max-weight", "2", "--index", "1", "--eckardt"])
@example(["moments", "table", "--n-max", "65", "--a-max", "1", "--k-max", "1"])
@example(["okounkov", "case", "hirzebruch", "--a", "2", "--csv-samples", "-3"])
def test_exit_code_contract_fuzzed(argv):
    """Any argv of any leaf subcommand exits 0, or 2 with a valid error object."""
    code, text = _run(argv)
    assert code in (0, 2), (argv, text)
    if code == 2:
        jsonschema.validate(json.loads(text), ERROR_SCHEMA)


@pytest.mark.parametrize("exc, code, kind", [
    (ValueError("outside the theorem"), 2, "precondition"),
    (ce.NonFanoError("outside the theorem"), 2, "precondition"),
    (cx.NotPseudoEffectiveError("outside the theorem"), 2, "precondition"),
    (AssertionError("broken invariant"), 3, "internal"),
    (ZeroDivisionError("broken invariant"), 3, "internal"),
])
def test_error_boundary_maps_exception_types(monkeypatch, exc, code, kind):
    """run alone decides the exit code: ValueError is the user's, the rest ours."""
    def fail(*args):
        raise exc

    monkeypatch.setattr(bl, "build", fail)
    got, text = _run(["blowup", "build", "--weights", "2,3,4,4,5", "--r", "2"])
    assert got == code
    rep = json.loads(text)
    jsonschema.validate(rep, ERROR_SCHEMA)
    assert rep["error"]["kind"] == kind


def test_usage_error_is_machine_readable():
    code, rep = _run_json(["certify", "--weights", "1,1,1,1,2"])
    assert code == 2
    assert rep["error"]["kind"] == "usage"


@pytest.mark.parametrize("argv, message", [
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "
                     "'certify', 'enumerate', 'moments', 'okounkov', 'wps', 'blowup')"),
    ([], "the following arguments are required: command"),
])
def test_root_usage_errors(argv, message):
    """The root's subcommand map names every subcommand before any is built."""
    code, rep = _run_json(argv)
    assert code == 2
    jsonschema.validate(rep, ERROR_SCHEMA)
    assert rep["error"] == {"kind": "usage", "message": message}


def test_byte_identical_determinism():
    argv = ["enumerate", "--n", "3", "--max-weight", "3", "--index", "1"]
    _, out1 = _run(argv)
    _, out2 = _run(argv)
    assert out1 == out2


_SWEEP_CSV = {        # --index: (bytes, SHA-256) of the benchmark's sweep CSV
    1: (308_328, "1a373e534c0102396013921ee202fef8c3fc5863821fa17b69da28372b83d18d"),
    2: (326_472, "8c00470965a1b345a7d3c4a71d72825c98eedd1b89a6764b942ce2113f9e0ca1"),
    3: (312_870, "8242ee0204a1b9d0a258f70e80867d0c9f6b139baf3b841e4c4f1c82ef100726"),
    4: (325_543, "2a0ae268e7e5eb3bb77735b52cec0df6597e4944c3da789f0d798cc7bc8fe927"),
}


@pytest.mark.parametrize("index", sorted(_SWEEP_CSV))
def test_enumerate_csv_bytes(index):
    """The benchmark's four sweep CSVs are pinned byte for byte; the index-3
    sweep has 13 K-unstable rows, so the Eckardt rules fire inside it."""
    code, text = _run(["enumerate", "--n", "3", "--max-weight", "14", "--index", str(index),
                       "--eckardt", "--general", "--csv"])
    assert code == 0
    data = text.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == _SWEEP_CSV[index]
    assert text.count("K-unstable") == (13 if index == 3 else 0)


def test_closed_output_pipe_exits_1_without_a_traceback():
    """A reader that stops after one line of the 308 KB sweep CSV, like
    ``| head -1``, leaves the console entry point with exit 1 and nothing
    on stderr."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "wfano.cli", "enumerate", "--n", "3", "--max-weight", "14",
         "--index", "1", "--eckardt", "--general", "--csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"weights,degree,")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_import_wfano_loads_only_the_engine():
    """``import wfano`` re-exports only ``certify``; the geometry modules stay
    unloaded until something imports them."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, wfano; from wfano import engine; assert wfano.certify is engine.certify; "
            "print(sorted(m for m in ('wfano.convex', 'wfano.wpoly', 'wfano.blowup') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_certify_loads_no_dataclasses_inspect_or_csv():
    """A fresh ``certify`` run leaves ``dataclasses`` (and the ``inspect``
    it pulls in) and ``csv`` unloaded: its records are NamedTuples, its
    checked values slotted classes, and only a table imports ``csv``."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import io, sys\n"
            "import wfano.cli as cli\n"
            "status = cli.run(['certify', '--weights', '1,1,1,1,2', '--degree', '5'],\n"
            "                 out=io.StringIO())\n"
            "print(status, sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_a_run_imports_only_what_its_subcommand_uses():
    """In a fresh process, ``certify``, ``enumerate``, ``moments`` and ``wps``
    leave ``convex``, ``wpoly`` and ``blowup`` unloaded; then ``blowup build``
    loads ``blowup``, ``okounkov`` loads ``convex`` and ``blowup transform``
    loads ``wpoly``.  No run loads ``dataclasses`` or ``inspect``, and only
    ``enumerate --csv`` (of these runs) loads ``csv``: ``moments table``
    renders its lines itself."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = [
        ["certify", "--weights", "1,1,1,1,2", "--degree", "5"],
        ["moments", "table", "--n-max", "3", "--a-max", "2", "--k-max", "2"],
        ["moments", "s-value", "--n", "4", "--a", "2", "--k", "2", "--j", "4", "--q-in-w1"],
        ["wps", "normalize", "--weights", "2,2,3"],
        ["wps", "index", "--weights", "1,1,1,1,2", "--degree", "5"],
        ["wps", "stratum", "--weights", "1,1,2,2", "--vanish", "0,1"],
        ["wps", "base-locus", "--weights", "1,1,2,3", "--threshold", "1"],
        ["enumerate", "--n", "2", "--max-weight", "4", "--index", "1", "--csv"],
        ["blowup", "build", "--weights", "2,3,4,4,5", "--r", "2"],
        ["okounkov", "case", "hirzebruch", "--a", "2"],
        ["blowup", "transform", "--weights", "3,1,1,1", "--r", "2",
         "--poly", "x3^2*x1^2+x3*x0+x1^4+x2^4"],
    ]
    code = ("import io, json, sys\n"
            "from wfano import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    status = cli.run(argv, out=io.StringIO())\n"
            "    ours = sorted(m for m in ('wfano.convex', 'wfano.wpoly', 'wfano.blowup')\n"
            "                  if m in sys.modules)\n"
            "    std = sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules))\n"
            "    print(json.dumps([status, ours, std]))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = [json.loads(line) for line in proc.stdout.splitlines()]
    assert got == [[0, [], []]] * 7 + [[0, [], ["csv"]],
                                       [0, ["wfano.blowup"], ["csv"]],
                                       [0, ["wfano.blowup", "wfano.convex"], ["csv"]],
                                       [0, ["wfano.blowup", "wfano.convex", "wfano.wpoly"],
                                        ["csv"]]]


def test_enumerate_json_bytes():
    code, text = _run(["enumerate", "--n", "3", "--max-weight", "10", "--index", "1"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "081b12f88e8db29be320efd1c64d02ea31409fca383e6ad63ad8c6ab0d5ba463"


def test_enumerate_csv_limit_error_has_no_header():
    # max_n (n = 50), then max_rows (417,212 gcd-1 candidates at n = 3,
    # weights up to 33)
    for n, top in (("50", "3"), ("3", "33")):
        code, text = _run(["enumerate", "--n", n, "--max-weight", top, "--index", "1",
                           "--csv"])
        assert code == 2
        rep = json.loads(text)
        jsonschema.validate(rep, ERROR_SCHEMA)
        assert rep["error"]["kind"] == "precondition"
        assert text.startswith("{")
    assert rep["error"]["message"] == \
        "enumeration would produce 417212 rows; limit is 200000"


def test_enumerate_csv():
    code, text = _run(["enumerate", "--n", "3", "--max-weight", "2",
                       "--index", "1", "--csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("weights,degree,index,bound")
    assert len(lines) > 1


def test_moments_table_csv():
    code, text = _run(["moments", "table", "--n-max", "2", "--a-max", "1",
                       "--k-max", "1"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,a,k,j,q_in_W1,S,closed_form,match"
    assert lines[0] == ",".join(mo.TABLE_HEADER)
    assert all(line.endswith("True") for line in lines[1:])


def test_moments_table_default_bytes():
    """The default table (n, a, k up to 8, 6, 6) is pinned byte for byte."""
    code, text = _run(["moments", "table"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1edf3e8e5f01ec1c40c9dfb3c0f574b0390099da413adc0e8d80a6e90681b8b8"


def test_moments_table_builds_no_fraction(monkeypatch):
    """The table is integer arithmetic from the formulas to the bytes: with
    every ``Fraction`` construction in ``moments`` and ``cli`` raising, the
    default table still writes its pinned bytes."""
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(mo, "Fraction", NoFraction)
    monkeypatch.setattr(cli, "Fraction", NoFraction)
    with pytest.raises(AssertionError, match="a Fraction was built"):
        mo.s_value(3, 2, 2, 1)
    code, text = _run(["moments", "table"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "1edf3e8e5f01ec1c40c9dfb3c0f574b0390099da413adc0e8d80a6e90681b8b8"


@pytest.mark.parametrize("maxima, size, sha", [
    (("6", "4", "5"), 21604, "b5b4689d5f9f563e03ee9fa4e29ec11582ddd13b6e6f6c55746eb550f4fcba9b"),
    (("6", "5", "4"), 21668, "b5193ac89a5db545df1679bb9512745a72196c27b36e80e73a6592d4c2e8c885"),
    (("64", "3", "3"), 1131673,
     "55b2c583922588b2d5be56a28097bf01314620a3ee87b4f532172983b5baaaeb"),
])
def test_moments_table_bench_bytes(maxima, size, sha):
    """Two tables the benchmark runs, and one up to the largest dimension,
    pinned byte for byte."""
    n, a, k = maxima
    code, text = _run(["moments", "table", "--n-max", n, "--a-max", a, "--k-max", k])
    assert code == 0
    data = text.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha)


@pytest.mark.parametrize("seed, wrong", [(11, None), (12, 0), (13, 1), (14, 2)])
def test_moment_lines_are_the_csv_writer_bytes(monkeypatch, seed, wrong):
    """The table's per-record rendering writes the bytes that ``csv.writer``
    writes for the same exact cells, each taken from ``s_value`` and
    ``s_value_closed_form``.  The ranges are seeded, with n up to 64 and a, k
    above 9, and with one closed form made wrong, so that ``False`` cells
    occur."""
    if wrong is not None:
        closed_forms = mo._closed_forms

        def broken(n, a, k):
            values = list(closed_forms(n, a, k))
            p, q = values[wrong]
            values[wrong] = (p + q, q)       # the value plus 1
            return tuple(values)
        monkeypatch.setattr(mo, "_closed_forms", broken)
    rng = random.Random(seed)
    ns = sorted(rng.sample(range(2, 64), 3)) + [64]
    a_values = sorted(rng.sample(range(10, 10**4), 3))
    k_values = sorted(rng.sample(range(10, 10**3), 2))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    for n, a, k in itertools.product(ns, a_values, k_values):
        for j in range(1, n + 1):
            for q in (False, True):
                s, c = mo.s_value(n, a, k, j, q), mo.s_value_closed_form(n, a, k, j, q)
                writer.writerow((n, a, k, j, q, s, c, s == c))
    got = "".join(cli._moment_lines(mo.moment_table(ns, a_values, k_values)))
    assert got == expected.getvalue()
    assert (",False\n" in got) == (wrong is not None)


_PIN_WELL_FORMED = ["1,1,2,2", "1,1,1,1,7", "2,3,4,4,5", "1,1,2,3", "1,2,3,5", "3,1,1,1"]


def _geometry_argvs():
    for w in ["2,2,3", "6,10,15", *_PIN_WELL_FORMED]:
        yield ["wps", "normalize", "--weights", w]
    for w in _PIN_WELL_FORMED:
        ws = [int(a) for a in w.split(",")]
        s = len(ws) - 1
        yield ["wps", "stratum", "--weights", w, "--vanish", "0,1"]
        yield ["wps", "stratum", "--weights", w, "--vanish", str(s)]
        for t in (1, 2):
            yield ["wps", "base-locus", "--weights", w, "--threshold", str(t)]
            yield ["wps", "base-locus", "--weights", w, "--threshold", str(t), "--point", "0"]
        top = math.lcm(*ws)
        poly = " + ".join(f"x{i}^{top // a}" for i, a in enumerate(ws))
        for r in range(1, s):
            yield ["blowup", "build", "--weights", w, "--r", str(r)]
            for k in (0, r, r + 1):
                yield ["blowup", "intersect", "--weights", w, "--r", str(r), "--k", str(k)]
            yield ["blowup", "transform", "--weights", w, "--r", str(r), "--poly", poly]
    for name, a in itertools.product(["hirzebruch", "hirzebruch2"], range(5)):
        yield ["okounkov", "case", name, "--a", str(a)]
    for a, b, k, flag in itertools.product((1, 2, 3), (1, 2), (2, 3),
                                           ([], ["--flag-in-surface"])):
        yield ["okounkov", "case", "perhaps-useful", "--a", str(a), "--b", str(b),
               "--k", str(k), *flag]


def _zariski_models():
    for a, b, k in itertools.product((1, 2, 3), (1, 2), (2, 3)):
        m = [[-a * b, 1, a - 1], [1, -k, k], [a - 1, k, 0]]
        for x in (Fraction(1, 4), Fraction(1)):
            yield m, [Fraction(1, b), 1 - x, Fraction(1)]
    for a, k in itertools.product((2, 3), (1, 2)):
        e = 1 + a * k
        for x in (Fraction(1, 2), Fraction(e, a), Fraction(e + 1, a)):
            yield [[-a, e], [e, -k * e]], [k + Fraction(1, a) - x, Fraction(1)]
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-4, 3)
        yield m, [Fraction(rng.randint(-1, 4), rng.randint(1, 2)) for _ in range(n)]
    yield [[1, 2], [3, 4]], [1, 1]


def _geometry_results():
    for argv in _geometry_argvs():
        code, text = _run(argv)
        yield f"{code} {' '.join(argv)}\n{text}"
    for w in _PIN_WELL_FORMED:
        wv = WeightVector.parse(w)
        for r in range(1, wv.s):
            frame = bl.build(wv, r)
            for i in (0, wv.s):
                yield repr(bl.restrict_to_divisor(frame, i))
    for m, cls in _zariski_models():
        try:
            yield repr(cx.zariski_decompose(m, cls))
        except ValueError as exc:
            yield f"{type(exc).__name__}: {exc}"


def test_geometry_outputs_pinned():
    """wps, blowup and okounkov JSON, both divisor restrictions and Zariski
    decompositions (with their NotPseudoEffectiveError messages), pinned."""
    results = list(_geometry_results())
    assert len(results) == 273
    assert sum(r.startswith("NotPseudoEffectiveError") for r in results) == 37
    assert hashlib.sha256("\n".join(results).encode()).hexdigest() == \
        "5f1eec2c405917122967bd0ba2f785ac44a9d5ec69c12d395dc0e68388d966ef"


def test_readme_commands_run():
    """Every `wfano ...` line of the README's command block exits 0."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("wfano ")]
    assert len(commands) >= 10
    for argv in commands:
        assert _run(argv)[0] == 0, argv


def test_okounkov_case_and_samples():
    code, rep = _run_json(["okounkov", "case", "hirzebruch2", "--a", "2"])
    assert code == 0
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["outputs"]["L2"] == "1/6"
    assert rep["outputs"]["s_value"] == "2/9"

    code, text = _run(["okounkov", "case", "hirzebruch2", "--a", "2",
                       "--csv-samples", "4"])
    assert code == 0
    assert text.splitlines()[0] == "x,upper"
    assert len(text.strip().splitlines()) == 6


def test_blowup_subcommands():
    code, rep = _run_json(["blowup", "build", "--weights", "2,3,4,4,5", "--r", "2"])
    assert code == 0
    jsonschema.validate(rep, REPORT_SCHEMA)
    frame = rep["outputs"]["frame"]
    assert set(frame) == {"ambient", "r", "h", "hp", "app", "gi", "g", "gp", "ap",
                          "v_rep", "bezout"}
    assert frame["h"] == 1 and frame["hp"] == 1 and frame["g"] == 2
    assert frame["ap"] == [1, 3, 2, 1, 1]

    code, rep = _run_json(["blowup", "intersect", "--weights", "2,3,4,4,5",
                           "--r", "2", "--k", "2"])
    assert rep["outputs"]["value"] == "1/480"

    code, rep = _run_json(["blowup", "transform", "--weights", "3,1,1,1",
                           "--r", "2", "--poly",
                           "x3^2*x1^2 + x3*x0 + x1^4 + x2^4"])
    assert code == 0
    assert rep["outputs"]["bidegree"] == [2, 2]


def test_approx_column():
    code, rep = _run_json(["--approx", "moments", "s-value", "--n", "3",
                           "--a", "2", "--k", "2", "--j", "1"])
    assert code == 0
    assert rep["approx"]["s_value"] == "0.875"


@pytest.mark.parametrize("argv, approx", [
    (["certify", "--weights", "P(1^12,4)", "--degree", "9", "--eckardt"],
     {"bound": "5.33333333333", "upper": "6.94736842105",
      "anticanonical_bound": "0.761904761905", "anticanonical_upper": "0.992481203008"}),
    (["enumerate", "--n", "2", "--max-weight", "2", "--degree", "4"],
     {"rows": [{"bound": "1.5", "anticanonical_bound": "1.5"},
               {"bound": "1.5", "anticanonical_bound": "0.75"}]}),
    (["okounkov", "case", "hirzebruch", "--a", "2"],
     {"body": {"breakpoints": ["0", "0.5"], "pieces": [["2", "0"]]}, "area": "0.25", "L2": "0.5", "eps": "0.5", "t_max": "0.5", "s_value": "0.333333333333",
      "second_coordinate": "0.333333333333"}),
    (["wps", "base-locus", "--weights", "1,1,1,1,2,3", "--threshold", "2", "--point", "0"],
     {"scale": "0.333333333333"}),
    (["blowup", "build", "--weights", "2,3,4,4,5", "--r", "2"],
     {"exceptional_product": {"restriction_scale": ["0.5", "0.05"],
                              "self_restriction": ["-0.5", "0.05"]},
      "psi_pullback_o1": ["0", "1"], "pi_pullback_o1": ["2", "0"]}),
])
def test_approx_covers_every_fraction(argv, approx):
    """--approx approximates each exact rational output, whatever the subcommand,
    and drops entries that hold none; without it the report is unchanged."""
    code, rep = _run_json(["--approx", *argv])
    assert code == 0
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep.pop("approx") == approx
    assert rep == _run_json(argv)[1]
    lines = _run(["--format", "text", "--approx", *argv])[1].splitlines()
    start = lines.index("approx (12 significant digits, not exact):") + 1
    assert [line.split()[0] for line in lines[start:start + len(approx)]] == list(approx)


def test_approx_block_absent_without_fractions():
    code, rep = _run_json(["--approx", "wps", "normalize", "--weights", "2,2,3"])
    assert code == 0
    assert "approx" not in rep


def test_text_format():
    code, text = _run(["--format", "text", "certify", "--weights", "1,1,1,1,2",
                       "--degree", "5"])
    assert code == 0
    assert "K-stable" in text and "4/3" in text


@pytest.mark.parametrize("argv, size, sha256, lines", [
    (["--weights", "1,1,1,1,2", "--degree", "4"], 1008,
     "68b2da206d708532eface434f7fa139ccf8d24e6408b8e005b120de874a9cdcd",
     ["rule b1-derivation [note] -> None",
      "rule external-divisible-weight [global] EXTERNAL -> 2",
      "    citation: [ST24, Theorem 1.1]"]),
    (["--weights", "P(1^12,4)", "--degree", "9", "--eckardt"], 1918,
     "059a7a12fc9a876751592a0cc25b6c02acf21db13c00917e1dbfb3d894cd11df",
     ["rule tail-base-locus-vertex [vertex] -> 12/5",
      "rule eckardt-vertex-upper [upper] -> 132/19",
      "rule eckardt-unstable [note] -> None"]),
])
def test_certify_text_bytes(argv, size, sha256, lines):
    """The text emitter's trace lines: scope, EXTERNAL tag, citation, notes."""
    code, text = _run(["--format", "text", "certify", *argv])
    assert code == 0
    assert all(line in text.splitlines() for line in lines)
    data = text.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == sha256


def test_base_locus_subcommand():
    code, rep = _run_json(["wps", "base-locus", "--weights", "1,1,1,1,2,3",
                           "--threshold", "2", "--point", "0"])
    assert code == 0
    assert rep["outputs"]["vanishing"] == [1, 2, 3, 4]


# Every parser path of the command line, and per argument (name, type,
# choices, required, default): options by their option strings, positionals
# and subcommand slots by their dest.  The help action is left out.
_W = ("--weights", None, None, True, None)
_SURFACE = {
    (): [("--format", None, ["json", "text"], False, "json"),
         ("--approx", None, None, False, False),
         ("command", None, ["certify", "enumerate", "moments", "okounkov", "wps", "blowup"],
          True, None)],
    ("certify",): [_W, ("--degree", int, None, True, None),
                   ("--eckardt", None, None, False, False),
                   ("--m", int, None, False, None),
                   ("--general", None, None, False, False),
                   ("--b1", None, ["yes", "no", "unknown"], False, "unknown")],
    ("enumerate",): [("--n", int, None, True, None), ("--max-weight", int, None, True, None),
                     ("--index", int, None, False, None), ("--degree", int, None, False, None),
                     ("--eckardt", None, None, False, False),
                     ("--general", None, None, False, False),
                     ("--csv", None, None, False, False)],
    ("moments",): [("moments_command", None, ["s-value", "table"], True, None)],
    ("moments", "s-value"): [("--n", int, None, True, None), ("--a", int, None, True, None),
                             ("--k", int, None, True, None), ("--j", int, None, True, None),
                             ("--q-in-w1", None, None, False, False)],
    ("moments", "table"): [("--n-max", int, None, False, 8), ("--a-max", int, None, False, 6),
                           ("--k-max", int, None, False, 6)],
    ("okounkov",): [("okounkov_command", None, ["case"], True, None)],
    ("okounkov", "case"): [("name", None, ["hirzebruch", "hirzebruch2", "perhaps-useful"],
                            True, None),
                           ("--a", int, None, False, 0), ("--b", int, None, False, 0),
                           ("--k", int, None, False, 0),
                           ("--flag-in-surface", None, None, False, False),
                           ("--csv-samples", int, None, False, 0)],
    ("wps",): [("wps_command", None, ["normalize", "stratum", "index", "base-locus"],
                True, None)],
    ("wps", "normalize"): [_W],
    ("wps", "stratum"): [_W, ("--vanish", cli._indices, None, True, None)],
    ("wps", "index"): [_W, ("--degree", int, None, True, None)],
    ("wps", "base-locus"): [_W, ("--threshold", int, None, True, None),
                            ("--point", int, None, False, None)],
    ("blowup",): [("blowup_command", None, ["build", "intersect", "transform"], True, None)],
    ("blowup", "build"): [_W, ("--r", int, None, True, None)],
    ("blowup", "intersect"): [_W, ("--r", int, None, True, None), ("--k", int, None, True, None)],
    ("blowup", "transform"): [_W, ("--r", int, None, True, None), ("--poly", None, None, True, None)],
}


def _subcommands(parser):
    """The parser's subcommand action, or None for a leaf."""
    return next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)


def _arguments(parser) -> list[tuple]:
    return [(",".join(a.option_strings) or a.dest, a.type,
             None if a.choices is None else list(a.choices), a.required, a.default)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def _parser_at(path: tuple):
    """The parser at ``path`` of a fresh root, built by a ``--help`` parse."""
    parser = cli.build_parser()
    with pytest.raises(cli._Exit):
        parser.parse_args([*path, "--help"])
    for name in path:
        parser = _subcommands(parser).choices[name]
    return parser


def _walk(path=()):
    parser = _parser_at(path)
    yield path, parser
    sub = _subcommands(parser)
    for name in sub.choices if sub else ():
        yield from _walk((*path, name))


def test_parser_surface():
    """All 17 parser paths, their arguments, and a ``--help`` on each that
    returns 0 and names each of the path's options and subcommands."""
    walked = dict(_walk())
    assert len(walked) == 17
    assert {path: _arguments(parser) for path, parser in walked.items()} == _SURFACE
    for path, arguments in _SURFACE.items():
        code, text = _run([*path, "--help"])
        assert code == 0
        assert text.startswith(f"usage: {' '.join(('wfano', *path))} ")
        for name, _, choices, _, _ in arguments:
            for word in [name] if name.startswith("--") else choices:
                assert word in text, (path, word)


def test_help_through_run_writes_to_out(capsys):
    buf = io.StringIO()
    assert run(["certify", "--help"], out=buf) == 0
    assert "--weights WEIGHTS" in buf.getvalue()
    assert capsys.readouterr() == ("", "")


def test_help_from_the_console_exits_0(monkeypatch):
    """``wfano … --help`` prints the same bytes as ``run`` writes, and exits 0."""
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (["--help"], ["wps", "base-locus", "-h"]):
        proc = subprocess.run([sys.executable, "-m", "wfano.cli", *argv], capture_output=True,
                              env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == _run(argv)[1].encode()


def _built(choices) -> list[str]:
    """The names in a subcommand map whose parsers exist; the rest hold builders."""
    return [name for name, entry in choices.items()
            if isinstance(entry, argparse.ArgumentParser)]


def test_run_builds_only_the_subcommand_it_names(monkeypatch):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build_parser()) or built[-1])
    assert _run(["certify", "--weights", "1,1,1,1,2", "--degree", "5"])[0] == 0
    assert _run(["wps", "stratum", "--weights", "1,1,2,2", "--vanish", "0,1"])[0] == 0
    root, wps_root = built
    assert _arguments(root) == _SURFACE[()]
    choices = _subcommands(root).choices
    assert _arguments(choices["certify"]) == _SURFACE[("certify",)]
    assert _built(choices) == ["certify"]
    wps = _subcommands(wps_root).choices["wps"]
    assert _arguments(wps) == _SURFACE[("wps",)]
    nested = _subcommands(wps).choices
    assert _arguments(nested["stratum"]) == _SURFACE[("wps", "stratum")]
    assert _built(nested) == ["stratum"]
    assert all(callable(nested[name]) for name in ("normalize", "index", "base-locus"))


# One successful run per leaf of _SURFACE.
_LEAF_RUNS = [
    ["certify", "--weights", "1,1,1,1,2", "--degree", "5"],
    ["wps", "stratum", "--weights", "1,1,2,2", "--vanish", "0,1"],
    ["blowup", "intersect", "--weights", "2,3,4,4,5", "--r", "2", "--k", "1"],
    ["moments", "table", "--n-max", "3", "--a-max", "2", "--k-max", "2"],
    ["enumerate", "--n", "2", "--max-weight", "4", "--index", "1", "--csv"],
    ["moments", "s-value", "--n", "4", "--a", "2", "--k", "2", "--j", "4", "--q-in-w1"],
    ["okounkov", "case", "hirzebruch", "--a", "2"],
    ["wps", "normalize", "--weights", "2,2,3"],
    ["wps", "index", "--weights", "1,1,1,1,2", "--degree", "5"],
    ["wps", "base-locus", "--weights", "1,1,2,3", "--threshold", "1"],
    ["blowup", "build", "--weights", "2,3,4,4,5", "--r", "2"],
    ["blowup", "transform", "--weights", "3,1,1,1", "--r", "2",
     "--poly", "x3^2*x1^2+x3*x0+x1^4+x2^4"],
]


def _path(argv) -> tuple:
    """The parser path an argv names: its longest prefix in _SURFACE."""
    return max((path for path in _SURFACE if tuple(argv[:len(path)]) == path), key=len)


@pytest.mark.parametrize("argv, parsers", [(argv, len(_path(argv)) + 1) for argv in _LEAF_RUNS])
def test_a_run_constructs_the_root_and_the_named_subtree(monkeypatch, argv, parsers):
    """One parser per level of the path the run names, and none off it."""
    leaves = {path for path in _SURFACE if not any(p[:-1] == path for p in _SURFACE)}
    assert {_path(a) for a in _LEAF_RUNS} == leaves and len(leaves) == len(_LEAF_RUNS)
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert _run(argv)[0] == 0
    assert made == [" ".join(["wfano", *argv[:level]]) for level in range(parsers)]


_CSV_RUNS = [["moments", "table", "--n-max", "3", "--a-max", "2", "--k-max", "2"],
             ["enumerate", "--n", "2", "--max-weight", "4", "--index", "1", "--csv"],
             ["okounkov", "case", "hirzebruch", "--a", "2", "--csv-samples", "4"]]


@pytest.mark.parametrize("argv", _LEAF_RUNS + _CSV_RUNS[2:])
def test_handlers_return_and_only_run_writes(capsys, argv):
    """A handler writes nothing: it returns a table for the three CSV runs
    and a report for every other run, and ``run`` writes either."""
    args = cli.build_parser().parse_args(argv)
    result = args.handler(args)
    if argv in _CSV_RUNS:
        assert isinstance(result, cli._Table)
        list(result.lines)
    else:
        assert isinstance(result, dict) and "schema_version" in result
    assert capsys.readouterr() == ("", "")


def test_each_builder_runs_once_per_parser(monkeypatch):
    """Parsing twice on one root runs each builder on the path once, at
    every level."""
    calls = collections.Counter()
    add_parser = cli._Subcommands.add_parser

    def counted(self, name, *, build, **kwargs):
        def build_counted(parser):
            calls[name] += 1
            build(parser)
        add_parser(self, name, build=build_counted, **kwargs)

    monkeypatch.setattr(cli._Subcommands, "add_parser", counted)
    parser = cli.build_parser()
    for argv in (["certify", "--weights", "1,1,1,1,2", "--degree", "5"],
                 ["wps", "index", "--weights", "1,1,2", "--degree", "4"]):
        assert parser.parse_args(argv) == parser.parse_args(argv)
    assert calls == {"certify": 1, "wps": 1, "index": 1}


# The nested level's usage errors: an unknown, missing or abbreviated
# subcommand, a leaf's missing required options (reported before the unknown
# ``--bogus``) and a mistyped value.
_NESTED_USAGE_ERRORS = [["wps", "frobnicate"], ["wps"], ["blowup", "build", "--bogus"],
                        ["moments", "table", "--n-max", "x"], ["wps", "norm"]]


def test_help_and_usage_error_bytes(monkeypatch):
    """``--help`` and ``-h`` on every parser path, and the nested usage
    errors: (argv, exit code, output) at 80 columns, hashed in order.  The
    same bytes on CPython 3.10 to 3.13."""
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in [[*path, flag] for path in _SURFACE for flag in ("--help", "-h")]:
        code, text = _run(argv)
        digest.update(json.dumps([argv, code, text]).encode())
    for argv in _NESTED_USAGE_ERRORS:
        code, text = _run(argv)
        assert (code, json.loads(text)["error"]["kind"]) == (2, "usage"), argv
        digest.update(json.dumps([argv, code, text]).encode())
    assert digest.hexdigest() == \
        "49790b7cd35ea69068512ee898be096835a1ccf2e7c2e9b344fc59a45b75ac7d"


def test_root_help_is_not_the_module_docstring(monkeypatch):
    """``wfano --help`` prints a description of its own: editing the ``cli``
    module docstring moves no help byte."""
    monkeypatch.setenv("COLUMNS", "80")
    before = [_run([*path, "--help"]) for path in _SURFACE]
    monkeypatch.setattr(cli, "__doc__", "Developer notes.")
    assert [_run([*path, "--help"]) for path in _SURFACE] == before
