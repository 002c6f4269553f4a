"""Seeded inputs and exact output checks for the benchmark's four workloads.

Every check recomputes the expected values on its own from the inputs it
generated, in exact ``Fraction`` arithmetic.  Each operation carries the
exit code a correct program gives: 0 for valid input, 2 for invalid input
(for a direct library call: returns, or raises ``ValueError``).  The known
exit-3 defects (``certify --degree 0``; inhomogeneous polynomials reaching
the missing ``_mono_text`` in ``wpoly``) stay in the invalid share on
purpose, so that their fix shows as a lower failure count.

Workloads that stream requests (``certify_stream``, ``geometry_mix``) build
each pass from a generator seeded by (seed, pass), so passes never repeat an input and
a seed always yields the same stream.  ``sweep`` and ``moments_table`` are
one CLI invocation each; the seed picks its parameters.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

from wfano import blowup as bl
from wfano import convex as cx
from wfano import lattice as la
from wfano import wpoly as wp

SCHEMA = "wfano-certify/1"
ERROR_KINDS = ("usage", "weights", "precondition")

# Sweeps of (nearly) equal cost: the same candidate set, a different index.
SWEEPS = [(3, 14, 1), (3, 14, 2), (3, 14, 3), (3, 14, 4)]
# Moment tables with the same row count and similar Fraction sizes.
TABLES = [(6, 4, 5), (6, 5, 4)]


@dataclass
class Op:
    """One request: a CLI argv, or a direct call into the library."""

    kind: str
    expect: int                                 # 0 valid, 2 invalid
    check: Callable[[object], bool]             # output text or return value
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None
    items: int = 1                              # work units when it succeeds


@dataclass
class Workload:
    name: str
    ops: Callable[[int], list[Op]]              # pass index -> that pass's ops
    repeats: bool                               # every pass runs the same ops


def make(name: str, seed: int, pass_size: int = 200) -> Workload:
    """The named workload for ``seed``; ``pass_size`` ops per streamed pass."""
    if name == "certify_stream":
        return Workload(name, lambda i: _stream(_CERTIFY_PLAN, seed, i, pass_size), False)
    if name == "geometry_mix":
        return Workload(name, lambda i: _stream(_GEOMETRY_PLAN, seed, i, pass_size), False)
    if name == "sweep":
        op = sweep_op(*random.Random(seed).choice(SWEEPS))
        return Workload(name, lambda i: [op], True)
    if name == "moments_table":
        op = table_op(*random.Random(seed).choice(TABLES))
        return Workload(name, lambda i: [op], True)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("certify_stream", "sweep", "moments_table", "geometry_mix")


def _stream(plan, seed: int, index: int, size: int) -> list[Op]:
    """One pass: a fixed share of each kind in ``plan``, seeded and shuffled."""
    rng = random.Random(seed * 1_000_003 + index)
    total = sum(share for _, share in plan)
    kinds = []
    for make_op, share in plan:
        kinds += [make_op] * max(1, round(size * share / total))
    rng.shuffle(kinds)
    return [make_op(rng) for make_op in kinds]


# ---------------------------------------------------------------------------
# independent arithmetic used by the checks


def _gcd(xs) -> int:
    return math.gcd(*xs)


def _well_formed(w) -> bool:
    return all(_gcd(w[:i] + w[i + 1:]) == 1 for i in range(len(w)))


def _reduce(w) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """(g_i, g, a_i g_i / g): one well-formedness pass, as in the paper."""
    if len(w) == 1:
        return (1,), 1, (1,)
    gi = tuple(_gcd(w[:i] + w[i + 1:]) for i in range(len(w)))
    g = math.prod(gi)
    return gi, g, tuple(a * x // g for a, x in zip(w, gi))


def _representable(d: int, parts) -> bool:
    reach = {0}
    for v in range(1, d + 1):
        if any(v - p in reach for p in parts):
            reach.add(v)
    return d in reach


def _b1_derived(w, d) -> str:
    """Weight-one base-locus containment as the engine's docstring states it."""
    n = len(w) - 2
    c1 = w.count(1)
    big = [a for a in w if a > 1]
    no = n + 1 >= 2 * c1 or any(d % a != 1 for a in big)
    yes = not _representable(d, big)
    if yes and no:
        return "contradiction"
    return "yes" if yes else "no" if no else "unknown"


def _eckardt_k(w, d) -> Optional[int]:
    """k with d = a k + 1 when the datum has the shape (1^(n+1), a), else None."""
    s = sorted(w)
    a = s[-1]
    if a < 2 or any(x != 1 for x in s[:-1]) or d % a != 1 or d < a + 1:
        return None
    return (d - 1) // a


def _weights_text(w, rng) -> str:
    if rng.random() < 0.5:
        return ",".join(map(str, w))
    runs = [(v, len(list(g))) for v, g in itertools.groupby(w)]
    return "P(" + ",".join(f"{v}^{c}" if c > 1 else str(v) for v, c in runs) + ")"


def _json(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def check_error(text) -> bool:
    rep = _json(text)
    return (isinstance(rep, dict) and set(rep) == {"schema_version", "error"}
            and rep["schema_version"] == SCHEMA
            and rep["error"].get("kind") in ERROR_KINDS
            and isinstance(rep["error"].get("message"), str)
            and bool(rep["error"]["message"]))


def _report(text, command: str):
    rep = _json(text)
    if (isinstance(rep, dict) and rep.get("schema_version") == SCHEMA
            and rep.get("command") == command):
        return rep["outputs"]
    return None


def _verdict(anti: F, anti_upper: Optional[F], strict: bool) -> str:
    if anti_upper is not None and anti_upper < 1:
        return "K-unstable"
    if anti > 1 or (anti == 1 and strict):
        return "K-stable"
    return "inconclusive"


# ---------------------------------------------------------------------------
# certify_stream


def check_certificate(text, w, d) -> bool:
    rep = _json(text)
    if not (isinstance(rep, dict) and rep.get("schema_version") == SCHEMA
            and rep.get("command") == "certify" and isinstance(rep.get("trace"), list)):
        return False
    o = rep["outputs"]
    idx = sum(w) - d
    if o["index"] != idx or rep["inputs"]["index"] != idx or o["polarization"] != "O(1)":
        return False
    bound = F(o["bound"])
    anti = F(o["anticanonical_bound"])
    if anti != bound / idx:
        return False
    anti_upper = None
    if o["upper"] is None:
        if o["anticanonical_upper"] is not None:
            return False
    else:
        upper = F(o["upper"])
        anti_upper = F(o["anticanonical_upper"])
        if anti_upper != upper / idx or bound > upper:
            return False
    return o["verdict"] == _verdict(anti, anti_upper, o["strict"])


def _cli_error(kind: str, argv: list[str]) -> Op:
    return Op(kind, 2, check_error, argv=argv)


def _certify_error(argv: list[str]) -> Op:
    """A rejected certify request: correct when refused, but no certificate."""
    return Op("certify", 2, check_error, argv=argv, items=0)


def _shape(rng, kind: str) -> list[int]:
    if kind == "one":
        return [1] * (rng.randint(2, 20) + 1) + [rng.randint(2, 12)]
    if kind == "two":
        a = rng.randint(2, 9)
        return [1] * rng.randint(2, 20) + [a, rng.randint(a, 13)]
    while True:
        w = [rng.randint(1, 12) for _ in range(rng.randint(4, 7))]
        if _gcd(w) == 1 and _well_formed(w):
            return w


def _certify_valid(kind: str):
    def make_op(rng) -> Op:
        w = _shape(rng, kind)
        total = sum(w)
        a = max(w)
        if kind == "one" and rng.random() < 0.6:
            d = a * rng.randint(1, (total - 2) // a) + 1
        else:
            d = total - min(rng.choice([1, 1, 1, 2, 3, 4]), total - 1)
        k = _eckardt_k(w, d)
        eckardt = rng.random() < 0.5
        m = None
        if eckardt and k is not None:
            m = rng.choice([None, k])
        elif rng.random() < 0.3:
            m = rng.randint(1, 4)
        derived = _b1_derived(w, d)
        b1 = rng.choice(["yes", "no", "unknown"])
        if derived in ("yes", "no") and b1 != "unknown":
            b1 = derived
        argv = ["certify", "--weights", _weights_text(w, rng), "--degree", str(d)]
        argv += ["--eckardt"] * eckardt + (["--m", str(m)] if m else [])
        argv += ["--general"] * (rng.random() < 0.5) + ["--b1", b1]
        return Op("certify", 0, lambda text: check_certificate(text, w, d), argv=argv)
    return make_op


def _certify_non_fano(rng) -> Op:
    w = _shape(rng, rng.choice(["one", "two", "general"]))
    d = sum(w) + rng.randint(0, 5)
    return _certify_error(["certify", "--weights", ",".join(map(str, w)),
                                  "--degree", str(d)])


def _certify_eckardt_m(rng) -> Op:
    n, a = rng.randint(2, 20), rng.randint(2, 12)
    w = [1] * (n + 1) + [a]
    k = rng.randint(1, (sum(w) - 2) // a)
    return _certify_error(["certify", "--weights", _weights_text(w, rng),
                                  "--degree", str(a * k + 1), "--eckardt",
                                  "--m", str(k + rng.randint(1, 3))])


def _certify_b1(rng) -> Op:
    n, a = rng.randint(2, 20), rng.randint(2, 12)
    w = [1] * (n + 1) + [a]
    if rng.random() < 0.5:
        d, b1 = a * rng.randint(1, (sum(w) - 2) // a) + 1, "no"
    else:
        d, b1 = a * rng.randint(1, (sum(w) - 1) // a), "yes"
    return _certify_error(["certify", "--weights", ",".join(map(str, w)),
                                  "--degree", str(d), "--b1", b1])


def _certify_degree_zero(rng) -> Op:
    w = _shape(rng, rng.choice(["one", "two", "general"]))
    return _certify_error(["certify", "--weights", ",".join(map(str, w)),
                                  "--degree", "0"])


def _certify_malformed(rng) -> Op:
    a, n = rng.randint(2, 9), rng.randint(2, 6)
    text = rng.choice([f"1,1,{'xyz'[a % 3]}", f"P(1^0,{a})", f"{a},,1,1",
                       f"P(1^{n},{a}", f"1,1,-{a}", f"{a}.5,1,1", ""])
    return _certify_error(["certify", "--weights", text, "--degree", str(a + n)])


def _certify_gcd(rng) -> Op:
    g = rng.randint(2, 5)
    w = [g * rng.randint(1, 6) for _ in range(rng.randint(3, 6))]
    return _certify_error(["certify", "--weights", ",".join(map(str, w)),
                                  "--degree", str(max(1, sum(w) - g))])


def _certify_not_well_formed(rng) -> Op:
    p = rng.randint(2, 5)
    w = [1] + [p * rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
    return _certify_error(["certify", "--weights", ",".join(map(str, w)),
                                  "--degree", str(sum(w) - 1)])


def _certify_usage(rng) -> Op:
    n = rng.randint(2, 8)
    base = ["certify", "--weights", f"P(1^{n + 1},2)"]
    return _certify_error(rng.choice([
        base + ["--degree", str(n + 2), "--b1", "maybe"],
        base + ["--degree", "five"],
        base,
        base + ["--degree", str(n + 2), "--eckhardt"],
    ]))


# 80% valid; the eight invalid classes share the rest equally.
_CERTIFY_PLAN = [
    (_certify_valid("one"), 32), (_certify_valid("two"), 24), (_certify_valid("general"), 24),
    (_certify_non_fano, 2.5), (_certify_eckardt_m, 2.5), (_certify_b1, 2.5),
    (_certify_degree_zero, 2.5), (_certify_malformed, 2.5), (_certify_gcd, 2.5),
    (_certify_not_well_formed, 2.5), (_certify_usage, 2.5),
]


# ---------------------------------------------------------------------------
# sweep


def sweep_candidates(n: int, max_weight: int) -> int:
    """Ascending gcd-1 weight tuples of length n+2 with entries <= max_weight."""
    return sum(1 for t in itertools.combinations_with_replacement(
        range(1, max_weight + 1), n + 2) if _gcd(t) == 1)


SWEEP_HEADER = ["weights", "degree", "index", "bound", "anticanonical_bound",
                "upper", "verdict", "rules"]


def check_sweep(text, n: int, max_weight: int, index: int) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER or len(rows) < 2:
        return False
    previous = ()
    for row in rows[1:]:
        if len(row) != len(SWEEP_HEADER):
            return False
        weights, degree, idx, bound, anti, upper, verdict, _ = row
        w = tuple(int(x) for x in weights.split(","))
        d, idx = int(degree), int(idx)
        if (len(w) != n + 2 or list(w) != sorted(w) or w[-1] > max_weight
                or w <= previous or _gcd(w) != 1 or not _well_formed(w)):
            return False
        previous = w
        if idx != index or idx != sum(w) - d:
            return False
        bound, anti = F(bound), F(anti)
        if anti != bound / idx:
            return False
        anti_upper = None
        if upper:
            if bound > F(upper):
                return False
            anti_upper = F(upper) / idx
        # the CSV drops the strict flag, so either reading of a bound of 1 passes
        if verdict not in (_verdict(anti, anti_upper, False), _verdict(anti, anti_upper, True)):
            return False
    return True


def sweep_op(n: int, max_weight: int, index: int) -> Op:
    argv = ["enumerate", "--n", str(n), "--max-weight", str(max_weight),
            "--index", str(index), "--eckardt", "--general", "--csv"]
    return Op("enumerate", 0, lambda text: check_sweep(text, n, max_weight, index),
              argv=argv, items=sweep_candidates(n, max_weight))


# ---------------------------------------------------------------------------
# moments_table


def s_closed_form(n: int, a: int, k: int, j: int, q: bool) -> F:
    """The paper's S-values along the flag through the exceptional divisor."""
    if j == 1:
        return F(a * k + n, a * (n + 1))
    if j == n and q:
        return F(2 * a * k + 1, (a * k + 1) * (n + 1))
    return F(1, n + 1)


TABLE_HEADER = ["n", "a", "k", "j", "q_in_W1", "S", "closed_form", "match"]


def table_rows(n_max: int, a_max: int, k_max: int) -> list[list[str]]:
    return [[str(n), str(a), str(k), str(j), str(q), str(s), str(s), "True"]
            for n in range(2, n_max + 1) for a in range(1, a_max + 1)
            for k in range(1, k_max + 1) for j in range(1, n + 1)
            for q in (False, True) for s in (s_closed_form(n, a, k, j, q),)]


def check_table(text, n_max: int, a_max: int, k_max: int) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    return bool(rows) and rows[0] == TABLE_HEADER and rows[1:] == table_rows(n_max, a_max, k_max)


def table_op(n_max: int, a_max: int, k_max: int) -> Op:
    argv = ["moments", "table", "--n-max", str(n_max), "--a-max", str(a_max),
            "--k-max", str(k_max)]
    return Op("moments table", 0, lambda text: check_table(text, n_max, a_max, k_max),
              argv=argv, items=len(table_rows(n_max, a_max, k_max)))


# ---------------------------------------------------------------------------
# geometry_mix: CLI requests


def _wf_weights(rng, lo: int, hi: int, top: int) -> list[int]:
    while True:
        w = [rng.randint(1, top) for _ in range(rng.randint(lo, hi))]
        if _gcd(w) == 1 and _well_formed(w):
            return w


def _wtext(w) -> str:
    return ",".join(map(str, w))


def _wps_normalize(rng) -> Op:
    while True:
        w = [rng.randint(1, 24) for _ in range(rng.randint(3, 6))]
        if _gcd(w) == 1:
            break

    def check(text):
        o = _report(text, "wps normalize")
        if o is None:
            return False
        gi, g, reduced = _reduce(w)
        out = tuple(int(x) for x in o["weights"].split(","))
        return (out == reduced and tuple(o["g_i"]) == gi and o["g"] == g
                and math.prod(w) == g ** (len(w) - 1) * math.prod(out)
                and _well_formed(out) and o["well_formed_input"] == _well_formed(w))
    return Op("wps normalize", 0, check, argv=["wps", "normalize", "--weights", _wtext(w)])


def _stratum_expect(w, vanish):
    kept = [w[i] for i in range(len(w)) if i not in vanish]
    h = _gcd(kept)
    _, g, reduced = _reduce([x // h for x in kept])
    return kept, h, g, reduced


def _wps_stratum(rng) -> Op:
    w = _wf_weights(rng, 3, 6, 12)
    vanish = sorted(rng.sample(range(len(w)), rng.randint(1, len(w) - 2)))
    kept, h, g, reduced = _stratum_expect(w, vanish)
    dim = len(kept) - 1

    def check(text):
        o = _report(text, "wps stratum")
        if o is None:
            return False
        q = tuple(int(x) for x in o["quotient_weights"].split(","))
        scale = F(o["scale"])
        return (q == reduced and scale == F(1, g * h) and o["mult"] == h
                and o["dimension"] == dim
                and scale ** dim / math.prod(q) == F(h, math.prod(kept)))
    return Op("wps stratum", 0, check, argv=["wps", "stratum", "--weights", _wtext(w),
                                              "--vanish", _wtext(vanish)])


def _wps_base_locus(rng) -> Op:
    w = _wf_weights(rng, 3, 6, 12)
    t = rng.randint(1, max(w))
    p = rng.choice([None, rng.randrange(len(w))])
    vanish = [i for i in range(len(w)) if w[i] <= t and i != p]
    dim = len(w) - len(vanish) - 1

    def check(text):
        o = _report(text, "wps base-locus")
        if o is None or o["vanishing"] != vanish or o["dimension"] != dim:
            return False
        if o["is_empty"] != (dim < 0):
            return False
        if dim < 1:
            return o["quotient_weights"] is None and o["scale"] is None
        _, h, g, reduced = _stratum_expect(w, vanish)
        return o["quotient_weights"] == _wtext(reduced) and F(o["scale"]) == F(1, g * h)
    argv = ["wps", "base-locus", "--weights", _wtext(w), "--threshold", str(t)]
    return Op("wps base-locus", 0, check, argv=argv + (["--point", str(p)] if p is not None else []))


def _wps_index(rng) -> Op:
    w = _wf_weights(rng, 3, 7, 12)
    d = rng.randint(1, sum(w) + 3)

    def check(text):
        o = _report(text, "wps index")
        return o is not None and o["index"] == sum(w) - d and o["fano"] == (sum(w) > d)
    return Op("wps index", 0, check, argv=["wps", "index", "--weights", _wtext(w),
                                            "--degree", str(d)])


def _blocks(w, r):
    left, right = w[: r + 1], w[r + 1:]
    return _gcd(left), _gcd(right), left, right


def _blowup_build(rng) -> Op:
    w = _wf_weights(rng, 3, 6, 10)
    r = rng.randint(1, len(w) - 2)
    h, hp, left, right = _blocks(w, r)

    def check(text):
        o = _report(text, "blowup build")
        if o is None:
            return False
        fr = o["frame"]
        k, kp = fr["bezout"]
        _, g, ap_l = _reduce([x // h for x in left])
        _, gp, ap_r = _reduce([x // hp for x in right])
        return (fr["h"] == h and fr["hp"] == hp and hp * k - h * kp == 1
                and fr["g"] == g and fr["gp"] == gp and fr["ap"] == list(ap_l + ap_r)
                and o["exceptional_class"] == [-hp, h]
                and o["exceptional_product"]["self_restriction"] == [str(F(-hp, g)), str(F(h, gp))]
                and o["psi_pullback_o1"] == ["0", str(F(1, hp))]
                and o["pi_pullback_o1"] == [str(g), "0"])
    return Op("blowup build", 0, check, argv=["blowup", "build", "--weights", _wtext(w),
                                               "--r", str(r)])


def _blowup_intersect(rng) -> Op:
    w = _wf_weights(rng, 3, 6, 10)
    s = len(w) - 1
    r = rng.randint(1, s - 1)
    k = rng.randint(0, s)
    h, hp, _, _ = _blocks(w, r)
    value = F(h ** k * hp ** (s - k), math.prod(w)) if k <= r else F(0)

    def check(text):
        o = _report(text, "blowup intersect")
        return o is not None and F(o["value"]) == value
    return Op("blowup intersect", 0, check, argv=["blowup", "intersect", "--weights", _wtext(w),
                                                   "--r", str(r), "--k", str(k)])


def _monomials(w, d) -> list[tuple[int, ...]]:
    out = []

    def rec(i, rem, exps):
        if i == len(w) - 1:
            if rem % w[i] == 0:
                out.append(tuple(exps + [rem // w[i]]))
            return
        for e in range(rem // w[i] + 1):
            rec(i + 1, rem - e * w[i], exps + [e])
    rec(0, d, [])
    return out


def _poly_text(terms: dict) -> str:
    parts = []
    for exps, c in terms.items():
        factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e]
        mono = "*".join([str(abs(c))] * (abs(c) != 1 or not factors) + factors)
        parts.append(("-" if c < 0 else "+") + mono)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def _homogeneous(rng, w, d, count: int, must=()) -> dict:
    monos = _monomials(w, d)
    chosen = set(must) | set(rng.sample(monos, min(count, len(monos))))
    return {m: rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 7]) for m in sorted(chosen)}


def _small_wf(rng) -> tuple[list[int], int]:
    """Small well-formed weights and a degree with at least two monomials."""
    while True:
        w = _wf_weights(rng, 3, 5, 5)
        d = rng.randint(max(w), 3 * max(w))
        if len(_monomials(w, d)) >= 2:
            return w, d


def _blowup_transform(rng) -> Op:
    w, d = _small_wf(rng)
    s = len(w) - 1
    r = rng.randint(1, s - 1)
    terms = _homogeneous(rng, w, d, rng.randint(2, 5))
    h, hp, _, _ = _blocks(w, r)
    app = [x // h for x in w[: r + 1]] + [x // hp for x in w[r + 1:]]
    di = {e: sum(app[i] * e[i] for i in range(r + 1)) for e in terms}
    dj = {e: sum(app[j] * e[j] for j in range(r + 1, s + 1)) for e in terms}
    d0, d0p = min(di.values()), max(dj.values())
    expected = sorted([list(e) + [(di[e] - d0) // hp], str(F(c))] for e, c in terms.items())

    def check(text):
        o = _report(text, "blowup transform")
        return (o is not None and o["bidegree"] == [d0, d0p] and h * d0 + hp * d0p == d
                and sorted(o["terms"]) == expected)
    return Op("blowup transform", 0, check,
              argv=["blowup", "transform", "--weights", _wtext(w), "--r", str(r),
                    f"--poly={_poly_text(terms)}"])


def _sliced_moments(body) -> tuple[F, F, F]:
    """(area, first moment in x, first moment in y) of a sliced body."""
    area = mx = my = F(0)
    bps = [F(x) for x in body["breakpoints"]]
    for (m, c), lo, hi in zip(body["pieces"], bps, bps[1:]):
        m, c = F(m), F(c)
        area += m * (hi ** 2 - lo ** 2) / 2 + c * (hi - lo)
        mx += m * (hi ** 3 - lo ** 3) / 3 + c * (hi ** 2 - lo ** 2) / 2
        my += (m * m * (hi ** 3 - lo ** 3) / 3 + m * c * (hi ** 2 - lo ** 2)
               + c * c * (hi - lo)) / 2
    return area, mx, my


def _okounkov(rng) -> Op:
    case = rng.choice(["hirzebruch", "hirzebruch2", "perhaps-useful"])
    argv = ["okounkov", "case", case, "--a", str(rng.randint(1, 8))]
    if case == "perhaps-useful":
        argv = ["okounkov", "case", case, "--a", str(rng.randint(1, 4)),
                "--b", str(rng.randint(1, 4)), "--k", str(rng.randint(2, 5))]
        argv += ["--flag-in-surface"] * (rng.random() < 0.5)

    def check(text):
        o = _report(text, "okounkov case")
        if o is None:
            return False
        area, mx, my = _sliced_moments(o["body"])
        return (area > 0 and F(o["area"]) == area and F(o["L2"]) == 2 * area
                and F(o["s_value"]) == mx / area and F(o["second_coordinate"]) == my / area
                and F(o["t_max"]) == F(o["body"]["breakpoints"][-1]))
    return Op("okounkov case", 0, check, argv=argv)


def _s_value(rng) -> Op:
    n, a, k = rng.randint(2, 10), rng.randint(1, 6), rng.randint(1, 6)
    j = rng.randint(1, n)
    q = rng.random() < 0.5
    expected = str(s_closed_form(n, a, k, j, q))

    def check(text):
        o = _report(text, "moments s-value")
        return (o is not None and o["s_value"] == expected
                and o["closed_form"] == expected and o["match"] is True)
    argv = ["moments", "s-value", "--n", str(n), "--a", str(a), "--k", str(k), "--j", str(j)]
    return Op("moments s-value", 0, check, argv=argv + ["--q-in-w1"] * q)


# geometry_mix: invalid CLI requests


def _bad_transform(rng) -> Op:
    """Inhomogeneous polynomial: exit 2 by contract, exit 3 while
    ``wpoly.SparseWPoly.from_dict`` names the undefined ``_mono_text``."""
    while True:
        w = _wf_weights(rng, 3, 5, 5)
        if len(set(w)) > 1:
            break
    i, j = w.index(min(w)), w.index(max(w))
    poly = f"x{i}^{max(w)}+x{j}^{min(w) + 1}" if rng.random() < 0.5 else f"x{i}+x{j}"
    return _cli_error("blowup transform", ["blowup", "transform", "--weights", _wtext(w),
                                           "--r", "1", f"--poly={poly}"])


def _bad_stratum(rng) -> Op:
    w = _wf_weights(rng, 3, 6, 12)
    vanish = rng.sample(range(len(w)), len(w) - 1)
    return _cli_error("wps stratum", ["wps", "stratum", "--weights", _wtext(w),
                                      "--vanish", _wtext(vanish)])


def _bad_build(rng) -> Op:
    w = _wf_weights(rng, 3, 6, 10)
    r = rng.choice([0, len(w) - 1])
    return _cli_error("blowup build", ["blowup", "build", "--weights", _wtext(w), "--r", str(r)])


def _bad_s_value(rng) -> Op:
    n = rng.randint(2, 8)
    return _cli_error("moments s-value", ["moments", "s-value", "--n", str(n), "--a", "2",
                                          "--k", "2", "--j", str(n + rng.randint(1, 3))])


def _bad_okounkov(rng) -> Op:
    return _cli_error("okounkov case", rng.choice([
        ["okounkov", "case", "hirzebruch", "--a", "0"],
        ["okounkov", "case", "perhaps-useful", "--a", "1", "--b", "1", "--k", "1"],
        ["okounkov", "case", "hirzebruch3", "--a", "2"],
    ]))


# geometry_mix: direct calls that no CLI path reaches


def _direct(kind: str, call, check, expect: int = 0) -> Op:
    return Op(kind, expect, check, call=call)


def _zariski_ok(m, cls, dec) -> bool:
    n = len(m)
    pos, neg = dec.positive, dec.negative
    return (all(pos[i] + neg[i] == cls[i] for i in range(n))
            and all(x >= 0 for x in neg)
            and all(sum(pos[i] * m[i][j] for i in range(n)) >= 0 for j in range(n))
            and sum(pos[i] * m[i][j] * neg[j] for i in range(n) for j in range(n)) == 0)


def _zariski(rng) -> Op:
    if rng.random() < 0.5:
        a, b, k = rng.randint(1, 4), rng.randint(1, 3), rng.randint(2, 4)
        m = [[F(-a * b), F(1), F(a - 1)], [F(1), F(-k), F(k)], [F(a - 1), F(k), F(0)]]
        cls = [F(1, b), 1 - rng.choice([F(1, 4), F(1, 2), F(3, 4), F(1)]), F(1)]
    else:
        a, k = rng.randint(2, 4), rng.randint(1, 3)
        e = 1 + a * k
        m = [[F(-a), F(e)], [F(e), F(-k * e)]]
        x = F(1, a) + F(rng.randint(1, a * k), a) * F(rng.randint(1, 4), 4)
        cls = [k + F(1, a) - x, F(1)]
    return _direct("convex.zariski_decompose", lambda: cx.zariski_decompose(m, cls),
                   lambda dec: _zariski_ok(m, cls, dec))


def _zariski_not_pe(rng) -> Op:
    c = rng.randint(1, 4)
    m = [[0, c], [c, 0]]
    cls = [rng.randint(1, 5), -rng.randint(1, 5)]
    return _direct("convex.zariski_decompose", lambda: cx.zariski_decompose(m, cls),
                   lambda exc: isinstance(exc, cx.NotPseudoEffectiveError), expect=2)


def _polygon_moments(vertices) -> tuple[F, tuple[F, F]]:
    v = [(F(x), F(y)) for x, y in vertices]
    cross = [(v[i][0] * v[i - len(v) + 1][1] - v[i - len(v) + 1][0] * v[i][1], i)
             for i in range(len(v))]
    area = sum(c for c, _ in cross) / 2
    cx_ = sum((v[i][0] + v[i - len(v) + 1][0]) * c for c, i in cross) / (6 * area)
    cy_ = sum((v[i][1] + v[i - len(v) + 1][1]) * c for c, i in cross) / (6 * area)
    return area, (cx_, cy_)


def _gravity(rng) -> Op:
    c1 = F(rng.randint(1, 6), rng.randint(1, 3))
    c0 = F(rng.randint(0, 4), 2)
    c2 = c0 + F(rng.randint(1, 6), rng.randint(1, 3))
    v = c1 * (c0 + c2) / 2 * (1 + F(rng.randint(1, 8), 4))

    def call():
        gb = cx.gravity_bounds(cx.GravityInput(c0=c0, c1=c1, c2=c2, V=v))
        return gb, cx.barycenter(gb.extremal)

    def check(result):
        gb, (centroid, area) = result
        own_area, own_centroid = _polygon_moments(gb.extremal.vertices)
        return (own_area == v == area and own_centroid == centroid
                and own_centroid == (gb.b1_max, gb.b2_max))
    return _direct("convex.gravity_bounds", call, check)


def _gravity_invalid(rng) -> Op:
    c0 = F(rng.randint(2, 6))
    return _direct("convex.gravity_bounds",
                   lambda: cx.gravity_bounds(cx.GravityInput(c0=c0, c1=1, c2=c0 - 1, V=10)),
                   lambda exc: isinstance(exc, ValueError), expect=2)


def _delta_gravity(rng) -> Op:
    a = rng.randint(1, 6)
    A = F(2, a)
    d_list = rng.choice([(), (F(1, 2),), (F(1, 3), F(1, 4))])
    eps = F(1, rng.randint(1, 6))
    dc = sum(d_list, F(0))
    l2 = eps * eps * (2 - dc) / A * (1 + F(rng.randint(0, 8), 4))
    term1 = 3 * eps * (2 - dc) / (eps * eps * (2 - dc) / A + l2)
    term2 = 3 * eps * (1 - max(d_list, default=F(0))) / l2

    def check(res):
        return (res.term_flag_curve == term1 and res.term_point == term2
                and res.bound == min(term1, term2))
    return _direct("convex.delta_lower_gravity",
                   lambda: cx.delta_lower_gravity(cx.SurfaceLocalData(A=A, d_list=d_list,
                                                                      eps=eps, L2=l2)),
                   check)


def _coordinate_verdicts(w, d, terms) -> dict:
    out = {}
    for i in range(len(w)):
        pure = tuple(d // w[i] if t == i else 0 for t in range(len(w)))
        if d % w[i] == 0 and pure in terms:
            out[i] = ("not_on_hypersurface", None)
            continue
        out[i] = ("not_quasi_smooth", None)
        for j in range(len(w)):
            if j != i and d >= w[j] and (d - w[j]) % w[i] == 0:
                e = [0] * len(w)
                e[i] = (d - w[j]) // w[i]
                e[j] += 1
                if tuple(e) in terms:
                    out[i] = ("quasi_smooth", j)
                    break
    return out


def _qsm_coordinate(rng) -> Op:
    w, d = _small_wf(rng)
    terms = _homogeneous(rng, w, d, rng.randint(2, 6))
    text = _poly_text(terms)
    expected = _coordinate_verdicts(w, d, terms)
    return _direct("wpoly.qsm_at_coordinate_points",
                   lambda: wp.qsm_at_coordinate_points(wp.parse(text, la.WeightVector(w))),
                   lambda rep: rep == expected)


def _qsm_point(rng) -> Op:
    while True:
        w, d = _small_wf(rng)
        i = rng.randrange(len(w))
        pure = tuple(d // w[i] if t == i else 0 for t in range(len(w)))
        monos = [m for m in _monomials(w, d) if m != pure]
        if len(monos) >= 2:
            break
    terms = {m: rng.choice([-2, -1, 1, 3]) for m in rng.sample(monos, min(4, len(monos)))}
    text = _poly_text(terms)
    verdict, witness = _coordinate_verdicts(w, d, terms)[i]
    point = [int(t == i) for t in range(len(w))]

    def check(rep):
        return rep.quasi_smooth == (verdict == "quasi_smooth") and rep.witness == witness
    return _direct("wpoly.qsm_at_point",
                   lambda: wp.qsm_at_point(wp.parse(text, la.WeightVector(w)), point), check)


def _eckardt(rng) -> Op:
    n, a, k = rng.randint(2, 4), rng.randint(2, 3), rng.randint(1, 3)
    m = rng.randint(1, k)
    w = [1] * (n + 1) + [a]
    y = n + 1
    terms = {tuple(1 if i == 0 else k if i == y else 0 for i in range(n + 2)): F(1)}
    for t in range(1, k + 1):
        monos = [e for e in _monomials([1] * (n + 1), a * t + 1) if t != m or e[0] == 0]
        if t < m:
            monos = [e for e in monos if e[0] > 0]
        for e in rng.sample(monos, min(2, len(monos))):
            terms[e + (k - t,)] = F(rng.choice([-2, 1, 3]))
    text = _poly_text(terms)
    return _direct("wpoly.eckardt_analyze",
                   lambda: wp.eckardt_analyze(wp.parse(text, la.WeightVector(w))),
                   lambda res: (getattr(res, "a", None), getattr(res, "k", None),
                                getattr(res, "m", None)) == (a, k, m))


def _restrict(rng) -> Op:
    while True:
        w, d = _small_wf(rng)
        i = rng.randrange(len(w))
        rest = w[:i] + w[i + 1:]
        free = [e for e in _monomials(w, d) if e[i] == 0]
        if free and _gcd(rest) == 1 and _well_formed(rest):
            break
    terms = _homogeneous(rng, w, d, rng.randint(1, 4), must=[rng.choice(free)])
    text = _poly_text(terms)
    expected = sorted((e[:i] + e[i + 1:], F(c)) for e, c in terms.items() if e[i] == 0)

    def check(g):
        return (tuple(g.ambient.weights) == tuple(rest) and g.degree == d
                and sorted(g.terms) == expected)
    return _direct("wpoly.restrict",
                   lambda: wp.restrict(wp.parse(text, la.WeightVector(w)), i), check)


def _restrict_divisor(rng) -> Op:
    w = _wf_weights(rng, 4, 6, 10)
    s = len(w) - 1
    r = rng.randint(1, s - 1)
    i = rng.choice([0, s])
    h, hp, left, right = _blocks(w, r)
    gi = _reduce([x // h for x in left])[0] + _reduce([x // hp for x in right])[0]
    iso = r == 1 if i == 0 else r == s - 1

    def check(res):
        return (res.index == i and res.exc_coefficient == F(1, gi[i]) and res.iso == iso
                and res.section == (iso and i == s) and (res.frame is None) == iso)
    return _direct("blowup.restrict_to_divisor",
                   lambda: bl.restrict_to_divisor(bl.build(la.WeightVector(w), r), i), check)


def _finite_cover(rng) -> Op:
    w = _wf_weights(rng, 3, 6, 12)
    r = rng.randint(1, len(w) - 2)
    e = list(w)
    divisors = [rng.choice([x for x in range(1, a + 1) if a % x == 0]) for a in w]
    bar = [a // x for a, x in zip(w, divisors)]
    if _gcd(bar) == 1 and _well_formed(bar):
        e = divisors
    bar = [a // x for a, x in zip(w, e)]
    h, hp, _, _ = _blocks(w, r)
    hb, hpb, _, _ = _blocks(bar, r)

    def check(cov):
        return cov.degree == math.prod(e) and cov.scaling == (F(h, hb), F(hp, hpb))
    return _direct("blowup.finite_cover_pull",
                   lambda: bl.finite_cover_pull(bl.build(la.WeightVector(w), r), e), check)


def _mult_oracle(rng) -> Op:
    w = _wf_weights(rng, 3, 6, 12)
    vanish = rng.sample(range(len(w)), rng.randint(1, len(w) - 2))
    h = _gcd([w[i] for i in range(len(w)) if i not in vanish])
    return _direct("lattice.stratum_mult_oracle",
                   lambda: la.stratum_mult_oracle(la.WeightVector(w), vanish),
                   lambda mult: mult == h)


def _top_intersection(rng) -> Op:
    w = _wf_weights(rng, 3, 7, 12)
    return _direct("lattice.top_intersection",
                   lambda: la.top_intersection(la.WeightVector(w)),
                   lambda value: value == F(1, math.prod(w)))


# 85% valid (55% CLI, 30% direct calls), 15% invalid.
_GEOMETRY_PLAN = [
    (_wps_normalize, 6), (_wps_stratum, 6), (_wps_base_locus, 6), (_wps_index, 6),
    (_blowup_build, 6), (_blowup_intersect, 6), (_blowup_transform, 7), (_okounkov, 6),
    (_s_value, 6),
    (_zariski, 4), (_gravity, 3), (_delta_gravity, 3), (_qsm_coordinate, 3), (_qsm_point, 2),
    (_eckardt, 3), (_restrict, 3), (_restrict_divisor, 3), (_finite_cover, 2),
    (_mult_oracle, 2), (_top_intersection, 2),
    (_bad_transform, 3), (_bad_stratum, 2), (_bad_build, 2), (_bad_s_value, 2),
    (_bad_okounkov, 2), (_zariski_not_pe, 2), (_gravity_invalid, 2),
]
