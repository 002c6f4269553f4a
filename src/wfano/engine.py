"""Rule-based lower-bound certificates for stability thresholds.

Input is a Fano datum: an ambient weight vector, a degree, and structural
flags (all geometric hypotheses such as quasi-smoothness, a generalized
Eckardt vertex, or generality of the member are caller-asserted and
recorded).  The engine fires every rule whose hypotheses re-validate
against the datum, combines the resulting bounds (maximum of lower bounds,
local bounds combined over a vertex/away split), converts between the O(1)
and anticanonical polarizations exactly, and emits a full audit trace.

External inputs from the literature are separate rules tagged EXTERNAL and
carry their own citation strings; they are never merged silently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .lattice import WeightVector, fano_index
from .moments import delta_eckardt, unstable_check
from .schema import SCHEMA_VERSION  # noqa: F401  (re-exported)


class NonFanoError(ValueError):
    """The datum has nonpositive index, so no verdict is possible."""


class ContradictoryFlagsError(ValueError):
    """Asserted flags force an empty family or contradictory bounds."""


@dataclass(frozen=True)
class Flags:
    """Caller-asserted structural information about the member."""

    quasi_smooth: bool = True
    eckardt_at_p: Optional[bool] = None
    m: Optional[int] = None
    b1_in_x: str = "unknown"          # "yes" | "no" | "unknown"
    general_member: bool = False

    def __post_init__(self):
        if self.b1_in_x not in ("yes", "no", "unknown"):
            raise ValueError("b1_in_x must be yes, no or unknown")
        if self.m is not None and self.m < 1:
            raise ValueError("escape level m must be >= 1")


@dataclass(frozen=True)
class FanoDatum:
    """A weighted hypersurface family: ambient P(a_0,...,a_{n+1}), degree d.

    The shape every rule reads is computed once, at construction: the
    dimension ``n``, the Fano ``index`` sum(a_i) - d, the ascending
    ``sorted_weights`` and ``c1``, the number of weight-one entries.  Since
    the weights are positive, the sorted weights have the shape
    (1^(len - t), w_1 <= ... <= w_t) with every w_i >= 2 exactly when
    ``c1 == len - t``.
    """

    ambient: WeightVector
    d: int
    flags: Flags = field(default_factory=Flags)
    n: int = field(init=False, compare=False, repr=False)
    index: int = field(init=False, compare=False, repr=False)
    sorted_weights: tuple[int, ...] = field(init=False, compare=False, repr=False)
    c1: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree must be a positive integer")
        if len(self.ambient) < 3:
            raise ValueError("a hypersurface datum needs at least three weights")
        w = tuple(sorted(self.ambient.weights))
        setattr_ = object.__setattr__
        setattr_(self, "n", len(w) - 2)
        setattr_(self, "index", fano_index(self.ambient, self.d))
        setattr_(self, "sorted_weights", w)
        setattr_(self, "c1", w.count(1))


@dataclass(frozen=True)
class TraceEntry:
    """One audited step: which rule fired, on what, with what output."""

    rule_id: str
    statement: str
    citation: Optional[str]
    external: bool
    scope: str                    # "global" | "vertex" | "away" | "upper" | "note"
    hypotheses: tuple[str, ...]
    inputs: dict
    output: Optional[str]

    def to_json_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "statement": self.statement,
            "citation": self.citation,
            "external": self.external,
            "scope": self.scope,
            "hypotheses": list(self.hypotheses),
            "inputs": {k: str(v) for k, v in sorted(self.inputs.items())},
            "output": self.output,
        }


@dataclass(frozen=True)
class DeltaCertificate:
    """A certified bound for delta(X; O(1)) with verdict and audit trace.

    ``bound`` is a lower bound (exclusive when ``strict``); ``upper`` is a
    certified upper bound when an instability rule fired.  Anticanonical
    values are the O(1) values divided by the index, exactly.
    """

    polarization: str
    bound: Fraction
    strict: bool
    upper: Optional[Fraction]
    verdict: str                  # "K-stable" | "K-unstable" | "inconclusive"
    index: int
    trace: tuple[TraceEntry, ...]

    @property
    def anticanonical_bound(self) -> Fraction:
        return self.bound / self.index

    @property
    def anticanonical_upper(self) -> Optional[Fraction]:
        return None if self.upper is None else self.upper / self.index

    def to_json_dict(self) -> dict:
        return {
            "polarization": self.polarization,
            "bound": str(self.bound),
            "strict": self.strict,
            "upper": None if self.upper is None else str(self.upper),
            "index": self.index,
            "anticanonical_bound": str(self.anticanonical_bound),
            "anticanonical_upper":
                None if self.upper is None else str(self.anticanonical_upper),
            "verdict": self.verdict,
            "trace": [t.to_json_dict() for t in self.trace],
        }


@dataclass(frozen=True)
class B1Result:
    verdict: str                  # "yes" | "no" | "unknown" | "contradiction"
    reasons: tuple[str, ...]


def _representable(d: int, parts: tuple[int, ...]) -> bool:
    """Whether d >= 0 is a nonnegative integer combination of the given parts.

    Bit v of ``reach`` says v is a combination of the parts seen so far.
    Shifting by p, 2p, 4p, ... while the step is at most d adds every
    multiple of p up to d, so each part costs O(log d) big-int operations.
    """
    mask = (1 << (d + 1)) - 1
    reach = 1
    for p in parts:
        step = p
        while step <= d:
            reach |= (reach << step) & mask
            step *= 2
    return bool(reach >> d & 1)


def derive_b1(datum: FanoDatum) -> B1Result:
    """Decide whether the weight-one base locus lies on the hypersurface.

    Sound rules under the quasi-smoothness assertion:
      (1) if n + 1 >= 2*c1 the locus is too large to lie on X: "no";
      (2) if d is not a nonnegative combination of the weights > 1, every
          monomial of degree d uses a weight-one variable: "yes";
      (3) containment forces d = 1 mod a_j for every weight a_j > 1, so a
          violation gives "no".
    When (2) fires together with (1) or (3) the asserted family is empty.
    """
    n, d, c1 = datum.n, datum.d, datum.c1
    big = datum.sorted_weights[c1:]
    no_reasons = []
    yes_reasons = []
    if n + 1 >= 2 * c1:
        no_reasons.append(f"n+1 = {n + 1} >= 2*c1 = {2 * c1}: locus too large to lie on X")
    for a in big:
        if d % a != 1:
            no_reasons.append(f"d = {d} is {d % a} mod {a}, not 1")
            break
    if not _representable(d, big):
        yes_reasons.append(
            "degree is not a nonnegative combination of the weights > 1, so every "
            "monomial of degree d vanishes on the weight-one locus"
        )
    if yes_reasons and no_reasons:
        return B1Result("contradiction", tuple(yes_reasons + no_reasons))
    if yes_reasons:
        return B1Result("yes", tuple(yes_reasons))
    if no_reasons:
        return B1Result("no", tuple(no_reasons))
    return B1Result("unknown", ())


@dataclass
class _Collector:
    entries: list[TraceEntry] = field(default_factory=list)
    global_lower: list[tuple[Fraction, bool]] = field(default_factory=list)
    vertex_lower: list[Fraction] = field(default_factory=list)
    away_lower: list[Fraction] = field(default_factory=list)
    uppers: list[Fraction] = field(default_factory=list)

    def note(self, rule_id: str, statement: str, hypotheses=(), inputs=None) -> None:
        self.entries.append(TraceEntry(rule_id, statement, None, False, "note",
                                       tuple(hypotheses), inputs or {}, None))

    def add(self, entry: TraceEntry, value: Fraction, strict: bool = False) -> None:
        self.entries.append(entry)
        if entry.scope == "global":
            self.global_lower.append((value, strict))
        elif entry.scope == "vertex":
            self.vertex_lower.append(value)
        elif entry.scope == "away":
            self.away_lower.append(value)
        elif entry.scope == "upper":
            self.uppers.append(value)
        else:
            raise AssertionError(f"unknown scope {entry.scope}")


def _entry(rule_id, statement, scope, hypotheses, inputs, output,
           citation=None, external=False) -> TraceEntry:
    return TraceEntry(rule_id=rule_id, statement=statement, citation=citation,
                      external=external, scope=scope, hypotheses=tuple(hypotheses),
                      inputs=inputs, output=str(output))


def certify(datum: FanoDatum) -> DeltaCertificate:
    """Best available certified bound for delta(X; O(1)) and the verdict.

    Every applicable rule is recorded; the emitted bound is the maximum of
    the global lower bounds and of min(best vertex bound, best away bound)
    when a vertex/away split is available.  The verdict is taken against
    the anticanonical polarization: strict bound > 1 gives K-stable, a
    certified upper bound < 1 gives K-unstable.
    """
    datum.ambient.require_well_formed()
    if not datum.flags.quasi_smooth:
        raise ValueError("certification requires the quasi-smoothness assertion")
    idx = datum.index
    if idx <= 0:
        raise NonFanoError(f"index sum(a_i) - d = {idx} is not positive")

    col = _Collector()
    b1 = datum.flags.b1_in_x
    derived = derive_b1(datum)
    if derived.verdict == "contradiction":
        col.note(
            "b1-derivation",
            "the containment rules for the weight-one base locus contradict each "
            "other, so no quasi-smooth member with this datum exists; the "
            "certificate is vacuously sound",
            hypotheses=derived.reasons,
        )
        b1_effective = "unknown"
    else:
        if b1 != "unknown" and derived.verdict != "unknown" and b1 != derived.verdict:
            raise ContradictoryFlagsError(
                f"asserted b1_in_x={b1} contradicts the derived value {derived.verdict}: "
                + "; ".join(derived.reasons)
            )
        b1_effective = derived.verdict if derived.verdict != "unknown" else b1
        if derived.verdict != "unknown":
            col.note("b1-derivation",
                     f"weight-one base locus containment derived: {derived.verdict}",
                     hypotheses=derived.reasons)

    _rule_external_divisible(datum, col)
    _rule_one_weight_gap(datum, col)
    _rule_tail_base_locus(datum, col, b1_effective)
    _rule_two_weight_degree(datum, col)
    _rule_theorem_one_weight(datum, col)
    _rule_theorem_two_weights(datum, col)
    _rule_general_divisibility(datum, col)
    _rule_eckardt(datum, col)

    lower = Fraction(0)
    strict = False
    for value, st in col.global_lower:
        if value > lower or (value == lower and st):
            lower, strict = value, st
    if col.vertex_lower and col.away_lower:
        split = min(max(col.vertex_lower), max(col.away_lower))
        if split > lower:
            lower, strict = split, False
    upper = min(col.uppers) if col.uppers else None

    anti_lower = lower / idx
    anti_upper = None if upper is None else upper / idx
    if upper is not None and lower > upper:
        raise ContradictoryFlagsError(
            f"certified lower bound {lower} exceeds certified upper bound {upper}; "
            "the asserted flags are inconsistent"
        )
    if anti_upper is not None and anti_upper < 1:
        verdict = "K-unstable"
    elif anti_lower > 1 or (anti_lower == 1 and strict):
        verdict = "K-stable"
    else:
        verdict = "inconclusive"
    return DeltaCertificate(
        polarization="O(1)",
        bound=lower,
        strict=strict,
        upper=upper,
        verdict=verdict,
        index=idx,
        trace=tuple(col.entries),
    )


def _rule_external_divisible(datum: FanoDatum, col: _Collector) -> None:
    """delta(X; O(1)) >= (n+1) a_r / d when some weight a_r > 1 divides d."""
    n, d = datum.n, datum.d
    best = max((a for a in datum.sorted_weights[datum.c1:] if d % a == 0), default=None)
    if best is None:
        return
    value = Fraction((n + 1) * best, d)
    col.add(_entry(
        "external-divisible-weight",
        "for a quasi-smooth hypersurface of degree d in a well-formed weighted "
        "projective space with a weight a_r > 1 dividing d, "
        "delta(X; O(1)) >= (n+1) a_r / d",
        "global",
        [f"a_r = {best} divides d = {d}", "quasi-smooth asserted"],
        {"n": n, "d": d, "a_r": best},
        value,
        citation="[ST24, Theorem 1.1]",
        external=True,
    ), value)


def _rule_one_weight_gap(datum: FanoDatum, col: _Collector) -> None:
    """Ambient (1^(n+1), a), a >= 2, n >= 3, d >= a+2:
    delta(X; O(1)) >= (n+1)/(d-a)."""
    n, d = datum.n, datum.d
    w = datum.sorted_weights
    if not (datum.c1 == n + 1 and n >= 3 and d >= w[-1] + 2):
        return
    a = w[-1]
    value = Fraction(n + 1, d - a)
    col.add(_entry(
        "one-weight-gap",
        "for a quasi-smooth hypersurface of degree d >= a+2 and dimension n >= 3 "
        "in P(1^(n+1), a) with a >= 2, delta(X; O(1)) >= (n+1)/(d-a)",
        "global",
        [f"weights are (1^{n + 1}, {a})", f"d = {d} >= a+2 = {a + 2}", "n >= 3"],
        {"n": n, "d": d, "a": a},
        value,
    ), value)


def _rule_tail_base_locus(datum: FanoDatum, col: _Collector, b1: str) -> None:
    """When the weight-one base locus lies on X (ascending weights, n >= 3,
    a_n+1 >= 2, d > a_{n+1}+1): away from the last vertex
    delta_p >= (n+1) a_{n+1} / d, and at the vertex
    delta >= max((n+1) a_n / d, min of the three vertex bounds)."""
    if b1 != "yes":
        return
    n, d = datum.n, datum.d
    w = datum.sorted_weights
    a_top, a_second = w[-1], w[-2]
    if not (n >= 3 and a_top >= 2 and d > a_top + 1):
        return
    if d % a_top != 1:
        return  # containment already forces d = 1 mod a_top; inapplicable otherwise
    k = (d - 1) // a_top
    away = Fraction((n + 1) * a_top, d)
    term1 = Fraction(n + 1, d - a_top)
    term2 = Fraction(n * (n + 1), a_top * k + n)
    term3 = Fraction((a_top * k + 1) * (n + 1), 2 * a_top * k + 1)
    vertex_min = min(term1, term2, term3)
    if vertex_min != term1:
        col.note("tail-base-locus-min",
                 f"the three vertex bounds have minimum {vertex_min}, not the "
                 f"first term {term1}; recording the exact minimum",
                 inputs={"terms": f"{term1},{term2},{term3}"})
    vertex = max(Fraction((n + 1) * a_second, d), vertex_min)
    hyp = [
        "weight-one base locus lies on X",
        f"d = {d} = {k}*{a_top}+1 > a_top+1", "n >= 3", "quasi-smooth asserted",
    ]
    col.add(_entry(
        "tail-base-locus-away",
        "with the weight-one base locus on X, at every point away from the last "
        "coordinate vertex delta_p(X; O(1)) >= (n+1) a_{n+1} / d",
        "away", hyp, {"n": n, "d": d, "a_top": a_top}, away,
    ), away)
    col.add(_entry(
        "tail-base-locus-vertex",
        "with the weight-one base locus on X, at the last coordinate vertex "
        "delta_p(X; O(1)) >= max((n+1) a_n/d, min((n+1)/(d-a_{n+1}), "
        "n(n+1)/(a_{n+1}k+n), (a_{n+1}k+1)(n+1)/(2 a_{n+1}k+1)))",
        "vertex", hyp,
        {"n": n, "d": d, "a_top": a_top, "a_second": a_second, "k": k},
        vertex,
    ), vertex)


def _rule_two_weight_degree(datum: FanoDatum, col: _Collector) -> None:
    """Ambient (1^n, a, b) with a <= b, n >= 2, d >= b+2:
    delta(X; O(1)) >= (n+1) a / d."""
    n, d = datum.n, datum.d
    w = datum.sorted_weights
    if not (datum.c1 == n and n >= 2 and d >= w[-1] + 2):
        return
    a, b = w[-2], w[-1]
    value = Fraction((n + 1) * a, d)
    col.add(_entry(
        "two-weight-degree",
        "for a quasi-smooth hypersurface of degree d >= b+2 and dimension n >= 2 "
        "in P(1^n, a, b) with 2 <= a <= b, delta(X; O(1)) >= (n+1) a / d",
        "global",
        [f"weights are (1^{n}, {a}, {b})", f"d = {d} >= b+2 = {b + 2}", "n >= 2"],
        {"n": n, "d": d, "a": a, "b": b},
        value,
    ), value)


def _rule_theorem_one_weight(datum: FanoDatum, col: _Collector) -> None:
    """Index-one family in P(1^(n+1), a), a >= 2, n >= 3:
    delta(X; O(1)) >= (n+1)/n > 1, hence K-stable."""
    n = datum.n
    w = datum.sorted_weights
    if not (datum.c1 == n + 1 and n >= 3 and datum.index == 1):
        return
    value = Fraction(n + 1, n)
    col.add(_entry(
        "one-weight-index-one",
        "every quasi-smooth Fano hypersurface of index 1 and dimension n >= 3 in "
        "P(1^(n+1), a) with a >= 2 has delta(X; O(1)) >= (n+1)/n > 1 and is K-stable",
        "global",
        [f"weights are (1^{n + 1}, {w[-1]})", "index 1", "n >= 3",
         "quasi-smooth asserted"],
        {"n": n, "d": datum.d, "a": w[-1]},
        value,
    ), value)


def _rule_theorem_two_weights(datum: FanoDatum, col: _Collector) -> None:
    """Index-one family in P(1^n, a, b), 2 <= a <= b, n >= 3:
    delta(X; O(1)) >= (n+1)/(n + 1/a) > 1, hence K-stable."""
    n = datum.n
    w = datum.sorted_weights
    if not (datum.c1 == n and n >= 3 and datum.index == 1):
        return
    a, b = w[-2], w[-1]
    value = Fraction((n + 1) * a, n * a + 1)
    col.add(_entry(
        "two-weight-index-one",
        "every quasi-smooth Fano hypersurface of index 1 and dimension n >= 3 in "
        "P(1^n, a, b) with 2 <= a <= b has delta(X; O(1)) >= (n+1)/(n + 1/a) > 1 "
        "and is K-stable",
        "global",
        [f"weights are (1^{n}, {a}, {b})", "index 1", "n >= 3",
         "quasi-smooth asserted"],
        {"n": n, "d": datum.d, "a": a, "b": b},
        value,
    ), value)


def _rule_general_divisibility(datum: FanoDatum, col: _Collector) -> None:
    """General index-one member with c1 >= (n+2)/2 weight-one entries and
    d = 1 mod a_i for every weight a_i > 1: K-stable (bound 1, strict)."""
    if not datum.flags.general_member:
        return
    n, c1 = datum.n, datum.c1
    big = datum.sorted_weights[c1:]
    if not (n >= 3 and datum.index == 1 and big and 2 * c1 >= n + 2):
        return
    if any(datum.d % a != 1 for a in big):
        return
    col.add(_entry(
        "general-divisibility-stable",
        "a general quasi-smooth Fano hypersurface of index 1 with at least "
        "(n+2)/2 weight-one coordinates and d = 1 mod a_i for every weight "
        "a_i > 1 is K-stable",
        "global",
        [f"c1 = {c1} >= (n+2)/2", "index 1",
         "d = 1 mod a_i for all weights a_i > 1", "general member asserted",
         "quasi-smooth asserted"],
        {"n": n, "d": datum.d, "c1": c1},
        Fraction(1),
    ), Fraction(1), strict=True)


def _rule_eckardt(datum: FanoDatum, col: _Collector) -> None:
    """Rules at an asserted generalized Eckardt vertex of (1^(n+1), a).

    Lower: the flag through the exceptional divisor gives the vertex bound
    min(n(n+1)/(ak+n), (ak+1)(n+1)/(2ak+1)), exact once d >= n, and the
    away-from-vertex bound (n+1) a / d.  Upper: delta <= local delta at the
    vertex <= n(n+1)/(ak+n); below index*1 this certifies K-instability.
    """
    flags = datum.flags
    k = None
    w = datum.sorted_weights
    applicable = (datum.c1 == datum.n + 1 and datum.d % w[-1] == 1
                  and datum.d >= w[-1] + 1)
    eck = flags.eckardt_at_p is True
    if flags.m is not None and applicable:
        k = (datum.d - 1) // w[-1]
        if flags.m == k:
            eck = True
        elif flags.eckardt_at_p is True:
            raise ContradictoryFlagsError(
                f"eckardt_at_P asserted but escape level m={flags.m} != k={k}"
            )
        else:
            eck = False
    if not (eck and applicable):
        return
    n, d = datum.n, datum.d
    a = w[-1]
    k = (d - 1) // a
    hyp = [f"weights are (1^{n + 1}, {a})", f"d = {d} = {k}*{a}+1",
           "generalized Eckardt vertex asserted", "quasi-smooth asserted"]
    vertex_bound, exact = delta_eckardt(n, a, k)
    col.add(_entry(
        "eckardt-vertex-lower",
        "at a generalized Eckardt vertex of a quasi-smooth X_(ak+1) in "
        "P(1^(n+1), a), delta_P(X; O(1)) >= min(n(n+1)/(ak+n), "
        "(ak+1)(n+1)/(2ak+1)), with equality to n(n+1)/(ak+n) when ak+1 >= n",
        "vertex", hyp, {"n": n, "a": a, "k": k, "exact": exact}, vertex_bound,
    ), vertex_bound)
    away = Fraction((n + 1) * a, d)
    col.add(_entry(
        "vertex-complement",
        "for a quasi-smooth X_d in P(1^(n+1), a) containing the last coordinate "
        "vertex, every other point satisfies delta_p(X; O(1)) >= (n+1) a / d",
        "away", hyp[:2] + ["quasi-smooth asserted"], {"n": n, "a": a, "d": d}, away,
    ), away)
    upper = Fraction(n * (n + 1), a * k + n)
    col.add(_entry(
        "eckardt-vertex-upper",
        "the exceptional divisor of the vertex blowup gives "
        "delta(X; O(1)) <= delta_P(X; O(1)) <= A(E)/S(E) = n(n+1)/(ak+n)",
        "upper", hyp, {"n": n, "a": a, "k": k}, upper,
    ), upper)
    if a >= 2:
        report = unstable_check(n, a, k)
        if report.verdict == "K-unstable":
            col.note(
                "eckardt-unstable",
                "since n > a^2 k (k-1)/(a-1), the anticanonical bound "
                "n(n+1)/((n+a-ak)(ak+n)) is < 1 and X is K-unstable",
                hypotheses=[f"n = {n} > a^2 k(k-1)/(a-1) = {report.criterion_rhs}"],
                inputs={"witness": str(report.witness)},
            )


def replay(cert: DeltaCertificate, datum: FanoDatum) -> bool:
    """Re-run the engine and check the recorded trace reproduces itself."""
    again = certify(datum)
    return again == cert


# ---------------------------------------------------------------------------
# deterministic enumeration


ENUM_LIMITS = {"max_n": 24, "max_weight": 40, "max_rows": 200_000}


@dataclass(frozen=True)
class EnumerationRow:
    datum: FanoDatum
    certificate: DeltaCertificate

    def fired_rules(self) -> tuple[str, ...]:
        return tuple(t.rule_id for t in self.certificate.trace if t.scope != "note")


def enumerate_data(n: int, max_weight: int, index: Optional[int] = None,
                   degree: Optional[int] = None, eckardt: bool = False,
                   general: bool = False) -> Iterator[EnumerationRow]:
    """All well-formed ascending weight tuples of length n+2 with entries up
    to max_weight, certified one by one in lexicographic order.

    Exactly one of ``index`` and ``degree`` must be given; ``eckardt`` and
    ``general`` set the corresponding assertion flags on every row where
    they are meaningful.  The arguments and the row limit are checked
    here, before the first row is certified; the rows are then yielded as
    they are certified.
    """
    if (index is None) == (degree is None):
        raise ValueError("give exactly one of index or degree")
    if n > ENUM_LIMITS["max_n"] or max_weight > ENUM_LIMITS["max_weight"]:
        raise ValueError(f"enumeration limits exceeded: {ENUM_LIMITS}")
    tuples = [
        t for t in itertools.combinations_with_replacement(
            range(1, max_weight + 1), n + 2)
        if math.gcd(*t) == 1
    ]
    if len(tuples) > ENUM_LIMITS["max_rows"]:
        raise ValueError(f"enumeration would produce {len(tuples)} rows; "
                         f"limit is {ENUM_LIMITS['max_rows']}")
    return _certified_rows(tuples, index, degree, eckardt, general)


def _certified_rows(tuples, index, degree, eckardt, general) -> Iterator[EnumerationRow]:
    """The rows of :func:`enumerate_data` for ascending gcd-1 ``tuples``."""
    plain = Flags(general_member=general)
    marked = Flags(eckardt_at_p=True, general_member=general)
    for t in tuples:
        w = WeightVector(t)
        if not w.is_well_formed:
            continue
        d = sum(t) - index if index is not None else degree
        if d < 1:
            continue
        # the shape (1^(n+1), a) with a >= 2, as in FanoDatum
        vertex = eckardt and t.count(1) == len(t) - 1 and d % t[-1] == 1
        datum = FanoDatum(ambient=w, d=d, flags=marked if vertex else plain)
        if datum.index <= 0:
            continue
        try:
            cert = certify(datum)
        except (NonFanoError, ContradictoryFlagsError):
            continue
        yield EnumerationRow(datum=datum, certificate=cert)
