"""Rule-based lower-bound certificates for stability thresholds.

Input is a Fano datum: an ambient weight vector, a degree, and structural
flags (a generalized Eckardt vertex, its escape level, the weight-one base
locus containment, generality of the member), all caller-asserted and
recorded.  Quasi-smoothness of the member is a standing assumption of
every rule.  Most rules list it in their trace as the hypothesis
"quasi-smooth asserted"; one-weight-gap, two-weight-degree,
eckardt-unstable and the b1-derivation note leave it implicit.
The rules are data: :data:`RULES` is one table of :class:`Rule` rows.
:func:`certify` resolves the weight-one base locus containment and the
Eckardt vertex once, folds over the table, combines the bounds that fired
(maximum of lower bounds, local bounds combined over a vertex/away split),
converts between the O(1) and anticanonical polarizations exactly, and
emits a full audit trace.

External inputs from the literature are separate rows tagged EXTERNAL and
carry their own citation strings; they are never merged silently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .lattice import WeightVector, fano_index
from .moments import delta_eckardt, unstable_check


class NonFanoError(ValueError):
    """The datum has nonpositive index, so no verdict is possible."""


class ContradictoryFlagsError(ValueError):
    """Asserted flags force an empty family or contradictory bounds."""


@dataclass(frozen=True)
class Flags:
    """Caller-asserted structural information about the member."""

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


@dataclass(frozen=True)
class Rule:
    """One row of :data:`RULES`.

    ``fire(datum, b1, eckardt)`` returns ``(hypotheses, inputs, value)`` or
    None when the rule does not apply; ``b1`` is the resolved containment
    and ``eckardt`` the result of :func:`_eckardt_vertex`.  Only ``note``
    rows have value None; a ``strict`` global bound is exclusive; a row
    with a citation is an external input from the literature.
    """

    id: str
    scope: str                    # "global" | "vertex" | "away" | "upper" | "note"
    statement: str
    fire: Callable[[FanoDatum, str, Optional[int]], Optional[tuple]]
    citation: Optional[str] = None
    strict: bool = False


def _divisible_weight(datum, b1, eckardt):
    d = datum.d
    for a in reversed(datum.sorted_weights):      # the largest a_r > 1 dividing d
        if a == 1:
            return None
        if d % a == 0:
            n = datum.n
            return ((f"a_r = {a} divides d = {d}", "quasi-smooth asserted"),
                    {"n": n, "d": d, "a_r": a}, Fraction((n + 1) * a, d))
    return None


def _one_weight_gap(datum, b1, eckardt):
    n, d, a = datum.n, datum.d, datum.sorted_weights[-1]
    if not (datum.c1 == n + 1 and n >= 3 and d >= a + 2):
        return None
    return ((f"weights are (1^{n + 1}, {a})", f"d = {d} >= a+2 = {a + 2}", "n >= 3"),
            {"n": n, "d": d, "a": a}, Fraction(n + 1, d - a))


def _tail(datum, b1):
    """(n, d, a_top, k, hypotheses) when the weight-one base locus lies on X
    (which forces d = 1 mod a_top), n >= 3 and d = k a_top + 1 > a_top + 1;
    else None."""
    n, d, a_top = datum.n, datum.d, datum.sorted_weights[-1]
    if not (b1 == "yes" and n >= 3 and d > a_top + 1 and d % a_top == 1):
        return None
    k = (d - 1) // a_top
    return n, d, a_top, k, ("weight-one base locus lies on X",
                            f"d = {d} = {k}*{a_top}+1 > a_top+1", "n >= 3",
                            "quasi-smooth asserted")


def _tail_away(datum, b1, eckardt):
    tail = _tail(datum, b1)
    if tail is None:
        return None
    n, d, a_top, _, hypotheses = tail
    return hypotheses, {"n": n, "d": d, "a_top": a_top}, Fraction((n + 1) * a_top, d)


def _tail_vertex(datum, b1, eckardt):
    tail = _tail(datum, b1)
    if tail is None:
        return None
    n, d, a_top, k, hypotheses = tail
    a_second = datum.sorted_weights[-2]
    # k >= 2 and n >= 3 make (n+1)/(d-a_top) the least of the three terms of
    # the inner min in the statement (test_tail_vertex_first_term_is_the_minimum)
    value = max(Fraction((n + 1) * a_second, d), Fraction(n + 1, d - a_top))
    return (hypotheses, {"n": n, "d": d, "a_top": a_top, "a_second": a_second, "k": k},
            value)


def _two_weight_degree(datum, b1, eckardt):
    n, d = datum.n, datum.d
    a, b = datum.sorted_weights[-2:]
    if not (datum.c1 == n and n >= 2 and d >= b + 2):
        return None
    return ((f"weights are (1^{n}, {a}, {b})", f"d = {d} >= b+2 = {b + 2}", "n >= 2"),
            {"n": n, "d": d, "a": a, "b": b}, Fraction((n + 1) * a, d))


def _one_weight_index_one(datum, b1, eckardt):
    n, a = datum.n, datum.sorted_weights[-1]
    if not (datum.c1 == n + 1 and n >= 3 and datum.index == 1):
        return None
    return ((f"weights are (1^{n + 1}, {a})", "index 1", "n >= 3", "quasi-smooth asserted"),
            {"n": n, "d": datum.d, "a": a}, Fraction(n + 1, n))


def _two_weight_index_one(datum, b1, eckardt):
    n = datum.n
    a, b = datum.sorted_weights[-2:]
    if not (datum.c1 == n and n >= 3 and datum.index == 1):
        return None
    return ((f"weights are (1^{n}, {a}, {b})", "index 1", "n >= 3", "quasi-smooth asserted"),
            {"n": n, "d": datum.d, "a": a, "b": b}, Fraction((n + 1) * a, n * a + 1))


def _general_divisibility(datum, b1, eckardt):
    n, d, c1 = datum.n, datum.d, datum.c1
    big = datum.sorted_weights[c1:]
    if not (datum.flags.general_member and n >= 3 and datum.index == 1 and big
            and 2 * c1 >= n + 2 and all(d % a == 1 for a in big)):
        return None
    return ((f"c1 = {c1} >= (n+2)/2", "index 1", "d = 1 mod a_i for all weights a_i > 1",
             "general member asserted", "quasi-smooth asserted"),
            {"n": n, "d": d, "c1": c1}, Fraction(1))


def _eckardt_vertex(datum: FanoDatum) -> Optional[int]:
    """k in d = ak + 1 when the last vertex of P(1^(n+1), a), n >= 2, is a
    generalized Eckardt point of X, else None.

    The vertex is Eckardt when asserted or when the escape level m equals
    k; asserting it together with m != k is a contradiction.  For any other
    shape, curves included, the assertion is ignored.
    """
    flags, d, a = datum.flags, datum.d, datum.sorted_weights[-1]
    if not (datum.n >= 2 and datum.c1 == datum.n + 1 and d % a == 1 and d >= a + 1):
        return None
    k = (d - 1) // a
    if flags.m == k or (flags.m is None and flags.eckardt_at_p is True):
        return k
    if flags.m is not None and flags.eckardt_at_p is True:
        raise ContradictoryFlagsError(
            f"eckardt_at_P asserted but escape level m={flags.m} != k={k}"
        )
    return None


def _eckardt_hypotheses(datum, k):
    n, d, a = datum.n, datum.d, datum.sorted_weights[-1]
    return (f"weights are (1^{n + 1}, {a})", f"d = {d} = {k}*{a}+1",
            "generalized Eckardt vertex asserted", "quasi-smooth asserted")


def _eckardt_lower(datum, b1, k):
    if k is None:
        return None
    n, a = datum.n, datum.sorted_weights[-1]
    bound, exact = delta_eckardt(n, a, k)
    return _eckardt_hypotheses(datum, k), {"n": n, "a": a, "k": k, "exact": exact}, bound


def _vertex_complement(datum, b1, k):
    if k is None:
        return None
    n, d, a = datum.n, datum.d, datum.sorted_weights[-1]
    return ((f"weights are (1^{n + 1}, {a})", f"d = {d} = {k}*{a}+1", "quasi-smooth asserted"),
            {"n": n, "a": a, "d": d}, Fraction((n + 1) * a, d))


def _eckardt_upper(datum, b1, k):
    if k is None:
        return None
    n, a = datum.n, datum.sorted_weights[-1]
    return (_eckardt_hypotheses(datum, k), {"n": n, "a": a, "k": k},
            Fraction(n * (n + 1), a * k + n))


def _eckardt_unstable(datum, b1, k):
    if k is None:
        return None
    n = datum.n
    report = unstable_check(n, datum.sorted_weights[-1], k)
    if report.verdict != "K-unstable":
        return None
    return ((f"n = {n} > a^2 k(k-1)/(a-1) = {report.criterion_rhs}",),
            {"witness": report.witness}, None)


RULES: tuple[Rule, ...] = (
    Rule("external-divisible-weight", "global",
         "for a quasi-smooth hypersurface of degree d in a well-formed weighted "
         "projective space with a weight a_r > 1 dividing d, "
         "delta(X; O(1)) >= (n+1) a_r / d",
         _divisible_weight, citation="[ST24, Theorem 1.1]"),
    Rule("one-weight-gap", "global",
         "for a quasi-smooth hypersurface of degree d >= a+2 and dimension n >= 3 "
         "in P(1^(n+1), a) with a >= 2, delta(X; O(1)) >= (n+1)/(d-a)",
         _one_weight_gap),
    Rule("tail-base-locus-away", "away",
         "with the weight-one base locus on X, at every point away from the last "
         "coordinate vertex delta_p(X; O(1)) >= (n+1) a_{n+1} / d",
         _tail_away),
    Rule("tail-base-locus-vertex", "vertex",
         "with the weight-one base locus on X, at the last coordinate vertex "
         "delta_p(X; O(1)) >= max((n+1) a_n/d, min((n+1)/(d-a_{n+1}), "
         "n(n+1)/(a_{n+1}k+n), (a_{n+1}k+1)(n+1)/(2 a_{n+1}k+1)))",
         _tail_vertex),
    Rule("two-weight-degree", "global",
         "for a quasi-smooth hypersurface of degree d >= b+2 and dimension n >= 2 "
         "in P(1^n, a, b) with 2 <= a <= b, delta(X; O(1)) >= (n+1) a / d",
         _two_weight_degree),
    Rule("one-weight-index-one", "global",
         "every quasi-smooth Fano hypersurface of index 1 and dimension n >= 3 in "
         "P(1^(n+1), a) with a >= 2 has delta(X; O(1)) >= (n+1)/n > 1 and is K-stable",
         _one_weight_index_one),
    Rule("two-weight-index-one", "global",
         "every quasi-smooth Fano hypersurface of index 1 and dimension n >= 3 in "
         "P(1^n, a, b) with 2 <= a <= b has delta(X; O(1)) >= (n+1)/(n + 1/a) > 1 "
         "and is K-stable",
         _two_weight_index_one),
    Rule("general-divisibility-stable", "global",
         "a general quasi-smooth Fano hypersurface of index 1 with at least "
         "(n+2)/2 weight-one coordinates and d = 1 mod a_i for every weight "
         "a_i > 1 is K-stable",
         _general_divisibility, strict=True),
    Rule("eckardt-vertex-lower", "vertex",
         "at a generalized Eckardt vertex of a quasi-smooth X_(ak+1) in "
         "P(1^(n+1), a), delta_P(X; O(1)) >= min(n(n+1)/(ak+n), "
         "(ak+1)(n+1)/(2ak+1)), with equality to n(n+1)/(ak+n) when ak+1 >= n",
         _eckardt_lower),
    Rule("vertex-complement", "away",
         "for a quasi-smooth X_d in P(1^(n+1), a) containing the last coordinate "
         "vertex, every other point satisfies delta_p(X; O(1)) >= (n+1) a / d",
         _vertex_complement),
    Rule("eckardt-vertex-upper", "upper",
         "the exceptional divisor of the vertex blowup gives "
         "delta(X; O(1)) <= delta_P(X; O(1)) <= A(E)/S(E) = n(n+1)/(ak+n)",
         _eckardt_upper),
    Rule("eckardt-unstable", "note",
         "since n > a^2 k (k-1)/(a-1), the anticanonical bound "
         "n(n+1)/((n+a-ak)(ak+n)) is < 1 and X is K-unstable",
         _eckardt_unstable),
)


def certify(datum: FanoDatum) -> DeltaCertificate:
    """Best available certified bound for delta(X; O(1)) and the verdict.

    The weight-one containment and the Eckardt vertex are resolved once;
    then every row of :data:`RULES` that fires is recorded, in table order.
    The emitted bound is the maximum of the global lower bounds and of
    min(best vertex bound, best away bound) when a vertex/away split is
    available.  The verdict is taken against the anticanonical
    polarization: strict bound > 1 gives K-stable, a certified upper bound
    < 1 gives K-unstable.
    """
    datum.ambient.require_well_formed()
    idx = datum.index
    if idx <= 0:
        raise NonFanoError(f"index sum(a_i) - d = {idx} is not positive")

    trace = []
    b1, derived = datum.flags.b1_in_x, derive_b1(datum)
    if derived.verdict != "unknown":
        if derived.verdict == "contradiction":
            b1, statement = "unknown", (
                "the containment rules for the weight-one base locus contradict each "
                "other, so no quasi-smooth member with this datum exists; the "
                "certificate is vacuously sound")
        elif b1 in ("unknown", derived.verdict):
            b1 = derived.verdict
            statement = f"weight-one base locus containment derived: {b1}"
        else:
            raise ContradictoryFlagsError(
                f"asserted b1_in_x={b1} contradicts the derived value {derived.verdict}: "
                + "; ".join(derived.reasons)
            )
        trace.append(TraceEntry("b1-derivation", statement, None, False, "note",
                                derived.reasons, {}, None))
    eckardt = _eckardt_vertex(datum)

    lower, strict, vertex, away, upper = Fraction(0), False, None, None, None
    for rule in RULES:
        fired = rule.fire(datum, b1, eckardt)
        if fired is None:
            continue
        hypotheses, inputs, value = fired
        scope = rule.scope
        trace.append(TraceEntry(rule.id, rule.statement, rule.citation,
                                rule.citation is not None, scope, hypotheses, inputs,
                                None if value is None else str(value)))
        if scope == "global":
            if value > lower or (value == lower and rule.strict):
                lower, strict = value, rule.strict
        elif scope == "vertex":
            vertex = value if vertex is None else max(vertex, value)
        elif scope == "away":
            away = value if away is None else max(away, value)
        elif scope == "upper":
            upper = value if upper is None else min(upper, value)
    if vertex is not None and away is not None and min(vertex, away) > lower:
        lower, strict = min(vertex, away), False

    if upper is not None and lower > upper:
        raise ContradictoryFlagsError(
            f"certified lower bound {lower} exceeds certified upper bound {upper}; "
            "the asserted flags are inconsistent"
        )
    # anticanonical values are the O(1) values divided by the index
    if upper is not None and upper < idx:
        verdict = "K-unstable"
    elif lower > idx or (lower == idx and strict):
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
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# deterministic enumeration


ENUM_LIMITS = {"max_n": 24, "max_weight": 40, "max_rows": 200_000}


@dataclass(frozen=True)
class EnumerationRow:
    datum: FanoDatum
    certificate: DeltaCertificate

    def fired_rules(self) -> tuple[str, ...]:
        return tuple(t.rule_id for t in self.certificate.trace if t.scope != "note")


def _coprime_tuple_count(length: int, max_weight: int) -> int:
    """The number N(M) of ascending tuples of ``length`` = L entries in
    1..``max_weight`` = M whose gcd is 1.

    Sorting every ascending tuple by its gcd g and dividing it by g gives
    sum_{g=1..M} N(floor(M/g)) = C(M+L-1, L), the number of all ascending
    tuples.  So N(m) = C(m+L-1, L) - sum_{g=2..m} N(floor(m/g)), a table
    over m = 1..M in at most M^2 integer steps.
    """
    count = [0] * (max_weight + 1)
    for m in range(1, max_weight + 1):
        count[m] = math.comb(m + length - 1, length) - sum(
            count[m // g] for g in range(2, m + 1))
    return count[max_weight]


def enumerate_data(n: int, max_weight: int, index: Optional[int] = None,
                   degree: Optional[int] = None, eckardt: bool = False,
                   general: bool = False) -> Iterator[EnumerationRow]:
    """All well-formed ascending weight tuples of length n+2 with entries up
    to max_weight, certified one by one in lexicographic order.

    Exactly one of ``index`` and ``degree`` must be given; ``eckardt`` and
    ``general`` set the corresponding assertion flags on every row, and
    :func:`certify` ignores the Eckardt assertion where the last vertex is
    not of Eckardt shape, as for a single datum.  The arguments and the row
    limit are checked here, before the first row is certified.  The limit
    bounds the gcd-1 candidates, counted exactly by
    :func:`_coprime_tuple_count` (all C(M+n+1, n+2) ascending tuples, less
    those of gcd g >= 2, which are g times a gcd-1 tuple up to M/g) without
    listing them.  The candidates are then generated lazily, and the rows
    are yielded as they are certified.
    """
    if (index is None) == (degree is None):
        raise ValueError("give exactly one of index or degree")
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if max_weight < 1 or (index if degree is None else degree) < 1:
        raise ValueError("max_weight, index and degree must be >= 1")
    if n > ENUM_LIMITS["max_n"] or max_weight > ENUM_LIMITS["max_weight"]:
        raise ValueError(f"enumeration limits exceeded: {ENUM_LIMITS}")
    count = _coprime_tuple_count(n + 2, max_weight)
    if count > ENUM_LIMITS["max_rows"]:
        raise ValueError(f"enumeration would produce {count} rows; "
                         f"limit is {ENUM_LIMITS['max_rows']}")
    tuples = (t for t in itertools.combinations_with_replacement(
                  range(1, max_weight + 1), n + 2)
              if math.gcd(*t) == 1)
    return _certified_rows(tuples, index, degree, eckardt, general)


def _certified_rows(tuples, index, degree, eckardt, general) -> Iterator[EnumerationRow]:
    """The rows of :func:`enumerate_data` for an iterable of ascending gcd-1
    ``tuples``."""
    flags = Flags(eckardt_at_p=True if eckardt else None, general_member=general)
    for t in tuples:
        w = WeightVector(t)
        if not w.is_well_formed:
            continue
        d = sum(t) - index if index is not None else degree
        if d < 1:
            continue
        datum = FanoDatum(ambient=w, d=d, flags=flags)
        if datum.index <= 0:
            continue
        try:
            cert = certify(datum)
        except ContradictoryFlagsError:
            continue
        yield EnumerationRow(datum=datum, certificate=cert)
