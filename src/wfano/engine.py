"""Rule-based lower-bound certificates for stability thresholds.

Input is a Fano datum: an ambient weight vector, a degree, and structural
flags (a generalized Eckardt vertex, its escape level, the weight-one base
locus containment, generality of the member), all caller-asserted and
recorded.  Quasi-smoothness of the member is a standing assumption of
every rule.
The rules are data: :data:`RULES` is one table of :class:`Rule` rows,
each listing the :class:`Fact` preconditions it requires; the trace
records the text of each fact as a hypothesis.
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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .lattice import WeightVector, as_integer, fano_index
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
        if self.m is not None and as_integer(self.m, "escape level m") < 1:
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
        index = fano_index(self.ambient, self.d)        # checks the degree first
        if len(self.ambient) < 3:
            raise ValueError("a hypersurface datum needs at least three weights")
        w = tuple(sorted(self.ambient.weights))
        setattr_ = object.__setattr__
        setattr_(self, "n", len(w) - 2)
        setattr_(self, "index", index)
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


@dataclass(frozen=True)
class Fact:
    """A precondition of a rule; ``name`` is its word in a small vocabulary.

    ``check(datum, b1, eckardt)`` returns the fact's arguments, a dict, when
    the fact holds and None when it fails; ``b1`` is the resolved
    containment and ``eckardt`` the result of :func:`_eckardt_vertex`.
    ``text`` formats the arguments into the hypothesis the trace records; a
    fact the trace does not record has no text.
    """

    name: str
    check: Callable[[FanoDatum, str, Optional[int]], Optional[dict]]
    text: Optional[str] = None


_HOLDS: dict = {}                  # the arguments of a fact that has none; never mutated


def _largest_dividing_weight(x, b1, k):
    for a in reversed(x.sorted_weights[x.c1:]):
        if x.d % a == 0:
            return {"a_r": a, "d": x.d}
    return None


def _top_degree(k_min):
    """The check that d = k a_top + 1 with k >= k_min."""
    def check(x, b1, k):
        a = x.sorted_weights[-1]
        if x.d % a == 1 and x.d > k_min * a:
            return {"d": x.d, "k": (x.d - 1) // a, "a_top": a}
        return None
    return check


def _degree_gap(x, b1, k):
    bound = x.sorted_weights[-1] + 2
    return {"d": x.d, "bound": bound} if x.d >= bound else None


def _unstable(x, b1, k):
    report = unstable_check(x.n, x.sorted_weights[-1], k)
    if report.verdict == "K-unstable":
        return {"n": x.n, "rhs": report.criterion_rhs, "witness": report.witness}
    return None


QUASI_SMOOTH = Fact("asserted_flag", lambda x, b1, k: _HOLDS, "quasi-smooth asserted")
GENERAL_MEMBER = Fact("asserted_flag",
                      lambda x, b1, k: _HOLDS if x.flags.general_member else None,
                      "general member asserted")
ECKARDT_VERTEX = Fact("asserted_flag", lambda x, b1, k: None if k is None else _HOLDS,
                      "generalized Eckardt vertex asserted")
B1_ON_X = Fact("b1", lambda x, b1, k: _HOLDS if b1 == "yes" else None,
               "weight-one base locus lies on X")
N_GE_2 = Fact("ge", lambda x, b1, k: _HOLDS if x.n >= 2 else None, "n >= 2")
N_GE_3 = Fact("ge", lambda x, b1, k: _HOLDS if x.n >= 3 else None, "n >= 3")
SOME_WEIGHT_ABOVE_1 = Fact("ge", lambda x, b1, k: _HOLDS if x.c1 < x.n + 2 else None)
C1_HALF = Fact("ge", lambda x, b1, k: {"c1": x.c1} if 2 * x.c1 >= x.n + 2 else None,
               "c1 = {c1} >= (n+2)/2")
D_GE_A_PLUS_2 = Fact("ge", _degree_gap, "d = {d} >= a+2 = {bound}")
D_GE_B_PLUS_2 = Fact("ge", _degree_gap, "d = {d} >= b+2 = {bound}")
INDEX_ONE = Fact("index_eq", lambda x, b1, k: _HOLDS if x.index == 1 else None, "index 1")
ONE_WEIGHT = Fact(
    "weights_shape", lambda x, b1, k: ({"c1": x.c1, "a": x.sorted_weights[-1]}
                                       if x.c1 == x.n + 1 else None),
    "weights are (1^{c1}, {a})")
TWO_WEIGHTS = Fact(
    "weights_shape", lambda x, b1, k: ({"c1": x.c1, "a": x.sorted_weights[-2],
                                        "b": x.sorted_weights[-1]} if x.c1 == x.n else None),
    "weights are (1^{c1}, {a}, {b})")
DIVIDES = Fact("divides", _largest_dividing_weight, "a_r = {a_r} divides d = {d}")
TAIL_DEGREE = Fact("congruent", _top_degree(2), "d = {d} = {k}*{a_top}+1 > a_top+1")
VERTEX_DEGREE = Fact("congruent", _top_degree(1), "d = {d} = {k}*{a_top}+1")
ONE_MOD_EVERY_WEIGHT = Fact(
    "congruent",
    lambda x, b1, k: _HOLDS if all(x.d % a == 1 for a in x.sorted_weights[x.c1:]) else None,
    "d = 1 mod a_i for all weights a_i > 1")
UNSTABLE = Fact("unstable", _unstable, "n = {n} > a^2 k(k-1)/(a-1) = {rhs}")


@dataclass(frozen=True)
class Rule:
    """One row of :data:`RULES`.

    The facts of ``requires`` are checked in order, and the first that
    fails stops the rule, so a fact may rely on those before it (UNSTABLE
    needs the Eckardt vertex).  The rule fires when every fact holds; its
    hypotheses are then the texts of those facts, and
    ``value(datum, **args)``, given the facts' arguments as keywords,
    returns ``(inputs, value)``.  Only ``note`` rows have value None; a
    ``strict`` global bound is exclusive; a row with a citation is an
    external input from the literature.
    """

    id: str
    scope: str                    # "global" | "vertex" | "away" | "upper" | "note"
    statement: str
    requires: tuple[Fact, ...]
    value: Callable[..., tuple]
    citation: Optional[str] = None
    strict: bool = False


def _tail_vertex(x, a_top, k, **_):
    n, d, a_second = x.n, x.d, x.sorted_weights[-2]
    # k >= 2 and n >= 3 make (n+1)/(d-a_top) the least of the three terms of
    # the inner min in the statement (test_tail_vertex_first_term_is_the_minimum)
    value = max(Fraction((n + 1) * a_second, d), Fraction(n + 1, d - a_top))
    return {"n": n, "d": d, "a_top": a_top, "a_second": a_second, "k": k}, value


def _eckardt_lower(x, a, k, **_):
    bound, exact = delta_eckardt(x.n, a, k)
    return {"n": x.n, "a": a, "k": k, "exact": exact}, bound


_TAIL = (B1_ON_X, TAIL_DEGREE, N_GE_3, QUASI_SMOOTH)
_ECKARDT = (ONE_WEIGHT, VERTEX_DEGREE, ECKARDT_VERTEX, QUASI_SMOOTH)

RULES: tuple[Rule, ...] = (
    Rule("external-divisible-weight", "global",
         "for a quasi-smooth hypersurface of degree d in a well-formed weighted "
         "projective space with a weight a_r > 1 dividing d, "
         "delta(X; O(1)) >= (n+1) a_r / d",
         (DIVIDES, QUASI_SMOOTH),
         lambda x, a_r, **_: ({"n": x.n, "d": x.d, "a_r": a_r},
                              Fraction((x.n + 1) * a_r, x.d)),
         citation="[ST24, Theorem 1.1]"),
    Rule("one-weight-gap", "global",
         "for a quasi-smooth hypersurface of degree d >= a+2 and dimension n >= 3 "
         "in P(1^(n+1), a) with a >= 2, delta(X; O(1)) >= (n+1)/(d-a)",
         (ONE_WEIGHT, D_GE_A_PLUS_2, N_GE_3),
         lambda x, a, **_: ({"n": x.n, "d": x.d, "a": a}, Fraction(x.n + 1, x.d - a))),
    Rule("tail-base-locus-away", "away",
         "with the weight-one base locus on X, at every point away from the last "
         "coordinate vertex delta_p(X; O(1)) >= (n+1) a_{n+1} / d",
         _TAIL,
         lambda x, a_top, **_: ({"n": x.n, "d": x.d, "a_top": a_top},
                                Fraction((x.n + 1) * a_top, x.d))),
    Rule("tail-base-locus-vertex", "vertex",
         "with the weight-one base locus on X, at the last coordinate vertex "
         "delta_p(X; O(1)) >= max((n+1) a_n/d, min((n+1)/(d-a_{n+1}), "
         "n(n+1)/(a_{n+1}k+n), (a_{n+1}k+1)(n+1)/(2 a_{n+1}k+1)))",
         _TAIL, _tail_vertex),
    Rule("two-weight-degree", "global",
         "for a quasi-smooth hypersurface of degree d >= b+2 and dimension n >= 2 "
         "in P(1^n, a, b) with 2 <= a <= b, delta(X; O(1)) >= (n+1) a / d",
         (TWO_WEIGHTS, D_GE_B_PLUS_2, N_GE_2),
         lambda x, a, b, **_: ({"n": x.n, "d": x.d, "a": a, "b": b},
                               Fraction((x.n + 1) * a, x.d))),
    Rule("one-weight-index-one", "global",
         "every quasi-smooth Fano hypersurface of index 1 and dimension n >= 3 in "
         "P(1^(n+1), a) with a >= 2 has delta(X; O(1)) >= (n+1)/n > 1 and is K-stable",
         (ONE_WEIGHT, INDEX_ONE, N_GE_3, QUASI_SMOOTH),
         lambda x, a, **_: ({"n": x.n, "d": x.d, "a": a}, Fraction(x.n + 1, x.n))),
    Rule("two-weight-index-one", "global",
         "every quasi-smooth Fano hypersurface of index 1 and dimension n >= 3 in "
         "P(1^n, a, b) with 2 <= a <= b has delta(X; O(1)) >= (n+1)/(n + 1/a) > 1 "
         "and is K-stable",
         (TWO_WEIGHTS, INDEX_ONE, N_GE_3, QUASI_SMOOTH),
         lambda x, a, b, **_: ({"n": x.n, "d": x.d, "a": a, "b": b},
                               Fraction((x.n + 1) * a, x.n * a + 1))),
    Rule("general-divisibility-stable", "global",
         "a general quasi-smooth Fano hypersurface of index 1 with at least "
         "(n+2)/2 weight-one coordinates and d = 1 mod a_i for every weight "
         "a_i > 1 is K-stable",
         (C1_HALF, INDEX_ONE, replace(N_GE_3, text=None), SOME_WEIGHT_ABOVE_1,
          ONE_MOD_EVERY_WEIGHT, GENERAL_MEMBER, QUASI_SMOOTH),
         lambda x, c1, **_: ({"n": x.n, "d": x.d, "c1": c1}, Fraction(1)),
         strict=True),
    Rule("eckardt-vertex-lower", "vertex",
         "at a generalized Eckardt vertex of a quasi-smooth X_(ak+1) in "
         "P(1^(n+1), a), delta_P(X; O(1)) >= min(n(n+1)/(ak+n), "
         "(ak+1)(n+1)/(2ak+1)), with equality to n(n+1)/(ak+n) when ak+1 >= n",
         _ECKARDT, _eckardt_lower),
    Rule("vertex-complement", "away",
         "for a quasi-smooth X_d in P(1^(n+1), a) containing the last coordinate "
         "vertex, every other point satisfies delta_p(X; O(1)) >= (n+1) a / d",
         (replace(ECKARDT_VERTEX, text=None), ONE_WEIGHT, VERTEX_DEGREE, QUASI_SMOOTH),
         lambda x, a, **_: ({"n": x.n, "a": a, "d": x.d}, Fraction((x.n + 1) * a, x.d))),
    Rule("eckardt-vertex-upper", "upper",
         "the exceptional divisor of the vertex blowup gives "
         "delta(X; O(1)) <= delta_P(X; O(1)) <= A(E)/S(E) = n(n+1)/(ak+n)",
         _ECKARDT,
         lambda x, a, k, **_: ({"n": x.n, "a": a, "k": k},
                               Fraction(x.n * (x.n + 1), a * k + x.n))),
    Rule("eckardt-unstable", "note",
         "since n > a^2 k (k-1)/(a-1), the anticanonical bound "
         "n(n+1)/((n+a-ak)(ak+n)) is < 1 and X is K-unstable",
         (replace(ECKARDT_VERTEX, text=None), UNSTABLE),
         lambda x, witness, **_: ({"witness": witness}, None)),
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
        args = _HOLDS
        for fact in rule.requires:
            got = fact.check(datum, b1, eckardt)
            if got is None:
                break
            args = {**args, **got}
        if got is None:
            continue
        inputs, value = rule.value(datum, **args)
        hypotheses = tuple(f.text.format_map(args) for f in rule.requires if f.text)
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
