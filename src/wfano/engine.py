"""Rule-based lower-bound certificates for stability thresholds.

Input is a Fano datum: an ambient weight vector, a degree, and structural
flags (a generalized Eckardt vertex, its escape level, the weight-one base
locus containment, generality of the member), all caller-asserted and
recorded.  Quasi-smoothness of the member is a standing assumption of
every rule; a datum of a bad shape or with contradictory assertions is
refused when it is built, and :class:`FanoDatum` then resolves the
weight-one base locus containment and the Eckardt vertex.
The rules are data: :data:`RULES` is one table of :class:`Rule` rows,
each listing the :class:`Fact` preconditions it requires; a fact reads
the datum alone, and the trace records its text as a hypothesis.
:func:`certify` folds in table order over the rows that the datum's
weight shape (one weight > 1, two, or any other) admits, combines the
bounds that fired (maximum of lower bounds, local bounds combined over a
vertex/away split), converts between the O(1) and anticanonical
polarizations exactly, and records what fired.  The audit trace is
rendered from that record when :attr:`DeltaCertificate.trace` is read, so
a sweep that reads only the bounds, the verdict and the fired rule ids
never renders it.  Likewise the reasons of the weight-one containment
derivation are (template, args) pairs, formatted only where they are
read: by :func:`derive_b1`, by the message of a
:class:`ContradictoryFlagsError`, or by the trace; a sweep formats none.

External inputs from the literature are separate rows tagged EXTERNAL and
carry their own citation strings; they are never merged silently.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from .lattice import WeightVector, _Value, as_integer, fano_index
from .moments import delta_eckardt, s_value, unstable_check


class NonFanoError(ValueError):
    """The datum has nonpositive index, so no verdict is possible."""


class ContradictoryFlagsError(ValueError):
    """Asserted flags force an empty family or contradictory bounds."""


class Flags(_Value):
    """Caller-asserted structural information about the member."""

    __slots__ = _fields = ("eckardt_at_p", "m", "b1_in_x", "general_member")

    def __init__(self, eckardt_at_p: bool = False, m: Optional[int] = None,
                 b1_in_x: str = "unknown", general_member: bool = False):
        if b1_in_x not in ("yes", "no", "unknown"):
            raise ValueError("b1_in_x must be yes, no or unknown")
        if not isinstance(eckardt_at_p, bool):
            raise ValueError(f"eckardt_at_p must be a bool, not {eckardt_at_p!r}")
        if not isinstance(general_member, bool):
            raise ValueError(f"general_member must be a bool, not {general_member!r}")
        if m is not None and as_integer(m, "escape level m") < 1:
            raise ValueError("escape level m must be >= 1")
        for name, value in zip(self._fields, (eckardt_at_p, m, b1_in_x, general_member)):
            object.__setattr__(self, name, value)


MAX_DEGREE = 10**6        # derive_b1's knapsack holds a bitset of d + 1 bits


class FanoDatum(_Value):
    """A weighted hypersurface family: ambient P(a_0,...,a_{n+1}), degree d.

    Construction refuses, in order: a degree that is not a positive integer,
    fewer than three weights, a P that is not well-formed, (as
    :class:`NonFanoError`) an index sum(a_i) - d that is not positive, a
    degree above :data:`MAX_DEGREE`, and (as :class:`ContradictoryFlagsError`)
    an asserted ``b1_in_x`` that contradicts the derived containment or an
    Eckardt vertex asserted together with an escape level m != k.

    What every fact reads is computed once, at construction, outside the
    ``_fields``: the dimension ``n``, the Fano ``index`` sum(a_i) - d, the
    ascending ``sorted_weights`` and ``c1``, the number of weight-one
    entries (the weights > 1 are ``sorted_weights[c1:]``); ``b1``, the
    weight-one containment, derived where it can be and asserted otherwise,
    with ``b1_note`` its derivation for the trace (None if undecided); and
    ``eckardt``, k in d = ak + 1 when the last vertex of P(1^(n+1), a),
    n >= 2, is a generalized Eckardt point (asserted, or m = k), else None.
    On any other shape, curves included, the Eckardt assertion is ignored.
    """

    __slots__ = ("ambient", "d", "flags", "n", "index", "sorted_weights", "c1",
                 "b1", "b1_note", "eckardt")
    _fields = ("ambient", "d", "flags")

    def __init__(self, ambient: WeightVector, d: int, flags: Flags = Flags()):
        index = fano_index(ambient, d)        # checks the degree first
        if len(ambient) < 3:
            raise ValueError("a hypersurface datum needs at least three weights")
        ambient.require_well_formed()
        if index <= 0:
            raise NonFanoError(f"index sum(a_i) - d = {index} is not positive")
        if d > MAX_DEGREE:
            raise ValueError(f"degree {d} exceeds the limit {MAX_DEGREE}")
        w = tuple(sorted(ambient.weights))
        setattr_ = object.__setattr__
        setattr_(self, "ambient", ambient)
        setattr_(self, "d", d)
        setattr_(self, "flags", flags)
        setattr_(self, "n", len(w) - 2)
        setattr_(self, "index", index)
        setattr_(self, "sorted_weights", w)
        setattr_(self, "c1", w.count(1))
        b1, b1_note = flags.b1_in_x, None
        derived, reasons = _decide_b1(self)
        if derived != "unknown":
            if derived == "contradiction":
                b1, statement = "unknown", (_B1_CONTRADICTION, ())
            elif b1 in ("unknown", derived):
                b1, statement = derived, (_B1_DERIVED, (derived,))
            else:
                raise ContradictoryFlagsError(
                    f"asserted b1_in_x={b1} contradicts the derived value {derived}: "
                    + "; ".join(_b1_text(*reason) for reason in reasons))
            b1_note = (statement, reasons)
        eckardt = None
        for fact in (N_GE_2, ONE_WEIGHT, VERTEX_DEGREE):   # they read neither b1 nor eckardt
            if (got := fact.check(self)) is None:
                break
        else:
            m, k = flags.m, got["k"]
            if m is not None and m != k and flags.eckardt_at_p:
                raise ContradictoryFlagsError(
                    f"eckardt_at_P asserted but escape level m={m} != k={k}")
            if m == k or flags.eckardt_at_p:
                eckardt = k
        setattr_(self, "b1", b1)
        setattr_(self, "b1_note", b1_note)
        setattr_(self, "eckardt", eckardt)


class TraceEntry(NamedTuple):
    """One audited step: which rule fired, on what, with what output."""

    rule_id: str
    statement: str
    citation: Optional[str]
    external: bool
    scope: str                    # "global" | "vertex" | "away" | "upper" | "note"
    hypotheses: tuple[str, ...]
    inputs: dict
    output: Optional[str]


class DeltaCertificate(NamedTuple):
    """A certified bound for delta(X; O(1)) with verdict and audit record.

    ``bound`` is a lower bound (exclusive when ``strict``); ``upper`` is a
    certified upper bound when an instability rule fired.  Anticanonical
    values are the O(1) values divided by the index, exactly.

    The record is the datum's ``b1_note``, the statement and reasons of the
    weight-one containment derivation (None when it was not decided), and
    what :func:`certify` saw fire: ``fired``, one ``(rule, args, inputs,
    value)`` per rule that fired, in table order, with ``args`` the
    arguments of the rule's facts.  The statement and each reason of
    ``b1_note`` are (template, args) pairs, unformatted.  :attr:`trace`
    renders the audit trace from the record, formatting them.
    """

    polarization: str
    bound: Fraction
    strict: bool
    upper: Optional[Fraction]
    verdict: str                  # "K-stable" | "K-unstable" | "inconclusive"
    index: int
    b1_note: Optional[tuple[tuple[str, tuple], tuple[tuple[str, tuple], ...]]]
    fired: tuple[tuple[Rule, dict, dict, Optional[Fraction]], ...]

    @property
    def trace(self) -> tuple[TraceEntry, ...]:
        """The audit trace, rendered on each read: the b1 note first, then
        one entry per fired rule, its hypotheses the texts of its facts
        formatted with their arguments and its output the value as a
        string (None for a note)."""
        notes = () if self.b1_note is None else (
            TraceEntry("b1-derivation", _b1_text(*self.b1_note[0]), None, False, "note",
                       tuple(_b1_text(*reason) for reason in self.b1_note[1]), {}, None),)
        return notes + tuple(
            TraceEntry(rule.id, rule.statement, rule.citation, rule.citation is not None,
                       rule.scope,
                       tuple(f.text.format_map(args) for f in rule.requires if f.text),
                       inputs, None if value is None else str(value))
            for rule, args, inputs, value in self.fired)

    @property
    def anticanonical_bound(self) -> Fraction:
        return self.bound / self.index

    @property
    def anticanonical_upper(self) -> Optional[Fraction]:
        return None if self.upper is None else self.upper / self.index


class B1Result(NamedTuple):
    verdict: str                  # "yes" | "no" | "unknown" | "contradiction"
    reasons: tuple[str, ...]


def _representable(d: int, parts: tuple[int, ...]) -> bool:
    """Whether d >= 0 is a nonnegative integer combination of the given parts.

    A part that divides d answers at once, and so does Sylvester's theorem
    (J. J. Sylvester, 1884): for coprime parts a, b every integer
    >= (a-1)(b-1) is a nonnegative combination of a and b, the largest that
    is not being ab - a - b.  Otherwise bit v of ``reach`` says v is a
    combination of the parts seen so far.  Shifting by p, 2p, 4p, ... while
    the step is at most d adds every multiple of p up to d, so each part
    costs O(log d) big-int operations.
    """
    for p in parts:
        if d % p == 0:
            return True
    for a, b in itertools.combinations(parts, 2):
        if d >= (a - 1) * (b - 1) and math.gcd(a, b) == 1:
            return True
    mask = (1 << (d + 1)) - 1
    reach = 1
    for p in parts:
        step = p
        while step <= d:
            reach |= (reach << step) & mask
            step *= 2
    return bool(reach >> d & 1)


def _b1_text(template: str, args: tuple) -> str:
    """A b1 reason or statement, formatted when it is read: by :func:`derive_b1`,
    by a :class:`ContradictoryFlagsError` message, or by
    :attr:`DeltaCertificate.trace`."""
    return template.format(*args)


_B1_DERIVED = "weight-one base locus containment derived: {}"
_B1_CONTRADICTION = ("the containment rules for the weight-one base locus contradict each "
                     "other, so no quasi-smooth member with this datum exists; the "
                     "certificate is vacuously sound")


def _decide_b1(datum: FanoDatum) -> tuple[str, tuple[tuple[str, tuple], ...]]:
    """The verdict of :func:`derive_b1` and its reasons, each a (template,
    args) pair that :func:`_b1_text` formats."""
    n, d, c1 = datum.n, datum.d, datum.c1
    big = datum.sorted_weights[c1:]
    no_reasons = ()
    if n + 1 >= 2 * c1:
        no_reasons = (("n+1 = {} >= 2*c1 = {}: locus too large to lie on X", (n + 1, 2 * c1)),)
    for a in big:
        if d % a != 1:
            no_reasons += (("d = {} is {} mod {}, not 1", (d, d % a, a)),)
            break
    if not _representable(d, big):
        yes = (("degree is not a nonnegative combination of the weights > 1, so every "
                "monomial of degree d vanishes on the weight-one locus", ()),)
        return ("contradiction", yes + no_reasons) if no_reasons else ("yes", yes)
    return ("no", no_reasons) if no_reasons else ("unknown", ())


def derive_b1(datum: FanoDatum) -> B1Result:
    """Decide whether the weight-one base locus lies on the hypersurface.

    Sound rules under the quasi-smoothness assertion:
      (1) if n + 1 >= 2*c1 the locus is too large to lie on X: "no";
      (2) if d is not a nonnegative combination of the weights > 1, every
          monomial of degree d uses a weight-one variable: "yes";
      (3) containment forces d = 1 mod a_j for every weight a_j > 1, so a
          violation gives "no".
    When (2) fires together with (1) or (3) the asserted family is empty.
    The decision is :func:`_decide_b1`, which :class:`FanoDatum` calls
    when it is built and which leaves its reasons unformatted; they are
    formatted here, for the callers that read them.
    """
    verdict, reasons = _decide_b1(datum)
    return B1Result(verdict, tuple(_b1_text(*reason) for reason in reasons))


class Fact(NamedTuple):
    """A precondition of a rule; ``name`` is its word in a small vocabulary.

    ``check(datum)`` returns the fact's arguments, a dict, when the fact
    holds and None when it fails; it reads the datum alone, the resolved
    ``b1`` and ``eckardt`` included.  ``text`` formats the arguments into
    the hypothesis the trace records; a fact the trace does not record has
    no text.
    """

    name: str
    check: Callable[[FanoDatum], Optional[dict]]
    text: Optional[str] = None


_HOLDS: dict = {}                  # the arguments of a fact that has none; never mutated


def _largest_dividing_weight(x):
    for a in reversed(x.sorted_weights[x.c1:]):
        if x.d % a == 0:
            return {"a_r": a, "d": x.d}
    return None


def _top_degree(k_min):
    """The check that d = k a_top + 1 with k >= k_min."""
    def check(x):
        a = x.sorted_weights[-1]
        if x.d % a == 1 and x.d > k_min * a:
            return {"d": x.d, "k": (x.d - 1) // a, "a_top": a}
        return None
    return check


def _degree_gap(x):
    bound = x.sorted_weights[-1] + 2
    return {"d": x.d, "bound": bound} if x.d >= bound else None


def _unstable(x):
    report = unstable_check(x.n, x.sorted_weights[-1], x.eckardt)
    if report.verdict == "K-unstable":
        return {"n": x.n, "rhs": report.criterion_rhs, "witness": report.witness}
    return None


QUASI_SMOOTH = Fact("asserted_flag", lambda x: _HOLDS, "quasi-smooth asserted")
GENERAL_MEMBER = Fact("asserted_flag",
                      lambda x: _HOLDS if x.flags.general_member else None,
                      "general member asserted")
ECKARDT_VERTEX = Fact("asserted_flag", lambda x: None if x.eckardt is None else _HOLDS,
                      "generalized Eckardt vertex asserted")
B1_ON_X = Fact("b1", lambda x: _HOLDS if x.b1 == "yes" else None,
               "weight-one base locus lies on X")
N_GE_2 = Fact("ge", lambda x: _HOLDS if x.n >= 2 else None, "n >= 2")
N_GE_3 = Fact("ge", lambda x: _HOLDS if x.n >= 3 else None, "n >= 3")
SOME_WEIGHT_ABOVE_1 = Fact("ge", lambda x: _HOLDS if x.c1 < x.n + 2 else None)
C1_HALF = Fact("ge", lambda x: {"c1": x.c1} if 2 * x.c1 >= x.n + 2 else None,
               "c1 = {c1} >= (n+2)/2")
D_GE_A_PLUS_2 = Fact("ge", _degree_gap, "d = {d} >= a+2 = {bound}")
D_GE_B_PLUS_2 = Fact("ge", _degree_gap, "d = {d} >= b+2 = {bound}")
INDEX_ONE = Fact("index_eq", lambda x: _HOLDS if x.index == 1 else None, "index 1")
ONE_WEIGHT = Fact(
    "weights_shape", lambda x: ({"c1": x.c1, "a": x.sorted_weights[-1]}
                                if x.c1 == x.n + 1 else None),
    "weights are (1^{c1}, {a})")
TWO_WEIGHTS = Fact(
    "weights_shape", lambda x: ({"c1": x.c1, "a": x.sorted_weights[-2],
                                 "b": x.sorted_weights[-1]} if x.c1 == x.n else None),
    "weights are (1^{c1}, {a}, {b})")
DIVIDES = Fact("divides", _largest_dividing_weight, "a_r = {a_r} divides d = {d}")
TAIL_DEGREE = Fact("congruent", _top_degree(2), "d = {d} = {k}*{a_top}+1 > a_top+1")
VERTEX_DEGREE = Fact("congruent", _top_degree(1), "d = {d} = {k}*{a_top}+1")
ONE_MOD_EVERY_WEIGHT = Fact(
    "congruent",
    lambda x: _HOLDS if all(x.d % a == 1 for a in x.sorted_weights[x.c1:]) else None,
    "d = 1 mod a_i for all weights a_i > 1")
UNSTABLE = Fact("unstable", _unstable, "n = {n} > a^2 k(k-1)/(a-1) = {rhs}")


class Rule(NamedTuple):
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
         (C1_HALF, INDEX_ONE, N_GE_3._replace(text=None), SOME_WEIGHT_ABOVE_1,
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
         (ECKARDT_VERTEX._replace(text=None), ONE_WEIGHT, VERTEX_DEGREE, QUASI_SMOOTH),
         lambda x, a, **_: ({"n": x.n, "a": a, "d": x.d}, Fraction((x.n + 1) * a, x.d))),
    Rule("eckardt-vertex-upper", "upper",
         "the exceptional divisor of the vertex blowup gives "
         "delta(X; O(1)) <= delta_P(X; O(1)) <= A(E)/S(E) = n(n+1)/(ak+n)",
         _ECKARDT,
         lambda x, a, k, **_: ({"n": x.n, "a": a, "k": k},
                               Fraction(x.n, a) / s_value(x.n, a, k, 1))),
    Rule("eckardt-unstable", "note",
         "since n > a^2 k (k-1)/(a-1), the anticanonical bound "
         "n(n+1)/((n+a-ak)(ak+n)) is < 1 and X is K-unstable",
         (ECKARDT_VERTEX._replace(text=None), UNSTABLE),
         lambda x, witness, **_: ({"witness": witness}, None)),
)


def _rule_shape(rule: Rule) -> int:
    """The number of weights > 1 a datum needs for every fact of ``rule`` to
    hold: 1 when a fact checks ONE_WEIGHT or ECKARDT_VERTEX (the Eckardt
    vertex has a ``k`` only on that shape), 2 when one checks TWO_WEIGHTS,
    0 when the row admits any shape.  A ``fact._replace(text=None)`` copy
    shares the check of its fact."""
    checks = {fact.check for fact in rule.requires}
    if ONE_WEIGHT.check in checks or ECKARDT_VERTEX.check in checks:
        return 1
    return 2 if TWO_WEIGHTS.check in checks else 0


# (the RULES it indexes, per shape 0, 1, 2 the rows that shape admits)
_by_shape: tuple = (None, ())


def _shape_rules(shape: int) -> tuple[Rule, ...]:
    """The rows of :data:`RULES` that a datum of ``shape`` admits, in table
    order: shape 1 or 2 is the number of weights > 1, 0 any other.  The
    index is rebuilt whenever ``RULES`` is rebound."""
    global _by_shape
    if _by_shape[0] is not RULES:
        _by_shape = (RULES, tuple(tuple(rule for rule in RULES if _rule_shape(rule) in (0, s))
                                  for s in range(3)))
    return _by_shape[1][shape]


_ZERO = Fraction(0)


def certify(datum: FanoDatum) -> DeltaCertificate:
    """Best available certified bound for delta(X; O(1)) and the verdict.

    The datum is trusted as built: its construction resolved the weight-one
    containment and the Eckardt vertex and refused contradictory
    assertions.  Every row of :data:`RULES` that fires is recorded, in
    table order, with its facts' arguments, inputs and value.  Only the
    rows that the datum's weight shape admits are visited
    (:func:`_shape_rules`); every other row has a fact that fails on that
    shape.  No trace entry is built here: the certificate renders its trace
    when it is read.
    The emitted bound is the maximum of the global lower bounds and of
    min(best vertex bound, best away bound) when a vertex/away split is
    available.  The verdict is taken against the anticanonical
    polarization: strict bound > 1 gives K-stable, a certified upper bound
    < 1 gives K-unstable.  The one refusal left here is a certified lower
    bound above a certified upper bound.
    """
    idx, fired = datum.index, []
    big = datum.n + 2 - datum.c1                        # the number of weights > 1
    lower, strict, vertex, away, upper = _ZERO, False, None, None, None
    for rule in _shape_rules(big if big <= 2 else 0):
        args = _HOLDS
        for fact in rule.requires:
            got = fact.check(datum)
            if got is None:
                break
            if got:
                args = {**args, **got}
        if got is None:
            continue
        inputs, value = rule.value(datum, **args)
        fired.append((rule, args, inputs, value))
        scope = rule.scope
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
    return DeltaCertificate("O(1)", lower, strict, upper, verdict, idx, datum.b1_note,
                            tuple(fired))


# ---------------------------------------------------------------------------
# deterministic enumeration


ENUM_LIMITS = {"max_n": 24, "max_weight": 40, "max_rows": 200_000}


class EnumerationRow(NamedTuple):
    """One certified datum of a sweep.  A sweep reads the bounds, the
    verdict and :meth:`fired_rules`, so it never renders a trace."""

    datum: FanoDatum
    certificate: DeltaCertificate

    def fired_rules(self) -> tuple[str, ...]:
        """The ids of the rules that fired, notes left out, in table order."""
        return tuple([rule.id for rule, _, _, _ in self.certificate.fired if rule.scope != "note"])


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
    :class:`FanoDatum` ignores the Eckardt assertion where the last vertex is
    not of Eckardt shape, as for a single datum.  The arguments and the row
    limit are checked at the first pull, before the first row is certified.
    The limit bounds the gcd-1 candidates, counted exactly by
    :func:`_coprime_tuple_count` (all C(M+n+1, n+2) ascending tuples, less
    those of gcd g >= 2, which are g times a gcd-1 tuple up to M/g) without
    listing them.  The candidates are then generated lazily, and the rows
    are yielded as they are certified: a tuple that is not well-formed is
    skipped, and every other refusal is one caught ``ValueError``.
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
    yield from _certified_rows(tuples, index, degree, eckardt, general)


def _certified_rows(tuples, index, degree, eckardt, general) -> Iterator[EnumerationRow]:
    """The rows of :func:`enumerate_data` for an iterable of ascending gcd-1
    ``tuples``."""
    flags = Flags(eckardt_at_p=eckardt, general_member=general)
    for t in tuples:
        w = WeightVector(t)
        if not w.is_well_formed:   # 1,828 of the bench sweep's 8,044; skipping them early pays
            continue
        d = sum(t) - index if index is not None else degree
        try:
            datum = FanoDatum(ambient=w, d=d, flags=flags)
            cert = certify(datum)
        except ValueError:         # refused when built (d < 1, index <= 0), or lower > upper
            continue
        yield EnumerationRow(datum, cert)
