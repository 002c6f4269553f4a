"""Exact moment integrals over the flag regions of the Eckardt-vertex case.

For a degree d = a*k + 1 hypersurface X of dimension n in P(1^(n+1), a)
whose vertex P = [0:...:0:1] is a generalized Eckardt point, the values
S(O_X(1); Y_1 > ... > Y_j) along the standard flag through the exceptional
divisor reduce to moments of the region

    D_{n,1} = { x_1 <= 1/a,               x_2 + ... + x_n < a x_1 }
    D_{n,2} = { 1/a < x_1 < (ak+1)/a,     x_2 + ... + x_n < ((ak+1)/a - x_1)/k }

normalized by n! a / (ak+1).  The inner integrals over the simplex
{x_2 + ... + x_n < t} have the closed forms vol = t^(n-1)/(n-1)! and
integral of a single coordinate = t^n/n!, which reduces everything to 1D
integrals in x_1.  One affine substitution per piece, x_1 = t/a on the
first and x_1 = (ak+1)/a - k t on the second, makes the simplex size t on
both, with t in [0, 1]; every integrand is then a polynomial in t, and
each of its terms integrates to 1/(e+1) for t^e; each S-value is built
as one Fraction (see ``_flag_integrals``).  Only three distinct S-values
exist per (n, a, k), so they are computed together once.  ``Poly1D`` is the
tests' dense integrator, the independent check of ``_flag_integrals`` and of
the region's volume (ak+1)/(a n!); the benchmark counts its products, and
its coefficients and bounds are exact (``lattice.as_rational``).

Every certified Eckardt value is A/S over these integrals, the step of
Abban-Zhuang, with log discrepancy n/a for the exceptional divisor E and 1
for the other flag members: the local bound of :func:`delta_eckardt`, the
upper bound A(E)/S(E) and the witness of :func:`unstable_check`.  The
paper's closed forms of the S-values are the cross-check; only
``s_value_closed_form`` and :func:`moment_table` read them.  The table
holds one exact :class:`MomentRecord` per (n, a, k); :func:`row_layout` is
the one statement of how its 2n rows, in ``TABLE_HEADER`` order, read the
record's three entries.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from typing import Iterator, NamedTuple, Optional

from .lattice import as_integer, as_rational

MAX_DIMENSION = 64
TABLE_HEADER = ("n", "a", "k", "j", "q_in_W1", "S", "closed_form", "match")


class Poly1D:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [as_rational(c, "coefficient") for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    def __mul__(self, other: "Poly1D") -> "Poly1D":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly1D(out)

    def power(self, e: int) -> "Poly1D":
        out = Poly1D([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def integral(self, lo: Fraction, hi: Fraction) -> Fraction:
        total = Fraction(0)
        lo = as_rational(lo, "lower bound")
        hi = as_rational(hi, "upper bound")
        for i, c in enumerate(self.coeffs):
            if c:
                total += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
        return total


def _validate(n: int, a: int, k: int, j: int = 1) -> None:
    if as_integer(n, "dimension n") < 2:
        raise ValueError("dimension must be at least 2")
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension bounded by {MAX_DIMENSION}")
    if as_integer(a, "a") < 1 or as_integer(k, "k") < 1:
        raise ValueError("a and k must be positive integers")
    if not 1 <= as_integer(j, "flag depth j") <= n:
        raise ValueError("flag depth j must satisfy 1 <= j <= n")


def _flag_integrals(n: int, a: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three distinct S-values of (n, a, k), integrated over the region.

    Returns (S for j = 1, S for 2 <= j <= n, S for j = n with the point on
    W_1).  Integrands: x t^(n-1)/(n-1)! for j = 1, t^n/n! for j >= 2, plus
    (x - 1/a)/k * t^(n-1)/(n-1)! on the second piece for W_1, in the simplex
    size t of the module docstring: x = t/a, dx = dt/a on the first piece,
    x = top - k t, dx = -k dt (t from 1 down to 0) on the second, where
    top = (ak+1)/a.  With t^(n-1) and t^n integrating to 1/n and 1/(n+1),
    every term is an integer over the common denominator a^2 n (n+1).  The
    normalizer n! a/(ak+1), over the (n-1)! of the integrands, is
    n a/(ak+1); folded in, it leaves the denominator (ak+1) a (n+1), so each
    S-value is built as one Fraction.
    """
    den = (a * k + 1) * a * (n + 1)
    # x t^(n-1): (t/a) t^(n-1) dt/a gives t_n/a^2 = n; (top - k t) t^(n-1) k dt
    # gives k top t_(n-1) = k (ak+1) a (n+1), less k^2 t_n = k^2 a^2 n
    first = n + k * (a * k + 1) * a * (n + 1) - k * k * a * a * n
    # t^n/n! = (t^n/n)/(n-1)!, and dt/a plus k dt is top dt: top t_n/n = (ak+1) a
    rest = (a * k + 1) * a
    # on the second piece (x - 1/a)/k = 1 - t, with k dt: k t_(n-1) = k a^2 (n+1),
    # less k t_n = k a^2 n
    on_w1 = rest + k * a * a * (n + 1) - k * a * a * n
    return Fraction(first, den), Fraction(rest, den), Fraction(on_w1, den)


def _closed_forms(n: int, a: int, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """The paper's closed forms in the order of :func:`_flag_integrals`:
    (ak+n)/(a(n+1)), 1/(n+1) and (2ak+1)/((ak+1)(n+1))."""
    return (Fraction(a * k + n, a * (n + 1)), Fraction(1, n + 1),
            Fraction(2 * a * k + 1, (a * k + 1) * (n + 1)))


def _entry(n: int, j: int, q_in_w1: bool) -> int:
    """The index in a (first, rest, on_w1) triple that flag depth j selects."""
    if j == 1:
        return 0
    return 2 if q_in_w1 and j == n else 1


def _pick(values: tuple, n: int, j: int, q_in_w1: bool):
    """The entry of a (first, rest, on_w1) triple that flag depth j selects."""
    return values[_entry(n, j, q_in_w1)]


def row_layout(n: int) -> tuple[tuple[int, bool, int], ...]:
    """The 2n table rows of a dimension-n record, in table order: each row's
    (j, q_in_W1) and the index of the entry it reads, as ``_pick`` selects."""
    return tuple((j, q, _entry(n, j, q)) for j in range(1, n + 1) for q in (False, True))


def s_value(n: int, a: int, k: int, j: int, q_in_w1: bool = False) -> Fraction:
    """S(O_X(1); Y_1 > ... > Y_j) by exact symbolic integration.

    The flag runs through the exceptional divisor; j = n additionally
    distinguishes whether the final point lies on the residual hypersurface
    W_1 (the ``q_in_w1`` flag).  Integration is reduced by the simplex
    closed forms to polynomials in t over [0, 1] (see ``_flag_integrals``).
    """
    _validate(n, a, k, j)
    return _pick(_flag_integrals(n, a, k), n, j, q_in_w1)


def s_value_closed_form(n: int, a: int, k: int, j: int, q_in_w1: bool = False) -> Fraction:
    """Closed forms: (ak+n)/(a(n+1)) for j = 1, (2ak+1)/((ak+1)(n+1)) for
    j = n with the point on W_1, and 1/(n+1) otherwise."""
    _validate(n, a, k, j)
    return _pick(_closed_forms(n, a, k), n, j, q_in_w1)


def delta_eckardt(n: int, a: int, k: int) -> tuple[Fraction, bool]:
    """Lower bound for the local threshold at a generalized Eckardt vertex.

    Returns (bound, exact): the least A/S over ``_flag_integrals`` with log
    discrepancies (n/a, 1, 1), min{n(n+1)/(ak+n), (ak+1)(n+1)/(2ak+1)}; the
    flag is exact (the bound equals the threshold) whenever d = ak+1 >= n.
    """
    _validate(n, a, k)
    ratios = [A / S for A, S in zip((Fraction(n, a), 1, 1), _flag_integrals(n, a, k))]
    exact = a * k + 1 >= n
    if exact and min(ratios) != ratios[0]:
        raise AssertionError("exact case must realize the vertex ratio")
    return min(ratios), exact


class UnstableReport(NamedTuple):
    """Outcome of the Eckardt-vertex instability criterion."""

    n: int
    a: int
    k: int
    index: int
    verdict: str                       # "K-unstable" or "inconclusive"
    witness: Optional[Fraction]        # certified upper bound for delta(X) when unstable
    criterion_rhs: Fraction            # a^2 k (k-1) / (a-1)


def unstable_check(n: int, a: int, k: int) -> UnstableReport:
    """K-instability from a generalized Eckardt vertex.

    For a >= 2 the variety is K-unstable as soon as n > a^2 k (k-1)/(a-1),
    with certified witness delta(X) <= A(E)/S(E) / (n+a-ak) < 1, which is
    n(n+1) / ((n+a-ak)(ak+n)).  Requires a Fano index n + a - ak >= 1.
    """
    _validate(n, a, k)
    if a < 2:
        raise ValueError("the instability criterion needs a >= 2")
    index = n + a - a * k
    if index <= 0:
        raise ValueError(f"index n + a - a*k = {index} is not positive; not a Fano datum")
    rhs = Fraction(a * a * k * (k - 1), a - 1)
    if n > rhs:
        witness = Fraction(n, a) / s_value(n, a, k, 1) / index
        if witness >= 1:
            raise AssertionError("instability witness must be < 1 when the criterion holds")
        return UnstableReport(n, a, k, index, "K-unstable", witness, rhs)
    return UnstableReport(n, a, k, index, "inconclusive", None, rhs)


class MomentRecord(NamedTuple):
    """The table's values of one (n, a, k), each triple in the order of
    :func:`_flag_integrals`; :func:`row_layout` lays them out as 2n rows."""

    n: int
    a: int
    k: int
    s: tuple[Fraction, Fraction, Fraction]
    closed_form: tuple[Fraction, Fraction, Fraction]
    match: tuple[bool, bool, bool]     # s == closed_form, entry by entry


def moment_table(n_range, a_range, k_range) -> Iterator[MomentRecord]:
    """One exact record per (n, a, k), n outermost: its three integrals, three
    closed forms and three comparisons, each computed once for its 2n rows.

    A triple's checks read each entry alone: each entry is checked once, with
    the others' first entries, raising what the first faulty triple would.
    """
    if n_range and a_range and k_range:
        n0, a0, k0 = n_range[0], a_range[0], k_range[0]
        for triple in chain(((n0, a0, k) for k in k_range), ((n0, a, k0) for a in a_range),
                            ((n, a0, k0) for n in n_range)):
            _validate(*triple)
    for n in n_range:
        for a in a_range:
            for k in k_range:
                integrals = _flag_integrals(n, a, k)
                closed = _closed_forms(n, a, k)
                yield MomentRecord(n, a, k, integrals, closed,
                                   tuple(map(operator.eq, integrals, closed)))
