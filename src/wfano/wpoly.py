"""Sparse graded polynomials over exact rationals.

Two gradings share one implementation.  A polynomial on P(a_0,...,a_s) has
the degree sum(a_i*e_i) of its monomials; a polynomial in the Cox ring of a
standard weighted blowup (strict transforms) has the class (alpha, beta) in
Z^2.  Each type states only the grade of one monomial and its blocks of
variables.  The one constructor grades each term once, checks that the
grades agree and keeps the common grade; :meth:`_GradedPoly.from_dict`
only sums equal monomials before calling it.  Evaluation, differentiation
and the irrelevant locus (some block all zero) are shared.  Coefficients are
:class:`fractions.Fraction`; exponent vectors are dense integer tuples and
terms are kept in lexicographic order for deterministic serialization.

Quasi-smoothness is not decided for arbitrary polynomials.  The checker
has two exact tiers: tests at supplied points and combinatorial tests at
the coordinate points.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .blowup import BiDegree, BlowupFrame, build
from .lattice import WeightVector, _Value, as_rational


_COEFF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_VAR_RE = re.compile(r"^([xy])(\d+)(?:\^(\d+))?$|^(z)(?:\^(\d+))?$")


def _parse_terms(text: str, variables: Sequence[str], unknown: str):
    """Shared text parser: terms joined by +/-, factors joined by '*'.

    Yields (exponents, coefficient) per term, exponents indexed like
    ``variables``; a variable outside them raises ``unknown`` formatted with
    its name.
    """
    index = {v: i for i, v in enumerate(variables)}
    t = text.replace(" ", "").replace("−", "-")
    if not t:
        raise ValueError("empty polynomial text")
    if t[0] not in "+-":
        t = "+" + t
    pos = 0
    while pos < len(t):
        sign = -1 if t[pos] == "-" else 1
        pos += 1
        end = pos
        while end < len(t) and t[end] not in "+-":
            end += 1
        chunk = t[pos:end]
        pos = end
        if not chunk:
            raise ValueError("dangling sign in polynomial text")
        coeff = Fraction(sign)
        exps = [0] * len(variables)
        for factor in chunk.split("*"):
            if _COEFF_RE.match(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in coefficient {factor!r}")
                continue
            m = _VAR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            name = m.group(4) or f"{m.group(1)}{int(m.group(2))}"
            if name not in index:
                raise ValueError(unknown.format(name))
            exps[index[name]] += int(m.group(3) or m.group(5) or 1)
        yield tuple(exps), coeff


def _mono_text(exps: Sequence[int], variables: Sequence[str]) -> str:
    """A monomial as "x0^2*x3"; "1" for the constant monomial."""
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(variables, exps) if e) or "1"


class _GradedPoly(_Value):
    """A nonzero polynomial all of whose terms have one grade in ``space``.

    A subclass states ``grade_of(space, exps)``, the grade of the monomial
    x^exps, ``arity(space)``, its number of variables, and ``blocks(space)``,
    its variable names grouped into the blocks whose common vanishing is the
    irrelevant locus.  The constructor takes ``(space, terms)``, grades each
    term once and keeps the common grade as ``grade``.  Names are built only
    for text and error messages.
    """

    __slots__ = ("space", "terms", "grade")
    _fields = ("space", "terms")

    def __init__(self, space: Union[WeightVector, BlowupFrame],
                 terms: Sequence[tuple[tuple[int, ...], Fraction]]):
        terms = tuple(sorted((exps, as_rational(c, "coefficient")) for exps, c in terms))
        if not terms:
            raise ValueError("polynomial is zero")
        arity = self.arity(space)
        if any(len(exps) != arity or coeff == 0 for exps, coeff in terms):
            raise ValueError("malformed term")
        graded = sorted((self.grade_of(space, exps), exps) for exps, _ in terms)
        (g0, k0), (g1, k1) = graded[0], graded[-1]
        if g0 != g1:
            names = self.variables(space)
            raise ValueError(
                f"inhomogeneous polynomial: term {_mono_text(k0, names)} has degree {g0} "
                f"but term {_mono_text(k1, names)} has degree {g1}"
            )
        for name, value in zip(_GradedPoly.__slots__, (space, terms, g0)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, space, terms):
        """The polynomial sum c*x^e over ``terms``, a dict {e: c} or (e, c)
        pairs; equal monomials are summed and zero sums dropped."""
        summed: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items() if isinstance(terms, dict) else terms:
            key, coeff = tuple(exps), as_rational(coeff, "coefficient")
            summed[key] = summed[key] + coeff if key in summed else coeff
        return cls(space, tuple((k, c) for k, c in summed.items() if c != 0))

    @classmethod
    def variables(cls, space) -> tuple[str, ...]:
        """The variable names of ``space``, in exponent order."""
        return sum(cls.blocks(space), ())

    def divisible_by_variable(self, i: int) -> bool:
        return all(exps[i] > 0 for exps, _ in self.terms)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        pt = [as_rational(x, "coordinate") for x in point]
        total = Fraction(0)
        for exps, coeff in self.terms:
            val = coeff
            for x, e in zip(pt, exps):
                if e:
                    if x == 0:
                        val = Fraction(0)
                        break
                    val *= x**e
            total += val
        return total

    def partial(self, i: int) -> Optional[_GradedPoly]:
        """d/dx_i, or None when it vanishes identically."""
        terms = [(exps[:i] + (exps[i] - 1,) + exps[i + 1 :], coeff * exps[i])
                 for exps, coeff in self.terms if exps[i]]
        return self.from_dict(self.space, terms) if terms else None

    def in_irrelevant_locus(self, point: Sequence[Fraction]) -> bool:
        """Whether some block of variables vanishes at ``point``."""
        value = dict(zip(self.variables(self.space), point))
        return any(all(value[v] == 0 for v in block) for block in self.blocks(self.space))


class SparseWPoly(_GradedPoly):
    """A nonzero weighted-homogeneous polynomial on P(a_0,...,a_s)."""

    __slots__ = ()

    ambient = property(lambda self: self.space)
    degree = property(lambda self: self.grade)

    @staticmethod
    def grade_of(ambient: WeightVector, exps: Sequence[int]) -> int:
        return sum(map(operator.mul, ambient, exps))

    @staticmethod
    def arity(ambient: WeightVector) -> int:
        return len(ambient)

    @staticmethod
    def blocks(ambient: WeightVector) -> tuple[tuple[str, ...], ...]:
        return (tuple(f"x{i}" for i in range(len(ambient))),)


def parse(text: str, ambient: WeightVector) -> SparseWPoly:
    """Parse a sum of monomials "c*x0^e0*..." over the given weights; a
    constant, which defines no hypersurface, is rejected."""
    terms = _parse_terms(text, SparseWPoly.variables(ambient), "unknown variable {}")
    f = SparseWPoly.from_dict(ambient, terms)
    if f.degree < 1:
        raise ValueError("constant polynomial: it defines no hypersurface")
    return f


class BiGradedPoly(_GradedPoly):
    """A polynomial in the Cox ring of a standard weighted blowup.

    Variables are ordered x_0..x_r, y_{r+1}..y_s, z; the grade is the class
    (alpha, beta) in Z^2.
    """

    __slots__ = ()

    frame = property(lambda self: self.space)
    bidegree = property(lambda self: self.grade)

    @staticmethod
    def grade_of(frame: BlowupFrame, exps: Sequence[int]) -> BiDegree:
        r, z = frame.r, exps[-1]
        x_part = sum(map(operator.mul, frame.app[: r + 1], exps[: r + 1]))
        y_part = sum(map(operator.mul, frame.app[r + 1 :], exps[r + 1 : -1]))
        return BiDegree(x_part - frame.hp * z, y_part + frame.h * z)

    @staticmethod
    def arity(frame: BlowupFrame) -> int:
        return frame.s + 2

    @staticmethod
    def blocks(frame: BlowupFrame) -> tuple[tuple[str, ...], ...]:
        return (tuple(f"x{i}" for i in range(frame.r + 1)),
                tuple(f"y{j}" for j in range(frame.r + 1, frame.s + 1)) + ("z",))

    def divisible_by_z(self) -> bool:
        return self.divisible_by_variable(-1)


def parse_bigraded(text: str, frame: BlowupFrame) -> BiGradedPoly:
    """Parse over variables x0..xr, y{r+1}..y{s}, z of a blowup frame."""
    terms = _parse_terms(text, BiGradedPoly.variables(frame),
                         "{} is not a variable of this blowup")
    return BiGradedPoly.from_dict(frame, terms)


def strict_transform(f: SparseWPoly, r: int) -> BiGradedPoly:
    """Strict transform of (f = 0) under the standard weighted blowup.

    With d0 the minimal x-block degree and d0' the maximal y-block degree
    among the terms of f (in the a'' grading), the transform has bidegree
    (d0, d0'), satisfies h*d0 + h'*d0' = deg f, and is not divisible by z.
    """
    frame = build(f.ambient, r)
    grades = [BiGradedPoly.grade_of(frame, exps + (0,)) for exps, _ in f.terms]
    d0 = min(alpha for alpha, _ in grades)
    d0p = max(beta for _, beta in grades)
    if frame.h * d0 + frame.hp * d0p != f.degree:
        raise AssertionError("bidegree identity h*d0 + h'*d0' = d failed")
    terms = []
    for (exps, coeff), (di, _) in zip(f.terms, grades):
        z, rem = divmod(di - d0, frame.hp)
        if rem:
            raise AssertionError("z-exponent is not integral")
        terms.append((exps + (z,), coeff))
    out = BiGradedPoly.from_dict(frame, terms)
    if out.divisible_by_z():
        raise AssertionError("strict transform must not be divisible by z")
    return out


def restrict(f: SparseWPoly, i: int) -> SparseWPoly:
    """Restriction f(..., x_i = 0, ...) to the coordinate divisor D_i.

    Fails when x_i divides f (the divisor lies on the hypersurface) and when
    the residual weights are not well-formed (normalize them first; the
    restricted class is then no longer the same O(d)).
    """
    if not 0 <= i < len(f.ambient):
        raise ValueError("index out of range")
    if f.divisible_by_variable(i):
        raise ValueError(f"x{i} divides the polynomial; the divisor lies on the hypersurface")
    rest = f.ambient.omit(i)
    if math.gcd(*rest) != 1:
        raise ValueError("residual weights have a common factor; normalize them first")
    sub = WeightVector(rest)
    if not sub.is_well_formed:
        raise ValueError(
            f"residual weights {rest} are not well-formed; normalize before restricting"
        )
    return SparseWPoly.from_dict(sub, ((e[:i] + e[i + 1 :], c) for e, c in f.terms if e[i] == 0))


class QsmPointReport(NamedTuple):
    quasi_smooth: bool
    witness: Optional[int]          # index of a nonvanishing partial
    vanishing: tuple[int, ...]      # indices of vanishing partials


def qsm_at_point(f: _GradedPoly, point: Sequence) -> QsmPointReport:
    """Exact quasi-smoothness test at one point of the hypersurface.

    The point is given by exact homogeneous coordinates; it must lie on the
    hypersurface and avoid the irrelevant locus.  The vanishing pattern of
    the partials is independent of the chosen representative because each
    partial is itself homogeneous.
    """
    nv = f.arity(f.space)
    pt = [as_rational(x, "coordinate") for x in point]
    if len(pt) != nv:
        raise ValueError(f"expected {nv} coordinates")
    if f.in_irrelevant_locus(pt):
        raise ValueError("point lies in the irrelevant locus")
    if f.evaluate(pt) != 0:
        raise ValueError("point does not lie on the hypersurface")
    for i in range(nv):
        p = f.partial(i)
        if p is not None and p.evaluate(pt) != 0:
            return QsmPointReport(True, i, ())
    return QsmPointReport(False, None, tuple(range(nv)))


def qsm_at_coordinate_points(f: SparseWPoly) -> dict[int, tuple[str, Optional[int]]]:
    """Combinatorial quasi-smoothness at every coordinate point.

    For each index i the verdict is one of
      ("not_on_hypersurface", None)  -- the pure power of x_i occurs,
      ("quasi_smooth", j)            -- a monomial x_i^m * x_j occurs,
      ("not_quasi_smooth", None)     -- neither occurs.
    """
    w = f.ambient
    d = f.degree
    exps = {e for e, _ in f.terms}  # the monomials of f: its terms are nonzero
    report: dict[int, tuple[str, Optional[int]]] = {}
    for i in range(len(w)):
        if d % w[i] == 0:
            pure = tuple(d // w[i] if t == i else 0 for t in range(len(w)))
            if pure in exps:
                report[i] = ("not_on_hypersurface", None)
                continue
        witness = None
        for j in range(len(w)):
            if j == i:
                continue
            if (d - w[j]) >= 0 and (d - w[j]) % w[i] == 0:
                e = [0] * len(w)
                e[i] = (d - w[j]) // w[i]
                e[j] = 1
                if tuple(e) in exps:
                    witness = j
                    break
        if witness is not None:
            report[i] = ("quasi_smooth", witness)
        else:
            report[i] = ("not_quasi_smooth", None)
    return report


class EckardtDatum(_Value):
    """Escape level of the vertex P = [0:...:0:1] of X in P(1^(n+1), a).

    With f = y^k x_0 + y^(k-1) f_{a+1} + ... + f_{ak+1} (y the last
    variable), m is the least t in [1, k] with x_0 not dividing f_{at+1};
    m = k exactly when P is a generalized Eckardt point.
    """

    __slots__ = _fields = ("a", "k", "m")

    def __init__(self, a: int, k: int, m: int):
        if not 1 <= m <= k:
            raise ValueError("escape level out of range")
        for name, value in zip(self._fields, (a, k, m)):
            object.__setattr__(self, name, value)


class EckardtNotApplicable(NamedTuple):
    reason: str


def eckardt_analyze(f: SparseWPoly) -> Union[EckardtDatum, EckardtNotApplicable]:
    """Compute the Eckardt escape level, or report why the normal form fails.

    Applicable when the ambient is P(1^(n+1), a), deg f = a*k + 1, and the
    top slice in the last variable is exactly c * y^k * x_0.
    """
    w = f.ambient.weights
    a = w[-1]
    if any(x != 1 for x in w[:-1]):
        return EckardtNotApplicable("ambient weights are not (1,...,1,a)")
    d = f.degree
    if d % a != 1 % a or d <= 1:
        return EckardtNotApplicable(f"degree {d} is not 1 modulo the last weight {a}")
    k = (d - 1) // a
    last = len(w) - 1
    # slice by the power of the last variable: f = sum_t y^(k-t) f_{a*t+1}
    slices: dict[int, list[tuple[tuple[int, ...], Fraction]]] = {}
    for exps, coeff in f.terms:
        t = k - exps[last]
        if t < 0:
            return EckardtNotApplicable("a term exceeds the expected power of the last variable")
        slices.setdefault(t, []).append((exps, coeff))
    top = slices.get(0, [])
    expected_top = tuple(1 if i == 0 else (k if i == last else 0) for i in range(len(w)))
    if len(top) != 1 or top[0][0] != expected_top:
        return EckardtNotApplicable(
            "top slice is not c*x0*y^k; move the vertex tangent monomial to x0 first"
        )
    for t in range(1, k + 1):
        part = slices.get(t, [])
        if any(exps[0] == 0 for exps, _ in part):
            return EckardtDatum(a=a, k=k, m=t)
    return EckardtNotApplicable("every slice is divisible by x0, so x0 divides f")
