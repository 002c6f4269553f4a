"""Sparse weighted-homogeneous polynomials over exact rationals.

Two flavours: polynomials graded by a weight vector (hypersurfaces in a
weighted projective space) and polynomials graded by the Z^2 class group of
a standard weighted blowup (strict transforms).  Coefficients are
:class:`fractions.Fraction`; exponent vectors are dense integer tuples and
terms are kept in lexicographic order for deterministic serialization.

Quasi-smoothness is not decided for arbitrary polynomials.  The checker
has two exact tiers: tests at supplied points and combinatorial tests at
the coordinate points.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .blowup import BiDegree, BlowupFrame, build
from .lattice import WeightVector


_COEFF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_VAR_RE = re.compile(r"^([xy])(\d+)(?:\^(\d+))?$|^(z)(?:\^(\d+))?$")


def _parse_terms(text: str, nvars: int, var_index) -> dict[tuple[int, ...], Fraction]:
    """Shared text parser: terms joined by +/-, factors joined by '*'."""
    t = text.replace(" ", "").replace("−", "-")
    if not t:
        raise ValueError("empty polynomial text")
    if t[0] not in "+-":
        t = "+" + t
    terms: dict[tuple[int, ...], Fraction] = {}
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
        exps = [0] * nvars
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
            if m.group(4) == "z":
                idx = var_index("z", None)
                e = int(m.group(5)) if m.group(5) else 1
            else:
                idx = var_index(m.group(1), int(m.group(2)))
                e = int(m.group(3)) if m.group(3) else 1
            exps[idx] += e
        key = tuple(exps)
        coeff = terms.get(key, Fraction(0)) + coeff
        if coeff == 0:
            terms.pop(key, None)
        else:
            terms[key] = coeff
    if not terms:
        raise ValueError("polynomial is zero")
    return terms


class _Terms:
    """Evaluation and differentiation shared by both polynomial types.

    ``terms`` holds (exponents, coefficient) pairs; ``_graded(terms, i)``
    builds d/dx_i of the subclass's type from its terms, shifting the grading
    by the degree of x_i.
    """

    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        pt = [Fraction(x) for x in point]
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

    def partial(self, i: int) -> Optional["_Terms"]:
        """d/dx_i, or None when it vanishes identically."""
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms:
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff * exps[i]
        out = {k: v for k, v in out.items() if v != 0}
        return self._graded(tuple(out.items()), i) if out else None


@dataclass(frozen=True)
class SparseWPoly(_Terms):
    """A nonzero weighted-homogeneous polynomial on P(a_0,...,a_s)."""

    ambient: WeightVector
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))
        if not self.terms:
            raise ValueError("polynomial is zero")
        for exps, coeff in self.terms:
            if len(exps) != len(self.ambient):
                raise ValueError("exponent vector has the wrong length")
            if coeff == 0:
                raise ValueError("zero coefficient stored")
            deg = sum(a * e for a, e in zip(self.ambient, exps))
            if deg != self.degree:
                raise ValueError(
                    f"term with exponents {exps} has degree {deg}, expected {self.degree}"
                )

    @classmethod
    def from_dict(cls, ambient: WeightVector, terms: dict) -> "SparseWPoly":
        items = [(tuple(k), Fraction(v)) for k, v in terms.items() if Fraction(v) != 0]
        if not items:
            raise ValueError("polynomial is zero")
        degrees = [(sum(a * e for a, e in zip(ambient, k)), k) for k, _ in items]
        degs = {d for d, _ in degrees}
        if len(degs) != 1:
            d0, k0 = min(degrees)
            d1, k1 = max(degrees)
            raise ValueError(
                f"inhomogeneous polynomial: term {_mono_text(k0)} has degree {d0} "
                f"but term {_mono_text(k1)} has degree {d1}"
            )
        return cls(ambient=ambient, terms=tuple(items), degree=degs.pop())

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        key = tuple(exps)
        for e, c in self.terms:
            if e == key:
                return c
        return Fraction(0)

    def _graded(self, terms, i: int) -> "SparseWPoly":
        return SparseWPoly(self.ambient, terms, self.degree - self.ambient[i])

    def divisible_by_variable(self, i: int) -> bool:
        return all(exps[i] > 0 for exps, _ in self.terms)


def _mono_text(exps: Sequence[int]) -> str:
    """A monomial as "x0^2*x3"; "1" for the constant monomial."""
    return "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e) or "1"


def parse(text: str, ambient: WeightVector) -> SparseWPoly:
    """Parse a sum of monomials "c*x0^e0*..." over the given weights; a
    constant, which defines no hypersurface, is rejected."""
    n = len(ambient)

    def var_index(kind: str, i: Optional[int]) -> int:
        if kind != "x" or i is None or not 0 <= i < n:
            raise ValueError(f"unknown variable {kind}{i}")
        return i

    f = SparseWPoly.from_dict(ambient, _parse_terms(text, n, var_index))
    if f.degree < 1:
        raise ValueError("constant polynomial: it defines no hypersurface")
    return f


def _bidegree(frame: BlowupFrame, exps: Sequence[int]) -> tuple[int, int]:
    """The class (alpha, beta) of the monomial x^exps in the Cox ring of
    ``frame``, variables ordered x_0..x_r, y_{r+1}..y_s, z."""
    r, s, app = frame.r, frame.s, frame.app
    alpha = sum(app[i] * exps[i] for i in range(r + 1)) - frame.hp * exps[-1]
    beta = sum(app[j] * exps[j] for j in range(r + 1, s + 1)) + frame.h * exps[-1]
    return alpha, beta


@dataclass(frozen=True)
class BiGradedPoly(_Terms):
    """A polynomial in the Cox ring of a standard weighted blowup.

    Variables are ordered x_0..x_r, y_{r+1}..y_s, z; every stored term must
    have the stated bidegree.
    """

    frame: BlowupFrame
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]
    bidegree: BiDegree

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))
        if not self.terms:
            raise ValueError("polynomial is zero")
        nv = self.frame.s + 2
        for exps, coeff in self.terms:
            if len(exps) != nv or coeff == 0:
                raise ValueError("malformed term")
            if _bidegree(self.frame, exps) != self.bidegree.as_tuple():
                raise ValueError(f"term {exps} has bidegree {_bidegree(self.frame, exps)}, "
                                 f"expected {self.bidegree.as_tuple()}")

    @classmethod
    def from_terms(cls, frame: BlowupFrame, terms) -> "BiGradedPoly":
        """The bidegree is read off the first term; the constructor checks the rest."""
        terms = tuple(terms)
        return cls(frame, terms, BiDegree(*_bidegree(frame, terms[0][0])))

    def divisible_by_z(self) -> bool:
        return all(exps[-1] > 0 for exps, _ in self.terms)

    def _graded(self, terms, i: int) -> "BiGradedPoly":
        return BiGradedPoly.from_terms(self.frame, terms)

    def collapse(self) -> SparseWPoly:
        """Substitute z -> 1 and y_j -> x_j; inverts the strict transform."""
        fr = self.frame
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms:
            key = tuple(exps[: fr.s + 1])
            out[key] = out.get(key, Fraction(0)) + coeff
        out = {k: v for k, v in out.items() if v != 0}
        return SparseWPoly.from_dict(fr.ambient, out)


def parse_bigraded(text: str, frame: BlowupFrame) -> BiGradedPoly:
    """Parse over variables x0..xr, y{r+1}..y{s}, z of a blowup frame."""
    r, s = frame.r, frame.s

    def var_index(kind: str, i: Optional[int]) -> int:
        if kind == "x":
            if i is None or not 0 <= i <= r:
                raise ValueError(f"x{i} is not a variable of this blowup")
            return i
        if kind == "y":
            if i is None or not r < i <= s:
                raise ValueError(f"y{i} is not a variable of this blowup")
            return i
        return s + 1

    return BiGradedPoly.from_terms(frame, _parse_terms(text, s + 2, var_index).items())


def strict_transform(f: SparseWPoly, r: int) -> BiGradedPoly:
    """Strict transform of (f = 0) under the standard weighted blowup.

    With d0 the minimal x-block degree and d0' the maximal y-block degree
    among the terms of f (in the a'' grading), the transform has bidegree
    (d0, d0'), satisfies h*d0 + h'*d0' = deg f, and is not divisible by z.
    """
    frame = build(f.ambient, r)
    s = frame.s
    degs_i = []
    degs_j = []
    for exps, _ in f.terms:
        degs_i.append(sum(frame.app[i] * exps[i] for i in range(r + 1)))
        degs_j.append(sum(frame.app[j] * exps[j] for j in range(r + 1, s + 1)))
    d0 = min(degs_i)
    d0p = max(degs_j)
    if frame.h * d0 + frame.hp * d0p != f.degree:
        raise AssertionError("bidegree identity h*d0 + h'*d0' = d failed")
    terms = []
    for (exps, coeff), di in zip(f.terms, degs_i):
        num = di - d0
        if num % frame.hp != 0:
            raise AssertionError("z-exponent is not integral")
        terms.append((tuple(exps) + (num // frame.hp,), coeff))
    out = BiGradedPoly(frame=frame, terms=tuple(terms), bidegree=BiDegree(d0, d0p))
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
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in f.terms:
        if exps[i] == 0:
            key = exps[:i] + exps[i + 1 :]
            out[key] = out.get(key, Fraction(0)) + coeff
    return SparseWPoly.from_dict(sub, out)


AnyPoly = Union[SparseWPoly, BiGradedPoly]


@dataclass(frozen=True)
class QsmPointReport:
    quasi_smooth: bool
    witness: Optional[int]          # index of a nonvanishing partial
    vanishing: tuple[int, ...]      # indices of vanishing partials


def _in_irrelevant_locus(f: AnyPoly, pt: Sequence[Fraction]) -> bool:
    if isinstance(f, SparseWPoly):
        return all(x == 0 for x in pt)
    r = f.frame.r
    xs = pt[: r + 1]
    rest = pt[r + 1 :]
    return all(x == 0 for x in xs) or all(x == 0 for x in rest)


def qsm_at_point(f: AnyPoly, point: Sequence) -> QsmPointReport:
    """Exact quasi-smoothness test at one point of the hypersurface.

    The point is given by exact homogeneous coordinates; it must lie on the
    hypersurface and avoid the irrelevant locus.  The vanishing pattern of
    the partials is independent of the chosen representative because each
    partial is itself homogeneous.
    """
    nv = len(f.ambient) if isinstance(f, SparseWPoly) else f.frame.s + 2
    pt = [Fraction(x) for x in point]
    if len(pt) != nv:
        raise ValueError(f"expected {nv} coordinates")
    if _in_irrelevant_locus(f, pt):
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
    report: dict[int, tuple[str, Optional[int]]] = {}
    for i in range(len(w)):
        if d % w[i] == 0:
            pure = tuple(d // w[i] if t == i else 0 for t in range(len(w)))
            if f.coefficient(pure) != 0:
                report[i] = ("not_on_hypersurface", None)
                continue
        witness = None
        for j in range(len(w)):
            if j == i:
                continue
            if (d - w[j]) >= 0 and (d - w[j]) % w[i] == 0:
                exps = [0] * len(w)
                exps[i] = (d - w[j]) // w[i]
                exps[j] = 1
                if f.coefficient(tuple(exps)) != 0:
                    witness = j
                    break
        if witness is not None:
            report[i] = ("quasi_smooth", witness)
        else:
            report[i] = ("not_quasi_smooth", None)
    return report


@dataclass(frozen=True)
class EckardtDatum:
    """Escape level of the vertex P = [0:...:0:1] of X in P(1^(n+1), a).

    With f = y^k x_0 + y^(k-1) f_{a+1} + ... + f_{ak+1} (y the last
    variable), m is the least t in [1, k] with x_0 not dividing f_{at+1};
    m = k exactly when P is a generalized Eckardt point.
    """

    a: int
    k: int
    m: int

    def __post_init__(self):
        if not 1 <= self.m <= self.k:
            raise ValueError("escape level out of range")

    @property
    def is_generalized_eckardt(self) -> bool:
        return self.m == self.k


@dataclass(frozen=True)
class EckardtNotApplicable:
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
