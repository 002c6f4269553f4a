"""Exact arithmetic of weighted projective spaces.

A weighted projective space P(a_0,...,a_s) is encoded by its weight vector.
This module covers normalization to a well-formed presentation, top
self-intersection of O(1), restriction to coordinate strata, base loci of
the linear systems |O(a)|, and the Fano index of a hypersurface.

All rational quantities are :class:`fractions.Fraction`; nothing is ever
rounded.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .snf import QuotientLattice


_ENTRY_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_weight_text(text: str) -> tuple[int, ...]:
    """Parse "P(1^3,2,5)" or "1,1,1,2,5" into a weight tuple."""
    t = text.strip().replace(" ", "")
    if t.upper().startswith("P(") and t.endswith(")"):
        t = t[2:-1]
    if not t:
        raise ValueError("empty weight list")
    weights: list[int] = []
    for entry in t.split(","):
        m = _ENTRY_RE.match(entry)
        if not m:
            raise ValueError(f"cannot parse weight entry {entry!r}")
        w = int(m.group(1))
        rep = int(m.group(2)) if m.group(2) else 1
        if w < 1 or rep < 1:
            raise ValueError(f"weights and repetition counts must be positive: {entry!r}")
        weights.extend([w] * rep)
    return tuple(weights)


@dataclass(frozen=True)
class WeightVector:
    """Weights (a_0,...,a_s) of a weighted projective space.

    The constructor requires gcd(a_0,...,a_s) = 1 and length >= 2; it never
    rescales silently.
    ``is_well_formed`` (no s of the s+1 weights share a common factor) is
    decided once, at construction.
    """

    weights: tuple[int, ...]
    is_well_formed: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            w = tuple(map(operator.index, self.weights))
        except TypeError:
            raise ValueError(f"weights must be integers, not {self.weights!r}") from None
        object.__setattr__(self, "weights", w)
        if len(w) < 2:
            raise ValueError("a weight vector needs at least two entries")
        if min(w) < 1:
            raise ValueError("weights must be positive integers")
        if math.gcd(*w) != 1:
            raise ValueError(
                f"gcd of weights {w} is {math.gcd(*w)} != 1; divide out the common factor first"
            )
        object.__setattr__(self, "is_well_formed", all(
            math.gcd(*rest) == 1 for rest in combinations(w, len(w) - 1)))

    @classmethod
    def parse(cls, text: str) -> "WeightVector":
        return cls(parse_weight_text(text))

    @property
    def s(self) -> int:
        """Dimension of the space (one less than the number of weights)."""
        return len(self.weights) - 1

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> int:
        return self.weights[i]

    def __iter__(self):
        return iter(self.weights)

    def omit(self, i: int) -> tuple[int, ...]:
        return self.weights[:i] + self.weights[i + 1 :]

    def require_well_formed(self) -> None:
        if not self.is_well_formed:
            raise ValueError(f"weights {self.weights} are not well-formed; normalize first")

    def product(self) -> int:
        return math.prod(self.weights)

    def text(self) -> str:
        return ",".join(map(str, self.weights))

    def quotient_lattice(self) -> QuotientLattice:
        return QuotientLattice(self.weights)

    def __str__(self) -> str:
        return f"P({self.text()})"


def reduce_weights(weights: Sequence[int]) -> tuple[int, tuple[int, ...], tuple[int, ...], int,
                                                     tuple[int, ...]]:
    """Well-formed presentation of one block of weights.

    Returns (h, a'', g_i per index, g = prod g_i, a'): h is the gcd of the
    block, a''_i = a_i/h, g_i the gcd of the a'' other than a''_i, and the
    reduced weights a'_i = a''_i*g_i/g are well-formed with
    prod a''_i = g**(len-1) * prod a'_i.  A gcd-1 tuple has h = 1.
    """
    h = math.gcd(*weights)
    second = tuple(a // h for a in weights)
    if len(second) == 1:
        # a point; the only sensible normalization
        return h, second, (1,), 1, (1,)
    gi = tuple(math.gcd(*second[:i], *second[i + 1 :]) for i in range(len(second)))
    g = math.prod(gi)
    reduced = tuple(a * d // g for a, d in zip(second, gi))
    return h, second, gi, g, reduced


@dataclass(frozen=True)
class NormalizationReport:
    """Result of normalizing a weight vector to well-formed shape.

    Invariant: prod(input) = g**s * prod(output) with s = len(input) - 1,
    and the output is well-formed.
    """

    input: WeightVector
    g_i: tuple[int, ...]
    g: int
    output: WeightVector

    def __post_init__(self):
        s = len(self.input.weights) - 1
        if self.input.product() != self.g**s * self.output.product():
            raise AssertionError("normalization product identity violated")
        if not self.output.is_well_formed:
            raise AssertionError("normalization did not produce a well-formed vector")


def normalize(w: WeightVector) -> NormalizationReport:
    """Well-formed presentation of P(a_0,...,a_s).

    Idempotent: normalizing an already well-formed vector returns the
    identity report (all g_i = 1).
    """
    _, _, gi, g, reduced = reduce_weights(w.weights)
    return NormalizationReport(input=w, g_i=gi, g=g, output=WeightVector(reduced))


def top_intersection(w: WeightVector) -> Fraction:
    """Top self-intersection number of O(1): 1 / (a_0 * ... * a_s)."""
    w.require_well_formed()
    return Fraction(1, w.product())


@dataclass(frozen=True)
class CoordinateStratum:
    """A coordinate stratum Z = (x_i = 0, i in vanishing) of P(a_0,...,a_s).

    Z is itself a weighted projective space; ``quotient_weights`` is its
    well-formed presentation and O_P(1) restricts to O(scale) on it.
    ``mult`` is the multiplicity of the corresponding cone of the fan.
    """

    ambient: WeightVector
    vanishing: frozenset[int]
    quotient_weights: WeightVector
    scale: Fraction
    mult: int

    def __post_init__(self):
        if not self.quotient_weights.is_well_formed:
            raise AssertionError("stratum quotient weights must be well-formed")
        # degree consistency: scale^dim / prod(quotient) == mult * prod(vanishing) / prod(all)
        dim = len(self.ambient) - len(self.vanishing) - 1
        lhs = self.scale**dim * top_intersection(self.quotient_weights)
        kept = [self.ambient[i] for i in range(len(self.ambient)) if i not in self.vanishing]
        rhs = Fraction(self.mult, math.prod(kept))
        if lhs != rhs:
            raise AssertionError("stratum restriction scale is inconsistent")

    @property
    def dimension(self) -> int:
        return len(self.ambient) - len(self.vanishing) - 1


def stratum(w: WeightVector, vanish: Iterable[int]) -> CoordinateStratum:
    """Reduced coordinate stratum (x_i = 0 for i in vanish), well-formed.

    With h = gcd of the kept weights and g the product of the reduction
    gcds of (a_j / h), the stratum is P(a'_j) and O_P(1) restricts to
    O(1/(g*h)); the cone multiplicity is h.
    """
    w.require_well_formed()
    indices = [int(i) for i in vanish]
    vanish = frozenset(indices)
    if len(vanish) != len(indices):
        raise ValueError("vanishing indices must be distinct")
    if not all(0 <= i < len(w) for i in vanish):
        raise ValueError("vanishing indices out of range")
    kept = [i for i in range(len(w)) if i not in vanish]
    if len(kept) < 2:
        raise ValueError("stratum must keep at least two coordinates")
    h, _, _, g, reduced = reduce_weights([w[i] for i in kept])
    return CoordinateStratum(
        ambient=w,
        vanishing=vanish,
        quotient_weights=WeightVector(reduced),
        scale=Fraction(1, g * h),
        mult=h,
    )


@dataclass(frozen=True)
class BaseLocus:
    """Reduced base locus of the systems |O(a_i)| with a_i <= threshold.

    Without a base point the locus is (x_i = 0 : a_i <= threshold); with a
    coordinate base point p = P_t the pure powers of x_t are removed from
    the systems and the locus becomes (x_i = 0 : a_i <= threshold, i != t).
    ``stratum`` is None when the locus is empty or a single point.
    """

    ambient: WeightVector
    threshold: int
    basepoint: Optional[int]
    vanishing: frozenset[int]
    stratum: Optional[CoordinateStratum]

    @property
    def dimension(self) -> int:
        """-1 for empty, 0 for a point, etc."""
        return len(self.ambient) - len(self.vanishing) - 1

    @property
    def is_empty(self) -> bool:
        return self.dimension < 0


def base_locus(w: WeightVector, a: int, p: Optional[int] = None) -> BaseLocus:
    """Base locus B_a (or B_{a,p} for a coordinate point p, given by index)."""
    w.require_well_formed()
    if a < 1:
        raise ValueError("threshold must be a positive integer")
    if p is not None and not 0 <= p < len(w):
        raise ValueError("base point index out of range")
    vanishing = frozenset(i for i in range(len(w)) if w[i] <= a and i != p)
    st = None
    if len(w) - len(vanishing) >= 2:
        st = stratum(w, vanishing)
    return BaseLocus(ambient=w, threshold=a, basepoint=p, vanishing=vanishing, stratum=st)


def as_integer(value, what: str) -> int:
    """``value`` as an int; a non-integer (2.5, Fraction(5, 2), "3") raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {value!r}") from None


def fano_index(w: WeightVector, d: int) -> int:
    """sum(a_i) - d; positive exactly for Fano hypersurfaces of degree d."""
    if as_integer(d, "degree") < 1:
        raise ValueError("degree must be a positive integer")
    return sum(w.weights) - d


def stratum_mult_oracle(w: WeightVector, vanish: Iterable[int]) -> int:
    """Cone multiplicity of a stratum by lattice index (independent of
    the gcd formula used by :func:`stratum`)."""
    lat = w.quotient_lattice()
    m = len(w)
    rays = []
    for i in sorted(set(int(j) for j in vanish)):
        e = [0] * m
        e[i] = 1
        rays.append(e)
    return lat.sublattice_index(rays)
