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
from fractions import Fraction
from itertools import combinations, starmap
from typing import Iterable, NamedTuple, Optional, Sequence

from .snf import QuotientLattice


_ENTRY_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")
MAX_WEIGHTS = 1000        # far above any sweep's or moment table's length
_TOO_MANY = f"a weight vector has at most MAX_WEIGHTS = {MAX_WEIGHTS} entries"


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
        if len(weights) + rep > MAX_WEIGHTS:
            raise ValueError(_TOO_MANY)
        weights.extend([w] * rep)
    return tuple(weights)


class _Value:
    """An immutable value whose ``__init__`` checks its arguments and sets its
    slots with ``object.__setattr__``.  Equality (with a value of the same
    class only), hash, repr and copies read the ``_fields``, the constructor's
    arguments, in order; a copy is built, and checked, anew.  Whatever the
    constructor computes from them sits in further slots, outside the
    ``_fields``.

    This is the package's one record idiom: a record without a check of its
    own is a :class:`typing.NamedTuple`, and a checked value is a ``_Value``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WeightVector(_Value):
    """Weights (a_0,...,a_s) of a weighted projective space.

    The constructor requires gcd(a_0,...,a_s) = 1 and between 2 and
    :data:`MAX_WEIGHTS` entries; it never rescales silently.
    ``is_well_formed`` (no s of the s+1 weights share a common factor) is
    decided once, at construction, and is not one of the ``_fields``.
    """

    __slots__ = ("weights", "is_well_formed")
    _fields = ("weights",)

    def __init__(self, weights: Iterable[int]):
        try:
            w = tuple(map(operator.index, weights))
        except TypeError:
            raise ValueError(f"weights must be integers, not {weights!r}") from None
        object.__setattr__(self, "weights", w)
        if len(w) < 2:
            raise ValueError("a weight vector needs at least two entries")
        if len(w) > MAX_WEIGHTS:
            raise ValueError(_TOO_MANY)
        if min(w) < 1:
            raise ValueError("weights must be positive integers")
        if math.gcd(*w) != 1:
            raise ValueError(
                f"gcd of weights {w} is {math.gcd(*w)} != 1; divide out the common factor first"
            )
        object.__setattr__(self, "is_well_formed",
                           set(starmap(math.gcd, combinations(w, len(w) - 1))) == {1})

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


class NormalizationReport(NamedTuple):
    """Result of normalizing a weight vector to well-formed shape.

    Invariant, checked by :func:`normalize`: prod(input) = g**s *
    prod(output) with s = len(input) - 1, and the output is well-formed.
    """

    input: WeightVector
    g_i: tuple[int, ...]
    g: int
    output: WeightVector


def normalize(w: WeightVector) -> NormalizationReport:
    """Well-formed presentation of P(a_0,...,a_s).

    Idempotent: normalizing an already well-formed vector returns the
    identity report (all g_i = 1).
    """
    _, _, gi, g, reduced = reduce_weights(w.weights)
    output = WeightVector(reduced)
    if w.product() != g ** (len(w) - 1) * output.product():
        raise AssertionError("normalization product identity violated")
    if not output.is_well_formed:
        raise AssertionError("normalization did not produce a well-formed vector")
    return NormalizationReport(w, gi, g, output)


def top_intersection(w: WeightVector) -> Fraction:
    """Top self-intersection number of O(1): 1 / (a_0 * ... * a_s)."""
    w.require_well_formed()
    return Fraction(1, w.product())


class CoordinateStratum(NamedTuple):
    """A coordinate stratum Z = (x_i = 0, i in vanishing) of P(a_0,...,a_s).

    Z is itself a weighted projective space; ``quotient_weights`` is its
    well-formed presentation and O_P(1) restricts to O(scale) on it.
    ``mult`` is the multiplicity of the corresponding cone of the fan.
    :func:`stratum` checks both.
    """

    ambient: WeightVector
    vanishing: frozenset[int]
    quotient_weights: WeightVector
    scale: Fraction
    mult: int

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
    indices = [as_integer(i, "vanishing index") for i in vanish]
    vanish = frozenset(indices)
    if len(vanish) != len(indices):
        raise ValueError("vanishing indices must be distinct")
    if not all(0 <= i < len(w) for i in vanish):
        raise ValueError("vanishing indices out of range")
    kept = [i for i in range(len(w)) if i not in vanish]
    if len(kept) < 2:
        raise ValueError("stratum must keep at least two coordinates")
    h, _, _, g, reduced = reduce_weights([w[i] for i in kept])
    quotient, scale = WeightVector(reduced), Fraction(1, g * h)
    if not quotient.is_well_formed:
        raise AssertionError("stratum quotient weights must be well-formed")
    # degree consistency: scale^dim / prod(quotient) == mult * prod(vanishing) / prod(all)
    if scale ** (len(kept) - 1) * top_intersection(quotient) != Fraction(
            h, math.prod(w[i] for i in kept)):
        raise AssertionError("stratum restriction scale is inconsistent")
    return CoordinateStratum(w, vanish, quotient, scale, h)


class BaseLocus(NamedTuple):
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
    if as_integer(a, "threshold") < 1:
        raise ValueError("threshold must be a positive integer")
    if p is not None and not 0 <= as_integer(p, "base point index") < len(w):
        raise ValueError("base point index out of range")
    vanishing = frozenset(i for i in range(len(w)) if w[i] <= a and i != p)
    st = None
    if len(w) - len(vanishing) >= 2:
        st = stratum(w, vanishing)
    return BaseLocus(w, a, p, vanishing, st)


def as_integer(value, what: str) -> int:
    """``value`` as an int; a non-integer (2.5, Fraction(5, 2), "3", True) raises ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, not {value!r}")


def as_rational(value, what: str) -> Fraction:
    """``value`` as a Fraction; anything but an int or a Fraction (0.5, "1/2") raises
    ValueError, so no float becomes an exact value."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ValueError(f"{what} must be an int or a Fraction, not {value!r}")


def fano_index(w: WeightVector, d: int) -> int:
    """sum(a_i) - d; positive exactly for Fano hypersurfaces of degree d."""
    if as_integer(d, "degree") < 1:
        raise ValueError("degree must be a positive integer")
    return sum(w.weights) - d


def stratum_mult_oracle(w: WeightVector, vanish: Iterable[int]) -> int:
    """Cone multiplicity of a stratum by lattice index (independent of
    the gcd formula used by :func:`stratum`)."""
    lat = QuotientLattice(w.weights)
    m = len(w)
    rays = []
    for i in sorted(set(as_integer(j, "vanishing index") for j in vanish)):
        e = [0] * m
        e[i] = 1
        rays.append(e)
    return lat.sublattice_index(rays)
