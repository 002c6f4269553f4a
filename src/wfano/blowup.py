"""The standard weighted blowup of a weighted projective space.

For well-formed P(a_0,...,a_s) and a split index r, the blowup along
(x_0 = ... = x_r = 0) is the star subdivision of the fan at the primitive
ray class v_{s+1}.  The resulting variety has class group Z^2; the Cox ring
carries variables x_0..x_r, y_{r+1}..y_s, z with

    deg x_i = (a_i/h, 0),   deg y_j = (0, a_j/h'),   deg z = (-h', h),

where h = gcd(a_0,...,a_r) and h' = gcd(a_{r+1},...,a_s).  This module
computes all the derived integers, the primitive ray with its Bezout
certificate, pullbacks, bidegree intersection numbers, the product
structure of the exceptional divisor, finite covers, and the induced
blowups of the coordinate divisors D_0 and D_s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .lattice import WeightVector, as_integer, reduce_weights
from .snf import QuotientLattice


class BiDegree(NamedTuple):
    """An element (alpha, beta) of the class group Z^2 of the blowup."""

    alpha: int
    beta: int

    __str__ = tuple.__repr__  # "(alpha, beta)" in messages


class BlowupFrame(NamedTuple):
    """All derived data of the standard weighted blowup along (x_0=...=x_r=0).

    ``v_rep`` is the integer representative of the primitive ray class
    produced by the Bezout pair (k, k') with h'*k - h*k' = 1; equality of
    classes is taken modulo Z*(a_0,...,a_s).
    """

    ambient: WeightVector
    r: int
    h: int
    hp: int
    app: tuple[int, ...]      # a''_i for all 0 <= i <= s
    gi: tuple[int, ...]       # g_i for all 0 <= i <= s
    g: int
    gp: int
    ap_left: tuple[int, ...]  # a'_0..a'_r (well-formed)
    ap_right: tuple[int, ...] # a'_{r+1}..a'_s (well-formed; (1,) when singleton)
    v_rep: tuple[int, ...]
    bezout: tuple[int, int]

    @property
    def s(self) -> int:
        return self.ambient.s

    @property
    def exceptional(self) -> BiDegree:
        return BiDegree(-self.hp, self.h)


def build(ambient: WeightVector, r: int) -> BlowupFrame:
    """Construct the blowup frame; certifies primitivity of the new ray.

    Requires the ambient weights well-formed and 1 <= r <= s-1.
    """
    ambient.require_well_formed()
    s = ambient.s
    if not 1 <= as_integer(r, "split index r") <= s - 1:
        raise ValueError(f"split index r={r} out of range 1..{s - 1}")
    left = ambient.weights[: r + 1]
    right = ambient.weights[r + 1 :]
    h, app_l, gi_l, g, ap_l = reduce_weights(left)
    hp, app_r, gi_r, gp, ap_r = reduce_weights(right)
    if math.gcd(h, hp) != 1:
        raise AssertionError("well-formed input must give coprime block gcds")
    # Bezout certificate h'*k - h*k' = 1
    _, x, y = _extended_gcd(hp, h)
    k, kp = x, -y
    assert hp * k - h * kp == 1
    v_rep = tuple(k * a for a in app_l) + tuple(kp * a for a in app_r)
    frame = BlowupFrame(
        ambient=ambient,
        r=r,
        h=h,
        hp=hp,
        app=app_l + app_r,
        gi=gi_l + gi_r,
        g=g,
        gp=gp,
        ap_left=ap_l,
        ap_right=ap_r,
        v_rep=v_rep,
        bezout=(k, kp),
    )
    if not QuotientLattice(ambient.weights).is_primitive(v_rep):
        raise AssertionError("constructed ray class is not primitive")
    return frame


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), for positive a and b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def psi_pullback_o1(frame: BlowupFrame) -> tuple[Fraction, Fraction]:
    """Class of psi^*[O_P(1)]: (0, 1/h')."""
    return (Fraction(0), Fraction(1, frame.hp))


def pi_pullback_o1(frame: BlowupFrame) -> tuple[Fraction, Fraction]:
    """Class of pi^*[O_{P'}(1)]: (g, 0)."""
    return (Fraction(frame.g), Fraction(0))


def intersection_bi(frame: BlowupFrame, k: int) -> Fraction:
    """(O(1,0)^k . O(0,1)^(s-k)) = h^k h'^(s-k) / prod(a_i) for k <= r, else 0."""
    if not 0 <= as_integer(k, "k") <= frame.s:
        raise ValueError("k out of range")
    if k > frame.r:
        return Fraction(0)
    return Fraction(frame.h**k * frame.hp ** (frame.s - k), frame.ambient.product())


class ExceptionalData(NamedTuple):
    """Product structure E ~ P(a'_0..a'_r) x P(a'_{r+1}..a'_s).

    ``restriction_scale`` implements [O(alpha,beta)]|_E = O(alpha/g, beta/g'),
    and ``self_restriction`` is E|_E = O(-h'/g, h/g').  A length-one factor
    is a point.
    """

    cls: BiDegree
    left_factor: tuple[int, ...]
    right_factor: tuple[int, ...]
    restriction_scale: tuple[Fraction, Fraction]
    self_restriction: tuple[Fraction, Fraction]


def exceptional_class(frame: BlowupFrame) -> ExceptionalData:
    """Class and product structure of the exceptional divisor."""
    data = ExceptionalData(
        cls=frame.exceptional,
        left_factor=frame.ap_left,
        right_factor=frame.ap_right,
        restriction_scale=(Fraction(1, frame.g), Fraction(1, frame.gp)),
        self_restriction=(Fraction(-frame.hp, frame.g), Fraction(frame.h, frame.gp)),
    )
    _assert_degree_one(frame)
    return data


def _assert_degree_one(frame: BlowupFrame) -> None:
    """Re-run the degree computation showing E -> product is birational.

    (O(g,0)^r . O(0,g')^{s-r-1} . E) must equal 1 / prod(a'_i), the degree
    of O(1) x O(1) on the product of the two factors.
    """
    r, s = frame.r, frame.s
    lhs = Fraction(frame.g**r * frame.gp ** (s - r - 1)) * (
        Fraction(-frame.hp) * intersection_bi(frame, r + 1)
        + Fraction(frame.h) * intersection_bi(frame, r)
    )
    rhs = Fraction(1, math.prod(frame.ap_left) * math.prod(frame.ap_right))
    if lhs != rhs:
        raise AssertionError("exceptional product degree check failed")


class CoverData(NamedTuple):
    """Pullback behaviour along the finite toric cover a_i = e_i * abar_i."""

    scaling: tuple[Fraction, Fraction]
    degree: int
    bar_frame: BlowupFrame


def finite_cover_pull(frame: BlowupFrame, exponents: Sequence[int]) -> CoverData:
    """Finite cover data: O(alpha,beta) pulls back to O(alpha*h/hbar, beta*h'/hbar').

    The exponents must divide the ambient weights and the quotient weights
    must be well-formed.
    """
    e = [as_integer(x, "exponent") for x in exponents]
    if len(e) != len(frame.ambient):
        raise ValueError("need one exponent per weight")
    if any(x < 1 for x in e):
        raise ValueError("exponents must be positive")
    if any(a % x != 0 for a, x in zip(frame.ambient, e)):
        raise ValueError("exponents must divide the weights")
    bar = tuple(a // x for a, x in zip(frame.ambient, e))
    bar_frame = build(WeightVector(bar), frame.r)
    scaling = (Fraction(frame.h, bar_frame.h), Fraction(frame.hp, bar_frame.hp))
    return CoverData(scaling=scaling, degree=math.prod(e), bar_frame=bar_frame)


class DivisorRestriction(NamedTuple):
    """Restriction of the blowup to a coordinate divisor D_i (i = 0 or s).

    When the blowup restricts to an isomorphism on the strict transform,
    ``iso`` is set (and ``section`` when the strict transform is moreover a
    section of the bundle map).  Otherwise ``frame`` is the induced blowup
    of D_i, ``scaling`` converts bidegrees, and O(E)|_{D~_i} has coefficient
    ``exc_coefficient`` = 1/g_i on the new exceptional divisor.
    """

    index: int
    iso: bool
    section: bool
    exc_coefficient: Fraction
    frame: Optional[BlowupFrame]
    scaling: Optional[tuple[Fraction, Fraction]]


def restrict_to_divisor(frame: BlowupFrame, i: int) -> DivisorRestriction:
    """Induced standard weighted blowup of D_0 or D_s.

    Only the first and last coordinate divisors are supported; restriction
    to a middle-index divisor is not a standard weighted blowup in any
    canonical way and is rejected.
    """
    s, r = frame.s, frame.r
    if i not in (0, s):
        raise ValueError(
            "restriction is only defined for the first (i=0) and last (i=s) coordinate "
            "divisors; middle-index divisors do not inherit a standard weighted blowup"
        )
    exc = Fraction(1, frame.gi[i])
    # D_0 loses a weight of the left block, D_s one of the right block.  A
    # standard blowup of D_i needs two left weights and one right weight;
    # otherwise the centre meets D_i in a divisor (i = 0) or not at all
    # (i = s), and the blowup restricts isomorphically.
    split = r - 1 if i == 0 else r
    if not 1 <= split <= s - 2:
        return DivisorRestriction(index=i, iso=True, section=i == s,
                                  exc_coefficient=exc, frame=None, scaling=None)
    *_, reduced = reduce_weights(frame.ambient.omit(i))
    sub = build(WeightVector(reduced), split)
    scaling = (
        Fraction(sub.hp, frame.gi[i] * frame.hp),
        Fraction(sub.h, frame.gi[i] * frame.h),
    )
    return DivisorRestriction(index=i, iso=False, section=False,
                              exc_coefficient=exc, frame=sub, scaling=scaling)


def ray_membership_witness(frame: BlowupFrame) -> tuple[Fraction, Fraction]:
    """Exact witnesses that v_rep lies on both defining rays.

    Returns (lambda, mu) with
        v_rep - (1/h') * (a''_0,..,a''_r,0,..,0) = lambda * (a_0,...,a_s)
        v_rep + (1/h)  * (0,..,0,a''_{r+1},..,a''_s) = mu * (a_0,...,a_s)
    as identities of rational vectors; raises if either fails.
    """
    k, kp = frame.bezout
    lam = Fraction(kp, frame.hp)
    mu = Fraction(k, frame.h)
    for idx in range(frame.s + 1):
        left_part = Fraction(frame.app[idx], frame.hp) if idx <= frame.r else Fraction(0)
        if Fraction(frame.v_rep[idx]) - left_part != lam * frame.ambient[idx]:
            raise AssertionError("ray membership witness (positive span) failed")
        right_part = Fraction(frame.app[idx], frame.h) if idx > frame.r else Fraction(0)
        if Fraction(frame.v_rep[idx]) + right_part != mu * frame.ambient[idx]:
            raise AssertionError("ray membership witness (line intersection) failed")
    return lam, mu


def ray_cone_mult(frame: BlowupFrame, i: int) -> int:
    """Multiplicity of the 2-cone spanned by u_i and the new ray; equals g_i.

    Undefined when r = s-1 and i = s: the new ray is then a negative
    multiple of u_s and the pair spans no simplicial cone of the fan.
    """
    if not 0 <= i <= frame.s:
        raise ValueError("index out of range")
    if frame.r == frame.s - 1 and i == frame.s:
        raise ValueError("the last ray is proportional to the new ray when r = s-1")
    e = [0] * (frame.s + 1)
    e[i] = 1
    return QuotientLattice(frame.ambient.weights).sublattice_index([e, frame.v_rep])
