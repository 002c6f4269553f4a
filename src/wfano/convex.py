"""Exact 2D convex computations backing the surface stability bounds.

Contents: rational convex polygons with exact area/centroid, the barycenter
bounds for convex sets with a prescribed trapezoidal left slice (with the
extremal quadrilateral), the induced lower bounds for local stability
thresholds on surfaces, an exact iterative Zariski decomposition for small
curve models, and the Okounkov bodies of the three surface families used by
the certificate engine.

Each formula lives in one place.  Polygons and sliced bodies take their
area and centroid from one shoelace formula, :func:`_moments`, computed
once per body at construction; a sliced body passes its outline (0,0),
(t_q,0), then back along the graph of g.  Intersection numbers come from
:func:`_pair` and :func:`_form`.  The Zariski decomposition goes through
one elimination, :func:`_solve_negative_definite`: its pivots decide
negative definiteness by Sylvester's criterion, and the same pass solves the
orthogonality system.  The two Hirzebruch-type Okounkov bodies are stated in
closed form: for S = P(1,1,a) the triangle under g(x) = ax on [0, 1/a], and
for S = P(1,a,a+1) the same slope up to x = 1/(a(a+1)), then g(x) = 1/a - x
to 1/a; the tests check both against the Zariski decomposition of
L - xC_0 in their two-curve models.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence, Union

from .lattice import _Value, as_integer, as_rational

Point = tuple[Fraction, Fraction]


def _frac_point(p: Sequence) -> Point:
    return (as_rational(p[0], "coordinate"), as_rational(p[1], "coordinate"))


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _moments(vertices: Sequence[Point]) -> tuple[Fraction, Fraction, Fraction]:
    """(area, integral of x, integral of y) over the polygon with this
    counterclockwise outline, by the shoelace formula.  Repeated and
    collinear vertices add nothing to the sums."""
    area = mx = my = Fraction(0)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        w = x0 * y1 - x1 * y0
        area += w
        mx += (x0 + x1) * w
        my += (y0 + y1) * w
    return area / 2, mx / 6, my / 6


class _Body(_Value):
    """Area and centroid of both body types, stored once by the constructor
    in slots outside the ``_fields``."""

    __slots__ = ("_area", "_centroid")

    def _store_moments(self, outline: Sequence[Point], kind: str) -> None:
        area, mx, my = _moments(outline)
        if area <= 0:
            raise ValueError(f"{kind} must have positive area")
        object.__setattr__(self, "_area", area)
        object.__setattr__(self, "_centroid", (mx / area, my / area))

    def area(self) -> Fraction:
        return self._area

    def centroid(self) -> Point:
        return self._centroid


class RationalPolygon(_Body):
    """Convex polygon with exact rational vertices in counterclockwise order.

    The constructor enforces convexity, positive area, and no three
    consecutive collinear vertices; use :meth:`from_points` to build from an
    arbitrary point cloud via an exact convex hull.
    """

    __slots__ = _fields = ("vertices",)

    def __init__(self, vertices: Sequence[Sequence]):
        verts = tuple(_frac_point(v) for v in vertices)
        object.__setattr__(self, "vertices", verts)
        n = len(verts)
        if n < 3:
            raise ValueError("a polygon needs at least three vertices")
        for i in range(n):
            c = _cross(verts[i], verts[(i + 1) % n], verts[(i + 2) % n])
            if c <= 0:
                raise ValueError("vertices must be strictly convex counterclockwise")
        self._store_moments(verts, "polygon")

    @classmethod
    def from_points(cls, points: Sequence[Sequence]) -> "RationalPolygon":
        pts = sorted(set(_frac_point(p) for p in points))
        if len(pts) < 3:
            raise ValueError("need at least three distinct points")
        lower: list[Point] = []
        for p in pts:
            while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        upper: list[Point] = []
        for p in reversed(pts):
            while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        hull = lower[:-1] + upper[:-1]
        return cls(tuple(hull))


class SlicedBody(_Body):
    """A 2D body {0 <= x <= t_q, 0 <= y <= g(x)} with piecewise-affine g.

    ``breakpoints`` are 0 = t_0 < ... < t_q and ``pieces`` holds one
    (slope, intercept) pair per interval.  g must be nonnegative,
    continuous, and concave across pieces, and the body must have positive
    area.
    """

    __slots__ = _fields = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Sequence, pieces: Sequence[Sequence]):
        bp = tuple(as_rational(x, "breakpoint") for x in breakpoints)
        pc = tuple((as_rational(m, "slope"), as_rational(c, "intercept")) for m, c in pieces)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pc)
        if len(bp) < 2 or len(pc) != len(bp) - 1:
            raise ValueError("need q+1 breakpoints for q pieces")
        if bp[0] != 0 or any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
            raise ValueError("breakpoints must increase from 0")
        for (m, c), lo, hi in zip(pc, bp, bp[1:]):
            if m * lo + c < 0 or m * hi + c < 0:
                raise ValueError("upper boundary must be nonnegative")
        for i in range(len(pc) - 1):
            m0, c0 = pc[i]
            m1, c1 = pc[i + 1]
            x = bp[i + 1]
            if m0 * x + c0 != m1 * x + c1:
                raise ValueError("upper boundary must be continuous")
            if m1 > m0:
                raise ValueError("upper boundary must be concave")
        # outline: (0,0), (t_q,0), then back along g to (0, g(0))
        top = [(x, m * x + c) for (m, c), x in zip(pc, bp[1:])]
        zero = Fraction(0)
        self._store_moments([(zero, zero), (bp[-1], zero), *reversed(top), (zero, pc[0][1])],
                            "body")

    def upper(self, x: Fraction) -> Fraction:
        x = as_rational(x, "x")
        if not 0 <= x <= self.breakpoints[-1]:
            raise ValueError("outside the support")
        for (m, c), lo, hi in zip(self.pieces, self.breakpoints, self.breakpoints[1:]):
            if x <= hi:
                return m * x + c
        raise AssertionError

    def boundary_samples(self, count: int) -> Iterator[Point]:
        """``count + 1`` equally spaced points (x, g(x)) from x = 0 to t_q."""
        if as_integer(count, "sample count") < 1:
            raise ValueError("sample count must be >= 1")
        t = self.breakpoints[-1]
        for i in range(count + 1):
            x = t * i / count
            yield x, self.upper(x)


BodyLike = Union[RationalPolygon, SlicedBody]


def barycenter(body: BodyLike) -> tuple[Point, Fraction]:
    """Exact (centroid, area) of a polygon or sliced body."""
    return body.centroid(), body.area()


class GravityInput(_Value):
    """A convex body of area V whose part left of x = c1 is the trapezoid
    0 <= y <= ((c2 - c0)/c1) x + c0."""

    __slots__ = _fields = ("c0", "c1", "c2", "V")

    def __init__(self, c0: Fraction, c1: Fraction, c2: Fraction, V: Fraction):
        c0, c1, c2, V = map(as_rational, (c0, c1, c2, V), self._fields)
        if c0 < 0 or c1 <= 0 or c2 <= 0 or V <= 0:
            raise ValueError("need c0 >= 0 and c1, c2, V > 0")
        if c2 < c0:
            raise ValueError("need c2 >= c0")
        if V < c1 * (c0 + c2) / 2:
            raise ValueError("area V smaller than the prescribed left slice")
        for name, value in zip(self._fields, (c0, c1, c2, V)):
            object.__setattr__(self, name, value)


class GravityBounds(NamedTuple):
    b1_max: Fraction
    b2_max: Fraction
    extremal: RationalPolygon


def gravity_bounds(gin: GravityInput) -> GravityBounds:
    """Sharp upper bounds for both barycenter coordinates.

    The extremal body attaining both bounds is the convex hull of (0,c0),
    (0,0), (c1,0) and ((2V - c0 c1)/c2, (2 c2 V - c0(2V - c0 c1))/(c1 c2)).
    """
    c0, c1, c2, v = gin.c0, gin.c1, gin.c2, gin.V
    b1 = (c0**2 * c1**2 - 4 * c0 * c1 * v + 2 * c1 * c2 * v + 4 * v**2) / (6 * c2 * v)
    b2 = (-(c0**3) * c1**2 + 4 * c0**2 * c1 * v - 4 * c0 * v**2 + 4 * c2 * v**2) / (
        6 * c1 * c2 * v
    )
    t1 = (2 * v - c0 * c1) / c2
    y1 = (2 * c2 * v - c0 * (2 * v - c0 * c1)) / (c1 * c2)
    poly = RationalPolygon.from_points([(0, c0), (0, 0), (c1, 0), (t1, y1)])
    return GravityBounds(b1_max=b1, b2_max=b2, extremal=poly)


class SurfaceLocalData(_Value):
    """Local data of a plt blowup of a klt surface pair at a point.

    A is the log discrepancy of the exceptional curve C, d_list the
    coefficients of the induced boundary on C, eps a certified value not
    exceeding the Seshadri constant of L along C, and L2 = (L^2).
    """

    __slots__ = _fields = ("A", "d_list", "eps", "L2")

    def __init__(self, A: Fraction, d_list: Sequence[Fraction], eps: Fraction, L2: Fraction):
        A, eps, L2 = map(as_rational, (A, eps, L2), ("A", "eps", "L2"))
        d_list = tuple(as_rational(d, "boundary coefficient") for d in d_list)
        if A <= 0 or eps <= 0 or L2 <= 0:
            raise ValueError("A, eps and L2 must be positive")
        if any(not 0 < d < 1 for d in d_list):
            raise ValueError("boundary coefficients must lie in (0,1)")
        for name, value in zip(self._fields, (A, d_list, eps, L2)):
            object.__setattr__(self, name, value)

    @property
    def dC(self) -> Fraction:
        return sum(self.d_list, Fraction(0))

    @property
    def dmax(self) -> Fraction:
        return max(self.d_list) if self.d_list else Fraction(0)


class SurfaceDeltaBound(NamedTuple):
    bound: Fraction
    term_flag_curve: Fraction
    term_point: Fraction
    s_upper: Fraction
    t_value: Fraction


def delta_lower_gravity(data: SurfaceLocalData) -> SurfaceDeltaBound:
    """Lower bound for the local stability threshold at the centre of C.

    delta >= min( 3 eps (2 - dC) / (eps^2 (2 - dC)/A + L^2),
                  3 eps (1 - dmax) / L^2 ),
    together with the barycenter upper bound for S(L; C) and the value
    T = L^2 A / (eps (2 - dC)) recorded for the trace.
    """
    a, eps, l2 = data.A, data.eps, data.L2
    dc, dm = data.dC, data.dmax
    if dc >= 2:
        raise ValueError("boundary degree must satisfy dC < 2")
    term1 = 3 * eps * (2 - dc) / (eps**2 * (2 - dc) / a + l2)
    term2 = 3 * eps * (1 - dm) / l2
    # cross-check through the generic barycenter bounds
    gb = gravity_bounds(GravityInput(c0=Fraction(0), c1=eps,
                                     c2=eps * (2 - dc) / a, V=l2 / 2))
    if a / gb.b1_max != term1:
        raise AssertionError("flag-curve term disagrees with the barycenter bound")
    if (1 - dm) / gb.b2_max != term2:
        raise AssertionError("point term disagrees with the barycenter bound")
    return SurfaceDeltaBound(
        bound=min(term1, term2),
        term_flag_curve=term1,
        term_point=term2,
        s_upper=gb.b1_max,
        t_value=l2 * a / (eps * (2 - dc)),
    )


class NotPseudoEffectiveError(ValueError):
    """The class admits no Zariski decomposition in the given curve model."""


class ZariskiDecomposition(NamedTuple):
    positive: tuple[Fraction, ...]
    negative: tuple[Fraction, ...]
    support: tuple[int, ...]


def _solve_negative_definite(gram: list[list[Fraction]], rhs: list[Fraction],
                             message: str) -> list[Fraction]:
    """Solve gram @ x = rhs; gram must be negative definite.

    Elimination without row exchanges: the k-th pivot of a symmetric matrix
    is D_k / D_{k-1}, the ratio of consecutive leading minors.  By
    Sylvester's criterion the matrix is negative definite exactly when every
    pivot is negative, so the first pivot >= 0 raises
    :class:`NotPseudoEffectiveError` with ``message``.
    """
    n = len(gram)
    rows = [[*row, c] for row, c in zip(gram, rhs)]
    for k in range(n):
        pivot = rows[k][k]
        if pivot >= 0:
            raise NotPseudoEffectiveError(message)
        for r in range(k + 1, n):
            f = rows[r][k] / pivot
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
    x = [Fraction(0)] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return x


def _pair(m: Sequence[Sequence[Fraction]], u: Sequence[Fraction], j: int) -> Fraction:
    """Intersection number of the class u with the j-th curve."""
    return sum(u[i] * m[i][j] for i in range(len(u)))


def _form(m: Sequence[Sequence[Fraction]], u: Sequence[Fraction],
          v: Sequence[Fraction]) -> Fraction:
    """Intersection number of the classes u and v."""
    return sum(_pair(m, u, j) * v[j] for j in range(len(v)))


def zariski_decompose(intersection: Sequence[Sequence], cls: Sequence) -> ZariskiDecomposition:
    """Zariski decomposition of a class in the span of listed curves.

    ``intersection`` is the exact Gram matrix of the curves; ``cls`` the
    coefficients of the divisor class in the curve basis.  Classical
    iteration: grow the support by curves meeting the candidate positive
    part negatively (in listed order), solve the orthogonality system, and
    demand a negative-definite support with nonnegative coefficients.
    """
    m = [[as_rational(x, "intersection number") for x in row] for row in intersection]
    n = len(m)
    if any(len(row) != n for row in m) or any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
        raise ValueError("intersection matrix must be square and symmetric")
    d = [as_rational(x, "class coefficient") for x in cls]
    if len(d) != n:
        raise ValueError("class vector length mismatch")

    support: list[int] = []
    beta = [Fraction(0)] * n
    for _ in range(n + 1):
        pos = [d[i] - beta[i] for i in range(n)]
        bad = [j for j in range(n) if j not in support and _pair(m, pos, j) < 0]
        if not bad:
            decomposition = ZariskiDecomposition(
                positive=tuple(pos), negative=tuple(beta), support=tuple(sorted(support))
            )
            _check_zariski(m, decomposition)
            return decomposition
        support.extend(bad)
        gram = [[m[i][j] for j in support] for i in support]
        rhs = [_pair(m, d, j) for j in support]
        sol = _solve_negative_definite(
            gram, rhs, "support is not negative definite; class is not pseudo-effective "
            "within this curve model")
        if any(x < 0 for x in sol):
            raise NotPseudoEffectiveError("negative part would have a negative coefficient")
        beta = [Fraction(0)] * n
        for idx, j in enumerate(support):
            beta[j] = sol[idx]
    raise AssertionError("Zariski iteration failed to terminate")


def _check_zariski(m, dec: ZariskiDecomposition) -> None:
    pos = dec.positive
    if any(_pair(m, pos, j) < 0 for j in range(len(m))):
        raise AssertionError("positive part is not nef against the listed curves")
    if _form(m, pos, dec.negative) != 0:
        raise AssertionError("positive and negative part are not orthogonal")


class OkounkovCase(NamedTuple):
    """An Okounkov body of O_S(1) for one of the supported surface families,
    with the surface invariants read off the construction."""

    body: SlicedBody
    L2: Fraction
    eps: Fraction
    t_max: Fraction
    s_value: Fraction           # first barycenter coordinate
    second_coordinate: Fraction

    @property
    def area(self) -> Fraction:
        return self.body.area()


def okounkov_body_surface(case: str, a: int = 0, b: int = 0, k: int = 0,
                          flag_in_surface: bool = False) -> OkounkovCase:
    """Okounkov bodies of O_S(1) for the three supported surface families.

    - "hirzebruch": S = P(1,1,a), flag the exceptional curve of the blowup
      of the 1/a(1,1) vertex.
    - "hirzebruch2": S = P(1,a,a+1), flag the exceptional curve of the
      blowup of the 1/a(1,1) point.
    - "perhaps-useful": S a degree b*k+a surface in P(1,1,1,b) met along a
      fiber line through a smooth point.  When the line lies on the surface
      only the slice up to the nef threshold 1 is forced; the returned body
      is the barycenter-extremal completion of that slice, which is what
      the delta bounds use.  Otherwise the body is the exact triangle for a
      general flag curve in |O_S(1)|.

    Any other case is rejected, and so is a nonzero b or k, or
    ``flag_in_surface``, for the two Hirzebruch-type cases, which read only a.
    """
    a, b, k = map(as_integer, (a, b, k), ("a", "b", "k"))
    if case in ("hirzebruch", "hirzebruch2"):
        if a < 1:
            raise ValueError("need a >= 1")
        if b or k or flag_in_surface:
            raise ValueError("b, k and flag_in_surface apply only to perhaps-useful, "
                             f"not to {case}")
        # L - xC_0 = (1/a - x)C_0 + C_1, with C_0^2 = -a and C_0.C_1 = 1, meets C_0 in ax and
        # C_1 in 1/a - x + C_1^2.  Both bodies end at x = 1/a; for C_1^2 = -1/(a+1), past
        # x = 1/(a(a+1)) the positive part is (1/a - x)(C_0 + (a+1)C_1), meeting C_0 in 1/a - x.
        inv = Fraction(1, a)
        if case == "hirzebruch":
            return _finish_case(SlicedBody((0, inv), ((a, 0),)), inv)
        wall = Fraction(1, a * (a + 1))
        return _finish_case(SlicedBody((0, wall, inv), ((a, 0), (-1, inv))), wall)
    if case == "perhaps-useful":
        if a < 1 or b < 1 or k < 2:
            raise ValueError("need a, b >= 1 and k >= 2")
        d = b * k + a
        if not flag_in_surface:
            body = SlicedBody((Fraction(0), Fraction(1)),
                              ((Fraction(-d, b), Fraction(d, b)),))
            return _finish_case(body, Fraction(1))
        c0 = Fraction(1, b)
        c2 = Fraction(1, b) + k - Fraction(1, a * b)
        v = Fraction(d, 2 * b)
        gb = gravity_bounds(GravityInput(c0=c0, c1=Fraction(1), c2=c2, V=v))
        t1 = (2 * v - c0) / c2
        if t1 == 1:
            body = SlicedBody((Fraction(0), Fraction(1)), ((c2 - c0, c0),))
        else:
            slope2 = -c2 / (t1 - 1)
            body = SlicedBody(
                (Fraction(0), Fraction(1), t1),
                ((c2 - c0, c0), (slope2, -slope2 * t1)),
            )
        if body.area() != v:
            raise AssertionError("extremal completion must have the full area")
        if body.centroid()[0] != gb.b1_max:
            raise AssertionError("extremal completion must attain the first bound")
        return _finish_case(body, Fraction(1))
    raise ValueError(f"unknown Okounkov case {case!r}")


def _finish_case(body: SlicedBody, eps: Fraction) -> OkounkovCase:
    c = body.centroid()
    return OkounkovCase(
        body=body,
        L2=2 * body.area(),
        eps=eps,
        t_max=body.breakpoints[-1],
        s_value=c[0],
        second_coordinate=c[1],
    )
