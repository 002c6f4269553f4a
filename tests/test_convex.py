import itertools
import random
from fractions import Fraction

import pytest

from wfano import convex as cx


F = Fraction


def test_polygon_basic():
    tri = cx.RationalPolygon.from_points([(0, 0), (1, 0), (0, F(7, 2))])
    assert tri.area() == F(7, 4)
    assert tri.centroid() == (F(1, 3), F(7, 6))

    sq = cx.RationalPolygon.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert sq.centroid() == (F(1, 2), F(1, 2))

    with pytest.raises(ValueError):
        cx.RationalPolygon(((0, 0), (1, 0), (2, 0)))  # collinear
    with pytest.raises(ValueError):
        cx.RationalPolygon(((0, 0), (0, 1), (1, 0)))  # clockwise


def test_sliced_body_validation():
    body = cx.SlicedBody((0, 1), ((F(-1), F(1)),))
    assert body.area() == F(1, 2)
    assert body.centroid() == (F(1, 3), F(1, 3))
    with pytest.raises(ValueError):
        cx.SlicedBody((0, 1, 2), ((F(0), F(1)), (F(1), F(0))))  # convex kink
    with pytest.raises(ValueError):
        cx.SlicedBody((0, 1, 2), ((F(0), F(1)), (F(0), F(2))))  # jump


def _random_sliced_body(rng: random.Random):
    """Breakpoints and (slope, intercept) pieces of a random concave g >= 0.

    Walks right from g(0) with falling slopes, ending a piece at the axis
    when it would cross it; a mirror x -> t_q - x swaps the two ends, so
    both g(0) = 0 and g(t_q) = 0 occur."""
    xs, ys = [F(0)], [F(rng.choice([0, 0, 1, 2, 3]), rng.randint(1, 3))]
    slope = F(rng.randint(1 if ys[0] == 0 else -3, 4), rng.randint(1, 3))
    for _ in range(rng.randint(1, 4)):
        dx = F(rng.randint(1, 4), rng.randint(1, 3))
        if ys[-1] + slope * dx < 0:
            dx = -ys[-1] / slope
        xs.append(xs[-1] + dx)
        ys.append(ys[-1] + slope * dx)
        if ys[-1] == 0:
            break
        slope -= F(rng.randint(0, 3), rng.randint(1, 2))
    if rng.random() < 0.5:
        xs, ys = [xs[-1] - x for x in reversed(xs)], ys[::-1]
    pieces = []
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        m = (y1 - y0) / (x1 - x0)
        pieces.append((m, y0 - m * x0))
    return tuple(xs), tuple(pieces)


def _simpson(f, lo, hi):
    """Exact for polynomials of degree <= 3."""
    return (hi - lo) * (f(lo) + 4 * f((lo + hi) / 2) + f(hi)) / 6


def test_sliced_body_moments_match_piecewise_integrals():
    """Area and centroid from the shoelace outline equal the per-piece
    integrals of g, x*g and g^2/2."""
    rng = random.Random(1729)
    ends = {"g(0) = 0": 0, "g(t_q) = 0": 0}
    for _ in range(300):
        bp, pieces = _random_sliced_body(rng)
        body = cx.SlicedBody(bp, pieces)
        area = mx = my = F(0)
        for (m, c), lo, hi in zip(pieces, bp, bp[1:]):
            area += _simpson(lambda x: m * x + c, lo, hi)
            mx += _simpson(lambda x: x * (m * x + c), lo, hi)
            my += _simpson(lambda x: (m * x + c) ** 2 / 2, lo, hi)
        assert body.area() == area
        assert body.centroid() == (mx / area, my / area)
        assert cx.barycenter(body) == ((mx / area, my / area), area)
        ends["g(0) = 0"] += pieces[0][1] == 0
        ends["g(t_q) = 0"] += body.upper(bp[-1]) == 0
    assert min(ends.values()) > 50, ends


def test_zero_area_sliced_body_is_rejected_at_construction():
    for bp, pieces in [((0, 1), ((0, 0),)), ((0, 1, 3), ((0, 0), (0, 0)))]:
        with pytest.raises(ValueError, match="^body must have positive area$"):
            cx.SlicedBody(bp, pieces)


def test_polygon_moments_do_not_depend_on_the_first_vertex():
    rng = random.Random(271)
    for _ in range(100):
        pts = [(F(rng.randint(-5, 5), rng.randint(1, 3)), F(rng.randint(-5, 5), rng.randint(1, 3)))
               for _ in range(rng.randint(3, 9))]
        try:
            poly = cx.RationalPolygon.from_points(pts)
        except ValueError:
            continue
        v = poly.vertices
        # reference: area-weighted centroids of the fan of triangles from v[0]
        fan = [(v[0], p, q) for p, q in zip(v[1:], v[2:])]
        areas = [((p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])) / 2
                 for o, p, q in fan]
        total = sum(areas)
        ref = tuple(sum(a * (o[i] + p[i] + q[i]) / 3 for a, (o, p, q) in zip(areas, fan)) / total
                    for i in (0, 1))
        for start in range(len(v)):
            turned = cx.RationalPolygon(v[start:] + v[:start])
            assert turned.area() == total
            assert turned.centroid() == ref


def test_gravity_input_validation():
    with pytest.raises(ValueError):
        cx.GravityInput(c0=2, c1=1, c2=1, V=10)  # c2 < c0
    with pytest.raises(ValueError):
        cx.GravityInput(c0=0, c1=1, c2=2, V=F(1, 2))  # V below the slice area


def test_gravity_bounds_degenerate_trapezoid():
    # V equal to the trapezoid area: the extremal set is the trapezoid
    gin = cx.GravityInput(c0=1, c1=2, c2=3, V=4)
    gb = cx.gravity_bounds(gin)
    assert set(gb.extremal.vertices) == {(0, 0), (2, 0), (2, 3), (0, 1)}
    c = gb.extremal.centroid()
    assert c[0] == gb.b1_max and c[1] == gb.b2_max


def test_gravity_bounds_extremal_attains_both():
    rng = random.Random(314)
    for _ in range(200):
        c0 = F(rng.randint(0, 4), rng.randint(1, 3))
        c2 = c0 + F(rng.randint(1, 5), rng.randint(1, 3))
        c1 = F(rng.randint(1, 5), rng.randint(1, 3))
        vmin = c1 * (c0 + c2) / 2
        v = vmin + F(rng.randint(0, 9), rng.randint(1, 3))
        gb = cx.gravity_bounds(cx.GravityInput(c0=c0, c1=c1, c2=c2, V=v))
        assert gb.extremal.area() == v
        c = gb.extremal.centroid()
        assert c == (gb.b1_max, gb.b2_max)


def _random_body_with_slice(rng: random.Random, gin: cx.GravityInput):
    """A random convex polygon whose part left of c1 is exactly the
    prescribed trapezoid.  The area is whatever it comes out to be."""
    c0, c1, c2 = gin.c0, gin.c1, gin.c2
    left_slope = (c2 - c0) / c1
    upper = [(F(0), c0), (c1, c2)]
    lower = [(F(0), F(0)), (c1, F(0))]
    x_top, y_top = c1, c2
    slope = left_slope
    for _ in range(rng.randint(0, 3)):
        dx = F(rng.randint(1, 4), rng.randint(1, 3))
        slope = slope - F(rng.randint(1, 6), rng.randint(1, 3))
        x_top, y_top = x_top + dx, y_top + slope * dx
        if y_top <= 0:
            x_top, y_top = upper[-1]
            break
        upper.append((x_top, y_top))
    x_bot, y_bot = c1, F(0)
    bslope = F(0)
    for _ in range(rng.randint(0, 2)):
        dx = F(rng.randint(1, 3), rng.randint(1, 3))
        if x_bot + dx >= x_top:
            break
        bslope = bslope + F(rng.randint(0, 4), rng.randint(1, 3))
        x_bot, y_bot = x_bot + dx, y_bot + bslope * dx
        lower.append((x_bot, y_bot))
    # close with a vertical edge at min(x_top, ...) keeping convexity: clip
    # the lower chain so it stays below the upper chain
    def upper_at(x):
        for (xa, ya), (xb, yb) in zip(upper, upper[1:]):
            if xa <= x <= xb:
                return ya + (yb - ya) * (x - xa) / (xb - xa)
        return None

    while len(lower) > 2 and (upper_at(lower[-1][0]) is None
                              or lower[-1][1] >= upper_at(lower[-1][0])):
        lower.pop()
    end_upper = upper[-1]
    end_lower = lower[-1]
    if end_lower[0] < end_upper[0]:
        ylim = upper_at(end_lower[0])
        pts = upper + [end_lower] + lower[1:]
        if ylim is None or end_lower[1] >= ylim:
            return None
    pts = [p for p in lower] + ([end_upper] if end_upper[0] > end_lower[0] else []) \
        + [p for p in reversed(upper)]
    try:
        return cx.RationalPolygon.from_points(pts)
    except ValueError:
        return None


def test_random_bodies_respect_gravity_bounds():
    rng = random.Random(2024)
    checked = 0
    while checked < 400:
        c0 = F(rng.randint(0, 3), rng.randint(1, 2))
        c2 = c0 + F(rng.randint(1, 4), rng.randint(1, 2))
        c1 = F(rng.randint(1, 3), rng.randint(1, 2))
        gin0 = cx.GravityInput(c0=c0, c1=c1, c2=c2,
                               V=c1 * (c0 + c2) / 2)
        poly = _random_body_with_slice(rng, gin0)
        if poly is None:
            continue
        v = poly.area()
        if v < c1 * (c0 + c2) / 2:
            continue
        gin = cx.GravityInput(c0=c0, c1=c1, c2=c2, V=v)
        gb = cx.gravity_bounds(gin)
        b1, b2 = poly.centroid()
        assert b1 <= gb.b1_max
        assert b2 <= gb.b2_max
        checked += 1


def test_delta_lower_gravity_examples():
    # vertex of P(1,1,a): eps = 1/a, L2 = 1/a, A = 2/a, no boundary
    for a in range(1, 8):
        data = cx.SurfaceLocalData(A=F(2, a), d_list=(), eps=F(1, a), L2=F(1, a))
        res = cx.delta_lower_gravity(data)
        assert res.bound == 3
        assert res.term_point == 3
    # vertex of P(1,a,a+1)
    for a in range(1, 8):
        data = cx.SurfaceLocalData(A=F(2, a), d_list=(),
                                   eps=F(1, a * (a + 1)), L2=F(1, a * (a + 1)))
        res = cx.delta_lower_gravity(data)
        assert res.bound == 3
        assert res.s_upper == F(a + 2, 3 * a * (a + 1))
        assert res.t_value == F(1, a)


def test_delta_lower_gravity_with_boundary():
    data = cx.SurfaceLocalData(A=F(1), d_list=(F(1, 2),), eps=F(1, 3), L2=F(1, 2))
    res = cx.delta_lower_gravity(data)
    term1 = 3 * F(1, 3) * F(3, 2) / (F(1, 9) * F(3, 2) + F(1, 2))
    term2 = 3 * F(1, 3) * F(1, 2) / F(1, 2)
    assert res.term_flag_curve == term1
    assert res.term_point == term2
    assert res.bound == min(term1, term2)


def test_zariski_decompose_examples():
    # three-curve model: E, l, C with the stated intersections
    for (a, b, k) in [(2, 1, 2), (3, 2, 3), (1, 2, 2)]:
        M = [[-a * b, 1, a - 1], [1, -k, k], [a - 1, k, 0]]
        for x in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            cls = [F(1, b), 1 - x, F(1)]
            dec = cx.zariski_decompose(M, cls)
            assert dec.negative == (x / (a * b), 0, 0)

    # nef class: zero negative part
    M = [[-2, 1], [1, 0]]
    dec = cx.zariski_decompose(M, [F(1, 2), F(1)])
    assert dec.negative == (0, 0)

    # vertex-slice model: curves (E, V) for degree ak+1 surfaces
    for (a, k) in [(2, 2), (3, 1), (2, 3)]:
        M = [[-a, 1 + a * k], [1 + a * k, -k * (1 + a * k)]]
        for x in (F(1, a) + F(1, 7), F(1, a) + F(1, 2), Fraction(a * k + 1, a)):
            cls = [k + F(1, a) - x, F(1)]
            dec = cx.zariski_decompose(M, cls)
            assert dec.negative == (0, (x - F(1, a)) / k)


def test_zariski_postconditions_random():
    rng = random.Random(8)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 4)
        M = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = F(rng.randint(-4, 3))
                M[i][j] = v
                M[j][i] = v
        cls = [F(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)]
        try:
            dec = cx.zariski_decompose(M, cls)
        except cx.NotPseudoEffectiveError:
            continue
        # nef against listed curves, orthogonality, nonnegative coefficients
        for j in range(n):
            assert sum(dec.positive[i] * M[i][j] for i in range(n)) >= 0
        assert all(c >= 0 for c in dec.negative)
        pn = sum(dec.positive[i] * M[i][j] * dec.negative[j]
                 for i in range(n) for j in range(n))
        assert pn == 0
        checked += 1


def _cofactor_det(m):
    if not m:
        return F(1)
    return sum((-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def test_negative_definite_solve_matches_sylvester():
    """The elimination raises exactly when some leading minor D_k has sign
    other than (-1)^k, and otherwise solves every column exactly."""
    rng = random.Random(17)
    outcomes = {"raised": 0, "solved": 0}
    for trial in range(400):
        n = rng.randint(1, 4)
        gram = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = F(rng.randint(-6, 3), rng.randint(1, 3))
        if trial % 3 == 0:
            for i in range(n):
                gram[i][i] -= 10
        if trial % 5 == 1 and n > 1:
            # the last row and column repeat the first: singular
            for j in range(n):
                gram[n - 1][j] = gram[j][n - 1] = gram[0][j]
            gram[n - 1][n - 1] = gram[0][0]
        if trial % 7 == 2:
            gram[0][0] = F(rng.randint(0, 3))
        columns = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                   for _ in range(rng.randint(1, 3))]
        before = [row[:] for row in gram]
        definite = all(_cofactor_det([row[:k] for row in gram[:k]]) * (-1) ** k > 0
                       for k in range(1, n + 1))
        if not definite:
            for c in columns:
                with pytest.raises(cx.NotPseudoEffectiveError, match="^not definite$"):
                    cx._solve_negative_definite(gram, c, "not definite")
            outcomes["raised"] += 1
        else:
            for c in columns:
                x = cx._solve_negative_definite(gram, c, "not definite")
                assert [sum(gram[i][j] * x[j] for j in range(n)) for i in range(n)] == c
            outcomes["solved"] += 1
        assert gram == before
    assert min(outcomes.values()) > 100


def test_okounkov_hirzebruch():
    for a in range(1, 11):
        case = cx.okounkov_body_surface("hirzebruch", a=a)
        assert case.L2 == F(1, a)
        assert case.eps == F(1, a)
        assert case.t_max == F(1, a)
        assert case.s_value == F(2, 3 * a)
        assert case.area == F(1, 2 * a)


def test_okounkov_hirzebruch2():
    for a in range(1, 11):
        case = cx.okounkov_body_surface("hirzebruch2", a=a)
        assert case.L2 == F(1, a * (a + 1))
        assert case.eps == F(1, a * (a + 1))
        assert case.t_max == F(1, a)
        assert case.s_value == F(a + 2, 3 * a * (a + 1))


@pytest.mark.parametrize("name, c1_squared", [
    ("hirzebruch", lambda a: F(0)),
    ("hirzebruch2", lambda a: F(-1, a + 1)),
])
def test_okounkov_closed_forms_match_the_zariski_decomposition(name, c1_squared):
    # the curve model of S: L = C_0/a + C_1, flag C_0, C_0^2 = -a, C_0.C_1 = 1
    for a in range(1, 11):
        case = cx.okounkov_body_surface(name, a=a)
        m = [[F(-a), F(1)], [F(1), c1_squared(a)]]
        for i in range(41):
            x = case.t_max * i / 40
            dec = cx.zariski_decompose(m, (F(1, a) - x, F(1)))
            p = dec.positive
            assert p[0] * m[0][0] + p[1] * m[1][0] == case.body.upper(x)
            assert (dec.support == ()) == (x <= case.eps)
        assert sum(p[i] * m[i][j] * p[j] for i in range(2) for j in range(2)) == 0


def test_boundary_samples_need_a_positive_count():
    body = cx.okounkov_body_surface("hirzebruch", a=2).body
    assert list(body.boundary_samples(2)) == [(0, body.upper(0)),
                                        (F(1, 4), body.upper(F(1, 4))),
                                        (F(1, 2), body.upper(F(1, 2)))]
    for count in (0, -3):
        with pytest.raises(ValueError, match="sample count"):
            next(body.boundary_samples(count))
    with pytest.raises(ValueError, match="sample count must be an integer, not 2.5"):
        next(body.boundary_samples(2.5))


def test_boundary_samples_stream(monkeypatch):
    """Taking 3 of 10^4 + 1 samples evaluates the boundary 3 times."""
    body = cx.okounkov_body_surface("hirzebruch", a=2).body
    calls = [0]
    upper = cx.SlicedBody.upper

    def spy(self, x):
        calls[0] += 1
        return upper(self, x)
    monkeypatch.setattr(cx.SlicedBody, "upper", spy)
    samples = itertools.islice(body.boundary_samples(10**4), 3)
    assert list(samples) == [(0, 0), (F(1, 20000), F(1, 10000)), (F(1, 10000), F(1, 5000))]
    assert calls[0] == 3


def test_okounkov_perhaps_useful():
    # general flag curve: the triangle with vertices (0,0), (1,0), (0,d/b)
    case = cx.okounkov_body_surface("perhaps-useful", a=1, b=2, k=3)
    d = 2 * 3 + 1
    assert case.body.breakpoints == (0, 1)
    assert case.body.upper(F(0)) == F(d, 2)
    assert case.s_value == F(1, 3)
    assert case.second_coordinate == F(d, 3 * 2)
    assert case.area == F(d, 2 * 2)

    # fiber line on the surface: slice over [0,1] is 1/b + (k - 1/(ab)) x
    case2 = cx.okounkov_body_surface("perhaps-useful", a=2, b=1, k=2,
                                     flag_in_surface=True)
    dd = 1 * 2 + 2
    assert case2.body.upper(F(0)) == F(1, 1)
    slope = case2.body.pieces[0][0]
    assert slope == 2 - F(1, 2)
    assert case2.area == F(dd, 2)

    with pytest.raises(ValueError):
        cx.okounkov_body_surface("unknown-case", a=1)


def test_okounkov_area_is_half_selfintersection():
    for a in range(1, 6):
        for name in ("hirzebruch", "hirzebruch2"):
            case = cx.okounkov_body_surface(name, a=a)
            assert 2 * case.area == case.L2
    for (a, b, k) in [(1, 1, 2), (2, 3, 2), (3, 2, 4)]:
        for flag in (False, True):
            case = cx.okounkov_body_surface("perhaps-useful", a=a, b=b, k=k,
                                            flag_in_surface=flag)
            assert 2 * case.area == F(b * k + a, b)


@pytest.mark.parametrize("call, message", [
    (lambda: cx.RationalPolygon(((0, 0), (1, 0))), "a polygon needs at least three vertices"),
    (lambda: cx.SlicedBody((0, 1), ((0, 1), (0, 1))), "need q+1 breakpoints for q pieces"),
    (lambda: cx.SlicedBody((0, 0), ((0, 1),)), "breakpoints must increase from 0"),
    (lambda: cx.SlicedBody((0, 1), ((-2, 1),)), "upper boundary must be nonnegative"),
    (lambda: cx.SlicedBody((0, 1), ((0, 1),)).upper(2), "outside the support"),
    (lambda: cx.GravityInput(c0=0, c1=0, c2=1, V=1), "need c0 >= 0 and c1, c2, V > 0"),
    (lambda: cx.SurfaceLocalData(A=0, d_list=(), eps=1, L2=1),
     "A, eps and L2 must be positive"),
    (lambda: cx.SurfaceLocalData(A=1, d_list=(1,), eps=1, L2=1),
     "boundary coefficients must lie in (0,1)"),
    (lambda: cx.delta_lower_gravity(
        cx.SurfaceLocalData(A=1, d_list=(F(1, 2), F(3, 4), F(3, 4)), eps=1, L2=1)),
     "boundary degree must satisfy dC < 2"),
    (lambda: cx.zariski_decompose([[-1]], [1, 2]), "class vector length mismatch"),
    (lambda: cx.okounkov_body_surface("hirzebruch", a=1, flag_in_surface=True),
     "b, k and flag_in_surface apply only to perhaps-useful, not to hirzebruch"),
    (lambda: cx.okounkov_body_surface("hirzebruch2", a=2, b=4),
     "b, k and flag_in_surface apply only to perhaps-useful, not to hirzebruch2"),
    # integers are checked, not truncated, and no float becomes an exact rational
    (lambda: cx.okounkov_body_surface("hirzebruch", a=2.5), "a must be an integer, not 2.5"),
    (lambda: cx.okounkov_body_surface("hirzebruch", a=True), "a must be an integer, not True"),
    (lambda: next(cx.SlicedBody((0, 1), ((0, 1),)).boundary_samples(True)),
     "sample count must be an integer, not True"),
    (lambda: next(cx.SlicedBody((0, 1), ((0, 1),)).boundary_samples(False)),
     "sample count must be an integer, not False"),
    (lambda: cx.GravityInput(0.1, 1, 1, 1), "c0 must be an int or a Fraction, not 0.1"),
    (lambda: cx.RationalPolygon.from_points([(0, 0), (1, 0), (0, 0.5)]),
     "coordinate must be an int or a Fraction, not 0.5"),
    (lambda: cx.SlicedBody((0, 0.5), ((1, 0),)),
     "breakpoint must be an int or a Fraction, not 0.5"),
    (lambda: cx.SlicedBody((0, 1), ((0, "1"),)),
     "intercept must be an int or a Fraction, not '1'"),
    (lambda: cx.SlicedBody((0, 1), ((0, 1),)).upper(0.5),
     "x must be an int or a Fraction, not 0.5"),
    (lambda: cx.SurfaceLocalData(A=1, d_list=(0.5,), eps=1, L2=1),
     "boundary coefficient must be an int or a Fraction, not 0.5"),
    (lambda: cx.SurfaceLocalData(A=1, d_list=(), eps=0.25, L2=1),
     "eps must be an int or a Fraction, not 0.25"),
    (lambda: cx.zariski_decompose([[-1.0]], [1]),
     "intersection number must be an int or a Fraction, not -1.0"),
    (lambda: cx.zariski_decompose([[-1]], [0.5]),
     "class coefficient must be an int or a Fraction, not 0.5"),
])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message

