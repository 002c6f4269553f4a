"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  All expected values are exact rationals; there are no numeric
tolerances anywhere.
"""

import math
import random
from fractions import Fraction

from wfano import blowup as bl
from wfano import convex as cx
from wfano import engine as ce
from wfano import moments as mo
from wfano import wpoly as wp
from wfano.lattice import WeightVector, normalize
from wfano.snf import QuotientLattice

from helpers import (_census_quasi_smooth, _census_reach, _census_singletons,
                     _census_well_formed, census, random_weight_vector, region_volume,
                     smooth_blowup_intersection)

F = Fraction


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_moment_grid():
    checks = 0
    for n in range(2, 9):
        for a in range(1, 7):
            for k in range(1, 7):
                for j in range(1, n + 1):
                    for q in (False, True):
                        s = mo.s_value(n, a, k, j, q)
                        if j == 1:
                            expected = F(a * k + n, a * (n + 1))
                        elif j == n and q:
                            expected = F(2 * a * k + 1, (a * k + 1) * (n + 1))
                        else:
                            expected = F(1, n + 1)
                        assert s == expected, (n, a, k, j, q)
                        checks += 1
                assert F(math.factorial(n) * a, a * k + 1) * region_volume(n, a, k) == 1
    _report(1, f"moment integrals equal the closed forms on the full grid "
               f"({checks} exact checks)")


def test_criterion_2_eckardt_delta():
    val, exact = mo.delta_eckardt(3, 2, 2)
    assert val == F(12, 7) and exact
    for n in range(2, 9):
        for a in range(1, 7):
            for k in range(1, 7):
                val, exact = mo.delta_eckardt(n, a, k)
                assert exact == (a * k + 1 >= n), (n, a, k)
                if exact:
                    assert val == F(n * (n + 1), a * k + n)
    _report(2, "delta at the Eckardt vertex is 12/7 for (3,2,2) and the "
               "exactness flag matches d >= n on the grid")


def test_criterion_3_instability_thresholds():
    for a in (3, 4, 5, 6):
        expected_min_n = math.floor(F(2 * a * a, a - 1)) + 1
        minimal = None
        for n in range(2, 40):
            if n + a - 2 * a <= 0:
                continue  # not Fano yet
            rep = mo.unstable_check(n, a, 2)
            if rep.verdict == "K-unstable":
                minimal = n
                break
        assert minimal == expected_min_n, (a, minimal, expected_min_n)
        rep = mo.unstable_check(minimal, a, 2)
        assert rep.witness == F(minimal * (minimal + 1),
                                (minimal + a - 2 * a) * (2 * a + minimal))
        assert rep.witness < 1
    _report(3, "minimal unstable dimension is floor(2a^2/(a-1)) + 1 for "
               "a in {3,4,5,6}, with exact witness bounds below one")


def test_criterion_4_surface_values():
    for a in range(1, 11):
        case = cx.okounkov_body_surface("hirzebruch2", a=a)
        assert case.L2 == F(1, a * (a + 1))
        assert case.eps == F(1, a * (a + 1))
        assert case.t_max == F(1, a)
        assert case.s_value == F(a + 2, 3 * a * (a + 1))
        data = cx.SurfaceLocalData(A=F(2, a), d_list=(), eps=case.eps, L2=case.L2)
        res = cx.delta_lower_gravity(data)
        assert res.bound == 3
        assert res.t_value == F(1, a)
        assert res.s_upper == case.s_value
    _report(4, "the degree a+1 surface family reproduces L2, eps, T, S "
               "exactly for a = 1..10 and the local delta bound is 3")


def _random_body_with_slice(rng, c0, c1, c2):
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
        if ylim is None or end_lower[1] >= ylim:
            return None
    pts = list(lower) + ([end_upper] if end_upper[0] > end_lower[0] else []) \
        + list(reversed(upper))
    try:
        return cx.RationalPolygon.from_points(pts)
    except ValueError:
        return None


def test_criterion_5_barycenter_bounds_randomized():
    rng = random.Random(123456)
    checked = 0
    while checked < 10_000:
        c0 = F(rng.randint(0, 3), rng.randint(1, 2))
        c2 = c0 + F(rng.randint(1, 4), rng.randint(1, 2))
        c1 = F(rng.randint(1, 3), rng.randint(1, 2))
        poly = _random_body_with_slice(rng, c0, c1, c2)
        if poly is None:
            continue
        v = poly.area()
        if v < c1 * (c0 + c2) / 2:
            continue
        gb = cx.gravity_bounds(cx.GravityInput(c0=c0, c1=c1, c2=c2, V=v))
        b1, b2 = poly.centroid()
        assert b1 <= gb.b1_max and b2 <= gb.b2_max
        checked += 1
    # the extremal quadrilateral attains the first bound exactly
    rng2 = random.Random(999)
    for _ in range(200):
        c0 = F(rng2.randint(0, 4), rng2.randint(1, 3))
        c2 = c0 + F(rng2.randint(1, 5), rng2.randint(1, 3))
        c1 = F(rng2.randint(1, 5), rng2.randint(1, 3))
        v = c1 * (c0 + c2) / 2 + F(rng2.randint(0, 9), rng2.randint(1, 3))
        gb = cx.gravity_bounds(cx.GravityInput(c0=c0, c1=c1, c2=c2, V=v))
        c = gb.extremal.centroid()
        assert c[0] == gb.b1_max
    _report(5, "10000 randomized convex bodies satisfy both barycenter "
               "bounds exactly; the extremal quadrilateral attains the first")


def test_criterion_6_strict_transforms():
    w1 = WeightVector((3, 1, 1, 1))
    f1 = wp.parse("x3^2*x1^2 + x3*x0 + x1^4 + x2^4", w1)
    ft1 = wp.strict_transform(f1, 2)
    # the displayed transform, exact; its bidegree is forced to (2, 2) by
    # h*d0 + h'*d0' = d (here 1*2 + 1*2 = 4) and the Z^2 grading
    assert ft1 == wp.parse_bigraded("y3^2*x1^2 + z*y3*x0 + z^2*x1^4 + z^2*x2^4",
                                    ft1.frame)
    assert ft1.bidegree == (2, 2)
    assert ft1.frame.h * ft1.bidegree.alpha + ft1.frame.hp * ft1.bidegree.beta \
        == f1.degree
    assert not wp.qsm_at_point(ft1, [0, 0, 1, 1, 0]).quasi_smooth

    w2 = WeightVector((2, 3, 4, 4, 5))
    f2 = wp.parse("x0*x4^2 + x1*x3*x4 + x2*x3^2 + x0^6 + x1^4 + x2^3", w2)
    ft2 = wp.strict_transform(f2, 2)
    assert ft2.bidegree == (2, 10)
    assert ft2 == wp.parse_bigraded(
        "x0*y4^2 + x1*y3*y4*z + x2*y3^2*z^2 + x0^6*z^10 + x1^4*z^10 + x2^3*z^10",
        ft2.frame)
    assert not wp.qsm_at_point(ft2, [1, 0, 0, 1, 0, 0]).quasi_smooth
    _report(6, "both strict transforms match the displayed polynomials with "
               "bidegrees (2,2) and (2,10), and both published singular "
               "points are confirmed non-quasi-smooth")


def test_criterion_7_blowup_random_corpus():
    rng = random.Random(777)
    oracle_cache: dict[tuple[int, int, int], Fraction] = {}

    def oracle(s, r, k):
        key = (s, r, k)
        if key not in oracle_cache:
            oracle_cache[key] = smooth_blowup_intersection(s, r, k)
        return oracle_cache[key]

    for _ in range(1000):
        w = random_weight_vector(rng, rng.randint(3, 6), 10, well_formed=True)
        s = w.s
        r = rng.randint(1, s - 1)
        frame = bl.build(w, r)
        lat = QuotientLattice(w.weights)
        assert lat.is_primitive(frame.v_rep)
        bl.ray_membership_witness(frame)
        cover = bl.finite_cover_pull(frame, w.weights)
        assert cover.degree == w.product()
        for k in range(s + 1):
            direct = bl.intersection_bi(frame, k)
            via_cover = F(frame.h**k * frame.hp ** (s - k), cover.degree) \
                * oracle(s, r, k)
            assert direct == via_cover, (w.weights, r, k)
        for i in range(s + 1):
            if r == s - 1 and i == s:
                continue
            assert bl.ray_cone_mult(frame, i) == frame.gi[i]
    _report(7, "1000 random frames: both intersection paths agree, the new "
               "ray is primitive, and cone multiplicities match the lattice "
               "index computation")


def test_criterion_8_theorem_endpoints():
    for n in range(3, 11):
        for a in range(2, 9):
            w = WeightVector(tuple([1] * (n + 1) + [a]))
            datum = ce.FanoDatum(ambient=w, d=n + a)
            assert datum.index == 1
            cert = ce.certify(datum)
            entry = next(t for t in cert.trace
                         if t.rule_id == "one-weight-index-one")
            assert entry.output == str(F(n + 1, n)), (n, a)
            assert cert.verdict == "K-stable"
            assert cert.bound >= F(n + 1, n)
    for n in range(3, 11):
        for a in range(2, 11):
            for b in range(a, 11):
                w = WeightVector(tuple([1] * n + [a, b]))
                d = n + a + b - 1
                datum = ce.FanoDatum(ambient=w, d=d)
                assert datum.index == 1
                cert = ce.certify(datum)
                entry = next(t for t in cert.trace
                             if t.rule_id == "two-weight-index-one")
                assert entry.output == str(F((n + 1) * a, n * a + 1)), (n, a, b)
                assert cert.verdict == "K-stable"
                assert cert.bound >= F((n + 1) * a, n * a + 1)
                assert cert.anticanonical_bound > 1
    _report(8, "index-one endpoints certify K-stable with the exact rule "
               "values (n+1)/n and (n+1)/(n+1/a) across both sweeps")


def test_criterion_9_numeric_lemmas_exhaustive():
    checks = 0

    # (i) two big weights, index one: (n+1)a_n/d >= 1, equality only for
    # the degree 2n+2 member in P(1^n, 2, n+1)
    for n in range(3, 13):
        for an in range(2, 41):
            for atop in range(an, 41):
                d = n + an + atop - 1
                rem = d % atop
                allowed = {0, 1}
                if an < atop:
                    allowed.add(an)
                if rem not in allowed:
                    continue
                k = d // atop
                assert k >= 2, (n, an, atop)
                checks += 1
                assert (n + 1) * an >= d, (n, an, atop)
                if (n + 1) * an == d:
                    assert (an, atop) == (2, n + 1), (n, an, atop)
                if rem != 0:
                    assert d <= n * an + 1, (n, an, atop)

    # (ii) base locus on X, d = k*a_{n+1} + 1: (n+1)a_n > d for k >= 4,
    # or k = 3 with a_n >= 3 (superset over middle-weight sum classes)
    for n in range(3, 13):
        c1_min = (n + 2 + 1) // 2
        for c1 in range(c1_min, n + 1):
            m_count = n - c1
            for an in range(2, 41):
                for atop in range(an, 41):
                    base = c1 + an + atop - 1
                    for k in range(2, (base + m_count * an) // atop + 1):
                        d = k * atop + 1
                        s_mid = d - base
                        if not (2 * m_count <= s_mid <= m_count * an):
                            continue
                        if d % an != 1:
                            continue
                        if k >= 4 or (k >= 3 and an >= 3):
                            checks += 1
                            assert (n + 1) * an > d, (n, c1, an, atop, k)

    # (iii) smallest weight one, index one: (n+1)a_{n+1} > d
    for n in range(3, 13):
        for atop in range(2, 41):
            for s_mid in range(n, n * atop + 1):
                if s_mid == n * atop:
                    continue  # all middle weights equal to a_{n+1}: not well-formed
                d = s_mid + atop
                checks += 1
                assert (n + 1) * atop > d, (n, atop, s_mid)

    # (iv) base locus on X with all big weights >= 2: d < (n+1)a_n or d < n^2
    for n in range(3, 13):
        c1_min = (n + 2 + 1) // 2
        for c1 in range(c1_min, n + 1):
            m_count = n - c1
            for an in range(2, 41):
                for atop in range(an, 41):
                    base = c1 + an + atop - 1
                    for k in range(2, (base + m_count * an) // atop + 1):
                        d = k * atop + 1
                        s_mid = d - base
                        if not (2 * m_count <= s_mid <= m_count * an):
                            continue
                        if d % an != 1:
                            continue
                        checks += 1
                        assert d < (n + 1) * an or d < n * n, (n, c1, an, atop, k)

    _report(9, f"all four numeric inequalities verified exhaustively for "
               f"n <= 12 and weights <= 40 ({checks} cases), including the "
               f"unique equality member of degree 2n+2")


def test_criterion_10_normalization_property():
    rng = random.Random(31337)
    for _ in range(10_000):
        w = random_weight_vector(rng, rng.randint(2, 7), 50)
        rep = normalize(w)
        assert w.product() == rep.g ** w.s * rep.output.product()
        assert rep.output.is_well_formed
        again = normalize(rep.output)
        assert again.output == rep.output and again.g == 1
    _report(10, "10000 random weight vectors satisfy the product identity "
                "prod(a) = g^s * prod(a') and normalization is idempotent")


# Criterion 11: X_d in P(1^n, a, b) with 2 <= a <= b, n >= 3 and index 1, so
# d = n + a + b - 1 >= b + 2 and `two-weight-degree` gives (n+1)a/d, which
# exceeds 1 exactly when n(a-1) - (b-1) > 0.  Thm 8.1 of Iano-Fletcher for
# I = {x_b} (the singleton condition) says b divides d or d - a_e for another
# weight a_e, so d = r (mod b) with r = a, 1 or 0.  Then b divides
# d - r - b = n + a - 1 - r > 0, so n >= b - a + 1 + r, and since a - 1 > 0,
# n(a-1) - (b-1) >= n_min(a-1) - (b-1) = P(a-2, b-a).  Each case is data:
# r and n_min as affine forms (constant, a, b), and P as {(i, j): c}, the
# coefficient c of u^i v^j in u = a-2 >= 0, v = b-a >= 0.
_HEADLINE_CASES = (
    ((0, 1, 0), (1, 0, 1), {(2, 0): 1, (1, 1): 1, (1, 0): 3, (0, 0): 2}),   # d = a: n >= b+1
    ((1, 0, 0), (2, -1, 1), {(1, 1): 1, (1, 0): 1, (0, 0): 1}),             # d = 1: n >= b-a+2
    ((0, 0, 0), (1, -1, 1), {(1, 1): 1}),                                   # d = 0: n >= b-a+1
)


def _poly(*terms):
    """The integer polynomial in (a, b) with the given ((i, j), c) terms,
    c a^i b^j, as {(i, j): c} without zero coefficients."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _poly_mul(p, q):
    return _poly(*(((i + k, j + m), c * e) for (i, j), c in p.items()
                   for (k, m), e in q.items()))


def _affine(form):
    c, ca, cb = form
    return _poly(((0, 0), c), ((1, 0), ca), ((0, 1), cb))


def test_criterion_11_headline_theorem_every_n():
    u, v = _affine((-2, 1, 0)), _affine((0, -1, 1))
    for residue, n_min, bound in _HEADLINE_CASES:
        # n_min = b - a + 1 + r, and n_min(a-1) - (b-1) expands to P(a-2, b-a)
        assert _affine(n_min) == _poly(*_affine((1, -1, 1)).items(), *_affine(residue).items())
        expanded = _poly()
        for (i, j), c in bound.items():
            term = {(0, 0): c}
            for factor in [u] * i + [v] * j:
                term = _poly_mul(term, factor)
            expanded = _poly(*expanded.items(), *term.items())
        assert _poly(*_poly_mul(_affine(n_min), _affine((-1, 1, 0))).items(),
                     ((0, 1), -1), ((0, 0), 1)) == expanded, residue
        assert all(c > 0 for c in bound.values())      # so P >= P(0, 0) on u, v >= 0
    # r = a or 1 is strict; r = 0 leaves uv, zero only where a = 2 or a = b
    assert [bound.get((0, 0), 0) for _, _, bound in _HEADLINE_CASES] == [2, 1, 0]
    assert _HEADLINE_CASES[2][2] == {(1, 1): 1}
    # the singleton condition at b allows d = 0 or d = a_e for a_e in {1, a}
    assert {residue for residue, _, _ in _HEADLINE_CASES} == {(0, 0, 0), (1, 0, 0), (0, 1, 0)}

    def exists(n, a, b):
        """The oracle's existence test, reduced: a subset of the variables
        that holds a weight-one x has x^d, so only subsets of {a, b} can
        fail Thm 8.1, and two weight-one variables witness them all."""
        w, d = (1,) * n + (a, b), n + a + b - 1
        return (_census_singletons(w, d) and _census_well_formed(w, d)
                and _census_quasi_smooth((1, 1, a, b), d, _census_reach((1, 1, a, b), d)))

    assert [(w, d) for w, d in census(3, 10) if w[:3] == (1, 1, 1) and w[3] > 1] == [
        ((1, 1, 1, a, b), a + b + 2) for a in range(2, 11) for b in range(a, 11)
        if exists(3, a, b)]
    families, series = 0, []
    for n in range(3, 16):
        for a in range(2, 61):
            for b in range(a, 61):
                if not exists(n, a, b):
                    continue
                d = n + a + b - 1
                families += 1
                cert = ce.certify(ce.FanoDatum(ambient=WeightVector((1,) * n + (a, b)), d=d))
                value = F((n + 1) * a, d)
                assert [entry for rule, _, _, entry in cert.fired
                        if rule.id == "two-weight-degree"] == [value], (n, a, b)
                cases = [(n_min, bound) for residue, n_min, bound in _HEADLINE_CASES
                         if (d - residue[0] - residue[1] * a - residue[2] * b) % b == 0]
                assert cases, (n, a, b)
                for (c, ca, cb), bound in cases:
                    assert n >= c + ca * a + cb * b, (n, a, b)
                    assert n * (a - 1) - (b - 1) >= sum(
                        coeff * (a - 2) ** i * (b - a) ** j for (i, j), coeff in bound.items())
                if value == 1:
                    series.append((n, a, b, d))
                else:
                    assert value > 1, (n, a, b)
    assert families == 315
    assert series == [(n, 2, n + 1, 2 * n + 2) for n in range(3, 16)]
    _report(11, f"two-weight-degree gives (n+1)a/d > 1 on every index-1 family in "
                f"P(1^n, a, b), n >= 3, by three congruence cases checked as integer "
                f"polynomials; {families} families (n <= 15, b <= 60) confirm it, and "
                f"the value is exactly 1 only on X_(2n+2) in P(1^n, 2, n+1)")
