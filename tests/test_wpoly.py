import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wfano import wpoly as wp
from wfano.blowup import build
from wfano.lattice import WeightVector


W3111 = WeightVector((3, 1, 1, 1))
W23445 = WeightVector((2, 3, 4, 4, 5))


def test_parse_examples():
    f = wp.parse("x3^2*x1^2 + x3*x0 + x1^4 + x2^4", W3111)
    assert f.degree == 4
    assert len(f.terms) == 4
    g = wp.parse("x0^5", WeightVector((3, 1, 1)))
    assert g.degree == 15
    with pytest.raises(ValueError) as err:
        wp.parse("x0 + x1^2", WeightVector((1, 1)))
    assert "degree" in str(err.value)
    with pytest.raises(ValueError):
        wp.parse("x0 - x0", WeightVector((1, 1)))  # zero polynomial
    with pytest.raises(ValueError, match="constant"):
        wp.parse("3/2", WeightVector((1, 1)))  # no hypersurface
    # a derivative may have degree 0; only parsed input must define a hypersurface
    assert wp.parse("x0", WeightVector((1, 1))).partial(0).degree == 0


def test_parse_rational_coefficients():
    f = wp.parse("2/3*x0^2 - x1^2", WeightVector((1, 1)))
    assert dict(f.terms) == {(2, 0): Fraction(2, 3), (0, 2): -1}


def test_strict_transform_example_one():
    f = wp.parse("x3^2*x1^2 + x3*x0 + x1^4 + x2^4", W3111)
    ft = wp.strict_transform(f, 2)
    frame = ft.frame
    # h*d0 + h'*d0' = d forces the bidegree (2, 2) for the displayed terms
    assert frame.h * ft.bidegree.alpha + frame.hp * ft.bidegree.beta == f.degree
    assert ft.bidegree == (2, 2)
    expected = wp.parse_bigraded("y3^2*x1^2 + z*y3*x0 + z^2*x1^4 + z^2*x2^4", frame)
    assert ft == expected
    assert not ft.divisible_by_z()


def test_strict_transform_example_two():
    f = wp.parse("x0*x4^2 + x1*x3*x4 + x2*x3^2 + x0^6 + x1^4 + x2^3", W23445)
    ft = wp.strict_transform(f, 2)
    assert ft.bidegree == (2, 10)
    expected = wp.parse_bigraded(
        "x0*y4^2 + x1*y3*y4*z + x2*y3^2*z^2 + x0^6*z^10 + x1^4*z^10 + x2^3*z^10",
        ft.frame,
    )
    assert ft == expected


def test_strict_transform_center_avoiding():
    w = WeightVector((1, 1, 2))
    f = wp.parse("x2^3", w)  # d = 6 = 3 * a_2, missing the center
    ft = wp.strict_transform(f, 1)
    assert ft.bidegree == (0, 3)
    assert list(ft.terms) == [((0, 0, 3, 0), Fraction(1))]


def _random_poly(rng, w: WeightVector, d: int):
    terms = {}
    n = len(w)

    def monomials(i, left, expo):
        if i == n:
            if left == 0:
                yield tuple(expo)
            return
        for e in range(left // w[i] + 1):
            yield from monomials(i + 1, left - e * w[i], expo + [e])

    monos = list(monomials(0, d, []))
    if not monos:
        return None
    chosen = rng.sample(monos, k=min(len(monos), rng.randint(1, 6)))
    for m in chosen:
        terms[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    terms = {k: v for k, v in terms.items() if v != 0}
    if not terms:
        return None
    return wp.SparseWPoly.from_dict(w, terms)


def test_push_pull_property():
    rng = random.Random(77)
    count = 0
    while count < 80:
        ws = tuple(sorted(rng.randint(1, 4) for _ in range(rng.randint(3, 5))))
        if math.gcd(*ws) != 1:
            continue
        w = WeightVector(ws)
        if not w.is_well_formed:
            continue
        d = rng.randint(2, 10)
        f = _random_poly(rng, w, d)
        if f is None:
            continue
        r = rng.randint(1, w.s - 1)
        ft = wp.strict_transform(f, r)
        frame = ft.frame
        assert frame.h * ft.bidegree.alpha + frame.hp * ft.bidegree.beta == d
        # z -> 1 and y_j -> x_j inverts the strict transform
        assert wp.SparseWPoly.from_dict(frame.ambient, ((e[:-1], c) for e, c in ft.terms)) == f
        assert not ft.divisible_by_z()
        count += 1


def test_partials_shift_the_grading_by_the_variable():
    """d/dx_i lowers the degree by a_i, and the bidegree by the class of the
    i-th Cox variable: (a''_i, 0) for x_i, (0, a''_j) for y_j, (-h', h) for z."""
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        ws = tuple(sorted(rng.randint(1, 4) for _ in range(4)))
        if math.gcd(*ws) != 1 or not WeightVector(ws).is_well_formed:
            continue
        w = WeightVector(ws)
        f = _random_poly(rng, w, rng.randint(2, 9))
        if f is None:
            continue
        ft = wp.strict_transform(f, rng.randint(1, w.s - 1))
        fr = ft.frame
        shifts = ([(fr.app[i], 0) for i in range(fr.r + 1)]
                  + [(0, fr.app[j]) for j in range(fr.r + 1, fr.s + 1)] + [(-fr.hp, fr.h)])
        for i, (da, db) in enumerate(shifts):
            p = ft.partial(i)
            if p is not None:
                assert p.bidegree == (ft.bidegree.alpha - da, ft.bidegree.beta - db)
        for i in range(len(w)):
            p = f.partial(i)
            if p is not None:
                assert p.degree == f.degree - w[i]
        checked += 1


def test_gradient_vanishing_scale_invariant():
    rng = random.Random(3)
    w = WeightVector((1, 1, 2, 3))
    for _ in range(40):
        f = _random_poly(rng, w, rng.randint(3, 9))
        if f is None:
            continue
        pt = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = [x * lam ** w[i] for i, x in enumerate(pt)]
        for i in range(4):
            p = f.partial(i)
            v1 = p.evaluate(pt) if p else Fraction(0)
            v2 = p.evaluate(scaled) if p else Fraction(0)
            assert (v1 == 0) == (v2 == 0)


def test_restrict():
    f = wp.parse("x0^2 + x1*x2", WeightVector((1, 1, 1)))
    g = wp.restrict(f, 0)
    assert g.ambient.weights == (1, 1)
    assert dict(g.terms) == {(1, 1): 1}

    with pytest.raises(ValueError):
        wp.restrict(wp.parse("x0*x1", WeightVector((1, 1))), 0)

    # residual weights not well-formed
    f2 = wp.parse("x0^2 + x1*x2", WeightVector((2, 1, 3)))
    with pytest.raises(ValueError) as err:
        wp.restrict(f2, 1)
    assert "normalize" in str(err.value)


def test_restrict_commutes():
    rng = random.Random(13)
    w = WeightVector((1, 1, 1, 1))
    for _ in range(40):
        f = _random_poly(rng, w, rng.randint(2, 6))
        if f is None:
            continue
        try:
            a = wp.restrict(wp.restrict(f, 2), 0)
            b = wp.restrict(wp.restrict(f, 0), 1)
        except ValueError:
            continue  # divisibility can appear after the first restriction
        assert a == b


def test_eckardt_restriction_shape():
    # Fermat-type member: restricting at x0 leaves the pure power sum
    n, a, k = 3, 2, 2
    w = WeightVector((1, 1, 1, 1, 2))
    f = wp.parse("x4^2*x0 + x0^5 + x1^5 + x2^5 + x3^5", w)
    g = wp.restrict(f, 0)
    assert set(g.terms) == {
        ((5, 0, 0, 0), Fraction(1)),
        ((0, 5, 0, 0), Fraction(1)),
        ((0, 0, 5, 0), Fraction(1)),
    }


def test_qsm_at_point_errors():
    f = wp.parse("x0^3 + x1^3 + x2^3", WeightVector((1, 1, 1)))
    with pytest.raises(ValueError):
        wp.qsm_at_point(f, [0, 0, 0])  # irrelevant locus
    with pytest.raises(ValueError):
        wp.qsm_at_point(f, [1, 1, 1])  # not on the hypersurface
    rep = wp.qsm_at_point(f, [1, -1, 0])
    assert rep.quasi_smooth and rep.witness == 0


def test_qsm_bigraded_irrelevant_locus():
    f = wp.parse("x3^2*x1^2 + x3*x0 + x1^4 + x2^4", W3111)
    ft = wp.strict_transform(f, 2)
    with pytest.raises(ValueError):
        wp.qsm_at_point(ft, [0, 0, 0, 1, 1])  # x-block zero
    with pytest.raises(ValueError):
        wp.qsm_at_point(ft, [0, 0, 1, 0, 0])  # y,z-block zero
    rep = wp.qsm_at_point(ft, [0, 0, 1, 1, 0])
    assert not rep.quasi_smooth


def test_qsm_coordinate_points():
    w = WeightVector((1, 1, 1, 1, 2))
    f = wp.parse("x4^2*x0 + x0^5 + x1^5 + x2^5 + x3^5", w)
    rep = wp.qsm_at_coordinate_points(f)
    assert rep[4] == ("quasi_smooth", 0)
    assert rep[0] == ("not_on_hypersurface", None)

    f2 = wp.parse("x0^4", WeightVector((1, 1, 1)))
    rep2 = wp.qsm_at_coordinate_points(f2)
    assert rep2[0] == ("not_on_hypersurface", None)
    assert rep2[1] == ("not_quasi_smooth", None)
    assert rep2[2] == ("not_quasi_smooth", None)

    # P_{n+1} not on X when a_{n+1} divides d
    w3 = WeightVector((1, 1, 1, 2, 3))
    f3 = wp.parse("x4^2 + x3^3 + x0^6 + x1^6 + x2^6", w3)
    rep3 = wp.qsm_at_coordinate_points(f3)
    assert rep3[4] == ("not_on_hypersurface", None)


def test_eckardt_analyze():
    w = WeightVector((1, 1, 1, 1, 2))
    f = wp.parse("x4^2*x0 + x0^5 + x1^5 + x2^5 + x3^5", w)
    datum = wp.eckardt_analyze(f)
    assert datum == wp.EckardtDatum(a=2, k=2, m=2)
    assert datum.m == datum.k

    f2 = wp.parse("x4^2*x0 + x1^3*x4 + x0^5 + x1^5 + x2^5 + x3^5", w)
    assert wp.eckardt_analyze(f2) == wp.EckardtDatum(a=2, k=2, m=1)

    # escape exactly at k-1
    w2 = WeightVector((1, 1, 1, 1, 2))
    f3 = wp.parse("x4^3*x0 + x4*x1^5 + x0^7 + x1^7 + x2^7 + x3^7", w2)
    assert wp.eckardt_analyze(f3) == wp.EckardtDatum(a=2, k=3, m=2)

    bad = wp.eckardt_analyze(wp.parse("x0^2 + x1^2 + x2^2", WeightVector((1, 1, 1))))
    assert isinstance(bad, wp.EckardtNotApplicable)

    w4 = WeightVector((1, 1, 2))
    f4 = wp.parse("x2^2*x0 + x0*x1^4", w4)  # divisible by x0
    assert isinstance(wp.eckardt_analyze(f4), wp.EckardtNotApplicable)


def test_parse_bigraded_rejects_inhomogeneous_text():
    frame = build(W3111, 2)
    with pytest.raises(ValueError, match=r"^inhomogeneous polynomial: "
                                         r"term y3 has degree \(0, 1\) but term x0 has"):
        wp.parse_bigraded("y3 + x0", frame)
    with pytest.raises(ValueError, match="x3 is not a variable of this blowup"):
        wp.parse_bigraded("x3", frame)
    with pytest.raises(ValueError, match="polynomial is zero"):
        wp.parse_bigraded("z*x0 - x0*z", frame)


def test_coefficient_of_an_absent_monomial_is_zero():
    f = wp.parse("x3^2*x1^2 + x3*x0 + x1^4 + x2^4", W3111)
    assert (0, 2, 2, 0) not in dict(f.terms)
    terms = dict(wp.strict_transform(f, 2).terms)
    assert terms[(0, 2, 0, 2, 0)] == 1
    assert (0, 2, 0, 2, 1) not in terms


def test_direct_construction_checks_what_from_dict_checks():
    """The constructor takes ``(space, terms)``, rejects zero, malformed and
    inhomogeneous terms itself and reads the grade from the terms;
    ``from_dict`` only sums equal monomials and builds through it."""
    f = wp.parse("x3^2*x1^2 + x3*x0 + x1^4 + x2^4", W3111)
    assert wp.SparseWPoly(W3111, f.terms) == f
    assert wp.SparseWPoly(W3111, f.terms).degree == 4
    assert hash(wp.SparseWPoly(W3111, f.terms[::-1])) == hash(f)
    with pytest.raises(ValueError, match="^polynomial is zero$"):
        wp.SparseWPoly(W3111, ())
    for terms in ([((0, 4, 0), Fraction(1))], [((0, 4, 0, 0), Fraction(0))]):
        with pytest.raises(ValueError, match="^malformed term$"):
            wp.SparseWPoly(W3111, tuple(terms))
    with pytest.raises(ValueError, match=r"^inhomogeneous polynomial: term x2\^4 has degree 4 "
                                         r"but term x0\^2 has degree 6$"):
        wp.SparseWPoly(W3111, (((2, 0, 0, 0), Fraction(1)),) + f.terms)
    with pytest.raises(ValueError, match="^malformed term$"):
        wp.SparseWPoly.from_dict(W3111, {(0, 4, 0): 1})
    with pytest.raises(ValueError, match="^polynomial is zero$"):
        wp.SparseWPoly.from_dict(W3111, [((0, 4, 0, 0), 1), ((0, 4, 0, 0), -1)])
    # a coefficient is an int or a Fraction, kept as a Fraction; a float is refused
    p112 = WeightVector((1, 1, 2))
    assert wp.SparseWPoly(p112, (((0, 0, 1), 1), ((2, 0, 0), Fraction(1, 2)))) == \
        wp.SparseWPoly.from_dict(p112, {(0, 0, 1): Fraction(1), (2, 0, 0): Fraction(1, 2)})
    assert all(type(c) is Fraction for _, c in wp.SparseWPoly(p112, (((0, 0, 1), 1),)).terms)
    for build_poly in (lambda: wp.SparseWPoly(p112, (((0, 0, 1), 0.5), ((2, 0, 0), 1))),
                       lambda: wp.SparseWPoly.from_dict(p112, {(0, 0, 1): 0.5}),
                       lambda: wp.SparseWPoly.from_dict(
                           p112, [((0, 0, 1), Fraction(1, 2)), ((0, 0, 1), 0.5)])):
        with pytest.raises(ValueError, match="^coefficient must be an int or a Fraction, "
                                             "not 0.5$"):
            build_poly()

    frame = build(W3111, 2)
    ft = wp.strict_transform(f, 2)
    assert wp.BiGradedPoly(frame, ft.terms) == ft
    assert wp.BiGradedPoly(frame, ft.terms).bidegree == (2, 2)
    with pytest.raises(ValueError, match="^malformed term$"):
        wp.BiGradedPoly.from_dict(frame, {(0, 0, 0, 1): 1})


def test_each_term_is_graded_once_per_construction(monkeypatch):
    """``grade_of`` runs once per term of each polynomial built: a 4-term
    ``parse`` grades 4 monomials, and its ``strict_transform`` 8 (4 to find
    the bidegree, 4 to build the transform)."""
    calls = []
    for cls in (wp.SparseWPoly, wp.BiGradedPoly):
        grade_of = cls.grade_of
        monkeypatch.setattr(cls, "grade_of", staticmethod(
            lambda space, exps, grade_of=grade_of: calls.append(exps) or grade_of(space, exps)))
    f = wp.parse("x3^2*x1^2 + x3*x0 + x1^4 + x2^4", W3111)
    assert len(calls) == 4
    calls.clear()
    wp.strict_transform(f, 2)
    assert len(calls) == 8


_P1112 = WeightVector((1, 1, 1, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: wp.parse("", _P1112), "empty polynomial text"),
    (lambda: wp.parse("x0^2+", _P1112), "dangling sign in polynomial text"),
    (lambda: wp.parse("x0^2+q1", _P1112), "cannot parse factor 'q1'"),
    (lambda: wp.restrict(wp.parse("x0^4+x1^4+x2^4+x3^2", _P1112), 9), "index out of range"),
    (lambda: wp.restrict(wp.parse("x0^4+x1^2+x2", WeightVector((1, 2, 4))), 0),
     "residual weights have a common factor; normalize them first"),
    (lambda: wp.qsm_at_point(wp.parse("x0^4+x1^4+x2^4+x3^2", _P1112), [1, 0]),
     "expected 4 coordinates"),
    (lambda: wp.EckardtDatum(a=2, k=2, m=0), "escape level out of range"),
    (lambda: wp.parse("x0^4+x1^4+x2^4+x3^2", _P1112).evaluate([0.5, 0, 0, 1]),
     "coordinate must be an int or a Fraction, not 0.5"),
    (lambda: wp.qsm_at_point(wp.parse("x0^4+x1^4+x2^4+x3^2", _P1112), [0, 0, 0, "1"]),
     "coordinate must be an int or a Fraction, not '1'"),
])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("weights, text, reason", [
    ((1, 2, 3), "x0^6+x1^3+x2^2", "ambient weights are not (1,...,1,a)"),
    ((1, 1, 1, 2), "x0^4+x1^4+x2^4+x3^2", "degree 4 is not 1 modulo the last weight 2"),
    ((1, 1, 1, 2), "x0^5+x1^5+x3^2*x1",
     "top slice is not c*x0*y^k; move the vertex tangent monomial to x0 first"),
])
def test_eckardt_not_applicable_reasons(weights, text, reason):
    f = wp.parse(text, WeightVector(weights))
    assert wp.eckardt_analyze(f) == wp.EckardtNotApplicable(reason)
