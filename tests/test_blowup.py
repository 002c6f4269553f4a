import io
import json
import math
import random
from fractions import Fraction

import pytest

from wfano import blowup as bl
from wfano import cli
from wfano.lattice import WeightVector
from wfano.snf import QuotientLattice

from helpers import (quotient_index_by_minors, random_weight_vector,
                     smooth_blowup_intersection)


def test_build_examples():
    fr = bl.build(WeightVector((1, 1, 1, 1, 7)), 3)
    assert (fr.h, fr.hp) == (1, 7)
    assert fr.app == (1, 1, 1, 1, 1)
    assert fr.gi == (1, 1, 1, 1, 1)
    assert (fr.g, fr.gp) == (1, 1)

    fr = bl.build(WeightVector((2, 3, 4, 4, 5)), 2)
    assert (fr.h, fr.hp) == (1, 1)
    assert fr.gi[:3] == (1, 2, 1)
    assert fr.g == 2

    fr = bl.build(WeightVector((3, 1, 1, 1)), 2)
    assert (fr.h, fr.hp) == (1, 1)
    assert all(g == 1 for g in fr.gi)

    with pytest.raises(ValueError):
        bl.build(WeightVector((1, 1, 2)), 2)
    with pytest.raises(ValueError):
        bl.build(WeightVector((1, 2, 2)), 1)  # not well-formed
    with pytest.raises(ValueError, match="split index r must be an integer, not 1.5"):
        bl.build(WeightVector((1, 1, 2, 3)), 1.5)


def test_bezout_certificate_and_grading():
    rng = random.Random(42)
    for _ in range(100):
        w = random_weight_vector(rng, rng.randint(3, 6), 9, well_formed=True)
        for r in range(1, w.s):
            fr = bl.build(w, r)
            k, kp = fr.bezout
            assert fr.hp * k - fr.h * kp == 1
            assert fr.exceptional == (-fr.hp, fr.h)
            assert bl.psi_pullback_o1(fr) == (0, Fraction(1, fr.hp))
            assert bl.pi_pullback_o1(fr) == (fr.g, 0)


def test_intersection_examples():
    fr = bl.build(WeightVector((1, 1, 1, 1, 5)), 3)
    assert bl.intersection_bi(fr, 0) == 125  # a^3 for a = 5
    assert bl.intersection_bi(fr, 4) == 0
    fr2 = bl.build(WeightVector((2, 3, 4, 4, 5)), 2)
    assert bl.intersection_bi(fr2, 2) == Fraction(1, 480)
    # k is checked, not compared: 1.5 is refused rather than giving 0
    with pytest.raises(ValueError, match="k must be an integer, not 1.5"):
        bl.intersection_bi(bl.build(WeightVector((1, 1, 2, 3)), 1), 1.5)


def test_primitivity_and_ray_mults_random():
    rng = random.Random(2718)
    for _ in range(150):
        w = random_weight_vector(rng, rng.randint(3, 6), 10, well_formed=True)
        lat = QuotientLattice(w.weights)
        for r in range(1, w.s):
            fr = bl.build(w, r)
            assert lat.is_primitive(fr.v_rep)
            assert quotient_index_by_minors([fr.v_rep], w.weights) == 1
            bl.ray_membership_witness(fr)
            for i in range(w.s + 1):
                if r == w.s - 1 and i == w.s:
                    continue  # the pair is not a simplicial cone of the fan
                assert bl.ray_cone_mult(fr, i) == fr.gi[i]


def test_intersection_against_finite_cover_path():
    """Values from the gcd formula match the finite-cover route through the
    smooth model computed by lattice-polytope volumes."""
    rng = random.Random(31415)
    for _ in range(60):
        w = random_weight_vector(rng, rng.randint(3, 5), 8, well_formed=True)
        for r in range(1, w.s):
            fr = bl.build(w, r)
            cov = bl.finite_cover_pull(fr, w.weights)  # full cover to P^s
            assert cov.degree == w.product()
            assert cov.scaling == (fr.h, fr.hp)
            for k in range(w.s + 1):
                smooth = smooth_blowup_intersection(w.s, r, k)
                via_cover = (
                    Fraction(fr.h**k * fr.hp ** (w.s - k), cov.degree) * smooth
                )
                assert bl.intersection_bi(fr, k) == via_cover


def test_exceptional_class():
    fr = bl.build(WeightVector((1, 1, 1, 1, 5)), 3)
    ex = bl.exceptional_class(fr)
    assert ex.cls == (-5, 1)
    assert ex.left_factor == (1, 1, 1, 1)
    assert ex.right_factor == (1,)
    assert ex.self_restriction == (Fraction(-5), Fraction(1))

    fr2 = bl.build(WeightVector((2, 3, 4, 4, 5)), 2)
    ex2 = bl.exceptional_class(fr2)
    assert ex2.cls == (-1, 1)
    assert ex2.left_factor == (1, 3, 2)
    assert ex2.right_factor == (1, 1)
    assert ex2.restriction_scale == (Fraction(1, 2), Fraction(1, 20))


def test_finite_cover_examples():
    fr = bl.build(WeightVector((1, 1, 1, 1, 4)), 3)
    cov = bl.finite_cover_pull(fr, (1, 1, 1, 1, 2))
    assert cov.scaling == (1, 2)
    assert cov.degree == 2
    ident = bl.finite_cover_pull(fr, (1, 1, 1, 1, 1))
    assert ident.scaling == (1, 1) and ident.degree == 1
    with pytest.raises(ValueError):
        bl.finite_cover_pull(fr, (1, 1, 1, 1, 3))


def test_restrict_to_divisor():
    fr = bl.build(WeightVector((1, 1, 1, 1, 7)), 3)
    d0 = bl.restrict_to_divisor(fr, 0)
    assert not d0.iso
    assert d0.frame.ambient.weights == (1, 1, 1, 7)
    assert d0.frame.r == 2
    assert d0.scaling == (1, 1)
    assert d0.exc_coefficient == 1

    ds = bl.restrict_to_divisor(fr, 4)
    assert ds.iso and ds.section

    fr2 = bl.build(WeightVector((2, 3, 4, 4, 5)), 2)
    d0b = bl.restrict_to_divisor(fr2, 0)
    assert d0b.frame.ambient.weights == (3, 4, 4, 5)
    assert d0b.exc_coefficient == 1

    with pytest.raises(ValueError):
        bl.restrict_to_divisor(fr, 2)

    fr3 = bl.build(WeightVector((1, 1, 2, 3)), 1)
    d0c = bl.restrict_to_divisor(fr3, 0)
    assert d0c.iso and not d0c.section


def test_intersection_pair_reproduces_degree_chain():
    fr = bl.build(WeightVector((2, 3, 4, 4, 5)), 2)
    # ((g,0)^r . (0,g')^(s-r-1) . (-h',h)) = 1 / prod(a'_i)
    s, r = fr.s, fr.r
    val = Fraction(fr.g**r * fr.gp ** (s - r - 1)) * (
        Fraction(-fr.hp) * bl.intersection_bi(fr, r + 1)
        + Fraction(fr.h) * bl.intersection_bi(fr, r)
    )
    assert val == Fraction(1, math.prod(fr.ap_left) * math.prod(fr.ap_right))


def test_frame_json_fields():
    out = io.StringIO()
    assert cli.run(["blowup", "build", "--weights", "2,3,4,4,5", "--r", "2"], out) == 0
    d = json.loads(out.getvalue())["outputs"]["frame"]
    assert set(d) == {"ambient", "r", "h", "hp", "app", "gi", "g", "gp", "ap",
                      "v_rep", "bezout"}
    assert d["h"] == 1 and d["hp"] == 1
    assert d["ap"] == [1, 3, 2, 1, 1]


@pytest.mark.parametrize("r, call, message", [
    (1, lambda fr: bl.finite_cover_pull(fr, (1, 1, 1)), "need one exponent per weight"),
    (1, lambda fr: bl.finite_cover_pull(fr, (1, 1, 0, 1)), "exponents must be positive"),
    (1, lambda fr: bl.finite_cover_pull(fr, [1.9, 1, 1, 1]), "exponent must be an integer, not 1.9"),
    (1, lambda fr: bl.finite_cover_pull(fr, [True, 1, 1, 1]),
     "exponent must be an integer, not True"),
    (1, lambda fr: bl.build(fr.ambient, True), "split index r must be an integer, not True"),
    (1, lambda fr: bl.intersection_bi(fr, True), "k must be an integer, not True"),
    (1, lambda fr: bl.intersection_bi(fr, False), "k must be an integer, not False"),
    (1, lambda fr: bl.ray_cone_mult(fr, 9), "index out of range"),
    (2, lambda fr: bl.ray_cone_mult(fr, 3),
     "the last ray is proportional to the new ray when r = s-1"),
])
def test_input_checks_name_the_fault(r, call, message):
    frame = bl.build(WeightVector((1, 1, 2, 3)), r)
    with pytest.raises(ValueError) as err:
        call(frame)
    assert str(err.value) == message
