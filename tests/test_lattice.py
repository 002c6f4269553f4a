import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wfano.lattice import (
    WeightVector,
    as_rational,
    base_locus,
    fano_index,
    normalize,
    parse_weight_text,
    stratum,
    stratum_mult_oracle,
    top_intersection,
)

from helpers import random_weight_vector


def test_parse_forms():
    assert parse_weight_text("P(1^3,2,5)") == (1, 1, 1, 2, 5)
    assert parse_weight_text("1,1,1,2,5") == (1, 1, 1, 2, 5)
    assert parse_weight_text(" P( 2 , 3 ) ") == (2, 3)
    with pytest.raises(ValueError):
        parse_weight_text("1,0,2")


def test_constructor_rejects_common_factor():
    with pytest.raises(ValueError):
        WeightVector((2, 4, 6))
    with pytest.raises(ValueError):
        WeightVector((3,))


@pytest.mark.parametrize("entry", [2.5, Fraction(5, 2), "3"])
def test_constructor_rejects_non_integral_weights(entry):
    # truncating 2.5 or 5/2 to 2 would silently read P(1,1,2.5) as P(1,1,2)
    with pytest.raises(ValueError, match="weights must be integers"):
        WeightVector((1, 1, entry))
    with pytest.raises(ValueError, match="degree must be an integer"):
        fano_index(WeightVector((1, 1, 2)), entry)


def test_normalize_examples():
    rep = normalize(WeightVector((3, 1, 1, 1)))
    assert rep.output.weights == (3, 1, 1, 1)
    assert rep.g == 1

    rep = normalize(WeightVector((2, 2, 3)))
    assert rep.g_i == (1, 1, 2)
    assert rep.g == 2
    assert rep.output.weights == (1, 1, 3)
    # product identity with s = number of weights - 1
    assert 2 * 2 * 3 == rep.g**2 * rep.output.product()

    rep = normalize(WeightVector((1, 2, 2)))
    assert rep.output.weights == (1, 1, 1)


def test_normalize_idempotent_property():
    rng = random.Random(20240)
    for _ in range(500):
        w = random_weight_vector(rng, rng.randint(2, 6), 50)
        rep = normalize(w)
        s = w.s
        assert w.product() == rep.g**s * rep.output.product()
        again = normalize(rep.output)
        assert again.output == rep.output
        assert again.g == 1


@given(st.lists(st.integers(1, 50), min_size=2, max_size=6))
def test_normalize_product_identity_hypothesis(ws):
    if math.gcd(*ws) != 1:
        ws = ws + [1]
    w = WeightVector(tuple(ws))
    rep = normalize(w)
    assert w.product() == rep.g**w.s * rep.output.product()
    assert rep.output.is_well_formed


def test_top_intersection():
    assert top_intersection(WeightVector((1, 1, 1))) == 1
    assert top_intersection(WeightVector((1, 1, 1, 7))) == Fraction(1, 7)
    assert top_intersection(WeightVector((1, 2, 3))) == Fraction(1, 6)
    with pytest.raises(ValueError):
        top_intersection(WeightVector((1, 2, 2)))


def test_stratum_examples():
    st1 = stratum(WeightVector((1, 1, 1, 2)), [0, 1])
    assert st1.quotient_weights.weights == (1, 1)
    assert st1.scale == Fraction(1, 2)
    assert st1.mult == 1

    st2 = stratum(WeightVector((1, 1, 1, 1)), [0, 2])
    assert st2.scale == 1 and st2.mult == 1

    st3 = stratum(WeightVector((1, 1, 2, 2)), [0, 1])
    assert st3.quotient_weights.weights == (1, 1)
    assert st3.mult == 2
    assert st3.scale == Fraction(1, 2)

    with pytest.raises(ValueError):
        stratum(WeightVector((1, 1, 2)), [0, 1])
    with pytest.raises(ValueError, match="distinct"):
        stratum(WeightVector((1, 2, 3)), [0, 0])


def test_stratum_mult_agrees_with_lattice_index():
    rng = random.Random(99)
    for _ in range(120):
        w = random_weight_vector(rng, rng.randint(3, 6), 12, well_formed=True)
        indices = list(range(len(w)))
        rng.shuffle(indices)
        c = rng.randint(1, len(w) - 2)
        vanish = indices[:c]
        st_ = stratum(w, vanish)
        assert st_.mult == stratum_mult_oracle(w, vanish)


def test_stratum_transitivity():
    rng = random.Random(5)
    for _ in range(100):
        w = random_weight_vector(rng, rng.randint(4, 7), 10, well_formed=True)
        idx = list(range(len(w)))
        rng.shuffle(idx)
        v1 = sorted(idx[:1])
        v2 = sorted(idx[1:2])
        both = stratum(w, v1 + v2)
        first = stratum(w, v1)
        # map the second vanishing index into the coordinates of the stratum
        kept = [i for i in range(len(w)) if i not in v1]
        v2_in_first = [kept.index(j) for j in v2]
        second = stratum(first.quotient_weights, v2_in_first)
        assert second.quotient_weights == both.quotient_weights
        assert first.scale * second.scale == both.scale


def test_base_locus_examples():
    b = base_locus(WeightVector((1, 1, 2)), 1)
    assert sorted(b.vanishing) == [0, 1]
    assert b.dimension == 0 and b.stratum is None

    b = base_locus(WeightVector((1, 1, 1)), 1)
    assert b.is_empty

    b = base_locus(WeightVector((1, 1, 1, 1, 2, 3)), 2, 0)
    assert sorted(b.vanishing) == [1, 2, 3, 4]
    assert b.dimension == 1
    assert b.stratum is not None

    # monomial-enumeration oracle: a point is in the base locus of the
    # system |O(a_i)|_p for every small i exactly when its support misses
    # all small weights other than the base point coordinate
    w = WeightVector((1, 1, 1, 1, 2, 3))
    b1 = base_locus(w, 2, 0)
    assert _base_locus_oracle(w, 2, 0) == set(b1.vanishing)


def _base_locus_oracle(w, a, p):
    """Exhaustive check over supports: indices j such that x_j = 0 on the
    whole locus, computed from monomial supports directly."""
    import itertools

    n = len(w)
    smalls = [i for i in range(n) if w[i] <= a]

    def monomials(deg):
        out = []
        def rec(i, left, expo):
            if i == n:
                if left == 0:
                    out.append(tuple(expo))
                return
            for e in range(left // w[i] + 1):
                rec(i + 1, left - e * w[i], expo + [e])
        rec(0, deg, [])
        return out

    # a support S is contained in the base locus iff for every small i no
    # allowed monomial of degree w[i] is supported inside S
    in_locus_supports = []
    for size in range(1, n + 1):
        for sup in itertools.combinations(range(n), size):
            ok = True
            for i in smalls:
                for mono in monomials(w[i]):
                    if p is not None and all(
                        e == 0 for j, e in enumerate(mono) if j != p
                    ):
                        continue  # pure power of the base point coordinate
                    if all(mono[j] == 0 for j in range(n) if j not in sup):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                in_locus_supports.append(set(sup))
    union = set()
    for sup in in_locus_supports:
        union |= sup
    return set(range(n)) - union


def test_fano_index():
    assert fano_index(WeightVector((1, 1, 1, 1, 2)), 5) == 1
    assert fano_index(WeightVector((1, 1, 1, 2, 4)), 8) == 1
    assert fano_index(WeightVector((1, 1, 1)), 3) == 0
    n = 5
    w = WeightVector(tuple([1] * n + [2, n + 1]))
    assert fano_index(w, 2 * n + 2) == 1


@given(st.lists(st.integers(1, 30), min_size=2, max_size=6), st.integers(1, 100))
def test_fano_index_linear(ws, d):
    if math.gcd(*ws) != 1:
        ws = ws + [1]
    w = WeightVector(tuple(ws))
    assert fano_index(w, d) + d == sum(w.weights)


def test_constructor_rejects_nonpositive_weights():
    with pytest.raises(ValueError) as err:
        WeightVector((0, 1))
    assert str(err.value) == "weights must be positive integers"


_P1122 = WeightVector((1, 1, 2, 2))


@pytest.mark.parametrize("call, message", [
    # integers are checked, not truncated
    (lambda: stratum(_P1122, [1.9]), "vanishing index must be an integer, not 1.9"),
    (lambda: stratum_mult_oracle(_P1122, ["1"]), "vanishing index must be an integer, not '1'"),
    (lambda: base_locus(_P1122, 1.5), "threshold must be an integer, not 1.5"),
    (lambda: base_locus(_P1122, 1, 2.0), "base point index must be an integer, not 2.0"),
    # a bool is not taken for 0 or 1
    (lambda: stratum(_P1122, [True]), "vanishing index must be an integer, not True"),
    (lambda: base_locus(_P1122, True), "threshold must be an integer, not True"),
    (lambda: base_locus(_P1122, 1, False), "base point index must be an integer, not False"),
    (lambda: WeightVector((True, 1, 2)), "weights must be integers, not (True, 1, 2)"),
    (lambda: WeightVector([1, 2, False]), "weights must be integers, not [1, 2, False]"),
    (lambda: as_rational(True, "x"), "x must be an int or a Fraction, not True"),
    # no float becomes an exact rational
    (lambda: as_rational(0.1, "c0"), "c0 must be an int or a Fraction, not 0.1"),
    (lambda: as_rational("1/2", "x"), "x must be an int or a Fraction, not '1/2'"),
])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
