import random

import pytest

from wfano.snf import QuotientLattice, smith_normal_form

from helpers import quotient_index_by_minors, random_weight_vector


def test_snf_known_matrices():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 0]]) == [1, 0]
    # d1 = gcd of entries, d1*d2 = gcd of 2x2 minors, d1*d2*d3 = |det| = 624
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_normal_form([[3, 0], [0, 5]]) == [1, 15]


def test_snf_divisibility_chain_random():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag = smith_normal_form(mat)
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # rank must match fraction-free Gaussian elimination
        assert len(nonzero) == _rank(mat)


def _rank(mat):
    from fractions import Fraction

    a = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(a[0]) if a else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col] / a[row][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        row += 1
        rank += 1
    return rank


def test_quotient_lattice_basic():
    # N = Z^2 / Z(1,1): the classes of e_0 and e_1 are opposite generators
    lat = QuotientLattice([1, 1])
    assert quotient_index_by_minors([[1, 0], [0, 1]], [1, 1]) == 0
    with pytest.raises(ValueError, match="dependent"):
        lat.sublattice_index([[1, 0], [0, 1]])
    assert quotient_index_by_minors([[1, 0]], [1, 1]) == 1
    assert lat.is_primitive([1, 0])
    assert lat.is_primitive([0, -1])
    assert quotient_index_by_minors([[2, 0]], [1, 1]) == 2
    assert not lat.is_primitive([2, 0])
    assert not lat.is_primitive([3, 3])  # a multiple of a is the zero class


def test_quotient_lattice_index():
    # N = Z^4 / Z(1,1,2,2); the cone on e_0, e_1 has multiplicity 2
    lat = QuotientLattice([1, 1, 2, 2])
    assert lat.sublattice_index([[1, 0, 0, 0], [0, 1, 0, 0]]) == 2
    assert lat.sublattice_index([[0, 0, 1, 0], [0, 0, 0, 1]]) == 1


def test_quotient_lattice_against_minors():
    """sublattice_index and is_primitive agree with the gcd-of-minors oracle
    for m <= 7 and weights <= 12, dependent sets and multiples of a included."""
    rng = random.Random(4000)
    dependent = multiples = divisible = 0
    for _ in range(1500):
        m = rng.randint(2, 7)
        a = random_weight_vector(rng, m, 12).weights
        lat = QuotientLattice(a)
        vectors = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(rng.randint(0, m))]
        if vectors and rng.random() < 0.2:
            # a combination of the others and of a: dependent in N
            c = [rng.randint(-2, 2) for _ in range(len(vectors))]
            vectors[-1] = [sum(ci * v[t] for ci, v in zip(c, vectors[:-1])) + c[-1] * a[t]
                           for t in range(m)]
        index = quotient_index_by_minors(vectors, a)
        if index == 0:
            dependent += 1
            with pytest.raises(ValueError, match="dependent"):
                lat.sublattice_index(vectors)
        else:
            assert lat.sublattice_index(vectors) == index, (a, vectors)
        # a multiple of a, a multiple t*x + c*a of a class, or any x
        t, c = rng.choice([(0, rng.randint(-3, 3)), (rng.randint(2, 3), rng.randint(-3, 3)),
                           (1, 0), (1, 0), (1, 0)])
        x = [t * rng.randint(-6, 6) + c * w for w in a]
        index = quotient_index_by_minors([x], a)
        multiples += index == 0
        divisible += index > 1
        assert lat.is_primitive(x) == (index == 1), (a, x)
    assert min(dependent, multiples, divisible) >= 200


@pytest.mark.parametrize("call, message", [
    (lambda: smith_normal_form([[1, 2], [3]]), "ragged matrix"),
    (lambda: QuotientLattice((1,)), "need at least two coordinates"),
    (lambda: QuotientLattice((2, 4)), "quotient vector must be primitive (gcd 1)"),
    (lambda: smith_normal_form([[1.9, 0], [0, 2]]), "matrix entries must be integers, not [1.9, 0]"),
    (lambda: QuotientLattice((1, "1")),
     "quotient vector entries must be integers, not (1, '1')"),
    (lambda: smith_normal_form([[True, 0], [0, 2]]),
     "matrix entries must be integers, not [True, 0]"),
    (lambda: QuotientLattice((1, False)),
     "quotient vector entries must be integers, not (1, False)"),
])
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
