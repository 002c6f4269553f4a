"""Independent oracles shared by the test modules.

These deliberately avoid the code paths they are used to check: the simplex
moment oracle integrates recursively variable by variable, the smooth-model
intersection oracle works with lattice-polytope volumes, the flag region's
volume is a dense ``Poly1D`` integral over its slices, the quotient-lattice
index oracle takes gcds of Bareiss determinants instead of a Smith form, the
family census decides existence by brute force over the Iano-Fletcher
criteria with its own knapsack, and the random weight generator produces
gcd-1 (optionally well-formed) tuples.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from wfano.lattice import WeightVector
from wfano.moments import Poly1D


def brute_simplex_moment(n_vars: int, upper, weights) -> Fraction:
    """Integral of prod(x_i^w_i) over {x_i > 0, sum x_i < upper}.

    Computed by one-variable-at-a-time exact integration: with
    F_0(t) = 1 and F_{k+1}(t) = int_0^t x^(w_k) F_k(t - x) dx,
    the result is F_{n_vars}(upper).  No closed forms are used.
    """
    f = [Fraction(1)]  # F_0 as a polynomial in t
    for k in range(n_vars):
        w = weights[k]
        deg = len(f) - 1
        out = [Fraction(0)] * (deg + w + 2)
        for j, cj in enumerate(f):
            if cj == 0:
                continue
            # (t - x)^j expanded; multiply by x^w; integrate x over (0, t)
            for i in range(j + 1):
                c = cj * math.comb(j, i) * (-1) ** i
                out[j + w + 1] += c / (w + i + 1)
        f = out
    t = Fraction(upper)
    return sum(c * t**i for i, c in enumerate(f))


def region_volume(n: int, a: int, k: int) -> Fraction:
    """Volume of the two-piece flag region of ``wfano.moments``: its slices
    over x_1 are simplices of size t = a x_1 up to 1/a, then
    ((ak+1)/a - x_1)/k up to (ak+1)/a, of volume t^(n-1)/(n-1)!."""
    v1 = Poly1D([0, a]).power(n - 1).integral(0, Fraction(1, a))
    t2 = Poly1D([Fraction(a * k + 1, a * k), Fraction(-1, k)])
    v2 = t2.power(n - 1).integral(Fraction(1, a), Fraction(a * k + 1, a))
    return (v1 + v2) / math.factorial(n - 1)


def smooth_blowup_intersection(s: int, r: int, k: int) -> Fraction:
    """(A^(s-k) . B^k) on the blowup of P^s along a linear subspace of
    dimension s-r-1, where A is the pullback of a hyperplane of P^s and B
    the pullback of a hyperplane of the P^r base of the bundle structure.

    Computed from lattice-polytope volumes: A corresponds to the standard
    simplex conv(0, e_1..e_s), B to its face conv(0, e_1..e_r), and
    s! * vol(x*A + y*B) = sum_j C(s,j) (A^(s-j).B^j) x^(s-j) y^j.
    The Minkowski-sum volume reduces to one exact 1D integral.
    """
    if not (0 <= k <= s and 1 <= r <= s - 1):
        raise ValueError("invalid (s, r, k)")

    def vol(x: Fraction, y: Fraction) -> Fraction:
        # vol(x*Delta_s + y*Delta_r)
        #   = int_0^x w^(s-r-1)/(s-r-1)! * (x+y-w)^r / r! dw
        c = s - r
        total = Fraction(0)
        for i in range(r + 1):
            coeff = Fraction(
                math.comb(r, i) * (-1) ** i,
                math.factorial(r) * math.factorial(c - 1),
            )
            total += coeff * (x + y) ** (r - i) * x ** (c + i) / (c + i)
        return total

    samples = [Fraction(t) for t in range(s + 1)]
    values = [vol(Fraction(1), t) * math.factorial(s) for t in samples]
    # values[t] = sum_j C(s,j) m_j t^j  with  m_j = (A^(s-j) . B^j)
    mat = [[t**j for j in range(s + 1)] for t in samples]
    coeffs = _solve(mat, values)
    return coeffs[k] / math.comb(s, k)


def _solve(matrix, rhs):
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * u for v, u in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination; every division is exact."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def quotient_index_by_minors(vectors, a) -> int:
    """Index of span(vectors) in its saturation in Z^m / Z*a, for primitive
    a: the gcd of the (k+1) x (k+1) minors of [vectors; a].  It is 0 exactly
    when the classes of the k vectors are linearly dependent there."""
    rows = [list(v) for v in vectors] + [list(a)]
    g = 0
    for cols in itertools.combinations(range(len(a)), len(rows)):
        g = math.gcd(g, bareiss_det([[row[c] for c in cols] for row in rows]))
    return g


def random_weight_vector(rng: random.Random, length: int, max_weight: int = 50,
                         well_formed: bool = False) -> WeightVector:
    """Random gcd-1 weight tuple; optionally well-formed."""
    while True:
        w = tuple(rng.randint(1, max_weight) for _ in range(length))
        if math.gcd(*w) != 1:
            continue
        wv = WeightVector(w)
        if well_formed and not wv.is_well_formed:
            continue
        return wv


def census(n: int, max_weight: int, index: int = 1, terminal: bool = False):
    """The families X_d in P(a_0..a_{n+1}) with ascending gcd-1 weights up to
    ``max_weight`` and d = sum(a_i) - ``index`` whose general member is
    quasi-smooth and well-formed and not a linear cone, as (weights, d) in
    lexicographic order.

    Each tuple passes, in order: the singleton condition (each a_i divides d
    or d - a_j > 0 for some j != i), d not a weight, X well-formed
    (Iano-Fletcher, *Working with weighted complete intersections* (2000),
    Thm 6.10: the gcd of all weights but one is 1, of all but two divides d),
    and quasi-smoothness (Thm 8.1: for every nonempty I, some degree-d
    monomial uses only the variables in I, or |I| distinct e outside I have
    x_I^M x_e of degree d).  With ``terminal`` (n = 3 only) X must also be
    terminal: no prime divides three weights, every edge P_iP_j with
    gcd(a_i, a_j) > 1 meets X in points only, and every point of X is of
    type 1/r(b, -b, c) with b and c prime to r.
    """
    if terminal and n != 3:
        raise ValueError("the terminal conditions are stated for n = 3")
    out = []
    for w in itertools.combinations_with_replacement(range(1, max_weight + 1), n + 2):
        if math.gcd(*w) != 1:
            continue
        d = sum(w) - index
        if d < 1 or not _census_singletons(w, d):
            continue
        if d in w or not _census_well_formed(w, d):
            continue
        reach = _census_reach(w, d)
        if not _census_quasi_smooth(w, d, reach):
            continue
        if terminal and not _census_terminal(w, d, reach):
            continue
        out.append((w, d))
    return out


def _census_singletons(w, d) -> bool:
    for i in reversed(range(len(w))):   # the largest weight fails most often
        a = w[i]
        if d % a and not any(d > b and (d - b) % a == 0 for b in w[:i] + w[i + 1:]):
            return False
    return True


def _census_well_formed(w, d) -> bool:
    m = len(w)
    return (all(math.gcd(*w[:i], *w[i + 1:]) == 1 for i in range(m))
            and all(d % math.gcd(*(w[k] for k in range(m) if k not in (i, j))) == 0
                    for i, j in itertools.combinations(range(m), 2)))


def _census_reach(w, d) -> list:
    """``reach[S]``: the bitmask of the values 0..d that are sums of the
    weights indexed by the bitmask S, built up one weight at a time."""
    full = (1 << (d + 1)) - 1
    reach = [1] * (1 << len(w))
    for s in range(1, len(reach)):
        low = (s & -s).bit_length() - 1
        r, step = reach[s & (s - 1)], w[low]
        while step <= d:           # shifts by a, 2a, 4a, ... reach every multiple
            r |= (r << step) & full
            step *= 2
        reach[s] = r
    return reach


def _census_quasi_smooth(w, d, reach) -> bool:
    m = len(w)
    for s in range(1, 1 << m):
        if reach[s] >> d & 1:
            continue
        outside = [e for e in range(m) if not s >> e & 1]
        if sum(w[e] <= d and reach[s] >> (d - w[e]) & 1 for e in outside) < bin(s).count("1"):
            return False
    return True


def _census_terminal(w, d, reach) -> bool:
    m = len(w)
    if any(math.gcd(*t) > 1 for t in itertools.combinations(w, 3)):
        return False
    points = []                     # (r, the three weights of the type)
    for i, a in enumerate(w):
        if a > 1 and d % a:
            e = next(e for e in range(m) if e != i and d > w[e] and (d - w[e]) % a == 0)
            points.append((a, [w[k] for k in range(m) if k not in (i, e)]))
    for i, j in itertools.combinations(range(m), 2):
        r = math.gcd(w[i], w[j])
        if r == 1:
            continue
        if not reach[1 << i | 1 << j] >> d & 1:
            return False            # X contains the whole edge
        monomials = sum(1 for p in range(d // w[i] + 1) if (d - p * w[i]) % w[j] == 0)
        points += [(r, [w[k] for k in range(m) if k not in (i, j)])] * (monomials - 1)
    return all(
        any((b + c) % r == 0 and math.gcd(b, r) == 1 and math.gcd(e, r) == 1
            for b, c, e in itertools.permutations(t))
        for r, t in points)
