"""Exact integer linear algebra for lattice computations.

Everything here works on plain Python ints (arbitrary precision), so all
results are exact.  The consumer is the lattice N = Z^m / Z*a of a weighted
projective space, a = (a_0,...,a_{m-1}) primitive.  One fact decides every
question about it: the index of span(v_1..v_k) in its saturation in N is
the index of span(v_1..v_k, a) in its saturation in Z^m, which is the
product of the nonzero Smith invariants of the matrix [v_1; ...; v_k; a].
The classes of the v_i are independent in N exactly when that matrix has
rank k+1.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence


def _integers(values: Sequence, what: str) -> list[int]:
    """``values`` as ints; a non-integer (1.9, "1", True) raises ValueError naming ``what``."""
    if not any(isinstance(x, bool) for x in values):
        try:
            return [operator.index(x) for x in values]
        except TypeError:
            pass
    raise ValueError(f"{what} must be integers, not {values!r}")


def smith_normal_form(rows: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the full list of diagonal entries d_1, d_2, ... (nonnegative,
    each dividing the next, zeros at the end for rank deficiency).  The
    matrix itself is not modified.
    """
    a = [_integers(row, "matrix entries") for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        # pick the nonzero entry of smallest absolute value as pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        # clear row and column t
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                for j in range(t, n):
                    a[i][j] -= q * a[t][j]
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                for i in range(t, m):
                    a[i][j] -= q * a[i][t]
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        culprit = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            for j in range(t, n):
                a[t][j] += a[culprit][j]
            continue
        diag.append(abs(a[t][t]))
        t += 1
    diag.extend(0 for _ in range(min(m, n) - len(diag)))
    return diag


class QuotientLattice:
    """The lattice N = Z^m / Z*a for a primitive integer vector a.

    Cone multiplicities and primitivity in N are read off the Smith normal
    form of [vectors; a]; see the module docstring.
    """

    def __init__(self, a: Sequence[int]):
        a = tuple(_integers(a, "quotient vector entries"))
        if len(a) < 2:
            raise ValueError("need at least two coordinates")
        if math.gcd(*a) != 1:
            raise ValueError("quotient vector must be primitive (gcd 1)")
        self.modulus = a

    def _saturation_index(self, vectors: Sequence[Sequence[int]]) -> int | None:
        """Index of span(vectors) in its saturation in N, or None when the
        classes of the vectors are linearly dependent in N."""
        nonzero = [d for d in smith_normal_form([*vectors, self.modulus]) if d != 0]
        return math.prod(nonzero) if len(nonzero) == len(vectors) + 1 else None

    def sublattice_index(self, vectors: Sequence[Sequence[int]]) -> int:
        """Index of span(vectors) inside its saturation in N.

        This is the multiplicity of the simplicial cone spanned by the
        vectors.  Raises if the images are linearly dependent.
        """
        index = self._saturation_index(vectors)
        if index is None:
            raise ValueError("vectors are linearly dependent in the quotient lattice")
        return index

    def is_primitive(self, x: Sequence[int]) -> bool:
        """Whether the class of x is a primitive lattice element of N: it is
        nonzero (x is not in Z*a) and spans a saturated sublattice."""
        return self._saturation_index([x]) == 1
