import collections
import math
import types
from fractions import Fraction

import pytest

from wfano import engine as ce
from wfano import moments as mo

from helpers import brute_simplex_moment, region_volume

F = Fraction


def test_simplex_closed_forms_against_brute_force():
    """The closed forms used by the integrator, checked on dimensions up to
    four by direct recursive integration."""
    for nm1 in range(1, 5):
        for t in (F(1, 3), F(5, 7), F(2)):
            vol = brute_simplex_moment(nm1, t, [0] * nm1)
            assert vol == t**nm1 / math.factorial(nm1)
            mom = brute_simplex_moment(nm1, t, [1] + [0] * (nm1 - 1))
            assert mom == t ** (nm1 + 1) / math.factorial(nm1 + 1)


def test_region_volume_normalization():
    for n in range(2, 7):
        for a in (1, 2, 5):
            for k in (1, 2, 4):
                volume = region_volume(n, a, k)
                assert volume == F(a * k + 1, a * math.factorial(n))
                assert F(math.factorial(n) * a, a * k + 1) * volume == 1


def test_region_volume_against_brute_force():
    for (n, a, k) in [(2, 1, 1), (3, 2, 2), (4, 3, 1), (2, 4, 3)]:
        assert region_volume(n, a, k) == _volume_by_interpolation(n, a, k)


def _volume_by_interpolation(n, a, k):
    """Exact volume via polynomial interpolation of the slice volumes,
    independent of the closed-form integrator."""
    def slice_vol(x):
        if x <= F(1, a):
            t = a * x
        else:
            t = (F(a * k + 1, a) - x) / k
        return brute_simplex_moment(n - 1, t, [0] * (n - 1))

    # each piece is a polynomial of degree n-1 in x; integrate by sampling
    def integrate(fun, lo, hi, deg):
        xs = [lo + (hi - lo) * F(i, deg) for i in range(deg + 1)]
        ys = [fun(x) for x in xs]
        total = F(0)
        # Lagrange integration
        for i, xi in enumerate(xs):
            # integral of basis polynomial l_i over [lo, hi]
            num = [F(1)]
            den = F(1)
            for j, xj in enumerate(xs):
                if j == i:
                    continue
                num = _poly_mul(num, [-xj, F(1)])
                den *= (xi - xj)
            total += ys[i] * _poly_integrate(num, lo, hi) / den
        return total

    v1 = integrate(slice_vol, F(0), F(1, a), n - 1)
    v2 = integrate(slice_vol, F(1, a), F(a * k + 1, a), n - 1)
    return v1 + v2


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_integrate(p, lo, hi):
    return sum(c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i, c in enumerate(p))


def test_s_value_closed_forms_small_grid():
    for n in range(2, 6):
        for a in range(1, 4):
            for k in range(1, 4):
                for j in range(1, n + 1):
                    for q in (False, True):
                        assert mo.s_value(n, a, k, j, q) == \
                            mo.s_value_closed_form(n, a, k, j, q)


def _dense_flag_integrals(n, a, k):
    """The three S-values of (n, a, k) by dense Poly1D integration in x over
    the region's own bounds: powers of t expanded coefficient by
    coefficient, independent of the substitution in t."""
    fact_nm1 = math.factorial(n - 1)
    top = F(a * k + 1, a)
    pieces = [(mo.Poly1D([0, a]), F(0), F(1, a)),
              (mo.Poly1D([top / k, F(-1, k)]), F(1, a), top)]
    x = mo.Poly1D([0, 1])
    first = sum(((x * t.power(n - 1)).integral(lo, hi) for t, lo, hi in pieces), F(0))
    rest = sum((t.power(n).integral(lo, hi) for t, lo, hi in pieces), F(0))
    t2, lo2, hi2 = pieces[1]
    v = mo.Poly1D([F(-1, a * k), F(1, k)])  # (x - 1/a)/k
    v_term = (v * t2.power(n - 1)).integral(lo2, hi2)
    norm = 1 / region_volume(n, a, k)
    rest = rest / (fact_nm1 * n)
    return (norm * first / fact_nm1, norm * rest, norm * (rest + v_term / fact_nm1))


def test_flag_integrals_against_dense_integration():
    """Over the default table's a, k <= 6, on the high dimensions and (a, k)
    of ``test_s_value_closed_forms_high_dimension``, and on large a and k,
    where the integer numerators over the common denominator grow."""
    grid = [(n, a, k) for n in range(2, 11) for a in range(1, 7) for k in range(1, 7)]
    grid += [(n, a, k) for n in (16, 32, 64) for a in (1, 2, 5) for k in (1, 3)]
    grid += [(7, 97, 50), (64, 40, 40), (2, 1000, 999), (33, 7919, 1)]
    for n, a, k in grid:
        assert mo._flag_integrals(n, a, k) == _dense_flag_integrals(n, a, k)


def test_s_value_closed_forms_high_dimension():
    for n in (16, 32, 64):
        for a in (1, 2, 5):
            for k in (1, 3):
                for j in range(1, n + 1):
                    for q in (False, True):
                        assert mo.s_value(n, a, k, j, q) == \
                            mo.s_value_closed_form(n, a, k, j, q)


def test_s_value_preconditions():
    with pytest.raises(ValueError):
        mo.s_value(1, 1, 1, 1)
    with pytest.raises(ValueError):
        mo.s_value(3, 1, 1, 0)
    with pytest.raises(ValueError):
        mo.s_value(3, 1, 1, 4)
    with pytest.raises(ValueError):
        mo.s_value(100, 1, 1, 1)
    # a flag depth or a datum that is not an integer is refused, not rounded
    with pytest.raises(ValueError, match="flag depth j must be an integer, not 1.5"):
        mo.s_value(3, 2, 2, 1.5)
    with pytest.raises(ValueError, match="a must be an integer, not 2.0"):
        mo.delta_eckardt(3, 2.0, 2)
    with pytest.raises(ValueError, match="k must be an integer"):
        mo.unstable_check(11, 4, F(2))
    with pytest.raises(ValueError, match="dimension n must be an integer"):
        next(mo.moment_table([F(5, 2)], range(1, 2), range(1, 2)))
    with pytest.raises(ValueError, match="dimension n must be an integer"):
        mo.s_value("3", 1, 1, 1)
    # a bool is not taken for 1 or 0
    with pytest.raises(ValueError, match="a must be an integer, not True"):
        mo.s_value(3, True, True, 1)
    with pytest.raises(ValueError, match="flag depth j must be an integer, not True"):
        mo.s_value(3, 2, 2, True)
    with pytest.raises(ValueError, match="k must be an integer, not False"):
        mo.unstable_check(11, 4, False)
    # the dense integrator takes no float as an exact coefficient or bound
    with pytest.raises(ValueError, match="coefficient must be an int or a Fraction, not 0.1"):
        mo.Poly1D([0.1])
    with pytest.raises(ValueError, match="upper bound must be an int or a Fraction, not 0.5"):
        mo.Poly1D([1, 2]).integral(0, 0.5)


def test_s_value_monotonicity():
    for n in range(2, 8):
        for a in range(1, 5):
            for k in range(1, 5):
                if a * k > 1:
                    assert mo.s_value_closed_form(n, a, k, 1) > F(1, n + 1)


def test_delta_eckardt():
    val, exact = mo.delta_eckardt(3, 2, 2)
    assert val == F(12, 7) and exact

    val, exact = mo.delta_eckardt(11, 4, 2)
    # d = 9 < n = 11: the min picks the second expression and is not exact
    assert val == min(F(132, 19), F(108, 17)) == F(108, 17)
    assert not exact

    n = 5
    val, exact = mo.delta_eckardt(n, 1, 1)
    assert val == min(F(n), F(2 * (n + 1), 3))

    # whenever d >= n the first expression realizes the min
    for n in range(2, 9):
        for a in range(1, 7):
            for k in range(1, 7):
                val, exact = mo.delta_eckardt(n, a, k)
                assert exact == (a * k + 1 >= n)
                if exact:
                    assert val == F(n * (n + 1), a * k + n)


def test_eckardt_values_match_the_closed_forms_on_a_grid():
    """Over n = 2..64 and a, k = 1..24, the A/S values computed from the flag
    integrals equal the paper's closed forms: the bound of ``delta_eckardt``
    (inexact cases included), the value of the ``eckardt-vertex-upper`` row
    and the witness of ``unstable_check`` wherever it is issued."""
    upper = next(r for r in ce.RULES if r.id == "eckardt-vertex-upper")
    witnesses = 0
    for n in range(2, 65):
        for a in range(1, 25):
            for k in range(1, 25):
                vertex = F(n * (n + 1), a * k + n)
                bound, exact = mo.delta_eckardt(n, a, k)
                assert bound == min(vertex, F((a * k + 1) * (n + 1), 2 * a * k + 1))
                assert exact == (a * k + 1 >= n)
                assert upper.value(types.SimpleNamespace(n=n), a=a, k=k)[1] == vertex
                index = n + a - a * k
                if a < 2 or index < 1:
                    continue
                report = mo.unstable_check(n, a, k)
                if report.verdict == "K-unstable":
                    assert report.witness == vertex / index
                    witnesses += 1
    assert witnesses > 0


def test_unstable_check():
    rep = mo.unstable_check(11, 4, 2)
    assert rep.verdict == "K-unstable"
    assert rep.witness == F(132, 133)
    assert rep.index == 7

    rep = mo.unstable_check(8, 2, 2)
    assert rep.verdict == "inconclusive"  # boundary: 8 = 2a^2/(a-1)

    rep = mo.unstable_check(10, 3, 2)
    assert rep.verdict == "K-unstable"

    with pytest.raises(ValueError):
        mo.unstable_check(5, 1, 1)  # a must be >= 2
    with pytest.raises(ValueError):
        mo.unstable_check(2, 3, 4)  # index not positive


def _expand(records):
    """The table's rows, tuples in ``TABLE_HEADER`` order, as ``row_layout``
    expands them from its records."""
    return [(r.n, r.a, r.k, j, q, r.s[entry], r.closed_form[entry], r.match[entry])
            for r in records for j, q, entry in mo.row_layout(r.n)]


def _rows(records):
    """The table's rows read by column name."""
    return [dict(zip(mo.TABLE_HEADER, row)) for row in _expand(records)]


def test_moment_table_rows():
    records = list(mo.moment_table(range(2, 3), range(1, 2), range(1, 2)))
    assert [type(r) for r in records] == [mo.MomentRecord]
    tuples = _expand(records)
    assert all(type(r) is tuple and len(r) == len(mo.TABLE_HEADER) for r in tuples)
    rows = _rows(records)
    assert len(rows) == 2 * 2  # j in {1,2}, two flags
    assert all(r["match"] for r in rows)
    assert set(rows[0]) == {"n", "a", "k", "j", "q_in_W1", "S", "closed_form", "match"}
    assert all(isinstance(r[k], Fraction) for r in rows for k in ("S", "closed_form"))


def test_moment_table_checks_every_triple_before_the_first_row():
    with pytest.raises(ValueError, match="dimension bounded by 64"):
        next(mo.moment_table(range(2, 66), range(1, 2), range(1, 2)))
    with pytest.raises(ValueError, match="a and k must be positive"):
        next(mo.moment_table(range(2, 3), range(0, 2), range(1, 2)))
    # no triple, no row, nothing to check
    assert list(mo.moment_table(range(2, 66), range(1, 1), range(1, 2))) == []


def test_moment_table_checks_each_entry_once(monkeypatch):
    """The first record of a 7 x 100 x 100 table waits for 207 entry checks,
    not for one check per (n, a, k)."""
    calls = [0]
    validate = mo._validate

    def spy(*args):
        calls[0] += 1
        return validate(*args)
    monkeypatch.setattr(mo, "_validate", spy)
    first = next(mo.moment_table(range(2, 9), range(1, 101), range(1, 101)))
    assert _expand([first])[0][:4] == (2, 1, 1, 1)
    assert calls[0] <= 207


def _default_table():
    return _rows(mo.moment_table(range(2, 9), range(1, 7), range(1, 7)))


def test_moment_table_computes_each_triple_once(monkeypatch):
    """Over the default table, one record per (n, a, k), holding one integral
    and one closed-form triple, and no per-row pick."""
    calls = collections.Counter()

    def counted(name):
        f = getattr(mo, name)

        def spy(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(mo, name, spy)

    for name in ("_flag_integrals", "_closed_forms", "_pick"):
        counted(name)
    records = list(mo.moment_table(range(2, 9), range(1, 7), range(1, 7)))
    assert len(records) == 252
    assert len(_rows(records)) == 2520
    assert calls == {"_flag_integrals": 252, "_closed_forms": 252}


def test_moment_table_match_is_the_comparison():
    """Over the default table, every row's ``match`` is its own S == closed_form."""
    rows = _default_table()
    assert len(rows) == sum(2 * n for n in range(2, 9)) * 36
    assert all(r["match"] == (r["S"] == r["closed_form"]) for r in rows)


@pytest.mark.parametrize("wrong", [0, 1, 2])
def test_moment_table_match_follows_a_wrong_closed_form(monkeypatch, wrong):
    """One wrong closed form fails exactly the rows that select it: j = 1 for
    the first, j = n with the point on W_1 for the third, the rest for the
    second."""
    closed_forms = mo._closed_forms

    def broken(n, a, k):
        values = list(closed_forms(n, a, k))
        values[wrong] += 1
        return tuple(values)

    def selects(r):
        if r["j"] == 1:
            return 0
        return 2 if r["q_in_W1"] and r["j"] == r["n"] else 1

    monkeypatch.setattr(mo, "_closed_forms", broken)
    rows = _default_table()
    assert [not r["match"] for r in rows] == [selects(r) == wrong for r in rows]
    assert all(r["match"] == (r["S"] == r["closed_form"]) for r in rows)
