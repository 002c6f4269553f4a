import collections
import copy
import hashlib
import io
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from wfano import blowup as bl
from wfano import cli
from wfano import convex as cx
from wfano import engine as ce
from wfano import lattice
from wfano import moments as mo
from wfano import wpoly as wp
from wfano.lattice import WeightVector

from helpers import census

F = Fraction


def _datum(weights, d, **flag_kwargs):
    return ce.FanoDatum(ambient=WeightVector(tuple(weights)), d=d,
                        flags=ce.Flags(**flag_kwargs))


_NOT_A_COMBINATION = ("degree is not a nonnegative combination of the weights > 1, so every "
                      "monomial of degree d vanishes on the weight-one locus")


def test_derive_b1_examples():
    """Verdicts and the exact reasons behind them."""
    # d = a*k: the congruence rule gives "no"
    assert ce.derive_b1(_datum([1, 1, 1, 1, 1, 2], 6)) == ("no", ("d = 6 is 0 mod 2, not 1",))
    with pytest.raises(ce.NonFanoError):
        _datum([1, 1, 1, 1, 2], 6)           # index 0 is refused at construction
    # d = a*k + 1: the representability rule gives "yes"
    assert ce.derive_b1(_datum([1, 1, 1, 1, 2], 5)) == ("yes", (_NOT_A_COMBINATION,))
    # few weight-one coordinates relative to n: "no", and the congruence fails too
    assert ce.derive_b1(_datum([1, 2, 3, 3, 4], 7)) == (
        "no", ("n+1 = 4 >= 2*c1 = 2: locus too large to lie on X", "d = 7 is 3 mod 4, not 1"))
    # d not 0 or 1 mod a: contradictory (the family is empty)
    assert ce.derive_b1(_datum([1, 1, 1, 1, 8], 11)) == (
        "contradiction", (_NOT_A_COMBINATION, "d = 11 is 3 mod 8, not 1"))
    # ordinary projective space: the locus is empty, contained vacuously
    assert ce.derive_b1(_datum([1, 1, 1, 1, 1], 3)) == ("yes", (_NOT_A_COMBINATION,))


def test_an_eckardt_vertex_asserted_off_the_escape_level_is_a_precondition_error():
    """Exit 2, naming the asserted escape level and the vertex's k."""
    out = io.StringIO()
    assert cli.run(["certify", "--weights", "P(1^12,4)", "--degree", "9", "--eckardt",
                    "--m", "1"], out=out) == 2
    assert json.loads(out.getvalue())["error"] == {
        "kind": "precondition",
        "message": "eckardt_at_P asserted but escape level m=1 != k=2"}


def test_asserted_b1_against_the_derived_value_names_the_reasons():
    """Exit 2, with the derived reasons joined into the message."""
    out = io.StringIO()
    assert cli.run(["certify", "--weights", "1,1,1,1,2", "--degree", "5", "--b1", "no"],
                   out=out) == 2
    assert json.loads(out.getvalue())["error"] == {
        "kind": "precondition",
        "message": "asserted b1_in_x=no contradicts the derived value yes: " + _NOT_A_COMBINATION}


def test_certify_one_weight_family():
    cert = ce.certify(_datum([1, 1, 1, 1, 2], 5))
    assert cert.bound == F(4, 3)
    assert cert.verdict == "K-stable"
    assert cert.index == 1
    rules = {t.rule_id for t in cert.trace}
    assert "one-weight-index-one" in rules
    assert "one-weight-gap" in rules


def test_certify_two_weight_family():
    cert = ce.certify(_datum([1, 1, 1, 2, 3], 7))
    assert cert.verdict == "K-stable"
    vals = {t.rule_id: t.output for t in cert.trace}
    assert vals["two-weight-index-one"] == str(F(8, 7))


def test_certify_eckardt_unstable():
    cert = ce.certify(_datum([1] * 12 + [4], 9, eckardt_at_p=True))
    assert cert.verdict == "K-unstable"
    assert cert.anticanonical_upper == F(132, 133)
    assert cert.upper == F(132, 19)


def test_certify_eckardt_inconclusive_boundary():
    cert = ce.certify(_datum([1] * 9 + [2], 5, eckardt_at_p=True))
    # n = 8 = 2a^2/(a-1): criterion needs a strict inequality
    assert cert.verdict != "K-unstable"


def test_eckardt_flag_from_escape_level():
    # m = k marks the vertex as generalized Eckardt without the boolean
    cert = ce.certify(_datum([1] * 12 + [4], 9, m=2))
    assert cert.verdict == "K-unstable"
    with pytest.raises(ce.ContradictoryFlagsError):
        ce.certify(_datum([1] * 12 + [4], 9, eckardt_at_p=True, m=1))


def test_certify_external_divisible_rule():
    cert = ce.certify(_datum([1, 1, 1, 1, 2], 4))
    entries = {t.rule_id: t for t in cert.trace}
    ext = entries["external-divisible-weight"]
    assert ext.external and "ST24" in ext.citation
    assert ext.output == str(F(4 * 2, 4))
    assert cert.bound == F(2)
    assert cert.index == 2
    assert cert.anticanonical_bound == F(1)
    assert cert.verdict == "inconclusive"  # bound exactly one, not strict


def test_certify_general_member():
    cert = ce.certify(_datum([1, 1, 1, 1, 2, 2], 7, general_member=True))
    assert cert.verdict == "K-stable"
    rules = {t.rule_id for t in cert.trace}
    assert "general-divisibility-stable" in rules
    # without the generality flag the rule must not fire
    cert2 = ce.certify(_datum([1, 1, 1, 1, 2, 2], 7))
    assert "general-divisibility-stable" not in {t.rule_id for t in cert2.trace}


def test_non_fano_rejected():
    with pytest.raises(ce.NonFanoError):
        ce.certify(_datum([1, 1, 1], 3))
    with pytest.raises(ce.NonFanoError):
        ce.certify(_datum([1, 1, 1], 5))


def test_flag_contradiction_rejected():
    with pytest.raises(ce.ContradictoryFlagsError):
        ce.certify(_datum([1, 1, 1, 1, 2], 4, b1_in_x="yes"))  # derived "no"


def test_anticanonical_conversion():
    rng = random.Random(4)
    count = 0
    while count < 60:
        length = rng.randint(4, 7)
        ws = sorted(rng.randint(1, 6) for _ in range(length))
        import math
        if math.gcd(*ws) != 1:
            continue
        w = WeightVector(tuple(ws))
        if not w.is_well_formed:
            continue
        d = sum(ws) - rng.randint(1, 3)
        if d < 2:
            continue
        datum = ce.FanoDatum(ambient=w, d=d)
        try:
            cert = ce.certify(datum)
        except (ce.NonFanoError, ce.ContradictoryFlagsError):
            continue
        assert cert.anticanonical_bound * cert.index == cert.bound
        if cert.upper is not None:
            assert cert.anticanonical_upper * cert.index == cert.upper
        count += 1


def test_monotonicity_in_flags():
    base = _datum([1, 1, 1, 1, 2, 2], 7)
    with_general = _datum([1, 1, 1, 1, 2, 2], 7, general_member=True)
    c0 = ce.certify(base)
    c1 = ce.certify(with_general)
    assert c1.bound >= c0.bound

    # asserting the containment flag on a family where it is underived
    unknown = _datum([1, 1, 1, 2, 3], 7)
    asserted = _datum([1, 1, 1, 2, 3], 7, b1_in_x="yes")
    assert ce.certify(asserted).bound >= ce.certify(unknown).bound


def test_vertex_away_combination():
    # (1^4, 2, 2), d = 7: containment derived, vertex/away split applies
    cert = ce.certify(_datum([1, 1, 1, 1, 2, 2], 7))
    scopes = {t.rule_id: t.scope for t in cert.trace}
    assert scopes["tail-base-locus-away"] == "away"
    assert scopes["tail-base-locus-vertex"] == "vertex"
    n, d, a_top, a_second = 4, 7, 2, 2
    k = 3
    away = F((n + 1) * a_top, d)
    vertex = max(
        F((n + 1) * a_second, d),
        min(F(n + 1, d - a_top), F(n * (n + 1), a_top * k + n),
            F((a_top * k + 1) * (n + 1), 2 * a_top * k + 1)),
    )
    assert cert.bound == min(away, vertex)


def test_enumerate_deterministic_and_limits():
    rows1 = list(ce.enumerate_data(n=3, max_weight=3, index=1))
    rows2 = list(ce.enumerate_data(n=3, max_weight=3, index=1))
    assert [r.datum.ambient.weights for r in rows1] == \
           [r.datum.ambient.weights for r in rows2]
    assert rows1, "expected at least one row"
    with pytest.raises(ValueError):
        list(ce.enumerate_data(n=3, max_weight=3))
    with pytest.raises(ValueError):
        list(ce.enumerate_data(n=50, max_weight=3, index=1))


def test_enumerate_trivial_sweep():
    rows = list(ce.enumerate_data(n=3, max_weight=1, index=1))
    assert len(rows) == 1
    assert rows[0].datum.ambient.weights == (1, 1, 1, 1, 1)
    # the weighted rules must not fire on ordinary projective space
    assert "one-weight-index-one" not in rows[0].fired_rules()


def test_enumerate_drops_nonpositive_degrees():
    """An index sweep gives d = sum(w) - index, which is below 1 for the
    lightest tuples, and a degree sweep gives an index that is not positive
    for them; both are dropped, and the rows are exactly the brute-force
    filter: gcd 1, well-formed, d >= 1, sum(w) > d."""
    n, top = 1, 3
    well_formed = [
        t for t in itertools.combinations_with_replacement(range(1, top + 1), n + 2)
        if math.gcd(*t) == 1
        and all(math.gcd(*(t[:i] + t[i + 1:])) == 1 for i in range(len(t)))
    ]
    for sweep, dropped in (({"index": 4}, [((1, 1, 1), -1), ((1, 1, 2), 0)]),
                           ({"degree": 4}, [((1, 1, 1), 4), ((1, 1, 2), 4)])):
        candidates = [(t, sweep["degree"] if "degree" in sweep else sum(t) - sweep["index"])
                      for t in well_formed]
        expected = [(t, d) for t, d in candidates if 1 <= d < sum(t)]
        assert [c for c in candidates if c not in expected] == dropped
        assert [t for t, _ in expected] == [(1, 1, 3), (1, 2, 3)]
        rows = list(ce.enumerate_data(n=n, max_weight=top, **sweep))
        assert [(r.datum.ambient.weights, r.datum.d) for r in rows] == expected


def test_census_oracle_counts():
    """The brute-force census of ROADMAP item 1: the index-1 threefold
    families with a quasi-smooth, well-formed member that is not a linear
    cone, and with the terminal filter the 95 (Reid's list; Johnson-Kollar,
    *Fano hypersurfaces in weighted projective 4-spaces*, Experiment. Math.
    10 (2001)).  Every family it keeps is an ``enumerate_data`` row."""
    small = census(3, 10)
    assert len(small) == 94
    assert len(census(3, 33)) == 580
    terminal = census(3, 33, terminal=True)
    assert len(terminal) == 95
    assert ((1, 1, 6, 14, 21), 42) in terminal and ((1, 5, 6, 22, 33), 66) in terminal
    rows = {(r.datum.ambient.weights, r.datum.d) for r in ce.enumerate_data(3, 10, index=1)}
    assert len(rows) == 1376
    assert set(small) <= rows


def test_enumerate_skips_contradictory_flags(monkeypatch):
    """A certified upper bound of 0 contradicts every positive lower bound,
    so ``certify`` raises and the sweep drops exactly those candidates."""
    unpatched = list(ce.enumerate_data(n=2, max_weight=3, index=1))
    kept = [r.datum for r in unpatched if r.certificate.bound == 0]
    assert 0 < len(kept) < len(unpatched)
    zero = ce.Rule("zero-upper", "upper", "delta <= 0", (ce.QUASI_SMOOTH,),
                   lambda x, **_: ({}, F(0)))
    monkeypatch.setattr(ce, "RULES", ce.RULES + (zero,))
    with pytest.raises(ce.ContradictoryFlagsError):
        ce.certify(_datum([1, 1, 1, 1, 2], 5))
    assert list(ce.enumerate_data(n=2, max_weight=3, degree=6)) == []
    assert [r.datum for r in ce.enumerate_data(n=2, max_weight=3, index=1)] == kept


def test_enumerate_unstable_sweep():
    # degree-parameterized sweep covering X_{2a+1} in P(1^12, a): at n = 11
    # the instability criterion n > 2a^2/(a-1) holds only for a = 4, the
    # a = 6 row is even certified K-stable, and a = 5 stays open
    verdicts = {}
    for a in (4, 5, 6):
        found = False
        for row in ce.enumerate_data(n=11, max_weight=a, degree=2 * a + 1,
                                     eckardt=True):
            if row.datum.ambient.weights == tuple([1] * 12 + [a]):
                verdicts[a] = row.certificate.verdict
                found = True
        assert found
    assert verdicts == {4: "K-unstable", 5: "inconclusive", 6: "K-stable"}
    # the criterion itself: K-unstable exactly above the threshold
    from wfano.moments import unstable_check

    for a in (4, 5, 6):
        threshold = F(2 * a * a, a - 1)
        assert (11 > threshold) == (unstable_check(11, a, 2).verdict == "K-unstable")


def test_enumerate_checks_arguments_before_the_first_row():
    with pytest.raises(ValueError):
        next(ce.enumerate_data(n=50, max_weight=3, index=1))
    with pytest.raises(ValueError):
        next(ce.enumerate_data(n=3, max_weight=3, index=1, degree=5))
    for kwargs in ({"max_weight": 3, "index": 0}, {"max_weight": 3, "index": -2},
                   {"max_weight": 3, "degree": 0}, {"max_weight": 0, "index": 1}):
        with pytest.raises(ValueError):
            next(ce.enumerate_data(n=2, **kwargs))


def _mobius(k):
    """The Moebius function of k >= 1, by trial division."""
    result = 1
    for p in range(2, k + 1):
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
    return result


def _spy_draws(monkeypatch):
    """Wrap itertools.combinations_with_replacement so that every tuple
    drawn from it is counted in the returned one-element list."""
    drawn = [0]
    original = itertools.combinations_with_replacement

    def spy(*args):
        for t in original(*args):
            drawn[0] += 1
            yield t

    monkeypatch.setattr(itertools, "combinations_with_replacement", spy)
    return drawn


def test_coprime_tuple_count_against_brute_force():
    for length in range(2, 8):
        for top in range(1, 16):
            brute = sum(1 for t in itertools.combinations_with_replacement(
                range(1, top + 1), length) if math.gcd(*t) == 1)
            assert ce._coprime_tuple_count(length, top) == brute, (length, top)


@pytest.mark.parametrize("n, top, count", [(3, 33, 417_212),
                                           (24, 40, 1_002_593_980_804_885_671)])
def test_enumerate_row_limit_is_an_exact_count(monkeypatch, n, top, count):
    # the Moebius sum over the gcd gives the same count
    assert sum(_mobius(g) * math.comb(top // g + n + 1, n + 2)
               for g in range(1, top + 1)) == count
    drawn = _spy_draws(monkeypatch)
    with pytest.raises(ValueError) as err:
        next(ce.enumerate_data(n=n, max_weight=top, index=1))
    assert str(err.value) == f"enumeration would produce {count} rows; limit is 200000"
    assert drawn[0] == 0


def test_enumerate_draws_candidates_lazily(monkeypatch):
    drawn = _spy_draws(monkeypatch)
    row = next(ce.enumerate_data(n=2, max_weight=40, index=1))
    assert row.datum.ambient.weights == (1, 1, 1, 1)
    assert drawn[0] == 1


def test_representable_against_brute_force():
    """Every multiset of up to five parts in 2..12, the shapes of weights > 1
    that the n = 3 sweeps meet, against a reach table up to 120."""
    top = 120
    for length in range(6):
        for parts in itertools.combinations_with_replacement(range(2, 13), length):
            reach = [True] + [False] * top
            for v in range(1, top + 1):
                reach[v] = any(p <= v and reach[v - p] for p in parts)
            for d in range(top + 1):
                assert ce._representable(d, parts) == reach[d], (d, parts)


def test_representable_two_coprime_parts_near_the_degree_limit():
    """Two coprime parts a, b: d is a combination exactly when b times the
    residue of d/b mod a is at most d.  Sylvester's bound (a-1)(b-1) answers
    from 997,002 up to the degree limit; below it the bitset decides."""
    a, b = 999, 1000
    inverse = pow(b, -1, a)
    for d in [*range(996_990, 997_020), *range(ce.MAX_DEGREE - 20, ce.MAX_DEGREE + 1)]:
        assert ce._representable(d, (a, b)) == ((d * inverse) % a * b <= d), d
    assert not ce._representable(a * b - a - b, (a, b))        # the Frobenius number


def _tail_pattern_scan(weights, tail):
    """Sorted weights are (1,...,1, w_1 <= ... <= w_tail), every w_i >= 2."""
    lead = len(weights) - tail
    return lead >= 0 and all(a == 1 for a in weights[:lead]) and all(
        a >= 2 for a in weights[lead:])


def test_datum_shape_fields_match_their_definitions():
    rng = random.Random(3)
    for t in itertools.combinations_with_replacement(range(1, 9), 5):
        c1 = t.count(1)
        for tail in range(len(t) + 2):
            assert (c1 == len(t) - tail) == _tail_pattern_scan(t, tail), (t, tail)
        if math.gcd(*t) != 1:
            continue
        shuffled = list(t)
        rng.shuffle(shuffled)
        w = WeightVector(tuple(shuffled))
        assert w.is_well_formed == all(
            math.gcd(*(w.weights[:i] + w.weights[i + 1:])) == 1 for i in range(len(t)))
        d = sum(t) - 1
        if not w.is_well_formed:
            with pytest.raises(ValueError, match="not well-formed"):
                ce.FanoDatum(ambient=w, d=d)
            continue
        datum = ce.FanoDatum(ambient=w, d=d)
        assert datum.n == len(t) - 2
        assert datum.index == sum(t) - d == 1
        assert datum.sorted_weights == t
        assert datum.c1 == sum(1 for a in shuffled if a == 1)


@pytest.mark.parametrize("weights, d, error, message", [
    ((2, 2, 3), 0, ValueError, "degree must be a positive integer"),
    ((1, 2), 5, ValueError, "a hypersurface datum needs at least three weights"),
    ((2, 2, 3), 4, ValueError, "weights (2, 2, 3) are not well-formed; normalize first"),
    ((1, 1, 1), 3, ce.NonFanoError, "index sum(a_i) - d = 0 is not positive"),
])
def test_datum_gate_refuses_in_order(weights, d, error, message):
    """Each case passes every earlier check and fails its own: the degree,
    the weight count, well-formedness of P, then the index."""
    with pytest.raises(ValueError) as err:
        _datum(weights, d)
    assert type(err.value) is error
    assert str(err.value) == message


def test_datum_shape_fields_stay_out_of_equality():
    datum = _datum([1, 1, 1, 1, 2], 5)
    assert datum == _datum([1, 1, 1, 1, 2], 5)
    assert hash(datum) == hash(_datum([1, 1, 1, 1, 2], 5))
    assert "c1" not in repr(datum) and "sorted_weights" not in repr(datum)
    lower = ce.FanoDatum(datum.ambient, 4, datum.flags)
    assert (lower.index, lower.c1, lower.n) == (2, 4, 3)
    assert ce.FanoDatum(lower.ambient, 5, lower.flags) == datum
    with pytest.raises(ValueError):
        ce.FanoDatum(datum.ambient, 0, datum.flags)


_CORPUS_FLAGS = ({}, {"eckardt_at_p": True, "general_member": True}, {"m": 2},
                 {"b1_in_x": "yes"})


@pytest.fixture(scope="module")
def corpus():
    """Every gcd-1 ascending tuple of length 4-6 with entries 1..5, every
    positive degree from sum-4 to sum-1, four flag sets: (case, certificate
    or error)."""
    return list(_certify_corpus())


def _certify_corpus():
    for length in (4, 5, 6):
        for t in itertools.combinations_with_replacement(range(1, 6), length):
            if math.gcd(*t) != 1:
                continue
            for d in range(max(1, sum(t) - 4), sum(t)):
                for flags in _CORPUS_FLAGS:
                    try:
                        yield (t, d, flags), ce.certify(_datum(t, d, **flags))
                    except ValueError as exc:
                        yield (t, d, flags), exc


def test_certify_corpus_trace_is_pinned(corpus):
    """The certificate JSON that ``cli`` renders (or the error type and
    message) of every corpus case, hashed in order: a rule rewrite must not
    move a byte."""
    digest = hashlib.sha256()
    count = 0
    for case, result in corpus:
        if isinstance(result, Exception):
            text = f"{type(result).__name__}: {result}"
        else:
            outputs, trace = cli._certificate(result)
            text = json.dumps({**cli._fmt(outputs), "trace": trace}, sort_keys=True)
        digest.update(f"{case!r} {text}\n".encode())
        count += 1
    assert count == 6108
    assert digest.hexdigest() == \
        "81a9facfa44390115b9d84633bb39ac401e881e051ed07c3065e774fe01ee313"


def test_tail_vertex_first_term_is_the_minimum():
    """d = k*a + 1 > a + 1 forces k >= 2, and then (n+1)/(d-a) is at most
    n(n+1)/(ak+n) and (ak+1)(n+1)/(2ak+1) for every n >= 3."""
    for n in range(3, 61):
        for a in range(2, 41):
            for k in range(2, 41):
                d = k * a + 1
                term1 = F(n + 1, d - a)
                assert term1 <= F(n * (n + 1), a * k + n), (n, a, k)
                assert term1 <= F((a * k + 1) * (n + 1), 2 * a * k + 1), (n, a, k)


def test_every_rule_fires_in_the_corpus(corpus):
    """Each rule fires exactly as often as pinned, so a drifting
    precondition is named by rule, not only by the corpus hash."""
    ids = [rule.id for rule in ce.RULES]
    assert len(ids) == len(set(ids)) == 12
    assert all(rule.scope in ("global", "vertex", "away", "upper", "note")
               for rule in ce.RULES)
    fired = collections.Counter()
    raised = 0
    for _, result in corpus:
        if isinstance(result, Exception):
            raised += 1
            continue
        for entry in result.trace:
            fired[entry.rule_id] += 1
            assert (entry.output is None) == (entry.scope == "note"), entry
            assert entry.external == (entry.citation is not None)
    assert (len(corpus) - raised, raised) == (3898, 2210)
    assert fired == {
        "external-divisible-weight": 2010, "one-weight-gap": 74,
        "tail-base-locus-away": 87, "tail-base-locus-vertex": 87,
        "two-weight-degree": 355, "one-weight-index-one": 29,
        "two-weight-index-one": 69, "general-divisibility-stable": 7,
        "eckardt-vertex-lower": 18, "vertex-complement": 18, "eckardt-vertex-upper": 18,
        "eckardt-unstable": 12, "b1-derivation": 3870}
    assert set(fired) == set(ids) | {"b1-derivation"}


def test_facts_checked_but_not_recorded():
    """The ledger of what the trace leaves out: the facts each rule checks
    without a hypothesis text, and the rules that record quasi-smoothness."""
    unrecorded = {rule.id: [fact.check for fact in rule.requires if fact.text is None]
                  for rule in ce.RULES}
    assert {rule: checks for rule, checks in unrecorded.items() if checks} == {
        "general-divisibility-stable": [ce.N_GE_3.check, ce.SOME_WEIGHT_ABOVE_1.check],
        "vertex-complement": [ce.ECKARDT_VERTEX.check],
        "eckardt-unstable": [ce.ECKARDT_VERTEX.check]}
    assert [rule.id for rule in ce.RULES if ce.QUASI_SMOOTH in rule.requires] == [
        "external-divisible-weight", "tail-base-locus-away", "tail-base-locus-vertex",
        "one-weight-index-one", "two-weight-index-one", "general-divisibility-stable",
        "eckardt-vertex-lower", "vertex-complement", "eckardt-vertex-upper"]


def test_eckardt_moments_are_called_once_per_eckardt_certificate(monkeypatch):
    """``certify`` reaches ``delta_eckardt`` and ``unstable_check`` through
    the module globals, once per certificate with an Eckardt vertex, so a
    tracer that wraps those names sees every call."""
    calls = collections.Counter()
    for name in ("delta_eckardt", "unstable_check"):
        def counted(*args, _name=name, _original=getattr(ce, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(ce, name, counted)
    certs = [result for _, result in _certify_corpus() if not isinstance(result, Exception)]
    assert calls == {"delta_eckardt": 18, "unstable_check": 18}
    traces = [cert.trace for cert in certs]
    assert [cert.trace for cert in certs] == traces     # every trace rendered twice
    eckardt = sum(1 for trace in traces
                  if any(e.rule_id == "eckardt-vertex-lower" for e in trace))
    assert eckardt == 18
    assert calls == {"delta_eckardt": 18, "unstable_check": 18}


def test_certified_eckardt_values_have_one_source(monkeypatch, corpus):
    """The certified Eckardt values are A/S over ``moments._flag_integrals``:
    a change to its first S-value moves the bound of ``delta_eckardt``, the
    ``eckardt-vertex-upper`` value of a certificate and the witness of
    ``unstable_check``.  No certificate reads a closed form: with
    ``moments._closed_forms`` raising, every corpus certificate is unchanged."""
    integrals = mo._flag_integrals
    shift = F(100, 101)                  # A/S of the first S-value times 100/101

    def perturbed(n, a, k):
        first, rest, on_w1 = integrals(n, a, k)
        return first / shift, rest, on_w1

    monkeypatch.setattr(mo, "_flag_integrals", perturbed)
    assert mo.delta_eckardt(3, 2, 2) == (F(12, 7) * shift, True)
    cert = ce.certify(_datum([1] * 12 + [4], 9, eckardt_at_p=True))
    values = {rule.id: value for rule, _, _, value in cert.fired}
    assert values["eckardt-vertex-upper"] == cert.upper == F(132, 19) * shift
    assert mo.unstable_check(11, 4, 2).witness == F(132, 133) * shift
    monkeypatch.setattr(mo, "_flag_integrals", integrals)

    def unread(n, a, k):
        raise RuntimeError("a closed form was read")

    monkeypatch.setattr(mo, "_closed_forms", unread)
    with pytest.raises(RuntimeError):
        mo.s_value_closed_form(3, 2, 2, 1)

    def outcome(result):
        return (type(result), str(result)) if isinstance(result, Exception) else result

    assert [(case, outcome(result)) for case, result in _certify_corpus()] == \
        [(case, outcome(result)) for case, result in corpus]


def test_fired_rules_and_the_trace_agree_over_the_corpus(corpus):
    """A row's fired rule ids, read from the record, are the non-note rule
    ids of the rendered trace, and rendering the trace twice gives equal
    traces."""
    for (t, d, flags), result in corpus:
        if isinstance(result, Exception):
            continue
        trace = result.trace
        row = ce.EnumerationRow(_datum(t, d, **flags), result)
        assert row.fired_rules() == tuple(e.rule_id for e in trace if e.scope != "note")
        assert result.trace == trace


def test_a_sweep_renders_no_trace(monkeypatch):
    """``enumerate`` reads the bounds, the verdict and the fired rule ids,
    so it builds no trace entry, as CSV or as JSON; ``certify`` builds
    exactly the entries it prints."""
    built = []

    class Counted(ce.TraceEntry):
        def __new__(cls, rule_id, *args):
            built.append(rule_id)
            return super().__new__(cls, rule_id, *args)

    monkeypatch.setattr(ce, "TraceEntry", Counted)
    sweep = ["enumerate", "--n", "3", "--max-weight", "8", "--index", "1",
             "--eckardt", "--general"]
    for argv in (sweep, sweep + ["--csv"]):
        out = io.StringIO()
        assert cli.run(argv, out=out) == 0
        assert "one-weight-index-one" in out.getvalue()
        assert built == []
    out = io.StringIO()
    assert cli.run(["certify", "--weights", "1,1,1,1,2", "--degree", "5"], out=out) == 0
    trace = json.loads(out.getvalue())["trace"]
    assert len(trace) > 1
    assert built == [entry["rule_id"] for entry in trace]


def test_a_sweep_formats_no_b1_reason(monkeypatch):
    """``enumerate`` reads no b1 reason and no b1 statement, so it formats
    none, as CSV or as JSON, though its certificates hold them; ``certify``
    formats exactly the ones its trace prints."""
    formatted = []
    text = ce._b1_text

    def spy(template, args):
        formatted.append(text(template, args))
        return formatted[-1]

    monkeypatch.setattr(ce, "_b1_text", spy)
    assert any(row.certificate.b1_note[1]
               for row in ce.enumerate_data(n=3, max_weight=8, index=1, eckardt=True,
                                            general=True)
               if row.certificate.b1_note is not None)
    sweep = ["enumerate", "--n", "3", "--max-weight", "8", "--index", "1",
             "--eckardt", "--general"]
    for argv in (sweep, sweep + ["--csv"]):
        out = io.StringIO()
        assert cli.run(argv, out=out) == 0
        assert "one-weight-index-one" in out.getvalue()
    assert formatted == []
    out = io.StringIO()
    assert cli.run(["certify", "--weights", "1,1,1,1,2", "--degree", "5"], out=out) == 0
    note = json.loads(out.getvalue())["trace"][0]
    assert note["rule_id"] == "b1-derivation"
    assert formatted == [note["statement"], *note["hypotheses"]] == [
        "weight-one base locus containment derived: yes", _NOT_A_COMBINATION]


def test_the_shape_index_drops_only_rows_that_cannot_fire(corpus):
    """Per weight shape (one weight > 1: c1 = n+1, two: c1 = n, any other)
    ``certify`` visits a sub-table of ``RULES`` in table order, and every
    row it leaves out has a fact that fails, checked in order, on every
    corpus datum of that shape, built under each ``b1_in_x`` assertion
    that construction accepts."""
    tables = [ce._shape_rules(shape) for shape in range(3)]
    for table in tables:
        positions = [ce.RULES.index(rule) for rule in table]
        assert positions == sorted(positions)
    assert [len(table) for table in tables] == [4, 10, 6]
    shapes = set()
    for (t, d, flags), _ in corpus:
        for b1 in ("yes", "no", "unknown"):
            try:
                datum = _datum(t, d, **{**flags, "b1_in_x": b1})
            except ValueError:
                continue
            shape = 1 if datum.c1 == datum.n + 1 else 2 if datum.c1 == datum.n else 0
            shapes.add(shape)
            for rule in ce.RULES:
                if any(rule is kept for kept in tables[shape]):
                    continue
                assert not all(fact.check(datum) is not None for fact in rule.requires), (
                    t, d, flags, rule.id, b1, datum.b1, datum.eckardt)
    assert shapes == {0, 1, 2}


def test_a_datum_that_builds_certifies(corpus):
    """Every contradictory assertion is refused when the datum is built: each
    corpus case either raises at construction, with the error the corpus
    recorded, or certifies to the corpus certificate without raising."""
    built = 0
    for (t, d, flags), result in corpus:
        try:
            datum = _datum(t, d, **flags)
        except ValueError as exc:
            assert (type(exc), str(exc)) == (type(result), str(result)), (t, d, flags)
            continue
        assert ce.certify(datum) == result, (t, d, flags)
        built += 1
    assert built == 3898


def test_check_free_records_are_named_tuples():
    """The records without a check of their own keep their fields, in order,
    and refuse assignment; the certificate, the b1 result and the sweep row
    hash as the tuple of their fields."""
    assert ce.DeltaCertificate._fields == (
        "polarization", "bound", "strict", "upper", "verdict", "index", "b1_note", "fired")
    assert ce.B1Result._fields == ("verdict", "reasons")
    assert ce.EnumerationRow._fields == ("datum", "certificate")
    assert ce.TraceEntry._fields == ("rule_id", "statement", "citation", "external", "scope",
                                     "hypotheses", "inputs", "output")
    assert ce.Fact._fields == ("name", "check", "text")
    assert ce.Rule._fields == ("id", "scope", "statement", "requires", "value", "citation",
                               "strict")
    assert lattice.NormalizationReport._fields == ("input", "g_i", "g", "output")
    assert lattice.CoordinateStratum._fields == ("ambient", "vanishing", "quotient_weights",
                                                 "scale", "mult")
    assert lattice.BaseLocus._fields == ("ambient", "threshold", "basepoint", "vanishing",
                                         "stratum")
    assert mo.UnstableReport._fields == ("n", "a", "k", "index", "verdict", "witness",
                                         "criterion_rhs")
    assert bl.BlowupFrame._fields == ("ambient", "r", "h", "hp", "app", "gi", "g", "gp",
                                      "ap_left", "ap_right", "v_rep", "bezout")
    assert cx.OkounkovCase._fields == ("body", "L2", "eps", "t_max", "s_value",
                                       "second_coordinate")
    assert wp.QsmPointReport._fields == ("quasi_smooth", "witness", "vanishing")
    reasons = ("n+1 = 4 >= 2*c1 = 2: locus too large to lie on X",)
    assert hash(ce.B1Result("no", reasons)) == hash(("no", reasons))
    datum = _datum([1, 1, 1, 1, 2], 5)
    cert = ce.certify(datum)
    row = ce.EnumerationRow(datum, cert)
    w = WeightVector((1, 1, 2, 3))
    for record, name in ((ce.derive_b1(datum), "verdict"), (cert, "bound"),
                         (row, "certificate"), (cert.trace[0], "rule_id"),
                         (ce.QUASI_SMOOTH, "text"), (ce.RULES[0], "id"),
                         (lattice.normalize(w), "g"), (lattice.stratum(w, [0]), "mult"),
                         (lattice.base_locus(w, 1), "stratum"),
                         (mo.unstable_check(11, 4, 2), "verdict"), (bl.build(w, 1), "r"),
                         (cx.okounkov_body_surface("hirzebruch", a=2), "eps")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, "extra", None)
    assert (cert.anticanonical_bound, row.fired_rules()) == (cert.bound, (
        "one-weight-gap", "tail-base-locus-away", "tail-base-locus-vertex",
        "one-weight-index-one"))


@pytest.mark.parametrize("value, twin, key, attrs, text", [
    (WeightVector((1, 1, 1, 1, 2)), WeightVector([1, 1, 1, 1, 2]), ((1, 1, 1, 1, 2),),
     ("weights", "is_well_formed"), "WeightVector(weights=(1, 1, 1, 1, 2))"),
    (ce.Flags(eckardt_at_p=True, m=2, b1_in_x="yes", general_member=True),
     ce.Flags(True, 2, "yes", True), (True, 2, "yes", True), ("m", "b1_in_x"),
     "Flags(eckardt_at_p=True, m=2, b1_in_x='yes', general_member=True)"),
    (_datum([1, 1, 1, 1, 2], 5), ce.FanoDatum(WeightVector((1, 1, 1, 1, 2)), 5),
     (WeightVector((1, 1, 1, 1, 2)), 5, ce.Flags()), ("d", "flags", "c1", "index"),
     "FanoDatum(ambient=WeightVector(weights=(1, 1, 1, 1, 2)), d=5, flags=Flags("
     "eckardt_at_p=False, m=None, b1_in_x='unknown', general_member=False))"),
    (cx.SlicedBody((0, F(1, 2)), ((2, 0),)), cx.SlicedBody([F(0), F(1, 2)], [[F(2), F(0)]]),
     ((F(0), F(1, 2)), ((F(2), F(0)),)), ("breakpoints", "pieces", "_area", "_centroid"),
     "SlicedBody(breakpoints=(Fraction(0, 1), Fraction(1, 2)), "
     "pieces=((Fraction(2, 1), Fraction(0, 1)),))"),
    (cx.GravityInput(c0=1, c1=2, c2=3, V=4), cx.GravityInput(F(1), 2, F(3), 4),
     (F(1), F(2), F(3), F(4)), ("c0", "V"),
     "GravityInput(c0=Fraction(1, 1), c1=Fraction(2, 1), c2=Fraction(3, 1), V=Fraction(4, 1))"),
    (wp.parse("x0*x1+3*x2", WeightVector((1, 1, 2))),
     wp.SparseWPoly(WeightVector((1, 1, 2)), (((1, 1, 0), F(1)), ((0, 0, 1), F(3)))),
     (WeightVector((1, 1, 2)), (((0, 0, 1), F(3)), ((1, 1, 0), F(1)))), ("terms", "grade"),
     "SparseWPoly(space=WeightVector(weights=(1, 1, 2)), "
     "terms=(((0, 0, 1), Fraction(3, 1)), ((1, 1, 0), Fraction(1, 1))))"),
    (wp.EckardtDatum(a=2, k=3, m=2), wp.EckardtDatum(2, 3, 2), (2, 3, 2), ("a", "m"),
     "EckardtDatum(a=2, k=3, m=2)"),
])
def test_checked_values_are_immutable(value, twin, key, attrs, text):
    """Every checked value (a ``lattice._Value``) refuses assignment and
    deletion of every attribute, computed ones included, and compares,
    hashes, prints and copies by its constructor arguments, the ``_fields``:
    it is equal only to a value of its own class, not to their tuple."""
    for name in (*attrs, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin and hash(value) == hash(twin) == hash(key)
    assert value != key and repr(value) == repr(twin) == text
    assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value


def test_b1_flag_is_one_of_three_words():
    with pytest.raises(ValueError) as err:
        ce.Flags(b1_in_x="maybe")
    assert str(err.value) == "b1_in_x must be yes, no or unknown"


@pytest.mark.parametrize("value", [2.5, F(5, 2), "3", "no", "yes", 1, True, False])
def test_non_integral_degree_and_escape_level_are_rejected(value):
    """Each is refused as a degree and as m, booleans included, and each but
    the booleans as a boolean flag; 1 is a valid degree and m."""
    if type(value) is not int:
        with pytest.raises(ValueError, match="degree must be an integer"):
            _datum([1, 1, 1, 1, 2], value)
        with pytest.raises(ValueError, match="escape level m must be an integer"):
            ce.Flags(m=value)
    if not isinstance(value, bool):
        with pytest.raises(ValueError, match="eckardt_at_p must be a bool"):
            ce.Flags(eckardt_at_p=value)
        with pytest.raises(ValueError, match="general_member must be a bool"):
            ce.Flags(general_member=value)
