import collections
import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from wfano import cli
from wfano import engine as ce
from wfano.lattice import WeightVector

F = Fraction


def _datum(weights, d, **flag_kwargs):
    return ce.FanoDatum(ambient=WeightVector(tuple(weights)), d=d,
                        flags=ce.Flags(**flag_kwargs))


def test_derive_b1_examples():
    # d = a*k: the congruence rule gives "no"
    assert ce.derive_b1(_datum([1, 1, 1, 1, 2], 6)).verdict == "no"
    # d = a*k + 1: the representability rule gives "yes"
    assert ce.derive_b1(_datum([1, 1, 1, 1, 2], 5)).verdict == "yes"
    # few weight-one coordinates relative to n: "no"
    assert ce.derive_b1(_datum([1, 2, 3, 3, 4], 7)).verdict == "no"
    # d not 0 or 1 mod a: contradictory (the family is empty)
    assert ce.derive_b1(_datum([1, 1, 1, 1, 8], 11)).verdict == "contradiction"
    # ordinary projective space: the locus is empty, contained vacuously
    assert ce.derive_b1(_datum([1, 1, 1, 1, 1], 3)).verdict == "yes"


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
        ce.enumerate_data(n=50, max_weight=3, index=1)
    with pytest.raises(ValueError):
        ce.enumerate_data(n=3, max_weight=3, index=1, degree=5)
    for kwargs in ({"max_weight": 3, "index": 0}, {"max_weight": 3, "index": -2},
                   {"max_weight": 3, "degree": 0}, {"max_weight": 0, "index": 1}):
        with pytest.raises(ValueError):
            ce.enumerate_data(n=2, **kwargs)


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
        ce.enumerate_data(n=n, max_weight=top, index=1)
    assert str(err.value) == f"enumeration would produce {count} rows; limit is 200000"
    assert drawn[0] == 0


def test_enumerate_draws_candidates_lazily(monkeypatch):
    drawn = _spy_draws(monkeypatch)
    row = next(ce.enumerate_data(n=2, max_weight=40, index=1))
    assert row.datum.ambient.weights == (1, 1, 1, 1)
    assert drawn[0] == 1


def test_representable_against_brute_force():
    top = 80
    for length in range(5):
        for parts in itertools.combinations_with_replacement(range(2, 13), length):
            reach = [True] + [False] * top
            for v in range(1, top + 1):
                reach[v] = any(p <= v and reach[v - p] for p in parts)
            for d in range(top + 1):
                assert ce._representable(d, parts) == reach[d], (d, parts)


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
        datum = ce.FanoDatum(ambient=w, d=d)
        assert datum.n == len(t) - 2
        assert datum.index == sum(t) - d == 1
        assert datum.sorted_weights == t
        assert datum.c1 == sum(1 for a in shuffled if a == 1)


def test_datum_shape_fields_stay_out_of_equality():
    datum = _datum([1, 1, 1, 1, 2], 5)
    assert datum == _datum([1, 1, 1, 1, 2], 5)
    assert hash(datum) == hash(_datum([1, 1, 1, 1, 2], 5))
    assert "c1" not in repr(datum) and "sorted_weights" not in repr(datum)
    lower = dataclasses.replace(datum, d=4)
    assert (lower.index, lower.c1, lower.n) == (2, 4, 3)
    assert dataclasses.replace(lower, d=5) == datum
    with pytest.raises(ValueError):
        dataclasses.replace(datum, d=0)


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
    eckardt = sum(1 for _, result in _certify_corpus()
                  if not isinstance(result, Exception)
                  and any(e.rule_id == "eckardt-vertex-lower" for e in result.trace))
    assert eckardt == 18
    assert calls == {"delta_eckardt": 18, "unstable_check": 18}


@pytest.mark.parametrize("value", [2.5, F(5, 2), "3"])
def test_non_integral_degree_and_escape_level_are_rejected(value):
    with pytest.raises(ValueError, match="degree must be an integer"):
        _datum([1, 1, 1, 1, 2], value)
    with pytest.raises(ValueError, match="escape level m must be an integer"):
        ce.Flags(m=value)
