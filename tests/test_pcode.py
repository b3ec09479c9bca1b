"""Puncture-code construction and weight-presence searches."""

import math
import os
import random
from dataclasses import replace

import pytest

from qmds.budgets import DEFAULT_BUDGET, SearchBudget
from qmds.ccodes import build_code, mds_spec
from qmds.errors import (
    BadWeight,
    FieldMismatch,
    LengthMismatch,
    NotInPunctureCode,
    NotQuadraticTower,
    NotSelfOrthogonal,
    ZeroWord,
)
from qmds.gf import build_field, field_for_order
from qmds import kernels, pcode
from qmds.linalg import WordSearch, dual, linear_code
from qmds.pcode import (
    in_puncture_code,
    puncture_direct,
    puncture_spectral,
    rescale_self_orthogonal,
    respects_product_pairing,
    weight_present,
    weight_spectrum,
)

import oracles


def both_routes(q, d):
    spec = mds_spec(q * q, d)
    spectral = puncture_spectral(spec)
    direct = puncture_direct(dual(build_code(spec), "hermitian"))
    return spectral, direct


@pytest.mark.parametrize(
    "q,d", [(q, d) for q in (2, 3, 4) for d in range(2, q + 2)]
)
def test_routes_agree(q, d):
    spectral, direct = both_routes(q, d)
    assert spectral.base == direct.base
    assert spectral.source == "spectral"
    assert direct.source == "direct"
    assert spectral.spec is not None and spectral.spec.n == q * q + 1
    assert direct.spec is None


def test_describe_payload():
    spectral, direct = both_routes(2, 3)
    desc = spectral.describe()
    assert desc["q"] == 2 and desc["n"] == 5 and "spec" in desc
    assert "spec" not in direct.describe()


@pytest.mark.parametrize("d", [2, 3])
def test_direct_route_matches_definition(d):
    # GF(2)**5 is small enough to test membership word by word
    spec = mds_spec(4, d)
    c_small = dual(build_code(spec), "hermitian")
    pc = puncture_direct(c_small)
    got = {tuple(w) for w in oracles.all_codewords(pc.base)}
    assert got == oracles.brute_puncture_code(c_small)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_direct_route_definition_randomized(d):
    # two-sided spot check over GF(3)**10, where full enumeration is too slow
    rng = random.Random(d)
    f9 = field_for_order(9)
    spec = mds_spec(9, d)
    c_small = dual(build_code(spec), "hermitian")
    pc = puncture_direct(c_small)
    words = oracles.all_codewords(c_small)
    for _ in range(50):
        msg = [rng.randrange(3) for _ in range(pc.base.k)]
        x = [0] * 10
        for mi, row in zip(msg, pc.base.gen):
            for t, v in enumerate(row):
                x[t] = pc.base.field.add(x[t], pc.base.field.mul(mi, v))
        u = rng.choice(words)
        v = rng.choice(words)
        acc = 0
        for xt, ut, vt in zip(x, u, v):
            term = f9.mul(f9.mul(xt, oracles.conjugate(f9, ut)), vt)
            acc = f9.add(acc, term)
        assert acc == 0
    misses = 0
    while misses < 20:
        x = tuple(rng.randrange(3) for _ in range(10))
        if oracles.is_member(pc.base, x):
            continue
        misses += 1
        assert not respects_product_pairing(c_small, x)


def test_enumerated_counts_match_brute_spectrum():
    spectral, _ = both_routes(3, 3)
    results = weight_spectrum(spectral)
    counts = oracles.brute_spectrum(spectral.base)
    assert spectral.exact_counts == counts
    for res in results:
        if res.found:
            assert counts[res.weight] > 0
            assert in_puncture_code(spectral, res.witness)
            assert sum(1 for v in res.witness if v) == res.weight
        else:
            assert res.verdict == "ProvenAbsent"
            assert counts[res.weight] == 0


@pytest.mark.parametrize("q,d", [(3, 3), (4, 3), (4, 4)])
def test_enumeration_and_macwilliams_of_the_dual_agree(q, d):
    """Two exact routes to P(C)'s weight distribution: enumerating P(C),
    and enumerating its Euclidean dual followed by MacWilliams."""
    base = puncture_spectral(mds_spec(q * q, d)).base
    other = dual(base)
    direct, via_dual = WordSearch(base), WordSearch(other)
    direct.enumerate()
    via_dual.enumerate()
    assert direct.exact_counts == oracles.macwilliams_dual_spectrum(
        via_dual.exact_counts, q, base.n, other.k
    )


def check_default_spectrum(q, d, counts_of):
    """Every verdict of the default-budget spectrum of the spectral P(C)
    against its weight distribution A_w: ProvenAbsent exactly when A_w = 0,
    else a witness that is a word of P(C) of weight w.  counts_of counts
    the words of the smaller of P(C) and its Euclidean dual, and A_w is
    oracles.macwilliams_dual_spectrum of those counts when that is the
    dual."""
    pc = puncture_spectral(mds_spec(q * q, d))
    base = pc.base
    if base.k <= base.n - base.k:
        counts = counts_of(base)
    else:
        other = dual(base)
        counts = oracles.macwilliams_dual_spectrum(counts_of(other), q, base.n, other.k)
    for res in weight_spectrum(pc):
        if counts[res.weight]:
            assert res.verdict == "FoundWitness", (q, d, res.weight, res.verdict)
            assert sum(1 for v in res.witness if v) == res.weight
            assert oracles.is_member(base, res.witness)
        else:
            assert res.verdict == "ProvenAbsent", (q, d, res.weight, res.verdict)


@pytest.mark.parametrize("q,d", [(q, d) for q in (2, 3, 4) for d in range(2, q + 2)])
def test_default_spectrum_matches_macwilliams(q, d):
    check_default_spectrum(q, d, oracles.brute_spectrum)


def enumerated_counts(code):
    search = WordSearch(code)
    search.enumerate()
    return search.exact_counts


@pytest.mark.skipif(not os.environ.get("QMDS_HEAVY"), reason="set QMDS_HEAVY=1 for q = 5")
@pytest.mark.parametrize("d", range(2, 7))
def test_default_spectrum_matches_macwilliams_heavy(d):
    """q = 5: the smaller side, up to the [26, 9] dual of the (5, 4) P(C)
    and the [26, 10] P(C) of (5, 5), is counted by WordSearch.enumerate."""
    check_default_spectrum(5, d, enumerated_counts)


def test_weight_present_cache_and_bounds():
    spectral, _ = both_routes(2, 3)
    first = weight_present(spectral, 5)
    assert first.found
    again = weight_present(spectral, 5)
    assert again.effort.get("cache") is True
    for w in (1, 2, 3, 4):
        assert weight_present(spectral, w).verdict == "ProvenAbsent"
    with pytest.raises(BadWeight):
        weight_present(spectral, 0)
    with pytest.raises(BadWeight):
        weight_present(spectral, 6)
    with pytest.raises(BadWeight):
        weight_spectrum(spectral, [3, 99])


@pytest.mark.parametrize("route,budget,effort_key", [
    ("enumerate", SearchBudget(), "enumerated"),
    ("scan", SearchBudget(enum=0, support=10**12, samples=0), "supports_scanned"),
    ("sample", SearchBudget(enum=0, support=0, samples=2000), "samples"),
])
def test_weight_present_routes_match_brute_spectrum(route, budget, effort_key):
    # P(C) for q = 3, d = 3 is [10, 6] over GF(3): 729 words, brute-forced
    spectral, _ = both_routes(3, 3)
    counts = oracles.brute_spectrum(spectral.base)
    for w in range(1, 11):
        res = weight_present(spectral, w, budget)
        # later answers may come from the state the route filled
        assert effort_key in res.effort or (w > 1 and res.effort == {"cache": True})
        if counts[w]:
            assert res.verdict == "FoundWitness"
            assert sum(1 for v in res.witness if v) == w
            assert oracles.is_member(spectral.base, res.witness)
        else:
            # sampling only ever finds witnesses
            want = "UnknownWithinBudget" if route == "sample" else "ProvenAbsent"
            assert res.verdict == want


def test_raising_a_budget_keeps_every_decided_verdict():
    base = SearchBudget(enum=10, support=1000, samples=50, seed=7)
    # the (4, 3) P(C) = [17, 13] gates its widest levels, w = 8 and 9, at
    # C(17, 8) * 4**3: from that support on the level scans go first
    switch = math.comb(17, 8) * 4**3
    raised = [
        replace(base, enum=10**6),
        replace(base, support=10**12),
        replace(base, samples=10**5),
        replace(base, support=10**12, samples=10**5),
        replace(base, support=switch - 1),
        replace(base, support=switch),
    ]
    for q, d in [(3, 3), (2, 2), (4, 3)]:
        low = weight_spectrum(both_routes(q, d)[0], None, base)
        assert any(r.verdict != "UnknownWithinBudget" for r in low)
        for budget in raised:
            high = weight_spectrum(both_routes(q, d)[0], None, budget)
            for a, b in zip(low, high):
                if a.verdict != "UnknownWithinBudget":
                    assert b.verdict == a.verdict, (q, d, budget, a.weight)
    below, at = (weight_spectrum(both_routes(4, 3)[0], None, b) for b in raised[-2:])
    for a, b in zip(below, at):
        if a.verdict != "UnknownWithinBudget":
            assert b.verdict == a.verdict, a.weight


@pytest.mark.parametrize("q,d,samples", [(4, 3, 1000), (3, 3, 20), (4, 3, None), (5, 4, None)])
def test_presence_alone_matches_spectrum(q, d, samples):
    # the level scans decide what they can, the sampling pass hunts the
    # rest; samples=None asks at the default budget
    budget = DEFAULT_BUDGET if samples is None else SearchBudget(
        enum=10, support=10**9, samples=samples, seed=7)
    spec = mds_spec(q * q, d)
    together = weight_spectrum(puncture_spectral(spec), None, budget)
    assert {"cache", "supports_scanned"} <= {k for r in together for k in r.effort}
    for res in together:
        alone = weight_present(puncture_spectral(spec), res.weight, budget)
        assert (alone.verdict, alone.witness) == (res.verdict, res.witness), res.weight


def test_zero_code_has_no_weights():
    f4 = build_field(2, 2)
    full = linear_code(f4, [[1, 0], [0, 1]], 2)
    pc = puncture_direct(full)
    assert pc.base.k == 0
    assert weight_present(pc, 1).verdict == "ProvenAbsent"


def test_sampling_finds_high_weight_and_reports_unknown():
    # GF(4), d=3: the puncture code has 4**13 words, far past the
    # enumeration budget, so verdicts must come from sampling or scans
    spec = mds_spec(16, 3)
    pc = puncture_spectral(spec)
    tight = SearchBudget(enum=10, support=0, samples=2000, seed=7)
    top = weight_present(pc, pc.base.n, tight)
    assert top.found
    assert "samples" in top.effort
    low = weight_present(pc, 2, tight)
    assert low.verdict == "UnknownWithinBudget"


def test_sampling_pass_reruns_for_a_new_budget():
    # GF(25), d=4: k = 17 is past enumeration and support=1 closes the
    # scan gate, so weight 20 can only come from the sampling pass
    wide = SearchBudget(support=1, samples=200_000)
    narrow = SearchBudget(support=1, samples=1)
    fresh = puncture_spectral(mds_spec(25, 4))
    assert not fresh.sampled
    assert weight_present(fresh, 20, wide).verdict == "FoundWitness"
    assert fresh.sampled
    pc = puncture_spectral(mds_spec(25, 4))
    assert weight_present(pc, 20, narrow).verdict == "UnknownWithinBudget"
    assert pc.sampled
    again = weight_present(pc, 20, wide)
    assert again.verdict == "FoundWitness"
    assert again.witness == weight_present(fresh, 20, wide).witness


def test_level_scans_go_first_where_the_gate_admits_every_level(monkeypatch):
    """At the default budget the scan gate admits every level of the (4, 3)
    P(C) = [17, 13], so the level scans settle the code and the shared
    sampling pass (tag 0x77) draws nothing.  With support=0 it admits none,
    and the pass runs first, as it did before the scans could go first."""
    tags = []

    class Spy(kernels.PhiloxStream):
        def __init__(self, q, seed, tag):
            super().__init__(q, seed, tag)
            self.tag = tag

        def raw(self, cnt, k):
            tags.append(self.tag)
            return super().raw(cnt, k)

    monkeypatch.setattr(kernels, "PhiloxStream", Spy)
    spec = mds_spec(16, 3)
    scanned = weight_spectrum(puncture_spectral(spec))
    assert 0x77 not in tags
    assert all(r.verdict != "UnknownWithinBudget" for r in scanned)
    sampled = weight_spectrum(puncture_spectral(spec), None, replace(DEFAULT_BUDGET, support=0))
    assert 0x77 in tags
    assert any("samples" in r.effort for r in sampled)


@pytest.mark.parametrize("samples", [200, 500, 1000, 3000])
def test_route_order_does_not_depend_on_earlier_budgets(samples):
    """decide's route order depends on the code and the budget alone.  On
    the (4, 3) P(C) = [17, 13], support C(17, 8) * 4**3 - 1 refuses the
    middle levels 8 and 9 and admits every other one, so the pass goes
    first.  A search whose pass at an earlier budget may have found those
    levels must still answer every level it left open as a fresh search
    does."""
    spec = mds_spec(16, 3)
    early = SearchBudget(enum=10, support=0, samples=samples, seed=7)
    later = SearchBudget(enum=10, support=math.comb(17, 8) * 4**3 - 1, samples=10**5, seed=7)
    pc = puncture_spectral(spec)
    left = [r.weight for r in weight_spectrum(pc, None, early)
            if r.verdict == "UnknownWithinBudget"]
    assert left
    fresh = weight_spectrum(puncture_spectral(spec), None, later)
    for w in left:
        res = weight_present(pc, w, later)
        assert (res.verdict, res.witness) == (fresh[w - 1].verdict, fresh[w - 1].witness), w


def test_spectrum_after_lowest_keeps_every_verdict():
    # lowest samples under its own tag; the spectrum's pass must still run
    budget = SearchBudget(enum=1, support=0, samples=300, seed=7)
    fresh = weight_spectrum(puncture_spectral(mds_spec(16, 3)), None, budget)
    assert any(r.found for r in fresh)
    pc = puncture_spectral(mds_spec(16, 3))
    pc.lowest(budget)
    after = weight_spectrum(pc, None, budget)
    for a, b in zip(fresh, after):
        if a.verdict != "UnknownWithinBudget":
            assert b.verdict == a.verdict, a.weight
        if b.found:
            assert in_puncture_code(pc, b.witness)


def test_scan_settles_low_weights_exactly():
    spec = mds_spec(16, 3)
    pc = puncture_spectral(spec)
    no_enum = SearchBudget(enum=10, support=10**9, samples=1000, seed=7)
    res = weight_present(pc, 2, no_enum)
    assert res.verdict == "ProvenAbsent"
    assert res.effort.get("supports_scanned", 0) > 0


def test_pairing_validates_input():
    spec = mds_spec(9, 3)
    c_small = dual(build_code(spec), "hermitian")
    with pytest.raises(LengthMismatch):
        respects_product_pairing(c_small, (0, 1))
    with pytest.raises(FieldMismatch):
        respects_product_pairing(c_small, (8,) * 10)
    with pytest.raises(LengthMismatch):
        in_puncture_code(puncture_spectral(spec), (1, 0))


def test_rescale_produces_hermitian_self_orthogonal():
    spec = mds_spec(9, 3)
    c_small = dual(build_code(spec), "hermitian")
    pc = puncture_spectral(spec)
    res = weight_present(pc, 10)
    assert res.found
    d_code = rescale_self_orthogonal(c_small, res.witness)
    assert d_code.n == 10 and d_code.k == c_small.k
    assert oracles.hermitian_gram_is_zero(d_code)


def test_rescale_partial_support():
    # weight-4 puncture words give a length-4 self-orthogonal restriction
    spec = mds_spec(9, 3)
    c_small = dual(build_code(spec), "hermitian")
    pc = puncture_spectral(spec)
    res = weight_present(pc, 4)
    assert res.found
    d_code = rescale_self_orthogonal(c_small, res.witness)
    assert d_code.n == 4 and d_code.k == c_small.k
    assert oracles.hermitian_gram_is_zero(d_code)


def test_rescale_checks_self_orthogonality_itself(monkeypatch):
    # with the pairing test waved through, a word outside P(C) gives a
    # rescaled code that is not self-orthogonal, and the Gram check says so
    spec = mds_spec(9, 3)
    c_small = dual(build_code(spec), "hermitian")
    bad = (1,) + (0,) * 9
    assert not in_puncture_code(puncture_spectral(spec), bad)
    monkeypatch.setattr(pcode, "respects_product_pairing", lambda code, x: True)
    with pytest.raises(NotSelfOrthogonal):
        rescale_self_orthogonal(c_small, bad)


def test_rescale_rejects_bad_words():
    spec = mds_spec(9, 3)
    c_small = dual(build_code(spec), "hermitian")
    with pytest.raises(ZeroWord):
        rescale_self_orthogonal(c_small, (0,) * 10)
    bad = (1,) + (0,) * 9
    if not respects_product_pairing(c_small, bad):
        with pytest.raises(NotInPunctureCode):
            rescale_self_orthogonal(c_small, bad)
    f2 = build_field(2, 1)
    with pytest.raises(NotQuadraticTower):
        rescale_self_orthogonal(linear_code(f2, [[1]], 1), (1,))
