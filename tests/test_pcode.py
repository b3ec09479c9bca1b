"""Puncture-code construction and weight-presence searches."""

import random

import pytest

from qmds.budgets import SearchBudget
from qmds.ccodes import build_code, mds_spec
from qmds.errors import (
    BadWeight,
    FieldMismatch,
    LengthMismatch,
    NotInPunctureCode,
    NotQuadraticTower,
    ZeroWord,
)
from qmds.gf import build_field, field_for_order
from qmds.linalg import dual, linear_code
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
