"""Stabilizer parameter derivation, families, conjecture reports, registry."""

import math
import tracemalloc

import pytest

from qmds import qstab
from qmds.budgets import DEFAULT_BUDGET, SearchBudget
from qmds.errors import (
    BadCoordinate,
    BadDistance,
    BadS,
    DistanceOne,
    NotKnown,
    NotPure,
    NotSelfOrthogonal,
    UnsupportedAlphabet,
)
from qmds.gf import build_field
from qmds.linalg import WordSearch, dual, linear_code, min_weight
from qmds.qstab import (
    QuantumCodeParams,
    char2_q2plus2,
    conjecture_pc_params,
    conjecture_report,
    distance4_char2_report,
    family_distance2,
    family_q2plus1,
    figdata,
    literature_records,
    puncture_stabilizer,
    qmds_check,
    run_pipeline,
    shorten_params,
    stabilizer_from_self_orthogonal,
)

import oracles


def rec(q, n, k, d, pure="yes", exact=True, prov=()):
    return QuantumCodeParams(q, n, k, d, pure, exact, tuple(prov))


def test_qmds_check_and_label():
    assert qmds_check(rec(2, 5, 1, 3))
    assert not qmds_check(rec(2, 5, 1, 2))
    assert rec(3, 10, 4, 4).label() == "[[10,4,4]]_3"
    assert rec(3, 10, 4, 4).key == (3, 10, 4, 4)


def test_stabilizer_empty_code():
    f4 = build_field(2, 2)
    empty = linear_code(f4, [], 3)
    params = stabilizer_from_self_orthogonal(empty)
    assert (params.q, params.n, params.k, params.d) == (2, 3, 3, 1)
    assert "empty-stabilizer" in params.provenance


def test_stabilizer_rejects_non_orthogonal():
    f4 = build_field(2, 2)
    bad = linear_code(f4, [[1, 0]], 2)
    with pytest.raises(NotSelfOrthogonal):
        stabilizer_from_self_orthogonal(bad)


def test_pipeline_five_one_three():
    scan = run_pipeline(2, 3)
    by_n = {r.n: r for r in scan.records}
    assert set(by_n) == {5}
    p = by_n[5]
    assert (p.q, p.n, p.k, p.d) == (2, 5, 1, 3)
    assert p.pure == "yes" and p.d_exact
    assert qmds_check(p)
    assert "relative-search" in p.provenance


def test_pipeline_distance_matches_brute_force():
    from qmds.ccodes import build_code, mds_spec
    from qmds.pcode import rescale_self_orthogonal

    scan = family_q2plus1(2, 3)
    witness = scan.witnesses[5]
    c_small = dual(build_code(mds_spec(4, 3)), "hermitian")
    d_code = rescale_self_orthogonal(c_small, witness)
    dstar = dual(d_code, "hermitian")
    assert oracles.brute_min_weight(dstar) == 3
    assert oracles.brute_min_weight_relative(dstar, d_code) == 3


def test_pipeline_full_weight_guarantee_flag():
    assert run_pipeline(2, 3).guaranteed_full_weight
    assert run_pipeline(3, 2).guaranteed_full_weight
    assert not run_pipeline(2, 2).guaranteed_full_weight


# 4**8 still enumerates P(C) of (4, 4), 21,845 classes, but not every
# relative search that the default budget enumerates
@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, SearchBudget(enum=4**8)],
                         ids=["default", "small-enum"])
def test_relative_search_runs_exactly_when_the_settle_rule_asks(monkeypatch, budget):
    """Over the 6B and 6C pipeline records, their D codes again with no
    inherited floor, and one D whose D* has distance 1,
    stabilizer_from_self_orthogonal runs the relative lowest exactly when
    D is over an alphabet q <= 3, the relative enumeration fits
    budget.enum, or the floor on d(D*) is below the Singleton cap."""
    relative = []
    lowest = WordSearch.lowest

    def counted(self, budget):
        if self.sub is not None:
            relative.append(self)
        return lowest(self, budget)

    monkeypatch.setattr(WordSearch, "lowest", counted)
    stab = qstab.stabilizer_from_self_orthogonal
    calls = []

    def watched(d_code, budget, *, d_floor=1, provenance=()):
        before = len(relative)
        out = stab(d_code, budget, d_floor=d_floor, provenance=provenance)
        calls.append((d_code, d_floor, len(relative) - before))
        return out

    monkeypatch.setattr(qstab, "stabilizer_from_self_orthogonal", watched)
    for q, d in ((3, 3), (3, 4), (4, 3), (4, 4), (4, 5)):
        run_pipeline(q, d, budget)
    for d_code, *_ in list(calls):
        watched(d_code, budget)
    # D* = {x : x0 = x1} holds weight-1 words: a floor below the cap of 2;
    # over GF(16), q = 4, that floor alone asks for the relative search
    for m in (2, 4):
        watched(linear_code(build_field(2, m), [[1, 1] + [0] * 10]), budget)
    reasons = set()
    for d_code, d_floor, ran in calls:
        kt, n, Q = d_code.k, d_code.n, d_code.field.q
        small = math.isqrt(Q) <= 3
        if n == 2 * kt:  # no logical qudit: D* alone, no relative search
            assert ran == 0
            continue
        cap = kt + 1
        dstar = dual(d_code, "hermitian")
        floor = d_floor if d_floor >= cap else max(d_floor, min_weight(dstar, budget).floor)
        fits = Q**kt * (Q ** (dstar.k - kt) - 1) // (Q - 1) <= budget.enum
        assert ran == int(small or fits or floor < cap), (d_code, d_floor, small)
        reasons.add((small, fits, floor < cap))
    assert {(False, False, False), (False, False, True)} <= reasons
    assert any(small for small, _, _ in reasons) and (False, True, False) in reasons


def test_shorten_params_chain():
    base = literature_records(3).get((3, 10, 0, 6))
    assert base is not None
    nine = shorten_params(base, 1)
    assert (nine.n, nine.k, nine.d) == (9, 1, 5)
    eight = shorten_params(base, 2)
    assert (eight.n, eight.k, eight.d) == (8, 2, 4)
    assert shorten_params(base, 0) is base
    assert qmds_check(nine) and qmds_check(eight)
    assert any(t.startswith("shorten") for t in nine.provenance)


def test_shorten_params_guards():
    base = rec(3, 10, 0, 6)
    with pytest.raises(BadS):
        shorten_params(base, 6)
    with pytest.raises(BadS):
        shorten_params(base, -1)
    with pytest.raises(NotPure):
        shorten_params(rec(3, 10, 0, 6, pure="unknown"), 1)
    with pytest.raises(BadS):
        shorten_params(rec(3, 9, 0, 6), 1)


def test_puncture_stabilizer_derives_five_qubit_code():
    _, _, d_code, _ = char2_q2plus2(1)
    shorter = puncture_stabilizer(d_code, 0)
    assert shorter.n == 5
    params = stabilizer_from_self_orthogonal(shorter)
    assert (params.q, params.n, params.k, params.d) == (2, 5, 1, 3)
    with pytest.raises(BadCoordinate):
        puncture_stabilizer(d_code, 6)


def test_puncture_stabilizer_distance_one():
    f4 = build_field(2, 2)
    d_code = linear_code(f4, [[1, 1, 0]], 3)
    with pytest.raises(DistanceOne):
        puncture_stabilizer(d_code, 0)


def test_family_distance2_prime_power():
    params, x = family_distance2(3, 5)
    assert (params.q, params.n, params.k, params.d) == (3, 5, 3, 2)
    assert params.pure == "yes" and params.d_exact
    assert x is not None and len(x) == 5 and all(x)
    params, x = family_distance2(2, 6)
    assert (params.n, params.k, params.d) == (6, 4, 2)
    assert x == (1,) * 6


def test_family_distance2_composite():
    params, x = family_distance2(6, 4)
    assert (params.q, params.n, params.k, params.d) == (6, 4, 2, 2)
    assert x is None and "product-of-parts" in params.provenance
    params, _ = family_distance2(12, 7)
    assert (params.q, params.n) == (12, 7)
    params, _ = family_distance2(15, 7)
    assert (params.q, params.n) == (15, 7)


def test_family_distance2_gaps():
    with pytest.raises(NotKnown):
        family_distance2(2, 5)
    with pytest.raises(NotKnown):
        family_distance2(6, 5)
    with pytest.raises(UnsupportedAlphabet):
        family_distance2(1, 4)
    with pytest.raises(BadDistance):
        family_distance2(3, 1)


@pytest.mark.parametrize("m,n,k", [(1, 6, 0), (2, 18, 12)])
def test_char2_family(m, n, k):
    params, x, d_code, pc = char2_q2plus2(m)
    assert (params.n, params.k, params.d) == (n, k, 4)
    assert params.d_exact and params.pure == "yes"
    assert len(x) == n and all(x)
    assert oracles.hermitian_gram_is_zero(d_code)
    assert pc.found[n] == x
    with pytest.raises(UnsupportedAlphabet):
        char2_q2plus2(5)


def test_six_zero_four_distance_by_enumeration():
    params, _, d_code, _ = char2_q2plus2(1)
    dstar = dual(d_code, "hermitian")
    assert dstar == d_code
    assert oracles.brute_min_weight(dstar) == 4
    assert (params.k, params.d) == (0, 4)
    assert "zero-logical-convention" in params.provenance


def test_conjecture_pc_params_formula():
    assert conjecture_pc_params(2, 2) == (4, 2)
    assert conjecture_pc_params(3, 3) == (6, 4)
    assert conjecture_pc_params(3, 4) == (1, 10)
    assert conjecture_pc_params(4, 4) == (8, 8)
    assert conjecture_pc_params(5, 4) == (17, 6)
    with pytest.raises(BadDistance):
        conjecture_pc_params(3, 1)
    with pytest.raises(BadDistance):
        conjecture_pc_params(3, 5)


def test_conjecture_report_small_fields():
    rows = conjecture_report([2, 3])
    assert len(rows) == 2 + 3
    for row in rows:
        assert row["verdict"] == "confirmed"
        assert row["dim"] == row["dim_predicted"]
        assert row["dprime"] == row["dprime_predicted"]
    assert conjecture_report([6]) == []


def test_distance4_report_shape():
    rows = distance4_char2_report([1, 2])
    assert rows[0]["q"] == 2 and rows[0]["status"] == "scanned"
    assert rows[0]["weights"][6] == "FoundWitness"
    assert rows[1] == {"q": 4, "status": "excluded-from-claim"}


def test_registry_literature_filter():
    records = literature_records(5)
    assert {r.q for r in records.values()} == {5}
    assert records[(5, 10, 0, 6)].key == (5, 10, 0, 6)
    # every record under its own key, the keys ascending
    everything = literature_records()
    assert all(key == r.key for key, r in everything.items())
    assert list(everything) == sorted(everything)
    assert records == {key: r for key, r in everything.items() if key[0] == 5}


def test_figdata_grid_small():
    cells = {(d, n): status for _, d, n, status in figdata(2)}
    assert cells[(2, 4)] == "verified"
    assert cells[(2, 5)] == "unknown"
    assert cells[(3, 5)] == "verified"
    assert cells[(3, 4)] == "absent"
    assert cells[(4, 6)] == "verified"


def test_figdata_settles_each_code_as_the_pipeline_does():
    """figdata searches at the budget it is given: [[8,2,4]]_5 is verified
    and w = 11 is proven absent for d = 5, as run_pipeline finds them at the
    default budget; every exact pipeline record is a verified cell."""
    cells = {(d, n): status for _, d, n, status in figdata(5)}
    assert cells[(4, 8)] == "verified" and cells[(5, 11)] == "absent"
    four, five = run_pipeline(5, 4), run_pipeline(5, 5)
    assert any(rec.n == 8 and rec.d_exact for rec in four.records)
    assert five.presence_by_weight()[11].verdict == "ProvenAbsent"
    for d, scan in ((4, four), (5, five)):
        for rec in scan.records:
            assert not rec.d_exact or cells[(d, rec.n)] == "verified", rec


def test_figdata_out_of_range_alphabet():
    rows = list(figdata(9))
    assert rows and all(status == "unknown" for _, _, _, status in rows)
    assert {d for _, d, _, _ in rows} == set(range(2, 11))


def test_figdata_streams_out_of_range_grids():
    # figdata 61 has 223,382 rows; read one at a time they stay in a few MB
    tracemalloc.start()
    try:
        rows = 0
        for _ in figdata(61):
            rows += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == sum(61 * 61 + 2 - (2 * d - 2) + 1 for d in range(2, 63)) == 223_382
    assert peak < 2 * 2**20
