"""Acceptance gate: ten end-to-end criteria, one visible verdict line each.

Each test carries a ``criterion`` mark; the conftest hook turns the test
outcome into an ``acceptance NN PASS|FAIL`` line on the terminal, outside
pytest capture.  The criteria exercise the package through its public API
and the installed command line, never through private hooks.
"""

import json
import math
import random
import subprocess
import sys

import pytest

from qmds.budgets import DEFAULT_BUDGET, SearchBudget
from qmds.ccodes import build_code, mds_spec
from qmds.gf import build_field, embed, field_for_order, norm, norm_preimage
from qmds.kernels import scan_level
from qmds.linalg import dual, linear_code, mds_verify, puncture, shorten
from qmds.pcode import (
    puncture_direct,
    puncture_spectral,
    rescale_self_orthogonal,
)
from qmds.qstab import (
    char2_q2plus2,
    conjecture_pc_params,
    conjecture_report,
    literature_records,
    qmds_check,
    run_pipeline,
    shorten_params,
)

import oracles


def criterion(number, title):
    return pytest.mark.criterion(number, title)


def record_by_n(scan, n):
    for rec in scan.records:
        if rec.n == n:
            return rec
    return None


@criterion(1, "MDS constructions verified exactly on every supported alphabet")
def test_c01_mds_constructions_verified():
    for Q in (4, 5, 7, 8, 9, 11, 13, 16):
        n = Q + 1
        for d in range(2, Q + 2):
            if min(math.comb(n, d - 1), math.comb(n, Q + 2 - d)) > 10**7:
                continue
            code = build_code(mds_spec(Q, d))
            assert code.n == n and code.k == Q + 2 - d
            assert mds_verify(code) is True


@criterion(2, "both puncture-code routes build the same code")
def test_c02_puncture_routes_coincide():
    for q in (2, 3, 4, 5):
        for d in range(2, q + 2):
            spec = mds_spec(q * q, d)
            spectral = puncture_spectral(spec)
            direct = puncture_direct(dual(build_code(spec), "hermitian"))
            assert spectral.base == direct.base, (q, d)


@criterion(3, "binary records checked against exhaustive enumeration")
def test_c03_binary_records_enumerated():
    scan = run_pipeline(2, 3)
    rec = record_by_n(scan, 5)
    assert rec is not None and rec.key == (2, 5, 1, 3)
    assert rec.pure == "yes" and rec.d_exact and qmds_check(rec)
    c_small = dual(build_code(scan.spec), "hermitian")
    d_code = rescale_self_orthogonal(c_small, scan.witnesses[5])
    dstar = dual(d_code, "hermitian")
    assert oracles.brute_min_weight(dstar) == 3
    assert oracles.brute_min_weight_relative(dstar, d_code) == 3

    params, _, d6, _ = char2_q2plus2(1)
    assert params.key == (2, 6, 0, 4) and params.d_exact
    d6star = dual(d6, "hermitian")
    assert d6star == d6
    assert oracles.brute_min_weight(d6star) == 4


@criterion(4, "ternary records verified exactly, two more derived by shortening")
def test_c04_ternary_records():
    scan3 = run_pipeline(3, 3)
    assert sorted(r.n for r in scan3.records) == list(range(4, 11))
    for rec in scan3.records:
        assert rec.key == (3, rec.n, rec.n - 4, 3)
        assert rec.d_exact and qmds_check(rec)
        if rec.k:
            assert "relative-search" in rec.provenance
        else:
            assert "zero-logical-convention" in rec.provenance
        assert rec.pure != "unknown"

    scan4 = run_pipeline(3, 4)
    assert [r.key for r in scan4.records] == [(3, 10, 4, 4)]
    ten = scan4.records[0]
    assert ten.d_exact and ten.pure == "yes"
    assert "relative-search" in ten.provenance
    by_w = scan4.presence_by_weight()
    for w in range(6, 10):
        assert by_w[w].verdict == "ProvenAbsent"

    base = literature_records(3).get((3, 10, 0, 6))
    assert base is not None
    nine = shorten_params(base, 1)
    eight = shorten_params(base, 2)
    assert (nine.n, nine.k, nine.d) == (9, 1, 5)
    assert (eight.n, eight.k, eight.d) == (8, 2, 4)
    assert qmds_check(nine) and qmds_check(eight)


@criterion(5, "quaternary families verified, purity argued where enumeration is out of reach")
def test_c05_quaternary_families():
    scan3 = run_pipeline(4, 3)
    assert sorted(r.n for r in scan3.records) == list(range(4, 18))
    for rec in scan3.records:
        assert rec.key == (4, rec.n, rec.n - 4, 3) and rec.d_exact

    scan4 = run_pipeline(4, 4)
    by_w = scan4.presence_by_weight()
    for w in range(7, 18, 2):
        assert by_w[w].verdict == "ProvenAbsent", w
    assert by_w[6].verdict == "ProvenAbsent"
    assert sorted(r.n for r in scan4.records) == list(range(8, 17, 2))
    for rec in scan4.records:
        assert rec.key == (4, rec.n, rec.n - 6, 4) and rec.d_exact

    family18, _, _, _ = char2_q2plus2(2)
    assert family18.key == (4, 18, 12, 4) and family18.d_exact

    scan5 = run_pipeline(4, 5)
    assert [r.key for r in scan5.records] == [(4, 17, 9, 5)]
    seventeen = scan5.records[0]
    assert seventeen.d_exact and seventeen.pure == "yes"
    by_w5 = scan5.presence_by_weight()
    for w in range(8, 17):
        assert by_w5[w].verdict == "ProvenAbsent", w

    # where 16**dim rules out plain enumeration the records still carry an
    # exactness argument: a relative search or the Singleton squeeze
    squeezed = [r for r in scan4.records + scan5.records
                if "singleton-squeeze" in r.provenance]
    assert seventeen in squeezed
    for rec in squeezed:
        assert rec.pure == "yes" and rec.d_exact


@criterion(6, "quinary families verified, weight 7 settled by a complete support scan")
def test_c06_quinary_families():
    scan5 = run_pipeline(5, 5)
    lens5 = sorted(r.n for r in scan5.records)
    assert lens5 == list(range(12, 27))
    for rec in scan5.records:
        assert rec.key == (5, rec.n, rec.n - 8, 5) and rec.d_exact

    scan6 = run_pipeline(5, 6)
    assert record_by_n(scan6, 26).key == (5, 26, 16, 6)
    assert record_by_n(scan6, 26).d_exact

    scan4 = run_pipeline(5, 4)
    lens4 = {r.n for r in scan4.records}
    assert {6} | set(range(8, 19)) <= lens4
    for rec in scan4.records:
        assert rec.key == (5, rec.n, rec.n - 6, 4) and rec.d_exact
    seven = scan4.presence_by_weight()[7]
    assert seven.verdict == "ProvenAbsent"
    assert seven.effort.get("supports_scanned") == math.comb(26, 7)


@criterion(7, "length q*q+2 distance-4 records verified by column-rank scans")
def test_c07_char2_families():
    for m, key in ((2, (4, 18, 12, 4)), (3, (8, 66, 60, 4))):
        params, witness, d_code, _ = char2_q2plus2(m)
        assert params.key == key and params.d_exact
        assert len(witness) == params.n and all(witness)
        dstar = dual(d_code, "hermitian")
        for w in (1, 2, 3):
            out = scan_level(d_code.field, dstar.parity_matrix, w, DEFAULT_BUDGET.seed)
            assert out.witness is None and out.completed and out.exhaustive


@criterion(8, "puncture-code parameters match the closed-form predictions")
def test_c08_conjecture_reports():
    rows = conjecture_report([2, 3, 4])
    assert len(rows) == 2 + 3 + 4
    for row in rows:
        assert row["verdict"] == "confirmed", row
        assert "dprime" in row, row
        dim_pred, dp_pred = conjecture_pc_params(row["q"], row["d"])
        assert row["dim"] == dim_pred and row["dprime"] == dp_pred

    # starved budgets must downgrade rows to undecided, never to a crash
    starved = conjecture_report(
        [4], SearchBudget(enum=10, support=0, samples=50, seed=1)
    )
    assert any(r["verdict"] == "undecided" for r in starved)
    for row in starved:
        assert row["verdict"] in ("confirmed", "undecided")
        if row["verdict"] == "undecided":
            assert "dprime_floor" in row and "dprime" not in row


@criterion(9, "randomized property suites, one thousand cases each")
def test_c09_randomized_property_suites():
    cases = 1000

    rng = random.Random(901)
    fields = [build_field(2, 1), build_field(3, 1), build_field(2, 2),
              build_field(5, 1), build_field(2, 3), build_field(3, 2),
              build_field(2, 4), build_field(5, 2)]
    for _ in range(cases):
        f = rng.choice(fields)
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1

    rng = random.Random(902)
    small_fields = [build_field(2, 1), build_field(3, 1)]
    tower_fields = [build_field(2, 2), build_field(3, 2)]
    for _ in range(cases):
        hermitian = rng.random() < 0.5
        f = rng.choice(tower_fields if hermitian else small_fields + tower_fields)
        n = rng.randrange(3, 8)
        rows = [[rng.randrange(f.q) for _ in range(n)]
                for _ in range(rng.randrange(1, 4))]
        code = linear_code(f, rows, n)
        kind = "hermitian" if hermitian else "euclidean"
        back = dual(dual(code, kind), kind)
        assert back == code

    rng = random.Random(903)
    for _ in range(cases):
        f = rng.choice(small_fields + tower_fields)
        n = rng.randrange(4, 8)
        rows = [[rng.randrange(f.q) for _ in range(n)]
                for _ in range(rng.randrange(1, 4))]
        code = linear_code(f, rows, n)
        take = rng.randrange(1, n - 1)
        coords = rng.sample(range(n), take)
        assert dual(shorten(code, coords)) == puncture(dual(code), coords)

    rng = random.Random(904)
    towers = [(build_field(2, 1), build_field(2, 2)),
              (build_field(3, 1), build_field(3, 2)),
              (build_field(2, 2), build_field(2, 4)),
              (build_field(5, 1), build_field(5, 2))]
    for _ in range(cases):
        small, big = rng.choice(towers)
        emb = embed(small, big)
        target = emb.map(rng.randrange(1, small.q))
        y = norm_preimage(big, target)
        assert norm(big, y) == target

    rng = random.Random(905)
    pool = []
    for q, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
        scan = run_pipeline(q, d)
        c_small = dual(build_code(scan.spec), "hermitian")
        pool.append((scan.pcode.base, c_small))
    done = 0
    while done < cases:
        pc_base, c_small = rng.choice(pool)
        f = pc_base.field
        word = [0] * pc_base.n
        for row in pc_base.gen:
            s = rng.randrange(f.q)
            if s:
                word = [f.add(w, f.mul(s, v)) for w, v in zip(word, row)]
        if not any(word):
            continue
        d_code = rescale_self_orthogonal(c_small, tuple(word))
        assert oracles.hermitian_gram_is_zero(d_code)
        done += 1

    rng = random.Random(906)
    records = list(literature_records().values())
    assert records
    for _ in range(cases):
        rec = rng.choice(records)
        assert qmds_check(rec)
        child = shorten_params(rec, rng.randrange(rec.d))
        assert qmds_check(child)
        assert child.n + 2 == child.k + 2 * child.d


@criterion(10, "stored-table comparison and figure data are byte-identical across runs")
def test_c10_deterministic_reruns():
    def run_twice(*argv):
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "qmds", *argv],
                capture_output=True, timeout=1800,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        return outs[0]

    table = run_twice("reproduce", "6B")
    assert table.decode().strip().splitlines()[-1] == "result ok"
    grid = run_twice("figdata", "5")
    assert grid.decode().startswith("q,d,n,status")
