"""Exact numpy kernels: rref, ranks, enumeration, sampling, support scans."""

import itertools
import random

import numpy as np
import pytest

from qmds.budgets import SAMPLE_CHUNK, SUBSCAN_EXACT_CAP
from qmds.gf import build_field
from qmds.kernels import (
    _elimination_prime,
    batch_rank,
    gf_matmul,
    iter_projective_words,
    iter_sampled_words,
    level_gate,
    np_matrix,
    null_space,
    philox,
    probe_support,
    projective_count,
    rref,
    scan_level,
)
from qmds.linalg import linear_code

import oracles

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F5 = build_field(5, 1)
F7 = build_field(7, 1)
F9 = build_field(3, 2)
F11 = build_field(11, 1)
F13 = build_field(13, 1)


def rand_mat(rng, f, rows, cols):
    return [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)]


def scalar_encode(f, msg, gen):
    """sum_j msg[j] * gen[j], one field operation at a time."""
    word = [0] * len(gen[0])
    for coef, row in zip(msg, gen):
        word = [f.add(x, f.mul(int(coef), y)) for x, y in zip(word, row)]
    return tuple(word)


def base_q_digits(value, ndigits, q):
    return [(value // q**j) % q for j in range(ndigits - 1, -1, -1)]


# GF(2), GF(3), GF(5), GF(7) take the integer matmul mod p, GF(4), GF(9) the table loop
@pytest.mark.parametrize("f", [F3, F4, F9, F2, F5, F7])
def test_gf_matmul_matches_scalar_product(f):
    rng = random.Random(f.q)
    for _ in range(20):
        a = rand_mat(rng, f, 3, 4)
        b = rand_mat(rng, f, 4, 5)
        got = gf_matmul(f, np_matrix(f, a, 4), np_matrix(f, b, 5))
        assert got.dtype == np.uint8
        for i in range(3):
            for j in range(5):
                acc = 0
                for t in range(4):
                    acc = f.add(acc, f.mul(a[i][t], b[t][j]))
                assert int(got[i, j]) == acc


@pytest.mark.parametrize("f", [F3, F4, F9])
def test_rref_shape_and_row_space(f):
    rng = random.Random(10 + f.q)
    for _ in range(25):
        rows = rand_mat(rng, f, 4, 6)
        red, pivots = rref(f, rows)
        assert len(red) == len(pivots) == oracles._rank(f, rows)
        assert pivots == sorted(pivots)
        for i, (row, pc) in enumerate(zip(red, pivots)):
            assert row[pc] == 1
            assert all(x == 0 for x in row[:pc])
            for other in range(len(red)):
                if other != i:
                    assert red[other][pc] == 0
        # same row space: adjoining either set to the other adds no rank
        r = len(red)
        assert oracles._rank(f, rows + red) == r
        assert oracles._rank(f, red + rows) == r


@pytest.mark.parametrize("f", [F3, F4, F9])
def test_null_space_annihilates_and_fills(f):
    rng = random.Random(20 + f.q)
    for _ in range(25):
        rows = rand_mat(rng, f, 3, 7)
        basis = null_space(f, rows, 7)
        assert len(basis) == 7 - oracles._rank(f, rows)
        for v in basis:
            for row in rows:
                acc = 0
                for a, b in zip(row, v):
                    acc = f.add(acc, f.mul(a, b))
                assert acc == 0
        assert oracles._rank(f, basis) == len(basis)
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert null_space(f, eye, 4) == []


def rank_deficient_mat(rng, f, rows, cols, rank):
    """A rows x cols matrix of rank at most `rank`: a product through rank."""
    left = rand_mat(rng, f, rows, rank)
    right = rand_mat(rng, f, rank, cols)
    return [list(scalar_encode(f, row, right)) for row in left]


# GF(11) and GF(13) are past the uint8 bound of the mod-p elimination and
# must take the table path to come out right
@pytest.mark.parametrize("f", [F3, F4, F9, F2, F5, F7, F11, F13])
def test_batch_rank_matches_per_matrix_rank(f):
    rng = random.Random(30 + f.q)
    for r, w in [(4, 5), (6, 3), (3, 7)]:
        mats = [rand_mat(rng, f, r, w) for _ in range(60)]
        mats += [rank_deficient_mat(rng, f, r, w, rng.randrange(1, min(r, w)))
                 for _ in range(60)]
        mats.append([[0] * w for _ in range(r)])
        rng.shuffle(mats)
        got = batch_rank(f, np.array(mats, dtype=np.uint8))
        want = [len(rref(f, m)[0]) for m in mats]
        assert list(got) == want
        assert want == [oracles._rank(f, m) for m in mats]
        assert min(want) < min(r, w)


def test_mod_p_elimination_guard():
    assert [_elimination_prime(f) for f in (F2, F3, F5, F7)] == [2, 3, 5, 7]
    for f in (F11, F13, F4, F9):
        assert _elimination_prime(f) == 0


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (4, 3), (9, 2)])
def test_projective_iteration_covers_every_class_once(q, k):
    f = build_field(2, 2) if q == 4 else build_field(3, 2) if q == 9 else build_field(q, 1)
    rng = random.Random(q * 10 + k)
    n = k + 2
    code = None
    while code is None or code.k != k:
        code = linear_code(f, rand_mat(rng, f, k, n), n)
    seen = []
    for chunk in iter_projective_words(f, code.gen, chunk=5):
        seen.extend(tuple(int(x) for x in w) for w in chunk)
    assert len(seen) == len(set(seen)) == projective_count(q, k)
    scaled = {tuple(0 for _ in range(n))}
    for w in seen:
        for s in range(1, q):
            scaled.add(tuple(f.mul(s, x) for x in w))
    assert scaled == {tuple(w) for w in oracles.all_codewords(code)}


@pytest.mark.parametrize("f", [F2, F3, F5, F7, F4, F9])
@pytest.mark.parametrize("leads", [None, 1, 2])
def test_projective_words_follow_scalar_encode_order(f, leads):
    rng = random.Random(50 + f.q)
    k, n = 4 if f.q <= 4 else 3, 6
    gen = rand_mat(rng, f, k, n)
    want = []
    for lead in range(k if leads is None else leads):
        tail = k - lead - 1
        for counter in range(f.q**tail):
            msg = [0] * lead + [1] + base_q_digits(counter, tail, f.q)
            want.append(scalar_encode(f, msg, gen))
    for chunk in (7, 4096):
        got = [tuple(int(x) for x in w)
               for words in iter_projective_words(f, gen, chunk=chunk, leads=leads)
               for w in words]
        assert got == want


@pytest.mark.parametrize("f", [F2, F5, F7, F4, F9])
def test_sampled_words_follow_philox_draws_and_scalar_encode(f):
    rng = random.Random(60 + f.q)
    k, n = 3, 5
    gen = rand_mat(rng, f, k, n)
    count = SAMPLE_CHUNK + 37
    draws = philox(11, 0x42)
    seen = 0
    for msgs, words in iter_sampled_words(f, gen, count, seed=11, tag=0x42):
        cnt = min(SAMPLE_CHUNK, count - seen)
        expect = draws.integers(0, f.q, size=(cnt, k), dtype=np.uint8)
        assert (msgs == expect).all()
        for msg, word in zip(msgs, words):
            assert tuple(int(x) for x in word) == scalar_encode(f, msg, gen)
        seen += cnt
    assert seen == count


def test_philox_streams_are_keyed():
    a = philox(123, 7).integers(0, 256, size=32)
    b = philox(123, 7).integers(0, 256, size=32)
    c = philox(123, 8).integers(0, 256, size=32)
    d = philox(124, 7).integers(0, 256, size=32)
    assert (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()


def test_sampled_words_deterministic_and_in_code():
    code = linear_code(F9, [[1, 0, 2, 3], [0, 1, 4, 5]], 4)
    runs = []
    for _ in range(2):
        msgs_all, words_all = [], []
        for msgs, words in iter_sampled_words(F9, code.gen, 300, seed=42, tag=9):
            msgs_all.append(msgs)
            words_all.append(words)
        runs.append((np.vstack(msgs_all), np.vstack(words_all)))
    assert (runs[0][0] == runs[1][0]).all()
    assert (runs[0][1] == runs[1][1]).all()
    assert runs[0][1].shape == (300, 4)
    for word in runs[0][1][:25]:
        assert oracles.is_member(code, tuple(int(x) for x in word))


def scan_until_found(field, code, seed=5):
    outcomes = {}
    for w in range(1, code.n + 1):
        out = scan_level(field, code.parity_rows, code.n, w, seed, need_full=True)
        outcomes[w] = out
        if out.witness is not None:
            return w, outcomes
    return None, outcomes


@pytest.mark.parametrize("f", [F3, F4])
def test_scan_level_agrees_with_brute_minimum(f):
    rng = random.Random(40 + f.q)
    for _ in range(6):
        code = linear_code(f, rand_mat(rng, f, 3, 8), 8)
        if code.k == 0:
            continue
        want = oracles.brute_min_weight(code)
        got, outcomes = scan_until_found(f, code)
        assert got == want
        witness = outcomes[got].witness
        assert sum(1 for x in witness if x) == got
        assert oracles.is_member(code, witness)
        for w in range(1, got):
            assert outcomes[w].completed and outcomes[w].exhaustive


def test_scan_level_reject_hook():
    code = linear_code(F4, [[1, 0, 1, 1, 0], [0, 1, 1, 2, 3]], 5)
    base = scan_level(F4, code.parity_rows, 5, 3, 0, need_full=True)
    if base.witness is None:
        pytest.skip("no weight-3 word to reject")
    out = scan_level(
        F4, code.parity_rows, 5, 3, 0, need_full=True, reject=lambda v: True
    )
    assert out.witness is None
    assert out.completed and out.exhaustive
    keep = scan_level(
        F4, code.parity_rows, 5, 3, 0, need_full=True, reject=lambda v: False
    )
    assert keep.witness == base.witness


def test_scan_level_dense_cap():
    code = linear_code(F3, [[1, 0, 1, 2, 0, 1], [0, 1, 1, 1, 2, 0]], 6)
    out = scan_level(
        F3, code.parity_rows, 6, 5, 0, need_full=True, dense_cap=2
    )
    if out.witness is None:
        assert not out.completed
        assert out.supports_scanned == 2


def test_probe_support_paths():
    # tiny kernel: the probe enumerates every candidate and says so
    parity = np_matrix(F3, [[1, 1, 1, 0], [0, 0, 0, 1]], 4)
    vec, exact = probe_support(F3, parity, (0, 1, 2), True, None, 0, 0)
    assert exact
    assert vec is not None and len(vec) == 3 and all(vec)
    # huge kernel: sampling only, flagged non-exhaustive
    f5 = build_field(5, 1)
    zero_parity = np.zeros((1, 9), dtype=np.uint8)
    assert projective_count(5, 8) > SUBSCAN_EXACT_CAP
    vec, exact = probe_support(
        f5, zero_parity, tuple(range(8)), True, None, 3, 1
    )
    assert not exact
    assert vec is not None and all(vec)


def test_level_gate_formula():
    assert level_gate(10, 3, 5, 10**6)
    assert not level_gate(10, 3, 5, 10**4)
    assert level_gate(26, 7, 16, 10**10)
    assert not level_gate(26, 7, 16, 10**8)
