"""Exact numpy kernels: rref, ranks, enumeration, sampling, support scans."""

import itertools
import random

import numpy as np
import pytest

from qmds import kernels
from qmds.budgets import SAMPLE_CHUNK, SUBSCAN_EXACT_CAP
from qmds.gf import build_field
from qmds.kernels import (
    _elimination_prime,
    _reduce_float32,
    batch_rank,
    gf_matmul,
    independent_subsets,
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
from qmds.linalg import WordSearch, linear_code

import oracles

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)
F5 = build_field(5, 1)
F7 = build_field(7, 1)
F9 = build_field(3, 2)
F8 = build_field(2, 3)
F11 = build_field(11, 1)
F13 = build_field(13, 1)
F25 = build_field(5, 2)
F49 = build_field(7, 2)
F64 = build_field(2, 6)


def rand_mat(rng, f, rows, cols):
    return [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)]


def rank_deficient_mat(rng, f, rows, cols, rank):
    """A rows x cols matrix of rank at most `rank`: a product through rank."""
    if rank == 0:
        return [[0] * cols for _ in range(rows)]
    left = rand_mat(rng, f, rows, rank)
    right = rand_mat(rng, f, rank, cols)
    return [list(scalar_encode(f, row, right)) for row in left]


def scalar_encode(f, msg, gen):
    """sum_j msg[j] * gen[j], one field operation at a time."""
    word = [0] * len(gen[0])
    for coef, row in zip(msg, gen):
        word = [f.add(x, f.mul(int(coef), y)) for x, y in zip(word, row)]
    return tuple(word)


def base_q_digits(value, ndigits, q):
    return [(value // q**j) % q for j in range(ndigits - 1, -1, -1)]


# GF(2), GF(3), GF(5), GF(7) take the float32 matmul mod p, GF(4), GF(9) the table loop
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


def test_gf_matmul_float32_bound(monkeypatch):
    """At the largest k the float32 guard admits, the all-(p-1) product is
    exact; one more column takes the table loop and agrees."""
    f = build_field(7, 1)
    k = (2**24 - 1) // 36
    assert k * 36 < 2**24 <= (k + 1) * 36
    tables = []
    real = f.np_tables
    monkeypatch.setattr(f, "np_tables", lambda: tables.append(1) or real())
    for width, path in [(k, []), (k + 1, [1])]:
        a = np.full((2, width), 6, dtype=np.uint8)
        b = np.full((width, 3), 6, dtype=np.uint8)
        want = a.astype(np.int64) @ b.astype(np.int64) % 7
        assert (want == width * 36 % 7).all()
        got = gf_matmul(f, a, b)
        assert got.dtype == np.uint8
        assert (got == want).all()
        assert tables == path


def primes_to(top):
    return [p for p in range(2, top + 1) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p", [2, 3, 251])
def test_float32_reduction_exact_on_every_value(p):
    """x mod p by x - p*floor(x/p) in float32, for every x below 2**24."""
    block = 2**21
    for start in range(0, 2**24, block):
        x = np.arange(start, start + block, dtype=np.int64)
        got = _reduce_float32(x.astype(np.float32), p)
        assert (got == x % p).all()


def test_float32_reduction_exact_at_multiples():
    """x = p*m - 1 and x = p*m below 2**24 for every prime p <= 256: the
    quotient sits 1/p below an integer, or on one, so a rounding up of the
    division would show here first."""
    for p in primes_to(256):
        m = np.arange(1, (2**24 - 1) // p + 1, dtype=np.int64)
        for x in (p * m - 1, p * m):
            got = _reduce_float32(x.astype(np.float32), p)
            assert (got == x % p).all()


# prime fields with the uint8 update of batch_rank (GF(2), GF(5), GF(7)),
# one past it (GF(11)), and table fields GF(4), GF(9), GF(64)
RREF_FIELDS = [F2, F5, F7, F11, F4, F9, F64]


def rref_cases(rng, f):
    yield []
    yield [[]]
    yield [[0] * 5 for _ in range(3)]
    for cols in (1, 6):
        yield rand_mat(rng, f, 1, cols)
    for rows, cols in [(4, 6), (6, 4), (5, 5), (3, 9)]:
        for _ in range(6):
            yield rand_mat(rng, f, rows, cols)
        for rank in range(1, min(rows, cols)):
            yield rank_deficient_mat(rng, f, rows, cols, rank)
        mat = rand_mat(rng, f, rows, cols)
        mat[rows // 2] = [0] * cols
        yield mat
        for row in mat:
            row[cols // 2] = 0
        yield mat


@pytest.mark.parametrize("f", RREF_FIELDS, ids=lambda f: f"GF{f.q}")
def test_rref_matches_scalar_reference(f):
    rng = random.Random(40 + f.q)
    for rows in rref_cases(rng, f):
        red, pivots = rref(f, rows)
        assert (red, pivots) == oracles.rref(f, rows)
        assert all(type(x) is int for row in red for x in row)
        assert type(pivots) is list and all(type(c) is int for c in pivots)


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


# GF(11) and GF(13) are past the uint8 bound of the mod-p elimination and
# must take the table path to come out right
@pytest.mark.parametrize("f", [F3, F4, F9, F2, F5, F7, F11, F13])
def test_batch_rank_matches_per_matrix_rank(f):
    rng = random.Random(30 + f.q)
    for r, w in [(4, 5), (6, 3), (3, 7), (5, 1), (1, 4)]:
        mats = [rand_mat(rng, f, r, w) for _ in range(60)]
        mats += [rank_deficient_mat(rng, f, r, w, rng.randrange(min(r, w)))
                 for _ in range(60)]
        mats.append([[0] * w for _ in range(r)])
        rng.shuffle(mats)
        got = batch_rank(f, np.array(mats, dtype=np.uint8))
        want = [oracles._rank(f, m) for m in mats]
        assert list(got) == want
        assert min(want) < min(r, w)
        zeros = batch_rank(f, np.zeros((7, r, w), dtype=np.uint8))
        assert list(zeros) == [0] * 7
        assert len(batch_rank(f, np.zeros((0, r, w), dtype=np.uint8))) == 0


def test_mod_p_elimination_guard():
    assert [_elimination_prime(f) for f in (F2, F3, F5, F7)] == [2, 3, 5, 7]
    for f in (F11, F13, F4, F9):
        assert _elimination_prime(f) == 0


def dependent_subsets(f, mat, size):
    """Every size-column subset of mat that is dependent, in lexicographic
    order: one batch_rank elimination per subset."""
    combos = list(itertools.combinations(range(mat.shape[1]), size))
    stacks = np.moveaxis(mat[:, np.array(combos, dtype=np.intp)], 1, 0)
    return [c for c, rk in zip(combos, batch_rank(f, stacks)) if rk < size]


def vandermonde(f, r, n):
    """Powers 0..r-1 of the points 0..n-1: every r columns independent."""
    return np.array([[f.pow(x, i) for x in range(n)] for i in range(r)], dtype=np.uint8)


def planted_last(f, rng, r, n, size):
    """An r x n matrix whose only dependent size-column subset is the
    lexicographically last one."""
    last = tuple(range(n - size, n))
    for _ in range(100):
        mat = vandermonde(f, r, n)
        col = [0] * r
        for c in last[:-1]:
            coef = rng.randrange(1, f.q)
            col = [f.add(x, f.mul(coef, int(y))) for x, y in zip(col, mat[:, c])]
        mat[:, n - 1] = col
        if dependent_subsets(f, mat, size) == [last]:
            return mat
    raise AssertionError("no matrix with a single dependent subset")


# mod-p integer elimination (GF(2), GF(5), GF(7)) and table gathers (the rest)
KERNEL_FIELDS = [F2, F4, F5, F7, F8, F9, F49, F64]


@pytest.mark.parametrize("f", KERNEL_FIELDS, ids=lambda f: f"GF{f.q}")
def test_independent_subsets_matches_batch_rank(f):
    rng = random.Random(70 + f.q)
    r, n = 4, 7
    for size in (1, 2, r):
        for _ in range(12):
            mat = np.array(rand_mat(rng, f, r, n), dtype=np.uint8)
            zero = mat.copy()
            zero[:, rng.randrange(n)] = 0
            twin = mat.copy()
            a, b = rng.sample(range(n), 2)
            twin[:, b] = twin[:, a]
            for m in (mat, zero, twin):
                want = not dependent_subsets(f, m, size)
                assert independent_subsets(f, m, size) is want
            assert not independent_subsets(f, zero, size)
            assert size == 1 or not independent_subsets(f, twin, size)


@pytest.mark.parametrize("f", KERNEL_FIELDS[1:], ids=lambda f: f"GF{f.q}")
def test_independent_subsets_reaches_the_last_subset(f):
    rng = random.Random(90 + f.q)
    n = min(f.q, 7)
    r = min(4, n - 1)
    for size in range(1, r + 1):
        mat = planted_last(f, rng, r, n, size)
        assert not independent_subsets(f, mat, size)
        assert independent_subsets(f, mat[:, :-1], size)


@pytest.mark.parametrize("chunk", [1, 5])
def test_independent_subsets_across_chunk_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "RANK_CHUNK", chunk)
    rng = random.Random(chunk)
    for f in (F7, F9, F64):
        for size in (2, 3, 4):
            mat = planted_last(f, rng, 4, 7, size)
            assert not independent_subsets(f, mat, size)
            assert independent_subsets(f, mat[:, :-1], size)
            mat = np.array(rand_mat(rng, f, 4, 9), dtype=np.uint8)
            assert independent_subsets(f, mat, size) is not dependent_subsets(f, mat, size)


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


@pytest.mark.parametrize("f", [F2, F3, F5, F7, F4, F9, F8, F25, F49, F64])
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


def scalar_projective_words(f, gen):
    """Every word of the projective enumeration in its visiting order, one
    scalar encode each, and the number of words per lead row."""
    k = len(gen)
    words, per_lead = [], []
    for lead in range(k):
        tail = k - lead - 1
        for counter in range(f.q**tail):
            msg = [0] * lead + [1] + base_q_digits(counter, tail, f.q)
            words.append(scalar_encode(f, msg, gen))
        per_lead.append(f.q**tail)
    return np.array(words, dtype=np.uint8), per_lead


# k = 8 over GF(2) and GF(3) puts several high words in one lead row at every
# chunk below q**7; k = 9 over GF(3) does so at the default chunk 4096 too
@pytest.mark.parametrize(
    "f,k",
    [(F2, 8), (F3, 8), (F3, 9), (F2, 1), (F3, 1), (F5, 1), (F4, 1), (F8, 1),
     (F25, 1), (F49, 1), (F64, 1)],
    ids=lambda v: f"GF{v.q}" if hasattr(v, "q") else f"k{v}",
)
def test_projective_words_match_scalar_encode_at_every_chunk(f, k):
    rng = random.Random(80 + 10 * f.q + k)
    n = 5
    gen = rand_mat(rng, f, k, n)
    want, per_lead = scalar_projective_words(f, gen)
    q = f.q
    for chunk in sorted({1, 2, max(q - 1, 1), q, q * q, 4096}):
        for leads in [None, *range(1, k + 1)]:
            chunks = list(iter_projective_words(f, gen, chunk=chunk, leads=leads))
            assert all(1 <= len(c) <= chunk and c.dtype == np.uint8 for c in chunks)
            got = np.vstack(chunks)
            count = sum(per_lead[:leads])
            assert got.shape == (count, n)
            assert (got == want[:count]).all()


@pytest.mark.parametrize("f,k,n", [(F4, 5, 7), (F9, 3, 6)], ids=["GF4", "GF9"])
def test_word_search_enumeration_counts_match_brute_spectrum(f, k, n):
    rng = random.Random(30 + f.q)
    for _ in range(3):
        code = linear_code(f, rand_mat(rng, f, k, n), n)
        search = WordSearch(code)
        search.enumerate()
        assert search.exact_counts == oracles.brute_spectrum(code)
        # relative sweep: the words of code outside a subcode of it
        sub = linear_code(f, code.gen[: code.k // 2 + 1], n)
        rel = WordSearch(code, sub)
        rel.enumerate()
        inside = set(oracles.all_codewords(sub))
        counts = [0] * (n + 1)
        for word in oracles.all_codewords(code):
            if word not in inside:
                counts[sum(1 for x in word if x)] += 1
        assert rel.exact_counts == counts


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
