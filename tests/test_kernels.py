"""Exact numpy kernels: rref, ranks, enumeration, sampling, support scans."""

import functools
import itertools
import math
import os
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmds import kernels
from qmds.budgets import (
    DEFAULT_SEED, SAMPLE_CHUNK, SCAN_CHUNK, SUBSCAN_EXACT_CAP, SUBSCAN_SAMPLES,
)
from qmds.ccodes import build_code, mds_spec
from qmds.errors import Contradiction
from qmds.gf import _prime_power_parts, build_field, field_for_order
from qmds.kernels import (
    _elimination_prime,
    _reduce_float32,
    batch_rank,
    dependent_supports,
    gf_matmul,
    independent_subsets,
    iter_projective_words,
    iter_sampled_words,
    lex_rank,
    null_space,
    PhiloxStream,
    philox,
    probe_support,
    projective_count,
    projective_weights,
    rref,
    scan_level,
)
from qmds.linalg import WordSearch, linear_code
from qmds.pcode import puncture_spectral

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


def as_matrix(rows):
    """A list of rows as the 2-D uint8 array the kernels take, (0, 0) when
    there are none."""
    return np.array(rows, dtype=np.uint8).reshape(len(rows), len(rows[0]) if rows else 0)


def scalar_encode(f, msg, gen):
    """sum_j msg[j] * gen[j], one field operation at a time."""
    word = [0] * len(gen[0])
    for coef, row in zip(msg, gen):
        word = [f.add(x, f.mul(int(coef), y)) for x, y in zip(word, row)]
    return tuple(word)


def base_q_digits(value, ndigits, q):
    return [(value // q**j) % q for j in range(ndigits - 1, -1, -1)]


def prime_powers_to(top):
    return [q for q in range(2, top + 1) if len(_prime_power_parts(q)) == 1]


# every field with tables: GF(p) multiplies its elements, GF(p**m) their
# base-p digits, each through the same float32 product mod p
@pytest.mark.parametrize("f", [field_for_order(q) for q in prime_powers_to(256)])
def test_gf_matmul_matches_scalar_product(f):
    rng = random.Random(f.q)
    shapes = [(3, 4, 5)] * 20 + [(3, 0, 5), (1, 4, 5), (3, 4, 1), (1, 1, 1), (0, 4, 5)]
    for x, k, y in shapes:
        a = rand_mat(rng, f, x, k)
        b = rand_mat(rng, f, k, y)
        got = gf_matmul(f, np.array(a, dtype=np.uint8).reshape(x, k),
                        np.array(b, dtype=np.uint8).reshape(k, y))
        assert got.dtype == np.uint8 and got.shape == (x, y)
        for i in range(x):
            for j in range(y):
                acc = 0
                for t in range(k):
                    acc = f.add(acc, f.mul(a[i][t], b[t][j]))
                assert int(got[i, j]) == acc


def test_gf_matmul_float32_bound():
    """Over GF(7) and GF(251) the inner dimension is summed in blocks of step
    terms, reduced mod p between blocks.  At k = step the all-(p-1) sum
    reaches the float32 limit; one more term, and two blocks and one, stay
    exact.  Entries drawn from {p-2, p-1} give odd products whose unblocked
    sum at 2 * step + 1 terms lies past 2**24, where float32 drops odd
    integers."""
    for p in (7, 251):
        f = build_field(p, 1)
        step = (2**24 - p) // (p - 1) ** 2
        assert (p - 1) + step * (p - 1) ** 2 < 2**24 <= (p - 1) + (step + 1) * (p - 1) ** 2
        rng = np.random.default_rng(p)
        for width in (step, step + 1, 2 * step + 1):
            for a, b in [
                (np.full((2, width), p - 1), np.full((width, 3), p - 1)),
                (rng.integers(p - 2, p, (2, width)), rng.integers(p - 2, p, (width, 3))),
                (rng.integers(0, p, (2, width)), rng.integers(0, p, (width, 3))),
            ]:
                got = gf_matmul(f, a.astype(np.uint8), b.astype(np.uint8))
                assert got.dtype == np.uint8
                assert (got == a @ b % p).all()


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
        mat = as_matrix(rows)
        red, pivots = rref(f, mat)
        assert red.dtype == np.uint8 and red.shape == (len(pivots), mat.shape[1])
        assert (red.tolist(), pivots) == oracles.rref(f, rows)
        assert type(pivots) is list and all(type(c) is int for c in pivots)


@pytest.mark.parametrize("f", [F3, F4, F9])
def test_rref_shape_and_row_space(f):
    rng = random.Random(10 + f.q)
    for _ in range(25):
        rows = rand_mat(rng, f, 4, 6)
        red, pivots = rref(f, as_matrix(rows))
        assert red.dtype == np.uint8 and red.shape == (len(pivots), 6)
        red = red.tolist()
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
        basis = null_space(f, as_matrix(rows))
        assert basis.dtype == np.uint8 and basis.shape == (7 - oracles._rank(f, rows), 7)
        basis = basis.tolist()
        for v in basis:
            for row in rows:
                acc = 0
                for a, b in zip(row, v):
                    acc = f.add(acc, f.mul(a, b))
                assert acc == 0
        assert oracles._rank(f, basis) == len(basis)
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert null_space(f, as_matrix(eye)).shape == (0, 4)


def kernel_cases(rng, f):
    """Matrices whose kernels kernel_rref takes: empty (0, n), zero,
    random, rank-deficient and full-rank square."""
    yield np.zeros((0, 5), dtype=np.uint8)
    yield np.zeros((3, 6), dtype=np.uint8)
    for rows, cols in [(1, 7), (2, 7), (4, 6), (6, 4), (3, 9)]:
        for _ in range(4):
            yield as_matrix(rand_mat(rng, f, rows, cols))
        for rank in range(1, min(rows, cols)):
            yield as_matrix(rank_deficient_mat(rng, f, rows, cols, rank))
    for size in (1, 4, 6):
        rows = rand_mat(rng, f, size, size)
        while oracles._rank(f, rows) < size:
            rows = rand_mat(rng, f, size, size)
        yield as_matrix(rows)


@pytest.mark.parametrize("f", [F2, F3, F4, F5, F7, F8, F9, F25, F64], ids=lambda f: f"GF{f.q}")
def test_kernel_rref_is_the_rref_of_the_null_space(f):
    rng = random.Random(60 + f.q)
    for mat in kernel_cases(rng, f):
        n = mat.shape[1]
        got = kernels.kernel_rref(f, mat)
        assert got.dtype == np.uint8
        assert got.shape == (n - oracles._rank(f, mat.tolist()), n)
        assert got.tolist() == oracles.rref(f, null_space(f, mat).tolist())[0]
        assert not gf_matmul(f, mat, got.T).any()


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
    monkeypatch.setattr(kernels, "SCAN_CHUNK", chunk)
    rng = random.Random(chunk)
    for f in (F7, F9, F64):
        for size in (2, 3, 4):
            mat = planted_last(f, rng, 4, 7, size)
            assert not independent_subsets(f, mat, size)
            assert independent_subsets(f, mat[:, :-1], size)
            mat = np.array(rand_mat(rng, f, 4, 9), dtype=np.uint8)
            assert independent_subsets(f, mat, size) is not dependent_subsets(f, mat, size)


def tree_supports(f, mat, size, necklaces=False):
    """Every support dependent_supports yields, as tuples in yield order."""
    out = []
    for found in dependent_supports(f, mat, size, necklaces):
        assert found.ndim == 2 and found.shape[1] == size and len(found)
        out += [tuple(s) for s in found.tolist()]
    return out


@pytest.mark.parametrize("chunk", [1, 5, SCAN_CHUNK])
@pytest.mark.parametrize("f", KERNEL_FIELDS, ids=lambda f: f"GF{f.q}")
def test_dependent_supports_match_batch_rank(monkeypatch, f, chunk):
    monkeypatch.setattr(kernels, "SCAN_CHUNK", chunk)
    rng = random.Random(110 + f.q + chunk)
    r, n = 4, 7
    for size in range(1, r + 1):
        cases = []
        for _ in range(6):
            mat = np.array(rand_mat(rng, f, r, n), dtype=np.uint8)
            zero = mat.copy()
            zero[:, rng.randrange(n)] = 0
            twin = mat.copy()
            a, b = rng.sample(range(n), 2)
            twin[:, b] = twin[:, a]
            cases += [(mat, size), (zero, size), (twin, size)]
        if f.q > 2:
            m = min(f.q, n)
            small = min(size, m - 1)
            cases.append((planted_last(f, rng, min(r, m - 1), m, small), small))
        for mat, sz in cases:
            want = dependent_subsets(f, mat, sz)
            assert tree_supports(f, mat, sz) == want
            if want:
                # the lexicographically first dependent support comes first
                first = next(dependent_supports(f, mat, sz))
                assert tuple(first[0].tolist()) == want[0]


def walk_oracle(f, mat, size, necklaces):
    """What dependent_supports must yield, in order: every dependent subset,
    or with necklaces only those that are their own least rotation."""
    want = dependent_subsets(f, mat, size)
    if necklaces:
        want = [s for s in want if least_rotation(s, mat.shape[1]) == s]
    return want


def column_mix(f, mat, out, terms):
    """Set column out of mat to the sum of coef * mat[:, c] over (coef, c)."""
    col = np.zeros(len(mat), dtype=np.uint8)
    for coef, c in terms:
        col = f.np_tables().add[col, f.np_tables().mul[coef, mat[:, c]]]
    mat[:, out] = col


def pruning_cases(f, rng):
    """(matrix, size) pairs whose dependent subsets a walk that prunes too
    much would miss: parallel columns in every disguise, over r <= 10."""
    def unit():
        return rng.randrange(2, f.q) if f.q > 2 else 1

    # at r = 10 a node two levels above leaves of size <= 4 has more rows
    # than a key packs
    for r, n, sizes in ((4, 9, range(1, 5)), (10, 12, (2, 3, 4, 10))):
        for _ in range(2):
            base = np.array(rand_mat(rng, f, r, n), dtype=np.uint8)
            a, b, c, z = rng.sample(range(n), 4)
            twin = base.copy()  # b = lam * a, lam != 1 when the field allows
            column_mix(f, twin, b, [(unit(), a)])
            late = base.copy()  # c = lam * a + mu * b: parallel to b once a is eliminated
            column_mix(f, late, c, [(unit(), a), (unit(), b)])
            zero = base.copy()
            zero[:, z] = 0
            spanned = base.copy()  # zero once the prefix {a, b} is eliminated
            column_mix(f, spanned, z, [(unit(), a), (1, b)])
            head = base.copy()  # zero in the first rows, which a key packs
            head[: r - 2, z] = 0
            head[:, c] = f.np_tables().mul[unit(), head[:, z]]
            for mat in (twin, late, zero, spanned, head):
                for size in sizes:
                    yield mat, size


# parity matrices of MDS codes, on which the walk yields nothing
MDS_WALK_SPECS = [(7, 4), (8, 5), (9, 3), (16, 5), (49, 4), (64, 5)]


@pytest.mark.parametrize("necklaces", [False, True])
@pytest.mark.parametrize("chunk", [1, 5, SCAN_CHUNK])
def test_walk_prunes_only_nodes_without_a_dependent_grandchild(monkeypatch, chunk, necklaces):
    monkeypatch.setattr(kernels, "SCAN_CHUNK", chunk)
    for f in (F2, F5, F7, F9, F64, field_for_order(256)):
        rng = random.Random(f.q * 31 + chunk)
        for mat, size in pruning_cases(f, rng):
            want = walk_oracle(f, mat, size, necklaces)
            assert tree_supports(f, mat, size, necklaces) == want, (f.q, mat.tolist(), size)
    for Q, d in MDS_WALK_SPECS:
        code = build_code(mds_spec(Q, d))
        assert code.n - code.k == d - 1
        assert tree_supports(code.field, code.parity_matrix, d - 1, necklaces) == [], (Q, d)


def test_mds_check_clears_few_children(monkeypatch):
    """On an MDS matrix no node two levels above the leaves has a zero or
    parallel pair of columns, so the walk never builds the leaves' parents:
    the [65, 61] code over GF(64) clears about 2,000 children, not one per
    3-subset of its 65 parity columns."""
    cleared = []
    clear = kernels._clear_column

    def counted(field, pm, node, col):
        cleared.append(len(node))
        return clear(field, pm, node, col)

    monkeypatch.setattr(kernels, "_clear_column", counted)
    code = build_code(mds_spec(64, 5))
    assert independent_subsets(code.field, code.parity_matrix, 4)
    assert 0 < sum(cleared) < math.comb(65, 3)


def mixed_matrix(data, q, r, n):
    """A random r x n matrix over GF(q) whose later columns may be zero,
    scaled copies or two-term mixtures of earlier ones."""
    f = field_for_order(q)
    elt = st.integers(0, q - 1)
    rows = data.draw(st.lists(st.lists(elt, min_size=n, max_size=n), min_size=r, max_size=r))
    mat = np.array(rows, dtype=np.uint8).reshape(r, n)
    for out in range(1, n):
        if data.draw(st.booleans()):
            a, b = (data.draw(st.integers(0, out - 1)) for _ in range(2))
            column_mix(f, mat, out, [(data.draw(elt), a), (data.draw(elt), b)])
    return f, mat


@settings(
    max_examples=2000 if os.environ.get("QMDS_HEAVY") else 60,
    deadline=None, derandomize=True,
)
@given(data=st.data())
def test_walk_property_matches_brute_force(data):
    q = data.draw(st.sampled_from(prime_powers_to(256)))
    r = data.draw(st.integers(1, 10))
    n = data.draw(st.integers(1, 12))
    f, mat = mixed_matrix(data, q, r, n)
    necklaces = data.draw(st.booleans())
    chunk = data.draw(st.sampled_from([1, 5, SCAN_CHUNK]))
    # a function-scoped fixture would outlive one example, so patch per example
    with mock.patch.object(kernels, "SCAN_CHUNK", chunk):
        for size in range(1, min(r, n) + 1):
            want = walk_oracle(f, mat, size, necklaces)
            assert tree_supports(f, mat, size, necklaces) == want, size


def test_lex_rank_is_the_combinations_index():
    for n in range(10):
        for w in range(n + 1):
            for i, support in enumerate(itertools.combinations(range(n), w)):
                assert lex_rank(n, support) == i


@pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (4, 3), (9, 2)])
def test_projective_iteration_covers_every_class_once(monkeypatch, q, k):
    monkeypatch.setattr(kernels, "ENUM_CHUNK", 5)
    f = build_field(2, 2) if q == 4 else build_field(3, 2) if q == 9 else build_field(q, 1)
    rng = random.Random(q * 10 + k)
    n = k + 2
    code = None
    while code is None or code.k != k:
        code = linear_code(f, rand_mat(rng, f, k, n), n)
    seen = []
    for chunk in iter_projective_words(f, code.gen):
        seen.extend(tuple(int(x) for x in w) for w in chunk)
    assert len(seen) == len(set(seen)) == projective_count(q, k)
    scaled = {tuple(0 for _ in range(n))}
    for w in seen:
        for s in range(1, q):
            scaled.add(tuple(f.mul(s, x) for x in w))
    assert scaled == {tuple(w) for w in oracles.all_codewords(code)}


# the words of the first `leads` lead rows, those a relative enumeration
# visits, are a prefix of the order made of whole chunks
@pytest.mark.parametrize("f", [F2, F3, F5, F7, F4, F9, F8, F25, F49, F64])
@pytest.mark.parametrize("leads", [None, 1, 2])
def test_projective_words_follow_scalar_encode_order(monkeypatch, f, leads):
    rng = random.Random(50 + f.q)
    k, n = 4 if f.q <= 4 else 3, 6
    gen = rand_mat(rng, f, k, n)
    want, per_lead = scalar_projective_words(f, gen)
    for chunk in (7, 4096):
        monkeypatch.setattr(kernels, "ENUM_CHUNK", chunk)
        chunks = list(iter_projective_words(f, gen))
        got = np.vstack(chunks)
        assert got.shape == want.shape
        assert (got == want).all()
        assert sum(per_lead[:leads]) in np.cumsum([len(c) for c in chunks])


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


# k = 8 over GF(2) and GF(3) puts several chunks in one lead row at every
# chunk below q**7; k = 9 over GF(3) does so at the default chunk 4096 too
@pytest.mark.parametrize(
    "f,k",
    [(F2, 8), (F3, 8), (F3, 9), (F2, 1), (F3, 1), (F5, 1), (F4, 1), (F8, 1),
     (F25, 1), (F49, 1), (F64, 1)],
    ids=lambda v: f"GF{v.q}" if hasattr(v, "q") else f"k{v}",
)
def test_projective_words_match_scalar_encode_at_every_chunk(monkeypatch, f, k):
    rng = random.Random(80 + 10 * f.q + k)
    n = 5
    gen = rand_mat(rng, f, k, n)
    want, per_lead = scalar_projective_words(f, gen)
    q = f.q
    for chunk in sorted({1, 2, max(q - 1, 1), q, q * q, 4096}):
        monkeypatch.setattr(kernels, "ENUM_CHUNK", chunk)
        chunks = list(iter_projective_words(f, gen))
        assert all(1 <= len(c) <= chunk and c.dtype == np.uint8 for c in chunks)
        # a chunk never straddles two lead rows
        ends = set(np.cumsum([len(c) for c in chunks]).tolist())
        assert set(np.cumsum(per_lead).tolist()) <= ends
        got = np.vstack(chunks)
        assert got.shape == want.shape
        assert (got == want).all()


def brute_outside(f, gen, leads):
    """Weight counts of the words of the row space of gen outside the span
    of its rows from `leads` on, one per projective class, by brute force."""
    n = len(gen[0])
    inside = set(oracles.all_codewords(linear_code(f, gen[leads:], n)))
    counts = [0] * (n + 1)
    for word in oracles.all_codewords(linear_code(f, gen, n)):
        if word not in inside:
            counts[sum(1 for x in word if x)] += 1
    assert all(c % (f.q - 1) == 0 for c in counts)
    return [c // (f.q - 1) for c in counts]


# leads e is the relative case: the words outside the subcode spanned by
# rows e and on.  ENUM_LOW 1 makes every tail row high (the low block is the
# zero word), and ENUM_LOW q leaves one row to the low block; five or three
# high words encoded at a time, one or two per count, put several high
# blocks and counts in a lead row.  ENUM_PRODUCT_Q 256 and 0 send every
# field through the one-hot product and through the byte comparison.
@pytest.mark.parametrize("f", [F2, F3, F5, F7, F4, F8, F9, F25, F49, F64])
@pytest.mark.parametrize("leads", [None, 1, 2])
def test_projective_weights_match_scalar_enumeration(monkeypatch, f, leads):
    rng = random.Random(60 + f.q)
    k, n = 4 if f.q <= 4 else 3 if f.q <= 9 else 2, 6
    gen = None
    while gen is None or len(rref(f, gen)[0]) < k:
        gen = rand_mat(rng, f, k, n)
    words, per_lead = scalar_projective_words(f, gen)
    words = words[:sum(per_lead[:leads])]
    weights = (words != 0).sum(axis=1)
    first = {int(w): words[np.argmax(weights == w)].tolist() for w in np.unique(weights)}
    want = brute_outside(f, gen, k if leads is None else leads)
    q = f.q
    if leads is None:
        spectrum = oracles.brute_spectrum(linear_code(f, gen, n))
        assert [c * (q - 1) for c in want[1:]] == spectrum[1:]
    for product_q in (256, 0):
        for low, chunk, nbytes in [(1, 5, 1), (q, 3, 2 * q * n), (1024, 4096, 2**17)]:
            monkeypatch.setattr(kernels, "ENUM_PRODUCT_Q", product_q)
            monkeypatch.setattr(kernels, "ENUM_LOW", low)
            monkeypatch.setattr(kernels, "ENUM_CHUNK", chunk)
            monkeypatch.setattr(kernels, "ENUM_BYTES", nbytes)
            counts, got = projective_weights(f, gen, leads)
            assert counts.dtype == np.int64 and counts.tolist() == want
            assert {w: word.tolist() for w, word in got.items()} == first
            assert all(word.dtype == np.uint8 for word in got.values())


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


# consecutive calls of uneven size: the tail of each call's last 32-bit
# word is dropped, and whole words drawn past a call carry to the next
STREAM_SHAPES = [(1, 1), (3, 1), (37, 3), (4096, 17), (4096, 41)]


def assert_stream_matches_integers(stream, q, seed, tag, shapes):
    """stream decodes, call after call, what philox(seed, tag).integers
    draws for the same shapes."""
    rng = philox(seed, tag)
    for shape in shapes:
        want = rng.integers(0, q, size=shape, dtype=np.uint8)
        raw = stream.raw(*shape)
        assert raw.dtype == np.uint8 and raw.shape == shape
        assert (stream.digit[raw] == want).all()
        assert ((raw >= stream.nonzero_from) == (want != 0)).all()


@pytest.mark.parametrize("q", prime_powers_to(256))
def test_philox_stream_matches_integers(q):
    for seed, tag in ((0xC0DE, 0x77), (7, (5 << 32) | 3)):
        assert_stream_matches_integers(PhiloxStream(q, seed, tag), q, seed, tag, STREAM_SHAPES)


def test_philox_stream_draws_until_enough_bytes_are_accepted():
    # 256 mod 131 = 125, so about half of GF(131)'s bytes are skipped.  A
    # stream that expects to skip none draws too little on every round and
    # must keep drawing more words until the call is filled
    stream = PhiloxStream(131, 3, 9)
    stream._rate = 1.0
    assert_stream_matches_integers(stream, 131, 3, 9, STREAM_SHAPES + [(1, 1)] * 5)


@pytest.mark.skipif(not os.environ.get("QMDS_HEAVY"), reason="set QMDS_HEAVY=1 for the wide sweep")
def test_philox_stream_wide_sweep():
    rng = random.Random(2024)
    for q in prime_powers_to(256):
        for seed in (0, 1, 0xC0DE, 2**64 - 1, rng.getrandbits(64)):
            tag = rng.getrandbits(64)
            shapes = STREAM_SHAPES + [(0, 7), (5, 0)] + [
                (rng.randrange(1, 6000), rng.randrange(1, 60)) for _ in range(12)]
            rng.shuffle(shapes)
            assert_stream_matches_integers(PhiloxStream(q, seed, tag), q, seed, tag, shapes)


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
        out = scan_level(field, code.parity_matrix, w, seed)
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


def test_scan_level_subcode_rows():
    code = linear_code(F4, [[1, 0, 1, 1, 0], [0, 1, 1, 2, 3]], 5)
    base = scan_level(F4, code.parity_matrix, 3, 0)
    if base.witness is None:
        pytest.skip("no weight-3 word to exclude")
    # relative to the code itself no word passes
    out = scan_level(F4, code.parity_matrix, 3, 0, sub=code.parity_matrix)
    assert out.witness is None
    assert out.completed and out.exhaustive
    keep = scan_level(F4, code.parity_matrix, 3, 0, sub=None)
    assert keep.witness == base.witness


@pytest.mark.parametrize("f", [F3, F4])
def test_scan_level_decides_every_level(f):
    # n = 7 and r = 5, 4, 2: levels on both sides of r, prefiltered and dense
    rng = random.Random(70 + f.q)
    for k in (2, 3, 5):
        code = linear_code(f, rand_mat(rng, f, k, 7), 7)
        counts = oracles.brute_spectrum(code)
        for w in range(1, 8):
            out = scan_level(f, code.parity_matrix, w, 3)
            assert (out.witness is not None) == (counts[w] > 0), (code.k, w)
            if out.witness is None:
                assert out.completed and out.exhaustive
            else:
                assert sum(1 for x in out.witness if x) == w
                assert oracles.is_member(code, out.witness)


def scan_cases(f, rng):
    """Codes of length 8 with r = 6, 4 and 3 parity rows, and one with a
    zero and a repeated coordinate."""
    for k in (2, 4, 5):
        yield linear_code(f, rand_mat(rng, f, k, 8), 8)
    gen = rand_mat(rng, f, 3, 8)
    for row in gen:
        row[2] = 0
        row[6] = row[1]
    yield linear_code(f, gen, 8)


def first_row_span(code):
    """Parity matrix of the subcode spanned by the code's first generator row."""
    return linear_code(code.field, code.gen[:1], code.n).parity_matrix


@pytest.mark.parametrize("f", [F3, F4, F5, F7, F8], ids=lambda f: f"GF{f.q}")
def test_scan_level_matches_reference_scan(f):
    rng = random.Random(130 + f.q)
    for code in scan_cases(f, rng):
        for w in range(1, code.n + 1):
            for sub in (None, first_row_span(code)):
                args = (f, code.parity_matrix, w, 11)
                want = oracles.scan_level(*args, sub=sub)
                assert scan_level(*args, sub=sub) == want, (code.k, w, sub)


@pytest.mark.parametrize("chunk", [1, 5])
def test_scan_level_across_chunk_boundaries(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "SCAN_CHUNK", chunk)
    rng = random.Random(150 + chunk)
    for f in (F4, F7):
        for code in scan_cases(f, rng):
            for w in range(1, len(code.parity_rows) + 1):
                for sub in (None, first_row_span(code)):
                    args = (f, code.parity_matrix, w, 3)
                    assert scan_level(*args, sub=sub) == oracles.scan_level(*args, sub=sub)


def first_relative_support(code, sub, w):
    """Lexicographic rank of the first size-w support that is the support of
    a word of code outside sub, by brute force over the codebook; None when
    there is none."""
    outside = {
        frozenset(i for i, x in enumerate(word) if x)
        for word in oracles.all_codewords(code)
        if not oracles.is_member(sub, word)
    }
    for rank, support in enumerate(itertools.combinations(range(code.n), w)):
        s = frozenset(support)
        if s in outside:
            return rank
    return None


@pytest.mark.parametrize("f", [F3, F4, F5, F7, F8], ids=lambda f: f"GF{f.q}")
def test_relative_scan_matches_brute_force(f):
    rng = random.Random(170 + f.q)
    n = 6
    for k in (2, 3):
        code = linear_code(f, rand_mat(rng, f, k, n), n)
        # subcodes from the zero code up to the code itself
        for j in range(code.k + 1):
            msgs = np.array(rand_mat(rng, f, j, code.k), dtype=np.uint8).reshape(j, code.k)
            sub = linear_code(f, gf_matmul(f, msgs, code.matrix).tolist(), n)
            for w in range(1, n + 1):
                out = scan_level(f, code.parity_matrix, w, 5, sub=sub.parity_matrix)
                rank = first_relative_support(code, sub, w)
                case = (code, sub, w)
                if rank is None:
                    assert out.witness is None, case
                    assert out.completed and out.exhaustive, case
                    assert out.supports_scanned == math.comb(n, w), case
                    continue
                assert out.witness is not None, case
                assert oracles.is_member(code, out.witness), case
                assert not oracles.is_member(sub, out.witness), case
                assert sum(1 for x in out.witness if x) == w, case
                assert out.supports_scanned == rank + 1, case


def test_scan_level_cross_checks_what_the_tree_yields(monkeypatch):
    code = linear_code(F5, [[1, 0, 1, 2, 3, 4], [0, 1, 1, 1, 2, 3]], 6)
    parity = code.parity_matrix
    indep = next(
        s for s in itertools.combinations(range(6), 3)
        if s not in dependent_subsets(F5, parity, 3)
    )
    monkeypatch.setattr(
        kernels, "dependent_supports", lambda *args: iter([np.array([indep])])
    )
    with pytest.raises(Contradiction):
        scan_level(F5, parity, 3, 0)


@functools.lru_cache(maxsize=None)
def spectral_pc(q, d):
    return puncture_spectral(mds_spec(q * q, d)).base


# the spectral P(C) of every (q, d) with q <= 4, and (5, 4) up to w = 8:
# (q, d, highest level w <= r)
ORBIT_CASES = [(q, d, None) for q in (2, 3, 4) for d in range(2, q + 2)] + [(5, 4, 8)]


def orbit_levels():
    for q, d, top in ORBIT_CASES:
        code = spectral_pc(q, d)
        r = len(code.parity_rows)
        for w in range(1, min(r, top or r) + 1):
            yield code, w


def least_rotation(support, n):
    return min(tuple(sorted((c - s) % n for c in support)) for s in support)


@pytest.mark.parametrize("q,d,top", ORBIT_CASES, ids=str)
def test_necklace_walk_yields_one_support_per_rotation_orbit(q, d, top):
    code = spectral_pc(q, d)
    assert code.twisted_shift is not None
    f, n = code.field, code.n
    parity = code.parity_matrix
    for w in range(1, min(len(parity), top or n) + 1):
        neck = []
        for found in dependent_supports(f, parity, w, necklaces=True):
            neck += [tuple(s) for s in found.tolist()]
        assert neck == sorted(neck), w
        assert all(least_rotation(s, n) == s for s in neck), w
        orbits = {tuple(sorted((c + t) % n for c in s)) for s in neck for t in range(n)}
        assert orbits == set(tree_supports(f, parity, w)), w


@pytest.mark.parametrize("n", range(1, 12))
def test_necklace_walk_on_a_zero_matrix_yields_every_least_rotation(monkeypatch, n):
    # every subset is dependent, so the walk yields every necklace
    for w in range(1, n + 1):
        zero = np.zeros((w, n), dtype=np.uint8)
        want = sorted({least_rotation(s, n) for s in itertools.combinations(range(n), w)})
        for chunk in (1, 7, SCAN_CHUNK):
            monkeypatch.setattr(kernels, "SCAN_CHUNK", chunk)
            got = []
            for found in dependent_supports(F3, zero, w, necklaces=True):
                got += [tuple(s) for s in found.tolist()]
            assert got == want, (w, chunk)


def orbit_scans(monkeypatch, reference, seed=11):
    """Compare scan_level(..., rotations=True) with the reference scan on
    every orbit level.  Returns how many scans the necklace walk decided
    alone and how many fell back to the full tree."""
    walks = []
    walk = kernels.dependent_supports

    def logged(*args):
        walks.append(args[3])
        return walk(*args)

    monkeypatch.setattr(kernels, "dependent_supports", logged)
    stood = fell = 0
    for code, w in orbit_levels():
        args = (code.field, code.parity_matrix, w, seed)
        walks.clear()
        got = scan_level(*args, rotations=True)
        stood += walks == [True]
        fell += walks == [True, False]
        assert got == reference(code, *args), (code, w)
    return stood, fell


def test_orbit_scan_matches_the_full_scan(monkeypatch):
    def reference(code, *args):
        if code.field.q <= 4:
            return oracles.scan_level(*args)
        return scan_level(*args)

    stood, fell = orbit_scans(monkeypatch, reference)
    # every probe of these levels is exhaustive
    assert stood and not fell


def test_orbit_scan_falls_back_when_probes_sample(monkeypatch):
    # every probe samples: only a witness on the first necklace probed stands
    monkeypatch.setattr(kernels, "SUBSCAN_EXACT_CAP", 0)
    stood, fell = orbit_scans(monkeypatch, lambda code, *args: scan_level(*args))
    assert stood and fell


def test_orbit_scan_cross_checks_what_the_necklace_walk_yields(monkeypatch):
    code = linear_code(F5, [[1, 0, 1, 2, 3, 4], [0, 1, 1, 1, 2, 3]], 6)
    parity = code.parity_matrix
    indep = next(
        s for s in itertools.combinations(range(6), 3)
        if s not in dependent_subsets(F5, parity, 3)
    )
    monkeypatch.setattr(
        kernels, "dependent_supports",
        lambda *args: iter([np.array([indep])] if args[3] else []),
    )
    out = scan_level(F5, parity, 3, 0)
    assert out.witness is None and out.completed
    with pytest.raises(Contradiction):
        scan_level(F5, parity, 3, 0, rotations=True)


def test_scan_level_dense_cap(monkeypatch):
    # [6, 2] over GF(3), r = 4: six supports at w = 5, fifteen at w = 4
    code = linear_code(F3, [[1, 0, 1, 2, 0, 1], [0, 1, 1, 1, 2, 0]], 6)
    monkeypatch.setattr(kernels, "DENSE_SUPPORT_CAP", 2)
    # relative to the code itself no word passes
    parity = code.parity_matrix
    out = scan_level(F3, parity, 5, 0, sub=parity)
    assert out.witness is None and out.supports_scanned == 2
    assert not out.completed and not out.exhaustive
    # the cap binds only above r
    out = scan_level(F3, parity, 4, 0, sub=parity)
    assert out.completed and out.supports_scanned == 15
    # a level of exactly cap supports still completes
    monkeypatch.setattr(kernels, "DENSE_SUPPORT_CAP", 6)
    out = scan_level(F3, parity, 5, 0, sub=parity)
    assert out.completed and out.exhaustive and out.supports_scanned == 6


def checked_batches(monkeypatch):
    """Make every probe_lines batch that scan_level settles also probe each
    of its supports alone with probe_support, and demand the same answer.
    Returns the sizes of the batches checked."""
    batch = kernels.probe_lines
    sizes = []

    def checked(field, parity, supports, sub):
        got = batch(field, parity, supports, sub)
        for support, vec in zip(supports.tolist(), got):
            assert (vec, True) == probe_support(field, parity, support, sub, 0, 0), support
        sizes.append(len(got))
        return got

    monkeypatch.setattr(kernels, "probe_lines", checked)
    return sizes


HEAVY = bool(os.environ.get("QMDS_HEAVY"))
# spectral P(C) levels for the batched probes: (q, d, highest level w <= r).
# Every level of (5, 6) = [26, 1] above 8 walks millions of subsets and
# finds none, and (7, d >= 5) levels above 7 walk 10**8 and more (w = 9 of
# (7, 5) takes 40 s), so tier-1 stops (5, 6) at 8 and the heavy run stops
# those of q = 7 at 7.
BATCH_CASES = [(q, d, None) for q in (2, 3, 4, 5) for d in range(2, q + 2) if (q, d) != (5, 6)]
BATCH_CASES += [(5, 6, None if HEAVY else 8)]
if HEAVY:
    BATCH_CASES += [(7, d, None if d <= 4 else 7) for d in range(2, 9)]


def scan_variants(monkeypatch, f, parity, w, sub):
    """scan_level at SCAN_CHUNK 1, 5 and the default against the reference
    scan, which ranks every support and probes them one at a time."""
    want = oracles.scan_level(f, parity, w, 11, sub=sub)
    for chunk in (1, 5, SCAN_CHUNK):
        monkeypatch.setattr(kernels, "SCAN_CHUNK", chunk)
        assert scan_level(f, parity, w, 11, sub=sub) == want, (chunk, w)
    monkeypatch.setattr(kernels, "SCAN_CHUNK", SCAN_CHUNK)


@pytest.mark.parametrize("q,d,top", BATCH_CASES, ids=str)
def test_batched_probe_matches_probe_support(monkeypatch, q, d, top):
    """Every support whose kernel is a line is settled by probe_lines as
    probe_support settles it alone, on each level of the spectral P(C):
    the necklace scan the engine runs, and where the tree above the level's
    leaves has at most 2,000 nodes, the full scan, with and without a
    subcode, against the reference scan."""
    sizes = checked_batches(monkeypatch)
    code = spectral_pc(q, d)
    f, parity = code.field, code.parity_matrix
    found = False
    for w in range(1, min(len(parity), top or len(parity)) + 1):
        found |= scan_level(f, parity, w, 11, rotations=True).witness is not None
        if sum(math.comb(code.n, j) for j in range(w - 1)) <= 2_000:
            for sub in (None, first_row_span(code)):
                scan_variants(monkeypatch, f, parity, w, sub)
    # every witness of these levels lies on a support whose kernel is a line
    assert bool(sizes) == found


@pytest.mark.parametrize("f", [F2, F3, F4, F5, F7, F8, F9], ids=lambda f: f"GF{f.q}")
def test_batched_probe_matches_probe_support_on_random_codes(monkeypatch, f):
    sizes = checked_batches(monkeypatch)
    rng = random.Random(190 + f.q)
    for code in scan_cases(f, rng):
        for w in range(1, len(code.parity_rows) + 1):
            for sub in (None, first_row_span(code)):
                scan_variants(monkeypatch, f, code.parity_matrix, w, sub)
    assert sum(sizes) > 0


def test_batched_probe_refuses_a_line_outside_the_kernel(monkeypatch):
    code = spectral_pc(3, 3)
    f, parity = code.field, code.parity_matrix
    w = next(w for w in range(1, code.n) if scan_level(f, parity, w, 0).witness)
    lines = kernels.kernel_lines

    def planted(field, mats):
        out = lines(field, mats)
        out[0, 0] = field.add(int(out[0, 0]), 1)  # the first line leaves the kernel
        return out

    monkeypatch.setattr(kernels, "kernel_lines", planted)
    with pytest.raises(Contradiction):
        scan_level(f, parity, w, 0)


def test_scan_builds_few_leaves_before_an_early_witness(monkeypatch):
    """At w = 8 the (5, 4) P(C) = [26, 17] carries a word on its 136th
    support.  The walk's chunks of nodes two levels above the leaves start
    small, so before the scan returns it builds a few hundred nodes on the
    last two levels of the tree, not the several thousand of one full
    SCAN_CHUNK."""
    code = spectral_pc(5, 4)
    f, parity = code.field, code.parity_matrix
    r, w = len(parity), 8
    low = []
    clear = kernels._clear_column

    def counted(field, pm, node, col):
        if r - pm.shape[1] + 1 >= w - 2:  # the depth of the children built
            low.append(len(node))
        return clear(field, pm, node, col)

    monkeypatch.setattr(kernels, "_clear_column", counted)
    out = scan_level(f, parity, w, DEFAULT_SEED, rotations=True)
    assert out.witness is not None and out.supports_scanned == 136
    assert 0 < sum(low) <= 600


@pytest.mark.parametrize("necklaces", [False, True])
@pytest.mark.parametrize("w", [7, 8, 9])
def test_walk_chunks_start_small_at_every_depth(monkeypatch, w, necklaces):
    """The walk's chunks of children start at SCAN_CHUNK // 64 at every
    depth, so the first dependent support of the (5, 4) P(C) = [26, 17]
    comes out of small chunks all the way down: each depth's first chunk
    holds at most that many nodes, or the children of one node if more."""
    code = spectral_pc(5, 4)
    f, parity = code.field, code.parity_matrix
    r = len(parity)
    first = {}
    clear = kernels._clear_column

    def recorded(field, pm, node, col):
        first.setdefault(r - pm.shape[1] + 1, len(node))  # the depth of the children
        return clear(field, pm, node, col)

    monkeypatch.setattr(kernels, "_clear_column", recorded)
    assert len(next(dependent_supports(f, parity, w, necklaces)))
    assert sorted(first) == list(range(1, w))
    assert max(first.values()) <= max(SCAN_CHUNK // 64, code.n - w + 1), first


def test_line_probes_stop_at_the_witness(monkeypatch):
    """At w = 9 = r the (5, 4) P(C) = [26, 17] carries a word on its 37th
    support, which the necklace walk yields in its first chunk.  The scan
    settles that chunk's supports whose kernel is a line, and no more, by
    one probe_lines call, and the outcome is that of probing the chunk's
    supports one at a time with probe_support."""
    sizes = checked_batches(monkeypatch)
    code = spectral_pc(5, 4)
    f, parity = code.field, code.parity_matrix
    w = len(parity)
    chunk = next(dependent_supports(f, parity, w, necklaces=True))
    ranks = batch_rank(f, parity[:, chunk].transpose(1, 0, 2))
    lines = np.count_nonzero(ranks == w - 1)
    for support in chunk.tolist():
        vec, _ = probe_support(f, parity, support, None, 0, 0)
        if vec is not None:
            break
    full = np.zeros(code.n, dtype=np.uint8)
    full[support] = vec
    out = scan_level(f, parity, w, DEFAULT_SEED, rotations=True)
    assert out.supports_scanned == lex_rank(code.n, support) + 1 == 37
    assert out.witness == tuple(full.tolist())
    assert not out.completed and not out.exhaustive
    assert sizes == [lines] and lines == 63


@pytest.mark.parametrize("f", [F2, F3, F5, F7, F11, F4, F9, F64], ids=repr)
def test_rank_one_update_matches_scalar_reference(f):
    rng = np.random.default_rng(f.q)
    a = rng.integers(0, f.q, size=(3, 4, 5), dtype=np.uint8)
    col = rng.integers(0, f.q, size=(3, 4, 1), dtype=np.uint8)
    inv = rng.integers(0, f.q, size=(3, 1, 1), dtype=np.uint8)
    inv[0] = 0  # a zero inverse leaves its block unchanged
    row = rng.integers(0, f.q, size=(3, 1, 5), dtype=np.uint8)
    got = kernels.rank_one_update(f, a, col, inv, row)
    for b, i, j in itertools.product(range(3), range(4), range(5)):
        fac = f.mul(f.mul(int(col[b, i, 0]), int(inv[b, 0, 0])), int(row[b, 0, j]))
        assert got[b, i, j] == f.sub(int(a[b, i, j]), fac)
    assert (got[0] == a[0]).all()


@pytest.mark.parametrize("m", range(2, 9))
def test_rank_one_update_xor_matches_the_subtraction_table(m):
    """Over GF(2**m) the difference is an XOR: it equals the gather through
    the subtraction table on the broadcast shapes of rref, batch_rank and
    _clear_column, and leaves a as it was."""
    f = build_field(2, m)
    t = f.np_tables()
    rng = np.random.default_rng(m)

    def draw(*shape):
        return rng.integers(0, f.q, size=shape, dtype=np.uint8)

    shapes = [
        (draw(6, 9), draw(6, 1), 1, draw(9)),  # rref: one pivot row
        (draw(4, 5, 7), draw(5, 7), draw(7), draw(4, 1, 7)),  # batch_rank
        (draw(3, 4, 9), draw(3, 4, 1), draw(3, 1, 1), draw(3, 1, 9)),  # _clear_column
    ]
    for a, col, inv, row in shapes:
        before = a.copy()
        want = t.sub[a, t.mul[t.mul[col, inv], row]]
        got = kernels.rank_one_update(f, a, col, inv, row)
        assert got.dtype == np.uint8 and (got == want).all()
        assert (a == before).all()


def test_sampled_probe_takes_one_philox_draw():
    # the sampled probe checks the words of one SUBSCAN_SAMPLES-message
    # draw of philox(seed, tag), in order
    parity = np.array([[1, 2, 3, 4, 1, 2, 3, 4, 1]], dtype=np.uint8)
    support = tuple(range(9))
    basis = null_space(F5, parity)
    assert basis.dtype == np.uint8 and basis.shape == (8, 9)
    assert projective_count(5, len(basis)) > SUBSCAN_EXACT_CAP
    for seed, tag in ((3, 1), (7, (9 << 32) | 5)):
        msgs = philox(seed, tag).integers(
            0, 5, size=(SUBSCAN_SAMPLES, len(basis)), dtype=np.uint8
        )
        full = [w for w in (scalar_encode(F5, m, basis) for m in msgs) if all(w)]
        vec, exact = probe_support(F5, parity, support, None, seed, tag)
        assert (vec, exact) == (full[0], False)
        # relative to the span of the first word, the next word outside it
        span = linear_code(F5, [full[0]], 9)
        vec, _ = probe_support(F5, parity, support, span.parity_matrix, seed, tag)
        assert vec == next(w for w in full if not oracles.is_member(span, w))


def test_probe_support_paths():
    # tiny kernel: the probe enumerates every candidate and says so
    parity = np.array([[1, 1, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)
    vec, exact = probe_support(F3, parity, (0, 1, 2), None, 0, 0)
    assert exact
    assert vec is not None and len(vec) == 3 and all(vec)
    # huge kernel: sampling only, flagged non-exhaustive
    f5 = build_field(5, 1)
    zero_parity = np.zeros((1, 9), dtype=np.uint8)
    assert projective_count(5, 8) > SUBSCAN_EXACT_CAP
    vec, exact = probe_support(f5, zero_parity, tuple(range(8)), None, 3, 1)
    assert not exact
    assert vec is not None and all(vec)
