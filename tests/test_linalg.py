"""Linear codes: duals, derived codes, MDS checks, weight searches."""

import itertools
import math
import os
import random

import numpy as np
import pytest

from qmds import kernels
from qmds.budgets import MDS_SUBSET_CAP, SAMPLE_CHUNK, SearchBudget
from qmds.ccodes import build_code, mds_spec
from qmds.errors import (
    BadCoordinate,
    FieldMismatch,
    LengthMismatch,
    NotASubcode,
    QmdsError,
    TooLarge,
    ZeroDimensional,
)
from qmds.gf import _prime_power_parts, build_field, conjugate_table, field_for_order
from qmds.kernels import gf_matmul, null_space, philox
from qmds.linalg import (
    WordSearch,
    _extension_rows,
    code_from_parity,
    dual,
    hermitian_inner,
    is_subcode,
    LinearCode,
    linear_code,
    mds_verify,
    min_weight,
    min_weight_relative,
    puncture,
    shorten,
    subfield_subcode,
    words_supported_in,
)

import oracles
from oracles import (
    all_codewords,
    brute_min_weight,
    brute_min_weight_relative,
    brute_spectrum,
    is_member,
    macwilliams_dual_spectrum,
)


def route_budgets(n, k):
    """Budgets that force each route of the weight search on an [n, k] code:
    enumeration, level scans only, no scans then sampling, and one scanned
    level then sampling down to the floor it proves (n > 3)."""
    one_level = n * max(min(k, n - k), 1) ** 3
    return {
        "enumerate": SearchBudget(),
        "scan": SearchBudget(enum=0, support=10**12, samples=0),
        "sample": SearchBudget(enum=0, support=0, samples=2000),
        "scan-sample": SearchBudget(enum=0, support=one_level, samples=2000),
    }


def check_lowest(got, brute, contains, route, mds=False):
    """A search result against the brute-force minimum: a witness of the
    reported weight in the set, a floor that is a proof, and exactness
    where the route decides."""
    assert got.floor <= brute <= got.value
    assert sum(1 for x in got.witness if x) == got.value
    assert contains(got.witness)
    assert got.exact == (got.value == got.floor)
    if mds or route in ("enumerate", "scan"):
        assert got.exact and got.value == brute
    elif route == "sample":
        assert got.floor == 1
    else:
        assert got.floor == min(brute, 2)


def random_code(field, n, k, rng):
    while True:
        rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
        code = linear_code(field, rows, n)
        if code.k == k:
            return code


def test_linear_code_basics():
    f = build_field(2)
    c = linear_code(f, [(1, 0, 1), (0, 1, 1)])
    assert (c.n, c.k) == (3, 2)
    assert c.contains((1, 1, 0))
    assert not c.contains((1, 0, 0))
    with pytest.raises(LengthMismatch):
        c.contains((1, 0))
    with pytest.raises(LengthMismatch):
        linear_code(f, [(1, 0), (1, 0, 1)])
    with pytest.raises(LengthMismatch):
        linear_code(f, [(1, 0, 1), (1, 0)], 3)
    with pytest.raises(FieldMismatch):
        linear_code(f, [(0, 2, 0)])
    # out-of-range entries are refused before any uint8 cast could wrap
    # them into range: 256 to 0 and -1 to 255, an element of GF(256)
    for field in (f, build_field(2, 8)):
        for bad in (256, -1):
            rows = [(1, bad, 0), (0, 1, 1)]
            for given in (rows, np.array(rows, dtype=np.int64)):
                with pytest.raises(FieldMismatch):
                    linear_code(field, given)
    assert linear_code(f, [(1, 1), (1, 1)]).k == 1


def test_membership_refuses_entries_outside_the_field():
    # over GF(3) the mod-3 product would read 3 as 0 and 4 as 1, so both
    # vectors would pass as members of the span of (1,0,1) and (0,1,1)
    c3 = linear_code(build_field(3), [(1, 0, 1), (0, 1, 1)])
    c4 = linear_code(build_field(2, 2), [(1, 0, 1), (0, 1, 1)])
    for c, vec in [(c3, (3, 0, 0)), (c3, (4, 1, 2)),
                   (c4, (5, 0, 0)), (c4, (256, 0, 0)), (c4, (-1, 0, 0))]:
        with pytest.raises(FieldMismatch):
            c.contains(vec)
        with pytest.raises(FieldMismatch):
            c.syndromes([vec, (0, 0, 0)])
        with pytest.raises(FieldMismatch):
            code_from_parity(c.field, [vec], 3)
    assert c3.contains((1, 2, 0)) and c4.contains((1, 1, 0))


@pytest.mark.parametrize("q,n,k", [(2, 7, 3), (3, 6, 2), (4, 5, 3), (5, 6, 2), (9, 4, 2)])
def test_dual_involution_and_dimension(q, n, k):
    from qmds.gf import field_for_order

    f = field_for_order(q)
    rng = random.Random(q * 100 + n)
    for _ in range(20):
        c = random_code(f, n, k, rng)
        d = dual(c)
        assert d.k == n - c.k
        assert dual(d) == c
        for u in c.gen:
            for v in d.gen:
                acc = 0
                for a, b in zip(u, v):
                    acc = f.add(acc, f.mul(a, b))
                assert acc == 0


@pytest.mark.parametrize("q", [4, 9, 25])
def test_hermitian_dual(q):
    from qmds.gf import field_for_order

    f = field_for_order(q)
    rng = random.Random(q)
    for _ in range(10):
        c = random_code(f, 6, 2, rng)
        h = dual(c, "hermitian")
        assert h.k == c.n - c.k
        assert dual(h, "hermitian") == c
        for u in c.gen:
            for v in h.gen:
                assert hermitian_inner(f, u, v) == 0
    with pytest.raises(QmdsError, match="unknown dual kind"):
        dual(c, "symplectic")


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_parity_rows_equal_null_space_of_generator(q):
    f = field_for_order(q)
    rng = random.Random(30 + q)
    for n in (1, 4, 7):
        for k in range(n + 1):  # k = 0 and k = n included
            code = random_code(f, n, k, rng)
            want = null_space(f, code.matrix)
            assert want.dtype == np.uint8 and want.shape == (n - k, n)
            assert [list(r) for r in code.parity_rows] == want.tolist(), (n, k)


def test_matrices_are_read_only_copies_of_the_rows():
    f = build_field(3)
    for rows, n in (([(1, 0, 2, 0), (0, 1, 1, 1)], 4), ([], 3), ([(1, 0), (0, 1)], 2)):
        code = linear_code(f, rows, n)
        for mat, want in ((code.matrix, code.gen), (code.parity_matrix, code.parity_rows)):
            assert mat.dtype == np.uint8 and mat.shape == (len(want), n)
            assert mat.tolist() == [list(r) for r in want]
            with pytest.raises(ValueError):
                mat[...] = 0
        assert code.matrix is code.matrix
    # gen and parity_rows are views of plain Python ints, and a code is its
    # row space: other generator rows of it give an equal code, equal hash
    rng = random.Random(7)
    fields = (f, build_field(5), build_field(2, 6))
    for field in fields:
        for n, k in ((5, 2), (6, 3)):
            code = random_code(field, n, k, rng)
            for view in (code.gen, code.parity_rows):
                assert all(type(x) is int for row in view for x in row)
            a, b = (rng.randrange(1, field.q) for _ in range(2))
            rows = [combine(field, code.gen, (a, b, 1), n), combine(field, code.gen, (0, a), n),
                    combine(field, code.gen, (0, 0, b), n)]
            again = linear_code(field, rows, n)
            assert again == code and hash(again) == hash(code)
    # the same matrix bytes over another field or in another shape (another
    # length) make another code
    same_bytes = [linear_code(field, rows, n) for field in fields
                  for rows, n in (([(1, 0, 0, 1)], 4), ([(1, 0), (0, 1)], 2), ([], 2), ([], 3))]
    assert all(x != y for x, y in itertools.combinations(same_bytes, 2))


def test_code_from_parity_matches_dual():
    f = build_field(3)
    rows = [(1, 1, 1, 0), (0, 1, 2, 1)]
    assert code_from_parity(f, rows, 4) == dual(linear_code(f, rows))


def test_shorten_puncture_duality():
    # dual(shortened C) == punctured dual, coordinate set by coordinate set
    rng = random.Random(7)
    for q, n, k in [(2, 7, 3), (3, 6, 3), (4, 6, 2)]:
        from qmds.gf import field_for_order

        f = field_for_order(q)
        for _ in range(10):
            c = random_code(f, n, k, rng)
            coords = sorted(rng.sample(range(n), 2))
            left = dual(shorten(c, coords))
            right = puncture(dual(c), coords)
            assert left == right


def test_shorten_and_puncture_edges():
    f = build_field(2)
    c = linear_code(f, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert shorten(c, [0]).n == 3
    assert puncture(c, [0]).n == 3
    with pytest.raises(BadCoordinate):
        shorten(c, [4])
    with pytest.raises(BadCoordinate):
        puncture(c, [0, 0])


def test_words_supported_in():
    f = build_field(3)
    c = linear_code(f, [(1, 0, 2, 0), (0, 1, 1, 0), (0, 0, 0, 1)])
    sub = words_supported_in(c, [0, 1, 2])
    assert sub.n == c.n
    for row in sub.gen:
        assert row[3] == 0
        assert c.contains(row)
    # every word of the code that vanishes outside the support, over a
    # prime field and over GF(4)
    rng = random.Random(3)
    for f, n, k in [(build_field(3), 7, 4), (build_field(2, 2), 6, 4)]:
        code = random_code(f, n, k, rng)
        support = [0, 2, 3, 5]
        want = {
            w for w in all_codewords(code)
            if not any(x for j, x in enumerate(w) if j not in support)
        }
        assert set(all_codewords(words_supported_in(code, support))) == want


@pytest.mark.parametrize("q,n,k", [(2, 9, 3), (3, 8, 6), (4, 7, 2), (5, 8, 6),
                                   (9, 6, 4), (64, 9, 2), (64, 9, 7)])
def test_dual_and_supported_words_agree_on_both_sides(q, n, k):
    """Whichever side a code is eliminated from, generator rows or parity
    rows, it comes out the same, for k < n - k and k > n - k."""
    f = field_for_order(q)
    rng = random.Random(q * 10 + k)
    kinds = [("euclidean", np.arange(q, dtype=np.uint8))]
    if f.m % 2 == 0:
        kinds.append(("hermitian", conjugate_table(f)))
    for _ in range(6):
        code = random_code(f, n, k, rng)
        for kind, conj in kinds:
            spanned = linear_code(f, conj[code.parity_matrix], n)
            annihilated = code_from_parity(f, conj[code.matrix], n)
            assert dual(code, kind) == spanned == annihilated
        support = rng.sample(range(n), rng.randrange(1, n))
        outside = [j for j in range(n) if j not in support]
        msgs = null_space(f, code.matrix[:, outside].T)
        by_messages = linear_code(f, gf_matmul(f, msgs, code.matrix), n)
        units = np.eye(n, dtype=np.uint8)[outside]
        by_parity = code_from_parity(f, np.concatenate((code.parity_matrix, units)), n)
        got = words_supported_in(code, support)
        assert got == by_messages == by_parity
        keep = sorted(support)
        assert shorten(code, outside) == linear_code(f, got.matrix[:, keep], len(keep))


def test_subfield_subcode():
    big = build_field(2, 2)
    small = build_field(2, 1)
    c = linear_code(big, [(1, 2, 0), (0, 1, 1)])
    sub = subfield_subcode(c, small)
    for row in sub.gen:
        assert all(x in (0, 1) for x in row)
    for word in all_codewords(sub):
        # reading the binary labels inside GF(4) must stay inside c
        assert c.contains(tuple(word))


@pytest.mark.parametrize("Q,d", [(4, 3), (5, 3), (7, 4), (8, 5), (9, 4)])
def test_mds_verify_accepts_mds(Q, d):
    from qmds.ccodes import build_code, mds_spec

    assert mds_verify(build_code(mds_spec(Q, d))) is True


def test_mds_verify_rejects_non_mds():
    f = build_field(2)
    c = linear_code(f, [(1, 0, 0, 0), (0, 1, 1, 1)])
    assert mds_verify(c) is False
    # table fields: a Vandermonde generator is MDS until one column is made
    # proportional to another, checked on the generator side (k <= n - k)
    # and on the parity side (k > n - k)
    for f in (build_field(7, 2), build_field(2, 6)):
        for k in (3, 6):
            rows = [[f.pow(x, i) for x in range(8)] for i in range(k)]
            assert mds_verify(linear_code(f, rows)) is True
            for row in rows:
                row[7] = f.mul(f.generator, row[2])
            assert mds_verify(linear_code(f, rows)) is False


def prime_powers(limit):
    return [Q for Q in range(2, limit + 1) if len(_prime_power_parts(Q)) == 1]


def pc_codes(qs):
    """Every spectral P(C) of the pipeline over GF(q), q in qs: closed
    under a twisted shift, and mostly not MDS."""
    from qmds.pcode import puncture_spectral
    from qmds.qstab import pipeline_spec

    return [puncture_spectral(pipeline_spec(q, d)).base for q in qs for d in range(1, q + 2)]


def check_necklace_mds(codes, limit, brute_words=1024):
    """For each code and its dual with 0 < k < n and at most limit column
    subsets on the cheaper side: the code is closed under a twisted shift,
    and mds_verify, which walks only the necklaces there, agrees with the
    full walk over every subset and, for a code of at most brute_words
    words, with brute force.  Returns the verdicts, keyed by side."""
    verdicts = {"generator": [], "parity": []}
    for code in codes:
        for c in (code, dual(code)):
            n, k = c.n, c.k
            if not 0 < k < n or math.comb(n, min(k, n - k)) > limit:
                continue
            assert c.twisted_shift is not None, c
            side, mat = ("generator", c.matrix) if k <= n - k else ("parity", c.parity_matrix)
            got = mds_verify(c)
            assert got is kernels.independent_subsets(c.field, mat, min(k, n - k),
                                                      necklaces=False), c
            if c.field.q**k <= brute_words:
                assert got is (brute_min_weight(c) == n - k + 1), c
            verdicts[side].append(got)
    return verdicts


def test_necklace_mds_check_matches_the_full_walk_and_brute_force():
    """Every mds_spec code over GF(Q), Q <= 32, and its dual, on either
    side, up to 10**5 column subsets (the heavy test below goes to the
    cap), and every spectral P(C) with q <= 5."""
    codes = [build_code(mds_spec(Q, d)) for Q in prime_powers(32) for d in range(1, Q + 3)]
    mds = check_necklace_mds(codes, 10**5)
    assert all(map(all, mds.values())) and min(map(len, mds.values())) > 100
    pc = check_necklace_mds(pc_codes((2, 3, 4, 5)), MDS_SUBSET_CAP)
    assert pc["generator"].count(False) > 4 and pc["parity"].count(False) > 4


@pytest.mark.skipif(not os.environ.get("QMDS_HEAVY"), reason="set QMDS_HEAVY=1 for every Q <= 128")
def test_necklace_mds_check_matches_the_full_walk_heavy():
    """Every prime power Q <= 128 at d = 3..6, and every spectral P(C)
    with q <= 7, up to MDS_SUBSET_CAP subsets."""
    codes = [build_code(mds_spec(Q, d)) for Q in prime_powers(128) for d in range(3, min(6, Q + 2) + 1)]
    mds = check_necklace_mds(codes, MDS_SUBSET_CAP, brute_words=0)
    assert all(map(all, mds.values())) and len(mds["parity"]) > 100
    check_necklace_mds(pc_codes((2, 3, 4, 5, 7)), MDS_SUBSET_CAP)


def test_necklace_walk_needs_a_twisted_shift():
    """A code with no twisted shift whose one dependent pair of generator
    columns is {3, 4}: the least rotation of that pair, {0, 1}, is
    independent, so a necklace walk alone calls the code MDS, and
    mds_verify must walk every pair."""
    f = build_field(3)
    code = linear_code(f, [[1, 0, 1, 1, 2], [0, 1, 1, 2, 1]])
    assert (code.n, code.k) == (5, 2) and code.twisted_shift is None
    assert kernels.independent_subsets(f, code.matrix, 2, necklaces=True)
    assert mds_verify(code) is False
    assert brute_min_weight(code) == 3


def searched_shift(code):
    """The twisted shift by search: the first a in GF(q)*, by discrete log,
    with code.shift_closed(a)."""
    if not code.k:
        return None
    units = code.field.exp_table[:code.field.q - 1]
    return next((a for a in units if code.shift_closed(a)), None)


def test_twisted_shift_is_solved_in_one_syndrome_product(monkeypatch):
    """The solved shift equals the search over GF(q)* on every mds_spec
    code with Q <= 25 and its dual, on random and sparse codes that are
    not shift closed, and on codes whose last column or parity column 0 is
    zero, where the shift does not depend on a; and no code costs more
    than one syndrome product."""
    rng = random.Random(25)
    codes = []
    for Q in prime_powers(25):
        f = field_for_order(Q)
        for d in range(1, Q + 3):
            c = build_code(mds_spec(Q, d))
            codes += [c, dual(c)]
        n = Q + 1
        codes += [random_code(f, n, k, rng) for k in (1, n // 2, n - 1)]
        sparse = [[rng.choice((0, 0, 0, 1)) for _ in range(n)] for _ in range(3)]
        codes.append(linear_code(f, sparse, n))
        codes.append(linear_code(f, [], n))
        codes.append(linear_code(f, np.eye(n, dtype=np.uint8)))
        # last column zero: every twisted shift is the plain rotation
        codes.append(linear_code(f, [[1] * (n - 1) + [0]]))
        codes.append(linear_code(f, [[0, 1] + [0] * (n - 2)]))
        # e_0 in the code: parity column 0 is zero
        codes.append(linear_code(f, [[1] + [0] * (n - 1), [0] + [1] * (n - 1)]))
    calls = []
    syndromes = LinearCode.syndromes

    def counted(self, rows):
        calls.append(self)
        return syndromes(self, rows)

    shifts = []
    for c in codes:
        # fresh objects: a code's shift is cached once computed
        want = searched_shift(LinearCode(c.field, c.matrix))
        fresh = LinearCode(c.field, c.matrix)
        monkeypatch.setattr(LinearCode, "syndromes", counted)
        calls.clear()
        shifts.append(fresh.twisted_shift)
        monkeypatch.setattr(LinearCode, "syndromes", syndromes)
        assert shifts[-1] == want, c
        assert len(calls) <= 1, (c, len(calls))
    assert shifts.count(None) > 50 and shifts.count(1) > 50
    assert len(set(shifts)) > 10


@pytest.mark.parametrize("q,n,k", [(2, 8, 4), (3, 7, 3), (4, 6, 3), (5, 5, 2)])
def test_min_weight_matches_brute_force(q, n, k):
    from qmds.gf import field_for_order

    f = field_for_order(q)
    rng = random.Random(q * n + k)
    for _ in range(15):
        c = random_code(f, n, k, rng)
        got = min_weight(c)
        brute = brute_min_weight(c)
        assert got.exact
        assert got.value == brute
        wt = sum(1 for x in got.witness if x)
        assert wt == got.value
        assert c.contains(got.witness)
        # the ladder itself, past the MDS shortcut, on every route
        for route, budget in route_budgets(n, k).items():
            check_lowest(WordSearch(c).lowest(budget), brute, c.contains, route)
            check_lowest(min_weight(c, budget), brute, c.contains, route,
                         mds=brute == n - k + 1)
    with pytest.raises(ZeroDimensional):
        min_weight(linear_code(f, [], 4))


def test_min_weight_search_paths_agree():
    # same code, three ladders: force enumeration off, then supports off,
    # and check every exact answer agrees with the unrestricted one
    f = build_field(3)
    rng = random.Random(99)
    c = random_code(f, 9, 4, rng)
    free = min_weight(c)
    no_enum = min_weight(c, SearchBudget(enum=1))
    assert free.exact and no_enum.exact
    assert free.value == no_enum.value


def test_min_weight_searches_when_the_mds_check_is_too_large(monkeypatch):
    """With no column subset allowed, mds_verify raises TooLarge and
    min_weight still returns the exact distance, through the search."""
    from qmds import linalg
    from qmds.ccodes import build_code, mds_spec

    monkeypatch.setattr(linalg, "MDS_SUBSET_CAP", 0)
    searched = []
    lowest = WordSearch.lowest

    def counted(self, budget):
        searched.append(self.code)
        return lowest(self, budget)

    monkeypatch.setattr(WordSearch, "lowest", counted)
    rng = random.Random(17)
    codes = [build_code(mds_spec(Q, d)) for Q, d in ((4, 3), (5, 3), (7, 4))]
    codes += [random_code(build_field(3), 8, k, rng) for k in (2, 4, 6)]
    for c in codes:
        with pytest.raises(TooLarge):
            mds_verify(c)
        got = min_weight(c)
        assert got.exact and got.value == brute_min_weight(c)
        assert c.contains(got.witness)
        assert searched[-1] is c
    assert len(searched) == len(codes)


def test_scan_gate_formula(monkeypatch):
    """WordSearch.scan refuses a level, returning None, exactly when
    C(n, w) * max(min(k, n - k), 1)**3 exceeds budget.support.  The kernel
    scan is stubbed out: only the gate is under test."""
    from qmds import kernels

    scanned = []

    def stub(field, parity, w, seed, **kwargs):
        scanned.append(w)
        return kernels.ScanOutcome(None, 0, False, False)

    monkeypatch.setattr(kernels, "scan_level", stub)
    f = build_field(2)
    rng = random.Random(11)
    cases = [(10, 3, 5, 10**6, True), (10, 3, 5, 10**4, False),
             (26, 7, 16, 10**10, True), (26, 7, 16, 10**8, False)]
    for n, w, k, support, runs in cases:
        search = WordSearch(random_code(f, n, k, rng))
        assert (search.scan(w, SearchBudget(support=support)) is not None) is runs
    # at the formula's value and one below it; a side of 0 counts as 1
    for n, k in ((10, 5), (26, 16), (6, 6), (7, 1)):
        search = WordSearch(random_code(f, n, k, rng))
        for w in range(1, n + 1):
            cost = math.comb(n, w) * max(min(k, n - k), 1) ** 3
            assert search.scan(w, SearchBudget(support=cost)) is not None
            assert search.scan(w, SearchBudget(support=cost - 1)) is None
    assert len(scanned) == 2 + 10 + 26 + 6 + 7
    assert not search.absent and not search.found

@pytest.mark.parametrize("q,n,k,ksub", [(2, 7, 4, 2), (3, 6, 3, 1), (4, 5, 3, 2)])
def test_min_weight_relative_matches_brute_force(q, n, k, ksub):
    from qmds.gf import field_for_order

    f = field_for_order(q)
    rng = random.Random(q + n + k)
    hits = 0
    while hits < 10:
        big = random_code(f, n, k, rng)
        sub = linear_code(f, big.gen[:ksub], n)
        got = min_weight_relative(big, sub)
        brute = brute_min_weight_relative(big, sub)
        assert got.exact
        assert got.value == brute
        assert big.contains(got.witness) and not sub.contains(got.witness)
        for route, budget in route_budgets(n, k).items():
            check_lowest(
                min_weight_relative(big, sub, budget), brute,
                lambda v: big.contains(v) and not sub.contains(v), route,
            )
        hits += 1
    with pytest.raises(NotASubcode):
        min_weight_relative(sub, big)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_scan_route_returns_the_reference_witness_of_the_lowest_level(q):
    """The scan route of lowest climbs levels that each ask for a word of
    weight w.  Every lower weight is proven absent by then, so the first
    level that finds a word finds the lowest weight, and its witness is the
    reference scan's at that level."""
    f = field_for_order(q)
    rng = random.Random(500 + q)
    for seed in range(6):
        n = rng.randint(5, 7)
        big = random_code(f, n, rng.randint(2, 4), rng)
        sub = linear_code(f, rng.sample(all_codewords(big), rng.randint(1, big.k - 1)), n)
        budget = SearchBudget(enum=1, support=10**12, samples=0, seed=seed)
        for s, brute in ((None, brute_min_weight(big)),
                         (sub, brute_min_weight_relative(big, sub))):
            got = WordSearch(big, s).lowest(budget)
            assert got.exact and got.value == brute, (big, s)
            ref = oracles.scan_level(
                f, big.parity_matrix, brute, seed, sub=None if s is None else s.parity_matrix
            )
            assert got.witness == ref.witness, (big, s)


def test_raising_a_budget_keeps_an_exact_minimum():
    from qmds.gf import field_for_order

    rng = random.Random(2024)
    base = SearchBudget(enum=5, support=200, samples=20, seed=3)
    raised = [
        SearchBudget(enum=10**6, support=200, samples=20, seed=3),
        SearchBudget(enum=5, support=10**12, samples=20, seed=3),
        SearchBudget(enum=5, support=200, samples=10**4, seed=3),
    ]
    decided = 0
    for q, n, k, ksub in [(2, 9, 4, 1), (3, 7, 3, 1), (4, 6, 3, 1)]:
        f = field_for_order(q)
        for _ in range(5):
            big = random_code(f, n, k, rng)
            sub = linear_code(f, big.gen[:ksub], n)
            for search in (lambda b: min_weight(big, b),
                           lambda b: min_weight_relative(big, sub, b)):
                low = search(base)
                for budget in raised:
                    high = search(budget)
                    if low.exact:
                        decided += 1
                        assert high.exact and high.value == low.value
    assert decided


def test_min_weight_relative_empty_set():
    f = build_field(2)
    c = linear_code(f, [(1, 1, 0), (0, 1, 1)])
    res = min_weight_relative(c, c)
    assert res.status == "undefined"


def test_spectrum_against_macwilliams():
    f = build_field(3)
    rng = random.Random(5)
    c = random_code(f, 6, 3, rng)
    primal = brute_spectrum(c)
    dual_counts = brute_spectrum(dual(c))
    assert macwilliams_dual_spectrum(primal, 3, c.n, c.k) == dual_counts


# GF(2), GF(4), GF(5), GF(7), GF(8), GF(9), GF(49), GF(64): the syndrome
# product over prime fields and over the digits of extension fields
MEMBER_FIELDS = [(2, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (7, 2), (2, 6)]


def combine(f, rows, coeffs, n):
    """sum coeffs[i] * rows[i], one field operation at a time."""
    word = [0] * n
    for c, row in zip(coeffs, rows):
        word = [f.add(x, f.mul(c, y)) for x, y in zip(word, row)]
    return tuple(word)


def random_member(f, code, rng):
    return combine(f, code.gen, [rng.randrange(f.q) for _ in code.gen], code.n)


def near_member(f, code, rng):
    """A member with one coordinate moved to another value."""
    word = list(random_member(f, code, rng))
    i = rng.randrange(code.n)
    word[i] = f.add(word[i], rng.randrange(1, f.q))
    return tuple(word)


def random_subcode(f, code, j, rng):
    rows = [random_member(f, code, rng) for _ in range(j)]
    return linear_code(f, rows, code.n)


def member_codes(p, m, seed):
    """(field, code, rng) for every dimension 0..n of one length."""
    f = build_field(p, m)
    n = 8 if f.q == 2 else 7
    rng = random.Random(seed)
    for k in range(n + 1):
        yield f, random_code(f, n, k, rng) if k else linear_code(f, [], n), rng


def test_is_member_oracle_agrees_with_contains():
    f = build_field(2, 2)
    rng = random.Random(11)
    c = random_code(f, 6, 3, rng)
    for _ in range(50):
        vec = tuple(rng.randrange(4) for _ in range(6))
        assert c.contains(vec) == is_member(c, vec)
    # members, near-members and random vectors, every dimension 0..n
    for p, m in MEMBER_FIELDS:
        for f, c, rng in member_codes(p, m, 31 * p + m):
            vecs = [random_member(f, c, rng) for _ in range(8)]
            vecs += [near_member(f, c, rng) for _ in range(8)]
            vecs += [tuple(rng.randrange(f.q) for _ in range(c.n)) for _ in range(4)]
            expect = [is_member(c, v) for v in vecs]
            assert expect[:8] == [True] * 8
            assert [c.contains(v) for v in vecs] == expect
            assert (~c.syndromes(vecs).any(axis=1)).tolist() == expect


@pytest.mark.parametrize("p,m", MEMBER_FIELDS)
def test_is_subcode_matches_oracle(p, m):
    for f, c, rng in member_codes(p, m, 17 * p + m):
        for j in range(c.k + 1):
            sub = random_subcode(f, c, j, rng)
            assert is_subcode(sub, c)
            assert is_subcode(c, sub) == (sub.k == c.k)
            if not sub.k:
                continue
            rows = [list(r) for r in sub.gen]
            i = rng.randrange(sub.k)
            t = rng.randrange(c.n)
            rows[i][t] = f.add(rows[i][t], rng.randrange(1, f.q))
            bent = linear_code(f, rows, c.n)
            assert is_subcode(bent, c) == all(is_member(c, r) for r in bent.gen)


@pytest.mark.parametrize("p,m", MEMBER_FIELDS)
def test_extension_rows_match_greedy_oracle(p, m):
    for f, c, rng in member_codes(p, m, 13 * p + m):
        for j in range(c.k + 1):
            # a random subcode, and the span of the last j generator rows,
            # which makes the greedy pass skip rows
            for sub in (random_subcode(f, c, j, rng),
                        linear_code(f, c.gen[c.k - j:], c.n)):
                want = oracles.extension_rows(c, sub)
                got = _extension_rows(c, sub)
                assert got.dtype == np.uint8 and got.shape == (c.k - sub.k, c.n)
                assert got.tolist() == want


def test_is_subcode():
    f = build_field(2)
    big = linear_code(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    small = linear_code(f, [(1, 1, 0)])
    assert is_subcode(small, big)
    assert not is_subcode(big, small)


SAMPLE_COUNT = 2 * SAMPLE_CHUNK + 37


def reference_sample(search, count, seed, tag, stop=None):
    """What WordSearch.sample records, from numpy's own draws of
    philox(seed, tag), SAMPLE_CHUNK messages at a time, each encoded in
    full: the first word of each weight in stream order, cut after the
    chunk that first holds weight stop."""
    f, rows = search.code.field, search.rows
    rng = philox(seed, tag)
    found = {}
    for start in range(0, count, SAMPLE_CHUNK):
        size = (min(SAMPLE_CHUNK, count - start), len(rows))
        msgs = rng.integers(0, f.q, size=size, dtype=np.uint8)
        words = gf_matmul(f, msgs, rows)
        if search.sub is not None:
            words = words[msgs[:, :search.leads].any(axis=1)]
        for word in words.tolist():
            w = sum(1 for x in word if x)
            if w:
                found.setdefault(w, tuple(word))
        if stop in found:
            break
    return found


def sampled_found(code, sub, seed, stop=None):
    search = WordSearch(code, sub)
    search.sample(SearchBudget(samples=SAMPLE_COUNT, seed=seed), tag=0x5A, stop=stop)
    return search, reference_sample(search, SAMPLE_COUNT, seed, 0x5A, stop)


@pytest.mark.parametrize("p,m", [(5, 1), (2, 2), (3, 2)])
def test_sample_matches_full_encoding(p, m):
    f = build_field(p, m)
    rng = random.Random(7 * p + m)
    code = random_code(f, 9, 4, rng)
    for sub in (None, random_subcode(f, code, 2, rng)):
        search, want = sampled_found(code, sub, seed=p + m)
        assert search.found == want and len(want) > 3
        assert search.sampled == (SAMPLE_COUNT, p + m, 0x5A)
        # stopping at each weight seen cuts after its first chunk, unsampled
        for stop in want:
            search, cut = sampled_found(code, sub, seed=p + m, stop=stop)
            assert search.found == cut and stop in cut
            assert search.sampled is None


def test_sample_matches_full_encoding_without_unit_columns():
    # relative to a dense subcode no column of the rows has a single
    # nonzero entry: every message's weight bound is [0, n], and every
    # message is encoded
    f = build_field(5)
    rng = random.Random(3)
    code = random_code(f, 9, 4, rng)
    sub = random_subcode(f, code, 2, rng)
    search, want = sampled_found(code, sub, seed=5)
    assert (np.count_nonzero(search.rows, axis=0) > 1).all()
    assert search.found == want and len(want) > 3
    assert search.sampled == (SAMPLE_COUNT, 5, 0x5A)


def test_sample_matches_full_encoding_and_stops_drawing_once_complete(monkeypatch):
    # the first chunk of GF(5)**3 holds every weight 1..3, so the pass
    # draws one chunk of its three and still counts as full
    f = build_field(5)
    code = linear_code(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    draws = []
    raw = kernels.PhiloxStream.raw
    monkeypatch.setattr(kernels.PhiloxStream, "raw",
                        lambda self, cnt, k: draws.append(cnt) or raw(self, cnt, k))
    search, want = sampled_found(code, None, seed=11)
    assert search.found == want and sorted(want) == [1, 2, 3]
    assert draws == [SAMPLE_CHUNK] and SAMPLE_COUNT > 2 * SAMPLE_CHUNK
    assert search.sampled == (SAMPLE_COUNT, 11, 0x5A)
    # a later pass with found complete draws nothing
    draws.clear()
    search.sample(SearchBudget(samples=SAMPLE_COUNT, seed=12), tag=0x5A)
    assert draws == [] and search.sampled == (SAMPLE_COUNT, 12, 0x5A)


@pytest.mark.parametrize("seed,late", [(13, 15), (14, 1)])
def test_sample_matches_full_encoding_where_weight_is_the_bound(seed, late):
    # over the identity every column is a unit column, so a message's
    # bound is its weight alone.  In GF(2)**16 the weight `late` is missing
    # from the first chunk of this stream while a weight next to it is not,
    # and the pass must still encode its first message in a later chunk
    f = build_field(2)
    code = linear_code(f, np.eye(16, dtype=np.uint8))
    search, want = sampled_found(code, None, seed=seed)
    assert search.found == want and late in want


def test_sample_matches_full_encoding_relative_cut_at_stop():
    # relative to span(e0) every weight 1..3 is found in the first chunk;
    # the stop cut still comes first, and the pass does not count as full
    f = build_field(5)
    code = linear_code(f, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    sub = linear_code(f, [(1, 0, 0)])
    for stop in (1, 2, 3):
        search, want = sampled_found(code, sub, seed=11, stop=stop)
        assert search.found == want and sorted(want) == [1, 2, 3]
        assert search.sampled is None
        assert all(word[1] or word[2] for word in want.values())


# RREF generators that are their own reduced form: unit columns scaled by
# elements other than 1, two unit columns in one row, all-zero columns, and
# identity generators, whose words are read off their messages alone
HAND_BUILT = [
    (5, 1, [(1, 0, 3, 0, 2), (0, 1, 0, 0, 4)]),
    (3, 2, [(1, 0, 0, 5, 0, 7, 0), (0, 1, 0, 0, 0, 1, 4), (0, 0, 1, 2, 0, 3, 0)]),
    (2, 2, [(1, 0, 2, 0), (0, 1, 0, 3)]),
    (2, 2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    (5, 1, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
]


@pytest.mark.parametrize("p,m,rows", HAND_BUILT)
def test_sample_matches_full_encoding_on_hand_built_generators(p, m, rows):
    f = build_field(p, m)
    code = linear_code(f, rows)
    assert code.matrix.tolist() == [list(r) for r in rows]
    for sub in (None, linear_code(f, rows[:1], code.n)):
        search, want = sampled_found(code, sub, seed=11)
        assert search.found == want
