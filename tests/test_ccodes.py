"""Constacyclic specs: construction, serialization, distance bounds."""

import pytest

from qmds import ccodes
from qmds.ccodes import (
    ConstacyclicSpec,
    _check_shift_closure,
    bch_ht_bound,
    build_code,
    canonical_beta_log,
    mds_spec,
    spec_from_dict,
    spec_to_dict,
)
from qmds.errors import BadDistance, DescentFailure, TowerTooLarge
from qmds.gf import Polynomial, build_field, embed, field_for_order, poly_from_roots
from qmds.linalg import linear_code, mds_verify, min_weight
from qmds.pcode import puncture_spectral

from oracles import all_codewords, bch_ht_reference, brute_min_weight, is_member

MDS_ORDERS = [3, 4, 5, 7, 8, 9, 16, 25, 49, 64]


def pc_specs():
    """The spectral P(C) specs of the pipeline for q <= 5."""
    return [puncture_spectral(mds_spec(q * q, d)).spec
            for q in (2, 3, 4, 5) for d in range(1, q + 2)]


def generator_rows_code(spec):
    """The span of the k shifts of the spec's generator polynomial."""
    root = spec.root_field
    roots = [root.exp_table[L] for L in spec.root_logs()]
    g = list(poly_from_roots(root, roots, embed(spec.field, root)).coeffs)
    n, k = spec.n, spec.k
    return linear_code(spec.field, [[0] * i + g + [0] * (n - len(g) - i) for i in range(k)], n)


def test_frozen_spec_serializations():
    assert spec_to_dict(mds_spec(4, 3)) == {
        "Q": 4, "n": 5, "shift_log": 0, "defining_set": [2, 3],
    }
    assert spec_to_dict(mds_spec(9, 3)) == {
        "Q": 9, "n": 10, "shift_log": 1, "defining_set": [0, 1],
    }
    assert spec_to_dict(mds_spec(9, 4)) == {
        "Q": 9, "n": 10, "shift_log": 0, "defining_set": [0, 1, 9],
    }
    assert spec_to_dict(mds_spec(16, 3)) == {
        "Q": 16, "n": 17, "shift_log": 0, "defining_set": [8, 9],
    }
    assert spec_to_dict(mds_spec(25, 3)) == {
        "Q": 25, "n": 26, "shift_log": 1, "defining_set": [0, 1],
    }


@pytest.mark.parametrize("Q", [4, 5, 7, 8, 9, 16, 25])
def test_spec_round_trip(Q):
    for d in range(1, Q + 2):
        spec = mds_spec(Q, d)
        again = spec_from_dict(spec_to_dict(spec))
        assert again.defining_set == spec.defining_set
        assert again.shift_log == spec.shift_log
        assert build_code(again) == build_code(spec)


def test_mds_spec_rejects_bad_distance():
    with pytest.raises(BadDistance):
        mds_spec(4, 0)
    with pytest.raises(BadDistance):
        mds_spec(4, 7)


def test_spec_dimension_bookkeeping():
    spec = mds_spec(9, 4)
    assert spec.k == spec.n - len(spec.defining_set) == 7
    assert mds_spec(9, 1).defining_set == ()
    assert build_code(mds_spec(9, 1)).k == 10


@pytest.mark.parametrize("Q,d", [(4, 2), (4, 3), (5, 3), (8, 4), (9, 3), (9, 4)])
def test_built_code_has_prescribed_roots(Q, d):
    spec = mds_spec(Q, d)
    code = build_code(spec)
    root = spec.root_field
    emb = embed(spec.field, root)
    r1 = root.q - 1
    for L in spec.root_logs():
        x = root.exp_table[L]
        for row in code.gen:
            acc = 0
            xp = 1
            for cf in row:
                if cf:
                    acc = root.add(acc, root.mul(emb.map(cf), xp))
                xp = root.mul(xp, x)
            assert acc == 0


@pytest.mark.parametrize("Q,d", [(4, 2), (4, 3), (5, 3), (5, 4), (9, 3), (9, 5)])
def test_twisted_shift_closure(Q, d):
    spec = mds_spec(Q, d)
    code = build_code(spec)
    f = spec.field
    a = f.pow(f.generator, spec.shift_log)
    for row in code.gen:
        shifted = (f.mul(a, row[-1]),) + row[:-1]
        assert code.contains(shifted)


@pytest.mark.parametrize("Q,d", [(4, 3), (5, 3), (9, 4)])
def test_twisted_shift_closure_check_rejects_an_open_code(Q, d):
    # a same-length code whose last generator row is moved off the code:
    # some twisted shift of a row then leaves it
    spec = mds_spec(Q, d)
    good = build_code(spec)
    f = spec.field
    rows = [list(r) for r in good.gen]
    rows[-1][0] = f.add(rows[-1][0], 1)
    code = linear_code(f, rows, spec.n)
    a = f.pow(f.generator, spec.shift_log)
    shifted = [(f.mul(a, row[-1]),) + row[:-1] for row in code.gen]
    assert not all(is_member(code, s) for s in shifted)
    _check_shift_closure(spec, good)
    with pytest.raises(DescentFailure):
        _check_shift_closure(spec, code)


@pytest.mark.parametrize("Q", [4, 5, 7, 8, 9, 16, 25])
def test_twisted_shift_is_the_spec_shift_constant(Q):
    f = field_for_order(Q)
    for d in range(1, Q + 2):
        spec = mds_spec(Q, d)
        assert build_code(spec).twisted_shift == f.pow(f.generator, spec.shift_log), d


def test_twisted_shift_of_open_and_zero_codes():
    f = build_field(5, 1)
    # rows e0 + e1 and e2, e3: the shift of e2 + e3 leaves the span
    code = linear_code(f, [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 2]], 6)
    assert (code.n, code.k) == (6, 3)
    assert not any(code.shift_closed(a) for a in range(1, 5))
    assert code.twisted_shift is None
    assert linear_code(f, [], 6).twisted_shift is None
    # the whole space is closed under every twisted shift: the first is 1
    assert linear_code(f, [[int(i == j) for j in range(6)] for i in range(6)]).twisted_shift == 1


def test_beta_log_consistency_guard():
    fld = field_for_order(9)
    with pytest.raises(DescentFailure):
        ConstacyclicSpec(fld, 10, 1, (0, 1), beta_log=3)


def test_unstable_defining_set_raises():
    fld = field_for_order(9)
    # {1} alone is not closed under the Galois action on root positions
    with pytest.raises(DescentFailure):
        build_code(ConstacyclicSpec(fld, 10, 0, (1,)))


def test_tower_guard():
    # 9 has order 6 mod 73, and 9**6 overflows the table ceiling
    fld = field_for_order(9)
    with pytest.raises(TowerTooLarge):
        ConstacyclicSpec(fld, 73, 0, (0,))


def test_canonical_beta_log_is_minimal_solution():
    for Q, d in [(9, 3), (25, 3), (4, 3), (9, 5)]:
        spec = mds_spec(Q, d)
        b = canonical_beta_log(spec)
        r1 = spec.root_field.q - 1
        assert 0 <= b < r1
        assert (b * spec.n - spec.beta_log * spec.n) % r1 == 0


@pytest.mark.parametrize("Q,d", [(4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (7, 3),
                                 (8, 3), (9, 3), (9, 4), (9, 6)])
def test_bch_bound_is_exact_on_these(Q, d):
    spec = mds_spec(Q, d)
    assert bch_ht_bound(spec) == d
    code = build_code(spec)
    assert mds_verify(code) is True
    if code.field.q ** code.k <= 3**9:
        assert brute_min_weight(code) == d


def test_small_code_matches_brute_force_everywhere():
    spec = mds_spec(4, 3)
    code = build_code(spec)
    words = all_codewords(code)
    assert len(words) == 4 ** code.k
    assert brute_min_weight(code) == 3


@pytest.mark.parametrize("Q", MDS_ORDERS)
def test_bch_ht_bound_equals_the_full_search(Q):
    # an MDS spec stops at its Singleton ceiling, here its design distance
    for d in range(1, Q + 3):
        spec = mds_spec(Q, d)
        assert bch_ht_bound(spec) == bch_ht_reference(spec), d


def test_bch_ht_bound_equals_the_full_search_on_pc_specs():
    for spec in pc_specs():
        assert bch_ht_bound(spec) == bch_ht_reference(spec), spec_to_dict(spec)
    # length 122: a consecutive run alone gives 3, the shifted runs give 4,
    # which is the exact minimum weight of this P(C)
    pc = puncture_spectral(mds_spec(121, 3))
    assert bch_ht_bound(pc.spec) == bch_ht_reference(pc.spec) == 4
    mw = min_weight(pc.base)
    assert mw.exact and mw.value == 4


@pytest.mark.parametrize("Q", MDS_ORDERS)
def test_build_code_by_either_side_is_the_generator_span(Q):
    # k > deg g builds the kernel of the check polynomial's shifts
    for d in range(1, Q + 2):
        spec = mds_spec(Q, d)
        assert build_code(spec) == generator_rows_code(spec), d


def test_build_code_on_pc_specs_is_the_generator_span():
    for spec in pc_specs():
        assert build_code(spec) == generator_rows_code(spec), spec_to_dict(spec)


def test_generator_not_dividing_the_shift_polynomial_raises(monkeypatch):
    spec = mds_spec(9, 3)
    assert spec.k > len(spec.defining_set)

    def off_by_one(big, roots, target):
        g = poly_from_roots(big, roots, target)
        return Polynomial(g.field, (g.field.add(g.coeffs[0], 1),) + g.coeffs[1:])

    monkeypatch.setattr(ccodes, "poly_from_roots", off_by_one)
    with pytest.raises(DescentFailure, match="does not divide"):
        build_code(spec)
