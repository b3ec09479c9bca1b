"""Field tables, embeddings, and the polynomial helpers."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import oracles

from qmds import gf
from qmds.errors import (
    Contradiction,
    NotASubfield,
    NotGaloisStable,
    NotInSubfield,
    NotPrime,
    NotQuadraticTower,
    TooLarge,
    UnsupportedAlphabet,
)
from qmds.gf import (
    FieldTable,
    _find_modulus_low,
    build_field,
    conjugate,
    embed,
    field_for_order,
    norm,
    norm_preimage,
    poly_from_roots,
    subfield_order,
)

FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (3, 4),
          (5, 1), (5, 2), (7, 1), (7, 2), (13, 1)]


@pytest.mark.parametrize("p,m", FIELDS)
def test_table_closure(p, m):
    f = build_field(p, m)
    q = f.q
    assert f.exp_table[0] == 1
    assert sorted(f.exp_table[: q - 1]) == list(range(1, q))
    for v in range(1, q):
        assert f.exp_table[f.log_table[v]] == v
    assert f.log_table[0] == -1


@pytest.mark.parametrize("p,m", FIELDS)
def test_field_axioms_random(p, m):
    f = build_field(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(300):
        a = rng.randrange(f.q)
        b = rng.randrange(f.q)
        c = rng.randrange(f.q)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,m", FIELDS + [(2, 8)])
def test_np_tables_match_scalar_arithmetic(p, m):
    """Every entry of the vectorized tables, against the scalar field."""
    f = build_field(p, m)
    t = f.np_tables()
    q = f.q
    for name in ("add", "sub", "mul", "neg", "inv", "digits"):
        assert getattr(t, name).dtype == np.uint8
    assert t.digits.tolist() == [[(a // p**i) % p for i in range(m)] for a in range(q)]
    assert t.neg.tolist() == [f.neg(a) for a in range(q)]
    assert t.inv.tolist() == [0] + [f.inv(a) for a in range(1, q)]
    assert t.add.tolist() == [[f.add(a, b) for b in range(q)] for a in range(q)]
    assert t.sub.tolist() == [[f.sub(a, b) for b in range(q)] for a in range(q)]
    assert t.mul.tolist() == [[f.mul(a, b) for b in range(q)] for a in range(q)]


def test_np_tables_refuse_past_the_table_order():
    with pytest.raises(TooLarge):
        build_field(257, 1).np_tables()


def test_field_for_order():
    assert field_for_order(9).m == 2
    assert field_for_order(9).p == 3
    assert field_for_order(16).q == 16
    assert field_for_order(7).m == 1
    with pytest.raises(UnsupportedAlphabet):
        field_for_order(6)
    with pytest.raises(UnsupportedAlphabet):
        field_for_order(1)
    with pytest.raises(NotPrime):
        build_field(6, 2)
    with pytest.raises(TooLarge):
        build_field(2, 17)


def test_generator_is_primitive():
    for p, m in FIELDS:
        f = build_field(p, m)
        seen = set()
        v = 1
        for _ in range(f.q - 1):
            seen.add(v)
            v = f.mul(v, f.generator)
        assert len(seen) == f.q - 1


def test_prime_exp_table_is_powers_of_minus_low():
    # x reduces to g = -low mod p, so the exp table lists the powers of g
    primes = [p for p in range(2, 2000) if all(p % r for r in range(2, int(p**0.5) + 1))]
    for p in primes:
        f = FieldTable(p, 1)
        g = (-f.modulus[0]) % p
        powers = tuple(pow(g, i, p) for i in range(p - 1))
        assert f.exp_table == powers * 2


def test_prime_exp_table_must_close(monkeypatch):
    # x = 0 (low = 0) is no unit: its powers never return to 1
    monkeypatch.setattr(gf, "_find_modulus_low", lambda p, m: 0)
    with pytest.raises(Contradiction, match="did not close"):
        FieldTable(7, 1)


def test_modulus_snapshots():
    # regression anchors: the searched moduli must stay put or every
    # serialized artifact silently changes meaning
    assert build_field(2, 2).modulus == (1, 1, 1)
    assert build_field(3, 2).modulus == (2, 1, 1)
    assert build_field(2, 4).modulus[-1] == 1
    assert len(build_field(5, 2).modulus) == 3


def prime_powers(limit):
    for p in range(2, limit + 1):
        if all(p % s for s in range(2, int(p**0.5) + 1)):
            m = 1
            while p**m <= limit:
                yield p, m
                m += 1


def test_modulus_search_matches_step_walk():
    # screened, batched order tests against walking every power of x
    pairs = list(prime_powers(4096))
    assert (2, 12) in pairs and (7, 4) in pairs
    assert [_find_modulus_low(p, m) for p, m in pairs] == [
        oracles.step_walk_modulus_low(p, m) for p, m in pairs
    ]


@pytest.mark.skipif(not os.environ.get("QMDS_HEAVY"), reason="set QMDS_HEAVY=1 for every order")
def test_modulus_search_matches_step_walk_heavy():
    pairs = [(p, m) for p, m in prime_powers(gf.MAX_FIELD_ORDER) if m >= 2]
    assert len(pairs) == 93
    for p, m in pairs:
        assert _find_modulus_low(p, m) == oracles.step_walk_modulus_low(p, m), (p, m)


def test_tables_are_the_powers_of_x():
    # the doubling table against one power of x at a time; FieldTable, not
    # the cached build_field, so the tables of ~570 fields are not all kept
    for p, m in prime_powers(4096):
        f = FieldTable(p, m)
        lows, xs = list(f.modulus[:-1]), [p**i for i in range(m)]
        v, exp = [1] + [0] * (m - 1), []
        for _ in range(f.q - 1):
            exp.append(sum(c * x for c, x in zip(v, xs)))
            v = oracles._times_x(v, p, lows)
        assert f.exp_table == tuple(exp) * 2, (p, m)
        log = [-1] * f.q
        for i, a in enumerate(exp):
            log[a] = i
        assert f.log_table == tuple(log), (p, m)


def test_field_builds_import_no_numpy_module():
    """np.unique and np.setdiff1d, for one, import numpy.ma on first use."""
    code = (
        "import sys, qmds.cli\n"
        "from qmds import ccodes, gf\n"
        "before = set(sys.modules)\n"
        "for q, d in ((8, 2), (7, 2)):\n"
        "    for f in (gf.field_for_order(q), gf.field_for_order(q * q),\n"
        "              ccodes.mds_spec(q * q, d).root_field):\n"
        "        if f.q <= gf.MAX_TABLE_ORDER:\n"
        "            f.np_tables()\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))\n"
    )
    src = os.path.dirname(os.path.dirname(gf.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          text=True, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_embedding_sends_generator_to_smallest_log_root():
    # under norm-compatible moduli the log scaling lands on the root a
    # search over the subfield powers finds first
    pairs = [((p, a), (p, b)) for p, b in prime_powers(4096)
             for a in range(1, b) if b % a == 0]
    assert len(pairs) == 57
    for small, big in pairs:
        small, big = build_field(*small), build_field(*big)
        got = embed(small, big).map(small.generator)
        assert got == oracles.smallest_log_root(small, big), (small, big)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 4), (2, 6), (3, 4)])
def test_conjugate_and_norm(p, m):
    f = build_field(p, m)
    q0 = subfield_order(f)
    small = build_field(p, m // 2)
    emb = embed(small, f)
    for a in range(f.q):
        ca = conjugate(f, a)
        assert conjugate(f, ca) == a
        assert norm(f, a) == f.mul(a, ca)
        assert emb.contains(norm(f, a))
    with pytest.raises(NotQuadraticTower):
        subfield_order(build_field(2, 3))


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 4)])
def test_norm_surjective_with_even_fibers(p, m):
    f = build_field(p, m)
    q0 = subfield_order(f)
    small = build_field(p, m // 2)
    emb = embed(small, f)
    fibers = {}
    for a in range(1, f.q):
        fibers.setdefault(norm(f, a), 0)
        fibers[norm(f, a)] += 1
    images = {emb.map(x) for x in range(1, small.q)}
    assert set(fibers) == images
    assert all(cnt == q0 + 1 for cnt in fibers.values())
    for target in images:
        y = norm_preimage(f, target)
        assert norm(f, y) == target
    outside = next(a for a in range(1, f.q) if a not in images)
    with pytest.raises(NotInSubfield):
        norm_preimage(f, outside)


@pytest.mark.parametrize("p,a,b", [(2, 1, 2), (2, 2, 4), (2, 3, 6), (3, 1, 2),
                                   (3, 2, 4), (5, 1, 2), (5, 2, 4), (7, 2, 4)])
def test_embedding_is_a_field_map(p, a, b):
    small, big = build_field(p, a), build_field(p, b)
    emb = embed(small, big)
    for x in range(small.q):
        for y in range(small.q):
            assert emb.map(small.add(x, y)) == big.add(emb.map(x), emb.map(y))
            assert emb.map(small.mul(x, y)) == big.mul(emb.map(x), emb.map(y))
        assert emb.section(emb.map(x)) == x
    with pytest.raises(NotASubfield):
        embed(build_field(2, 2), build_field(2, 3))


# all pairs of GF(5) and GF(9), and the 16 x 16 grid of GF(128)
@pytest.mark.parametrize("p,a,b", [(5, 1, 2), (3, 2, 4), (2, 7, 14)])
def test_embedding_grid_check_catches_a_broken_map(p, a, b, monkeypatch):
    small, big = build_field(p, a), build_field(p, b)
    honest = gf.SubfieldEmbedding.map

    def scaled(emb, x):  # additive, not multiplicative
        return big.mul(big.generator, honest(emb, x))

    def inverted(emb, x):  # multiplicative, not additive
        return big.inv(honest(emb, x)) if x else 0

    for broken, message in ((scaled, "not multiplicative"), (inverted, "not additive")):
        monkeypatch.setattr(gf.SubfieldEmbedding, "map", broken)
        with pytest.raises(Contradiction, match=message):
            embed.__wrapped__(small, big)
    monkeypatch.undo()
    assert embed.__wrapped__(small, big) == embed(small, big)


@pytest.mark.parametrize("p,a,b,c", [
    (2, 1, 2, 4), (2, 2, 4, 8), (2, 3, 6, 12), (2, 1, 3, 6), (2, 2, 6, 12),
    (3, 1, 2, 4), (3, 2, 4, 8), (5, 1, 2, 4), (7, 1, 2, 4),
])
def test_embedding_triangles_commute(p, a, b, c):
    # the whole spectral machinery rests on this: going small -> mid -> big
    # must land on the same elements as going small -> big directly
    A, B, C = build_field(p, a), build_field(p, b), build_field(p, c)
    eab, ebc, eac = embed(A, B), embed(B, C), embed(A, C)
    for x in range(A.q):
        assert ebc.map(eab.map(x)) == eac.map(x)


def test_quadratic_coordinates():
    big = build_field(3, 2)
    small = build_field(3, 1)
    emb = embed(small, big)
    theta = big.generator
    for b in range(big.q):
        c0, c1 = emb.coords2(b)
        rebuilt = big.add(emb.map(c0), big.mul(emb.map(c1), theta))
        assert rebuilt == b


def test_coordinate_table_matches_coords2():
    """coords2_table, built backwards from the pairs (c0, c1), is coords2
    of every element, on every quadratic tower up to GF(256)."""
    towers = [(p, m) for p, m in prime_powers(16) if (p**m) ** 2 <= 256]
    assert len(towers) == 10
    for p, m in towers:
        emb = embed(build_field(p, m), build_field(p, 2 * m))
        table = emb.coords2_table
        assert table.dtype == np.uint8 and not table.flags.writeable
        assert table.tolist() == [list(emb.coords2(b)) for b in range(emb.big.q)]
        assert emb.coords2_table is table  # built once per embedding
    with pytest.raises(NotQuadraticTower):
        embed(build_field(2, 1), build_field(2, 3)).coords2_table


def test_poly_from_roots_galois_guard():
    big = build_field(2, 4)
    small = build_field(2, 2)
    emb = embed(small, big)
    g = big.generator
    # the orbit {g, g**4} is stable under x -> x**4, a lone root is not
    stable = poly_from_roots(big, [g, big.pow(g, 4)], emb)
    assert stable.degree == 2
    for r in (g, big.pow(g, 4)):
        acc = 0
        xp = 1
        for cf in stable.coeffs:
            acc = big.add(acc, big.mul(emb.map(cf), xp))
            xp = big.mul(xp, r)
        assert acc == 0
    with pytest.raises(NotGaloisStable):
        poly_from_roots(big, [g], emb)
