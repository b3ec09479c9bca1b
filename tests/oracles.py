"""Slow reference implementations used only to cross-check the package.

Everything here trades speed for obviousness: full codeword enumeration,
definition-chasing membership tests, no early exits.  Keep these free of
package search machinery so a bug cannot hide in both places at once.
"""

import functools
import itertools
import math

import numpy as np

from qmds import kernels
from qmds.gf import FieldTable, conjugate


def all_codewords(code):
    """Every codeword, message-by-message; only sane for q**k <= ~10**6."""
    f = code.field
    words = []
    for msg in itertools.product(range(f.q), repeat=code.k):
        word = [0] * code.n
        for coef, row in zip(msg, code.gen):
            if coef == 0:
                continue
            for i, g in enumerate(row):
                word[i] = f.add(word[i], f.mul(coef, g))
        words.append(tuple(word))
    return words


def brute_min_weight(code):
    """Exact minimum weight by scanning the whole codebook."""
    best = None
    for word in all_codewords(code):
        w = sum(1 for x in word if x)
        if w and (best is None or w < best):
            best = w
    return best


def brute_spectrum(code):
    """Exact weight distribution A_0..A_n by scanning the whole codebook."""
    counts = [0] * (code.n + 1)
    for word in all_codewords(code):
        counts[sum(1 for x in word if x)] += 1
    return counts


def brute_min_weight_relative(big, sub):
    """Exact min weight over codewords of big that are not in sub."""
    inside = set(all_codewords(sub))
    best = None
    for word in all_codewords(big):
        if word in inside:
            continue
        w = sum(1 for x in word if x)
        if best is None or w < best:
            best = w
    return best


def macwilliams_dual_spectrum(counts, q, n, k):
    """Dual weight distribution via the Krawtchouk transform.

    Works over the integers, so any drift in the fast enumeration shows up
    as a non-integer or negative entry here.
    """
    from math import comb

    dual = []
    for j in range(n + 1):
        acc = 0
        for w, aw in enumerate(counts):
            if aw == 0:
                continue
            kraw = 0
            for s in range(j + 1):
                kraw += (-1) ** s * (q - 1) ** (j - s) * comb(w, s) * comb(n - w, j - s)
            acc += aw * kraw
        num, rem = divmod(acc, q**k)
        assert rem == 0, "MacWilliams sum not divisible by |C|"
        dual.append(num)
    return dual


def brute_puncture_code(code):
    """P(C) straight from the definition, enumerating all of GF(q)^n.

    Only usable when q**n is tiny; returns the set of member tuples.
    """
    big = code.field
    small_q = big.p ** (big.m // 2)
    words = all_codewords(code)
    members = []
    for x in itertools.product(range(small_q), repeat=code.n):
        ok = True
        for u in words:
            if not ok:
                break
            for v in words:
                acc = 0
                for xi, ui, vi in zip(x, u, v):
                    if xi and ui and vi:
                        acc = big.add(acc, big.mul(big.mul(xi, conjugate(big, ui)), vi))
                if acc:
                    ok = False
                    break
        if ok:
            members.append(x)
    return set(members)


def hermitian_gram_is_zero(code):
    """True when every pair of generator rows is Hermitian orthogonal."""
    f = code.field
    for u in code.gen:
        for v in code.gen:
            acc = 0
            for a, b in zip(u, v):
                if a and b:
                    acc = f.add(acc, f.mul(f.pow(a, f.p ** (f.m // 2)), b))
            if acc:
                return False
    return True


def is_member(code, word):
    """Membership as a rank question: adjoining the word must not grow it."""
    f = code.field
    base = [list(r) for r in code.gen]
    return _rank(f, base + [list(word)]) == _rank(f, base)


def rref(f: FieldTable, rows):
    """Reduced row echelon form, one field operation at a time on lists of
    Python ints: first nonzero row as pivot, swapped up, scaled, then
    cleared from every other row.  Returns (rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        lead = mat[r][c]
        if lead != 1:
            inv = f.inv(lead)
            mat[r] = [f.mul(inv, x) for x in mat[r]]
        top = mat[r]
        for i in range(len(mat)):
            g = mat[i][c]
            if i != r and g:
                mat[i] = [f.sub(x, f.mul(g, y)) for x, y in zip(mat[i], top)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def bch_ht_reference(spec):
    """The BCH/HT bound by the full search: every unit step e1, every run
    start, every second step e2, with no early exit."""
    n = spec.n
    z = set(spec.defining_set)
    if not z:
        return 1
    if len(z) == n:
        return n + 1
    best = 2
    for e1 in range(1, n):
        if math.gcd(e1, n) != 1:
            continue
        for b in z:
            if (b - e1) % n in z:
                continue
            ell = 1
            while (b + ell * e1) % n in z:
                ell += 1
            if ell + 1 > best:
                best = ell + 1
            for e2 in range(1, n):
                if math.gcd(e2, n) > ell:
                    continue
                s = 0
                while all((b + i * e1 + (s + 1) * e2) % n in z for i in range(ell)):
                    s += 1
                if ell + 1 + s > best:
                    best = ell + 1 + s
    return best


def _rank(f: FieldTable, rows):
    return len(rref(f, rows)[0])


def extension_rows(big, sub):
    """Rows of big.gen completing a basis of big over the subcode, greedily:
    a row joins when it raises the rank of sub.gen plus the rows taken."""
    f = big.field
    ext = []
    work = list(sub.gen)
    for row in big.gen:
        red, _ = rref(f, work + ext + [list(row)])
        if len(red) > len(work) + len(ext):
            ext.append(list(row))
    return ext


def _times_x(v, p, lows):
    """v * x mod x^m + low(x), coefficient lists lowest degree first."""
    shifted = [0] + v[:-1]
    return [(a - v[-1] * b) % p for a, b in zip(shifted, lows)]


@functools.lru_cache(maxsize=None)
def step_walk_modulus_low(p, m):
    """The defining modulus of GF(p**m) from its definition, one power of x
    at a time: the first low(x), in ascending base-p encoding, for which x
    has order p**m - 1 modulo x^m + low(x) and x**((p**m-1)/(p**d-1)) is a
    root of the GF(p**d) modulus for every maximal proper divisor d of m.
    """
    q = p**m
    one = [1] + [0] * (m - 1)
    divisors = [m // r for r in range(2, m + 1)
                if m % r == 0 and all(r % s for s in range(2, r))]
    for low in range(q):
        lows = [(low // p**i) % p for i in range(m)]
        v, step = one, 0
        while True:
            v, step = _times_x(v, p, lows), step + 1
            if v == one or not any(v) or step == q - 1:
                break
        if not (v == one and step == q - 1):
            continue
        compatible = True
        for d in divisors:
            sub = step_walk_modulus_low(p, d)
            coeffs = [(sub // p**i) % p for i in range(d)] + [1]
            ratio = (q - 1) // (p**d - 1)
            acc, v = [0] * m, one
            for step in range(ratio * d + 1):
                if step % ratio == 0:
                    c = coeffs[step // ratio]
                    acc = [(a + c * b) % p for a, b in zip(acc, v)]
                v = _times_x(v, p, lows)
            compatible = compatible and not any(acc)
        if compatible:
            return low
    return None


def smallest_log_root(small, big):
    """The root of small's modulus in big with the smallest discrete log,
    found by evaluating the modulus at every power of big's generator that
    lies in the subfield, lowest log first."""
    t = (big.q - 1) // (small.q - 1)
    for j in range(small.q - 1):
        cand = big.exp_table[(t * j) % (big.q - 1)]
        acc = 0
        for c in reversed(small.modulus):
            acc = big.add(big.mul(acc, cand), c)
        if acc == 0:
            return cand
    return None


def scan_level(field, parity, w, seed, *, sub=None):
    """kernels.scan_level by ranking every support: for w <= r (rows of the
    uint8 parity matrix), one batch_rank of each size-w support in
    itertools.combinations order keeps those of rank below w; above r every
    support is kept, up to DENSE_SUPPORT_CAP probes.  The kept supports get
    the package's probe, which asks for a word of weight w, with the same
    tags and subcode parity matrix sub, so only the choice of supports is
    checked here."""
    r, n = parity.shape
    combos = list(itertools.combinations(range(n), w))
    if w <= r and combos:
        stacks = np.moveaxis(parity[:, np.array(combos, dtype=np.intp)], 1, 0)
        keep = kernels.batch_rank(field, stacks) < w
    else:
        keep = [True] * len(combos)
    cap = kernels.DENSE_SUPPORT_CAP if w > r else math.inf
    exhaustive = True
    for i, (support, dependent) in enumerate(zip(combos, keep)):
        if not dependent:
            continue
        if i >= cap:
            return kernels.ScanOutcome(None, i, False, False)
        vec, exact = kernels.probe_support(
            field, parity, support, sub, seed, (w << 32) | i
        )
        if vec is not None:
            full = [0] * n
            for pos, val in zip(support, vec):
                full[pos] = val
            return kernels.ScanOutcome(tuple(full), i + 1, False, False)
        exhaustive = exhaustive and exact
    return kernels.ScanOutcome(None, len(combos), True, exhaustive)
