"""Search kernels: exact linear algebra helpers plus the vectorized engines
behind weight searches.

Everything here stays exact.  The numpy paths take and return uint8 field
elements.  Over a prime field GF(p) they compute with integers reduced mod p;
over other fields they go through per-field lookup tables.  Either way they
are just a faster way to run the same integer computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .budgets import (
    DENSE_SUPPORT_CAP,
    ENUM_CHUNK,
    RANK_CHUNK,
    SAMPLE_CHUNK,
    SUBSCAN_EXACT_CAP,
    SUBSCAN_SAMPLES,
)
from .gf import MAX_TABLE_ORDER


def np_matrix(field, rows, ncols: int) -> np.ndarray:
    if not rows:
        return np.zeros((0, ncols), dtype=np.uint8)
    return np.array([list(r) for r in rows], dtype=np.uint8)


def gf_matmul(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact (x, k) @ (k, y) product over the field: the one encode kernel.

    Over GF(p) this is a float32 (BLAS) matmul reduced mod p, used while
    k * (p-1)**2 < 2**24: every partial sum is then an integer that float32
    holds exactly, whatever the summation order.  Otherwise a loop of table
    gathers.
    """
    p = field.p
    if field.m == 1 and p <= MAX_TABLE_ORDER and a.shape[1] * (p - 1) ** 2 < 2**24:
        out = _reduce_float32(a.astype(np.float32) @ b.astype(np.float32), p)
        return out.astype(np.uint8)
    t = field.np_tables()
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        col = a[:, j]
        if col.any():
            out = t.add[out, t.mul[col[:, None], b[j][None, :]]]
    return out


def _reduce_float32(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for float32 integers 0 <= x < 2**24 and a prime
    p <= 256.  The quotient is a true (correctly rounded) division: it
    never rounds up across a multiple of p in that range, so its floor is
    exact, and so are the product and the difference."""
    q = x / np.float32(p)
    np.floor(q, out=q)
    q *= np.float32(p)
    x -= q
    return x


def rref(field, rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns), the rows as
    lists of Python ints.

    Eliminates a uint8 copy through the field's lookup tables: each pivot
    clears its column from every other row in one rank-1 update.
    """
    if not len(rows):
        return [], []
    t = field.np_tables()
    mat = np.array(rows, dtype=np.uint8)
    nrows, ncols = mat.shape
    pivots = []
    r = 0
    for c in range(ncols):
        # any nonzero entry may pivot: the reduced form is unique
        pr = r + int(mat[r:, c].argmax())
        lead = mat[pr, c]
        if not lead:
            continue
        top = t.mul[t.inv[lead], mat[pr, c:]]
        # rows r.. are zero left of c, so row r moves to pr and the update
        # touches columns c.. only; it zeroes row r, which then takes top
        mat[pr, c:] = mat[r, c:]
        mat[:, c:] = t.sub[mat[:, c:], t.mul[mat[:, c, None], top]]
        mat[r, c:] = top
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r].tolist(), pivots


def null_space(field, rows, ncols: int):
    """Basis of the right kernel {v : rows @ v = 0}, vectors of length ncols."""
    red, pivots = rref(field, rows)
    in_pivots = set(pivots)
    basis = []
    for fcol in range(ncols):
        if fcol in in_pivots:
            continue
        v = [0] * ncols
        v[fcol] = 1
        for rrow, pcol in zip(red, pivots):
            v[pcol] = field.neg(rrow[fcol])
        basis.append(v)
    return basis


def _elimination_prime(field) -> int:
    """p when batch_rank can eliminate over GF(p) in uint8 integers, else 0.

    A row update forms sub + col * (-1/pivot) * prow before reducing it mod
    p, each of the three factors below p.  Its largest value
    (p-1) + (p-1)**3 must fit uint8, which holds for p <= 7.
    """
    p = field.p
    return p if field.m == 1 and (p - 1) + (p - 1) ** 3 <= 255 else 0


def batch_rank(field, mats: np.ndarray) -> np.ndarray:
    """Ranks of a (B, r, w) stack of matrices by lockstep elimination.

    Each step takes the first remaining column.  A matrix whose column is
    nonzero gains a pivot, its last nonzero row, and the column is cleared
    from every row, the pivot row included: that row becomes zero and can
    never pivot again, so no row is swapped or masked.  The column is then
    dropped, and the stack narrows by one column per step.  The stack is
    held column-major with the batch last, so every update runs along
    contiguous memory.
    """
    t = field.np_tables()
    p = _elimination_prime(field)
    m = np.ascontiguousarray(np.asarray(mats, dtype=np.uint8).transpose(2, 1, 0))
    w, r, nb = m.shape
    rank = np.zeros(nb, dtype=np.int64)
    ar = np.arange(nb)
    rows1 = np.arange(1, r + 1, dtype=np.min_scalar_type(r))[:, None]
    for _ in range(w):
        col = m[0]
        last = ((col != 0) * rows1).max(axis=0)  # pivot row + 1, or 0
        has = last != 0
        rank += has
        piv = last - has
        # a zero column picks row 0, whose zero entry has table inverse 0:
        # every factor is then zero and the matrix stays as it is
        inv = t.inv[col[piv, ar]]
        prow = m[1:, piv, ar][:, None, :]
        if p:
            # m - col/pivot * prow, each factor below p before the sum
            upd = col * ((p - inv) % p) * prow
            upd += m[1:]
            upd %= p
        else:
            upd = t.sub[m[1:], t.mul[t.mul[col, inv], prow]]
        m = upd
    return rank


def _clear_column(field, pm: np.ndarray, node: np.ndarray, col: np.ndarray) -> np.ndarray:
    """For each pair (node, col): the node's matrix after the rank-1 update
    that clears column col, without the pivot row (the first nonzero entry
    of that column, which must exist)."""
    t = field.np_tables()
    p = _elimination_prime(field)
    colv = pm[node, :, col]
    ar = np.arange(len(node))
    piv = np.argmax(colv != 0, axis=1)
    keep = np.arange(pm.shape[1] - 1)[None, :]
    keep = keep + (keep >= piv[:, None])
    inv = t.inv[colv[ar, piv]][:, None]
    if p:
        fac = (colv[ar[:, None], keep] * inv % p)[:, :, None]
        upd = (p - 1) * fac * pm[node, piv, :][:, None, :]
        upd += pm[node[:, None], keep, :]
        upd %= p
        return upd
    fac = t.mul[colv[ar[:, None], keep], inv][:, :, None]
    upd = t.mul[fac, pm[node, piv, :][:, None, :]]
    return t.sub[pm[node[:, None], keep, :], upd]


def independent_subsets(field, mat: np.ndarray, size: int) -> bool:
    """True when every `size` columns of the (r, n) matrix are independent,
    for 1 <= size <= r.

    The column subsets form a lexicographic prefix tree, walked depth first
    and vectorised over the nodes of one level.  A node with j prefix
    columns holds P = A @ mat, where the r - j rows of A span the left
    kernel of those columns, so a further column c depends on the prefix
    exactly when P[:, c] is zero.  A child keeps P after one rank-1 update
    that clears its column, minus the pivot row.  Children are built in
    chunks of at most RANK_CHUNK (or the children of one node, if more),
    which bounds memory, and the walk stops at the first dependent column
    that still leaves room for a whole subset.
    """
    n = mat.shape[1]
    cols = np.arange(n)

    def walk(j, pm, last):
        # child columns: after the last prefix column, and early enough to
        # leave room for the size - j - 1 columns still to come
        kids = cols > last[:, None]
        kids &= cols <= n - size + j
        dead = pm.any(axis=1)
        np.logical_not(dead, out=dead)  # in place: the leaf level is the widest
        dead &= kids
        if dead.any():
            return False
        if j == size - 1:
            return True
        fan = np.cumsum(kids.sum(axis=1))
        start = 0
        while start < len(fan):
            base = fan[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(fan, base + RANK_CHUNK, side="right")))
            node, col = np.nonzero(kids[start:stop])
            if len(node) and not walk(j + 1, _clear_column(field, pm, node + start, col), col):
                return False
            start = stop
        return True

    return walk(0, mat[None], np.full(1, -1))


def projective_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def _counter_digits(start: int, cnt: int, ndigits: int, q: int) -> np.ndarray:
    out = np.zeros((cnt, ndigits), dtype=np.uint8)
    vals = np.arange(start, start + cnt, dtype=np.int64)
    for j in range(ndigits - 1, -1, -1):
        out[:, j] = vals % q
        vals //= q
    return out


def iter_projective_words(field, gen, chunk: int = ENUM_CHUNK, leads: int | None = None):
    """Yield word chunks covering every projective class of the row space.

    The visiting order is fixed: lead row index ascending, then the tail
    message as a base-q counter.  Witness extraction that takes the first
    hit in this order is therefore deterministic.

    With leads=e only the first e rows lead, so the words are those of the
    row space outside the span of the last k - e rows, one per projective
    class of the first e rows' coefficients.

    Each word costs one field addition.  Per lead row the low block, every
    message over the last a rows in counter order (q**a <= chunk), is
    encoded once, and so are the high words: the lead row plus the middle
    rows, leading digit 1.  Each chunk is one high word added to the whole
    low block, one addition-table gather per coordinate.
    """
    g = np.asarray(gen, dtype=np.uint8)
    k, n = g.shape[0], g.shape[-1]
    q = field.q
    add = field.np_tables().add
    amax = 0
    while q ** (amax + 1) <= chunk:
        amax += 1
    for lead in range(k if leads is None else leads):
        tail = k - lead - 1
        a = min(tail, amax)
        nhigh = q ** (tail - a)
        # counting from q**(tail-a) makes the leading digit 1: the lead row
        high = gf_matmul(field, _counter_digits(nhigh, nhigh, tail - a + 1, q), g[lead:k - a])
        if not a:
            for start in range(0, nhigh, chunk):
                yield high[start:start + chunk]
            continue
        low = gf_matmul(field, _counter_digits(0, q**a, a, q), g[k - a:])
        # word h + low[i] at column c is add[h[c], low[i, c]]: entry
        # low[i, c] + q*c of the flattened (n, q) rows add[h]
        at = low + np.arange(0, q * n, q, dtype=np.intp)
        for h in high:
            yield add[h].ravel().take(at)


def philox(seed: int, tag: int) -> np.random.Generator:
    key = ((seed & (2**64 - 1)) << 64) | (tag & (2**64 - 1))
    return np.random.Generator(np.random.Philox(key=key))


def iter_sampled_words(field, gen, count: int, seed: int, tag: int = 0x5A):
    """Yield (msgs, words) chunks from a deterministic Philox stream.

    The stream depends on (seed, tag, count) only; chunk size is a fixed
    constant so partitioning hints can never change what gets drawn.
    """
    g = np.array([list(r) for r in gen], dtype=np.uint8)
    k = g.shape[0]
    q = field.q
    rng = philox(seed, tag)
    remaining = count
    while remaining > 0:
        cnt = int(min(SAMPLE_CHUNK, remaining))
        msgs = rng.integers(0, q, size=(cnt, k), dtype=np.uint8)
        yield msgs, gf_matmul(field, msgs, g)
        remaining -= cnt


@dataclass
class ScanOutcome:
    """Result of one support-scan level."""

    witness: tuple | None
    supports_scanned: int
    completed: bool
    exhaustive: bool


def _first_passing(field, words: np.ndarray, need_full: bool, reject):
    mask = words.any(axis=1)
    if need_full:
        mask &= (words != 0).all(axis=1)
    if not mask.any():
        return None
    for i in np.nonzero(mask)[0]:
        vec = tuple(int(x) for x in words[i])
        if reject is None or not reject(vec):
            return vec
    return None


def probe_support(field, parity_np, support, need_full, reject, seed, tag):
    """Hunt a passing word among code words supported inside one support.

    Returns (support-local vector | None, exhaustive).  Exhaustive means
    every projective candidate on this support was checked.
    """
    w = len(support)
    basis = null_space(field, parity_np[:, list(support)], w)
    if not basis:
        return None, True
    basis = np.array(basis, dtype=np.uint8)
    q = field.q
    if projective_count(q, len(basis)) <= SUBSCAN_EXACT_CAP:
        for words in iter_projective_words(field, basis):
            hit = _first_passing(field, words, need_full, reject)
            if hit is not None:
                return hit, True
        return None, True
    rng = philox(seed, tag)
    msgs = rng.integers(0, q, size=(SUBSCAN_SAMPLES, len(basis)), dtype=np.uint8)
    words = gf_matmul(field, msgs, basis)
    hit = _first_passing(field, words, need_full, reject)
    return hit, False


def scan_level(field, parity_rows, n, w, seed, *, need_full, reject=None,
               dense_cap: int = DENSE_SUPPORT_CAP, seed_tag: int = 0):
    """Scan all size-w supports, in lexicographic order, for a passing word.

    When w <= r (parity rows) a batched rank prefilter discards supports
    whose parity columns are independent; otherwise every support gets a
    direct kernel probe, capped at dense_cap probes.  Witnesses come back
    full length.
    """
    r = len(parity_rows)
    parity_np = np_matrix(field, parity_rows, n)
    combos = itertools.combinations(range(n), w)
    scanned = 0
    exhaustive = True

    def fill(vec, support):
        full = [0] * n
        for pos, val in zip(support, vec):
            full[pos] = val
        return tuple(full)

    def local_reject(support):
        if reject is None:
            return None
        return lambda vec: reject(fill(vec, support))

    if w <= r:
        while True:
            chunk = list(itertools.islice(combos, RANK_CHUNK))
            if not chunk:
                return ScanOutcome(None, scanned, True, exhaustive)
            idx = np.fromiter(
                itertools.chain.from_iterable(chunk), dtype=np.intp, count=len(chunk) * w
            ).reshape(-1, w)
            # one copy, in batch_rank's (w, r, B) layout, passed as a (B, r, w) view
            stack = np.empty((w, r, len(chunk)), dtype=np.uint8)
            for j in range(w):
                np.take(parity_np, idx[:, j], axis=1, out=stack[j])
            ranks = batch_rank(field, stack.transpose(2, 1, 0))
            for h in np.nonzero(ranks < w)[0]:
                support = chunk[int(h)]
                counter = scanned + int(h)
                vec, exact = probe_support(
                    field, parity_np, support, need_full, local_reject(support),
                    seed, (seed_tag << 32) | counter,
                )
                if vec is not None:
                    return ScanOutcome(fill(vec, support), counter + 1, False, False)
                exhaustive = exhaustive and exact
            scanned += len(chunk)
    for support in combos:
        if scanned >= dense_cap:
            return ScanOutcome(None, scanned, False, False)
        vec, exact = probe_support(
            field, parity_np, support, need_full, local_reject(support),
            seed, (seed_tag << 32) | scanned,
        )
        if vec is not None:
            return ScanOutcome(fill(vec, support), scanned + 1, False, False)
        exhaustive = exhaustive and exact
        scanned += 1
    return ScanOutcome(None, scanned, True, exhaustive)


def level_gate(n: int, w: int, k: int, budget_support: int) -> bool:
    """Spending gate for one support-scan level on an [n, k] code."""
    side = min(k, n - k)
    return math.comb(n, w) * max(side, 1) ** 3 <= budget_support
