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

    Over GF(p) this is an int32 matmul reduced mod p, used while the k
    products of at most (p-1)**2 each cannot overflow int32; otherwise a
    loop of table gathers.
    """
    p = field.p
    if field.m == 1 and p <= MAX_TABLE_ORDER and a.shape[1] * (p - 1) ** 2 < 2**31:
        return (a.astype(np.int32) @ b.astype(np.int32) % p).astype(np.uint8)
    t = field.np_tables()
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        col = a[:, j]
        if col.any():
            out = t.add[out, t.mul[col[:, None], b[j][None, :]]]
    return out


def rref(field, rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
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
            inv = field.inv(lead)
            mat[r] = [field.mul(inv, x) for x in mat[r]]
        top = mat[r]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[i], top)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


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

    A row update forms sub + (p-1)*fac*prow before reducing it mod p.  Its
    largest value (p-1) + (p-1)**3 must fit uint8, which holds for p <= 7.
    """
    p = field.p
    return p if field.m == 1 and (p - 1) + (p - 1) ** 3 <= 255 else 0


def batch_rank(field, mats: np.ndarray) -> np.ndarray:
    """Ranks of a (B, r, w) stack of matrices by lockstep elimination."""
    t = field.np_tables()
    p = _elimination_prime(field)
    m = np.array(mats, dtype=np.uint8, copy=True)
    nb, r, w = m.shape
    if nb == 0:
        return np.zeros(0, dtype=np.int64)
    lead = np.zeros(nb, dtype=np.int64)
    rows = np.arange(r)
    for col in range(w):
        cand = (m[:, :, col] != 0) & (rows[None, :] >= lead[:, None])
        act = cand.any(axis=1)
        if not act.any():
            continue
        sub = m[act]
        lr = lead[act]
        ar = np.arange(sub.shape[0])
        piv = np.argmax(cand[act], axis=1)
        prow = sub[ar, piv, :].copy()
        sub[ar, piv, :] = sub[ar, lr, :]
        inv = t.inv[prow[ar, col]][:, None]
        prow = prow * inv % p if p else t.mul[prow, inv]
        sub[ar, lr, :] = prow
        below = rows[None, :] > lr[:, None]
        fac = np.where(below, sub[:, :, col], 0)
        if p:
            sub = (sub + (p - 1) * fac[:, :, None] * prow[:, None, :]) % p
        else:
            sub = t.sub[sub, t.mul[fac[:, :, None], prow[:, None, :]]]
        m[act] = sub
        lead[act] = lr + 1
    return lead


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
    """
    g = np.array([list(r) for r in gen], dtype=np.uint8)
    k = g.shape[0]
    q = field.q
    for lead in range(k if leads is None else leads):
        tail = k - lead - 1
        total = q**tail
        done = 0
        while done < total:
            cnt = int(min(chunk, total - done))
            # counting from q**tail makes the leading digit 1: the lead row
            msgs = _counter_digits(total + done, cnt, tail + 1, q)
            yield gf_matmul(field, msgs, g[lead:])
            done += cnt


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
    cols = parity_np[:, list(support)]
    rows = [[int(x) for x in row] for row in cols]
    basis = null_space(field, rows, w)
    if not basis:
        return None, True
    q = field.q
    if projective_count(q, len(basis)) <= SUBSCAN_EXACT_CAP:
        for words in iter_projective_words(field, [tuple(b) for b in basis]):
            hit = _first_passing(field, words, need_full, reject)
            if hit is not None:
                return hit, True
        return None, True
    rng = philox(seed, tag)
    msgs = rng.integers(0, q, size=(SUBSCAN_SAMPLES, len(basis)), dtype=np.uint8)
    words = gf_matmul(field, msgs, np.array(basis, dtype=np.uint8))
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
            idx = np.array(chunk, dtype=np.intp)
            mats = np.ascontiguousarray(np.moveaxis(parity_np[:, idx], 1, 0))
            ranks = batch_rank(field, mats)
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
