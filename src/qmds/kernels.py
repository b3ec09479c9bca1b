"""Search kernels: exact linear algebra helpers plus the vectorized engines
behind weight searches.

Everything here stays exact.  The numpy paths take and return uint8 field
elements; rref and null_space take a 2-D uint8 matrix and return uint8
arrays, and rref_null_space reads a kernel basis off a reduced matrix by
slices and one table gather.  kernel_rref gives the kernel's own reduced
form from one rref of the matrix with its columns reversed, so a code
given by r parity rows is reduced in r pivots, not in one per dimension.
Products go through gf_matmul, one float32 product mod p for every
field: over GF(p**m) it multiplies the base-p digits of the elements.  Every
elimination (rref, batch_rank, kernel_lines and the prefix tree) goes
through rank_one_update, the one place that picks its arithmetic: integers reduced
mod p over a small prime field, per-field lookup tables otherwise, with the
difference taken by XOR in characteristic 2.  Every way is just a faster
way to run the same integer computation.
Enumeration over small fields counts weights by float32 products of one-hot
matrices, whose entries are agreement counts at most n and need no reduction.

The MDS check and the support scans share one walk, dependent_supports, over
the prefix tree of column subsets, at most SCAN_CHUNK nodes of a level at a
time.  A node two levels above the leaves is expanded only when two of its
remaining columns are parallel or one is zero, the only way it can have a
dependent grandchild; on an MDS matrix no node passes, and the leaves'
parents are never built.  The chunks of every level start small and grow,
so a scan that stops at an early support builds few nodes.  batch_rank does
not choose the supports a scan probes: it cross-checks each chunk the tree
yields.  On a code closed under a twisted shift the same walk can keep to
one support per rotation orbit, the necklaces: the MDS check then walks
only those, and a scan probes only those as long as its probes stay
exhaustive.  A scan level asks which size-w support first carries a word of
weight w, given the code and the subcode as uint8 parity matrices.  The
supports of a chunk whose kernel is a line are settled together:
kernel_lines reads their kernel vectors off one lockstep elimination, and
probe_lines checks them against the parity matrix and the subcode by one
syndrome product each.  Any other support gets a probe of its own, which
visits the words on it in the enumeration's order, the high blocks of
_projective_blocks, and drops the subcode's words by one syndrome product
per chunk against the subcode's parity columns on the support.

Every sample is drawn by PhiloxStream, which reads the messages numpy's
Generator.integers would draw straight off the raw Philox words, byte by
byte by Lemire's method, and hands back the accepted bytes themselves: an
element is nonzero exactly when its byte is at least ceil(256/q), so a
caller can bound a message's weight before it decodes the message.  A
sampling pass (linalg.WordSearch.sample) encodes only the messages whose
unit-column weight can still reach a weight neither found nor proven
absent, and stops drawing once none is left; where the level scans ran
first and settled every weight, it draws nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .budgets import (
    DENSE_SUPPORT_CAP,
    ENUM_CHUNK,
    ENUM_BYTES,
    ENUM_LOW,
    ENUM_PRODUCT_Q,
    SAMPLE_CHUNK,
    SCAN_CHUNK,
    SUBSCAN_EXACT_CAP,
    SUBSCAN_SAMPLES,
)
from .errors import Contradiction


def gf_matmul(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact (x, k) @ (k, y) product over the field: the one encode kernel.

    Multiplication by an element of GF(p**m) is GF(p)-linear on the m base-p
    digits, so a becomes its (x, k*m) digits and b the (k*m, y*m) matrix
    whose row (j, s) holds the digits of b[j] times p**s, the element whose
    s-th digit alone is 1; over GF(p) both stay as they are.  Their float32 (BLAS) product is
    reduced mod p after each block of (2**24 - p) // (p-1)**2 inner terms,
    so every partial sum is an integer below 2**24, exact in float32 in any
    summation order.  The digits are then packed back into elements.
    """
    p, m = field.p, field.m
    t = field.np_tables()
    x, k = a.shape
    y = b.shape[1]
    if m > 1:
        xs = p ** np.arange(m)
        a = t.digits[a].reshape(x, k * m)
        b = t.digits[t.mul[xs[:, None, None], b]].transpose(1, 0, 2, 3).reshape(k * m, y * m)
    step = (2**24 - p) // (p - 1) ** 2
    out = _reduce_float32(a[:, :step].astype(np.float32) @ b[:step].astype(np.float32), p)
    for lo in range(step, k * m, step):
        out += a[:, lo:lo + step].astype(np.float32) @ b[lo:lo + step].astype(np.float32)
        _reduce_float32(out, p)
    if m > 1:
        out = (out.reshape(x * y, m) @ xs.astype(np.float32)).reshape(x, y)
    return out.astype(np.uint8)


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


def rref(field, mat: np.ndarray):
    """Reduced row echelon form of a 2-D uint8 matrix.  Returns (red,
    pivots): red a new uint8 (rank, ncols) array, pivots its pivot columns.

    Eliminates a copy: each pivot clears its column from every other row in
    one rank_one_update.
    """
    t = field.np_tables()
    mat = np.array(mat, dtype=np.uint8)
    nrows, ncols = mat.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # any nonzero entry may pivot: the reduced form is unique
        pr = r + int(mat[r:, c].argmax())
        lead = mat[pr, c]
        if not lead:
            continue
        top = t.mul[t.inv[lead], mat[pr, c:]]
        # rows r.. are zero left of c, so row r moves to pr and the update
        # touches columns c.. only; row r then takes top
        mat[pr, c:] = mat[r, c:]
        mat[:, c:] = rank_one_update(field, mat[:, c:], mat[:, c, None], 1, top)
        mat[r, c:] = top
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def null_space(field, mat: np.ndarray) -> np.ndarray:
    """Basis of the right kernel {v : mat @ v = 0} of a 2-D uint8 matrix,
    as the rows of a uint8 (ncols - rank, ncols) array."""
    return rref_null_space(field, *rref(field, mat))


def kernel_rref(field, mat: np.ndarray) -> np.ndarray:
    """The reduced row echelon form of the right kernel of a 2-D uint8
    matrix, from one rref of mat with its columns reversed: as many pivots
    as mat's rank, not the kernel's dimension.

    The pivots of the reversed matrix are the lexicographically last basis
    of the column matroid of mat's row space.  Their complement is the
    lexicographically first basis of the dual matroid, the kernel: exactly
    the kernel's RREF pivot columns.  The kernel basis read off the
    reversed matrix is systematic on them: flipped back, each row leads
    with a one on its own such column, and its other entries lie to the
    right, on pivot columns of the reversed matrix.  That is the kernel's
    unique RREF.
    """
    red, pivots = rref(field, np.asarray(mat)[:, ::-1])
    return np.ascontiguousarray(rref_null_space(field, red, pivots)[::-1, ::-1])


def rref_null_space(field, red: np.ndarray, pivots) -> np.ndarray:
    """null_space of a uint8 matrix in reduced row echelon form with the
    given pivot columns: the identity on the free columns, and minus red's
    free columns on the pivot columns."""
    ncols = red.shape[1]
    free = np.delete(np.arange(ncols), pivots)
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.np_tables().neg[red[:, free]].T
    return basis


def _elimination_prime(field) -> int:
    """p when rank_one_update can eliminate over GF(p) in uint8 integers,
    else 0.

    The update forms a + col * (-inv) * row before reducing it mod p, each
    of the three factors below p.  Its largest value (p-1) + (p-1)**3 must
    fit uint8, which holds for p <= 7.
    """
    p = field.p
    return p if field.m == 1 and (p - 1) + (p - 1) ** 3 <= 255 else 0


def rank_one_update(field, a: np.ndarray, col, inv, row) -> np.ndarray:
    """a - col * inv * row, the product broadcasting to the shape of a: the
    one elimination step of rref, batch_rank and the prefix tree.

    Over GF(p), p <= 7, it computes in uint8 integers and reduces mod p
    once; otherwise it gathers the product through the field's tables.
    Over GF(2**m) the difference is then the XOR of the two bit vectors,
    in place on the product; over odd extension fields it is one more
    gather, through the subtraction table.  A zero inv leaves a unchanged.
    """
    p = _elimination_prime(field)
    if p:
        out = col * ((p - inv) % p) * row
        out += a
        out %= p
        return out
    t = field.np_tables()
    prod = t.mul[t.mul[col, inv], row]
    del row  # a pivot row the caller gathered is freed before the last gather
    if field.p == 2:
        prod ^= a
        return prod
    return t.sub[a, prod]


def batch_rank(field, mats: np.ndarray) -> np.ndarray:
    """Ranks of a (B, r, w) stack of matrices by lockstep elimination: the
    exact cross-check of the supports a scan's prefix tree yields.

    Each step takes the first remaining column.  A matrix whose column is
    nonzero gains a pivot, its last nonzero row, and the column is cleared
    from every row, the pivot row included: that row becomes zero and can
    never pivot again, so no row is swapped or masked.  The column is then
    dropped, and the stack narrows by one column per step.  The stack is
    held column-major with the batch last, so every update runs along
    contiguous memory.
    """
    t = field.np_tables()
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
        m = rank_one_update(field, m[1:], col, inv, m[1:, piv, ar][:, None, :])
    return rank


def kernel_lines(field, mats: np.ndarray) -> np.ndarray:
    """For a (B, r, w) stack of matrices whose kernels have dimension one, a
    (B, w) uint8 array whose row b spans the kernel of mats[b], scaled as
    null_space scales it: a 1 on its last nonzero entry.

    One lockstep Gauss-Jordan elimination, stepping through the columns as
    batch_rank does, over the r rows of each matrix and w rows below them
    that keep the pivot rows.  A column that is nonzero on the first r rows
    pivots on the last such row: rank_one_update clears the column from
    every row, which zeroes the pivot row and reduces the kept ones, and
    the pivot row scaled to a leading 1 is kept in row r + j at step j.  The
    one column that finds no pivot, j, is then c_0 * col_0 + ... +
    c_(j-1) * col_(j-1), its entries c_i on the kept rows, and the kernel
    line is (-c_0, ..., -c_(j-1), 1, 0, ..., 0).  A matrix whose kernel is
    larger gets the kernel vector of its last free column.
    """
    t = field.np_tables()
    nb, r, w = mats.shape
    m = np.zeros((w, r + w, nb), dtype=np.uint8)
    m[:, :r] = mats.transpose(2, 1, 0)
    lines = np.zeros((w, nb), dtype=np.uint8)
    ar = np.arange(nb)
    rows1 = np.arange(1, r + 1, dtype=np.min_scalar_type(r))[:, None]
    for j in range(w):
        col = m[0]
        last = ((col[:r] != 0) * rows1).max(axis=0)  # pivot row + 1, or 0
        has = last != 0
        free = np.flatnonzero(~has)
        lines[:, free] = t.neg[col[r:, free]]
        lines[j, free] = 1
        piv = last - has
        inv = t.inv[col[piv, ar]]  # 0 where the column is free: no update
        row = m[1:, piv, ar]
        m = rank_one_update(field, m[1:], col, inv, row[:, None, :])
        m[:, r + j] = t.mul[inv, row]
    return np.ascontiguousarray(lines.T)


def probe_lines(field, parity, supports: np.ndarray, sub) -> list:
    """probe_support for each row of a (B, w) array of supports on which
    the code's kernel has dimension one, as one batch: the one candidate of
    such a support is its kernel line, which kernel_lines gives.  Returns
    the B support-local vectors that pass, None for the others; every
    probe is exhaustive.

    Each line is checked to lie in the kernel, one syndrome product of the
    full-length vectors against parity, and a line outside it raises
    Contradiction.  A line passes when it is nonzero on its whole support
    and, with a subcode, its syndrome against sub is nonzero.
    """
    nb = len(supports)
    lines = kernel_lines(field, parity[:, supports].transpose(1, 0, 2))
    full = np.zeros((nb, parity.shape[1]), dtype=np.uint8)
    full[np.arange(nb)[:, None], supports] = lines
    bad = np.flatnonzero(gf_matmul(field, full, parity.T).any(axis=1))
    if len(bad):
        raise Contradiction(
            f"kernel line {lines[bad[0]].tolist()} of support "
            f"{supports[bad[0]].tolist()} is not in the kernel"
        )
    passing = lines.all(axis=1)
    if sub is not None:
        rows = np.flatnonzero(passing)
        passing[rows] = gf_matmul(field, full[rows], sub.T).any(axis=1)
    return [tuple(v) if ok else None for v, ok in zip(lines.tolist(), passing)]


def _clear_column(field, pm: np.ndarray, node: np.ndarray, col: np.ndarray) -> np.ndarray:
    """For each pair (node, col): the node's matrix after the rank-1 update
    that clears column col, without the pivot row (the first nonzero entry
    of that column), or zero where that column is zero."""
    t = field.np_tables()
    colv = pm[node, :, col]
    ar = np.arange(len(node))
    piv = np.argmax(colv != 0, axis=1)
    keep = np.arange(pm.shape[1] - 1)[None, :]
    keep = keep + (keep >= piv[:, None])
    inv = t.inv[colv[ar, piv]][:, None, None]
    upd = rank_one_update(
        field, pm[node[:, None], keep, :], colv[ar[:, None], keep][:, :, None], inv,
        pm[node, piv, :][:, None, :],
    )
    # a zero column has table inverse 0 and a dependent child
    upd[inv[:, 0, 0] == 0] = 0
    return upd


def _may_depend(field, pm: np.ndarray, last: np.ndarray) -> np.ndarray:
    """For each node of pm, two levels above the leaves: False when its
    columns after last hold no zero column and no two parallel ones, so
    that none of its grandchildren is dependent.

    Each column is scaled so that its first nonzero entry in the first
    seven rows is 1, and those rows are packed into one uint64 key per
    column, 0 for a column that is zero there.  A column up to last gets a
    key of its own above every packed one.  Parallel columns get equal keys,
    so the test can keep a node in vain but never drops one it needs.
    """
    t = field.np_tables()
    rows = pm[:, :7].transpose(1, 0, 2)
    lead = rows[-1].copy()
    for row in rows[-2::-1]:
        np.copyto(lead, row, where=row != 0)
    # a lead's row of the flattened product table, offsets below 2**16
    scale = t.inv[lead].astype(np.uint16) * np.uint16(len(t.mul))
    keys = np.zeros(lead.shape, dtype=np.uint64)
    for row in rows[::-1]:  # in place: no wide temporaries
        keys <<= np.uint64(8)
        keys |= t.mul.ravel().take(scale + row)
    cols = np.arange(pm.shape[2])
    np.copyto(keys, ~cols.astype(np.uint64), where=cols <= last[:, None])
    keys.sort(axis=1)
    return (keys[:, 0] == 0) | (keys[:, 1:] == keys[:, :-1]).any(axis=1)


def dependent_supports(field, mat: np.ndarray, size: int, necklaces: bool = False):
    """Yield every dependent `size`-column subset of the (r, n) matrix, for
    1 <= size <= r, in lexicographic order: (m, size) arrays of sorted
    column indices, one per chunk of leaves that holds any.

    The column subsets form a lexicographic prefix tree, walked depth first
    and vectorised over the nodes of one level.  A node with j prefix
    columns holds P = A @ mat, where the r - j rows of A span the left
    kernel of those columns, so a further column c depends on the prefix
    exactly when P[:, c] is zero.  A child keeps P after one rank-1 update
    that clears its column, minus the pivot row.  A dependent child gets
    P = 0 instead, so every completion of it is dependent in turn.  Children
    are built in chunks, each of the children of as many consecutive nodes
    as fit in the chunk's size (or of one node, if more), which bounds
    memory; the walk advances only as far as its consumer reads.  Each
    depth has one chunk size, which starts at SCAN_CHUNK // 64 and doubles,
    chunk after chunk over the whole walk, up to SCAN_CHUNK: a consumer
    that stops at one of the first supports has the walk build a few dozen
    nodes per depth, not thousands, and a complete walk takes about six
    chunks more per depth.

    A child c of a node at depth size - 2 has a dependent child c' > c
    exactly when P[:, c] is zero or P[:, c'] is a multiple of it: when one
    of the two columns is zero or they are parallel.  So each chunk of that level
    keeps only the nodes whose columns after the prefix hold such a pair
    or a zero column (_may_depend); the others have no dependent leaf
    below them and are not expanded.  The leaves and their chunks, and so
    every array the walk yields, stay as they are.

    With necklaces=True the walk yields only the subsets that are their own
    lexicographically least rotation mod n, still in lexicographic order.
    Such a subset holds column 0, and its cyclic gap sequence (s1 - s0, ...,
    n - s_last) is a necklace.  Each node carries the period p of its gap
    prefix, as in the Fredricksen-Kessler-Maiorana algorithm: a child's gap
    g_t below g_(t-p) is pruned, and one above it makes the period t.  A
    necklace's gaps are at least its first one, so a child also needs room
    for the rest of its gaps at that width.  A leaf is kept when its wrap
    gap keeps the sequence a prenecklace whose period divides its length.
    """
    n = mat.shape[1]
    cols = np.arange(n)
    limits = [max(1, SCAN_CHUNK // 64)] * size  # the next chunk of children, per depth

    def walk(j, pm, prefix, period):
        # child columns: after the last prefix column, and early enough to
        # leave room for the size - j - 1 columns still to come
        last = prefix[:, j - 1] if j else np.full(1, -1)
        low, high = last + 1, n - size + j
        if necklaces and j:
            # gaps[:, t] = g_t, with g_0 = 0; a child's gap g_j is at least
            # g_(j-p), and the size - j gaps after it at least g_1 each
            gaps = np.diff(prefix.astype(np.intp), axis=1, prepend=0)
            ref = gaps[np.arange(len(prefix)), j - period]
            low = last + np.maximum(ref, 1)
            high = n // size if j == 1 else n - (size - j) * gaps[:, 1]
        elif necklaces:
            high = 0  # column 0 alone

        def periods(node, col):
            # a child's gap g_j above g_(j-p) makes its period j
            if not j:
                return np.ones_like(node)
            return np.where(col - last[node] > ref[node], j, period[node])

        kids = cols >= low[:, None]
        kids &= cols <= np.reshape(high, (-1, 1))
        dead = pm.any(axis=1)
        np.logical_not(dead, out=dead)  # in place: the leaf level is the widest
        dead &= kids
        if j == size - 1:
            if not dead.any():
                return
            node, col = np.nonzero(dead)
            if necklaces and j:
                # the wrap gap n - col, at position size, closes the sequence
                per = periods(node, col)
                seq = np.column_stack((gaps[node], col - last[node]))
                wrap, at = n - col, seq[np.arange(len(node)), size - per]
                keep = (wrap > at) | ((wrap == at) & (size % per == 0))
                node, col = node[keep], col[keep]
            if len(node):
                yield np.column_stack((prefix[node], col))
            return
        fan = np.cumsum(kids.sum(axis=1))
        start = 0
        while start < len(fan):
            base = fan[start - 1] if start else 0
            limit = limits[j]
            limits[j] = min(2 * limit, SCAN_CHUNK)
            stop = max(start + 1, int(np.searchsorted(fan, base + limit, side="right")))
            grow = kids[start:stop]
            if j == size - 2:
                grow = grow & _may_depend(field, pm[start:stop], last[start:stop])[:, None]
            node, col = np.nonzero(grow)
            node += start
            if len(node):
                yield from walk(
                    j + 1, _clear_column(field, pm, node, col),
                    np.column_stack((prefix[node], col.astype(prefix.dtype))),
                    periods(node, col) if necklaces else None,
                )
            start = stop

    yield from walk(0, mat[None], np.zeros((1, 0), dtype=np.min_scalar_type(n)), None)


def independent_subsets(field, mat: np.ndarray, size: int, necklaces: bool = False) -> bool:
    """True when every `size` columns of the (r, n) matrix are independent,
    for 1 <= size <= r: when dependent_supports yields nothing.

    necklaces=True walks only the subsets that are their own least rotation.
    That decides the question exactly when the dependent subsets are closed
    under rotation, as on either side of a code closed under a twisted shift
    (linalg.mds_verify)."""
    return next(dependent_supports(field, mat, size, necklaces), None) is None


def lex_rank(n: int, support) -> int:
    """Index of a sorted support in itertools.combinations(range(n), w)
    order, w = len(support).  Mirroring each column c to n - 1 - c reverses
    that order into colexicographic order, where a subset's index is its
    combinadic, the sum of C(n - 1 - c, w - i) over its i-th column c."""
    w = len(support)
    return math.comb(n, w) - 1 - sum(
        math.comb(n - 1 - c, w - i) for i, c in enumerate(support)
    )


def projective_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def _counter_digits(start: int, cnt: int, ndigits: int, q: int) -> np.ndarray:
    out = np.zeros((cnt, ndigits), dtype=np.uint8)
    vals = np.arange(start, start + cnt, dtype=np.int64)
    for j in range(ndigits - 1, -1, -1):
        out[:, j] = vals % q
        vals //= q
    return out


def _projective_blocks(field, g: np.ndarray, leads: int | None, amax: int):
    """The visiting order of a projective enumeration of the rows of g, in
    blocks: lead row index ascending, then the tail message as a base-q
    counter, leading digit 1.

    Yields one (a, highs) pair per lead row, a = min(tail, amax).  highs
    yields the high words (the lead row plus the middle rows, in counter
    order) in blocks of at most ENUM_CHUNK.  The words of the row are h + l
    for h in the high words and l the words of every message over the last
    a rows of g in counter order, in row-major (h, l) order.
    """
    k = g.shape[0]
    q = field.q

    def highs(lead, a):
        nhigh = q ** (k - lead - 1 - a)
        # counting from nhigh makes the leading digit 1: the lead row
        for start in range(nhigh, 2 * nhigh, ENUM_CHUNK):
            cnt = min(ENUM_CHUNK, 2 * nhigh - start)
            yield gf_matmul(field, _counter_digits(start, cnt, k - lead - a, q), g[lead:k - a])

    for lead in range(k if leads is None else leads):
        a = min(k - lead - 1, amax)
        yield a, highs(lead, a)


def iter_projective_words(field, gen):
    """Yield word chunks covering every projective class of the row space.

    The visiting order is fixed: lead row index ascending, then the tail
    message as a base-q counter, the enumeration's order.  Witness
    extraction that takes the first hit in this order is therefore
    deterministic.  The chunks are the high blocks of _projective_blocks
    with no low rows: each is one product of at most ENUM_CHUNK messages
    that share a lead row.
    """
    for _, highs in _projective_blocks(field, np.asarray(gen, dtype=np.uint8), None, 0):
        yield from highs


def projective_weights(field, gen, leads: int | None = None):
    """Weight counts of the words iter_projective_words visits, and the
    first word of each weight in its order, without building the words.

    Returns (counts, first): counts[w] words of weight w, an int64 array of
    length n + 1, and first a dict from each weight that occurs to its first
    word, a uint8 array.

    A word is h + l, h a high word of _projective_blocks and l a word of the
    low block, every message over the last a rows, a the largest at most the
    tail with q**a <= ENUM_LOW.  weight(h + l) = n - #{c : l_c = -h_c}, and
    over fields up to ENUM_PRODUCT_Q that agreement count is the product of
    two one-hot matrices over the n*q (column, value) pairs: row i of the
    high side marks (c, -h_i[c]), row j of the low side (c, l_j[c]).  One
    float32 product then gives the agreements of a whole block of (h, l)
    pairs, and it is exact, every entry being an integer at most n < 2**24.
    The product spends q*n multiply-adds on a pair, so over larger fields
    the count compares each column of the high words with the same column of
    the low block instead and sums the n boolean tables, n byte comparisons
    a pair.  A block takes as many high words as keep its largest array
    within ENUM_BYTES bytes, at least one; only the first word of a new
    weight is built.
    """
    g = np.asarray(gen, dtype=np.uint8)
    q, n = field.q, g.shape[-1]
    t = field.np_tables()
    product = q <= ENUM_PRODUCT_Q
    count_t = np.min_scalar_type(n)  # an agreement count is at most n
    cols = np.arange(0, q * n, q, dtype=np.intp)
    counts = np.zeros(n + 1, dtype=np.int64)
    first = {}
    k, amax = g.shape[0], 0
    while amax < k - 1 and q ** (amax + 1) <= ENUM_LOW:
        amax += 1
    # the messages over the last a rows are the first q**a of the counter
    # over the last amax rows, so one product gives every row's low block
    lows = gf_matmul(field, _counter_digits(0, q**amax, amax, q), g[k - amax:])
    for a, highs in _projective_blocks(field, g, leads, amax):
        low = lows[:q**a]
        nl = len(low)
        if product:
            onehot = np.zeros((nl, q * n), dtype=np.float32)
            np.put_along_axis(onehot, low + cols, 1, axis=1)
            rows = max(1, ENUM_BYTES // (4 * max(nl, q * n)))
        else:
            low_cols = np.ascontiguousarray(low.T)[:, None, :]
            rows = max(1, ENUM_BYTES // (nl * n))
        for high in highs:
            neg = t.neg[high]
            for lo in range(0, len(high), rows):
                block = neg[lo:lo + rows]
                # agree[i, j] = n - weight(high[lo + i] + low[j])
                if product:
                    part = np.zeros((len(block), q * n), dtype=np.float32)
                    np.put_along_axis(part, block + cols, 1, axis=1)
                    agree = (part @ onehot.T).astype(count_t).ravel()
                else:
                    agree = (block.T[:, :, None] == low_cols).sum(axis=0, dtype=count_t).ravel()
                seen = np.bincount(agree, minlength=n + 1)[::-1]
                counts += seen
                for w in np.flatnonzero(seen).tolist():
                    if w not in first:
                        i, j = divmod(int(np.argmax(agree == n - w)), nl)
                        first[w] = t.add[high[lo + i], low[j]]
    return counts, first


def philox(seed: int, tag: int) -> np.random.Generator:
    key = ((seed & (2**64 - 1)) << 64) | (tag & (2**64 - 1))
    return np.random.Generator(np.random.Philox(key=key))


class PhiloxStream:
    """The draws of philox(seed, tag).integers(0, q, size=(cnt, k),
    dtype=np.uint8), call after call, read straight off the bit
    generator's raw 64-bit words: the one draw path of every sample.

    numpy splits each 64-bit word into two 32-bit words, low half first,
    and each of those into four bytes, low byte first, so the bytes come in
    the little-endian order of the raw words.  By Lemire's bounded-integer
    method a byte b gives the element (b*q) >> 8, and it is skipped when
    (b*q) mod 256 < 256 mod q.  The rest of the last 32-bit word a call
    reads is dropped; whole words drawn past a call are kept for the next.
    The stream must be the only consumer of its generator.

    raw returns the accepted bytes themselves: digit[b] is the element, and
    it is nonzero exactly when b >= nonzero_from = ceil(256 / q).
    """

    def __init__(self, q: int, seed: int, tag: int):
        self.digit = (np.arange(256) * q >> 8).astype(np.uint8)
        self.nonzero_from = -(-256 // q)
        # uint8 products wrap: b * q8 is (b*q) mod 256
        self._q8, self._cut = np.uint8(q % 256), 256 % q
        self._rate = np.count_nonzero(np.arange(256, dtype=np.uint8) * self._q8 >= self._cut) / 256
        self._words = philox(seed, tag).bit_generator.random_raw
        self._held = np.zeros(0, dtype=np.uint8)  # whole 32-bit words

    def raw(self, cnt: int, k: int) -> np.ndarray:
        """The (cnt, k) uint8 accepted bytes behind the next call."""
        need = cnt * k
        buf = self._held
        while True:
            accept = buf * self._q8 >= self._cut
            short = need - np.count_nonzero(accept)
            if short <= 0:
                break
            # the bytes expected to hold the shortfall, a margin of about
            # four standard deviations, and at least one word: progress
            nbytes = short / self._rate + 4 * math.sqrt(short) + 8
            more = self._words(int(nbytes) // 8 + 1).astype("<u8", copy=False).view(np.uint8)
            buf = np.concatenate((buf, more))
        # the call reads up to its need-th accepted byte, the last of the
        # shortest prefix holding need: a prefix short by s accepted bytes
        # needs at least s more
        end, got = need, np.count_nonzero(accept[:need])
        while got < need:
            step = need - got
            got += np.count_nonzero(accept[end:end + step])
            end += step
        self._held = buf[-(-end // 4) * 4:]
        return buf[:end][accept[:end]].reshape(cnt, k)

    def chunks(self, count: int, k: int):
        """Yield raw for count messages of k elements, SAMPLE_CHUNK per call."""
        for start in range(0, count, SAMPLE_CHUNK):
            yield self.raw(min(SAMPLE_CHUNK, count - start), k)


def iter_sampled_words(field, gen, count: int, seed: int, tag: int):
    """Yield (msgs, words) chunks from a deterministic Philox stream, the
    chunks of a PhiloxStream decoded and encoded in full.

    The stream depends on (seed, tag, count) only; chunk size is a fixed
    constant so partitioning hints can never change what gets drawn.
    """
    g = np.asarray(gen, dtype=np.uint8)
    stream = PhiloxStream(field.q, seed, tag)
    for raw in stream.chunks(int(count), g.shape[0]):
        msgs = stream.digit[raw]
        yield msgs, gf_matmul(field, msgs, g)


@dataclass
class ScanOutcome:
    """Result of one support-scan level."""

    witness: tuple | None
    supports_scanned: int
    completed: bool
    exhaustive: bool

    @property
    def decided(self) -> bool:
        """The level holds a witness, or a complete exhaustive scan proved
        it empty."""
        return self.witness is not None or (self.completed and self.exhaustive)


def _first_passing(field, words: np.ndarray, sub_cols):
    """The first row of words, as a tuple, that is nonzero in every
    coordinate and outside the subcode whose parity columns on the support
    are sub_cols (None: no subcode); None when no row passes."""
    rows = np.flatnonzero(words.all(axis=1))
    if sub_cols is not None and len(rows):
        # a word on the support lies in the subcode exactly when its
        # syndrome against the subcode's parity columns there is zero
        rows = rows[gf_matmul(field, words[rows], sub_cols).any(axis=1)]
    return tuple(words[rows[0]].tolist()) if len(rows) else None


def probe_support(field, parity, support, sub, seed, tag):
    """Hunt a word of weight len(support) among the code words supported
    inside one support, the code having the uint8 parity matrix parity.

    A word passes when it is nonzero on every column of the support and
    outside the subcode with parity matrix sub (None: no subcode), one
    syndrome product per chunk against sub's columns on the support.
    Returns (support-local vector | None, exhaustive).  Exhaustive means
    every projective candidate on this support was checked, in the
    enumeration's order (iter_projective_words); otherwise SUBSCAN_SAMPLES
    messages are drawn with iter_sampled_words.  An empty kernel gives no
    candidates, and so (None, True).  scan_level settles a support whose
    kernel is a line by probe_lines instead, with the same answer, and
    probes here the supports with larger kernels and those above r.
    """
    cols = list(support)
    basis = null_space(field, parity[:, cols])
    sub_cols = None if sub is None else sub[:, cols].T
    exhaustive = projective_count(field.q, len(basis)) <= SUBSCAN_EXACT_CAP
    if exhaustive:
        chunks = iter_projective_words(field, basis)
    else:
        sampled = iter_sampled_words(field, basis, SUBSCAN_SAMPLES, seed, tag)
        chunks = (words for _, words in sampled)
    for words in chunks:
        hit = _first_passing(field, words, sub_cols)
        if hit is not None:
            return hit, exhaustive
    return None, exhaustive


def scan_level(field, parity, w, seed, *, sub=None, rotations=False):
    """Scan all size-w supports, in lexicographic order, for the first that
    carries a word of weight w: a code word nonzero on exactly that support,
    outside the subcode with uint8 parity matrix sub, when one is given.
    The code is given by its (r, n) uint8 parity matrix parity.

    When w <= r only a support whose parity columns are dependent carries a
    word, and dependent_supports finds exactly those on its prefix tree.
    batch_rank cross-checks them, one call per chunk the walk yields (the
    dependent leaves below at most SCAN_CHUNK parents, or below one node),
    and a support of full rank raises Contradiction.  The supports of rank
    w - 1 in the chunk, whose kernel is a line of one projective class, are
    then settled together by one probe_lines call, as probe_support would
    settle each; the walk's chunks start small, so a level whose witness
    comes early settles few lines past it.  The others are probed one at a
    time, in the same lexicographic order, so the outcome is that of
    probing every support alone.  Above r every support is probed, and the
    level stops unfinished once DENSE_SUPPORT_CAP probes are spent.  The
    probe of the support with lexicographic index i samples with tag
    (w << 32) | i.  Witnesses come back full length.

    rotations=True says the code is closed under a twisted shift, which
    maps the words on a support onto those on its rotation by one.  With no
    subcode, the supports that carry a word of weight w are then closed
    under rotation, and for w <= r the scan first probes only the necklaces,
    the supports that are their own least rotation.  The lexicographically
    first such support is one of them, so when every probe before a witness
    was exhaustive that witness is the full scan's, and a walk of exhaustive
    probes that finds none proves the level empty.  Otherwise (a sampled
    probe) the full tree is scanned after all.
    """
    r, n = parity.shape
    # a kernel line is one projective class, which a probe enumerates
    batched = projective_count(field.q, 1) <= SUBSCAN_EXACT_CAP

    def dependent(necklaces):
        for found in dependent_supports(field, parity, w, necklaces):
            ranks = batch_rank(field, parity[:, found].transpose(1, 0, 2))
            indep = np.flatnonzero(ranks == w)
            if len(indep):
                bad = found[indep[0]].tolist()
                raise Contradiction(f"support {bad} has independent parity columns")
            settled = [None] * len(found)
            lines = np.flatnonzero(ranks == w - 1) if batched else []
            if len(lines):
                for i, vec in zip(lines.tolist(), probe_lines(field, parity, found[lines], sub)):
                    settled[i] = vec, True
            for support, done in zip(found.tolist(), settled):
                yield lex_rank(n, support), support, done

    def probe(supports, cap):
        """The outcome over these supports, and whether every probe
        before its end was exhaustive."""
        exhaustive = True
        for counter, support, done in supports:
            if counter >= cap:
                return ScanOutcome(None, counter, False, False), exhaustive
            vec, exact = done or probe_support(
                field, parity, support, sub, seed, (w << 32) | counter
            )
            if vec is not None:
                full = np.zeros(n, dtype=np.uint8)
                full[list(support)] = vec
                return ScanOutcome(tuple(full.tolist()), counter + 1, False, False), exhaustive
            exhaustive = exhaustive and exact
        return ScanOutcome(None, math.comb(n, w), True, exhaustive), exhaustive

    if w > r:
        dense = ((i, s, None) for i, s in enumerate(itertools.combinations(range(n), w)))
        return probe(dense, DENSE_SUPPORT_CAP)[0]
    if rotations and sub is None:
        out, exhaustive = probe(dependent(True), math.inf)
        if exhaustive:
            return out
    return probe(dependent(False), math.inf)[0]

