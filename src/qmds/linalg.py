"""Linear codes over small fields: construction, duality, and exact or
budget-bounded weight searches.

A LinearCode stores its generator matrix in reduced row echelon form, so two
codes are equal exactly when they have the same row space over the same
field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .budgets import DEFAULT_BUDGET, MDS_SUBSET_CAP, RANK_CHUNK, SearchBudget
from .errors import (
    BadCoordinate,
    FieldMismatch,
    LengthMismatch,
    NotASubcode,
    NotQuadraticTower,
    ZeroDimensional,
)
from .gf import FieldTable, SubfieldEmbedding, build_field, conjugate, embed


@dataclass(frozen=True)
class LinearCode:
    field: FieldTable
    n: int
    gen: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.gen)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.gen)

    @cached_property
    def parity_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(v) for v in kernels.null_space(self.field, self.gen, self.n)
        )

    def __repr__(self):
        return f"[{self.n},{self.k}] over GF({self.field.q})"

    def reduce(self, vec) -> tuple[int, ...]:
        """Residue of vec after elimination against the generator rows."""
        f = self.field
        v = list(vec)
        for row, p in zip(self.gen, self.pivots):
            c = v[p]
            if c:
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec) -> bool:
        if len(vec) != self.n:
            raise LengthMismatch(f"vector length {len(vec)} != {self.n}")
        return not any(self.reduce(vec))


def linear_code(field: FieldTable, rows, n: int | None = None) -> LinearCode:
    rows = [tuple(r) for r in rows]
    if n is None:
        if not rows:
            raise LengthMismatch("cannot infer length from an empty row list")
        n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise LengthMismatch("ragged generator rows")
    if any(not (0 <= x < field.q) for r in rows for x in r):
        raise FieldMismatch(f"entry outside GF({field.q})")
    red, _ = kernels.rref(field, rows)
    return LinearCode(field, n, tuple(tuple(r) for r in red))


def code_from_parity(field: FieldTable, rows, n: int) -> LinearCode:
    return linear_code(field, kernels.null_space(field, rows, n), n)


def hermitian_inner(field: FieldTable, u, v) -> int:
    """Sum of u_i**q * v_i over GF(q**2)."""
    if len(u) != len(v):
        raise LengthMismatch("vectors of different lengths")
    acc = 0
    for x, y in zip(u, v):
        acc = field.add(acc, field.mul(conjugate(field, x), y))
    return acc


def dual(code: LinearCode, kind: str = "euclidean") -> LinearCode:
    """Euclidean or Hermitian dual code."""
    if kind == "euclidean":
        return linear_code(code.field, code.parity_rows, code.n)
    if kind == "hermitian":
        f = code.field
        rows = [
            tuple(conjugate(f, x) for x in row) for row in code.parity_rows
        ]
        return linear_code(f, rows, code.n)
    raise ValueError(f"unknown dual kind {kind!r}")


def is_subcode(sub: LinearCode, sup: LinearCode) -> bool:
    if sub.field is not sup.field:
        raise FieldMismatch("codes over different fields")
    if sub.n != sup.n:
        raise LengthMismatch("codes of different lengths")
    return all(sup.contains(r) for r in sub.gen)


def _check_coords(n: int, coords) -> tuple[int, ...]:
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise BadCoordinate("repeated coordinate")
    for c in coords:
        if not (0 <= c < n):
            raise BadCoordinate(f"coordinate {c} outside [0, {n})")
    return coords


def words_supported_in(code: LinearCode, support) -> LinearCode:
    """Subcode of words vanishing outside the given support, full length."""
    support = _check_coords(code.n, support)
    outside = sorted(set(range(code.n)) - set(support))
    f = code.field
    if not outside or code.k == 0:
        return code
    cols = [[row[j] for j in outside] for row in code.gen]
    msgs = kernels.null_space(f, [list(c) for c in zip(*cols)], code.k)
    words = []
    for m in msgs:
        w = [0] * code.n
        for coef, row in zip(m, code.gen):
            if coef:
                w = [f.add(x, f.mul(coef, y)) for x, y in zip(w, row)]
        words.append(w)
    return linear_code(f, words, code.n)


def shorten(code: LinearCode, coords) -> LinearCode:
    """Words zero on coords, with those coordinates deleted."""
    coords = _check_coords(code.n, coords)
    keep = [j for j in range(code.n) if j not in set(coords)]
    sub = words_supported_in(code, keep)
    return linear_code(code.field, [[r[j] for j in keep] for r in sub.gen], len(keep))


def puncture(code: LinearCode, coords) -> LinearCode:
    """Delete the given coordinates from every word."""
    coords = _check_coords(code.n, coords)
    keep = [j for j in range(code.n) if j not in set(coords)]
    return linear_code(code.field, [[r[j] for j in keep] for r in code.gen], len(keep))


def subfield_subcode(code: LinearCode, small: FieldTable) -> LinearCode:
    """Words of the code with every entry in the embedded subfield, as a code
    over that subfield."""
    big = code.field
    if big.m != 2 * small.m or big.p != small.p:
        raise NotQuadraticTower(
            f"GF({big.q}) is not a quadratic extension of GF({small.q})"
        )
    emb = embed(small, big)
    split_parity = []
    for row in code.parity_rows:
        r0, r1 = [], []
        for x in row:
            c0, c1 = emb.coords2(x)
            r0.append(c0)
            r1.append(c1)
        split_parity.append(r0)
        split_parity.append(r1)
    return code_from_parity(small, split_parity, code.n)


def mds_verify(code: LinearCode) -> bool:
    """Exact check that the code has distance n - k + 1.

    Sweeps every column subset on the cheaper side (k-subsets of the
    generator or (n-k)-subsets of the parity matrix) and demands full rank.
    Refuses subsets counts above MDS_SUBSET_CAP.
    """
    n, k = code.n, code.k
    if k == 0 or k == n:
        return True
    side_k = min(k, n - k)
    count = math.comb(n, side_k)
    if count > MDS_SUBSET_CAP:
        raise ValueError(
            f"MDS check needs {count} subsets, above the {MDS_SUBSET_CAP} cap"
        )
    if k <= n - k:
        rows, size = code.gen, k
    else:
        rows, size = code.parity_rows, n - k
    mat = kernels.np_matrix(code.field, rows, n)
    combos = itertools.combinations(range(n), size)
    while True:
        chunk = list(itertools.islice(combos, RANK_CHUNK))
        if not chunk:
            return True
        idx = np.array(chunk, dtype=np.intp)
        stacks = np.ascontiguousarray(np.moveaxis(mat[:, idx], 1, 0))
        ranks = kernels.batch_rank(code.field, stacks)
        if (ranks < size).any():
            return False


@dataclass(frozen=True)
class WeightResult:
    """Outcome of a minimum-weight style search.

    value: the distance when status is "exact", else the best upper bound
        seen (None when no word was found at all).
    floor: certified lower bound on the true value.
    status: "exact" | "lower_bound_only" | "undefined".
    """

    value: int | None
    witness: tuple | None
    status: str
    floor: int

    @property
    def exact(self) -> bool:
        return self.status == "exact"


def _mds_witness(code: LinearCode) -> tuple:
    """A word of weight n - k + 1 in a verified MDS code."""
    d = code.n - code.k + 1
    sub = words_supported_in(code, range(d))
    vec = sub.gen[0]
    assert sum(1 for x in vec if x) == d
    return tuple(vec)


def min_weight(code: LinearCode, budget: SearchBudget = DEFAULT_BUDGET) -> WeightResult:
    """Minimum weight by the strategy ladder.

    Fast exact paths first (MDS rank sweep, then full projective
    enumeration), then rising support scans, then sampling.  The returned
    floor is always a proven lower bound, whatever the status.
    """
    if code.k == 0:
        raise ZeroDimensional("zero code has no minimum weight")
    n, k, q = code.n, code.k, code.field.q
    if math.comb(n, min(k, n - k)) <= MDS_SUBSET_CAP and mds_verify(code):
        w = _mds_witness(code)
        return WeightResult(n - k + 1, w, "exact", n - k + 1)
    if kernels.projective_count(q, k) <= budget.enum:
        best, bw = None, None
        for words in kernels.iter_projective_words(code.field, code.gen):
            weights = (words != 0).sum(axis=1)
            i = int(np.argmin(weights))
            if best is None or weights[i] < best:
                best = int(weights[i])
                bw = tuple(int(x) for x in words[i])
        return WeightResult(best, bw, "exact", best)
    floor = 1
    r = n - k
    for w in range(1, n + 1):
        if not kernels.level_gate(n, w, k, budget.support):
            break
        out = kernels.scan_level(
            code.field, code.parity_rows, n, w, budget.seed,
            need_full=False, seed_tag=w,
        )
        if out.witness is not None:
            wt = sum(1 for x in out.witness if x)
            assert wt == w or (wt < w and wt >= floor)
            return WeightResult(wt, out.witness, "exact", wt)
        if out.completed and out.exhaustive:
            floor = w + 1
        else:
            break
    best, bw = None, None
    for _, words in kernels.iter_sampled_words(
        code.field, code.gen, budget.samples, budget.seed, tag=0x31
    ):
        weights = (words != 0).sum(axis=1)
        nz = weights > 0
        if nz.any():
            i = int(np.argmin(np.where(nz, weights, n + 1)))
            if weights[i] and (best is None or int(weights[i]) < best):
                best = int(weights[i])
                bw = tuple(int(x) for x in words[i])
                if best == floor:
                    break
    if best is not None and best == floor:
        return WeightResult(best, bw, "exact", floor)
    return WeightResult(best, bw, "lower_bound_only", floor)


def _extension_rows(big: LinearCode, sub: LinearCode):
    """Rows of big.gen completing a basis of big over the subcode."""
    f = big.field
    ext = []
    work = list(sub.gen)
    for row in big.gen:
        red, _ = kernels.rref(f, work + ext + [list(row)])
        if len(red) > len(work) + len(ext):
            ext.append(list(row))
    return ext


def min_weight_relative(
    big: LinearCode, sub: LinearCode, budget: SearchBudget = DEFAULT_BUDGET
) -> WeightResult:
    """Minimum weight over words of big that are not in sub.

    Same ladder as min_weight with a membership filter.  When the two codes
    coincide the set is empty and the result has status "undefined".
    """
    if big.field is not sub.field:
        raise FieldMismatch("codes over different fields")
    if big.n != sub.n:
        raise LengthMismatch("codes of different lengths")
    if not is_subcode(sub, big):
        raise NotASubcode("second argument is not a subcode of the first")
    if big.k == sub.k:
        return WeightResult(None, None, "undefined", 0)
    f, n, q = big.field, big.n, big.field.q
    ext = _extension_rows(big, sub)
    e = len(ext)
    reject = sub.contains if sub.k else None
    classes = (q ** sub.k) * kernels.projective_count(q, e)
    if classes <= budget.enum:
        best, bw = None, None
        rows = [tuple(r) for r in ext] + [tuple(r) for r in sub.gen]
        for words in kernels.iter_projective_words(f, rows, leads=e):
            weights = (words != 0).sum(axis=1)
            i = int(np.argmin(weights))
            if best is None or weights[i] < best:
                best = int(weights[i])
                bw = tuple(int(x) for x in words[i])
        return WeightResult(best, bw, "exact", best)
    floor = 1
    for w in range(1, n + 1):
        if not kernels.level_gate(n, w, big.k, budget.support):
            break
        out = kernels.scan_level(
            f, big.parity_rows, n, w, budget.seed,
            need_full=False, reject=reject, seed_tag=w,
        )
        if out.witness is not None:
            wt = sum(1 for x in out.witness if x)
            return WeightResult(wt, out.witness, "exact", wt)
        if out.completed and out.exhaustive:
            floor = w + 1
        else:
            break
    best, bw = None, None
    gen_rows = [tuple(r) for r in ext] + [tuple(r) for r in sub.gen]
    for msgs, words in kernels.iter_sampled_words(
        f, gen_rows, budget.samples, budget.seed, tag=0x32
    ):
        outside = msgs[:, :e].any(axis=1)
        if not outside.any():
            continue
        weights = np.where(outside, (words != 0).sum(axis=1), n + 1)
        i = int(np.argmin(weights))
        if int(weights[i]) <= n and (best is None or int(weights[i]) < best):
            best = int(weights[i])
            bw = tuple(int(x) for x in words[i])
            if best == floor:
                break
    if best is not None and best == floor:
        return WeightResult(best, bw, "exact", floor)
    return WeightResult(best, bw, "lower_bound_only", floor)
