"""Linear codes over small fields: construction, duality, and exact or
budget-bounded weight searches.

A LinearCode stores its generator matrix in reduced row echelon form, so two
codes are equal exactly when they have the same row space over the same
field.  The exact linear algebra runs in the kernels: membership is a
syndrome product against the parity rows, one gf_matmul per batch of rows,
and the rows that extend a subcode's basis come from one rref.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .budgets import DEFAULT_BUDGET, MDS_SUBSET_CAP, SearchBudget
from .errors import (
    BadCoordinate,
    Contradiction,
    FieldMismatch,
    LengthMismatch,
    NotASubcode,
    NotQuadraticTower,
    QmdsError,
    TooLarge,
    ZeroDimensional,
)
from .gf import FieldTable, conjugate, embed


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
            tuple(v)
            for v in kernels.rref_null_space(self.field, self.gen, self.pivots, self.n)
        )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The generator rows as a read-only uint8 (k, n) array."""
        return _frozen(self.gen, self.n)

    @cached_property
    def parity_matrix(self) -> np.ndarray:
        """The parity rows as a read-only uint8 (n - k, n) array."""
        return _frozen(self.parity_rows, self.n)

    def __repr__(self):
        return f"[{self.n},{self.k}] over GF({self.field.q})"

    def syndromes(self, rows) -> np.ndarray:
        """rows @ parity_matrix^T, one gf_matmul for the batch: a row is a
        code word exactly when its syndrome is zero."""
        mat = np.array(rows, dtype=np.uint8).reshape(len(rows), self.n)
        return kernels.gf_matmul(self.field, mat, self.parity_matrix.T)

    def contains(self, vec) -> bool:
        if len(vec) != self.n:
            raise LengthMismatch(f"vector length {len(vec)} != {self.n}")
        return not self.syndromes([vec]).any()

    def shift_closed(self, a: int) -> bool:
        """True when the twisted shift c -> (a*c[n-1], c[0], ..., c[n-2])
        maps the code into itself: one syndrome product of the shifted
        generator rows."""
        mul = self.field.mul
        return not self.syndromes([(mul(a, row[-1]),) + row[:-1] for row in self.gen]).any()

    @cached_property
    def twisted_shift(self) -> int | None:
        """The first a in GF(q)*, by increasing discrete log, under whose
        twisted shift the code is closed, or None (always for the zero
        code).  Such a shift maps the words on a support onto words on its
        rotation, which support scans use."""
        if not self.k:
            return None
        units = self.field.exp_table[:self.field.q - 1]  # g**0, g**1, ...
        return next((a for a in units if self.shift_closed(a)), None)


def _frozen(rows, n: int) -> np.ndarray:
    mat = np.array(rows, dtype=np.uint8).reshape(len(rows), n)
    mat.setflags(write=False)
    return mat


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
    raise QmdsError(f"unknown dual kind {kind!r}")


def is_subcode(sub: LinearCode, sup: LinearCode) -> bool:
    if sub.field is not sup.field:
        raise FieldMismatch("codes over different fields")
    if sub.n != sup.n:
        raise LengthMismatch("codes of different lengths")
    return not sup.syndromes(sub.gen).any()


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
    words = kernels.gf_matmul(
        f, np.array(msgs, dtype=np.uint8).reshape(len(msgs), code.k), code.matrix
    )
    return linear_code(f, words.tolist(), code.n)


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
        # the c0 and the c1 coordinates of the row, as two rows
        split_parity.extend(zip(*(emb.coords2(x) for x in row)))
    return code_from_parity(small, split_parity, code.n)


def mds_verify(code: LinearCode) -> bool:
    """Exact check that the code has distance n - k + 1.

    Demands that every column subset on the cheaper side (k-subsets of the
    generator or (n-k)-subsets of the parity matrix) is independent, by the
    prefix-tree walk of kernels.independent_subsets.  Raises TooLarge when
    the subsets number more than MDS_SUBSET_CAP.
    """
    n, k = code.n, code.k
    if k == 0 or k == n:
        return True
    side_k = min(k, n - k)
    count = math.comb(n, side_k)
    if count > MDS_SUBSET_CAP:
        raise TooLarge(
            f"MDS check needs {count} subsets, above the {MDS_SUBSET_CAP} cap"
        )
    if k <= n - k:
        return kernels.independent_subsets(code.field, code.matrix, k)
    return kernels.independent_subsets(code.field, code.parity_matrix, n - k)


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
    if sum(1 for x in vec if x) != d:
        raise Contradiction(f"MDS word on the first {d} positions has another weight")
    return tuple(vec)


def _extension_rows(big: LinearCode, sub: LinearCode):
    """Rows of big.gen completing a basis of big over the subcode: the first
    rows, in order, that are independent of sub and of the rows before them.
    Those are the pivot columns past sub.k of [sub.gen; big.gen]^T."""
    cols = np.array(sub.gen + big.gen, dtype=np.uint8).T
    _, pivots = kernels.rref(big.field, cols)
    return [big.gen[c - sub.k] for c in pivots if c >= sub.k]


def _weight(word) -> int:
    return sum(1 for x in word if x)


class WordSearch:
    """Which weights occur among the words of code that lie outside sub.

    found keeps the first witness seen per weight, absent the weights a
    route proved missing.  Three routes fill them: enumerate (exact, every
    weight), scan (one support level) and sample (witnesses only).  Every
    route visits words in a fixed order, so each witness is the first word
    of its weight in that order.
    """

    def __init__(self, code: LinearCode, sub: LinearCode | None = None):
        self.code = code
        self.sub = sub if sub is not None and sub.k else None
        # generator rows i < leads span code over sub
        self.leads = code.k - (self.sub.k if self.sub else 0)
        self.found: dict[int, tuple] = {}
        self.absent: set[int] = set()
        self.exact_counts: list[int] | None = None
        # (samples, seed, tag) of the last full sampling pass; None before one
        self.sampled: tuple[int, int, int] | None = None

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        if self.sub is None:
            return list(self.code.gen)
        return _extension_rows(self.code, self.sub) + list(self.sub.gen)

    @property
    def enum_cost(self) -> int:
        """Classes an enumeration visits: q**dim(sub) cosets per projective
        class of the leading coefficients."""
        q = self.code.field.q
        return q ** (self.code.k - self.leads) * kernels.projective_count(q, self.leads)

    def record(self, word) -> None:
        self.found.setdefault(_weight(word), tuple(int(x) for x in word))

    def _record_found(self, weights: np.ndarray, words: np.ndarray) -> None:
        for w in np.flatnonzero(np.bincount(weights)).tolist():
            if w and w not in self.found:
                i = int(np.argmax(weights == w))
                self.found[w] = tuple(int(x) for x in words[i])

    def enumerate(self) -> None:
        """Every word once up to scalars: exact counts and every weight."""
        if self.exact_counts is not None:
            return
        f, n = self.code.field, self.code.n
        counts, first = kernels.projective_weights(f, self.rows, leads=self.leads)
        for w, word in first.items():
            self.found.setdefault(w, tuple(word.tolist()))
        counts *= f.q - 1
        counts[0] = 1 if self.sub is None else 0  # zero lies in every subcode
        self.exact_counts = [int(c) for c in counts]
        self.absent.update(w for w in range(1, n + 1) if counts[w] == 0)

    def scan(self, w: int, budget: SearchBudget):
        """Support scan for a word of weight w, or None when its gate
        refuses.  A completed exhaustive scan proves weight w absent."""
        code = self.code
        if not kernels.level_gate(code.n, w, code.k, budget.support):
            return None
        out = kernels.scan_level(
            code.field, code.parity_matrix, w, budget.seed,
            sub=self.sub.parity_matrix if self.sub else None,
            rotations=self.sub is None and code.twisted_shift is not None,
        )
        if out.witness is not None:
            self.record(out.witness)
        elif out.completed and out.exhaustive:
            self.absent.add(w)
        return out

    def sample(self, budget: SearchBudget, tag: int, stop: int | None = None) -> None:
        """Record the first sampled word of each weight.  Stops after the
        chunk that finds weight stop; only a full pass counts as sampled."""
        if self.sampled == (budget.samples, budget.seed, tag):
            return
        for msgs, words in kernels.iter_sampled_words(
            self.code.field, self.rows, budget.samples, budget.seed, tag=tag
        ):
            if self.sub is not None:
                # a word of the subcode has a zero lead message; without a
                # subcode that is the zero word, which weight 0 ignores
                words = words[msgs[:, :self.leads].any(axis=1)]
            self._record_found((words != 0).sum(axis=1), words)
            if stop in self.found:
                return
        self.sampled = (budget.samples, budget.seed, tag)

    def lowest(self, budget: SearchBudget, tag: int) -> WeightResult:
        """Lowest weight: enumerate when affordable, else scan levels upward
        while each one proves its weight absent, then sample down to the
        proven floor.  A level is scanned only once every lower weight is
        absent, so the first word it finds has the lowest weight."""
        if self.enum_cost <= budget.enum:
            self.enumerate()
            w = min(self.found)
            return WeightResult(w, self.found[w], "exact", w)
        floor = 1
        while floor <= self.code.n:
            out = self.scan(floor, budget)
            if out is None:
                break
            if out.witness is not None:
                return WeightResult(floor, self.found[floor], "exact", floor)
            if floor not in self.absent:
                break
            floor += 1
        self.sample(budget, tag, stop=floor)
        best = min(self.found, default=None)
        status = "exact" if best == floor else "lower_bound_only"
        return WeightResult(best, self.found.get(best), status, floor)


def min_weight(code: LinearCode, budget: SearchBudget = DEFAULT_BUDGET) -> WeightResult:
    """Minimum weight: the MDS rank sweep when it applies, else the
    WordSearch ladder.  The returned floor is always a proven lower bound,
    whatever the status.
    """
    if code.k == 0:
        raise ZeroDimensional("zero code has no minimum weight")
    n, k = code.n, code.k
    if math.comb(n, min(k, n - k)) <= MDS_SUBSET_CAP and mds_verify(code):
        w = _mds_witness(code)
        return WeightResult(n - k + 1, w, "exact", n - k + 1)
    return WordSearch(code).lowest(budget, tag=0x31)


def min_weight_relative(
    big: LinearCode, sub: LinearCode, budget: SearchBudget = DEFAULT_BUDGET
) -> WeightResult:
    """Minimum weight over words of big that are not in sub.

    When the two codes coincide the set is empty and the result has status
    "undefined".
    """
    if big.field is not sub.field:
        raise FieldMismatch("codes over different fields")
    if big.n != sub.n:
        raise LengthMismatch("codes of different lengths")
    if not is_subcode(sub, big):
        raise NotASubcode("second argument is not a subcode of the first")
    if big.k == sub.k:
        return WeightResult(None, None, "undefined", 0)
    return WordSearch(big, sub).lowest(budget, tag=0x32)
