"""Linear codes over small fields: construction, duality, and exact or
budget-bounded weight searches.

A LinearCode is its field and one read-only uint8 generator matrix in
reduced row echelon form, so two codes are equal exactly when they have the
same row space over the same field.  Derived codes are slices and table
gathers of that matrix.  A code is built by eliminating its shorter side
(code_from_shorter): rref of its k generator rows, or one kernel_rref of
its n - k parity rows when those are fewer; the RREF is unique, so the
code is the same either way.  The exact linear algebra runs in the kernels:
membership is a syndrome product against the parity matrix, one gf_matmul
per batch of rows, and the rows that extend a subcode's basis come from one
rref.
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
    BadWeight,
    Contradiction,
    FieldMismatch,
    LengthMismatch,
    NotASubcode,
    NotQuadraticTower,
    QmdsError,
    TooLarge,
    ZeroDimensional,
)
from .gf import FieldTable, conjugate, conjugate_table, embed


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear [n, k] code: its field and its generator matrix, a read-only
    uint8 (k, n) array in reduced row echelon form.  Codes compare and hash
    by the field and the matrix, shape included."""

    field: FieldTable
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    def _key(self):
        return self.field, self.matrix.shape, self.matrix.tobytes()

    def __eq__(self, other):
        return isinstance(other, LinearCode) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def parity_matrix(self) -> np.ndarray:
        """A read-only uint8 (n - k, n) basis of the dual code, read off the
        reduced matrix and its pivots without another elimination."""
        pivots = (self.matrix != 0).argmax(axis=1)
        return _frozen(kernels.rref_null_space(self.field, self.matrix, pivots))

    @cached_property
    def gen(self) -> tuple[tuple[int, ...], ...]:
        """The generator rows as tuples of Python ints, for outside callers."""
        return tuple(map(tuple, self.matrix.tolist()))

    @cached_property
    def parity_rows(self) -> tuple[tuple[int, ...], ...]:
        """The parity rows as tuples of Python ints, as gen."""
        return tuple(map(tuple, self.parity_matrix.tolist()))

    def __repr__(self):
        return f"[{self.n},{self.k}] over GF({self.field.q})"

    def syndromes(self, rows) -> np.ndarray:
        """rows @ parity_matrix^T, one gf_matmul for the batch: a row is a
        code word exactly when its syndrome is zero."""
        return kernels.gf_matmul(self.field, _elements(self.field, rows), self.parity_matrix.T)

    def contains(self, vec) -> bool:
        if len(vec) != self.n:
            raise LengthMismatch(f"vector length {len(vec)} != {self.n}")
        return not self.syndromes([vec]).any()

    def shift_closed(self, a: int) -> bool:
        """True when the twisted shift c -> (a*c[n-1], c[0], ..., c[n-2])
        maps the code into itself: one syndrome product of the shifted
        generator rows."""
        shifted = np.roll(self.matrix, 1, axis=1)
        shifted[:, 0] = self.field.np_tables().mul[a, self.matrix[:, -1]]
        return not self.syndromes(shifted).any()

    @cached_property
    def twisted_shift(self) -> int | None:
        """The a in GF(q)* under whose twisted shift the code is closed, or
        None (always for the zero code).  A code closed under two shifts is
        closed under every one, and then a is 1, the first by discrete log.
        Such a shift maps the words on a support onto words on its rotation,
        which the MDS check and the support scans use.

        Solved in one syndrome product, not searched over GF(q)*: a row g
        shifts to g' + a*g[n-1]*e_0, g' the rotated row with entry 0 cleared,
        so its syndrome s(g') + a*g[n-1]*H[:, 0] is affine in a.  The first
        nonzero coefficient g[n-1]*H[j, 0] fixes a, and the code is closed
        under that shift exactly when every syndrome vanishes at it; with
        every coefficient zero the shift does not depend on a, and the code
        is closed under all of them or none.
        """
        if not self.k:
            return None
        t = self.field.np_tables()
        rolled = np.roll(self.matrix, 1, axis=1)
        rolled[:, 0] = 0
        base = self.syndromes(rolled)
        slope = t.mul[self.matrix[:, -1, None], self.parity_matrix[:, 0]]
        at = np.flatnonzero(slope)
        if not len(at):
            return None if base.any() else 1
        a = int(t.mul[t.neg[base.flat[at[0]]], t.inv[slope.flat[at[0]]]])
        closed = a and not t.add[base, t.mul[a, slope]].any()
        return a if closed else None


def _elements(field: FieldTable, rows) -> np.ndarray:
    """rows as a uint8 array of field elements.  Entries are range-checked
    first: the cast would wrap 256 to 0 and -1 to 255, and the mod-p
    product would read 3 as 0 over GF(3)."""
    mat = np.asarray(rows)
    if mat.size and (mat.min() < 0 or mat.max() >= field.q):
        raise FieldMismatch(f"entry outside GF({field.q})")
    return mat.astype(np.uint8, copy=False)


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


def linear_code(field: FieldTable, rows, n: int | None = None) -> LinearCode:
    """The span of rows (a list of rows or a 2-D array) of length n, by default the first row's."""
    if n is None:
        if not len(rows):
            raise LengthMismatch("cannot infer length from an empty row list")
        n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise LengthMismatch("ragged generator rows")
    red, _ = kernels.rref(field, _elements(field, np.asarray(rows).reshape(len(rows), n)))
    return LinearCode(field, _frozen(red))


def code_from_parity(field: FieldTable, rows, n: int) -> LinearCode:
    """The length-n code annihilated by rows: one kernel_rref, whose
    pivots number the rows' rank, not the code's dimension."""
    mat = _elements(field, np.asarray(rows).reshape(len(rows), n))
    return LinearCode(field, _frozen(kernels.kernel_rref(field, mat)))


def code_from_shorter(field: FieldTable, n: int, k: int, r: int, gen, parity) -> LinearCode:
    """The length-n code spanned by the rows gen() returns, at most k, and
    annihilated by the r rows parity() returns, built by eliminating the
    shorter side: code_from_parity when r < k, else linear_code.  The RREF
    is unique, so both give the same code; only the side eliminated is
    ever built.  Every code whose two sides are at hand is built here."""
    if r < k:
        return code_from_parity(field, parity(), n)
    return linear_code(field, gen(), n)


def hermitian_inner(field: FieldTable, u, v) -> int:
    """Sum of u_i**q * v_i over GF(q**2)."""
    if len(u) != len(v):
        raise LengthMismatch("vectors of different lengths")
    acc = 0
    for x, y in zip(u, v):
        acc = field.add(acc, field.mul(conjugate(field, x), y))
    return acc


def dual(code: LinearCode, kind: str = "euclidean") -> LinearCode:
    """Euclidean or Hermitian dual code, by code_from_shorter: spanned by
    the n - k parity rows and annihilated by the k generator rows, both
    conjugated for the Hermitian dual."""
    gen, parity = code.parity_matrix, code.matrix
    if kind == "hermitian":
        conj = conjugate_table(code.field)
        gen, parity = conj[gen], conj[parity]
    elif kind != "euclidean":
        raise QmdsError(f"unknown dual kind {kind!r}")
    return code_from_shorter(code.field, code.n, code.n - code.k, code.k,
                             lambda: gen, lambda: parity)


def is_subcode(sub: LinearCode, sup: LinearCode) -> bool:
    if sub.field is not sup.field:
        raise FieldMismatch("codes over different fields")
    if sub.n != sup.n:
        raise LengthMismatch("codes of different lengths")
    return not sup.syndromes(sub.matrix).any()


def _check_coords(n: int, coords) -> tuple[int, ...]:
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise BadCoordinate("repeated coordinate")
    for c in coords:
        if not (0 <= c < n):
            raise BadCoordinate(f"coordinate {c} outside [0, {n})")
    return coords


def words_supported_in(code: LinearCode, support) -> LinearCode:
    """Subcode of words vanishing outside the given support, full length:
    the shortened code on the support, with zero columns inserted, which
    keeps its RREF."""
    support = _check_coords(code.n, support)
    outside = sorted(set(range(code.n)) - set(support))
    if not outside or code.k == 0:
        return code
    short = shorten(code, outside).matrix
    mat = np.zeros((short.shape[0], code.n), dtype=np.uint8)
    mat[:, sorted(support)] = short
    return LinearCode(code.field, _frozen(mat))


def shorten(code: LinearCode, coords) -> LinearCode:
    """Words zero on coords, with those coordinates deleted, by
    code_from_shorter: the kernel of the parity columns kept, or the
    messages whose words vanish on coords, encoded on the columns kept."""
    coords = _check_coords(code.n, coords)
    keep = [j for j in range(code.n) if j not in set(coords)]
    f = code.field

    def words():
        msgs = kernels.null_space(f, code.matrix[:, list(coords)].T)
        return kernels.gf_matmul(f, msgs, code.matrix[:, keep])

    return code_from_shorter(f, len(keep), code.k, code.n - code.k,
                             words, lambda: code.parity_matrix[:, keep])


def puncture(code: LinearCode, coords) -> LinearCode:
    """Delete the given coordinates from every word."""
    coords = _check_coords(code.n, coords)
    keep = [j for j in range(code.n) if j not in set(coords)]
    return linear_code(code.field, code.matrix[:, keep], len(keep))


def subfield_subcode(code: LinearCode, small: FieldTable) -> LinearCode:
    """Words of the code with every entry in the embedded subfield, as a code
    over that subfield."""
    big = code.field
    if big.m != 2 * small.m or big.p != small.p:
        raise NotQuadraticTower(
            f"GF({big.q}) is not a quadratic extension of GF({small.q})"
        )
    # each parity row becomes two: its c0 and its c1 coordinates
    split = embed(small, big).coords2_table[code.parity_matrix].transpose(0, 2, 1)
    return code_from_parity(small, split.reshape(-1, code.n), code.n)


def mds_verify(code: LinearCode) -> bool:
    """Exact check that the code has distance n - k + 1.

    Demands that every column subset on the cheaper side (k-subsets of the
    generator or (n-k)-subsets of the parity matrix) is independent, by the
    prefix-tree walk of kernels.independent_subsets.  On a code closed under
    a twisted shift the walk keeps to the necklaces, one subset per rotation
    orbit: the shift maps a word on a support S onto one on S + 1, and the
    Euclidean dual is closed under the inverse shift, so on either side a
    subset is dependent exactly when its least rotation is.  Raises TooLarge
    when the subsets number more than MDS_SUBSET_CAP.  The cap still counts
    all C(n, side) subsets, although on an MDS matrix the walk stops two
    levels above them (see kernels.dependent_supports).
    """
    n, k = code.n, code.k
    if k == 0 or k == n:
        return True
    count = math.comb(n, min(k, n - k))
    if count > MDS_SUBSET_CAP:
        raise TooLarge(f"MDS check needs {count} subsets, above the {MDS_SUBSET_CAP} cap")
    side, mat = (k, code.matrix) if k <= n - k else (n - k, code.parity_matrix)
    return kernels.independent_subsets(code.field, mat, side,
                                       necklaces=code.twisted_shift is not None)


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
    vec = words_supported_in(code, range(d)).matrix[0]
    if np.count_nonzero(vec) != d:
        raise Contradiction(f"MDS word on the first {d} positions has another weight")
    return tuple(vec.tolist())


def _extension_rows(big: LinearCode, sub: LinearCode) -> np.ndarray:
    """Rows of big.matrix completing a basis of big over the subcode: the
    first rows, in order, that are independent of sub and of the rows before
    them.  Those are the pivot columns past sub.k of [sub.matrix;
    big.matrix]^T."""
    _, pivots = kernels.rref(big.field, np.concatenate((sub.matrix, big.matrix)).T)
    return big.matrix[[c - sub.k for c in pivots if c >= sub.k]]


@dataclass(frozen=True)
class PresenceResult:
    weight: int
    verdict: str  # "FoundWitness" | "ProvenAbsent" | "UnknownWithinBudget"
    witness: tuple | None
    effort: dict

    @property
    def found(self) -> bool:
        return self.verdict == "FoundWitness"


class WordSearch:
    """Which weights occur among the words of code that lie outside sub.

    found keeps the first witness seen per weight, absent the weights a
    route proved missing.  Three routes fill them: enumerate (exact, every
    weight), scan (one support level, each outcome kept in scans) and
    sample (witnesses only).  Every route visits words in a fixed order,
    so each witness is the first word of its weight in that order.  The class owns every budget gate and
    route order: enumerable and scan hold the gates, decide (one weight)
    and lowest (the lowest weight) the orders.
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
        # the outcome of each level scan run, by (w, seed): none runs twice
        self.scans: dict[tuple[int, int], kernels.ScanOutcome] = {}

    @cached_property
    def rows(self) -> np.ndarray:
        if self.sub is None:
            return self.code.matrix
        return np.concatenate((_extension_rows(self.code, self.sub), self.sub.matrix))

    def record(self, word) -> None:
        word = np.asarray(word)
        self.found.setdefault(int(np.count_nonzero(word)), tuple(word.tolist()))

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

    def enumerable(self, budget: SearchBudget) -> bool:
        """The one enumeration gate: the classes an enumeration visits,
        q**dim(sub) cosets per projective class of the leading
        coefficients, number at most budget.enum."""
        q, leads = self.code.field.q, self.leads
        return q ** (self.code.k - leads) * kernels.projective_count(q, leads) <= budget.enum

    def admits(self, w: int, budget: SearchBudget) -> bool:
        """The one scan gate: C(n, w) * max(min(k, n - k), 1)**3 is at
        most budget.support."""
        code = self.code
        side = max(min(code.k, code.n - code.k), 1)
        return math.comb(code.n, w) * side**3 <= budget.support

    def scan(self, w: int, budget: SearchBudget):
        """Support scan for a word of weight w, or None when its gate
        refuses.  A completed exhaustive scan proves weight w absent.  The
        outcome depends on the code, w and the seed alone, so a level
        scanned before under the same seed is not scanned again."""
        if not self.admits(w, budget):
            return None
        if (w, budget.seed) in self.scans:
            return self.scans[w, budget.seed]
        code = self.code
        out = kernels.scan_level(
            code.field, code.parity_matrix, w, budget.seed,
            sub=self.sub.parity_matrix if self.sub else None,
            rotations=self.sub is None and code.twisted_shift is not None,
        )
        if out.witness is not None:
            self.record(out.witness)
        elif out.completed and out.exhaustive:
            self.absent.add(w)
        self.scans[w, budget.seed] = out
        return out

    def sample(self, budget: SearchBudget, tag: int, stop: int | None = None) -> None:
        """Record the first sampled word of each weight.  Stops after the
        chunk that finds weight stop; only a full pass counts as sampled.

        The messages are the raw bytes of a kernels.PhiloxStream, read off
        the Philox words, and an entry is nonzero exactly when its byte is
        at least nonzero_from.  A column of rows whose one nonzero entry
        lies in row i is nonzero in m @ rows exactly when m_i is, so the
        count of such unit columns on the message's support, its base,
        bounds its weight to [base, base + the other columns].  Only the
        messages whose interval holds a weight not yet found are decoded
        and encoded on those other columns, and a full word is built only
        for the first message of each new weight.  A weight proven absent
        counts as settled too: once every weight in 1..n is found or
        absent, the pass draws no more and still counts as full, so after
        level scans that settled every weight it draws nothing.
        """
        if self.sampled == (budget.samples, budget.seed, tag):
            return
        f, n, rows = self.code.field, self.code.n, self.rows
        nnz = np.count_nonzero(rows, axis=0)
        units = (rows[:, nnz == 1] != 0).sum(axis=1, dtype=np.float32)
        rest = rows[:, nnz > 1]
        spread = np.minimum(np.arange(n + 1) + rest.shape[1], n) + 1

        def reach():
            """reach[b]: some weight in [b, b + rest columns] is neither
            found nor absent."""
            missing = np.ones(n + 1, dtype=bool)
            missing[[0, *self.found, *self.absent]] = False
            below = np.concatenate(([0], np.cumsum(missing)))  # missing weights < i
            return below[spread] > below[:-1]

        stream = kernels.PhiloxStream(f.q, budget.seed, tag)
        chunks = stream.chunks(budget.samples, len(rows))
        hit = reach()
        while hit.any():
            raw = next(chunks, None)
            if raw is None:
                break
            nonzero = raw >= stream.nonzero_from
            base = (nonzero @ units).astype(np.intp)
            keep = hit[base]
            if self.sub is not None:
                # a word of the subcode has a zero lead message; without a
                # subcode that is the zero word, which weight 0 ignores
                keep &= nonzero[:, :self.leads].any(axis=1)
            msgs, weights = stream.digit[raw[keep]], base[keep]
            if len(msgs):
                weights += np.count_nonzero(kernels.gf_matmul(f, msgs, rest), axis=1)
            new = [w for w in np.flatnonzero(np.bincount(weights)).tolist()
                   if w and w not in self.found and w not in self.absent]
            if new:
                firsts = [int(np.argmax(weights == w)) for w in new]
                words = kernels.gf_matmul(f, msgs[firsts], rows)
                self.found.update(zip(new, map(tuple, words.tolist())))
                hit = reach()
            if stop in self.found:
                return
        self.sampled = (budget.samples, budget.seed, tag)

    def lowest(self, budget: SearchBudget) -> WeightResult:
        """Lowest weight: enumerate when enumerable, else scan levels upward
        while each one proves its weight absent, then sample down to the
        proven floor unless its scan found a word.  A level is scanned only
        once every lower weight is absent, so the first word it finds has
        the lowest weight.  The sample's tag is 0x31 without a subcode and
        0x32 with one, so one question always draws the same stream."""
        if self.enumerable(budget):
            self.enumerate()
            w = min(self.found)
            return WeightResult(w, self.found[w], "exact", w)
        floor = 1
        while floor <= self.code.n and self.scan(floor, budget) and floor in self.absent:
            floor += 1
        if floor not in self.found:
            self.sample(budget, 0x32 if self.sub else 0x31, stop=floor)
        best = min(self.found, default=None)
        status = "exact" if best == floor else "lower_bound_only"
        return WeightResult(best, self.found.get(best), status, floor)

    def decide(self, w: int, budget: SearchBudget) -> PresenceResult:
        """Whether a word of weight exactly w occurs.

        Routes in one fixed order: the verdicts found and absent already
        hold, then enumeration when it is enumerable, then the search,
        whose order depends on the code and the budget alone.  C(n, v)
        peaks at v = n // 2, so the scan gate admits every level exactly
        when it admits that one.  Then each open level (neither found nor
        absent) is scanned, in ascending order, before the sampling pass
        that every weight shares (it runs once per budget).  The pass then
        hunts only the weights the scans left open, and draws nothing once
        they settled them all.  Otherwise the pass goes first, and the
        level-w scan runs only when the pass did not find w.  A weight that
        an earlier call settled by scan reports that scan's supports_scanned
        along with the cache.  The answer is the same whether w is asked
        alone or after other weights.
        """
        if not (1 <= w <= self.code.n):
            raise BadWeight(f"weight {w} outside 1..{self.code.n}")
        if self.code.k == 0:
            return PresenceResult(w, "ProvenAbsent", None, {"reason": "zero code"})
        if w in self.found or w in self.absent:
            effort = {"cache": True}
            out = self.scans.get((w, budget.seed))
            if out is not None and out.decided:
                effort["supports_scanned"] = out.supports_scanned
        elif self.enumerable(budget):
            self.enumerate()
            effort = {"enumerated": True}
        else:
            first = self.admits(self.code.n // 2, budget)
            if first:
                for v in range(1, self.code.n + 1):
                    if v not in self.found and v not in self.absent:
                        self.scan(v, budget)
            self.sample(budget, tag=0x77)
            out = self.scan(w, budget) if first or w not in self.found else None
            effort = {} if out is None else {"supports_scanned": out.supports_scanned}
            # credited to sampling when it found w or w stays undecided
            if out is None or not out.decided:
                effort["samples"] = budget.samples
                effort["seed"] = budget.seed
        if w in self.found:
            return PresenceResult(w, "FoundWitness", self.found[w], effort)
        verdict = "ProvenAbsent" if w in self.absent else "UnknownWithinBudget"
        return PresenceResult(w, verdict, None, effort)


def min_weight(code: LinearCode, budget: SearchBudget = DEFAULT_BUDGET) -> WeightResult:
    """Minimum weight: the MDS rank sweep unless mds_verify refuses it as
    TooLarge or finds the code not MDS, else WordSearch.lowest.  The
    returned floor is always a proven lower bound, whatever the status.
    """
    if code.k == 0:
        raise ZeroDimensional("zero code has no minimum weight")
    try:
        mds = mds_verify(code)
    except TooLarge:  # too many subsets to check: the search decides
        mds = False
    if mds:
        d = code.n - code.k + 1
        return WeightResult(d, _mds_witness(code), "exact", d)
    return WordSearch(code).lowest(budget)


def min_weight_relative(
    big: LinearCode, sub: LinearCode, budget: SearchBudget = DEFAULT_BUDGET
) -> WeightResult:
    """Minimum weight over words of big that are not in sub.

    When the two codes coincide the set is empty and the result has status
    "undefined".
    """
    # is_subcode raises FieldMismatch or LengthMismatch first
    if not is_subcode(sub, big):
        raise NotASubcode("second argument is not a subcode of the first")
    if big.k == sub.k:
        return WeightResult(None, None, "undefined", 0)
    return WordSearch(big, sub).lowest(budget)
