"""The puncture code of a linear code over GF(q**2), with its weight search.

For C over GF(q**2) the puncture code lives in GF(q)^n: it is the dual of
the span of all componentwise products conj(b) * b' of code words, intersected
with the subfield.  A weight-w word in it certifies that the rescaled length-w
restriction of C stays Hermitian self-orthogonal, which is what the stabilizer
construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .budgets import DEFAULT_BUDGET, SearchBudget
from .ccodes import ConstacyclicSpec, build_code, spec_to_dict
from .errors import (
    BadWeight,
    FieldMismatch,
    LengthMismatch,
    NotInPunctureCode,
    NotQuadraticTower,
    NotSelfOrthogonal,
    ZeroWord,
)
from .gf import build_field, conjugate, embed, norm_preimage, subfield_order
from .linalg import (
    LinearCode,
    code_from_parity,
    hermitian_inner,
    linear_code,
    subfield_subcode,
)


def _product_rows(code: LinearCode):
    """All componentwise conj(b_i) * b_j over generator pairs."""
    f = code.field
    conj_rows = [[conjugate(f, x) for x in row] for row in code.gen]
    rows = []
    for ci in conj_rows:
        for bj in code.gen:
            rows.append([f.mul(a, b) for a, b in zip(ci, bj)])
    return rows


class PunctureCode:
    """P(C) plus cached search state shared by the weight queries."""

    def __init__(self, base: LinearCode, source: str, parent: str,
                 spec: ConstacyclicSpec | None = None):
        self.base = base
        self.source = source
        self.parent = parent
        self.spec = spec
        self.found: dict[int, tuple] = {}
        self.absent: set[int] = set()
        self.exact_counts: list[int] | None = None
        # (samples, seed) of the last sampling pass; None before the first
        self.sampled: tuple[int, int] | None = None

    def __repr__(self):
        return f"P({self.parent}) = {self.base!r} via {self.source}"

    def describe(self) -> dict:
        out = {
            "q": self.base.field.q,
            "n": self.base.n,
            "k": self.base.k,
            "source": self.source,
            "parent": self.parent,
        }
        if self.spec is not None:
            out["spec"] = spec_to_dict(self.spec)
        return out


def puncture_direct(code: LinearCode) -> PunctureCode:
    """P(C) from the product-row kernel; works for any C over GF(q**2)."""
    big = code.field
    subfield_order(big)  # raises unless the field is a quadratic extension
    small = build_field(big.p, big.m // 2)
    rows = _product_rows(code)
    kernel_big = code_from_parity(big, rows, code.n)
    base = subfield_subcode(kernel_big, small)
    return PunctureCode(base, "direct", repr(code))


def puncture_spectral(spec: ConstacyclicSpec) -> PunctureCode:
    """P(C) for the Hermitian dual C of the spec'd code, via root indices.

    The spec describes C* over GF(q**2); the puncture code of C = (C*)^perp_H
    is constacyclic over GF(q) with defining set {q*i + q^2*j} over pairs of
    the original defining set, and its shift constant is the norm of the
    original one.
    """
    Q = spec.field.q
    q = subfield_order(spec.field)
    small = build_field(spec.field.p, spec.field.m // 2)
    n = spec.n
    r1 = spec.root_field.q - 1
    zprime = sorted({(q * i + q * q * j) % n for i in spec.defining_set
                     for j in spec.defining_set})
    beta_log = (spec.beta_log * q * (q + 1)) % r1
    # The new shift constant is the concrete value of beta'**n pulled back
    # through the subfield embedding, not a formula in the old exponent.
    root = spec.root_field
    shift_root = root.exp_table[(beta_log * n) % r1]
    shift_small = embed(small, root).section(shift_root)
    s_small = small.log_table[shift_small] if shift_small != 1 else 0
    pspec = ConstacyclicSpec(small, n, s_small, tuple(zprime), beta_log=beta_log)
    if pspec.root_field.q != spec.root_field.q:
        raise NotQuadraticTower(
            "spectral route needs the same splitting field on both levels"
        )
    base = build_code(pspec)
    return PunctureCode(base, "spectral", f"spec(Q={Q},n={n})", spec=pspec)


@dataclass(frozen=True)
class PresenceResult:
    weight: int
    verdict: str  # "FoundWitness" | "ProvenAbsent" | "UnknownWithinBudget"
    witness: tuple | None
    effort: dict

    @property
    def found(self) -> bool:
        return self.verdict == "FoundWitness"


def _record_found(pc: PunctureCode, weights: np.ndarray, words: np.ndarray) -> None:
    for wv in np.unique(weights):
        w = int(wv)
        if w and w not in pc.found:
            i = int(np.nonzero(weights == wv)[0][0])
            pc.found[w] = tuple(int(x) for x in words[i])


def _ensure_enumerated(pc: PunctureCode) -> None:
    if pc.exact_counts is not None:
        return
    base = pc.base
    counts = np.zeros(base.n + 1, dtype=np.int64)
    for words in kernels.iter_projective_words(base.field, base.gen):
        weights = (words != 0).sum(axis=1)
        counts += np.bincount(weights, minlength=base.n + 1)
        _record_found(pc, weights, words)
    counts *= base.field.q - 1
    counts[0] = 1
    pc.exact_counts = [int(c) for c in counts]
    pc.absent.update(w for w in range(1, base.n + 1) if counts[w] == 0)


def _ensure_sampled(pc: PunctureCode, budget: SearchBudget) -> None:
    if pc.sampled == (budget.samples, budget.seed):
        return
    base = pc.base
    for _, words in kernels.iter_sampled_words(
        base.field, base.gen, budget.samples, budget.seed, tag=0x77
    ):
        weights = (words != 0).sum(axis=1)
        _record_found(pc, weights, words)
    pc.sampled = (budget.samples, budget.seed)


def _enum_fits(pc: PunctureCode, budget: SearchBudget) -> bool:
    return kernels.projective_count(pc.base.field.q, pc.base.k) <= budget.enum


def weight_present(pc: PunctureCode, w: int,
                   budget: SearchBudget = DEFAULT_BUDGET) -> PresenceResult:
    """Decide whether the puncture code has a word of weight exactly w.

    Exhaustive enumeration when the code is small, then a support scan at
    level w, then the shared sampling pass.  Verdicts are cached on the
    PunctureCode, so asking again (or asking after a bulk pass) is free.
    """
    base = pc.base
    if not (1 <= w <= base.n):
        raise BadWeight(f"weight {w} outside 1..{base.n}")
    if base.k == 0:
        return PresenceResult(w, "ProvenAbsent", None, {"reason": "zero code"})
    if w in pc.found:
        return PresenceResult(w, "FoundWitness", pc.found[w], {"cache": True})
    if w in pc.absent:
        return PresenceResult(w, "ProvenAbsent", None, {"cache": True})
    if _enum_fits(pc, budget):
        _ensure_enumerated(pc)
        if w in pc.found:
            return PresenceResult(w, "FoundWitness", pc.found[w],
                                  {"enumerated": pc.exact_counts is not None})
        return PresenceResult(w, "ProvenAbsent", None, {"enumerated": True})
    effort = {}
    if kernels.level_gate(base.n, w, base.k, budget.support):
        out = kernels.scan_level(
            base.field, base.parity_rows, base.n, w, budget.seed,
            need_full=True, seed_tag=w,
        )
        effort["supports_scanned"] = out.supports_scanned
        if out.witness is not None:
            pc.found[w] = out.witness
            return PresenceResult(w, "FoundWitness", out.witness, effort)
        if out.completed and out.exhaustive:
            pc.absent.add(w)
            return PresenceResult(w, "ProvenAbsent", None, effort)
    _ensure_sampled(pc, budget)
    effort["samples"] = budget.samples
    effort["seed"] = budget.seed
    if w in pc.found:
        return PresenceResult(w, "FoundWitness", pc.found[w], effort)
    return PresenceResult(w, "UnknownWithinBudget", None, effort)


def weight_spectrum(pc: PunctureCode, weights=None,
                    budget: SearchBudget = DEFAULT_BUDGET) -> list[PresenceResult]:
    """Presence verdicts for a run of weights, sharing work across them.

    When exhaustive enumeration is out of reach the sampling pass runs first
    so that scans only fire for the weights sampling cannot see.
    """
    base = pc.base
    if weights is None:
        weights = range(1, base.n + 1)
    weights = sorted(set(weights))
    if any(not (1 <= w <= base.n) for w in weights):
        raise BadWeight(f"weights outside 1..{base.n}")
    if base.k and not _enum_fits(pc, budget):
        _ensure_sampled(pc, budget)
    return [weight_present(pc, w, budget) for w in weights]


def respects_product_pairing(code: LinearCode, x) -> bool:
    """True when x (over the subfield) annihilates every conj-product pair."""
    big = code.field
    small = build_field(big.p, big.m // 2)
    if len(x) != code.n:
        raise LengthMismatch(f"word length {len(x)} != {code.n}")
    if any(not (0 <= v < small.q) for v in x):
        raise FieldMismatch(f"entries must lie in GF({small.q})")
    if code.k == 0:
        return True
    emb = embed(small, big)
    t = big.np_tables()
    gen = kernels.np_matrix(big, code.gen, code.n)
    conj_gen = np.array(
        [[conjugate(big, int(v)) for v in row] for row in code.gen], dtype=np.uint8
    )
    xe = np.array([emb.map(v) for v in x], dtype=np.uint8)
    weighted = t.mul[conj_gen, xe[None, :]]
    gram = kernels.gf_matmul(big, weighted, gen.T)
    return not gram.any()


def in_puncture_code(pc: PunctureCode, x) -> bool:
    if len(x) != pc.base.n:
        raise LengthMismatch(f"word length {len(x)} != {pc.base.n}")
    return pc.base.contains(tuple(x))


def rescale_self_orthogonal(code: LinearCode, x) -> LinearCode:
    """Restrict C to the support of x and rescale into a Hermitian
    self-orthogonal code.

    x must be a puncture-code word for C (entries over the subfield); each
    support entry is replaced by a norm preimage y_t, and the rows y_t * c_t
    over the support span the returned code D.
    """
    big = code.field
    if big.m % 2:
        raise NotQuadraticTower(f"GF({big.q}) has no quadratic subfield")
    small = build_field(big.p, big.m // 2)
    if not any(x):
        raise ZeroWord("cannot rescale along the zero word")
    if not respects_product_pairing(code, x):
        raise NotInPunctureCode("word fails the product pairing test")
    emb = embed(small, big)
    support = [t for t, v in enumerate(x) if v]
    ys = [norm_preimage(big, emb.map(x[t])) for t in support]
    rows = [[big.mul(y, row[t]) for y, t in zip(ys, support)] for row in code.gen]
    d_code = linear_code(big, rows, len(support))
    for i, u in enumerate(d_code.gen):
        for v in d_code.gen[i:]:
            if hermitian_inner(big, u, v):
                raise NotSelfOrthogonal("rescaled code is not self-orthogonal")
    return d_code
