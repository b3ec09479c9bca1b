"""The puncture code of a linear code over GF(q**2), with its weight search.

For C over GF(q**2) the puncture code lives in GF(q)^n: it is the dual of
the span of all componentwise products conj(b) * b' of code words, intersected
with the subfield.  A weight-w word in it certifies that the rescaled length-w
restriction of C stays Hermitian self-orthogonal, which is what the stabilizer
construction consumes.
"""

from __future__ import annotations

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
from .gf import build_field, conjugate_table, embed, norm_preimage, subfield_order
from .linalg import (
    LinearCode,
    PresenceResult,
    WordSearch,
    code_from_parity,
    linear_code,
    subfield_subcode,
)


def _product_rows(code: LinearCode) -> np.ndarray:
    """All componentwise conj(b_i) * b_j over generator pairs, row i*k + j."""
    conj_gen = conjugate_table(code.field)[code.matrix]
    prods = code.field.np_tables().mul[conj_gen[:, None, :], code.matrix[None, :, :]]
    return prods.reshape(-1, code.n)


def _hermitian_gram(code: LinearCode, weights: np.ndarray) -> np.ndarray:
    """conj(G) diag(weights) G^T: entry (i, j) is sum_t w_t conj(b_i,t) b_j,t."""
    conj_gen = conjugate_table(code.field)[code.matrix]
    weighted = code.field.np_tables().mul[conj_gen, weights[None, :]]
    return kernels.gf_matmul(code.field, weighted, code.matrix.T)


class PunctureCode(WordSearch):
    """P(C) plus the search state shared by the weight queries."""

    def __init__(self, base: LinearCode, source: str, parent: str,
                 spec: ConstacyclicSpec | None = None):
        super().__init__(base)
        self.base = base
        self.source = source
        self.parent = parent
        self.spec = spec

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
    # The new shift constant is beta'**n pulled back to GF(q): section
    # divides its log by the embedding's ratio, and raises NotInSubfield
    # when beta'**n lies outside GF(q).
    root = spec.root_field
    shift_root = root.exp_table[(beta_log * n) % r1]
    s_small = small.log_table[embed(small, root).section(shift_root)]
    pspec = ConstacyclicSpec(small, n, s_small, tuple(zprime), beta_log=beta_log)
    if pspec.root_field.q != spec.root_field.q:
        raise NotQuadraticTower(
            "spectral route needs the same splitting field on both levels"
        )
    base = build_code(pspec)
    return PunctureCode(base, "spectral", f"spec(Q={Q},n={n})", spec=pspec)


def weight_present(pc: PunctureCode, w: int,
                   budget: SearchBudget = DEFAULT_BUDGET) -> PresenceResult:
    """Decide whether the puncture code has a word of weight exactly w, by
    WordSearch.decide on the search state the puncture code keeps."""
    return pc.decide(w, budget)


def weight_spectrum(pc: PunctureCode, weights=None,
                    budget: SearchBudget = DEFAULT_BUDGET) -> list[PresenceResult]:
    """weight_present for a run of weights (default 1..n), ascending."""
    base = pc.base
    if weights is None:
        weights = range(1, base.n + 1)
    weights = sorted(set(weights))
    if any(not (1 <= w <= base.n) for w in weights):
        raise BadWeight(f"weights outside 1..{base.n}")
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
    xe = np.array([emb.map(v) for v in x], dtype=np.uint8)
    return not _hermitian_gram(code, xe).any()


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
    ys = np.array([norm_preimage(big, emb.map(x[t])) for t in support], dtype=np.uint8)
    rows = big.np_tables().mul[code.matrix[:, support], ys]
    d_code = linear_code(big, rows, len(support))
    if _hermitian_gram(d_code, np.ones(d_code.n, dtype=np.uint8)).any():
        raise NotSelfOrthogonal("rescaled code is not self-orthogonal")
    return d_code
