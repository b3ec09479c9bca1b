"""Constacyclic codes given by root sets in an extension field.

A spec pins down the code {c : c(beta * alpha^i) = 0 for i in the defining
set} inside GF(Q)^n, where alpha is the canonical primitive n-th root of
unity in the root field and beta is an n-th root of the shift constant.  The
shift constant itself is g**shift_log for the canonical generator g of
GF(Q)*, so a spec serializes to four integers plus the defining set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BadDistance,
    Contradiction,
    DescentFailure,
    NotGaloisStable,
    TowerTooLarge,
)
from .gf import (
    MAX_FIELD_ORDER,
    FieldTable,
    build_field,
    embed,
    field_for_order,
    poly_from_roots,
)
from .linalg import LinearCode, code_from_shorter, linear_code


def _root_tower_degree(Q: int, n: int) -> int:
    t = 1
    acc = Q % n
    while acc != 1 % n:
        t += 1
        acc = (acc * Q) % n
        if t > 16:
            raise TowerTooLarge(f"no manageable splitting field for n={n} over GF({Q})")
    return t


@dataclass(frozen=True)
class ConstacyclicSpec:
    """Defining data of a constacyclic code over GF(Q)."""

    field: FieldTable
    n: int
    shift_log: int
    defining_set: tuple[int, ...]
    beta_log: int | None = None

    def __post_init__(self):
        n, Q = self.n, self.field.q
        if n < 1 or math.gcd(n, self.field.p) != 1:
            raise BadDistance(f"length {n} must be positive and prime to {self.field.p}")
        object.__setattr__(self, "defining_set",
                           tuple(sorted({z % n for z in self.defining_set})))
        object.__setattr__(self, "shift_log", self.shift_log % (Q - 1) if Q > 2 else 0)
        t = _root_tower_degree(Q, n)
        if Q**t > MAX_FIELD_ORDER:
            raise TowerTooLarge(f"root field GF({Q}**{t}) exceeds {MAX_FIELD_ORDER}")
        r1 = Q**t - 1
        if self.beta_log is None:
            object.__setattr__(self, "beta_log", canonical_beta_log(self))
        object.__setattr__(self, "beta_log", self.beta_log % r1)
        # beta**n must equal the image of the shift constant in the root field
        if (self.beta_log * n) % r1 != self.shift_root_log:
            raise DescentFailure("beta_log does not match the shift constant")

    @cached_property
    def root_field(self) -> FieldTable:
        t = _root_tower_degree(self.field.q, self.n)
        return build_field(self.field.p, self.field.m * t)

    @property
    def shift_root_log(self) -> int:
        """Log of the shift constant in the root field, where the embedding
        multiplies base-field logs by (|root| - 1) / (Q - 1)."""
        r1 = self.root_field.q - 1
        return (self.shift_log * (r1 // (self.field.q - 1))) % r1

    @property
    def k(self) -> int:
        return self.n - len(self.defining_set)

    def root_log(self, i: int) -> int:
        r1 = self.root_field.q - 1
        return (self.beta_log + (i % self.n) * (r1 // self.n)) % r1

    def root_logs(self) -> tuple[int, ...]:
        return tuple(self.root_log(i) for i in self.defining_set)


def canonical_beta_log(spec: ConstacyclicSpec) -> int:
    """The smallest-log n-th root of the shift constant in the root field."""
    r1 = spec.root_field.q - 1
    c = spec.shift_root_log
    g = math.gcd(spec.n, r1)
    if c % g:
        raise DescentFailure("shift constant has no n-th root in the root field")
    mod = r1 // g
    return ((c // g) * pow(spec.n // g, -1, mod)) % mod


def mds_spec(Q: int, d: int) -> ConstacyclicSpec:
    """Spec of an MDS code [Q+1, Q+2-d, d] over GF(Q).

    The defining set depends on the parity of d-1 and of Q; for odd Q and
    even d-1 the code is constacyclic with a norm-generator shift constant,
    otherwise it is cyclic.
    """
    fld = field_for_order(Q)
    n = Q + 1
    if not (1 <= d <= Q + 2):
        raise BadDistance(f"no MDS code of distance {d} at length {n}")
    deficiency = d - 1
    if deficiency == 0:
        return ConstacyclicSpec(fld, n, 0, ())
    if deficiency % 2 == 1:
        mu = (d - 2) // 2
        zset = range(-mu, mu + 1)
        s = 0
    elif Q % 2 == 0:
        mu = (d - 3) // 2
        zset = range(Q // 2 - mu, Q // 2 + mu + 2)
        s = 0
    else:
        mu = (d - 1) // 2
        zset = range(1 - mu, mu + 1)
        # The shift constant is the norm G**(Q+1) of the generator G of
        # GF(Q**2), and the embedding sends g to G**(Q+1): it is g itself.
        s = 1
    spec = ConstacyclicSpec(fld, n, s, tuple(z % n for z in zset))
    zeros = len(spec.defining_set)
    if zeros != deficiency:
        raise Contradiction(f"defining set has {zeros} zeros, not {deficiency}")
    return spec


def build_code(spec: ConstacyclicSpec) -> LinearCode:
    """Materialize the spec as a generator-polynomial code, by
    code_from_shorter: from the k shifts of the generator polynomial g, or,
    when k > deg g, as the kernel of the n - k shifts of the reversed check
    polynomial h = (x**n - lambda) / g, lambda the shift constant.  A word
    c = m*g has c*h = m*(x**n - lambda), whose coefficients of degree k to
    n - 1 vanish: row j of the parity matrix reads off degree k + j.
    """
    fld, n = spec.field, spec.n
    k = spec.k
    if k == 0:
        return linear_code(fld, [], n)
    root = spec.root_field
    emb = embed(fld, root)
    roots = [root.exp_table[L % (root.q - 1)] for L in spec.root_logs()]
    try:
        g = poly_from_roots(root, roots, emb)
    except NotGaloisStable as exc:
        raise DescentFailure(
            "defining set is not stable under the Galois action of GF"
            f"({fld.q}) inside GF({root.q})"
        ) from exc
    code = code_from_shorter(fld, n, k, n - k, lambda: _shifts(g.coeffs, k, n),
                             lambda: _shifts(_check_polynomial(spec, g)[::-1], n - k, n))
    if code.k != k:
        raise DescentFailure("generator polynomial does not have full rank span")
    _check_shift_closure(spec, code)
    return code


def _shifts(coeffs, count: int, n: int) -> list[list[int]]:
    """The first count shifts of a coefficient list inside length n."""
    return [[0] * i + list(coeffs) + [0] * (n - len(coeffs) - i) for i in range(count)]


def _check_polynomial(spec: ConstacyclicSpec, g) -> list[int]:
    """Coefficients, constant first, of the check polynomial
    h = (x**n - lambda) / g over the spec's field, by long division.
    Raises DescentFailure when g leaves a remainder: then it generates no
    constacyclic code of length n."""
    f, n = spec.field, spec.n
    deg = g.degree
    rem = [f.neg(_shift_constant(spec))] + [0] * (n - 1) + [1]
    lead = f.inv(g.coeffs[-1])
    h = [0] * (n - deg + 1)
    for i in range(n - deg, -1, -1):
        c = h[i] = f.mul(rem[i + deg], lead)
        for j, gj in enumerate(g.coeffs):
            rem[i + j] = f.sub(rem[i + j], f.mul(c, gj))
    if any(rem[:deg]):
        raise DescentFailure("generator polynomial does not divide x**n - lambda")
    return h


def _shift_constant(spec: ConstacyclicSpec) -> int:
    f = spec.field
    return f.pow(f.generator, spec.shift_log) if f.q > 2 else 1


def _check_shift_closure(spec: ConstacyclicSpec, code: LinearCode) -> None:
    if not code.shift_closed(_shift_constant(spec)):
        raise DescentFailure("constructed code is not closed under the twisted shift")


def bch_ht_bound(spec: ConstacyclicSpec) -> int:
    """Certified lower bound on the minimum distance from the defining set.

    Takes the best consecutive-run bound over all unit step sizes, extended
    by shifted copies of the run when the second step size allows it.  It
    returns as soon as a bound reaches the Singleton ceiling |Z| + 1, above
    which no bound on a nonzero code lies: an MDS spec's first run does.
    A P(C) spec's bound lies below its ceiling, so its search runs in full.
    """
    n = spec.n
    z = set(spec.defining_set)
    if not z:
        return 1
    if len(z) == n:
        return n + 1
    ceiling = len(z) + 1
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
            best = max(best, ell + 1)
            if best == ceiling:
                return best
            for e2 in range(1, n):
                if math.gcd(e2, n) > ell:
                    continue
                s = 0
                while all((b + i * e1 + (s + 1) * e2) % n in z for i in range(ell)):
                    s += 1
                best = max(best, ell + 1 + s)
            if best == ceiling:
                return best
    return best


def spec_to_dict(spec: ConstacyclicSpec) -> dict:
    """Canonical serialization; the defining set is rotated so that beta is
    the canonical n-th root of the shift constant."""
    r1 = spec.root_field.q - 1
    step = r1 // spec.n
    delta = (spec.beta_log - canonical_beta_log(spec)) % r1
    if delta % step:
        raise DescentFailure("beta_log is not an n-th-root twin of the canonical choice")
    rot = delta // step
    zc = sorted((z + rot) % spec.n for z in spec.defining_set)
    return {
        "Q": spec.field.q,
        "n": spec.n,
        "shift_log": spec.shift_log,
        "defining_set": zc,
    }


def spec_from_dict(data: dict) -> ConstacyclicSpec:
    return ConstacyclicSpec(
        field_for_order(int(data["Q"])),
        int(data["n"]),
        int(data["shift_log"]),
        tuple(int(z) for z in data["defining_set"]),
    )
