"""Quantum stabilizer records built from Hermitian self-orthogonal codes.

A code D over GF(q**2) with D contained in its Hermitian dual D* yields a
stabilizer code [[n, n-2k, d]]_q whose distance is the minimum weight of
D* - D (of D* itself when n = 2k).  This module turns such pairs into
parameter records, tracks how exact each distance claim is, and hosts the
code families and conjecture checks driven by the CLI.
"""

from __future__ import annotations

import importlib.resources
import json
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .budgets import DEFAULT_BUDGET, SearchBudget
from .ccodes import ConstacyclicSpec, bch_ht_bound, build_code, mds_spec
from .errors import (
    BadCoordinate,
    BadDistance,
    BadS,
    Contradiction,
    DistanceOne,
    NotKnown,
    NotPure,
    NotSelfOrthogonal,
    UnsupportedAlphabet,
)
from .gf import (
    _prime_power_parts,
    build_field,
    conjugate_table,
    embed,
    field_for_order,
    norm,
    subfield_order,
)
from .linalg import (
    LinearCode,
    WordSearch,
    code_from_parity,
    dual,
    is_subcode,
    linear_code,
    min_weight,
    shorten,
)
from .pcode import (
    PresenceResult,
    PunctureCode,
    puncture_direct,
    puncture_spectral,
    rescale_self_orthogonal,
    weight_spectrum,
)


@dataclass(frozen=True)
class QuantumCodeParams:
    q: int
    n: int
    k: int
    d: int
    pure: str  # "yes" | "no" | "unknown"
    d_exact: bool
    provenance: tuple[str, ...] = ()

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.q, self.n, self.k, self.d)

    def label(self) -> str:
        return f"[[{self.n},{self.k},{self.d}]]_{self.q}"

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "pure": self.pure,
            "d_exact": self.d_exact,
            "provenance": list(self.provenance),
        }


def qmds_check(p: QuantumCodeParams) -> bool:
    """Quantum Singleton bound met with equality."""
    return p.n + 2 == p.k + 2 * p.d


def stabilizer_from_self_orthogonal(
    d_code: LinearCode,
    budget: SearchBudget = DEFAULT_BUDGET,
    *,
    d_floor: int = 1,
    provenance: tuple[str, ...] = (),
) -> QuantumCodeParams:
    """Parameter record of the stabilizer code defined by a self-orthogonal D.

    d_floor may carry an external certified lower bound on the minimum
    weight of D* (for pipeline codes, the bound inherited from the parent
    MDS code).  The distance is settled, in order of preference, by an
    exact relative search, by squeezing the bounds against the quantum
    Singleton cap, or reported as a floor with d_exact=False.  The relative
    search runs when D is over an alphabet q <= 3, when its enumeration
    fits budget.enum, or when the floor on d(D*) is below the cap.  The
    rule reads only D, d_floor and the budget, never the caller.
    """
    big = d_code.field
    q0 = subfield_order(big)
    n, kt = d_code.n, d_code.k
    prov = tuple(provenance)
    if kt == 0:
        return QuantumCodeParams(q0, n, n, 1, "yes", True, prov + ("empty-stabilizer",))
    dstar = dual(d_code, "hermitian")
    if not is_subcode(d_code, dstar):
        raise NotSelfOrthogonal("code is not contained in its Hermitian dual")
    kq = n - 2 * kt
    cap = kt + 1
    # d(D*) <= cap by Singleton, so a floor at the cap settles D* unsearched
    mw = min_weight(dstar, budget) if kq == 0 or d_floor < cap else None
    if kq == 0:
        return QuantumCodeParams(
            q0, n, 0, mw.floor, "yes", mw.exact, prov + ("zero-logical-convention",)
        )
    dstar_floor = d_floor if mw is None else max(mw.floor, d_floor)
    if dstar_floor > cap:
        raise Contradiction(f"floor {dstar_floor} on d(D*) exceeds the Singleton cap")
    # words of D* outside D; D is a proper subcode, since kq > 0
    search = WordSearch(dstar, d_code)
    settle = q0 <= 3 or search.enumerable(budget) or dstar_floor < cap
    rel = search.lowest(budget) if settle else None
    if (rel is None or not rel.exact) and dstar_floor == cap:
        return QuantumCodeParams(
            q0, n, kq, cap, "yes", True, prov + ("singleton-squeeze",)
        )
    if rel.exact:
        if rel.value > cap:
            raise Contradiction(f"relative minimum {rel.value} exceeds the cap {cap}")
        if mw is not None and mw.exact:
            pure = "yes" if mw.value == rel.value else "no"
        else:
            pure = "yes" if rel.value == dstar_floor else "unknown"
        return QuantumCodeParams(
            q0, n, kq, rel.value, pure, True, prov + ("relative-search",)
        )
    d_low = max(dstar_floor, rel.floor)
    tail = (f"upper-bound={rel.value}",) if rel.value is not None else ()
    return QuantumCodeParams(
        q0, n, kq, d_low, "unknown", False, prov + ("floor-only",) + tail
    )


def shorten_params(p: QuantumCodeParams, s: int) -> QuantumCodeParams:
    """Length reduction [[n, k, d]] -> [[n-s, k+s, d-s]] for pure QMDS records."""
    if not (0 <= s < p.d):
        raise BadS(f"need 0 <= s < d = {p.d}, got {s}")
    if s == 0:
        return p
    if p.pure != "yes":
        raise NotPure("length reduction needs a pure record")
    if not qmds_check(p):
        raise BadS("length reduction is only applied to QMDS records here")
    child = QuantumCodeParams(
        p.q, p.n - s, p.k + s, p.d - s, "yes", p.d_exact,
        p.provenance + (f"shorten(s={s})",),
    )
    if not qmds_check(child):
        raise Contradiction("length reduction of a QMDS record is not QMDS")
    return child


def puncture_stabilizer(
    d_code: LinearCode, position: int, budget: SearchBudget = DEFAULT_BUDGET
) -> LinearCode:
    """Self-orthogonal code for the punctured stabilizer: shorten D at one spot.

    Valid only when the current stabilizer distance exceeds 1.
    """
    if not (0 <= position < d_code.n):
        raise BadCoordinate(f"position {position} outside [0, {d_code.n})")
    params = stabilizer_from_self_orthogonal(d_code, budget)
    if params.d <= 1:
        raise DistanceOne("stabilizer distance 1 cannot be punctured")
    return shorten(d_code, [position])


def _zero_sum_full_word(f, n: int) -> tuple[int, ...]:
    total = 0
    for _ in range(n - 1):
        total = f.add(total, 1)
    last = f.neg(total)
    if last:
        return tuple([1] * (n - 1) + [last])
    g = f.generator
    total = f.add(f.sub(total, 1), g)
    last = f.neg(total)
    if not last:
        raise Contradiction(f"no full-weight zero-sum word of length {n}")
    return tuple([1] * (n - 2) + [g, last])


def family_distance2(q: int, n: int, budget: SearchBudget = DEFAULT_BUDGET):
    """[[n, n-2, 2]]_q via the repetition-code pipeline, for any alphabet.

    Prime-power alphabets get a constructed and verified witness; composite
    alphabets combine records of their prime-power parts, which works except
    when the alphabet is twice an odd number and the length is odd (that
    case raises NotKnown, as does odd length over GF(2)).
    Returns (params, witness | None).
    """
    if q < 2:
        raise UnsupportedAlphabet(f"alphabet must be at least 2, got {q}")
    if n < 2:
        raise BadDistance(f"length must be at least 2, got {n}")
    parts = _prime_power_parts(q)
    if n % 2:
        for p, a in parts:
            if p == 2 and a == 1:
                raise NotKnown(
                    f"no known [[{n},{n - 2},2]] over alphabet {q}: "
                    "the 2-part of the alphabet needs even length"
                )
    if len(parts) > 1:
        params = QuantumCodeParams(
            q, n, n - 2, 2, "yes", True, ("product-of-parts",)
        )
        return params, None
    small = field_for_order(q)
    big = build_field(small.p, 2 * small.m)
    x = _zero_sum_full_word(small, n)
    rep = linear_code(big, [[1] * n], n)
    d_code = rescale_self_orthogonal(rep, x)
    params = stabilizer_from_self_orthogonal(
        d_code, budget, d_floor=2, provenance=("repetition-pipeline", f"w={n}")
    )
    if (params.n, params.k, params.d, params.d_exact) != (n, n - 2, 2, True):
        raise Contradiction(
            f"repetition pipeline gave {params.label()}, not an exact [[{n},{n - 2},2]]"
        )
    return params, x


@dataclass
class FamilyScan:
    """Everything produced by one (q, d) sweep of the main pipeline."""

    q: int
    d: int
    spec: ConstacyclicSpec
    bch_bound: int
    pcode: PunctureCode
    presence: list[PresenceResult]
    records: list[QuantumCodeParams]
    witnesses: dict[int, tuple]
    guaranteed_full_weight: bool

    def presence_by_weight(self) -> dict[int, PresenceResult]:
        return {r.weight: r for r in self.presence}


def family_q2plus1(
    q: int, d: int, budget: SearchBudget = DEFAULT_BUDGET
) -> FamilyScan:
    """Pipeline family at length up to q**2 + 1.

    Builds the distance-d MDS code over GF(q**2), takes the puncture code of
    its Hermitian dual, hunts weight-w words, and turns each witness into a
    verified [[w, w+2-2d, d]]_q record.
    """
    field_for_order(q)
    if not (1 <= d <= q + 1):
        raise BadDistance(f"pipeline distances run 1..{q + 1}, got {d}")
    Q = q * q
    n = Q + 1
    spec = mds_spec(Q, d)
    cstar = build_code(spec)
    c_small = dual(cstar, "hermitian")
    if cstar.k != n + 1 - d or c_small.k != d - 1:
        raise Contradiction(f"MDS code of distance {d} has dimension {cstar.k}")
    floor = bch_ht_bound(spec)
    if floor < d:
        raise Contradiction(f"BCH/HT bound {floor} is below the design distance {d}")
    pc = puncture_spectral(spec)
    wmin = max(2 * (d - 1), 1)
    presence = weight_spectrum(pc, range(wmin, n + 1), budget)
    records: list[QuantumCodeParams] = []
    witnesses: dict[int, tuple] = {}
    for res in presence:
        if not res.found:
            continue
        w = res.weight
        d_code = rescale_self_orthogonal(c_small, res.witness)
        if d_code.k != d - 1:
            raise Contradiction("rescaling changed the dimension of the code")
        params = stabilizer_from_self_orthogonal(
            d_code, budget, d_floor=floor,
            provenance=(f"mds({Q},{d})", pc.source, f"w={w}", "rescale"),
        )
        if params.d_exact:
            if params.d != d or not qmds_check(params):
                raise Contradiction(
                    f"exact record {params.label()} is not QMDS of distance {d}"
                )
        records.append(params)
        witnesses[w] = res.witness
    guaranteed = (q % 2 == 1) or (d % 2 == 1)
    if guaranteed:
        by_w = {r.weight: r for r in presence}
        full = by_w.get(n)
        if full is not None and full.verdict == "ProvenAbsent":
            raise Contradiction(
                "full-weight word guaranteed by the parity argument is missing"
            )
    return FamilyScan(q, d, spec, floor, pc, presence, records, witnesses, guaranteed)


def norm_triple_code(m: int):
    """The length-q**2+2 code C over GF(q**2), q = 2**m, of the norm-triple
    construction, with its P(C).

    Returns (H, C, P), H a uint8 array.  Parity row e of H holds
    alpha**(e*j) at the q**2 - 1 positions j, then a 1 in tail coordinate e.
    C, spanned by the conjugated rows, is checked to be the Hermitian dual of
    the code H defines; P is P(C) by the direct route.
    """
    if not (1 <= m <= 4):
        raise UnsupportedAlphabet(f"alphabet 2**m needs 1 <= m <= 4, got {m}")
    big = build_field(2, 2 * m)
    q = 2**m
    n = q * q + 2
    # alpha = exp_table[1], so alpha**(e*j) is exp_table[e*j mod (q**2 - 1)]
    logs = np.arange(3)[:, None] * np.arange(q * q - 1) % (big.q - 1)
    powers = np.array(big.exp_table, dtype=np.uint8)[logs]
    hrows = np.hstack((powers, np.eye(3, dtype=np.uint8)))
    c_code = linear_code(big, conjugate_table(big)[hrows], n)
    if c_code.k != 3:
        raise Contradiction(f"norm-triple code has dimension {c_code.k}, not 3")
    cstar = code_from_parity(big, hrows, n)
    if dual(cstar, "hermitian") != c_code:
        raise Contradiction("norm-triple code is not the Hermitian dual of its dual")
    return hrows, c_code, puncture_direct(c_code)


def char2_q2plus2(m: int, budget: SearchBudget = DEFAULT_BUDGET):
    """[[q**2+2, q**2-4, 4]]_q for q = 2**m, via the norm-triple construction.

    Returns (params, witness, D, P).  The witness has full weight q**2 + 2;
    its coordinates evaluate an irreducible quadratic at subfield points, so
    none vanish.
    """
    hrows, c_code, pc = norm_triple_code(m)
    small = build_field(2, m)
    big = c_code.field
    q = small.q
    n = c_code.n
    emb = embed(small, big)
    tab = small.np_tables()
    # row e of the profiles holds the inverted subfield norms of row e of H
    inv_norm = tab.inv[[emb.section(norm(big, x)) for x in range(big.q)]]
    profiles = inv_norm[hrows]
    # individually these rows sit in P(C) only when the inverted norm beta
    # generates a nontrivial subgroup; over GF(2) just the combination built
    # below lands in P(C)
    if q > 2 and pc.base.syndromes(profiles).any():
        raise Contradiction("norm profile is not in the puncture code")
    ts = np.arange(q)
    # the first x**2 + g1*x + g0, by g1 then g0, with no root in the subfield
    coeff = next(((g0, g1) for g1 in range(q) for g0 in range(q)
                  if tab.add[tab.add[tab.mul[ts, ts], tab.mul[g1, ts]], g0].all()), None)
    if coeff is None:
        raise Contradiction("no combination of the norm profiles has full weight")
    g0, g1 = coeff
    combo = tab.add[tab.add[tab.mul[g0, profiles[0]], tab.mul[g1, profiles[1]]], profiles[2]]
    x = combo.tolist()
    if not (all(x) and pc.base.contains(x)):
        raise Contradiction("norm-triple witness is not a full-weight word of P(C)")
    d_code = rescale_self_orthogonal(c_code, tuple(x))
    params = stabilizer_from_self_orthogonal(
        d_code, budget,
        provenance=("norm-triple-family", f"m={m}", f"quadratic=({g1},{g0})"),
    )
    if (params.n, params.k, params.d, params.d_exact) != (n, n - 6, 4, True):
        raise Contradiction(
            f"norm-triple family gave {params.label()}, not an exact [[{n},{n - 6},4]]"
        )
    pc.record(x)
    return params, tuple(x), d_code, pc


def conjecture_pc_params(q: int, d: int) -> tuple[int, int]:
    """Predicted (dimension, minimum distance) of the pipeline puncture code."""
    if not (1 < d <= q + 1):
        raise BadDistance(f"prediction covers 1 < d <= q+1, got {d}")
    dim = q * q + 1 - (d - 1) ** 2
    if d == q + 1:
        dp = q * q + 1
    elif 2 * d <= q + 2:
        dp = 2 * (d - 1)
    elif q % 2:
        dp = (q + 1) * (d - 1 - q // 2)
    else:
        dp = q * (d - q // 2)
    return dim, dp


def conjecture_report(qs, budget: SearchBudget = DEFAULT_BUDGET) -> list[dict]:
    """Measured puncture-code parameters against the predicted formulas."""
    rows = []
    for q in qs:
        try:
            field_for_order(q)
        except UnsupportedAlphabet:
            continue
        for d in range(2, q + 2):
            spec = mds_spec(q * q, d)
            pc = puncture_spectral(spec)
            dim_pred, dp_pred = conjecture_pc_params(q, d)
            row = {
                "q": q,
                "d": d,
                "dim": pc.base.k,
                "dim_predicted": dim_pred,
            }
            mw = min_weight(pc.base, budget)
            dim_ok = pc.base.k == dim_pred
            row["dprime_predicted"] = dp_pred
            if mw.exact:
                row["dprime"] = mw.value
                row["verdict"] = (
                    "confirmed" if dim_ok and mw.value == dp_pred else "refuted"
                )
            else:
                row["dprime_floor"] = mw.floor
                row["dprime_upper"] = mw.value
                refuted = (
                    not dim_ok
                    or mw.floor > dp_pred
                    or (mw.value is not None and mw.value < dp_pred)
                )
                row["verdict"] = "refuted" if refuted else "undecided"
            rows.append(row)
    return rows


def distance4_char2_report(ms, budget: SearchBudget = DEFAULT_BUDGET) -> list[dict]:
    """Weight presence inside P(C) of the norm-triple construction.

    The distance-4 length conjecture for alphabets 2**m expects weights
    6..q**2+2; the alphabet 4 is excluded from the claim and reported as
    such.
    """
    rows = []
    for m in ms:
        q = 2**m
        if q == 4:
            rows.append({"q": q, "status": "excluded-from-claim"})
            continue
        _, _, _, pc = char2_q2plus2(m, budget)
        presence = weight_spectrum(pc, range(6, pc.base.n + 1), budget)
        rows.append(
            {
                "q": q,
                "status": "scanned",
                "weights": {r.weight: r.verdict for r in presence},
            }
        )
    return rows


class Registry:
    """Parameter records keyed by (q, n, k, d), with provenance merging."""

    def __init__(self):
        self._recs: dict[tuple, QuantumCodeParams] = {}

    def add(self, p: QuantumCodeParams) -> QuantumCodeParams:
        old = self._recs.get(p.key)
        if old is not None:
            prov = old.provenance + tuple(
                t for t in p.provenance if t not in old.provenance
            )
            p = replace(p, provenance=prov)
        self._recs[p.key] = p
        return p

    def get(self, key: tuple) -> QuantumCodeParams | None:
        return self._recs.get(key)

    def records(self) -> list[QuantumCodeParams]:
        return [self._recs[k] for k in sorted(self._recs)]

    def load_literature(self, only_q: int | None = None) -> None:
        path = importlib.resources.files("qmds").joinpath(
            "data/literature_records.jsonl"
        )
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if only_q is not None and rec["q"] != only_q:
                continue
            self.add(
                QuantumCodeParams(
                    rec["q"], rec["n"], rec["k"], rec["d"],
                    rec.get("pure", "yes"), rec.get("d_exact", True),
                    tuple(rec.get("provenance", ())),
                )
            )

    @staticmethod
    def parse_key(text: str) -> tuple[int, int, int, int]:
        parts = text.split(":")
        if len(parts) != 4:
            raise BadS(f"registry keys look like q:n:k:d, got {text!r}")
        try:
            q, n, k, d = (int(t) for t in parts)
        except ValueError as exc:
            raise BadS(f"registry keys need integers, got {text!r}") from exc
        return (q, n, k, d)


def run_pipeline(q: int, d: int, budget: SearchBudget = DEFAULT_BUDGET) -> FamilyScan:
    """The pipeline sweep for one (q, d): family_q2plus1 over every weight."""
    return family_q2plus1(q, d, budget)


_STATUS_RANK = {"verified": 4, "claimed": 3, "literature": 2, "absent": 1, "unknown": 0}


def _status_of(p: QuantumCodeParams) -> str:
    if any(t.startswith("literature:") for t in p.provenance):
        return "literature"
    return "verified" if p.d_exact else "claimed"


def figdata(q: int, budget: SearchBudget = DEFAULT_BUDGET) -> Iterator[tuple]:
    """Achievability grid (q, d, n, status) behind the survey figures, one
    row at a time in (d, n) order.

    Alphabets above 8 are out of computed range and come back entirely
    unknown; those q * (q**2 + 1) or so rows are generated as they are read.
    Statuses: verified (exact distance computed here), claimed (record
    derived without its own exact check), literature (imported or derived
    from imported records), absent (this pipeline provably lacks the
    length), unknown.  Every search runs at the budget given, so each
    record is the one the pipeline and verify give for its code.
    """
    field_for_order(q)
    nmax = q * q + 2
    if q > 8:
        return (
            (q, d, n, "unknown")
            for d in range(2, q + 2)
            for n in range(2 * d - 2, nmax + 1)
        )
    cells: dict[tuple[int, int], str] = {}

    def put(d, n, status):
        old = cells.get((d, n))
        if old is None or _STATUS_RANK[status] > _STATUS_RANK[old]:
            cells[(d, n)] = status

    derived: list[QuantumCodeParams] = []
    for n in range(2, nmax + 1):
        try:
            params, _ = family_distance2(q, n, budget)
            put(2, n, _status_of(params))
        except NotKnown:
            put(2, n, "unknown")
    for d in range(3, q + 2):
        scan = run_pipeline(q, d, budget)
        for res in scan.presence:
            if res.found:
                continue
            put(d, res.weight, "absent" if res.verdict == "ProvenAbsent" else "unknown")
        for rec in scan.records:
            put(d, rec.n, _status_of(rec))
            derived.append(rec)
    if q in (2, 4, 8):
        m = q.bit_length() - 1
        params, _, _, _ = char2_q2plus2(m, budget)
        put(4, params.n, _status_of(params))
        derived.append(params)
    for rec in derived:
        if rec.pure != "yes" or not qmds_check(rec):
            continue
        for s in range(1, rec.d - 1):
            child = shorten_params(rec, s)
            put(child.d, child.n, "claimed")
    reg = Registry()
    reg.load_literature(only_q=q)
    for rec in reg.records():
        put(rec.d, rec.n, _status_of(rec))
        for s in range(1, rec.d - 1):
            child = shorten_params(rec, s)
            put(child.d, child.n, "literature")
    return ((q, d, n, cells[(d, n)]) for (d, n) in sorted(cells))
