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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class FamilyCode:
    """A construction's code C over GF(q**2) and its P(C), with the floor on
    d(D*) and the provenance that each record settled from it starts with."""

    c_code: LinearCode
    pc: PunctureCode
    floor: int
    provenance: tuple[str, ...]

    def settle(self, x, budget: SearchBudget, tags: tuple[str, ...]):
        """D, C rescaled along the P(C) word x, and its stabilizer record."""
        d_code = rescale_self_orthogonal(self.c_code, x)
        if d_code.k != self.c_code.k:
            raise Contradiction("rescaling changed the dimension of the code")
        return d_code, stabilizer_from_self_orthogonal(
            d_code, budget, d_floor=self.floor, provenance=self.provenance + tags
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


def pipeline_spec(q: int, d: int) -> ConstacyclicSpec:
    """The spec of the distance-d MDS code over GF(q**2), length q**2 + 1,
    for d in the pipeline's range 1..q+1."""
    field_for_order(q)
    if not (1 <= d <= q + 1):
        raise BadDistance(f"pipeline distances run 1..{q + 1}, got {d}")
    return mds_spec(q * q, d)


def pipeline_code(q: int, d: int) -> tuple[ConstacyclicSpec, FamilyCode]:
    """pipeline_spec(q, d) and the pipeline's family code: C is the
    Hermitian dual of that MDS code, P(C) comes by the spectral route, and
    the floor is the spec's BCH/HT bound."""
    Q = q * q
    spec = pipeline_spec(q, d)
    cstar = build_code(spec)
    c_small = dual(cstar, "hermitian")
    if cstar.k != Q + 2 - d or c_small.k != d - 1:
        raise Contradiction(f"MDS code of distance {d} has dimension {cstar.k}")
    floor = bch_ht_bound(spec)
    if floor < d:
        raise Contradiction(f"BCH/HT bound {floor} is below the design distance {d}")
    return spec, FamilyCode(c_small, puncture_spectral(spec), floor, (f"mds({Q},{d})",))


def family_q2plus1(
    q: int, d: int, budget: SearchBudget = DEFAULT_BUDGET
) -> FamilyScan:
    """Pipeline family at length up to q**2 + 1.

    Takes the puncture code of the pipeline code, hunts weight-w words, and
    settles each witness into a verified [[w, w+2-2d, d]]_q record.
    """
    spec, family = pipeline_code(q, d)
    pc = family.pc
    n = pc.base.n
    wmin = max(2 * (d - 1), 1)
    presence = weight_spectrum(pc, range(wmin, n + 1), budget)
    records: list[QuantumCodeParams] = []
    witnesses: dict[int, tuple] = {}
    for res in presence:
        if not res.found:
            continue
        w = res.weight
        _, params = family.settle(res.witness, budget, (pc.source, f"w={w}", "rescale"))
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
    return FamilyScan(q, d, spec, family.floor, pc, presence, records, witnesses, guaranteed)


def norm_triple_code(m: int) -> tuple[np.ndarray, FamilyCode]:
    """H and the family code of the norm-triple construction: the
    length-q**2+2 code C over GF(q**2), q = 2**m, with its P(C).

    H is a uint8 array.  Parity row e of H holds alpha**(e*j) at the
    q**2 - 1 positions j, then a 1 in tail coordinate e.  C, spanned by the
    conjugated rows, is checked to be the Hermitian dual of the code H
    defines; P(C) comes by the direct route.  Records settled from it
    inherit no floor.
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
    return hrows, FamilyCode(c_code, puncture_direct(c_code), 1, ("norm-triple-family",))


def char2_q2plus2(m: int, budget: SearchBudget = DEFAULT_BUDGET):
    """[[q**2+2, q**2-4, 4]]_q for q = 2**m, via the norm-triple construction.

    Returns (params, witness, D, P).  The witness has full weight q**2 + 2;
    its coordinates evaluate an irreducible quadratic at subfield points, so
    none vanish.  It is settled through the norm-triple family code, whose
    records carry m and the quadratic after the family's provenance.
    """
    hrows, family = norm_triple_code(m)
    pc = family.pc
    small = build_field(2, m)
    big = family.c_code.field
    q = small.q
    n = pc.base.n
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
    d_code, params = family.settle(tuple(x), budget, (f"m={m}", f"quadratic=({g1},{g0})"))
    if (params.n, params.k, params.d, params.d_exact) != (n, n - 6, 4, True):
        raise Contradiction(
            f"norm-triple family gave {params.label()}, not an exact [[{n},{n - 6},4]]"
        )
    pc.record(x)
    return params, tuple(x), d_code, pc


def witness_family(q: int, d: int, n: int) -> FamilyCode:
    """The family code a witness of [[n, ., d]]_q rescales: the norm-triple
    code for n = q**2 + 2 and d = 4 over q = 2, 4, 8, 16, else the
    pipeline code of (q, d)."""
    if q in (2, 4, 8, 16) and (n, d) == (q * q + 2, 4):
        return norm_triple_code(q.bit_length() - 1)[1]
    return pipeline_code(q, d)[1]


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
            pc = pipeline_code(q, d)[1].pc
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


def literature_records(q: int | None = None) -> dict[tuple, QuantumCodeParams]:
    """The imported literature records, over alphabet q alone when q is
    given, keyed by (q, n, k, d) in ascending order."""
    path = importlib.resources.files("qmds").joinpath("data/literature_records.jsonl")
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    recs = [
        QuantumCodeParams(
            r["q"], r["n"], r["k"], r["d"], r.get("pure", "yes"),
            r.get("d_exact", True), tuple(r.get("provenance", ())),
        )
        for r in rows
        if q is None or r["q"] == q
    ]
    return {p.key: p for p in sorted(recs, key=lambda p: p.key)}


def shortenings(p: QuantumCodeParams) -> list[QuantumCodeParams]:
    """The length reductions of p down to distance 2, s = 1 .. d-2."""
    return [shorten_params(p, s) for s in range(1, p.d - 1)]


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
        if rec.pure == "yes" and qmds_check(rec):
            for child in shortenings(rec):
                put(child.d, child.n, "claimed")
    for rec in literature_records(q).values():
        put(rec.d, rec.n, _status_of(rec))
        for child in shortenings(rec):
            put(child.d, child.n, "literature")
    return ((q, d, n, cells[(d, n)]) for (d, n) in sorted(cells))
