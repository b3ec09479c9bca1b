"""Output checks that do not trust the program.

The arithmetic here is the benchmark's own: integer matrices mod a prime p,
a weight enumeration of a row space, and the MacWilliams transform with
exact Krawtchouk sums.  The per-command checks rest on that arithmetic or on
properties every correct answer has (the quantum Singleton equality, the
dimension q*q + 1 - (d-1)**2 of P(C), a full-weight word whenever q or d is
odd), never on a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

DECIDED = ("FoundWitness", "ProvenAbsent")
VERDICTS = DECIDED + ("UnknownWithinBudget",)


# -- arithmetic mod a prime ----------------------------------------------------


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def rank_mod_p(rows, p: int) -> int:
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != rank and f:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def orthogonal_mod_p(a_rows, b_rows, p: int) -> bool:
    return all(
        sum(x * y for x, y in zip(a, b)) % p == 0 for a in a_rows for b in b_rows
    )


def all_combinations(rows, p: int) -> np.ndarray:
    """Every word of the row space, one per message (p**k rows)."""
    g = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    k = g.shape[0]
    msgs = np.arange(p**k, dtype=np.int64)[:, None] // (p ** np.arange(k)) % p
    return (msgs @ g) % p


def weight_distribution(rows, p: int, n: int) -> list[int]:
    """A_0..A_n of the row space of `rows` over GF(p), by enumerating every
    message.  The messages split into a high and a low half; each word is
    a high-half word plus a low-half word."""
    k = len(rows)
    if k == 0:
        return [1] + [0] * n
    low_k = (k + 1) // 2
    low = all_combinations(rows[k - low_k:], p).astype(np.int16)
    if k > low_k:
        high = all_combinations(rows[:k - low_k], p).astype(np.int16)
    else:
        high = np.zeros((1, n), np.int16)
    counts = np.zeros(n + 1, dtype=np.int64)
    step = max(1, (1 << 22) // max(low.size, 1))
    for i in range(0, high.shape[0], step):
        words = (high[i:i + step, None, :] + low[None, :, :]) % p
        counts += np.bincount(np.count_nonzero(words, axis=2).ravel(), minlength=n + 1)
    return [int(c) for c in counts]


def krawtchouk(n: int, q: int, w: int, i: int) -> int:
    return sum(
        (-1) ** j * (q - 1) ** (w - j) * math.comb(i, j) * math.comb(n - i, w - j)
        for j in range(w + 1)
    )


def macwilliams(dist, q: int) -> list[Fraction]:
    """Weight distribution of the dual of a code with distribution `dist`."""
    n = len(dist) - 1
    size = sum(dist)
    return [
        Fraction(sum(a * krawtchouk(n, q, w, i) for i, a in enumerate(dist)), size)
        for w in range(n + 1)
    ]


def distribution_problems(dist, p: int, k: int, label: str) -> list[str]:
    """A distribution of a k-dimensional code: non-negative integers, one
    zero word, p**k words in all."""
    problems = []
    if any(a.denominator != 1 or a < 0 for a in map(Fraction, dist)):
        problems.append(f"{label}: MacWilliams gives a value that is not a non-negative integer")
    elif dist[0] != 1 or sum(dist) != p**k:
        problems.append(
            f"{label}: distribution has A_0={dist[0]} and {sum(dist)} words, "
            f"want 1 and {p}**{k}"
        )
    return problems


# -- the puncture code, recomputed --------------------------------------------


def pc_dimension(q: int, d: int) -> int:
    return q * q + 1 - (d - 1) ** 2


class PunctureReference:
    """P(C) for (q, d) with q prime: the program's rows, checked mod q, and
    the code's full weight distribution."""

    def __init__(self, q: int, d: int, gen, parity):
        self.q, self.d = q, d
        self.n = q * q + 1
        self.gen = [list(r) for r in gen]
        self.parity = [list(r) for r in parity]
        self.k = len(self.gen)
        self.problems: list[str] = []
        self.dist: list[int] | None = None
        self._verify_rows()
        if not self.problems:
            self._distribution()

    def _verify_rows(self) -> None:
        q, n, k = self.q, self.n, self.k
        label = f"P(C) q={q} d={self.d}"
        if k != pc_dimension(q, self.d):
            self.problems.append(f"{label}: dimension {k}, want {pc_dimension(q, self.d)}")
        if rank_mod_p(self.gen, q) != k:
            self.problems.append(f"{label}: generator rows are not independent mod {q}")
        if len(self.parity) != n - k or rank_mod_p(self.parity, q) != n - k:
            self.problems.append(f"{label}: parity rows do not have rank n-k={n - k} mod {q}")
        if not orthogonal_mod_p(self.gen, self.parity, q):
            self.problems.append(f"{label}: generator and parity rows are not orthogonal mod {q}")

    def _distribution(self) -> None:
        q, n, k = self.q, self.n, self.k
        label = f"P(C) q={q} d={self.d}"
        if n - k < k:
            dual = weight_distribution(self.parity, q, n)
            code = macwilliams(dual, q)
        else:
            code = weight_distribution(self.gen, q, n)
            dual = macwilliams(code, q)
        self.problems += distribution_problems(code, q, k, label)
        self.problems += distribution_problems(dual, q, n - k, label + " dual")
        if not self.problems:
            self.dist = [int(a) for a in code]

    def contains(self, word) -> bool:
        return all(sum(h * x for h, x in zip(row, word)) % self.q == 0 for row in self.parity)


def puncture_reference(root: Path, q: int, d: int) -> PunctureReference:
    """Take P(C)'s rows from qmds.pcode.puncture_spectral and check them."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from qmds.ccodes import mds_spec
    from qmds.pcode import puncture_spectral

    base = puncture_spectral(mds_spec(q * q, d)).base
    return PunctureReference(q, d, base.gen, base.parity_rows)


# -- per-command output checks -------------------------------------------------


def command_of(argv) -> tuple[str, list[str]]:
    """Subcommand and its arguments, skipping the global options."""
    i = 0
    while argv[i].startswith("--"):
        i += 2
    return argv[i], list(argv[i + 1:])


def witness_problems(wit, q: int, d: int, n: int, weight: int, ref=None) -> list[str]:
    where = f"witness q={q} d={d} w={weight}"
    support, values = wit["support"], wit["values"]
    problems = []
    if (wit["q"], wit["d"], wit["n"]) != (q, d, n):
        problems.append(f"{where}: header {wit['q']},{wit['d']},{wit['n']}")
    if not (wit["weight"] == len(support) == len(values) == weight):
        problems.append(f"{where}: weight {wit['weight']}, {len(support)} positions")
    if len(set(support)) != len(support) or any(not 0 <= s < n for s in support):
        problems.append(f"{where}: positions repeat or leave 0..{n - 1}")
    if any(not 0 < v < q for v in values):
        problems.append(f"{where}: a value is zero or outside GF({q})")
    if ref is not None and not problems:
        word = [0] * n
        for s, v in zip(support, values):
            word[s] = v
        if not ref.contains(word):
            problems.append(f"{where}: not in P(C) by the parity rows mod {q}")
    return problems


def record_problems(rec, q: int, d: int) -> list[str]:
    label = f"[[{rec['n']},{rec['k']},{rec['d']}]]_{rec['q']}"
    problems = []
    if rec["q"] != q or rec["d"] != d:
        problems.append(f"record {label}: want q={q}, d={d}")
    if rec["n"] + 2 != rec["k"] + 2 * rec["d"]:
        problems.append(f"record {label}: n + 2 != k + 2d")
    if rec["d_exact"] is not True:
        problems.append(f"record {label}: distance not exact")
    return problems


def check_qmds(payload, q: int, d: int, ref: PunctureReference | None) -> list[str]:
    n = q * q + 1
    problems = []
    if (payload["q"], payload["d"]) != (q, d):
        return [f"qmds {q} {d}: header says q={payload['q']} d={payload['d']}"]
    rows = payload["presence"]
    if [r["weight"] for r in rows] != list(range(max(2 * (d - 1), 1), n + 1)):
        problems.append(f"qmds {q} {d}: levels are not 2(d-1)..{n}")
    found = set()
    for row in rows:
        w, verdict = row["weight"], row["verdict"]
        if verdict not in VERDICTS:
            problems.append(f"qmds {q} {d}: unknown verdict {verdict!r} at w={w}")
            continue
        if verdict == "FoundWitness":
            found.add(w)
            problems += witness_problems(row["witness"], q, d, n, w, ref)
        if ref is not None and ref.dist is not None and verdict in DECIDED:
            if (verdict == "FoundWitness") != (ref.dist[w] > 0):
                problems.append(f"qmds {q} {d}: w={w} is {verdict} but A_w = {ref.dist[w]}")
    if (q % 2 or d % 2) and any(r["weight"] == n and r["verdict"] == "ProvenAbsent" for r in rows):
        problems.append(
            f"qmds {q} {d}: the full-weight word that odd q or odd d guarantees is absent"
        )
    if pc_dimension(q, d) == 1:
        decided = all(r["verdict"] in DECIDED for r in rows)
        if len(found) != 1 or not decided or ((q % 2 or d % 2) and found != {n}):
            problems.append(f"qmds {q} {d}: dim P(C) = 1, want exactly one level found, at n={n}")
    recs = payload["records"]
    for rec in recs:
        problems += record_problems(rec, q, d)
    if sorted(r["n"] for r in recs) != sorted(found):
        problems.append(f"qmds {q} {d}: records do not match the levels found")
    return problems


def check_pc(payload, q: int, d: int) -> list[str]:
    want = pc_dimension(q, d)
    problems = []
    for route in ("spectral", "direct"):
        part = payload[route]
        if (part["q"], part["n"], part["k"]) != (q, q * q + 1, want):
            problems.append(
                f"pc {q} {d} {route}: [{part['n']},{part['k']}] over GF({part['q']}), "
                f"want k={want}"
            )
    if payload["routes_agree"] is not True:
        problems.append(f"pc {q} {d}: routes disagree")
    return problems


def check_mds(payload, Q: int, d: int) -> list[str]:
    if (payload["n"], payload["k"], payload["d"]) != (Q + 1, Q + 2 - d, d):
        got = f"[{payload['n']},{payload['k']},{payload['d']}]"
        return [f"mds {Q} {d}: {got} is not [Q+1, Q+2-d, d]"]
    if payload["mds_verify"] is not True:
        return [f"mds {Q} {d}: mds_verify is {payload['mds_verify']}"]
    return []


def check_q2p2(payload, m: int) -> list[str]:
    q = 2**m
    n = q * q + 2
    rec = payload["record"]
    problems = record_problems(rec, q, 4)
    if (rec["n"], rec["k"]) != (n, n - 6):
        problems.append(f"q2p2 {m}: record n={rec['n']} k={rec['k']}, want n={n} k={n - 6}")
    problems += witness_problems(payload["witness"], q, 4, n, n)
    return problems


def check_verify(payload) -> list[str]:
    if payload["ok"] is not True or not all(payload["checks"].values()):
        return ["verify: exit 0 without every check passing"]
    return []


def check_output(cmd: str, args: list[str], payload, refs) -> list[str]:
    if cmd == "qmds":
        q, d = int(args[0]), int(args[1])
        return check_qmds(payload, q, d, refs.get((q, d)))
    if cmd == "pc":
        return check_pc(payload, int(args[0]), int(args[1]))
    if cmd == "mds":
        return check_mds(payload, int(args[0]), int(args[1]))
    if cmd == "q2p2":
        return check_q2p2(payload, int(args[0]))
    if cmd == "verify":
        return check_verify(payload)
    return [f"no check for command {cmd!r}"]


def verdicts_decided(payload) -> int:
    """Exact verdicts in one output: decided weight levels, records with an
    exact distance, mds_verify true and routes_agree true."""
    rows = payload.get("presence", []) + payload.get("rows", [])
    recs = payload.get("records", []) + ([payload["record"]] if "record" in payload else [])
    return (
        sum(r["verdict"] in DECIDED for r in rows)
        + sum(r.get("d_exact") is True for r in recs)
        + (payload.get("mds_verify") is True)
        + (payload.get("routes_agree") is True)
    )
