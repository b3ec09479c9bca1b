"""The benchmark's workloads: which `qmds` commands one round runs.

A round is one fresh process that sets up the fields a workload uses and
then calls `qmds.cli.main` once per step, so caches fill as they would in
one session.  Every step is one operation, attempted or failed.

`fields` lists (q, d) pairs; set-up builds GF(q), GF(q*q) and the
splitting field that `mds_spec(q*q, d).root_field` needs.  The root field
depends only on q here (length q*q + 1), so one pair per alphabet is
enough.

There are two workloads, one per alphabet family, each the steps of two
smaller ones: a search and an enumeration over GF(5), and a construction
without search and a distance settle over GF(64).  Two workloads leave
time for longer runs, which keeps the run-to-run spread of their medians
within the bounds of BENCHMARK.json on a small shared machine.

The step `VERIFY_Q2P2` saves the witness printed by the preceding `q2p2`
step to a file and hands that file to `qmds verify`.
"""

from __future__ import annotations

from dataclasses import dataclass

VERIFY_Q2P2 = ("verify", "<q2p2 witness>")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: tuple[tuple[int, int], ...]
    steps: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-enum-q5",
            "qmds 5 4 at the default budget (rank-prefiltered scans, null-space probes, "
            "sampling), then qmds 5 5 decided wholly by enumerating 2441406 classes",
            ((5, 4),),
            (
                ("qmds", "5", "4"),
                ("--budget-enum", "2500000", "qmds", "5", "5"),
            ),
        ),
        Workload(
            "build-settle-q8",
            "GF(4096) and GF(2401) tables, P(C) by both routes, mds_verify batch ranks, "
            "RREF over GF(64), then the distance settle of qmds 8 9 on a [65,57] code",
            ((8, 2), (7, 2)),
            tuple(("pc", "8", str(d), "--route", "both") for d in (2, 3, 4, 5))
            + (
                ("pc", "7", "2", "--route", "both"),
                ("pc", "7", "4", "--route", "both"),
                ("mds", "64", "5"),
                ("mds", "49", "5"),
                ("q2p2", "3"),
                VERIFY_Q2P2,
                (
                    "--budget-support", "1000000000", "--budget-samples", "20000",
                    "qmds", "8", "9",
                ),
            ),
        ),
    )
}
