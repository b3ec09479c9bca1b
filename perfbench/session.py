"""One round of a workload in a fresh process.

    python3 perfbench/session.py WORKLOAD --seed N --t0 NS [--setup-only]
                                 [--trace-file PATH]

`--t0` is the CLOCK_MONOTONIC reading, in ns, taken by the parent just
before it started this process, so set-up time includes interpreter start
and the `qmds` import.  Set-up ends when the tables of every field the
workload uses are built.  Then each step calls `qmds.cli.main` with
`--seed N` in front of its arguments, capturing what it prints.

The last line on stdout is one JSON object: setup_s, wall_s (all steps),
peak_rss_mb, and per step its argv, exit code, output and seconds.  With
`--trace-file` the public functions of the qmds layers are wrapped before
set-up, the spans are written to that file, and the object also carries
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import VERIFY_Q2P2, WORKLOADS  # noqa: E402


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def import_qmds():
    """Import qmds from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qmds.cli  # noqa: F401

    where = Path(sys.modules["qmds"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"qmds was imported from {where}, not from {src}")
    return sys.modules["qmds"]


def build_fields(qmds, pairs) -> None:
    """Build GF(q), GF(q*q) and the splitting field of mds_spec(q*q, d),
    with the vectorized tables of every field small enough to have them."""
    gf = qmds.gf
    for q, d in pairs:
        fields = [
            gf.field_for_order(q),
            gf.field_for_order(q * q),
            qmds.ccodes.mds_spec(q * q, d).root_field,
        ]
        for f in fields:
            if f.q <= gf.MAX_TABLE_ORDER:
                f.np_tables()


def run_step(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a dead round
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
    seconds = time.perf_counter() - start
    return {
        "argv": argv,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "seconds": seconds,
    }


def save_q2p2_witness(step: dict, path: Path) -> bool:
    if step["rc"] != 0:
        return False
    witness = json.loads(step["stdout"])["witness"]
    path.write_text(json.dumps(witness))
    return True


def run_steps(cli, steps, seed: int, workdir: Path) -> list[dict]:
    done: list[dict] = []
    for step in steps:
        head = ["--seed", str(seed)]
        if step == VERIFY_Q2P2:
            workdir.mkdir(exist_ok=True)
            path = workdir / f"q2p2-witness-{os.getpid()}.json"
            if not save_q2p2_witness(done[-1], path):
                done.append({"argv": list(step), "rc": -1, "stdout": "",
                             "stderr": "no q2p2 witness to verify", "seconds": 0.0})
                continue
            try:
                done.append(run_step(cli, head + ["verify", str(path)]))
            finally:
                path.unlink()
        else:
            done.append(run_step(cli, head + list(step)))
    return done


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    qmds = import_qmds()
    tracer = None
    if args.trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    build_fields(qmds, wl.fields)
    setup_s = (now_ns() - args.t0) / 1e9
    result = {"setup_s": setup_s}
    if not args.setup_only:
        start = time.perf_counter()
        result["steps"] = run_steps(qmds.cli, wl.steps, args.seed, HERE / "results")
        result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["functions"] = tracer.function_self_times()
        tracer.dump(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
