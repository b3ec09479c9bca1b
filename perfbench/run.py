"""Benchmark of the qmds engine, one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs rounds of the workload, each in a fresh process (perfbench/session.py),
one after another.  At least MIN_ROUNDS rounds run; after those, a new
round starts only while it is expected to end within S seconds of the
first.  Set-up is also measured in extra set-up-only processes until there
are SETUP_SAMPLES samples adding up to SETUP_SECONDS, so that a short
set-up is sampled more often.  Before each round and at the end, a burst
of CAL_BURST_S seconds times the reference unit of perfbench/calibrate.py.
The run and its children stay on one core, so the bursts see the speed
that the rounds see.  Every output is then checked (perfbench/checks.py).

With --trace 0 the metrics are the medians over rounds of setup_s,
wall_ref_s, peak_rss_mb and verdicts_decided.  wall_ref_s is the median
wall time of the steps in reference seconds: scaled by REF_UNIT_S over the
run's mean time of one reference unit; the measured median is kept in the
raw results.  With --trace 1 the rounds run with the qmds layers wrapped
(perfbench/spans.py) and the metrics are the per-layer medians.  The last
line on stdout is the JSON result; raw figures and span traces go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    check_output, command_of, is_prime, puncture_reference, verdicts_decided,
)
from calibrate import REF_UNIT_S, burst  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0xC0DE  # qmds.budgets.DEFAULT_SEED
MIN_ROUNDS = 2
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0
ROUND_TIMEOUT_S = 150
CAL_BURST_S = 2.0


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class RoundFailed(Exception):
    pass


def run_session(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "session.py"), workload, "--seed", str(seed)]
    t0 = now_ns()
    proc = subprocess.run(
        cmd + ["--t0", str(t0), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RoundFailed(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["process_s"] = (now_ns() - t0) / 1e9
    return out


def run_rounds(workload: str, seed: int, seconds: float, trace: bool):
    """Rounds, set-up samples, and the times of the reference units run in
    a burst before each round and after the last."""
    rounds, units = [], []
    start = now_ns()
    while True:
        extra = []
        if trace:
            spans = RESULTS / f"spans-{workload}-seed{seed}-round{len(rounds)}.jsonl"
            extra = ["--trace-file", str(spans)]
        units += burst(CAL_BURST_S)
        rounds.append(run_session(workload, seed, *extra))
        elapsed = (now_ns() - start) / 1e9
        next_end = elapsed + CAL_BURST_S + max(r["process_s"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and next_end + CAL_BURST_S > seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_SECONDS:
        setups.append(run_session(workload, seed, "--setup-only")["setup_s"])
    units += burst(CAL_BURST_S)
    return rounds, setups, units


def check_rounds(workload: str, rounds: list) -> tuple[int, int, list[str], list[int]]:
    """Attempted and failed operations, problems found, and verdicts per round."""
    steps = WORKLOADS[workload].steps
    refs = {}
    for step in steps:
        cmd, args = command_of(step)
        if cmd == "qmds" and is_prime(int(args[0])):
            q, d = int(args[0]), int(args[1])
            refs[(q, d)] = puncture_reference(ROOT, q, d)
    problems = [p for ref in refs.values() for p in ref.problems]
    attempted = failed = 0
    decided = []
    first = rounds[0]["steps"]
    for r in rounds:
        count = 0
        for step, got, base in zip(steps, r["steps"], first):
            attempted += 1
            if got["rc"] != 0:
                failed += 1
                continue
            if got["stdout"] != base["stdout"]:
                problems.append(f"{' '.join(step)}: output differs between rounds")
            payload = json.loads(got["stdout"])
            problems += check_output(*command_of(got["argv"]), payload, refs)
            count += verdicts_decided(payload)
        decided.append(count)
    return attempted, failed, sorted(set(problems)), decided


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qmds" / "__init__.py").is_file():
        print(f"error: no qmds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # the rounds inherit it
        rounds, setups, unit_times = run_rounds(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (RoundFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems, decided = check_rounds(args.workload, rounds)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for r in rounds:
        for step in r["steps"]:
            if step["rc"] != 0:
                print(f"operation failed (exit {step['rc']}): {' '.join(step['argv'])}: "
                      f"{step['stdout'].strip()} {step['stderr'].strip()}", file=sys.stderr)

    med = statistics.median
    wall_s = med(r["wall_s"] for r in rounds)
    if args.trace:
        names = rounds[0]["layers"]
        metrics = {name: med(r["layers"][name] for r in rounds) for name in names}
        metrics["traced.wall_s"] = wall_s
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": med(setups),
            "wall_ref_s": wall_s * REF_UNIT_S / statistics.fmean(unit_times),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
            "verdicts_decided": med(decided),
        }
        units = {
            "setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB", "verdicts_decided": "count",
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups": setups, "wall_s": wall_s, "unit_times": unit_times,
        "problems": problems,
        "rounds": [{k: v for k, v in r.items() if k != "steps"}
                   | {"steps": [{k: s[k] for k in ("argv", "rc", "seconds")} for s in r["steps"]]}
                   for r in rounds],
        "result": result,
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1)
    )
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "1/s" if name.endswith("_per_s") else "s"
    if name.endswith("prefilter_pass"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
