"""Both workloads in one command, end to end and layer by layer.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this runs perfbench/run.py twice, with tracing off and
on, and prints every metric by name with its unit, the operations
attempted and failed, the measured wall_s of the untraced run, the
tracing overhead (traced wall_s minus untraced wall_s), each layer's
share of the traced self time and the largest self times of single
functions.  It exits 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, RESULTS  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --workload {workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_shares(metrics: dict) -> dict[str, float]:
    selfs = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
    total = sum(selfs.values())
    return {layer: v / total for layer, v in selfs.items()} if total else {}


def top_functions(workload: str, seed: int, count: int = 6) -> list[tuple[str, float]]:
    """Largest median self times of single functions, from the traced run's
    raw results."""
    raw = json.loads((RESULTS / f"{workload}-seed{seed}-trace1.json").read_text())
    names = raw["rounds"][0]["functions"]
    med = {n: statistics.median(r["functions"][n] for r in raw["rounds"]) for n in names}
    return sorted(med.items(), key=lambda kv: -kv[1])[:count]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    args = ap.parse_args(argv)
    all_correct = True
    for name in WORKLOADS:
        plain = bench(name, args.seed, args.seconds, 0)
        traced = bench(name, args.seed, args.seconds, 1)
        all_correct &= plain["correct"] and traced["correct"]
        print(f"== {name}  seed {args.seed}")
        print(f"  correct {plain['correct'] and traced['correct']}"
              f"  attempted {plain['attempted']}  failed {plain['failed']}"
              f"   (traced run: {traced['attempted']} / {traced['failed']})")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:44s} {m['value']:>16.6g} {m['unit']}")
        raw = json.loads((RESULTS / f"{name}-seed{args.seed}-trace0.json").read_text())
        wall_s = raw["wall_s"]
        print(f"  {'wall_s (measured)':44s} {wall_s:>16.6g} s")
        overhead = traced["metrics"]["traced.wall_s"]["value"] - wall_s
        print(f"  {'tracing overhead (traced - untraced wall_s)':44s} {overhead:>16.6g} s")
        shares = layer_shares(traced["metrics"])
        print("  layer share of traced self time: "
              + ", ".join(f"{layer} {share:.0%}" for layer, share in shares.items()))
        print("  largest function self times: "
              + ", ".join(f"{n} {v:.3g} s" for n, v in top_functions(name, args.seed)))
        for metric, m in traced["metrics"].items():
            print(f"  {metric:44s} {m['value']:>16.6g} {m['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
