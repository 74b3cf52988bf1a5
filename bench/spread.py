"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

For every workload and metric it prints the median and the quartile spread,
(Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4), and the
wall time of each run.  Runs are sequential; each is a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls, failed_share = [], set()
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            failed_share.add(result["failed"] / result["attempted"])
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"== {name}: runs took {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {sorted(failed_share)}")
        for metric, vs in values.items():
            med = statistics.median(vs)
            q1, _q2, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            note = f"  bound {bound}, spread/bound {spread / bound:.2f}" if bound else ""
            print(f"  {metric:44s} median {med:12.4f}  spread {spread:6.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
