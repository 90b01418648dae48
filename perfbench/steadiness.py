"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--out FILE]

For every workload and end-to-end metric this prints the median over the
seeds and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json.  It then makes one traced run per
workload at its frozen seed.  The JSON written to --out holds every value,
each run's unscaled timings with its calibration scale (calibrate.py) and
the per-layer metrics, so two such reports (say of a parent and a child
commit) can be compared metric by metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import machine_record
from workloads import BENCH_DIR, WORKLOADS

ROOT = BENCH_DIR.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(t) for t in text.split(",")]


def bench(spec: dict, name: str, *args: str) -> tuple[dict, dict]:
    """The result line of one run, and the line before it (for untraced runs,
    the unscaled timings and the calibration scale)."""
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", name,
         "--seconds", str(spec["run_seconds"]), *args],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine_record(), "seconds": spec["run_seconds"], "workloads": {}}
    for name in args.workloads.split(","):
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}")
        values: dict[str, list[float]] = {}
        walls, failed, unscaled = [], 0, []
        for seed in args.seeds:
            t = time.monotonic()
            result, before = bench(spec, name, "--seed", str(seed))
            walls.append(time.monotonic() - t)
            unscaled.append({"scale": before["scale"], **before["unscaled"]})
            failed += result["failed"] + (not result["correct"])
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[metric] = {"median": med, "spread": spread, "values": vals}
            print(f"{name:17s} {metric:17s} median {med:12.5g}  spread {spread:6.2%}"
                  f"  bound {bounds[metric]:.0%}"
                  f"{'' if spread < bounds[metric] / 3 or metric == 'setup_s' else '  WIDE'}")
        print(f"{name:17s} runs {len(walls)}, wall max {max(walls):.1f} s, "
              f"failed units or incorrect runs {failed}")
        traced, _ = bench(spec, name, "--trace", "1")
        report["workloads"][name] = {"seeds": args.seeds, "walls_s": walls,
                                     "failed": failed, "metrics": summary,
                                     "unscaled": unscaled,
                                     "per_layer": traced["metrics"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
