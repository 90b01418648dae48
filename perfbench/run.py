"""Layered benchmark for cflab.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
./src, never from an installed copy.  Workloads (see workloads.py):
deep_levy, farey_oracle, wide_q and reference_series.  Each run starts fresh
Python processes (worker.py), so set-up and import cost are measured as a
user of `cflab montecarlo` pays them.

--trace 0 prints the end-to-end metrics:
  units_per_s       units completed per second by the median timed job
                    (a job is one `cflab montecarlo` run, or one pass over
                    the reference values)
  setup_s           process start to ready (import + one warm-up unit),
                    median over the run's processes
  time_to_result_s  process start to the first checked job, median
  peak_rss_mb       peak resident memory of the workload processes
The three timings are scaled to the reference host's usual speed by a
calibration kernel that each process times between its jobs (calibrate.py);
the line before the result gives them unscaled, with the scale.
--trace 1 replays the warm-up unit and job 0 serially, once untraced and
once with spans around calls into each layer, and prints the per-layer
metrics.

Every unit's output is checked: at the frozen seed against goldens recorded
from the commit that defined this benchmark, at any other seed against the
program's own invariants.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import BENCH_DIR, WORKLOADS, Experiment, tiny

ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 170  # the whole run, below the 180 s a run may take


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def machine_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "nproc": os.cpu_count(),
            "cpu_model": model, "loadavg_start": os.getloadavg()}


def spawn(worker_args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    t = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *worker_args, "--spawn", repr(t)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process overran the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no report")
    return json.loads(lines[-1])


def run_e2e(w, common: list[str], seconds: float, deadline: float) -> dict:
    # Process j runs jobs j, j + procs, j + 2 procs, ..., so which inputs a
    # process gets depends on the seed alone, not on how fast earlier ones ran.
    reports = []
    for j in range(w.procs):
        extra = ["--mode", "job", "--first-batch", str(j), "--stride", str(w.procs),
                 "--budget", repr(seconds / w.procs)]
        if j == 0 and isinstance(w, Experiment):
            extra.append("--cross-check")
        reports.append(spawn(common + extra, deadline))
    jobs = [job for r in reports for job in r["jobs"]]
    raw = {
        "units_per_s": statistics.median(u / t for u, t in jobs),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "time_to_result_s": statistics.median(r["result_s"] for r in reports),
    }
    scale = calibrate.scale([c for r in reports for c in r["calibration_s"]])
    print(json.dumps({"workload": w.name, "unscaled": raw, "scale": scale,
                      "jobs": len(jobs)}))
    metrics = {
        "units_per_s": (raw["units_per_s"] / scale, "1/s"),
        "setup_s": (raw["setup_s"] * scale, "s"),
        "time_to_result_s": (raw["time_to_result_s"] * scale, "s"),
        "peak_rss_mb": (max(r["peak_rss_kib"] for r in reports) / 1024, "MiB"),
    }
    return {"reports": reports, "metrics": metrics}


def run_trace(w, common: list[str], deadline: float) -> dict:
    plain = spawn(common + ["--mode", "replay", "--trace", "0"], deadline)
    traced = spawn(common + ["--mode", "replay", "--trace", "1"], deadline)
    metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    layers = traced["layer_self_s"]
    print(json.dumps({"workload": w.name, "layer_self_s": layers,
                      "self_sum_s": sum(layers.values()), "traced_wall_s": traced["wall_s"]}))
    return {"reports": [plain, traced], "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 tiny_scale: bool, goldens: Path | None, deadline: float) -> dict:
    w = WORKLOADS[name]
    if tiny_scale and isinstance(w, Experiment):
        w = tiny(w)
    common = ["--workload", name, "--seed", str(seed)]
    if tiny_scale:
        common.append("--tiny")
    if goldens is not None:
        common += ["--goldens", str(goldens)]
    out = run_trace(w, common, deadline) if trace else run_e2e(w, common, seconds, deadline)
    errors = [e for r in out["reports"] for e in r["errors"]]
    for e in errors:
        print(f"{name}: {e}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in out["reports"])
    failed = sum(r["failed"] for r in out["reports"])
    return {"correct": failed == 0 and not errors and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark for cflab.")
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: each workload's frozen seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test scale")
    ap.add_argument("--goldens", type=Path, default=None,
                    help="golden directory (default: perfbench/goldens)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cflab" / "__init__.py").is_file():
        print(f"error: no cflab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_record()}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {}
        for name in names:
            seed = WORKLOADS[name].frozen_seed if args.seed is None else args.seed
            results[name] = run_workload(name, seed, args.seconds, args.trace, args.tiny,
                                         args.goldens, time.monotonic() + RUN_LIMIT_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(json.dumps({"workload": name, **res}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
