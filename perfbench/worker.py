"""One fresh workload process of the cflab benchmark.

run.py starts this script once per process it needs and reads the JSON
object it prints as its last stdout line.  Modes:

  job     import cflab, run one warm-up unit, then closed-loop jobs until
          this process's share of the run's seconds is used; check every
          unit.  Reports set-up time, time to the first checked result, the
          timed jobs and the calibration kernel's times (calibrate.py).
  replay  import cflab, then replay the warm-up unit and job 0 serially,
          with span tracing (--trace 1) or without (--trace 0).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from calibrate import Calibration
from tracer import BoundTap, Tracer
from workloads import (BENCH_DIR, REFERENCE, WORKLOADS, Experiment, digest,
                       load_goldens, reference_ok, reference_units,
                       split_units, tiny, unit_ok, unit_subset)

ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
CROSS_CHECK_UNITS = 4


def import_cflab():
    sys.path.insert(0, str(ROOT / "src"))
    import cflab  # noqa: F401  (the import is part of set-up)
    from cflab import cli, farey, stats
    return cli, farey, stats


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int, errors=()):
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)


def _goldens(args, w):
    """Goldens apply at the frozen seed; reference values do not depend on
    the seed, which only orders them."""
    if args.seed == w.frozen_seed or w.name == REFERENCE.name:
        return load_goldens(w.name, args.goldens)
    return None


# -- experiment workloads --------------------------------------------------------


def run_job(cli, w: Experiment, batch_seed: int, samples: int, threads: int, out: Path):
    """One `cflab montecarlo` invocation; (exit code or None, CSV bytes, seconds)."""
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    t = time.perf_counter()
    try:
        with redirect_stdout(sink):
            code = cli.main(w.argv(batch_seed, samples, threads, str(out)))
    except Exception:  # a unit that raises counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        code = None
    dt = time.perf_counter() - t
    data = out.read_bytes() if code is not None and out.exists() else b""
    return code, data, dt


def check_job(w: Experiment, tally: Tally, goldens, batch_seed: int,
              samples: int, code, data: bytes) -> None:
    if code is None or not data:
        tally.add(samples, samples, [f"job seed={batch_seed} raised or wrote no CSV"])
        return
    units, errors = split_units(w, data, samples)
    golden = goldens["units"].get(str(batch_seed)) if goldens else None
    if goldens and golden is None:
        errors.append(f"no golden for job seed={batch_seed}")
    failed = sum(not unit_ok(w, units[i], golden[i] if golden else None)
                 for i in range(samples))
    if code not in (0, 3):
        errors.append(f"job seed={batch_seed} exited with {code}")
    tally.add(samples, failed, errors)


def job_experiment(args, w: Experiment, cli, tally: Tally, imported: float) -> dict:
    out = OUT_DIR / f"{w.name}-{os.getpid()}.csv"
    cal = Calibration()
    k = args.first_batch
    seed0 = w.batch_seed(args.seed, k)
    code, data, warmup = run_job(cli, w, seed0, 1, w.workers, out)
    goldens = _goldens(args, w)
    check_job(w, tally, goldens, seed0, 1, code, data)
    cal.due()  # the host's speed during set-up, which can be most of a process
    jobs, result_at = [], None
    while True:
        batch_seed = w.batch_seed(args.seed, k)
        code, data, dt = run_job(cli, w, batch_seed, w.batch, w.workers, out)
        check_job(w, tally, goldens, batch_seed, w.batch, code, data)
        if result_at is None:  # a user would not wait for the kernel
            result_at = time.monotonic() - cal.spent
        jobs.append((w.batch, dt))
        cal.due()
        k += args.stride
        if sum(t for _, t in jobs) >= args.budget:
            break
    if args.cross_check and data:
        # Frozen determinism contract: the same bytes at 1 and 2 workers.
        n = min(CROSS_CHECK_UNITS, w.batch)
        other = 1 if w.workers > 1 else 2
        code2, data2, _ = run_job(cli, w, batch_seed, n, other, out)
        same = code2 is not None and data2 == unit_subset(data, n)
        tally.add(n, 0 if same else n,
                  [] if same else [f"CSV bytes differ between {w.workers} and {other} workers"])
    out.unlink(missing_ok=True)
    return {"setup_s": imported - args.spawn + warmup, "result_s": result_at - args.spawn,
            "jobs": jobs, "calibration_s": cal.samples}


# -- reference workload ---------------------------------------------------------------


class ReferenceCalls:
    """The cflab calls one reference unit makes, looked up once so a tracer
    can wrap them at this call site only."""

    def __init__(self, farey, stats):
        self.log2 = stats.LOG2
        self.tap = BoundTap(stats)  # before the lookups below, so they see it
        self.fn = {
            "farey.row_sum_exact": farey.row_sum_exact,
            "farey.row_sum_formula": farey.row_sum_formula,
            "farey.cumulative_expected_count": farey.cumulative_expected_count,
            "stats.weight_log_series": stats.weight_log_series,
            "stats.mq_level_expectation": stats.mq_level_expectation,
        }
        self.parse_weight = stats.parse_weight

    def compute(self, key: str):
        kind, _, arg = key.partition(":")
        fn = self.fn
        if kind == "row_sum":
            q = int(arg)
            return fn["farey.row_sum_exact"](q), fn["farey.row_sum_formula"](q)
        if kind == "cumulative_expected_count":
            return fn["farey.cumulative_expected_count"](int(arg))
        g = self.parse_weight(arg)
        if kind == "weight_log_series":
            return fn["stats.weight_log_series"](g)
        before = len(self.tap.bounds)
        value = fn["stats.mq_level_expectation"](g)
        # the level expectation is its series divided by log 2; so is the bound
        bound = max(self.tap.bounds[before:], default=0.0) / self.log2
        return value, bound

    @staticmethod
    def describe(key: str, result) -> dict:
        kind = key.partition(":")[0]
        if kind == "row_sum":
            exact, formula = result
            return {"value": formula, "bound": 0.0, "exact_float": float(exact),
                    "exact": digest(f"{exact.numerator}/{exact.denominator}")}
        if kind == "cumulative_expected_count":
            exact, lead = result
            return {"value": lead, "bound": 0.0,
                    "exact": digest(f"{exact.numerator}/{exact.denominator}")}
        value, bound = result
        return {"value": float(value), "bound": float(bound)}


def reference_pass(calls: ReferenceCalls, keys, goldens, tally: Tally,
                   cal: Calibration | None = None) -> float:
    """Compute and check every unit once; returns the compute seconds."""
    timed = 0.0
    for key in keys:
        if cal is not None:
            cal.due()
        t = time.perf_counter()
        try:
            result = calls.compute(key)
        except Exception:  # a unit that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            timed += time.perf_counter() - t
            tally.add(1, 1, [f"{key} raised"])
            continue
        timed += time.perf_counter() - t
        golden = goldens["units"].get(key) if goldens else None
        tally.add(1, 0 if reference_ok(key, calls.describe(key, result), golden) else 1)
    return timed


def job_reference(args, farey, stats, tally: Tally, imported: float) -> dict:
    calls = ReferenceCalls(farey, stats)
    goldens = _goldens(args, REFERENCE)
    keys = reference_units(args.seed, args.tiny)
    jobs, result_at, cal = [], None, Calibration()
    while True:
        jobs.append((len(keys), reference_pass(calls, keys, goldens, tally, cal)))
        if result_at is None:  # a user would not wait for the kernel
            result_at = time.monotonic() - cal.spent
        if sum(t for _, t in jobs) >= args.budget:
            break
    return {"setup_s": imported - args.spawn, "result_s": result_at - args.spawn,
            "jobs": jobs, "calibration_s": cal.samples}


# -- replay -------------------------------------------------------------------------


def replay(args, w, cli, farey, stats, tally: Tally) -> dict:
    """Warm-up unit and job 0 of the run, serially, optionally traced."""
    tracer = Tracer() if args.trace else None
    goldens = _goldens(args, w)
    if isinstance(w, Experiment):
        if tracer:
            tracer.install_experiment(w.experiment)
        out = OUT_DIR / f"{w.name}-{os.getpid()}.csv"
        seed0 = w.batch_seed(args.seed, 0)

        def body():
            warm = run_job(cli, w, seed0, 1, 1, out)
            if tracer:
                tracer.mark_units()  # per-unit times leave out the warm-up
            return [(1, warm), (w.batch, run_job(cli, w, seed0, w.batch, 1, out))]
    else:
        calls = ReferenceCalls(farey, stats)
        if tracer:
            for name, fn in calls.fn.items():
                calls.fn[name] = tracer.span(name, fn)
        keys = reference_units(args.seed, args.tiny)

        def body():  # checks each value as it goes; the check is cheap
            return reference_pass(calls, keys, goldens, tally)

    t0 = time.perf_counter()
    got = tracer.span("bench.replay", body)() if tracer else body()
    wall = time.perf_counter() - t0

    if isinstance(w, Experiment):
        for n, (code, data, _) in got:
            check_job(w, tally, goldens, seed0, n, code, data)
        out.unlink(missing_ok=True)
    report = {"wall_s": wall}
    if tracer:
        bounds = [] if isinstance(w, Experiment) else calls.tap.bounds
        report["metrics"] = tracer.metrics(bounds)
        report["layer_self_s"] = tracer.layer_self()
        tracer.write(OUT_DIR / f"spans-{w.name}-seed{args.seed}.csv.gz", w.name, args.seed)
    return report


def peak_rss_kib() -> int:
    """Peak resident memory of this process and the children it waited for, in KiB.

    For this process it is VmHWM, which counts only the memory of this
    program since it was exec'd.  getrusage's ru_maxrss, the fallback where
    /proc is missing, also keeps the peak of the orchestrator image the
    process was forked from.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
                    break
    except OSError:
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("job", "replay"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn", type=float, required=True,
                    help="time.monotonic() of the parent just before start")
    ap.add_argument("--first-batch", type=int, default=0)
    ap.add_argument("--stride", type=int, default=1, help="job index step")
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--cross-check", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--goldens", type=Path, default=None)
    args = ap.parse_args()

    cli, farey, stats = import_cflab()
    imported = time.monotonic()
    w = WORKLOADS[args.workload]
    if args.tiny and isinstance(w, Experiment):
        w = tiny(w)
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    if args.mode == "replay":
        report = replay(args, w, cli, farey, stats, tally)
    elif isinstance(w, Experiment):
        report = job_experiment(args, w, cli, tally, imported)
    else:
        report = job_reference(args, farey, stats, tally, imported)
    report.update(attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors[:20], peak_rss_kib=peak_rss_kib())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
