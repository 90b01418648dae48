"""Workload definitions and output checks for the cflab benchmark.

This module imports nothing from cflab, so the orchestrator can read the
workload table without paying for the library import.

Experiment workloads run `cflab montecarlo` jobs in-process through
`cflab.cli.main`.  A unit is one sample over the full parameter grid.  Job k
of a run uses the master seed `seed + k * BATCH_SEED_STRIDE`; after `cycle`
jobs the inputs repeat, so the frozen seed's goldens cover every unit a run
can reach however fast the program gets.

The reference workload computes exact and series reference values from
`cflab.farey` and `cflab.stats`; a unit is one reference value, and the seed
only permutes the order in which they are computed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "goldens"
BATCH_SEED_STRIDE = 1_000_003
CSV_HEADER = "experiment,seed,index,param,stat,value"

# Float references may differ from their golden by the two stated truncation
# bounds plus this relative allowance for rounding in the head sums.
FLOAT_SLACK = 1e-12
# Criterion 04 of the acceptance suite: smooth row-sum formula within 5%.
ROW_FORMULA_TOL = 0.05


@dataclass(frozen=True)
class Experiment:
    name: str
    experiment: str
    flag: str            # montecarlo flag carrying the grid
    grid: tuple[int, ...]
    weight: str | None
    workers: int
    batch: int           # units per montecarlo job
    cycle: int           # distinct jobs before the inputs repeat
    frozen_seed: int
    stats: int           # statistics per (unit, grid point)
    procs: int           # fresh processes per run

    @property
    def rows_per_unit(self) -> int:
        return len(self.grid) * self.stats

    def batch_seed(self, seed: int, k: int) -> int:
        return seed + (k % self.cycle) * BATCH_SEED_STRIDE

    def argv(self, batch_seed: int, samples: int, threads: int, out: str) -> list[str]:
        argv = ["montecarlo", "--experiment", self.experiment,
                "--samples", str(samples), "--seed", str(batch_seed),
                f"--{self.flag}", ",".join(map(str, self.grid)),
                "--threads", str(threads), "--out", out]
        if self.weight:
            argv += ["--weight", self.weight]
        return argv


@dataclass(frozen=True)
class Reference:
    name: str
    frozen_seed: int
    procs: int = 2


EXPERIMENTS = {w.name: w for w in [
    # Quotient certification in DyadicStream does nearly all the work; the
    # plain serial baseline, where a parallelism change predicts no change.
    Experiment("deep_levy", "levy", "n", (250, 1000, 2000), None,
               workers=1, batch=8, cycle=16, frozen_seed=7, stats=3, procs=5),
    # The only workload that builds Farey tables and runs chi_mask.  Five
    # processes: its time_to_result_s is mostly the table build, whose time
    # varies from process to process, so the run takes a median of five.
    Experiment("farey_oracle", "mq", "Q", (100, 500, 2000), "harmonic",
               workers=2, batch=64, cycle=8, frozen_seed=42, stats=4, procs=5),
    # Many short samples: stream construction, intermediates and terminal
    # quotients, with the Farey route off (Q > 3000); GIL-bound at 2 workers.
    # Q stays at 10^4, not 10^6: a level holds up to Q/q_{n-1} intermediates
    # and P(count >= t) is about 9/t up to that cap, so at Q = 10^6 one
    # sample in a thousand dominates a run's time and peak memory, and both
    # vary by seed far beyond any bound.
    Experiment("wide_q", "mq", "Q", (10**4,), "harmonic",
               workers=2, batch=2000, cycle=8, frozen_seed=2026, stats=3, procs=4),
]}
REFERENCE = Reference("reference_series", frozen_seed=0)
WORKLOADS = {**EXPERIMENTS, REFERENCE.name: REFERENCE}

TINY_BATCH = 2
REF_WEIGHTS = ("harmonic", "power:0.25")


def tiny(w: Experiment) -> Experiment:
    """The same workload at self-test scale: one process, two-unit jobs."""
    return replace(w, batch=TINY_BATCH, cycle=1, procs=1)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_goldens(name: str, golden_dir: Path | None = None) -> dict:
    path = (golden_dir or GOLDEN_DIR) / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- experiment checks -----------------------------------------------------


def split_units(w: Experiment, data: bytes, samples: int):
    """Per-unit CSV lines of one job, plus job-level errors.

    Returns (units, errors) where units[i] is the list of lines of sample i
    in file order, which is (param, stat) order within a sample.
    """
    errors = []
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return [[] for _ in range(samples)], ["CSV is not UTF-8"]
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    else:
        errors.append("CSV lacks its final LF")
    if lines[:1] != [CSV_HEADER]:
        errors.append("CSV header differs from the frozen header")
    lines = lines[1:]
    units: list[list[str]] = [[] for _ in range(samples)]
    for line in lines:
        i = _row_index(line)
        if i in range(samples):
            units[i].append(line)
        else:
            errors.append(f"row {line!r} is not one of samples 0..{samples - 1}")
    if len(lines) != samples * w.rows_per_unit:
        errors.append(f"{len(lines)} rows, want {samples} x {w.rows_per_unit}")
    return units, errors


def _row_index(line: str) -> int | None:
    try:
        return int(line.split(",")[2])
    except (IndexError, ValueError):
        return None


def unit_ok(w: Experiment, lines: list[str], golden: str | None) -> bool:
    """A unit passes with the right row count, methods_agree = 1 everywhere
    and, at the frozen seed, rows equal to the golden."""
    if len(lines) != w.rows_per_unit:
        return False
    for line in lines:
        fields = line.split(",")
        if len(fields) != 6 or (fields[4] == "methods_agree" and fields[5] != "1"):
            return False
    return golden is None or digest("\n".join(lines)) == golden


def unit_subset(data: bytes, samples: int) -> bytes:
    """The CSV bytes a job over the first `samples` units would write."""
    lines = data.decode("utf-8", "replace").split("\n")
    keep = [ln for ln in lines[1:-1] if _row_index(ln) in range(samples)]
    return ("\n".join(lines[:1] + keep) + "\n").encode("utf-8")


# -- reference units ---------------------------------------------------------


def reference_units(seed: int, tiny_scale: bool = False) -> list[str]:
    """Unit keys of one pass, in the order the seed gives them."""
    if tiny_scale:
        units = [f"row_sum:{q}" for q in range(10, 41)]
        units += [f"weight_log_series:{w}" for w in REF_WEIGHTS]
        units += ["mq_level_expectation:harmonic"]
    else:
        units = ["cumulative_expected_count:2000"]
        units += [f"row_sum:{q}" for q in range(10, 2001)]
        units += [f"weight_log_series:{w}" for w in REF_WEIGHTS]
        units += [f"mq_level_expectation:{w}" for w in REF_WEIGHTS]
    random.Random(seed).shuffle(units)
    return units


def reference_ok(key: str, got: dict, golden: dict | None) -> bool:
    """Check one reference value.

    got/golden hold `value` (float), `bound` (stated truncation bound) and,
    for exact values, `exact` (digest of num/den).  Row sums must also meet
    the acceptance suite's formula accuracy, on any seed.
    """
    v, b = got["value"], got["bound"]
    if not (math.isfinite(v) and math.isfinite(b) and b >= 0):
        return False
    if key.startswith("row_sum:") and abs(v / got["exact_float"] - 1) > ROW_FORMULA_TOL:
        return False
    if golden is None:
        return True
    if golden.get("exact") != got.get("exact"):
        return False
    gv = golden["value"]
    return abs(v - gv) <= golden["bound"] + b + FLOAT_SLACK * abs(gv)
