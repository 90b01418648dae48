"""Record the per-unit goldens the benchmark checks against.

    python3 perfbench/record_goldens.py [workload ...]

Experiment workloads: every unit of the `cycle` jobs at the frozen seed, as a
digest of its CSV rows.  Each job is run at 1 and at 2 workers and must give
identical bytes (the frozen determinism contract) before it is recorded.
Reference workload: each value with its stated tail bound, and a digest of
num/den for exact values.

Goldens are recorded once, from the commit that defines the benchmark; a
later commit is checked against them, never re-recorded to match itself.
"""

from __future__ import annotations

import json
import sys

import worker
from workloads import EXPERIMENTS, GOLDEN_DIR, REFERENCE, digest, reference_units, split_units


def record_experiment(cli, w) -> dict:
    out = worker.OUT_DIR / f"golden-{w.name}.csv"
    units, csv_digest = {}, {}
    for k in range(w.cycle):
        seed = w.batch_seed(w.frozen_seed, k)
        data = {}
        for threads in (1, 2):
            code, data[threads], _ = worker.run_job(cli, w, seed, w.batch, threads, out)
            if code != 0:
                raise SystemExit(f"{w.name} seed {seed}: exit code {code}")
        if data[1] != data[2]:
            raise SystemExit(f"{w.name} seed {seed}: CSV differs between 1 and 2 workers")
        rows, errors = split_units(w, data[1], w.batch)
        if errors:
            raise SystemExit(f"{w.name} seed {seed}: {errors}")
        units[str(seed)] = [digest("\n".join(r)) for r in rows]
        csv_digest[str(seed)] = digest(data[1].decode())
        print(f"{w.name}: job seed {seed} recorded ({w.batch} units)", file=sys.stderr)
    out.unlink(missing_ok=True)
    return {"workload": w.name, "frozen_seed": w.frozen_seed, "batch": w.batch,
            "cycle": w.cycle, "units": units, "csv": csv_digest}


def record_reference(farey, stats) -> dict:
    calls = worker.ReferenceCalls(farey, stats)
    units = {key: calls.describe(key, calls.compute(key))
             for key in sorted(reference_units(REFERENCE.frozen_seed))}
    for rec in units.values():
        rec.pop("exact_float", None)
    return {"workload": REFERENCE.name, "units": units}


def main(names) -> int:
    cli, farey, stats = worker.import_cflab()
    worker.OUT_DIR.mkdir(exist_ok=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or [*EXPERIMENTS, REFERENCE.name]:
        if name == REFERENCE.name:
            golden = record_reference(farey, stats)
        else:
            golden = record_experiment(cli, EXPERIMENTS[name])
        golden["cflab_version"] = sys.modules["cflab"].__version__
        with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
