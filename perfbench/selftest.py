"""Self-test of the benchmark at tiny scale (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, completes with no failed
unit and prints exactly the metric names and units BENCHMARK.json declares;
that a deliberately wrong golden entry is counted as a failed unit without
crashing the run; and that the benchmark refuses to run, printing no
result, where the cflab sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from workloads import BENCH_DIR, GOLDEN_DIR, WORKLOADS

ROOT = BENCH_DIR.parent
SCRATCH = BENCH_DIR / "out" / "selftest"


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--tiny", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            res = result(bench("--workload", name, "--trace", str(trace)))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{name} trace {trace}: metric names or units differ"
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, res
            assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            print(f"ok  {name} --trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} units checked")


def check_wrong_golden() -> None:
    goldens = SCRATCH / "goldens"
    shutil.rmtree(goldens, ignore_errors=True)
    shutil.copytree(GOLDEN_DIR, goldens)
    for name, corrupt in (("deep_levy", _corrupt_first_unit), ("reference_series", _corrupt_row_sum)):
        path = goldens / f"{name}.json"
        golden = json.loads(path.read_text())
        corrupt(golden)
        path.write_text(json.dumps(golden))
        res = result(bench("--workload", name, "--goldens", str(goldens)))
        assert res["failed"] >= 1 and not res["correct"], res
        assert res["failed"] < res["attempted"], res
        print(f"ok  {name}: wrong golden entry counted, {res['failed']} of "
              f"{res['attempted']} units failed")


def _corrupt_first_unit(golden: dict) -> None:
    units = golden["units"][str(WORKLOADS["deep_levy"].frozen_seed)]
    units[0] = "0" * len(units[0])


def _corrupt_row_sum(golden: dict) -> None:
    golden["units"]["row_sum:10"]["value"] += 1e-6


def check_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "deep_levy", cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"ok  no sources: exit code {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_wrong_golden()
    check_refuses_without_sources()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
