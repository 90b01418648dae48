"""Golden digests of the command line: every byte a run emits, pinned.

Each case runs `cflab` in process and hashes its exit code, stdout, stderr
and, for `montecarlo`, the CSV and its JSON mirror (None when the run wrote
none).  The digests in golden_digests.json were recorded at commit 8a3c255,
except `cf -7/3` and `chi --beta -1/3 ...`, which carry the digests of their
spellings `cf -- -7/3` and `--beta=-1/3`, the periodic refusals and
expansions after `convergents --x dyadic:seed=7`, recorded at f94fd33, and
the three rational `mq ... --method all` cases, re-recorded on top of f273aa4
when a finite expansion's Farey value left `methods_agree`; a case whose
output differs names itself.  After an intended output change, re-record them with
`PYTHONPATH=src python3 tests/test_golden_digests.py` from the repository root,
which keeps the recorded cases in their order, so only changed digests show in a diff.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from cflab.cli import main
from cflab.harness import REGISTRY

DIGESTS = Path(__file__).with_name("golden_digests.json")

SINGLE = [
    ["cf", "10/7"], ["cf", "--", "-7/3"], ["cf", "-7/3"], ["cf", "4/-6"], ["cf", "5"], ["cf", "0/3"],
    ["cf", "1/0"],
    ["convergents", "--x", "rational:355/113", "--n", "6"],
    ["convergents", "--x", "periodic:[1;|2]", "--n", "8"],
    ["convergents", "--x", "dyadic:seed=7", "--n", "12"],
    *(["convergents", "--x", x, "--n", n]
      for x, n in (("periodic:[0;1|]", "3"), ("periodic:[0;0|1]", "3"), ("periodic:[0;1,1]", "3"),
                   ("rational:5/1", "3"), ("periodic:[2;1,3|4,1,2]", "9"))),
    ["intermediates", "--x", "periodic:[2;1,3|4,1,2]", "--Q", "60"],
    ["intermediates", "--x", "rational:2/5", "--Q", "5"],
    ["intermediates", "--x", "rational:-7/3", "--Q", "10"],
    ["intermediates", "--x", "dyadic:seed=7", "--Q", "200"],
    *(["chi", f"--beta={beta}", "--x", x]
      for beta in ("7/5", "1/-3", "-1/3", "4/6", "5/5", "3", "1/0")
      for x in ("rational:1/3", "rational:7/10", "dyadic:seed=7")),
    ["chi", "--beta", "-1/3", "--x", "rational:1/3"],
    *(["farey-row", "--q", q] for q in ("1", "2", "97", "2000", "5001")),
    *(["mq", "--x", x, "--Q", "100", "--method", "all"]
      for x in ("rational:2/5", "rational:1/3", "rational:-7/3", "periodic:[0;|1]",
                "dyadic:seed=42")),
]


def _montecarlo_cases():
    for name in sorted(REGISTRY):
        for threads in ("1", "2"):
            for exact in ((), ("--exact",)):
                yield ["montecarlo", "--experiment", name, "--samples", "24", "--seed", "31",
                       "--threads", threads, *exact, "--json"]


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "run.csv"
        if argv[0] == "montecarlo":
            argv = [*argv, "--out", str(csv)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        files = [p.read_text("utf-8") if p.exists() else None
                 for p in (csv, csv.with_suffix(".json"))]
    blob = json.dumps([code, out.getvalue(), err.getvalue(), *files])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digests() -> dict[str, str]:
    return {" ".join(argv): _digest(argv) for argv in [*SINGLE, *_montecarlo_cases()]}


def test_every_output_byte_matches_its_golden_digest():
    want = json.loads(DIGESTS.read_text("utf-8"))
    got = digests()
    assert got.keys() == want.keys()
    changed = [case for case in want if got[case] != want[case]]
    assert not changed, f"output changed for: {changed}"


if __name__ == "__main__":
    got = digests()
    order = json.loads(DIGESTS.read_text("utf-8")) if DIGESTS.exists() else {}
    DIGESTS.write_text(json.dumps({**{case: got[case] for case in order if case in got}, **got},
                                  indent=1) + "\n", "utf-8")
