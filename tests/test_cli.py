"""Command line behavior: output formats, exit codes, file artifacts."""

import json
import os

import pytest

from cflab.cf import (DyadicStream, InvariantViolation, NeedsMoreBits,
                      QuotientCapExceeded)
from cflab.cli import main
from cflab.harness import Experiment, ExperimentConfig, REGISTRY, rows_to_csv, run


def test_cf_prints_expansion(capsys):
    assert main(["cf", "10/7"]) == 0
    assert capsys.readouterr().out == "[1;2,3]\n"


def test_convergents_lines(capsys):
    assert main(["convergents", "--x", "rational:355/113", "--n", "4"]) == 0
    # the expansion [3;7,16] exhausts after three convergents
    assert capsys.readouterr().out == "0 3/1\n1 22/7\n2 355/113\n"


def test_intermediates_lines_zero_class_shown_as_one(capsys):
    assert main(["intermediates", "--x", "rational:2/5", "--Q", "5"]) == 0
    assert capsys.readouterr().out == \
        "1 1 1 1/1\n1 2 2 1/2\n2 1 3 1/3\n2 2 5 2/5\n"


def test_chi_values(capsys):
    assert main(["chi", "--beta", "2/5", "--x", "rational:1/3"]) == 0
    assert capsys.readouterr().out == "1/2\n"  # lower interval endpoint
    assert main(["chi", "--beta", "2/5", "--x", "rational:3/8"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["chi", "--beta", "2/5", "--x", "rational:9/10"]) == 0
    assert capsys.readouterr().out == "0\n"
    # x mod 1 = 1/2 lies strictly inside (0, 1), the interval of 1/2
    assert main(["chi", "--beta", "1/2", "--x", "rational:7/2"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_farey_row_lines(capsys):
    assert main(["farey-row", "--q", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "exact 5/6"
    assert out[1].startswith("formula 0.828")


def test_mq_all_methods_printed_and_equal(capsys):
    assert main(["mq", "--x", "dyadic:seed=42", "--Q", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [ln.split()[0] for ln in lines]
    assert labels == ["farey", "conv", "closed", "agree"]
    values = {ln.split()[1] for ln in lines[:3]}
    assert len(values) == 1
    assert lines[3] == "agree 1"


def test_mq_routes_agree_with_integer_part(capsys):
    assert main(["mq", "--x", "rational:355/113", "--Q", "50",
                 "--weight", "unit"]) == 0
    assert capsys.readouterr().out == \
        "farey 14\nconv 14\nclosed 14\nagree 1\n"


def test_mq_single_method(capsys):
    assert main(["mq", "--x", "rational:2/5", "--Q", "5", "--method", "closed",
                 "--weight", "unit"]) == 0
    assert capsys.readouterr().out == "closed 4\n"


def test_montecarlo_writes_csv_and_prints_summaries(tmp_path, capsys):
    out = tmp_path / "nq.csv"
    rc = main(["montecarlo", "--experiment", "nq", "--samples", "3",
               "--seed", "14", "--Q", "50", "--out", str(out)])
    assert rc == 0
    expected = rows_to_csv(run(ExperimentConfig("nq", 3, 14, {"grid": (50,)})))
    assert out.read_text("utf-8") == expected
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("50 N mean=") for ln in lines)
    assert any(ln.startswith("50 a mean=") for ln in lines)
    for ln in lines:
        assert "n=3" in ln


def test_montecarlo_json_mirror(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["montecarlo", "--experiment", "levy", "--samples", "2",
               "--seed", "3", "--n", "30", "--out", str(out), "--json"])
    assert rc == 0
    mirror = json.loads((tmp_path / "run.json").read_text("utf-8"))
    csv_lines = out.read_text("utf-8").strip().split("\n")[1:]
    assert len(mirror) == len(csv_lines)
    assert [r["value"] for r in mirror] == [ln.split(",")[5] for ln in csv_lines]


def test_montecarlo_pairdep_prints_joint_tables(tmp_path, capsys):
    out = tmp_path / "pd.csv"
    rc = main(["montecarlo", "--experiment", "pairdep", "--samples", "20",
               "--seed", "3", "--k", "5", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("k=5 r=")) == 4


def test_montecarlo_gamma_shorthand(tmp_path):
    out = tmp_path / "mq.csv"
    rc = main(["montecarlo", "--experiment", "mq", "--samples", "2",
               "--seed", "4", "--Q", "100", "--gamma", "0.5", "--out", str(out)])
    assert rc == 0
    assert ",methods_agree,1" in out.read_text("utf-8")


def test_montecarlo_exact_mode(tmp_path):
    out = tmp_path / "gk.csv"
    rc = main(["montecarlo", "--experiment", "gauss_kuzmin", "--samples", "2",
               "--seed", "5", "--k", "1", "--n", "10", "--exact",
               "--out", str(out)])
    assert rc == 0
    for line in out.read_text("utf-8").strip().split("\n")[1:]:
        assert "/" in line.split(",")[5]


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--experiment", "nope", "--samples", "1", "--seed", "1",
     "--out", "x.csv"],
    ["montecarlo", "--experiment", "levy", "--samples", "1", "--seed", "1",
     "--Q", "10", "--out", "x.csv"],
    ["montecarlo", "--experiment", "gauss_kuzmin", "--samples", "1",
     "--seed", "1", "--n", "10,20", "--out", "x.csv"],
    ["montecarlo", "--experiment", "mq", "--samples", "1", "--seed", "1",
     "--weight", "harmonic", "--gamma", "0.5", "--out", "x.csv"],
    ["montecarlo", "--experiment", "mq", "--samples", "1", "--seed", "1",
     "--weight", "bogus:spec", "--out", "x.csv"],
    ["mq", "--x", "rational:1/3", "--Q", "10", "--weight", "power:-1"],
    ["cf", "1/0"],
    ["mq", "--x", "rational:1/3", "--Q", "10", "--weight", "table:missing.txt"],
    ["mq", "--x", "rational:1/3", "--Q", "10", "--weight", "table:zero_den.txt"],
    ["montecarlo", "--experiment", "openproblem", "--samples", "1", "--seed", "1",
     "--set", "file:missing.txt", "--out", "x.csv"],
    ["farey-row", "--q", "1"],
    ["mq", "--x", "dyadic:seed=1", "--Q", "0", "--method", "farey"],
    ["mq", "--x", "rational:1/3", "--Q", "100000", "--method", "farey"],
    ["farey-row", "--q", "3000000"],
])
def test_invalid_arguments_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero_den.txt").write_text("1 1/0\n")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("exc", [NeedsMoreBits, QuotientCapExceeded])
def test_budget_errors_exit_2(exc, tmp_path, capsys, monkeypatch):
    def exhausted(self, n, max_bits=1 << 20):
        raise exc(f"quotient {n} out of budget")

    monkeypatch.setattr(DyadicStream, "quotient", exhausted)
    out = tmp_path / "levy.csv"
    rc = main(["montecarlo", "--experiment", "levy", "--samples", "1",
               "--seed", "1", "--n", "10", "--out", str(out)])
    assert rc == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == "error: quotient 1 out of budget\n"
    assert not out.exists()


@pytest.mark.parametrize("exc, code, prefix", [
    (NeedsMoreBits, 2, "error"), (QuotientCapExceeded, 2, "error"),
    (InvariantViolation, 3, "invariant violation")])
def test_worker_process_errors_keep_their_exit_code(exc, code, prefix, tmp_path,
                                                     capsys, monkeypatch):
    parent = os.getpid()

    def failing(stream, n, p):  # the forked workers inherit this registry entry
        raise exc("raised in a worker" if os.getpid() != parent else "raised in the parent")

    monkeypatch.setitem(REGISTRY, "levy", Experiment("levy", "n", (10,), failing))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two workers anywhere
    out = tmp_path / "levy.csv"
    rc = main(["montecarlo", "--experiment", "levy", "--samples", "4",
               "--seed", "1", "--threads", "2", "--out", str(out)])
    assert rc == code
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"{prefix}: raised in a worker\n"
    assert not out.exists()


def test_exact_mode_rejects_float_statistics(tmp_path, capsys):
    out = tmp_path / "levy.csv"
    rc = main(["montecarlo", "--experiment", "levy", "--samples", "1",
               "--seed", "1", "--n", "10", "--exact", "--out", str(out)])
    assert rc == 2
    assert "not exact" in capsys.readouterr().err


def test_methods_agree_failure_exits_3_after_writing(tmp_path, capsys,
                                                     monkeypatch):
    def fake_compute(stream, Q, p):
        return [("mq_closed", 1.0), ("methods_agree", 0)]

    monkeypatch.setitem(REGISTRY, "mq",
                        Experiment("mq", "Q", (100,), fake_compute))
    out = tmp_path / "bad.csv"
    rc = main(["montecarlo", "--experiment", "mq", "--samples", "2",
               "--seed", "1", "--out", str(out)])
    assert rc == 3
    assert "methods_agree failed on 2 rows" in capsys.readouterr().err
    assert ",methods_agree,0" in out.read_text("utf-8")  # CSV written first


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
