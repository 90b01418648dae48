"""Command line behavior: output formats, exit codes, file artifacts."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cflab.cf
from cflab import cli, harness
from cflab.cf import (DyadicStream, InvariantViolation, NeedsMoreBits,
                      QuotientCapExceeded, intermediates)
from cflab.cli import main
from cflab.harness import (Experiment, ExperimentConfig, REGISTRY, rows_to_csv, run,
                           sample_stream)
from cflab.stats import TruncationFn, WeightFunction, classical_stats, x_nf


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


def test_farey_row_checks_both_domains_first(capsys, monkeypatch):
    computed = []
    monkeypatch.setattr(cli, "row_sum_exact", lambda q: computed.append(q))
    for q in (-1, 0, 1, 5001):
        assert main(["farey-row", "--q", str(q)]) == 2
        assert capsys.readouterr() == ("", f"error: q = {q} outside 2..5000\n")
    assert computed == []


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


def test_mq_routes_that_disagree_keep_their_own_values(capsys):
    # x = 1/3 lies on a neighbor endpoint, which counts 1/2 on the Farey route only,
    # by chi's definition; a finite expansion's agreement compares the other two
    assert main(["mq", "--x", "rational:1/3", "--Q", "10", "--method", "all"]) == 0
    assert capsys.readouterr().out == \
        "farey 23/8\nconv 11/6\nclosed 11/6\nagree 1\n"


@pytest.mark.parametrize("x, route", [
    ("dyadic:seed=42", "mq_count_intermediates"), ("rational:1/3", "mq_count_intermediates"),
    ("periodic:[0;2|1,3]", "mq_count_farey"), ("dyadic:seed=42", "mq_count_farey"),
])
def test_mq_routes_that_disagree_exit_3(x, route, capsys, monkeypatch):
    # only a finite expansion's Farey route is left out of the agreement
    count = getattr(harness, route)

    def one_more_zero_class(stream, grid):
        counts = count(stream, grid)
        for c in counts.values():
            c[1] += 1
        return counts

    argv = ["mq", "--x", x, "--Q", "100", "--weight", "unit"]
    assert main(argv) == 0
    agreed = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(harness, route, one_more_zero_class)
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert (agreed[-1], lines[-1]) == ("agree 1", "agree 0")
    moved = {"mq_count_farey": "farey", "mq_count_intermediates": "conv"}[route]
    changed = dict(ln.split() for ln in set(lines) - set(agreed))  # unit weights: one more
    assert changed == {moved: str(int(dict(ln.split() for ln in agreed)[moved]) + 1),
                       "agree": "0"}


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


def test_a_json_mirror_that_is_the_csv_is_refused_before_any_sample(tmp_path, capsys,
                                                                     monkeypatch):
    out = tmp_path / "run.json"  # its mirror, run.json, would overwrite it
    out.write_text("kept\n")
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a sample ran"))
    assert main(["montecarlo", "--experiment", "levy", "--samples", "2", "--seed", "3",
                 "--out", str(out), "--json"]) == 2
    assert capsys.readouterr() == (
        "", f"error: --json would write its JSON mirror over the CSV {str(out)!r}\n")
    assert out.read_text() == "kept\n"


def test_montecarlo_pairdep_prints_joint_tables(tmp_path, capsys):
    out = tmp_path / "pd.csv"
    rc = main(["montecarlo", "--experiment", "pairdep", "--samples", "20",
               "--seed", "3", "--k", "5", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("k=5 r=")) == 4


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
     "--weight", "power:0", "--out", "x.csv"],
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
    ["montecarlo", "--experiment", "levy", "--samples", "1", "--seed", "1",
     "--n", "10", "--out", "missing_dir/x.csv"],
    ["montecarlo", "--experiment", "levy", "--samples", "1", "--seed", "1",
     "--n", "10", "--out", "."],
    ["montecarlo", "--experiment", "levy", "--samples", "1", "--seed", "1",
     "--n", "10", "--out", "blocked.csv", "--json"],
    ["montecarlo", "--experiment", "gauss_kuzmin", "--samples", "1", "--seed", "1",
     "--n", "0", "--out", "x.csv"],
    ["montecarlo", "--experiment", "variance", "--samples", "1", "--seed", "1",
     "--n", "0", "--out", "x.csv"],
    ["montecarlo", "--experiment", "pairdep", "--samples", "1", "--seed", "1",
     "--n", "0", "--out", "x.csv"],
    ["montecarlo", "--experiment", "double_exceed", "--samples", "1", "--seed", "1",
     "--delta", "nan", "--out", "x.csv"],
    ["montecarlo", "--experiment", "xnf", "--samples", "1", "--seed", "1",
     "--delta", "nan", "--out", "x.csv"],
    ["montecarlo", "--experiment", "xnf", "--samples", "1", "--seed", "1",
     "--delta", "inf", "--out", "x.csv"],
    pytest.param(["montecarlo", "--experiment", "xnf", "--samples", "1", "--seed", "1",
                  "--delta", "1e300", "--n", "5", "--out", "x.csv"],
                 id="xnf-f-overflows"),
    pytest.param(["montecarlo", "--experiment", "double_exceed", "--samples", "1",
                  "--seed", "1", "--delta", "1e300", "--m", "5", "--out", "x.csv"],
                 id="double_exceed-threshold-overflows"),
    pytest.param(["montecarlo", "--experiment", "xnf", "--samples", "1", "--seed", "1",
                  "--delta=-1e300", "--n", "2", "--out", "x.csv"],
                 id="xnf-f-overflows-below-e"),
    ["montecarlo", "--experiment", "nq", "--samples", "3", "--seed", "1",
     "--Q", "100,100", "--out", "x.csv"],
    pytest.param(["montecarlo", "--experiment", "nq", "--samples", "1", "--seed", "-1",
                  "--out", "x.csv"], id="seed-negative"),
    pytest.param(["montecarlo", "--experiment", "nq", "--samples", "1",
                  "--seed", "99999999999999999999999", "--out", "x.csv"], id="seed-past-64-bits"),
])
def test_invalid_arguments_exit_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero_den.txt").write_text("1 1/0\n")
    (tmp_path / "blocked.json").mkdir()  # the JSON mirror's path is a directory
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def test_a_flag_the_experiment_does_not_take_is_named_by_its_setting(tmp_path, capsys):
    rc = main(["montecarlo", "--experiment", "nq", "--samples", "1", "--seed", "1",
               "--set", "all", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: heights is not used by nq\n"


# -- malformed specs: every one is a bad argument ---------------------------------

# printable ASCII without digits or the letters of inf/nan: no word parses as a number
NOT_NUMERIC = "!#$%&()*+-.;<>?@[]_bcdeghjklmopqrsuvwxz|,/:="
WORD = st.text(st.sampled_from(" " + NOT_NUMERIC), max_size=8)
TOKEN = st.text(st.sampled_from(NOT_NUMERIC), min_size=1, max_size=8)  # one field of a line
ANY_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
INT = st.integers(-10 ** 6, 10 ** 6)
POS = st.integers(1, 50)


def unknown(*known):
    return ANY_TEXT.filter(lambda t: t not in known and not t.startswith(known))


def quotient_list(values):
    return st.lists(values, max_size=3).map(lambda v: ",".join(map(str, v)))


BAD_STREAMS = st.one_of(
    unknown("rational:", "periodic:", "dyadic:"),
    st.builds("rational:{}".format, WORD),
    st.builds("rational:{}/0".format, INT),
    st.builds("periodic:{}".format, WORD),
    st.builds("periodic:[{};{}]".format, INT, quotient_list(POS)),
    st.builds("periodic:[{};{}|]".format, INT, quotient_list(POS)),
    st.builds("periodic:[{};{}|{},{}]".format, INT, quotient_list(POS),
              st.integers(-5, 0), quotient_list(POS)),
    st.builds("dyadic:{}".format, WORD.filter(lambda w: "seed" not in w)),
    st.builds("dyadic:seed={}".format, WORD),
    st.builds("dyadic:seed={}".format, st.integers(2 ** 64, 2 ** 70) | st.integers(max_value=-1)),
    st.builds("dyadic:seed={},bits={}".format, st.integers(0, 2 ** 64 - 1),
              st.integers(-10, 0)),
    st.builds("dyadic:seed={},{}={}".format, st.integers(0, 2 ** 64 - 1),
              st.text(st.sampled_from("abcdeistz_"), max_size=6).filter(
                  lambda k: k != "seed"), st.integers(1, 512)),
    st.sampled_from(["dyadic:seed=1,seed=2", "dyadic:seed=1,bits=64"]),
)


def table_lines(bad):
    """Well-formed `m value` lines with one malformed line among them."""
    good = st.lists(st.tuples(POS, INT, POS), max_size=3, unique_by=lambda t: t[0])
    return st.builds(lambda lines, bad, at: [f"{m} {p}/{q}" for m, p, q in lines][:at]
                     + [bad] + [f"{m} {p}/{q}" for m, p, q in lines][at:],
                     good, bad, st.integers(0, 3))


BAD_TABLE_LINES = st.one_of(
    table_lines(st.builds("{} 1".format, st.integers(-5, 0))),        # m < 1
    table_lines(st.builds("{} {}/0".format, POS, INT)),               # zero denominator
    table_lines(st.builds("{} {}".format, TOKEN, INT)),               # m not an integer
    table_lines(st.builds("{} {}".format, POS, TOKEN)),               # value not a number
    table_lines(st.builds(str, POS)),                                 # one field
    table_lines(st.builds("{} 1 {}".format, POS, INT)),               # three fields
    st.builds(lambda m, a, b: [f"{m} {a}", f"{m} {b}"], POS, INT, INT),  # m twice
    st.lists(st.sampled_from(["", " ", "\t"]), max_size=3),          # no entry
)

BAD_HEIGHT_SETS = st.one_of(
    unknown("all", "primes", "mod:", "file:"),
    st.builds("mod:{}".format, WORD),
    st.builds("mod:{}".format, INT),
    st.builds("mod:{},{}".format, st.integers(-5, 0), INT),
    st.builds(lambda d, r: f"mod:{d},{r}", POS, st.integers(-5, -1))
    | st.builds(lambda d, k: f"mod:{d},{d + k}", POS, st.integers(0, 5)),
)

NO_WORKERS = settings(max_examples=40, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_bad_argument(argv, capsys):
    """Exit 2 with one `error:` line on stderr and nothing on stdout."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@NO_WORKERS
@given(spec=BAD_STREAMS)
def test_malformed_stream_specs_exit_2(spec, capsys):
    assert_bad_argument(["convergents", f"--x={spec}", "--n", "3"], capsys)


@NO_WORKERS
@given(spec=unknown("harmonic", "unit", "power:", "table:")
       | st.builds("power:{}".format, WORD | st.just("nan"))
       | st.builds("power:{}".format, st.floats(max_value=0) | st.integers(max_value=0)),
       lines=st.none() | BAD_TABLE_LINES)
def test_malformed_weight_specs_exit_2(spec, lines, tmp_path, capsys):
    if lines is not None:  # a table file, or none at all when lines is empty
        path = tmp_path / "weights.txt"
        path.unlink(missing_ok=True)
        if lines:
            path.write_text("\n".join(lines) + "\n")
        spec = f"table:{path}"
    assert_bad_argument(["mq", "--x", "rational:1/3", "--Q", "10", f"--weight={spec}"], capsys)


@pytest.mark.parametrize("lines, bad", [
    (["2 1", "0 1"], "0 1"),              # m < 1
    (["2 1", "3 1/0"], "3 1/0"),          # zero denominator
    (["x 1", "2 1"], "x 1"),              # m not an integer
    (["2 1", "3 abc"], "3 abc"),          # value not a number
    (["2 1", " 4 "], "4"),                # one field
    (["2 1 5"], "2 1 5"),                 # three fields
    (["2 1", "3 1/2", "2 1/3"], "2 1/3"),  # m twice
])
def test_bad_weight_table_line_is_named(lines, bad, tmp_path, capsys):
    path = tmp_path / "weights.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["mq", "--x", "rational:1/3", "--Q", "10", f"--weight=table:{path}"]) == 2
    assert capsys.readouterr() == ("", f"error: bad weight table line {bad!r}\n")


@NO_WORKERS
@given(spec=BAD_HEIGHT_SETS, tokens=st.none() | st.lists(TOKEN | INT.map(str), max_size=4))
def test_malformed_height_set_specs_exit_2(spec, tokens, tmp_path, capsys):
    if tokens is not None:  # a height file, missing or with a token that is no integer
        path = tmp_path / "heights.txt"
        path.unlink(missing_ok=True)
        if tokens and not all(t.lstrip("-").isdigit() for t in tokens):
            path.write_text(" ".join(tokens) + "\n")
        spec = f"file:{path}"
    out = tmp_path / "out.csv"
    assert_bad_argument(["montecarlo", "--experiment", "openproblem", "--samples", "1",
                         "--seed", "1", "--Q", "10", f"--set={spec}", "--out", str(out)],
                        capsys)
    assert not out.exists()


@pytest.mark.parametrize("exc", [NeedsMoreBits, QuotientCapExceeded])
def test_budget_errors_exit_2(exc, tmp_path, capsys, monkeypatch):
    def exhausted(self, n):
        raise exc(f"quotient {n} out of budget")

    monkeypatch.setattr(DyadicStream, "quotient", exhausted)
    out = tmp_path / "levy.csv"
    rc = main(["montecarlo", "--experiment", "levy", "--samples", "1",
               "--seed", "1", "--n", "10", "--out", str(out)])
    assert rc == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == "error: quotient 10 out of budget\n"  # levy reads a_n at its grid n first
    assert not out.exists()


def caller_waits_for_the_child(monkeypatch) -> int:
    """The write end of a pipe on which the caller waits, right after forking
    its one child, for a byte (or the child's end): the caller claims no chunk
    before the child writes, so the child's share is fixed without sleeps."""
    r, w = os.pipe()
    fork = os.fork

    def fork_then_wait():
        pid = fork()
        if pid:  # the caller; the child keeps its copy of w
            os.close(w)
            os.read(r, 1)
            os.close(r)
        return pid

    monkeypatch.setattr(os, "fork", fork_then_wait)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two workers anywhere
    return w


def sample_index(stream, samples=16, seed=1) -> int:
    return [sample_stream(seed, i).seed for i in range(samples)].index(stream.seed)


@pytest.mark.parametrize("exc, code, prefix", [
    (NeedsMoreBits, 2, "error"), (QuotientCapExceeded, 2, "error"),
    (InvariantViolation, 3, "invariant violation"), (None, 3, "invariant violation")])
def test_worker_process_errors_keep_their_exit_code(exc, code, prefix, tmp_path,
                                                     capsys, monkeypatch):
    parent = os.getpid()
    w = caller_waits_for_the_child(monkeypatch)

    def failing(stream, n, p):  # the forked child inherits this registry entry
        if os.getpid() == parent:  # chunk 1, claimed after the child's chunk 0
            raise (exc or ValueError)("raised in the parent")
        os.write(w, b"!")
        if exc is None:  # the child dies, as when it is killed for memory
            os._exit(9)
        raise exc("raised in a worker")

    monkeypatch.setitem(REGISTRY, "levy", Experiment("levy", "n", (10,), failing))
    out = tmp_path / "levy.csv"
    rc = main(["montecarlo", "--experiment", "levy", "--samples", "4",
               "--seed", "1", "--threads", "2", "--out", str(out)])
    assert rc == code
    stdout, err = capsys.readouterr()
    assert stdout == ""
    # the lowest failing chunk wins, and chunks 2 and 3, never claimed, are not lost
    message = ("raised in a worker" if exc else
               "a worker process died; samples 0..0 were lost")
    assert err == f"{prefix}: {message}\n"
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("exc, code, prefix", [
    (ValueError, 2, "error"), (InvariantViolation, 3, "invariant violation"),
    (None, 3, "invariant violation")])
def test_one_failing_sample_among_workers(exc, code, prefix, tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    w = caller_waits_for_the_child(monkeypatch)
    in_caller = []

    def levy(stream, grid, p):
        i = sample_index(stream)
        if os.getpid() == parent:
            in_caller.append(i)
        elif i == 2:  # only sample 2 fails, in the child, which claimed 0..2 alone
            os.write(w, b"!")
            if exc is None:
                os._exit(9)
            raise exc("sample 2 failed")
        return [(n, "levy_stat", 0.0) for n in grid]

    monkeypatch.setitem(REGISTRY, "levy", Experiment("levy", "n", (10,), levy))
    out = tmp_path / "levy.csv"
    rc = main(["montecarlo", "--experiment", "levy", "--samples", "4",
               "--seed", "1", "--threads", "2", "--out", str(out)])
    assert rc == code
    assert in_caller == [3]
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert not out.exists()
    if exc:
        assert err == f"{prefix}: sample 2 failed\n"
    else:  # the dead child's earlier chunks are lost with it
        lost = err.removeprefix(f"{prefix}: a worker process died; samples ")
        lost = lost.removesuffix(" were lost\n").split(", ")
        assert "2..2" in lost and set(lost) <= {"0..0", "1..1", "2..2", "3..3"}
        assert lost == ["0..0", "1..1", "2..2"]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_dead_child_loses_only_the_chunks_it_claimed(tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    w = caller_waits_for_the_child(monkeypatch)
    in_caller = []

    def levy(stream, grid, p):
        if os.getpid() != parent:  # the child's first chunk, 0..0, is its last
            os.write(w, b"!")
            os._exit(9)
        in_caller.append(sample_index(stream))
        return [(n, "levy_stat", 0.0) for n in grid]

    monkeypatch.setitem(REGISTRY, "levy", Experiment("levy", "n", (10,), levy))
    out = tmp_path / "levy.csv"
    rc = main(["montecarlo", "--experiment", "levy", "--samples", "16",
               "--seed", "1", "--threads", "2", "--out", str(out)])
    assert rc == 3
    assert in_caller == list(range(1, 16))  # the caller finished every other chunk
    assert capsys.readouterr() == ("", "invariant violation: a worker process died; "
                                       "samples 0..0 were lost\n")
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("exc, code, prefix", [
    (NeedsMoreBits, 2, "error"), (InvariantViolation, 3, "invariant violation")])
def test_a_serial_run_stops_at_its_first_failing_sample(exc, code, prefix, tmp_path,
                                                        capsys, monkeypatch):
    calls = []

    def failing(stream, n, p):
        calls.append(os.getpid())
        raise exc("sample 0 failed")

    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))  # never called
    monkeypatch.setitem(REGISTRY, "levy", Experiment("levy", "n", (10,), failing))
    out = tmp_path / "levy.csv"
    rc = main(["montecarlo", "--experiment", "levy", "--samples", "4",
               "--seed", "1", "--threads", "1", "--out", str(out)])
    assert rc == code
    assert capsys.readouterr() == ("", f"{prefix}: sample 0 failed\n")
    assert calls == [os.getpid()] and forks == []
    assert not out.exists()


def test_only_an_exception_from_a_child_carries_its_traceback(monkeypatch):
    # a child's exception is pickled without its frames, so it brings them as a
    # note; the caller's own exception keeps its real traceback and gets none
    cfg = ExperimentConfig("levy", samples=4, seed=1, threads=1)
    parent = os.getpid()
    w = caller_waits_for_the_child(monkeypatch)  # a serial run forks nothing

    def failing(stream, n, p):
        if os.getpid() != parent:
            os.write(w, b"!")
        if os.getpid() != parent or sample_index(stream) == 1:
            raise ValueError(f"raised in {'the caller' if os.getpid() == parent else 'a child'}")
        return [(v, "levy_stat", 0.0) for v in n]

    monkeypatch.setitem(REGISTRY, "levy", Experiment("levy", "n", (10,), failing))
    with pytest.raises(ValueError, match="raised in the caller") as serial:
        run(cfg)
    assert not hasattr(serial.value, "__notes__")
    cfg.threads = 2  # the child fails at chunk 0, before the caller's chunk 1
    with pytest.raises(ValueError, match="raised in a child") as forked:
        run(cfg)
    assert len(forked.value.__notes__) == 1
    assert forked.value.__notes__[0].startswith("Traceback (most recent call last):")
    assert "in failing" in forked.value.__notes__[0]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_exact_mode_rejects_float_statistics(tmp_path, capsys, monkeypatch):
    # the workers format the rows; at --threads 2 the child formats chunk 0, and
    # fails, before the caller claims a chunk, and its error is the serial one
    caller_waits_for_the_child(monkeypatch)
    levy_stat = classical_stats(sample_stream(1, 0), [10])[0].levy_stat
    out = tmp_path / "levy.csv"
    for threads in ("1", "2"):
        rc = main(["montecarlo", "--experiment", "levy", "--samples", "2", "--seed", "1",
                   "--n", "10", "--exact", "--json", "--threads", threads, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: value {levy_stat!r} is not exact\n")
        assert list(tmp_path.iterdir()) == []  # formatted before any file is opened


def test_exact_values_past_the_interpreters_digit_limit_are_written(tmp_path, monkeypatch):
    # x_nf at n = 2000 (seed 1, sample 0) has terms of more than 4300 digits, where
    # str(int) stops by default; format_value writes them through Decimal, which
    # has no limit, in the caller and in a forked child alike
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two workers anywhere
    want = x_nf(sample_stream(1, 0), 2000, WeightFunction.harmonic(), TruncationFn(0.5))
    written = set()
    for threads in ("1", "2"):
        out = tmp_path / f"xnf{threads}.csv"
        assert main(["montecarlo", "--experiment", "xnf", "--samples", "2", "--seed", "1",
                     "--n", "2000", "--exact", "--threads", threads, "--out", str(out)]) == 0
        written.add(out.read_bytes())
        num, den = out.read_text("utf-8").split("\n")[1].split(",")[5].split("/")
        assert max(len(num), len(den)) > 4300
        assert (Decimal(num), Decimal(den)) == (want.numerator, want.denominator)
    assert len(written) == 1


MERGE_RUNS = {
    "mq": ["--experiment", "mq", "--Q", "100,500", "--samples", "13"],
    "gauss_kuzmin": ["--experiment", "gauss_kuzmin", "--samples", "19"],
    "pairdep": ["--experiment", "pairdep", "--samples", "11"],
    "khinchin_avg-exact": ["--experiment", "khinchin_avg", "--n", "30,60", "--samples", "7",
                           "--exact"],
}


@pytest.mark.parametrize("argv", MERGE_RUNS.values(), ids=MERGE_RUNS)
def test_forked_runs_merge_to_the_serial_output(argv, tmp_path, capsys, monkeypatch):
    # 1, 2 and 3 workers cut the samples into differently sized chunks
    # (min(samples, 8 workers) of them); the caller concatenates the workers'
    # lines and merges their sorted values, and every output is the same
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    outputs = set()
    for threads in ("1", "2", "3"):
        out = tmp_path / f"run{threads}.csv"
        assert main(["montecarlo", *argv, "--seed", "3", "--json", "--threads", threads,
                     "--out", str(out)]) == 0
        printed = capsys.readouterr()
        outputs.add((out.read_bytes(), out.with_suffix(".json").read_bytes(), printed))
    (_, _, (stdout, stderr)), = outputs
    assert stderr == "" and " mean=" in stdout
    assert ("k=10 r=2 s=2 joint=" in stdout) == ("pairdep" in argv)


@pytest.mark.parametrize("experiment, grid", [("mq", "--Q"), ("xnf", "--n"),
                                               ("khinchin_avg", "--n")])
def test_exact_with_a_float_weight_is_refused_before_any_sample(experiment, grid, tmp_path,
                                                                capsys, monkeypatch):
    def no_sample(master_seed, index):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr("cflab.harness.sample_stream", no_sample)
    out = tmp_path / "exact.csv"
    assert main(["montecarlo", "--experiment", experiment, "--samples", "400", "--seed", "1",
                 grid, "3000", "--weight", "power:0.5", "--exact", "--json",
                 "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: exact values need an exact weight family\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["mod:3", "mod:", "mod:3,1,2", "mod:x,1", "file:{}"])
def test_a_malformed_height_set_is_named(spec, tmp_path, capsys):
    heights = tmp_path / "heights.txt"
    heights.write_text("3 5\n7.5\n")
    spec = spec.format(heights)
    assert main(["montecarlo", "--experiment", "openproblem", "--samples", "2", "--seed", "1",
                 "--set", spec, "--out", str(tmp_path / "o.csv")]) == 2
    named = (f"bad residue class {spec!r}" if spec.startswith("mod:") else
             f"bad height set {spec!r}: invalid literal for int() with base 10: '7.5'")
    assert capsys.readouterr().err == f"error: {named}\n"


def test_methods_agree_failure_exits_3_after_writing(tmp_path, capsys,
                                                     monkeypatch):
    def fake_compute(stream, grid, p):
        return [(Q, stat, v) for Q in grid
                for stat, v in (("mq_closed", 1.0), ("methods_agree", 0))]

    monkeypatch.setitem(REGISTRY, "mq",
                        Experiment("mq", "Q", (100,), fake_compute))
    out = tmp_path / "bad.csv"
    rc = main(["montecarlo", "--experiment", "mq", "--samples", "2",
               "--seed", "1", "--out", str(out)])
    assert rc == 3
    assert "methods_agree failed on 2 rows" in capsys.readouterr().err
    assert ",methods_agree,0" in out.read_text("utf-8")  # CSV written first


def test_violations_are_counted_across_forked_workers(tmp_path, capsys, monkeypatch):
    # the caller reads the workers' counts of failed rows; at --threads 2 the child
    # takes samples 0 and 1 before the caller claims a chunk, so each counts some
    parent = os.getpid()
    w = caller_waits_for_the_child(monkeypatch)

    def odd_samples_disagree(stream, grid, p):
        i = sample_index(stream)
        if i == 1 and os.getpid() != parent:
            os.write(w, b"!")
        return [(Q, stat, v) for Q in grid
                for stat, v in (("mq_closed", 1.0), ("methods_agree", 1 - i % 2))]

    monkeypatch.setitem(REGISTRY, "mq", Experiment("mq", "Q", (100,), odd_samples_disagree))
    outputs = set()
    for threads in ("1", "2"):
        out = tmp_path / f"bad{threads}.csv"
        assert main(["montecarlo", "--experiment", "mq", "--samples", "9", "--seed", "1",
                     "--Q", "100,200", "--threads", threads, "--out", str(out)]) == 3
        outputs.add((out.read_bytes(), capsys.readouterr()))
    (text, (_, err)), = outputs
    first = ", ".join(f"(100, {i}) dyadic:seed={sample_stream(1, i).seed:#x}" for i in (1, 3, 5))
    assert err == ("invariant violation: methods_agree failed on 8 rows; "  # samples 1, 3, 5, 7
                   f"first (Q, index): {first}\n")
    assert text.count(b",methods_agree,0\n") == 8


def test_a_methods_agree_failure_names_samples_that_mq_replays(tmp_path, capsys, monkeypatch):
    def sample_2_disagrees(stream, grid, p):
        return [(Q, stat, v) for Q in grid for stat, v in
                (("mq_closed", 1.0), ("methods_agree", int(sample_index(stream, 4, 9) != 2)))]

    monkeypatch.setitem(REGISTRY, "mq", Experiment("mq", "Q", (100,), sample_2_disagrees))
    assert main(["montecarlo", "--experiment", "mq", "--samples", "4", "--seed", "9",
                 "--Q", "30,60", "--out", str(tmp_path / "bad.csv")]) == 3
    err = capsys.readouterr().err
    spec = f"dyadic:seed={sample_stream(9, 2).seed:#x}"
    assert err.endswith(f"on 2 rows; first (Q, index): (30, 2) {spec}, (60, 2) {spec}\n")
    monkeypatch.undo()
    assert cflab.cf.parse_stream(spec).seed == sample_stream(9, 2).seed
    assert main(["mq", "--x", spec, "--Q", "60"]) == 0  # the real routes agree on it
    assert capsys.readouterr().out.endswith("agree 1\n")


def _stuck_levels(x):
    """Level 1 of [0; 1] read twice, so the walk's height 1 comes again."""
    yield 0, 0, 0, 1, 1, 0
    yield 1, 1, 1, 1, 0, 1
    yield 1, 1, 1, 1, 0, 1


MQ_RUN = ["montecarlo", "--experiment", "mq", "--samples", "2", "--seed", "7", "--Q", "10000"]


def test_a_height_that_does_not_rise_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cflab.cf, "_levels", _stuck_levels)
    with pytest.raises(InvariantViolation, match="height 1 at level 1 does not exceed 1"):
        intermediates(DyadicStream(7), 10 ** 4)
    assert main([*MQ_RUN, "--out", str(tmp_path / "mq.csv")]) == 3
    assert capsys.readouterr().err.startswith("invariant violation: height 1")


STUCK_RUN = inspect.getsource(_stuck_levels) + """
import sys
sys.path.insert(0, sys.argv[1] + "/src")
import cflab.cf
from cflab.cli import main
cflab.cf._levels = _stuck_levels
raised = []
try:
    cflab.cf.intermediates(cflab.cf.DyadicStream(7), 10 ** 4)
except cflab.cf.InvariantViolation:
    raised.append("intermediates")
print(sys.flags.optimize, *raised, main(sys.argv[2:]))
"""


def test_a_height_that_does_not_rise_exits_3_under_python_O(tmp_path):
    # python -O strips assert statements but not the walk's InvariantViolation
    done = subprocess.run([sys.executable, "-O", "-c", STUCK_RUN, str(ROOT), *MQ_RUN,
                           "--out", str(tmp_path / "mq.csv")],
                          capture_output=True, text=True, timeout=120)
    assert done.stdout == "1 intermediates 3\n"
    assert done.stderr.startswith("invariant violation: height 1")


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


FRESH_MAIN = """
import sys
sys.path.insert(0, sys.argv[1] + "/src")
from cflab.cli import main
sys.exit(main(sys.argv[2:]))
"""


def exit_code(argv):
    """main(argv)'s return value, or the code of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_one_parser_serves_each_call_as_a_fresh_interpreter_would(tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage at this width
    levy = ["montecarlo", "--experiment", "levy", "--samples", "2", "--seed", "3",
            "--n", "300,20", "--out", str(tmp_path / "levy.csv")]
    calls = [levy, ["mq", "--x", "rational:1/3"], ["--help"],
             ["mq", "--x", "dyadic:seed=42", "--Q", "100", "--method", "all"], levy]
    parser, codes = cli.build_parser(), []
    for argv in calls:
        got = (exit_code(argv), *capsys.readouterr())
        fresh = subprocess.run([sys.executable, "-c", FRESH_MAIN, str(ROOT), *argv],
                               capture_output=True, text=True, timeout=120,
                               env={**os.environ, "COLUMNS": "80"})
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(got[0])
    assert codes == [0, 2, 0, 0, 0]  # an argparse error, then --help, in between
    assert cli.build_parser() is parser


def test_gamma_is_no_option_but_a_weight_spec(capsys):
    with pytest.raises(SystemExit) as exc:  # power:G is its one spelling
        main(["montecarlo", "--experiment", "mq", "--samples", "1", "--seed", "1",
              "--gamma", "0.5", "--out", "x.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gamma 0.5" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parents[1]


def test_readme_experiment_table_matches_the_registry():
    """One row per experiment: its name, grid flag and settings (params keys)."""
    readme = (ROOT / "README.md").read_text("utf-8")
    table = readme.split("## Experiments", 1)[1].split("\n\n")[2].splitlines()[2:]
    rows = {}
    for line in table:
        name, grid, settings = (c.strip() for c in line.split("|")[1:4])
        rows[name.strip("`")] = (grid, [s.strip(" `") for s in settings.split(",") if s])
    assert rows == {name: (f"`--{exp.param}`", [k for k, _ in exp.defaults])
                    for name, exp in REGISTRY.items()}


TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
from tracer import Tracer
from cflab import cli
tracer = Tracer()
tracer.install_experiment(sys.argv[2])
rc = cli.main(sys.argv[4:])
with open(sys.argv[3], "w") as fh:
    json.dump({"rc": rc, "spans": sorted({s[0] for s in tracer.spans}),
               "rows": tracer.metrics([])["harness.rows"][0]}, fh)
"""


MQ_SPANS = {"cf.cutoff", "cf.intermediates", "cf.quotient", "harness.mq_count_farey",
            "harness.mq_count_intermediates", "harness.mq_value", "stats.terminal_quotient"}


@pytest.mark.parametrize("experiment, flag, grid, spans, rows_per_unit", [
    ("mq", "--Q", "100", MQ_SPANS, 4),
    ("levy", "--n", "100", {"cf.quotient", "stats.classical_stats"}, 3),
    # one walk per sample over a nested grid still calls every patched name
    ("mq", "--Q", "100,500", MQ_SPANS | {"harness.mq_count_closed"}, 8),
    ("levy", "--n", "250,1000", {"cf.quotient", "stats.classical_stats"}, 6)],
    ids=["mq", "levy", "mq-nested", "levy-nested"])
def test_benchmark_tracer_finds_every_name_it_patches(experiment, flag, grid, spans,
                                                      rows_per_unit, tmp_path):
    # perfbench/tracer.py patches cflab names by getattr, so a renamed one
    # would only show as a missing span; a fresh process keeps the patches out.
    # It patches run, aggregate and write_csv where cflab.cli imports them, and
    # reads harness.rows as the len() of what run returns
    report = tmp_path / "spans.json"
    subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT), experiment, str(report),
                    "montecarlo", "--experiment", experiment, "--samples", "3", "--seed", "7",
                    flag, grid, "--out", str(tmp_path / "out.csv")],
                   check=True, capture_output=True, timeout=120)
    got = json.loads(report.read_text())
    assert got["rc"] == 0
    assert spans | {"cli.main", "harness.run", "harness.compute", "harness.aggregate",
                    "harness.write_csv"} <= set(got["spans"])
    assert got["rows"] == 3 * rows_per_unit


TRACED_COUNTS = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
from tracer import Tracer
from cflab import cli
tracer = Tracer()
tracer.install_experiment("mq")
rc = cli.main(["montecarlo", "--experiment", "mq", "--samples", "3", "--seed", "7",
               "--Q", "10000", "--out", sys.argv[3]])
got = tracer.metrics([])
with open(sys.argv[2], "w") as fh:
    json.dump({"rc": rc, "intermediates": got["cf.intermediates_count"][0],
               "terminal_quotients": got["stats.terminal_quotient_calls"][0]}, fh)
"""


def test_benchmark_tracer_counts_the_intermediates_route(tmp_path):
    # the tracer counts the len() of what harness.intermediates returns, and
    # the route classes each fraction with one terminal_quotient call; a name
    # drifted off the route's walk would count 0
    want = sum(len(intermediates(sample_stream(7, i), 10 ** 4)) for i in range(3))
    report = tmp_path / "counts.json"
    subprocess.run([sys.executable, "-c", TRACED_COUNTS, str(ROOT), str(report),
                    str(tmp_path / "out.csv")], check=True, capture_output=True, timeout=120)
    assert json.loads(report.read_text()) == {
        "rc": 0, "intermediates": want, "terminal_quotients": want}


TRACED_CHI_MASK = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
from tracer import Tracer
from cflab import harness
from cflab.cf import DyadicStream
tracer = Tracer()
tracer.install_experiment("mq")
harness.chi_mask(harness.farey_table(30), DyadicStream(7), margin=0.1)
with open(sys.argv[2], "w") as fh:
    json.dump({"guard": tracer.metrics([])["farey.guard_band_checks"][0],
               "compares": [tracer.spans[s[3]][0] if s[3] >= 0 else None
                            for s in tracer.spans if s[0] == "cf.compare_fraction"]}, fh)
"""


def test_benchmark_tracer_counts_guard_band_checks(tmp_path):
    # chi_mask settles its guard band with DyadicStream.compare_fraction, which
    # the stream inherits; the tracer patches it by name on DyadicStream
    report = tmp_path / "guard.json"
    subprocess.run([sys.executable, "-c", TRACED_CHI_MASK, str(ROOT), str(report)],
                   check=True, capture_output=True, timeout=120)
    got = json.loads(report.read_text())
    assert len(got["compares"]) >= 2  # a 0.1 band holds many endpoints of F_30
    assert set(got["compares"]) == {"farey.chi_mask"}
    assert got["guard"] == len(got["compares"])


def _perfbench_workloads():
    """perfbench/workloads.py, which imports nothing from cflab, loaded by path
    and registered first, since its dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.EXPERIMENTS))
def test_benchmark_goldens_hold_at_the_frozen_seed(name, tmp_path):
    # the benchmark checks each unit's CSV lines against these digests; four
    # units per workload show a changed byte here, not only in a benchmark run
    w = WORKLOADS.EXPERIMENTS[name]
    out = tmp_path / "out.csv"
    assert main(w.argv(w.frozen_seed, 4, 1, str(out))) == 0
    units, errors = WORKLOADS.split_units(w, out.read_bytes(), 4)
    golden = WORKLOADS.load_goldens(name)["units"][str(w.frozen_seed)]
    assert errors == []
    assert [WORKLOADS.unit_ok(w, units[i], golden[i]) for i in range(4)] == [True] * 4


TRACED_REFERENCE = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import worker
from tracer import Tracer
from cflab import farey, stats
calls = worker.ReferenceCalls(farey, stats)
tracer = Tracer()
for name, fn in calls.fn.items():  # as the traced replay wraps them
    calls.fn[name] = tracer.span(name, fn)
for key in sys.argv[3:]:
    calls.compute(key)
with open(sys.argv[2], "w") as fh:
    json.dump(sorted({s[0] for s in tracer.spans}), fh)
"""


def test_benchmark_reference_calls_find_every_name(tmp_path):
    # the reference workload looks its cflab calls up by name, farey.row_sum_exact among them
    report = tmp_path / "spans.json"
    subprocess.run([sys.executable, "-c", TRACED_REFERENCE, str(ROOT), str(report),
                    "row_sum:10", "cumulative_expected_count:20",
                    "weight_log_series:harmonic", "mq_level_expectation:harmonic"],
                   check=True, capture_output=True, timeout=120)
    assert json.loads(report.read_text()) == [
        "farey.cumulative_expected_count", "farey.row_sum_exact", "farey.row_sum_formula",
        "stats.mq_level_expectation", "stats.weight_log_series"]


SERIAL_RUN = """
import sys
sys.path.insert(0, sys.argv[1] + "/src")
import cflab
from cflab import cli
rc = cli.main(sys.argv[2:])
print(rc, sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
"""


def test_serial_montecarlo_never_loads_the_process_pool(tmp_path):
    # no run imports a pool module (worker runs fork bare children); the
    # serial workloads' peak RSS counts every module a run loads
    done = subprocess.run([sys.executable, "-c", SERIAL_RUN, str(ROOT),
                           "montecarlo", "--experiment", "mq", "--samples", "3",
                           "--seed", "7", "--Q", "100", "--out", str(tmp_path / "out.csv")],
                          check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 []"


FORKED_RUN = """
import os
import sys
sys.path.insert(0, sys.argv[1] + "/src")
from cflab import cli
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any machine
rc = cli.main(sys.argv[2:])
print(rc, len(forks), sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
"""


def test_forked_montecarlo_never_loads_the_process_pool(tmp_path):
    # the workers are bare forked children, so no pool module joins the peak RSS
    done = subprocess.run([sys.executable, "-c", FORKED_RUN, str(ROOT),
                           "montecarlo", "--experiment", "mq", "--samples", "3",
                           "--seed", "7", "--Q", "100", "--threads", "2",
                           "--out", str(tmp_path / "out.csv")],
                          check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 1 []"


BOUNDED_RUN = """
import resource
import sys
sys.path.insert(0, sys.argv[1] + "/src")
resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)  # as ulimit -v 1500000
from cflab import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def test_xnf_past_the_harmonic_prefix_bound_exits_2_in_bounded_memory(tmp_path):
    # a_1961 = 67239 of seed 1, sample 0 is under f(10000) = 92103; its exact harmonic
    # prefix ran out of this address space with a MemoryError traceback and exit 1
    done = subprocess.run([sys.executable, "-c", BOUNDED_RUN, str(ROOT), "montecarlo",
                           "--experiment", "xnf", "--samples", "1", "--seed", "1",
                           "--n", "10000", "--out", str(tmp_path / "xnf.csv")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == "error: the harmonic prefix sum to 67239 is past its bound of 65536\n"


def test_xnf_unit_weights_past_a_huge_truncation_run_in_bounded_memory(tmp_path):
    # sample 1296 of seed 1 has a_1023 = 92987749 and f(1100) = 49031785; unit
    # prefix sums grew a cache of that length and ran out of this address space
    done = subprocess.run([sys.executable, "-c", BOUNDED_RUN, str(ROOT), "montecarlo",
                           "--experiment", "xnf", "--weight", "unit", "--delta", "5",
                           "--n", "1100", "--samples", "1297", "--seed", "1",
                           "--out", str(tmp_path / "xnf.csv")],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert len((tmp_path / "xnf.csv").read_text().splitlines()) == 1 + 1297


NO_NUMPY_RUN = """
import sys
sys.path.insert(0, sys.argv[1] + "/src")
from cflab import cli, farey
rc = cli.main(["farey-row", "--q", "2000"])
farey.cumulative_expected_count(2000)
print(rc, "numpy" in sys.modules)
"""


def test_row_sums_and_the_cumulative_count_load_no_numpy():
    # mu, phi and the primes of q all come from one pure-Python least-factor sieve
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_RUN, str(ROOT)],
                          check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 False"


IMPORT_ONE_RUN = """
import importlib
import sys
sys.path.insert(0, sys.argv[1] + "/src")
importlib.import_module(sys.argv[2])
print(*sorted(m for m in sys.modules if m.split(".")[0] in ("cflab", "numpy")))
"""


@pytest.mark.parametrize("module, loaded", [("cflab", "cflab"), ("cflab.cf", "cflab cflab.cf")])
def test_importing_a_module_loads_no_other_cflab_module_and_no_numpy(module, loaded):
    done = subprocess.run([sys.executable, "-c", IMPORT_ONE_RUN, str(ROOT), module],
                          check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == loaded


LAZY_IMPORTS_RUN = """
import os
import sys
sys.path.insert(0, sys.argv[1] + "/src")
import cflab
from cflab import cli, harness
def loaded():
    return " ".join(m for m in ("mpmath", "numpy") if m in sys.modules) or "-"
forks, fork, chunk = [], os.fork, harness._run_chunk
os.fork = lambda: forks.append(loaded()) or fork()
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any machine
def logged_chunk(*args):  # a forked child's modules die with it, so it writes them down
    rows = chunk(*args)
    with open(sys.argv[2], "a") as fh:
        fh.write(loaded() + "\\n")
    return rows
harness._run_chunk = logged_chunk
rc = cli.main(sys.argv[3:])
with open(sys.argv[2]) as fh:
    print(rc, forks, sorted(set(fh.read().split())), loaded())
"""


# (exit code, modules at each fork, modules after any chunk, modules at the end)
@pytest.mark.parametrize("argv, expected", [
    (["levy", "--n", "100", "--threads", "1"], "0 [] ['-'] -"),
    (["mq", "--Q", "10000", "--threads", "2"], "0 ['-'] ['-'] -"),  # no Farey route
    (["mq", "--Q", "100", "--threads", "2"], "0 ['-'] ['-'] -"),  # Farey route in pure Python
    (["mq", "--Q", "10000", "--weight", "power:0.25", "--threads", "2"],
     "0 ['numpy'] ['numpy'] numpy"),
], ids=["levy", "mq-harmonic", "mq-farey", "mq-power"])
def test_montecarlo_loads_numpy_only_for_arrays_and_before_forking(tmp_path, argv, expected):
    # numpy loads on first use and mpmath never; only power weights need numpy,
    # which the parent imports before forking, not each child
    done = subprocess.run([sys.executable, "-c", LAZY_IMPORTS_RUN, str(ROOT),
                           str(tmp_path / "chunks.txt"), "montecarlo", "--experiment", *argv,
                           "--samples", "4", "--seed", "7", "--out", str(tmp_path / "out.csv")],
                          check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == expected
