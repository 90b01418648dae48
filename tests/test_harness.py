"""Monte Carlo driver tests: seeding, row contracts, aggregation, serialization."""

import itertools
import json
import math
import os
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cflab.cf
from cflab.cf import ContinuedFraction, DyadicStream, cf_of_rational, intermediates
from cflab import farey, harness
from cflab.farey import HeightSet, chi, parse_height_set
from cflab.harness import (CSV_HEADER, REGISTRY, ExperimentConfig, RunRows, aggregate,
                           find_violations, format_value, mq_count_closed,
                           mq_count_farey, mq_count_intermediates, mq_value,
                           pairdep_tables, resolve_params, run,
                           sample_stream, write_csv, write_json)
from cflab.stats import WeightFunction, terminal_quotient
from oracles import (FareyFraction, Row, csv_rows, enumerate_farey, gauss_kuzmin_prob,
                     rows_to_csv, run_rows, value_of_cf)


# -- sample_stream -------------------------------------------------------------


def test_sample_stream_deterministic():
    a = sample_stream(42, 7)
    b = sample_stream(42, 7)
    assert [a.quotient(i) for i in range(1, 65)] == \
        [b.quotient(i) for i in range(1, 65)]


def test_sample_stream_distinct_indices():
    prefixes = {tuple(sample_stream(42, i).quotient(n) for n in range(1, 17))
                for i in range(6)}
    assert len(prefixes) == 6


def test_sample_stream_validation():
    with pytest.raises(ValueError):
        sample_stream(1, -1)


def test_sample_stream_refinement_keeps_prefix():
    s = sample_stream(7, 3)
    first = s.quotient(1)
    s.quotient(200)
    assert s.quotient(1) == first


def test_sample_stream_quotient_law():
    # frequency of a_20 = k over independent samples; at depth 20 the
    # distribution of a single quotient is the limit law to ~1e-10, so the
    # binomial 3-sigma band is the right yardstick
    n = 10_000
    counts = {1: 0, 2: 0, 3: 0}
    for i in range(n):
        a = sample_stream(31337, i).quotient(20)
        if a in counts:
            counts[a] += 1
    for k in (1, 2, 3):
        p = gauss_kuzmin_prob(k)
        sd = math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) <= 3 * sd


# -- run: row contracts ---------------------------------------------------------


def test_run_levy_row_counts():
    rows = csv_rows(run(ExperimentConfig("levy", samples=10, seed=1, params={"grid": (50,)})))
    assert len(rows) == 30
    assert {r.param for r in rows} == {50}
    assert sum(1 for r in rows if r.stat == "levy_stat") == 10
    assert {r.index for r in rows} == set(range(10))


def test_run_levy_grid_rows_equal_one_n_runs():
    # one pass per sample over an unsorted grid labels each row with its own n
    grid = (250, 1, 40)
    rows = run_rows(ExperimentConfig("levy", samples=4, seed=3, params={"grid": grid}))
    assert rows == sorted((r for n in grid for r in run_rows(
        ExperimentConfig("levy", samples=4, seed=3, params={"grid": (n,)}))),
        key=lambda r: (r.param, r.index, r.stat))


def test_run_mq_all_methods_agree(monkeypatch):
    cfg = ExperimentConfig("mq", samples=5, seed=9,
                           params={"grid": (1000,),
                                   "weight": WeightFunction.harmonic()})
    rows = run(cfg)
    pairs = run(ExperimentConfig("pairdep", samples=5, seed=9))
    assert len(rows) == 5 * 4  # closed, intermediates, farey, methods_agree
    agree = [r for r in csv_rows(rows) if r.stat == "methods_agree"]
    assert len(agree) == 5 and all(r.value == 1 for r in agree)
    want = aggregate(rows), pairdep_tables(pairs)
    monkeypatch.setattr(harness, "_csv_pieces", None)  # the readers read floats, no text
    assert find_violations(rows) == []
    assert (aggregate(rows), pairdep_tables(pairs)) == want


def test_run_mq_builds_no_farey_table(monkeypatch):
    builds = []
    build = farey.farey_table
    for owner in (farey, harness):  # the name harness imports, and farey's own
        monkeypatch.setattr(owner, "farey_table", lambda Q: builds.append(Q) or build(Q))
    # samples 2 and 7 of seed 42 have a_1 > 2000, the heavy tail of a run
    parts = [rows_to_csv(run(ExperimentConfig("mq", samples=8, seed=42,
                                              params={"grid": (Q,)}))).split("\n", 1)[1]
             for Q in (100, 500, 2000)]
    for grid in [(100, 500, 2000), (2000, 100, 500)]:  # one walk per sample, at 2000
        cfg = ExperimentConfig("mq", samples=8, seed=42, params={"grid": grid})
        # the same bytes as one run per grid value
        assert rows_to_csv(run(cfg)) == CSV_HEADER + "\n" + "".join(parts)
        cfg.threads = 2  # and across worker processes, one chunk per sample
        assert rows_to_csv(run(cfg)) == CSV_HEADER + "\n" + "".join(parts)
    assert builds == []


def test_run_mq_large_q_drops_oracle_route():
    cfg = ExperimentConfig("mq", samples=2, seed=9, params={"grid": (4000,)})
    rows = csv_rows(run(cfg))
    stats = {r.stat for r in rows}
    assert stats == {"mq_closed", "mq_intermediates", "methods_agree"}
    assert all(r.value == 1 for r in rows if r.stat == "methods_agree")


@pytest.mark.parametrize("grid, with_farey", [
    ((harness.ORACLE_LIMIT,), True), ((100, harness.ORACLE_LIMIT + 1), False),
])
def test_run_mq_reads_the_oracle_gate_off_its_grid(grid, with_farey):
    # mq_farey is in every row of a run or in none, from max(grid) alone
    _, p = resolve_params(ExperimentConfig("mq", samples=1, seed=9, params={"grid": grid}))
    assert sorted(p) == ["exact", "weight"]
    rows = harness._run_mq(sample_stream(9, 0), grid, p)
    assert [Q for Q, stat, _ in rows if stat == "mq_farey"] == (list(grid) if with_farey else [])
    assert all(v == 1 for _, stat, v in rows if stat == "methods_agree")


def test_run_openproblem_empty_height_set():
    empty = HeightSet("set", frozenset())
    rows = csv_rows(run(ExperimentConfig("openproblem", samples=4, seed=2,
                                         params={"grid": (200,), "heights": empty})))
    assert len(rows) == 4
    assert all(r.stat == "hits" and r.value == 0 for r in rows)


def test_run_openproblem_large_file_height_set(tmp_path):
    # openproblem asks the set once per intermediate fraction, so a file's
    # heights are held for hashed lookup, not scanned
    Q, qs = 10 ** 6, range(7, 140_001, 7)  # 20,000 heights
    path = tmp_path / "heights.txt"
    path.write_text(" ".join(map(str, reversed(qs))) + "\n7 14\n")  # any order, repeats
    heights = parse_height_set(f"file:{path}")
    assert type(heights.payload) is frozenset and heights.payload == set(qs)
    rows = csv_rows(run(ExperimentConfig("openproblem", samples=20, seed=5,
                                         params={"grid": (Q,), "heights": heights})))
    assert [r.value for r in rows] == [
        sum(1 for *_, den in intermediates(sample_stream(5, i), Q) if den % 7 == 0 and den <= 140_000)
        for i in range(20)]


def test_run_variance_grid_rows():
    rows = csv_rows(run(ExperimentConfig("variance", samples=4, seed=3, params={"n": 20})))
    assert len(rows) == 12  # default grid m in {2, 5, 10}
    assert sorted({r.param for r in rows}) == [2, 5, 10]
    assert all(r.stat == "fsum" for r in rows)


def test_run_rows_sorted():
    rows = csv_rows(run(ExperimentConfig("nq", samples=5, seed=4,
                                         params={"grid": (100, 50)})))
    assert [(r.param, r.index, r.stat) for r in rows] == \
        sorted((r.param, r.index, r.stat) for r in rows)


def test_run_threads_do_not_change_output():
    texts = set()
    for t in (1, 2, 8):
        cfg = ExperimentConfig("gauss_kuzmin", samples=12, seed=5,
                               params={"n": 40}, threads=t)
        texts.add(rows_to_csv(run(cfg)))
    assert len(texts) == 1


def _one_chunk(rows, exact=False) -> RunRows:
    """The rows as a run of one chunk, reduced by the workers' own code."""
    return RunRows([harness._reduce(rows, exact)])


def test_run_rows_read_like_the_list_of_its_rows(monkeypatch):
    # run() returns the workers' parts; the CSV read off them is the rows of the
    # experiment computed one sample after another, sorted and formatted, and the
    # summaries and violations equal those of those rows as one chunk
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for experiment, threads in itertools.product(sorted(REGISTRY), (1, 2)):
        cfg = ExperimentConfig(experiment, samples=13, seed=3, threads=threads)
        rows, listed = run(cfg), run_rows(cfg)
        assert rows_to_csv(rows) == CSV_HEADER + "\n" + "".join(
            f"{e},{seed},{i},{param},{stat},{format_value(v, False)}\n"
            for e, seed, i, param, stat, v in listed)
        assert len(rows) == len(listed)
        assert aggregate(rows) == aggregate(_one_chunk(listed))
        assert find_violations(rows) == []


def test_a_chunk_part_keeps_its_text_and_floats_only():
    # a chunk's part holds its CSV text and one array('d') per (param, stat), about
    # 115 bytes a levy sample; with a list of float objects it held about 185, and
    # with the rows kept beside them about 420
    cfg = ExperimentConfig("levy", samples=2000, seed=1, params={"grid": (20,)})
    grid, p = resolve_params(cfg)
    harness._run_chunk(cfg, grid, p, range(20))  # whatever the first samples load or cache
    tracemalloc.start()
    try:
        part = harness._run_chunk(cfg, grid, p, range(2000))
        held = tracemalloc.get_traced_memory()[0]
        del part
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 150 * 2000


def test_run_caps_the_pool_at_the_sample_count(monkeypatch):
    forks, chunks = [], []
    fork, fork_chunks = os.fork, harness._fork_chunks

    def counted_fork():  # counted in the parent, before the child exists
        forks.append(1)
        return fork()

    def recorded(work, parts, workers):
        chunks.extend(parts)
        return fork_chunks(work, parts, workers)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(harness, "_fork_chunks", recorded)
    cfg = ExperimentConfig("nq", samples=1, seed=4, params={"grid": (50,)})
    # (usable CPUs, threads, samples, expected workers: the caller and size - 1 children)
    for cpus, threads, samples, size in [(64, 5000, 40, 40), (64, 5000, 3, 3),
                                         (4, 5000, 40, 4), (4, 3, 40, 3),
                                         (1, 5000, 40, 1), (64, 5000, 1, 1),
                                         (64, 1, 40, 1)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        cfg.threads, cfg.samples = 1, samples
        serial = rows_to_csv(run(cfg))
        forks.clear()
        chunks.clear()
        cfg.threads = threads
        assert rows_to_csv(run(cfg)) == serial
        assert len(forks) == size - 1
        # contiguous chunks, in order, a few per worker
        assert [i for c in chunks for i in c] == list(range(samples))
        assert len(chunks) == min(samples, 8 * size)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("samples", [1, 3, 8, 20])
def test_a_serial_run_forks_nothing_and_runs_every_chunk_in_the_caller(samples, monkeypatch):
    parent, forks, chunks, callers = os.getpid(), [], [], []
    fork_chunks, run_chunk = harness._fork_chunks, harness._run_chunk

    def recorded(work, parts, workers):
        chunks.extend(parts)
        return fork_chunks(work, parts, workers)

    def in_caller(config, grid, p, indices):
        callers.append(os.getpid())
        return run_chunk(config, grid, p, indices)

    monkeypatch.setattr(os, "fork", lambda: forks.append(1))  # never called
    monkeypatch.setattr(harness, "_fork_chunks", recorded)
    monkeypatch.setattr(harness, "_run_chunk", in_caller)
    rows = csv_rows(run(ExperimentConfig("nq", samples=samples, seed=4, params={"grid": (50,)})))
    assert [r.index for r in rows if r.stat == "N"] == list(range(samples))
    assert forks == []
    assert [i for c in chunks for i in c] == list(range(samples))
    assert len(chunks) == min(samples, 8)
    assert callers == [parent] * len(chunks)


def test_run_exact_mode_emits_rationals():
    cfg = ExperimentConfig("khinchin_avg", samples=2, seed=8,
                           params={"grid": (30,)}, exact=True)
    rows = run_rows(cfg)
    assert all(isinstance(r.value, Fraction) for r in rows)
    assert rows_to_csv(run(cfg)).count("/") == len(rows)  # one num/den per line
    assert csv_rows(run(cfg)) == rows


def test_run_validation():
    with pytest.raises(ValueError):
        run(ExperimentConfig("levy", samples=0, seed=1))
    with pytest.raises(ValueError):
        run(ExperimentConfig("levy", samples=1, seed=1, threads=0))
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            run(ExperimentConfig("nq", samples=1, seed=seed))
    for seed in (0, 2 ** 64 - 1):  # both ends of the range are seeds
        assert len(run(ExperimentConfig("nq", samples=1, seed=seed))) == 2


def test_resolve_params_errors():
    with pytest.raises(ValueError):
        resolve_params(ExperimentConfig("no_such_thing", samples=1, seed=1))
    with pytest.raises(ValueError):
        resolve_params(ExperimentConfig("nq", samples=1, seed=1,
                                        params={"grid": (0,)}))
    with pytest.raises(ValueError):
        resolve_params(ExperimentConfig("nq", samples=1, seed=1,
                                        params={"grid": (1.5,)}))
    with pytest.raises(ValueError):
        resolve_params(ExperimentConfig("nq", samples=1, seed=1,
                                        params={"grid": ()}))
    for grid in [(3.0,), (True,), (2, 3.0)]:  # would reach the CSV's param column as 3.0, True
        with pytest.raises(ValueError, match="^parameter grid must be positive integers$"):
            resolve_params(ExperimentConfig("gauss_kuzmin", samples=1, seed=1,
                                            params={"grid": grid}))
    for grid in [(100, 100), (5, 7, 6, 7)]:  # would write each of its rows twice
        with pytest.raises(ValueError, match=f"^parameter grid repeats {grid[-1]}$"):
            resolve_params(ExperimentConfig("nq", samples=1, seed=1, params={"grid": grid}))


@pytest.mark.parametrize("name, key, value", [
    ("gauss_kuzmin", "n", "50"), ("gauss_kuzmin", "n", 2.5), ("variance", "n", True),
    ("pairdep", "n", 1.0), ("double_exceed", "delta", "0.5"), ("xnf", "delta", True),
    ("xnf", "delta", None), ("mq", "weight", "harmonic"), ("openproblem", "heights", "all"),
])
def test_resolve_params_rejects_a_setting_of_the_wrong_type(name, key, value):
    with pytest.raises(ValueError, match=f"^{key} must be "):
        resolve_params(ExperimentConfig(name, samples=1, seed=1, params={key: value}))


def test_resolve_params_takes_any_finite_real_delta():
    for delta in (1, Fraction(1, 3), np.float64(0.25), 0.5):
        _, p = resolve_params(ExperimentConfig("xnf", samples=1, seed=1,
                                               params={"delta": delta}))
        assert p["delta"] == delta


@pytest.mark.parametrize("name, key", [
    ("levy", "n"), ("levy", "delta"), ("nq", "weight"), ("openproblem", "delta"),
    ("mq", "exact"), ("mq", "with_farey"),
])
def test_resolve_params_rejects_a_setting_the_experiment_does_not_take(name, key):
    value = {"n": 50, "delta": 0.5, "weight": WeightFunction.unit(),
             "exact": True, "with_farey": False}[key]
    with pytest.raises(ValueError, match=f"^{key} is not used by {name}$"):
        resolve_params(ExperimentConfig(name, samples=1, seed=1, params={key: value}))


@pytest.mark.parametrize("name", sorted(harness.REGISTRY))
def test_resolve_params_takes_the_grid_and_each_own_setting(name):
    exp = harness.REGISTRY[name]
    params = {"grid": (7,), **dict(exp.defaults)}
    grid, p = resolve_params(ExperimentConfig(name, samples=1, seed=1, params=params))
    assert grid == (7,)
    assert {k: p[k] for k, _ in exp.defaults} == dict(exp.defaults)


# -- mq count tables -------------------------------------------------------------


def test_mq_count_routes_agree():
    for i in range(5):
        s = sample_stream(11, i)
        closed = mq_count_closed(s, 200)
        assert closed == mq_count_intermediates(s, (200,))[200]
        assert closed == mq_count_farey(s, (200,))[200]


class Recording:
    """Passes quotient reads through to a stream and logs each index asked for."""

    def __init__(self, inner):
        self.inner, self.a0, self.asked = inner, inner.a0, []

    def quotient(self, n):
        self.asked.append(n)
        return self.inner.quotient(n)


@pytest.mark.parametrize("route", [mq_count_closed, lambda x, Q: harness._run_count(x, Q, {})],
                         ids=["mq_count_closed", "count_intermediates"])
def test_closed_routes_read_each_quotient_once(route):
    for i in range(20):
        x = sample_stream(7, i)
        for Q in (1, 100, 10 ** 4):
            rec = Recording(x)
            assert route(rec, Q) == route(x, Q)
            assert rec.asked == list(range(1, harness.cutoff(x, Q).N + 1))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), Q=st.integers(1, 600))
def test_mq_count_routes_agree_dyadic_property(seed, Q):
    x = DyadicStream(seed)
    closed = mq_count_closed(x, Q)
    assert mq_count_intermediates(x, (Q,))[Q] == closed
    assert mq_count_farey(x, (Q,))[Q] == closed


def _table_scan(x, Q):
    """The slow oracle for dyadic x: chi_mask over all of F_Q."""
    table = farey.farey_table(Q)
    counts = np.bincount(table.terminal[farey.chi_mask(table, x)])
    return {int(m): int(counts[m]) for m in np.flatnonzero(counts)}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), Q=st.integers(1, 600))
def test_mq_count_farey_matches_table_scan(seed, Q):
    x = DyadicStream(seed)
    assert mq_count_farey(x, (Q,))[Q] == _table_scan(x, Q)


def _scalar_farey_halves(x, Q):
    """2 chi(beta, x) summed per terminal quotient over every class of F_Q."""
    halves = {}
    for beta in enumerate_farey(Q):
        h = int(2 * chi(beta, x))
        if h:
            m = terminal_quotient(beta.num, beta.den)
            halves[m] = halves.get(m, 0) + h
    return halves


quotients = st.lists(st.integers(1, 20), max_size=3)


@settings(max_examples=40, deadline=None)
@given(a0=st.integers(-3, 5), pre=quotients, per=quotients.filter(bool),
       q=st.integers(1, 60), p=st.integers(-300, 300), Q=st.integers(1, 80),
       periodic=st.booleans())
# x just below 1/2 = [0; 2, 30, 30, ...], where 2/5 holds x at |5x - 2| = 0.459,
# and x = 1/2 on the endpoint of each k/(2k + 1), at |qx - a| = 1/2
@example(a0=0, pre=[2], per=[30], q=1, p=0, Q=80, periodic=True)
@example(a0=0, pre=[], per=[1], q=2, p=1, Q=80, periodic=False)
def test_mq_count_farey_matches_scalar_chi(a0, pre, per, q, p, Q, periodic):
    x = ContinuedFraction(a0, pre, per) if periodic else cf_of_rational((p, q))
    walk = {m: 2 * c for m, c in mq_count_farey(x, (Q,))[Q].items()}
    assert walk == _scalar_farey_halves(x, Q)


def test_mq_count_farey_float_floor_guard(monkeypatch):
    # x = 1 - 2^-56 + ..., so float(x) == 1.0 and q x is within 1e-12 of the
    # integer q: the float pair floor(q x), floor(q x) + 1 is q, q + 1, and
    # only the widened candidates reach the class (q - 1)/q that holds x
    blocks = itertools.chain([0xFFFFFFFFFFFFFF00], itertools.repeat(0x0123456789ABCDEF))
    monkeypatch.setattr(cflab.cf, "mix64", lambda z: next(blocks))
    x = DyadicStream(0)
    x._grow(1)
    assert float(x.interval()[0]) == 1.0
    counts = mq_count_farey(x, (300,))[300]
    assert counts == {1: 1, 2: 2, **dict.fromkeys(range(3, 300), 1)}
    assert counts == mq_count_closed(x, 300) == _table_scan(x, 300)


@pytest.fixture(scope="module")
def f2000():
    return farey.farey_table(2000)


def _f2000_halves(table, x, Q):
    """2 chi summed per terminal quotient over F_Q, Q <= 2000, off the F_2000 table,
    whose prefix of heights <= Q is F_Q: chi_mask for a dyadic x, and for a rational
    x exact integer signs of x - lower and x - upper for each class's neighbors."""
    n = np.searchsorted(table.den, Q, side="right")
    if isinstance(x, DyadicStream):
        halves = 2 * farey.chi_mask(table, x)[:n]
    else:
        r, s = (value_of_cf(x) % 1).as_integer_ratio()
        halves = (np.sign(r * table.lo_den[:n] - s * table.lo_num[:n])
                  - np.sign(r * table.hi_den[:n] - s * table.hi_num[:n]))
        halves[0] = 2  # the zero class, chi identically 1
    counts = np.bincount(table.terminal[:n], weights=halves)
    return {int(m): int(counts[m]) for m in np.flatnonzero(counts)}


def _doubled(counts):
    return {m: int(2 * c) for m, c in counts.items()}


@pytest.mark.parametrize("offset", [-1e-12, -4e-13, 4e-13, 1e-12])
def test_mq_count_farey_x_next_to_a_class_of_height_near_2000(f2000, offset, monkeypatch):
    # x = 1234/1999 + offset, so q x is within 2 CHI_MARGIN of the integer 1234 at
    # q = 1999 (within CHI_MARGIN at 4e-13): the class holding x is the one floor
    # or ceil of q x -+ CHI_MARGIN passes over
    first = math.floor((Fraction(1234, 1999) + Fraction(offset)) * 2 ** 64)
    blocks = itertools.chain([first], itertools.repeat(0x0123456789ABCDEF))
    monkeypatch.setattr(cflab.cf, "mix64", lambda z: next(blocks))
    x = DyadicStream(0)
    assert 0 < abs(1999 * float(x.interval()[0]) - 1234) <= 2 * farey.CHI_MARGIN
    counts = mq_count_farey(x, (1998, 2000))
    for Q in (1998, 2000):
        assert _doubled(counts[Q]) == _f2000_halves(f2000, x, Q)
        assert counts[Q] == mq_count_closed(x, Q)
    assert counts[2000] != counts[1998]  # 1234/1999 holds x


@pytest.mark.parametrize("route", [mq_count_closed, lambda x, Q: mq_count_farey(x, (Q,))])
def test_a_first_block_of_0_puts_a_1_past_the_cap_on_every_route(route, monkeypatch):
    blocks = itertools.chain([0], itertools.repeat(0x0123456789ABCDEF))
    monkeypatch.setattr(cflab.cf, "mix64", lambda z: next(blocks))
    with pytest.raises(cflab.cf.QuotientCapExceeded):
        route(DyadicStream(0), 2000)


def test_mq_count_farey_x_below_the_margin(f2000, monkeypatch):
    # the first block's top 32 bits 0: x = 2^-33 + ... < CHI_MARGIN, floor(q x -
    # CHI_MARGIN) is -1 for q <= 8, and every 1/q holds x, settled exactly
    blocks = itertools.chain([1 << 31], itertools.repeat(0x0123456789ABCDEF))
    monkeypatch.setattr(cflab.cf, "mix64", lambda z: next(blocks))
    x = DyadicStream(0)
    assert 0 < float(x.interval()[0]) < farey.CHI_MARGIN / 8
    counts = mq_count_farey(x, (2000,))[2000]
    assert counts == dict.fromkeys(range(1, 2001), 1) == mq_count_closed(x, 2000)
    assert _doubled(counts) == _f2000_halves(f2000, x, 2000)


@pytest.mark.parametrize("p, q", [(377, 987), (-16, 113), (1, 2), (3, 1), (-2, 1),
                                  (1, 1999), (1999, 2000)])
def test_mq_count_farey_rational_x_where_records_tie(f2000, p, q):
    # the descent meets x = p/q (or starts on it, for an integer) and goes on as two
    # chains of classes with x on a neighbor endpoint, each counting 1/2, up to 2000/q
    # long: longest for an integer and 1/2; 1/1999 and 1999/2000 end the longest paths
    x = cf_of_rational((p, q))
    grid = sorted({Q for Q in (q, 2 * q - 1, 2 * q, 2000) if Q <= 2000})
    for Q, counts in mq_count_farey(x, tuple(grid)).items():
        assert _doubled(counts) == _f2000_halves(f2000, x, Q)


@pytest.mark.parametrize("p", [0, 3, -2])
def test_mq_count_farey_integer_x_at_the_table_limit(p):
    # 1/k = [0; k] has 0/1 as its lower neighbor, so an integer x puts every 1/k on
    # an endpoint, and no other class of height >= 2 holds it
    Q = farey.FAREY_TABLE_LIMIT
    counts = mq_count_farey(cf_of_rational((p, 1)), (Q, 2))
    assert counts[Q] == {1: 1, **dict.fromkeys(range(2, Q + 1), Fraction(1, 2))}
    assert counts[2] == {1: 1, 2: Fraction(1, 2)}


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), grid=st.sets(st.integers(1, 2000), min_size=1, max_size=3))
def test_mq_count_farey_to_height_2000_matches_the_table(f2000, seed, grid):
    x = DyadicStream(seed)
    for Q, counts in mq_count_farey(x, tuple(grid)).items():
        assert _doubled(counts) == _f2000_halves(f2000, x, Q)
        assert counts == mq_count_closed(x, Q)


def test_mq_count_farey_smallest_orders():
    x = sample_stream(3, 0)
    assert mq_count_farey(x, (1,))[1] == {1: 1}
    assert mq_count_farey(x, (2,))[2] == {1: 1, 2: 1}  # 1/2 holds all of (0, 1)
    counts = mq_count_farey(cf_of_rational((-1, 2)), (2,))[2]
    assert counts == {1: 1, 2: 1} and all(type(c) is int for c in counts.values())
    assert mq_count_farey(cf_of_rational((3, 1)), (1,))[1] == {1: 1}
    assert mq_count_farey(cf_of_rational((3, 1)), (2,))[2] == {1: 1, 2: Fraction(1, 2)}
    for Q in (0, farey.FAREY_TABLE_LIMIT + 1):
        with pytest.raises(ValueError):
            mq_count_farey(x, (Q,))


@settings(max_examples=30, deadline=None)
@given(a0=st.integers(-3, 5), pre=quotients, per=quotients.filter(bool),
       Q=st.integers(1, 80))
def test_mq_count_routes_agree_periodic_property(a0, pre, per, Q):
    x = ContinuedFraction(a0, pre, per)
    closed = mq_count_closed(x, Q)
    assert mq_count_intermediates(x, (Q,))[Q] == closed
    assert mq_count_farey(x, (Q,))[Q] == closed


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 60), p=st.integers(-300, 300), Q=st.integers(1, 80))
def test_mq_count_rational_property(q, p, Q):
    # a rational x may sit on a neighbor-interval endpoint, where its class
    # counts 1/2 on the Farey route only
    x = cf_of_rational((p % q, q))
    assert mq_count_intermediates(x, (Q,))[Q] == mq_count_closed(x, Q)
    farey = mq_count_farey(x, (Q,))[Q]
    assert all((2 * c).denominator == 1 for c in farey.values())
    assert mq_count_farey(cf_of_rational((p, q)), (Q,))[Q] == farey


def _slow_intermediates(x, Q):
    """(level, index, fraction, height) of each intermediate fraction of x with
    height <= Q, from the convergent recurrence, each fraction reduced by a gcd."""
    out = []
    p1, q1, p2, q2 = x.a0, 1, 1, 0  # p_{n-1}, q_{n-1}, p_{n-2}, q_{n-2} at level n = 1
    for n in itertools.count(1):
        try:
            a = x.quotient(n)
        except cflab.cf.OutOfQuotients:
            return out
        for m in range(1, a + 1):
            den = m * q1 + q2
            if den > Q:
                return out
            beta = FareyFraction(*(Fraction(m * p1 + p2, den) % 1).as_integer_ratio())
            out.append((n, m, beta, den))
        p1, q1, p2, q2 = a * p1 + p2, a * q1 + q2, p1, q1


def _slow_terminal_quotient(f):
    """The last quotient of the canonical expansion; the zero class counts as [1]."""
    return cflab.cf.cf_of_rational((f.num, f.den)).preperiod[-1] if f.den > 1 else 1


STREAMS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(DyadicStream),
    st.builds(lambda p, q: cf_of_rational((p, q)), st.integers(-10 ** 6, 10 ** 6),
              st.integers(1, 3000)),
    st.builds(ContinuedFraction, st.integers(-3, 5), quotients, quotients.filter(bool)))


@settings(max_examples=150, deadline=None)
@given(x=STREAMS, Q=st.integers(1, 10 ** 4))
# rationals that end before the cutoff, an integer, and one cut inside its last level
@example(x=cf_of_rational((3, 7)), Q=100)
@example(x=cf_of_rational((-355, 113)), Q=10 ** 4)
@example(x=cf_of_rational((5, 1)), Q=10)
@example(x=cf_of_rational((3, 7)), Q=5)
def test_intermediates_route_matches_the_slow_oracle(x, Q):
    want = _slow_intermediates(x, Q)
    assert [(level, index, (num, den), den)
            for level, index, num, den in intermediates(x, Q)] == want
    assert mq_count_intermediates(x, (Q,))[Q] == Counter(_slow_terminal_quotient(f)
                                                         for _, _, f, _ in want)


@settings(max_examples=60, deadline=None)
@given(x=STREAMS, grid=st.lists(st.integers(1, 3000), min_size=1, max_size=4, unique=True))
# heights 2 and 3 always have a class holding an irrational x; 3/7 ends at level 2
@example(x=DyadicStream(5), grid=[2000, 2, 500])
@example(x=ContinuedFraction(0, [], [1]), grid=[3, 1, 2])
@example(x=cf_of_rational((3, 7)), grid=[100, 5, 7, 6])
@example(x=cf_of_rational((-355, 113)), grid=[3000, 113, 112])
def test_grid_routes_equal_one_height_calls(x, grid):
    """One walk at max(grid) gives, at each Q, the multiset of a walk at Q,
    and for an irrational x the closed route's."""
    for route in (mq_count_farey, mq_count_intermediates):
        got = route(x, grid)
        assert got == {Q: route(x, (Q,))[Q] for Q in grid}
        if not isinstance(x, ContinuedFraction) or x.period:  # only a rational sits on an endpoint
            assert got == {Q: mq_count_closed(x, Q) for Q in grid}


@settings(max_examples=60, deadline=None)
@given(x=STREAMS, grid=st.lists(st.integers(1, 3000), min_size=1, max_size=4, unique=True))
@example(x=cf_of_rational((3, 7)), grid=[100, 5, 7, 6])
@example(x=cf_of_rational((-355, 113)), grid=[3000, 113, 112])
@example(x=cf_of_rational((5, 1)), grid=[10, 1])
def test_grid_counts_and_hits_match_one_walk_per_height(x, grid):
    """The routes' grid multisets and the openproblem hits against the walk
    at each Q on its own, counted here."""
    assert mq_count_intermediates(x, grid) == {
        Q: Counter(terminal_quotient(num, den) for *_, num, den in intermediates(x, Q))
        for Q in grid}
    for Q in grid:
        recs = intermediates(x, Q)
        for spec in ("all", "primes", "mod:3,1"):
            heights = parse_height_set(spec)
            assert harness._run_openproblem(x, Q, {"heights": heights}) == [
                ("hits", sum(1 for *_, den in recs if den in heights))]


def test_mq_count_unit_value_is_enumeration_length():
    g = WeightFunction.unit()
    for i in range(3):
        s = sample_stream(13, i)
        counts = mq_count_closed(s, 150)
        assert mq_value(counts, g, exact=True) == len(list(intermediates(s, 150)))


def test_mq_value_exact_vs_float():
    s = sample_stream(17, 0)
    counts = mq_count_closed(s, 300)
    g = WeightFunction.harmonic()
    exact = mq_value(counts, g, exact=True)
    assert isinstance(exact, Fraction)
    assert mq_value(counts, g, exact=False) == pytest.approx(float(exact), rel=1e-12)
    with pytest.raises(ValueError):
        mq_value(counts, WeightFunction.power(0.5), exact=True)


MULTISETS = st.dictionaries(
    st.integers(1, 10**6),
    st.integers(1, 10**4) | st.integers(1, 2 * 10**4).map(lambda k: Fraction(k, 2)),
    max_size=40)


@settings(max_examples=60, deadline=None)
@given(MULTISETS)
def test_mq_value_float_is_fsum_of_rounded_weights(counts):
    table = WeightFunction("table", table=((1, Fraction(1, 7)), (2, Fraction(2)),
                                           (1000, Fraction(-5, 3))))
    for g in (WeightFunction.harmonic(), WeightFunction.unit(), table,
              WeightFunction.power(0.25)):
        want = math.fsum(c * float(g(m)) for m, c in sorted(counts.items()))
        assert mq_value(counts, g, exact=False) == want


@pytest.mark.parametrize("exact", [False, True])
def test_run_mq_values_a_disagreeing_route_on_its_own(exact, monkeypatch):
    count = harness.mq_count_intermediates

    def drop_the_zero_class(stream, grid):  # the one class with terminal quotient 1
        counts = count(stream, grid)
        del counts[300][1]
        return counts

    monkeypatch.setattr(harness, "mq_count_intermediates", drop_the_zero_class)
    p = {"weight": WeightFunction.harmonic(), "exact": exact}
    rows = {stat: v for _, stat, v in harness._run_mq(sample_stream(9, 0), (300,), p)}
    assert rows["methods_agree"] == 0
    assert rows["mq_farey"] == rows["mq_closed"]
    want = rows["mq_closed"] - 1  # g(1) = 1
    assert rows["mq_intermediates"] == (want if exact else pytest.approx(want, rel=1e-15))


def test_find_violations_flags_disagreement():
    ok = Row("mq", 1, 0, 100, "methods_agree", 1)
    bad = Row("mq", 1, 1, 100, "methods_agree", 0)
    other = Row("mq", 1, 1, 100, "mq_closed", 2)
    late = Row("mq", 1, 0, 300, "methods_agree", 0)
    for exact in (False, True):  # exact mode changes the text only, not the floats
        rows = _one_chunk([late, ok, bad, other], exact)
        assert find_violations(rows) == [(100, 1), (300, 0)]


# -- aggregation -----------------------------------------------------------------


def _rows(vals, stat="v", param=1):
    return [Row("x", 0, i, param, stat, v) for i, v in enumerate(vals)]


def test_aggregate_basic():
    (s,) = aggregate(_one_chunk(_rows([1, 2, 3])))
    assert s.mean == 2 and s.median == 2 and s.count == 3
    assert s.stddev == pytest.approx(1.0)
    (s,) = aggregate(_one_chunk(_rows([1, 3])))  # two values have a spread too
    assert s.stddev == pytest.approx(math.sqrt(2))


def test_aggregate_trimmed_mean_rule():
    # 20 values: drop ceil(0.05 * 20) = 1 from each end of the sorted list
    (s,) = aggregate(_one_chunk(_rows(list(range(20)))))
    assert s.trimmed_mean == pytest.approx(sum(range(1, 19)) / 18) == 9.5


def test_aggregate_single_value():
    (s,) = aggregate(_one_chunk(_rows([7])))
    assert s.stddev == 0.0 and s.trimmed_mean == 7 and s.count == 1


def test_aggregate_order_invariant():
    rows = _rows([5, 1, 4, 2, 3]) + _rows([9, 8], stat="w", param=2)
    assert aggregate(_one_chunk(rows)) == aggregate(_one_chunk(list(reversed(rows))))


def test_aggregate_empty():
    assert aggregate(_one_chunk([])) == []


def test_pairdep_tables_synthetic():
    pairs = [(1, 1), (1, 1), (2, 2), (1, 2)]
    rows = []
    for i, (a, b) in enumerate(pairs):
        rows.append(Row("pairdep", 0, i, 5, "a_first", a))
        rows.append(Row("pairdep", 0, i, 5, "a_second", b))
    t = pairdep_tables(_one_chunk(rows))
    assert pairdep_tables(_one_chunk(rows, exact=True)) == t  # the floats of 2 and 2/1
    assert t[(5, 1, 1)] == (0.5, 0.75 * 0.5)
    assert t[(5, 1, 2)] == (0.25, 0.75 * 0.5)
    assert t[(5, 2, 1)] == (0.0, 0.25 * 0.5)
    assert t[(5, 2, 2)] == (0.25, 0.25 * 0.5)
    # row sums of the joint recover the first marginal
    assert t[(5, 1, 1)][0] + t[(5, 1, 2)][0] == 0.75


@pytest.mark.parametrize("threads, exact", itertools.product((1, 2), (False, True)))
def test_pairdep_tables_marginals_match_direct_counts(threads, exact, monkeypatch):
    # at 2 workers the columns of a_first and a_second are read across chunks
    # of both processes, and each pair is still one sample's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rows = run(ExperimentConfig("pairdep", samples=50, seed=21,
                                params={"grid": (5,), "n": 1}, threads=threads, exact=exact))
    pairs = [(sample_stream(21, i).quotient(1),
              sample_stream(21, i).quotient(6)) for i in range(50)]
    t = pairdep_tables(rows)
    for r in (1, 2):
        for s in (1, 2):
            joint, prod = t[(5, r, s)]
            assert joint == sum(1 for a, b in pairs if (a, b) == (r, s)) / 50
            p1 = sum(1 for a, _ in pairs if a == r) / 50
            p2 = sum(1 for _, b in pairs if b == s) / 50
            assert prod == p1 * p2


# -- serialization ---------------------------------------------------------------


def test_format_value():
    assert format_value(Fraction(8, 3), exact=True) == "8/3"
    assert format_value(10, exact=True) == "10/1"
    assert format_value(10, exact=False) == "10"
    assert format_value(0.1, exact=False) == "0.1"
    assert format_value(Fraction(1, 3), exact=False) == "0.333333333333"
    with pytest.raises(ValueError):
        format_value(0.1, exact=True)
    # past the 4300 digits at which str(int) stops by default
    assert format_value(10 ** 5000, exact=True) == "1" + "0" * 5000 + "/1"
    assert format_value(Fraction(-7, 10 ** 5000), exact=True) == "-7/1" + "0" * 5000


def test_csv_golden_bytes():
    cfg = ExperimentConfig("gauss_kuzmin", samples=2, seed=5,
                           params={"grid": (1,), "n": 10})
    text = rows_to_csv(run(cfg))
    # recount from scratch: fresh streams, direct quotient queries
    lines = [CSV_HEADER]
    for i in range(2):
        s = sample_stream(5, i)
        hits = sum(1 for n in range(1, 11) if s.quotient(n) == 1)
        val = format(hits / 10, ".12g")
        lines.append(f"gauss_kuzmin,5,{i},1,freq,{val}")
    assert text == "\n".join(lines) + "\n"


def test_write_csv_and_json_mirror(tmp_path):
    rows = run(ExperimentConfig("nq", samples=3, seed=14, params={"grid": (50,)}))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_csv(rows, str(csv_path))
    write_json(rows, str(json_path))
    raw = csv_path.read_bytes()
    assert b"\r" not in raw
    body = raw.decode("utf-8").rstrip("\n").split("\n")
    assert body[0] == CSV_HEADER
    mirrored = json.loads(json_path.read_text("utf-8"))
    assert len(mirrored) == len(body) - 1
    for line, rec in zip(body[1:], mirrored):
        assert line.split(",")[5] == rec["value"]


def test_write_csv_and_json_rewrite_in_place(tmp_path):
    cfg = ExperimentConfig("nq", samples=6, seed=14, params={"grid": (50, 60)})
    long, short = run(cfg), _one_chunk(run_rows(cfg)[:3])
    for write in (write_csv, write_json):
        path, link, fresh = (tmp_path / f"{name}.{write.__name__}" for name in ("out", "link", "new"))
        link.symlink_to(path)
        write(long, str(path))
        write(short, str(link))  # overwrites the target, as open(path, "w") does
        write(short, str(fresh))
        assert link.is_symlink() and path.read_bytes() == fresh.read_bytes()
        with pytest.raises(IsADirectoryError):
            write(short, str(tmp_path))
        write(short, os.devnull)  # a device is written, not cut to length


NAMES = st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
ROWS = st.lists(st.builds(Row, NAMES, st.integers(0, 2 ** 64 - 1),
                          st.integers(0, 10 ** 6), st.integers(-10 ** 6, 10 ** 6), NAMES,
                          st.integers() | st.fractions() | st.floats()), max_size=8)


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, exact=st.booleans())
def test_json_mirror_matches_csv_field_for_field(rows, exact, tmp_path_factory):
    folder = tmp_path_factory.mktemp("mirror")
    csv_path, json_path = str(folder / "out.csv"), str(folder / "out.json")
    if exact and any(isinstance(r.value, float) for r in rows):
        with pytest.raises(ValueError, match="not exact"):  # formatted where the rows are reduced
            _one_chunk(rows, exact=True)
        return
    write_csv(_one_chunk(rows, exact), csv_path)
    write_json(_one_chunk(rows, exact), json_path)
    with open(csv_path, encoding="utf-8", newline="") as fh:
        header, *lines = fh.read().split("\n")[:-1]
    with open(json_path, encoding="utf-8") as fh:
        records = json.load(fh)
    assert header == CSV_HEADER and len(records) == len(lines) == len(rows)
    for line, record in zip(lines, records):
        assert list(record) == CSV_HEADER.split(",")
        assert [str(v) for v in record.values()] == line.split(",")


def test_exact_csv_values(tmp_path):
    cfg = ExperimentConfig("gauss_kuzmin", samples=2, seed=5,
                           params={"grid": (1,), "n": 10}, exact=True)
    text = rows_to_csv(run(cfg))  # formatted exactly by the workers, as cfg.exact asks
    for line in text.strip().split("\n")[1:]:
        val = line.split(",")[5]
        num, den = val.split("/")
        Fraction(int(num), int(den))
