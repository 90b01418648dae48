"""Monte Carlo driver tests: seeding, row contracts, aggregation, serialization."""

import itertools
import json
import math
import os
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cflab.cf
from cflab.cf import (DyadicStream, PeriodicStream, RationalStream,
                      intermediates, quotient)
from cflab import farey, harness
from cflab.farey import HeightSet, chi, enumerate_farey, parse_height_set
from cflab.harness import (CSV_HEADER, ExperimentConfig, ResultRow, aggregate,
                           find_violations, format_value, mq_count_closed,
                           mq_count_farey, mq_count_intermediates, mq_value,
                           pairdep_tables, resolve_params, rows_to_csv, run,
                           sample_stream, write_csv, write_json)
from cflab.rationals import reduce_mod1
from cflab.stats import WeightFunction, gauss_kuzmin_prob, terminal_quotient


# -- sample_stream -------------------------------------------------------------


def test_sample_stream_deterministic():
    a = sample_stream(42, 7)
    b = sample_stream(42, 7)
    assert [quotient(a, i) for i in range(1, 65)] == \
        [quotient(b, i) for i in range(1, 65)]


def test_sample_stream_distinct_indices():
    prefixes = {tuple(quotient(sample_stream(42, i), n) for n in range(1, 17))
                for i in range(6)}
    assert len(prefixes) == 6


def test_sample_stream_validation():
    with pytest.raises(ValueError):
        sample_stream(1, -1)


def test_sample_stream_refinement_keeps_prefix():
    s = sample_stream(7, 3)
    first = quotient(s, 1)
    quotient(s, 200)
    assert quotient(s, 1) == first


def test_sample_stream_quotient_law():
    # frequency of a_20 = k over independent samples; at depth 20 the
    # distribution of a single quotient is the limit law to ~1e-10, so the
    # binomial 3-sigma band is the right yardstick
    n = 10_000
    counts = {1: 0, 2: 0, 3: 0}
    for i in range(n):
        a = quotient(sample_stream(31337, i), 20)
        if a in counts:
            counts[a] += 1
    for k in (1, 2, 3):
        p = gauss_kuzmin_prob(k)
        sd = math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) <= 3 * sd


# -- run: row contracts ---------------------------------------------------------


def test_run_levy_row_counts():
    rows = run(ExperimentConfig("levy", samples=10, seed=1, params={"grid": (50,)}))
    assert len(rows) == 30
    assert {r.param for r in rows} == {50}
    assert sum(1 for r in rows if r.stat == "levy_stat") == 10
    assert {r.index for r in rows} == set(range(10))


def test_run_levy_grid_rows_equal_one_n_runs():
    # one pass per sample over an unsorted grid labels each row with its own n
    grid = (250, 1, 40)
    rows = run(ExperimentConfig("levy", samples=4, seed=3, params={"grid": grid}))
    assert rows == sorted((r for n in grid for r in run(
        ExperimentConfig("levy", samples=4, seed=3, params={"grid": (n,)}))),
        key=lambda r: (r.param, r.index, r.stat))


def test_run_mq_all_methods_agree():
    cfg = ExperimentConfig("mq", samples=5, seed=9,
                           params={"grid": (1000,),
                                   "weight": WeightFunction.harmonic()})
    rows = run(cfg)
    assert len(rows) == 5 * 4  # closed, intermediates, farey, methods_agree
    agree = [r for r in rows if r.stat == "methods_agree"]
    assert len(agree) == 5 and all(r.value == 1 for r in agree)
    assert find_violations(rows) == []


def test_run_mq_builds_no_farey_table(monkeypatch):
    builds = []
    build = farey._build_table
    monkeypatch.setattr(farey, "_build_table",
                        lambda Q: builds.append(Q) or build(Q))
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
    rows = run(cfg)
    stats = {r.stat for r in rows}
    assert stats == {"mq_closed", "mq_intermediates", "methods_agree"}
    assert all(r.value == 1 for r in rows if r.stat == "methods_agree")


def test_run_openproblem_empty_height_set():
    empty = HeightSet("none", "set", frozenset())
    rows = run(ExperimentConfig("openproblem", samples=4, seed=2,
                                params={"grid": (200,), "heights": empty}))
    assert len(rows) == 4
    assert all(r.stat == "hits" and r.value == 0 for r in rows)


def test_run_variance_grid_rows():
    rows = run(ExperimentConfig("variance", samples=4, seed=3, params={"n": 20}))
    assert len(rows) == 12  # default grid m in {2, 5, 10}
    assert sorted({r.param for r in rows}) == [2, 5, 10]
    assert all(r.stat == "fsum" for r in rows)


def test_run_rows_sorted():
    rows = run(ExperimentConfig("nq", samples=5, seed=4,
                                params={"grid": (100, 50)}))
    assert [(r.param, r.index, r.stat) for r in rows] == \
        sorted((r.param, r.index, r.stat) for r in rows)


def test_run_threads_do_not_change_output():
    texts = set()
    for t in (1, 2, 8):
        cfg = ExperimentConfig("gauss_kuzmin", samples=12, seed=5,
                               params={"n": 40}, threads=t)
        texts.add(rows_to_csv(run(cfg)))
    assert len(texts) == 1


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
    rows = run(ExperimentConfig("nq", samples=samples, seed=4, params={"grid": (50,)}))
    assert [r.index for r in rows if r.stat == "N"] == list(range(samples))
    assert forks == []
    assert [i for c in chunks for i in c] == list(range(samples))
    assert len(chunks) == min(samples, 8)
    assert callers == [parent] * len(chunks)


def test_run_exact_mode_emits_rationals():
    cfg = ExperimentConfig("khinchin_avg", samples=2, seed=8,
                           params={"grid": (30,)}, exact=True)
    rows = run(cfg)
    assert all(isinstance(r.value, Fraction) for r in rows)


def test_run_validation():
    with pytest.raises(ValueError):
        run(ExperimentConfig("levy", samples=0, seed=1))
    with pytest.raises(ValueError):
        run(ExperimentConfig("levy", samples=1, seed=1, threads=0))


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
    x = PeriodicStream(a0, pre, per) if periodic else RationalStream(p, q)
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


def test_mq_count_farey_smallest_orders():
    x = sample_stream(3, 0)
    assert mq_count_farey(x, (1,))[1] == {1: 1}
    assert mq_count_farey(x, (2,))[2] == {1: 1, 2: 1}  # 1/2 holds all of (0, 1)
    counts = mq_count_farey(RationalStream(-1, 2), (2,))[2]
    assert counts == {1: 1, 2: 1} and all(type(c) is int for c in counts.values())
    assert mq_count_farey(RationalStream(3, 1), (1,))[1] == {1: 1}
    assert mq_count_farey(RationalStream(3, 1), (2,))[2] == {1: 1, 2: Fraction(1, 2)}
    for Q in (0, farey.FAREY_TABLE_LIMIT + 1):
        with pytest.raises(ValueError):
            mq_count_farey(x, (Q,))


@settings(max_examples=30, deadline=None)
@given(a0=st.integers(-3, 5), pre=quotients, per=quotients.filter(bool),
       Q=st.integers(1, 80))
def test_mq_count_routes_agree_periodic_property(a0, pre, per, Q):
    x = PeriodicStream(a0, pre, per)
    closed = mq_count_closed(x, Q)
    assert mq_count_intermediates(x, (Q,))[Q] == closed
    assert mq_count_farey(x, (Q,))[Q] == closed


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 60), p=st.integers(-300, 300), Q=st.integers(1, 80))
def test_mq_count_rational_property(q, p, Q):
    # a rational x may sit on a neighbor-interval endpoint, where its class
    # counts 1/2 on the Farey route only
    x = RationalStream(p % q, q)
    assert mq_count_intermediates(x, (Q,))[Q] == mq_count_closed(x, Q)
    farey = mq_count_farey(x, (Q,))[Q]
    assert all((2 * c).denominator == 1 for c in farey.values())
    assert mq_count_farey(RationalStream(p, q), (Q,))[Q] == farey


def _slow_intermediates(x, Q):
    """(level, index, fraction, height) of each intermediate fraction of x with
    height <= Q, from the convergent recurrence, each fraction reduced by a gcd."""
    out = []
    p1, q1, p2, q2 = x.a0, 1, 1, 0  # p_{n-1}, q_{n-1}, p_{n-2}, q_{n-2} at level n = 1
    for n in itertools.count(1):
        try:
            a = quotient(x, n)
        except cflab.cf.OutOfQuotients:
            return out
        for m in range(1, a + 1):
            den = m * q1 + q2
            if den > Q:
                return out
            out.append((n, m, reduce_mod1(m * p1 + p2, den), den))
        p1, q1, p2, q2 = a * p1 + p2, a * q1 + q2, p1, q1


def _slow_terminal_quotient(f):
    """The last quotient of the canonical expansion; the zero class counts as [1]."""
    return cflab.cf.cf_of_rational((f.num, f.den)).quotients[-1] if f.den > 1 else 1


STREAMS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(DyadicStream),
    st.builds(RationalStream, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 3000)),
    st.builds(PeriodicStream, st.integers(-3, 5), quotients, quotients.filter(bool)))


@settings(max_examples=150, deadline=None)
@given(x=STREAMS, Q=st.integers(1, 10 ** 4))
# rationals that end before the cutoff, an integer, and one cut inside its last level
@example(x=RationalStream(3, 7), Q=100)
@example(x=RationalStream(-355, 113), Q=10 ** 4)
@example(x=RationalStream(5, 1), Q=10)
@example(x=RationalStream(3, 7), Q=5)
def test_intermediates_route_matches_the_slow_oracle(x, Q):
    want = _slow_intermediates(x, Q)
    assert [(r.level, r.index, r.fraction, r.height) for r in intermediates(x, Q)] == want
    assert mq_count_intermediates(x, (Q,))[Q] == Counter(_slow_terminal_quotient(f)
                                                         for _, _, f, _ in want)


@settings(max_examples=60, deadline=None)
@given(x=STREAMS, grid=st.lists(st.integers(1, 3000), min_size=1, max_size=4, unique=True))
# heights 2 and 3 always have a class holding an irrational x; 3/7 ends at level 2
@example(x=DyadicStream(5), grid=[2000, 2, 500])
@example(x=PeriodicStream(0, [], [1]), grid=[3, 1, 2])
@example(x=RationalStream(3, 7), grid=[100, 5, 7, 6])
@example(x=RationalStream(-355, 113), grid=[3000, 113, 112])
def test_grid_routes_equal_one_height_calls(x, grid):
    """One walk at max(grid) gives, at each Q, the multiset of a walk at Q,
    and for an irrational x the closed route's."""
    for route in (mq_count_farey, mq_count_intermediates):
        got = route(x, grid)
        assert got == {Q: route(x, (Q,))[Q] for Q in grid}
        if not isinstance(x, RationalStream):  # only a rational sits on an endpoint
            assert got == {Q: mq_count_closed(x, Q) for Q in grid}


@settings(max_examples=60, deadline=None)
@given(x=STREAMS, grid=st.lists(st.integers(1, 3000), min_size=1, max_size=4, unique=True))
@example(x=RationalStream(3, 7), grid=[100, 5, 7, 6])
@example(x=RationalStream(-355, 113), grid=[3000, 113, 112])
@example(x=RationalStream(5, 1), grid=[10, 1])
def test_tuple_walk_matches_the_record_path(x, grid):
    """The plain tuples the routes count against the Intermediate records:
    the same fractions, the same multisets and the same openproblem hits."""
    assert mq_count_intermediates(x, grid) == {
        Q: Counter(terminal_quotient(r.num, r.den) for r in intermediates(x, Q)) for Q in grid}
    for Q in grid:
        recs = intermediates(x, Q)
        assert cflab.cf.intermediate_tuples(x, Q) == [tuple(r) for r in recs]
        for spec in ("all", "primes", "mod:3,1"):
            heights = parse_height_set(spec)
            assert harness._run_openproblem(x, Q, {"heights": heights}) == [
                ("hits", sum(1 for r in recs if r.height in heights))]


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
    p = {"weight": WeightFunction.harmonic(), "exact": exact, "with_farey": True}
    rows = {stat: v for _, stat, v in harness._run_mq(sample_stream(9, 0), (300,), p)}
    assert rows["methods_agree"] == 0
    assert rows["mq_farey"] == rows["mq_closed"]
    want = rows["mq_closed"] - 1  # g(1) = 1
    assert rows["mq_intermediates"] == (want if exact else pytest.approx(want, rel=1e-15))


def test_find_violations_flags_disagreement():
    ok = ResultRow("mq", 1, 0, 100, "methods_agree", 1)
    bad = ResultRow("mq", 1, 1, 100, "methods_agree", 0)
    other = ResultRow("mq", 1, 1, 100, "mq_closed", 2.0)
    assert find_violations([ok, bad, other]) == [bad]


# -- aggregation -----------------------------------------------------------------


def _rows(vals, stat="v", param=1):
    return [ResultRow("x", 0, i, param, stat, v) for i, v in enumerate(vals)]


def test_aggregate_basic():
    (s,) = aggregate(_rows([1, 2, 3]))
    assert s.mean == 2 and s.median == 2 and s.count == 3
    assert s.stddev == pytest.approx(1.0)


def test_aggregate_trimmed_mean_rule():
    # 20 values: drop ceil(0.05 * 20) = 1 from each end of the sorted list
    (s,) = aggregate(_rows(list(range(20))))
    assert s.trimmed_mean == pytest.approx(sum(range(1, 19)) / 18) == 9.5


def test_aggregate_single_value():
    (s,) = aggregate(_rows([7]))
    assert s.stddev == 0.0 and s.trimmed_mean == 7 and s.count == 1


def test_aggregate_order_invariant():
    rows = _rows([5, 1, 4, 2, 3]) + _rows([9, 8], stat="w", param=2)
    assert aggregate(rows) == aggregate(list(reversed(rows)))


def test_aggregate_empty():
    assert aggregate([]) == []


def test_pairdep_tables_synthetic():
    pairs = [(1, 1), (1, 1), (2, 2), (1, 2)]
    rows = []
    for i, (a, b) in enumerate(pairs):
        rows.append(ResultRow("pairdep", 0, i, 5, "a_first", a))
        rows.append(ResultRow("pairdep", 0, i, 5, "a_second", b))
    t = pairdep_tables(rows)
    assert t[(5, 1, 1)] == (0.5, 0.75 * 0.5)
    assert t[(5, 1, 2)] == (0.25, 0.75 * 0.5)
    assert t[(5, 2, 1)] == (0.0, 0.25 * 0.5)
    assert t[(5, 2, 2)] == (0.25, 0.25 * 0.5)
    # row sums of the joint recover the first marginal
    assert t[(5, 1, 1)][0] + t[(5, 1, 2)][0] == 0.75


def test_pairdep_tables_marginals_match_direct_counts():
    rows = run(ExperimentConfig("pairdep", samples=50, seed=21,
                                params={"grid": (5,), "n": 1}))
    pairs = [(quotient(sample_stream(21, i), 1),
              quotient(sample_stream(21, i), 6)) for i in range(50)]
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


def test_csv_golden_bytes():
    cfg = ExperimentConfig("gauss_kuzmin", samples=2, seed=5,
                           params={"grid": (1,), "n": 10})
    text = rows_to_csv(run(cfg))
    # recount from scratch: fresh streams, direct quotient queries
    lines = [CSV_HEADER]
    for i in range(2):
        s = sample_stream(5, i)
        hits = sum(1 for n in range(1, 11) if quotient(s, n) == 1)
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
    long = run(ExperimentConfig("nq", samples=6, seed=14, params={"grid": (50, 60)}))
    short = long[:3]
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
ROWS = st.lists(st.builds(ResultRow, NAMES, st.integers(0, 2 ** 64 - 1),
                          st.integers(0, 10 ** 6), st.integers(-10 ** 6, 10 ** 6), NAMES,
                          st.integers() | st.fractions() | st.floats()), max_size=8)


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, exact=st.booleans())
def test_json_mirror_matches_csv_field_for_field(rows, exact, tmp_path_factory):
    folder = tmp_path_factory.mktemp("mirror")
    csv_path, json_path = str(folder / "out.csv"), str(folder / "out.json")
    if exact and any(isinstance(r.value, float) for r in rows):
        for write, path in ((write_csv, csv_path), (write_json, json_path)):
            with pytest.raises(ValueError, match="not exact"):
                write(rows, path, exact=True)
        return
    write_csv(rows, csv_path, exact=exact)
    write_json(rows, json_path, exact=exact)
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
    text = rows_to_csv(run(cfg), exact=True)
    for line in text.strip().split("\n")[1:]:
        val = line.split(",")[5]
        num, den = val.split("/")
        Fraction(int(num), int(den))
