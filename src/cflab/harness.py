"""Seeded Monte Carlo driver over uniformly sampled reals, and the M_Q routes.

The weighted count M_Q(x) = sum over height <= Q classes of c(beta) chi_beta(x),
with c(beta) = g(terminal partial quotient of beta), is computed by three
independent routes (chi tested on the candidate classes of each height, the
intermediate fractions of x, a closed form in the partial quotients).  Each
route returns the multiset of terminal quotients it counts; the routes must
agree on it exactly, and weights are applied afterwards by mq_value.

Samples are endless dyadic bit streams with per-sample seeds derived from a
master seed; every experiment statistic is a deterministic function of
(master_seed, sample index, parameter), so runs are byte-reproducible
independent of the worker count.  Output is a flat CSV (optionally mirrored to
JSON) plus deterministic per-(param, stat) aggregate summaries.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .cf import (GOLDEN64, M64, DyadicStream, InvariantViolation,
                 compare_real_rational, convergents, cutoff, intermediates, mix64,
                 quotient)
# chi_mask and farey_table are unused here; perfbench/tracer.py patches them by name.
from .farey import (CHI_MARGIN, HeightSet, check_order, chi_mask,  # noqa: F401
                    farey_neighbors, farey_table, terminal_from_neighbors)
from .stats import (TruncationFn, WeightFunction, birkhoff_average,
                    classical_stats, double_exceedance, indicator_sum,
                    terminal_quotient, x_nf)

ORACLE_LIMIT = 3000


def sample_stream(master_seed: int, index: int) -> DyadicStream:
    """Dyadic stream for sample `index` under `master_seed`.

    The per-sample seed is mix64((master_seed + (index+1) * GOLDEN64) mod 2^64)
    with GOLDEN64 = 0x9E3779B97F4A7C15, the same splitmix64 scramble the
    stream applies to its own block counter.  This derivation is part of the
    reproducibility contract.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    return DyadicStream(mix64((master_seed + (index + 1) * GOLDEN64) & M64))


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    seed: int
    index: int
    param: int
    stat: str
    value: object


@dataclass
class ExperimentConfig:
    experiment: str
    samples: int
    seed: int
    params: dict = field(default_factory=dict)
    threads: int = 1
    exact: bool = False


# -- per-experiment statistics ------------------------------------------------
#
# Each compute function maps (stream, param, settings) to a fixed list of
# (stat name, value) pairs; the stat set may depend on settings but never on
# the sample, so row counts are exactly samples * |grid| * |stats|.


def _run_levy(stream, n, p):
    cs = classical_stats(stream, n)
    return [("levy_stat", cs.levy_stat), ("pq_max", cs.pq_max), ("pq_sum", cs.pq_sum)]


def _run_gauss_kuzmin(stream, k, p):
    n = p["n"]
    hits = sum(1 for i in range(1, n + 1) if quotient(stream, i) == k)
    return [("freq", Fraction(hits, n))]


def _run_nq(stream, Q, p):
    cut = cutoff(stream, Q)
    return [("N", cut.N), ("a", cut.a)]


def _bump_range(counts: dict, lo: int, hi: int) -> None:
    for m in range(lo, hi + 1):
        counts[m] = counts.get(m, 0) + 1


def mq_count_closed(stream, Q: int) -> dict:
    """Multiset {terminal quotient: multiplicity} implied by the closed form
    M_Q(x) = g(1) + sum_{n<N} sum_{m=2}^{a_n+1} g(m) + sum_{m=2}^{a(Q,x)} g(m).

    Pure bookkeeping on the quotients cutoff read, each read once; no
    fraction is materialized.  For a rational x that terminates before the
    cutoff the same form is used with the full terminal multiplicity.
    """
    cut = cutoff(stream, Q)
    counts: dict[int, int] = {}
    if cut.N == 0:
        return counts
    counts[1] = 1
    for a_n in cut.quotients:
        _bump_range(counts, 2, a_n + 1)
    _bump_range(counts, 2, cut.a)
    return counts


def mq_count_intermediates(stream, Q: int) -> dict:
    """The same multiset read off the materialized enumeration, each
    intermediate fraction classed through its own canonical expansion."""
    counts: dict[int, int] = {}
    for rec in intermediates(stream, Q):
        m = terminal_quotient(rec.fraction)
        counts[m] = counts.get(m, 0) + 1
    return counts


def _euclid(a, q):
    """(gcd(a, q), t) with t a = gcd mod q, for arrays 1 <= a < q.  A finished
    pair (g, 0) divides by zero, which numpy makes k = 0, so it swaps till all end."""
    r0, r1, t0, t1 = q, a, np.zeros_like(a), np.ones_like(a)
    with np.errstate(divide="ignore"):
        while (r0 * r1).any():
            k = r0 // r1
            r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return r0 + r1, np.where(r1 == 0, t0, t1) % q


def mq_count_farey(stream, Q: int) -> dict:
    """The multiset from the definition, walking the heights: every class of
    height <= Q whose neighbor interval holds x mod 1.

    Both neighbor gaps of a/q are at most 1/q, so a/q can hold x only if
    |q x - a| <= 1, which floor(q x) - 1 .. floor(q x) + 2 covers under float
    error.  chi is tested in floats with the CHI_MARGIN guard band, and the
    band is settled exactly.  Counts are kept in halves: an x on a neighbor
    endpoint (a rational) gives its class 1/2.
    """
    check_order(Q)
    # x mod 1 within float error (the 40th convergent is within 1e-16 of x)
    x_f = float(stream.interval()[0] if isinstance(stream, DyadicStream)
                else convergents(stream, 40)[-1].as_fraction() - stream.a0)
    q = np.repeat(np.arange(2, Q + 1, dtype=np.int64), 4)
    a = np.floor(q * x_f).astype(np.int64) + np.tile(np.arange(-1, 3), Q - 1)
    keep = (a >= 1) & (a < q) & (np.abs(q * x_f - a) <= 1 + CHI_MARGIN)
    gcd, q_lo = _euclid(a[keep], q[keep])  # q_lo = a^-1 mod q, as in farey_neighbors
    keep[keep] = gcd == 1
    a, q, q_lo = a[keep], q[keep], q_lo[gcd == 1]
    q_hi = q - q_lo
    lo_f, hi_f = (a - 1 / q_lo) / q, (a + 1 / q_hi) / q  # the neighbors' values
    halves = 2 * ((lo_f < x_f - CHI_MARGIN) & (hi_f > x_f + CHI_MARGIN))
    for i in np.flatnonzero(np.minimum(abs(lo_f - x_f), abs(hi_f - x_f)) <= CHI_MARGIN):
        nb = farey_neighbors((a[i], q[i]))
        # sign(x - lower) - sign(x - upper): 2 inside, 1 on an endpoint, 0 outside
        halves[i] = (compare_real_rational(stream, stream.a0 + nb.lower)
                     - compare_real_rational(stream, stream.a0 + nb.upper))
    term = terminal_from_neighbors(q, q_lo, q_hi)
    total = np.bincount(term, weights=halves, minlength=2).astype(np.int64)
    total[1] += 2  # the zero class, chi identically 1
    odd = bool((total % 2).any())
    return {int(m): Fraction(int(total[m]), 2) if odd else int(total[m]) // 2
            for m in np.flatnonzero(total)}


def mq_value(counts: dict, g: WeightFunction, exact: bool):
    """Total weight of a terminal-quotient multiset under g.

    Multiset equality between routes implies value equality for every g, so
    agreement is always attested on the count tables; the reported value is
    a float by default (exact per-family rationals on request, which is only
    practical when the largest quotient is moderate).
    """
    if exact:
        if not g.is_exact:
            raise ValueError("exact values need an exact weight family")
        return sum((c * g(m) for m, c in sorted(counts.items())), Fraction(0))
    return math.fsum(c * float(g(m)) for m, c in sorted(counts.items()))


def _mq_counts(stream, Q: int, with_farey: bool):
    """(farey, intermediates, closed, agree): the three count multisets
    (farey None unless with_farey) and whether they are all equal."""
    closed = mq_count_closed(stream, Q)
    inter = mq_count_intermediates(stream, Q)
    farey = mq_count_farey(stream, Q) if with_farey else None
    agree = inter == closed and (farey is None or farey == closed)
    return farey, inter, closed, agree


def mq_all(x, Q: int, g: WeightFunction):
    """(farey, intermediates, closed, agree) values of M_Q(x) under g.

    The Farey route is skipped (None) above ORACLE_LIMIT.  Agreement is
    equality of the count multisets, for every weight family; the values are
    exact rationals exactly when g is an exact family.
    """
    *counts, agree = _mq_counts(x, Q, Q <= ORACLE_LIMIT)
    farey, inter, closed = (None if c is None else mq_value(c, g, g.is_exact)
                            for c in counts)
    return farey, inter, closed, agree


def _run_mq(stream, Q, p):
    g, exact = p["weight"], p["exact"]
    farey, inter, closed, agree = _mq_counts(stream, Q, p["with_farey"])
    rows = [
        ("mq_closed", mq_value(closed, g, exact)),
        ("mq_intermediates", mq_value(inter, g, exact)),
    ]
    if farey is not None:
        rows.append(("mq_farey", mq_value(farey, g, exact)))
    rows.append(("methods_agree", int(agree)))
    return rows


def _run_count(stream, Q, p):
    cut = cutoff(stream, Q)  # an integer x has N = 0, a = 0 and no quotients
    return [("count", sum(cut.quotients) + cut.a)]


def _run_xnf(stream, n, p):
    val = x_nf(stream, n, p["weight"], TruncationFn(p["delta"]))
    return [("xnf", val if p["exact"] else float(val))]


def _run_variance(stream, m, p):
    return [("fsum", indicator_sum(stream, m, p["n"]))]


def _run_pairdep(stream, k, p):
    n = p["n"]
    return [("a_first", quotient(stream, n)), ("a_second", quotient(stream, n + k))]


def _run_double_exceed(stream, M, p):
    return [("exceed_count", double_exceedance(stream, M, p["delta"]))]


def _run_openproblem(stream, Q, p):
    heights: HeightSet = p["heights"]
    hits = sum(1 for rec in intermediates(stream, Q) if rec.height in heights)
    return [("hits", hits)]


def _run_khinchin(stream, n, p):
    g = p["weight"]
    avg = birkhoff_average(stream, g, n)
    return [("birkhoff_avg", avg if p["exact"] else float(avg))]


@dataclass(frozen=True)
class Experiment:
    name: str
    param: str  # CLI flag carrying the parameter grid: Q | n | k | m
    default_grid: tuple[int, ...]
    compute: Callable
    defaults: tuple = ()


REGISTRY: dict[str, Experiment] = {e.name: e for e in [
    Experiment("levy", "n", (100,), _run_levy),
    Experiment("gauss_kuzmin", "k", (1, 2, 3), _run_gauss_kuzmin, (("n", 100),)),
    Experiment("nq", "Q", (1000,), _run_nq),
    Experiment("mq", "Q", (100,), _run_mq,
               (("weight", WeightFunction.harmonic()),)),
    Experiment("count_intermediates", "Q", (1000,), _run_count),
    Experiment("xnf", "n", (100,), _run_xnf,
               (("weight", WeightFunction.harmonic()), ("delta", 0.5))),
    Experiment("variance", "m", (2, 5, 10), _run_variance, (("n", 100),)),
    Experiment("pairdep", "k", (5, 10), _run_pairdep, (("n", 1),)),
    Experiment("double_exceed", "m", (100,), _run_double_exceed, (("delta", 0.5),)),
    Experiment("openproblem", "Q", (1000,), _run_openproblem,
               (("heights", HeightSet("all", "all")),)),
    Experiment("khinchin_avg", "n", (100,), _run_khinchin,
               (("weight", WeightFunction.harmonic()),)),
]}


def resolve_params(config: ExperimentConfig) -> tuple[tuple[int, ...], dict]:
    exp = REGISTRY.get(config.experiment)
    if exp is None:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    p = dict(exp.defaults)
    p.update(config.params)
    grid = tuple(p.pop("grid", exp.default_grid))
    if not grid or any(int(v) != v or v < 1 for v in grid):
        raise ValueError("parameter grid must be positive integers")
    p["exact"] = config.exact
    if exp.name == "mq":
        # the oracle route is all-or-nothing per run so the stat set is uniform
        p["with_farey"] = max(grid) <= ORACLE_LIMIT
    return grid, p


def _run_chunk(config: ExperimentConfig, grid: tuple, p: dict, indices: range) -> list[ResultRow]:
    """Rows of the samples in `indices`; module-level, so a worker process can run it."""
    compute = REGISTRY[config.experiment].compute
    out = []
    for i in indices:
        stream = sample_stream(config.seed, i)
        for param in grid:
            for stat, val in compute(stream, param, p):
                out.append(ResultRow(config.experiment, config.seed, i, param, stat, val))
    return out


def run(config: ExperimentConfig) -> list[ResultRow]:
    """Execute the experiment; rows come back sorted by (param, index, stat).

    `threads` counts forked worker processes (pure Python gains nothing from
    threads), capped at the samples and usable CPUs; each has its own caches.
    """
    if config.samples < 1:
        raise ValueError("samples must be >= 1")
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    grid, p = resolve_params(config)
    workers = min(config.threads, config.samples, len(os.sched_getaffinity(0)))
    if workers == 1:
        rows = _run_chunk(config, grid, p, range(config.samples))
    else:  # eight contiguous chunks per worker even out the heavy-tailed samples
        import multiprocessing  # imported here, so that serial runs never load it
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        n = min(config.samples, 8 * workers)
        bounds = [config.samples * k // n for k in range(n + 1)]
        chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_run_chunk, config, grid, p, c) for c in chunks]
            try:
                rows = [r for f in futures for r in f.result()]
            except BrokenProcessPool:  # a worker died, say killed for memory
                lost = [f"{c.start}..{c.stop - 1}" for c, f in zip(chunks, futures)
                        if isinstance(f.exception(), BrokenProcessPool)]
                raise InvariantViolation(
                    f"a worker process died; samples {', '.join(lost)} were lost") from None
    rows.sort(key=lambda r: (r.param, r.index, r.stat))
    return rows


def find_violations(rows: list[ResultRow]) -> list[ResultRow]:
    return [r for r in rows if r.stat == "methods_agree" and r.value != 1]


# -- aggregation ---------------------------------------------------------------


@dataclass(frozen=True)
class Summary:
    param: int
    stat: str
    mean: float
    median: float
    trimmed_mean: float
    stddev: float
    count: int


def _median(sorted_vals: list[float]) -> float:
    n = len(sorted_vals)
    mid = n // 2
    if n % 2:
        return sorted_vals[mid]
    return (sorted_vals[mid - 1] + sorted_vals[mid]) / 2


def aggregate(rows: list[ResultRow]) -> list[Summary]:
    """Deterministic summaries per (param, stat).

    Rows are ordered by sample index before reduction; the trimmed mean drops
    ceil(0.05 * count) values at each end of the sorted sample (falling back
    to the plain mean when that would empty the list).
    """
    groups: dict[tuple, list[ResultRow]] = {}
    for r in rows:
        groups.setdefault((r.param, r.stat), []).append(r)
    out = []
    for key in sorted(groups):
        rs = sorted(groups[key], key=lambda r: r.index)
        vals = [float(r.value) for r in rs]
        n = len(vals)
        mean = math.fsum(vals) / n
        sv = sorted(vals)
        drop = math.ceil(0.05 * n)
        core = sv[drop:n - drop]
        trimmed = math.fsum(core) / len(core) if core else mean
        var = math.fsum((v - mean) ** 2 for v in vals) / (n - 1) if n > 1 else 0.0
        out.append(Summary(key[0], key[1], mean, _median(sv), trimmed,
                           math.sqrt(var), n))
    return out


def pairdep_tables(rows: list[ResultRow]) -> dict:
    """{(k, r, s): (joint frequency, product of marginal frequencies)} for r, s in 1, 2."""
    by_param: dict[int, dict[int, dict[str, int]]] = {}
    for r in rows:
        by_param.setdefault(r.param, {}).setdefault(r.index, {})[r.stat] = r.value
    out = {}
    for k, per_sample in sorted(by_param.items()):
        pairs = [(d["a_first"], d["a_second"]) for _, d in sorted(per_sample.items())]
        n = len(pairs)
        for rv in (1, 2):
            for sv in (1, 2):
                joint = sum(1 for a, b in pairs if a == rv and b == sv) / n
                p1 = sum(1 for a, _ in pairs if a == rv) / n
                p2 = sum(1 for _, b in pairs if b == sv) / n
                out[(k, rv, sv)] = (joint, p1 * p2)
    return out


# -- serialization ---------------------------------------------------------------

CSV_HEADER = "experiment,seed,index,param,stat,value"


def format_value(v, exact: bool) -> str:
    """Frozen text form: exact mode writes num/den, otherwise ints verbatim
    and everything else as 12-significant-digit decimals."""
    if exact:
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        if isinstance(v, int):
            return f"{v}/1"
        raise ValueError(f"value {v!r} is not exact")
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".12g")


def rows_to_csv(rows: list[ResultRow], exact: bool = False) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.experiment},{r.seed},{r.index},{r.param},{r.stat},"
                     f"{format_value(r.value, exact)}")
    return "\n".join(lines) + "\n"


def write_csv(rows: list[ResultRow], path: str, exact: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows, exact))


def write_json(rows: list[ResultRow], path: str, exact: bool = False) -> None:
    """JSON mirror of the CSV: same rows, same value strings."""
    payload = [
        {"experiment": r.experiment, "seed": r.seed, "index": r.index,
         "param": r.param, "stat": r.stat, "value": format_value(r.value, exact)}
        for r in rows
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
