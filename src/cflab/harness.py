"""Seeded Monte Carlo driver over uniformly sampled reals, and the M_Q routes.

The weighted count M_Q(x) = sum over height <= Q classes of c(beta) chi_beta(x),
with c(beta) = g(terminal partial quotient of beta), is computed by three
independent routes (chi read off the Stern-Brocot descent toward x, the
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

import contextlib
import json
import math
import numbers
import os
import pickle
import signal
import statistics
import traceback
from array import array
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter, mul
from typing import Callable

from .cf import (GOLDEN64, M64, ContinuedFraction, DyadicStream, InvariantViolation,
                 convergents, cutoff, intermediates, mix64)
# chi_mask and farey_table are unused here; perfbench/tracer.py patches them by name.
from .farey import (CHI_MARGIN, HeightSet, check_order, chi_mask,  # noqa: F401
                    farey_table, terminal_from_neighbors)
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
# An experiment's compute maps (stream, grid, settings), once per sample, to
# (param, stat name, value) triples; the stat set may depend on settings but
# never on the sample (run checks it), so row counts are samples * |grid| * |stats|.


def _per_param(fn):
    """compute(stream, grid, p) from fn(stream, param, p) -> (stat, value) pairs."""
    return lambda stream, grid, p: [(v, stat, val) for v in grid for stat, val in fn(stream, v, p)]


def _run_levy(stream, grid, p):
    return [(cs.n, stat, value) for cs in classical_stats(stream, grid) for stat, value in
            (("levy_stat", cs.levy_stat), ("pq_max", cs.pq_max), ("pq_sum", cs.pq_sum))]


def _run_gauss_kuzmin(stream, k, p):
    n = p["n"]
    hits = stream.quotients(1, n + 1).count(k)
    return [("freq", Fraction(hits, n))]


def _run_nq(stream, Q, p):
    cut = cutoff(stream, Q)
    return [("N", cut.N), ("a", cut.a)]


def mq_count_closed(stream, Q: int) -> dict:
    """Multiset {terminal quotient: multiplicity} implied by the closed form
    M_Q(x) = g(1) + sum_{n<N} sum_{m=2}^{a_n+1} g(m) + sum_{m=2}^{a(Q,x)} g(m).

    Pure bookkeeping on the quotients cutoff read, each read once; no
    fraction is materialized.  For a rational x that terminates before the
    cutoff the same form is used with the full terminal multiplicity.
    """
    cut = cutoff(stream, Q)
    if cut.N == 0:
        return {}
    counts = {1: 1}
    for top in (*cut.quotients, cut.a - 1):  # the cutoff level's m run to a, not a_N + 1
        for m in range(2, top + 2):
            counts[m] = counts.get(m, 0) + 1
    return counts


def mq_count_intermediates(stream, grid) -> dict:
    """{Q: the same multiset} for each Q in grid, read off one enumeration at
    max(grid), each intermediate fraction classed through its own canonical
    expansion.  Heights strictly increase, so the multiset at Q is the count
    taken before the first height above Q."""
    heights = sorted(grid)
    out, counts = {}, {}
    for _, _, num, den in intermediates(stream, heights[-1]):
        while den > heights[0]:  # never the last height, which bounds every den
            out[heights.pop(0)] = dict(counts)
        m = terminal_quotient(num, den)
        counts[m] = counts.get(m, 0) + 1
    for Q in heights[:-1]:
        out[Q] = dict(counts)
    out[heights[-1]] = counts
    return out


def mq_count_farey(stream, grid) -> dict:
    """{Q: the multiset from the definition} for each Q in grid, read off one
    Stern-Brocot descent toward x mod 1 to height max(grid): every class of
    height <= Q whose neighbor interval holds x, counted in halves.

    A node a/q of the Stern-Brocot tree is born as the mediant of its two
    Farey neighbors in F_q (Graham, Knuth and Patashnik, Concrete
    Mathematics, sec. 4.5), so the classes whose neighbor interval holds x
    are the nodes on its descent path (the one-sided best approximations of
    x, Khinchin, sec. 6), with the descent's bounds as their neighbors.  A
    node counts sign(x - lower) - sign(x - upper) halves, both signs known
    from the comparisons that set the bounds, and then the bound on x's side
    moves to it.  Each sign is read in floats outside the CHI_MARGIN guard
    band and settled exactly inside it.  An x equal to a node (a rational)
    continues as two chains, one toward each old bound, whose nodes have x
    on a neighbor endpoint and count 1/2; the zero class counts 1.
    """
    for Q in grid:
        check_order(Q)
    top, a0 = max(grid), stream.a0
    # x mod 1 within float error (the 40th convergent is within 1e-16 of x)
    x_f = float(stream.interval()[0] if isinstance(stream, DyadicStream)
                else Fraction(*convergents(stream, 40)[-1][1:]) - a0)

    def sign(p, q):  # of x mod 1 - p/q
        d = x_f - p / q
        if abs(d) > CHI_MARGIN:
            return 1 if d > 0 else -1
        return stream.compare_fraction(a0 + Fraction(p, q))

    nodes = []  # (height, terminal quotient, halves)
    paths = [(0, 1, sign(0, 1), 1, 1, -1)]  # lower p, q, sign(x - lower), and the upper's
    while paths:
        pl, ql, sl, pu, qu, su = paths.pop()
        while (q := ql + qu) <= top:
            p = pl + pu
            nodes.append((q, terminal_from_neighbors(q, ql, qu), sl - su))
            if (s := sign(p, q)) > 0:
                pl, ql, sl = p, q, s
            else:
                if s == 0:  # x = p/q: the chain toward the old upper bound, later
                    paths.append((p, q, s, pu, qu, su))
                pu, qu, su = p, q, s
    out = {}
    for Q in grid:
        halves = {1: 2}  # the zero class, chi identically 1
        for q, m, h in nodes:
            if q <= Q:
                halves[m] = halves.get(m, 0) + h
        odd = any(h % 2 for h in halves.values())
        out[Q] = {m: Fraction(h, 2) if odd else h // 2 for m, h in sorted(halves.items())}
    return out


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
    ms = sorted(counts)
    return math.fsum(map(mul, map(counts.__getitem__, ms), g.floats(ms)))


def _run_mq(stream, grid, p):
    """Rows at each Q in grid: the values under p["weight"] of the three count
    multisets, mq_farey in every row when max(grid) <= ORACLE_LIMIT and in none
    otherwise, and whether they are equal.  A finite expansion keeps its mq_farey
    value out of methods_agree: a rational x on a neighbor endpoint counts 1/2
    there, by chi's definition.  The closed multiset is valued once and a
    multiset equal to it reuses that value; a differing one is valued on its own."""
    g, exact = p["weight"], p["exact"]
    inter = mq_count_intermediates(stream, grid)
    farey = mq_count_farey(stream, grid) if max(grid) <= ORACLE_LIMIT else {}
    finite = isinstance(stream, ContinuedFraction) and not stream.period
    rows = []
    for Q in grid:
        closed, i, f = mq_count_closed(stream, Q), inter[Q], farey.get(Q)
        value = mq_value(closed, g, exact)
        agree = i == closed and (f is None or finite or f == closed)
        rows += [(Q, "mq_closed", value), (Q, "methods_agree", int(agree)),
                 (Q, "mq_intermediates", value if i == closed else mq_value(i, g, exact))]
        if f is not None:
            rows.append((Q, "mq_farey", value if f == closed else mq_value(f, g, exact)))
    return rows


def mq_all(x, Q: int, g: WeightFunction):
    """(farey, intermediates, closed, agree) values of M_Q(x) under g.

    The Farey route is skipped (None) above ORACLE_LIMIT.  Agreement is
    equality of the count multisets (see _run_mq for a finite expansion); the
    values are exact rationals exactly when g is an exact family.
    """
    p = {"weight": g, "exact": g.is_exact}
    row = {stat: v for _, stat, v in _run_mq(x, (Q,), p)}
    return row.get("mq_farey"), row["mq_intermediates"], row["mq_closed"], row["methods_agree"] == 1


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
    return [("a_first", stream.quotient(n)), ("a_second", stream.quotient(n + k))]


def _run_double_exceed(stream, M, p):
    return [("exceed_count", double_exceedance(stream, M, p["delta"]))]


def _run_openproblem(stream, Q, p):
    heights: HeightSet = p["heights"]
    hits = sum(1 for _, _, _, den in intermediates(stream, Q) if den in heights)
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
    Experiment("gauss_kuzmin", "k", (1, 2, 3), _per_param(_run_gauss_kuzmin), (("n", 100),)),
    Experiment("nq", "Q", (1000,), _per_param(_run_nq)),
    Experiment("mq", "Q", (100,), _run_mq,
               (("weight", WeightFunction.harmonic()),)),
    Experiment("count_intermediates", "Q", (1000,), _per_param(_run_count)),
    Experiment("xnf", "n", (100,), _per_param(_run_xnf),
               (("weight", WeightFunction.harmonic()), ("delta", 0.5))),
    Experiment("variance", "m", (2, 5, 10), _per_param(_run_variance), (("n", 100),)),
    Experiment("pairdep", "k", (5, 10), _per_param(_run_pairdep), (("n", 1),)),
    Experiment("double_exceed", "m", (100,), _per_param(_run_double_exceed), (("delta", 0.5),)),
    Experiment("openproblem", "Q", (1000,), _per_param(_run_openproblem),
               (("heights", HeightSet("all")),)),
    Experiment("khinchin_avg", "n", (100,), _per_param(_run_khinchin),
               (("weight", WeightFunction.harmonic()),)),
]}


def _is_number(v, kind=int) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)  # a bool is no number here


def resolve_params(config: ExperimentConfig) -> tuple[tuple[int, ...], dict]:
    """(grid, settings) of a run: the one check of what an experiment takes.

    `config.params` may hold "grid" and the names in the experiment's
    defaults; any other key is a ValueError naming it and the experiment,
    and a setting of the wrong type or range, or a repeated grid value, one
    naming it.
    """
    exp = REGISTRY.get(config.experiment)
    if exp is None:
        raise ValueError(f"unknown experiment {config.experiment!r}")
    p = dict(exp.defaults)
    for key in config.params:
        if key != "grid" and key not in p:
            raise ValueError(f"{key} is not used by {exp.name}")
    p.update(config.params)
    grid = tuple(p.pop("grid", exp.default_grid))
    if not grid or not all(_is_number(v) and v >= 1 for v in grid):
        raise ValueError("parameter grid must be positive integers")
    if len(set(grid)) < len(grid):
        raise ValueError(f"parameter grid repeats {max(grid, key=grid.count)}")
    if "n" in p and not (_is_number(p["n"]) and p["n"] >= 1):
        raise ValueError(f"n must be an integer >= 1, not {p['n']!r}")
    if "delta" in p and not (_is_number(p["delta"], numbers.Real) and math.isfinite(p["delta"])):
        raise ValueError(f"delta must be a finite real number, not {p['delta']!r}")
    for key, kind in (("weight", WeightFunction), ("heights", HeightSet)):
        if key in p and not isinstance(p[key], kind):
            raise ValueError(f"{key} must be a {kind.__name__}, not {p[key]!r}")
    if config.exact and "weight" in p and not p["weight"].is_exact:
        raise ValueError("exact values need an exact weight family")
    p["exact"] = config.exact
    return grid, p


def _reduce(rows, exact: bool) -> tuple:
    """The part (text, floats) of (experiment, seed, index, param, stat, value)
    rows: per param, the CSV lines of its rows in (index, stat) order, and per
    (param, stat), its values as floats in index order, in one array('d').  The
    rows are dropped once read."""
    groups, floats = {}, {}
    for row in rows:
        groups.setdefault(row[3], []).append(row)
    for param, group in groups.items():
        group.sort(key=itemgetter(2, 4))  # stable, as the frozen (param, index, stat) sort
        for row in group:
            floats.setdefault((param, row[4]), array("d")).append(float(row[5]))
    return {param: _csv_lines(group, exact) for param, group in groups.items()}, floats


def _run_chunk(config: ExperimentConfig, grid: tuple, p: dict, indices: range) -> tuple:
    """The samples in `indices`, computed and reduced (see _reduce) in one pass."""
    compute, e, seed = REGISTRY[config.experiment].compute, config.experiment, config.seed
    return _reduce(((e, seed, i, *row) for i in indices
                    for row in compute(sample_stream(seed, i), grid, p)), config.exact)


def _claim(work: Callable, chunks: list, claim: int) -> list:
    """(k, work(chunks[k]) or its exception) for each k read from `claim`, up to the first raise."""
    done = []
    while token := os.read(claim, 4):
        k = int.from_bytes(token, "little")
        try:
            done.append((k, work(chunks[k])))
        except Exception as exc:  # raised again by the caller, after every worker is done
            done.append((k, exc))
            break
    return done


def _fork_chunks(work: Callable, chunks: list, workers: int) -> list:
    """[work(chunk) for chunk in chunks], from the caller and `workers` - 1 forked children
    that claim chunks from one pipe; the lowest failing chunk's exception is raised."""
    claim, tokens = os.pipe()
    os.write(tokens, b"".join(k.to_bytes(4, "little") for k in range(len(chunks))))
    os.close(tokens)  # before any fork, so the drained pipe reads EOF
    children, answers = [], {}  # (pid, its result pipe)
    try:
        for _ in range(workers - 1):
            results, out = os.pipe()
            if (pid := os.fork()) == 0:  # the child
                try:
                    done = _claim(work, chunks, claim)  # a trace is not pickled; a note is
                    if done and isinstance(exc := done[-1][1], Exception):
                        exc.__notes__ = ["".join(traceback.format_exception(exc))]
                    with open(out, "wb") as fh:
                        pickle.dump(done, fh, pickle.HIGHEST_PROTOCOL)
                finally:  # whatever happened, never return into the caller
                    os._exit(0)
            os.close(out)
            children.append((pid, open(results, "rb")))
        answers.update(_claim(work, chunks, claim))
        for _, fh in children:  # a child that died wrote nothing or a truncated pickle
            with contextlib.suppress(EOFError, pickle.UnpicklingError):
                answers.update(pickle.loads(fh.read()))
        claimed = len(chunks) - len(os.read(claim, 4 * len(chunks))) // 4  # unread: never claimed
    finally:  # a child is reaped only here, so its pid cannot be reused before the kill
        os.close(claim)
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    lost = [f"{c.start}..{c.stop - 1}" for k, c in enumerate(chunks[:claimed]) if k not in answers]
    died = InvariantViolation(f"a worker process died; samples {', '.join(lost)} were lost")
    for got in (answers.get(k, died) for k in range(len(chunks))):
        if isinstance(got, Exception):
            raise got
    return [answers[k] for k in range(len(chunks))]


class RunRows:
    """The rows of a run as its workers left them: the parts (see _reduce) of its
    chunks, in chunk order.  Chunks are contiguous index ranges, so the parts'
    text taken in chunk order, param by param, is the CSV in (param, index, stat)
    order with no sort, and a (param, stat)'s floats taken in chunk order are its
    column, in which the value at position i is sample i's.
    """

    def __init__(self, parts: list):
        self.parts = parts
        self.keys = sorted({key for _, floats in parts for key in floats})
        self.params = sorted({param for param, _ in self.keys})

    def __len__(self) -> int:  # one float per row
        return sum(len(vals) for _, floats in self.parts for vals in floats.values())

    def column(self, key: tuple) -> array:
        """The floats of (param, stat) `key`, in sample order."""
        col = array("d")
        for _, floats in self.parts:
            col += floats[key]
        return col


def run(config: ExperimentConfig) -> RunRows:
    """Execute the experiment; returns its rows as a RunRows: the parts the workers
    ordered and formatted.

    `threads` counts worker processes, the caller and threads - 1 forked children
    (pure Python gains nothing from threads), capped at the samples and usable
    CPUs; each has its own caches.  One worker forks nothing.
    """
    if config.samples < 1:
        raise ValueError("samples must be >= 1")
    if config.threads < 1:
        raise ValueError("threads must be >= 1")
    if not 0 <= config.seed <= M64:  # as DyadicStream: no two seeds name the same samples
        raise ValueError("seed must fit in 64 bits")
    grid, p = resolve_params(config)
    workers = min(config.threads, config.samples, len(os.sched_getaffinity(0)))
    if "weight" in p and not p["weight"].is_exact:
        import numpy  # noqa: F401  (power weights' arrays: once, before any fork)
    n = min(config.samples, 8 * workers)  # eight contiguous chunks per worker even out heavy tails
    chunks = [range(config.samples * k // n, config.samples * (k + 1) // n) for k in range(n)]
    rows = RunRows(_fork_chunks(lambda c: _run_chunk(config, grid, p, c), chunks, workers))
    for c, (_, floats) in zip(chunks, rows.parts):  # so a column's positions are its indices
        if uneven := [key for key in rows.keys if len(floats.get(key, ())) != len(c)]:
            raise InvariantViolation(f"samples {c.start}..{c.stop - 1} do not give one "
                                     f"{uneven[0]} value each")
    return rows


def find_violations(rows: RunRows) -> list[tuple[int, int]]:
    """(param, index) of each methods_agree value other than 1, in CSV order."""
    return [(param, i) for param, stat in rows.keys if stat == "methods_agree"
            for i, v in enumerate(rows.column((param, stat))) if v != 1]


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


def aggregate(rows: RunRows) -> list[Summary]:
    """Deterministic summaries per (param, stat).

    Each (param, stat)'s column is sorted on its own; math.fsum rounds
    exactly, so no sum depends on the order of the rows.  The trimmed mean
    drops ceil(0.05 * count) values at each end of the sorted sample (falling
    back to the plain mean when that would empty the list).
    """
    out = []
    for key in rows.keys:
        sv = sorted(rows.column(key))
        n = len(sv)
        mean = math.fsum(sv) / n
        drop = math.ceil(0.05 * n)
        core = sv[drop:n - drop]
        trimmed = math.fsum(core) / len(core) if core else mean
        var = math.fsum((v - mean) ** 2 for v in sv) / (n - 1) if n > 1 else 0.0
        out.append(Summary(key[0], key[1], mean, statistics.median(sv), trimmed,
                           math.sqrt(var), n))
    return out


def pairdep_tables(rows: RunRows) -> dict:
    """{(k, r, s): (joint frequency, product of marginal frequencies)} for r, s in 1, 2,
    over each sample's (a_first, a_second) pair."""
    out = {}
    for k in rows.params:
        pairs = list(zip(rows.column((k, "a_first")), rows.column((k, "a_second"))))
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


def int_text(n: int) -> str:
    """The decimal digits of n, written through Decimal, which has no limit on
    digits; str(int) stops at 4300."""
    return str(Decimal(n))


def format_value(v, exact: bool) -> str:
    """Frozen text form: exact mode writes num/den, otherwise ints verbatim
    and everything else as 12-significant-digit decimals."""
    if exact:
        if isinstance(v, Fraction):
            return f"{int_text(v.numerator)}/{int_text(v.denominator)}"
        if isinstance(v, int):
            return f"{int_text(v)}/1"
        raise ValueError(f"value {v!r} is not exact")
    if isinstance(v, int):
        return int_text(v)
    return format(float(v), ".12g")


def _csv_lines(rows, exact: bool) -> str:
    """CSV lines, each ending in a newline, of (experiment, seed, index, param,
    stat, value) rows."""
    return "".join([f"{e},{seed},{i},{param},{stat},{format_value(v, exact)}\n"
                    for e, seed, i, param, stat, v in rows])


def _csv_pieces(rows: RunRows) -> list[str]:
    """The CSV text in the workers' pieces, which write_csv writes without joining them."""
    return [CSV_HEADER + "\n", *(text.get(param, "") for param in rows.params
                                 for text, _ in rows.parts)]


def _write_text(path: str, pieces: list) -> None:
    # open(path, "w") minus O_TRUNC: emptying an existing file first can cost tens of ms on ext4
    with open(path, "w", encoding="utf-8", newline="\n",
              opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.writelines(pieces)
        if os.path.isfile(path):  # a device, pipe or terminal cannot be cut to length
            fh.truncate()


def write_csv(rows: RunRows, path: str) -> None:
    _write_text(path, _csv_pieces(rows))


def write_json(rows: RunRows, path: str) -> None:
    """JSON mirror of the CSV, read off its lines piece by piece: same rows, same value strings."""
    fields = (line.split(",") for piece in _csv_pieces(rows)[1:] for line in piece.split("\n")[:-1])
    payload = [{"experiment": e, "seed": int(seed), "index": int(i), "param": int(param),
                "stat": stat, "value": value}
               for e, seed, i, param, stat, value in fields]
    _write_text(path, [json.dumps(payload, separators=(",", ":")) + "\n"])
