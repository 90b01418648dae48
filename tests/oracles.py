"""Slow, independent references the tests check the library against.

The library spells a class mod 1 as an (a, q) pair of ints; FareyFraction is
such a pair with names, so every library function takes it as it is.
"""

import math
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from cflab import harness
from cflab.cf import ContinuedFraction
from cflab.farey import FareyTable, check_order
from cflab.harness import REGISTRY, ExperimentConfig, RunRows, resolve_params, sample_stream
from cflab.stats import LOG2, WeightFunction


class FareyFraction(NamedTuple):
    """Reduced representative num/den of a rational class mod 1."""

    num: int
    den: int

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def enumerate_farey(Q: int) -> Iterator[FareyFraction]:
    """Fractions of height <= Q in [0, 1), ascending, starting at 0/1: the
    next-term rule of the Farey sequence."""
    check_order(Q)
    a, b, c, d = 0, 1, 1, Q
    yield FareyFraction(0, 1)
    while (c, d) != (1, 1):
        yield FareyFraction(c, d)
        k = (Q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def value_of_cf(cf: ContinuedFraction) -> Fraction:
    """Exact value of a finite expansion, folded from the last quotient."""
    tail = Fraction(0)  # 1 / [a_k; a_{k+1}, ..., a_L], 0 past the end
    for a in reversed(cf.preperiod):
        tail = 1 / (a + tail)
    return cf.a0 + tail


def expected_chi(beta: tuple[int, int]) -> Fraction:
    """Length of the neighbor interval of beta, 1/(h(lower) h(upper)); 1 for
    the zero class."""
    a, q = beta
    if q == 1:
        return Fraction(1)
    q_lo = pow(a, -1, q)
    return Fraction(1, q_lo * (q - q_lo))


def index_of(table: FareyTable) -> dict[tuple[int, int], int]:
    """{(a, q): i} over the entries of a bulk Farey table."""
    return {(int(a), int(q)): i for i, (a, q) in enumerate(zip(table.num, table.den))}


def table_weight(values: Sequence) -> WeightFunction:
    """The table weight g(m) = values[m - 1] for m up to len(values), zero beyond."""
    return WeightFunction("table", table=tuple((m, Fraction(v))
                                               for m, v in enumerate(values, start=1)))


def gauss_kuzmin_prob(k: int) -> float:
    """Limiting probability log2(1 + 1/(k(k+2))) of a partial quotient equal to k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.log1p(1.0 / (k * (k + 2))) / LOG2


class Row(NamedTuple):
    """One row of a run: a CSV line's fields, the value as a number."""

    experiment: str
    seed: int
    index: int
    param: int
    stat: str
    value: object


def run_rows(config: ExperimentConfig) -> list[Row]:
    """The rows of a run computed straight from its experiment, one sample after
    another in one process, sorted by (param, index, stat)."""
    grid, p = resolve_params(config)
    compute = REGISTRY[config.experiment].compute
    rows = [Row(config.experiment, config.seed, i, *row) for i in range(config.samples)
            for row in compute(sample_stream(config.seed, i), grid, p)]
    return sorted(rows, key=attrgetter("param", "index", "stat"))


def rows_to_csv(rows: RunRows) -> str:
    """A run's CSV text, the pieces write_csv writes joined."""
    return "".join(harness._csv_pieces(rows))


def csv_rows(rows: RunRows) -> list[Row]:
    """A run's rows read back off its CSV text, each value as a Fraction, so that
    the plain (5) and exact (5/1) spellings read alike."""
    return [Row(e, int(seed), int(i), int(param), stat, Fraction(value))
            for e, seed, i, param, stat, value in
            (line.split(",") for line in rows_to_csv(rows).split("\n")[1:-1])]
