"""Slow, independent references the tests check the library against.

The library spells a class mod 1 as an (a, q) pair of ints; FareyFraction is
such a pair with names, so every library function takes it as it is.
"""

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from cflab.cf import ContinuedFraction
from cflab.farey import FareyTable, check_order
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
