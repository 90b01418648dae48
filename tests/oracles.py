"""Slow, independent references the tests check the library against.

The library spells a class mod 1 as an (a, q) pair of ints; FareyFraction is
such a pair with names, so every library function takes it as it is.
"""

from fractions import Fraction
from typing import Iterator, NamedTuple

from cflab.cf import ContinuedFraction
from cflab.farey import check_order


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
