"""Reduced fractions mod 1 and their representatives.

A fraction is stored as a coprime pair (num, den) with 0 <= num < den,
the zero class as 0/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FareyFraction:
    """Reduced representative of a rational class mod 1."""

    num: int
    den: int

    @property
    def height(self) -> int:
        return self.den

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def _pair(f) -> tuple[int, int]:
    """(num, den) of a FareyFraction, Fraction, (num, den) tuple or int."""
    if isinstance(f, FareyFraction):
        return f.num, f.den
    if isinstance(f, Fraction):
        return f.numerator, f.denominator
    if isinstance(f, tuple):
        a, q = f
        return int(a), int(q)
    if isinstance(f, int):
        return f, 1
    raise TypeError(f"not a rational: {f!r}")


def reduce_mod1(a: int, q: int) -> FareyFraction:
    """Reduce a/q to its representative in [0, 1).

    Raises ValueError on a zero denominator.
    """
    if q == 0:
        raise ValueError("invalid denominator: q = 0")
    if q < 0:
        a, q = -a, -q
    g = math.gcd(a, q)
    a //= g
    q //= g
    a %= q
    if a == 0:
        return FareyFraction(0, 1)
    return FareyFraction(a, q)
