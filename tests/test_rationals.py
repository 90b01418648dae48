"""Reduced representatives mod 1."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cflab.cf import ContinuedFraction, cf_of_rational
from cflab.rationals import FareyFraction, _pair, reduce_mod1


def test_reduce_mod1_basic():
    assert reduce_mod1(7, 5) == FareyFraction(2, 5)
    assert reduce_mod1(-1, 3) == FareyFraction(2, 3)
    assert reduce_mod1(4, 6) == FareyFraction(2, 3)
    assert reduce_mod1(0, 9) == FareyFraction(0, 1)
    assert reduce_mod1(5, 5) == FareyFraction(0, 1)


def test_reduce_mod1_negative_denominator():
    assert reduce_mod1(1, -3) == FareyFraction(2, 3)


def test_reduce_mod1_zero_denominator():
    with pytest.raises(ValueError):
        reduce_mod1(1, 0)


def test_reduce_mod1_idempotent():
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randrange(-50, 50)
        q = rng.randrange(1, 40)
        f = reduce_mod1(a, q)
        assert reduce_mod1(f.num, f.den) == f
        assert 0 <= f.num < f.den or (f.num, f.den) == (0, 1)
        assert math.gcd(f.num, f.den) == 1


def test_pair_coerces_rationals_and_rejects_the_rest():
    assert _pair(FareyFraction(2, 5)) == (2, 5)
    assert _pair(Fraction(-6, 4)) == (-3, 2)
    assert _pair((np.int64(3), np.int64(7))) == (3, 7)
    assert type(_pair((np.int64(3), 7))[0]) is int
    assert _pair(-7) == (-7, 1)
    assert cf_of_rational(7) == ContinuedFraction(7, ())
    # a string, list or float is no rational, though "12" unpacks into two digits
    for bad in ("12", [1, 2], 1.5, None):
        with pytest.raises(TypeError, match="not a rational"):
            _pair(bad)
        with pytest.raises(TypeError, match="not a rational"):
            cf_of_rational(bad)


def test_farey_fraction_str_and_value():
    f = FareyFraction(2, 5)
    assert str(f) == "2/5"
    assert float(f.as_fraction()) == 0.4
