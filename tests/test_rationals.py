"""Reduced representatives mod 1, mediants, heights."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cflab.cf import ContinuedFraction, cf_of_rational
from cflab.rationals import FareyFraction, _pair, height, mediant, reduce_mod1


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


def test_mediant_basic():
    assert mediant((1, 3), (1, 2)) == (2, 5)
    assert mediant((0, 1), (1, 1)) == (1, 2)
    assert mediant(FareyFraction(1, 3), FareyFraction(1, 2)) == (2, 5)


def test_mediant_height_additive():
    assert height(FareyFraction(*mediant((1, 3), (1, 2)))) == 5
    a, q = mediant((2, 7), (3, 10))
    assert q == 17


def test_iterated_mediants_match_level_formula():
    # level-2 elements of [0;2,3,...]: (m*p1 + p0)/(m*q1 + q0), p1/q1 = 1/2, p0/q0 = 0/1
    p0, q0, p1, q1 = 0, 1, 1, 2
    expected = [((m * p1 + p0), (m * q1 + q0)) for m in (1, 2, 3)]
    cur = (p0, q0)
    got = []
    for _ in range(3):
        cur = mediant(cur, (p1, q1))
        got.append(cur)
    assert got == expected == [(1, 3), (2, 5), (3, 7)]


def test_mediant_of_unimodular_pair_is_reduced_and_between():
    rng = random.Random(1)
    for _ in range(200):
        q1 = rng.randrange(1, 60)
        p1 = rng.randrange(0, q1) if q1 > 1 else 0
        if math.gcd(p1, q1) != 1:
            continue
        # solve p2 q1 - p1 q2 = 1 for a unimodular partner
        if q1 == 1:
            p2, q2 = 1, 1
        else:
            q2 = q1 - pow(p1, -1, q1)
            p2 = (1 + p1 * q2) // q1
        assert p2 * q1 - p1 * q2 == 1
        a, q = mediant((p1, q1), (p2, q2))
        assert math.gcd(a, q) == 1
        lo, hi = sorted((p1 * q2 * q, p2 * q1 * q))
        assert lo < a * q1 * q2 < hi


def test_height_examples():
    assert height(FareyFraction(2, 5)) == 5
    assert height(FareyFraction(0, 1)) == 1
    assert height(reduce_mod1(4, 6)) == 3


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
