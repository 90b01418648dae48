"""Reduced representatives mod 1, as the command line reads a class "p/q"."""

import math
import random

import pytest

from cflab.cli import _class_mod1
from oracles import FareyFraction


def test_reduce_mod1_basic():
    assert _class_mod1("7/5") == FareyFraction(2, 5)
    assert _class_mod1("-1/3") == FareyFraction(2, 3)
    assert _class_mod1("4/6") == FareyFraction(2, 3)
    assert _class_mod1("0/9") == FareyFraction(0, 1)
    assert _class_mod1("5/5") == FareyFraction(0, 1)
    assert _class_mod1("3") == FareyFraction(0, 1)


def test_reduce_mod1_negative_denominator():
    assert _class_mod1("1/-3") == FareyFraction(2, 3)


def test_reduce_mod1_zero_denominator():
    with pytest.raises(ValueError, match="invalid denominator: q = 0"):
        _class_mod1("1/0")


def test_reduce_mod1_idempotent():
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randrange(-50, 50)
        q = rng.choice([-1, 1]) * rng.randrange(1, 40)
        num, den = _class_mod1(f"{a}/{q}")
        assert _class_mod1(f"{num}/{den}") == (num, den)
        assert 0 <= num < den or (num, den) == (0, 1)
        assert math.gcd(num, den) == 1
