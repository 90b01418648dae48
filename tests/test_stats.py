"""Weight families, multi-method weighted counts, truncated double sums,
classical estimators and hypothesis diagnostics.  The weighted-count routes
live in cflab.harness and are checked here on the count multisets they
return."""

import itertools
import math
import sys
import threading
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cflab import farey, stats
from cflab.cf import (ContinuedFraction, DyadicStream, cf_of_rational, intermediates,
                      parse_stream)
from cflab.harness import (mq_all, mq_count_closed, mq_count_farey,
                           mq_count_intermediates, mq_value, sample_stream)
from cflab.stats import (ClassicalStats, TruncationFn, WeightFunction, birkhoff_average,
                         classical_stats, double_exceedance,
                         indicator_sum, mq_level_expectation,
                         parse_weight, terminal_quotient, weight_log_series, x_nf)
from oracles import gauss_kuzmin_prob, table_weight

GOLDEN = ContinuedFraction(0, (), (1,))
ALT23 = ContinuedFraction(0, (2,), (3, 2))  # [0;2,3,2,3,...]
HARMONIC = WeightFunction.harmonic()
UNIT = WeightFunction.unit()
# each route's multiset at one height Q; two of them take a grid of heights
ROUTES = (lambda x, Q: mq_count_farey(x, (Q,))[Q],
          lambda x, Q: mq_count_intermediates(x, (Q,))[Q], mq_count_closed)


def test_weight_families():
    assert HARMONIC(2) == Fraction(1, 2)
    assert UNIT(7) == 1
    p = WeightFunction.power(0.5)
    assert not p.is_exact
    assert float(p(4)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        WeightFunction.power(0.0)
    with pytest.raises(ValueError):
        HARMONIC(0)


FLOAT_WEIGHTS = (HARMONIC, UNIT, WeightFunction.power(0.25),
                 WeightFunction("table", table=((1, Fraction(1, 7)), (2, Fraction(2)),
                                                (3, Fraction(1, 3)), (4096, Fraction(-5, 3)))))


@pytest.mark.parametrize("g", FLOAT_WEIGHTS, ids=lambda g: g.family)
def test_float_weight_is_the_rounded_exact_weight(g):
    assert g.floats(range(1, 5001)) == [float(g(m)) for m in range(1, 5001)]
    assert g.floats([]) == []
    for bad in ([0], [3, 0, 5]):
        with pytest.raises(ValueError, match="positive integers"):
            g.floats(bad)


@pytest.mark.parametrize("gamma", (0.001, 0.1, 0.3333, 0.5, 1.0, 2.5))
def test_power_float_weights_are_the_scalar_long_double_powers(gamma):
    # one array power rounds each weight as the scalar power does
    g = WeightFunction.power(gamma)
    ms = [*range(1, 5001), 2**53 + 1, 2**63 + 5, 2**64 + 3, 10**30 + 7]
    assert g.floats(ms) == [float(g(m)) for m in ms]


def test_harmonic_float_weight_rounds_large_m_once():
    ms = (2**53 - 1, 2**53 + 1, 2**64 + 3, 10**30 + 7)
    assert HARMONIC.floats(ms) == [float(Fraction(1, m)) for m in ms]


def test_weight_table_parsing(tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("2 1\n5 3/4\n")
    g = parse_weight(f"table:{f}")
    assert g(1) == 0 and g(2) == 1 and g(3) == 0
    assert g(5) == Fraction(3, 4) and g(6) == 0
    assert g.is_exact
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n2 2\n")
    with pytest.raises(ValueError):
        parse_weight(f"table:{bad}")
    with pytest.raises(ValueError):
        parse_weight("mystery")


def dense_table_series(g, top, shift=0):
    """Oracle: the table series summed over every m up to the largest listed."""
    total = 0.0
    for m in range(1, top + 1 - shift):
        total += float(g(m + shift)) * math.log1p(1.0 / m)
    return total


def test_weight_table_is_sparse(tmp_path):
    far = tmp_path / "far.txt"
    far.write_text("1000000000 1/2\n")
    t0 = time.perf_counter()
    g = parse_weight(f"table:{far}")
    assert time.perf_counter() - t0 < 0.1
    assert g(10 ** 9) == Fraction(1, 2) and g(1) == 0 and g(10 ** 9 + 1) == 0
    assert hash(g) == hash(parse_weight(f"table:{far}"))
    f = tmp_path / "w.txt"
    f.write_text("7 2/3\n1 1/3\n5 0\n40 -1/8\n")
    sparse = parse_weight(f"table:{f}")
    dense = table_weight([sparse(m) for m in range(1, 41)])
    assert [sparse(m) for m in range(1, 50)] == [dense(m) for m in range(1, 50)]
    for shift in (0, 1):
        want = dense_table_series(sparse, 40, shift)
        assert weight_log_series(sparse, shift) == (want, 0.0)
        assert weight_log_series(dense, shift) == (want, 0.0)
    for seed in (2, 3):
        x = DyadicStream(seed)
        assert x_nf(x, 30, sparse, TruncationFn(0.5)) == x_nf(x, 30, dense, TruncationFn(0.5))


def first_quotients(*ks):
    """[0; k_1, ..., k_r, 1, 1, ...]: at n = r, X_{n,f} sums the prefixes g(2) + ... + g(k_i)
    when f(n) >= max k_i."""
    return ContinuedFraction(0, ks, (1,))


WIDE = TruncationFn(-20)  # f(2) = 2540: no k_i below is clipped at n = 2


def test_weight_prefix_sums():
    assert x_nf(first_quotients(4), 1, HARMONIC, WIDE) == 0  # f(1) = 1: the empty sum
    assert x_nf(first_quotients(4, 1), 2, HARMONIC, WIDE) == \
        Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
    assert x_nf(first_quotients(1, 1), 2, HARMONIC, WIDE) == 0
    assert x_nf(first_quotients(10, 1), 2, UNIT, WIDE) == 9
    assert 1 + x_nf(first_quotients(5, 1), 2, HARMONIC, WIDE) == Fraction(137, 60)
    p = WeightFunction.power(0.5)
    assert float(x_nf(first_quotients(3, 1), 2, p, WIDE)) == pytest.approx(1 / 2 + 1 / 3)


def test_harmonic_prefix_sums_stop_at_their_bound(monkeypatch):
    monkeypatch.setattr(stats, "HARMONIC_PREFIX_LIMIT", 10)
    monkeypatch.setattr(farey, "_harmonic", ([0], [1]))
    assert x_nf(first_quotients(10, 1), 2, HARMONIC, WIDE) == \
        sum(Fraction(1, m) for m in range(2, 11))
    # the first clipped quotient past the bound in index order is named, not the largest
    with pytest.raises(ValueError, match="^the harmonic prefix sum to 12 is past its bound of 10$"):
        x_nf(first_quotients(3, 12, 11, 20), 4, HARMONIC, TruncationFn(5))  # f(4) = 24
    assert len(farey._harmonic[1]) == 11  # refused before it grew
    with pytest.raises(ValueError, match="^the harmonic prefix sum to 12 is past its bound of 10$"):
        x_nf(first_quotients(3, 10, 12, 20), 4, HARMONIC, TruncationFn(5))  # the bound itself is in
    assert x_nf(first_quotients(11, 1), 2, UNIT, WIDE) == 10  # only growing prefixes are bounded


def test_power_weights_stay_long_double():
    # the power family is evaluated and summed in extended precision; a float
    # anywhere on the way would round it to 53 bits
    p = WeightFunction.power(0.25)
    values = (p(3), x_nf(first_quotients(4, 1), 2, p, WIDE), x_nf(GOLDEN, 5, p, WIDE),
              x_nf(ALT23, 4, p, TruncationFn(0.5)))
    assert [type(v) for v in values] == [np.longdouble] * 4


def test_unit_and_table_prefix_sums_keep_no_growing_cache(monkeypatch):
    monkeypatch.setattr(stats, "_PREFIX_CACHE", {})
    huge = TruncationFn(-80)  # f(2) is about 9 * 10^12
    assert x_nf(first_quotients(10**12, 1), 2, UNIT, huge) == 10**12 - 1  # the closed form
    g = table_weight([Fraction(1, 3), 2, 0, Fraction(-5, 7), 1])
    assert x_nf(first_quotients(10**12, 1), 2, g, huge) == Fraction(16, 7)  # past the last m
    assert x_nf(first_quotients(5, 1), 2, g, huge) == Fraction(16, 7)
    assert x_nf(first_quotients(4, 1), 2, g, huge) == Fraction(9, 7)
    assert x_nf(first_quotients(9, 1), 2, table_weight([]), huge) == 0
    assert x_nf(first_quotients(60, 1), 2, HARMONIC, huge) == sum(
        Fraction(1, m) for m in range(2, 61))  # read off farey's prefix
    assert stats._PREFIX_CACHE == {}


def test_power_prefix_sums_stop_at_their_bound(monkeypatch):
    monkeypatch.setattr(stats, "POWER_PREFIX_LIMIT", 10)
    monkeypatch.setattr(stats, "_PREFIX_CACHE", {})
    p = WeightFunction.power(0.25)
    assert x_nf(first_quotients(10, 1), 2, p, WIDE) == sum(p(m) for m in range(2, 11))
    with pytest.raises(ValueError, match="^the power prefix sum to 12 is past its bound of 10$"):
        x_nf(first_quotients(3, 12, 11, 20), 4, p, TruncationFn(5))
    assert len(stats._PREFIX_CACHE[p]) == 11  # refused before it grew
    with pytest.raises(ValueError, match="^the power prefix sum to 12 is past its bound of 10$"):
        x_nf(first_quotients(3, 10, 12, 20), 4, p, TruncationFn(5))  # the bound itself is in


def test_weight_prefix_sums_under_racing_threads(monkeypatch):
    """README: "A caller may still call the library from its own threads: the
    per-process caches (...) grow so that a racing grower writes the same value."
    """
    # more threads than cores grow farey's harmonic prefix and a power prefix
    # at once, in small steps, each from cold every round
    monkeypatch.setattr(stats, "_PREFIX_CACHE", {})
    errors = []

    def worker(g, want, k):
        try:
            for top in range(k + 1, len(want) + 1, 8):
                assert x_nf(first_quotients(top, 1), 2, g, WIDE) == want[top - 1]
        except Exception as exc:  # reported through the list below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(20):
            monkeypatch.setattr(farey, "_harmonic", ([0], [1]))
            p = WeightFunction.power(0.25 + r / 64)
            for g, zero in ((HARMONIC, Fraction(0)), (p, np.longdouble(0))):
                want = list(itertools.accumulate((g(m) for m in range(2, 161)), initial=zero))
                threads = [threading.Thread(target=worker, args=(g, want, k)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_weight_c_examples():
    # c(beta) = g(terminal quotient of beta); the zero class counts as [1]
    assert HARMONIC(terminal_quotient(2, 5)) == Fraction(1, 2)
    assert HARMONIC(terminal_quotient(3, 7)) == Fraction(1, 3)
    assert terminal_quotient(0, 1) == 1


def test_terminal_quotient_matches_the_canonical_expansion():
    for q in range(2, 301):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                want = cf_of_rational((a, q)).preperiod[-1]
                assert terminal_quotient(a, q) == want
                assert terminal_quotient(a - q, q) == want  # the same class mod 1


@settings(max_examples=200, deadline=None)
@given(a=st.integers(-2 ** 200, 2 ** 200),
       q=st.one_of(st.just(1), st.integers(2, 2 ** 70), st.integers(2 ** 64, 2 ** 200)))
def test_terminal_quotient_property(a, q):
    g = math.gcd(a, q)
    a, q = a // g, q // g  # a coprime pair; a = 0 leaves the zero class 0/1
    want = cf_of_rational((a, q)).preperiod
    assert terminal_quotient(a, q) == (want[-1] if want else 1)


def test_mq_examples_golden():
    for route in ROUTES:
        assert mq_value(route(GOLDEN, 3), HARMONIC, exact=True) == 2


def test_mq_examples_alt():
    for route in ROUTES:
        assert mq_value(route(ALT23, 7), HARMONIC, exact=True) == Fraction(8, 3)


def test_mq_unit_q1():
    for x in (GOLDEN, ALT23, DyadicStream(5)):
        assert mq_value(mq_count_farey(x, (1,))[1], UNIT, exact=True) == 1
        assert mq_value(mq_count_closed(x, 1), UNIT, exact=True) == 1


def test_mq_unit_counts_intermediates():
    for seed in range(4):
        x = DyadicStream(seed)
        for Q in (10, 200, 900):
            counts = mq_count_closed(x, Q)
            assert mq_value(counts, UNIT, exact=True) == len(intermediates(x, Q))


def test_mq_triple_equality_exact_weights(tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("1 1/7\n2 2\n3 1/3\n")
    table_g = parse_weight(f"table:{f}")
    for seed in range(6):
        x = DyadicStream(seed)
        for Q in (50, 300):
            for g in (HARMONIC, UNIT, table_g):
                farey_v, inter_v, closed_v, ok = mq_all(x, Q, g)
                assert ok and farey_v == inter_v == closed_v
                assert isinstance(closed_v, Fraction)


def test_mq_power_weight_routes_close():
    g = WeightFunction.power(0.5)
    x = DyadicStream(9)
    farey_v, inter_v, closed_v, ok = mq_all(x, 200, g)
    assert ok
    assert float(farey_v) == pytest.approx(float(closed_v), rel=1e-12)
    assert float(inter_v) == pytest.approx(float(closed_v), rel=1e-12)


@pytest.mark.parametrize("g", FLOAT_WEIGHTS, ids=lambda g: g.family)
def test_float_mq_value_matches_the_per_term_sum(g):
    # oracle: one float(g(m)) per distinct terminal quotient, as it was summed
    for seed, Q in ((1, 50), (2, 400), (3, 5000)):
        counts = mq_count_closed(DyadicStream(seed), Q)
        want = math.fsum(c * float(g(m)) for m, c in sorted(counts.items()))
        assert mq_value(counts, g, exact=False) == want
    assert mq_value({}, g, exact=False) == 0.0


def test_mq_rational_endpoints_get_half_weight():
    # x = 1/2 inside F_3: the classes 1/3 and 2/3 see x on their interval
    # boundary and contribute half their weight on the brute-force route only
    x = cf_of_rational((1, 2))
    farey_v, inter_v, closed_v = (mq_value(route(x, 3), HARMONIC, exact=True)
                                  for route in ROUTES)
    assert closed_v == inter_v == Fraction(3, 2)
    assert farey_v == Fraction(23, 12)
    assert farey_v > closed_v


def test_mq_oracle_limit_skips_farey():
    farey_v, inter_v, closed_v, ok = mq_all(DyadicStream(1), 4000, HARMONIC)
    assert farey_v is None and ok and inter_v == closed_v


def test_main_term_series():
    # the series S = sum_m g(m) log(1+1/m) of the main term (12/pi^2) S log Q
    # independent oracle: partial sum plus integral tail bound for
    # sum_{m>=1} (1/m) log(1+1/m); the tail is below 1/(2M^2) + much less
    M = 200_000
    partial = math.fsum(math.log1p(1 / m) / m for m in range(1, M + 1))
    tail_hi = 1 / M - 1 / (2 * M ** 2)  # sum_{m>M} 1/m^2 bounds, crude
    s, bound = weight_log_series(HARMONIC)
    assert bound < 1e-10
    assert partial < s < partial + tail_hi
    assert s == pytest.approx(1.25775, abs=2e-5)
    for shift in (0, 1):
        with pytest.raises(ValueError, match="^series diverges for unit weights$"):
            weight_log_series(UNIT, shift)


def test_level_expectation_differs_from_naive_series():
    # per-level mean pairs g(m+1) with the threshold law, not g(m)
    series, bound = weight_log_series(HARMONIC, shift=1)
    probe = math.fsum(math.log1p(1 / m) / (m + 1) for m in range(1, 500_000))
    assert bound < 1e-5
    assert series == pytest.approx(probe, abs=1e-5)
    assert series == pytest.approx(0.788529, abs=2e-5)
    lvl = mq_level_expectation(HARMONIC)
    assert lvl == pytest.approx(series / math.log(2), rel=1e-12)
    naive, _ = weight_log_series(HARMONIC)
    assert series < naive  # same base, the shift strictly lowers every term


def per_term_head(g, ms, shift):
    """Oracle: the series head as it was summed, one float(g(m)) per term."""
    return math.fsum(float(g(m + shift)) * math.log1p(1.0 / m) for m in ms)


SERIES_WEIGHTS = (HARMONIC, WeightFunction.power(0.25), WeightFunction.power(0.001),
                  WeightFunction.power(2.5))


@pytest.mark.parametrize("g", SERIES_WEIGHTS, ids=lambda g: f"{g.family}-{g.gamma}")
@pytest.mark.parametrize("shift", [0, 1], ids=["1-0", "1-1"])  # the series' first m, shift
def test_series_head_matches_the_per_term_sum(g, shift):
    s0 = 1.0 if g.family == "harmonic" else 0.5 + g.gamma
    tail, bound = stats._series_tail(s0, 4096, shift)
    want = per_term_head(g, range(1, 4097), shift) + tail
    assert weight_log_series(g, shift) == (want, bound)
    if shift == 1:
        assert mq_level_expectation(g) == want / stats.LOG2


@pytest.mark.parametrize("g", [HARMONIC, WeightFunction.power(0.25)])
def test_shifted_series_matches_nsum_oracle(g):
    # slow oracle: the shifted series summed directly by Euler-Maclaurin at
    # 30 digits, against the head plus Hurwitz-zeta tail
    s0 = 1 if g.family == "harmonic" else 0.5 + g.gamma
    with mpmath.workdps(30):
        ref = mpmath.nsum(lambda m: (m + 1) ** -s0 * mpmath.log1p(1 / m),
                          [1, mpmath.inf], method="euler-maclaurin")
    series, bound = weight_log_series(g, shift=1)
    assert bound < 1e-30
    assert abs(series - float(ref)) <= bound + 1e-15
    with pytest.raises(ValueError):
        weight_log_series(g, shift=2)


def em_mp(s, x, terms):
    """Euler-Maclaurin for zeta(s, x) at the working precision: the sum with
    `terms` corrections and the first omitted term, which brackets the rest."""
    f = x ** -s
    parts, c = [x * f / (s - 1), f / 2], f * s / x
    for j in range(1, terms + 2):
        parts.append(mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * c)
        c *= (s + 2 * j - 1) * (s + 2 * j) / (x * x)
    return mpmath.fsum(parts[:-1]), parts[-1]


def direct_hurwitz(s, a, n=1024):
    """Oracle: zeta(s, a) at 60 digits as the sum of its first n terms plus
    the rest, bracketed by six Euler-Maclaurin corrections at a + n; returns
    (value, half-width).  The bracket is at least 50 times narrower than the
    remainder of stats._hurwitz at a, which 60 digits resolve.
    mpmath.zeta(s, a) is no oracle here: at a = 4097 it is about 6e-14 off
    at s = 10.5 and 2e-11 at s = 51.5, at 30 or 60 digits."""
    with mpmath.workdps(60):
        s, a = mpmath.mpf(s), mpmath.mpf(a)
        rest, omitted = em_mp(s, a + n, 6)
        return mpmath.fsum((k + a) ** -s for k in range(n)) + rest + omitted / 2, abs(omitted) / 2


@pytest.mark.parametrize("s", [1.5, 1.75, 2, 3, 5.5, 10.5, 25, 51.5])
@pytest.mark.parametrize("a", [4097, 4098])
def test_hurwitz_matches_the_direct_sum(s, a):
    value, rem = stats._hurwitz(s, a)
    ref, halfwidth = direct_hurwitz(s, a)
    assert abs(value - ref) <= 2 * math.ulp(value)
    with mpmath.workdps(60):  # the same expansion, without rounding at this size
        em, omitted = em_mp(mpmath.mpf(s), mpmath.mpf(a), 6)
        assert rem == pytest.approx(float(abs(omitted)), rel=1e-12)
        assert abs(ref - em) <= rem + halfwidth  # the remainder bounds the truncation
        assert mpmath.sign(ref - em) == mpmath.sign(omitted)  # and takes its sign


def mpmath_series_tail(s0, M, shift):
    """Oracle: the series tail as it was computed, from mpmath.zeta at 30 digits."""
    a, kmax = M + 1 + shift, 8
    with mpmath.workdps(30):
        tail = mpmath.mpf(0)
        for k in range(1, kmax + 1):
            term = mpmath.zeta(s0 + k, a) / k
            tail += -term if shift == 0 and k % 2 == 0 else term
        bound = mpmath.zeta(s0 + kmax + 1, a) / (kmax + 1)
        if shift:
            bound *= mpmath.mpf(a) / (a - 1)
        return float(tail), float(bound)


@pytest.mark.parametrize("s0", [0.501, 0.75, 1.0, 1.5, 2.75, 5.5, 10.0])
@pytest.mark.parametrize("shift", [0, 1])
def test_series_tail_matches_the_mpmath_formula(s0, shift):
    # mpmath.zeta's own error reaches 6e-13 at s0 = 10 (see direct_hurwitz)
    tail, bound = stats._series_tail(s0, 4096, shift)
    old_tail, old_bound = mpmath_series_tail(s0, 4096, shift)
    assert tail == pytest.approx(old_tail, rel=1e-12)
    assert bound == pytest.approx(old_bound, rel=1e-12)


@pytest.mark.parametrize("s0", [0.501, 1.0, 1.75, 5.5])
@pytest.mark.parametrize("shift", [0, 1])
def test_series_tail_bound_covers_the_truncation(s0, shift):
    # the omitted terms k >= 9 of the expansion, summed at 40 digits to k = 14
    # (each is below 1/4097 of the one before)
    a = 4097 + shift
    with mpmath.workdps(40):
        omitted = mpmath.fsum((-1 if shift == 0 and k % 2 == 0 else 1) * direct_hurwitz(s0 + k, a)[0] / k
                              for k in range(9, 15))
    _, bound = stats._series_tail(s0, 4096, shift)
    assert 0 < abs(omitted) <= bound


def test_indicator_sum():
    assert indicator_sum(GOLDEN, 1, 10) == 10
    assert indicator_sum(GOLDEN, 2, 10) == 0
    assert indicator_sum(ALT23, 3, 4) == 2
    with pytest.raises(ValueError):
        indicator_sum(GOLDEN, 0, 5)


def test_truncation_fn():
    f = TruncationFn(0.5)
    assert f(1) == 1
    assert f(4) == 5  # 4 * (log 4)^1 = 5.545...
    assert f(2) == int(2 * math.log(2))


def test_x_nf():
    assert x_nf(GOLDEN, 50, HARMONIC, TruncationFn(0.5)) == 0
    assert x_nf(ALT23, 4, HARMONIC, TruncationFn(0.5)) == Fraction(8, 3)
    table_g = table_weight([0, 1])
    assert x_nf(ALT23, 4, table_g, TruncationFn(0.5)) == 4


def test_x_nf_double_loop_crosscheck():
    f = TruncationFn(0.6)
    for seed in (2, 3):
        x = DyadicStream(seed)
        for n in (10, 25):
            direct = sum((HARMONIC(m) * indicator_sum(x, m, n)
                          for m in range(2, f(n) + 1)), Fraction(0))
            assert x_nf(x, n, HARMONIC, f) == direct


def x_nf_by_definition(x, n, g, f):
    """Oracle: sum over i <= n of g(2) + ... + g(min(a_i, f(n))), term by term,
    in Fractions for exact weights and in sequential long doubles for power."""
    zero = Fraction(0) if g.is_exact else np.longdouble(0)
    total = zero
    for a in x.quotients(1, n + 1):
        prefix = zero
        for m in range(2, min(a, f(n)) + 1):
            prefix = prefix + g(m)
        total = total + prefix
    return total


ORACLE_WEIGHTS = {
    "harmonic": HARMONIC, "unit": UNIT,
    "power:0.25": WeightFunction.power(0.25), "power:1.5": WeightFunction.power(1.5),
    "dense": table_weight([Fraction((-1) ** m, m * m + 1) for m in range(1, 200)]),
    "sparse": WeightFunction("table", table=((1, Fraction(3)), (2, Fraction(-1, 3)),
                                             (7, Fraction(2, 9)), (40, Fraction(-5, 8)),
                                             (10 ** 9, Fraction(1, 2)))),
}


@pytest.mark.parametrize("name", ORACLE_WEIGHTS)
def test_x_nf_matches_its_per_index_definition(name):
    g = ORACLE_WEIGHTS[name]
    for seed, n, delta in itertools.product(range(40), (1, 2, 10, 100, 300), (0.5, -0.4)):
        x, f = sample_stream(1, seed), TruncationFn(delta)
        got, want = x_nf(x, n, g, f), x_nf_by_definition(x, n, g, f)
        assert got == want and type(got) is type(want), (seed, n, delta)


def test_x_nf_sparse_table_past_a_huge_truncation_keeps_no_cache(monkeypatch):
    # sample 1296 of seed 1 has a_1023 = 92987749 under f(1100) = 49031785; a
    # per-index prefix of the table grew a cache of that length
    monkeypatch.setattr(stats, "_PREFIX_CACHE", {})
    x, g = sample_stream(1, 1296), ORACLE_WEIGHTS["sparse"]
    x.quotients(1, 1101)  # certified before the clock starts
    t0 = time.perf_counter()
    got = x_nf(x, 1100, g, TruncationFn(5))
    assert time.perf_counter() - t0 < 0.5
    ks = [min(a, 49031785) for a in x.quotients(1, 1101)]
    assert max(ks) == 49031785
    assert got == sum((v * sum(k >= m for k in ks) for m, v in g.table[1:]), Fraction(0))
    assert stats._PREFIX_CACHE == {}


def test_gauss_kuzmin_prob():
    assert gauss_kuzmin_prob(1) == pytest.approx(0.415037, abs=1e-6)
    assert gauss_kuzmin_prob(2) == pytest.approx(0.169925, abs=1e-6)
    for K in (1, 5, 40):
        partial = math.fsum(gauss_kuzmin_prob(k) for k in range(1, K + 1))
        want = 1 - math.log2((K + 2) / (K + 1))
        assert partial == pytest.approx(want, rel=1e-12)


def test_birkhoff_average():
    ind1 = lambda r: 1 if r == 1 else 0
    assert birkhoff_average(GOLDEN, ind1, 100) == 1
    ind2 = lambda r: 1 if r == 2 else 0
    assert birkhoff_average(ALT23, ind2, 100) == pytest.approx(1 / 2)
    assert birkhoff_average(DyadicStream(3), lambda r: 1, 64) == 1


def test_classical_stats():
    (cs,) = classical_stats(GOLDEN, [10])
    assert GOLDEN.continuant(10) == 89
    assert cs.levy_stat == pytest.approx(math.log(89) / 10)
    assert (cs.pq_sum, cs.pq_max) == (10, 1)
    (cs2,) = classical_stats(ALT23, [4])
    assert (cs2.pq_sum, cs2.pq_max) == (10, 3)
    assert math.pi ** 2 / (12 * math.log(2)) == pytest.approx(1.186569, abs=1e-6)


def classical_stats_at(x, n):
    """Slow oracle: a fresh pass over a_1..a_n for one n."""
    q_nm1, q_n = 0, 1
    pq_sum = 0
    pq_max = 0
    for i in range(1, n + 1):
        a = x.quotient(i)
        pq_sum += a
        pq_max = max(pq_max, a)
        q_nm1, q_n = q_n, a * q_n + q_nm1
    return ClassicalStats(n, math.log(q_n) / n, pq_sum, pq_max)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(["periodic:[0;|1]", "periodic:[2;1,3|4,1,2]",
                             "periodic:[0;7|100]", "dyadic:seed=7", "dyadic:seed=2026"]),
       # past n of about 150 a dyadic tail is past 512 bits, where Lehmer batches certify
       grid=st.lists(st.integers(2, 400) | st.integers(401, 2500), max_size=4, unique=True),
       at=st.integers(0, 4))
def test_classical_stats_grid_matches_one_pass_per_n(spec, grid, at):
    grid.insert(min(at, len(grid)), 1)  # unsorted, and n = 1 somewhere in it
    got = classical_stats(parse_stream(spec), grid)
    assert got == [classical_stats_at(parse_stream(spec), n) for n in grid]


def test_classical_stats_certifies_twice_per_grid_point(monkeypatch):
    # one slice read and one continuant per n: q_n is stepped back to, not walked
    calls = []
    quotient = DyadicStream.quotient
    monkeypatch.setattr(DyadicStream, "quotient", lambda x, n: calls.append(n) or quotient(x, n))
    classical_stats(DyadicStream(7), [2000, 250, 1000])
    assert sorted(calls) == [250, 250, 1000, 1000, 2000, 2000]


def test_double_exceedance():
    assert double_exceedance(GOLDEN, 50, 0.5) == 0
    spiky = ContinuedFraction(0, (100, 100), (1,))
    assert double_exceedance(spiky, 2, 0.5) == 2
    assert double_exceedance(spiky, 10 ** 4, 0.5) == 0
    # a_1..a_10 = 30, 5, 1, 100, 2, 7, 25, 2, 7, 25 against M (log M)^(1/2 + delta):
    # 0 at M = 1, so a_1 counts; 3.30, 13.6 and 23.0 at M = 3, 7, 10 and delta 1/2
    x = ContinuedFraction(0, (30, 5, 1, 100), (2, 7, 25))
    assert [double_exceedance(x, M, 0.5) for M in (1, 3, 7, 10)] == [1, 2, 3, 4]
