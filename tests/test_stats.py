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
import pytest

from cflab.cf import (DyadicStream, PeriodicStream, RationalStream, cf_of_rational,
                      intermediates)
from cflab.harness import (mq_all, mq_count_closed, mq_count_farey,
                           mq_count_intermediates, mq_value)
from cflab.rationals import FareyFraction
from cflab.stats import (TruncationFn, WeightFunction, birkhoff_average,
                         classical_stats, double_exceedance, gauss_kuzmin_prob,
                         hypothesis_check, indicator_sum, main_term,
                         mq_level_expectation, parse_weight, terminal_quotient,
                         weight_log_series, x_nf)

GOLDEN = PeriodicStream(0, (), (1,))
ALT23 = PeriodicStream(0, (2,), (3, 2))  # [0;2,3,2,3,...]
HARMONIC = WeightFunction.harmonic()
UNIT = WeightFunction.unit()
ROUTES = (mq_count_farey, mq_count_intermediates, mq_count_closed)


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


def dense_table_series(g, top, start=1, shift=0):
    """Oracle: the table series summed over every m up to the largest listed."""
    total = 0.0
    for m in range(start, top + 1 - shift):
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
    dense = WeightFunction.from_table([sparse(m) for m in range(1, 41)])
    assert [sparse(m) for m in range(1, 50)] == [dense(m) for m in range(1, 50)]
    for start, shift in itertools.product((1, 3), (0, 1)):
        want = dense_table_series(sparse, 40, start, shift)
        assert weight_log_series(sparse, start, shift) == (want, 0.0)
        assert weight_log_series(dense, start, shift) == (want, 0.0)
    assert hypothesis_check(sparse, 0.5, 3) == hypothesis_check(dense, 0.5, 3)
    for seed in (2, 3):
        x = DyadicStream(seed)
        assert x_nf(x, 30, sparse, TruncationFn(0.5)) == x_nf(x, 30, dense, TruncationFn(0.5))


def test_weight_prefix_sums():
    assert HARMONIC.sum_to(4) == Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
    assert HARMONIC.sum_to(1) == 0
    assert UNIT.sum_to(10) == 9
    assert HARMONIC.sum_to(5, start=1) == Fraction(137, 60)
    p = WeightFunction.power(0.5)
    assert float(p.sum_to(3)) == pytest.approx(1 / 2 + 1 / 3)


def test_weight_prefix_sums_under_racing_threads():
    # more threads than cores grow one unguarded prefix cache at once, in
    # small steps; a fresh table per round gives a fresh cache
    errors = []

    def worker(g, want, k):
        try:
            for top in range(k + 1, len(want) + 1, 8):
                assert g.sum_to(top) == want[top - 1]
        except Exception as exc:  # reported through the list below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(20):
            g = WeightFunction.from_table([Fraction(1, m + 3 + r) for m in range(1, 161)])
            want = list(itertools.accumulate((g(m) for m in range(2, 161)), initial=Fraction(0)))
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
    assert HARMONIC(terminal_quotient(FareyFraction(2, 5))) == Fraction(1, 2)
    assert HARMONIC(terminal_quotient(FareyFraction(3, 7))) == Fraction(1, 3)
    assert terminal_quotient(FareyFraction(0, 1)) == 1


def test_terminal_quotient_matches_the_canonical_expansion():
    for q in range(2, 301):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                want = cf_of_rational((a, q)).quotients[-1]
                assert terminal_quotient(FareyFraction(a, q)) == want
                assert terminal_quotient(Fraction(a, q)) == want


def test_mq_examples_golden():
    for route in ROUTES:
        assert mq_value(route(GOLDEN, 3), HARMONIC, exact=True) == 2


def test_mq_examples_alt():
    for route in ROUTES:
        assert mq_value(route(ALT23, 7), HARMONIC, exact=True) == Fraction(8, 3)


def test_mq_unit_q1():
    for x in (GOLDEN, ALT23, DyadicStream(5)):
        assert mq_value(mq_count_farey(x, 1), UNIT, exact=True) == 1
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


def test_mq_rational_endpoints_get_half_weight():
    # x = 1/2 inside F_3: the classes 1/3 and 2/3 see x on their interval
    # boundary and contribute half their weight on the brute-force route only
    x = RationalStream(1, 2)
    farey_v, inter_v, closed_v = (mq_value(route(x, 3), HARMONIC, exact=True)
                                  for route in ROUTES)
    assert closed_v == inter_v == Fraction(3, 2)
    assert farey_v == Fraction(23, 12)
    assert farey_v > closed_v


def test_mq_oracle_limit_skips_farey():
    farey_v, inter_v, closed_v, ok = mq_all(DyadicStream(1), 4000, HARMONIC)
    assert farey_v is None and ok and inter_v == closed_v


def test_main_term_series():
    # independent oracle: partial sum plus integral tail bound for
    # sum_{m>=1} (1/m) log(1+1/m); the tail is below 1/(2M^2) + much less
    M = 200_000
    partial = math.fsum(math.log1p(1 / m) / m for m in range(1, M + 1))
    tail_hi = 1 / M - 1 / (2 * M ** 2)  # sum_{m>M} 1/m^2 bounds, crude
    s, bound = weight_log_series(HARMONIC, start=1)
    assert bound < 1e-10
    assert partial < s < partial + tail_hi
    assert s == pytest.approx(1.25775, abs=2e-5)
    got = main_term(HARMONIC, 10 ** 6)
    assert got == pytest.approx(12 / math.pi ** 2 * s * math.log(10 ** 6), rel=1e-12)


def test_main_term_variants():
    with pytest.raises(ValueError):
        main_term(UNIT, 100)
    want = 12 / math.pi ** 2 * (math.log(3 / 2) / 2 + math.log(4 / 3) / 3)
    assert main_term(HARMONIC, math.e, cutoff_m=3) == pytest.approx(want)
    # the truncated variant starts at m=2; once the m=1 term is added back,
    # the gap to the infinite variant sits inside the tail integral
    g = WeightFunction.power(0.5)
    full = main_term(g, 100)
    trunc = main_term(g, 100, cutoff_m=5000)
    m1 = 12 / math.pi ** 2 * math.log(100) * float(g(1)) * math.log(2)
    gap_bound = 12 / math.pi ** 2 * math.log(100) * (5000 ** -1 + 5000 ** -2)
    assert 0 < full - trunc - m1 < gap_bound


def test_level_expectation_differs_from_naive_series():
    # per-level mean pairs g(m+1) with the threshold law, not g(m)
    series, bound = weight_log_series(HARMONIC, start=1, shift=1)
    probe = math.fsum(math.log1p(1 / m) / (m + 1) for m in range(1, 500_000))
    assert bound < 1e-5
    assert series == pytest.approx(probe, abs=1e-5)
    assert series == pytest.approx(0.788529, abs=2e-5)
    lvl = mq_level_expectation(HARMONIC)
    assert lvl == pytest.approx(series / math.log(2), rel=1e-12)
    naive, _ = weight_log_series(HARMONIC, start=1)
    assert series < naive  # same base, the shift strictly lowers every term


@pytest.mark.parametrize("g", [HARMONIC, WeightFunction.power(0.25)])
def test_shifted_series_matches_nsum_oracle(g):
    # slow oracle: the shifted series summed directly by Euler-Maclaurin at
    # 30 digits, against the head plus Hurwitz-zeta tail
    s0 = 1 if g.family == "harmonic" else 0.5 + g.gamma
    with mpmath.workdps(30):
        ref = mpmath.nsum(lambda m: (m + 1) ** -s0 * mpmath.log1p(1 / m),
                          [1, mpmath.inf], method="euler-maclaurin")
    series, bound = weight_log_series(g, start=1, shift=1)
    assert bound < 1e-30
    assert abs(series - float(ref)) <= bound + 1e-15
    with pytest.raises(ValueError):
        weight_log_series(g, start=1, shift=2)


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
    table_g = WeightFunction.from_table([0, 1])
    assert x_nf(ALT23, 4, table_g, TruncationFn(0.5)) == 4


def test_x_nf_double_loop_crosscheck():
    f = TruncationFn(0.6)
    for seed in (2, 3):
        x = DyadicStream(seed)
        for n in (10, 25):
            direct = sum((HARMONIC(m) * indicator_sum(x, m, n)
                          for m in range(2, f(n) + 1)), Fraction(0))
            assert x_nf(x, n, HARMONIC, f) == direct


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
    cs = classical_stats(GOLDEN, 10)
    assert cs.q_n == 89
    assert cs.levy_stat == pytest.approx(math.log(89) / 10)
    assert (cs.pq_sum, cs.pq_max) == (10, 1)
    cs2 = classical_stats(ALT23, 4)
    assert (cs2.pq_sum, cs2.pq_max) == (10, 3)
    assert math.pi ** 2 / (12 * math.log(2)) == pytest.approx(1.186569, abs=1e-6)


def test_double_exceedance():
    assert double_exceedance(GOLDEN, 50, 0.5) == 0
    spiky = PeriodicStream(0, (100, 100), (1,))
    assert double_exceedance(spiky, 2, 0.5) == 2
    assert double_exceedance(spiky, 10 ** 4, 0.5) == 0


def test_hypothesis_check():
    rep = hypothesis_check(HARMONIC, 0.5, 6)
    assert not rep.divergent
    assert rep.sum_g_over_m == pytest.approx(math.pi ** 2 / 6)
    assert hypothesis_check(UNIT, 0.5, 3).divergent
    powrep = hypothesis_check(WeightFunction.power(0.5), 0.5, 8)
    assert powrep.sum_g_over_m == pytest.approx(float(mpmath.zeta(2)))
    assert all(t >= 1 for t in powrep.trajectory)
    assert powrep.trajectory[-1] < powrep.trajectory[0]


def test_hypothesis_check_zero_prefix_is_nan(tmp_path):
    f = tmp_path / "w.txt"
    f.write_text("2 1\n")  # g(1) = 0, so the n = 1 ratio has lower sum 0
    traj = hypothesis_check(parse_weight(f"table:{f}"), 0.5, 4).trajectory
    assert math.isnan(traj[0])
    assert all(math.isfinite(t) for t in traj[1:])
