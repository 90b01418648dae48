"""Neighbors, indicators, row sums, expected counts, height sets."""

import math
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cflab import farey
from cflab.cf import (ContinuedFraction, DyadicStream, InvariantViolation, cf_of_rational,
                      intermediates)
from cflab.farey import (chi, chi_mask, cumulative_expected_count,
                         farey_neighbors,
                         farey_table, parse_height_set, row_sum_exact,
                         row_sum_formula)
from cflab.stats import terminal_quotient
from oracles import FareyFraction, enumerate_farey, expected_chi, index_of


def brute_neighbors(a, q):
    """Oracle: sort all of F_q over [0, 1] and read off the adjacent entries."""
    grid = sorted({Fraction(p, d) for d in range(1, q + 1) for p in range(d + 1)
                   if math.gcd(p, d) == 1})
    i = grid.index(Fraction(a, q))
    return grid[i - 1], grid[i + 1]


def test_neighbors_examples():
    assert farey_neighbors(FareyFraction(2, 5)) == (Fraction(1, 3), Fraction(1, 2))
    assert farey_neighbors(FareyFraction(1, 2)) == (Fraction(0), Fraction(1))
    assert farey_neighbors(FareyFraction(1, 5)) == (Fraction(0), Fraction(1, 4))


def test_neighbors_against_brute_force():
    for q in range(2, 41):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            assert farey_neighbors(FareyFraction(a, q)) == brute_neighbors(a, q)


def test_neighbors_height_one_rejected():
    with pytest.raises(ValueError):
        farey_neighbors(FareyFraction(0, 1))


def test_unimodularity_and_gap_f100():
    for beta in enumerate_farey(100):
        if beta.den == 1:
            continue
        lo, hi = farey_neighbors(beta)
        assert beta.num * lo.denominator - lo.numerator * beta.den == 1
        assert hi.numerator * beta.den - beta.num * hi.denominator == 1
        assert lo.denominator + hi.denominator == beta.den
        assert expected_chi(beta) == hi - lo


def test_mediant_ancestry_of_neighbor_triples():
    for beta in enumerate_farey(100):
        if beta.den == 1:
            continue
        lo, hi = farey_neighbors(beta)
        k_num = lo.numerator + hi.numerator
        k_den = lo.denominator + hi.denominator
        assert k_num % beta.num == 0 if beta.num else k_num == 0
        assert k_den % beta.den == 0
        if beta.num:
            assert k_num // beta.num == k_den // beta.den >= 1


def test_chi_examples():
    g = ContinuedFraction(0, (), (1,))
    assert chi(FareyFraction(2, 5), g) == 0
    assert chi(FareyFraction(2, 3), g) == 1
    assert chi(FareyFraction(0, 1), g) == 1
    assert chi(FareyFraction(2, 5), cf_of_rational((1, 3))) == Fraction(1, 2)


def test_a_class_is_an_int_pair_and_nothing_else():
    # "12" unpacks into two digits, yet is no pair of ints
    g = ContinuedFraction(0, (), (1,))
    for fn in (cf_of_rational, farey_neighbors, expected_chi, lambda beta: chi(beta, g)):
        assert fn((2, 5)) == fn(FareyFraction(2, 5))
        for bad in ("12", 1.5, None, Fraction(2, 5), 7):
            with pytest.raises(TypeError):
                fn(bad)


def test_enumerate_farey():
    assert [(f.num, f.den) for f in enumerate_farey(3)] == \
        [(0, 1), (1, 3), (1, 2), (2, 3)]
    f5 = list(enumerate_farey(5))
    assert len(f5) == 10 == len(farey_table(5))
    assert (f5[1].num, f5[1].den) == (1, 5)
    vals = [Fraction(f.num, f.den) for f in f5]
    assert vals == sorted(vals)


def test_totients():
    phi = farey._mobius_totient(12)[1]
    assert phi[1:] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_sieves_match_trial_division():
    phi = [sum(math.gcd(u, q) == 1 for u in range(1, q + 1)) for q in range(501)]
    for n in range(501):
        assert farey._mobius_totient(n)[1][1:n + 1] == phi[1:n + 1]
    limit = farey.FAREY_TABLE_LIMIT
    # mu and phi read off the least-factor sieve, against their definitions
    # over the trial-division primes of each n
    mu, phi = farey._mobius_totient(limit)
    for n in range(1, limit + 1):
        primes = trial_division_primes(n)
        squarefree = all(n % (p * p) for p in primes)
        assert mu[n] == (-1) ** len(primes) * squarefree, n
        assert phi[n] == math.prod(p - 1 for p in primes) * n // math.prod(primes), n


def test_lcm_up_to_matches_math_lcm():
    # crosses the prime powers 243, 256, 343, 512 and 529
    for n in range(601):
        assert farey._harmonic_prefix(n)[1][n] == math.lcm(*range(1, n + 1))


def test_expected_chi_examples():
    assert expected_chi(FareyFraction(2, 5)) == Fraction(1, 6)
    assert expected_chi(FareyFraction(1, 2)) == 1
    assert expected_chi(FareyFraction(0, 1)) == 1


def test_row_sums_exact():
    assert row_sum_exact(2) == 1
    assert row_sum_exact(3) == 1
    assert row_sum_exact(5) == Fraction(5, 6)
    # independent enumeration oracle
    for q in range(2, 301):
        total = sum(expected_chi(FareyFraction(a, q))
                    for a in range(1, q) if math.gcd(a, q) == 1)
        assert row_sum_exact(q) == total


def coprime_row_sum(q, lcm):
    """Oracle: the coprime sum (2/q) sum_{u<q, (u,q)=1} 1/u over lcm = lcm(1..q-1)."""
    s = sum(lcm // u for u in range(1, q) if math.gcd(u, q) == 1)
    return Fraction(2 * s, q * lcm)


def cold():
    """The harmonic prefix before any row is asked for."""
    return [0], [1]


def test_row_sum_exact_matches_coprime_sum(monkeypatch):
    monkeypatch.setattr(farey, "_harmonic", cold())
    lcm = 1
    for q in range(2, 1201):
        lcm = math.lcm(lcm, q - 1)
        assert row_sum_exact(q) == coprime_row_sum(q, lcm), q
    # 2310 = 2*3*5*7*11 and 4620 have 32 squarefree divisors
    for q in (2310, 4620, 4999, 5000):
        assert row_sum_exact(q) == coprime_row_sum(q, math.lcm(*range(1, q))), q
    assert len(farey._harmonic[0]) == len(farey._harmonic[1]) == farey.FAREY_TABLE_LIMIT


def test_row_sum_exact_any_call_order(monkeypatch):
    qs = [5000, 2, 3, 97, 4620, 1, 30, 4999, 64]
    monkeypatch.setattr(farey, "_harmonic", cold())
    ascending = {q: row_sum_exact(q) for q in sorted(qs)}
    monkeypatch.setattr(farey, "_harmonic", cold())
    assert {q: row_sum_exact(q) for q in qs} == ascending


def test_row_sum_exact_threads_racing_on_a_cold_prefix(monkeypatch):
    """README: "A caller may still call the library from its own threads: the
    per-process caches (...) grow so that a racing grower writes the same value."
    """
    orders = [[4000, 12, 2500], [7, 3001, 4000], [2500, 4000, 7], [3001, 12, 2310]]
    want = {}
    for order in orders:
        for q in order:
            want[q] = coprime_row_sum(q, math.lcm(*range(1, q)))
    got, errors = [], []

    def worker(order):
        try:
            got.append({q: row_sum_exact(q) for q in order})
        except Exception as exc:  # reported through the list below
            errors.append(exc)

    monkeypatch.setattr(farey, "_harmonic", cold())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == len(orders)
    assert all(v == want[q] for row in got for q, v in row.items())


def test_row_sum_exact_rejects_before_growing(monkeypatch):
    monkeypatch.setattr(farey, "_harmonic", cold())
    row_sum_exact(40)
    before = farey._harmonic
    for bad in (0, farey.FAREY_TABLE_LIMIT + 1):
        with pytest.raises(ValueError, match="outside"):
            row_sum_exact(bad)
        assert farey._harmonic is before and len(before[1]) == 40


def test_row_sum_formula_values():
    c0 = float(mpmath.euler)
    want5 = (8 / 25) * (math.log(5) + math.log(5) / 4 + c0)
    assert abs(row_sum_formula(5) - want5) < 1e-12
    assert abs(row_sum_formula(5) - 0.8285) < 5e-4
    want2 = 0.5 * (2 * math.log(2) + c0)
    assert abs(row_sum_formula(2) - want2) < 1e-12
    assert abs(row_sum_formula(2) - 0.9817) < 5e-4
    want7 = (2 * 6 / 49) * (math.log(7) + math.log(7) / 6 + c0)
    assert abs(row_sum_formula(7) - want7) < 1e-12


def trial_division_primes(q):
    """Oracle: the distinct primes of q by trial division."""
    primes, d = [], 2
    while d * d <= q:
        if q % d == 0:
            primes.append(d)
            while q % d == 0:
                q //= d
        d += 1
    return primes + [q] * (q > 1)


def test_factorize_matches_trial_division():
    limit = farey.FAREY_TABLE_LIMIT
    assert [farey._factorize(q) for q in range(1, limit + 1)] == \
        [trial_division_primes(q) for q in range(1, limit + 1)]


def test_euler_gamma_literal():
    assert farey.EULER_GAMMA == float(mpmath.euler)


def test_cumulative_expected_count():
    assert cumulative_expected_count(2)[0] == 1
    assert cumulative_expected_count(3)[0] == 2
    assert cumulative_expected_count(4)[0] == Fraction(8, 3)
    exact, asym = cumulative_expected_count(50)
    assert asym == pytest.approx(6 / math.pi ** 2 * math.log(50) ** 2)
    assert exact > 0


def test_cumulative_expected_count_matches_row_sums():
    # the row-by-row sum is the oracle for the divisor sum
    total = Fraction(0)
    for Q in range(2, 2001):
        total += row_sum_exact(Q)
        if Q <= 300 or Q == 2000:
            assert cumulative_expected_count(Q)[0] == total


def squaring_count(Q):
    """Oracle: the divisor sum as it was computed, squaring each L // k."""
    mu = [1] * (Q + 1)
    for p in range(2, Q + 1):
        if all(p % r for r in range(2, math.isqrt(p) + 1)):
            mu[p::p] = [-v for v in mu[p::p]]
            mu[p * p::p * p] = [0] * len(mu[p * p::p * p])
    L = math.lcm(*range(1, Q + 1))
    total = 0
    for d in range(1, Q + 1):
        n = Q // d
        a = sum(L // k for k in range(1, n + 1))
        b = sum((L // k) ** 2 for k in range(1, n + 1))
        total += mu[d] * ((a * a - b) // (d * d))
    return Fraction(total, L * L)


def test_cumulative_expected_count_matches_the_squaring_loop():
    for Q in (*range(2, 301), 2000, 5000):
        assert cumulative_expected_count(Q)[0] == squaring_count(Q), Q


def test_exact_sums_reject_heights_beyond_limit():
    limit = farey.FAREY_TABLE_LIMIT
    for bad in (0, limit + 1, 3_000_000):
        with pytest.raises(ValueError, match="outside"):
            row_sum_exact(bad)
    for bad in (1, limit + 1):
        with pytest.raises(ValueError, match="outside"):
            cumulative_expected_count(bad)
        with pytest.raises(ValueError, match="outside"):  # its primes come from a sieve to limit
            row_sum_formula(bad)
    with pytest.raises(ValueError, match="limit"):
        next(enumerate_farey(limit + 1))


def test_farey_table_matches_enumeration():
    table = farey_table(50)
    listed = list(enumerate_farey(50))
    assert len(table) == len(listed)
    index = index_of(table)
    for beta in listed:
        i = index[beta]
        assert (table.num[i], table.den[i]) == (beta.num, beta.den)
        if beta.den == 1:
            continue
        lower, upper = farey_neighbors(beta)
        assert (table.lo_num[i], table.lo_den[i]) == \
            (lower.numerator, lower.denominator)
        assert (table.hi_num[i], table.hi_den[i]) == \
            (upper.numerator, upper.denominator)


def check_table_against_oracle(table, Q):
    """Every field of every entry, from the scalar routines."""
    listed = list(enumerate_farey(Q))
    assert table.Q == Q and len(table) == len(listed)
    keys = [(int(q), int(a)) for a, q in zip(table.num, table.den)]
    assert keys == sorted({(b.den, b.num) for b in listed})
    assert (table.lo_f[0], table.hi_f[0], table.terminal[0]) == (-math.inf, math.inf, 1)
    for i in range(1, len(table)):
        beta = FareyFraction(int(table.num[i]), int(table.den[i]))
        lower, upper = farey_neighbors(beta)
        lo = (int(table.lo_num[i]), int(table.lo_den[i]))
        hi = (int(table.hi_num[i]), int(table.hi_den[i]))
        assert lo == (lower.numerator, lower.denominator)
        assert hi == (upper.numerator, upper.denominator)
        assert table.lo_f[i] == lo[0] / lo[1] and table.hi_f[i] == hi[0] / hi[1]
        assert table.terminal[i] == terminal_quotient(beta.num, beta.den)


def test_farey_table_fields_fresh_and_as_prefix():
    for Q in [*range(1, 41), 300]:
        check_table_against_oracle(farey_table(Q), Q)


def test_farey_table_rejects_bad_q():
    for Q in (0, -1):
        with pytest.raises(ValueError, match="Q must be >= 1"):
            farey_table(Q)
    with pytest.raises(ValueError, match="limit"):
        farey_table(farey.FAREY_TABLE_LIMIT + 1)


def test_farey_table_short_tree_is_an_invariant_violation(monkeypatch):
    # one column too many for the tree to fill: an exception, not an assert
    # that python -O would strip
    sieve = farey._mobius_totient
    monkeypatch.setattr(farey, "_mobius_totient", lambda n: (sieve(n)[0], [*sieve(n)[1], 1]))
    with pytest.raises(InvariantViolation, match="F_10 has 33 classes, the tree gave 32"):
        farey_table(10)


def test_farey_table_concurrent_growth():
    # more threads than cores, growing the held table while others read it
    orders = [37, 120, 5, 260, 80, 200, 1, 150]
    sizes = {Q: len(list(enumerate_farey(Q))) for Q in orders}
    errors = []

    def worker(k):
        try:
            for Q in orders[k:] + orders[:k]:
                t = farey_table(Q)
                assert t.Q == Q and len(t) == sizes[Q]
        except Exception as exc:  # reported through the list below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_chi_mask_matches_scalar_chi():
    table = farey_table(50)
    for seed in range(6):
        x = DyadicStream(seed)
        mask = chi_mask(table, x)
        for i in range(len(table)):
            beta = FareyFraction(int(table.num[i]), int(table.den[i]))
            assert bool(mask[i]) == (chi(beta, x) == 1)


def test_chi_mask_margin_invariance():
    # verdicts are exact for any guard band wider than the float rounding
    # of the endpoint grid, so shrinking it five orders must change nothing
    table = farey_table(80)
    for seed in (11, 12):
        x = DyadicStream(seed)
        ref = chi_mask(table, x, margin=1e-6)
        assert np.array_equal(ref, chi_mask(table, x, margin=1e-13))
        assert np.array_equal(ref, chi_mask(table, x, margin=1e-3))


def test_chi_membership_equivalence_small():
    table = farey_table(40)
    for seed in range(8):
        x = DyadicStream(seed)
        mask = chi_mask(table, x)
        members = {(num, den) for *_, num, den in intermediates(x, 40)}
        got = {(int(table.num[i]), int(table.den[i]))
               for i in np.nonzero(mask)[0]}
        assert got == members


def test_parse_height_set(tmp_path):
    assert 7 in parse_height_set("primes")
    assert 9 not in parse_height_set("primes")
    m = parse_height_set("mod:4,1")
    assert 5 in m and 8 not in m
    p = tmp_path / "qs.txt"
    p.write_text("4\n9\n")
    fs = parse_height_set(f"file:{p}")
    assert 4 in fs and 9 in fs and 5 not in fs
    for bad in ("mod:0,0", "mod:3,3", "mod:3,7", "nonsense"):
        with pytest.raises(ValueError):
            parse_height_set(bad)


def test_height_set_mask_agrees_with_contains():
    prime = [q >= 2 and all(q % p for p in range(2, q)) for q in range(41)]
    want = {"all": [q >= 1 for q in range(41)], "primes": prime,
            "mod:1,0": [q >= 1 for q in range(41)],
            "mod:3,1": [q >= 1 and q % 3 == 1 for q in range(41)],
            "mod:3,2": [q >= 1 and q % 3 == 2 for q in range(41)]}
    for spec, member in want.items():
        hs = parse_height_set(spec)
        assert [q in hs for q in range(41)] == member
