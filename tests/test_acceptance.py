"""Acceptance suite: one test per numbered criterion, exact seeds, stated
tolerances.  Each test prints a single `criterion NN PASS|FAIL` line with the
measured quantity; statistical criteria are asserted at their stated bands,
never loosened."""

import math
from fractions import Fraction

from cflab.farey import (chi_mask, cumulative_expected_count,
                         farey_neighbors, farey_table,
                         row_sum_exact, row_sum_formula)
from cflab.harness import (ExperimentConfig, aggregate, mq_all, mq_count_closed,
                           mq_value, run, sample_stream)
from cflab.cf import intermediates
from cflab.stats import WeightFunction, weight_log_series
from oracles import (csv_rows, enumerate_farey, expected_chi, gauss_kuzmin_prob, index_of,
                     rows_to_csv)

KL_CONSTANT = math.pi ** 2 / (12 * math.log(2))   # a.e. limit of log(q_n)/n
LEVEL_RATE = 12 * math.log(2) / math.pi ** 2      # a.e. limit of N(Q,x)/log Q


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_01_triple_method_equality_exact():
    weights = (WeightFunction.harmonic(), WeightFunction.unit())
    mismatches = 0
    cases = 0
    for i in range(200):
        x = sample_stream(42, i)
        for Q in (100, 500, 2000):
            for g in weights:
                farey_v, inter_v, closed_v, agree = mq_all(x, Q, g)
                cases += 1
                if farey_v is None or not agree or farey_v != closed_v:
                    mismatches += 1
    line = _report(1, mismatches == 0,
                   f"exact three-route equality, {mismatches} mismatches "
                   f"over {cases} (sample, Q, weight) cases")
    assert mismatches == 0, line


def test_criterion_02_indicator_matches_enumeration():
    table = farey_table(100)
    index = index_of(table)
    mismatches = 0
    for i in range(1000):
        x = sample_stream(1042, i)
        mask = chi_mask(table, x)
        member = [False] * len(table.num)
        for _, _, num, den in intermediates(x, 100):
            member[index[(num, den)]] = True
        mismatches += sum(1 for a, b in zip(mask, member) if bool(a) != b)
    line = _report(2, mismatches == 0,
                   f"indicator vs enumeration over F_100 x 1000 samples, "
                   f"{mismatches} mismatches")
    assert mismatches == 0, line


def test_criterion_03_farey_neighbor_exactness():
    bad = 0
    checked = 0
    for beta in enumerate_farey(500):
        checked += 1
        if beta.den == 1:
            if expected_chi(beta) != 1:
                bad += 1
            continue
        lo, hi = farey_neighbors(beta)
        uni = (beta.num * lo.denominator - lo.numerator * beta.den == 1
               and hi.numerator * beta.den - beta.num * hi.denominator == 1)
        if not uni or expected_chi(beta) != hi - lo:
            bad += 1
    line = _report(3, bad == 0,
                   f"unimodularity and exact expected measure on all "
                   f"{checked} classes of F_500, {bad} failures")
    assert bad == 0, line


def test_criterion_04_row_sum_formula_accuracy():
    spot = row_sum_exact(5)
    worst = 0.0
    for q in range(10, 2001):
        ratio = row_sum_formula(q) / float(row_sum_exact(q))
        worst = max(worst, abs(ratio - 1))
    ok = worst <= 0.05 and spot == Fraction(5, 6)
    line = _report(4, ok,
                   f"smooth/exact row sums, worst relative error "
                   f"{worst:.4%} over 10<=q<=2000, spot value q=5 -> {spot}")
    assert ok, line


def test_criterion_05_levy_median():
    rows = run(ExperimentConfig("levy", samples=500, seed=7, params={"grid": (100,)}))
    (s,) = [s for s in aggregate(rows) if s.stat == "levy_stat"]
    rel = abs(s.median / KL_CONSTANT - 1)
    line = _report(5, rel <= 0.02,
                   f"median log(q_n)/n = {s.median:.6f} vs {KL_CONSTANT:.6f}, "
                   f"off by {rel:.3%} (band 2%)")
    assert rel <= 0.02, line


def test_criterion_06_quotient_distribution_pooled():
    # exact frequencies hits/100, read back off the CSV as Fractions
    rows = csv_rows(run(ExperimentConfig(
        "gauss_kuzmin", samples=500, seed=7, params={"grid": (1, 2, 3), "n": 100}, exact=True)))
    total = 500 * 100
    devs = []
    ok = True
    for k in (1, 2, 3):
        hits = sum(r.value * 100 for r in rows if r.param == k)
        freq = float(hits) / total
        p = gauss_kuzmin_prob(k)
        sd = math.sqrt(p * (1 - p) / total)
        devs.append(f"k={k}: {abs(freq - p) / sd:.2f}sd")
        ok = ok and abs(freq - p) <= 3 * sd
    line = _report(6, ok, "pooled quotient frequencies, " + ", ".join(devs)
                   + " (band 3sd)")
    assert ok, line


def test_criterion_07_level_count_rate():
    Q = 10 ** 6
    rows = run(ExperimentConfig("nq", samples=500, seed=2026,
                                params={"grid": (Q,)}))
    (s,) = [s for s in aggregate(rows) if s.stat == "N"]
    mean_rate = s.mean / math.log(Q)
    rel = abs(mean_rate / LEVEL_RATE - 1)
    line = _report(7, rel <= 0.05,
                   f"mean N(Q,x)/log Q = {mean_rate:.4f} vs {LEVEL_RATE:.4f}, "
                   f"off by {rel:.3%} (band 5%)")
    assert rel <= 0.05, line


def test_criterion_08_weighted_count_headline():
    Q = 10 ** 6
    g = WeightFunction.harmonic()
    series, tail = weight_log_series(g)
    assert tail < 1e-10
    target = 12 / math.pi ** 2 * series
    vals = []
    for i in range(500):
        counts = mq_count_closed(sample_stream(2026, i), Q)
        vals.append(mq_value(counts, g, exact=False) / math.log(Q))
    mean = math.fsum(vals) / len(vals)
    rel = abs(mean / target - 1)
    line = _report(8, rel <= 0.05,
                   f"mean M_Q(x)/log Q = {mean:.4f} vs (12/pi^2)*"
                   f"{series:.5f} = {target:.4f}, off by {rel:.3%} (band 5%)")
    assert rel <= 0.05, line


def test_criterion_09_indicator_sum_dispersion():
    rows = run(ExperimentConfig("variance", samples=2000, seed=99,
                                params={"n": 100}))
    ok = True
    parts = []
    for s in aggregate(rows):
        ratio = s.stddev ** 2 / s.mean
        parts.append(f"m={s.param}: {ratio:.3f}")
        ok = ok and ratio <= 10
    line = _report(9, ok, "Var/Mean of indicator sums, " + ", ".join(parts)
                   + " (bound 10)")
    assert ok, line


def test_criterion_10_weak_quotient_dependence():
    n = 100_000
    pairs = {5: [], 10: []}
    for i in range(n):
        x = sample_stream(10, i)
        a1 = x.quotient(1)
        pairs[5].append((a1, x.quotient(6)))
        pairs[10].append((a1, x.quotient(11)))
    worst = 0.0
    for k, ps in pairs.items():
        for r in (1, 2):
            for s in (1, 2):
                joint = sum(1 for a, b in ps if (a, b) == (r, s)) / n
                p1 = sum(1 for a, _ in ps if a == r) / n
                p2 = sum(1 for _, b in ps if b == s) / n
                worst = max(worst, abs(joint - p1 * p2))
    line = _report(10, worst <= 0.01,
                   f"max |joint - product| = {worst:.5f} over r,s in {{1,2}}, "
                   f"k in {{5,10}}, 10^5 samples (bound 0.01)")
    assert worst <= 0.01, line


def test_criterion_11_cumulative_expected_count():
    spots = [cumulative_expected_count(Q)[0] for Q in (2, 3, 4)]
    spots_ok = spots == [1, 2, Fraction(8, 3)]
    exact, leading = cumulative_expected_count(2000)
    ratio = float(exact) / leading
    ratio_ok = 0.8 <= ratio <= 1.2
    ok = spots_ok and ratio_ok
    line = _report(11, ok,
                   f"exact mass / (6/pi^2)(log Q)^2 = {ratio:.4f} at Q=2000 "
                   f"(band [0.8, 1.2]), spot values Q=2,3,4 -> "
                   f"{spots[0]}, {spots[1]}, {spots[2]}")
    assert ok, line


def test_criterion_12_total_count_median():
    Q = 10 ** 6
    rows = run(ExperimentConfig("count_intermediates", samples=500, seed=2026,
                                params={"grid": (Q,)}))
    (s,) = aggregate(rows)
    scale = 12 / math.pi ** 2 * math.log(Q) * math.log(math.log(Q))
    ratio = s.median / scale
    ok = 0.5 <= ratio <= 1.5
    line = _report(12, ok,
                   f"median count / ((12/pi^2) log Q log log Q) = {ratio:.4f} "
                   f"(band [0.5, 1.5]); mean/scale = {s.mean / scale:.4f} "
                   f"reported, not asserted")
    assert ok, line


def test_criterion_13_thread_determinism():
    texts = set()
    for t in (1, 2, 8):
        cfg = ExperimentConfig("mq", samples=30, seed=123,
                               params={"grid": (100, 500)}, threads=t)
        texts.add(rows_to_csv(run(cfg)))
    line = _report(13, len(texts) == 1,
                   f"CSV bytes across threads 1/2/8: "
                   f"{len(texts)} distinct output(s)")
    assert len(texts) == 1, line
