"""Canonical expansions, convergents, streams, cutoff and intermediate
fraction enumeration."""

import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cflab.cf
from cflab.cf import (M64, ContinuedFraction, DyadicStream, InvariantViolation,
                      NeedsMoreBits, OutOfQuotients, PeriodicStream,
                      QuotientCapExceeded, RationalStream, cf_of_rational,
                      compare_real_rational, convergents, cutoff,
                      intermediates, parse_stream, quotient, value_of_cf)
from cflab.rationals import mediant, reduce_mod1


def euclid_expansion(p, q):
    """Independent oracle: plain Euclidean division, no canonical fixup."""
    a0 = p // q
    r = p - a0 * q
    out = []
    while r:
        p, q = q, r
        a = p // q
        r = p - a * q
        out.append(a)
    return a0, out


def test_cf_examples():
    assert str(cf_of_rational((355, 113))) == "[3;7,16]"
    assert cf_of_rational((1, 2)) == ContinuedFraction(0, (2,))
    assert cf_of_rational((2, 5)) == ContinuedFraction(0, (2, 2))
    assert cf_of_rational((7, 1)) == ContinuedFraction(7, ())


def test_cf_terminal_quotient_at_least_two():
    for q in range(2, 80):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            cf = cf_of_rational((p, q))
            assert cf.quotients[-1] >= 2
            a0, rest = euclid_expansion(p, q)
            assert (cf.a0, list(cf.quotients)) == (a0, rest)


def test_exceptions_survive_a_pickle_round_trip():
    # worker processes send their exceptions back pickled
    for exc in (OutOfQuotients(5), NeedsMoreBits("quotient 3 out of budget"),
                QuotientCapExceeded("quotient 2 above cap"),
                InvariantViolation("methods_agree failed on 2 rows")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)
    assert str(OutOfQuotients(5)) == "expansion ends after 5 partial quotients"
    assert pickle.loads(pickle.dumps(OutOfQuotients(5))).length == 5


def test_cf_validation():
    with pytest.raises(ValueError):
        ContinuedFraction(0, (2, 1))
    with pytest.raises(ValueError):
        ContinuedFraction(0, (0, 2))


def test_value_of_cf():
    assert value_of_cf(ContinuedFraction(0, (2, 3))) == Fraction(3, 7)
    assert value_of_cf(ContinuedFraction(0, (2,))) == Fraction(1, 2)


def test_roundtrip_exhaustive_height_500():
    for q in range(1, 501):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            cf = cf_of_rational((p, q))
            assert value_of_cf(cf) == Fraction(p, q)


def test_convergents_golden():
    g = PeriodicStream(0, (), (1,))
    cs = convergents(g, 4)
    assert [(c.p, c.q) for c in cs] == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5)]
    assert cs[2].p * cs[1].q - cs[1].p * cs[2].q == -1


def test_convergents_rational():
    x = RationalStream(355, 113)
    cs = convergents(x, 10)
    assert [(c.p, c.q) for c in cs] == [(3, 1), (22, 7), (355, 113)]


def test_convergents_determinant_identity():
    for spec in ("periodic:[0;|1]", "periodic:[0;2|3,2]", "rational:355/113",
                 "dyadic:seed=5"):
        x = parse_stream(spec)
        cs = convergents(x, 8)
        for n in range(1, len(cs)):
            det = cs[n].p * cs[n - 1].q - cs[n - 1].p * cs[n].q
            assert det == (-1) ** (n - 1)


def test_quotient_streams():
    g = PeriodicStream(0, (), (1,))
    assert all(quotient(g, n) == 1 for n in range(1, 30))
    x = RationalStream(2, 5)
    assert quotient(x, 1) == 2 and quotient(x, 2) == 2
    with pytest.raises(OutOfQuotients):
        quotient(x, 3)
    y = PeriodicStream(0, (2,), (3, 2))
    assert [quotient(y, n) for n in range(1, 6)] == [2, 3, 2, 3, 2]


def test_periodic_validation():
    with pytest.raises(ValueError):
        PeriodicStream(0, (), ())
    with pytest.raises(ValueError):
        PeriodicStream(0, (0,), (1,))


def test_dyadic_endpoint_prefix_oracle():
    # 5/8 = [0;1,1,1,2] and 11/16 = [0;1,2,5] share only a_1 = 1, so a
    # bracketing interval with those endpoints certifies exactly one quotient
    lo = cf_of_rational((5, 8))
    hi = cf_of_rational((11, 16))
    assert list(lo.quotients) == [1, 1, 1, 2]
    assert list(hi.quotients) == [1, 2, 5]
    common = 0
    for a, b in zip(lo.quotients, hi.quotients):
        if a != b:
            break
        common += 1
    assert common == 1


def restart_certified(x, held=()):
    """Full-restart oracle: the longest common prefix of the canonical
    expansions of both interval endpoints, never shorter than `held`."""
    lo, hi = (cf_of_rational(e) for e in x.interval())
    common = []
    if lo.a0 == hi.a0:
        for a, b in zip(lo.quotients, hi.quotients):
            if a != b:
                break
            common.append(a)
    assert tuple(common[:len(held)]) == tuple(held[:len(common)])
    return max(tuple(common), tuple(held), key=len)


def assert_grows_like_oracle(x, blocks):
    held = restart_certified(x)
    assert x.certified() == held
    for _ in range(blocks):
        x._grow(1)
        held = restart_certified(x, held)
        assert x.certified() == held


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, M64), first=st.sampled_from([0, 1, 3, 15]),
       blocks=st.integers(1, 12))
def test_dyadic_certifier_matches_restart_oracle(seed, first, blocks):
    x = DyadicStream(seed)
    x._grow(first)  # several blocks before one certification pass
    assert_grows_like_oracle(x, blocks)


def test_dyadic_certifier_matches_restart_oracle_deep():
    x = DyadicStream(0x5EED)
    assert_grows_like_oracle(x, 105)
    assert len(x.certified()) >= 2000


@pytest.mark.parametrize("words", [
    [0] * 4,                                  # lower endpoint 0: no quotient
    [M64] * 4,                                # upper endpoint 1: a0 differs
    [0xC000000000000000] + [0] * 3,           # lower endpoint 3/4 = [0;1,3]
    [0x8000000000000000] + [0] * 3,           # 1/2 inside every interval
    [0xBFFFFFFFFFFFFFFF] + [M64] * 3,         # upper endpoint 3/4
    [0xAAAAAAAAAAAAAAAA] + [0] * 3,           # one huge quotient, then 2/3 - e
    [0xFFFFFFFFFFFFFFFE] + [M64] * 3,         # upper endpoint [0;1,2^64-1]
])
def test_dyadic_certifier_canonical_edges(words, monkeypatch):
    blocks = iter(words)
    monkeypatch.setattr(cflab.cf, "mix64", lambda z: next(blocks))
    assert_grows_like_oracle(DyadicStream(0), len(words) - 1)


def test_dyadic_quotient_cap(monkeypatch):
    # x lies about 2^-190 below 1/3 = [0;3], so a_2 is about 2^186
    blocks = itertools.chain([0x5555555555555555] * 2 + [0x5555555555555554],
                             itertools.repeat(7))
    monkeypatch.setattr(cflab.cf, "mix64", lambda z: next(blocks))
    x = DyadicStream(0)
    x._grow(2)
    assert x.certified() == (3,)
    with pytest.raises(QuotientCapExceeded):
        x.quotient(2)
    assert x.certified() == (3,)


def test_dyadic_tail_below_one_is_an_invariant_violation():
    x = DyadicStream(5)
    a, b = x._tail
    x._tail = (b, a)
    with pytest.raises(InvariantViolation):
        x._grow(1)


def test_dyadic_stream_starts_with_one_block():
    assert DyadicStream(17).bits == 64


def test_dyadic_budget_exhausted(monkeypatch):
    twin = DyadicStream(17)
    twin._grow((1 << 15) // 64)
    lo = twin.interval()[0]  # x - lo < 2^-32768
    monkeypatch.setattr(DyadicStream, "MAX_BITS", 1 << 14)
    x = DyadicStream(17)
    with pytest.raises(NeedsMoreBits):
        x.quotient(10 ** 6)
    assert x.bits == 1 << 14
    y = DyadicStream(17)
    with pytest.raises(NeedsMoreBits):
        y.compare_fraction(lo)
    assert y.bits == 1 << 14


def test_dyadic_determinism_and_stability():
    x1 = DyadicStream(999)
    x2 = DyadicStream(999)
    first = [quotient(x1, n) for n in range(1, 20)]
    assert first == [quotient(x2, n) for n in range(1, 20)]
    # force deep refinement, earlier quotients must not move
    assert quotient(x2, 200) >= 1
    assert first == [quotient(x2, n) for n in range(1, 20)]
    assert x2.bits > x1.bits


def test_dyadic_interval_brackets():
    x = DyadicStream(7)
    quotient(x, 10)
    lo, hi = x.interval()
    assert 0 <= lo < hi <= 1
    assert hi - lo == Fraction(1, 2 ** x.bits)


def test_compare_fraction_never_equal():
    x = DyadicStream(3)
    for r in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(17, 101)):
        assert x.compare_fraction(r) in (-1, 1)
    lo, hi = x.interval()
    assert x.compare_fraction(lo - 1) == 1
    assert x.compare_fraction(hi + 1) == -1


def test_compare_real_rational():
    g = PeriodicStream(0, (), (1,))
    assert compare_real_rational(g, Fraction(1, 2)) > 0
    assert compare_real_rational(g, Fraction(2, 3)) < 0
    x = RationalStream(2, 5)
    assert compare_real_rational(x, Fraction(2, 5)) == 0
    assert compare_real_rational(x, Fraction(1, 3)) > 0


def test_cutoff_examples():
    g = PeriodicStream(0, (), (1,))
    c3 = cutoff(g, 3)
    assert (c3.N, c3.a, c3.terminated) == (3, 1, False)
    c1 = cutoff(g, 1)
    assert (c1.N, c1.a) == (1, 1)
    y = PeriodicStream(0, (2,), (3, 2))
    c7 = cutoff(y, 7)
    assert (c7.N, c7.a) == (2, 3)


def test_cutoff_invariants_on_samples():
    for seed in range(5):
        x = DyadicStream(seed)
        for Q in (10, 100, 2500):
            cut = cutoff(x, Q)
            cs = convergents(x, cut.N)
            q = [c.q for c in cs]
            q_nm1 = q[cut.N - 1] if cut.N >= 1 else 0
            q_nm2 = q[cut.N - 2] if cut.N >= 2 else (1 if cut.N == 1 else 0)
            assert q_nm1 + q_nm2 <= Q < q[cut.N] + q_nm1
            assert cut.a * q_nm1 + q_nm2 <= Q < (cut.a + 1) * q_nm1 + q_nm2
            assert 1 <= cut.a <= quotient(x, cut.N)


def test_cutoff_rational_termination():
    x = RationalStream(3, 7)  # [0;2,3]
    cut = cutoff(x, 100)
    assert cut.terminated
    assert (cut.N, cut.a) == (2, 3)
    tame = cutoff(RationalStream(3, 7), 7)
    assert not tame.terminated and (tame.N, tame.a) == (2, 3)


def test_intermediates_examples():
    g = PeriodicStream(0, (), (1,))
    recs = [(r.level, r.index, r.height, str(r.fraction))
            for r in intermediates(g, 3)]
    assert recs == [(1, 1, 1, "0/1"), (2, 1, 2, "1/2"), (3, 1, 3, "2/3")]
    y = PeriodicStream(0, (2,), (3, 2))
    recs = [(r.level, r.index, str(r.fraction)) for r in intermediates(y, 7)]
    assert recs == [(1, 1, "0/1"), (1, 2, "1/2"), (2, 1, "1/3"),
                    (2, 2, "2/5"), (2, 3, "3/7")]
    only = intermediates(DyadicStream(11), 1)
    assert len(only) == 1 and only[0].height == 1


def test_intermediates_heights_strictly_increase():
    for seed in (0, 1, 2):
        x = DyadicStream(seed)
        hs = [r.height for r in intermediates(x, 3000)]
        assert all(a < b for a, b in zip(hs, hs[1:]))


def test_intermediates_are_iterated_mediants():
    x = DyadicStream(4)
    recs = intermediates(x, 500)
    cs = convergents(x, max(r.level for r in recs))
    pq = {c.n: (c.p, c.q) for c in cs}
    pq[-1] = (1, 0)
    pq[-2] = (0, 1)
    by_level = {}
    for r in recs:
        by_level.setdefault(r.level, []).append(r)
    for n, rs in by_level.items():
        prev = pq[n - 2]
        for r in sorted(rs, key=lambda r: r.index):
            prev = mediant(prev, pq[n - 1])
            num, den = prev
            assert den == r.height
            assert reduce_mod1(num, den) == r.fraction


def test_intermediates_rational_contains_itself_last():
    x = RationalStream(3, 7)
    recs = intermediates(x, 7)
    assert (recs[-1].fraction.num, recs[-1].fraction.den) == (3, 7)
    x2 = RationalStream(355, 113)
    recs2 = intermediates(x2, 113)
    last = recs2[-1].fraction
    assert (last.num, last.den) == (355 % 113, 113)


class RecordingStream:
    """Passes quotient reads through to a stream and logs each index asked for."""

    def __init__(self, inner):
        self.inner, self.a0, self.asked = inner, inner.a0, []

    def quotient(self, n):
        self.asked.append(n)
        return self.inner.quotient(n)


@pytest.mark.parametrize("x", [DyadicStream(3), DyadicStream(8), PeriodicStream(1, (2,), (1, 3)),
                               PeriodicStream(0, (), (1,)), RationalStream(1393, 972),
                               RationalStream(355, 113), RationalStream(5, 1)],
                         ids=repr)
def test_no_quotient_is_read_past_the_cutoff_level(x):
    cs = convergents(x, 13)  # a terminating x: all L + 1 of its levels
    L = len(cs) - 1
    for n in range(len(cs)):
        rec = RecordingStream(x)
        assert convergents(rec, n) == cs[:n + 1]
        assert rec.asked == list(range(1, n + 1))
    for n in range(1, min(L + 1, 13)):
        for Q in (cs[n].q + cs[n - 1].q - 1, cs[n].q + cs[n - 1].q):
            # N is the least level with Q < q_N + q_{N-1}; a terminating x
            # reaching its end also asks for a_{L+1} once, to learn that it ended
            N = next((k for k in range(1, L + 1) if Q < cs[k].q + cs[k - 1].q), L)
            ended = Q >= cs[N].q + cs[N - 1].q
            want = list(range(1, N + 1 + ended))
            for walk in (cutoff, intermediates):
                rec = RecordingStream(x)
                assert walk(rec, Q) == walk(x, Q)
                assert rec.asked == want, (walk.__name__, Q)
            assert cutoff(x, Q).N == N and cutoff(x, Q).terminated == ended
            assert cutoff(x, Q).quotients == tuple(quotient(x, k) for k in range(1, N))
    assert cutoff(RationalStream(5, 1), 3).quotients == ()


def test_parse_stream():
    assert isinstance(parse_stream("rational:2/5"), RationalStream)
    p = parse_stream("periodic:[0;2|3,2]")
    assert isinstance(p, PeriodicStream)
    assert [quotient(p, n) for n in (1, 2, 3)] == [2, 3, 2]
    d = parse_stream("dyadic:seed=9")
    assert isinstance(d, DyadicStream) and d.seed == 9
    for bad in ("nope", "periodic:[0;1,1]", "dyadic:seed=x", "rational:1/0",
                "dyadic:seed=9,bits=128"):
        with pytest.raises(ValueError):
            parse_stream(bad)


def test_dyadic_interval_between_consecutive_convergents():
    x = DyadicStream(21)
    cs = convergents(x, 11)
    lo, hi = x.interval()
    for n in range(1, 11):
        a, b = sorted((Fraction(cs[n].p, cs[n].q),
                       Fraction(cs[n + 1].p, cs[n + 1].q)))
        assert a <= lo and hi <= b
