"""Canonical expansions, convergents, streams, cutoff and intermediate
fraction enumeration."""

import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cflab.cf
from cflab.cf import (GOLDEN64, M64, ContinuedFraction, DyadicStream, InvariantViolation,
                      NeedsMoreBits, OutOfQuotients, QuotientCapExceeded, cf_of_rational,
                      convergents, cutoff, intermediates, mix64, parse_stream)
from cflab.farey import farey_neighbors
from oracles import FareyFraction, value_of_cf


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
            assert cf.preperiod[-1] >= 2
            a0, rest = euclid_expansion(p, q)
            assert (cf.a0, list(cf.preperiod)) == (a0, rest)


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
    g = ContinuedFraction(0, (), (1,))
    cs = convergents(g, 4)
    assert [(p, q) for _, p, q in cs] == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5)]
    assert cs[2][1] * cs[1][2] - cs[1][1] * cs[2][2] == -1


def test_convergents_rational():
    x = cf_of_rational((355, 113))
    cs = convergents(x, 10)
    assert [(p, q) for _, p, q in cs] == [(3, 1), (22, 7), (355, 113)]


def test_convergents_determinant_identity():
    for spec in ("periodic:[0;|1]", "periodic:[0;2|3,2]", "rational:355/113",
                 "dyadic:seed=5"):
        x = parse_stream(spec)
        cs = convergents(x, 8)
        for (n, p, q), (_, pm1, qm1) in zip(cs[1:], cs):
            det = p * qm1 - pm1 * q
            assert det == (-1) ** (n - 1)


def test_quotient_streams():
    g = ContinuedFraction(0, (), (1,))
    assert all(g.quotient(n) == 1 for n in range(1, 30))
    x = cf_of_rational((2, 5))
    assert x.quotient(1) == 2 and x.quotient(2) == 2
    with pytest.raises(OutOfQuotients):
        x.quotient(3)
    y = ContinuedFraction(0, (2,), (3, 2))
    assert [y.quotient(n) for n in range(1, 6)] == [2, 3, 2, 3, 2]
    z = ContinuedFraction(4, (9, 8), (1, 2, 3, 5))  # a period of 4 shows a shifted index
    assert [z.quotient(n) for n in range(1, 12)] == [9, 8, 1, 2, 3, 5, 1, 2, 3, 5, 1]
    cf = ContinuedFraction(3, (7, 16))
    assert [cf.quotient(n) for n in (1, 2)] == [7, 16]
    with pytest.raises(OutOfQuotients, match="after 2 partial"):
        cf.quotient(3)
    with pytest.raises(ValueError):
        cf.quotient(0)


def test_periodic_validation():
    with pytest.raises(ValueError, match="period must be nonempty"):
        parse_stream("periodic:[0;|]")
    with pytest.raises(ValueError):
        ContinuedFraction(0, (0,), (1,))


def test_one_class_spells_finite_and_periodic_expansions():
    # only a finite expansion's last quotient must be >= 2: [0;1,2,2,...] is legal
    x = ContinuedFraction(0, (1,), (2,))
    assert [x.quotient(n) for n in range(1, 5)] == [1, 2, 2, 2]
    with pytest.raises(ValueError, match="terminal quotient"):
        ContinuedFraction(0, (2, 1))
    finite = ContinuedFraction(3, [7, 16])  # any sequences, stored as tuples
    assert finite == cf_of_rational((355, 113)) and finite.preperiod == (7, 16)
    with pytest.raises(OutOfQuotients) as exc:
        finite.quotient(3)
    assert exc.value.length == 2
    y = ContinuedFraction(2, [1, 3], [4, 1, 2])
    assert y.quotients(1, 12) == [1, 3, 4, 1, 2, 4, 1, 2, 4, 1, 2]
    assert [str(v) for v in (finite, y, ContinuedFraction(5))] == ["[3;7,16]", "[2;1,3|4,1,2]",
                                                                   "[5]"]
    assert parse_stream(f"periodic:{y}") == y


def test_dyadic_endpoint_prefix_oracle():
    # 5/8 = [0;1,1,1,2] and 11/16 = [0;1,2,5] share only a_1 = 1, so a
    # bracketing interval with those endpoints certifies exactly one quotient
    lo = cf_of_rational((5, 8))
    hi = cf_of_rational((11, 16))
    assert list(lo.preperiod) == [1, 1, 1, 2]
    assert list(hi.preperiod) == [1, 2, 5]
    common = 0
    for a, b in zip(lo.preperiod, hi.preperiod):
        if a != b:
            break
        common += 1
    assert common == 1


def restart_certified(x, held=()):
    """Full-restart oracle: the longest common prefix of the canonical
    expansions of both interval endpoints, never shorter than `held`."""
    lo, hi = (cf_of_rational(e.as_integer_ratio()) for e in x.interval())
    common = []
    if lo.a0 == hi.a0:
        for a, b in zip(lo.preperiod, hi.preperiod):
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, M64), first=st.sampled_from([8, 20, 40]),
       blocks=st.integers(1, 40))
def test_dyadic_lehmer_batches_match_restart_oracle(seed, first, blocks):
    # 8 or more blocks in one pass start it on a tail above 512 bits, so it
    # certifies in leading-word batches, and tails stay that long from about
    # 16 blocks on
    x = DyadicStream(seed)
    x._grow(first)
    assert_grows_like_oracle(x, blocks)


def test_dyadic_deep_golden():
    # recorded with the certifier that took one full-width Euclid step per quotient
    x = DyadicStream(7)
    x.quotient(32000)
    got = x.certified()
    assert (len(got), x.bits) == (32008, 108544)
    digest = hashlib.sha256(",".join(map(str, got)).encode()).hexdigest()
    assert digest.startswith("54c1e1547d1e8d95")


def deep_rational(seed):
    """20 blocks of DyadicStream(seed), the last made odd, and the rational
    r = X/2^1280 they spell: its height is 2^1280, so its expansion is about
    750 quotients long and its tails there run to about 1,300 bits."""
    words = [mix64((seed + k * GOLDEN64) & M64) for k in range(1, 21)]
    words[-1] |= 1
    return words, cf_of_rational((int.from_bytes(
        b"".join(w.to_bytes(8, "big") for w in words), "big"), 1 << 1280)).preperiod


def test_dyadic_certifier_at_a_deep_rational(monkeypatch):
    # a run of zero words holds the lower endpoint on r; 20 of them and a
    # small word put x a few 2^-2624 above r, just past r's expansion
    cases = []
    for seed, zeros, after in [(2, 24, []), (2, 20, [3]), (1, 20, [3])]:
        words, ref = deep_rational(seed)
        tail = [mix64((seed + 100 + k * GOLDEN64) & M64) for k in range(1, 21)] if after else []
        blocks = iter(words + [0] * zeros + after + tail)
        monkeypatch.setattr(cflab.cf, "mix64", lambda z: next(blocks))
        x = DyadicStream(0)
        assert_grows_like_oracle(x, 19 + zeros + len(after) + len(tail))
        cases.append((x.certified(), x._tail[1], ref))
    # seed 2, zeros only: the lower endpoint is r, its own last convergent, so b = 0
    got, b, ref = cases[0]
    assert got == ref and b == 0
    # seed 2: x = [0; r's quotients, a_{L+1}, ...] with a_{L+1} in [2^62, 2^63),
    # where a leading word of b or d is 0, so the exact step decides
    got, _, ref = cases[1]
    assert got[:len(ref)] == ref and 2 ** 62 <= got[len(ref)] < 2 ** 63
    # seed 1: r's expansion has odd length, so x above r reads [..., a_L - 1,
    # 1, huge]: r itself is that prefix with a tail of exactly 1, and x's tail
    # at a_L - 1 lies within 2^-62 below the integer a_L
    got, _, ref = cases[2]
    assert got[:len(ref) + 1] == ref[:-1] + (ref[-1] - 1, 1)
    assert got[len(ref) + 1] >= 2 ** 62


@pytest.mark.parametrize("words", [
    [0] * 4,                                  # lower endpoint 0: no quotient
    [M64] * 4,                                # upper endpoint 1: a0 differs
    [0xC000000000000000] + [0] * 3,           # lower endpoint 3/4 = [0;1,3]
    [0x8000000000000000] + [0] * 3,           # 1/2 inside every interval
    [0xBFFFFFFFFFFFFFFF] + [M64] * 3,         # upper endpoint 3/4
    [0xAAAAAAAAAAAAAAAA] + [0] * 3,           # one huge quotient, then 2/3 - e
    [0xFFFFFFFFFFFFFFFE] + [M64] * 3,         # upper endpoint [0;1,2^64-1]
    [0x7FFFFFFFFFFFFFFF] + [M64] * 3,         # upper endpoint 1/2 = [0;2]: d = 0
])
def test_dyadic_certifier_canonical_edges(words, monkeypatch):
    blocks = iter(words)
    monkeypatch.setattr(cflab.cf, "mix64", lambda z: next(blocks))
    assert_grows_like_oracle(DyadicStream(0), len(words) - 1)


def _euclid(a, b, n):
    """The first n quotients of a/b, fewer if its expansion ends, and the pair
    of remainders after them."""
    quotients = []
    while b and len(quotients) < n:
        m, r = divmod(a, b)
        quotients.append(m)
        a, b = b, r
    return quotients, (a, b)


def straddling_tails(count: int, seed: int):
    """count tail pairs (a, b, c, d) of 520 to 1,000 bits.  a/b lies within 4
    leading-word units of a boundary p/q, a convergent (plus 1) with q of 10 to 40
    bits, where a batch of _WORD-bit words runs out.  c/d's leading words are
    a/b's moved by one of the offsets below, so that p/q falls between either
    tail and an inner end of the other's bracket, such as A/B or (A+1)/(B+1)."""
    rng = random.Random(seed)
    boundaries = [(p + q, q) for s in range(8) for _, p, q in convergents(DyadicStream(s), 60)
                  if 10 <= q.bit_length() <= 40]
    for _ in range(count):
        p, q = rng.choice(boundaries)
        k = rng.choice((520, 600, 1000))
        h = (p << k).bit_length() - cflab.cf._WORD
        a = (p << k) + rng.randrange(-4 << h, 4 << h)
        b = (q << k) + rng.randrange(-4 << h, 4 << h)
        sign = rng.choice((1, -1))
        dc, dd = rng.choice(((0, 0), (1, 0), (2, 1), (0, 1), (1, 1)))
        c = ((a >> h) + sign * dc << h) + rng.randrange(1 << h)
        d = ((b >> h) + sign * dd << h) + rng.randrange(1 << h)
        yield a, b, c, d


def test_lehmer_batch_on_tails_straddling_a_boundary():
    # every quotient of a batch is one of the exact expansions of both tails
    # and of numbers just inside each end of their leading-word brackets
    # (open: a/b lies strictly between A/(B+1) and (A+1)/B), and the state
    # after it holds both tails' remainders; a batch takes about 18
    certified = 0
    K = 1 << 1000
    for a, b, c, d in straddling_tails(1000, seed=0):
        sq0, sq1 = a - c, d - b  # c = a - sq0, d = b + sq1, as DyadicStream holds them
        batch, state = cflab.cf._lehmer_batch(a, b, c, d, sq0, sq1)
        (lower, after_lower), (upper, after_upper) = (_euclid(a, b, len(batch)),
                                                      _euclid(c, d, len(batch)))
        assert batch == lower == upper, (a, b, c, d)
        h = max(a.bit_length(), c.bit_length()) - cflab.cf._WORD
        A, B, C, D = a >> h, b >> h, c >> h, d >> h
        for n, m in ((A * K + 1, (B + 1) * K), ((A + 1) * K - 1, B * K),
                     (C * K + 1, (D + 1) * K), ((C + 1) * K - 1, D * K)):
            assert _euclid(n, m, len(batch))[0] == batch, (a, b, c, d)
        if batch:
            a2, b2, sq0, sq1 = state
            assert ((a2, b2), (a2 - sq0, b2 + sq1)) == (after_lower, after_upper)
        else:
            assert state is None
        certified += len(batch)
    assert certified >= 15_000


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


def expansion_with(huge, at, length, seed):
    """[a_1, ..., a_length]: random quotients in 1..4, huge at index at + 1,
    and a last quotient of at least 2."""
    rng = random.Random(seed)
    qs = [rng.randint(1, 4) for _ in range(length)]
    qs[at], qs[-1] = huge, qs[-1] + 1
    return qs


def tails_of(qs):
    """a/b = [a_1; a_2, ...], as a stream holds its tail after a prefix."""
    a, b = 1, 0
    for m in reversed(qs):
        a, b = m * a + b, a
    return a, b


HUGE_OVER_CAP = [2 ** 63 + 1, 2 ** 64 + 12345, 2 ** 72]
HUGE_UNDER_CAP = [2 ** 62, 2 ** 62 + 7, 2 ** 63 - 1, 2 ** 63]


@pytest.mark.parametrize("huge", HUGE_OVER_CAP + HUGE_UNDER_CAP)
def test_lehmer_batch_leaves_a_quotient_over_the_cap_to_the_exact_steps(huge):
    # two tails of about 700 bits share 400 quotients, so the leading words
    # of both reach past `huge` at index at + 1 (a cap raised past it shows that)
    for at in range(0, 24, 3):
        qs = expansion_with(huge, at, 450, seed=at)
        (a, b), (c, d) = tails_of(qs), tails_of(qs[:400] + [5, 1, 7] * 16 + [2])
        assert min(a.bit_length(), c.bit_length()) > 512
        batch, state = cflab.cf._lehmer_batch(a, b, c, d, a - c, d - b)
        if huge > cflab.cf.QUOTIENT_CAP:
            assert (batch, state) == ([], None)  # nothing past huge, and not huge
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cflab.cf, "QUOTIENT_CAP", 2 ** 72)
                assert huge in cflab.cf._lehmer_batch(a, b, c, d, a - c, d - b)[0]
        else:
            assert batch[:at + 2] == qs[:at + 2] and len(batch) > at + 1
            a2, b2, sq0, sq1 = state
            assert _euclid(a, b, len(batch)) == (batch, (a2, b2))
            assert _euclid(c, d, len(batch)) == (batch, (a2 - sq0, b2 + sq1))


def stream_words(qs):
    """64-bit words spelling x = [0; qs] to 8,192 bits, then mix64 words."""
    p, q = tails_of(qs)  # x = q/p
    X = (q << 8192) // p
    words = [(X >> (64 * i)) & M64 for i in reversed(range(128))]
    return itertools.chain(words, (mix64(k * GOLDEN64 & M64) for k in itertools.count(1)))


def read_on_words(qs, n, monkeypatch, **patches):
    """A stream on stream_words(qs) reads quotient(n) with the cf module
    attributes patched: the outcome, certified(), bits, and the batches."""
    batches, batch = [], cflab.cf._lehmer_batch

    def spy(*args):
        out = batch(*args)
        batches.append(out[0])
        return out

    with monkeypatch.context() as mp:
        words = stream_words(qs)
        mp.setattr(cflab.cf, "mix64", lambda z: next(words))
        mp.setattr(cflab.cf, "_lehmer_batch", spy)
        for name, value in patches.items():
            mp.setattr(cflab.cf, name, value)
        x = DyadicStream(0)
        try:
            outcome = "ok", x.quotient(n)
        except QuotientCapExceeded as exc:
            outcome = QuotientCapExceeded, str(exc)
        return outcome, x.certified(), x.bits, batches


@pytest.mark.parametrize("huge", HUGE_OVER_CAP + HUGE_UNDER_CAP)
def test_dyadic_stream_certifies_a_batch_with_a_huge_quotient_as_exact_steps(huge, monkeypatch):
    # quotient(1000) draws about 1,400 bits in its first pass, so huge at
    # index 20 lies inside a batch; the twin takes exact steps only
    qs = expansion_with(huge, 19, 1500, seed=huge)
    got = read_on_words(qs, 1000, monkeypatch)
    twin = read_on_words(qs, 1000, monkeypatch, _LEHMER_MIN_BITS=DyadicStream.MAX_BITS)
    assert got[:3] == twin[:3] and not any(twin[3])
    if huge > cflab.cf.QUOTIENT_CAP:
        assert got[0][0] is QuotientCapExceeded and got[1] == tuple(qs[:19])
        assert not any(huge in b for b in got[3])
        raised = read_on_words(qs, 1000, monkeypatch, QUOTIENT_CAP=2 ** 72)
    else:
        assert got[0][0] == "ok" and got[1][:1000] == tuple(qs[:1000])
        raised = got
    assert any(huge in b[1:] for b in raised[3])  # inside a batch, not its first


@pytest.mark.parametrize("seed", [0, 7, M64] + [mix64(i) for i in range(13)])
def test_dyadic_stream_matches_an_exact_step_twin(seed, monkeypatch):
    # the twin's tails never pass _LEHMER_MIN_BITS, so it certifies one
    # full-width Euclid step at a time (ROADMAP item 7's oracle)
    x = DyadicStream(seed)
    x.quotient(10_000)
    with monkeypatch.context() as mp:
        mp.setattr(cflab.cf, "_LEHMER_MIN_BITS", DyadicStream.MAX_BITS)
        twin = DyadicStream(seed)
        twin.quotient(10_000)
    assert (x.certified(), x.bits) == (twin.certified(), twin.bits)
    monkeypatch.setattr(DyadicStream, "MAX_BITS", 1 << 14)  # about 4,800 quotients
    x = DyadicStream(seed)
    got = read_outcome(lambda: x.quotient(10_000))
    monkeypatch.setattr(cflab.cf, "_LEHMER_MIN_BITS", DyadicStream.MAX_BITS)
    twin = DyadicStream(seed)
    assert got == read_outcome(lambda: twin.quotient(10_000)) and got[0] is NeedsMoreBits
    assert (x.certified(), x.bits) == (twin.certified(), twin.bits)


def test_dyadic_tail_below_one_is_an_invariant_violation():
    x = DyadicStream(5)
    a, b = x._tail
    x._tail = (b, a)
    with pytest.raises(InvariantViolation):
        x._grow(1)
    y = DyadicStream(5)  # the upper endpoint's tail (a - sq0) / (b + sq1) alone leaves
    y._sq = (y._tail[0] + 1, y._sq[1])
    with pytest.raises(InvariantViolation):
        y._certify()


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


def read_outcome(read):
    """('ok', value) or (exception type, message) of one read."""
    try:
        return "ok", read()
    except (NeedsMoreBits, OutOfQuotients, ValueError) as exc:
        return type(exc), str(exc)


def grow_one_block_at_a_time(twin, n):
    while len(twin.certified()) < n:
        twin._grow(1)
    return twin.certified()[n - 1]


def assert_reads_like_one_block_growth(seed, reads):
    """Each (lo, hi) read (hi = None for quotient(lo)) leaves the stream where
    a twin grown one block at a time to the same index leaves its twin."""
    x, twin = DyadicStream(seed), DyadicStream(seed)
    for lo, hi in reads:
        if hi is None:
            got = read_outcome(lambda: x.quotient(lo))
            want = read_outcome(lambda: grow_one_block_at_a_time(twin, lo))
        else:
            got = read_outcome(lambda: x.quotients(lo, hi))
            want = read_outcome(lambda: [grow_one_block_at_a_time(twin, i) for i in range(lo, hi)])
        assert got == want
        assert (x.certified(), x.bits) == (twin.certified(), twin.bits)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, M64), first=st.integers(0, 5000), n=st.integers(1, 5000),
       lo=st.none() | st.integers(1, 5000))
def test_bulk_growth_draws_what_one_block_growth_draws(seed, first, n, lo):
    reads = [(first, None)] if first else []  # an earlier read leaves k > 0 certified
    reads.append((n, None) if lo is None else (min(lo, n + 1), n + 1))
    assert_reads_like_one_block_growth(seed, reads)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, M64), n=st.integers(900, 1600), lo=st.none() | st.integers(1, 1600))
def test_bulk_growth_stops_where_one_block_growth_stops(seed, n, lo):
    # 2^12 bits certify about 1,200 quotients, so n falls on both sides of it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DyadicStream, "MAX_BITS", 1 << 12)
        assert_reads_like_one_block_growth(seed, [(n, None) if lo is None
                                                  else (min(lo, n + 1), n + 1)])


@pytest.mark.parametrize("x", [DyadicStream(11), ContinuedFraction(2, (5,), (1, 2, 3)),
                               cf_of_rational((355, 113)), cf_of_rational((3, 1))],
                         ids=["dyadic", "periodic", "rational", "integer"])
@pytest.mark.parametrize("lo, hi", [(1, 1), (4, 4), (1, 3), (2, 4), (3, 40), (0, 0), (0, 2)])
def test_quotients_are_the_quotient_reads(x, lo, hi):
    # the rational 355/113 = [3;7,16] ends after 2 quotients, so every read
    # from 3 on (and 3/1 from 1 on) is past its end
    assert read_outcome(lambda: x.quotients(lo, hi)) == read_outcome(
        lambda: [x.quotient(i) for i in range(lo, hi)])


CONTINUANT_SEEDS = [0, 1, 7, 11, 17, 2026, M64] + [mix64(i) for i in range(17)]


@pytest.mark.parametrize("seed", CONTINUANT_SEEDS)
def test_dyadic_continuant_is_the_walks_q_n(seed):
    # the step back from the certified end against the forward walk on a twin
    rng = random.Random(seed)
    ns = [1, 0, *rng.sample(range(2, 5001), 8)]  # n = 1 on a fresh stream, then unsorted
    x = DyadicStream(seed)
    walk = convergents(DyadicStream(seed), 5000)
    for n in ns:
        assert x.continuant(n) == walk[n][2]
    k = len(x.certified())
    for n in (k, k - 1, k // 7, 2, 0):  # at the certified end and far below it
        assert x.continuant(n) == walk[n][2]
    assert DyadicStream(seed).continuant(0) == 1


@pytest.mark.parametrize("x, L", [(ContinuedFraction(2, (5,), (1, 2, 3)), None),
                                  (ContinuedFraction(0, (), (1,)), None),
                                  (cf_of_rational((355, 113)), 2), (cf_of_rational((3, 1)), 0),
                                  (cf_of_rational((-7, 3)), 2)],
                         ids=["periodic", "golden", "rational", "integer", "negative"])
def test_continuant_is_the_walks_q_n_and_ends_where_quotient_ends(x, L):
    for n in (3, 0, 40, 1, 2, 17):
        if L is None or n <= L:
            assert x.continuant(n) == convergents(x, n)[-1][2]
        else:  # past the end, OutOfQuotients(L), as quotient raises it
            assert read_outcome(lambda: x.continuant(n)) == read_outcome(lambda: x.quotient(n)) \
                == (OutOfQuotients, f"expansion ends after {L} partial quotients")


@pytest.mark.parametrize("x", [DyadicStream(3), ContinuedFraction(0, (), (1,)),
                               cf_of_rational((2, 5))], ids=["dyadic", "golden", "rational"])
def test_continuant_index_starts_at_0(x):
    with pytest.raises(ValueError, match="continuant index starts at 0"):
        x.continuant(-1)


def test_continuant_draws_no_bits_below_the_certified_end():
    x = DyadicStream(5)
    x.quotient(1000)
    held = (x.certified(), x.bits)
    k = len(held[0])
    for n in (k, 1, k // 2, 0, k - 1, 1000):
        x.continuant(n)
        assert (x.certified(), x.bits) == held


def continuant_by_quotient(x, n):
    """quotient(n)'s certification, then q_n off the forward walk."""
    x.quotient(n)
    return convergents(x, n)[-1][2]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, M64), n=st.integers(900, 1600))
def test_continuant_runs_out_of_bits_where_quotient_does(seed, n):
    # 2^12 bits certify about 1,200 quotients, so n falls on both sides of it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DyadicStream, "MAX_BITS", 1 << 12)
        x, twin = DyadicStream(seed), DyadicStream(seed)
        got = read_outcome(lambda: x.continuant(n))
        assert got == read_outcome(lambda: continuant_by_quotient(twin, n))
        assert (x.certified(), x.bits) == (twin.certified(), twin.bits)


def test_dyadic_determinism_and_stability():
    x1 = DyadicStream(999)
    x2 = DyadicStream(999)
    first = [x1.quotient(n) for n in range(1, 20)]
    assert first == [x2.quotient(n) for n in range(1, 20)]
    # force deep refinement, earlier quotients must not move
    assert x2.quotient(200) >= 1
    assert first == [x2.quotient(n) for n in range(1, 20)]
    assert x2.bits > x1.bits


def test_dyadic_interval_brackets():
    x = DyadicStream(7)
    x.quotient(10)
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
    g = ContinuedFraction(0, (), (1,))
    assert g.compare_fraction(Fraction(1, 2)) > 0
    assert g.compare_fraction(Fraction(2, 3)) < 0
    x = cf_of_rational((2, 5))
    assert x.compare_fraction(Fraction(2, 5)) == 0
    assert x.compare_fraction(Fraction(1, 3)) > 0


def prefix_value(x, n):
    """[a0; a_1, ..., a_n] (n >= 1), evaluated from the back."""
    v = Fraction(x.quotient(n))
    for k in range(n - 1, 0, -1):
        v = x.quotient(k) + 1 / v
    return x.a0 + 1 / v


def oracle_sign(x, r):
    """Slow sign of x - r: the value of a rational stream; for a periodic
    stream, consecutive convergents, which hold x strictly between them, until
    r leaves their bracket; for a dyadic stream, a fresh twin's enclosing
    interval, which holds x strictly inside, grown until r leaves it."""
    if isinstance(x, ContinuedFraction) and not x.period:
        return (value_of_cf(x) > r) - (value_of_cf(x) < r)
    if isinstance(x, ContinuedFraction):
        for n in itertools.count(1):
            lo, hi = sorted((prefix_value(x, n), prefix_value(x, n + 1)))
            if not lo < r < hi:
                return 1 if r <= lo else -1
    twin = DyadicStream(x.seed)
    while True:
        lo, hi = twin.interval()
        if not lo < r < hi:
            return 1 if r <= lo else -1
        twin._grow(1)


STREAMS = st.one_of(
    st.fractions(-20, 20, max_denominator=10 ** 6).map(
        lambda v: cf_of_rational((v.numerator, v.denominator))),
    st.builds(ContinuedFraction, st.integers(-5, 5), st.lists(st.integers(1, 50), max_size=4),
              st.lists(st.integers(1, 50), min_size=1, max_size=4)),
    st.integers(0, M64).map(DyadicStream))


@settings(max_examples=300, deadline=None)
@given(x=STREAMS, depth=st.integers(0, 12), data=st.data())
def test_comparison_matches_slow_oracles(x, depth, data):
    # r of either sign and integers, x's convergents (x itself when x is
    # rational) and their Farey neighbors, and a dyadic x's interval endpoints
    targets = [data.draw(st.fractions(-25, 25, max_denominator=10 ** 4)),
               data.draw(st.integers(-25, 25)), x.a0, x.a0 + 1]
    for _, p, q in convergents(x, depth):
        r = Fraction(p, q)
        targets.append(r)
        if q > 1:
            lo, hi = farey_neighbors((Fraction(p, q) % 1).as_integer_ratio())
            targets += [math.floor(r) + lo, math.floor(r) + hi]
    if isinstance(x, DyadicStream):
        targets += x.interval()
    for r in targets:
        assert x.compare_fraction(Fraction(r)) == oracle_sign(x, Fraction(r))


def test_cutoff_examples():
    g = ContinuedFraction(0, (), (1,))
    c3 = cutoff(g, 3)
    assert (c3.N, c3.a) == (3, 1)
    c1 = cutoff(g, 1)
    assert (c1.N, c1.a) == (1, 1)
    y = ContinuedFraction(0, (2,), (3, 2))
    c7 = cutoff(y, 7)
    assert (c7.N, c7.a) == (2, 3)


def test_cutoff_invariants_on_samples():
    for seed in range(5):
        x = DyadicStream(seed)
        for Q in (10, 100, 2500):
            cut = cutoff(x, Q)
            cs = convergents(x, cut.N)
            q = [q for _, _, q in cs]
            q_nm1 = q[cut.N - 1] if cut.N >= 1 else 0
            q_nm2 = q[cut.N - 2] if cut.N >= 2 else (1 if cut.N == 1 else 0)
            assert q_nm1 + q_nm2 <= Q < q[cut.N] + q_nm1
            assert cut.a * q_nm1 + q_nm2 <= Q < (cut.a + 1) * q_nm1 + q_nm2
            assert 1 <= cut.a <= x.quotient(cut.N)


def test_cutoff_rational_termination():
    x = cf_of_rational((3, 7))  # [0;2,3]
    cut = cutoff(x, 100)
    assert (cut.N, cut.a) == (2, 3)
    tame = cutoff(cf_of_rational((3, 7)), 7)
    assert (tame.N, tame.a) == (2, 3)
    # an integer has no level 1, so no multiplicity either
    assert cutoff(cf_of_rational((5, 1)), 100) == cflab.cf.CutoffData(N=0, a=0)


def test_intermediates_examples():
    g = ContinuedFraction(0, (), (1,))
    recs = [(level, index, den, str(FareyFraction(num, den)))
            for level, index, num, den in intermediates(g, 3)]
    assert recs == [(1, 1, 1, "0/1"), (2, 1, 2, "1/2"), (3, 1, 3, "2/3")]
    y = ContinuedFraction(0, (2,), (3, 2))
    recs = [(level, index, str(FareyFraction(num, den)))
            for level, index, num, den in intermediates(y, 7)]
    assert recs == [(1, 1, "0/1"), (1, 2, "1/2"), (2, 1, "1/3"),
                    (2, 2, "2/5"), (2, 3, "3/7")]
    only = intermediates(DyadicStream(11), 1)
    assert only == [(1, 1, 0, 1)]


def test_intermediates_heights_strictly_increase():
    for seed in (0, 1, 2):
        x = DyadicStream(seed)
        hs = [den for *_, den in intermediates(x, 3000)]
        assert all(a < b for a, b in zip(hs, hs[1:]))


def test_intermediates_are_iterated_mediants():
    x = DyadicStream(4)
    recs = intermediates(x, 500)
    cs = convergents(x, max(level for level, *_ in recs))
    pq = {n: (p, q) for n, p, q in cs}
    pq[-1] = (1, 0)
    pq[-2] = (0, 1)
    by_level = {}
    for level, index, num, den in recs:
        by_level.setdefault(level, []).append((index, num, den))
    for n, rs in by_level.items():
        prev = pq[n - 2]
        for _, r_num, r_den in sorted(rs):
            (a, q), (b, s) = prev, pq[n - 1]
            prev = num, den = a + b, q + s  # the mediant of prev and p_{n-1}/q_{n-1}
            assert den == r_den
            assert (Fraction(num, den) % 1).as_integer_ratio() == (r_num, r_den)


def test_intermediates_rational_contains_itself_last():
    x = cf_of_rational((3, 7))
    recs = intermediates(x, 7)
    assert recs[-1][2:] == (3, 7)
    x2 = cf_of_rational((355, 113))
    recs2 = intermediates(x2, 113)
    assert recs2[-1][2:] == (355 % 113, 113)


class RecordingStream:
    """Passes quotient reads through to a stream and logs each index asked for."""

    def __init__(self, inner):
        self.inner, self.a0, self.asked = inner, inner.a0, []

    def quotient(self, n):
        self.asked.append(n)
        return self.inner.quotient(n)


@pytest.mark.parametrize("x", [
    pytest.param(DyadicStream(3), id="dyadic:seed=3"),
    pytest.param(DyadicStream(8), id="dyadic:seed=8"),
    pytest.param(ContinuedFraction(1, (2,), (1, 3)), id="PeriodicStream([1;2|1,3])"),
    pytest.param(ContinuedFraction(0, (), (1,)), id="PeriodicStream([0;|1])"),
    pytest.param(cf_of_rational((1393, 972)), id="RationalStream(1393/972)"),
    pytest.param(cf_of_rational((355, 113)), id="RationalStream(355/113)"),
    pytest.param(cf_of_rational((5, 1)), id="RationalStream(5)")])
def test_no_quotient_is_read_past_the_cutoff_level(x):
    cs = convergents(x, 13)  # a terminating x: all L + 1 of its levels
    L = len(cs) - 1
    for n in range(len(cs)):
        rec = RecordingStream(x)
        assert convergents(rec, n) == cs[:n + 1]
        assert rec.asked == list(range(1, n + 1))
    for n in range(1, min(L + 1, 13)):
        for Q in (cs[n][2] + cs[n - 1][2] - 1, cs[n][2] + cs[n - 1][2]):
            # N is the least level with Q < q_N + q_{N-1}; a terminating x
            # reaching its end also asks for a_{L+1} once, to learn that it ended
            N = next((k for k in range(1, L + 1) if Q < cs[k][2] + cs[k - 1][2]), L)
            ended = Q >= cs[N][2] + cs[N - 1][2]
            want = list(range(1, N + 1 + ended))
            for walk in (cutoff, intermediates):
                rec = RecordingStream(x)
                assert walk(rec, Q) == walk(x, Q)
                assert rec.asked == want, (walk.__name__, Q)
            assert cutoff(x, Q).N == N
            assert cutoff(x, Q).quotients == tuple(x.quotient(k) for k in range(1, N))
    assert cutoff(cf_of_rational((5, 1)), 3).quotients == ()


def test_parse_stream():
    assert parse_stream("rational:2/5") == ContinuedFraction(0, (2, 2))
    p = parse_stream("periodic:[0;2|3,2]")
    assert p == ContinuedFraction(0, (2,), (3, 2))
    assert [p.quotient(n) for n in (1, 2, 3)] == [2, 3, 2]
    d = parse_stream("dyadic:seed=9")
    assert isinstance(d, DyadicStream) and d.seed == 9
    # one missing bracket is refused too: the other side's strip must not eat a digit
    for bad in ("nope", "periodic:[0;1,1]", "dyadic:seed=x", "rational:1/0",
                "dyadic:seed=9,bits=128", "dyadic:bits=9", "periodic:[0;|12", "periodic:10;|1]"):
        with pytest.raises(ValueError):
            parse_stream(bad)


def test_dyadic_interval_between_consecutive_convergents():
    x = DyadicStream(21)
    cs = convergents(x, 11)
    lo, hi = x.interval()
    for n in range(1, 11):
        a, b = sorted((Fraction(*cs[n][1:]), Fraction(*cs[n + 1][1:])))
        assert a <= lo and hi <= b
