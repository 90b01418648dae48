"""Continued fractions: canonical expansions, convergents, quotient streams,
height cutoffs and the intermediate-fraction enumeration.

Conventions.  An expansion is written [a0; a1, ..., aL] with all partial
quotients positive and, for rationals with L >= 1, a terminal quotient
aL >= 2; the integer 1 has the expansion [1] with L = 0.  Convergents
follow p_n = a_n p_{n-1} + p_{n-2}, q_n = a_n q_{n-1} + q_{n-2} seeded
with p_{-1} = 1, p_{-2} = 0, q_{-1} = 0, q_{-2} = 1, so p_0/q_0 = a0/1;
`_levels` is the one walk of this recurrence, and every function here that
needs convergents consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Union

from .rationals import FareyFraction, _pair, reduce_mod1

M64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15

# A certified quotient beyond this bound means the input is degenerate
# (for practical purposes, a rational fed in as a bit stream).
QUOTIENT_CAP = 1 << 63


class OutOfQuotients(Exception):
    """A terminating expansion was asked for a quotient past its end."""

    def __init__(self, length: int):
        super().__init__(length)  # args hold the length, so a pickle round trip rebuilds it
        self.length = length

    def __str__(self) -> str:
        return f"expansion ends after {self.length} partial quotients"


class NeedsMoreBits(Exception):
    """A comparison or certification ran out of its refinement budget."""


class QuotientCapExceeded(Exception):
    """A certified partial quotient exceeded QUOTIENT_CAP."""


class InvariantViolation(Exception):
    """An internal cross-check (such as multi-method agreement) failed."""


def mix64(z: int) -> int:
    """SplitMix64 output scramble of a 64-bit state (Steele et al. constants)."""
    z &= M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & M64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class ContinuedFraction:
    """Canonical finite expansion [a0; a1, ..., aL]."""

    a0: int
    quotients: tuple[int, ...] = ()

    def __post_init__(self):
        if any(a < 1 for a in self.quotients):
            raise ValueError("partial quotients must be positive")
        if self.quotients and self.quotients[-1] < 2:
            raise ValueError("canonical terminal quotient must be >= 2")

    def __str__(self) -> str:
        if not self.quotients:
            return f"[{self.a0}]"
        return f"[{self.a0};{','.join(str(a) for a in self.quotients)}]"


def _euclid(p: int, q: int) -> tuple[int, list[int]]:
    # Plain Euclidean algorithm; the final quotient is automatically >= 2
    # whenever at least one division step happens.
    a0, r = divmod(p, q)
    qs = []
    a, b = q, r
    while b:
        k, r2 = divmod(a, b)
        qs.append(k)
        a, b = b, r2
    return a0, qs


def cf_of_rational(x) -> ContinuedFraction:
    """Canonical expansion of a rational via the Euclidean algorithm."""
    p, q = _pair(x)
    if q == 0:
        raise ValueError("invalid denominator: q = 0")
    if q < 0:
        p, q = -p, -q
    a0, qs = _euclid(p, q)
    return ContinuedFraction(a0, tuple(qs))


def value_of_cf(cf: ContinuedFraction) -> Fraction:
    """Exact value of a finite expansion."""
    for _, _, p, q, _, _ in _levels(cf):
        pass
    return Fraction(p, q)


class PartialQuotientStream:
    """A real presented by its integer part and partial quotients a_1, a_2, ..."""

    a0: int = 0

    def quotient(self, n: int) -> int:
        raise NotImplementedError


class RationalStream(PartialQuotientStream):
    """Terminating stream for a rational number."""

    def __init__(self, p: int, q: int):
        if q == 0:
            raise ValueError("invalid denominator: q = 0")
        self.value = Fraction(p, q)
        cf = cf_of_rational(self.value)
        self.a0 = cf.a0
        self._qs = cf.quotients

    def quotient(self, n: int) -> int:
        if n < 1:
            raise ValueError("quotient index starts at 1")
        if n > len(self._qs):
            raise OutOfQuotients(len(self._qs))
        return self._qs[n - 1]

    def __repr__(self):
        return f"RationalStream({self.value})"


class PeriodicStream(PartialQuotientStream):
    """Eventually periodic stream (a quadratic irrational)."""

    def __init__(self, a0: int, preperiod, period):
        self.a0 = a0
        self.preperiod = tuple(int(a) for a in preperiod)
        self.period = tuple(int(a) for a in period)
        if not self.period:
            raise ValueError("period must be nonempty")
        if any(a < 1 for a in self.preperiod + self.period):
            raise ValueError("partial quotients must be positive")

    def quotient(self, n: int) -> int:
        if n < 1:
            raise ValueError("quotient index starts at 1")
        if n <= len(self.preperiod):
            return self.preperiod[n - 1]
        return self.period[(n - len(self.preperiod) - 1) % len(self.period)]

    def __repr__(self):
        pre = ",".join(map(str, self.preperiod))
        per = ",".join(map(str, self.period))
        return f"PeriodicStream([{self.a0};{pre}|{per}])"


class DyadicStream(PartialQuotientStream):
    """x in (0, 1) whose binary digits come from a seeded 64-bit generator.

    Block k (k = 0, 1, ...) of 64 bits is mix64((seed + (k+1)*GOLDEN64) mod 2^64),
    blocks concatenated most significant first.  The stream keeps the dyadic
    interval [X/2^B, (X+1)/2^B] containing x; a partial quotient is certified
    once the canonical expansions of both endpoints agree through its index.
    Construction draws block 0; quotient and compare_fraction append one
    block at a time only when they need it, never altering earlier bits, so
    certified quotients are stable.  Growing past MAX_BITS raises NeedsMoreBits.

    Certification is incremental (Gosper, HAKMEM item 101).  With a_1..a_k
    certified and s = (-1)^k, the stream holds the signed denominators
    s q_{k-1}, s q_k and the tail t = a/b of the lower endpoint, so that
    X/2^B = [0; a_1, ..., a_k, t].  Here a = s (p_{k-1} 2^B - q_{k-1} X) and
    b = s (q_k X - p_k 2^B) are the two remainders Euclid reaches after k
    steps on X/2^B.  A block w maps them to 2^64 a - s q_{k-1} w and
    2^64 b + s q_k w; the upper endpoint's tail is (a - s q_{k-1}) /
    (b + s q_k).  Euclid then runs on both tails in lockstep and certifies
    each quotient on which they agree, so a block costs O(B) per certified
    quotient instead of a full-width Euclid.  Both endpoints stay in the
    cylinder of the certified prefix, so both tails stay in [1, inf] (b = 0
    when an endpoint is the k-th convergent itself); a tail below 1 raises
    InvariantViolation.
    """

    BLOCK = 64
    MAX_BITS = 1 << 20

    def __init__(self, seed: int):
        if not 0 <= seed <= M64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed
        self._X = 0
        self._B = 0
        self._blocks = 0
        self._certified: list[int] = []
        self._sq = (0, 1)    # s q_{k-1}, s q_k
        self._tail = (1, 0)  # a, b with X/2^B = [0; a_1, ..., a_k, a/b]
        self._grow(1)

    @property
    def bits(self) -> int:
        return self._B

    def interval(self) -> tuple[Fraction, Fraction]:
        """Current enclosing dyadic interval."""
        den = 1 << self._B
        return Fraction(self._X, den), Fraction(self._X + 1, den)

    def _grow(self, nblocks: int):
        if self._B + nblocks * self.BLOCK > self.MAX_BITS:
            raise NeedsMoreBits(f"{self!r} would exceed its budget of {self.MAX_BITS} bits")
        sq0, sq1 = self._sq
        a, b = self._tail
        for _ in range(nblocks):
            self._blocks += 1
            word = mix64((self.seed + self._blocks * GOLDEN64) & M64)
            self._X = (self._X << self.BLOCK) | word
            self._B += self.BLOCK
            a = (a << self.BLOCK) - sq0 * word
            b = (b << self.BLOCK) + sq1 * word
        self._tail = a, b
        self._certify()

    def _certify(self):
        certified = self._certified
        sq0, sq1 = self._sq
        a, b = self._tail
        c, d = a - sq0, b + sq1
        # Certified prefixes are true prefixes of the expansion of x, so both
        # endpoints lie in the cylinder of the prefix: tails in [1, inf].
        if not (0 <= b <= a and 0 <= d <= c):
            raise InvariantViolation(
                f"{self!r}: an endpoint left the certified prefix of length "
                f"{len(certified)}")
        try:
            # A zero denominator means that endpoint's expansion has ended.
            while b and d:
                m, r = divmod(a, b)
                if m != c // d:
                    break
                r2 = c - m * d
                # A tail of exactly 1 is no quotient: [..., a_k, 1] is [..., a_k + 1].
                if m == 1 and not (r and r2):
                    break
                if m > QUOTIENT_CAP:
                    raise QuotientCapExceeded(
                        f"partial quotient {m} exceeds sanity cap; input is degenerate")
                certified.append(m)
                sq0, sq1 = -sq1, -(m * sq1 + sq0)
                a, b, c, d = b, r, d, r2
        finally:
            self._sq, self._tail = (sq0, sq1), (a, b)

    def quotient(self, n: int) -> int:
        if n < 1:
            raise ValueError("quotient index starts at 1")
        while len(self._certified) < n:
            self._grow(1)
        return self._certified[n - 1]

    def certified(self) -> tuple[int, ...]:
        return tuple(self._certified)

    def compare_fraction(self, r: Fraction) -> int:
        """Sign of x - r.  The bit source is endless and not eventually
        constant, so x is interior to every enclosing interval and the
        comparison never returns 0; an r that MAX_BITS bits cannot tell
        from x raises NeedsMoreBits."""
        p, q = r.numerator, r.denominator
        if q < 0:
            p, q = -p, -q
        while True:
            if p * (1 << self._B) <= q * self._X:
                return 1
            if p * (1 << self._B) >= q * (self._X + 1):
                return -1
            self._grow(1)

    def __repr__(self):
        return f"DyadicStream(seed={self.seed:#x}, bits={self._B})"


Stream = Union[RationalStream, PeriodicStream, DyadicStream]


def parse_stream(spec: str) -> Stream:
    """Parse a stream spec: rational:p/q | periodic:[a0;pre|per] | dyadic:seed=S."""
    if spec.startswith("rational:"):
        body = spec[len("rational:"):]
        p, _, q = body.partition("/")
        if not q:
            raise ValueError(f"bad rational spec {spec!r}, want rational:p/q")
        return RationalStream(int(p), int(q))
    if spec.startswith("periodic:"):
        body = spec[len("periodic:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"bad periodic spec {spec!r}")
        body = body[1:-1]
        head, _, tail = body.partition(";")
        pre_s, bar, per_s = tail.partition("|")
        if not bar:
            raise ValueError(f"periodic spec needs a | separating preperiod and period: {spec!r}")
        pre = [int(t) for t in pre_s.split(",") if t.strip()]
        per = [int(t) for t in per_s.split(",") if t.strip()]
        return PeriodicStream(int(head), pre, per)
    if spec.startswith("dyadic:"):
        key, _, seed = spec[len("dyadic:"):].partition("=")
        if key != "seed" or "," in seed:
            raise ValueError(f"dyadic spec takes one field, seed=<u64>: {spec!r}")
        return DyadicStream(int(seed, 0))
    raise ValueError(f"unknown stream spec {spec!r}")


def quotient(x, n: int) -> int:
    """Partial quotient a_n (n >= 1) of a stream or finite expansion."""
    if isinstance(x, ContinuedFraction):
        if n < 1:
            raise ValueError("quotient index starts at 1")
        if n > len(x.quotients):
            raise OutOfQuotients(len(x.quotients))
        return x.quotients[n - 1]
    return x.quotient(n)


def _levels(x):
    """The continuant walk: (n, a_n, p_n, q_n, p_{n-1}, q_{n-1}) for n = 0, 1, ...

    Level 0 is (0, a0, a0, 1, 1, 0).  a_{n+1} is read only when level n + 1
    is asked for, and the walk ends where a terminating expansion ends.
    """
    n, a, p, q, pm1, qm1 = 0, x.a0, x.a0, 1, 1, 0
    while True:
        yield n, a, p, q, pm1, qm1
        n += 1
        try:
            a = quotient(x, n)
        except OutOfQuotients:
            return
        p, q, pm1, qm1 = a * p + pm1, a * q + qm1, p, q


@dataclass(frozen=True)
class ConvergentPair:
    n: int
    p: int
    q: int

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def convergents(x, n_max: int) -> list[ConvergentPair]:
    """Convergents p_n/q_n for n = 0..n_max (stopping at a terminating end)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [ConvergentPair(n, p, q) for n, _, p, q, _, _ in islice(_levels(x), n_max + 1)]


def compare_real_rational(x, r) -> int:
    """Sign of x - r for a stream x and rational r (0 means equal)."""
    if isinstance(r, FareyFraction):
        r = r.as_fraction()
    elif not isinstance(r, Fraction):
        r = Fraction(r)
    if isinstance(x, RationalStream):
        v = x.value
        return (v > r) - (v < r)
    if isinstance(x, DyadicStream):
        return x.compare_fraction(r)
    if isinstance(x, PeriodicStream):
        return _compare_periodic(x, r)
    raise TypeError(f"not a stream: {x!r}")


def _compare_periodic(x: PeriodicStream, r: Fraction, max_terms: int = 20000) -> int:
    # Consecutive convergents bracket the (irrational) value strictly, so
    # walk until r leaves the bracket.
    for n, _, p, q, pm1, qm1 in islice(_levels(x), 1, max_terms + 1):
        lo_p, lo_q, hi_p, hi_q = (pm1, qm1, p, q) if n % 2 == 1 else (p, q, pm1, qm1)
        # bracket is (lo, hi) open; compare r by cross multiplication
        if r.numerator * lo_q <= lo_p * r.denominator:
            return 1
        if r.numerator * hi_q >= hi_p * r.denominator:
            return -1
    raise NeedsMoreBits(f"comparison undecided after {max_terms} convergents")


@dataclass(frozen=True)
class CutoffData:
    """Level cutoff N(Q, x), final multiplicity a(Q, x), and the quotients
    a_1, ..., a_{N-1} of the levels before it, as the walk read them."""

    N: int
    a: int
    terminated: bool = False
    quotients: tuple[int, ...] = ()


def cutoff(x, Q: int) -> CutoffData:
    """N = least n >= 0 with Q < q_n + q_{n-1}; a the unique integer with
    a q_{N-1} + q_{N-2} <= Q < (a+1) q_{N-1} + q_{N-2}.

    A rational stream that runs out of quotients first reports its terminal
    level with full multiplicity and terminated=True.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    read = []  # a0, a_1, ..., a_n
    for n, a, _, q, _, qm1 in _levels(x):
        if Q < q + qm1:  # never at level 0, where q_0 + q_{-1} = 1
            return CutoffData(N=n, a=a + (Q - q) // qm1, quotients=tuple(read[1:]))
        read.append(a)
    # an integer has no level 1
    return CutoffData(N=n, a=a if n else 0, terminated=True, quotients=tuple(read[1:-1]))


@dataclass(frozen=True)
class Intermediate:
    """One member of the intermediate-fraction set: level n, index m."""

    fraction: FareyFraction
    level: int
    index: int
    height: int


def intermediates(x, Q: int) -> list[Intermediate]:
    """All intermediate fractions of x with height at most Q.

    Level n contributes (m p_{n-1} + p_{n-2}) / (m q_{n-1} + q_{n-2}) for
    m = 1..a_n, the cutoff level truncated at m = a(Q, x).  The enumeration
    order has strictly increasing heights; the m = 1 element of level 1 is
    the zero class (stored 0/1, the class of the integer a0 + 1).  One pass
    over the levels: it stops at the first height above Q, or after the
    cutoff level, the first with Q < q_n + q_{n-1}.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    out: list[Intermediate] = []
    last_height = 0
    for n, a, p, q, pm1, qm1 in islice(_levels(x), 1, None):
        for m in range(1, a + 1):
            den = q - (a - m) * qm1
            if den > Q:
                return out
            assert den > last_height
            last_height = den
            out.append(Intermediate(reduce_mod1(p - (a - m) * pm1, den), n, m, den))
        if Q < q + qm1:
            break
    return out
