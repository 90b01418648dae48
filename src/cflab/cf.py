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

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Union

from .rationals import FareyFraction, _pair

M64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15

# A certified quotient beyond this bound means the input is degenerate
# (for practical purposes, a rational fed in as a bit stream).
QUOTIENT_CAP = 1 << 63

# DyadicStream certifies tails past _LEHMER_MIN_BITS in batches read off their
# leading _WORD bits, so each batch quotient is below 2^63 <= QUOTIENT_CAP.
# Against no batches, a_1..a_n per stream (2 vCPU) took within 2% for n <= 250,
# -15 to -19% at n = 1000, -33 to -35% at 2000; a 128-bit threshold +10% at 100.
_WORD = 63
_LEHMER_MIN_BITS = 512


class OutOfQuotients(Exception):
    """A terminating expansion was asked for a quotient past its end."""

    def __init__(self, length: int):
        super().__init__(length)  # args hold the length, so a pickle round trip rebuilds it
        self.length = length

    def __str__(self) -> str:
        return f"expansion ends after {self.length} partial quotients"


class NeedsMoreBits(Exception):
    """A dyadic stream's certification ran out of its bit budget (a
    comparison draws bits only by certifying quotients)."""


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

    def quotient(self, n: int) -> int:
        if n < 1:
            raise ValueError("quotient index starts at 1")
        if n > len(self.quotients):
            raise OutOfQuotients(len(self.quotients))
        return self.quotients[n - 1]


def cf_of_rational(x) -> ContinuedFraction:
    """Canonical expansion of a rational via the Euclidean algorithm; the
    final quotient is automatically >= 2 whenever a division step happens."""
    p, q = _pair(x)
    if q == 0:
        raise ValueError("invalid denominator: q = 0")
    if q < 0:
        p, q = -p, -q
    a0, r = divmod(p, q)
    qs = []
    while r:
        k, r2 = divmod(q, r)
        qs.append(k)
        q, r = r, r2
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

    def compare_fraction(self, r: Fraction) -> int:
        """Sign of x - r, read off the expansions (Khinchin, Continued
        Fractions, section 1).  Euclid gives r's quotients only as far as
        needed; the first index n where the quotients differ decides, an
        ended expansion reading as +inf there, and the sign flips at odd n.
        0 means both expansions end together."""
        p, q = r.numerator, r.denominator
        n, a = 0, self.a0
        while True:
            b = p // q if q else math.inf
            if a != b:
                return 1 if (a > b) == (n % 2 == 0) else -1
            if a == math.inf:
                return 0
            p, q, n = q, p % q, n + 1
            try:
                a = self.quotient(n)
            except OutOfQuotients:
                a = math.inf


class RationalStream(PartialQuotientStream):
    """Terminating stream for a rational number."""

    def __init__(self, p: int, q: int):
        if q == 0:
            raise ValueError("invalid denominator: q = 0")
        self.value = Fraction(p, q)
        self._cf = cf_of_rational(self.value)
        self.a0 = self._cf.a0

    def quotient(self, n: int) -> int:
        return self._cf.quotient(n)

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


def _lehmer_batch(a, b, c, d, sq0, sq1):
    """The quotients shared by every number between the leading-word brackets
    of the tails a/b and c/d, and (a, b, sq0, sq1) after them (Lehmer 1938;
    Knuth, TAOCP vol. 2, 4.5.2, Algorithm L).  Euclid runs in word-size ints
    on the outer endpoints u and v while both give the quotient m and a
    nonzero remainder; the matrix takes (a, b) to (x0 a + x1 b, y0 a + y1 b),
    and c = a - sq0, d = b + sq1 follow the same map."""
    h = max(a.bit_length(), c.bit_length()) - _WORD
    A, B, C, D = a >> h, b >> h, c >> h, d >> h
    # a/b lies in [A/(B+1), (A+1)/B] and c/d in [C/(D+1), (C+1)/D]
    un, ud = (A, B + 1) if A * (D + 1) <= C * (B + 1) else (C, D + 1)
    # B or D = 0 makes v infinite (vd = 0), which no quotient fits under
    vn, vd = (A + 1, B) if (A + 1) * D >= (C + 1) * B else (C + 1, D)
    batch = []
    x0, x1, y0, y1 = 1, 0, 0, 1
    while True:
        m, ru = divmod(un, ud)
        rv = vn - m * vd
        if not (ru and 0 < rv < vd):
            break
        batch.append(m)
        un, ud, vn, vd = ud, ru, vd, rv
        x0, x1, y0, y1 = y0, y1, x0 - m * y0, x1 - m * y1
    return batch, ((x0 * a + x1 * b, y0 * a + y1 * b,
                    x0 * sq0 - x1 * sq1, y1 * sq1 - y0 * sq0) if batch else None)


class DyadicStream(PartialQuotientStream):
    """x in (0, 1) whose binary digits come from a seeded 64-bit generator.

    Block k (k = 0, 1, ...) of 64 bits is mix64((seed + (k+1)*GOLDEN64) mod 2^64),
    blocks concatenated most significant first.  The stream keeps the dyadic
    interval [X/2^B, (X+1)/2^B] containing x; a partial quotient is certified
    once the canonical expansions of both endpoints agree through its index.
    Construction draws block 0; quotient appends one block at a time only
    when it needs it, never altering earlier bits, so certified quotients are
    stable, and a comparison draws bits only through it.  Growing past
    MAX_BITS raises NeedsMoreBits.

    Certification is incremental (Gosper, HAKMEM item 101).  With a_1..a_k
    certified and s = (-1)^k, the stream holds the signed denominators
    s q_{k-1}, s q_k and the tail t = a/b of the lower endpoint, so that
    X/2^B = [0; a_1, ..., a_k, t].  Here a = s (p_{k-1} 2^B - q_{k-1} X) and
    b = s (q_k X - p_k 2^B) are the two remainders Euclid reaches after k
    steps on X/2^B.  A block w maps them to 2^64 a - s q_{k-1} w and
    2^64 b + s q_k w; the upper endpoint's tail is (a - s q_{k-1}) /
    (b + s q_k).  Euclid then runs on both tails in lockstep and certifies
    each quotient on which they agree.  Past _LEHMER_MIN_BITS a block's ~18
    quotients come in a batch of about 17 read off the tails' leading words
    (_lehmer_batch) and one or two small ones, each one full-width matrix
    product, not O(B) per quotient; a short tail, or an empty batch, takes
    one full-width step.  Both endpoints stay in the cylinder of the
    certified prefix, so both tails stay in [1, inf] (b = 0 when an endpoint
    is the k-th convergent itself); a tail below 1 raises InvariantViolation.
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
        lehmer = a.bit_length() > _LEHMER_MIN_BITS
        try:
            # A zero denominator means that endpoint's expansion has ended.
            while b and d:
                if lehmer:
                    batch, state = _lehmer_batch(a, b, c, d, sq0, sq1)
                    if batch:
                        certified += batch
                        a, b, sq0, sq1 = state
                        c, d = a - sq0, b + sq1
                        lehmer = a.bit_length() > _LEHMER_MIN_BITS
                        continue
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


class Intermediate(NamedTuple):
    """One member of the intermediate-fraction set: level n, index m, num/den mod 1."""

    level: int
    index: int
    num: int
    den: int

    @property
    def fraction(self) -> FareyFraction:
        return FareyFraction(self.num, self.den)

    @property
    def height(self) -> int:
        return self.den


def intermediate_tuples(x, Q: int) -> list[tuple[int, int, int, int]]:
    """(level, index, num, den) of each intermediate fraction of x with height
    at most Q, as plain tuples.

    Level n contributes (m p_{n-1} + p_{n-2}) / (m q_{n-1} + q_{n-2}) for
    m = 1..a_n, the cutoff level truncated at m = a(Q, x).  The enumeration
    order has strictly increasing heights; the m = 1 element of level 1 is
    the zero class (stored 0/1, the class of the integer a0 + 1).  Each is
    reduced, having determinant +-1 with p_{n-1}/q_{n-1}, so num is only taken
    mod den.  One pass over the levels: it stops at the first height above Q,
    or after the cutoff level, the first with Q < q_n + q_{n-1}.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    out = []
    last_height = 0
    for n, a, p, q, pm1, qm1 in islice(_levels(x), 1, None):
        num, den = p - a * pm1, q - a * qm1  # p_{n-2}, q_{n-2}
        for m in range(1, a + 1):
            num, den = num + pm1, den + qm1
            if den > Q:
                return out
            if den <= last_height:
                raise InvariantViolation(f"height {den} at level {n} does not exceed {last_height}")
            last_height = den
            out.append((n, m, num % den, den))
        if Q < q + qm1:
            break
    return out


def intermediates(x, Q: int) -> list[Intermediate]:
    """intermediate_tuples(x, Q) as Intermediate records."""
    return [Intermediate(*t) for t in intermediate_tuples(x, Q)]
