"""Continued fractions: canonical expansions, convergents, quotient streams,
height cutoffs and the intermediate-fraction enumeration.

Conventions.  An expansion is written [a0; a1, ..., aL] with all partial
quotients positive and, for rationals with L >= 1, a terminal quotient
aL >= 2; the integer 1 has the expansion [1] with L = 0.  Convergents
follow p_n = a_n p_{n-1} + p_{n-2}, q_n = a_n q_{n-1} + q_{n-2} seeded
with p_{-1} = 1, p_{-2} = 0, q_{-1} = 0, q_{-2} = 1, so p_0/q_0 = a0/1;
`_levels` is the one forward walk of this recurrence, which every function
here that needs convergents consumes; DyadicStream.continuant steps back on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

M64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15

# A certified quotient beyond this bound means the input is degenerate
# (for practical purposes, a rational fed in as a bit stream).
QUOTIENT_CAP = 1 << 63

# DyadicStream certifies tails past _LEHMER_MIN_BITS in batches read off their
# leading _WORD bits.  Per stream (2 vCPU Xeon), against 63-bit words and a matrix
# carried step by step: n = 2000 1.40 -> 1.15 ms, 32000 53.7 -> 37.4 ms, 100000
# 357 -> 244 ms.  188-, 250- and 314-bit words, and thresholds of 320 to 512 bits,
# measured within about 5% of each other with no consistent winner; 250 and 512
# sit in that flat range.
_WORD = 250
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


class PartialQuotientStream:
    """A real presented by its integer part and partial quotients a_1, a_2, ..."""

    a0: int = 0

    def quotient(self, n: int) -> int:
        raise NotImplementedError

    def quotients(self, lo: int, hi: int) -> list[int]:
        """[a_lo, ..., a_{hi-1}]."""
        return [self.quotient(i) for i in range(lo, hi)]

    def continuant(self, n: int) -> int:
        """q_n off the walk `_levels`; OutOfQuotients(L) past a finite end, as quotient."""
        if n < 0:
            raise ValueError("continuant index starts at 0")
        for k, _, _, q, _, _ in _levels(self):
            if k == n:
                return q
        raise OutOfQuotients(k)

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


@dataclass(frozen=True)
class ContinuedFraction(PartialQuotientStream):
    """The expansion [a0; a_1, a_2, ...]: the preperiod's quotients, then the
    period's repeated (a quadratic irrational).  An empty period is the
    canonical finite expansion [a0; a_1, ..., a_L] of a rational."""

    a0: int
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("preperiod", "period"):
            object.__setattr__(self, name, tuple(int(a) for a in getattr(self, name)))
        if any(a < 1 for a in self.preperiod + self.period):
            raise ValueError("partial quotients must be positive")
        if not self.period and self.preperiod and self.preperiod[-1] < 2:
            raise ValueError("canonical terminal quotient must be >= 2")

    def __str__(self) -> str:
        pre = ",".join(map(str, self.preperiod))
        if self.period:
            return f"[{self.a0};{pre}|{','.join(map(str, self.period))}]"
        return f"[{self.a0};{pre}]" if pre else f"[{self.a0}]"

    def quotient(self, n: int) -> int:
        if n < 1:
            raise ValueError("quotient index starts at 1")
        if n <= len(self.preperiod):
            return self.preperiod[n - 1]
        if not self.period:
            raise OutOfQuotients(len(self.preperiod))
        return self.period[(n - len(self.preperiod) - 1) % len(self.period)]


def cf_of_rational(x: tuple[int, int]) -> ContinuedFraction:
    """Canonical expansion of p/q, x = (p, q), via the Euclidean algorithm in
    floor division, which gives (-p, -q) the quotients of (p, q); the final
    quotient is automatically >= 2 whenever a division step happens."""
    p, q = x
    if q == 0:
        raise ValueError("invalid denominator: q = 0")
    a0, r = divmod(p, q)
    qs = []
    while r:
        k, r2 = divmod(q, r)
        qs.append(k)
        q, r = r, r2
    return ContinuedFraction(a0, tuple(qs))


def _lehmer_batch(a, b, c, d, sq0, sq1):
    """The quotients shared by every number between the leading-word brackets
    of the tails a/b and c/d, and (a, b, sq0, sq1) after them (Lehmer 1938;
    Jebelean, J. Symbolic Comput. 19, 1995).  Euclid runs on the outer ends u
    and v alone while both give the quotient m and a nonzero remainder; the
    matrix M taking (a, b) to (x0 a + x1 b, y0 a + y1 b) is read off the ends
    once, N = M P with P and N the ends as columns before and after, and
    c = a - sq0, d = b + sq1 follow it.  A quotient above QUOTIENT_CAP
    empties the batch, so the exact steps reach it and raise."""
    h = max(a.bit_length(), c.bit_length()) - _WORD
    A, B, C, D = a >> h, b >> h, c >> h, d >> h
    # a/b lies in [A/(B+1), (A+1)/B] and c/d in [C/(D+1), (C+1)/D]
    u0, u1 = (A, B + 1) if A * (D + 1) <= C * (B + 1) else (C, D + 1)
    # B or D = 0 makes v infinite (v1 = 0), which no quotient fits under
    v0, v1 = (A + 1, B) if (A + 1) * D >= (C + 1) * B else (C + 1, D)
    batch = []
    un, ud, vn, vd = u0, u1, v0, v1
    while True:
        m, ru = divmod(un, ud)
        rv = vn - m * vd
        if not (ru and 0 < rv < vd):
            break
        batch.append(m)
        un, ud, vn, vd = ud, ru, vd, rv
    if not batch or max(batch) > QUOTIENT_CAP:
        return [], None
    det = u0 * v1 - v0 * u1  # < 0, as u < v; every division below is exact
    x0, x1 = (un * v1 - vn * u1) // det, (vn * u0 - un * v0) // det
    y0, y1 = (ud * v1 - vd * u1) // det, (vd * u0 - ud * v0) // det
    return batch, (x0 * a + x1 * b, y0 * a + y1 * b, x0 * sq0 - x1 * sq1, y1 * sq1 - y0 * sq0)


class DyadicStream(PartialQuotientStream):
    """x in (0, 1) whose binary digits come from a seeded 64-bit generator.

    Block k (k = 0, 1, ...) of 64 bits is mix64((seed + (k+1)*GOLDEN64) mod 2^64),
    blocks concatenated most significant first.  The stream keeps the dyadic
    interval [X/2^B, (X+1)/2^B] containing x; a partial quotient is certified
    once the canonical expansions of both endpoints agree through its index.
    Construction draws block 0; quotient(n), with k < n certified, appends in
    one pass the blocks a lower bound says a_n needs: both endpoints lie in the
    rank-n cylinder, of length 1/(q_n (q_n + q_{n-1})) < q_n^-2, and q_n >=
    q_k phi^(n-k-1) (Khinchin, Continued Fractions, sections 2-4), so fewer
    bits never certify a_n and it draws the bits of a walk one block at a
    time (only a QuotientCapExceeded may be raised after more).  Earlier bits
    never change, so certified quotients are stable, and a comparison draws
    bits only through quotient.  Growing past MAX_BITS raises NeedsMoreBits.

    Certification is incremental (Gosper, HAKMEM item 101).  With a_1..a_k
    certified and s = (-1)^k, the stream holds the signed denominators
    s q_{k-1}, s q_k and the tail t = a/b of the lower endpoint, so that
    X/2^B = [0; a_1, ..., a_k, t].  Here a = s (p_{k-1} 2^B - q_{k-1} X) and
    b = s (q_k X - p_k 2^B) are the two remainders Euclid reaches after k
    steps on X/2^B.  New blocks, one m-bit integer w, map them to
    2^m a - s q_{k-1} w and 2^m b + s q_k w; the upper endpoint's tail is
    (a - s q_{k-1}) / (b + s q_k).  Euclid then runs on both tails in
    lockstep and certifies each quotient on which they agree.  Past
    _LEHMER_MIN_BITS quotients come in batches of 60 to 70 read off the tails'
    leading words (_lehmer_batch), each one full-width matrix product, not
    O(B) per quotient; a short tail, or an empty batch, takes one full-width
    step.  Both endpoints stay in the cylinder of the
    certified prefix, so both tails stay in [1, inf] (b = 0 when an endpoint
    is the k-th convergent itself); a tail below 1 raises InvariantViolation.
    continuant(n) certifies as quotient(n) does, then steps back from |s q_k|
    by q_{j-1} = q_{j+1} - a_{j+1} q_j: k - n big-int steps, not n.
    """

    BLOCK = 64
    MAX_BITS = 1 << 20

    def __init__(self, seed: int):
        if not 0 <= seed <= M64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = seed
        self._X = 0
        self._B = 0
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
        w, k = 0, self._B // self.BLOCK  # the new blocks as one integer: each big int shifts once
        for j in range(k + 1, k + nblocks + 1):
            w = (w << self.BLOCK) | mix64((self.seed + j * GOLDEN64) & M64)
        bits = nblocks * self.BLOCK
        (sq0, sq1), (a, b) = self._sq, self._tail
        self._X, self._B = (self._X << bits) | w, self._B + bits
        self._tail = (a << bits) - sq0 * w, (b << bits) + sq1 * w
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
        while (k := len(self._certified)) < n:
            # B > 2 log2 q_n > 2 log2 q_k + 1.388 (n - k - 1); at least one block,
            # at most the room left, so _grow raises only once none is left
            need = 2 * (abs(self._sq[1]).bit_length() - 1) + (n - k - 1) * 1388 // 1000
            room = (self.MAX_BITS - self._B) // self.BLOCK
            self._grow(max(1, min(-((self._B - need) // self.BLOCK), room)))
        return self._certified[n - 1]

    def quotients(self, lo: int, hi: int) -> list[int]:
        if not 1 <= lo < hi:
            return super().quotients(lo, hi)  # [] or quotient(lo)'s ValueError
        self.quotient(hi - 1)  # through the attribute, which perfbench/tracer.py patches
        return self._certified[lo - 1:hi - 1]

    def continuant(self, n: int) -> int:
        if n < 1:
            return super().continuant(n)  # q_0 = 1, or the ValueError
        self.quotient(n)  # through the attribute, which perfbench/tracer.py patches
        qm1, q = map(abs, self._sq)  # q_{k-1}, q_k
        for a in reversed(self._certified[n:]):  # a_{j+1}: q_{j-1} = q_{j+1} - a_{j+1} q_j
            qm1, q = q - a * qm1, qm1
        return q

    def certified(self) -> tuple[int, ...]:
        return tuple(self._certified)

    def __repr__(self):
        return f"DyadicStream(seed={self.seed:#x}, bits={self._B})"


def parse_stream(spec: str) -> PartialQuotientStream:
    """Parse a stream spec: rational:p/q | periodic:[a0;pre|per] | dyadic:seed=S."""
    if spec.startswith("rational:"):
        body = spec[len("rational:"):]
        p, _, q = body.partition("/")
        if not q:
            raise ValueError(f"bad rational spec {spec!r}, want rational:p/q")
        return cf_of_rational((int(p), int(q)))
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
        if not per:  # an empty period is a finite expansion, which rational: spells
            raise ValueError("period must be nonempty")
        return ContinuedFraction(int(head), pre, per)
    if spec.startswith("dyadic:"):
        key, _, seed = spec[len("dyadic:"):].partition("=")
        if key != "seed" or "," in seed:
            raise ValueError(f"dyadic spec takes one field, seed=<u64>: {spec!r}")
        return DyadicStream(int(seed, 0))
    raise ValueError(f"unknown stream spec {spec!r}")


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
            a = x.quotient(n)
        except OutOfQuotients:
            return
        p, q, pm1, qm1 = a * p + pm1, a * q + qm1, p, q


def convergents(x, n_max: int) -> list[tuple[int, int, int]]:
    """(n, p_n, q_n) for n = 0..n_max (stopping at a terminating end)."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [(n, p, q) for n, _, p, q, _, _ in islice(_levels(x), n_max + 1)]


@dataclass(frozen=True)
class CutoffData:
    """Level cutoff N(Q, x), final multiplicity a(Q, x), and the quotients
    a_1, ..., a_{N-1} of the levels before it, as the walk read them."""

    N: int
    a: int
    quotients: tuple[int, ...] = ()


def cutoff(x, Q: int) -> CutoffData:
    """N = least n >= 0 with Q < q_n + q_{n-1}; a the unique integer with
    a q_{N-1} + q_{N-2} <= Q < (a+1) q_{N-1} + q_{N-2}.

    A rational stream that runs out of quotients first reports its terminal
    level with full multiplicity.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    read = []  # a0, a_1, ..., a_n
    for n, a, _, q, _, qm1 in _levels(x):
        if Q < q + qm1:  # never at level 0, where q_0 + q_{-1} = 1
            return CutoffData(N=n, a=a + (Q - q) // qm1, quotients=tuple(read[1:]))
        read.append(a)
    # an integer has no level 1
    return CutoffData(N=n, a=a if n else 0, quotients=tuple(read[1:-1]))


def intermediates(x, Q: int) -> list[tuple[int, int, int, int]]:
    """(level, index, num, den) of each intermediate fraction of x with height
    at most Q; its height is den.

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

