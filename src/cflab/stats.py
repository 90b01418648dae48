"""Weight families, terminal quotients, tail-bounded series and classical
quotient statistics.

The weight families g and terminal_quotient define the weight
c(beta) = g(terminal partial quotient of beta) of the weighted count M_Q,
whose three routes live in cflab.harness.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from . import farey

LOG2 = math.log(2)
HARMONIC_PREFIX_LIMIT = 2 ** 16  # farey's exact prefix: about 0.91 s and 818 MiB (2 vCPU EPYC)
POWER_PREFIX_LIMIT = 2 ** 18  # its long-double prefix: about 0.37 s and 10 MiB (2 vCPU EPYC)


@dataclass(frozen=True)
class WeightFunction:
    """Multiplicity weight g on positive integers.

    Families: power (g(m) = m^(-(1/2+gamma)), evaluated in extended 80-bit
    precision and rounded to the nearest long double), harmonic (1/m),
    unit (1), table (rationals at the listed m, in ascending (m, value)
    pairs, zero elsewhere).
    """

    family: str
    gamma: float | None = None
    table: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def harmonic() -> "WeightFunction":
        return WeightFunction("harmonic")

    @staticmethod
    def unit() -> "WeightFunction":
        return WeightFunction("unit")

    @staticmethod
    def power(gamma: float) -> "WeightFunction":
        if not gamma > 0:
            raise ValueError("power family needs gamma > 0")
        return WeightFunction("power", gamma=gamma)

    @property
    def is_exact(self) -> bool:
        return self.family != "power"

    def __call__(self, m: int):
        if m < 1:
            raise ValueError("weights are defined on positive integers")
        if self.family == "harmonic":
            return Fraction(1, m)
        if self.family == "unit":
            return Fraction(1)
        if self.family == "table":
            i = bisect.bisect_left(self.table, (m,))
            hit = i < len(self.table) and self.table[i][0] == m
            return self.table[i][1] if hit else Fraction(0)
        import numpy as np

        return np.longdouble(m) ** np.longdouble(-(0.5 + self.gamma))

    def floats(self, ms: Sequence[int]) -> list[float]:
        """[float(self(m)) for m in ms], without building a Fraction for harmonic
        and unit weights (1 / m is the same correctly rounded int division) and
        with the power weights as one long-double array power."""
        if min(ms, default=1) < 1:
            raise ValueError("weights are defined on positive integers")
        if self.family == "harmonic":
            return [1 / m for m in ms]
        if self.family == "unit":
            return [1.0] * len(ms)
        if self.family == "table":
            return [float(self(m)) for m in ms]
        import numpy as np

        ld = np.array(ms, dtype=np.longdouble) ** np.longdouble(-(0.5 + self.gamma))
        return ld.astype(float).tolist()


_PREFIX_CACHE: dict = {}  # power weight -> its long-double prefix; per process


def parse_weight(spec: str) -> WeightFunction:
    """Parse a weight spec: power:<gamma> | harmonic | unit | table:<path>.

    A table file holds one `m value` pair per line, values as p/q or
    decimal strings; unlisted m get weight 0.
    """
    if spec == "harmonic":
        return WeightFunction.harmonic()
    if spec == "unit":
        return WeightFunction.unit()
    if spec.startswith("power:"):
        return WeightFunction.power(float(spec[6:]))
    if spec.startswith("table:"):
        path = spec[6:]
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ValueError(f"cannot read weight table {path!r}: {exc.strerror}") from exc
        entries: dict[int, Fraction] = {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                m_s, val_s = line.split()
                m, val = int(m_s), Fraction(val_s)
                if m < 1 or m in entries:
                    raise ValueError
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad weight table line {line!r}") from None
            entries[m] = val
        if not entries:
            raise ValueError(f"empty weight table {path!r}")
        return WeightFunction("table", table=tuple(sorted(entries.items())))
    raise ValueError(f"unknown weight spec {spec!r}")


def terminal_quotient(a: int, q: int) -> int:
    """Last partial quotient of the canonical expansion of the class a/q, q >= 1.

    The zero class counts as the expansion [1] of the representative 1, so
    its terminal quotient is 1; any other is the last Euclid quotient of (q, a mod q).
    """
    if q == 1:
        return 1
    a %= q
    r = q % a
    while r:
        q, a, r = a, r, a % r
    return q // a


# B_2j / (2j)! for j = 1..7: the Euler-Maclaurin coefficients of _hurwitz
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600)


def _hurwitz(s: float, a: int) -> tuple[float, float]:
    """(zeta(s, a), remainder) for s > 1 and a >= 1, by Euler-Maclaurin:
    a^(1-s)/(s-1) + a^-s/2 + sum_{j<=6} B_2j/(2j)! (s)_(2j-1) a^(-s-2j+1).

    Every derivative of (x+a)^-s alternates in sign, so the truncation error
    is smaller than the first omitted term (j = 7), whose size is returned.
    Six terms keep the remainders far below _series_tail's bound at a = 4097.
    """
    p = a ** -s
    terms, c = [p * a / (s - 1), p / 2], p * s / a  # c = (s)_(2j-1) a^(-s-2j+1)
    for j, b in enumerate(_EM_COEFFS):
        terms.append(b * c)
        c *= (s + 2 * j + 1) * (s + 2 * j + 2) / (a * a)
    return math.fsum(terms[:-1]), abs(terms[-1])


def _series_tail(s0: float, M: int, shift: int) -> tuple[float, float]:
    """(tail, bound) for sum_{m>M} (m+shift)^-s0 log(1+1/m), shift 0 or 1.

    Expanding log(1+1/m) as sum_k (-1)^(k+1)/(k m^k) for shift 0, or as
    sum_k 1/(k (m+1)^k) for shift 1, turns the tail into the Hurwitz zeta
    sum sum_k +-zeta(s0+k, M+1+shift)/k, summed for k <= 8.  The alternating
    sum is bounded by its first omitted term; the positive one by that term
    times (M+2)/(M+1), since each term is at most 1/(M+2) of the one before.
    The bound adds the remainders of _hurwitz and is rounded up; the float
    rounding of the tail is not in it.
    """
    a, kmax = M + 1 + shift, 8
    z, r = zip(*(_hurwitz(s0 + k, a) for k in range(1, kmax + 2)))  # z[k - 1] = zeta(s0+k, a)
    tail = math.fsum((-z[k - 1] if shift == 0 and k % 2 == 0 else z[k - 1]) / k
                     for k in range(1, kmax + 1))
    bound = ((z[kmax] + r[kmax]) / (kmax + 1) * (a / (a - 1) if shift else 1)
             + math.fsum(r[k - 1] / k for k in range(1, kmax + 1)))
    return tail, math.nextafter(bound, math.inf)


def weight_log_series(g: WeightFunction, shift: int = 0) -> tuple[float, float]:
    """(value, tail_bound) for sum_{m>=1} g(m+shift) log(1+1/m).

    Power and harmonic weights sum the terms m <= 4096 and get a Hurwitz-zeta
    tail (bound far below 1e-30); they take shift 0 or 1 only.  Raises
    ValueError for unit weights (divergent).
    """
    if g.family == "unit":
        raise ValueError("series diverges for unit weights")
    if g.family == "table":
        total = 0.0
        for k, v in g.table:  # the unlisted terms are 0
            if k > shift:
                total += float(v) * math.log1p(1.0 / (k - shift))
        return total, 0.0
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    s0, head = (1.0 if g.family == "harmonic" else 0.5 + g.gamma), 4096
    ws = g.floats(range(1 + shift, head + shift + 1))
    head_sum = math.fsum(map(mul, ws, [math.log1p(1.0 / m) for m in range(1, head + 1)]))
    tail, bound = _series_tail(s0, head, shift)
    return head_sum + tail, bound


def mq_level_expectation(g: WeightFunction) -> float:
    """Expected weight contributed by one full level under the limiting
    quotient law: sum_{m>=1} g(m+1) log2(1+1/m).

    This is the per-level mean implied by the exact closed form (the m = 1
    member of level n carries g(a_{n-1}+1), not g(1)); it differs from the
    unshifted series sum_m g(m) log2(1+1/m) for non-constant g.
    """
    value, _ = weight_log_series(g, shift=1)
    return value / LOG2


def indicator_sum(x, m: int, n: int) -> int:
    """Number of indices i <= n with a_i(x) >= m."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return sum(1 for a in x.quotients(1, n + 1) if a >= m)


@dataclass(frozen=True)
class TruncationFn:
    """f(n) = floor(n (log n)^(1/2+delta)), with f(1) = 1."""

    delta: float

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n == 1:
            return 1
        try:
            return int(n * math.log(n) ** (0.5 + self.delta))
        except OverflowError:
            raise ValueError(f"f({n}) overflows at delta = {self.delta}") from None


def x_nf(x, n: int, g: WeightFunction, f: TruncationFn):
    """X_{n,f} = sum_{m=2}^{f(n)} g(m) #{i <= n : a_i >= m}.

    With k_i = min(a_i, f(n)): sum k_i - n for unit weights, the listed
    g(m) #{i : k_i >= m} for tables, sum H_{k_i} - n as one integer over
    farey's harmonic prefix, and the cached long-double prefixes of power
    weights added in index order.  The first k_i past its family's bound,
    HARMONIC_PREFIX_LIMIT or POWER_PREFIX_LIMIT, is refused before a prefix grows.
    """
    top = max(f(n), 1)  # when f(n) < 2 the sum is empty and every k_i = 1
    ks = [min(a, top) for a in x.quotients(1, n + 1)]
    if g.family == "unit":
        return Fraction(sum(ks) - n)
    if g.family == "table":
        ks.sort()
        return sum((v * (n - bisect.bisect_left(ks, m)) for m, v in g.table if 2 <= m <= ks[-1]),
                   Fraction(0))
    limit = HARMONIC_PREFIX_LIMIT if g.family == "harmonic" else POWER_PREFIX_LIMIT
    K = next((k for k in ks if k > limit), max(ks))
    if K > limit:
        raise ValueError(f"the {g.family} prefix sum to {K} is past its bound of {limit}")
    if g.family == "harmonic":
        N, L = farey._harmonic_prefix(K)
        acc, prev = 0, 1  # Horner, ascending: acc / L[prev] = sum of H_{k_i} over k_i <= prev
        for k, count in sorted(Counter(ks).items()):
            acc = acc * (L[k] // L[prev]) + count * N[k]
            prev = k
        return Fraction(acc, L[prev]) - n
    import numpy as np

    if (prefix := _PREFIX_CACHE.get(g)) is None:
        prefix = _PREFIX_CACHE[g] = [np.longdouble(0)] * 2  # prefix[k] = g(2) + ... + g(k)
    while (m := len(prefix)) <= K:  # in place; a racing grower sets slot m to the same value
        prefix[m:m + 1] = [prefix[m - 1] + g(m)]
    return sum([prefix[k] for k in ks], np.longdouble(0))


def birkhoff_average(x, fvals: Callable[[int], object], n: int):
    """Cesaro average (1/n) sum_{k<=n} fvals(a_k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for a in x.quotients(1, n + 1):
        total = total + fvals(a)
    return total / n


@dataclass(frozen=True)
class ClassicalStats:
    """log q_n / n together with the running sum and max of the quotients."""

    n: int
    levy_stat: float
    pq_sum: int
    pq_max: int
    q_n: int


def classical_stats(x, ns: Sequence[int]) -> list[ClassicalStats]:
    """The running statistics at each n in ns, in its order: the quotient sum and
    max from one pass over a_1..a_max(ns), q_n from the stream (`continuant`)."""
    if min(ns) < 1:
        raise ValueError("n must be >= 1")
    at = {}
    pq_sum = pq_max = done = 0
    for n in sorted(set(ns)):
        run = x.quotients(done + 1, n + 1)
        pq_sum += sum(run)
        pq_max = max(pq_max, max(run))
        done = n
        q_n = x.continuant(n)
        at[n] = ClassicalStats(n, math.log(q_n) / n, pq_sum, pq_max, q_n)
    return [at[n] for n in ns]


def double_exceedance(x, M: int, delta: float) -> int:
    """#{i <= M : a_i > M (log M)^(1/2+delta)}."""
    if M < 1:
        raise ValueError("M must be >= 1")
    try:
        threshold = M * math.log(M) ** (0.5 + delta) if M > 1 else 0.0
    except OverflowError:
        raise ValueError(f"the threshold at M = {M} overflows at delta = {delta}") from None
    return sum(1 for a in x.quotients(1, M + 1) if a > threshold)
