"""Weight families, terminal quotients, tail-bounded series and classical
quotient statistics.

The weight families g and terminal_quotient define the weight
c(beta) = g(terminal partial quotient of beta) of the weighted count M_Q,
whose three routes live in cflab.harness.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cf import quotient

LOG2 = math.log(2)


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

    @staticmethod
    def from_table(values: Sequence) -> "WeightFunction":
        """g(m) = values[m - 1] for m up to len(values), zero beyond."""
        return WeightFunction("table", table=tuple((m, Fraction(v))
                                                   for m, v in enumerate(values, start=1)))

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

    def float_at(self, m: int) -> float:
        """float(self(m)), without building a Fraction for harmonic and unit
        weights: 1 / m is the same correctly rounded int division."""
        if m < 1:
            raise ValueError("weights are defined on positive integers")
        if self.family == "harmonic":
            return 1 / m
        return 1.0 if self.family == "unit" else float(self(m))

    def sum_to(self, k: int):
        """Prefix sum of g over 2..k (empty when k < 2)."""
        if k < 2:
            return self._zero()
        if (cache := _PREFIX_CACHE.get(self)) is None:
            cache = _PREFIX_CACHE[self] = [self._zero()] * 2  # cache[k] = g(2) + ... + g(k)
        while (m := len(cache)) <= k:  # in place; a racing grower sets slot m to the same value
            cache[m:m + 1] = [cache[m - 1] + self(m)]
        return cache[k]

    def _zero(self):
        if self.is_exact:
            return Fraction(0)
        import numpy as np

        return np.longdouble(0)


_PREFIX_CACHE: dict = {}  # per process: forked workers each grow their own


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


def _series_tail(s0: float, M: int, shift: int) -> tuple[float, float]:
    """(tail, bound) for sum_{m>M} (m+shift)^-s0 log(1+1/m), shift 0 or 1.

    Expanding log(1+1/m) as sum_k (-1)^(k+1)/(k m^k) for shift 0, or as
    sum_k 1/(k (m+1)^k) for shift 1, turns the tail into the Hurwitz zeta
    sum sum_k +-zeta(s0+k, M+1+shift)/k, summed for k <= 8.  The alternating
    sum is bounded by its first omitted term; the positive one by that term
    times (M+2)/(M+1), since each term is at most 1/(M+2) of the one before.
    """
    import mpmath

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


def weight_log_series(g: WeightFunction, start: int = 1,
                      shift: int = 0) -> tuple[float, float]:
    """(value, tail_bound) for sum_{m>=start} g(m+shift) log(1+1/m).

    Power and harmonic weights sum the terms m <= 4096 and get a Hurwitz-zeta
    tail (bound far below 1e-30); they take shift 0 or 1 only.  Raises
    ValueError for unit weights (divergent).
    """
    if g.family == "unit":
        raise ValueError("series diverges for unit weights")
    if g.family == "table":
        total = 0.0
        for k, v in g.table:  # the unlisted terms are 0
            if k - shift >= start:
                total += float(v) * math.log1p(1.0 / (k - shift))
        return total, 0.0
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    s0, head = (1.0 if g.family == "harmonic" else 0.5 + g.gamma), 4096
    head_sum = math.fsum(g.float_at(m + shift) * math.log1p(1.0 / m)
                         for m in range(start, head + 1))
    tail, bound = _series_tail(s0, head, shift)
    return head_sum + tail, bound


def main_term(g: WeightFunction, Q: float, cutoff_m: int | None = None) -> float:
    """Predicted main term for M_Q: (12/pi^2) (sum_m g(m) log(1+1/m)) log Q.

    With cutoff_m = None the series runs over all m >= 1 (tail bounded below
    1e-10); an integer cutoff gives the truncated variant summing m = 2..cutoff_m.
    """
    if Q <= 1:
        raise ValueError("Q must exceed 1")
    if cutoff_m is None:
        series, _ = weight_log_series(g, start=1)
    else:
        series = math.fsum(g.float_at(m) * math.log1p(1.0 / m)
                           for m in range(2, cutoff_m + 1))
    return 12 / math.pi**2 * series * math.log(Q)


def mq_level_expectation(g: WeightFunction) -> float:
    """Expected weight contributed by one full level under the limiting
    quotient law: sum_{m>=1} g(m+1) log2(1+1/m).

    This is the per-level mean implied by the exact closed form (the m = 1
    member of level n carries g(a_{n-1}+1), not g(1)); it differs from the
    unshifted series sum_m g(m) log2(1+1/m) for non-constant g.
    """
    value, _ = weight_log_series(g, start=1, shift=1)
    return value / LOG2


def indicator_sum(x, m: int, n: int) -> int:
    """Number of indices i <= n with a_i(x) >= m."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    return sum(1 for i in range(1, n + 1) if quotient(x, i) >= m)


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

    Computed as sum over i of the prefix sums of g up to min(a_i, f(n)).
    """
    top = f(n)
    total = g._zero()
    for i in range(1, n + 1):
        a_i = quotient(x, i)
        total = total + g.sum_to(min(a_i, top))
    return total


def gauss_kuzmin_prob(k: int) -> float:
    """Limiting probability log2(1 + 1/(k(k+2))) of a partial quotient equal to k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.log1p(1.0 / (k * (k + 2))) / LOG2


def birkhoff_average(x, fvals: Callable[[int], object], n: int):
    """Cesaro average (1/n) sum_{k<=n} fvals(a_k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for k in range(1, n + 1):
        total = total + fvals(quotient(x, k))
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
    """The running statistics at each n in ns, in its order, from one pass."""
    if min(ns) < 1:
        raise ValueError("n must be >= 1")
    at = {}
    q_nm1, q_n = 0, 1
    pq_sum = pq_max = done = 0
    for n in sorted(set(ns)):
        for i in range(done + 1, n + 1):
            a = x.quotient(i)
            pq_sum += a
            if a > pq_max:
                pq_max = a
            q_nm1, q_n = q_n, a * q_n + q_nm1
        done = n
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
    return sum(1 for i in range(1, M + 1) if quotient(x, i) > threshold)
