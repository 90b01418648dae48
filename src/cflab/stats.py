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

import numpy as np

from .cf import _euclid, quotient
from .rationals import _pair

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
        return np.longdouble(m) ** np.longdouble(-(0.5 + self.gamma))

    def sum_to(self, k: int, start: int = 2):
        """Prefix sum of g over start..k (empty when k < start)."""
        if k < start:
            return self._zero()
        cache = _PREFIX_CACHE.get((self, start), [self._zero()])
        if len(cache) < k - start + 2:
            cache = cache.copy()  # grown privately: a racing thread never sees it half built
            while len(cache) < k - start + 2:
                m = start + len(cache) - 1
                cache.append(cache[-1] + self(m))
            _PREFIX_CACHE[(self, start)] = cache
        return cache[k - start + 1]

    def _zero(self):
        return Fraction(0) if self.is_exact else np.longdouble(0)


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
            m_s, val_s = line.split()
            m = int(m_s)
            if m < 1 or m in entries:
                raise ValueError(f"bad weight table line {line!r}")
            try:
                entries[m] = Fraction(val_s)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in weight table line {line!r}") from None
        if not entries:
            raise ValueError(f"empty weight table {path!r}")
        return WeightFunction("table", table=tuple(sorted(entries.items())))
    raise ValueError(f"unknown weight spec {spec!r}")


def terminal_quotient(beta) -> int:
    """Last partial quotient of the canonical expansion of beta.

    The zero class counts as the expansion [1] of the representative 1, so
    its terminal quotient is 1; any other is the last Euclid quotient of a/q.
    """
    a, q = _pair(beta)
    if q == 1:
        return 1
    return _euclid(a, q)[1][-1]


def _series_tail(s0: float, M: int, shift: int, kmax: int = 8) -> tuple[float, float]:
    """(tail, bound) for sum_{m>M} (m+shift)^-s0 log(1+1/m), shift 0 or 1.

    Expanding log(1+1/m) as sum_k (-1)^(k+1)/(k m^k) for shift 0, or as
    sum_k 1/(k (m+1)^k) for shift 1, turns the tail into the Hurwitz zeta
    sum sum_k +-zeta(s0+k, M+1+shift)/k.  The alternating sum is bounded by
    its first omitted term; the positive one by that term times
    (M+2)/(M+1), since each term is at most 1/(M+2) of the one before.
    """
    import mpmath

    a = M + 1 + shift
    with mpmath.workdps(30):
        tail = mpmath.mpf(0)
        for k in range(1, kmax + 1):
            term = mpmath.zeta(s0 + k, a) / k
            tail += -term if shift == 0 and k % 2 == 0 else term
        bound = mpmath.zeta(s0 + kmax + 1, a) / (kmax + 1)
        if shift:
            bound *= mpmath.mpf(a) / (a - 1)
        return float(tail), float(bound)


def weight_log_series(g: WeightFunction, start: int = 1, shift: int = 0,
                      head: int = 4096) -> tuple[float, float]:
    """(value, tail_bound) for sum_{m>=start} g(m+shift) log(1+1/m).

    Power and harmonic weights sum a head of terms and get a Hurwitz-zeta
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
    s0 = 1.0 if g.family == "harmonic" else 0.5 + g.gamma
    head_sum = math.fsum(float(g(m + shift)) * math.log1p(1.0 / m)
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
        series = math.fsum(float(g(m)) * math.log1p(1.0 / m)
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
        return int(n * math.log(n) ** (0.5 + self.delta))


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


def classical_stats(x, n: int) -> ClassicalStats:
    if n < 1:
        raise ValueError("n must be >= 1")
    q_nm1, q_n = 0, 1
    pq_sum = 0
    pq_max = 0
    for i in range(1, n + 1):
        a = quotient(x, i)
        pq_sum += a
        pq_max = max(pq_max, a)
        q_nm1, q_n = q_n, a * q_n + q_nm1
    return ClassicalStats(n, math.log(q_n) / n, pq_sum, pq_max, q_n)


def double_exceedance(x, M: int, delta: float) -> int:
    """#{i <= M : a_i > M (log M)^(1/2+delta)}."""
    if M < 1:
        raise ValueError("M must be >= 1")
    threshold = M * math.log(M) ** (0.5 + delta) if M > 1 else 0.0
    return sum(1 for i in range(1, M + 1) if quotient(x, i) > threshold)


@dataclass(frozen=True)
class HypothesisReport:
    """Summability and growth diagnostics for a weight function."""

    sum_g_over_m: float | None
    divergent: bool
    trajectory: tuple[float, ...]


def hypothesis_check(g: WeightFunction, delta: float, n_max: int) -> HypothesisReport:
    """Check sum_m g(m)/m (closed form per family) and the growth ratios
    G_f(n) = sum_{m<=f((n+1)^2)} g / sum_{m<=f(n^2)} g for n = 1..n_max; a
    ratio whose lower sum is 0 (a table weight zero at the start) is nan."""
    if g.family == "unit":
        value, divergent = None, True
    elif g.family == "harmonic":
        value, divergent = math.pi**2 / 6, False
    elif g.family == "power":
        import mpmath

        value, divergent = float(mpmath.zeta(1.5 + g.gamma)), False
    else:
        value = float(sum(v / m for m, v in g.table))
        divergent = False
    f = TruncationFn(delta)
    traj = []
    for n in range(1, n_max + 1):
        hi = float(g.sum_to(f((n + 1) ** 2), start=1))
        lo = float(g.sum_to(f(n ** 2), start=1))
        traj.append(hi / lo if lo else math.nan)
    return HypothesisReport(value, divergent, tuple(traj))
