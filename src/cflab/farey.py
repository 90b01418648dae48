"""Farey fractions of bounded height: neighbors, interval indicators,
row sums and expected hit counts.

A class beta mod 1 is the pair (a, q) of Python ints of its reduced
representative a/q, 0 <= a < q, the zero class (0, 1); a value is a Fraction.
For a reduced fraction beta = a/q with q >= 2, its neighbors are the two
fractions adjacent to it in the Farey set of order q; they satisfy
num(beta) h(lower) - num(lower) h(beta) = 1 and their heights add up to q.
The indicator chi_beta is 1 strictly between the neighbors, 1/2 at either
neighbor and 0 outside; the zero class (height 1) has chi identically 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cf import DyadicStream, InvariantViolation


def farey_neighbors(beta: tuple[int, int]) -> tuple[Fraction, Fraction]:
    """(lower, upper): the fractions adjacent to beta in the Farey set of order
    h(beta).  upper lies in (0, 1]; the top endpoint is 1/1 (the zero class
    approached from below)."""
    a, q = beta
    if q == 1:
        raise ValueError("height-1 class has no neighbors; chi is identically 1")
    q_lo = pow(a, -1, q)
    p_lo = (a * q_lo - 1) // q
    q_hi = q - q_lo
    p_hi = a - p_lo
    return Fraction(p_lo, q_lo), Fraction(p_hi, q_hi)


def chi(beta: tuple[int, int], x) -> Fraction:
    """Indicator of the neighbor interval of beta, evaluated at a stream x.

    Returns 1 when x mod 1 lies inside (lower, upper), 1/2 at an endpoint,
    0 outside; identically 1 for the height-1 class.
    """
    _, q = beta
    if q == 1:
        return Fraction(1)
    lower, upper = farey_neighbors(beta)
    # sign(x - lower) - sign(x - upper): 2 inside, 1 on an endpoint, 0 outside
    return Fraction(x.compare_fraction(x.a0 + lower) - x.compare_fraction(x.a0 + upper), 2)


@functools.cache
def _least_factors() -> list[int]:
    """[0, 1, 2, 3, 2, 5, 2, 7, 2, 3, 2, ...]: the least prime factor of each
    2 <= n <= FAREY_TABLE_LIMIT, sieved once per process; cflab's one sieve."""
    spf, n = list(range(FAREY_TABLE_LIMIT + 1)), FAREY_TABLE_LIMIT
    for d in range(math.isqrt(n), 1, -1):  # descending, so the least divisor writes last
        spf[d * d::d] = [d] * ((n - d * d) // d + 1)
    return spf


def _factorize(q: int) -> list[int]:
    """The distinct primes of 1 <= q <= FAREY_TABLE_LIMIT, ascending."""
    spf, primes = _least_factors(), []
    while q > 1:
        primes.append(p := spf[q])
        while q % p == 0:
            q //= p
    return primes


def _mobius_totient(n: int) -> tuple[list[int], list[int]]:
    """(mu, phi) over 0..max(n, 1) for n <= FAREY_TABLE_LIMIT (both 0 at index 0).

    With p the least prime of k and j = k / p: mu(k) = 0 and phi(k) = p phi(j)
    when p | j, else mu(k) = -mu(j) and phi(k) = (p - 1) phi(j).
    """
    spf, mu, phi = _least_factors(), [0, 1], [0, 1]
    for k in range(2, n + 1):
        p = spf[k]
        j = k // p
        mu.append(-mu[j] if j % p else 0)
        phi.append(phi[j] * (p - 1 if j % p else p))
    return mu, phi


@dataclass
class FareyTable:
    """Flat arrays over all fractions of height <= Q, for bulk chi evaluation.

    Entries are ordered by (den, num).  Entry 0 is the zero class; its
    neighbor fields are sentinels and its mask value is always True.
    terminal[i] is the last partial quotient of the canonical expansion
    (1 for the zero class).
    """

    Q: int
    num: np.ndarray
    den: np.ndarray
    lo_f: np.ndarray
    hi_f: np.ndarray
    lo_num: np.ndarray
    lo_den: np.ndarray
    hi_num: np.ndarray
    hi_den: np.ndarray
    terminal: np.ndarray

    def __len__(self):
        return len(self.num)


FAREY_TABLE_LIMIT = 5000


def check_order(Q: int) -> None:
    """Raise ValueError unless 1 <= Q <= FAREY_TABLE_LIMIT."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if Q > FAREY_TABLE_LIMIT:
        raise ValueError(f"Q = {Q} beyond enumeration limit {FAREY_TABLE_LIMIT}")


def terminal_from_neighbors(den, lo_den, hi_den):
    """Terminal partial quotients of height-den fractions from their neighbor
    heights, elementwise (1 for the zero class): for beta = [0; a1, ..., an],
    den = an q_{n-1} + q_{n-2} with q_{n-1} the smaller neighbor height,
    except for (q-1)/q = [0; 1, q-1].  Python ints or numpy arrays alike."""
    return den // ((lo_den + hi_den - abs(lo_den - hi_den)) // 2) - ((hi_den == 1) & (den > 2))


def farey_table(Q: int) -> FareyTable:
    """The bulk table for F_Q, its 1 + sum_{q=2}^{Q} phi(q) classes sorted by
    (den, num), built afresh on every call over the Stern-Brocot tree, where
    a fraction's parents are its Farey neighbors."""
    import numpy as np

    check_order(Q)
    rows = np.empty((6, 1 + sum(_mobius_totient(Q)[1][2:])), dtype=np.int64)  # num, den, lo, hi
    rows[:, 0] = 0, 1, 0, 1, 1, 1
    lo, hi = np.array([[0], [1]]), np.array([[1], [1]])  # next level's parents
    i = 1
    while lo.size:
        keep = lo[1] + hi[1] <= Q
        lo, hi = lo[:, keep], hi[:, keep]
        mid = lo + hi
        rows[:, i:i + mid.shape[1]] = np.vstack((mid, lo, hi))
        i += mid.shape[1]
        lo, hi = np.hstack((lo, mid)), np.hstack((mid, hi))
    if i != rows.shape[1]:
        raise InvariantViolation(f"F_{Q} has {rows.shape[1]} classes, the tree gave {i}")
    order = np.argsort(rows[1] * (Q + 1) + rows[0])  # unique keys: num <= Q
    for row in rows:
        row[:] = row[order]
    del order
    num, den, lon, lod, hin, hid = rows
    lo_f, hi_f = lon / lod, hin / hid
    lo_f[0], hi_f[0] = -np.inf, np.inf
    return FareyTable(Q, num, den, lo_f, hi_f, lon, lod, hin, hid,
                      terminal_from_neighbors(den, lod, hid))


CHI_MARGIN = 1e-9


def chi_mask(table: FareyTable, x: DyadicStream, margin: float = CHI_MARGIN) -> np.ndarray:
    """chi values over a whole table for a dyadic stream, as a boolean mask.

    Fast float comparisons with a guard band of width `margin`; entries whose
    neighbor endpoint lands inside the band are settled exactly, and the
    infinite endpoints of entry 0 keep it in the mask.  Exact for any
    margin >= a few ulps since endpoint floats are within 2^-52 relative.
    """
    import numpy as np

    lo, hi = x.interval()
    x_lo = float(lo)
    x_hi = float(hi)
    mask = (table.lo_f < x_lo - margin) & (table.hi_f > x_hi + margin)
    near = (np.abs(table.lo_f - x_lo) <= margin) | (np.abs(table.hi_f - x_hi) <= margin)
    for i in np.nonzero(near)[0]:
        c_lo = x.compare_fraction(Fraction(int(table.lo_num[i]), int(table.lo_den[i])))
        c_hi = x.compare_fraction(Fraction(int(table.hi_num[i]), int(table.hi_den[i])))
        mask[i] = c_lo > 0 and c_hi < 0
    return mask


_harmonic: tuple[list[int], list[int]] = ([0], [1])


def _harmonic_prefix(k: int) -> tuple[list[int], list[int]]:
    """(N, L) with L[m] = lcm(1..m) and N[m] = L[m] H_m for m = 0..k at least.

    cflab's one exact harmonic prefix, read by the row sums up to
    FAREY_TABLE_LIMIT and by stats.x_nf up to its largest clipped quotient,
    which x_nf bounds by stats.HARMONIC_PREFIX_LIMIT: k is not checked here.
    One per process, grown on demand by N_m = N_{m-1} (L_m / L_{m-1}) + L_m / m;
    entry m has about 1.44 m bits.  It is grown on private copies and published
    by one assignment, so an interrupted growth never leaves N and L unequal in length.
    """
    global _harmonic
    N, L = _harmonic
    if len(L) <= k:
        N, L = N.copy(), L.copy()
        for m in range(len(L), k + 1):
            step = m // math.gcd(L[-1], m)  # p if m is a power of the prime p, else 1
            L.append(L[-1] * step)
            N.append(N[-1] * step + L[-1] // m)
        _harmonic = N, L
    return N, L


def row_sum_exact(q: int) -> Fraction:
    """Sum of 1/(h(lower) h(upper)) over the fractions of height exactly q.

    As a/q runs over the row, the lower-neighbor heights u run over the
    units mod q, and 1/(u(q-u)) telescopes to (2/q) sum of 1/u.  Moebius
    inversion over gcd(u, q) makes that sum sum_{d|q} mu(d)/d H_{q/d-1},
    one integer over L = lcm(1..q-1): L H_m / d is an integer for
    m = q/d - 1, since every dk <= q - 1 divides L.
    """
    if not 1 <= q <= FAREY_TABLE_LIMIT:
        raise ValueError(f"q = {q} outside 1..{FAREY_TABLE_LIMIT}")
    if q == 1:
        return Fraction(1)
    N, L = _harmonic_prefix(q - 1)
    divisors = [(1, 1)]  # squarefree d | q with mu(d)
    for p in _factorize(q):
        divisors += [(d * p, -mu) for d, mu in divisors]
    s = N[q - 1] + sum(mu * (N[q // d - 1] * (L[q - 1] // L[q // d - 1]) // d)
                       for d, mu in divisors[1:])  # d = 1 gives N[q - 1]
    return Fraction(2 * s, q * L[q - 1])


# Euler's constant as the nearest double, float(mpmath.euler).
EULER_GAMMA = 0.5772156649015329


def row_sum_formula(q: int) -> float:
    """Smooth approximation 2 phi(q)/q^2 (log q + sum_{p|q} log p/(p-1) + gamma)."""
    if not 2 <= q <= FAREY_TABLE_LIMIT:  # the primes of q come from _factorize's sieve
        raise ValueError(f"q = {q} outside 2..{FAREY_TABLE_LIMIT}")
    fac = _factorize(q)
    phi = q
    for p in fac:
        phi = phi // p * (p - 1)
    p_term = sum(math.log(p) / (p - 1) for p in fac)
    return 2 * phi / q**2 * (math.log(q) + p_term + EULER_GAMMA)


def cumulative_expected_count(Q: int) -> tuple[Fraction, float]:
    """(sum_{q=2}^{Q} row_sum_exact(q), (6/pi^2) log^2 Q).

    The exact part is the expected number of nonzero Farey classes of height
    <= Q hit by a uniform point; the float is the leading asymptotic term.
    Moebius inversion over gcd(u, q) makes it sum_{d<=Q} mu(d)/d^2
    (H_n^2 - H_n^(2)) with n = Q // d, one integer over L^2 for L = lcm(1..Q),
    since every L/(dk) with k <= n is an integer.  The squares (L/k)^2 are
    read as L^2 // k^2.
    """
    if not 2 <= Q <= FAREY_TABLE_LIMIT:
        raise ValueError(f"Q = {Q} outside 2..{FAREY_TABLE_LIMIT}")
    mu = _mobius_totient(Q)[0]
    L = _harmonic_prefix(Q)[1][Q]
    LL = L * L
    total = a = b = k = 0
    for d in range(Q, 0, -1):  # n = Q // d only grows, so one pass over k
        if k < Q // d:
            for k in range(k + 1, Q // d + 1):  # k^2 <= 5000^2 is one 30-bit digit
                a, b = a + L // k, b + LL // (k * k)
            c = a * a - b  # L^2 (H_n^2 - H_n^(2)), divisible by d^2
        if mu[d]:
            total += mu[d] * (c // (d * d))
    return Fraction(total, L * L), 6 / math.pi**2 * math.log(Q) ** 2


@dataclass(frozen=True)
class HeightSet:
    """Predicate over heights, from the mini-language all|primes|mod:d,r|file:path."""

    kind: str
    payload: tuple | frozenset = ()  # (d, r) for mod, the heights for set

    def __contains__(self, q: int) -> bool:
        if self.kind == "all":
            return q >= 1
        if self.kind == "primes":
            if q < 2:
                return False
            return all(q % p for p in range(2, int(q**0.5) + 1))
        if self.kind == "mod":
            d, r = self.payload
            return q >= 1 and q % d == r
        return q in self.payload


def parse_height_set(spec: str) -> HeightSet:
    if spec in ("all", "primes"):
        return HeightSet(spec)
    if spec.startswith("mod:"):
        try:
            d, r = map(int, spec[4:].split(","))
        except ValueError:
            d = r = 0  # refused below
        if d < 1 or not 0 <= r < d:
            raise ValueError(f"bad residue class {spec!r}")
        return HeightSet("mod", (d, r))
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read height set {path!r}: {exc.strerror}") from exc
        try:
            qs = frozenset(int(tok) for tok in text.split())
        except ValueError as exc:
            raise ValueError(f"bad height set {spec!r}: {exc}") from None
        return HeightSet("set", qs)
    raise ValueError(f"unknown height set spec {spec!r}")
