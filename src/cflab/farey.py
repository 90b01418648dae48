"""Farey fractions of bounded height: neighbors, interval indicators,
row sums and expected hit counts.

For a reduced fraction beta = a/q with q >= 2, its neighbors are the two
fractions adjacent to it in the Farey set of order q; they satisfy
num(beta) h(lower) - num(lower) h(beta) = 1 and their heights add up to q.
The indicator chi_beta is 1 strictly between the neighbors, 1/2 at either
neighbor and 0 outside; the zero class (height 1) has chi identically 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .cf import DyadicStream, InvariantViolation
from .rationals import FareyFraction, _pair

@dataclass(frozen=True)
class NeighborPair:
    """Adjacent fractions below and above beta in the Farey set of its height.

    upper is a value in (0, 1]; the top endpoint is represented by 1/1
    (the zero class approached from below).
    """

    lower: Fraction
    upper: Fraction


def farey_neighbors(beta) -> NeighborPair:
    """Neighbors of beta in the Farey set of order h(beta)."""
    a, q = _pair(beta)
    if q == 1:
        raise ValueError("height-1 class has no neighbors; chi is identically 1")
    q_lo = pow(a, -1, q)
    p_lo = (a * q_lo - 1) // q
    q_hi = q - q_lo
    p_hi = a - p_lo
    return NeighborPair(Fraction(p_lo, q_lo), Fraction(p_hi, q_hi))


def chi(beta, x) -> Fraction:
    """Indicator of the neighbor interval of beta, evaluated at a stream x.

    Returns 1 when x mod 1 lies inside (lower, upper), 1/2 at an endpoint,
    0 outside; identically 1 for the height-1 class.
    """
    a, q = _pair(beta)
    if q == 1:
        return Fraction(1)
    nb = farey_neighbors(beta)
    # sign(x - lower) - sign(x - upper): 2 inside, 1 on an endpoint, 0 outside
    return Fraction(x.compare_fraction(x.a0 + nb.lower)
                    - x.compare_fraction(x.a0 + nb.upper), 2)


def expected_chi(beta) -> Fraction:
    """Length of the neighbor interval, 1/(h(lower) h(upper))."""
    a, q = _pair(beta)
    if q == 1:
        return Fraction(1)
    q_lo = pow(a, -1, q)
    return Fraction(1, q_lo * (q - q_lo))


def enumerate_farey(Q: int) -> Iterator[FareyFraction]:
    """Fractions of height <= Q in [0, 1), ascending, starting at 0/1."""
    check_order(Q)
    a, b, c, d = 0, 1, 1, Q
    yield FareyFraction(0, 1)
    while (c, d) != (1, 1):
        yield FareyFraction(c, d)
        k = (Q + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def _prime_mask(n: int) -> np.ndarray:
    """Boolean mask over 0..n, True at the primes (sieve of Eratosthenes)."""
    import numpy as np

    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return sieve


def totients_up_to(Q: int) -> np.ndarray:
    """phi(q) for q = 0..Q by sieve (index 0 unused)."""
    import numpy as np

    phi = np.arange(Q + 1, dtype=np.int64)
    for p in np.flatnonzero(_prime_mask(Q)):
        phi[p::p] -= phi[p::p] // p
    return phi


def farey_size(Q: int) -> int:
    """Number of height <= Q classes mod 1: 1 + sum_{q=2}^{Q} phi(q)."""
    return 1 + int(totients_up_to(Q)[2:].sum())


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
    _index: dict | None = field(default=None, repr=False)

    def __len__(self):
        return len(self.num)

    def index_of(self, frac: FareyFraction) -> int:
        if self._index is None:
            self._index = {(int(a), int(q)): i
                           for i, (a, q) in enumerate(zip(self.num, self.den))}
        return self._index[(frac.num, frac.den)]


FAREY_TABLE_LIMIT = 5000


def check_order(Q: int) -> None:
    """Raise ValueError unless 1 <= Q <= FAREY_TABLE_LIMIT."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if Q > FAREY_TABLE_LIMIT:
        raise ValueError(f"Q = {Q} beyond enumeration limit {FAREY_TABLE_LIMIT}")


def farey_table(Q: int) -> FareyTable:
    """The bulk table for F_Q, O(Q^2) entries, built afresh on every call."""
    check_order(Q)
    return _build_table(Q)


def terminal_from_neighbors(den, lo_den, hi_den):
    """Terminal partial quotients of height-den fractions from their neighbor
    heights, elementwise (1 for the zero class): for beta = [0; a1, ..., an],
    den = an q_{n-1} + q_{n-2} with q_{n-1} the smaller neighbor height,
    except for (q-1)/q = [0; 1, q-1]."""
    import numpy as np

    return den // np.minimum(lo_den, hi_den) - ((hi_den == 1) & (den > 2))


def _build_table(Q: int) -> FareyTable:
    """F_Q over the Stern-Brocot tree, sorted by (den, num).

    A fraction's parents in the tree are its Farey neighbors.
    """
    import numpy as np

    rows = np.empty((6, farey_size(Q)), dtype=np.int64)  # num, den, lo, hi
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

    One prefix per process, grown on demand by
    N_m = N_{m-1} (L_m / L_{m-1}) + L_m / m.  row_sum_exact and
    cumulative_expected_count ask for at most k = FAREY_TABLE_LIMIT, so it
    holds at most FAREY_TABLE_LIMIT + 1 entries (about 5 MB).  It is grown
    on private copies and published by one assignment, so a growth that is
    interrupted between the two appends never leaves N and L unequal in length.
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
    """Sum of expected_chi over all fractions of height exactly q.

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
    s = sum(mu * (N[q // d - 1] * (L[q - 1] // L[q // d - 1]) // d)
            for d, mu in divisors)
    return Fraction(2 * s, q * L[q - 1])


# Euler's constant as the nearest double, float(mpmath.euler).
EULER_GAMMA = 0.5772156649015329


def row_sum_formula(q: int) -> float:
    """Smooth approximation 2 phi(q)/q^2 (log q + sum_{p|q} log p/(p-1) + gamma)."""
    if q < 2:
        raise ValueError("q must be >= 2")
    fac = _factorize(q)
    phi = q
    for p in fac:
        phi = phi // p * (p - 1)
    p_term = sum(math.log(p) / (p - 1) for p in fac)
    return 2 * phi / q**2 * (math.log(q) + p_term + EULER_GAMMA)


def _factorize(q: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= q:
        while q % d == 0:
            out[d] = out.get(d, 0) + 1
            q //= d
        d += 1
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out


def cumulative_expected_count(Q: int) -> tuple[Fraction, float]:
    """(sum_{q=2}^{Q} row_sum_exact(q), (6/pi^2) log^2 Q).

    The exact part is the expected number of nonzero Farey classes of height
    <= Q hit by a uniform point; the float is the leading asymptotic term.
    Moebius inversion over gcd(u, q) makes it sum_{d<=Q} mu(d)/d^2
    (H_n^2 - H_n^(2)) with n = Q // d, one integer over L^2 for L = lcm(1..Q),
    since every L/(dk) with k <= n is an integer.
    """
    import numpy as np

    if not 2 <= Q <= FAREY_TABLE_LIMIT:
        raise ValueError(f"Q = {Q} outside 2..{FAREY_TABLE_LIMIT}")
    mu = np.ones(Q + 1, dtype=np.int64)
    for p in np.flatnonzero(_prime_mask(Q)):
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    L = _harmonic_prefix(Q)[1][Q]
    total = a = b = k = 0
    for d in range(Q, 0, -1):  # n = Q // d only grows, so one pass over k
        if k < Q // d:
            for k in range(k + 1, Q // d + 1):
                a, b = a + L // k, b + (L // k) ** 2
            c = a * a - b  # L^2 (H_n^2 - H_n^(2)), divisible by d^2
        total += int(mu[d]) * (c // (d * d))
    return Fraction(total, L * L), 6 / math.pi**2 * math.log(Q) ** 2


@dataclass(frozen=True)
class HeightSet:
    """Predicate over heights, from the mini-language all|primes|mod:d,r|file:path."""

    name: str
    kind: str
    payload: tuple = ()

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
    if spec == "all":
        return HeightSet("all", "all")
    if spec == "primes":
        return HeightSet("primes", "primes")
    if spec.startswith("mod:"):
        d_s, _, r_s = spec[4:].partition(",")
        d, r = int(d_s), int(r_s)
        if d < 1 or not 0 <= r < d:
            raise ValueError(f"bad residue class {spec!r}")
        return HeightSet(spec, "mod", (d, r))
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read height set {path!r}: {exc.strerror}") from exc
        qs = tuple(sorted({int(tok) for tok in text.split()}))
        return HeightSet(spec, "set", qs)
    raise ValueError(f"unknown height set spec {spec!r}")
