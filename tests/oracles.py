"""Independent brute-force oracles used across the test suite.

Everything here recomputes the objects under test from definitions, by a
different algorithm than the library uses: divisor-loop sigma, slice-sieve
Moebius, lattice enumeration for the two-squares counts, hyperbola sums for
tau, Euler-criterion characters.  Values asserted in tests are produced (or
cross-checked) by these.  The two exceptions are the characteristic-function
oracles.  empirical_char_function, the sieve side, reads sigma and f from
ddl.sieve.scan_segments, whose values the sieve tests check against the
oracles above.  char_function_direct, the per-t Euler product, reads the
local series from ddl.analytic._level_tables, which the analytic tests check
against closed forms.  The whole-array oracles (mean_whole, wirsing_whole,
jumps_whole, kappa_whole, halasz_whole, witness_whole) are the analytic ops
as one reduction over every prime <= P at once, from primes_up_to and one
ddl.analytic._levels table; the library streams the same primes a segment
at a time.  segment_size is not an oracle but the one way tests choose a
scan layout other than ddl.sieve.SEGMENT_SIZE; grid_of, grid_fractions,
grid_index, raw_at, value_at, raw_counts and densities only build or read
the grids and results the library takes and returns, and restrict_coprime
builds a weight for the library to sieve.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

import ddl.sieve
from ddl.analytic import EULER_GAMMA, _level_tables, _levels
from ddl.empirical import ThresholdGrid
from ddl.multfunc import MultFunc
from ddl.sieve import primes_up_to, scan_segments


@contextmanager
def segment_size(n: int):
    """Scan with segments of n inside the block.  A scan reads the size at
    its first chunk, so the block must hold the whole iteration, not only
    the call that creates the generator."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ddl.sieve, "SEGMENT_SIZE", n)
        yield


def grid_of(us) -> ThresholdGrid:
    """The ThresholdGrid of the rationals us (Fractions or ints)."""
    us = [Fraction(u) for u in us]
    return ThresholdGrid([u.numerator for u in us], [u.denominator for u in us])


def grid_fractions(grid) -> list[Fraction]:
    """A grid's thresholds as Fractions, in order."""
    return [Fraction(n, d) for n, d in zip(grid.nums.tolist(), grid.dens.tolist())]


def grid_index(grid, u) -> int:
    """The index of the threshold u in the grid."""
    return grid_fractions(grid).index(Fraction(u))


def grid_arrays_brute(us: list[Fraction]):
    """(nums, dens, floats) of the Fractions us, which Fraction keeps reduced."""
    return (np.array([u.numerator for u in us], dtype=np.int64),
            np.array([u.denominator for u in us], dtype=np.int64),
            np.array([float(u) for u in us]))


def raw_at(est, u):
    """The raw sum of a WeightedCdfEstimate at its grid threshold u."""
    return est.raw[grid_index(est.grid, u)]


def value_at(est, u):
    """The estimate's value, raw / normalizer, at its grid threshold u."""
    return raw_at(est, u) / est.normalizer


def raw_counts(est) -> np.ndarray:
    """The raw sums as exact int64 counts (for integer-valued weights)."""
    return np.rint(est.raw.real).astype(np.int64)


def densities(tally) -> np.ndarray:
    """An EquidistTally's counts per class over x."""
    return tally.counts / tally.x


def sigma_brute(n: int) -> int:
    """sigma(n) by direct divisor enumeration."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def sigma_table_brute(N: int) -> np.ndarray:
    """sigma(n) for 0 <= n <= N via the divisor-slice sieve (add d to its multiples)."""
    out = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        out[d::d] += d
    return out


def primes_brute(y: int) -> np.ndarray:
    """Primes <= y as int64, by a plain boolean Eratosthenes sieve over every n."""
    is_p = np.ones(y + 1, dtype=bool)
    is_p[:2] = False
    for d in range(2, isqrt(y) + 1):
        if is_p[d]:
            is_p[d * d::d] = False
    return np.nonzero(is_p)[0].astype(np.int64)


def phi_brute(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def tau_brute(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def factor_brute(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            j = 0
            while n % d == 0:
                n //= d
                j += 1
            out.append((d, j))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def evaluate(f, n: int):
    """f(n) as the product of the catalog's f(p^j) over the factors of factor_brute."""
    acc = 1
    for p, j in factor_brute(int(n)):
        acc = acc * f.prime_power(p, j)
    return acc


def mu_brute(n: int) -> int:
    fac = factor_brute(n)
    if any(j >= 2 for _, j in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def mobius_table(N: int) -> np.ndarray:
    """mu(n) for 0 <= n <= N by sign-flip slices over every prime (independent
    of any spf machinery)."""
    mu = np.ones(N + 1, dtype=np.int64)
    mu[0] = 0
    mask = np.ones(N + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, N + 1):
        if mask[p]:
            mask[2 * p:: p] = False
            mu[p::p] *= -1
            sq = p * p
            if sq <= N:
                mu[sq::sq] = 0
    return mu


def omega_big_brute(n: int) -> int:
    """Omega(n): prime factors with multiplicity."""
    return sum(j for _, j in factor_brute(n))


def r_brute(n: int) -> int:
    """Quarter count of integer solutions to x^2 + y^2 = n."""
    count = 0
    for x in range(-isqrt(n), isqrt(n) + 1):
        rest = n - x * x
        if rest < 0:
            continue
        y = isqrt(rest)
        if y * y == rest:
            count += 1 if y == 0 else 2
    return count // 4 if count % 4 == 0 else count / 4


def is_two_squares_brute(n: int) -> bool:
    for x in range(isqrt(n) + 1):
        rest = n - x * x
        y = isqrt(rest)
        if y * y == rest:
            return True
    return False


def legendre_brute(n: int, q: int) -> int:
    """Legendre symbol (n | q) for odd prime q via the Euler criterion."""
    v = pow(n % q, (q - 1) // 2, q)
    if v == 0:
        return 0
    return 1 if v == 1 else -1


def lambda_brute(n: int, a: int, q: int) -> complex:
    return cmath.exp(2j * math.pi * a * omega_big_brute(n) / q)


def tau_partial_sum(x: int) -> int:
    """sum_{n<=x} tau(n) = sum_{d<=x} floor(x/d)."""
    return sum(x // d for d in range(1, x + 1))


def squarefree_count(x: int) -> int:
    """#squarefree n <= x by inclusion-exclusion over squares."""
    mu = mobius_table(isqrt(x))
    return sum(int(mu[d]) * (x // (d * d)) for d in range(1, isqrt(x) + 1))


def qualifies(n: int, sigma_n: int, u: Fraction) -> bool:
    """The defining threshold test, exact."""
    return n * u.denominator <= u.numerator * sigma_n


def brute_first_qualifying(n: int, sigma_n: int, grid_fracs) -> int:
    """Smallest grid index whose threshold the ratio n/sigma(n) meets, by a
    plain linear scan with exact integer comparisons."""
    for k, u in enumerate(grid_fracs):
        if qualifies(n, sigma_n, u):
            return k
    return len(grid_fracs)


def restrict_coprime(f: MultFunc, y: float) -> MultFunc:
    """Kill all prime factors p <= y: a_y(n) = f(n) * [gcd(n, prod_{p<=y} p) = 1]."""
    y = float(y)
    if y < 2:
        raise ValueError("coprimality cut y must be >= 2")

    def vector(ps, j):
        return np.where(ps <= y, 0, f.prime_powers(ps, j))

    return dataclasses.replace(f, id=f"{f.id}~coprime>{y:g}", _vector=vector)


def r_rough_euler_product(y: int) -> float:
    """prod_{p<=y} 1/plain(p) for the two-squares count r, in closed form.

    r(2^j) = 1, r(p^j) = j + 1 for p = 1 mod 4 and [j even] for p = 3 mod 4,
    so plain(p) = sum_j r(p^j)/p^j is 2, (1 - 1/p)^-2 and (1 - p^-2)^-1.  The
    product is the limiting r-weighted share of the n with no prime factor
    <= y.  Primes come from primes_brute.
    """
    p = primes_brute(y).astype(np.float64)
    log_plain = np.where(p % 4 == 1, -2.0 * np.log1p(-1.0 / p), -np.log1p(-p ** -2.0))
    log_plain[p == 2] = math.log(2.0)
    return math.exp(-float(log_plain.sum()))


def empirical_char_function(f, x: int, ts, **scan_kw) -> np.ndarray:
    """Empirical characteristic function of log(n/sigma(n)) under weight f:
    phi_x(t) = (1/S(f;x)) sum_{n<=x} f(n) (n/sigma(n))^{i t}, over one scan
    (scan_kw as for scan_segments)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    acc = np.zeros(ts.shape, dtype=np.complex128)
    S = 0.0 + 0.0j
    for chunk in scan_segments(int(x), f=f, **scan_kw):
        fv = np.ones(chunk.n.size) if chunk.fvals is None else chunk.fvals
        L = np.log(chunk.n / chunk.sigma)
        acc += [np.sum(fv * np.exp(1j * t * L)) for t in ts]
        S += fv.sum()
    if S == 0:
        raise ValueError(f"S(f;x) = 0 for f = {f.id}")
    return acc / S


def char_function_direct(f, ts, P: int) -> np.ndarray:
    """prod_{p<=P} twisted(p, t)/plain(p), one t at a time over the primes of
    each stream segment: no split and no series, O(#t * pi(P))."""
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    out = np.ones(ts.size, dtype=np.complex128)
    for ps, levels, plain in _level_tables(f, int(P)):
        for k, t in enumerate(ts):
            acc = np.ones(ps.size, dtype=np.complex128)
            for cnt, w, lr in levels:
                acc[:cnt] += w * np.exp(1j * t * lr)
            out[k] *= np.prod(acc / plain)
    return out


def whole_tables(f, P: int):
    """(ps, levels, plain) over every prime <= P in one table."""
    ps = primes_up_to(P)
    return (ps, *_levels(f, ps, P))


def mean_whole(f, P: int) -> complex:
    """prod_{p<=P} (1 - 1/p) plain(p), 0 when some factor is 0."""
    ps, _, plain = whole_tables(f, P)
    factors = ((1.0 - 1.0 / ps) * plain).astype(np.complex128)
    if np.any(np.abs(factors) < 1e-300):
        return 0j
    return complex(np.exp(np.sum(np.log(factors))))


def wirsing_whole(f, x: float, P: int) -> float:
    _, _, plain = whole_tables(f, min(P, int(x)))
    kappa = f.kappa
    return (math.exp(-EULER_GAMMA * kappa) / math.gamma(kappa) * x / math.log(x)
            * math.exp(float(np.sum(np.log(plain.real)))))


def jumps_whole(f, P: int) -> float:
    ps, levels, plain = whole_tables(f, P)
    top = np.ones(ps.size)
    for cnt, w, _ in levels:
        top[:cnt] = np.maximum(top[:cnt], w.real)
    return float(np.sum(1.0 - top / plain.real))


def kappa_whole(f, x: int) -> tuple[float, float]:
    ps = primes_up_to(x)
    pf, fp = ps.astype(np.float64), f.at_primes(ps)
    return (float(np.sum(fp * np.log(pf) / pf).real) / math.log(x),
            float(np.sum(fp / pf).real))


def halasz_whole(f, beta: float, P: int) -> float:
    ps = primes_up_to(P)
    twist = f.at_primes(ps) * np.exp(-1j * beta * np.log(ps.astype(np.float64)))
    return float(np.sum((1.0 - twist.real) / ps))


def witness_whole(f, v, u, p_cap: int) -> int | None:
    """The greedy descent of ddl.analytic.greedy_witness over every prime
    <= p_cap at once; None when they do not suffice."""
    v, u = Fraction(v), Fraction(u)
    ratio, m = Fraction(1), 1
    ps = primes_up_to(p_cap)
    for p, fp in zip(ps.tolist(), f.at_primes(ps).tolist()):
        if ratio <= u:
            return m
        if fp != 0 and ratio * p / (p + 1) > v:
            m *= p
            ratio = ratio * p / (p + 1)
    return m if ratio <= u else None
