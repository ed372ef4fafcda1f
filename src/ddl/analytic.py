"""Analytic counterparts of the sieve estimates.

Everything here is an Euler product or prime sum built from the local series

    twisted(p, t) = sum_{j>=0} f(p^j) p^{-j} (p^j/sigma(p^j))^{i t}
    plain(p)      = twisted(p, 0)
    higher(p)     = the j >= 2 part of plain(p)

The mean value of f (when the Wintner/Delange hypotheses hold) is
prod_p (1 - 1/p) plain(p).  The Wirsing-type asymptotic for nonnegative f of
density kappa is e^{-gamma kappa}/Gamma(kappa) * x/log x * prod_{p<=x} plain(p).
The characteristic function of the limiting law of log(n/sigma(n)) is
prod_p twisted(p, t)/plain(p); its truncation tail is estimated with the
bound |twisted/plain - 1| <= C ((1+|t|)/p^2 + higher-order mass), C = 2,
valid behaviour from p0 = 11 on (a documented, conservative policy).

``char_function`` splits that product at a cut P0 set by max|t|.  Primes
p <= P0 enter exactly, per t, at one exponential per (t, p) (see below).
Above P0 the local law phi_p(z) = twisted(p, -iz)/plain(p) is analytic with
|phi_p - 1| <= 1 - 1/plain(p) on |z| <= R_p = (p-1) log 2, because every
|log(p^j/sigma(p^j))| < 1/(p-1); so those primes enter as the exponential
of their summed cumulant series, cut at an order K chosen per chunk of
primes.  Cauchy's estimate bounds what the cut drops by
log plain(p) q^(K+1)/(1-q) per prime, q = |t|/R_p <= 1/2.  That remainder
is added to the profile's tail bounds; it is at most CUMULANT_BUDGET = 1e-13
for every nonnegative catalog entry at P <= PRIME_LIMIT (see LOG_PLAIN_CAP).

The exact primes' levels are expanded around their limit phase.  Level j's
phase is t lr_j = t A_p + t B_j, where A_p = log(1 - 1/p) is the limit of
lr_j as j -> oo and B_j > 0 falls with j and with p.  A level is near when
max|t| |B_j| <= NEAR_PHASE.  The near levels of p sum to e^{i t A_p} times a
real polynomial in t, their Taylor series in t B_j, and the far ones, a
prefix of each level's primes, keep their own exponential: at T = 200 the
223 exact primes have 1,415 levels, and 30 of them are far.

Products are accumulated in log space: each local factor tends to 1, so the
sum of principal-branch logarithms is well conditioned and cannot underflow.

Every op is one pass over the primes up to P, which ``sieve.prime_segments``
hands out one segment at a time, so memory stays that of one segment at any
P.  ``_level_tables`` gives each segment's table of these series, built one
level j at a time over the segment's primes.  The truncation rule lives
in ``_level_bound``: prime p is kept at level j >= 3 only while
p^(j-2) <= 2^40, so the series at p has J(p) = floor(40 / log2 p) + 2
terms and its local truncation is at the 1e-12 level uniformly in p; terms
with p^j > 1e17 are dropped as well, which are below 1e-14 relative for
every catalog entry.  The near levels' Taylor series in t B_j is cut after
order NEAR_ORDER, with NEAR_PHASE^(NEAR_ORDER+1)/(NEAR_ORDER+1)! <= 2^-53.
Since |e^{ix} - sum_{n<=N} (ix)^n/n!| <= |x|^(N+1)/(N+1)! for real x, each
exact prime drops under 2^-53 of its near weight: its factor is exact to
one rounding.  Like the level cut, this is not in the tail bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .multfunc import MultFunc
from .sieve import prime_segments

__all__ = [
    "EulerProductValue",
    "CharFnProfile",
    "WitnessNotFound",
    "mean_value_product",
    "wirsing_prediction",
    "char_function",
    "mertens_kappa",
    "halasz_series",
    "continuity_diagnostic",
    "greedy_witness",
]

EULER_GAMMA = 0.5772156649015329

# Policy constant for the characteristic-function tail estimate.
TAIL_CONSTANT = 2.0

# The characteristic-function split (see char_function): the summed cumulant
# remainder at max|t| stays under CUMULANT_BUDGET, with series orders up to
# CUMULANT_MAX_ORDER over chunks of CUMULANT_CHUNK primes; the exact small
# primes go in (t, prime) blocks of at most EXACT_ELEMENTS.
CUMULANT_BUDGET = 1e-13
# Each prime p may drop log plain(p) CUMULANT_BUDGET / LOG_PLAIN_CAP, a share
# fixed before any prime is read.  The cap bounds sum_{p<=P} log plain(p) over
# the nonnegative catalog at P <= PRIME_LIMIT.  phi_over_n_pow:re=-8,im=0
# gives the most (plain(2) = 257): 11.88 at P = 1e8 and 12.10 at 1e10; tau,
# of density 2, 6.98 and 7.43.  Past 1e8 the sum grows by about 0.22 kappa.
LOG_PLAIN_CAP = 16.0
CUMULANT_MAX_ORDER = 20
CUMULANT_CHUNK = 2 ** 13
EXACT_ELEMENTS = 2 ** 16
# An exact prime's level whose phase stays within NEAR_PHASE of the prime's
# limit phase enters through the Taylor series of e^{i t B_j}, cut after
# order NEAR_ORDER; NEAR_PHASE^10/10! <= 2^-53 (see the module docstring).
NEAR_PHASE = 0.1
NEAR_ORDER = 9

# Vector kernels drop series terms with p^j above this; such terms are below
# 1e-14 relative for every catalog entry (|f(p^j)| <= ~300 there).
TERM_CAP = 1e17


class WitnessNotFound(RuntimeError):
    """Greedy witness search exhausted its prime budget; increase p_cap."""


# ---------------------------------------------------------------------------
# vector kernels
# ---------------------------------------------------------------------------

def _level_bound(P: int, j: int) -> int:
    """Largest prime kept at series level j (term cap and J(p) >= j)."""
    bound = min(float(P), TERM_CAP ** (1.0 / j))
    if j >= 3:
        bound = min(bound, 2.0 ** (40.0 / (j - 2)))
    return int(bound)


def _levels(f: MultFunc, ps: np.ndarray, P: int):
    """Per-level arrays over ps, an ascending run of the primes <= P.

    Returns (levels, plain) where levels is a list of (count, weights,
    logratio) for j = 1, 2, ... restricted to the prefix of ps active at that
    level, weights[p] = f(p^j)/p^j and logratio[p] = log(p^j / sigma(p^j));
    plain[p] = 1 + sum_j weights, accumulated in the same level order.  Every
    value depends on p and P only, not on the rest of ps.
    """
    pinv = 1.0 / ps
    # s_j = sum_{i<=j} p^-i, so sigma(p^j)/p^j = 1 + s_j.  log1p(s_j) is good
    # to 1e-16 relative; the log of the closed form (1 - p^-(j+1)) / (1 - 1/p),
    # a ratio within 1/p of 1, loses up to 1.5e-8 of it at p near 1e8
    s = np.zeros(ps.size)
    plain = np.ones(ps.size, dtype=f.dtype)
    levels = []
    j = 1
    while True:
        bound = _level_bound(P, j)
        cnt = int(np.searchsorted(ps, bound, side="right"))
        if cnt == 0:
            break
        pj = pinv[:cnt] ** j
        w = f.prime_powers(ps[:cnt], j) * pj
        s = s[:cnt]
        s += pj
        lr = -np.log1p(s)
        levels.append((cnt, w, lr))
        plain[:cnt] += w
        j += 1
    return levels, plain


def _level_tables(f: MultFunc, P: int):
    """(ps, levels, plain) per segment of the primes <= P, in ascending order
    (see _levels); a segment may hold no prime."""
    P = int(P)
    if P < 2:
        raise ValueError("prime bound P must be >= 2")
    return ((ps, *_levels(f, ps, P)) for ps in prime_segments(P))


@dataclass(frozen=True)
class EulerProductValue:
    """Truncated Euler product with its truncation point and tail estimate."""
    value: complex
    P: int
    tail_bound: float


def _product_tail(f: MultFunc, P: int) -> float:
    """Estimate of |log(full/truncated)| for the mean-value product:
    sum_{p>P} (|f(p)-1|/p + eta_p + O(1/p^2)) < (c1 + c_eta + 4)/P."""
    return (f.prime_dev_coeff + f.eta_coeff + 4.0) / P


def mean_value_product(f: MultFunc, P: int) -> EulerProductValue:
    """prod_{p<=P} (1 - 1/p)(1 + f(p)/p + f(p^2)/p^2 + ...).

    Raises for catalog entries that fail the Wintner/Delange hypotheses (the
    product does not then represent the mean value).
    """
    if not f.mean_value_ok:
        raise ValueError(
            f"{f.id} fails the mean-value product hypotheses; "
            "its mean value is not given by the Euler product")
    P = int(P)
    tail = _product_tail(f, P)
    log_value = 0.0
    for ps, _, plain in _level_tables(f, P):
        factors = (1.0 - 1.0 / ps.astype(np.float64)) * plain
        if np.any(np.abs(factors) < 1e-300):
            return EulerProductValue(0j, P, tail)
        if factors.dtype == np.float64 and np.all(factors > 0):
            log_value += np.sum(np.log(factors))  # no complex128 copy for a positive real f
        else:
            log_value += np.sum(np.log(factors.astype(np.complex128)))
    return EulerProductValue(complex(np.exp(log_value)), P, tail)


def wirsing_prediction(f: MultFunc, x: float, P: int | None = None) -> float:
    """Wirsing-type prediction for sum_{n<=x} f(n):
    e^{-gamma kappa}/Gamma(kappa) * x/log x * prod_{p<=min(P,x)} (1 + f(p)/p + ...)."""
    if not f.nonneg:
        raise ValueError("Wirsing prediction needs a nonnegative function")
    if f.kappa is None:
        raise ValueError(f"{f.id} has no claimed density kappa")
    x = float(x)
    if x < 10:
        raise ValueError("x too small for the asymptotic to be meaningful")
    bound = int(min(P, x)) if P is not None else int(x)
    log_prod = sum(float(np.sum(np.log(plain.real)))
                   for _, _, plain in _level_tables(f, bound))
    kappa = f.kappa
    const = math.exp(-EULER_GAMMA * kappa) / math.gamma(kappa)
    return const * x / math.log(x) * math.exp(log_prod)


@dataclass(frozen=True)
class CharFnProfile:
    """Characteristic function of the limiting law of log(n/sigma(n)),
    as the truncated prime product, on a grid of t values."""
    ts: np.ndarray
    values: np.ndarray
    tail_bounds: np.ndarray
    P: int


def _policy_tail(f: MultFunc, ts: np.ndarray, P: int) -> np.ndarray:
    """Truncation tail over p > P: sum_{p>P} |twisted/plain - 1| <=
    C ((1+|t|)/p^2 + eta mass), with sum_{p>P} p^-2 < 1/P.  Past the float
    range near |t| = 1e308 the bound is infinite, which still holds."""
    with np.errstate(over="ignore"):
        return (TAIL_CONSTANT * (1.0 + np.abs(ts)) + f.eta_coeff) / P


def _exact_product(ts, ps, levels, n0: int) -> np.ndarray:
    """prod_{p among the first n0 primes of ps} twisted(p, t)/plain(p), per t,
    in blocks of t that keep each (t, prime) array within EXACT_ELEMENTS.

    With B_j = lr_j - A_p (exact in floats: lr_j and A_p are within a
    factor 2), the near levels of p sum to e^{i t A_p} sum_n c_{p,n} (i t)^n,
    c_{p,n} = sum_near w_j B_j^n / n!, n <= NEAR_ORDER: one exponential and a
    real polynomial per (t, p).  The far levels add their own exponential
    and j = 0 its 1.

    Each block is divided by the kernel's own row at t = 0, where every
    phase is exactly 1 and every odd power exactly 0.  A t = 0 row of a
    block takes the same operations on the same floats, so there every
    quotient, and the product, is exactly 1.
    """
    t_max = float(np.max(np.abs(ts), initial=0.0))
    A = np.log1p(-1.0 / ps[:n0])
    coef = np.zeros((NEAR_ORDER // 2 * 2 + 2, n0))  # coef[n] = c_{p,n}
    far = []  # (weights, logratios) of each level's far prefix
    for cnt, w, lr in levels:
        m = min(cnt, n0)
        B = lr[:m] - A[:m]
        # |B|: at high levels rounding takes B_j to 0 or below
        f = int(np.max(np.flatnonzero(t_max * np.abs(B) > NEAR_PHASE), initial=-1)) + 1
        far.append((w[:f], lr[:f]))
        term = w[f:m]
        for n in range(NEAR_ORDER + 1):
            coef[n, f:m] += term
            term = term * B[f:m] / (n + 1)
    # (i t)^n = (-1)^(n//2) t^n, real for even n and i times real for odd n:
    # row k holds (-1)^k (c_{2k}, c_{2k+1}) per prime in the float layout of
    # a complex array, so one Horner pass in t^2 gives both parts.  Rows past
    # the last nonzero one are dropped: without a near B_j != 0 (|B_j| >= one
    # ulp of A_p keeps max|t| < 1e27), t^2 may overflow and is not needed
    pairs = coef.shape[0] // 2
    horner = coef.reshape(pairs, 2, n0) * ((-1.0) ** np.arange(pairs))[:, None, None]
    horner = horner.transpose(0, 2, 1).reshape(pairs, 2 * n0)
    used = np.flatnonzero(horner[1:].any(axis=1))
    horner = horner[:used[-1] + 2 if used.size else 1][::-1]
    far_w, far_lr = (np.concatenate(x) for x in zip(*far))
    far_sizes = [w.size for w, _ in far if w.size]  # far sets shrink with j

    def cis(tb, angle, out):
        """out <- e^{i tb angle}: a cosine and a sine cost less than numpy's
        complex exp"""
        np.multiply(tb, angle, out=out.imag)
        np.cos(out.imag, out=out.real)
        np.sin(out.imag, out=out.imag)
        return out

    def kernel(tb, acc, series):
        """twisted(p, t) per row of tb (rows, 1) and prime, in acc; series
        is (rows, n0) scratch"""
        flat = series.view(np.float64)
        flat[:] = horner[0]
        if len(horner) > 1:
            u = tb * tb
            for c in horner[1:]:
                flat *= u
                flat += c
        np.multiply(series.imag, tb, out=series.imag)
        cis(tb, A, acc)
        acc *= series
        terms = cis(tb, far_lr, np.empty((tb.size, far_lr.size), np.complex128))
        terms *= far_w
        start = 0
        for size in far_sizes:
            acc[:, :size] += terms[:, start:start + size]
            start += size
        np.add(acc.real, 1.0, out=acc.real)
        return acc

    norm2 = np.repeat(kernel(np.zeros((1, 1)), *np.empty((2, 1, n0), np.complex128)).real, 2)
    rows = max(1, EXACT_ELEMENTS // n0)
    acc, series = np.empty((2, min(rows, ts.size), n0), dtype=np.complex128)
    out = np.empty(ts.size, dtype=np.complex128)
    for a in range(0, ts.size, rows):
        tb = ts[a:a + rows, None]
        block = kernel(tb, acc[:tb.size], series[:tb.size])
        # real and imaginary parts divided as floats: numpy's complex division
        # multiplies by a reciprocal, so there block/norm need not be exactly 1
        block.view(np.float64)[:] /= norm2
        out[a:a + rows] = np.prod(block, axis=1)
    return out


def _chunk_log_series(levels, plain, a: int, b: int, K: int) -> np.ndarray:
    """Taylor coefficients c_1..c_K of sum_p log phi_p(z) over the primes with
    index a..b-1, phi_p(z) = sum_j q_j e^{z lr_j}, q_j = w_j/plain(p); c_k is
    the summed k-th cumulant over k!.

    Per prime, phi_p(z) = 1 + sum_k a_k z^k with moments a_k =
    sum_j q_j lr_j^k/k!, and the coefficients b_k of log phi_p follow from
    (log phi_p)' phi_p = phi_p':  k b_k = k a_k - sum_{m<k} m b_m a_{k-m}.
    """
    mom = np.zeros((K + 1, b - a))  # mom[k] = a_k per prime
    for cnt, w, lr in levels:
        m = min(cnt, b) - a
        if m <= 0:
            break
        term = w[a:a + m] / plain[a:a + m]
        for k in range(1, K + 1):
            term = term * lr[a:a + m] / k
            mom[k, :m] += term
    log_coef = np.zeros_like(mom)  # log_coef[k] = b_k per prime
    for k in range(1, K + 1):
        m = np.arange(1, k)[:, None]
        log_coef[k] = mom[k] - np.sum(m * log_coef[1:k] * mom[k - 1:0:-1], axis=0) / k
    return log_coef[1:].sum(axis=1)


def char_function(f: MultFunc, ts, P: int) -> CharFnProfile:
    """prod_{p<=P} twisted(p, t) / plain(p) on the given t grid.

    Nonnegative f only (the product is then a genuine characteristic
    function).  At t = 0 the value is exactly 1 by construction.

    Primes p <= P0 enter exactly, one factor per (t, p); the primes above
    enter as exp(sum_k c_k (it)^k), their summed cumulant series (see the
    module docstring).  Cut at order K, the series drops at most
    M_p q^(K+1)/(1-q) at p, M_p = log plain(p), q = |t|/R_p.  P0 is set so
    that q <= 1/2 and order CUMULANT_MAX_ORDER keep that under M_p times a
    fixed share of CUMULANT_BUDGET (see LOG_PLAIN_CAP), and K is chosen per
    chunk of CUMULANT_CHUNK primes for the same share, so the primes are read
    in one pass.  The remainder, per t, is added to tail_bounds; it is under
    CUMULANT_BUDGET for every nonnegative catalog entry at P <= PRIME_LIMIT.
    """
    if not f.nonneg:
        raise ValueError("characteristic-function product needs a nonnegative function")
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    if not np.all(np.isfinite(ts)):
        raise ValueError("t values must be finite")
    P = int(P)
    t_max = float(np.max(np.abs(ts), initial=0.0))
    # q^(K+1)/(1-q) <= eps for q <= rho_cut at K = CUMULANT_MAX_ORDER
    eps = CUMULANT_BUDGET / LOG_PLAIN_CAP
    rho_cut = min(0.5, (eps / 2.0) ** (1.0 / (CUMULANT_MAX_ORDER + 1)))
    P0 = math.ceil(min(t_max / (rho_cut * math.log(2.0)), P))  # any cut >= P takes every prime

    out = np.ones(ts.size, dtype=np.complex128)
    series = np.zeros(CUMULANT_MAX_ORDER + 1)  # series[k] = c_k
    remainder = np.zeros(ts.size)
    for ps, levels, plain in _level_tables(f, P):
        n0 = int(np.searchsorted(ps, P0, side="right"))
        if n0:
            out *= _exact_product(ts, ps, levels, n0)
        # chunks of CUMULANT_CHUNK primes run from the cut to the segment's end
        for a in range(n0, ps.size, CUMULANT_CHUNK):
            b = min(a + CUMULANT_CHUNK, ps.size)
            r_min = (float(ps[a]) - 1.0) * math.log(2.0)  # R_p of the chunk's first prime
            rho = t_max / r_min
            if rho == 0.0:
                continue
            K = max(0, min(CUMULANT_MAX_ORDER,
                           math.ceil(math.log(eps * (1.0 - rho)) / math.log(rho)) - 1))
            series[1:K + 1] += _chunk_log_series(levels, plain, a, b, K)
            q = np.abs(ts) / r_min
            remainder += float(np.sum(np.log(plain[a:b]))) * q ** (K + 1) / (1.0 - q)
    log_tail = np.zeros(ts.size, dtype=np.complex128)
    z = 1j * ts
    for c in series[:0:-1]:  # Horner, ending on a factor z: exactly 0 at t = 0
        log_tail = (log_tail + c) * z
    out *= np.exp(log_tail)
    tails = _policy_tail(f, ts, P) + remainder
    return CharFnProfile(ts, out, tails, P)


def mertens_kappa(f: MultFunc, x: float) -> tuple[float, float]:
    """((sum_{p<=x} f(p) log p / p) / log x, sum_{p<=x} f(p) / p).

    For a nonnegative catalog entry of density kappa the first component
    drifts to kappa and the second grows like kappa log log x.
    """
    x = int(x)
    if x < 10:
        raise ValueError("x must be >= 10")
    weighted = recip = 0.0
    for ps in prime_segments(x):
        pf = ps.astype(np.float64)
        fp = f.at_primes(ps)
        weighted += np.sum(fp * np.log(pf) / pf)
        recip += np.sum(fp / pf)
    return float(weighted.real) / math.log(x), float(recip.real)


def halasz_series(f: MultFunc, beta: float, P: int) -> float:
    """Partial sum sum_{p<=P} (1 - Re(f(p) p^{-i beta}))/p.

    Growth of this sum along increasing P suggests (never decides) divergence,
    which is the mean-value-zero criterion for unimodular f without the
    exceptional 2-power phase structure.
    """
    if not f.unit_disc:
        raise ValueError("the series diagnostic needs |f| <= 1")
    if not math.isfinite(beta * math.log(max(P, 2))):  # the twist needs beta log p finite
        raise ValueError(f"beta log P must be finite, not beta = {beta} at P = {P}")
    total = 0.0
    for ps in prime_segments(int(P)):
        pf = ps.astype(np.float64)
        fp = f.at_primes(ps).astype(np.complex128)
        twist = fp * np.exp(-1j * beta * np.log(pf))
        total += float(np.sum((1.0 - twist.real) / pf))
    return total


def continuity_diagnostic(f: MultFunc, P: int) -> float:
    """sum_{p<=P} (1 - d_p) with d_p the largest jump of the local law, i.e.
    the maximum over j of (f(p^j)/p^j) / plain(p).

    Divergence of the full series certifies that the limiting law has no
    atoms; growth across P = 1e4, 1e5, 1e6 is the checkable evidence.
    """
    if not f.nonneg:
        raise ValueError("continuity diagnostic needs a nonnegative function")
    P = int(P)
    if P < 2:
        return 0.0
    total = 0.0
    for ps, levels, plain in _level_tables(f, P):
        top = np.ones(ps.size)  # j = 0 weight before normalization
        for cnt, w, _ in levels:
            np.maximum(top[:cnt], w.real, out=top[:cnt])
        total += float(np.sum(1.0 - top / plain.real))
    return total


def greedy_witness(f: MultFunc, v, u, p_cap: int = 100_000) -> list[int]:
    """The ascending primes of a squarefree m, f(m) > 0 and v < m/sigma(m) <= u.

    Starting from m = 1 (ratio 1), multiply in the smallest prime p with
    f(p) != 0 whose inclusion keeps the exact ratio above v; stop as soon as
    the ratio is <= u.  All comparisons are exact integer arithmetic.  m is
    given by its primes, as its digits may pass Python's int-to-str limit.
    Raises WitnessNotFound when primes up to p_cap do not suffice (a budget
    signal, not a correctness failure).
    """
    v, u = Fraction(v), Fraction(u)
    if not (0 <= v < u <= 1):
        raise ValueError("need 0 <= v < u <= 1")
    if u == 1:  # m = 1 has ratio 1
        return []
    # the ratio is m/s with s = sigma(m), and the tests m p/(s (p+1)) > v and
    # m/s <= u are cross-multiplied, all in Python ints
    (v_num, v_den), (u_num, u_den) = v.as_integer_ratio(), u.as_integer_ratio()
    m = s = 1
    primes = []
    phase = complex(1.0)  # f(m)/|f(m)|: |f(m)| may overflow, and only the phase is checked
    for ps in prime_segments(int(p_cap)):  # p_cap is checked here, before any prime is sieved
        for p, fp in zip(ps.tolist(), f.at_primes(ps).tolist()):
            if fp == 0:
                continue
            if m * p * v_den > v_num * s * (p + 1):
                m *= p
                s *= p + 1
                primes.append(p)
                phase *= fp / abs(fp)
                if m * u_den <= u_num * s:
                    if not (abs(phase.imag) < 1e-9 and phase.real > 0):
                        raise WitnessNotFound(f"f(m) has phase {phase}, not positive")
                    return primes
    raise WitnessNotFound(
        f"no witness in ({v}, {u}] with primes up to {p_cap}; increase p_cap")
