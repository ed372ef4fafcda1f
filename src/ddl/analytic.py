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

``char_function`` splits that product at a cut P0 set by max|t|, in
O(#t * pi(P0) + pi(P)) work.  Primes p <= P0 enter exactly, per t.  Above
P0 the local law phi_p(z) = twisted(p, -iz)/plain(p) is analytic with
|phi_p - 1| <= 1 - 1/plain(p) on |z| <= R_p = (p-1) log 2, because every
|log(p^j/sigma(p^j))| < 1/(p-1); so those primes enter as the exponential
of their summed cumulant series, cut at an order K chosen per chunk of
primes.  Cauchy's estimate bounds what the cut drops by
log plain(p) q^(K+1)/(1-q) per prime, q = |t|/R_p <= 1/2; that remainder,
at most CUMULANT_BUDGET = 1e-13, is added to the profile's tail bounds.

Products are accumulated in log space: each local factor tends to 1, so the
sum of principal-branch logarithms is well conditioned and cannot underflow.

All products share one table of these series, built by ``_level_tables``
one level j at a time over every prime at once.  The truncation rule lives
in ``_level_bound``: prime p is kept at level j >= 3 only while
p^(j-2) <= 2^40, so the series at p has J(p) = floor(40 / log2 p) + 2
terms and its local truncation is at the 1e-12 level uniformly in p; terms
with p^j > 1e17 are dropped as well, which are below 1e-14 relative for
every catalog entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .multfunc import MultFunc
from .sieve import primes_up_to

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

# Policy constants for the characteristic-function tail estimate.
TAIL_CONSTANT = 2.0
TAIL_P0 = 11

# The characteristic-function split (see char_function): the summed cumulant
# remainder at max|t| stays under CUMULANT_BUDGET, with series orders up to
# CUMULANT_MAX_ORDER over chunks of CUMULANT_CHUNK primes; the exact small
# primes go in (t, prime) blocks of at most EXACT_ELEMENTS.
CUMULANT_BUDGET = 1e-13
CUMULANT_MAX_ORDER = 20
CUMULANT_CHUNK = 2 ** 13
EXACT_ELEMENTS = 2 ** 16

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


def _level_tables(f: MultFunc, P: int):
    """Per-level arrays over the primes <= P.

    Returns (ps, levels, plain) where levels is a list of (count, weights,
    logratio) for j = 1, 2, ... restricted to the prime prefix active at that
    level, weights[p] = f(p^j)/p^j and logratio[p] = log(p^j / sigma(p^j));
    plain[p] = 1 + sum_j weights, accumulated in the same level order.
    """
    ps = primes_up_to(P)
    if ps.size == 0:
        raise ValueError("prime bound P must be >= 2")
    pinv = 1.0 / ps
    # s_j = sum_{i<=j} p^-i, so sigma(p^j)/p^j = 1 + s_j.  log1p(s_j) is good
    # to 1e-16 relative; the log of the closed form (1 - p^-(j+1)) / (1 - 1/p),
    # a ratio within 1/p of 1, loses up to 1.5e-8 of it at p near 1e8
    s = np.zeros(ps.size)
    plain = np.ones(ps.size, dtype=np.complex128 if f.complex_valued else np.float64)
    levels = []
    j = 1
    while True:
        bound = _level_bound(int(P), j)
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
    return ps, levels, plain


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
    ps, _, plain = _level_tables(f, P)
    factors = (1.0 - 1.0 / ps.astype(np.float64)) * plain
    if np.any(np.abs(factors) < 1e-300):
        value = 0.0 + 0.0j
    elif factors.dtype == np.float64 and np.all(factors > 0):
        value = np.exp(np.sum(np.log(factors)))  # no complex128 copy for a positive real f
    else:
        value = np.exp(np.sum(np.log(factors.astype(np.complex128))))
    return EulerProductValue(complex(value), P, _product_tail(f, P))


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
    _, _, plain = _level_tables(f, bound)
    log_prod = float(np.sum(np.log(plain.real)))
    kappa = f.kappa
    const = math.exp(-EULER_GAMMA * kappa) / math.gamma(kappa)
    return const * x / math.log(x) * math.exp(log_prod)


@dataclass(frozen=True)
class CharFnProfile:
    """Characteristic function of the limiting law of log(n/sigma(n)),
    as the truncated prime product, on a grid of t values."""
    f_id: str
    ts: np.ndarray
    values: np.ndarray
    tail_bounds: np.ndarray
    P: int


def _policy_tail(f: MultFunc, ts: np.ndarray, P: int) -> np.ndarray:
    """Truncation tail over p > P: sum_{p>P} |twisted/plain - 1| <=
    C ((1+|t|)/p^2 + eta mass), with sum_{p>P} p^-2 < 1/P."""
    return (TAIL_CONSTANT * (1.0 + np.abs(ts)) + f.eta_coeff) / P


def _exact_product(ts, levels, plain, n0: int) -> np.ndarray:
    """prod_{p among the first n0 primes} twisted(p, t)/plain(p), per t, in
    blocks of t that keep each (t, prime) temporary within EXACT_ELEMENTS.

    At t = 0 every phase is exactly 1, so acc reproduces plain's own
    accumulation and the product is exactly 1.
    """
    out = np.empty(ts.size, dtype=np.complex128)
    # real and imaginary parts divided as floats: numpy's complex division
    # multiplies by a reciprocal, so there acc/plain need not be exactly 1
    plain2 = np.repeat(plain[:n0], 2)
    rows = max(1, EXACT_ELEMENTS // max(n0, 1))
    for a in range(0, ts.size, rows):
        tb = ts[a:a + rows, None]
        acc = np.ones((tb.size, n0), dtype=np.complex128)
        for cnt, w, lr in levels:
            c = min(cnt, n0)
            acc[:, :c] += w[:c] * np.exp(1j * tb * lr[:c])
        acc.view(np.float64)[:] /= plain2
        out[a:a + rows] = np.prod(acc, axis=1)
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
    that q <= 1/2 and order CUMULANT_MAX_ORDER keeps the sum of that under
    CUMULANT_BUDGET; K is chosen per chunk of CUMULANT_CHUNK primes for the
    same budget, and the remainder it leaves, per t, is added to tail_bounds.
    """
    if not f.nonneg:
        raise ValueError("characteristic-function product needs a nonnegative function")
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    if not np.all(np.isfinite(ts)):
        raise ValueError("t values must be finite")
    P = int(P)
    ps, levels, plain = _level_tables(f, P)
    t_max = float(np.max(np.abs(ts), initial=0.0))
    # per-prime share of the budget: sum_p M_p eps <= CUMULANT_BUDGET, and
    # q^(K+1)/(1-q) <= eps for q <= rho_cut at K = CUMULANT_MAX_ORDER
    m_p = np.log(plain)
    eps = CUMULANT_BUDGET / max(float(np.sum(m_p)), 1e-300)
    rho_cut = min(0.5, (eps / 2.0) ** (1.0 / (CUMULANT_MAX_ORDER + 1)))
    P0 = math.ceil(t_max / (rho_cut * math.log(2.0)))
    n0 = int(np.searchsorted(ps, P0, side="right"))

    out = _exact_product(ts, levels, plain, n0)
    series = np.zeros(CUMULANT_MAX_ORDER + 1)  # series[k] = c_k
    remainder = np.zeros(ts.size)
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
        remainder += float(np.sum(m_p[a:b])) * q ** (K + 1) / (1.0 - q)
    log_tail = np.zeros(ts.size, dtype=np.complex128)
    z = 1j * ts
    for c in series[:0:-1]:  # Horner, ending on a factor z: exactly 0 at t = 0
        log_tail = (log_tail + c) * z
    out *= np.exp(log_tail)
    tails = _policy_tail(f, ts, P) + remainder
    return CharFnProfile(f.spec_string(), ts, out, tails, P)


def mertens_kappa(f: MultFunc, x: float) -> tuple[float, float]:
    """((sum_{p<=x} f(p) log p / p) / log x, sum_{p<=x} f(p) / p).

    For a nonnegative catalog entry of density kappa the first component
    drifts to kappa and the second grows like kappa log log x.
    """
    x = int(x)
    if x < 10:
        raise ValueError("x must be >= 10")
    ps = primes_up_to(x)
    pf = ps.astype(np.float64)
    fp = f.at_primes(ps)
    if not f.complex_valued:
        fp = fp.real
    weighted = float(np.sum(fp * np.log(pf) / pf).real) / math.log(x)
    recip = float(np.sum(fp / pf).real)
    return weighted, recip


def halasz_series(f: MultFunc, beta: float, P: int) -> float:
    """Partial sum sum_{p<=P} (1 - Re(f(p) p^{-i beta}))/p.

    Growth of this sum along increasing P suggests (never decides) divergence,
    which is the mean-value-zero criterion for unimodular f without the
    exceptional 2-power phase structure.
    """
    if not f.unit_disc:
        raise ValueError("the series diagnostic needs |f| <= 1")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, not {beta}")
    ps = primes_up_to(int(P))
    pf = ps.astype(np.float64)
    fp = f.at_primes(ps).astype(np.complex128)
    if beta == 0.0:
        twist = fp
    else:
        twist = fp * np.exp(-1j * beta * np.log(pf))
    return float(np.sum((1.0 - twist.real) / pf))


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
    ps, levels, plain = _level_tables(f, P)
    plain = plain.real
    top = np.ones(ps.size)  # j = 0 weight before normalization
    for cnt, w, _ in levels:
        np.maximum(top[:cnt], w.real, out=top[:cnt])
    return float(np.sum(1.0 - top / plain))


def greedy_witness(f: MultFunc, v, u, p_cap: int = 100_000) -> int:
    """Squarefree m with f(m) > 0 and v < m/sigma(m) <= u, by greedy descent.

    Starting from m = 1 (ratio 1), multiply in the smallest prime p with
    f(p) != 0 whose inclusion keeps the exact ratio above v; stop as soon as
    the ratio is <= u.  All comparisons are exact rational arithmetic.
    Raises WitnessNotFound when primes up to p_cap do not suffice (a budget
    signal, not a correctness failure).
    """
    v, u = Fraction(v), Fraction(u)
    if not (0 <= v < u <= 1):
        raise ValueError("need 0 <= v < u <= 1")
    ratio = Fraction(1)
    m = 1
    fprod = complex(1.0)
    if ratio <= u:  # only possible when u = 1
        return m
    ps = primes_up_to(int(p_cap))
    for p_, fp_ in zip(ps, f.at_primes(ps)):
        p = int(p_)
        fp = complex(fp_)
        if fp == 0:
            continue
        cand = ratio * p / (p + 1)
        if cand > v:
            m *= p
            ratio = cand
            fprod *= fp
            if ratio <= u:
                if not (abs(fprod.imag) < 1e-9 and fprod.real > 0):
                    raise WitnessNotFound(f"greedy product has f(m) = {fprod}, not positive")
                return m
    raise WitnessNotFound(
        f"no witness in ({v}, {u}] with primes up to {p_cap}; increase p_cap")

