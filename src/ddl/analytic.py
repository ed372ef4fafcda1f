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
    "hypothesis_partial_sums",
]

EULER_GAMMA = 0.5772156649015329

# Policy constants for the characteristic-function tail estimate.
TAIL_CONSTANT = 2.0
TAIL_P0 = 11

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


def _level_tables(f: MultFunc, P: int, J: int | None = None):
    """Per-level arrays over the primes <= P.

    Returns (ps, levels, plain) where levels is a list of (count, weights,
    logratio) for j = 1, 2, ... restricted to the prime prefix active at that
    level, weights[p] = f(p^j)/p^j and logratio[p] = log(p^j / sigma(p^j));
    plain[p] = 1 + sum_j weights, accumulated in the same level order.
    """
    ps = primes_up_to(P)
    if ps.size == 0:
        raise ValueError("prime bound P must be >= 2")
    pf = ps.astype(np.float64)
    pinv = 1.0 / pf
    plain = np.ones(ps.size, dtype=np.complex128 if f.complex_valued else np.float64)
    levels = []
    j = 1
    while True:
        if J is not None and j > J:
            break
        bound = _level_bound(int(P), j)
        cnt = int(np.searchsorted(ps, bound, side="right"))
        if cnt == 0:
            break
        w = f.prime_powers(ps[:cnt], j) * pinv[:cnt] ** j
        sig_ratio = (1.0 - pinv[:cnt] ** (j + 1)) / (1.0 - pinv[:cnt])  # sigma(p^j)/p^j
        lr = -np.log(sig_ratio)
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
    J: int | None

    def value_at(self, t: float) -> complex:
        k = int(np.argmin(np.abs(self.ts - t)))
        if abs(float(self.ts[k]) - t) > 1e-9:
            raise ValueError(f"t = {t} not on the profile grid")
        return complex(self.values[k])


def _uniform_step(ts: np.ndarray) -> float | None:
    if ts.size < 3:
        return None
    d = np.diff(ts)
    h = float(d[0])
    if h > 0 and np.all(np.abs(d - h) < 1e-12 * max(1.0, abs(h))):
        return h
    return None


def char_function(f: MultFunc, ts, P: int, J: int | None = None) -> CharFnProfile:
    """prod_{p<=P} twisted(p, t) / plain(p) on the given t grid.

    Nonnegative f only (the product is then a genuine characteristic
    function).  At t = 0 the value is exactly 1 by construction.  On a
    uniform t grid the per-prime phases are advanced by a complex recurrence
    instead of fresh exponentials, which makes dense quadrature grids cheap.
    """
    if not f.nonneg:
        raise ValueError("characteristic-function product needs a nonnegative function")
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    P = int(P)
    ps, levels, plain = _level_tables(f, P, J)

    def eval_direct(t):
        # at t = 0 every phase is exactly 1, so acc reproduces plain's own
        # accumulation and the product is exactly 1
        acc = np.ones(ps.size, dtype=np.complex128)
        for cnt, w, lr in levels:
            acc[:cnt] += w * np.exp(1j * t * lr)
        return np.prod(acc / plain)

    out = np.empty(ts.size, dtype=np.complex128)
    h = _uniform_step(ts)
    if h is not None:
        bases = [np.exp(1j * h * lr) for _, _, lr in levels]
        phases = [np.exp(1j * ts[0] * lr) for _, _, lr in levels]
        for k in range(ts.size):
            t = float(ts[k])
            if t == 0.0:
                out[k] = eval_direct(0.0)
            else:
                acc = np.ones(ps.size, dtype=np.complex128)
                for (cnt, w, _), ph in zip(levels, phases):
                    acc[:cnt] += w * ph
                out[k] = np.prod(acc / plain)
            if k + 1 < ts.size:
                for ph, base in zip(phases, bases):
                    ph *= base
    else:
        for k, t in enumerate(ts):
            out[k] = eval_direct(float(t))
    # tail: sum_{p>P} |twisted/plain - 1| <= C ((1+|t|)/p^2 + eta mass), with
    # sum_{p>P} p^-2 < 1/P
    tails = (TAIL_CONSTANT * (1.0 + np.abs(ts)) + f.eta_coeff) / P
    return CharFnProfile(f.spec_string(), ts, out, tails, P, J)


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


def hypothesis_partial_sums(f: MultFunc, P: int, J: int = 6) -> dict:
    """Partial sums of the convergence hypotheses, as diagnostics:

    abs_prime   sum_{p<=P} |f(p) - 1| / p
    higher      sum_{p<=P} sum_{2<=j<=J} |f(p^j)| / p^j
    delange     sum_{p<=P} (f(p) - 1) / p   (complex)

    Boundedness of the first two along growing P is the product-form
    hypothesis; convergence of the third is the weaker unimodular one.
    """
    ps = primes_up_to(int(P))
    pf = ps.astype(np.float64)
    fp = f.at_primes(ps).astype(np.complex128)
    abs_prime = float(np.sum(np.abs(fp - 1.0) / pf))
    higher = 0.0
    for j in range(2, J + 1):
        higher += float(np.sum(np.abs(f.prime_powers(ps, j)) / pf ** j))
    delange = complex(np.sum((fp - 1.0) / pf))
    return {"abs_prime": abs_prime, "higher": higher,
            "delange_re": delange.real, "delange_im": delange.imag}
