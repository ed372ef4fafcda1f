"""Recover the limiting distribution of log(n/sigma(n)) from its
characteristic function, and measure agreement with the sieve estimate.

The pointwise inversion is the half-line oscillatory integral

    F(x0) = 1/2 - (1/pi) integral_0^T Im(e^{-i t x0} psi(t)) / t dt

evaluated by the trapezoid rule on the profile's t grid, in real form:
Im(e^{-i t x0} psi) = cos(t x0) Im psi - sin(t x0) Re psi, so the sum is two
real matrix-vector products.  The t -> 0 node is handled analytically: the
integrand tends to m1 - x0, where m1 (the mean of the limiting law) is
estimated from the first positive node as Im psi(h)/h.  This is the only
quadrature.  A profile on a symmetric grid is read through its t >= 0 half,
which determines the rest, since psi(-t) = conj(psi(t)) for a real law.

The distribution has no atoms, so pointwise inversion converges at every
evaluation point, but with no known rate: T and the step are calibrated, not
derived, and are echoed in the output together with the declared slack.  The
defaults (T = 200, step = 0.05) meet a 0.02 slack for the unweighted ratio
law at the points with |x0| >= 1.5/T.  Nearer the support edge any fixed-T
method is resolution-limited, because the law keeps on the order of
1/log(1/eps) of its mass within eps of the edge: at x0 = log(199/200), about
1/T from the edge, T = 200 is off by 0.021, and T = 400 brings it back
within the slack.  At exactly x0 = 0 the value returned is the total mass,
which the profile carries exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import CharFnProfile
from .empirical import WeightedCdfEstimate

__all__ = ["InversionError", "InvertedCdf", "CdfComparison", "invert", "sup_distance"]

DEFAULT_T = 200.0
DEFAULT_STEP = 0.05
DEFAULT_SLACK = 0.02
# The slack is promised at |x0| >= RESOLVED_WIDTH / T (and at x0 = 0).
RESOLVED_WIDTH = 1.5


class InversionError(ValueError):
    """Profile grid unusable for the requested quadrature."""


@dataclass(frozen=True)
class InvertedCdf:
    """Inverted distribution values at the evaluation points.

    raw holds the quadrature output; values is raw clipped to [0, 1] and made
    nondecreasing (isotonic cleanup), with flags recording whether either
    step changed anything beyond the declared slack.
    """
    points: np.ndarray
    raw: np.ndarray
    values: np.ndarray
    eps: float
    T: float
    step: float
    isotonic_changed: bool
    slack_exceeded: bool


def _profile_nodes(profile: CharFnProfile, T: float, step: float):
    """Positive quadrature nodes k*step <= T drawn from the profile grid."""
    ts = np.asarray(profile.ts, dtype=np.float64)
    if ts.size < 3:
        raise InversionError("profile grid too small")
    nonneg = ts[ts >= -1e-9]
    nonneg = np.sort(nonneg)
    h0 = np.diff(nonneg)
    if not np.all(h0 > 0):
        raise InversionError("profile grid has duplicate t values")
    base = float(h0[0])
    if not np.all(np.abs(h0 - base) < 1e-9 * max(base, 1.0)):
        raise InversionError("profile grid must be uniform on t >= 0")
    if abs(nonneg[0]) > 1e-9:
        raise InversionError("profile grid must start at t = 0")
    k = step / base
    if abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise InversionError(f"step {step} is not a multiple of the profile spacing {base}")
    k = int(round(k))
    m = int(math.floor(T / step + 1e-9))
    if m < 3:
        raise InversionError("T / step leaves too few quadrature nodes")
    if m * k >= nonneg.size:
        raise InversionError(f"T = {T} beyond the profile range {nonneg[-1]:.3f}")
    idx = np.arange(1, m + 1) * k
    return nonneg[idx], idx


def _nearest_index(sorted_arr: np.ndarray, targets: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the elements of sorted_arr closest to each target, which
    must match within tol."""
    ptr = np.searchsorted(sorted_arr, targets)
    ptr = np.clip(ptr, 0, sorted_arr.size - 1)
    left = np.clip(ptr - 1, 0, sorted_arr.size - 1)
    take_left = np.abs(sorted_arr[left] - targets) < np.abs(sorted_arr[ptr] - targets)
    idx = np.where(take_left, left, ptr)
    if np.any(np.abs(sorted_arr[idx] - targets) > tol):
        raise InversionError("quadrature nodes missing from the profile grid")
    return idx


def invert(profile: CharFnProfile, points, T: float = DEFAULT_T,
           step: float = DEFAULT_STEP, eps: float = DEFAULT_SLACK) -> InvertedCdf:
    """Pointwise inversion at ascending evaluation points (log coordinates)."""
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    if points.size > 1 and not np.all(np.diff(points) > 0):
        raise InversionError("evaluation points must be strictly increasing")
    ts = np.asarray(profile.ts, dtype=np.float64)
    vals = np.asarray(profile.values, dtype=np.complex128)

    # map positive nodes; profile values looked up by index
    order = np.argsort(ts)
    ts_sorted = ts[order]
    vals_sorted = vals[order]
    pos_nodes, _ = _profile_nodes(profile, T, step)
    pos_vals = vals_sorted[_nearest_index(ts_sorted, pos_nodes, 1e-6)]

    h = float(step)
    m1 = float(pos_vals[0].imag) / float(pos_nodes[0])
    w = np.full(pos_nodes.size, h)
    w[-1] = h / 2.0

    # F = 1/2 - (1/pi) [ (h/2)(m1 - x0) + sum w Im(e^{-i t x0} psi)/t ];
    # one real matrix X = t x0 is reused for the sine, which keeps the peak
    # memory at two real (points x nodes) arrays
    X = np.outer(points, pos_nodes)
    quad = np.cos(X) @ (w * pos_vals.imag / pos_nodes)
    quad -= np.sin(X, out=X) @ (w * pos_vals.real / pos_nodes)
    quad += (h / 2.0) * (m1 - points)
    raw = 0.5 - quad / math.pi

    # Right edge of the support: the law of log(n/sigma(n)) lives on
    # (-inf, 0], and its mass within eps of 0 shrinks only like 1/log(1/eps),
    # so the truncated integral at x0 = 0 converges far too slowly to use
    # (the quadrature kernel of width ~1/T straddles the edge).  The value
    # there is the total mass itself, which the profile carries exactly.
    edge = np.abs(points) <= 1e-12
    if np.any(edge):
        raw = raw.copy()
        raw[edge] = 1.0

    slack_exceeded = bool(np.any(raw < -eps) or np.any(raw > 1.0 + eps))
    clipped = np.clip(raw, 0.0, 1.0)
    iso = np.maximum.accumulate(clipped)
    isotonic_changed = bool(np.any(iso != clipped))
    return InvertedCdf(points, raw, iso, eps, float(T), h,
                       isotonic_changed, slack_exceeded)


@dataclass(frozen=True)
class CdfComparison:
    """Sup distance between a sieve CDF and an inverted one, with both error budgets."""
    sup_distance: float
    at_point: float
    empirical_x: int
    inverted_eps: float
    T: float
    step: float


def sup_distance(estimate: WeightedCdfEstimate, inverted: InvertedCdf) -> CdfComparison:
    """Max |empirical - inverted| over the estimate's positive log thresholds
    where the inversion promises its slack: u = 1, and |log u| >= 1.5/T.

    Thresholds with 0 < |log u| < 1.5/T are left out, because there a
    kernel of width ~1/T cannot resolve the mass piled up at the support
    edge (see the module docstring).  The inverted curve is interpolated
    linearly onto the estimate's points; the supports must overlap.
    """
    logs, emp = estimate.log_cdf()
    lo, hi = float(inverted.points[0]), float(inverted.points[-1])
    if logs[-1] < lo or logs[0] > hi:
        raise InversionError("estimate and inverted curve have disjoint supports")
    keep = (logs == 0.0) | (np.abs(logs) >= RESOLVED_WIDTH / inverted.T)
    logs, emp = logs[keep], emp[keep]
    if logs.size == 0:
        raise InversionError(f"no threshold at u = 1 or |log u| >= {RESOLVED_WIDTH}/T")
    inv = np.interp(logs, inverted.points, inverted.values)
    diff = np.abs(emp - inv)
    k = int(np.argmax(diff))
    return CdfComparison(float(diff[k]), float(logs[k]), estimate.x,
                         inverted.eps, inverted.T, inverted.step)
