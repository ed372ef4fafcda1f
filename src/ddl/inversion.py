"""Recover the limiting distribution of log(n/sigma(n)) from its
characteristic function, and measure agreement with the sieve estimate.

The pointwise inversion is the half-line oscillatory integral

    F(x0) = 1/2 - (1/pi) integral_0^T Im(e^{-i t x0} psi(t)) / t dt

evaluated by the trapezoid rule on the profile's t grid, in real form:
Im(e^{-i t x0} psi) = cos(t x0) Im psi - sin(t x0) Re psi, so the sum is two
real matrix-vector products, taken one block of points at a time.  The
t -> 0 node is handled analytically: the integrand tends to m1 - x0, where
m1 (the mean of the limiting law) is estimated from the first positive node
as Im psi(h)/h.  This is the only quadrature.  The profile must be sampled on the quadrature grid itself:
profile.ts must begin k * step for k = 0..floor(T/step), which is what
``_quadrature_grid`` builds; nodes past that are not used, and ``invert``
raises InversionError on any other grid.  The t >= 0 half is all it needs,
since psi(-t) = conj(psi(t)) for a real law.

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

from .analytic import EXACT_ELEMENTS, CharFnProfile
from .empirical import WeightedCdfEstimate
from .sieve import ResourceLimitError

__all__ = ["InversionError", "InvertedCdf", "CdfComparison", "invert", "sup_distance"]

DEFAULT_T = 200.0
DEFAULT_STEP = 0.05
DEFAULT_SLACK = 0.02
# The slack is promised at |x0| >= RESOLVED_WIDTH / T (and at x0 = 0).
RESOLVED_WIDTH = 1.5
# Most nodes a t grid may hold; the grid alone is then 80 MB.
_MAX_T_NODES = 10 ** 7
# Cap on 16 bytes per (evaluation point, positive node) pair: it bounds the
# work an inversion may ask for, not the size of any one array.
INVERT_BUDGET_BYTES = 2_000_000_000


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


def _t_nodes(count: int) -> int:
    """count, unless a t grid of that many nodes is refused (before it is built)."""
    if count > _MAX_T_NODES:
        raise ResourceLimitError(f"{count} t nodes requested, over the {_MAX_T_NODES} cap")
    return count


def _quadrature_grid(T: float, step: float, n_points: int) -> np.ndarray:
    """The t grid the quadrature runs on, k*step for k = 0..floor(T/step).
    An inversion is refused, before the grid is built, when n_points times
    the positive nodes passes INVERT_BUDGET_BYTES / 16, a cap on the
    product's cost: the quadrature itself holds one block of at most
    EXACT_ELEMENTS (point, node) pairs at a time."""
    if not (step > 0 and math.isfinite(T / step)):
        raise InversionError("T and step must be finite, with step > 0")
    m = int(math.floor(T / step + 1e-9))
    if m < 3:
        raise InversionError("T / step leaves too few quadrature nodes")
    nodes = _t_nodes(m + 1)
    need = 16 * n_points * m
    if need > INVERT_BUDGET_BYTES:
        raise ResourceLimitError(
            f"inverting at {n_points} points over {m} nodes needs "
            f"{need / 1e9:.1f} GB, over the {INVERT_BUDGET_BYTES / 1e9:.1f} GB budget")
    return step * np.arange(nodes)


def invert(profile: CharFnProfile, points, T: float = DEFAULT_T,
           step: float = DEFAULT_STEP) -> InvertedCdf:
    """Pointwise inversion at ascending evaluation points (log coordinates)."""
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    if points.size > 1 and not np.all(np.diff(points) > 0):
        raise InversionError("evaluation points must be strictly increasing")
    grid = _quadrature_grid(T, step, points.size)
    ts = np.asarray(profile.ts, dtype=np.float64)[:grid.size]
    if ts.size < grid.size or np.any(np.abs(ts - grid) > 1e-9 * max(T, 1.0)):
        raise InversionError(f"profile grid must begin k*{step:g} for k = 0..{grid.size - 1}")
    pos_nodes = grid[1:]
    pos_vals = np.asarray(profile.values, dtype=np.complex128)[1:grid.size]

    h = float(step)
    m1 = float(pos_vals[0].imag) / float(pos_nodes[0])
    w = np.full(pos_nodes.size, h)
    w[-1] = h / 2.0

    # F = 1/2 - (1/pi) [ (h/2)(m1 - x0) + sum w Im(e^{-i t x0} psi)/t ],
    # over blocks of points whose matrix X = t x0 holds at most EXACT_ELEMENTS;
    # each row's sums are those of the whole matrix
    im_w, re_w = w * pos_vals.imag / pos_nodes, w * pos_vals.real / pos_nodes
    quad = np.empty(points.size)
    rows = max(1, EXACT_ELEMENTS // pos_nodes.size)
    for a in range(0, points.size, rows):
        X = np.outer(points[a:a + rows], pos_nodes)
        quad[a:a + rows] = np.cos(X) @ im_w
        quad[a:a + rows] -= np.sin(X, out=X) @ re_w
    quad += (h / 2.0) * (m1 - points)
    raw = 0.5 - quad / math.pi

    # Right edge of the support: the law of log(n/sigma(n)) lives on
    # (-inf, 0], and its mass within eps of 0 shrinks only like 1/log(1/eps),
    # so the truncated integral at x0 = 0 converges far too slowly to use
    # (the quadrature kernel of width ~1/T straddles the edge).  The value
    # there is the total mass itself, which the profile carries exactly.
    raw[np.abs(points) <= 1e-12] = 1.0

    slack_exceeded = bool(np.any(raw < -DEFAULT_SLACK) or np.any(raw > 1.0 + DEFAULT_SLACK))
    clipped = np.clip(raw, 0.0, 1.0)
    iso = np.maximum.accumulate(clipped)
    isotonic_changed = bool(np.any(iso != clipped))
    return InvertedCdf(points, raw, iso, DEFAULT_SLACK, float(T), h,
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
