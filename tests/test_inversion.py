"""Characteristic-function inversion: synthetic laws, round trips, distances."""

import math

import numpy as np
import pytest

import ddl
from ddl.analytic import CharFnProfile, char_function
from ddl.empirical import ThresholdGrid, estimate_weighted_cdf
from ddl.inversion import InversionError, invert, sup_distance
from ddl.multfunc import make

ONE = make("one")


def flat_profile(T=200.0, h=0.05, symmetric=False):
    ts = np.arange(0.0, T + h / 2, h)
    if symmetric:
        ts = np.concatenate([-ts[:0:-1], ts])
    vals = np.ones(ts.size, dtype=complex)
    return CharFnProfile(ts, vals, np.zeros(ts.size), 0)


def test_point_mass_inversion():
    inv = invert(flat_profile(), np.array([-0.1, 0.1]))
    assert inv.raw[0] == pytest.approx(0.0, abs=0.02)
    assert inv.raw[1] == pytest.approx(1.0, abs=0.02)


def test_gaussian_law_inversion():
    # X ~ Normal(-1, 0.3^2): psi(t) = exp(-i t - sigma^2 t^2 / 2)
    h, T = 0.05, 200.0
    ts = np.arange(0.0, T + h / 2, h)
    sig = 0.3
    vals = np.exp(-1j * ts - 0.5 * sig ** 2 * ts ** 2)
    prof = CharFnProfile(ts, vals, np.zeros(ts.size), 0)
    pts = np.array([-1.6, -1.0, -0.7, -0.4])
    inv = invert(prof, pts)
    expect = 0.5 * (1 + np.array([math.erf((p + 1) / (sig * math.sqrt(2))) for p in pts]))
    assert np.allclose(inv.raw, expect, atol=1e-3)


def test_symmetric_profile_real_output():
    # invert reads the profile on its own grid t_k = k*step only: a symmetric
    # grid and a grid at half the step's spacing are refused, not searched
    h, T = 0.05, 50.0
    f = make("tau")
    pts = np.array([-1.0, -0.5, -0.2])
    symmetric = char_function(f, np.arange(-T, T + h / 2, h), 10 ** 4)
    half_spacing = char_function(f, np.arange(0.0, T + h / 4, h / 2), 10 ** 4)
    for prof in (symmetric, half_spacing):
        with pytest.raises(InversionError):
            invert(prof, pts, T=T, step=h)
    one_sided = char_function(f, np.arange(0.0, T + h / 2, h), 10 ** 4)
    assert invert(one_sided, pts, T=T, step=h).raw.dtype == np.float64


def test_support_edge_value_is_total_mass():
    h, T = 0.05, 100.0
    prof = char_function(ONE, np.arange(0.0, T + h / 2, h), 10 ** 4)
    inv = invert(prof, np.array([-0.5, 0.0]), T=T, step=h)
    assert inv.raw[1] == 1.0
    assert np.all(np.diff(inv.values) >= 0)


def test_round_trip_light():
    h, T = 0.05, 200.0
    prof = char_function(ONE, np.arange(0.0, T + h / 2, h), 10 ** 5)
    est = estimate_weighted_cdf(ONE, 10 ** 6)
    logs, _ = est.log_cdf()
    inv = invert(prof, logs, T=T, step=h)
    rep = sup_distance(est, inv)
    assert rep.sup_distance < 0.05
    assert not inv.slack_exceeded


def test_quadrature_self_consistency():
    # doubling T and halving the step moves values by less than eps/2,
    # except within one kernel width 1/T of the support edge, where the law
    # piles up ~1/log(1/eps) of its mass and the resolution genuinely
    # improves with T (see notes in the inversion module docstring)
    pts = np.log(ThresholdGrid.default().floats[1:])
    base = invert(char_function(ONE, np.arange(0.0, 200.0001, 0.05), 10 ** 5),
                  pts, T=200.0, step=0.05)
    fine = invert(char_function(ONE, np.arange(0.0, 400.0001, 0.025), 10 ** 5),
                  pts, T=400.0, step=0.025)
    diff = np.abs(base.raw - fine.raw)
    interior = pts < -1.5 / 200.0
    assert np.max(diff[interior]) <= base.eps / 2
    # the single grid point at ~1/T from the edge is resolution-limited
    edge_zone = ~interior & (pts < -1e-12)
    assert np.all(diff[edge_zone] <= base.eps)


def test_monotonicity_violations_within_slack():
    for spec in ("one", "tau"):
        prof = char_function(make(spec), np.arange(0.0, 200.0001, 0.05), 10 ** 5)
        pts = np.log(ThresholdGrid.default().floats[1:])
        inv = invert(prof, pts)
        clipped = np.clip(inv.raw, 0.0, 1.0)
        violation = np.max(np.maximum.accumulate(clipped) - clipped)
        assert violation <= inv.eps


def test_sup_distance_properties():
    est6 = estimate_weighted_cdf(ONE, 10 ** 6)
    est7 = estimate_weighted_cdf(ONE, 10 ** 7)
    logs, vals7 = est7.log_cdf()
    # identical inputs: distance 0
    fake = ddl.InvertedCdf(logs, vals7, vals7, 0.02, 200.0, 0.05, False, False)
    assert sup_distance(est7, fake).sup_distance == 0.0
    # two sieve runs at different x: Cauchy-style stability
    _, vals6 = est6.log_cdf()
    fake6 = ddl.InvertedCdf(logs, vals6, vals6, 0.02, 200.0, 0.05, False, False)
    assert sup_distance(est7, fake6).sup_distance <= 0.005
    # point mass is far from the ratio law
    inv_pm = invert(flat_profile(), logs)
    assert sup_distance(est7, inv_pm).sup_distance >= 0.2


def test_sup_distance_skips_only_the_unresolved_edge_zone():
    # the inversion promises its slack at u = 1 and at |log u| >= 1.5/T only
    est = estimate_weighted_cdf(ONE, 10 ** 4)
    logs, vals = est.log_cdf()
    near_edge = (logs < 0) & (np.abs(logs) < 1.5 / 200.0)
    assert np.count_nonzero(near_edge) == 1  # log(199/200)
    wrong_near = np.where(near_edge, vals - 0.5, vals)
    fake = ddl.InvertedCdf(logs, wrong_near, wrong_near, 0.02, 200.0, 0.05, False, False)
    assert sup_distance(est, fake).sup_distance == 0.0
    wrong_at_one = np.where(logs == 0.0, vals - 0.5, vals)
    fake = ddl.InvertedCdf(logs, wrong_at_one, wrong_at_one, 0.02, 200.0, 0.05, False, False)
    rep = sup_distance(est, fake)
    assert rep.sup_distance == pytest.approx(0.5)
    assert rep.at_point == 0.0
    # a grid with no point where the slack is promised has no sup to report
    edge_only = estimate_weighted_cdf(ONE, 10 ** 4, ThresholdGrid([199], [200]))
    with pytest.raises(InversionError):
        sup_distance(edge_only, fake)


def test_profile_grid_validation():
    prof = char_function(ONE, np.arange(0.0, 10.0001, 0.05), 10 ** 3)
    with pytest.raises(InversionError):
        invert(prof, np.array([-0.5]), T=50.0, step=0.05)  # T beyond profile
    with pytest.raises(InversionError):
        invert(prof, np.array([-0.5]), T=10.0, step=0.013)  # step not on grid
    with pytest.raises(InversionError):
        invert(prof, np.array([-0.5, -0.6]), T=10.0, step=0.05)  # not ascending
    ragged = CharFnProfile(np.array([0.0, 0.1, 0.15, 0.4]), np.ones(4, complex),
                           np.zeros(4), 0)
    with pytest.raises(InversionError):
        invert(ragged, np.array([-0.5]), T=0.4, step=0.1)
    # nodes past floor(T/step)*step are not used: a profile that runs on to
    # 10.0 inverts at T = 9.7 exactly as the same profile cut at 9.7 does.
    # The cut keeps prof's own values: char_function called on the shorter
    # grid may round differently, as its cut P0 and its expansion of the
    # exact primes depend on max|t|
    k = int(np.searchsorted(prof.ts, 9.7001))
    cut = CharFnProfile(prof.ts[:k], prof.values[:k], prof.tail_bounds[:k], prof.P)
    pts = np.array([-0.5, -0.2])
    assert np.array_equal(invert(prof, pts, T=9.7, step=0.05).raw,
                          invert(cut, pts, T=9.7, step=0.05).raw)


def test_disjoint_supports_rejected():
    est = estimate_weighted_cdf(ONE, 10 ** 4)
    inv = ddl.InvertedCdf(np.array([5.0, 6.0]), np.array([0.5, 0.6]),
                          np.array([0.5, 0.6]), 0.02, 200.0, 0.05, False, False)
    with pytest.raises(InversionError):
        sup_distance(est, inv)
