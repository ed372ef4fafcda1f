"""Empirical estimators against naive per-n oracles and known densities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddl
from ddl.cli import main as cli_main
from ddl.empirical import (GridError, ThresholdGrid, empirical_char_function,
                           equidist_tally, estimate_normalized_cdf,
                           estimate_weighted_cdf, lattice_circle_cdf,
                           partial_summation_check, smoothed_indicator_mean)
from ddl.multfunc import evaluate, make
from ddl.sieve import ResourceLimitError

import oracles

ONE = make("one")


def test_grid_construction_and_parsing():
    g = ThresholdGrid.default()
    assert len(g) == 201
    assert g.fractions[0] == 0 and g.fractions[-1] == 1
    assert Fraction(1, 2) in g.fractions
    assert np.all(np.diff(g.floats) > 0)
    # reduced fractions
    assert g.nums[g.index(Fraction(1, 2))] == 1
    h = ThresholdGrid.parse("half")
    assert h.fractions == (Fraction(1, 2), Fraction(1))
    c = ThresholdGrid.parse("0,3/10,1/2,7/10,1")
    assert len(c) == 5
    assert ThresholdGrid.parse("steps:4").fractions == (
        Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    with pytest.raises(GridError):
        ThresholdGrid([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(GridError):
        ThresholdGrid([Fraction(3, 2)])
    with pytest.raises(GridError):
        ThresholdGrid.parse("junk;;")
    with pytest.raises(GridError):
        ThresholdGrid([Fraction(1, 2_000_000)])


def test_estimate_trivia():
    est = estimate_weighted_cdf(ONE, 1000, ThresholdGrid.parse("half"))
    assert est.value_at(1) == 1.0
    assert est.raw_at(1) == 1000
    est2 = estimate_weighted_cdf(make("mu"), 10 ** 6, ThresholdGrid.parse("half"))
    assert est2.value_at(1).real == pytest.approx(212 / 10 ** 6, abs=1e-15)


def test_dtilde_normalization_exact():
    est = estimate_normalized_cdf(make("tau"), 10 ** 5)
    assert est.value_at(1) == 1.0 + 0.0j  # bitwise, same-pass normalizer
    assert est.normalizer == oracles.tau_partial_sum(10 ** 5)
    with pytest.raises(ValueError):
        estimate_normalized_cdf(make("mu"), 100)


def test_monotone_raw_for_nonnegative():
    for spec in ("one", "tau", "r"):
        est = estimate_weighted_cdf(make(spec), 20000)
        assert np.all(np.diff(est.raw.real) >= -1e-9)


BRUTE_SPECS = ["one", "tau", "mu", "mu_squared", "lfree:l=3", "phi_over_n",
               "sigma_over_n", "phi_over_n_pow:re=0.5,im=0.5",
               "sigma_over_n_pow:re=-0.5,im=1", "lambda:a=1,q=3",
               "r", "two_squares_indicator", "principal_character:q=6",
               "quadratic_character:q=7"]


@pytest.fixture(scope="module")
def brute_tables():
    N = 3000
    sig = oracles.sigma_table_brute(N)
    return N, sig


@pytest.mark.parametrize("spec", BRUTE_SPECS)
def test_estimate_matches_naive_loop(spec, brute_tables):
    N, sig = brute_tables
    f = ddl.parse_spec(spec)
    grid = ThresholdGrid.parse("0,1/4,2/5,1/2,3/5,9/10,1")
    est = estimate_weighted_cdf(f, N, grid, segment_size=1024)
    raw_brute = np.zeros(len(grid), dtype=complex)
    for n in range(1, N + 1):
        k = oracles.brute_first_qualifying(n, int(sig[n]), grid.fractions)
        if k < len(grid):
            raw_brute[k:] += complex(evaluate(f, n))
    assert np.allclose(est.raw, raw_brute, rtol=1e-12, atol=1e-9)


def test_exact_ties_are_inclusive(brute_tables):
    # perfect numbers sit exactly on u = 1/2 and must be counted
    est = estimate_weighted_cdf(ONE, 10 ** 4, ThresholdGrid.parse("1/2,1"))
    below = sum(1 for n in range(1, 10 ** 4 + 1)
                if 2 * n <= oracles.sigma_brute(n))
    assert est.raw_at(Fraction(1, 2)) == below
    # 6 and 28 and 496 and 8128 are the ties below 1e4
    strictly = sum(1 for n in range(1, 10 ** 4 + 1)
                   if 2 * n < oracles.sigma_brute(n))
    assert below - strictly == 4


def test_lattice_trivial_and_brute():
    est = lattice_circle_cdf(1, ThresholdGrid.parse("half"))
    assert est.raw_at(1) == 4
    assert est.value_at(1).real == pytest.approx(4 / math.pi, rel=1e-12)

    R = 2000
    grid = ThresholdGrid.parse("0,2/5,1/2,3/5,1")
    est = lattice_circle_cdf(R, grid)
    sig = oracles.sigma_table_brute(R)
    raw = np.zeros(len(grid), dtype=np.int64)
    for x in range(-50, 51):
        for y in range(-50, 51):
            n = x * x + y * y
            if 0 < n <= R:
                k = oracles.brute_first_qualifying(n, int(sig[n]), grid.fractions)
                if k < len(grid):
                    raw[k:] += 1
    assert np.array_equal(est.raw_counts(), raw)


def test_lattice_matches_r_weighted_sieve():
    R = 10 ** 4
    grid = ThresholdGrid.default()
    lat = lattice_circle_cdf(R, grid)
    rsieve = estimate_weighted_cdf(make("r"), R, grid)
    assert np.array_equal(lat.raw_counts(), 4 * rsieve.raw_counts())


def test_smoothed_bracketed_by_sharp():
    grid = ThresholdGrid.parse("1/2,13/25,1")
    est = estimate_weighted_cdf(ONE, 10 ** 5, grid)
    mid = smoothed_indicator_mean(ONE, 10 ** 5, Fraction(1, 2), 50)
    lo = est.value_at(Fraction(1, 2)).real
    hi = est.value_at(Fraction(13, 25)).real  # 1/2 + 1/50
    assert lo - 1e-12 <= mid.real <= hi + 1e-12
    assert abs(mid.imag) == 0
    with pytest.raises(ValueError):
        smoothed_indicator_mean(ONE, 100, Fraction(99, 100), 50)


def test_smoothed_matches_brute(brute_tables):
    N, sig = brute_tables
    f = make("tau")
    got = smoothed_indicator_mean(f, N, Fraction(2, 5), 10, segment_size=512)
    acc = 0.0
    for n in range(1, N + 1):
        rho = n / sig[n]
        w = min(1.0, max(0.0, 1.0 - 10 * (rho - 0.4)))
        acc += oracles.tau_brute(n) * w
    assert got.real == pytest.approx(acc / N, rel=1e-12)


def test_equidist_modes(brute_tables):
    N, sig = brute_tables
    u = Fraction(1, 2)
    t_omega = equidist_tally("omega", 3, u, N, segment_size=1024)
    counts = [0, 0, 0]
    for n in range(1, N + 1):
        if oracles.qualifies(n, int(sig[n]), u):
            counts[oracles.omega_big_brute(n) % 3] += 1
    assert list(t_omega.counts) == counts
    assert t_omega.qualifying_total == sum(counts)

    t_cop = equidist_tally("coprime", 6, u, N, segment_size=1024)
    assert t_cop.labels == (1, 5)
    brute = {1: 0, 5: 0}
    for n in range(1, N + 1):
        if math.gcd(n, 6) == 1 and oracles.qualifies(n, int(sig[n]), u):
            brute[n % 6] += 1
    assert list(t_cop.counts) == [brute[1], brute[5]]


def test_equidist_trivial_class():
    u = Fraction(1, 2)
    t = equidist_tally("omega", 1, u, 10 ** 5)
    est = estimate_weighted_cdf(ONE, 10 ** 5, ThresholdGrid.parse("1/2,1"))
    assert t.counts[0] == est.raw_at(u)


def test_partial_summation_pair(brute_tables):
    lhs, rhs = partial_summation_check(ONE, 1000, Fraction(1))
    assert lhs.real == pytest.approx(2 / 1000 ** 2 * (1000 * 1001 / 2), rel=1e-12)
    assert rhs == 1.0

    N, sig = brute_tables
    f = make("mu")
    lhs, rhs = partial_summation_check(f, N, Fraction(1, 2), segment_size=777)
    l_brute = sum(n * oracles.mu_brute(n) for n in range(1, N + 1)
                  if oracles.qualifies(n, int(sig[n]), Fraction(1, 2)))
    r_brute = sum(oracles.mu_brute(n) for n in range(1, N + 1)
                  if oracles.qualifies(n, int(sig[n]), Fraction(1, 2)))
    assert lhs.real == pytest.approx(2 * l_brute / N ** 2, rel=1e-12)
    assert rhs.real == pytest.approx(r_brute / N, rel=1e-12)


def test_squarefree_density_via_psum():
    x = 10 ** 6
    lhs, rhs = partial_summation_check(make("mu_squared"), x, Fraction(1))
    assert rhs.real == pytest.approx(oracles.squarefree_count(x) / x, rel=1e-12)
    assert lhs.real == pytest.approx(6 / math.pi ** 2, abs=2e-3)


def test_char_function_small_x(brute_tables):
    N, sig = brute_tables
    ts = np.array([0.0, 0.7, 2.0])
    got = empirical_char_function(ONE, N, ts, segment_size=512)
    assert got[0] == pytest.approx(1.0, abs=1e-14)
    brute = np.zeros(3, dtype=complex)
    for n in range(1, N + 1):
        L = math.log(n / sig[n])
        for k, t in enumerate(ts):
            brute[k] += complex(math.cos(t * L), math.sin(t * L))
    assert np.allclose(got, brute / N, atol=1e-10)


def test_estimate_segment_and_worker_invariance():
    grid = ThresholdGrid.default()
    a = estimate_weighted_cdf(make("tau"), 50000, grid, segment_size=997)
    b = estimate_weighted_cdf(make("tau"), 50000, grid, segment_size=16384, workers=3)
    assert np.array_equal(a.raw, b.raw)


PROPERTY_X = 3000
PROPERTY_SIGMA = oracles.sigma_table_brute(PROPERTY_X)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(x=st.integers(1, PROPERTY_X),
       thresholds=st.sets(st.fractions(0, 1, max_denominator=60), min_size=1, max_size=12),
       segment_size=st.integers(16, 2 * PROPERTY_X),
       workers=st.sampled_from([1, 2]),
       cached=st.booleans())
def test_raw_counts_independent_of_scan_layout(tmp_path_factory, x, thresholds,
                                               segment_size, workers, cached):
    # output must not depend on segment size, worker count or cache state
    grid = ThresholdGrid(sorted(thresholds))
    cache_dir = None
    if cached:
        cache_dir = tmp_path_factory.mktemp("sigma_cache")
        assert cli_main(["sieve-cache", "--x", str(x), "--segment-size", str(segment_size),
                         "--dir", str(cache_dir),
                         "--out", str(cache_dir / "written.json")]) == 0
    est = estimate_weighted_cdf(ONE, x, grid, segment_size=segment_size,
                                workers=workers, cache_dir=cache_dir)
    first = [oracles.brute_first_qualifying(n, int(PROPERTY_SIGMA[n]), grid.fractions)
             for n in range(1, x + 1)]
    expected = np.cumsum(np.bincount(first, minlength=len(grid) + 1))[:len(grid)]
    assert est.raw_counts().tolist() == expected.tolist()


def test_resource_refusals():
    with pytest.raises(ResourceLimitError):
        lattice_circle_cdf(10 ** 9)  # sigma table would not fit the budget
    with pytest.raises(ResourceLimitError):
        estimate_weighted_cdf(ONE, 4_000_000_001, ThresholdGrid.parse("half"))


@pytest.mark.slow
def test_lattice_gauss_circle_normalization():
    est = lattice_circle_cdf(10 ** 7, ThresholdGrid.parse("half"))
    assert est.value_at(1).real == pytest.approx(1.0, abs=1e-3)


@pytest.mark.slow
def test_equidist_liouville_balance():
    # Omega parity classes at u = 1 are each within 0.005 of 1/2 (the
    # imbalance is the Liouville mean, which is tiny at 1e7)
    t = equidist_tally("omega", 2, Fraction(1), 10 ** 7)
    assert np.all(np.abs(t.densities - 0.5) <= 0.005)
    liouville_mean = (t.counts[0] - t.counts[1]) / 10 ** 7
    assert abs(liouville_mean) < 1e-3


@pytest.mark.slow
def test_partial_summation_at_scale():
    lhs, rhs = partial_summation_check(ONE, 10 ** 8, Fraction(1, 2))
    assert abs(lhs.real - rhs.real) < 0.002
    assert rhs.real == pytest.approx(0.2476, abs=2e-3)
