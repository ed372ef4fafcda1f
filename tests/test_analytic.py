"""Analytic objects: local series, Euler products, diagnostics, witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddl
from ddl.analytic import (CUMULANT_BUDGET, WitnessNotFound, _level_tables, _policy_tail,
                          char_function, continuity_diagnostic, greedy_witness, halasz_series,
                          mean_value_product, mertens_kappa, wirsing_prediction)
from ddl.multfunc import make
from ddl.sieve import primes_up_to

import oracles

MERTENS_CONST = 0.26149721284764278
ONE = make("one")


def local_series(f, P, t):
    """Per-prime (ps, twisted(p, t), plain(p), higher(p)) from the level tables."""
    ps, levels, plain = _level_tables(f, P)
    twisted = np.ones(ps.size, dtype=complex)
    higher = np.zeros(ps.size, dtype=complex)
    for j, (cnt, w, lr) in enumerate(levels, start=1):
        twisted[:cnt] += w * np.exp(1j * t * lr)
        if j >= 2:
            higher[:cnt] += w
    return ps, twisted, plain, higher


def test_series_cutoff_rule():
    # p stays at level j >= 3 while p^(j-2) <= 2^40, i.e. J(p) =
    # floor(40 / log2 p) + 2 terms, and no term with p^j > 1e17 is kept
    ps, levels, _ = _level_tables(ONE, 10 ** 6)

    def terms(p):
        k = int(np.searchsorted(ps, p))
        return sum(1 for cnt, _, _ in levels if cnt > k)

    assert terms(2) == 42
    assert terms(3) == 27
    assert terms(999_983) == 2   # the largest prime below 1e6; p^3 > 1e17


def test_level_logratio_near_one():
    # lr = log(p^j / sigma(p^j)) = -log1p(s) with s = (sigma(p^j) - p^j) / p^j, taken
    # as an exact rational; near p = 1e8 sigma(p^j)/p^j is within 1e-8 of 1, and
    # the log of that ratio rounded to a double would keep only eight digits
    ps, levels, _ = _level_tables(ONE, 10 ** 8)
    for near in (10 ** 3, 10 ** 6, 10 ** 8):
        ks = int(np.searchsorted(ps, near, side="right")) - np.arange(1, 4)
        for j, (cnt, _, lr) in enumerate(levels[:2], start=1):
            for k in ks.tolist():
                p = int(ps[k])
                assert k < cnt
                s = Fraction(sum(p ** i for i in range(j)), p ** j)
                assert lr[k] == pytest.approx(-math.log1p(s), rel=1e-15, abs=0), (p, j)


def test_local_series_examples():
    ps, twisted, plain, higher = local_series(ONE, 10 ** 4, 0.0)
    assert np.array_equal(twisted, plain)  # t = 0
    # the truncated series stays within 1e-12 of 1/(1 - 1/p) at every p
    assert np.max(np.abs(plain - 1.0 / (1.0 - 1.0 / ps))) < 1e-12
    # eta for f = 1 is 1/(p(p-1))
    assert np.allclose(higher, 1.0 / (ps * (ps - 1.0)), rtol=0, atol=1e-12)
    _, twisted7, plain7, _ = local_series(ONE, 10 ** 4, 0.7)
    assert np.array_equal(plain7, plain)
    assert np.all(np.abs(twisted7) <= plain + 1e-12)
    assert np.all(local_series(make("mu_squared"), 10 ** 4, 0.0)[3] == 0)


def test_mean_value_products():
    assert mean_value_product(ONE, 10 ** 5).value.real == pytest.approx(1.0, abs=1e-12)

    got = mean_value_product(make("phi_over_n"), 10 ** 6)
    zeta2_inv = float(np.prod(1.0 - 1.0 / primes_up_to(10 ** 6).astype(float) ** 2))
    assert got.value.real == pytest.approx(zeta2_inv, abs=1e-10)
    assert got.value.real == pytest.approx(6 / math.pi ** 2, abs=1e-5)
    assert got.tail_bound < 1e-4

    sig = mean_value_product(make("sigma_over_n"), 10 ** 6)
    assert sig.value.real == pytest.approx(math.pi ** 2 / 6, abs=1e-5)

    # principal character mod q has mean phi(q)/q
    chi0 = mean_value_product(make("principal_character", q=6), 10 ** 5)
    assert chi0.value.real == pytest.approx(2 / 6, abs=1e-10)


def test_phi_factor_simplification_per_prime():
    # local factor (1 - 1/p) * plain(p) equals 1 - 1/p^2 for phi/n
    ps, _, plain = _level_tables(make("phi_over_n"), 10 ** 4)
    pf = ps.astype(float)
    assert np.allclose((1 - 1 / pf) * plain, 1 - 1 / pf ** 2, rtol=0, atol=1e-10)


def test_mean_value_rejects_bad_hypotheses():
    for spec in ("mu", "tau", "r", "two_squares_indicator",
                 "lambda:a=1,q=2", "quadratic_character:q=7"):
        with pytest.raises(ValueError):
            mean_value_product(ddl.parse_spec(spec), 1000)


def test_empirical_mean_cross_check():
    # analytic mean of phi/n vs a sieve pass at desk scale
    from ddl.empirical import ThresholdGrid, estimate_weighted_cdf
    est = estimate_weighted_cdf(make("phi_over_n"), 10 ** 6, ThresholdGrid.parse("half"))
    ana = mean_value_product(make("phi_over_n"), 10 ** 6)
    assert abs(oracles.value_at(est, 1).real - ana.value.real) < 1e-3


@pytest.mark.parametrize("spec,oracle", [
    ("one", lambda x: x),
    ("mu_squared", lambda x: oracles.squarefree_count(x)),
    ("tau", lambda x: sum(x // d for d in range(1, x + 1))),
])
def test_wirsing_prediction_small(spec, oracle):
    x = 10 ** 6
    f = ddl.parse_spec(spec)
    pred = wirsing_prediction(f, x)
    actual = oracle(x)
    assert abs(pred - actual) / actual < 0.05


def test_wirsing_requires_kappa():
    with pytest.raises(ValueError):
        wirsing_prediction(make("mu"), 10 ** 5)
    with pytest.raises(ValueError):
        wirsing_prediction(make("quadratic_character", q=7), 10 ** 5)


def test_char_function_basics():
    ts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    prof = char_function(ONE, ts, 10 ** 4)
    assert prof.values[2] == 1.0 + 0.0j  # exact at t = 0
    assert np.allclose(prof.values[0], np.conj(prof.values[4]), atol=1e-12)
    assert np.allclose(prof.values[1], np.conj(prof.values[3]), atol=1e-12)
    assert np.all(np.abs(prof.values) <= 1.0 + prof.tail_bounds)
    with pytest.raises(ValueError):
        char_function(make("mu"), ts, 100)


def test_char_function_uniform_recurrence_matches_direct():
    # a uniform t grid once had its own phase recurrence; now one evaluation
    # path serves every grid, so the same t gives the same value whatever
    # order, spacing or companions it comes with
    tau = make("tau")
    ts_uniform = np.arange(0.0, 3.0001, 0.25)
    prof_u = char_function(tau, ts_uniform, 10 ** 4)
    perm = np.array([3, 0, 7, 1, 12, 5, 2, 9, 4, 11, 6, 10, 8])
    prof_d = char_function(tau, ts_uniform[perm], 10 ** 4)
    assert np.allclose(prof_u.values[perm], prof_d.values, atol=5e-12)
    ragged = np.concatenate([ts_uniform, [0.01, 0.3, 1.777, 2.9]])
    prof_r = char_function(tau, ragged, 10 ** 4)
    assert np.allclose(prof_r.values[:ts_uniform.size], prof_u.values, atol=5e-12)
    one_each = [char_function(tau, [t], 10 ** 4).values[0] for t in ts_uniform]
    assert np.allclose(one_each, prof_u.values, atol=5e-12)


@pytest.mark.parametrize("spec", ["one", "tau", "r"])
def test_char_function_matches_direct_product(spec):
    f = make(spec)
    ts = np.array([-400.0, -37.5, -2.25, -0.3, 0.0, 0.05, 0.7, 3.1, 12.0,
                   55.5, 123.4, 250.0, 399.9, 400.0])
    prof = char_function(f, ts, 10 ** 5)
    rem = prof.tail_bounds - _policy_tail(f, ts, 10 ** 5)  # the cumulant remainder
    assert np.all(rem >= 0) and 0 < rem[-1] <= CUMULANT_BUDGET  # stated at t = 400
    direct = oracles.char_function_direct(f, ts, 10 ** 5)
    assert np.all(np.abs(prof.values - direct) <= rem + 1e-12)


def test_char_function_degenerate_cut_is_exact():
    # at t = 1e4 the cut lies above P = 1e4: every prime enters exactly and
    # the series adds no remainder
    ts = np.array([-1e4, -2.5, 0.0, 17.0, 1e4])
    for f in (ONE, make("r")):
        prof = char_function(f, ts, 10 ** 4)
        assert np.array_equal(prof.tail_bounds, _policy_tail(f, ts, 10 ** 4))
        direct = oracles.char_function_direct(f, ts, 10 ** 4)
        assert np.allclose(prof.values, direct, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(ts=st.lists(st.floats(0.0, 600.0), min_size=1, max_size=8),
       spec=st.sampled_from(["one", "tau", "r", "mu_squared", "sigma_over_n"]),
       P=st.sampled_from([100, 1000, 30000]))
def test_char_function_properties(ts, spec, P):
    f = make(spec)
    grid = np.concatenate([ts, [0.0], -np.array(ts)])
    prof = char_function(f, grid, P)
    n = len(ts)
    assert prof.values[n] == 1.0 + 0.0j  # exact at t = 0
    assert np.allclose(prof.values[n + 1:], np.conj(prof.values[:n]), rtol=0, atol=1e-12)
    assert np.all(np.abs(prof.values) <= 1.0 + prof.tail_bounds)
    policy = (2.0 * (1.0 + np.abs(grid)) + f.eta_coeff) / P
    assert np.all(prof.tail_bounds >= policy)


def test_char_function_truncation_self_consistency():
    ts = np.array([0.5, 1.0, 2.0, 5.0])
    lo = char_function(ONE, ts, 10 ** 5)
    hi = char_function(ONE, ts, 10 ** 6)
    assert np.all(np.abs(lo.values - hi.values) < lo.tail_bounds)


def test_mertens_kappa_small():
    w, rec = mertens_kappa(ONE, 10 ** 6)
    # Mertens: sum log p / p = log x - E + o(1), E ~ 1.332
    assert w == pytest.approx(1 - 1.332 / math.log(10 ** 6), abs=0.01)
    assert rec == pytest.approx(math.log(math.log(10 ** 6)) + MERTENS_CONST, abs=0.01)


def test_mertens_kappa_monotone_drift():
    vals = [mertens_kappa(make("tau"), x)[0] for x in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    vals1 = [mertens_kappa(ONE, x)[0] for x in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
    assert all(b > a for a, b in zip(vals1, vals1[1:]))


@pytest.mark.slow
def test_mertens_kappa_large_scale():
    w_tau, _ = mertens_kappa(make("tau"), 10 ** 8)
    assert w_tau == pytest.approx(1.86, abs=0.02)  # drifting toward kappa = 2
    w_r, _ = mertens_kappa(make("r"), 10 ** 8)
    assert abs(w_r - 1.0) < 0.15                   # kappa = 1
    w_s, _ = mertens_kappa(make("two_squares_indicator"), 10 ** 7)
    assert abs(w_s - 0.5) < 0.1                    # kappa = 1/2


def test_halasz_series():
    assert halasz_series(ONE, 0.0, 10 ** 5) == 0.0
    got = halasz_series(make("mu"), 0.0, 10 ** 5)
    model = 2 * (math.log(math.log(10 ** 5)) + MERTENS_CONST)
    assert got == pytest.approx(model, abs=0.02)
    assert got == pytest.approx(5.4098, abs=0.02)
    liou = halasz_series(make("lambda", a=1, q=2), 0.0, 10 ** 5)
    assert liou == got  # same prime values, identical sum
    with pytest.raises(ValueError):
        halasz_series(make("tau"), 0.0, 100)
    # beta twist changes the sum
    assert halasz_series(make("mu"), 1.0, 10 ** 4) != halasz_series(make("mu"), 0.0, 10 ** 4)


def test_continuity_diagnostic():
    assert continuity_diagnostic(ONE, 1) == 0.0
    got = continuity_diagnostic(ONE, 10 ** 5)
    # for f = 1 the largest jump is 1/plain = 1 - 1/p, so the sum is sum 1/p
    direct = float(np.sum(1.0 / primes_up_to(10 ** 5).astype(float)))
    assert got == pytest.approx(direct, abs=1e-6)
    mu2 = continuity_diagnostic(make("mu_squared"), 10 ** 5)
    ps = primes_up_to(10 ** 5).astype(float)
    direct2 = float(np.sum((1 / ps) / (1 + 1 / ps)))
    assert mu2 == pytest.approx(direct2, abs=1e-9)
    with pytest.raises(ValueError):
        continuity_diagnostic(make("mu"), 100)


def test_continuity_diagnostic_grows():
    a = continuity_diagnostic(make("tau"), 10 ** 4)
    b = continuity_diagnostic(make("tau"), 10 ** 5)
    c = continuity_diagnostic(make("tau"), 10 ** 6)
    assert a < b < c


def sigma_exact(m: int) -> int:
    return oracles.sigma_brute(m)


def test_greedy_witness_examples():
    assert greedy_witness(ONE, 0, 1) == 1
    m = greedy_witness(ONE, Fraction(2, 5), Fraction(1, 2))
    assert m == 6 and Fraction(6, sigma_exact(6)) == Fraction(1, 2)
    ms = greedy_witness(make("two_squares_indicator"), Fraction(2, 5), Fraction(1, 2))
    assert ms == 2210
    assert ms == 2 * 5 * 13 * 17
    assert Fraction(2, 5) < Fraction(ms, sigma_exact(ms)) <= Fraction(1, 2)


def test_greedy_witness_postcondition_exact():
    cases = [(Fraction(2, 5), Fraction(1, 2)), (Fraction(9, 20), Fraction(1, 2)),
             (Fraction(3, 10), Fraction(7, 20))]
    for f in (ONE, make("two_squares_indicator"), make("mu_squared")):
        for v, u in cases:
            m = greedy_witness(f, v, u)
            fac = oracles.factor_brute(m)
            assert all(j == 1 for _, j in fac)  # squarefree
            sig = 1
            for p, _ in fac:
                sig *= p + 1
            assert v < Fraction(m, sig) <= u
            assert complex(oracles.evaluate(f, m)).real > 0


def test_greedy_witness_budget_failure():
    with pytest.raises(WitnessNotFound):
        greedy_witness(ONE, Fraction(2, 5), Fraction(1, 2), p_cap=2)

