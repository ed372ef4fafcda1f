"""Analytic objects: local series, Euler products, diagnostics, witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddl
from ddl.analytic import (CUMULANT_BUDGET, NEAR_ORDER, NEAR_PHASE, WitnessNotFound,
                          _level_tables, _policy_tail, char_function, continuity_diagnostic,
                          greedy_witness, halasz_series, mean_value_product, mertens_kappa,
                          wirsing_prediction)
from ddl.multfunc import MultFunc, make
from ddl.sieve import PRIME_LIMIT, SEGMENT_SIZE, ResourceLimitError, prime_segments, primes_up_to

import oracles

MERTENS_CONST = 0.26149721284764278
ONE = make("one")


def local_series(f, P, t):
    """Per-prime (ps, twisted(p, t), plain(p), higher(p)) from the level tables
    of each segment of the prime stream, joined."""
    parts = []
    for ps, levels, plain in _level_tables(f, P):
        twisted = np.ones(ps.size, dtype=complex)
        higher = np.zeros(ps.size, dtype=complex)
        for j, (cnt, w, lr) in enumerate(levels, start=1):
            twisted[:cnt] += w * np.exp(1j * t * lr)
            if j >= 2:
                higher[:cnt] += w
        parts.append((ps, twisted, plain, higher))
    return tuple(np.concatenate(col) for col in zip(*parts))


def level_terms(f, P, p):
    """Number of series terms kept at the prime p <= P, from the table of the
    stream segment that holds p."""
    for ps, levels, _ in _level_tables(f, P):
        if ps.size and ps[-1] >= p:
            k = int(np.searchsorted(ps, p))
            assert ps[k] == p
            return sum(1 for cnt, _, _ in levels if cnt > k)
    raise AssertionError(f"{p} is not a prime <= {P}")


def test_series_cutoff_rule():
    # p stays at level j >= 3 while p^(j-2) <= 2^40, i.e. J(p) =
    # floor(40 / log2 p) + 2 terms, and no term with p^j > 1e17 is kept
    assert level_terms(ONE, 10 ** 6, 2) == 42
    assert level_terms(ONE, 10 ** 6, 3) == 27
    assert level_terms(ONE, 10 ** 6, 999_983) == 2   # the largest prime below 1e6; p^3 > 1e17


def test_level_logratio_near_one():
    # lr = log(p^j / sigma(p^j)) = -log1p(s) with s = (sigma(p^j) - p^j) / p^j, taken
    # as an exact rational; near p = 1e8 sigma(p^j)/p^j is within 1e-8 of 1, and
    # the log of that ratio rounded to a double would keep only eight digits.
    # The tables are read segment by segment; these are the three largest
    # primes below 1e3, 1e6 and 1e8.
    want = [983, 991, 997, 999_961, 999_979, 999_983, 99_999_959, 99_999_971, 99_999_989]
    checked = []
    for ps, levels, _ in _level_tables(ONE, 10 ** 8):
        for k in np.flatnonzero(np.isin(ps, want)).tolist():
            p = int(ps[k])
            for j, (cnt, _, lr) in enumerate(levels[:2], start=1):
                assert k < cnt
                s = Fraction(sum(p ** i for i in range(j)), p ** j)
                assert lr[k] == pytest.approx(-math.log1p(s), rel=1e-15, abs=0), (p, j)
            checked.append(p)
    assert checked == want


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
    ps, _, plain = next(_level_tables(make("phi_over_n"), 10 ** 4))  # P in the first segment
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
    # t = 40 moves max|t| from 3, so more primes enter exactly and more of
    # their levels are far from their limit phase
    ragged = np.concatenate([ts_uniform, [0.01, 0.3, 1.777, 2.9, 40.0]])
    prof_r = char_function(tau, ragged, 10 ** 4)
    assert np.allclose(prof_r.values[:ts_uniform.size], prof_u.values, atol=5e-12)
    # each near level's Taylor cut drops under one rounding of its weight
    assert NEAR_PHASE ** (NEAR_ORDER + 1) / math.factorial(NEAR_ORDER + 1) <= 2.0 ** -53
    one_each = [char_function(tau, [t], 10 ** 4).values[0] for t in ts_uniform]
    assert np.allclose(one_each, prof_u.values, atol=5e-12)


# phi_over_n_pow:re=-8,im=0 has the largest sum of log plain(p) in the catalog
@pytest.mark.parametrize("spec", ["one", "tau", "r", "phi_over_n_pow:re=-8,im=0"])
def test_char_function_matches_direct_product(spec):
    f = ddl.parse_spec(spec)
    # every level near its prime's limit phase: at max|t| = 0.3 the exact
    # primes are 2 and 3, and even p = 2, j = 1 moves by under NEAR_PHASE
    near = np.array([-0.3, -0.05, 0.0, 0.01, 0.05, 0.2, 0.3])
    assert 0.3 * -math.log1p(-1 / 4) <= NEAR_PHASE
    # the invert grid, checked at every 100th node
    grid = np.arange(4001) * 0.05
    # near and far levels mixed, up to |t| = 400
    mixed = np.array([-400.0, -37.5, -2.25, -0.3, 0.0, 0.05, 0.7, 3.1, 12.0,
                      55.5, 123.4, 250.0, 399.9, 400.0])
    for ts, P, check in ((near, 10 ** 5, slice(None)), (grid, 10 ** 4, slice(None, None, 100)),
                         (mixed, 10 ** 5, slice(None))):
        prof = char_function(f, ts, P)
        rem = (prof.tail_bounds - _policy_tail(f, ts, P))[check]  # the cumulant remainder
        assert np.all(rem >= 0) and np.all(rem <= CUMULANT_BUDGET)
        direct = oracles.char_function_direct(f, ts[check], P)
        assert np.all(np.abs(prof.values[check] - direct) <= rem + 1e-12)
    assert rem[-1] > 0  # stated at t = 400


def test_char_function_reads_the_stream_once(monkeypatch):
    calls = []

    def counting(limit):
        calls.append(limit)
        return prime_segments(limit)

    monkeypatch.setattr("ddl.analytic.prime_segments", counting)
    with oracles.segment_size(64):  # P = 1000 spans eight segments
        char_function(make("r"), [-2.5, 0.0, 40.0], 1000)
    assert calls == [1000]


def test_char_function_degenerate_cut_is_exact():
    # at t = 1e4 the cut lies above P = 1e4: every prime enters exactly and
    # the series adds no remainder
    ts = np.array([-1e4, -2.5, 0.0, 17.0, 1e4])
    for f in (ONE, make("r")):
        prof = char_function(f, ts, 10 ** 4)
        assert np.array_equal(prof.tail_bounds, _policy_tail(f, ts, 10 ** 4))
        direct = oracles.char_function_direct(f, ts, 10 ** 4)
        assert np.allclose(prof.values, direct, rtol=0, atol=1e-12)


def test_char_function_past_1e27():
    # at |t| >= 1e30 every prime enters exactly, and a high level whose B_j
    # rounds to 0 or below is near only if t |B_j| is small: the Taylor
    # series in t B_j never sees a large phase, and the product stays finite
    for f in (ONE, make("r"), make("tau")):
        for P in (1000, 10 ** 6):
            ts = np.array([1e30, -1e39, 1e100, 1e308])
            prof = char_function(f, ts, P)
            assert np.all(np.isfinite(prof.values)), (f.id, P, prof.values)
            assert np.all(np.abs(prof.values) <= 1.0 + 1e-12), (f.id, P, prof.values)


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
    # at beta = 0 the twist e^{-i 0 log p} is exactly 1: the untwisted sum, to the bit
    ps = primes_up_to(10 ** 5)  # one segment of the stream, so the same order of sums
    for spec in ("one", "mu", "quadratic_character:q=7", "lambda:a=1,q=2", "lambda:a=1,q=3"):
        f = ddl.parse_spec(spec)
        plain = f.at_primes(ps).astype(np.complex128).real
        assert halasz_series(f, 0.0, 10 ** 5) == float(np.sum((1.0 - plain) / ps)), spec


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
    assert greedy_witness(ONE, 0, 1) == []
    assert greedy_witness(ONE, Fraction(2, 5), Fraction(1, 2)) == [2, 3]
    assert Fraction(6, sigma_exact(6)) == Fraction(1, 2)
    assert greedy_witness(make("two_squares_indicator"), Fraction(2, 5),
                          Fraction(1, 2)) == [2, 5, 13, 17]
    assert Fraction(2, 5) < Fraction(2210, sigma_exact(2210)) <= Fraction(1, 2)


def test_greedy_witness_postcondition_exact():
    cases = [(Fraction(2, 5), Fraction(1, 2)), (Fraction(9, 20), Fraction(1, 2)),
             (Fraction(3, 10), Fraction(7, 20))]
    for f in (ONE, make("two_squares_indicator"), make("mu_squared")):
        for v, u in cases:
            m = math.prod(greedy_witness(f, v, u))
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


def test_greedy_witness_sign_only():
    # f(m) of tau and r is a power of 2 past the float range after about 1,000
    # primes; only its sign decides, so they walk the primes that one and
    # two_squares_indicator, with the same zeros, walk
    cases = [("tau", "one", Fraction(9, 100), Fraction(1, 10)),
             ("r", "two_squares_indicator", Fraction(28, 100), Fraction(29, 100))]
    for spec, same_zeros, v, u in cases:
        primes = greedy_witness(make(spec), v, u, p_cap=10 ** 6)
        assert len(primes) > 1000
        assert primes == greedy_witness(make(same_zeros), v, u, p_cap=10 ** 6)



# P at and around the ends of the prime stream's segments, 2 SEGMENT_SIZE
# integers each: k = 3 spans three segments, and 2 k SEGMENT_SIZE + 1 adds a
# last segment of one odd number, which holds no prime
STREAM_EDGES = [2 * k * SEGMENT_SIZE + d for k in (1, 3) for d in (-1, 0, 1)]


def check_streamed_ops(P):
    """Every streamed reduction at P against its whole-array oracle."""
    def close(got, want):
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    r, lam = make("r"), ddl.parse_spec("lambda:a=1,q=3")
    for f in (make("phi_over_n"), ddl.parse_spec("phi_over_n_pow:re=1,im=2")):
        close(mean_value_product(f, P).value, oracles.mean_whole(f, P))
    close(wirsing_prediction(r, 1e12, P), oracles.wirsing_whole(r, 1e12, P))
    close(continuity_diagnostic(r, P), oracles.jumps_whole(r, P))
    for got, want in zip(mertens_kappa(lam, P), oracles.kappa_whole(lam, P)):
        close(got, want)
    close(halasz_series(lam, 0.7, P), oracles.halasz_whole(lam, 0.7, P))
    ts = np.array([-2.5, 0.0, 40.0])
    prof = char_function(r, ts, P)
    rem = prof.tail_bounds - _policy_tail(r, ts, P)
    assert prof.values[1] == 1.0
    # the budget is shared by every prime <= P, not those of one segment
    assert np.all((rem >= 0) & (rem <= CUMULANT_BUDGET))
    direct = oracles.char_function_direct(r, ts, P)
    assert np.all(np.abs(prof.values - direct) <= rem + 1e-12)


@pytest.mark.parametrize("P", STREAM_EDGES)
def test_streamed_ops_at_segment_edges(P):
    check_streamed_ops(P)


@pytest.mark.parametrize("size", [3, 64, 1000])
def test_streamed_ops_small_segments(size):
    # up to 21 segments of 2 size integers, some without a prime; at sizes
    # 3 and 64 the exact primes up to P0 (about 264 for t = 40) span several
    with oracles.segment_size(size):
        for P in (11, 14 * size + 1, 40 * size + 1):
            check_streamed_ops(P)


def test_streamed_mean_zero_factor():
    # a zero local factor anywhere makes the product 0, in whichever
    # segment it lies: here plain(101) = 1 - 101/101 = 0
    def vector(ps, j):
        return np.where(ps == 101, -101.0 if j == 1 else 0.0, 1.0)

    f = MultFunc("zero_at_101", {}, vector, nonneg=False, unit_disc=False,
                 complex_valued=False, mean_value_ok=True, eta_coeff=2.0)
    for size in (3, SEGMENT_SIZE):
        with oracles.segment_size(size):
            assert mean_value_product(f, 10_007).value == 0j == oracles.mean_whole(f, 10_007)
            assert mean_value_product(f, 100).value != 0


def test_streamed_witness_equals_whole_array():
    # the witness takes the prime 2,669,257 > 2^21, from the stream's second segment
    f = make("two_squares_indicator")
    v, u = Fraction(3, 5) - Fraction(1, 10 ** 7), Fraction(3, 5)
    P = 4 * SEGMENT_SIZE + 1
    primes = greedy_witness(f, v, u, p_cap=P)
    assert math.prod(primes) == oracles.witness_whole(f, v, u, P)
    assert 2_669_257 in primes
    cases = [(Fraction(2, 5), Fraction(1, 2)), (Fraction(3, 10), Fraction(7, 20)),
             (Fraction(3, 5) - Fraction(1, 10 ** 5), Fraction(3, 5))]
    with oracles.segment_size(64):
        for f in (ONE, make("two_squares_indicator")):
            for v, u in cases:
                for p_cap in (127, 128, 129, 257, 30_011):
                    want = oracles.witness_whole(f, v, u, p_cap)
                    if want is None:
                        with pytest.raises(WitnessNotFound):
                            greedy_witness(f, v, u, p_cap=p_cap)
                    else:
                        assert math.prod(greedy_witness(f, v, u, p_cap=p_cap)) == want


def test_prime_cap_checked_before_sieving():
    # the witness lies at p = 3, but a p_cap over the limit is refused first
    with pytest.raises(ResourceLimitError, match="supported limit"):
        greedy_witness(ONE, 0, Fraction(1, 2), p_cap=PRIME_LIMIT + 1)
    # at the limit the walk sieves only the stream's first segment
    assert greedy_witness(ONE, 0, Fraction(1, 2), p_cap=PRIME_LIMIT) == [2, 3]
