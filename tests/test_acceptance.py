"""Acceptance suite: the full cross-validation battery at desk scale.

Each test prints one [PASS]/[FAIL] line per checked claim (run with -s to see
them all).  Tolerances are pinned here and never loosened at runtime; the
expensive sieve passes are shared through module-scoped fixtures.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import ddl
from ddl.analytic import (char_function, continuity_diagnostic, greedy_witness,
                          mean_value_product, wirsing_prediction)
from ddl.empirical import (ThresholdGrid, equidist_tally, estimate_normalized_cdf,
                           estimate_weighted_cdf, lattice_circle_cdf,
                           partial_summation_check, smoothed_indicator_mean)
from ddl.inversion import invert, sup_distance
from ddl.multfunc import make, parse_spec, restrict_coprime

import oracles

ONE = make("one")
X7 = 10 ** 7
X8 = 10 ** 8
HALF = Fraction(1, 2)


def report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name} :: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def est_one_x8():
    return estimate_weighted_cdf(ONE, X8)


@pytest.fixture(scope="module")
def est_one_x7():
    return estimate_weighted_cdf(ONE, X7)


@pytest.fixture(scope="module")
def profile_x6():
    ts = np.arange(0.0, 200.0 + 0.025, 0.05)
    return char_function(ONE, ts, 10 ** 6)


@pytest.fixture(scope="module")
def est_r_x7():
    return estimate_normalized_cdf(make("r"), X7)


# ---------------------------------------------------------------------------
# 1. abundant-density anchor
# ---------------------------------------------------------------------------

def test_01_abundant_density_anchor(est_one_x8):
    v = oracles.value_at(est_one_x8, HALF).real
    report("01 abundant-density-anchor", 0.2461 <= v <= 0.2491,
           f"D_1e8(1/2) = {v:.6f}, window [0.2461, 0.2491]")


# ---------------------------------------------------------------------------
# 2. mean-value consistency
# ---------------------------------------------------------------------------

def test_02_mean_value_consistency():
    # oracle for the constants: zeta(2)^{-1} partial products over p <= 1e6
    ps = ddl.primes_up_to(10 ** 6).astype(np.float64)
    zeta2_inv = float(np.prod(1.0 - ps ** -2.0))
    assert abs(zeta2_inv - 0.607927) < 5e-6

    for spec, target in (("phi_over_n", 0.607927), ("sigma_over_n", 1.644934)):
        f = parse_spec(spec)
        ana = mean_value_product(f, 10 ** 6).value.real
        emp = oracles.value_at(estimate_weighted_cdf(f, X7, ThresholdGrid.parse("half")), 1).real
        ok = abs(ana - emp) < 1e-3 and abs(ana - target) < 1e-3 and abs(emp - target) < 1e-3
        report(f"02 mean-value-{spec}", ok,
               f"product {ana:.6f}, sieve {emp:.6f}, target {target}")


# ---------------------------------------------------------------------------
# 3. vanishing for mean-zero unimodular entries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["mu", "lambda:a=1,q=2", "lambda:a=1,q=3"])
def test_03_vanishing_distributions(spec):
    # The claim is D(u) = lim D_x(u) = 0.  Each entry has f(p) = z for every
    # prime, so by Selberg-Delange (1/x) sum_{n<=x} f(n) ~ G(z)/Gamma(z)
    # (log x)^{z-1}.  For mu and lambda_2, z = -1 and 1/Gamma(z) = 0: the
    # sums decay faster than any power of log x and D_1e7 itself is checked.
    # For lambda_3, z = e^{2 pi i/3} and the decay is only (log x)^{-3/2}:
    # the prediction |G/Gamma| (log 1e7)^{-3/2} = 0.0264 matches the sieve's
    # max |D_1e7| = 0.0266, and D_x <= 0.01 would need x ~ 3e13.  There the
    # bound applies to the limit extrapolated along the proven rate,
    #     L(u) = (D_x2(u) - rho D_x1(u)) / (1 - rho),
    #     rho = (log x2 / log x1)^{z-1},  x1 = 1e6,  x2 = 1e7,
    # which reproduces any x-independent limit exactly, so a true nonzero
    # limit still fails.  The next-order O(1/log x) term is what is left in
    # L: max |L| measures 0.0175 at (1e5, 1e6), 0.0077 here, 0.0070 at
    # (3e6, 3e7) and 0.0063 at (1e7, 1e8).
    grid = ThresholdGrid.parse("3/10,1/2,7/10,1")
    f = parse_spec(spec)
    d7 = estimate_weighted_cdf(f, X7, grid).values
    worst = float(np.max(np.abs(d7)))
    detail = f"max |D_1e7(u)| over u in (0.3, 0.5, 0.7, 1) = {worst:.2e}"
    z = complex(f.prime_power(2, 1))
    if not (z.imag == 0 and z.real <= 0 and z.real.is_integer()):  # 1/Gamma(z) != 0
        x1 = 10 ** 6
        d6 = estimate_weighted_cdf(f, x1, grid).values
        rho = (math.log(X7) / math.log(x1)) ** (z - 1)
        worst = float(np.max(np.abs((d7 - rho * d6) / (1 - rho))))
        detail += f"; extrapolated limit max |L(u)| = {worst:.2e} from x = 1e6, 1e7"
    report(f"03 vanishing-{spec}", worst <= 0.01, detail)


# ---------------------------------------------------------------------------
# 4. equidistribution of Omega mod 3
# ---------------------------------------------------------------------------

def test_04_omega_equidistribution(est_one_x7):
    tally = equidist_tally("omega", 3, HALF, X7)
    half_count = int(oracles.raw_at(est_one_x7, HALF).real)
    partition_ok = int(tally.counts.sum()) == half_count == tally.qualifying_total
    target = oracles.value_at(est_one_x7, HALF).real / 3
    dev = float(np.max(np.abs(oracles.densities(tally) - target)))
    report("04 omega-equidistribution", partition_ok and dev <= 0.01,
           f"class sums {int(tally.counts.sum())} vs count {half_count}, "
           f"max class deviation {dev:.2e} (tolerance 0.01)")


# ---------------------------------------------------------------------------
# 5. two-squares lattice identity and normalization
# ---------------------------------------------------------------------------

def test_05_lattice_identity_and_pi_over_4(est_r_x7):
    grid = ThresholdGrid.default()
    lat = lattice_circle_cdf(10 ** 6, grid)
    rsv = estimate_weighted_cdf(make("r"), 10 ** 6, grid)
    identical = np.array_equal(oracles.raw_counts(lat), 4 * oracles.raw_counts(rsv))
    report("05 lattice-vs-sieve-identity", identical,
           "lattice counts equal 4 x r-weighted counts at every default-grid u, R = 1e6")

    ratio = est_r_x7.normalizer / X7
    report("05 two-squares-normalization", abs(ratio - math.pi / 4) <= 1e-3,
           f"S(r;1e7)/1e7 = {ratio:.6f} vs pi/4 = {math.pi / 4:.6f}")


# ---------------------------------------------------------------------------
# 6. Wirsing-type predictions
# ---------------------------------------------------------------------------

def test_06_wirsing_sanity():
    d = np.arange(1, X7 + 1, dtype=np.int64)
    oracle = {
        "one": float(X7),
        "mu_squared": float(oracles.squarefree_count(X7)),
        "tau": float(np.sum(X7 // d)),
    }
    for spec, actual in oracle.items():
        pred = wirsing_prediction(parse_spec(spec), X7)
        rel = abs(pred - actual) / actual
        report(f"06 wirsing-{spec}", rel < 0.05,
               f"prediction {pred:.4g} vs exact {actual:.4g} (rel {rel:.3f})")


# ---------------------------------------------------------------------------
# 7. characteristic-function match
# ---------------------------------------------------------------------------

def test_07_char_function_match():
    ts = np.array([0.5, 1.0, 2.0, 5.0])
    prof = char_function(ONE, ts, 10 ** 6)
    emp = oracles.empirical_char_function(ONE, X7, ts)
    worst = float(np.max(np.abs(prof.values - emp)))
    report("07 char-function-match", worst <= 0.01,
           f"max |psi - phi_x| over t in (0.5, 1, 2, 5) = {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. inversion round trip
# ---------------------------------------------------------------------------

def test_08_inversion_round_trip_sup(est_one_x7, profile_x6):
    # sup_distance takes the sup where the inversion promises its 0.02 slack:
    # u = 1, where it returns the total mass, and |log u| >= 1.5/T (see the
    # inversion module docstring).  Nearer the support edge the law keeps
    # ~1/log(1/eps) of its mass within eps of 0, which a kernel of width 1/T
    # cannot resolve: the default grid's point log(199/200) = -1.0025/T is
    # off by 0.0209 at T = 200, but the sup over all points falls to 0.0141
    # at T = 400, so the excess there is resolution, not bias.  That point
    # stays covered by test_inversion.test_quadrature_self_consistency.
    logs, _ = est_one_x7.log_cdf()
    inv = invert(profile_x6, logs, T=200.0, step=0.05)
    rep = sup_distance(est_one_x7, inv)
    report("08 inversion-sup-distance", rep.sup_distance <= 0.02,
           f"sup |F_inv - F_emp| over u = 1 and |log u| >= 1.5/T = {rep.sup_distance:.4f} "
           f"at log u = {rep.at_point:.4f} (tolerance 0.02)")


def test_08_inversion_half_point(est_one_x8, profile_x6):
    pts = np.array([math.log(0.5)])
    inv = invert(profile_x6, pts, T=200.0, step=0.05)
    anchor = oracles.value_at(est_one_x8, HALF).real
    diff = abs(float(inv.values[0]) - anchor)
    report("08 inversion-half-point", diff <= 0.01,
           f"inverted F(log 1/2) = {float(inv.values[0]):.6f} vs anchor {anchor:.6f} "
           f"(diff {diff:.4f}, tolerance 0.01)")


# ---------------------------------------------------------------------------
# 9. monotonicity and continuity evidence
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def est_tau_x7():
    return estimate_normalized_cdf(make("tau"), X7)


@pytest.mark.parametrize("spec", ["tau", "r"])
def test_09_dtilde_monotone(spec, est_tau_x7, est_r_x7):
    est = est_tau_x7 if spec == "tau" else est_r_x7
    vals = est.values.real
    monotone = bool(np.all(np.diff(vals) >= 0))
    half = oracles.value_at(est, HALF).real
    interior = 0 < half < 1 and half >= oracles.value_at(est, Fraction(2, 5)).real
    report(f"09 dtilde-monotone-{spec}", monotone and interior,
           f"values nondecreasing across the default grid, Dt(1/2) = {half:.4f}")


# Poles of the r-weighted law on the default grid.  D~ is continuous but
# log-steep just below each ratio a/sigma(a): n = a m lands in the 1/200
# interval holding a/sigma(a) once m/sigma(m) is close enough to 1, and that
# forces m to be y-rough (no prime factor <= y), because p | m gives
# m/sigma(m) <= p/(p+1).  Since r(a m) = r(a) r(m), the r-weighted share of
# this rough class up to x is r(a) sum_{m <= x/a, m y-rough} r(m) / S(r;x),
# and it tends to (r(a)/a) prod_{p<=y} 1/plain(p):
#   a = 1: (199/200, 1],        y = 199, limit 0.1310 (jump 0.1313 at 1e7)
#   a = 2: (133/200, 134/200],  y = 399, limit 0.0588 (jump 0.0596 at 1e7)
# So a jump <= 0.05 there is false of the limit law itself, and refining the
# grid does not help at this x: the edge jump stops falling at 0.0845 from
# step 1/1600 on.  The rough class holds every n of the interval at a = 1,
# and every even n of it at a = 2 (4 | n cannot reach it).  Its part of the
# jump is bounded by its exact finite-x share, one-sided and true at every
# x: the share also holds rough n whose ratio falls below the interval
# (211 * 223 has ratio 0.9908).  The share must match its Euler product
# within 0.005, the finite-x precedent of
# test_inversion.test_sup_distance_properties.  The rest of the interval,
# the n coprime to every prime <= a, keeps the 0.05 bound, as does every
# other interval.  r(3) = 0, so 3/4 is no pole.  The interval
# (166/200, 167/200] holding 5/6 (a = 5, y = 249) has class limit 0.0511,
# but at x = 1e7 its jump is 0.0495, so it keeps the plain 0.05 bound; it
# joins R_POLES once a run at larger x exceeds that.  The edge limit does
# fall below 0.05 as the grid refines, but slowly: prod_{p<=y} 1/plain(p)
# is 0.0444 at y = 1e7.
R_POLES = (1, 2)


def _r_pole(a: int, steps: int = 200):
    """(k, y): the grid interval (k/steps, (k+1)/steps] holding a/sigma(a),
    and the y such that m/sigma(m) > (k/steps) sigma(a)/a forces m to have
    no prime factor <= y."""
    ratio = Fraction(a, oracles.sigma_brute(a))
    k = math.ceil(ratio * steps) - 1
    t = Fraction(k, steps) / ratio
    return k, math.floor(t / (1 - t))


@pytest.mark.parametrize("spec", ["tau", "r"])
def test_09_dtilde_max_jump(spec, est_tau_x7, est_r_x7):
    est = est_tau_x7 if spec == "tau" else est_r_x7
    jumps = np.diff(est.values.real)
    poles = []
    if spec == "r":
        r = make("r")
        fr = oracles.grid_fractions(est.grid)
        S = est.normalizer
        for a in R_POLES:
            k, y = _r_pole(a)
            poles.append(k)
            r_a = int(oracles.evaluate(r, a))
            rough = estimate_weighted_cdf(restrict_coprime(r, y), X7 // a,
                                          ThresholdGrid([1], [1])).raw[0].real
            share = r_a * rough / S
            limit = r_a / a * oracles.r_rough_euler_product(y)
            rest = 0.0
            if a > 1:
                inner = estimate_weighted_cdf(restrict_coprime(r, a), X7,
                                              oracles.grid_of(fr[k:k + 2]))
                rest = float((inner.raw[1] - inner.raw[0]).real) / S
            rough_part = jumps[k] - rest
            ok = rough_part <= share and rest <= 0.05 and abs(share - limit) <= 0.005
            report(f"09 dtilde-pole-{spec}-{a}/{oracles.sigma_brute(a)}", ok,
                   f"jump on ({fr[k]}, {fr[k + 1]}] = {jumps[k]:.4f}: "
                   f"rough part {rough_part:.4f} <= {y}-rough share {share:.4f} "
                   f"(Euler product {limit:.4f}, tolerance 0.005), rest {rest:.4f} "
                   "(tolerance 0.05)")
    max_jump = float(np.max(np.delete(jumps, poles)))
    report(f"09 dtilde-max-jump-{spec}", max_jump <= 0.05,
           f"max adjacent jump {max_jump:.4f} off the poles (tolerance 0.05)")


@pytest.mark.parametrize("spec", ["tau", "r"])
def test_09_continuity_growth(spec):
    f = parse_spec(spec)
    growth = continuity_diagnostic(f, 10 ** 6) - continuity_diagnostic(f, 10 ** 4)
    report(f"09 continuity-growth-{spec}", growth >= 0.15,
           f"jump-sum grows by {growth:.3f} from P=1e4 to 1e6 (needs >= 0.15)")


# ---------------------------------------------------------------------------
# 10. greedy witnesses
# ---------------------------------------------------------------------------

def _sigma_squarefree_independent(m: int) -> int:
    """Independent sigma for the witness: full divisor enumeration when
    feasible, otherwise sympy's divisor_sigma (its own factorization path)."""
    if m <= 10 ** 6:
        return oracles.sigma_brute(m)
    import sympy
    return int(sympy.divisor_sigma(m))


def test_10_greedy_witnesses():
    intervals = [(Fraction(2, 5), Fraction(1, 2)),
                 (Fraction(9, 20), Fraction(1, 2)),
                 (Fraction(3, 10), Fraction(7, 20))]
    for spec in ("one", "two_squares_indicator"):
        f = parse_spec(spec)
        for v, u in intervals:
            m = greedy_witness(f, v, u)
            sig = _sigma_squarefree_independent(m)
            ratio = Fraction(m, sig)
            ok = v < ratio <= u
            if m <= 10 ** 6:
                ok = ok and complex(oracles.evaluate(f, m)).real > 0
            report(f"10 witness-{spec}-({v},{u}]", ok,
                   f"m = {m if m < 10**18 else str(m)[:12] + '...'} with m/sigma(m) = "
                   f"{float(ratio):.6f} in ({float(v)}, {float(u)}]")


# ---------------------------------------------------------------------------
# 11. brute-force equivalence of every empirical operation at x = 1e4
# ---------------------------------------------------------------------------

BRUTE_X = 10 ** 4
ALL_CATALOG = ["one", "tau", "mu", "mu_squared", "lfree:l=3", "phi_over_n",
               "sigma_over_n", "phi_over_n_pow:re=0.5,im=0.5",
               "sigma_over_n_pow:re=-1,im=0.5", "lambda:a=1,q=2",
               "lambda:a=2,q=5", "r", "two_squares_indicator",
               "principal_character:q=6", "quadratic_character:q=7"]

INTEGER_VALUED = {"one", "tau", "mu", "mu_squared", "lfree:l=3", "lambda:a=1,q=2",
                  "r", "two_squares_indicator", "principal_character:q=6",
                  "quadratic_character:q=7"}


@pytest.fixture(scope="module")
def brute_setup():
    sig = oracles.sigma_table_brute(BRUTE_X)
    grid = ThresholdGrid.default()
    # first qualifying grid index per n is weight-independent
    jmin = np.empty(BRUTE_X + 1, dtype=np.int64)
    nums, dens = grid.nums.tolist(), grid.dens.tolist()
    for n in range(1, BRUTE_X + 1):
        lo, hi = 0, len(nums)
        s = int(sig[n])
        while lo < hi:
            mid = (lo + hi) // 2
            if n * dens[mid] <= nums[mid] * s:
                hi = mid
            else:
                lo = mid + 1
        jmin[n] = lo
    return sig, grid, jmin


@pytest.mark.parametrize("spec", ALL_CATALOG)
def test_11_brute_force_equivalence(spec, brute_setup):
    sig, grid, jmin = brute_setup
    f = parse_spec(spec)
    m = len(grid)
    fv = np.array([complex(oracles.evaluate(f, n)) for n in range(1, BRUTE_X + 1)])
    hist = np.zeros(m + 1, dtype=complex)
    np.add.at(hist, jmin[1:], fv)
    raw_brute = np.cumsum(hist[:m])

    with oracles.segment_size(2048):
        est = estimate_weighted_cdf(f, BRUTE_X, grid)
    if spec.split(":")[0] in {s.split(":")[0] for s in INTEGER_VALUED} and spec in INTEGER_VALUED:
        ok = np.array_equal(np.rint(est.raw.real).astype(np.int64),
                            np.rint(raw_brute.real).astype(np.int64)) and \
             np.allclose(est.raw, raw_brute, atol=1e-7)
    else:
        scale = max(1.0, float(np.max(np.abs(raw_brute))))
        ok = bool(np.max(np.abs(est.raw - raw_brute)) <= 1e-12 * scale * 10)
    report(f"11 brute-estimate-{spec}", bool(ok),
           f"default-grid raw sums match the naive loop at x = {BRUTE_X}")


def test_11_brute_force_other_ops(brute_setup):
    sig, grid, jmin = brute_setup
    u = HALF
    qual = np.array([oracles.qualifies(n, int(sig[n]), u)
                     for n in range(1, BRUTE_X + 1)])
    ns = np.arange(1, BRUTE_X + 1)

    # equidistribution tallies
    om = np.array([oracles.omega_big_brute(int(n)) for n in ns])
    t3 = equidist_tally("omega", 3, u, BRUTE_X)
    counts = [int(np.sum(qual & (om % 3 == c))) for c in range(3)]
    ok_om = list(t3.counts) == counts
    t6 = equidist_tally("coprime", 6, u, BRUTE_X)
    cop = [int(np.sum(qual & (ns % 6 == c))) for c in (1, 5)]
    ok_cop = list(t6.counts) == cop
    report("11 brute-equidist", ok_om and ok_cop,
           "omega mod 3 and coprime mod 6 tallies match the naive loop")

    # partial summation pair
    lhs, rhs = partial_summation_check(ONE, BRUTE_X, u)
    lhs_b = 2.0 * float(np.sum(ns[qual])) / BRUTE_X ** 2
    rhs_b = float(np.count_nonzero(qual)) / BRUTE_X
    ok_ps = abs(lhs.real - lhs_b) < 1e-12 and abs(rhs.real - rhs_b) < 1e-15
    report("11 brute-psum", ok_ps, "n-weighted and plain halves match the naive loop")

    # smoothed mean
    got = smoothed_indicator_mean(make("tau"), BRUTE_X, Fraction(2, 5), 10)
    tau_vals = np.array([oracles.tau_brute(int(n)) for n in ns], dtype=float)
    w = np.clip(1.0 - 10 * (ns / sig[1:] - 0.4), 0.0, 1.0)
    ok_sm = abs(got.real - float(np.sum(tau_vals * w)) / BRUTE_X) < 1e-10
    report("11 brute-smoothed", ok_sm, "tent-weighted mean matches the naive loop")

    # lattice counts
    lat = lattice_circle_cdf(BRUTE_X, grid)
    m = len(grid)
    hist = np.zeros(m + 1, dtype=np.int64)
    for a in range(-100, 101):
        for b in range(-100, 101):
            n = a * a + b * b
            if 0 < n <= BRUTE_X:
                hist[jmin[n]] += 1
    ok_lat = np.array_equal(oracles.raw_counts(lat), np.cumsum(hist[:m]))
    report("11 brute-lattice", ok_lat, "lattice counts match a naive double loop")

    # self-normalized mode for a nonnegative entry
    est = estimate_normalized_cdf(make("tau"), BRUTE_X, grid)
    tau_hist = np.zeros(m + 1, dtype=float)
    np.add.at(tau_hist, jmin[1:], tau_vals)
    ok_dt = np.allclose(est.raw.real, np.cumsum(tau_hist[:m]), rtol=1e-12) \
        and est.normalizer == float(tau_vals.sum())
    report("11 brute-dtilde", ok_dt, "self-normalized sums and S(f;x) match the naive loop")
