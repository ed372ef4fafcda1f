"""Empirical estimators against naive per-n oracles and known densities."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddl
from ddl.cli import main as cli_main
from ddl.empirical import (_BUCKET_CAP, GridError, ThresholdGrid, _bucket_tables,
                           _first_qualifying, _squares_upto, equidist_tally,
                           estimate_normalized_cdf, estimate_weighted_cdf,
                           lattice_circle_cdf, partial_summation_check,
                           smoothed_indicator_mean)
from ddl.multfunc import make, parse_spec
from ddl.sieve import SIEVE_LIMIT, ResourceLimitError, sigma_table

import oracles

ONE = make("one")


def test_grid_construction_and_parsing():
    g = ThresholdGrid.default()
    assert len(g) == 201
    fr = oracles.grid_fractions(g)
    assert fr[0] == 0 and fr[-1] == 1
    assert Fraction(1, 2) in fr
    assert np.all(np.diff(g.floats) > 0)
    # reduced fractions
    assert g.nums[oracles.grid_index(g, Fraction(1, 2))] == 1
    assert oracles.grid_fractions(ThresholdGrid.parse("half")) == [Fraction(1, 2), Fraction(1)]
    c = ThresholdGrid.parse("0,3/10,1/2,7/10,1")
    assert len(c) == 5
    assert oracles.grid_fractions(ThresholdGrid.parse("steps:4")) == [
        Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    # unreduced terms are reduced before the cap and the increase are checked
    g = ThresholdGrid([2, 6, 2_000_000], [4, 8, 2_000_000])
    assert g.nums.tolist() == [1, 3, 1] and g.dens.tolist() == [2, 4, 1]
    with pytest.raises(GridError, match="at least one threshold"):
        ThresholdGrid([], [])
    for nums, dens in (([-1], [2]), ([3], [2]), ([1], [0]), ([1], [-2])):
        with pytest.raises(GridError, match="outside"):
            ThresholdGrid(nums, dens)
    with pytest.raises(GridError, match="past 64 bits"):
        ThresholdGrid([1], [10 ** 23])
    # an int64 cast would truncate these to the grids {1/2} and {0}
    for nums, dens in (([1.9], [2.7]), ([0.5], [1])):
        with pytest.raises(GridError, match="must be integers"):
            ThresholdGrid(nums, dens)
    with pytest.raises(GridError, match="steps must lie"):  # before 10^12 + 1 are built
        ThresholdGrid.default(10 ** 12)


@pytest.mark.parametrize("spec, message", [
    ("1/2,1/3", "thresholds must be strictly increasing"),
    ("1/2,1/2", "thresholds must be strictly increasing"),
    ("2/4,1/2", "thresholds must be strictly increasing"),
    ("3/2", "threshold 3/2 outside [0, 1]"),
    ("0,-1/2", "threshold -1/2 outside [0, 1]"),
    ("1/2000000", "threshold denominator 2000000 over the 1000000 cap"),
    ("99999999999999999999999/100000000000000000000000", "threshold terms past 64 bits"),
    ("junk;;", "cannot parse grid spec 'junk;;'"),
    ("1/0", "cannot parse grid spec '1/0'"),
    ("1/2,", "cannot parse grid spec '1/2,'"),
    ("steps:x", "bad steps spec"),
    ("steps:0", "steps must lie in [1, 1000000]"),
])
def test_grid_errors_keep_their_reason(spec, message):
    with pytest.raises(GridError) as exc:
        ThresholdGrid.parse(spec)
    assert message in str(exc.value)


@pytest.mark.parametrize("spec", [*(f"steps:{n}" for n in (1, 2, 7, 200, 997, 10 ** 6)),
                                  "half", "0,3/10,1/2,7/10,1"])
def test_grid_arrays_match_fraction_reduction(spec):
    grid = ThresholdGrid.parse(spec)
    if spec.startswith("steps:"):
        n = int(spec.split(":")[1])
        us = [Fraction(k, n) for k in range(n + 1)]
    else:
        us = [Fraction(u) for u in (["1/2", "1"] if spec == "half" else spec.split(","))]
    nums, dens, floats = oracles.grid_arrays_brute(us)
    assert grid.nums.dtype == grid.dens.dtype == np.int64
    assert np.array_equal(grid.nums, nums) and np.array_equal(grid.dens, dens)
    assert np.array_equal(grid.floats, floats)
    assert np.all(np.gcd(grid.nums, grid.dens) == 1)


def test_estimate_trivia():
    est = estimate_weighted_cdf(ONE, 1000, ThresholdGrid.parse("half"))
    assert oracles.value_at(est, 1) == 1.0
    assert oracles.raw_at(est, 1) == 1000
    est2 = estimate_weighted_cdf(make("mu"), 10 ** 6, ThresholdGrid.parse("half"))
    assert oracles.value_at(est2, 1).real == pytest.approx(212 / 10 ** 6, abs=1e-15)


def test_dtilde_normalization_exact():
    est = estimate_normalized_cdf(make("tau"), 10 ** 5)
    assert oracles.value_at(est, 1) == 1.0 + 0.0j  # bitwise, same-pass normalizer
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
    with oracles.segment_size(1024):
        est = estimate_weighted_cdf(f, N, grid)
    raw_brute = np.zeros(len(grid), dtype=complex)
    fr = oracles.grid_fractions(grid)
    for n in range(1, N + 1):
        k = oracles.brute_first_qualifying(n, int(sig[n]), fr)
        if k < len(grid):
            raw_brute[k:] += complex(oracles.evaluate(f, n))
    assert np.allclose(est.raw, raw_brute, rtol=1e-12, atol=1e-9)


def test_exact_ties_are_inclusive(brute_tables):
    # perfect numbers sit exactly on u = 1/2 and must be counted
    est = estimate_weighted_cdf(ONE, 10 ** 4, ThresholdGrid.parse("1/2,1"))
    below = sum(1 for n in range(1, 10 ** 4 + 1)
                if 2 * n <= oracles.sigma_brute(n))
    assert oracles.raw_at(est, Fraction(1, 2)) == below
    # 6 and 28 and 496 and 8128 are the ties below 1e4
    strictly = sum(1 for n in range(1, 10 ** 4 + 1)
                   if 2 * n < oracles.sigma_brute(n))
    assert below - strictly == 4


QUAL_X = 10 ** 5
# exact ties below 1e5: the perfect numbers on 1/2, 120 and 672 on 1/3,
# 30240 on 1/4
TIES = {Fraction(1, 2): (6, 28, 496, 8128), Fraction(1, 3): (120, 672),
        Fraction(1, 4): (30240,)}


@pytest.fixture(scope="module")
def qual_sigma():
    return oracles.sigma_table_brute(QUAL_X)


def tight_grid(sig):
    """Thresholds inside 2^-20-wide buckets: n/sigma(n) for a few n, and its
    neighbours a/b, (a + 1)/b for primes b near 1e6, plus the ties."""
    us = {Fraction(0), Fraction(1), *TIES}
    for n in (65536, 77777, 99991, 54321, 12345, 31415, 720, 2310):
        r = Fraction(n, int(sig[n]))
        us.add(r)
        for b in (999983, 999979):
            a = r.numerator * b // r.denominator
            us.update((Fraction(a, b), Fraction(a + 1, b)))
    return oracles.grid_of(sorted(us))


def check_bucket_tables(grid, ks):
    # lo[k]: first u_j > (k-1)/D; hi[k]: first u_j >= k/D, from Fractions
    D, lo, hi = _bucket_tables(grid)
    fr = oracles.grid_fractions(grid)
    for k in ks:
        want_lo = next((j for j, u in enumerate(fr) if u > Fraction(k - 1, D)), len(fr))
        want_hi = next((j for j, u in enumerate(fr) if u >= Fraction(k, D)), len(fr))
        assert lo[k] == want_lo, k
        assert (lo if hi is None else hi)[k] == want_hi, k


@pytest.mark.parametrize("kind", ["lcm", "capped"])
def test_first_qualifying_matches_brute(kind, qual_sigma):
    sig = qual_sigma
    if kind == "lcm":
        grid = ThresholdGrid.parse("0,1/7,1/4,1/3,2/5,1/2,4/7,3/5,2/3,5/6,1")
    else:
        grid = tight_grid(sig)
    D, lo, hi = _bucket_tables(grid)
    n = np.arange(1, QUAL_X + 1, dtype=np.int64)
    buf = np.empty(QUAL_X + 3, dtype=np.int64)  # a buffer may be longer than the chunk
    got = _first_qualifying(n, sig[1:], grid, (D, lo, hi), buf)
    fr = oracles.grid_fractions(grid)
    want = [oracles.brute_first_qualifying(int(v), int(sig[v]), fr) for v in n]
    assert got.tolist() == want
    for u, ns in TIES.items():
        for v in ns:
            assert got[v - 1] == fr.index(u)
    k = -(-D * n // sig[1:])
    if kind == "lcm":
        assert D == 420 and hi is None  # every threshold on a bucket edge
        check_bucket_tables(grid, range(D + 1))
    else:
        assert D == _BUCKET_CAP
        inside = lo[k] < hi[k]
        # the bounded correction runs, stops inside buckets and at their top
        assert np.any(inside & (got > lo[k]) & (got < hi[k]))
        assert np.any(inside & (got == hi[k]))
        assert np.any(inside & (got == lo[k]))
        edges = {(D * u.numerator) // u.denominator + d for u in fr for d in (0, 1, 2)}
        check_bucket_tables(grid, sorted(e for e in edges if e <= D))


def test_first_qualifying_gathers_in_the_given_buffer():
    # with D the lcm, the grid index overwrites the bucket index in place: the
    # result is a view of the buffer and no n-sized array is allocated.  The
    # default grid's table is the identity (u_j = j/200); the other's, with
    # D = 420, is not.
    size = 2 ** 20
    n = np.arange(1, size + 1, dtype=np.int64)
    sigma = sigma_table(size)[1:]
    buf = np.empty(size, dtype=np.int64)
    for spec, want_D in (("default", 200), ("0,1/7,1/4,1/3,2/5,1/2,4/7,3/5,2/3,5/6,1", 420)):
        grid = ThresholdGrid.parse(spec)
        tables = _bucket_tables(grid)
        D, lo, hi = tables
        assert D == want_D and hi is None
        assert np.array_equal(lo, np.arange(D + 1)) == (spec == "default")
        tracemalloc.start()
        try:
            got = _first_qualifying(n, sigma, grid, tables, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(got, buf), spec
        assert peak < 2 ** 20, spec
        assert np.array_equal(got, lo[-(-D * n // sigma)]), spec


def test_bucket_products_fit_int64():
    assert _BUCKET_CAP * SIEVE_LIMIT < 2 ** 62


def test_bucket_products_are_exact_floats():
    # the float quotient D n / sigma is exact only while D n is an exact float
    assert _BUCKET_CAP * SIEVE_LIMIT < 2 ** 52


def test_first_qualifying_float_quotient_is_exact():
    # k = ceil(D n / sigma) is the ceiling of one float64 division; with the
    # identity table lo[k] = k (and hi None) it is the result.  It is
    # checked against Python ints on constructed (n, sigma, D): sigma dividing
    # D n and D n = +-1 (mod sigma), n up to SIEVE_LIMIT, D up to _BUCKET_CAP.
    # Two roundings miss: D (n / sigma) on n = 11880 and n (D / sigma) on
    # n = 15 at D = 200, both with the real sigma(n), which divides 200 n.
    cases = [(n, oracles.sigma_brute(n), 200) for n in (15, 11880, 411264)]
    for D in (1, 2, 3, 200, 420, 999_983, _BUCKET_CAP - 1, _BUCKET_CAP):
        for n in (1, 2, 3, 15, 11880, 720_720, SIEVE_LIMIT // 7, SIEVE_LIMIT - 1, SIEVE_LIMIT):
            for k in {1, 2, 3, 7, 200, D // 3, D - 1, D}:
                for dn in (D * n - 1, D * n, D * n + 1):  # D n = k sigma + (-1, 0, 1)
                    if k >= 1 and dn % k == 0 and dn // k >= n:
                        cases.append((n, dn // k, D))
    rests = {(D * n + 1) % sigma - 1 for n, sigma, D in cases if sigma > 2}
    assert {-1, 0, 1} <= rests  # D n mod sigma
    assert any(n == SIEVE_LIMIT and D == _BUCKET_CAP for n, _, D in cases)
    for D in {D for _, _, D in cases}:
        n, sigma = (np.array(v, dtype=np.int64) for v in zip(*[c[:2] for c in cases if c[2] == D]))
        tables = (D, np.arange(D + 1), None)
        got = _first_qualifying(n, sigma, None, tables, np.empty(n.size, dtype=np.int64))
        assert got.tolist() == [-(-D * a // b) for a, b in zip(n.tolist(), sigma.tolist())], D


def test_squares_upto_is_exact_to_sieve_limit():
    # the lattice rows' y ranges come from this float root and its one-step
    # corrections; the roots are checked at and beside every square in range
    k = np.arange(math.isqrt(SIEVE_LIMIT) + 2, dtype=np.int64)
    v = np.concatenate([k * k - 1, k * k, k * k + 1, -k * k])
    assert np.array_equal(_squares_upto(v),
                          [math.isqrt(w) + 1 if w >= 0 else 0 for w in v.tolist()])


def test_lattice_trivial_and_brute():
    est = lattice_circle_cdf(1, ThresholdGrid.parse("half"))
    assert oracles.raw_at(est, 1) == 4
    assert oracles.value_at(est, 1).real == pytest.approx(4 / math.pi, rel=1e-12)

    R = 2000
    grid = ThresholdGrid.parse("0,2/5,1/2,3/5,1")
    est = lattice_circle_cdf(R, grid)
    sig = oracles.sigma_table_brute(R)
    raw = np.zeros(len(grid), dtype=np.int64)
    fr = oracles.grid_fractions(grid)
    for x in range(-50, 51):
        for y in range(-50, 51):
            n = x * x + y * y
            if 0 < n <= R:
                k = oracles.brute_first_qualifying(n, int(sig[n]), fr)
                if k < len(grid):
                    raw[k:] += 1
    assert np.array_equal(oracles.raw_counts(est), raw)


def test_lattice_matches_r_weighted_sieve():
    R = 10 ** 4
    grid = ThresholdGrid.default()
    lat = lattice_circle_cdf(R, grid)
    rsieve = estimate_weighted_cdf(make("r"), R, grid)
    assert np.array_equal(oracles.raw_counts(lat), 4 * oracles.raw_counts(rsieve))


def test_smoothed_bracketed_by_sharp():
    grid = ThresholdGrid.parse("1/2,13/25,1")
    est = estimate_weighted_cdf(ONE, 10 ** 5, grid)
    mid = smoothed_indicator_mean(ONE, 10 ** 5, Fraction(1, 2), 50)
    lo = oracles.value_at(est, Fraction(1, 2)).real
    hi = oracles.value_at(est, Fraction(13, 25)).real  # 1/2 + 1/50
    assert lo - 1e-12 <= mid.real <= hi + 1e-12
    assert abs(mid.imag) == 0
    with pytest.raises(ValueError):
        smoothed_indicator_mean(ONE, 100, Fraction(99, 100), 50)


def test_smoothed_matches_brute(brute_tables):
    N, sig = brute_tables
    f = make("tau")
    with oracles.segment_size(512):
        got = smoothed_indicator_mean(f, N, Fraction(2, 5), 10)
    acc = 0.0
    for n in range(1, N + 1):
        rho = n / sig[n]
        w = min(1.0, max(0.0, 1.0 - 10 * (rho - 0.4)))
        acc += oracles.tau_brute(n) * w
    assert got.real == pytest.approx(acc / N, rel=1e-12)


def test_equidist_modes(brute_tables):
    N, sig = brute_tables
    u = Fraction(1, 2)
    with oracles.segment_size(1024):
        t_omega = equidist_tally("omega", 3, u, N)
        t_cop = equidist_tally("coprime", 6, u, N)
    counts = [0, 0, 0]
    for n in range(1, N + 1):
        if oracles.qualifies(n, int(sig[n]), u):
            counts[oracles.omega_big_brute(n) % 3] += 1
    assert list(t_omega.counts) == counts
    assert t_omega.qualifying_total == sum(counts)

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
    assert t.counts[0] == oracles.raw_at(est, u)


def test_partial_summation_pair(brute_tables):
    lhs, rhs = partial_summation_check(ONE, 1000, Fraction(1))
    assert lhs.real == pytest.approx(2 / 1000 ** 2 * (1000 * 1001 / 2), rel=1e-12)
    assert rhs == 1.0

    N, sig = brute_tables
    f = make("mu")
    with oracles.segment_size(777):
        lhs, rhs = partial_summation_check(f, N, Fraction(1, 2))
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
    with oracles.segment_size(512):
        got = oracles.empirical_char_function(ONE, N, ts)
    assert got[0] == pytest.approx(1.0, abs=1e-14)
    brute = np.zeros(3, dtype=complex)
    for n in range(1, N + 1):
        L = math.log(n / sig[n])
        for k, t in enumerate(ts):
            brute[k] += complex(math.cos(t * L), math.sin(t * L))
    assert np.allclose(got, brute / N, atol=1e-10)


def test_estimate_segment_and_worker_invariance():
    grid = ThresholdGrid.default()
    with oracles.segment_size(997):
        a = estimate_weighted_cdf(make("tau"), 50000, grid)
    with oracles.segment_size(16384):
        b = estimate_weighted_cdf(make("tau"), 50000, grid)
    assert np.array_equal(a.raw, b.raw)


def test_scan_memory_per_segment_slot(monkeypatch):
    # a scan computes every segment in one set of buffers and keeps no chunk
    # past its reduction.  Held per slot: n, sigma and f (32 bytes), the
    # cofactor (4), the two per-prime scratch buffers, one factor per
    # multiple of 2 in a block of an eighth of the segment (1.5), and the
    # bucket index and the grid index of one qualification block, which
    # share 8 bytes per n of a thirty-second of the segment (0.25), as at
    # the production sizes.  psum-check and equidist bin through the same
    # block buffers, with one more block buffer for f(n) n or the class in
    # place of the estimate's 202 bins, so neither holds more than the
    # estimate of its f, plus Omega's 2 bytes per slot.
    size = 2 ** 14
    x, f, u = 40 * size, parse_spec("lambda:a=1,q=3"), Fraction(1, 2)
    monkeypatch.setattr(ddl.empirical, "_QUAL_BLOCK", size >> 5)

    def peak(call):
        call()  # the first call's set-up is not counted
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    with oracles.segment_size(size):
        est = peak(lambda: estimate_weighted_cdf(f, x))
        est_one = peak(lambda: estimate_weighted_cdf(ONE, x))
        psum = peak(lambda: partial_summation_check(f, x, u))
        omega = peak(lambda: equidist_tally("omega", 3, u, x))
        coprime = peak(lambda: equidist_tally("coprime", 3, u, x))
    assert est <= 80 * size
    assert psum <= est, (psum / size, est / size)
    assert omega <= est_one + 2 * size, (omega / size, est_one / size)
    assert coprime <= est_one, (coprime / size, est_one / size)


REDUCER_X = 6000
REDUCER_GRIDS = ["default", "0,1/4,2/5,1/2,3/5,9/10,1", "1/999983,1/2,999982/999983"]


@pytest.fixture(scope="module")
def reducer_bins():
    """Per grid spec, the oracle's first qualifying index of each n <= REDUCER_X."""
    sig = oracles.sigma_table_brute(REDUCER_X)
    bins = {}
    for spec in [*REDUCER_GRIDS, "1/2"]:
        fr = oracles.grid_fractions(ThresholdGrid.parse(spec))
        bins[spec] = np.array([0] + [oracles.brute_first_qualifying(n, int(sig[n]), fr)
                                     for n in range(1, REDUCER_X + 1)])
    return bins


@pytest.mark.parametrize("grid_spec", REDUCER_GRIDS)
@pytest.mark.parametrize("spec", ["one", "tau", "lambda:a=1,q=3", "phi_over_n", "lattice"])
def test_blocked_reducer_is_bitwise_one_bincount_per_chunk(monkeypatch, reducer_bins, spec,
                                                           grid_spec):
    # Qualification goes block by block, and a float f is added per bin with
    # np.add.at in n order, as one bincount over the chunk adds: the sums are
    # the same bits.  Blocks of 700 end part-way through segments of 2500 n
    # (about 1970 lattice points) and through the last, partial segment.
    # The default grid's table is the identity, the comma grid's is not, and
    # the third grid's D is capped.
    grid = ThresholdGrid.parse(grid_spec)
    bins, m = reducer_bins[grid_spec], len(grid) + 1
    monkeypatch.setattr(ddl.empirical, "_QUAL_BLOCK", 700)
    with oracles.segment_size(2500):
        if spec == "lattice":
            got = lattice_circle_cdf(REDUCER_X, grid)
        elif spec == "tau":
            got = estimate_normalized_cdf(make(spec), REDUCER_X, grid)
        else:
            got = estimate_weighted_cdf(parse_spec(spec), REDUCER_X, grid)
        total = 0
        for chunk in ddl.scan_segments(REDUCER_X, f=None if spec == "lattice" else parse_spec(spec)):
            b, fv = bins[chunk.n], chunk.fvals
            if spec == "lattice":  # one bin per point (a, y), a >= 1, y >= 0
                quarter = [sum(1 for a in range(1, math.isqrt(n) + 1)
                               if math.isqrt(n - a * a) ** 2 == n - a * a)
                           for n in chunk.n.tolist()]
                part = np.bincount(np.repeat(b, quarter), minlength=m)
            elif fv is None:
                part = np.bincount(b, minlength=m)
            else:
                part = np.bincount(b, weights=fv.real, minlength=m)
                if np.iscomplexobj(fv):
                    part = part + 1j * np.bincount(b, weights=fv.imag, minlength=m)
            total = total + part
    ext = np.cumsum(total)
    want = ext[:-1].astype(np.complex128)
    assert got.raw.tobytes() == (4 * want if spec == "lattice" else want).tobytes()
    if spec == "tau":
        assert got.normalizer == float(ext[-1].real)


@pytest.mark.parametrize("q", [3, 1009])
@pytest.mark.parametrize("mode", ["omega", "coprime"])
def test_blocked_equidist_matches_first_qualifying(monkeypatch, reducer_bins, mode, q):
    # The class is folded into the grid index of {1/2} in place, block by
    # block; blocks of 700 end part-way through segments of 2500 n, and
    # q = 1009 has more classes than a block has n.
    n = np.arange(1, REDUCER_X + 1)
    qual = n[reducer_bins["1/2"][1:] == 0]
    keys = [oracles.omega_big_brute(v) % q for v in qual.tolist()] if mode == "omega" else qual % q
    want = np.bincount(keys, minlength=q)
    monkeypatch.setattr(ddl.empirical, "_QUAL_BLOCK", 700)
    with oracles.segment_size(2500):
        got = equidist_tally(mode, q, Fraction(1, 2), REDUCER_X)
    labels = [c for c in range(q) if mode == "omega" or math.gcd(c, q) == 1]
    assert list(got.labels) == labels
    assert got.counts.tolist() == want[labels].tolist()
    assert got.qualifying_total == qual.size


PSUM_SPECS = ["one", "mu_squared", "phi_over_n", "lambda:a=1,q=3"]


@pytest.mark.parametrize("spec", PSUM_SPECS)
def test_blocked_psum_is_bitwise_one_bincount_per_chunk(monkeypatch, reducer_bins, spec):
    # f and f(n) n are added per bin with np.add.at in n order, as one
    # bincount per chunk adds them, in blocks of 700 within segments of 2500 n
    f = parse_spec(spec)

    def qualifying_sum(b, w):  # the bin-0 sum of w, a complex w as two real bincounts
        if np.iscomplexobj(w):
            return qualifying_sum(b, w.real) + 1j * qualifying_sum(b, w.imag)
        return np.bincount(b, weights=w, minlength=2)[0]
    monkeypatch.setattr(ddl.empirical, "_QUAL_BLOCK", 700)
    with oracles.segment_size(2500):
        got = partial_summation_check(f, REDUCER_X, Fraction(1, 2))
        total = 0
        for chunk in ddl.scan_segments(REDUCER_X, f=f):
            b, fv = reducer_bins["1/2"][chunk.n], chunk.fvals
            if fv is None:  # exact int64 sums
                part = np.array([np.count_nonzero(b == 0), chunk.n[b == 0].sum()])
            else:
                part = np.array([qualifying_sum(b, fv), qualifying_sum(b, fv * chunk.n)])
            total = total + part
    rhs, lhs = total
    want = (complex(lhs) * 2.0 / (REDUCER_X * float(REDUCER_X)), complex(rhs) / REDUCER_X)
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("spec", PSUM_SPECS)
def test_psum_rhs_is_the_one_point_estimate(spec):
    # both sums come from the same reducer over the grid {u}; the quotient
    # goes through Python's complex, as psum-check's does (numpy's complex
    # division may round differently)
    f, x, u = parse_spec(spec), 10 ** 5, Fraction(2, 5)
    with oracles.segment_size(7919):
        est = estimate_weighted_cdf(f, x, ThresholdGrid([u.numerator], [u.denominator]))
        rhs = partial_summation_check(f, x, u)[1]
    assert np.array(rhs).tobytes() == np.array(complex(est.raw[0]) / x).tobytes()


PROPERTY_X = 3000
PROPERTY_SIGMA = oracles.sigma_table_brute(PROPERTY_X)
PROPERTY_OMEGA = [0] + [oracles.omega_big_brute(n) for n in range(1, PROPERTY_X + 1)]
PROPERTY_MU = oracles.mobius_table(PROPERTY_X)
# weights of the f-weighted statistics: f = 1, a real f and a complex f
PROPERTY_F = {"one": lambda n: 1, "mu": lambda n: int(PROPERTY_MU[n]),
              "lambda:a=1,q=3": lambda n: oracles.lambda_brute(n, 1, 3)}


def assert_sum_close(got, terms, scale):
    """got matches scale * sum(terms) within rel 1e-12 of scale * sum |terms|."""
    assert abs(got - scale * sum(terms)) <= 1e-12 * scale * sum(abs(t) for t in terms)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(x=st.integers(1, PROPERTY_X),
       thresholds=st.sets(st.fractions(0, 1, max_denominator=60), min_size=1, max_size=12),
       f=st.sampled_from(sorted(PROPERTY_F)),
       q=st.integers(1, 12),
       m=st.integers(3, 100),
       segment_size=st.integers(16, 2 * PROPERTY_X),
       cached=st.booleans())
def test_raw_counts_independent_of_scan_layout(tmp_path_factory, x, thresholds, f, q, m,
                                               segment_size, cached):
    # no statistic may depend on segment size or cache state
    with oracles.segment_size(segment_size):
        grid = oracles.grid_of(sorted(thresholds))
        cache_dir = None
        if cached:
            cache_dir = tmp_path_factory.mktemp("sigma_cache")
            assert cli_main(["sieve-cache", "--x", str(x), "--dir", str(cache_dir),
                             "--out", str(cache_dir / "written.json")]) == 0
        scan_kw = {"cache_dir": cache_dir}
        fn = PROPERTY_F[f]
        est = estimate_weighted_cdf(parse_spec(f), x, grid, **scan_kw)
        fr = oracles.grid_fractions(grid)
        first = [oracles.brute_first_qualifying(n, int(PROPERTY_SIGMA[n]), fr)
                 for n in range(1, x + 1)]
        for j in range(len(grid)):  # exact for the integer-valued f
            assert_sum_close(est.raw[j], [fn(n) for n in range(1, x + 1) if first[n - 1] <= j], 1.0)

        # the single-threshold statistics, at the grid's last threshold
        u = fr[-1]
        qual = [n for n in range(1, x + 1) if oracles.qualifies(n, int(PROPERTY_SIGMA[n]), u)]
        for mode, key in (("omega", lambda n: PROPERTY_OMEGA[n] % q), ("coprime", lambda n: n % q)):
            tally = equidist_tally(mode, q, u, x, **scan_kw)
            labels = [c for c in range(q) if mode == "omega" or math.gcd(c, q) == 1]
            assert list(tally.labels) == labels
            assert tally.counts.tolist() == [sum(1 for n in qual if key(n) == c) for c in labels]
            assert tally.qualifying_total == len(qual)
        lhs, rhs = partial_summation_check(parse_spec(f), x, u, **scan_kw)
        assert_sum_close(lhs, [n * fn(n) for n in qual], 2.0 / x ** 2)
        assert_sum_close(rhs, [fn(n) for n in qual], 1.0 / x)
        us = u / 2  # so that us + 1/m < 1
        got = smoothed_indicator_mean(parse_spec(f), x, us, m, **scan_kw)
        w = [min(1.0, max(0.0, 1.0 - m * (n / int(PROPERTY_SIGMA[n]) - float(us))))
             for n in range(1, x + 1)]
        assert_sum_close(got, [fn(n) * w[n - 1] for n in range(1, x + 1)], 1.0 / x)

        # the lattice count, by a double loop over the whole disk; the drawn
        # segment sizes cut rows of lattice points at segment bounds
        lat = lattice_circle_cdf(x, grid, **scan_kw)
        per_first = [0] * (len(grid) + 1)
        s = math.isqrt(x)
        for a in range(-s, s + 1):
            for b in range(-s, s + 1):
                if 0 < a * a + b * b <= x:
                    per_first[first[a * a + b * b - 1]] += 1
        assert oracles.raw_counts(lat).tolist() == np.cumsum(per_first[:-1]).tolist()


def test_resource_refusals():
    # both refused above SIEVE_LIMIT, before any segment is sieved
    with pytest.raises(ResourceLimitError):
        lattice_circle_cdf(4_000_000_001)
    with pytest.raises(ResourceLimitError):
        estimate_weighted_cdf(ONE, 4_000_000_001, ThresholdGrid.parse("half"))


@pytest.mark.slow
def test_lattice_gauss_circle_normalization():
    est = lattice_circle_cdf(10 ** 7, ThresholdGrid.parse("half"))
    assert oracles.value_at(est, 1).real == pytest.approx(1.0, abs=1e-3)


@pytest.mark.slow
def test_equidist_liouville_balance():
    # Omega parity classes at u = 1 are each within 0.005 of 1/2 (the
    # imbalance is the Liouville mean, which is tiny at 1e7)
    t = equidist_tally("omega", 2, Fraction(1), 10 ** 7)
    assert np.all(np.abs(oracles.densities(t) - 0.5) <= 0.005)
    liouville_mean = (t.counts[0] - t.counts[1]) / 10 ** 7
    assert abs(liouville_mean) < 1e-3


@pytest.mark.slow
def test_partial_summation_at_scale():
    lhs, rhs = partial_summation_check(ONE, 10 ** 8, Fraction(1, 2))
    assert abs(lhs.real - rhs.real) < 0.002
    assert rhs.real == pytest.approx(0.2476, abs=2e-3)
