"""Sieve correctness: exact sigma tables and segment scans against independent oracles."""

import numpy as np
import pytest

from ddl.multfunc import evaluate, make, trial_factorize
from ddl.sieve import (ResourceLimitError, SIEVE_LIMIT, SieveError,
                       primes_up_to, read_segment_cache, scan_segments,
                       sigma_table, write_segment_cache)

import oracles


def scan_sum(f, x, per_chunk, **scan_kw):
    """Sum per_chunk(chunk) over every segment of [1, x]."""
    return sum(per_chunk(chunk) for chunk in scan_segments(x, f=f, **scan_kw))


def f_sum(chunk):
    return chunk.fvals.sum()


def test_primes_up_to():
    ps = primes_up_to(100)
    assert list(ps[:10]) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(ps) == 25
    assert primes_up_to(1).size == 0


def test_segment_examples():
    table = sigma_table(20)
    assert table[12] == 28
    assert table[1] == 1
    v = int(sigma_table(10 ** 6)[10 ** 6])
    assert v == oracles.sigma_brute(10 ** 6)
    assert v == 2480437


def test_sigma_against_divisor_sieve():
    N = 10 ** 5
    table = sigma_table(N)
    brute = oracles.sigma_table_brute(N)
    assert np.array_equal(table, brute)


def test_sigma_offset_segments():
    # 999_000 - 1 = 179 * 5581, so the last segment is exactly [999_000, 1_000_500]
    lo, hi = 999_000, 1_000_500
    *_, last = scan_segments(hi, segment_size=5581)
    assert (last.lo, last.hi) == (lo, hi)
    assert np.array_equal(last.n, np.arange(lo, hi + 1))
    for n in range(lo, hi + 1, 97):
        assert last.sigma[n - lo] == oracles.sigma_brute(n)


def test_spf_and_factorize():
    # the sieve keeps no spf table; the smallest prime factor is the first
    # factor trial_factorize returns, and it must be a prime of primes_up_to
    assert trial_factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert trial_factorize(1) == []
    assert trial_factorize(9973) == [(9973, 1)]
    primes = primes_up_to(100_000)
    prime_set = set(primes.tolist())
    for m in range(2, 3000):
        p = trial_factorize(m)[0][0]
        assert p in prime_set and m % p == 0, m
        assert all(m % d for d in range(2, p)), m
    for p in primes[::37]:
        assert trial_factorize(int(p)) == [(int(p), 1)]
    for m in range(2, 20000, 61):
        assert trial_factorize(m) == oracles.factor_brute(m)


def test_factorization_reconstructs_catalog_values():
    # factor_brute is trial division written apart from the library;
    # evaluate() factors with multfunc.trial_factorize
    fs = [make(s) for s in ("tau", "mu", "r", "sigma_over_n")]
    for m in range(1, 10 ** 4 + 1, 17):
        fac = oracles.factor_brute(m)
        for f in fs:
            via_fac = 1
            for p, j in fac:
                via_fac *= f.prime_power(p, j)
            assert complex(via_fac) == pytest.approx(complex(evaluate(f, m)), rel=1e-12)


def test_fold_count_and_sums():
    assert scan_sum(make("one"), 100, lambda c: c.n.size) == 100
    mertens = scan_sum(make("mu"), 10 ** 6, f_sum)
    brute = int(oracles.mobius_table(10 ** 6).sum())
    assert mertens == brute == 212
    total = scan_sum(make("tau"), 1000, f_sum)
    assert total == oracles.tau_partial_sum(1000) == 7069


@pytest.mark.parametrize("size", [10 ** 4, 10 ** 5, 10 ** 6, 12345])
def test_segment_boundary_independence(size):
    mu = make("mu")
    x = 1_500_000
    assert scan_sum(mu, x, f_sum, segment_size=size) == scan_sum(mu, x, f_sum)
    sigma_sum = lambda c: int(c.sigma.sum())
    assert (scan_sum(None, x, sigma_sum, segment_size=size)
            == scan_sum(None, x, sigma_sum))


def test_worker_count_does_not_change_results():
    mu = make("mu")
    x = 2_000_000
    seq = scan_sum(mu, x, f_sum, segment_size=123_457)
    par = scan_sum(mu, x, f_sum, segment_size=123_457, workers=4)
    assert seq == par


def test_omega_values():
    for chunk in scan_segments(5000, with_omega=True):
        for k in range(0, chunk.n.size, 19):
            n = int(chunk.n[k])
            assert int(chunk.omega[k]) == oracles.omega_big_brute(n)


def test_cache_round_trip(tmp_path):
    sigma = sigma_table(4096)[1:]
    write_segment_cache(tmp_path, 1, 4096, sigma)
    back = read_segment_cache(tmp_path, 1, 4096)
    assert np.array_equal(back, sigma)
    assert read_segment_cache(tmp_path, 1, 9999) is None
    # scan with the cache produces identical tables
    direct = list(scan_segments(4096, segment_size=4096))
    cached = list(scan_segments(4096, segment_size=4096, cache_dir=str(tmp_path)))
    assert np.array_equal(direct[0].sigma, cached[0].sigma)
    # corrupt header is ignored, not fatal
    path = tmp_path / "sigma_1_4096.sgma"
    raw = bytearray(path.read_bytes())
    raw[0] = 0
    path.write_bytes(bytes(raw))
    assert read_segment_cache(tmp_path, 1, 4096) is None


def test_cache_payload_checksum(tmp_path):
    x, size = 20_000, 4096
    for chunk in scan_segments(x, segment_size=size):
        write_segment_cache(tmp_path, chunk.lo, chunk.hi, chunk.sigma)
    assert not list(tmp_path.glob("*.tmp"))
    # flip one payload byte: the header still matches, the crc32 does not
    path = tmp_path / f"sigma_{size + 1}_{2 * size}.sgma"
    raw = bytearray(path.read_bytes())
    raw[-100] ^= 0x01
    path.write_bytes(bytes(raw))
    assert read_segment_cache(tmp_path, size + 1, 2 * size) is None
    # the damaged segment is sieved again, so the table is unchanged
    assert np.array_equal(sigma_table(x, segment_size=size, cache_dir=str(tmp_path)),
                          sigma_table(x, segment_size=size))


def test_bounds_and_limits():
    with pytest.raises(SieveError):
        sigma_table(0)
    with pytest.raises(SieveError):
        next(scan_segments(100, segment_size=15))
    with pytest.raises(ResourceLimitError):
        next(scan_segments(SIEVE_LIMIT + 1))
    # refused before anything is allocated: the dense table would need 2.4 GB
    with pytest.raises(ResourceLimitError, match="over the 2.0 GB budget"):
        sigma_table(300_000_000)
