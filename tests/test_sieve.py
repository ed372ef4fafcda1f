"""Sieve correctness: exact sigma tables and segment scans against independent oracles."""

from math import isqrt

import numpy as np
import pytest

import ddl.sieve
from ddl.multfunc import catalog_ids, make, parse_spec
from ddl.sieve import (PRIME_LIMIT, ResourceLimitError, SEGMENT_SIZE, SIEVE_LIMIT, SieveError,
                       _scan, prime_segments, primes_up_to, read_segment_cache, scan_segments,
                       sigma_table, write_segment_cache)

import oracles


def scan_sum(f, x, per_chunk):
    """Sum per_chunk(chunk) over every segment of [1, x]."""
    return sum(per_chunk(chunk) for chunk in scan_segments(x, f=f))


def f_sum(chunk):
    return chunk.fvals.sum()


def test_primes_up_to():
    ps = primes_up_to(100)
    assert list(ps[:10]) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(ps) == 25
    assert primes_up_to(1).size == 0
    # the odds-only sieve gives the plain sieve's array, dtype included
    for limit in (0, 1, 2, 3, 4, 9, 25, 10 ** 4, 10 ** 6 + 3):
        ps = primes_up_to(limit)
        assert ps.dtype == np.int64
        assert np.array_equal(ps, oracles.primes_brute(limit)), limit


def test_primes_up_to_segment_edges():
    # slot i is 2i + 1, so segment k of the odd sieve begins at 2 k SEGMENT_SIZE + 1:
    # each limit ends one slot before, on, or just past a segment's first slot
    for k in (1, 2):
        for d in (-1, 0, 1, 2):
            limit = 2 * k * SEGMENT_SIZE + d
            ps = primes_up_to(limit)
            assert ps.dtype == np.int64
            assert np.array_equal(ps, oracles.primes_brute(limit)), limit
        # some base prime p <= sqrt(first) divides the segment's first number,
        # so the offset it carries into segment k is 0
        first = 2 * k * SEGMENT_SIZE + 1
        assert any(first % p == 0 for p in range(3, isqrt(first) + 1, 2))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 12, 24, 60, 1000])
def test_primes_up_to_small_segments(size):
    # sizes 4, 12, 24 and 60 are p^2 // 2 for p = 3, 5, 7, 11: p's first
    # multiple p^2 falls exactly on the first slot of segment 1; the limit
    # 14 size + 1 ends on the first slot of segment 7
    with oracles.segment_size(size):
        for limit in [*range(160), 2 * size * 7 + 1, 5_003, 30_011]:
            assert np.array_equal(primes_up_to(limit), oracles.primes_brute(limit)), limit


@pytest.mark.parametrize("size", [1, 4, 64])
def test_prime_segments_one_array_per_segment(size):
    # segment k holds the primes among the odd slots k size .. (k + 1) size - 1,
    # i.e. the numbers 2 k size + 1 .. 2 (k + 1) size - 1, with 2 in place of 1
    with oracles.segment_size(size):
        for limit in (2, 3, 2 * size * 7, 2 * size * 7 + 1, 5_003):
            pieces = list(prime_segments(limit))
            assert len(pieces) == -(-((limit + 1) // 2) // size)
            for k, piece in enumerate(pieces):
                assert piece.dtype == np.int64
                lo, hi = 2 * k * size, max(2, min(limit, 2 * (k + 1) * size - 1))
                want = oracles.primes_brute(hi)
                assert np.array_equal(piece, want[want > lo]), (limit, k)
    assert list(prime_segments(1)) == []


def test_prime_limit():
    # refused when the stream is asked for, before any prime is sieved
    with pytest.raises(ResourceLimitError, match=f"supported limit {PRIME_LIMIT}"):
        prime_segments(PRIME_LIMIT + 1)
    assert next(prime_segments(PRIME_LIMIT))[:4].tolist() == [2, 3, 5, 7]
    # every limit primes_up_to accepts is streamed: its budget refuses first
    with pytest.raises(ResourceLimitError, match="over the 2.0 GB budget"):
        primes_up_to(PRIME_LIMIT)


def test_primes_up_to_1e8():
    ps = primes_up_to(10 ** 8)
    assert ps.size == 5_761_455
    assert ps[-1] == 99_999_989
    assert int(ps.sum()) == 279_209_790_387_276


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
    with oracles.segment_size(5581):
        *_, last = scan_segments(hi)
    assert (last.lo, last.hi) == (lo, hi)
    assert np.array_equal(last.n, np.arange(lo, hi + 1))
    for n in range(lo, hi + 1, 97):
        assert last.sigma[n - lo] == oracles.sigma_brute(n)


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
    sigma_sum = lambda c: int(c.sigma.sum())
    with oracles.segment_size(size):
        cut_mu, cut_sigma = scan_sum(mu, x, f_sum), scan_sum(None, x, sigma_sum)
    assert cut_mu == scan_sum(mu, x, f_sum)
    assert cut_sigma == scan_sum(None, x, sigma_sum)


def test_buffer_ring_gives_identical_sums(tmp_path):
    # 24 segments through the scan's one buffer set, with sigma read from the
    # cache for every other segment and sieved for the rest, give the chunks
    # of an uncached scan
    size, x = 4096, 24 * 4096 - 100
    f = parse_spec("lambda:a=1,q=3")
    sigma = oracles.sigma_table_brute(x)

    def sums(c):
        return (c.lo, int(c.n.sum()), int(c.sigma.sum()), complex(c.fvals.sum()),
                complex((c.fvals * c.omega).sum()))

    with oracles.segment_size(size):
        for k, chunk in enumerate(scan_segments(x)):
            if k % 2:
                write_segment_cache(tmp_path, chunk.lo, chunk.hi, chunk.sigma)
        runs = [[sums(c) for c in scan_segments(x, f=f, with_omega=True, cache_dir=cache_dir)]
                for cache_dir in (str(tmp_path), None)]
    for lo, _, sigma_sum, _, _ in runs[0]:
        assert sigma_sum == int(sigma[lo:lo + size].sum()), lo
    assert len(runs[0]) == 24 and runs[0][-1][0] == 23 * size + 1
    assert runs[0] == runs[1]


BLOCKED_SPECS = ["one", "tau", "r", "mu", "lambda:a=1,q=3", "phi_over_n",
                 "sigma_over_n_pow:re=0,im=2", "quadratic_character:q=3"]


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("size, x", [(5001, 40_000), (100, 20_050)])
def test_blocked_kernel_is_bitwise_one_ascending_pass(tmp_path, monkeypatch, size, x, cached):
    # The kernel strikes the small base primes one block at a time, the rest
    # over the whole segment, then each block's leftover prime.  Every n
    # still takes its factors in ascending prime order, so the chunks are
    # byte for byte those of one block holding every base prime: a float f
    # multiplied in another order differs in the last bit.  A segment of 5001
    # is 9 blocks of 555 or 556 n, a segment of 100 one block shorter than
    # the small primes from 101 on, and x ends both scans in a partial segment.
    # f's rule at the leftover primes runs on sub-blocks of at most 111 n
    # (5 or 6 per block), against one pass in the reference: an in-place
    # complex multiply of a one-element sub-block would round differently.
    assert x % size and isqrt(x) > ddl.sieve._SMALL_PRIME_BOUND
    monkeypatch.setattr(ddl.sieve, "_F_STEP", 111)
    cache_dir = None
    with oracles.segment_size(size):
        if cached:
            cache_dir = str(tmp_path)
            for chunk in scan_segments(x):
                write_segment_cache(tmp_path, chunk.lo, chunk.hi, chunk.sigma)

        def chunk_bytes(spec):
            return [[None if a is None else a.tobytes() for a in (c.n, c.sigma, c.fvals, c.omega)]
                    for c in scan_segments(x, f=parse_spec(spec), with_omega=True,
                                           cache_dir=cache_dir)]

        blocked = {spec: chunk_bytes(spec) for spec in BLOCKED_SPECS}
        monkeypatch.setattr(ddl.sieve, "_BLOCKS_PER_SEGMENT", 1)
        monkeypatch.setattr(ddl.sieve, "_SMALL_PRIME_BOUND", x)
        monkeypatch.setattr(ddl.sieve, "_F_STEP", x)
        for spec in BLOCKED_SPECS:
            assert blocked[spec] == chunk_bytes(spec), spec


@pytest.mark.parametrize("scans", [1, 2])
def test_chunk_arrays_are_read_only(scans):
    # a chunk's arrays are views of buffers the scan reuses, so no caller may
    # write them; scans run side by side each own their buffer set
    with oracles.segment_size(1000):
        for chunks in zip(*(scan_segments(2500, f=make("tau"), with_omega=True)
                            for _ in range(scans))):
            assert len({c.lo for c in chunks}) == 1
            for chunk in chunks:
                for a in (chunk.n, chunk.sigma, chunk.fvals, chunk.omega):
                    assert not a.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        a[0] = 0
            assert all(np.array_equal(c.fvals, chunks[0].fvals) for c in chunks)


def test_omega_values():
    for chunk in scan_segments(5000, with_omega=True):
        for k in range(0, chunk.n.size, 19):
            n = int(chunk.n[k])
            assert int(chunk.omega[k]) == oracles.omega_big_brute(n)


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("spec", ["tau", "lambda:a=1,q=3", "phi_over_n"])
def test_scan_tables_against_brute(tmp_path, spec, cached):
    # several segments, so all but the first start past 1; with the cache on,
    # sigma is read from disk and only f and Omega are sieved.  phi_over_n is
    # the one f here whose value at a leftover prime depends on the prime.
    x, size = 12_000, 2503
    f = parse_spec(spec)
    cache_dir = None
    with oracles.segment_size(size):
        if cached:
            cache_dir = str(tmp_path)
            for chunk in scan_segments(x):
                write_segment_cache(tmp_path, chunk.lo, chunk.hi, chunk.sigma)
        # a chunk is valid until the next one is asked for: check each as it comes
        los, kinds = [], set()
        for c in scan_segments(x, f=f, with_omega=True, cache_dir=cache_dir):
            los.append(c.lo)
            for k, n in enumerate(c.n.tolist()):
                fac = oracles.factor_brute(n)
                if n == 1:
                    kinds.add("one")
                elif fac[-1][0] > isqrt(c.hi):
                    kinds.add("leftover prime")
                else:
                    kinds.add("rem = 1")
                assert int(c.sigma[k]) == oracles.sigma_brute(n), n
                assert int(c.omega[k]) == oracles.omega_big_brute(n), n
                if spec == "tau":
                    assert c.fvals[k] == np.prod([j + 1 for _, j in fac]), n
                elif spec == "phi_over_n":
                    phi_ratio = np.prod([1 - 1 / q for q, _ in fac])
                    assert c.fvals[k] == pytest.approx(phi_ratio, rel=1e-13), n
                else:
                    assert abs(c.fvals[k] - oracles.lambda_brute(n, 1, 3)) < 1e-12, n
    assert los == list(range(1, x + 1, size))
    assert kinds == {"one", "leftover prime", "rem = 1"}


def test_segment_tables_at_sieve_limit():
    # the largest sigma products the sieve forms, in one short segment ending at
    # SIEVE_LIMIT; a leftover prime near 4e9 plus 1 still fits the uint32 cofactor
    lo, hi = SIEVE_LIMIT - 4095, SIEVE_LIMIT
    (chunk,) = _scan(lo, hi, None, False, None)
    n, sigma = chunk.n, chunk.sigma
    assert np.array_equal(n, np.arange(lo, hi + 1))
    # the primes among the last 100 n, by trial division: their leftover is n itself
    prime_ks = [m - lo for m in range(hi - 99, hi + 1) if oracles.factor_brute(m) == [(m, 1)]]
    picks = set(np.argsort(sigma)[-10:].tolist()) | set(range(0, n.size, 409)) | set(prime_ks)
    assert len(prime_ks) == 5 and len(picks) >= 20
    facs = {k: oracles.factor_brute(int(n[k])) for k in sorted(picks)}
    for k, fac in facs.items():
        assert int(sigma[k]) == oracles.sigma_brute(int(n[k])), int(n[k])
    assert sum(fac[-1][0] > isqrt(hi) for fac in facs.values()) >= 10
    # f and Omega over the same segment, sigma sieved alongside them
    for spec in ("tau", "phi_over_n", "r"):
        f = make(spec)
        (chunk,) = _scan(lo, hi, f, True, None)
        sigma_f, fv, om = chunk.sigma, chunk.fvals, chunk.omega
        assert np.array_equal(sigma_f, sigma)
        for k, fac in facs.items():
            m = int(n[k])
            assert int(om[k]) == sum(j for _, j in fac), m
            if spec == "tau":
                assert fv[k] == np.prod([j + 1 for _, j in fac]), m
            elif spec == "phi_over_n":
                assert fv[k] == pytest.approx(np.prod([1 - 1 / q for q, _ in fac]), rel=1e-13), m
            else:
                # r(n) = prod over q = 1 mod 4 of (j + 1), and 0 when some q = 3 mod 4
                # has odd j
                want = np.prod([j + 1 if q % 4 == 1 else 1 - j % 2 for q, j in fac if q != 2])
                assert fv[k] == want, m


# spec strings for the catalog entries that take parameters: both a real and
# a complex exponent for the power rules, a real and a complex lambda
CATALOG_PARAMS = {
    "lfree": ["lfree:l=3"],
    "phi_over_n_pow": ["phi_over_n_pow:re=-1.5,im=0", "phi_over_n_pow:re=0.5,im=2"],
    "sigma_over_n_pow": ["sigma_over_n_pow:re=2,im=0", "sigma_over_n_pow:re=1,im=2"],
    "lambda": ["lambda:a=1,q=2", "lambda:a=1,q=3"],
    "principal_character": ["principal_character:q=6"],
    "quadratic_character": ["quadratic_character:q=3"],
}
CATALOG_SCAN = [*(parse_spec(spec) for cid in catalog_ids()
                  for spec in CATALOG_PARAMS.get(cid, [cid])),
                oracles.restrict_coprime(make("sigma_over_n"), 5)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("f", CATALOG_SCAN, ids=lambda f: f.spec_string())
def test_scan_f_values_over_catalog(tmp_path, f, cached):
    # f's rule meets every n's cofactor, 1 included (0/0 for sigma_over_n),
    # and only the leftover primes may keep its value; no warning may escape
    x, size = 2_000, 449
    cache_dir = None
    with oracles.segment_size(size):
        if cached:
            cache_dir = str(tmp_path)
            for chunk in scan_segments(x):
                write_segment_cache(tmp_path, chunk.lo, chunk.hi, chunk.sigma)
        # a chunk is valid until the next one is asked for: check each as it comes
        count = 0
        for c in scan_segments(x, f=f, cache_dir=cache_dir):
            count += 1
            want = np.array([complex(oracles.evaluate(f, n)) for n in c.n.tolist()])
            if f.is_one:
                assert c.fvals is None and np.all(want == 1)
                continue
            assert c.fvals.dtype == (np.complex128 if f.complex_valued else np.float64)
            np.testing.assert_allclose(c.fvals, want, rtol=1e-12, atol=0)
    assert count == 5


def test_cache_round_trip(tmp_path):
    sigma = sigma_table(4096)[1:]
    write_segment_cache(tmp_path, 1, 4096, sigma)
    back = read_segment_cache(tmp_path, 1, 4096)
    assert np.array_equal(back, sigma)
    assert read_segment_cache(tmp_path, 1, 9999) is None
    # scan with the cache produces identical tables
    with oracles.segment_size(4096):
        direct = [c.sigma.copy() for c in scan_segments(4096)]
        cached = [c.sigma.copy() for c in scan_segments(4096, cache_dir=str(tmp_path))]
    assert len(direct) == len(cached) == 1
    assert np.array_equal(direct[0], cached[0])
    # corrupt header is ignored, not fatal
    path = tmp_path / "sigma_1_4096.sgma"
    raw = bytearray(path.read_bytes())
    raw[0] = 0
    path.write_bytes(bytes(raw))
    assert read_segment_cache(tmp_path, 1, 4096) is None


def test_cache_payload_checksum(tmp_path):
    x, size = 20_000, 4096
    with oracles.segment_size(size):
        for chunk in scan_segments(x):
            write_segment_cache(tmp_path, chunk.lo, chunk.hi, chunk.sigma)
        assert not list(tmp_path.glob("*.tmp"))
        # flip one payload byte: the header still matches, the crc32 does not
        path = tmp_path / f"sigma_{size + 1}_{2 * size}.sgma"
        raw = bytearray(path.read_bytes())
        raw[-100] ^= 0x01
        path.write_bytes(bytes(raw))
        assert read_segment_cache(tmp_path, size + 1, 2 * size) is None
        # the damaged segment is sieved again, so the table is unchanged
        assert np.array_equal(sigma_table(x, cache_dir=str(tmp_path)), sigma_table(x))


def test_bounds_and_limits():
    # the sieve holds its cofactor as uint32, and a leftover prime plus 1 must fit
    assert SIEVE_LIMIT + 1 < 2 ** 32
    with pytest.raises(SieveError):
        sigma_table(0)
    with pytest.raises(ResourceLimitError):
        next(scan_segments(SIEVE_LIMIT + 1))
    # refused before anything is allocated: the dense table would need 2.4 GB
    with pytest.raises(ResourceLimitError, match="over the 2.0 GB budget"):
        sigma_table(300_000_000)
    # refused before the sieve starts, on the estimate of a whole-range mask and list
    with pytest.raises(ResourceLimitError, match="need 89.5 GB, over the 2.0 GB budget"):
        primes_up_to(10 ** 11)
