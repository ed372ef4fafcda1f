"""Segmented sieve producing exact sum-of-divisors tables, plus a streaming
scan that hands [1, x] to accumulators one cache-friendly segment at a time,
optionally with f(n) and Omega(n) for each n.

sigma(n) is kept as an exact int64 throughout so that threshold tests of the
form n * den <= num * sigma(n) can be decided in integer arithmetic; floating
point enters only when statistics are formed.  The per-segment work for each
base prime p walks the powers p, p^2, ... with strided slice updates, which
gives sigma(n), f(n) and Omega(n) for a whole segment in a handful of numpy
passes (about sum_{p <= sqrt(x)} 1/p ~ 2.5 element-ops per n).  The values
f(p^j) at the base primes are computed once per scan, one vectorized call
per level j, and shared by every segment.

Segments are independent work units; with workers > 1 they are computed by a
thread pool and merged in segment order, so results do not depend on the
worker count.  A sigma cache is used only when the caller names its
directory; cache files are keyed by exact segment bounds, so a cache serves
only scans at the segment size it was written with.  Each file carries a
crc32 of its payload; a file that fails it is ignored and the segment is
sieved again.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import numpy as np

from .multfunc import MultFunc

__all__ = [
    "SieveError",
    "ResourceLimitError",
    "DEFAULT_SEGMENT_SIZE",
    "SIEVE_LIMIT",
    "ScanChunk",
    "primes_up_to",
    "scan_segments",
    "sigma_table",
    "write_segment_cache",
    "read_segment_cache",
]

DEFAULT_SEGMENT_SIZE = 1 << 22

# Upper bound on sieved n.  sigma(n) < n (1 + ln n) keeps every threshold
# product num * sigma(n) with num <= 10^6 far below 2^63, and lets cache
# headers store bounds as uint32.
SIEVE_LIMIT = 4_000_000_000

CACHE_MAGIC = b"SGMA"
CACHE_VERSION = 2
_CACHE_HEADER = struct.Struct("<4sIIII")  # magic, version, lo, hi, crc32 of payload  (20 bytes)

# Largest dense sigma table sigma_table will allocate.
SIGMA_TABLE_BUDGET_BYTES = 2_000_000_000


class SieveError(ValueError):
    """Invalid sieve request (bounds, segment size, cache directory)."""


class ResourceLimitError(SieveError):
    """Request refused because it would overflow integers or exhaust memory."""


_PRIME_CACHE: dict[int, np.ndarray] = {}


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (treat as read-only)."""
    limit = int(limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    cached = _PRIME_CACHE.get(limit)
    if cached is not None:
        return cached
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    ps = np.nonzero(mask)[0].astype(np.int64)
    # keep only the most recent two requests; big prime lists are ~50 MB
    if len(_PRIME_CACHE) >= 2:
        _PRIME_CACHE.pop(next(iter(_PRIME_CACHE)))
    _PRIME_CACHE[limit] = ps
    return ps


def _check_bounds(lo: int, hi: int):
    if not (1 <= lo <= hi):
        raise SieveError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > SIEVE_LIMIT:
        raise ResourceLimitError(
            f"hi = {hi} exceeds the supported sieve limit {SIEVE_LIMIT} "
            "(sigma and threshold products are guaranteed exact only below it)")


def _prime_power_table(primes, fdesc, x):
    """f(p^j) for the base primes, one list per level j = 1, 2, ... holding
    the primes with p^j <= x; None when f is not evaluated."""
    if fdesc is None:
        return None
    table = []
    pw = primes  # p^j for the primes still active, ascending; p^j <= x^1.5 fits int64
    while True:
        cnt = int(np.count_nonzero(pw <= x))
        if cnt == 0:
            return table
        table.append(fdesc.prime_powers(primes[:cnt], len(table) + 1).tolist())
        pw = pw[:cnt] * primes[:cnt]


def _segment_tables(lo, hi, primes, fdesc, fpow, want_omega, sigma_known=None):
    """Core per-segment pass: sigma, f values and Omega over [lo, hi].

    fpow is the scan's f(p^j) table (_prime_power_table); fdesc evaluates f
    only at the prime left over above sqrt(hi)."""
    n = np.arange(lo, hi + 1, dtype=np.int64)
    size = n.size
    need_sigma = sigma_known is None
    sigma = np.ones(size, dtype=np.int64) if need_sigma else sigma_known
    fv = None
    if fdesc is not None:
        fv = np.ones(size, dtype=np.complex128 if fdesc.complex_valued else np.float64)
    om = np.zeros(size, dtype=np.int16) if want_omega else None

    if need_sigma or fdesc is not None or want_omega:
        rem = n.copy()
        for i, p_ in enumerate(primes):
            p = int(p_)
            if p * p > hi:
                break
            s1 = (-lo) % p
            if s1 >= size:
                continue
            cnt = (size - 1 - s1) // p + 1
            if need_sigma:
                geo = np.full(cnt, 1 + p, dtype=np.int64)
            if fdesc is not None:
                fp = np.full(cnt, fpow[0][i], dtype=fv.dtype)
            rem[s1::p] //= p
            if want_omega:
                om[s1::p] += 1
            q = p * p
            pw = p * p
            j = 2
            while q <= hi:
                se = (-lo) % q
                if se >= size:
                    break
                k0 = (se - s1) // p
                st = q // p
                if need_sigma:
                    geo[k0::st] += pw
                if fdesc is not None:
                    fp[k0::st] = fpow[j - 1][i]
                rem[se::q] //= p
                if want_omega:
                    om[se::q] += 1
                q *= p
                pw *= p
                j += 1
            if need_sigma:
                sigma[s1::p] *= geo
            if fdesc is not None:
                fv[s1::p] *= fp
        big = rem > 1
        if need_sigma:
            sigma[big] *= rem[big] + 1
        if fdesc is not None:
            bp = rem[big]
            if bp.size:
                fv[big] *= fdesc.at_primes(bp)
        if want_omega:
            om[big] += 1
    return n, sigma, fv, om


@dataclass(frozen=True)
class ScanChunk:
    """One segment's worth of per-n data handed to accumulators."""
    lo: int
    hi: int
    n: np.ndarray        # int64
    sigma: np.ndarray    # int64
    fvals: np.ndarray | None   # f(n) per n, None when f is identically 1
    omega: np.ndarray | None   # Omega(n) per n when requested


def _cache_path(cache_dir, lo, hi) -> Path:
    return Path(cache_dir) / f"sigma_{lo}_{hi}.sgma"


def write_segment_cache(cache_dir, lo: int, hi: int, sigma: np.ndarray) -> Path:
    """Write a binary sigma cache: 20-byte header {SGMA, version, lo, hi,
    crc32} + int64 payload.  The file is written under a temporary name and
    renamed into place, so a reader never sees a partial file."""
    path = _cache_path(cache_dir, lo, hi)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = np.ascontiguousarray(sigma, dtype=np.int64)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, lo, hi, zlib.crc32(payload)))
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_segment_cache(cache_dir, lo: int, hi: int) -> np.ndarray | None:
    """Load a cached sigma table; None when absent, of another version or
    damaged (bad header, length or payload checksum), so the caller sieves
    the segment again.  Never raises."""
    path = _cache_path(cache_dir, lo, hi)
    try:
        with open(path, "rb") as fh:
            head = fh.read(_CACHE_HEADER.size)
            if len(head) != _CACHE_HEADER.size:
                return None
            magic, version, clo, chi, crc = _CACHE_HEADER.unpack(head)
            if magic != CACHE_MAGIC or version != CACHE_VERSION or clo != lo or chi != hi:
                return None
            sigma = np.empty(hi - lo + 1, dtype=np.int64)
            if fh.readinto(sigma) != sigma.nbytes or fh.read(1):
                return None
    except OSError:
        return None
    if zlib.crc32(sigma) != crc:
        return None
    return sigma


def _scan_one(lo, hi, primes, fdesc, fpow, want_omega, cache_dir):
    sigma_known = read_segment_cache(cache_dir, lo, hi) if cache_dir else None
    n, sigma, fv, om = _segment_tables(lo, hi, primes, fdesc, fpow, want_omega, sigma_known)
    return ScanChunk(lo, hi, n, sigma, fv, om)


def scan_segments(x: int, *, f: MultFunc | None = None, with_omega: bool = False,
                  segment_size: int | None = None, workers: int = 1,
                  cache_dir: str | None = None):
    """Yield ScanChunk objects covering [1, x] in order.

    f = None (or the constant-1 entry) skips the f-evaluation pass.  The
    chunk sequence is identical for any segment_size and worker count.
    cache_dir = None reads no cache; otherwise each segment's sigma is read
    from cache_dir when a valid file for its exact bounds is there.
    """
    x = int(x)
    _check_bounds(1, x)
    size = int(segment_size or DEFAULT_SEGMENT_SIZE)
    if size < 16:
        raise SieveError("segment_size must be >= 16")
    fdesc = None if (f is None or f.is_one) else f
    primes = primes_up_to(isqrt(x))
    fpow = _prime_power_table(primes, fdesc, x)
    bounds = [(lo, min(lo + size - 1, x)) for lo in range(1, x + 1, size)]
    if workers <= 1:
        for lo, hi in bounds:
            yield _scan_one(lo, hi, primes, fdesc, fpow, with_omega, cache_dir)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        it = iter(bounds)
        for _ in range(workers + 1):
            b = next(it, None)
            if b is None:
                break
            pending.append(pool.submit(_scan_one, b[0], b[1], primes, fdesc, fpow, with_omega,
                                       cache_dir))
        while pending:
            fut = pending.popleft()
            b = next(it, None)
            if b is not None:
                pending.append(pool.submit(_scan_one, b[0], b[1], primes, fdesc, fpow,
                                           with_omega, cache_dir))
            yield fut.result()


def sigma_table(x: int, *, segment_size: int | None = None, workers: int = 1,
                cache_dir: str | None = None) -> np.ndarray:
    """Exact sigma(n) for 0 <= n <= x as one int64 array (sigma[0] = 0)."""
    x = int(x)
    _check_bounds(1, x)
    need = (x + 1) * 8
    if need > SIGMA_TABLE_BUDGET_BYTES:
        raise ResourceLimitError(
            f"sigma table for x = {x} needs {need / 1e9:.1f} GB, "
            f"over the {SIGMA_TABLE_BUDGET_BYTES / 1e9:.1f} GB budget")
    out = np.zeros(x + 1, dtype=np.int64)
    for chunk in scan_segments(x, segment_size=segment_size, workers=workers, cache_dir=cache_dir):
        out[chunk.lo: chunk.hi + 1] = chunk.sigma
    return out
