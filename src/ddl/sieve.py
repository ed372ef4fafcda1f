"""Segmented sieve producing exact sum-of-divisors tables, plus a streaming
scan that hands [1, x] to accumulators one cache-friendly segment at a time,
optionally with f(n) and Omega(n) for each n.

sigma(n) is kept as an exact int64 throughout so that threshold tests of the
form n * den <= num * sigma(n) can be decided in integer arithmetic; floating
point enters only when statistics are formed.  The per-segment work for each
base prime p walks the powers p, p^2, ... with strided slice updates, which
gives sigma(n), f(n) and Omega(n) for a whole segment in a handful of numpy
passes (about sum_{p <= sqrt(x)} 1/p ~ 2.5 element-ops per n).  The
cofactor rem, n with the base primes divided out, is held as uint32: it is
exact because n <= SIEVE_LIMIT < 2^32, and so is the step below that adds 1
to a leftover prime, since SIEVE_LIMIT + 1 < 2^32 as well.  The strided
divisions then move half the bytes of int64.  Each prime's factors for the
multiples of p, 1 + p + ... + p^j for sigma and f(p^j) for f, are slices of
two scratch buffers of size // 2 + 1 allocated once per segment; they stay
local to the call, because with workers > 1 segments run in threads at once.
What is left in rem is 1 or one prime p above sqrt(hi).  sigma takes its
factor 1 + p in one unmasked multiply by rem + (rem > 1), and Omega its
count by adding rem > 1.  f's rule runs on every rem, 1 included, and one
multiply masked by rem > 1 keeps its value at the leftover primes only; the
value at 1 (0/0 for sigma_over_n) is computed with floating-point warnings
off and discarded.  The values f(p^j) at the base primes are computed once
per scan, one vectorized call per level j, and shared by every segment.

The base primes come from primes_up_to, a segmented sieve of Eratosthenes
over the odd numbers (slot i stands for 2i + 1).  Its own base primes, the
odd primes up to sqrt(limit), come from the same function called at
sqrt(limit).  The odd slots are then marked in segments of SEGMENT_SIZE
slots, one 1 MB mask reused for every segment; each base prime p strikes
every p-th slot from p^2 on, and carries the offset of its next multiple
from one segment to the next.  The survivors of each segment are joined in
order.

[1, x] is cut into segments of the fixed length SEGMENT_SIZE, so every scan
up to x has the same layout.  At 2^20 a segment's int64 arrays take 8 MB
each, which keeps the strided passes close to cache; a smaller size would
run the Python loop over the base primes more often per n.  Segments are
independent work units; with workers > 1 they are computed by a thread pool
and merged in segment order, so results do not depend on the worker count.
A sigma cache is used only when the caller names its directory; cache files
are keyed by exact segment bounds, so every full segment is shared by all
scans that reach it, and the last, partial segment only by scans to the
same x.  Each file carries a crc32 of its payload; a file that fails it is
ignored and the segment is sieved again.
"""

from __future__ import annotations

import math
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
    "SEGMENT_SIZE",
    "SIEVE_LIMIT",
    "ScanChunk",
    "primes_up_to",
    "scan_segments",
    "sigma_table",
    "write_segment_cache",
    "read_segment_cache",
]

# Length of every scan segment but the last.  Changing it changes the
# segment bounds, so most cache files written before match no segment: they
# are missed and sieved again.
SEGMENT_SIZE = 1 << 20

# Upper bound on sieved n.  sigma(n) < n (1 + ln n) keeps every threshold
# product num * sigma(n) with num <= 10^6 far below 2^63, and lets cache
# headers store bounds as uint32.
SIEVE_LIMIT = 4_000_000_000

CACHE_MAGIC = b"SGMA"
CACHE_VERSION = 2
_CACHE_HEADER = struct.Struct("<4sIIII")  # magic, version, lo, hi, crc32 of payload  (20 bytes)

# Largest dense sigma table sigma_table will allocate, and the most that
# primes_up_to may hold at once: one segment mask, the segment pieces and
# the joined prime list.
SIGMA_TABLE_BUDGET_BYTES = 2_000_000_000


class SieveError(ValueError):
    """Invalid sieve request (bounds, worker count, cache directory)."""


class ResourceLimitError(SieveError):
    """Request refused because it would overflow integers or exhaust memory."""


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, by a segmented sieve over the
    odd numbers: slot i is 2i + 1, and slot 0 is 2, not 1."""
    limit = int(limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    # One byte per odd number plus 8 per prime (pi(limit) < 1.26 limit/ln limit),
    # the size of a whole-range mask and the list.  The segmented sieve holds
    # a SEGMENT_SIZE mask and 16 bytes per prime (pieces and joined list),
    # less than this from limit = 1e8 on: 1.6 GB at 2.07e9, the largest limit
    # accepted.  The estimate is checked before anything is allocated.
    need = (limit + 1) // 2 + 10 * limit / math.log(limit)
    if need > SIGMA_TABLE_BUDGET_BYTES:
        raise ResourceLimitError(
            f"primes up to {limit} need {need / 1e9:.1f} GB, "
            f"over the {SIGMA_TABLE_BUDGET_BYTES / 1e9:.1f} GB budget")
    base = primes_up_to(isqrt(limit))[1:]
    offset = base * base // 2  # slot of p^2, relative to the segment's first slot
    slots = (limit + 1) // 2
    mask = np.empty(min(SEGMENT_SIZE, slots), dtype=bool)
    pieces = []
    for start in range(0, slots, SEGMENT_SIZE):
        seg = mask[:min(SEGMENT_SIZE, slots - start)]
        seg.fill(True)
        for p, o in zip(base.tolist(), offset.tolist()):
            seg[o::p] = False
        piece = np.flatnonzero(seg)
        piece += start
        pieces.append(piece)
        # a prime that struck this segment goes on (o - size) mod p slots into
        # the next one; a prime that did not reach it is size slots nearer
        offset -= seg.size
        offset = np.where(offset < 0, offset % base, offset)
    # A lone piece is kept, not copied: freeing it would raise glibc's adaptive
    # mmap threshold past char_function's 512 KB blocks, which then come from
    # the heap and fragment it (peak RSS +4.3 MB for invert at P = 1e6).
    ps = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    ps = ps.astype(np.int64, copy=False)
    ps *= 2
    ps += 1
    ps[0] = 2
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

    fpow is the scan's f(p^j) table (_prime_power_table); fdesc's rule gives
    f at the prime left over above sqrt(hi)."""
    n = np.arange(lo, hi + 1, dtype=np.int64)
    size = n.size
    need_sigma = sigma_known is None
    sigma = np.ones(size, dtype=np.int64) if need_sigma else sigma_known
    fv = None
    if fdesc is not None:
        fv = np.ones(size, dtype=np.complex128 if fdesc.complex_valued else np.float64)
    om = np.zeros(size, dtype=np.int16) if want_omega else None

    if need_sigma or fdesc is not None or want_omega:
        rem = n.astype(np.uint32)  # n <= SIEVE_LIMIT < 2^32
        # one factor per multiple of p, the most being (size + 1) // 2 for p = 2
        if need_sigma:
            geo_buf = np.empty(size // 2 + 1, dtype=np.int64)
        if fdesc is not None:
            fp_buf = np.empty(size // 2 + 1, dtype=fv.dtype)
        for i, p in enumerate(primes.tolist()):
            if p * p > hi:
                break
            s1 = (-lo) % p
            if s1 >= size:
                continue
            cnt = (size - 1 - s1) // p + 1
            if need_sigma:
                geo = geo_buf[:cnt]
                geo.fill(1 + p)
            if fdesc is not None:
                fp = fp_buf[:cnt]
                fp.fill(fpow[0][i])
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
        # What is left in rem is 1 or one prime above sqrt(hi).
        big = rem > 1
        if want_omega:
            om += big
        if fdesc is not None:
            # the rule's value at rem = 1 (0/0 for sigma_over_n) is dropped by the mask
            with np.errstate(all="ignore"):
                np.multiply(fv, fdesc.at_primes(rem), out=fv, where=big)
        if need_sigma:
            rem += big  # 1 + p for a leftover prime p, and 1 where rem = 1; p + 1 < 2^32
            sigma *= rem
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
                  workers: int = 1, cache_dir: str | None = None):
    """Yield ScanChunk objects covering [1, x] in order, one per segment of
    SEGMENT_SIZE (read when the first chunk is asked for).

    f = None (or the constant-1 entry) skips the f-evaluation pass.  The
    chunk sequence is identical for any worker count and cache state.
    cache_dir = None reads no cache; otherwise each segment's sigma is read
    from cache_dir when a valid file for its exact bounds is there.
    """
    x = int(x)
    _check_bounds(1, x)
    if workers < 1:
        raise SieveError("workers must be >= 1")
    fdesc = None if (f is None or f.is_one) else f
    primes = primes_up_to(isqrt(x))
    fpow = _prime_power_table(primes, fdesc, x)
    bounds = [(lo, min(lo + SEGMENT_SIZE - 1, x)) for lo in range(1, x + 1, SEGMENT_SIZE)]
    if workers == 1:
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


def sigma_table(x: int, *, workers: int = 1, cache_dir: str | None = None) -> np.ndarray:
    """Exact sigma(n) for 0 <= n <= x as one int64 array (sigma[0] = 0).
    No statistic uses it; its callers are the tests and the benchmark tracer."""
    x = int(x)
    _check_bounds(1, x)
    need = (x + 1) * 8
    if need > SIGMA_TABLE_BUDGET_BYTES:
        raise ResourceLimitError(
            f"sigma table for x = {x} needs {need / 1e9:.1f} GB, "
            f"over the {SIGMA_TABLE_BUDGET_BYTES / 1e9:.1f} GB budget")
    out = np.zeros(x + 1, dtype=np.int64)
    for chunk in scan_segments(x, workers=workers, cache_dir=cache_dir):
        out[chunk.lo: chunk.hi + 1] = chunk.sigma
    return out
