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
steps then move half the bytes of int64.  rem is divided by an odd p as a
uint32 multiply by p's inverse mod 2^32, which is exact on multiples of p
(and by 2 as a shift): numpy's strided integer division takes 2-3 ns an
element, about three times the multiply.  Each prime's factors for the
multiples of p, 1 + p + ... + p^j for sigma and f(p^j) for f, are slices of
two scratch buffers.  What is left in rem is 1 or one prime p above
sqrt(hi).  sigma takes its factor 1 + p in one unmasked multiply by
rem + (rem > 1), and Omega its count by adding rem > 1.  f's rule runs on
every rem, 1 included, and one multiply masked by rem > 1 keeps its value
at the leftover primes only.  The value at 1 (0/0 for sigma_over_n) is
computed with floating-point warnings off and discarded.  The values f(p^j)
at the base primes are computed once per scan, one vectorized call per
level j, and shared by every segment.

The kernel is cache-blocked.  A segment's sigma (8 MB), rem (4 MB) and f
(8 or 16 MB) are far larger than a core's L2 cache (2 MB), so each small
prime's strided passes over a whole segment stream them in from farther
out.  Each segment is cut into blocks of equal length (to
within one) of at most L = SEGMENT_SIZE // 8 = 2^17 n, and worked in three
steps.  The base primes below B = 128 strike one block at a time, while the
block's rem, sigma, f and Omega stay in L2.  The base primes from B to
sqrt(hi) then strike the whole segment.  Last, the leftover-prime step runs
block by block, and f's rule in it on sub-blocks of equal length (to
within one) of at most 2^12 n.  So the rule's temporaries, rem's int64
copy and the rule's values, 8 to 16 bytes per n each, stay under glibc's
128 KiB mmap threshold.  A block's 1 MB temporaries are mapped afresh,
and faulted in again, every block unless an earlier free happens to have
raised that threshold: a cached tau estimate took 41,600 minor faults
that way against 6,600 with the sub-blocks (BENCH_qualblock.json).  B and
L were chosen by an in-process sweep over B = 16-512 and L = 2^14-2^19
(BENCH_blocked.json).  The order of the steps is fixed: every n takes its
factors in ascending prime order, then the leftover prime's, as in one
pass over the segment, so f(n) is the same float product at any block
length; striking the large primes first changes f's last bit.  The scratch
buffers hold one factor per multiple of a prime in a block, or for p >= B
in the segment: max(L // 2, ceil(SEGMENT_SIZE / B)) + 1 entries, a
sixteenth of the segment.  When a segment has more than one block, each
block is at least 2 B n long, so each small prime strikes it at least
twice: numpy rounds an in-place complex multiply of a one-element array
differently from a longer one, so a single strike could change f's last
bit.  For the same reason no sub-block of the rule is one n long unless
its block is.

A scan is one generator.  Its locals are the base primes, the f(p^j)
table and one buffer set (n, sigma, rem, the two scratch buffers, f and
Omega), allocated once per scan for SEGMENT_SIZE n.  Every segment is
computed in that set, n moved on in place, and only once the caller has
asked for the next chunk, so a chunk's arrays, read-only views of the set,
are valid until then; a segment's temporaries are freed before its chunk
is handed out.  A cache hit is read into the set's sigma.

Primes come from prime_segments, a segmented sieve of Eratosthenes over
the odd numbers (slot i stands for 2i + 1) that hands them out as a stream,
one array per segment of SEGMENT_SIZE slots.  Its base primes, the odd
primes up to sqrt(limit), come from primes_up_to(sqrt(limit)).  The odd
slots are marked one segment at a time in one 1 MB mask reused for every
segment; each base prime p strikes every p-th slot from p^2 on, and carries
the offset of its next multiple from one segment to the next.  The analytic
ops reduce the stream segment by segment, so they hold one segment's primes
at any limit.  primes_up_to joins the stream into one array; it gives the
scan its base primes (sqrt x) and the stream its own.

[1, x] is cut into segments of the fixed length SEGMENT_SIZE, so every scan
up to x has the same layout.  At 2^20 a segment's int64 arrays take 8 MB
each, which keeps the strided passes close to cache; a smaller size would
run the Python loop over the base primes more often per n.  A sigma cache
is used only when the caller names its directory; cache files are keyed by
exact segment bounds, so every full segment is shared by all scans that
reach it, and the last, partial segment only by scans to the same x.  Each
file carries a crc32 of its payload; a file that fails it is ignored and
the segment is sieved again.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from bisect import bisect_left, bisect_right
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
    "PRIME_LIMIT",
    "ScanChunk",
    "prime_segments",
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

# The scan's kernel strikes the base primes below _SMALL_PRIME_BOUND into one
# block of at most SEGMENT_SIZE // _BLOCKS_PER_SEGMENT n at a time, and the
# larger ones into the whole segment (see the module docstring).
_SMALL_PRIME_BOUND = 128
_BLOCKS_PER_SEGMENT = 8
# f's rule at the leftover primes runs on at most _F_STEP n at a time, so that
# its temporaries (8 to 16 bytes per n each) stay under glibc's 128 KiB mmap
# threshold (see the module docstring).
_F_STEP = 1 << 12

# Upper bound on sieved n.  sigma(n) < n (1 + ln n) keeps every threshold
# product num * sigma(n) with num <= 10^6 far below 2^63, and lets cache
# headers store bounds as uint32.
SIEVE_LIMIT = 4_000_000_000

# Upper bound on the primes streamed by prime_segments, and so on every
# analytic P, x and p_cap.  Memory does not set it: the stream holds one
# segment's primes and the base primes up to sqrt(P), and `analytic mean`
# peaks at 52 MB at P = 1e10 as at 1e8.  Time does: the per-segment loop
# over the base primes grows with sqrt(P), so `analytic mean` takes 5 s at
# P = 1e9 and 80 s at 1e10 (one run each, 2-core Xeon VM), and 1e11 would
# run for well over ten minutes with no progress shown.  Below the limit
# float64 holds every prime exactly.
PRIME_LIMIT = 10 ** 10

CACHE_MAGIC = b"SGMA"
CACHE_VERSION = 2
_CACHE_HEADER = struct.Struct("<4sIIII")  # magic, version, lo, hi, crc32 of payload  (20 bytes)

# Largest dense sigma table sigma_table will allocate, and the most that
# primes_up_to may hold at once: one segment mask, the segment pieces and
# the joined prime list.  The analytic ops read prime_segments instead,
# which holds one segment at a time, so this budget does not bound them.
SIGMA_TABLE_BUDGET_BYTES = 2_000_000_000


class SieveError(ValueError):
    """Invalid sieve request (bounds, cache directory)."""


class ResourceLimitError(SieveError):
    """Request refused because it would overflow integers or exhaust memory."""


def prime_segments(limit: int):
    """The primes <= limit as a stream of int64 arrays in ascending order, one
    per segment of SEGMENT_SIZE odd slots (2 SEGMENT_SIZE integers), by a
    segmented sieve over the odd numbers: slot i is 2i + 1, and slot 0 is 2,
    not 1.  A segment without primes gives an empty array.  The limit is
    checked against PRIME_LIMIT when this is called, before any prime is
    sieved."""
    limit = int(limit)
    if limit > PRIME_LIMIT:
        raise ResourceLimitError(
            f"prime bound {limit} exceeds the supported limit {PRIME_LIMIT}")
    return _odd_sieve(limit)


def _odd_sieve(limit: int):
    if limit < 2:
        return
    base = primes_up_to(isqrt(limit))[1:]
    offset = base * base // 2  # slot of p^2, relative to the segment's first slot
    slots = (limit + 1) // 2
    mask = np.empty(min(SEGMENT_SIZE, slots), dtype=bool)
    for start in range(0, slots, SEGMENT_SIZE):
        seg = mask[:min(SEGMENT_SIZE, slots - start)]
        seg.fill(True)
        for p, o in zip(base.tolist(), offset.tolist()):
            seg[o::p] = False
        piece = np.flatnonzero(seg).astype(np.int64, copy=False)
        piece += start
        piece *= 2
        piece += 1
        if start == 0:
            piece[0] = 2
        yield piece
        # a prime that struck this segment goes on (o - size) mod p slots into
        # the next one; a prime that did not reach it is size slots nearer
        offset -= seg.size
        offset = np.where(offset < 0, offset % base, offset)


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as one int64 array: the segments of prime_segments
    joined.  The analytic ops read the stream itself; this serves the scan's
    base primes (sqrt x) and the stream's own."""
    limit = int(limit)
    # One byte per odd number plus 8 per prime (pi(limit) < 1.26 limit/ln limit),
    # the size of a whole-range mask and the list.  The segmented sieve holds
    # a SEGMENT_SIZE mask and 16 bytes per prime (pieces and joined list),
    # less than this from limit = 1e8 on: 1.6 GB at 2.07e9, the largest limit
    # accepted.  The estimate is checked before anything is allocated.
    if limit >= 2:
        need = (limit + 1) // 2 + 10 * limit / math.log(limit)
        if need > SIGMA_TABLE_BUDGET_BYTES:
            raise ResourceLimitError(
                f"primes up to {limit} need {need / 1e9:.1f} GB, "
                f"over the {SIGMA_TABLE_BUDGET_BYTES / 1e9:.1f} GB budget")
    pieces = list(prime_segments(limit)) or [np.empty(0, dtype=np.int64)]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _check_bounds(lo: int, hi: int):
    if not (1 <= lo <= hi):
        raise SieveError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > SIEVE_LIMIT:
        raise ResourceLimitError(
            f"hi = {hi} exceeds the supported sieve limit {SIEVE_LIMIT} "
            "(sigma and threshold products are guaranteed exact only below it)")


@dataclass(frozen=True)
class ScanChunk:
    """One segment's worth of per-n data handed to accumulators, as read-only
    views valid until the next chunk is asked for (scan_segments)."""
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


def read_segment_cache(cache_dir, lo: int, hi: int, out: np.ndarray | None = None
                       ) -> np.ndarray | None:
    """Load a cached sigma table, into out (hi - lo + 1 contiguous int64) when
    given; None when absent, of another version or damaged (bad header,
    length or payload checksum), so the caller sieves the segment again.
    out's contents are then undefined.  Never raises."""
    path = _cache_path(cache_dir, lo, hi)
    try:
        with open(path, "rb") as fh:
            head = fh.read(_CACHE_HEADER.size)
            if len(head) != _CACHE_HEADER.size:
                return None
            magic, version, clo, chi, crc = _CACHE_HEADER.unpack(head)
            if magic != CACHE_MAGIC or version != CACHE_VERSION or clo != lo or chi != hi:
                return None
            sigma = np.empty(hi - lo + 1, dtype=np.int64) if out is None else out
            if fh.readinto(sigma) != sigma.nbytes or fh.read(1):
                return None
    except OSError:
        return None
    if zlib.crc32(sigma) != crc:
        return None
    return sigma


def scan_segments(x: int, *, f: MultFunc | None = None, with_omega: bool = False,
                  cache_dir: str | None = None):
    """Yield ScanChunk objects covering [1, x] in order, one per segment of
    SEGMENT_SIZE (read when the first chunk is asked for).

    f = None (or the constant-1 entry) skips the f-evaluation pass.  The
    chunk sequence is identical for any cache state.  cache_dir = None reads
    no cache; otherwise each segment's sigma is read from cache_dir when a
    valid file for its exact bounds is there.

    A chunk's arrays are read-only views of buffers the scan reuses.  They
    are valid until the next chunk is asked for, so a caller reduces or
    copies each chunk before it asks for the next one.
    """
    return _scan(1, int(x), f, with_omega, cache_dir)


def _strike(lo, rem, sigma, fv, om, ps, pinv, fpow, i0, i1, geo_buf, fp_buf):
    """Divide the base primes ps[i0:i1], in ascending order, out of rem over
    the block [lo, lo + rem.size): multiply each p^j's factor into sigma and
    fv and add j to om, each skipped when None.  pinv[i] is ps[i]^-1 mod 2^32
    (odd primes), fpow[j - 1][i] is f(ps[i]^j); geo_buf and fp_buf hold one
    factor per multiple of a prime in the block."""
    size = rem.size
    hi = lo + size - 1
    for i in range(i0, i1):
        p = ps[i]
        s1 = (-lo) % p
        if s1 >= size:
            continue
        cnt = (size - 1 - s1) // p + 1
        if sigma is not None:
            geo = geo_buf[:cnt]
            geo.fill(1 + p)
        if fv is not None:
            fp = fp_buf[:cnt]
            fp.fill(fpow[0][i])
        q, j, se = p, 1, s1
        while True:
            # p out of the multiples of p^j: a shift for 2, else a multiply by
            # p's inverse mod 2^32, exact on multiples of p and several times
            # faster than a strided integer division
            if p == 2:
                rem[se::q] >>= 1
            else:
                rem[se::q] *= pinv[i]
            if om is not None:
                om[se::q] += 1
            q *= p
            j += 1
            if q > hi:
                break
            se = (-lo) % q
            if se >= size:
                break
            k0 = (se - s1) // p
            st = q // p
            if sigma is not None:
                geo[k0::st] += q
            if fv is not None:
                fp[k0::st] = fpow[j - 1][i]
        if sigma is not None:
            sigma[s1::p] *= geo
        if fv is not None:
            fv[s1::p] *= fp


def _scan(first, x, f, want_omega, cache_dir):
    """scan_segments over [first, x], in segments that start at first."""
    _check_bounds(first, x)
    fdesc = None if (f is None or f.is_one) else f
    primes = primes_up_to(isqrt(x))
    # f(p^j) for the base primes, one list per level j = 1, 2, ... holding the
    # primes with p^j <= x; pw is p^j for the primes still active, ascending,
    # and p^j <= x^1.5 fits int64
    fpow, pw = [], primes[:0] if fdesc is None else primes
    while cnt := int(np.count_nonzero(pw <= x)):
        fpow.append(fdesc.prime_powers(primes[:cnt], len(fpow) + 1).tolist())
        pw = pw[:cnt] * primes[:cnt]
    ps = primes.tolist()
    pinv = [pow(p, -1, 1 << 32) if p > 2 else 0 for p in ps]
    small = bisect_left(ps, _SMALL_PRIME_BOUND)
    # The buffer set, sized for the first (longest) segment; a shorter last
    # segment uses its first hi - lo + 1 entries.
    step = SEGMENT_SIZE
    # A segment is cut into ceil(size / block) blocks of equal length (to
    # within one), so a segment of more than one block has blocks of at
    # least 2 B n, which each small prime strikes at least twice.
    block = max(step // _BLOCKS_PER_SEGMENT, 4 * _SMALL_PRIME_BOUND)
    n_buf = np.arange(first, first + min(step, x - first + 1), dtype=np.int64)
    sigma_buf = np.empty(n_buf.size, dtype=np.int64)
    rem_buf = np.empty(n_buf.size, dtype=np.uint32)
    # geo and fp take one factor per multiple of a base prime p: at most
    # ceil(block / 2) for p = 2 in a block, ceil(size / B) for p >= B in a segment
    strikes = max(min(block, n_buf.size) // 2, -(-n_buf.size // _SMALL_PRIME_BOUND)) + 1
    geo_buf = None  # allocated when sigma is first sieved, not read from the cache
    fv_buf = fp_buf = om_buf = None
    if fdesc is not None:
        fv_buf = np.empty(n_buf.size, dtype=fdesc.dtype)
        fp_buf = np.empty(strikes, dtype=fdesc.dtype)
    if want_omega:
        om_buf = np.empty(n_buf.size, dtype=np.int16)
    for lo in range(first, x + 1, step):
        hi = min(lo + step - 1, x)
        size = hi - lo + 1
        if lo != first:
            n_buf += step
        n, sigma = n_buf[:size], sigma_buf[:size]
        # out goes positionally, so a wrapper taking the read's arguments as
        # *args passes it on
        need_sigma = not (cache_dir and read_segment_cache(cache_dir, lo, hi, sigma) is not None)
        if need_sigma and geo_buf is None:
            geo_buf = np.empty(strikes, dtype=np.int64)
        fv = None if fv_buf is None else fv_buf[:size]
        om = None if om_buf is None else om_buf[:size]
        # the arrays to sieve: sigma unless read from the cache, f and Omega when asked for
        arrays = (rem_buf[:size], sigma if need_sigma else None, fv, om)
        if any(a is not None for a in arrays[1:]):
            nbase = bisect_right(ps, isqrt(hi))  # the primes with p^2 <= hi
            nsmall = min(small, nbase)
            k = -(-size // block)
            slices = [slice(size * i // k, size * (i + 1) // k) for i in range(k)]
            blocks = [tuple(None if a is None else a[s] for a in arrays) for s in slices]
            # Each n takes its factors in ascending prime order, the leftover
            # prime last, so f(n) is the same product at any block length.
            for s, (rem, sig, fv_b, om_b) in zip(slices, blocks):
                rem[...] = n[s]  # n <= SIEVE_LIMIT < 2^32
                for a, one in ((sig, 1), (fv_b, 1), (om_b, 0)):
                    if a is not None:
                        a.fill(one)
                _strike(lo + s.start, rem, sig, fv_b, om_b, ps, pinv, fpow, 0, nsmall, geo_buf,
                        fp_buf)
            _strike(lo, *arrays, ps, pinv, fpow, nsmall, nbase, geo_buf, fp_buf)
            # What is left in rem is 1 or one prime above sqrt(hi).
            for rem, sig, fv_b, om_b in blocks:
                big = rem > 1
                if om_b is not None:
                    om_b += big
                if fv_b is not None:
                    # the rule's value at rem = 1 (0/0 for sigma_over_n) is dropped by
                    # the mask; it runs on ceil(size / _F_STEP) sub-blocks of equal
                    # length (to within one), none of one n unless the block is
                    j = -(-rem.size // _F_STEP)
                    for t in range(j):
                        u = slice(rem.size * t // j, rem.size * (t + 1) // j)
                        fu = fv_b[u]
                        with np.errstate(all="ignore"):
                            np.multiply(fu, fdesc.at_primes(rem[u]), out=fu, where=big[u])
                if sig is not None:
                    rem += big  # 1 + p for a leftover prime p, and 1 where rem = 1; p + 1 < 2^32
                    sig *= rem
            del big  # a generator's locals outlive its yield
        for a in (n, sigma, fv, om):
            if a is not None:
                a.flags.writeable = False
        yield ScanChunk(lo, hi, n, sigma, fv, om)


def sigma_table(x: int, *, cache_dir: str | None = None) -> np.ndarray:
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
    for chunk in scan_segments(x, cache_dir=cache_dir):
        out[chunk.lo: chunk.hi + 1] = chunk.sigma
    return out
