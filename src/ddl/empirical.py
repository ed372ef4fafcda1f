"""Empirical weighted distribution functions of the divisor ratio n/sigma(n).

The central estimator accumulates, for each rational threshold u = num/den in
a grid, the sum of f(n) over n <= x with n * den <= num * sigma(n).  The
qualification test is done in exact integer arithmetic.  With D the lcm of
the grid denominators (capped at _BUCKET_CAP), the integer bucket
k = ceil(D n / sigma(n)) indexes a table, built once per grid, of the first
grid index j with u_j > (k-1)/D.  That is the answer unless a threshold lies
strictly inside the bucket, which needs the cap; those n alone step up by
exact comparisons n * den <= num * sigma(n), never past the first index with
u_j >= k/D.  No floating-point rounding can change a raw count.  With D
the lcm, the table lookup overwrites k in place, in one int64 buffer that
the estimate keeps for its whole scan, one slot per n of a segment (a
short segment with more lattice points than n replaces it).  So
qualification allocates no segment-sized array after the first chunk, and
no freed array is handed back to the kernel and faulted in again one
segment later.
Two normalizations are provided: by x (plain density) and by S(f;x) =
sum_{n<=x} f(n) (self-normalized, so the value at u = 1 is exactly 1).

Also here: the lattice-point version for sums of two squares, tent-smoothed
estimates, equidistribution tallies of Omega(n) mod q and of coprime residue
classes, and a partial-summation identity check.

Every statistic is one pass of _scan_sum: a reducer maps each scan chunk to
its weighted sum of f(n) w(n), binned by np.bincount or plain by np.sum,
through the one rule _weighted_sum, and the chunk sums are added in segment
order.  f = 1 sums, the lattice count among them, are exact int64 counts.
Each estimator takes the scan keyword cache_dir of sieve.scan_segments; no
result depends on it, since the segments and their order are fixed by x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .multfunc import MultFunc
from .sieve import ResourceLimitError, scan_segments

__all__ = [
    "GridError",
    "ThresholdGrid",
    "WeightedCdfEstimate",
    "EquidistTally",
    "estimate_weighted_cdf",
    "estimate_normalized_cdf",
    "lattice_circle_cdf",
    "smoothed_indicator_mean",
    "equidist_tally",
    "partial_summation_check",
]

MAX_DENOMINATOR = 1_000_000
_BUCKET_CAP = 1 << 20  # most qualification buckets; D * n < 2^52 for n <= SIEVE_LIMIT


class GridError(ValueError):
    """Malformed threshold grid or grid spec."""


class ThresholdGrid:
    """Strictly increasing reduced rational thresholds u_j = nums[j]/dens[j]
    in [0, 1], held as two int64 arrays, with every dens[j] <= MAX_DENOMINATOR.
    The constructor takes two integer sequences, reduces them by their gcd and
    raises GridError for a grid that breaks any of these rules or has a
    term that is not an integer."""

    __slots__ = ("nums", "dens", "floats")

    def __init__(self, nums, dens):
        try:
            with np.errstate(invalid="ignore"):  # a cast of nan or inf is refused below
                n64 = np.array(nums, dtype=np.int64)
                d64 = np.array(dens, dtype=np.int64)
            exact = np.array_equal(n64, nums) and np.array_equal(d64, dens)
        except OverflowError:
            raise GridError(f"threshold terms past 64 bits; need 0 <= num <= den <= "
                            f"{MAX_DENOMINATOR}") from None
        except (TypeError, ValueError):
            exact = False
        if not exact:  # the int64 conversion truncates 1.9 to 1 without a word
            raise GridError("threshold terms must be integers")
        nums, dens = n64, d64
        if nums.size == 0:
            raise GridError("grid must contain at least one threshold")
        bad = np.flatnonzero((nums < 0) | (nums > dens) | (dens < 1))
        if bad.size:
            raise GridError(f"threshold {nums[bad[0]]}/{dens[bad[0]]} outside [0, 1]")
        g = np.gcd(nums, dens)
        nums //= g
        dens //= g
        if dens.max() > MAX_DENOMINATOR:
            raise GridError(f"threshold denominator {dens.max()} over the {MAX_DENOMINATOR} cap")
        if np.any(nums[:-1] * dens[1:] >= nums[1:] * dens[:-1]):  # each side <= 10^12
            raise GridError("thresholds must be strictly increasing")
        self.nums, self.dens = nums, dens
        self.floats = nums / dens

    @classmethod
    def default(cls, steps: int = 200) -> "ThresholdGrid":
        """u = k/steps for k = 0..steps (includes 1/2 and 1 for even steps)."""
        if not 1 <= steps <= MAX_DENOMINATOR:  # refused before the steps + 1 thresholds are built
            raise GridError(f"steps must lie in [1, {MAX_DENOMINATOR}]")
        return cls(np.arange(steps + 1), np.full(steps + 1, steps))

    @classmethod
    def parse(cls, spec: str) -> "ThresholdGrid":
        """Grid specs: 'default', 'half', 'steps:N', or a comma list of fractions."""
        spec = spec.strip()
        if spec == "default":
            return cls.default()
        if spec == "half":
            return cls([1, 1], [2, 1])
        if spec.startswith("steps:"):
            try:
                n = int(spec.split(":", 1)[1])
            except ValueError:
                raise GridError(f"bad steps spec {spec!r}") from None
            return cls.default(n)
        try:
            fracs = [Fraction(part.strip()) for part in spec.split(",")]
        except (ValueError, ZeroDivisionError):
            raise GridError(f"cannot parse grid spec {spec!r}") from None
        return cls([t.numerator for t in fracs], [t.denominator for t in fracs])

    def __len__(self):
        return self.nums.size

    def log_points(self):
        """(indices, log u) for the strictly positive thresholds."""
        pos = np.nonzero(self.nums > 0)[0]
        return pos, np.log(self.floats[pos])


def _check_threshold_products(x: int, grid: ThresholdGrid):
    """Refuse runs whose exact qualification products could overflow int64."""
    sig_max = x * (math.log(max(x, 3)) + 2.0)  # sigma(n) < n (1 + ln n)
    if int(grid.dens.max()) * x >= 2 ** 62 or int(grid.nums.max()) * sig_max >= 2 ** 62:
        raise ResourceLimitError(
            f"threshold products for x = {x} would overflow 64-bit integers")


def _qualifies(u, x: int):
    """The one-threshold test n/sigma(n) <= u, as a function from a scan chunk
    to its mask, in exact int64 products; refused as a grid {u} would be,
    and when those products could overflow for n <= x."""
    num, den = Fraction(u).as_integer_ratio()
    _check_threshold_products(x, ThresholdGrid([num], [den]))
    return lambda chunk: den * chunk.n <= num * chunk.sigma


def _bucket_tables(grid: ThresholdGrid):
    """(D, lo, hi) with D = min(lcm of the denominators, _BUCKET_CAP), lo[k]
    the first index j with u_j > (k-1)/D and hi[k] the first with
    u_j >= k/D; hi is None when it equals lo, i.e. no threshold lies
    strictly inside a bucket, as when D is the lcm."""
    D = 1
    for d in set(grid.dens.tolist()):
        D = min(math.lcm(D, d), _BUCKET_CAP)
    scaled, k = grid.nums * D, np.arange(D + 1)
    lo = np.searchsorted(-(-scaled // grid.dens) + 1, k, side="right")  # k < ceil(u_j D) + 1
    hi = np.searchsorted(scaled // grid.dens, k, side="left")  # k <= floor(u_j D)
    return D, lo, None if np.array_equal(lo, hi) else hi


def _first_qualifying(n: np.ndarray, sigma: np.ndarray, grid: ThresholdGrid,
                      tables, buf: np.ndarray) -> np.ndarray:
    """Per element, the smallest grid index j with n * den_j <= num_j * sigma(n),
    or len(grid) where none qualifies.

    k = ceil(D n / sigma(n)) puts n/sigma(n) in ((k-1)/D, k/D], so the answer
    is lo[k] unless thresholds lie strictly inside that bucket; only those
    elements step up by exact comparisons, at most to hi[k].  All of it is
    int64 arithmetic (_check_threshold_products).

    k is computed in buf, an int64 array of at least n.size entries.  When no
    threshold lies inside a bucket (hi None) the gather lo[k] overwrites k in
    place and the result is a view of buf: each k is read before its slot is
    written, and 1 <= k <= D because sigma(n) >= n, so every k indexes lo and
    mode="clip" never clips (mode="raise" would copy out first).  The capped
    path reads k after the gather and keeps its indices apart.
    """
    D, lo, hi = tables
    k = np.multiply(n, D, out=buf[:n.size])  # then ceil in place
    k += sigma
    k -= 1
    k //= sigma
    if hi is None:
        return np.take(lo, k, out=k, mode="clip")
    idx = np.take(lo, k)
    act = np.nonzero(idx < np.take(hi, k))[0]
    while act.size:
        j = idx[act]
        act = act[grid.dens[j] * n[act] > grid.nums[j] * sigma[act]]
        idx[act] += 1
        act = act[idx[act] < hi[k[act]]]
    return idx


@dataclass(frozen=True)
class WeightedCdfEstimate:
    """Accumulated threshold sums plus their normalization.

    raw[j] is the exact accumulated sum of f(n) over qualifying n for the
    j-th threshold; values = raw / normalizer.  In "dtilde" mode the
    normalizer is S(f;x) from the same pass, so the value at u = 1 is
    exactly 1.
    """
    f_id: str
    x: int
    grid: ThresholdGrid
    raw: np.ndarray  # complex128
    normalizer: float
    mode: str  # "df" | "dtilde" | "lattice"

    @property
    def values(self) -> np.ndarray:
        return self.raw / self.normalizer

    def log_cdf(self):
        """(log u, value) pairs over the strictly positive thresholds."""
        pos, logs = self.grid.log_points()
        vals = self.values
        return logs, np.asarray(vals[pos].real, dtype=np.float64)


def _weighted_sum(fv, vals=None, *, sel=None, bins=None, m=0):
    """One chunk's sum of f(n) * vals(n) over the n that the mask sel picks
    (all n when None), with vals = 1 when None; given bins, one per picked n,
    its bincount into m slots instead.

    fv = None stands for f = 1: a count is then an exact int64 (a plain count
    needs sel).  A real f gives float64 sums and a complex f complex128 ones.
    """
    if fv is None:
        if bins is not None:
            return np.bincount(bins, minlength=m)
        return np.count_nonzero(sel) if vals is None else vals.sum()
    if sel is not None:
        fv = fv[sel]
    if bins is not None:
        part = np.bincount(bins, weights=fv.real, minlength=m)
        if np.iscomplexobj(fv):
            part = part + 1j * np.bincount(bins, weights=fv.imag, minlength=m)
        return part
    return fv.sum() if vals is None else np.sum(fv * vals)


def _scan_sum(x, reduce, **scan_kw):
    """The sum of reduce(chunk) over scan_segments(x, **scan_kw), added chunk
    by chunk in segment order: the same for any cache state."""
    total = 0
    for chunk in scan_segments(x, **scan_kw):
        total = total + reduce(chunk)
    return total


def _squares_upto(v: np.ndarray) -> np.ndarray:
    """#{y >= 0 : y^2 <= v} per element of an int64 array below 2^52: isqrt(v) + 1,
    or 0 for v < 0, from the float root corrected by one step each way."""
    r = np.sqrt(np.maximum(v, 0)).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r + 1


def _threshold_sums(f, x, grid, points=None, **scan_kw):
    """(x, grid, raw, total): the grid's accumulated sums of f and S(f;x), one
    pass; given points (f None), sums of 1 over the pairs (n, sigma(n)) it maps a chunk to."""
    x = int(x)
    if grid is None:
        grid = ThresholdGrid.default()
    _check_threshold_products(x, grid)
    tables, m = _bucket_tables(grid), len(grid) + 1
    buf = np.empty(0, dtype=np.int64)  # k, then the grid index: one per n or point

    def histogram(chunk):
        nonlocal buf
        n, sigma = (chunk.n, chunk.sigma) if points is None else points(chunk)
        if buf.size < n.size:
            # a segment's worth: about 0.79 lattice points per n, so only a short
            # segment with more points than n replaces it
            buf = np.empty(max(n.size, chunk.n.size), dtype=np.int64)
        idx = _first_qualifying(n, sigma, grid, tables, buf)
        return _weighted_sum(chunk.fvals, bins=idx, m=m)
    # raw[j] sums bins 0..j, the n meeting u_j; the last bin holds those meeting none
    ext = np.cumsum(_scan_sum(x, histogram, f=f, **scan_kw))
    return x, grid, ext[:-1].astype(np.complex128), ext[-1]


def estimate_weighted_cdf(f: MultFunc, x: int, grid: ThresholdGrid | None = None,
                          **scan_kw) -> WeightedCdfEstimate:
    """One-pass estimate of (1/x) sum_{n<=x, n/sigma(n)<=u} f(n) over the grid."""
    x, grid, raw, _ = _threshold_sums(f, x, grid, **scan_kw)
    return WeightedCdfEstimate(f.spec_string(), x, grid, raw, float(x), "df")


def estimate_normalized_cdf(f: MultFunc, x: int, grid: ThresholdGrid | None = None,
                            **scan_kw) -> WeightedCdfEstimate:
    """Self-normalized estimate: same sums divided by S(f;x) from the same pass."""
    if not f.nonneg:
        raise ValueError(f"self-normalized mode needs a nonnegative function, not {f.id}")
    x, grid, raw, total = _threshold_sums(f, x, grid, **scan_kw)
    normalizer = float(total.real)
    if normalizer == 0.0:
        raise ValueError(f"S(f;x) = 0 for f = {f.id}, x = {x}")
    return WeightedCdfEstimate(f.spec_string(), x, grid, raw, normalizer, "dtilde")


def lattice_circle_cdf(R: int, grid: ThresholdGrid | None = None,
                       **scan_kw) -> WeightedCdfEstimate:
    """Lattice-point analogue: count (x, y) with 0 < x^2 + y^2 <= R and
    (x^2+y^2)/sigma(x^2+y^2) <= u, normalized by pi R.

    Counting order is over lattice points, so raw counts are exact integers;
    they equal 4 * sum_{n<=R, qualifying} r(n) by the quarter-count identity.
    """
    def quarter_plane(chunk):
        # one n = a^2 + y^2 per point (a, y), a >= 1, y >= 0, with lo <= n <= hi
        a2 = np.arange(1, isqrt(chunk.hi) + 1, dtype=np.int64) ** 2
        y0 = _squares_upto(chunk.lo - 1 - a2)  # row a holds y0 <= y < y0 + cnt
        cnt = _squares_upto(chunk.hi - a2) - y0
        y = np.arange(int(cnt.sum()), dtype=np.int64)
        y -= np.repeat(np.cumsum(cnt) - cnt - y0, cnt)
        y *= y
        y += np.repeat(a2 - chunk.lo, cnt)  # now n - lo
        sigma = np.take(chunk.sigma, y)
        y += chunk.lo
        return y, sigma
    R, grid, raw, _ = _threshold_sums(None, R, grid, quarter_plane, **scan_kw)
    return WeightedCdfEstimate("lattice_two_squares", R, grid, 4 * raw, math.pi * R, "lattice")


def smoothed_indicator_mean(f: MultFunc, x: int, u, m: int, **scan_kw):
    """(1/x) sum f(n) w(n/sigma(n)) for the tent weight w: 1 on [0, u],
    linearly down to 0 on [u, u + 1/m].  Requires u + 1/m < 1."""
    u = Fraction(u)
    m = int(m)
    if m < 1:
        raise ValueError("smoothing parameter m must be >= 1")
    if not (0 <= u and u + Fraction(1, m) < 1):
        raise ValueError("need 0 <= u and u + 1/m < 1")
    x = int(x)
    uf = float(u)

    def tent(chunk):
        w = np.clip(1.0 - m * (chunk.n / chunk.sigma - uf), 0.0, 1.0)
        return _weighted_sum(chunk.fvals, w)
    return complex(_scan_sum(x, tent, f=f, **scan_kw)) / x


@dataclass(frozen=True)
class EquidistTally:
    """Per-class qualifying counts: Omega(n) mod q, or coprime residues mod q."""
    mode: str
    q: int
    u: Fraction
    x: int
    labels: tuple[int, ...]
    counts: np.ndarray  # int64 per label
    qualifying_total: int


def equidist_tally(mode: str, q: int, u, x: int, **scan_kw) -> EquidistTally:
    """Tally qualifying n <= x by Omega(n) mod q, or by residue class among
    the n coprime to q.  Counts are exact integers; in omega mode they
    partition the whole qualifying set."""
    if mode not in ("omega", "coprime"):
        raise ValueError("mode must be 'omega' or 'coprime'")
    q = int(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > MAX_DENOMINATOR:  # one int64 count per class is allocated up front
        raise ResourceLimitError(f"q = {q} over the {MAX_DENOMINATOR} cap")
    u = Fraction(u)
    x = int(x)
    qualifies = _qualifies(u, x)
    omega = mode == "omega"

    def tally(chunk):
        # every residue is tallied; the coprime ones are picked out below
        qual = qualifies(chunk)
        key = chunk.omega[qual].astype(np.int64) if omega else chunk.n[qual]
        return _weighted_sum(None, bins=key % q, m=q)
    counts = _scan_sum(x, tally, with_omega=omega, **scan_kw)
    labels = tuple(c for c in range(q) if omega or math.gcd(c, q) == 1)
    return EquidistTally(mode, q, u, x, labels, counts[list(labels)], int(counts.sum()))


def partial_summation_check(f: MultFunc, x: int, u, **scan_kw):
    """Return (lhs, rhs) with lhs = (2/x^2) sum_{qualifying} n f(n) and
    rhs = (1/x) sum_{qualifying} f(n), from the same pass.  In the limit
    lhs -> rhs, which is the partial-summation identity for the n-weighted
    sums (both sides tend to the same distribution value)."""
    x = int(x)
    qualifies = _qualifies(u, x)

    def pair(chunk):
        qual = qualifies(chunk)
        nq = chunk.n[qual].astype(np.float64)
        return np.array([_weighted_sum(chunk.fvals, nq, sel=qual),
                         _weighted_sum(chunk.fvals, sel=qual)])
    lhs, rhs = _scan_sum(x, pair, f=f, **scan_kw)
    return complex(lhs) * 2.0 / (x * float(x)), complex(rhs) / x
