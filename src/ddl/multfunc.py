"""Catalog of multiplicative functions, defined by their values on prime powers.

A multiplicative function satisfies f(1) = 1 and f(mn) = f(m) f(n) for coprime
m, n, so it is determined by the values f(p^j).  The catalog is closed: every
entry is a named rule with validated parameters, which keeps evaluation pure,
fast and auditable.  Each descriptor also carries the metadata the analytic
machinery needs: sign and modulus flags, Wirsing density kappa when one is
claimed, whether the Wintner/Delange mean-value hypotheses hold, and crude
tail coefficients used to estimate truncated Euler products.

Built-in rules (parameters after the colon):

    one                      f(n) = 1
    tau                      divisor count, tau(p^j) = j + 1
    mu                       Moebius function
    mu_squared               squarefree indicator
    lfree:l=3                l-free indicator (no p^l divides n), l >= 2
    phi_over_n               phi(n)/n, i.e. prod_{p|n} (1 - 1/p)
    sigma_over_n             sigma(n)/n
    phi_over_n_pow:re=,im=   (phi(n)/n)^z with z = re + i im, |re|,|im| <= 8
    sigma_over_n_pow:re=,im= (sigma(n)/n)^z
    lambda:a=1,q=2           exp(2 pi i a Omega(n) / q)
    r                        quarter count of (x, y) with x^2 + y^2 = n
    two_squares_indicator    indicator of sums of two squares
    principal_character:q=   1 if gcd(n, q) = 1 else 0
    quadratic_character:q=   Legendre symbol (n | q), q an odd prime

Each entry has exactly one rule, vectorized over an array of primes at a
fixed exponent: ``prime_powers(ps, j)``.  ``at_primes(ps)`` is that rule at
j = 1, and ``prime_power(p, j)`` is a convenience that calls it on a single
prime, so the sieve and the Euler products cannot drift apart.
All are pure; descriptors are immutable and safe to share between threads.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "CatalogError",
    "MultFunc",
    "catalog_ids",
    "catalog_entries",
    "make",
    "parse_spec",
]

# |Re z| and |Im z| cap for the power-twist rules; keeps |f(p^j)| <= 2^8 so
# the eta_p tails stay summable with a small constant.
MAX_POW_PART = 8.0


class CatalogError(ValueError):
    """Unknown catalog id or a parameter out of range."""


class MultFunc:
    """Immutable descriptor of a catalog multiplicative function.

    Fields beyond the evaluation hooks:

    kappa           claimed Wirsing density (sum_{p<=x} f(p) log p / p ~ kappa log x),
                    None when no density is claimed
    nonneg          all values are real and >= 0
    unit_disc       all values have modulus <= 1
    complex_valued  evaluation may return non-real values
    mean_value_ok   the Wintner/Delange mean-value hypotheses hold, so the
                    explicit Euler product for the mean value is meaningful
    eta_coeff       c with sum_{j>=2} |f(p^j)|/p^j <= c/p^2 for every p
    prime_dev_coeff c with |f(p) - 1| <= c/p for all large p (only meaningful
                    when mean_value_ok), used for product tail estimates
    """

    __slots__ = (
        "id", "params", "kappa", "nonneg", "unit_disc",
        "complex_valued", "mean_value_ok", "eta_coeff", "prime_dev_coeff",
        "_vector",
    )

    def __init__(self, id, params, vector, *, nonneg, unit_disc,
                 complex_valued, kappa=None, mean_value_ok, eta_coeff,
                 prime_dev_coeff=0.0):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "params", dict(params))
        object.__setattr__(self, "_vector", vector)
        object.__setattr__(self, "nonneg", nonneg)
        object.__setattr__(self, "unit_disc", unit_disc)
        object.__setattr__(self, "complex_valued", complex_valued)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "mean_value_ok", mean_value_ok)
        object.__setattr__(self, "eta_coeff", eta_coeff)
        object.__setattr__(self, "prime_dev_coeff", prime_dev_coeff)

    def __setattr__(self, name, value):
        raise AttributeError("MultFunc is immutable")

    @property
    def is_one(self) -> bool:
        return self.id == "one"

    def prime_power(self, p: int, j: int):
        """f(p^j) for a single prime p and exponent j >= 0: prime_powers on
        a one-element array."""
        if j < 0:
            raise ValueError("exponent must be >= 0")
        return self.prime_powers(np.array([p], dtype=np.int64), j)[0]

    def prime_powers(self, ps: np.ndarray, j: int) -> np.ndarray:
        """Vector of f(p^j) over an array of primes, fixed exponent j >= 0."""
        ps = np.asarray(ps, dtype=np.int64)
        dtype = np.complex128 if self.complex_valued else np.float64
        if j == 0:
            return np.ones(ps.shape, dtype=dtype)
        return np.asarray(self._vector(ps, int(j)), dtype=dtype)

    def at_primes(self, ps: np.ndarray) -> np.ndarray:
        """Vector of f(p) over an array of primes."""
        return self.prime_powers(ps, 1)

    def spec_string(self) -> str:
        if not self.params:
            return self.id
        inner = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.params.items())
        return f"{self.id}:{inner}"

    def __repr__(self):
        return f"MultFunc({self.spec_string()!r})"


# ---------------------------------------------------------------------------
# built-in rules
# ---------------------------------------------------------------------------

def _sigma_ratio_vec(ps: np.ndarray, j: int) -> np.ndarray:
    """sigma(p^j)/p^j as float64, overflow-free: (1 - p^-(j+1)) / (1 - 1/p)."""
    pinv = 1.0 / ps.astype(np.float64)
    return (1.0 - pinv ** (j + 1)) / (1.0 - pinv)


def _int_param(name: str, v) -> int:
    """An integer parameter, refused rather than truncated when not integral."""
    if isinstance(v, float) and not v.is_integer():
        raise CatalogError(f"parameter {name} must be an integer, not {v!r}")
    return int(v)


def _build_one():
    return MultFunc(
        "one", {},
        lambda ps, j: np.ones(ps.shape),
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=2.0, prime_dev_coeff=0.0,
    )


def _build_tau():
    return MultFunc(
        "tau", {},
        lambda ps, j: np.full(ps.shape, float(j + 1)),
        nonneg=True, unit_disc=False, complex_valued=False,
        kappa=2.0, mean_value_ok=False, eta_coeff=4.0,
    )


def _build_mu():
    return MultFunc(
        "mu", {},
        lambda ps, j: np.full(ps.shape, -1.0 if j == 1 else 0.0),
        nonneg=False, unit_disc=True, complex_valued=False,
        kappa=None, mean_value_ok=False, eta_coeff=0.0,
    )


def _build_mu_squared():
    return MultFunc(
        "mu_squared", {},
        lambda ps, j: np.full(ps.shape, 1.0 if j == 1 else 0.0),
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=0.0, prime_dev_coeff=0.0,
    )


def _build_lfree(l: int):
    l = _int_param("l", l)
    if l < 2:
        raise CatalogError("lfree needs l >= 2")
    return MultFunc(
        "lfree", {"l": l},
        lambda ps, j: np.full(ps.shape, 1.0 if j < l else 0.0),
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=2.0, prime_dev_coeff=0.0,
    )


def _build_phi_over_n():
    return MultFunc(
        "phi_over_n", {},
        lambda ps, j: 1.0 - 1.0 / ps.astype(np.float64),
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=2.0, prime_dev_coeff=1.0,
    )


def _build_sigma_over_n():
    return MultFunc(
        "sigma_over_n", {},
        _sigma_ratio_vec,
        nonneg=True, unit_disc=False, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=4.0, prime_dev_coeff=1.0,
    )


def _check_pow_part(re: float, im: float):
    # written so that a NaN part fails the test too
    if not (abs(re) <= MAX_POW_PART and abs(im) <= MAX_POW_PART):
        raise CatalogError(f"exponent parts must be finite with |re|,|im| <= {MAX_POW_PART:g}")


def _build_phi_over_n_pow(re: float, im: float):
    re, im = float(re), float(im)
    _check_pow_part(re, im)
    z = complex(re, im)
    is_complex = im != 0.0

    def vector(ps, j):
        base = 1.0 - 1.0 / ps.astype(np.float64)
        v = np.exp(z * np.log(base))
        return v if is_complex else v.real

    return MultFunc(
        "phi_over_n_pow", {"re": re, "im": im}, vector,
        nonneg=not is_complex, unit_disc=re >= 0,
        complex_valued=is_complex, kappa=1.0 if not is_complex else None,
        mean_value_ok=True, eta_coeff=2.0 * 2.0 ** abs(re),
        prime_dev_coeff=2.0 * (abs(re) + abs(im)) + 1.0,
    )


def _build_sigma_over_n_pow(re: float, im: float):
    re, im = float(re), float(im)
    _check_pow_part(re, im)
    z = complex(re, im)
    is_complex = im != 0.0

    def vector(ps, j):
        base = _sigma_ratio_vec(ps, j)
        v = np.exp(z * np.log(base))
        return v if is_complex else v.real

    return MultFunc(
        "sigma_over_n_pow", {"re": re, "im": im}, vector,
        nonneg=not is_complex, unit_disc=re <= 0,
        complex_valued=is_complex, kappa=1.0 if not is_complex else None,
        mean_value_ok=True, eta_coeff=2.0 * 2.0 ** abs(re),
        prime_dev_coeff=2.0 * (abs(re) + abs(im)) + 1.0,
    )


def _build_lambda(a: int, q: int):
    a, q = _int_param("a", a), _int_param("q", q)
    if q < 1:
        raise CatalogError("lambda needs q >= 1")
    a %= q
    # exp(2 pi i a/q) is exactly real for a/q in {0, 1/2}; keep those exact so
    # e.g. lambda_{1,2}(p^j) = (-1)^j without rounding.
    if (2 * a) % q == 0:
        root = 1.0 if a == 0 else -1.0
        is_complex = False
    else:
        root = cmath.exp(2j * math.pi * a / q)
        is_complex = True

    def vector(ps, j):
        return np.full(ps.shape, root ** j)

    return MultFunc(
        "lambda", {"a": a, "q": q}, vector,
        nonneg=(a == 0), unit_disc=True,
        complex_valued=is_complex, kappa=1.0 if a == 0 else None,
        mean_value_ok=(a == 0), eta_coeff=2.0, prime_dev_coeff=0.0,
    )


def _build_r():
    def vector(ps, j):
        res = np.full(ps.shape, 1.0 if j % 2 == 0 else 0.0)
        res[ps % 4 == 1] = float(j + 1)
        res[ps == 2] = 1.0
        return res

    return MultFunc(
        "r", {}, vector,
        nonneg=True, unit_disc=False, complex_valued=False,
        kappa=1.0, mean_value_ok=False, eta_coeff=4.0,
    )


def _build_two_squares_indicator():
    def vector(ps, j):
        res = np.ones(ps.shape)
        if j % 2 == 1:
            res[ps % 4 == 3] = 0.0
        return res

    return MultFunc(
        "two_squares_indicator", {}, vector,
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=0.5, mean_value_ok=False, eta_coeff=2.0,
    )


def _build_principal_character(q: int):
    q = _int_param("q", q)
    if q < 1:
        raise CatalogError("principal_character needs q >= 1")

    def vector(ps, j):
        return (np.gcd(ps, q) == 1).astype(np.float64)

    return MultFunc(
        "principal_character", {"q": q}, vector,
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=2.0, prime_dev_coeff=0.0,
    )


def _is_odd_prime(q: int) -> bool:
    if q < 3 or q % 2 == 0:
        return False
    return all(q % d for d in range(3, math.isqrt(q) + 1, 2))


def _build_quadratic_character(q: int):
    q = _int_param("q", q)
    if not _is_odd_prime(q):
        raise CatalogError("quadratic_character needs an odd prime modulus")
    # residue table: 1 on nonzero squares mod q, -1 on non-squares, 0 at 0
    table = np.full(q, -1.0)
    table[0] = 0.0
    table[(np.arange(1, q, dtype=np.int64) ** 2) % q] = 1.0

    def vector(ps, j):
        chi = table[ps % q]
        return chi if j % 2 == 1 else np.abs(chi)

    return MultFunc(
        "quadratic_character", {"q": q}, vector,
        nonneg=False, unit_disc=True, complex_valued=False,
        kappa=None, mean_value_ok=False, eta_coeff=2.0,
    )


_BUILDERS = {
    "one": (_build_one, ()),
    "tau": (_build_tau, ()),
    "mu": (_build_mu, ()),
    "mu_squared": (_build_mu_squared, ()),
    "lfree": (_build_lfree, ("l",)),
    "phi_over_n": (_build_phi_over_n, ()),
    "sigma_over_n": (_build_sigma_over_n, ()),
    "phi_over_n_pow": (_build_phi_over_n_pow, ("re", "im")),
    "sigma_over_n_pow": (_build_sigma_over_n_pow, ("re", "im")),
    "lambda": (_build_lambda, ("a", "q")),
    "r": (_build_r, ()),
    "two_squares_indicator": (_build_two_squares_indicator, ()),
    "principal_character": (_build_principal_character, ("q",)),
    "quadratic_character": (_build_quadratic_character, ("q",)),
}


def catalog_ids() -> list[str]:
    return sorted(_BUILDERS)


def catalog_entries() -> list[dict]:
    """One metadata row per catalog id, for listings."""
    rows = []
    for cid in catalog_ids():
        _, names = _BUILDERS[cid]
        rows.append({"id": cid, "params": list(names)})
    return rows


def make(cid: str, **params) -> MultFunc:
    """Instantiate a catalog entry by id with keyword parameters."""
    try:
        builder, names = _BUILDERS[cid]
    except KeyError:
        raise CatalogError(f"unknown catalog id {cid!r}; known: {', '.join(catalog_ids())}") from None
    unknown = set(params) - set(names)
    if unknown:
        raise CatalogError(f"{cid} does not take parameters {sorted(unknown)}")
    missing = set(names) - set(params)
    if missing:
        raise CatalogError(f"{cid} needs parameters {sorted(missing)}")
    return builder(**params)


def parse_spec(spec: str) -> MultFunc:
    """Parse a CLI-style descriptor string, e.g. 'lambda:a=1,q=3'."""
    spec = spec.strip()
    if ":" in spec:
        cid, rest = spec.split(":", 1)
        params = {}
        for item in rest.split(","):
            if "=" not in item:
                raise CatalogError(f"malformed parameter {item!r} in {spec!r}")
            k, v = item.split("=", 1)
            try:
                params[k.strip()] = int(v)
            except ValueError:
                try:
                    params[k.strip()] = float(v)
                except ValueError:
                    raise CatalogError(f"non-numeric parameter {item!r} in {spec!r}") from None
    else:
        cid, params = spec, {}
    return make(cid, **params)
