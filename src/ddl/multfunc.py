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
All are pure; descriptors are immutable.
"""

from __future__ import annotations

import cmath
import inspect
import math
from collections.abc import Callable
from dataclasses import KW_ONLY, dataclass

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


@dataclass(frozen=True, eq=False)
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

    Equality and hashing are by identity (eq=False): params is a dict.
    """

    id: str
    params: dict
    _vector: Callable[[np.ndarray, int], np.ndarray]
    _: KW_ONLY
    nonneg: bool
    unit_disc: bool
    complex_valued: bool
    kappa: float | None = None
    mean_value_ok: bool
    eta_coeff: float
    prime_dev_coeff: float = 0.0

    @property
    def dtype(self) -> type:
        """The value dtype: complex128 when values may be non-real, else float64."""
        return np.complex128 if self.complex_valued else np.float64

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
        if j == 0:
            return np.ones(ps.shape, dtype=self.dtype)
        return np.asarray(self._vector(ps, int(j)), dtype=self.dtype)

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

def _phi_ratio_vec(ps: np.ndarray, j: int) -> np.ndarray:
    """phi(p^j)/p^j = 1 - 1/p as float64, the same at every j >= 1."""
    return 1.0 - 1.0 / ps.astype(np.float64)


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
    return {}, lambda ps, j: np.ones(ps.shape), dict(
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=2.0, prime_dev_coeff=0.0,
    )


def _build_tau():
    return {}, lambda ps, j: np.full(ps.shape, float(j + 1)), dict(
        nonneg=True, unit_disc=False, complex_valued=False,
        kappa=2.0, mean_value_ok=False, eta_coeff=4.0,
    )


def _build_mu():
    return {}, lambda ps, j: np.full(ps.shape, -1.0 if j == 1 else 0.0), dict(
        nonneg=False, unit_disc=True, complex_valued=False,
        kappa=None, mean_value_ok=False, eta_coeff=0.0,
    )


def _build_mu_squared():
    return {}, lambda ps, j: np.full(ps.shape, 1.0 if j == 1 else 0.0), dict(
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=0.0, prime_dev_coeff=0.0,
    )


def _build_lfree(l: int):
    l = _int_param("l", l)
    if l < 2:
        raise CatalogError("lfree needs l >= 2")
    return {"l": l}, lambda ps, j: np.full(ps.shape, 1.0 if j < l else 0.0), dict(
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=2.0, prime_dev_coeff=0.0,
    )


def _build_phi_over_n():
    return {}, _phi_ratio_vec, dict(
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=2.0, prime_dev_coeff=1.0,
    )


def _build_sigma_over_n():
    return {}, _sigma_ratio_vec, dict(
        nonneg=True, unit_disc=False, complex_valued=False,
        kappa=1.0, mean_value_ok=True, eta_coeff=4.0, prime_dev_coeff=1.0,
    )


def _power_twist(base, base_at_most_one: bool):
    """Builder of the twist (base)^z, z = re + i im, for a positive ratio
    base(ps, j) that is <= 1 everywhere (base_at_most_one) or >= 1 everywhere."""

    def build(re: float, im: float):
        re, im = float(re), float(im)
        # written so that a NaN part fails the test too
        if not (abs(re) <= MAX_POW_PART and abs(im) <= MAX_POW_PART):
            raise CatalogError(f"exponent parts must be finite with |re|,|im| <= {MAX_POW_PART:g}")
        z = complex(re, im)
        is_complex = im != 0.0

        def vector(ps, j):
            v = np.exp(z * np.log(base(ps, j)))
            return v if is_complex else v.real

        return {"re": re, "im": im}, vector, dict(
            nonneg=not is_complex, unit_disc=(re >= 0) if base_at_most_one else (re <= 0),
            complex_valued=is_complex, kappa=1.0 if not is_complex else None,
            mean_value_ok=True, eta_coeff=2.0 * 2.0 ** abs(re),
            prime_dev_coeff=2.0 * (abs(re) + abs(im)) + 1.0,
        )

    return build


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

    return {"a": a, "q": q}, vector, dict(
        nonneg=(a == 0), unit_disc=True,
        complex_valued=is_complex, kappa=1.0 if a == 0 else None,
        mean_value_ok=(a == 0), eta_coeff=2.0, prime_dev_coeff=0.0,
    )


def _build_r():
    def vector(ps, j):
        res = np.where((ps & 3) == 1, float(j + 1), 1.0 if j % 2 == 0 else 0.0)
        res[ps == 2] = 1.0
        return res

    return {}, vector, dict(
        nonneg=True, unit_disc=False, complex_valued=False,
        kappa=1.0, mean_value_ok=False, eta_coeff=4.0,
    )


def _build_two_squares_indicator():
    def vector(ps, j):
        if j % 2 == 0:
            return np.ones(ps.shape)
        return np.where((ps & 3) == 3, 0.0, 1.0)

    return {}, vector, dict(
        nonneg=True, unit_disc=True, complex_valued=False,
        kappa=0.5, mean_value_ok=False, eta_coeff=2.0,
    )


def _build_principal_character(q: int):
    q = _int_param("q", q)
    if q < 1:
        raise CatalogError("principal_character needs q >= 1")

    def vector(ps, j):
        return (np.gcd(ps, q) == 1).astype(np.float64)

    return {"q": q}, vector, dict(
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

    return {"q": q}, vector, dict(
        nonneg=False, unit_disc=True, complex_valued=False,
        kappa=None, mean_value_ok=False, eta_coeff=2.0,
    )


# A builder takes an entry's parameters by name, the names of its signature,
# validates them and returns (stored params, rule, metadata); make() adds the id.
_BUILDERS = {
    "one": _build_one,
    "tau": _build_tau,
    "mu": _build_mu,
    "mu_squared": _build_mu_squared,
    "lfree": _build_lfree,
    "phi_over_n": _build_phi_over_n,
    "sigma_over_n": _build_sigma_over_n,
    "phi_over_n_pow": _power_twist(_phi_ratio_vec, base_at_most_one=True),
    "sigma_over_n_pow": _power_twist(_sigma_ratio_vec, base_at_most_one=False),
    "lambda": _build_lambda,
    "r": _build_r,
    "two_squares_indicator": _build_two_squares_indicator,
    "principal_character": _build_principal_character,
    "quadratic_character": _build_quadratic_character,
}


def _param_names(cid: str) -> list[str]:
    return list(inspect.signature(_BUILDERS[cid]).parameters)


def catalog_ids() -> list[str]:
    return sorted(_BUILDERS)


def catalog_entries() -> list[dict]:
    """One metadata row per catalog id, for listings."""
    return [{"id": cid, "params": _param_names(cid)} for cid in catalog_ids()]


def make(cid: str, **params) -> MultFunc:
    """Instantiate a catalog entry by id with keyword parameters."""
    if cid not in _BUILDERS:
        raise CatalogError(f"unknown catalog id {cid!r}; known: {', '.join(catalog_ids())}")
    names = _param_names(cid)
    unknown = set(params) - set(names)
    if unknown:
        raise CatalogError(f"{cid} does not take parameters {sorted(unknown)}")
    missing = set(names) - set(params)
    if missing:
        raise CatalogError(f"{cid} needs parameters {sorted(missing)}")
    stored, vector, meta = _BUILDERS[cid](**params)
    return MultFunc(cid, stored, vector, **meta)


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
