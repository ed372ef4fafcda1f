"""Catalog correctness: prime-power rules against brute-force definitions."""

import cmath
import math

import numpy as np
import pytest

from ddl.multfunc import CatalogError, make, parse_spec, restrict_coprime

import oracles

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101, 9973]

ALL_SPECS = [
    "one", "tau", "mu", "mu_squared", "lfree:l=3", "phi_over_n",
    "sigma_over_n", "phi_over_n_pow:re=0.5,im=0.25",
    "sigma_over_n_pow:re=-0.5,im=1", "lambda:a=1,q=3", "r",
    "two_squares_indicator", "principal_character:q=6",
    "quadratic_character:q=7",
]


def test_prime_power_examples():
    assert make("tau").prime_power(5, 2) == 3
    assert make("r").prime_power(3, 1) == 0
    assert make("lambda", a=1, q=2).prime_power(2, 3) == -1
    assert make("phi_over_n").prime_power(7, 1) == pytest.approx(6 / 7, abs=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_value_at_exponent_zero_is_one(spec):
    f = parse_spec(spec)
    for p in SMALL_PRIMES:
        assert f.prime_power(p, 0) == 1
    ps = np.array(SMALL_PRIMES, dtype=np.int64)
    assert np.all(f.prime_powers(ps, 0) == 1)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_declared_value_classes(spec):
    f = parse_spec(spec)
    for p in SMALL_PRIMES:
        for j in range(0, 6):
            v = complex(f.prime_power(p, j))
            if f.unit_disc:
                assert abs(v) <= 1 + 1e-12, (spec, p, j)
            if f.nonneg:
                assert abs(v.imag) == 0 and v.real >= 0, (spec, p, j)
            if not f.complex_valued:
                assert v.imag == 0


def sigma_ratio(p, j):
    """sigma(p^j)/p^j from the exact integer sigma(p^j)."""
    return sum(p ** i for i in range(j + 1)) / p ** j


def legendre_7(p):
    r = pow(p, 3, 7)
    return {0: 0, 1: 1, 6: -1}[r]


# f(p^j) in closed form, written apart from the catalog's vectorized rules
CLOSED_FORMS = {
    "one": lambda p, j: 1,
    "tau": lambda p, j: j + 1,
    "mu": lambda p, j: -1 if j == 1 else 0,
    "mu_squared": lambda p, j: 1 if j == 1 else 0,
    "lfree:l=3": lambda p, j: 1 if j < 3 else 0,
    "phi_over_n": lambda p, j: (p - 1) / p,
    "sigma_over_n": sigma_ratio,
    "phi_over_n_pow:re=0.5,im=0.25": lambda p, j: ((p - 1) / p) ** complex(0.5, 0.25),
    "sigma_over_n_pow:re=-0.5,im=1": lambda p, j: sigma_ratio(p, j) ** complex(-0.5, 1),
    "lambda:a=1,q=3": lambda p, j: cmath.exp(2j * math.pi * j / 3),
    "r": lambda p, j: 1 if p == 2 else (j + 1 if p % 4 == 1 else 1 - j % 2),
    "two_squares_indicator": lambda p, j: 0 if p % 4 == 3 and j % 2 else 1,
    "principal_character:q=6": lambda p, j: 1 if math.gcd(p, 6) == 1 else 0,
    "quadratic_character:q=7": lambda p, j: legendre_7(p) ** j,
}


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_vector_matches_scalar(spec):
    """The one vectorized rule, prime_powers, against the scalar closed form."""
    f = parse_spec(spec)
    ps = np.array(SMALL_PRIMES, dtype=np.int64)
    for j in range(1, 5):
        vec = f.prime_powers(ps, j)
        for k, p in enumerate(SMALL_PRIMES):
            assert complex(vec[k]) == pytest.approx(complex(CLOSED_FORMS[spec](p, j)),
                                                    abs=1e-13), (spec, p, j)


def test_r_prime_power_table():
    r = make("r")
    for j in range(1, 8):
        assert r.prime_power(2, j) == 1
        assert r.prime_power(5, j) == j + 1      # 5 = 1 mod 4
        assert r.prime_power(3, j) == (1 - j % 2)  # 3 = 3 mod 4


def test_full_evaluation_against_brute_force():
    tau, mu, mu2 = make("tau"), make("mu"), make("mu_squared")
    phi_n, sig_n, r = make("phi_over_n"), make("sigma_over_n"), make("r")
    two_sq = make("two_squares_indicator")
    for n in range(1, 2001):
        assert oracles.evaluate(tau, n) == oracles.tau_brute(n)
        assert oracles.evaluate(mu, n) == oracles.mu_brute(n)
        assert oracles.evaluate(mu2, n) == (1 if oracles.mu_brute(n) != 0 else 0)
        assert oracles.evaluate(phi_n, n) == pytest.approx(oracles.phi_brute(n) / n, rel=1e-12)
        assert oracles.evaluate(sig_n, n) == pytest.approx(oracles.sigma_brute(n) / n, rel=1e-12)
        assert oracles.evaluate(r, n) == oracles.r_brute(n)
        assert oracles.evaluate(two_sq, n) == (1 if oracles.is_two_squares_brute(n) else 0)


def test_characters_against_euler_criterion():
    chi = make("quadratic_character", q=7)
    chi0 = make("principal_character", q=6)
    lam = make("lambda", a=1, q=3)
    for n in range(1, 500):
        assert oracles.evaluate(chi, n) == oracles.legendre_brute(n, 7)
        assert oracles.evaluate(chi0, n) == (1 if math.gcd(n, 6) == 1 else 0)
        assert complex(oracles.evaluate(lam, n)) == pytest.approx(oracles.lambda_brute(n, 1, 3),
                                                          abs=1e-12)


def test_lfree_indicator():
    f = make("lfree", l=3)
    for n in range(1, 1000):
        cubefree = all(j < 3 for _, j in oracles.factor_brute(n))
        assert oracles.evaluate(f, n) == (1 if cubefree else 0)


def twist(k):
    """(n/sigma(n))^k as the catalog's sigma_over_n_pow at re = -k, im = 0."""
    return make("sigma_over_n_pow", re=-k, im=0)


def test_sigma_power_twist_examples():
    assert twist(0).prime_power(2, 1) == 1
    assert not twist(1).complex_valued
    assert twist(1).prime_power(2, 1) == pytest.approx(2 / 3, rel=1e-15)
    assert twist(2).prime_power(3, 1) == pytest.approx((3 / 4) ** 2, rel=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 8])
def test_sigma_power_twist_full_values(k):
    tau, fk = make("tau"), twist(k)
    for n in range(1, 10001, 37):
        sig = oracles.sigma_brute(n)
        expect = oracles.tau_brute(n) * (n / sig) ** k
        assert oracles.evaluate(tau, n) * oracles.evaluate(fk, n) == pytest.approx(expect, rel=1e-12)


def test_restrict_coprime_values():
    one = make("one")
    a5 = restrict_coprime(one, 5.0)
    assert a5.prime_power(3, 1) == 0
    assert a5.prime_power(7, 1) == 1
    ps = np.array([2, 3, 5, 7, 11], dtype=np.int64)
    assert list(a5.at_primes(ps)) == [0, 0, 0, 1, 1]


def test_parse_spec_round_trip_and_errors():
    f = parse_spec("lambda:a=1,q=3")
    assert f.params == {"a": 1, "q": 3}
    assert parse_spec(f.spec_string()).params == f.params
    with pytest.raises(CatalogError):
        parse_spec("nonexistent")
    with pytest.raises(CatalogError):
        parse_spec("lambda:a=1")       # missing q
    with pytest.raises(CatalogError):
        parse_spec("lambda:a=1,q=0")   # q out of range
    with pytest.raises(CatalogError):
        parse_spec("tau:k=2")          # unexpected parameter
    with pytest.raises(CatalogError):
        parse_spec("phi_over_n_pow:re=9,im=0")   # exponent cap
    with pytest.raises(CatalogError):
        parse_spec("quadratic_character:q=9")    # not prime
    # an integer parameter is refused when not integral, never truncated,
    # and an exponent part must be finite
    for bad in ("lfree:l=2.5", "lfree:l=inf", "lambda:a=1.5,q=3",
                "principal_character:q=6.5", "quadratic_character:q=7.5",
                "phi_over_n_pow:re=nan,im=0", "sigma_over_n_pow:re=0,im=nan"):
        with pytest.raises(CatalogError):
            parse_spec(bad)


def test_immutability_and_metadata():
    f = make("tau")
    with pytest.raises(AttributeError):
        f.kappa = 3
    assert f.kappa == 2.0
    assert make("r").kappa == 1.0
    assert make("two_squares_indicator").kappa == 0.5
    assert make("mu").kappa is None
    assert not make("r").mean_value_ok
    assert make("phi_over_n").mean_value_ok
