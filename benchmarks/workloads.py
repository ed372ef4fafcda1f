"""The benchmark's four workloads: the CLI calls each makes, and the checks of
their outputs against computations made apart from ddl.

Nothing here imports ddl.  Each check reads the parsed output files of one
round and compares them with an integer oracle (floor and isqrt sums,
inclusion-exclusion over squares), a known constant (6/pi^2, pi^2/6,
Deleglise's abundant-density bounds) or a property the method must have
(monotone counts, |psi| <= 1).  No check compares against a stored copy of
an earlier output.

A workload is built from a scale (the x and P of its calls) and a seed.  The
seed picks only values that leave the work unchanged: the Omega-tally
threshold of ``weighted_x1e7`` and the psi t values of ``euler_p1e8``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path

# Deleglise (Experimental Math. 7, 1998): 0.2474 < A(2) < 0.2480 for the
# density of abundant numbers, i.e. of n with n/sigma(n) <= 1/2.  The window
# for the sieve's D_x(1/2) adds about 0.001 on each side for the finite-x
# error (D_x(1/2) is 0.2480 at x = 1e5 and 0.2476 at x = 1e8).
DELEGLISE_LO, DELEGLISE_HI = 0.2474, 0.2480
SIEVE_WINDOW = (0.2461, 0.2491)
INVERT_SLACK = 0.02  # the slack `ddl invert` declares (echoed as eps)

FULL_SCALE = {"x_abundant": 10**8, "x_weighted": 10**7, "P_invert": 10**6,
              "P_euler": 10**8}

PSI_T_POOL = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def divisor_summatory(x: int) -> int:
    """sum_{n<=x} tau(n) = sum_{d<=x} floor(x/d), by the hyperbola method."""
    r = isqrt(x)
    return 2 * sum(x // d for d in range(1, r + 1)) - r * r


def quarter_lattice_count(x: int) -> int:
    """sum_{n<=x} r(n), r(n) = #{(a, b): a >= 1, b >= 0, a^2 + b^2 = n}."""
    return sum(isqrt(x - a * a) + 1 for a in range(1, isqrt(x) + 1))


def circle_count(R: int) -> int:
    """#{(a, b) in Z^2: a^2 + b^2 <= R}, origin included."""
    r = isqrt(R)
    return sum(2 * isqrt(R - a * a) + 1 for a in range(-r, r + 1))


def squarefree_count(x: int) -> int:
    """Q(x) = sum_{d <= sqrt x} mu(d) floor(x/d^2), mu from a plain sieve."""
    r = isqrt(x)
    mu = [1] * (r + 1)
    is_comp = [False] * (r + 1)
    for p in range(2, r + 1):
        if is_comp[p]:
            continue
        for k in range(p, r + 1, p):
            if k > p:
                is_comp[k] = True
            mu[k] = -mu[k]
        for k in range(p * p, r + 1, p * p):
            mu[k] = 0
    return sum(mu[d] * (x // (d * d)) for d in range(1, r + 1))


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

@dataclass
class Estimate:
    """A parsed `ddl estimate` / `ddl lattice` CSV."""
    normalizer: float
    u: list[Fraction]
    raw_re: list[float]
    raw_im: list[float]
    value_re: list[float]
    value_im: list[float]

    def at(self, u) -> int:
        return self.u.index(Fraction(u))


def parse_estimate(path: Path) -> Estimate:
    normalizer = None
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# normalizer:"):
                normalizer = float(line.split(":", 1)[1])
            elif not line.startswith("#"):
                rows.append(line)
    table = list(csv.DictReader(rows))
    if normalizer is None or not table:
        raise ValueError(f"{path.name}: no normalizer or no rows")
    return Estimate(normalizer,
                    [Fraction(int(r["u_num"]), int(r["u_den"])) for r in table],
                    *([float(r[k]) for r in table]
                      for k in ("raw_re", "raw_im", "value_re", "value_im")))


def parse_output(path: Path):
    if path.suffix == ".csv":
        return parse_estimate(path)
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One CLI call; its output goes to <name>.<fmt> in the run directory."""
    name: str
    argv: list[str]
    fmt: str  # "csv" or "json"


@dataclass
class Workload:
    name: str
    ops: list[Op]
    checks: dict  # check id -> predicate over {op name: parsed output}
    setup: Op | None = None  # writes the sigma cache the rounds read
    params: dict = field(default_factory=dict)  # seed-picked values, echoed

    def failed_checks(self, outputs: dict) -> list[str]:
        bad = []
        for cid, pred in self.checks.items():
            try:
                ok = pred(outputs)
            except (KeyError, IndexError, ValueError, TypeError):
                ok = False
            if not ok:
                bad.append(cid)
        return bad


def _nondecreasing_integers(values) -> bool:
    return (all(float(v).is_integer() for v in values)
            and all(a <= b for a, b in zip(values, values[1:])))


def abundant(scale: dict, seed: int) -> Workload:
    x = scale["x_abundant"]
    ops = [Op("one_df", ["estimate", "--f", "one", "--x", str(x), "--mode", "df",
                         "--grid", "default"], "csv")]

    def est(o):
        return o["one_df"]

    checks = {
        "abundant.count_at_0": lambda o: est(o).raw_re[est(o).at(0)] == 0,
        "abundant.count_at_1": lambda o: est(o).raw_re[est(o).at(1)] == x,
        "abundant.counts_monotone": lambda o: (_nondecreasing_integers(est(o).raw_re)
                                               and not any(est(o).raw_im)),
        "abundant.deleglise_window": lambda o: (
            SIEVE_WINDOW[0] <= est(o).raw_re[est(o).at(Fraction(1, 2))] / x
            <= SIEVE_WINDOW[1]),
    }
    return Workload("abundant_x1e8", ops, checks)


def weighted(scale: dict, seed: int) -> Workload:
    x = scale["x_weighted"]
    rng = random.Random(seed)
    # any default-grid threshold costs the same Omega pass
    u = Fraction(rng.randrange(60, 181), 200)
    X = str(x)
    ops = [
        Op("tau_dtilde", ["estimate", "--f", "tau", "--x", X, "--mode", "dtilde"], "csv"),
        Op("r_dtilde", ["estimate", "--f", "r", "--x", X, "--mode", "dtilde"], "csv"),
        Op("lambda3_df", ["estimate", "--f", "lambda:a=1,q=3", "--x", X, "--mode", "df"], "csv"),
        Op("omega_tally", ["equidist", "--mode", "omega", "--q", "3", "--u", str(u),
                           "--x", X], "json"),
        Op("psum_mu2", ["psum-check", "--f", "mu_squared", "--u", "1", "--x", X], "json"),
        Op("smoothed_one", ["smoothed", "--f", "one", "--u", "1/2", "--m", "100",
                            "--x", X], "json"),
        Op("lattice", ["lattice", "--R", X], "csv"),
    ]
    setup = Op("sieve_cache", ["sieve-cache", "--x", X], "json")
    S_tau = divisor_summatory(x)
    S_r = quarter_lattice_count(x)
    N_circle = circle_count(x)
    Q = squarefree_count(x)
    omega3 = [complex(math.cos(2 * math.pi * c / 3), math.sin(2 * math.pi * c / 3))
              for c in range(3)]

    def at1(e, col="raw_re"):
        return getattr(e, col)[e.at(1)]

    def lambda_vs_omega(o):
        classes = {c["label"]: c["count"] for c in o["omega_tally"]["classes"]}
        want = sum(omega3[c] * classes[c] for c in range(3))
        e = o["lambda3_df"]
        k = e.at(u)
        return abs(complex(e.raw_re[k], e.raw_im[k]) - want) <= 1e-6 * x

    def omega_partition(o):
        t = o["omega_tally"]
        total = sum(c["count"] for c in t["classes"])
        return total == t["qualifying_total"] == t["class_sum"]

    def lattice_quarter(o):
        lat, r = o["lattice"], o["r_dtilde"]
        return lat.u == r.u and all(a == 4 * b for a, b in zip(lat.raw_re, r.raw_re))

    def smoothed_window(o):
        # the tent weight is >= the indicator of n/sigma(n) <= 1/2
        s = o["smoothed_one"]
        return SIEVE_WINDOW[0] <= s["value_re"] <= 1.0 and s["value_im"] == 0.0

    checks = {
        "tau.sum_floor_x_over_d": lambda o: (at1(o["tau_dtilde"]) == S_tau
                                             == o["tau_dtilde"].normalizer),
        "tau.dtilde_at_1": lambda o: (at1(o["tau_dtilde"], "value_re") == 1.0
                                      and at1(o["tau_dtilde"], "value_im") == 0.0),
        "r.sum_isqrt": lambda o: at1(o["r_dtilde"]) == S_r == o["r_dtilde"].normalizer,
        "r.dtilde_at_1": lambda o: (at1(o["r_dtilde"], "value_re") == 1.0
                                    and at1(o["r_dtilde"], "value_im") == 0.0),
        "lattice.quarter_identity": lattice_quarter,
        "lattice.circle_count": lambda o: at1(o["lattice"]) == N_circle - 1,
        "lambda3.omega_classes": lambda_vs_omega,
        "omega.class_sum": omega_partition,
        "psum.squarefree_count": lambda o: (
            abs(o["psum_mu2"]["rhs_re"] - Q / x) <= 1e-12 and o["psum_mu2"]["rhs_im"] == 0.0),
        "smoothed.abundant_window": smoothed_window,
    }
    return Workload("weighted_x1e7", ops, checks, setup=setup, params={"omega_u": str(u)})


def charfn_invert(scale: dict, seed: int) -> Workload:
    P = str(scale["P_invert"])
    ops = [Op(f"invert_{f}", ["invert", "--f", f, "--P", P], "json") for f in ("one", "r")]

    def points(o, name):
        return o[name]["points"]

    def edge(name):
        def pred(o):
            top = points(o, name)[-1]
            return top["x"] == 0.0 and top["F"] == 1.0 and o[name]["slack_exceeded"] is False
        return pred

    def monotone(name):
        def pred(o):
            raw = [p["raw"] for p in points(o, name)]
            return all(b >= a - INVERT_SLACK for a, b in zip(raw, raw[1:]))
        return pred

    def deleglise(o):
        half = math.log(0.5)
        (p,) = [p for p in points(o, "invert_one") if abs(p["x"] - half) < 1e-12]
        return DELEGLISE_LO - INVERT_SLACK <= p["raw"] <= DELEGLISE_HI + INVERT_SLACK

    checks = {
        "invert_one.edge_and_slack": edge("invert_one"),
        "invert_r.edge_and_slack": edge("invert_r"),
        "invert_one.deleglise_half": deleglise,
        "invert_one.raw_monotone": monotone("invert_one"),
        "invert_r.raw_monotone": monotone("invert_r"),
    }
    return Workload("charfn_invert_p1e6", ops, checks)


def euler(scale: dict, seed: int) -> Workload:
    P = scale["P_euler"]
    rng = random.Random(seed)
    while True:  # four t values; a uniform list would switch psi to its recurrence path
        ts = sorted(rng.sample(PSI_T_POOL, 4))
        if len({round(b - a, 9) for a, b in zip(ts, ts[1:])}) > 1:
            break
    t_arg = ",".join(f"{t:g}" for t in ts)
    ops = [
        Op("psi_one", ["analytic", "psi", "--f", "one", "--t", t_arg, "--P", str(P)], "json"),
        Op("mean_phi", ["analytic", "mean", "--f", "phi_over_n", "--P", str(P)], "json"),
        Op("mean_sigma", ["analytic", "mean", "--f", "sigma_over_n", "--P", str(P)], "json"),
        Op("jumps_r", ["analytic", "jumps", "--f", "r", "--P", str(P)], "json"),
        Op("kappa_r", ["analytic", "kappa", "--f", "r", "--x", str(P)], "json"),
    ]

    def psi_modulus(o):
        pts = o["psi_one"]["points"]
        return ([p["t"] for p in pts] == ts
                and all(math.hypot(p["re"], p["im"]) <= 1.0 + 1e-12 for p in pts))

    def mean_near(name, target, slack):
        def pred(o):
            m = o[name]
            return (abs(m["value_re"] - target) <= m["tail_bound"] + slack
                    and m["value_im"] == 0.0)
        return pred

    def kappa_drift(o):
        # Mertens: sum_{p<=x} r(p) log p / p = log x + O(1), so the ratio
        # drifts to kappa = 1 at rate 1/log x
        k = o["kappa_r"]
        return abs(k["weighted_logsum_ratio"] - k["claimed_kappa"]) <= 2.0 / math.log(P)

    checks = {
        "psi.modulus_at_most_1": psi_modulus,
        "mean.phi_over_n_6_over_pi2": mean_near("mean_phi", 6 / math.pi ** 2, 1e-9),
        "mean.sigma_over_n_pi2_over_6": mean_near("mean_sigma", math.pi ** 2 / 6, 0.0),
        "jumps.positive": lambda o: o["jumps_r"]["diagnostic"] > 0.0,
        "kappa.mertens_drift": kappa_drift,
    }
    return Workload("euler_p1e8", ops, checks, params={"psi_t": t_arg})


WORKLOADS = {
    "abundant_x1e8": abundant,
    "weighted_x1e7": weighted,
    "charfn_invert_p1e6": charfn_invert,
    "euler_p1e8": euler,
}
