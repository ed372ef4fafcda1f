"""Each output check of the benchmark must pass on the program's real output
and fail when that output is perturbed.

    python3 -m pytest -q benchmarks/test_checks.py

Runs every workload's calls once at a small scale (x, P = 1e5; about 15 s),
then for every check applies a perturbation to a copy of the parsed outputs
that the check reads and requires that check to fail.
"""

from __future__ import annotations

import copy
import math
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {"x_abundant": 10**5, "x_weighted": 10**5, "P_invert": 10**5, "P_euler": 10**5}
SEED = 7


def _bump(name, col, u, delta):
    def mutate(o):
        e = o[name]
        getattr(e, col)[e.at(u)] += delta
    return mutate


def _set_json(name, key, fn):
    def mutate(o):
        o[name][key] = fn(o[name][key])
    return mutate


def _point(name, where, key, delta):
    def mutate(o):
        pts = o[name]["points"]
        k = where(pts)
        pts[k][key] += delta
    return mutate


def _dip_point(name, k):
    def mutate(o):
        pts = o[name]["points"]
        pts[k]["raw"] = pts[k - 1]["raw"] - 0.03
    return mutate


def _half(pts):
    return min(range(len(pts)), key=lambda k: abs(pts[k]["x"] - math.log(0.5)))


def _dip(o):
    e = o["one_df"]
    k = e.at(Fraction(1, 2))
    e.raw_re[k] = e.raw_re[k - 1] - 1


def _omega_class(o):
    o["omega_tally"]["classes"][1]["count"] += 1


def _lattice_row(o):
    o["lattice"].raw_re[120] += 4


def _psi_above_1(o):
    o["psi_one"]["points"][2]["re"] = 1.0
    o["psi_one"]["points"][2]["im"] = 0.01


PERTURB = {
    "abundant.count_at_0": _bump("one_df", "raw_re", 0, 1),
    "abundant.count_at_1": _bump("one_df", "raw_re", 1, 1),
    "abundant.counts_monotone": _dip,
    "abundant.deleglise_window": _bump("one_df", "raw_re", Fraction(1, 2), 0.003 * SMALL["x_abundant"]),
    "tau.sum_floor_x_over_d": _bump("tau_dtilde", "raw_re", 1, 1),
    "tau.dtilde_at_1": _bump("tau_dtilde", "value_re", 1, 1e-12),
    "r.sum_isqrt": _bump("r_dtilde", "raw_re", 1, 1),
    "r.dtilde_at_1": _bump("r_dtilde", "value_im", 1, 1e-12),
    "lattice.quarter_identity": _lattice_row,
    "lattice.circle_count": _bump("lattice", "raw_re", 1, 4),
    "lambda3.omega_classes": _omega_class,
    "omega.class_sum": _set_json("omega_tally", "qualifying_total", lambda v: v + 1),
    "psum.squarefree_count": _set_json("psum_mu2", "rhs_re", lambda v: v + 1 / SMALL["x_weighted"]),
    "smoothed.abundant_window": _set_json("smoothed_one", "value_re", lambda v: 0.2460),
    "invert_one.edge_and_slack": _set_json("invert_one", "slack_exceeded", lambda v: True),
    "invert_r.edge_and_slack": _point("invert_r", lambda pts: -1, "F", -0.03),
    "invert_one.deleglise_half": _point("invert_one", _half, "raw", 0.03),
    "invert_one.raw_monotone": _dip_point("invert_one", 50),
    "invert_r.raw_monotone": _dip_point("invert_r", 100),
    "psi.modulus_at_most_1": _psi_above_1,
    "mean.phi_over_n_6_over_pi2": _set_json("mean_phi", "value_re", lambda v: v + 1e-3),
    "mean.sigma_over_n_pi2_over_6": _set_json("mean_sigma", "value_re", lambda v: v - 1e-3),
    "jumps.positive": _set_json("jumps_r", "diagnostic", lambda v: -v),
    "kappa.mertens_drift": _set_json("kappa_r", "weighted_logsum_ratio", lambda v: v + 0.5),
}


@pytest.fixture(scope="module", params=list(WORKLOADS))
def workload_outputs(request):
    wl = WORKLOADS[request.param](SMALL, SEED)
    workdir = run.ROOT / ".bench_run" / f"selftest-{request.param}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = run.Runner(workdir, workdir / "cache" if wl.setup else None)
        run.run_setup(runner, wl)
        rnd = run.run_round(runner, wl, traced=False)
    finally:
        shutil.rmtree(workdir)
    assert rnd["failed"] == 0
    return wl, rnd["outputs"]


def test_every_check_has_a_perturbation():
    ids = {cid for build in WORKLOADS.values() for cid in build(SMALL, SEED).checks}
    assert ids == set(PERTURB)


def test_checks_pass_then_fail_when_perturbed(workload_outputs):
    wl, outputs = workload_outputs
    assert wl.failed_checks(outputs) == []
    for cid in wl.checks:
        bad = copy.deepcopy(outputs)
        PERTURB[cid](bad)
        assert cid in wl.failed_checks(bad), cid
