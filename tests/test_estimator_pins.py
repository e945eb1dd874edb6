"""Regression pins for the Monte Carlo estimators and check_A1.

``tests/data/estimator_pins.json`` holds SHA-256 digests of estimator
outputs and check_A1 reports, recorded before the estimators moved onto
``simulate_batch`` and check_A1 onto one array pass.  Per-path Philox
streams are independent of how paths are grouped, so every digest must stay
bit-identical; check_A1 witnesses are compared at rtol 1e-14 and their
verdicts and reasons exactly.  Regenerate (only for a documented change of
the streams or the estimators) with ``python tests/test_estimator_pins.py``.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from levyup import measures as ms
from levyup import processes as pr
from levyup.criteria import check_A1
from levyup.growth import power, sqrt_t
from levyup.limsup import dyadic_limsup_stats
from levyup.simulate import (
    SimConfig,
    estimate_exit_survival,
    mc_event_probability,
    verify_bound_table,
)

PINS = pathlib.Path(__file__).parent / "data" / "estimator_pins.json"

GRID = [(t, r) for t in (0.02, 0.1) for r in (0.25, 0.5)]
# 2100 paths, recorded when the state stepper advanced 2000 paths at a time:
# these pins show that advancing all paths at once changes no result
BIG = 2100


def _digest(rows):
    return hashlib.sha256(np.asarray(rows, np.float64).tobytes()).hexdigest()


def _estimates(ests):
    return _digest([[e.p_hat, e.ci_half_width, e.n_paths] for e in ests])


def _bound_rows(rows):
    return _digest([[r.t, r.r, r.empirical, r.ci, r.bound, r.violated]
                    for r in rows])


def _dyadic(st):
    return _digest(np.concatenate([st.levels, st.t_values, st.q10, st.median,
                                   st.q90, st.mean_log, [st.n_paths]]))


ESTIMATOR_CASES = {
    "exit_survival-cauchy": lambda: _estimates(estimate_exit_survival(
        pr.cauchy_process(), 0.0, 0.5, [0.0, 0.02, 0.05],
        SimConfig(n_paths=400, seed=81))),
    "exit_survival-variable_order-big": lambda: _estimates(estimate_exit_survival(
        pr.variable_order_process(), 0.0, 0.3, [0.01, 0.03],
        SimConfig(dt=2e-3, n_paths=BIG, seed=7))),
    "event-runmax-sde": lambda: _estimates([mc_event_probability(
        pr.sde_process(), 0.0, ("runmax_at_least", 0.05, 0.3),
        SimConfig(n_paths=500, seed=3))]),
    "event-abs-sde": lambda: _estimates([mc_event_probability(
        pr.sde_process(), 0.0, ("abs_at_least", 0.05, 0.3),
        SimConfig(n_paths=500, seed=3))]),
    "event-runmax-atom": lambda: _estimates([mc_event_probability(
        pr.atom_process(radius=0.5, mass=40.0), 0.0,
        ("runmax_at_least", 0.05, 0.3), SimConfig(n_paths=500, seed=4))]),
    "event-abs-stable_type-big": lambda: _estimates([mc_event_probability(
        pr.stable_type_process(1.3), 0.0, ("abs_at_least", 0.02, 0.2),
        SimConfig(dt=2e-3, n_paths=BIG, seed=9))]),
    "bounds-exit_survival-raw_stable": lambda: _bound_rows(verify_bound_table(
        pr.raw_stable_process(1.0), 0.0, "exit_survival", GRID,
        SimConfig(n_paths=500, seed=91))),
    "bounds-exit_survival-variable_order": lambda: _bound_rows(verify_bound_table(
        pr.variable_order_process(), 0.0, "exit_survival", GRID,
        SimConfig(n_paths=300, seed=96))),
    "bounds-expected_exit-raw_stable_1.5": lambda: _bound_rows(verify_bound_table(
        pr.raw_stable_process(1.5), 0.0, "expected_exit",
        [(0.0, 0.25), (0.0, 0.5)], SimConfig(n_paths=200, seed=92))),
    "bounds-lower_max-raw_stable": lambda: _bound_rows(verify_bound_table(
        pr.raw_stable_process(1.0), 0.0, "lower_max", GRID,
        SimConfig(n_paths=500, seed=93))),
    "bounds-max_ineq-raw_stable": lambda: _bound_rows(verify_bound_table(
        pr.raw_stable_process(1.0), 0.0, "max_ineq", GRID,
        SimConfig(n_paths=300, seed=94), c_standin=1.0)),
    "bounds-max_ineq-variable_order": lambda: _bound_rows(verify_bound_table(
        pr.variable_order_process(), 0.0, "max_ineq", GRID,
        SimConfig(n_paths=300, seed=95))),
    "limsup-growth-cauchy": lambda: _dyadic(dyadic_limsup_stats(
        pr.cauchy_process(), 0.0, power(0.5), 4, 10,
        SimConfig(n_paths=200, seed=5))),
    "limsup-self-cauchy": lambda: _dyadic(dyadic_limsup_stats(
        pr.cauchy_process(), 0.0, power(0.5), 4, 10,
        SimConfig(n_paths=200, seed=5), normalize_by="self")),
    "limsup-growth-stable_type": lambda: _dyadic(dyadic_limsup_stats(
        pr.stable_type_process(1.3), 0.0, sqrt_t(), 4, 10,
        SimConfig(n_paths=200, seed=6))),
}

# check_A1 inputs: (source, keyword arguments)
A1_CASES = {
    "raw_stable_0.5": (lambda: pr.raw_stable_process(0.5).levy.measure, {}),
    "raw_stable_1.0": (lambda: pr.raw_stable_process(1.0).levy.measure, {}),
    "raw_stable_1.5": (lambda: pr.raw_stable_process(1.5).levy.measure, {}),
    "slow_variation": (lambda: pr.slow_variation_process().levy.measure, {}),
    "log_smooth": (lambda: pr.log_smooth_process().levy.measure, {}),
    "atom": (lambda: pr.atom_process().levy.measure, {}),
    "null": (ms.null_measure, {}),
    # radii above the support in the first half of the grid are skipped
    "atom-wide_grid": (lambda: pr.atom_process().levy.measure,
                       {"r_grid": np.logspace(1, -4, 30)}),
    "slow_variation-wide_grid": (lambda: pr.slow_variation_process().levy.measure,
                                 {"r_grid": np.logspace(0, -4, 30)}),
    # the tail vanishes into the second half of the grid
    "small_atom": (lambda: ms.atom_measure(radius=1e-3), {}),
    "variable_order": (pr.variable_order_process,
                       {"x": 0.0, "ball_radius": 0.5}),
    "stable_type_1.3": (lambda: pr.stable_type_process(1.3),
                        {"x": 0.0, "ball_radius": 0.5}),
    "sde": (pr.sde_process, {"x": 0.0, "ball_radius": 0.5}),
    "sde-small_atom": (lambda: pr.sde_process(
        driver=pr.atom_process(radius=1e-3, mass=1.0)),
        {"x": 0.0, "ball_radius": 0.5}),
}


def _a1_report(case):
    build, kwargs = A1_CASES[case]
    rep = check_A1(build(), **kwargs)
    return {"verdict": rep.verdict, "witness": float(rep.witness),
            "reason": rep.reason}


def compute_pins():
    return {
        "estimators": {name: fn() for name, fn in sorted(ESTIMATOR_CASES.items())},
        "check_A1": {name: _a1_report(name) for name in sorted(A1_CASES)},
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("case", sorted(ESTIMATOR_CASES))
def test_estimator_digest(pins, case):
    assert ESTIMATOR_CASES[case]() == pins["estimators"][case]


@pytest.mark.parametrize("case", sorted(A1_CASES))
def test_check_A1_report(pins, case):
    want, got = pins["check_A1"][case], _a1_report(case)
    assert got["verdict"] == want["verdict"]
    assert got["reason"] == want["reason"]
    np.testing.assert_allclose(got["witness"], want["witness"], rtol=1e-14)


if __name__ == "__main__":
    PINS.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
