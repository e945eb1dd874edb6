"""Regression pins for the Monte Carlo estimators, check_A1 and the worked
examples.

``tests/data/estimator_pins.json`` holds SHA-256 digests of estimator
outputs and check_A1 reports, recorded before the estimators moved onto
``simulate_batch`` and check_A1 onto one array pass, and digests of every
``reproduce_example`` report, recorded before its studies became one table.  Per-path Philox
streams are independent of how paths are grouped, so every digest must stay
bit-identical; check_A1 witnesses are compared at rtol 1e-14 and their
verdicts and reasons exactly.  Regenerate (only for a documented change of
the streams or the estimators) with ``python tests/test_estimator_pins.py``;
``python tests/test_estimator_pins.py KEY ...`` re-records only the named
pins (keys of any group, e.g. ``exit_survival-cauchy``, ``atom`` or
``SqrtTLaw``) and leaves every other byte of the file as it was.
"""

import hashlib
import json
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest

from levyup import criteria
from levyup import processes as pr
from levyup.criteria import check_A1
from levyup.growth import power, sqrt_t
from levyup.limsup import EXAMPLE_NAMES, dyadic_limsup_stats, reproduce_example
from levyup.simulate import McEstimate, SimConfig, verify_bound_table
from test_simulate import estimates_at

PINS = pathlib.Path(__file__).parent / "data" / "estimator_pins.json"

GRID = [(t, r) for t in (0.02, 0.1) for r in (0.25, 0.5)]
EXIT_GRID = [(0.0, 0.05), (0.0, 0.1)]
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


def _example(name):
    """Digest of the analytic outcomes and reasons, trend labels, stats arrays
    and agreement flag of one worked example, in the report's key order."""
    rep = reproduce_example(name, n_paths=120, n_min=4, n_max=12, seed=2)
    record = {
        "analytic": [[k, c.outcome, c.reason] for k, c in rep.analytic.items()],
        "trends": [[k, v.label] for k, v in rep.empirical.items()],
        "stats": [[k, _dyadic(st)] for k, st in rep.stats.items()],
        "agree": rep.agree,
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


ESTIMATOR_CASES = {
    # survival is sup_{s<=t} |X_s| < r; at t = 0 it is certain, an exact (1, 0)
    "exit_survival-cauchy": lambda: _estimates([McEstimate(1.0, 0.0, 400)] + estimates_at(
        pr.cauchy_process(), [0.02, 0.05], SimConfig(n_paths=400, seed=81), lambda v, m: m < 0.5)),
    "exit_survival-variable_order-big": lambda: _estimates(estimates_at(
        pr.variable_order_process(), [0.01, 0.03],
        SimConfig(dt=2e-3, n_paths=BIG, seed=7), lambda v, m: m < 0.3)),
    "event-runmax-sde": lambda: _estimates(estimates_at(
        pr.sde_process(), 0.05, SimConfig(n_paths=500, seed=3), lambda v, m: m >= 0.3)),
    "event-abs-sde": lambda: _estimates(estimates_at(
        pr.sde_process(), 0.05, SimConfig(n_paths=500, seed=3), lambda v, m: np.abs(v) >= 0.3)),
    "event-runmax-atom": lambda: _estimates(estimates_at(
        pr.atom_process(radius=0.5, mass=40.0), 0.05, SimConfig(n_paths=500, seed=4),
        lambda v, m: m >= 0.3)),
    "event-abs-stable_type-big": lambda: _estimates(estimates_at(
        pr.stable_type_process(1.3), 0.02, SimConfig(dt=2e-3, n_paths=BIG, seed=9),
        lambda v, m: np.abs(v) >= 0.2)),
    "bounds-exit_survival-raw_stable": lambda: _bound_rows(verify_bound_table(
        pr.raw_stable_process(1.0), 0.0, "exit_survival", GRID,
        SimConfig(n_paths=500, seed=91))),
    "bounds-exit_survival-variable_order": lambda: _bound_rows(verify_bound_table(
        pr.variable_order_process(), 0.0, "exit_survival", GRID,
        SimConfig(n_paths=300, seed=96))),
    "bounds-expected_exit-raw_stable_1.5": lambda: _bound_rows(verify_bound_table(
        pr.raw_stable_process(1.5), 0.0, "expected_exit",
        [(0.0, 0.25), (0.0, 0.5)], SimConfig(n_paths=200, seed=92))),
    # one per remaining scheme, recorded while every path still ran to the
    # horizon 8 / G(x, 2r): small radii keep that horizon short
    "bounds-expected_exit-variable_order": lambda: _bound_rows(verify_bound_table(
        pr.variable_order_process(), 0.0, "expected_exit", EXIT_GRID,
        SimConfig(n_paths=200, seed=97))),
    "bounds-expected_exit-sde": lambda: _bound_rows(verify_bound_table(
        pr.sde_process(), 0.0, "expected_exit", EXIT_GRID,
        SimConfig(n_paths=200, seed=98))),
    "bounds-expected_exit-one_sided_1.4": lambda: _bound_rows(verify_bound_table(
        pr.one_sided_stable_process(1.4), 0.0, "expected_exit", EXIT_GRID,
        SimConfig(n_paths=200, seed=99))),
    "bounds-lower_max-raw_stable": lambda: _bound_rows(verify_bound_table(
        pr.raw_stable_process(1.0), 0.0, "lower_max", GRID,
        SimConfig(n_paths=500, seed=93))),
    "bounds-max_ineq-raw_stable": lambda: _bound_rows(verify_bound_table(
        pr.raw_stable_process(1.0), 0.0, "max_ineq", GRID,
        SimConfig(n_paths=300, seed=94))),
    "bounds-max_ineq-variable_order": lambda: _bound_rows(verify_bound_table(
        pr.variable_order_process(), 0.0, "max_ineq", GRID,
        SimConfig(n_paths=300, seed=95))),
    "limsup-growth-cauchy": lambda: _dyadic(dyadic_limsup_stats(
        pr.cauchy_process(), 0.0, power(0.5), 4, 10,
        SimConfig(n_paths=200, seed=5))),
    "limsup-growth-stable_type": lambda: _dyadic(dyadic_limsup_stats(
        pr.stable_type_process(1.3), 0.0, sqrt_t(), 4, 10,
        SimConfig(n_paths=200, seed=6))),
}

# check_A1 inputs: (process, keyword arguments); "radii" stands in for
# criteria.A1_RADII
A1_CASES = {
    "raw_stable_0.5": (lambda: pr.raw_stable_process(0.5), {}),
    "raw_stable_1.0": (lambda: pr.raw_stable_process(1.0), {}),
    "raw_stable_1.5": (lambda: pr.raw_stable_process(1.5), {}),
    "slow_variation": (pr.slow_variation_process, {}),
    "log_smooth": (pr.log_smooth_process, {}),
    "atom": (pr.atom_process, {}),
    "null": (pr.zero_process, {}),
    # radii above the support in the first half of the grid are skipped
    "atom-wide_grid": (pr.atom_process, {"radii": np.logspace(1, -4, 30)}),
    "slow_variation-wide_grid": (pr.slow_variation_process,
                                 {"radii": np.logspace(0, -4, 30)}),
    # the tail vanishes into the second half of the grid
    "small_atom": (lambda: pr.atom_process(radius=1e-3), {}),
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
    kwargs = dict(kwargs)
    with mock.patch.object(criteria, "A1_RADII", kwargs.pop("radii", criteria.A1_RADII)):
        rep = check_A1(build(), **kwargs)
    return {"verdict": rep.verdict, "witness": float(rep.witness),
            "reason": rep.reason}


PIN_GROUPS = {
    "estimators": (ESTIMATOR_CASES, lambda name: ESTIMATOR_CASES[name]()),
    "check_A1": (A1_CASES, _a1_report),
    "examples": (EXAMPLE_NAMES, _example),
}


def compute_pins(keys=None):
    """Every pin by group, or only those named in ``keys``."""
    return {group: {name: pin(name) for name in sorted(names)
                    if keys is None or name in keys}
            for group, (names, pin) in PIN_GROUPS.items()}


def rerecord(keys=()):
    """Rewrite the pins named in ``keys`` in ``PINS``, or all of them."""
    known = {name for names, _ in PIN_GROUPS.values() for name in names}
    if set(keys) - known:
        raise SystemExit(f"unknown pin keys: {sorted(set(keys) - known)}")
    if not keys:
        pins = compute_pins()
    else:
        pins = json.loads(PINS.read_text())
        for group, fresh in compute_pins(set(keys)).items():
            pins[group].update(fresh)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


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


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_digest(pins, name):
    assert _example(name) == pins["examples"][name]


def test_rerecord_by_name_rewrites_only_the_named_keys(tmp_path, monkeypatch):
    # two pins are spoiled in a copy; re-recording them restores every byte
    text = PINS.read_text()
    spoiled = json.loads(text)
    spoiled["check_A1"]["atom"]["witness"] = 123.0
    spoiled["estimators"]["event-abs-sde"] = "0" * 64
    copy = tmp_path / "pins.json"
    copy.write_text(json.dumps(spoiled, indent=1, sort_keys=True) + "\n")
    monkeypatch.setattr(sys.modules[__name__], "PINS", copy)
    rerecord(["atom", "event-abs-sde"])
    assert copy.read_text() == text
    with pytest.raises(SystemExit, match="unknown pin keys"):
        rerecord(["no-such-pin"])


if __name__ == "__main__":
    rerecord(sys.argv[1:])
