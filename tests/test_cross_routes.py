"""Relations between the decision routes that the paper's results tie together.

On a Levy process the tail-integral route (``classify_levy``) and the
power-function route (``classify_power``) decide the same question, and a
Levy process written as a state-independent family is the same process, so
the state-ball routes (``classify_ltp_upper`` / ``classify_ltp_lower``) must
not contradict them either.  Two definite answers contradict when one reads
``zero`` and the other ``infinity`` or ``lower_bound``.  Along kappa, one route
on one law must not contradict itself: t^kappa' >= t^kappa on (0, 1] for
kappa' < kappa, so ``zero`` at kappa rules out the other two at kappa'.

The grid crosses the critical line kappa alpha = 1 closely.  The cases marked
"defect e" fail today: the dyadic engine reads the tail integral of
stable(1.5) at kappa alpha = 0.99 as divergent.  The marks are strict, so a
fix of that defect has to remove them.
"""

import numpy as np
import pytest

from levyup import growth as gr
from levyup import processes as pr
from levyup.criteria import classify_levy, classify_ltp_lower, classify_ltp_upper, classify_power

ALPHAS = (0.7, 1.5)
KAPPA_ALPHAS = (0.5, 0.9, 0.98, 0.99, 0.995, 1.01, 1.02, 1.2)
DEFECT_E = {(1.5, 0.99)}  # (alpha, kappa alpha) where the routes contradict today
X = 0.2  # the state of the state-independent family


def grid():
    for alpha in ALPHAS:
        for ka in KAPPA_ALPHAS:
            marks = ([pytest.mark.xfail(strict=True, reason="defect e")]
                     if (alpha, ka) in DEFECT_E else [])
            yield pytest.param(alpha, ka, marks=marks, id=f"alpha={alpha}-kappa_alpha={ka}")


def contradict(a, b):
    return "zero" in (a, b) and bool({a, b} & {"infinity", "lower_bound"})


@pytest.mark.parametrize("alpha,kappa_alpha", grid())
def test_classify_levy_never_contradicts_classify_power(alpha, kappa_alpha):
    spec, kappa = pr.stable_process(alpha), kappa_alpha / alpha
    levy = classify_levy(spec, gr.power(kappa)).outcome
    power = classify_power(spec, kappa).outcome
    assert not contradict(levy, power), (levy, power)


@pytest.mark.parametrize("alpha,kappa_alpha", grid())
def test_state_free_family_never_contradicts_the_levy_routes(alpha, kappa_alpha):
    # stable_type with intensity 1 has the symbol and tails of stable(alpha)
    family = pr.stable_type_process(alpha, intensity_fn=lambda z: np.ones(np.shape(z)))
    levy, kappa = pr.stable_process(alpha), kappa_alpha / alpha
    f = gr.power(kappa)
    routes = (classify_power(levy, kappa).outcome, classify_levy(levy, f).outcome)
    for outcome in (classify_ltp_upper(family, X, f).outcome,
                    classify_ltp_lower(family, X, f).outcome):
        for other in routes:
            assert not contradict(outcome, other), (outcome, other)


MONOTONE_ALPHAS = (0.5, 0.7, 1.0, 1.3, 1.5, 1.8)
MONOTONE_KAPPA_ALPHAS = (0.9, 0.95, 0.97, 0.98, 0.985, 0.99, 0.995, 1.0, 1.005, 1.01, 1.02,
                         1.05)
POWER_ROUTES = {"levy": lambda spec, kappa: classify_levy(spec, gr.power(kappa)),
                "power": classify_power}


@pytest.mark.parametrize("alpha", MONOTONE_ALPHAS)
@pytest.mark.parametrize("route", sorted(POWER_ROUTES))
def test_power_verdicts_are_monotone_in_kappa(route, alpha):
    # t^kappa' >= t^kappa on (0, 1] for kappa' < kappa, so zero at kappa rules
    # out infinity and lower_bound at every smaller kappa on the same law
    spec = pr.stable_process(alpha)
    outcomes = [POWER_ROUTES[route](spec, ka / alpha).outcome for ka in MONOTONE_KAPPA_ALPHAS]
    for j, outcome in enumerate(outcomes):
        if outcome == "zero":
            assert not {"infinity", "lower_bound"} & set(outcomes[:j]), outcomes


# the stable-like families (Schilling's symbols of variable order, the
# stable-type kernel and a Cauchy-driven SDE) with their index alpha(x)
STABLE_LIKE = {
    "variable_order": (pr.variable_order_process, lambda x: float(pr.default_order_fn(x))),
    "stable_type_1.5": (lambda: pr.stable_type_process(1.5), lambda x: 1.5),
    "sde": (pr.sde_process, lambda x: 1.0),
}
LTP_STATES = (-0.6, -0.2, 0.1, 0.45, 0.8)
LTP_KAPPA_ALPHAS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.92, 1.08, 1.1, 1.2, 1.3, 1.45, 1.6)
UPPER_RANK = {"indeterminate": 0, "zero": 1}
LOWER_RANK = {"indeterminate": 0, "lower_bound": 1, "infinity": 2}


@pytest.mark.parametrize("x", LTP_STATES)
@pytest.mark.parametrize("name", sorted(STABLE_LIKE))
def test_ltp_routes_follow_the_dichotomy(name, x):
    # 0.08 away from kappa alpha(x) = 1 (clear of defect e): the lower route
    # never finds growth below the line, the upper route never certifies zero
    # above it, and along kappa the upper verdict only weakens and the lower
    # one only strengthens
    build, order = STABLE_LIKE[name]
    spec, alpha = build(), order(x)
    upper, lower = [], []
    for ka in LTP_KAPPA_ALPHAS:
        f = gr.power(ka / alpha)
        upper.append(classify_ltp_upper(spec, x, f).outcome)
        lower.append(classify_ltp_lower(spec, x, f).outcome)
        if ka <= 0.92:
            assert lower[-1] not in ("infinity", "lower_bound"), (ka, lower[-1])
        if ka >= 1.08:
            assert upper[-1] != "zero", (ka, upper[-1])
    assert np.all(np.diff([UPPER_RANK[o] for o in upper]) <= 0), upper
    assert np.all(np.diff([LOWER_RANK[o] for o in lower]) >= 0), lower
