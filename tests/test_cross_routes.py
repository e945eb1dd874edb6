"""Relations between the decision routes that the paper's results tie together.

On a Levy process the tail-integral route (``classify_levy``) and the
power-function route (``classify_power``) decide the same question, and a
Levy process written as a state-independent family is the same process, so
the state-ball routes (``classify_ltp_upper`` / ``classify_ltp_lower``) must
not contradict them either.  Two definite answers contradict when one reads
``zero`` and the other ``infinity`` or ``lower_bound``.

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
