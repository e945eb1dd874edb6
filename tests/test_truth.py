"""Every decision route against the closed-form truth.

Each row of the table is (spec, f, truth), with the truth known in closed form:

- stable, raw_stable and one_sided_stable(alpha) with f = t^kappa: ``zero``
  iff kappa alpha < 1, else ``infinity`` (the paper's tail criterion with
  G(r) ~ r^-alpha, and Blumenthal-Getoor for powers);
- stable and raw_stable(alpha) with f = (t log^p(e^3/t))^(1/alpha): ``zero``
  iff p > 1 (Khintchine's integral test: G(f(t)) ~ 1 / (t log^p(e^3/t)));
- atom, log_smooth and the zero process (finite jump mass, no drift):
  ``zero`` for every f, which ``classify_levy`` must state (it decides
  finite mass first, so its cells are guarded at every kappa);
- stable_type(alpha) with intensity 1 is stable(alpha) written as a
  state-free family, so both state-ball routes answer to the stable truth.

Acceptance is one-sided: a route may decline (``indeterminate``) but may never
be wrong, and the lower route's ``lower_bound`` is right where the truth is
``infinity``.  The cells marked "defect e" are wrong today: near the critical
line the dyadic engine reads a convergent integral as divergent, and on the
log boundary a divergent one as convergent.  The marks are strict, so a fix
has to remove them.  A second guard keeps a fix from declining everywhere:
away from the line, every route that can state the truth must be definite.
"""

from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

from levyup import growth as gr
from levyup import processes as pr
from levyup.criteria import classify_levy, classify_ltp_lower, classify_ltp_upper, classify_power

ALPHAS = (0.5, 0.7, 1.0, 1.3, 1.5, 1.8)
KAPPA_ALPHAS = (0.9, 0.95, 0.97, 0.98, 0.985, 0.99, 0.995, 1.0, 1.005, 1.01, 1.02, 1.05)
LOG_POWERS = (0.5, 1, 1.2, 2, 3)
FAR_LOG_POWERS = (0.5, 2, 3)  # with |kappa alpha - 1| >= 0.02, the guarded cells
FINITE_MASS_KAPPAS = (0.3, 0.5, 0.6, 0.8, 1.0, 1.2, 1.5)
X = 0.2  # the state of the state-free family

LAWS = {"stable": pr.stable_process, "raw_stable": pr.raw_stable_process,
        "one_sided_stable": pr.one_sided_stable_process}
FINITE_MASS = {"atom": pr.atom_process, "log_smooth": pr.log_smooth_process,
               "zero": pr.zero_process}


def state_free_stable(alpha):
    return pr.stable_type_process(alpha, intensity_fn=lambda z: np.ones(np.shape(z)))


ROUTES = {
    "levy": lambda spec, f, kappa: classify_levy(spec, f),
    "power": lambda spec, f, kappa: classify_power(spec, kappa),
    "ltp_upper": lambda spec, f, kappa: classify_ltp_upper(spec, X, f),
    "ltp_lower": lambda spec, f, kappa: classify_ltp_lower(spec, X, f),
}
# the definite outcomes that are right for each truth ("indeterminate" is
# always accepted), and the definite outcomes each route can give at all
RIGHT = {"zero": {"zero"}, "infinity": {"infinity", "lower_bound"}}
DEFINITE = {"levy": {"zero", "infinity"}, "power": {"zero", "infinity"},
            "ltp_upper": {"zero"}, "ltp_lower": {"infinity", "lower_bound"}}

# (route, kappa alpha) -> the alphas at which the route is wrong today, on
# every law of the route; every wrong cell reads "infinity" (or the lower
# route's "lower_bound") where the truth is "zero"
DEFECT_E = {
    ("levy", 0.99): ALPHAS, ("levy", 0.995): ALPHAS,
    ("power", 0.98): (0.5,), ("power", 0.985): (0.5, 0.7),
    ("power", 0.99): (0.5, 0.7, 1.0), ("power", 0.995): ALPHAS,
    ("ltp_lower", 0.99): ALPHAS, ("ltp_lower", 0.995): ALPHAS,
}
LOG_DEFECT_E = (0.5, 1)  # classify_levy reads "zero" at these p, for every alpha


def log_boundary(alpha, p):
    """f(t) = (t log^p(e^3/t))^(1/alpha), non-decreasing on (0, 1] for p <= 3."""
    return gr.from_callable(lambda t: (t * np.log(np.e**3 / t) ** p) ** (1.0 / alpha))


def far(kappa_alpha):
    return round(abs(kappa_alpha - 1.0), 9) >= 0.02


class Cell(NamedTuple):
    route: str
    case: str
    build: object  # () -> ProcessSpec
    f: object  # () -> GrowthFunction
    kappa: float | None
    truth: str
    wrong_today: bool
    guarded: bool  # far from the critical line


def power_cell(route, name, build, alpha, ka):
    return Cell(route, f"{name}-kappa_alpha={ka}", build, partial(gr.power, ka / alpha),
                ka / alpha, "zero" if ka < 1 else "infinity",
                alpha in DEFECT_E.get((route, ka), ()), far(ka))


def cells():
    for alpha in ALPHAS:
        for law, build in LAWS.items():
            if law == "one_sided_stable" and alpha == 1.0:
                continue  # the one-sided construction excludes alpha = 1
            spec = partial(build, alpha)
            for route in ("levy", "power"):
                for ka in KAPPA_ALPHAS:
                    yield power_cell(route, f"{law}({alpha})", spec, alpha, ka)
            if law != "one_sided_stable":
                for p in LOG_POWERS:
                    yield Cell("levy", f"{law}({alpha})-log_power={p}", spec,
                               partial(log_boundary, alpha, p), None,
                               "zero" if p > 1 else "infinity", p in LOG_DEFECT_E,
                               p in FAR_LOG_POWERS)
        for route in ("ltp_upper", "ltp_lower"):
            for ka in KAPPA_ALPHAS:
                yield power_cell(route, f"stable_type({alpha})",
                                 partial(state_free_stable, alpha), alpha, ka)
    for name, build in FINITE_MASS.items():
        for route in ("levy", "power"):
            for kappa in FINITE_MASS_KAPPAS:
                yield Cell(route, f"{name}-kappa={kappa}", build, partial(gr.power, kappa),
                           kappa, "zero", False, route == "levy")


CELLS = list(cells())


def truth_params():
    for c in CELLS:
        marks = [pytest.mark.xfail(strict=True, reason="defect e")] if c.wrong_today else []
        yield pytest.param(c.route, c.build, c.f, c.kappa, c.truth, marks=marks,
                           id=f"{c.route}-{c.case}")


def guard_params():
    for c in CELLS:
        if c.guarded and RIGHT[c.truth] & DEFINITE[c.route]:
            yield pytest.param(c.route, c.build, c.f, c.kappa, id=f"{c.route}-{c.case}")


@pytest.mark.parametrize("route,build,f,kappa,truth", truth_params())
def test_route_is_never_wrong(route, build, f, kappa, truth):
    outcome = ROUTES[route](build(), f(), kappa).outcome
    assert outcome == "indeterminate" or outcome in RIGHT[truth], (outcome, truth)


@pytest.mark.parametrize("route,build,f,kappa", guard_params())
def test_route_is_definite_away_from_the_line(route, build, f, kappa):
    # wherever the route can state the truth, it does not decline there
    assert ROUTES[route](build(), f(), kappa).definite
