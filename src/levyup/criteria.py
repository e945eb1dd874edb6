"""Integral convergence criteria and upper/lower growth classification.

All improper integrals over (0, 1] are handled by one dyadic engine: the
integral is computed block-by-block over [2^{-(n+1)}, 2^{-n}] and classified
from the behaviour of the block sums.  Convergence evidence is a geometric
block-ratio bound; divergence evidence is block sums bounded away from zero
or increasing.  Anything else is reported Indeterminate rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketIndeterminate, EvaluationFailure, InverseFailure
from .growth import GrowthFunction
from .measures import LevyMeasureModel
from .symbols import (
    ConditionReport,
    ProcessSpec,
    ball_grid,
    sector_check,
    symbol_extremum,
    tail_trend,
)


@dataclass(frozen=True)
class CriteriaSettings:
    n_levels: int = 60            # deepest dyadic level
    nodes_per_block: int = 16     # Gauss-Legendre order per block
    ratio_max: float = 0.9925     # geometric evidence threshold for block ratios
    floor: float = 1e-6           # divergence floor for last-half block sums
    c_exponents: tuple = tuple(range(-4, 9))   # scan 2^k for "some c > 0"
    r_grid_lo: float = 1e-6
    r_grid_hi: float = 1e-1
    r_grid_n: int = 30
    kappa_margin: float = 0.05    # comparability exponent must stay below 1 by this
    band_tol: float = 0.02        # critical-band half width for power classification
    ball_points: int = 17
    xi_radii: int = 48

    def r_grid(self):
        return np.logspace(np.log10(self.r_grid_hi), np.log10(self.r_grid_lo),
                           self.r_grid_n)

    def t_grid(self):
        return np.logspace(-1, -6, 26)


DEFAULTS = CriteriaSettings()

_GL_CACHE = {}
_A2_PANELS = 64  # uniform log-time panels of the A2 witness quadrature


def _gl_nodes(order):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


@dataclass
class IntegralVerdict:
    """Outcome of a dyadic convergence test of int_0^1 g(t) dt."""

    state: str  # "converges" | "diverges" | "indeterminate"
    value: float | None
    block_sums: np.ndarray
    n_max: int
    note: str = ""

    @property
    def converges(self):
        return self.state == "converges"

    @property
    def diverges(self):
        return self.state == "diverges"


@dataclass
class Classification:
    """Upper-function decision with the evidence that grounds it."""

    outcome: str  # "zero" | "infinity" | "lower_bound" | "indeterminate"
    c_over_5: float | None = None
    assumptions_used: list = field(default_factory=list)
    evidence: dict = field(default_factory=dict)
    reason: str = ""

    @property
    def definite(self):
        return self.outcome != "indeterminate"


@dataclass
class ExitBounds:
    """Closed exit-time bound factors at one (t, r); constants stay symbolic.

    ``schilling_factor`` is t * sup-sup |q| (to be multiplied by the absolute
    constant); ``survival_bound`` and ``expected_exit`` are constant-free;
    ``exponential_shape`` is exp(-t G(x, 2r)) up to the two uniform constants;
    ``lower`` is (1-c) t G(x, 2r) clipped to [0, 1]; ``symbol_survival_factor``
    is 1/(1 + t h(x, r)) with h the swapped-order symbol extremum.
    """

    schilling_factor: float
    survival_bound: float
    expected_exit: float
    exponential_shape: float
    lower: float
    symbol_survival_factor: float
    tail_intensity: float  # G(x, 2r) itself


# ---------------------------------------------------------------------------
# the dyadic engine
# ---------------------------------------------------------------------------


def dyadic_integral(g, n_max=DEFAULTS.n_levels, nodes=DEFAULTS.nodes_per_block,
                    settings=DEFAULTS, rows=None):
    """Classify int_0^1 g(t) dt from block sums over [2^{-(n+1)}, 2^{-n}].

    Converges: the last half of the block ratios stays below ``ratio_max``;
    the value is the partial sum plus a geometric tail bound (exact for
    exactly geometric decay).  Diverges: last-half block sums all above
    ``floor``, or increasing.  Otherwise Indeterminate.  ``g`` takes the
    array of one block's nodes and returns values of the same shape.

    With ``rows=k`` the integrand carries a leading parameter axis: it maps
    the (nodes,) array to (k, nodes) values, and the result is a list of k
    verdicts, row i classified as a one-row call on g(t)[i] would be (its
    block sums agree to rounding).  Each block still costs one call of ``g``.
    """
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    x_ref, w_ref = _gl_nodes(nodes)
    shape = (nodes,) if rows is None else (rows, nodes)
    sums = np.empty((n_max + 1,) + shape[:-1])  # blocks x rows
    for n in range(n_max + 1):
        a, b = 2.0 ** -(n + 1), 2.0**-n
        t = 0.5 * (b - a) * x_ref + 0.5 * (a + b)
        try:
            vals = np.asarray(g(t), float)
        except Exception as exc:
            raise EvaluationFailure(f"integrand failed on block {n}: {exc}") from exc
        if vals.shape != shape:
            raise EvaluationFailure(
                f"integrand returned shape {vals.shape} on block {n}; "
                f"it must map the {t.shape} node array to values of shape {shape}")
        if np.any(~np.isfinite(vals)):
            raise EvaluationFailure(f"integrand not finite on block {n}")
        sums[n] = 0.5 * (b - a) * (vals @ w_ref)
    if rows is None:
        return _classify_blocks(sums, settings)
    return [_classify_blocks(row, settings) for row in sums.T]


def _classify_blocks(sums, settings=DEFAULTS):
    n_max = len(sums) - 1
    half = len(sums) // 2
    tiny = 1e-300
    last = sums[half:]
    if np.all(sums <= tiny):
        return IntegralVerdict("converges", float(sums.sum()), sums, n_max,
                               note="all blocks vanish")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = sums[1:] / np.where(sums[:-1] > tiny, sums[:-1], np.nan)
    last_ratios = ratios[half - 1:]
    finite = last_ratios[np.isfinite(last_ratios)]
    if finite.size and float(np.max(finite)) <= settings.ratio_max:
        rho = float(np.max(finite))
        tail = sums[-1] * rho / (1.0 - rho)
        return IntegralVerdict(
            "converges", float(sums.sum() + tail), sums, n_max,
            note=f"geometric ratio {rho:.4f}",
        )
    increasing = np.all(np.diff(last) >= -1e-12 * np.abs(last[:-1]))
    if float(np.min(last)) >= settings.floor or (increasing and last[-1] > tiny):
        return IntegralVerdict("diverges", None, sums, n_max,
                               note="block sums bounded below" if not increasing
                               else "block sums increasing")
    return IntegralVerdict("indeterminate", None, sums, n_max,
                           note="no geometric or divergence evidence")


# ---------------------------------------------------------------------------
# tail and symbol integral criteria
# ---------------------------------------------------------------------------


def _ball_states(spec, x, radius, n_z):
    """States of B(x, radius) in the layout ``ProcessSpec.tail_at`` takes."""
    z = ball_grid(x, radius, spec.dim, n_z)
    return z[..., 0] if spec.dim == 1 else z


def tail_integral_criterion(spec: ProcessSpec, x, f: GrowthFunction, c,
                            ball_mode=None, ball_scale=1.0,
                            fixed_ball_radius=None, settings=DEFAULTS):
    """Dyadic verdict for the jump-tail integral int_0^1 nu(., |y| >= c f(t)) dt.

    ``ball_mode`` None evaluates the plain tail (Levy case); "sup"/"inf" take
    the extremum over the state ball of radius ``ball_scale * f(t)`` (or a
    fixed radius when ``fixed_ball_radius`` is given).

    A float ``c`` gives one ``IntegralVerdict``.  A 1-d array of c gives a
    list of verdicts, one per entry in its order, from one dyadic pass whose
    blocks evaluate every c at once (``dyadic_integral``'s ``rows``).
    """
    # a plain number takes the one-row path without np.ndim's call overhead
    if isinstance(c, (float, int)) or np.ndim(c) == 0:
        c = scale = float(c)
        rows, positive = None, c > 0
    else:
        c = np.asarray(c, float)
        if c.ndim != 1:
            raise ValueError("c must be a float or a 1-d array")
        scale, rows, positive = c[:, None], c.size, np.all(c > 0)
    if not positive:
        raise ValueError("c must be positive")
    if (ball_mode is None) != (spec.kind == "levy"):
        raise ValueError("ball_mode must be None exactly for Levy processes")

    if ball_mode is None:
        measure = spec.levy.measure

        def g(t):
            return np.asarray(measure.tail(scale * f(t)), float)

    else:
        if ball_mode not in ("sup", "inf"):
            raise ValueError(f"unknown ball_mode {ball_mode!r}")
        extremum = np.max if ball_mode == "sup" else np.min

        def g(t):
            ft = np.asarray(f(t), float)
            radius = ball_scale * ft if fixed_ball_radius is None \
                else fixed_ball_radius
            z = _ball_states(spec, x, radius, settings.ball_points)
            return extremum(spec.tail_at(z, (scale * ft)[..., None]), axis=-1)

    return dyadic_integral(g, settings.n_levels, settings.nodes_per_block, settings,
                           rows=rows)


# (ball_mode, value_kind) -> symbol_extremum mode; Re q only under the inf-ball
_SYMBOL_MODES = {(None, "abs"): "sup_sup", ("sup", "abs"): "sup_sup",
                 ("inf", "abs"): "inf_sup", ("inf", "re"): "inf_sup_re"}


def symbol_integral_criterion(spec: ProcessSpec, x, f: GrowthFunction, eps=1.0,
                              ball_mode=None, ball_scale=1.0, value_kind="abs",
                              verify_eps=True, settings=DEFAULTS):
    """Dyadic verdict for the symbol integral with frequency cap 1/(eps f(t)).

    For state-dependent processes the state ball has radius ball_scale * f(t)
    and ``ball_mode`` picks sup or inf over it.  The verdict must agree when
    recomputed at eps/2 (square-root subadditivity makes it scale-free); a
    disagreement is reported as Indeterminate.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    try:
        mode = _SYMBOL_MODES[ball_mode, value_kind]
    except KeyError:
        raise ValueError(f"unsupported ball_mode {ball_mode!r} with value_kind "
                         f"{value_kind!r}") from None

    # eps and, to verify, eps/2 as the rows of one pass
    eps_col = np.array([[eps], [eps / 2.0]]) if verify_eps else eps

    def g(t):
        ft = np.asarray(f(t), float)
        radius = 0.0 if spec.kind == "levy" else ball_scale * ft
        return symbol_extremum(spec, x, radius, 1.0 / (eps_col * ft), mode,
                               n_z=settings.ball_points, n_radii=settings.xi_radii)

    verdicts = dyadic_integral(g, settings.n_levels, settings.nodes_per_block,
                               settings, rows=2 if verify_eps else None)
    if not verify_eps:
        return verdicts
    verdict, check = verdicts
    if check.state != verdict.state and "indeterminate" not in (
        check.state, verdict.state
    ):
        return IntegralVerdict(
            "indeterminate", None, verdict.block_sums, verdict.n_max,
            note=f"eps-inconsistency: {verdict.state} at {eps}, "
                 f"{check.state} at {eps/2}",
        )
    return verdict


# ---------------------------------------------------------------------------
# side conditions
# ---------------------------------------------------------------------------


def check_A1(source, x=0.0, ball_radius=None, r_grid=None, settings=DEFAULTS):
    """Small-jump/tail balance: limsup_{r->0} trunc2(r) / (r^2 G(r)) < infinity.

    ``source`` is a LevyMeasureModel or a ProcessSpec; with ``ball_radius``
    set (state-dependent case) the ratio is first maximized over the state
    ball.  Fails when the tail vanishes on the grid, when the ratio exceeds
    1e3, or when it grows steadily in log-log as r -> 0.
    """
    if r_grid is None:
        r_grid = np.logspace(np.log10(settings.r_grid_hi), -4, settings.r_grid_n)
    r_grid = np.asarray(r_grid, float)
    if r_grid[0] < r_grid[-1]:
        r_grid = r_grid[::-1]
    if r_grid.min() > 1e-4 + 1e-12:
        raise ValueError("r_grid must reach down to 1e-4")

    r_col = r_grid[:, None]
    if isinstance(source, LevyMeasureModel):
        g = np.asarray(source.tail(r_grid), float)[:, None]
        t2 = np.asarray(source.trunc2(r_grid), float)[:, None]
        where = ""
    else:
        z1 = _ball_states(source, x, ball_radius or 0.0, settings.ball_points)
        g, t2 = source.tail_at(z1, r_col), source.trunc2_at(z1, r_col)
        where = " on the state ball"
    with np.errstate(divide="ignore", invalid="ignore"):
        witness = np.max(t2 / (r_col**2 * g), axis=1)
    # a vanishing tail above the support is skipped; along the approach to 0
    # (second half of the grid) it means no jump mass, and the balance fails
    dead = np.flatnonzero(np.any(g <= 0.0, axis=1))
    late = dead[dead >= len(r_grid) // 2]
    if late.size:
        return ConditionReport("fails", np.inf, r_grid,
                               reason=f"tail vanishes at r={r_grid[late[0]]}{where}")
    first_live = dead[-1] + 1 if dead.size else 0
    r_live, w_live = r_grid[first_live:], witness[first_live:]
    label, est = tail_trend(r_live, w_live)
    if label == "stable":
        return ConditionReport("holds", est, r_grid)
    if label == "diverging":
        return ConditionReport("fails", est, r_grid, reason="ratio grows as r -> 0")
    return ConditionReport("indeterminate", est, r_grid, reason="unstable ratio")


def check_A2(f: GrowthFunction, r_grid=None, use_shortcut=True, settings=DEFAULTS):
    """Growth condition on f: r^2 int_{f^{-1}(r)}^1 f(t)^{-2} dt <= M f^{-1}(r).

    The direct witness is maximized over the grid.  All inverses come from
    one call and all integrals from one fixed 16-node Gauss-Legendre pass in
    u = log t (_A2_PANELS uniform panels split at each log f^{-1}(r)): exact
    to rounding for smooth f; a kink of f inside a panel costs ~2e-7
    relative (the e^{-e} clamp of sqrt_loglog).  A sufficient shortcut
    (f(t)/t increasing to infinity while f(t)/t^a decreases to 0 for some
    a > 1/2) is tried first when ``use_shortcut`` and reported with the
    shortcut flag set.
    """
    r_grid = np.asarray(settings.r_grid() if r_grid is None else r_grid, float)
    if r_grid[0] < r_grid[-1]:
        r_grid = r_grid[::-1]
    witness = _a2_direct_witness(f, r_grid)
    if use_shortcut and _a2_shortcut(f):
        return ConditionReport("holds", witness.max(), r_grid, shortcut=True,
                               reason="f/t increases to infinity, f/t^a decreases")
    label, est = tail_trend(r_grid, witness)
    if label == "stable":
        return ConditionReport("holds", est, r_grid)
    if label == "diverging":
        return ConditionReport("fails", est, r_grid, reason="witness grows as r -> 0")
    return ConditionReport("indeterminate", est, r_grid, reason="unstable witness")


def _a2_direct_witness(f, r_grid):
    t0 = f.inverse(r_grid)
    u0 = np.log(t0)
    # int_{t0}^1 f^{-2} dt = int_{u0}^0 e^u f(e^u)^{-2} du for every r at once:
    # 16-node Gauss-Legendre panels with each u0 among their edges, summed
    # from u = 0 down
    edges = np.unique(np.concatenate([np.linspace(u0.min(), 0.0, _A2_PANELS + 1), u0]))
    x, w = _gl_nodes(16)
    half = 0.5 * np.diff(edges)[:, None]
    t = np.exp(edges[:-1, None] + half * (1.0 + x))
    panels = (half * w * t * f(t) ** -2.0).sum(axis=1)
    above = np.append(np.cumsum(panels[::-1])[::-1], 0.0)
    return r_grid**2 * above[np.searchsorted(edges, u0)] / t0


def _a2_shortcut(f, alphas=None):
    t = np.logspace(-12, -0.3, 48)
    ft = f(t)
    over_t = ft / t
    # f(t)/t must increase (as t decreases) without bound
    if not (np.all(np.diff(over_t) <= 1e-9 * over_t[:-1]) and over_t[0] > 10 * over_t[-1]):
        return False
    if alphas is None:
        alphas = np.linspace(0.55, 0.95, 9)
    for a in alphas:
        ratio = ft / t**a
        if np.all(np.diff(ratio) >= -1e-9 * ratio[1:]) and ratio[0] < 0.1 * ratio[-1]:
            return True
    return False


# ---------------------------------------------------------------------------
# small-jump activity index
# ---------------------------------------------------------------------------


def _moment_integrand(measure, a):
    """t -> a t^(a-1) (G(t) - G(1-)), whose integral over (0, 1) is the
    radial moment int_{|y|<1} |y|^a nu(dy); 1/t (G(t) - G(1-)) at a = 0."""
    g1 = float(measure.tail(1.0 - 1e-12))

    def g(t):
        t_arr = np.asarray(t, float)
        base = np.ones_like(t_arr) / t_arr if a == 0.0 else a * t_arr ** (a - 1.0)
        return base * np.maximum(np.asarray(measure.tail(t_arr), float) - g1, 0.0)

    return g


def bg_index(measure: LevyMeasureModel, tol=0.02, settings=DEFAULTS):
    """Small-jump activity index inf{a : int_{|y|<1} |y|^a nu(dy) < infinity}.

    The radial moment is rewritten through the tail,
    int_{|y|<1} |y|^a nu(dy) = int_0^1 a t^{a-1} (G(t) - G(1^-)) dt,
    and classified by the dyadic engine; bisection on a in [0, 2].
    """
    if not 0 < tol <= 0.1:
        raise ValueError("tol must lie in (0, 0.1]")

    def verdict_at(a):
        return dyadic_integral(_moment_integrand(measure, a), settings.n_levels,
                               settings.nodes_per_block, settings)

    lo, hi = 0.0, 2.0  # moment at 2 is finite for every Levy measure
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        v = verdict_at(mid)
        if v.state == "indeterminate":
            nudged = mid + (hi - lo) / 8.0
            v = verdict_at(nudged)
            if v.state == "indeterminate":
                raise BracketIndeterminate(
                    f"moment test indeterminate at a={mid} and a={nudged}"
                )
            mid = nudged
        if v.converges:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# classification drivers
# ---------------------------------------------------------------------------


def _require_pure_jump(spec):
    tri = spec.levy if spec.kind == "levy" else spec.driver
    if tri is not None and tri.has_gaussian_part:
        raise ValueError(
            "classification requires a vanishing diffusion part (Q = 0); "
            "Gaussian parts are supported in simulation only"
        )


def classify_levy(spec: ProcessSpec, f: GrowthFunction, settings=DEFAULTS):
    """Zero/Infinity dichotomy for a Levy process via the jump-tail integral.

    Verifies the sector condition and one of the two side conditions first;
    when neither side condition holds the dichotomy can genuinely fail, so
    the outcome is Indeterminate with the reason recorded.
    """
    if spec.kind != "levy":
        raise ValueError("classify_levy expects a Levy process")
    _require_pure_jump(spec)
    evidence = {}
    sector = sector_check(spec)
    evidence["sector"] = sector
    a1 = check_A1(spec.levy.measure, settings=settings)
    evidence["A1"] = a1
    grounding = []
    if a1.holds:
        grounding.append("A1")
    else:
        try:
            a2 = check_A2(f, settings=settings)
        except InverseFailure as exc:
            a2 = ConditionReport("fails", np.inf, np.array([]), reason=str(exc))
        evidence["A2"] = a2
        if a2.holds:
            grounding.append("A2")
    if not sector.holds:
        return Classification("indeterminate", evidence=evidence,
                              reason="sector condition unverified")
    if not grounding:
        return Classification("indeterminate", evidence=evidence,
                              reason="A1 and A2 both fail")
    grounding.append("Sector")

    verdicts = {}
    n_diverge = 0
    for k in settings.c_exponents:
        c = 2.0**k
        v = tail_integral_criterion(spec, None, f, c, settings=settings)
        verdicts[c] = v
        if v.converges:
            evidence["tail_integrals"] = verdicts
            return Classification("zero", assumptions_used=grounding,
                                  evidence=evidence)
        if v.diverges:
            n_diverge += 1
    evidence["tail_integrals"] = verdicts
    if n_diverge == len(settings.c_exponents):
        return Classification("infinity", assumptions_used=grounding,
                              evidence=evidence)
    return Classification("indeterminate", assumptions_used=grounding,
                          evidence=evidence, reason="mixed integral evidence")


def classify_power(spec: ProcessSpec, kappa, settings=DEFAULTS):
    """Power-function decision f(t) = t^kappa.

    kappa < 1/2 is an upper regime for every pure-jump Levy-type process;
    kappa = 1/2 needs the small-jump balance condition; kappa > 1/2 reduces
    to the radial moment int_{|y|<1} |y|^{1/kappa} nu(dy), with the activity
    index as fallback and an Indeterminate band around kappa = 1/beta.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if spec.kind != "levy":
        raise ValueError("classify_power expects a Levy process")
    _require_pure_jump(spec)
    evidence = {}
    if kappa < 0.5 - 1e-12:
        return Classification("zero", evidence=evidence,
                              reason="kappa below 1/2 is unconditional")
    a1 = check_A1(spec.levy.measure, settings=settings)
    evidence["A1"] = a1
    if abs(kappa - 0.5) <= 1e-12:
        if a1.holds:
            return Classification("zero", assumptions_used=["A1"],
                                  evidence=evidence)
        return Classification("indeterminate", evidence=evidence,
                              reason="kappa = 1/2 without small-jump balance")
    sector = sector_check(spec)
    evidence["sector"] = sector
    if not sector.holds:
        return Classification("indeterminate", evidence=evidence,
                              reason="sector condition unverified")
    measure = spec.levy.measure
    v = dyadic_integral(_moment_integrand(measure, 1.0 / kappa), settings.n_levels,
                        settings.nodes_per_block, settings)
    evidence["moment_integral"] = v
    if v.converges:
        return Classification("zero", assumptions_used=["Sector"], evidence=evidence)
    if v.diverges:
        return Classification("infinity", assumptions_used=["Sector"],
                              evidence=evidence)
    beta = bg_index(measure, settings.band_tol, settings)
    evidence["bg_index"] = beta
    if abs(kappa - 1.0 / max(beta, 1e-9)) < settings.band_tol:
        return Classification("indeterminate", evidence=evidence,
                              reason="kappa in the critical band around 1/beta")
    outcome = "zero" if kappa < 1.0 / beta else "infinity"
    return Classification(outcome, assumptions_used=["Sector"], evidence=evidence)


def majorization_holds(spec: ProcessSpec, x, ball_radius, settings=DEFAULTS):
    """Spot-check: some state in each ball dominates the symbol sup in |q|."""
    xi = np.logspace(0, 4, 9)
    xi_pts = xi[:, None] if spec.dim == 1 else np.pad(xi[:, None],
                                                      ((0, 0), (0, spec.dim - 1)))
    radii = np.linspace(ball_radius / 4, ball_radius, 4)
    z = ball_grid(x, radii, spec.dim, settings.ball_points)
    table = np.abs(spec.q(z[:, :, None, :], xi_pts))   # radius x state x xi
    sup = table.max(axis=1, keepdims=True)
    dominant = np.all(table >= sup * (1 - 1e-9), axis=2)
    return bool(np.all(np.any(dominant, axis=1)))


def _c_scan(spec, x, f, fixed_ball_radius, evidence, key, settings):
    """Sup-ball tail integrals at c = 2^k for k in ``settings.c_exponents``;
    ``evidence[key]`` maps c to its verdict up to the first converging one,
    and the return value says whether one converges.

    For a power-type f the integral converges at every c or at none, so the
    first c runs alone (a converging scan stops there) and the others share
    one pass (``tail_integral_criterion`` with an array of c)."""
    cs = [2.0**k for k in settings.c_exponents]

    def scan(c):
        return tail_integral_criterion(spec, x, f, c, ball_mode="sup",
                                       fixed_ball_radius=fixed_ball_radius,
                                       settings=settings)

    verdicts = [scan(cs[0])] if cs else []
    if verdicts and not verdicts[0].converges and len(cs) > 1:
        verdicts += scan(np.array(cs[1:]))
    for c, v in zip(cs, verdicts):
        evidence.setdefault(key, {})[c] = v
        if v.converges:
            return True
    return False


def classify_ltp_upper(spec: ProcessSpec, x, f: GrowthFunction,
                       ball_radius=0.5, use_majorization_route=False,
                       settings=DEFAULTS):
    """Upper-function decision for a state-dependent or SDE process.

    The symbol route (sup over the moving state ball of the capped symbol)
    needs no side condition; its convergence alone yields Zero.  The tail
    route needs the sector condition and the ball version of the small-jump
    balance.  An optional majorization route accepts the fixed-ball tail
    integral under the growth condition on f.
    """
    if spec.kind == "levy":
        raise ValueError("use classify_levy for Levy processes")
    _require_pure_jump(spec)
    evidence = {}

    v2 = symbol_integral_criterion(spec, x, f, eps=1.0, ball_mode="sup",
                                   settings=settings)
    evidence["symbol_integral"] = v2
    if v2.converges:
        return Classification("zero", assumptions_used=[], evidence=evidence,
                              reason="symbol route")

    sector = sector_check(spec, x_ball=(x, ball_radius))
    evidence["sector"] = sector
    a1p = check_A1(spec, x=x, ball_radius=ball_radius, settings=settings)
    evidence["A1'"] = a1p
    if sector.holds and a1p.holds and _c_scan(
            spec, x, f, None, evidence, "tail_integrals", settings):
        return Classification("zero", assumptions_used=["Sector", "A1'"],
                              evidence=evidence, reason="tail route")

    if use_majorization_route:
        a2 = check_A2(f, settings=settings)
        evidence["A2"] = a2
        if (a2.holds and majorization_holds(spec, x, ball_radius, settings)
                and _c_scan(spec, x, f, ball_radius, evidence, "fixed_ball_tail",
                            settings)):
            return Classification("zero", assumptions_used=["A2", "Majorization"],
                                  evidence=evidence, reason="fixed-ball tail route")
    return Classification("indeterminate", evidence=evidence,
                          reason="no convergent route")


def _limsup_diverges(t_grid, values):
    label, _ = tail_trend(t_grid, values, blowup=1e6)
    return label == "diverging"


def fit_symbol_growth(spec: ProcessSpec, x, ball_radius, settings=DEFAULTS):
    """Least-squares growth exponent of sup-ball |q| on |xi| in [1e2, 1e5]."""
    xi = np.logspace(2, 5, 13)
    vals = symbol_extremum(spec, x, ball_radius, xi, "sup_sup",
                           n_z=settings.ball_points, n_radii=settings.xi_radii)
    slope = np.polyfit(np.log(xi), np.log(np.maximum(vals, 1e-300)), 1)[0]
    return float(min(max(slope, 1e-6), 2.0))


def check_C1(spec: ProcessSpec, x, f: GrowthFunction, settings=DEFAULTS):
    """Comparability of sup-ball and inf-ball symbol sizes with a t^{-kappa}
    envelope, kappa < 1.  For a regularly varying f only the unit ball scale
    is tested; a z-independent symbol passes trivially."""
    if spec.kind == "levy":
        return ConditionReport("holds", 0.0, np.array([]), reason="state-free symbol")
    t_grid = settings.t_grid()
    R_set = (1.0,) if f.regularly_varying else (1.0, 2.0, 4.0)
    ft = np.asarray(f(t_grid), float)
    num = symbol_extremum(spec, x, ft, 1.0 / ft, "sup_sup",
                          n_z=settings.ball_points, n_radii=settings.xi_radii)
    worst = 0.0
    for R in R_set:
        den = symbol_extremum(spec, x, R * ft, 1.0 / ft, "inf_sup",
                              n_z=settings.ball_points, n_radii=settings.xi_radii)
        if np.any(den <= 0):
            return ConditionReport("fails", np.inf, t_grid,
                                   reason="inf-ball symbol vanishes")
        ratios = num / den
        kappa_fit = -np.polyfit(np.log(t_grid), np.log(ratios), 1)[0]
        worst = max(worst, kappa_fit)
        if kappa_fit >= 1.0 - settings.kappa_margin:
            return ConditionReport("fails", kappa_fit, t_grid,
                                   reason="comparability exponent reaches 1")
    return ConditionReport("holds", worst, t_grid)


def check_C2(spec: ProcessSpec, x, f: GrowthFunction, ball_radius=0.5,
             settings=DEFAULTS):
    """Polynomial symbol growth of fitted order a plus liminf t^{-2/a} f(t) = inf."""
    alpha = fit_symbol_growth(spec, x, ball_radius, settings)
    t_grid = settings.t_grid()
    w = t_grid ** (-2.0 / alpha) * f(t_grid)
    if _limsup_diverges(t_grid, w) and np.all(np.diff(w) >= -1e-9 * w[:-1]):
        rep = ConditionReport("holds", alpha, t_grid)
        return rep
    return ConditionReport("fails", alpha, t_grid,
                           reason="t^{-2/a} f(t) does not blow up")


def classify_ltp_lower(spec: ProcessSpec, x, f: GrowthFunction, C=1.0,
                       settings=DEFAULTS):
    """Lower growth decision: Infinity via the inf-ball symbol blow-up, or a
    LowerBound(C/5) via the comparability/growth conditions plus a divergent
    inf-ball integral.

    The blow-up witness is t * inf-ball sup-frequency Re q at frequency cap
    1/(C f(t)); square-root subadditivity makes its divergence C-free, so one
    level plus a halved spot check suffices.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    _require_pure_jump(spec)
    evidence = {}
    t_grid = settings.t_grid()
    R_set = (1.0,) if f.regularly_varying else (1.0, 2.0, 4.0)
    ft = np.asarray(f(t_grid), float)

    def witness(R, C_loc):
        radius = 0.0 if spec.kind == "levy" else R * ft
        return t_grid * symbol_extremum(spec, x, radius, 1.0 / (C_loc * ft),
                                        "inf_sup_re", n_z=settings.ball_points,
                                        n_radii=settings.xi_radii)

    blowup_all = True
    for R in R_set:
        w1 = witness(R, C)
        w2 = witness(R, C / 2.0)
        ok = _limsup_diverges(t_grid, w1) and _limsup_diverges(t_grid, w2)
        evidence[f"blowup_witness_R={R:g}"] = w1
        if not ok:
            blowup_all = False
            break
    if blowup_all:
        return Classification("infinity", evidence=evidence,
                              reason="symbol blow-up route")

    c1 = check_C1(spec, x, f, settings)
    evidence["C1"] = c1
    grounds = []
    if c1.holds:
        grounds.append("C1")
        if spec.kind != "levy":
            sec = sector_check(spec, x_ball=(x, float(f(1.0))))
            evidence["sector"] = sec
            if not sec.holds:
                grounds.remove("C1")
    if not grounds:
        c2 = check_C2(spec, x, f, settings=settings)
        evidence["C2"] = c2
        if c2.holds:
            grounds.append("C2")
    if not grounds:
        return Classification("indeterminate", evidence=evidence,
                              reason="neither comparability nor growth verified")

    if spec.kind == "levy":
        v_tail = tail_integral_criterion(spec, None, f, C, settings=settings)
    else:
        v_tail = tail_integral_criterion(spec, x, f, C, ball_mode="inf",
                                         ball_scale=C, settings=settings)
    evidence["inf_tail_integral"] = v_tail
    route = None
    if v_tail.diverges:
        route = "tail"
    else:
        a1p = check_A1(spec, x=x, ball_radius=float(f(1.0)), settings=settings) \
            if spec.kind != "levy" else check_A1(spec.levy.measure, settings=settings)
        evidence["A1'"] = a1p
        if a1p.holds:
            v_sym = symbol_integral_criterion(spec, x, f, eps=1.0,
                                              ball_mode=None if spec.kind == "levy" else "inf",
                                              ball_scale=C, settings=settings)
            evidence["inf_symbol_integral"] = v_sym
            if v_sym.diverges:
                route = "symbol"
                grounds.append("A1'")
    if route is None:
        return Classification("indeterminate", assumptions_used=grounds,
                              evidence=evidence,
                              reason="no divergent inf-ball integral")
    return Classification("lower_bound", c_over_5=C / 5.0,
                          assumptions_used=grounds, evidence=evidence,
                          reason=f"{route} route")


# ---------------------------------------------------------------------------
# exit-time bounds
# ---------------------------------------------------------------------------


def ball_tail_intensity(spec: ProcessSpec, x, r, settings=DEFAULTS):
    """G(x, r) = inf over the state ball B(x, r) of nu(z, {|y| > r})."""
    if spec.kind == "levy":
        return float(spec.levy.measure.tail(r))
    return float(np.min(spec.tail_at(_ball_states(spec, x, r, settings.ball_points), r)))


def exit_bounds(spec: ProcessSpec, x, t, r, c_lower=0.5, settings=DEFAULTS):
    """All closed exit-time bound factors at (t, r); see ExitBounds."""
    if t < 0 or r <= 0:
        raise ValueError("need t >= 0 and r > 0")
    if not 0 <= c_lower <= 1:
        raise ValueError("c_lower must lie in [0, 1]")
    g2r = ball_tail_intensity(spec, x, 2 * r, settings)
    supsup = symbol_extremum(spec, x, r, 1.0 / r, "sup_sup",
                             n_z=settings.ball_points, n_radii=settings.xi_radii)
    h_swap = symbol_extremum(spec, x, r, 1.0 / (2 * r), "sup_inf_re",
                             n_z=settings.ball_points, n_radii=settings.xi_radii)
    return ExitBounds(
        schilling_factor=t * supsup,
        survival_bound=1.0 / (1.0 + t * g2r),
        expected_exit=np.inf if g2r == 0 else 1.0 / g2r,
        exponential_shape=float(np.exp(-t * g2r)),
        lower=float(min((1.0 - c_lower) * t * g2r, 1.0)),
        symbol_survival_factor=1.0 / (1.0 + t * h_swap),
        tail_intensity=g2r,
    )
