"""Integral convergence criteria and upper/lower growth classification.

All improper integrals over (0, 1] are handled by one dyadic engine: the
integral is computed block-by-block over [2^{-(n+1)}, 2^{-n}] and classified
from the behaviour of the block sums.  Convergence evidence is a geometric
block-ratio bound; divergence evidence is block sums bounded away from zero
or increasing.  Anything else is reported Indeterminate rather than guessed.
The engine's depth ``n_max`` is the one numerical argument; every other
threshold is a module constant beside the code that reads it.
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
    _ball_states,
    _capped_extremum,
    _check_ball,
    _trend_report,
    ball_grid,
    sector_check,
    symbol_extremum,
    tail_trend,
)


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
    ``lower`` is (1-c) t G(x, 2r) with c = ``C_LOWER``, clipped to [0, 1];
    ``symbol_survival_factor`` is 1/(1 + t h(x, r)) with h the swapped-order extremum.
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


RATIO_MAX = 0.9925  # geometric evidence threshold for the last-half block ratios
FLOOR = 1e-6        # divergence floor for the last-half block sums


def _block_nodes(n_max, nodes):
    """Gauss-Legendre nodes of the blocks (blocks x nodes) and their half widths."""
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    h = np.ldexp(1.0, -2 - np.arange(n_max + 1))
    return h[:, None] * _gl_nodes(nodes)[0] + 3.0 * h[:, None], h  # midpoints 3h


def _growth_on_nodes(f, n_max):
    """f on every block's 16 nodes, blocks x nodes; a failure is an ``EvaluationFailure``."""
    t = _block_nodes(n_max, 16)[0]
    try:
        return np.asarray(f(t), float)
    except Exception as exc:
        raise EvaluationFailure(f"growth function failed on the dyadic nodes: {exc}") from exc


def dyadic_integral(g, n_max=60, nodes=16, rows=None):
    """Classify int_0^1 g(t) dt from block sums over [2^{-(n+1)}, 2^{-n}].

    Converges: the last-half block ratios stay below ``RATIO_MAX``; the value is the
    partial sum plus a geometric tail bound.  Diverges: last-half block sums all above
    ``FLOOR``, or increasing.  Otherwise Indeterminate.  ``g`` maps one block's nodes to
    values of their shape, or (``rows=k``) to (k, nodes), giving a list of k verdicts,
    row i bit-identical to a one-row call (the Levy tail integral's, the last callable);
    or ``g`` is the blocks x rows x nodes table on ``_block_nodes`` (the symbol, state-ball
    tail and moment integrals', the last from one tail table per call), reduced row by row.
    """
    t, half_widths = _block_nodes(n_max, nodes)
    shape = (n_max + 1,) + ((nodes,) if rows is None else (rows, nodes))
    if callable(g):
        table = np.empty(shape)  # blocks x rows x nodes
        for n, tn in enumerate(t):
            try:
                vals = np.asarray(g(tn), float)
            except Exception as exc:
                raise EvaluationFailure(f"integrand failed on block {n}: {exc}") from exc
            if vals.shape != shape[1:]:
                raise EvaluationFailure(
                    f"integrand returned shape {vals.shape} on block {n}; it must "
                    f"map the {tn.shape} node array to values of shape {shape[1:]}")
            if np.any(~np.isfinite(vals)):
                raise EvaluationFailure(f"integrand not finite on block {n}")
            table[n] = vals
    elif (table := np.asarray(g, float)).shape != shape:
        raise EvaluationFailure(f"integrand table has shape {table.shape}, not {shape}")
    elif (bad := ~np.isfinite(table).reshape(len(table), -1).all(axis=1)).any():
        raise EvaluationFailure(f"integrand not finite on block {np.argmax(bad)}")
    # einsum sums row by row; a BLAS product's order varies with the row count
    sums = np.einsum("n...j,j->n...", table, _gl_nodes(nodes)[1]).T * half_widths
    if rows is None:
        return _classify_blocks(sums)
    return [_classify_blocks(row) for row in sums]


def _classify_blocks(sums):
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
    if finite.size and float(np.max(finite)) <= RATIO_MAX:
        rho = float(np.max(finite))
        tail = sums[-1] * rho / (1.0 - rho)
        return IntegralVerdict(
            "converges", float(sums.sum() + tail), sums, n_max,
            note=f"geometric ratio {rho:.4f}",
        )
    increasing = np.all(np.diff(last) >= -1e-12 * np.abs(last[:-1]))
    if float(np.min(last)) >= FLOOR or (increasing and last[-1] > tiny):
        return IntegralVerdict("diverges", None, sums, n_max,
                               note="block sums bounded below" if not increasing
                               else "block sums increasing")
    return IntegralVerdict("indeterminate", None, sums, n_max,
                           note="no geometric or divergence evidence")


# ---------------------------------------------------------------------------
# tail and symbol integral criteria
# ---------------------------------------------------------------------------


def tail_integral_criterion(spec: ProcessSpec, x, f: GrowthFunction, c,
                            ball_mode=None, ball_scale=1.0,
                            fixed_ball_radius=None, n_max=60):
    """Dyadic verdict for the jump-tail integral int_0^1 nu(., |y| >= c f(t)) dt.

    ``ball_mode`` None evaluates the plain tail (Levy case) block by block; "sup"/"inf",
    the extremum over the state ball of radius ``ball_scale * f(t)`` (or ``fixed_ball_radius``)
    per ``SYMBOL_CHUNK`` blocks: one ``tail_at`` table, states on its leading (contiguous) axis.

    A float ``c`` gives one ``IntegralVerdict``, a 1-d array of positive finite c a
    list of verdicts in its order from one dyadic pass (``dyadic_integral``'s ``rows``).
    """
    # a plain number takes the one-row path without np.ndim's call overhead
    if isinstance(c, (float, int)) or np.ndim(c) == 0:
        c = scale = float(c)
        rows, positive = None, 0 < c < np.inf
    else:
        c = np.asarray(c, float)
        if c.ndim != 1:
            raise ValueError("c must be a float or a 1-d array")
        scale, rows, positive = c[:, None], c.size, np.all((c > 0) & (c < np.inf))
    if not positive:
        raise ValueError("c must be positive and finite")
    if (ball_mode is None) != (spec.kind == "levy"):
        raise ValueError("ball_mode must be None exactly for Levy processes")
    _check_ball(spec, x, ball_scale, "ball_scale")
    if fixed_ball_radius is not None:
        _check_ball(spec, x, fixed_ball_radius, "fixed_ball_radius")

    if ball_mode is None:
        tail = spec.levy.measure.tail
        return dyadic_integral(lambda t: np.asarray(tail(scale * f(t)), float), n_max, rows=rows)
    if ball_mode not in ("sup", "inf"):
        raise ValueError(f"unknown ball_mode {ball_mode!r}")
    extremum = np.max if ball_mode == "sup" else np.min
    ft = _growth_on_nodes(f, n_max)[:, None, :]  # blocks x 1 x nodes

    def chunk(blocks):  # one tail_at call over states x blocks x rows x nodes, states reduced
        radius = (ball_scale * ft[blocks] if fixed_ball_radius is None
                  else np.full((1, 1, 1), fixed_ball_radius))
        z = np.moveaxis(_ball_states(spec, x, radius), -2, 0)  # states first
        return extremum(spec.tail_at(np.ascontiguousarray(z), scale * ft[blocks]), axis=0)

    table = _by_chunk(len(ft), chunk)
    return dyadic_integral(table[:, 0] if rows is None else table, n_max, rows=rows)


SYMBOL_CHUNK = 16  # dyadic blocks per table chunk of the state-ball tail integrands
SYMBOL_EPS = 1.0  # eps of the symbol integrals' frequency cap 1/(eps f(t))


def _by_chunk(n_blocks, chunk):
    """``chunk`` per slice of ``SYMBOL_CHUNK`` blocks, concatenated; a failure names its blocks."""
    parts = []
    for i in range(0, n_blocks, SYMBOL_CHUNK):
        try:
            parts.append(chunk(slice(i, i + SYMBOL_CHUNK)))
        except Exception as exc:
            raise EvaluationFailure(f"integrand failed on blocks from {i}: {exc}") from exc
    return np.concatenate(parts)


def _symbol_table(spec, x, ft, eps_col, ball_scale, mode):
    """Capped symbol at f(t) = ft (blocks x nodes) as blocks x eps x nodes from one
    ``symbols._capped_extremum`` lattice, read at each exact cap on the block's largest
    ball: balls round only up, harder for a sup-ball zero and an inf-ball bound."""
    caps, balls = 1.0 / (eps_col * ft[:, None, :]), ball_scale * ft.max(axis=-1)
    if not ((caps > 0) & (caps < np.inf)).all():
        raise EvaluationFailure("frequency caps must be positive and finite")
    try:
        return _capped_extremum(spec, x, balls[:, None, None], caps, mode)
    except Exception as exc:
        raise EvaluationFailure(f"symbol integrand failed: {exc}") from exc


def symbol_integral_criterion(spec: ProcessSpec, x, f: GrowthFunction, ball_mode="sup",
                              ball_scale=1.0, n_max=60):
    """Dyadic verdict for the symbol integral with frequency cap 1/(eps f(t)).

    ``ball_mode`` "sup" or "inf" picks the extremum over the state ball of radius
    ball_scale * f(t).  The verdict at eps = ``SYMBOL_EPS`` must agree at eps/2
    (square-root subadditivity makes it scale-free), else it is Indeterminate.  The
    integrand is one ``_symbol_table`` of eps and eps/2 in mode sup_sup or inf_sup.
    """
    _check_ball(spec, x, ball_scale, "ball_scale")
    if ball_mode not in ("sup", "inf"):
        raise ValueError(f"unknown ball_mode {ball_mode!r}; choose 'sup' or 'inf'")

    eps = SYMBOL_EPS
    table = _symbol_table(spec, x, _growth_on_nodes(f, n_max), np.array([[eps], [eps / 2.0]]),
                          ball_scale, f"{ball_mode}_sup")
    verdict, check = dyadic_integral(table, n_max, rows=2)
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


# the decreasing radii of check_A1's and check_A2's witnesses
A1_RADII = np.logspace(-1, -4, 30)
A1_RADII.flags.writeable = False
A2_RADII = np.logspace(-1, -6, 30)
A2_RADII.flags.writeable = False


def check_A1(spec: ProcessSpec, x=0.0, ball_radius=None):
    """Small-jump/tail balance: limsup_{r->0} trunc2(r) / (r^2 G(r)) < infinity.

    With ``ball_radius`` set (state-dependent case) the ratio is first
    maximized over the state ball, which a Levy spec collapses to its centre.
    Fails when the tail vanishes on A1_RADII, when the ratio exceeds 1e3, or
    when it grows steadily in log-log as r -> 0.
    """
    r_col = A1_RADII[:, None]
    _check_ball(spec, x, ball_radius or 0.0)
    z1 = _ball_states(spec, x, ball_radius or 0.0)
    g, t2 = spec.tail_at(z1, r_col), spec.trunc2_at(z1, r_col)
    where = "" if spec.kind == "levy" else " on the state ball"
    with np.errstate(divide="ignore", invalid="ignore"):
        witness = (t2 / (r_col**2 * g)).max(axis=1)
    # a vanishing tail above the support is skipped; along the approach to 0
    # (second half of the grid) it means no jump mass, and the balance fails
    dead = (g <= 0.0).any(axis=1).nonzero()[0]
    late = dead[dead >= len(A1_RADII) // 2]
    if late.size:
        return ConditionReport("fails", np.inf, A1_RADII,
                               reason=f"tail vanishes at r={A1_RADII[late[0]]}{where}")
    first_live = dead[-1] + 1 if dead.size else 0
    return _trend_report(A1_RADII[first_live:], witness[first_live:],
                        "ratio grows as r -> 0", "unstable ratio", report_grid=A1_RADII)


def check_A2(f: GrowthFunction):
    """Growth condition on f: r^2 int_{f^{-1}(r)}^1 f(t)^{-2} dt <= M f^{-1}(r).

    The direct witness is maximized over A2_RADII: one inverse call and one 16-node
    Gauss-Legendre pass in u = log t (_A2_PANELS panels split at each log f^{-1}(r)),
    exact to rounding for smooth f (~2e-7 relative at a kink, as sqrt_loglog's clamp).
    A sufficient shortcut (f(t)/t increasing to infinity, f(t)/t^a decreasing to 0 for
    some a > 1/2) is tried first, with the shortcut flag set.
    """
    witness = _a2_direct_witness(f, A2_RADII)
    if _a2_shortcut(f):
        return ConditionReport("holds", witness.max(), A2_RADII, shortcut=True,
                               reason="f/t increases to infinity, f/t^a decreases")
    return _trend_report(A2_RADII, witness, "witness grows as r -> 0", "unstable witness")


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


A2_SHORTCUT_ALPHAS = np.linspace(0.55, 0.95, 9)  # exponents a tried for f/t^a
A2_SHORTCUT_ALPHAS.flags.writeable = False


def _a2_shortcut(f):
    t = np.logspace(-12, -0.3, 48)
    ft = f(t)
    over_t = ft / t
    # f(t)/t must increase (as t decreases) without bound
    if not (np.all(np.diff(over_t) <= 1e-9 * over_t[:-1]) and over_t[0] > 10 * over_t[-1]):
        return False
    for a in A2_SHORTCUT_ALPHAS:
        ratio = ft / t**a
        if np.all(np.diff(ratio) >= -1e-9 * ratio[1:]) and ratio[0] < 0.1 * ratio[-1]:
            return True
    return False


# ---------------------------------------------------------------------------
# small-jump activity index
# ---------------------------------------------------------------------------


def _moment_table(measure, n_max):
    """a -> a t^(a-1) (G(t) - G(1-)) on the dyadic nodes t, whose integral over (0, 1) is
    the radial moment int_{|y|<1} |y|^a nu(dy) for a > 0, from one G call on every node."""
    t = _block_nodes(n_max, 16)[0]
    try:
        g1 = float(measure.tail(1.0 - 1e-12))
        excess = np.maximum(np.asarray(measure.tail(t), float) - g1, 0.0)
    except Exception as exc:
        raise EvaluationFailure(f"moment integrand failed: {exc}") from exc
    return lambda a: a * t ** (a - 1.0) * excess


def bg_index(measure: LevyMeasureModel, tol=0.02, n_max=60):
    """Small-jump activity index inf{a : int_{|y|<1} |y|^a nu(dy) < infinity}.

    The radial moment is rewritten through the tail,
    int_{|y|<1} |y|^a nu(dy) = int_0^1 a t^{a-1} (G(t) - G(1^-)) dt,
    and classified by the dyadic engine; bisection on a in [0, 2].  Every step reads
    one ``_moment_table``, so G is called twice per call, however many steps run.
    """
    if not 0 < tol <= 0.1:
        raise ValueError("tol must lie in (0, 0.1]")
    table = _moment_table(measure, n_max)
    lo, hi = 0.0, 2.0  # moment at 2 is finite for every Levy measure
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        v = dyadic_integral(table(mid), n_max)
        if v.state == "indeterminate":
            nudged = mid + (hi - lo) / 8.0
            v = dyadic_integral(table(nudged), n_max)
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


C_EXPONENTS = tuple(range(-4, 9))  # the tail integrals scan c = 2^k for "some c > 0"
BALL_RADIUS = 0.5  # the state ball of classify_ltp_upper's side conditions and of check_C2


def classify_levy(spec: ProcessSpec, f: GrowthFunction, n_max=60):
    """Zero/Infinity dichotomy for a Levy process via the jump-tail integral.

    A measure of finite total mass with no effective drift
    b - int_{0<|y|<1} y nu(dy) is compound Poisson: X_t = X_0 until its first
    jump, so every f reads Zero, with the mass in the evidence (a skewed
    finite density, whose drift has no closed form here, raises
    NotImplementedError).  Otherwise
    verifies the sector condition and one of the two side conditions first;
    when neither side condition holds the dichotomy can genuinely fail, so
    the outcome is Indeterminate with the reason recorded.
    """
    if spec.kind != "levy":
        raise ValueError("classify_levy expects a Levy process")
    m = spec.levy.measure
    if m.total_mass < np.inf and not np.any(spec.levy.b - m.mean_jump_between(0.0, 1.0)):
        return Classification("zero", evidence={"total_mass": m.total_mass},
                              reason="finite jump mass")
    evidence = {}
    sector = sector_check(spec)
    evidence["sector"] = sector
    a1 = check_A1(spec)
    evidence["A1"] = a1
    grounding = []
    if a1.holds:
        grounding.append("A1")
    else:
        try:
            a2 = check_A2(f)
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
    for k in C_EXPONENTS:
        c = 2.0**k
        v = tail_integral_criterion(spec, None, f, c, n_max=n_max)
        verdicts[c] = v
        if v.converges:
            evidence["tail_integrals"] = verdicts
            return Classification("zero", assumptions_used=grounding,
                                  evidence=evidence)
        if v.diverges:
            n_diverge += 1
    evidence["tail_integrals"] = verdicts
    if n_diverge == len(C_EXPONENTS):
        return Classification("infinity", assumptions_used=grounding,
                              evidence=evidence)
    return Classification("indeterminate", assumptions_used=grounding,
                          evidence=evidence, reason="mixed integral evidence")


def classify_power(spec: ProcessSpec, kappa, n_max=60):
    """Power-function decision f(t) = t^kappa.

    kappa < 1/2 is an upper regime for every pure-jump Levy-type process;
    kappa = 1/2 needs the small-jump balance condition A1; kappa > 1/2 reduces
    to the radial moment int_{|y|<1} |y|^{1/kappa} nu(dy) alone, and an
    indeterminate moment integral gives an Indeterminate outcome.
    """
    if not 0 < kappa < np.inf:
        raise ValueError("kappa must be positive and finite")
    if spec.kind != "levy":
        raise ValueError("classify_power expects a Levy process")
    evidence = {}
    if kappa < 0.5 - 1e-12:
        return Classification("zero", evidence=evidence,
                              reason="kappa below 1/2 is unconditional")
    if abs(kappa - 0.5) <= 1e-12:
        a1 = check_A1(spec)
        evidence["A1"] = a1
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
    v = dyadic_integral(_moment_table(spec.levy.measure, n_max)(1.0 / kappa), n_max)
    evidence["moment_integral"] = v
    if v.converges:
        return Classification("zero", assumptions_used=["Sector"], evidence=evidence)
    if v.diverges:
        return Classification("infinity", assumptions_used=["Sector"],
                              evidence=evidence)
    return Classification("indeterminate", evidence=evidence,
                          reason="moment integral indeterminate")


def majorization_holds(spec: ProcessSpec, x, ball_radius):
    """Spot-check: some state in each ball dominates the symbol sup in |q|."""
    _check_ball(spec, x, ball_radius)
    xi = np.logspace(0, 4, 9)
    xi_pts = np.pad(xi[:, None], ((0, 0), (0, spec.dim - 1)))
    radii = np.linspace(ball_radius / 4, ball_radius, 4)
    z = ball_grid(x, radii, spec.dim)
    table = np.abs(spec.q(z[:, :, None, :], xi_pts))   # radius x state x xi
    sup = table.max(axis=1, keepdims=True)
    dominant = np.all(table >= sup * (1 - 1e-9), axis=2)
    return bool(np.all(np.any(dominant, axis=1)))


def _c_scan(spec, x, f, fixed_ball_radius, evidence, key, n_max):
    """Sup-ball tail integrals at c = 2^k for k in ``C_EXPONENTS``; the return value
    says whether one converges, and ``evidence[key]`` maps c to its verdict.

    The integrand does not increase in c, so some c converges exactly when c_max does:
    c_min and c_max share one 2-row pass (``tail_integral_criterion`` with an array of
    c).  Where c_max does not converge the evidence keeps both ends; where both do, c_min;
    where only c_max does, the other c share one pass and the evidence runs up to the
    first converging c.  States not monotone in c read "no c converges"."""
    cs = [2.0**k for k in C_EXPONENTS]

    def scan(c):
        return tail_integral_criterion(spec, x, f, np.array(c), ball_mode="sup",
                                       fixed_ball_radius=fixed_ball_radius, n_max=n_max)

    lo, hi = scan([cs[0], cs[-1]])
    if not hi.converges:
        evidence[key] = {cs[0]: lo, cs[-1]: hi}
        return False
    verdicts = [lo] if lo.converges else [lo, *scan(cs[1:-1]), hi]
    evidence[key] = dict(zip(cs, verdicts[:[v.converges for v in verdicts].index(True) + 1]))
    return True


def classify_ltp_upper(spec: ProcessSpec, x, f: GrowthFunction,
                       use_majorization_route=False, n_max=60):
    """Upper-function decision for a state-dependent or SDE process.

    The symbol route (sup over the moving state ball of the capped symbol) needs no
    side condition; its convergence alone yields Zero.  The tail route needs the sector
    condition and the small-jump balance on the state ball of radius ``BALL_RADIUS``.
    An optional majorization route accepts the tail integral on that fixed ball under
    the growth condition on f.  ``_c_scan`` decides each tail scan over c from its two
    ends, and a scan in which no c converges keeps the verdicts at c_min and c_max only.
    """
    if spec.kind == "levy":
        raise ValueError("use classify_levy for Levy processes")
    _check_ball(spec, x)
    evidence = {}

    v2 = symbol_integral_criterion(spec, x, f, ball_mode="sup", n_max=n_max)
    evidence["symbol_integral"] = v2
    if v2.converges:
        return Classification("zero", assumptions_used=[], evidence=evidence,
                              reason="symbol route")

    sector = sector_check(spec, x_ball=(x, BALL_RADIUS))
    evidence["sector"] = sector
    a1p = check_A1(spec, x=x, ball_radius=BALL_RADIUS)
    evidence["A1'"] = a1p
    if sector.holds and a1p.holds and _c_scan(
            spec, x, f, None, evidence, "tail_integrals", n_max):
        return Classification("zero", assumptions_used=["Sector", "A1'"],
                              evidence=evidence, reason="tail route")

    if use_majorization_route:
        a2 = check_A2(f)
        evidence["A2"] = a2
        if (a2.holds and majorization_holds(spec, x, BALL_RADIUS)
                and _c_scan(spec, x, f, BALL_RADIUS, evidence, "fixed_ball_tail",
                            n_max)):
            return Classification("zero", assumptions_used=["A2", "Majorization"],
                                  evidence=evidence, reason="fixed-ball tail route")
    return Classification("indeterminate", evidence=evidence,
                          reason="no convergent route")


# the t grid of the lower-route witnesses and of conditions C1 and C2
T_GRID = np.logspace(-1, -6, 26)
T_GRID.flags.writeable = False


def _limsup_diverges(values):
    label, _ = tail_trend(T_GRID, values, blowup=1e6)
    return label == "diverging"


def fit_symbol_growth(spec: ProcessSpec, x, ball_radius):
    """Least-squares growth exponent of sup-ball |q| on |xi| in [1e2, 1e5]."""
    xi = np.logspace(2, 5, 13)
    vals = symbol_extremum(spec, x, ball_radius, xi, "sup_sup")
    slope = np.polyfit(np.log(xi), np.log(np.maximum(vals, 1e-300)), 1)[0]
    return float(min(max(slope, 1e-6), 2.0))


KAPPA_MARGIN = 0.05  # check_C1's comparability exponent must stay below 1 by this


def check_C1(spec: ProcessSpec, x, f: GrowthFunction):
    """Comparability of sup-ball and inf-ball symbol sizes with a t^{-kappa}
    envelope, kappa < 1.  For a regularly varying f only the unit ball scale
    is tested; a z-independent symbol passes trivially."""
    if spec.kind == "levy":
        return ConditionReport("holds", 0.0, np.array([]), reason="state-free symbol")
    R_set = (1.0,) if f.regularly_varying else (1.0, 2.0, 4.0)
    ft = np.asarray(f(T_GRID), float)
    num = symbol_extremum(spec, x, ft, 1.0 / ft, "sup_sup")
    worst = 0.0
    for R in R_set:
        den = symbol_extremum(spec, x, R * ft, 1.0 / ft, "inf_sup")
        if np.any(den <= 0):
            return ConditionReport("fails", np.inf, T_GRID,
                                   reason="inf-ball symbol vanishes")
        ratios = num / den
        kappa_fit = -np.polyfit(np.log(T_GRID), np.log(ratios), 1)[0]
        worst = max(worst, kappa_fit)
        if kappa_fit >= 1.0 - KAPPA_MARGIN:
            return ConditionReport("fails", kappa_fit, T_GRID,
                                   reason="comparability exponent reaches 1")
    return ConditionReport("holds", worst, T_GRID)


def check_C2(spec: ProcessSpec, x, f: GrowthFunction):
    """Polynomial symbol growth of fitted order a plus liminf t^{-2/a} f(t) = inf."""
    alpha = fit_symbol_growth(spec, x, BALL_RADIUS)
    w = T_GRID ** (-2.0 / alpha) * f(T_GRID)
    if _limsup_diverges(w) and np.all(np.diff(w) >= -1e-9 * w[:-1]):
        return ConditionReport("holds", alpha, T_GRID)
    return ConditionReport("fails", alpha, T_GRID,
                           reason="t^{-2/a} f(t) does not blow up")


def classify_ltp_lower(spec: ProcessSpec, x, f: GrowthFunction, C=1.0, n_max=60):
    """Lower growth decision: Infinity via the inf-ball symbol blow-up, or a
    LowerBound(C/5) via the comparability/growth conditions plus a divergent
    inf-ball integral.

    The blow-up witness is t * inf-ball sup-frequency Re q at frequency cap
    1/(C f(t)); square-root subadditivity makes its divergence C-free, so one
    level plus a halved spot check suffices.
    """
    if not 0 < C < np.inf:
        raise ValueError("C must be positive and finite")
    _check_ball(spec, x)
    evidence = {}
    R_set = (1.0,) if f.regularly_varying else (1.0, 2.0, 4.0)
    ft = np.asarray(f(T_GRID), float)

    C_col = np.array([[C], [C / 2.0]])  # the caps 1/(C f(t)) and 1/(C f(t) / 2)

    blowup_all = True
    for R in R_set:
        w1, w2 = T_GRID * symbol_extremum(spec, x, R * ft, 1.0 / (C_col * ft),
                                          "inf_sup_re")
        evidence[f"blowup_witness_R={R:g}"] = w1
        if not (_limsup_diverges(w1) and _limsup_diverges(w2)):
            blowup_all = False
            break
    if blowup_all:
        return Classification("infinity", evidence=evidence,
                              reason="symbol blow-up route")

    c1 = check_C1(spec, x, f)
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
        c2 = check_C2(spec, x, f)
        evidence["C2"] = c2
        if c2.holds:
            grounds.append("C2")
    if not grounds:
        return Classification("indeterminate", evidence=evidence,
                              reason="neither comparability nor growth verified")

    if spec.kind == "levy":
        v_tail = tail_integral_criterion(spec, None, f, C, n_max=n_max)
    else:
        v_tail = tail_integral_criterion(spec, x, f, C, ball_mode="inf",
                                         ball_scale=C, n_max=n_max)
    evidence["inf_tail_integral"] = v_tail
    route = None
    if v_tail.diverges:
        route = "tail"
    else:
        a1p = check_A1(spec, x=x, ball_radius=float(f(1.0)))
        evidence["A1'"] = a1p
        if a1p.holds:
            v_sym = symbol_integral_criterion(spec, x, f, ball_mode="inf",
                                              ball_scale=C, n_max=n_max)
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


def ball_tail_intensity(spec: ProcessSpec, x, r):
    """G(x, r) = inf over the state ball B(x, r) of nu(z, {|y| > r})."""
    return float(np.min(spec.tail_at(_ball_states(spec, x, r), r)))


C_LOWER = 0.5  # c of ExitBounds.lower, and verify_bound_table's default


def exit_bounds(spec: ProcessSpec, x, t, r):
    """All closed exit-time bound factors at (t, r); see ExitBounds."""
    if not (0 <= t < np.inf and r > 0):  # NaN fails both
        raise ValueError("need t >= 0 and r > 0, t finite")
    _check_ball(spec, x, r, "r")
    g2r = ball_tail_intensity(spec, x, 2 * r)
    supsup = symbol_extremum(spec, x, r, 1.0 / r, "sup_sup")
    h_swap = symbol_extremum(spec, x, r, 1.0 / (2 * r), "sup_inf_re")
    return ExitBounds(
        schilling_factor=t * supsup,
        survival_bound=1.0 / (1.0 + t * g2r),
        expected_exit=np.inf if g2r == 0 else 1.0 / g2r,
        exponential_shape=float(np.exp(-t * g2r)),
        lower=float(min((1.0 - C_LOWER) * t * g2r, 1.0)),
        symbol_survival_factor=1.0 / (1.0 + t * h_swap),
        tail_intensity=g2r,
    )
