"""Process specifications and symbol-side evaluators.

A process is described either by a Levy triplet (b, Q, nu), by a
state-dependent family x -> (b(x), 0, nu(x, .)), or by an SDE driven by a
Levy process through a bounded coefficient sigma.  In every case it carries
a symbol q(x, xi), which all criteria consume.  ``ProcessSpec.q`` takes states
x (..., d) and frequencies xi (..., d) whose leading axes broadcast and returns
complex values of the broadcast shape (q(x (d,), xi (m, d)) -> (m,) is the
single-state case); ``tail_at`` / ``trunc2_at`` broadcast states against radii
alike, so a block of nodes x ball states x frequencies costs one call.
``eval_exponent`` takes arrays of frequencies: its non-oscillatory log-radius
integrals run for all of them at once on fixed Gauss-Legendre panels, and only
the oscillatory shells run per frequency.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, special

from .errors import DegenerateSymbol, QuadratureFailure
from .measures import LevyMeasureModel

QUAD_RTOL = 1e-8
QUAD_ATOL = 1e-12
QUAD_LIMIT = 200
PANELS = 32  # per log-radius window of the exponent; checked against 2 * PANELS
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# nodes on [0, 1] of one panel: the 16-node rule, then its two halves
_PANEL_NODES = 0.5 * np.concatenate([_GL_X + 1.0, 0.5 * _GL_X + 0.5, 0.5 * _GL_X + 1.5])
_GL_W2 = 0.5 * np.concatenate([_GL_W, _GL_W])


@dataclass(frozen=True)
class LevyTriplet:
    """(b, Q, nu) with the jump compensation cut at |y| = 1."""

    b: np.ndarray
    Q: np.ndarray | None
    measure: LevyMeasureModel

    def __post_init__(self):
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, float)))
        if self.Q is not None:
            q = np.atleast_2d(np.asarray(self.Q, float))
            if np.allclose(q, 0.0):
                q = None
            else:
                ev = np.linalg.eigvalsh(q)
                if ev.min() < -1e-12:
                    raise ValueError("Q must be positive semi-definite")
            object.__setattr__(self, "Q", q)

    @property
    def dim(self):
        return self.b.shape[0]

    @property
    def has_gaussian_part(self):
        return self.Q is not None


@dataclass(frozen=True)
class StateFamily:
    """State-dependent characteristics reduced to what the criteria consume."""

    # (z, r) -> nu(z, {|y| > r}) and int_{|y|<=r} |y|^2 nu(z, dy); the state
    # array z and the radius array r broadcast against each other
    tail: Callable
    trunc2: Callable
    # z array -> (alpha(z), sigma(z)) of the symmetric stable law frozen at
    # z; the Monte Carlo freeze_symbol scheme needs it
    stable_params: Callable | None = None


@dataclass(frozen=True)
class ProcessSpec:
    kind: str  # "levy" | "state_dependent" | "sde"
    dim: int
    # (x (..., d), xi (..., d)) -> complex of the broadcast leading shape;
    # e.g. states (k, 1, d) against frequencies (m, d) give (k, m)
    symbol: Callable
    levy: LevyTriplet | None = None
    family: StateFamily | None = None
    driver: LevyTriplet | None = None
    sigma: Callable | None = None
    stable_family: tuple[float, float] | None = None  # (alpha, sigma): psi = (sigma|xi|)^alpha
    name: str = ""

    def q(self, x, xi):
        """Symbol at states x (..., d) and frequencies xi (..., d).

        Leading axes broadcast; the result is complex of the broadcast shape.
        A 1-d xi is a stack of frequencies in dimension 1, else one frequency.
        """
        x = np.atleast_1d(np.asarray(x, float))
        xi = np.asarray(xi, float)
        if xi.ndim == 1:
            xi = xi[:, None] if self.dim == 1 else xi[None, :]
        shape = (xi.shape[:-1] if x.ndim == 1
                 else np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]))
        out = np.asarray(self.symbol(x, xi), complex)
        if out.shape != shape and self.kind != "levy":
            raise ValueError(f"symbol must broadcast to {shape}, got {out.shape}")
        return out if out.shape == shape else np.broadcast_to(out, shape).copy()

    def tail_at(self, z, r):
        """nu(z, {|y| > r}) on states z (shape (...) in dimension 1, else
        (..., d)); the radii r broadcast against the states."""
        return self._at(z, r, "tail")

    def trunc2_at(self, z, r):
        """int_{|y|<=r} |y|^2 nu(z, dy), broadcast like ``tail_at``."""
        return self._at(z, r, "trunc2")

    def _at(self, z, r, attr):
        z = np.atleast_1d(np.asarray(z, float))
        r = np.asarray(r, float)
        shape = np.broadcast_shapes(z.shape if self.dim == 1 else z.shape[:-1],
                                    r.shape)
        if self.kind != "sde":
            model = self.levy.measure if self.kind == "levy" else self.family
            args = (r,) if self.kind == "levy" else (z, r)
            return np.array(np.broadcast_to(getattr(model, attr)(*args), shape), float)
        s = np.broadcast_to(np.abs(np.asarray(self.sigma(z), float)), shape)
        r = np.broadcast_to(r, shape)
        out = np.zeros(shape)
        ok = s > 0
        if np.any(ok):
            val = np.asarray(getattr(self.driver.measure, attr)(r[ok] / s[ok]), float)
            out[ok] = val if attr == "tail" else s[ok] ** 2 * val
        return out


# ---------------------------------------------------------------------------
# characteristic exponent by quadrature
# ---------------------------------------------------------------------------


def _fourier(rho, a, b, weight, xi, scale):
    """int_a^b rho(s) cos(xi s) ds (weight "cos", else sine) by QUADPACK's
    Fourier-weight rules, accepting errors negligible relative to the value
    or to ``scale``, the smooth term the result corrects.  On b = inf (QAWF)
    QUADPACK counts cycles in the 32-bit 2 int(xi) + 1, which wraps above
    xi ~ 1.07e9; s = t / k keeps the frequency at 2^29 there."""
    k = max(1.0, xi / 2.0**29) if np.isinf(b) else 1.0
    fun = rho if k == 1.0 else (lambda t: rho(t / k) / k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(fun, a * k, b, epsabs=QUAD_ATOL, epsrel=QUAD_RTOL,
                             limit=QUAD_LIMIT, full_output=1, weight=weight, wvar=xi / k)
    val, err = out[0], out[1]
    if not np.isfinite(val):
        raise QuadratureFailure(f"non-finite quadrature value on ({a}, {b})")
    if len(out) >= 4:  # quadpack reported trouble; judge the error ourselves
        if err > max(QUAD_ATOL, 10 * QUAD_RTOL * abs(val), 1e-6 * scale):
            raise QuadratureFailure(str(out[3]))
    return val


def _panel_quad(fun, lo, hi):
    """Integrals of fun over windows [lo, hi] (arrays (m,)) at once: PANELS
    Gauss-Legendre panels of 16 nodes, checked against 2 * PANELS.

    fun maps nodes (m, 48) to values; one panel per step keeps memory O(m).
    Returns the finer value, or raises ``QuadratureFailure`` where the two
    differ by more than max(QUAD_ATOL, 10 QUAD_RTOL |value|)."""
    width = (hi - lo) / PANELS
    coarse, fine = np.zeros(lo.shape), np.zeros(lo.shape)
    for p in range(PANELS):
        v = fun(lo[:, None] + width[:, None] * (p + _PANEL_NODES))
        coarse += v[:, :16] @ _GL_W
        fine += v[:, 16:] @ _GL_W2
    coarse, fine = 0.5 * width * coarse, 0.5 * width * fine
    bad = ~(np.abs(fine - coarse) <= np.maximum(QUAD_ATOL, 10 * QUAD_RTOL * np.abs(fine)))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureFailure(f"{PANELS} and {2 * PANELS} panels disagree on "
                                f"({lo[i]}, {hi[i]}): {coarse[i]} vs {fine[i]}")
    return fine


def _sphere_average(u, dim):
    """Average of cos(u e . theta) over the unit sphere in R^dim (u > 0, dim >= 2)."""
    nu_ord = dim / 2 - 1
    return special.gamma(dim / 2) * (2.0 / u) ** nu_ord * special.jv(nu_ord, u)


def eval_exponent(triplet: LevyTriplet, xi):
    """Characteristic exponent psi(xi) of a Levy triplet, by quadrature.

    In dimension 1 a float xi gives a complex and an array a complex array
    of its shape; in d >= 2 xi is (m, d) and the measure isotropic.  The
    jump integral is split at |y| = 1 (the compensation cutoff).  Below a cut
    of a few oscillation periods it runs in log radius for all frequencies
    at once (``_panel_quad``: ``QuadratureFailure`` when PANELS and
    2 * PANELS panels disagree); the oscillatory shells above the cut run per
    frequency, by QUADPACK Fourier weights in 1-d and half-period sums else.
    """
    xi = np.asarray(xi, float)
    if triplet.dim == 1 and (xi.ndim < 2 or xi.shape[-1] == 1):
        out = _exponent_1d(triplet, xi)
        return complex(out) if xi.ndim == 0 else out
    if triplet.dim == 1 or xi.shape[-1:] != (triplet.dim,):
        raise ValueError("xi has wrong dimension")
    return _exponent_isotropic(triplet, xi)


def _exponent_1d(triplet: LevyTriplet, xi_in):
    """psi on frequencies xi_in (any shape) of a one-dimensional triplet."""
    m = triplet.measure
    rho = m.radial_density
    w_neg, w_pos = m.side_weights
    skew = w_pos - w_neg if abs(w_pos - w_neg) > 1e-15 else 0.0
    xi = np.abs(xi_in).ravel()
    val = -1j * float(triplet.b[0]) * xi
    if triplet.Q is not None:
        val += 0.5 * float(triplet.Q[0, 0]) * xi**2
    for s_atom, mass in m.atoms:
        u = s_atom * xi
        comp = 1j * s_atom * xi if s_atom < 1.0 else 0.0
        val += mass * (1.0 - (w_pos * np.exp(1j * u) + w_neg * np.exp(-1j * u))
                       + comp * skew)
    pos = np.flatnonzero(xi > 0.0)
    val[xi == 0.0] = 0.0
    if rho is not None and pos.size:
        xi, x = xi[pos], xi[pos, None]
        lo, hi = m.support
        split = min(1.0, hi)

        # |y| <= 1, real part.  Integrating 1 - cos(s xi) against the density
        # is rewritten by parts through the truncated second moment T, which
        # is bounded and captures arbitrarily small scales without overflow:
        #   int_0^a (1-cos(s xi)) rho(s) ds
        #     = (1-cos(a xi)) T(a)/a^2 + int_0^a T(s) xi^2 B(s xi)/(s xi)^2 ds
        # with B(w) = 2(1-cos w) - w sin w = O(w^4) near 0.  The cut a is a
        # few oscillation periods; beyond it Fourier weights take over.
        a = np.minimum(split, 4.0 * np.pi / xi)
        val[pos] += 2.0 * np.sin(a * xi / 2.0) ** 2 * m.trunc2(a) / a**2
        u_hi = np.log(a)
        u_lo = np.maximum(np.log(max(lo, 1e-300)), u_hi - 80.0)

        def re_parts(u):
            w = np.exp(u) * x
            wb = np.maximum(w, 0.25)
            # series of (2(1-cos w) - w sin w)/w^2, accurate to ~1e-9 here;
            # the direct difference cancels catastrophically below w ~ 1e-2
            bracket_over_w2 = np.where(
                w < 0.25, w * w / 12.0 * (1.0 - w * w / 15.0 + w**4 / 560.0),
                (4.0 * np.sin(wb / 2.0) ** 2 - wb * np.sin(wb)) / (wb * wb))
            return m.trunc2(np.exp(u)) * x * x * bracket_over_w2

        val[pos] += _panel_quad(re_parts, u_lo, u_hi)

        if skew:
            # imaginary compensated part, density form in log radius with the
            # bounded fraction (w - sin w)/w^3 <= 1/6; scales s < b below the
            # window add at most xi^3 b T(b)/6, with xi b <= 4 pi e^-80.
            def im_small(u):
                s = np.exp(u)
                w = s * x
                wb = np.maximum(w, 0.25)
                frac = np.where(w < 0.25, (1.0 - w * w / 20.0 + w**4 / 840.0) / 6.0,
                                (wb - np.sin(wb)) / wb**3)
                return frac * x**3 * rho(s) * s**4

            val[pos] += 1j * skew * _panel_quad(im_small, u_lo, u_hi)

        # oscillatory shells (a, 1] and, uncompensated, |y| > 1
        cut = np.flatnonzero(a < split)
        shell = m._continuous_tail(a[cut]) - float(m._continuous_tail(split))
        val[pos[cut]] += shell
        if skew and cut.size:
            lin = _panel_quad(lambda u: np.exp(2.0 * u) * rho(np.exp(u)),
                              u_hi[cut], np.full(cut.size, np.log(split)))
            val[pos[cut]] += 1j * skew * xi[cut] * lin
        shells = [(j, a[j], split, sh) for j, sh in zip(cut, shell)]
        if hi > 1.0:
            mass = float(m._continuous_tail(1.0))
            val[pos] += mass
            shells += [(j, 1.0, hi, mass) for j in range(pos.size)]
        for j, s0, s1, scale in shells:
            val[pos[j]] -= _fourier(rho, s0, s1, "cos", xi[j], scale)
            if skew:
                val[pos[j]] -= 1j * skew * _fourier(rho, s0, s1, "sin", xi[j], scale)
    return np.where(np.ravel(xi_in) < 0.0, np.conj(val), val).reshape(np.shape(xi_in))


def _exponent_isotropic(triplet: LevyTriplet, xi):
    """psi for an isotropic measure in dimension d >= 2 (real jump part)."""
    m, d = triplet.measure, triplet.dim
    xi = np.atleast_2d(xi)
    mags = np.linalg.norm(xi, axis=-1)
    out = np.asarray(-1j * (xi @ triplet.b), complex)
    if triplet.Q is not None:
        out += 0.5 * np.einsum("md,de,me->m", xi, triplet.Q, xi)
    rho = m.radial_density
    if rho is None:
        return out
    lo = max(m.support[0], 1e-60)
    hi = m.support[1]
    idx = np.flatnonzero(mags > 0.0)
    r_xi = mags[idx]
    s_cut = np.minimum(hi, 4.0 * np.pi / r_xi)
    x = r_xi[:, None]

    def integrand(u):
        s = np.exp(u)
        w = s * x
        wb = np.maximum(w, 0.1)
        # (1 - average)/w^2 by its series below w = 0.1 (to ~1e-11), where
        # the direct difference cancels
        frac = np.where(w < 0.1, (1.0 - w * w / (4 * (d + 2)) * (1.0 - w * w / (6 * (d + 4))))
                        / (2 * d), (1.0 - _sphere_average(wb, d)) / (wb * wb))
        return frac * x**2 * rho(s) * s**3

    u_top = np.log(s_cut)
    u_lo = np.maximum(np.log(lo), u_top - 160.0)
    out[idx] += _panel_quad(integrand, u_lo, u_top)
    # below the window s |xi| <= 4 pi e^-160, where 1 - average = |xi|^2 s^2/(2d)
    # to relative O(w^2): the jumps there add |xi|^2 trunc2(s_lo)/(2d)
    out[idx] += r_xi**2 * np.asarray(m.trunc2(np.exp(u_lo)), float) / (2 * d)
    top = float(m._continuous_tail(hi)) if np.isfinite(hi) else 0.0
    for i, r, cut in zip(idx, r_xi, s_cut):
        if cut < hi:
            shell = float(m._continuous_tail(cut)) - top
            out[i] += shell - _half_period_sum(
                lambda s: _sphere_average(s * r, d) * rho(s),
                cut, hi, np.pi / r, scale=shell)
    return out


def _half_period_sum(fun, a, b, period, scale, max_chunks=5000):
    """Integral of a decaying oscillatory function by half-period chunks.

    Fixed-order Gauss quadrature per chunk; the alternating chunk sums
    converge, and summation stops once chunks are negligible against scale.
    """
    total, lo, k = 0.0, a, 0
    while lo < b and k < max_chunks:
        hi_k = min(lo + period, b)
        t = 0.5 * (hi_k - lo) * _GL_X + 0.5 * (lo + hi_k)
        chunk = 0.5 * (hi_k - lo) * float(_GL_W @ np.asarray(fun(t), float))
        total += chunk
        if k > 4 and abs(chunk) < 1e-10 * max(scale, 1e-300):
            break
        lo, k = hi_k, k + 1
    return total


# ---------------------------------------------------------------------------
# grids and extrema
# ---------------------------------------------------------------------------


def _directions(dim, n=32):
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        th = np.linspace(0, 2 * np.pi, n, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    # Fibonacci-style spread, deterministic
    idx = np.arange(n) + 0.5
    phi = np.arccos(1 - 2 * idx / n)
    theta = np.pi * (1 + 5**0.5) * idx
    pts = np.stack(
        [np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1
    )
    if dim == 3:
        return pts
    rng = np.random.default_rng(12345)
    extra = rng.standard_normal((n, dim))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return extra


def xi_grid(radius, dim, n_radii=64, n_dirs=32, decades=4.0):
    """Deterministic frequency grid filling the ball |xi| <= radius; a 1-d
    array of radii gives one grid per radius (leading axis)."""
    radii = np.logspace(np.log10(radius) - decades, np.log10(radius), n_radii).T
    dirs = _directions(dim, n_dirs)
    grid = (radii[..., None, None] * dirs).reshape(radii.shape[:-1] + (-1, dim))
    return grid, radii, dirs


def ball_grid(center, radius, dim, n=17):
    """Deterministic grid over the closed ball B(center, radius); an array of
    radii gives one grid per radius (leading axes radius.shape)."""
    center = np.atleast_1d(np.asarray(center, float))
    radius = np.asarray(radius, float)
    if radius.ndim == 0 and radius == 0:
        return center[None, :]
    if dim == 1:
        return (center[0] + radius[..., None] * np.linspace(-1.0, 1.0, n))[..., None]
    dirs = _directions(dim, max(8, n // 2))
    radii = np.linspace(0.0, radius, 5, axis=-1)[..., 1:]
    pts = (radii[..., None, None] * dirs).reshape(radius.shape + (-1, dim)) + center
    middle = np.broadcast_to(center, radius.shape + (1, dim))
    return np.concatenate([middle, pts], axis=-2)


def psi_star(spec: ProcessSpec, x, r, n_radii=64, n_dirs=32):
    """sup of Re q(x, .) over the ball |xi| <= r, on a refined log grid."""
    if r <= 0:
        raise ValueError("r must be positive")
    grid, radii, dirs = xi_grid(r, spec.dim, n_radii, n_dirs)
    vals = np.real(spec.q(x, grid)).reshape(len(radii), len(dirs))
    best = float(vals.max(initial=0.0))
    j = int(np.unravel_index(np.argmax(vals), vals.shape)[0])
    lo = radii[max(j - 1, 0)]
    hi = radii[min(j + 1, len(radii) - 1)]
    if hi > lo:
        fine = np.logspace(np.log10(lo), np.log10(hi), 17)
        grid2 = (fine[:, None, None] * dirs[None, :, :]).reshape(-1, spec.dim)
        best = max(best, float(np.real(spec.q(x, grid2)).max(initial=0.0)))
    return max(best, 0.0)


_EXTREMUM_MODES = {
    "sup_sup": ("sup", "abs"),
    "inf_sup": ("inf", "abs"),
    "inf_sup_re": ("inf", "re"),
    "sup_inf_re": ("swap", "re"),
}


def symbol_extremum(spec: ProcessSpec, x, ball_radius, xi_radius, mode="sup_sup",
                    n_z=17, n_radii=48, n_dirs=32):
    """Extremum of the symbol over B(x, ball_radius) x {|xi| <= xi_radius}.

    Modes: sup_sup (sup_z sup_xi |q|), inf_sup (inf_z sup_xi |q|),
    inf_sup_re (inf_z sup_xi Re q), sup_inf_re (sup_xi inf_z Re q — the order
    used by the symbol-based exit bound).  For a Levy process the z-extremum
    collapses.

    ``ball_radius`` and ``xi_radius`` may be arrays that broadcast; one
    ``ProcessSpec.q`` call then covers radii x ball states x frequencies and
    the result is an array of the broadcast shape (a float for scalars).
    """
    ball_r, xi_r = np.broadcast_arrays(np.asarray(ball_radius, float),
                                       np.asarray(xi_radius, float))
    shape = ball_r.shape
    ball_r, xi_r = ball_r.ravel(), xi_r.ravel()
    if (xi_r <= 0).any():
        raise ValueError("xi_radius must be positive")
    if (ball_r < 0).any():
        raise ValueError("ball_radius must be non-negative")
    try:
        z_kind, val_kind = _EXTREMUM_MODES[mode]
    except KeyError:
        raise ValueError(f"unknown extremum mode {mode!r}") from None
    xi, _, _ = xi_grid(xi_r, spec.dim, n_radii, n_dirs)
    if spec.dim == 1:  # directions (+1, -1); Hermitian q has even |q| and Re q
        xi = xi[:, ::2]
    if spec.kind == "levy" or not ball_r.any():
        q = spec.q(x, xi.reshape(-1, spec.dim)).reshape(xi_r.size, 1, -1)
    else:
        z = ball_grid(x, ball_r, spec.dim, n_z)
        q = spec.q(z[:, :, None, :], xi[:, None, :, :])
    table = np.abs(q) if val_kind == "abs" else np.real(q)
    if z_kind == "swap":
        out = table.min(axis=1).max(axis=-1, initial=0.0)
    else:
        per_z = table.max(axis=-1)
        out = per_z.max(axis=-1) if z_kind == "sup" else per_z.min(axis=-1)
    return float(out[0]) if shape == () else out.reshape(shape)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    """Outcome of a structural condition check with its numeric evidence."""

    verdict: str  # "holds" | "fails" | "indeterminate"
    witness: float
    grid: np.ndarray = field(default_factory=lambda: np.array([]))
    reason: str = ""
    shortcut: bool = False

    @property
    def holds(self):
        return self.verdict == "holds"

    @property
    def fails(self):
        return self.verdict == "fails"


def tail_trend(grid, values, stability=0.10, slope_min=0.02, growth_min=1.5,
               blowup=1e3):
    """Classify the limiting trend of ``values`` along ``grid``.

    ``grid`` must be ordered so that increasing index approaches the limit
    (e.g. radii decreasing to 0).  Returns (label, estimate) with label in
    {"stable", "diverging", "indeterminate"}; the estimate is the extremum of
    the last half of the values.  Stability means the last-half values vary by
    less than ``stability`` relatively; divergence means a positive log-log
    slope with real growth, or exceeding ``blowup``.
    """
    values = np.asarray(values, float)
    grid = np.asarray(grid, float)
    half = values[len(values) // 2:]
    gh = grid[len(values) // 2:]
    hi, lo = float(np.max(half)), float(np.min(half))
    if hi <= 0:
        return "stable", 0.0
    if lo > 0 and hi / lo - 1.0 < stability:
        return "stable", hi
    if hi > blowup:
        return "diverging", hi
    pos = half > 0
    if pos.sum() >= 3:
        lx = np.log(np.abs(gh[pos]))
        ly = np.log(half[pos])
        slope = np.polyfit(lx, ly, 1)[0]
        # orient: does the value grow as the grid approaches its limit?
        toward_limit = np.sign(lx[-1] - lx[0])
        slope *= toward_limit
        if slope > slope_min and half[-1] > growth_min * half[0] > 0:
            return "diverging", hi
    return "indeterminate", hi


def sector_check(spec: ProcessSpec, x_ball=(0.0, 0.0), xi_radii=None, n_dirs=32,
                 n_z=9):
    """Check |Im q| <= C Re q on a ball of states times a frequency grid.

    Holds with witness C* (the largest observed ratio) when the ratio is
    stable over the top frequency decades; fails when Re q vanishes where
    Im q does not, or when the ratio keeps growing along the grid.
    """
    center, radius = x_ball
    if xi_radii is None:
        xi_radii = np.logspace(-2, 6, 49)
    xi_radii = np.asarray(xi_radii, float)
    if xi_radii.min() <= 0:
        raise ValueError("frequency grid must exclude 0")
    dirs = _directions(spec.dim, n_dirs)
    z_points = ball_grid(center, radius, spec.dim, n_z)
    grid = (xi_radii[:, None, None] * dirs[None, :, :]).reshape(-1, spec.dim)
    states = z_points[0] if spec.kind == "levy" else z_points[:, None, :]
    q = spec.q(states, grid).reshape(-1, len(xi_radii), len(dirs))
    re, im = np.real(q), np.abs(np.imag(q))
    if not ((re > 0) | (im > 0)).any():
        raise DegenerateSymbol("symbol vanishes on the whole grid")
    if ((re <= 0) & (im > 1e-12)).any():
        return ConditionReport(
            "fails", float(np.inf), xi_radii, reason="Re q = 0 where Im q > 0"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(re > 0, im / re, 0.0)
    ratio_by_level = ratios.max(axis=(0, 2))
    label, est = tail_trend(xi_radii, ratio_by_level)
    if label == "stable":
        return ConditionReport("holds", est, xi_radii)
    if label == "diverging":
        return ConditionReport("fails", est, xi_radii, reason="ratio diverges")
    return ConditionReport("indeterminate", est, xi_radii, reason="unstable ratio")


def validate_symbol(spec: ProcessSpec, x_points=None, xi_points=None, slack=1e-12):
    """Assert q(x,0)=0, Hermitian symmetry, Re q >= 0, and the doubling bound."""
    if x_points is None:
        x_points = [np.zeros(spec.dim), 0.3 * np.ones(spec.dim)]
    if xi_points is None:
        base, _, _ = xi_grid(10.0, spec.dim, n_radii=12, n_dirs=8)
        xi_points = base
    xi_points = np.atleast_2d(xi_points)
    for x in x_points:
        q0 = spec.q(x, np.zeros((1, spec.dim)))
        if abs(q0[0]) > 1e-9:
            raise AssertionError(f"q(x,0) = {q0[0]} != 0")
        q_plus = spec.q(x, xi_points)
        q_minus = spec.q(x, -xi_points)
        if not np.allclose(q_minus, np.conj(q_plus), rtol=1e-7, atol=1e-9):
            raise AssertionError("symbol is not Hermitian in xi")
        if np.any(np.real(q_plus) < -1e-10):
            raise AssertionError("Re q < 0 on the grid")
        q_double = spec.q(x, 2 * xi_points)
        if np.any(np.abs(q_double) > 4 * np.abs(q_plus) + slack):
            raise AssertionError("doubling bound |q(2 xi)| <= 4 |q(xi)| violated")
    return True


def psi_star_h_constant(spec: ProcessSpec, measure: LevyMeasureModel, r_grid=None):
    """Fit the single constant c with h(r)/c <= psi*(1/r) <= c h(r) on a grid."""
    if r_grid is None:
        r_grid = np.logspace(-4, -1, 13)
    cs = []
    for r in r_grid:
        h = measure.concentration(r).h
        p = psi_star(spec, np.zeros(spec.dim), 1.0 / r)
        if h <= 0 or p <= 0:
            continue
        cs.append(max(p / h, h / p))
    if not cs:
        raise ValueError("no usable grid points for the equivalence constant")
    return float(max(cs))
