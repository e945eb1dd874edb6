"""Process specifications and symbol-side evaluators.

A process is a Levy triplet (b, Q, nu), a state-dependent family x -> (b(x), 0,
nu(x, .)), or an SDE driven by a Levy process through a bounded coefficient sigma;
each carries the symbol q(x, xi) the criteria consume.  ``ProcessSpec.q`` takes
states x (..., d) and frequencies xi (..., d) whose leading axes broadcast (float64
where the symbol is real); ``tail_at`` / ``trunc2_at``, ``sigma`` and the
``StateFamily`` fields take states (..., d) alike.  ``_capped_extremum`` evaluates
every capped symbol and ``_ball_states`` collapses a Levy state ball.
``eval_exponent`` runs every integral for an array of frequencies at once:
Gauss-Legendre panels in log radius, Filon panels on the oscillatory shells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np
from scipy import special

from .errors import DegenerateSymbol, QuadratureFailure
from .measures import LevyMeasureModel
from .quadrature import filon, panel_quad


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

    # (z (..., d), r) -> nu(z, {|y| > r}) and int_{|y|<=r} |y|^2 nu(z, dy), of
    # the shape broadcast_shapes(z.shape[:-1], r.shape)
    tail: Callable
    trunc2: Callable
    # z (..., d) -> (alpha(z), sigma(z)), each of shape z.shape[:-1] or a float where
    # it does not depend on z: the stable law frozen at z that the freeze_symbol scheme
    # draws from; a float alpha lets it turn a whole window's draws into stable draws at once
    stable_params: Callable | None = None


@dataclass(frozen=True)
class ProcessSpec:
    kind: str  # "levy" | "state_dependent" | "sde"
    dim: int
    # (x (..., d), xi (..., d)) -> float (real symbol) or complex values of the
    # broadcast leading shape; states (k, 1, d) against xi (m, d) give (k, m)
    symbol: Callable
    levy: LevyTriplet | None = None
    family: StateFamily | None = None
    driver: LevyTriplet | None = None
    sigma: Callable | None = None  # sde: z (..., d) -> scalar coefficient of shape (...)
    stable_family: tuple[float, float] | None = None  # (alpha, sigma): psi = (sigma|xi|)^alpha
    name: str = ""

    def q(self, x, xi):
        """Symbol at states x (..., d) and frequencies xi (..., d), whose leading axes
        broadcast; complex where the symbol is, else float64.  A 1-d xi is a stack of
        frequencies in dimension 1, else one frequency; a last axis other than ``dim``
        raises ``ValueError`` (a Levy symbol never reads x: only xi's is checked).
        """
        x = np.atleast_1d(np.asarray(x, float))
        xi = np.asarray(xi, float)
        if xi.ndim == 1:
            xi = xi[:, None] if self.dim == 1 else xi[None, :]
        if xi.shape[-1:] != (self.dim,) or (
                self.kind != "levy" and x.shape[-1] != self.dim):
            raise ValueError(f"x and xi must have a last axis of length {self.dim}")
        shape = (xi.shape[:-1] if x.ndim == 1
                 else np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]))
        out = np.asarray(self.symbol(x, xi))
        out = np.asarray(out, complex if np.iscomplexobj(out) else float)
        if out.shape != shape and self.kind != "levy":
            raise ValueError(f"symbol must broadcast to {shape}, got {out.shape}")
        return out if out.shape == shape else np.broadcast_to(out, shape).copy()

    def tail_at(self, z, r):
        """nu(z, {|y| > r}) on states z (..., d) broadcast against radii r; a last
        axis other than ``dim`` raises ``ValueError`` (a Levy tail never reads z)."""
        return self._at(z, r, "tail")

    def trunc2_at(self, z, r):
        """int_{|y|<=r} |y|^2 nu(z, dy), broadcast like ``tail_at``."""
        return self._at(z, r, "trunc2")

    def _at(self, z, r, attr):
        """``tail_at``/``trunc2_at``, copying only a result short of the broadcast shape."""
        z = np.atleast_2d(np.asarray(z, float))  # one state as a batch row (0-d powers round apart)
        if self.kind != "levy" and z.shape[-1] != self.dim:
            raise ValueError(f"z must have a last axis of length {self.dim}")
        r = np.asarray(r, float)
        shape = np.broadcast_shapes(z.shape[:-1], r.shape)
        if self.kind != "sde":
            model, args = ((self.levy.measure, (r,)) if self.kind == "levy"
                           else (self.family, (z, r)))
            out = np.asarray(getattr(model, attr)(*args), float)
        elif ((s := np.abs(np.asarray(self.sigma(z), float))) > 0).all():  # no gathers
            out = np.asarray(getattr(self.driver.measure, attr)(r / s), float)
            out = out if attr == "tail" else s**2 * out
        else:
            s, r = np.broadcast_to(s, shape), np.broadcast_to(r, shape)
            out, ok = np.zeros(shape), s > 0
            val = np.asarray(getattr(self.driver.measure, attr)(r[ok] / s[ok]), float)
            out[ok] = val if attr == "tail" else s[ok] ** 2 * val
        return out if out.shape == shape else np.array(np.broadcast_to(out, shape), float)


# ---------------------------------------------------------------------------
# characteristic exponent by quadrature
# ---------------------------------------------------------------------------


def _shell_top(measure, s0, xi, scale):
    """Upper ends of the oscillatory shells (s0, top] at frequencies xi > 0 (arrays (m,)):
    the support's end, or the first S = max(s0, 1) 2^k where the shell's Fourier integral
    above S, bounded by G(S) and (a non-increasing radial density) by 2 rho(S)/xi, is at
    most 1e-14 scale: each frequency gets its own cut."""
    hi = measure.support[1]
    if np.isfinite(hi):
        return np.full(xi.shape, float(hi))
    top = np.maximum(s0, 1.0)
    while (open_ := np.minimum(measure._continuous_tail(top),
                               2.0 * measure.radial_density(top) / xi) > 1e-14 * scale).any():
        top = np.where(open_, 2.0 * top, top)
        if np.isinf(top).any():
            raise QuadratureFailure("the shell's Fourier tail stays above 1e-14 of "
                                    f"its mass up to 2^1023 at xi = {xi[np.isinf(top)][0]}")
    return top


def _sphere_factor(u, dim):
    """A(u) = Gamma(dim/2) (2/u)^nu H1e(nu, u), nu = dim/2 - 1, whose
    Re[A(u) e^{iu}] is the average of cos(u e . theta) over the unit sphere
    in R^dim (u > 0, dim >= 2); smooth for u >= 4 pi.  Above u = 1e15, where
    scipy's H1e returns nan, H1e(nu, u) sqrt(u) is constant to rounding."""
    nu_ord, v = dim / 2 - 1, np.minimum(u, 1e15)
    return (special.gamma(dim / 2) * (2.0 / u) ** nu_ord
            * special.hankel1e(nu_ord, v) * np.sqrt(v / u))


def eval_exponent(triplet: LevyTriplet, xi):
    """Characteristic exponent psi(xi) of a Levy triplet, by quadrature.

    In 1-d a float xi gives a complex, an array a complex array of its shape; in d >= 2
    xi is (m, d) and the measure isotropic.  The jumps are compensated inside |y| = 1.
    Every part runs for all frequencies at once: ``panel_quad`` in log radius below a cut
    of a few oscillation periods, one oscillatory shell on ``filon`` panels above it (in
    d >= 2 through a Hankel-function amplitude); either raises ``QuadratureFailure``
    where its check finds the integrand unresolved.  On infinite support the shell stops
    where its Fourier tail falls below 1e-14 of its mass, for a radial density
    non-increasing above radius 1.
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
        # few oscillation periods; beyond it Filon panels take over.
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

        val[pos] += panel_quad(re_parts, u_lo, u_hi)

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

            val[pos] += 1j * skew * panel_quad(im_small, u_lo, u_hi)

        # oscillatory shell above a: its whole mass less the Fourier integral
        # up to the cut, whose cos part is real and skewed sin part imaginary
        s0 = np.maximum(a, lo)
        val[pos] += m._continuous_tail(a)
        osc = filon(rho, s0, _shell_top(m, s0, xi, float(m._continuous_tail(split))), xi)
        val[pos] -= osc.real + 1j * skew * osc.imag
        if skew:  # the compensation -i xi s on the shell inside |y| <= 1
            lin = filon(lambda s: s * rho(s), s0, np.full(a.shape, split), 0.0 * xi)
            val[pos] += 1j * skew * xi * lin.real
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
                        / (2 * d), (1.0 - np.real(_sphere_factor(wb, d) * np.exp(1j * wb)))
                        / (wb * wb))
        return frac * x**2 * rho(s) * s**3

    u_top = np.log(s_cut)
    u_lo = np.maximum(np.log(lo), u_top - 160.0)
    out[idx] += panel_quad(integrand, u_lo, u_top)
    # below the window s |xi| <= 4 pi e^-160, where 1 - average = |xi|^2 s^2/(2d)
    # to relative O(w^2): the jumps there add |xi|^2 trunc2(s_lo)/(2d)
    out[idx] += r_xi**2 * np.asarray(m.trunc2(np.exp(u_lo)), float) / (2 * d)
    # shell above s_cut: its whole mass less the sphere average against rho
    # up to the cut, where the average's modulus is at most 1
    g_cut, s0 = m._continuous_tail(s_cut), np.maximum(s_cut, lo)
    osc = filon(lambda s: rho(s) * _sphere_factor(s * x, d), s0,
                 _shell_top(m, s0, r_xi, g_cut), r_xi)
    out[idx] += g_cut - osc.real
    return out


# ---------------------------------------------------------------------------
# grids and extrema
# ---------------------------------------------------------------------------


def _directions(dim, n=32):
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        th = np.linspace(0, 2 * np.pi, n, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    if dim == 3:  # Fibonacci-style spread, deterministic
        idx = np.arange(n) + 0.5
        phi = np.arccos(1 - 2 * idx / n)
        theta = np.pi * (1 + 5**0.5) * idx
        return np.stack([np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi),
                         np.cos(phi)], axis=1)
    extra = np.random.default_rng(12345).standard_normal((n, dim))
    return extra / np.linalg.norm(extra, axis=1, keepdims=True)


XI_DECADES = 4  # decades of frequency radii below a cap that its sup reads
LATTICE_DECADE = 12  # lattice levels per decade of frequency radius and state offset


@cache
def _unit_offsets(n):
    """ball_grid's 1-d offsets linspace(-1, 1, n), made once per n (a read-only view)."""
    return np.broadcast_to(np.linspace(-1.0, 1.0, n), (n,))


def ball_grid(center, radius, dim, n=17):
    """Deterministic grid over the closed ball B(center, radius); an array of
    radii gives one grid per radius (leading axes radius.shape)."""
    center = np.atleast_1d(np.asarray(center, float))
    radius = np.asarray(radius, float)
    if radius.ndim == 0 and radius == 0:
        return center[None, :]
    if dim == 1:
        return (center[0] + radius[..., None] * _unit_offsets(n))[..., None]
    dirs = _directions(dim, max(8, n // 2))
    radii = np.linspace(0.0, radius, 5, axis=-1)[..., 1:]
    pts = (radii[..., None, None] * dirs).reshape(radius.shape + (-1, dim)) + center
    middle = np.broadcast_to(center, radius.shape + (1, dim))
    return np.concatenate([middle, pts], axis=-2)


def _ball_states(spec: ProcessSpec, x, radius, n=17):
    """``ball_grid``'s states of B(x, radius), (..., n, d); the centre alone, (1, ..., 1, d)
    of the same rank, for a Levy process (state-free) or where every radius is zero."""
    radius = np.asarray(radius, float)
    return (ball_grid(x, radius, spec.dim, n) if spec.kind != "levy" and radius.any()
            else ball_grid(x, 0.0, spec.dim).reshape((1,) * (radius.ndim + 1) + (-1,)))


def _check_ball(spec: ProcessSpec, x, radius=0.0, name="ball_radius"):
    """ValueError unless x has ``dim`` finite coordinates (a scalar has one; a Levy
    process ignores x, which may be None) and the ball radius is finite and
    non-negative: the check of the public entries, made before any integral."""
    if spec.kind != "levy" and (np.ndim(x) > 1 or np.size(x) != spec.dim
                                or not np.isfinite(np.asarray(x, float)).all()):
        raise ValueError(f"x must be finite with {spec.dim} coordinate(s), got {x!r}")
    if not 0 <= radius < np.inf:
        raise ValueError(f"{name} must be finite and non-negative")


# mode -> (extremum over the states, value of q); "swap": the state min first
_EXTREMUM_MODES = {
    "sup_sup": ("sup", "abs"),
    "inf_sup": ("inf", "abs"),
    "inf_sup_re": ("inf", "re"),
    "sup_inf_re": ("swap", "re"),
}


def _window(a, lo, width, fn, axis=0):
    """``fn`` along ``axis`` (0 or -1) of ``a`` at levels lo, lo + 1, ... (lo <= -width) over
    each level l's window [min(l, 0) - width, l], for the levels from lo + width."""
    def cut(b, start=None, stop=None):
        return b[(slice(None),) * (axis % b.ndim) + (slice(start, stop),)]
    parts, n, head, p = [], width + 1, cut(a, stop=-lo), 1
    if lo < -width:  # sliding windows, by doubling: extrema over 2p levels from two of p
        while 2 * p <= n:
            head, p = fn(cut(head, stop=-p), cut(head, p)), 2 * p
        parts.append(fn(cut(head, stop=head.shape[axis] - (n - p)), cut(head, n - p)))
    if a.shape[axis] > -lo:  # in place: a's levels from -width are not read again
        parts.append(cut(fn.accumulate(tail := cut(a, -lo - width), axis=axis, out=tail), width))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _capped_extremum(spec: ProcessSpec, x, balls, caps, mode):
    """Extremum in ``mode`` of q over B(x, ball) x {|xi| <= cap} at the broadcast balls and
    caps: every capped symbol's ``q`` calls.  One lattice, anchored absolutely: radii
    10**(k / LATTICE_DECADE) times ``_directions`` (1-d: +1, q being Hermitian) and states x,
    x + 10**(j / LATTICE_DECADE) times ``ball_grid``'s directions.  Level k reads the radii
    of [min(k, 0) - XI_DECADES decades, k], ball level j x and the offsets of [min(j, 0) -
    1 decade, j], so no value depends on the call's other rows.  Sup modes reduce the
    states first, inf modes last.  Each (ball, cap)
    reads its four neighbouring levels, log value linear in the ball and in log cap:
    monotone in both, never rounded.  A Levy ball is its centre."""
    z_kind, val_kind = _EXTREMUM_MODES[mode]
    m, w_xi = LATTICE_DECADE, XI_DECADES * LATTICE_DECADE
    balls, caps = np.broadcast_arrays(0.0 if spec.kind == "levy" else balls, caps)
    kc = np.floor(yc := np.log10(caps) * m)
    k_lo = int(min(kc.min(), 0)) - w_xi
    xi = 10.0 ** (np.arange(k_lo, kc.max() + 2) / m)[:, None, None] * (
        1.0 if spec.dim == 1 else _directions(spec.dim))
    z, pos = np.atleast_1d(np.asarray(x, float)).reshape(1, 1, -1), balls > 0
    u, row, any_ball = np.zeros(caps.shape), np.zeros(caps.shape, int), pos.any()
    if any_ball:  # the centre, then the states of each offset level from j_lo
        jb = np.floor(np.log10(np.where(pos, balls, 1.0)) * m)
        j_lo = int(min(jb.min(), 0)) - m
        offsets = 10.0 ** (np.arange(j_lo, jb.max() + 2) / m)
        z = z + np.concatenate([[0.0], offsets])[:, None] * _directions(spec.dim, 8)[:, None]
        at = (jb - j_lo).astype(int)  # the ball's level and the next, in offsets
        u = np.clip((balls - offsets[at]) / (offsets[at + 1] - offsets[at]), 0.0, 1.0 - 2**-53)
        u, row = np.where(pos, u, 0.0), np.where(pos, at - m + 1, 0)
    fn = np.maximum if z_kind == "sup" else np.minimum

    def rows(z):  # q on radii x xi dirs x state dirs x states, reduced over the dirs
        val = spec.q(z, xi[:, :, None, None, :])
        val = np.abs(val) if val_kind == "abs" else np.real(val)
        if z_kind == "inf":  # per state: sup over the radius window, then the inf over the dirs
            return _window(val.max(axis=1), k_lo, w_xi, np.maximum).min(axis=1)
        return val.max(axis=(1, 2)) if z_kind == "sup" else val.min(axis=2)

    step = max(1, 2**15 // (z.shape[0] * xi.shape[0] * xi.shape[1]))  # q in slabs of states
    table = np.concatenate([rows(z[:, i:i + step]) for i in range(0, z.shape[1], step)], axis=-1)
    if any_ball:  # the centre, then one state column per ball level from j_lo + m
        ball = np.empty(table.shape[:-1] + (table.shape[-1] - m,))
        for r in range(0, len(table), 32):  # 32 radii at a time: one more table, not three
            ball[r:r + 32, ..., 0], part = table[r:r + 32, ..., 0], table[r:r + 32]
            fn(part[..., :1], _window(part[..., 1:], j_lo, m, fn, -1), out=ball[r:r + 32, ..., 1:])
        table = ball
    if z_kind != "inf":  # radii x ball levels
        table = _window(table if z_kind == "sup" else table.max(axis=1), k_lo, w_xi, np.maximum)
    # log values, linear in u and in w; a zero corner (-inf) leaves NaN, read as 0
    n_j, w = table.shape[1], yc - kc
    at, up = (kc - k_lo - w_xi).astype(int) * n_j + row, u > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.log(table.ravel()[np.stack([at, at + up, at + n_j, at + n_j + up])])
        low, high = v[0] + u * (v[1] - v[0]), v[2] + u * (v[3] - v[2])
        out = np.exp(low + w * (high - low))
    return np.where(np.isnan(out), 0.0, out)


def symbol_extremum(spec: ProcessSpec, x, ball_radius, xi_radius, mode="sup_sup"):
    """Extremum of the symbol over B(x, ball_radius) x {|xi| <= xi_radius}.

    Modes: sup_sup (sup_z sup_xi |q|), inf_sup (inf_z sup_xi |q|), inf_sup_re (inf_z
    sup_xi Re q), sup_inf_re (sup_xi inf_z Re q, the exit bound's order), read from
    ``_capped_extremum``'s lattice at the exact radii, which broadcast to the result's
    shape (a float for scalars).  A non-finite state or radius raises ``ValueError``
    before ``q`` is called.
    """
    _check_ball(spec, x)
    ball_r, xi_r = np.broadcast_arrays(np.asarray(ball_radius, float),
                                       np.asarray(xi_radius, float))
    if not ((xi_r > 0) & (xi_r < np.inf)).all():
        raise ValueError("xi_radius must be positive and finite")
    if not ((ball_r >= 0) & (ball_r < np.inf)).all():
        raise ValueError("ball_radius must be finite and non-negative")
    if mode not in _EXTREMUM_MODES:
        raise ValueError(f"unknown extremum mode {mode!r}")
    out = _capped_extremum(spec, x, ball_r, xi_r, mode)
    return float(out) if out.ndim == 0 else out


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


TREND_STABILITY = 0.10  # relative spread of the last half that tail_trend calls stable
TREND_SLOPE_MIN = 0.02  # log-log slope toward the limit that counts as growth
TREND_GROWTH_MIN = 1.5  # last-over-first factor of the last half that growth needs


def tail_trend(grid, values, blowup=1e3):
    """Classify the limiting trend of ``values`` along ``grid``, ordered toward the limit
    (e.g. radii decreasing to 0): (label, the last half's maximum), label "stable" (the
    last half varies by less than ``TREND_STABILITY`` relatively), "diverging" (a log-log
    slope above ``TREND_SLOPE_MIN`` with growth by ``TREND_GROWTH_MIN``, or above
    ``blowup``) or "indeterminate".
    """
    values = np.asarray(values, float)
    grid = np.asarray(grid, float)
    half = values[len(values) // 2:]
    gh = grid[len(values) // 2:]
    hi, lo = float(np.max(half)), float(np.min(half))
    if hi <= 0:
        return "stable", 0.0
    if lo > 0 and hi / lo - 1.0 < TREND_STABILITY:
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
        if slope > TREND_SLOPE_MIN and half[-1] > TREND_GROWTH_MIN * half[0] > 0:
            return "diverging", hi
    return "indeterminate", hi


def _trend_report(grid, values, diverging_reason, unstable_reason, report_grid=None):
    """``tail_trend`` as a ``ConditionReport`` on ``report_grid`` (default
    ``grid``): stable holds, diverging fails, anything else is indeterminate."""
    label, est = tail_trend(grid, values)
    grid = grid if report_grid is None else report_grid
    if label == "stable":
        return ConditionReport("holds", est, grid)
    if label == "diverging":
        return ConditionReport("fails", est, grid, reason=diverging_reason)
    return ConditionReport("indeterminate", est, grid, reason=unstable_reason)


SECTOR_RADII = np.logspace(-2, 6, 49)  # frequency radii of sector_check
SECTOR_RADII.flags.writeable = False
SECTOR_BALL_POINTS = 9  # ball_grid points of sector_check's state ball


def sector_check(spec: ProcessSpec, x_ball=(0.0, 0.0)):
    """Check |Im q| <= C Re q on a ball of states times a frequency grid.

    Holds with witness C* (the largest observed ratio) when the ratio is
    stable over the top frequency decades; fails when Re q vanishes where
    Im q does not, or when the ratio keeps growing along the grid.  The grid
    is ``SECTOR_RADII`` times 32 directions on ``SECTOR_BALL_POINTS`` states.
    """
    center, radius = x_ball
    _check_ball(spec, center, radius)
    dirs = _directions(spec.dim)
    z = _ball_states(spec, center, radius, SECTOR_BALL_POINTS)
    grid = (SECTOR_RADII[:, None, None] * dirs[None, :, :]).reshape(-1, spec.dim)
    q = spec.q(z[:, None, :], grid).reshape(-1, len(SECTOR_RADII), len(dirs))
    re, im = np.real(q), np.abs(np.imag(q))
    if not ((re > 0) | (im > 0)).any():
        raise DegenerateSymbol("symbol vanishes on the whole grid")
    if ((re <= 0) & (im > 1e-12)).any():
        return ConditionReport(
            "fails", float(np.inf), SECTOR_RADII, reason="Re q = 0 where Im q > 0"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(re > 0, im / re, 0.0)
    ratio_by_level = ratios.max(axis=(0, 2))
    return _trend_report(SECTOR_RADII, ratio_by_level, "ratio diverges", "unstable ratio")
