"""Built-in process library: closed-form models used throughout the examples
and the verification suites.

One-dimensional but ``sde_process`` (its driver's d); state callables take z
(..., d) and read z[..., 0].  "Normalized" stable processes have exponent
exactly |xi|^alpha; "raw" ones use the measure |y|^{-1-alpha} dy, whose tail is
2 r^{-alpha}/alpha (a round jump intensity above radius r at alpha = 1).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special

from . import measures as ms
from .symbols import LevyTriplet, ProcessSpec, StateFamily, eval_exponent


def _as_levy(measure, b=0.0, symbol=None, stable_family=None, name=""):
    triplet = LevyTriplet(b=b * np.ones(measure.dim), measure=measure)
    return ProcessSpec(
        kind="levy",
        dim=measure.dim,
        symbol=symbol,
        levy=triplet,
        stable_family=stable_family,
        name=name,
    )


def _power_symbol(alpha, scale=1.0, drift=0.0):
    """Vectorized symbol xi -> (scale*|xi|)^alpha - i*drift*xi: float
    without a drift, complex with one."""

    def symbol(x, xi):
        out = np.abs(xi[..., 0])
        if scale != 1.0:
            out *= scale
        out **= alpha
        return out + -1j * drift * xi[..., 0] if drift else out

    return symbol


def stable_process(alpha):
    """Symmetric stable process normalized to exponent |xi|^alpha."""
    m = ms.stable_measure(alpha)
    return _as_levy(
        m,
        symbol=_power_symbol(alpha),
        stable_family=(alpha, 1.0),
        name=f"stable({alpha:g})",
    )


def cauchy_process():
    """Standard Cauchy process: exponent |xi|, X_t ~ Cauchy(scale t)."""
    import dataclasses

    return dataclasses.replace(stable_process(1.0), name="cauchy")


def raw_stable_process(alpha):
    """Stable process of the unit-coefficient measure |y|^{-1-alpha} dy.

    The exponent is |xi|^alpha / c(alpha) where c is the normalizing
    coefficient, i.e. the process is a spatial dilation of the normalized one.
    """
    c = ms.stable_normalization(alpha)
    sigma = c ** (-1.0 / alpha)
    m = ms.stable_measure(alpha, scale=1.0)
    return _as_levy(
        m,
        symbol=_power_symbol(alpha, scale=sigma),
        stable_family=(alpha, sigma),
        name=f"raw_stable({alpha:g})",
    )


def one_sided_stable_process(alpha):
    """Spectrally positive stable process with the canonical skewed exponent.

    The drift is chosen so the compensation cutoff at |y| = 1 reproduces the
    closed form psi(xi) = A |xi|^alpha (1 - i tan(pi alpha / 2) sgn xi) with
    A = |Gamma(-alpha)| |cos(pi alpha / 2)|.  Not defined at alpha = 1.
    """
    if abs(alpha - 1.0) < 1e-9:
        raise ValueError("one-sided construction excludes alpha = 1")
    m = ms.one_sided_stable_measure(alpha)
    if alpha < 1:
        b = 1.0 / (1.0 - alpha)  # int_{0<y<1} y nu(dy)
    else:
        b = -1.0 / (alpha - 1.0)  # -int_{y>=1} y nu(dy)
    amp = abs(special.gamma(-alpha)) * abs(np.cos(np.pi * alpha / 2))
    tan_a = np.tan(np.pi * alpha / 2)

    def symbol(x, xi):
        v = xi[..., 0]
        return amp * np.abs(v) ** alpha * (1.0 - 1j * tan_a * np.sign(v))

    return _as_levy(m, b=b, symbol=symbol, name=f"one_sided_stable({alpha:g})")


def drift_half_stable_process():
    """Unit drift plus normalized 1/2-stable part: psi(xi) = i xi + |xi|^{1/2}.

    Standard example of a symbol violating the sector condition.
    """
    m = ms.stable_measure(0.5)
    return _as_levy(
        m, b=-1.0, symbol=_power_symbol(0.5, drift=-1.0), name="drift_half_stable"
    )


def atom_process(radius=2.0, mass=1.0):
    """Compound Poisson process with symmetric jumps of fixed modulus."""
    m = ms.atom_measure(radius, mass)

    def symbol(x, xi):
        return mass * (1.0 - np.cos(radius * xi[..., 0]))

    return _as_levy(m, symbol=symbol, name=f"atom({radius:g})")


INTERP_LO = 1e-3  # lowest frequency of an interpolated symbol's table
INTERP_POINTS = 140  # log-spaced frequencies in that table


def _interpolated_symbol(measure, hi=1e10, b=0.0):
    """Radial symbol of a symmetric measure, built by quadrature once on
    INTERP_POINTS frequencies |xi| from INTERP_LO to hi along e_1 and
    interpolated in log-log, plus the drift's exact -i b.xi: real without one."""
    dim = measure.dim
    triplet = LevyTriplet(b=np.zeros(dim), measure=measure)
    grid = np.logspace(np.log10(INTERP_LO), np.log10(hi), INTERP_POINTS)
    e1 = grid if dim == 1 else grid[:, None] * np.eye(dim)[0]
    vals = np.maximum(np.real(eval_exponent(triplet, e1)), 1e-300)
    log_g, log_v = np.log(grid), np.log(vals)
    slope_lo = (log_v[1] - log_v[0]) / (log_g[1] - log_g[0])
    slope_hi = (log_v[-1] - log_v[-2]) / (log_g[-1] - log_g[-2])
    b = b * np.ones(dim)

    def symbol(x, xi):
        v = np.abs(xi[..., 0]) if dim == 1 else np.linalg.norm(xi, axis=-1)
        out = np.zeros(v.shape)
        pos = v > 0
        lv = np.log(np.clip(v[pos], 1e-300, None))
        core = np.interp(lv, log_g, log_v)
        core = np.where(lv < log_g[0], log_v[0] + slope_lo * (lv - log_g[0]), core)
        core = np.where(lv > log_g[-1], log_v[-1] + slope_hi * (lv - log_g[-1]), core)
        out[pos] = np.exp(core)
        return out - 1j * (xi @ b) if b.any() else out

    return symbol


@lru_cache(maxsize=None)
def slow_variation_process():
    """Pure-jump process whose truncated second moment is slowly varying.

    The tail/moment balance condition fails, so the zero/infinity dichotomy
    is not available for f(t) = sqrt(t); the path statistic settles near a
    finite constant instead.
    """
    m = ms.slow_variation_measure()
    return _as_levy(m, symbol=_interpolated_symbol(m, hi=1e12), name="slow_variation")


@lru_cache(maxsize=None)
def log_smooth_process():
    """Process of the |y|^{-1} (log(e/|y|))^{-2} measure; activity index 0."""
    m = ms.log_smooth_measure()
    return _as_levy(m, symbol=_interpolated_symbol(m, hi=1e8), name="log_smooth")


def levy_process_from_measure(measure, b=0.0, symbol=None, name=""):
    """Generic pure-jump Levy process in the measure's dimension; without a
    ``symbol``, one interpolated from quadrature, which needs equal side weights."""
    if symbol is None:
        w_neg, w_pos = measure.side_weights
        if abs(w_pos - w_neg) > 1e-15:
            raise ValueError("a skewed measure's symbol is not interpolated; pass symbol")
        symbol = _interpolated_symbol(measure, b=b)
    return _as_levy(measure, b=b, symbol=symbol, name=name or measure.name)


def zero_process(dim=1):
    """The constant process (null triplet)."""
    m = ms.null_measure(dim)

    def symbol(x, xi):
        return np.zeros(xi.shape[:-1])

    return _as_levy(m, symbol=symbol, name="zero")


# ---------------------------------------------------------------------------
# state-dependent models
# ---------------------------------------------------------------------------


def default_order_fn(z):
    """alpha(z) = 1.5 - 0.4 clamp(z, -1, 1); continuous, range [1.1, 1.9]."""
    return 1.5 - 0.4 * np.minimum(np.maximum(np.asarray(z, float), -1.0), 1.0)


def variable_order_process(order_fn=None):
    """Process of variable order: q(z, xi) = |xi|^{alpha(z)}.

    At each state the frozen law is the normalized symmetric stable law of
    index alpha(z), which stable_params reports for simulation.
    """
    order = order_fn or default_order_fn

    def symbol(x, xi):
        return np.power(np.abs(xi[..., 0]), order(x[..., 0]))

    def tail(z, r):
        a = order(np.asarray(z, float)[..., 0])
        c = _stable_norm_vec(a)
        return 2.0 * c * np.asarray(r, float) ** (-a) / a

    def trunc2(z, r):
        a = order(np.asarray(z, float)[..., 0])
        c = _stable_norm_vec(a)
        return 2.0 * c * np.asarray(r, float) ** (2.0 - a) / (2.0 - a)

    def stable_params(z):
        return order(np.asarray(z, float)[..., 0]), 1.0

    fam = StateFamily(tail=tail, trunc2=trunc2, stable_params=stable_params)
    return ProcessSpec(
        kind="state_dependent", dim=1, symbol=symbol, family=fam,
        name="variable_order",
    )


def _stable_norm_vec(alpha):
    alpha = np.asarray(alpha, float)
    return (
        2 ** (alpha - 1) * alpha * special.gamma((1 + alpha) / 2)
        / (np.sqrt(np.pi) * special.gamma(1 - alpha / 2))
    )


def default_intensity_fn(z):
    """kappa(z) = 1 + 0.5 sin(z); bounded in [1/2, 3/2], symmetric in y."""
    return 1.0 + 0.5 * np.sin(np.asarray(z, float))


def stable_type_process(alpha, intensity_fn=None):
    """Stable-type kernel nu(z, dy) = kappa(z) c(alpha) |y|^{-1-alpha} dy.

    kappa is bounded away from 0 and infinity, so the tail is comparable to
    r^{-alpha} uniformly in the state.
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0,2)")
    kap = intensity_fn or default_intensity_fn
    c = ms.stable_normalization(alpha)

    def symbol(x, xi):
        return np.multiply(kap(x[..., 0]), np.abs(xi[..., 0]) ** alpha)

    def tail(z, r):
        k = np.asarray(kap(np.asarray(z, float)[..., 0]), float)
        return k * 2.0 * c * np.asarray(r, float) ** (-alpha) / alpha

    def trunc2(z, r):
        k = np.asarray(kap(np.asarray(z, float)[..., 0]), float)
        return k * 2.0 * c * np.asarray(r, float) ** (2.0 - alpha) / (2.0 - alpha)

    def stable_params(z):
        k = np.asarray(kap(np.asarray(z, float)[..., 0]), float)
        return alpha, k ** (1.0 / alpha)  # the index does not depend on z

    fam = StateFamily(tail=tail, trunc2=trunc2, stable_params=stable_params)
    return ProcessSpec(
        kind="state_dependent", dim=1, symbol=symbol, family=fam,
        name=f"stable_type({alpha:g})",
    )


def default_sde_coefficient(z):
    """sigma(z) = 1 + 0.5 sin(z); bounded continuous, never zero."""
    return 1.0 + 0.5 * np.sin(np.asarray(z, float))


def sde_process(driver: ProcessSpec | None = None, coefficient=None):
    """Solution of dX = sigma(X_-) dL, symbol psi(sigma(x) xi) and tail G(r/|sigma(x)|),
    with one scalar sigma(x) = coefficient(x[..., 0]) for a driver in any d (also
    read by euler_sde).  Matrix coefficients Phi(x), psi(Phi(x)^T xi), are not supported."""
    driver = driver or cauchy_process()
    if driver.kind != "levy":
        raise ValueError("driver must be a Levy process")
    sig = coefficient or default_sde_coefficient

    def sigma(z):
        return np.asarray(sig(z[..., 0]), float)

    def symbol(x, xi):
        s = np.broadcast_to(sigma(x), x.shape[:-1])
        return driver.q(np.zeros(driver.dim), s[..., None] * xi)

    return ProcessSpec(
        kind="sde",
        dim=driver.dim,
        symbol=symbol,
        driver=driver.levy,
        sigma=sigma,
        stable_family=driver.stable_family,
        name=f"sde({driver.name})",
    )


# registry used by the CLI -----------------------------------------------------

BUILTIN_PROCESSES = {
    "stable": (stable_process, ("alpha",)),
    "cauchy": (cauchy_process, ()),
    "raw_stable": (raw_stable_process, ("alpha",)),
    "one_sided_stable": (one_sided_stable_process, ("alpha",)),
    "drift_half_stable": (drift_half_stable_process, ()),
    "atom": (atom_process, ("radius", "mass")),
    "slow_variation": (slow_variation_process, ()),
    "log_smooth": (log_smooth_process, ()),
    "variable_order": (variable_order_process, ()),
    "stable_type": (stable_type_process, ("alpha",)),
    "sde_cauchy": (sde_process, ()),
    "zero": (zero_process, ()),
}
