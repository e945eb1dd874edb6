"""Levy (jump) measures exposed through their tail and truncated second moment.

Every criterion downstream consumes only the radial tail G(r) = nu({|y| > r}),
the truncated second moment trunc2(r) = int_{|y|<=r} |y|^2 nu(dy), and samples
of jumps above a cutoff, so the model is tail-first; tails take arrays of
radii.  Densities are optional and used for exponent quadrature, sampling, and
consistency checks; every integral here runs on ``quadrature.panel_quad``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from .errors import ZeroTail
from .quadrature import panel_quad

Concentration = namedtuple("Concentration", ["G", "K", "h", "I"])

_E_MINUS_E = float(np.exp(-np.e))  # support edge of the slowly-varying measure


@dataclass
class LevyMeasureModel:
    """A Levy measure on R^d \\ {0}, radially parametrized.

    tail(r) and trunc2(r) must be vectorized over r > 0.  ``radial_density``
    is the total mass density per radius (both signs / all directions
    combined), so that G(r) = int_r^inf rho(s) ds + atom mass above r.
    ``side_weights`` splits 1-d mass between the negative and positive axis.
    """

    tail: Callable
    trunc2: Callable
    dim: int = 1
    radial_density: Callable | None = None
    side_weights: tuple[float, float] = (0.5, 0.5)
    atoms: tuple[tuple[float, float], ...] = ()
    support: tuple[float, float] = (0.0, np.inf)
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        w = self.side_weights
        if min(w) < 0 or abs(sum(w) - 1.0) > 1e-12:
            raise ValueError("side_weights must be non-negative and sum to 1")

    # -- basic functionals -------------------------------------------------

    def concentration(self, r):
        """Return (G, K, h, I) at radius r: K = trunc2/r^2, h = K+G, I = r^2 h."""
        r = float(r)
        if r <= 0:
            raise ValueError("radius must be positive")
        G = float(self.tail(r))
        K = float(self.trunc2(r)) / r**2
        h = K + G
        return Concentration(G=G, K=K, h=h, I=r**2 * h)

    # -- validation --------------------------------------------------------

    def validate(self, r_grid=None, rtol=1e-6):
        """Check monotonicity, integrability, and density/tail consistency.

        Raises ValueError on violation.  Density consistency compares panel
        integrals of the radial density over shells against tail differences;
        a density that jumps inside a shell raises ``QuadratureFailure``.
        """
        if r_grid is None:
            r_grid = np.logspace(-4, 0.5, 25)
        g = np.asarray(self.tail(r_grid), float)
        t2 = np.asarray(self.trunc2(r_grid), float)
        if np.any(np.diff(g) > 1e-12 * (1 + np.abs(g[:-1]))):
            raise ValueError(f"tail of {self.name!r} is not non-increasing")
        if np.any(np.diff(t2) < -1e-12 * (1 + np.abs(t2[:-1]))):
            raise ValueError(f"trunc2 of {self.name!r} is not non-decreasing")
        if not np.isfinite(self.trunc2(1.0)) or not np.isfinite(self.tail(1.0)):
            raise ValueError(f"{self.name!r} violates Levy integrability at r=1")
        if self.radial_density is not None:
            lo, hi = self.support
            shells = [s for s in (1e-3, 1e-2, 1e-1, 0.5, 2.0) if lo < s < hi]
            vals = panel_quad(lambda u: np.exp(u) * self.radial_density(np.exp(u)),
                              np.log(shells[:-1]), np.log(shells[1:]))
            for a, b, val in zip(shells[:-1], shells[1:], vals):
                ref = float(self.tail(a)) - float(self.tail(b))
                ref -= sum(m for s, m in self.atoms if a < s <= b)
                if abs(val - ref) > rtol * max(abs(ref), 1e-12):
                    raise ValueError(
                        f"density of {self.name!r} inconsistent with tail on "
                        f"({a}, {b}]: {val} vs {ref}"
                    )
        return self

    # -- sampling ----------------------------------------------------------

    def _continuous_tail(self, r):
        """Tail of the non-atomic part."""
        g = np.asarray(self.tail(r), float).copy()
        for s, m in self.atoms:
            g -= m * (np.asarray(r, float) < s)
        return np.maximum(g, 0.0)

    def _magnitude_inverse(self, delta):
        """Inverse of the continuous tail on r >= delta, as an interpolant."""
        key = ("inv", float(delta))
        if key not in self._cache:
            hi = self.support[1]
            if not np.isfinite(hi):
                # expand until the tail is negligible relative to G(delta)
                hi = max(1.0, 10 * delta)
                g0 = max(float(self._continuous_tail(delta)), 1e-300)
                while float(self._continuous_tail(hi)) > 1e-12 * g0 and hi < 1e18:
                    hi *= 10
            r = np.logspace(np.log10(delta), np.log10(hi), 600)
            g = self._continuous_tail(r)
            keep = np.concatenate([[True], np.diff(g) < 0])
            r, g = r[keep], np.maximum(g[keep], 1e-300)
            self._cache[key] = (np.log(g[::-1]), np.log(r[::-1]))
        return self._cache[key]

    def sample_jumps(self, n, delta, rng):
        """Draw n jumps with |y| > delta; returns array (n,) in 1-d, (n, dim) else."""
        if n == 0:
            shape = (0,) if self.dim == 1 else (0, self.dim)
            return np.zeros(shape)
        g_delta = float(self.tail(delta))
        if g_delta <= 0:
            raise ZeroTail(f"no mass above delta={delta} for {self.name!r}")
        atom_part = [(s, m) for s, m in self.atoms if s > delta]
        atom_mass = sum(m for _, m in atom_part)
        radii = np.empty(n)
        is_atom = rng.uniform(0.0, 1.0, n) * g_delta < atom_mass
        if atom_mass > 0:
            sizes = np.array([s for s, _ in atom_part])
            probs = np.array([m for _, m in atom_part]) / atom_mass
            radii[is_atom] = rng.choice(sizes, size=int(is_atom.sum()), p=probs)
        n_cont = int((~is_atom).sum())
        if n_cont:
            log_g, log_r = self._magnitude_inverse(delta)
            cont_mass = float(self._continuous_tail(delta))
            target = cont_mass * rng.uniform(0.0, 1.0, n_cont)
            target = np.clip(target, np.exp(log_g[0]), np.exp(log_g[-1]))
            radii[~is_atom] = np.exp(np.interp(np.log(target), log_g, log_r))
        if self.dim == 1:
            signs = np.where(rng.uniform(0, 1, n) < self.side_weights[1], 1.0, -1.0)
            return radii * signs
        dirs = rng.standard_normal((n, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return radii[:, None] * dirs

    def mean_jump_between(self, a, b):
        """int_{a < |y| <= b} y nu(dy), first coordinate (0 for symmetric)."""
        w_neg, w_pos = self.side_weights
        if self.dim > 1 or abs(w_pos - w_neg) < 1e-15:
            return 0.0
        total = sum(s * m for s, m in self.atoms if a < s <= b)
        if self.radial_density is not None:  # int s^2 rho(s) du over u = log s
            total += panel_quad(lambda u: np.exp(u) ** 2 * self.radial_density(np.exp(u)),
                                np.log([a]), np.log([min(b, self.support[1])]))[0]
        return float((w_pos - w_neg) * total)


# ---------------------------------------------------------------------------
# built-in measures
# ---------------------------------------------------------------------------


def stable_normalization(alpha, dim=1):
    """Coefficient c with nu(dy) = c |y|^{-d-alpha} dy giving exponent |xi|^alpha."""
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0,2)")
    return (
        2 ** (alpha - 1)
        * alpha
        * special.gamma((dim + alpha) / 2)
        / (np.pi ** (dim / 2) * special.gamma(1 - alpha / 2))
    )


def stable_measure(alpha, scale=None, dim=1, name=None):
    """Isotropic power-law measure c |y|^{-d-alpha} dy.

    With scale=None the coefficient is normalized so the symmetric exponent is
    exactly |xi|^alpha; pass scale=1.0 for the raw unit-coefficient measure
    (tail 2 r^{-alpha}/alpha in one dimension).
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0,2)")
    c = stable_normalization(alpha, dim) if scale is None else float(scale)
    if dim == 1:
        surf = 2.0
    else:
        surf = 2 * np.pi ** (dim / 2) / special.gamma(dim / 2)
    amp = c * surf  # total radial density amplitude: rho(s) = amp * s^{-1-alpha}

    def tail(r):
        return amp * np.asarray(r, float) ** (-alpha) / alpha

    def trunc2(r):
        return amp * np.asarray(r, float) ** (2 - alpha) / (2 - alpha)

    return LevyMeasureModel(
        tail=tail,
        trunc2=trunc2,
        dim=dim,
        radial_density=lambda s: amp * s ** (-1.0 - alpha),
        name=name or f"stable(alpha={alpha}, c={c:.6g}, d={dim})",
    )


def one_sided_stable_measure(alpha, scale=1.0):
    """Spectrally positive power-law measure scale * y^{-1-alpha} dy on y > 0."""
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0,2)")
    c = float(scale)

    def tail(r):
        return c * np.asarray(r, float) ** (-alpha) / alpha

    def trunc2(r):
        return c * np.asarray(r, float) ** (2 - alpha) / (2 - alpha)

    return LevyMeasureModel(
        tail=tail,
        trunc2=trunc2,
        dim=1,
        radial_density=lambda s: c * s ** (-1.0 - alpha),
        side_weights=(0.0, 1.0),
        name=f"one_sided_stable(alpha={alpha})",
    )


def _phi(r):
    r = np.asarray(r, float)
    return 1.0 / np.log(np.log(1.0 / np.minimum(r, _E_MINUS_E)))


def _phi_prime(s):
    # d/ds [1/log log(1/s)] = 1 / (s log(1/s) (log log(1/s))^2)
    return 1.0 / (s * np.log(1.0 / s) * np.log(np.log(1.0 / s)) ** 2)


def slow_variation_measure():
    """One-dimensional measure with trunc2(r) = 1/log log(1/r) below e^{-e}.

    The small-jump mass dominates the tail so strongly that the truncated
    second moment is slowly varying; the tail/moment balance condition fails
    and t^{1/2} growth sits strictly between the zero and infinity regimes.
    """
    edge = _E_MINUS_E

    def density(s):
        return np.where(s < edge, s ** -2.0 * _phi_prime(np.minimum(s, edge * 0.999999)), 0.0)

    def tail(r):
        # G = int_e^V e^{2v} / (v log^2 v) dv, V = log(1/r); about the top end (w = V - v) it
        # is r^{-2} int_0^{V-e} e^{-2w} / ((V-w) log^2(V-w)) dw, cut at w = 40 (rest < e^{-80})
        r = np.asarray(r, float)
        out, inside = np.zeros(r.shape), r < edge
        big_v = -np.log(r[inside])[:, None]
        out[inside] = r[inside] ** -2.0 * panel_quad(
            lambda w: np.exp(-2.0 * w) / ((big_v - w) * np.log(big_v - w) ** 2),
            np.zeros(big_v.shape[0]), np.minimum(big_v[:, 0] - np.e, 40.0))
        return out if out.ndim else float(out)

    def trunc2(r):
        r_arr = np.asarray(r, float)
        return np.where(r_arr >= edge, 1.0, _phi(np.minimum(r_arr, edge)))

    return LevyMeasureModel(
        tail=tail,
        trunc2=trunc2,
        dim=1,
        radial_density=density,
        support=(0.0, edge),
        name="slow_variation",
    )


def atom_measure(radius=2.0, mass=1.0):
    """Finite measure: symmetric point masses at |y| = radius."""

    def tail(r):
        return np.where(np.asarray(r, float) < radius, mass, 0.0)

    def trunc2(r):
        return np.where(np.asarray(r, float) >= radius, mass * radius**2, 0.0)

    return LevyMeasureModel(
        tail=tail,
        trunc2=trunc2,
        dim=1,
        atoms=((float(radius), float(mass)),),
        support=(float(radius), float(radius)),
        name=f"atom(|y|={radius}, mass={mass})",
    )


def log_smooth_measure():
    """Density |y|^{-1} (log(e/|y|))^{-2} on 0 < |y| < 1; index 0 at the origin.

    Every positive-power moment near zero is finite, so the small-jump
    activity index is 0 even though the density blows up like 1/|y|.
    """

    def tail(r):
        r_arr = np.asarray(r, float)
        u = 1.0 + np.log(1.0 / np.minimum(r_arr, 1.0))
        return np.where(r_arr >= 1.0, 0.0, 2.0 * (1.0 - 1.0 / u))

    def trunc2(r):
        r_arr = np.asarray(r, float)
        u = 1.0 + np.log(1.0 / np.clip(r_arr, 1e-300, 1.0))
        # 2 e^2 int_u^inf e^{-2v} v^{-2} dv = 2 e^2 E_2(2u)/u
        val = 2.0 * np.e**2 * special.expn(2, 2.0 * u) / u
        full = 2.0 * np.e**2 * special.expn(2, 2.0)
        return np.where(r_arr >= 1.0, full, val)

    def density(s):
        return np.where(s < 1.0, 2.0 / (s * (1.0 + np.log(1.0 / s)) ** 2), 0.0)

    return LevyMeasureModel(
        tail=tail,
        trunc2=trunc2,
        dim=1,
        radial_density=density,
        support=(0.0, 1.0),
        name="log_smooth",
    )


def null_measure(dim=1):
    """The zero measure (no jumps)."""
    zero = lambda r: np.zeros_like(np.asarray(r, float))
    return LevyMeasureModel(tail=zero, trunc2=zero, dim=dim, name="null")


def concentration(measure: LevyMeasureModel, r):
    """Concentration functions (G, K, h, I) of a measure at radius r."""
    return measure.concentration(r)
