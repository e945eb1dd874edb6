"""Fixed-panel quadrature over whole arrays of windows at once: ``panel_quad``
(smooth integrands, checked against twice the panels) and ``filon`` (amplitudes
against e^{i xi s}, checked by top Legendre coefficients); each check raises
``QuadratureFailure``."""

import numpy as np
from scipy import special

from .errors import QuadratureFailure

QUAD_RTOL = 1e-8
QUAD_ATOL = 1e-12
PANELS = 32  # per window; checked against 2 * PANELS
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# Legendre coefficients of the degree-15 interpolant of the 16 node values,
# a_n = (n + 1/2) sum_k w_k P_n(x_k) f(x_k), and i^n for their Filon moments
_LEG_FIT = ((np.arange(16) + 0.5)[:, None] * _GL_W
            * np.polynomial.legendre.legvander(_GL_X, 15).T)
_I_POW = np.tile([1.0, 1j, -1.0, -1j], 4)
# nodes on [0, 1] of one panel: the 16-node rule, then its two halves
_PANEL_NODES = 0.5 * np.concatenate([_GL_X + 1.0, 0.5 * _GL_X + 0.5, 0.5 * _GL_X + 1.5])
_GL_W2 = 0.5 * np.concatenate([_GL_W, _GL_W])


def panel_quad(fun, lo, hi):
    """Integrals of fun over windows [lo, hi] (arrays (m,)) at once: PANELS
    Gauss-Legendre panels of 16 nodes, checked against 2 * PANELS.

    fun maps nodes (m, 48) to values; one panel per step keeps memory O(m).
    Returns the finer value, or raises ``QuadratureFailure`` where the two
    differ by more than max(QUAD_ATOL, 10 QUAD_RTOL |value|)."""
    width = (hi - lo) / PANELS
    coarse, fine = np.zeros(lo.shape), np.zeros(lo.shape)
    for p in range(PANELS):
        v = fun(lo[:, None] + width[:, None] * (p + _PANEL_NODES))
        # einsum sums row by row; a BLAS product's order varies with the batch
        coarse += np.einsum("ij,j->i", v[:, :16], _GL_W)
        fine += np.einsum("ij,j->i", v[:, 16:], _GL_W2)
    coarse, fine = 0.5 * width * coarse, 0.5 * width * fine
    bad = ~(np.abs(fine - coarse) <= np.maximum(QUAD_ATOL, 10 * QUAD_RTOL * np.abs(fine)))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureFailure(f"{PANELS} and {2 * PANELS} panels disagree on "
                                f"({lo[i]}, {hi[i]}): {coarse[i]} vs {fine[i]}")
    return fine


def filon(amp, s0, s1, xi):
    """int_{s0}^{s1} amp(s) e^{i xi s} ds for arrays s0, s1, xi (m,) at once.

    Panels [s0 2^k, s0 2^(k+1)] (the last ends at s1) run one index at a time
    for all frequencies; amp maps their nodes (m, 16) to values.  Filon's rule:
    the Legendre series through the 16 Gauss-Legendre values integrates
    exactly at any frequency, as int_{-1}^1 P_n(x) e^{iwx} dx = 2 i^n j_n(w).
    Raises ``QuadratureFailure`` where the top two coefficients, summed over
    the panels, exceed max(QUAD_ATOL, 10 QUAD_RTOL int |amp|)."""
    total = np.zeros(xi.shape, complex)
    err, mass = np.zeros(xi.shape), np.zeros(xi.shape)
    n_panels = int(np.ceil(np.log2(np.max(s1 / s0, initial=1.0))))
    for k in range(n_panels):
        lo = np.minimum(s0 * 2.0**k, s1)
        hi = s1 if k == n_panels - 1 else np.minimum(2.0 * lo, s1)
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        f = amp(mid[:, None] + half[:, None] * _GL_X)
        coef = f @ _LEG_FIT.T
        moments = 2.0 * _I_POW * special.spherical_jn(np.arange(16), (xi * half)[:, None])
        total += half * np.exp(1j * xi * mid) * np.sum(coef * moments, axis=1)
        err += half * (np.abs(coef[:, -2]) + np.abs(coef[:, -1]))
        mass += half * (np.abs(f) @ _GL_W)
    bad = ~(err <= np.maximum(QUAD_ATOL, 10 * QUAD_RTOL * mass))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureFailure(f"Filon panels do not resolve the amplitude on "
                                f"({s0[i]}, {s1[i]}) at xi = {xi[i]}")
    return total
