"""Candidate growth functions f: (0,1] -> (0,inf) and their generalized inverse."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InverseFailure

_T_FLOOR = 1e-18
_INV_RESOLUTION = 1e-12


@dataclass(frozen=True)
class GrowthFunction:
    """Non-decreasing positive function on (0, 1] with a generalized inverse.

    ``descriptor`` is a closed-form tag such as ("power", kappa) or ("const", c);
    it drives shortcuts (regular variation) but never changes values.
    """

    fn: Callable
    descriptor: tuple = ("custom",)
    regularly_varying: bool = False

    def __post_init__(self):
        v = self(np.logspace(-12, 0, 60))
        if np.any(~np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("growth function must be positive and finite on (0,1]")
        if np.any(np.diff(v) < -1e-12 * np.abs(v[:-1])):
            raise ValueError("growth function must be non-decreasing on (0,1]")

    def __call__(self, t):
        return self.fn(np.asarray(t, float))

    def inverse(self, r):
        """Generalized inverse inf{t in (0,1] : f(t) >= r}, via bisection.

        Array-in/array-out: an array of levels gives an array of its shape
        from one bisection (one call of f per step), each element as if
        bisected alone; a float gives a float.  Returns 1.0 where no t <= 1
        reaches r.  Raises InverseFailure, naming the first such r, when an
        inverse collapses below the working resolution (f too flat near 0), and
        ValueError, naming the first, at a NaN level, before any call of f.
        """
        r = np.asarray(r, float)
        if np.isnan(r).any():
            raise ValueError(f"inverse level is NaN at index {np.argmax(np.isnan(r.ravel()))}")
        live = r <= float(self(1.0))
        collapsed = live & (float(self(np.exp(np.log(_T_FLOOR)))) >= r)
        if collapsed.any():
            raise InverseFailure(f"inverse at r={r[collapsed][0]} is below resolution; "
                                 f"f({_T_FLOOR}) >= r already")
        # bisect in log time: relative resolution 1e-12 at every scale
        lo, hi = np.full(r.shape, np.log(_T_FLOOR)), np.zeros(r.shape)
        while (open_ := hi - lo > _INV_RESOLUTION).any():
            mid = 0.5 * (lo + hi)
            up = self(np.exp(mid)) >= r
            hi, lo = np.where(open_ & up, mid, hi), np.where(open_ & ~up, mid, lo)
        t = np.where(live, np.exp(hi), 1.0)
        return t if r.ndim else float(t)


def power(kappa):
    """f(t) = t^kappa."""
    kappa = float(kappa)
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    return GrowthFunction(
        fn=lambda t: np.asarray(t, float) ** kappa,
        descriptor=("power", kappa),
        regularly_varying=True,
    )


def sqrt_t():
    """f(t) = sqrt(t)."""
    return power(0.5)


def constant(c):
    """f == c > 0; every integral criterion is trivially finite."""
    c = float(c)
    if c <= 0:
        raise ValueError("constant level must be positive")
    return GrowthFunction(
        fn=lambda t: np.full_like(np.asarray(t, float), c),
        descriptor=("const", c),
        regularly_varying=True,
    )


def sqrt_loglog():
    """f(t) = sqrt(t * log log(1/t)), clamped inside its natural domain."""

    def fn(t):
        t = np.minimum(np.asarray(t, float), np.exp(-np.e))
        return np.sqrt(t * np.log(np.log(1.0 / t)))

    return GrowthFunction(fn=fn, descriptor=("sqrt_loglog",), regularly_varying=True)


def from_callable(fn, descriptor=("custom",), regularly_varying=False):
    """Wrap a user-supplied vectorized callable."""
    return GrowthFunction(
        fn=lambda t: np.asarray(fn(np.asarray(t, float)), float),
        descriptor=tuple(descriptor),
        regularly_varying=regularly_varying,
    )
