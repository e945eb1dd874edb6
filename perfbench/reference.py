"""Closed-form references the benchmark checks library results against.

Everything here is written from the model definitions, not from the
library's code paths, so a regression in the library shows up as a mismatch
instead of being reproduced by the reference.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import special

# Known defects of the library that the workloads exercise on purpose.  A
# query that may show one carries its id; a mismatch on such a query is
# counted in mismatch_ratio but does not make the run incorrect.  Every other
# mismatch does.
KNOWN_DEFECTS = {
    "a": "verify_bound_table(..., 'expected_exit') keeps the whole "
         "paths x horizon/dt grid in memory; mc-verify keeps horizons small "
         "and reports peak_rss_mb so a streaming fix shows as a gain",
    "b": "log_smooth at kappa ~ 0.6 reads 'flat' in Monte Carlo against the "
         "analytic 'zero': the Gaussian small-jump surrogate's cutoff is tied "
         "to dt instead of t, giving a slope of about kappa - 1/2",
    "c": "_levy_parts recomputes mean_jump_between by quad once per path "
         "(tracked as measures.mean_jump_between.calls)",
    "d": "classify_levy declines log_smooth below kappa ~ 0.55: check_A1 does "
         "not certify its small-jump balance (trunc2(r) / (r^2 G(r)) tends to 0 "
         "only like 1 / log^2(1/r)), and the A2 shortcut needs kappa >= 0.55; "
         "the true answer is 'zero' (finite jump mass).  levy-classify draws "
         "kappa from [0.3, 1.5] and so shows it",
}


def stable_norm(alpha):
    """c(alpha) with c |y|^{-1-alpha} dy having exponent |xi|^alpha."""
    alpha = np.asarray(alpha, float)
    return (2.0 ** (alpha - 1) * alpha * special.gamma((1 + alpha) / 2)
            / (math.sqrt(math.pi) * special.gamma(1 - alpha / 2)))


# -- jump tails G(r) = nu({|y| > r}) of the Levy models ----------------------

def tail_stable(alpha):
    c = float(stable_norm(alpha))
    return lambda r: 2.0 * c * r ** -alpha / alpha


def tail_raw_stable(alpha):
    return lambda r: 2.0 * r ** -alpha / alpha


def tail_one_sided(alpha):
    return lambda r: r ** -alpha / alpha


def tail_atom(r, radius=2.0, mass=1.0):
    return mass if r < radius else 0.0


def tail_log_smooth(r):
    return 2.0 * (1.0 - 1.0 / (1.0 + math.log(1.0 / r))) if r < 1.0 else 0.0


# -- state-dependent models: order alpha(x) and tail nu(z, {|y| > r}) ---------

def vo_order(z):
    return 1.5 - 0.4 * np.clip(np.asarray(z, float), -1.0, 1.0)


def vo_tail(z, r):
    a = vo_order(z)
    return 2.0 * stable_norm(a) * r ** -a / a


def stable_type_tail(alpha):
    c = float(stable_norm(alpha))
    return lambda z, r: (1.0 + 0.5 * np.sin(z)) * 2.0 * c * r ** -alpha / alpha


def sde_cauchy_tail(z, r):
    # driver tail 2 c(1) / r with c(1) = 1/pi, seen through r / |sigma(z)|
    return 2.0 * np.abs(1.0 + 0.5 * np.sin(z)) / (math.pi * r)


def ball_inf(tail, x, r, n=2001):
    """inf over z in [x - r, x + r] of tail(z, r), on a dense grid."""
    z = np.linspace(x - r, x + r, n)
    return float(np.min(tail(z, r)))


# -- checks: each returns None when the result matches, else a description ----

def check_outcome(result, expected):
    if result.outcome in expected:
        return None
    return f"outcome {result.outcome!r}, expected one of {sorted(expected)}"


def dichotomy(kappa, alpha):
    """Expected Levy verdict for f = t^kappa and activity index alpha."""
    return {"zero"} if kappa * alpha < 1.0 else {"infinity"}


def check_bg(beta, alpha, tol):
    if abs(beta - alpha) <= 2.0 * tol:
        return None
    return f"bg_index {beta:.4f}, expected {alpha:.4f} +- {2 * tol:.3f}"


def check_survival(bounds, t, g2r, rtol=1e-6):
    ref = 1.0 / (1.0 + t * g2r)
    if abs(bounds.survival_bound - ref) <= rtol * ref:
        return None
    return f"survival bound {bounds.survival_bound!r}, expected {ref!r}"


def check_trend(verdict, outcome, compatible):
    if verdict.label in compatible[outcome]:
        return None
    return f"trend {verdict.label!r} against analytic {outcome!r}"


def check_rows(rows):
    if not rows:
        return "no bound rows in the table's regime"
    bad = [r for r in rows if r.violated]
    if not bad:
        return None
    return f"{len(bad)} of {len(rows)} bound rows violated"


# -- digests of Monte Carlo results ------------------------------------------

def digest_stats(stats, verdict):
    h = hashlib.sha256(verdict.label.encode())
    for arr in (stats.q10, stats.median, stats.q90, stats.mean_log):
        h.update(np.ascontiguousarray(arr, float).tobytes())
    return h.hexdigest()


def digest_rows(rows):
    h = hashlib.sha256()
    for r in rows:
        h.update(np.array([r.t, r.r, r.empirical, r.ci, r.bound,
                           float(r.violated)]).tobytes())
    return h.hexdigest()
