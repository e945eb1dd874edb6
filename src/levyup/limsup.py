"""Empirical small-time growth studies on dyadic grids.

The observable is M_n = sup_{s <= 2^{-n}} |X_s - x| / f(2^{-n}).  A limsup is
not observable in finite simulation; the surrogate is the trend of the median
of M_n across levels: geometric decay, geometric growth, a flat band, or too
noisy to call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import processes as pr
from .criteria import Classification, classify_levy, classify_ltp_upper, classify_power
from .growth import power
from .simulate import SimConfig, _paths_at
from .symbols import ProcessSpec

SLOPE_THRESHOLD = 0.05   # per level, in log2 of the median
RATIO_THRESHOLD = 4.0    # total end-to-start median ratio
NOISE_DECADES = 3.0      # q90/q10 span at the last level that voids a verdict
POINTS_PER_LEVEL = 256   # grid resolution inside each dyadic block


@dataclass
class DyadicStats:
    levels: np.ndarray        # n = n_min..n_max
    t_values: np.ndarray      # 2^{-n}
    q10: np.ndarray
    median: np.ndarray
    q90: np.ndarray
    mean_log: np.ndarray      # mean of log M_n (paths with M_n > 0)
    n_paths: int = 0

    def rows(self):
        return [
            (int(n), float(t), float(a), float(b), float(c))
            for n, t, a, b, c in zip(self.levels, self.t_values, self.q10,
                                     self.median, self.q90)
        ]


@dataclass
class TrendVerdict:
    label: str   # "tends_zero" | "grows" | "flat" | "noisy"
    slope: float
    ratio: float


def dyadic_time_grid(n_min, n_max):
    """Refined grid on [0, 2^{-n_min}]: each dyadic block gets ``POINTS_PER_LEVEL``
    uniform steps, plus an equally fine bottom block below 2^{-(n_max+1)}."""
    pieces = [np.array([0.0]),
              np.linspace(0.0, 2.0 ** -(n_max + 1), POINTS_PER_LEVEL + 1)[1:]]
    for n in range(n_max, n_min - 1, -1):
        lo, hi = 2.0 ** -(n + 1), 2.0**-n
        pieces.append(np.linspace(lo, hi, POINTS_PER_LEVEL + 1)[1:])
    return np.concatenate(pieces)


def dyadic_limsup_stats(spec: ProcessSpec, x, f, n_min=4, n_max=16,
                        config: SimConfig | None = None):
    """Quantiles of M_n over simulated paths for n = n_min..n_max; ``f`` is
    a GrowthFunction."""
    if n_min < 0:
        raise ValueError("n_min must be non-negative: t = 2^{-n} must lie in f's domain (0, 1]")
    if n_max > 20:
        raise ValueError("n_max above 20 is not supported (grid would be huge)")
    if n_max - n_min < 2:
        raise ValueError("need at least three levels")
    config = config or SimConfig(n_paths=500, seed=0)
    times = dyadic_time_grid(n_min, n_max)
    levels = np.arange(n_min, n_max + 1)
    t_vals = 2.0 ** -levels.astype(float)
    m = _paths_at(spec, x, times, t_vals, config)[1] / np.asarray(f(t_vals), float)
    q10, med, q90 = np.quantile(m, [0.10, 0.50, 0.90], axis=0)
    mean_log = np.array([
        np.log(col[col > 0]).mean() if np.any(col > 0) else -np.inf
        for col in m.T
    ])
    return DyadicStats(levels=levels, t_values=t_vals, q10=q10, median=med,
                       q90=q90, mean_log=mean_log, n_paths=config.n_paths)


def trend_classify(stats: DyadicStats):
    """Label the level-trend of the median of M_n.

    Least-squares slope of log2(median) against n over the last two thirds of
    the levels; geometric separation thresholds as module constants.  The
    verdict is noisy when the q10..q90 band spans more than three decades at
    the deepest level.
    """
    if len(stats.levels) < 6:
        raise ValueError("need at least six levels to classify a trend")
    med = np.asarray(stats.median, float)
    if np.all(med == 0.0):
        return TrendVerdict("tends_zero", -np.inf, 0.0)
    with np.errstate(divide="ignore"):
        band = stats.q90[-1] / np.where(stats.q10[-1] > 0, stats.q10[-1], np.nan)
    if not np.isfinite(band) or band > 10.0**NOISE_DECADES:
        return TrendVerdict("noisy", np.nan,
                            float(med[-1] / med[0]) if med[0] > 0 else np.nan)
    start = len(med) // 3
    n_fit = stats.levels[start:]
    m_fit = np.maximum(med[start:], 1e-300)
    slope = float(np.polyfit(n_fit, np.log2(m_fit), 1)[0])
    ratio = float(med[-1] / med[0]) if med[0] > 0 else np.inf
    if slope < -SLOPE_THRESHOLD and ratio < 1.0 / RATIO_THRESHOLD:
        return TrendVerdict("tends_zero", slope, ratio)
    if slope > SLOPE_THRESHOLD and ratio > RATIO_THRESHOLD:
        return TrendVerdict("grows", slope, ratio)
    return TrendVerdict("flat", slope, ratio)


# ---------------------------------------------------------------------------
# worked examples: analytic + empirical, with an agreement flag
# ---------------------------------------------------------------------------


@dataclass
class ExampleReport:
    name: str
    analytic: dict            # label -> Classification
    empirical: dict           # label -> TrendVerdict
    stats: dict = field(default_factory=dict)
    agree: bool = True

    def rows(self):
        out = []
        for key in self.analytic:
            emp = self.empirical.get(key)
            out.append((self.name, key, self.analytic[key].outcome,
                        emp.label if emp else "", self.agree))
        return out


_COMPATIBLE = {
    "zero": {"tends_zero"},
    "infinity": {"grows"},
    "lower_bound": {"grows", "flat"},
    "indeterminate": {"flat", "noisy", "tends_zero", "grows"},
}


def _agrees(analytic: Classification, trend: TrendVerdict):
    return trend.label in _COMPATIBLE[analytic.outcome]


# looked up at call time, so a patched or traced classifier is the one that runs
_CLASSIFIERS = {
    "levy": lambda spec, f: classify_levy(spec, f),
    "upper": lambda spec, f: classify_ltp_upper(spec, 0.0, f),
    "power": lambda spec, f: classify_power(spec, f.descriptor[1]),
}

# name -> rows (key, classifier, process builder, kappa of f = t^kappa, whether
# the row also runs a dyadic simulation study); a row's classification and
# study are both keyed by its key
_EXAMPLES = {
    "StableDichotomy": (("kappa=0.8", "levy", pr.cauchy_process, 0.8, True),
                        ("kappa=1.25", "levy", pr.cauchy_process, 1.25, True)),
    "SlowVariation": (("sqrt", "levy", pr.slow_variation_process, 0.5, True),),
    # the medians separate like 2^{-n(1/order - kappa)} per level, so the
    # empirical study needs a wide exponent gap; the narrow-gap exponent is
    # still classified analytically
    "VariableOrder": (("kappa=0.6", "upper", pr.variable_order_process, 0.6, False),
                      ("kappa=0.45", "upper", pr.variable_order_process, 0.45, True)),
    "StableType": (("pinned", "upper", lambda: pr.stable_type_process(1.5),
                    1.0 / 1.5 - 0.05, False),
                   ("kappa=0.45", "upper", lambda: pr.stable_type_process(1.5), 0.45,
                    True)),
    "SdeCauchy": (("sde", "upper", pr.sde_process, 0.8, True),
                  ("driver", "levy", pr.cauchy_process, 0.8, True)),
    "SqrtTLaw": (("power=1/2", "power", pr.cauchy_process, 0.5, True),),
}
EXAMPLE_NAMES = tuple(_EXAMPLES)


def reproduce_example(name, n_paths=500, n_min=4, n_max=16, seed=0):
    """Run one named study end to end: the analytic classification and the
    matching dyadic simulation, with a flag recording whether they agree."""
    if name not in _EXAMPLES:
        raise ValueError(f"unknown example {name!r}")
    config = SimConfig(n_paths=n_paths, seed=seed)
    analytic, empirical, stats = {}, {}, {}
    for key, classifier, build, kappa, simulated in _EXAMPLES[name]:
        spec, f = build(), power(kappa)
        analytic[key] = _CLASSIFIERS[classifier](spec, f)
        if simulated:
            stats[key] = dyadic_limsup_stats(spec, 0.0, f, n_min, n_max, config)
            empirical[key] = trend_classify(stats[key])
    agree = all(
        _agrees(analytic[k], empirical[k]) for k in analytic if k in empirical
    )
    return ExampleReport(name=name, analytic=analytic, empirical=empirical,
                         stats=stats, agree=agree)
