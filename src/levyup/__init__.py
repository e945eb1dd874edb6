"""Upper-function analysis for Levy and Levy-type processes.

The package decides whether a candidate growth function f dominates the
small-time paths of a process (the normalized running maximum tends to 0) or
not (it blows up, or stays above a computable constant), using integral
criteria on the jump measure and the symbol, and verifies the supporting
exit-time inequalities by Monte Carlo.
"""

from .criteria import (
    Classification,
    ExitBounds,
    IntegralVerdict,
    bg_index,
    check_A1,
    check_A2,
    classify_levy,
    classify_ltp_lower,
    classify_ltp_upper,
    classify_power,
    dyadic_integral,
    exit_bounds,
    symbol_integral_criterion,
    tail_integral_criterion,
)
from .growth import GrowthFunction, constant, power, sqrt_loglog, sqrt_t
from .limsup import (
    DyadicStats,
    TrendVerdict,
    dyadic_limsup_stats,
    reproduce_example,
    trend_classify,
)
from .measures import LevyMeasureModel
from .simulate import (
    McEstimate,
    SimConfig,
    verify_bound_table,
)
from .symbols import (
    ConditionReport,
    LevyTriplet,
    ProcessSpec,
    StateFamily,
    eval_exponent,
    sector_check,
    symbol_extremum,
)

from . import processes

__all__ = [
    "Classification", "ConditionReport", "DyadicStats",
    "ExitBounds", "GrowthFunction", "IntegralVerdict", "LevyMeasureModel",
    "LevyTriplet", "McEstimate", "ProcessSpec", "SimConfig",
    "StateFamily", "TrendVerdict", "bg_index", "check_A1", "check_A2",
    "classify_levy", "classify_ltp_lower", "classify_ltp_upper",
    "classify_power", "constant", "dyadic_integral",
    "dyadic_limsup_stats", "eval_exponent", "exit_bounds", "power",
    "processes", "reproduce_example", "sector_check", "sqrt_loglog",
    "sqrt_t", "symbol_extremum", "symbol_integral_criterion",
    "tail_integral_criterion", "trend_classify", "verify_bound_table",
]
