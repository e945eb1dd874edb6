"""Outside-in tracing of the levyup layers for the benchmark's traced run.

Each public function is wrapped at every name its callers resolve: the
module globals of every levyup module that holds it (so the aliases that
criteria, simulate and limsup import are covered), methods on their class
(ProcessSpec.q, GrowthFunction.__call__ / inverse, LevyMeasureModel jump
sampling), and the tail/trunc2 callables on the workload's own measure
instances.  A wrapper records a span (name, start, end, parent, operation)
in flat arrays kept in memory, and keeps per-name call counts, inclusive
time of the outermost spans and self time (duration minus the time its child
spans cover).  The spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("levyup", "levyup.measures", "levyup.growth", "levyup.symbols",
           "levyup.processes", "levyup.criteria", "levyup.simulate",
           "levyup.limsup")

# span name -> (module, attribute) of the function to wrap everywhere
FUNCTIONS = {
    "symbols.symbol_extremum": ("levyup.symbols", "symbol_extremum"),
    "symbols.sector_check": ("levyup.symbols", "sector_check"),
    "symbols.eval_exponent": ("levyup.symbols", "eval_exponent"),
    "criteria.dyadic_integral": ("levyup.criteria", "dyadic_integral"),
    "criteria.tail_integral": ("levyup.criteria", "tail_integral_criterion"),
    "criteria.symbol_integral": ("levyup.criteria", "symbol_integral_criterion"),
    "criteria.check_A1": ("levyup.criteria", "check_A1"),
    "criteria.check_A2": ("levyup.criteria", "check_A2"),
    "criteria.check_C1": ("levyup.criteria", "check_C1"),
    "criteria.bg_index": ("levyup.criteria", "bg_index"),
    "criteria.classify_levy": ("levyup.criteria", "classify_levy"),
    "criteria.classify_power": ("levyup.criteria", "classify_power"),
    "criteria.classify_ltp_upper": ("levyup.criteria", "classify_ltp_upper"),
    "criteria.classify_ltp_lower": ("levyup.criteria", "classify_ltp_lower"),
    "criteria.exit_bounds": ("levyup.criteria", "exit_bounds"),
    "simulate.simulate_batch": ("levyup.simulate", "simulate_batch"),
    "simulate.path_rng": ("levyup.simulate", "path_rng"),
    "simulate.verify_bound_table": ("levyup.simulate", "verify_bound_table"),
    "limsup.dyadic_limsup_stats": ("levyup.limsup", "dyadic_limsup_stats"),
    "limsup.trend_classify": ("levyup.limsup", "trend_classify"),
}

METHODS = {
    "symbols.q": ("levyup.symbols", "ProcessSpec", "q"),
    "growth.call": ("levyup.growth", "GrowthFunction", "__call__"),
    "growth.inverse": ("levyup.growth", "GrowthFunction", "inverse"),
    "measures.sample_jumps": ("levyup.measures", "LevyMeasureModel", "sample_jumps"),
    "measures.mean_jump_between": ("levyup.measures", "LevyMeasureModel",
                                   "mean_jump_between"),
}

BUILDERS = ("stable_process", "cauchy_process", "raw_stable_process",
            "one_sided_stable_process", "drift_half_stable_process",
            "atom_process", "slow_variation_process", "log_smooth_process",
            "levy_process_from_measure", "zero_process",
            "variable_order_process", "stable_type_process", "sde_process")

CLASSIFIERS = ("criteria.classify_levy", "criteria.classify_ltp_upper")


def _arg(sig, name):
    """Extractor of one argument (defaults applied) from a call's args."""
    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return get


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # name -> imported module object
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(float)
        self.setup_total = {}
        self.stack = []
        self.op = -1
        self._undo = []
        self._cache_fns = []

    def calls(self, name):
        return self.stats[name][0]

    def total(self, name):
        """Inclusive time of the outermost spans of this name."""
        return self.stats[name][1]

    def self_time(self, name):
        return self.stats[name][2]

    def wrap(self, name, fn, on_exit=None, children=False):
        """Return fn wrapped in a span.  on_exit(args, kwargs, result,
        children) may add to self.counts; with children=True it receives the
        direct child span counts by name."""
        nid = len(self.names)
        self.names.append(name)
        stack = self.stack
        depth = [0]
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_op, add_start = self.span_op.append, self.span_start.append
        add_end, ends = self.span_end.append, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(ends), 0.0, {} if children else None]
            add_name(nid)
            add_parent(stack[-1][0] if stack else -1)
            add_op(self.op)
            add_end(0.0)
            stack.append(frame)
            depth[0] += 1
            t0 = perf_counter()
            add_start(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[0] -= 1
                dur = t1 - t0
                ends[frame[0]] = t1
                st = self.stats[name]
                st[0] += 1
                st[2] += dur - frame[1]
                if depth[0] == 0:
                    st[1] += dur
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if parent[2] is not None:
                        parent[2][name] = parent[2].get(name, 0) + 1
            if on_exit is not None:
                on_exit(args, kwargs, result, frame[2])
            return result

        return traced

    def _replace_everywhere(self, original, wrapped):
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def _count(self, key, fn):
        def on_exit(args, kwargs, result, children):
            self.counts[key] += fn(args, kwargs, result, children)
        return on_exit

    def install(self, measures=()):
        """Wrap the library; ``measures`` are the workload's measure instances."""
        m = self.modules
        hooks = {
            "symbols.q": self._count(
                "symbols.q.points",
                lambda a, k, r, c: int(np.shape(a[2])[0]) if np.ndim(a[2]) else 1),
            "measures.sample_jumps": self._count(
                "measures.sample_jumps.jumps", lambda a, k, r, c: int(a[1])),
            "simulate.verify_bound_table": self._count(
                "simulate.bound_rows", lambda a, k, r, c: len(r)),
            "criteria.bg_index": self._count(
                "criteria.bg_index.dyadic_calls",
                lambda a, k, r, c: c.get("criteria.dyadic_integral", 0)),
        }
        dyadic = m["levyup.criteria"].dyadic_integral
        sig = inspect.signature(dyadic)
        n_max, nodes = _arg(sig, "n_max"), _arg(sig, "nodes")
        hooks["criteria.dyadic_integral"] = self._count(
            "criteria.integrand_points",
            lambda a, k, r, c: (n_max(a, k) + 1) * nodes(a, k))
        batch_sig = inspect.signature(m["levyup.simulate"].simulate_batch)
        times, config = _arg(batch_sig, "times"), _arg(batch_sig, "config")
        hooks["simulate.simulate_batch"] = self._count(
            "simulate.path_steps",
            lambda a, k, r, c: config(a, k).n_paths * (len(times(a, k)) - 1))
        for name in CLASSIFIERS:
            hooks[name] = self._scan_hook()

        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(m[mod], attr)
            wants = name in CLASSIFIERS or name == "criteria.bg_index"
            self._replace_everywhere(
                original, self.wrap(name, original, hooks.get(name), children=wants))
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(m[mod], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))
            self._undo.append((cls, attr, original))
        procs = m["levyup.processes"]
        for attr in BUILDERS:
            original = getattr(procs, attr)
            if hasattr(original, "cache_info"):
                self._cache_fns.append(original)
            self._replace_everywhere(original, self.wrap("processes.build", original))
        self.add_measures(measures)

    def add_measures(self, measures):
        seen = set()
        for measure in measures:
            if id(measure) in seen:
                continue
            seen.add(id(measure))
            for attr in ("tail", "trunc2"):
                original = getattr(measure, attr)
                hook = self._count(f"measures.{attr}.points",
                                   lambda a, k, r, c: int(np.size(a[0])))
                setattr(measure, attr, self.wrap(f"measures.{attr}", original, hook))
                self._undo.append((measure, attr, original))

    def _scan_hook(self):
        """c-scan usefulness: of the tail integrals one classification
        computes, one decides a definite outcome; none decides otherwise."""
        def on_exit(args, kwargs, result, children):
            n = children.get("criteria.tail_integral", 0)
            if n:
                self.counts["criteria.tail_integrals"] += n
                if result.outcome in ("zero", "infinity"):
                    self.counts["criteria.tail_integrals_decisive"] += 1
        return on_exit

    def end_setup(self):
        """Keep set-up time per span name aside and restart the aggregates,
        so per-operation metrics count the timed phase only."""
        self.setup_total = {name: st[1] for name, st in self.stats.items()}
        self.stats.clear()
        self.counts.clear()

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def cache_hit_ratio(self):
        hits = misses = 0
        for fn in self._cache_fns:
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        return hits / (hits + misses) if hits + misses else 0.0

    def n_spans(self):
        return len(self.span_start)

    def save(self, path):
        """Write the spans as one .npz of parallel arrays plus the name table."""
        np.savez(path, name=np.frombuffer(self.span_name, np.uint16),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 op=np.frombuffer(self.span_op, np.int32),
                 start=np.frombuffer(self.span_start, np.float64),
                 end=np.frombuffer(self.span_end, np.float64),
                 names=np.array(self.names))


# per-layer metrics: name -> (unit, better, value(tracer, n_ops)); timed-phase
# ones per operation, so runs of different length compare; set-up ones in s
def _per_op(fn):
    return lambda tr, n: fn(tr) / n


PER_LAYER = {
    "symbols.q.calls": ("count/op", "lower", _per_op(lambda t: t.calls("symbols.q"))),
    "symbols.q.points": ("count/op", "lower", _per_op(lambda t: t.counts["symbols.q.points"])),
    "symbols.q.s": ("s/op", "lower", _per_op(lambda t: t.total("symbols.q"))),
    "symbols.symbol_extremum.calls": ("count/op", "lower",
                                      _per_op(lambda t: t.calls("symbols.symbol_extremum"))),
    "symbols.symbol_extremum.s": ("s/op", "lower",
                                  _per_op(lambda t: t.total("symbols.symbol_extremum"))),
    "symbols.sector_check.s": ("s/op", "lower",
                               _per_op(lambda t: t.total("symbols.sector_check"))),
    "symbols.eval_exponent.s": ("s", "lower",
                                lambda t, n: t.setup_total.get("symbols.eval_exponent", 0.0)),
    "criteria.dyadic_integral.calls": ("count/op", "lower",
                                       _per_op(lambda t: t.calls("criteria.dyadic_integral"))),
    "criteria.dyadic_integral.self_s": ("s/op", "lower",
                                        _per_op(lambda t: t.self_time("criteria.dyadic_integral"))),
    "criteria.integrand_points": ("count/op", "lower",
                                  _per_op(lambda t: t.counts["criteria.integrand_points"])),
    "criteria.tail_integral.s": ("s/op", "lower",
                                 _per_op(lambda t: t.total("criteria.tail_integral"))),
    "criteria.symbol_integral.s": ("s/op", "lower",
                                   _per_op(lambda t: t.total("criteria.symbol_integral"))),
    "criteria.check_A1.s": ("s/op", "lower", _per_op(lambda t: t.total("criteria.check_A1"))),
    "criteria.check_A2.s": ("s/op", "lower", _per_op(lambda t: t.total("criteria.check_A2"))),
    "criteria.check_C1.s": ("s/op", "lower", _per_op(lambda t: t.total("criteria.check_C1"))),
    "criteria.bg_index.dyadic_calls": ("count/op", "lower",
                                       _per_op(lambda t: t.counts["criteria.bg_index.dyadic_calls"])),
    "criteria.c_scan_useful_ratio": (
        "ratio", "higher",
        lambda t, n: (t.counts["criteria.tail_integrals_decisive"]
                      / t.counts["criteria.tail_integrals"])
        if t.counts["criteria.tail_integrals"] else 0.0),
    "measures.tail.calls": ("count/op", "lower", _per_op(lambda t: t.calls("measures.tail"))),
    "measures.tail.points": ("count/op", "lower",
                             _per_op(lambda t: t.counts["measures.tail.points"])),
    "measures.tail.s": ("s/op", "lower", _per_op(lambda t: t.total("measures.tail"))),
    "measures.trunc2.s": ("s/op", "lower", _per_op(lambda t: t.total("measures.trunc2"))),
    "measures.sample_jumps.jumps": ("count/op", "lower",
                                    _per_op(lambda t: t.counts["measures.sample_jumps.jumps"])),
    "measures.sample_jumps.s": ("s/op", "lower",
                                _per_op(lambda t: t.total("measures.sample_jumps"))),
    "measures.mean_jump_between.calls": ("count/op", "lower",
                                         _per_op(lambda t: t.calls("measures.mean_jump_between"))),
    "measures.mean_jump_between.s": ("s/op", "lower",
                                     _per_op(lambda t: t.total("measures.mean_jump_between"))),
    "growth.call.calls": ("count/op", "lower", _per_op(lambda t: t.calls("growth.call"))),
    "growth.inverse.calls": ("count/op", "lower", _per_op(lambda t: t.calls("growth.inverse"))),
    "growth.inverse.s": ("s/op", "lower", _per_op(lambda t: t.total("growth.inverse"))),
    "processes.build_s": ("s", "lower",
                          lambda t, n: t.setup_total.get("processes.build", 0.0)),
    "processes.cache_hit_ratio": ("ratio", "higher", lambda t, n: t.cache_hit_ratio()),
    "simulate.simulate_batch.calls": ("count/op", "lower",
                                      _per_op(lambda t: t.calls("simulate.simulate_batch"))),
    "simulate.simulate_batch.s": ("s/op", "lower",
                                  _per_op(lambda t: t.total("simulate.simulate_batch"))),
    "simulate.path_steps": ("count/op", "higher",
                            _per_op(lambda t: t.counts["simulate.path_steps"])),
    "simulate.path_rng.calls": ("count/op", "lower",
                                _per_op(lambda t: t.calls("simulate.path_rng"))),
    "simulate.path_rng.s": ("s/op", "lower", _per_op(lambda t: t.total("simulate.path_rng"))),
    "simulate.verify_bound_table.s": ("s/op", "lower",
                                      _per_op(lambda t: t.total("simulate.verify_bound_table"))),
    "simulate.bound_rows": ("count/op", "higher",
                            _per_op(lambda t: t.counts["simulate.bound_rows"])),
    "limsup.dyadic_limsup_stats.self_s": (
        "s/op", "lower", _per_op(lambda t: t.self_time("limsup.dyadic_limsup_stats"))),
    "limsup.trend_classify.s": ("s/op", "lower",
                                _per_op(lambda t: t.total("limsup.trend_classify"))),
    "trace.spans": ("count/op", "lower", _per_op(lambda t: t.n_spans())),
}


def per_layer_metrics(tracer, n_ops):
    return {name: {"value": float(fn(tracer, max(n_ops, 1))), "unit": unit}
            for name, (unit, _, fn) in PER_LAYER.items()}
