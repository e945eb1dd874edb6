"""The benchmark workloads: seeded query streams that carry their expected answers.

A workload builds its processes once (set-up), then yields cycles: a fixed
design of query kinds and base parameters, in a fixed order, that the seed
jitters.  The fixed design keeps the mix of cheap and expensive queries, and
so the cost of a cycle, the same in every run, so figures compare across
seeds and commits; the jitter keeps every (process, f, x) tuple distinct, so
a result cache cannot help.

Library functions are looked up on their module at call time, so the traced
run sees the same calls through its wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]   # None when the result matches
    digest: Callable[[object], str] | None = None     # Monte Carlo only
    path_steps: Callable[[object], int] | None = None  # Monte Carlo only
    defect: str | None = None   # id in reference.KNOWN_DEFECTS whose mismatch it may show


class Workload:
    name = ""
    # latency_tail_ms percentile: the highest of 99/95/90/75 that leaves at
    # least ten operations beyond it in a 30 s run when the benchmark was
    # set; kept fixed so that runs of different length report the same one
    tail_percentile = 90.0

    def __init__(self, lv, seed, scale=1.0):
        self.lv = lv
        self.scale = scale  # < 1 shrinks Monte Carlo path counts (self-test)
        self.rng = np.random.default_rng([int(seed), WORKLOAD_IDS[self.name]])
        self.specs = []

    def u(self, lo, hi):
        return float(self.rng.uniform(lo, hi))

    def near(self, base, spread):
        """base jittered by a uniform draw in [-spread, spread]."""
        return base + self.u(-spread, spread)

    def make(self, builder, *args):
        """Resolve one process handle through the public builders, as a
        per-request resolver would; lru-cached builders serve repeats."""
        spec = getattr(self.lv.processes, builder)(*args)
        self.specs.append(spec)
        return spec

    def build(self):
        raise NotImplementedError

    def cycle(self):
        raise NotImplementedError

    def stream(self):
        while True:
            yield self.cycle()


# ---------------------------------------------------------------------------
# levy-classify
# ---------------------------------------------------------------------------


class LevyClassify(Workload):
    name = "levy-classify"
    tail_percentile = 99.0

    # builder, base index, closed-form tail factory
    STABLE = (
        ("stable_process", 0.7, ref.tail_stable),
        ("stable_process", 1.2, ref.tail_stable),
        ("stable_process", 1.7, ref.tail_stable),
        ("raw_stable_process", 0.9, ref.tail_raw_stable),
        ("raw_stable_process", 1.5, ref.tail_raw_stable),
        ("one_sided_stable_process", 0.6, ref.tail_one_sided),
        ("one_sided_stable_process", 1.4, ref.tail_one_sided),
    )
    POWER = (1, 4, 6)   # STABLE entries also asked through classify_power
    BG = (2, 3, 5)      # ... through bg_index
    EXIT = (0, 4, 5)    # ... through exit_bounds
    # kappa * alpha on each side of the dichotomy, 0.2 to 0.4 away from 1
    PRODUCTS = (0.7, 1.3)

    def build(self):
        self.alphas = [self.near(a, 0.03) for _, a, _ in self.STABLE]
        self.stable = [self.make(b, a) for (b, _, _), a in zip(self.STABLE, self.alphas)]
        self.tails = [t(a) for (_, _, t), a in zip(self.STABLE, self.alphas)]
        self.atom = {k: self.make("atom_process") for k in ("classify", "exit")}
        self.log_smooth = {k: self.make("log_smooth_process")
                           for k in ("classify", "bg", "exit")}
        self.slow = {k: self.make("slow_variation_process")
                     for k in ("sqrt_t", "sqrt_loglog")}
        self.drift = self.make("drift_half_stable_process")

    def classify(self, spec, kappa, expected, label, defect=None):
        lv = self.lv
        f = lv.power(kappa)
        return Query(f"classify_levy {label} t^{kappa:.4f}",
                     lambda: lv.classify_levy(spec, f),
                     lambda res: ref.check_outcome(res, expected), defect=defect)

    def classify_scaled(self, spec, base, scale, expected, label):
        lv = self.lv
        f = lv.growth.from_callable(lambda t: scale * base(t),
                                    descriptor=("scaled", scale),
                                    regularly_varying=True)
        return Query(f"classify_levy {label} x{scale:.4f}",
                     lambda: lv.classify_levy(spec, f),
                     lambda res: ref.check_outcome(res, expected))

    def power_query(self, spec, kappa, expected, label):
        lv = self.lv
        return Query(f"classify_power {label} kappa={kappa:.4f}",
                     lambda: lv.classify_power(spec, kappa),
                     lambda res: ref.check_outcome(res, expected))

    def bg(self, measure, alpha, label):
        lv = self.lv
        tol = self.near(0.02, 0.003)
        return Query(f"bg_index {label} tol={tol:.4f}",
                     lambda: lv.bg_index(measure, tol),
                     lambda beta: ref.check_bg(beta, alpha, tol))

    def exit(self, spec, tail, label):
        lv = self.lv
        x, t, r = self.u(-1.0, 1.0), self.u(0.02, 0.2), self.u(0.05, 0.45)
        g2r = tail(2.0 * r)
        return Query(f"exit_bounds {label} x={x:.3f} t={t:.4f} r={r:.4f}",
                     lambda: lv.exit_bounds(spec, x, t, r),
                     lambda res: ref.check_survival(res, t, g2r))

    def cycle(self):
        qs = []
        for spec, a in zip(self.stable, self.alphas):
            for prod in self.PRODUCTS:
                k = self.near(prod, 0.1) / a
                qs.append(self.classify(spec, k, ref.dichotomy(k, a), spec.name))
        for i in self.POWER:
            spec, a = self.stable[i], self.alphas[i]
            for prod in self.PRODUCTS:
                k = self.near(prod, 0.1) / a
                qs.append(self.power_query(spec, k, ref.dichotomy(k, a), spec.name))
        for i in self.BG:
            spec = self.stable[i]
            qs.append(self.bg(spec.levy.measure, self.alphas[i], spec.name))
        qs.append(self.bg(self.log_smooth["bg"].levy.measure, 0.0, "log_smooth"))
        for i in self.EXIT:
            qs.append(self.exit(self.stable[i], self.tails[i], self.stable[i].name))
        qs.append(self.exit(self.atom["exit"], ref.tail_atom, "atom"))
        qs.append(self.exit(self.log_smooth["exit"], ref.tail_log_smooth, "log_smooth"))
        # activity index 0 (finite jump mass): every power is an upper
        # function.  For log_smooth below kappa ~ 0.55 the classifier declines
        # instead (known defect d), and the workload keeps those queries
        qs.append(self.classify(self.atom["classify"], self.u(0.3, 1.5), {"zero"}, "atom"))
        qs.append(self.classify(self.log_smooth["classify"], self.u(0.3, 1.5), {"zero"},
                                "log_smooth", defect="d"))
        # neither side condition holds for slow_variation, so the classifier
        # must decline both at the sqrt(t) boundary and for sqrt(t loglog 1/t)
        qs.append(self.classify_scaled(self.slow["sqrt_t"], self.lv.sqrt_t(),
                                       self.near(1.0, 0.05), {"indeterminate"},
                                       "slow_variation sqrt_t"))
        qs.append(self.classify_scaled(self.slow["sqrt_loglog"], self.lv.sqrt_loglog(),
                                       self.near(1.0, 0.05), {"indeterminate"},
                                       "slow_variation sqrt_loglog"))
        # the sector condition fails
        qs.append(self.classify(self.drift, self.u(0.3, 1.5), {"indeterminate"},
                                "drift_half_stable"))
        return qs


# ---------------------------------------------------------------------------
# ltp-classify
# ---------------------------------------------------------------------------


class LtpClassify(Workload):
    name = "ltp-classify"
    tail_percentile = 75.0

    # start points: each model asks its four (direction, side) pairs at four
    # different x, shifted per model, the same in every cycle
    X_BASE = (-0.5, -0.15, 0.2, 0.55)
    # kappa * alpha(x) on each side of the dichotomy, about 0.2 away from 1
    PRODUCTS = (0.8, 1.2)

    def build(self):
        st_alpha = self.near(1.5, 0.03)
        # (spec, order at x, closed-form tail nu(z, {|y| > r}))
        self.models = [
            (self.make("variable_order_process"), ref.vo_order, ref.vo_tail),
            (self.make("stable_type_process", st_alpha),
             lambda x: st_alpha, ref.stable_type_tail(st_alpha)),
            (self.make("sde_process"), lambda x: 1.0, ref.sde_cauchy_tail),
        ]
        self.n_cycles = 0

    def cycle(self):
        lv = self.lv
        qs = []
        for m, (spec, order, _) in enumerate(self.models):
            for j, (prod_base, direction) in enumerate(
                    (p, d) for p in self.PRODUCTS for d in ("upper", "lower")):
                x = self.near(self.X_BASE[(j + m) % len(self.X_BASE)], 0.05)
                a = float(order(x))
                prod = self.near(prod_base, 0.03)
                k = prod / a
                f = lv.power(k)
                if direction == "upper":
                    # the sup-ball route certifies only upper functions:
                    # above the dichotomy it must decline
                    expected = {"zero"} if prod < 1 else {"indeterminate"}
                    call = (lambda s=spec, x=x, f=f: lv.classify_ltp_upper(s, x, f))
                else:
                    expected = {"infinity"} if prod > 1 else {"lower_bound",
                                                              "indeterminate"}
                    call = (lambda s=spec, x=x, f=f: lv.classify_ltp_lower(s, x, f))
                qs.append(Query(
                    f"classify_ltp_{direction} {spec.name} x={x:.3f} t^{k:.4f}",
                    call, lambda res, e=expected: ref.check_outcome(res, e)))
        spec, _, tail = self.models[self.n_cycles % len(self.models)]
        self.n_cycles += 1
        x, t, r = self.u(-0.6, 0.9), self.u(0.02, 0.2), self.u(0.02, 0.1)
        g2r = ref.ball_inf(tail, x, 2.0 * r)
        qs.append(Query(f"exit_bounds {spec.name} x={x:.3f} t={t:.4f} r={r:.4f}",
                        lambda: lv.exit_bounds(spec, x, t, r),
                        lambda res: ref.check_survival(res, t, g2r)))
        return qs


# ---------------------------------------------------------------------------
# mc-verify
# ---------------------------------------------------------------------------

DT = 1e-3
LIMSUP_PATHS = 300
TABLE_PATHS = 1000
EXPECTED_EXIT_PATHS = 400


def _steps(horizon, dt=DT):
    return max(int(math.ceil(horizon / dt)), 1)


def run_label(cfg):
    return f"paths={cfg.n_paths} seed={cfg.seed}"


class McVerify(Workload):
    name = "mc-verify"
    tail_percentile = 90.0

    def build(self):
        self.a_stable = self.near(1.5, 0.03)
        self.a_os = self.near(1.4, 0.03)
        self.a_st = self.near(1.2, 0.03)
        self.stable = self.make("stable_process", self.a_stable)
        self.raw1 = self.make("raw_stable_process", 1.0)
        # expected_exit sizes the largest arrays of the run; fixed index and
        # radii keep peak_rss_mb from following the seed
        self.raw = self.make("raw_stable_process", 1.5)
        self.one_sided = self.make("one_sided_stable_process", self.a_os)
        self.log_smooth = self.make("log_smooth_process")
        self.atom = self.make("atom_process")
        self.sde = self.make("sde_process")
        self.vo = self.make("variable_order_process")
        self.st = self.make("stable_type_process", self.a_st)
        self.n_grid = len(self.lv.limsup.dyadic_time_grid(4, 16)) - 1

    def config(self, n_paths):
        return self.lv.SimConfig(dt=DT, n_paths=max(int(n_paths * self.scale), 20),
                                 seed=int(self.rng.integers(2**32)))

    def limsup(self, spec, x, kappa, alpha, defect=None):
        lv = self.lv
        f = lv.power(kappa)
        cfg = self.config(LIMSUP_PATHS)
        outcome = "zero" if kappa * alpha < 1 else "infinity"

        def call():
            stats = lv.dyadic_limsup_stats(spec, x, f, 4, 16, cfg)
            return stats, lv.trend_classify(stats)

        return Query(
            f"limsup {spec.name} x={x:.3f} t^{kappa:.4f} {run_label(cfg)}",
            call,
            lambda res: ref.check_trend(res[1], outcome, lv.limsup._COMPATIBLE),
            digest=lambda res: ref.digest_stats(*res),
            path_steps=lambda res, n=cfg.n_paths: n * self.n_grid,
            defect=defect)

    def table(self, spec, kind, x=0.0):
        lv = self.lv
        ts = [self.near(t, 0.02 * t) for t in (0.02, 0.05, 0.1)]
        rs = [self.near(r, 0.02 * r) for r in (0.25, 0.5, 1.0)]
        grid = [(t, r) for t in ts for r in rs]
        cfg = self.config(TABLE_PATHS)
        steps = cfg.n_paths * _steps(max(ts))
        return Query(
            f"{kind} {spec.name} x={x:.3f} {run_label(cfg)}",
            lambda: lv.verify_bound_table(spec, x, kind, grid, cfg),
            ref.check_rows, digest=ref.digest_rows,
            path_steps=lambda rows: steps)

    def expected_exit(self):
        # horizon 8 / G(2r) on a dt grid, kept to sizes that fit in memory
        # (known defect a: the whole paths x horizon/dt grid is stored); the
        # seed of the paths still differs in every call
        lv = self.lv
        grid = [(0.0, 0.25), (0.0, 0.5)]
        cfg = self.config(EXPECTED_EXIT_PATHS)
        return Query(
            f"expected_exit {self.raw.name} {run_label(cfg)}",
            lambda: lv.verify_bound_table(self.raw, 0.0, "expected_exit", grid, cfg),
            ref.check_rows, digest=ref.digest_rows,
            path_steps=lambda rows: cfg.n_paths * sum(_steps(r.t) for r in rows))

    def cycle(self):
        x_vo = self.near(0.3, 0.05)
        a_vo = float(ref.vo_order(x_vo))
        return [
            self.limsup(self.stable, 0.0, self.near(1 / self.a_stable - 0.3, 0.02),
                        self.a_stable),
            self.table(self.one_sided, "exit_survival"),
            self.limsup(self.vo, x_vo, self.near(1 / a_vo - 0.25, 0.02), a_vo),
            self.table(self.raw1, "exit_survival"),
            # kappa 0.6 on log_smooth reads 'flat' (known defect b)
            self.limsup(self.log_smooth, 0.0, self.near(0.6, 0.02), 0.0, defect="b"),
            self.table(self.vo, "lower_max", self.near(0.0, 0.3)),
            self.limsup(self.sde, self.near(0.0, 0.3), self.near(1.3, 0.03), 1.0),
            self.table(self.sde, "exit_survival", self.near(0.0, 0.3)),
            self.expected_exit(),
            self.table(self.raw1, "lower_max"),
            self.limsup(self.st, self.near(0.0, 0.3), self.near(1 / self.a_st + 0.25, 0.02),
                        self.a_st),
            self.table(self.atom, "exit_survival"),
            self.limsup(self.one_sided, 0.0, self.near(1 / self.a_os - 0.27, 0.02),
                        self.a_os),
            self.table(self.log_smooth, "exit_survival"),
            self.table(self.st, "lower_max", self.near(0.0, 0.3)),
        ]


WORKLOADS = {w.name: w for w in (LevyClassify, LtpClassify, McVerify)}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
