"""levyup benchmark: one closed-loop client driving the library in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the library is imported from ./src.  The
workload is built from the seed (set-up), then whole cycles of queries run
one after another until at least S seconds have passed.  Every result is
checked against its closed-form reference (see reference.py).  The last line
of stdout is one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run, followed by an untraced
replay of the same queries that gives the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 2   # extra set-up samples, each in a fresh interpreter
RECHECK = 3        # Monte Carlo queries re-run to compare digests

# The host is shared, and its speed drifts by up to about 1.9x within a
# minute (a 2-vCPU Xeon VM at 2.1 GHz), which moves every wall-clock timing
# with it.  A fixed piece of interpreter and NumPy work that does not use
# levyup is timed every CAL_EVERY_S between operations, and timings are
# reported at reference speed: scaled by CAL_REF_S over the calibration time
# measured around them.  The wall-clock figures are printed beside them.
CAL_REF_S = 0.008
CAL_EVERY_S = 0.25
CAL_WINDOW = 4

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics of the whole traced run, beside the library layers':
# name -> (unit, better)
RUN_LAYER = {
    "trace.overhead_ratio": ("ratio", "lower"),
    "simulate.path_steps_per_s": ("1/s", "higher"),
}


def import_library():
    """Import levyup from this checkout's src/ (never from elsewhere)."""
    if not os.path.isfile(os.path.join(SRC, "levyup", "__init__.py")):
        raise SystemExit(f"error: no levyup package under {SRC}")
    sys.path.insert(0, SRC)
    import levyup

    if not os.path.abspath(levyup.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: levyup imported from {levyup.__file__}, not {SRC}")
    return levyup


def set_up(name, seed, scale=1.0, tracer_factory=None):
    """Import the library and build the workload; returns (workload, tracer,
    seconds).  With a tracer the builds run traced."""
    t0 = time.perf_counter()
    lv = import_library()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"error: --workload must be one of {', '.join(WORKLOADS)}")
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
    workload = WORKLOADS[name](lv, seed, scale)
    workload.build()
    return workload, tracer, time.perf_counter() - t0


def setup_probe(name, seed):
    """Extra set-up samples, each in a fresh interpreter: (wall seconds,
    slowdown measured right after it) pairs."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        wall, slow = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(wall), float(slow)))
    return out


def calibrate():
    """Wall time of the fixed calibration work."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    x = np.linspace(0.1, 1.0, 64)
    for i in range(600):
        acc += float(np.sum(np.exp(-x * (i % 7 + 1))))
    rng = np.random.default_rng(0)
    for _ in range(20):
        np.maximum.accumulate(np.abs(np.cumsum(rng.standard_normal(4096))))
    return time.perf_counter() - t0


def slowdown(samples=5):
    """Machine speed now, as calibration time over CAL_REF_S."""
    return statistics.median(calibrate() for _ in range(samples)) / CAL_REF_S


def percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile: a beta-weighted mean of
    all order statistics.  A workload's latencies fall in clusters (query
    kinds), and a single order statistic next to a cluster edge jumps
    between runs; this estimate moves smoothly."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(values, prob=[p / 100.0])[0])


class Outcome:
    """Tallies of one timed phase."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.mismatches = []    # (label, detail, defect id or None)
        self.digests = {}       # id(query) -> digest of Monte Carlo queries
        self.queries = []       # every query run, in order
        self.cycle_sizes = []
        self.calibrations = []  # calibration times taken between operations
        self.cal_index = []     # calibrations taken before each operation
        self.differing = 0      # Monte Carlo digests that did not repeat
        self.path_steps = 0
        self.wall = 0.0
        self.peak_rss_mb = 0.0  # read before the benchmark's own statistics

    @property
    def attempted(self):
        return len(self.latencies)

    def unexplained(self):
        return [m for m in self.mismatches if m[2] is None]


def run_query(query, outcome):
    t0 = time.perf_counter()
    try:
        result = query.call()
    except Exception as exc:  # a failing query is counted, the run goes on
        outcome.latencies.append(time.perf_counter() - t0)
        outcome.failed += 1
        outcome.errors.append(f"{query.label}: {type(exc).__name__}: {exc}")
        return
    outcome.latencies.append(time.perf_counter() - t0)
    detail = query.check(result)
    if detail is not None:
        outcome.mismatches.append((query.label, detail, query.defect))
    if query.digest is not None:
        outcome.digests[id(query)] = query.digest(result)
        outcome.path_steps += query.path_steps(result)


def timed_phase(workload, seconds, tracer=None):
    """Run whole cycles until ``seconds`` have passed, timing the
    calibration work between operations every CAL_EVERY_S."""
    outcome = Outcome()
    t_start = time.perf_counter()
    t_cal = t_start - CAL_EVERY_S
    for cycle in workload.stream():
        for query in cycle:
            if time.perf_counter() - t_cal >= CAL_EVERY_S:
                outcome.calibrations.append(calibrate())
                t_cal = time.perf_counter()
            if tracer is not None:
                tracer.op = outcome.attempted
            outcome.cal_index.append(len(outcome.calibrations))
            run_query(query, outcome)
        outcome.queries += cycle
        outcome.cycle_sizes.append(len(cycle))
        if time.perf_counter() - t_start >= seconds:
            break
    outcome.wall = time.perf_counter() - t_start
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcome


def rerun(queries, outcome):
    """Run the queries again; returns the wall time.  The same seed must
    reproduce the digest of every Monte Carlo query, and a differing digest
    counts as a failed operation."""
    differing = []
    t0 = time.perf_counter()
    for query in queries:
        try:
            result = query.call()
        except Exception as exc:  # counted like a differing digest
            result = exc
        if id(query) in outcome.digests:
            again = result if isinstance(result, Exception) else query.digest(result)
            if again != outcome.digests[id(query)]:
                differing.append(query.label)
    wall = time.perf_counter() - t0
    outcome.failed += len(differing)
    outcome.differing += len(differing)
    outcome.errors += [f"{label}: digest differs on re-run" for label in differing]
    return wall


def cycle_rates(latencies, sizes):
    """Operations per second of the time spent in each cycle's operations."""
    rates, end = [], 0
    for n in sizes:
        rates.append(n / sum(latencies[end:end + n]))
        end += n
    return rates


def at_reference_speed(outcome):
    """Operation latencies scaled to reference speed by the median of the
    CAL_WINDOW calibrations taken before each operation and as many after."""
    cal = outcome.calibrations
    return [x * CAL_REF_S / statistics.median(cal[max(k - CAL_WINDOW, 0):k + CAL_WINDOW])
            for x, k in zip(outcome.latencies, outcome.cal_index)]


def end_to_end(outcome, setup_samples, tail_pct):
    """End-to-end values at reference speed, and notes with the wall-clock
    figures.  ``setup_samples`` are (wall seconds, slowdown) pairs."""
    lat_ms = [1000.0 * x for x in at_reference_speed(outcome)]
    wall_ms = [1000.0 * x for x in outcome.latencies]
    tail = percentile(lat_ms, tail_pct)
    setup = [wall / s for wall, s in setup_samples]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(cycle_rates(lat_ms, outcome.cycle_sizes)) * 1000.0,
        "latency_p50_ms": percentile(lat_ms, 50.0),
        "latency_tail_ms": tail,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    beyond = sum(1 for x in lat_ms if x > tail)
    wall_rate = statistics.median(cycle_rates(wall_ms, outcome.cycle_sizes)) * 1000.0
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup) + "; wall "
                   + ", ".join(f"{wall:.4f}" for wall, _ in setup_samples),
        "ops_per_s": f"median over {len(outcome.cycle_sizes)} cycles; wall {wall_rate:.6g}, "
                     f"{outcome.attempted / outcome.wall:.6g} over the whole phase",
        "latency_p50_ms": f"wall {percentile(wall_ms, 50.0):.6g}",
        "latency_tail_ms": f"p{tail_pct:g} of {len(lat_ms)} operations, {beyond} beyond it; "
                           f"wall {percentile(wall_ms, tail_pct):.6g}",
    }
    slow = statistics.median(outcome.calibrations) / CAL_REF_S
    return values, notes, slow


def metric_lines(metrics, notes=None):
    notes = notes or {}
    return [f"{k:<34} {v['value']:.6g} {v['unit']}"
            + (f"  ({notes[k]})" if k in notes else "") for k, v in metrics.items()]


def report(name, seed, outcome, lines):
    n = outcome.attempted
    known = len(outcome.mismatches) - len(outcome.unexplained())
    print(f"workload {name}  seed {seed}  operations {n}  wall {outcome.wall:.2f} s")
    for line in lines:
        print("  " + line)
    print(f"  {'fail_ratio':<34} {outcome.failed / n:.6g} ({outcome.failed}/{n})")
    print(f"  {'mismatch_ratio':<34} {len(outcome.mismatches) / n:.6g} "
          f"({len(outcome.mismatches)}/{n}, {known} from known defects)")
    for label, detail, defect in outcome.mismatches:
        tag = f"known defect {defect}" if defect else "UNEXPLAINED"
        print(f"    mismatch [{tag}] {label}: {detail}")
    from reference import KNOWN_DEFECTS

    for defect in sorted({d for _, _, d in outcome.mismatches if d}):
        print(f"    known defect {defect}: {KNOWN_DEFECTS[defect]}")
    for err in outcome.errors:
        print(f"    failure {err}")


def result_line(outcome, metrics):
    correct = not outcome.unexplained() and not outcome.differing
    return json.dumps({"correct": bool(correct), "attempted": outcome.attempted,
                       "failed": outcome.failed, "metrics": metrics})


def run_untraced(name, seed, seconds, scale=1.0, probes=True):
    workload, _, setup_main = set_up(name, seed, scale)
    setup_samples = [(setup_main, slowdown())] + (setup_probe(name, seed) if probes else [])
    outcome = timed_phase(workload, seconds)
    rerun([q for q in outcome.queries if q.digest is not None][:RECHECK], outcome)
    values, notes, slow = end_to_end(outcome, setup_samples, workload.tail_percentile)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    lines = [f"{'machine slowdown':<34} {slow:.4g} (calibration median "
             f"{1000 * slow * CAL_REF_S:.3f} ms over {len(outcome.calibrations)} samples, "
             f"reference {1000 * CAL_REF_S:g} ms)"]
    lines += metric_lines(metrics, notes)
    if outcome.path_steps:
        rate = outcome.path_steps / sum(outcome.latencies)
        lines.append(f"{'path_steps_per_s':<34} {rate * slow:.6g} 1/s  (wall {rate:.6g})")
    return outcome, metrics, lines


def run_traced(name, seed, seconds, scale=1.0):
    from tracing import MODULES, Tracer, per_layer_metrics

    def factory():
        return Tracer({m: sys.modules[m] for m in MODULES})

    workload, tracer, _ = set_up(name, seed, scale, factory)
    tracer.add_measures(measures_of(workload.specs))
    tracer.end_setup()
    outcome = timed_phase(workload, seconds, tracer)
    tracer.uninstall()
    # the untraced replay of the same queries gives the overhead, and the
    # digest of every Monte Carlo query must repeat; both phases are compared
    # at reference speed
    slow_before = slowdown()
    untraced_wall = rerun(outcome.queries, outcome)
    untraced = untraced_wall / statistics.mean([slow_before, slowdown()])
    traced = sum(at_reference_speed(outcome))

    metrics = per_layer_metrics(tracer, outcome.attempted)
    values = {"trace.overhead_ratio": traced / untraced - 1.0,
              "simulate.path_steps_per_s": outcome.path_steps / untraced_wall}
    metrics |= {k: {"value": v, "unit": RUN_LAYER[k][0]} for k, v in values.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{name}.npz")
    tracer.save(span_file)
    lines = metric_lines(metrics, {
        "trace.overhead_ratio": f"at reference speed: traced {traced:.3f} s, "
                                f"untraced replay {untraced:.3f} s"})
    lines.append(f"spans written to {os.path.relpath(span_file, ROOT)}")
    return outcome, metrics, lines


def measures_of(specs):
    """The jump-measure instances behind the workload's processes."""
    triplets = [spec.levy if spec.kind == "levy" else spec.driver for spec in specs]
    return [t.measure for t in triplets if t is not None]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny run of every workload that checks the benchmark itself")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)

    if args.self_test:
        import selftest

        return selftest.main()

    # workloads is imported inside set_up: it pulls in NumPy and SciPy, whose
    # import time belongs to set-up
    if args.workload is None:
        ap.error("--workload is required")

    if args.setup_probe:
        *_, seconds = set_up(args.workload, args.seed)
        print(repr(seconds), repr(slowdown()))
        return 0

    run = run_traced if args.trace else run_untraced
    outcome, metrics, lines = run(args.workload, args.seed, args.seconds)
    report(args.workload, args.seed, outcome, lines)
    print(result_line(outcome, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
