"""Self-test of the benchmark: a tiny run of every workload that checks the
benchmark itself, so a broken benchmark fails fast.

    python3 perfbench/run.py --self-test

It runs one cycle of each workload with Monte Carlo path counts cut to 5 %,
then checks that

- BENCHMARK.json names the workloads and metrics the code reports, with the
  same units;
- the closed-form references reproduce values known by hand;
- every check rejects a corrupted copy of the result it accepted, so the
  reference gate can fail;
- Monte Carlo digests repeat on a re-run and change with the seed;
- the result line has the contract's keys and a positive value for every
  end-to-end metric, and the traced run reports every per-layer metric.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import reference as ref
import run
from tracing import PER_LAYER
from workloads import WORKLOADS

SCALE = 0.05


def expect(ok, what, failures):
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_manifest(failures):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    expect([w["name"] for w in manifest["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match the code", failures)
    expect({m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end-to-end metrics match the code", failures)
    per_layer = {name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()}
    expect({m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
           == per_layer | run.RUN_LAYER,
           "BENCHMARK.json per-layer metrics match the code", failures)


def check_references(failures):
    expect(math.isclose(float(ref.stable_norm(1.0)), 1.0 / math.pi),
           "stable_norm(1) = 1/pi (Cauchy)", failures)
    expect(math.isclose(ref.tail_raw_stable(1.0)(1.0), 2.0),
           "raw stable tail G(1) = 2 at alpha 1", failures)
    bounds = type("B", (), {"survival_bound": 1.0 / 1.2})()
    expect(ref.check_survival(bounds, 0.1, ref.tail_raw_stable(1.0)(1.0)) is None,
           "survival bound 1/(1 + 0.1 G(1)) = 0.8333 accepted", failures)
    expect(ref.dichotomy(0.9, 1.2) == {"infinity"} and ref.dichotomy(0.5, 1.2) == {"zero"},
           "power dichotomy at kappa * alpha = 1", failures)


def corrupt(result):
    """A copy of a library result that no correct check may accept."""
    if isinstance(result, float):                           # bg_index
        return result + 1.0
    if isinstance(result, list):                            # bound rows
        return [dataclasses.replace(result[0], violated=True)] + result[1:]
    if isinstance(result, tuple):                           # (stats, trend)
        stats, verdict = result
        return stats, dataclasses.replace(verdict, label="corrupted")
    if hasattr(result, "survival_bound"):                   # exit bounds
        return dataclasses.replace(result, survival_bound=2.0 * result.survival_bound + 1.0)
    return dataclasses.replace(result, outcome="corrupted")  # classification


def check_gate(workload, failures):
    """The check of one query of each kind rejects a corrupted copy of the
    result it accepted."""
    escaped = []
    kinds = {q.label.split()[0]: q for q in reversed(next(workload.stream()))}
    for query in kinds.values():
        result = query.call()
        if query.check(result) is None and query.check(corrupt(result)) is None:
            escaped.append(query.label)
    expect(not escaped, f"{workload.name}: gate rejects corrupted results "
           f"{'(escaped: ' + '; '.join(escaped) + ')' if escaped else ''}", failures)


def check_digests(name, outcome, failures):
    mc = [q for q in outcome.queries if q.digest is not None]
    if not mc:
        return
    run.rerun(mc, outcome)
    expect(outcome.differing == 0, f"{name}: {len(mc)} Monte Carlo digests repeat", failures)
    other = WORKLOADS[name](run.import_library(), 2, SCALE)
    other.build()
    first = next(q for q in next(other.stream()) if q.digest is not None)
    expect(first.digest(first.call()) != outcome.digests[id(mc[0])],
           f"{name}: digest changes with the seed", failures)


def check_result_line(name, line, names, failures, positive):
    doc = json.loads(line)
    keys_ok = set(doc) == {"correct", "attempted", "failed", "metrics"}
    names_ok = set(doc["metrics"]) == set(names)
    values_ok = all(isinstance(m["value"], float) and math.isfinite(m["value"])
                    and (m["value"] > 0 or not positive) for m in doc["metrics"].values())
    expect(keys_ok and names_ok and values_ok and doc["correct"] and doc["attempted"] >= 1,
           f"{name}: result line {'end-to-end' if positive else 'per-layer'} "
           f"keys, names and values", failures)


def main():
    failures = []
    print("benchmark self-test")
    check_manifest(failures)
    check_references(failures)
    per_layer_names = set(PER_LAYER) | set(run.RUN_LAYER)
    for name in WORKLOADS:
        outcome, metrics, lines = run.run_untraced(name, 1, 0.0, SCALE, probes=False)
        run.report(name, 1, outcome, lines)
        check_result_line(name, run.result_line(outcome, metrics), run.END_TO_END,
                          failures, positive=True)
        expect(not outcome.failed and not outcome.unexplained(),
               f"{name}: no failures, no unexplained mismatches", failures)
        workload, _, _ = run.set_up(name, 3, SCALE)
        check_gate(workload, failures)
        check_digests(name, outcome, failures)
        outcome, metrics, _ = run.run_traced(name, 1, 0.0, SCALE)
        check_result_line(name, run.result_line(outcome, metrics), per_layer_names,
                          failures, positive=False)
    print("self-test " + ("ok" if not failures else f"FAILED: {len(failures)} checks"))
    return 0 if not failures else 1
