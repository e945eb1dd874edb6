"""Command-line interface: flat key = value configs, CSV artifacts, and the
0/1/2 exit-code contract (0 definite verdict, 2 indeterminate, 1 error).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import growth as gr
from . import processes as pr
from .criteria import (
    BALL_RADIUS,
    C_LOWER,
    bg_index,
    check_A1,
    check_A2,
    classify_levy,
    classify_ltp_lower,
    classify_ltp_upper,
)
from .errors import BracketIndeterminate, LevyUpError, ParseError, ValidationError
from .limsup import EXAMPLE_NAMES, dyadic_limsup_stats, reproduce_example, trend_classify
from .simulate import SimConfig, _grid_to, simulate_batch, verify_bound_table
from .symbols import sector_check

COMMANDS = ("classify", "conditions", "bg-index", "bounds", "simulate",
            "limsup-study", "reproduce")

_PROCESS_KEYS = {"kind", "alpha", "radius", "mass", "x"}
_GROWTH_KEYS = {"form", "kappa", "c"}
_RUN_KEYS = {"paths", "seed", "depth", "dt", "out", "n_min", "n_max",
             "t_grid", "r_grid", "horizon", "example", "big_c", "svg",
             "mode", "c_lower", "tol"}

_DEF_RUN = {
    "paths": 1000, "seed": 0, "depth": 60, "dt": 1e-3, "out": "out",
    "n_min": 4, "n_max": 16, "t_grid": "0.01,0.05,0.1",
    "r_grid": "0.25,0.5,1.0", "horizon": 1.0, "example": "StableDichotomy",
    "big_c": 1.0, "svg": False, "mode": "auto", "c_lower": C_LOWER, "tol": 0.02,
}


@dataclass
class RunConfig:
    process: dict = field(default_factory=lambda: {"kind": "cauchy", "x": 0.0})
    growth: dict = field(default_factory=lambda: {"form": "power", "kappa": 0.8})
    run: dict = field(default_factory=lambda: dict(_DEF_RUN))


_SECTION_KEYS = {"process": _PROCESS_KEYS, "growth": _GROWTH_KEYS, "run": _RUN_KEYS}
_GROWTH_FORMS = ("power", "sqrt", "const", "sqrt_loglog")
_MODES = ("auto", "upper", "lower")  # classify's routes for a state-dependent process

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _coerce(key, raw):
    if key in ("kind", "form", "out", "t_grid", "r_grid", "example", "mode"):
        return raw
    if key == "svg":
        if raw.lower() not in _BOOL:
            raise ValidationError(f"key 'svg' must be a boolean, got {raw!r}")
        return _BOOL[raw.lower()]
    if key in ("paths", "seed", "depth", "n_min", "n_max"):
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(f"key {key!r} must be an integer, got {raw!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(f"key {key!r} must be numeric, got {raw!r}") from None


def parse_config(text):
    """Parse the flat ``[section]`` / ``key = value`` format into a RunConfig.

    Unknown sections or keys are rejected with the offending line; value
    ranges are validated and defaults filled in.
    """
    cfg = RunConfig()
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                raise ParseError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        if section is None:
            raise ParseError(f"line {lineno}: key outside any [section]")
        key, _, raw = line.partition("=")
        key, raw = key.strip().lower(), raw.strip()
        if key not in _SECTION_KEYS[section]:
            raise ParseError(f"line {lineno}: unknown key {key!r} in [{section}]")
        getattr(cfg, section)[key] = _coerce(key, raw)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    kind = cfg.process.get("kind", "cauchy")
    if kind not in pr.BUILTIN_PROCESSES:
        raise ValidationError(
            f"unknown process kind {kind!r}; choose from "
            f"{sorted(pr.BUILTIN_PROCESSES)}"
        )
    _, needed = pr.BUILTIN_PROCESSES[kind]
    if "alpha" in needed:
        alpha = cfg.process.get("alpha")
        if alpha is None:
            raise ValidationError(f"process kind {kind!r} requires alpha")
        if not 0 < alpha < 2:
            raise ValidationError("alpha must lie in (0,2)")
    if not np.isfinite(cfg.process.get("x", 0.0)):
        raise ValidationError("x must be finite")
    for key in ("radius", "mass"):  # NaN fails the range test
        if not 0 < cfg.process.get(key, 1.0) < np.inf:
            raise ValidationError(f"{key} must be positive and finite")

    form = cfg.growth.get("form", "power")
    if form not in _GROWTH_FORMS:
        raise ValidationError(f"unknown growth form {form!r}; choose from {_GROWTH_FORMS}")
    if form == "power" and cfg.growth.get("kappa", 0.8) < 0:
        raise ValidationError("kappa must be non-negative")
    if form == "const" and cfg.growth.get("c", 1.0) <= 0:
        raise ValidationError("const level c must be positive")

    run = {**_DEF_RUN, **cfg.run}
    if run["paths"] < 1:
        raise ValidationError("paths must be at least 1")
    if run["depth"] < 8:
        raise ValidationError("depth must be at least 8")
    if run["dt"] <= 0:
        raise ValidationError("dt must be positive")
    if not 0 <= run["n_min"] < run["n_max"] <= 20:
        raise ValidationError("need 0 <= n_min < n_max <= 20")
    if run["mode"] not in _MODES:
        raise ValidationError(f"unknown mode {run['mode']!r}; choose from {_MODES}")
    if run["example"] not in EXAMPLE_NAMES:
        raise ValidationError(f"unknown example {run['example']!r}")
    if not 0 < run["tol"] <= 0.1:
        raise ValidationError("tol must lie in (0, 0.1]")
    if not 0 <= run["c_lower"] <= 1:
        raise ValidationError("c_lower must lie in [0, 1]")
    if not 0 < run["horizon"] < np.inf:  # NaN fails too
        raise ValidationError("horizon must be positive and finite")
    for key in ("t_grid", "r_grid"):
        for v in _parse_grid(run[key]):
            if not 0 < v < np.inf:
                raise ValidationError(f"{key} entries must be positive and finite")
    cfg.run = run


def _parse_grid(text):
    try:
        return [float(v) for v in str(text).split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"bad grid {text!r}; expected comma-separated floats") from None


def serialize_config(cfg: RunConfig):
    """Inverse of parse_config; parse(serialize(c)) == c."""
    lines = []
    for section in ("process", "growth", "run"):
        data = getattr(cfg, section)
        if not data:
            continue
        lines.append(f"[{section}]")
        for key in sorted(data):
            lines.append(f"{key} = {data[key]}")
        lines.append("")
    return "\n".join(lines)


def build_process(cfg: RunConfig):
    kind = cfg.process.get("kind", "cauchy")
    factory, needed = pr.BUILTIN_PROCESSES[kind]
    kwargs = {k: cfg.process[k] for k in needed if k in cfg.process}
    return factory(**kwargs)


def build_growth(cfg: RunConfig):
    form = cfg.growth.get("form", "power")
    if form == "power":
        return gr.power(cfg.growth.get("kappa", 0.8))
    if form == "sqrt":
        return gr.sqrt_t()
    if form == "const":
        return gr.constant(cfg.growth.get("c", 1.0))
    return gr.sqrt_loglog()


def _sim_config(cfg: RunConfig):
    return SimConfig(dt=cfg.run["dt"], n_paths=cfg.run["paths"],
                     seed=cfg.run["seed"])


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")


def _outcome_text(result):
    if result.outcome == "zero":
        return "Zero"
    if result.outcome == "infinity":
        return "Infinity"
    if result.outcome == "lower_bound":
        return f"LowerBound({result.c_over_5:g})"
    return f"Indeterminate ({result.reason})" if result.reason else "Indeterminate"


# evidence key -> (criterion label, c_or_eps); a dict of verdicts is keyed by c
_CRITERION_ROWS = {"tail_integrals": ("L1", None), "fixed_ball_tail": ("L1_fixed_ball", None),
                   "symbol_integral": ("L2", 1.0), "moment_integral": ("moment", ""),
                   "inf_tail_integral": ("inf_tail", ""), "inf_symbol_integral": ("inf_L2", 1.0)}


def _classify_rows(result):
    rows = []
    for key, (label, param) in _CRITERION_ROWS.items():
        v = result.evidence.get(key, {})
        pairs = v.items() if isinstance(v, dict) else [(param, v)]
        rows += [(label, c, w.state, w.value, w.n_max + 1) for c, w in pairs]
    return rows


def _svg_line(path: Path, xs, ys, title):
    """Minimal single-series SVG line chart."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    ok = np.isfinite(ys) & (ys > 0)
    xs, ys = xs[ok], np.log10(ys[ok])
    w, h, pad = 480, 320, 44
    if xs.size < 2:
        return
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    y0, y1 = (y0 - 0.5, y1 + 0.5) if y0 == y1 else (y0, y1)
    px = pad + (xs - x0) / (x1 - x0) * (w - 2 * pad)
    py = h - pad - (ys - y0) / (y1 - y0) * (h - 2 * pad)
    pts = " ".join(f"{a:.1f},{b:.1f}" for a, b in zip(px, py))
    body = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<text x="{w/2}" y="18" text-anchor="middle" font-size="13">{title}</text>'
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
        f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>'
        f'<text x="{w/2}" y="{h-8}" text-anchor="middle" font-size="11">level n</text>'
        f'<text x="12" y="{h/2}" font-size="11" transform="rotate(-90 12 {h/2})">'
        f"log10 median</text></svg>"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body + "\n")


def run_command(cmd, cfg: RunConfig, quiet=False):
    """Dispatch one command; returns the exit code and writes artifacts."""
    out = Path(cfg.run["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_used.cfg").write_text(serialize_config(cfg))
    say = (lambda *_: None) if quiet else print

    if cmd == "classify":
        spec = build_process(cfg)
        f = build_growth(cfg)
        depth = cfg.run["depth"]
        x = cfg.process.get("x", 0.0)
        if spec.kind == "levy":
            result = classify_levy(spec, f, n_max=depth)
        else:
            mode = cfg.run["mode"]
            if mode in ("auto", "upper"):
                result = classify_ltp_upper(spec, x, f, n_max=depth)
                if mode == "auto" and not result.definite:
                    lower = classify_ltp_lower(spec, x, f, C=cfg.run["big_c"],
                                               n_max=depth)
                    if lower.definite:
                        result = lower
            else:  # "lower"
                result = classify_ltp_lower(spec, x, f, C=cfg.run["big_c"],
                                            n_max=depth)
        _write_csv(out / "classify.csv",
                   ("criterion", "c_or_eps", "verdict", "value", "n_levels"),
                   _classify_rows(result))
        say(_outcome_text(result))
        return 0 if result.definite else 2

    if cmd == "conditions":
        spec = build_process(cfg)
        f = build_growth(cfg)
        x = cfg.process.get("x", 0.0)
        rows = []
        sec = sector_check(spec, x_ball=(x, BALL_RADIUS))
        rows.append(("sector", sec.verdict, sec.witness, sec.reason))
        a1 = check_A1(spec, x=x, ball_radius=BALL_RADIUS)
        rows.append(("A1", a1.verdict, a1.witness, a1.reason))
        try:
            a2 = check_A2(f)
            rows.append(("A2", a2.verdict, a2.witness,
                         "shortcut" if a2.shortcut else a2.reason))
        except LevyUpError as exc:
            rows.append(("A2", "fails", "", str(exc)))
        _write_csv(out / "conditions.csv",
                   ("condition", "verdict", "witness", "note"), rows)
        for name, verdict, witness, _ in rows:
            say(f"{name}: {verdict} (witness {witness})")
        return 0 if all(r[1] != "indeterminate" for r in rows) else 2

    if cmd == "bg-index":
        spec = build_process(cfg)
        if spec.kind != "levy":
            raise ValidationError("bg-index needs a Levy process")
        try:
            beta = bg_index(spec.levy.measure, tol=cfg.run["tol"],
                            n_max=cfg.run["depth"])
        except BracketIndeterminate as exc:
            say(f"Indeterminate ({exc})")
            return 2
        _write_csv(out / "bg_index.csv", ("beta", "tol"),
                   [(beta, cfg.run["tol"])])
        say(f"beta = {beta:.4f}")
        return 0

    if cmd == "bounds":
        spec = build_process(cfg)
        x = cfg.process.get("x", 0.0)
        sim = _sim_config(cfg)
        grid = [(t, r) for t in _parse_grid(cfg.run["t_grid"])
                for r in _parse_grid(cfg.run["r_grid"])]
        header = ("t", "r", "empirical", "ci", "bound", "violated")
        names = {"exit_survival": "bounds.csv",
                 "expected_exit": "bounds_expected_exit.csv",
                 "lower_max": "bounds_lower_max.csv"}
        n_rows = n_viol = 0
        for kind, fname in names.items():
            rows = verify_bound_table(spec, x, kind, grid, sim,
                                      c_lower=cfg.run["c_lower"])
            _write_csv(out / fname, header,
                       [(r.t, r.r, r.empirical, r.ci, r.bound, r.violated)
                        for r in rows])
            n_rows += len(rows)
            n_viol += sum(bool(r.violated) for r in rows)
        say(f"{n_rows} rows, {n_viol} violations")
        return 0

    if cmd == "simulate":
        spec = build_process(cfg)
        x = cfg.process.get("x", 0.0)
        sim = replace(_sim_config(cfg), n_paths=min(cfg.run["paths"], 64))
        times = _grid_to(cfg.run["horizon"], sim.dt)
        # each path draws from its own Philox stream, so one batch writes the
        # rows that one single-path run (n_paths=1, path_offset=p) per path would
        values, runmax = simulate_batch(spec, x, times, sim)
        rows = [(p, float(t), float(v), float(rm))
                for p in range(sim.n_paths)
                for t, v, rm in zip(times, values[p], runmax[p])]
        _write_csv(out / "paths.csv", ("path", "t", "value", "runmax"), rows)
        say(f"wrote {out / 'paths.csv'}")
        return 0

    if cmd == "limsup-study":
        spec = build_process(cfg)
        f = build_growth(cfg)
        x = cfg.process.get("x", 0.0)
        stats = dyadic_limsup_stats(spec, x, f, cfg.run["n_min"],
                                    cfg.run["n_max"], _sim_config(cfg))
        verdict = trend_classify(stats)
        _write_csv(out / "limsup.csv", ("n", "t_n", "q10", "median", "q90"),
                   stats.rows())
        if cfg.run["svg"]:
            _svg_line(out / "limsup.svg", stats.levels, stats.median,
                      "median of the normalized running maximum")
        say(f"{verdict.label} (slope {verdict.slope:.3f}, ratio {verdict.ratio:.3g})")
        return 0 if verdict.label != "noisy" else 2

    if cmd == "reproduce":
        rep = reproduce_example(cfg.run["example"], n_paths=cfg.run["paths"],
                                n_min=cfg.run["n_min"], n_max=cfg.run["n_max"],
                                seed=cfg.run["seed"])
        _write_csv(out / "reproduce.csv",
                   ("example", "case", "analytic", "empirical", "agree"),
                   rep.rows())
        say(f"{rep.name}: agree={rep.agree}")
        definite = all(c.definite for c in rep.analytic.values())
        return 0 if (rep.agree and definite) else 2

    raise ValidationError(f"unknown command {cmd!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="levyup",
        description="Small-time growth analysis for Levy and Levy-type processes",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, help="path to a config file")
    parser.add_argument("--out", type=Path, help="output directory override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--paths", type=int, help="path-count override")
    parser.add_argument("--depth", type=int, help="dyadic depth override")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    cfg = None
    try:
        text = args.config.read_text() if args.config else ""
        cfg = parse_config(text)
        for key, val in (("out", args.out), ("seed", args.seed),
                         ("paths", args.paths), ("depth", args.depth)):
            if val is not None:
                cfg.run[key] = str(val) if key == "out" else val
        _validate(cfg)
        return run_command(args.command, cfg, quiet=args.quiet)
    except (LevyUpError, ValueError, NotImplementedError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        # the effective output directory once the config parses
        out_dir = Path(cfg.run["out"] if cfg else args.out or "out")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "error.json").write_text(json.dumps(record, indent=2) + "\n")
        except OSError:
            pass
        print(f"error: {record['error']}: {record['message']}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
