import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyup
from levyup import growth as gr
from levyup import processes as pr
from levyup.cli import (
    RunConfig,
    _classify_rows,
    build_growth,
    build_process,
    main,
    parse_config,
    run_command,
    serialize_config,
)
from levyup.criteria import IntegralVerdict, classify_ltp_upper
from levyup.errors import ParseError, ValidationError
from levyup.simulate import SimConfig, _grid_to, simulate_batch

MINIMAL = """
[process]
kind = stable
alpha = 1.0

[growth]
form = power
kappa = 0.8
"""


# ru_maxrss ceilings of `levyup bounds` on variable_order and of `levyup
# limsup-study`, each with the default run keys; the .github workflow checks
# the same figures
BOUNDS_RSS_CEILING_MB = 400
LIMSUP_RSS_CEILING_MB = 85

# runs the CLI in a child of its own, prints the child's ru_maxrss (in KB on
# Linux) on the last line, so no other process of the test session counts
# towards it, and exits with the child's status
_MAXRSS_OF_CHILD = (
    "import resource, subprocess, sys; "
    "child = subprocess.run([sys.executable, '-m', 'levyup.cli', *sys.argv[1:]],"
    " capture_output=True, text=True); "
    "sys.stdout.write(child.stdout); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss); "
    "sys.exit(child.returncode)")


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestParsing:
    def test_minimal_happy_path(self):
        cfg = parse_config(MINIMAL)
        assert cfg.process["kind"] == "stable"
        assert cfg.process["alpha"] == 1.0
        assert cfg.growth == {"form": "power", "kappa": 0.8}
        assert cfg.run["paths"] == 1000  # defaults filled

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError, match="alpha must lie in"):
            parse_config("[process]\nkind = stable\nalpha = 2.5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key 'gamma'"):
            parse_config("[process]\ngamma = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_config("[nonsense]\nx = 1\n")

    def test_key_outside_section(self):
        with pytest.raises(ParseError, match="outside any"):
            parse_config("kind = stable\n")

    def test_bad_line(self):
        with pytest.raises(ParseError, match="expected 'key = value'"):
            parse_config("[process]\nkind stable\n")

    def test_unknown_process_kind(self):
        with pytest.raises(ValidationError, match="unknown process kind"):
            parse_config("[process]\nkind = brownian\n")

    def test_unknown_growth_form(self):
        with pytest.raises(ValidationError, match="unknown growth form"):
            parse_config("[growth]\nform = cubic\n")

    def test_numeric_validation(self):
        with pytest.raises(ValidationError, match="must be an integer"):
            parse_config("[run]\npaths = many\n")
        with pytest.raises(ValidationError, match="depth"):
            parse_config("[run]\ndepth = 4\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# top comment\n\n[growth]\nform = sqrt  # inline\n")
        assert cfg.growth["form"] == "sqrt"

    def test_round_trip(self):
        cfg = parse_config(MINIMAL)
        again = parse_config(serialize_config(cfg))
        assert cfg == again

    def test_round_trip_with_run_overrides(self):
        cfg = parse_config(MINIMAL + "\n[run]\npaths = 77\nsvg = true\n")
        again = parse_config(serialize_config(cfg))
        assert cfg == again
        assert again.run["paths"] == 77 and again.run["svg"] is True


class TestBuilders:
    def test_build_process_and_growth(self):
        cfg = parse_config(MINIMAL)
        spec = build_process(cfg)
        assert spec.kind == "levy" and spec.stable_family == (1.0, 1.0)
        f = build_growth(cfg)
        assert float(f(0.25)) == pytest.approx(0.25**0.8)

    def test_default_config_is_valid(self):
        cfg = parse_config("")
        assert cfg == RunConfig() or cfg.run["paths"] == 1000


class TestCommands:
    def _cfg(self, tmp_path, body):
        cfg = parse_config(body)
        cfg.run["out"] = str(tmp_path / "out")
        return cfg

    def test_classify_zero_exit_0(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, MINIMAL)
        code = run_command("classify", cfg)
        assert code == 0
        assert capsys.readouterr().out.strip() == "Zero"
        rows = read_csv(tmp_path / "out" / "classify.csv")
        assert rows[0] == ["criterion", "c_or_eps", "verdict", "value", "n_levels"]
        assert (tmp_path / "out" / "config_used.cfg").exists()

    def test_classify_indeterminate_exit_2(self, tmp_path, capsys):
        body = "[process]\nkind = slow_variation\n\n[growth]\nform = sqrt\n"
        cfg = self._cfg(tmp_path, body)
        code = run_command("classify", cfg)
        assert code == 2
        out = capsys.readouterr().out
        assert "Indeterminate" in out and "A1 and A2" in out

    def test_classify_ltp(self, tmp_path, capsys):
        body = ("[process]\nkind = variable_order\n\n"
                "[growth]\nform = power\nkappa = 0.6\n")
        cfg = self._cfg(tmp_path, body)
        assert run_command("classify", cfg) == 0
        assert capsys.readouterr().out.strip() == "Zero"

    def test_classify_rows_cover_every_integral_verdict(self, tmp_path):
        # the lower route's inf-ball symbol integral and the majorization
        # route's fixed-ball scan are evidence too
        body = ("[process]\nkind = variable_order\n\n"
                "[growth]\nform = sqrt\n\n[run]\nmode = lower\n")
        cfg = self._cfg(tmp_path, body)
        assert run_command("classify", cfg, quiet=True) == 2
        rows = read_csv(tmp_path / "out" / "classify.csv")
        assert [r[0] for r in rows[1:]] == ["inf_tail", "inf_L2"]
        upper = classify_ltp_upper(pr.variable_order_process(), 0.0, gr.power(1.0),
                                   use_majorization_route=True)
        verdicts = [v for ev in upper.evidence.values()
                    for v in (ev.values() if isinstance(ev, dict) else [ev])
                    if isinstance(v, IntegralVerdict)]
        rows = _classify_rows(upper)
        # no c converges on either scan: each keeps c_min and c_max, plus L2
        assert len(rows) == len(verdicts) == 5
        assert {r[0] for r in rows} == {"L1", "L1_fixed_ball", "L2"}

    def test_conditions(self, tmp_path):
        cfg = self._cfg(tmp_path, MINIMAL)
        code = run_command("conditions", cfg, quiet=True)
        assert code == 0
        rows = read_csv(tmp_path / "out" / "conditions.csv")
        assert rows[0] == ["condition", "verdict", "witness", "note"]
        table = {r[0]: r[1] for r in rows[1:]}
        assert table == {"sector": "holds", "A1": "holds", "A2": "holds"}

    def test_zero_process_classifies(self, tmp_path, capsys):
        # the constant process: no jump mass decides the verdict; its symbol
        # vanishes, so the sector condition holds (0 <= 0), A1 fails and A2 holds
        cfg = self._cfg(tmp_path, "[process]\nkind = zero\n")
        assert run_command("classify", cfg) == 0
        assert capsys.readouterr().out.strip() == "Zero"
        assert run_command("conditions", cfg, quiet=True) == 0
        rows = read_csv(tmp_path / "out" / "conditions.csv")
        table = {r[0]: r[1] for r in rows[1:]}
        assert table == {"sector": "holds", "A1": "fails", "A2": "holds"}

    @pytest.mark.parametrize("process, kappa", [("zero", 0.5), ("log_smooth", 0.4)])
    def test_finite_mass_classifies_where_side_conditions_fail(self, tmp_path, capsys,
                                                                process, kappa):
        # A1 and A2 both fail at these kappa; a finite jump mass without drift
        # reads Zero before them, with no integral rows
        body = f"[process]\nkind = {process}\n\n[growth]\nform = power\nkappa = {kappa}\n"
        cfg = self._cfg(tmp_path, body)
        assert run_command("classify", cfg) == 0
        assert capsys.readouterr().out.strip() == "Zero"
        assert read_csv(tmp_path / "out" / "classify.csv")[1:] == []

    def test_bg_index(self, tmp_path, capsys):
        cfg = self._cfg(tmp_path, MINIMAL)
        assert run_command("bg-index", cfg) == 0
        assert "beta = 1.0" in capsys.readouterr().out

    def test_bounds_zero_violations(self, tmp_path, capsys):
        body = MINIMAL + "\n[run]\npaths = 400\nt_grid = 0.05,0.1\nr_grid = 0.5\n"
        cfg = self._cfg(tmp_path, body)
        assert run_command("bounds", cfg) == 0
        for name in ("bounds.csv", "bounds_expected_exit.csv",
                     "bounds_lower_max.csv"):
            rows = read_csv(tmp_path / "out" / name)
            assert rows[0] == ["t", "r", "empirical", "ci", "bound", "violated"]
            assert all(r[-1] == "False" for r in rows[1:])

    def test_simulate_writes_paths(self, tmp_path):
        body = MINIMAL + "\n[run]\npaths = 3\nhorizon = 0.05\n"
        cfg = self._cfg(tmp_path, body)
        assert run_command("simulate", cfg, quiet=True) == 0
        rows = read_csv(tmp_path / "out" / "paths.csv")
        assert rows[0] == ["path", "t", "value", "runmax"]
        assert len({r[0] for r in rows[1:]}) == 3

    @pytest.mark.parametrize("process", [
        "kind = cauchy", "kind = log_smooth", "kind = variable_order",
        "kind = sde_cauchy", "kind = one_sided_stable\nalpha = 1.4"])
    def test_simulate_rows_match_one_path_per_call(self, tmp_path, process):
        # path p draws from its own Philox stream, so the batched command
        # writes exactly the rows of one single-path run per path
        body = f"[process]\n{process}\n\n[run]\npaths = 3\nhorizon = 0.02\nseed = 4\n"
        cfg = self._cfg(tmp_path, body)
        assert run_command("simulate", cfg, quiet=True) == 0
        rows = read_csv(tmp_path / "out" / "paths.csv")[1:]
        spec = build_process(cfg)
        want = []
        for p in range(3):
            cfg_p = SimConfig(n_paths=1, seed=4, path_offset=p)
            times = _grid_to(0.02, cfg_p.dt)
            values, runmax = simulate_batch(spec, 0.0, times, cfg_p)
            want += [[str(p), str(float(t)), str(float(v)), str(float(rm))]
                     for t, v, rm in zip(times, values[0], runmax[0])]
        assert rows == want

    def test_limsup_study_with_svg(self, tmp_path, capsys):
        body = MINIMAL + "\n[run]\npaths = 200\nn_max = 15\nsvg = true\n"
        cfg = self._cfg(tmp_path, body)
        assert run_command("limsup-study", cfg) == 0
        assert "tends_zero" in capsys.readouterr().out
        rows = read_csv(tmp_path / "out" / "limsup.csv")
        assert rows[0] == ["n", "t_n", "q10", "median", "q90"]
        assert len(rows) == 1 + (15 - 4 + 1)
        svg = (tmp_path / "out" / "limsup.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_reproduce(self, tmp_path, capsys):
        body = MINIMAL + "\n[run]\npaths = 150\nn_max = 13\nexample = SqrtTLaw\n"
        cfg = self._cfg(tmp_path, body)
        assert run_command("reproduce", cfg) == 0
        rows = read_csv(tmp_path / "out" / "reproduce.csv")
        assert rows[0] == ["example", "case", "analytic", "empirical", "agree"]


class TestMain:
    def test_main_with_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(MINIMAL)
        code = main(["classify", "--config", str(cfg_file),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "Zero"

    def test_main_error_record(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[process]\nkind = stable\nalpha = 3.0\n")
        code = main(["classify", "--config", str(cfg_file),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        record = json.loads((tmp_path / "o" / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert "alpha" in record["message"]
        # a misspelled mode once ran the lower route: exit 2 with inf_tail rows
        cfg_file.write_text("[process]\nkind = variable_order\nx = 0.2\n\n"
                            "[growth]\nkappa = 0.6\n\n[run]\nmode = uppper\n")
        code = main(["classify", "--config", str(cfg_file), "--out", str(tmp_path / "m")])
        assert code == 1
        assert not (tmp_path / "m" / "classify.csv").exists()
        record = json.loads((tmp_path / "m" / "error.json").read_text())
        assert record == {"error": "ValidationError", "message": "unknown mode 'uppper'; "
                          "choose from ('auto', 'upper', 'lower')"}

    def test_error_record_goes_to_the_configured_out(self, tmp_path, monkeypatch, capsys):
        # error.json once went to ./out while config_used.cfg went to [run] out
        monkeypatch.chdir(tmp_path)
        Path("vo.cfg").write_text("[process]\nkind = variable_order\n\n[run]\nout = cfgout\n")
        assert main(["bg-index", "--config", "vo.cfg"]) == 1
        assert (tmp_path / "cfgout" / "config_used.cfg").exists()
        record = json.loads((tmp_path / "cfgout" / "error.json").read_text())
        assert record == {"error": "ValidationError", "message": "bg-index needs a Levy process"}
        assert not (tmp_path / "out").exists()
        # a config that does not parse falls back to --out, else ./out
        Path("bad.cfg").write_text("[run]\nc_standin = 2\n")
        assert main(["bg-index", "--config", "bad.cfg"]) == 1
        assert (tmp_path / "out" / "error.json").exists()

    @pytest.mark.parametrize("horizon", ["nan", "inf", "0", "-1"])
    def test_simulate_rejects_a_bad_horizon(self, tmp_path, capsys, horizon):
        # inf once died in the grid with a raw OverflowError and no error.json
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text(f"[process]\nkind = cauchy\n\n[run]\nhorizon = {horizon}\n")
        code = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert code == 1
        assert not (tmp_path / "o" / "paths.csv").exists()
        record = json.loads((tmp_path / "o" / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert "horizon" in record["message"]

    def test_conditions_reject_a_nan_state(self, tmp_path, capsys):
        # x = nan once wrote `sector,holds,0.0` and exited 2
        cfg_file = tmp_path / "vo.cfg"
        cfg_file.write_text("[process]\nkind = variable_order\nx = nan\n")
        code = main(["conditions", "--config", str(cfg_file),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert not (tmp_path / "o" / "conditions.csv").exists()
        record = json.loads((tmp_path / "o" / "error.json").read_text())
        assert record == {"error": "ValidationError", "message": "x must be finite"}

    @pytest.mark.parametrize("key, value", [("x", "inf"), ("x", "-inf"),
                                            ("radius", "nan"), ("radius", "inf"),
                                            ("mass", "nan"), ("mass", "inf"),
                                            ("mass", "-1")])
    def test_non_finite_process_values_rejected(self, key, value):
        # the `<= 0` checks let NaN through
        with pytest.raises(ValidationError, match=f"{key} must be"):
            parse_config(f"[process]\nkind = atom\n{key} = {value}\n")

    def test_main_overrides(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(MINIMAL + "\n[run]\npaths = 5000\n")
        code = main(["limsup-study", "--config", str(cfg_file),
                     "--paths", "100", "--seed", "9",
                     "--out", str(tmp_path / "o"), "--quiet"])
        assert code in (0, 2)
        used = (tmp_path / "o" / "config_used.cfg").read_text()
        assert "paths = 100" in used and "seed = 9" in used

    @pytest.mark.parametrize("depth", [20, 60])
    def test_depth_reaches_the_dyadic_engine(self, tmp_path, depth):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(MINIMAL)
        assert main(["classify", "--config", str(cfg_file), "--depth", str(depth),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 0
        rows = read_csv(tmp_path / "o" / "classify.csv")[1:]
        assert rows and {r[-1] for r in rows} == {str(depth + 1)}
        sums = [float(r[3]) for r in rows]
        assert np.all(np.isfinite(sums))

    def test_bounds_on_variable_order_stay_small(self, tmp_path):
        # expected_exit's horizon 8 / G(2r) reaches 311,720 steps at r = 1,
        # but each path stops at its exit, most within 5% of it; run to
        # the horizon, the 1000 default paths took 5.46 GB
        cfg_file = tmp_path / "vo.cfg"
        cfg_file.write_text("[process]\nkind = variable_order\n")
        src = str(Path(levyup.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", _MAXRSS_OF_CHILD, "bounds", "--config",
             str(cfg_file), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        *lines, maxrss_kb = out.stdout.strip().splitlines()
        assert lines[-1].endswith(" 0 violations")
        assert int(maxrss_kb) / 1024 <= BOUNDS_RSS_CEILING_MB

    def test_limsup_study_keeps_columns_only(self, tmp_path):
        # the default study (Cauchy, 1000 paths, 3,584 steps) keeps each
        # path's running maximum at its 13 levels and reads ~58 MB; with
        # both paths x steps arrays of simulate_batch it read ~112 MB
        src = str(Path(levyup.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", _MAXRSS_OF_CHILD, "limsup-study",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        maxrss_kb = out.stdout.strip().splitlines()[-1]
        assert len(read_csv(tmp_path / "o" / "limsup.csv")) == 14
        assert int(maxrss_kb) / 1024 <= LIMSUP_RSS_CEILING_MB
