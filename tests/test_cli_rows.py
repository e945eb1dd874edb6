"""The console-script rows that CI checks, run in process.

``tests/data/cli_rows.json`` maps each output file (``<out dir>/<csv>``) to
the subcommand, the config text (empty: the defaults) and the CSV rows
below its header.  The CI workflow's console-script step reads the same
file after running the installed entry point; this test runs each config
through ``levyup.cli.main`` and compares every cell, numbers at rtol 1e-9.
Regenerate (only for a documented change of the criteria) with
``python tests/test_cli_rows.py``.
"""

import csv
import json
import math
import pathlib
import sys

import pytest

from levyup.cli import main

ROWS = pathlib.Path(__file__).parent / "data" / "cli_rows.json"
CASES = json.loads(ROWS.read_text())


def run_case(name, case, tmp):
    """Run one entry through ``main``; the CSV rows it wrote, header dropped."""
    out, csv_name = name.split("/")
    args = [case["command"], "--out", str(tmp / out)]
    if case["config"]:
        cfg = tmp / f"{out}.cfg"
        cfg.write_text(case["config"])
        args += ["--config", str(cfg)]
    main(args)
    with (tmp / out / csv_name).open() as fh:
        return list(csv.reader(fh))[1:]


def same(a, b):
    try:
        return math.isclose(float(a), float(b), rel_tol=1e-9)
    except ValueError:
        return a == b


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_rows_match_the_recorded_rows(name, tmp_path):
    got, want = run_case(name, CASES[name], tmp_path), CASES[name]["rows"]
    assert len(got) == len(want), name
    for g, w in zip(got, want):
        assert len(g) == len(w) and all(map(same, g, w)), (name, g, w)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            case["rows"] = run_case(name, case, pathlib.Path(tmp))
    ROWS.write_text(json.dumps(CASES, indent=1) + "\n")
    sys.exit(0)
