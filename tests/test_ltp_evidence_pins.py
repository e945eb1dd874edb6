"""Regression pins for the Levy-type process classifiers.

``tests/data/ltp_evidence_pins.json`` holds a SHA-256 digest of each
``classify_ltp_upper`` result (with and without the majorization route) and
each ``classify_ltp_lower`` result on variable_order, stable_type(1.5) and
sde, at x in {-0.5, 0.2} and kappa alpha(x) in {0.8, 1.2}.  A digest covers
the outcome, reason, assumptions and every evidence entry in its order:
verdict states, values, notes, block sums, witness arrays and grids, to the
bit.  The digests were recorded before the symbol and ball-tail tables were
reduced states-first, so a change of reduction order or layout that moves
any bit fails here.  Regenerate (only for a documented change of the
criteria) with ``python tests/test_ltp_evidence_pins.py``.
"""

import dataclasses
import hashlib
import json
import pathlib
import struct

import numpy as np
import pytest

from levyup import processes as pr
from levyup.criteria import classify_ltp_lower, classify_ltp_upper
from levyup.growth import power

PINS = pathlib.Path(__file__).parent / "data" / "ltp_evidence_pins.json"

# model -> (builder, index alpha(x) at the state x)
MODELS = {
    "variable_order": (pr.variable_order_process, lambda x: float(pr.default_order_fn(x))),
    "stable_type_1.5": (lambda: pr.stable_type_process(1.5), lambda x: 1.5),
    "sde": (pr.sde_process, lambda x: 1.0),
}
ROUTES = {
    "upper": lambda spec, x, f: classify_ltp_upper(spec, x, f),
    "upper_majorization": lambda spec, x, f: classify_ltp_upper(
        spec, x, f, use_majorization_route=True),
    "lower": lambda spec, x, f: classify_ltp_lower(spec, x, f),
}
CASES = {f"{route}-{model}-x={x:g}-ka={prod:g}": (route, model, x, prod)
         for route in ROUTES for model in MODELS
         for x in (-0.5, 0.2) for prod in (0.8, 1.2)}


def _feed(h, obj):
    """Canonical bytes of a result: types, field names, values to the bit."""
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for fld in dataclasses.fields(obj):
            h.update(fld.name.encode())
            _feed(h, getattr(obj, fld.name))
    elif isinstance(obj, dict):
        h.update(b"dict%d" % len(obj))
        for key, val in obj.items():
            _feed(h, key)
            _feed(h, val)
    elif isinstance(obj, (list, tuple)):
        h.update(b"seq%d" % len(obj))
        for val in obj:
            _feed(h, val)
    elif isinstance(obj, np.ndarray):
        h.update(f"array{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_, str)) or obj is None:
        h.update(repr(obj).encode())
    elif isinstance(obj, (int, float, np.integer, np.floating)):
        h.update(b"num" + struct.pack("<d", float(obj)))
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(result):
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


def _result(case):
    route, model, x, prod = CASES[case]
    build, order = MODELS[model]
    return ROUTES[route](build(), x, power(prod / order(x)))


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_pins_cover_every_case(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_ltp_result_digest(pins, case):
    assert digest(_result(case)) == pins[case]


def test_digest_sees_one_bit_of_an_evidence_array():
    result = _result("upper-sde-x=0.2-ka=0.8")
    before = digest(result)
    sums = result.evidence["symbol_integral"].block_sums
    sums[-1] = np.nextafter(sums[-1], np.inf)
    assert digest(result) != before


if __name__ == "__main__":
    PINS.write_text(json.dumps({case: digest(_result(case)) for case in sorted(CASES)},
                               indent=1, sort_keys=True) + "\n")
