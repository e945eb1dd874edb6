import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyup
from levyup.errors import QuadratureFailure
from levyup.quadrature import panel_quad


def test_import_loads_neither_scipy_integrate_nor_optimize():
    # in a fresh interpreter: pytest's filterwarnings entry imports
    # scipy.integrate into this one
    src = str(Path(levyup.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import levyup; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_panel_quad_value_does_not_depend_on_its_batch():
    def decay(rates):
        return lambda u: np.exp(-rates[:, None] * u)

    rate = np.geomspace(0.1, 30.0, 37)
    lo, hi = np.zeros(rate.shape), np.full(rate.shape, 2.0)
    batch = panel_quad(decay(rate), lo, hi)
    for i in range(rate.size):
        assert panel_quad(decay(rate[i:i + 1]), lo[:1], hi[:1])[0] == batch[i]
    np.testing.assert_allclose(batch, -np.expm1(-2.0 * rate) / rate, rtol=1e-14, atol=0)


def test_panel_quad_check_rejects_a_step():
    with pytest.raises(QuadratureFailure):
        panel_quad(lambda u: (u > 1.0 / 3.0).astype(float), np.zeros(1), np.ones(1))
