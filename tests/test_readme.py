"""The README's Python snippets run and give the values their comments state."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_as_documented():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    row = ns["row"]
    assert np.vdot(row, row).real == pytest.approx(1.0, abs=1e-12)
    assert ns["sector"].pseudo_vacuum_occupation == (2, 0)
    np.testing.assert_allclose(ns["b"], [0.0, math.sqrt(3.0), math.sqrt(8.0), math.sqrt(15.0)],
                               rtol=1e-14)
    assert np.all(ns["h"] == 0.0)
    js = ns["js"]
    assert (js.gamma0, js.dim) == (2.0, math.inf)
    assert ns["kind"] == "Laguerre-type"
    assert ns["params"] == pytest.approx({"mu": 3.0, "coupling": 1.0}, rel=1e-12)
