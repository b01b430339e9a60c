"""Start-up: scipy is loaded only by the bounded least squares that need it."""

import os
import subprocess
import sys
from pathlib import Path

import equilab

from conftest import FIXTURES

RUN = """
import sys
import equilab
from equilab import (SimpleRandomMarketSpec, clear_euphemia_style, load_market,
                     monte_carlo_equilibrium_probability)
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
res = monte_carlo_equilibrium_probability(SimpleRandomMarketSpec(6, 3, seed=1), 50)
assert res.trials == 50
assert clear_euphemia_style(load_market(sys.argv[1])).cleared
print(before, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_import_monte_carlo_and_euphemia_load_no_scipy():
    src = str(Path(equilab.__file__).parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", RUN, str(FIXTURES / "four_agent.csv")],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[] []\n"
