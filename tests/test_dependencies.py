"""numpy is the package's only third-party runtime dependency: a fresh
interpreter that imports mode2cap and runs each front door once loads no
scipy module (the tests themselves use scipy as an independent reference).
Importing the package and its CLI loads no numpy.polynomial either: plr
builds its quadrature rules on first use."""
import subprocess
import sys

import pytest

SCRIPT = """
import sys
from mode2cap import ScenarioConfig, SimConfig, capacity, plr, run, validate_config
cfg = validate_config(ScenarioConfig(phi=0.05, noise_sigma=1e-13))
plr(3.0, cfg)
capacity(cfg)
run(SimConfig(scenario=cfg, num_ues=50, num_slots=200, seed=1, replications=1))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_package_runs_without_loading_scipy():
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_leaves_out_numpy_polynomial():
    # numpy before 2.0 imports numpy.polynomial itself
    code = ("import sys, numpy\n"
            "print('numpy.polynomial' in sys.modules)\n"
            "import mode2cap, mode2cap.cli\n"
            "print('numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    by_numpy, by_package = out.stdout.split()
    if by_numpy == "True":
        pytest.skip("numpy itself imports numpy.polynomial")
    assert by_package == "False"
