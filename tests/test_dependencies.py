"""numpy is the package's only third-party runtime dependency: a fresh
interpreter that imports mode2cap and runs each front door once loads no
scipy module (the tests themselves use scipy as an independent reference)."""
import subprocess
import sys

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
