"""Every demo script runs to completion in a fresh interpreter and cleans up after itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The waterfall table and scores demo 03 prints; they come from netsim, so a
# change here is a change in simulated times.
EXPECTED_STDOUT = {
    "03_throttled_waterfall.py": """\
request   unthrottled              4g (rtt 150, 1638 kbps)
  doc        0.0 ->      0.0        150.0 ->    404.0
  css        5.0 ->      5.0        559.0 ->    699.8
  img       40.0 ->     40.0        594.0 ->   1233.0

demo page, mobile curves, unthrottled trace : score  99.96
same page re-simulated on 4g with 4x cpu    : score  97.76
last byte arrives at 820 ms as recorded, 1178 ms on 4g
""",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert list(tmp_path.iterdir()) == [], "the demo left files in the temp directory"
    if demo.name in EXPECTED_STDOUT:
        assert done.stdout == EXPECTED_STDOUT[demo.name]
