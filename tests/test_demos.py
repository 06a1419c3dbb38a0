"""Every demo script runs to completion in a fresh interpreter and cleans up after itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The curve table, weights and aggregates demo 02 prints, which come from
# scoring; and the waterfall table and scores demo 03 prints, which come from
# netsim, so a change there is a change in simulated times.
EXPECTED_STDOUT = {
    "02_scoring_curves.py": """\
curve: median 4000 ms -> 50, podr 1700 ms -> 90

   value_ms   score
          0   100.00
        500    99.91
       1700    90.00
       2500    75.93
       4000    50.00
       6000    27.18
      10000     8.50

default weights: {'fcp': 0.2, 'fmp': 0.067, 'si': 0.267, 'tti': 0.333, 'fci': 0.133, 'max_fid': 0.0}

all six scores at 80      -> aggregate 80.0
only tti at 100           -> aggregate 33.3  (its weight x 100)
max_fid dropped to 0      -> aggregate 80.0  (zero weight, no effect)

score  92.0 is categorized 'good'
score  60.0 is categorized 'average'
score  38.7 is categorized 'poor'
tti of 5000 ms scores  77.1 on mobile
tti of 5000 ms scores  40.9 on desktop
""",
    "03_throttled_waterfall.py": """\
request   unthrottled              4g (rtt 150, 1638 kbps)
  doc        0.0 ->      0.0        150.0 ->    404.0
  css        5.0 ->      5.0        559.0 ->    699.8
  img       40.0 ->     40.0        594.0 ->   1233.0

demo page, mobile curves, unthrottled trace : score  99.96
same page re-simulated on 4g with 4x cpu    : score  98.40
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
