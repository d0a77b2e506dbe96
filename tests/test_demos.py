"""Each demo runs to completion as a standalone script.

The quick ones take about a second each; 06_domain_adaptation.py, which
trains all three pipelines on three seeds and pretrains once per seed,
takes about 9 s on 2 CPUs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sslasr

DEMOS = Path(__file__).resolve().parents[1] / "demos"
QUICK = sorted(p.name for p in DEMOS.glob("0[1-5]_*.py"))


def test_all_quick_demos_found():
    assert [name[:2] for name in QUICK] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", [*QUICK, "06_domain_adaptation.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    src = str(Path(sslasr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
