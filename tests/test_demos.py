"""Each demo, and the README's quick start, runs to completion as a standalone script.

The quick ones take about a second each; 06_domain_adaptation.py, which
runs the three pipelines on three seeds with one sweep over `seed` (one
run_pipeline call, and so one pretrain, per seed), takes about 5 s on 2 CPUs.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sslasr

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
QUICK = sorted(p.name for p in DEMOS.glob("0[1-5]_*.py"))


def _run(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    src = str(Path(sslasr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_all_quick_demos_found():
    assert [name[:2] for name in QUICK] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", [*QUICK, "06_domain_adaptation.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    proc = _run(DEMOS / demo, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert block, "README.md has no fenced python block"
    script = tmp_path / "quick_start.py"
    script.write_text(block.group(1), encoding="utf-8")
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
