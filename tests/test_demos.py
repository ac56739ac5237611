"""The demo scripts and README's quickstart run to completion against the package under src/."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(
    name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
)


def test_all_four_demos_found():
    assert len(DEMOS) == 4


def readme_quickstart():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        (block,) = re.findall(r"^```python\n(.*?)^```", f.read(), re.M | re.S)
    return block


@pytest.mark.parametrize("name", DEMOS + ["README.md"])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")) if p
    )
    script = (
        ["-c", readme_quickstart()]
        if name == "README.md"
        else [os.path.join(ROOT, "demos", name)]
    )
    proc = subprocess.run(
        [sys.executable, *script],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
