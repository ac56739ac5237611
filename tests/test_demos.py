"""The demo scripts and README's quickstart run to completion against the package under src/,
with warnings as errors and nothing on stderr, and README's command-line synopsis names the
parser's subcommands and options."""

import argparse
import os
import re
import subprocess
import sys

import pytest

from specsub.cli import _build_parser

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
        [sys.executable, "-W", "error", *script],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def readme_synopsis():
    """{subcommand: its --options} from the synopsis under README's "Command line"."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        (block,) = re.findall(r"^## Command line\n\n```text\n(.*?)^```", f.read(), re.M | re.S)
    lines = [line.split(maxsplit=2) for line in block.splitlines()]
    assert {program for program, _, _ in lines} == {"specsub"}
    return {command: set(re.findall(r"--[\w-]+", rest)) for _, command, rest in lines}


def test_readme_synopsis_matches_the_parser():
    (subparsers,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        command: {
            option for action in parser._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for command, parser in subparsers.choices.items()
    }
    assert readme_synopsis() == options
