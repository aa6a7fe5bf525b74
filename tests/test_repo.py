"""Whole-repository checks: soundness checks survive `python -O`, and the
demos run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperramsey

PACKAGE = Path(hyperramsey.__file__).parent
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so checks must be explicit raises
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
