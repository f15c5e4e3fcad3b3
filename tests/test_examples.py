"""Every script in ``examples/`` runs to completion against ``src/``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[1]
_EXAMPLES = sorted((_REPO / "examples").glob("*.py"))


def _arguments(script: Path, tmp_path: Path) -> list[str]:
    if script.name == "generate_suite.py":
        return [str(tmp_path / "suite"), "--profile", "tiny"]
    return []


@pytest.mark.parametrize("script", _EXAMPLES, ids=[s.name for s in _EXAMPLES])
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_REPO / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(script), *_arguments(script, tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
