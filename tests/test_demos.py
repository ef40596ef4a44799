"""Every narrative demo under ``demos/`` runs to completion.

The demos import the public API, so a renamed or deleted name breaks
them; each runs in its own interpreter with ``src`` on the path and its
temporary files in a directory of its own, which it must leave empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    temp = tmp_path / "tmp"
    temp.mkdir()
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(temp))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(temp.iterdir())
