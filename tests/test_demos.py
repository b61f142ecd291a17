"""Every demo runs end to end against the public API (about 80 s)."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # demos write under tempfile.TemporaryDirectory(), which honours TMPDIR
    # and is removed when the demo is done with it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []
