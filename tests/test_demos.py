"""Every narrative script in demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # the warning policy pyproject.toml applies to the in-process tests
    strict = [arg for kind in ("RuntimeWarning", "DeprecationWarning",
                               "FutureWarning", "ResourceWarning")
              for arg in ("-W", f"error::{kind}")]
    proc = subprocess.run([sys.executable, *strict, str(script)],
                          cwd=tmp_path, env=src_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
