"""Every narrative script in demos/ runs to completion, and so do the
examples of README.md."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env
from orthofit.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


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


def _readme_blocks(lang):
    return re.findall(rf"(?ms)^```{lang}\n(.*?)^```", README.read_text())


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # each `orthofit …` line of the sh blocks, `\` continuations joined,
    # in order in one directory, then the Library block on their files
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:]
                for block in _readme_blocks("sh")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("orthofit ")]
    assert len(commands) >= 6
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    (library,) = _readme_blocks("python")
    exec(compile(library, str(README), "exec"), {})
