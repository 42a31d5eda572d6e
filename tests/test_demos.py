"""Every script in demos/ runs to completion without a traceback, and the
README's example session prints what it shows."""
import glob
import os
import subprocess
import sys

import pytest

from boolmin import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, path], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_minimize_session(capsys, monkeypatch):
    command = "$ boolmin minimize --formula demos/data/redundant.cnf --stats\n"
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    assert command in readme
    shown = readme.split(command, 1)[1].split("$ ", 1)[0]
    monkeypatch.chdir(ROOT)
    assert cli.main(command.split()[2:]) == 0
    assert capsys.readouterr().out == shown
    assert "# passes=1\n" in shown
