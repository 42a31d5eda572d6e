"""Every script in demos/ runs to completion without a traceback, and the
README's example session and library quick tour show what they print."""
import ast
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


def test_readme_quick_tour():
    """Runs the quick tour statement by statement.  An expression line's
    comment, up to its first colon, is the value the line shows."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2]
        assert value == ast.literal_eval(comment.split(":", 1)[0].strip())
        shown += 1
    assert shown == 5
