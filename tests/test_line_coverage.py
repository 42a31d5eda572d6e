import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "line_coverage.py")


def test_lists_the_statements_a_run_never_executes(tmp_path):
    (tmp_path / "test_probe.py").write_text(
        "from boolmin.graph import bits\n\n\n"
        "def test_bits():\n"
        "    assert bits([0, 2]) == 5\n"
    )
    proc = subprocess.run(
        [sys.executable, TOOL, "test_probe.py", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = [line.split(": ", 1) for line in proc.stdout.splitlines() if line.startswith("  ")]
    graph = {int(where.rsplit(":", 1)[1]): text for where, text in listed
             if where.strip().startswith(os.path.join("src", "boolmin", "graph.py"))}
    # the body of `bits` ran; `members` was never called
    assert not {"mask = 0", "mask |= 1 << v", "return mask"} & set(graph.values())
    assert "while mask:" in graph.values() and "mask ^= low" in graph.values()
    # module-level statements ran at import; docstrings and defs are never listed
    assert "from __future__ import annotations" not in graph.values()
    assert not any(text.startswith(('"""', "def ", "class ")) for _, text in listed)
    # unimported modules are listed whole, and the last line sums up
    assert any(where.strip().startswith(os.path.join("src", "boolmin", "cli.py"))
               for where, _ in listed)
    assert proc.stdout.splitlines()[-1].startswith("total=")
