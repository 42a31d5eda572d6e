import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "cold_start.py")
spec = importlib.util.spec_from_file_location("cold_start", TOOL)
cold_start = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cold_start)


def test_probe_times_minimize_and_a_bare_interpreter():
    run = cold_start.probe(2)
    assert run.keys() == {"minimize_s", "bare_s", "bytecode_cache"}
    assert run["minimize_s"] > 0 and run["bare_s"] > 0
    assert isinstance(run["bytecode_cache"], bool)


def test_probe_refuses_a_failing_run(tmp_path):
    with pytest.raises(RuntimeError, match="^minimize exited 2: "):
        cold_start.probe(1, str(tmp_path / "missing.cnf"))
