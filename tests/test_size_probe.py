import importlib.util
import os
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "size_probe.py")
spec = importlib.util.spec_from_file_location("size_probe", TOOL)
size_probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(size_probe)


@pytest.mark.parametrize("cls", sorted(size_probe.CLASSES))
def test_probe_times_each_class(cls, monkeypatch):
    # the probe puts perfbench/ and src/ on the path of the process it runs in
    monkeypatch.setattr(sys, "path", list(sys.path))
    run = size_probe.probe(cls, 200)
    assert run.keys() == {"parse_s", "calibrated_s", "raw_s", "factor", "peak_rss_mb"}
    assert run["raw_s"] > 0 and run["factor"] > 0 and run["peak_rss_mb"] > 0
    assert run["calibrated_s"] == pytest.approx(run["raw_s"] / run["factor"])
