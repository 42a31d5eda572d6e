"""Self-tests of the benchmark: the checks catch corrupted outputs, every
metric of BENCHMARK.json is printed with its unit, and traced runs give the
untraced outputs.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import io
import json
import os
import re
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
NO_GOLDEN_SEED = 987654321


@pytest.fixture(scope="module")
def bm():
    return run.fresh_setup()[0]


def _first(name: str, pred):
    wl, langs, funcs = workloads.build(name, SEED)
    return next(item for item in wl.items() if pred(item)), langs, funcs


def _cases():
    """One item per checker path: truth tables, Horn/dual-Horn propagation,
    2-CNF propagation, GF(2) spans and nested-formula witnesses."""
    return {
        "tables": lambda: _first("oracle-check", lambda it: it.kind == "tables"),
        "ihsb+": lambda: _first("cnf-fixpoint", lambda it: it.params["n"] >= 30
                                and "ihsb_plus" in it.text.split("\n", 1)[0]),
        "ihsb-": lambda: _first("cnf-fixpoint", lambda it: it.params["n"] >= 30
                                and "ihsb_minus" in it.text.split("\n", 1)[0]),
        "bijunctive": lambda: _first("cnf-linear", lambda it: "bijunctive" in it.text[:40]),
        "affine": lambda: _first("cnf-linear", lambda it: "affine" in it.text[:40]),
    }


FLIPS = {"pos": "neg", "neg": "pos", "pos~": "neg~", "neg~": "pos~", "odd2": "even2",
         "even2": "odd2", "odd3": "even3", "even3": "odd3", "or2": "nand2", "nand2": "or2"}


def _drop_clause(text: str) -> str:
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("clause "))
    return "\n".join(lines[:i] + lines[i + 1:]) + "\n"


def _flip_literal(text: str, relations: dict) -> str:
    """Negate a literal: a unit, parity or 2-clause relation is replaced by
    its opposite from the same language, or an implication is reversed."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        if tokens[0] != "clause":
            continue
        if FLIPS.get(tokens[1]) in relations:
            tokens[1] = FLIPS[tokens[1]]
        elif tokens[1] in ("imp", "imp~") and tokens[2] != tokens[3]:
            tokens[2], tokens[3] = tokens[3], tokens[2]
        else:
            continue
        lines[i] = " ".join(tokens)
        return "\n".join(lines) + "\n"
    raise AssertionError("no clause to flip")


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cnf_checks_catch_corruption(bm, case):
    item, langs, funcs = _cases()[case]()
    result = workloads.run_op(bm, item, workloads.basis_texts())
    assert workloads.check_result(item, result, langs, funcs) is None
    relations = langs[item.text.split()[1]]
    for bad_text in (_drop_clause(result.text), _flip_literal(result.text, relations)):
        bad = workloads.Result(bad_text, result.reported)
        assert workloads.check_result(item, bad, langs, funcs) is not None, bad_text


def test_oracle_verdicts_are_checked(bm):
    item, langs, funcs = _first("oracle-check", lambda it: it.kind == "tables")
    result = workloads.run_op(bm, item, workloads.basis_texts())
    wrong = dict(result.reported, solutions=result.reported["solutions"] + 1)
    assert workloads.check_result(item, workloads.Result(result.text, wrong), langs, funcs)
    item, langs, funcs = _first("oracle-check", lambda it: it.kind == "brute")
    result = workloads.run_op(bm, item, workloads.basis_texts())
    wrong = dict(result.reported, brute=result.reported["brute"] + 1)
    assert workloads.check_result(item, workloads.Result(result.text, wrong), langs, funcs)


def test_witness_one_leaf_too_large_is_caught(bm):
    item, langs, funcs = _first("post-dp", lambda it: it.params["basis"] == "or.fns"
                                and it.params["measure"] == "literals")
    result = workloads.run_op(bm, item, workloads.basis_texts())
    assert workloads.check_result(item, result, langs, funcs) is None
    # x -> (or2 x x) keeps the function and adds one leaf
    grown = re.sub(r"(?<=[ (])(x\d+)", r"(or2 \1 \1)", result.text, count=1)
    assert grown != result.text
    bad = workloads.Result(grown, result.reported)
    assert "size" in workloads.check_result(item, bad, langs, funcs)
    claimed = workloads.Result(result.text, {"size": result.reported["size"] - 1})
    assert workloads.check_result(item, claimed, langs, funcs) is not None


def _short(name: str) -> workloads.Workload:
    wl = workloads.build(name, NO_GOLDEN_SEED)[0]
    wl.cycles = wl.cycles[:1]
    return wl


def _metrics(mode, name: str) -> tuple[dict, str]:
    wl = _short(name)
    _, langs, funcs = workloads.build(name, NO_GOLDEN_SEED)
    args = SimpleNamespace(seconds=0.0, seed=NO_GOLDEN_SEED)
    buf = io.StringIO()
    with redirect_stdout(buf):
        out = mode(args, wl, langs, funcs, workloads.basis_texts())
    return out, buf.getvalue()


def _declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench


def test_output_size_other_than_golden_fails_every_operation(monkeypatch):
    monkeypatch.setattr(run, "load_golden", lambda workload, seed: 1)
    out, log = _metrics(run.end_to_end, "post-dp")
    assert out["failed"] == out["attempted"] > 0
    assert "differs from the seed commit" in log


def test_every_end_to_end_metric_is_printed_with_its_unit():
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    out, _ = _metrics(run.end_to_end, "post-dp")
    assert out["failed"] == 0
    assert {k: u for k, (_, u) in out["metrics"].items()} == declared
    assert all(v > 0 for v, _ in out["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    return {name: _metrics(run.per_layer, name) for name in workloads.WORKLOADS}


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    for out, _ in traced.values():
        assert {k: u for k, (_, u) in out["metrics"].items()} == declared


def test_traced_outputs_equal_untraced_outputs(traced):
    # per_layer marks every item whose traced output differs as failed
    for name, (out, log) in traced.items():
        assert out["failed"] == 0, (name, log)


def test_every_layer_has_self_time(traced):
    for layer in run.tracing.LAYERS:
        assert any(out["metrics"][f"layer.{layer}_s"][0] > 0 for out, _ in traced.values()), layer


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _declared()["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    a = [it.text for it in workloads.build("cnf-linear", 1)[0].items()]
    b = [it.text for it in workloads.build("cnf-linear", 1)[0].items()]
    c = [it.text for it in workloads.build("cnf-linear", 2)[0].items()]
    assert a == b and a != c


def test_nested_formulas_have_exact_leaf_counts():
    wl = workloads.build("post-dp", SEED)[0]
    for item in wl.items():
        leaves = len(re.findall(r"(?<=[ (])x\d+", item.text))
        assert leaves == item.params["leaves"]


def test_oracle_formulas_follow_the_tests_draw():
    wl = workloads.build("oracle-check", SEED)[0]
    items = [item for item in wl.items() if item.kind == "post-brute"]
    counts = set()
    for item in items:
        leaves = re.findall(r"(?<=[ (])[a-z]+(?=[ )])|^[a-z]+$", item.text.strip())
        assert len(leaves) == item.params["leaves"] <= 6
        assert set(leaves) <= set(workloads.TEST_POOL)
        counts.add(len(set(leaves)))
        assert item.params["bound"] == workloads.BRUTE_BOUNDS[len(set(leaves))]
    assert counts == {1, 2, 3, 4}


def test_every_pass_runs_on_a_fresh_import(monkeypatch):
    seen = []
    original = workloads.run_op

    def recording(bm, item, bases):
        seen.append(bm.post)
        return original(bm, item, bases)

    monkeypatch.setattr(workloads, "run_op", recording)
    for mode in (run.end_to_end, run.per_layer):
        seen.clear()
        out, _ = _metrics(mode, "post-dp")
        passes = len(seen) // len(_short("post-dp").items())
        assert passes >= 2 and len({id(module) for module in seen}) == passes


def test_design_record_matches_the_code():
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    assert sorted(design["layers"]) == sorted(run.tracing.LAYERS)
    for name in workloads.WORKLOADS:
        assert design["workloads"][name]["ladder"] == workloads.build(name, SEED)[0].ladder
