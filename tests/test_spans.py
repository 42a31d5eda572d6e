"""The benchmark's tracer (`perfbench/spans.py`) wraps package functions by
name and reads counts off their arguments and results, so a renamed function
or a changed return value would break `perfbench/run.py --trace 1`."""
import importlib
import importlib.util
import os
from types import SimpleNamespace

import boolmin

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, os.pardir, "perfbench", "data")
spec = importlib.util.spec_from_file_location(
    "spans", os.path.join(HERE, os.pardir, "perfbench", "spans.py")
)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)

# one satisfiable formula per polynomial class, each with work to count
FORMULAS = {
    "ihsb_plus.lang": "vars a b c\nclause imp a b\nclause imp b a\nclause or2 a c\n",
    "ihsb_minus.lang": "vars a b c\nclause imp~ a b\nclause or2~ b c\n",
    "bijunctive.lang": "vars a b c\nclause or2 a b\nclause nand2 b c\n",
    "affine.lang": "vars a b c\nclause odd2 a b\nclause even2 b c\n",
}


def package():
    """The package and every module the tracer wraps, as the bench holds them."""
    modules = {module for module, _ in spans.LAYERS.values()}
    return SimpleNamespace(boolmin=boolmin, **{
        m: importlib.import_module(f"boolmin.{m}") for m in sorted(modules)
    })


def test_every_traced_name_resolves():
    bm = package()
    for module, fns in spans.LAYERS.values():
        for fn in fns:
            assert callable(getattr(getattr(bm, module), fn)), f"{module}.{fn}"
    for cls, method, _ in spans.METHODS:
        assert callable(getattr(bm.model, cls).__dict__[method]), f"{cls}.{method}"


def test_tracer_records_spans_and_counts():
    bm = package()
    tracer = spans.Tracer()
    tracer.install(bm)
    try:
        for lang, text in FORMULAS.items():
            formula = bm.formats.parse_cnf_formula(f"language {lang}\n{text}", DATA)
            out, stats = bm.boolmin.minimize(formula)
            assert stats.output_clauses == len(out.clauses) > 0
        with open(os.path.join(DATA, "or.fns"), encoding="utf-8") as fh:
            basis = bm.formats.parse_functions(fh.read())
        formula = bm.formats.parse_bformula("(or2 x (or3 x y (or2 y x)))", basis)
        size, _, _ = bm.post.min_post(basis, formula, bm.model.SizeMeasure("literals"))
        assert size == 2
    finally:
        tracer.uninstall()
    # the wrappers are gone again
    assert bm.ihsb.min_ihsb.__name__ == "min_ihsb"
    assert bm.boolmin.min_ihsb_cnf is bm.ihsb.min_ihsb_cnf
    assert bm.model.CnfFormula.dual.__name__ == "dual"
    recorded = {name for name, *_ in tracer.spans}
    assert {"ihsb.min_ihsb", "affine.min_affine", "bijunctive.min_bijunctive",
            "post.build_reach_table", "formats.parse_cnf"} <= recorded
    assert tracer.counts["ihsb.passes"] == 2
    for name in ("affine.rank", "post.reach_states", "formats.bytes_in"):
        assert tracer.counts[name] > 0, name
