"""Record semantics of the package's immutable value classes: `==`, `hash`,
`repr`, immutability and pickling, one sample instance per class."""
import dataclasses
import os
import pickle
import subprocess
import sys
from types import MappingProxyType

import pytest

from boolmin.classify import (
    ClassificationReport,
    FunctionShape,
    HornWitness,
    RelationFlags,
    relation_flags,
)
from boolmin.gadgets import ReductionResult
from boolmin.ihsb import BaseTemplates, PartitionedFormula
from boolmin.model import (
    BFormula,
    BoolFunction,
    CnfFormula,
    ConstraintLanguage,
    MeeInstance,
    MinimizeStats,
    Relation,
    SizeMeasure,
)
from boolmin.post import PostStats, ReachTable
from boolmin.std import fn_and, fn_or, rel_impl, rel_or

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _language():
    return ConstraintLanguage((rel_or(2), rel_impl()))


def _formula():
    return BFormula((fn_or(2), fn_and(2)), ("x", "y", ("and2", 2), "x", ("or2", 2)))


def _mee():
    return MeeInstance(_formula(), 2, SizeMeasure.GATES)


# class -> (a fresh sample instance on each call, the field names in order)
SAMPLES = {
    Relation: (lambda: Relation("r", 2, frozenset({(0, 1), (1, 1)})), ("name", "arity", "tuples")),
    ConstraintLanguage: (_language, ("relations",)),
    CnfFormula: (
        lambda: CnfFormula(_language(), ("x", "y"), (("or2", (0, 1)), ("imp", (1, 0))), "a.lang"),
        ("language", "var_names", "clauses", "language_path"),
    ),
    MinimizeStats: (
        lambda: MinimizeStats(5, 3, 1, rank=2),
        ("input_clauses", "output_clauses", "passes", "rank", "reductions"),
    ),
    BoolFunction: (lambda: BoolFunction("f", 2, (0, 1, 1, 0)), ("name", "arity", "table")),
    BFormula: (_formula, ("functions", "steps")),
    MeeInstance: (_mee, ("formula", "bound", "measure")),
    FunctionShape: (
        lambda: FunctionShape(True, False, False, frozenset({0, 1}), 0),
        ("or_function", "and_function", "xor_function", "relevant", "zero_value"),
    ),
    RelationFlags: (
        lambda: relation_flags(rel_impl()),
        ("affine", "bijunctive", "horn", "dual_horn", "ihsb_plus", "ihsb_minus", "irreducible"),
    ),
    HornWitness: (lambda: HornWitness("horn2", 2, (2, 0, 1)), ("relation", "k", "permutation")),
    ClassificationReport: (
        lambda: ClassificationReport(
            MappingProxyType({"imp": relation_flags(rel_impl())}),
            "P-ihsb+", True, False, HornWitness("horn2", 2, (0, 1, 2)),
        ),
        ("flags", "verdict", "schaefer", "irreducibility_caveat", "horn_witness"),
    ),
    BaseTemplates: (
        lambda: BaseTemplates(
            "pos", None, ("imp", False), None, MappingProxyType({2: "or2"}),
            MappingProxyType({"pos": ("pos",), "or2": ("or", 2)}), False,
        ),
        ("pos", "neg", "imp", "eq", "or_arities", "shapes", "dual"),
    ),
    PartitionedFormula: (
        lambda: PartitionedFormula(4, (0,), (1,), ((2, 3),), ((2, 3),), ((0, 2, 3),)),
        ("n", "pos_literals", "neg_literals", "impl_clauses", "classes", "or_clauses"),
    ),
    ReachTable: (
        lambda: ReachTable("V", {(0, 1, 1): (0, ("var",)), (0, 2, 2): (1, ("fn", "or2"))}),
        ("cls", "states"),
    ),
    PostStats: (
        lambda: PostStats(SizeMeasure.LITERALS, 3, (0, 3, 2), 11),
        ("measure", "min_size", "tuple", "reach_states"),
    ),
    ReductionResult: (lambda: ReductionResult(_mee(), False), ("instance", "fixed_negative")),
}
CLASSES = list(SAMPLES)
# a dict or a mapping proxy has no hash, so neither have the records that
# hold one; and a mapping proxy cannot be pickled
UNHASHABLE = (ReachTable, ClassificationReport, BaseTemplates)
PICKLED = [cls for cls in CLASSES if cls not in (ClassificationReport, BaseTemplates)]


def ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_equal_fields_give_equal_records(cls):
    make, _ = SAMPLES[cls]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", UNHASHABLE, ids=ids)
def test_records_holding_a_mapping_are_unhashable(cls):
    make, _ = SAMPLES[cls]
    with pytest.raises(TypeError):
        hash(make())


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_other_class_with_the_same_fields_is_not_equal(cls):
    make, _ = SAMPLES[cls]
    record = make()
    twin = object.__new__(type(cls.__name__, (cls,), {}))
    twin.__dict__.update(record.__dict__)
    assert record != twin and twin != record and not record == twin


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_repr_lists_the_fields_in_order(cls):
    make, names = SAMPLES[cls]
    record = make()
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_fields_cannot_be_set_or_deleted(cls):
    make, names = SAMPLES[cls]
    record = make()
    before = dict(record.__dict__)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1
    assert record.__dict__ == before


@pytest.mark.parametrize("cls", PICKLED, ids=ids)
def test_pickle_round_trip_gives_an_equal_record(cls):
    make, _ = SAMPLES[cls]
    record = make()
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is cls and loaded == record and repr(loaded) == repr(record)
    if cls not in UNHASHABLE:
        assert hash(loaded) == hash(record)


def test_cnf_formula_ignores_its_language_path():
    make, _ = SAMPLES[CnfFormula]
    f = make()
    moved = CnfFormula(f.language, f.var_names, f.clauses, "elsewhere/b.lang")
    bare = CnfFormula(f.language, f.var_names, f.clauses)
    assert f == moved == bare and hash(f) == hash(moved) == hash(bare)
    assert repr(f) != repr(moved) and "language_path=None" in repr(bare)
    assert f != CnfFormula(f.language, f.var_names, f.clauses[:1], "a.lang")


def test_import_generates_no_code():
    # -S: site hooks (.pth files) may import anything; the package needs none
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import boolmin.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
