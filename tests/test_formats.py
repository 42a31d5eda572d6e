import pytest

from boolmin import formats
from boolmin.errors import FormatError
from boolmin.model import BApp, BFormula, BVar, MeeInstance, SizeMeasure
from boolmin.std import fn_or, fn_xor, theorem9_language


def test_language_roundtrip():
    lang = theorem9_language(3)
    text = formats.serialize_language(lang)
    assert formats.parse_language(text) == lang


def test_relation_comments_and_multiline():
    text = """
    # a comment
    relation or2 arity 2   # trailing comment
    01 10
    11
    """
    rel = formats.parse_relation(text)
    assert rel.arity == 2
    assert len(rel.tuples) == 3


def test_include(tmp_path):
    (tmp_path / "a.lang").write_text("relation pos arity 1\n1\n")
    (tmp_path / "b.lang").write_text("include a.lang\nrelation neg arity 1\n0\n")
    lang = formats.load_language(str(tmp_path / "b.lang"))
    assert [r.name for r in lang.relations] == ["pos", "neg"]


def test_include_cycles(tmp_path):
    (tmp_path / "self.lang").write_text("include self.lang\nrelation pos arity 1\n1\n")
    with pytest.raises(FormatError, match="include cycle: .*self.lang -> .*self.lang"):
        formats.load_language(str(tmp_path / "self.lang"))
    (tmp_path / "a.lang").write_text("include b.lang\n")
    (tmp_path / "b.lang").write_text("include a.lang\nrelation pos arity 1\n1\n")
    with pytest.raises(FormatError, match="a.lang -> .*b.lang -> .*a.lang"):
        formats.load_language(str(tmp_path / "a.lang"))
    # a diamond is no cycle: the relation it brings twice is the error
    (tmp_path / "d.lang").write_text("relation pos arity 1\n1\n")
    (tmp_path / "l.lang").write_text("include d.lang\n")
    (tmp_path / "r.lang").write_text("include d.lang\n")
    (tmp_path / "top.lang").write_text("include l.lang\ninclude r.lang\n")
    with pytest.raises(FormatError, match="duplicate relation names"):
        formats.load_language(str(tmp_path / "top.lang"))


def test_cnf_roundtrip(tmp_path):
    lang = theorem9_language(3)
    (tmp_path / "base.lang").write_text(formats.serialize_language(lang))
    text = "language base.lang\nvars x y z\nclause or3 x y z\nclause imp x y\n"
    f = formats.parse_cnf_formula(text, str(tmp_path))
    assert f.var_names == ("x", "y", "z")
    assert formats.parse_cnf_formula(formats.serialize_cnf_formula(f), str(tmp_path)) == f


def test_cnf_errors(tmp_path):
    lang = theorem9_language(3)
    (tmp_path / "base.lang").write_text(formats.serialize_language(lang))
    with pytest.raises(FormatError):
        formats.parse_cnf_formula("vars x\n", str(tmp_path))
    with pytest.raises(FormatError):
        formats.parse_cnf_formula(
            "language base.lang\nvars x\nclause or2 x q\n", str(tmp_path)
        )


def test_function_roundtrip():
    funcs = (fn_or(2), fn_xor(3))
    text = formats.serialize_functions(funcs)
    assert formats.parse_functions(text) == funcs


def test_function_table_length_checked():
    with pytest.raises(FormatError):
        formats.parse_functions("function f arity 2 table 011\n")


def test_bformula_roundtrip():
    funcs = (fn_or(2),)
    f = formats.parse_bformula("(or2 x (or2 x y))", funcs)
    assert f.root == BApp("or2", (BVar("x"), BApp("or2", (BVar("x"), BVar("y")))))
    assert formats.parse_bformula(formats.serialize_bformula(f), funcs) == f
    bare = formats.parse_bformula("x", funcs)
    assert bare.root == BVar("x")


def test_deep_bformula_roundtrip():
    # a right-nested chain 20000 deep, alternating which side nests
    funcs = (fn_or(2), fn_xor(3))
    root = BVar("x")
    for i in range(20000):
        leaf = BVar(f"v{i % 7}")
        if i % 3 == 0:
            root = BApp("xor3", (leaf, root, leaf))
        else:
            root = BApp("or2", (leaf, root) if i % 2 else (root, leaf))
    f = BFormula(funcs, root)
    text = formats.serialize_bformula(f)
    assert text.startswith("(or2 ") and text.endswith(")\n")
    assert formats.parse_bformula(text, funcs) == f


def test_bformula_errors():
    funcs = (fn_or(2),)
    for bad in ("", "(or2 x", "(or2 x y) z", "()", "(or2 x y z)"):
        with pytest.raises(FormatError):
            formats.parse_bformula(bad, funcs)


def test_mee_header_roundtrip():
    funcs = (fn_or(2),)
    f = formats.parse_bformula("(or2 x y)", funcs)
    inst = MeeInstance(f, 3, SizeMeasure.LITERALS)
    text = formats.serialize_mee_instance(inst, fixed_negative=True)
    head = text.splitlines()[0]
    bound, measure, negative = formats.parse_mee_header(head)
    assert (bound, measure, negative) == (3, SizeMeasure.LITERALS, True)
