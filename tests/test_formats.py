import gc
import os
import pickle
import random

import pytest

from boolmin import formats
from boolmin.affine import min_affine
from boolmin.bijunctive import min_bijunctive
from boolmin.errors import FormatError
from boolmin.ihsb import min_ihsb_cnf, min_ihsb_minus_cnf
from boolmin.model import BFormula, CnfFormula, MeeInstance, SizeMeasure
from boolmin.oracle import unsat_minimum
from boolmin.post import min_post
from boolmin.std import fn_or, fn_xor, theorem9_language

from conftest import assert_steps, tree_steps


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


def names(lang):
    return [r.name for r in lang.relations]


def test_load_language_sees_a_rewritten_file(tmp_path):
    path = str(tmp_path / "l.lang")
    (tmp_path / "l.lang").write_text("relation pos arity 1\n1\n")
    assert names(formats.load_language(path)) == ["pos"]
    (tmp_path / "l.lang").write_text("relation neg arity 1\n0\n")
    assert names(formats.load_language(path)) == ["neg"]


def test_load_language_sees_a_changed_include(tmp_path):
    (tmp_path / "a.lang").write_text("relation pos arity 1\n1\n")
    (tmp_path / "b.lang").write_text("include a.lang\nrelation imp arity 2\n00 01 11\n")
    assert names(formats.load_language(str(tmp_path / "b.lang"))) == ["pos", "imp"]
    (tmp_path / "a.lang").write_text("relation neg arity 1\n0\n")
    assert names(formats.load_language(str(tmp_path / "b.lang"))) == ["neg", "imp"]


def test_load_language_caches_no_failure(tmp_path):
    (tmp_path / "bad.lang").write_text("relation pos arity 1\n2\n")
    for _ in range(2):
        with pytest.raises(FormatError, match="bad tuple token"):
            formats.load_language(str(tmp_path / "bad.lang"))
    (tmp_path / "bad.lang").write_text("relation pos arity 1\n1\n")
    assert names(formats.load_language(str(tmp_path / "bad.lang"))) == ["pos"]


def test_equal_language_texts_give_one_language(tmp_path):
    text = formats.serialize_language(theorem9_language(3))
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.lang").write_text(text)
    (tmp_path / "sub" / "b.lang").write_text(text)
    lang = formats.load_language(str(tmp_path / "a.lang"))
    assert lang == theorem9_language(3)
    assert formats.load_language(str(tmp_path / "a.lang")) is lang
    assert formats.load_language(str(tmp_path / "sub" / "b.lang")) is lang


def test_crlf_language_file_gives_its_lf_twins_language(tmp_path):
    text = formats.serialize_language(theorem9_language(2)).replace("\n", " # note\n")
    (tmp_path / "lf.lang").write_bytes(text.encode())
    (tmp_path / "crlf.lang").write_bytes(text.replace("\n", "\r\n").encode())
    (tmp_path / "cr.lang").write_bytes(text.replace("\n", "\r").encode())
    lang = formats.load_language(str(tmp_path / "lf.lang"))
    assert formats.load_language(str(tmp_path / "crlf.lang")) is lang
    assert formats.load_language(str(tmp_path / "cr.lang")) is lang
    assert formats.read_text(str(tmp_path / "crlf.lang")) == text


def test_cnf_roundtrip(tmp_path):
    lang = theorem9_language(3)
    (tmp_path / "base.lang").write_text(formats.serialize_language(lang))
    text = "language base.lang\nvars x y z\nclause or3 x y z\nclause imp x y\n"
    f = formats.parse_cnf_formula(text, str(tmp_path))
    assert f.var_names == ("x", "y", "z")
    assert formats.parse_cnf_formula(formats.serialize_cnf_formula(f), str(tmp_path)) == f


def test_clauses_are_plain_tuples_the_collector_untracks(
    tmp_path, t9, bijunctive_full, affine_lang
):
    """Every clause the parser, `dual()`, the four minimizers and
    `unsat_minimum` build is an exact tuple of atoms, so the collector
    untracks it and a large formula adds nothing to its walks; so is every
    step of a parsed B-formula and of a `min_post` witness.  One collection
    need not untrack all of them: it may see a clause before the vars tuple
    inside it."""
    rng = random.Random(5)
    formulas = []
    for lang, minimize in (
        (t9, min_ihsb_cnf),
        (t9.dual(), min_ihsb_minus_cnf),
        (bijunctive_full, min_bijunctive),
        (affine_lang, min_affine),
    ):
        # clauses satisfied by one planted assignment, so the minimizer runs
        n, model, lines = 12, [rng.randrange(2) for _ in range(12)], []
        while len(lines) < 30:
            rel = rng.choice(lang.relations)
            ids = [rng.randrange(n) for _ in range(rel.arity)]
            if tuple(model[v] for v in ids) in rel.tuples:
                lines.append(f"clause {rel.name} " + " ".join(f"v{v}" for v in ids))
        name = f"lang{len(formulas)}.lang"
        (tmp_path / name).write_text(formats.serialize_language(lang))
        text = f"language {name}\nvars " + " ".join(f"v{i}" for i in range(n)) + "\n"
        parsed = formats.parse_cnf_formula(text + "\n".join(lines) + "\n", str(tmp_path))
        out, _ = minimize(parsed)
        assert len(out.clauses) < len(parsed.clauses)
        formulas += [parsed, parsed.dual(), out, unsat_minimum(parsed)[0]]
    clauses = [c for f in formulas for c in f.clauses]
    assert all(type(c) is tuple and type(c[1]) is tuple for c in clauses)
    # the Post side: the steps of parsed formulas and of min_post witnesses
    parsed = [
        formats.parse_bformula("(or2 x (or2 (or2 y x) (or2 z (or2 y u))))", (fn_or(2),)),
        formats.parse_bformula("(xor3 x (xor3 y x z) (xor3 u v v))", (fn_xor(3),)),
    ]
    witnesses = [min_post(f.functions, f, SizeMeasure.GATES)[1] for f in parsed]
    step_tuples = [f.steps for f in parsed + witnesses]
    steps = [step for t in step_tuples for step in t]
    gc.collect()
    gc.collect()
    assert not [c for c in clauses if gc.is_tracked(c)]
    assert not [step for step in steps if gc.is_tracked(step)]
    assert not [t for t in step_tuples if gc.is_tracked(t)]


def test_cnf_errors(tmp_path):
    lang = theorem9_language(3)
    (tmp_path / "base.lang").write_text(formats.serialize_language(lang))
    with pytest.raises(FormatError):
        formats.parse_cnf_formula("vars x\n", str(tmp_path))
    with pytest.raises(FormatError):
        formats.parse_cnf_formula(
            "language base.lang\nvars x\nclause or2 x q\n", str(tmp_path)
        )


def reference_parse_cnf_formula(text: str, base_dir: str = ".") -> CnfFormula:
    """The parser before its single pass: comments stripped from every line,
    then ids resolved, then every clause checked again by the public
    `CnfFormula` constructor."""
    language = None
    language_path = None
    var_names: list[str] = []
    saw_vars = False
    clause_specs: list[tuple[str, list[str]]] = []
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line.split())
    for tokens in lines:
        key = tokens[0]
        if key == "language":
            if language is not None:
                raise FormatError("duplicate language line")
            if len(tokens) != 2:
                raise FormatError("language expects exactly one path")
            language_path = tokens[1]
            language = formats.load_language(os.path.join(base_dir, language_path))
        elif key == "vars":
            if saw_vars:
                raise FormatError("duplicate vars line")
            saw_vars = True
            var_names = tokens[1:]
        elif key == "clause":
            if len(tokens) < 2:
                raise FormatError("clause line needs a relation name")
            clause_specs.append((tokens[1], tokens[2:]))
        else:
            raise FormatError(f"unexpected token {key!r} in formula file")
    if language is None:
        raise FormatError("formula file is missing a language line")
    index = {name: i for i, name in enumerate(var_names)}
    clauses = []
    for rel, args in clause_specs:
        try:
            ids = tuple(index[a] for a in args)
        except KeyError as exc:
            raise FormatError(f"clause {rel}: unknown variable {exc.args[0]!r}") from None
        clauses.append((rel, ids))
    return CnfFormula(language, tuple(var_names), tuple(clauses), language_path)


def _outcome(parse, text: str, base_dir: str):
    try:
        f = parse(text, base_dir)
    except (FormatError, OSError) as exc:
        return type(exc).__name__, str(exc)
    return f.language, f.var_names, f.clauses, f.language_path


# (relation, arity) of theorem9_language(3), plus names it does not hold
_RELATIONS = [("pos", 1), ("neg", 1), ("imp", 2), ("eq", 2), ("or2", 2), ("or3", 3)]


def _mutate(rng: random.Random, lines: list[str]) -> None:
    """Apply one fault (or a harmless variation) from the parser's error list."""
    kind = rng.choice((
        "unknown-var", "dup-name", "unknown-rel", "arity", "no-language", "dup-language",
        "language-args", "missing-language-file", "no-vars", "dup-vars", "late-vars",
        "bare-clause", "comment", "comment-line", "clause-first", "bad-key", "blank",
    ))
    clause_at = [i for i, line in enumerate(lines) if line.startswith("clause")]
    at = rng.randrange(len(lines) + 1)
    if kind == "unknown-var" and clause_at:
        i = rng.choice(clause_at)
        lines[i] += " q" + str(rng.randrange(3))
    elif kind == "dup-name":
        for i, line in enumerate(lines):
            if line.startswith("vars") and len(line.split()) > 1:
                lines[i] += " " + rng.choice(line.split()[1:])
    elif kind == "unknown-rel" and clause_at:
        i = rng.choice(clause_at)
        lines[i] = "clause nope " + " ".join(lines[i].split()[2:])
    elif kind == "arity" and clause_at:
        i = rng.choice(clause_at)
        tokens = lines[i].split()
        lines[i] = " ".join(tokens[:-1] if len(tokens) > 2 and rng.random() < 0.5
                            else tokens + tokens[-1:])
    elif kind == "no-language":
        lines[:] = [line for line in lines if not line.startswith("language")]
    elif kind == "dup-language":
        lines.insert(at, "language base.lang")
    elif kind == "language-args":
        lines.insert(at, "language base.lang other.lang")
    elif kind == "missing-language-file":
        lines[:] = ["language missing.lang" if line.startswith("language") else line
                    for line in lines]
    elif kind == "no-vars":
        lines[:] = [line for line in lines if not line.startswith("vars")]
    elif kind == "dup-vars":
        lines.insert(at, "vars a b")
    elif kind == "late-vars":
        vars_at = [i for i, line in enumerate(lines) if line.startswith("vars")]
        if vars_at:
            lines.append(lines.pop(vars_at[0]))
    elif kind == "bare-clause":
        lines.insert(at, "clause")
    elif kind == "comment" and lines:
        i = rng.randrange(len(lines))
        cut = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:cut] + " # " + lines[i][cut:]
    elif kind == "comment-line":
        lines.insert(at, "  # clause or3 x y z")
    elif kind == "clause-first":
        lines.insert(0, "clause imp x y")
    elif kind == "bad-key":
        lines.insert(at, "relation or2 arity 2")
    elif kind == "blank":
        lines.insert(at, rng.choice(("", "   ", "\t")))


def test_cnf_parser_matches_reference(tmp_path):
    """The single-pass parser gives the reference's formula, or its error:
    the same message, and the same first fault when a file has several."""
    (tmp_path / "base.lang").write_text(formats.serialize_language(theorem9_language(3)))
    base = str(tmp_path)
    rng = random.Random(11)
    errors = set()
    for _ in range(1500):
        names = [f"v{i}" for i in range(rng.randrange(1, 6))]
        lines = ["language base.lang", "vars " + " ".join(names)]
        for _ in range(rng.randrange(6)):
            rel, arity = rng.choice(_RELATIONS)
            lines.append(" ".join(["clause", rel] + [rng.choice(names) for _ in range(arity)]))
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            _mutate(rng, lines)
        sep = rng.choice(("\n", "\r\n", "\n\n"))
        text = sep.join(lines) + rng.choice(("", "\n", " # trailing\n"))
        expected = _outcome(reference_parse_cnf_formula, text, base)
        assert _outcome(formats.parse_cnf_formula, text, base) == expected, text
        if isinstance(expected[0], str):
            errors.add(expected[1].split(":")[0].split("'")[0])
    # the corpus reaches every kind of fault
    assert len(errors) >= 10, errors


@pytest.mark.parametrize("text, message", [
    # a line error anywhere beats an unknown variable in an earlier clause
    ("language base.lang\nvars x\nclause imp x q\nvars y\n", "duplicate vars line"),
    # without a vars line every name is unknown
    ("language base.lang\nclause imp x q\n", "clause imp: unknown variable 'x'"),
    # an unknown variable beats duplicate names, which beat relation faults
    ("language base.lang\nvars x x\nclause nope x\nclause imp x q\n",
     "clause imp: unknown variable 'q'"),
    ("language base.lang\nvars x x\nclause nope x\n", "duplicate variable names"),
    # relation faults are reported in clause order
    ("language base.lang\nvars x\nclause imp x\nclause nope x\n",
     "clause imp: got 1 arguments, arity is 2"),
    ("language base.lang\nvars x\nclause nope x\nclause imp x\n", "unknown relation 'nope'"),
    ("clause imp x y\nvars x y\nlanguage base.lang\nlanguage base.lang\n",
     "duplicate language line"),
    ("vars x\n", "formula file is missing a language line"),
])
def test_cnf_error_precedence(tmp_path, text, message):
    (tmp_path / "base.lang").write_text(formats.serialize_language(theorem9_language(3)))
    with pytest.raises(FormatError) as exc:
        formats.parse_cnf_formula(text, str(tmp_path))
    assert str(exc.value) == message
    assert _outcome(reference_parse_cnf_formula, text, str(tmp_path)) == ("FormatError", message)


def serialize_functions(funcs) -> str:
    """Basis-file text: one `function NAME arity K table BITS` line each."""
    return "".join(
        f"function {f.name} arity {f.arity} table {''.join(map(str, f.table))}\n" for f in funcs
    )


def test_function_roundtrip():
    funcs = (fn_or(2), fn_xor(3))
    text = serialize_functions(funcs)
    assert formats.parse_functions(text) == funcs


def test_function_table_length_checked():
    with pytest.raises(FormatError):
        formats.parse_functions("function f arity 2 table 011\n")
    # a huge arity is compared without building 2^arity
    with pytest.raises(FormatError, match=r"^function f: table length 2 != 2\^100000000000$"):
        formats.parse_functions("function f arity 100000000000 table 01\n")


def test_bformula_roundtrip():
    funcs = (fn_or(2),)
    f = formats.parse_bformula("(or2 x (or2 x y))", funcs)
    assert f.steps == ("x", "x", "y", ("or2", 2), ("or2", 2))
    assert formats.parse_bformula(formats.serialize_bformula(f), funcs) == f
    bare = formats.parse_bformula("x", funcs)
    assert bare.steps == ("x",)


def test_deep_bformula_roundtrip():
    # a right-nested chain 20000 deep, alternating which side nests
    funcs = (fn_or(2), fn_xor(3))
    root = "x"
    for i in range(20000):
        leaf = f"v{i % 7}"
        if i % 3 == 0:
            root = ("xor3", (leaf, root, leaf))
        else:
            root = ("or2", (leaf, root) if i % 2 else (root, leaf))
    f = BFormula(funcs, tree_steps(root))
    text = formats.serialize_bformula(f)
    assert text.startswith("(or2 ") and text.endswith(")\n")
    parsed = formats.parse_bformula(text, funcs)
    assert parsed == f and hash(parsed) == hash(f)
    assert_steps(parsed)
    assert_steps(f)
    dual = parsed.dual()
    assert_steps(dual)
    assert dual.dual() == parsed
    assert parsed.mask({f"v{i}": 0 for i in range(7)} | {"x": 1}, 1) == 1
    # repr and pickle read the flat steps, not the tree
    assert repr(parsed) == repr(f)
    assert pickle.loads(pickle.dumps(parsed)) == f


def test_bformula_errors():
    funcs = (fn_or(2),)
    for bad in ("", "(or2 x", "(or2 x y) z", "()", "(or2 x y z)"):
        with pytest.raises(FormatError):
            formats.parse_bformula(bad, funcs)


def _message(build) -> str:
    with pytest.raises(FormatError) as exc:
        build()
    return str(exc.value)


def _app(func, *args):
    """A nested-tuple tree node: a name is a variable."""
    return (func, args)


@pytest.mark.parametrize("text, root, message", [
    ("(nope x y)", _app("nope", "x", "y"), "unknown function 'nope'"),
    ("(or2 x y z)", _app("or2", "x", "y", "z"), "function or2: got 3 arguments, arity is 2"),
    ("(xor3 x (or2 y))", _app("xor3", "x", _app("or2", "y")),
     "function xor3: got 2 arguments, arity is 3"),
    # the root is checked before its arguments, though it closes after them
    ("(nope (or2 x) y)", _app("nope", _app("or2", "x"), "y"), "unknown function 'nope'"),
    ("(or2 (nope x) y z)", _app("or2", _app("nope", "x"), "y", "z"),
     "function or2: got 3 arguments, arity is 2"),
    # siblings are checked right to left, whatever their depth
    ("(xor3 (nope x) (or2 x) y)", _app("xor3", _app("nope", "x"), _app("or2", "x"), "y"),
     "function or2: got 1 arguments, arity is 2"),
    ("(xor3 (or2 x) (nope x) y)", _app("xor3", _app("or2", "x"), _app("nope", "x"), "y"),
     "unknown function 'nope'"),
    ("(or2 (or2 (or2 x)) (nope y))", _app("or2", _app("or2", _app("or2", "x")), _app("nope", "y")),
     "unknown function 'nope'"),
    ("(or2 (nope x) (or2 (or2 y)))", _app("or2", _app("nope", "x"), _app("or2", _app("or2", "y"))),
     "function or2: got 1 arguments, arity is 2"),
])
def test_bformula_tree_faults_match_validation(text, root, message):
    # the parser reports the fault, and the message, that BFormula's own
    # validation reports on the same tree's steps
    funcs = (fn_or(2), fn_xor(3))
    assert _message(lambda: BFormula(funcs, tree_steps(root))) == message
    assert _message(lambda: formats.parse_bformula(text, funcs)) == message


def test_bformula_duplicate_basis_names_come_first():
    funcs = (fn_or(2), fn_xor(3), fn_or(2))
    message = "duplicate function names in basis"
    for text, root in (
        ("(or2 x y)", _app("or2", "x", "y")),
        ("x", "x"),
        ("(nope (or2 x))", _app("nope", _app("or2", "x"))),
    ):
        assert _message(lambda: BFormula(funcs, tree_steps(root))) == message
        assert _message(lambda: formats.parse_bformula(text, funcs)) == message


def test_bformula_syntax_errors_come_before_tree_faults():
    funcs = (fn_or(2),)
    assert _message(lambda: formats.parse_bformula("(nope x", funcs)) == "unbalanced parentheses"
    assert _message(lambda: formats.parse_bformula("(or2 x) y", funcs)) == (
        "trailing tokens after B-formula expression"
    )


def test_bformula_comments():
    funcs = (fn_or(2),)
    text = """# leading comment
    (or2 x # after the first argument
      # a line of its own between the arguments
      (or2 y z))  # trailing comment
    """
    want = BFormula(funcs, tree_steps(_app("or2", "x", _app("or2", "y", "z"))))
    parsed = formats.parse_bformula(text, funcs)
    assert parsed == want
    assert_steps(parsed)
    assert _message(lambda: formats.parse_bformula("# only a comment\n", funcs)) == (
        "empty B-formula"
    )


def test_mee_header_roundtrip():
    funcs = (fn_or(2),)
    f = formats.parse_bformula("(or2 x y)", funcs)
    inst = MeeInstance(f, 3, SizeMeasure.LITERALS)
    text = formats.serialize_mee_instance(inst, fixed_negative=True)
    assert text == "mee bound=3 measure=literals fixed-negative=1\n(or2 x y)\n"
    plain = MeeInstance(f, 2, SizeMeasure.GATES)
    assert formats.serialize_mee_instance(plain).splitlines()[0] == "mee bound=2 measure=gates"
