import io
import os
import random
import re
import subprocess
import sys

import pytest

import boolmin
from boolmin import cli, formats
from boolmin.cli import main
from boolmin.gadgets import eval_dnf
from boolmin.model import all_assignments, equivalent, satisfiable
from boolmin.std import theorem9_language


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.lang").write_text(formats.serialize_language(theorem9_language(3)))
    (tmp_path / "f.cnf").write_text(
        "language base.lang\nvars x y z\nclause or2 x y\nclause or3 x y z\n"
    )
    (tmp_path / "basis.fns").write_text(
        "function or2 arity 2 table 0111\nfunction or3 arity 3 table 01111111\n"
    )
    (tmp_path / "phi.bf").write_text("(or2 x (or2 x y))\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_language(workdir, capsys):
    code, out = run(capsys, "classify", "--language", "base.lang")
    assert code == 0
    assert "verdict=P-ihsb+" in out


def test_classify_basis(workdir, capsys):
    code, out = run(capsys, "classify", "--basis", "basis.fns")
    assert code == 0
    assert "verdict=P-or" in out


@pytest.mark.parametrize("table, verdict, shape", [
    ("0001", "P-and", "and"),
    ("0110", "P-xor", "xor"),
    ("1001", "P-xor", "xor"),
    ("0010", "coNP-hard", "none"),
])
def test_classify_basis_names_each_shape(workdir, capsys, table, verdict, shape):
    (workdir / "one.fns").write_text(
        f"function f arity 2 table {table}\nfunction c arity 0 table 1\n"
    )
    code, out = run(capsys, "classify", "--basis", "one.fns")
    assert code == 0
    assert out == f"verdict={verdict}\nf.shape={shape}\nc.shape=or/and/xor\n"


def test_minimize_roundtrip(workdir, capsys):
    code, out = run(capsys, "minimize", "--formula", "f.cnf", "--stats")
    assert code == 0
    assert "# output_clauses=1" in out
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    minimized = formats.parse_cnf_formula(body, str(workdir))
    original = formats.load_cnf_formula(str(workdir / "f.cnf"))
    assert equivalent(minimized, original)
    assert len(minimized.clauses) == 1


def test_minimize_affine_stats_end_with_reductions(capsys):
    demo = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "data", "equations.cnf")
    code, out = run(capsys, "minimize", "--formula", demo, "--stats")
    assert code == 0
    stats = [line for line in out.splitlines() if line.startswith("# ")]
    # variable rows over the clauses (x+y, y+z, x+z): x = 101, y = 110 and
    # z = 011.  y's row reduces once, to 011, and z's once, to 0; the
    # constants row 110 reduces twice to 0: four row XORs, and consistent
    assert stats == [
        "# input_clauses=3", "# output_clauses=2", "# passes=0", "# rank=2", "# reductions=4",
    ]


def test_minimize_refuses_horn(workdir, capsys):
    (workdir / "horn.lang").write_text(
        "relation horn2 arity 3\n000 001 010 011 100 101 111\n"
    )
    (workdir / "h.cnf").write_text("language horn.lang\nvars x y z\nclause horn2 x y z\n")
    code = main(["minimize", "--formula", "h.cnf"])
    assert code == 4
    assert capsys.readouterr().err == (
        "error: verdict=NP-complete-horn; no polynomial minimizer applies\n"
    )


def test_minimize_refuses_reducible(workdir, capsys):
    (workdir / "red.lang").write_text("relation top arity 1\n0 1\n")
    (workdir / "r.cnf").write_text("language red.lang\nvars x\nclause top x\n")
    code = main(["minimize", "--formula", "r.cnf"])
    assert code == 4
    assert capsys.readouterr().err == (
        "error: language contains reducible relations; minimization is "
        "guaranteed only for irreducible languages\n"
    )


def test_minimize_post(workdir, capsys):
    code, out = run(
        capsys, "minimize-post", "--basis", "basis.fns", "--formula", "phi.bf",
        "--measure", "literals", "--stats",
    )
    assert code == 0
    assert "# min_size=2" in out
    assert "(or2 x y)" in out


def test_minimize_post_without_result_is_an_internal_error(workdir, capsys, monkeypatch):
    # the formula is parsed over the basis, so min_post must find a witness
    monkeypatch.setattr(cli, "min_post", lambda *args: None)
    code = main(
        ["minimize-post", "--basis", "basis.fns", "--formula", "phi.bf", "--measure", "gates"]
    )
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal error: RuntimeError: ")


@pytest.mark.parametrize("measure, expected", [
    ("literals", "# measure=literals\n# min_size=4\n# tuple=(0,4,4)\n(and3 (and2 y z) w x)\n"),
    ("gates", "# measure=gates\n# min_size=2\n# tuple=(0,4,4)\n(and3 (and2 y z) w x)\n"),
])
def test_minimize_post_and_basis_output(workdir, capsys, measure, expected):
    # every line but the count of settled cells, which depends on where the
    # pass stops; the tuple is the cell of the dual OR formula
    (workdir / "and.fns").write_text(
        "function and2 arity 2 table 0001\nfunction and3 arity 3 table 00000001\n"
    )
    (workdir / "and.bf").write_text("(and3 (and2 x y) (and2 y z) (and2 w x))\n")
    code, out = run(
        capsys, "minimize-post", "--basis", "and.fns", "--formula", "and.bf",
        "--measure", measure, "--stats",
    )
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert sum(line.startswith("# reach_states=") for line in lines) == 1
    assert "".join(line for line in lines if not line.startswith("# reach_states=")) == expected


def test_irreducible_exit_codes(workdir, capsys):
    (workdir / "or3.rel").write_text("relation or3 arity 3\n001 010 011 100 101 110 111\n")
    assert main(["irreducible", "--relation", "or3.rel"]) == 0
    (workdir / "full.rel").write_text("relation full arity 2\n00 01 10 11\n")
    assert main(["irreducible", "--relation", "full.rel"]) == 1


def test_equiv_exit_codes(workdir, capsys):
    (workdir / "g.cnf").write_text(
        "language base.lang\nvars x y z\nclause or3 x x y\nclause or2 y x\n"
    )
    assert main(["equiv", "--a", "f.cnf", "--b", "g.cnf"]) == 0
    (workdir / "h.cnf").write_text("language base.lang\nvars x\nclause pos x\n")
    assert main(["equiv", "--a", "f.cnf", "--b", "h.cnf"]) == 1


def test_equiv_bformulas(workdir, capsys):
    (workdir / "a.bf").write_text("(or2 x y)\n")
    (workdir / "b.bf").write_text("(or2 y x)\n")
    assert main(["equiv", "--a", "a.bf", "--b", "b.bf", "--basis", "basis.fns"]) == 0


def test_oracle_subcommands(workdir, capsys):
    code, out = run(capsys, "oracle", "min-cnf", "--formula", "f.cnf", "--max-clauses", "4")
    assert code == 0 and "min_clauses=1" in out
    code, out = run(
        capsys, "oracle", "min-bf", "--basis", "basis.fns", "--formula", "phi.bf",
        "--measure", "literals", "--max-size", "6",
    )
    assert code == 0 and "min_size=2" in out
    (workdir / "imp.rel").write_text("relation imp arity 2\n00 01 11\n")
    code, out = run(
        capsys, "oracle", "expressible", "--relation", "imp.rel", "--base", "base.lang",
        "--max-clauses", "8",
    )
    assert code == 0 and "expressible=true" in out
    code, out = run(capsys, "oracle", "min-unsat", "--language", "base.lang", "--max-clauses", "3")
    assert code == 0 and "min_unsat_clauses=2" in out
    (workdir / "or.lang").write_text("relation or2 arity 2\n01 10 11\n")
    code, out = run(capsys, "oracle", "min-unsat", "--language", "or.lang", "--max-clauses", "3")
    assert code == 1 and "min_unsat=none" in out


def test_oracle_min_cnf_other_language_output_loads(workdir, capsys):
    # the witness names the --language file, whose relations its clauses use
    (workdir / "p.lang").write_text("relation p1 arity 1\n1\nrelation p2 arity 2\n01 10 11\n")
    code, out = run(
        capsys, "oracle", "min-cnf", "--formula", "f.cnf", "--language", "p.lang",
        "--max-clauses", "4",
    )
    assert code == 0 and out.startswith("min_clauses=1\n")
    (workdir / "w.cnf").write_text(out.split("\n", 1)[1])
    witness = formats.load_cnf_formula(str(workdir / "w.cnf"))
    assert os.path.samefile(witness.language_path, workdir / "p.lang")
    assert witness.clauses[0][0] == "p2"
    assert main(["equiv", "--a", "w.cnf", "--b", "f.cnf"]) == 0


@pytest.mark.parametrize("argv", [
    ["min-cnf", "--formula", "sub/g.cnf"],
    ["min-cnf", "--formula", "sub/g.cnf", "--language", "sub/l.lang"],
    ["min-unsat", "--language", "sub/l.lang"],
])
def test_oracle_witness_loads_from_another_directory(workdir, capsys, argv):
    # the witness names its language by absolute path, so it loads wherever
    # it is saved; without --language the path is the input's own, resolved
    # against the input's directory
    (workdir / "sub").mkdir()
    (workdir / "sub" / "l.lang").write_text(formats.serialize_language(theorem9_language(3)))
    (workdir / "sub" / "g.cnf").write_text(
        "language l.lang\nvars x y z\nclause or2 x y\nclause or3 x y z\n"
    )
    code, out = run(capsys, "oracle", *argv, "--max-clauses", "3")
    assert code == 0
    (workdir / "elsewhere").mkdir()
    saved = workdir / "elsewhere" / "w.cnf"
    saved.write_text(out.split("\n", 1)[1])
    witness = formats.load_cnf_formula(str(saved))
    assert os.path.samefile(witness.language_path, workdir / "sub" / "l.lang")


@pytest.mark.parametrize("argv, what", [
    (["min-cnf", "--formula", "f.cnf"], "min-cnf"),
    (["min-unsat"], "min-unsat"),
])
def test_oracle_language_from_stdin_is_written_first(workdir, capsys, monkeypatch, argv, what):
    # a language read from standard input has no path to name: its block
    # comes first, and the witness names the file it is to be saved as
    monkeypatch.setattr(sys, "stdin", io.StringIO((workdir / "base.lang").read_text()))
    code, out = run(capsys, "oracle", *argv, "--language", "-", "--max-clauses", "3")
    assert code == 0 and "/-" not in out
    head, rest = out.split("\n", 1)
    assert head.startswith("min_")
    lang_text, formula_text = rest.split(f"# {what} formula (clauses reference the relations above)\n")
    assert lang_text.startswith(f"# {what} language\n")
    assert formula_text.startswith(f"language {what}.lang\n")
    (workdir / "saved").mkdir()
    (workdir / "saved" / f"{what}.lang").write_text(lang_text)
    (workdir / "saved" / "w.cnf").write_text(formula_text)
    witness = formats.load_cnf_formula(str(workdir / "saved" / "w.cnf"))
    assert witness.language == theorem9_language(3)
    if what == "min-cnf":
        assert main(["equiv", "--a", "saved/w.cnf", "--b", "f.cnf"]) == 0
    else:
        assert not satisfiable(witness)


@pytest.mark.parametrize("argv", [
    ["min-cnf", "--formula", "f.cnf"],
    ["expressible", "--relation", "imp.rel", "--base", "base.lang"],
    ["min-unsat", "--language", "base.lang"],
])
def test_oracle_negative_clause_bound_is_malformed(workdir, capsys, argv):
    (workdir / "imp.rel").write_text("relation imp arity 2\n00 01 11\n")
    code = main(["oracle", *argv, "--max-clauses", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "clause bound must be nonnegative" in captured.err


def test_dualize_writes_language(workdir, capsys):
    code, _ = run(capsys, "dualize", "--formula", "f.cnf", "--out", "dual.cnf")
    assert code == 0
    dual = formats.load_cnf_formula(str(workdir / "dual.cnf"))
    original = formats.load_cnf_formula(str(workdir / "f.cnf"))
    assert dual == original.dual()


def test_gadget_unsat_cnf(workdir, capsys):
    (workdir / "xor.lang").write_text("relation odd2 arity 2\n01 10\n")
    (workdir / "u.cnf").write_text("language xor.lang\nvars x\nclause odd2 x x\n")
    code, out = run(capsys, "gadget", "unsat-cnf", "--formula", "u.cnf")
    assert code == 0
    assert out.startswith("mee bound=1 measure=clauses")
    (workdir / "s.cnf").write_text("language xor.lang\nvars x y\nclause odd2 x y\n")
    code, out = run(capsys, "gadget", "unsat-cnf", "--formula", "s.cnf")
    assert code == 1
    assert "fixed-negative=1" in out.splitlines()[0]


def test_gadget_unsat_post(workdir, capsys):
    (workdir / "an.fns").write_text("function andnot arity 2 table 0010\n")
    (workdir / "psi.bf").write_text("(andnot x x)\n")
    (workdir / "target.bf").write_text("(andnot y y)\n")
    code, out = run(
        capsys, "gadget", "unsat-post", "--basis", "an.fns", "--psi", "psi.bf",
        "--formula", "target.bf", "--measure", "literals",
    )
    assert code == 0 and out.startswith("mee bound=2 measure=literals")


def test_gadget_and_or(workdir, capsys):
    (workdir / "g.fns").write_text(
        "function and2 arity 2 table 0001\nfunction orT arity 3 table 00010111\n"
    )
    (workdir / "fand.bf").write_text("(and2 x y)\n")
    (workdir / "for.bf").write_text("(orT x y t)\n")
    (workdir / "h1.bf").write_text("x\n")
    (workdir / "h2.bf").write_text("(and2 x x)\n")
    code, out = run(
        capsys, "gadget", "and-or", "--basis", "g.fns", "--f-and", "fand.bf",
        "--f-or", "for.bf", "--h1", "h1.bf", "--h2", "h2.bf",
    )
    assert code == 0 and out.startswith("mee bound=")


def test_gadget_horn_dnf(workdir, capsys):
    (workdir / "d.dnf").write_text("term x ~y\nterm x z ~w\n")
    code, out = run(capsys, "gadget", "horn-dnf", "--dnf", "d.dnf")
    assert code == 0
    # the language block comes first, since the clauses name its relation
    assert out.index("relation horn2 arity 3") < out.index("clause horn2 x x y")


def test_gadget_horn_dnf_out_loads(workdir, capsys):
    (workdir / "d.dnf").write_text("term x ~y\nterm x z ~w\nterm y w ~z\n")
    code, out = run(capsys, "gadget", "horn-dnf", "--dnf", "d.dnf", "--out", "horn.cnf")
    assert code == 0 and out == ""
    assert (workdir / "horn.cnf").read_text().startswith("language horn.cnf.lang\n")
    loaded = formats.load_cnf_formula(str(workdir / "horn.cnf"))
    terms = formats.parse_dnf((workdir / "d.dnf").read_text())
    for bits in all_assignments(loaded.n_vars):
        values = dict(zip(loaded.var_names, bits))
        assert loaded.mask(bits, 1) == 1 - eval_dnf(terms, values)


def test_minimize_unsatisfiable_input(workdir, capsys):
    # the minimum unsatisfiable formula is written over the input's language file
    (workdir / "u.cnf").write_text("language base.lang\nvars x y\nclause pos x\nclause neg x\n")
    code, out = run(capsys, "minimize", "--formula", "u.cnf")
    assert code == 0
    minimized = formats.parse_cnf_formula(out, str(workdir))
    assert minimized.language_path == "base.lang"
    assert not satisfiable(minimized) and len(minimized.clauses) == 2


def test_gen_random_deterministic(workdir, capsys):
    code, out1 = run(capsys, "gen-random", "--language", "base.lang", "--vars", "4",
                     "--clauses", "3", "--seed", "9")
    code2, out2 = run(capsys, "gen-random", "--language", "base.lang", "--vars", "4",
                      "--clauses", "3", "--seed", "9")
    assert code == code2 == 0 and out1 == out2
    parsed = formats.parse_cnf_formula(out1, str(workdir))
    assert len(parsed.clauses) == 3


def test_malformed_inputs_are_described(workdir, capsys):
    argv = ["gen-random", "--language", "base.lang", "--vars", "0", "--clauses", "3", "--seed", "9"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: clauses need at least one variable\n"
    (workdir / "double.dnf").write_text("term x ~~y\n")
    assert main(["gadget", "horn-dnf", "--dnf", "double.dnf"]) == 2
    assert capsys.readouterr().err == (
        "error: DNF literal '~~y' is not a variable or its negation\n"
    )


def test_malformed_input_exit_code(workdir, capsys):
    (workdir / "bad.cnf").write_text("language base.lang\nvars x\nclause or2 x q\n")
    assert main(["minimize", "--formula", "bad.cnf"]) == 2
    assert main(["minimize", "--formula", "missing.cnf"]) == 2


def test_unreadable_language_exits_malformed(workdir, capsys):
    # the messages of a file opened and decoded in text mode
    (workdir / "latin1.lang").write_bytes(b"relation pos arity 1\n1 # caf\xe9\n")
    (workdir / "dir.lang").mkdir()
    for lang, message in (
        ("latin1.lang", "'utf-8' codec can't decode byte 0xe9 in position 28: invalid continuation byte"),
        ("dir.lang", "[Errno 21] Is a directory: './dir.lang'"),
    ):
        (workdir / "g.cnf").write_text(f"language {lang}\nvars x\nclause pos x\n")
        assert main(["minimize", "--formula", "g.cnf"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_internal_error_is_not_a_decision(workdir, capsys, monkeypatch):
    def crash(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_classify", crash)
    assert main(["classify", "--basis", "basis.fns"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: KeyError: 'boom'\n"

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_classify", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["classify", "--basis", "basis.fns"])


# --- the exit-code contract under malformed and extreme inputs ---------------

DEPTH = 3000


def _deep(text: str) -> str:
    return "(or2 x " * DEPTH + text.strip() + ")" * DEPTH + "\n"


def _extra_files(workdir) -> None:
    """Inputs for the subcommands the fixture files do not cover."""
    files = {
        "self.lang": "include self.lang\nrelation pos arity 1\n1\n",
        "a.lang": "include b.lang\n",
        "b.lang": "include a.lang\nrelation pos arity 1\n1\n",
        "deep.bf": _deep("y"),
        "y.bf": "y\n",
        "or3.rel": "relation or3 arity 3\n001 010 011 100 101 110 111\n",
        "imp.rel": "relation imp arity 2\n00 01 11\n",
        "xor.lang": "relation odd2 arity 2\n01 10\n",
        "u.cnf": "language xor.lang\nvars x\nclause odd2 x x\n",
        "an.fns": "function andnot arity 2 table 0010\n",
        "huge.fns": "function f arity 100000000000 table 01\n",
        "psi.bf": "(andnot x x)\n",
        "target.bf": "(andnot y y)\n",
        "g.fns": "function and2 arity 2 table 0001\nfunction orT arity 3 table 00010111\n"
                 "function maj arity 3 table 00010111\n",
        "fand.bf": "(and2 x y)\n",
        "for.bf": "(orT x y t)\n",
        "fmaj.bf": "(maj x y z)\n",
        "h1.bf": "x\n",
        "h2.bf": "(and2 x x)\n",
        "d.dnf": "term x ~y\nterm x z ~w\n",
        "bare.dnf": "term x ~\n",
        "double.dnf": "term x ~~y\n",
        "comments.dnf": "# no terms\n",
        "wide.cnf": "language base.lang\nvars " + " ".join(f"v{i}" for i in range(25))
                    + "\nclause or2 v0 v24\n",
    }
    for name, text in files.items():
        (workdir / name).write_text(text)


# every subcommand, with the files its run may have mutated
FUZZ_CASES = [
    (["classify", "--language", "base.lang"], ["base.lang"]),
    (["classify", "--basis", "basis.fns"], ["basis.fns"]),
    (["minimize", "--formula", "f.cnf", "--stats"], ["f.cnf", "base.lang"]),
    (["minimize-post", "--basis", "basis.fns", "--formula", "phi.bf", "--measure", "literals"],
     ["phi.bf", "basis.fns"]),
    (["minimize-post", "--basis", "basis.fns", "--formula", "phi.bf", "--measure", "gates",
      "--stats"], ["phi.bf"]),
    (["irreducible", "--relation", "or3.rel"], ["or3.rel"]),
    (["equiv", "--a", "f.cnf", "--b", "u.cnf"], ["f.cnf", "u.cnf"]),
    (["equiv", "--a", "phi.bf", "--b", "y.bf", "--basis", "basis.fns"], ["phi.bf", "y.bf"]),
    (["dualize", "--formula", "f.cnf"], ["f.cnf", "base.lang"]),
    (["oracle", "min-cnf", "--formula", "f.cnf", "--max-clauses", "3"], ["f.cnf"]),
    (["oracle", "min-bf", "--basis", "basis.fns", "--formula", "phi.bf", "--measure",
      "literals", "--max-size", "3"], ["phi.bf", "basis.fns"]),
    (["oracle", "expressible", "--relation", "imp.rel", "--base", "base.lang",
      "--max-clauses", "3"], ["imp.rel", "base.lang"]),
    (["oracle", "min-unsat", "--language", "xor.lang", "--max-clauses", "3"], ["xor.lang"]),
    (["gadget", "unsat-post", "--basis", "an.fns", "--psi", "psi.bf", "--formula",
      "target.bf", "--measure", "literals"], ["an.fns", "psi.bf", "target.bf"]),
    (["gadget", "unsat-cnf", "--formula", "u.cnf"], ["u.cnf", "xor.lang"]),
    (["gadget", "and-or", "--basis", "g.fns", "--f-and", "fand.bf", "--f-or", "for.bf",
      "--h1", "h1.bf", "--h2", "h2.bf"], ["g.fns", "fand.bf", "for.bf", "h1.bf", "h2.bf"]),
    (["gadget", "maj", "--basis", "g.fns", "--f-maj", "fmaj.bf", "--h1", "h1.bf",
      "--h2", "h1.bf"], ["fmaj.bf", "h1.bf"]),
    (["gadget", "horn-dnf", "--dnf", "d.dnf"], ["d.dnf"]),
    (["gen-random", "--language", "base.lang", "--vars", "4", "--clauses", "3",
      "--seed", "9"], ["base.lang"]),
]

# the inputs that once escaped the contract, with their exit codes
CONTRACT_CASES = [
    (["classify", "--language", "self.lang"], 2),
    (["classify", "--language", "a.lang"], 2),
    (["minimize-post", "--basis", "basis.fns", "--formula", "deep.bf", "--measure",
      "literals"], 0),
    (["minimize-post", "--basis", "basis.fns", "--formula", "deep.bf", "--measure",
      "gates"], 0),
    (["equiv", "--a", "deep.bf", "--b", "phi.bf", "--basis", "basis.fns"], 0),
    (["oracle", "min-bf", "--basis", "basis.fns", "--formula", "phi.bf", "--measure",
      "literals", "--max-size", "-1"], 2),
    (["gadget", "horn-dnf", "--dnf", "bare.dnf"], 2),
    (["gen-random", "--language", "base.lang", "--vars", "-1", "--clauses", "0", "--seed", "9"],
     2),
    (["gen-random", "--language", "base.lang", "--vars", "4", "--clauses", "-1", "--seed", "9"],
     2),
    (["gadget", "horn-dnf", "--dnf", "double.dnf"], 2),
    (["gen-random", "--language", "base.lang", "--vars", "0", "--clauses", "3", "--seed", "9"],
     2),
    (["gen-random", "--language", "base.lang", "--vars", "0", "--clauses", "0", "--seed", "9"],
     0),
    (["classify", "--basis", "huge.fns"], 2),
]

# inputs that reach a negative decision, a resource cap or an empty input,
# with their exit codes, the stream they write to and all that they write there
DECISION_CASES = [
    (["oracle", "min-cnf", "--formula", "f.cnf", "--max-clauses", "0"], 1,
     "out", "min_clauses=none\n"),
    (["oracle", "min-bf", "--basis", "basis.fns", "--formula", "phi.bf", "--measure",
      "literals", "--max-size", "1"], 1, "out", "min_size=none\n"),
    (["oracle", "min-cnf", "--formula", "f.cnf", "--max-clauses", "9"], 3,
     "err", "error: clause bound capped at 8\n"),
    (["oracle", "min-bf", "--basis", "basis.fns", "--formula", "phi.bf", "--measure",
      "literals", "--max-size", "9"], 3, "err", "error: brute_min_bformula bound capped at 8\n"),
    (["equiv", "--a", "wide.cnf", "--b", "wide.cnf"], 3,
     "err", "error: operation would enumerate 2^25 assignments (cap 24 variables)\n"),
    (["gadget", "horn-dnf", "--dnf", "comments.dnf"], 2, "err", "error: empty DNF\n"),
]
CONTRACT_CASES += [(argv, code) for argv, code, _, _ in DECISION_CASES]

_PIECE_RE = re.compile(r"\s+|[()]|[^\s()]+")


def _mutate(rng: random.Random, name: str, text: str, vocabulary: list[str]) -> str:
    # the deep wrap costs a full run on 6000 nodes, so it is drawn less often
    kind = rng.choices(("drop", "insert", "swap", "truncate", "include", "deep"),
                       weights=(3, 3, 3, 2, 1, 1))[0]
    if kind == "truncate":
        return text[: rng.randrange(len(text) + 1)]
    if kind == "include":
        return f"include {name}\n" + text
    if kind == "deep":
        return _deep(text)
    pieces = _PIECE_RE.findall(text)
    words = [i for i, p in enumerate(pieces) if not p.isspace()]
    i, j = rng.choice(words), rng.choice(words)
    if kind == "drop":
        del pieces[i]
    elif kind == "insert":
        pieces.insert(i, f" {rng.choice(vocabulary)} ")
    else:
        pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


@pytest.mark.parametrize("argv, expected", CONTRACT_CASES)
def test_contract_cases(workdir, capsys, argv, expected):
    _extra_files(workdir)
    assert main(argv) == expected
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected, stream, text", DECISION_CASES)
def test_decision_cases_write_one_line(workdir, capsys, argv, expected, stream, text):
    _extra_files(workdir)
    assert main(argv) == expected
    assert getattr(capsys.readouterr(), stream) == text


def test_seeded_cli_fuzz(workdir, capsys):
    _extra_files(workdir)
    pristine = {p.name: p.read_text() for p in workdir.iterdir()}
    # the words of the fuzzed files only, so that a fixture added for another
    # test leaves the seeded inputs as they are
    fuzzed = {name for _, names in FUZZ_CASES for name in names}
    vocabulary = sorted({w for name in fuzzed for w in _PIECE_RE.findall(pristine[name])
                         if not w.isspace()} | {"include", "-1", "0", "9"})
    rng = random.Random(2011)
    codes = set()
    for _ in range(300):
        argv, names = rng.choice(FUZZ_CASES)
        name = rng.choice(names)
        (workdir / name).write_text(_mutate(rng, name, pristine[name], vocabulary))
        code = main(argv)
        err = capsys.readouterr().err
        assert 0 <= code <= 4, (argv, name, (workdir / name).read_text()[:200], err)
        assert "Traceback" not in err
        codes.add(code)
        (workdir / name).write_text(pristine[name])
    assert {0, 2} <= codes


def test_contract_with_asserts_stripped(workdir):
    # `python -O` strips every assert: the contract must not rest on one
    _extra_files(workdir)
    src = os.path.dirname(os.path.dirname(boolmin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, expected in (CONTRACT_CASES[2], CONTRACT_CASES[0]):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "boolmin.cli", *argv],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == expected, proc.stderr
        assert "Traceback" not in proc.stderr
