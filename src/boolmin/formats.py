"""Text formats for relations, languages, formulas, functions and DNFs
(UTF-8, `#` starts a comment).  This module alone decides where a path
resolves from and what `-` means.  Every file is read by `read_text`, where
`-` is standard input, read once; a relative path in a loaded file
(`include`, `language`) resolves from that file's directory, or from the
working directory for standard input.  A relation file is a language file
that defines one relation (`load_relation`).  Every format but the
B-formula's is line-based and read through one tokenizer, `_content_lines`;
a B-formula is one parenthesized expression, split at whitespace and
around parentheses."""
from __future__ import annotations

import os
import re
import sys

from .errors import FormatError
from .model import (
    BFormula,
    BoolFunction,
    CnfFormula,
    ConstraintLanguage,
    MeeInstance,
    Relation,
    Step,
    _validate,
)

_BIT_RE = re.compile(r"^[01]+$")


def _content_lines(text: str) -> list[tuple[str, ...]]:
    """The tokens of each non-empty line, comments stripped.  They are held
    in tuples, which the collector untracks, not in lists it walks (see
    `model`)."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return list(map(tuple, filter(None, map(str.split, lines))))


def _parse_tuple(token: str, arity: int, name: str) -> tuple[int, ...]:
    if not _BIT_RE.match(token) or len(token) != arity:
        raise FormatError(f"relation {name}: bad tuple token {token!r}")
    return tuple(int(ch) for ch in token)


def _parse_language_lines(
    lines: list[tuple[str, ...]], base_dir: str, _including: tuple[str, ...]
) -> ConstraintLanguage:
    """The language of a text's content lines.  `_including` holds the real
    paths of the files on the current include chain."""
    relations: list[Relation] = []
    i = 0
    while i < len(lines):
        tokens = lines[i]
        if tokens[0] == "include":
            if len(tokens) != 2:
                raise FormatError("include expects exactly one path")
            path = os.path.join(base_dir, tokens[1])
            relations.extend(load_language(path, _including).relations)
            i += 1
        elif tokens[0] == "relation":
            if len(tokens) != 4 or tokens[2] != "arity":
                raise FormatError(f"bad relation header: {' '.join(tokens)}")
            name = tokens[1]
            try:
                arity = int(tokens[3])
            except ValueError:
                raise FormatError(f"relation {name}: arity is not an integer") from None
            i += 1
            tuples = []
            while i < len(lines) and lines[i][0] not in ("relation", "include"):
                for tok in lines[i]:
                    tuples.append(_parse_tuple(tok, arity, name))
                i += 1
            relations.append(Relation(name, arity, frozenset(tuples)))
        else:
            raise FormatError(f"unexpected token {tokens[0]!r} in language file")
    return ConstraintLanguage(tuple(relations))


# the standard-input stream `read_text` has read, which it reads only once
_stdin_read = None


def read_text(path: str) -> str:
    """A file's UTF-8 text, with newlines translated as text mode does
    (`\r\n` and `\r` become `\n`), or standard input's for the path `-`.
    A file's bytes come in one unbuffered read: text mode would add a
    buffer, a decoder wrapper, a seek and a terminal check to every small
    file.  A NUL byte in the path, a text that is not UTF-8 or a second
    read of the same standard-input stream raises `FormatError`."""
    global _stdin_read
    if path == "-" and sys.stdin is _stdin_read:
        raise FormatError("standard input was already read")
    try:
        if path == "-":
            _stdin_read = sys.stdin
            return sys.stdin.read()
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except ValueError as exc:
        raise FormatError(f"{exc}: {path!r}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_language(path: str, _including: tuple[str, ...] = ()) -> ConstraintLanguage:
    """The language a file defines.  The file is read on every call, so an
    edited file is always seen.  An include-free text is parsed once and
    memoized by the text itself, so equal texts give the very same language
    (see `model` for what else is computed once per language).  A text with
    an include line is parsed on every call, since the files it includes may
    have changed.  A malformed text raises on every call."""
    text = read_text(path)
    lang = _include_free_languages.get(text)
    if lang is not None:
        return lang
    lines = _content_lines(text)
    if not any(tokens[0] == "include" for tokens in lines):
        lang = _include_free_languages[text] = _parse_language_lines(lines, ".", ())
        return lang
    # only a file with an include line can lie on an include cycle
    real = os.path.realpath(path)
    if real in _including:
        cycle = _including[_including.index(real):] + (real,)
        raise FormatError("include cycle: " + " -> ".join(cycle))
    return _parse_language_lines(lines, os.path.dirname(path) or ".", _including + (real,))


# the language of each include-free language text met so far
_include_free_languages: dict[str, ConstraintLanguage] = {}


def load_relation(path: str) -> Relation:
    """The one relation a language file defines, its includes resolved from
    the file's directory as `load_language` resolves them."""
    lang = load_language(path)
    if len(lang.relations) != 1:
        raise FormatError("expected exactly one relation in file")
    return lang.relations[0]


def parse_cnf_formula(text: str, base_dir: str = ".") -> CnfFormula:
    """Parse `language PATH`, `vars ...`, `clause REL var...` lines.

    Every check runs here, once per clause, so the result is built without
    `CnfFormula`'s own validation.  The first fault wins, in this order:
    line errors in file order, a missing language line, an unknown variable
    (in clause order), duplicate variable names, then an unknown relation
    or a wrong argument count (in clause order)."""
    language = None
    language_path = None
    var_names: tuple[str, ...] = ()
    saw_vars = False
    clause_lines: list[tuple[str, ...]] = []
    for tokens in _content_lines(text):
        key = tokens[0]
        if key == "clause":
            if len(tokens) < 2:
                raise FormatError("clause line needs a relation name")
            clause_lines.append(tokens)
        elif key == "vars":
            if saw_vars:
                raise FormatError("duplicate vars line")
            saw_vars = True
            var_names = tokens[1:]
        elif key == "language":
            if language is not None:
                raise FormatError("duplicate language line")
            if len(tokens) != 2:
                raise FormatError("language expects exactly one path")
            language_path = tokens[1]
            language = load_language(os.path.join(base_dir, language_path))
        else:
            raise FormatError(f"unexpected token {key!r} in formula file")
    if language is None:
        raise FormatError("formula file is missing a language line")
    # the name lookup bounds every id; an arity mismatch (None for an unknown
    # relation) is reported only after the unknown-variable and duplicate-name
    # checks, which come first
    index = {name: i for i, name in enumerate(var_names)}
    var_id = index.__getitem__
    arity = {r.name: r.arity for r in language.relations}.get
    clauses = []
    bad = None
    # each line's tokens are released once its clause is built
    clause_lines.reverse()
    while clause_lines:
        tokens = clause_lines.pop()
        rel = tokens[1]
        try:
            ids = tuple(map(var_id, tokens[2:]))
        except KeyError as exc:
            raise FormatError(f"clause {rel}: unknown variable {exc.args[0]!r}") from None
        if bad is None and arity(rel) != len(ids):
            bad = rel, ids
        clauses.append((rel, ids))
    if len(index) != len(var_names):
        raise FormatError("duplicate variable names")
    if bad is not None:
        rel, ids = bad
        expected = arity(rel)
        if expected is None:
            raise FormatError(f"unknown relation {rel!r}")
        raise FormatError(f"clause {rel}: got {len(ids)} arguments, arity is {expected}")
    return CnfFormula._trusted(language, var_names, tuple(clauses), language_path)


def load_cnf_formula(path: str, text: str | None = None) -> CnfFormula:
    """The formula in the file at `path`, whose language line resolves from
    the file's directory; `text` is the file's text, if it is read already."""
    if text is None:
        text = read_text(path)
    return parse_cnf_formula(text, os.path.dirname(path) or ".")


def is_cnf_text(text: str) -> bool:
    """True iff the text's first content line is a CNF formula line."""
    lines = _content_lines(text)
    return bool(lines) and lines[0][0] in ("language", "vars", "clause")


def parse_dnf(text: str) -> list[tuple[tuple[str, bool], ...]]:
    """Parse `term LIT...` lines, `~x` negating x, into terms of (variable,
    polarity) literals."""
    terms = []
    for tokens in _content_lines(text):
        if tokens[0] != "term":
            raise FormatError("DNF files contain `term LIT...` lines (~x negates)")
        term = []
        for tok in tokens[1:]:
            name = tok.removeprefix("~")
            if not name or name.startswith("~"):
                raise FormatError(f"DNF literal {tok!r} is not a variable or its negation")
            term.append((name, not tok.startswith("~")))
        terms.append(tuple(term))
    if not terms:
        raise FormatError("empty DNF")
    return terms


def parse_functions(text: str) -> tuple[BoolFunction, ...]:
    """Parse `function NAME arity K table BITS` lines (a basis file)."""
    funcs = []
    for tokens in _content_lines(text):
        if tokens[0] != "function" or len(tokens) != 6 or tokens[2] != "arity" or tokens[4] != "table":
            raise FormatError(f"bad function line: {' '.join(tokens)}")
        name = tokens[1]
        try:
            arity = int(tokens[3])
        except ValueError:
            raise FormatError(f"function {name}: arity is not an integer") from None
        bits = tokens[5]
        if not _BIT_RE.match(bits):
            raise FormatError(f"function {name}: table must be a bit string")
        funcs.append(BoolFunction(name, arity, tuple(int(b) for b in bits)))
    if not funcs:
        raise FormatError("no function lines found")
    return tuple(funcs)


def load_functions(path: str) -> tuple[BoolFunction, ...]:
    return parse_functions(read_text(path))


def parse_bformula(text: str, functions: tuple[BoolFunction, ...]) -> BFormula:
    """Parse a single parenthesized expression, e.g. `(or2 x (or2 x y))`.

    The token loop writes the formula's post-order steps (see `model`), the
    formula's one form: a variable as it is read, an application as it
    closes, when its name and arity are checked.  If every check passes,
    the formula is made from the steps without `BFormula`'s own
    validation.  Syntax errors come first.  After them, duplicate basis
    names or a wrong name or arity are reported by validating the steps,
    so the message and the fault reported first are those that
    `BFormula(functions, steps)` gives for the same steps."""
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise FormatError("empty B-formula")
    tokens_left = iter(tokens)
    arities = {f.name: f.arity for f in functions}
    checked = len(arities) == len(functions)
    steps: list[Step] = []
    # the innermost open application (None outside every application) and
    # its arguments so far; the enclosing ones wait on the stack
    func, n_args = None, 0
    enclosing: list[tuple[str | None, int]] = []
    for tok in tokens_left:
        if tok == "(":
            name = next(tokens_left, "(")
            if name in ("(", ")"):
                raise FormatError("expected a function name after '('")
            enclosing.append((func, n_args))
            func, n_args = name, 0
            continue
        if tok != ")":
            steps.append(tok)
        elif func is not None:
            steps.append((func, n_args))
            if arities.get(func) != n_args:
                checked = False
            func, n_args = enclosing.pop()
        else:
            raise FormatError("unexpected ')'")
        if func is None:
            break
        n_args += 1
    else:
        raise FormatError("unbalanced parentheses")
    if next(tokens_left, None) is not None:
        raise FormatError("trailing tokens after B-formula expression")
    if not checked:
        _validate(functions, steps)  # raises the fault that comes first
    return BFormula._trusted(functions, tuple(steps))


def load_bformula(path: str, functions: tuple[BoolFunction, ...]) -> BFormula:
    return parse_bformula(read_text(path), functions)


def serialize_relation(rel: Relation) -> str:
    rows = sorted(rel.tuples)
    body = " ".join("".join(str(b) for b in t) for t in rows)
    return f"relation {rel.name} arity {rel.arity}\n{body}\n"


def serialize_language(lang: ConstraintLanguage) -> str:
    return "\n".join(serialize_relation(r) for r in lang.relations)


def serialize_cnf_formula(formula: CnfFormula, language_path: str | None = None) -> str:
    path = language_path or formula.language_path
    if path is None:
        raise FormatError("no language path available for serialization")
    lines = [f"language {path}"]
    if formula.var_names:
        lines.append("vars " + " ".join(formula.var_names))
    name = formula.var_names.__getitem__
    for rel, vs in formula.clauses:
        lines.append("clause " + rel + " " + " ".join(map(name, vs)))
    return "\n".join(lines) + "\n"


def serialize_bformula(formula: BFormula) -> str:
    """`(func arg ...)` text, written from the post-order steps in one pass
    without a tree.  The steps reversed are the pre-order with arguments
    right to left, which is the text's token order reversed, except that an
    application's `(func` comes after its arguments: it waits on a stack
    with the count of arguments still to write."""
    out: list[str] = []
    waiting: list[tuple[str, int]] = []
    for step in reversed(formula.steps):
        if isinstance(step, str):
            out.append(step)
        else:
            func, arity = step
            out.append(")")
            if arity:
                waiting.append(("(" + func, arity))
                continue
            out.append("(" + func)
        # a subtree is written: it is an argument of the innermost waiting
        # application, which it may complete, and so on up
        while waiting:
            out.append(" ")
            head, left = waiting.pop()
            if left > 1:
                waiting.append((head, left - 1))
                break
            out.append(head)
    out.reverse()
    out.append("\n")
    return "".join(out)


def serialize_mee_instance(
    instance: MeeInstance,
    fixed_negative: bool = False,
    language_path: str | None = None,
) -> str:
    head = f"mee bound={instance.bound} measure={instance.measure.value}"
    if fixed_negative:
        head += " fixed-negative=1"
    if isinstance(instance.formula, CnfFormula):
        body = serialize_cnf_formula(instance.formula, language_path)
    else:
        body = serialize_bformula(instance.formula)
    return head + "\n" + body

