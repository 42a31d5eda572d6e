"""Line-oriented text formats for relations, languages, formulas and
functions (UTF-8, `#` starts a comment)."""
from __future__ import annotations

import os
import re

from .errors import FormatError
from .model import (
    BApp,
    BFormula,
    BNode,
    BoolFunction,
    BVar,
    CnfFormula,
    ConstraintLanguage,
    MeeInstance,
    Relation,
    SizeMeasure,
)

_BIT_RE = re.compile(r"^[01]+$")


def _content_lines(text: str) -> list[list[str]]:
    """Token lists of non-empty lines with comments stripped."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _parse_tuple(token: str, arity: int, name: str) -> tuple[int, ...]:
    if not _BIT_RE.match(token) or len(token) != arity:
        raise FormatError(f"relation {name}: bad tuple token {token!r}")
    return tuple(int(ch) for ch in token)


def parse_language(text: str, base_dir: str = ".") -> ConstraintLanguage:
    """Parse a sequence of relation blocks and include lines."""
    return _parse_language_lines(_content_lines(text), base_dir, ())


def _parse_language_lines(
    lines: list[list[str]], base_dir: str, _including: tuple[str, ...]
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


def parse_relation(text: str) -> Relation:
    """Parse a file holding exactly one relation block."""
    lang = parse_language(text)
    if len(lang.relations) != 1:
        raise FormatError("expected exactly one relation in file")
    return lang.relations[0]


def load_language(path: str, _including: tuple[str, ...] = ()) -> ConstraintLanguage:
    """The language a file defines.  The file is read on every call, so an
    edited file is always seen.  An include-free text is parsed once and
    memoized by the text itself, so equal texts give the very same language
    (see `model` for what else is computed once per language).  A text with
    an include line is parsed on every call, since the files it includes may
    have changed.  A malformed text raises on every call."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
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


def parse_cnf_formula(text: str, base_dir: str = ".") -> CnfFormula:
    """Parse `language PATH`, `vars ...`, `clause REL var...` lines.

    Every check runs here, once per clause, so the result is built without
    `CnfFormula`'s own validation.  The first fault wins, in this order:
    line errors in file order, a missing language line, an unknown variable
    (in clause order), duplicate variable names, then an unknown relation
    or a wrong argument count (in clause order)."""
    language = None
    language_path = None
    var_names: list[str] = []
    saw_vars = False
    clause_lines: list[list[str]] = []
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
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
    del lines
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
    return CnfFormula._trusted(language, tuple(var_names), tuple(clauses), language_path)


def load_cnf_formula(path: str) -> CnfFormula:
    with open(path, encoding="utf-8") as fh:
        return parse_cnf_formula(fh.read(), os.path.dirname(path) or ".")


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
    with open(path, encoding="utf-8") as fh:
        return parse_functions(fh.read())


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_bformula(text: str, functions: tuple[BoolFunction, ...]) -> BFormula:
    """Parse a single parenthesized expression, e.g. `(or2 x (or2 x y))`."""
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = _TOKEN_RE.findall(stripped)
    if not tokens:
        raise FormatError("empty B-formula")
    tokens_left = iter(tokens)
    # one explicit stack of open applications: (function name, arguments so far)
    open_apps: list[tuple[str, list[BNode]]] = []
    for tok in tokens_left:
        if tok == "(":
            func = next(tokens_left, "(")
            if func in ("(", ")"):
                raise FormatError("expected a function name after '('")
            open_apps.append((func, []))
            continue
        if tok != ")":
            node: BNode = BVar(tok)
        elif open_apps:
            func, args = open_apps.pop()
            node = BApp(func, tuple(args))
        else:
            raise FormatError("unexpected ')'")
        if not open_apps:
            break
        open_apps[-1][1].append(node)
    else:
        raise FormatError("unbalanced parentheses")
    if next(tokens_left, None) is not None:
        raise FormatError("trailing tokens after B-formula expression")
    return BFormula(functions, node)


def load_bformula(path: str, functions: tuple[BoolFunction, ...]) -> BFormula:
    with open(path, encoding="utf-8") as fh:
        return parse_bformula(fh.read(), functions)


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


def serialize_function(f: BoolFunction) -> str:
    bits = "".join(str(b) for b in f.table)
    return f"function {f.name} arity {f.arity} table {bits}\n"


def serialize_functions(funcs: tuple[BoolFunction, ...]) -> str:
    return "".join(serialize_function(f) for f in funcs)


def serialize_bformula(formula: BFormula) -> str:
    """`(func arg ...)` text in one walk: the stack holds nodes still to
    emit and literal text (separators, closing parentheses) to copy, so each
    token is written once and joined at the end."""
    parts: list[str] = []
    stack: list[BNode | str] = [formula.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, BVar):
            parts.append(item.name)
        else:
            parts.append("(" + item.func)
            stack.append(")")
            for arg in reversed(item.args):
                stack.append(arg)
                stack.append(" ")
    parts.append("\n")
    return "".join(parts)


def mee_header(instance: MeeInstance, fixed_negative: bool = False) -> str:
    head = f"mee bound={instance.bound} measure={instance.measure.value}"
    if fixed_negative:
        head += " fixed-negative=1"
    return head


def serialize_mee_instance(
    instance: MeeInstance,
    fixed_negative: bool = False,
    language_path: str | None = None,
) -> str:
    head = mee_header(instance, fixed_negative)
    if isinstance(instance.formula, CnfFormula):
        body = serialize_cnf_formula(instance.formula, language_path)
    else:
        body = serialize_bformula(instance.formula)
    return head + "\n" + body


def parse_mee_header(line: str) -> tuple[int, SizeMeasure, bool]:
    tokens = line.split()
    if not tokens or tokens[0] != "mee":
        raise FormatError("expected a `mee` header line")
    bound = None
    measure = None
    negative = False
    for tok in tokens[1:]:
        key, _, value = tok.partition("=")
        if key == "bound":
            bound = int(value)
        elif key == "measure":
            measure = SizeMeasure(value)
        elif key == "fixed-negative":
            negative = value == "1"
        else:
            raise FormatError(f"unknown mee header key {key!r}")
    if bound is None or measure is None:
        raise FormatError("mee header needs bound= and measure=")
    return bound, measure, negative
