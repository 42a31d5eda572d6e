"""The benchmark's own reader for the boolmin text formats.

Generators and checkers use this instead of `boolmin.formats`, so that a
defect in the package's parser or serializer cannot hide a wrong output.
"""
from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def _lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def read_language(path: str) -> dict[str, tuple[int, frozenset[tuple[int, ...]]]]:
    """Relation name -> (arity, allowed tuples) of a language file without
    `include` lines."""
    with open(path, encoding="utf-8") as fh:
        lines = _lines(fh.read())
    rels: dict[str, tuple[int, frozenset[tuple[int, ...]]]] = {}
    i = 0
    while i < len(lines):
        tokens = lines[i]
        i += 1
        if tokens[0] != "relation" or len(tokens) != 4:
            raise ValueError(f"{path}: bad relation header {tokens}")
        name, arity = tokens[1], int(tokens[3])
        tuples = set()
        while i < len(lines) and lines[i][0] != "relation":
            tuples.update(tuple(int(ch) for ch in tok) for tok in lines[i])
            i += 1
        rels[name] = (arity, frozenset(tuples))
    return rels


def read_functions(path: str) -> dict[str, tuple[int, tuple[int, ...]]]:
    """Function name -> (arity, truth table with x1 as the high bit)."""
    with open(path, encoding="utf-8") as fh:
        return {t[1]: (int(t[3]), tuple(int(b) for b in t[5])) for t in _lines(fh.read())}


class Cnf:
    """A parsed CNF text: language file, variable names, clauses as
    (relation, variable indices)."""

    def __init__(self, language: str, var_names: list[str], clauses: list[tuple[str, tuple[int, ...]]]):
        self.language = language
        self.var_names = var_names
        self.clauses = clauses


def read_cnf(text: str) -> Cnf:
    language = None
    var_names: list[str] = []
    raw: list[tuple[str, list[str]]] = []
    for tokens in _lines(text):
        if tokens[0] == "language":
            language = tokens[1]
        elif tokens[0] == "vars":
            var_names = tokens[1:]
        elif tokens[0] == "clause":
            raw.append((tokens[1], tokens[2:]))
        else:
            raise ValueError(f"unexpected line {tokens}")
    if language is None:
        raise ValueError("CNF text without a language line")
    index = {name: i for i, name in enumerate(var_names)}
    return Cnf(language, var_names, [(rel, tuple(index[a] for a in args)) for rel, args in raw])


def write_cnf(cnf: Cnf) -> str:
    lines = [f"language {cnf.language}"]
    if cnf.var_names:
        lines.append("vars " + " ".join(cnf.var_names))
    for rel, ids in cnf.clauses:
        lines.append("clause " + rel + " " + " ".join(cnf.var_names[v] for v in ids))
    return "\n".join(lines) + "\n"


def read_tree(text: str):
    """Nested formula as a tuple tree: a str leaf or (func, child, ...).

    Built iteratively, so deep formulas need no recursion.
    """
    stack: list[list] = [[]]
    tokens = _TOKEN_RE.findall(text)
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            stack.append([tokens[i + 1]])
            i += 2
            continue
        if tok == ")":
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            stack[-1].append(tok)
        i += 1
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("unbalanced nested formula")
    return stack[0][0]


def tree_leaves(tree) -> list[str]:
    out, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        else:
            todo.extend(node[1:])
    return out


def tree_gates(tree) -> int:
    count, todo = 0, [tree]
    while todo:
        node = todo.pop()
        if not isinstance(node, str):
            count += 1
            todo.extend(node[1:])
    return count
