"""Seeded input generators; every input is text in the boolmin formats.

CNF generators plant a satisfying assignment and keep only clauses it
satisfies: unplanted random affine systems at these densities are almost
always inconsistent and would only exercise the unsatisfiable shortcut.
The nested-formula generator never stops early, so a formula has exactly
the requested number of leaves.
"""
from __future__ import annotations

import random

from textio import Cnf, write_cnf

# relation weights per language; units are rare so that few variables are
# pinned and the minimizers' graph/elimination work stays the main cost
WEIGHTS = {
    "ihsb_plus.lang": {"pos": 1, "neg": 1, "imp": 30, "eq": 4, "or2": 32, "or3": 32},
    "bijunctive.lang": {"pos": 1, "neg": 1, "or2": 20, "nand2": 20, "imp": 30, "eq": 4, "xor": 4},
    "affine.lang": {"pos": 1, "neg": 1, "odd2": 20, "even2": 20, "odd3": 29, "even3": 29},
}


def planted_cnf(rng: random.Random, lang_file: str, relations: dict, n: int, m: int) -> str:
    """m distinct-variable clauses over n variables, all satisfied by one
    random assignment."""
    plant = [rng.randrange(2) for _ in range(n)]
    names = list(WEIGHTS[lang_file])
    weights = [WEIGHTS[lang_file][r] for r in names]
    clauses: list[tuple[str, tuple[int, ...]]] = []
    while len(clauses) < m:
        rel = rng.choices(names, weights)[0]
        arity, tuples = relations[rel]
        ids = tuple(rng.sample(range(n), arity))
        if tuple(plant[v] for v in ids) in tuples:
            clauses.append((rel, ids))
    return write_cnf(Cnf(lang_file, [f"v{i}" for i in range(n)], clauses))


def dual_cnf(text: str, dual_lang_file: str) -> str:
    """The dual formula: every relation replaced by its complemented copy,
    which the dual language file names with a trailing `~`."""
    out = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "language":
            line = f"language {dual_lang_file}"
        elif tokens[0] == "clause":
            tokens[1] += "~"
            line = " ".join(tokens)
        out.append(line)
    return "\n".join(out) + "\n"


def random_cnf(rng: random.Random, lang_file: str, relations: dict, n: int, m: int) -> str:
    """Unfiltered random clauses (repeated variables allowed), as the
    acceptance tests draw them; some of these are unsatisfiable."""
    names = sorted(relations)
    clauses = []
    for _ in range(m):
        rel = rng.choice(names)
        clauses.append((rel, tuple(rng.randrange(n) for _ in range(relations[rel][0]))))
    return write_cnf(Cnf(lang_file, [f"v{i}" for i in range(n)], clauses))


def nested_formula(rng: random.Random, functions: dict, leaves: int, pool: list[str],
                   distinct: int | None = None) -> str:
    """A nested formula with exactly `leaves` variable leaves drawn from
    `pool`; each gate splits its leaf budget at random cut points.  With
    `distinct`, the leaves use exactly that many variables of the pool."""
    names = None
    if distinct is not None:
        chosen = rng.sample(pool, distinct)
        names = chosen + [rng.choice(chosen) for _ in range(leaves - distinct)]
        rng.shuffle(names)

    def build(budget: int) -> str:
        if budget == 1:
            return names.pop() if names is not None else rng.choice(pool)
        usable = sorted(name for name, (arity, _) in functions.items() if 1 <= arity <= budget)
        name = rng.choice(usable)
        arity = functions[name][0]
        cuts = [0] + sorted(rng.sample(range(1, budget), arity - 1)) + [budget]
        parts = [b - a for a, b in zip(cuts, cuts[1:])]
        return "(" + name + " " + " ".join(build(p) for p in parts) + ")"

    return build(leaves) + "\n"
