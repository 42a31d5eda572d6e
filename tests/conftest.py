"""Shared helpers: standard languages and seeded random generators."""
from __future__ import annotations

import random

import pytest

from boolmin.model import BApp, BFormula, BVar, CnfFormula, ConstraintLanguage
from boolmin.std import (
    rel_eq,
    rel_impl,
    rel_nand,
    rel_neg,
    rel_or,
    rel_parity,
    rel_pos,
    rel_xor,
    theorem9_language,
)


@pytest.fixture(scope="session")
def t9():
    return theorem9_language(3)


@pytest.fixture(scope="session")
def bijunctive_full():
    return ConstraintLanguage(
        (rel_pos(), rel_neg(), rel_or(2), rel_nand(2), rel_impl(), rel_eq(), rel_xor())
    )


@pytest.fixture(scope="session")
def affine_lang():
    return ConstraintLanguage(
        (rel_pos(), rel_neg(), rel_parity(2, 0, "even2"), rel_parity(2, 1, "odd2"),
         rel_parity(3, 0, "even3"), rel_parity(3, 1, "odd3"))
    )


def random_cnf(lang: ConstraintLanguage, rng: random.Random, n_vars: int, n_clauses: int) -> CnfFormula:
    clauses = []
    for _ in range(n_clauses):
        rel = rng.choice(lang.relations)
        ids = tuple(rng.randrange(n_vars) for _ in range(rel.arity))
        clauses.append((rel.name, ids))
    return CnfFormula(lang, tuple(f"v{i}" for i in range(n_vars)), tuple(clauses))


def random_btree(basis, rng: random.Random, leaf_budget: int, var_pool="xyuv"):
    if leaf_budget <= 1:
        return BVar(rng.choice(var_pool))
    usable = [f for f in basis if 1 <= f.arity <= leaf_budget]
    if not usable or rng.random() < 0.15:
        return BVar(rng.choice(var_pool))
    f = rng.choice(usable)
    parts = [1] * f.arity
    for _ in range(leaf_budget - f.arity):
        parts[rng.randrange(f.arity)] += 1
    return BApp(f.name, tuple(random_btree(basis, rng, p, var_pool) for p in parts))


def random_bformula(basis, rng: random.Random, leaf_budget: int) -> BFormula:
    return BFormula(tuple(basis), random_btree(basis, rng, leaf_budget))
