"""The four workloads: seeded corpora, the call sequence one operation
replays, and the independent check of its output.

An operation replays what `boolmin minimize` / `boolmin minimize-post` do
after reading their files (parse -> classify -> minimize -> serialize), plus
the oracle calls of the acceptance tests on `oracle-check`.  Functions are
looked up on the modules at call time, so a traced run sees every call.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import check
import gen
import textio

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
LANGUAGES = ("ihsb_plus.lang", "ihsb_minus.lang", "bijunctive.lang", "affine.lang")
BASES = ("or.fns", "xor.fns", "and.fns")
MEASURES = ("literals", "gates")
# the variable pool of the acceptance tests' random nested formulas
TEST_POOL = ["x", "y", "u", "v"]
# brute_min_bformula's bound by the number of variables in the formula: the
# tests use 7, which at 4 variables takes 1..5 s a call, so the bound falls
# as the search's truth tables widen (bound 4 at 4 variables: 0.2..0.4 s)
BRUTE_BOUNDS = {1: 7, 2: 7, 3: 5, 4: 4}

# the verdict -> minimizer table of `boolmin minimize`
MINIMIZERS = {
    "P-affine": ("affine", "min_affine"),
    "P-bijunctive": ("bijunctive", "min_bijunctive"),
    "P-ihsb+": ("ihsb", "min_ihsb_cnf"),
    "P-ihsb-": ("ihsb", "min_ihsb_minus_cnf"),
}


class OpError(Exception):
    """The program refused an input the workload expects it to accept."""


@dataclass
class Item:
    """One generated input and the parameters of the operation run on it."""

    kind: str
    text: str
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ladder: str
    # the corpus as cycles: each cycle mixes the ladder's sizes in fixed
    # counts, so that every size gets a similar share of the run time
    cycles: list[list[Item]]

    def items(self) -> list[Item]:
        return [item for cycle in self.cycles for item in cycle]


@dataclass
class Result:
    """What an operation produced: its output text and the values it reported."""

    text: str
    reported: dict


# --- operations --------------------------------------------------------------


def _minimize(bm, text: str):
    formula = bm.formats.parse_cnf_formula(text, DATA)
    report = bm.classify.classify_language(formula.language)
    if report.irreducibility_caveat or report.verdict not in MINIMIZERS:
        raise OpError(f"verdict {report.verdict} has no polynomial minimizer")
    module, name = MINIMIZERS[report.verdict]
    out, _ = getattr(getattr(bm, module), name)(formula)
    # an unsatisfiable input yields the cached minimum formula, which has no
    # language path of its own; `minimize --language-out` supplies the input's
    return formula, out, bm.formats.serialize_cnf_formula(out, formula.language_path)


def _post(bm, item: Item, bases: dict):
    basis = bm.formats.parse_functions(bases[item.params["basis"]])
    formula = bm.formats.parse_bformula(item.text, basis)
    measure = bm.model.SizeMeasure(item.params["measure"])
    result = bm.post.min_post(basis, formula, measure)
    if result is None:
        raise OpError("min_post found no witness for a formula built from its basis")
    size, witness, _ = result
    return basis, formula, measure, size, bm.formats.serialize_bformula(witness)


def run_op(bm, item: Item, bases: dict) -> Result:
    if item.kind == "cnf":
        _, _, text = _minimize(bm, item.text)
        return Result(text, {})
    if item.kind == "post":
        *_, size, text = _post(bm, item, bases)
        return Result(text, {"size": size})
    if item.kind == "brute":
        formula, out, text = _minimize(bm, item.text)
        found = bm.oracle.brute_min_cnf(formula.language, formula, max(1, len(formula.clauses)))
        return Result(text, {"brute": None if found is None else found[0]})
    if item.kind == "tables":
        formula, out, text = _minimize(bm, item.text)
        return Result(text, {
            "equivalent": bm.model.equivalent(out, formula),
            "satisfiable": bm.model.satisfiable(out),
            "solutions": bin(out.solution_mask()).count("1"),
        })
    if item.kind == "post-brute":
        basis, formula, measure, size, text = _post(bm, item, bases)
        found = bm.oracle.brute_min_bformula(basis, formula, measure, item.params["bound"])
        return Result(text, {"size": size, "brute": None if found is None else found[0]})
    raise ValueError(f"unknown operation kind {item.kind}")


# --- checks ------------------------------------------------------------------


def output_size(item: Item, result: Result) -> int:
    """Clause count of a CNF output, or the reported witness size."""
    if "size" in result.reported:
        return result.reported["size"]
    return len(textio.read_cnf(result.text).clauses)


def check_result(item: Item, result: Result, langs: check.Languages, funcs: dict) -> str | None:
    """None if the output is right, else the reason it is not."""
    if item.kind in ("post", "post-brute"):
        why = check.check_tree(
            item.text, result.text, funcs[item.params["basis"]],
            item.params["measure"], result.reported["size"],
        )
        if why or item.kind == "post":
            return why
        size, brute = result.reported["size"], result.reported["brute"]
        expected = size if size <= item.params["bound"] else None
        return None if brute == expected else f"brute force found {brute}, min_post {size}"
    why = check.check_cnf(item.text, result.text, langs)
    if why or item.kind == "cnf":
        return why
    clauses = len(textio.read_cnf(result.text).clauses)
    if item.kind == "brute":
        brute = result.reported["brute"]
        return None if brute == clauses else f"brute force found {brute} clauses, minimizer {clauses}"
    table = check.solution_table(textio.read_cnf(result.text), langs)
    expect = {"equivalent": True, "satisfiable": table != 0, "solutions": bin(table).count("1")}
    wrong = {k: v for k, v in result.reported.items() if expect[k] != v}
    return f"oracle reported {wrong}, expected {expect}" if wrong else None


# --- corpora -----------------------------------------------------------------


def _cnf_item(rng, tables, lang: str, n: int, m: int, kind: str = "cnf") -> Item:
    if lang == "ihsb_minus.lang":
        text = gen.dual_cnf(gen.planted_cnf(rng, "ihsb_plus.lang", tables["ihsb_plus.lang"], n, m), lang)
    else:
        text = gen.planted_cnf(rng, lang, tables[lang], n, m)
    return Item(kind, text, {"n": n, "m": m})


def _post_item(rng, funcs, basis: str, measure: str, leaves: int, pool: list[str], kind="post",
               distinct: int | None = None, **extra) -> Item:
    text = gen.nested_formula(rng, funcs[basis], leaves, pool, distinct)
    return Item(kind, text, {"basis": basis, "measure": measure, "leaves": leaves, **extra})


def _cycles(n_cycles: int, mix) -> list[list[Item]]:
    """`mix` lists (count, make): each cycle holds `count` items, the k-th
    item of an entry's stream being make(k)."""
    return [
        [make(c * count + j) for count, make in mix for j in range(count)]
        for c in range(n_cycles)
    ]


def _ladder(k: int, lo: float, hi: float, alpha: float = 0.6180339887498949) -> float:
    """The k-th size of a ladder that fills lo..hi evenly (a Weyl sequence).

    Sizes depend on the position only, so every seed gets the same sizes and
    the seed decides the formulas; the latency quantiles then measure the
    program, not which sizes a seed happened to draw.
    """
    return lo + (k * alpha) % 1.0 * (hi - lo)


def cnf_fixpoint(rng, tables, funcs) -> Workload:
    # the fixpoint's cost varies about 50% between formulas of one size, so
    # sizes stay small enough for several hundred formulas per pass
    lo, hi = 24, 40

    def make(k):
        n = round(_ladder(k // 2, lo, hi))
        return _cnf_item(rng, tables, LANGUAGES[k % 2], n, round(1.2 * n))

    return Workload(
        "cnf-fixpoint",
        "planted IHSB+ over the Theorem 9 vocabulary and, alternating, the dual of one for "
        f"IHSB-; n spread evenly over {lo}..{hi}, m = 1.2n",
        _cycles(90, [(6, make)]),
    )


def cnf_linear(rng, tables, funcs) -> Workload:
    def bijunctive(k):
        n = round(_ladder(k, 100, 300))
        return _cnf_item(rng, tables, "bijunctive.lang", n, round(_ladder(k, 1.0, 3.0, 0.7548776662) * n))

    def affine(k):
        n = round(_ladder(k, 600, 1200))
        return _cnf_item(rng, tables, "affine.lang", n, round(_ladder(k, 0.9, 1.5, 0.7548776662) * n))

    return Workload(
        "cnf-linear",
        "per cycle one planted bijunctive formula (n over 100..300, m/n over 1..3) and one "
        "planted affine system (n over 600..1200, m/n over 0.9..1.5), spread evenly",
        _cycles(45, [(1, bijunctive), (1, affine)]),
    )


def oracle_check(rng, tables, funcs) -> Workload:
    def brute(k):
        lang = LANGUAGES[k % 4]
        return Item("brute", gen.random_cnf(rng, lang, tables[lang], 4 + k % 3, 1 + k % 4))

    # one size for the truth-table items: at 2^n cost, n = 12..14 would form
    # clusters, and the tail percentile would fall in the gap between two
    def table(k):
        return _cnf_item(rng, tables, LANGUAGES[k % 4], 12, 16, "tables")

    # the acceptance tests' draw: up to 6 leaves over x, y, u, v.  The brute
    # force searches the formula's variables plus a fresh one, and its cost
    # depends on that count, the basis, the measure and the bound only, so
    # the count follows the position and the seed draws the formula
    def post(k):
        distinct = 1 + k % 4
        leaves = distinct + (k // 4) % (7 - distinct)
        return _post_item(rng, funcs, BASES[(k // 4) % 3], MEASURES[(k // 12) % 2], leaves,
                          TEST_POOL, "post-brute", distinct=distinct,
                          bound=BRUTE_BOUNDS[distinct])

    return Workload(
        "oracle-check",
        "per cycle: 2 random CNF (n=4..6, 1..4 clauses) vs brute_min_cnf; 1 planted CNF "
        "(n=12, 16 clauses) through equivalent/satisfiable/solution_mask; 4 nested formulas "
        "(1..6 leaves over 1..4 of x, y, u, v; every basis, measure and count twice per pass) "
        "vs brute_min_bformula at bound 7 (1-2 variables), 5 (3) or 4 (4)",
        _cycles(12, [(2, brute), (1, table), (4, post)]),
    )


def post_dp(rng, tables, funcs) -> Workload:
    lo, hi = 64, 112

    def make(k):
        n_vars = round(_ladder(k, 8, 16, 0.7548776662))
        return _post_item(rng, funcs, BASES[k % 3], MEASURES[(k // 3) % 2],
                          round(_ladder(k, lo, hi)), [f"x{i}" for i in range(n_vars)])

    return Workload(
        "post-dp",
        "per cycle each basis (or2+or3, xor2+xor3, and2) under each measure (literals, gates); "
        f"nested formulas with exactly n leaves, n spread evenly over {lo}..{hi}, over 8..16 "
        "variables",
        _cycles(9, [(6, make)]),
    )


WORKLOADS = {
    "cnf-fixpoint": cnf_fixpoint,
    "cnf-linear": cnf_linear,
    "oracle-check": oracle_check,
    "post-dp": post_dp,
}


def basis_texts() -> dict[str, str]:
    """Basis file contents, which operations parse as the CLI does."""
    out = {}
    for basis in BASES:
        with open(os.path.join(DATA, basis), encoding="utf-8") as fh:
            out[basis] = fh.read()
    return out


def build(name: str, seed: int) -> tuple[Workload, check.Languages, dict]:
    """The workload's corpus for `seed`, plus the relation and function
    tables the checks need."""
    tables = {lang: textio.read_language(os.path.join(DATA, lang)) for lang in LANGUAGES}
    funcs = {basis: textio.read_functions(os.path.join(DATA, basis)) for basis in BASES}
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, tables, funcs), tables, funcs
