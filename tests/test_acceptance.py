"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are exact (0); every expected value is computed by the
brute-force oracles or by independent re-derivation, never assumed.
"""
import itertools
import random

from boolmin.affine import min_affine
from boolmin.bijunctive import min_bijunctive
from boolmin.classify import (
    closed_under,
    find_positive_horn_witness,
    is_irreducible,
    relation_flags,
)
from boolmin.formats import parse_bformula
from boolmin.gadgets import (
    build_and_or_gadget,
    build_maj_gadget,
    eval_dnf,
    pure_horn_dnf_to_cnf,
    reduce_unsat_to_mee_cnf,
    reduce_unsat_to_mee_post,
)
from boolmin.ihsb import min_ihsb_cnf, min_ihsb_minus_cnf
from boolmin.model import (
    BFormula,
    BoolFunction,
    CnfFormula,
    ConstraintLanguage,
    Relation,
    SizeMeasure,
    all_assignments,
    dualize,
    equivalent,
    satisfiable,
)
from boolmin.oracle import brute_min_bformula, brute_min_cnf, expressible
from boolmin.post import min_post, relevant_variables
from boolmin.std import (
    fn_and,
    fn_or,
    fn_xor,
    rel_eq,
    rel_horn_impl,
    rel_impl,
    rel_nand,
    rel_neg,
    rel_or,
    rel_parity,
    rel_pos,
    rel_xor,
)

from conftest import (
    clause_mask,
    clause_to_equation,
    gate_lower_bound,
    random_bformula,
    random_cnf,
)


def _report(num: int, description: str, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num}] {status}: {description}")
    assert not problems, f"criterion {num} failed: {problems[:3]}"


def test_criterion_1_ihsb_optimality(t9):
    rng = random.Random(101)
    problems = []
    checked = 0
    while checked < 500:
        f = random_cnf(t9, rng, rng.randint(2, 6), rng.randint(1, 6))
        if not satisfiable(f):
            continue
        checked += 1
        out, _ = min_ihsb_cnf(f)
        if not equivalent(out, f):
            problems.append(("not equivalent", f.clauses))
            continue
        oracle = brute_min_cnf(t9, f, max(1, len(f.clauses)))
        if oracle is None or len(out.clauses) != oracle[0]:
            problems.append(("count mismatch", f.clauses, len(out.clauses)))
    _report(1, f"IHSB+ optimality on {checked} random satisfiable formulas", problems)


def _components(formula: CnfFormula):
    pos = {vs for rel, vs in formula.clauses if rel == "pos"}
    neg = {vs for rel, vs in formula.clauses if rel == "neg"}
    imp = {vs for rel, vs in formula.clauses if rel == "imp"}
    eq = {vs for rel, vs in formula.clauses if rel == "eq"}
    ors = {tuple(sorted(vs)) for rel, vs in formula.clauses if rel in ("or2", "or3")}
    return pos, neg, imp, eq, ors


def test_criterion_2_canonical_components(t9):
    rng = random.Random(103)
    problems = []
    pairs = 0
    while pairs < 100:
        f = random_cnf(t9, rng, rng.randint(2, 5), rng.randint(1, 5))
        if not satisfiable(f):
            continue
        mask = f.solution_mask()
        # add up to three implied clauses, implication verified on the mask
        extra = []
        attempts = 0
        while len(extra) < 3 and attempts < 60:
            attempts += 1
            rel = rng.choice(t9.relations)
            ids = tuple(rng.randrange(f.n_vars) for _ in range(rel.arity))
            cmask = clause_mask(rel, ids, f.n_vars)
            if cmask & mask == mask:
                extra.append((rel.name, ids))
        if not extra:
            continue
        pairs += 1
        g = CnfFormula(t9, f.var_names, f.clauses + tuple(extra))
        out_f, _ = min_ihsb_cnf(f)
        out_g, _ = min_ihsb_cnf(g)
        if _components(out_f) != _components(out_g):
            problems.append((f.clauses, tuple(extra)))
    _report(2, f"canonical components agree on {pairs} equivalent pairs", problems)


def _independent_rank(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_criterion_3_affine(affine_lang):
    rng = random.Random(107)
    problems = []
    checked = 0
    for _ in range(250):
        f = random_cnf(affine_lang, rng, rng.randint(2, 6), rng.randint(1, 6))
        out, stats = min_affine(f)
        if not equivalent(out, f):
            problems.append(("not equivalent", f.clauses))
            continue
        if not satisfiable(f):
            continue
        checked += 1
        n = out.n_vars
        rows = [
            [(co >> i) & 1 for i in range(n)] + [c]
            for co, c in (
                clause_to_equation(cl, affine_lang.get(cl[0])) for cl in out.clauses
            )
        ]
        if stats.rank != _independent_rank(rows) or len(out.clauses) != stats.rank:
            problems.append(("rank mismatch", f.clauses))
        solutions = sum(out.mask(bits, 1) for bits in all_assignments(n))
        if solutions != 1 << (n - stats.rank):
            problems.append(("solution count", f.clauses))
        if n <= 6:
            oracle = brute_min_cnf(affine_lang, f, max(1, len(f.clauses)))
            if oracle is None or len(out.clauses) != oracle[0]:
                problems.append(("oracle mismatch", f.clauses))
    # one large instance exercises the solution-count law at n = 16
    big = random_cnf(affine_lang, random.Random(109), 16, 10)
    out, stats = min_affine(big)
    if satisfiable(big):
        solutions = sum(out.mask(bits, 1) for bits in all_assignments(16))
        if solutions != 1 << (16 - stats.rank):
            problems.append(("16-var solution count",))
    _report(3, f"affine rank/solution law on {checked} satisfiable instances", problems)


def test_criterion_4_bijunctive():
    rng = random.Random(113)
    base = {
        "pos": rel_pos(), "neg": rel_neg(), "or2": rel_or(2), "nand2": rel_nand(2),
        "imp": rel_impl(), "eq": rel_eq(), "xor": rel_xor(),
    }
    names = list(base)
    languages = [ConstraintLanguage(tuple(base[n] for n in combo))
                 for r in (1, 2, 3)
                 for combo in itertools.combinations(names, r)]
    languages.append(ConstraintLanguage(tuple(base.values())))
    problems = []
    checked = 0
    while checked < 300:
        lang = rng.choice(languages)
        f = random_cnf(lang, rng, rng.randint(2, 5), rng.randint(1, 6))
        checked += 1
        out, _ = min_bijunctive(f)
        if not equivalent(out, f):
            problems.append(("not equivalent", [r.name for r in lang.relations], f.clauses))
            continue
        if satisfiable(f):
            oracle = brute_min_cnf(lang, f, max(1, len(f.clauses)))
            if oracle is None or len(out.clauses) != oracle[0]:
                problems.append(("count", [r.name for r in lang.relations], f.clauses))
    _report(4, f"bijunctive optimality on {checked} random instances", problems)


def test_criterion_5_post_dp():
    rng = random.Random(127)
    bases = {
        "or2": (fn_or(2),),
        "or3": (fn_or(3),),
        "or2+or3": (fn_or(2), fn_or(3)),
        "and2": (fn_and(2),),
        "xor2": (fn_xor(2),),
        "xor3": (fn_xor(3),),
    }
    problems = []
    memo = {}
    for bname, basis in bases.items():
        cls = {"or2": "V", "or3": "V", "or2+or3": "V", "and2": "E", "xor2": "L", "xor3": "L"}[bname]
        for _ in range(200):
            phi = random_bformula(basis, rng, rng.randint(1, 6))
            rel, c = relevant_variables(phi, cls)
            for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
                result = min_post(basis, phi, measure)
                if result is None:
                    problems.append((bname, "no result"))
                    continue
                size, witness, _ = result
                if not equivalent(witness, phi):
                    problems.append((bname, "witness not equivalent"))
                    continue
                # brute-force expectation, memoized on the semantic target:
                # renaming maps any two targets with equal (c, l) onto each other
                key = (bname, measure, c, len(rel))
                if key not in memo:
                    oracle = brute_min_bformula(basis, phi, measure, 7)
                    memo[key] = None if oracle is None else oracle[0]
                if memo[key] != size:
                    problems.append((bname, measure.value, c, len(rel), size, memo[key]))
                max_arity = max(f.arity for f in basis)
                if measure is SizeMeasure.GATES and len(rel) >= 2:
                    if size < gate_lower_bound(len(rel), max_arity):
                        problems.append((bname, "gate bound violated"))
    _report(5, "tuple DP matches brute force on 6 bases x 200 formulas x 2 measures", problems)


def _nonempty_relations(arity):
    rows = list(all_assignments(arity))
    for mask in range(1, 1 << len(rows)):
        yield frozenset(t for i, t in enumerate(rows) if (mask >> i) & 1)


def _definition_bases():
    # section-3 style base lists, truncated at arity 3: instantiating a
    # higher-arity family member on at most 3 distinct variables collapses
    # (OR/NAND repeats are idempotent, parity repeats cancel, premise repeats
    # in implications are idempotent), so nothing is lost
    affine = ConstraintLanguage(
        (rel_pos("x"), rel_neg("nx"),
         rel_parity(1, 0, "p10"), rel_parity(1, 1, "p11"),
         rel_parity(2, 0, "p20"), rel_parity(2, 1, "p21"),
         rel_parity(3, 0, "p30"), rel_parity(3, 1, "p31"))
    )
    binary = ConstraintLanguage(
        tuple(
            Relation(f"b{i}", 2, tuples)
            for i, tuples in enumerate(_nonempty_relations(2))
        )
    )
    horn = ConstraintLanguage(
        (rel_pos("x"), rel_neg("nx"),
         rel_nand(1, "n1"), rel_nand(2, "n2"), rel_nand(3, "n3"),
         rel_impl("i1"), rel_horn_impl(2, "i2"))
    )
    ihsb_plus = ConstraintLanguage(
        (rel_pos("x"), rel_neg("nx"), rel_impl("imp"),
         rel_or(1, "o1"), rel_or(2), rel_or(3))
    )
    return {
        "affine": ("xor3", affine),
        "bijunctive": ("maj3", binary),
        "horn": ("min2", horn),
        "dual_horn": ("max2", horn.dual()),
        "ihsb_plus": ("orAndMix", ihsb_plus),
        "ihsb_minus": ("andOrMix", ihsb_plus.dual()),
    }


def test_criterion_6_classification_crosscheck():
    bases = _definition_bases()
    # closure tests agree with definitional expressibility on every nonempty
    # relation of arity at most 3 (255 of arity exactly 3, plus the smaller ones)
    closure_problems = []
    for arity in (1, 2, 3):
        for tuples in _nonempty_relations(arity):
            rel = Relation("r", arity, tuples)
            for prop, (op, base) in bases.items():
                by_closure = closed_under(rel, op)
                by_search = expressible(rel, base, 8)
                if by_closure != by_search:
                    closure_problems.append((prop, arity, sorted(tuples)))

    # irreducible IHSB+ relations of arity <= 4 are, up to permutation,
    # literals, implication, equality or an OR
    lemma_targets = {
        1: [frozenset({(1,)}), frozenset({(0,)})],
        2: [rel_impl().tuples,
            frozenset({(0, 0), (1, 0), (1, 1)}),
            rel_eq().tuples,
            rel_or(2).tuples],
        3: [rel_or(3).tuples],
        4: [rel_or(4).tuples],
    }
    lemma_problems = []
    for arity in (1, 2, 3, 4):
        for tuples in _nonempty_relations(arity):
            rel = Relation("r", arity, tuples)
            if not is_irreducible(rel):
                continue
            if not closed_under(rel, "max2"):
                continue
            if not closed_under(rel, "orAndMix"):
                continue
            if tuples not in lemma_targets[arity]:
                lemma_problems.append(("lemma13", arity, sorted(tuples)))

    # structural-witness existence for every irreducible Horn, not-IHSB-
    # singleton language of arity <= 3.  KNOWN RED: relations with cyclic
    # implication structure such as x <-> (y and z) are irreducible, Horn and
    # not IHSB- but are no permutation of an implication relation, so no
    # witness can exist; the check is kept as stated rather than weakened.
    witness_problems = []
    for arity in (1, 2, 3):
        for tuples in _nonempty_relations(arity):
            rel = Relation("r", arity, tuples)
            flags = relation_flags(rel)
            if not (flags.irreducible and flags.horn and not flags.ihsb_minus):
                continue
            if find_positive_horn_witness(ConstraintLanguage((rel,))) is None:
                witness_problems.append((arity, sorted(tuples)))

    parts = [
        ("closure-vs-expressibility", closure_problems),
        ("irreducible-ihsb+-shapes", lemma_problems),
        ("horn-witness-existence", witness_problems),
    ]
    summary = "; ".join(
        f"{name}={'PASS' if not probs else f'FAIL({len(probs)})'}" for name, probs in parts
    )
    status = "PASS" if not any(probs for _, probs in parts) else "FAIL"
    print(f"[criterion 6] {status}: {summary}")
    assert not closure_problems, closure_problems[:3]
    assert not lemma_problems, lemma_problems[:3]
    assert not witness_problems, (
        "witness existence fails on cyclic Horn relations such as x <-> (y and z); "
        f"counterexamples: {witness_problems[:3]}"
    )


def test_criterion_7_reduction_soundness():
    rng = random.Random(131)
    problems = []
    andnot = BoolFunction("andnot", 2, (0, 0, 1, 0))
    psi = parse_bformula("(andnot x x)", (andnot,))
    checked = 0
    for _ in range(200):
        steps = (rng.choice("xy"),)
        for _ in range(rng.randint(1, 3)):
            other = (rng.choice("xy"),)
            steps = (steps + other if rng.random() < 0.5 else other + steps) + (("andnot", 2),)
        phi = BFormula((andnot,), steps)
        measure = rng.choice((SizeMeasure.LITERALS, SizeMeasure.GATES))
        result = reduce_unsat_to_mee_post((andnot,), psi, phi, measure)
        if result.fixed_negative:
            positive = False
        else:
            found = brute_min_bformula((andnot,), phi, measure, result.instance.bound)
            positive = found is not None and found[0] <= result.instance.bound
        if positive != (not satisfiable(phi)):
            problems.append(("post", measure.value, phi.steps))
        checked += 1

    lang = ConstraintLanguage((rel_parity(2, 1, "odd2"), rel_parity(3, 0, "even3")))
    for _ in range(200):
        phi = random_cnf(lang, rng, rng.randint(1, 4), rng.randint(1, 4))
        result = reduce_unsat_to_mee_cnf(lang, phi)
        if result.fixed_negative:
            positive = False
        else:
            positive = brute_min_cnf(lang, phi, result.instance.bound) is not None
        if positive != (not satisfiable(phi)):
            problems.append(("cnf", phi.clauses))

    pool = ["p", "q", "r", "s"]
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 3)):
            size = rng.choice((2, 3))
            chosen = rng.sample(pool, size)
            neg_at = rng.randrange(size)
            terms.append(tuple((v, i != neg_at) for i, v in enumerate(chosen)))
        out = pure_horn_dnf_to_cnf(terms)
        names = out.var_names
        for bits in all_assignments(len(names)):
            values = dict(zip(names, bits))
            if out.mask(bits, 1) != 1 - eval_dnf(terms, values):
                problems.append(("dnf", terms))
                break
    _report(7, "reduction soundness on 200 inputs per generator", problems)


def test_criterion_8_gadget_gap():
    problems = []
    and2 = fn_and(2)
    orT = BoolFunction(
        "orT", 3, tuple((a | b) & t for a in (0, 1) for b in (0, 1) for t in (0, 1))
    )
    basis = (and2, orT)
    f_and = BFormula(basis, ("x", "y", ("and2", 2)))
    f_or = BFormula(basis, ("x", "y", "t", ("orT", 3)))

    def bform(expr):
        return parse_bformula(expr, basis)

    # every H has at most one gate, keeping the gadget's size target l at 2
    # so that the negative direction stays within the oracle's budget
    and_or_pairs = [
        ("x", "x", True),
        ("x", "(and2 x x)", True),
        ("(and2 x x)", "x", True),
        ("(and2 x y)", "(and2 y x)", True),
        ("(orT x y u)", "(orT y x u)", True),
        ("y", "(and2 y y)", True),
        ("(and2 u u)", "u", True),
        ("x", "y", False),
        ("x", "(and2 x y)", False),
        ("(and2 x y)", "x", False),
        ("y", "(and2 y u)", False),
        ("(orT x y u)", "(and2 x y)", False),
        ("u", "(and2 x y)", False),
        ("(and2 x x)", "(and2 y y)", False),
    ]
    for h1_expr, h2_expr, expect_eq in and_or_pairs:
        h1, h2 = bform(h1_expr), bform(h2_expr)
        assert equivalent(h1, h2) == expect_eq
        gadget, l = build_and_or_gadget(f_and, f_or, h1, h2, 3)
        found = brute_min_bformula(basis, gadget, SizeMeasure.GATES, min(7, l))
        small = found is not None and found[0] <= l
        if small != expect_eq:
            problems.append(("and-or", h1_expr, h2_expr, l))

    maj = BoolFunction(
        "maj", 3,
        tuple(1 if a + b + c >= 2 else 0 for a in (0, 1) for b in (0, 1) for c in (0, 1)),
    )
    f_maj = BFormula((maj,), ("x", "y", "z", ("maj", 3)))

    def mform(expr):
        return parse_bformula(expr, (maj,))

    # bare-variable H's keep l at 2 for the majority gadget as well
    maj_pairs = [
        ("a", "a", True),
        ("b", "b", True),
        ("c", "c", True),
        ("a", "b", False),
        ("a", "c", False),
        ("b", "c", False),
    ]
    for h1_expr, h2_expr, expect_eq in maj_pairs:
        h1, h2 = mform(h1_expr), mform(h2_expr)
        assert equivalent(h1, h2) == expect_eq
        gadget, l = build_maj_gadget(f_maj, h1, h2, 3)
        found = brute_min_bformula((maj,), gadget, SizeMeasure.GATES, min(7, l))
        small = found is not None and found[0] <= l
        if small != expect_eq:
            problems.append(("maj", h1_expr, h2_expr, l))
    _report(8, f"gadget gap on {len(and_or_pairs) + len(maj_pairs)} pairs", problems)


def test_criterion_9_duality_and_idempotence(t9, affine_lang, bijunctive_full):
    rng = random.Random(137)
    problems = []

    checked = 0
    while checked < 60:
        f = random_cnf(t9, rng, rng.randint(2, 5), rng.randint(1, 5))
        if not satisfiable(f):
            continue
        checked += 1
        out, _ = min_ihsb_cnf(f)
        dual_out, _ = min_ihsb_minus_cnf(dualize(f))
        if len(out.clauses) != len(dual_out.clauses):
            problems.append(("ihsb duality", f.clauses))
        again, _ = min_ihsb_cnf(out)
        if again.clauses != out.clauses:
            problems.append(("ihsb idempotence", f.clauses))

    for _ in range(60):
        f = random_cnf(affine_lang, rng, rng.randint(2, 5), rng.randint(1, 5))
        out, _ = min_affine(f)
        dual_out, _ = min_affine(dualize(f))
        if len(out.clauses) != len(dual_out.clauses):
            problems.append(("affine duality", f.clauses))
        again, _ = min_affine(out)
        if again.clauses != out.clauses:
            problems.append(("affine idempotence", f.clauses))

    for _ in range(60):
        f = random_cnf(bijunctive_full, rng, rng.randint(2, 5), rng.randint(1, 5))
        out, _ = min_bijunctive(f)
        dual_out, _ = min_bijunctive(dualize(f))
        if len(out.clauses) != len(dual_out.clauses):
            problems.append(("bijunctive duality", f.clauses))
        again, _ = min_bijunctive(out)
        if again.clauses != out.clauses:
            problems.append(("bijunctive idempotence", f.clauses))

    bases = [(fn_or(2), fn_or(3)), (fn_xor(2),), (fn_and(2),)]
    for basis in bases:
        for _ in range(20):
            phi = random_bformula(basis, rng, rng.randint(1, 5))
            dual_basis = tuple(dualize(f) for f in basis)
            for measure in (SizeMeasure.LITERALS, SizeMeasure.GATES):
                a = min_post(basis, phi, measure)
                b = min_post(dual_basis, dualize(phi), measure)
                if a is None or b is None or a[0] != b[0]:
                    problems.append(("post duality", phi.steps))
    _report(9, "duality invariance and idempotence across all minimizers", problems)
