"""Hardness-reduction generators at desk scale: unsat-to-minimization in both
frameworks, the equivalence gadgets with their size gap, and the pure-Horn
DNF translation.

Run from the repository root:  python demos/demo_gadgets.py
"""
import os
import tempfile

from boolmin import (
    BFormula,
    BoolFunction,
    CnfFormula,
    ConstraintLanguage,
    SizeMeasure,
    brute_min_bformula,
    build_and_or_gadget,
    pure_horn_dnf_to_cnf,
    reduce_unsat_to_mee_cnf,
    reduce_unsat_to_mee_post,
    satisfiable,
)
from boolmin.formats import (
    load_cnf_formula,
    parse_bformula,
    serialize_cnf_formula,
    serialize_language,
    serialize_mee_instance,
)
from boolmin.gadgets import eval_dnf
from boolmin.model import BApp, BVar, all_assignments, count_gates
from boolmin.std import fn_and, rel_parity

# --- non-satisfiability reduces to minimization --------------------------------
# over B = {x and not y} there is a fixed unsatisfiable formula f(x, x);
# a formula is unsatisfiable iff it has an equivalent as small as that one
andnot = BoolFunction("andnot", 2, (0, 0, 1, 0))
psi = parse_bformula("(andnot x x)", (andnot,))
for expr in ("(andnot x y)", "(andnot y y)"):
    phi = parse_bformula(expr, (andnot,))
    result = reduce_unsat_to_mee_post((andnot,), psi, phi, SizeMeasure.LITERALS)
    kind = "fixed negative" if result.fixed_negative else f"instance with bound {result.instance.bound}"
    print(f"{expr:15s} satisfiable={bool(satisfiable(phi))}  ->  {kind}")
print()

# the constraint-side version pivots on the minimum unsatisfiable formula
lang = ConstraintLanguage((rel_parity(2, 1, "odd2"),))
unsat = CnfFormula(lang, ("x",), (("odd2", (0, 0)),))
print(serialize_mee_instance(reduce_unsat_to_mee_cnf(lang, unsat).instance, language_path="parity.lang"))

# --- the equivalence gadget and its gap -----------------------------------------
# G is cheap exactly when the two embedded formulas agree; a block of fresh
# conjoined variables blows up the cost otherwise
and2 = fn_and(2)
orT = BoolFunction("orT", 3, tuple((a | b) & t for a in (0, 1) for b in (0, 1) for t in (0, 1)))
f_and = BFormula((and2,), BApp("and2", (BVar("x"), BVar("y"))))
f_or = BFormula((orT,), BApp("orT", (BVar("x"), BVar("y"), BVar("t"))))

h_equal = BFormula((and2, orT), BVar("x"))
h_same = BFormula((and2, orT), BApp("and2", (BVar("x"), BVar("x"))))
h_other = BFormula((and2, orT), BVar("y"))

for name, h2 in (("equivalent pair", h_same), ("inequivalent pair", h_other)):
    gadget, bound = build_and_or_gadget(f_and, f_or, h_equal, h2, 3)
    found = brute_min_bformula((and2, orT), gadget, SizeMeasure.GATES, bound)
    verdict = f"minimum <= {bound}" if found else f"no equivalent within {bound} gates"
    print(f"{name}: gadget has {count_gates(gadget.root)} gates; {verdict}")
print()

# --- pure-Horn DNF negation ------------------------------------------------------
terms = [(("x", True), ("y", False)), (("x", True), ("z", True), ("w", False))]
cnf = pure_horn_dnf_to_cnf(terms)
# the clauses name the positive Horn relation, so the formula is written with
# its language file beside it, as `boolmin gadget horn-dnf --out F` does
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "horn.cnf")
    with open(path + ".lang", "w", encoding="utf-8") as fh:
        fh.write(serialize_language(cnf.language))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_cnf_formula(cnf, "horn.cnf.lang"))
    loaded = load_cnf_formula(path)
print(serialize_language(loaded.language).rstrip())
print(serialize_cnf_formula(loaded).rstrip())
agrees = all(
    loaded.eval(bits) == 1 - eval_dnf(terms, dict(zip(loaded.var_names, bits)))
    for bits in all_assignments(len(loaded.var_names))
)
print("negation-equivalent to the DNF:", agrees)
