"""Command-line entry point: classification, minimization, oracle searches,
gadget generation and format utilities.  Every file is read by `formats`,
which decides where a path resolves from and what `-` means.  One writer,
`_write_cnf`, decides how a formula names its language, except that
`minimize` and `gadget unsat-cnf` echo their input's `language` line.

Exit codes: 0 success or positive decision, 1 negative decision, 2 malformed
input (`FormatError`) or an unreadable file (`OSError`), 3 resource cap
exceeded, 4 the classification forbids polynomial minimization, 5 internal
error: any other exception, a fault in boolmin, never a decision.
"""
from __future__ import annotations

import argparse
import os
import random
import sys

from . import formats, minimize
from .classify import classify_basis, classify_language, function_shape, is_irreducible, report_lines
from .errors import ClassificationError, FormatError, ResourceLimitError
from .gadgets import (
    build_and_or_gadget,
    build_maj_gadget,
    pure_horn_dnf_to_cnf,
    reduce_unsat_to_mee_cnf,
    reduce_unsat_to_mee_post,
)
from .model import CnfFormula, MeeInstance, SizeMeasure, dualize, equivalent
from .oracle import brute_min_bformula, brute_min_cnf, expressible, min_unsat_formula
from .post import min_post

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2
EXIT_RESOURCE = 3
EXIT_CLASSIFICATION = 4
EXIT_INTERNAL = 5


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_classify(args) -> int:
    if args.language:
        lang = formats.load_language(args.language)
        for line in report_lines(classify_language(lang)):
            print(line)
        return EXIT_OK
    basis = formats.load_functions(args.basis)
    print(f"verdict={classify_basis(basis)}")
    for f in basis:
        shape = function_shape(f)
        flags = []
        if shape.or_function:
            flags.append("or")
        if shape.and_function:
            flags.append("and")
        if shape.xor_function:
            flags.append("xor")
        print(f"{f.name}.shape={'/'.join(flags) if flags else 'none'}")
    return EXIT_OK


def cmd_minimize(args) -> int:
    out, stats = minimize(formats.load_cnf_formula(args.formula))
    text = ""
    if args.stats:
        text += "".join(f"# {line}\n" for line in stats.lines())
    text += formats.serialize_cnf_formula(out, args.language_out or None)
    _write_out(text, args.out)
    return EXIT_OK


def cmd_minimize_post(args) -> int:
    basis = formats.load_functions(args.basis)
    formula = formats.load_bformula(args.formula, basis)
    result = min_post(basis, formula, SizeMeasure(args.measure))
    if result is None:
        # the formula is parsed over the basis, so it is its own witness
        raise RuntimeError("no equivalent basis-formula within bound; this is a bug")
    size, witness, stats = result
    text = ""
    if args.stats:
        text += "".join(f"# {line}\n" for line in stats.lines())
    text += formats.serialize_bformula(witness)
    _write_out(text, args.out)
    return EXIT_OK


def cmd_irreducible(args) -> int:
    rel = formats.load_relation(args.relation)
    verdict = is_irreducible(rel)
    print(f"irreducible={'true' if verdict else 'false'}")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_equiv(args) -> int:
    text_a, text_b = formats.read_text(args.a), formats.read_text(args.b)
    if formats.is_cnf_text(text_a):
        fa = formats.load_cnf_formula(args.a, text_a)
        fb = formats.load_cnf_formula(args.b, text_b)
    else:
        if not args.basis:
            raise FormatError("--basis is required to compare B-formulas")
        basis = formats.load_functions(args.basis)
        fa = formats.parse_bformula(text_a, basis)
        fb = formats.parse_bformula(text_b, basis)
    same = equivalent(fa, fb)
    print(f"equivalent={'true' if same else 'false'}")
    return EXIT_OK if same else EXIT_NEGATIVE


def _write_cnf(
    formula: CnfFormula, lang_path: str | None, what: str, out: str | None = None
) -> None:
    """Write a formula so that it loads again.  A language read from a file
    is named by its absolute path, which loads from any directory.  A
    language with no file, one read from `-` or one built here, is written
    too: with `out`, to `out.lang`, which the formula at `out` names by its
    base name; without it, to standard output, its block first, and the
    formula names it `<what>.lang`, in lower case with dashes for spaces."""
    if lang_path is not None and lang_path != "-":
        _write_out(formats.serialize_cnf_formula(formula, os.path.abspath(lang_path)), out)
        return
    lang_text = formats.serialize_language(formula.language)
    if out:
        _write_out(lang_text, out + ".lang")
        _write_out(formats.serialize_cnf_formula(formula, os.path.basename(out) + ".lang"), out)
    else:
        print(f"# {what} language")
        sys.stdout.write(lang_text)
        print(f"# {what} formula (clauses reference the relations above)")
        name = what.lower().replace(" ", "-") + ".lang"
        sys.stdout.write(formats.serialize_cnf_formula(formula, name))


def cmd_dualize(args) -> int:
    dual = dualize(formats.load_cnf_formula(args.formula))
    _write_cnf(dual, None, "dual", args.out)
    return EXIT_OK


def cmd_oracle_min_cnf(args) -> int:
    formula = formats.load_cnf_formula(args.formula)
    lang = formula.language
    lang_path = os.path.join(os.path.dirname(args.formula) or ".", formula.language_path)
    if args.language:
        lang, lang_path = formats.load_language(args.language), args.language
    result = brute_min_cnf(lang, formula, args.max_clauses)
    if result is None:
        print("min_clauses=none")
        return EXIT_NEGATIVE
    size, witness = result
    print(f"min_clauses={size}")
    _write_cnf(witness, lang_path, "min-cnf")
    return EXIT_OK


def cmd_oracle_min_bf(args) -> int:
    basis = formats.load_functions(args.basis)
    formula = formats.load_bformula(args.formula, basis)
    result = brute_min_bformula(basis, formula, SizeMeasure(args.measure), args.max_size)
    if result is None:
        print("min_size=none")
        return EXIT_NEGATIVE
    size, witness = result
    print(f"min_size={size}")
    sys.stdout.write(formats.serialize_bformula(witness))
    return EXIT_OK


def cmd_oracle_expressible(args) -> int:
    rel = formats.load_relation(args.relation)
    base = formats.load_language(args.base)
    verdict = expressible(rel, base, args.max_clauses)
    print(f"expressible={'true' if verdict else 'false'}")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_oracle_min_unsat(args) -> int:
    lang = formats.load_language(args.language)
    result = min_unsat_formula(lang, args.max_clauses)
    if result is None:
        print("min_unsat=none")
        return EXIT_NEGATIVE
    print(f"min_unsat_clauses={len(result.clauses)}")
    _write_cnf(result, args.language, "min-unsat")
    return EXIT_OK


def cmd_gadget_unsat_post(args) -> int:
    basis = formats.load_functions(args.basis)
    psi = formats.load_bformula(args.psi, basis)
    formula = formats.load_bformula(args.formula, basis)
    result = reduce_unsat_to_mee_post(basis, psi, formula, SizeMeasure(args.measure))
    sys.stdout.write(formats.serialize_mee_instance(result.instance, result.fixed_negative))
    return EXIT_NEGATIVE if result.fixed_negative else EXIT_OK


def cmd_gadget_unsat_cnf(args) -> int:
    formula = formats.load_cnf_formula(args.formula)
    result = reduce_unsat_to_mee_cnf(formula.language, formula)
    sys.stdout.write(
        formats.serialize_mee_instance(
            result.instance, result.fixed_negative, formula.language_path
        )
    )
    return EXIT_NEGATIVE if result.fixed_negative else EXIT_OK


def _gadget_frame(args):
    """The basis, the two formulas h1 and h2, and the largest basis arity."""
    basis = formats.load_functions(args.basis)
    h1 = formats.load_bformula(args.h1, basis)
    h2 = formats.load_bformula(args.h2, basis)
    return basis, h1, h2, max(f.arity for f in basis)


def cmd_gadget_and_or(args) -> int:
    basis, h1, h2, m = _gadget_frame(args)
    f_and = formats.load_bformula(args.f_and, basis)
    f_or = formats.load_bformula(args.f_or, basis)
    measure = SizeMeasure(args.measure)
    gadget, bound = build_and_or_gadget(f_and, f_or, h1, h2, m, measure)
    sys.stdout.write(formats.serialize_mee_instance(MeeInstance(gadget, bound, measure)))
    return EXIT_OK


def cmd_gadget_maj(args) -> int:
    basis, h1, h2, m = _gadget_frame(args)
    f_maj = formats.load_bformula(args.f_maj, basis)
    measure = SizeMeasure(args.measure)
    gadget, bound = build_maj_gadget(f_maj, h1, h2, m, measure)
    sys.stdout.write(formats.serialize_mee_instance(MeeInstance(gadget, bound, measure)))
    return EXIT_OK


def cmd_gadget_horn_dnf(args) -> int:
    terms = formats.parse_dnf(formats.read_text(args.dnf))
    out = pure_horn_dnf_to_cnf(terms)
    _write_cnf(out, None, "positive Horn", args.out)
    return EXIT_OK


def cmd_gen_random(args) -> int:
    if args.vars < 0 or args.clauses < 0:
        raise FormatError("--vars and --clauses must be nonnegative")
    if args.clauses and not args.vars:
        raise FormatError("clauses need at least one variable")
    lang = formats.load_language(args.language)
    rng = random.Random(args.seed)
    names = tuple(f"v{i}" for i in range(args.vars))
    clauses = []
    for _ in range(args.clauses):
        rel = rng.choice(lang.relations)
        ids = tuple(rng.randrange(args.vars) for _ in range(rel.arity))
        clauses.append((rel.name, ids))
    formula = CnfFormula(lang, names, tuple(clauses))
    _write_cnf(formula, args.language, "random")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolmin", description="restricted propositional formula minimization"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a constraint language or basis")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--language")
    group.add_argument("--basis")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("minimize", help="minimize a CNF formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--out")
    p.add_argument("--language-out", dest="language_out")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("minimize-post", help="minimize a B-formula")
    p.add_argument("--basis", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--measure", choices=("literals", "gates"), required=True)
    p.add_argument("--out")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_minimize_post)

    p = sub.add_parser("irreducible", help="decide irreducibility of a relation")
    p.add_argument("--relation", required=True)
    p.set_defaults(func=cmd_irreducible)

    p = sub.add_parser("equiv", help="truth-table equivalence of two formulas")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--basis")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("dualize", help="dualize a CNF formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("oracle", help="brute-force searches with explicit caps")
    osub = p.add_subparsers(dest="oracle_kind", required=True)
    q = osub.add_parser("min-cnf")
    q.add_argument("--formula", required=True)
    q.add_argument("--language")
    q.add_argument("--max-clauses", type=int, required=True)
    q.set_defaults(func=cmd_oracle_min_cnf)
    q = osub.add_parser("min-bf")
    q.add_argument("--basis", required=True)
    q.add_argument("--formula", required=True)
    q.add_argument("--measure", choices=("literals", "gates"), required=True)
    q.add_argument("--max-size", type=int, required=True)
    q.set_defaults(func=cmd_oracle_min_bf)
    q = osub.add_parser("expressible")
    q.add_argument("--relation", required=True)
    q.add_argument("--base", required=True)
    q.add_argument("--max-clauses", type=int, required=True)
    q.set_defaults(func=cmd_oracle_expressible)
    q = osub.add_parser("min-unsat")
    q.add_argument("--language", required=True)
    q.add_argument("--max-clauses", type=int, required=True)
    q.set_defaults(func=cmd_oracle_min_unsat)

    p = sub.add_parser("gadget", help="hardness-reduction instance generators")
    gsub = p.add_subparsers(dest="gadget_kind", required=True)
    q = gsub.add_parser("unsat-post")
    q.add_argument("--basis", required=True)
    q.add_argument("--psi", required=True)
    q.add_argument("--formula", required=True)
    q.add_argument("--measure", choices=("literals", "gates"), required=True)
    q.set_defaults(func=cmd_gadget_unsat_post)
    q = gsub.add_parser("unsat-cnf")
    q.add_argument("--formula", required=True)
    q.set_defaults(func=cmd_gadget_unsat_cnf)
    q = gsub.add_parser("and-or")
    q.add_argument("--basis", required=True)
    q.add_argument("--f-and", dest="f_and", required=True)
    q.add_argument("--f-or", dest="f_or", required=True)
    q.add_argument("--h1", required=True)
    q.add_argument("--h2", required=True)
    q.add_argument("--measure", choices=("literals", "gates"), default="gates")
    q.set_defaults(func=cmd_gadget_and_or)
    q = gsub.add_parser("maj")
    q.add_argument("--basis", required=True)
    q.add_argument("--f-maj", dest="f_maj", required=True)
    q.add_argument("--h1", required=True)
    q.add_argument("--h2", required=True)
    q.add_argument("--measure", choices=("literals", "gates"), default="gates")
    q.set_defaults(func=cmd_gadget_maj)
    q = gsub.add_parser("horn-dnf")
    q.add_argument("--dnf", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_gadget_horn_dnf)

    p = sub.add_parser("gen-random", help="seeded random formula generator")
    p.add_argument("--language", required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--clauses", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_gen_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ClassificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLASSIFICATION
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
