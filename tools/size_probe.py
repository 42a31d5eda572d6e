"""Time one CNF minimizer alone on a planted formula, one process per point.

    python3 tools/size_probe.py bijunctive affine --n 10000 30000
    python3 tools/size_probe.py ihsb --n 100000

Each (class, n) runs in a fresh spawned process.  It generates a planted
formula with `perfbench/gen.planted_cnf` at seed 1 (m = 3n clauses, 1.2n
for affine), parses it, times the minimizer alone and prints one line: the
class, n, m, the parse and minimizer seconds, and the process's peak RSS
(`ru_maxrss`, which includes the generated text and the parsed formula).
The probe only imports from `perfbench/` and `src/`; it writes nothing.
"""
from __future__ import annotations

import argparse
import multiprocessing
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")

# class -> (language file under perfbench/data, minimizer name, m / n)
CLASSES = {
    "ihsb": ("ihsb_plus.lang", "min_ihsb_cnf", 3.0),
    "bijunctive": ("bijunctive.lang", "min_bijunctive", 3.0),
    "affine": ("affine.lang", "min_affine", 1.2),
}


def probe(cls: str, n: int) -> str:
    sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
    import boolmin
    import boolmin.formats
    import gen
    import textio

    lang, name, ratio = CLASSES[cls]
    data = os.path.join(BENCH, "data")
    m = round(ratio * n)
    text = gen.planted_cnf(random.Random(1), lang, textio.read_language(os.path.join(data, lang)), n, m)
    start = time.perf_counter()
    formula = boolmin.formats.parse_cnf_formula(text, data)
    parsed = time.perf_counter()
    getattr(boolmin, name)(formula)
    done = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (f"{cls} n={n} m={m} parse_s={parsed - start:.2f} "
            f"{name}_s={done - parsed:.2f} peak_rss_mb={rss_mb:.0f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("classes", nargs="+", choices=sorted(CLASSES))
    parser.add_argument("--n", type=int, nargs="+", default=[10_000])
    args = parser.parse_args()
    ctx = multiprocessing.get_context("spawn")
    for cls in args.classes:
        for n in args.n:
            with ctx.Pool(1) as pool:
                print(pool.apply(probe, (cls, n)), flush=True)


if __name__ == "__main__":
    main()
