"""Time one CNF minimizer alone on a planted formula, in fresh processes.

    python3 tools/size_probe.py bijunctive affine --n 10000 30000
    python3 tools/size_probe.py ihsb --n 100000

Each (class, n) runs RUNS times, each run in a fresh spawned process, one
process at a time.  A run generates a planted formula with
`perfbench/gen.planted_cnf` at seed 1 (m = 3n clauses, 1.2n for affine),
parses it and times the minimizer alone.  Around the call it times
`perfbench/calibrate.Reference`'s chunk, and divides the minimizer's seconds
by the speed factor of those two samples, as the benchmark harness does:
the calibrated seconds are seconds on a machine that runs the chunk in its
nominal time.  One line per point gives the class, n, m and, each as its
median over the runs, the parse seconds, the minimizer's calibrated seconds,
its raw seconds, the speed factor and the process's peak RSS (`ru_maxrss`,
which includes the generated text and the parsed formula).  The probe only
imports from `perfbench/` and `src/`; it writes nothing.
"""
from __future__ import annotations

import argparse
import multiprocessing
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
RUNS = 3

# class -> (language file under perfbench/data, minimizer name, m / n)
CLASSES = {
    "ihsb": ("ihsb_plus.lang", "min_ihsb_cnf", 3.0),
    "bijunctive": ("bijunctive.lang", "min_bijunctive", 3.0),
    "affine": ("affine.lang", "min_affine", 1.2),
}


def probe(cls: str, n: int) -> dict[str, float]:
    """One run: parse seconds, the minimizer's raw and calibrated seconds,
    the speed factor and the peak RSS in MB."""
    sys.path[:0] = [path for path in (BENCH, SRC) if path not in sys.path]
    import boolmin
    import boolmin.formats
    import calibrate
    import gen
    import textio

    lang, name, ratio = CLASSES[cls]
    data = os.path.join(BENCH, "data")
    text = gen.planted_cnf(random.Random(1), lang, textio.read_language(os.path.join(data, lang)),
                           n, round(ratio * n))
    reference = calibrate.Reference()
    start = time.perf_counter()
    formula = boolmin.formats.parse_cnf_formula(text, data)
    parse_s = time.perf_counter() - start
    before = reference.sample()
    start = time.perf_counter()
    getattr(boolmin, name)(formula)
    raw_s = time.perf_counter() - start
    factor = calibrate.factor(before, reference.sample())
    return {
        "parse_s": parse_s,
        "calibrated_s": raw_s / factor,
        "raw_s": raw_s,
        "factor": factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("classes", nargs="+", choices=sorted(CLASSES))
    parser.add_argument("--n", type=int, nargs="+", default=[10_000])
    args = parser.parse_args()
    ctx = multiprocessing.get_context("spawn")
    for cls in args.classes:
        _, name, ratio = CLASSES[cls]
        for n in args.n:
            runs = []
            for _ in range(RUNS):
                with ctx.Pool(1) as pool:
                    runs.append(pool.apply(probe, (cls, n)))
            mid = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
            print(f"{cls} n={n} m={round(ratio * n)} parse_s={mid['parse_s']:.2f} "
                  f"{name}_s={mid['calibrated_s']:.2f} raw_s={mid['raw_s']:.2f} "
                  f"factor={mid['factor']:.2f} peak_rss_mb={mid['peak_rss_mb']:.0f}", flush=True)


if __name__ == "__main__":
    main()
