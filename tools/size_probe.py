"""Time one minimizer alone on a generated formula, in fresh processes.

    python3 tools/size_probe.py bijunctive affine --n 10000 30000
    python3 tools/size_probe.py ihsb post --n 100000

Each (class, n) runs RUNS times, each run in a fresh spawned process, one
process at a time.  A run generates its formula at seed 1, parses it and
times the minimizer alone.  A CNF class plants a formula with
`perfbench/gen.planted_cnf` (m = 3n clauses, 1.2n for affine).  The `post`
class draws an OR-basis formula with n leaves over a 16-variable pool with
`perfbench/gen.nested_formula`, as the post-dp workload does, parses it
with `parse_bformula` and times `min_post` under the literals measure.
Before the parse, between it and the minimizer and after the minimizer it
times `perfbench/calibrate.Reference`'s chunk, and divides the parse's and
the minimizer's seconds each by the speed factor of the two samples around
it, as the benchmark harness does: the calibrated seconds are seconds on a
machine that runs the chunk in its nominal time.  One line per point gives
the class, n, m (not for `post`) and, each as its median over the runs,
the parse's calibrated seconds, the minimizer's calibrated seconds, its raw
seconds, its speed factor and the process's peak RSS (`ru_maxrss`, which includes the
generated text and the parsed formula).  The probe only imports from
`perfbench/` and `src/`; it writes nothing.
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
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
RUNS = 3

# class -> (language or basis file under perfbench/data, minimizer name,
# m / n, or None for a nested formula)
CLASSES = {
    "ihsb": ("ihsb_plus.lang", "min_ihsb_cnf", 3.0),
    "bijunctive": ("bijunctive.lang", "min_bijunctive", 3.0),
    "affine": ("affine.lang", "min_affine", 1.2),
    "post": ("or.fns", "min_post", None),
}
POST_POOL = [f"x{i}" for i in range(16)]


def probe(cls: str, n: int) -> dict[str, float]:
    """One run: the parse's and the minimizer's raw and calibrated seconds
    and speed factors, and the peak RSS in MB."""
    sys.path[:0] = [path for path in (BENCH, SRC) if path not in sys.path]
    import boolmin
    import boolmin.formats
    import calibrate
    import gen
    import textio

    source, name, ratio = CLASSES[cls]
    data = os.path.join(BENCH, "data")
    path = os.path.join(data, source)
    if ratio is None:
        text = gen.nested_formula(random.Random(1), textio.read_functions(path), n, POST_POOL)
        basis = boolmin.formats.load_functions(path)
        parse = partial(boolmin.formats.parse_bformula, text, basis)
        minimize = partial(boolmin.min_post, basis, measure=boolmin.SizeMeasure.LITERALS)
    else:
        text = gen.planted_cnf(random.Random(1), source, textio.read_language(path),
                               n, round(ratio * n))
        parse = partial(boolmin.formats.parse_cnf_formula, text, data)
        minimize = getattr(boolmin, name)
    reference = calibrate.Reference()
    first = reference.sample()
    start = time.perf_counter()
    formula = parse()
    parse_raw_s = time.perf_counter() - start
    between = reference.sample()
    start = time.perf_counter()
    minimize(formula)
    raw_s = time.perf_counter() - start
    parse_factor = calibrate.factor(first, between)
    factor = calibrate.factor(between, reference.sample())
    return {
        "parse_s": parse_raw_s / parse_factor,
        "parse_raw_s": parse_raw_s,
        "parse_factor": parse_factor,
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
            m = "" if ratio is None else f" m={round(ratio * n)}"
            print(f"{cls} n={n}{m} parse_s={mid['parse_s']:.3f} "
                  f"{name}_s={mid['calibrated_s']:.2f} raw_s={mid['raw_s']:.2f} "
                  f"factor={mid['factor']:.2f} peak_rss_mb={mid['peak_rss_mb']:.0f}", flush=True)


if __name__ == "__main__":
    main()
