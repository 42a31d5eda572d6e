"""Time fresh `boolmin minimize` processes against a bare interpreter.

    python3 tools/cold_start.py
    python3 tools/cold_start.py --runs 41

One `boolmin minimize` call minimizes one formula in one process, and the
minimizers finish a desk-scale formula in well under a millisecond, so what
such a call costs is mostly start-up: the interpreter, then the import of
the package.  The probe starts `python -m boolmin.cli minimize --formula
FORMULA` and `python -c pass` RUNS times each, one process at a time, the
two alternating (the bare interpreter first on every other round), and
times each from its start to its exit.  One untimed run of each comes
first, to warm the file cache and, when the interpreter writes bytecode, to
write the package's.  The package is imported from `src/`.

One line gives the median wall time of the minimize processes, that of the
bare interpreter, their difference, and whether the bytecode cache was on
(`sys.flags.dont_write_bytecode`, which the child processes inherit; with
it off, caches written earlier are still read).  Every minimize run must
exit 0 and print the same output as the first; otherwise the probe exits
with an error and prints no timing.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FORMULA = os.path.join(ROOT, "demos", "data", "chain.cnf")


def probe(runs: int, formula: str = FORMULA) -> dict[str, float | bool]:
    """Median seconds of `runs` fresh minimize processes and of `runs` bare
    interpreters, and whether the bytecode cache was on."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    commands = {
        "minimize": [sys.executable, "-m", "boolmin.cli", "minimize", "--formula", formula],
        "bare": [sys.executable, "-c", "pass"],
    }
    times: dict[str, list[float]] = {key: [] for key in commands}
    expected = None
    for round_ in range(runs + 1):
        order = list(commands) if round_ % 2 else list(commands)[::-1]
        for key in order:
            start = time.perf_counter()
            proc = subprocess.run(commands[key], env=env, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            if proc.returncode:
                raise RuntimeError(f"{key} exited {proc.returncode}: {proc.stderr.strip()}")
            if key == "minimize":
                if expected is None:
                    expected = proc.stdout
                elif proc.stdout != expected:
                    raise RuntimeError(f"minimize printed another output in round {round_}")
            if round_:
                times[key].append(elapsed)
    return {
        "minimize_s": statistics.median(times["minimize"]),
        "bare_s": statistics.median(times["bare"]),
        "bytecode_cache": not sys.flags.dont_write_bytecode,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=21)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    try:
        mid = probe(args.runs)
    except RuntimeError as err:
        sys.exit(f"cold_start: {err}")
    print(f"runs={args.runs} minimize_s={mid['minimize_s']:.4f} bare_s={mid['bare_s']:.4f} "
          f"startup_s={mid['minimize_s'] - mid['bare_s']:.4f} "
          f"bytecode_cache={'on' if mid['bytecode_cache'] else 'off'}", flush=True)


if __name__ == "__main__":
    main()
