"""boolmin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's corpus from the seed, sets up the package (median of
several fresh imports), replays the corpus in a closed loop on one thread for
at least S seconds, checks every output independently, and prints one JSON
object as the last line of standard output.  `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced passes over
the same corpus and reports per-layer self times and counts.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import calibrate  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# each item is replayed at least this often and timed by the median of its
# replays; the speed of a shared machine varies by 10-20% from one replay of
# an operation to the next, and the fastest of a few replays varies as much
MIN_PASSES = 3
MODULES = ("formats", "classify", "ihsb", "bijunctive", "affine", "post", "oracle", "model",
           "gadgets", "cli")


def fresh_setup(tracer: tracing.Tracer | None = None):
    """Import boolmin from scratch, load the benchmark's languages and bases,
    and warm `min_unsat_formula` for each language.  Returns the modules and
    the seconds it took.  A fresh import starts every cache inside the
    package empty; the garbage of earlier imports is collected untimed."""
    for name in [m for m in sys.modules if m == "boolmin" or m.startswith("boolmin.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    package = importlib.import_module("boolmin")
    bm = SimpleNamespace(boolmin=package, **{
        m: importlib.import_module(f"boolmin.{m}") for m in MODULES
    })
    if tracer is not None:
        tracer.install(bm)
    for lang in workloads.LANGUAGES:
        language = bm.formats.load_language(os.path.join(workloads.DATA, lang))
        bm.oracle.min_unsat_formula(language)
    for basis in workloads.BASES:
        bm.formats.load_functions(os.path.join(workloads.DATA, basis))
    return bm, time.perf_counter() - start


class Run:
    """Replays of a corpus: the calibrated latencies of each item, its first
    result, and the reasons items failed."""

    def __init__(self, wl: workloads.Workload, reference: calibrate.Reference):
        self.cycle_sizes = [len(cycle) for cycle in wl.cycles]
        self.items = wl.items()
        self.reference = reference
        self.samples: list[list[float]] = [[] for _ in self.items]
        self.results: list[workloads.Result | None] = [None] * len(self.items)
        self.failed: dict[int, str] = {}
        self.passes = 0
        self.wall = 0.0

    def op(self, bm, i: int, bases: dict) -> float:
        start = time.perf_counter()
        try:
            result = workloads.run_op(bm, self.items[i], bases)
        except Exception as exc:  # every failure of an operation is counted, none stops the run
            result = None
            self.failed.setdefault(i, f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        if result is not None:
            if self.results[i] is None:
                self.results[i] = result
            elif self.results[i] != result:
                self.failed.setdefault(i, "output differs between replays")
        return latency

    def one_pass(self, bm, bases: dict, tracer: tracing.Tracer | None = None) -> None:
        """Every item once, cycle by cycle, with a reference sample before
        each cycle and after the last; a cycle's latencies are calibrated by
        the samples on either side of it."""
        start = time.perf_counter()
        first = 0
        before = self.reference.sample()
        for size in self.cycle_sizes:
            raw = []
            for i in range(first, first + size):
                if tracer is not None:
                    tracer.op_id = i
                raw.append(self.op(bm, i, bases))
            after = self.reference.sample()
            factor = calibrate.factor(before, after)
            for i, latency in enumerate(raw, first):
                self.samples[i].append(latency / factor)
            before = after
            first += size
        self.passes += 1
        self.wall += time.perf_counter() - start

    def latencies(self) -> list[float]:
        """Each item's typical calibrated latency: the median of its replays."""
        return [statistics.median(samples) for samples in self.samples]

    def check(self, langs, funcs) -> None:
        for i, result in enumerate(self.results):
            if result is None or i in self.failed:
                continue
            try:
                why = workloads.check_result(self.items[i], result, langs, funcs)
            except Exception as exc:  # an unreadable output is a failed item, not a crash
                why = f"output could not be checked: {type(exc).__name__}: {exc}"
            if why:
                self.failed[i] = why
        for i, why in sorted(self.failed.items()):
            print(f"FAILED item {i} ({self.items[i].kind}): {why}")

    def output_size(self) -> int:
        """Summed output size over the corpus."""
        return sum(
            workloads.output_size(item, result)
            for item, result in zip(self.items, self.results) if result is not None
        )


def src_lines() -> int:
    total = 0
    for directory, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def load_golden(workload: str, seed: int) -> int | None:
    path = os.path.join(HERE, "golden.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def end_to_end(args, wl, langs, funcs, bases) -> dict:
    reference = calibrate.Reference()
    setups = []
    for _ in range(SETUP_REPEATS):
        before = reference.sample()
        seconds = fresh_setup()[1]
        setups.append(seconds / calibrate.factor(before, reference.sample()))
    run = Run(wl, reference)
    # whole passes until the time is used, the last one ending nearest to it;
    # each pass runs on a fresh import, so a cache that outlives a call
    # cannot turn later replays into lookups
    while run.passes < MIN_PASSES or run.wall + run.wall / run.passes / 2 < args.seconds:
        run.one_pass(fresh_setup()[0], bases)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.check(langs, funcs)
    size = run.output_size()
    n = len(run.items)
    attempted = n * run.passes
    failed = len(run.failed) * run.passes
    golden = load_golden(wl.name, args.seed)
    if golden is not None and golden != size:
        print(f"FAILED output_size {size} differs from the seed commit's {golden}")
        failed = attempted
    latencies = sorted(run.latencies())
    print(f"{wl.name}: {n} items x {run.passes} passes in {run.wall:.2f} s wall "
          f"({attempted / run.wall:.3f} ops/s uncalibrated); latencies are the median of each "
          f"item's calibrated replays; latency_s.tail is p{100 * (n - 10) / n:.1f} of {n} samples; "
          f"golden output_size {golden if golden is not None else 'not recorded for this seed'}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (n / sum(latencies), "1/s"),
            "latency_s.p50": (statistics.median(latencies), "s"),
            # the highest percentile with ten samples beyond it
            "latency_s.tail": (latencies[n - 11], "s"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "output_size": (size, "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def per_layer(args, wl, langs, funcs, bases) -> dict:
    """Untraced and traced passes alternate, each on a fresh import of its
    own; self times and counts are per traced pass, and the overhead compares
    the median replays of the two sides."""
    tracer = tracing.Tracer()
    reference = calibrate.Reference()
    plain, traced = Run(wl, reference), Run(wl, reference)
    while plain.passes < 2 or plain.wall + traced.wall < args.seconds:
        plain.one_pass(fresh_setup()[0], bases)
        tracer.op_id = -1
        traced.one_pass(fresh_setup(tracer)[0], bases, tracer)
        tracer.uninstall()
    for i, result in enumerate(traced.results):
        if result != plain.results[i]:
            traced.failed.setdefault(i, "traced output differs from untraced output")
    traced.check(langs, funcs)

    passes = traced.passes
    metrics: dict[str, tuple[float, str]] = {}
    self_times = tracer.self_times()
    layer_busy = dict.fromkeys(tracing.LAYERS, 0.0)
    for name in tracing.span_names():
        busy, calls = self_times.get(name, (0.0, 0))
        metrics[f"{name}_s"] = (busy / passes, "s")
        metrics[f"{name}_calls"] = (calls / passes, "count")
        layer_busy[name.split(".")[0]] += busy / passes
    for layer, busy in layer_busy.items():
        metrics[f"layer.{layer}_s"] = (busy, "s")
    counts = tracer.counts
    for name, unit in tracing.COUNTS.items():
        metrics[name] = (counts[name] / passes, unit)
    removed = counts["ihsb.clauses_removed"]
    metrics["ihsb.passes_per_removed"] = (counts["ihsb.passes"] / removed if removed else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (sum(traced.latencies()) / sum(plain.latencies()) - 1, "frac")
    metrics["trace.spans"] = (len(tracer.spans) / passes, "count")
    print(f"{wl.name} traced: {len(traced.items)} items, {passes} untraced and {passes} traced "
          f"passes, {len(tracer.spans)} spans; per-layer values are per traced pass and include "
          f"the traced set-up's spans (warming min_unsat_formula)")
    attempted = len(traced.items) * passes
    return {"attempted": attempted, "failed": len(traced.failed) * passes, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "boolmin", "__init__.py")):
        print(f"error: no boolmin package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    wl, langs, funcs = workloads.build(args.workload, args.seed)
    out = (per_layer if args.trace else end_to_end)(args, wl, langs, funcs, workloads.basis_texts())
    print(f"info src_lines={src_lines()} (ungated)")
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps({"correct": out["failed"] == 0, **out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
