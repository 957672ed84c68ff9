#!/usr/bin/env python3
"""Layer timings on the ROADMAP baseline grid, in one process.

    python3 perfbench/baseline.py [--grid 8,3 10,4 12,4]

For each (k, n) this builds random_arrangement(k, n, m=3, tau=(-1,2,1),
bound=3, seed=1), the input of the ROADMAP baseline table, and times the
layers in that table: tabulation (from_arrangement), the rank axioms
(verify_matroid), (A2), (P) and (P1).  Each layer runs once untraced,
timed around the call, and once with the span tracer installed, so the
table shows both and their difference is the tracing overhead.  Prints a
Markdown table.  This is a one-off reproduction, not a benchmark workload.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))
from tracer import Tracer, layer_values  # noqa: E402

LAYERS = ("from_arrangement", "verify_matroid", "verify_a2", "verify_p", "verify_p1")
HEADERS = ("tabulate (L2)", "r1-r3 (L3)", "(A2)", "(P)", "(P1)")


def _cell(k: int, n: int, tracer: Tracer | None) -> dict[str, float]:
    fileio = importlib.import_module("ellmat.fileio")
    matroid_mod = importlib.import_module("ellmat.matroid")
    arr = fileio.random_arrangement(k, n, 3, -1, 2, 1, 3, 1)
    times = {}
    matroid = None
    for layer in LAYERS:
        fn = getattr(matroid_mod, layer)
        start = perf_counter()
        out = fn(arr) if layer == "from_arrangement" else fn(matroid)
        times[layer] = perf_counter() - start
        if layer == "from_arrangement":
            matroid = out
    if tracer is not None:
        values = layer_values([tracer.to_json()])
        times = {layer: values.get(f"matroid.{layer}_s", 0.0) for layer in LAYERS}
        times["find_molecule.calls"] = values.get("matroid.find_molecule.calls", 0)
        times["smith_form.calls"] = values.get("linalg.smith_form.calls", 0)
        tracer.nodes.clear()
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--grid", nargs="+", default=["8,3", "10,4", "12,4"], metavar="K,N")
    args = parser.parse_args(argv)
    grid = [tuple(int(v) for v in cell.split(",")) for cell in args.grid]
    plain = {cell: _cell(*cell, None) for cell in grid}
    tracer = Tracer()
    tracer.install()
    traced = {cell: _cell(*cell, tracer) for cell in grid}
    print("| k, n | " + " | ".join(f"{h} untraced / traced" for h in HEADERS) + " | Smith forms | find_molecule calls |")
    print("|" + "---|" * (len(HEADERS) + 3))
    for cell in grid:
        cols = [f"{plain[cell][layer]:.3f} / {traced[cell][layer]:.3f} s" for layer in LAYERS]
        counts = [str(traced[cell]["smith_form.calls"]), str(traced[cell]["find_molecule.calls"])]
        print(f"| {cell[0]}, {cell[1]} | " + " | ".join(cols + counts) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
