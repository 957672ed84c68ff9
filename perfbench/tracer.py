"""Span tracer for the ellmat benchmark.

`Tracer.install` wraps the public functions listed in TRACED at every
module attribute and class attribute that refers to them, so a call made
through `from .linalg import smith_form` in another module is traced too,
and nested calls become child spans.  Spans are aggregated in memory by
call path (one node per distinct chain of span names), which keeps the
parent link and the self time of every span while holding millions of
calls in a few hundred nodes.  A name the code no longer has is recorded
as absent, never raised.

Run as a child process, the tracer executes one CLI command:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_OUT.json ARGV...

It calls `ellmat.cli.main(ARGV)`, writes the spans to TRACE_OUT.json and
exits with the command's exit code.  Standard library only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module under ellmat, attribute path).  The span name is the module plus
# the last path component, e.g. "matroid.contraction".
TRACED = (
    ("cli", "main"),
    ("fileio", "load_arrangement"),
    ("linalg", "expand_lambda"),
    ("linalg", "smith_form"),
    ("arrangement", "dual_arrangement"),
    ("arrangement", "multiplicity_via_order_basis"),
    ("arrangement", "multiplicity_via_conj_transpose"),
    ("matroid", "from_arrangement"),
    ("matroid", "verify_matroid"),
    ("matroid", "verify_a1"),
    ("matroid", "verify_a2"),
    ("matroid", "verify_p"),
    ("matroid", "verify_p1"),
    ("matroid", "verify_p2"),
    ("matroid", "p_equivalence_holds"),
    ("matroid", "find_molecule"),
    ("matroid", "ArithmeticMatroid.contraction"),
    ("matroid", "ArithmeticMatroid.dual"),
    ("matroid", "tutte"),
    ("matroid", "char_poly"),
    ("matroid", "euler_characteristic"),
    ("matroid", "gcd_property"),
)

# A from_arrangement span whose argument came out of dual_arrangement.
STACKED = "matroid.from_arrangement.stacked"
COUNTERS = ("linalg.smith_form.cells", "arrangement.max_mult_bits")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Call-path aggregated spans plus the counters read at span boundaries."""

    def __init__(self) -> None:
        # path (tuple of span names) -> [calls, total_s, children_s]
        self.nodes: dict[tuple[str, ...], list] = {}
        self._stack: list[list] = []  # [path, children_s] per open span
        self.smith_cells = 0
        self.max_mult_bits = 0
        self.absent: list[str] = []
        self._stacked_ids: set[int] = set()
        self._stacked_refs: list = []  # keeps ids in _stacked_ids unique

    def install(self) -> None:
        """Wrap every TRACED function wherever an ellmat module refers to it."""
        importlib.import_module("ellmat.cli")
        wrappers: dict[int, object] = {}
        for module, attr in TRACED:
            owner = importlib.import_module(f"ellmat.{module}")
            *outer, last = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, last, None)
            name = span_name(module, attr)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            wrappers[id(original)] = (original, wrapper)
            if outer:
                setattr(owner, last, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ellmat" or mod_name.startswith("ellmat.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if name == "matroid.from_arrangement" and args and id(args[0]) in self._stacked_ids:
                label = STACKED
            parent = self._stack[-1] if self._stack else None
            path = (parent[0] if parent else ()) + (label,)
            frame = [path, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                node = self.nodes.get(path)
                if node is None:
                    node = self.nodes[path] = [0, 0.0, 0.0]
                node[0] += 1
                node[1] += elapsed
                node[2] += frame[1]
                if parent is not None:
                    parent[1] += elapsed
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "linalg.smith_form" and args:
            self.smith_cells += getattr(args[0], "rows", 0) * getattr(args[0], "cols", 0)
        elif name == "matroid.from_arrangement":
            mults = getattr(result, "m", ())
            if mults:
                self.max_mult_bits = max(self.max_mult_bits, max(mults).bit_length())
        elif name == "arrangement.dual_arrangement" and isinstance(result, tuple) and result:
            self._stacked_ids.add(id(result[0]))
            self._stacked_refs.append(result[0])

    def to_json(self) -> dict:
        spans = []
        for path, (calls, total, children) in sorted(self.nodes.items()):
            spans.append(
                {
                    "name": path[-1],
                    "path": "/".join(path),
                    "parent": "/".join(path[:-1]) or None,
                    "calls": calls,
                    "total_s": total,
                    "self_s": total - children,
                }
            )
        return {
            "spans": spans,
            "counters": dict(zip(COUNTERS, (self.smith_cells, self.max_mult_bits))),
            "absent": self.absent,
        }


STACKED_SMITH_CALLS = STACKED + ".smith_form.calls"


def known_layer_metrics() -> set[str]:
    """Every metric name that layer_values can produce."""
    names = {span_name(module, attr) for module, attr in TRACED} | {STACKED}
    out = {f"{n}{suffix}" for n in names for suffix in ("_s", ".self_s", ".calls")}
    return out | set(COUNTERS) | {STACKED_SMITH_CALLS, "trace.overhead_s"}


def layer_values(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the given traces.

    NAME_s is the inclusive time of the outermost spans of NAME (a span
    nested in another of the same name is not counted twice), NAME.self_s
    its self time and NAME.calls its call count.  The stacked
    from_arrangement spans count towards matroid.from_arrangement_s too.
    """
    values: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        values[key] = values.get(key, 0) + value

    for doc in docs:
        for span in doc["spans"]:
            path = span["path"].split("/")
            name = path[-1]
            if name not in path[:-1]:
                add(f"{name}_s", span["total_s"])
                if name == STACKED:
                    add("matroid.from_arrangement_s", span["total_s"])
            add(f"{name}.self_s", span["self_s"])
            add(f"{name}.calls", span["calls"])
            if name == "linalg.smith_form" and STACKED in path:
                add(STACKED_SMITH_CALLS, span["calls"])
        add(COUNTERS[0], doc["counters"][COUNTERS[0]])
        values[COUNTERS[1]] = max(values.get(COUNTERS[1], 0), doc["counters"][COUNTERS[1]])
    return values


def _main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_OUT.json ARGV...", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("ellmat.cli")
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None) * 2
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
