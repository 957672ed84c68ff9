#!/usr/bin/env python3
"""Benchmark of the ellmat command line on seeded arrangement files.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   every workload in turn
    python3 perfbench/run.py --self-check         tiny inputs, every mode
    python3 perfbench/run.py --record             rewrite reference.json

Run from anywhere inside a source tree that has `src/ellmat` and
`tests/support.py`; the tree root is the parent of this directory.  Each
workload is a list of CLI commands on arrangement files made by
`ellmat random` from the workload seed.  The commands run as real
processes (`python -m ellmat.cli`), one at a time, with a fixed
PYTHONHASHSEED.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SUPPORT = ROOT / "tests" / "support.py"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = BENCH_DIR / ".work"

sys.path.insert(0, str(BENCH_DIR))
from tracer import COUNTERS, known_layer_metrics, layer_values  # noqa: E402

# Input files come from a pool of POOL generator seeds per input kind, all
# covered by reference digests; a run uses one file of each kind, the
# one whose generator seed is the workload seed modulo POOL.
POOL = 16
DEFAULT_SEED = 1
HELD_OUT_SEED = 9  # a different pool entry from the default seed's
SETUP_REPEATS = 5
ORACLE_SUBSETS = 4
CHILD_TIMEOUT_S = 150
TINY_K = 4
# Metrics that take the largest per-command median instead of the sum.
PEAK_METRICS = frozenset({"peak_rss_mb", "arrangement.max_mult_bits"})


@dataclass(frozen=True)
class Kind:
    """One kind of input file and the commands run on each file of it."""

    name: str
    random_args: tuple[str, ...]  # `ellmat random` options except --seed, --out
    commands: tuple[tuple[str, ...], ...]  # subcommand, then options; FILE goes second


def _gen(k: int, n: int, m: int, tau: str, bound: int) -> tuple[str, ...]:
    return ("--k", str(k), "--n", str(n), "--m", str(m), f"--tau={tau}", "--bound", str(bound))


# Two workloads, not four: on a shared 2-core host the wall time of a
# 20-second run moves by about 20% between runs, and only runs near a
# minute long come close to steady.  A comparison of 22 runs per workload
# in under an hour has room for such runs on two workloads.
WORKLOADS: dict[str, tuple[Kind, ...]] = {
    # L2 alone: `tutte` reads the tables and nothing else.  k13n5 is 2^13
    # Smith forms on 26 x 10 expansions; k11n4-big is a non-maximal order
    # (N = 9) with entries up to 1e6, whose multiplicities run to hundreds of
    # bits, so coefficient growth rather than subset count sets its cost.
    "tabulate": (
        Kind("k13n5", _gen(13, 5, 3, "-1,2,1", 3), (("tutte",),)),
        Kind("k11n4-big", _gen(11, 4, 2, "0,1,3", 1000000), (("tutte",),)),
    ),
    # Every verdict path.  k10n3 (rank 3 on 10 elements, many molecules)
    # puts the L3/L4 scans first; the two k9n4 files reach the 2^(k+n)
    # stacked dual tabulation (L5) and the cokernel cross-check (L6) on a
    # maximal order (Z[i]) and a non-maximal one (N = 9).
    "verify": (
        Kind(
            "k10n3",
            _gen(10, 3, 3, "-1,2,1", 3),
            (("verify", "--axioms", "a1,a2,p,p1,p2", "--json"), ("analyze", "--json")),
        ),
        Kind("k9n4-gauss", _gen(9, 4, 1, "0,1,1", 3), (("verify", "--json"),)),
        Kind("k9n4-N9", _gen(9, 4, 2, "0,1,3", 3), (("verify", "--json"),)),
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- children


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int
    stdout: bytes
    stderr: bytes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], workdir: Path) -> ChildResult:
    """Run one process to completion; wall, CPU and peak RSS come from wait4."""
    with tempfile.TemporaryFile(dir=workdir) as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=_child_env(), cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, out, err.read()
        )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "ellmat.cli", *args]


def traced_argv(trace_out: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_out), *args]


# ---------------------------------------------------------------- digests


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdicts_digest(stdout: bytes) -> str | None:
    """Digest of the verdict list in a JSON verify/analyze output, else None."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    try:
        if "checks" in doc:
            verdicts = [[c["name"], c["ok"]] for c in doc["checks"]] + [["ok", doc["ok"]]]
        elif "axioms" in doc:
            verdicts = [[name, a["ok"]] for name, a in doc["axioms"].items()]
            verdicts.append(["gcd_property", doc["gcd_property"]["holds"]])
        else:
            return None
    except (KeyError, TypeError):
        return "malformed"
    return sha256(json.dumps(verdicts).encode())


def command_key(command: tuple[str, ...]) -> str:
    return " ".join(command)


def command_args(command: tuple[str, ...], path: Path) -> list[str]:
    return [command[0], str(path), *command[1:]]


class Library:
    """The ellmat package and the test oracle, imported in this process for
    the checks made outside the timed region."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import ellmat

        spec = importlib.util.spec_from_file_location("ellmat_bench_support", SUPPORT)
        support = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(support)
        self.ellmat = ellmat
        self.support = support

    def tables(self, path: Path):
        arr = self.ellmat.load_arrangement(str(path))
        return arr, self.ellmat.from_arrangement(arr)

    @staticmethod
    def tables_digest(matroid) -> str:
        doc = {"rk": list(matroid.rk), "m": list(matroid.m)}
        return sha256(json.dumps(doc).encode())

    def oracle_misses(self, arr, matroid, rng: random.Random) -> list[str]:
        """Sampled subsets whose rank or multiplicity differs from the
        exhaustive minor-gcd oracle of tests/support.py."""
        misses = []
        for _ in range(ORACLE_SUBSETS):
            idx = sorted(rng.sample(range(arr.k), rng.randint(1, min(2, arr.k))))
            mask = sum(1 << i for i in idx)
            expansion = self.ellmat.expand_lambda(self.ellmat.row_select(arr.matrix, idx))
            rank, torsion = self.support.minor_rank_and_torsion(expansion)
            if rank != 2 * matroid.rk[mask] or torsion != matroid.m[mask]:
                misses.append(self.ellmat.format_subset(mask))
        return misses


# ---------------------------------------------------------------- inputs


def generate(kind: Kind, idx: int, workdir: Path) -> Path:
    """Write the input file of pool entry idx with `ellmat random`."""
    path = workdir / f"{kind.name}-{idx}.json"
    res = run_child(
        cli_argv(["random", *kind.random_args, "--seed", str(idx), "--out", str(path)]), workdir
    )
    if res.code != 0 or not path.is_file():
        raise BenchError(f"ellmat random failed for {kind.name} seed {idx}: {res.stderr!r}")
    return path


def setup(kinds: tuple[Kind, ...], idx: int, workdir: Path) -> tuple[dict, list[float]]:
    """Generate the inputs and make one warm-up call, SETUP_REPEATS times,
    each in a fresh directory.  Returns the last set of files and the times."""
    times = []
    files: dict = {}
    for rep in range(SETUP_REPEATS):
        rep_dir = workdir / f"setup{rep}"
        rep_dir.mkdir()
        start = perf_counter()
        new_files = {kind.name: generate(kind, idx, rep_dir) for kind in kinds}
        warm = run_child(cli_argv(["order-info", "--m", "3", "--tau=-1,2,1"]), rep_dir)
        times.append(perf_counter() - start)
        if warm.code != 0:
            raise BenchError(f"warm-up call failed: {warm.stderr!r}")
        for key, path in new_files.items():
            if key in files and files[key].read_bytes() != path.read_bytes():
                raise BenchError(f"ellmat random is not deterministic for {key}")
        files = new_files
    return files, times


def reference_entry(lib: Library, kind: Kind, path: Path, workdir: Path) -> dict:
    """Digests of one input: file bytes, rk/m tables, and per command the
    exit code, stdout and verdict list."""
    _, matroid = lib.tables(path)
    commands = {}
    for command in kind.commands:
        res = run_child(cli_argv(command_args(command, path)), workdir)
        commands[command_key(command)] = {
            "exit": res.code,
            "stdout": sha256(res.stdout),
            "verdicts": verdicts_digest(res.stdout),
        }
    return {
        "input": sha256(path.read_bytes()),
        "tables": lib.tables_digest(matroid),
        "commands": commands,
    }


def record_reference(lib: Library, kinds: list[Kind], indices: list[int], workdir: Path) -> dict:
    out: dict = {}
    for kind in kinds:
        out[kind.name] = {
            "random_args": list(kind.random_args),
            "inputs": {
                str(idx): reference_entry(lib, kind, generate(kind, idx, workdir), workdir)
                for idx in indices
            },
        }
        print(f"recorded {kind.name}: {len(indices)} inputs", file=sys.stderr)
    return out


# ---------------------------------------------------------------- checking


class Gate:
    """Compares every command execution with the reference digests and
    keeps the mismatches by workload, input and command."""

    def __init__(self, workload: str, refs: dict, idx: int) -> None:
        self.workload = workload
        self.refs = refs
        self.idx = idx
        self.bad_inputs: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[dict] = []

    def _ref(self, kind: Kind) -> dict | None:
        entry = self.refs.get(kind.name)
        if entry is None or entry["random_args"] != list(kind.random_args):
            return None
        return entry["inputs"].get(str(self.idx))

    def check_inputs(self, lib: Library, kinds: tuple[Kind, ...], files: dict, seed: int) -> None:
        """Input bytes, rk/m tables and oracle spot checks, once per input."""
        for kind in kinds:
            path = files[kind.name]
            ref = self._ref(kind)
            if ref is None:
                self.bad_inputs[kind.name] = ["no reference digest"]
                continue
            problems = []
            if sha256(path.read_bytes()) != ref["input"]:
                problems.append("input bytes")
            arr, matroid = lib.tables(path)
            if lib.tables_digest(matroid) != ref["tables"]:
                problems.append("rk/m tables")
            misses = lib.oracle_misses(arr, matroid, random.Random(f"{seed}:{kind.name}"))
            if misses:
                problems.append(f"minor-gcd oracle on {', '.join(misses)}")
            if problems:
                self.bad_inputs[kind.name] = problems

    def check(self, kind: Kind, command: tuple[str, ...], res: ChildResult) -> None:
        self.attempted += 1
        problems = list(self.bad_inputs.get(kind.name, ()))
        ref = self._ref(kind)
        expected = None if ref is None else ref["commands"].get(command_key(command))
        if expected is None:
            problems.append("no reference digest")
        else:
            if res.code != expected["exit"]:
                problems.append(f"exit code {res.code} != {expected['exit']}")
            if sha256(res.stdout) != expected["stdout"]:
                problems.append("stdout digest")
            if verdicts_digest(res.stdout) != expected["verdicts"]:
                problems.append("verdict digest")
        if problems:
            self.failed += 1
            self.mismatches.append(
                {
                    "workload": self.workload,
                    "input": f"{kind.name}#{self.idx}",
                    "command": command_key(command),
                    "problems": problems,
                    "stderr_tail": res.stderr[-300:].decode(errors="replace"),
                }
            )


# ---------------------------------------------------------------- running


def run_workload(
    lib: Library,
    workload: str,
    kinds: tuple[Kind, ...],
    refs: dict,
    seed: int,
    seconds: float,
    trace: bool,
) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        idx = seed % POOL
        files, setup_times = setup(kinds, idx, workdir)
        gate = Gate(workload, refs, idx)
        gate.check_inputs(lib, kinds, files, seed)
        jobs = [(kind, command, files[kind.name]) for kind in kinds for command in kind.commands]
        samples: list[list[dict]] = [[] for _ in jobs]
        measure = _traced_sample if trace else _sample
        start = perf_counter()
        done = 0
        # Round robin over the commands, so each one is sampled across the
        # whole run; stop after the command that crosses the deadline.
        while done < len(jobs) or perf_counter() - start < seconds:
            slot = done % len(jobs)
            samples[slot].append(measure(gate, jobs[slot], workdir))
            done += 1
        return {
            "workload": workload,
            "seed": seed,
            "inputs": [f"{kind.name}#{idx}" for kind in kinds],
            "commands": [f"{command_key(cmd)} <{kind.name}>" for kind, cmd, _ in jobs],
            "trace": trace,
            "setup_s": setup_times,
            "samples": samples,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "mismatches": gate.mismatches,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _sample(gate: Gate, job: tuple, workdir: Path) -> dict:
    kind, command, path = job
    res = run_child(cli_argv(command_args(command, path)), workdir)
    gate.check(kind, command, res)
    return {"run_s": res.wall_s, "cpu_s": res.cpu_s, "peak_rss_mb": res.rss_kb / 1024}


def _traced_sample(gate: Gate, job: tuple, workdir: Path) -> dict:
    """The command untraced, then traced; the difference is the overhead."""
    kind, command, path = job
    args = command_args(command, path)
    plain = run_child(cli_argv(args), workdir)
    gate.check(kind, command, plain)
    trace_out = workdir / "trace.json"
    traced = run_child(traced_argv(trace_out, args), workdir)
    gate.check(kind, command, traced)
    try:
        with open(trace_out, encoding="utf-8") as handle:
            doc = json.load(handle)
        trace_out.unlink()
    except (OSError, ValueError):  # the child died before writing; the gate saw it
        doc = {"spans": [], "counters": dict.fromkeys(COUNTERS, 0), "absent": []}
    values = layer_values([doc])
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return {"values": values, "doc": doc}


def metrics_of(result: dict, spec: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode.  Each command's
    samples give a median; the medians add up over the workload's commands
    (one pass), except peak values, which take the largest."""
    if result["trace"]:
        wanted = spec["per_layer"]

        def per_command(samples: list[dict], name: str) -> float:
            return statistics.median([s["values"].get(name, 0) for s in samples])

    else:
        wanted = spec["end_to_end"]

        def per_command(samples: list[dict], name: str) -> float:
            return statistics.median([s[name] for s in samples])

    out = {}
    for metric in wanted:
        name = metric["name"]
        if name == "setup_s":
            value = statistics.median(result["setup_s"])
        else:
            values = [per_command(samples, name) for samples in result["samples"]]
            value = max(values) if name in PEAK_METRICS else sum(values)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


# ---------------------------------------------------------------- reporting


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ellmat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _span_tree(result: dict) -> list[str]:
    """Spans of one pass: each command's spans averaged over its traced
    executions, summed over the commands."""
    totals: dict[str, list] = {}
    for samples in result["samples"]:
        for sample in samples:
            for span in sample["doc"]["spans"]:
                row = totals.setdefault(span["path"], [0.0, 0.0, 0.0])
                row[0] += span["calls"] / len(samples)
                row[1] += span["total_s"] / len(samples)
                row[2] += span["self_s"] / len(samples)
    lines = ["  spans per pass:        calls   total_s   self_s  path (parent/child)"]
    for path, (calls, total, self_s) in sorted(totals.items()):
        lines.append(f"  {calls:19.0f} {total:9.4f} {self_s:8.4f}  {path}")
    return lines


def print_report(result: dict, metrics: dict) -> None:
    rate = result["failed"] / result["attempted"]
    print(
        f"workload={result['workload']} seed={result['seed']} inputs={','.join(result['inputs'])} "
        f"trace={int(result['trace'])} samples per command="
        f"{','.join(str(len(samples)) for samples in result['samples'])}"
    )
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"  error_rate {result['failed']}/{result['attempted']} = {rate:.6g}")
    for mismatch in result["mismatches"]:
        print(f"  MISMATCH {json.dumps(mismatch)}")
    if result["trace"]:
        absent = sorted({a for samples in result["samples"] for s in samples for a in s["doc"]["absent"]})
        if absent:
            print(f"  absent from the code: {', '.join(absent)}")
        for line in _span_tree(result):
            print(line)


def result_line(results: list[dict], metrics: dict) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


# ---------------------------------------------------------------- modes


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC.name}: {exc}") from exc


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())["kinds"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read {REFERENCE.name}: {exc}") from exc


def check_tree() -> None:
    if not (SRC / "ellmat" / "cli.py").is_file() or not SUPPORT.is_file():
        raise BenchError(f"no ellmat sources under {ROOT}: need src/ellmat and tests/support.py")


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    refs = load_reference()
    lib = Library()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_before": _loadavg(),
        "run_seconds": args.seconds,
        "results": [],
    }
    print(f"nproc={record['nproc']} python={record['python']} commit={record['commit']}")
    results, metrics = [], {}
    for name in names:
        result = run_workload(lib, name, WORKLOADS[name], refs, args.seed, args.seconds, bool(args.trace))
        wm = metrics_of(result, spec)
        print_report(result, wm)
        results.append(result)
        record["results"].append({**result, "metrics": wm})
        if len(names) == 1:
            metrics = wm
        else:
            metrics.update({f"{name}.{key}": value for key, value in wm.items()})
    record["loadavg_after"] = _loadavg()
    print(f"loadavg before={record['loadavg_before']} after={record['loadavg_after']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(result_line(results, metrics))
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    lib = Library()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT))
    try:
        kinds = [kind for kinds in WORKLOADS.values() for kind in kinds]
        refs = record_reference(lib, kinds, list(range(POOL)), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"commit": _git_commit(), "source_sha256": _source_digest(), "kinds": refs}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def _tiny(kind: Kind) -> Kind:
    args = list(kind.random_args)
    args[args.index("--k") + 1] = str(TINY_K)
    return replace(kind, name=f"{kind.name}-tiny", random_args=tuple(args))


def cmd_self_check(args: argparse.Namespace) -> int:
    """Every workload once on tiny inputs, traced and untraced: all named
    metrics present with their units, and the gate fires on bad digests."""
    spec = load_spec()
    lib = Library()
    failures = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)
            print(f"self-check FAIL: {what}")

    expect({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json workloads match")
    unknown = {m["name"] for m in spec["per_layer"]} - known_layer_metrics()
    expect(not unknown, f"per-layer metrics the tracer knows ({sorted(unknown)})")
    expect(
        DEFAULT_SEED % POOL != HELD_OUT_SEED % POOL,
        "held-out seed uses inputs the default seed does not",
    )
    tiny = {w: tuple(_tiny(k) for k in kinds) for w, kinds in WORKLOADS.items()}
    idx = args.seed % POOL
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="self-check-", dir=WORK_ROOT))
    try:
        refs = record_reference(lib, [k for kinds in tiny.values() for k in kinds], [idx], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for workload, kinds in tiny.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(lib, workload, kinds, refs, args.seed, 0, trace)
            metrics = metrics_of(result, spec)
            print_report(result, metrics)
            units = {m["name"]: m["unit"] for m in spec[section]}
            expect(
                {n: m["unit"] for n, m in metrics.items()} == units,
                f"{workload} trace={int(trace)}: every {section} metric with its unit",
            )
            expect(result["failed"] == 0 and result["attempted"] > 0, f"{workload} trace={int(trace)}: correct")
    bad_stdout = copy.deepcopy(refs)
    entry = bad_stdout[tiny["tabulate"][0].name]["inputs"][str(idx)]
    entry["commands"]["tutte"]["stdout"] = "0" * 64
    result = run_workload(lib, "tabulate", tiny["tabulate"], bad_stdout, args.seed, 0, False)
    expect(result["failed"] == 1, "gate fires on a wrong stdout digest, on that command only")
    bad_tables = copy.deepcopy(refs)
    bad_tables[tiny["verify"][2].name]["inputs"][str(idx)]["tables"] = "0" * 64
    result = run_workload(lib, "verify", tiny["verify"], bad_tables, args.seed, 0, False)
    expect(result["failed"] == 1, "gate fires on a wrong table digest, on that input only")
    print("self-check: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


def _terminate(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # A terminated run still kills its child and removes its work directory.
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the full run record as JSON")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-check", action="store_true")
    mode.add_argument("--record", action="store_true", help="rewrite reference.json from this tree")
    args = parser.parse_args(argv)
    try:
        check_tree()
        if args.self_check:
            return cmd_self_check(args)
        if args.record:
            return cmd_record(args)
        return cmd_run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
