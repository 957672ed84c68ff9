"""Golden digests of the command line: exit code, stdout and stderr of every
case in golden.json, run through `cli.main` in process.

Each case is an argv; the input files it names are made first, in a fresh
directory that is the working directory of every case, so the recorded
output holds no machine path.  A case records the sha256 of stdout and of
stderr.  Where stderr carries a message of Python's own (its JSON decoder,
its integer-digit limit, the operating system's file errors), which can
differ across Python versions, the case records only that stderr starts
with "error: ".

A change that alters output on purpose re-records, from the repository
root:

    PYTHONPATH=src python tests/test_golden.py --record

and names every changed case and why; a re-record that hides an
unintended change loosens this check.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ellmat import ArithmeticMatroid, cli, from_arrangement
from support import FIXTURE_OMEGA_DOC, FIXTURE_SQRT3_DOC

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# (curve name, `random` curve options, bound): Z[i], m = 3, N = 9 at a
# small bound and at 10^6, and m = 7.
_CURVES = (
    ("gauss", ("--m", "1", "--tau", "0,1,1"), 3),
    ("m3", ("--m", "3", "--tau=-1,2,1"), 3),
    ("n9", ("--m", "2", "--tau", "0,1,3"), 5),
    ("n9big", ("--m", "2", "--tau", "0,1,3"), 10**6),
    ("m7", ("--m", "7", "--tau", "0,1,1"), 3),
)
# (k, n, seed) of the seeded files of each curve, k <= 7.
_SHAPES = ((3, 1, 1), (4, 2, 2), (5, 3, 3), (6, 2, 4), (7, 3, 5), (6, 4, 6))


def _random_args(options: tuple[str, ...], k: int, n: int, bound: int, seed: int) -> list[str]:
    shape = ["--k", str(k), "--n", str(n)]
    return ["random", *shape, *options, "--bound", str(bound), "--seed", str(seed)]


def _files() -> dict[str, bytes]:
    """The input files by name: seeded random files over five curves, an
    n = 0 file, README's example and the two fixtures, and bad input."""
    files = {}
    for name, options, bound in _CURVES:
        for k, n, seed in _SHAPES:
            files[f"{name}-k{k}n{n}.json"] = _stdout(_random_args(options, k, n, bound, seed))
    files["n0.json"] = _stdout(_random_args(_CURVES[1][1], 5, 0, 3, 7))
    files["sqrt3.json"] = json.dumps(FIXTURE_SQRT3_DOC).encode()
    files["omega.json"] = json.dumps(FIXTURE_OMEGA_DOC).encode()
    files["malformed.json"] = b'{"field": {"m": 3}, "tau"'
    files["missing-keys.json"] = b'{"field": {"m": 3}}'
    files["huge-coordinate.json"] = json.dumps(
        {**FIXTURE_SQRT3_DOC, "matrix": {"rows": 1, "cols": 1, "entries": [[[2**64, 0]]]}}
    ).encode()
    files["non-utf8.json"] = b"\xff\xfe"
    files["huge-integer.json"] = b'{"field": {"m": ' + b"7" * 5000 + b"}}"
    return files


# A file's tables are always those of an arithmetic matroid, so only
# cases run on tampered tables make `verify` print violations.
TAMPERED = "tampered"


def _tampered(arrangement) -> ArithmeticMatroid:
    """The tables of `arrangement` with m({1}) tripled and rk({1}) lowered by
    one, which fail every check but p-equivalence on the files used."""
    matroid = from_arrangement(arrangement)
    rk, m = list(matroid.rk), list(matroid.m)
    m[1] *= 3
    rk[1] -= 1
    return ArithmeticMatroid(matroid.size, tuple(rk), tuple(m))


def _cases() -> list[tuple[list[str], bool]]:
    """Every argv, with whether its stderr text is ellmat's own; an argv
    that starts with TAMPERED runs on `_tampered` tables."""
    cases = [
        ([TAMPERED, "verify", path, *flags], True)
        for path in ("gauss-k4n2.json", "m3-k4n2.json")
        for flags in ([], ["--json"])
    ]
    for name, options, bound in _CURVES:
        for k, n, _ in _SHAPES:
            path = f"{name}-k{k}n{n}.json"
            cases += [(["verify", path, "--json"], True), (["analyze", path, "--json"], True)]
        small = f"{name}-k4n2.json"
        cases += [
            ([command, small] + extra, True)
            for command, extra in (
                ("analyze", []),
                ("verify", []),
                ("verify", ["--axioms", "a2,p"]),
                ("verify", ["--axioms", "dual,coker-xcheck", "--json"]),
                ("tutte", []),
                ("euler", []),
                ("gcd-check", []),
                ("dual", []),
            )
        ]
        cases.append((_random_args(options, 3, 2, bound, 11), True))
    cases += [
        (["analyze", "n9-k7n3.json"], True),
        (["analyze", "n9big-k5n3.json"], True),
        (["verify", "n0.json"], True),
        (["analyze", "n0.json"], True),
        (["dual", "n0.json"], True),
        (["euler", "gauss-k3n1.json"], True),
        (["dual", "m3-k3n1.json", "--emit-arrangement", "stacked.json"], True),
        (["verify", "m3-k5n3.json", "--axioms", "a1,p1,p2"], True),
        (["verify", "gauss-k6n2.json", "--axioms", "p,dual"], True),
    ]
    for name in ("sqrt3.json", "omega.json"):
        cases += [
            (["analyze", name], True),
            (["analyze", name, "--json"], True),
            (["verify", name], True),
            (["verify", name, "--json"], True),
            (["tutte", name], True),
            (["euler", name], True),
            (["gcd-check", name], True),
            (["dual", name], True),
        ]
    cases += [
        (["verify", "malformed.json"], False),
        (["verify", "missing.json"], False),
        (["analyze", "non-utf8.json"], False),
        (["analyze", "huge-integer.json"], False),
        (["verify", "missing-keys.json"], True),
        (["tutte", "huge-coordinate.json"], True),
    ]
    curves = (("1", "0,1,1"), ("3", "-1,2,1"), ("3", "0,1,1"), ("2", "0,1,3"), ("7", "1,2,3"))
    cases += [(["order-info", "--m", m, f"--tau={tau}"], True) for m, tau in curves]
    cases += [
        (["order-info", "--m", "4", "--tau", "0,1,1"], True),
        (["order-info", "--m", "3", "--tau", "0,1"], True),
    ]
    return cases


def _run(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    tampered = argv[0] == TAMPERED
    if tampered:
        argv = argv[1:]
        cli.from_arrangement = _tampered
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli.from_arrangement = from_arrangement
    return code, out.getvalue().encode(), err.getvalue().encode()


def _stdout(argv: list[str]) -> bytes:
    code, out, err = _run(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {err!r}")
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(argv: list[str], own_stderr: bool) -> dict:
    code, out, err = _run(argv)
    entry = {"code": code, "stdout": _digest(out)}
    if own_stderr:
        entry["stderr"] = _digest(err)
    else:
        # Only the prefix: the rest is Python's or the system's text.
        entry["stderr_prefix"] = err[:7].decode()
    return entry


def digests(workdir: Path) -> dict[str, dict]:
    """The recorded entry of every case, its key the argv joined by spaces,
    run with `workdir` as the working directory."""
    for name, data in _files().items():
        (workdir / name).write_bytes(data)
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        return {" ".join(argv): _record(argv, own) for argv, own in _cases()}
    finally:
        os.chdir(previous)


def test_cli_output_matches_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = digests(tmp_path)
    assert sorted(current) == sorted(golden)
    changed = [key for key in golden if current[key] != golden[key]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as scratch:
        recorded = digests(Path(scratch))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {GOLDEN}")
