import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ellmat.arrangement
from ellmat import EllipticArrangement, cli, fileio, from_arrangement
from support import FIXTURE_OMEGA_DOC, FIXTURE_SQRT3_DOC


@pytest.fixture()
def sqrt3_file(tmp_path):
    path = tmp_path / "sqrt3.json"
    path.write_text(json.dumps(FIXTURE_SQRT3_DOC))
    return str(path)


@pytest.fixture()
def omega_file(tmp_path):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(FIXTURE_OMEGA_DOC))
    return str(path)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(sqrt3_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", sqrt3_file)
    assert code == 0
    assert "N: 1" in out
    assert "conductor: 2" in out
    assert "essential: yes" in out
    lines = [line.split() for line in out.splitlines() if line.startswith("{")]
    assert lines == [
        ["{}", "0", "1", "1", "-"],
        ["{1}", "1", "4", "0", "2", "|", "2"],
        ["{2}", "1", "4", "0", "4"],
        ["{1,2}", "1", "2", "0", "2"],
    ]
    assert "tutte polynomial: x + 2*y + 5" in out
    assert "characteristic polynomial: t - 6" in out
    assert "euler characteristic: -6" in out
    assert "gcd property: FAIL (witness {1,2})" in out


def test_analyze_json(sqrt3_file, capsys):
    code, out, _ = run_cli(capsys, "analyze", sqrt3_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["curve"]["N"] == 1
    assert [s["multiplicity"] for s in doc["subsets"]] == [1, 4, 4, 2]
    assert [s["subset"] for s in doc["subsets"]] == [0, 1, 2, 3]
    assert doc["subsets"][3]["indices"] == [1, 2]
    assert doc["euler"] == -6
    assert doc["tutte"] == [[0, 0, 5], [0, 1, 2], [1, 0, 1]]
    assert doc["char_poly"] == [-6, 1]
    assert doc["gcd_property"] == {"holds": False, "witness": "{1,2}"}
    assert all(v["ok"] for v in doc["axioms"].values())


def test_analyze_walks_once(sqrt3_file, capsys, monkeypatch):
    calls = [0]
    original = EllipticArrangement._walk

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(EllipticArrangement, "_walk", counted)
    for flags in ((), ("--json",)):
        calls[0] = 0
        assert run_cli(capsys, "analyze", sqrt3_file, *flags)[0] == 0
        assert calls[0] == 1


def test_analyze_json_is_deterministic(sqrt3_file, capsys):
    _, first, _ = run_cli(capsys, "analyze", sqrt3_file, "--json")
    _, second, _ = run_cli(capsys, "analyze", sqrt3_file, "--json")
    assert first == second


def test_tutte_command(sqrt3_file, capsys):
    code, out, _ = run_cli(capsys, "tutte", sqrt3_file)
    assert code == 0
    assert out.strip() == "x + 2*y + 5"


def test_euler_command(sqrt3_file, capsys):
    code, out, _ = run_cli(capsys, "euler", sqrt3_file)
    assert code == 0
    assert out.strip() == "-6"


def test_euler_flags_non_essential(tmp_path, capsys):
    doc = {
        "field": {"m": 3},
        "tau": {"a": -1, "b": 2, "c": 1},
        "matrix": {"rows": 1, "cols": 2, "entries": [[[1, 0], [1, 1]]]},
    }
    path = tmp_path / "nonessential.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "euler", str(path))
    assert code == 0
    assert out.splitlines()[0] == "0"
    assert "non-essential" in out


def test_gcd_check_exit_codes(sqrt3_file, omega_file, capsys):
    code, out, _ = run_cli(capsys, "gcd-check", sqrt3_file)
    assert code == 1
    assert out.strip() == "FAIL (witness {1,2})"
    code, out, _ = run_cli(capsys, "gcd-check", omega_file)
    assert code == 0
    assert out.strip() == "PASS"


def test_verify_passes(sqrt3_file, capsys):
    code, out, _ = run_cli(capsys, "verify", sqrt3_file)
    assert code == 0
    assert "result: PASS" in out
    for name in ("rank", "a1", "a2", "p", "p1", "p2", "dual", "coker-xcheck", "p-equivalence"):
        assert f"{name}: ok" in out


def test_verify_selected_axioms_json(sqrt3_file, capsys):
    code, out, _ = run_cli(capsys, "verify", sqrt3_file, "--axioms", "a1,p1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == ["rank", "a1", "p1"]
    assert doc["ok"] is True


def test_verify_repeated_axiom_runs_once(sqrt3_file, capsys):
    for extra in ((), ("--json",)):
        repeated = run_cli(capsys, "verify", sqrt3_file, "--axioms", "p,p,a1", *extra)
        assert repeated == run_cli(capsys, "verify", sqrt3_file, "--axioms", "p,a1", *extra)
    doc = json.loads(repeated[1])
    assert [c["name"] for c in doc["checks"]] == ["rank", "p", "a1", "p-equivalence"]


def test_verify_exit_code_on_violation(sqrt3_file, capsys, monkeypatch):
    from ellmat.matroid import Violation

    def fake_check_axioms(matroid, names, arrangement=None):
        injected = (Violation("a1", (0,), "injected failure"),)
        return {name: injected if name == "a1" else () for name in names}

    monkeypatch.setattr(cli, "check_axioms", fake_check_axioms)
    code, out, _ = run_cli(capsys, "verify", sqrt3_file, "--axioms", "a1")
    assert code == 1
    assert "a1: FAIL" in out
    assert "injected failure" in out
    assert "result: FAIL" in out


def test_verify_rejects_unknown_axiom(sqrt3_file, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", sqrt3_file, "--axioms", "a1,bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("spelling", ["", " , "])
def test_verify_rejects_empty_axiom_list(sqrt3_file, capsys, spelling):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", sqrt3_file, "--axioms", spelling])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "empty check list" in err


def test_dual_command(sqrt3_file, tmp_path, capsys):
    out_path = tmp_path / "stacked.json"
    code, out, _ = run_cli(
        capsys, "dual", sqrt3_file, "--emit-arrangement", str(out_path)
    )
    assert code == 0
    assert "contract T = {3}" in out
    rows = [line.split() for line in out.splitlines() if line.startswith("{")]
    assert rows == [
        ["{}", "0", "2"],
        ["{1}", "1", "4"],
        ["{2}", "1", "4"],
        ["{1,2}", "1", "1"],
    ]
    emitted = json.loads(out_path.read_text())
    assert emitted["matrix"]["rows"] == 3
    assert emitted["matrix"]["entries"][2] == [[2, 0], [1, -1]]
    # The saved stacked arrangement realizes the dual: contracting T = {3}
    # gives the dual tables of A, and it passes every check itself.
    stacked = fileio.load_arrangement(str(out_path))
    dual = from_arrangement(fileio.load_arrangement(sqrt3_file)).dual()
    assert from_arrangement(stacked).contraction(0b100) == dual
    assert run_cli(capsys, "verify", str(out_path))[0] == 0


def test_dual_emits_the_pinned_stacked_file(tmp_path, capsys):
    # An m = 7 curve has gen_trace 1, so every conjugated entry x + y*w of
    # A^H reads (x + y) - y*w and the s*y term shows in the bytes.
    source, stacked = tmp_path / "m7.json", tmp_path / "stacked.json"
    shape = ("--k", "3", "--n", "2", "--m", "7", "--tau", "0,1,1", "--bound", "3")
    assert run_cli(capsys, "random", *shape, "--seed", "1", "--out", str(source))[0] == 0
    assert fileio.load_arrangement(str(source)).curve.gen_trace == 1
    assert hashlib.sha256(source.read_bytes()).hexdigest() == (
        "4bdf18bb9f00eecf0d467a62c61738c591805527a18a07dd66f3ca7d5971306a"
    )
    assert run_cli(capsys, "dual", str(source), "--emit-arrangement", str(stacked))[0] == 0
    assert hashlib.sha256(stacked.read_bytes()).hexdigest() == (
        "7a560a5c6ad07674dda1cceaaf9a9c6e5975d7137dfb7b829e8f34a22e8e886a"
    )


def test_dual_refused_write_prints_nothing(sqrt3_file, tmp_path, capsys):
    # The stacked arrangement is saved before the dual table is printed, so
    # a write into a missing directory leaves stdout empty.
    out_path = tmp_path / "missing" / "stacked.json"
    code, out, err = run_cli(capsys, "dual", sqrt3_file, "--emit-arrangement", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and not out_path.parent.exists()


def test_commands_expand_only_what_they_walk(sqrt3_file, tmp_path, capsys, monkeypatch):
    calls = [0]
    original = ellmat.arrangement.expand_lambda

    def counted(matrix):
        calls[0] += 1
        return original(matrix)

    monkeypatch.setattr(ellmat.arrangement, "expand_lambda", counted)
    random_args = ("--k", "3", "--n", "2", "--m", "1", "--tau", "0,1,1", "--bound", "3")
    # dual walks A only; the stacked arrangement is printed and saved.
    # random writes a matrix it never walks; verify walks A, the stacked
    # one and, for coker-xcheck, sigma(A)*W over C/R.
    for args, expected in (
        (("dual", sqrt3_file, "--emit-arrangement", str(tmp_path / "stacked.json")), 1),
        (("random", *random_args, "--seed", "1", "--out", str(tmp_path / "random.json")), 0),
        (("verify", sqrt3_file), 3),
    ):
        calls[0] = 0
        assert run_cli(capsys, *args)[0] == 0
        assert calls[0] == expected, args


def test_verify_builds_an_order_curve_beyond_the_input_limit(tmp_path, capsys):
    # c_prime = c here, so C/R has a = c*a, about 2^126: coker-xcheck
    # must build it without make_curve, which refuses inputs from 2^64 up.
    doc = {
        "field": {"m": 1},
        "tau": {"a": 2**63, "b": 1, "c": 2**63 + 1},
        "matrix": {
            "rows": 3,
            "cols": 2,
            "entries": [[[1, 2], [3, -1]], [[2, 0], [1, 1]], [[0, 3], [-2, 1]]],
        },
    }
    path = tmp_path / "large_tau.json"
    path.write_text(json.dumps(doc))
    for axioms in ((), ("--axioms", "coker-xcheck")):
        code, out, err = run_cli(capsys, "verify", str(path), *axioms)
        assert (code, err) == (0, "")
        assert "coker-xcheck: ok" in out.splitlines()


def test_order_info(capsys):
    code, out, _ = run_cli(capsys, "order-info", "--m", "1", "--tau", "0,1,2")
    assert code == 0
    assert "N: 4" in out
    assert "conductor: 2" in out
    assert "minimal polynomial: 4*x^2 + 1" in out
    assert "discriminant: -16" in out
    # The whole report, byte for byte, on curves with N = 4, N = 1 at
    # conductor 2, and N = 9 with a nonzero trace.
    expected = {
        ("--m", "1", "--tau", "0,1,2"): [
            "m: 1", "omega: sqrt(-1)", "tau: (0 + 1*omega)/2", "N: 4",
            "endomorphism ring: Z[1, N*tau]", "conductor: 2",
            "minimal polynomial: 4*x^2 + 1", "discriminant: -16",
        ],
        ("--m", "3", "--tau=-1,2,1"): [
            "m: 3", "omega: (1 + sqrt(-3))/2", "tau: (-1 + 2*omega)/1", "N: 1",
            "endomorphism ring: Z[1, N*tau]", "conductor: 2",
            "minimal polynomial: x^2 + 3", "discriminant: -12",
        ],
        ("--m", "7", "--tau=1,1,3"): [
            "m: 7", "omega: (1 + sqrt(-7))/2", "tau: (1 + 1*omega)/3", "N: 9",
            "endomorphism ring: Z[1, N*tau]", "conductor: 3",
            "minimal polynomial: 9*x^2 - 9*x + 4", "discriminant: -63",
        ],
    }
    for args, lines in expected.items():
        text = "".join(f"{line}\n" for line in lines)
        assert run_cli(capsys, "order-info", *args) == (0, text, "")


def test_order_info_large_prime_is_quick(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "order-info", "--m", "100000000000031", "--tau=0,1,1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "m: 100000000000031" in out


def test_order_info_rejects_bad_tau(capsys):
    code, _, err = run_cli(capsys, "order-info", "--m", "1", "--tau", "0,1")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "order-info", "--m", "3", "--tau", "1,x,3")
    assert code == 2
    assert err == "error: --tau expects integers, got '1,x,3'\n"


def test_random_is_deterministic(tmp_path, capsys):
    # Negative leading values need the --tau=... form, or argparse reads
    # them as options.
    args = ["random", "--k", "3", "--n", "2", "--m", "3", "--tau=-1,2,1",
            "--bound", "2", "--seed", "7"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == first.read_text()


def test_random_file_round_trips_through_verify(tmp_path, capsys):
    path = tmp_path / "rand.json"
    code = cli.main(
        ["random", "--k", "3", "--n", "2", "--m", "1", "--tau", "0,1,2",
         "--bound", "2", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "result: PASS" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"m": 12}, "tau": {"a": 0, "b": 1, "c": 1},
                                "matrix": {"rows": 0, "cols": 0, "entries": []}}))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "square-free" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/path.json")
    assert code == 2
    assert "error:" in err


def test_huge_integer_exit_code(tmp_path, capsys):
    # Past 4300 digits int() refuses the literal; json.loads raises ValueError.
    path = tmp_path / "huge.json"
    path.write_text('{"field": {"m": ' + "7" * 5000 + "}}")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_deep_nesting_exit_code(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_non_utf8_file_exit_code(tmp_path, capsys):
    # The file is decoded before the JSON parser runs, so a bad byte is an
    # input error too, whether it leads the file or follows valid JSON.
    valid = json.dumps(FIXTURE_SQRT3_DOC).encode()
    for data in (b"\xff\xfe", valid + b"\xff"):
        path = tmp_path / "binary.json"
        path.write_bytes(data)
        for command in ("analyze", "verify", "tutte", "euler", "gcd-check", "dual"):
            code, out, err = run_cli(capsys, command, str(path))
            assert (code, out) == (2, ""), command
            assert err.startswith("error: invalid UTF-8: "), command


def test_endless_file_exit_code(capsys):
    # /dev/zero was read until memory ran out; the read stops one byte past
    # the limit.
    start = time.monotonic()
    code, out, err = run_cli(capsys, "verify", "/dev/zero")
    assert time.monotonic() - start < 10.0
    assert (code, out) == (2, "")
    assert err == f"error: /dev/zero: longer than the limit of {fileio.READ_LIMIT} bytes\n"


def test_file_byte_limit_exit_code(tmp_path, capsys, monkeypatch):
    text = json.dumps(FIXTURE_SQRT3_DOC)
    path = tmp_path / "sqrt3.json"
    path.write_text(text)
    monkeypatch.setattr(fileio, "READ_LIMIT", len(text))
    assert run_cli(capsys, "verify", str(path))[0] == 0
    path.write_text(text + "\n")
    for command in ("analyze", "verify", "tutte", "euler", "gcd-check", "dual"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert err == f"error: {path}: longer than the limit of {len(text)} bytes\n", command


def test_ground_set_cap_exit_code(tmp_path, capsys):
    # 2^21 Smith forms would take minutes; the cap must refuse the file first.
    path = tmp_path / "wide.json"
    random_args = "--k 21 --n 2 --m 1 --tau 0,1,1 --bound 2 --seed 1".split()
    assert run_cli(capsys, "random", *random_args, "--out", str(path))[0] == 0
    for command in ("tutte", "analyze", "verify"):
        start = time.monotonic()
        code, out, err = run_cli(capsys, command, str(path))
        assert time.monotonic() - start < 2.0
        assert code == 2
        assert out == ""
        assert "error:" in err and "cap of 20" in err


def test_random_entry_limit_exit_code(capsys):
    # 10^12 entry pairs would exhaust memory; the limit must refuse them
    # before any is drawn, for a huge k, a huge n and a huge k with n = 0.
    spec = "--m 1 --tau 0,1,1 --bound 2 --seed 1".split()
    for k, n in ((10**9, 1000), (1, 10**9), (10**9, 0), (1001, 1000)):
        start = time.monotonic()
        code, out, err = run_cli(capsys, "random", "--k", str(k), "--n", str(n), *spec)
        assert time.monotonic() - start < 2.0
        assert (code, out) == (2, "")
        limit = "exceeds the limit of 1000000 rows, columns or entries"
        assert err == f"error: a {k} x {n} matrix {limit}\n"


def test_file_entry_limit_exit_code(tmp_path, capsys):
    # A zero-row file of width 10^18 ended in a MemoryError traceback and
    # one of width 3*10^7 ran for minutes; parsing must refuse both, and
    # too many rows or entries, on every command that reads a file.
    limit = "exceeds the limit of 1000000 rows, columns or entries"
    path = tmp_path / "huge_shape.json"
    for rows, cols in ((0, 10**18), (0, 30_000_000), (10**7, 0), (1001, 1000)):
        doc = dict(FIXTURE_SQRT3_DOC, matrix={"rows": rows, "cols": cols, "entries": []})
        path.write_text(json.dumps(doc))
        for command in ("analyze", "verify", "tutte", "euler", "gcd-check", "dual"):
            start = time.monotonic()
            code, out, err = run_cli(capsys, command, str(path))
            assert time.monotonic() - start < 2.0
            assert (code, out, err) == (2, "", f"error: a {rows} x {cols} matrix {limit}\n")


def test_file_at_the_entry_limit_exit_code(tmp_path, capsys):
    # A legal file of ENTRY_LIMIT real entries is read and converted whole,
    # then refused by the ground-set cap, in bounded time.
    row = [[j % 7 - 3, j % 5 - 2] for j in range(1000)]
    doc = dict(FIXTURE_SQRT3_DOC, matrix={"rows": 1000, "cols": 1000, "entries": [row] * 1000})
    path = tmp_path / "entry_limit.json"
    path.write_text(json.dumps(doc, separators=(",", ":")))
    start = time.monotonic()
    code, out, err = run_cli(capsys, "verify", str(path))
    assert time.monotonic() - start < 10.0
    assert (code, out, err) == (2, "", "error: ground set of 1000 elements exceeds the cap of 20\n")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Importing either costs every process start-up time.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    code = "import sys, ellmat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_huge_coordinates_exit_code(tmp_path, capsys):
    # Legal JSON, under the 4300-digit limit, but the multiplicities and
    # coefficients printed from such entries would pass it.
    doc = {
        "field": {"m": 1},
        "tau": {"a": 0, "b": 1, "c": 1},
        "matrix": {"rows": 1, "cols": 1, "entries": [[[10**4000, 1]]]},
    }
    path = tmp_path / "huge_entry.json"
    path.write_text(json.dumps(doc))
    message = "error: matrix.entries[0][0]: |x| and |y| must be below 2^64\n"
    for command in ("analyze", "analyze --json", "verify", "tutte", "euler", "gcd-check", "dual"):
        name, *flags = command.split()
        assert run_cli(capsys, name, str(path), *flags) == (2, "", message)
    tau = "--tau", f"0,1,{10**4000 + 1}"
    assert run_cli(capsys, "order-info", "--m", "1", *tau)[0] == 2
    random_args = "random --k 1 --n 1 --m 1 --tau 0,1,1 --seed 1 --bound".split()
    assert run_cli(capsys, *random_args, str(1 << 64))[0] == 2
    # The largest legal coordinates still parse.
    assert run_cli(capsys, *random_args, str((1 << 64) - 1), "--out", str(path))[0] == 0
    assert run_cli(capsys, "tutte", str(path))[0] == 0


def test_huge_m_exit_code(tmp_path, capsys):
    doc = dict(FIXTURE_SQRT3_DOC, field={"m": 10**29 + 1})
    path = tmp_path / "huge_m.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "error:" in err


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


_HOSTILE = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-(1 << 64), (1 << 64) - 1, 1 << 64, 10**30, -(10**30), 10**4000]),
    st.sampled_from([None, True, 0.5, float("nan"), float("inf"), "", "3", [], [1, 2], {}]),
    st.sampled_from([{"m": 3}, {"a": 0, "b": 1, "c": 1}, [[1, 0]], [[[1, 0]]]]),
    st.sampled_from([2, 50, 200]).map(_nested),
).map(copy.deepcopy)  # a later mutation must not edit the constants above

_ZERO_ROWS = {
    "field": {"m": 1},
    "tau": {"a": 0, "b": 1, "c": 1},
    "matrix": {"rows": 0, "cols": 2, "entries": []},
}


def _paths(node, path=()):
    """Every key path into a decoded document, the root's () first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, (*path, key))


@st.composite
def _hostile_documents(draw):
    """A fixture document with up to three values replaced, keys dropped or keys added."""
    doc = copy.deepcopy(draw(st.sampled_from([FIXTURE_SQRT3_DOC, FIXTURE_OMEGA_DOC, _ZERO_ROWS])))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_HOSTILE)
            continue
        parent, key = reduce(getitem, path[:-1], doc), path[-1]
        action = draw(st.sampled_from(["replace", "drop", "extra"]))
        if action == "replace":
            parent[key] = draw(_HOSTILE)
        elif action == "drop":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["extra", "m", "rows", "field"]))] = draw(_HOSTILE)
        else:
            parent.append(draw(_HOSTILE))
    return doc


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_hostile_documents())
def test_cli_survives_hostile_documents(tmp_path, doc):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    for command, codes in (
        ("analyze", (0, 2)),
        ("tutte", (0, 2)),
        ("verify", (0, 1, 2)),
        ("gcd-check", (0, 1, 2)),
        ("dual", (0, 2)),
        ("euler", (0, 2)),
    ):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = cli.main([command, str(path)])
        assert code in codes, (command, doc)
        assert (code == 2) == err.getvalue().startswith("error: "), (command, doc)
