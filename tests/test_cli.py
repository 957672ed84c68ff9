import copy
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ellmat import EllipticArrangement, cli
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

    def counted(self, expansion, fixed=0):
        calls[0] += 1
        return original(self, expansion, fixed)

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


def test_order_info(capsys):
    code, out, _ = run_cli(capsys, "order-info", "--m", "1", "--tau", "0,1,2")
    assert code == 0
    assert "N: 4" in out
    assert "conductor: 2" in out
    assert "minimal polynomial: 4*x^2 + 1" in out
    assert "discriminant: -16" in out


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
        ("verify", (0, 1, 2)),
        ("gcd-check", (0, 1, 2)),
        ("dual", (0, 2)),
        ("euler", (0, 2)),
    ):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = cli.main([command, str(path)])
        assert code in codes, (command, doc)
        assert (code == 2) == err.getvalue().startswith("error: "), (command, doc)
