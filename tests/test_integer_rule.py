"""Every record and builder takes only exact integers, and the package
source has no floating point in it."""

import ast
from pathlib import Path

import pytest

from ellmat import (
    ArithmeticMatroid,
    EllipticArrangement,
    ParameterError,
    RingMatrix,
    euler_characteristic,
    make_curve,
    make_field,
    random_arrangement,
    row_select,
)
from support import curve_sqrt3

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ellmat").glob("*.py"))


def _two_rows() -> RingMatrix:
    return RingMatrix(curve_sqrt3(), 1, [[(2, 0)], [(1, 1)]])


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: ArithmeticMatroid([0, 1], [1, 1.5]), "1.5"),
        (lambda: ArithmeticMatroid([0, 1], [1, True]), "True"),
        (lambda: ArithmeticMatroid([0.0, 1], [1, 2]), "0.0"),
        (lambda: ArithmeticMatroid(["0", 1], [1, 2]), "'0'"),
        (lambda: make_field(True), "True"),
        (lambda: make_curve(make_field(3), 0, True, 1), "True"),
        (lambda: make_curve(make_field(3), 0.5, 2, 1), "0.5"),
        (lambda: RingMatrix(curve_sqrt3(), 1, [[(1, 2, 3)]]), "entries[0][0]: "),
        (lambda: RingMatrix(curve_sqrt3(), 1, [[(1.5, 2)]]), "(1.5, 2)"),
        (lambda: RingMatrix(curve_sqrt3(), 1, [[("1", 2)]]), "('1', 2)"),
        (lambda: RingMatrix(curve_sqrt3(), 1, [[(1,)]]), "(1,)"),
        (lambda: RingMatrix(curve_sqrt3(), 1, [[None]]), "entries[0][0]: "),
        (lambda: RingMatrix(curve_sqrt3(), 1, [[(0, 0)], None]), "entries[1]: "),
        (lambda: RingMatrix(curve_sqrt3(), 2, [[(0, 0), [False, 1]]]), "[False, 1]"),
        (lambda: random_arrangement(3.0, 2, 1, 0, 1, 1, 3, 1), "3.0"),
        (lambda: random_arrangement(1, 1, 1, 0, 1, 1, 2.5, 1), "2.5"),
        (lambda: EllipticArrangement(_two_rows()).reports(1.0), "1.0"),
        (lambda: ArithmeticMatroid([0, 1], [1, 2]).contraction(True), "True"),
        (lambda: row_select(_two_rows(), [1.0]), "1.0"),
        (
            lambda: RingMatrix(curve_sqrt3(), 1, None),
            "entries: expected rows of pairs of ints, got None",
        ),
        (
            lambda: RingMatrix(curve_sqrt3(), 1, 5),
            "entries: expected rows of pairs of ints, got 5",
        ),
        (lambda: euler_characteristic(ArithmeticMatroid([0, 1], [1, 2]), 1.0), "1.0"),
        (lambda: euler_characteristic(ArithmeticMatroid([0, 1], [1, 2]), True), "True"),
    ],
    ids=[
        "matroid-m-float",
        "matroid-m-bool",
        "matroid-rk-float",
        "matroid-rk-str",
        "field-m-bool",
        "curve-b-bool",
        "curve-a-float",
        "entry-triple",
        "entry-float",
        "entry-str",
        "entry-single",
        "entry-none",
        "row-none",
        "entry-bool-list",
        "random-k-float",
        "random-bound-float",
        "reports-fixed-float",
        "contraction-bool",
        "row-select-float",
        "entries-none",
        "entries-int",
        "euler-n-float",
        "euler-n-bool",
    ],
)
def test_builders_refuse_values_that_are_not_ints(build, named):
    with pytest.raises(ParameterError) as info:
        build()
    assert named in str(info.value)


def test_ring_matrix_names_the_entry_as_given():
    with pytest.raises(ParameterError) as info:
        RingMatrix(curve_sqrt3(), 2, [[(1, 0), (0, 1)], [(2, 0), [1.5, 0]]])
    assert str(info.value) == "entries[1][1]: expected a pair of ints, got [1.5, 0]"
    # The rows of a one-shot iterator, and a row that is one, are read once
    # and named all the same.
    float_pair = "entries[1][0]: expected a pair of ints, got [1.5, 0]"
    for entries, message in (
        ([iter([[1.5, 0]])], "entries[0][0]: expected a pair of ints, got [1.5, 0]"),
        ((row for row in ([(1, 0)], [[1.5, 0]])), float_pair),
        (iter([[(1, 0)], [[1.5, 0]]]), float_pair),
        ((row for row in ([(1, 0)], None)), "entries[1]: expected a row of entries, got None"),
    ):
        with pytest.raises(ParameterError) as info:
            RingMatrix(curve_sqrt3(), 1, entries)
        assert str(info.value) == message


def _floating_point(tree: ast.AST) -> list[str]:
    """Every true division, float or complex literal and use of the names
    float and complex in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division")
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"line {node.lineno}: name {node.id}")
    return found


def test_package_source_has_no_floating_point():
    assert SOURCES
    found = {
        path.name: hits
        for path in SOURCES
        if (hits := _floating_point(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
    # The guard itself sees each form it looks for.
    sample = ast.parse("x = a / b\nx /= 2\ny = 0.5 + 1j\nz = float(x) + complex(y)\n")
    assert len(_floating_point(sample)) == 6
