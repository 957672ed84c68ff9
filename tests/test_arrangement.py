import ast
import time
from math import gcd, prod
from pathlib import Path

import pytest

import ellmat.arrangement
import ellmat.linalg
import support
from ellmat import (
    ArithmeticMatroid,
    EllipticArrangement,
    ParameterError,
    RingMatrix,
    check_axioms,
    dual_arrangement,
    expand_lambda,
    from_arrangement,
    make_curve,
    make_field,
    random_arrangement,
    row_select,
    smith_form,
)
from ellmat.linalg import SmithForm
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from support import (
    arrangement_corpus,
    curve_gauss,
    curve_omega3,
    curve_sqrt3,
    curve_third_sqrt2,
    multiplicity_via_conj_transpose,
    multiplicity_via_order_basis,
    new_realization_omega,
    new_realization_sqrt3,
    points_corpus,
    subset_report,
    xgcd_by_euclid,
)


def test_multiplicities_over_sqrt3():
    arr = new_realization_sqrt3()
    assert [subset_report(arr, s)[1] for s in range(4)] == [1, 4, 4, 2]


def test_multiplicities_over_maximal_order():
    arr = new_realization_omega()
    assert [subset_report(arr, s)[1] for s in range(4)] == [1, 4, 4, 4]


def test_ranks_and_layer_dimensions():
    arr = new_realization_sqrt3()
    assert subset_report(arr, 0)[0] == 0
    assert subset_report(arr, 0b11)[0] == 1
    assert arr.n - subset_report(arr, 0)[0] == 1
    assert arr.n - subset_report(arr, 0b11)[0] == 0


def test_torsion_invariant_chains():
    chains = new_realization_sqrt3().torsion_chains()[1]
    assert chains[0b11] == (2,)
    assert chains[0b01] == (2, 2)
    assert chains[0b10] == (4,)
    assert chains[0] == ()


def test_report_consistency():
    # analyze prints the tables and the chains of this one walk.
    for arr in (new_realization_sqrt3(), *_walk_cases()):
        tables, chains = arr.torsion_chains()
        assert tables == arr.reports()
        for multiplicity, chain in zip(tables[1], chains, strict=True):
            assert prod(chain) == multiplicity


def test_zero_rows_behave_as_loops():
    curve = curve_sqrt3()
    arr = EllipticArrangement(
        RingMatrix.from_pairs(curve, [[(0, 0), (0, 0)], [(1, 0), (2, 1)]])
    )
    rank, multiplicity = subset_report(arr, 0b01)
    assert rank == 0
    assert multiplicity == 1
    assert arr.n - rank == 2


def test_subset_out_of_range():
    arr = new_realization_sqrt3()
    with pytest.raises(ParameterError):
        arr.superset_reports(4)
    with pytest.raises(ParameterError):
        arr.superset_reports(-1)


def _is_essential(arr: EllipticArrangement) -> bool:
    return from_arrangement(arr).full_rank == arr.n


def test_is_essential():
    assert _is_essential(new_realization_sqrt3())
    empty_in_plane = EllipticArrangement(
        RingMatrix(curve_sqrt3(), 0, 2, ())
    )
    assert not _is_essential(empty_in_plane)
    single_in_plane = EllipticArrangement(
        RingMatrix.from_pairs(curve_sqrt3(), [[(1, 0), (1, 1)]])
    )
    assert not _is_essential(single_in_plane)


def test_layer_dimension_single_row_in_e3():
    arr = EllipticArrangement(
        RingMatrix.from_pairs(curve_sqrt3(), [[(1, 0), (0, 0), (0, 1)]])
    )
    assert arr.n - subset_report(arr, 0b1)[0] == 2


def test_dual_arrangement_structure():
    arr = new_realization_sqrt3()
    stacked, t_mask = dual_arrangement(arr)
    assert (stacked.k, stacked.n) == (3, 2)
    assert t_mask == 0b100
    assert stacked.matrix.entries[0] == ((1, 0), (0, 0))
    assert stacked.matrix.entries[1] == ((0, 0), (1, 0))
    assert stacked.matrix.entries[2] == ((2, 0), (1, -1))


def test_dual_arrangement_of_empty_columns():
    arr = EllipticArrangement(RingMatrix(curve_sqrt3(), 2, 0, ((), ())))
    stacked, t_mask = dual_arrangement(arr)
    assert t_mask == 0
    assert stacked.matrix == RingMatrix.identity(curve_sqrt3(), 2)


def test_multiplicity_divisibility_chains():
    for arr in arrangement_corpus(40, seed=51):
        rk, m = arr.reports()
        for s in range(1 << arr.k):
            for i in range(arr.k):
                if s >> i & 1:
                    continue
                grown = s | 1 << i
                if rk[grown] == rk[s]:
                    assert m[s] % m[grown] == 0
                else:
                    assert m[grown] % m[s] == 0


def test_multiplicity_triangulates_across_three_paths():
    for arr in arrangement_corpus(30, seed=52):
        stacked, t_mask = dual_arrangement(arr)
        _, supersets_m = stacked.superset_reports(t_mask)
        e = (1 << arr.k) - 1
        for s, direct in enumerate(arr.reports()[1]):
            via_conj = multiplicity_via_conj_transpose(arr, s)
            assert direct == multiplicity_via_order_basis(arr, s)
            assert direct == via_conj
            # The stacked identity coker-xcheck reads its conjugate leg from.
            assert supersets_m[e ^ s] == via_conj


def test_single_divisor_multiplicity_is_the_norm():
    from ellmat import expand_lambda, row_select
    from support import minor_rank_and_torsion, ring_norm

    for arr in points_corpus(20, seed=53):
        for i in range(arr.k):
            norm = ring_norm(arr.curve, arr.matrix.entries[i][0])
            assert subset_report(arr, 1 << i)[1] == norm
            block = expand_lambda(row_select(arr.matrix, [i]))
            assert minor_rank_and_torsion(block) == (2, norm)


def _count_smith_forms(monkeypatch) -> list[int]:
    calls = [0]
    original = ellmat.linalg.smith_form

    def counted(matrix):
        calls[0] += 1
        return original(matrix)

    monkeypatch.setattr(ellmat.arrangement, "smith_form", counted)
    monkeypatch.setattr(ellmat.linalg, "smith_form", counted)
    return calls


def _count_superset_walks(monkeypatch) -> list[int]:
    calls = [0]
    original = EllipticArrangement.superset_reports

    def counted(self, fixed):
        calls[0] += 1
        return original(self, fixed)

    monkeypatch.setattr(EllipticArrangement, "superset_reports", counted)
    return calls


def _slow_tables(arr: EllipticArrangement, subsets) -> tuple[tuple[int, ...], ...]:
    """The (rk, m) tables of `subsets`, one Smith form each."""
    return tuple(zip(*(subset_report(arr, s) for s in subsets)))


def test_smith_forms_per_walk(monkeypatch):
    calls = _count_smith_forms(monkeypatch)
    arr = random_arrangement(k=5, n=3, m=3, a=-1, b=2, c=1, bound=3, seed=11)
    matroid = from_arrangement(arr)
    after_tabulation = calls[0]
    table = arr.reports()
    assert len(table[0]) == len(table[1]) == 1 << arr.k
    assert (matroid.rk, matroid.m) == table
    # The walk runs a Smith form on each non-empty rank-deficient subset
    # and on nothing else.
    deficient = sum(1 for s, r in enumerate(table[0]) if s and r < arr.n)
    assert 0 < after_tabulation == deficient < 1 << arr.k
    # coker-xcheck reads its order-basis leg off one walk of the R-basis
    # expansion and its conjugate leg off one walk of the stacked
    # arrangement; each runs a Smith form on its own rank-deficient
    # subsets, and dual shares the stacked walk.
    order_deficient = sum(
        1 for s, r in enumerate(arr.order_basis_reports()[0]) if s and r < arr.n
    )
    stacked, t_mask = dual_arrangement(arr)
    stacked_deficient = sum(1 for r in stacked.superset_reports(t_mask)[0] if 0 < r < arr.k)
    before = calls[0]
    walks = _count_superset_walks(monkeypatch)
    assert check_axioms(matroid, ("coker-xcheck",), arr) == {"coker-xcheck": ()}
    assert 0 < calls[0] - before == order_deficient + stacked_deficient
    assert walks[0] == 1
    both = check_axioms(matroid, ("dual", "coker-xcheck"), arr)
    assert both == {"dual": (), "coker-xcheck": ()}
    assert calls[0] - before == 2 * (order_deficient + stacked_deficient)
    assert walks[0] == 2
    assert subset_report(arr, 3) == (table[0][3], table[1][3])


def _walk_cases() -> list[EllipticArrangement]:
    """The corpus, three big-entry N=9 arrangements and the edge cases."""
    gauss = curve_gauss()
    cases = list(arrangement_corpus(200))
    cases += [
        random_arrangement(k=8, n=4, m=2, a=0, b=1, c=3, bound=10**6, seed=seed)
        for seed in (1, 2, 3)
    ]
    cases += [
        EllipticArrangement(RingMatrix(gauss, 0, 2, ())),
        EllipticArrangement(RingMatrix(gauss, 3, 0, ((), (), ()))),
        EllipticArrangement(
            RingMatrix.from_pairs(
                gauss, [[(0, 0), (0, 0)], [(1, 2), (3, -1)], [(0, 0), (0, 0)], [(2, 0), (0, 5)]]
            )
        ),
        EllipticArrangement(
            RingMatrix.from_pairs(
                gauss, [[(1, 2), (3, -1)], [(1, 2), (3, -1)], [(2, 1), (0, 3)], [(2, 1), (0, 3)]]
            )
        ),
        # Every row vanishes on the third coordinate, so the full set has rank 2 of 3.
        EllipticArrangement(
            RingMatrix.from_pairs(
                gauss,
                [
                    [(2, 0), (0, 2), (0, 0)],
                    [(1, 1), (3, 0), (0, 0)],
                    [(0, 3), (1, -1), (0, 0)],
                    [(4, 0), (0, 4), (0, 0)],
                ],
            )
        ),
    ]
    return cases


def test_walk_matches_subset_report():
    cases = _walk_cases()
    for arr in cases:
        assert arr.reports() == _slow_tables(arr, range(1 << arr.k))
    assert cases[-1].reports()[0][-1] == 2


def test_dual_walk_matches_per_subset_reports(monkeypatch):
    for arr in _walk_cases():
        stacked, t_mask = dual_arrangement(arr)
        walked = stacked.superset_reports(t_mask)
        assert walked == _slow_tables(stacked, (s | t_mask for s in range(1 << arr.k)))
    calls = _count_smith_forms(monkeypatch)
    arr = random_arrangement(k=6, n=3, m=3, a=-1, b=2, c=1, bound=3, seed=4)
    matroid = from_arrangement(arr)
    stacked, t_mask = dual_arrangement(arr)
    deficient = sum(1 for r in stacked.superset_reports(t_mask)[0] if 0 < r < arr.k)
    before = calls[0]
    assert check_axioms(matroid, ("dual",), arr) == {"dual": ()}
    # Only the rank-deficient supersets of T take a Smith form.
    assert 0 < calls[0] - before == deficient < 1 << arr.k


def test_torsion_chains_match_smith_form():
    for arr in _walk_cases():
        chains = arr.torsion_chains()[1]
        for s in range(1 << arr.k):
            block = expand_lambda(row_select(arr.matrix, [i for i in range(arr.k) if s >> i & 1]))
            assert chains[s] == smith_form(block).torsion_invariants


def _count_projections(monkeypatch) -> list[int]:
    """The index of every node the walk projects at, 0 when rank-deficient."""
    calls: list[int] = []
    original = ellmat.arrangement._project

    def counted(basis, pairs, det):
        calls.append(det)
        return original(basis, pairs, det)

    monkeypatch.setattr(ellmat.arrangement, "_project", counted)
    return calls


def _fills(arr: EllipticArrangement) -> int:
    """The subsets the walk fills in below an index-1 node without a basis."""
    return sum(1 for _, _, rows, det in arr._walk(arr._expansion_rows) if det == 1 and not rows)


def test_walk_takes_both_quotient_branches(monkeypatch):
    projections = _count_projections(monkeypatch)
    assert sum(_fills(arr) for arr in arrangement_corpus(200)) > 0
    # Both below a full-rank node and below a rank-deficient one.
    assert 0 in projections and max(projections) > 1
    # The big-entry N=9 walks project at both kinds of node; one of them
    # also reaches index 1.
    fills = 0
    for seed in (1, 2, 3):
        projections.clear()
        fills += _fills(random_arrangement(k=8, n=4, m=2, a=0, b=1, c=3, bound=10**6, seed=seed))
        assert 0 in projections and max(projections) > 1
    assert fills > 0


def test_walk_edge_cases_of_the_quotient():
    gauss = curve_gauss()
    # n = 0: the root's empty basis has full rank and index 1, so its
    # subtree is filled in.
    no_columns = EllipticArrangement(RingMatrix(gauss, 3, 0, ((), (), ())))
    assert list(no_columns._walk(no_columns._expansion_rows)) == [
        (s, 0, [], 1) for s in range(8)
    ]
    assert no_columns.reports() == ((0,) * 8, (1,) * 8)
    nothing = EllipticArrangement(RingMatrix(gauss, 0, 0, ()))
    assert list(nothing._walk(nothing._expansion_rows)) == [(0, 0, [], 1)]
    # k = 0 in the plane: the root is rank-deficient and has no children.
    no_rows = EllipticArrangement(RingMatrix(gauss, 0, 2, ()))
    assert list(no_rows._walk(no_rows._expansion_rows)) == [(0, 0, [], 0)]
    assert no_rows.torsion_chains() == (((0,), (1,)), ((),))
    # A unit divisor makes L = Z^2 at once; the second subset is filled in.
    unit = EllipticArrangement(RingMatrix.from_pairs(gauss, [[(1, 0)], [(3, 1)]]))
    walk = list(unit._walk(unit._expansion_rows))
    assert [(s, r, det) for s, r, _, det in walk] == [(0, 0, 0), (1, 1, 1), (3, 1, 1), (2, 1, 10)]
    assert walk[2][2] == []


def test_every_walk_is_capped():
    # Walks of 2^21 nodes take seconds to minutes; each must refuse when called.
    arr = random_arrangement(k=21, n=6, m=3, a=-1, b=2, c=1, bound=3, seed=1)
    stacked, t_mask = dual_arrangement(arr)
    walks = (
        lambda: from_arrangement(arr),
        arr.reports,
        arr.torsion_chains,
        arr.order_basis_reports,
        lambda: arr.superset_reports(0),
        lambda: stacked.superset_reports(t_mask),
    )
    message = "ground set of 21 elements exceeds the cap of 20"
    for walk in walks:
        start = time.monotonic()
        with pytest.raises(ParameterError, match=message):
            walk()
        assert time.monotonic() - start < 2.0


def test_walk_raises_on_odd_rank():
    arr = new_realization_sqrt3()
    arr._expansion_rows[arr.k] = [0] * (2 * arr.n)
    with pytest.raises(AssertionError, match="even rank"):
        arr.reports()


_CURVES = (curve_gauss(), curve_omega3(), make_curve(make_field(2), 0, 1, 1), curve_third_sqrt2())
_COORD = st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12))


@st.composite
def _arrangement_and_mask(draw) -> tuple[EllipticArrangement, int]:
    curve = draw(st.sampled_from(_CURVES))
    k, n = draw(st.integers(0, 6)), draw(st.integers(0, 3))
    row = st.one_of(
        st.just([(0, 0)] * n), st.lists(st.tuples(_COORD, _COORD), min_size=n, max_size=n)
    )
    pairs = draw(st.lists(row, min_size=k, max_size=k))
    arr = EllipticArrangement(RingMatrix.from_pairs(curve, pairs, cols=n))
    return arr, draw(st.integers(0, (1 << k) - 1))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_arrangement_and_mask())
def test_walk_agrees_with_subset_report(case):
    arr, fixed = case
    assert arr.reports() == _slow_tables(arr, range(1 << arr.k))
    free = [j for j in range(arr.k) if not fixed >> j & 1]
    wide = [
        fixed | sum(1 << j for i, j in enumerate(free) if s >> i & 1)
        for s in range(1 << len(free))
    ]
    assert arr.superset_reports(fixed) == _slow_tables(arr, wide)
    assert list(arr.order_basis_reports()[1]) == [
        multiplicity_via_order_basis(arr, s) for s in range(1 << arr.k)
    ]
    # The stacked-dual identity: the walk of (I_k over A^H) over the supersets
    # of T has at E - S the multiplicity of the conjugate transpose of rows S.
    stacked, t_mask = dual_arrangement(arr)
    supersets_m, e = stacked.superset_reports(t_mask)[1], (1 << arr.k) - 1
    assert [supersets_m[e ^ s] for s in range(e + 1)] == [
        multiplicity_via_conj_transpose(arr, s) for s in range(e + 1)
    ]


_BIG = st.integers(-(2**200), 2**200)
_SMALL = st.integers(-12, 12)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(st.just(1), _SMALL, _BIG), st.one_of(_SMALL, _BIG), st.one_of(_SMALL, _BIG))
def test_xgcd_matches_euclid(common, x, y):
    a, b = common * x, common * y
    assume(a != 0 and b % a)
    g, s, t = ellmat.arrangement._xgcd(a, b)
    assert g == xgcd_by_euclid(a, b)[0] == gcd(a, b) > 0
    assert s * a + t * b == g


def test_coker_xcheck_flags_tampered_multiplicity():
    arr = random_arrangement(k=4, n=2, m=1, a=0, b=1, c=1, bound=3, seed=5)
    matroid = from_arrangement(arr)
    m = list(matroid.m)
    m[0b0110] *= 3
    tampered = ArithmeticMatroid(matroid.size, matroid.rk, tuple(m))
    found = check_axioms(tampered, ("coker-xcheck",), arr)["coker-xcheck"]
    true_m = matroid.m[0b0110]
    assert [(v.subsets, v.detail) for v in found] == [
        (
            (0b0110,),
            f"multiplicity of {{2,3}} disagrees across bases: {3 * true_m} / {true_m} / {true_m}",
        )
    ]
    with pytest.raises(ParameterError):
        check_axioms(matroid.deletion(1), ("coker-xcheck",), arr)


def test_subset_report_raises_on_odd_rank(monkeypatch):
    monkeypatch.setattr(
        support, "smith_form", lambda matrix: SmithForm(rank=1, invariant_factors=(1,))
    )
    with pytest.raises(AssertionError, match="even rank"):
        subset_report(new_realization_sqrt3(), 1)


def test_no_assert_statements_in_the_library():
    # Invariants must hold under python -O, which strips assert statements.
    src = Path(ellmat.arrangement.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
