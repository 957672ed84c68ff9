import ast
import inspect
import random
import textwrap
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
    cli,
    dual_arrangement,
    expand_lambda,
    from_arrangement,
    make_curve,
    make_field,
    random_arrangement,
    row_select,
    save_arrangement,
    smith_form,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from support import (
    arrangement_corpus,
    conj_transpose,
    curve_gauss,
    curve_omega3,
    curve_sqrt3,
    curve_third_sqrt2,
    expand_order,
    matrix_corpus,
    minor_rank_and_torsion,
    multiplicity_via_conj_transpose,
    multiplicity_via_order_basis,
    new_realization_omega,
    new_realization_sqrt3,
    over_order,
    points_corpus,
    ring_mul,
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
    assert repr(arr) == "EllipticArrangement(k=2, n=1, m=3)"
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
        RingMatrix(curve, 2, [[(0, 0), (0, 0)], [(1, 0), (2, 1)]])
    )
    rank, multiplicity = subset_report(arr, 0b01)
    assert rank == 0
    assert multiplicity == 1
    assert arr.n - rank == 2


def test_subset_out_of_range():
    arr = new_realization_sqrt3()
    with pytest.raises(ParameterError):
        arr.reports(4)
    with pytest.raises(ParameterError):
        arr.reports(-1)


def _is_essential(arr: EllipticArrangement) -> bool:
    return from_arrangement(arr).full_rank == arr.n


def test_is_essential():
    assert _is_essential(new_realization_sqrt3())
    empty_in_plane = EllipticArrangement(RingMatrix(curve_sqrt3(), 2, ()))
    assert not _is_essential(empty_in_plane)
    single_in_plane = EllipticArrangement(RingMatrix(curve_sqrt3(), 2, [[(1, 0), (1, 1)]]))
    assert not _is_essential(single_in_plane)


def test_layer_dimension_single_row_in_e3():
    arr = EllipticArrangement(RingMatrix(curve_sqrt3(), 3, [[(1, 0), (0, 0), (0, 1)]]))
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
    arr = EllipticArrangement(RingMatrix(curve_sqrt3(), 0, ((), ())))
    stacked, t_mask = dual_arrangement(arr)
    assert t_mask == 0
    assert stacked.matrix == RingMatrix(curve_sqrt3(), 2, (((1, 0), (0, 0)), ((0, 0), (1, 0))))


def test_stacked_rows_are_units_over_the_conjugate_transpose():
    gauss = curve_gauss()
    shapes = (RingMatrix(gauss, 2, ()), RingMatrix(gauss, 0, ((), (), ())))
    for matrix in matrix_corpus(500) + shapes:
        k, n = matrix.k, matrix.n
        stacked, t_mask = dual_arrangement(EllipticArrangement(matrix))
        units = tuple(tuple((1, 0) if j == i else (0, 0) for j in range(k)) for i in range(k))
        assert stacked.matrix == RingMatrix(matrix.curve, k, units + conj_transpose(matrix).entries)
        assert t_mask == sum(1 << k + j for j in range(n))


def test_arrangement_is_an_immutable_record():
    arr = new_realization_sqrt3()
    with pytest.raises(AttributeError):
        arr.matrix = RingMatrix(curve_sqrt3(), 1, ())
    with pytest.raises(AttributeError):
        arr.tables = ()
    twin = new_realization_sqrt3()
    assert twin is not arr and twin == arr and hash(twin) == hash(arr)
    assert twin != new_realization_omega()
    assert EllipticArrangement._fields == ("matrix",)


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
        _, supersets_m = stacked.reports(t_mask)
        e = (1 << arr.k) - 1
        for s, direct in enumerate(arr.reports()[1]):
            via_conj = multiplicity_via_conj_transpose(arr, s)
            assert direct == multiplicity_via_order_basis(arr, s)
            assert direct == via_conj
            # The stacked identity dual's walk rests on.
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


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Count the calls the walks make to `name` of `ellmat.arrangement`."""
    calls = [0]
    original = getattr(ellmat.arrangement, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(ellmat.arrangement, name, counted)
    return calls


def _count_walks(monkeypatch) -> dict[int, int]:
    """Count the walks of every arrangement, keyed by the subset `fixed`
    they keep: 0 for a walk of all subsets."""
    calls: dict[int, int] = {}
    original = EllipticArrangement._walk

    def counted(self, fixed, measure):
        calls[fixed] = calls.get(fixed, 0) + 1
        return original(self, fixed, measure)

    monkeypatch.setattr(EllipticArrangement, "_walk", counted)
    return calls


def _slow_tables(arr: EllipticArrangement, subsets) -> tuple[tuple[int, ...], ...]:
    """The (rk, m) tables of `subsets`, one Smith form each."""
    return tuple(zip(*(subset_report(arr, s) for s in subsets)))


def test_smith_forms_per_walk(monkeypatch):
    smith = _count_calls(monkeypatch, "smith_form")
    index = _count_calls(monkeypatch, "_column_index")
    arr = random_arrangement(k=5, n=3, m=3, a=-1, b=2, c=1, bound=3, seed=11)
    matroid = from_arrangement(arr)
    after_tabulation = index[0]
    table = arr.reports()
    assert len(table[0]) == len(table[1]) == 1 << arr.k
    assert (matroid.rk, matroid.m) == table
    # The walk takes the column index of each rank-deficient subset, the
    # empty one's basis included, and of nothing else.
    deficient = sum(1 for r in table[0] if r < arr.n)
    assert 0 < after_tabulation == deficient < 1 << arr.k
    # coker-xcheck makes one walk of all subsets, of sigma(A)*W over C/R, and dual
    # one walk of the supersets of T in the stacked arrangement; each takes
    # the column index of its own rank-deficient subsets, and neither makes
    # the other's walk.
    order_deficient = sum(1 for r in over_order(arr).reports()[0] if r < arr.n)
    stacked, t_mask = dual_arrangement(arr)
    stacked_deficient = sum(1 for r in stacked.reports(t_mask)[0] if 0 < r < arr.k)
    assert order_deficient > 0 and stacked_deficient > 0
    walks = _count_walks(monkeypatch)
    for names, expected, taken in (
        (("coker-xcheck",), {0: 1}, order_deficient),
        (("dual",), {t_mask: 1}, stacked_deficient),
        (("dual", "coker-xcheck"), {0: 1, t_mask: 1}, order_deficient + stacked_deficient),
    ):
        before = index[0]
        walks.clear()
        assert check_axioms(matroid, names, arr) == dict.fromkeys(names, ())
        assert index[0] - before == taken
        assert walks == expected
    # No walk but torsion_chains takes a Smith form; it takes one of every
    # subset it measures, those of index other than 1, each rank-deficient
    # or torsion-bearing, and one of the empty basis for its prefill.
    assert smith[0] == 0
    before = index[0]
    (rk, m), _ = arr.torsion_chains()
    assert index[0] == before
    assert smith[0] == 1 + sum(1 for r, mult in zip(rk, m) if r < arr.n or mult > 1)
    assert subset_report(arr, 3) == (table[0][3], table[1][3])


def _no_unit_cases() -> list[EllipticArrangement]:
    """Every coordinate even, up to 2^62, over Z[i] and at N=9: every lattice
    is even too, so no pivot is ever a unit and their walks never project."""
    cases = []
    for n, curve in ((1, (1, 0, 1, 1)), (2, (2, 0, 1, 3))):
        odd = random_arrangement(8, n, *curve, bound=2**61, seed=5)
        even = [[(2 * x, 2 * y) for x, y in row] for row in odd.matrix.entries]
        cases.append(EllipticArrangement(RingMatrix(odd.curve, n, even)))
    return cases


def _walk_cases() -> list[EllipticArrangement]:
    """The corpus, three big-entry N=9 arrangements, two without any unit
    pivot and the edge cases."""
    gauss = curve_gauss()
    cases = list(arrangement_corpus(200))
    cases += [
        random_arrangement(k=8, n=4, m=2, a=0, b=1, c=3, bound=10**6, seed=seed)
        for seed in (1, 2, 3)
    ]
    cases += _no_unit_cases()
    cases += [
        EllipticArrangement(RingMatrix(gauss, 2, ())),
        EllipticArrangement(RingMatrix(gauss, 0, ((), (), ()))),
        EllipticArrangement(
            RingMatrix(
                gauss, 2, [[(0, 0), (0, 0)], [(1, 2), (3, -1)], [(0, 0), (0, 0)], [(2, 0), (0, 5)]]
            )
        ),
        EllipticArrangement(
            RingMatrix(
                gauss, 2, [[(1, 2), (3, -1)], [(1, 2), (3, -1)], [(2, 1), (0, 3)], [(2, 1), (0, 3)]]
            )
        ),
        # Every row vanishes on the third coordinate, so the full set has rank 2 of 3.
        EllipticArrangement(
            RingMatrix(
                gauss,
                3,
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


def _rows_of(arr: EllipticArrangement, subset: int, expand=expand_lambda) -> list[list[int]]:
    return expand(row_select(arr.matrix, [i for i in range(arr.k) if subset >> i & 1]))


def _minor_report(rows: list[list[int]]) -> tuple[int, int]:
    """(rk, m) of a subset from the exhaustive minors of its expansion rows.

    A row that is a signed unit vector e_c splits a summand Z/1 off the
    cokernel, so it is deleted with column c first, one rank each; this
    shrinks the stacked expansions, whose rows of I_k are such rows, to
    the conjugate-transpose block.
    """
    units = 0
    unit = next((r for r in rows if sum(map(abs, r)) == 1), None)
    while unit is not None:
        c = [abs(v) for v in unit].index(1)
        rows = [r[:c] + r[c + 1 :] for r in rows if r is not unit]
        units += 1
        unit = next((r for r in rows if sum(map(abs, r)) == 1), None)
    rank, torsion = minor_rank_and_torsion(rows)
    if (units + rank) % 2:
        raise AssertionError("lattice expansions of order maps have even rank")
    return (units + rank) // 2, torsion


def test_walks_match_exhaustive_minors():
    # subset_report runs on smith_form, which shares the echelon insertion
    # with the walk; the minors share no elimination code with it.  Every
    # subset at k <= 5, a fixed sample at k = 8: subsets X of at most four
    # divisors, and E - X in the stacked walk, whose peeled expansion is
    # then the conjugate transpose of the rows X.
    rng = random.Random(21)
    small = [s for s in range(1 << 8) if s.bit_count() <= 4]
    for arr in _walk_cases():
        e = (1 << arr.k) - 1
        subsets = range(e + 1) if arr.k <= 5 else rng.sample(small, 12)
        reports, order = arr.reports(), over_order(arr).reports()
        stacked, t_mask = dual_arrangement(arr)
        supersets = stacked.reports(t_mask)
        for x in subsets:
            assert (reports[0][x], reports[1][x]) == _minor_report(_rows_of(arr, x))
            assert (order[0][x], order[1][x]) == _minor_report(_rows_of(arr, x, expand_order))
            s = x if arr.k <= 5 else e ^ x
            assert (supersets[0][s], supersets[1][s]) == _minor_report(
                _rows_of(stacked, s | t_mask)
            )


def test_dual_walk_matches_per_subset_reports(monkeypatch):
    for arr in _walk_cases():
        stacked, t_mask = dual_arrangement(arr)
        walked = stacked.reports(t_mask)
        assert walked == _slow_tables(stacked, (s | t_mask for s in range(1 << arr.k)))
    smith = _count_calls(monkeypatch, "smith_form")
    index = _count_calls(monkeypatch, "_column_index")
    arr = random_arrangement(k=6, n=3, m=3, a=-1, b=2, c=1, bound=3, seed=4)
    matroid = from_arrangement(arr)
    stacked, t_mask = dual_arrangement(arr)
    deficient = sum(1 for r in stacked.reports(t_mask)[0] if 0 < r < arr.k)
    before = index[0]
    assert check_axioms(matroid, ("dual",), arr) == {"dual": ()}
    # Only the rank-deficient supersets of T take the column index.
    assert 0 < index[0] - before == deficient < 1 << arr.k
    assert smith[0] == 0


def test_torsion_chains_match_smith_form():
    for arr in _walk_cases():
        chains = arr.torsion_chains()[1]
        for s in range(1 << arr.k):
            block = expand_lambda(row_select(arr.matrix, [i for i in range(arr.k) if s >> i & 1]))
            assert chains[s] == tuple(d for d in smith_form(block) if d > 1)


def _count_projections(monkeypatch) -> list[int]:
    """The index of every node whose coordinates the walk projects, 0 when
    rank-deficient."""
    calls: list[int] = []
    original = ellmat.arrangement._project

    def counted(basis, pairs):
        projected = original(basis, pairs)
        # Without a unit pivot the basis comes back as it is.
        if projected[0] is not basis:
            full = all(b is not None for b in basis)
            calls.append(abs(prod(b[c] for c, b in enumerate(basis))) if full else 0)
        return projected

    monkeypatch.setattr(ellmat.arrangement, "_project", counted)
    return calls


def _visits(arr: EllipticArrangement) -> tuple[list, tuple]:
    """The (rows, det) of every node the walk of `reports()` visits, in
    order, and the tables it returns."""
    calls: list = []

    def spy(rows, det):
        calls.append((rows, det))
        return ellmat.arrangement._multiplicity(rows, det)

    tables = arr._walk(0, spy)
    # The first call makes the prefill.
    return calls[1:], tables


def _fills(arr: EllipticArrangement) -> int:
    """The subsets the walk leaves at the prefill: each node of index 1 and
    every subset below it."""
    return (1 << arr.k) - len(_visits(arr)[0])


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
    projections.clear()
    for arr in _no_unit_cases():
        arr.torsion_chains()
        over_order(arr).reports()
    assert projections == []


def _widest_entry(arr: EllipticArrangement, fixed: int) -> int:
    """The bit length of the largest entry of a basis the walk of the
    subsets containing `fixed` hands its measure."""
    widest = [0]

    def spy(rows, det):
        widest[0] = max([widest[0]] + [abs(x).bit_length() for row in rows for x in row])
        return ellmat.arrangement._multiplicity(rows, det)

    arr._walk(fixed, spy)
    return widest[0]


def test_projection_bounds_the_big_entry_bases():
    # Reduced at full-rank nodes only, modulo the index, these bases reach
    # 2,829 to 36,592 bits; reduced modulo each projected node's basis,
    # 1,525 bits at most.
    for seed in (1, 2, 3):
        arr = random_arrangement(k=8, n=4, m=2, a=0, b=1, c=3, bound=10**6, seed=seed)
        stacked, t_mask = dual_arrangement(arr)
        assert _widest_entry(arr, 0) < 2000
        assert _widest_entry(stacked, t_mask) < 2000


# Upper bounds on the echelon insertions of each walk, in the order
# reports(), the coker-xcheck walk of sigma(A)*W over C/R, the stacked
# reports(T) and torsion_chains(), keyed by the random_arrangement
# arguments at seed 1.
WALK_INSERTIONS = {
    (10, 3, 3, -1, 2, 1, 3): (1198, 1198, 2032, 1198),
    (9, 4, 1, 0, 1, 1, 3): (928, 928, 942, 928),
    (9, 4, 2, 0, 1, 3, 3): (808, 808, 958, 808),
    (9, 4, 2, 0, 1, 3, 10**6): (1022, 1022, 972, 1022),
}


def test_walk_work_stays_within_its_bounds(monkeypatch):
    """Each walk's count of child insertions stays within its bound.

    Counts of work do not depend on the host, so they gate a slower walk
    where wall time cannot.  Only the insertions of a node's children go
    through `ellmat.arrangement.echelon_insert`; the root's `echelon_basis`,
    `_column_index` and `smith_form` call `linalg` directly and are not
    counted.  A change that lowers a count lowers its bound to the new
    count; raising a bound is a regression and needs its own line in
    CHANGES.md.
    """
    calls = _count_calls(monkeypatch, "echelon_insert")
    for args, bounds in WALK_INSERTIONS.items():
        arr = random_arrangement(*args, seed=1)
        stacked, t_mask = dual_arrangement(arr)
        matroid = from_arrangement(arr)
        walks = (
            arr.reports,
            lambda: check_axioms(matroid, ("coker-xcheck",), arr),
            lambda: stacked.reports(t_mask),
            arr.torsion_chains,
        )
        counts = []
        for walk in walks:
            calls[0] = 0
            walk()
            counts.append(calls[0])
        assert all(c <= b for c, b in zip(counts, bounds)), (args, counts, bounds)


def test_walk_edge_cases_of_the_quotient():
    gauss = curve_gauss()
    # n = 0: the root's empty basis has full rank and index 1, so the walk
    # measures nothing and every subset keeps the prefill.
    no_columns = EllipticArrangement(RingMatrix(gauss, 0, ((), (), ())))
    assert _visits(no_columns) == ([], ((0,) * 8, (1,) * 8))
    assert no_columns.reports() == ((0,) * 8, (1,) * 8)
    nothing = EllipticArrangement(RingMatrix(gauss, 0, ()))
    assert _visits(nothing) == ([], ((0,), (1,)))
    # k = 0 in the plane: the root is rank-deficient and has no children.
    no_rows = EllipticArrangement(RingMatrix(gauss, 2, ()))
    assert _visits(no_rows) == ([([], 0)], ((0,), (1,)))
    assert no_rows.torsion_chains() == (((0,), (1,)), ((),))
    # A unit divisor makes L = Z^2 at once; it and {1,2} keep the prefill.
    unit = EllipticArrangement(RingMatrix(gauss, 1, [[(1, 0)], [(3, 1)]]))
    assert _visits(unit) == ([([], 0), ([[1, 3], [0, 10]], 10)], ((0, 1, 1, 1), (1, 1, 10, 1)))
    # Only the prefill's own call sees index 1.
    assert all(det != 1 for arr in _walk_cases() for _, det in _visits(arr)[0])


def test_every_walk_is_capped():
    # Walks of 2^21 nodes take seconds to minutes; each must refuse when called.
    arr = random_arrangement(k=21, n=6, m=3, a=-1, b=2, c=1, bound=3, seed=1)
    stacked, t_mask = dual_arrangement(arr)
    walks = (
        lambda: from_arrangement(arr),
        arr.reports,
        arr.torsion_chains,
        lambda: over_order(arr).reports(),
        lambda: arr.reports(0),
        lambda: stacked.reports(t_mask),
    )
    message = "ground set of 21 elements exceeds the cap of 20"
    for walk in walks:
        start = time.monotonic()
        with pytest.raises(ParameterError, match=message):
            walk()
        assert time.monotonic() - start < 2.0


def test_superset_walk_is_linear_in_the_fixed_width():
    # A shift of the fixed mask per divisor made this walk quadratic in k:
    # about 9 s at this width on a 2-core host, against 0.5 s now.
    k = 400_000
    arr = EllipticArrangement(RingMatrix(curve_gauss(), 0, ((),) * k))
    start = time.monotonic()
    assert arr.reports((1 << k) - 1) == ((0,), (1,))
    assert time.monotonic() - start < 2.0


def _odd_rank_expansions(monkeypatch, arr):
    """Zero row k of every expansion of arr's shape, so that its lattice has odd rank."""

    def odd(matrix):
        rows = expand_lambda(matrix)
        rows[arr.k] = [0] * (2 * arr.n)
        return rows

    monkeypatch.setattr(ellmat.arrangement, "expand_lambda", odd)


def test_walk_raises_on_odd_rank(monkeypatch):
    arr = new_realization_sqrt3()
    _odd_rank_expansions(monkeypatch, arr)
    with pytest.raises(AssertionError, match="even rank"):
        arr.reports()


def _assert_fault_exit(capsys, argv):
    """cli.main exits 3 on the walk's even-rank fault: no output, its traceback on stderr."""
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("\nAssertionError: lattice expansions of order maps have even rank\n")


def test_walk_fault_exits_3(monkeypatch, tmp_path, capsys):
    # A fault of the program is neither a refused input (2) nor a verdict (1).
    arr = new_realization_sqrt3()
    path = tmp_path / "sqrt3.json"
    save_arrangement(arr, path)
    _odd_rank_expansions(monkeypatch, arr)
    _assert_fault_exit(capsys, ["tutte", str(path)])


# The five input kinds of perfbench/run.py, as random_arrangement arguments.
WORKLOAD_SHAPES = (
    (13, 5, 3, -1, 2, 1, 3),
    (11, 4, 2, 0, 1, 3, 10**6),
    (10, 3, 3, -1, 2, 1, 3),
    (9, 4, 1, 0, 1, 1, 3),
    (9, 4, 2, 0, 1, 3, 3),
)


def _column_operated(arr: EllipticArrangement, rng: random.Random):
    """A*U with rows permuted, and the permutation: row i of the result is
    row perm[i] of A*U.  U in GL_n(R) is 3n column operations
    col_j += lam*col_i, both coordinates of lam in [-2, 2]."""
    rows = [list(row) for row in arr.matrix.entries]
    for _ in range(3 * arr.n):
        i, j = rng.sample(range(arr.n), 2)
        lam = (rng.randint(-2, 2), rng.randint(-2, 2))
        for row in rows:
            x, y = ring_mul(arr.curve, lam, row[i])
            row[j] = (row[j][0] + x, row[j][1] + y)
    perm = rng.sample(range(arr.k), arr.k)
    moved = RingMatrix(arr.curve, arr.n, [rows[p] for p in perm])
    return EllipticArrangement(moved), perm


def _stacked_reports(arr: EllipticArrangement) -> tuple:
    stacked, t_mask = dual_arrangement(arr)
    return stacked.reports(t_mask)


def _chain_tables(arr: EllipticArrangement) -> tuple:
    (rk, m), chains = arr.torsion_chains()
    return rk, m, chains


def test_walks_are_invariant_under_column_operations_and_row_permutations():
    """Every walk gives the same tables on A and on A*U, U in GL_n(R), up to
    the row permutation.

    The expansion of A*U is that of A times that of U, in GL_2n(Z), so every
    row lattice moves by a unimodular map.  The stacked arrangement of A*U
    has at S + T the lattice of A's at image[S] + T with its columns
    permuted, which is unimodular too.  reports() runs on the seed-1 and seed-9 files of
    the five workload kinds; the other walks on the k <= 10 ones, the
    inputs of the verify workload.
    """
    for args in WORKLOAD_SHAPES:
        for seed in (1, 9):
            arr = random_arrangement(*args, seed=seed)
            moved, perm = _column_operated(arr, random.Random(f"{args}:{seed}"))
            # image[S] is the subset of A that subset S of `moved` stands for.
            image = [0]
            for p in perm:
                image += [s | 1 << p for s in image]
            walks = [EllipticArrangement.reports]
            if arr.k <= 10:
                walks += [lambda a: over_order(a).reports(), _chain_tables, _stacked_reports]
            for walk in walks:
                pulled = tuple(tuple(table[s] for s in image) for table in walk(arr))
                assert walk(moved) == pulled, (args, seed, walk)


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
    arr = EllipticArrangement(RingMatrix(curve, n, pairs))
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
    assert arr.reports(fixed) == _slow_tables(arr, wide)
    assert list(over_order(arr).reports()[1]) == [
        multiplicity_via_order_basis(arr, s) for s in range(1 << arr.k)
    ]
    # The stacked-dual identity: the walk of (I_k over A^H) over the supersets
    # of T has at E - S the multiplicity of the conjugate transpose of rows S.
    stacked, t_mask = dual_arrangement(arr)
    supersets_m, e = stacked.reports(t_mask)[1], (1 << arr.k) - 1
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
    g, s, t = ellmat.linalg._xgcd(a, b)
    assert g == xgcd_by_euclid(a, b)[0] == gcd(a, b) > 0
    assert s * a + t * b == g


def test_coker_xcheck_flags_tampered_multiplicity():
    # Over Z[i] (N = 1) C/R is the curve itself and coker-xcheck walks
    # sigma(A)*W, whose entries differ from A's in the signs of the y parts
    # and by w times the column before; over <1, 3*sqrt(-2)> (N = 9) it
    # walks sigma(A)*W over the curve C/R.
    for m_param, c in ((1, 1), (2, 3)):
        arr = random_arrangement(k=4, n=2, m=m_param, a=0, b=1, c=c, bound=3, seed=5)
        assert arr.curve.N == c * c
        matroid = from_arrangement(arr)
        m = list(matroid.m)
        m[0b0110] *= 3
        tampered = ArithmeticMatroid(matroid.rk, tuple(m))
        found = check_axioms(tampered, ("coker-xcheck",), arr)["coker-xcheck"]
        true_m = matroid.m[0b0110]
        assert [(v.subsets, v.detail) for v in found] == [
            ((0b0110,), f"multiplicity of {{2,3}} disagrees across bases: {3 * true_m} / {true_m}")
        ]
        with pytest.raises(ParameterError):
            check_axioms(matroid.deletion(1), ("coker-xcheck",), arr)


def test_coker_xcheck_walks_the_oracles_matrix(monkeypatch):
    # The one arrangement coker-xcheck walks is sigma(A)*W over C/R as the
    # oracle builds it, entry by entry, on every curve of the corpus.
    walked = []
    original = EllipticArrangement.reports

    def recorded(self, fixed=0):
        walked.append(self)
        return original(self, fixed)

    monkeypatch.setattr(EllipticArrangement, "reports", recorded)
    for arr in arrangement_corpus():
        walked.clear()
        check_axioms(ArithmeticMatroid(*original(arr)), ("coker-xcheck",), arr)
        assert walked == [over_order(arr)], arr


def _mutant(function, *edits):
    """`function` recompiled from its source, each (old, new) edit made once."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source, namespace)
    return namespace[function.__name__]


# N = 1 kinds of `random_arrangement` arguments (k, n, m, a, b, c, bound).
N1_KINDS = ((10, 3, 3, -1, 2, 1, 3), (9, 4, 1, 0, 1, 1, 3), (7, 3, 7, 0, 1, 1, 3))
# On their two-column files the pivot-product mutant reads a singleton's
# multiplicity as |x1*y2 - x2*y1| when that minor is nonzero.  sigma and
# every integer column operation keep that minor; the shear W moves it.
TWO_COLUMN_KINDS = (
    (3, 2, 7, 0, 1, 1, 3),
    (4, 2, 1, 0, 1, 1, 3),
    (4, 2, 3, -1, 2, 1, 3),
    (5, 2, 3, -1, 2, 1, 3),
)
# Two walk defects, keyed by the name `arrangement` calls them by, with
# their edits and the kinds they are tried on: the multiplicity of a
# rank-deficient node read as its pivot product, and an echelon step that
# divides |x| by |a| and so leaves the column's entry.  On seed 9 of the
# second two-column kind that step breaks the sigma(A)*W walk's even-rank
# invariant, which raises instead of giving a verdict, and `ellmat` exits 3
# there.
WALK_MUTANTS = {
    "_multiplicity": (
        (("_column_index(rows)", "abs(prod(next(filter(None, r)) for r in rows))"),),
        N1_KINDS + TWO_COLUMN_KINDS,
    ),
    "echelon_insert": (
        (("x % a == 0", "abs(x) % abs(a) == 0"), ("x // a", "abs(x) // abs(a)")),
        N1_KINDS,
    ),
}


@pytest.mark.parametrize("name", sorted(WALK_MUTANTS))
def test_coker_xcheck_flags_walk_defects_on_n1_curves(monkeypatch, name):
    """On an N = 1 curve C/R is the curve itself, yet coker-xcheck walks
    another matrix, sigma(A)*W, so a defect of the walk that changes the
    tables shows in its verdict as well as in dual's."""
    edits, kinds = WALK_MUTANTS[name]
    mutant = _mutant(getattr(ellmat.arrangement, name), *edits)
    monkeypatch.setattr(ellmat.arrangement, name, mutant)
    for args in kinds:
        for seed in (1, 9):
            arr = random_arrangement(*args, seed=seed)
            assert arr.curve.N == 1
            found = check_axioms(from_arrangement(arr), ("coker-xcheck", "dual"), arr)
            assert found["coker-xcheck"] and found["dual"], (args, seed)


def test_walk_defect_exits_3_not_as_a_failed_verdict(monkeypatch, tmp_path, capsys):
    edits, _ = WALK_MUTANTS["echelon_insert"]
    monkeypatch.setattr(
        ellmat.arrangement, "echelon_insert", _mutant(ellmat.arrangement.echelon_insert, *edits)
    )
    path = tmp_path / "seed9.json"
    save_arrangement(random_arrangement(*TWO_COLUMN_KINDS[1], seed=9), path)
    _assert_fault_exit(capsys, ["verify", str(path), "--axioms", "coker-xcheck"])


def test_subset_report_raises_on_odd_rank(monkeypatch):
    monkeypatch.setattr(support, "smith_form", lambda matrix: (1,))
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
