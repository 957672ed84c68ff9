import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellmat import ParameterError, RingMatrix, expand_lambda, row_select, smith_form
from ellmat.quadratic_order import order_curve
from support import (
    conj_transpose,
    curve_half_i,
    curve_omega3,
    curve_sqrt3,
    expand_order,
    matrix_corpus,
    minor_invariant_factors,
    minor_rank_and_torsion,
    random_ring_matrix,
)

REFERENCE_Z_MATRIX = [[2, 0, 1, -3], [0, 2, 1, 1]]


def test_smith_identity():
    assert smith_form([[1, 0], [0, 1]]) == (1, 1)


def test_smith_flat_map_with_torsion():
    assert smith_form(REFERENCE_Z_MATRIX) == (1, 2)


def test_smith_diagonal_with_zero_row():
    assert smith_form([[2, 0], [0, 0]]) == (2,)


def test_smith_empty_shapes():
    # No rows at all, and three rows of width 0.
    for matrix in ([], [[], [], []]):
        assert smith_form(matrix) == ()


def test_torsion_order_examples():
    def torsion_order(matrix):
        return prod(smith_form(matrix))

    assert torsion_order(REFERENCE_Z_MATRIX) == 2
    assert torsion_order([[0, 0], [0, 0]]) == 1
    # Lattice expansion of the single entry 1 + sqrt(-3)
    assert torsion_order([[1, -3], [1, 1]]) == 4


def test_smith_form_leaves_its_argument_unchanged():
    # Rows the first echelon pass stores as they are, a diagonal input that
    # no later pass replaces, and a shape with no columns: the walk shares
    # basis rows between sibling subsets, so they must survive.
    for matrix in ([[0, 2], [3, 4]], [[2, 0], [0, 3]], [[0, 0], [0, 5]], [[], [], []]):
        before = [list(r) for r in matrix]
        rows = list(matrix)
        smith_form(matrix)
        assert matrix == before
        assert all(r is s for r, s in zip(matrix, rows))


def test_smith_matches_minor_enumeration():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        factors = smith_form(mat)
        rank, torsion = minor_rank_and_torsion(mat)
        assert len(factors) == rank
        assert prod(factors) == torsion


def test_smith_euclid_and_fold_cases():
    cases = {
        # One row: the row pass keeps it, and the column pass's extended-gcd
        # steps bring the gcd of its entries into one pivot.
        ((2, 3),): (1,),
        ((4, 6, 9),): (1,),
        ((-3, 0, 7), (0, 0, 0)): (1,),
        # Already diagonal, so no column pass runs; the pairwise (gcd, lcm)
        # steps turn the diagonal into a divisibility chain.
        ((2, 0), (0, 3)): (1, 6),
        ((-2, 0), (0, -3)): (1, 6),
        ((4, 0), (0, 6)): (2, 12),
        ((6, 0, 0), (0, 10, 0), (0, 0, 15)): (1, 30, 30),
        # The column pass leaves a pivot that does not divide its row, so a
        # third pass, over the rows again, clears it.
        ((3, 1, 0), (0, 3, 0), (0, 0, 0)): (1, 9),
        # The most passes among small inputs: five, the leading pivot falling
        # 12, 4, 2, 1 before it divides its row and its column ...
        ((-12, -4), (0, 5)): (1, 60),
        ((0, 1), (12, -4), (-12, -9)): (1, 12),
        # ... and six, where the trailing block takes four more passes once
        # the leading entry is 1.
        ((8, 7, -9, -10), (0, 9, 9, 6), (0, 0, -1, 4)): (1, 1, 12),
    }
    for rows, factors in cases.items():
        mat = [list(r) for r in rows]
        assert smith_form(mat) == factors == minor_invariant_factors(mat)


_ENTRY = st.one_of(st.integers(-9, 9), st.integers(-(2**62), 2**62))


@st.composite
def _int_matrix(draw) -> list[list[int]]:
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    row = st.one_of(st.just([0] * cols), st.lists(_ENTRY, min_size=cols, max_size=cols))
    data = draw(st.lists(row, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        # Echelon shape, the walk's bases: zeros left of a staircase of
        # pivots, units and negative pivots among them.
        pivot = st.sampled_from((1, -1, 2, -2, 3, 6, -12))
        for i, r in enumerate(data[:cols]):
            if any(r):
                r[:i] = [0] * i
                r[i] = draw(pivot)
    return data


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_int_matrix())
def test_smith_invariant_factors_match_minor_gcds(mat):
    assert smith_form(mat) == minor_invariant_factors(mat)


def test_smith_invariant_under_unimodular_operations():
    rng = random.Random(6)
    base = REFERENCE_Z_MATRIX
    height, width = len(base), len(base[0])
    reference = smith_form(base)
    for _ in range(50):
        rows = [list(r) for r in base]
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.5 and height > 1:
                i, j = rng.sample(range(height), 2)
                q = rng.randint(-3, 3)
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            elif width > 1:
                i, j = rng.sample(range(width), 2)
                q = rng.randint(-3, 3)
                for r in rows:
                    r[i] += q * r[j]
            if rng.random() < 0.3:
                i = rng.randrange(height)
                rows[i] = [-a for a in rows[i]]
        assert smith_form(rows) == reference


def test_expand_lambda_block_layout():
    # 1 x 2 matrix (2, 1 + sqrt(-3)): blocks X = (2, 1), Y = (0, 1)
    mat = RingMatrix(curve_sqrt3(), 2, [[(2, 0), (1, 1)]])
    expansion = expand_lambda(mat)
    assert expansion == [[2, 1, 0, -3], [0, 1, 2, 1]]
    # Interleaving the column blocks recovers the entrywise 2x2 layout.
    interleaved = [[row[j] for j in (0, 2, 1, 3)] for row in expansion]
    assert interleaved == REFERENCE_Z_MATRIX


def test_expand_lambda_zero_matrix():
    mat = RingMatrix(curve_sqrt3(), 2, [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    expansion = expand_lambda(mat)
    assert len(expansion) == 4 and all(len(row) == 4 for row in expansion)
    assert all(v == 0 for row in expansion for v in row)


def test_expand_lambda_generator_over_half_i():
    # N*tau = 2i acting on <1, i/2>: 2i*1 = 4*(i/2), 2i*(i/2) = -1.
    mat = RingMatrix(curve_half_i(), 1, [[(0, 1)]])
    assert expand_lambda(mat) == [[0, -1], [4, 0]]
    # Over C/R the lattice is <1, 2i>: 2i*1 = 2i, 2i*2i = -4.
    assert expand_lambda(_over_order(mat)) == [[0, -4], [1, 0]]


def _over_order(mat: RingMatrix) -> RingMatrix:
    return mat._replace(curve=order_curve(mat.curve))


def test_order_curve_expansion_is_the_r_basis_expansion():
    rng = random.Random(8)
    for _ in range(20):
        mat = random_ring_matrix(rng, curve_sqrt3(), rng.randint(1, 3), rng.randint(1, 3), 4)
        assert expand_lambda(_over_order(mat)) == expand_lambda(mat) == expand_order(mat)
    # The two bases differ by the factor N on the coordinate of N*tau, so
    # the expansions are equal exactly when N = 1 or no entry has one.
    for mat in matrix_corpus(500):
        over_order = expand_lambda(_over_order(mat))
        assert over_order == expand_order(mat)
        integral = all(y == 0 for row in mat.entries for _, y in row)
        assert (expand_lambda(mat) == over_order) == (mat.curve.N == 1 or integral)


def test_order_curve_expansion_of_a_scalar():
    mat = RingMatrix(curve_half_i(), 1, [[(2, 0)]])
    assert expand_lambda(_over_order(mat)) == [[2, 0], [0, 2]]
    assert expand_lambda(mat) == [[2, 0], [0, 2]]


def test_conj_transpose_column():
    mat = RingMatrix(curve_sqrt3(), 1, [[(2, 0)], [(1, 1)]])
    flipped = conj_transpose(mat)
    assert (flipped.k, flipped.n) == (1, 2)
    assert flipped.entries[0][0] == (2, 0)
    assert flipped.entries[0][1] == (1, -1)


def test_conj_transpose_identity_and_involution():
    units = (((1, 0), (0, 0), (0, 0)), ((0, 0), (1, 0), (0, 0)), ((0, 0), (0, 0), (1, 0)))
    ident = RingMatrix(curve_omega3(), 3, units)
    assert conj_transpose(ident) == ident
    rng = random.Random(9)
    for _ in range(20):
        mat = random_ring_matrix(rng, curve_half_i(), 3, 3, 5)
        assert conj_transpose(conj_transpose(mat)) == mat


def test_ring_matrix_validates_its_shape():
    row = ((1, 0), (0, 1))
    with pytest.raises(ParameterError, match="column count mismatch"):
        RingMatrix(curve_sqrt3(), 2, (row, row[:1]))
    with pytest.raises(ParameterError, match="column count mismatch"):
        RingMatrix(curve=curve_sqrt3(), n=3, entries=(row,))
    square = RingMatrix(curve_sqrt3(), 2, (row, row))
    assert square.entries == (row, row) and square.k == 2
    with pytest.raises(ParameterError, match="column count mismatch"):
        square._replace(n=3)
    # The row count is read off the rows, and the one constructor takes them.
    assert RingMatrix._fields == ("curve", "n", "entries")
    assert not hasattr(RingMatrix, "from_pairs")


def test_ring_matrix_refuses_a_negative_width():
    # Zero rows of width -3 would give the arrangement rk = (-3,).
    with pytest.raises(ParameterError, match="column count must be non-negative"):
        RingMatrix(curve_sqrt3(), -3, ())
    with pytest.raises(ParameterError, match="column count must be non-negative"):
        RingMatrix(curve_sqrt3(), 0, ())._replace(n=-1)


def test_row_select():
    mat = RingMatrix(curve_sqrt3(), 1, [[(2, 0)], [(1, 1)]])
    assert row_select(mat, range(2)) == mat
    empty = row_select(mat, ())
    assert (empty.k, empty.n) == (0, 1)
    single = row_select(mat, [1])
    assert single.entries[0][0] == (1, 1)
    with pytest.raises(ParameterError):
        row_select(mat, [2])


def test_cokernels_agree_across_bases_small_corpus():
    for mat in matrix_corpus(80, seed=41):
        assert smith_form(expand_lambda(mat)) == smith_form(expand_order(mat))


def test_conj_transpose_preserves_torsion_small_corpus():
    for mat in matrix_corpus(80, seed=42):
        assert smith_form(expand_lambda(mat)) == smith_form(expand_lambda(conj_transpose(mat)))


def test_lambda_expansion_rank_is_even():
    for mat in matrix_corpus(80, seed=43):
        assert len(smith_form(expand_lambda(mat))) % 2 == 0
