"""Exact integer linear algebra: Smith normal form and lattice expansions.

A k x n matrix A over the order R = <1, w>, w = N*tau, acts Z-linearly on
powers of the lattice L = <1, tau>.  Writing A = X + Y*w with integer
matrices X and Y, and abbreviating s = trace(w) and d = delta_prime (so
norm(w) = N*d), the action on L-coordinates has the block form

    [[X, -Y*d], [Y*N, X + Y*s]].

Its action on R itself is this form over the curve C/R whose lattice is R
(`quadratic_order.order_curve`), where N = 1 and d is N*d.

Rows and columns are blocked: all first coordinates precede all second
coordinates, each block in ascending original index order.  An entry of A
is a plain (x, y) pair of ints meaning x + y*w, and integer matrices are
plain lists of rows, so the expansion, the echelon bases of `arrangement`
and the Smith form all share one shape.

One integer elimination, `echelon_insert` (exact and extended-gcd row
steps over Python integers), builds the echelon bases of the walk of
`arrangement` and the alternating column and row passes of `smith_form`.
"""

from itertools import chain
from math import gcd
from typing import Iterable, NamedTuple

from .quadratic_order import CurveParams, ParameterError, as_int


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g, for a not dividing b."""
    g = gcd(a, b)
    # a does not divide b, so |a/g| >= 2 and b/g is invertible modulo it.
    t = pow(b // g, -1, abs(a // g))
    return g, (g - t * b) // a, t


def echelon_insert(basis: list, v) -> None:
    """Add the row v, any sequence, to the echelon basis, in place.

    basis[c] is the row whose first nonzero entry, its pivot, is in column
    c, or None.  Rows are replaced, never mutated, so a copied basis list
    shares them safely.
    """
    for c in range(len(v)):
        x = v[c]
        if not x:
            continue
        b = basis[c]
        if b is None:
            basis[c] = v
            return
        a = b[c]
        if x % a == 0:
            q = x // a
            v = [vi - q * bi for bi, vi in zip(b, v)]
        else:
            g, s, t = _xgcd(a, x)
            p, q = a // g, x // g
            basis[c] = [s * bi + t * vi for bi, vi in zip(b, v)]
            v = [p * vi - q * bi for bi, vi in zip(b, v)]


def echelon_basis(rows: Iterable, width: int) -> list:
    """The echelon basis of the lattice that `rows` span in Z^width: entry
    c is the row with its pivot in column c, or None."""
    basis: list = [None] * width
    for v in rows:
        echelon_insert(basis, v)
    return basis


def smith_form(matrix: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... | d_r of the integer row list
    `matrix`, a map Z^cols -> Z^rows of rank r = len(result); the rows are
    never changed.

    Echelon passes alternate over the columns and the rows (Kannan & Bachem,
    SIAM J. Comput. 1979) until each row has one nonzero entry.  A pass's
    leading pivot is the gcd of its column, so its magnitude never grows,
    and it falls unless it divides its row and its column; once it does,
    one pass clears both and no later pass touches them, and the same holds
    for the trailing block.  Pairwise (gcd, lcm) steps then make the
    diagonal a divisibility chain.
    """
    rows = [b for b in echelon_basis(zip(*matrix), len(matrix)) if b]
    while any(len(row) - row.count(0) > 1 for row in rows):
        rows = [b for b in echelon_basis(zip(*rows), len(rows)) if b]
    diagonal = [abs(next(filter(None, row))) for row in rows]
    for i, d in enumerate(diagonal):
        for j in range(i + 1, len(diagonal)):
            g = gcd(d, diagonal[j])
            d, diagonal[j] = g, d // g * diagonal[j]
        diagonal[i] = d
    return tuple(diagonal)


def _refusal(entries: Iterable) -> ParameterError:
    """The error naming the first bad row or entry of `entries`, or `entries`, as given."""
    for i, row in enumerate(entries if isinstance(entries, Iterable) else ()):
        if not isinstance(row, Iterable):
            return ParameterError(f"entries[{i}]: expected a row of entries, got {row!r}")
        for j, pair in enumerate(row):
            if not isinstance(pair, Iterable) or [*map(type, pair)] != [int, int]:
                return ParameterError(f"entries[{i}][{j}]: expected a pair of ints, got {pair!r}")
    return ParameterError(f"entries: expected rows of pairs of ints, got {entries!r}")


class _Matrix(NamedTuple):
    curve: CurveParams
    n: int
    entries: tuple[tuple[tuple[int, int], ...], ...]


# A NamedTuple body may not define __new__: a subclass checks there and in _make, for _replace.
class RingMatrix(_Matrix):
    """Matrix of n columns over the order R of `curve`, its rows `entries`,
    an iterable read once; entry (x, y) is x + y*N*tau.  Rows and entries
    are stored as tuples, the row count k being their number.  Any entry
    that is not a pair of ints, a bool included, is refused."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, curve: CurveParams, n: int, entries: Iterable) -> "RingMatrix":
        if as_int(n, "column count") < 0:
            raise ParameterError("column count must be non-negative")
        try:
            # Rows, then each row, read once, so _refusal walks what was read.
            entries = list(entries)
            entries = [*map(tuple, entries)]
            rows = tuple([tuple(map(tuple, row)) for row in entries])
        except TypeError:
            raise _refusal(entries) from None
        cells = tuple(chain.from_iterable(rows))
        if {*map(len, cells), *map(type, chain.from_iterable(cells))} - {2, int}:
            raise _refusal(entries)
        if {*map(len, rows)} - {n}:
            raise ParameterError("column count mismatch")
        return super().__new__(cls, curve, n, rows)

    @property
    def k(self) -> int:
        return len(self.entries)


def expand_lambda(a: RingMatrix) -> list[list[int]]:
    """The 2k integer rows [[X, -Y*d], [Y*N, X + Y*s]], of length 2n, of A
    acting on <1, tau>-coordinates."""
    N, s, d = a.curve.N, a.curve.gen_trace, a.curve.delta_prime
    top = [[x for x, _ in row] + [-d * y for _, y in row] for row in a.entries]
    bottom = [[N * y for _, y in row] + [x + s * y for x, y in row] for row in a.entries]
    return top + bottom


def conjugate(a: RingMatrix) -> list[list[tuple[int, int]]]:
    """The rows of sigma(A): the conjugate of w = N*tau is s - w, s = gen_trace,
    so every entry x + y*w maps to (x + s*y) - y*w."""
    s = a.curve.gen_trace
    return [[(x + s * y, -y) for x, y in row] for row in a.entries]


def shear(a: RingMatrix) -> RingMatrix:
    """A*W, W adding w times column j - 1 to column j, so unipotent over R:
    w*(u + v*w) = -N*d*v + (u + s*v)*w, since w^2 = s*w - N*d."""
    nd, s = a.curve.N * a.curve.delta_prime, a.curve.gen_trace
    pairs = [zip(row, ((0, 0), *row)) for row in a.entries]
    rows = [[(x - nd * v, y + u + s * v) for (x, y), (u, v) in p] for p in pairs]
    return RingMatrix(a.curve, a.n, rows)


def row_select(a: RingMatrix, indices: Iterable[int]) -> RingMatrix:
    """Submatrix of the rows in `indices` (0-based), ascending."""
    picked = sorted(set(indices))
    for i in picked:
        if not 0 <= as_int(i, "row index") < a.k:
            raise ParameterError(f"row index {i} out of range for {a.k} rows")
    return RingMatrix(a.curve, a.n, [a.entries[i] for i in picked])
