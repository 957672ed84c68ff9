"""Exact arithmetic matroids of elliptic arrangements with complex multiplication.

The package goes from a lattice parameterization (square-free m and
tau = (a + b*omega)/c) and a matrix over the resulting endomorphism ring
to the induced arithmetic matroid: subset ranks and multiplicities,
axiom verification, duality, minors, the gcd property, the arithmetic
Tutte polynomial and the Euler characteristic of the complement.
Everything is computed over plain Python integers.
"""

from .quadratic_order import (
    CurveParams,
    FieldParams,
    ParameterError,
    is_square_free,
    make_curve,
    make_field,
    min_poly,
)
from .linalg import RingMatrix, expand_lambda, row_select, smith_form
from .arrangement import EllipticArrangement, dual_arrangement
from .matroid import (
    ArithmeticMatroid,
    Violation,
    char_poly,
    check_axioms,
    euler_characteristic,
    format_subset,
    from_arrangement,
    gcd_property,
    poly_str,
    tutte,
    tutte_str,
)
from .fileio import (
    load_arrangement,
    parse_document,
    parse_text,
    random_arrangement,
    save_arrangement,
    serialize_arrangement,
)

__version__ = "0.1.0"
