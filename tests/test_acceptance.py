"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected value is an exact integer; corpora are seeded and fixed.
"""

import json
import time
from math import gcd, prod

from ellmat import (
    char_poly,
    check_axioms,
    cli,
    euler_characteristic,
    expand_lambda,
    from_arrangement,
    dual_arrangement,
    gcd_property,
    smith_form,
    tutte,
)
from ellmat.matroid import AXIOM_NAMES
from support import (
    FIXTURE_OMEGA_DOC,
    FIXTURE_SQRT3_DOC,
    arrangement_corpus,
    conj_transpose,
    curve_half_i,
    curve_sqrt3,
    expand_order,
    generator_index_oracle,
    ideal_gcd_oracle,
    make_field,
    matrix_corpus,
    minor_rank_and_torsion,
    new_realization_sqrt3,
    points_corpus,
    poly_eval,
    prime_factors,
    splits,
    tutte_eval,
    union_point_count,
)


def _verdict(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_01_worked_example_reproduction(tmp_path, capsys):
    start = time.monotonic()
    path_a = tmp_path / "sqrt3.json"
    path_a.write_text(json.dumps(FIXTURE_SQRT3_DOC))
    path_b = tmp_path / "omega.json"
    path_b.write_text(json.dumps(FIXTURE_OMEGA_DOC))

    code_a = cli.main(["analyze", str(path_a), "--json"])
    out_a = capsys.readouterr().out
    gcd_a = cli.main(["gcd-check", str(path_a)])
    gcd_out_a = capsys.readouterr().out
    code_b = cli.main(["analyze", str(path_b), "--json"])
    out_b = capsys.readouterr().out
    gcd_b = cli.main(["gcd-check", str(path_b)])
    gcd_out_b = capsys.readouterr().out
    elapsed = time.monotonic() - start

    doc_a = json.loads(out_a)
    doc_b = json.loads(out_b)
    ok = (
        code_a == 0
        and code_b == 0
        and [s["multiplicity"] for s in doc_a["subsets"]] == [1, 4, 4, 2]
        and [s["multiplicity"] for s in doc_b["subsets"]] == [1, 4, 4, 4]
        and gcd_a == 1
        and gcd_out_a.strip() == "FAIL (witness {1,2})"
        and gcd_b == 0
        and gcd_out_b.strip() == "PASS"
        and elapsed < 1.0
    )
    with capsys.disabled():
        _verdict(
            f"criterion 1: worked example multiplicities and gcd verdicts ({elapsed:.2f}s)",
            ok,
        )


def test_criterion_02_integer_expansion_of_flat_map(capsys):
    from ellmat import RingMatrix

    mat = RingMatrix(curve_sqrt3(), 2, [[(2, 0), (1, 1)]])
    expansion = expand_lambda(mat)
    interleaved = [[row[j] for j in (0, 2, 1, 3)] for row in expansion]
    factors = smith_form(expansion)
    ok = interleaved == [[2, 0, 1, -3], [0, 2, 1, 1]] and prod(factors) == 2 and factors == (1, 2)
    with capsys.disabled():
        _verdict("criterion 2: lattice expansion matches the reference Z-matrix", ok)


def test_criterion_03_generator_index(capsys):
    sqrt3 = curve_sqrt3()
    half_i = curve_half_i()
    ok = (
        sqrt3.N == 1
        and half_i.N == 4
        and generator_index_oracle(make_field(3), -1, 2, 1) == 1
        and generator_index_oracle(make_field(1), 0, 1, 2) == 4
    )
    with capsys.disabled():
        _verdict("criterion 3: N = 1 for sqrt(-3), N = 4 for i/2, oracle agrees", ok)


def test_criterion_04_cokernels_coincide_across_bases(capsys):
    start = time.monotonic()
    bad = 0
    corpus = matrix_corpus(500)
    for mat in corpus:
        # Equal factor tuples: equal rank and equal torsion invariants.
        if smith_form(expand_lambda(mat)) != smith_form(expand_order(mat)):
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and len(corpus) == 500 and elapsed < 30.0
    with capsys.disabled():
        _verdict(
            f"criterion 4: lattice and order expansions share torsion on 500 matrices ({elapsed:.1f}s)",
            ok,
        )


def test_criterion_05_conjugate_transpose_preserves_torsion(capsys):
    bad = 0
    for mat in matrix_corpus(500):
        direct = smith_form(expand_lambda(mat))
        flipped = smith_form(expand_lambda(conj_transpose(mat)))
        if [d for d in direct if d > 1] != [d for d in flipped if d > 1]:
            bad += 1
    ok = bad == 0
    with capsys.disabled():
        _verdict("criterion 5: conjugate transpose preserves torsion on 500 matrices", ok)


def test_criterion_06_axiom_suite(capsys):
    start = time.monotonic()
    bad = 0
    corpus = arrangement_corpus(200)
    for arr in corpus:
        verdicts = check_axioms(from_arrangement(arr), AXIOM_NAMES, arr)
        if any(verdicts.values()):
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and len(corpus) == 200 and elapsed < 120.0
    with capsys.disabled():
        _verdict(
            f"criterion 6: all axioms, the (P) equivalence and both cross-checks "
            f"on 200 arrangements ({elapsed:.1f}s)",
            ok,
        )


def test_criterion_07_dual_matroid_as_contraction(capsys):
    bad = 0
    for arr in arrangement_corpus(200):
        matroid = from_arrangement(arr)
        stacked, t_mask = dual_arrangement(arr)
        stacked_matroid = from_arrangement(stacked)
        if stacked_matroid.contraction(t_mask) != matroid.dual():
            bad += 1
    ok = bad == 0
    with capsys.disabled():
        _verdict("criterion 7: stacked-arrangement contraction realizes the dual", ok)


def test_criterion_08_gcd_property_over_maximal_orders(capsys):
    # The gcd property holds over R = End(E) when the gcd is taken in R, as
    # a sum of ideals (Fink & Moci, matroids over a ring): m(S) is the index
    # of the ideal generated by the minors of the bases of S.  The integer
    # gcd of the basis multiplicities can only exceed m(S) at rational
    # primes that split in Q(sqrt(-m)), where it cannot tell the two
    # conjugate primes apart (the counterexample in test_matroid.py).  The
    # oracle computes ranks and ideal indices in R, away from linalg and the
    # Smith form.
    checked = 0
    mismatches = []
    discrepancies = []
    non_split = []
    verdicts_off = []
    for idx, arr in enumerate(arrangement_corpus(200)):
        if arr.curve.conductor != 1:
            continue
        checked += 1
        matroid = from_arrangement(arr)
        ranks, indices, bases = ideal_gcd_oracle(arr.curve, arr.matrix.entries)
        first = None
        for s in range(1 << arr.k):
            if (matroid.rk[s], matroid.m[s]) != (ranks[s], indices[s]):
                mismatches.append((idx, s))
            integer_gcd = 0
            for basis in bases[s]:
                integer_gcd = gcd(integer_gcd, indices[basis])
            if integer_gcd == indices[s]:
                continue
            discrepancies.append((idx, s))
            if first is None:
                first = s
            quotient = integer_gcd // indices[s]
            if integer_gcd % indices[s] or not all(
                splits(arr.curve.field, p) for p in prime_factors(quotient)
            ):
                non_split.append((idx, s))
        if gcd_property(matroid) != (first is None, first):
            verdicts_off.append(idx)
    ok = checked > 0 and bool(discrepancies) and not (mismatches or non_split or verdicts_off)
    with capsys.disabled():
        _verdict(
            f"criterion 8: gcd property over End(E) on all {checked} conductor-1 "
            f"arrangements ({len(mismatches)} index mismatch(es), "
            f"{len(discrepancies)} integer discrepancy(ies), {len(non_split)} at "
            f"non-split primes, {len(verdicts_off)} gcd_property verdict(s) off)",
            ok,
        )


def test_criterion_09_euler_characteristic(capsys):
    arr = new_realization_sqrt3()
    matroid = from_arrangement(arr)
    euler = euler_characteristic(matroid, arr.n)
    via_tutte = -tutte_eval(tutte(matroid), 1, 0)
    via_char = poly_eval(char_poly(matroid), 0)
    via_points = -(4 + 4 - 2)
    fixture_ok = euler == via_tutte == via_char == via_points == -6

    corpus = points_corpus(50)
    corpus_bad = 0
    for pts in corpus:
        m_pts = from_arrangement(pts)
        essential = m_pts.full_rank == pts.n
        computed = euler_characteristic(m_pts, 1)
        if not essential or computed != 0 - union_point_count(m_pts):
            corpus_bad += 1
    ok = fixture_ok and corpus_bad == 0 and len(corpus) == 50
    with capsys.disabled():
        _verdict(
            "criterion 9: euler = -6 on the fixture and matches point counts on 50 curves",
            ok,
        )


def test_criterion_10_determinantal_divisor_oracle(capsys):
    checked = 0
    bad = 0
    for mat in matrix_corpus(500):
        for expansion in (expand_lambda(mat), expand_order(mat)):
            if min(len(expansion), len(expansion[0])) > 4:
                continue
            checked += 1
            factors = smith_form(expansion)
            rank, torsion = minor_rank_and_torsion(expansion)
            if len(factors) != rank or prod(factors) != torsion:
                bad += 1
    ok = bad == 0 and checked > 0
    with capsys.disabled():
        _verdict(
            f"criterion 10: torsion equals exhaustive minor gcd on {checked} expansions",
            ok,
        )
