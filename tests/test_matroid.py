import random
import time

import pytest

from ellmat import (
    ArithmeticMatroid,
    EllipticArrangement,
    ParameterError,
    RingMatrix,
    char_poly,
    check_axioms,
    dual_arrangement,
    euler_characteristic,
    format_subset,
    from_arrangement,
    gcd_property,
    poly_str,
    random_arrangement,
    tutte,
    tutte_str,
)
from ellmat import matroid as matroid_module
from ellmat.arrangement import MAX_GROUND
from support import (
    arrangement_corpus,
    curve_sqrt3,
    curve_third_sqrt2,
    find_molecule,
    interval_pass_by_superset_sums,
    molecule_scan_verdicts,
    new_realization_omega,
    new_realization_sqrt3,
    poly_eval,
    random_ring_matrix,
    rank_and_a1_scan,
    rho,
    tutte_eval,
    tutte_per_subset,
)


def _example_matroid() -> ArithmeticMatroid:
    return from_arrangement(new_realization_sqrt3())


def _verdict(matroid: ArithmeticMatroid, name: str):
    return check_axioms(matroid, (name,))[name]


def _free_matroid(k: int) -> ArithmeticMatroid:
    return ArithmeticMatroid([s.bit_count() for s in range(1 << k)], [1] * (1 << k))


def test_from_arrangement_tables():
    matroid = _example_matroid()
    assert matroid.rk == (0, 1, 1, 1)
    assert matroid.m == (1, 4, 4, 2)
    over_maximal = from_arrangement(new_realization_omega())
    assert over_maximal.m == (1, 4, 4, 4)


def test_from_arrangement_empty_ground_set():
    arr = EllipticArrangement(RingMatrix(curve_sqrt3(), 0, ()))
    matroid = from_arrangement(arr)
    assert matroid.size == 0
    assert matroid.rk == (0,)
    assert matroid.m == (1,)


def test_from_arrangement_cap():
    arr = random_arrangement(k=MAX_GROUND + 1, n=2, m=1, a=0, b=1, c=1, bound=2, seed=1)
    with pytest.raises(ParameterError):
        from_arrangement(arr)


def test_table_shape_validation():
    # The ground set is read off the tables: they must be equally long, of
    # length 2^size.
    for rk, m in (((), ()), ((0, 1, 1), (1, 1, 1)), ((0, 1, 1, 1), (1, 1, 1, 1, 1))):
        with pytest.raises(ParameterError, match="equal lengths, a power of 2"):
            ArithmeticMatroid(rk, m)
    with pytest.raises(ParameterError, match="equal lengths, a power of 2"):
        ArithmeticMatroid((0,), (1,))._replace(rk=())
    with pytest.raises(ParameterError, match="multiplicities must be positive"):
        ArithmeticMatroid((0, 1), (1, 0))
    with pytest.raises(ParameterError, match="multiplicities must be positive"):
        ArithmeticMatroid(rk=(0, 1), m=(-1, 1))
    # _replace builds a new tuple without __new__ unless _make is checked too.
    with pytest.raises(ParameterError, match="multiplicities must be positive"):
        ArithmeticMatroid((0, 1), (1, 1))._replace(m=(1, 0))
    assert ArithmeticMatroid._fields == ("rk", "m")
    assert (ArithmeticMatroid((0,), (1,)).size, _free_matroid(3).size) == (0, 3)


def test_records_built_from_lists_are_the_tuple_built_ones():
    # Both records store tuples whatever sequences they are given, so a
    # list-built record equals, hashes and verifies like the tuple-built one.
    arr = random_arrangement(3, 2, 3, -1, 2, 1, 3, 1)
    matroid = from_arrangement(arr)
    listed = ArithmeticMatroid(list(matroid.rk), list(matroid.m))
    assert listed == matroid and hash(listed) == hash(matroid)
    assert check_axioms(listed, ("dual", "coker-xcheck"), arr) == {"dual": (), "coker-xcheck": ()}
    rows = [[(2, 0)], [(1, 1)]]
    listed_arr = EllipticArrangement(RingMatrix(curve_sqrt3(), 1, rows))
    assert listed_arr.matrix == new_realization_sqrt3().matrix
    assert hash(listed_arr) == hash(new_realization_sqrt3())
    # The caller's lists are copied, and the stored rows cannot change.
    rows[0][0] = (5, 0)
    rows.append([(1, 0)])
    with pytest.raises(TypeError):
        listed_arr.matrix.entries[0][0] = (5, 0)
    assert from_arrangement(listed_arr).m == (1, 4, 4, 2)


def test_verify_matroid_passes_on_examples():
    assert _verdict(_example_matroid(), "rank") == ()
    assert _verdict(_free_matroid(3), "rank") == ()


def test_verify_matroid_flags_nonzero_empty_rank():
    broken = ArithmeticMatroid((1, 1), (1, 1))
    axioms = {v.axiom for v in _verdict(broken, "rank")}
    assert "r1" in axioms


def test_verify_a1_passes_and_fails():
    assert _verdict(_example_matroid(), "a1") == ()
    assert _verdict(_free_matroid(2), "a1") == ()
    tampered = ArithmeticMatroid((0, 1, 1, 1), (1, 4, 4, 3))
    violations = _verdict(tampered, "a1")
    assert violations
    assert all(v.axiom == "a1" for v in violations)


def test_find_molecule_forced_partition():
    matroid = _example_matroid()
    mol = find_molecule(matroid, 0b01, 0b11)
    assert mol is not None
    assert mol.coloops == 0
    assert mol.loops == 0b10
    assert find_molecule(matroid, 0, 0b11) is None
    trivial = find_molecule(matroid, 0b01, 0b01)
    assert trivial is not None and trivial.coloops == 0 and trivial.loops == 0
    with pytest.raises(ParameterError):
        find_molecule(matroid, 0b10, 0b01)


def test_verify_a2_examples():
    assert _verdict(_example_matroid(), "a2") == ()
    assert _verdict(_free_matroid(3), "a2") == ()
    # rank (0,1,0,1) makes [empty, {1,2}] a molecule with one coloop and one
    # loop; multiplicities (1,2,1,1) break the product identity on it.
    tampered = ArithmeticMatroid((0, 1, 0, 1), (1, 2, 1, 1))
    violations = _verdict(tampered, "a2")
    assert violations
    assert violations[0].subsets == (0, 0b11)


def test_rho_values():
    matroid = _example_matroid()
    mol = find_molecule(matroid, 0b01, 0b11)
    assert rho(matroid, mol) == 2
    mol = find_molecule(matroid, 0, 0b01)
    assert rho(matroid, mol) == 3
    mol = find_molecule(matroid, 0b01, 0b01)
    assert rho(matroid, mol) == matroid.m[0b01]


def test_interval_pass_matches_exhaustive_scans():
    # The interval pass against the molecule-by-molecule scans it replaced,
    # on the corpus and on seeded tamperings.  Multiplicity tampering keeps
    # (r1)-(r3), so every verdict must agree, order and detail included.
    # Rank tampering breaks them, where the pass's closed-form molecule test
    # may differ for (A2) and (P), but (P1) and (P2) must still agree.
    rng = random.Random(74)
    names = ("a2", "p", "p1", "p2", "p-equivalence")
    violations = 0
    for arr in arrangement_corpus(200):
        matroid = from_arrangement(arr)
        tampered = [matroid]
        for _ in range(4):
            m = list(matroid.m)
            for _ in range(rng.randint(1, 4)):
                m[rng.randrange(len(m))] = rng.randint(1, 12)
            tampered.append(ArithmeticMatroid(matroid.rk, tuple(m)))
        for table in tampered:
            verdicts = check_axioms(table, names)
            assert verdicts == molecule_scan_verdicts(table)
            violations += sum(len(v) for v in verdicts.values())
        rk = list(matroid.rk)
        s = rng.randrange(len(rk))
        rk[s] = max(0, rk[s] + rng.choice((-1, 1)))
        broken = ArithmeticMatroid(tuple(rk), matroid.m)
        verdicts = check_axioms(broken, ("p1", "p2"))
        reference = molecule_scan_verdicts(broken)
        assert verdicts == {"p1": reference["p1"], "p2": reference["p2"]}
    assert violations > 1000


def test_ternary_transform_matches_superset_sums(monkeypatch):
    # The interval pass against the per-top-set superset sums it replaced,
    # order and detail included, on any table: the corpus, its
    # multiplicity-tampered, rank-tampered and random-rank copies, and
    # arrangements with k = 0, 1, 7 and 8.  k = 7 and 8 pass the leaf
    # width, so the depth-first part runs; the leaf is then narrowed to 2
    # and 0, which leaves the corpus to the depth-first part too.
    rng = random.Random(76)
    names = ("a2", "p", "p1", "p2", "p-equivalence")
    tables = []
    for arr in arrangement_corpus(200):
        matroid = from_arrangement(arr)
        m = list(matroid.m)
        for _ in range(rng.randint(1, 4)):
            m[rng.randrange(len(m))] = rng.randint(1, 12)
        rk = list(matroid.rk)
        s = rng.randrange(len(rk))
        rk[s] = max(0, rk[s] + rng.choice((-1, 1)))
        random_rk = tuple(rng.randint(0, matroid.size) for _ in rk)
        tables += [
            matroid,
            ArithmeticMatroid(matroid.rk, tuple(m)),
            ArithmeticMatroid(tuple(rk), matroid.m),
            ArithmeticMatroid(random_rk, tuple(m)),
        ]
    for k in (0, 1, 7, 8):
        tables.append(from_arrangement(random_arrangement(k, 3, 3, -1, 2, 1, 3, k)))
    assert max(table.size for table in tables) > matroid_module._LEAF
    violations = 0
    for leaf in (matroid_module._LEAF, 2, 0):
        monkeypatch.setattr(matroid_module, "_LEAF", leaf)
        for table in tables:
            verdicts = check_axioms(table, names)
            assert verdicts == interval_pass_by_superset_sums(table)
            violations += sum(len(v) for v in verdicts.values())
    assert violations > 1000


def test_local_pass_matches_exhaustive_scan():
    # The local pass against the 4^k (r1)-(r3) scan and the (A1) loop it
    # replaced, on the corpus and on seeded tamperings.  (r1), (r2) and
    # (A1) must agree entry for entry.  (r3) is checked only on local pairs,
    # so its witnesses differ, but each must break submodularity, and a
    # table has one exactly when the exhaustive scan finds any: a set
    # function is submodular iff it is locally submodular.
    rng = random.Random(75)
    r3_only = 0
    for arr in arrangement_corpus(200):
        matroid = from_arrangement(arr)
        tables = [matroid]
        for _ in range(2):
            m = list(matroid.m)
            for _ in range(rng.randint(1, 4)):
                m[rng.randrange(len(m))] = rng.randint(1, 12)
            tables.append(ArithmeticMatroid(matroid.rk, tuple(m)))
        for _ in range(3):
            rk = list(matroid.rk)
            s = rng.randrange(len(rk))
            rk[s] = max(0, rk[s] + rng.choice((-1, 1)))
            tables.append(ArithmeticMatroid(tuple(rk), matroid.m))
        for table in tables:
            verdicts = check_axioms(table, ("rank", "a1"))
            reference = rank_and_a1_scan(table)
            assert verdicts["a1"] == reference["a1"]
            r3 = [v for v in verdicts["rank"] if v.axiom == "r3"]
            assert [v for v in verdicts["rank"] if v.axiom != "r3"] == [
                v for v in reference["rank"] if v.axiom != "r3"
            ]
            assert bool(verdicts["rank"]) == bool(reference["rank"])
            assert bool(r3) == any(v.axiom == "r3" for v in reference["rank"])
            rk = table.rk
            for v in r3:
                x, y = v.subsets
                assert rk[x | y] + rk[x & y] > rk[x] + rk[y]
            r3_only += bool(r3) and len(r3) == len(verdicts["rank"])
    assert r3_only >= 5


def test_tutte_buckets_match_per_subset_expansion():
    rng = random.Random(76)
    tables = [from_arrangement(arr) for arr in arrangement_corpus(200)]
    # Big entries over the N = 9 order, shaped like the benchmark's k11n4 input.
    for _ in range(2):
        big = random_ring_matrix(rng, curve_third_sqrt2(), 8, 4, 10**6)
        tables.append(from_arrangement(EllipticArrangement(big)))
    assert max(tables[-1].m).bit_length() > 100
    for matroid in tables[:40]:
        rk = list(matroid.rk)
        rk[rng.randrange(len(rk))] += rng.choice((-1, 1))
        tables.append(ArithmeticMatroid(tuple(rk), matroid.m))
    for matroid in tables:
        assert tutte(matroid) == tutte_per_subset(matroid)


def test_check_axioms_names():
    matroid = _example_matroid()
    verdicts = check_axioms(matroid, ("p", "rank", "p", "a1"))
    assert list(verdicts) == ["p", "rank", "a1"]
    assert all(v == () for v in verdicts.values())
    with pytest.raises(ParameterError):
        check_axioms(matroid, ("bogus",))
    # The cross-checks read the arrangement the tables came from.
    for name in ("dual", "coker-xcheck"):
        with pytest.raises(ParameterError):
            check_axioms(matroid, ("rank", name))
    arr = new_realization_sqrt3()
    verdicts = check_axioms(matroid, ("dual", "coker-xcheck"), arr)
    assert verdicts == {"dual": (), "coker-xcheck": ()}


def test_positivity_axioms_on_examples():
    verdicts = check_axioms(_example_matroid(), ("p", "p1", "p2", "p-equivalence"))
    assert verdicts["p"] == ()
    assert verdicts["p1"] == ()
    assert verdicts["p2"] == ()
    assert verdicts["p-equivalence"] == ()
    assert _verdict(_free_matroid(3), "p") == ()


def test_dual_tables():
    dual = _example_matroid().dual()
    assert dual.rk == (0, 1, 1, 1)
    assert dual.m == (2, 4, 4, 1)
    free_dual = _free_matroid(2).dual()
    assert free_dual.rk == (0, 0, 0, 0)
    assert free_dual.m == (1, 1, 1, 1)


def test_dual_is_an_involution_on_random_tables():
    rng = random.Random(21)
    for _ in range(100):
        k = rng.randint(0, 4)
        total = 1 << k
        rk = [0] * total
        for s in range(1, total):
            rk[s] = rng.randint(0, s.bit_count())
        m = [rng.randint(1, 9) for _ in range(total)]
        matroid = ArithmeticMatroid(tuple(rk), tuple(m))
        assert matroid.dual().dual() == matroid


def test_minors_commute_with_duality_on_random_tables():
    # (M/T)* = M*\T and (M\T)* = M*/T follow from the table formulas alone,
    # so they must hold on tables that are not matroids too.
    rng = random.Random(22)
    for _ in range(300):
        k = rng.randint(0, 6)
        total = 1 << k
        rk = [0] * total
        for s in range(1, total):
            rk[s] = rng.randint(0, s.bit_count())
        m = [rng.randint(1, 9) for _ in range(total)]
        matroid = ArithmeticMatroid(tuple(rk), tuple(m))
        dual = matroid.dual()
        for t in range(total):
            assert matroid.contraction(t).dual() == dual.deletion(t)
            assert matroid.deletion(t).dual() == dual.contraction(t)


def test_contraction_and_deletion():
    matroid = _example_matroid()
    assert matroid.contraction(0) == matroid
    assert matroid.deletion(0) == matroid
    collapsed = matroid.deletion(matroid.ground_mask)
    assert collapsed.size == 0 and collapsed.m == (1,)
    for minor in (matroid.contraction, matroid.deletion):
        with pytest.raises(ParameterError):
            minor(1 << matroid.size)
    contracted = matroid.contraction(0b01)
    assert contracted.rk == (0, 0)
    assert contracted.m == (4, 2)


def test_dual_realized_as_stacked_contraction():
    arr = new_realization_sqrt3()
    matroid = from_arrangement(arr)
    stacked, t_mask = dual_arrangement(arr)
    stacked_matroid = from_arrangement(stacked)
    assert stacked_matroid.contraction(t_mask) == matroid.dual()


def test_gcd_property_examples():
    holds, witness = gcd_property(_example_matroid())
    assert not holds
    assert witness == 0b11
    assert format_subset(witness) == "{1,2}"
    holds, witness = gcd_property(from_arrangement(new_realization_omega()))
    assert holds and witness is None
    assert gcd_property(_free_matroid(3)) == (True, None)


def test_gcd_property_split_prime_counterexample():
    # Over Z[i] the rational prime 13 splits as (2+3i)(2-3i).  The pair
    # determinants below are -(2+3i), 13 and 2-3i, so every pair
    # multiplicity is divisible by 13 while the three determinants share
    # no Gaussian prime: the triple intersection is one point.  The
    # integer gcd cannot separate the conjugate primes, so the gcd
    # property fails even over this maximal (hence Dedekind) order.
    from support import curve_gauss, ideal_gcd_oracle

    pairs = [[(2, 3), (2, 3)], [(1, 0), (0, 0)], [(0, 0), (2, -3)]]
    mat = RingMatrix(curve_gauss(), 2, pairs)
    matroid = from_arrangement(EllipticArrangement(mat))
    assert matroid.m[0b011] == 13
    assert matroid.m[0b101] == 169
    assert matroid.m[0b110] == 13
    assert matroid.m[0b111] == 1
    holds, witness = gcd_property(matroid)
    assert not holds
    assert witness == 0b111
    # The axioms themselves are untouched by the failure.
    verdicts = check_axioms(matroid, ("a1", "a2", "p"))
    assert verdicts["a1"] == ()
    assert verdicts["a2"] == ()
    assert verdicts["p"] == ()
    # Taken in Z[i], the gcd of the pair determinants is the unit ideal, so
    # the ideal-index oracle gives the same hand values and m({1,2,3}) = 1.
    _, indices, _ = ideal_gcd_oracle(curve_gauss(), pairs)
    assert [indices[s] for s in (0b011, 0b101, 0b110, 0b111)] == [13, 169, 13, 1]


def test_tutte_polynomial():
    t_poly = tutte(_example_matroid())
    assert t_poly == ((0, 0, 5), (0, 1, 2), (1, 0, 1))
    assert tutte_str(t_poly) == "x + 2*y + 5"
    assert tutte_eval(t_poly, 1, 1) == 8
    assert tutte_str(tutte(_free_matroid(1))) == "x"
    assert tutte_str(()) == "0"
    assert tutte_str(((0, 0, 0),)) == "0"
    assert tutte_str(((0, 0, -4),)) == "-4"
    assert tutte_str(((0, 0, 4),)) == "4"
    assert tutte_str(((1, 1, -1), (0, 1, 1), (0, 0, -2))) == "-x*y + y - 2"
    mixed = ((1, 1, -1), (0, 1, 1), (2, 0, 3), (0, 0, -2))
    assert tutte_str(mixed) == "3*x^2 - x*y + y - 2"
    assert tutte_str(((0, 2, -1), (1, 0, -1))) == "-y^2 - x"


def test_tutte_at_one_one_counts_weighted_bases():
    for arr in arrangement_corpus(25, seed=61):
        matroid = from_arrangement(arr)
        t_poly = tutte(matroid)
        r = matroid.full_rank
        weighted = sum(
            matroid.m[s]
            for s in range(1 << matroid.size)
            if s.bit_count() == r and matroid.rk[s] == r
        )
        assert tutte_eval(t_poly, 1, 1) == weighted


def test_char_poly():
    chi = char_poly(_example_matroid())
    assert chi == (-6, 1)
    assert poly_str(chi) == "t - 6"
    assert poly_str(()) == "0"
    assert poly_str((0, 0, 0)) == "0"
    assert poly_str((5,)) == "5"
    assert poly_str((-5, 0)) == "-5"
    assert poly_str((0, -1, 1)) == "t^2 - t"
    assert poly_str((2, 0, -1)) == "-t^2 + 2"
    assert poly_str((1, 3, 0, -1)) == "-t^3 + 3*t + 1"
    assert char_poly(_free_matroid(1)) == (-1, 1)
    # Tampered tables with a negative rank: rk(empty) = -1 gives t - 1 at
    # rk(E) = 0, and rk(E) = -1 keeps only E itself.
    assert char_poly(ArithmeticMatroid((-1, 0), (1, 1))) == (-1, 1)
    assert char_poly(ArithmeticMatroid((0, 1, 1, -1), (1, 1, 1, 1))) == (1,)


def test_char_poly_is_tutte_specialization():
    # The library sums over the tables by the definitions; the paper's
    # identities chi(t) = (-1)^r T(1-t, 0) and, for rank n in E^n,
    # euler = (-1)^r T(1, 0) are checked here.
    rng = random.Random(62)
    cases = []
    for arr in arrangement_corpus():
        matroid = from_arrangement(arr)
        chi = char_poly(matroid)
        assert len(chi) == matroid.full_rank + 1
        # The subsets of rank 0 are those of the loops, zero rows with m = 1.
        loops = [i for i in range(matroid.size) if matroid.rk[1 << i] == 0]
        assert chi[-1] == (0 if loops else 1)
        cases.append((matroid, arr.n))
    # Tampered copies, negative ranks included: both sides skip the same
    # subsets, those with rk(S) > |S| or rk(S) > rk(E).
    for matroid, n in cases[:60]:
        rk, m = list(matroid.rk), list(matroid.m)
        s = rng.randrange(len(rk))
        rk[s] += rng.choice((-1, 1))
        m[rng.randrange(len(m))] += rng.randint(1, 5)
        cases.append((ArithmeticMatroid(tuple(rk), matroid.m), n))
        cases.append((ArithmeticMatroid(matroid.rk, tuple(m)), n))
    for matroid, n in cases:
        chi, t_poly = char_poly(matroid), tutte(matroid)
        r = matroid.full_rank
        sign = -1 if r & 1 else 1
        for t0 in (-2, -1, 0, 1, 3):
            assert poly_eval(chi, t0) == sign * tutte_eval(t_poly, 1 - t0, 0)
        euler = sign * tutte_eval(t_poly, 1, 0)
        assert euler_characteristic(matroid, n) == (euler if r == n else 0)
        assert euler_characteristic(matroid, r) == euler


def test_euler_characteristic():
    matroid = _example_matroid()
    assert euler_characteristic(matroid, 1) == -6
    point = ArithmeticMatroid((0,), (1,))
    assert euler_characteristic(point, 0) == 1
    assert euler_characteristic(matroid, 2) == 0
    # Ambient dimension below the rank: no subset of rank 0 is a point
    # layer, although the empty set has rank 0.
    assert euler_characteristic(matroid, 0) == 0


def test_rho_nonnegative_on_corpus_molecules():
    for arr in arrangement_corpus(15, seed=64):
        matroid = from_arrangement(arr)
        assert _verdict(matroid, "p") == ()
        mol = find_molecule(matroid, 0, 0)
        assert rho(matroid, mol) == matroid.m[0]


def test_format_subset():
    assert format_subset(0) == "{}"
    assert format_subset(0b101) == "{1,3}"
    for mask in range(1 << 10):
        expected = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
        assert format_subset(mask) == "{" + ",".join(expected) + "}"


def test_format_subset_is_linear_in_the_width():
    # `dual` prints T of a stacked arrangement as wide as the input's
    # columns; a shift per bit took about 12 s at this width.
    width = 10**6
    start = time.monotonic()
    text = format_subset((1 << width) - 1)
    assert time.monotonic() - start < 2.0
    assert text.startswith("{1,2,3,") and text.endswith(f",{width}}}")
