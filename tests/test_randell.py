import itertools
import math
import random
from collections import Counter

import pytest

from brieskorn_ch.randell import (
    MAX_EXPONENTS,
    ExponentVector,
    full_homology,
    kappa,
    orbit_space_rational_homology,
    torsion,
)
from randell_oracle import kappa_oracle, torsion_oracle

ALL = (0, 1, 2, 3)


def test_exponent_vector_rejects_short_input():
    with pytest.raises(ValueError):
        ExponentVector((2, 2))


def test_exponent_vector_rejects_unit_exponents():
    with pytest.raises(ValueError):
        ExponentVector((1, 2, 2, 2))


def test_exponent_vector_refuses_more_than_sixteen_exponents():
    assert len(ExponentVector((2,) * MAX_EXPONENTS)) == MAX_EXPONENTS == 16
    with pytest.raises(ValueError, match="at most 16 exponents"):
        ExponentVector((2,) * 17)


def test_subset_tables_are_built_once_per_vector():
    a = ExponentVector((3, 5, 2, 2))
    assert a.subset_lcm is a.subset_lcm and a.subset_kappa is a.subset_kappa
    assert a.subset_lcm[0b0011] == 15 and a.subset_lcm[0] == 1
    assert a.subset_kappa[0b1100] == kappa(a, (2, 3)) == 1


def test_kappa_examples():
    assert kappa(ExponentVector((4, 2, 2, 2)), ALL) == 1
    assert kappa(ExponentVector((7, 7, 7, 7)), ALL) == 186
    assert kappa(ExponentVector((3, 5, 2, 2)), ALL) == 0


def test_kappa_needs_two_indices():
    with pytest.raises(ValueError):
        kappa(ExponentVector((4, 2, 2, 2)), (1,))


def test_torsion_examples():
    assert torsion(ExponentVector((4, 2, 2, 2))) == ()
    assert torsion(ExponentVector((7, 7, 7, 7))) == ()
    # frozen from the standalone oracle run
    assert torsion(ExponentVector((2, 3, 3, 3, 3))) == (2, 2, 2, 2, 2, 2)


def test_torsion_unit_cotangent_s4():
    # H_3 of the unit cotangent bundle of S^4 is Z/2 (Euler number 2)
    assert torsion(ExponentVector((2, 2, 2, 2, 2))) == (2,)


def test_full_homology_examples():
    rep = full_homology(ExponentVector((4, 2, 2, 2)))
    assert rep.middle_rank == 1
    assert rep.torsion == ()
    assert rep.description == "#_1 (S²×S³)"
    assert rep.full_graded == {0: (1, ()), 2: (1, ()), 3: (1, ()), 5: (1, ())}

    rep = full_homology(ExponentVector((7, 7, 7, 7)))
    assert rep.middle_rank == 186
    assert rep.description == "#_186 (S²×S³)"

    rep = full_homology(ExponentVector((3, 5, 2, 2)))
    assert rep.homotopy_sphere
    assert rep.description == "homotopy sphere"
    assert rep.full_graded == {0: (1, ()), 5: (1, ())}


def test_full_homology_carries_torsion_without_free_part():
    rep = full_homology(ExponentVector((2, 2, 2, 2, 2)))
    assert rep.middle_rank == 0
    assert rep.full_graded[3] == (0, (2,))
    assert not rep.homotopy_sphere
    assert rep.description == "Brieskorn manifold (unclassified)"


def test_orbit_space_homology_examples():
    a = ExponentVector((6, 2, 2, 2))
    small = orbit_space_rational_homology(a, (1, 2, 3))
    assert small.dimension == 2
    assert small.ranks == (1, 0, 1)

    big = orbit_space_rational_homology(a, ALL)
    assert big.dimension == 4
    assert big.ranks == (1, 0, 2, 0, 1)

    principal = orbit_space_rational_homology(ExponentVector((7, 7, 7, 7)), ALL)
    assert principal.ranks == (1, 0, 187, 0, 1)


def test_orbit_space_point_case():
    # two indices: a point orbifold, rank 1 + kappa in degree zero
    h = orbit_space_rational_homology(ExponentVector((3, 5, 2, 2)), (2, 3))
    assert h.dimension == 0
    assert h.ranks == (2,)


def test_orbit_space_odd_middle_degree():
    # the quotient can have positive genus: kappa lands in odd degree
    h = orbit_space_rational_homology(ExponentVector((2, 3, 12, 7)), (0, 1, 2))
    assert h.dimension == 2
    assert h.ranks == (1, 2, 1)


def test_oracle_equivalence_sampled():
    rng = random.Random(5)
    samples = [
        tuple(rng.randint(2, 9) for _ in range(rng.randint(4, 6))) for _ in range(150)
    ]
    for a in samples + [
        (2, 2, 2, 2, 2, 2, 2),
        (3, 3, 3, 3, 3, 3, 3),
        (2, 3, 4, 2, 3, 4, 6),
        (5, 5, 2, 2, 3, 4, 2),
        (2, 3, 2, 3, 2, 3, 2, 3),
        (2, 4, 4, 4, 2, 6, 2, 2),
        (3, 3, 3, 3, 3, 3, 3, 3),
    ]:
        ev = ExponentVector(a)
        support = tuple(range(len(a)))
        assert kappa(ev, support) == kappa_oracle(a, support)
        assert torsion(ev) == torsion_oracle(a)


def test_kappa_closed_form_equal_exponents():
    for k in range(2, 13):
        for s in range(2, 7):
            ev = ExponentVector((k,) * max(s, 4))
            expected = ((k - 1) ** s - (-1) ** s) // k + (-1) ** s
            assert kappa(ev, tuple(range(s))) == expected


def test_torsion_divisibility_chain():
    rng = random.Random(11)
    for _ in range(80):
        a = tuple(rng.randint(2, 12) for _ in range(rng.randint(4, 6)))
        ds = torsion(ExponentVector(a))
        for bigger, smaller in zip(ds, ds[1:]):
            assert bigger % smaller == 0


def test_kappa_nonnegative_on_a_grid():
    for a in itertools.product((2, 3, 4, 5), repeat=4):
        for size in (2, 3, 4):
            for support in itertools.combinations(range(4), size):
                assert kappa(ExponentVector(a), support) >= 0


def eigenvalue_count(exponents):
    """#{k : 0 < k_i < a_i, sum of k_i / a_i an integer}, counted directly.

    Brieskorn's count of the monodromy eigenvalue 1, an independent route
    to kappa: no subset sums, just the tuples k tallied by the residue of
    L * sum k_i / a_i mod L, with L the lcm of the exponents.
    """
    L = math.lcm(*exponents)
    ways = Counter({0: 1})
    for x in exponents:
        extended = Counter()
        for residue, count in ways.items():
            for k in range(1, x):
                extended[(residue + k * (L // x)) % L] += count
        ways = extended
    return ways[0]


def test_kappa_matches_the_eigenvalue_count_on_every_support():
    rng = random.Random(23)
    for _ in range(200):
        a = tuple(rng.randint(2, 7) for _ in range(rng.randint(4, 6)))
        ev = ExponentVector(a)
        for size in range(2, len(a) + 1):
            for support in itertools.combinations(range(len(a)), size):
                assert kappa(ev, support) == eigenvalue_count([a[i] for i in support])


def test_middle_rank_of_eleven_sixes_in_closed_form():
    # ((a-1)^k - (-1)^k)/a + (-1)^k with a = 6, k = 11; a per-subset walk
    # of the 2^11-subset lattice takes minutes
    assert full_homology(ExponentVector((6,) * 11)).middle_rank == 8138020


def seifert_intersection_form(exponents):
    """L + (-1)^n L^T, with L the Kronecker product of one (a-1)x(a-1) matrix
    I - superdiagonal per exponent and n + 1 the number of exponents.

    By Sebastiani-Thom this is the intersection form of the Milnor fibre,
    whose cokernel is the middle homology H_{n-1} of the link: a route to
    kappa and the torsion that shares nothing with the subset lattice.
    """
    L = [[1]]
    for a in exponents:
        block = [[(i == j) - (j == i + 1) for j in range(a - 1)] for i in range(a - 1)]
        L = [[x * y for x in row for y in brow] for row in L for brow in block]
    sign = (-1) ** (len(exponents) - 1)
    return [[L[i][j] + sign * L[j][i] for j in range(len(L))] for i in range(len(L))]


def invariant_factors(matrix):
    """Diagonal of the Smith normal form of a square integer matrix, zeros included."""
    A = [row[:] for row in matrix]
    size = len(A)
    factors = []
    for t in range(size):
        while True:
            nonzero = [(abs(A[i][j]), i, j)
                       for i in range(t, size) for j in range(t, size) if A[i][j]]
            if not nonzero:
                return factors + [0] * (size - t)
            _, i, j = min(nonzero)
            A[t], A[i] = A[i], A[t]
            for row in A:
                row[t], row[j] = row[j], row[t]
            p = A[t][t]
            # Division with remainder clears row and column t, or leaves a
            # remainder smaller than the pivot, which is the next pivot.
            for i in range(t + 1, size):
                q = A[i][t] // p
                if q:
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
            for j in range(t + 1, size):
                q = A[t][j] // p
                if q:
                    for row in A:
                        row[j] -= q * row[t]
            if any(A[i][t] for i in range(t + 1, size)) or any(A[t][t + 1:]):
                continue
            # The pivot must divide everything after it; if it does not,
            # adding the offending row to row t brings that entry into play.
            bad = next((i for i in range(t + 1, size) if any(x % p for x in A[i][t + 1:])), None)
            if bad is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
        factors.append(abs(A[t][t]))
    return factors


def test_invariant_factors_examples():
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[0, 0], [0, 0]]) == [0, 0]
    assert invariant_factors([[2, 4], [6, 8]]) == [2, 4]


def test_rank_and_torsion_match_the_smith_normal_form_of_the_seifert_form():
    rng = random.Random(31)
    vectors = []
    while len(vectors) < 30:
        a = tuple(rng.randint(2, 7) for _ in range(rng.randint(4, 7)))
        if math.prod(x - 1 for x in a) <= 60 and a not in vectors:
            vectors.append(a)
    for a in vectors + [(2, 3, 3, 3, 3), (4, 2, 2, 2), (3, 5, 2, 2), (2, 2, 3, 5, 7)]:
        factors = invariant_factors(seifert_intersection_form(a))
        report = full_homology(ExponentVector(a))
        assert factors.count(0) == report.middle_rank, a
        assert sorted(f for f in factors if f > 1) == sorted(report.torsion), a
