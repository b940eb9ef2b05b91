import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from brieskorn_ch import randell
from brieskorn_ch.randell import (
    MAX_EXPONENTS,
    ExponentVector,
    HomologyInvariantError,
    HomologyReport,
    closed_kappa,
    divisor_product,
    full_homology,
    kappa,
    orbit_space_rational_homology,
    torsion,
    type_times,
)
from brieskorn_ch.cli import main
from brieskorn_ch.orbits import enumerate_orbit_types
from randell_oracle import (
    c_oracle,
    c_prime_power_oracle,
    kappa_oracle,
    powerset,
    torsion_oracle,
)

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


def test_closure_is_the_set_of_subset_lcms_and_gcds():
    # Every gcd and lcm the closure reaches is that of some index subset,
    # and every subset's is reached; repeated entries share their values.
    a = ExponentVector((3, 5, 2, 2))
    assert a.lcm() == 30 and kappa(a, (2, 3)) == 1
    rng = random.Random(47)
    entries = (2, 3, 4, 6, 8, 9, 12)
    vectors = [a.a, (12, 8, 18, 6, 9)] + [
        tuple(rng.choice(entries) for _ in range(rng.randint(4, 9))) for _ in range(40)
    ]
    for b in vectors:
        masks = range(1 << len(b))
        for op, empty in ((math.gcd, 0), (math.lcm, 1)):
            expected = {op(empty, *(x for i, x in enumerate(b) if mask >> i & 1)) for mask in masks}
            assert randell._closure(b, op, empty) == expected, (b, op)


def random_vectors(seed, count, sizes=(4, 10), entries=(2, 60)):
    rng = random.Random(seed)
    return [tuple(rng.randint(*entries) for _ in range(rng.randint(*sizes))) for _ in range(count)]


def test_orbit_types_and_their_kappas_come_from_one_product():
    # The product's lcms are the subset lcms, and the types are those whose
    # divisor set J has two or more indices; each type's kappa, a divisor
    # sum over the product, is kappa(J) by the ring and by the oracle's
    # alternating sum over the subsets of J.
    for a in random_vectors(2027, 24) + [(2,) * 16, (2, 3, 5, 7, 11, 13), (6, 10, 15, 30)]:
        ev = ExponentVector(a)
        lcms, _ = divisor_product(ev)
        assert list(lcms) == sorted(randell._closure(a, math.lcm, 1)), a
        types = {m: tuple(j for j, x in enumerate(a) if m % x == 0) for m in lcms}
        types = {m: J for m, J in types.items() if len(J) >= 2}
        assert [(t.m, t.J) for t in enumerate_orbit_types(ev)] == list(types.items()), a
        kappas = every_type_kappa(ev)
        assert list(kappas) == list(types), a
        for m, J in types.items():
            assert kappas[m] == kappa(ev, J) == kappa_oracle(a, J), (a, J)


def every_type_kappa(ev):
    """`closed_kappa` of every orbit type's time, {m: kappa(J_m)}."""
    return {m: closed_kappa(ev, m) for m in type_times(ev)}


def test_a_corrupted_product_coefficient_is_refused_as_a_negative_kappa():
    # Lowering the coefficient on lcm(a) by kappa(a) + 1 leaves every other
    # type's divisor sum alone and drives the principal type's kappa, the
    # middle rank, to -1.
    for a in [(3, 5, 2, 2), (4, 2, 2, 2)] + random_vectors(2028, 8):
        ev = ExponentVector(a)
        lcms, coefficients = divisor_product(ev)
        full = kappa(ev, range(len(a)))
        ev.derived["divisor product"] = (lcms, coefficients[:-1] + (coefficients[-1] - full - 1,))
        support = re.escape(str(tuple(range(len(a)))))
        for read in (every_type_kappa, full_homology):
            with pytest.raises(HomologyInvariantError,
                               match=f"negative kappa on the support {support} of"):
                read(ev)
    # Raising it on lcm 2 of (4, 2, 2, 2) drives kappa(1, 2, 3) = 0, which
    # torsion reads off the coefficients on lcms 1 and 2 (K = {0}, g = 4), to -1.
    ev = ExponentVector((4, 2, 2, 2))
    lcms, (one, two, four) = divisor_product(ev)
    assert lcms == (1, 2, 4)
    ev.derived["divisor product"] = (lcms, (one, two + 1, four))
    with pytest.raises(HomologyInvariantError, match=r"negative kappa on the support \(1, 2, 3\) of"):
        full_homology(ev)


def test_every_support_torsion_reads_is_closed_and_read_off_the_product():
    # C(S) > 1 on an odd complement K forces S = J_m, m = lcm(a_S): an a_i in
    # K dividing m would make g = gcd(a_K) divide m, and C(S) = g / gcd(g, m)
    # = 1.  Its kappa is then minus the product's coefficient sum on the lcms
    # dividing m, which `closed_kappa` reads at m, also where |S| <= 1 (m = 1
    # on (2, 2, 2, 2, 2), or a single exponent).  C(S) comes from the prime-power oracle, not
    # from `torsion`.  The middle rank is `closed_kappa` at m = lcm(a).
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    vectors = random_vectors(2029, 40, sizes=(4, 12))
    read = []
    for a in vectors + [primes, (2,) * 16, (6, 10, 15, 30, 2, 3), (2, 2, 2, 2, 2)]:
        ev = ExponentVector(a)
        lcms, coefficients = divisor_product(ev)
        for S, c in c_prime_power_oracle(a).items():
            if c == 1 or (len(a) - len(S)) % 2 == 0:
                continue
            m = math.lcm(*(a[j] for j in S))
            assert S == tuple(j for j, x in enumerate(a) if m % x == 0), (a, S)
            level = -sum(coefficient for l, coefficient in zip(lcms, coefficients) if m % l == 0)
            assert level == kappa_oracle(a, S) == closed_kappa(ev, m), (a, S)
            if len(S) >= 2:
                assert level == kappa(ev, S), (a, S)
            read.append(len(S))
        assert closed_kappa(ev, ev.lcm()) == kappa_oracle(a, range(len(a))), a
    assert len(read) >= 40 and {0, 1} <= set(read), read


def test_reciprocal_sum_equals_the_unit_fraction_sum():
    for a in random_vectors(2029, 200, sizes=(4, 16), entries=(2, 400)) + [(2, 3, 7, 42), (2,) * 16]:
        expected = sum((Fraction(1, x) for x in a), Fraction(0))
        got = ExponentVector(a).reciprocal_sum()
        assert got == expected and type(got) is Fraction
        assert (str(got), got.numerator, got.denominator) == (
            str(expected), expected.numerator, expected.denominator)


def test_kappa_examples():
    assert kappa(ExponentVector((4, 2, 2, 2)), ALL) == 1
    assert kappa(ExponentVector((7, 7, 7, 7)), ALL) == 186
    assert kappa(ExponentVector((3, 5, 2, 2)), ALL) == 0


def test_kappa_needs_two_indices():
    with pytest.raises(ValueError):
        kappa(ExponentVector((4, 2, 2, 2)), (1,))


def test_kappa_support_door():
    a = ExponentVector((6, 2, 2, 2))
    outside = "support must be a subset of the exponent indices"
    for f in (kappa, orbit_space_rational_homology):
        with pytest.raises(ValueError, match="support needs at least two indices"):
            f(a, (0,))
        for bad in ((1, 1), (0, 4), (-1, 0)):
            with pytest.raises(ValueError, match=outside):
                f(a, bad)
    b = ExponentVector((2, 3, 12, 7))
    assert kappa(b, [3, 1, 2]) == kappa(b, (3, 1, 2)) == kappa(b, (1, 2, 3))


def test_torsion_examples():
    assert torsion(ExponentVector((4, 2, 2, 2))) == ()
    assert torsion(ExponentVector((7, 7, 7, 7))) == ()
    # frozen from the standalone oracle run
    assert torsion(ExponentVector((2, 3, 3, 3, 3))) == (2, 2, 2, 2, 2, 2)


def test_torsion_longer_than_the_limit_is_refused_by_its_runs(monkeypatch):
    # (2, 3, 3, 3, 3) has six factors Z/2, one run
    a = ExponentVector((2, 3, 3, 3, 3))
    monkeypatch.setattr(randell, "MAX_TORSION_FACTORS", 6)
    assert torsion(a) == (2,) * 6
    monkeypatch.setattr(randell, "MAX_TORSION_FACTORS", 5)
    with pytest.raises(ValueError, match=r"^torsion \(Z/2\)\^6 has more than 5 cyclic factors"):
        torsion(a)
    # (2, 3, 4, 2, 3, 4, 6) has torsion (6, 6, 3): two runs, both named
    monkeypatch.setattr(randell, "MAX_TORSION_FACTORS", 2)
    with pytest.raises(ValueError, match=r"^torsion \(Z/6\)\^2 \+ \(Z/3\)\^1 has more than 2 "):
        torsion(ExponentVector((2, 3, 4, 2, 3, 4, 6)))


def test_negative_kappa_is_refused_wherever_it_is_read(monkeypatch):
    # With every gcd read as -1, Lambda_1 Lambda_x = -Lambda_{-x}: r twos
    # multiply in as s + t Lambda_2 (s = (-1)^r, t = (1 - s) / 2) and sum to
    # s - t, which is 1 for r = 2 and -2, a negative kappa, for odd r
    broken = type(math)("math")
    broken.__dict__.update(math.__dict__, gcd=lambda *args: -1)
    monkeypatch.setattr(randell, "math", broken)
    a = ExponentVector((2, 2, 2, 2, 2))
    assert kappa(a, (0, 1)) == 1
    with pytest.raises(HomologyInvariantError, match=r"negative kappa on the support \(0, 1, 2\)"):
        kappa(a, (0, 1, 2))
    with pytest.raises(HomologyInvariantError, match="negative kappa"):
        full_homology(a)
    with pytest.raises(HomologyInvariantError, match=r"negative kappa on the support \(0, 1, 2, 3, 4\)"):
        every_type_kappa(a)
    assert main(["ch", "2", "2", "2", "2", "2", "--window", "0:4"]) == 5


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


def brieskorn_graph_sphere(a) -> bool:
    """Brieskorn's graph criterion (Invent. Math. 2, 1966): join a_i and a_j
    when gcd(a_i, a_j) > 1; the link is a homology sphere exactly when two
    exponents are isolated, or one is and some component has an odd number
    of exponents whose pairwise gcds are all 2."""
    k = len(a)
    components = []  # index sets of the components of the gcd > 1 graph
    for i in range(k):
        touching = [c for c in components if any(math.gcd(a[i], a[j]) > 1 for j in c)]
        merged = {i}.union(*touching)
        components = [c for c in components if c not in touching] + [merged]
    isolated = sum(len(c) == 1 for c in components)
    return isolated >= 2 or isolated == 1 and any(
        len(c) % 2 == 1 and all(math.gcd(a[i], a[j]) == 2 for i, j in itertools.combinations(c, 2))
        for c in components if len(c) > 1
    )


def test_homotopy_sphere_follows_brieskorn_graph_criterion():
    # every exponent vector with 4 to 6 entries from 2 to 12 (n >= 3, so a
    # homology sphere is simply connected and a homotopy sphere)
    spheres = 0
    for k in (4, 5, 6):
        for a in itertools.combinations_with_replacement(range(2, 13), k):
            expected = brieskorn_graph_sphere(a)
            assert full_homology(ExponentVector(a)).homotopy_sphere == expected, a
            spheres += expected
    assert spheres == 2673


def test_full_homology_carries_torsion_without_free_part():
    rep = full_homology(ExponentVector((2, 2, 2, 2, 2)))
    assert rep.middle_rank == 0
    assert rep.full_graded[3] == (0, (2,))
    assert not rep.homotopy_sphere
    assert rep.description == "Brieskorn manifold (unclassified)"


def test_orbit_space_homology_examples():
    a = ExponentVector((6, 2, 2, 2))
    small = orbit_space_rational_homology(a, (1, 2, 3))
    assert len(small) - 1 == 2
    assert small == (1, 0, 1)

    big = orbit_space_rational_homology(a, ALL)
    assert len(big) - 1 == 4
    assert big == (1, 0, 2, 0, 1)

    principal = orbit_space_rational_homology(ExponentVector((7, 7, 7, 7)), ALL)
    assert principal == (1, 0, 187, 0, 1)


def test_orbit_space_point_case():
    # two indices: a point orbifold, rank 1 + kappa in degree zero
    h = orbit_space_rational_homology(ExponentVector((3, 5, 2, 2)), (2, 3))
    assert len(h) - 1 == 0
    assert h == (2,)


def test_orbit_space_odd_middle_degree():
    # the quotient can have positive genus: kappa lands in odd degree
    h = orbit_space_rational_homology(ExponentVector((2, 3, 12, 7)), (0, 1, 2))
    assert len(h) - 1 == 2
    assert h == (1, 2, 1)


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

    # Repeated entries, which the divisor product multiplies in once per
    # distinct value: up to three values x <= 12, each met up to 8 times,
    # up to 16 exponents.  The torsion oracle walks its kappas one by one,
    # so it checks only the short vectors whose kappas stay small.
    repeated = [(2,) * 8 + (12,) * 8, (3,) * 8 + (4,) * 8]
    while len(repeated) < 24:
        values = rng.sample(range(2, 13), rng.randint(1, 3))
        a = tuple(x for x in values for _ in range(rng.randint(1, 8)))
        if 4 <= len(a) <= (16 if len(repeated) < 4 else 8):
            repeated.append(a)
    torsions = 0
    for a in repeated:
        ev = ExponentVector(a)
        support = tuple(sorted(rng.sample(range(len(a)), rng.randint(2, len(a)))))
        assert kappa(ev, range(len(a))) == kappa_oracle(a, range(len(a))), a
        assert kappa(ev, support) == kappa_oracle(a, support), (a, support)
        odd = [S for S in powerset(range(len(a))) if (len(a) - len(S)) % 2]
        if len(a) <= 8 and max(kappa_oracle(a, S) for S in odd) <= 2000:
            assert torsion(ev) == torsion_oracle(a), a
            torsions += 1
    assert torsions >= 8


def test_kappa_closed_form_equal_exponents():
    for k in range(2, 17):
        for s in [*range(2, 7), *range(11, 17)]:
            ev = ExponentVector((k,) * max(s, 4))
            expected = ((k - 1) ** s - (-1) ** s) // k + (-1) ** s
            assert kappa(ev, tuple(range(s))) == expected


def test_torsion_matches_both_oracles_where_exponents_share_prime_powers():
    # The closed-form C(S) is most at risk where several exponents share
    # higher powers of 2 and 3; entries 2-9 rarely do.  The torsion tuple
    # is as long as the largest odd-complement kappa, so big ones are skipped.
    def too_large(ev):
        k = len(ev)
        return any(kappa(ev, S) > 20_000 for size in range(2, k) if (k - size) % 2
                   for S in itertools.combinations(range(k), size))

    rng = random.Random(41)
    entries = (4, 8, 9, 12, 16, 18, 24, 27, 36)
    checked = 0
    while checked < 50:
        a = tuple(rng.choice(entries) for _ in range(rng.randint(4, 7)))
        ev = ExponentVector(a)
        if too_large(ev):
            continue
        assert torsion(ev) == torsion_oracle(a), a
        assert c_prime_power_oracle(a) == c_oracle(a), a
        checked += 1
    # Eight to ten exponents, under the same cap: with these entries alone
    # nine or ten of them almost never stay under it, so 2 and 3 join them.
    for k in (8, 9, 10):
        checked = 0
        while checked < 2:
            a = tuple(rng.choice(entries + (2, 3)) for _ in range(k))
            ev = ExponentVector(a)
            if too_large(ev):
                continue
            assert torsion(ev) == torsion_oracle(a), a
            assert c_prime_power_oracle(a) == c_oracle(a), a
            checked += 1


def test_torsion_factors_sit_on_closed_complements():
    # C(S) > 1 needs the complement K of S to be closed: K = {i : g | a_i}
    # for g = gcd(a_K).  On every other proper S the recursion gives 1.
    rng = random.Random(43)
    entries = (2, 3, 4, 6, 8, 9, 12, 16, 27)
    for _ in range(40):
        a = tuple(rng.choice(entries) for _ in range(rng.randint(4, 9)))
        full = range(len(a))
        gcds = {math.gcd(*(a[i] for i in sub)) for sub in powerset(full) if sub}
        closed = {tuple(i for i in full if a[i] % g == 0) for g in gcds if g > 1}
        for sub, c in c_oracle(a).items():
            if tuple(i for i in full if i not in sub) not in closed:
                assert c == 1, (a, sub)


def test_full_homology_does_no_rational_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction used")

    monkeypatch.setattr(randell, "Fraction", refuse)
    a = ExponentVector((2, 3, 4, 2, 3, 4, 6))
    assert full_homology(a) == HomologyReport(
        exponents=a,
        middle_rank=14,
        torsion=(6, 6, 3),
        full_graded={0: (1, ()), 5: (14, (6, 6, 3)), 6: (14, ()), 11: (1, ())},
        homotopy_sphere=False,
        description="Brieskorn manifold (unclassified)",
    )
    a = ExponentVector((2, 2, 3, 3, 4, 2, 6, 2, 3))
    assert full_homology(a) == HomologyReport(
        exponents=a,
        middle_rank=8,
        torsion=(2,) * 6,
        full_graded={0: (1, ()), 7: (8, (2,) * 6), 8: (8, ()), 15: (1, ())},
        homotopy_sphere=False,
        description="Brieskorn manifold (unclassified)",
    )


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
