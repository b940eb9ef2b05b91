import dataclasses
import itertools
import json
from functools import reduce
from pathlib import Path

import pytest

from brieskorn_ch import connected_sum
from brieskorn_ch.connected_sum import (
    GeneratorCounts,
    SpecialSphereVerdict,
    beta,
    check_primes,
    combine,
    find_special_primes,
    iterated_sphere_sum,
    special_sphere_check,
    sphere_exponents,
)
from brieskorn_ch.contact import GradedRanks, ch_report, ranks_up_to
from brieskorn_ch.randell import full_homology

GOLDEN = Path(__file__).parent / "golden"


def empty_counts(n=3, cutoff=9):
    return GeneratorCounts(counts={}, cutoff=cutoff, half_dim_n=n)


def test_beta_examples():
    assert beta(3, 3) == 1
    assert beta(3, 4) == 0
    assert beta(3, 1) == 0
    assert [j for j in range(20) if beta(4, j)] == [5, 7, 9, 11, 13, 15, 17, 19]


def test_combine_of_empty_counts_is_the_tube_ladder():
    total = combine(empty_counts(), empty_counts())
    assert total.counts == {3: 1, 5: 1, 7: 1, 9: 1}
    assert total.cutoff == 9
    assert total.half_dim_n == 3


def test_combine_adds_tube_generators_only_in_odd_high_degrees():
    x = GeneratorCounts(counts={2: 5, 4: 1, 6: 2}, cutoff=9, half_dim_n=3)
    total = combine(x, empty_counts())
    for degree in (2, 4, 6):
        assert total[degree] == x[degree]
    for degree in (3, 5, 7, 9):
        assert total[degree] == x[degree] + 1


def test_combine_is_commutative_and_associative():
    x = GeneratorCounts(counts={2: 1, 3: 4}, cutoff=11, half_dim_n=3)
    y = GeneratorCounts(counts={2: 2, 8: 1}, cutoff=9, half_dim_n=3)
    z = GeneratorCounts(counts={5: 3}, cutoff=13, half_dim_n=3)
    assert combine(x, y) == combine(y, x)
    assert combine(combine(x, y), z) == combine(x, combine(y, z))


def test_combine_truncates_to_the_weaker_cutoff():
    x = GeneratorCounts(counts={2: 1, 10: 7}, cutoff=12, half_dim_n=3)
    y = GeneratorCounts(counts={}, cutoff=5, half_dim_n=3)
    total = combine(x, y)
    assert total.cutoff == 5
    assert total.counts == {2: 1, 3: 1, 5: 1}


def test_combine_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        combine(empty_counts(n=3), empty_counts(n=4))


def test_counts_reject_entries_above_cutoff():
    with pytest.raises(ValueError):
        GeneratorCounts(counts={10: 1}, cutoff=9, half_dim_n=3)
    with pytest.raises(ValueError):
        GeneratorCounts(counts={2: 0}, cutoff=9, half_dim_n=3)
    with pytest.raises(ValueError, match="half-dimension"):
        GeneratorCounts(counts={}, cutoff=9, half_dim_n=2)


def test_iterated_sum_examples():
    sphere = GeneratorCounts(counts={6: 2}, cutoff=9, half_dim_n=5)
    total = iterated_sphere_sum(sphere, 3)
    assert total[6] == 6
    assert total[7] == 2

    assert iterated_sphere_sum(sphere, 1) == sphere

    ladder = iterated_sphere_sum(empty_counts(), 2)
    assert ladder.counts == {3: 1, 5: 1, 7: 1, 9: 1}


def test_iterated_sum_is_additive_below_the_tube_degrees():
    # n=4: the tube starts at degree 5, so 2 and 4 accumulate linearly
    sphere = GeneratorCounts(counts={2: 3, 4: 1}, cutoff=9, half_dim_n=4)
    for r in range(1, 8):
        total = iterated_sphere_sum(sphere, r)
        assert total[2] == 3 * r
        assert total[4] == r


def test_self_sum_equals_a_left_fold():
    # the closed form is the running fold of `combine`, also with even
    # degrees above the first tube degree 2n-3
    samples = [
        GeneratorCounts(counts={2: 3, 4: 1, 6: 2, 8: 5}, cutoff=11, half_dim_n=4),
        GeneratorCounts(counts={1: 1, 2: 2, 3: 1, 4: 7, 8: 1}, cutoff=9, half_dim_n=3),
        GeneratorCounts(counts={4: 2, 10: 1}, cutoff=10, half_dim_n=4),
        empty_counts(),
    ]
    for sphere in samples:
        for r in range(1, 71):
            assert iterated_sphere_sum(sphere, r) == reduce(combine, [sphere] * r), (sphere, r)


def test_a_million_copies_take_no_combine(monkeypatch):
    calls = []
    original = connected_sum.combine

    def counting(c1, c2):
        calls.append(None)
        return original(c1, c2)

    monkeypatch.setattr(connected_sum, "combine", counting)
    sphere = GeneratorCounts(counts={4: 2}, cutoff=9, half_dim_n=4)
    for r in (10**6, 10**18):
        total = iterated_sphere_sum(sphere, r)
        assert total.counts == {4: 2 * r, 5: r - 1, 7: r - 1, 9: r - 1}
    assert calls == []


def test_sphere_exponents_validation():
    assert tuple(sphere_exponents((3, 5))) == (3, 5, 2, 2)
    with pytest.raises(ValueError):
        sphere_exponents((3,))
    for primes in [(4, 5), (9, 5), (3, 15)]:
        with pytest.raises(ValueError, match="odd primes"):
            sphere_exponents(primes)


# Strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up
# to 23: composites that fewer bases would pass as prime.
@pytest.mark.parametrize("composite", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_refused(composite):
    with pytest.raises(ValueError, match="odd primes"):
        sphere_exponents((3, composite))


def test_large_primes_cost_one_modular_power_per_base(monkeypatch):
    # 2^61 - 1 is prime; trial division would need about 7.6e8 steps for it
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(connected_sum, "pow", counting, raising=False)
    mersenne = 2**61 - 1
    assert tuple(sphere_exponents((3, mersenne))) == (3, mersenne, 2, 2)
    assert 0 < len(calls) <= 2 * 13


def test_odd_primes_below_20000_match_a_sieve():
    # A prime p = 3 mod 4 takes no squaring; 53, 61 and 73, the first
    # p = 1 mod 4 past the bases, reach p - 1 only after one.
    bound = 20_000
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    odd_primes = [p for p in range(3, bound) if sieve[p]]
    assert [p for p in range(bound) if connected_sum._is_odd_prime(p)] == odd_primes


def test_entries_beyond_the_exact_primality_bound_are_refused():
    assert connected_sum.PRIME_BOUND == 3_317_044_064_679_887_385_961_981
    with pytest.raises(ValueError, match="primes must be below"):
        sphere_exponents((3, 2**89 - 1))  # prime, but above the bound


def test_special_sphere_check_first_passing_pair():
    verdict = check_primes((3, 5))
    assert verdict.passed
    assert verdict.low_degree_rank >= 2
    assert verdict.tube_degree_rank == 0
    assert verdict.ranks_below == ()
    assert verdict.failing_clauses() == ()


def test_special_sphere_check_small_pair_fails_on_topology():
    verdict = check_primes((3, 3))
    assert not verdict.passed
    assert verdict.failing_clauses() == ("not a homotopy sphere",)
    # every analytic clause still holds for (3,3)
    assert verdict.low_degree_rank >= 2
    assert verdict.tube_degree_rank == 0
    assert verdict.well_defined and verdict.index_positive


PASSING_VERDICT = SpecialSphereVerdict(
    primes=(3, 5), is_homotopy_sphere=True, low_degree_rank=2, tube_degree_rank=0,
    ranks_below=(), well_defined=True, index_positive=True,
)


@pytest.mark.parametrize("change, clause", [
    ({"is_homotopy_sphere": False}, "not a homotopy sphere"),
    ({"low_degree_rank": 1}, "fewer than two generators in degree 2n-4"),
    ({"tube_degree_rank": 3}, "generators present in degree 2n-3"),
    ({"ranks_below": ((0, 1),)}, "generators below degree 2n-4"),
    ({"well_defined": False}, "homology not well defined or not index-positive"),
    ({"index_positive": False}, "homology not well defined or not index-positive"),
], ids=["sphere", "low-degree", "tube-degree", "below", "well-defined", "index-positive"])
def test_each_failing_clause_is_named_alone(change, clause):
    assert PASSING_VERDICT.failing_clauses() == ()
    verdict = dataclasses.replace(PASSING_VERDICT, **change)
    assert not verdict.passed
    assert verdict.failing_clauses() == (clause,)


def test_the_audit_reads_the_report_as_the_homology_and_a_global_scan_would():
    # the sphere clause against the whole homology, the clause below 2n-4
    # against a scan of every degree up to 2n-5, on three windows: the
    # default, one from degree 2 (gate and window meet) and the narrowest,
    # which starts above 2 from n = 4 on and so leaves a gap to scan
    primes = [p for p in range(3, 32) if all(p % q for q in range(2, p))]
    gaps = 0
    for size in (2, 3, 4):
        for chosen in itertools.combinations_with_replacement(primes, size):
            a = sphere_exponents(chosen)
            n = a.n
            sphere = full_homology(a).homotopy_sphere
            below = tuple(ranks_up_to(a, 2 * n - 5).items())
            for window in ((0, 2 * n - 2), (2, 2 * n - 3), (2 * n - 4, 2 * n - 3)):
                verdict = special_sphere_check(chosen, ch_report(a, window))
                assert verdict.is_homotopy_sphere == sphere, (chosen, window)
                assert verdict.ranks_below == below, (chosen, window)
            gaps += 2 * n - 4 > 2
    assert gaps == 220 + 715


def test_the_clause_below_reads_the_gate_the_window_and_the_gap(monkeypatch):
    # no real sphere has a generator below 2n-4, so each source is fed one:
    # the gate's ranks, the window's up to 2n-5 and, for a window starting
    # above degree 2, the scan of the gap below it
    primes = (3, 5, 7)  # n = 4: the clause reads degrees up to 3
    a = sphere_exponents(primes)
    gap_scans = []

    def gap(vector, hi):
        gap_scans.append(hi)
        return GradedRanks(ranks={2: 5}, window=(-1, hi))

    monkeypatch.setattr(connected_sum, "ranks_up_to", gap)
    report = ch_report(a, (0, 6))
    fed = dataclasses.replace(report, gate_ranks=((-1, 1), (1, 2)), ranks=GradedRanks(
        ranks={**report.ranks.ranks, 3: 4}, window=report.ranks.window))
    verdict = special_sphere_check(primes, fed)
    assert verdict.ranks_below == ((-1, 1), (1, 2), (3, 4))
    assert verdict.failing_clauses() == ("generators below degree 2n-4",)
    assert gap_scans == []

    narrow = dataclasses.replace(ch_report(a, (4, 5)), gate_ranks=((0, 1),))
    assert special_sphere_check(primes, narrow).ranks_below == ((0, 1), (2, 5))
    assert gap_scans == [3]


def test_special_sphere_check_validates_report():
    report = ch_report(sphere_exponents((3, 5)), (0, 4))
    with pytest.raises(ValueError):
        special_sphere_check((3, 7), report)


def test_find_special_primes_golden():
    golden = json.loads((GOLDEN / "randell_and_primes.json").read_text())
    assert find_special_primes(3, 50) == tuple(golden["special_primes_n3_bound50"])
    assert find_special_primes(4, 50) == tuple(golden["special_primes_n4_bound50"])


def test_find_special_primes_tight_bound():
    # the only candidate tuple at bound 3 is (3, 3), which fails
    assert find_special_primes(3, 3) is None
