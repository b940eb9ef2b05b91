import random
from fractions import Fraction

import pytest

from brieskorn_ch import maslov, orbits
from brieskorn_ch.contact import ch_report, period_shift
from brieskorn_ch.exact import lcm_set
from brieskorn_ch.maslov import (
    classify_index,
    crosscheck_rows,
    maslov_crosscheck,
    maslov_crosscheck_batch,
    maslov_orbit_space,
    maslov_orbit_space_batch,
    maslov_unitary,
)
from brieskorn_ch.orbits import enumerate_orbit_types, valid_multiplier
from brieskorn_ch.randell import ExponentVector, HomologyInvariantError


def type_with_m(a, m):
    for t in enumerate_orbit_types(a):
        if t.m == m:
            return t
    raise AssertionError(f"no orbit type with m={m}")


def test_unitary_path_examples():
    assert maslov_unitary(Fraction(1)) == 2          # one full turn
    assert maslov_unitary(Fraction(1, 2)) == 1       # half turn
    assert maslov_unitary(Fraction(5, 2)) == 5
    assert maslov_unitary(3) == 6


def test_unitary_path_rejects_nonpositive():
    with pytest.raises(ValueError):
        maslov_unitary(Fraction(0))
    with pytest.raises(ValueError):
        maslov_unitary(Fraction(-1, 2))


def test_unitary_path_refuses_inexact_turns():
    # a float is not an exact angle: 0.1 once read as the binary fraction
    # nearest it and gave index 1
    for turns in (0.1, 1.0, 2.5, True, "1/2"):
        with pytest.raises(ValueError, match="int or a Fraction"):
            maslov_unitary(turns)


def test_orbit_space_index_examples():
    a = ExponentVector((6, 2, 2, 2))
    t = type_with_m(a, 2)
    # 2N + 1 + 2*floor(N/3) for multipliers prime to 3
    assert maslov_orbit_space(a, t, 1) == 3
    assert maslov_orbit_space(a, t, 2) == 5
    assert maslov_orbit_space(a, t, 4) == 11

    b = ExponentVector((7, 7, 7, 7))
    principal = type_with_m(b, 7)
    for N in range(1, 6):
        assert maslov_orbit_space(b, principal, N) == 2 * N * (4 - 7)


def test_orbit_space_index_two_plane_type():
    # (p_1, ..., p_{n-1}, 2, 2) at N=1: all floors vanish, index n-1
    for primes in [(3, 5), (5, 7), (3, 5, 7), (11, 13, 17, 19)]:
        a = ExponentVector(primes + (2, 2))
        t = type_with_m(a, 2)
        assert maslov_orbit_space(a, t, 1) == a.n - 1


def test_orbit_space_index_requires_validity():
    a = ExponentVector((6, 2, 2, 2))
    t = type_with_m(a, 2)
    with pytest.raises(ValueError, match="leaves orbit type"):
        maslov_orbit_space(a, t, 3)


def test_crosscheck_examples():
    a = ExponentVector((6, 2, 2, 2))
    assert maslov_crosscheck(a, type_with_m(a, 2), 1) == 3

    b = ExponentVector((2, 2, 2, 2))
    assert maslov_crosscheck(b, type_with_m(b, 2), 1) == 4

    c = ExponentVector((7, 7, 7, 7))
    assert maslov_crosscheck(c, type_with_m(c, 7), 2) == -12


def test_crosscheck_divergence_for_invalid_multiplier():
    # at N=3 the iterate of the m=2 type is absorbed by the m=6 space;
    # the closed formula and the unitary-path sum then differ exactly by
    # the closed-up rotation at index 0
    a = ExponentVector((6, 2, 2, 2))
    t = type_with_m(a, 2)
    closed_formula = 2 * 3 + 1 + 2 * (3 // 3)
    assert maslov_crosscheck(a, t, 3) == closed_formula - 1


def test_classification_examples():
    pos = classify_index(ExponentVector((2, 2, 2, 2)))
    assert pos.is_positive and pos.reciprocal_sum == 2

    neg = classify_index(ExponentVector((7, 7, 7, 7)))
    assert neg.is_negative and neg.reciprocal_sum == Fraction(4, 7)

    deg = classify_index(ExponentVector((4, 4, 4, 4)))
    assert deg.is_degenerate and deg.reciprocal_sum == 1


def test_crosscheck_identity_on_valid_multipliers():
    rng = random.Random(29)
    for _ in range(80):
        a = tuple(rng.randint(2, 12) for _ in range(rng.randint(4, 5)))
        ev = ExponentVector(a)
        for t in enumerate_orbit_types(ev):
            for N in range(1, 51):
                if valid_multiplier(ev, t, N):
                    assert maslov_orbit_space(ev, t, N) == maslov_crosscheck(ev, t, N)


def test_batched_routes_equal_the_scalar_routes():
    # every type of each vector, N over three of its periods and N <= 0,
    # in one batch: validity as `valid_multiplier` (false where it refuses
    # N < 1), the closed formula as `maslov_orbit_space` where N is valid,
    # and the unitary-path index as `maslov_crosscheck` on every N >= 1,
    # off the closed formula on an invalid N by the exponents outside J
    # that divide N*m, as in the divergence test above
    rng = random.Random(2107)
    checked = 0
    for _ in range(40):
        ev = ExponentVector(tuple(rng.randint(2, 12) for _ in range(rng.randint(4, 8))))
        types, Ns = [], []
        for t in enumerate_orbit_types(ev):
            for N in [*range(-2, 1), *range(1, 3 * ev.lcm() // t.m + 1)]:
                types.append(t)
                Ns.append(N)
        valid, closed = maslov_orbit_space_batch(ev, types, Ns)
        unitary = maslov_crosscheck_batch(ev, types, Ns)
        assert len(valid) == len(closed) == len(unitary) == len(Ns)
        for t, N, ok, index, indirect in zip(types, Ns, valid, closed, unitary):
            if N < 1:
                assert ok is False
                continue
            assert ok is valid_multiplier(ev, t, N)
            assert indirect == maslov_crosscheck(ev, t, N)
            if ok:
                assert index == indirect == maslov_orbit_space(ev, t, N)
            else:
                absorbed = sum(1 for j, x in enumerate(ev) if j not in t.J and not N * t.m % x)
                assert absorbed > 0 and indirect == index - absorbed
        checked += len(Ns)
    assert checked > 10_000


def test_crosscheck_rows_reads_the_batches_alone(monkeypatch):
    # seeded reports of both characters pass whole, and injected rows fail
    # at their first fault (the faults `ch --crosscheck` names on 6 2 2 2),
    # with every scalar route refusing to run
    rng = random.Random(2401)
    reports = {}
    while len(reports) < 60:
        ev = ExponentVector(tuple(rng.randint(2, 9) for _ in range(rng.randint(4, 6))))
        shift = period_shift(ev)
        if ev.reciprocal_sum() != 1 and (shift > 0) == (len(reports) % 2 == 0):
            lo = rng.randint(0, 3) * shift
            reports[ev] = ch_report(ev, (min(lo, lo + 2 * shift), max(lo, lo + 2 * shift)))

    def refuse(*args):
        raise AssertionError("a scalar route ran")

    for module, name in [(orbits, "valid_multiplier"), (maslov, "valid_multiplier"),
                         (maslov, "maslov_orbit_space"), (maslov, "maslov_crosscheck"),
                         (maslov, "_index_formula")]:
        monkeypatch.setattr(module, name, refuse)
    checked = [crosscheck_rows(ev, report.rows) for ev, report in reports.items()]
    assert checked == [len(report.rows) for report in reports.values()]
    assert sum(checked) > 10_000
    a = ExponentVector((6, 2, 2, 2))
    for rows, fault in [
        (((2, 1, 0, 4, 1), (2, 3, 0, 8, 1)),
         "degree 4 at m=2, N=1, j=0 puts the index at 5, both routes give 3"),
        (((2, 3, 0, 8, 1), (2, 1, 0, 4, 1)), "row at m=2, N=3 is not an iterate of an orbit type"),
        (((2, 1, 0, 2, 1), (6, 1, 2, 10, 2), (2, 2, 0, 6, 1)),
         "degree 10 at m=6, N=1, j=2 puts the index at 10, both routes give 8"),
        (((2, 1, 0, 2, 1), (4, 1, 0, 4, 1)), "row at m=4, N=1 is not an iterate of an orbit type"),
    ]:
        with pytest.raises(HomologyInvariantError) as caught:
            crosscheck_rows(a, rows)
        assert str(caught.value) == fault
    assert crosscheck_rows(a, ()) == 0


def test_index_parity_matches_complement_size():
    rng = random.Random(31)
    for _ in range(60):
        a = tuple(rng.randint(2, 12) for _ in range(rng.randint(4, 6)))
        ev = ExponentVector(a)
        for t in enumerate_orbit_types(ev):
            for N in range(1, 25):
                if valid_multiplier(ev, t, N):
                    mu = maslov_orbit_space(ev, t, N)
                    assert mu % 2 == (len(a) - len(t.J)) % 2


def test_linear_growth_bound():
    rng = random.Random(37)
    for _ in range(60):
        a = tuple(rng.randint(2, 9) for _ in range(rng.randint(4, 5)))
        ev = ExponentVector(a)
        sigma = ev.reciprocal_sum()
        if sigma == 1:
            continue
        for t in enumerate_orbit_types(ev):
            for N in range(1, 40):
                if not valid_multiplier(ev, t, N):
                    continue
                mu = maslov_orbit_space(ev, t, N)
                if sigma > 1:
                    assert mu > 2 * N * t.m * (sigma - 1) - len(a)
                else:
                    assert mu < 2 * N * t.m * (sigma - 1) + len(a)


def test_periodic_shift():
    rng = random.Random(41)
    for _ in range(50):
        a = tuple(rng.randint(2, 10) for _ in range(rng.randint(4, 5)))
        ev = ExponentVector(a)
        L = lcm_set(a)
        shift = 2 * sum(L // x for x in a) - 2 * L
        for t in enumerate_orbit_types(ev):
            step = L // t.m
            for N in range(1, 2 * step + 1):
                if valid_multiplier(ev, t, N):
                    assert (
                        maslov_orbit_space(ev, t, N + step)
                        == maslov_orbit_space(ev, t, N) + shift
                    )
