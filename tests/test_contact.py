import random

import pytest

from brieskorn_ch import contact
from brieskorn_ch.contact import (
    Contribution,
    DegenerateContactFormError,
    ch_ranks,
    ch_report,
    generator_degree,
    period_shift,
    ranks_up_to,
    sufficient_negativity_check,
)
from brieskorn_ch.maslov import classify_index
from brieskorn_ch.orbits import enumerate_orbit_types, valid_multiplier
from brieskorn_ch.randell import ExponentVector, orbit_space_rational_homology


def type_with_m(a, m):
    for t in enumerate_orbit_types(a):
        if t.m == m:
            return t
    raise AssertionError(f"no orbit type with m={m}")


def test_generator_degree_examples():
    a = ExponentVector((6, 2, 2, 2))
    assert generator_degree(a, type_with_m(a, 2), 1, 0) == 2

    b = ExponentVector((7, 7, 7, 7))
    assert generator_degree(b, type_with_m(b, 7), 1, 0) == -8

    c = ExponentVector((2, 2, 2, 2))
    assert generator_degree(c, type_with_m(c, 2), 1, 2) == 4


def test_generator_degree_preconditions():
    a = ExponentVector((6, 2, 2, 2))
    t = type_with_m(a, 2)
    with pytest.raises(ValueError):
        generator_degree(a, t, 3, 0)  # iterate leaves the type
    with pytest.raises(ValueError):
        generator_degree(a, t, 1, 5)  # beyond the orbit space dimension


def test_ch_ranks_golden_positive():
    ranks = ch_ranks(ExponentVector((6, 2, 2, 2)), (0, 12))
    assert dict(ranks.items()) == {2: 1, 4: 2, 6: 2, 8: 2, 10: 2, 12: 2}


def test_ch_ranks_golden_negative():
    ranks = ch_ranks(ExponentVector((7, 7, 7, 7)), (-9, -2))
    assert dict(ranks.items()) == {-8: 1, -6: 187, -4: 1}
    # the next multiplier's top class sits exactly at degree -10
    wider = ch_ranks(ExponentVector((7, 7, 7, 7)), (-10, -2))
    assert dict(wider.items()) == {-10: 1, -8: 1, -6: 187, -4: 1}


def test_ch_ranks_single_type_family():
    ranks = ch_ranks(ExponentVector((2, 2, 2, 2)), (0, 8))
    assert dict(ranks.items()) == {2: 1, 4: 2, 6: 2, 8: 2}


def test_degenerate_is_an_error():
    with pytest.raises(DegenerateContactFormError):
        ch_ranks(ExponentVector((4, 4, 4, 4)), (0, 10))
    with pytest.raises(DegenerateContactFormError):
        ch_report(ExponentVector((2, 6, 6, 6)), (0, 10))


def test_report_refuses_an_inverted_window():
    # argparse refuses LO > HI, so the CLI never reaches this refusal
    with pytest.raises(ValueError, match="window must satisfy lo <= hi"):
        ch_report(ExponentVector((6, 2, 2, 2)), (5, 3))


def test_report_period_data():
    report = ch_report(ExponentVector((6, 2, 2, 2)), (0, 12))
    assert report.period_shift == 8
    assert report.period_multipliers == {2: 3, 6: 1}
    assert report.well_defined

    report = ch_report(ExponentVector((7, 7, 7, 7)), (-10, -2))
    assert report.period_shift == -6
    assert report.period_multipliers == {7: 1}
    assert report.well_defined


def test_report_contributions_are_ordered_and_account_for_ranks():
    report = ch_report(ExponentVector((6, 2, 2, 2)), (0, 12))
    keys = [(c.m, c.N, c.j) for c in report.contributions]
    assert keys == sorted(keys)
    totals = {}
    for c in report.contributions:
        totals[c.degree] = totals.get(c.degree, 0) + c.count
    assert totals == dict(report.ranks.items())


def test_window_monotonicity():
    a = ExponentVector((6, 2, 2, 2))
    wide = ch_ranks(a, (-4, 30))
    for lo, hi in [(0, 12), (2, 2), (5, 17), (-4, 1)]:
        narrow = ch_ranks(a, (lo, hi))
        assert dict(narrow.items()) == {
            d: k for d, k in wide.items() if lo <= d <= hi
        }


def test_same_homology_across_the_double_exponent_family():
    window = (0, 14)
    base = dict(ch_ranks(ExponentVector((2, 2, 2, 2)), window).items())
    for l in range(2, 8):
        assert dict(ch_ranks(ExponentVector((2 * l, 2, 2, 2)), window).items()) == base


def test_odd_middle_homology_is_reported_not_hidden():
    # the m=12 type has a three-element divisor set with positive genus
    # quotient; its middle classes land in odd degrees and the gate sees
    # the degree-1 generators
    report = ch_report(ExponentVector((2, 3, 12, 7)), (0, 8))
    assert report.ranks[1] == 2
    assert not report.well_defined


def test_ranks_up_to_covers_all_low_degrees():
    a = ExponentVector((3, 5, 2, 2))
    low = ranks_up_to(a, 1)
    assert dict(low.items()) == {}
    floor = ranks_up_to(a, 2)
    assert dict(floor.items()) == {2: 2}


def test_ranks_up_to_needs_index_positivity():
    with pytest.raises(ValueError):
        ranks_up_to(ExponentVector((7, 7, 7, 7)), 0)


def test_periodicity_three_blocks():
    rng = random.Random(20260810)
    found = 0
    while found < 6:
        a = tuple(rng.randint(2, 6) for _ in range(4))
        ev = ExponentVector(a)
        if ev.reciprocal_sum() <= 1:
            continue
        found += 1
        shift = period_shift(ev)
        types = enumerate_orbit_types(ev)
        L = ev.lcm()
        d0 = max(
            generator_degree(ev, t, N, t.orbit_space_dim)
            for t in types
            for N in range(1, L // t.m + 1)
            if valid_multiplier(ev, t, N)
        )
        ranks = ch_ranks(ev, (d0, d0 + 3 * shift - 1))
        blocks = []
        for i in range(3):
            lo = d0 + i * shift
            blocks.append(
                {d - lo: k for d, k in ranks.items() if lo <= d < lo + shift}
            )
        assert blocks[0] == blocks[1] == blocks[2], a


def test_sufficient_negativity_examples():
    assert sufficient_negativity_check(ExponentVector((8, 8, 8, 8)))
    assert not sufficient_negativity_check(ExponentVector((7, 7, 7, 7)))
    assert not sufficient_negativity_check(ExponentVector((2, 2, 2, 2)))
    # below the rough bound yet perfectly well defined
    assert ch_report(ExponentVector((7, 7, 7, 7)), (-10, -2)).well_defined


def brute_contributions(a, lo, hi):
    """Reference scan: every type walks N up from 1 and stops only when the
    linear degree bound on the side the degrees grow toward leaves the window."""
    character = classify_index(a)
    n, sigma = a.n, a.reciprocal_sum()
    out = []
    for t in enumerate_orbit_types(a):
        homology = orbit_space_rational_homology(a, t.J)
        slope = 2 * t.m * (sigma - 1)
        N = 1
        while True:
            if character.is_positive and slope * N - 2 > hi:
                break
            if character.is_negative and slope * N + 2 * (n - 2) < lo:
                break
            if valid_multiplier(a, t, N):
                for j, count in enumerate(homology):
                    degree = generator_degree(a, t, N, j)
                    if count and lo <= degree <= hi:
                        out.append(Contribution(m=t.m, N=N, j=j, degree=degree, count=count))
            N += 1
    return out


def test_scan_matches_the_walk_from_the_first_multiplier():
    rng = random.Random(20261018)
    signs = set()
    checked = 0
    while checked < 120:
        a = ExponentVector(tuple(rng.randint(2, 8) for _ in range(rng.randint(4, 6))))
        sign = classify_index(a).sign
        if sign == "degenerate":
            continue
        signs.add(sign)
        checked += 1
        offset = rng.choice([0, rng.randint(-1000, 1000)])
        window = (offset - rng.randint(0, 6), offset + rng.randint(0, 20))
        assert ch_report(a, window).contributions == tuple(brute_contributions(a, *window)), (a, window)
    assert signs == {"positive", "negative"}


@pytest.mark.parametrize("exponents, window, ranks", [
    ((6, 2, 2, 2), (10**6, 10**6 + 20), lambda d: 2),
    ((7, 7, 7, 7), (-10**6 - 20, -10**6), lambda d: 187 if d % 6 == 0 else 1),
])
def test_scan_cost_follows_the_window_not_its_position(monkeypatch, exponents, window, ranks):
    # every multiplier a scan visits comes from one range per orbit type
    visited = []
    original = contact._multipliers

    def counting(*args):
        multipliers = original(*args)
        visited.append(len(multipliers))
        return multipliers

    monkeypatch.setattr(contact, "_multipliers", counting)
    report = ch_report(ExponentVector(exponents), window)
    assert 0 < sum(visited) <= 50
    lo, hi = window
    assert dict(report.ranks.items()) == {d: ranks(d) for d in range(lo, hi + 1, 2)}


def walk_length(a, top):
    """Multipliers the reference walk visits to reach degree `top` in absolute value."""
    slope = 2 * abs(a.reciprocal_sum() - 1)
    return sum(top / (slope * t.m) + 1 for t in enumerate_orbit_types(a))


def test_two_period_windows_match_the_walk():
    # the benchmark's window shape: two periods, width 2|period_shift|
    rng = random.Random(20261019)
    seen = set()
    checked = 0
    while checked < 36:
        k, positive = rng.randint(4, 6), checked % 2 == 0
        a = ExponentVector(tuple(rng.randint(2, 9) for _ in range(k)))
        if classify_index(a).sign != ("positive" if positive else "negative"):
            continue
        width = 2 * abs(period_shift(a))
        offset = rng.choice([0, rng.randint(1, 10**2), rng.randint(1, 10**4)])
        if walk_length(a, offset + width + 2 * a.n) > 4_000:
            continue
        window = (offset, offset + width) if positive else (-offset - width, -offset)
        report = ch_report(a, window)
        walk = tuple(brute_contributions(a, *window))
        assert report.contributions == walk, (a, window)
        totals = {}
        for c in walk:
            totals[c.degree] = totals.get(c.degree, 0) + c.count
        assert dict(report.ranks.items()) == totals
        seen.add((k, positive))
        checked += 1
    assert {k for k, _ in seen} == {4, 5, 6} and {p for _, p in seen} == {True, False}


def test_ranks_up_to_matches_the_walk():
    # the walk from N = 1 meets every degree up to hi, so a floor set too
    # high would show as a missing degree
    rng = random.Random(20261020)
    checked = 0
    while checked < 30:
        a = ExponentVector(tuple(rng.randint(2, 9) for _ in range(rng.randint(4, 6))))
        if not classify_index(a).is_positive:
            continue
        hi = rng.randint(-2, 3 * abs(period_shift(a)))
        if walk_length(a, hi + 2) > 4_000:
            continue
        totals = {}
        for c in brute_contributions(a, -(10**9), hi):
            totals[c.degree] = totals.get(c.degree, 0) + c.count
        low = ranks_up_to(a, hi)
        assert dict(low.items()) == totals, (a, hi)
        assert low.window[0] <= min(totals, default=hi)
        checked += 1
