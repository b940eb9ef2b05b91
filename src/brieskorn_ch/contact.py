"""Graded generator counts for cylindrical contact homology.

Every orbit type contributes the rational homology of its orbit space,
once per admissible multiplier N, at a degree shifted by the Maslov index.
The resulting graded vector space is eventually periodic: stepping N by
L/m (L the lcm of all exponents) shifts every degree by the same integer
2L(sum 1/a_j - 1), which also fixes the sign of the degree growth.  A scan
visits only the N whose band of degrees meets the window, so its cost
follows the window's width, not its position.

The whole construction only exists as a contact invariant when no
generator lands in degree -1, 0 or 1; the report carries that verdict,
checked on a window-independent scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maslov import IndexCharacter, _index_formula, classify_index, maslov_orbit_space
from .orbits import OrbitType, enumerate_orbit_types, valid_multiplier
from .randell import ExponentVector, orbit_space_rational_homology


class DegenerateContactFormError(ValueError):
    """sum(1/a_j) = 1: degree-0 orbits are unavoidable.

    The full-period orbit space has Maslov index exactly zero, so the
    graded counts never stabilise into an invariant for this contact form.
    """


@dataclass(frozen=True)
class Contribution:
    """One orbit-space homology class placed in the graded complex."""

    m: int
    N: int
    j: int
    degree: int
    count: int


@dataclass(frozen=True)
class GradedRanks:
    """Sparse nonzero ranks on an inclusive degree window."""

    ranks: dict[int, int]
    window: tuple[int, int]

    def __post_init__(self):
        lo, hi = self.window
        if lo > hi:
            raise ValueError("window must satisfy lo <= hi")
        for degree, rank in self.ranks.items():
            if rank <= 0:
                raise ValueError("ranks must be positive where present")
            if not lo <= degree <= hi:
                raise ValueError("rank recorded outside the window")

    def __getitem__(self, degree: int) -> int:
        return self.ranks.get(degree, 0)

    def items(self):
        return sorted(self.ranks.items())


@dataclass(frozen=True)
class CHReport:
    """Contact homology generator counts plus the data that certify them."""

    exponents: ExponentVector
    character: IndexCharacter
    ranks: GradedRanks
    period_shift: int
    period_multipliers: dict[int, int]
    well_defined: bool
    contributions: tuple[Contribution, ...]


def generator_degree(a: ExponentVector, t: OrbitType, N: int, j: int) -> int:
    """Degree of the generators from H_j of the N-fold cover of type `t`."""
    if not 0 <= j <= t.orbit_space_dim:
        raise ValueError("homology degree outside the orbit space dimension")
    return maslov_orbit_space(a, t, N) + (a.n - 3) + j - (len(t.J) - 2)


def period_shift(a: ExponentVector) -> int:
    """Degree shift after one full period: 2L(sum 1/a_j - 1), an exact integer."""
    L = a.lcm()
    return 2 * sum(L // aj for aj in a) - 2 * L


def _contributions(a, types, lo, hi):
    """All contributions with degree in [lo, hi], ascending by (m, N, j).

    Complete: every degree of the N-fold cover of a type lies in
    [slope*N - 2, slope*N + 2(n-2)] (floor(x) > x - 1 on one side,
    floor(x) <= x on the other, equality reachable on the principal type),
    and only the N whose band meets the window are visited.
    """
    n = a.n
    sigma = a.reciprocal_sum()
    out = []
    for t in types:
        homology = orbit_space_rational_homology(a, t.J)
        base_shift = (n - 3) - (len(t.J) - 2)
        slope = 2 * t.m * (sigma - 1)  # exact nonzero Fraction
        first, last = sorted(((lo - 2 * (n - 2)) / slope, (hi + 2) / slope))
        for N in range(max(1, math.ceil(first)), math.floor(last) + 1):
            if valid_multiplier(a, t, N):
                base = _index_formula(a, t, N) + base_shift
                for j, count in enumerate(homology.ranks):
                    if count and lo <= base + j <= hi:
                        out.append(
                            Contribution(m=t.m, N=N, j=j, degree=base + j, count=count)
                        )
    return out


def _graded(contributions, lo: int, hi: int) -> GradedRanks:
    ranks: dict[int, int] = {}
    for c in contributions:
        ranks[c.degree] = ranks.get(c.degree, 0) + c.count
    return GradedRanks(ranks=ranks, window=(lo, hi))


def _orbit_types(a: ExponentVector) -> tuple[IndexCharacter, list[OrbitType]]:
    """Index character and orbit types of a nondegenerate vector: every scan's preamble."""
    character = classify_index(a)
    if character.is_degenerate:
        raise DegenerateContactFormError(
            "degree-0 orbits unavoidable: sum of reciprocal exponents equals 1"
        )
    return character, enumerate_orbit_types(a)


def ch_ranks(a: ExponentVector, window: tuple[int, int]) -> GradedRanks:
    """Generator counts per degree over an inclusive window."""
    return ch_report(a, window).ranks


def ranks_up_to(a: ExponentVector, hi: int) -> GradedRanks:
    """Every generator count in degrees <= hi; index-positive input only.

    Positivity bounds all degrees from below, so the scan is finite; the
    returned window starts at that proven floor.
    """
    character, types = _orbit_types(a)
    if not character.is_positive:
        raise ValueError("unbounded scan: degrees are not bounded below")
    sigma = a.reciprocal_sum()
    lo = min(hi, math.floor(min(2 * t.m * (sigma - 1) for t in types) - 2))
    return _graded(_contributions(a, types, lo, hi), lo, hi)


def ch_report(a: ExponentVector, window: tuple[int, int]) -> CHReport:
    """Full report: ranks, periodicity data, provenance, invariance verdict.

    The well-definedness scan is window-independent: it enumerates every
    contribution that could land in degrees -1..1, not just the windowed
    ones.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    character, types = _orbit_types(a)
    contribs = tuple(_contributions(a, types, lo, hi))
    gate = _contributions(a, types, -1, 1)
    L = a.lcm()
    return CHReport(
        exponents=a,
        character=character,
        ranks=_graded(contribs, lo, hi),
        period_shift=period_shift(a),
        period_multipliers={t.m: L // t.m for t in types},
        well_defined=not gate,
        contributions=contribs,
    )


def sufficient_negativity_check(a: ExponentVector) -> bool:
    """Rough exponent-size test guaranteeing the computation is conclusive.

    True when min(a_i) >= 5n/2 (exact comparison).  Advisory only: the
    verdict in `ch_report` is authoritative, and plenty of inputs below
    this threshold still come out well defined.
    """
    return 2 * min(a) >= 5 * a.n
