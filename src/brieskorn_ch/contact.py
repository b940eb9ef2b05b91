"""Graded generator counts for cylindrical contact homology.

Every orbit type contributes the rational homology of its orbit space,
once per admissible multiplier N, at a degree shifted by the Maslov index.
The resulting graded vector space is eventually periodic: stepping N by
L/m (L the lcm of all exponents) shifts every degree by the same integer
2L(sum 1/a_j - 1), which also fixes the sign of the degree growth.  A scan
visits only the N whose band of degrees meets the window, so its cost
follows the window's width, not its position.  Each visited N costs one
integer pass over the exponents outside the type's support: a zero
remainder rejects N, and the quotients are the floors the index sums.

The whole construction only exists as a contact invariant when no
generator lands in degree -1, 0 or 1; the report carries that verdict,
checked on a window-independent scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .maslov import IndexCharacter, classify_index, maslov_orbit_space
from .maslov import _index_formula  # unused, kept for perfbench's tracer
from .orbits import OrbitType, enumerate_orbit_types
from .orbits import valid_multiplier  # unused, kept for perfbench's tracer
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
    """Contact homology generator counts plus the data that certify them.

    `rows` holds one plain (m, N, j, degree, count) tuple per contribution,
    ascending by (m, N, j); `contributions` builds them into objects on
    first read.
    """

    exponents: ExponentVector
    character: IndexCharacter
    ranks: GradedRanks
    period_shift: int
    period_multipliers: dict[int, int]
    well_defined: bool
    rows: tuple[tuple[int, int, int, int, int], ...]

    @cached_property
    def contributions(self) -> tuple[Contribution, ...]:
        return tuple(
            Contribution(m=m, N=N, j=j, degree=degree, count=count)
            for m, N, j, degree, count in self.rows
        )


def generator_degree(a: ExponentVector, t: OrbitType, N: int, j: int) -> int:
    """Degree of the generators from H_j of the N-fold cover of type `t`."""
    if not 0 <= j <= t.orbit_space_dim:
        raise ValueError("homology degree outside the orbit space dimension")
    return maslov_orbit_space(a, t, N) + (a.n - 3) + j - (len(t.J) - 2)


def period_shift(a: ExponentVector) -> int:
    """Degree shift after one full period: 2L(sum 1/a_j - 1), an exact integer."""
    L = a.lcm()
    return 2 * sum(L // aj for aj in a) - 2 * L


class _Plan(NamedTuple):
    """What the scan reads of one orbit type, built once per report.

    The degree of H_j of the N-fold cover is coef*N + 2*sum(N*m // a_i) +
    const + j, the sum over the exponents outside J: inside J, N*m/a_j is
    exact and folds into coef.
    """

    m: int
    period: int  # L/m: the step in N that shifts every degree by period_shift
    outside: tuple[int, ...]
    coef: int
    const: int
    homology: tuple[tuple[int, int], ...]  # nonzero (j, rank) of the orbit space


def _plans(a: ExponentVector) -> tuple[IndexCharacter, tuple[_Plan, ...]]:
    """Index character and one plan per orbit type, ascending by m: every scan's preamble.

    The plans are built on the vector's first scan and kept in `a.derived`,
    so a report and the scans that audit it enumerate the types once.
    """
    character = classify_index(a)
    if character.is_degenerate:
        raise DegenerateContactFormError(
            "degree-0 orbits unavoidable: sum of reciprocal exponents equals 1"
        )
    plans = a.derived.get("contact plans")
    if plans is None:
        plans = a.derived["contact plans"] = _build_plans(a)
    return character, plans


def _build_plans(a: ExponentVector) -> tuple[_Plan, ...]:
    n, L = a.n, a.lcm()
    plans = []
    for t in enumerate_orbit_types(a):
        outside = tuple(aj for j, aj in enumerate(a) if j not in t.J)
        ranks = orbit_space_rational_homology(a, t.J)
        plans.append(_Plan(
            m=t.m,
            period=L // t.m,
            outside=outside,
            coef=2 * sum(t.m // a[j] for j in t.J) - 2 * t.m,
            const=len(outside) + (n - 3) - (len(t.J) - 2),
            homology=tuple((j, count) for j, count in enumerate(ranks) if count),
        ))
    return tuple(plans)


def _multipliers(period: int, shift: int, lo: int, hi: int) -> range:
    """The N >= 1 with lo <= N*shift/period <= hi, shift nonzero."""
    if shift < 0:
        lo, hi, shift = -hi, -lo, -shift
    return range(max(1, -(-lo * period // shift)), hi * period // shift + 1)


def _scan(
    plans: tuple[_Plan, ...], shift: int, n: int, lo: int, hi: int
) -> tuple[dict[int, int], list[tuple[int, int, int, int, int]]]:
    """Ranks of the contributions with degree in [lo, hi], and their rows.

    Complete: every degree of the N-fold cover of a type lies in
    [slope*N - 2, slope*N + 2(n-2)], slope = shift/period (floor(x) > x - 1
    on one side, floor(x) <= x on the other, equality reachable on the
    principal type), and only the N whose band meets the window are
    visited.  Rows are (m, N, j, degree, count), ascending by (m, N, j).
    """
    ranks: dict[int, int] = {}
    rows = []
    for m, period, outside, coef, const, homology in plans:
        for N in _multipliers(period, shift, lo - 2 * (n - 2), hi + 2):
            total = N * m
            floors = 0
            for aj in outside:
                q, r = divmod(total, aj)
                if not r:
                    break  # aj divides N*m: the iterate leaves the type
                floors += q
            else:
                base = coef * N + 2 * floors + const
                for j, count in homology:
                    degree = base + j
                    if lo <= degree <= hi:
                        ranks[degree] = ranks.get(degree, 0) + count
                        rows.append((m, N, j, degree, count))
    return ranks, rows


def ch_ranks(a: ExponentVector, window: tuple[int, int]) -> GradedRanks:
    """Generator counts per degree over an inclusive window."""
    return ch_report(a, window).ranks


def ranks_up_to(a: ExponentVector, hi: int) -> GradedRanks:
    """Every generator count in degrees <= hi; index-positive input only.

    Positivity bounds all degrees from below, so the scan is finite; the
    returned window starts at that proven floor.
    """
    character, plans = _plans(a)
    if not character.is_positive:
        raise ValueError("unbounded scan: degrees are not bounded below")
    shift = period_shift(a)
    # The least degree is above slope*N - 2 >= slope - 2, and slope =
    # shift/period grows with m: the type of least m sets the floor.
    lo = min(hi, shift // plans[0].period - 2)
    ranks, _ = _scan(plans, shift, a.n, lo, hi)
    return GradedRanks(ranks=ranks, window=(lo, hi))


def ch_report(a: ExponentVector, window: tuple[int, int]) -> CHReport:
    """Full report: ranks, periodicity data, provenance, invariance verdict.

    The well-definedness scan is window-independent: it enumerates every
    contribution that could land in degrees -1..1, not just the windowed
    ones.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    character, plans = _plans(a)
    shift = period_shift(a)
    ranks, rows = _scan(plans, shift, a.n, lo, hi)
    return CHReport(
        exponents=a,
        character=character,
        ranks=GradedRanks(ranks=ranks, window=(lo, hi)),
        period_shift=shift,
        period_multipliers={p.m: p.period for p in plans},
        well_defined=not _scan(plans, shift, a.n, -1, 1)[0],
        rows=tuple(rows),
    )


def sufficient_negativity_check(a: ExponentVector) -> bool:
    """Rough exponent-size test guaranteeing the computation is conclusive.

    True when min(a_i) >= 5n/2 (exact comparison).  Advisory only: the
    verdict in `ch_report` is authoritative, and plenty of inputs below
    this threshold still come out well defined.
    """
    return 2 * min(a) >= 5 * a.n
