"""Graded generator counts for cylindrical contact homology.

Every orbit type contributes the rational homology of its orbit space,
once per admissible multiplier N, at a degree shifted by the Maslov index.
The resulting graded vector space is eventually periodic: stepping N by
L/m (L the lcm of all exponents) shifts every degree by the same integer
2L(sum 1/a_j - 1), which also fixes the sign of the degree growth.  A scan
visits only the N whose band of degrees meets the window, so its cost
follows the window's width, not its position.  The types are walked by
ascending m, whose degree slope grows with m: the walk stops at the first
type whose N = 1 already lies past the window's far edge, and a type's
plan (its orbit-space Betti numbers, from its kappa) is built only when
the walk visits one of its N, so a window near degree 0 pays for the few
types of least period, not for every type.  Each N of the first period
L/m a type's walk visits costs one integer pass over the exponents
outside the type's support: a zero remainder rejects N, and the quotients
are the floors the index sums.  Every exponent divides L, so N + L/m is
admissible exactly when N is, and lands one period shift further; a walk
longer than one period reads its later periods off the first.

The whole construction only exists as a contact invariant when no
generator lands in degree -1, 0 or 1; the report carries that verdict,
checked on a window-independent scan, and the ranks that scan found.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .maslov import IndexCharacter, classify_index, maslov_orbit_space
from .maslov import _index_formula  # unused, kept for perfbench's tracer
from .orbits import OrbitType
from .orbits import enumerate_orbit_types, valid_multiplier  # unused, kept for perfbench's tracer
from .randell import ExponentVector, closed_kappa, orbit_space_betti, type_times
from .randell import orbit_space_rational_homology  # unused, kept for perfbench's tracer

# The most multipliers one scan visits; a scan that would visit more is
# refused before it starts.
MAX_SCAN_VISITS = 10**7


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
    first read.  `gate_ranks` holds the well-definedness scan's nonzero
    ranks as (degree, rank) pairs, ascending, on degrees -1..1 whatever the
    window: empty exactly when `well_defined`.
    """

    exponents: ExponentVector
    character: IndexCharacter
    ranks: GradedRanks
    period_shift: int
    period_multipliers: dict[int, int]
    well_defined: bool
    gate_ranks: tuple[tuple[int, int], ...]
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


# What the scan reads of one orbit type, built when a scan first reaches it.
# The degree of H_j of the N-fold cover is coef*N + 2*sum(N*m // a_i) +
# const + j, the sum over the exponents outside J (`outside`): inside J,
# N*m/a_j is exact and folds into coef.  `homology` holds the nonzero
# (j, rank) of the orbit space.
_Plan = namedtuple("_Plan", "outside coef const homology")

# The orbit types of one vector, as every scan reads them: `times`, the
# return times m, ascending, so the period L/m descends; `plans`, by m,
# each built on the first scan that reaches its type.
_Types = namedtuple("_Types", "times plans")


def _types(a: ExponentVector) -> tuple[IndexCharacter, _Types]:
    """Index character and the orbit types: every scan's preamble.

    The types are kept in `a.derived`, so a report and the scans that
    audit it read the one product and build each plan once.
    """
    character = classify_index(a)
    if character.is_degenerate:
        raise DegenerateContactFormError(
            "degree-0 orbits unavoidable: sum of reciprocal exponents equals 1"
        )
    types = a.derived.get("contact types")
    if types is None:
        types = a.derived["contact types"] = _Types(type_times(a), {})
    return character, types


def _plan(a: ExponentVector, m: int) -> _Plan:
    values = a.a
    inside = [x for x in values if not m % x]  # the exponents in J
    outside = tuple([x for x in values if m % x])
    ranks = orbit_space_betti(len(inside), closed_kappa(a, m))
    return _Plan(
        outside=outside,
        coef=2 * sum([m // x for x in inside]) - 2 * m,
        const=2 * len(outside) - 2,  # |outside| + (n - 3) - (|J| - 2), n + 1 = |J| + |outside|
        homology=tuple(compress(enumerate(ranks), ranks)),
    )


def _multipliers(period: int, shift: int, lo: int, hi: int) -> range:
    """The N >= 1 with lo <= N*shift/period <= hi, shift nonzero."""
    if shift < 0:
        lo, hi, shift = -hi, -lo, -shift
    return range(max(1, -(-lo * period // shift)), hi * period // shift + 1)


def _scan(
    a: ExponentVector, types: _Types, shift: int, lo: int, hi: int,
    refusal: str = "the exponents are too large, whatever the window",
) -> tuple[dict[int, int], list[tuple[int, int, int, int, int]]]:
    """Ranks of the contributions with degree in [lo, hi], and their rows.

    Complete: every degree of the N-fold cover of a type lies in
    [slope*N - 2, slope*N + 2(n-2)], slope = shift/period (floor(x) > x - 1
    on one side, floor(x) <= x on the other, equality reachable on the
    principal type), and only the N whose band meets the window are
    visited.  |slope| = |shift|*m/L grows with m, so once N = 1 of a type
    lies past the window's far edge, so does every later type, and the
    walk stops there; a type's plan is built only when some N of it is
    visited.  The integer pass runs on at most the first period L/m of a
    type's walk: a later N + t*L/m is admissible exactly when N is, with
    base degree t*shift higher.  Rows are (m, N, j, degree, count),
    ascending by (m, N, j).
    A walk of more than `MAX_SCAN_VISITS` multipliers is refused
    (ValueError, its count and `refusal`) before any is visited.
    """
    n, L = a.n, a.lcm()
    times, plans = types
    band_lo, band_hi = lo - 2 * (n - 2), hi + 2
    walk = []
    visits = 0
    for m in times:
        period = L // m
        multipliers = _multipliers(period, shift, band_lo, band_hi)
        if multipliers.stop <= 1:
            break
        if multipliers:
            walk.append((m, period, multipliers))
            visits += multipliers.stop - multipliers.start
    if visits > MAX_SCAN_VISITS:
        raise ValueError(f"degrees {lo} to {hi} need {visits} multipliers scanned, more than"
                         f" {MAX_SCAN_VISITS}: {refusal}")
    ranks: dict[int, int] = {}
    rows = []
    for m, period, multipliers in walk:
        plan = plans.get(m)
        if plan is None:
            plan = plans[m] = _plan(a, m)
        outside, coef, const, homology = plan
        # A walk longer than one period runs the integer pass on its first
        # period only and keeps each valid N's base: N + t*period is valid
        # with base + t*shift.
        longer = len(multipliers) > period
        first = []
        for N in multipliers[:period] if longer else multipliers:
            total = N * m
            floors = 0
            for aj in outside:
                q, r = divmod(total, aj)
                if not r:
                    break  # aj divides N*m: the iterate leaves the type
                floors += q
            else:
                base = coef * N + 2 * floors + const
                if longer:
                    first.append((N, base))
                for j, count in homology:
                    degree = base + j
                    if lo <= degree <= hi:
                        ranks[degree] = ranks.get(degree, 0) + count
                        rows.append((m, N, j, degree, count))
        if longer:
            stop = multipliers.stop
            for t, step in enumerate(range(period, len(multipliers), period), 1):
                lift = t * shift
                for N, base in first:
                    N += step
                    if N >= stop:
                        break
                    base += lift
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
    character, types = _types(a)
    if not character.is_positive:
        raise ValueError("unbounded scan: degrees are not bounded below")
    shift = period_shift(a)
    # The least degree is above slope*N - 2 >= slope - 2, and slope =
    # shift/period grows with m: the type of least m sets the floor.
    lo = min(hi, shift // (a.lcm() // types.times[0]) - 2)
    ranks, _ = _scan(a, types, shift, lo, hi)
    return GradedRanks(ranks=ranks, window=(lo, hi))


def ch_report(a: ExponentVector, window: tuple[int, int]) -> CHReport:
    """Full report: ranks, periodicity data, provenance, invariance verdict.

    The well-definedness scan is window-independent: it enumerates every
    contribution that could land in degrees -1..1, not just the windowed
    ones; it runs first, since no window makes it cheaper.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    character, types = _types(a)
    shift, L = period_shift(a), a.lcm()
    gate, _ = _scan(a, types, shift, -1, 1, "the exponents are too large for the"
                    " well-definedness check, whatever the window")
    ranks, rows = _scan(a, types, shift, lo, hi, "pass --window LO:HI with a narrower window")
    return CHReport(
        exponents=a,
        character=character,
        ranks=GradedRanks(ranks=ranks, window=(lo, hi)),
        period_shift=shift,
        period_multipliers={m: L // m for m in types.times},  # a period needs no plan
        well_defined=not gate,
        gate_ranks=tuple(sorted(gate.items())),
        rows=tuple(rows),
    )


def sufficient_negativity_check(a: ExponentVector) -> bool:
    """Rough exponent-size test guaranteeing the computation is conclusive.

    True when min(a_i) >= 5n/2 (exact comparison).  Advisory only: the
    verdict in `ch_report` is authoritative, and plenty of inputs below
    this threshold still come out well defined.
    """
    return 2 * min(a) >= 5 * a.n
