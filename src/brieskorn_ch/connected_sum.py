"""Generator counting under contact connected sums.

Summing two contact manifolds of dimension 2n-1 adds the two generator
sets together with one extra generator from the connecting tube in each
odd degree 2n-3, 2n-1, ...  Counts are only controlled up to a degree
cutoff, so the cutoff travels with the data and combining truncates to
the weaker one.

The distinguished building block is the sphere Sigma(p_1,...,p_{n-1},2,2)
for odd primes p_i: for suitable primes its contact homology has at least
two generators in degree 2n-4, none below, and none in degree 2n-3, which
makes the counts of its iterated self-sums strictly increasing in the
number of summands.  Whether a given prime tuple works is decided here
exactly, not estimated: from the contact homology report of the sphere
and Brieskorn's graph criterion on its exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .contact import CHReport, GradedRanks, ch_report, ranks_up_to
from .randell import ExponentVector, graph_sphere
from .randell import full_homology  # unused, kept for perfbench's tracer


@dataclass(frozen=True)
class GeneratorCounts:
    """Generator counts per degree, trusted only up to `cutoff`."""

    counts: dict[int, int]
    cutoff: int
    half_dim_n: int

    def __post_init__(self):
        if self.half_dim_n < 3:
            raise ValueError("need half-dimension n >= 3")
        for degree, count in self.counts.items():
            if degree > self.cutoff:
                raise ValueError("count recorded above the cutoff")
            if count <= 0:
                raise ValueError("counts must be positive where present")

    @classmethod
    def of_ranks(cls, ranks: GradedRanks, n: int) -> GeneratorCounts:
        """A report's ranks as a summand, trusted up to the top of its window."""
        return cls(counts=dict(ranks.ranks), cutoff=ranks.window[1], half_dim_n=n)

    def __getitem__(self, degree: int) -> int:
        return self.counts.get(degree, 0)


@dataclass(frozen=True)
class SpecialSphereVerdict:
    """Clause-by-clause audit of a candidate special sphere."""

    primes: tuple[int, ...]
    is_homotopy_sphere: bool
    low_degree_rank: int        # generators in degree 2n-4 (want >= 2)
    tube_degree_rank: int       # generators in degree 2n-3 (want 0)
    ranks_below: tuple[tuple[int, int], ...]  # (degree, rank) below 2n-4 (want none)
    well_defined: bool
    index_positive: bool

    @property
    def passed(self) -> bool:
        return not self.failing_clauses()

    def failing_clauses(self) -> tuple[str, ...]:
        failures = []
        if not self.is_homotopy_sphere:
            failures.append("not a homotopy sphere")
        if self.low_degree_rank < 2:
            failures.append("fewer than two generators in degree 2n-4")
        if self.tube_degree_rank != 0:
            failures.append("generators present in degree 2n-3")
        if self.ranks_below:
            failures.append("generators below degree 2n-4")
        if not (self.well_defined and self.index_positive):
            failures.append("homology not well defined or not index-positive")
        return tuple(failures)


def beta(n: int, j: int) -> int:
    """Connecting-tube generators in degree j for a sum of (2n-1)-manifolds."""
    if j >= 2 * n - 3 and (j - (2 * n - 3)) % 2 == 0:
        return 1
    return 0


def combine(c1: GeneratorCounts, c2: GeneratorCounts) -> GeneratorCounts:
    """Counts of the connected sum: pointwise sum plus the tube generators."""
    if c1.half_dim_n != c2.half_dim_n:
        raise ValueError("connected sum needs equal dimensions")
    n = c1.half_dim_n
    cutoff = min(c1.cutoff, c2.cutoff)
    counts: dict[int, int] = {}
    for source in (c1.counts, c2.counts):
        for degree, count in source.items():
            if degree <= cutoff:
                counts[degree] = counts.get(degree, 0) + count
    for degree in range(2 * n - 3, cutoff + 1, 2):
        counts[degree] = counts.get(degree, 0) + 1
    return GeneratorCounts(counts=counts, cutoff=cutoff, half_dim_n=n)


def iterated_sphere_sum(sphere: GeneratorCounts, r: int) -> GeneratorCounts:
    """Counts of the r-fold self-sum; r = 1 is the sphere.

    r copies of the sphere's counts and one tube per join, with no `combine`:
    r * sphere[d] + (r - 1) * beta(n, d) in degree d.
    """
    if r < 1:
        raise ValueError("need at least one summand")
    n, cutoff = sphere.half_dim_n, sphere.cutoff
    degrees = set(sphere.counts).union(range(2 * n - 3, cutoff + 1, 2))
    counts = {d: c for d in degrees if (c := r * sphere[d] + (r - 1) * beta(n, d))}
    return GeneratorCounts(counts=counts, cutoff=cutoff, half_dim_n=n)


# Strong-probable-prime tests to the first 13 prime bases decide primality
# exactly below PRIME_BOUND (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_odd_prime(p: int) -> bool:
    """Exact for 3 <= p < PRIME_BOUND: one modular power per base."""
    if p < 3 or p % 2 == 0:
        return False
    if p in _PRIME_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _PRIME_BASES:
        x = pow(base, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # `base` witnesses that p is composite
    return True


def sphere_exponents(primes: tuple[int, ...]) -> ExponentVector:
    """Exponent vector (p_1, ..., p_{n-1}, 2, 2) of the candidate sphere."""
    if len(primes) < 2:
        raise ValueError("need at least two odd primes (so the manifold is 5-dimensional)")
    if any(p >= PRIME_BOUND for p in primes):
        raise ValueError(
            f"primes must be below {PRIME_BOUND}, where the primality test stops being exact"
        )
    if not all(_is_odd_prime(p) for p in primes):
        raise ValueError("exponents before the two 2s must be odd primes")
    return ExponentVector(tuple(primes) + (2, 2))


def special_sphere_check(primes: tuple[int, ...], report: CHReport) -> SpecialSphereVerdict:
    """Audit a candidate sphere against the five distinguishing clauses.

    `report` must be the contact homology report of (p_1,...,p_{n-1},2,2)
    on a window covering degrees 2n-4 and 2n-3.  The sphere clause is
    Brieskorn's graph criterion (`graph_sphere`), with no homology built.

    The no-lower-generators clause covers every degree below 2n-4, not
    only the window's, from what the report already holds.  On an
    index-positive vector every degree is at least slope*N - 2 > -2
    (`contact._scan`, slope > 0 and N >= 1), so at least -1.  The report's
    gate ranks cover -1..1 and its window lo..hi, hi >= 2n-3; only a
    window starting above degree 2 leaves the gap 2..lo-1, scanned here
    by `ranks_up_to` (lo - 1 <= 2n-5 as lo <= 2n-4).  Gate, window and gap
    thus cover every degree up to 2n-5, each degree's rank read whole from
    one of them.
    """
    a = report.exponents
    if a != sphere_exponents(tuple(primes)):
        raise ValueError("report does not belong to the given primes")
    n = a.n
    lo, hi = report.ranks.window
    if not (lo <= 2 * n - 4 and 2 * n - 3 <= hi):
        raise ValueError("report window must cover degrees 2n-4 and 2n-3")

    # Without index positivity degrees are unbounded below; the sign
    # clause fails on its own then, so nothing is gathered.
    below: dict[int, int] = {}
    if report.character.is_positive:
        below.update(report.gate_ranks)
        below.update((d, r) for d, r in report.ranks.ranks.items() if d <= 2 * n - 5)
        if lo > 2:
            below.update(ranks_up_to(a, min(lo - 1, 2 * n - 5)).ranks)
    return SpecialSphereVerdict(
        primes=tuple(primes),
        is_homotopy_sphere=graph_sphere(a),
        low_degree_rank=report.ranks[2 * n - 4],
        tube_degree_rank=report.ranks[2 * n - 3],
        ranks_below=tuple(sorted(below.items())),
        well_defined=report.well_defined,
        index_positive=report.character.is_positive,
    )


def check_primes(primes: tuple[int, ...]) -> SpecialSphereVerdict:
    """Run the full pipeline on a prime tuple and audit the outcome."""
    a = sphere_exponents(tuple(primes))
    report = ch_report(a, (0, 2 * a.n - 2))
    return special_sphere_check(tuple(primes), report)


def find_special_primes(n: int, search_bound: int) -> tuple[int, ...] | None:
    """Lexicographically least passing tuple of odd primes <= search_bound.

    Tuples are nondecreasing (order does not change the manifold), length
    n - 1.  Returns None when nothing within the bound passes.
    """
    if n < 3:
        raise ValueError("need half-dimension n >= 3")
    candidates = filter(_is_odd_prime, range(search_bound + 1))
    for primes in combinations_with_replacement(candidates, n - 1):
        if check_primes(primes).passed:
            return primes
    return None
