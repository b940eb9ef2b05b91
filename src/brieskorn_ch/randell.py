"""Homology of Brieskorn manifolds by subset arithmetic on the exponents.

A Brieskorn manifold is cut out of the unit sphere in C^(n+1) by
z_0^{a_0} + ... + z_n^{a_n} = 0, so everything topological about it is a
function of the exponent vector (a_0, ..., a_n).  The free rank of the
middle homology is an alternating sum of products-over-lcm terms taken
over subsets of the exponents (Randell's kappa); it and the torsion's gcd
recursion are Möbius transforms over the bitmask tables of the subsets that
each exponent vector builds once, and the orbit types and orbifolds read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import gcd_set, lcm_set, subsets  # lcm_set, subsets: kept for perfbench's tracer

MAX_EXPONENTS = 16  # a vector's subset tables hold 2^k entries


class HomologyInvariantError(RuntimeError):
    """A quantity that must be a nonnegative integer came out otherwise."""


@dataclass(frozen=True)
class ExponentVector:
    """Exponents (a_0, ..., a_n) of a Brieskorn manifold of dimension 2n-1.

    At least four exponents (so the manifold is at least 5-dimensional and
    simply connected), each at least 2: a unit exponent flattens the
    divisor bookkeeping for the orbit types and is rejected rather than
    special-cased.  At most MAX_EXPONENTS: the subset tables grow as 2^k.
    """

    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if len(self.a) < 4:
            raise ValueError("need at least four exponents")
        if len(self.a) > MAX_EXPONENTS:
            raise ValueError(f"at most {MAX_EXPONENTS} exponents: cost grows as 2^k")
        if any(not isinstance(x, int) or x < 2 for x in self.a):
            raise ValueError("every exponent must be an integer >= 2")

    @property
    def n(self) -> int:
        """Half-dimension parameter: the manifold has dimension 2n - 1."""
        return len(self.a) - 1

    @property
    def full_support(self) -> tuple[int, ...]:
        return tuple(range(len(self.a)))

    def lcm(self) -> int:
        return self.subset_lcm[-1]

    @cached_property
    def subset_lcm(self) -> list[int]:
        """Lcm of the exponents over each index subset, by bitmask, built on first use."""
        table = [1]  # the empty set; each exponent appends the subsets that hold it
        for x in self.a:
            table += [math.lcm(m, x) for m in table]
        return table

    @cached_property
    def subset_kappa(self) -> list[int]:
        """Kappa of each index subset, by bitmask: the additive Möbius transform
        of prod/lcm (which gains gcd(lcm T, x) as x joins T), built on first use.
        Entry S mixes only subsets of S, so it is kappa of S alone.
        """
        table = [1]
        for x in self.a:
            table += [f * math.gcd(m, x) for f, m in zip(table, self.subset_lcm)]
        _moebius(table, len(self.a), operator.sub)
        if min(table) < 0:
            raise HomologyInvariantError(f"negative kappa on a subset of {self.a}")
        return table

    def reciprocal_sum(self) -> Fraction:
        return sum((Fraction(1, x) for x in self.a), Fraction(0))

    def __len__(self) -> int:
        return len(self.a)

    def __iter__(self):
        return iter(self.a)

    def __getitem__(self, i: int) -> int:
        return self.a[i]


@dataclass(frozen=True)
class HomologyReport:
    """Integral homology of a Brieskorn manifold, middle group emphasised."""

    exponents: ExponentVector
    middle_rank: int
    torsion: tuple[int, ...]
    full_graded: dict[int, tuple[int, tuple[int, ...]]]
    homotopy_sphere: bool
    description: str


@dataclass(frozen=True)
class OrbitSpaceHomology:
    """Rational homology of an S^1-quotient orbifold, indexed 0..dimension."""

    dimension: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        if len(self.ranks) != self.dimension + 1:
            raise ValueError("ranks must cover degrees 0..dimension")


def _moebius(table: list, width: int, undo) -> list:
    """Turn table[S] = sum (or product) of f(T) over T ⊆ S into f(S), in place.

    `undo` takes one term back out; masks run over `width` bits, below len(table).
    """
    for i in range(width):
        bit = 1 << i
        for mask in range(bit, len(table)):
            if mask & bit:
                table[mask] = undo(table[mask], table[mask ^ bit])
    return table


def _kappa_raw(a: ExponentVector, support: tuple[int, ...]) -> int:
    """Kappa of `support`; no size restriction on it."""
    return a.subset_kappa[sum(1 << i for i in support)]


def kappa(a: ExponentVector, support: tuple[int, ...]) -> int:
    """Rank of the middle homology of the submanifold spanned by `support`."""
    support = tuple(sorted(support))
    if len(support) < 2:
        raise ValueError("support needs at least two indices")
    if len(set(support)) != len(support) or not set(support) <= set(a.full_support):
        raise ValueError("support must be a subset of the exponent indices")
    return _kappa_raw(a, support)


def torsion(a: ExponentVector) -> tuple[int, ...]:
    """Orders (d_1, ..., d_r) of the cyclic torsion of the middle homology.

    d_j is the product of C(S) over the proper subsets S with an odd
    complement and kappa(S) >= j, so it changes only where j passes such a
    kappa; trivial factors 1 are dropped.  C is the multiplicative Möbius
    transform of gcd(a_i : i not in S), in exact rationals checked integral.
    """
    k = len(a)
    full = (1 << k) - 1
    kap = a.subset_kappa
    g = [Fraction(gcd_set(x for i, x in enumerate(a) if not mask >> i & 1))
         for mask in range(full)]
    factor: dict[int, int] = {}  # kappa value -> product of the C it carries
    for mask, c in enumerate(_moebius(g, k, operator.truediv)):
        if c.denominator != 1:
            sub = tuple(i for i in range(k) if mask >> i & 1)
            raise HomologyInvariantError(f"C{sub} = {c} is not integral for {tuple(a)}")
        if (k - mask.bit_count()) % 2 == 1 and kap[mask] > 0:
            factor[kap[mask]] = factor.get(kap[mask], 1) * int(c)

    # d_j as (order, run length) runs for j = 1, 2, ...
    levels = sorted(factor)
    order = math.prod(factor.values())
    runs = []
    for level, below in zip(levels, [0] + levels):
        runs.append((order, level - below))
        order //= factor[level]
    for (prev, _), (nxt, _) in zip(runs, runs[1:]):
        if prev % nxt:
            raise HomologyInvariantError(f"torsion chain broken for {tuple(a)}: {runs}")
    return tuple(d for d, length in runs if d != 1 for _ in range(length))


def full_homology(a: ExponentVector) -> HomologyReport:
    """Homology of the manifold, assembled across all degrees.

    The middle groups carry kappa and the torsion; the rest of the graded
    picture (H_0 = Z, H_n free of rank kappa, top Z, zero elsewhere) is
    standard bookkeeping from (n-2)-connectedness and Poincare duality.
    Brieskorn manifolds are stably parallelizable, hence spin, so in
    dimension five a free middle group identifies the manifold as a
    connected sum of copies of S^2 x S^3.
    """
    n = a.n
    middle = _kappa_raw(a, a.full_support)
    tors = torsion(a)

    graded: dict[int, tuple[int, tuple[int, ...]]] = {0: (1, ())}
    if middle > 0 or tors:
        graded[n - 1] = (middle, tors)
    if middle > 0:
        graded[n] = (middle, ())
    graded[2 * n - 1] = (1, ())

    sphere = middle == 0 and not tors
    if sphere:
        description = "homotopy sphere"
    elif n == 3 and not tors:
        description = f"#_{middle} (S²×S³)"
    else:
        description = "Brieskorn manifold (unclassified)"
    return HomologyReport(
        exponents=a,
        middle_rank=middle,
        torsion=tors,
        full_graded=graded,
        homotopy_sphere=sphere,
        description=description,
    )


def orbit_space_rational_homology(
    a: ExponentVector, support: tuple[int, ...]
) -> OrbitSpaceHomology:
    """Rational homology of the orbit space attached to `support`.

    Rank 1 in every even degree of 0..2|support|-4, plus kappa of the
    support in the middle degree.  When |support| is odd the middle degree
    is odd and the kappa part is the only contribution there.
    """
    extra = kappa(a, support)  # validates the support
    dim = 2 * len(support) - 4
    ranks = [1 if q % 2 == 0 else 0 for q in range(dim + 1)]
    ranks[dim // 2] += extra
    return OrbitSpaceHomology(dimension=dim, ranks=tuple(ranks))
