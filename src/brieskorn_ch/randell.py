"""Homology of Brieskorn manifolds by divisor arithmetic on the exponents.

A Brieskorn manifold is cut out of the unit sphere in C^(n+1) by
z_0^{a_0} + ... + z_n^{a_n} = 0, so everything topological about it is a
function of the exponent vector (a_0, ..., a_n).  The free rank of the
middle homology is Randell's kappa, the coefficient sum of the product of
(Lambda_{a_j} - 1) over the exponents in the divisor ring, where
Lambda_x Lambda_y = gcd(x, y) Lambda_{lcm(x, y)} (Milnor and Orlik); the
product has one term per distinct lcm of a subset, not one per subset.
Multiplied over every exponent, that product keeps one key per subset
lcm (a zero coefficient keeps its key).  The orbit types read those keys,
and every kappa a command reads is one divisor sum over them
(`closed_kappa`): an orbit type's, a torsion level (see `torsion`) and the
middle rank alike.  The subsets inside J_m = {j : a_j | m} are exactly
those whose lcm divides m, so

    kappa(J_m) = (-1)^(k - |J_m|) * sum of the coefficients on the lcms dividing m,

the middle rank being the sum at m = lcm(a); `kappa` alone multiplies per
support.

The torsion reads the set of subset gcds, built as a closure.  Its factor
C(S) is the multiplicative Möbius transform of the complement gcds, which
has a closed form in integers: with K the complement of S,

    C(S) = gcd(a_K) / lcm_{j in S} gcd(a_{K + j}).

Per prime p, let A_t = {i : p^t | a_i}.  The exponent of p in gcd(a_T) is
min over T of v_p(a_i), the number of t >= 1 with T inside A_t, so its
Möbius transform counts the t with A_t = K exactly: those with K inside
A_t (v_p of gcd(a_K)) less those with some K + j inside A_t.  The A_t
shrink as t grows, so the latter are the first max_j v_p(gcd(a_{K + j}))
values of t, and that max is v_p of the lcm.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from operator import mod, not_

from .exact import gcd_set, lcm_set, subsets  # unused, kept for perfbench's tracer

# Pairwise coprime exponents have 2^k distinct subset lcms, and the
# divisor-ring product, the orbit types and each kappa's divisor sum walk
# every one of them.
MAX_EXPONENTS = 16
# The output budget: the torsion is written one cyclic factor at a time and
# `exotic` one row per copy, and a longer one is refused.
MAX_TORSION_FACTORS = 10**6


class HomologyInvariantError(RuntimeError):
    """An internal invariant failed.

    A kappa came out negative, the torsion orders failed to divide one
    another, or the two routes to a Maslov index disagreed.
    """


@dataclass(frozen=True)
class ExponentVector:
    """Exponents (a_0, ..., a_n) of a Brieskorn manifold of dimension 2n-1.

    At least four exponents (so the manifold is at least 5-dimensional and
    simply connected), each at least 2: a unit exponent flattens the
    divisor bookkeeping for the orbit types and is rejected rather than
    special-cased.  At most MAX_EXPONENTS: the number of distinct subset
    lcms can reach 2^k.
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

    def lcm(self) -> int:
        return math.lcm(*self.a)

    @cached_property
    def derived(self) -> dict:
        """Tables later stages build from this vector alone (the divisor-ring
        product and the contact scan's orbit types with the plans built so
        far), kept for as long as the vector.
        """
        return {}

    def reciprocal_sum(self) -> Fraction:
        L = self.lcm()
        return Fraction(sum(L // x for x in self.a), L)

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


def _closure(values: Iterable[int], op: Callable[[int, int], int], empty: int) -> set[int]:
    """The values of `op` over every subset of `values` (`empty` on the empty one)."""
    reached = {empty}
    for x in values:
        reached |= {op(v, x) for v in reached}
    return reached


def _ring_product(values: Iterable[int]) -> dict[int, int]:
    """The product of (Lambda_x - 1) over `values`, as {lcm: coefficient}.

    Every lcm of a subset of `values` is a key, also where its
    coefficient cancels to zero.  A value x met r times is multiplied in
    once: as Lambda_x^i = x^(i-1) Lambda_x, (Lambda_x - 1)^r = s + t Lambda_x
    with s = (-1)^r and t = ((x - 1)^r - s) / x, an exact division.
    """
    terms = {1: 1}
    for x, r in Counter(values).items():
        s = -1 if r % 2 else 1
        t = ((x - 1) ** r - s) // x
        product = dict.fromkeys(terms, 0)
        # Lambda_m (s + t Lambda_x) = s Lambda_m + t g Lambda_top, g = gcd(m, x), top = lcm(m, x)
        for m, c in terms.items():
            g = math.gcd(m, x)
            top = m // g * x
            product[m] += s * c
            product[top] = product.get(top, 0) + t * c * g
        terms = product
    return terms


def _checked(a: ExponentVector, support: Iterable[int], value: int) -> int:
    """`value`, the kappa of `support`, refused if negative."""
    if value < 0:
        raise HomologyInvariantError(f"negative kappa on the support {tuple(support)} of {a.a}")
    return value


def _kappa_raw(a: ExponentVector, support: Iterable[int]) -> int:
    """Kappa of `support`, no size restriction on it: the product of
    (Lambda_{a_j} - 1) over j in `support`, as {lcm: coefficient}, summed.
    """
    support = tuple(support)
    return _checked(a, support, sum(_ring_product([a.a[j] for j in support]).values()))


def divisor_product(a: ExponentVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The product of (Lambda_{a_j} - 1) over every exponent: its lcms
    ascending, which are the subset lcms, and their coefficients.

    Built on first read and kept in `a.derived`.  Its coefficient sum, the
    kappa of the full support, is checked on the build, so a corrupted
    product is refused even where no later read sums it whole.
    """
    product = a.derived.get("divisor product")
    if product is None:
        terms = _ring_product(a.a)
        _checked(a, range(len(a)), sum(terms.values()))
        lcms = tuple(sorted(terms))
        product = a.derived["divisor product"] = (lcms, tuple(map(terms.__getitem__, lcms)))
    return product


def type_times(a: ExponentVector) -> list[int]:
    """The subset lcms m with |J_m| >= 2, J_m = {j : a_j | m}, ascending:
    the orbit types' return times.

    Every key of `divisor_product` but 1 is the lcm of a nonempty subset
    inside J_m, and J_m = {j} only when m = a_j and no other exponent
    divides a_j, so no key needs its J_m spelled out.
    """
    alone = {x for x in a.a if [x % y for y in a.a].count(0) == 1}
    return [m for m in divisor_product(a)[0] if m != 1 and m not in alone]


def closed_kappa(a: ExponentVector, m: int) -> int:
    """Kappa of J_m = {j : a_j | m} for any m >= 1, J_m empty or a single
    index included: the orbit type of time m, a torsion level, or the
    middle rank at m = lcm(a).

    The subsets inside J_m are those whose lcm divides m, so the product
    over J_m is the full product (`divisor_product`) on the lcms dividing
    m, times (-1)^(k - |J_m|): one scan of the lcms up to m.
    """
    lcms, coefficients = divisor_product(a)
    below = bisect_right(lcms, m)
    total = sum(compress(coefficients, map(not_, map(mod, repeat(m, below), lcms))))
    J = [j for j, x in enumerate(a.a) if not m % x]
    return _checked(a, J, -total if (len(a.a) - len(J)) % 2 else total)


def kappa(a: ExponentVector, support: Iterable[int]) -> int:
    """Rank of the middle homology of the submanifold spanned by `support`."""
    support = tuple(support)
    if len(support) < 2:
        raise ValueError("support needs at least two indices")
    if len(set(support)) != len(support) or not set(support) <= set(range(len(a))):
        raise ValueError("support must be a subset of the exponent indices")
    return _kappa_raw(a, support)


def torsion(a: ExponentVector) -> tuple[int, ...]:
    """Orders (d_1, ..., d_r) of the cyclic torsion of the middle homology.

    d_j is the product of C(S) over the proper subsets S with an odd
    complement and kappa(S) >= j, so it changes only where j passes such a
    kappa; the tuple ends at the last d_j > 1.  C(S) is the multiplicative
    Möbius transform of gcd(a_i : i not in S), in closed form the gcd of the
    complement K over the lcm of the gcds of K + j for j in S (see the
    module docstring).  C(S) > 1 needs gcd(a_{K + j}) < g = gcd(a_K) for
    every j in S, that is g dividing no a_j outside K, so K is closed:
    K = {i : g | a_i}.  Only these complements, one per gcd value g > 1 of
    the subsets, are read: C(S) = g / lcm_{j in S} gcd(g, a_j) = g / gcd(g, m),
    m = lcm(a_S), and kappa(S) only where C(S) > 1, so every run's order
    exceeds the next one's.  An a_i in K dividing m would make C(S) = 1, so
    there S = J_m and kappa(S) is `closed_kappa` at m.

    A torsion of more than MAX_TORSION_FACTORS cyclic factors is refused
    with its runs named before any tuple is built.
    """
    factor: dict[int, int] = {}  # kappa value -> product of the C > 1 it carries
    for g in _closure(set(a.a), math.gcd, 0) - {0, 1}:
        outside = [x for x in a.a if x % g]  # the exponents of S
        m = math.lcm(*outside)
        c = g // math.gcd(g, m)
        if (len(a) - len(outside)) % 2 == 1 and c > 1:  # S is J_m, and |K| is odd
            level = closed_kappa(a, m)
            if level > 0:
                factor[level] = factor.get(level, 1) * c

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
    if sum(length for _, length in runs) > MAX_TORSION_FACTORS:
        named = " + ".join(f"(Z/{d})^{length}" for d, length in runs)
        raise ValueError(f"torsion {named} has more than {MAX_TORSION_FACTORS} "
                         "cyclic factors: too large to write")
    return tuple(chain.from_iterable(repeat(d, length) for d, length in runs))


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
    middle = closed_kappa(a, a.lcm())
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


def orbit_space_betti(size: int, extra: int) -> tuple[int, ...]:
    """Betti numbers, degrees 0..2*size-4, of an orbit space on `size` indices
    whose support has kappa `extra`.

    Rank 1 in every even degree, plus `extra` in the middle degree.  When
    `size` is odd the middle degree is odd and `extra` is the only
    contribution there.
    """
    dim = 2 * size - 4
    ranks = [1 if q % 2 == 0 else 0 for q in range(dim + 1)]
    ranks[dim // 2] += extra
    return tuple(ranks)


def orbit_space_rational_homology(a: ExponentVector, support: tuple[int, ...]) -> tuple[int, ...]:
    """Betti numbers of the orbit space attached to `support`, degrees 0..2|support|-4."""
    return orbit_space_betti(len(support), kappa(a, support))  # kappa validates the support
