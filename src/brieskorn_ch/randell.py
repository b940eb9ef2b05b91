"""Homology of Brieskorn manifolds by subset arithmetic on the exponents.

A Brieskorn manifold is cut out of the unit sphere in C^(n+1) by
z_0^{a_0} + ... + z_n^{a_n} = 0, so everything topological about it is a
function of the exponent vector (a_0, ..., a_n).  The free rank of the
middle homology is an alternating sum of products-over-lcm terms taken
over subsets of the exponents (Randell's kappa), an additive Möbius
transform over the bitmask tables of the subsets that each exponent vector
builds once, and the orbit types and orbifolds read.  The torsion's factor
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

import functools
import math
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import gcd_set, lcm_set, subsets  # unused, kept for perfbench's tracer

MAX_EXPONENTS = 16  # a vector's subset tables hold 2^k entries


class HomologyInvariantError(RuntimeError):
    """An internal invariant failed.

    A kappa or a torsion factor that must be a nonnegative integer came out
    otherwise, or the two routes to a Maslov index disagreed.
    """


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

    def lcm(self) -> int:
        return self.subset_lcm[-1]

    @cached_property
    def subset_lcm(self) -> list[int]:
        """Lcm of the exponents over each index subset, by bitmask, built on first use."""
        return _subset_table(self.a, math.lcm, 1)

    @cached_property
    def subset_gcd(self) -> list[int]:
        """Gcd of the exponents over each index subset, by bitmask (0 on the empty set)."""
        return _subset_table(self.a, math.gcd, 0)

    @cached_property
    def subset_kappa(self) -> list[int]:
        """Kappa of each index subset, by bitmask, built on first use: the additive
        Möbius transform of Randell's prod(a_T) // lcm(a_T); entry S is kappa of S alone.
        """
        prods = _subset_table(self.a, operator.mul, 1)
        table = list(map(operator.floordiv, prods, self.subset_lcm))
        _moebius(table, len(self.a))
        if min(table) < 0:
            raise HomologyInvariantError(f"negative kappa on a subset of {self.a}")
        return table

    @cached_property
    def derived(self) -> dict:
        """Tables later stages build from this vector alone (the contact scan's
        orbit-type plans), kept for as long as the vector, like its subset tables.
        """
        return {}

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


def _subset_table(a: tuple[int, ...], op: Callable[[int, int], int], empty: int) -> list[int]:
    """`op` over each index subset of `a`, by bitmask: each exponent doubles the table."""
    table = [empty]
    for x in a:
        table += [op(v, x) for v in table]
    return table


@functools.cache
def _bit_halves(width: int) -> tuple[tuple[slice, slice], ...]:
    """Slice pairs (lo, hi) that pair each mask of `width` bits lacking a bit
    with the mask that adds it, bit by bit from the lowest.

    Per bit, the fewest slices cover the two halves: strided slices while the
    bit is low, contiguous blocks once it is high, min(2^i, 2^(width-i-1))
    pairs for bit i.
    """
    size = 1 << width
    pairs = []
    for i in range(width):
        bit = 1 << i
        step = bit << 1
        if bit <= size // step:
            pairs += [(slice(r, size, step), slice(r + bit, size, step)) for r in range(bit)]
        else:
            pairs += [(slice(s, s + bit), slice(s + bit, s + step)) for s in range(0, size, step)]
    return tuple(pairs)


def _moebius(table: list[int], width: int) -> list[int]:
    """Turn table[S] = sum of f(T) over T ⊆ S into f(S), in place.

    The table holds the 2^width masks of `width` bits.
    """
    sub = operator.sub
    for lo, hi in _bit_halves(width):
        table[hi] = map(sub, table[hi], table[lo])
    return table


def _kappa_raw(a: ExponentVector, support: Iterable[int]) -> int:
    """Kappa of `support`; no size restriction on it."""
    return a.subset_kappa[sum(1 << i for i in support)]


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
    kappa; trivial factors 1 are dropped.  C(S) is the multiplicative Möbius
    transform of gcd(a_i : i not in S), in closed form the gcd of the
    complement K over the lcm of the gcds of K + j for j in S (see the
    module docstring); the lcm is checked to divide the gcd on every S.

    That check runs edge by edge: the lcm divides gcd(a_K) exactly when each
    gcd(a_{K + j}) does, so one pass per bit over the gcd table covers every
    S, and the first S in mask order that fails is the least complement of
    a failing edge (K, K + j), so no mask is rescanned to name it.  C(S) > 1
    needs gcd(a_{K + j}) < g = gcd(a_K) for every j in S, that is g dividing
    no a_j outside K, so K is closed: K = {i : g | a_i}.  Only these
    complements, one per gcd value g > 1 of the subsets, are read.
    """
    k = len(a)
    full = (1 << k) - 1
    kap = a.subset_kappa
    gcds = a.subset_gcd
    if any(any(map(operator.mod, gcds[lo], gcds[hi])) for lo, hi in _bit_halves(k)):
        # The least failing S is the complement of the largest failing K.
        masks = range(full + 1)
        rest = max(K for lo, hi in _bit_halves(k)
                   for K, g, h in zip(masks[lo], gcds[lo], gcds[hi]) if g % h)
        sub = tuple(j for j in range(k) if not rest >> j & 1)
        den = math.lcm(*(gcds[rest | 1 << j] for j in sub))
        raise HomologyInvariantError(f"C{sub} = {gcds[rest]}/{den} is not integral for {tuple(a)}")
    factor: dict[int, int] = {}  # kappa value -> product of the C it carries
    # The masks with gcd g are closed under union, so the last of them is
    # the closed K_g; g = 0 is the empty set and g = 1 gives C(S) = 1.
    closures = dict(zip(gcds, range(full + 1)))
    del closures[0]
    closures.pop(1, None)
    for g, closed in closures.items():
        mask = full ^ closed
        if closed.bit_count() % 2 == 1 and kap[mask] > 0:
            den = math.lcm(*(gcds[closed | 1 << j] for j in range(k) if mask >> j & 1))
            factor[kap[mask]] = factor.get(kap[mask], 1) * (g // den)

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
    middle = _kappa_raw(a, range(len(a)))
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


def orbit_space_rational_homology(a: ExponentVector, support: tuple[int, ...]) -> tuple[int, ...]:
    """Betti numbers of the orbit space attached to `support`, degrees 0..2|support|-4.

    Rank 1 in every even degree, plus kappa of the support in the middle
    degree.  When |support| is odd the middle degree is odd and the kappa
    part is the only contribution there.
    """
    extra = kappa(a, support)  # validates the support
    dim = 2 * len(support) - 4
    ranks = [1 if q % 2 == 0 else 0 for q in range(dim + 1)]
    ranks[dim // 2] += extra
    return tuple(ranks)
