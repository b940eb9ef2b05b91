"""Maslov indices of orbit spaces, computed in exact integer arithmetic.

The index of a loop of unitary rotations through a total angle of `turns`
full revolutions is 2*turns when the loop closes up, and 2*floor(turns)+1
otherwise.  Summing that over the coordinate rotations of the flow and
subtracting the two-plane the ambient space adds gives the index of an
orbit space.  Whether indices grow or shrink with the period is governed
by the sign of sum(1/a_j) - 1.

Each route also runs over many iterates at once: `maslov_orbit_space_batch`
gives the validity and closed-formula index of every (type, N) it is
handed, and `maslov_crosscheck_batch` the unitary-path index, each with one
C-level `map` per exponent over all the iterates instead of one Python call
per iterate.  `crosscheck_rows` audits a report's rows with one call of
each batch, and names the first faulty row from the batches' own values.
The scalar routes are the reference the tests hold the batches to; no
audit calls them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, and_, attrgetter, floordiv, gt, mod, mul, neg, not_, sub

from .orbits import OrbitType, valid_multiplier
from .randell import ExponentVector, HomologyInvariantError

POSITIVE = "positive"
NEGATIVE = "negative"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class IndexCharacter:
    """Growth behaviour of Maslov indices: the sign of sum(1/a_j) - 1."""

    sign: str
    reciprocal_sum: Fraction

    @property
    def is_positive(self) -> bool:
        return self.sign == POSITIVE

    @property
    def is_negative(self) -> bool:
        return self.sign == NEGATIVE

    @property
    def is_degenerate(self) -> bool:
        return self.sign == DEGENERATE


def classify_index(a: ExponentVector) -> IndexCharacter:
    total = a.reciprocal_sum()
    if total > 1:
        sign = POSITIVE
    elif total < 1:
        sign = NEGATIVE
    else:
        sign = DEGENERATE
    return IndexCharacter(sign=sign, reciprocal_sum=total)


def _unitary(num: int, den: int) -> int:
    # Index of the rotation through num/den > 0 turns: 2q when it closes
    # up (r = 0), 2q + 1 otherwise.
    q, r = divmod(num, den)
    return 2 * q + (r != 0)


def maslov_unitary(turns: Fraction | int) -> int:
    """Index of a unitary rotation path through `turns` full revolutions.

    `turns` is an exact rational, an int or a `Fraction` (angle divided by
    2*pi), and must be positive.  Integral turns close the path: index
    2*turns.  Otherwise the index is 2*floor(turns) + 1.
    """
    if type(turns) not in (int, Fraction):
        raise ValueError(f"rotation turns must be an int or a Fraction, not {turns!r}")
    turns = Fraction(turns)
    if turns <= 0:
        raise ValueError("rotation angle must be positive")
    return _unitary(turns.numerator, turns.denominator)


def _index_formula(a: ExponentVector, t: OrbitType, N: int) -> int:
    # 2*sum over J of N*m/a_j (exact division there, since a_j | m) plus
    # 2*sum of floors outside J, plus #(I-J), minus 2*N*m.  For positive
    # ints // is both at once.  Exact on any N; the caller decides whether
    # validity matters.
    total = N * t.m
    return 2 * sum(map(total.__floordiv__, a.a)) + (len(a.a) - len(t.J)) - 2 * total


def maslov_orbit_space(a: ExponentVector, t: OrbitType, N: int) -> int:
    """Maslov index of the N-fold cover of the orbit space of type `t`.

    Requires N to keep the iterate inside the type: otherwise the orbit
    belongs to a larger space and this formula does not apply to it.
    """
    if not valid_multiplier(a, t, N):
        raise ValueError("iterate leaves orbit type")
    return _index_formula(a, t, N)


def maslov_crosscheck(a: ExponentVector, t: OrbitType, N: int) -> int:
    """Same index by the ambient-minus-complement route.

    Sum of unitary-path indices of the coordinate rotations, minus the
    index of the complementary two-plane rotation.  No validity check, so
    tests can observe exactly where the closed formula stops applying:
    for invalid N the two computations differ precisely on the indices j
    outside J whose a_j divides N*m.
    """
    if N < 1:
        raise ValueError("multiplier must be a positive integer")
    total = N * t.m
    return sum(map(_unitary, repeat(total), a.a)) - _unitary(total, 1)


def maslov_orbit_space_batch(
    a: ExponentVector, types: Sequence[OrbitType], multipliers: Sequence[int]
) -> tuple[list[bool], list[int]]:
    """`valid_multiplier` and the closed formula of `maslov_orbit_space` at
    once for the iterates (types[i], multipliers[i]).

    Returns each iterate's validity (N >= 1 and exactly |J| exponents divide
    N*m) and its closed-formula index, which is exact on any N, valid or not
    (the formula is `_index_formula`'s).  Raises nothing: the caller reads
    the validity.
    """
    totals = list(map(mul, map(attrgetter("m"), types), multipliers))
    sizes = list(map(len, map(attrgetter("J"), types)))
    zeros = map(sum, zip(*[map(not_, map(mod, totals, repeat(x))) for x in a.a]))
    floors = map(sum, zip(*[map(floordiv, totals, repeat(x)) for x in a.a]))
    valid = list(map(and_, map(int.__eq__, zeros, sizes), map(gt, multipliers, repeat(0))))
    k = len(a.a)
    return valid, [2 * (f - t) + k - s for f, t, s in zip(floors, totals, sizes)]


def maslov_crosscheck_batch(
    a: ExponentVector, types: Sequence[OrbitType], multipliers: Sequence[int]
) -> list[int]:
    """`maslov_crosscheck` at once for the iterates (types[i], multipliers[i]).

    Each index is sum_j (floor(N*m/a_j) + ceil(N*m/a_j)) - 2*N*m, the
    unitary-path sum with ceil(x) = -floor(-x): equal to `maslov_crosscheck`
    for every N >= 1, valid or not.  No check on N.
    """
    totals = list(map(mul, map(attrgetter("m"), types), multipliers))
    negated = list(map(neg, totals))
    turns = map(sum, zip(*[
        map(sub, map(floordiv, totals, repeat(x)), map(floordiv, negated, repeat(x)))
        for x in a.a
    ]))
    return [u - 2 * t for u, t in zip(turns, totals)]


def crosscheck_rows(a: ExponentVector, rows: Sequence[tuple[int, int, int, int, int]]) -> int:
    """Check the `(m, N, j, degree, count)` rows of a report by both index
    routes; return how many were checked.

    The index depends on (m, N) only, so each distinct pair goes through
    each batch once, and each row's degree must be that index plus j and
    its type's shift (n - 3) - (|J| - 2).  Only the types the rows name are
    built: m is a type's time when J = {i : a_i | m} has |J| >= 2 and
    lcm(a_J) = m.  On a fault the rows are walked in order against the
    batches' own values, and the first faulty one is raised.
    """
    if not rows:
        return 0
    values = a.a
    ms, Ns, js, degrees, _ = zip(*rows)
    types = {m: OrbitType(m=m, J=tuple([i for i, x in enumerate(values) if not m % x]))
             for m in dict.fromkeys(ms)}
    timed = {m: len(t.J) >= 2 and lcm(*(values[i] for i in t.J)) == m for m, t in types.items()}
    offsets = {m: (len(values) - 4) - (len(t.J) - 2) for m, t in types.items()}  # n = k - 1
    pairs = list(dict.fromkeys(zip(ms, Ns)))
    pair_ms, pair_Ns = zip(*pairs)
    pair_types = list(map(types.__getitem__, pair_ms))
    valid, closed = maslov_orbit_space_batch(a, pair_types, pair_Ns)
    unitary = maslov_crosscheck_batch(a, pair_types, pair_Ns)
    bases = dict(zip(pairs, map(add, closed, map(offsets.__getitem__, pair_ms))))
    if (all(timed.values()) and all(valid) and closed == unitary
            and tuple(map(add, map(bases.__getitem__, zip(ms, Ns)), js)) == degrees):
        return len(rows)
    batched = dict(zip(pairs, zip(valid, closed, unitary)))
    for m, N, j, degree, _ in rows:
        ok, index, indirect = batched[m, N]
        if not (timed[m] and ok):
            raise HomologyInvariantError(f"row at m={m}, N={N} is not an iterate of an orbit type")
        if index != indirect:
            raise HomologyInvariantError(f"index mismatch for m={m}, N={N}: {index} != {indirect}")
        if (scanned := degree - j - offsets[m]) != index:
            raise HomologyInvariantError(f"degree {degree} at m={m}, N={N}, j={j} puts the index"
                                         f" at {scanned}, both routes give {index}")
    raise AssertionError("the batched check failed on rows the walk passes")
