"""Enumeration of Reeb orbit types for the diagonal flow on a Brieskorn manifold.

The flow rotates coordinate j at speed 1/a_j, so a point returns to itself
at time (pi/2)m exactly when a_j divides m for every coordinate j in its
support.  An orbit type is therefore described by an integer m (the return
time with the pi/2 factor divided out) together with the full divisor set
J = {j : a_j | m}; the pair is redundant (m = lcm of the exponents over J)
but both views are used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import lcm_set, subsets  # unused, kept for perfbench's tracer
from .randell import ExponentVector


@dataclass(frozen=True)
class OrbitType:
    """Orbit family with return time (pi/2)m, supported on the index set J."""

    m: int
    J: tuple[int, ...]

    @property
    def orbit_space_dim(self) -> int:
        return 2 * len(self.J) - 4


def enumerate_orbit_types(a: ExponentVector) -> list[OrbitType]:
    """All orbit types, ascending by return time.

    Every index subset of size >= 2 produces a candidate return time (its
    lcm, read from the vector's subset table); distinct subsets can share
    one, so types are keyed by the time and carry the largest generating set.
    """
    times = {m for mask, m in enumerate(a.subset_lcm) if mask.bit_count() >= 2}
    types = []
    for m in sorted(times):
        J = tuple(j for j, aj in enumerate(a) if m % aj == 0)
        assert a.subset_lcm[sum(1 << j for j in J)] == m, "divisor set must regenerate its time"
        types.append(OrbitType(m=m, J=J))
    return types


def valid_multiplier(a: ExponentVector, t: OrbitType, N: int) -> bool:
    """True when the N-fold iterate still has exactly the type `t`.

    Equivalently: no exponent outside J divides N*m, so the iterate has
    not been absorbed into a larger orbit space.
    """
    if N < 1:
        raise ValueError("multiplier must be a positive integer")
    total = N * t.m
    inside = set(t.J)
    return all(total % aj for j, aj in enumerate(a) if j not in inside)
