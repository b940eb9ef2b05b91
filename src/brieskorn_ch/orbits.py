"""Enumeration of Reeb orbit types for the diagonal flow on a Brieskorn manifold.

The flow rotates coordinate j at speed 1/a_j, so a point returns to itself
at time (pi/2)m exactly when a_j divides m for every coordinate j in its
support.  An orbit type is therefore described by an integer m (the return
time with the pi/2 factor divided out) together with the full divisor set
J = {j : a_j | m}; the pair is redundant (m = lcm of the exponents over J)
but both views are used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import lcm_set, subsets  # unused, kept for perfbench's tracer
from .randell import ExponentVector, _closure


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

    The return times are the lcms of the index subsets of size >= 2.  Every
    subset lcm m is walked once, with its divisor set J = {j : a_j | m};
    m is a type's time when |J| >= 2, and then lcm(a_J) = m, so each type
    carries the largest subset generating its time.
    """
    types = []
    for m in sorted(_closure(a, math.lcm, 1)):
        J = tuple([j for j, aj in enumerate(a.a) if not m % aj])
        if len(J) >= 2:
            types.append(OrbitType(m=m, J=J))
    return types


def valid_multiplier(a: ExponentVector, t: OrbitType, N: int) -> bool:
    """True when the N-fold iterate still has exactly the type `t`.

    Equivalently: no exponent outside J divides N*m, so the iterate has
    not been absorbed into a larger orbit space.  Every exponent in J
    divides m, so that holds exactly when |J| exponents divide N*m.
    """
    if N < 1:
        raise ValueError("multiplier must be a positive integer")
    total = N * t.m
    return [total % aj for aj in a.a].count(0) == len(t.J)
