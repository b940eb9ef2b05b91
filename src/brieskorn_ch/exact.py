"""Exact integer helpers: gcd and lcm over a collection, and subset streams.

No stage of the pipeline calls them.  They are kept for `tests/test_exact.py`
and for perfbench's tracer, which wraps the names `randell` and `orbits`
import from here.

All quantities live in unbounded Python ints (and ``fractions.Fraction``
where a quotient appears); nothing here ever touches floating point.
Index subsets are plain sorted tuples of ints.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import combinations


def gcd_set(values: Iterable[int]) -> int:
    """Greatest common divisor of a nonempty collection."""
    vals = tuple(values)
    if not vals:
        raise ValueError("empty gcd")
    return math.gcd(*vals)


def lcm_set(values: Iterable[int]) -> int:
    """Least common multiple; the empty collection yields 1."""
    return math.lcm(*values)


def subsets(ground: Iterable[int], min_size: int = 0) -> Iterator[tuple[int, ...]]:
    """All subsets of `ground` with at least `min_size` elements.

    Deterministic order: ascending by size, lexicographic within a size.
    """
    base = tuple(sorted(ground))
    for size in range(min_size, len(base) + 1):
        yield from combinations(base, size)
