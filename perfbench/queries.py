"""Seeded query lists for the three benchmark workloads.

A workload is one pass: a fixed-length list of CLI calls drawn from the
seed.  The parameter that sets a query's cost (torsion work, scan length,
ladder length) is stratified: one query per equal slice of its range, so
two seeds give passes of about the same cost and the same cost quantiles
while sharing no query.  Costs are computed from the inputs, never
measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from oracle import ContactOracle, reciprocal_sum, sphere_clauses

# Calls made once in every set-up, whatever the workload, so that lazy
# imports and first-call caches inside the interpreter are filled.
WARMUP = (
    ["homology", "2", "2", "2", "2", "2", "2"],
    ["orbits", "6", "2", "2", "2"],
    ["ch", "6", "2", "2", "2", "--window", "0:12", "--provenance", "--crosscheck"],
    ["exotic", "--primes", "3", "5", "--copies", "3"],
)


@dataclass(frozen=True)
class Query:
    command: str
    argv: tuple[str, ...]
    exponents: tuple[int, ...] = ()
    window: tuple[int, int] = (0, 0)
    provenance: bool = False
    crosscheck: bool = False
    primes: tuple[int, ...] = ()
    copies: int = 0
    files: tuple[str, ...] = ()
    cutoff: int | None = None


def _stratified(rng: random.Random, count: int) -> list[float]:
    """The midpoints of `count` equal slices of [0, 1), in random order."""
    points = [(i + 0.5) / count for i in range(count)]
    rng.shuffle(points)
    return points


def _flags(rng: random.Random, count: int, share: float) -> list[bool]:
    on = round(count * share)
    flags = [True] * on + [False] * (count - on)
    rng.shuffle(flags)
    return flags


# ---------------------------------------------------------------------------
# homology_lattice: `full_homology` costs ~3^k (kappa of every subset) plus
# r * 2^k, the torsion loop up to the largest kappa r over subsets with an
# odd complement.  Both k and r vary: for each k, candidates are sorted by
# r * 2^k and one query is taken from each equal-count slice.

# Queries per k, fewer where each costs more, so that a pass stays near a
# second and every query is sampled often.
HOMOLOGY_PER_SIZE = {6: 20, 7: 16, 8: 12, 9: 6}
HOMOLOGY_CANDIDATES = 4  # per query kept
HOMOLOGY_TORSION_CAP = 1_500_000  # r * 2^k


def torsion_work(a) -> int:
    """r * 2^k for exponents `a`, with kappa of every subset by Moebius inversion.

    kappa(S) = sum over T in S of (-1)^|S-T| prod(a_T) / lcm(a_T) (Randell).
    Used only to size inputs, never to check outputs.
    """
    k = len(a)
    g = [1] * (1 << k)
    lcms = [1] * (1 << k)
    for S in range(1, 1 << k):
        low, rest = (S & -S).bit_length() - 1, S & (S - 1)
        lcms[S] = math.lcm(lcms[rest], a[low])
        g[S] = g[rest] * a[low]
    g = [p // m for p, m in zip(g, lcms)]
    for i in range(k):
        bit = 1 << i
        for S in range(1 << k):
            if S & bit:
                g[S] -= g[S ^ bit]
    r = max(g[S] for S in range(1 << k) if (k - bin(S).count("1")) % 2)
    return r << k


def homology_queries(seed: int) -> list[Query]:
    rng = random.Random(f"homology_lattice/{seed}")
    queries = []
    for k, count in HOMOLOGY_PER_SIZE.items():
        candidates = []
        while len(candidates) < count * HOMOLOGY_CANDIDATES:
            heavy = rng.randint(0, k)
            a = [rng.randint(3, 8) for _ in range(heavy)] + [2] * (k - heavy)
            rng.shuffle(a)
            work = torsion_work(a)
            if work <= HOMOLOGY_TORSION_CAP:
                candidates.append((work, tuple(a)))
        candidates.sort()
        for i in range(count):
            _, a = candidates[i * HOMOLOGY_CANDIDATES + rng.randrange(HOMOLOGY_CANDIDATES)]
            queries.append(Query("homology", ("homology", *map(str, a)), exponents=a))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# ch_window: windows two periods wide, near and far from degree 0.  The
# current scan walks every multiplier from N = 1, so a query's cost follows
# the multipliers below the far edge, summed over orbit types.  Each query
# draws that scan length log-uniformly (stratified) and places its window
# at the offset that gives it, so cost, not offset, is what is spread
# evenly: offsets come out between about 3 and 11000 (median about 500),
# and a window near 0 that scans fewer than CH_SCAN_MIN multipliers in
# all is never drawn.  Passes of two seeds then cost about the same.

CH_SIZES = (4, 5, 6)
CH_PER_CLASS = 12  # per (size, character sign)
CH_DEGENERATE = 6
CH_SCAN_MIN, CH_SCAN_MAX = 300, 3_000  # multipliers scanned
CH_WINDOW_SCAN_MAX = 1_500  # of them inside the window, which bounds the output
CH_MAX_OFFSET = 100_000
CH_PROVENANCE_SHARE = 0.3
CH_CROSSCHECK_SHARE = 0.3


def _ch_window(rng: random.Random, k: int, positive: bool, t: float):
    """Exponents and window of one query whose scan length is set by t."""
    scan = CH_SCAN_MIN * (CH_SCAN_MAX / CH_SCAN_MIN) ** t
    while True:
        a = tuple(rng.randint(2, 9) for _ in range(k))
        excess = reciprocal_sum(a) - 1
        if excess == 0 or (excess > 0) != positive:
            continue
        L = math.lcm(*a)
        width = 4 * L * abs(excess)  # two periods of 2L(sum 1/a - 1)
        # multipliers per degree of far edge: sum over types of 1/|2m(sum 1/a - 1)|
        per_degree = sum(Fraction(1, m) for m, _ in ContactOracle(a).types) / (2 * abs(excess))
        offset = round(scan / per_degree - width)
        if 1 <= offset <= CH_MAX_OFFSET and width * per_degree <= CH_WINDOW_SCAN_MAX:
            lo, hi = (offset, offset + width) if positive else (-offset - width, -offset)
            return a, (int(lo), int(hi))


def _degenerate_vectors() -> list[tuple[int, ...]]:
    # sum 1/a = 1 exactly, tested in integers over lcm(2..12) = 27720
    return [
        a
        for k in CH_SIZES
        for a in combinations_with_replacement(range(2, 13), k)
        if sum(27720 // x for x in a) == 27720
    ]


def _window_arg(lo: int, hi: int) -> str:
    return f"--window={lo}:{hi}"


def ch_queries(seed: int) -> list[Query]:
    rng = random.Random(f"ch_window/{seed}")
    slots = [(k, positive) for k in CH_SIZES for positive in (True, False)]
    total = len(slots) * CH_PER_CLASS
    provenance = _flags(rng, total, CH_PROVENANCE_SHARE)
    crosscheck = _flags(rng, total, CH_CROSSCHECK_SHARE)
    queries = []
    i = 0
    for k, positive in slots:
        for t in _stratified(rng, CH_PER_CLASS):
            a, (lo, hi) = _ch_window(rng, k, positive, t)
            argv = ["ch", *map(str, a), _window_arg(lo, hi)]
            argv += ["--provenance"] * provenance[i] + ["--crosscheck"] * crosscheck[i]
            queries.append(Query(
                "ch", tuple(argv), exponents=a, window=(lo, hi),
                provenance=provenance[i], crosscheck=crosscheck[i],
            ))
            i += 1
    pool = _degenerate_vectors()
    for _ in range(CH_DEGENERATE):
        a = list(rng.choice(pool))
        rng.shuffle(a)
        argv = ("ch", *map(str, a), _window_arg(0, 20))
        queries.append(Query("ch", argv, exponents=tuple(a), window=(0, 20)))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# sphere_ladder: `exotic --copies r` folds r - 1, r - 2, ... sums, O(r^2);
# `sum` folds envelopes the tool wrote itself during set-up.

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
LADDER_PER_N = 30  # exotic queries for each of n = 3, 4
LADDER_MAX_COPIES = 400
LADDER_FAIL_EVERY = 4
SUM_PER_N = 8
SUM_POOL_CH = 4  # ch envelopes per n; two more sum envelopes are made from them
SUM_CUTOFF_SHARE = 1 / 3


def _pool_vectors(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    # Index-positive and well defined, with the window starting at 0, so
    # every envelope carries all its generators up to its cutoff.
    chosen = []
    while len(chosen) < SUM_POOL_CH:
        a = tuple(rng.choice(ODD_PRIMES) for _ in range(n - 1)) + (2, 2)
        oracle = ContactOracle(a)
        if oracle.sigma > 1 and oracle.well_defined():
            chosen.append(a)
    return chosen


def sum_pool(seed: int) -> list[tuple[int, Query, str]]:
    """(n, query, path) of the envelopes `sum` queries read, in write order.

    Paths are relative to the checkout root.  Later entries may read
    earlier ones, so they must be written in this order.
    """
    rng = random.Random(f"sum_pool/{seed}")
    base = f".perfbench/sum-inputs/seed-{seed}"
    pool = []
    for n in (3, 4):
        made = []
        for i, a in enumerate(_pool_vectors(rng, n)):
            hi = rng.randint(2 * n, 2 * n + 16)
            path = f"{base}/n{n}-ch{i}.json"
            argv = ("ch", *map(str, a), _window_arg(0, hi))
            pool.append((n, Query("ch", argv, exponents=a, window=(0, hi)), path))
            made.append(path)
        for i in range(2):
            parts = rng.sample(made, rng.randint(2, 3))
            path = f"{base}/n{n}-sum{i}.json"
            pool.append((n, Query("sum", ("sum", *parts), files=tuple(parts)), path))
    return pool


def _primes(rng: random.Random, n: int, passing: bool, verdicts: dict) -> tuple[int, ...]:
    while True:
        primes = tuple(rng.choice(ODD_PRIMES) for _ in range(n - 1))
        key = tuple(sorted(primes))
        if key not in verdicts:
            verdicts[key] = sphere_clauses(key)[0]["passed"]
        if verdicts[key] == passing:
            return primes


def ladder_queries(seed: int) -> list[Query]:
    rng = random.Random(f"sphere_ladder/{seed}")
    queries = []
    verdicts: dict = {}
    for n in (3, 4):
        # A failing tuple stops before the ladder, so every fourth length,
        # in ascending order, gets one: the passing lengths stay stratified.
        for i, t in enumerate(sorted(_stratified(rng, LADDER_PER_N))):
            primes = _primes(rng, n, i % LADDER_FAIL_EVERY != 1, verdicts)
            copies = max(1, round(LADDER_MAX_COPIES**t))
            argv = ("exotic", "--primes", *map(str, primes), "--copies", str(copies))
            queries.append(Query("exotic", argv, primes=primes, copies=copies))
    files_by_n: dict[int, list[str]] = {}
    for n, _, path in sum_pool(seed):
        files_by_n.setdefault(n, []).append(path)
    for n in (3, 4):
        cut = _flags(rng, SUM_PER_N, SUM_CUTOFF_SHARE)
        for i in range(SUM_PER_N):
            files = tuple(rng.choice(files_by_n[n]) for _ in range(rng.randint(2, 6)))
            argv = ["sum", *files]
            cutoff = None
            if cut[i]:
                cutoff = rng.randint(2 * n - 3, 2 * n + 12)
                argv += ["--cutoff", str(cutoff)]
            queries.append(Query("sum", tuple(argv), files=files, cutoff=cutoff))
    rng.shuffle(queries)
    return queries


GENERATORS = {
    "homology_lattice": homology_queries,
    "ch_window": ch_queries,
    "sphere_ladder": ladder_queries,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[Query]:
    return GENERATORS[workload](seed)


def write_sum_pool(seed: int, call) -> list[tuple[Query, str]]:
    """Write the `sum` input envelopes with the tool itself.

    `call(argv)` runs one CLI call and returns its stdout.  Returns the
    (query, path) pairs written; a wrong envelope fails its own check and
    every `sum` query that reads it.
    """
    written = []
    for _, query, path in sum_pool(seed):
        stdout = call(list(query.argv))
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(stdout, encoding="utf-8")
        written.append((query, path))
    return written
