"""Output checks for the benchmark, by routes independent of the program.

Each check takes a query, the exit code and the captured stdout/stderr of
one `brieskorn-ch` call and returns a list of problems (empty when the
output is right).  The arithmetic here shares no code with the package:

- middle rank: Brieskorn's eigenvalue count #{k : 0<k_i<a_i, sum k_i/a_i
  in Z}, as a character sum over Z/lcm(a);
- homotopy sphere: Brieskorn's graph criterion on pairwise gcds;
- contact homology: a scan that starts each orbit type at the first
  multiplier whose degree band can reach the window, with indices by the
  unitary-path route (2x for integral x, 2*floor(x)+1 otherwise);
- iterated sums and `sum`: closed forms r*c + (r-1)*beta.

The one call into the package is `maslov_crosscheck`, which re-derives
every provenance entry of a `ch --provenance` report.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations


def eigen_count(exponents) -> int:
    """#{k : 0 < k_i < a_i, sum k_i/a_i integral}, averaged over characters.

    For j mod L = lcm(a), sum_{k=1}^{a-1} exp(2 pi i jk/a) is a - 1 when
    a | j and -1 otherwise; the count is the mean over j of the products.
    """
    L = math.lcm(*exponents)
    total = 0
    for j in range(L):
        prod = 1
        for a in exponents:
            prod *= a - 1 if j % a == 0 else -1
        total += prod
    return total // L


def graph_sphere(exponents) -> bool:
    """Brieskorn's criterion for a homology sphere (dimension >= 5).

    Join i, j when gcd(a_i, a_j) > 1.  The link is a sphere iff the graph
    has two isolated points, or one isolated point and an odd component
    in which every pair has gcd exactly 2.
    """
    k = len(exponents)
    adj = [
        [j for j in range(k) if j != i and math.gcd(exponents[i], exponents[j]) > 1]
        for i in range(k)
    ]
    isolated = sum(1 for i in range(k) if not adj[i])
    if isolated >= 2:
        return True
    if isolated == 0:
        return False
    seen: set[int] = set()
    for i in range(k):
        if i in seen or not adj[i]:
            continue
        comp, stack = {i}, [i]
        while stack:
            for j in adj[stack.pop()]:
                if j not in comp:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        if len(comp) % 2 == 1 and all(
            math.gcd(exponents[x], exponents[y]) == 2 for x, y in combinations(comp, 2)
        ):
            return True
    return False


def reciprocal_sum(exponents) -> Fraction:
    return sum((Fraction(1, a) for a in exponents), Fraction(0))


def _unitary(total: int, a: int) -> int:
    # Index of a rotation through total/a full turns.
    return 2 * (total // a) + (1 if total % a else 0)


class ContactOracle:
    """Generator counts of one exponent vector, scanned window by window."""

    def __init__(self, exponents):
        self.a = tuple(exponents)
        self.n = len(self.a) - 1
        self.sigma = reciprocal_sum(self.a)
        self.L = math.lcm(*self.a)
        times = {
            math.lcm(*(self.a[i] for i in sub))
            for size in range(2, len(self.a) + 1)
            for sub in combinations(range(len(self.a)), size)
        }
        self.types = [  # (m, J)
            (m, tuple(j for j, aj in enumerate(self.a) if m % aj == 0)) for m in sorted(times)
        ]
        self._ranks: dict[int, list[int]] = {}

    def orbit_ranks(self, m: int, J: tuple[int, ...]) -> list[int]:
        """Rational homology ranks of the orbit space of type (m, J)."""
        if m not in self._ranks:
            dim = 2 * len(J) - 4
            ranks = [1 - q % 2 for q in range(dim + 1)]
            ranks[dim // 2] += eigen_count([self.a[j] for j in J])
            self._ranks[m] = ranks
        return self._ranks[m]

    @property
    def degenerate(self) -> bool:
        return self.sigma == 1

    def period_shift(self) -> int:
        return 2 * sum(self.L // a for a in self.a) - 2 * self.L

    def _multipliers(self, m, J, lo, hi):
        # index = sum of unitary indices - 2Nm lies within n+1 of s*N, so a
        # degree in [lo, hi] needs s*N within `margin` of the window.
        n = self.n
        s = 2 * m * (self.sigma - 1)
        base_shift = (n - 3) - (len(J) - 2)
        margin = (n + 1) + abs(base_shift) + 2 * len(J) + 1
        if s > 0:
            first, last = math.ceil((lo - margin) / s), math.floor((hi + margin) / s)
        else:
            first, last = math.ceil((hi + margin) / s), math.floor((lo - margin) / s)
        return range(max(first, 1), last + 1)

    def contributions(self, lo: int, hi: int) -> list[tuple[int, int, int, int, int]]:
        """(m, N, j, degree, count) with degree in [lo, hi], sorted like the CLI."""
        out = []
        n = self.n
        for m, J in self.types:
            outside = [aj for j, aj in enumerate(self.a) if j not in J]
            base_shift = (n - 3) - (len(J) - 2)
            for N in self._multipliers(m, J, lo, hi):
                total = N * m
                if any(total % aj == 0 for aj in outside):
                    continue
                index = sum(_unitary(total, aj) for aj in self.a) - 2 * total
                for j, count in enumerate(self.orbit_ranks(m, J)):
                    degree = index + base_shift + j
                    if count and lo <= degree <= hi:
                        out.append((m, N, j, degree, count))
        return out

    def ranks(self, lo: int, hi: int) -> dict[int, int]:
        ranks: dict[int, int] = {}
        for *_, degree, count in self.contributions(lo, hi):
            ranks[degree] = ranks.get(degree, 0) + count
        return ranks

    def well_defined(self) -> bool:
        return not self.contributions(-1, 1)

    def lowest_possible_degree(self) -> int:
        """A degree no generator goes below (index-positive vectors only)."""
        if self.sigma <= 1:
            raise ValueError("degrees are bounded below only for index-positive vectors")
        return min(
            math.floor(2 * m * (self.sigma - 1)) - 2 * (self.n + 1) - 2 * len(J)
            for m, J in self.types
        )


def _character(sigma: Fraction) -> dict:
    sign = "positive" if sigma > 1 else "negative" if sigma < 1 else "degenerate"
    return {"sign": sign, "reciprocal_sum": str(sigma)}


def _pairs(d: dict[int, int]) -> list[list[int]]:
    return [[k, v] for k, v in sorted(d.items()) if v]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _envelope(problems, stdout, command):
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None
    _expect(problems, "schema_version", env.get("schema_version"), "1")
    _expect(problems, "command", env.get("command"), command)
    return env


def check_homology(query, code, stdout, stderr) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    env = _envelope(problems, stdout, "homology")
    if env is None:
        return problems
    a = query.exponents
    n = len(a) - 1
    p = env["payload"]
    kappa = eigen_count(a)
    tors = p["torsion"]
    _expect(problems, "middle rank (eigenvalue count)", p["middle_rank"], kappa)
    if any(d <= 1 for d in tors) or any(x % y for x, y in zip(tors, tors[1:])):
        problems.append(f"torsion {tors} is not a divisibility chain of orders > 1")
    graded = [{"degree": 0, "rank": 1, "torsion": []}]
    if kappa or tors:
        graded.append({"degree": n - 1, "rank": kappa, "torsion": tors})
    if kappa:
        graded.append({"degree": n, "rank": kappa, "torsion": []})
    graded.append({"degree": 2 * n - 1, "rank": 1, "torsion": []})
    _expect(problems, "graded layout", p["graded"], graded)
    sphere = graph_sphere(a)
    _expect(problems, "homotopy sphere (graph criterion)", p["homotopy_sphere"], sphere)
    _expect(problems, "homotopy sphere vs groups", sphere, kappa == 0 and not tors)
    _expect(problems, "input echo", env["input"], {"exponents": list(a)})
    return problems


def check_ch(query, code, stdout, stderr) -> list[str]:
    problems: list[str] = []
    oracle = ContactOracle(query.exponents)
    lo, hi = query.window
    env = _envelope(problems, stdout, "ch")
    if env is None:
        return problems
    _expect(
        problems,
        "input echo",
        env["input"],
        {
            "exponents": list(query.exponents),
            "window": [lo, hi],
            "provenance": query.provenance,
            "crosscheck": query.crosscheck,
        },
    )
    p = env["payload"]
    if oracle.degenerate:
        _expect(problems, "exit code", code, 2)
        _expect(problems, "payload", p, {
            "exponents": list(query.exponents),
            "error": "degenerate",
            "character": _character(oracle.sigma),
        })
        return problems

    contribs = oracle.contributions(lo, hi)
    ranks: dict[int, int] = {}
    for *_, degree, count in contribs:
        ranks[degree] = ranks.get(degree, 0) + count
    well_defined = oracle.well_defined()
    _expect(problems, "exit code", code, 0 if well_defined else 3)
    _expect(problems, "character", p["character"], _character(oracle.sigma))
    _expect(problems, "ranks", p["ranks"], {"window": [lo, hi], "ranks": _pairs(ranks)})
    _expect(problems, "period shift", p["period_shift"], oracle.period_shift())
    _expect(
        problems,
        "period multipliers",
        p["period_multipliers"],
        [[m, oracle.L // m] for m, _ in oracle.types],
    )
    _expect(problems, "well defined", p["well_defined"], well_defined)
    if query.provenance:
        listed = p.get("contributions", [])
        summed: dict[int, int] = {}
        for c in listed:
            summed[c["degree"]] = summed.get(c["degree"], 0) + c["count"]
        _expect(problems, "ranks vs summed provenance", _pairs(summed), p["ranks"]["ranks"])
        _expect(
            problems,
            "provenance",
            [(c["m"], c["N"], c["j"], c["degree"], c["count"]) for c in listed],
            contribs,
        )
        problems.extend(crosscheck_with_package(oracle, listed))
    elif "contributions" in p:
        problems.append("contributions listed without --provenance")
    if query.crosscheck:
        note = f"crosscheck: {len(contribs)} contributions verified by both routes"
        if note not in stderr:
            problems.append(f"stderr lacks {note!r}")
    return problems


def crosscheck_with_package(oracle: ContactOracle, listed: list[dict]) -> list[str]:
    """Re-derive each listed degree through the package's `maslov_crosscheck`."""
    from brieskorn_ch import ExponentVector, OrbitType, maslov_crosscheck

    a = ExponentVector(oracle.a)
    problems = []
    n = oracle.n
    for c in listed:
        J = tuple(j for j, aj in enumerate(oracle.a) if c["m"] % aj == 0)
        index = maslov_crosscheck(a, OrbitType(m=c["m"], J=J), c["N"])
        degree = index + (n - 3) + c["j"] - (len(J) - 2)
        if degree != c["degree"]:
            problems.append(f"crosscheck degree {degree} != listed {c['degree']} for {c}")
    return problems


def _tube(n: int, degree: int) -> int:
    return 1 if degree >= 2 * n - 3 and (degree - (2 * n - 3)) % 2 == 0 else 0


def sphere_clauses(primes) -> tuple[dict, dict[int, int]]:
    """Verdict fields of the special-sphere check and the sphere's counts."""
    a = tuple(primes) + (2, 2)
    n = len(a) - 1
    oracle = ContactOracle(a)
    counts = oracle.ranks(0, 2 * n - 2)
    positive = oracle.sigma > 1
    below = oracle.ranks(oracle.lowest_possible_degree(), 2 * n - 5) if positive else {}
    verdict = {
        "primes": list(primes),
        "is_homotopy_sphere": graph_sphere(a),
        "low_degree_rank": counts.get(2 * n - 4, 0),
        "tube_degree_rank": counts.get(2 * n - 3, 0),
        "ranks_below": _pairs(below),
        "well_defined": oracle.well_defined(),
        "index_positive": positive,
    }
    failing = []
    if not verdict["is_homotopy_sphere"]:
        failing.append("not a homotopy sphere")
    if verdict["low_degree_rank"] < 2:
        failing.append("fewer than two generators in degree 2n-4")
    if verdict["tube_degree_rank"] != 0:
        failing.append("generators present in degree 2n-3")
    if below:
        failing.append("generators below degree 2n-4")
    if not (verdict["well_defined"] and positive):
        failing.append("homology not well defined or not index-positive")
    verdict["passed"] = not failing
    verdict["failing_clauses"] = failing
    return verdict, counts


def check_exotic(query, code, stdout, stderr) -> list[str]:
    problems: list[str] = []
    env = _envelope(problems, stdout, "exotic")
    if env is None:
        return problems
    primes, r = query.primes, query.copies
    n = len(primes) + 1
    verdict, counts = sphere_clauses(primes)
    p = env["payload"]
    _expect(problems, "verdict", p["verdict"], verdict)
    _expect(problems, "exit code", code, 0 if verdict["passed"] else 4)
    if not verdict["passed"]:
        return problems
    rows = p["iterated_counts"]
    _expect(problems, "ladder length", len(rows), r)
    if not rows:
        return problems
    first = rows[0]
    _expect(problems, "r=1 row", (first["low_degree"], first["tube_degree"]),
            (counts.get(2 * n - 4, 0), counts.get(2 * n - 3, 0)))
    for copies, row in enumerate(rows, start=1):
        want = {
            "copies": copies,
            "low_degree": copies * first["low_degree"] + (copies - 1) * _tube(n, 2 * n - 4),
            "tube_degree": copies * first["tube_degree"] + (copies - 1) * _tube(n, 2 * n - 3),
        }
        if row != want:
            _expect(problems, f"ladder row {copies}", row, want)
            break
    cutoff = 2 * n - 2
    final = {
        d: r * counts.get(d, 0) + (r - 1) * _tube(n, d) for d in range(cutoff + 1)
    }
    _expect(problems, "final counts", p["final_counts"],
            {"counts": _pairs(final), "cutoff": cutoff, "half_dim_n": n})
    return problems


def counts_of_envelope(env: dict) -> tuple[dict[int, int], int, int]:
    """(counts, cutoff, n) carried by a `ch` or `sum` envelope."""
    p = env["payload"]
    if "generator_counts" in p:
        g = p["generator_counts"]
        return {d: c for d, c in g["counts"]}, g["cutoff"], g["half_dim_n"]
    return {d: c for d, c in p["ranks"]["ranks"]}, p["ranks"]["window"][1], len(p["exponents"]) - 1


def expected_sum(inputs: list[dict], cutoff_arg: int | None) -> dict:
    """generator_counts of the sum of `inputs`: pointwise plus k-1 tubes."""
    parts = [counts_of_envelope(env) for env in inputs]
    n = parts[0][2]
    cutoff = min(c for _, c, _ in parts)
    total: dict[int, int] = {}
    for counts, _, _ in parts:
        for d, c in counts.items():
            if d <= cutoff:
                total[d] = total.get(d, 0) + c
    for d in range(2 * n - 3, cutoff + 1, 2):
        total[d] = total.get(d, 0) + len(parts) - 1
    if cutoff_arg is not None:
        cutoff = min(cutoff, cutoff_arg)
        total = {d: c for d, c in total.items() if d <= cutoff}
    return {"counts": _pairs(total), "cutoff": cutoff, "half_dim_n": n}


def check_sum(query, code, stdout, stderr) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", code, 0)
    env = _envelope(problems, stdout, "sum")
    if env is None:
        return problems
    inputs = []
    for path in query.files:
        with open(path, encoding="utf-8") as handle:
            inputs.append(json.load(handle))
    _expect(problems, "generator counts", env["payload"]["generator_counts"],
            expected_sum(inputs, query.cutoff))
    _expect(problems, "input echo", env["input"],
            {"files": list(query.files), "beta_n": None, "cutoff": query.cutoff})
    return problems


CHECKS = {
    "homology": check_homology,
    "ch": check_ch,
    "exotic": check_exotic,
    "sum": check_sum,
}


def check(query, code, stdout, stderr) -> list[str]:
    """Problems with one call's output; empty when it is right."""
    try:
        return CHECKS[query.command](query, code, stdout, stderr)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
