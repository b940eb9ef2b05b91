"""Command line front end.

Subcommands mirror the pipeline stages: `homology` (integral homology of
the manifold), `orbits` (orbit types and the index character), `ch`
(graded contact homology report), `sum` (connected-sum counting on saved
reports) and `exotic` (special-sphere construction and iterated sums).

Reports go to stdout as a versioned JSON envelope (or an aligned text
table with the same numbers); diagnostics go to stderr.  Exit codes:

    0  success
    1  usage or malformed input, schema mismatch, or an answer too large to write
    2  degenerate character (sum of reciprocal exponents is 1)
    3  contact homology not well defined (generators in degree -1, 0, 1)
    4  special-sphere check failed
    5  internal invariant failed (a homology or index check inside the
       computation; a bug, reported with its reason)

Window syntax is LO:HI, inclusive on both ends; use --window=-30:0 for
negative lower edges so the shell token is not read as a flag.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, reduce
from itertools import count
from json.encoder import encode_basestring_ascii
from operator import add, itemgetter

from .connected_sum import (
    GeneratorCounts,
    SpecialSphereVerdict,
    beta,
    combine,
    iterated_sphere_sum,
    special_sphere_check,
    sphere_exponents,
)
from .contact import CHReport, DegenerateContactFormError, GradedRanks, ch_report, period_shift
from .maslov import (
    classify_index,
    maslov_crosscheck,
    maslov_crosscheck_batch,
    maslov_orbit_space,
    maslov_orbit_space_batch,
)
from .orbits import OrbitType, enumerate_orbit_types
from .randell import (
    MAX_TORSION_FACTORS,
    ExponentVector,
    HomologyInvariantError,
    HomologyReport,
    full_homology,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NOT_WELL_DEFINED = 3
EXIT_SPHERE_CHECK = 4
EXIT_INVARIANT = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is taken by the
    # degenerate gate, so usage problems are rerouted to exit 1, the exit
    # of every ValueError that reaches `main`.
    def error(self, message):
        raise ValueError(message)


def _parse_window(text: str) -> tuple[int, int]:
    lo_str, sep, hi_str = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("window must look like LO:HI")
    try:
        lo, hi = int(lo_str), int(hi_str)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("window bounds must be integers") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError("window must satisfy LO <= HI")
    return lo, hi


# ---------------------------------------------------------------------------
# report objects -> JSON values

# Payload fields that differ from the dataclass: (fields left out, derived fields).
_OVERRIDES = {
    HomologyReport: (("full_graded",), lambda r: {"graded": [
        {"degree": degree, "rank": rank, "torsion": list(tors)}
        for degree, (rank, tors) in sorted(r.full_graded.items())
    ]}),
    OrbitType: (("J",), lambda t: {"support": list(t.J), "orbit_space_dim": t.orbit_space_dim}),
    SpecialSphereVerdict: ((), lambda v: {
        "passed": v.passed, "failing_clauses": list(v.failing_clauses()),
    }),
    # Rows are written only when asked for: there can be thousands.
    CHReport: (("rows",), lambda r: {}),
}


@cache
def _field_names(kind: type) -> tuple[str, ...]:
    left_out = _OVERRIDES.get(kind, ((),))[0]
    return tuple(f.name for f in fields(kind) if f.name not in left_out)


_INT = {int}  # the item types of an array of exact ints


def json_value(obj):
    """JSON value of a report object, by its exact type.

    A dict (the reports' int maps: ranks, period multipliers, counts)
    becomes a keyless `_Table` of its (key, value) rows sorted by key, a
    dataclass its {field: value} with the `_OVERRIDES` applied.
    """
    kind = type(obj)
    if kind is int or kind is bool or kind is str:
        return obj
    if kind is tuple or kind is list:
        if {*map(type, obj)} == _INT:  # torsion orders, supports: copied whole
            return list(obj)
        return [json_value(item) for item in obj]
    if kind is dict:
        return _Table(None, sorted(obj.items()))
    if kind is ExponentVector:
        return list(obj.a)
    if kind is Fraction:
        return str(obj)
    out = {name: json_value(getattr(obj, name)) for name in _field_names(kind)}
    if kind in _OVERRIDES:
        out.update(_OVERRIDES[kind][1](obj))
    return out


@dataclass(frozen=True)
class _Table:
    """Int rows, written as a list of arrays (`keys` None) or of {key: cell} objects.

    The rows stay the tuples they were computed as; no per-row list or dict
    is built.  The rows of a keyless table share one width.
    """

    keys: tuple[str, ...] | None
    rows: tuple[tuple[int, ...], ...] | list[tuple[int, ...]]


_CONTRIBUTION_KEYS = ("m", "N", "j", "degree", "count")
_ITERATED_KEYS = ("copies", "low_degree", "tube_degree")


@cache
def _row_template(keys: tuple[str, ...] | None, width: int, pad: str):
    """`%`-template of one table row of `width` ints whose closing bracket sits
    on `pad`, and the getter that puts a row's cells in its order: an array
    and no getter when `keys` is None, else an object with the keys sorted.
    """
    inner = pad + "  "
    if keys is None:
        return "[" + inner + ("," + inner).join(["%d"] * width) + pad + "]", None
    order = sorted(range(width), key=keys.__getitem__)
    items = [encode_basestring_ascii(keys[i]).replace("%", "%%") + ": %d" for i in order]
    return "{" + inner + ("," + inner).join(items) + pad + "}", itemgetter(*order)


def _dumps(value, pad: str = "\n") -> str:
    """The text of `json.dumps(value, sort_keys=True, indent=2)`, byte for byte.

    `pad` is the newline and indent the value's closing bracket sits on.
    A `_Table` is written as its list of arrays or {key: cell} objects,
    each row through one `%`-template cached per table shape (keys, width,
    indent); its cells are ints by construction (`%d` would write a bool as
    1, where JSON needs true).  A list or tuple of exact ints is written in
    one join.  Every other value is written item by item, strings through
    the C escaper.
    The standard library's indented encoder is pure Python and takes
    twice as long on large envelopes.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if kind is _Table:
        keys, rows = value.keys, value.rows
        if not rows:
            return "[]"
        inner = pad + "  "
        template, cells = _row_template(keys, len(rows[0]), inner)
        items = map(template.__mod__, rows if cells is None else map(cells, rows))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(key)}: {_dumps(value[key], inner)}"
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        if {*map(type, value)} == _INT:  # a bool is no int here: it keeps the item path
            items = map(str, value)
        else:
            items = [_dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value)  # true, false, null


# ---------------------------------------------------------------------------
# text rendering

def _group_str(rank: int, tors: list[int]) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in tors)
    return " + ".join(parts) if parts else "0"


def _render_text(envelope: dict) -> str:
    command, payload = envelope["command"], envelope["payload"]
    lines = [f"command: {command}"]
    if "exponents" in payload:
        lines.append(f"exponents: {tuple(payload['exponents'])}")
    if "error" in payload:
        lines.append(f"error: {payload['error']}")
    elif "character" in payload:
        char = payload["character"]
        lines.append(f"character: {char['sign']} (sum 1/a = {char['reciprocal_sum']})")
    if command == "homology":
        lines.append(f"description: {payload['description']}")
        lines.append(f"middle rank: {payload['middle_rank']}")
        tors = payload["torsion"]
        lines.append(f"torsion: {tuple(tors) if tors else '(none)'}")
        for entry in payload["graded"]:
            group = _group_str(entry["rank"], entry["torsion"])
            lines.append(f"H_{entry['degree']} = {group}")
    elif command == "orbits":
        lines.append("orbit types:")
        for t in payload["orbit_types"]:
            support = ",".join(str(j) for j in t["support"])
            lines.append(
                f"  m={t['m']:<6d} J={{{support}}}  dim={t['orbit_space_dim']}"
            )
    elif command == "ch" and "error" not in payload:
        lines.append(f"period shift: {payload['period_shift']}")
        steps = ", ".join(f"m={m}: {s}" for m, s in payload["period_multipliers"].rows)
        lines.append(f"period multipliers: {steps}")
        lines.append(f"well defined: {'yes' if payload['well_defined'] else 'no'}")
        window = payload["ranks"]["window"]
        lines.append(f"ranks on [{window[0]}, {window[1]}]:")
        lines.append("  degree  rank")
        for degree, rank in payload["ranks"]["ranks"].rows:
            lines.append(f"  {degree:>6d}  {rank:>4d}")
        if "contributions" in payload:
            for m, N, j, degree, count in payload["contributions"].rows:
                lines.append(f"  from m={m} N={N} j={j}: {count} in degree {degree}")
    elif command == "sum":
        counts = payload["generator_counts"]
        lines.append(f"half-dimension n: {counts['half_dim_n']}")
        lines.append(f"cutoff: {counts['cutoff']}")
        lines.append("  degree  count")
        for degree, count in counts["counts"].rows:
            lines.append(f"  {degree:>6d}  {count:>5d}")
    elif command == "exotic":
        verdict = payload["verdict"]
        lines.append(f"primes: {tuple(verdict['primes'])}")
        lines.append(f"check passed: {verdict['passed']}")
        for clause in verdict["failing_clauses"]:
            lines.append(f"  failing: {clause}")
        if "iterated_counts" in payload:
            lines.append("  copies  deg 2n-4 (>=)  deg 2n-3 (exact)")
            for copies, low, tube in payload["iterated_counts"].rows:
                lines.append(f"  {copies:>6d}  {low:>13d}  {tube:>16d}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands: each returns (payload, diagnostics, exit code); `main` echoes
# the arguments, so a command that resolves a default writes it to `args`

def _cmd_homology(args):
    a = ExponentVector(tuple(args.exponents))
    return json_value(full_homology(a)), [], EXIT_OK


def _cmd_orbits(args):
    a = ExponentVector(tuple(args.exponents))
    character = classify_index(a)
    payload = {
        "exponents": list(a),
        "character": json_value(character),
        "orbit_types": json_value(enumerate_orbit_types(a)),
    }
    diagnostics = []
    if character.is_degenerate:
        diagnostics.append(
            "character is degenerate; contact homology is not defined for this input"
        )
    return payload, diagnostics, EXIT_OK


def _default_window(a: ExponentVector) -> tuple[int, int]:
    # Two periods of the repeating pattern, on the side the degrees grow.
    shift = period_shift(a)
    if shift >= 0:
        return (0, max(2 * shift, 2))
    return (2 * shift, 0)


def _run_crosscheck(a: ExponentVector, report: CHReport) -> int:
    # The index depends on (m, N) only, so each distinct pair is checked
    # once, by both routes in one batch over the whole report; every row's
    # degree must then sit at that index plus the type's constant shift
    # (n - 3) - (|J| - 2).  Only the types the rows name are built, once
    # each: m is a type's time when J = {i : a_i | m} has two or more
    # indices and lcm(a_J) = m.  Any fault sends the rows through
    # `_raise_first_fault`, which names the first faulty one.
    rows = report.rows
    if not rows:
        return 0
    ms, Ns, js, degrees, _ = zip(*rows)
    types = {m: OrbitType(m=m, J=tuple([i for i, x in enumerate(a) if not m % x]))
             for m in dict.fromkeys(ms)}
    timed = all(len(t.J) >= 2 and math.lcm(*(a[i] for i in t.J)) == m for m, t in types.items())
    offsets = {m: (a.n - 3) - (len(t.J) - 2) for m, t in types.items()}
    pairs = list(dict.fromkeys(zip(ms, Ns)))
    pair_ms, pair_Ns = zip(*pairs)
    pair_types = list(map(types.__getitem__, pair_ms))
    valid, closed = maslov_orbit_space_batch(a, pair_types, pair_Ns)
    unitary = maslov_crosscheck_batch(a, pair_types, pair_Ns)
    bases = dict(zip(pairs, map(add, closed, map(offsets.__getitem__, pair_ms))))
    if not (timed and all(valid) and closed == unitary
            and tuple(map(add, map(bases.__getitem__, zip(ms, Ns)), js)) == degrees):
        _raise_first_fault(a, rows, types, dict(zip(pairs, zip(closed, unitary))))
    return len(rows)


def _raise_first_fault(
    a: ExponentVector,
    rows: tuple[tuple[int, int, int, int, int], ...],
    types: dict[int, OrbitType],
    batched: dict[tuple[int, int], tuple[int, int]],
) -> None:
    """Raise the error of the first faulty row, found by the scalar routes.

    Rows are read in order, each pair's index computed once by
    `maslov_orbit_space` and `maslov_crosscheck` and compared with the
    batch's two values (`batched`), so the first fault of the rows or of
    either route is the one named.
    """
    indices: dict[tuple[int, int], int] = {}
    for m, N, j, degree, _ in rows:
        t = types[m]
        index = indices.get((m, N))
        if index is None:
            try:  # `maslov_orbit_space` refuses an N whose iterate leaves the type
                if len(t.J) < 2 or math.lcm(*(a[i] for i in t.J)) != m:
                    raise ValueError("no orbit type has this return time")
                index = maslov_orbit_space(a, t, N)
            except ValueError as exc:
                raise HomologyInvariantError(
                    f"row at m={m}, N={N} is not an iterate of an orbit type"
                ) from exc
            for indirect in (maslov_crosscheck(a, t, N), *batched[m, N]):
                if index != indirect:
                    raise HomologyInvariantError(
                        f"index mismatch for m={m}, N={N}: {index} != {indirect}"
                    )
            indices[m, N] = index
        scanned = degree - j - (a.n - 3) + (len(t.J) - 2)
        if scanned != index:
            raise HomologyInvariantError(
                f"degree {degree} at m={m}, N={N}, j={j} puts the index at {scanned},"
                f" both routes give {index}"
            )
    raise HomologyInvariantError("the batched validity check rejects a row the scalar one accepts")


def _cmd_ch(args):
    a = ExponentVector(tuple(args.exponents))
    if args.window is None:
        args.window = _default_window(a)
    try:
        report = ch_report(a, args.window)
    except DegenerateContactFormError as exc:
        payload = {
            "exponents": list(a),
            "error": "degenerate",
            "character": json_value(classify_index(a)),
        }
        return payload, [str(exc)], EXIT_DEGENERATE

    diagnostics = []
    if args.crosscheck:
        checked = _run_crosscheck(a, report)
        diagnostics.append(f"crosscheck: {checked} contributions verified by both routes")
    if any(degree % 2 for degree in report.ranks.ranks):
        diagnostics.append(
            "odd-degree generators present (an orbit space has odd middle homology)"
        )
    if not report.well_defined:
        diagnostics.append(
            "generators in degree -1, 0 or 1: not an invariant of the contact structure"
        )
    payload = json_value(report)
    if args.provenance:
        payload["contributions"] = _Table(_CONTRIBUTION_KEYS, report.rows)
    code = EXIT_OK if report.well_defined else EXIT_NOT_WELL_DEFINED
    return payload, diagnostics, code


def _counts_from_envelope(obj: dict) -> GeneratorCounts:
    if not isinstance(obj, dict) or obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"not a schema-{SCHEMA_VERSION} envelope")
    payload = obj.get("payload", {})
    if not isinstance(payload, dict):
        raise ValueError("malformed envelope payload")
    if "generator_counts" in payload:
        kind = "sum"
    elif "ranks" in payload and "exponents" in payload:
        kind = "ch"
    else:
        raise ValueError("envelope carries no generator counts")
    # JSON adds two faults the report types cannot see: a number that is
    # not an exact int, and a degree listed twice.  The types refuse the rest.
    try:
        if kind == "sum":
            raw = payload["generator_counts"]
            pairs, edges, n = raw["counts"], (raw["cutoff"],), raw["half_dim_n"]
        else:
            sign = payload.get("character", {}).get("sign")
            pairs, edges = payload["ranks"]["ranks"], tuple(payload["ranks"]["window"])
            n = ExponentVector(tuple(payload["exponents"])).n
        counts = dict(pairs)
        numbers = (*counts, *counts.values(), *edges, n)
        if len(counts) != len(pairs) or any(type(x) is not int for x in numbers):
            raise ValueError("a repeated degree, or a number that is not an int (bool, float)")
        if kind == "sum":
            total = GeneratorCounts(counts=counts, cutoff=edges[0], half_dim_n=n)
        else:
            total = GeneratorCounts.of_ranks(GradedRanks(ranks=counts, window=edges), n)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} payload") from exc
    if kind == "ch":
        # Counts mean something only for an invariant whose degrees are
        # bounded below: a well-defined, index-positive report.
        if payload.get("well_defined") is not True:
            raise ValueError(
                "contact homology not well defined (generators in degree"
                " -1, 0 or 1); its counts cannot be summed"
            )
        if sign != "positive":
            raise ValueError(
                f"index character is {sign}, so degrees are unbounded below;"
                " only index-positive reports can be summed"
            )
        # Such a report has every generator in degree 2 or above (degrees
        # are >= -1 and none lie in -1, 0, 1), so a window starting at or
        # below 2 misses none of them.
        if edges[0] > 2:
            raise ValueError(
                f"window starts at {edges[0]}, so generators below it are missing;"
                " only reports whose window starts at or below 2 can be summed"
            )
    return total


def _cmd_sum(args):
    counts_list = []
    for path in args.files:
        # The one place that names the file, for every fault of reading or checking it.
        try:
            with open(path, encoding="utf-8") as handle:
                counts_list.append(_counts_from_envelope(json.load(handle)))
        except (OSError, ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from exc

    if args.beta_n is not None:
        for counts, path in zip(counts_list, args.files):
            if counts.half_dim_n != args.beta_n:
                raise ValueError(
                    f"{path}: half-dimension {counts.half_dim_n} != --beta-n {args.beta_n}"
                )
    dims = {counts.half_dim_n for counts in counts_list}
    if len(dims) > 1:
        raise ValueError(f"half-dimension mismatch across inputs: {sorted(dims)}")

    if args.cutoff is not None:
        # `combine` keeps the degrees up to the least cutoff, so trimming the
        # inputs first gives the same sum without the tubes above --cutoff.
        counts_list = [
            GeneratorCounts(
                counts={d: c for d, c in counts.counts.items() if d <= args.cutoff},
                cutoff=min(args.cutoff, counts.cutoff),
                half_dim_n=counts.half_dim_n,
            )
            for counts in counts_list
        ]
    return {"generator_counts": json_value(reduce(combine, counts_list))}, [], EXIT_OK


def _cmd_exotic(args):
    if args.copies > MAX_TORSION_FACTORS:  # one row per copy: refused before any is built
        raise ValueError(
            f"--copies {args.copies} asks for more than {MAX_TORSION_FACTORS} rows:"
            " too large to write"
        )
    primes = tuple(args.primes)
    a = sphere_exponents(primes)
    n = a.n
    if args.window is None:
        args.window = (0, 2 * n - 2)
    if not (args.window[0] <= 2 * n - 4 and 2 * n - 3 <= args.window[1]):
        raise ValueError("window must cover degrees 2n-4 and 2n-3")
    # Two exponents are 2, so the character is never degenerate here.
    report = ch_report(a, args.window)
    verdict = special_sphere_check(primes, report)
    if not verdict.passed:
        diagnostics = [f"failing clause: {c}" for c in verdict.failing_clauses()]
        return {"verdict": json_value(verdict)}, diagnostics, EXIT_SPHERE_CHECK

    sphere = GeneratorCounts.of_ranks(report.ranks, n)
    final = iterated_sphere_sum(sphere, args.copies)  # refuses fewer than one copy
    # The r-fold self-sum holds r copies of the sphere's counts and r - 1
    # tubes, so each column steps by one sphere and one tube per row.
    low, tube = (sphere[d] for d in (2 * n - 4, 2 * n - 3))
    rows = list(zip(
        range(1, args.copies + 1),
        count(low, low + beta(n, 2 * n - 4)),
        count(tube, tube + beta(n, 2 * n - 3)),
    ))
    payload = {
        "verdict": json_value(verdict),
        "iterated_counts": _Table(_ITERATED_KEYS, rows),
        "final_counts": json_value(final),
    }
    diagnostics = ["degree 2n-4 counts are lower bounds; degree 2n-3 counts are exact"]
    return payload, diagnostics, EXIT_OK


@cache  # parsing leaves the parsers as they were, so one set serves every call
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The full parser, and each subcommand's own parser by name."""
    parser = _Parser(prog="brieskorn-ch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("homology", _cmd_homology, "integral homology of the manifold"),
        ("orbits", _cmd_orbits, "orbit types and index character"),
        ("ch", _cmd_ch, "contact homology generator counts"),
        ("sum", _cmd_sum, "connected-sum generator counting"),
        ("exotic", _cmd_exotic, "special sphere and iterated sums"),
    )
    p = {name: sub.add_parser(name, help=help_text) for name, _, help_text in commands}
    for name in ("homology", "orbits", "ch"):
        p[name].add_argument("exponents", nargs="+", type=int)
    p["ch"].add_argument("--window", type=_parse_window, default=None, metavar="LO:HI")
    p["ch"].add_argument("--provenance", action="store_true", help="include contributions")
    p["ch"].add_argument(
        "--crosscheck",
        action="store_true",
        help="verify each distinct index by the independent unitary-path route",
    )
    p["sum"].add_argument("files", nargs="+", help="JSON envelopes from ch or sum")
    p["sum"].add_argument("--beta-n", type=int, default=None, dest="beta_n")
    p["sum"].add_argument("--cutoff", type=int, default=None)
    p["exotic"].add_argument("--primes", nargs="+", type=int, required=True)
    p["exotic"].add_argument("--copies", type=int, default=1)
    p["exotic"].add_argument("--window", type=_parse_window, default=None, metavar="LO:HI")
    for name, func, _ in commands:
        p[name].add_argument(
            "--format", choices=("json", "text"), default="json", help="output format"
        )
        p[name].set_defaults(func=func)
    return parser, p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _build_parser()
    try:
        # A leading subcommand name hands the rest straight to its parser,
        # which the full parser would reach with the same arguments; no
        # argument, -h, an unknown name or a leading option take the full one.
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        payload, diagnostics, code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HomologyInvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "input": {k: v for k, v in vars(args).items() if k not in ("command", "func", "format")},
        "payload": payload,
        "diagnostics": diagnostics,
    }
    for note in diagnostics:
        print(note, file=sys.stderr)
    if args.format == "json":
        sys.stdout.write(_dumps(envelope) + "\n")
    else:
        sys.stdout.write(_render_text(envelope))
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
