"""Command line front end.

Subcommands mirror the pipeline stages: `homology` (integral homology of
the manifold), `orbits` (orbit types and the index character), `ch`
(graded contact homology report), `sum` (connected-sum counting on saved
reports) and `exotic` (special-sphere construction and iterated sums).

Reports go to stdout as a versioned JSON envelope (or an aligned text
table with the same numbers); diagnostics go to stderr.  Commands return
the report objects themselves, and one writer walks them straight to the
text of `json.dumps(envelope, sort_keys=True, indent=2)`, through a layout
cached per report type and indent.  Exit codes:

    0  success
    1  usage or malformed input, schema mismatch, an answer too large to
       write, or a scan over its work budget (contact.MAX_SCAN_VISITS)
    2  degenerate character (sum of reciprocal exponents is 1)
    3  contact homology not well defined (generators in degree -1, 0, 1)
    4  special-sphere check failed
    5  internal invariant failed (a homology or index check inside the
       computation; a bug, reported with its reason)

Window syntax is LO:HI, inclusive on both ends; use --window=-30:0 for
negative lower edges so the shell token is not read as a flag.

Arguments are read in one left-to-right pass off one table of options per
subcommand, the table argparse's parsers are built from.  The pass takes
the subcommand name first, its positionals as one contiguous run (exponents
in decimal digits) and each option at most once, spelled in full as
--name value or --name=value, a value in a token of its own never starting
with "-".  Every other spelling (-h, an abbreviation, "--", a repeated
option, an unknown name, a missing --primes, a value its converter refuses,
an option before the subcommand) goes to argparse, which reads it to the
same namespace or refuses it with its usage message.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from functools import cache, reduce
from itertools import count
from operator import attrgetter, itemgetter, methodcaller
from types import SimpleNamespace

from _json import encode_basestring_ascii

from . import _PUBLIC

# The pipeline names this module reads are the package's public names
# (`_PUBLIC`, name -> module), none imported with this module.  Each is read as
# an attribute of the module itself, `_api.<name>`: `__getattr__` (PEP 562)
# resolves it on its first read and binds it, so a command loads only the stages
# it reads and calls a wrapper set on `cli.<name>`.  Bare reads skip `__getattr__`.
_api = sys.modules[__name__]  # under `python -m`, the `__main__` module


def __getattr__(name: str):
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, so later reads of the name skip this function
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NOT_WELL_DEFINED = 3
EXIT_SPHERE_CHECK = 4
EXIT_INVARIANT = 5


def _parse_window(text: str) -> tuple[int, int]:
    lo_str, sep, hi_str = text.partition(":")
    if not sep:
        raise ValueError("window must look like LO:HI")
    try:
        lo, hi = int(lo_str), int(hi_str)
    except ValueError as exc:
        raise ValueError("window bounds must be integers") from exc
    if lo > hi:
        raise ValueError("window must satisfy LO <= HI")
    return lo, hi


# ---------------------------------------------------------------------------
# report objects -> JSON text

# How a report type is written, by its name: a function giving the
# JSON value it stands for (an exponent vector is its exponents), or (fields
# left out, derived keys, each read by an attribute name or a function of the
# report) for a report written as an object of its fields.
_OVERRIDES = {
    "ExponentVector": attrgetter("a"),
    "IndexCharacter": ((), {"reciprocal_sum": lambda c: str(c.reciprocal_sum)}),
    "HomologyReport": (("full_graded",), {"graded": lambda r: _Table(
        keys=("degree", "rank", "torsion"),
        rows=[(degree, rank, tors) for degree, (rank, tors) in sorted(r.full_graded.items())],
    )}),
    "OrbitType": (("J",), {"support": "J", "orbit_space_dim": "orbit_space_dim"}),
    "SpecialSphereVerdict": ((), {"passed": "passed",
                                  "failing_clauses": methodcaller("failing_clauses")}),
    # Rows are written only when asked for (`ch --provenance`): there can be thousands.
    # The gate's ranks stay internal: `well_defined` is their verdict.
    "CHReport": (("rows", "gate_ranks"), {}),
}


# The writer's own two kinds of value are plain namespaces, not dataclasses:
# importing `dataclasses` (with `inspect`) is most of what importing this
# module would cost, and `-h` and a refused usage write no report.

class _Merged(SimpleNamespace):
    """A `report` written with more keys, the dict `extra`, beside its own."""


class _Table(SimpleNamespace):
    """Int `rows`, written as a list of arrays (`keys` None) or of {key: cell} objects.

    The rows stay the tuples they were computed as; no per-row list or dict
    is built.  The rows of a keyless table share one width; a keyed row's
    last cell may be a tuple of ints, written as an array.
    """


_INT = {int}  # the item types of an array of exact ints
_LITERALS = {True: "true", False: "false", None: "null"}


@cache
def _dict_layout(keys: tuple[str, ...], pad: str) -> tuple[tuple[str, ...], str]:
    """An object with these keys: the keys sorted, and its `%`-template, a
    `%s` per value, whose closing brace sits on `pad`."""
    ordered = tuple(sorted(keys))
    inner = pad + "  "
    items = [encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in ordered]
    return ordered, "{" + inner + ("," + inner).join(items) + pad + "}"


@cache
def _layout(kind: type, extra: tuple[str, ...], pad: str) -> tuple[str | None, Callable]:
    """A report of type `kind`, or a `_Merged` of one with the `extra` keys: its template, keys
    sorted, and one function reading their values (one `attrgetter` where all are attributes).
    A type `_OVERRIDES` writes as another value gets no template and its function."""
    from dataclasses import fields  # every report type is one: loaded with the reports

    entry = _OVERRIDES.get(kind.__name__, ((), {}))
    if type(entry) is not tuple:
        return None, entry
    left_out, derived = entry
    sources = {f.name: f.name for f in fields(kind) if f.name not in left_out}
    sources.update(derived)
    keys, template = _dict_layout((*sources, *extra), pad)
    names = [sources.get(key) for key in keys]  # None for an extra key
    if len(keys) > 1 and all(type(name) is str for name in names):
        return template, attrgetter(*names)
    getters = [attrgetter(name) if type(name) is str else name for name in names]
    if not extra:
        return template, lambda report: [get(report) for get in getters]
    return template, lambda merged: [
        merged.extra[key] if get is None else get(merged.report) for key, get in zip(keys, getters)
    ]


@cache
def _row_template(keys: tuple[str, ...] | None, width: int, pad: str):
    """`%`-template of one table row of `width` ints whose closing bracket
    sits on `pad`, and the getter that puts a row's cells in its order: an
    array and no getter when `keys` is None, else an object, keys sorted."""
    if keys is None:
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(["%d"] * width) + pad + "]", None
    ordered, template = _dict_layout(keys, pad)
    return template, itemgetter(*map(keys.index, ordered))


def _ints(values, pad: str) -> str:
    """An array of ints, its closing bracket on `pad`."""
    if not values:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(map(str, values)) + pad + "]"


def _table(keys: tuple[str, ...] | None, rows, pad: str) -> str:
    """Int rows, each through its table shape's cached template; the cells
    are ints by construction (a bool would be written 1 or True, not true),
    but for a keyed row's last, which may be a tuple of them."""
    if not rows:
        return "[]"
    inner = pad + "  "
    template, cells = _row_template(keys, len(rows[0]), inner)
    if type(rows[0][-1]) is tuple:  # a keyed table's array column
        deep = inner + "  "
        rows = [(*row[:-1], _ints(row[-1], deep)) for row in rows]
    items = map(template.__mod__, rows if cells is None else map(cells, rows))
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _members(template: str, values, pad: str, maps_as_rows: bool) -> str:
    """An object through its `%`-template, from its values in key order: an
    int or a str as its literal, a dict, where `maps_as_rows` (a report's
    int maps: ranks, period multipliers, counts), as its keyless rows
    [key, value] sorted by key, every other value through `_dumps`."""
    inner = pad + "  "
    return template % tuple([
        str(item) if type(item) is int else encode_basestring_ascii(item) if type(item) is str
        else _table(None, sorted(item.items()), inner) if maps_as_rows and type(item) is dict
        else _dumps(item, inner) for item in values
    ])


def _dumps(value, pad: str = "\n") -> str:
    """The text of `json.dumps(value, sort_keys=True, indent=2)`, byte for
    byte, each report object taken as the JSON value it stands for.

    `pad` is the newline and indent the closing bracket sits on.  A report
    is written through its type's `_layout`, a dict through the template
    of its keys; an `ExponentVector` is its exponents (`_OVERRIDES`).  The
    standard library's indented encoder is pure Python and takes twice as
    long on large envelopes.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if kind is dict:
        if not value:
            return "{}"
        keys, template = _dict_layout(tuple(value), pad)
        return _members(template, map(value.__getitem__, keys), pad, False)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        if {*map(type, value)} == _INT:  # a bool is no int here: it keeps the item path
            items = map(str, value)
        else:
            items = [_dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is _Table:
        return _table(value.keys, value.rows, pad)
    if kind is bool or value is None:
        return _LITERALS[value]
    if kind is _Merged:
        template, values = _layout(type(value.report), tuple(value.extra), pad)
    else:
        template, values = _layout(kind, (), pad)
        if template is None:
            return _dumps(values(value), pad)
    return _members(template, values(value), pad, True)


# ---------------------------------------------------------------------------
# text rendering

def _group_str(rank: int, tors: tuple[int, ...]) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in tors)
    return " + ".join(parts) if parts else "0"


def _character_line(character) -> str:
    return f"character: {character.sign} (sum 1/a = {character.reciprocal_sum})"


def _render_text(command: str, payload) -> str:
    """The `--format text` form of a payload, read off the same report objects."""
    lines = [f"command: {command}"]
    if command == "homology":
        tors = payload.torsion
        lines += [f"exponents: {payload.exponents.a}", f"description: {payload.description}",
                  f"middle rank: {payload.middle_rank}", f"torsion: {tors if tors else '(none)'}"]
        lines += [f"H_{degree} = {_group_str(rank, tors)}"
                  for degree, (rank, tors) in sorted(payload.full_graded.items())]
    elif command == "orbits":
        lines += [f"exponents: {payload['exponents'].a}", _character_line(payload["character"]),
                  "orbit types:"]
        lines += [f"  m={t.m:<6d} J={{{','.join(map(str, t.J))}}}  dim={t.orbit_space_dim}"
                  for t in payload["orbit_types"]]
    elif command == "ch" and type(payload) is dict:  # a degenerate character
        lines += [f"exponents: {payload['exponents'].a}", f"error: {payload['error']}"]
    elif command == "ch":
        report = payload.report if type(payload) is _Merged else payload
        steps = ", ".join(f"m={m}: {s}" for m, s in sorted(report.period_multipliers.items()))
        lo, hi = report.ranks.window
        lines += [f"exponents: {report.exponents.a}", _character_line(report.character),
                  f"period shift: {report.period_shift}", f"period multipliers: {steps}",
                  f"well defined: {'yes' if report.well_defined else 'no'}",
                  f"ranks on [{lo}, {hi}]:", "  degree  rank"]
        lines += [f"  {degree:>6d}  {rank:>4d}" for degree, rank in report.ranks.items()]
        if type(payload) is _Merged:
            lines += [f"  from m={m} N={N} j={j}: {count} in degree {degree}"
                      for m, N, j, degree, count in report.rows]
    elif command == "sum":
        counts = payload["generator_counts"]
        lines += [f"half-dimension n: {counts.half_dim_n}", f"cutoff: {counts.cutoff}",
                  "  degree  count"]
        lines += [f"  {degree:>6d}  {count:>5d}" for degree, count in sorted(counts.counts.items())]
    elif command == "exotic":
        verdict = payload["verdict"]
        lines += [f"primes: {verdict.primes}", f"check passed: {verdict.passed}"]
        lines += [f"  failing: {clause}" for clause in verdict.failing_clauses()]
        if "iterated_counts" in payload:
            lines.append("  copies  deg 2n-4 (>=)  deg 2n-3 (exact)")
            lines += [f"  {copies:>6d}  {low:>13d}  {tube:>16d}"
                      for copies, low, tube in payload["iterated_counts"].rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands: each returns (payload, diagnostics, exit code), the payload a
# report object or a dict of them; `main` echoes the arguments, so a command
# that resolves a default writes it to `args`

def _cmd_homology(args):
    a = _api.ExponentVector(tuple(args.exponents))
    return _api.full_homology(a), [], EXIT_OK


def _cmd_orbits(args):
    a = _api.ExponentVector(tuple(args.exponents))
    character = _api.classify_index(a)
    payload = {"exponents": a, "character": character,
               "orbit_types": _api.enumerate_orbit_types(a)}
    diagnostics = []
    if character.is_degenerate:
        diagnostics.append(
            "character is degenerate; contact homology is not defined for this input"
        )
    return payload, diagnostics, EXIT_OK


def _cmd_ch(args):
    a = _api.ExponentVector(tuple(args.exponents))
    if args.window is None:  # two periods of the repeating pattern, on the side the degrees grow
        shift = _api.period_shift(a)
        args.window = (0, max(2 * shift, 2)) if shift >= 0 else (2 * shift, 0)
    try:
        report = _api.ch_report(a, args.window)
    except _api.DegenerateContactFormError as exc:
        payload = {"exponents": a, "error": "degenerate", "character": _api.classify_index(a)}
        return payload, [str(exc)], EXIT_DEGENERATE

    diagnostics = []
    if args.crosscheck:
        checked = _api.crosscheck_rows(a, report.rows)
        diagnostics.append(f"crosscheck: {checked} contributions verified by both routes")
    if any(degree % 2 for degree in report.ranks.ranks):
        diagnostics.append("odd-degree generators present (an orbit space has odd middle homology)")
    if not report.well_defined:
        diagnostics.append(
            "generators in degree -1, 0 or 1: not an invariant of the contact structure"
        )
    payload = report
    if args.provenance:
        contributions = _Table(keys=("m", "N", "j", "degree", "count"), rows=report.rows)
        payload = _Merged(report=report, extra={"contributions": contributions})
    return payload, diagnostics, EXIT_OK if report.well_defined else EXIT_NOT_WELL_DEFINED


def _counts_from_envelope(obj: dict) -> _api.GeneratorCounts:
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
            n = _api.ExponentVector(tuple(payload["exponents"])).n
        counts = dict(pairs)
        numbers = (*counts, *counts.values(), *edges, n)
        if len(counts) != len(pairs) or any(type(x) is not int for x in numbers):
            raise ValueError("a repeated degree, or a number that is not an int (bool, float)")
        if kind == "sum":
            total = _api.GeneratorCounts(counts=counts, cutoff=edges[0], half_dim_n=n)
        else:
            total = _api.GeneratorCounts.of_ranks(_api.GradedRanks(ranks=counts, window=edges), n)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} payload") from exc
    if kind == "ch":
        # Counts mean something only for an invariant whose degrees are
        # bounded below: a well-defined, index-positive report.
        if payload.get("well_defined") is not True:
            raise ValueError("contact homology not well defined (generators in degree"
                             " -1, 0 or 1); its counts cannot be summed")
        if sign != "positive":
            raise ValueError(f"index character is {sign}, so degrees are unbounded below;"
                             " only index-positive reports can be summed")
        # Such a report has every generator in degree 2 or above (degrees
        # are >= -1 and none lie in -1, 0, 1), so a window starting at or
        # below 2 misses none of them.
        if edges[0] > 2:
            raise ValueError(f"window starts at {edges[0]}, so generators below it are missing;"
                             " only reports whose window starts at or below 2 can be summed")
    return total


def _cmd_sum(args):
    import json  # the one command that reads JSON

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

    # `combine` keeps the degrees up to the least cutoff and adds a tube count in every odd
    # degree from 2n - 3 up to it: the tubes are counted, and the inputs trimmed, before any sum.
    cutoff = min(counts.cutoff for counts in counts_list)
    cutoff = cutoff if args.cutoff is None else min(cutoff, args.cutoff)
    tubes = (cutoff - (2 * dims.pop() - 3)) // 2 + 1  # the odd degrees 2n - 3, ..., cutoff
    if len(counts_list) > 1 and tubes > _api.MAX_TORSION_FACTORS:
        raise ValueError(f"cutoff {cutoff} asks for more than {_api.MAX_TORSION_FACTORS}"
                         " tube degrees: too large to write")
    counts_list = [_api.GeneratorCounts({d: c for d, c in counts.counts.items() if d <= cutoff},
                                        cutoff, counts.half_dim_n) for counts in counts_list]
    return {"generator_counts": reduce(_api.combine, counts_list)}, [], EXIT_OK


def _cmd_exotic(args):
    if args.copies > _api.MAX_TORSION_FACTORS:  # one row per copy: refused before any is built
        raise ValueError(f"--copies {args.copies} asks for more than"
                         f" {_api.MAX_TORSION_FACTORS} rows: too large to write")
    primes = tuple(args.primes)
    a = _api.sphere_exponents(primes)
    n = a.n
    if args.window is None:
        args.window = (0, 2 * n - 2)
    if not (args.window[0] <= 2 * n - 4 and 2 * n - 3 <= args.window[1]):
        raise ValueError("window must cover degrees 2n-4 and 2n-3")
    # Two exponents are 2, so the character is never degenerate here.
    report = _api.ch_report(a, args.window)
    verdict = _api.special_sphere_check(primes, report)
    if not verdict.passed:
        diagnostics = [f"failing clause: {c}" for c in verdict.failing_clauses()]
        return {"verdict": verdict}, diagnostics, EXIT_SPHERE_CHECK

    sphere = _api.GeneratorCounts.of_ranks(report.ranks, n)
    final = _api.iterated_sphere_sum(sphere, args.copies)  # refuses fewer than one copy
    # The r-fold self-sum holds r copies of the sphere's counts and r - 1
    # tubes, so each column steps by one sphere and one tube per row.
    low, tube = (sphere[d] for d in (2 * n - 4, 2 * n - 3))
    rows = list(zip(range(1, args.copies + 1), count(low, low + _api.beta(n, 2 * n - 4)),
                    count(tube, tube + _api.beta(n, 2 * n - 3))))
    iterated = _Table(keys=("copies", "low_degree", "tube_degree"), rows=rows)
    payload = {"verdict": verdict, "iterated_counts": iterated, "final_counts": final}
    diagnostics = ["degree 2n-4 counts are lower bounds; degree 2n-3 counts are exact"]
    return payload, diagnostics, EXIT_OK


# ---------------------------------------------------------------------------
# arguments: one table, built into argparse by `_build_parser` and read in
# one pass by `_read_args`; argparse is imported only where that pass declines

_RUN = {"nargs": "+", "type": int}  # the exponents, or the primes after the required --primes
_WINDOW = {"--window": ("window", None, {"type": _parse_window, "metavar": "LO:HI"})}
_FORMAT = {"--format": ("format", "json", {"choices": ("json", "text"), "help": "output format"})}
_EXPONENTS = ("exponents", _RUN)

# name -> (function, help, positional run (dest, keywords) or None, options
# {spelling: (dest, default, keywords)}).  The keywords are argparse's own, read
# by `_read_args` too: action "store_true", nargs "+", type int or
# `_parse_window`, choices, required, help and metavar, and no others.
_COMMANDS = {
    "homology": (_cmd_homology, "integral homology of the manifold", _EXPONENTS, _FORMAT),
    "orbits": (_cmd_orbits, "orbit types and index character", _EXPONENTS, _FORMAT),
    "ch": (_cmd_ch, "contact homology generator counts", _EXPONENTS, {
        **_WINDOW,
        "--provenance": ("provenance", False,
                         {"action": "store_true", "help": "include contributions"}),
        "--crosscheck": ("crosscheck", False, {
            "action": "store_true",
            "help": "verify each distinct index by the independent unitary-path route"}),
        **_FORMAT}),
    "sum": (_cmd_sum, "connected-sum generator counting",
            ("files", {"nargs": "+", "help": "JSON envelopes from ch or sum"}),
            {"--beta-n": ("beta_n", None, {"type": int}), "--cutoff": ("cutoff", None, {"type": int}),
             **_FORMAT}),
    "exotic": (_cmd_exotic, "special sphere and iterated sums", None, {
        "--primes": ("primes", None, {**_RUN, "required": True}),
        "--copies": ("copies", 1, {"type": int}), **_WINDOW, **_FORMAT}),
}


@cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser():
    """The parser of every spelling `_read_args` declines, from `_COMMANDS`."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits 2 on bad usage by default; 2 is taken by the
        # degenerate gate, so usage problems are rerouted to exit 1, the exit
        # of every ValueError that reaches `main`.
        def error(self, message):
            raise ValueError(message)

    def window(text):  # argparse prints the reason of an ArgumentTypeError only
        try:
            return _parse_window(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    # the docstring as written, its exit-code table one line per code
    parser = Parser(prog="brieskorn-ch", description=__doc__,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, positional, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if positional is not None:
            p.add_argument(positional[0], **positional[1])
        for option, (dest, default, keywords) in options.items():
            if keywords.get("type") is _parse_window:
                keywords = {**keywords, "type": window}
            p.add_argument(option, dest=dest, default=default, **keywords)
    return parser


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The names and values argparse gives `argv`, read in one pass off the
    keywords of `_COMMANDS` into a plain namespace, or None for a spelling the
    pass leaves to argparse (the module docstring lists both kinds)."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    _, _, positional, options = spec
    values = {}  # dest -> value, for what argv gives; a dest given twice is declined
    i, end = 1, len(argv)
    while i < end:
        token = argv[i]
        if token[:1] != "-":  # the positional run, from this token
            if positional is None:
                return None
            (dest, keywords), eq = positional, ""
        else:
            name, eq, value = token.partition("=")
            if name not in options:
                return None
            dest, _, keywords = options[name]
            i += 1
        if dest in values:
            return None
        if "action" in keywords:  # store_true: no value
            if eq:
                return None
            values[dest] = True
            continue
        run = "nargs" in keywords  # "+": a run of values, else one
        if eq:
            words = [value]
        else:  # the next token, or the run of them
            start = i
            while i < end and argv[i][:1] != "-" and (run or i == start):
                i += 1
            words = argv[start:i]
            if not words:
                return None
        kind = keywords.get("type", str)
        if run and kind is int and not all(map(str.isdecimal, words)):
            return None  # a run is read in decimal digits only
        try:
            values[dest] = list(map(kind, words)) if run else kind(words[0])
        except ValueError:
            return None
        if "choices" in keywords and values[dest] not in keywords["choices"]:
            return None
    if positional is not None and positional[0] not in values:
        return None
    for dest, default, keywords in options.values():
        if dest not in values:
            if keywords.get("required"):
                return None
            values[dest] = default
    return SimpleNamespace(command=argv[0], **values)


def _usage(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_args(argv) or _build_parser().parse_args(argv)
    except ValueError as exc:
        return _usage(exc)
    try:
        payload, diagnostics, code = _COMMANDS[args.command][0](args)
    except ValueError as exc:
        return _usage(exc)
    except _api.HomologyInvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "input": {k: v for k, v in vars(args).items() if k not in ("command", "format")},
        "payload": payload,
        "diagnostics": diagnostics,
    }
    for note in diagnostics:
        print(note, file=sys.stderr)
    if args.format == "json":
        sys.stdout.write(_dumps(envelope) + "\n")
    else:
        sys.stdout.write(_render_text(args.command, payload))
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
