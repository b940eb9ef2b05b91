"""The base-vs-head replay: every byte two checkouts write, then their call times.

Usage, from the root of a checkout:

    python tests/call_times.py OTHER_ROOT [--seeds A-B] [--rounds R]

The `src/brieskorn_ch` of this checkout and of OTHER_ROOT are copied into
a temporary directory as `brieskorn_ch_this` and `brieskorn_ch_other`, and
both `cli.main`s are imported into one process.  The queries are those of
the given seeds (default 1-5) of all three workloads of this checkout's
`perfbench/queries.py`; the `sum` inputs are written by both trees in turn
into the temporary directory.

First the bytes: every `-h` and the usage refusals with no subcommand
first, then every query, and `orbits` on the exponents of every `homology`
and `ch` query (the longest list the writer walks), each as written, with
`--format text`, and with `--format json` and every long option cut to a
prefix argparse takes, which the CLI's one-pass argument read leaves to
argparse.  Each argv runs on both trees, which goes first alternating, and
at the first whose (exit code, stdout, stderr) differ the script exits
nonzero, naming it; else it prints how many it compared.  `--rounds 0`
stops there.

Then the times: every query as written runs R rounds (default 15) on each
tree, its outputs compared again, which tree goes first alternating from
one query and one round to the next.  Per workload and tree it prints, on
perfbench/run.py's definitions but unscaled, the p50 (the median of the
per-query medians), the tail (the time with 10 queries above it) and the
mean per call, in microseconds; then, from R more rounds with each command
function wrapped by a timer, each phase's share of the summed time: the
argument read, the command, and the writer (everything after it).
"""

import argparse
import contextlib
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from queries import WORKLOADS, generate, write_sum_pool  # noqa: E402

TAIL_ABOVE = 10  # perfbench/run.py's tail: the latency with this many queries above it
TREES = ("this", "other")

# help texts, and usage refusals with no subcommand first (none, a misspelt
# one, an option before it)
USAGE = [["-h"], *([command, "-h"] for command in ("homology", "orbits", "ch", "sum", "exotic")),
         [], ["cho", "2", "2", "2", "2"], ["--format", "json", "ch", "6", "2", "2", "2"]]

# the shortest prefix of each long option that no other option of its subcommand shares
PREFIXES = {"--window": "--w", "--provenance": "--p", "--crosscheck": "--c", "--beta-n": "--b",
            "--cutoff": "--c", "--primes": "--p", "--copies": "--c", "--format": "--f"}


def load(roots: dict[str, Path], scratch: Path) -> dict:
    """`cli` of each tree, imported from its copy under the name `brieskorn_ch_<tree>`."""
    sys.path.insert(0, str(scratch))
    modules = {}
    for tree, root in roots.items():
        shutil.copytree(root / "src" / "brieskorn_ch", scratch / f"brieskorn_ch_{tree}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        modules[tree] = importlib.import_module(f"brieskorn_ch_{tree}.cli")
    return modules


def call(main, argv: list[str]) -> tuple[tuple[int, str, str], float, float]:
    """(exit code, stdout, stderr) of one in-process call, and the clock at its start and end."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits after writing a help text
            code = exc.code
        end = perf_counter()
    return (code, out.getvalue(), err.getvalue()), start, end


def in_turn(first: int) -> tuple[str, str]:
    """The trees in the order they run, tree number `first` (0 or 1) first."""
    return TREES[first:] + TREES[:first]


def both(modules: dict, argv: list[str], first: int) -> tuple[tuple[int, str, str], dict]:
    """The output of `argv`, the same on both trees, and each tree's time, tree
    number `first` going first; stops the script where the outputs differ."""
    results, seconds = {}, {}
    for tree in in_turn(first):
        results[tree], start, end = call(modules[tree].main, list(argv))
        seconds[tree] = end - start
    if results["this"] != results["other"]:
        sys.exit(f"outputs differ between the trees on: {' '.join(argv)}")
    return results["this"], seconds


class Phases:
    """Wraps every command function of one tree's `cli`, for good, to split
    a call into argument read, command and writer."""

    def __init__(self, cli):
        self.cli = cli
        self.marks: list[float] = []
        cli._COMMANDS = {name: (self.timed(spec[0]), *spec[1:]) for name, spec in cli._COMMANDS.items()}

    def timed(self, command):
        def wrapper(args):
            self.marks.append(perf_counter())
            try:
                return command(args)
            finally:
                self.marks.append(perf_counter())
        return wrapper

    def split(self, argv: list[str]) -> tuple[float, float, float]:
        self.marks.clear()
        _, start, end = call(self.cli.main, list(argv))
        if not self.marks:  # refused before any command ran: all argument read
            return end - start, 0.0, 0.0
        begun, done = self.marks
        return begun - start, done - begun, end - done


def summary(per_query: list[list[float]]) -> tuple[float, float, float]:
    """p50 and tail of the per-query medians, and the mean per call, in microseconds."""
    ordered = sorted(map(statistics.median, per_query))
    above = min(TAIL_ABOVE, len(ordered) - 1)
    calls = [t for runs in per_query for t in runs]
    return (statistics.median(ordered) * 1e6, ordered[-1 - above] * 1e6,
            statistics.fmean(calls) * 1e6)


def abbreviated(argv: list[str]) -> list[str]:
    """`argv` with every long option, also one joined to its value by "=", cut to its prefix."""
    return [PREFIXES.get(name, name) + eq + value
            for name, eq, value in (token.partition("=") for token in argv)]


def variants(query) -> list[list[str]]:
    """The argvs the byte replay runs for one query: it and, for `homology`
    and `ch`, `orbits` on its exponents, each in the three spellings."""
    runs = [list(query.argv)]
    if query.command in ("homology", "ch"):
        runs.append(["orbits", *map(str, query.exponents)])
    return [spelt for argv in runs for spelt in
            (argv, [*argv, "--format", "text"], abbreviated([*argv, "--format", "json"]))]


def seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path, help="root of the second checkout")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--rounds", type=int, default=15, help="0: the bytes alone")
    args = parser.parse_args()
    if not (args.other / "src" / "brieskorn_ch").is_dir():
        sys.exit(f"call_times.py: {args.other} is not the root of a checkout")
    if args.rounds < 0:
        sys.exit(f"call_times.py: --rounds must be 0 or more, not {args.rounds}")
    roots = {"this": ROOT, "other": args.other.resolve()}
    with tempfile.TemporaryDirectory() as scratch:
        modules = load(roots, Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            for seed in args.seeds:
                write_sum_pool(seed, lambda argv: both(modules, argv, 0)[0][1])
            queries = {w: [q for seed in args.seeds for q in generate(w, seed)] for w in WORKLOADS}
            replay = USAGE + [argv for qs in queries.values() for q in qs for argv in variants(q)]
            for i, argv in enumerate(replay):
                both(modules, argv, i % 2)
            print(f"bytes: {len(replay)} argvs compared, every one identical on both trees")
            if not args.rounds:
                return
            queries = {w: [q.argv for q in qs] for w, qs in queries.items()}
            times = {w: {tree: [[] for _ in qs] for tree in TREES} for w, qs in queries.items()}
            for r in range(args.rounds):
                for workload, argvs in queries.items():
                    for i, argv in enumerate(argvs):
                        for tree, seconds in both(modules, argv, (r + i) % 2)[1].items():
                            times[workload][tree][i].append(seconds)
            phases = {tree: Phases(modules[tree]) for tree in TREES}  # after the timed rounds
            shares = {w: {tree: [0.0, 0.0, 0.0] for tree in TREES} for w in queries}
            for r in range(args.rounds):
                for workload, argvs in queries.items():
                    for i, argv in enumerate(argvs):
                        for tree in in_turn((r + i) % 2):
                            for k, part in enumerate(phases[tree].split(argv)):
                                shares[workload][tree][k] += part
        finally:
            os.chdir(here)

    print(f"python {sys.version.split()[0]}; seeds {args.seeds.start}-{args.seeds.stop - 1}; "
          f"{args.rounds} rounds; this = {roots['this']}, other = {roots['other']}")
    print("workload          tree   queries   p50_us  tail_us  mean_us   args  command  writer")
    for workload, per_tree in times.items():
        for tree in TREES:
            p50, tail, mean = summary(per_tree[tree])
            split = shares[workload][tree]
            args_share, command, writer = (100 * part / sum(split) for part in split)
            print(f"{workload:<17} {tree:<5} {len(per_tree[tree]):>8} {p50:>8.1f} {tail:>8.1f} "
                  f"{mean:>8.1f} {args_share:>5.1f}% {command:>7.1f}% {writer:>6.1f}%")


if __name__ == "__main__":
    main()
