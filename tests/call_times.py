"""In-process call times of two checkouts, query by query, with the same bytes checked.

Usage, from the root of a checkout:

    python tests/call_times.py OTHER_ROOT [--seeds A-B] [--rounds R]

The `src/brieskorn_ch` of this checkout and of OTHER_ROOT are copied into
a temporary directory as two packages, `brieskorn_ch_this` and
`brieskorn_ch_other`, and both `cli.main`s are imported into one process,
so the two trees are timed under the same load.  Every query of the given
seeds (default 1-5) of all three workloads of `perfbench/queries.py`
(imported read-only, as `tests/output_digest.py` does) runs R rounds
(default 15) on each tree; which tree goes first alternates from one query
to the next and from one round to the next.  The `sum` inputs are written
by the tool itself into the temporary directory, each envelope by both
trees in turn.

Every call's (exit code, stdout, stderr) must be the same on both trees:
at the first that differs, the script stops and exits nonzero, naming its
argv.  Otherwise it prints, per workload and tree, on perfbench/run.py's
definitions but unscaled: the p50 (the median over the queries of each
query's median time), the tail (the time with 10 queries above it) and the
mean time per call, in microseconds.  Then, from R more rounds with each
command function wrapped by a timer, the share of the summed time each
phase of a call takes: the argument read (up to the command), the command,
and the writer (the envelope, its text and everything after the command).
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


def seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path, help="root of the second checkout")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    roots = {"this": ROOT, "other": args.other.resolve()}
    with tempfile.TemporaryDirectory() as scratch:
        modules = load(roots, Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            queries = {workload: [] for workload in WORKLOADS}
            for seed in args.seeds:
                write_sum_pool(seed, lambda argv: both(modules, argv, 0)[0][1])
                for workload in WORKLOADS:
                    queries[workload] += [list(q.argv) for q in generate(workload, seed)]
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
