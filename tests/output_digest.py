"""One sha256 of (exit code, stdout, stderr) per benchmark query, for byte-identity checks.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/output_digest.py 1-40 > digests.txt

Every query of the given seeds of all three workloads of
`perfbench/queries.py` is run in process through `brieskorn_ch.cli.main`,
once as written, once with `--format text`, and once with `--format json`
and every long option cut to a prefix argparse takes (`--w`, `--p`, `--c`,
`--f`), a spelling the CLI's one-pass argument read leaves to argparse;
and so is `orbits` on the exponents of every `homology` and `ch` query (no
workload runs `orbits`, whose list of orbit types is the longest the
writer walks).  Each run prints one line,
`<workload> <seed> <sha256> <argv>`.  Once per invocation, the help texts
(`-h` at the top level and for each subcommand) and the usage refusals of
argvs with no subcommand first are digested too, on lines
`usage - <sha256> <argv>`.  Diff the output of two checkouts to
see that a change keeps every byte the tool writes.  The `sum` inputs are
written by the tool itself into a temporary directory, so nothing lands in
the checkout.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from brieskorn_ch.cli import main  # noqa: E402
from queries import WORKLOADS, generate, write_sum_pool  # noqa: E402


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits after writing a help text
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# help texts, and usage refusals with no subcommand first (none, a misspelt
# one, an option before it)
USAGE = [["-h"], *([command, "-h"] for command in ("homology", "orbits", "ch", "sum", "exotic")),
         [], ["cho", "2", "2", "2", "2"], ["--format", "json", "ch", "6", "2", "2", "2"]]


# the shortest prefix of each long option that no other option of its subcommand shares
PREFIXES = {"--window": "--w", "--provenance": "--p", "--crosscheck": "--c", "--beta-n": "--b",
            "--cutoff": "--c", "--primes": "--p", "--copies": "--c", "--format": "--f"}


def abbreviated(argv: list[str]) -> list[str]:
    """`argv` with every long option, also one joined to its value by "=", cut to its prefix."""
    cut = []
    for token in argv:
        name, eq, value = token.partition("=")
        cut.append(PREFIXES.get(name, name) + eq + value if name.startswith("--") else token)
    return cut


def digest(argv: list[str]) -> str:
    code, out, err = run(argv)
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main_digest(spec: str) -> None:
    for argv in USAGE:
        print("usage", "-", digest(argv), " ".join(argv))
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            for seed in seeds(spec):
                write_sum_pool(seed, lambda argv: run(argv)[1])
                for workload in WORKLOADS:
                    for query in generate(workload, seed):
                        runs = [list(query.argv)]
                        if query.command in ("homology", "ch"):
                            runs.append(["orbits", *map(str, query.exponents)])
                        for argv in runs:
                            for variant in (argv, [*argv, "--format", "text"],
                                            abbreviated([*argv, "--format", "json"])):
                                print(workload, seed, digest(variant), " ".join(variant))
        finally:
            os.chdir(here)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: output_digest.py SEED or FIRST-LAST")
    main_digest(sys.argv[1])
