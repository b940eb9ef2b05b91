"""Shell start-up times of the CLI: fresh interpreters, best and median.

Usage, from the root of a checkout:

    python tests/startup_times.py [RUNS] [OTHER_ROOT]

Each case runs RUNS times (default 21) in a fresh interpreter with
`PYTHONPATH=src`, the cases taking turns, so a slow stretch of the host
hits them alike: the bare interpreter (`-c pass`), `import
brieskorn_ch.cli`, `-h`, and one canonical argv per command through
`python -m brieskorn_ch.cli`.  The `sum` inputs are written by the tool
itself into a temporary directory.  Prints one JSON line: the Python
version, the value of `PYTHONDONTWRITEBYTECODE` (when set, every run
compiles the modules it imports), and each case's best and median wall
time in ms.

With OTHER_ROOT, the root of a second checkout, each call of a case is
made on both trees in turn, the tree that goes first alternating from one
round to the next, so the two are timed under the same load; the line then
gives both roots and, under "ms", each tree's best and median per case
("this" for the checkout the script runs from, "other" for OTHER_ROOT).
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
CLI = ["-m", "brieskorn_ch.cli"]


def cases(scratch: Path) -> dict[str, list[str]]:
    ch_file = str(scratch / "ch.json")
    return {
        "bare": ["-c", "pass"],
        "import": ["-c", "import brieskorn_ch.cli"],
        "-h": [*CLI, "-h"],
        "homology": [*CLI, "homology", "4", "2", "2", "2"],
        "orbits": [*CLI, "orbits", "6", "2", "2", "2"],
        "ch": [*CLI, "ch", "6", "2", "2", "2"],
        "sum": [*CLI, "sum", ch_file, ch_file],
        "exotic": [*CLI, "exotic", "--primes", "3", "5"],
    }, ch_file


def summary(times: dict[str, list[float]]) -> dict:
    return {name: {"best": round(min(t), 2), "median": round(statistics.median(t), 2)}
            for name, t in times.items()}


def main(runs: int, roots: dict[str, Path]) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        trees = {}  # label -> (environment, working directory, argv per case)
        for label, root in roots.items():
            env = {**os.environ, "PYTHONPATH": str(root / "src")}
            cwd = Path(scratch) / label
            cwd.mkdir()
            argvs, ch_file = cases(cwd)
            written = subprocess.run([sys.executable, *CLI, "ch", "6", "2", "2", "2"], env=env,
                                     capture_output=True, text=True, check=True).stdout
            Path(ch_file).write_text(written, encoding="utf-8")
            trees[label] = env, cwd, argvs
        times = {label: {name: [] for name in argvs} for label in trees}
        order = list(trees)
        for _ in range(runs):
            for name in times[order[0]]:
                for label in order:
                    env, cwd, argvs = trees[label]
                    start = perf_counter()
                    subprocess.run([sys.executable, *argvs[name]], env=env, cwd=cwd,
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                    times[label][name].append((perf_counter() - start) * 1e3)
            order.reverse()
    line = {
        "python": sys.version.split()[0],
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "runs": runs,
    }
    if len(roots) == 1:
        line["ms"] = summary(times["this"])
    else:
        line["roots"] = {label: str(root) for label, root in roots.items()}
        line["ms"] = {label: summary(t) for label, t in times.items()}
    print(json.dumps(line))


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) > 2 or (args and not args[0].isdecimal()):
        sys.exit("usage: startup_times.py [RUNS] [OTHER_ROOT]")
    roots = {"this": ROOT}
    if len(args) == 2:
        roots["other"] = Path(args[1]).resolve()
        if not (roots["other"] / "src" / "brieskorn_ch").is_dir():
            sys.exit(f"startup_times.py: {args[1]} is not the root of a checkout")
    main(int(args[0]) if args else 21, roots)
