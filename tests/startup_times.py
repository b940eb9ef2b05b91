"""Shell start-up times of the CLI: fresh interpreters, best and median.

Usage, from the root of a checkout:

    python tests/startup_times.py [RUNS]

Each case runs RUNS times (default 21) in a fresh interpreter with
`PYTHONPATH=src`, the cases taking turns, so a slow stretch of the host
hits them alike: the bare interpreter (`-c pass`), `import
brieskorn_ch.cli`, `-h`, and one canonical argv per command through
`python -m brieskorn_ch.cli`.  The `sum` inputs are written by the tool
itself into a temporary directory.  Prints one JSON line: the Python
version, the value of `PYTHONDONTWRITEBYTECODE` (when set, every run
compiles the modules it imports), and each case's best and median wall
time in ms.  Run it on two checkouts to compare them.
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


def cases(scratch: str) -> dict[str, list[str]]:
    ch_file = str(Path(scratch) / "ch.json")
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


def main(runs: int) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as scratch:
        argvs, ch_file = cases(scratch)
        written = subprocess.run([sys.executable, *CLI, "ch", "6", "2", "2", "2"], env=env,
                                 capture_output=True, text=True, check=True).stdout
        Path(ch_file).write_text(written, encoding="utf-8")
        times = {name: [] for name in argvs}
        for _ in range(runs):
            for name, argv in argvs.items():
                start = perf_counter()
                subprocess.run([sys.executable, *argv], env=env, cwd=scratch,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                times[name].append((perf_counter() - start) * 1e3)
    print(json.dumps({
        "python": sys.version.split()[0],
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "runs": runs,
        "ms": {name: {"best": round(min(t), 2), "median": round(statistics.median(t), 2)}
               for name, t in times.items()},
    }))


if __name__ == "__main__":
    if len(sys.argv) > 2 or (len(sys.argv) == 2 and not sys.argv[1].isdecimal()):
        sys.exit("usage: startup_times.py [RUNS]")
    main(int(sys.argv[1]) if len(sys.argv) == 2 else 21)
