"""Byte-for-byte pin of the CLI: exit code, stdout and stderr of fixed runs.

Every run in CASES is replayed in order inside a scratch directory; a run
with a file name saves its stdout there, so later `sum` runs read envelopes
the tool itself wrote, under relative names (the names are echoed back).

Record the runs of newly appended CASES with
    PYTHONPATH=src python tests/test_cli_golden.py
It keeps every recorded run as it is and appends only the new ones; when a
recorded run's bytes differ from the current code's, it names the runs,
writes nothing and exits 1.  A recorded run is never re-recorded by it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from brieskorn_ch.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_runs.json"

# (argv, file that keeps the stdout or None)
CASES = [
    (["homology", "4", "2", "2", "2"], None),
    (["homology", "4", "2", "2", "2", "--format", "text"], None),
    (["homology", "2", "3", "3", "3", "3"], None),
    (["homology", "2", "3", "3", "3", "3", "--format", "text"], None),
    (["orbits", "6", "2", "2", "2"], None),
    (["orbits", "6", "2", "2", "2", "--format", "text"], None),
    (["orbits", "4", "4", "4", "4"], None),
    (["ch", "6", "2", "2", "2", "--window", "0:12", "--provenance", "--crosscheck"], None),
    (["ch", "6", "2", "2", "2", "--window", "0:12", "--provenance", "--crosscheck",
      "--format", "text"], None),
    (["ch", "6", "2", "2", "2"], None),
    (["ch", "7", "7", "7", "7", "--window=-30:0"], None),
    (["ch", "4", "4", "4", "4"], None),
    (["ch", "4", "4", "4", "4", "--format", "text"], None),
    (["ch", "2", "3", "12", "7", "--window", "0:8"], None),
    (["ch", "6", "2", "2", "2", "--window", "100000:100012", "--provenance"], None),
    (["ch", "7", "7", "7", "7", "--window=-100012:-100000"], None),
    (["exotic", "--primes", "3", "5", "--copies", "5"], None),
    (["exotic", "--primes", "3", "5", "--copies", "5", "--format", "text"], None),
    (["exotic", "--primes", "3", "3"], None),
    (["ch", "6", "2", "2", "2", "--window", "0:12"], "ch.json"),
    (["sum", "ch.json", "ch.json"], "sum.json"),
    (["sum", "ch.json", "sum.json", "--cutoff", "9"], None),
    (["sum", "ch.json", "sum.json", "--cutoff", "9", "--format", "text"], None),
    (["homology", "2", "2", "2", "2", "2", "--format", "text"], None),
    (["homology", "7", "7", "7", "7", "--format", "text"], None),
    (["orbits", "4", "4", "4", "4", "--format", "text"], None),
    (["ch", "2", "3", "12", "7", "--window", "0:8", "--format", "text"], None),
    (["exotic", "--primes", "3", "3", "--format", "text"], None),
    (["ch", "6", "4", "5", "7", "--window=-40:-10", "--provenance", "--crosscheck"], None),
    (["ch", "2", "2", "3", "3", "4", "--window", "0:16", "--provenance"], None),
    (["ch", "8", "6", "9", "4", "--window=-30:-6", "--provenance", "--crosscheck",
      "--format", "text"], None),
    (["ch", "6", "2", "2", "2", "--window", "3:3", "--provenance", "--crosscheck"], None),
    (["exotic", "--primes", "3", "5", "--copies", "40"], None),
    (["sum", "ch.json", "sum.json", "--cutoff", "1"], None),
    (["exotic", "--primes", "3", "5", "--copies", "0"], None),
    (["exotic", "--primes", "3", "3", "--copies", "0"], None),
    (["ch", "6", "2", "2", "2", "--window", "10"], None),
    (["ch", "6", "2", "2", "2", "--window", "9:1"], None),
    (["ch", "6", "2", "2", "2", "--window", "a:b"], None),
    (["exotic", "--primes", "3", "5", "--window", "0:1"], None),
    (["homology", "2", "2", "3", "3", "4", "2", "6", "2", "3"], None),
    (["homology", "8", "4", "4", "2", "2", "2", "2", "2", "2"], None),
    (["homology", "4", "8", "12", "16", "2", "2", "--format", "text"], None),
    (["ch", "7", "7", "7", "7"], None),
    (["ch", "7", "7", "7", "7", "--format", "text"], None),
]


def replay() -> list[dict]:
    """Run CASES in the current directory; one record per run."""
    records = []
    for argv, keep in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        if keep:
            Path(keep).write_text(out.getvalue(), encoding="utf-8")
        records.append(
            {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
    return records


def test_cli_runs_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = replay()
    assert [r["argv"] for r in records] == [g["argv"] for g in golden]
    for record, expected in zip(records, golden):
        assert record == expected, " ".join(record["argv"])


def test_recording_appends_new_runs_and_keeps_recorded_ones(tmp_path, monkeypatch):
    recorded = GOLDEN.read_text(encoding="utf-8")
    runs = json.loads(recorded)
    short = tmp_path / "short.json"  # the last case not yet recorded
    short.write_text(json.dumps(runs[:-1], indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", short)
    assert append_new_runs() == 0
    assert short.read_text(encoding="utf-8") == recorded

    runs[0]["stdout"] += " "  # a recorded run whose bytes the code no longer writes
    changed = json.dumps(runs[:-1], indent=1, ensure_ascii=False) + "\n"
    short.write_text(changed, encoding="utf-8")
    assert append_new_runs() == 1
    assert short.read_text(encoding="utf-8") == changed


def test_module_entry_point_writes_the_recorded_bytes():
    # `python -m` goes through run() and the __main__ guard, which replay() skips
    golden = {tuple(g["argv"]): g for g in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    for argv in (["homology", "4", "2", "2", "2"], ["ch", "4", "4", "4", "4"]):
        done = subprocess.run([sys.executable, "-m", "brieskorn_ch.cli", *argv], env=env,
                              capture_output=True, encoding="utf-8")
        record = {"argv": argv, "exit_code": done.returncode, "stdout": done.stdout,
                  "stderr": done.stderr}
        assert record == golden[tuple(argv)], " ".join(argv)


def append_new_runs() -> int:
    """Append the runs of CASES past the recorded ones; refuse if a recorded run changed."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            runs = replay()
        finally:
            os.chdir(here)
    changed = [" ".join(g["argv"]) for g, r in zip(golden, runs) if g != r]
    changed += [" ".join(g["argv"]) for g in golden[len(runs):]]  # no longer in CASES
    if changed:
        for argv in changed:
            print(f"recorded run differs: {argv}", file=sys.stderr)
        print(f"{GOLDEN} left as it was", file=sys.stderr)
        return 1
    new = runs[len(golden):]
    GOLDEN.write_text(
        json.dumps(golden + new, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"appended {len(new)} runs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(append_new_runs())
