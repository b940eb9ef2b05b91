"""Byte-for-byte pin of the CLI: exit code, stdout and stderr of fixed runs.

Every run in CASES is replayed in order inside a scratch directory; a run
with a file name saves its stdout there, so later `sum` runs read envelopes
the tool itself wrote, under relative names (the names are echoed back).

Regenerate the golden file, only for an intended change of output, with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            runs = replay()
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)
