"""The byte gate of tests/call_times.py, run on a copy of this checkout with one byte changed."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def replay(other: Path, *options: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tests" / "call_times.py"), str(other),
                           "--seeds", "1", *options],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("old, new, argv", [
    ('"""Command line front end.', '"""Command-line front end.', r"-h"),  # the help text
    ('f"middle rank: ', 'f"middle Rank: ', r"homology [0-9 ]+ --format text"),  # in _render_text
])
def test_one_changed_byte_stops_the_replay_at_its_argv(tmp_path, old, new, argv):
    package = tmp_path / "src" / "brieskorn_ch"
    shutil.copytree(ROOT / "src" / "brieskorn_ch", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = package / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count(old) == 1 and len(old) == len(new)
    cli.write_text(text.replace(old, new), encoding="utf-8")
    result = replay(tmp_path, "--rounds", "1")
    assert result.returncode == 1 and result.stdout == ""
    assert re.fullmatch(f"outputs differ between the trees on: {argv}\n", result.stderr)


def test_zero_rounds_check_the_bytes_alone():
    result = replay(ROOT, "--rounds", "0")
    assert result.returncode == 0 and result.stderr == ""
    assert re.fullmatch(r"bytes: \d+ argvs compared, every one identical on both trees\n",
                        result.stdout)


def test_a_bad_root_or_round_count_is_refused_in_one_line(tmp_path):
    for other, rounds, refusal in [
        (tmp_path / "missing", "1", f"{tmp_path / 'missing'} is not the root of a checkout"),
        (ROOT, "-1", "--rounds must be 0 or more, not -1"),
    ]:
        result = replay(other, "--rounds", rounds)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == f"call_times.py: {refusal}\n"
