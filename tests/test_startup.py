"""What a shell call imports, and the lazy names that make it so."""

import json
import os
import subprocess
import sys
from pathlib import Path

import brieskorn_ch
from brieskorn_ch.cli import main

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("randell", "orbits", "maslov", "contact", "connected_sum")


def fresh(code: str, *flags: str):
    """What `code` prints as JSON in a fresh interpreter with `PYTHONPATH=src`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


# read sys.modules before importing json to print it
LOADED = """
import sys
found = [[m for m in {stages} if "brieskorn_ch." + m in sys.modules],
         [m for m in ("argparse", "json.decoder") if m in sys.modules]]
import json
print(json.dumps(found))
""".format(stages=STAGES)


def test_importing_the_cli_loads_no_stage_and_no_argparse():
    assert fresh("import brieskorn_ch.cli" + LOADED) == [[], []]


def running(argv, code):
    """Source that runs `main(argv)` and checks its exit code, stdout discarded."""
    return ("import contextlib, io\nfrom brieskorn_ch.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert main({argv!r}) == {code}\n")


def test_homology_loads_randell_alone_and_neither_argparse_nor_json():
    assert fresh(running(["homology", "4", "2", "2", "2"], 0) + LOADED) == [["randell"], []]


def test_each_command_runs_on_the_names_it_binds_alone(capsys, tmp_path):
    # each command in a fresh interpreter, so no name is bound by an
    # earlier call; every path of `ch` and `sum`'s read-back run here
    assert main(["ch", "6", "2", "2", "2"]) == 0
    report = tmp_path / "ch.json"
    report.write_text(capsys.readouterr().out, encoding="utf-8")
    ch = ["randell", "orbits", "maslov", "contact"]
    for argv, code, stages, loaded in [
        (["orbits", "6", "2", "2", "2"], 0, ["randell", "orbits", "maslov"], []),
        (["ch", "6", "2", "2", "2", "--provenance", "--crosscheck", "--format", "text"], 0, ch, []),
        (["ch", "4", "4", "4", "4"], 2, ch, []),
        (["ch", "6", "3", "3", "3", "--window", "0:4"], 3, ch, []),
        (["sum", str(report), str(report), "--cutoff", "9"], 0, list(STAGES), ["json.decoder"]),
        (["exotic", "--primes", "3", "5", "--copies", "3"], 0, list(STAGES), []),
        (["exotic", "--primes", "3", "3"], 4, list(STAGES), []),
        (["ch", "6", "2", "2", "2", "--w", "0:4"], 0, ch, ["argparse"]),
    ]:
        assert fresh(running(argv, code) + LOADED) == [stages, loaded], argv


def test_ch_and_exotic_load_no_typing():
    # without site, whose .pth files may import typing themselves
    code = (running(["ch", "6", "2", "2", "2"], 0) + running(["exotic", "--primes", "3", "5"], 0)
            + "import json, sys\nprint(json.dumps('typing' in sys.modules))\n")
    assert fresh(code, "-S") is False


def test_every_public_name_resolves_by_import_and_by_getattr():
    for name, module in brieskorn_ch._PUBLIC.items():
        namespace = {}
        exec(f"from brieskorn_ch import {name}", namespace)
        defined = getattr(sys.modules[f"brieskorn_ch.{module}"], name)
        assert namespace[name] is getattr(brieskorn_ch, name) is defined, name
    assert brieskorn_ch.__all__ == sorted(brieskorn_ch._PUBLIC)
    assert set(brieskorn_ch.__all__) <= set(dir(brieskorn_ch))
    assert brieskorn_ch.__version__ == "0.1.0"
    try:
        brieskorn_ch.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")


def test_a_tracer_installed_before_any_call_wraps_every_cli_name(tmp_path):
    # the names perfbench's tracer wraps on `cli` are not bound until read:
    # the tracer's read binds them, and every command calls its wrappers
    report = str(tmp_path / "ch.json")
    code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import tracer
import brieskorn_ch.cli as cli
t = tracer.Tracer()
t.install()
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["ch", "6", "2", "2", "2", "--crosscheck"]) == 0
    with open({report!r}, "w", encoding="utf-8") as handle:
        handle.write(out.getvalue())
    for argv, exit_code in [(["exotic", "--primes", "3", "5", "--copies", "2"], 0),
                            (["homology", "4", "2", "2", "2"], 0),
                            (["orbits", "6", "2", "2", "2"], 0), (["ch", "4", "4", "4", "4"], 2),
                            (["sum", {report!r}, {report!r}], 0)]:
        assert cli.main(argv) == exit_code, argv
counts = t.work_counts()
t.remove()
print(json.dumps([t.missing, counts]))
"""
    missing, counts = fresh(code)
    assert missing == []
    assert counts["contact.ch_report.calls"] == 3  # the degenerate `ch` refused inside it
    assert counts["connected_sum.special_sphere_check.calls"] == 1
    for name in ("maslov.classify_index", "randell.full_homology", "orbits.enumerate_orbit_types",
                 "connected_sum.combine", "connected_sum.iterated_sphere_sum"):
        assert counts[f"{name}.calls"] >= 1, name
    # `cli.maslov_crosscheck` is wrapped, but `ch --crosscheck` calls `crosscheck_rows`
    assert "maslov.crosscheck.calls" not in counts
