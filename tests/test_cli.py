import dataclasses
import dis
import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import CodeType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brieskorn_ch
from brieskorn_ch import cli, maslov
from brieskorn_ch.cli import EXIT_USAGE, main
from brieskorn_ch.connected_sum import GeneratorCounts, SpecialSphereVerdict
from brieskorn_ch.contact import CHReport, GradedRanks
from brieskorn_ch.maslov import IndexCharacter
from brieskorn_ch.orbits import OrbitType
from brieskorn_ch.randell import ExponentVector, HomologyReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_homology_command(capsys):
    code, envelope, _ = run_json(capsys, "homology", "4", "2", "2", "2")
    assert code == 0
    assert envelope["schema_version"] == "1"
    assert envelope["payload"]["middle_rank"] == 1
    assert envelope["payload"]["torsion"] == []
    assert envelope["payload"]["description"] == "#_1 (S²×S³)"

    code, envelope, _ = run_json(capsys, "homology", "7", "7", "7", "7")
    assert code == 0
    assert envelope["payload"]["middle_rank"] == 186


def test_homology_rejects_short_input(capsys):
    code, out, err = run(capsys, "homology", "2", "2")
    assert code == 1
    assert out == ""
    assert "four exponents" in err


def test_rejects_non_integer_tokens(capsys):
    code, _, _ = run(capsys, "homology", "4", "two", "2", "2")
    assert code == 1


def test_orbits_command(capsys):
    code, envelope, _ = run_json(capsys, "orbits", "6", "2", "2", "2")
    assert code == 0
    types = envelope["payload"]["orbit_types"]
    assert [(t["m"], tuple(t["support"])) for t in types] == [
        (2, (1, 2, 3)),
        (6, (0, 1, 2, 3)),
    ]

    code, envelope, _ = run_json(capsys, "orbits", "7", "7", "7", "7")
    assert len(envelope["payload"]["orbit_types"]) == 1

    code, envelope, err = run_json(capsys, "orbits", "4", "4", "4", "4")
    assert code == 0
    assert envelope["payload"]["character"]["sign"] == "degenerate"
    assert "degenerate" in err


def test_ch_command_golden_window(capsys):
    code, envelope, _ = run_json(capsys, "ch", "6", "2", "2", "2", "--window", "0:12")
    assert code == 0
    assert envelope["payload"]["ranks"]["ranks"] == [
        [2, 1], [4, 2], [6, 2], [8, 2], [10, 2], [12, 2],
    ]
    assert envelope["payload"]["period_shift"] == 8
    assert envelope["payload"]["well_defined"] is True


def test_ch_command_degenerate_exit(capsys):
    code, envelope, err = run_json(capsys, "ch", "4", "4", "4", "4", "--window", "0:10")
    assert code == 2
    assert envelope["payload"]["error"] == "degenerate"
    assert "degree-0" in err


def test_ch_command_negative_window(capsys):
    code, envelope, _ = run_json(
        capsys, "ch", "7", "7", "7", "7", "--window=-30:0", "--crosscheck"
    )
    assert code == 0
    ranks = dict((d, k) for d, k in envelope["payload"]["ranks"]["ranks"])
    assert ranks[-6] == 187
    assert all(d < -1 for d in ranks)


def test_ch_command_not_well_defined_exit(capsys):
    code, envelope, _ = run_json(capsys, "ch", "2", "3", "12", "7", "--window", "0:8")
    assert code == 3
    assert envelope["payload"]["well_defined"] is False


def test_ch_provenance_listing(capsys):
    code, envelope, _ = run_json(
        capsys, "ch", "6", "2", "2", "2", "--window", "0:6", "--provenance"
    )
    assert code == 0
    contributions = envelope["payload"]["contributions"]
    assert {"m": 2, "N": 1, "j": 0, "degree": 2, "count": 1} in contributions


def test_ch_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12")
    _, second, _ = run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12")
    assert first == second


def test_text_format_carries_the_same_numbers(capsys):
    code, envelope, _ = run_json(capsys, "ch", "6", "2", "2", "2", "--window", "0:12")
    code, text, _ = run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12", "--format", "text")
    assert code == 0
    for degree, rank in envelope["payload"]["ranks"]["ranks"]:
        assert f"{degree:>6d}  {rank:>4d}" in text


def test_window_syntax_errors(capsys):
    code, _, err = run(capsys, "ch", "6", "2", "2", "2", "--window", "10")
    assert code == 1
    code, _, err = run(capsys, "ch", "6", "2", "2", "2", "--window", "9:1")
    assert code == 1


def write_counts_file(path, counts, cutoff, n):
    payload = {
        "schema_version": "1",
        "command": "sum",
        "input": {},
        "payload": {
            "generator_counts": {
                "counts": [[d, c] for d, c in sorted(counts.items())],
                "cutoff": cutoff,
                "half_dim_n": n,
            }
        },
        "diagnostics": [],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_sum_command_tube_ladder(capsys, tmp_path):
    f1 = write_counts_file(tmp_path / "a.json", {}, 9, 3)
    f2 = write_counts_file(tmp_path / "b.json", {}, 9, 3)
    code, envelope, _ = run_json(capsys, "sum", f1, f2)
    assert code == 0
    assert envelope["payload"]["generator_counts"]["counts"] == [
        [3, 1], [5, 1], [7, 1], [9, 1],
    ]


def test_sum_command_accepts_ch_envelopes(capsys, tmp_path):
    code, out, _ = run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12")
    assert code == 0
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(out)
    empty = write_counts_file(tmp_path / "e.json", {}, 9, 3)
    code, envelope, _ = run_json(capsys, "sum", str(ch_file), empty, "--cutoff", "6")
    assert code == 0
    counts = envelope["payload"]["generator_counts"]
    assert counts["cutoff"] == 6
    assert counts["counts"] == [[2, 1], [3, 1], [4, 2], [5, 1], [6, 2]]


def test_sum_command_repeated_sphere_file(capsys, tmp_path):
    sphere = write_counts_file(tmp_path / "s.json", {6: 2}, 9, 5)
    code, envelope, _ = run_json(capsys, "sum", sphere, sphere, sphere)
    assert code == 0
    counts = dict((d, c) for d, c in envelope["payload"]["generator_counts"]["counts"])
    assert counts[6] == 6
    assert counts[7] == 2


def test_sum_command_dimension_mismatch(capsys, tmp_path):
    f1 = write_counts_file(tmp_path / "a.json", {}, 9, 3)
    f2 = write_counts_file(tmp_path / "b.json", {}, 9, 4)
    code, _, err = run(capsys, "sum", f1, f2)
    assert code == 1
    assert "mismatch" in err


def test_sum_command_beta_n_validation(capsys, tmp_path):
    f1 = write_counts_file(tmp_path / "a.json", {}, 9, 3)
    code, _, _ = run(capsys, "sum", f1, f1, "--beta-n", "4")
    assert code == 1


def test_sum_command_bad_schema(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": "999", "payload": {}}))
    code, _, err = run(capsys, "sum", str(bad), str(bad))
    assert code == 1


def test_exotic_command_monotone_counts(capsys):
    code, envelope, err = run_json(capsys, "exotic", "--primes", "3", "5", "--copies", "3")
    assert code == 0
    rows = envelope["payload"]["iterated_counts"]
    assert [(r["copies"], r["low_degree"], r["tube_degree"]) for r in rows] == [
        (1, 2, 0), (2, 4, 1), (3, 6, 2),
    ]
    assert "lower bounds" in err


def test_exotic_command_failing_tuple(capsys):
    code, envelope, err = run_json(capsys, "exotic", "--primes", "3", "3")
    assert code == 4
    assert envelope["payload"]["verdict"]["failing_clauses"] == ["not a homotopy sphere"]
    assert "failing clause" in err


def test_exotic_refuses_composite_primes(capsys):
    code, out, err = run(capsys, "exotic", "--primes", "9", "5")
    assert code == 1
    assert out == ""
    assert err == "error: exponents before the two 2s must be odd primes\n"


def test_exotic_refuses_primes_beyond_the_exact_test(capsys):
    code, out, err = run(capsys, "exotic", "--primes", "3", str(2**89 - 1))
    assert code == 1
    assert out == ""
    assert err == (
        "error: primes must be below 3317044064679887385961981,"
        " where the primality test stops being exact\n"
    )


def test_exotic_single_copy_reports_the_sphere_itself(capsys):
    code, envelope, _ = run_json(capsys, "exotic", "--primes", "3", "5", "--copies", "1")
    assert code == 0
    assert envelope["payload"]["iterated_counts"] == [
        {"copies": 1, "low_degree": 2, "tube_degree": 0}
    ]


@pytest.mark.parametrize("primes", [(3, 5), (3, 5, 7)])
def test_exotic_rows_equal_a_left_fold_of_combine(capsys, primes):
    # the rows and the final counts are read off closed forms;
    # a plain running fold of `combine` must give the same numbers
    from brieskorn_ch.connected_sum import GeneratorCounts, combine, sphere_exponents
    from brieskorn_ch.contact import ch_report

    a = sphere_exponents(primes)
    n = a.n
    sphere = GeneratorCounts.of_ranks(ch_report(a, (0, 2 * n - 2)).ranks, n)
    folds = [sphere]
    while len(folds) < 64:
        folds.append(combine(folds[-1], sphere))
    argv = ["exotic", "--primes", *map(str, primes), "--copies"]
    for r, fold in enumerate(folds, 1):
        code, envelope, _ = run_json(capsys, *argv, str(r))
        assert code == 0
        payload = envelope["payload"]
        assert payload["final_counts"] == {
            "counts": [list(item) for item in sorted(fold.counts.items())],
            "cutoff": fold.cutoff,
            "half_dim_n": n,
        }
    assert [(row["copies"], row["low_degree"], row["tube_degree"])
            for row in payload["iterated_counts"]] == [
        (r, fold[2 * n - 4], fold[2 * n - 3]) for r, fold in enumerate(folds, 1)
    ]


def test_exotic_refuses_more_copies_than_it_can_write(capsys):
    # 10**8 rows would run out of memory before a byte is written; the
    # count is refused against the output budget before any work
    import time

    from brieskorn_ch.randell import MAX_TORSION_FACTORS

    start = time.perf_counter()
    code, out, err = run(capsys, "exotic", "--primes", "3", "5", "--copies", "100000000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == (f"error: --copies 100000000 asks for more than {MAX_TORSION_FACTORS}"
                   " rows: too large to write\n")


def test_exotic_refuses_zero_copies(capsys):
    code, out, err = run(capsys, "exotic", "--primes", "3", "5", "--copies", "0")
    assert (code, out, err) == (1, "", "error: need at least one summand\n")


def test_round_trip_through_sum(capsys, tmp_path):
    # fold a report with an empty summand, then feed the output back in
    code, out, _ = run(capsys, "ch", "2", "2", "2", "2", "--window", "0:8")
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(out)
    empty = write_counts_file(tmp_path / "e.json", {}, 8, 3)
    code, out, _ = run(capsys, "sum", str(ch_file), empty)
    assert code == 0
    again = tmp_path / "sum.json"
    again.write_text(out)
    code, envelope, _ = run_json(capsys, "sum", str(again), empty)
    assert code == 0
    # second fold adds one more tube generator in each odd degree
    counts = dict((d, c) for d, c in envelope["payload"]["generator_counts"]["counts"])
    assert counts[3] == 2 and counts[5] == 2 and counts[7] == 2


def test_sum_refuses_a_report_that_is_not_well_defined(capsys, tmp_path):
    code, out, _ = run(capsys, "ch", "2", "3", "12", "7", "--window", "0:8")
    assert code == 3
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(out)
    code, out, err = run(capsys, "sum", str(ch_file), str(ch_file))
    assert code == 1
    assert out == ""
    assert "not well defined" in err


def test_sum_refuses_an_index_negative_report(capsys, tmp_path):
    code, out, _ = run(capsys, "ch", "7", "7", "7", "7", "--window=-30:0")
    assert code == 0
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(out)
    code, out, err = run(capsys, "sum", str(ch_file), str(ch_file))
    assert code == 1
    assert out == ""
    assert "unbounded below" in err


def counts_payload(counts, cutoff=9, n=3):
    return {"generator_counts": {"counts": counts, "cutoff": cutoff, "half_dim_n": n}}


def ch_payload(ranks, window=(0, 12)):
    return {"ranks": {"ranks": ranks, "window": list(window)}, "exponents": [6, 2, 2, 2]}


def summable_ch_payload(ranks, window=(0, 12), exponents=(6, 2, 2, 2)):
    # well defined and index-positive, so only the payload's shape can refuse it
    return {**ch_payload(ranks, window), "exponents": exponents,
            "well_defined": True, "character": {"sign": "positive"}}


# Numbers must be exact ints (no bool, no float to truncate), each degree
# listed once (not collapsed to its last count) and every count positive.
@pytest.mark.parametrize("payload, reason", [
    ({"generator_counts": {"counts": []}}, "malformed sum payload"),
    (["generator_counts"], "malformed envelope payload"),
    ({"ranks": {"ranks": []}, "exponents": [6, 2, 2, 2]}, "malformed ch payload"),
    (counts_payload([[2, 1], [2, 5]]), "malformed sum payload"),
    (counts_payload([[2.7, 1]]), "malformed sum payload"),
    (counts_payload([[True, 1]]), "malformed sum payload"),
    (counts_payload([[2, 1.0]]), "malformed sum payload"),
    (counts_payload([[2, 0]]), "malformed sum payload"),
    (counts_payload([[4, -1]]), "malformed sum payload"),
    (counts_payload([[2, 1]], cutoff=9.0), "malformed sum payload"),
    (counts_payload([[2, 1]], n=True), "malformed sum payload"),
    (ch_payload([[2, 1], [2, 1]]), "malformed ch payload"),
    (ch_payload([[2, 1]], window=(0, 12.5)), "malformed ch payload"),
    (ch_payload([[2, 1]], window=(False, 12)), "malformed ch payload"),
    (summable_ch_payload([[2, 1]], exponents="abcd"), "malformed ch payload"),
    (summable_ch_payload([[2, 1]], exponents=[6, 2, 2]), "malformed ch payload"),
    (summable_ch_payload([[2, 1]], exponents=[6.5, 2, 2, 2]), "malformed ch payload"),
    (summable_ch_payload([], window=(0, -3)), "malformed ch payload"),
    (summable_ch_payload([[0, 1]], window=(2, 12)), "malformed ch payload"),
    (counts_payload([[2, 1]], n=-5), "malformed sum payload"),
    (counts_payload([[2, 1]], n=1), "malformed sum payload"),
    ({"exponents": [6, 2, 2, 2]}, "envelope carries no generator counts"),
    (summable_ch_payload([[2, 0]]), "malformed ch payload"),
])
def test_sum_refuses_a_malformed_payload(capsys, tmp_path, payload, reason):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": "1", "payload": payload}))
    code, out, err = run(capsys, "sum", str(bad), str(bad))
    assert code == 1
    assert out == ""
    assert err == f"error: {bad}: {reason}\n"


# Faults the JSON reader itself raises: each names the file, none escapes main.
@pytest.mark.parametrize("content, reason", [
    (b"[" * 100_000, "maximum recursion depth exceeded"),
    (b'{"a": ' * 100_000, "maximum recursion depth exceeded"),
    (b'{"schema_version": "\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
    (b'{"schema_version": "1", "payload": {"generator_counts": {"counts": [[2, 1]], "cutoff": 1'
     + b"0" * 4_999 + b', "half_dim_n": 3}}}', "Exceeds the limit"),
], ids=["nested-array", "nested-object", "not-utf8", "5000-digit-int"])
def test_sum_names_the_file_for_every_fault_of_the_reader(capsys, tmp_path, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, "sum", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad}: {reason}")
    assert err.count("\n") == 1


def test_sum_reads_back_every_summable_envelope_the_cli_writes(capsys, tmp_path):
    # The reader refuses what the report types refuse; nothing the writer
    # emits as summable may be among it.  A file summed alone is its counts.
    rng = random.Random(7)
    written = {}  # path -> (half-dimension, generator counts it holds)
    for i in range(300):
        exponents = [str(rng.randint(2, 9)) for _ in range(rng.randint(4, 6))]
        lo = rng.randint(-3, 2)
        window = f"--window={lo}:{lo + rng.randint(0, 40)}"
        code, out, _ = run(capsys, "ch", *exponents, window)
        payload = json.loads(out)["payload"]
        if code != 0 or payload["character"]["sign"] != "positive":
            continue
        ranks = payload["ranks"]
        path = tmp_path / f"ch{i}.json"
        path.write_text(out)
        n = len(exponents) - 1
        written[str(path)] = n, {"counts": ranks["ranks"], "cutoff": ranks["window"][1],
                                 "half_dim_n": n}
    ch_files = list(written)
    for i in range(30):
        n = rng.choice([written[path][0] for path in ch_files])
        same_n = [path for path in ch_files if written[path][0] == n]
        argv = ["sum", *rng.choices(same_n, k=rng.randint(1, 3))]
        argv += ["--cutoff", str(rng.randint(0, 30))] * (rng.random() < 0.5)
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        path = tmp_path / f"sum{i}.json"
        path.write_text(out)
        written[str(path)] = n, json.loads(out)["payload"]["generator_counts"]
    assert len(ch_files) >= 40
    for path, (_, counts) in written.items():
        code, envelope, _ = run_json(capsys, "sum", path)
        assert code == 0, path
        assert envelope["payload"]["generator_counts"] == counts, path


def test_sum_refuses_a_window_that_starts_above_degree_two(capsys, tmp_path):
    # generators in degrees 2 and 4 lie below this window and would be lost
    code, out, _ = run(capsys, "ch", "6", "2", "2", "2", "--window", "6:12")
    assert code == 0
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(out)
    code, out, err = run(capsys, "sum", str(ch_file), str(ch_file))
    assert code == 1
    assert out == ""
    assert "window starts at 6" in err


def test_sum_accepts_a_window_that_starts_at_degree_two(capsys, tmp_path):
    code, out, _ = run(capsys, "ch", "6", "2", "2", "2", "--window", "2:12")
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(out)
    code, envelope, _ = run_json(capsys, "sum", str(ch_file), str(ch_file))
    assert code == 0
    assert envelope["payload"]["generator_counts"]["counts"][:2] == [[2, 2], [3, 1]]


def test_homology_invariant_failure_exits_5(capsys, monkeypatch):
    from brieskorn_ch import randell

    def broken(a):
        raise randell.HomologyInvariantError("torsion chain broken")

    monkeypatch.setattr(randell, "torsion", broken)
    code, out, err = run(capsys, "homology", "4", "2", "2", "2")
    assert code == 5
    assert out == ""
    assert err == "error: internal invariant failed: torsion chain broken\n"


def test_crosscheck_mismatch_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(maslov, "maslov_crosscheck_batch", lambda a, types, Ns: [-999] * len(Ns))
    code, out, err = run(capsys, "ch", "6", "2", "2", "2", "--crosscheck")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal invariant failed: index mismatch")


def test_crosscheck_exits_5_naming_the_first_row_the_batched_validity_rejects(
    capsys, monkeypatch
):
    # the batch is the one route to validity: every pair rejected, and the
    # first row of the report is the one named
    original = maslov.maslov_orbit_space_batch

    def all_invalid(a, types, Ns):
        return [False] * len(Ns), original(a, types, Ns)[1]

    monkeypatch.setattr(maslov, "maslov_orbit_space_batch", all_invalid)
    code, out, err = run(capsys, "ch", "6", "2", "2", "2", "--crosscheck")
    assert (code, out) == (5, "")
    assert err == ("error: internal invariant failed: row at m=2, N=1"
                   " is not an iterate of an orbit type\n")


def test_more_than_sixteen_exponents_are_refused(capsys):
    code, out, err = run(capsys, "homology", *["2"] * 17)
    assert code == 1
    assert out == ""
    assert err == "error: at most 16 exponents: cost grows as 2^k\n"


@pytest.mark.parametrize("argv, vector", [
    # the orbit types and each one's kappa read one divisor-ring product of
    # the whole vector; the crosscheck reads none
    (["ch", "3", "5", "2", "2", "--window", "0:12", "--crosscheck"], (3, 5, 2, 2)),
    # the middle rank and torsion's one odd closed complement, K = {0} with
    # g = 4, are both divisor sums of the one product
    (["homology", "4", "2", "2", "2"], (4, 2, 2, 2)),
    # the report and the scan below degree 2n-4 both read the plans, and the
    # homology's middle rank and the complements of K = {0} (g = 3) and
    # K = {1} (g = 5) read the same product
    (["exotic", "--primes", "3", "5"], (3, 5, 2, 2)),
], ids=["ch", "homology", "exotic"])
def test_each_command_computes_each_kappa_it_reads_once(capsys, monkeypatch, argv, vector):
    # a product per type or per support, plans rebuilt per scan or a second
    # homology run would multiply out more ring products than this one
    from brieskorn_ch import randell

    calls, products = [], []
    original, original_ring = randell._kappa_raw, randell._ring_product

    def counting(a, support):
        calls.append(tuple(support))
        return original(a, calls[-1])

    def counting_ring(values):
        products.append(tuple(values))
        return original_ring(products[-1])

    monkeypatch.setattr(randell, "_kappa_raw", counting)
    monkeypatch.setattr(randell, "_ring_product", counting_ring)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == []
    assert products == [vector]


def test_torsion_too_long_to_write_exits_1(capsys):
    # one run of 45,307,673,784 factors Z/11, refused before it is expanded
    code, out, err = run(capsys, "homology", *"9 7 11 12 12 12 7 12 8 9 12 8 12 7 7 4".split())
    assert code == 1
    assert out == ""
    assert err == ("error: torsion (Z/11)^45307673784 has more than 1000000 cyclic factors:"
                   " too large to write\n")


WINDOW_TOO_WIDE = "pass --window LO:HI with a narrower window"
GATE_TOO_LARGE = "the exponents are too large for the well-definedness check, whatever the window"


@pytest.mark.parametrize("argv, degrees, visits, reason", [
    # the default window, two periods of 10**7 + 2
    ("ch 10000000 2 2 2", "0 to 20000004", 10_000_002, WINDOW_TOO_WIDE),
    ("ch 3 3 3 3 --window 0:100000000", "0 to 100000000", 50_000_001, WINDOW_TOO_WIDE),
    # the gate over degrees -1..1 is what no window makes cheaper
    ("ch 2 3 7 43 1807 3263443 --window 0:10", "-1 to 1", 12_679_736_365_914, GATE_TOO_LARGE),
    # the window scan alone (8,333,333 multipliers) would run, for seconds
    ("ch 3 3 3 25000000 --window 0:0", "-1 to 1", 12_500_000, GATE_TOO_LARGE),
])
def test_ch_refuses_a_scan_too_large_to_finish(capsys, argv, degrees, visits, reason):
    # the first three ran out of memory after seconds; the scan's multiplier
    # ranges are summed before any multiplier is visited
    from brieskorn_ch.contact import MAX_SCAN_VISITS

    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (f"error: degrees {degrees} need {visits} multipliers scanned,"
                   f" more than {MAX_SCAN_VISITS}: {reason}\n")


@pytest.mark.parametrize("kind", ["ch", "sum"])
def test_sum_refuses_more_tube_degrees_than_it_can_write(capsys, tmp_path, kind):
    # a cutoff of 10**11 asks for 5 * 10**10 tube counts, which would run out
    # of memory inside `combine`; the least cutoff is sized before any sum
    from brieskorn_ch.randell import MAX_TORSION_FACTORS

    envelope = json.loads(run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12")[1])
    if kind == "ch":
        envelope["payload"]["ranks"]["window"][1] = 10**11
    else:
        envelope["payload"] = {"generator_counts": {"counts": [], "cutoff": 10**11, "half_dim_n": 3}}
    big = tmp_path / "big.json"
    big.write_text(json.dumps(envelope))
    start = time.perf_counter()
    code, out, err = run(capsys, "sum", str(big), str(big))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == (f"error: cutoff {10**11} asks for more than {MAX_TORSION_FACTORS}"
                   " tube degrees: too large to write\n")
    # one file is no sum, and --cutoff lowers the least cutoff under the budget
    assert run(capsys, "sum", str(big))[0] == 0
    code, envelope, _ = run_json(capsys, "sum", str(big), str(big), "--cutoff", "8")
    assert code == 0 and envelope["payload"]["generator_counts"]["cutoff"] == 8


def test_sum_cutoff_trims_the_inputs_before_they_are_combined(capsys, monkeypatch, tmp_path):
    f1 = write_counts_file(tmp_path / "a.json", {4: 1, 12: 2}, 40, 3)
    f2 = write_counts_file(tmp_path / "b.json", {6: 1, 20: 3}, 30, 3)
    seen = []
    original = cli.combine

    def recording(c1, c2):
        seen.extend((c1.cutoff, c2.cutoff))
        return original(c1, c2)

    monkeypatch.setattr(cli, "combine", recording)
    code, envelope, _ = run_json(capsys, "sum", f1, f2, "--cutoff", "10")
    assert code == 0
    assert seen and max(seen) <= 10
    assert envelope["payload"]["generator_counts"] == {
        "counts": [[3, 1], [4, 1], [5, 1], [6, 1], [7, 1], [9, 1]], "cutoff": 10, "half_dim_n": 3,
    }


def test_crosscheck_checks_each_index_once(capsys, monkeypatch):
    # the index depends on (m, N) only: 10 contributions, 5 distinct pairs,
    # handed to the batched route once; no scalar route runs
    calls = []
    original = maslov.maslov_crosscheck_batch

    def counting(a, types, Ns):
        calls.extend((t.m, N) for t, N in zip(types, Ns))
        return original(a, types, Ns)

    def refuse(a, t, N):
        raise AssertionError("a scalar route ran on a clean report")

    monkeypatch.setattr(maslov, "maslov_crosscheck_batch", counting)
    monkeypatch.setattr(maslov, "maslov_crosscheck", refuse)
    monkeypatch.setattr(maslov, "maslov_orbit_space", refuse)
    code, envelope, err = run_json(
        capsys, "ch", "6", "2", "2", "2", "--window", "0:12", "--provenance", "--crosscheck"
    )
    assert code == 0
    contributions = envelope["payload"]["contributions"]
    assert len(contributions) == 10
    assert calls == list(dict.fromkeys((c["m"], c["N"]) for c in contributions))
    assert len(calls) == 5
    assert "crosscheck: 10 contributions verified by both routes\n" in err


@pytest.mark.parametrize("row, fault", [
    # H_0 of the N = 1 cover of m = 2 sits in degree 2, not 4
    ((2, 1, 0, 4, 1), "puts the index at 5"),
    # 6 divides 3 * 2: the iterate leaves the type
    ((2, 3, 0, 8, 1), "is not an iterate of an orbit type"),
    # 4 is no type's time: J_4 = {1, 2, 3} has lcm 2
    ((4, 1, 0, 4, 1), "is not an iterate of an orbit type"),
    # N = 0 is no iterate, though every exponent divides 0 * m
    ((6, 0, 0, 0, 1), "is not an iterate of an orbit type"),
    # no injected row: the scan's own, with the batched unitary route off
    # by one on the last of the 5 distinct pairs only
    (None, "index mismatch for m=6, N=1: 8 != 9"),
], ids=["degree-off-by-two", "invalid-multiplier", "not-a-type-time", "zero-multiplier",
        "batch-off-on-a-later-pair"])
def test_crosscheck_checks_the_rows_the_scan_wrote(capsys, monkeypatch, row, fault):
    from dataclasses import replace

    if row is None:
        original = maslov.maslov_crosscheck_batch

        def corrupted(a, types, Ns):
            indices = original(a, types, Ns)
            indices[-1] += 1
            return indices

        monkeypatch.setattr(maslov, "maslov_crosscheck_batch", corrupted)
    else:
        real = cli.ch_report
        monkeypatch.setattr(
            cli, "ch_report", lambda a, window: replace(real(a, window), rows=(row,))
        )
    code, out, err = run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12", "--crosscheck")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal invariant failed: ") and fault in err
    if row is not None:
        assert f"m={row[0]}, N={row[1]}" in err


def test_crosscheck_reports_the_first_faulty_row(capsys, monkeypatch):
    from dataclasses import replace

    cases = [
        # degree off by two, then an invalid N
        (((2, 1, 0, 4, 1), (2, 3, 0, 8, 1)),
         "degree 4 at m=2, N=1, j=0 puts the index at 5, both routes give 3"),
        # an invalid N, then a degree off by two
        (((2, 3, 0, 8, 1), (2, 1, 0, 4, 1)),
         "row at m=2, N=3 is not an iterate of an orbit type"),
        # faults in two types, the later type's row first
        (((2, 1, 0, 2, 1), (6, 1, 2, 10, 2), (2, 2, 0, 6, 1)),
         "degree 10 at m=6, N=1, j=2 puts the index at 10, both routes give 8"),
    ]
    real = cli.ch_report
    for rows, fault in cases:
        monkeypatch.setattr(
            cli, "ch_report", lambda a, window, rows=rows: replace(real(a, window), rows=rows)
        )
        code, out, err = run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12", "--crosscheck")
        assert (code, out) == (5, "")
        assert err == f"error: internal invariant failed: {fault}\n"


def test_crosscheck_computes_every_period_afresh(capsys, monkeypatch):
    # the scan reads each type's later periods off its first; the audit reads
    # no period: with contact's plans and scans refusing to run, seeded
    # windows of 3-4 periods pass whole, and a row moved to the degree its
    # (m, N) would have one period later (degree + shift) exits 5
    from dataclasses import replace

    from brieskorn_ch import contact

    rng = random.Random(3401)
    reports = []
    while len(reports) < 24:
        exponents = tuple(rng.randint(2, 9) for _ in range(rng.randint(4, 6)))
        a = ExponentVector(exponents)
        shift = contact.period_shift(a)
        if a.reciprocal_sum() == 1 or (shift > 0) != (len(reports) % 2 == 0):
            continue
        lo = rng.randint(0, 10**4) * shift
        window = (min(lo, lo + 4 * shift), max(lo, lo + 4 * shift))
        report = contact.ch_report(a, window)
        if report.rows:
            reports.append((exponents, window, report))

    def refuse(*args):
        raise AssertionError("the audit ran contact's scan")

    monkeypatch.setattr(contact, "_plan", refuse)
    monkeypatch.setattr(contact, "_scan", refuse)
    for exponents, window, report in reports:
        a = ExponentVector(exponents)
        assert maslov.crosscheck_rows(a, report.rows) == len(report.rows)
        i = rng.randrange(len(report.rows))
        m, N, j, degree, count = report.rows[i]
        later = degree + report.period_shift
        rows = (*report.rows[:i], (m, N, j, later, count), *report.rows[i + 1:])
        monkeypatch.setattr(cli, "ch_report", lambda a, window, rows=rows, report=report:
                            replace(report, rows=rows))
        code, out, err = run(capsys, "ch", *map(str, exponents),
                             f"--window={window[0]}:{window[1]}", "--crosscheck")
        assert (code, out) == (5, "")
        assert err.startswith(f"error: internal invariant failed: degree {later} at m={m},"
                              f" N={N}, j={j} puts the index at ")


def test_crosscheck_builds_only_the_types_its_rows_name(capsys, monkeypatch):
    # the first twelve primes have 4,083 orbit types; the window's 51 rows
    # come from a few of them, and only those are built: the envelope is
    # the plain run's but for the option and the crosscheck's diagnostic
    argv = ["ch", "2", "3", "5", "7", "11", "13", "17", "19", "23", "29", "31", "37",
            "--window", "0:100"]
    code, plain, err = run(capsys, *argv)
    assert (code, err) == (0, "")

    def refuse(a):
        raise AssertionError("every orbit type was built")

    monkeypatch.setattr(cli, "enumerate_orbit_types", refuse)
    code, out, err = run(capsys, *argv, "--crosscheck")
    checked = "crosscheck: 51 contributions verified by both routes"
    assert (code, err) == (0, checked + "\n")
    expected = json.loads(plain)
    expected["diagnostics"] = [checked]
    expected["input"]["crosscheck"] = True
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_crosscheck_keeps_the_envelope_of_every_benchmark_window(capsys, monkeypatch):
    # every ch query of two benchmark passes, run plain and with
    # --crosscheck: the same exit and payload, and one more diagnostic
    # counting every row of the report
    from pathlib import Path

    from brieskorn_ch.randell import ExponentVector

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from queries import generate

    checked_rows = 0
    for seed in (1, 2):
        for query in generate("ch_window", seed):
            argv = [arg for arg in query.argv if arg != "--crosscheck"]
            code, plain, _ = run_json(capsys, *argv)
            crossed_code, crossed, _ = run_json(capsys, *argv, "--crosscheck")
            assert crossed_code == code
            assert crossed["input"].pop("crosscheck") is True
            assert plain["input"].pop("crosscheck") is False
            added = [d for d in crossed["diagnostics"] if d not in plain["diagnostics"]]
            assert crossed["diagnostics"] == added + plain["diagnostics"]
            crossed["diagnostics"] = plain["diagnostics"]
            assert crossed == plain
            if code == 2:  # degenerate: no report, nothing to check
                assert added == []
                continue
            rows = len(cli.ch_report(ExponentVector(query.exponents), query.window).rows)
            assert added == [f"crosscheck: {rows} contributions verified by both routes"]
            checked_rows += rows
    assert checked_rows > 10_000


def counting_plans(monkeypatch):
    """The return times m of the orbit-type plans `contact` builds, in build order."""
    from brieskorn_ch import contact

    built = []
    original = contact._plan

    def counting(a, m):
        built.append(m)
        return original(a, m)

    monkeypatch.setattr(contact, "_plan", counting)
    return built


def test_exotic_builds_each_orbit_space_once(capsys, monkeypatch):
    # the report, its gate and the sphere check's scan below degree 2n-4
    # share the plans kept on the exponent vector; of the types 2, 6, 10,
    # 15 and 30 of (3, 5, 2, 2) only m = 2 reaches degrees up to 2n-2 = 4
    built = counting_plans(monkeypatch)
    code, _, _ = run(capsys, "exotic", "--primes", "3", "5")
    assert code == 0
    assert built == [2]


def test_exotic_runs_two_scans_and_no_torsion(capsys, monkeypatch):
    # the report's gate and window scans are the only ones: the sphere clause
    # is Brieskorn's graph criterion, and the clause below 2n-4 reads the
    # report's ranks; the default window starts at 0, so no gap is scanned
    from brieskorn_ch import contact, randell

    scans = []
    original = contact._scan

    def counting(*args, **kwargs):
        scans.append(args[3:5])
        return original(*args, **kwargs)

    def refuse(a):
        raise AssertionError("torsion computed")

    monkeypatch.setattr(contact, "_scan", counting)
    monkeypatch.setattr(randell, "torsion", refuse)
    code, out, _ = run(capsys, "exotic", "--primes", "3", "5", "--copies", "3")
    assert code == 0
    assert json.loads(out)["payload"]["verdict"]["passed"] is True
    assert scans == [(-1, 1), (0, 4)]


def test_exotic_on_twelve_primes_builds_at_most_three_plans(capsys, monkeypatch):
    # 4,095 orbit types; the scans stop at the first type whose N = 1 lies
    # past the window, so only the types of least period get a plan
    built = counting_plans(monkeypatch)
    primes = ["3", "5", "7", "11", "13", "17", "19", "23", "29", "31", "37", "41"]
    code, out, _ = run(capsys, "exotic", "--primes", *primes)
    assert code == 0
    assert json.loads(out)["payload"]["verdict"]["passed"] is True
    assert len(built) <= 3 and len(set(built)) == len(built)


@pytest.mark.parametrize("extra", [[], ["--provenance"]])
def test_contributions_are_built_only_when_read(capsys, monkeypatch, extra):
    from brieskorn_ch import contact
    from brieskorn_ch.randell import ExponentVector

    argv = ["ch", "6", "2", "2", "2", "--window", "0:40", "--crosscheck", *extra]
    expected = run(capsys, *argv)
    assert expected[0] == 0

    def refuse(**fields):
        raise AssertionError("a Contribution was built")

    monkeypatch.setattr(contact, "Contribution", refuse)
    assert run(capsys, *argv) == expected
    monkeypatch.undo()
    report = contact.ch_report(ExponentVector((6, 2, 2, 2)), (0, 40))
    assert report.contributions is report.contributions
    assert [tuple(vars(c).values()) for c in report.contributions] == list(report.rows)


def test_one_parser_serves_repeated_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    calls = [["ch"], ["ch", "6", "2", "2", "2", "--window", "0:12"], ["ch"]]
    repeated = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert repeated == fresh
    assert repeated[0][0] == 1 and repeated[0][1] == ""
    assert repeated[0] == repeated[2]


# usage errors, abbreviated options, -h and refusals behind a subcommand name
SUBCOMMAND_CASES = [
    ["ch"],
    ["ch", "2", "2", "x", "2"],
    ["ch", "6", "2", "2", "2", "--win", "0:12", "--prov"],
    ["ch", "6", "2", "2", "2", "--window", "5:3"],
    ["ch", "6", "2", "2", "2", "--window", "-30:0"],
    ["ch", "--window=-30:0", "7", "7", "7", "7", "--f", "text"],
    ["ch", "6", "2", "2", "2", "--bogus"],
    ["ch", "4", "4", "4", "4"],
    ["ch", "-h"],
    ["homology", "2", "2"],
    ["homology", "4", "2", "2", "2", "--format", "xml"],
    ["orbits", "6", "2", "2", "2", "--format", "text"],
    ["exotic", "--primes", "4", "5"],
    ["exotic", "--pr", "3", "5", "--cop", "0"],
    ["exotic", "--primes", "3", "3"],
    ["exotic", "--help"],
    ["sum"],
    ["sum", "no-such-file.json", "--cut", "3"],
    # spellings at the edge of the one-pass read (`cli._read_args`)
    ["ch", "6", "2", "2", "2", "--window", "0:12", "--window", "0:20"],
    ["ch", "6", "--window", "0:12", "2", "2", "2"],
    ["exotic", "--primes", "3", "5", "--copies", "2", "7"],
    ["ch", "6", "2", "2", "2", "--provenance=1"],
    ["homology", "4", "2", "2", "2", "--format=text"],
    ["homology", "٤", "2", "2", "2"],  # ARABIC-INDIC FOUR: decimal, int reads it
    ["homology", "²", "2", "2", "2"],  # SUPERSCRIPT TWO: a digit, not decimal; int refuses it
]
# no subcommand name first: the one-pass read declines them all
FULL_PARSER_CASES = [
    [], ["-h"], ["cho", "2", "2", "2", "2"], ["--format", "json", "ch", "6", "2", "2", "2"],
]


def replay(capsys, argv):
    """(exit code, stdout, stderr) of `main`, also where argparse exits (-h)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_top_level_help_keeps_the_exit_code_table_lines(capsys):
    code, out, _ = replay(capsys, ["-h"])
    assert code == 0
    lines = out.splitlines()
    assert "    0  success" in lines
    assert "    4  special-sphere check failed" in lines


def test_the_one_pass_read_on_or_off_writes_the_same_bytes(capsys, monkeypatch):
    # the one-pass read, where it takes an argv, gives what the parser would:
    # with the read switched off, every argv takes the parser, as it always did
    cases = SUBCOMMAND_CASES + FULL_PARSER_CASES
    read_first = [replay(capsys, argv) for argv in cases]
    monkeypatch.setattr(cli, "_read_args", lambda argv: None)
    assert [replay(capsys, argv) for argv in cases] == read_first
    codes = [code for code, _, _ in read_first]
    assert codes.count(1) >= 12 and set(codes) == {0, 1, 2, 4}
    helps = [out for argv, (_, out, _) in zip(cases, read_first) if {"-h", "--help"} & set(argv)]
    assert [out.partition(" [")[0] for out in helps] == [
        "usage: brieskorn-ch ch", "usage: brieskorn-ch exotic", "usage: brieskorn-ch"
    ]


def argparse_args(argv):
    """The namespace the parser gives `argv`."""
    return cli._build_parser().parse_args(argv)


# every option in full, abbreviated and with a value after "="; values
# int, argparse or the read alone would refuse; tokens argparse alone reads
OPTIONS = sorted({option for *_, options in cli._COMMANDS.values() for option in options})
ABBREVIATED = ["--w", "--win", "--prov", "--p", "--pr", "--cross", "--c", "--cop", "--cut",
               "--beta", "--f", "--fo"]
DECIMALS = ["2", "3", "5", "6", "007", "٣"]
VALUES = [*DECIMALS, "²", "+5", "-3", "1_0", " 4", "", "0:12", "-30:0", "5:3", "a:b",
          "json", "text", "xml", "a.json", "a=b.json", "-"]
TOKENS = [*VALUES, *OPTIONS, *ABBREVIATED, "--", "-h", "--help", "--bogus"]
decimal_runs = st.lists(st.sampled_from(DECIMALS), min_size=1, max_size=4)


def pooled_argv(command):
    """`command`, then pieces of argv from the pools, its own options drawn
    most, and its positionals (the --primes run of `exotic`) in one place or none."""
    lead = decimal_runs if command != "exotic" else decimal_runs.map(lambda run: ["--primes", *run])
    option = st.sampled_from(sorted(cli._COMMANDS[command][3])) | st.sampled_from(
        OPTIONS + ABBREVIATED)
    pairs = st.tuples(option, st.sampled_from(VALUES))
    piece = st.one_of(
        decimal_runs,
        st.tuples(option, decimal_runs).map(lambda pair: [pair[0], *pair[1]]),
        pairs.map(list),
        pairs.map(lambda pair: ["=".join(pair)]),
        st.sampled_from(TOKENS).map(lambda token: [token]),
    )
    pieces = st.lists(piece, max_size=2)
    return st.tuples(pieces, lead | st.just([]), pieces).map(
        lambda parts: [command, *(token for tokens in [*parts[0], parts[1], *parts[2]]
                                  for token in tokens)])


def test_the_one_pass_read_gives_argparse_namespace_or_declines():
    # on any argv drawn from the pool: either None, or the namespace the
    # parser gives (which must then parse it, not refuse it)
    reads = Counter()

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.one_of(*map(pooled_argv, sorted(cli._COMMANDS))))
    def check(argv):
        args = cli._read_args(argv)
        if args is not None:
            reads[argv[0]] += 1
            assert vars(args) == vars(argparse_args(argv))

    check()
    assert set(reads) == set(cli._COMMANDS) and min(reads.values()) >= 25, reads


def test_every_argument_keyword_is_one_the_one_pass_read_interprets():
    # `_read_args` reads the argparse keywords of `_COMMANDS` itself, and only
    # these; an option written with another (nargs "?", action "append") must
    # fail here rather than be read as something argparse does not do
    entries = []
    for _, _, positional, options in cli._COMMANDS.values():
        entries += [] if positional is None else [positional[1]]
        entries += [keywords for _, _, keywords in options.values()]
    for keywords in entries:
        assert keywords.get("type", int) in (int, cli._parse_window), keywords
        assert keywords.get("nargs", "+") == "+", keywords
        assert keywords.get("action", "store_true") == "store_true", keywords
        assert set(keywords) <= {"type", "nargs", "action", "choices", "required", "help",
                                 "metavar"}, keywords


def test_every_benchmark_argv_takes_the_one_pass_read(capsys, monkeypatch, tmp_path):
    # seeds 1-3 of all three workloads and the `sum` inputs they read: each
    # argv is read with argparse's namespace, and `main` never calls argparse
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from queries import WORKLOADS, generate, sum_pool

    argvs = [list(query.argv) for seed in (1, 2, 3)
             for query in [q for _, q, _ in sum_pool(seed)] + [
                 q for workload in WORKLOADS for q in generate(workload, seed)]]
    for argv in argvs:
        assert vars(cli._read_args(argv)) == vars(argparse_args(argv)), argv

    def refuse(*args, **kwargs):
        raise AssertionError("argparse was called")

    monkeypatch.setattr(cli._build_parser(), "parse_args", refuse)
    monkeypatch.chdir(tmp_path)
    for seed in (1, 2, 3):
        for _, query, path in sum_pool(seed):
            _, out, _ = run(capsys, *query.argv)
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(out, encoding="utf-8")
    codes = Counter(run(capsys, *argv)[0] for argv in argvs)
    assert EXIT_USAGE not in codes and len(argvs) > 600, codes


def nested(code: CodeType):
    """`code` and every code object inside it: functions, classes, comprehensions."""
    yield code
    for const in code.co_consts:
        if type(const) is CodeType:
            yield from nested(const)


def test_no_code_of_cli_reads_a_pipeline_name_as_a_global():
    # `cli` reads each pipeline name as `_api.<name>`, which `__getattr__`
    # resolves.  A bare read skips it: a NameError until something binds the
    # name, which on a rare branch (an error path) nothing may have; and a
    # name `cli` defined itself would stand in for the stage's
    module = compile(Path(cli.__file__).read_text(encoding="utf-8"), cli.__file__, "exec")
    instructions = [i for code in nested(module) for i in dis.get_instructions(code)]
    names = {op: {i.argval for i in instructions if i.opname == op}
             for op in ("STORE_NAME", "STORE_GLOBAL", "LOAD_NAME", "LOAD_GLOBAL")}
    assert "_api" in names["LOAD_GLOBAL"]  # the walk reaches the functions' bodies
    public = set(brieskorn_ch._PUBLIC)
    for op, found in names.items():
        assert not found & public, (op, found & public)


def test_main_reads_the_process_arguments_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["brieskorn-ch", "homology", "4", "2", "2", "2"])
    code, out, _ = replay(capsys, None)
    assert code == 0
    assert json.loads(out)["payload"]["middle_rank"] == 1


def writer_cases(rng, sum_files):
    """Seeded argv lists covering every envelope shape the CLI writes."""
    for _ in range(300):
        exponents = [str(rng.randint(2, 9)) for _ in range(rng.randint(4, 6))]
        lo = rng.choice([0, -rng.randint(0, 400), rng.randint(0, 400)])
        argv = ["ch", *exponents, f"--window={lo}:{lo + rng.randint(0, 40)}", "--provenance"]
        yield argv + ["--crosscheck"] * (rng.random() < 0.3)
    for _ in range(50):
        yield ["homology", *(str(rng.randint(2, 8)) for _ in range(rng.randint(4, 6)))]
    for _ in range(20):
        primes = [str(rng.choice([3, 5, 7, 11, 13])) for _ in range(rng.randint(2, 3))]
        yield ["exotic", "--primes", *primes, "--copies", str(rng.randint(1, 5))]
    for _ in range(20):
        yield ["sum", *rng.sample(sum_files, rng.randint(1, 3))]
    for _ in range(20):
        yield ["ch", *(str(rng.randint(2, 5)) for _ in range(4)), "--window", "0:6"]
    yield ["ch", "4", "4", "4", "4"]
    yield ["ch", "6", "3", "3", "3"]
    yield ["homology", "4", "2", "2", "2"]
    yield ["exotic", "--primes", "3", "3"]


def test_writer_matches_the_indented_json_encoder(capsys, tmp_path):
    sum_files = []
    for window in ("0:12", "2:20", "0:30"):
        code, out, _ = run(capsys, "ch", "6", "2", "2", "2", "--window", window)
        sum_files.append(tmp_path / f"ch{len(sum_files)}.json")
        sum_files[-1].write_text(out)
    sum_files = [str(path) for path in sum_files]
    codes = set()
    cases = list(writer_cases(random.Random(6), sum_files))
    assert len(cases) >= 400
    for argv in cases:
        code, out, _ = run(capsys, *argv)
        codes.add(code)
        value = json.loads(out)
        assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2) == out[:-1]
    assert codes == {0, 2, 3, 4}  # success, degenerate, not well defined, failing sphere
    for value in ({}, [], {"a": {}, "b": [[], {}]}, [None, True, False, "S²×S³", -7]):
        assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def int_rows(mapping):
    """An int map (ranks, period multipliers, counts) as its payload rows [key, value]."""
    return [[key, value] for key, value in sorted(mapping.items())]


def plain(value):
    """A report object as the plain JSON value the README's payload
    paragraph gives it, for the standard encoder (`default=`); every key is
    spelled out here, none read off the writer's layouts."""
    kind = type(value)
    if kind is cli._Table and value.keys is None:
        return [list(row) for row in value.rows]
    if kind is cli._Table:
        return [dict(zip(value.keys, row)) for row in value.rows]
    if kind is cli._Merged:
        return {**plain(value.report), **value.extra}
    if kind is ExponentVector:
        return list(value.a)
    if kind is IndexCharacter:
        return {"sign": value.sign, "reciprocal_sum": str(value.reciprocal_sum)}
    if kind is GradedRanks:
        return {"ranks": int_rows(value.ranks), "window": list(value.window)}
    if kind is OrbitType:
        return {"m": value.m, "support": list(value.J), "orbit_space_dim": 2 * len(value.J) - 4}
    if kind is GeneratorCounts:
        return {"counts": int_rows(value.counts), "cutoff": value.cutoff,
                "half_dim_n": value.half_dim_n}
    if kind is HomologyReport:
        graded = [{"degree": degree, "rank": rank, "torsion": list(tors)}
                  for degree, (rank, tors) in sorted(value.full_graded.items())]
        return {"exponents": value.exponents, "middle_rank": value.middle_rank,
                "torsion": list(value.torsion), "graded": graded,
                "homotopy_sphere": value.homotopy_sphere, "description": value.description}
    if kind is CHReport:
        return {"exponents": value.exponents, "character": value.character,
                "ranks": value.ranks, "period_shift": value.period_shift,
                "period_multipliers": int_rows(value.period_multipliers),
                "well_defined": value.well_defined}
    if kind is SpecialSphereVerdict:
        return {"primes": list(value.primes), "is_homotopy_sphere": value.is_homotopy_sphere,
                "low_degree_rank": value.low_degree_rank,
                "tube_degree_rank": value.tube_degree_rank,
                "ranks_below": [list(row) for row in value.ranks_below],
                "well_defined": value.well_defined, "index_positive": value.index_positive,
                "passed": value.passed, "failing_clauses": list(value.failing_clauses())}
    raise TypeError(kind.__name__)


def reports_in(value):
    """Every report object and `_Table` inside a payload, reports inside
    reports included."""
    kind = type(value)
    if kind is dict or kind is list or kind is tuple:
        for item in value.values() if kind is dict else value:
            yield from reports_in(item)
    elif kind is cli._Merged:
        yield from reports_in(value.report)
        yield from reports_in(value.extra)
    elif kind is cli._Table:
        yield value
    elif dataclasses.is_dataclass(kind):
        yield value
        for field in dataclasses.fields(kind):
            yield from reports_in(getattr(value, field.name))


def test_writer_matches_the_encoder_on_the_envelopes_main_builds(capsys, monkeypatch, tmp_path):
    # the values `main` hands the writer: report objects with their int
    # maps, keyed tables (filled and empty), negative ints; the encoder sees
    # each report as its payload-format JSON value, built test-side
    written = []
    real = cli._dumps

    def recording(value, pad="\n"):
        if pad == "\n":  # the envelope itself, not a nested value
            written.append(value)
        return real(value, pad)

    monkeypatch.setattr(cli, "_dumps", recording)
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(
        run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12", "--provenance", "--crosscheck")[1]
    )
    for argv in (
        ["ch", "6", "2", "2", "2", "--window", "3:3", "--provenance"],
        ["ch", "7", "7", "7", "7", "--window=-30:0", "--provenance"],
        ["exotic", "--primes", "3", "5", "--copies", "3"],
        ["exotic", "--primes", "3", "3"],
        ["homology", "2", "3", "3", "3", "3"],
        ["sum", str(ch_file), str(ch_file), "--cutoff", "1"],
        ["orbits", "6", "2", "2", "2"],
        ["ch", "4", "4", "4", "4"],
    ):
        run(capsys, *argv)
    monkeypatch.undo()

    assert len(written) == 9
    for envelope in written:
        assert real(envelope) == json.dumps(envelope, sort_keys=True, indent=2, default=plain)
    payloads = [envelope["payload"] for envelope in written]
    found = [item for p in payloads for item in reports_in(p)]
    tables = [item for item in found if type(item) is cli._Table]
    assert {len(t.rows) > 0 for t in tables} == {True, False}  # filled and empty tables
    assert any(row[3] < 0 for row in payloads[2].extra["contributions"].rows)
    assert written[0]["input"]["window"] == (0, 12)
    assert payloads[6]["generator_counts"].counts == {}
    # every dict a report carries but the left-out graded groups is an int
    # map, and each is written as its keyless rows
    int_maps = [(item, field.name) for item in found if type(item) is not cli._Table
                for field in dataclasses.fields(item)
                if type(getattr(item, field.name)) is dict and field.name != "full_graded"]
    assert len(int_maps) == 3 + 3 + 2  # period multipliers, ranks, counts
    for item, name in int_maps:
        assert json.loads(real(item))[name] == int_rows(getattr(item, name))
    # the writer's `%d` templates take every table and int-map cell as an
    # int: a bool there would be written as 1, where JSON needs true
    cells = [cell for t in tables for row in t.rows for cell in row]
    cells += [cell for item, name in int_maps for row in getattr(item, name).items() for cell in row]
    assert {type(cell) for cell in cells} == {int}


def test_the_writer_caches_shapes_not_values(capsys, tmp_path):
    # layouts and templates are keyed by type, keys, width and indent: once
    # each command shape has been written, new inputs of those shapes add
    # no cache entry, so nothing one query's values shape outlives its call
    caches = (cli._dict_layout, cli._layout, cli._row_template)
    ch_file = tmp_path / "ch.json"
    ch_file.write_text(run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12")[1])

    def shapes(rng):
        exponents = [str(rng.randint(2, 9)) for _ in range(rng.randint(4, 8))]
        lo = rng.randint(-300, 300)
        yield ["homology", *exponents]
        yield ["orbits", *exponents]
        yield ["ch", *exponents, f"--window={lo}:{lo + rng.randint(0, 30)}", "--provenance"]
        yield ["exotic", "--primes", *rng.sample(["3", "5", "7", "11"], 2), "--copies", "3"]
        yield ["sum", str(ch_file), str(ch_file), "--cutoff", str(rng.randint(2, 12))]

    rng = random.Random(23)
    for _ in range(40):
        for argv in shapes(rng):
            run(capsys, *argv)
    sizes = [cache.cache_info().currsize for cache in caches]
    for _ in range(40):
        for argv in shapes(rng):
            run(capsys, *argv)
    assert [cache.cache_info().currsize for cache in caches] == sizes


def test_a_bool_never_reaches_an_int_template():
    # `%d` writes True as 1; JSON needs true.  Tables hold ints only (see the
    # envelopes test above), so a bool reaches the writer outside them only
    assert cli._dumps((1, True)) == "[\n  1,\n  true\n]"
    assert cli._dumps({"x": (False,)}) == json.dumps({"x": [False]}, sort_keys=True, indent=2)


leaves = st.none() | st.booleans() | st.integers() | st.text(max_size=4)


def tables_of(keys, width):
    """Tables of up to three rows of `width` int cells, as every table `main` builds."""
    rows = st.lists(st.tuples(*[st.integers()] * width), max_size=3)
    return rows.map(lambda rows: cli._Table(keys=keys, rows=rows))


tables = st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: tables_of(tuple(keys), len(keys))
) | st.integers(1, 4).flatmap(lambda width: tables_of(None, width))
# Report leaves, built from drawn ints as the commands build them.
characters = st.builds(
    IndexCharacter, st.sampled_from(["positive", "negative", "degenerate"]),
    st.builds(Fraction, st.integers(), st.integers(1, 50)),
)
graded_ranks = st.tuples(st.integers(-50, 50), st.integers(0, 8)).flatmap(
    lambda edges: st.builds(
        GradedRanks,
        st.dictionaries(st.integers(edges[0], edges[0] + edges[1]), st.integers(1, 10**6),
                        max_size=4),
        st.just((edges[0], edges[0] + edges[1])),
    )
)
orbit_types = st.builds(OrbitType, st.integers(1, 10**6),
                        st.lists(st.integers(0, 15), max_size=5).map(tuple))
generator_counts = st.tuples(st.integers(-20, 60), st.integers(3, 9)).flatmap(
    lambda edges: st.builds(
        GeneratorCounts,
        st.dictionaries(st.integers(-40, edges[0]), st.integers(1, 10**6), max_size=4),
        st.just(edges[0]), st.just(edges[1]),
    )
)
reports = characters | graded_ranks | orbit_types | generator_counts
json_values = st.recursive(
    leaves | tables | reports | st.lists(st.integers(), max_size=4).map(tuple),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_writer_matches_the_indented_json_encoder_on_any_value(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2, default=plain)
