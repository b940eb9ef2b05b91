import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brieskorn_ch import cli
from brieskorn_ch.cli import main


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
    from brieskorn_ch import cli

    monkeypatch.setattr(cli, "maslov_crosscheck", lambda a, t, N: -999)
    code, out, err = run(capsys, "ch", "6", "2", "2", "2", "--crosscheck")
    assert code == 5
    assert out == ""
    assert err.startswith("error: internal invariant failed: index mismatch")


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
    # the index depends on (m, N) only: 10 contributions, 5 distinct pairs
    calls = []
    original = cli.maslov_crosscheck

    def counting(a, t, N):
        calls.append((t.m, N))
        return original(a, t, N)

    monkeypatch.setattr(cli, "maslov_crosscheck", counting)
    code, envelope, err = run_json(
        capsys, "ch", "6", "2", "2", "2", "--window", "0:12", "--provenance", "--crosscheck"
    )
    assert code == 0
    contributions = envelope["payload"]["contributions"]
    assert len(contributions) == 10
    assert calls == list(dict.fromkeys((c["m"], c["N"]) for c in contributions))
    assert len(calls) == 5
    assert "crosscheck: 10 contributions verified by both routes\n" in err


@pytest.mark.parametrize("row", [
    (2, 1, 0, 4, 1),  # H_0 of the N = 1 cover of m = 2 sits in degree 2, not 4
    (2, 3, 0, 8, 1),  # 6 divides 3 * 2: the iterate leaves the type
], ids=["degree-off-by-two", "invalid-multiplier"])
def test_crosscheck_checks_the_rows_the_scan_wrote(capsys, monkeypatch, row):
    from dataclasses import replace

    real = cli.ch_report
    monkeypatch.setattr(cli, "ch_report", lambda a, window: replace(real(a, window), rows=(row,)))
    code, out, err = run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12", "--crosscheck")
    assert code == 5
    assert out == ""
    m, N = row[:2]
    assert err.startswith("error: internal invariant failed: ")
    assert f"m={m}, N={N}" in err


def test_crosscheck_reports_the_first_faulty_row(capsys, monkeypatch):
    from dataclasses import replace

    rows = ((2, 1, 0, 4, 1), (2, 3, 0, 8, 1))  # degree off by two, then an invalid N
    real = cli.ch_report
    monkeypatch.setattr(cli, "ch_report", lambda a, window: replace(real(a, window), rows=rows))
    code, out, err = run(capsys, "ch", "6", "2", "2", "2", "--window", "0:12", "--crosscheck")
    assert (code, out) == (5, "")
    assert err == (
        "error: internal invariant failed: degree 4 at m=2, N=1, j=0 puts the index at 5,"
        " both routes give 3\n"
    )


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
]
# no subcommand name first: the full parser reads these on either route
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


def test_a_leading_subcommand_skips_the_full_parser_with_the_same_bytes(capsys, monkeypatch):
    # the one-hop route hands argv[1:] to the subcommand's parser; without
    # the subcommand table every argv takes the full parser, as it always did
    parser, _ = cli._build_parser()
    cases = SUBCOMMAND_CASES + FULL_PARSER_CASES

    def refuse(argv):
        raise AssertionError(f"the full parser read {argv}")

    monkeypatch.setattr(parser, "parse_args", refuse)
    one_hop = [replay(capsys, argv) for argv in SUBCOMMAND_CASES]
    monkeypatch.undo()
    one_hop += [replay(capsys, argv) for argv in FULL_PARSER_CASES]
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
    assert [replay(capsys, argv) for argv in cases] == one_hop
    codes = [code for code, _, _ in one_hop]
    assert codes.count(1) >= 12 and set(codes) == {0, 1, 2, 4}
    helps = [out for argv, (_, out, _) in zip(cases, one_hop) if {"-h", "--help"} & set(argv)]
    assert [out.partition(" [")[0] for out in helps] == [
        "usage: brieskorn-ch ch", "usage: brieskorn-ch exotic", "usage: brieskorn-ch"
    ]


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


def plain(value):
    """A `_Table` as the list of arrays or objects it stands for, for the standard encoder."""
    if type(value) is cli._Table and value.keys is None:
        return [list(row) for row in value.rows]
    if type(value) is cli._Table:
        return [dict(zip(value.keys, row)) for row in value.rows]
    raise TypeError(type(value).__name__)


def tables_in(value):
    """Every `_Table` inside a payload."""
    if type(value) is cli._Table:
        yield value
    elif type(value) in (dict, list, tuple):
        for item in value.values() if type(value) is dict else value:
            yield from tables_in(item)


def test_writer_matches_the_encoder_on_the_envelopes_main_builds(capsys, monkeypatch, tmp_path):
    # the values `main` hands the writer: keyless and keyed tables (filled
    # and empty), negative ints; the encoder sees each table as its rows
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
    ):
        run(capsys, *argv)
    monkeypatch.undo()

    assert len(written) == 7
    for envelope in written:
        assert real(envelope) == json.dumps(envelope, sort_keys=True, indent=2, default=plain)
    payloads = [envelope["payload"] for envelope in written]
    tables = [p[key] for p in payloads for key in ("contributions", "iterated_counts") if key in p]
    assert {len(t.rows) > 0 for t in tables} == {True, False}  # filled and empty tables
    assert any(row[3] < 0 for row in payloads[2]["contributions"].rows)
    assert written[0]["input"]["window"] == (0, 12)
    assert type(payloads[0]["ranks"]["ranks"].rows[0]) is tuple
    assert payloads[-1]["generator_counts"]["counts"].rows == []
    # every int map the reports carry is a keyless table, and nothing else is
    ch = [p for p in payloads if "period_multipliers" in p]
    int_maps = [p["period_multipliers"] for p in ch] + [p["ranks"]["ranks"] for p in ch]
    int_maps += [p[key]["counts"] for p in payloads for key in ("generator_counts", "final_counts")
                 if key in p]
    assert len(int_maps) == 3 + 3 + 2
    assert all(type(t) is cli._Table and t.keys is None for t in int_maps)
    keyless = [t for p in payloads for t in tables_in(p) if t.keys is None]
    assert sorted(map(id, keyless)) == sorted(map(id, int_maps))
    # the writer's `%d` templates take every table cell as an int: a bool
    # there would be written as 1, where JSON needs true
    cells = [cell for p in payloads for t in tables_in(p) for row in t.rows for cell in row]
    assert {type(cell) for cell in cells} == {int}


def test_a_bool_never_reaches_an_int_template():
    # `%d` writes True as 1; JSON needs true.  Tables hold ints only (see the
    # envelopes test above), so a bool reaches the writer outside them only
    assert cli._dumps((1, True)) == "[\n  1,\n  true\n]"
    assert cli._dumps({"x": (False,)}) == json.dumps({"x": [False]}, sort_keys=True, indent=2)


leaves = st.none() | st.booleans() | st.integers() | st.text(max_size=4)


def tables_of(keys, width):
    """Tables of up to three rows of `width` int cells, as every table `main` builds."""
    rows = st.lists(st.tuples(*[st.integers()] * width), max_size=3)
    return rows.map(lambda rows: cli._Table(keys, rows))


tables = st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: tables_of(tuple(keys), len(keys))
) | st.integers(1, 4).flatmap(lambda width: tables_of(None, width))
json_values = st.recursive(
    leaves | tables | st.lists(st.integers(), max_size=4).map(tuple),
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
