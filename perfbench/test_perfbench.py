"""Self-checks of the benchmark: determinism, tracing hygiene, live checks.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _argvs(workload, seed):
    return [q.argv for q in queries.generate(workload, seed)]


def _sample(query_list, per_command=4):
    # A few queries of each command, cheapest first, to keep the test short.
    picked, seen = [], {}
    for q in sorted(query_list, key=lambda q: (q.copies, len(q.exponents), q.argv)):
        if seen.get(q.command, 0) < per_command:
            seen[q.command] = seen.get(q.command, 0) + 1
            picked.append(q)
    return picked


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_query_list_follows_the_seed(workload):
    assert _argvs(workload, 11) == _argvs(workload, 11)
    assert _argvs(workload, 11) != _argvs(workload, 12)


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_same_seed_gives_same_outputs_and_work_counts(workload, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    counts, digests = [], []
    for _ in range(2):
        pool = queries.write_sum_pool(5, lambda argv: run.call(argv)[1])
        sample = _sample(queries.generate(workload, 5))
        plain, traced = run.Loop(sample), run.Loop(sample)
        plain.run_pass()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.run_pass(tracer)
        finally:
            tracer.remove()
        assert traced.digests == plain.digests
        assert run.check_all(plain, pool) == {}
        assert not tracer.missing
        counts.append(tracer.work_counts())
        digests.append(plain.digests)
    assert counts[0] == counts[1]
    assert digests[0] == digests[1]
    assert counts[0]["cli.main.calls"] == len(sample)


def test_wrappers_are_removed():
    import brieskorn_ch.cli as cli
    import brieskorn_ch.contact as contact

    before = (cli.ch_report, contact.valid_multiplier)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.ch_report is not before[0]
    tracer.remove()
    assert (cli.ch_report, contact.valid_multiplier) == before


def test_eigenvalue_count_matches_known_ranks():
    assert oracle.eigen_count((4, 2, 2, 2)) == 1
    assert oracle.eigen_count((7, 7, 7, 7)) == 186
    assert oracle.eigen_count((6, 2, 2, 2)) == 1
    assert oracle.graph_sphere((3, 5, 2, 2)) and not oracle.graph_sphere((3, 3, 2, 2))


TAMPER = [
    (queries.Query("homology", ("homology", "6", "2", "2", "2"), exponents=(6, 2, 2, 2)),
     lambda p: p.__setitem__("middle_rank", p["middle_rank"] + 1)),
    (queries.Query("ch", ("ch", "6", "2", "2", "2", "--window=0:12", "--provenance"),
                   exponents=(6, 2, 2, 2), window=(0, 12), provenance=True),
     lambda p: p["contributions"].pop()),
    (queries.Query("exotic", ("exotic", "--primes", "3", "5", "--copies", "3"),
                   primes=(3, 5), copies=3),
     lambda p: p["iterated_counts"][2].__setitem__("tube_degree", 0)),
]


@pytest.mark.parametrize("query,tamper", TAMPER, ids=[q.command for q, _ in TAMPER])
def test_checks_accept_the_output_and_catch_a_change(query, tamper):
    code, stdout, stderr, exc = run.call(query.argv)
    assert exc is None
    assert oracle.check(query, code, stdout, stderr) == []
    envelope = json.loads(stdout)
    tamper(envelope["payload"])
    assert oracle.check(query, code, json.dumps(envelope), stderr)
