"""Acceptance suite: every criterion prints one PASS/FAIL line.

All comparisons are exact (integer and rational arithmetic end to end),
so there are no tolerances anywhere.  Golden values live in
tests/golden/ and were frozen from the first verified runs.
"""

import functools
import itertools
import json
import random
from pathlib import Path

import pytest

import brieskorn_ch as b
from brieskorn_ch.cli import json_value as _verdict_payload, main
from randell_oracle import kappa_oracle, torsion_oracle

GOLDEN = Path(__file__).parent / "golden"


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")
        return run
    return wrap


def ev(*exponents):
    return b.ExponentVector(tuple(exponents))


# ---------------------------------------------------------------------------
# shared input pools (also swept by the parity criterion)

def s2xs3_family():
    return [(ev(2 * l, 2, 2, 2), (0, 2 * l + 6)) for l in range(2, 11)]


def index_negative_family():
    out = []
    for k in range(7, 13):
        window = (8 * (4 - k) - 2, 2 * (4 - k) + 2)  # multipliers 1..4
        out.append((ev(k, k, k, k), window))
    return out


def unit_cotangent_family():
    return [(ev(*(2,) * count), (0, 16)) for count in (4, 5, 6)]


def even_graded(a):
    # Orbit spaces of odd dimension-count support can carry middle homology
    # in odd degree (positive-genus quotients); keep periodicity sampling in
    # the even-graded regime the golden families live in.
    return all(
        len(t.J) % 2 == 0 or b.kappa(a, t.J) == 0 for t in b.enumerate_orbit_types(a)
    )


def periodicity_sample(count=10):
    rng = random.Random(20260810)
    sample = []
    while len(sample) < count:
        a = tuple(rng.randint(2, 6) for _ in range(rng.choice((4, 5))))
        vec = b.ExponentVector(a)
        if vec.reciprocal_sum() <= 1 or not even_graded(vec):
            continue
        sample.append(vec)
    return sample


def special_sphere_pool():
    golden = json.loads((GOLDEN / "randell_and_primes.json").read_text())
    pool = []
    for key in ("special_primes_n3_bound50", "special_primes_n4_bound50"):
        primes = tuple(golden[key])
        a = b.sphere_exponents(primes)
        pool.append((a, (0, 2 * a.n - 2)))
    return pool


# ---------------------------------------------------------------------------

@criterion(1, "S2xS3 family golden values")
def test_criterion_1(capsys):
    for a, window in s2xs3_family():
        l = a[0] // 2
        code = main(["ch", *(str(x) for x in a), "--window", f"{window[0]}:{window[1]}"])
        envelope = json.loads(capsys.readouterr().out)
        assert code == 0
        expected = [[2, 1]] + [[d, 2] for d in range(4, 2 * l + 7, 2)]
        assert envelope["payload"]["ranks"]["ranks"] == expected, tuple(a)
        assert envelope["payload"]["period_shift"] == 2 * l + 2
        assert envelope["payload"]["well_defined"] is True
        homology = b.full_homology(a)
        assert homology.middle_rank == 1 and homology.torsion == ()


@criterion(2, "index-negative family golden values")
def test_criterion_2():
    for a, window in index_negative_family():
        k = a[0]
        report = b.ch_report(a, window)
        assert report.character.is_negative
        assert report.well_defined
        d = ((k - 1) ** 4 - 1) // k + 2
        expected = {}
        for N in range(1, 5):
            center = 2 * N * (4 - k)
            expected[center - 2] = 1
            expected[center] = d
            expected[center + 2] = 1
        assert dict(report.ranks.items()) == expected, k
        assert b.full_homology(a).middle_rank == k**3 - 4 * k**2 + 6 * k - 3


@criterion(3, "degenerate gate exits with code 2")
def test_criterion_3(capsys):
    degenerate_inputs = [
        ["4", "4", "4", "4"],
        ["6", "6", "3", "3"],
        ["6", "6", "6", "6", "3"],
        ["6", "6", "6", "6", "6", "6"],
    ]
    for tokens in degenerate_inputs:
        code = main(["ch", *tokens])
        capsys.readouterr()
        assert code == 2, tokens


@criterion(4, "Maslov cross-check identity, 500 random vectors")
def test_criterion_4():
    rng = random.Random(414243)
    checked = 0
    for _ in range(500):
        a = tuple(rng.randint(2, 12) for _ in range(rng.randint(4, 6)))
        vec = b.ExponentVector(a)
        for t in b.enumerate_orbit_types(vec):
            for N in range(1, 41):
                if b.valid_multiplier(vec, t, N):
                    assert b.maslov_orbit_space(vec, t, N) == b.maslov_crosscheck(
                        vec, t, N
                    ), (a, t.m, N)
                    checked += 1
    assert checked > 100_000


@criterion(5, "Randell oracle equivalence, exhaustive grid")
def test_criterion_5():
    support = (0, 1, 2, 3)
    for a in itertools.product(range(2, 9), repeat=4):
        vec = b.ExponentVector(a)
        assert b.kappa(vec, support) == kappa_oracle(a, support), a
        assert b.torsion(vec) == torsion_oracle(a), a
    for k in range(2, 13):
        for s in range(2, 7):
            vec = b.ExponentVector((k,) * max(s, 4))
            closed_form = ((k - 1) ** s - (-1) ** s) // k + (-1) ** s
            assert b.kappa(vec, tuple(range(s))) == closed_form, (k, s)


@criterion(6, "periodic block structure, 10 random index-positive vectors")
def test_criterion_6():
    for vec in periodicity_sample():
        shift = b.period_shift(vec)
        assert shift > 0
        L = vec.lcm()
        d0 = max(
            b.generator_degree(vec, t, N, t.orbit_space_dim)
            for t in b.enumerate_orbit_types(vec)
            for N in range(1, L // t.m + 1)
            if b.valid_multiplier(vec, t, N)
        )
        ranks = b.ch_ranks(vec, (d0, d0 + 3 * shift - 1))
        blocks = []
        for i in range(3):
            lo = d0 + i * shift
            blocks.append({d - lo: k for d, k in ranks.items() if lo <= d < lo + shift})
        assert blocks[0] == blocks[1] == blocks[2], tuple(vec)


@criterion(7, "no odd degree carries a nonzero rank in any suite input")
def test_criterion_7():
    pools = (
        s2xs3_family()
        + index_negative_family()
        + unit_cotangent_family()
        + special_sphere_pool()
        + [(vec, (0, 3 * b.period_shift(vec))) for vec in periodicity_sample()]
    )
    for a, window in pools:
        ranks = b.ch_ranks(a, window)
        odd = {d: k for d, k in ranks.items() if d % 2}
        assert not odd, (tuple(a), odd)


@criterion(8, "connected-sum ladder arithmetic")
def test_criterion_8():
    for n in (3, 4, 5):
        sphere = b.GeneratorCounts(
            counts={2 * n - 4: 2}, cutoff=2 * n - 1, half_dim_n=n
        )
        for r in range(1, 21):
            total = b.iterated_sphere_sum(sphere, r)
            assert total[2 * n - 4] == 2 * r, (n, r)
            assert total[2 * n - 3] == r - 1, (n, r)


@criterion(9, "special-sphere verdicts reproduce the goldens")
def test_criterion_9():
    golden = json.loads((GOLDEN / "randell_and_primes.json").read_text())
    pr1 = b.find_special_primes(3, 50)
    pr2 = b.find_special_primes(4, 50)
    assert pr1 == tuple(golden["special_primes_n3_bound50"])
    assert pr2 == tuple(golden["special_primes_n4_bound50"])
    for primes in (pr1, pr2):
        verdict = b.check_primes(primes)
        assert verdict.passed and verdict.failing_clauses() == ()

    recorded = (GOLDEN / "verdict_primes_3_3.json").read_text()
    reproduced = json.dumps(_verdict_payload(b.check_primes((3, 3))), indent=2, sort_keys=True) + "\n"
    assert reproduced == recorded


@criterion(10, "unit cotangent bundle family golden values")
def test_criterion_10():
    golden = json.loads((GOLDEN / "unit_cotangent_family.json").read_text())
    for a, window in unit_cotangent_family():
        report = b.ch_report(a, window)
        frozen = golden[str(len(a))]
        assert report.well_defined and frozen["well_defined"]
        assert report.character.is_positive and frozen["sign"] == "positive"
        assert [[d, k] for d, k in report.ranks.items()] == frozen["ranks"]
        assert report.period_shift == frozen["period_shift"]
