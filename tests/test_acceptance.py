"""Acceptance gate: the nine desk-scale criteria, one pass/fail line each.

The corpus is 1000 seeded random valid systems with up to 12 atoms and up to
4 blocks, shared by every criterion.  All comparisons are exact rational
equalities; the two timed criteria assert their runtime targets.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

import ergolab as E
from ergolab.cli import main
from ergolab.ergodicity import CORRELATION_VARIANTS

F = Fraction

CORPUS_SIZE = 1000
MAX_ATOMS = 12
MAX_BLOCKS = 4
N_GRID = [2 ** k for k in range(13)]  # 1, 2, 4, ..., 4096


def announce(number, name, detail):
    print(f"ACCEPTANCE {number} {name}: PASS ({detail})", flush=True)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260810)
    systems = []
    for i in range(CORPUS_SIZE):
        n = rng.randint(1, MAX_ATOMS)
        blocks = rng.randint(1, min(MAX_BLOCKS, n))
        systems.append(E.random_system(n, blocks, seed=1_000_003 * i + 17))
    return systems


def test_criterion_1_axiom_suite(corpus):
    """Operator axioms, system validation and range-fixity pass on all 1000 systems."""
    start = time.perf_counter()
    for system in corpus:
        assert E.verify_axioms(system.expectation).passed
        assert E.validate_system(system.expectation, system.koopman).passed
        assert E.check_range_fixed(system).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"axiom suite took {elapsed:.2f}s, target < 10s"
    announce(1, "axiom suite", f"{CORPUS_SIZE} systems in {elapsed:.2f}s")


def test_criterion_2_component_projection_law(corpus):
    """Whenever the average of a component is a component, it is that component."""
    engaged = 0
    checked = 0
    for index, system in enumerate(corpus):
        exp = system.expectation
        rng = random.Random(7_000_003 * index + 5)
        for _ in range(100):
            p = E.Component([rng.randint(0, 1) for _ in range(system.n)])
            image = exp.apply(p)
            checked += 1
            if E.is_component(image):
                engaged += 1
                assert image == p, (index, p)
    announce(2, "component projection law",
             f"{checked} samples, {engaged} engaged the hypothesis, 0 violations")


def test_criterion_3_invariance_criteria_equivalence(corpus):
    """Definition, absorbing and sweep-out deciders agree; exhaustive modes too (n <= 10)."""
    start = time.perf_counter()
    exhaustive_runs = 0
    for system in corpus:
        expected, _ = E.decide_definition(system)
        assert E.decide_absorbing(system)[0] == expected
        assert E.decide_sweep_out(system)[0] == expected
        if system.n <= 10:
            exhaustive_runs += 1
            assert E.decide_absorbing(system, exhaustive=True)[0] == expected
            assert E.decide_sweep_out(system, exhaustive=True)[0] == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"equivalence suite took {elapsed:.2f}s, target < 60s"
    announce(3, "invariance criteria equivalence",
             f"{CORPUS_SIZE} systems, {exhaustive_runs} exhaustive, 0 disagreements, {elapsed:.2f}s")


def test_criterion_4_time_averages(corpus):
    """Time averages equal conditional averages exactly iff the system is ergodic."""
    ergodic_count = 0
    for system in corpus:
        ergodic, _ = E.decide_definition(system)
        exp = system.expectation
        mismatches = []
        for i in range(system.n):
            ei = E.basis_vector(system.n, i)
            if E.birkhoff_limit(system, ei) != exp.apply(ei):
                mismatches.append(ei)
        if ergodic:
            ergodic_count += 1
            assert not mismatches
        else:
            assert mismatches  # a witness basis vector is found
        verdict, witness = E.decide_time_average(system)
        assert verdict == ergodic
        assert (witness is None) == ergodic
    announce(4, "time averages", f"{ergodic_count} ergodic / {CORPUS_SIZE - ergodic_count} not, 0 misses")


def test_criterion_5_cesaro_rate(corpus):
    """The wrap-around envelope bounds the Cesàro error at every grid index."""
    pairs = 0
    for index, system in enumerate(corpus[:100]):
        f = E.random_vector(system.n, seed=9_000_001 * index + 3)
        trace = E.cesaro_trace(system, f, N_GRID)
        scale = F(2 * system.longest_cycle) * E.sup_norm(f)
        for (n, _), err in zip(trace.values, trace.sup_errors):
            assert err <= scale / n, (index, n)
        pairs += 1
    announce(5, "Cesàro rate", f"{pairs} (system, vector) pairs x {len(N_GRID)} grid points, 0 violations")


def test_criterion_6_norm_preservation(corpus):
    """Composition preserves the q-norm powers (q=1,2,3) and the sup profiles, exactly."""
    checks = 0
    for index, system in enumerate(corpus):
        exp, koop = system.expectation, system.koopman
        for t in range(10):
            x = E.random_vector(system.n, seed=11_000_003 * index + t)
            moved = koop.apply(x)
            for q in (1, 2, 3):
                assert exp.norm_power(moved, q) == exp.norm_power(x, q), (index, t, q)
            assert exp.norm_inf(moved) == exp.norm_inf(x), (index, t)
            checks += 4
    # the check is not vacuous: a block-crossing bundle breaks it
    broken = E.CepsSystem.from_parts([F(1, 4)] * 4, [[0, 1], [2, 3]], [2, 1, 0, 3])
    assert not broken.is_valid
    assert any(not E.check_isometry(broken, E.basis_vector(4, i), q)
               for i in range(4) for q in (1, 2, 3, math.inf))
    announce(6, "norm preservation", f"{checks} equalities, 0 violations, teeth shown on invalid system")


def test_criterion_7_correlation_equivalence(corpus):
    """All five correlation criteria agree with the definition on every system."""
    pair_scans = 0
    diagonal_scans = 0
    for system in corpus:
        expected, _ = E.decide_definition(system)
        for variant in CORRELATION_VARIANTS:
            assert E.decide_correlation(system, variant)[0] == expected, variant
        if 2 * system.n <= E.DEFAULT_CAP:  # component-pair scan exhaustive for n <= 8
            pair_scans += 1
            ok, _ = E.decide_correlation(system, "corr-component-pairs", exhaustive=True)
            assert ok == expected
        if system.n <= E.DEFAULT_CAP:
            diagonal_scans += 1
            ok, _ = E.decide_correlation(system, "corr-diagonal-components", exhaustive=True)
            assert ok == expected
    announce(7, "correlation equivalence",
             f"{CORPUS_SIZE} systems, {pair_scans} exhaustive pair scans, "
             f"{diagonal_scans} exhaustive diagonal scans, 0 disagreements")


def test_criterion_8_oracle_certification(corpus):
    """The brute-force oracle agrees with the consensus verdict whenever it can run."""
    certified = 0
    for system in corpus:
        if system.n > 10:
            continue
        report = E.full_report(system)
        assert report.agreement
        assert E.oracle_ergodic(system) == report.ergodic
        certified += 1
    announce(8, "oracle certification", f"{certified} systems with n <= 10, 0 disagreements")


def test_criterion_9_fuzz_determinism(capsys):
    """The campaign command is clean and byte-identical across two runs."""
    argv = ["fuzz", "--atoms", "8", "--systems", "1000", "--seed", "7"]
    code_a = main(list(argv))
    out_a = capsys.readouterr().out
    code_b = main(list(argv))
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a == out_b
    summary = json.loads(out_a)
    assert summary["disagreements"] == 0
    assert summary["isometry_failures"] == 0
    assert summary["oracle_disagreements"] == 0
    announce(9, "fuzz determinism",
             f"two byte-identical runs, {summary['ergodic']} ergodic / {summary['non_ergodic']} not")
