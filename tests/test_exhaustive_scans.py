"""The exhaustive routes: a pinned digest of their reports, and their reach.

The digest pins every verdict and the lex-first order of every witness on a
fixed seeded corpus, so any change to either fails loudly.  The reach tests
run the bit-sliced scans at the default cap, check that the cap refuses a
scan before any truth table exists, bound the memory a scan holds, count
the identity evaluations of the component-pair scan, and run the component
scans at caps no walk of the masks could meet.
"""

import hashlib
import json
import math
import time
import tracemalloc

import pytest

import ergolab as E
from ergolab import caps, ergodicity

from conftest import one_cycle_per_block
from test_literal_routes import literal_absorbing_scan, literal_sweep_out_scan

# sha256 of the exhaustive reports over DIGEST_CORPUS, one sorted-key JSON
# line per system, as computed before the scans were bit-sliced
REPORT_DIGEST = "855ee11570c41fbfac96484e1571311fec04c03e27e3aeef7214ada317e177b4"


def digest_corpus():
    """400 seeded random systems, n <= 8 and 1-4 blocks, 135 of them ergodic."""
    for k in range(400):
        n = 1 + k % 8 if k % 3 else 5 + k % 4
        blocks = 1 + (k // 8) % min(4, n)
        yield E.random_system(n, blocks, 7919 * k + 13)


def test_exhaustive_reports_keep_their_digest():
    digest = hashlib.sha256()
    ergodic = 0
    for system in digest_corpus():
        report = E.full_report(system, exhaustive=True, cap=16).to_dict()
        ergodic += report.get("ergodic", False)
        digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    assert ergodic == 135
    assert digest.hexdigest() == REPORT_DIGEST


@pytest.mark.parametrize("split", [False, True])
def test_scans_at_the_default_cap_agree_with_the_fast_routes(split):
    system = one_cycle_per_block(E.DEFAULT_CAP, 1, seed=5, split=split)
    for decide, literal in ((E.decide_absorbing, literal_absorbing_scan),
                            (E.decide_sweep_out, literal_sweep_out_scan)):
        assert decide(system)[0] is not split
        scanned = decide(system, exhaustive=True)
        assert scanned[0] is not split
        if split:  # the literal scan stops early here
            assert scanned == literal(system)


def test_the_cap_refuses_a_scan_before_any_table_is_built(monkeypatch):
    def no_tables(n):
        raise AssertionError("a truth table was built")

    monkeypatch.setattr(ergodicity, "_lex_tables", no_tables)
    system = one_cycle_per_block(E.DEFAULT_CAP + 1, 1, seed=5)
    for decide in (E.decide_absorbing, E.decide_sweep_out):
        with pytest.raises(E.CapExceededError):
            decide(system, exhaustive=True)


@pytest.mark.parametrize("cap", [True, False])
def test_the_cap_refuses_a_bool(cap):
    """bool is an int subclass, but no budget: refused as a bad cap, not
    read as 2**1 or 2**0."""
    with pytest.raises(ValueError, match="nonnegative integer") as err:
        E.decide_absorbing(one_cycle_per_block(3, 1, seed=5), True, cap)
    assert not isinstance(err.value, E.CapExceededError)
    with pytest.raises(ValueError, match="nonnegative integer"):
        caps.resolve(cap)


def test_slices_bound_the_memory_of_a_scan():
    """All 2**20 components of an ergodic system: unsliced, each truth table
    would hold 2**20 bits (128 KB), 2.6 MB per set of 20, and the join loop
    holds about three sets at once."""
    system = one_cycle_per_block(20, 2, seed=5)
    tracemalloc.start()
    try:
        ok, witness = E.decide_sweep_out(system, exhaustive=True, cap=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok and witness is None
    assert peak < 4 * 2 ** 20


def test_the_pair_scan_evaluates_each_unordered_class_pair_once(monkeypatch):
    """Ergodic, so the scan visits every mask pair p <= q; the identity reads
    only per-cycle counts and is symmetric, so one evaluation per unordered
    pair of the prod(|C| + 1) count classes is all it needs."""
    system = one_cycle_per_block(9, 4, seed=9)
    holds = ergodicity._pair_holds
    calls = []

    def counted(identity, counts_p, counts_q):
        calls.append(frozenset((counts_p, counts_q)))
        return holds(identity, counts_p, counts_q)

    monkeypatch.setattr(ergodicity, "_pair_holds", counted)
    assert E.decide_correlation(system, "corr-component-pairs", exhaustive=True, cap=18) == (True, None)
    classes = math.prod(len(c) + 1 for c in system.cycles)
    assert len(set(calls)) == classes * (classes + 1) // 2
    assert len(calls) == len(set(calls)) == 5886


@pytest.mark.parametrize("n, blocks, split", [(24, 3, False), (20, 2, True)])
def test_the_component_scans_reach_past_the_mask_walk(n, blocks, split):
    """At cap 2n both scans run where a walk of the 2**(2n-1) mask pairs
    could not: the classes number prod(|C| + 1), 729 at n=24 with three
    8-cycles, and each unordered pair of them is tested once."""
    system = one_cycle_per_block(n, blocks, seed=5, split=split)
    start = time.perf_counter()
    ok, pair = E.decide_correlation(system, "corr-component-pairs", exhaustive=True, cap=2 * n)
    diagonal_ok, diagonal = E.decide_correlation(system, "corr-diagonal-components",
                                                 exhaustive=True, cap=2 * n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"both scans took {elapsed:.2f}s, target < 5s"
    assert ok == diagonal_ok == E.decide_correlation(system, "corr-component-pairs")[0]
    assert ok is not split
    if split:
        p, _ = diagonal
        assert pair == diagonal == (p, p)
        average = system.expectation.apply(p)
        assert E.correlation_limit(system, p, p) != average * average
    else:
        assert pair is diagonal is None


def cauchy_schwarz_corpus():
    """Seeded random systems (n 2-8) and split one-cycle-per-block systems."""
    for k in range(160):
        n = 2 + k % 7
        yield E.random_system(n, 1 + (k // 7) % min(4, n), 104729 * k + 3)
    for n in range(2, 9):
        for blocks in range(1, n):
            yield one_cycle_per_block(n, blocks, seed=n * 31 + blocks, split=True)


def test_the_pair_scan_fails_first_on_the_diagonal():
    """Per block the identity's gap is a positive semidefinite form in the
    cycle counts, so a component whose diagonal passes passes against every
    q, and the lex-first failing pair is (p, p), p the diagonal scan's
    witness.  Both scans run in full: neither reads the other."""
    checked = failed = 0
    for system in cauchy_schwarz_corpus():
        ok, pair = E.decide_correlation(system, "corr-component-pairs", exhaustive=True)
        diagonal_ok, diagonal = E.decide_correlation(system, "corr-diagonal-components",
                                                     exhaustive=True)
        assert ok == diagonal_ok
        assert pair == diagonal
        if not ok:
            p, q = pair
            assert p == q
            failed += 1
        checked += 1
    assert (checked, failed) == (188, 135)
