"""The one structural fact behind every fast route: each block is one cycle.

On a valid system every criterion holds iff each block of the partition is
a single cycle of the atom map, and each fast route builds its witness from
the system's ``split_cycle``, the first cycle by least atom that is not all of
its block.  These tests re-derive that cycle from the raw cycles and blocks
and check the fact against the full report, which the tests in
``test_literal_routes`` certify against the literal rational routes.
"""

from fractions import Fraction

from hypothesis import given, settings

import ergolab as E

from conftest import systems
from test_literal_routes import assert_fast_matches_literal, fast, scan_corpus
from test_small_universe import every_valid_system

F = Fraction


def lex_first_split_cycle(system):
    """The cycle with the least least atom among those that are not a whole block."""
    blocks = {frozenset(b) for b in system.expectation.blocks}
    split = [c for c in system.cycles if frozenset(c) not in blocks]
    return min(split, key=min) if split else None


def assert_the_fact(system):
    ergodic = len(system.cycles) == len(system.expectation.blocks)
    assert E.full_report(system).ergodic == ergodic, system
    expected = lex_first_split_cycle(system)
    assert system.split_cycle == expected, system
    assert ergodic == (expected is None)
    return ergodic


def test_the_fact_on_the_small_universe():
    verdicts = {assert_the_fact(system) for system in every_valid_system()}
    assert verdicts == {True, False}


@given(systems(max_n=10))
@settings(max_examples=150, deadline=None)
def test_the_fact_on_random_systems(system):
    assert_the_fact(system)


def test_the_fact_on_the_scan_corpus():
    verdicts = {assert_the_fact(system) for system in scan_corpus()}
    assert verdicts == {True, False}


def test_witnesses_come_from_the_first_split_block():
    """Block {0, 2, 4} is the cycle 0 -> 2 -> 4; block {1, 3, 5} holds the
    cycles (1 5) and (3), so every witness is built from the cycle (1 5)."""
    weights = [F(1, 10), F(2, 10), F(1, 10), F(3, 10), F(1, 10), F(2, 10)]
    system = E.CepsSystem.from_parts(weights, [[0, 2, 4], [1, 3, 5]], [2, 5, 4, 3, 0, 1])
    assert system.is_valid and system.cycles == ((0, 2, 4), (1, 5), (3,))
    assert system.split_cycle == (1, 5)
    c = E.Component.from_indices(6, [1, 5])
    e = E.basis_vector(6, 1)
    expected = {
        "definition": c,
        "absorbing": c,
        "sweep-out": e,
        "time-average": e,
        "corr-bounded-pairs": (e, e),
        "corr-ideal-pairs": (e, e),
        "corr-component-pairs": (c, c),
        "corr-diagonal": (e, e),
        "corr-diagonal-components": (c, c),
    }
    assert set(expected) == set(E.CRITERIA)
    for criterion, witness in expected.items():
        assert fast(system, criterion) == (False, witness), criterion
    assert_fast_matches_literal(system)
