"""Literal references that certify the fast decision routes.

Each reference below evaluates its criterion the direct way: it builds the
rational vectors and applies the operators, with no structural view, no
block restriction and no integer clearing.  The fast routes must return the
same verdict and the same (lex-first) witness on every system of the small
universe and on random systems up to seven atoms.
"""

from hypothesis import given, settings

import ergolab as E

from conftest import systems
from test_small_universe import every_valid_system


def literal_definition(system):
    exp = system.expectation
    for p in system.cycle_indicators():
        if exp.apply(p) != p:
            return False, p
    return True, None


def literal_absorbing(system):
    exp = system.expectation
    for p in system.cycle_indicators():
        if not exp.in_range(p):
            return False, p
    return True, None


def literal_sweep_out(system):
    n = system.n
    for i in range(n):
        if not system.expectation.in_range(E.orbit_join(system, E.basis_vector(n, i))):
            return False, E.basis_vector(n, i)
    return True, None


def literal_time_average(system):
    n = system.n
    for i in range(n):
        ei = E.basis_vector(n, i)
        if E.birkhoff_limit(system, ei) != system.expectation.apply(ei):
            return False, ei
    return True, None


def literal_pairs(system):
    """Every basis pair (i, j), both sides as rational vectors: O(n^3)."""
    n = system.n
    es = [E.basis_vector(n, i) for i in range(n)]
    images = [system.expectation.apply(ei) for ei in es]
    for i in range(n):
        for j in range(n):
            if E.correlation_limit(system, es[i], es[j]) != images[i] * images[j]:
                return False, (es[i], es[j])
    return True, None


def _diagonal_gap_zero(system, f):
    expected = system.expectation.apply(f)
    return E.correlation_limit(system, f, f) == expected * expected


def literal_diagonal(system):
    """The basis, then polarization over all pairs i < j, in or across blocks."""
    n = system.n
    for i in range(n):
        ei = E.basis_vector(n, i)
        if not _diagonal_gap_zero(system, ei):
            return False, (ei, ei)
    for i in range(n):
        for j in range(i + 1, n):
            f = E.basis_vector(n, i) + E.basis_vector(n, j)
            if not _diagonal_gap_zero(system, f):
                return False, (f, f)
    return True, None


def literal_component_pairs(system):
    exp = system.expectation
    indicators = system.cycle_indicators()
    for p in indicators:
        for q in indicators:
            if E.correlation_limit(system, p, q) != exp.apply(p) * exp.apply(q):
                return False, (p, q)
    return True, None


def literal_diagonal_components(system):
    exp = system.expectation
    for p in system.cycle_indicators():
        if E.correlation_limit(system, p, p) != exp.apply(p) * exp.apply(p):
            return False, (p, p)
    return True, None


LITERAL = {
    "definition": literal_definition,
    "absorbing": literal_absorbing,
    "sweep-out": literal_sweep_out,
    "time-average": literal_time_average,
    "corr-bounded-pairs": literal_pairs,
    "corr-ideal-pairs": literal_pairs,
    "corr-component-pairs": literal_component_pairs,
    "corr-diagonal": literal_diagonal,
    "corr-diagonal-components": literal_diagonal_components,
}


def fast(system, criterion):
    if criterion == "definition":
        return E.decide_definition(system)
    if criterion == "absorbing":
        return E.decide_absorbing(system)
    if criterion == "sweep-out":
        return E.decide_sweep_out(system)
    if criterion == "time-average":
        return E.decide_time_average(system)
    return E.decide_correlation(system, criterion)


def assert_fast_matches_literal(system):
    assert set(LITERAL) == set(E.CRITERIA)
    for criterion, literal in LITERAL.items():
        assert fast(system, criterion) == literal(system), (criterion, system)


def assert_report_shares_pair_verdict(system):
    report = E.full_report(system)
    ok, witness = E.decide_correlation(system, "corr-ideal-pairs")
    assert report.verdicts["corr-ideal-pairs"] == ok
    assert report.witnesses.get("corr-ideal-pairs") == witness


def test_fast_routes_match_literal_routes_on_the_small_universe():
    witnessed = 0
    for system in every_valid_system():
        assert_fast_matches_literal(system)
        assert_report_shares_pair_verdict(system)
        witnessed += not E.decide_definition(system)[0]
    assert witnessed > 0  # the witness order is exercised, not only verdicts


@given(systems(max_n=7))
@settings(max_examples=150, deadline=None)
def test_fast_routes_match_literal_routes_on_random_systems(system):
    assert_fast_matches_literal(system)
    assert_report_shares_pair_verdict(system)


def test_fast_routes_match_literal_routes_across_block_counts():
    """Seeded sweep: every block count at n = 5..7, where most systems fail."""
    for n in range(5, 8):
        for blocks in range(1, 5):
            for seed in range(12):
                assert_fast_matches_literal(E.random_system(n, blocks, 97 * seed + n))
