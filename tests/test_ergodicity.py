"""Cesàro machinery, the decision procedures, correlations, and norm preservation."""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab as E
from ergolab.ergodicity import CORRELATION_VARIANTS, CRITERIA, DECIDERS

from conftest import (block_crossing_system, correlation_mean, orbit_join, systems,
                      systems_with_vectors, vectors)

F = Fraction


def rv(*xs):
    return E.RieszVector(xs)


def three_cycle(weights=None):
    return E.CepsSystem.from_parts(weights or [F(1, 3)] * 3, [[0, 1, 2]], [1, 2, 0])


def identity_two():
    return E.CepsSystem.from_parts([F(1, 2)] * 2, [[0, 1]], [0, 1])


def paired_swaps():
    return E.CepsSystem.from_parts([F(1, 6), F(1, 6), F(1, 3), F(1, 3)],
                                   [[0, 1], [2, 3]], [1, 0, 3, 2])


# --- Cesàro means ------------------------------------------------------------

def test_cesaro_index_one_is_identity():
    system = three_cycle()
    f = rv(3, -1, F(1, 2))
    assert E.cesaro_mean(system, f, 1) == f


def test_cesaro_of_invariant_vector_is_constant_in_n():
    system = paired_swaps()
    f = rv(2, 2, -1, -1)  # constant on the swap pairs, hence invariant
    assert system.koopman.apply(f) == f
    for n in (1, 2, 5, 8):
        assert E.cesaro_mean(system, f, n) == f


def test_cesaro_three_cycle_closes_exactly():
    system = three_cycle()
    assert E.cesaro_mean(system, rv(3, 0, 0), 3) == E.unit(3)


def brute_cesaro(system, f, n):
    """Definitional oracle: explicit powers, then the plain average."""
    terms = []
    cur = f
    for _ in range(n):
        terms.append(cur)
        cur = system.koopman.apply(cur)
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc / n


@given(systems_with_vectors(), st.integers(1, 12))
@settings(max_examples=50)
def test_cesaro_matches_definition(pair, n):
    system, f = pair
    assert E.cesaro_mean(system, f, n) == brute_cesaro(system, f, n)


def test_sweep_keeps_the_entries_arithmetic():
    system = three_cycle()
    f = rv(3, -1, F(1, 2))
    grid = [1, 2, 5, 9]
    exact = list(E.cesaro_sweep(system.koopman.sigma, f.entries, grid))
    assert [n for n, _ in exact] == grid
    for n, mean in exact:
        assert mean == list(brute_cesaro(system, f, n).entries)
        assert all(type(x) is F for x in mean)
    with pytest.raises(TypeError, match="float"):
        list(E.cesaro_sweep(system.koopman.sigma, [float(x) for x in f.entries], grid))


def test_sweep_adds_no_fractions_between_grid_points(monkeypatch):
    system = E.random_system(9, 2, 17)
    f = E.random_vector(9, 5, max_den=97)
    grid = [1, 3, 1024]

    def refuse(self, other):
        raise AssertionError("the sweep added two Fractions")

    with monkeypatch.context() as patched:
        patched.setattr(F, "__add__", refuse)
        means = list(E.cesaro_sweep(system.koopman.sigma, f.entries, grid))
    assert [n for n, _ in means] == grid
    for n, mean in means:
        assert mean == list(brute_cesaro(system, f, n).entries)


@pytest.mark.parametrize("n_atoms, blocks, seed", [(6, 1, 3), (8, 3, 11), (12, 4, 29)])
def test_cesaro_mean_matches_the_oracle_loop_at_large_indices(n_atoms, blocks, seed):
    """Denominators up to 10**6 and mixed signs, so the cleared sum runs over a large lcm."""
    rng = random.Random(seed)
    system = E.random_system(n_atoms, blocks, seed)
    f = E.RieszVector(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(n_atoms))
    assert min(f.entries) < 0 < max(f.entries)
    for n in (2, 3, 97, 4096):
        assert E.cesaro_mean(system, f, n) == E.oracle_birkhoff(system, f, n)[0]


def test_cesaro_mean_matches_definition_on_a_non_permutation_map():
    system = E.CepsSystem.from_parts([F(1, 5)] * 5, [[0, 1, 2], [3, 4]], [1, 1, 2, 4, 4])
    assert not system.report.check("permutation").passed
    f = rv(F(1, 3), -2, F(5, 7), 0, F(-9, 4))
    for n in range(1, 13):
        assert E.cesaro_mean(system, f, n) == brute_cesaro(system, f, n)


def test_trace_snapshots_match_single_calls():
    system = three_cycle()
    f = rv(3, 0, 0)
    grid = [1, 2, 4, 8, 16]
    trace = E.cesaro_trace(system, f, grid)
    for n, value in trace.values:
        assert value == E.cesaro_mean(system, f, n)
    assert trace.limit == E.birkhoff_limit(system, f)
    for (n, value), err in zip(trace.values, trace.sup_errors):
        assert err == E.sup_norm(value - trace.limit)


# --- exact time averages --------------------------------------------------------

def test_birkhoff_identity_map():
    system = E.CepsSystem.from_parts([F(1, 2)] * 2, [[0], [1]], [0, 1])
    f = rv(7, -2)
    assert E.birkhoff_limit(system, f) == f


def test_birkhoff_three_cycle():
    assert E.birkhoff_limit(three_cycle(), rv(3, 0, 0)) == E.unit(3)


@given(systems_with_vectors(), st.integers(1, 4))
@settings(max_examples=40)
def test_cesaro_closes_at_cycle_lcm_multiples(pair, multiple):
    system, f = pair
    lcm = 1
    for cyc in system.cycles:
        lcm = lcm * len(cyc) // math.gcd(lcm, len(cyc))
    assert E.cesaro_mean(system, f, lcm * multiple) == E.birkhoff_limit(system, f)


@given(systems_with_vectors())
def test_time_average_fixed_point_laws(pair):
    system, f = pair
    limit = E.birkhoff_limit(system, f)
    assert system.koopman.apply(limit) == limit
    assert system.expectation.apply(limit) == system.expectation.apply(f)


@given(systems_with_vectors(), st.integers(0, 12))
@settings(max_examples=60)
def test_cesaro_convergence_bound(pair, exponent):
    system, f = pair
    n = 2 ** exponent
    err = E.sup_norm(E.cesaro_mean(system, f, n) - E.birkhoff_limit(system, f))
    assert err <= E.cesaro_error_bound(system, f, n)


# --- orbit joins -------------------------------------------------------------------

def brute_orbit_join(system, p):
    """Definitional oracle: join the first n images explicitly."""
    acc = E.zero(system.n)
    cur = p
    for _ in range(system.n):
        cur = system.koopman.apply(cur)
        acc = acc.sup(cur)
    return acc


@given(systems(), st.data())
@settings(max_examples=60)
def test_orbit_join_matches_definition(system, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=system.n, max_size=system.n))
    p = E.Component(bits)
    joined = orbit_join(system, p)
    assert joined == brute_orbit_join(system, p)
    # and it is exactly the union of cycles meeting the support
    touched = set()
    for cyc in system.cycles:
        if set(cyc) & set(p.support):
            touched |= set(cyc)
    assert joined == E.Component.from_indices(system.n, touched)


# --- the decision procedures ----------------------------------------------------------

def test_definition_full_cycle_is_ergodic():
    ok, witness = E.decide_definition(three_cycle())
    assert ok and witness is None


def test_definition_identity_witness():
    ok, witness = E.decide_definition(identity_two())
    assert not ok
    assert witness == E.Component([1, 0])
    assert identity_two().expectation.apply(witness) == rv(F(1, 2), F(1, 2))


def test_definition_cycles_matching_blocks_is_ergodic():
    ok, _ = E.decide_definition(paired_swaps())
    assert ok


def test_absorbing_three_cycle_exhaustive():
    ok, witness = E.decide_absorbing(three_cycle(), exhaustive=True)
    assert ok and witness is None


def test_absorbing_identity_witness_is_genuine():
    system = identity_two()
    ok, witness = E.decide_absorbing(system, exhaustive=True)
    assert not ok
    e = E.unit(2)
    moved = system.koopman.apply(witness)
    assert system.expectation.apply((e - witness) * moved).is_zero()
    assert not system.expectation.in_range(witness)


def test_trivial_components_always_satisfy_absorbing():
    for system in (three_cycle(), identity_two(), paired_swaps()):
        e = E.unit(system.n)
        for p in (E.zero(system.n), e):
            moved = system.koopman.apply(p)
            assert system.expectation.apply((e - p) * moved).is_zero()
            assert system.expectation.in_range(p)


def test_sweep_out_singleton_covers_cycle():
    system = three_cycle()
    assert orbit_join(system, E.basis_vector(3, 0)) == E.unit(3)
    ok, _ = E.decide_sweep_out(system)
    assert ok


def test_sweep_out_identity_witness():
    system = identity_two()
    ok, witness = E.decide_sweep_out(system)
    assert not ok
    assert witness == E.Component([1, 0])
    assert orbit_join(system, witness) == witness


def test_sweep_out_unit_always_passes():
    for system in (three_cycle(), identity_two(), paired_swaps()):
        joined = orbit_join(system, E.unit(system.n))
        assert system.expectation.in_range(joined)


def test_time_average_uniform_cycle():
    system = three_cycle()
    ok, _ = E.decide_time_average(system)
    assert ok
    for i in range(3):
        ei = E.basis_vector(3, i)
        assert E.birkhoff_limit(system, ei) == E.unit(3) / 3


def test_time_average_identity_witness():
    ok, witness = E.decide_time_average(identity_two())
    assert not ok
    assert witness == E.basis_vector(2, 0)


@given(systems())
@settings(max_examples=60)
def test_reduction_and_exhaustive_modes_agree(system):
    fast_a, _ = E.decide_absorbing(system)
    slow_a, _ = E.decide_absorbing(system, exhaustive=True)
    fast_s, _ = E.decide_sweep_out(system)
    slow_s, _ = E.decide_sweep_out(system, exhaustive=True)
    assert fast_a == slow_a == fast_s == slow_s


def test_exhaustive_modes_respect_cap():
    system = three_cycle()
    with pytest.raises(E.CapExceededError):
        E.decide_absorbing(system, exhaustive=True, cap=2)
    with pytest.raises(E.CapExceededError):
        E.decide_sweep_out(system, exhaustive=True, cap=2)
    with pytest.raises(E.CapExceededError):
        E.decide_correlation(system, "corr-component-pairs", exhaustive=True, cap=5)


def test_decider_table_runs_scans_only_where_they_exist():
    assert tuple(DECIDERS) == CRITERIA
    system = three_cycle()
    scanned = ("absorbing", "sweep-out", "corr-component-pairs", "corr-diagonal-components")
    for name, decide in DECIDERS.items():
        assert decide(system, False, 0) == (True, None)  # fast routes read no cap
        if name in scanned:
            with pytest.raises(E.CapExceededError):
                decide(system, True, 0)
        else:
            assert decide(system, True, 0) == (True, None)


# --- correlations -----------------------------------------------------------------------

def brute_correlation(system, f, g, n):
    """Definitional oracle: the averaged products E(f S^k g), k < n, summed term by term."""
    terms = []
    cur = g
    for _ in range(n):
        terms.append(system.expectation.apply(f * cur))
        cur = system.koopman.apply(cur)
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc / n


@given(systems_with_vectors(max_n=7), st.integers(1, 12), st.data())
@settings(max_examples=50)
def test_correlation_matches_definition(pair, n, data):
    system, f = pair
    g = data.draw(vectors(system.n))
    assert correlation_mean(system, f, g, n) == brute_correlation(system, f, g, n)


def test_correlation_mean_with_invariant_second_argument():
    system = paired_swaps()
    g = rv(2, 2, -1, -1)
    f = rv(1, 0, 3, -2)
    expected = system.expectation.apply(f * g)
    for n in (1, 3, 7):
        assert correlation_mean(system, f, g, n) == expected


@given(systems_with_vectors(), st.integers(1, 10))
@settings(max_examples=40)
def test_correlation_mean_with_unit_first_argument(pair, n):
    """With the unit in front the average telescopes to the plain average."""
    system, g = pair
    e = E.unit(system.n)
    assert correlation_mean(system, e, g, n) == system.expectation.apply(g)


def test_correlation_mean_at_one():
    system = three_cycle()
    f, g = rv(1, 2, 3), rv(-1, 0, 2)
    assert correlation_mean(system, f, g, 1) == system.expectation.apply(f * g)


def test_correlation_limit_examples():
    system = three_cycle()
    e0 = E.basis_vector(3, 0)
    assert E.correlation_limit(system, e0, e0) == E.unit(3) / 9
    ident = identity_two()
    p = E.Component([1, 0])
    assert E.correlation_limit(ident, p, p) == E.unit(2) / 2
    image = ident.expectation.apply(p)
    assert image * image == E.unit(2) / 4  # the decoupled value it fails to reach


@given(systems_with_vectors(), st.integers(0, 8))
@settings(max_examples=40)
def test_correlation_convergence_bound(pair, exponent):
    system, f = pair
    g = system.koopman.apply(f) + E.unit(system.n)  # a second, correlated vector
    n = 2 ** exponent
    gap = E.sup_norm(correlation_mean(system, f, g, n) - E.correlation_limit(system, f, g))
    bound = F(2 * system.longest_cycle) * E.sup_norm(f) * E.sup_norm(g) / n
    assert gap <= bound


@given(systems_with_vectors())
@settings(max_examples=40)
def test_correlation_with_unit_always_decouples(pair):
    system, f = pair
    e = E.unit(system.n)
    expected = system.expectation.apply(f)
    assert E.correlation_limit(system, f, e) == expected
    assert E.correlation_limit(system, e, f) == expected


def test_correlation_deciders_on_the_two_poles():
    for variant in CORRELATION_VARIANTS:
        ok, _ = E.decide_correlation(three_cycle(), variant, exhaustive=True)
        assert ok, variant
        ok, witness = E.decide_correlation(identity_two(), variant, exhaustive=True)
        assert not ok and witness is not None, variant


def naive_component_pair_scan(system):
    """Fully rational oracle for the exhaustive pair scan, no integer clearing."""
    exp = system.expectation
    for bits_p in product((0, 1), repeat=system.n):
        p = E.Component(bits_p)
        for bits_q in product((0, 1), repeat=system.n):
            q = E.Component(bits_q)
            if E.correlation_limit(system, p, q) != exp.apply(p) * exp.apply(q):
                return False
    return True


def naive_diagonal_component_scan(system):
    exp = system.expectation
    for bits in product((0, 1), repeat=system.n):
        p = E.Component(bits)
        if E.correlation_limit(system, p, p) != exp.apply(p) * exp.apply(p):
            return False
    return True


@given(systems(max_n=5))
@settings(max_examples=30, deadline=None)
def test_integer_cleared_pair_scan_matches_rational_oracle(system):
    ok, _ = E.decide_correlation(system, "corr-component-pairs", exhaustive=True)
    assert ok == naive_component_pair_scan(system)
    ok_diag, _ = E.decide_correlation(system, "corr-diagonal-components", exhaustive=True)
    assert ok_diag == naive_diagonal_component_scan(system)


@given(systems(max_n=7))
@settings(max_examples=60)
def test_correlation_variants_agree_with_definition(system):
    expected, _ = E.decide_definition(system)
    for variant in CORRELATION_VARIANTS:
        ok, witness = E.decide_correlation(system, variant)
        assert ok == expected, variant
        assert (witness is None) == ok


def test_correlation_witness_pair_is_genuine():
    system = identity_two()
    ok, (f, g) = E.decide_correlation(system, "corr-bounded-pairs")
    assert not ok
    exp = system.expectation
    assert E.correlation_limit(system, f, g) != exp.apply(f) * exp.apply(g)


# --- norm preservation ----------------------------------------------------------------

@given(systems(), st.data())
@settings(max_examples=60)
def test_isometry_on_components_and_vectors(system, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=system.n, max_size=system.n))
    p = E.Component(bits)
    x = data.draw(vectors(system.n))
    for q in (1, 2, 3, math.inf):
        assert E.check_isometry(system, p, q)
        assert E.check_isometry(system, x, q)


def test_isometry_on_unit():
    system = three_cycle()
    assert E.check_isometry(system, E.unit(3), 2)


def test_isometry_check_has_teeth():
    """A block-crossing (invalid) bundle must break the norm equalities."""
    broken = block_crossing_system()
    failures = [
        (x, q)
        for x in (E.basis_vector(4, 0), E.basis_vector(4, 2), rv(1, 2, 3, 4))
        for q in (1, 2, 3, math.inf)
        if not E.check_isometry(broken, x, q)
    ]
    assert failures


def test_isometry_rejects_bad_exponent():
    with pytest.raises(ValueError):
        E.check_isometry(three_cycle(), rv(1, 2, 3), F(3, 2))


@pytest.mark.parametrize("bad", [True, 2.0, 2.5, "3", F(2)])
def test_indices_and_exponents_refuse_what_is_not_an_int(bad):
    """A bool is an int subclass and ``int()`` truncates or parses, but
    neither is an index or an exponent: each is refused, not coerced."""
    system, f = three_cycle(), rv(1, 2, 3)
    with pytest.raises(ValueError):
        E.cesaro_mean(system, f, bad)
    with pytest.raises(ValueError):
        E.cesaro_trace(system, f, [1, bad])
    with pytest.raises(ValueError):
        E.check_isometry(system, f, bad)
    assert E.check_isometry(system, f, math.inf)


# --- the aggregate report ------------------------------------------------------------------

@given(systems())
@settings(max_examples=80)
def test_full_report_agreement_and_witness_shape(system):
    report = E.full_report(system)
    assert report.agreement
    assert set(report.verdicts) == set(E.CRITERIA)
    for name, verdict in report.verdicts.items():
        assert (name in report.witnesses) == (not verdict)
    assert report.ergodic == E.oracle_ergodic(system)


def test_single_atom_system_is_ergodic():
    report = E.full_report(E.CepsSystem.from_parts([1], [[0]], [0]))
    assert report.agreement and report.ergodic


def test_report_without_consensus_refuses_a_verdict():
    report = E.ErgodicityReport({"a": True, "b": False}, {"b": E.zero(1)}, agreement=False)
    with pytest.raises(ValueError):
        report.ergodic


def test_full_report_exhaustive_matches_fast():
    for seed in range(40):
        n = seed % 7 + 1
        system = E.random_system(n, seed % min(4, n) + 1, seed)
        assert E.full_report(system).verdicts == E.full_report(system, exhaustive=True).verdicts


def test_scaling_guard_one_cycle_on_256_atoms():
    """Construction, validation and every fast route on the ergodic 256-cycle.

    The per-pair rational-vector loops took minutes on this system, so the
    2 s bound catches any return of them.  The within-block integer
    identities take milliseconds; most of the time left is the dense
    basis-law loop of validation.
    """
    n = 256
    start = time.perf_counter()
    system = E.CepsSystem.from_parts([F(1, n)] * n, [list(range(n))],
                                     [(i + 1) % n for i in range(n)])
    report = E.full_report(system)
    elapsed = time.perf_counter() - start
    assert system.is_valid
    assert report.agreement and set(report.verdicts) == set(E.CRITERIA)
    assert all(report.verdicts.values())
    assert elapsed < 2.0, f"n=256 construction and full report took {elapsed:.2f}s"
