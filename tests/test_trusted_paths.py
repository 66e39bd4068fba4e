"""The kernel's trusted construction path and the cleared-integer isometry check.

Public constructors coerce every entry to a ``Fraction`` and refuse inexact
input; results the kernel computes itself skip that coercion.  The tests here
pin down what the skip relies on: every result still holds only ``Fraction``
entries (0/1 ones for components), the exact limits never re-coerce what
they computed, and the integer form of ``check_isometry`` returns exactly
what the literal operator comparison returns, on valid and on broken
systems alike.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab as E

from conftest import block_crossing_system, components, systems, vector_pairs, vectors

F = Fraction


def all_fractions(v):
    return all(type(x) is Fraction for x in v.entries)


def is_trusted_component(v):
    return type(v) is E.Component and all_fractions(v) and all(x in (0, 1) for x in v.entries)


def is_trusted_vector(v):
    return type(v) is E.RieszVector and all_fractions(v)


# --- kernel results ------------------------------------------------------------------

@given(vector_pairs())
@settings(max_examples=80)
def test_vector_operations_return_fraction_entries(pair):
    f, g = pair
    results = [f + g, f - g, -f, f * g, f * 3, F(2, 3) * f, f * "1/2", f / 2, f / F(3, 4),
               f.sup(g), f.inf(g), abs(f), f.power(1), f.power(3), f.pos_part(), f.neg_part(),
               E.freudenthal_approx(f, 2).to_vector()]
    for v in results:
        assert is_trusted_vector(v), v


@given(st.integers(1, 7), st.data())
@settings(max_examples=80)
def test_component_operations_stay_zero_one(n, data):
    p = data.draw(components(n))
    q = data.draw(components(n))
    f = data.draw(vectors(n))
    built = (E.Component.from_indices(n, p.support), E.Component.from_mask(n, p.mask),
             E.Component.from_bits("".join("1" if x else "0" for x in p.entries)))
    assert all(v == p for v in built)
    for v in (p * q, p.sup(q), p.inf(q), p.complement(), E.unit(n), E.zero(n),
              E.basis_vector(n, n - 1), E.band_projection_component(f, 0), *built):
        assert is_trusted_component(v), v
    # mixing in a non-component, or leaving the 0/1 range, gives a plain vector
    for v in (p * f, f * p, p.sup(f), p + q, p - q, -p, abs(p), p.power(2), 2 * p, p / 2):
        assert is_trusted_vector(v), v


@given(systems(max_n=7), st.data())
@settings(max_examples=60, deadline=None)
def test_exact_limits_return_fraction_entries_without_coercion(system, data):
    f = data.draw(vectors(system.n))
    g = data.draw(st.one_of(vectors(system.n), components(system.n)))

    def coerce(self, entries):
        raise AssertionError("a kernel result was re-coerced")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(E.RieszVector, "__init__", coerce)
        results = (E.birkhoff_limit(system, f), E.birkhoff_limit(system, g),
                   E.correlation_limit(system, f, g), E.correlation_limit(system, g, g))
    for v in results:
        assert is_trusted_vector(v), v


@pytest.mark.parametrize("build", [E.unit, E.zero, lambda n: E.Component.from_mask(n, 0),
                                   lambda n: E.Component.from_indices(n, [])])
def test_trusted_constructions_refuse_zero_atoms(build):
    with pytest.raises(ValueError):
        build(0)


@given(systems(max_n=7), st.data())
@settings(max_examples=60, deadline=None)
def test_operator_applications_return_fraction_entries(system, data):
    exp, koop = system.expectation, system.koopman
    x = data.draw(vectors(system.n))
    p = data.draw(components(system.n))
    for v in (koop.apply(x), exp.apply(x), exp.apply(p), exp.norm_inf(x), exp.norm_power(x, 2)):
        assert is_trusted_vector(v), v
    assert is_trusted_component(koop.apply(p))


def test_public_constructors_still_coerce_and_refuse():
    v = E.RieszVector([1, "2/3", F(1, 2)])
    assert all_fractions(v)
    assert all_fractions(E.Component([1, 0, "1", F(0)]))
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            E.RieszVector([bad])
        with pytest.raises(TypeError):
            E.Component([bad])
    with pytest.raises(ValueError):
        E.Component([2])
    with pytest.raises(ValueError):
        E.RieszVector([])


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_the_bitstring_listing(n):
    listed = [E.Component([int(c) for c in format(k, f"0{n}b")]) for k in range(1 << n)]
    produced = list(E.enumerate_components(n))
    assert produced == listed
    assert all(is_trusted_component(p) for p in produced)


def test_enumeration_refuses_zero_atoms():
    with pytest.raises(ValueError):
        list(E.enumerate_components(0))


# --- the isometry certifier ----------------------------------------------------------

def literal_isometry(system, x, q):
    """Both norms as rational vectors, straight from the operators."""
    exp, koop = system.expectation, system.koopman
    moved = koop.apply(x)
    if q == math.inf:
        return exp.norm_inf(moved) == exp.norm_inf(x)
    return exp.norm_power(moved, q) == exp.norm_power(x, q)


EXPONENTS = (1, 2, 3, 4, math.inf)


def assert_isometry_matches_literal(system, xs):
    """Same bool as the literal comparison for every x and q; returns the failure count."""
    failures = 0
    for x in xs:
        for q in EXPONENTS:
            got = E.check_isometry(system, x, q)
            assert got == literal_isometry(system, x, q), (system, x, q)
            failures += not got
    return failures


def probe_vectors(n):
    """Basis vectors, signed and fractional ones, and a fixed random spread."""
    xs = [E.basis_vector(n, i) for i in range(n)]
    xs.append(E.RieszVector([F(k - 1, k + 2) for k in range(n)]))
    xs.append(E.RieszVector([F((-1) ** k * (k + 1), 3) for k in range(n)]))
    xs.extend(E.random_vector(n, seed) for seed in range(20))
    return xs


@given(systems(max_n=7), st.data())
@settings(max_examples=100, deadline=None)
def test_isometry_matches_literal_on_random_systems(system, data):
    xs = [data.draw(vectors(system.n)), data.draw(components(system.n))]
    assert assert_isometry_matches_literal(system, xs) == 0


@st.composite
def arbitrary_bundles(draw, max_n=7):
    """Any weights, partition and atom self-map: mostly invalid systems."""
    n = draw(st.integers(1, max_n))
    masses = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    sigma = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    partition = [[i for i in range(n) if labels[i] == b] for b in sorted(set(labels))]
    total = sum(masses)
    return E.CepsSystem.from_parts([F(m, total) for m in masses], partition, sigma)


@given(arbitrary_bundles(), st.data())
@settings(max_examples=150, deadline=None)
def test_isometry_matches_literal_on_arbitrary_bundles(system, data):
    xs = [data.draw(vectors(system.n)), data.draw(components(system.n))]
    assert_isometry_matches_literal(system, xs)


def test_isometry_matches_literal_on_a_block_crossing_system():
    system = block_crossing_system()
    assert assert_isometry_matches_literal(system, probe_vectors(4)) > 0


def test_isometry_matches_literal_with_cycle_varying_weights():
    system = E.CepsSystem.from_parts([F(1, 6), F(2, 6), F(1, 6), F(2, 6)], [[0, 1, 2, 3]],
                                     [1, 0, 3, 2])
    assert not system.report.check("weights-cycle-constant").passed
    assert assert_isometry_matches_literal(system, probe_vectors(4)) > 0


def test_isometry_matches_literal_with_a_non_permutation_map():
    system = E.CepsSystem.from_parts([F(1, 5)] * 5, [[0, 1, 2], [3, 4]], [1, 1, 2, 4, 4])
    assert not system.report.check("permutation").passed
    assert assert_isometry_matches_literal(system, probe_vectors(5)) > 0
