"""Blockwise averaging operator: construction, laws, and range-valued norms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ergolab as E

from conftest import systems, systems_with_vectors

F = Fraction


def rv(*xs):
    return E.RieszVector(xs)


def blockwise_mean_oracle(weights, partition, f):
    """Independent reference: literal weighted mean per block, plain loops."""
    out = [None] * len(weights)
    for block in partition:
        mass = sum(weights[i] for i in block)
        mean = sum(weights[i] * f[i] for i in block) / mass
        for i in block:
            out[i] = mean
    return E.RieszVector(out)


# --- construction ---------------------------------------------------------------

def test_rejects_zero_weight():
    with pytest.raises(ValueError, match="strict positivity"):
        E.ConditionalExpectation([0, 1], [[0, 1]])


def test_rejects_weights_not_summing_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        E.ConditionalExpectation([F(1, 2), F(1, 3)], [[0, 1]])


def test_rejects_overlapping_blocks():
    with pytest.raises(ValueError, match="two partition blocks"):
        E.ConditionalExpectation([F(1, 2), F(1, 2)], [[0, 1], [1]])


def test_rejects_incomplete_partition():
    with pytest.raises(ValueError, match="misses"):
        E.ConditionalExpectation([F(1, 2), F(1, 2)], [[0]])


def test_blocks_are_canonicalized():
    op = E.ConditionalExpectation([F(1, 4)] * 4, [[3, 2], [1, 0]])
    assert op.blocks == ((0, 1), (2, 3))


# --- applying the operator ---------------------------------------------------------

def test_single_block_uniform_mean():
    op = E.ConditionalExpectation([F(1, 3)] * 3, [[0, 1, 2]])
    assert op.apply(rv(0, 1, 2)) == rv(1, 1, 1)


@given(systems())
def test_unit_is_preserved(system):
    e = E.unit(system.n)
    assert system.expectation.apply(e) == e


def test_weighted_two_block_average():
    weights = [F(1, 4), F(1, 4), F(1, 2)]
    partition = [[0, 1], [2]]
    op = E.ConditionalExpectation(weights, partition)
    f = rv(1, 3, 5)
    expected = blockwise_mean_oracle(weights, partition, f.entries)
    assert expected == rv(2, 2, 5)
    assert op.apply(f) == expected


@given(systems_with_vectors())
def test_apply_matches_oracle(pair):
    system, f = pair
    op = system.expectation
    assert op.apply(f) == blockwise_mean_oracle(op.weights, op.blocks, f.entries)


def test_cleared_weights_are_the_weights_over_their_common_denominator():
    op = E.ConditionalExpectation([F(1, 6), F(1, 4), F(7, 12)], [[0, 1], [2]])
    assert op.cleared_weights == (2, 3, 7)


@given(systems())
def test_cleared_weights_keep_the_ratios(system):
    op = system.expectation
    ws, cs = op.weights, op.cleared_weights
    assert all(type(c) is int and c > 0 for c in cs)
    assert all(c * ws[0] == cs[0] * w for c, w in zip(cs, ws))


def test_dimension_mismatch():
    op = E.ConditionalExpectation([F(1, 2), F(1, 2)], [[0, 1]])
    with pytest.raises(E.DimensionMismatch):
        op.apply(rv(1, 2, 3))


# --- range membership ----------------------------------------------------------------

def test_range_membership_examples():
    op = E.ConditionalExpectation([F(1, 4), F(1, 4), F(1, 2)], [[0, 1], [2]])
    assert op.in_range(E.unit(3))
    assert op.in_range(rv(1, 1, 7))
    assert not op.in_range(rv(1, 2, 7))


@given(systems_with_vectors())
def test_image_is_always_in_range(pair):
    system, f = pair
    op = system.expectation
    assert op.in_range(op.apply(f))


# --- operator laws ----------------------------------------------------------------------

@given(systems())
def test_axioms_pass_on_generated_operators(system):
    assert E.verify_axioms(system.expectation).passed


@given(systems_with_vectors())
def test_idempotence(pair):
    system, f = pair
    op = system.expectation
    assert op.apply(op.apply(f)) == op.apply(f)


@given(systems_with_vectors())
def test_strict_positivity(pair):
    system, f = pair
    op = system.expectation
    g = abs(f)
    if op.apply(g).is_zero():
        assert g.is_zero()


@given(systems_with_vectors())
def test_monotonicity(pair):
    system, f = pair
    op = system.expectation
    g = f.sup(E.zero(system.n))
    assert op.apply(f).leq(op.apply(g))


def test_averaging_on_block_indicator_and_basis():
    op = E.ConditionalExpectation([F(1, 4), F(1, 4), F(1, 2)], [[0, 1], [2]])
    for bi in range(2):
        g = op.block_indicator(bi)
        for k in range(3):
            ek = E.basis_vector(3, k)
            assert op.apply(g * ek) == g * op.apply(ek)


@given(systems_with_vectors())
def test_averaging_pulls_out_range_factors(pair):
    system, f = pair
    op = system.expectation
    for bi in range(len(op.blocks)):
        g = op.block_indicator(bi)
        assert op.apply(g * f) == g * op.apply(f)


# --- range-valued norms --------------------------------------------------------------------

def test_norm_power_of_component_is_its_average():
    op = E.ConditionalExpectation([F(1, 4), F(1, 4), F(1, 2)], [[0, 1], [2]])
    p = E.Component([1, 0, 1])
    for q in (1, 2, 3, 5):
        assert op.norm_power(p, q) == op.apply(p)


def test_norm_power_of_unit():
    op = E.ConditionalExpectation([F(1, 4), F(1, 4), F(1, 2)], [[0, 1], [2]])
    for q in (1, 2, 3):
        assert op.norm_power(E.unit(3), q) == E.unit(3)


def test_norm_power_two_atom_example():
    op = E.ConditionalExpectation([F(1, 2), F(1, 2)], [[0, 1]])
    assert op.norm_power(rv(1, -3), 2) == rv(5, 5)


def test_norm_power_one_is_average_of_abs():
    op = E.ConditionalExpectation([F(1, 3), F(2, 3)], [[0], [1]])
    x = rv(-2, F(1, 2))
    assert op.norm_power(x, 1) == op.apply(abs(x))


def test_norm_power_rejects_bad_exponent():
    op = E.ConditionalExpectation([1], [[0]])
    with pytest.raises(ValueError):
        op.norm_power(rv(1), 0)


def test_norm_power_refuses_a_bool():
    """True is an int subclass but no exponent: refused, not read as 1."""
    op = E.ConditionalExpectation([1], [[0]])
    with pytest.raises(ValueError):
        op.norm_power(rv(1), True)


def test_norm_root_float_is_display_only_view():
    op = E.ConditionalExpectation([F(1, 2), F(1, 2)], [[0, 1]])
    roots = op.norm_root_float(rv(1, -3), 2)
    assert roots == (5.0 ** 0.5, 5.0 ** 0.5)


def test_norm_inf_blockwise_max():
    op = E.ConditionalExpectation([F(1, 4), F(1, 4), F(1, 2)], [[0, 1], [2]])
    assert op.norm_inf(rv(1, -4, 2)) == rv(4, 4, 2)
    assert op.norm_inf(E.unit(3)) == E.unit(3)


@given(systems_with_vectors())
def test_norm_inf_dominates_minimally(pair):
    system, x = pair
    op = system.expectation
    profile = op.norm_inf(x)
    assert abs(x).leq(profile)
    assert op.in_range(profile)
    for block in op.blocks:
        level = profile.entries[block[0]]
        assert any(abs(x.entries[i]) == level for i in block)
