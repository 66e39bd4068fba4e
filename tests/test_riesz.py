"""Lattice kernel: exact operations, components, band projections, step approximations."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ergolab as E
from ergolab.riesz import rational

from conftest import components, rationals, sized_vectors, vector_pairs

F = Fraction


def rv(*xs):
    return E.RieszVector(xs)


# --- basic lattice operations ------------------------------------------------

def test_sup_is_entrywise_max():
    assert rv(1, -1).sup(rv(0, 0)) == rv(1, 0)


def test_inf_is_entrywise_min():
    assert rv(1, -1).inf(rv(0, 0)) == rv(0, -1)


def test_pos_and_neg_parts():
    assert rv(2, -3).pos_part() == rv(2, 0)
    assert rv(2, -3).neg_part() == rv(0, 3)


def test_abs_is_sum_of_parts():
    f = rv(-1, 2)
    assert abs(f) == f.pos_part() + f.neg_part() == rv(1, 2)


def test_dimension_mismatch_raises():
    with pytest.raises(E.DimensionMismatch):
        rv(1, 2).sup(rv(1, 2, 3))
    with pytest.raises(E.DimensionMismatch):
        rv(1, 2) + rv(1, 2, 3)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        E.RieszVector([0.5, 1])
    with pytest.raises(TypeError):
        rational(0.5)


def test_vectors_are_immutable():
    f = rv(1, 2)
    with pytest.raises(AttributeError):
        f.entries = (F(0),)


@given(vector_pairs())
def test_jordan_decomposition(pair):
    f, g = pair
    assert f == f.pos_part() - f.neg_part()
    assert abs(f) == f.pos_part() + f.neg_part()
    assert f.sup(g) + f.inf(g) == f + g


@given(sized_vectors())
def test_pos_part_is_sup_with_zero(f):
    assert f.pos_part() == f.sup(E.zero(len(f)))


# --- the algebra product -----------------------------------------------------

def test_e_multiply_entrywise():
    assert rv(1, 2) * rv(3, 4) == rv(3, 8)


def test_unit_is_multiplicative_identity():
    f = rv(5, F(-1, 3), 0)
    assert f * E.unit(3) == f


def test_components_are_idempotent_under_product():
    p = E.Component([1, 0, 1])
    assert p * p == p


@given(vector_pairs(), sized_vectors())
def test_product_laws(pair, _):
    f, g = pair
    assert f * g == g * f
    assert (f * g) * f == f * (g * f)


@given(vector_pairs())
def test_product_distributes(pair):
    f, g = pair
    h = f.sup(g)
    assert f * (g + h) == f * g + f * h


@given(st.integers(1, 6), st.data())
def test_component_product_is_meet(n, data):
    p = data.draw(components(n))
    q = data.draw(components(n))
    out = p * q
    assert isinstance(out, E.Component)
    assert out == p.inf(q)


# --- components ----------------------------------------------------------------

def test_is_component_examples():
    assert E.is_component(rv(1, 0, 1))
    assert not E.is_component(rv(F(1, 2), 0))
    assert E.is_component(E.unit(3))
    assert E.is_component(E.zero(3))


def test_component_constructor_rejects_non_boolean_entries():
    with pytest.raises(ValueError):
        E.Component([1, F(1, 2)])


@given(sized_vectors(bound=1, max_den=2))
def test_is_component_iff_disjoint_from_complement(f):
    e = E.unit(len(f))
    assert E.is_component(f) == (f.inf(e - f) == E.zero(len(f)) and f.pos_part() == f)


def test_component_mask_and_support_round_trip():
    p = E.Component.from_bits("01101")
    assert p.support == (1, 2, 4)
    assert E.Component.from_mask(5, p.mask) == p
    assert E.Component.from_indices(5, p.support) == p
    assert p.complement().support == (0, 3)


# --- band projections ------------------------------------------------------------

def sup_formula_band(f, alpha):
    """Independent oracle: sup_n (unit weighted down to the positive overshoot).

    Evaluates unit ∧ n * (alpha * unit - f)^+ for growing n until it
    stabilizes, which its monotonicity guarantees within finitely many steps.
    """
    n_atoms = len(f)
    e = E.unit(n_atoms)
    overshoot = (alpha * e - f).pos_part()
    prev = None
    n = 1
    while True:
        cur = e.inf(n * overshoot)
        if cur == prev:
            return cur
        prev = cur
        n *= 2


def test_band_projection_levels():
    f = rv(0, 1, 2)
    p = E.band_projection_component(f, F(3, 2))
    assert p == E.Component([1, 1, 0])
    assert p == sup_formula_band(f, F(3, 2))


def test_band_projection_at_unit_level_is_empty():
    assert E.band_projection_component(E.unit(4), 1) == E.zero(4)


def test_band_projection_above_max_is_unit():
    f = rv(3, -2, F(7, 2))
    assert E.band_projection_component(f, 4) == E.unit(3)


@given(sized_vectors(), rationals())
def test_band_projection_matches_sup_formula_and_scan(f, alpha):
    p = E.band_projection_component(f, alpha)
    assert p == sup_formula_band(f, alpha)
    assert p.entries == tuple(F(1) if x < alpha else F(0) for x in f.entries)


# --- step functions ----------------------------------------------------------------

def test_step_function_requires_disjoint_parts():
    with pytest.raises(ValueError):
        E.StepFunction([1, 2], [E.Component([1, 1, 0]), E.Component([0, 1, 0])])


def test_step_function_evaluates_as_weighted_sum():
    s = E.StepFunction([F(1, 2), 3], [E.Component([1, 0, 0]), E.Component([0, 0, 1])])
    assert s.to_vector() == rv(F(1, 2), 0, 3)


def test_freudenthal_exact_on_boolean_vector():
    f = rv(0, 1)
    for k in (1, 2, 5):
        assert E.freudenthal_approx(f, k).to_vector() == f


def test_freudenthal_exact_on_dyadic_step_vector():
    f = rv(0, F(1, 4), F(3, 4), 1)
    assert E.freudenthal_approx(f, 2).to_vector() == f


def test_freudenthal_depth_two_example():
    f = rv(0, F(1, 3), 1)
    s = E.freudenthal_approx(f, 2)
    assert s.to_vector() == rv(0, F(1, 4), 1)
    gap = f - s.to_vector()
    assert all(0 <= x <= F(1, 4) for x in gap.entries)


def test_freudenthal_rejects_bad_depth():
    with pytest.raises(ValueError):
        E.freudenthal_approx(rv(1, 2), 0)


@given(sized_vectors(), st.integers(1, 6))
def test_freudenthal_error_bound_and_monotonicity(f, k):
    lo, hi = min(f.entries), max(f.entries)
    step = E.freudenthal_approx(f, k).to_vector()
    gap = f - step
    bound = F(hi - lo, 2 ** k)
    assert all(0 <= x <= bound for x in gap.entries)
    finer = E.freudenthal_approx(f, k + 1).to_vector()
    assert step.leq(finer)


@given(sized_vectors(bound=4).filter(lambda f: min(f.entries) >= 0), st.integers(1, 5))
def test_freudenthal_bound_against_max_for_nonnegative(f, k):
    step = E.freudenthal_approx(f, k).to_vector()
    bound = max(f.entries) / F(2 ** k)
    assert all(0 <= x <= bound for x in (f - step).entries)


# --- scalar norm ----------------------------------------------------------------

def test_sup_norm():
    assert E.sup_norm(rv(1, -3, 2)) == 3
    assert E.sup_norm(E.zero(2)) == 0
