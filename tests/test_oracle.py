"""Brute-force reference implementations and their agreement with the fast routes."""

import ast
import inspect
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

import ergolab as E

from conftest import systems, systems_with_vectors

F = Fraction


def test_enumeration_order_for_two_atoms():
    comps = list(E.enumerate_components(2))
    assert comps == [E.Component(b) for b in ((0, 0), (0, 1), (1, 0), (1, 1))]


def test_enumeration_count_and_endpoints():
    comps = list(E.enumerate_components(4))
    assert len(comps) == 16
    assert comps[0] == E.zero(4)
    assert comps[-1] == E.unit(4)


def test_enumeration_is_exactly_the_boolean_cube():
    listed = {c.entries for c in E.enumerate_components(5)}
    cube = {tuple(F(b) for b in bits) for bits in product((0, 1), repeat=5)}
    assert listed == cube
    assert all(E.is_component(E.Component(bits)) for bits in product((0, 1), repeat=5))


def test_enumeration_respects_cap():
    with pytest.raises(E.CapExceededError):
        list(E.enumerate_components(20))
    with pytest.raises(E.CapExceededError):
        list(E.enumerate_components(5, cap=4))
    assert len(list(E.enumerate_components(3))) == 8


def test_oracle_identity_two_atoms_not_ergodic():
    system = E.CepsSystem.from_parts([F(1, 2)] * 2, [[0, 1]], [0, 1])
    assert not E.oracle_ergodic(system)


def test_oracle_single_atom():
    assert E.oracle_ergodic(E.CepsSystem.from_parts([1], [[0]], [0]))


@given(systems())
@settings(max_examples=100)
def test_oracle_agrees_with_every_decider(system):
    truth = E.oracle_ergodic(system)
    assert E.decide_definition(system)[0] == truth
    assert E.decide_absorbing(system)[0] == truth
    assert E.decide_sweep_out(system)[0] == truth
    assert E.decide_time_average(system)[0] == truth


def test_oracle_birkhoff_identity_has_zero_gap():
    system = E.CepsSystem.from_parts([F(1, 2)] * 2, [[0], [1]], [0, 1])
    f = E.RieszVector([3, -1])
    value, gap = E.oracle_birkhoff(system, f, 64)
    assert gap == 0
    assert value == f


def test_oracle_birkhoff_three_cycle_bound():
    system = E.CepsSystem.from_parts([F(1, 3)] * 3, [[0, 1, 2]], [1, 2, 0])
    f = E.RieszVector([3, 0, 0])
    value, gap = E.oracle_birkhoff(system, f, 3000)
    limit = E.unit(3)
    assert E.sup_norm(value - limit) <= F(3, 500)  # 2 * 3 * 3 / 3000
    assert value == limit  # 3000 is a multiple of the cycle length: exact


def test_oracle_birkhoff_exact_at_cycle_multiples():
    system = E.CepsSystem.from_parts([F(1, 4)] * 4, [[0, 1, 2, 3]], [1, 0, 3, 2])
    f = E.RieszVector([1, 5, -2, 0])
    value, _ = E.oracle_birkhoff(system, f, 8)
    assert value == E.birkhoff_limit(system, f)


@given(systems_with_vectors())
@settings(max_examples=30)
def test_oracle_birkhoff_within_derived_bound(pair):
    system, f = pair
    n_max = 32
    value, gap = E.oracle_birkhoff(system, f, n_max)
    limit = E.birkhoff_limit(system, f)
    assert E.sup_norm(value - limit) <= E.cesaro_error_bound(system, f, n_max)
    assert gap == E.sup_norm(value - E.cesaro_mean(system, f, n_max // 2))


def test_oracle_reads_none_of_the_deciders_structure():
    """The oracle works from the raw operators: it imports nothing from the
    deciders' module and reads neither the cycles, the split cycle nor the
    cleared weights that the fast and exhaustive routes are built on."""
    import ergolab.oracle as oracle

    tree = ast.parse(inspect.getsource(oracle))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any("ergodicity" in name for name in imported)
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "expectation" in read  # the walk does see the operators
    assert not read & {"cycles", "split_cycle", "cleared_weights"}
