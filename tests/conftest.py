"""Shared hypothesis strategies and helpers for the test suite."""

import random
from fractions import Fraction

from hypothesis import strategies as st

import ergolab as E


def rationals(bound=5, max_den=8):
    return st.fractions(min_value=-bound, max_value=bound, max_denominator=max_den)


def vectors(n, bound=5, max_den=8):
    return st.lists(rationals(bound, max_den), min_size=n, max_size=n).map(E.RieszVector)


@st.composite
def sized_vectors(draw, max_n=8, bound=5, max_den=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(vectors(n, bound, max_den))


@st.composite
def vector_pairs(draw, max_n=8, bound=5, max_den=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(vectors(n, bound, max_den)), draw(vectors(n, bound, max_den))


def components(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(E.Component)


@st.composite
def systems(draw, max_n=8, max_blocks=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    blocks = draw(st.integers(min_value=1, max_value=min(max_blocks, n)))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return E.random_system(n, blocks, seed)


@st.composite
def systems_with_vectors(draw, max_n=8, bound=5, max_den=8):
    system = draw(systems(max_n=max_n))
    f = draw(vectors(system.n, bound, max_den))
    return system, f


def block_crossing_system():
    """A deliberately broken bundle: the atom map swaps mass across blocks."""
    return E.CepsSystem.from_parts(
        [Fraction(1, 4)] * 4, [[0, 1], [2, 3]], [2, 1, 0, 3]
    )


def one_cycle_per_block(n, blocks, seed, split=False):
    """A seeded ergodic system: blocks of balanced sizes, one sigma-cycle
    through each, weights constant on each block.  With ``split`` the first
    block of two or more atoms carries two cycles instead, which leaves the
    system valid but not ergodic."""
    rng = random.Random(seed)
    atoms = list(range(n))
    rng.shuffle(atoms)
    edges = [round(k * n / blocks) for k in range(blocks + 1)]
    partition = [atoms[a:b] for a, b in zip(edges, edges[1:])]
    sigma = [0] * n
    masses = [0] * n
    for block in partition:
        order = list(block)
        rng.shuffle(order)
        cycles = [order]
        if split and len(order) > 1:
            cycles, split = [order[:len(order) // 2], order[len(order) // 2:]], False
        for cycle in cycles:
            for k, i in enumerate(cycle):
                sigma[i] = cycle[(k + 1) % len(cycle)]
        mass = rng.randint(1, 9)
        for i in block:
            masses[i] = mass
    if split:
        raise ValueError("no block has two atoms to split")
    total = sum(masses)
    return E.CepsSystem.from_parts([Fraction(m, total) for m in masses], partition, sigma)
