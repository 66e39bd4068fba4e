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


# --- literal references ---------------------------------------------------------
#
# Read only by the tests: each evaluates its object straight from the
# definitions, with the package's operators, to certify the deciders' routes.

def cycle_indicators(system):
    """Indicators of the atom map's cycles: the minimal invariant components."""
    return tuple(E.Component.from_indices(system.n, c) for c in system.cycles)


def orbit_join(system, p):
    """Join of all forward images of the component p under the composition operator.

    Iterates image-and-join until one round adds nothing; the running join
    absorbs preimages from then on, so stabilization is permanent (and
    arrives within one longest cycle).
    """
    system.require_valid()
    join = E.zero(system.n)
    cur = p
    while True:
        cur = system.koopman.apply(cur)
        grown = join.sup(cur)
        if grown == join:
            return join
        join = grown


def correlation_mean(system, f, g, n):
    """Average of the first n averaged products E(f · Sᵏg), k < n.

    Averaging, and multiplying by f, are linear, so they commute with the
    mean over k: the n-th correlation mean is E(f · cesaro_mean(g, n)).
    """
    return system.expectation.apply(f * E.cesaro_mean(system, g, n))
