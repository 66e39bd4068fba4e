"""Independent brute-force references that certify the fast decision routes.

Nothing here looks at cycle structure, block bookkeeping, or any of the
cleared-integer scan machinery: the oracles work from the raw operator
definitions and full component enumeration, so agreement with the fast
deciders is evidence and not circularity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, Optional

from .caps import guard
from .riesz import ONE, ZERO, Component, RieszVector, _wrap, sup_norm
from .system import CepsSystem


def enumerate_components(n: int, cap: Optional[int] = None) -> Iterator[Component]:
    """All 2**n components on n atoms in lexicographic entry order (atom 0 most significant)."""
    if n < 1:
        raise ValueError("a vector needs at least one atom")
    guard("component enumeration", n, cap)
    for entries in product((ZERO, ONE), repeat=n):
        yield _wrap(Component, entries)


def oracle_ergodic(system: CepsSystem, cap: Optional[int] = None) -> bool:
    """Exhaustive check that invariant components are fixed by the average.

    The component reduction makes this scan decide ergodicity outright, so it
    serves as the ground truth for every fast decider.
    """
    system.require_valid()
    exp, koop = system.expectation, system.koopman
    for p in enumerate_components(system.n, cap):
        if koop.apply(p) == p and exp.apply(p) != p:
            return False
    return True


def oracle_birkhoff(system: CepsSystem, f: RieszVector, n_max: int) -> tuple[RieszVector, Fraction]:
    """Empirical time average: the n_max-th Cesàro mean and its half-index gap.

    Accumulates the orbit sum directly from the definition (no shared code
    with the trace machinery) and reports sup|mean(n_max) - mean(n_max/2)| as
    a convergence diagnostic.
    """
    if not isinstance(n_max, int) or n_max < 2:
        raise ValueError("n_max must be an integer >= 2")
    koop = system.koopman
    half = n_max // 2
    acc = [Fraction(0)] * system.n
    cur = f
    halfway: Optional[RieszVector] = None
    for k in range(n_max):
        for i, x in enumerate(cur.entries):
            acc[i] += x
        cur = koop.apply(cur)
        if k + 1 == half:
            halfway = RieszVector(x / half for x in acc)
    final = RieszVector(x / n_max for x in acc)
    gap = sup_norm(final - halfway)
    return final, gap
