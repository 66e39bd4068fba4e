"""A fixed pure-Python reference computation that measures the machine's current speed.

The benchmark's timings are shown in units of this computation: each request's
wall time is divided by the mean time of the reference runs just before and
just after it.  On a shared host the speed of one core drifts by up to 1.7x
over seconds to minutes; the program and the reference slow down together,
so their ratio stays put while either one alone does not.

The reference does the kinds of work ergolab does (exact ``Fraction``
arithmetic on tuples, comparisons, dicts and sets of small ints, generator
expressions) and imports nothing from ergolab, so no change to the program
can change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

_ATOMS = 24
_WEIGHTS = tuple(Fraction(1 + i % 5, 7 + i % 3) for i in range(_ATOMS))
_VECTORS = tuple(tuple(Fraction((i * j) % 11 - 5, 1 + (i + j) % 4) for i in range(_ATOMS))
                 for j in range(24))
_SIGMA = tuple((7 * i + 3) % _ATOMS for i in range(_ATOMS))

# One reference computation stands for this much time at nominal speed: a
# round figure within the 4.5-10 ms it took on the shared 2-core x86-64 VM the
# benchmark was written on, depending on the host's load.
NOMINAL_S = 0.010


def _work() -> Fraction:
    total = Fraction(0)
    for v in _VECTORS:
        mass = sum(w * x for w, x in zip(_WEIGHTS, v))
        shifted = tuple(v[s] for s in _SIGMA)
        top = tuple(max(a, b) for a, b in zip(v, shifted))
        total += mass + sum(w * x for w, x in zip(_WEIGHTS, top))
    seen: dict[int, int] = {}
    for mask in range(1 << 12):
        key = mask & ((mask >> 1) | 0x155)
        seen[key] = seen.get(key, 0) + 1
    return total + len(seen) + len({k % 97 for k in seen})


EXPECTED = _work()


def timed() -> float:
    """Seconds one reference computation takes now."""
    start = time.perf_counter()
    result = _work()
    elapsed = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError("the reference computation returned a different value")
    return elapsed
