"""Conditional expectation as blockwise weighted averaging.

The operator is determined by a partition of the atoms into blocks and a
strictly positive probability weight per atom: it replaces a vector on each
block by that block's weighted mean.  Its range is exactly the block-constant
vectors, and the q-norms it induces are returned as exact q-th powers so that
everything stays rational.  The weights are also kept cleared to integers,
each times their least common denominator, so that blockwise identities can
be evaluated in integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .checks import Check, CheckReport
from .riesz import (
    ZERO,
    Component,
    DimensionMismatch,
    Rational,
    RieszVector,
    _wrap,
    rational,
    unit,
)


class ConditionalExpectation:
    """Blockwise weighted averaging operator; immutable after construction."""

    __slots__ = ("_weights", "_blocks", "_block_of", "_block_mass", "_cleared_weights")

    def __init__(self, weights: Sequence[Rational], partition: Iterable[Iterable[int]]):
        w = tuple(rational(x) for x in weights)
        n = len(w)
        if n == 0:
            raise ValueError("need at least one atom")
        for i, x in enumerate(w):
            if x <= 0:
                raise ValueError(f"weight {i} is {x}; strict positivity requires every weight > 0")
        if sum(w) != 1:
            raise ValueError(f"weights must sum to 1, got {sum(w)}")
        blocks = tuple(tuple(sorted(b)) for b in partition)
        blocks = tuple(sorted(blocks, key=lambda b: b[0] if b else -1))
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("partition blocks must be non-empty")
            for i in b:
                if not 0 <= i < n:
                    raise ValueError(f"atom {i} out of range for {n} atoms")
                if i in seen:
                    raise ValueError(f"atom {i} appears in two partition blocks")
                seen.add(i)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise ValueError(f"partition misses atoms {missing}")
        block_of = [0] * n
        for bi, b in enumerate(blocks):
            for i in b:
                block_of[i] = bi
        mass = tuple(sum((w[i] for i in b), Fraction(0)) for b in blocks)
        den = math.lcm(*(x.denominator for x in w))
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_block_of", tuple(block_of))
        object.__setattr__(self, "_block_mass", mass)
        object.__setattr__(self, "_cleared_weights",
                           tuple(x.numerator * (den // x.denominator) for x in w))

    def __setattr__(self, name, value):
        raise AttributeError("ConditionalExpectation is immutable")

    @property
    def n(self) -> int:
        return len(self._weights)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self._weights

    @property
    def cleared_weights(self) -> tuple[int, ...]:
        """The weights times their least common denominator: positive integers, same ratios."""
        return self._cleared_weights

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self._blocks

    @property
    def block_of(self) -> tuple[int, ...]:
        return self._block_of

    def __eq__(self, other) -> bool:
        if isinstance(other, ConditionalExpectation):
            return self._weights == other._weights and self._blocks == other._blocks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._weights, self._blocks))

    def __repr__(self) -> str:
        return f"ConditionalExpectation(n={self.n}, blocks={self._blocks})"

    def _check_dim(self, f: RieszVector) -> None:
        if len(f) != self.n:
            raise DimensionMismatch(f"operator on {self.n} atoms applied to a {len(f)}-atom vector")

    def apply(self, f: RieszVector) -> RieszVector:
        """Blockwise weighted mean; the result is constant on every block."""
        self._check_dim(f)
        e = f.entries
        w = self._weights
        out = [Fraction(0)] * self.n
        for bi, b in enumerate(self._blocks):
            s = Fraction(0)
            for i in b:
                s += w[i] * e[i]
            v = s / self._block_mass[bi]
            for i in b:
                out[i] = v
        return _wrap(RieszVector, tuple(out))

    def in_range(self, f: RieszVector) -> bool:
        """Membership in the operator's range: constancy on every block."""
        self._check_dim(f)
        e = f.entries
        return all(all(e[i] == e[b[0]] for i in b) for b in self._blocks)

    def block_indicator(self, bi: int) -> Component:
        return Component.from_indices(self.n, self._blocks[bi])

    def norm_power(self, x: RieszVector, q: int) -> RieszVector:
        """q-th power of the range-valued q-norm: the average of |x|**q.

        Exposed as a power so the value stays rational; two vectors have equal
        q-norms iff these powers agree.
        """
        # bool is an int subclass, but True is no exponent
        if isinstance(q, bool) or not isinstance(q, int) or q < 1:
            raise ValueError("q must be a positive integer (use norm_inf for the sup version)")
        return self.apply(abs(x).power(q))

    def norm_root_float(self, x: RieszVector, q: int) -> tuple[float, ...]:
        """Floating q-th root of the norm power, for display only.

        The exact API stays in q-th powers; this is the human-readable view
        and must never feed back into a law check.
        """
        return tuple(float(v) ** (1.0 / q) for v in self.norm_power(x, q).entries)

    def norm_inf(self, x: RieszVector) -> RieszVector:
        """Least block-constant vector dominating |x| (the sup-norm profile)."""
        self._check_dim(x)
        e = x.entries
        out = [ZERO] * self.n
        for b in self._blocks:
            v = max(abs(e[i]) for i in b)
            for i in b:
                out[i] = v
        return _wrap(RieszVector, tuple(out))


def verify_axioms(op: ConditionalExpectation) -> CheckReport:
    """Check the defining operator laws on the standard basis.

    Linearity makes the basis sufficient for the projection and averaging
    identities.  Strict positivity of the weights cannot fail, since
    construction refuses a weight <= 0, and is not reported.
    """
    n = op.n
    basis = [Component.from_indices(n, [k]) for k in range(n)]
    checks: list[Check] = []

    witness = None
    for ek in basis:
        once = op.apply(ek)
        if op.apply(once) != once:
            witness = ek
            break
    checks.append(Check("idempotent", witness is None, witness))

    e = unit(n)
    ok = op.apply(e) == e
    checks.append(Check("preserves-unit", ok, None if ok else e))

    witness = None
    for bi in range(len(op.blocks)):
        g = op.block_indicator(bi)
        for ek in basis:
            if op.apply(g * ek) != g * op.apply(ek):
                witness = g
                break
        if witness is not None:
            break
    checks.append(
        Check("averaging", witness is None, witness, note="range-constant factors pull out of the average")
    )
    return CheckReport(tuple(checks))
