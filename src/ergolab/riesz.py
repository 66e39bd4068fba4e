"""Exact vector-lattice kernel on finitely many atoms.

Vectors live on a fixed set of ``n`` atoms with entrywise order, so suprema,
infima and band projections are all coordinatewise and exactly computable.
All arithmetic is done in ``fractions.Fraction``; floats are rejected at the
door so that no law check is ever confounded by rounding.

Coercion happens once, at the door: the public ``RieszVector`` and
``Component`` constructors turn every entry into a ``Fraction`` and refuse
anything inexact.  Results the kernel computes itself from such entries are
``Fraction`` tuples already (and 0/1 ones where a ``Component`` is returned),
so they go through the trusted ``_wrap`` instead, which stores the tuple as
it is.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Rational = Union[int, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Raised when two vectors of different atom counts are combined."""


def rational(value: Rational) -> Fraction:
    """Coerce ``value`` to an exact Fraction. Floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"expected an exact rational (int, Fraction or 'p/q' string), got {type(value).__name__}; "
        "floats are rejected to keep arithmetic exact"
    )


class RieszVector:
    """An element of the ambient space: a length-n tuple of exact rationals."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Rational]):
        tup = tuple(rational(x) for x in entries)
        if not tup:
            raise ValueError("a vector needs at least one atom")
        object.__setattr__(self, "_entries", tup)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._entries)

    def __getitem__(self, i: int) -> Fraction:
        return self._entries[i]

    def __setattr__(self, name, value):
        raise AttributeError("RieszVector is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, RieszVector):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(str(x) for x in self._entries)})"

    def _same_dim(self, other: "RieszVector") -> None:
        if len(self) != len(other):
            raise DimensionMismatch(f"atom counts differ: {len(self)} vs {len(other)}")

    def __add__(self, other: "RieszVector") -> "RieszVector":
        if not isinstance(other, RieszVector):
            return NotImplemented
        self._same_dim(other)
        return _wrap(RieszVector, tuple([a + b for a, b in zip(self._entries, other._entries)]))

    def __sub__(self, other: "RieszVector") -> "RieszVector":
        if not isinstance(other, RieszVector):
            return NotImplemented
        self._same_dim(other)
        return _wrap(RieszVector, tuple([a - b for a, b in zip(self._entries, other._entries)]))

    def __neg__(self) -> "RieszVector":
        return _wrap(RieszVector, tuple([-a for a in self._entries]))

    def __mul__(self, other):
        """Entrywise product with a vector, or scaling by a rational.

        The entrywise product is the multiplication that makes the all-ones
        vector the unit; two 0/1 vectors multiply to their infimum.
        """
        if isinstance(other, RieszVector):
            self._same_dim(other)
            prod = tuple([a * b for a, b in zip(self._entries, other._entries)])
            if isinstance(self, Component) and isinstance(other, Component):
                return _wrap(Component, prod)
            return _wrap(RieszVector, prod)
        try:
            c = rational(other)
        except TypeError:
            return NotImplemented
        return _wrap(RieszVector, tuple([a * c for a in self._entries]))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        c = rational(other)
        if c == 0:
            raise ZeroDivisionError("division of a vector by zero")
        return _wrap(RieszVector, tuple([a / c for a in self._entries]))

    def sup(self, other: "RieszVector") -> "RieszVector":
        """Entrywise maximum (the lattice join)."""
        self._same_dim(other)
        out = tuple([a if a >= b else b for a, b in zip(self._entries, other._entries)])
        if isinstance(self, Component) and isinstance(other, Component):
            return _wrap(Component, out)
        return _wrap(RieszVector, out)

    def inf(self, other: "RieszVector") -> "RieszVector":
        """Entrywise minimum (the lattice meet)."""
        self._same_dim(other)
        out = tuple([a if a <= b else b for a, b in zip(self._entries, other._entries)])
        if isinstance(self, Component) and isinstance(other, Component):
            return _wrap(Component, out)
        return _wrap(RieszVector, out)

    def pos_part(self) -> "RieszVector":
        return _wrap(RieszVector, tuple([a if a > 0 else ZERO for a in self._entries]))

    def neg_part(self) -> "RieszVector":
        return _wrap(RieszVector, tuple([-a if a < 0 else ZERO for a in self._entries]))

    def __abs__(self) -> "RieszVector":
        return _wrap(RieszVector, tuple([abs(a) for a in self._entries]))

    def power(self, q: int) -> "RieszVector":
        """Entrywise q-th power, q a positive integer."""
        if not isinstance(q, int) or q < 1:
            raise ValueError("exponent must be a positive integer")
        return _wrap(RieszVector, tuple([a ** q for a in self._entries]))

    def leq(self, other: "RieszVector") -> bool:
        """Entrywise order comparison self <= other."""
        self._same_dim(other)
        return all(a <= b for a, b in zip(self._entries, other._entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self._entries)


_new = object.__new__
_set_entries = RieszVector._entries.__set__  # the slot itself, past the immutability guard


def _wrap(cls: type, entries: tuple) -> RieszVector:
    """Trusted constructor: a ``cls`` holding ``entries`` as given, no coercion or checks.

    Only for tuples the kernel computed itself: nonempty, every entry a
    ``Fraction``, and every entry 0 or 1 when ``cls`` is ``Component``.
    """
    v = _new(cls)
    _set_entries(v, entries)
    return v


def _atoms(n: int) -> int:
    if n < 1:
        raise ValueError("a vector needs at least one atom")
    return n


def unit(n: int) -> "Component":
    """The weak order unit: the all-ones vector on n atoms."""
    return _wrap(Component, (ONE,) * _atoms(n))


def zero(n: int) -> "Component":
    return _wrap(Component, (ZERO,) * _atoms(n))


def basis_vector(n: int, i: int) -> "Component":
    if not 0 <= i < n:
        raise IndexError(f"basis index {i} out of range for {n} atoms")
    return Component.from_indices(n, [i])


def sup_norm(f: RieszVector) -> Fraction:
    """Scalar sup norm max_i |f_i|, used as the convergence gauge."""
    return max(abs(a) for a in f.entries)


def is_component(f: RieszVector) -> bool:
    """True iff every entry is 0 or 1, i.e. f and (unit - f) are disjoint."""
    return all(a == 0 or a == 1 for a in f.entries)


class Component(RieszVector):
    """A 0/1 vector: a component of the unit, the lattice analogue of an event."""

    __slots__ = ()

    def __init__(self, entries: Iterable[Rational]):
        super().__init__(entries)
        for i, a in enumerate(self.entries):
            if a != 0 and a != 1:
                raise ValueError(f"entry {i} is {a}; component entries must be 0 or 1")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "Component":
        idx = set(indices)
        return _wrap(cls, tuple([ONE if i in idx else ZERO for i in range(_atoms(n))]))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Component":
        """Bit i of ``mask`` is the entry at atom i."""
        return _wrap(cls, tuple([ONE if (mask >> i) & 1 else ZERO for i in range(_atoms(n))]))

    @classmethod
    def from_bits(cls, bits: str) -> "Component":
        """Build from a bitstring written atom 0 first, e.g. '0110'."""
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"bitstring must be nonempty over {{0,1}}, got {bits!r}")
        return _wrap(cls, tuple([ONE if c == "1" else ZERO for c in bits]))

    @property
    def mask(self) -> int:
        m = 0
        for i, a in enumerate(self.entries):
            if a:
                m |= 1 << i
        return m

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.entries) if a)

    def complement(self) -> "Component":
        return _wrap(Component, tuple([ONE - a for a in self._entries]))


def band_projection_component(f: RieszVector, alpha: Rational) -> Component:
    """Component of the unit carried by the band where f stays below ``alpha``.

    Projecting the unit onto the band generated by ``(alpha - f)``-positive
    mass marks exactly the atoms with ``f_i < alpha`` (strict: atoms sitting
    at the level contribute no positive part).
    """
    a = rational(alpha)
    return _wrap(Component, tuple([ONE if x < a else ZERO for x in f.entries]))


class StepFunction:
    """A finite combination of pairwise-disjoint components with rational weights."""

    __slots__ = ("_coefficients", "_components")

    def __init__(self, coefficients: Sequence[Rational], components: Sequence[Component]):
        coeffs = tuple(rational(c) for c in coefficients)
        comps = tuple(components)
        if len(coeffs) != len(comps):
            raise ValueError("coefficient and component counts differ")
        if not comps:
            raise ValueError("a step function needs at least one component")
        n = len(comps[0])
        total = 0
        covered = 0
        for p in comps:
            if not isinstance(p, Component):
                raise TypeError("step-function parts must be Components")
            if len(p) != n:
                raise DimensionMismatch("step-function parts on different atom sets")
            total += len(p.support)
            covered |= p.mask
        if total != covered.bit_count():
            raise ValueError("step-function components must be pairwise disjoint")
        object.__setattr__(self, "_coefficients", coeffs)
        object.__setattr__(self, "_components", comps)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coefficients

    @property
    def components(self) -> tuple[Component, ...]:
        return self._components

    def __setattr__(self, name, value):
        raise AttributeError("StepFunction is immutable")

    def __len__(self) -> int:
        return len(self._components[0])

    def to_vector(self) -> RieszVector:
        acc = [ZERO] * len(self)
        for c, p in zip(self._coefficients, self._components):
            for i in p.support:
                acc[i] += c
        return _wrap(RieszVector, tuple(acc))

    def __repr__(self) -> str:
        parts = ", ".join(f"{c}*{p.support}" for c, p in zip(self._coefficients, self._components))
        return f"StepFunction({parts})"


def freudenthal_approx(f: RieszVector, k: int) -> StepFunction:
    """Dyadic step approximation of ``f`` from below at refinement depth ``k``.

    The range [min f, max f] is split into 2**k equal cells; each atom gets
    the lower edge of its cell (atoms at the maximum get the maximum itself).
    The result s satisfies 0 <= f - s <= (max f - min f) / 2**k entrywise,
    and refining k only moves s upward.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("refinement depth k must be a positive integer")
    lo = min(f.entries)
    hi = max(f.entries)
    n = len(f)
    if lo == hi:
        return StepFunction([lo], [unit(n)])
    h = Fraction(hi - lo, 2 ** k)
    coeffs: list[Fraction] = []
    comps: list[Component] = []
    below_prev = 0  # mask of atoms below the previous level
    for j in range(1, 2 ** k + 1):
        edge = lo + j * h
        below = band_projection_component(f, edge).mask
        cell = below & ~below_prev
        if cell:
            coeffs.append(lo + (j - 1) * h)
            comps.append(Component.from_mask(n, cell))
        below_prev = below
    top = ((1 << n) - 1) & ~below_prev  # atoms sitting exactly at the maximum
    if top:
        coeffs.append(hi)
        comps.append(Component.from_mask(n, top))
    return StepFunction(coeffs, comps)
