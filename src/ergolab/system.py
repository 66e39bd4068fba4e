"""Bundling the averaging operator with a compatible composition operator.

A system couples the blockwise averaging operator with the composition
operator of an atom self-map.  The compatibility law (averaging after
composing equals averaging) holds exactly when the atom map is a permutation
that fixes every block setwise and the weights are constant along its cycles;
``validate_system`` checks both the operator law on the basis and that
structural characterization, so each certifies the other.  ``KoopmanMap``
walks the atom map once, at construction, and keeps its cycle decomposition;
validation, the system and the generator all read that one walk.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .checks import Check, CheckReport
from .condexp import ConditionalExpectation
from .riesz import (
    Component,
    DimensionMismatch,
    Rational,
    RieszVector,
    _wrap,
)


class KoopmanMap:
    """Composition operator of an atom self-map: (Sf)_i = f_{sigma(i)}."""

    __slots__ = ("_sigma", "_cycles")

    def __init__(self, sigma: Sequence[int]):
        sig = tuple(int(i) for i in sigma)
        if not sig:
            raise ValueError("need at least one atom")
        n = len(sig)
        for i, j in enumerate(sig):
            if not 0 <= j < n:
                raise ValueError(f"sigma[{i}] = {j} out of range for {n} atoms")
        object.__setattr__(self, "_sigma", sig)
        object.__setattr__(self, "_cycles", _cycle_decomposition(sig))

    def __setattr__(self, name, value):
        raise AttributeError("KoopmanMap is immutable")

    @property
    def sigma(self) -> tuple[int, ...]:
        return self._sigma

    @property
    def n(self) -> int:
        return len(self._sigma)

    def __eq__(self, other) -> bool:
        if isinstance(other, KoopmanMap):
            return self._sigma == other._sigma
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._sigma)

    def __repr__(self) -> str:
        return f"KoopmanMap({list(self._sigma)})"

    def apply(self, f: RieszVector) -> RieszVector:
        if len(f) != self.n:
            raise DimensionMismatch(f"map on {self.n} atoms applied to a {len(f)}-atom vector")
        pulled = tuple(map(f.entries.__getitem__, self._sigma))
        # composition sends 0/1 vectors to 0/1 vectors
        return _wrap(Component if isinstance(f, Component) else RieszVector, pulled)

    def is_permutation(self) -> bool:
        return self._cycles is not None

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition, ordered by smallest atom; permutations only."""
        if self._cycles is None:
            raise ValueError("cycle decomposition is defined for permutations only")
        return self._cycles


def _cycle_decomposition(sigma: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], ...]]:
    """The cycles of sigma by least atom, or None when sigma is not a permutation.

    Each walk follows sigma from the least unseen atom until it meets a seen
    one.  A permutation always returns to the walk's start; if every walk
    does, the walks partition the atoms into cycles and sigma is a bijection.
    """
    seen = [False] * len(sigma)
    out = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = sigma[i]
        if i != start:
            return None
        out.append(tuple(cyc))
    return tuple(out)


class InvalidSystemError(ValueError):
    """A decision procedure was asked about a system that fails validation."""


def validate_system(expectation: ConditionalExpectation, koopman: KoopmanMap) -> CheckReport:
    """All compatibility laws, with witnesses on failure.

    Checks the defining law on every standard basis vector (linearity makes
    the basis sufficient) and the structural laws it is equivalent to.
    Composition by any atom map fixes the all-ones vector and acts entrywise,
    so it passes joins and meets through; those laws cannot fail and are not
    reported.
    """
    if expectation.n != koopman.n:
        raise DimensionMismatch(f"operators disagree on atom count: {expectation.n} vs {koopman.n}")
    n = expectation.n
    sigma = koopman.sigma
    checks: list[Check] = []

    witness = None
    for k in range(n):
        ek = Component.from_indices(n, [k])
        if expectation.apply(koopman.apply(ek)) != expectation.apply(ek):
            witness = ek
            break
    checks.append(Check("basis-preservation", witness is None, witness,
                        note="averaging after composing equals averaging, on the basis"))

    if koopman.is_permutation():
        checks.append(Check("permutation", True))
        witness = None
        block_of = expectation.block_of
        for i in range(n):
            if block_of[sigma[i]] != block_of[i]:
                witness = Component.from_indices(n, [i])
                break
        checks.append(Check("blocks-invariant", witness is None, witness,
                            note="the atom map fixes every block setwise"))
        witness = None
        w = expectation.weights
        for cyc in koopman.cycles():
            if any(w[i] != w[cyc[0]] for i in cyc):
                witness = Component.from_indices(n, cyc)
                break
        checks.append(Check("weights-cycle-constant", witness is None, witness))
    else:
        counts = [0] * n
        for j in sigma:
            counts[j] += 1
        bad = next(k for k in range(n) if counts[k] != 1)
        checks.append(Check("permutation", False, Component.from_indices(n, [bad]),
                            note=f"atom {bad} has {counts[bad]} preimages"))

    return CheckReport(tuple(checks))


class CepsSystem:
    """The validated bundle: averaging operator + composition operator.

    Construction always succeeds and records the validation report, so
    deliberately broken systems can be built for negative tests; decision
    procedures call ``require_valid`` and refuse flagged systems.
    """

    __slots__ = ("_expectation", "_koopman", "_report", "_split_cycle")

    def __init__(self, expectation: ConditionalExpectation, koopman: KoopmanMap):
        report = validate_system(expectation, koopman)
        object.__setattr__(self, "_expectation", expectation)
        object.__setattr__(self, "_koopman", koopman)
        object.__setattr__(self, "_report", report)
        split = None
        if report.passed:
            # cycles are ordered by least atom, so this is also the first cycle
            # of the first block that holds more than one
            blocks, block_of = expectation.blocks, expectation.block_of
            split = next((c for c in koopman.cycles()
                          if len(c) != len(blocks[block_of[c[0]]])), None)
        object.__setattr__(self, "_split_cycle", split)

    @classmethod
    def from_parts(cls, weights: Sequence[Rational], partition: Iterable[Iterable[int]],
                   sigma: Sequence[int]) -> "CepsSystem":
        return cls(ConditionalExpectation(weights, partition), KoopmanMap(sigma))

    def __setattr__(self, name, value):
        raise AttributeError("CepsSystem is immutable")

    @property
    def expectation(self) -> ConditionalExpectation:
        return self._expectation

    @property
    def koopman(self) -> KoopmanMap:
        return self._koopman

    @property
    def n(self) -> int:
        return self._expectation.n

    @property
    def report(self) -> CheckReport:
        return self._report

    @property
    def is_valid(self) -> bool:
        return self._report.passed

    @property
    def cycles(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """The atom map's cycle decomposition, or None when it is not a permutation."""
        return self._koopman._cycles

    @property
    def split_cycle(self) -> Optional[tuple[int, ...]]:
        """The lex-first cycle that is not all of its block, or None; valid systems only.

        On a valid system every ergodicity criterion holds iff this is None,
        and each fast decider builds its witness from it.
        """
        self.require_valid()
        return self._split_cycle

    @property
    def longest_cycle(self) -> int:
        if self.cycles is None:
            raise InvalidSystemError("cycle structure needs a permutation atom map")
        return max(len(c) for c in self.cycles)

    def require_valid(self) -> None:
        if not self.is_valid:
            failed = ", ".join(c.name for c in self._report.failures)
            raise InvalidSystemError(f"system fails validation checks: {failed}")

    def __repr__(self) -> str:
        tag = "valid" if self.is_valid else "INVALID"
        return f"CepsSystem(n={self.n}, blocks={len(self._expectation.blocks)}, {tag})"


def check_range_fixed(system: CepsSystem) -> CheckReport:
    """The composition operator fixes every vector in the averaging range.

    Verified on block indicators, which span the range; linearity carries the
    law to the whole range.  Deliberately runs on unvalidated systems too, so
    negative tests can watch the law break.
    """
    exp, koop = system.expectation, system.koopman
    witness = None
    for bi in range(len(exp.blocks)):
        g = exp.block_indicator(bi)
        if koop.apply(g) != g:
            witness = g
            break
    return CheckReport((Check("range-fixed", witness is None, witness),))


def random_system(n: int, blocks: int, seed: int) -> CepsSystem:
    """Deterministic random valid system: random block partition, block-preserving
    permutation, and weights drawn constant on each cycle then normalized."""
    if n < 1:
        raise ValueError("need at least one atom")
    if not 1 <= blocks <= n:
        raise ValueError(f"block count must be in [1, {n}], got {blocks}")
    rng = random.Random(seed)
    atoms = list(range(n))
    rng.shuffle(atoms)
    cuts = sorted(rng.sample(range(1, n), blocks - 1)) if blocks > 1 else []
    edges = [0] + cuts + [n]
    partition = [atoms[a:b] for a, b in zip(edges, edges[1:])]

    sigma = [0] * n
    for block in partition:
        images = list(block)
        rng.shuffle(images)
        for i, j in zip(block, images):
            sigma[i] = j
    koop = KoopmanMap(sigma)

    masses = [0] * n
    for cyc in koop.cycles():
        m = rng.randint(1, 9)
        for i in cyc:
            masses[i] = m
    total = sum(masses)
    weights = [Fraction(m, total) for m in masses]
    return CepsSystem(ConditionalExpectation(weights, partition), koop)


def random_vector(n: int, seed: int, magnitude: int = 5, max_den: int = 8) -> RieszVector:
    """Deterministic random rational vector for fuzz campaigns."""
    rng = random.Random(seed)
    return RieszVector(
        Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, max_den)) for _ in range(n)
    )


# --- JSON system format -----------------------------------------------------
#
# { "n": int, "weights": [{"num": int, "den": int}, ...],
#   "partition": [[int, ...], ...], "sigma": [int, ...] }
#
# Rationals are bit-exact {num, den} objects (plain JSON integers are accepted
# as a shorthand); floats are rejected.


class SchemaError(ValueError):
    """A system document violates the JSON schema; ``path`` locates the offence."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _rational_from_json(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise SchemaError(path, "floats are not accepted; use {\"num\": int, \"den\": int}")
    if isinstance(value, dict):
        extra = set(value) - {"num", "den"}
        if extra:
            raise SchemaError(path, f"unexpected keys {sorted(extra)}")
        for key in ("num", "den"):
            if key not in value:
                raise SchemaError(f"{path}.{key}", "missing")
            if isinstance(value[key], bool) or not isinstance(value[key], int):
                raise SchemaError(f"{path}.{key}", "must be an integer")
        if value["den"] == 0:
            raise SchemaError(f"{path}.den", "must be nonzero")
        return Fraction(value["num"], value["den"])
    raise SchemaError(path, f"expected a rational, got {type(value).__name__}")


def _int_list_from_json(value, path: str) -> list[int]:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list, got {type(value).__name__}")
    out = []
    for k, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, int):
            raise SchemaError(f"{path}[{k}]", "must be an integer")
        out.append(item)
    return out


def system_from_dict(doc) -> CepsSystem:
    """Parse and structurally validate a system document.

    Schema violations raise :class:`SchemaError` with the offending location;
    the returned system may still fail the operator laws (see ``is_valid``).
    """
    if not isinstance(doc, dict):
        raise SchemaError("$", f"expected an object, got {type(doc).__name__}")
    for key in ("n", "weights", "partition", "sigma"):
        if key not in doc:
            raise SchemaError(f"$.{key}", "missing")
    extra = set(doc) - {"n", "weights", "partition", "sigma"}
    if extra:
        raise SchemaError("$", f"unexpected keys {sorted(extra)}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SchemaError("$.n", "must be a positive integer")

    if not isinstance(doc["weights"], list):
        raise SchemaError("$.weights", "expected a list")
    if len(doc["weights"]) != n:
        raise SchemaError("$.weights", f"expected {n} entries, got {len(doc['weights'])}")
    weights = [_rational_from_json(v, f"$.weights[{i}]") for i, v in enumerate(doc["weights"])]
    for i, w in enumerate(weights):
        if w <= 0:
            raise SchemaError(f"$.weights[{i}]", f"must be strictly positive, got {w}")
    if sum(weights) != 1:
        raise SchemaError("$.weights", f"must sum to 1, got {sum(weights)}")

    if not isinstance(doc["partition"], list) or not doc["partition"]:
        raise SchemaError("$.partition", "expected a non-empty list of blocks")
    seen: set[int] = set()
    partition = []
    for b, blk in enumerate(doc["partition"]):
        atoms = _int_list_from_json(blk, f"$.partition[{b}]")
        if not atoms:
            raise SchemaError(f"$.partition[{b}]", "blocks must be non-empty")
        for k, i in enumerate(atoms):
            if not 0 <= i < n:
                raise SchemaError(f"$.partition[{b}][{k}]", f"atom {i} out of range [0, {n})")
            if i in seen:
                raise SchemaError(f"$.partition[{b}][{k}]", f"atom {i} already assigned to a block")
            seen.add(i)
        partition.append(atoms)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise SchemaError("$.partition", f"misses atoms {missing}")

    sigma = _int_list_from_json(doc["sigma"], "$.sigma")
    if len(sigma) != n:
        raise SchemaError("$.sigma", f"expected {n} entries, got {len(sigma)}")
    for k, j in enumerate(sigma):
        if not 0 <= j < n:
            raise SchemaError(f"$.sigma[{k}]", f"image {j} out of range [0, {n})")

    return CepsSystem.from_parts(weights, partition, sigma)


def system_to_dict(system: CepsSystem) -> dict:
    from .checks import fraction_to_json

    return {
        "n": system.n,
        "weights": [fraction_to_json(w) for w in system.expectation.weights],
        "partition": [list(b) for b in system.expectation.blocks],
        "sigma": list(system.koopman.sigma),
    }


def load_system(path) -> CepsSystem:
    """Read and parse a system file.

    A file that cannot be read raises ``OSError`` or ``UnicodeDecodeError``;
    text that does not parse (bad syntax, integers beyond the interpreter's
    digit limit, nesting beyond its recursion limit) raises :class:`SchemaError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    return system_from_dict(doc)


def save_system(system: CepsSystem, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(system), fh, indent=2, sort_keys=True)
        fh.write("\n")
