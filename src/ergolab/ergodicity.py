"""Cesàro means, exact time averages, and the ergodicity decision procedures.

Every criterion is decided by a fast route that exploits the cycle structure
of the validated atom map (invariant components are exactly unions of
cycles), read from the system's cleared-integer structural view, and where
the criterion quantifies over components, also by an exhaustive route that
discharges the quantifier literally under the brute-force cap.  On a valid
system all verdicts must coincide; a disagreement would falsify one of the
equivalences this library exists to exercise, so ``full_report`` surfaces it
loudly rather than picking a winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Optional, Sequence

from . import caps
from .checks import vector_to_json
from .riesz import Component, DimensionMismatch, RieszVector, _wrap, basis_vector, sup_norm, zero
from .system import CepsSystem

# a PEP 604 union: typing.Union would keep every imported RieszVector class
# alive in typing's cache across re-imports of the package
Witness = "RieszVector | tuple[RieszVector, RieszVector] | None"
Verdict = tuple[bool, "Witness"]

CORRELATION_VARIANTS = (
    "corr-bounded-pairs",        # averaged-product limit, bounded x integrable pairs
    "corr-ideal-pairs",          # the same limit quantified over the ideal of the unit
    "corr-component-pairs",      # pairs of components
    "corr-diagonal",             # diagonal pairs f = g over the ideal
    "corr-diagonal-components",  # diagonal pairs of components
)

CRITERIA = (
    "definition",
    "absorbing",
    "sweep-out",
    "time-average",
) + CORRELATION_VARIANTS


# --- Cesàro means and exact time averages -----------------------------------

def cesaro_sweep(sigma: Sequence[int], values: Sequence, grid: Sequence[int]):
    """Cesàro means of ``values`` under the atom map ``sigma`` along an ascending grid.

    The one loop that accumulates composition iterates: a single pass over
    values, values∘σ, values∘σ², ... keeps the running sum of the first k of
    them and yields ``(n, [sum / n])`` at each grid index n (all >= 1).  The
    arithmetic is the entries' own: exact for ``Fraction`` entries, floating
    for floats, summed in iterate order either way.
    """
    if len(values) != len(sigma):
        raise DimensionMismatch(f"map on {len(sigma)} atoms applied to a {len(values)}-atom vector")
    acc = cur = list(values)
    k = 1
    for n in grid:
        while k < n:
            cur = list(map(cur.__getitem__, sigma))
            acc = list(map(add, acc, cur))
            k += 1
        yield n, [a / n for a in acc]


def cesaro_mean(system: CepsSystem, f: RieszVector, n: int) -> RieszVector:
    """Average of the first n composition iterates of f: a one-point sweep.

    Reads only the atom map, so it runs on unvalidated systems too.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("the Cesàro index n must be a positive integer")
    [(_, mean)] = cesaro_sweep(system.koopman.sigma, f.entries, [n])
    return _wrap(RieszVector, tuple(mean))


def birkhoff_limit(system: CepsSystem, f: RieszVector) -> RieszVector:
    """Exact order limit of the Cesàro means: the average of f along each cycle."""
    system.require_valid()
    e = f.entries
    out = [Fraction(0)] * system.n
    for cyc in system.cycles:
        v = sum((e[i] for i in cyc), Fraction(0)) / len(cyc)
        for i in cyc:
            out[i] = v
    return RieszVector(out)


@dataclass(frozen=True)
class CesaroTrace:
    """Snapshots of the Cesàro means of one vector along an index grid."""

    f: RieszVector
    values: tuple[tuple[int, RieszVector], ...]
    limit: RieszVector
    sup_errors: tuple[Fraction, ...]


def cesaro_trace(system: CepsSystem, f: RieszVector, ns: Sequence[int]) -> CesaroTrace:
    """One sweep through max(ns) iterates, snapshotting each index."""
    system.require_valid()
    grid = sorted(set(int(n) for n in ns))
    if not grid or grid[0] < 1:
        raise ValueError("the index grid must consist of positive integers")
    limit = birkhoff_limit(system, f)
    values = tuple((n, _wrap(RieszVector, tuple(mean)))
                   for n, mean in cesaro_sweep(system.koopman.sigma, f.entries, grid))
    errors = tuple(sup_norm(v - limit) for _, v in values)
    return CesaroTrace(f, values, limit, errors)


def cesaro_error_bound(system: CepsSystem, f: RieszVector, n: int) -> Fraction:
    """Worst-case gap between the n-th Cesàro mean and its limit.

    Within one cycle the mean differs from the cycle average only by the
    wrap-around remainder, which yields the 2 * longest_cycle * |f|_sup / n
    envelope asserted by the convergence tables.
    """
    return Fraction(2 * system.longest_cycle) * sup_norm(f) / n


def orbit_join(system: CepsSystem, p: Component) -> Component:
    """Join of all forward images of p under the composition operator.

    Iterates image-and-join until one round adds nothing; the running join
    absorbs preimages from then on, so stabilization is permanent (and
    arrives within one longest cycle).
    """
    system.require_valid()
    join = zero(system.n)
    cur = p
    while True:
        cur = system.koopman.apply(cur)
        grown = join.sup(cur)
        if grown == join:
            return join
        join = grown


# --- Mask scans ---------------------------------------------------------------
#
# Exhaustive scans enumerate bitmask components in lexicographic entry order
# (atom 0 most significant), matching the oracle enumeration: the k-th mask
# holds atom i iff bit n-1-i of k is set.  They read the system's
# cleared-integer view, so per-component equality tests run in exact integer
# arithmetic; tests certify these against the literal per-mask scans on small
# atom counts.
#
# The absorbing and sweep-out scans are bit-sliced: each atom gets a truth
# table, an int whose bit k says whether the atom is in the k-th mask, so one
# big-int operation evaluates a set operation on every mask at once, and the
# failing masks come out as the set bits of one failure table.  The tables
# cover a slice of at most 2**_SLICE_LOG masks at a time, which bounds their
# memory whatever the cap, and the scan stops at the first slice that fails.

_SLICE_LOG = 16


def _lex_masks(n: int):
    for k in range(1 << n):
        yield int(format(k, f"0{n}b")[::-1], 2)


def _lex_tables(n: int):
    """Per-atom truth tables over the lex-ordered masks, one slice at a time.

    Yields ``(first, tables)`` for consecutive slices of ``_lex_masks(n)``;
    bit k of ``tables[i]`` is set iff atom i is in mask number first + k,
    that is iff bit n-1-i of first + k is set.
    """
    w = min(n, _SLICE_LOG)
    width = 1 << w
    full = (1 << width) - 1
    low = []  # bit b < w of the index: runs of 2**b zeros then 2**b ones
    for b in range(w):
        run = 1 << b
        table = ((1 << run) - 1) << run
        period = 2 * run
        while period < width:
            table |= table << period
            period *= 2
        low.append(table)
    for s in range(1 << (n - w)):
        # the index bits from w up are those of the slice number, constant over it
        yield s << w, [low[b] if b < w else (full if s >> (b - w) & 1 else 0)
                       for b in range(n - 1, -1, -1)]


def _straddling(blocks, tables) -> int:
    """Failure table of block-constancy: the masks meeting some block in part of it."""
    out = 0
    for block in blocks:
        some, every = 0, -1
        for i in block:
            some |= tables[i]
            every &= tables[i]
        out |= some & ~every
    return out


def _first_failure(n: int, failures) -> Optional[Component]:
    """The lex-first mask whose bit ``failures(tables)`` sets, or None."""
    for first, tables in _lex_tables(n):
        fail = failures(tables)
        if fail:
            return Component.from_bits(format(first + (fail & -fail).bit_length() - 1, f"0{n}b"))
    return None


class _ClassRow(dict):
    """Pair-identity verdicts of one cycle-count class against others, by class id.

    A lookup of a class not seen yet evaluates the identity and keeps the
    verdict, so each pair of classes is evaluated at most once.
    """

    def __init__(self, view, counts, p_class: int):
        super().__init__()
        self.view, self.counts, self.p_counts = view, counts, counts[p_class]

    def __missing__(self, q_class: int) -> bool:
        ok = self[q_class] = self.view.correlation_pair_holds(self.p_counts, self.counts[q_class])
        return ok


# --- The decision procedures ---------------------------------------------------
#
# The fast routes evaluate each criterion's own operator identity in the
# integers of ``system.view`` (weights over a common denominator), and only on
# the block where the identity can be nonzero: every vector they test is
# supported inside one block, and both sides of each identity vanish off the
# blocks that support meets.  Candidates are walked in the same order as the
# literal routes kept in the tests, so verdicts and lex-first witnesses match.


def _cycle_indicator(view, ci: int) -> Component:
    return Component.from_mask(view.n, view.cycle_masks[ci])


def decide_definition(system: CepsSystem) -> Verdict:
    """Invariant vectors are fixed by the averaging operator.

    The minimal invariant components are the cycle indicators of the atom
    map; the system is ergodic iff each is fixed by the average.  Linearity
    plus the component reduction carry the verdict to every invariant vector.
    """
    system.require_valid()
    view = system.view
    for ci, c in enumerate(view.cycles):
        b = view.block_of[c[0]]
        # E(p) is num/den on p's block b, p is 1 on the cycle, and both vanish
        # off b.  num == den makes the cycle all of b (weights are strictly
        # positive), so no atom of b is left where p is 0 and E(p) is not
        num, den = view.cycle_mass[ci], view.block_weight[b]
        if num != den:
            return False, _cycle_indicator(view, ci)
    return True, None


def decide_absorbing(system: CepsSystem, exhaustive: bool = False,
                     cap: Optional[int] = None) -> Verdict:
    """Components whose image sticks out nowhere must be range members.

    The hypothesis "the averaged part of the image lying outside p vanishes"
    forces p to be invariant (strict positivity), so the fast route scans
    cycle indicators; the exhaustive route evaluates hypothesis and
    conclusion for every component under the cap, on all of them at once
    through per-atom truth tables.
    """
    system.require_valid()
    view = system.view
    if not exhaustive:
        for ci, p_mask in enumerate(view.cycle_masks):
            if not view.block_constant(p_mask):
                return False, _cycle_indicator(view, ci)
        return True, None
    n = system.n
    caps.guard("exhaustive component scan", n, cap)
    sigma, blocks = system.koopman.sigma, view.blocks

    def failures(tables):
        # the image of p holds atom i iff p holds sigma(i), so its tables are
        # those of p permuted; by strict positivity of the weights the averaged
        # part of the image outside p vanishes iff that part is empty
        sticks_out = 0
        for i, j in enumerate(sigma):
            sticks_out |= tables[j] & ~tables[i]
        return _straddling(blocks, tables) & ~sticks_out

    witness = _first_failure(n, failures)
    return witness is None, witness


def decide_sweep_out(system: CepsSystem, exhaustive: bool = False,
                     cap: Optional[int] = None) -> Verdict:
    """The forward orbit of every component joins up to a range member.

    The join distributes over component joins, so the fast route scans
    singletons only; the exhaustive route iterates image-and-join for every
    component under the cap, on all of them at once through per-atom truth
    tables.
    """
    system.require_valid()
    n = system.n
    view = system.view
    if not exhaustive:
        # the atoms of one cycle share one forward orbit, and the least of them
        # (the cycle's first atom) is the first the singleton scan reaches
        for c in view.cycles:
            if not view.block_constant(view.orbit_join(1 << c[0])):
                return False, basis_vector(n, c[0])
        return True, None
    caps.guard("exhaustive component scan", n, cap)
    sigma, blocks = system.koopman.sigma, view.blocks

    def failures(tables):
        # image-and-join on every mask at once, until no table grows: a mask
        # whose own join stopped growing earlier is closed under the image from
        # then on (see orbit_join), so each bit ends at that mask's orbit join
        join = [0] * n
        cur = tables
        while True:
            cur = [cur[j] for j in sigma]
            grown = [a | b for a, b in zip(join, cur)]
            if grown == join:
                return _straddling(blocks, join)
            join = grown

    witness = _first_failure(n, failures)
    return witness is None, witness


def decide_time_average(system: CepsSystem) -> Verdict:
    """Time averages agree with the conditional averages on the basis."""
    system.require_valid()
    n = system.n
    view = system.view
    wts = view.weights
    for i in range(n):
        ci, b = view.cycle_of[i], view.block_of[i]
        # on block b the time average of e_i is 1/|C| on i's cycle C and 0 on
        # the rest of b, its average is w_i/W_b throughout; both vanish off b.
        # Equality on C makes the cycle mass W_b, so C is all of b (weights are
        # strictly positive) and there is no rest of b to compare
        if view.block_weight[b] != len(view.cycles[ci]) * wts[i]:
            return False, basis_vector(n, i)
    return True, None


# --- Correlation criteria -------------------------------------------------------

def correlation_mean(system: CepsSystem, f: RieszVector, g: RieszVector, n: int) -> RieszVector:
    """Average of the first n averaged products E(f · Sᵏg), k < n.

    Averaging, and multiplying by f, are linear, so they commute with the
    mean over k: the n-th correlation mean is E(f · cesaro_mean(g, n)).
    """
    return system.expectation.apply(f * cesaro_mean(system, g, n))


def correlation_limit(system: CepsSystem, f: RieszVector, g: RieszVector) -> RieszVector:
    """Exact limit of the correlation means: the averaged product with the time average."""
    return system.expectation.apply(f * birkhoff_limit(system, g))


def decide_correlation(system: CepsSystem, variant: str, exhaustive: bool = False,
                       cap: Optional[int] = None) -> Verdict:
    """Averaged products decouple in the limit: the criterion family.

    Pair variants quantify over all (f, g); bilinearity reduces them to the
    standard basis.  The diagonal variant is a quadratic form, decided by
    polarization on the basis plus all pairwise sums.  Component variants
    scan cycle indicators on the fast route -- any failure shows up on a
    cycle indicator -- and every component (pair) on the exhaustive route,
    evaluating the identity once per pair of cycle-count classes.

    The fast routes evaluate the identity limit(f, g) = E(f) E(g) in the
    integers of the system's structural view (both sides scaled by the cycle
    lcm and the squared block weight), on the one block where it can be
    nonzero.  Across blocks both sides are 0: the time average of a vector
    stays on its own cycles, and averages of vectors on different blocks
    have disjoint supports.  So pair routes pair i only with the atoms of
    its own block.  The diagonal route needs only the basis: the identity at
    e_i holds iff i's cycle carries its block's whole mass, so once every
    basis vector passes every block is one cycle and every pairwise sum
    passes too.  ``full_report`` records the
    bounded-pairs verdict under "corr-ideal-pairs" too (the two quantifiers
    coincide in finite dimensions); asked for by name, "corr-ideal-pairs"
    runs on its own.
    """
    system.require_valid()
    if variant not in CORRELATION_VARIANTS:
        raise ValueError(f"unknown correlation variant {variant!r}")
    n = system.n
    view = system.view
    wts, lcm = view.weights, view.cycle_lcm

    if variant in ("corr-bounded-pairs", "corr-ideal-pairs"):
        for i in range(n):
            b, ci = view.block_of[i], view.cycle_of[i]
            # limit(e_i, e_j) is w_i / (|C_i| W_b) on b when j is on i's cycle
            # C_i, else 0; E(e_i) E(e_j) is w_i w_j / W_b^2 on b
            same_cycle = view.block_weight[b] * wts[i] * view.cycle_step[ci]
            scale = lcm * wts[i]
            for j in view.blocks[b]:  # for j off b both sides are 0
                if (same_cycle if view.cycle_of[j] == ci else 0) != scale * wts[j]:
                    return False, (basis_vector(n, i), basis_vector(n, j))
        return True, None

    if variant == "corr-diagonal":
        for i in range(n):
            b, ci = view.block_of[i], view.cycle_of[i]
            if view.block_weight[b] * wts[i] * view.cycle_step[ci] != lcm * wts[i] * wts[i]:
                ei = basis_vector(n, i)
                return False, (ei, ei)
        # every basis vector passed, so every block is one cycle (the identity
        # at e_i makes i's cycle mass W_b) and every pair identity holds
        return True, None

    if variant == "corr-component-pairs":
        if not exhaustive:
            for ci, c in enumerate(view.cycles):
                b = view.block_of[c[0]]
                # limit(1_C, 1_D) = E(1_C 1_D) is m_C / W_b on b iff D = C, else 0;
                # E(1_C) E(1_D) is m_C m_D / W_b^2 on b, with m the cycle mass
                mass = view.cycle_mass[ci]
                for di in view.cycles_in_block[b]:
                    if (mass * view.block_weight[b] if di == ci else 0) != mass * view.cycle_mass[di]:
                        return False, (_cycle_indicator(view, ci), _cycle_indicator(view, di))
            return True, None
        caps.guard("exhaustive component-pair scan", 2 * n, cap)
        masks = list(_lex_masks(n))
        # the identity reads only per-cycle counts, so masks with equal counts
        # share a class id and each pair of classes is evaluated once
        class_ids: dict[tuple[int, ...], int] = {}
        classes = [class_ids.setdefault(tuple(view.cycle_counts(m)), len(class_ids)) for m in masks]
        counts = list(class_ids)
        rows: dict[int, _ClassRow] = {}
        for pi, cp in enumerate(classes):
            row = rows.get(cp)
            if row is None:
                row = rows[cp] = _ClassRow(view, counts, cp)
            later = classes[pi:]  # the cleared identity is symmetric in (p, q)
            if not all(map(row.__getitem__, later)):
                qi = pi + [row[cq] for cq in later].index(False)
                return False, (Component.from_mask(n, masks[pi]), Component.from_mask(n, masks[qi]))
        return True, None

    # corr-diagonal-components
    if not exhaustive:
        for ci, c in enumerate(view.cycles):
            mass = view.cycle_mass[ci]
            if mass * view.block_weight[view.block_of[c[0]]] != mass * mass:
                p = _cycle_indicator(view, ci)
                return False, (p, p)
        return True, None
    caps.guard("exhaustive component scan", n, cap)
    verdicts: dict[tuple[int, ...], bool] = {}  # by cycle-count class, as for pairs
    for p_mask in _lex_masks(n):
        cp = tuple(view.cycle_counts(p_mask))
        ok = verdicts.get(cp)
        if ok is None:
            ok = verdicts[cp] = view.correlation_pair_holds(cp, cp)
        if not ok:
            p = Component.from_mask(n, p_mask)
            return False, (p, p)
    return True, None


# --- Norm preservation -----------------------------------------------------------

def check_isometry(system: CepsSystem, x: RieszVector, q) -> bool:
    """Composition preserves the range-valued q-norms, q a positive integer or inf.

    Finite q decides E(|Sx|^q) == E(|x|^q), the equality of the exact q-th
    powers of the two norms, in integers.  On a block B both sides are the
    weighted sums sum_{i in B} w_i |x_sigma(i)|^q and sum_{i in B} w_i |x_i|^q
    over the same block mass, so they agree iff those sums do; multiplying
    both by the weights' common denominator and by D^q, D the least common
    denominator of x's entries, leaves the integer identity

        sum_{i in B} W_i |X_sigma(i)|^q  ==  sum_{i in B} W_i |X_i|^q

    with W the cleared weights and X = D x.  q = inf compares, per block, the
    maxima of |X_sigma(i)| and |X_i| directly: they are D times the values
    the two sup profiles hold there.  Reads the operators, not the structural
    view, so it runs on unvalidated systems too, where it is allowed to fail
    (that failure is what proves the check has teeth).
    """
    exp = system.expectation
    sigma = system.koopman.sigma
    if len(x) != len(sigma):
        raise DimensionMismatch(f"map on {len(sigma)} atoms applied to a {len(x)}-atom vector")
    e = x.entries
    den = math.lcm(*[v.denominator for v in e])
    cleared = [abs(v.numerator) * (den // v.denominator) for v in e]
    if q == math.inf:
        return all(max([cleared[sigma[i]] for i in b]) == max([cleared[i] for i in b])
                   for b in exp.blocks)
    if not isinstance(q, int) or q < 1:
        raise ValueError("q must be a positive integer or math.inf")
    powers = [c ** q for c in cleared]
    w = exp.cleared_weights
    for b in exp.blocks:
        moved = 0
        kept = 0
        for i in b:
            moved += w[i] * powers[sigma[i]]
            kept += w[i] * powers[i]
        if moved != kept:
            return False
    return True


# --- The aggregate report ---------------------------------------------------------

@dataclass(frozen=True)
class ErgodicityReport:
    """Per-criterion verdicts with counterexample witnesses and the agreement flag."""

    verdicts: dict[str, bool]
    witnesses: dict[str, Witness]
    agreement: bool

    def __post_init__(self):
        for name, verdict in self.verdicts.items():
            if (name in self.witnesses) == verdict:
                raise ValueError(f"criterion {name!r}: witness must be present exactly on failure")
        if self.agreement != (len(set(self.verdicts.values())) == 1):
            raise ValueError("agreement flag must equal 'all verdicts identical'")

    @property
    def ergodic(self) -> bool:
        if not self.agreement:
            raise ValueError("criteria disagree; no consensus verdict exists")
        return next(iter(self.verdicts.values()))

    def to_dict(self) -> dict:
        out: dict = {"verdicts": dict(self.verdicts), "agreement": self.agreement}
        wits = {}
        for name, w in self.witnesses.items():
            if isinstance(w, tuple):
                wits[name] = {"f": vector_to_json(w[0]), "g": vector_to_json(w[1])}
            else:
                wits[name] = vector_to_json(w)
        out["witnesses"] = wits
        if self.agreement:
            out["ergodic"] = self.ergodic
        return out


def _correlation(variant: str):
    scanned = variant in ("corr-component-pairs", "corr-diagonal-components")
    return lambda system, exhaustive, cap: decide_correlation(
        system, variant, exhaustive and scanned, cap)


# Every criterion by name, called as DECIDERS[name](system, exhaustive, cap);
# ``exhaustive`` selects the literal scan where the criterion has one.  The
# entries look their decider up when called, so a rebound decide_* is seen.
DECIDERS = {
    "definition": lambda system, exhaustive, cap: decide_definition(system),
    "absorbing": lambda system, exhaustive, cap: decide_absorbing(system, exhaustive, cap),
    "sweep-out": lambda system, exhaustive, cap: decide_sweep_out(system, exhaustive, cap),
    "time-average": lambda system, exhaustive, cap: decide_time_average(system),
    **{variant: _correlation(variant) for variant in CORRELATION_VARIANTS},
}


def full_report(system: CepsSystem, exhaustive: bool = False,
                cap: Optional[int] = None) -> ErgodicityReport:
    """Run every decision procedure and aggregate the verdicts.

    Agreement across all criteria is the executable content of the
    equivalence theorems; ``exhaustive`` switches the component-quantified
    criteria to their literal scans (cap permitting).  The fast routes read
    the system's structural view and evaluate each identity only within
    blocks (see ``decide_correlation``).  The pair decider runs once: in
    finite dimensions the ideal of the unit is the whole space, so its
    verdict and witness are recorded under both "corr-bounded-pairs" and
    "corr-ideal-pairs".
    """
    system.require_valid()
    results: dict[str, Verdict] = {}
    for name, decide in DECIDERS.items():
        if name == "corr-ideal-pairs":
            # the same quantifier as bounded pairs in finite dimensions: share its verdict
            results[name] = results["corr-bounded-pairs"]
        else:
            results[name] = decide(system, exhaustive, cap)
    verdicts = {name: ok for name, (ok, _) in results.items()}
    witnesses = {name: w for name, (_, w) in results.items() if w is not None}
    agreement = len(set(verdicts.values())) == 1
    return ErgodicityReport(verdicts, witnesses, agreement)
