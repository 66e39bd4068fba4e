"""Cesàro means, exact time averages, and the ergodicity decision procedures.

Every criterion is decided by a fast route, and where the criterion
quantifies over components, also by an exhaustive route that discharges the
quantifier literally under the brute-force cap.  On a valid system every
criterion holds iff every block is a single cycle of the atom map, so the
fast routes read that one fact from the system (``CepsSystem.split_cycle``)
and build their criterion's witness from the first cycle that is not all of
its block.  The exhaustive routes evaluate the criteria themselves, from the
operators' blocks, cycles and cleared weights, and the tests certify both
kinds of route against literal rational references.  On a valid system all
verdicts must coincide; a disagreement would falsify one of the equivalences
this library exists to exercise, so ``full_report`` surfaces it loudly
rather than picking a winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from operator import add
from typing import Optional, Sequence

from . import caps
from .checks import vector_to_json
from .riesz import Component, DimensionMismatch, RieszVector, _wrap, rational, sup_norm
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

def _is_index(n) -> bool:
    """A positive int; a bool is an int subclass, but True is no index."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 1


def cesaro_sweep(sigma: Sequence[int], values: Sequence, grid: Sequence[int]):
    """Cesàro means of ``values`` under the atom map ``sigma`` along an ascending grid.

    The one loop that accumulates composition iterates: a single pass over
    values, values∘σ, values∘σ², ... keeps the running sum of the first k of
    them and yields ``(n, [sum / n])`` at each grid index n (all >= 1).  The
    entries must be exact (floats raise ``TypeError``); they are cleared to
    integers over their common denominator D once, so the pass adds ints and
    only the snapshots build ``Fraction``s, sum / (n·D) in lowest terms.
    """
    if len(values) != len(sigma):
        raise DimensionMismatch(f"map on {len(sigma)} atoms applied to a {len(values)}-atom vector")
    exact = [rational(v) for v in values]
    d = math.lcm(*(x.denominator for x in exact))
    acc = cur = [x.numerator * (d // x.denominator) for x in exact]
    k = 1
    for n in grid:
        while k < n:
            cur = list(map(cur.__getitem__, sigma))
            acc = list(map(add, acc, cur))
            k += 1
        yield n, [Fraction(a, n * d) for a in acc]


def cesaro_mean(system: CepsSystem, f: RieszVector, n: int) -> RieszVector:
    """Average of the first n composition iterates of f: a one-point sweep.

    Reads only the atom map, so it runs on unvalidated systems too.
    """
    if not _is_index(n):
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
    return _wrap(RieszVector, tuple(out))


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
    ns = tuple(ns)
    if not ns or not all(map(_is_index, ns)):
        raise ValueError("the index grid must consist of positive integers")
    grid = sorted(set(ns))
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


# --- Mask scans ---------------------------------------------------------------
#
# Exhaustive scans enumerate bitmask components in lexicographic entry order
# (atom 0 most significant), matching the oracle enumeration: the k-th mask
# holds atom i iff bit n-1-i of k is set.  Per-component equality tests run
# in exact integer arithmetic on the blocks, the cycles and the cleared
# weights; tests certify these against the literal per-mask scans on small
# atom counts.
#
# The absorbing and sweep-out scans are bit-sliced: each atom gets a truth
# table, an int whose bit k says whether the atom is in the k-th mask, so one
# big-int operation evaluates a set operation on every mask at once, and the
# failing masks come out as the set bits of one failure table.  The tables
# cover a slice of at most 2**_SLICE_LOG masks at a time, which bounds their
# memory whatever the cap, and the scan stops at the first slice that fails.

_SLICE_LOG = 16


def _lex_component(n: int, k: int) -> Component:
    """The k-th component in lex order."""
    return Component.from_bits(format(k, f"0{n}b"))


def _lex_tables(n: int):
    """Per-atom truth tables over the lex-ordered masks, one slice at a time.

    Yields ``(first, tables)`` for consecutive slices of the lex order; bit
    k of ``tables[i]`` is set iff atom i is in mask number first + k,
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
            return _lex_component(n, first + (fail & -fail).bit_length() - 1)
    return None


# The component scans test the correlation identity on indicators.  It reads
# a component only through its count of atoms on each cycle, so the scans
# walk the cycle-count classes, each stood in for by its lex-first component,
# in the lex order of those components.


def _pair_identity(system: CepsSystem):
    """The cleared correlation identity of ``_pair_holds``: ``(lcm, blocks)``."""
    exp, cycles = system.expectation, system.cycles
    wts = exp.cleared_weights
    lcm = math.lcm(*map(len, cycles))
    terms: list[list[tuple[int, int, int]]] = [[] for _ in exp.blocks]
    for ci, c in enumerate(cycles):
        terms[exp.block_of[c[0]]].append((ci, wts[c[0]], wts[c[0]] * (lcm // len(c))))
    return lcm, tuple((sum(wts[i] for i in b), tuple(t)) for b, t in zip(exp.blocks, terms))


def _pair_holds(identity, counts_p: tuple[int, ...], counts_q: tuple[int, ...]) -> bool:
    """Exact test: averaged-product limit equals the product of the averages.

    Per block B, both sides are cleared by the cycle lcm and the squared
    block weight, leaving the integer identity

        W_B * sum_C  w_C (lcm/len C) a_C b_C  ==  lcm * P_B(p) * P_B(q)

    with a_C, b_C the atom counts of the components on the cycle C, w_C the
    cleared weight of C's atoms, W_B the cleared block weight and P_B the
    weighted count of the component in the block.  ``identity`` is
    ``(lcm, blocks)``, each block ``(W_B, ((C, w_C, w_C * lcm / len C), ...))``.
    """
    lcm, blocks = identity
    for block_weight, terms in blocks:
        lhs = p_tot = q_tot = 0
        for ci, weight, factor in terms:
            a = counts_p[ci]
            b = counts_q[ci]
            if a:
                p_tot += weight * a
                if b:
                    lhs += factor * a * b
            if b:
                q_tot += weight * b
        if block_weight * lhs != lcm * p_tot * q_tot:
            return False
    return True


def _lex_classes(system: CepsSystem) -> list[tuple[int, tuple[int, ...]]]:
    """Every cycle-count class as ``(mask, counts)``, sorted by mask.

    ``counts`` holds the class's atom count on each cycle and ``mask`` its
    lex-first component, as a lex index: atom 0 is the most significant bit,
    so that component takes the highest-numbered atoms of each cycle.
    """
    n = system.n
    firsts = []  # per cycle, the mask of its k highest-numbered atoms, by k
    for c in system.cycles:
        masks = [0]
        for i in sorted(c, reverse=True):
            masks.append(masks[-1] | 1 << (n - 1 - i))
        firsts.append(masks)
    return sorted((sum(map(list.__getitem__, firsts, counts)), counts)
                  for counts in product(*(range(len(c) + 1) for c in system.cycles)))


# --- The decision procedures ---------------------------------------------------
#
# On a valid system (sigma a block-preserving permutation, weights strictly
# positive and constant on cycles) every criterion holds iff every block is a
# single cycle.  The fast routes read that fact from ``system.split_cycle``:
# None means ergodic; otherwise it is the first cycle C, by least atom c, that
# is not all of its block B, and each route returns its criterion's lex-first
# witness, built from C.  The literal routes kept in the tests evaluate each
# criterion the direct way and must return the same verdict and witness.


def _fast_verdict(system: CepsSystem, whole_cycle: bool, paired: bool = False) -> Verdict:
    """A fast route's verdict, read from the first split cycle C.

    None means every block is one cycle: the criterion holds.  Otherwise the
    witness is 1_C (``whole_cycle``) or e_c, c the least atom of C, taken
    as the pair (w, w) when ``paired``.
    """
    split = system.split_cycle
    if split is None:
        return True, None
    witness = Component.from_indices(system.n, split if whole_cycle else split[:1])
    return False, ((witness, witness) if paired else witness)


def decide_definition(system: CepsSystem) -> Verdict:
    """Invariant vectors are fixed by the averaging operator.

    The minimal invariant components are the cycle indicators; 1_C is fixed
    iff C is all of its block, since E(1_C) is m_C / W_B < 1 on the block
    otherwise.  Linearity carries the verdict to every invariant vector.
    """
    return _fast_verdict(system, whole_cycle=True)


def decide_absorbing(system: CepsSystem, exhaustive: bool = False,
                     cap: Optional[int] = None) -> Verdict:
    """Components whose image sticks out nowhere must be range members.

    The hypothesis "the averaged part of the image lying outside p vanishes"
    forces p to be invariant (strict positivity), so on the fast route the
    candidates are unions of cycles, and 1_C is a range member iff C is all
    of its block; the exhaustive route evaluates hypothesis and conclusion
    for every component under the cap, on all of them at once through
    per-atom truth tables.
    """
    if not exhaustive:
        return _fast_verdict(system, whole_cycle=True)
    system.require_valid()
    n = system.n
    caps.guard("exhaustive component scan", n, cap)
    sigma, blocks = system.koopman.sigma, system.expectation.blocks

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

    The join distributes over component joins, so the fast route needs only
    singletons: the orbit join of e_i is the indicator of i's cycle, a range
    member iff the cycle is all of its block, so the first singleton to fail
    is e_c, c the least atom of the first split cycle.  The exhaustive route
    iterates image-and-join for every component under the cap, on all of
    them at once through per-atom truth tables.
    """
    if not exhaustive:
        return _fast_verdict(system, whole_cycle=False)
    system.require_valid()
    n = system.n
    caps.guard("exhaustive component scan", n, cap)
    sigma, blocks = system.koopman.sigma, system.expectation.blocks

    def failures(tables):
        # image-and-join on every mask at once, until no table grows: once a
        # round adds nothing to a mask's join, the join holds every later image
        # too, so each bit ends at that mask's orbit join
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
    """Time averages agree with the conditional averages on the basis.

    The time average of e_i is 1/|C| on i's cycle C, its average w_i / W_B
    on all of i's block B; they agree iff C is all of B, so the first basis
    vector to fail is e_c, c the least atom of the first split cycle.
    """
    return _fast_verdict(system, whole_cycle=False)


# --- Correlation criteria -------------------------------------------------------

def correlation_limit(system: CepsSystem, f: RieszVector, g: RieszVector) -> RieszVector:
    """Exact limit of the correlation means: the averaged product with the time average."""
    return system.expectation.apply(f * birkhoff_limit(system, g))


def decide_correlation(system: CepsSystem, variant: str, exhaustive: bool = False,
                       cap: Optional[int] = None) -> Verdict:
    """Averaged products decouple in the limit: the criterion family.

    The identity is limit(f, g) = E(f) E(g), with limit(f, g) the average of
    f times the time average of g.  Pair variants quantify over all (f, g),
    which bilinearity reduces to the standard basis; the diagonal variants
    take f = g; component variants take indicators.  Both sides vanish
    across blocks.  On the fast route, with C the first split cycle, c its
    least atom and B its block, C is B's first cycle and c is min B:

    - pairs and diagonal: limit(e_c, e_c) is w_c / (|C| W_B) on B, and
      E(e_c)^2 is w_c^2 / W_B^2; they agree iff C carries all of B's mass.
      Every atom before c lies on a block that is one cycle, where every
      pair passes, so (e_c, e_c) is the first failing pair;
    - component pairs and diagonal components: limit(1_C, 1_C) is m_C / W_B
      on B, with m_C the cycle mass, against m_C^2 / W_B^2, and cycles
      before C are whole blocks, so (1_C, 1_C) is the first to fail.

    When every block is one cycle all of these hold, on every pair.  The
    exhaustive routes discharge the quantifier over every component (pair)
    under the cap, which still counts masks.  The identity reads a component
    only through its atom count on each cycle, so they walk the cycle-count
    classes in the lex order of each class's first component and test each
    unordered pair of classes once, or each class against itself on the
    diagonal; the witness is the failing classes' first components, the
    lex-first failing pair of the literal mask walk.  ``full_report``
    records the bounded-pairs verdict under "corr-ideal-pairs" too (the two
    quantifiers coincide in finite dimensions); asked for by name,
    "corr-ideal-pairs" runs on its own.
    """
    system.require_valid()
    if variant not in CORRELATION_VARIANTS:
        raise ValueError(f"unknown correlation variant {variant!r}")
    n = system.n
    components = variant in ("corr-component-pairs", "corr-diagonal-components")

    if exhaustive and components:
        pairs = variant == "corr-component-pairs"
        if pairs:
            caps.guard("exhaustive component-pair scan", 2 * n, cap)
        else:
            caps.guard("exhaustive component scan", n, cap)
        identity, classes = _pair_identity(system), _lex_classes(system)
        # each class before row a has passed against every class, and the
        # identity is symmetric, so row a tests only the classes from a on;
        # the diagonal takes q = p
        for a, (p_mask, p) in enumerate(classes):
            for q_mask, q in islice(classes, a, None) if pairs else ((p_mask, p),):
                if not _pair_holds(identity, p, q):
                    return False, (_lex_component(n, p_mask), _lex_component(n, q_mask))
        return True, None

    return _fast_verdict(system, whole_cycle=components, paired=True)


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
    the two sup profiles hold there.  Reads the operators, not the split
    cycle, so it runs on unvalidated systems too, where it is allowed to fail
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
    if not _is_index(q):
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
    only the system's split cycle, and the exhaustive ones evaluate each
    identity within blocks (see ``decide_correlation``).  The pair decider
    runs once: in finite dimensions the ideal of the unit is the whole
    space, so its verdict and witness are recorded under both
    "corr-bounded-pairs" and "corr-ideal-pairs".
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
