"""Literal references that certify the fast decision routes and the scans.

Each fast-route reference below evaluates its criterion the direct way: it
builds the rational vectors and applies the operators, with no split cycle,
no block restriction and no integer clearing.  The fast routes must
return the same verdict and the same (lex-first) witness on every system of
the small universe and on random systems up to seven atoms.

The scan references walk the components one mask at a time in lex order and
evaluate each criterion on that mask alone.  The correlation scans have two:
a cleared one, which tests the route's integer identity on each mask pair,
and a rational one, which compares the correlation limit with the product of
the averages as rational vectors and so certifies that identity.  The
exhaustive routes, which evaluate the criteria on every mask at once
(absorbing, sweep-out) or once per pair of cycle-count classes in cleared
integers (the component scans), must return the same verdict and witness.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import ergolab as E
from ergolab import ergodicity

from conftest import cycle_indicators, one_cycle_per_block, orbit_join, systems
from test_small_universe import every_valid_system


def literal_definition(system):
    exp = system.expectation
    for p in cycle_indicators(system):
        if exp.apply(p) != p:
            return False, p
    return True, None


def literal_absorbing(system):
    exp = system.expectation
    for p in cycle_indicators(system):
        if not exp.in_range(p):
            return False, p
    return True, None


def literal_sweep_out(system):
    n = system.n
    for i in range(n):
        if not system.expectation.in_range(orbit_join(system, E.basis_vector(n, i))):
            return False, E.basis_vector(n, i)
    return True, None


def literal_time_average(system):
    n = system.n
    for i in range(n):
        ei = E.basis_vector(n, i)
        if E.birkhoff_limit(system, ei) != system.expectation.apply(ei):
            return False, ei
    return True, None


def literal_pairs(system):
    """Every basis pair (i, j), both sides as rational vectors: O(n^3)."""
    n = system.n
    es = [E.basis_vector(n, i) for i in range(n)]
    images = [system.expectation.apply(ei) for ei in es]
    for i in range(n):
        for j in range(n):
            if E.correlation_limit(system, es[i], es[j]) != images[i] * images[j]:
                return False, (es[i], es[j])
    return True, None


def _diagonal_gap_zero(system, f):
    expected = system.expectation.apply(f)
    return E.correlation_limit(system, f, f) == expected * expected


def literal_diagonal(system):
    """The basis, then polarization over all pairs i < j, in or across blocks."""
    n = system.n
    for i in range(n):
        ei = E.basis_vector(n, i)
        if not _diagonal_gap_zero(system, ei):
            return False, (ei, ei)
    for i in range(n):
        for j in range(i + 1, n):
            f = E.basis_vector(n, i) + E.basis_vector(n, j)
            if not _diagonal_gap_zero(system, f):
                return False, (f, f)
    return True, None


def literal_component_pairs(system):
    exp = system.expectation
    indicators = cycle_indicators(system)
    for p in indicators:
        for q in indicators:
            if E.correlation_limit(system, p, q) != exp.apply(p) * exp.apply(q):
                return False, (p, q)
    return True, None


def literal_diagonal_components(system):
    exp = system.expectation
    for p in cycle_indicators(system):
        if E.correlation_limit(system, p, p) != exp.apply(p) * exp.apply(p):
            return False, (p, p)
    return True, None


LITERAL = {
    "definition": literal_definition,
    "absorbing": literal_absorbing,
    "sweep-out": literal_sweep_out,
    "time-average": literal_time_average,
    "corr-bounded-pairs": literal_pairs,
    "corr-ideal-pairs": literal_pairs,
    "corr-component-pairs": literal_component_pairs,
    "corr-diagonal": literal_diagonal,
    "corr-diagonal-components": literal_diagonal_components,
}


def fast(system, criterion):
    if criterion == "definition":
        return E.decide_definition(system)
    if criterion == "absorbing":
        return E.decide_absorbing(system)
    if criterion == "sweep-out":
        return E.decide_sweep_out(system)
    if criterion == "time-average":
        return E.decide_time_average(system)
    return E.decide_correlation(system, criterion)


def assert_fast_matches_literal(system):
    assert set(LITERAL) == set(E.CRITERIA)
    for criterion, literal in LITERAL.items():
        assert fast(system, criterion) == literal(system), (criterion, system)


def assert_report_shares_pair_verdict(system):
    report = E.full_report(system)
    ok, witness = E.decide_correlation(system, "corr-ideal-pairs")
    assert report.verdicts["corr-ideal-pairs"] == ok
    assert report.witnesses.get("corr-ideal-pairs") == witness


def test_fast_routes_match_literal_routes_on_the_small_universe():
    witnessed = 0
    for system in every_valid_system():
        assert_fast_matches_literal(system)
        assert_report_shares_pair_verdict(system)
        witnessed += not E.decide_definition(system)[0]
    assert witnessed > 0  # the witness order is exercised, not only verdicts


@given(systems(max_n=7))
@settings(max_examples=150, deadline=None)
def test_fast_routes_match_literal_routes_on_random_systems(system):
    assert_fast_matches_literal(system)
    assert_report_shares_pair_verdict(system)


def test_fast_routes_match_literal_routes_across_block_counts():
    """Seeded sweep: every block count at n = 5..7, where most systems fail."""
    for n in range(5, 8):
        for blocks in range(1, 5):
            for seed in range(12):
                assert_fast_matches_literal(E.random_system(n, blocks, 97 * seed + n))


# --- literal exhaustive scans ------------------------------------------------------

def lex_masks(n):
    """Every mask of n atoms (bit i is atom i) in lex entry order, atom 0 most significant."""
    for k in range(1 << n):
        yield int(format(k, f"0{n}b")[::-1], 2)


def block_masks(system):
    return [sum(1 << i for i in b) for b in system.expectation.blocks]


def preimage_masks(system):
    """Bit i of entry j is set iff sigma(i) == j."""
    pre = [0] * system.n
    for i, j in enumerate(system.koopman.sigma):
        pre[j] |= 1 << i
    return pre


def image_mask(pre, mask):
    """Mask of the composition image: bit i set iff sigma(i) is in ``mask``."""
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= pre[low.bit_length() - 1]
        m ^= low
    return out


def orbit_join_mask(pre, mask):
    """Join of all forward images of ``mask``, iterated until a round adds nothing."""
    join = 0
    cur = mask
    while True:
        cur = image_mask(pre, cur)
        grown = join | cur
        if grown == join:
            return join
        join = grown


def block_constant(bms, mask):
    """Literal range-membership test: the mask meets each block in nothing or all."""
    for bm in bms:
        hit = mask & bm
        if hit and hit != bm:
            return False
    return True


def average_is_zero(system, bms, mask):
    """Whether the averaged indicator of ``mask`` is the zero vector: the
    weighted count of the mask in every block is compared with zero."""
    weights = system.expectation.cleared_weights
    for bm in bms:
        m = mask & bm
        num = 0
        while m:
            low = m & -m
            num += weights[low.bit_length() - 1]
            m ^= low
        if num != 0:
            return False
    return True


def literal_absorbing_scan(system):
    n, bms, pre = system.n, block_masks(system), preimage_masks(system)
    for p_mask in lex_masks(n):
        outside = image_mask(pre, p_mask) & ~p_mask
        if average_is_zero(system, bms, outside) and not block_constant(bms, p_mask):
            return False, E.Component.from_mask(n, p_mask)
    return True, None


def literal_sweep_out_scan(system):
    n, bms, pre = system.n, block_masks(system), preimage_masks(system)
    for p_mask in lex_masks(n):
        if not block_constant(bms, orbit_join_mask(pre, p_mask)):
            return False, E.Component.from_mask(n, p_mask)
    return True, None


def literal_cleared_scan(system, diagonal=False):
    """Every component pair p <= q in lex order, or p = q on the diagonal,
    tested one pair at a time by the route's cleared-integer identity.  The
    per-cycle atom counts come from a bit loop over each mask, and nothing is
    grouped into classes, so this certifies the class enumeration, its
    first-component order and the witness masks; the identity itself is
    certified by ``literal_rational_scan``."""
    n, cycles = system.n, system.cycles
    cycle_of = [0] * n
    for ci, c in enumerate(cycles):
        for i in c:
            cycle_of[i] = ci
    masks = list(lex_masks(n))
    counts = []
    for m in masks:
        count = [0] * len(cycles)
        while m:
            low = m & -m
            count[cycle_of[low.bit_length() - 1]] += 1
            m ^= low
        counts.append(tuple(count))
    identity = ergodicity._pair_identity(system)
    for pi, p_counts in enumerate(counts):
        for qi in (pi,) if diagonal else range(pi, len(masks)):
            if not ergodicity._pair_holds(identity, p_counts, counts[qi]):
                return False, (E.Component.from_mask(n, masks[pi]),
                               E.Component.from_mask(n, masks[qi]))
    return True, None


def literal_rational_scan(system, diagonal=False):
    """Every component pair p <= q in lex order, or p = q on the diagonal:
    the correlation limit against the product of the averages, both sides as
    rational vectors.  No cycle counts, no blocks, no integer clearing."""
    exp = system.expectation
    comps = [E.Component.from_mask(system.n, m) for m in lex_masks(system.n)]
    averages = [exp.apply(p) for p in comps]
    for pi, p in enumerate(comps):
        for qi in (pi,) if diagonal else range(pi, len(comps)):
            q = comps[qi]
            if E.correlation_limit(system, p, q) != averages[pi] * averages[qi]:
                return False, (p, q)
    return True, None


LITERAL_SCANS = {
    "absorbing": literal_absorbing_scan,
    "sweep-out": literal_sweep_out_scan,
    "corr-component-pairs": literal_cleared_scan,
    "corr-diagonal-components": lambda system: literal_cleared_scan(system, diagonal=True),
}

# the rational scan costs O(4**n) vector operations, so the correlation routes
# are compared with it up to seven atoms, and with the cleared scan up to ten
RATIONAL_SCANS = {
    "corr-component-pairs": literal_rational_scan,
    "corr-diagonal-components": lambda system: literal_rational_scan(system, diagonal=True),
}
MASK_SCANS = ("absorbing", "sweep-out")


def assert_scans_match_literal(system, criteria=tuple(LITERAL_SCANS), references=LITERAL_SCANS):
    for criterion in criteria:
        scanned = ergodicity.DECIDERS[criterion](system, True, 2 * system.n)
        assert scanned == references[criterion](system), (criterion, system)


def assert_scans_match_rational(system):
    assert_scans_match_literal(system, tuple(RATIONAL_SCANS), RATIONAL_SCANS)


def scan_corpus():
    """Random systems up to ten atoms (mostly not ergodic), and ergodic ones
    with one cycle per block next to the same systems with a cycle split."""
    for n in range(1, 11):
        for blocks in range(1, min(4, n) + 1):
            for seed in range(3):
                yield E.random_system(n, blocks, 31 * seed + 7 * n + blocks)
    for n in (6, 8, 10):
        for blocks in (1, 2, 3):
            yield one_cycle_per_block(n, blocks, n + blocks)
            yield one_cycle_per_block(n, blocks, n + blocks, split=True)


def test_scans_match_literal_scans_on_the_small_universe():
    witnessed = 0
    for system in every_valid_system():
        assert_scans_match_literal(system)
        assert_scans_match_rational(system)
        witnessed += not E.decide_absorbing(system)[0]
    assert witnessed > 0


@given(systems(max_n=8))
@settings(max_examples=100, deadline=None)
def test_scans_match_literal_scans_on_random_systems(system):
    assert_scans_match_literal(system)


def test_scans_match_literal_scans_on_a_seeded_corpus():
    verdicts = set()
    for system in scan_corpus():
        assert_scans_match_literal(system)
        verdicts.add(E.decide_definition(system)[0])
    assert verdicts == {True, False}


@given(systems(max_n=6))
@settings(max_examples=60, deadline=None)
def test_correlation_scans_match_the_rational_scan_on_random_systems(system):
    assert_scans_match_rational(system)


@pytest.mark.parametrize("split", [False, True])
def test_correlation_scans_match_the_rational_scan_on_one_cycle_per_block(split):
    """Ergodic systems walk every pair; their splits fail past the first mask."""
    for n in range(2, 8):
        system = one_cycle_per_block(n, 1 + n % 2, seed=n, split=split)
        assert E.decide_definition(system)[0] is not split
        assert_scans_match_rational(system)


def from_cycles(blocks, seed):
    """A valid system from its blocks, each given as its list of cycles,
    with a seeded mass constant on each block."""
    rng = random.Random(seed)
    n = sum(len(c) for cycles in blocks for c in cycles)
    sigma, masses = [0] * n, [0] * n
    for cycles in blocks:
        mass = rng.randint(1, 9)
        for cycle in cycles:
            for k, i in enumerate(cycle):
                sigma[i] = cycle[(k + 1) % len(cycle)]
                masses[i] = mass
    partition = [[i for c in cycles for i in c] for cycles in blocks]
    return E.CepsSystem.from_parts([Fraction(m, sum(masses)) for m in masses], partition, sigma)


def class_order_corpus():
    """Systems at the extremes of class order against mask order, up to
    ten atoms.

    - sigma the identity, where every class is one mask: every block a
      singleton (ergodic, so the pair scan walks every pair), one block of
      fixed points, and three blocks of fixed points;
    - one block holding many 2-cycles, where classes merge many masks,
      alone or as the block of atom 0 ahead of a block that is one cycle;
    - one cycle per block except one block split in two: the block of the
      highest atoms, or the block of atom 0, where the failure comes after
      every mask of the other blocks in lex order.
    """
    for n in range(1, 11):
        atoms = list(range(n))
        yield from_cycles([[[i]] for i in atoms], n)
        yield from_cycles([[[i] for i in atoms]], n)
        edges = [round(k * n / 3) for k in range(4)]
        yield from_cycles([[[i] for i in atoms[a:b]] for a, b in zip(edges, edges[1:]) if a < b], n)
    for n in (2, 4, 6, 8, 10):
        for head in (n, n // 2 + n // 2 % 2):  # an even number of atoms in 2-cycles
            rng = random.Random(n + head)
            paired = rng.sample(range(head), head)
            blocks = [[paired[k:k + 2] for k in range(0, head, 2)]]
            if head < n:
                rest = list(range(head, n))
                rng.shuffle(rest)
                blocks.append([rest])
            yield from_cycles(blocks, n)
    for n in range(5, 11):
        for split_first in (False, True):
            rng = random.Random(10 * n + split_first)
            edges = [round(k * n / 3) for k in range(4)]
            blocks = [[rng.sample(range(a, b), b - a)] for a, b in zip(edges, edges[1:])]
            target = 0 if split_first else -1
            [block] = blocks[target]
            cut = rng.randint(1, len(block) - 1)
            blocks[target] = [block[:cut], block[cut:]]
            yield from_cycles(blocks, n)


def test_correlation_scans_match_the_literal_scans_where_class_order_differs():
    verdicts = set()
    for system in class_order_corpus():
        assert_scans_match_literal(system, tuple(RATIONAL_SCANS))
        if system.n <= 6:
            assert_scans_match_rational(system)
        verdicts.add(E.decide_definition(system)[0])
    assert verdicts == {True, False}


def assert_tables_match(n, masks):
    """Bit k of table i is atom i of the k-th mask, slice after slice."""
    width = 1 << min(n, ergodicity._SLICE_LOG)
    covered = 0
    for first, tables in ergodicity._lex_tables(n):
        assert first == covered and len(tables) == n
        for i, table in enumerate(tables):
            assert table >> width == 0
            assert [table >> k & 1 for k in range(width)] == \
                [masks[first + k] >> i & 1 for k in range(width)], (n, first, i)
        covered += width
    assert covered == len(masks)


@pytest.mark.parametrize("n", range(1, 11))
def test_truth_tables_match_the_lex_masks(n):
    masks = list(lex_masks(n))
    assert [ergodicity._lex_component(n, k).mask for k in range(1 << n)] == masks
    assert_tables_match(n, masks)


def test_truth_tables_match_across_slice_boundaries(monkeypatch):
    monkeypatch.setattr(ergodicity, "_SLICE_LOG", 3)
    for n in range(1, 11):
        assert_tables_match(n, list(lex_masks(n)))


def test_sliced_scans_match_literal_scans(monkeypatch):
    """Slices of four masks: witnesses in later slices keep their lex rank."""
    monkeypatch.setattr(ergodicity, "_SLICE_LOG", 2)
    late = 0
    for system in scan_corpus():
        assert_scans_match_literal(system, MASK_SCANS)
        ok, witness = E.decide_absorbing(system, exhaustive=True)
        late += not ok and witness.entries[:-2] != (0,) * (system.n - 2)
    assert late > 0  # some witness lies past the first slice
