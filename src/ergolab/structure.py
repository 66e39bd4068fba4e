"""The cleared-integer structural view of a valid system.

A valid system is built from a block-preserving permutation with weights
constant along its cycles.  The view records that structure once, in O(n),
when the system is constructed: cycles and blocks with their membership maps
and bitmasks (bit i is atom i), and the weights scaled by their common
denominator so that every weight, cycle mass and block mass is an integer.
The fast deciders and the mask scans in ``ergodicity`` evaluate their
operator identities on it in integer arithmetic.

``validate_system`` and the oracle never read the view: validation
certifies the structure the view records, and the oracle re-derives every
verdict from the raw operators, so their agreement with the deciders stays
evidence and not circularity.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .condexp import ConditionalExpectation


class StructuralView:
    """Cycles, blocks and integer weights of one valid system; immutable by convention."""

    __slots__ = ("n", "blocks", "block_of", "block_masks", "block_weight", "weights",
                 "cycles", "cycle_of", "cycle_masks", "cycle_mass", "cycle_weight",
                 "cycle_lcm", "cycle_step", "cycle_factor", "cycles_in_block",
                 "preimage_masks")

    def __init__(self, expectation: "ConditionalExpectation", sigma: tuple[int, ...],
                 cycles: tuple[tuple[int, ...], ...]):
        n = expectation.n
        wts = expectation.cleared_weights
        blocks = expectation.blocks
        block_of = expectation.block_of
        cycle_of = [0] * n
        cycles_in_block: list[list[int]] = [[] for _ in blocks]
        lcm = 1
        for ci, c in enumerate(cycles):
            for i in c:
                cycle_of[i] = ci
            cycles_in_block[block_of[c[0]]].append(ci)
            lcm = lcm * len(c) // math.gcd(lcm, len(c))
        pre = [0] * n
        for i, j in enumerate(sigma):
            pre[j] |= 1 << i

        self.n = n
        self.weights = wts  # weight of atom i times the common denominator
        self.blocks = blocks
        self.block_of = block_of
        self.block_masks = tuple(sum(1 << i for i in b) for b in blocks)
        self.block_weight = tuple(sum(wts[i] for i in b) for b in blocks)
        self.cycles = cycles
        self.cycle_of = tuple(cycle_of)
        self.cycle_masks = tuple(sum(1 << i for i in c) for c in cycles)
        self.cycle_mass = tuple(sum(wts[i] for i in c) for c in cycles)
        self.cycle_weight = tuple(wts[c[0]] for c in cycles)
        self.cycle_lcm = lcm
        self.cycle_step = tuple(lcm // len(c) for c in cycles)
        self.cycle_factor = tuple(w * s for w, s in zip(self.cycle_weight, self.cycle_step))
        self.cycles_in_block = tuple(tuple(ids) for ids in cycles_in_block)
        self.preimage_masks = tuple(pre)

    def image_mask(self, mask: int) -> int:
        """Mask of the composition image: bit i set iff sigma(i) is in ``mask``."""
        out = 0
        m = mask
        pre = self.preimage_masks
        while m:
            low = m & -m
            out |= pre[low.bit_length() - 1]
            m ^= low
        return out

    def orbit_join(self, mask: int) -> int:
        """Join of all forward images of ``mask``, iterated until a round adds nothing."""
        join = 0
        cur = mask
        while True:
            cur = self.image_mask(cur)
            grown = join | cur
            if grown == join:
                return join
            join = grown

    def block_constant(self, mask: int) -> bool:
        """Literal range-membership test: the mask meets each block in nothing or all."""
        for bm in self.block_masks:
            hit = mask & bm
            if hit and hit != bm:
                return False
        return True

    def cycle_counts(self, mask: int) -> list[int]:
        counts = [0] * len(self.cycles)
        m = mask
        cycle_of = self.cycle_of
        while m:
            low = m & -m
            counts[cycle_of[low.bit_length() - 1]] += 1
            m ^= low
        return counts

    def correlation_pair_holds(self, counts_p: list[int], counts_q: list[int]) -> bool:
        """Exact test: averaged-product limit equals the product of the averages.

        Per block, both sides are cleared by the cycle lcm and the squared
        block weight, leaving the integer identity

            W_B * sum_C  w_C (lcm/len C) a_C b_C  ==  lcm * P_B(p) * P_B(q)

        with P_B the weighted support count of the component in the block.
        """
        lcm = self.cycle_lcm
        factor = self.cycle_factor
        weight = self.cycle_weight
        for bi, cyc_ids in enumerate(self.cycles_in_block):
            lhs = 0
            p_tot = 0
            q_tot = 0
            for ci in cyc_ids:
                a = counts_p[ci]
                b = counts_q[ci]
                if a:
                    p_tot += weight[ci] * a
                    if b:
                        lhs += factor[ci] * a * b
                if b:
                    q_tot += weight[ci] * b
            if self.block_weight[bi] * lhs != lcm * p_tot * q_tot:
                return False
        return True
