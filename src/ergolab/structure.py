"""The cleared-integer structural view of a valid system.

A valid system is built from a block-preserving permutation with weights
constant along its cycles.  The view records that structure once, in O(n),
when the system is constructed: cycles and blocks with their membership
maps, and the weights scaled by their common denominator so that every
weight and block mass is an integer.

It also records the one fact every fast decider reads: the first cycle, by
least atom, that is not all of its block (``split_cycle``).  On a valid
system each of the nine criteria holds iff every block is a single cycle,
and fails on a witness built from that cycle.  The exhaustive component
scans in ``ergodicity`` read the rest: per-cycle counts of a mask and the
correlation identity in integer arithmetic.

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

    __slots__ = ("n", "blocks", "block_weight", "weights", "cycles", "cycle_of", "cycle_weight",
                 "cycle_lcm", "cycle_factor", "cycles_in_block", "split_cycle")

    def __init__(self, expectation: "ConditionalExpectation", cycles: tuple[tuple[int, ...], ...]):
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

        self.n = n
        self.weights = wts  # weight of atom i times the common denominator
        self.blocks = blocks
        self.block_weight = tuple(sum(wts[i] for i in b) for b in blocks)
        self.cycles = cycles
        self.cycle_of = tuple(cycle_of)
        self.cycle_weight = tuple(wts[c[0]] for c in cycles)
        self.cycle_lcm = lcm
        self.cycle_factor = tuple(wts[c[0]] * (lcm // len(c)) for c in cycles)
        self.cycles_in_block = tuple(tuple(ids) for ids in cycles_in_block)
        # the first cycle of the first block that holds more than one, or None
        # iff every block is one cycle.  Blocks and their cycles are ordered by
        # least atom, so this is the first cycle, by least atom, that is not
        # all of its block, and its least atom is also its block's least atom
        self.split_cycle = next((ids[0] for ids in cycles_in_block if len(ids) != 1), None)

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
