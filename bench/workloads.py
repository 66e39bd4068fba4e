"""Seeded inputs and request mixes for the benchmark workloads.

Every workload is a closed loop with one client.  Set-up writes the seeded
system files a workload needs; each *round* is then a fixed mix of request
shapes whose concrete inputs (which file, which vector, which fuzz seed) are
drawn from the request stream.  Runs stop at a round boundary, so every run
measures the same mix.

Nothing here imports ergolab: the program is handed in as ``prog`` (see
``run.load_program``) so that set-up can re-import it from scratch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Request:
    """One CLI call and the facts the correctness gate checks its output against."""

    argv: tuple[str, ...]
    expect: dict


# --- ergodic worst case ----------------------------------------------------------

def ergodic_parts(n: int, blocks: int, rng: random.Random):
    """Random partition into ``blocks`` blocks of balanced sizes, one cycle through
    each block, and weights constant on each cycle; no decider can stop at a
    witness on these.  Balanced sizes keep the cost of a request close to a
    function of (n, blocks) alone, so seeds differ in inputs, not in cost."""
    atoms = list(range(n))
    rng.shuffle(atoms)
    edges = [round(k * n / blocks) for k in range(blocks + 1)]
    partition = [atoms[a:b] for a, b in zip(edges, edges[1:])]
    sigma = [0] * n
    masses = [0] * n
    for block in partition:
        order = list(block)
        rng.shuffle(order)
        for k, i in enumerate(order):
            sigma[i] = order[(k + 1) % len(order)]
        mass = rng.randint(1, 9)
        for i in block:
            masses[i] = mass
    total = sum(masses)
    return [Fraction(m, total) for m in masses], partition, sigma


def single_cycle_per_block(partition, sigma) -> bool:
    """Structural test, independent of ergolab: each block is one sigma-cycle."""
    for block in partition:
        start = block[0]
        orbit = {start}
        i = sigma[start]
        while i != start:
            if i in orbit:  # sigma is not a permutation on this block
                return False
            orbit.add(i)
            i = sigma[i]
        if orbit != set(block):
            return False
    return True


def ergodic_system(prog, n: int, blocks: int, rng: random.Random):
    weights, partition, sigma = ergodic_parts(n, blocks, rng)
    system = prog.system.CepsSystem.from_parts(weights, partition, sigma)
    if not (system.is_valid and single_cycle_per_block(partition, sigma)):
        raise RuntimeError(f"generated system (n={n}, blocks={blocks}) is not an ergodic worst case")
    return system


def _save(prog, system, workdir: Path, name: str) -> str:
    path = workdir / f"{name}.json"
    prog.system.save_system(system, path)
    return str(path)


# --- workloads -------------------------------------------------------------------
#
# A pool maps a key (usually the atom count) to the saved system files of that
# key; a round draws from it.

FUZZ_ATOMS = 8
FUZZ_BATCH = 25

BLOCKS = (1, 2, 3, 4)

CHECK_ATOMS = 16
CHECK_FILES_PER_BLOCKS = 2
SCAN_FULL_ATOMS = 9
SCAN_METHOD_ATOMS = 15
SCAN_METHOD = "sweep-out"
SCAN_METHOD_BLOCKS = 2
CONVERGE_ATOMS = 12
CONVERGE_VECTOR_GRID = 2 ** 13
CONVERGE_AGAINST_GRID = 2 ** 11


def _no_files(prog, rng, workdir):
    return {}


def _fuzz_round(pool, rng):
    seed = rng.randrange(1, 2 ** 31)
    argv = ("fuzz", "--atoms", str(FUZZ_ATOMS), "--systems", str(FUZZ_BATCH), "--seed", str(seed))
    return [Request(argv, {"command": "fuzz", "atoms": FUZZ_ATOMS, "systems": FUZZ_BATCH})]


def _ergodic_files(prog, rng, workdir, n, blocks, count=1):
    return [_save(prog, ergodic_system(prog, n, blocks, rng), workdir, f"ergodic-n{n}-b{blocks}-{k}")
            for k in range(count)]


def _check_pool(prog, rng, workdir):
    return {CHECK_ATOMS: [path for blocks in BLOCKS
                          for path in _ergodic_files(prog, rng, workdir, CHECK_ATOMS, blocks,
                                                     CHECK_FILES_PER_BLOCKS)]}


def _check_round(pool, rng):
    # every file once per round, so each run sees the same mix of block counts
    files = list(pool[CHECK_ATOMS])
    rng.shuffle(files)
    return [Request(("check", path), {"command": "check", "n": CHECK_ATOMS, "method": "all"})
            for path in files]


def _scan_pool(prog, rng, workdir):
    return {
        SCAN_FULL_ATOMS: [_ergodic_files(prog, rng, workdir, SCAN_FULL_ATOMS, blocks)[0]
                          for blocks in BLOCKS],
        SCAN_METHOD_ATOMS: _ergodic_files(prog, rng, workdir, SCAN_METHOD_ATOMS, SCAN_METHOD_BLOCKS),
    }


def _scan_round(pool, rng):
    # five request kinds of distinct cost, one each: the median is always the
    # middle kind's cost instead of jumping between two kinds
    n = SCAN_FULL_ATOMS
    # the default cap refuses the component-pair scan above n=8, so pass 2n
    reqs = [Request(("check", path, "--exhaustive", "--cap", str(2 * n)),
                    {"command": "check", "n": n, "method": "all"})
            for path in pool[n]]
    n = SCAN_METHOD_ATOMS
    reqs += [Request(("check", path, "--method", SCAN_METHOD, "--exhaustive", "--cap", str(2 * n)),
                     {"command": "check", "n": n, "method": SCAN_METHOD})
             for path in pool[n]]
    rng.shuffle(reqs)
    return reqs


def _converge_pool(prog, rng, workdir):
    files = []
    for blocks in range(1, 5):
        for k in range(2):
            system = prog.system.random_system(CONVERGE_ATOMS, blocks, rng.randrange(2 ** 31))
            if not system.is_valid:
                raise RuntimeError("random_system returned an invalid system")
            files.append(_save(prog, system, workdir, f"random-n{CONVERGE_ATOMS}-b{blocks}-{k}"))
    return {CONVERGE_ATOMS: files}


def vector_spec(n: int, rng: random.Random) -> str:
    kind = rng.choice(("basis", "component", "rat"))
    if kind == "basis":
        return f"basis:{rng.randrange(n)}"
    if kind == "component":
        return "component:" + "".join(rng.choice("01") for _ in range(n))
    return "rat:" + ",".join(str(Fraction(rng.randint(-5, 5), rng.randint(1, 8))) for _ in range(n))


def _converge_request(pool, rng, top: int, against: bool) -> Request:
    n = CONVERGE_ATOMS
    argv = ("converge", rng.choice(pool[n]), "--vector", vector_spec(n, rng))
    if against:
        argv += ("--against", vector_spec(n, rng))
    argv += ("--n-grid", f"geometric:1:{top}")
    grid = [1 << k for k in range(top.bit_length())]
    return Request(argv, {"command": "converge", "grid": grid})


def _converge_round(pool, rng):
    # two Cesàro tables to one correlation table keeps the median and the
    # tail inside one request kind, whichever kind is the slower
    reqs = [_converge_request(pool, rng, CONVERGE_VECTOR_GRID, False) for _ in range(2)]
    reqs.append(_converge_request(pool, rng, CONVERGE_AGAINST_GRID, True))
    rng.shuffle(reqs)
    return reqs


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (prog, rng, workdir) -> pool; generates, validates and saves inputs
    round: Callable  # (pool, rng) -> list[Request]
    trace_rounds: int  # rounds in the fixed request list of a traced run


WORKLOADS = {
    "fuzz-small": Workload(_no_files, _fuzz_round, trace_rounds=12),
    "check-ergodic": Workload(_check_pool, _check_round, trace_rounds=3),
    "scan-exhaustive": Workload(_scan_pool, _scan_round, trace_rounds=8),
    "converge-exact": Workload(_converge_pool, _converge_round, trace_rounds=7),
}
