"""Batch verification tool: validate systems, decide ergodicity, table convergence, fuzz.

Machine-readable output keeps every rational bit-exact as {"num", "den"} (or
"p/q" strings in CSV); --pretty renders decimals for humans, and converge
--float prints its table's values as floats rounded from the exact ones (the
table itself, and its verdicts, are always computed exactly).  Identical
inputs and seeds produce byte-identical output.  Exit codes: 0 valid/ergodic/
clean, 1 invalid or not ergodic, 2 unusable input (parse, schema, spec or cap
errors), 3 criterion disagreement -- which would falsify an equivalence
theorem and must abort loudly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import random
import sys
from fractions import Fraction

from .caps import DEFAULT_CAP, CapExceededError
from .checks import fraction_to_json
from .ergodicity import (
    CRITERIA,
    DECIDERS,
    ErgodicityReport,
    cesaro_error_bound,
    cesaro_trace,
    check_isometry,
    correlation_limit,
    full_report,
)
from .oracle import oracle_ergodic
from .riesz import Component, RieszVector, basis_vector, sup_norm
from .system import SchemaError, load_system, random_system, random_vector


def _cap_arg(text: str) -> int:
    """argparse type of --cap: a nonnegative integer exponent."""
    try:
        cap = int(text)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return cap


def _resolve_cap(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("ERGOLAB_CAP")
    if env is None:
        return DEFAULT_CAP
    try:
        return _cap_arg(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"ERGOLAB_CAP {exc}") from exc


def _load(path: str):
    """The system stored at ``path``, or None after reporting why it is unusable."""
    try:
        return load_system(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def _emit(obj, pretty: bool) -> None:
    sys.stdout.write(json.dumps(_prettify(obj) if pretty else obj, indent=2, sort_keys=True))
    sys.stdout.write("\n")


def _prettify(obj):
    """Replace {"num","den"} rationals by floats, recursively (human display only)."""
    if isinstance(obj, dict):
        if set(obj) == {"num", "den"}:
            return obj["num"] / obj["den"]
        return {k: _prettify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_prettify(v) for v in obj]
    return obj


def parse_vector_spec(spec: str, n: int) -> RieszVector:
    """Mini-grammar for reproducible vectors: basis:i | component:bits | rat:a/b,c,..."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"vector spec needs a kind prefix, got {spec!r}")
    if kind == "basis":
        try:
            i = int(rest)
        except ValueError as exc:
            raise ValueError(f"basis index must be an integer, got {rest!r}") from exc
        if not 0 <= i < n:
            raise ValueError(f"basis index {i} out of range for {n} atoms")
        return basis_vector(n, i)
    if kind == "component":
        if len(rest) != n:
            raise ValueError(f"component bitstring must have length {n}, got {len(rest)}")
        return Component.from_bits(rest)
    if kind == "rat":
        toks = rest.split(",")
        if len(toks) != n:
            raise ValueError(f"rat spec must list {n} entries, got {len(toks)}")
        # Fraction("1e<k>") computes 10**k in full: refuse an exponent past the
        # interpreter's int digit limit, which load_system applies to JSON integers
        # (0, or no such function before Python 3.10.7, means no limit)
        limit = getattr(sys, "get_int_max_str_digits", int)() or math.inf
        try:
            for t in toks:
                _, e, exponent = t.lower().partition("e")
                if e and abs(int(exponent)) > limit:
                    raise ValueError(f"the exponent of {t.strip()!r} passes the limit of {limit} digits")
            return RieszVector(Fraction(t) for t in toks)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational in vector spec: {exc}") from exc
    raise ValueError(f"unknown vector spec kind {kind!r} (use basis:, component: or rat:)")


def parse_n_grid(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "geometric":
        raise ValueError(f"n-grid spec must look like geometric:a:b, got {spec!r}")
    try:
        a, b = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"n-grid endpoints must be integers: {spec!r}") from exc
    if a < 1 or b < a:
        raise ValueError(f"n-grid needs 1 <= a <= b, got a={a}, b={b}")
    grid = []
    n = a
    while n <= b:
        grid.append(n)
        n *= 2
    return grid


# --- validate ----------------------------------------------------------------

def cmd_validate(args) -> int:
    system = _load(args.path)
    if system is None:
        return 2
    doc = system.report.to_dict()
    doc["n"] = system.n
    doc["valid"] = system.is_valid
    _emit(doc, args.pretty)
    return 0 if system.is_valid else 1


# --- check -------------------------------------------------------------------

def cmd_check(args) -> int:
    system = _load(args.path)
    if system is None:
        return 2
    try:
        cap = _resolve_cap(args.cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not system.is_valid:
        doc = system.report.to_dict()
        doc["valid"] = False
        _emit(doc, args.pretty)
        return 1
    try:
        if args.method == "all":
            report = full_report(system, exhaustive=args.exhaustive, cap=cap)
        else:
            ok, witness = DECIDERS[args.method](system, args.exhaustive, cap)
            report = ErgodicityReport(
                {args.method: ok},
                {} if witness is None else {args.method: witness},
                agreement=True,
            )
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = report.to_dict()
    doc["n"] = system.n
    _emit(doc, args.pretty)
    if not report.agreement:
        print("error: criteria disagree on a valid system; this falsifies an equivalence "
              "and should be reported", file=sys.stderr)
        return 3
    return 0 if report.ergodic else 1


# --- converge ------------------------------------------------------------------

def _exact_rows(system, f, grid, against):
    rows = []
    if against is None:
        trace = cesaro_trace(system, f, grid)
        for (n, _), err in zip(trace.values, trace.sup_errors):
            bound = cesaro_error_bound(system, f, n)
            rows.append((n, err, bound, err <= bound))
    else:
        # the n-th correlation mean is E(f · mean_n against), by linearity
        limit = correlation_limit(system, f, against)
        scale = Fraction(2 * system.longest_cycle) * sup_norm(f) * sup_norm(against)
        for n, mean in cesaro_trace(system, against, grid).values:
            err = sup_norm(system.expectation.apply(f * mean) - limit)
            bound = scale / n
            rows.append((n, err, bound, err <= bound))
    return rows


def cmd_converge(args) -> int:
    system = _load(args.path)
    if system is None:
        return 2
    if not system.is_valid:
        print("error: system fails validation; convergence tables need a valid system",
              file=sys.stderr)
        return 1
    try:
        f = parse_vector_spec(args.vector, system.n)
        against = parse_vector_spec(args.against, system.n) if args.against else None
        grid = parse_n_grid(args.n_grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = _exact_rows(system, f, grid, against)
    # a value past a float's range (OverflowError) or past the interpreter's
    # int digit limit (ValueError) stops the table before any of it is written;
    # only the float conversions and the writing raise them, not the exact rows
    try:
        cell = float if args.float else (str if args.emit == "csv" else fraction_to_json)
        if args.emit == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["n", "sup_error", "bound", "within_bound"])
            writer.writerows([n, cell(err), cell(bound), "true" if ok else "false"]
                             for n, err, bound, ok in rows)
            sys.stdout.write(buf.getvalue())
        else:
            _emit({"rows": [{"n": n, "sup_error": cell(err), "bound": cell(bound), "within_bound": ok}
                            for n, err, bound, ok in rows]}, args.pretty)
    except (OverflowError, ValueError) as exc:
        print(f"error: cannot write the table: {exc}", file=sys.stderr)
        return 2
    return 0 if all(ok for *_, ok in rows) else 1


# --- fuzz ----------------------------------------------------------------------

def cmd_fuzz(args) -> int:
    if args.atoms < 1 or args.systems < 1:
        print("error: --atoms and --systems must be positive", file=sys.stderr)
        return 2
    try:
        cap = _resolve_cap(args.cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    master = random.Random(args.seed)
    n = args.atoms
    counts = {"ergodic": 0, "non_ergodic": 0, "disagreements": 0,
              "isometry_failures": 0, "oracle_checked": 0, "oracle_disagreements": 0}
    for index in range(args.systems):
        seed_i = args.seed * 1_000_003 + index
        blocks = master.randint(1, min(4, n))
        system = random_system(n, blocks, seed_i)
        report = full_report(system)
        if not report.agreement:
            counts["disagreements"] += 1
            continue
        counts["ergodic" if report.ergodic else "non_ergodic"] += 1
        for t in range(3):
            x = random_vector(n, seed_i * 31 + t)
            if not all(check_isometry(system, x, q) for q in (1, 2, 3, math.inf)):
                counts["isometry_failures"] += 1
                break
        if n <= cap:
            counts["oracle_checked"] += 1
            if oracle_ergodic(system, cap) != report.ergodic:
                counts["oracle_disagreements"] += 1
    summary = {"atoms": n, "systems": args.systems, "seed": args.seed, "cap": cap, **counts}
    _emit(summary, args.pretty)
    bad = counts["disagreements"] + counts["isometry_failures"] + counts["oracle_disagreements"]
    return 0 if bad == 0 else 3


# --- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Validate conditional-expectation-preserving systems and decide ergodicity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all system laws on a JSON system file")
    p.add_argument("path")
    p.add_argument("--pretty", action="store_true", help="render rationals as decimals")

    p = sub.add_parser("check", help="decide ergodicity by one or all criteria")
    p.add_argument("path")
    p.add_argument("--method", default="all", choices=("all",) + CRITERIA)
    p.add_argument("--exhaustive", action="store_true",
                   help="discharge component quantifiers by literal scans (cap permitting)")
    p.add_argument("--cap", type=_cap_arg, default=None,
                   help=f"brute-force budget exponent (default {DEFAULT_CAP}, env ERGOLAB_CAP)")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("converge", help="table of Cesàro convergence against the exact limit")
    p.add_argument("path")
    p.add_argument("--vector", required=True,
                   help="f-spec: basis:i | component:bits | rat:a/b,c,...")
    p.add_argument("--against", default=None,
                   help="optional second vector: table the correlation gap instead")
    p.add_argument("--n-grid", default="geometric:1:4096", dest="n_grid",
                   help="index grid, geometric:a:b doubles from a up to b")
    p.add_argument("--emit", choices=("csv", "json"), default="csv")
    p.add_argument("--float", action="store_true",
                   help="print sup_error and bound as floats, rounded from the exact values")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("fuzz", help="campaign over random valid systems asserting agreement")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--systems", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=_cap_arg, default=None)
    p.add_argument("--pretty", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name on each call, so a rebinding of cmd_<command> takes effect
    return globals()[f"cmd_{args.command}"](args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
