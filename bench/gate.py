"""Per-request correctness gate, written without ergolab so it checks the CLI
from outside: it reads only the exit code and the bytes on stdout.

Every request in the benchmark is expected to exit 0.  ``problems`` returns
the reasons a request's output is wrong (empty when it passes); ``self_test``
tampers with real outputs and confirms the gate rejects each tampered copy.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

CRITERIA_COUNT = 9
CONVERGE_HEADER = ["n", "sup_error", "bound", "within_bound"]
FUZZ_BAD_COUNTERS = ("disagreements", "isometry_failures", "oracle_disagreements")


def _check(expect: dict, out: str) -> list[str]:
    doc = json.loads(out)
    bad = []
    if doc.get("agreement") is not True:
        bad.append("agreement is not true")
    if doc.get("ergodic") is not True:
        bad.append("ergodic is not true")
    if doc.get("n") != expect["n"]:
        bad.append(f"n is {doc.get('n')}, expected {expect['n']}")
    verdicts = doc.get("verdicts", {})
    names = set(verdicts)
    if expect["method"] == "all" and len(names) != CRITERIA_COUNT:
        bad.append(f"{len(names)} verdicts, expected {CRITERIA_COUNT}")
    if expect["method"] != "all" and names != {expect["method"]}:
        bad.append(f"verdicts {sorted(names)}, expected [{expect['method']!r}]")
    if not all(v is True for v in verdicts.values()):
        bad.append("a verdict is not true")
    if doc.get("witnesses") != {}:
        bad.append("witnesses on an ergodic system")
    return bad


def _fuzz(expect: dict, out: str) -> list[str]:
    doc = json.loads(out)
    bad = [f"{key} is {doc.get(key)}" for key in FUZZ_BAD_COUNTERS if doc.get(key) != 0]
    systems = expect["systems"]
    if doc.get("systems") != systems or doc.get("oracle_checked") != systems:
        bad.append(f"oracle_checked {doc.get('oracle_checked')} of {doc.get('systems')}, "
                   f"expected {systems} of {systems}")
    if doc.get("atoms") != expect["atoms"]:
        bad.append(f"atoms is {doc.get('atoms')}")
    if doc.get("ergodic", 0) + doc.get("non_ergodic", 0) != systems:
        bad.append("ergodic + non_ergodic != systems")
    return bad


def _converge(expect: dict, out: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != CONVERGE_HEADER:
        return ["missing CSV header"]
    body = rows[1:]
    bad = []
    if [int(r[0]) for r in body] != expect["grid"]:
        bad.append("row indices differ from the requested grid")
    for n, err, bound, within in body:
        if within != "true":
            bad.append(f"row n={n}: within_bound is {within}")
        elif not 0 <= Fraction(err) <= Fraction(bound):
            bad.append(f"row n={n}: sup_error {err} exceeds bound {bound}")
    return bad


_CHECKERS = {"check": _check, "fuzz": _fuzz, "converge": _converge}


def problems(expect: dict, code, out: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    try:
        return _CHECKERS[expect["command"]](expect, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]


# --- self-test -------------------------------------------------------------------

def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _tampered(expect: dict, out: str) -> list[str]:
    """Semantically tampered copies of a passing output, one fault each."""
    command = expect["command"]
    if command == "check":
        copies = []
        for key, value in (("ergodic", False), ("agreement", False)):
            doc = json.loads(out)
            doc[key] = value
            copies.append(_dump(doc))
        doc = json.loads(out)
        name = next(iter(doc["verdicts"]))
        doc["verdicts"][name] = False
        copies.append(_dump(doc))
        return copies
    if command == "fuzz":
        copies = []
        for key in FUZZ_BAD_COUNTERS + ("oracle_checked",):
            doc = json.loads(out)
            doc[key] += 1
            copies.append(_dump(doc))
        return copies
    lines = out.splitlines(keepends=True)
    flipped = lines[:-1] + [lines[-1].replace(",true", ",false")]
    dropped = lines[:-1]
    return ["".join(flipped), "".join(dropped)]


def self_test(samples) -> tuple[int, int]:
    """Feed the gate faulty copies of (expect, code, stdout) samples that pass it.

    Each sample yields its output under a wrong exit code plus the tampered
    copies above.  Returns (tampered, caught); the gate has teeth when both
    are equal and positive.
    """
    tampered = caught = 0
    for expect, code, out in samples:
        copies = [(1, out)] + [(code, copy) for copy in _tampered(expect, out)]
        tampered += len(copies)
        caught += sum(bool(problems(expect, c, o)) for c, o in copies)
    return tampered, caught
