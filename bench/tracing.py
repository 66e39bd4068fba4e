"""Spans and counters around ergolab's public functions, for the traced run.

``Tracer.install`` rebinds each wrapped function in every ergolab module that
holds it, so calls through ``cli`` and calls inside ``ergodicity`` are both
seen; ``uninstall`` puts the originals back.  Layer boundaries get spans
(name, start, end, parent span, request id), kept in memory and written out
by the runner.  Hot kernel calls get counters instead, since a span per call
would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

EXHAUSTIVE_CRITERIA = ("absorbing", "sweep-out", "corr-component-pairs", "corr-diagonal-components")
COMMANDS = ("check", "converge", "fuzz")
EXIT_CODES = (0, 1, 2, 3)
SPAN_FIELDS = ("name", "start", "end", "parent", "request")


def _lex_rank(component) -> int:
    """Position of a component in the scans' order (atom 0 most significant)."""
    return int("".join("1" if x else "0" for x in component.entries), 2)


def scan_items(criterion: str, n: int, witness) -> int:
    """Masks (or mask pairs p <= q) a literal scan enumerates before it stops."""
    total = 1 << n
    if criterion == "corr-component-pairs":
        if witness is None:
            return total * (total + 1) // 2
        a, b = _lex_rank(witness[0]), _lex_rank(witness[1])
        return a * total - a * (a - 1) // 2 + (b - a + 1)
    if witness is None:
        return total
    return _lex_rank(witness[0] if isinstance(witness, tuple) else witness) + 1


class Tracer:
    def __init__(self, prog):
        self.prog = prog
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # --- wrappers ----------------------------------------------------------------

    def _span(self, fn, name, on_result=None):
        """``name`` is a label, or a function of the call's arguments returning
        (label, context) where context is passed on to ``on_result``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label, context = (name, None) if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append([label, clock(), None, stack[-1] if stack else None, self.request])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                on_result(context, args, result)
            return result
        return traced

    def _counter(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _counted_generator(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return counted

    def _decider(self, fn):
        signature = inspect.signature(fn)
        default = fn.__name__.removeprefix("decide_").replace("_", "-")

        def name(args, kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            criterion = a.get("variant", default)
            exhaustive = a.get("mode") == "exhaustive" or a.get("exhaustive") is True
            route = "exhaustive" if exhaustive else "fast"
            return f"ergodicity.{criterion}.{route}", (criterion, exhaustive, a["system"].n)

        def on_result(context, args, verdict):
            criterion, exhaustive, n = context
            witness = verdict[1]
            self.counts["ergodicity.decider_calls"] += 1
            self.counts["ergodicity.witnesses"] += witness is not None
            if exhaustive:
                self.counts["ergodicity.scan_items"] += scan_items(criterion, n, witness)
        return self._span(fn, name, on_result)

    def _main(self, fn):
        def on_result(context, args, code):
            argv = args[0] if args else None
            if argv:
                self.counts[f"cli.{argv[0]}.exit_{code}"] += 1
        return self._span(fn, "cli.main", on_result)

    # --- installing --------------------------------------------------------------

    def _rebind(self, owner, attr, make):
        """Replace ``owner.attr`` (and every module alias of a function) by ``make(original)``."""
        original = getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in self.prog.modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, alias, original))
                    setattr(module, alias, wrapper)

    def install(self) -> None:
        p = self.prog
        spans = [
            (p.cli, "cmd_check", "cli.check"),
            (p.cli, "cmd_converge", "cli.converge"),
            (p.cli, "cmd_fuzz", "cli.fuzz"),
            (p.system, "load_system", "system.load"),
            (p.system, "random_system", "system.random_system"),
            (p.system, "validate_system", "system.validate"),
            (p.ergodicity, "full_report", "ergodicity.full_report"),
            (p.ergodicity, "cesaro_trace", "ergodicity.cesaro_trace"),
            (p.ergodicity, "check_isometry", "ergodicity.isometry"),
            (p.oracle, "oracle_ergodic", "oracle.ergodic"),
        ]
        for owner, attr, label in spans:
            self._rebind(owner, attr, lambda fn, label=label: self._span(fn, label))
        self._rebind(p.cli, "main", self._main)
        for attr in ("decide_definition", "decide_absorbing", "decide_sweep_out",
                     "decide_time_average", "decide_correlation"):
            self._rebind(p.ergodicity, attr, self._decider)
        counters = [
            (p.riesz.RieszVector, "__init__", "riesz.vectors_built"),
            (p.condexp.ConditionalExpectation, "apply", "condexp.apply_calls"),
            (p.system.KoopmanMap, "apply", "system.koopman_apply_calls"),
            (p.system.CepsSystem, "__init__", "system.construct_calls"),
            (p.ergodicity, "correlation_limit", "ergodicity.correlation_limit_calls"),
        ]
        for owner, attr, key in counters:
            self._rebind(owner, attr, lambda fn, key=key: self._counter(fn, key))
        self._rebind(p.oracle, "enumerate_components",
                     lambda fn: self._counted_generator(fn, "oracle.components"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- per-layer metrics -------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values: inclusive span totals, self times, counts and ratios."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for (label, start, end, _, _), children in zip(self.spans, covered):
            total[label] += end - start
            own[label] += end - start - children
        c = self.counts
        out = {f"ergodicity.{name}.fast_s": total[f"ergodicity.{name}.fast"]
               for name in self.prog.ergodicity.CRITERIA}
        out.update({f"ergodicity.{name}.exhaustive_s": total[f"ergodicity.{name}.exhaustive"]
                    for name in EXHAUSTIVE_CRITERIA})
        out.update({
            "ergodicity.full_report_s": total["ergodicity.full_report"],
            "ergodicity.scan_items": c["ergodicity.scan_items"],
            "ergodicity.cesaro_trace_s": total["ergodicity.cesaro_trace"],
            "ergodicity.isometry_s": total["ergodicity.isometry"],
            "ergodicity.witness_ratio": (c["ergodicity.witnesses"] / c["ergodicity.decider_calls"]
                                         if c["ergodicity.decider_calls"] else 0.0),
            "ergodicity.correlation_limit_calls": c["ergodicity.correlation_limit_calls"],
            "oracle.ergodic_s": total["oracle.ergodic"],
            "oracle.components": c["oracle.components"],
            "system.random_system_s": total["system.random_system"],
            "system.validate_s": total["system.validate"],
            "system.load_s": total["system.load"],
            "system.construct_calls": c["system.construct_calls"],
            "system.koopman_apply_calls": c["system.koopman_apply_calls"],
            "riesz.vectors_built": c["riesz.vectors_built"],
            "condexp.apply_calls": c["condexp.apply_calls"],
            "cli.main_self_s": own["cli.main"],
        })
        for command in COMMANDS:
            out[f"cli.{command}_self_s"] = own[f"cli.{command}"]
            for code in EXIT_CODES:
                out[f"cli.{command}.exit_{code}"] = c[f"cli.{command}.exit_{code}"]
        return out
