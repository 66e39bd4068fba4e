"""The traced benchmark's contract with the program.

``bench/tracing.py`` rebinds ergolab functions by name (the CLI commands,
``full_report``, every ``decide_*``, the counted kernel calls) and binds the
deciders' ``system``, ``variant`` and ``exhaustive`` arguments.  A rename or
a signature change would leave its per-layer metrics silently at zero.  This
test installs the tracer over the imported ergolab modules, drives the CLI
through every decider route and one ``converge``, and requires a span for
each criterion and route and a nonzero scan count.  It reads ``bench/`` and
never changes it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import ergolab as E
from ergolab import cli, condexp, ergodicity, oracle, riesz, system

from conftest import one_cycle_per_block

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import tracing  # noqa: E402  (bench/ is not a package)


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_the_tracer_sees_every_decider_route(tmp_path):
    path = str(tmp_path / "ergodic-n9.json")
    E.save_system(one_cycle_per_block(9, 4, seed=9), path)
    prog = SimpleNamespace(modules=[E, cli, condexp, ergodicity, oracle, riesz, system],
                           cli=cli, condexp=condexp, ergodicity=ergodicity, oracle=oracle,
                           riesz=riesz, system=system)
    tracer = tracing.Tracer(prog)
    tracer.install()
    try:
        codes = [run_cli(["check", path]),
                 run_cli(["check", path, "--method", "corr-ideal-pairs"]),
                 run_cli(["check", path, "--exhaustive", "--cap", "18"]),
                 run_cli(["converge", path, "--vector", "basis:0", "--n-grid", "geometric:1:64"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    for fn in (cli.main, E.full_report, ergodicity.full_report, ergodicity.decide_correlation):
        assert not hasattr(fn, "__wrapped__"), fn  # uninstalled

    labels = {span[0] for span in tracer.spans}
    for criterion in E.CRITERIA:
        assert f"ergodicity.{criterion}.fast" in labels, criterion
    for criterion in tracing.EXHAUSTIVE_CRITERIA:
        assert f"ergodicity.{criterion}.exhaustive" in labels, criterion
    for label in ("cli.main", "cli.check", "cli.converge", "system.load", "system.validate",
                  "ergodicity.full_report", "ergodicity.cesaro_trace"):
        assert label in labels, label

    metrics = tracer.metrics()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - set(metrics) == {"trace.overhead_s", "trace.spans"}
    assert metrics["ergodicity.scan_items"] > 0
    assert metrics["cli.check.exit_0"] == 3 and metrics["cli.converge.exit_0"] == 1
    for criterion in E.CRITERIA:
        assert metrics[f"ergodicity.{criterion}.fast_s"] > 0, criterion
