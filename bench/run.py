"""ergolab benchmark: drives the public CLI in process as one closed-loop client.

    python3 bench/run.py --workload check-ergodic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all [--seed 1] [--seconds 20]

Run from the repository root.  ``--trace 0`` times whole rounds of requests
for at least ``--seconds`` and reports the end-to-end metrics named in
BENCHMARK.json, with every time divided by that of a reference computation
timed around it (see reference.py); ``--trace 1`` runs a fixed request list twice, untraced and
then traced, and reports the per-layer metrics and the tracing overhead.
Every request's output goes through the correctness gate.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the full record, with a sha256 of every request's stdout, goes to
bench/out/.  ``--all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import gate
import reference
import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MODULES = ("cli", "condexp", "ergodicity", "oracle", "riesz", "system")
SETUP_REPEATS = 11  # one set-up before the timed loop, the rest spread through it
TAIL_BEYOND = 10  # the tail latency has exactly this many samples above it
MIN_SAMPLES = 2 * TAIL_BEYOND + 1
CHILD_TIMEOUT_S = 900


class ProgramMissing(RuntimeError):
    """The checkout holds no ergolab sources to benchmark."""


def load_program() -> SimpleNamespace:
    """Import ergolab afresh from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "ergolab" / "__init__.py").is_file():
        raise ProgramMissing(f"no ergolab package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "ergolab" or m.startswith("ergolab.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"ergolab.{name}") for name in MODULES}
    package = sys.modules["ergolab"]
    if Path(package.__file__).resolve().parent != (src / "ergolab").resolve():
        raise ProgramMissing(f"ergolab was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(modules=[package, *modules.values()], **modules)


def set_up(workload, seed: int, workdir: Path):
    """Import ergolab and generate, validate and save the seeded inputs."""
    prog = load_program()
    pool = workload.setup(prog, random.Random(seed), workdir)
    return prog, pool


def rounds(workload, pool, seed: int):
    rng = random.Random(f"{seed}/requests")
    while True:
        yield workload.round(pool, rng)


def call(prog, argv) -> tuple[object, str, float]:
    """One request: ``cli.main`` with stdout and stderr captured. Returns (exit, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = prog.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed request, not a failed benchmark
        code = f"exception {exc!r}"
    return code, out.getvalue(), time.perf_counter() - start


def run_requests(prog, requests, tracer=None) -> tuple[list, float]:
    results = []
    start = time.perf_counter()
    for index, req in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        results.append((req, *call(prog, req.argv)))
    return results, time.perf_counter() - start


def run_timed(prog, batches, seconds: float, set_up_again) -> tuple[list, float, list]:
    """Closed loop over whole rounds until ``seconds`` of request time have passed.

    A reference computation is timed before the first request and after
    every request; each result carries the mean of the two around it.
    Between rounds, at evenly spaced times, ``set_up_again`` repeats the
    set-up off the clock, so the set-up times sample the whole run rather than
    one moment of it.  Returns (results, timed seconds, set-ups), where each
    set-up is whatever ``set_up_again`` returned.
    """
    results, setups = [], []
    spacing = seconds / SETUP_REPEATS
    timed = 0.0
    before = reference.timed()
    for batch in batches:
        for req in batch:
            code, out, took = call(prog, req.argv)
            after = reference.timed()
            results.append((req, code, out, took, (before + after) / 2))
            before = after
            timed += took
        due = min(SETUP_REPEATS - 1, int(timed / spacing))
        if len(setups) < due:
            while len(setups) < due:
                setups.append(set_up_again())
            before = reference.timed()
        if timed >= seconds and len(results) >= MIN_SAMPLES:
            break
    while len(setups) < SETUP_REPEATS - 1:
        setups.append(set_up_again())
    return results, timed, setups


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def judge(results) -> tuple[list, list]:
    """Gate every result; returns (records, one passing sample per command)."""
    records, samples = [], {}
    for req, code, out, seconds, *ref in results:
        bad = gate.problems(req.expect, code, out)
        if not bad:
            samples.setdefault(req.expect["command"], (req.expect, code, out))
        records.append({"argv": list(req.argv), "exit": code, "seconds": seconds,
                        "reference_s": ref[0] if ref else None,
                        "stdout_sha256": digest(out), "problems": bad})
    return records, list(samples.values())


def declared(section: str) -> list[tuple[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc[section]]


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def workdir_for(name: str, seed: int) -> Path:
    workdir = OUT_DIR / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def measure(name: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    """Untraced run: repeated set-up, then the timed loop. Returns (values, info, results)."""
    workload = WORKLOADS[name]
    workdir = workdir_for(name, seed)

    def timed_set_up():
        """(wall seconds, reference seconds around it, (prog, pool))"""
        before = reference.timed()
        start = time.perf_counter()
        loaded = set_up(workload, seed, workdir)
        took = time.perf_counter() - start
        return took, (before + reference.timed()) / 2, loaded

    first, first_ref, (prog, pool) = timed_set_up()
    batches = rounds(workload, pool, seed)
    results, elapsed, again = run_timed(prog, batches, seconds, lambda: timed_set_up()[:2])
    setups = [(first, first_ref), *again]
    n = len(results)
    costs = sorted(took / ref for _, _, _, took, ref in results)
    latencies = sorted(r[3] for r in results)
    values = {
        "setup_s": reference.NOMINAL_S * statistics.median(took / ref for took, ref in setups),
        "requests_per_kref": 1000 * n / sum(costs),
        "latency_p50_ref": statistics.median(costs),
        "latency_tail_ref": costs[n - 1 - TAIL_BEYOND],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {  # the same figures in wall time, which drift with the machine's speed
        "setup_s": statistics.median(took for took, _ in setups),
        "requests_per_s": n / elapsed,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * latencies[n - 1 - TAIL_BEYOND],
        "reference_p50_ms": 1000 * statistics.median(r[4] for r in results),
    }
    info = {"setup_runs_s": [took for took, _ in setups], "timed_s": elapsed, "samples": n,
            "latency_tail_percentile": 100 * (n - TAIL_BEYOND) / n, "wall": wall}
    return values, info, results


def measure_traced(name: str, seed: int) -> tuple[dict, dict, list]:
    """Fixed request list, untraced then traced; the exact counts repeat per seed.

    The list is ``trace_rounds`` rounds long whatever ``--seconds`` says.
    """
    workload = WORKLOADS[name]
    prog, pool = set_up(workload, seed, workdir_for(name, seed))
    batches = rounds(workload, pool, seed)
    requests = [req for _, batch in zip(range(workload.trace_rounds), batches) for req in batch]
    plain, plain_wall = run_requests(prog, requests)
    tracer = tracing.Tracer(prog)
    tracer.install()
    try:
        traced, traced_wall = run_requests(prog, requests, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.spans"] = len(tracer.spans)
    changed = sum(p[2] != t[2] for p, t in zip(plain, traced))
    info = {"untraced_s": plain_wall, "traced_s": traced_wall,
            "outputs_changed_by_tracing": changed,
            "stdout_sha256": digest("".join(digest(r[2]) for r in plain))}
    spans_file = OUT_DIR / f"SPANS_{name}_seed{seed}.json"
    spans_file.write_text(json.dumps({"fields": tracing.SPAN_FIELDS, "spans": tracer.spans}))
    info["spans_file"] = str(spans_file.relative_to(ROOT))
    return values, info, plain + traced


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    os.environ.pop("ERGOLAB_CAP", None)  # the cap is always passed explicitly where it matters
    try:
        if trace:
            values, info, results = measure_traced(name, seed)
        else:
            values, info, results = measure(name, seed, seconds)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records, samples = judge(results)
    failed = sum(bool(r["problems"]) for r in records)
    failed += info.get("outputs_changed_by_tracing", 0)
    tampered, caught = gate.self_test(samples)
    info["gate_self_test"] = {"tampered": tampered, "caught": caught}
    info["fail_ratio"] = failed / len(records)
    metrics = {}
    for metric, unit in declared("per_layer" if trace else "end_to_end"):
        if metric not in values:
            raise KeyError(f"BENCHMARK.json names {metric!r}, which this run does not measure")
        metrics[metric] = {"value": values[metric], "unit": unit}
    correct = failed == 0 and tampered > 0 and caught == tampered

    record = {"workload": name, "trace": trace, "seconds": seconds, "environment": environment(seed),
              "info": info, "metrics": metrics, "requests": records}
    (OUT_DIR / f"BENCH_{name}_seed{seed}_trace{trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {name}  seed {seed}  trace {trace}  {json.dumps(record['environment'])}")
    for metric, m in metrics.items():
        print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<48} {info['fail_ratio']:>14.6g} ratio  ({failed} of {len(records)} failed)")
    if not trace:
        print(f"  latency tail is p{info['latency_tail_percentile']:.2f} of {info['samples']} samples")
        print("  wall time: " + "  ".join(f"{k} {v:.6g}" for k, v in info["wall"].items()))
    print(f"  gate self-test: {caught} of {tampered} tampered outputs counted as failed")
    for r in records:
        if r["problems"]:
            print(f"  FAILED {' '.join(r['argv'])}: {'; '.join(r['problems'])}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    env = {k: v for k, v in os.environ.items() if k != "ERGOLAB_CAP"}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print(f"all workloads correct: {str(ok).lower()}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed loop (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    return run_workload(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
