"""floerbar benchmark: seeded inputs through the real CLI, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stability --seed 1 --seconds 25 --trace 0

Workloads: stability, shift-quotient, diagrams, radial (see NOTES.md).  The
run imports floerbar from ``src/`` of the same checkout, generates its inputs
from ``--seed`` under ``.bench_work/``, and runs jobs in a closed loop: one
process, one client, each job started when the previous one has finished.
Each job is one or more ``floerbar`` commands called in-process through
``floerbar.cli.main``.

``--trace 0`` times whole rounds of jobs for ``--seconds`` seconds (and at
least MIN_JOBS jobs) and reports the end-to-end metrics, with times in
reference seconds (see ``reference_seconds``).  ``--trace 1`` runs
a fixed list of jobs (the first TRACE_ROUNDS rounds) once untraced and once
with every layer wrapped in spans, reports the per-layer metrics, and writes
all spans to ``.bench_out/``.  Outputs are checked against independent
answers after the timed region.  The last line of stdout is one JSON object;
a human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "floerbar" / "fixtures"
for _path in (str(HERE), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import tracer  # noqa: E402  (sibling modules, found through HERE)
import workloads  # noqa: E402

MIN_JOBS = 100          # so that ten samples lie beyond the 90th percentile
MAX_LOOP_SECONDS = 120  # stop a pathologically slow run before the time limit
PROBE_TERMS = 1000
PROBE_REFERENCE_S = 0.003  # the probe's time on the reference machine
SETUP_REPEATS = 3
TRACE_ROUNDS = 2


def _fixed_hash_seed() -> None:
    """Re-execute with string hashing fixed, so that set iteration orders,
    and with them the traced counters, repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def load_floerbar():
    """Import floerbar afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "floerbar" or n.startswith("floerbar.")]:
        del sys.modules[name]
    importlib.import_module("floerbar.cli")
    fb = importlib.import_module("floerbar")
    if Path(fb.__file__).resolve().parent != SRC / "floerbar":
        raise ImportError(f"floerbar was imported from {fb.__file__}, not from {SRC}")
    return fb


class Runner:
    """Runs jobs through ``floerbar.cli.main``, optionally inside spans."""

    def __init__(self, fb, workload, trace=None) -> None:
        self.fb = fb
        self.workload = workload
        self.trace = trace

    def invoke(self, args: List[str]):
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                if self.trace is None:
                    self.fb.cli.main(args, prog_name="floerbar")
                else:
                    self.trace.span("cli", self.fb.cli.main, args, prog_name="floerbar")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        text = out.getvalue()
        return workloads.Outcome(code, json.loads(text) if text.strip() else None)

    def run(self, job) -> Tuple[float, object]:
        """Latency and outcomes of one job; an exception is the outcome of a
        job that failed by raising."""
        start = time.perf_counter()
        try:
            result = self.workload.run(job, self.invoke)
        except Exception:
            result = traceback.format_exc(limit=4)
        return time.perf_counter() - start, result


def setup(workload, seed: int, workdir: Path):
    """Import floerbar, write the seeded inputs, run one warm-up job; the
    time taken is in reference seconds."""
    before = probe()
    start = time.perf_counter()
    fb = load_floerbar()
    if workdir.exists():
        shutil.rmtree(workdir)
    rounds = workloads.generate(workload, fb, seed, workdir, FIXTURES)
    Runner(fb, workload).run(rounds[0][0])
    seconds = time.perf_counter() - start
    return reference_seconds(seconds, before, probe()), fb, rounds


class Checker:
    """Collects outcomes and checks each distinct (job, outcome) pair once
    against the job's independent answer, after the timed region."""

    def __init__(self, fb, workload) -> None:
        self.fb = fb
        self.workload = workload
        self.seen: Dict[Tuple[int, str], list] = {}  # -> [job, outcome, count]
        self.failures: Dict[str, str] = {}

    def add(self, job, result) -> None:
        entry = self.seen.setdefault((id(job), repr(result)), [job, result, 0])
        entry[2] += 1

    def failed(self) -> int:
        """Failed job runs among all added."""
        total = 0
        for job, result, count in self.seen.values():
            problem = self._problem(job, result)
            if problem:
                self.failures.setdefault(job.name, problem)
                total += count
        return total

    def _problem(self, job, result) -> str:
        if isinstance(result, str):
            return "raised: " + result.strip().splitlines()[-1]
        try:
            return self.workload.check(job, result, self.fb) or ""
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed report: {exc!r}"


def probe() -> float:
    """Wall time of a fixed block of exact rational arithmetic, the kind of
    work floerbar does."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def reference_seconds(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` rescaled to a machine on which the probe takes
    PROBE_REFERENCE_S: the speed of a shared machine swings by up to a
    factor two within seconds, and the probes on either side of a timing
    track that swing to within about one percent."""
    return seconds * 2 * PROBE_REFERENCE_S / (probe_before + probe_after)


def timed_loop(runner: Runner, rounds, seconds: float, checker: Checker):
    """Whole rounds until ``seconds`` have passed and MIN_JOBS jobs ran.

    Returns each job's latency in reference seconds and the wall time of
    the loop; outcomes go to ``checker``.
    """
    latencies = []
    # the benchmark's own inputs and answers are not the program's to scan
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    before = probe()
    r = 0
    while True:
        for job in rounds[r % len(rounds)]:
            latency, result = runner.run(job)
            after = probe()
            latencies.append(reference_seconds(latency, before, after))
            checker.add(job, result)
            before = after
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(latencies) >= MIN_JOBS or elapsed >= MAX_LOOP_SECONDS):
            return latencies, elapsed


def end_to_end(workload, fb, rounds, seconds: float, setup_s: float):
    checker = Checker(fb, workload)
    latencies, wall = timed_loop(Runner(fb, workload), rounds, seconds, checker)
    failed = checker.failed()
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "pass_rate": 1 - failed / len(latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_jobs_per_s": len(latencies) / wall,
    }
    return metrics, len(latencies), failed, checker.failures


def per_layer(workload, fb, rounds, trace_path: Path):
    """Run the first TRACE_ROUNDS rounds with every layer traced.  Each job
    also runs once untraced just before, so that both timings of the
    overhead ratio see the same machine speed."""
    jobs = [job for r in rounds[:TRACE_ROUNDS] for job in r]
    trace = tracer.Tracer()
    plain, traced_runner = Runner(fb, workload), Runner(fb, workload, trace)
    checker = Checker(fb, workload)
    untraced = traced = 0.0
    for i, job in enumerate(jobs):
        untraced += plain.run(job)[0]
        trace.job = i
        trace.install(fb)
        try:
            latency, result = traced_runner.run(job)
        finally:
            trace.uninstall()
        traced += latency
        checker.add(job, result)
    trace.write(trace_path, {i: job.name for i, job in enumerate(jobs)})
    metrics = layer_metrics(trace, jobs)
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics, len(jobs), checker.failed(), checker.failures


def _mean_per_job(trace, name: str, jobs, keep) -> float:
    counts = trace.per_job(name)
    chosen = [i for i, job in enumerate(jobs) if keep(job)]
    return sum(counts.get(i, 0) for i in chosen) / len(chosen) if chosen else 0


def layer_metrics(trace, jobs) -> Dict[str, float]:
    m: Dict[str, float] = {}
    for name in ("diagrams.enumerate_lunes", "diagrams.build_complex",
                 "complexes.brute_force_barcode", "complexes.validate",
                 "complexes.uz_reduce", "complexes.gamma",
                 "persistence.bottleneck_distance", "persistence.shifted_bottleneck",
                 "matching.max_bipartite_matching", "radial.feasible_barcodes",
                 "radial.homotopy_filter", "exactpi.sign",
                 "novikov.NovikovScalar.parse", "cli"):
        m[f"{name}.calls"] = trace.stat(name, "calls")
        m[f"{name}.self_s"] = trace.stat(name, "self_s")
    m["trace.errors"] = sum(trace.errors)
    m["trace.spans"] = len(trace.spans)
    m["radial.feasible_found"] = trace.counters["radial.feasible_found"]

    def sphere(job):
        return job.expect.get("surface") == "sphere"

    def annulus(job):
        return job.expect.get("surface") == "annulus"

    m["diagrams.lune_passes_per_job"] = _mean_per_job(
        trace, "diagrams.enumerate_lunes", jobs, sphere)
    m["diagrams.lune_passes_per_annulus_job"] = _mean_per_job(
        trace, "diagrams.enumerate_lunes", jobs, annulus)
    m["complexes.validates_per_job"] = _mean_per_job(
        trace, "complexes.validate", jobs, lambda job: True)
    m["radial.feasible_passes_per_job"] = _mean_per_job(
        trace, "radial.feasible_barcodes", jobs, lambda job: job.kind == "radial")
    shifted = trace.stat("persistence.shifted_bottleneck", "calls")
    m["persistence.shift_candidates_per_call"] = (trace.child_calls(
        "persistence.shifted_bottleneck", "persistence.bottleneck_distance") / shifted
        if shifted else 0)
    bottlenecks = trace.stat("persistence.bottleneck_distance", "calls")
    m["matching.calls_per_bottleneck"] = (
        trace.stat("matching.max_bipartite_matching", "calls") / bottlenecks
        if bottlenecks else 0)
    return m


def declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir = ROOT / ".bench_work" / tag
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, fb, rounds = setup(workload, args.seed, workdir)
            setups.append(seconds)
        if args.trace:
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-s{args.seed}.json"
            values, attempted, failed, failures = per_layer(workload, fb, rounds, trace_path)
            units = declared("per_layer")
        else:
            values, attempted, failed, failures = end_to_end(
                workload, fb, rounds, args.seconds, statistics.median(setups))
            units = declared("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, problem in sorted(failures.items()):
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} jobs, {failed} failed, "
          f"fail_rate {failed / attempted:.4f} ratio", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:45s} {values[name]:.6g} {unit}", file=sys.stderr)
    if "wall_jobs_per_s" in values:
        print(f"  {'(job runs / wall time of the timed loop)':45s} "
              f"{values['wall_jobs_per_s']:.6g} 1/s", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "floerbar" / "cli.py").is_file():
        print(f"no floerbar sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    _fixed_hash_seed()
    sys.exit(main())
