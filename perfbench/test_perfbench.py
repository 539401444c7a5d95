"""Tests of the benchmark itself: seeded inputs, reference checks, tracing.

These use the floerbar modules the test run has already imported (the
benchmark's own fresh re-import would split them in two).
"""

import dataclasses
import json
from pathlib import Path

import pytest

import floerbar
import floerbar.cli  # noqa: F401  (the benchmark drives floerbar.cli.main)
import run
from workloads import WORKLOADS, Job, generate

FB = floerbar


def _inputs(workdir, name, seed):
    workload = dataclasses.replace(WORKLOADS[name], rounds=1)
    generate(workload, FB, seed, workdir, run.FIXTURES)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    assert _inputs(tmp_path / "a", name, 7) == _inputs(tmp_path / "b", name, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_gives_other_inputs(tmp_path, name):
    a, b = _inputs(tmp_path / "a", name, 7), _inputs(tmp_path / "b", name, 8)
    assert a.keys() == b.keys()
    generated = [f for f in a if not f.startswith("fixture-")]
    assert generated and all(a[f] != b[f] for f in generated)


def _first_job(tmp_path, name, kind):
    workload = dataclasses.replace(WORKLOADS[name], rounds=1)
    (jobs,) = generate(workload, FB, 3, tmp_path, run.FIXTURES)
    return workload, next(job for job in jobs if job.kind == kind)


def _set_output(key, value):
    def corrupt(outcomes):
        outcomes[-1].report["outputs"][key] = value
    return corrupt


def _drop_first_bar(outcomes):
    outcomes[0].report["outputs"]["barcode"]["bars"].pop(0)


def _exit_code(code):
    def corrupt(outcomes):
        outcomes[-1].code = code
    return corrupt


def _failed(workload, job, result):
    checker = run.Checker(FB, workload)
    checker.add(job, result)
    return checker.failed()


@pytest.mark.parametrize("name, kind, corrupt", [
    ("stability", "stability", _drop_first_bar),
    ("stability", "stability", _set_output("distance", "7/3")),
    ("stability", "known-complex", _set_output("gamma", "1/4")),
    ("shift-quotient", "shift", _set_output("shifted_distance", "1/10")),
    ("shift-quotient", "known-pair", _set_output("best_shift", "2")),
    ("diagrams", "known-diagram", _set_output("boundary_depth", "1/3")),
    ("radial", "radial", _set_output("forced_bar_bound", ["1", "0"])),
    ("radial", "homotopy", _set_output("kept_counts", [2, 1, 1, 1, 1])),
    ("radial", "radial", _exit_code(1)),
])
def test_reference_counts_a_wrong_answer_as_a_failure(tmp_path, name, kind, corrupt):
    workload, job = _first_job(tmp_path, name, kind)
    _latency, outcomes = run.Runner(FB, workload).run(job)
    assert _failed(workload, job, outcomes) == 0
    corrupt(outcomes)
    assert _failed(workload, job, outcomes) == 1


def test_a_raising_job_is_a_failure():
    job = Job("broken", "radial", {"profile": "does-not-exist.json"})
    _latency, result = run.Runner(FB, WORKLOADS["radial"]).run(job)
    assert _failed(WORKLOADS["radial"], job, result) == 1


def _cheap(job):
    """Bundled-fixture jobs and the smallest generated radial jobs."""
    return job.name.endswith(("/n4", "/homotopy")) or any(
        Path(f).name.startswith("fixture-") for f in job.files.values())


def _traced_counts(tmp_path, name, kinds):
    """Non-timing per-layer metrics of a traced run over cheap jobs."""
    workload = dataclasses.replace(WORKLOADS[name], rounds=1)
    (jobs,) = generate(workload, FB, 5, tmp_path / "in", run.FIXTURES)
    jobs = [job for job in jobs if job.kind in kinds and _cheap(job)]
    metrics, attempted, failed, _failures = run.per_layer(
        workload, FB, [jobs], tmp_path / "trace.json")
    assert attempted == len(jobs) and failed == 0
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert spans and all(len(span) == 6 for span in spans)
    return {k: v for k, v in metrics.items()
            if not k.endswith(".self_s") and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("name, kinds", [
    ("diagrams", {"known-diagram"}),
    ("radial", {"radial", "homotopy"}),
    ("shift-quotient", {"known-pair"}),
    ("stability", {"known-complex"}),
])
def test_traced_counters_repeat_exactly(tmp_path, name, kinds):
    first = _traced_counts(tmp_path / "1", name, kinds)
    second = _traced_counts(tmp_path / "2", name, kinds)
    assert first == second


def test_traced_pass_counts_follow_the_cli(tmp_path):
    """combfloer enumerates lunes three times on the sphere (directly, in
    build_complex, in diagram_gamma) and twice on the annulus; radial runs
    feasible_barcodes twice (directly and in forced_bar_bound)."""
    diagrams = _traced_counts(tmp_path / "d", "diagrams", {"known-diagram"})
    assert diagrams["diagrams.lune_passes_per_job"] == 3
    assert diagrams["diagrams.lune_passes_per_annulus_job"] == 2
    radial = _traced_counts(tmp_path / "r", "radial", {"radial"})
    assert radial["radial.feasible_passes_per_job"] == 2
    assert radial["radial.feasible_found"] > 0
