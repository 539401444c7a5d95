"""Seeded inputs, jobs and reference checks of the four benchmark workloads.

A workload is a list of *rounds*; a round is a list of jobs with the same
composition every time (the same size ladder, one fresh random instance per
rung), so percentiles taken over whole rounds stay on the same rung from run
to run.  A job is one or more ``floerbar`` CLI commands on files written
here.  Each job carries the independent answer its outputs are checked
against after the timed loop.

Why each workload exists, and why its ladder stops where it does, is in
NOTES.md next to this file.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import reference as ref

# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """One unit of timed work: ``kind`` selects how it runs and is checked."""

    name: str
    kind: str
    files: Dict[str, str]
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Exit code and parsed JSON report of one CLI command."""

    code: int
    report: Optional[dict]


Invoke = Callable[[List[str]], Outcome]


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")
    return str(path)


def _fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _value_text(v: ref.Number):
    """A string for a rational value, a ``[q, q_pi]`` pair otherwise."""
    if isinstance(v, ref.PiValue):
        return [_fraction_text(v.q), _fraction_text(v.q_pi)]
    return _fraction_text(v)


def _bars_json(bars: List[ref.RefBar]) -> dict:
    return {"bars": [{"left": _value_text(left),
                      "right": "inf" if right is None else _value_text(right),
                      "degree": deg, "mult": 1} for deg, left, right in bars]}


def _copy_fixture(fixtures: Path, name: str, workdir: Path) -> str:
    target = workdir / f"fixture-{name}"
    shutil.copyfile(fixtures / name, target)
    return str(target)


def _outputs(outcome: Outcome) -> dict:
    return (outcome.report or {}).get("outputs", {})


def _all_checks_passed(outcome: Outcome) -> bool:
    return all(c["passed"] for c in (outcome.report or {}).get("checks", []))


def log_ladder(lo: int, hi: int, steps: int) -> List[int]:
    """``steps`` sizes from ``lo`` to ``hi`` spaced evenly on a log scale."""
    return [round(lo * (hi / lo) ** (i / (steps - 1))) for i in range(steps)]


def expand(counts) -> list:
    """``[(rung, count), ...]`` as a flat list with each rung repeated."""
    return [rung for rung, count in counts for _ in range(count)]


# ---------------------------------------------------------------------------
# stability: barcode, perturbed barcode, bottleneck between them
# ---------------------------------------------------------------------------

# Generators, log-spaced 20..160.  Per round the 57 rung runs 5 times and
# the 160 rung 3 times, so that with the two bundled complexes the median
# falls mid-way through the 57 block and the 90th percentile mid-way
# through the 160 block: each percentile then rests on many instances of
# one rung instead of on the edge between two.
STABILITY_SIZES = expand(zip(log_ladder(20, 160, 7), (1, 1, 1, 5, 1, 1, 3)))
PERTURBATION = Fraction(1, 10)

# Bundled complexes and their known barcodes, boundary depth and gamma.
KNOWN_COMPLEXES = {
    "equator_pair_complex.json": {
        "bars": [(0, Fraction(0), Fraction(1, 5)), (0, Fraction(0), None),
                 (1, Fraction(1, 5), None)],
        "depth": "1/5", "gamma": "1/5"},
    "zero_differential_complex.json": {
        "bars": [(0, Fraction(3), None)], "depth": "0", "gamma": None},
}


def stability_round(fb, rng: random.Random, workdir: Path, tag: str,
                    fixtures: Path) -> List[Job]:
    jobs = []
    for name, known in KNOWN_COMPLEXES.items():
        jobs.append(Job(f"{tag}/{name}", "known-complex",
                        {"cx": _copy_fixture(fixtures, name, workdir)}, known))
    for i, n in enumerate(STABILITY_SIZES):
        cx, planted = fb.sampling.random_complex(rng, n)
        cx2, used = fb.sampling.perturb_actions(rng, cx, PERTURBATION)
        stem = workdir / f"{tag}-{i}-n{n}"
        files = {
            "cx": _write_json(stem.with_suffix(".cx.json"), fb.complexes.complex_to_json(cx)),
            "cx2": _write_json(stem.with_suffix(".cx2.json"), fb.complexes.complex_to_json(cx2)),
            "b1": str(stem.with_suffix(".b1.json")),
            "b2": str(stem.with_suffix(".b2.json")),
        }
        jobs.append(Job(f"{tag}/n{n}", "stability", files, {
            "bars": ref.bars_from_report(planted.to_json()), "used": used}))
    # cheapest first, so the warm-up job is small
    jobs.sort(key=lambda j: j.kind != "known-complex")
    return jobs


def run_stability(job: Job, invoke: Invoke) -> List[Outcome]:
    if job.kind == "known-complex":
        return [invoke(["barcode", job.files["cx"]])]
    first = invoke(["barcode", job.files["cx"]])
    second = invoke(["barcode", job.files["cx2"]])
    _write_json(Path(job.files["b1"]), _outputs(first)["barcode"])
    _write_json(Path(job.files["b2"]), _outputs(second)["barcode"])
    return [first, second, invoke(["bottleneck", job.files["b1"], job.files["b2"]])]


def _predicted_code(bars) -> int:
    """``barcode`` exits 1 exactly when gamma is defined and beta > gamma:
    the paper's inequality covers Floer complexes, not arbitrary ones."""
    g = ref.gamma(bars)
    return 1 if g is not None and ref.boundary_depth(bars) > g else 0


def _barcode_report_matches(outcome: Outcome, bars) -> Optional[str]:
    out = _outputs(outcome)
    if ref.val(out["boundary_depth"]) != ref.boundary_depth(bars):
        return "boundary depth disagrees with the barcode"
    g = ref.gamma(bars)
    if (out["gamma"] is None) != (g is None) or (g is not None and ref.val(out["gamma"]) != g):
        return "gamma disagrees with the barcode"
    if outcome.code != _predicted_code(bars):
        return f"exit code {outcome.code}, expected {_predicted_code(bars)}"
    return None


def check_stability(job: Job, outcomes: List[Outcome], _fb=None) -> Optional[str]:
    want = job.expect
    if job.kind == "known-complex":
        (only,) = outcomes
        out = _outputs(only)
        if only.code != 0 or not ref.same_bars(ref.bars_from_report(out["barcode"]), want["bars"]):
            return "bundled complex: wrong barcode or exit code"
        if out["boundary_depth"] != want["depth"] or out["gamma"] != want["gamma"]:
            return "bundled complex: wrong boundary depth or gamma"
        return None
    first, second, dist = outcomes
    planted, used = want["bars"], want["used"]
    bars1 = ref.bars_from_report(_outputs(first)["barcode"])
    if not ref.same_bars(bars1, planted):
        return "barcode differs from the planted barcode"
    problem = _barcode_report_matches(first, planted)
    if problem:
        return problem
    bars2 = ref.bars_from_report(_outputs(second)["barcode"])
    if ref.infinite_counts(bars2) != ref.infinite_counts(planted):
        return "perturbed barcode changed the infinite bars"
    matcher = ref.Matcher(bars1, bars2)
    if not matcher.within(used):
        return "perturbed barcode is farther than the perturbation (stability)"
    if abs(ref.boundary_depth(bars2) - ref.boundary_depth(planted)) > 2 * used:
        return "perturbed boundary depth moved more than twice the perturbation"
    g1, g2 = ref.gamma(planted), ref.gamma(bars2)
    if g1 is not None and abs(g1 - g2) > 2 * used:
        return "perturbed gamma moved more than twice the perturbation"
    problem = _barcode_report_matches(second, bars2)
    if problem:
        return "perturbed: " + problem
    d = _outputs(dist).get("distance")
    if dist.code != 0 or not matcher.is_distance(d):
        return f"bottleneck distance {d} is not exact"
    if ref.val(d) > used:
        return "bottleneck distance exceeds the perturbation"
    return None


# ---------------------------------------------------------------------------
# shift-quotient: bottleneck --mod-shift on planted shifted pairs
# ---------------------------------------------------------------------------

# (finite, infinite) bars per side for 2, 3, 4 and 5 bars; the endpoint
# count E = 2*finite + infinite sets the O(E**4) shift candidate count
# (E = 3, 4, 6, 7).  Repeats place the median mid-way through the 3-bar
# block and the 90th percentile mid-way through the 5-bar block.
SHIFT_RUNGS = expand([((1, 1), 2), ((1, 2), 4), ((2, 2), 1), ((2, 3), 2)])
NOISE = Fraction(1, 20)


def _random_bars(rng: random.Random, finite: int, infinite: int) -> List[ref.RefBar]:
    bars = []
    for k in range(finite + infinite):
        den = rng.randint(1, 12)
        left = Fraction(rng.randint(-2 * den, 4 * den), den)
        right = left + Fraction(rng.randint(3, 36), 12) if k < finite else None
        bars.append((k % 2, left, right))
    return bars


def _noisy(rng: random.Random, x: Fraction, shift: Fraction) -> Fraction:
    return x + shift + Fraction(rng.randint(-5, 5), 100)


def shift_round(fb, rng: random.Random, workdir: Path, tag: str,
                fixtures: Path) -> List[Job]:
    jobs = [Job(f"{tag}/barcode_pair", "known-pair", {
        "a": _copy_fixture(fixtures, "barcode_pair_a.json", workdir),
        "b": _copy_fixture(fixtures, "barcode_pair_b.json", workdir)})]
    for i, (finite, infinite) in enumerate(SHIFT_RUNGS):
        bars1 = _random_bars(rng, finite, infinite)
        shift = Fraction(rng.randint(-24, 24), 12)
        bars2 = [(deg, _noisy(rng, left, shift),
                  None if right is None else _noisy(rng, right, shift))
                 for deg, left, right in bars1]
        stem = workdir / f"{tag}-{i}-f{finite}i{infinite}"
        jobs.append(Job(f"{tag}/f{finite}i{infinite}", "shift", {
            "a": _write_json(stem.with_suffix(".a.json"), _bars_json(bars1)),
            "b": _write_json(stem.with_suffix(".b.json"), _bars_json(bars2))},
            {"bars1": bars1, "bars2": bars2}))
    return jobs


def run_shift(job: Job, invoke: Invoke) -> List[Outcome]:
    return [invoke(["bottleneck", job.files["a"], job.files["b"], "--mod-shift"])]


def check_shift(job: Job, outcomes: List[Outcome], fb) -> Optional[str]:
    (only,) = outcomes
    out = _outputs(only)
    if only.code != 0 or not _all_checks_passed(only):
        return f"exit code {only.code} or a failed report check"
    if job.kind == "known-pair":
        got = (out["distance"], out["shifted_distance"], out["best_shift"])
        return None if got == ("2", "1", "1") else f"barcode pair gave {got}, expected (2, 1, 1)"
    bars1, bars2 = job.expect["bars1"], job.expect["bars2"]
    if not ref.Matcher(bars1, bars2).is_distance(out["distance"]):
        return f"plain distance {out['distance']} is not exact"
    shifted = ref.val(out["shifted_distance"])
    if shifted > NOISE:
        return "shift-quotient distance exceeds the planted endpoint noise"
    if shifted > ref.val(out["distance"]):
        return "shift-quotient distance exceeds the plain distance"
    b1 = fb.persistence.Barcode.from_json(_bars_json(bars1))
    b2 = fb.persistence.Barcode.from_json(_bars_json(bars2))
    at_shift = fb.persistence.shift_barcode(b2, ref.val(out["best_shift"]))
    if fb.persistence.brute_force_bottleneck(b1, at_shift) != shifted:
        return "exhaustive matcher disagrees at the reported shift"
    return None


# ---------------------------------------------------------------------------
# diagrams: combfloer on random sphere diagrams and the bundled diagrams
# ---------------------------------------------------------------------------

# Crossings 6..14; repeats place the median mid-way through the 8 block and
# the 90th percentile mid-way through the 14 block.
DIAGRAM_CROSSINGS = expand([(6, 2), (8, 4), (10, 1), (12, 1), (14, 3)])

KNOWN_DIAGRAMS = {
    "equator_pair_sphere.json": {
        "depth": "1/5", "gamma": "1/5",
        "differential": {"a2": ["a1", "a3"], "a4": ["a1", "a3"]}},
    "equator_pair_annulus.json": {
        "depth": "3/10", "gamma": None,
        "differential": {"a2": ["a3"], "a4": ["a3"]}},
    "two_great_circles.json": {"depth": "0", "differential": {}},
}


def diagram_round(fb, rng: random.Random, workdir: Path, tag: str,
                  fixtures: Path) -> List[Job]:
    jobs = [Job(f"{tag}/{name}", "known-diagram",
                {"dg": _copy_fixture(fixtures, name, workdir)},
                dict(known, surface="annulus" if "annulus" in name else "sphere"))
            for name, known in KNOWN_DIAGRAMS.items()]
    for i, crossings in enumerate(DIAGRAM_CROSSINGS):
        dg = fb.sampling.random_sphere_diagram(rng, crossings)
        path = _write_json(workdir / f"{tag}-{i}-c{crossings}.json", dg.to_json())
        jobs.append(Job(f"{tag}/c{crossings}", "diagram", {"dg": path},
                        {"surface": "sphere"}))
    return jobs


def run_diagram(job: Job, invoke: Invoke) -> List[Outcome]:
    return [invoke(["combfloer", job.files["dg"]])]


def check_diagram(job: Job, outcomes: List[Outcome], _fb=None) -> Optional[str]:
    (only,) = outcomes
    out = _outputs(only)
    if only.code != 0 or not _all_checks_passed(only):
        return f"exit code {only.code} or a failed report check"
    beta = ref.val(out["boundary_depth"])
    if job.expect["surface"] == "sphere":
        if beta > Fraction(1, 4):
            return "boundary depth above the 1/4 ceiling"
        if out["gamma"] is None or beta > ref.val(out["gamma"]):
            return "beta > gamma on a sphere diagram"
    if job.kind == "known-diagram":
        want = job.expect
        diff = {src: sorted(t for _c, t in terms) for src, terms in out["differential"].items()}
        if diff != want["differential"] or out["boundary_depth"] != want["depth"]:
            return "bundled diagram: wrong differential or boundary depth"
        if "gamma" in want and out["gamma"] != want["gamma"]:
            return "bundled diagram: wrong gamma"
    return None


# ---------------------------------------------------------------------------
# radial: forced bar bound of tent profiles, homotopy pruning of fold families
# ---------------------------------------------------------------------------

# Tent rungs (rise slope above 1, fall slope above 1, exterior indices)
# with 3 + 2*(rise > 1) + 2*(fall > 1) + len(exterior) generators: 5 to 9.
# "fold" is the 4-generator symmetric tent of slope a < 1 with a closed-form
# bound, "homotopy" a generated fold family.  Fixed exterior indices keep
# the search size of one rung steady from instance to instance.  Repeats
# place the median mid-way through the 7 block and the 90th percentile in
# the 8 block.
RADIAL_RUNGS = ["fold", "homotopy"] + expand([
    ((False, False, (0, 1)), 1), ((False, False, (0, 1, 2)), 1),
    ((False, False, (0, 1, 2, 3)), 12), ((False, True, (0, 1, 2)), 5),
    ((True, False, (0, 1, 2, 3)), 1)])
# disk areas: rational, pi-valued and mixed
DISK_AREAS = [ref.val("1/2"), ref.val("3/5"), ref.val(["0", "1/7"]),
              ref.val(["0", "1/9"]), ref.val(["1/4", "1/13"]), ref.val(["1/5", "1/11"])]
CAPACITIES = [Fraction(1, 2), Fraction(3, 4)]
CONTINUITY = "2"


def _slope(rng: random.Random, above_one: bool) -> Fraction:
    return (1 if above_one else 0) + Fraction(rng.randint(1, 9), 10)


def _area(rng: random.Random, capacity: Fraction) -> ref.Number:
    """A disk area above half the capacity, so both fold barcodes exist."""
    while True:
        area = rng.choice(DISK_AREAS)
        if area > capacity / 2:
            return area


def _profile_json(points, exterior) -> dict:
    return {"breakpoints": [[_fraction_text(r), _fraction_text(f)] for r, f in points],
            "exterior": list(exterior)}


def _fold_points(capacity: Fraction, a: Fraction):
    h = -capacity * a / 2
    return [(Fraction(0), h), (capacity / 2, Fraction(0)), (capacity, h)]


def radial_round(fb, rng: random.Random, workdir: Path, tag: str,
                 fixtures: Path) -> List[Job]:
    half = Fraction(1, 2)
    family = json.loads((fixtures / "radial_fold_family.json").read_text(encoding="utf-8"))
    jobs = [
        Job(f"{tag}/radial_fold", "radial",
            {"profile": _copy_fixture(fixtures, "radial_fold.json", workdir)},
            {"bound": ref.fold_bound(half, Fraction(9, 10), ref.val(half))}),
        Job(f"{tag}/radial_fold_family", "homotopy",
            {"profile": _copy_fixture(fixtures, "radial_fold_family.json", workdir)},
            {"kept": [2] * len(family["family"]),
             "final": ref.fold_barcodes(half, Fraction(9, 10), ref.val(half))}),
    ]
    for i, rung in enumerate(RADIAL_RUNGS):
        capacity = rng.choice(CAPACITIES)
        area = _area(rng, capacity)
        params = {"n": 1, "N_L": 2, "A_L": _value_text(area)}
        stem = workdir / f"{tag}-{i}"
        if rung == "homotopy":
            a_values = sorted(rng.sample(range(1, 20), 5))
            a_values = [Fraction(k, 20) for k in a_values]
            data = {"family": [_profile_json(_fold_points(capacity, a), [0]) for a in a_values],
                    "params": params, "ranks": {"0": 1, "1": 1}, "C": CONTINUITY}
            jobs.append(Job(f"{tag}/homotopy", "homotopy",
                            {"profile": _write_json(stem.with_suffix(".json"), data)},
                            {"kept": [2] * len(a_values),
                             "final": ref.fold_barcodes(capacity, a_values[-1], area)}))
            continue
        if rung == "fold":
            a = Fraction(rng.randint(1, 19), 20)
            points, exterior = _fold_points(capacity, a), [0]
        else:
            rise_up, fall_up, exterior = rung
            rise, fall = _slope(rng, rise_up), _slope(rng, fall_up)
            mid = capacity * Fraction(rng.randint(2, 3), 5)
            base = Fraction(-rng.randint(0, 20), 20)
            top = base + rise * mid
            points = [(Fraction(0), base), (mid, top), (capacity, top - fall * (capacity - mid))]
        orbits = ref.radial_orbits(points, exterior, area)
        pairs = ref.max_pairs(orbits, area)
        counts = [sum(1 for c, _a in orbits if c == d) for d in (0, 1)]
        data = dict(_profile_json(points, exterior), params=params,
                    ranks={"0": counts[0] - pairs, "1": counts[1] - pairs})
        expect = {"bound": ref.forced_bar_bound(orbits, area, pairs)}
        if rung == "fold" and expect["bound"] != ref.fold_bound(capacity, a, area):
            raise AssertionError("fold closed form disagrees with the matching bound")
        jobs.append(Job(f"{tag}/n{len(orbits)}", "radial",
                        {"profile": _write_json(stem.with_suffix(".json"), data)}, expect))
    return jobs


def run_radial(job: Job, invoke: Invoke) -> List[Outcome]:
    args = ["radial", job.files["profile"]]
    return [invoke(args + ["--homotopy"] if job.kind == "homotopy" else args)]


def check_radial(job: Job, outcomes: List[Outcome], _fb=None) -> Optional[str]:
    (only,) = outcomes
    out = _outputs(only)
    if only.code != 0 or not _all_checks_passed(only):
        return f"exit code {only.code} or a failed report check"
    if job.kind == "homotopy":
        if out["kept_counts"] != job.expect["kept"]:
            return f"kept counts {out['kept_counts']}, expected {job.expect['kept']}"
        final = {tuple(ref.bars_from_report(bc)) for bc in out["final_barcodes"]}
        if final != {tuple(bars) for bars in job.expect["final"]}:
            return "final barcodes differ from the fold closed form"
        return None
    if ref.val(out["forced_bar_bound"]) != job.expect["bound"]:
        return f"forced bound {out['forced_bar_bound']} is not the bottleneck-matching minimum"
    if out["feasible_count"] < 1:
        return "no feasible barcode reported"
    return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """How to generate a round, run a job and check its outcomes; ``rounds``
    distinct rounds are generated per run."""

    name: str
    make_round: Callable
    run: Callable[[Job, Invoke], List[Outcome]]
    check: Callable[[Job, List[Outcome], object], Optional[str]]
    rounds: int


WORKLOADS = {w.name: w for w in (
    Workload("stability", stability_round, run_stability, check_stability, 7),
    Workload("shift-quotient", shift_round, run_shift, check_shift, 16),
    Workload("diagrams", diagram_round, run_diagram, check_diagram, 8),
    Workload("radial", radial_round, run_radial, check_radial, 13),
)}


def generate(workload: Workload, fb, seed: int, workdir: Path, fixtures: Path) -> List[List[Job]]:
    """All rounds of a workload; the same seed writes byte-identical files."""
    rng = random.Random(f"{workload.name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    return [workload.make_round(fb, rng, workdir, f"r{r}", fixtures)
            for r in range(workload.rounds)]
