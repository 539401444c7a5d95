"""Reports on barcodes with pi endpoints stay as recorded, byte for byte.

``pi_keys_golden.json`` holds 30 seeded pairs of bar files of 1 to 20 bars a
side, pi pairs, pi against Fraction pairs and pi barcodes against near
copies, with the stdout of ``bottleneck`` under each of its four flag sets,
and the stdout of ``radial --homotopy`` on the bundled fold family.
``radial_golden.json`` holds the stdout of ``radial`` and ``radial
--feasible`` on seeded tents over the six disk areas of the benchmark's
radial workload (1/2, 3/5, pi/7, pi/9, 1/4 + pi/13, 1/5 + pi/11) and
capacities 1/2 and 3/4, and of ``radial --homotopy`` on seeded fold families
of pi disk area.  A distance, shift, action or endpoint read back with
another type (``"1/2"`` for ``["1/2", "0"]``) or another value fails.

Run ``python tests/test_pi_keys.py`` to rewrite both golden files, only for
a change of output that is meant.
"""

import itertools
import json
import os
import random
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from floerbar.oracles import _near_copy, _scan_pair

from conftest import invoke

GOLDEN = Path(__file__).resolve().with_name("pi_keys_golden.json")
RADIAL_GOLDEN = GOLDEN.with_name("radial_golden.json")
FLAG_SETS = ((), ("--mod-shift",), ("--degree-blind",), ("--mod-shift", "--degree-blind"))


def _pairs():
    """Seed k draws a pi pair of 1 + k % 20 bars a side; on k = 1 mod 3 its
    first side goes against the second of a Fraction pair, swapped on odd k,
    and on k = 2 mod 3 against a copy of it moved by at most 1/10 or 1/100."""
    for k in range(30):
        rng = random.Random(k)
        n = 1 + k % 20
        a, b = _scan_pair(rng, n, True)
        if k % 3 == 1:
            b = _scan_pair(rng, n, False)[1]
            if k % 2:
                a, b = b, a
        elif k % 3 == 2:
            b = _near_copy(rng, a, Fraction(1, rng.choice((10, 100))))
        yield [{"bars": [bar.to_json() for bar in x.bars]} for x in (a, b)]


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _stdout(files: dict, *args) -> str:
    """stdout of the command ``args`` after writing ``files``, name -> text,
    into the current directory (each test's own empty one), so the report
    names the same relative paths anywhere.  The report, one line of JSON,
    comes back indented by ``json.dumps(..., indent=2)``, the form the golden
    files record: every key, value and key order is compared as before."""
    for name, text in files.items():
        Path(name).write_text(text)
    result = invoke(args)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    return json.dumps(json.loads(result.stdout), indent=2) + "\n"


def _bottleneck_runs(pair) -> list:
    files = {f"{name}.json": json.dumps(data) for name, data in zip("ab", pair)}
    return [_stdout(files, "bottleneck", "a.json", "b.json", *flags) for flags in FLAG_SETS]


def _radial_homotopy() -> str:
    family = resources.files("floerbar").joinpath("fixtures", "radial_fold_family.json")
    return _stdout({"family.json": family.read_text()}, "radial", "family.json", "--homotopy")


# the disk areas and capacities of the benchmark's radial workload
DISK_AREAS = ("1/2", "3/5", ["0", "1/7"], ["0", "1/9"], ["1/4", "1/13"], ["1/5", "1/11"])
CAPACITIES = (Fraction(1, 2), Fraction(3, 4))
# the infinite-bar counts tried on a tent, fewest first; the first that runs is kept
RANKS = sorted(itertools.product(range(6), repeat=2), key=sum)


def _tents():
    """Seed k draws one tent per disk area and capacity: slopes of rise and
    fall in (0, 2) off the integers, its kink at 2/5 or 3/5 of the capacity
    and two or three exterior indices."""
    k = 0
    for area in DISK_AREAS:
        for capacity in CAPACITIES:
            rng = random.Random(k)
            k += 1
            rise = rng.randint(0, 1) + Fraction(rng.randint(1, 9), 10)
            fall = rng.randint(0, 1) + Fraction(rng.randint(1, 9), 10)
            mid = capacity * Fraction(rng.randint(2, 3), 5)
            base = Fraction(-rng.randint(0, 20), 20)
            top = base + rise * mid
            points = ((0, base), (mid, top), (capacity, top - fall * (capacity - mid)))
            yield {"breakpoints": [[str(r), str(f)] for r, f in points],
                   "exterior": sorted(rng.sample(range(4), rng.randint(2, 3))),
                   "params": {"n": 1, "N_L": 2, "A_L": area}}


def _families():
    """Seed k draws a fold family of 3 to 5 samples per pi disk area and
    capacity, its fold parameters a = j/20 increasing."""
    for k, (area, capacity) in enumerate(
            (area, capacity) for area in DISK_AREAS[2:] for capacity in CAPACITIES):
        rng = random.Random(100 + k)
        family = []
        for j in sorted(rng.sample(range(1, 20), rng.randint(3, 5))):
            h = -capacity * Fraction(j, 20) / 2
            family.append({"breakpoints": [["0", str(h)], [str(capacity / 2), "0"],
                                           [str(capacity), str(h)]], "exterior": [0]})
        yield {"family": family, "params": {"n": 1, "N_L": 2, "A_L": area},
               "ranks": {"0": 1, "1": 1}, "C": "2"}


def _radial_runs(data, *flag_sets) -> list:
    files = {"profile.json": json.dumps(data)}
    return [_stdout(files, "radial", "profile.json", *flags) for flags in flag_sets]


def _runs(data) -> bool:
    """Whether ``radial`` exits 0 on ``data``."""
    Path("profile.json").write_text(json.dumps(data))
    return invoke(["radial", "profile.json"]).exit_code == 0


def _radial_cases() -> dict:
    tents = []
    for tent in _tents():
        for r0, r1 in RANKS:
            data = dict(tent, ranks={"0": r0, "1": r1})
            if _runs(data):
                break
        tents.append({"file": data, "stdout": _radial_runs(data, (), ("--feasible",))})
    families = [{"file": data, "stdout": _radial_runs(data, ("--homotopy",))}
                for data in _families()]
    return {"tents": tents, "families": families}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _radial_golden() -> dict:
    return json.loads(RADIAL_GOLDEN.read_text())


@pytest.mark.parametrize("k", range(30))
def test_bottleneck_reports_match_golden(k):
    case = _golden()["bottleneck"][k]
    assert _bottleneck_runs(case["files"]) == case["stdout"]


def test_radial_homotopy_report_matches_golden():
    assert _radial_homotopy() == _golden()["radial_homotopy"]


@pytest.mark.parametrize("k", range(len(DISK_AREAS) * len(CAPACITIES)))
def test_radial_tent_reports_match_golden(k):
    case = _radial_golden()["tents"][k]
    assert _radial_runs(case["file"], (), ("--feasible",)) == case["stdout"]


@pytest.mark.parametrize("k", range(4 * len(CAPACITIES)))
def test_radial_family_reports_match_golden(k):
    case = _radial_golden()["families"][k]
    assert _radial_runs(case["file"], ("--homotopy",)) == case["stdout"]


def test_radial_golden_covers_every_area_and_a_feasible_run():
    golden = _radial_golden()
    assert [case["file"] for case in golden["tents"]] == [
        dict(tent, ranks=case["file"]["ranks"]) for tent, case in zip(_tents(), golden["tents"])]
    assert [case["file"] for case in golden["families"]] == list(_families())
    for case in golden["tents"] + golden["families"]:
        assert all('"error"' not in out and out.endswith("}\n") for out in case["stdout"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        cases = [{"files": pair, "stdout": _bottleneck_runs(pair)} for pair in _pairs()]
        GOLDEN.write_text(json.dumps({"bottleneck": cases, "radial_homotopy": _radial_homotopy()},
                                     indent=1) + "\n")
        RADIAL_GOLDEN.write_text(json.dumps(_radial_cases(), indent=1) + "\n")
