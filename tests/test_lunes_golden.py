"""Lune tables stay as recorded, field by field.

``lunes_golden.json`` holds the lunes of the three bundled diagrams at
winding caps 0, 2, 5, 50 and 200, of the seed-1 and seed-7
``random_sphere_diagram`` draws of 6, 8, 10, 12 and 14 crossings at caps 0,
2 and 5, and of the seed-1 50-crossing draw at cap 2.  Each lune is
recorded as its source, target, K and L paths, face windings and area; a
lune that moves, appears, vanishes or changes a field's type fails.

Run ``python tests/test_lunes_golden.py`` to rewrite the golden file, only
for a change of output that is meant.
"""

import json
import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from floerbar.diagrams import Lune, TwoCurveDiagram, enumerate_lunes
from floerbar.novikov import format_rational
from floerbar.sampling import random_sphere_diagram

GOLDEN = Path(__file__).resolve().with_name("lunes_golden.json")
FIXTURES = ("equator_pair_sphere.json", "equator_pair_annulus.json", "two_great_circles.json")


def _cases():
    """(diagram label, winding cap) in the order of the golden file."""
    for name in FIXTURES:
        for cap in (0, 2, 5, 50, 200):
            yield {"fixture": name}, cap
    for seed in (1, 7):
        for crossings in (6, 8, 10, 12, 14):
            for cap in (0, 2, 5):
                yield {"seed": seed, "crossings": crossings}, cap
    yield {"seed": 1, "crossings": 50}, 2


def _diagram(label: dict) -> TwoCurveDiagram:
    if "fixture" in label:
        text = resources.files("floerbar").joinpath("fixtures", label["fixture"]).read_text()
        return TwoCurveDiagram.from_json(json.loads(text))
    return random_sphere_diagram(random.Random(label["seed"]), label["crossings"])


def _ints(*values) -> bool:
    return all(type(v) is int for v in values)


def _record(lune: Lune) -> list:
    """The fields of a lune as JSON, after checking their types."""
    assert _ints(lune.source, lune.target, *lune.k_path, *lune.l_path)
    assert type(lune.k_path) is tuple and type(lune.l_path) is tuple
    assert type(lune.w) is tuple and all(
        type(entry) is tuple and type(entry[0]) is str and _ints(entry[1]) for entry in lune.w)
    assert type(lune.area) is Fraction
    return [lune.source, lune.target, list(lune.k_path), list(lune.l_path),
            [list(entry) for entry in lune.w], format_rational(lune.area)]


def _lunes(label: dict, cap: int) -> list:
    return [_record(lune) for lune in enumerate_lunes(_diagram(label), cap)]


def _golden() -> list:
    return json.loads(GOLDEN.read_text())


CASES = list(_cases())


@pytest.mark.parametrize("k", range(len(CASES)))
def test_lunes_match_golden(k):
    case = _golden()[k]
    label, cap = CASES[k]
    assert (case["diagram"], case["max_wind"]) == (label, cap)
    assert _lunes(label, cap) == case["lunes"]


def test_golden_lunes_are_not_empty():
    assert all(case["lunes"] for case in _golden())


if __name__ == "__main__":
    rows = [json.dumps({"diagram": label, "max_wind": cap, "lunes": _lunes(label, cap)},
                       separators=(",", ":")) for label, cap in CASES]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
