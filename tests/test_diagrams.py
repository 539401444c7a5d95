import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from floerbar.complexes import barcode
from floerbar.diagrams import (DiagramError, InadmissibleDiagramError,
                               TwoCurveDiagram, annulus_example_areas,
                               build_complex, diagram_beta,
                               diagram_gamma, enumerate_lunes,
                               equator_pair_annulus,
                               equator_pair_diagram, relabel_diagram,
                               symmetric_equator_areas, two_circle_diagram,
                               validate_diagram)
from floerbar.oracles import (_shuffled_labels, _solve_winding, brute_force_barcode,
                              brute_force_lunes)
from floerbar.persistence import bar_length_spectrum, boundary_depth
from floerbar.sampling import random_admissible_areas, random_sphere_diagram

from conftest import invoke


def bundled_sphere(eps=F(1, 20)):
    return equator_pair_diagram(symmetric_equator_areas(eps))


def test_validate_bundled_diagram():
    validate_diagram(bundled_sphere())


def test_validate_catches_broken_bisection():
    areas = symmetric_equator_areas(F(1, 20))
    areas["A2"] += F(1, 100)
    d = equator_pair_diagram(areas)
    with pytest.raises(DiagramError, match="bisect"):
        validate_diagram(d)
    # distinct large prime denominators: bisection holds exactly when
    # A1 + A3 = A5 + A6 and A2 = A4
    p, q = 1_000_003, 1_000_033
    exact = {"A1": F(1, 5) + F(1, p), "A3": F(1, 5) + F(1, q),
             "A5": F(1, 5) + F(1, q), "A6": F(1, 5) + F(1, p),
             "A2": F(1, 10), "A4": F(1, 10)}
    validate_diagram(equator_pair_diagram(exact))
    # a*q - b*p = 1, so K's sides {A1, A2, A3} and {A4, A5, A6} miss by 1/(p*q)
    a = pow(q, -1, p)
    b = (a * q - 1) // p
    missed = dict(exact, A2=exact["A2"] + F(a, p), A4=exact["A4"] + F(b, q))
    north = missed["A1"] + missed["A2"] + missed["A3"]
    south = missed["A4"] + missed["A5"] + missed["A6"]
    assert north - south == F(1, p * q)
    with pytest.raises(DiagramError) as caught:
        validate_diagram(equator_pair_diagram(missed))
    assert str(caught.value) in {f"curve K does not bisect the area: side sums to {side}"
                                 for side in (north, south)}


def test_validate_two_circle():
    validate_diagram(two_circle_diagram())


def test_euler_and_incidence_errors():
    d = bundled_sphere()
    broken = TwoCurveDiagram(
        surface="sphere", order_k=d.order_k, order_l=d.order_l,
        faces={k: v for k, v in list(d.faces.items())[:-1]},
        areas={k: v for k, v in list(d.areas.items())[:-1]})
    with pytest.raises(DiagramError):
        validate_diagram(broken)


# Two crossings that only touch: the walks split the four corners of each
# point into two pairs, so the faces form two spheres, {f0, f1} and
# {f2, f3}, glued at both points.  Every other invariant holds.
TOUCH_JSON = """{"surface": "sphere", "order_k": [1, 2], "order_l": [1, 2],
 "faces": {"f0": [["K", 1, 2, 1], ["L", 2, 1, -1]], "f1": [["K", 2, 1, -1], ["L", 1, 2, 1]],
           "f2": [["K", 2, 1, 1], ["L", 1, 2, -1]], "f3": [["K", 1, 2, -1], ["L", 2, 1, 1]]},
 "areas": {"f0": "1", "f1": "1", "f2": "1", "f3": "1"}}"""

# The touch arrangement with f0 and f3 merged into one walk: three faces, so
# V - E + F = 2 - 4 + 3 = 1
THREE_FACES_JSON = """{"surface": "sphere", "order_k": [1, 2], "order_l": [1, 2],
 "faces": {"g": [["K", 1, 2, 1], ["L", 2, 1, -1], ["K", 1, 2, -1], ["L", 2, 1, 1]],
           "f1": [["K", 2, 1, -1], ["L", 1, 2, 1]], "f2": [["K", 2, 1, 1], ["L", 1, 2, -1]]},
 "areas": {"g": "1", "f1": "1", "f2": "1"}}"""


def test_validate_refuses_touching_crossings():
    d = TwoCurveDiagram.from_json(json.loads(TOUCH_JSON))
    with pytest.raises(DiagramError, match="^face adjacency graph is disconnected$"):
        validate_diagram(d)
    with pytest.raises(DiagramError, match="^face adjacency graph is disconnected$"):
        brute_force_lunes(d)


def test_combfloer_reports_touching_crossings(tmp_path):
    path = tmp_path / "touch.json"
    path.write_text(TOUCH_JSON)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    for flags in ([], ["--oracle"]):
        result = invoke(["combfloer", str(path), *flags])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert json.loads(result.stdout) == {
            "command": "combfloer", "inputs": {str(path): digest},
            "outputs": {"error": "face adjacency graph is disconnected"},
            "checks": [{"name": "diagram-valid", "passed": False}]}
        assert result.stderr == "inadmissible diagram: face adjacency graph is disconnected\n"


def test_the_lune_oracle_asserts_every_jump_condition():
    # one arc of K alone is no closed boundary, so no winding function has
    # it as its jumps
    geo = two_circle_diagram()._analysis.geometry
    with pytest.raises(AssertionError, match="inconsistent jump"):
        _solve_winding(geo, {("K", 0): 1})


def test_validate_counts_euler_on_the_sphere():
    d = TwoCurveDiagram.from_json(json.loads(THREE_FACES_JSON))
    with pytest.raises(DiagramError, match="^Euler count fails for the sphere$"):
        validate_diagram(d)


def test_lune_table_of_bundled_diagram():
    lunes = enumerate_lunes(bundled_sphere())
    primitive = {(l.source, l.target): l.area for l in lunes if len(l.w) == 1}
    assert primitive == {(2, 1): F(1, 5), (2, 3): F(1, 5),
                         (4, 1): F(1, 5), (4, 3): F(1, 5)}
    # the bigon areas are the named faces
    named = {(l.source, l.target): dict(l.w) for l in lunes if len(l.w) == 1}
    assert named[(2, 1)] == {"A5": 1}
    assert named[(2, 3)] == {"A3": 1}
    assert named[(4, 1)] == {"A1": 1}
    assert named[(4, 3)] == {"A6": 1}
    # every remaining lune comes in cancelling equal-area pairs
    from collections import Counter
    rest = Counter((l.source, l.target, l.area) for l in lunes if len(l.w) > 1)
    assert all(count % 2 == 0 for count in rest.values())


def test_two_circle_lunes_cancel():
    d = two_circle_diagram()
    lunes = enumerate_lunes(d)
    down = [l for l in lunes if (l.source, l.target) == (2, 1)]
    assert len(down) == 2
    assert down[0].area == down[1].area == F(1, 4)
    cx = build_complex(d)
    assert cx.differential == {}
    assert diagram_beta(d) == 0


def test_bundled_complex_and_invariants():
    d = bundled_sphere()
    cx = build_complex(d)
    assert [(g.gid, g.degree, g.action) for g in cx.generators] == [
        ("a1", 0, F(0)), ("a2", 1, F(1, 5)),
        ("a3", 0, F(0)), ("a4", 1, F(1, 5))]
    table = {gid: sorted(t for _c, t in terms) for gid, terms in cx.differential.items()}
    assert table == {"a2": ["a1", "a3"], "a4": ["a1", "a3"]}
    assert diagram_beta(d) == F(1, 5)
    assert diagram_gamma(d) == F(1, 5)
    assert brute_force_barcode(cx) == barcode(cx)


def test_beta_formula_on_random_admissible_areas():
    rng = random.Random(37)
    skeleton = equator_pair_diagram({n: F(1) for n in ("A1", "A2", "A3", "A4", "A5", "A6")})
    for _ in range(25):
        areas = random_admissible_areas(rng, skeleton)
        d = equator_pair_diagram(areas)
        validate_diagram(d)
        assert diagram_beta(d) == min(areas["A5"], areas["A3"], areas["A1"], areas["A6"])


def test_annulus_example():
    d = equator_pair_annulus(annulus_example_areas(F(1, 10)))
    validate_diagram(d)
    cx = build_complex(d)
    table = {gid: sorted(t for _c, t in terms) for gid, terms in cx.differential.items()}
    assert table == {"a2": ["a3"], "a4": ["a3"]}
    assert diagram_beta(d) == F(3, 10)
    with pytest.raises(InadmissibleDiagramError, match="needs the sphere theory"):
        diagram_gamma(d)


def test_annulus_formula_and_rejection():
    rng = random.Random(41)
    for _ in range(15):
        sq = F(rng.randint(1, 40), 100)
        areas = {"A2": sq, "A4": sq}
        for n in ("A1", "A3", "A5", "A6"):
            areas[n] = F(rng.randint(1, 60), 100)
        d = equator_pair_annulus(areas)
        assert diagram_beta(d) == min(areas["A3"], areas["A6"])
    with pytest.raises(InadmissibleDiagramError):
        diagram_beta(equator_pair_annulus(
            {"A1": F(1, 10), "A2": F(1, 10), "A3": F(1, 5),
             "A4": F(3, 10), "A5": F(1, 10), "A6": F(1, 5)}))


def test_annulus_lunes_avoid_boundary_faces():
    d = equator_pair_annulus(annulus_example_areas(F(1, 10)))
    for lune in enumerate_lunes(d):
        assert lune.winding("A1") == 0
        assert lune.winding("A5") == 0


def test_relabeling_preserves_spectrum():
    d = bundled_sphere()
    reference = bar_length_spectrum(barcode(build_complex(d)))
    for perm in ({1: 3, 2: 4, 3: 1, 4: 2}, {1: 2, 2: 1, 3: 4, 4: 3},
                 {1: 4, 2: 3, 3: 2, 4: 1}):
        d2 = relabel_diagram(d, perm)
        validate_diagram(d2)
        assert bar_length_spectrum(barcode(build_complex(d2))) == reference


def test_higher_winding_is_stable():
    # raising the winding cap adds only cancelling lune pairs: the
    # differential and the boundary depth are unchanged
    d = bundled_sphere()
    reference = {g: sorted(t for _c, t in v)
                 for g, v in build_complex(d, max_wind=2).differential.items()}
    for max_wind in (3, 4):
        cx = build_complex(d, max_wind=max_wind)
        table = {g: sorted(t for _c, t in v) for g, v in cx.differential.items()}
        assert table == reference
        assert boundary_depth(barcode(cx)) == F(1, 5)
    da = equator_pair_annulus(annulus_example_areas(F(1, 10)))
    assert diagram_beta(da, max_wind=3) == F(3, 10)
    rng = random.Random(53)
    for _ in range(6):
        dd = random_sphere_diagram(rng, 4)
        assert diagram_beta(dd, max_wind=2) == diagram_beta(dd, max_wind=3)


def test_diagram_json_round_trip():
    d = bundled_sphere()
    again = TwoCurveDiagram.from_json(d.to_json())
    validate_diagram(again)
    assert diagram_beta(again) == diagram_beta(d)
    da = equator_pair_annulus(annulus_example_areas(F(1, 10)))
    again = TwoCurveDiagram.from_json(da.to_json())
    assert again.boundary_faces == ("A1", "A5")
    assert diagram_beta(again) == F(3, 10)


def test_lunes_equal_the_oracle_on_the_bundled_diagrams():
    rng = random.Random(67)
    for d in (bundled_sphere(), two_circle_diagram(),
              equator_pair_annulus(annulus_example_areas(F(1, 10)))):
        for max_wind in range(5):
            for copy in (d, _shuffled_labels(rng, d)):
                assert enumerate_lunes(copy, max_wind) == brute_force_lunes(copy, max_wind)


def test_lunes_equal_the_oracle_across_lane_widths():
    # the two great circles get 8-bit lanes up to winding cap 57 and 16-bit
    # lanes from 58
    d = two_circle_diagram()
    assert [d._analysis.field.lane_bits(w) for w in (57, 58)] == [8, 16]
    for max_wind in (57, 58):
        assert enumerate_lunes(d, max_wind) == brute_force_lunes(d, max_wind)


def test_one_diagram_enumerated_at_changing_caps_equals_fresh_ones():
    # a winding field keeps the boundary tables of each cap for later
    # passes: one diagram enumerated at caps 5, 2, 200, 5 and 0 in turn
    # gives at each cap the lunes of a fresh copy
    for d in (bundled_sphere(), two_circle_diagram(),
              equator_pair_annulus(annulus_example_areas(F(1, 10)))):
        fresh = {}
        for max_wind in (5, 2, 200, 5, 0):
            if max_wind not in fresh:
                fresh[max_wind] = enumerate_lunes(TwoCurveDiagram.from_json(d.to_json()), max_wind)
            assert enumerate_lunes(d, max_wind) == fresh[max_wind], max_wind
        assert sorted(d._analysis.field._residues) == [0, 2, 5, 200]


def test_the_lune_oracle_asserts_the_lane_range(monkeypatch):
    # 2-bit lanes hold the windings -2..1 only; the equator pair's lunes
    # at cap 2 wind further once their turns are counted
    monkeypatch.setattr(type(bundled_sphere()._analysis.field), "lane_bits", lambda _s, _w: 2)
    with pytest.raises(AssertionError, match="leave lanes of 2 each way"):
        brute_force_lunes(bundled_sphere())


def test_faces_and_areas_are_read_only():
    d = bundled_sphere()
    with pytest.raises(TypeError):
        d.areas["A2"] = F(1, 3)
    with pytest.raises(TypeError):
        d.faces["A2"] = ()
    assert d.areas == symmetric_equator_areas(F(1, 20))


def test_a_replaced_diagram_gets_a_fresh_analysis():
    d = bundled_sphere()
    first = d._analysis
    moved = replace(d, areas=symmetric_equator_areas(F(1, 10)))
    assert moved._analysis is not first and d._analysis is first
    assert moved._analysis.area_keys != first.area_keys
    assert diagram_beta(moved) == F(3, 20) and diagram_beta(d) == F(1, 5)


def test_an_invalid_diagram_raises_the_same_error_on_every_call():
    areas = symmetric_equator_areas(F(1, 20))
    areas["A2"] += F(1, 100)
    d = equator_pair_diagram(areas)
    messages = []
    for call in (validate_diagram, enumerate_lunes, build_complex, validate_diagram):
        with pytest.raises(DiagramError, match="bisect") as caught:
            call(d)
        messages.append(str(caught.value))
    assert len(set(messages)) == 1
    assert "_analysis" not in vars(d)
