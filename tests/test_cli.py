import collections
import copy
import functools
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

import floerbar
from floerbar import complexes, diagrams, oracles, seidel
from floerbar.cli import _json_text, main
from floerbar.novikov import format_rational
from floerbar.sampling import random_complex

from conftest import invoke


def fixture_path(name: str) -> str:
    return str(resources.files("floerbar").joinpath("fixtures", name))


def run(*args):
    result = invoke(args)
    payload = json.loads(result.stdout) if result.stdout.strip() else {}
    return result, payload


def test_barcode_command_on_sphere_complex():
    result, report = run("barcode", fixture_path("equator_pair_complex.json"),
                         "--oracle")
    assert result.exit_code == 0
    assert report["outputs"]["boundary_depth"] == "1/5"
    assert report["outputs"]["gamma"] == "1/5"
    assert {"name": "oracle-match", "passed": True} in report["checks"]


def test_barcode_command_zero_differential():
    result, report = run("barcode", fixture_path("zero_differential_complex.json"))
    assert result.exit_code == 0
    assert report["outputs"]["boundary_depth"] == "0"


def test_barcode_command_with_degree_window():
    result, report = run("barcode", fixture_path("equator_pair_complex.json"),
                         "--window", "0", "1")
    assert result.exit_code == 0
    bars = report["outputs"]["barcode"]["bars"]
    assert all(b["degree"] == 0 for b in bars)
    # the window misses degree 1, so gamma comes from a reduction of (0, 2)
    assert report["outputs"]["gamma"] == "1/5"


_SVG = "{http://www.w3.org/2000/svg}"


def _svg_lines(text: str) -> list:
    root = ElementTree.fromstring(text)
    assert root.tag == f"{_SVG}svg"
    return root.findall(f"{_SVG}line")


def test_barcode_svg_draws_one_line_per_expanded_bar(tmp_path):
    path = str(tmp_path / "bars.svg")
    result, report = run("barcode", fixture_path("equator_pair_complex.json"), "--svg", path)
    assert result.exit_code == 0, result.output
    assert report["outputs"]["svg"] == path
    bars = report["outputs"]["barcode"]["bars"]
    lines = _svg_lines(Path(path).read_text(encoding="utf-8"))
    assert len(lines) == sum(b["mult"] for b in bars) == 3
    # the infinite bars are dashed
    assert sum("stroke-dasharray" in line.attrib for line in lines) == 2


def test_barcode_svg_of_pi_and_empty_barcodes():
    from floerbar.exactpi import PiRational
    from floerbar.persistence import INF, Bar, Barcode
    from floerbar.svgout import barcode_svg

    bc = Barcode([Bar(PiRational(Fraction(0), Fraction(1, 4)),
                      PiRational(Fraction(1), Fraction(1, 4)), 0, 2),
                  Bar(PiRational.pi(Fraction(1, 2)), INF, 1)])
    lines = _svg_lines(barcode_svg(bc, width=400))
    assert len(lines) == 3
    assert [("stroke-dasharray" in line.attrib) for line in lines] == [False, False, True]
    assert all(0 <= int(line.get(x)) <= 400 for line in lines for x in ("x1", "x2"))
    empty = barcode_svg(Barcode([]))
    assert _svg_lines(empty) == []
    assert "empty barcode" in empty


def test_barcode_refuses_digit_group_underscores(tmp_path):
    # "1_000" read as 1000 on Python 3.11 and later, and was refused on 3.10
    cx = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "equator_pair_complex.json").read_text())
    cx["generators"][0]["action"] = "1_000"
    path = tmp_path / "underscore.json"
    path.write_text(json.dumps(cx))
    result, report = run("barcode", str(path))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Invalid literal for Fraction: '1_000'" in report["error"]


def test_barcode_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result, _ = run("barcode", str(bad))
    assert result.exit_code == 2


def test_bottleneck_command():
    a, b = fixture_path("barcode_pair_a.json"), fixture_path("barcode_pair_b.json")
    result, report = run("bottleneck", a, b, "--mod-shift")
    assert result.exit_code == 0
    assert report["outputs"]["distance"] == "2"
    assert report["outputs"]["shifted_distance"] == "1"
    assert report["outputs"]["best_shift"] == "1"
    result, report = run("bottleneck", a, a)
    assert report["outputs"]["distance"] == "0"


def test_combfloer_sphere_and_annulus(tmp_path):
    result, report = run("combfloer", fixture_path("equator_pair_sphere.json"),
                         "--emit-complex", str(tmp_path / "cx.json"),
                         "--svg", str(tmp_path / "d.svg"))
    assert result.exit_code == 0
    assert report["outputs"]["boundary_depth"] == "1/5"
    assert report["outputs"]["gamma"] == "1/5"
    assert report["outputs"]["differential"] == {
        "a2": [["1", "a1"], ["1", "a3"]], "a4": [["1", "a1"], ["1", "a3"]]}
    assert (tmp_path / "cx.json").exists()
    assert (tmp_path / "d.svg").read_text().startswith("<svg")

    result, report = run("combfloer", fixture_path("equator_pair_annulus.json"))
    assert result.exit_code == 0
    assert report["outputs"]["boundary_depth"] == "3/10"
    assert report["outputs"]["differential"] == {
        "a2": [["1", "a3"]], "a4": [["1", "a3"]]}

    result, report = run("combfloer", fixture_path("two_great_circles.json"))
    assert result.exit_code == 0
    assert report["outputs"]["boundary_depth"] == "0"
    assert report["outputs"]["differential"] == {}


def test_combfloer_oracle_is_opt_in():
    sphere = fixture_path("equator_pair_sphere.json")
    result, report = run("combfloer", sphere)
    assert result.exit_code == 0
    assert "oracle-match" not in [c["name"] for c in report["checks"]]
    assert "lune-oracle-match" not in [c["name"] for c in report["checks"]]
    result, report = run("combfloer", sphere, "--oracle")
    assert result.exit_code == 0
    assert {"name": "oracle-match", "passed": True} in report["checks"]
    assert {"name": "lune-oracle-match", "passed": True} in report["checks"]


def _count_calls(monkeypatch, counts, label, owner, name):
    """``owner.name`` replaced by a wrapper that counts its calls as ``label``."""
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[label] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("fixture, passes", [("equator_pair_sphere.json", 3),
                                             ("equator_pair_annulus.json", 2)])
def test_combfloer_analyses_the_diagram_once(monkeypatch, tmp_path, fixture, passes):
    # every lune pass reads one validated geometry, one keying of the face
    # areas and one winding solve, and so does the schematic --svg writes
    counts = collections.Counter()
    _count_calls(monkeypatch, counts, "geometry", diagrams._Geometry, "__init__")
    _count_calls(monkeypatch, counts, "area_keys", diagrams, "_area_keys")
    _count_calls(monkeypatch, counts, "field", diagrams._WindingField, "__init__")
    _count_calls(monkeypatch, counts, "passes", diagrams, "enumerate_lunes")
    for flags in ([], ["--svg", str(tmp_path / "diagram.svg")]):
        counts.clear()
        result, _report = run("combfloer", fixture_path(fixture), *flags)
        assert result.exit_code == 0
        assert counts == {"geometry": 1, "area_keys": 1, "field": 1, "passes": passes}, flags
    assert (tmp_path / "diagram.svg").read_text().startswith("<svg")


def test_barcode_oracle_cap_is_a_failed_check(tmp_path):
    cx, _planted = random_complex(random.Random(3), 120)  # 240 unrolled generators
    path = tmp_path / "big_complex.json"
    path.write_text(json.dumps(complexes.complex_to_json(cx)))
    result, report = run("barcode", str(path), "--oracle")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert {"name": "oracle-size-cap", "passed": False} in report["checks"]
    assert "oracle size cap exceeded" in report["outputs"]["oracle_error"]


def test_combfloer_oracle_cap_is_a_failed_check(monkeypatch):
    # a diagram past the real cap needs about 50 crossings, too slow for a
    # unit test, so the cap is lowered below the 8 unrolled generators here
    capped = functools.partial(oracles.brute_force_barcode, max_unrolled=4)
    monkeypatch.setattr(oracles, "brute_force_barcode", capped)
    result, report = run("combfloer", fixture_path("equator_pair_sphere.json"), "--oracle")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert {"name": "oracle-size-cap", "passed": False} in report["checks"]
    assert report["outputs"]["oracle_error"] == \
        "oracle size cap exceeded: 8 unrolled generators"
    assert report["outputs"]["boundary_depth"] == "1/5"


def test_combfloer_rejects_inadmissible(tmp_path):
    data = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "equator_pair_sphere.json").read_text())
    data["areas"]["A2"] = "1/3"
    bad = tmp_path / "bad_diagram.json"
    bad.write_text(json.dumps(data))
    result, report = run("combfloer", str(bad))
    assert result.exit_code == 1
    assert report["checks"][0]["passed"] is False


def test_combfloer_reports_an_inadmissible_annulus_once(tmp_path):
    # the faces pass validation, but the two lunes from 1 to 2 now differ in
    # area, so no action assignment exists
    data = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "equator_pair_annulus.json").read_text())
    data["areas"]["A2"] = "1/5"
    bad = tmp_path / "bad_annulus.json"
    bad.write_text(json.dumps(data))
    result, report = run("combfloer", str(bad))
    assert result.exit_code == 1
    assert report["checks"] == [{"name": "diagram-valid", "passed": False}]
    assert "same-endpoint lunes must share their area" in report["outputs"]["error"]


def test_combfloer_reports_an_inconsistent_annulus_grading(tmp_path):
    # with the holes in A1 and A2 the lunes leave no integer grading
    data = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "equator_pair_annulus.json").read_text())
    data["boundary_faces"] = ["A1", "A2"]
    bad = tmp_path / "regraded_annulus.json"
    bad.write_text(json.dumps(data))
    result, report = run("combfloer", str(bad))
    assert result.exit_code == 1
    assert report["checks"] == [{"name": "diagram-valid", "passed": False}]
    assert report["outputs"]["error"] == "lune degrees are inconsistent around a cycle"


_MODULES_LOADED = """
import contextlib, io, json, sys
def loaded():
    return sorted(m[len("floerbar."):] for m in sys.modules if m.startswith("floerbar."))
import floerbar.cli
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        floerbar.cli.main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps([after_import, loaded()]))
"""


def _python(*argv, check=False) -> subprocess.CompletedProcess:
    """A fresh interpreter run on ``argv``, with this floerbar on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(floerbar.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          check=check, timeout=120)


def _modules_loaded(*args):
    """The floerbar submodules a fresh interpreter has loaded after importing
    the CLI, and after running it on ``args``."""
    after_import, after_run = json.loads(_python("-c", _MODULES_LOADED, *args, check=True).stdout)
    return set(after_import), set(after_run)


def test_only_oracle_runs_load_the_oracles():
    # and each command loads only the layers it runs
    sphere = fixture_path("equator_pair_sphere.json")
    pair = fixture_path("barcode_pair_a.json"), fixture_path("barcode_pair_b.json")
    after_import, after_run = _modules_loaded("combfloer", sphere)
    assert "oracles" not in after_import | after_run
    assert after_import <= {"cli", "exactpi", "novikov", "seidel"}
    assert "oracles" in _modules_loaded("combfloer", sphere, "--oracle")[1]
    unused = {"complexes", "diagrams", "radial", "sampling", "svgout", "oracles"}
    for args, skipped in ((("seidel", "--case", "RPn"), unused | {"persistence"}),
                          (("bottleneck", *pair), unused),
                          (("bottleneck", *pair, "--mod-shift"), unused),
                          (("radial", fixture_path("radial_fold.json")),
                           unused - {"radial"})):
        after_run = _modules_loaded(*args)[1]
        assert {"cli", "seidel"} <= after_run and not after_run & skipped, (args, after_run)
    # a bare import loads no submodule; each loads on first access
    bare = ("import sys, floerbar; print([m for m in sys.modules if m.startswith('floerbar.')]);"
            " print(floerbar.persistence.__name__, hasattr(floerbar, 'nope'))")
    assert _python("-c", bare, check=True).stdout.split("\n")[:2] == [
        "[]", "floerbar.persistence False"]


def test_radial_command():
    result, report = run("radial", fixture_path("radial_fold.json"), "--feasible")
    assert result.exit_code == 0
    assert report["outputs"]["forced_bar_bound"] == ["9/40", "0"]
    assert report["outputs"]["feasible_count"] == 2
    assert len(report["outputs"]["feasible_barcodes"]) == 2


def test_radial_homotopy():
    result, report = run("radial", fixture_path("radial_fold_family.json"),
                         "--homotopy")
    assert result.exit_code == 0
    assert report["outputs"]["kept_counts"] == [2, 2, 2, 2, 2]


def test_seidel_command_cases():
    result, report = run("seidel", "--case", "RPn", "--n", "1")
    assert result.exit_code == 0
    assert report["outputs"]["bound"] == "1/4"
    result, report = run("seidel", "--case", "CPn_diag", "--n", "2")
    assert report["outputs"]["bound"] == "2/3"
    result, report = run("seidel", "--case", "HPn_gr", "--n", "1")
    assert report["outputs"]["bound"] == "1/2"
    assert report["outputs"]["telescoping"] == "ok"


def test_seidel_command_params():
    params = json.dumps({"n": 2, "N_L": 4, "A_L": "1", "M": 2, "E": -1,
                         "P": 1, "S": {"t": 2, "X": 1}})
    result, report = run("seidel", "--params", params)
    assert result.exit_code == 0
    assert report["outputs"]["hypotheses"] == {"k": 1, "p": 2, "m": 2, "r": 0}
    assert report["outputs"]["bound"] == "1/2"


def test_seidel_unreachable_point_class_with_a_huge_relation_exits_1():
    # x = 0 never reaches X**1; a power search would try 2 * 10**8 + 1 steps
    params = json.dumps({"n": 1, "N_L": 2, "A_L": "1", "M": 100000000, "E": -1,
                         "P": 1, "S": {"t": 0, "X": 0}})
    result, report = run("seidel", "--params", params)
    assert result.exit_code == 1
    assert {"name": "hypotheses-verified", "passed": False} in report["checks"]


def test_seidel_needs_input():
    result, _ = run("seidel")
    assert result.exit_code == 2


def test_check_command_deterministic():
    result1, report1 = run("check", "--trials", "6", "--seed", "5")
    result2, report2 = run("check", "--trials", "6", "--seed", "5")
    assert result1.exit_code == 0
    assert report1 == report2
    assert all(c["passed"] for c in report1["checks"])


def test_check_needs_at_least_one_trial():
    for trials in ("0", "-1"):
        result, report = run("check", "--trials", trials)
        assert result.exit_code == 2 and report == {}


PI_84_DIGITS = ("3.1415926535897932384626433832795028841971693993751058209749445923"
                "0781640628620899863")  # pi rounded up in its 83rd decimal


def test_bottleneck_separates_pi_from_a_long_decimal(tmp_path):
    pi_bar = tmp_path / "pi_bar.json"
    pi_bar.write_text(json.dumps({"bars": [{"left": "0", "right": ["0", "1"]}]}))
    for digits, above_pi in ((PI_84_DIGITS, True), (PI_84_DIGITS[:-1] + "2", False)):
        dec_bar = tmp_path / "decimal_bar.json"
        dec_bar.write_text(json.dumps({"bars": [{"left": "0", "right": digits}]}))
        result, report = run("bottleneck", str(pi_bar), str(dec_bar))
        assert result.exit_code == 0, result.output
        r = report["outputs"]["distance"]
        # distance |r - pi| between the right endpoints, never a traceback
        sign = 1 if above_pi else -1
        assert r == [format_rational(sign * Fraction(digits)), str(-sign)]


def _diagram_json():
    return json.loads(resources.files("floerbar").joinpath(
        "fixtures", "equator_pair_sphere.json").read_text())


def test_combfloer_max_wind_must_be_nonnegative():
    result, report = run("combfloer", fixture_path("equator_pair_sphere.json"),
                         "--max-wind", "-1")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "--max-wind" in result.output


def test_combfloer_reports_undefined_gamma(monkeypatch):
    def undefined(*_args, **_kwargs):
        raise complexes.GammaUndefinedError("degree 0 carries 2 infinite bars")

    monkeypatch.setattr(diagrams, "diagram_gamma", undefined)
    result, report = run("combfloer", fixture_path("equator_pair_sphere.json"))
    assert result.exit_code == 0
    assert report["outputs"]["gamma"] is None
    assert report["outputs"]["gamma_note"] == "degree 0 carries 2 infinite bars"
    assert "beta-le-gamma" not in [c["name"] for c in report["checks"]]


def test_combfloer_rejects_a_malformed_step(tmp_path):
    data = _diagram_json()
    name = sorted(data["faces"])[0]
    data["faces"][name][0] = data["faces"][name][0][:3]  # ["K", 1, 2]
    bad = tmp_path / "short_step.json"
    bad.write_text(json.dumps(data))
    result, report = run("combfloer", str(bad))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "step" in report["error"]


def _complex_json(**changes):
    data = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "equator_pair_complex.json").read_text())
    data.update(changes)
    return data


def test_barcode_invalid_complex_exits_1(tmp_path):
    # d(a2) hits a1 at the same action: the action does not strictly decrease
    gens = [{"id": "a1", "degree": 0, "action": "1/5"}, {"id": "a2", "degree": 1, "action": "1/5"}]
    path = tmp_path / "flat_differential.json"
    path.write_text(json.dumps(_complex_json(generators=gens,
                                             differential={"a2": [["1", "a1"]]})))
    result, report = run("barcode", str(path))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert report["checks"] == [{"name": "complex-valid", "passed": False}]
    assert "action does not strictly decrease" in report["outputs"]["error"]


def test_barcode_unknown_generator_exits_2(tmp_path):
    path = tmp_path / "unknown_generator.json"
    path.write_text(json.dumps(_complex_json(differential={"a2": [["1", "nowhere"]]})))
    result, report = run("barcode", str(path))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "unknown generator" in report["error"]


def test_malformed_json_shapes_exit_2(tmp_path):
    # each of these used to end in an AttributeError or TypeError traceback
    spec = _complex_json()["spec"]
    listed_id = _complex_json()["generators"]
    listed_id[0]["id"] = ["x"]
    shapes = [[1], _complex_json(generators=5), _complex_json(generators=[5]),
              _complex_json(spec=5), _complex_json(differential={"a2": [5]}),
              _complex_json(differential={"a2": [[5, "a1"]]}),
              _complex_json(generators=listed_id),
              _complex_json(spec=dict(spec, var=3), differential={"a2": [["q", "a1"]]}),
              _complex_json(differential=5), _complex_json(differential=[["1", "a1"]])]
    cases = [("barcode", data, []) for data in shapes]
    cases += [("bottleneck", data, [fixture_path("barcode_pair_a.json")])
              for data in ([1], {"bars": 5}, {"bars": [5]}, {"bars": {}})]
    for i, (command, data, extra) in enumerate(cases):
        path = tmp_path / f"shape_{i}.json"
        path.write_text(json.dumps(data))
        result, report = run(command, str(path), *extra)
        assert result.exit_code == 2, (command, data, result.output)
        assert isinstance(result.exception, SystemExit), (command, data)
        assert "error" in report and "checks" not in report


def test_a_json_float_is_malformed_input(tmp_path):
    radial_fold = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "radial_fold.json").read_text())
    float_value, float_in_pair = copy.deepcopy(radial_fold), copy.deepcopy(radial_fold)
    float_value["breakpoints"][1][1] = 0.5
    float_in_pair["breakpoints"][1][1] = ["0", 0.5]
    gens = _complex_json()["generators"]
    gens[0]["action"] = 0.5
    cases = [
        ("bottleneck", {"bars": [{"left": 0.5, "right": "1"}]}, [fixture_path("barcode_pair_a.json")]),
        ("barcode", _complex_json(generators=gens), []),
        ("radial", float_value, []),
        ("radial", float_in_pair, []),
    ]
    for i, (command, data, extra) in enumerate(cases):
        path = tmp_path / f"float_{i}.json"
        path.write_text(json.dumps(data))
        result, report = run(command, str(path), *extra)
        assert result.exit_code == 2, (command, result.output)
        assert isinstance(result.exception, SystemExit)
        assert "0.5" in report["error"]


def test_no_report_carries_a_json_float():
    # exactness: every computed value is an int, a rational string or a
    # [rational, pi coefficient] pair, never a binary float
    runs = [("barcode", fixture_path(name), *flags)
            for name in ("equator_pair_complex.json", "zero_differential_complex.json")
            for flags in ((), ("--oracle",), ("--window", "0", "1"), ("--fund-degree", "2"))]
    runs += [("bottleneck", fixture_path("barcode_pair_a.json"),
              fixture_path("barcode_pair_b.json"), *flags)
             for flags in ((), ("--mod-shift",), ("--degree-blind",))]
    runs += [("combfloer", fixture_path(name), "--oracle")
             for name in ("equator_pair_sphere.json", "equator_pair_annulus.json",
                          "two_great_circles.json")]
    runs += [("radial", fixture_path("radial_fold.json"), "--feasible"),
             ("radial", fixture_path("radial_fold_family.json"), "--homotopy")]
    runs += [("seidel", "--case", name) for name in seidel.EXAMPLE_CASE_NAMES]
    runs.append(("check", "--trials", "3"))
    for args in runs:
        result, _ = run(*args)
        assert result.exit_code == 0, (args, result.output)
        floats = []
        json.loads(result.stdout, parse_float=floats.append)
        assert floats == [], (args, floats)


def _radial_fold(**changes):
    data = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "radial_fold.json").read_text())
    for key, value in changes.items():
        if key in ("n", "N_L"):
            data["params"][key] = value
        else:
            data[key] = value
    return data


def test_a_non_integer_integer_field_is_malformed_input(tmp_path):
    # int(...) used to truncate these: rank 1.9 or N_L 2.7 ran to exit 0
    # with bound 9/40, and a degree 1.9 was read as degree 1
    spec = _complex_json()["spec"]
    gens = _complex_json()["generators"]
    gens[1]["degree"] = 1.9
    cases = [("radial", _radial_fold(ranks={"0": 1, "1": 1.9}), []),
             ("radial", _radial_fold(ranks={"0": True, "1": 1}), []),
             ("radial", _radial_fold(ranks={"0": "1", "1": 1}), []),
             ("radial", _radial_fold(ranks={"0": 1, "1.0": 1}), []),
             ("radial", _radial_fold(ranks={"0": 1, " 1": 1}), []),
             ("radial", _radial_fold(ranks=[1, 1]), []),
             ("radial", _radial_fold(N_L=2.7), []),
             ("radial", _radial_fold(n=1.0), []),
             ("radial", _radial_fold(n=True), []),
             ("radial", _radial_fold(exterior=[0.0]), []),
             ("radial", _radial_fold(exterior=[False]), []),
             ("barcode", _complex_json(generators=gens), []),
             ("barcode", _complex_json(spec=dict(spec, degree_step=2.0)), []),
             ("bottleneck", {"bars": [{"left": "0", "right": "1", "degree": 0.5}]},
              [fixture_path("barcode_pair_a.json")]),
             ("bottleneck", {"bars": [{"left": "0", "right": "1", "mult": 1.5}]},
              [fixture_path("barcode_pair_a.json")])]
    for i, (command, data, extra) in enumerate(cases):
        path = tmp_path / f"int_field_{i}.json"
        path.write_text(json.dumps(data))
        result, report = run(command, str(path), *extra)
        assert result.exit_code == 2, (command, data, result.output)
        assert isinstance(result.exception, SystemExit)
        assert "error" in report


def test_radial_rank_keys_are_decimal_strings(tmp_path):
    path = tmp_path / "signed_keys.json"
    path.write_text(json.dumps(_radial_fold(ranks={"-2": 1, "3": 1})))
    result, report = run("radial", str(path))
    # -2 and 3 are the degree classes 0 and 1 mod the Maslov number 2
    assert result.exit_code == 0, result.output
    assert report["outputs"]["forced_bar_bound"] == ["9/40", "0"]


def test_radial_rank_keys_of_one_degree_class_are_malformed(tmp_path):
    # 0 and 2 are one class mod N_L = 2: the count read for it used to
    # depend on key order, exit 1 in this order and exit 0 in the other
    for i, ranks in enumerate(({"0": 2, "1": 2, "2": 1}, {"2": 1, "1": 2, "0": 2})):
        path = tmp_path / f"colliding_{i}.json"
        path.write_text(json.dumps(_radial_fold(ranks=ranks)))
        for flags in ([], ["--feasible"]):
            result, report = run("radial", str(path), *flags)
            assert result.exit_code == 2, (ranks, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "degree class 0 mod 2" in report["error"]
    family = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "radial_fold_family.json").read_text())
    path = tmp_path / "colliding_family.json"
    path.write_text(json.dumps(dict(family, ranks={"1": 1, "0": 1, "3": 1})))
    result, report = run("radial", str(path), "--homotopy")
    assert result.exit_code == 2, result.output
    assert "degree class 1 mod 2" in report["error"]


def test_radial_on_runs_of_pure_pi_length(tmp_path):
    # runs of length pi/8 each: the kink compares slopes on their pi parts
    path = tmp_path / "pi_runs.json"
    path.write_text(json.dumps(_radial_fold(breakpoints=[
        [["0", "0"], ["-1/4", "0"]], [["0", "1/8"], ["0", "0"]], [["0", "1/4"], ["-1/4", "0"]]])))
    result, report = run("radial", str(path))
    assert result.exit_code == 0, result.output
    # slopes 2/pi then -2/pi: one concave-down kink at level 0
    kinks = [e["source"] for e in report["outputs"]["spectrum"] if e["source"][0] == "kink"]
    assert sorted(kinks) == [["kink", "1", "0", "down", "0"], ["kink", "1", "0", "down", "1"]]


def test_radial_mixed_run_lengths_fail_without_traceback(tmp_path):
    # a rational run of 1/4 followed by a pi run of pi/8
    path = tmp_path / "mixed_runs.json"
    path.write_text(json.dumps(_radial_fold(breakpoints=[
        ["0", "-1/4"], ["1/4", "-1/6"], [["1/4", "1/8"], "-1/4"]])))
    result, report = run("radial", str(path))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert report["outputs"]["error"] == "profile run lengths are not rationally proportional"
    assert "Traceback" not in result.output


def test_radial_breakpoints_out_of_order_are_malformed(tmp_path):
    # a repeated abscissa, and a pi abscissa pi/8 below the 1/2 before it
    for i, rho in enumerate(("1/2", ["0", "1/8"])):
        path = tmp_path / f"out_of_order_{i}.json"
        path.write_text(json.dumps(_radial_fold(breakpoints=[
            ["0", "-9/40"], ["1/4", "0"], ["1/2", "0"], [rho, "-9/40"]])))
        result, report = run("radial", str(path))
        assert result.exit_code == 2, (rho, result.output)
        assert isinstance(result.exception, SystemExit)
        assert "breakpoint abscissae must strictly increase" in report["error"]
        assert "Traceback" not in result.output


def test_radial_negative_rank_count_is_malformed(tmp_path):
    # a count of -1 infinite bars used to search and exit 1 with "no
    # matching leaves the prescribed infinite bars"
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(_radial_fold(ranks={"0": -1, "1": 1})))
    for flags in ([], ["--feasible"]):
        result, report = run("radial", str(path), *flags)
        assert result.exit_code == 2, (flags, result.output)
        assert isinstance(result.exception, SystemExit)
        assert "degree 0 has a negative infinite-bar count -1" in report["error"]
    family = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "radial_fold_family.json").read_text())
    path = tmp_path / "negative_family.json"
    path.write_text(json.dumps(dict(family, ranks={"0": 1, "1": -2})))
    result, report = run("radial", str(path), "--homotopy")
    assert result.exit_code == 2, result.output
    assert "degree 1 has a negative infinite-bar count -2" in report["error"]


def test_radial_continuity_constant_below_one_is_malformed(tmp_path):
    # these constants used to reach homotopy_filter and exit 1 with "radial
    # failure"; a constant of 1 still runs
    family = json.loads(resources.files("floerbar").joinpath(
        "fixtures", "radial_fold_family.json").read_text())
    for i, constant in enumerate(("1/2", "0", "-3", "1")):
        path = tmp_path / f"family_{i}.json"
        path.write_text(json.dumps(dict(family, C=constant)))
        result, report = run("radial", str(path), "--homotopy")
        if constant == "1":
            assert result.exit_code == 0, result.output
            assert report["outputs"]["kept_counts"] == [2] * len(family["family"])
            continue
        assert result.exit_code == 2, (constant, result.output)
        assert isinstance(result.exception, SystemExit)
        assert report == {"command": "radial",
                          "error": "the continuity constant must be at least 1"}


def test_a_disk_area_that_is_not_positive_is_malformed(tmp_path):
    # these areas used to reach the search: the fold fixture then exited 0
    # with a bound, other profiles 1 with "no matching leaves the prescribed
    # infinite bars"
    for i, area in enumerate(("0", "-1/2", ["0", "0"], ["1", "-1"])):
        data = _radial_fold()
        data["params"]["A_L"] = area
        path = tmp_path / f"area_{i}.json"
        path.write_text(json.dumps(data))
        for flags in ([], ["--feasible"]):
            result, report = run("radial", str(path), *flags)
            assert result.exit_code == 2, (area, flags, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "the disk area must be positive" in report["error"]
    for area in ("0", "-1/2"):
        result, report = run("seidel", "--params", json.dumps(dict(SEIDEL_PARAMS, A_L=area)))
        assert result.exit_code == 2, (area, result.output)
        assert "the disk area must be positive" in report["error"]


def test_barcode_window_size_cap_is_a_failed_check():
    # each command would unroll billions of copies; both are counted first
    cx = fixture_path("equator_pair_complex.json")
    for args in (("--fund-degree", "1000000000"), ("--window", "-1000000000", "1000000000")):
        start = time.perf_counter()
        result, report = run("barcode", cx, *args)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 1, args
        assert isinstance(result.exception, SystemExit)
        assert {"name": "window-size-cap", "passed": False} in report["checks"]
        assert "window size cap exceeded" in report["outputs"]["window_error"]
    # the gamma window was the one too wide: the barcode is still reported
    result, report = run("barcode", cx, "--fund-degree", "1000000000")
    assert report["outputs"]["boundary_depth"] == "1/5"
    assert report["outputs"]["gamma"] is None


def test_bottleneck_bar_count_cap_is_a_failed_check(tmp_path):
    # a trillion copies of one bar are counted, never expanded
    huge = tmp_path / "huge_mult.json"
    huge.write_text(json.dumps({"bars": [{"left": "0", "right": "1", "mult": 10**12}]}))
    for flags in ((), ("--mod-shift",)):
        start = time.perf_counter()
        result, report = run("bottleneck", str(huge), fixture_path("barcode_pair_a.json"), *flags)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 1, flags
        assert isinstance(result.exception, SystemExit)
        assert report["checks"] == [{"name": "bar-count-cap", "passed": False}]
        assert "bar count cap exceeded" in report["outputs"]["bar_count_error"]
        assert "distance" not in report["outputs"]


# any string, lone surrogates and control characters included
any_text = st.text(st.characters(blacklist_categories=()))
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.integers(-10 ** 1000, 10 ** 1000), st.floats(), any_text)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(st.one_of(any_text, st.integers(), st.floats(), st.booleans(),
                                  st.none()), inner, max_size=4)),
    max_leaves=25)


def _written(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(json_values)
def test_the_report_writer_writes_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], [{}, []], {"": [[]]}, 10 ** 5000, -10 ** 5000, {"a": object()}, [b"bytes"],
    {(1,): 2}, {True: 1, None: 2, 1.5: 3, float("nan"): 4}, float("-inf"), "\x00\u2028\ud800",
], ids=lambda value: type(value).__name__)
def test_the_report_writer_agrees_with_json_dumps_on_edge_cases(value):
    # an int too long to print (the interpreter's digit limit, where it has
    # one) and a value or key json cannot write raise the same error
    assert _written(_json_text, value) == _written(functools.partial(json.dumps, indent=2), value)


def _primes(start: int, count: int):
    out, n = [], start
    while len(out) < count:
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            out.append(n)
        n += 1
    return out


def test_bottleneck_key_size_cap_is_a_failed_check(tmp_path):
    # bars (1/p, 2/q] over distinct primes near 10**6, and the same bars
    # times pi: 100 primes give a common scale of 1,994 bits, under the
    # cap, and 104 primes 2,073 bits
    primes = _primes(10 ** 6, 104)
    for pi, (count, code) in itertools.product((False, True), ((100, 0), (104, 1))):
        spell = (lambda x: ["0", x]) if pi else (lambda x: x)
        path = tmp_path / f"primes_{count}_{pi}.json"
        path.write_text(json.dumps({"bars": [
            {"left": spell(f"1/{p}"), "right": spell(f"2/{q}")}
            for p, q in zip(primes[0:count:2], primes[1:count:2])]}))
        for flags in ((), ("--mod-shift",)):
            result, report = run("bottleneck", str(path), str(path), *flags)
            assert result.exit_code == code, (pi, count, flags, result.output)
            assert isinstance(result.exception, SystemExit) or code == 0
            names = [c["name"] for c in report["checks"]]
            if code == 0:
                assert "key-size-cap" not in names and report["outputs"]["distance"] == "0"
            else:
                assert report["checks"] == [{"name": "key-size-cap", "passed": False}]
                assert report["outputs"]["key_size_error"] == (
                    "key size cap exceeded: the common scale of the two barcodes has "
                    "2073 bits, at most 2048")
                assert "distance" not in report["outputs"]


def test_combfloer_lune_candidate_cap_is_a_failed_check():
    # the candidates are counted before any is built: 12 ordered point pairs
    # times 2*(w+1)*(w+2) boundary parameters
    sphere = fixture_path("equator_pair_sphere.json")
    for w, count in ((203, 1_003_680), (10**9, 12 * 2 * (10**9 + 1) * (10**9 + 2))):
        start = time.perf_counter()
        result, report = run("combfloer", sphere, "--max-wind", str(w))
        assert time.perf_counter() - start < 1
        assert result.exit_code == 1, w
        assert isinstance(result.exception, SystemExit)
        assert report["checks"] == [{"name": "lune-candidate-cap", "passed": False}]
        assert f"give {count} candidates" in report["outputs"]["lune_error"]
        assert count > diagrams.MAX_LUNE_CANDIDATES


@pytest.mark.parametrize("args", [("barcode", "{d}"), ("bottleneck", "{d}", "{d}"),
                                  ("combfloer", "{d}"), ("radial", "{d}")],
                         ids=lambda args: args[0])
def test_a_directory_argument_exits_2(tmp_path, args):
    result, _ = run(*(a.format(d=tmp_path) for a in args))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "is a directory" in result.output


def test_barcode_reversed_window_exits_2():
    result, _ = run("barcode", fixture_path("equator_pair_complex.json"), "--window", "3", "1")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "LO 3 exceeds HI 1" in result.output
    result, report = run("barcode", fixture_path("equator_pair_complex.json"), "--window", "1", "1")
    assert result.exit_code == 0
    assert report["outputs"]["barcode"] == {"bars": []}


SEIDEL_PARAMS = {"n": 2, "N_L": 4, "A_L": "1", "M": 2, "E": -1, "P": 1, "S": {"t": 2, "X": 1}}


def test_seidel_malformed_params_exit_2():
    for key, value in (("A_L", 0.5), ("A_L", "abc"), ("n", 1.5), ("M", True), ("M", 0),
                       ("S", {"t": 2}), ("S", [2, 1]), ("N_L", 1)):
        params = json.dumps(dict(SEIDEL_PARAMS, **{key: value}))
        result, report = run("seidel", "--params", params)
        assert result.exit_code == 2, (key, value, result.output)
        assert isinstance(result.exception, SystemExit)
        assert "error" in report and "checks" not in report
    for params in ("[1, 2]", "{not json"):
        result, _ = run("seidel", "--params", params)
        assert result.exit_code == 2, params
    result, _ = run("seidel", "--case", "RPn", "--n", "0")
    assert result.exit_code == 2


def test_seidel_failed_hypothesis_exits_1():
    # S = 1 never reaches the point class X**1, a well-formed failed hypothesis
    params = json.dumps(dict(SEIDEL_PARAMS, S={"t": 0, "X": 0}))
    result, report = run("seidel", "--params", params)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert report["checks"] == [{"name": "hypotheses-verified", "passed": False}]
    assert "no power" in report["outputs"]["error"]


_NON_STDLIB_IMPORTS = """
import sys
before = set(sys.modules)
import floerbar.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"floerbar"}))
"""


def test_the_cli_runs_on_the_standard_library_alone():
    assert _python("-c", _NON_STDLIB_IMPORTS, check=True).stdout.strip() == "[]"
    # the CI step "Seidel hypotheses in closed form", and a malformed --params
    unreachable = json.dumps({"n": 1, "N_L": 2, "A_L": "1", "M": 100000000, "E": -1, "P": 1,
                              "S": {"t": 0, "X": 0}})
    for params, code in ((unreachable, 1), ("{not json", 2)):
        done = _python("-m", "floerbar.cli", "seidel", "--params", params)
        assert done.returncode == code, (params, done.stderr)
        assert "Traceback" not in done.stderr


def test_a_closed_stdout_exits_1_without_a_traceback(monkeypatch):
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", buffering=1) as out:
        monkeypatch.setattr(sys, "stdout", out)
        with pytest.raises(SystemExit) as exc:
            main(["seidel", "--case", "RPn"])
    assert exc.value.code == 1


# argv of each usage error; {complex}, {sphere} and {pair} are bundled
# fixtures, {missing} a path that does not exist and {dir} a directory
USAGE_ERRORS = [
    ["nope"],
    [],
    ["barcode"],
    ["bottleneck", "{pair}"],
    ["barcode", "{complex}", "--fund-degree", "x"],
    ["barcode", "{complex}", "--window", "3", "1"],
    ["barcode", "{complex}", "--wind", "0", "1"],
    ["combfloer", "{sphere}", "--max-wind", "-1"],
    ["combfloer", "{sphere}", "--max-wind", "abc"],
    ["check", "--trials", "0"],
    ["seidel", "--case", "RPn", "--n", "0"],
    ["seidel", "--case", "nope"],
] + [args for bad in ("{missing}", "{dir}") for args in (
    ["barcode", bad], ["bottleneck", bad, "{pair}"], ["bottleneck", "{pair}", bad],
    ["combfloer", bad], ["radial", bad])]

OPTIONS = {
    "barcode": ["--window", "--oracle", "--svg", "--fund-degree", "--point-degree"],
    "bottleneck": ["--mod-shift", "--degree-blind"],
    "combfloer": ["--max-wind", "--oracle", "--emit-complex", "--svg"],
    "radial": ["--feasible", "--homotopy"],
    "seidel": ["--case", "--n", "--params"],
    "check": ["--seed", "--trials"],
}


def test_the_usage_error_contract(tmp_path):
    paths = {"complex": fixture_path("equator_pair_complex.json"),
             "sphere": fixture_path("equator_pair_sphere.json"),
             "pair": fixture_path("barcode_pair_a.json"),
             "missing": str(tmp_path / "missing.json"), "dir": str(tmp_path)}
    for row in USAGE_ERRORS:
        args = [a.format(**paths) for a in row]
        result = invoke(args)
        assert result.exit_code == 2, (args, result.output)
        assert isinstance(result.exception, SystemExit), (args, repr(result.exception))
        assert result.stdout == "", args
        assert result.stderr.startswith("usage: floerbar"), (args, result.stderr)
    # a negative window bound is a value, not an option: the window parses
    # and fails its size cap
    result, report = run("barcode", paths["complex"], "--window", "-1000000000", "1000000000")
    assert result.exit_code == 1, result.output
    assert {"name": "window-size-cap", "passed": False} in report["checks"]
    result = invoke(["--help"])
    assert result.exit_code == 0 and result.exception is None
    assert all(name in result.stdout for name in ["--help", *OPTIONS])
    for command, options in OPTIONS.items():
        result = invoke([command, "--help"])
        assert result.exit_code == 0 and result.exception is None, command
        assert all(option in result.stdout for option in ["--help", *options]), command
