"""Schema fuzz of ``combfloer``, ``radial``, ``barcode``, ``bottleneck`` and
``seidel --params``: mutated diagram, radial profile, complex, barcode and
ring-presentation documents keep the exit-code contract (0 success, 1
validation failure, 2 malformed input) and never end in a traceback."""

import copy
import functools
import json
import operator
from importlib import resources

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import invoke

FIXTURES = ("equator_pair_sphere.json", "equator_pair_annulus.json", "two_great_circles.json")
BASES = [json.loads(resources.files("floerbar").joinpath("fixtures", name).read_text())
         for name in FIXTURES]
FIELDS = ("surface", "order_k", "order_l", "faces", "areas", "boundary_faces")

junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.floats(allow_nan=False, width=16),
    st.sampled_from(["", "K", "L", "sphere", "annulus", "abc", "1/0", "-1/3", "0"]),
    st.lists(st.integers(-2, 6), max_size=4), st.dictionaries(st.sampled_from(["a", "A1"]),
                                                              st.integers(0, 2), max_size=2))
bad_area = st.one_of(st.sampled_from(["0", "-1/3", "abc", "1/0", "", " 1/5 "]), junk)


def _face(data, diagram):
    return data.draw(st.sampled_from(sorted(diagram["faces"])))


def _mutate(data, diagram) -> None:
    kind = data.draw(st.sampled_from(
        ["drop", "retype", "truncate-step", "retype-step-entry", "area", "permute",
         "drop-face", "drop-walk-step", "boundary", "truncate-order"]))
    if kind == "drop":
        diagram.pop(data.draw(st.sampled_from(FIELDS)), None)
    elif kind == "retype":
        diagram[data.draw(st.sampled_from(FIELDS))] = data.draw(junk)
    elif kind in ("truncate-step", "retype-step-entry", "drop-walk-step"):
        walk = diagram["faces"][_face(data, diagram)]
        i = data.draw(st.integers(0, len(walk) - 1))
        if kind == "truncate-step":
            walk[i] = walk[i][:data.draw(st.integers(0, 3))]
        elif kind == "retype-step-entry":
            walk[i][data.draw(st.integers(0, 3))] = data.draw(junk)
        else:
            del walk[i]
    elif kind == "area":
        diagram["areas"][_face(data, diagram)] = data.draw(bad_area)
    elif kind == "permute":
        key = data.draw(st.sampled_from(["order_k", "order_l"]))
        diagram[key] = data.draw(st.permutations(diagram[key]))
    elif kind == "drop-face":
        name = _face(data, diagram)
        del diagram["faces"][name]
        if data.draw(st.booleans()):
            del diagram["areas"][name]
    elif kind == "boundary":
        diagram["boundary_faces"] = data.draw(st.lists(
            st.one_of(st.sampled_from(sorted(diagram["faces"]) + ["nowhere"]), junk),
            max_size=3))
    else:
        key = data.draw(st.sampled_from(["order_k", "order_l"]))
        diagram[key] = diagram[key][:data.draw(st.integers(0, len(diagram[key]) - 1))]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_diagrams_keep_the_exit_code_contract(tmp_path, data):
    diagram = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    _mutate(data, diagram)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(diagram))
    args = ["combfloer", str(path)] + data.draw(st.sampled_from([[], ["--max-wind", "0"]]))
    result = invoke(args)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (json.dumps(diagram), repr(result.exception))


MALFORMED = [
    ("areas", "A1", "1/0"), ("areas", "A1", 0.25), ("areas", "A1", None), ("areas", "A1", "x"),
    ("faces", "A1", [["K", 1, 2]]), ("faces", "A1", "walk"), ("faces", "A1", [["M", 1, 2, 1]]),
    ("faces", "A1", [["K", 1, 2, 0]]), ("faces", "A1", [["K", "1", 2, 1]]),
    ("top", "order_k", ["1", 2, 3, 4]), ("top", "order_l", 4), ("top", "faces", []),
    ("top", "areas", ["1/4"]), ("top", "surface", ["sphere"]), ("top", "boundary_faces", [[1]]),
]


def test_malformed_fields_exit_2(tmp_path):
    for where, key, value in MALFORMED:
        diagram = copy.deepcopy(BASES[0])
        (diagram if where == "top" else diagram[where])[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(diagram))
        result = invoke(["combfloer", str(path)])
        assert result.exit_code == 2, (where, key, value, result.output)
        assert isinstance(result.exception, SystemExit)


# ---------------------------------------------------------------------------
# radial profiles: shape and type mutations only.  A mutation never writes a
# number where one was, so it cannot steepen a slope or add exterior indices
# and grow the spectrum that feasible_barcodes searches.
# ---------------------------------------------------------------------------

RADIAL_FIXTURES = ("radial_fold.json", "radial_fold_family.json")
RADIAL_BASES = [json.loads(resources.files("floerbar").joinpath("fixtures", name).read_text())
                for name in RADIAL_FIXTURES]
RADIAL_FIELDS = ("breakpoints", "exterior", "params", "ranks", "family", "C", "R")

not_a_number = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, width=16),
    st.sampled_from(["", "abc", "1/0", "1.5", " 1", "x/2", "inf"]),
    st.lists(st.sampled_from(["", "abc", "1/0"]), max_size=3),
    st.dictionaries(st.sampled_from(["a", "0"]), st.none(), max_size=2))


def _truncate(data, items):
    return items[:data.draw(st.integers(0, max(len(items) - 1, 0)))]


def _mutate_profile(data, profile) -> None:
    kind = data.draw(st.sampled_from(
        ["drop", "retype", "truncate-breakpoints", "truncate-point", "retype-coordinate",
         "truncate-coordinate", "truncate-exterior", "retype-exterior-entry"]))
    points = profile.get("breakpoints")
    if kind in ("drop", "retype") or not isinstance(points, list) or not points:
        key = data.draw(st.sampled_from(("breakpoints", "exterior", "R")))
        if kind == "drop":
            profile.pop(key, None)
        else:
            profile[key] = data.draw(not_a_number)
    elif kind == "truncate-breakpoints":
        profile["breakpoints"] = _truncate(data, points)
    elif kind in ("truncate-point", "retype-coordinate", "truncate-coordinate"):
        i = data.draw(st.integers(0, len(points) - 1))
        if kind == "truncate-point":
            points[i] = _truncate(data, points[i])
            return
        if not isinstance(points[i], list) or len(points[i]) < 2:
            return
        j = data.draw(st.integers(0, 1))
        if kind == "retype-coordinate":
            points[i][j] = data.draw(not_a_number)
        elif isinstance(points[i][j], list):
            points[i][j] = _truncate(data, points[i][j])
    elif isinstance(profile.get("exterior"), list) and profile["exterior"]:
        if kind == "truncate-exterior":
            profile["exterior"] = _truncate(data, profile["exterior"])
        else:
            i = data.draw(st.integers(0, len(profile["exterior"]) - 1))
            profile["exterior"][i] = data.draw(not_a_number)


def _mutate_radial(data, doc) -> None:
    kind = data.draw(st.sampled_from(
        ["drop", "retype", "profile", "drop-param", "retype-param", "retype-rank",
         "rekey-rank", "truncate-family"]))
    if kind == "drop":
        doc.pop(data.draw(st.sampled_from(RADIAL_FIELDS)), None)
    elif kind == "retype":
        doc[data.draw(st.sampled_from(RADIAL_FIELDS))] = data.draw(not_a_number)
    elif kind == "profile":
        family = doc.get("family")
        family = [p for p in family if isinstance(p, dict)] if isinstance(family, list) else []
        _mutate_profile(data, data.draw(st.sampled_from(family)) if family else doc)
    elif kind in ("drop-param", "retype-param") and isinstance(doc.get("params"), dict):
        key = data.draw(st.sampled_from(("n", "N_L", "A_L")))
        if kind == "drop-param":
            doc["params"].pop(key, None)
        else:
            doc["params"][key] = data.draw(not_a_number)
    elif kind in ("retype-rank", "rekey-rank") and isinstance(doc.get("ranks"), dict) \
            and doc["ranks"]:
        key = data.draw(st.sampled_from(sorted(doc["ranks"])))
        if kind == "retype-rank":
            doc["ranks"][key] = data.draw(not_a_number)
        else:
            doc["ranks"][data.draw(st.sampled_from(["", "a", "1.0", " 1", "0x1", "+"]))] = \
                doc["ranks"].pop(key)
    elif isinstance(doc.get("family"), list):
        doc["family"] = _truncate(data, doc["family"])


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_radial_profiles_keep_the_exit_code_contract(tmp_path, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(RADIAL_BASES)))
    _mutate_radial(data, doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    args = ["radial", str(path)] + data.draw(st.sampled_from([[], ["--feasible"], ["--homotopy"]]))
    result = invoke(args)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (json.dumps(doc), args, repr(result.exception))


# ---------------------------------------------------------------------------
# complexes and barcodes: shape and type mutations only.  A mutation drops,
# wraps, truncates or retypes one node of the file; the only numbers it
# writes are 0 and 1, so it never adds a generator or a bar and no reduction
# or shift scan grows.
# ---------------------------------------------------------------------------


def _fixtures(*names):
    return [json.loads(resources.files("floerbar").joinpath("fixtures", name).read_text())
            for name in names]


COMPLEX_BASES = _fixtures("equator_pair_complex.json", "zero_differential_complex.json")
BARCODE_FILES = ("barcode_pair_a.json", "barcode_pair_b.json")
BARCODE_BASES = _fixtures(*BARCODE_FILES)

wrong_type = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1]), st.floats(allow_nan=False, width=16),
    st.sampled_from(["", "abc", "1/0", "q", "q^x", "a1", "x", "inf"]),
    st.lists(st.sampled_from([0, "1", "a1"]), max_size=3),
    st.dictionaries(st.sampled_from(["var", "id", "left", "bars"]), st.none(), max_size=2))


def _paths(node, path=()):
    """Every node of a JSON document, as the key path from the root."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


def _mutate_node(data, doc):
    """One shape or type mutation of one node; returns the mutated document."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    kind = data.draw(st.sampled_from(["retype", "drop", "wrap", "truncate"]))
    if not path:
        return data.draw(wrong_type) if kind == "retype" else [doc]
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "wrap":
        parent[key] = [parent[key]]
    elif kind == "truncate" and isinstance(parent[key], list):
        parent[key] = _truncate(data, parent[key])
    else:
        parent[key] = data.draw(wrong_type)
    return doc


def _assert_contract(result, doc, args):
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        (json.dumps(doc), args, repr(result.exception))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_complexes_keep_the_exit_code_contract(tmp_path, data):
    doc = _mutate_node(data, copy.deepcopy(data.draw(st.sampled_from(COMPLEX_BASES))))
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    args = ["barcode", str(path)] + data.draw(st.sampled_from(
        [[], ["--oracle"], ["--window", "0", "1"]]))
    _assert_contract(invoke(args), doc, args)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_barcodes_keep_the_exit_code_contract(tmp_path, data):
    doc = _mutate_node(data, copy.deepcopy(data.draw(st.sampled_from(BARCODE_BASES))))
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    other = str(resources.files("floerbar").joinpath(
        "fixtures", data.draw(st.sampled_from(BARCODE_FILES))))
    pair = [str(path), other] if data.draw(st.booleans()) else [other, str(path)]
    args = ["bottleneck"] + pair + data.draw(st.sampled_from(
        [[], ["--mod-shift"], ["--degree-blind"]]))
    _assert_contract(invoke(args), doc, args)


# rationals that parse into numbers too long to print: one refused before
# its power of ten is built, the others once read
TOO_LONG = ["1e5000", "-1e5000", "1e-5000", "3e99999999999"]


def test_rationals_too_long_to_print_exit_2(tmp_path):
    path = tmp_path / "too_long.json"
    other = str(resources.files("floerbar").joinpath("fixtures", BARCODE_FILES[0]))
    for value in TOO_LONG:
        runs = []
        for key in ("action", "action_step"):
            doc = copy.deepcopy(COMPLEX_BASES[1])
            (doc["generators"][0] if key == "action" else doc["spec"])[key] = value
            runs.append((doc, ["barcode", str(path)]))
        for end in ("left", "right"):
            doc = copy.deepcopy(BARCODE_BASES[0])
            doc["bars"][0][end] = value
            runs += [(doc, ["bottleneck", str(path), other] + flags)
                     for flags in ([], ["--mod-shift"], ["--degree-blind"])]
        for doc, args in runs:
            path.write_text(json.dumps(doc))
            result = invoke(args)
            assert result.exit_code == 2, (value, args, result.output)
            assert isinstance(result.exception, SystemExit), (value, args, repr(result.exception))


# ---------------------------------------------------------------------------
# seidel parameters: shape and type mutations, plus small and huge
# integers.  The power hypotheses and the telescoping check are both in
# closed form, so a relation exponent of 10**30 costs no more than 2.
# ---------------------------------------------------------------------------

SEIDEL_BASES = [
    {"n": 2, "N_L": 4, "A_L": "1", "M": 2, "E": -1, "P": 1, "S": {"t": 2, "X": 1}},
    {"n": 3, "N_L": 4, "A_L": "1/2", "M": 4, "E": -1, "P": 3, "S": {"t": 1, "X": 1}},
    {"n": 1, "N_L": 2, "A_L": "1", "M": 6, "E": 2, "P": 4, "S": {"t": -1, "X": -4}},
]
seidel_int = st.one_of(st.integers(-4, 40), st.integers(-10 ** 30, 10 ** 30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_seidel_params_keep_the_exit_code_contract(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(SEIDEL_BASES)))
    if data.draw(st.booleans()):
        doc = _mutate_node(data, doc)
    else:
        path = data.draw(st.sampled_from([p for p in _paths(doc) if p and p != ("S",)]))
        functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = data.draw(seidel_int)
    args = ["seidel", "--params", json.dumps(doc)]
    _assert_contract(invoke(args), doc, args)
