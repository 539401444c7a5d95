"""Schema fuzz of ``combfloer``: mutated diagram files keep the exit-code
contract (0 success, 1 validation failure, 2 malformed input) and never end
in a traceback."""

import copy
import json
from importlib import resources

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from floerbar.cli import main

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
    result = CliRunner().invoke(main, args)
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
        result = CliRunner().invoke(main, ["combfloer", str(path)])
        assert result.exit_code == 2, (where, key, value, result.output)
        assert isinstance(result.exception, SystemExit)
