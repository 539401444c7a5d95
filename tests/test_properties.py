"""The property table of :mod:`floerbar.oracles`, which ``floerbar check``
runs too: each property on the seed and number of drawn cases of the test
it replaced, then what those cases cover."""

import functools
import random

import pytest

from floerbar.complexes import (FilteredComplex, GammaUndefinedError, complex_from_json,
                                complex_to_json, gamma)
from floerbar.exactpi import PiRational
from floerbar.oracles import PROPERTIES, _TWIN_TENTS, _parsed, rank_prescriptions
from floerbar.persistence import INF, bottleneck_distance, shifted_bottleneck
from floerbar.radial import InfeasibleRanksError, feasible_barcodes
from floerbar.sampling import _MAX_TENT_GENERATORS

# name -> (seed, number of drawn cases); the two fixed tables draw nothing
FLOORS = {
    "complex-oracle-agreement": (23, 40),
    "bottleneck-pseudometric": (11, 60),
    "diagram-beta-bounds": (43, 40),
    "bottleneck-oracle-agreement": (13, 80),
    "shift-oracle-agreement": (47, 240),
    "lune-oracle-agreement": (61, 232),
    "feasible-oracle-agreement": (20260518, 200),
    "radial-fold-bound": (0, 0),
    "seidel-table": (0, 0),
    "unroll-oracle-agreement": (37, 600),
    "shift-scan-agreement": (53, 210),
    "bottleneck-window-agreement": (61, 520),
    "barcode-key-agreement": (67, 510),
    "complex-key-agreement": (71, 400),
}


@functools.lru_cache(maxsize=None)
def cases(name):
    prop, = (p for p in PROPERTIES if p.name == name)
    seed, floor = FLOORS[name]
    return tuple(prop.cases(random.Random(seed), floor))


def test_the_table_is_the_check_order():
    assert [p.name for p in PROPERTIES] == list(FLOORS)


@pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
def test_property(prop):
    for case in cases(prop.name):
        assert prop.holds(*case), case


def test_shift_cases_reach_optima_where_every_shift_is_feasible():
    # no bar longer than twice the optimum: deleting everything is optimal
    whole_line = 0
    for a, b, sensitive in cases("shift-oracle-agreement"):
        d, _c = shifted_bottleneck(a, b, sensitive)
        if d is not INF and all(not x.is_infinite and not (x.length > 2 * d)
                                for x in a.expand() + b.expand()):
            whole_line += 1
    assert whole_line >= 10


def _area_kind(spectrum):
    area = PiRational.of(spectrum.params.disk_area)
    return "rational" if area.is_rational else "pi" if area.rational == 0 else "mixed"


def test_tent_spectra_cover_every_area_kind_and_size():
    # the fixed twin-heavy tents come first; the drawn tents after them
    # cover every kind of disk area up to the oracle's size cap
    fixed = len(_TWIN_TENTS)
    twin = cases("feasible-oracle-agreement")[:fixed]
    assert sorted(len(s.entries) for s, in twin) == [10, 11, 12]
    assert {_area_kind(s) for s, in twin} == {"rational", "pi", "mixed"}
    kinds, sizes, feasible = set(), set(), 0
    for s, in cases("feasible-oracle-agreement")[fixed:]:
        kinds.add((s.params.dim, s.params.maslov, _area_kind(s)))
        sizes.add(len(s.entries))
        for ranks in rank_prescriptions(s):
            try:
                feasible_barcodes(s, ranks)
            except InfeasibleRanksError:
                continue
            feasible += 1
    assert kinds == {(dim, maslov, kind) for dim, maslov in ((1, 2), (2, 4))
                     for kind in ("rational", "pi", "mixed")}
    assert max(sizes) == _MAX_TENT_GENERATORS and feasible > 200


def test_unroll_cases_cover_every_window_kind_and_tie():
    seen = set()
    for cx, action_window, degree_window in cases("unroll-oracle-agreement"):
        copies = cx.unroll(action_window, degree_window)
        seen.add(cx.spec.action_step.denominator if cx.spec else None)
        seen.add((action_window is not None, degree_window is not None))
        if any(g.action < 0 for g in cx.generators):
            seen.add("negative action")
        for (_g1, j1, _d1, a1), (_g2, j2, _d2, a2) in zip(copies, copies[1:]):
            if a1 == a2:
                seen.add("tie at equal j" if j1 == j2 else "tie at different j")
    # the draws cover every case the int keys have to get right
    assert seen >= {None, 1, 2, 3, 7, (True, False), (False, True), (True, True),
                    "negative action", "tie at equal j", "tie at different j"}


def test_scan_cases_cover_pi_shifts_and_infinite_distances():
    seen = set()
    for a, b, sensitive in cases("shift-scan-agreement"):
        d, c = shifted_bottleneck(a, b, sensitive)
        bars = a.expand() + b.expand()
        seen.update({("pi", any(isinstance(x.left, PiRational) for x in bars)),
                     ("degree-sensitive", sensitive), ("inf", d is INF),
                     ("pi shift", isinstance(c, PiRational)),
                     ("infinite bar", any(x.is_infinite for x in bars)),
                     ("multiplicity 2", any(x.multiplicity == 2 for x in a.bars + b.bars))})
    assert all((key, True) in seen for key in ("pi", "degree-sensitive", "inf", "pi shift",
                                               "infinite bar", "multiplicity 2"))


def test_window_cases_cover_large_one_sided_and_infinite_pairs():
    seen = set()
    for a, b in cases("bottleneck-window-agreement"):
        for sensitive in (True, False):
            seen.add(("inf", bottleneck_distance(a, b, sensitive) is INF))
        seen.update({("large", min(len(a.bars), len(b.bars)) >= 100),
                     ("multiplicity", any(x.multiplicity > 1 for x in a.bars + b.bars)),
                     ("one-sided degree", set(a.degrees()) != set(b.degrees()))})
    assert all((key, True) in seen for key in ("inf", "large", "multiplicity", "one-sided degree"))
    assert ("inf", False) in seen


def has_pi_endpoint(x) -> bool:
    return any(isinstance(end, PiRational) for bar in x.bars for end in (bar.left, bar.right))


def test_key_cases_cover_keyed_pi_and_mixed_pairs():
    seen, gammas = set(), 0
    for a, _raw_a, b, _raw_b, _sensitive in cases("barcode-key-agreement"):
        seen.add((has_pi_endpoint(a), has_pi_endpoint(b)))
        gammas += sum(1 for x in (a, b) if gamma_defined(x))
    # Fraction endpoints only, some pi endpoint, and one of each, in both
    # orders
    assert seen == {(True, True), (False, False), (True, False), (False, True)}
    assert gammas >= 50


def gamma_defined(x) -> bool:
    try:
        gamma(x, 1, 0)
    except GammaUndefinedError:
        return False
    return True


def test_complex_key_cases_cover_every_outcome():
    seen = set()
    for doc, planted in cases("complex-key-agreement"):
        cx = _parsed(complex_from_json, doc)
        if isinstance(cx, FilteredComplex):
            seen.add("planted" if planted is not None else
                     "spec-less" if cx.spec is None else f"scale {cx.scale > 60}")
            if [g["action"] for g in doc["generators"]] != \
                    [g["action"] for g in complex_to_json(cx)["generators"]]:
                seen.add("respelled")
        else:
            seen.add((type(cx).__name__, str(cx).split(" ")[0]))
    # accepted complexes of every kind, each validation failure, and the
    # errors of malformed files
    assert seen >= {"planted", "spec-less", "scale True", "scale False", "respelled",
                    ("ComplexValidationError", "degree"), ("ComplexValidationError", "action"),
                    ("ComplexValidationError", "d"), ("ValueError", "generator"),
                    ("ValueError", "differential"), ("KeyError", "'id'"),
                    ("TypeError", "list")}
