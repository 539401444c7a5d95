"""Acceptance battery: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every tolerance below is literal equality (or a
literal inequality).  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
from fractions import Fraction as F

from floerbar.complexes import barcode, complex_from_json
from floerbar.diagrams import (annulus_example_areas, build_complex,
                               diagram_beta, diagram_gamma,
                               equator_pair_annulus, equator_pair_diagram,
                               symmetric_equator_areas, validate_diagram)
from floerbar.exactpi import PiRational
from floerbar.novikov import LagrangianParams
from floerbar.oracles import PROPERTIES, brute_force_barcode, brute_force_bottleneck
from floerbar.persistence import bottleneck_distance, shift_barcode, shifted_bottleneck
from floerbar.radial import fold_profile, forced_bar_bound, generators
from floerbar.sampling import (perturb_actions, random_admissible_areas,
                               random_barcode, random_complex,
                               random_sphere_diagram)
from floerbar.seidel import EXAMPLE_CASE_NAMES, example_case, telescoping_check

SEED = 20260809


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_sphere_equator_pair():
    """50 random admissible area assignments: boundary depth equals
    min(A5, A3, A1, A6) exactly; the symmetric assignment at eps = 1/20 gives
    exactly 1/5; the differential table is exactly a2, a4 -> a1 + a3."""
    rng = random.Random(SEED)
    skeleton = equator_pair_diagram({n: F(1) for n in ("A1", "A2", "A3", "A4", "A5", "A6")})
    for _ in range(50):
        areas = random_admissible_areas(rng, skeleton)
        d = equator_pair_diagram(areas)
        validate_diagram(d)
        assert diagram_beta(d) == min(areas["A5"], areas["A3"], areas["A1"], areas["A6"])
        cx = build_complex(d)
        table = {gid: sorted(t for _c, t in terms)
                 for gid, terms in cx.differential.items()}
        assert table == {"a2": ["a1", "a3"], "a4": ["a1", "a3"]}
        assert all(str(c) == "1" for terms in cx.differential.values() for c, _t in terms)
    eps = F(1, 20)
    d = equator_pair_diagram(symmetric_equator_areas(eps))
    assert diagram_beta(d) == F(1, 5) == F(1, 4) - eps
    _report("1 (sphere equator pair: beta formula, eps = 1/20 instance, differential)")


def test_criterion_2_annulus():
    """Annulus arrangement: boundary depth equals min(A3, A6) exactly on the
    admissible family; the bundled assignment gives 1/2 - 2*eps; differential
    a2, a4 -> a3."""
    rng = random.Random(SEED + 1)
    for _ in range(20):
        sq = F(rng.randint(1, 40), 100)
        areas = {"A2": sq, "A4": sq}
        for n in ("A1", "A3", "A5", "A6"):
            areas[n] = F(rng.randint(1, 60), 100)
        d = equator_pair_annulus(areas)
        assert diagram_beta(d) == min(areas["A3"], areas["A6"])
    eps = F(1, 10)
    d = equator_pair_annulus(annulus_example_areas(eps))
    assert diagram_beta(d) == F(1, 2) - 2 * eps == F(3, 10)
    cx = build_complex(d)
    table = {gid: sorted(t for _c, t in terms) for gid, terms in cx.differential.items()}
    assert table == {"a2": ["a3"], "a4": ["a3"]}
    _report("2 (annulus: beta formula, eps = 1/10 instance, differential)")


def test_criterion_3_sharpness_ceiling():
    """Every randomly generated admissible sphere diagram satisfies
    beta <= 1/4; at least one generated family exceeds 1/4 - 1/100."""
    rng = random.Random(SEED + 2)
    for _ in range(120):
        d = random_sphere_diagram(rng, rng.choice([2, 4, 4, 6]))
        assert diagram_beta(d) <= F(1, 4)
    near = equator_pair_diagram(symmetric_equator_areas(F(1, 200)))
    assert diagram_beta(near) == F(1, 4) - F(1, 200) > F(1, 4) - F(1, 100)
    assert diagram_beta(near) <= F(1, 4)
    _report("3 (sharpness ceiling 1/4 over random diagrams; family above 1/4 - 1/100)")


def test_criterion_4_beta_le_gamma_on_diagrams():
    """beta <= gamma on every admissible sphere diagram where gamma is
    defined: zero violations over at least 200 random diagrams."""
    rng = random.Random(SEED + 3)
    checked = 0
    for _ in range(200):
        d = random_sphere_diagram(rng, rng.choice([2, 4, 4, 6]))
        assert diagram_beta(d) <= diagram_gamma(d)
        checked += 1
    assert checked >= 200
    _report("4 (beta <= gamma on 200 random sphere diagrams)")


def test_criterion_5_seidel_table():
    """The four uniform bounds n/(2n+2), n/(n+1), 1/2, n/(n+1) for n = 1..10,
    with hypotheses re-verified and telescoping passing; all below the disk
    area."""
    expected = {
        "RPn": lambda n: F(n, 2 * n + 2),
        "CPn_diag": lambda n: F(n, n + 1),
        "Sn_quadric": lambda n: F(1, 2),
        "HPn_gr": lambda n: F(n, n + 1),
    }
    for name in EXAMPLE_CASE_NAMES:
        for n in range(1, 11):
            case = example_case(name, n)
            assert case.bound == expected[name](n)
            assert case.telescoping.ok
            assert case.bound < F(case.presentation.params.disk_area)
    _report("5 (Seidel table bounds for n = 1..10, verified and telescoped)")


def test_criterion_6_telescoping_sweep():
    """telescoping_check cancels exactly for all 1 <= k < m <= 6 and
    |p|, |r| <= 8."""
    kappa = F(3, 13)
    for m in range(2, 7):
        for k in range(1, m):
            for p in range(-8, 9):
                for r in range(-8, 9):
                    report = telescoping_check(k, p, m, r, kappa)
                    assert report.ok
                    assert not report.residual
    _report("6 (telescoping sweep: all tuples cancel)")


def test_criterion_7_radial_fold_bound():
    """forced_bar_bound equals min(A*a/2, A - A*a/2) exactly for
    a in {1/10, ..., 9/10} with capacity A = 1/2, monotone towards A/2."""
    lp = LagrangianParams(dim=1, maslov=2, disk_area=F(1, 2))
    A = F(1, 2)
    previous = None
    for num in range(1, 10):
        a = F(num, 10)
        bound = forced_bar_bound(generators(fold_profile(a, A), lp), {0: 1, 1: 1})
        assert bound == PiRational.of(min(A * a / 2, A - A * a / 2))
        if previous is not None:
            assert previous <= bound
        previous = bound
    assert previous == PiRational.of(A * F(9, 10) / 2) < PiRational.of(A / 2)
    _report("7 (radial fold: exact bound grid, monotone to A/2)")


def _property(name: str):
    prop, = (p for p in PROPERTIES if p.name == name)
    return prop


def test_criterion_8_oracle_equivalence():
    """barcode vs brute_force_barcode identical on 200 random valid complexes
    (<= 10 generators) and the bundled fixtures; the orthogonal-basis torsion
    exponents equal the oracle finite bar lengths (the property
    complex-oracle-agreement)."""
    prop = _property("complex-oracle-agreement")
    for case in prop.cases(random.Random(SEED + 4), 200):
        assert prop.holds(*case), case
    import json
    from importlib import resources
    for name in ("equator_pair_complex.json", "zero_differential_complex.json"):
        data = json.loads(resources.files("floerbar").joinpath("fixtures", name).read_text())
        cx = complex_from_json(data)
        assert barcode(cx) == brute_force_barcode(cx)
    _report("8 (200 random complexes + fixtures: reduction == oracle == planted)")


def test_criterion_9_metric_properties():
    """Symmetry and triangle inequality on 200 random triples; stability
    under action perturbations; shifted self-distance zero; brute-force
    matcher agreement on barcodes with at most 6 bars."""
    rng = random.Random(SEED + 5)
    prop = _property("bottleneck-pseudometric")
    # the 200 triples are drawn from ``rng``, which the checks below go on with
    for case in prop.cases(rng, 200):
        assert prop.holds(*case), case
    for _ in range(40):
        cx, _ = random_complex(rng, rng.randint(2, 8))
        pert, used = perturb_actions(rng, cx, F(1, 23))
        assert not (bottleneck_distance(barcode(cx), barcode(pert)) > used)
    for _ in range(40):
        b = random_barcode(rng, max_bars=4)
        c = F(rng.randint(-9, 9), rng.randint(1, 7))
        if len(b) == 0:
            continue
        d0, _shift = shifted_bottleneck(b, shift_barcode(b, c))
        assert d0 == 0
    checked = 0
    while checked < 60:
        a = random_barcode(rng, max_bars=6)
        b = random_barcode(rng, max_bars=6)
        if len(a) > 6 or len(b) > 6:
            continue
        assert bottleneck_distance(a, b) == brute_force_bottleneck(a, b)
        assert bottleneck_distance(a, b, degree_sensitive=False) == \
            brute_force_bottleneck(a, b, degree_sensitive=False)
        checked += 1
    _report("9 (pseudometric, stability, shift-quotient zero, brute-force matcher)")
