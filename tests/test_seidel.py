import random
from fractions import Fraction as F

import pytest

from floerbar.novikov import LagrangianParams
from floerbar.oracles import power_loop_hypotheses, term_telescoping_check
from floerbar.seidel import (EXAMPLE_CASE_NAMES, HypothesisError,
                             QHPresentation, RingElement, averaging_bound,
                             example_case, qh_mul,
                             quasimorphism_defect_bound, telescoping_check,
                             verify_hypotheses)


def quadric_demo(n: int, twist: int = 1) -> QHPresentation:
    return QHPresentation(params=LagrangianParams(n, 2 * n, F(1)),
                          power=2, twist=twist, point_power=1)


def test_qh_mul_examples():
    n = 3
    pres = quadric_demo(n)  # X*X -> q = t**(2n)
    X = RingElement(0, 1)
    assert qh_mul(pres, X, X) == RingElement(2 * n, 0)
    a = RingElement(5, 1)
    assert qh_mul(pres, a, pres.unit()) == a
    hp = QHPresentation(params=LagrangianParams(4, 8, F(1)),
                        power=2, twist=-1, point_power=1)
    assert qh_mul(hp, X, X) == RingElement(-8, 0)


def test_normalization_handles_negative_wraps():
    pres = quadric_demo(2, twist=-1)
    assert pres.normalize(0, -1) == RingElement(4, 1)
    assert pres.normalize(0, 5) == RingElement(-8, 1)


def test_verify_hypotheses_quadric():
    n = 4
    pres = quadric_demo(n, twist=-1)
    data = verify_hypotheses(pres, RingElement(n, 1))
    assert (data.k, data.p, data.m, data.r) == (1, n, 2, 0)


def test_verify_hypotheses_rpn_and_hpn():
    n = 3
    rp = QHPresentation(params=LagrangianParams(n, n + 1, F(1, 2)),
                        power=n + 1, twist=-1, point_power=n)
    data = verify_hypotheses(rp, RingElement(1, 1))
    assert (data.k, data.p, data.m, data.r) == (n, n, n + 1, 0)
    hp = QHPresentation(params=LagrangianParams(4 * n, 4 * n + 4, F(1)),
                        power=n + 1, twist=-1, point_power=n)
    data = verify_hypotheses(hp, RingElement(2, 1))
    assert (data.k, data.p, data.m, data.r) == (n, 2 * n, n + 1, -(2 * n + 2))


def test_verify_hypotheses_failure():
    pres = quadric_demo(2, twist=-1)
    with pytest.raises(HypothesisError):
        verify_hypotheses(pres, RingElement(1, 0))  # unit never hits the point


def _hypotheses_or_error(verify, pres, element):
    try:
        return verify(pres, element)
    except HypothesisError as exc:
        return str(exc)


def test_closed_form_matches_the_power_loop():
    rng = random.Random(20261018)
    solvable = 0
    for _ in range(20_000):
        power = rng.randint(1, 12)
        pres = QHPresentation(
            params=LagrangianParams(rng.randint(1, 4), rng.randint(2, 6), F(1, 2)),
            power=power, twist=rng.randint(-3, 3), point_power=rng.randint(0, power - 1))
        # exponents below zero and at or above the relation exponent too
        element = RingElement(rng.randint(-5, 5), rng.randint(-2 * power - 3, 2 * power + 3))
        expected = _hypotheses_or_error(power_loop_hypotheses, pres, element)
        assert _hypotheses_or_error(verify_hypotheses, pres, element) == expected, \
            (pres, element)
        solvable += not isinstance(expected, str)
    assert 5_000 < solvable < 20_000


def test_huge_relation_exponent_is_solved_without_a_search():
    power = 10 ** 30
    pres = QHPresentation(params=LagrangianParams(1, 2, F(1)),
                          power=power, twist=-1, point_power=1)
    data = verify_hypotheses(pres, RingElement(1, 3))
    assert data.k * 3 % power == 1 and data.k < power
    assert (data.m, data.p) == (power, data.k - 2 * (data.k * 3 // power))
    assert data.r == power - 2 * 3
    with pytest.raises(HypothesisError):
        verify_hypotheses(pres, RingElement(0, 0))  # X**0 never reaches X**1


def test_averaging_bound_examples():
    n = 5
    assert averaging_bound(1, n, 2, 0, F(1, 2) / (2 * n)) == F(1, 4)
    assert averaging_bound(n, n, n + 1, 0, F(1, 2 * n + 2)) == F(n, 2 * n + 2)
    assert averaging_bound(n, 2 * n, n + 1, -(2 * n + 2), F(1, 4 * n + 4)) == F(n, n + 1)
    assert averaging_bound(2, 7, 5, 0, F(1, 9)) == F(7, 9)  # p*kappa, any k
    with pytest.raises(ValueError):
        averaging_bound(3, 1, 3, 0, F(1))


def test_zero_twist_average_is_p_kappa():
    # r = 0: the average equals p * kappa independently of k
    for m in range(2, 7):
        for k in range(1, m):
            assert averaging_bound(k, 4, m, 0, F(2, 11)) == F(8, 11)


def test_telescoping_cancels_and_reports():
    rep = term_telescoping_check(1, 3, 2, 0, F(1, 6))
    assert rep.ok
    assert rep.total == 2 * averaging_bound(1, 3, 2, 0, F(1, 6))
    assert [t[2] for t in rep.terms] == [False, True]
    for check in (telescoping_check, term_telescoping_check):
        with pytest.raises(ValueError):
            check(2, 1, 2, 0, F(1))


def test_closed_form_telescoping_matches_the_terms():
    """Every 1 <= k < m <= 12 and |p|, |r| <= 8: the same residual, total,
    bound and verdict, m terms of which k wrap."""
    kappa = F(2, 9)
    for m in range(2, 13):
        for k in range(1, m):
            for p in range(-8, 9):
                for r in range(-8, 9):
                    fast = telescoping_check(k, p, m, r, kappa)
                    slow = term_telescoping_check(k, p, m, r, kappa)
                    assert (fast.residual, fast.total, fast.bound, fast.ok) == \
                        (slow.residual, slow.total, slow.bound, slow.ok)
                    assert fast.terms == len(slow.terms)
                    assert fast.wrapped == sum(w for _, _, w in slow.terms)


def test_telescoping_costs_the_same_for_any_m():
    rep = telescoping_check(1, 1, 10 ** 30, 0, F(1))
    assert rep.ok and rep.bound == 1


def test_telescoping_sweep():
    kappa = F(1, 7)
    for m in range(2, 7):
        for k in range(1, m):
            for p in range(-8, 9):
                for r in range(-8, 9):
                    assert telescoping_check(k, p, m, r, kappa).ok


def test_example_table():
    expected_bounds = {
        "RPn": lambda n: F(n, 2 * n + 2),
        "CPn_diag": lambda n: F(n, n + 1),
        "Sn_quadric": lambda n: F(1, 2),
        "HPn_gr": lambda n: F(n, n + 1),
    }
    for name in EXAMPLE_CASE_NAMES:
        for n in range(1, 11):
            case = example_case(name, n)
            assert case.bound == expected_bounds[name](n), (name, n)
            assert case.telescoping.ok
            assert case.bound < F(case.presentation.params.disk_area)
            redo = verify_hypotheses(case.presentation, case.seidel.element)
            assert redo == case.seidel


def test_example_table_specific_values():
    assert example_case("RPn", 1).bound == F(1, 4)
    assert example_case("CPn_diag", 2).bound == F(2, 3)
    assert example_case("Sn_quadric", 3).bound == F(1, 2)
    assert example_case("HPn_gr", 1).bound == F(1, 2)
    with pytest.raises(KeyError):
        example_case("unknown", 2)


def test_defect_bounds():
    assert quasimorphism_defect_bound(F(3, 4)) == F(3, 4)
    assert quasimorphism_defect_bound(F(1, 2), homogenized=True) == 1
    assert quasimorphism_defect_bound(F(0)) == 0
    n = 6
    assert quasimorphism_defect_bound(example_case("CPn_diag", n).bound,
                                      homogenized=True) == F(2 * n, n + 1)
    with pytest.raises(ValueError):
        quasimorphism_defect_bound(F(-1))
