from fractions import Fraction as F

import pytest

from floerbar.exactpi import PiRational, _machin_bracket


def test_signs_against_sharp_rationals():
    assert PiRational(F(-22, 7), F(1)).sign() == -1       # pi < 22/7
    assert PiRational(F(-3), F(1)).sign() == 1            # pi > 3
    assert PiRational(F(355, 113), F(-1)).sign() == 1     # 355/113 > pi
    assert PiRational(F(-355, 113), F(1)).sign() == -1
    assert PiRational(F(0), F(0)).sign() == 0


def test_total_order_and_arith():
    third_pi = PiRational.pi(F(1, 3))
    one = PiRational.of(1)
    assert one < third_pi < PiRational.of(2)
    assert third_pi * 3 == PiRational.pi()
    assert (third_pi + third_pi + third_pi - PiRational.pi()) == PiRational.of(0)
    assert abs(PiRational(F(1), F(-1))) == PiRational(F(-1), F(1))
    assert PiRational.pi() / 2 == PiRational.pi(F(1, 2))
    with pytest.raises(TypeError):
        PiRational.pi() * PiRational.pi()


def test_equality_needs_matching_coefficients():
    assert PiRational(F(1, 2), F(0)) == F(1, 2)
    assert PiRational(F(0), F(1)) != F(22, 7)
    assert hash(PiRational.of(F(2, 3))) == hash(F(2, 3))


def test_json_round_trip():
    x = PiRational(F(-9, 40), F(2, 7))
    assert PiRational.from_json(x.to_json()) == x
    assert PiRational.from_json("5/8") == PiRational.of(F(5, 8))


# the first 300 decimals of pi
PI_300 = ("3.14159265358979323846264338327950288419716939937510582097494459230781"
          "640628620899862803482534211706798214808651328230664709384460955058223"
          "172535940812848111745028410270193852110555964462294895493038196442881"
          "097566593344612847564823378678316527120190914564856692346034861045432"
          "6648213393607260249141273")


def test_machin_brackets_nest_and_contain_pi():
    pi_lo, pi_hi = F(PI_300), F(PI_300) + F(1, 10 ** 300)  # pi_lo < pi < pi_hi
    brackets = [_machin_bracket(256 * 2 ** k) for k in range(3)]
    for (lo, hi), (lo2, hi2) in zip(brackets, brackets[1:]):
        assert lo < lo2 < hi2 < hi
    for lo, hi in brackets:
        assert lo < pi_hi and pi_lo < hi
    # at 256 and 512 bits a bracket is wider than 10**-300 and holds both
    for lo, hi in brackets[:2]:
        assert lo < pi_lo and pi_hi < hi


def _pi_minus(t):
    return PiRational(-t, F(1)).sign()  # sign of pi - t


def test_pi_against_the_84_digit_decimal_and_its_neighbours():
    assert len(PI_300) == 302
    ulp = F(1, 10 ** 83)
    rounded_up = F(PI_300[:85]) + ulp     # 3.14...20899863: 84 digits, just above pi
    assert str(rounded_up.numerator).endswith("20899863") and rounded_up > F(PI_300)
    assert _pi_minus(rounded_up) == -1
    assert _pi_minus(rounded_up - ulp) == 1
    assert _pi_minus(rounded_up + ulp) == -1
    assert PiRational.pi() < PiRational.of(rounded_up)
    assert PiRational.of(rounded_up - ulp) < PiRational.pi()


def test_pi_against_truncations_far_past_the_stored_expansion():
    for decimals in list(range(1, 120)) + [150, 200, 250, 299]:
        below = F(PI_300[:decimals + 2])
        above = below + F(1, 10 ** decimals)
        assert _pi_minus(below) == 1, decimals
        assert _pi_minus(above) == -1, decimals
        # the same comparisons with a scaled pi part
        assert PiRational(-3 * below, F(3)).sign() == 1
        assert PiRational(3 * above, F(-3)).sign() == 1
