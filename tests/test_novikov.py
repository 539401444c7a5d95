import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from floerbar.novikov import (LagrangianParams, NovikovScalar, NovikovSpec,
                              SpecMismatchError, format_rational, nov_add,
                              nov_mul, nov_valuation, parse_rational)

Q = NovikovSpec("q", 2, F(1, 2))
T = NovikovSpec("t", 1, F(1, 4))


def s(*exps, spec=Q):
    return NovikovScalar(spec, frozenset(exps))


def test_rational_round_trip():
    assert parse_rational("3/6") == F(1, 2)
    assert parse_rational("-4") == -4
    assert format_rational(F(10, 4)) == "5/2"
    assert format_rational(F(3)) == "3"


def test_add_examples():
    q = s(1)
    assert nov_add(q, q) == s()
    assert nov_add(q, s(2)) == s(1, 2)
    assert nov_add(s(0, 1), s(1, 3)) == s(0, 3)


def test_mul_examples():
    t2, t3 = s(2, spec=T), s(3, spec=T)
    assert nov_mul(t2, t3) == s(5, spec=T)
    one_q = s(0, 1)
    assert nov_mul(one_q, one_q) == s(0, 2)  # characteristic 2
    a = s(-1, 0, 4)
    assert nov_mul(s(0), a) == a


def test_mismatched_specs():
    with pytest.raises(SpecMismatchError):
        nov_add(s(0), s(0, spec=T))
    with pytest.raises(SpecMismatchError):
        nov_mul(s(0), s(0, spec=T))


def test_valuation_examples():
    assert nov_valuation(s(0, spec=T)) == 0
    assert nov_valuation(s(1, spec=T)) == -F(1, 4)
    assert nov_valuation(s(1)) == -F(1, 2)  # q = t**2 under the extension
    with pytest.raises(ZeroDivisionError):
        nov_valuation(s())


def test_parse_and_str():
    assert NovikovScalar.parse("1+q^2", Q) == s(0, 2)
    assert NovikovScalar.parse("q^-1", Q) == s(-1)
    assert NovikovScalar.parse("0", Q) == s()
    assert NovikovScalar.parse("q+q", Q) == s()
    assert str(s(-1, 0, 2)) == "q^-1+1+q^2"
    round_trip = NovikovScalar.parse(str(s(-3, 5)), Q)
    assert round_trip == s(-3, 5)


exponents = st.frozensets(st.integers(min_value=-6, max_value=6), max_size=5)


@given(exponents, exponents, exponents)
def test_ring_axioms(a, b, c):
    x, y, z = (NovikovScalar(Q, e) for e in (a, b, c))
    assert nov_add(x, y) == nov_add(y, x)
    assert nov_mul(x, y) == nov_mul(y, x)
    assert nov_add(nov_add(x, y), z) == nov_add(x, nov_add(y, z))
    assert nov_mul(nov_mul(x, y), z) == nov_mul(x, nov_mul(y, z))
    assert nov_mul(x, nov_add(y, z)) == nov_add(nov_mul(x, y), nov_mul(x, z))
    assert nov_add(x, x).is_zero()


@given(exponents, exponents)
def test_valuation_properties(a, b):
    x, y = NovikovScalar(Q, a), NovikovScalar(Q, b)
    if x.is_zero() or y.is_zero():
        return
    assert nov_valuation(nov_mul(x, y)) == nov_valuation(x) + nov_valuation(y)
    total = nov_add(x, y)
    if not total.is_zero():
        lo = min(nov_valuation(x), nov_valuation(y))
        assert nov_valuation(total) >= lo
        if nov_valuation(x) != nov_valuation(y):
            assert nov_valuation(total) == lo


def test_lagrangian_params():
    lp = LagrangianParams(dim=3, maslov=4, disk_area=F(1))
    assert lp.kappa == F(1, 4)
    with pytest.raises(ValueError):
        LagrangianParams(dim=1, maslov=1, disk_area=F(1))


def test_kappa_is_exact_for_an_int_area():
    kappa = LagrangianParams(1, 2, 1).kappa
    assert kappa == F(1, 2) and type(kappa) is F


def test_parse_rational_rejects_floats_and_bools():
    for bad in (0.5, True, None, ["1"]):
        with pytest.raises(ValueError):
            parse_rational(bad)


# strings off the plain p/q fast path, and plain ones at its edges
EDGE_STRINGS = ["3/4", "-7/14", "007", "-0", "0/5", " 3/4 ", "+2", "1.5", "-.5", "1_0",
                "1e3", "2.5E-2", "٣", "１/２", "3\n", "1/0", "-1/0", "1/-2",
                "1/2/3", "", "-", "abc", "inf", "nan", "0x1", "1/0x", "9" * 4301,
                "1/" + "9" * 4301]


def test_parse_rational_reads_strings_as_fraction_does():
    for text in EDGE_STRINGS:
        try:
            expected = F(text.strip())
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="^zero denominator in "):
                parse_rational(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                parse_rational(text)
            assert str(info.value) == str(exc), text
        else:
            got = parse_rational(text)
            assert type(got) is F and got == expected, text


def test_parse_rational_refuses_values_too_long_to_print():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter prints ints of any length")
    for text in ("-1e5000", "1e-5000", " 2.5e99999999999 ", "0e99999999999"):
        with pytest.raises(ValueError, match="exponent .* is out of range"):
            parse_rational(text)
    for text in (f"1e{limit}", f"1e-{limit}", "10" * (limit // 2) + "e1"):
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            parse_rational(text)
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f"1e-{limit - 1}") == F(1, 10 ** (limit - 1))
    # a mantissa's digits can bring an exponent past the limit back within it
    assert parse_rational("1" + "0" * 20 + f"e-{limit + 19}") == F(1, 10 ** (limit - 1))
