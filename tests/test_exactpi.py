import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from floerbar.exactpi import (HEAD, PLAIN, SPREAD, PiRational, _level_code, _machin_bracket,
                              code_for, key_sign)
from floerbar.oracles import pi_rational_cmp
from floerbar.persistence import _denominators, _PiInt, _typed
from floerbar.persistence import _pair as _parts_of
from floerbar.persistence import _value as _read_key


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


# ---------------------------------------------------------------------------
# the bracket-filtered order against the oracle
# ---------------------------------------------------------------------------


def _rational(rng):
    return F(rng.randint(-60, 60), rng.randint(1, 12))


def _value(rng):
    """An int, a Fraction or a PiRational, whose pi part is often zero."""
    kind = rng.random()
    if kind < 0.1:
        return rng.randint(-20, 20)
    if kind < 0.2:
        return _rational(rng)
    return PiRational(_rational(rng), _rational(rng) if rng.random() < 0.7 else F(0))


def _near_tie(rng, x):
    """``x + eps * (pi - c)`` for a convergent ``c`` of pi: closer to ``x``
    than 2**-64, and for the smallest ``eps`` closer than 2**-256."""
    c = rng.choice((F(355, 113), F(103993, 33102)))
    eps = F(rng.choice((-1, 1)) * rng.randint(1, 999), 2 ** rng.randint(64, 300))
    x = PiRational.of(x)
    return PiRational(x.rational - eps * c, x.pi_coeff + eps)


def _copy(x):
    """The same value in a distinct object, sometimes as an int or Fraction."""
    x = PiRational.of(x)
    if x.is_rational and x.rational.denominator == 1 and x.rational.numerator % 2:
        return int(x.rational)
    if x.is_rational and x.rational.numerator % 3 == 0:
        return F(x.rational.numerator, x.rational.denominator)
    return PiRational(F(x.rational.numerator, x.rational.denominator),
                      F(x.pi_coeff.numerator, x.pi_coeff.denominator))


def _pair(rng):
    x, kind = _value(rng), rng.random()
    if kind < 0.25:
        y = _near_tie(rng, x)
        # closer than 2**-64: a 64-bit bracket of pi would not tell them apart
        assert pi_rational_cmp(abs(PiRational.of(x) - y), F(1, 2 ** 64)) < 0
    elif kind < 0.4:
        y = _copy(x)
    else:
        y = _value(rng)
    if not isinstance(x, PiRational) and not isinstance(y, PiRational):
        x = PiRational.of(x)
    return (x, y) if rng.random() < 0.5 else (y, x)


def test_order_matches_the_oracle_on_random_pairs():
    rng = random.Random(8)
    kinds = {"tie": 0, "less": 0, "greater": 0}
    for _ in range(20_000):
        x, y = _pair(rng)
        c = pi_rational_cmp(x, y)
        kinds["tie" if c == 0 else ("less" if c < 0 else "greater")] += 1
        assert (x < y, x <= y, x > y, x >= y, x == y, x != y) == \
            (c < 0, c <= 0, c > 0, c >= 0, c == 0, c != 0), (x, y, c)
        if c == 0:
            assert hash(x) == hash(y), (x, y)
    assert min(kinds.values()) > 1_000, kinds


def _order(c):
    return c < 0, c <= 0, c > 0, c >= 0, c == 0, c != 0


def test_keys_order_and_add_like_their_values():
    # a pair as int keys over their least common scale in its canonical
    # code, plain ints when neither has a pi part; sums, differences,
    # multiples and negations are keys of the sums, differences, multiples
    # and negations, and every comparison is exact
    rng = random.Random(11)
    seen = set()
    for _ in range(5_000):
        x, y = _pair(rng)
        scale = math.lcm(*_denominators(PiRational.of(x)), *_denominators(PiRational.of(y)))
        (ax, bx), (ay, by) = _key_pair(x, scale), _key_pair(y, scale)
        code = code_for(max(abs(bx), abs(by)))
        assert (code is PLAIN) == (not bx and not by)
        kx, ky = code.encode(ax, bx), code.encode(ay, by)
        assert code.parts(kx) == (ax, bx) and code.parts(ky) == (ay, by)
        c = pi_rational_cmp(x, y)
        seen.add(c)
        assert (kx < ky, kx <= ky, kx > ky, kx >= ky, kx == ky, kx != ky) == _order(c), (x, y)
        if c == 0:
            assert hash(kx) == hash(ky)
        # the keys as a barcode holds them, a PiRational's a _PiInt, and the
        # derived keys typed as the searches type theirs
        px, tx, ty = PiRational.of(x), isinstance(x, PiRational), isinstance(y, PiRational)
        ex, ey = _PiInt(kx) if tx else kx, _PiInt(ky) if ty else ky
        derived = ((_typed(ex - ey, ex, ey), px - y, tx or ty),
                   (_typed(ex + ey, ex, ey), px + y, tx or ty),
                   (_typed(2 * ex - 3 * ey, ex, ey), 2 * px - 3 * y, tx or ty),
                   (_typed(-ex, ex), -px, tx), (_typed(abs(ex - ey), ex, ey), abs(px - y), tx or ty),
                   (_typed((4 * ex) // 2, ex), 2 * px, tx))
        for k, v, pi in derived:
            read = _read_key(k, scale, code)
            assert read == v, (x, y, k)
            assert isinstance(read, PiRational) == pi, (x, y, k)
            assert (k < kx, k <= kx, k > kx, k >= kx, k == kx, k != kx) == \
                _order(pi_rational_cmp(v, x))
    assert seen == {-1, 0, 1}


def _key_pair(x, scale):
    """``x`` times ``scale`` as int parts; an int as a Fraction."""
    return _parts_of(F(x) if type(x) is int else x, scale)


def _pi_convergents():
    """Continued-fraction convergents ``(p, q)`` of pi, read off a Machin
    bracket for as long as both of its ends give the same partial quotient."""
    low, high = _machin_bracket(256)
    out, (p0, q0), (p1, q1) = [], (0, 1), (1, 0)
    while low.numerator // low.denominator == high.numerator // high.denominator:
        a = low.numerator // low.denominator
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
        out.append((p1, q1))
        low, high = 1 / (high - a), 1 / (low - a)
    return out


def test_keys_decide_ties_closer_than_their_brackets():
    # p - q*pi for a convergent p/q is within 1/q of 0, far inside the
    # bracket error of about q * 2**-64 once q passes 2**32, and each
    # convergent neighbour p +- 1 is within 1 + 1/q: all are keys of one
    # code, whose bound holds their largest pi part
    convergents = _pi_convergents()
    assert convergents[-1][1] > 2 ** 100
    code = code_for(convergents[-1][1])
    values = [(p + dp, -q) for p, q in convergents for dp in (-1, 0, 1)]
    keys = [(code.encode(a, b), PiRational(F(a), F(b))) for a, b in values]
    for k, v in keys:
        assert (k < 0, k <= 0, k > 0, k >= 0, k == 0, k != 0) == _order(pi_rational_cmp(v, 0))
        assert key_sign(*code.parts(k)) == pi_rational_cmp(v, 0)
    for (k, v), (k2, v2) in itertools.product(keys, repeat=2):
        c = pi_rational_cmp(v, v2)
        assert (k < k2, k <= k2, k > k2, k >= k2, k == k2, k != k2) == _order(c)
        assert (abs(k - k2) == 0) == (c == 0)
        assert _read_key(_PiInt(abs(k - k2)), 1, code) == abs(v - v2)


def test_codes_bound_the_error_of_their_pi_approximation():
    # M = B*(q + q2) + 1 for the convergent denominators q <= B < q2, P the
    # int nearest pi*M and prime to M; each level squares the bound
    convergents = _pi_convergents()
    for level in (1, 2, 3):
        code = _level_code(level)
        assert code.bound == 2 ** (24 * 2 ** (level - 1))
        q = max(q for _p, q in convergents if q <= code.bound)
        q2 = min(q for _p, q in convergents if q > code.bound)
        least_M = code.bound * (q + q2) + 1
        assert code.M == least_M or code.M > least_M and math.gcd(least_M, code.P) > 1
        assert abs(F(PI_300) * code.M - code.P) < F(1, 2) and math.gcd(code.M, code.P) == 1
        assert code.parts(code.encode(-3, code.bound // SPREAD)) == (-3, code.bound // SPREAD)
        with pytest.raises(AssertionError):
            code.encode(0, code.bound // SPREAD + 1)
    # a barcode's canonical code leaves HEAD times its largest pi part
    assert code_for(0) is PLAIN and code_for(1) is _level_code(1)
    assert code_for(2 ** 24 // HEAD) is _level_code(1)
    assert code_for(2 ** 24 // HEAD + 1) is _level_code(2)
    assert _level_code(2).least == 2 ** 24 // HEAD + 1


def test_sorted_mixed_lists_match_the_oracle():
    rng = random.Random(9)
    for _ in range(400):
        base = [_value(rng) for _ in range(6)]
        items = base + [_near_tie(rng, x) for x in base[:3]] + [_copy(x) for x in base[3:]]
        rng.shuffle(items)
        fast = sorted(items)
        slow = sorted(items, key=functools.cmp_to_key(pi_rational_cmp))
        assert all(pi_rational_cmp(a, b) == 0 for a, b in zip(fast, slow)), items
        assert all(pi_rational_cmp(a, b) <= 0 for a, b in zip(fast, fast[1:])), fast


def test_coefficients_already_fractions_are_kept():
    a, b = F(1, 3), F(-2, 5)
    x = PiRational(a, b)
    assert x.rational is a and x.pi_coeff is b
    assert PiRational(1, 2) == PiRational(F(1), F(2))
    assert type(PiRational(1, 2).rational) is F and type(PiRational(1, 2).pi_coeff) is F


def test_filled_caches_change_no_observable_value():
    x = PiRational(F(-9, 40), F(2, 7))
    before = (repr(x), x.to_json(), [f.name for f in dataclasses.fields(x)])
    assert x < PiRational.pi() and x > -PiRational.pi()
    hash(x)
    assert {"_parts", "_hash"} <= set(vars(x))
    assert (repr(x), x.to_json(), [f.name for f in dataclasses.fields(x)]) == before
    assert [f.name for f in dataclasses.fields(PiRational)] == ["rational", "pi_coeff"]
    twin = PiRational(F(-9, 40), F(2, 7))
    assert x == twin and hash(x) == hash(twin)
    assert PiRational.from_json(x.to_json()) == x
    for q in (F(2, 3), F(-5), F(0)):
        value = PiRational.of(q)
        assert value < PiRational.pi()
        assert hash(value) == hash(q) and hash(value) == hash(q)
        assert value == q and value.to_json() == [str(q), "0"]
