"""Exact arithmetic in the rank-2 module Q + Q*pi.

Radial-profile actions mix rational multiples of the recapping area with
rational multiples of pi, so they live in the module of values ``a + b*pi``
with ``a, b`` rational.  Addition, subtraction and scaling by rationals are
componentwise; there is no multiplication of two pi-parts.

Comparisons are exact and use no float.  Each value caches, on first
use, two integers ``lo <= (a + b*pi) * 2**64 <= hi`` computed from a
64-bit integer bracket of pi, so most comparisons of two values end on
disjoint brackets.  When the brackets overlap, the exact sign of the
difference ``da + db*pi`` is taken from the coefficient differences: it
follows from their signs alone unless they disagree, and then the rational
``-da/db`` is compared with pi, first against ``333/106 < pi < 355/113`` and
then by integer bounds from Machin's formula at doubling binary precision,
each bracket cached, until the rational falls outside the bracket.  Pi being
irrational, every comparison terminates.  Equality holds only when both
coefficients agree; no nonzero element of the module vanishes.

A :class:`PiKey` is a value with int parts, an endpoint of a barcode times
the barcode's scale: keys add, subtract and compare on brackets carried
through the arithmetic, with the same exact sign when they overlap.

:func:`floerbar.oracles.pi_rational_cmp` keeps the unfiltered route, the
sign of the difference value through the Machin brackets alone, as the
oracle the tests compare this order with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .novikov import format_rational, parse_rational

__all__ = ["PiRational", "PiKey"]

# Binary precision of the first Machin bracket: about 77 decimal digits.
_MACHIN_START_BITS = 256


def _arctan_inv_bounds(x: int, one: int) -> Tuple[int, int]:
    """Integers lo < one * arctan(1/x) < hi for an integer x > 1.

    Nested floor division is exact, so the k-th series term is computed as
    the floor of its true value; each of the n terms is off by less than one
    unit, and the alternating tail after the last nonzero term is below one.
    """
    power = one // x
    total, k = 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= x * x
        k += 1
    return total - k - 1, total + k + 1


# keys are 256 * 2**k, so the cache holds one bracket per doubling ever needed
@functools.lru_cache(maxsize=None)
def _machin_bracket(bits: int) -> Tuple[Fraction, Fraction]:
    """Rationals lo < pi < hi from pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    one = 1 << bits
    lo5, hi5 = _arctan_inv_bounds(5, one)
    lo239, hi239 = _arctan_inv_bounds(239, one)
    return Fraction(16 * lo5 - 4 * hi239, one), Fraction(16 * hi5 - 4 * lo239, one)


def _compare_with_pi(t: Fraction) -> int:
    """Return -1 / +1 according to ``t < pi`` / ``t > pi`` (never 0)."""
    # pi is irrational, so a fine enough bracket excludes every rational
    bits = _MACHIN_START_BITS
    while True:
        low, high = _machin_bracket(bits)
        if t < low:
            return -1
        if t > high:
            return 1
        bits *= 2


# Each value caches integer bounds on itself times 2**_BRACKET_BITS.
_BRACKET_BITS = 64


def _scaled_pi_bracket() -> Tuple[int, int]:
    """Integers lo < pi * 2**64 < hi: the first Machin bracket rounded outward."""
    low, high = _machin_bracket(_MACHIN_START_BITS)
    return ((low.numerator << _BRACKET_BITS) // low.denominator,
            -((-high.numerator << _BRACKET_BITS) // high.denominator))


_PI_LOW, _PI_HIGH = _scaled_pi_bracket()
# continued-fraction convergents on either side of pi
_BELOW_PI = Fraction(333, 106)
_ABOVE_PI = Fraction(355, 113)


def _sign(a: Fraction, b: Fraction) -> int:
    """Exact sign of ``a + b*pi``."""
    if not b:
        return (a > 0) - (a < 0)
    side = 1 if b > 0 else -1
    if not a or (a > 0) == (b > 0):
        return side
    # a + b*pi = b * (pi - t) with t = -a/b > 0
    t = -a / b
    if t < _BELOW_PI:
        return side
    if t > _ABOVE_PI:
        return -side
    return -side * _compare_with_pi(t)


_NumberLike = Union[int, Fraction, "PiRational"]


@dataclass(frozen=True)
class PiRational:
    """Exact value ``rational + pi_coeff * pi``."""

    rational: Fraction = Fraction(0)
    pi_coeff: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not isinstance(self.rational, Fraction):
            object.__setattr__(self, "rational", Fraction(self.rational))
        if not isinstance(self.pi_coeff, Fraction):
            object.__setattr__(self, "pi_coeff", Fraction(self.pi_coeff))

    # a cached_property stores its value in the instance __dict__, which a
    # frozen dataclass leaves writable; neither is a field
    @functools.cached_property
    def _bracket(self) -> Tuple[int, int]:
        """Integers ``lo <= (rational + pi_coeff*pi) * 2**64 <= hi``."""
        a, b = self.rational, self.pi_coeff
        den = a.denominator * b.denominator
        base = (a.numerator * b.denominator) << _BRACKET_BITS
        scale = b.numerator * a.denominator
        low, high = (_PI_LOW, _PI_HIGH) if scale >= 0 else (_PI_HIGH, _PI_LOW)
        return (base + scale * low) // den, -((-base - scale * high) // den)

    @functools.cached_property
    def _hash(self) -> int:
        if self.pi_coeff == 0:
            return hash(self.rational)
        return hash((self.rational, self.pi_coeff))

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, value: _NumberLike) -> "PiRational":
        if isinstance(value, PiRational):
            return value
        return cls(Fraction(value), Fraction(0))

    @classmethod
    def pi(cls, coeff: _NumberLike = 1) -> "PiRational":
        return cls(Fraction(0), Fraction(coeff))

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.pi_coeff == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} has a nonzero pi part")
        return self.rational

    def sign(self) -> int:
        return _sign(self.rational, self.pi_coeff)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: _NumberLike) -> "PiRational":
        o = PiRational.of(other)
        return PiRational(self.rational + o.rational, self.pi_coeff + o.pi_coeff)

    __radd__ = __add__

    def __sub__(self, other: _NumberLike) -> "PiRational":
        o = PiRational.of(other)
        return PiRational(self.rational - o.rational, self.pi_coeff - o.pi_coeff)

    def __rsub__(self, other: _NumberLike) -> "PiRational":
        return PiRational.of(other) - self

    def __neg__(self) -> "PiRational":
        return PiRational(-self.rational, -self.pi_coeff)

    def __mul__(self, other) -> "PiRational":
        if isinstance(other, PiRational):
            if other.is_rational:
                other = other.rational
            elif self.is_rational:
                self, other = other, self.rational
            else:
                raise TypeError("cannot multiply two values with pi parts")
        scale = Fraction(other)
        return PiRational(self.rational * scale, self.pi_coeff * scale)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PiRational":
        if isinstance(other, PiRational):
            other = other.as_fraction()
        return self * (1 / Fraction(other))

    # -- order -------------------------------------------------------------

    # PiRational is tested first: Fraction's isinstance check goes through
    # its abstract base class
    @staticmethod
    def _comparable(other) -> bool:
        return isinstance(other, (PiRational, int, Fraction))

    def _cmp(self, other: _NumberLike) -> int:
        if not isinstance(other, PiRational):
            return _sign(self.rational - other, self.pi_coeff)
        low, high = self._bracket
        other_low, other_high = other._bracket
        if high < other_low:
            return -1
        if low > other_high:
            return 1
        return _sign(self.rational - other.rational, self.pi_coeff - other.pi_coeff)

    def __lt__(self, other) -> bool:
        if not self._comparable(other):
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        if not self._comparable(other):
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        if not self._comparable(other):
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        if not self._comparable(other):
            return NotImplemented
        return self._cmp(other) >= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiRational):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = PiRational.of(other)
        return self.rational == other.rational and self.pi_coeff == other.pi_coeff

    def __hash__(self) -> int:
        return self._hash

    def __abs__(self) -> "PiRational":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return self.sign() != 0

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        return [format_rational(self.rational), format_rational(self.pi_coeff)]

    @classmethod
    def from_json(cls, data) -> "PiRational":
        """Read a rational (string or int) or a ``[rational, pi_coeff]`` pair."""
        if isinstance(data, list) and len(data) == 2:
            return cls(parse_rational(data[0]), parse_rational(data[1]))
        return cls.of(parse_rational(data))

    def __str__(self) -> str:
        if self.pi_coeff == 0:
            return format_rational(self.rational)
        pi_part = "pi" if self.pi_coeff == 1 else f"{format_rational(self.pi_coeff)}*pi"
        if self.rational == 0:
            return pi_part
        return f"{format_rational(self.rational)} + {pi_part}"

    __repr__ = __str__


def _key_sign(da: int, db: int) -> int:
    """Exact sign of ``da + db*pi`` for ints."""
    return (da > 0) - (da < 0) if not db else _sign(Fraction(da), db)


def _new_key(a: int, b: int, lo: int, hi: int, _make=object.__new__) -> "PiKey":
    key = _make(PiKey)
    key.a, key.b, key.lo, key.hi = a, b, lo, hi
    return key


class PiKey:
    """The value ``a + b*pi`` for ints ``a`` and ``b``: a ``PiRational``
    endpoint of a barcode times the barcode's scale.

    Keys add, subtract, negate, scale by ints and divide by ints that divide
    both parts, and compare exactly with each other and with ints, an int
    ``n`` being ``n + 0*pi``.  Each carries ints ``lo <= (a + b*pi) * 2**64
    <= hi``, from the 64-bit bracket of pi when built and carried through
    the arithmetic, so a comparison takes the exact sign of the difference
    only when the brackets overlap.  Equal values are equal with equal
    hashes, an int among them: an int and a key of zero pi part are one
    number read as a Fraction and as a ``PiRational``, and each keeps its
    type through the arithmetic as those do.
    """

    __slots__ = ("a", "b", "lo", "hi")

    def __init__(self, a: int, b: int) -> None:
        low, high = (_PI_LOW, _PI_HIGH) if b >= 0 else (_PI_HIGH, _PI_LOW)
        self.a, self.b = a, b
        self.lo, self.hi = (a << _BRACKET_BITS) + b * low, (a << _BRACKET_BITS) + b * high

    def value(self, scale: int) -> PiRational:
        """The key divided by ``scale``."""
        return PiRational(Fraction(self.a, scale), Fraction(self.b, scale))

    def __add__(self, o) -> "PiKey":
        if type(o) is int:
            x = o << _BRACKET_BITS
            return _new_key(self.a + o, self.b, self.lo + x, self.hi + x)
        return _new_key(self.a + o.a, self.b + o.b, self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, o) -> "PiKey":
        if type(o) is int:
            x = o << _BRACKET_BITS
            return _new_key(self.a - o, self.b, self.lo - x, self.hi - x)
        return _new_key(self.a - o.a, self.b - o.b, self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, o: int) -> "PiKey":
        x = o << _BRACKET_BITS
        return _new_key(o - self.a, -self.b, x - self.hi, x - self.lo)

    def __neg__(self) -> "PiKey":
        return _new_key(-self.a, -self.b, -self.hi, -self.lo)

    def __mul__(self, n: int) -> "PiKey":
        lo, hi = (self.lo, self.hi) if n >= 0 else (self.hi, self.lo)
        return _new_key(n * self.a, n * self.b, n * lo, n * hi)

    __rmul__ = __mul__

    def __floordiv__(self, n: int) -> "PiKey":
        return _new_key(self.a // n, self.b // n, self.lo // n, -(-self.hi // n))

    def __abs__(self) -> "PiKey":
        return self if self.lo >= 0 or self.hi > 0 and _key_sign(self.a, self.b) >= 0 else -self

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def _cmp(self, o) -> int:
        if type(o) is int:
            x = o << _BRACKET_BITS
            return -1 if self.hi < x else 1 if self.lo > x else _key_sign(self.a - o, self.b)
        return -1 if self.hi < o.lo else 1 if self.lo > o.hi else \
            _key_sign(self.a - o.a, self.b - o.b)

    def __lt__(self, o) -> bool:
        return self._cmp(o) < 0

    def __le__(self, o) -> bool:
        return self._cmp(o) <= 0

    def __gt__(self, o) -> bool:
        return self._cmp(o) > 0

    def __ge__(self, o) -> bool:
        return self._cmp(o) >= 0

    def __eq__(self, o) -> bool:
        if type(o) is int:
            return not self.b and self.a == o
        return type(o) is PiKey and self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __repr__(self) -> str:
        return f"PiKey({self.a}, {self.b})"
