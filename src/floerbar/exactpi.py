"""Exact arithmetic in the rank-2 module Q + Q*pi.

Radial-profile actions mix rational multiples of the recapping area with
rational multiples of pi, so they live in the module of values ``a + b*pi``
with ``a, b`` rational.  Addition, subtraction and scaling by rationals are
componentwise; there is no multiplication of two pi-parts.

Comparisons are exact and use no float: the sign of a difference is the
sign of its key (below), its parts brought to ints.  Equality holds only
when both coefficients agree; no nonzero element of the module vanishes.

Keys: a value with int parts ``a + b*pi`` (an endpoint times its barcode's
scale) is stored as the one int ``E = a*M + b*P`` of a :class:`PiCode`,
``P`` the int nearest ``pi*M``.  E is additive, and its sign is the sign of
``a + b*pi`` whenever ``|b|`` is at most the code's bound ``B``: let ``q``
be the largest denominator of a continued-fraction convergent of pi with
``q <= B`` and ``q2`` the next one.  By the best-approximation property of
convergents (Khinchin, "Continued Fractions", ch. II; Hardy-Wright, ch. X)
every int ``0 < |b| <= B`` has ``|a + b*pi| >= ||b*pi|| >= ||q*pi|| > 1/(q +
q2)``, and ``M = B*(q + q2) + 1`` keeps the error ``|b| * |P/M - pi| <=
B/(2M)`` of ``E/M`` below that, so E is never 0 and never of the wrong sign.
The convergents are the partial quotients that both ends of a Machin
bracket share.  ``gcd(M, P) = 1`` and ``M > 2B`` make E invertible: ``b =
E/P mod M``, taken in ``(-M/2, M/2]``, then ``a = (E - b*P)/M``.  Codes come
in levels of bound ``2**24``, ``2**48``, ``2**96``, ...; a barcode's
canonical code (:func:`code_for`) is the least whose bound is ``HEAD``
times its largest endpoint pi part, and ``PLAIN``, ``E = a``, when every pi
part is 0, so equal barcodes have equal keys.  A search checks that
``SPREAD`` times the largest pi part of the keys it compares stays in the
bound (see :mod:`floerbar.persistence`), and ``encode`` asserts it.

:func:`floerbar.oracles.pi_rational_cmp` keeps an independent route, the
sign of the difference value through Machin brackets at doubling
precision alone, as the oracle the tests compare this order and the keys'
signs with.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .novikov import format_rational, parse_rational

__all__ = ["PiRational", "PiCode", "PLAIN", "code_for", "key_sign"]

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


def _sign(a: Fraction, b: Fraction) -> int:
    """Exact sign of ``a + b*pi``: of its parts times both denominators."""
    return key_sign(a.numerator * b.denominator, b.numerator * a.denominator)


_NumberLike = Union[int, Fraction, "PiRational"]


def _comparison(test):
    """The rich comparison of a PiRational with a PiRational, an int or a
    Fraction by ``test`` on the sign of the difference."""
    def compare(self, other):
        # PiRational is tested first: Fraction's isinstance check goes
        # through its abstract base class
        if not isinstance(other, (PiRational, int, Fraction)):
            return NotImplemented
        return test(self._cmp(other), 0)
    return compare


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
    def _parts(self) -> Tuple[int, int, int]:
        """Ints ``(d, a, b)`` with the value ``(a + b*pi)/d``, ``d > 0``."""
        a, b = self.rational, self.pi_coeff
        return (a.denominator * b.denominator, a.numerator * b.denominator,
                b.numerator * a.denominator)

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
        return cls(value)  # __post_init__ makes it a Fraction

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

    def _cmp(self, other: _NumberLike) -> int:
        if not isinstance(other, PiRational):
            return _sign(self.rational - other, self.pi_coeff)
        (d, a, b), (d2, a2, b2) = self._parts, other._parts
        return key_sign(a * d2 - a2 * d, b * d2 - b2 * d)

    __lt__, __le__, __gt__, __ge__ = map(_comparison, (operator.lt, operator.le, operator.gt,
                                                       operator.ge))

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


class PiCode:
    """The encoding ``E(a, b) = a*M + b*P`` of ints ``a + b*pi``, exact in
    sign for ``|b| <= bound``; ``PLAIN`` (``M`` 1, ``P`` 0) encodes ints,
    ``b`` being 0.  ``least`` is the least pi part whose canonical code
    (``code_for``) this is."""

    __slots__ = ("M", "P", "inverse", "bound", "least")

    def __init__(self, M: int, P: int, bound: int, least: int) -> None:
        self.M, self.P, self.bound, self.least = M, P, bound, least
        self.inverse = pow(P, -1, M) if P else 0

    def encode(self, a: int, b: int) -> int:
        """The key of ``a + b*pi``, whose pi part leaves room in the bound
        for the combinations of ``SPREAD`` keys that the searches compare."""
        assert SPREAD * abs(b) <= self.bound, "pi part past the code's bound"
        return a * self.M + b * self.P

    def parts(self, e: int) -> Tuple[int, int]:
        """``(a, b)`` with ``encode(a, b) == e``, ``|b| < M/2``."""
        b = e * self.inverse % self.M
        if 2 * b > self.M:
            b -= self.M
        return (e - b * self.P) // self.M, b


PLAIN = PiCode(1, 0, 0, 0)
# The searches compare integer combinations of endpoint keys whose pi parts
# are at most SPREAD times the largest endpoint's (floerbar.persistence
# derives it).
SPREAD = 12
# Canonical codes leave HEAD / SPREAD of room for the factors that bring two
# barcodes to a common scale.
HEAD = 1 << 12
_FIRST_BOUND = 1 << 24


def _convergents(bits: int) -> List[Tuple[int, int]]:
    """The continued-fraction convergents ``(p, q)`` of pi that both ends of
    the Machin bracket at ``bits`` share."""
    low, high = _machin_bracket(bits)
    out, (p0, q0), (p1, q1) = [], (0, 1), (1, 0)
    while low.numerator // low.denominator == high.numerator // high.denominator:
        a = low.numerator // low.denominator
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
        out.append((p1, q1))
        low, high = 1 / (high - a), 1 / (low - a)
    return out


@functools.lru_cache(maxsize=None)
def _level_code(level: int) -> PiCode:
    """The code of bound ``2**(24 * 2**(level - 1))``, ``M`` and ``P`` as
    the module docstring derives them."""
    bound = _FIRST_BOUND ** (1 << (level - 1))
    bits = _MACHIN_START_BITS
    while not any(q > bound for _p, q in _convergents(bits)):
        bits *= 2
    dens = [q for _p, q in _convergents(bits)]
    k = sum(q <= bound for q in dens)  # dens[k - 1] <= bound < dens[k]
    M = bound * (dens[k - 1] + dens[k]) + 1
    while True:
        low, high = _machin_bracket(bits)
        P = round(low * M)
        if P != round(high * M):
            bits *= 2
        elif math.gcd(M, P) != 1:
            M += 1
        else:
            return PiCode(M, P, bound, (_FIRST_BOUND ** (1 << (level - 2)) // HEAD + 1)
                          if level > 1 else 1)


def code_for(beta: int, head: int = HEAD) -> PiCode:
    """The least code whose bound holds ``head`` times the pi part ``beta``;
    of a barcode whose endpoint keys have pi parts at most ``beta``, its
    canonical code."""
    if not beta:
        return PLAIN
    level, bound = 1, _FIRST_BOUND
    while beta * head > bound:
        level, bound = level + 1, bound * bound
    return _level_code(level)


def key_sign(a: int, b: int) -> int:
    """Exact sign of ``a + b*pi`` for ints."""
    e = code_for(abs(b), SPREAD).encode(a, b)
    return (e > 0) - (e < 0)
