"""Exact arithmetic in the rank-2 module Q + Q*pi.

Radial-profile actions mix rational multiples of the recapping area with
rational multiples of pi, so they live in the module of values ``a + b*pi``
with ``a, b`` rational.  Addition, subtraction and scaling by rationals are
componentwise; there is no multiplication of two pi-parts.

Comparisons are exact: the sign of ``a + b*pi`` reduces to comparing the
rational ``-a/b`` against pi, which is decided by integer interval bounds
from Machin's formula at doubling binary precision, each bracket cached,
until the rational falls outside the bracket.  Pi being irrational, every
comparison terminates.  Equality holds only when both coefficients agree;
no nonzero element of the module vanishes.

Unlike the other exact layers, this one has no slower twin in
:mod:`floerbar.oracles`: the tests check its comparisons against a
300-digit decimal expansion of pi.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .novikov import format_rational, parse_rational

__all__ = ["PiRational"]

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


_NumberLike = Union[int, Fraction, "PiRational"]


@dataclass(frozen=True)
class PiRational:
    """Exact value ``rational + pi_coeff * pi``."""

    rational: Fraction = Fraction(0)
    pi_coeff: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rational", Fraction(self.rational))
        object.__setattr__(self, "pi_coeff", Fraction(self.pi_coeff))

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
        if self.pi_coeff == 0:
            return 0 if self.rational == 0 else (1 if self.rational > 0 else -1)
        # a + b*pi > 0  <=>  pi > -a/b when b > 0, and pi < -a/b when b < 0
        side = _compare_with_pi(-self.rational / self.pi_coeff)
        return -side if self.pi_coeff > 0 else side

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

    @staticmethod
    def _comparable(other) -> bool:
        return isinstance(other, (int, Fraction, PiRational))

    def _cmp(self, other: _NumberLike) -> int:
        return (self - PiRational.of(other)).sign()

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
        if isinstance(other, (int, Fraction)):
            other = PiRational.of(other)
        if not isinstance(other, PiRational):
            return NotImplemented
        return self.rational == other.rational and self.pi_coeff == other.pi_coeff

    def __hash__(self) -> int:
        if self.pi_coeff == 0:
            return hash(self.rational)
        return hash((self.rational, self.pi_coeff))

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
