"""Exact coefficient arithmetic for single-variable graded Novikov fields over F2.

Everything downstream (filtered complexes, barcodes, curve diagrams) stores
its numbers as reduced rationals -- :class:`fractions.Fraction` from the
standard library already enforces ``gcd(|p|, q) = 1`` and ``q > 0`` -- and its
coefficients as finite F2-combinations of powers of one graded quantum
variable.  A scalar is therefore just the set of exponents carried with
nonzero (= 1) coefficient; addition is symmetric difference and
multiplication is exponent convolution mod 2.

The valuation fixes the sign convention used throughout the package:
``nu(variable) = -action_step``, so multiplying a generator by ``variable**e``
raises its filtration level by ``e * action_step`` and its degree by
``e * degree_step``.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

__all__ = [
    "Rational",
    "parse_rational",
    "parse_int",
    "format_rational",
    "NovikovSpec",
    "NovikovScalar",
    "LagrangianParams",
    "SpecMismatchError",
    "nov_add",
    "nov_mul",
    "nov_valuation",
]

Rational = Fraction


class SpecMismatchError(ValueError):
    """Raised when scalars over different coefficient specs are combined."""


# Plain ASCII integers and quotients: ``[0-9]`` matches no other digits, so
# every string the pattern takes reads the same through ``Fraction(text)``.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# The exponent of a decimal string, as ``Fraction(text)`` reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*\Z")


def _max_digits() -> int:
    """The interpreter's limit on the digits of an int printed in decimal;
    0 when it has none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _too_long(n: int, limit: int) -> bool:
    """Whether ``|n|`` has more than ``limit`` decimal digits."""
    # below 8**limit, |n| is below 10**limit
    return abs(n).bit_length() > 3 * limit and abs(n) >= 10 ** limit


def parse_rational(text: Union[str, int]) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or an int into a reduced rational.  Any other
    type (a JSON float or a bool, say) is a ``ValueError``, and so is a value
    with more digits in its numerator or denominator than the interpreter
    prints (``sys.get_int_max_str_digits``).  An exponent past that limit by
    more than the length of the text is refused before its power of ten is
    built, whatever the mantissa."""
    if isinstance(text, str):
        plain = _PLAIN_RATIONAL.fullmatch(text)
        try:
            if plain:
                # int() refuses parts past the digit limit, and reducing shortens
                return Fraction(int(plain[1]), int(plain[2] or 1))
            return _parse_other(text)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {text!r}") from exc
    if isinstance(text, bool) or not isinstance(text, int):
        raise ValueError(f"a rational must be a string or an integer, not {text!r}")
    return Fraction(text)


def parse_ratio(text: Union[str, int]) -> Tuple[int, int]:
    """``parse_rational`` as reduced ``(numerator, positive denominator)``,
    with the same checks and messages; a plain ``"p/q"`` builds no Fraction
    (``parse_rational`` keeps its own plain path, which a call through this
    one would slow by a third)."""
    plain = _PLAIN_RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if not plain:
        value = parse_rational(text)
        return value.numerator, value.denominator
    num, den = int(plain[1]), int(plain[2] or 1)
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    g = math.gcd(num, den)
    return num // g, den // g


def _parse_other(text: str) -> Fraction:
    """``Fraction(text.strip())``, refused past the digit limit.  Digit-group
    underscores are refused as Python 3.10 refuses them: later versions of
    ``Fraction`` read ``"1_000"`` as 1000."""
    if "_" in text:
        raise ValueError(f"Invalid literal for Fraction: {text.strip()!r}")
    limit = _max_digits()
    exponent = _EXPONENT.search(text)
    # a mantissa of at most len(text) digits undoes at most that many of the
    # exponent's powers of ten, and Fraction would build them all
    if limit and exponent and abs(int(exponent[1])) > limit + len(text):
        raise ValueError(f"the exponent of {text!r} is out of range")
    value = Fraction(text.strip())
    if limit and (_too_long(value.numerator, limit) or _too_long(value.denominator, limit)):
        raise ValueError(f"{text!r} has more than {limit} digits")
    return value


def parse_int(value: int) -> int:
    """A JSON integer field.  Any other type (a float, a bool or a string) is
    a ``ValueError``, so ``1.9`` is never read as ``1``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"an integer field must be a JSON integer, not {value!r}")
    return value


def format_rational(value: Fraction) -> str:
    """Serialize a rational as ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class NovikovSpec:
    """A graded quantum variable: name, degree step and (positive) action step.

    ``variable = "t"`` with ``action_step = kappa`` and ``degree_step = 1`` is
    the monotone field; ``variable = "q"`` with ``action_step = A_L`` and
    ``degree_step = N_L`` the minimal one.  ``nu(variable) = -action_step``.
    """

    variable: str
    degree_step: int
    action_step: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "action_step", Fraction(self.action_step))
        if self.degree_step < 1:
            raise ValueError("degree_step must be a positive integer")
        if self.action_step <= 0:
            raise ValueError("action_step must be positive")

    def to_json(self) -> dict:
        return {
            "var": self.variable,
            "degree_step": self.degree_step,
            "action_step": format_rational(self.action_step),
        }

    @classmethod
    def from_json(cls, data: dict) -> "NovikovSpec":
        if not isinstance(data, dict) or not isinstance(data["var"], str):
            raise ValueError("a spec is a JSON object with a string var")
        return cls(data["var"], parse_int(data["degree_step"]),
                   parse_rational(data["action_step"]))


@dataclass(frozen=True)
class NovikovScalar:
    """Finite F2-combination of powers of the quantum variable.

    ``exponents`` holds exactly the exponents with coefficient 1.  A scalar
    with ``spec=None`` is a plain F2 constant and may only carry exponent 0;
    these appear as coefficients of complexes over trivial (weakly exact)
    coefficient rings.
    """

    spec: Optional[NovikovSpec]
    exponents: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", frozenset(int(e) for e in self.exponents))
        if self.spec is None and any(e != 0 for e in self.exponents):
            raise ValueError("spec-less scalars must be constant (exponent 0 only)")

    @classmethod
    def zero(cls, spec: Optional[NovikovSpec]) -> "NovikovScalar":
        return cls(spec, frozenset())

    @classmethod
    def one(cls, spec: Optional[NovikovSpec]) -> "NovikovScalar":
        return cls(spec, frozenset([0]))

    @classmethod
    def monomial(cls, spec: Optional[NovikovSpec], exponent: int) -> "NovikovScalar":
        return cls(spec, frozenset([exponent]))

    def is_zero(self) -> bool:
        return not self.exponents

    def __bool__(self) -> bool:
        return bool(self.exponents)

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        return nov_add(self, other)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        return nov_mul(self, other)

    def __str__(self) -> str:
        if not self.exponents:
            return "0"
        var = self.spec.variable if self.spec is not None else "1"
        parts = []
        for e in sorted(self.exponents):
            if e == 0:
                parts.append("1")
            elif e == 1:
                parts.append(var)
            else:
                parts.append(f"{var}^{e}")
        return "+".join(parts)

    @classmethod
    def parse(cls, text: str, spec: Optional[NovikovSpec]) -> "NovikovScalar":
        """Parse exponent polynomials like ``"1+q^2"``, ``"q^-1"`` or ``"0"``.
        Any other type than a string is a ``ValueError``."""
        if not isinstance(text, str):
            raise ValueError(f"a scalar must be a string, not {text!r}")
        text = text.strip().replace(" ", "")
        if text in ("0", ""):
            return cls.zero(spec)
        exponents = set()
        var = spec.variable if spec is not None else None
        for part in text.split("+"):
            if part == "1":
                e = 0
            elif var is not None and part == var:
                e = 1
            elif var is not None and part.startswith(var + "^"):
                e = int(part[len(var) + 1:])
            else:
                raise ValueError(f"cannot parse scalar term {part!r}")
            if e in exponents:
                exponents.remove(e)  # repeated term cancels mod 2
            else:
                exponents.add(e)
        return cls(spec, frozenset(exponents))


def _require_same_spec(a: NovikovScalar, b: NovikovScalar) -> None:
    if a.spec != b.spec:
        raise SpecMismatchError(f"scalar specs differ: {a.spec} vs {b.spec}")


def nov_add(a: NovikovScalar, b: NovikovScalar) -> NovikovScalar:
    """Exponent-wise F2 sum; cancelling pairs of terms disappear."""
    _require_same_spec(a, b)
    return NovikovScalar(a.spec, a.exponents ^ b.exponents)


def nov_mul(a: NovikovScalar, b: NovikovScalar) -> NovikovScalar:
    """Convolution of exponent sets over F2."""
    _require_same_spec(a, b)
    acc = set()
    for e in a.exponents:
        for f in b.exponents:
            s = e + f
            if s in acc:
                acc.remove(s)
            else:
                acc.add(s)
    return NovikovScalar(a.spec, frozenset(acc))


def nov_valuation(a: NovikovScalar) -> Fraction:
    """min over stored exponents e of ``-e * action_step``.

    Undefined (raises) on the zero scalar.
    """
    if a.is_zero():
        raise ZeroDivisionError("valuation of the zero scalar is undefined")
    if a.spec is None:
        return Fraction(0)
    return -max(a.exponents) * a.spec.action_step


@dataclass(frozen=True)
class LagrangianParams:
    """Numerical data of a monotone Lagrangian: dimension, minimal Maslov
    number and least positive disk area.  ``kappa`` is the action step of the
    degree-1 monotone variable."""

    dim: int
    maslov: int
    disk_area: object  # Fraction, or an exact pi-linear value

    def __post_init__(self) -> None:
        if self.maslov < 2:
            raise ValueError("minimal Maslov number must be at least 2")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not self.disk_area > 0:
            raise ValueError(f"the disk area must be positive, not {self.disk_area}")

    @property
    def kappa(self):
        return self.disk_area / Fraction(self.maslov)
