"""One-generator quantum ring arithmetic and the averaging bound.

The ring is presented over the degree-1 Novikov variable ``t`` by a single
generator ``X`` (the point-like class) with one relation ``X**M = q**E``,
``q = t**maslov``; every element normalizes uniquely to ``t**p * X**j`` with
``0 <= j < M``.  A distinguished invertible monomial ``S`` (the ring
automorphism of a Lagrangian loop) is certified by ring arithmetic to
satisfy ``S**k = t**p * [pt]`` and ``S**m = t**r * [L]`` for minimal
exponents; those four integers, together with the action ``kappa`` of ``t``,
feed an exact average of the spectral norm over the ``m`` loop-shifted
classes:

    average = (m*p - k*r) * kappa / m

``telescoping_check`` re-derives that value symbolically: it expands each of
the ``m`` shifted spectral norms in free level symbols ``c_0 .. c_{m-1}``
using only two rewriting rules -- an invertible scalar shifts a level by
minus its valuation, and multiplying by ``S**m`` shifts indices cyclically
at the cost of ``r * kappa`` -- and verifies that the symbols cancel exactly
in the sum.  The bound is never reported without that cancellation.

Over the two-element field the only nonzero scalar is 1, so all unit
coefficients in the hypotheses are fixed to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .novikov import LagrangianParams

__all__ = [
    "QHPresentation",
    "RingElement",
    "SeidelData",
    "HypothesisError",
    "TelescopingReport",
    "qh_mul",
    "verify_hypotheses",
    "averaging_bound",
    "telescoping_check",
    "example_case",
    "ExampleCase",
    "EXAMPLE_CASE_NAMES",
    "quasimorphism_defect_bound",
]


class HypothesisError(ValueError):
    """The distinguished monomial fails the power hypotheses."""


@dataclass(frozen=True)
class RingElement:
    """Normalized monomial ``t**t_exp * X**x_exp`` (zero is never needed)."""

    t_exp: int
    x_exp: int

    def __str__(self) -> str:
        parts = []
        if self.t_exp:
            parts.append(f"t^{self.t_exp}" if self.t_exp != 1 else "t")
        if self.x_exp:
            parts.append(f"X^{self.x_exp}" if self.x_exp != 1 else "X")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class QHPresentation:
    """One-generator presentation: ``X**power = q**twist`` with ``q = t**maslov``.

    ``point_power`` declares the point class as ``X**point_power``; the unit
    class is ``X**0``.
    """

    params: LagrangianParams
    power: int
    twist: int
    point_power: int

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValueError("the relation exponent must be at least 1")
        if not (0 <= self.point_power < self.power):
            raise ValueError("the point class exponent must be reduced mod the relation")

    @property
    def kappa(self) -> Fraction:
        return self.params.kappa

    def normalize(self, t_exp: int, x_exp: int) -> RingElement:
        wraps = x_exp // self.power
        return RingElement(t_exp + wraps * self.twist * self.params.maslov,
                           x_exp - wraps * self.power)

    def unit(self) -> RingElement:
        return RingElement(0, 0)


def qh_mul(pres: QHPresentation, a: RingElement, b: RingElement) -> RingElement:
    """Multiply monomials and reduce by the relation."""
    return pres.normalize(a.t_exp + b.t_exp, a.x_exp + b.x_exp)


@dataclass(frozen=True)
class SeidelData:
    """A distinguished monomial with its certified power hypotheses."""

    element: RingElement
    k: int
    p: int
    m: int
    r: int


def verify_hypotheses(pres: QHPresentation, element: RingElement) -> SeidelData:
    """Smallest ``k`` with ``element**k`` proportional to the point class and
    smallest ``m > k`` hitting the unit class; the ``t``-exponents come with
    them.  Searches ``power * maslov`` steps before giving up."""
    cap = pres.power * pres.params.maslov + 1
    k = p = m = r = None
    acc = pres.unit()
    for i in range(1, cap + 1):
        acc = qh_mul(pres, acc, element)
        if k is None and acc.x_exp == pres.point_power:
            k, p = i, acc.t_exp
        elif k is not None and m is None and acc.x_exp == 0:
            m, r = i, acc.t_exp
            break
    if k is None or m is None:
        raise HypothesisError(
            f"no power of {element} matches the point/unit classes within {cap} steps")
    return SeidelData(element=element, k=k, p=p, m=m, r=r)


def averaging_bound(k: int, p: int, m: int, r: int, kappa: Fraction) -> Fraction:
    """Exact average of the spectral norm over the m loop-shifted classes."""
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    return (m * p - k * r) * Fraction(kappa) / m


@dataclass(frozen=True)
class TelescopingReport:
    terms: Tuple[Tuple[int, int, bool], ...]  # (j, (k+j) mod m, wrapped)
    residual: Tuple[Tuple[int, int], ...]     # leftover symbol coefficients
    total: Fraction
    bound: Fraction

    @property
    def ok(self) -> bool:
        return not self.residual and self.total == self.bound * len(self.terms)


def telescoping_check(k: int, p: int, m: int, r: int,
                      kappa: Fraction) -> TelescopingReport:
    """Symbolic verification that the m shifted spectral norms sum to
    ``m * averaging_bound``.

    Each term is ``c_j - c_{(k+j) mod m} + p*kappa - [wrap]*r*kappa``; the
    free symbols must cancel exactly.  A nonempty residual means the
    hypothesis tuple is inconsistent.
    """
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    kappa = Fraction(kappa)
    coeffs: Dict[int, int] = {}
    total = Fraction(0)
    terms = []
    for j in range(m):
        tgt = (k + j) % m
        wrapped = k + j >= m
        coeffs[j] = coeffs.get(j, 0) + 1
        coeffs[tgt] = coeffs.get(tgt, 0) - 1
        total += p * kappa - (r * kappa if wrapped else 0)
        terms.append((j, tgt, wrapped))
    residual = tuple(sorted((sym, c) for sym, c in coeffs.items() if c))
    return TelescopingReport(
        terms=tuple(terms),
        residual=residual,
        total=total,
        bound=averaging_bound(k, p, m, r, kappa),
    )


# ---------------------------------------------------------------------------
# the example table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExampleCase:
    name: str
    n: int
    presentation: QHPresentation
    seidel: SeidelData
    bound: Fraction
    telescoping: TelescopingReport


def _case_rpn(n: int) -> Tuple[QHPresentation, RingElement]:
    # real projective space in complex projective space: maslov n+1,
    # disk area 1/2 in line-area units, S = t * X with point class X**n
    pres = QHPresentation(
        params=LagrangianParams(dim=n, maslov=n + 1, disk_area=Fraction(1, 2)),
        power=n + 1, twist=-1, point_power=n % (n + 1))
    return pres, RingElement(1, 1)


def _case_cpn_diag(n: int) -> Tuple[QHPresentation, RingElement]:
    # the diagonal: dimension 2n, maslov 2n+2, disk area 1, S = t**2 * X
    pres = QHPresentation(
        params=LagrangianParams(dim=2 * n, maslov=2 * n + 2, disk_area=Fraction(1)),
        power=n + 1, twist=-1, point_power=n % (n + 1))
    return pres, RingElement(2, 1)


def _case_sn_quadric(n: int) -> Tuple[QHPresentation, RingElement]:
    # the sphere inside the quadric: maslov 2n, disk area 1, point class X,
    # relation X**2 = q**(-1) under our valuation convention, S = t**n * X
    pres = QHPresentation(
        params=LagrangianParams(dim=n, maslov=2 * n, disk_area=Fraction(1)),
        power=2, twist=-1, point_power=1)
    return pres, RingElement(n, 1)


def _case_hpn(n: int) -> Tuple[QHPresentation, RingElement]:
    # quaternionic projective space in the Grassmannian: dimension 4n,
    # maslov 4n+4, disk area 1, S = t**2 * X with point class X**n
    pres = QHPresentation(
        params=LagrangianParams(dim=4 * n, maslov=4 * n + 4, disk_area=Fraction(1)),
        power=n + 1, twist=-1, point_power=n % (n + 1))
    return pres, RingElement(2, 1)


_CASES = {
    "RPn": _case_rpn,
    "CPn_diag": _case_cpn_diag,
    "Sn_quadric": _case_sn_quadric,
    "HPn_gr": _case_hpn,
}

EXAMPLE_CASE_NAMES = tuple(sorted(_CASES))


def example_case(name: str, n: int) -> ExampleCase:
    """Build the named presentation, re-verify the power hypotheses by ring
    arithmetic, run the telescoping check and return the bound."""
    if name not in _CASES:
        raise KeyError(f"unknown case {name!r}; choose from {EXAMPLE_CASE_NAMES}")
    if n < 1:
        raise ValueError("n must be positive")
    pres, element = _CASES[name](n)
    data = verify_hypotheses(pres, element)
    report = telescoping_check(data.k, data.p, data.m, data.r, pres.kappa)
    if not report.ok:
        raise HypothesisError(f"telescoping failed for case {name}(n={n})")
    bound = averaging_bound(data.k, data.p, data.m, data.r, pres.kappa)
    if not bound < pres.params.disk_area:
        raise HypothesisError(
            f"averaging bound {bound} is not below the disk area for {name}(n={n})")
    return ExampleCase(name=name, n=n, presentation=pres, seidel=data,
                       bound=bound, telescoping=report)


def quasimorphism_defect_bound(gamma_bar: Fraction, homogenized: bool = False) -> Fraction:
    """Defect bound carried by a uniform spectral-norm bound: the raw
    quasimorphism inherits it as is, homogenization doubles it."""
    gamma_bar = Fraction(gamma_bar)
    if gamma_bar < 0:
        raise ValueError("the uniform bound must be nonnegative")
    return 2 * gamma_bar if homogenized else gamma_bar
