"""Filtered chain complexes over a single-variable Novikov field.

A complex holds finitely many generators with integer degrees and exact
rational actions, plus a differential with :class:`NovikovScalar`
coefficients.  The differential must lower degree by exactly one and strictly
lower action term by term (counting the degree/action steps of the quantum
variable), and must square to zero.  The constructor checks all three by
exact arithmetic (:meth:`FilteredComplex.validate`), so every
``FilteredComplex`` is valid and no later stage checks again.

Computations happen on the *unrolled* complex: each generator spawns copies
``(g, j)`` standing for ``variable**j * g`` at degree ``deg(g) +
j*degree_step`` and action ``act(g) + j*action_step``.  Restricted to a
degree window the unrolled complex is finite (each generator contributes at
most one copy per degree), so windowed questions -- persistence pairing,
spectral invariants, rank functions -- reduce to finite F2 linear algebra
with no truncation error.  Complexes with ``spec=None`` are plain F2
complexes (weakly exact coefficients): no copies, absolute degrees.

:func:`barcode` reads barcodes off an orthogonalising column reduction
(singular cycles plus ``d y = z`` pairs, whose action drops are the finite
bar lengths).  The independent route via sublevel rank functions read off
inclusion maps is ``brute_force_barcode`` in :mod:`floerbar.oracles`; tests
hold the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .f2 import Echelon
from .novikov import (NovikovScalar, NovikovSpec, format_rational, parse_int,
                      parse_rational)
from .persistence import Bar, Barcode, INF, NEG_INF

__all__ = [
    "Generator",
    "FilteredComplex",
    "ComplexValidationError",
    "GammaUndefinedError",
    "UZPair",
    "UZBasis",
    "uz_reduce",
    "barcode",
    "spectral_invariant",
    "gamma",
    "complex_to_json",
    "complex_from_json",
]


class ComplexValidationError(ValueError):
    """A filtered-complex invariant failed; the message names the first violation."""


class GammaUndefinedError(ValueError):
    """The spectral-norm shortcut needs unique infinite bars in both designated degrees."""


@dataclass(frozen=True)
class Generator:
    gid: str
    degree: int
    action: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "action", Fraction(self.action))


Combo = Tuple[Tuple[NovikovScalar, str], ...]


@dataclass(frozen=True)
class UZPair:
    """Orthogonal pair ``d y = z`` with torsion exponent ``beta = act(y) - act(z)``."""

    y: Combo
    z: Combo
    degree: int            # degree of z
    y_action: Fraction
    z_action: Fraction

    @property
    def beta(self) -> Fraction:
        return self.y_action - self.z_action


@dataclass(frozen=True)
class UZBasis:
    """Output of the orthogonalising reduction: singular cycles and pairs."""

    singular: Tuple[Tuple[Combo, int, Fraction], ...]  # (cycle, degree, action)
    pairs: Tuple[UZPair, ...]

    def torsion_exponents(self) -> Tuple[Fraction, ...]:
        return tuple(sorted(p.beta for p in self.pairs))


class FilteredComplex:
    """Finite generator set with an action-decreasing differential.

    Duplicate ids and differential terms naming unknown generators raise a
    plain ``ValueError``; a broken degree, action or ``d**2 = 0`` invariant
    raises :class:`ComplexValidationError`.
    """

    def __init__(self, spec: Optional[NovikovSpec],
                 generators: Sequence[Generator],
                 differential: Mapping[str, Sequence[Tuple[NovikovScalar, str]]]):
        self.spec = spec
        self.generators = tuple(generators)
        ids = [g.gid for g in self.generators]
        if len(set(ids)) != len(ids):
            raise ValueError("generator ids must be unique")
        self.by_id = {g.gid: g for g in self.generators}
        diff: Dict[str, Combo] = {}
        for gid, terms in differential.items():
            if gid not in self.by_id:
                raise ValueError(f"differential on unknown generator {gid!r}")
            merged: Dict[str, NovikovScalar] = {}
            for coeff, target in terms:
                if target not in self.by_id:
                    raise ValueError(f"differential hits unknown generator {target!r}")
                if target in merged:
                    merged[target] = merged[target] + coeff
                else:
                    merged[target] = coeff
            entries = tuple(sorted(((c, t) for t, c in merged.items() if not c.is_zero()),
                                   key=lambda item: item[1]))
            if entries:
                diff[gid] = entries
        self.differential = diff
        self.validate()

    # -- basic structure ---------------------------------------------------

    def d(self, gid: str) -> Combo:
        return self.differential.get(gid, ())

    def degree_span(self) -> Tuple[int, int]:
        degs = [g.degree for g in self.generators]
        return (min(degs), max(degs) + 1) if degs else (0, 1)

    def default_degree_window(self) -> Tuple[int, int]:
        """One fundamental domain of the quantum variable, or everything when
        the coefficients are trivial."""
        if self.spec is None:
            return self.degree_span()
        return (0, self.spec.degree_step)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check the three structural invariants; raise on the first violation.
        Run by the constructor."""
        for gid, terms in self.differential.items():
            g = self.by_id[gid]
            for coeff, target in terms:
                if coeff.spec != self.spec:
                    raise ComplexValidationError(
                        f"coefficient spec mismatch in d({gid})")
                y = self.by_id[target]
                for e in coeff.exponents:
                    dstep = self.spec.degree_step if self.spec else 0
                    astep = self.spec.action_step if self.spec else Fraction(0)
                    if y.degree + e * dstep != g.degree - 1:
                        raise ComplexValidationError(
                            f"degree mismatch: term of d({gid}) lands in degree "
                            f"{y.degree + e * dstep}, expected {g.degree - 1}")
                    if not (y.action + e * astep < g.action):
                        raise ComplexValidationError(
                            f"action does not strictly decrease on d({gid}) term "
                            f"{target} (exponent {e})")
        self._check_d_squared()

    def _check_d_squared(self) -> None:
        for gid in self.differential:
            acc: Dict[Tuple[str, int], int] = {}
            for coeff, target in self.d(gid):
                for e in coeff.exponents:
                    for coeff2, target2 in self.d(target):
                        for f in coeff2.exponents:
                            key = (target2, e + f)
                            acc[key] = acc.get(key, 0) ^ 1
            if any(acc.values()):
                raise ComplexValidationError(f"d squared is nonzero on {gid}")

    # -- unrolling -----------------------------------------------------------

    def unroll(self, action_window: Optional[Tuple[Fraction, Fraction]] = None,
               degree_window: Optional[Tuple[int, int]] = None
               ) -> List[Tuple[str, int, int, Fraction]]:
        """Spawn quantum-variable copies ``(gid, j, degree, action)`` inside
        the given half-open windows.  At least one window must be supplied;
        spec-less complexes only ever have the ``j = 0`` copy."""
        if action_window is None and degree_window is None:
            raise ValueError("unroll needs an action window or a degree window")
        if action_window is not None and not (action_window[0] < action_window[1]):
            raise ValueError("empty action window")
        if degree_window is not None and not (degree_window[0] < degree_window[1]):
            raise ValueError("empty degree window")
        out = []
        for g in self.generators:
            for j in self._copy_indices(g, action_window, degree_window):
                dstep = self.spec.degree_step if self.spec else 0
                astep = self.spec.action_step if self.spec else Fraction(0)
                out.append((g.gid, j, g.degree + j * dstep, g.action + j * astep))
        out.sort(key=lambda item: (item[3], item[0], item[1]))
        return out

    def unroll_complex(self,
                       action_window: Optional[Tuple[Fraction, Fraction]] = None,
                       degree_window: Optional[Tuple[int, int]] = None
                       ) -> "FilteredComplex":
        """The windowed unrolling as a plain trivial-coefficient complex.

        Copies are generators named ``gid@j``; differential terms leaving the
        window are dropped, which is the honest window quotient: a dropped
        middle term's own boundary lies strictly lower, hence outside too,
        so the truncation still squares to zero.
        """
        copies = self.unroll(action_window, degree_window)
        index = {(gid, j) for gid, j, _d, _a in copies}
        gens = [Generator(f"{gid}@{j}", deg, act) for gid, j, deg, act in copies]
        one = NovikovScalar.one(None)
        diff: Dict[str, List[Tuple[NovikovScalar, str]]] = {}
        for gid, j, _deg, _act in copies:
            terms = []
            for coeff, target in self.d(gid):
                for e in coeff.exponents:
                    if (target, j + e) in index:
                        terms.append((one, f"{target}@{j + e}"))
            if terms:
                diff[f"{gid}@{j}"] = terms
        return FilteredComplex(None, gens, diff)

    def _copy_indices(self, g: Generator, action_window, degree_window) -> List[int]:
        if self.spec is None:
            ok = True
            if action_window is not None:
                ok = ok and action_window[0] <= g.action < action_window[1]
            if degree_window is not None:
                ok = ok and degree_window[0] <= g.degree < degree_window[1]
            return [0] if ok else []
        dstep, astep = self.spec.degree_step, self.spec.action_step
        lo, hi = None, None
        if degree_window is not None:
            # degree + j*dstep in [dlo, dhi)
            dlo, dhi = degree_window
            lo = _ceil_div(dlo - g.degree, dstep)
            hi = (dhi - 1 - g.degree) // dstep
        if action_window is not None:
            alo, ahi = action_window
            jlo = _ceil_frac((alo - g.action) / astep)
            jhi = _floor_frac_strict((ahi - g.action) / astep)
            lo = jlo if lo is None else max(lo, jlo)
            hi = jhi if hi is None else min(hi, jhi)
        if lo is None or hi is None:
            raise ValueError("unbounded unroll window")
        return list(range(lo, hi + 1))


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _ceil_frac(x: Fraction) -> int:
    return -int((-x) // 1)


def _floor_frac_strict(x: Fraction) -> int:
    """Largest integer strictly below x, or floor(x) if x not integral."""
    f = int(x // 1)
    return f - 1 if x == f else f


# ---------------------------------------------------------------------------
# reduction core
# ---------------------------------------------------------------------------


class _UnrolledWindow:
    """Unrolled generators for degrees [lo-1, hi], indexed in filtration order."""

    def __init__(self, cx: FilteredComplex, degree_window: Tuple[int, int]):
        self.cx = cx
        self.lo, self.hi = degree_window
        if self.cx.spec is None:
            span = cx.degree_span()
            self.lo, self.hi = max(self.lo, span[0]), min(self.hi, span[1])
            if self.lo >= self.hi:
                self.items = []
                self.index = {}
                return
        self.items = cx.unroll(degree_window=(self.lo - 1, self.hi + 1))
        self.index = {(gid, j): i for i, (gid, j, _, _) in enumerate(self.items)}

    def degree(self, i: int) -> int:
        return self.items[i][2]

    def action(self, i: int) -> Fraction:
        return self.items[i][3]

    def boundary_mask(self, i: int) -> int:
        """d of the i-th unrolled generator as a bitmask over window indices.

        Raises KeyError if a term falls outside the window (callers only ask
        for columns whose boundary degree is inside, so this flags misuse).
        """
        gid, j, _, _ = self.items[i]
        mask = 0
        for coeff, target in self.cx.d(gid):
            for e in coeff.exponents:
                mask ^= 1 << self.index[(target, j + e)]
        return mask

    def combo_from_mask(self, mask: int) -> Combo:
        """Regroup a bitmask of unrolled copies into Novikov-scalar form."""
        groups: Dict[str, set] = {}
        while mask:
            i = mask.bit_length() - 1
            mask ^= 1 << i
            gid, j, _, _ = self.items[i]
            groups.setdefault(gid, set()).add(j)
        return tuple(sorted(
            ((NovikovScalar(self.cx.spec, frozenset(js)), gid) for gid, js in groups.items()),
            key=lambda item: item[1]))

    def mask_top(self, mask: int) -> int:
        return mask.bit_length() - 1


def _uz_reduce_window(window: _UnrolledWindow):
    """Orthogonalising column reduction on the unrolled window.

    Columns are processed in increasing filtration order; each column is
    reduced against earlier ones sharing its pivot, the pivot being the term
    of maximal action (ties broken by id then copy index, i.e. window order).
    Returns (pairs, cycles, owned) in window-index terms.
    """
    lo, hi = window.lo, window.hi
    owner: Dict[int, Tuple[int, int]] = {}  # pivot row -> (column mask, combo mask)
    pairs = []   # (y combo mask, z mask, y index, pivot row index)
    cycles = []  # (combo mask, generator index)
    for i, (gid, j, deg, _act) in enumerate(window.items):
        if not (lo <= deg <= hi):
            continue  # degree lo-1 copies participate only as rows
        col = window.boundary_mask(i)
        combo = 1 << i
        while col:
            p = window.mask_top(col)
            if p in owner:
                ocol, ocombo = owner[p]
                col ^= ocol
                combo ^= ocombo
            else:
                break
        if col == 0:
            cycles.append((combo, i))
        else:
            p = window.mask_top(col)
            owner[p] = (col, combo)
            pairs.append((combo, col, i, p))
    return pairs, cycles, owner


def uz_reduce(cx: FilteredComplex,
              degree_window: Optional[Tuple[int, int]] = None) -> UZBasis:
    """Non-Archimedean orthogonal basis of one degree window (fundamental
    domain by default): singular cycles ``x`` with ``d x = 0`` and pairs
    ``d y = z``; the multiset of pair action drops is the torsion-exponent
    (finite bar length) multiset."""
    w = _UnrolledWindow(cx, degree_window or cx.default_degree_window())
    reduced_pairs, cycles, owner = _uz_reduce_window(w)
    lo, hi = w.lo, w.hi
    pairs = []
    for combo, col, _i, p in reduced_pairs:
        zdeg = w.degree(p)
        if lo <= zdeg < hi:
            ytop = w.mask_top(combo)
            pairs.append(UZPair(
                y=w.combo_from_mask(combo),
                z=w.combo_from_mask(col),
                degree=zdeg,
                y_action=w.action(ytop),
                z_action=w.action(p),
            ))
    singular = []
    for combo, i in cycles:
        if i in owner:
            continue
        deg = w.degree(i)
        if lo <= deg < hi:
            singular.append((w.combo_from_mask(combo), deg, w.action(i)))
    return UZBasis(singular=tuple(singular), pairs=tuple(pairs))


def barcode(cx: FilteredComplex,
            degree_window: Optional[Tuple[int, int]] = None) -> Barcode:
    """Persistence barcode of the window: ``(act z, act y]`` per pair in the
    degree of ``z`` and ``(act x, inf)`` per singular cycle."""
    basis = uz_reduce(cx, degree_window)
    bars = [Bar(p.z_action, p.y_action, p.degree) for p in basis.pairs]
    bars.extend(Bar(action, INF, deg) for (_c, deg, action) in basis.singular)
    return Barcode(bars)


# ---------------------------------------------------------------------------
# spectral invariants and the spectral norm
# ---------------------------------------------------------------------------


CycleInput = Union[Sequence[Tuple[NovikovScalar, str]], Sequence[str]]


def _normalize_cycle(cx: FilteredComplex, cycle: CycleInput) -> Combo:
    terms = []
    for item in cycle:
        if isinstance(item, str):
            terms.append((NovikovScalar.one(cx.spec), item))
        else:
            coeff, gid = item
            terms.append((coeff, gid))
    return tuple(terms)


def spectral_invariant(cx: FilteredComplex, cycle: CycleInput):
    """Minimal action level among all cycles homologous to the input.

    The input must be a homogeneous cycle; the zero homology class returns
    the ``-inf`` marker.
    """
    terms = _normalize_cycle(cx, cycle)
    if not terms:
        return NEG_INF
    copies = []
    for coeff, gid in terms:
        if gid not in cx.by_id:
            raise ComplexValidationError(f"unknown generator {gid!r} in cycle")
        if coeff.spec != cx.spec:
            raise ComplexValidationError("cycle coefficient spec mismatch")
        for e in coeff.exponents:
            copies.append((gid, e))
    if not copies:
        return NEG_INF
    dstep = cx.spec.degree_step if cx.spec else 0
    degs = {cx.by_id[gid].degree + e * dstep for gid, e in copies}
    if len(degs) != 1:
        raise ComplexValidationError("cycle input must be homogeneous")
    d = degs.pop()
    window = _UnrolledWindow(cx, (d - 1, d + 2))
    vmask = 0
    for gid, e in copies:
        key = (gid, e)
        if key not in window.index:
            raise ComplexValidationError("cycle copy fell outside the working window")
        vmask ^= 1 << window.index[key]
    if vmask == 0:
        return NEG_INF
    # cycle check: boundary of v must vanish
    dmask = 0
    for gid, e in copies:
        i = window.index[(gid, e)]
        dmask ^= window.boundary_mask(i)
    if dmask:
        raise ComplexValidationError("input is not a cycle")
    # echelon basis of the boundary space from degree d+1 columns
    ech = Echelon()
    for i, (_gid, _j, deg, _act) in enumerate(window.items):
        if deg == d + 1:
            col = window.boundary_mask(i)
            if col:
                ech.insert(col)
    residual = ech.reduce(vmask)
    if residual == 0:
        return NEG_INF
    return window.action(window.mask_top(residual))


def gamma(bc: Barcode, fund_degree: int, point_degree: int) -> Fraction:
    """Difference of the infinite-bar left endpoints of ``bc`` in the two
    designated degrees; each must carry exactly one infinite bar.  ``bc``
    must cover both degrees, e.g. ``barcode(cx, (lo, hi + 1))`` with ``lo``,
    ``hi`` the smaller and larger degree."""

    def left_endpoint(deg: int):
        bars = [b for b in bc.expand() if b.degree == deg and b.is_infinite]
        if len(bars) != 1:
            raise GammaUndefinedError(
                f"degree {deg} carries {len(bars)} infinite bars, need exactly 1")
        return bars[0].left

    return left_endpoint(fund_degree) - left_endpoint(point_degree)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def complex_to_json(cx: FilteredComplex) -> dict:
    return {
        "spec": cx.spec.to_json() if cx.spec is not None else None,
        "generators": [
            {"id": g.gid, "degree": g.degree, "action": format_rational(g.action)}
            for g in cx.generators
        ],
        "differential": {
            gid: [[str(coeff), target] for coeff, target in terms]
            for gid, terms in sorted(cx.differential.items())
        },
    }


def complex_from_json(data: dict) -> FilteredComplex:
    """Parse the JSON schema; a top level, differential or generator id of
    the wrong type raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a complex is a JSON object")
    if not isinstance(data.get("differential", {}), dict):
        raise ValueError("differential must be a JSON object")
    spec = NovikovSpec.from_json(data["spec"]) if data.get("spec") else None
    gens = [Generator(_generator_id(item["id"]), parse_int(item["degree"]),
                      parse_rational(item["action"]))
            for item in data["generators"]]
    diff = {
        gid: [(NovikovScalar.parse(coeff, spec), target) for coeff, target in terms]
        for gid, terms in data.get("differential", {}).items()
    }
    return FilteredComplex(spec, gens, diff)


def _generator_id(gid) -> str:
    if not isinstance(gid, str):
        raise ValueError(f"a generator id must be a string, not {gid!r}")
    return gid
