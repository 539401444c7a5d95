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

A complex keeps its actions as int keys: the constructor scales every
generator action and the action step once by the lcm of their
denominators, so integer comparison gives the same order as comparing the
rationals.  :func:`complex_from_json` reads each action as a reduced int
ratio and builds no Fraction; validation compares keys, unrolling adds the
scaled step to them, and :func:`barcode` hands them and their scale to a
keyed :class:`~floerbar.persistence.Barcode` as they are.  Fractions
appear only at read-out (``generators``, ``by_id``,
:func:`complex_to_json`, ``unroll``, the levels of :class:`UZBasis`).  A
window is counted with O(generators) int arithmetic before anything is
built; one that unrolls to more than ``MAX_WINDOW_COPIES`` copies raises
:class:`WindowSizeError`.

:func:`barcode` reads barcodes off an orthogonalising column reduction
(singular cycles plus ``d y = z`` pairs, whose action drops are the finite
bar lengths).  The reduction keeps its cycles and pairs as bitmasks over the
window; :class:`UZBasis` decodes them into Novikov-scalar combos only when
asked, and :func:`barcode` reads only degrees and endpoint actions.  The
independent route via sublevel rank functions read off inclusion maps is
``brute_force_barcode`` in :mod:`floerbar.oracles`; tests hold the two
equal.  ``fraction_unroll`` there is the unroll that sorts rationals, and
``fraction_complex_from_json`` the parse and validation in Fractions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .f2 import Echelon
from .novikov import NovikovScalar, NovikovSpec, format_rational, parse_int, parse_ratio
from .persistence import Barcode, NEG_INF, _typed, _value

__all__ = [
    "Generator",
    "FilteredComplex",
    "ComplexValidationError",
    "GammaUndefinedError",
    "WindowSizeError",
    "MAX_WINDOW_COPIES",
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


class WindowSizeError(ValueError):
    """A degree window unrolls to more copies than the reduction accepts."""


# The reduction's columns are bitmasks as wide as the window, so its memory
# grows with the square of the copy count.  A window of the bundled
# equator-pair complex at the cap takes 0.3 s and 62 MiB peak (Python 3.11,
# 2-CPU x86-64); one of a billion degrees would exhaust memory.
MAX_WINDOW_COPIES = 20_000


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


class UZBasis:
    """Output of the orthogonalising reduction: singular cycles and pairs.

    ``cycle_levels`` holds ``(degree, action)`` per singular cycle and
    ``pair_levels`` holds ``(degree of z, act z, act y)`` per pair; both are
    decoded on first access from ``cycle_keys`` and ``pair_keys``, the same
    with each action an int key over ``scale``.  The combos of ``singular``
    and ``pairs`` are decoded from the reduction's bitmasks on first access.
    """

    def __init__(self, window: "_UnrolledWindow",
                 cycles: Sequence[Tuple[int, int, int]],
                 pairs: Sequence[Tuple[int, int, int, int, int]]):
        self._window = window
        self.scale = window.scale
        self._cycle_masks = tuple(mask for mask, _d, _a in cycles)
        self.cycle_keys = tuple((deg, act) for _m, deg, act in cycles)
        self._pair_masks = tuple((ymask, zmask) for ymask, zmask, _d, _z, _y in pairs)
        self.pair_keys = tuple((deg, za, ya) for _y, _z, deg, za, ya in pairs)

    @functools.cached_property
    def cycle_levels(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple((deg, Fraction(act, self.scale)) for deg, act in self.cycle_keys)

    @functools.cached_property
    def pair_levels(self) -> Tuple[Tuple[int, Fraction, Fraction], ...]:
        s = self.scale
        return tuple((deg, Fraction(za, s), Fraction(ya, s)) for deg, za, ya in self.pair_keys)

    @functools.cached_property
    def singular(self) -> Tuple[Tuple[Combo, int, Fraction], ...]:
        """``(cycle, degree, action)`` per singular cycle."""
        decode = self._window.combo_from_mask
        return tuple((decode(mask), deg, act)
                     for mask, (deg, act) in zip(self._cycle_masks, self.cycle_levels))

    @functools.cached_property
    def pairs(self) -> Tuple[UZPair, ...]:
        decode = self._window.combo_from_mask
        return tuple(UZPair(y=decode(ymask), z=decode(zmask), degree=deg,
                            y_action=ya, z_action=za)
                     for (ymask, zmask), (deg, za, ya)
                     in zip(self._pair_masks, self.pair_levels))

    def torsion_exponents(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(k, self.scale)
                     for k in sorted(ya - za for _d, za, ya in self.pair_keys))


class FilteredComplex:
    """Finite generator set with an action-decreasing differential.

    ``rows`` maps each generator id, in generator order, to ``(degree,
    key)``: its action is ``key / scale``, ``scale`` being the least common
    denominator of the actions and the action step, and ``istep`` is the
    action step times ``scale`` (0 without a spec).  ``generators`` and
    ``by_id`` decode them into :class:`Generator` objects when first read; a
    complex built from :class:`Generator` objects keeps those instead.

    ``FilteredComplex(spec, generators, differential)`` takes
    :class:`Generator` objects and :meth:`from_ratios` takes ``(gid, degree,
    numerator, denominator)`` rows; both build the same keys.  Duplicate ids
    and differential terms naming unknown generators raise a plain
    ``ValueError``; a broken degree, action or ``d**2 = 0`` invariant raises
    :class:`ComplexValidationError`.
    """

    def __init__(self, spec: Optional[NovikovSpec],
                 generators: Sequence[Generator],
                 differential: Mapping[str, Sequence[Tuple[NovikovScalar, str]]]):
        generators = tuple(generators)
        self._build(spec, [(g.gid, g.degree, g.action.numerator, g.action.denominator)
                           for g in generators], differential)
        self.generators = generators  # what decoding the keys would give

    @classmethod
    def from_ratios(cls, spec: Optional[NovikovSpec],
                    generators: Sequence[Tuple[str, int, int, int]],
                    differential: Mapping[str, Sequence[Tuple[NovikovScalar, str]]]
                    ) -> "FilteredComplex":
        """The complex whose generators are ``(gid, degree, numerator,
        denominator)``, each action a reduced ratio with a positive
        denominator, as :func:`~floerbar.novikov.parse_ratio` returns it."""
        cx = cls.__new__(cls)
        cx._build(spec, generators, differential)
        return cx

    def _build(self, spec, generators, differential) -> None:
        self.spec = spec
        step = spec.action_step if spec is not None else Fraction(0)
        self.scale = scale = math.lcm(step.denominator,
                                      *(den for _g, _d, _n, den in generators))
        self.istep = step.numerator * (scale // step.denominator)
        self.rows = {gid: (deg, num * (scale // den)) for gid, deg, num, den in generators}
        if len(self.rows) != len(generators):
            raise ValueError("generator ids must be unique")
        rows = self.rows
        diff: Dict[str, Combo] = {}
        for gid, terms in differential.items():
            if gid not in rows:
                raise ValueError(f"differential on unknown generator {gid!r}")
            merged: Dict[str, NovikovScalar] = {}
            for coeff, target in terms:
                if target not in rows:
                    raise ValueError(f"differential hits unknown generator {target!r}")
                if target in merged:
                    merged[target] = merged[target] + coeff
                else:
                    merged[target] = coeff
            # targets are unique, so sorting never compares coefficients
            entries = tuple((c, t) for t, c in sorted(merged.items()) if c.exponents)
            if entries:
                diff[gid] = entries
        self.differential = diff
        self.validate()

    @functools.cached_property
    def generators(self) -> Tuple[Generator, ...]:
        s = self.scale
        return tuple(Generator(gid, deg, Fraction(key, s))
                     for gid, (deg, key) in self.rows.items())

    @functools.cached_property
    def by_id(self) -> Dict[str, Generator]:
        return {g.gid: g for g in self.generators}

    # -- basic structure ---------------------------------------------------

    def d(self, gid: str) -> Combo:
        return self.differential.get(gid, ())

    def degree_span(self) -> Tuple[int, int]:
        degs = [deg for deg, _key in self.rows.values()]
        return (min(degs), max(degs) + 1) if degs else (0, 1)

    def default_degree_window(self) -> Tuple[int, int]:
        """One fundamental domain of the quantum variable, or everything when
        the coefficients are trivial."""
        if self.spec is None:
            return self.degree_span()
        return (0, self.spec.degree_step)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check the three structural invariants on the int keys; raise on
        the first violation.  Run by the constructor."""
        spec, rows, istep = self.spec, self.rows, self.istep
        dstep = spec.degree_step if spec else 0
        for gid, terms in self.differential.items():
            gdeg, gkey = rows[gid]
            for coeff, target in terms:
                if coeff.spec is not spec and coeff.spec != spec:
                    raise ComplexValidationError(
                        f"coefficient spec mismatch in d({gid})")
                ydeg, ykey = rows[target]
                for e in coeff.exponents:
                    if ydeg + e * dstep != gdeg - 1:
                        raise ComplexValidationError(
                            f"degree mismatch: term of d({gid}) lands in degree "
                            f"{ydeg + e * dstep}, expected {gdeg - 1}")
                    if not ykey + e * istep < gkey:
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
        the given half-open windows, ordered by action, then id, then copy
        index.  At least one window must be supplied; spec-less complexes
        only ever have the ``j = 0`` copy."""
        scale = self.scale
        return [(gid, j, deg, Fraction(key, scale)) for gid, j, deg, key
                in self._unrolled(self._copy_ranges(action_window, degree_window))]

    def _copy_ranges(self, action_window: Optional[Tuple[Fraction, Fraction]] = None,
                     degree_window: Optional[Tuple[int, int]] = None
                     ) -> List[Tuple[str, int, int, int, int]]:
        """``(gid, degree, key, jlo, jhi)`` per generator: its copies inside
        the windows are ``jlo <= j <= jhi`` (none when ``jlo > jhi``)."""
        if action_window is None and degree_window is None:
            raise ValueError("unroll needs an action window or a degree window")
        if action_window is not None and not (action_window[0] < action_window[1]):
            raise ValueError("empty action window")
        if degree_window is not None and not (degree_window[0] < degree_window[1]):
            raise ValueError("empty degree window")
        # an action bound p/q compares with key/scale as p*scale with key*q
        bounds = None if action_window is None else \
            [(x.numerator * self.scale, x.denominator) for x in action_window]
        return [(gid, deg, key, *self._copy_range(deg, key, bounds, degree_window))
                for gid, (deg, key) in self.rows.items()]

    def _copy_range(self, deg: int, key: int, bounds, degree_window) -> Tuple[int, int]:
        if self.spec is None:
            ok = True
            if bounds is not None:
                (lo, qlo), (hi, qhi) = bounds
                ok = lo <= key * qlo and key * qhi < hi
            if degree_window is not None:
                ok = ok and degree_window[0] <= deg < degree_window[1]
            return (0, 0) if ok else (0, -1)
        jlo, jhi = None, None
        if degree_window is not None:
            # degree + j*dstep in [dlo, dhi)
            dlo, dhi = degree_window
            dstep = self.spec.degree_step
            jlo = _ceil_div(dlo - deg, dstep)
            jhi = (dhi - 1 - deg) // dstep
        if bounds is not None:
            # key + j*istep in [lo/qlo, hi/qhi)
            (lo, qlo), (hi, qhi) = bounds
            alo = _ceil_div(lo - key * qlo, self.istep * qlo)
            ahi = _ceil_div(hi - key * qhi, self.istep * qhi) - 1
            jlo = alo if jlo is None else max(jlo, alo)
            jhi = ahi if jhi is None else min(jhi, ahi)
        return jlo, jhi

    def _unrolled(self, ranges: Sequence[Tuple[str, int, int, int, int]]
                  ) -> List[Tuple[str, int, int, int]]:
        """The copies ``(gid, j, degree, key)`` of ``ranges`` in filtration
        order: each copy's action is ``key / scale``."""
        dstep = self.spec.degree_step if self.spec else 0
        istep = self.istep
        keyed = []
        for gid, deg, key, jlo, jhi in ranges:
            for j in range(jlo, jhi + 1):
                keyed.append((key + j * istep, gid, j, deg + j * dstep))
        keyed.sort()  # (key, gid, j) is unique, so the degree is never compared
        return [(gid, j, deg, key) for key, gid, j, deg in keyed]

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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# ---------------------------------------------------------------------------
# reduction core
# ---------------------------------------------------------------------------


class _UnrolledWindow:
    """Unrolled generators for degrees [lo-1, hi], indexed in filtration order:
    ``items`` holds ``(gid, j, degree, key)``, the action being ``key /
    scale``.

    Raises :class:`WindowSizeError`, before building any copy, when there
    would be more than ``MAX_WINDOW_COPIES`` of them."""

    def __init__(self, cx: FilteredComplex, degree_window: Tuple[int, int]):
        self.cx = cx
        self.scale = cx.scale
        self.lo, self.hi = degree_window
        if self.cx.spec is None:
            span = cx.degree_span()
            self.lo, self.hi = max(self.lo, span[0]), min(self.hi, span[1])
            if self.lo >= self.hi:
                self.items, self.index = [], {}
                return
        ranges = cx._copy_ranges(degree_window=(self.lo - 1, self.hi + 1))
        count = sum(jhi - jlo + 1 for _g, _d, _k, jlo, jhi in ranges if jlo <= jhi)
        if count > MAX_WINDOW_COPIES:
            raise WindowSizeError(
                f"window size cap exceeded: degrees [{self.lo}, {self.hi}) unroll to "
                f"{count} copies, more than {MAX_WINDOW_COPIES}")
        self.items = cx._unrolled(ranges)
        self.index = {(gid, j): i for i, (gid, j, _, _) in enumerate(self.items)}

    def degree(self, i: int) -> int:
        return self.items[i][2]

    def action(self, i: int) -> Fraction:
        return self.actions[i]

    @functools.cached_property
    def actions(self) -> List[Fraction]:
        return [Fraction(key, self.scale) for _g, _j, _d, key in self.items]

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
            pairs.append((combo, col, zdeg, w.items[p][3], w.items[w.mask_top(combo)][3]))
    singular = []
    for combo, i in cycles:
        if i in owner:
            continue
        deg = w.degree(i)
        if lo <= deg < hi:
            singular.append((combo, deg, w.items[i][3]))
    return UZBasis(w, singular, pairs)


def barcode(cx: FilteredComplex,
            degree_window: Optional[Tuple[int, int]] = None) -> Barcode:
    """Persistence barcode of the window: ``(act z, act y]`` per pair in the
    degree of ``z`` and ``(act x, inf)`` per singular cycle."""
    basis = uz_reduce(cx, degree_window)
    rows = [(deg, za, ya, 1) for deg, za, ya in basis.pair_keys]
    rows += [(deg, key, None, 1) for deg, key in basis.cycle_keys]
    return Barcode.from_rows(rows, basis.scale)


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
        if gid not in cx.rows:
            raise ComplexValidationError(f"unknown generator {gid!r} in cycle")
        if coeff.spec != cx.spec:
            raise ComplexValidationError("cycle coefficient spec mismatch")
        for e in coeff.exponents:
            copies.append((gid, e))
    if not copies:
        return NEG_INF
    dstep = cx.spec.degree_step if cx.spec else 0
    degs = {cx.rows[gid][0] + e * dstep for gid, e in copies}
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
    ``hi`` the smaller and larger degree.  Read on the keyed rows."""

    def left_endpoint(deg: int):
        found = [(row[1], row[3]) for row in bc.rows if row[0] == deg and row[2] is None]
        count = sum(m for _l, m in found)
        if count != 1:
            raise GammaUndefinedError(
                f"degree {deg} carries {count} infinite bars, need exactly 1")
        return found[0][0]

    fund, point = left_endpoint(fund_degree), left_endpoint(point_degree)
    return _value(_typed(fund - point, fund, point), bc.scale, bc.code)


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
    the wrong type raises ValueError.  Actions are read as reduced int
    ratios, and equal coefficient strings share one parsed scalar."""
    if not isinstance(data, dict):
        raise ValueError("a complex is a JSON object")
    if not isinstance(data.get("differential", {}), dict):
        raise ValueError("differential must be a JSON object")
    spec = NovikovSpec.from_json(data["spec"]) if data.get("spec") else None
    gens = [(_generator_id(item["id"]), parse_int(item["degree"]), *parse_ratio(item["action"]))
            for item in data["generators"]]
    scalars: Dict[str, NovikovScalar] = {}

    def scalar(text) -> NovikovScalar:
        if type(text) is not str:
            return NovikovScalar.parse(text, spec)  # raises the type error
        if text not in scalars:
            scalars[text] = NovikovScalar.parse(text, spec)
        return scalars[text]

    diff = {
        gid: [(scalar(coeff), target) for coeff, target in terms]
        for gid, terms in data.get("differential", {}).items()
    }
    return FilteredComplex.from_ratios(spec, gens, diff)


def _generator_id(gid) -> str:
    if not isinstance(gid, str):
        raise ValueError(f"a generator id must be a string, not {gid!r}")
    return gid
