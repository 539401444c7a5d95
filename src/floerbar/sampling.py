"""Seeded random instances: complexes with known barcodes, barcodes, and
admissible sphere diagrams.

Seeded draws never change: benchmark inputs and randomized tests are drawn
from these samplers, so a faster sampler must make exactly the draws of the
one it replaces (``tests/test_sampling.py`` holds digests of fixed seeds).

Random filtered complexes are produced in normal form -- a planted partial
matching ``d y = q**e z`` whose barcode is known by construction -- and then
scrambled by random filtered basis changes (column plus matching row
operations), which preserve validity, ``d*d = 0`` and the barcode.  That
gives every randomized test three independent answers to compare: the
planted barcode, the reduction output and the rank-function oracle.  The
partner scan compares int keys, every action over one common denominator,
and looks only at the three degree classes that can hold a partner of ``y``.

Random unroll cases are differential-free complexes with tied and negative
actions and the windows to unroll them in, for checking the order of the
unrolled copies.

Random sphere diagrams come from closed meanders: a pair of non-crossing
chord matchings whose union is a single cycle, with areas drawn exactly from
the admissibility polytope (both curves bisect the sphere).

Random radial spectra come from one-kink profiles (a tent or a valley) with
non-integer slopes, in dimension 1 with Maslov number 2 or dimension 2 with
Maslov number 4, and a rational, pi-valued or mixed disk area.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .complexes import FilteredComplex, Generator
from .diagrams import TwoCurveDiagram, sphere_diagram_from_meander, _Geometry
from .exactpi import PiRational
from .novikov import LagrangianParams, NovikovScalar, NovikovSpec
from .persistence import Bar, Barcode, INF
from .radial import GeneratorSpectrum, RadialProfile, generators

__all__ = [
    "random_barcode",
    "random_complex",
    "perturb_actions",
    "random_unroll_case",
    "random_meander",
    "random_admissible_areas",
    "random_sphere_diagram",
    "random_tent_spectrum",
]


def _random_fraction(rng: random.Random, lo: int = 0, hi: int = 4,
                     max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_barcode(rng: random.Random, max_bars: int = 6,
                   degrees: Sequence[int] = (0, 1, 2)) -> Barcode:
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        left = _random_fraction(rng, -2, 4)
        degree = rng.choice(list(degrees))
        if rng.random() < 0.25:
            bars.append(Bar(left, INF, degree))
        else:
            length = _random_fraction(rng, 0, 3) + Fraction(1, 13)
            bars.append(Bar(left, left + length, degree, rng.randint(1, 2)))
    return Barcode(bars)


def random_complex(rng: random.Random, num_generators: int = 8,
                   spec: Optional[NovikovSpec] = None,
                   scramble_rounds: int = 12,
                   ) -> Tuple[FilteredComplex, Barcode]:
    """A valid complex with its barcode known by construction.

    Returns ``(complex, expected_barcode)``; the barcode is stated in the
    default degree window of the complex.

    Generators are visited in a random order, and each unpaired ``y`` is
    paired, with probability 3/4, to a random unpaired ``z`` and exponent
    ``e`` such that ``d y = q**e z`` drops degree by one and action strictly.
    The partner scan runs on int keys, every action over one common
    denominator.  A partner lies in one of the degree classes
    ``deg y - 1 - e * degree_step``, ``e`` in (-1, 0, 1), and the degree of
    ``z`` fixes ``e``; each class keeps its unpaired generators sorted on
    key, so its candidates are the prefix below ``key(y) - e * step``.  The
    candidates are then sorted by generator index, the order in which
    :func:`floerbar.oracles.fraction_random_complex` finds them by trying
    every ``(z, e)`` in Fractions, so both make the same draws.
    """
    if spec is None:
        spec = NovikovSpec("q", 2, Fraction(1, 2))
    degree_lo, degree_hi = 0, spec.degree_step + 1
    gens = []
    for i in range(num_generators):
        gens.append(Generator(
            f"g{i}", rng.randrange(degree_lo, degree_hi + 1), _random_fraction(rng)))

    dstep, astep = spec.degree_step, spec.action_step
    scale = math.lcm(astep.denominator, *(g.action.denominator for g in gens))
    istep = astep.numerator * (scale // astep.denominator)
    keys = [g.action.numerator * (scale // g.action.denominator) for g in gens]
    # degree -> the unpaired generators of that degree, sorted on (key,
    # index), as a list of keys and the parallel list of indices
    classes: Dict[int, Tuple[List[int], List[int]]] = {}
    for j in sorted(range(num_generators), key=keys.__getitem__):
        class_keys, class_indices = classes.setdefault(gens[j].degree, ([], []))
        class_keys.append(keys[j])
        class_indices.append(j)

    def take(j: int) -> None:
        class_keys, class_indices = classes[gens[j].degree]
        at = class_indices.index(j, bisect.bisect_left(class_keys, keys[j]))
        del class_keys[at], class_indices[at]

    diff: Dict[str, List[Tuple[NovikovScalar, str]]] = {}
    paired = [False] * num_generators
    planted: List[Tuple[Generator, Generator, int]] = []
    order = list(range(num_generators))
    rng.shuffle(order)
    for i in order:
        if paired[i]:
            continue
        y, key = gens[i], keys[i]
        candidates: List[int] = []
        for e in (-1, 0, 1):
            class_keys, class_indices = classes.get(y.degree - 1 - e * dstep, ((), ()))
            candidates += class_indices[:bisect.bisect_left(class_keys, key - e * istep)]
        if dstep == 1:
            # the class e = -1 is y's own, and y lies below its own bound
            candidates.remove(i)
        if candidates and rng.random() < 0.75:
            candidates.sort()
            j = rng.choice(candidates)
            z = gens[j]
            e = (y.degree - 1 - z.degree) // dstep
            diff[y.gid] = [(NovikovScalar.monomial(spec, e), z.gid)]
            paired[i] = paired[j] = True
            take(i)
            take(j)
            planted.append((y, z, e))

    expected = _planted_barcode(spec, planted,
                                [g for g, p in zip(gens, paired) if not p])
    return _scramble(rng, spec, gens, diff, scramble_rounds), expected


def _planted_barcode(spec: NovikovSpec, planted: Sequence[Tuple[Generator, Generator, int]],
                     unpaired: Sequence[Generator]) -> Barcode:
    step, area = spec.degree_step, spec.action_step
    bars = []
    for y, z, e in planted:
        raw_deg = z.degree + e * step
        t = ((raw_deg % step) - raw_deg) // step
        bars.append(Bar(z.action + (e + t) * area, y.action + t * area,
                        raw_deg % step))
    for g in unpaired:
        t = ((g.degree % step) - g.degree) // step
        bars.append(Bar(g.action + t * area, INF, g.degree % step))
    return Barcode(bars)


def _scramble(rng: random.Random, spec: NovikovSpec, gens: Sequence[Generator],
              differential: Mapping[str, Sequence[Tuple[NovikovScalar, str]]],
              rounds: int) -> FilteredComplex:
    """Random filtered basis changes: for admissible (g, h, e) apply the
    column operation d(g) += q**e d(h) together with the row operation
    "h appears wherever g does, scaled by q**e".  Only the result is built
    as a (validated) complex; without generators no round draws."""
    matrix: Dict[str, Dict[str, NovikovScalar]] = {
        gid: {t: c for c, t in terms} for gid, terms in differential.items()
    }

    def add_term(row: Dict[str, NovikovScalar], coeff: NovikovScalar, target: str):
        cur = row.get(target)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            row.pop(target, None)
        else:
            row[target] = new

    for _ in range(rounds if gens else 0):
        g, h = rng.choice(gens), rng.choice(gens)
        if g.gid == h.gid:
            continue
        ok_e = None
        for e in (-1, 0, 1):
            if h.degree + e * spec.degree_step == g.degree and \
                    h.action + e * spec.action_step < g.action:
                ok_e = e
                break
        if ok_e is None:
            continue
        lam = NovikovScalar.monomial(spec, ok_e)
        # column: d(g) += lam * d(h)
        for t, c in list(matrix.get(h.gid, {}).items()):
            add_term(matrix.setdefault(g.gid, {}), lam * c, t)
        if g.gid in matrix and not matrix[g.gid]:
            del matrix[g.gid]
        # rows: every d(x) containing g picks up lam * that coefficient on h
        for x, row in matrix.items():
            if g.gid in row:
                add_term(row, lam * row[g.gid], h.gid)
        matrix = {gid: row for gid, row in matrix.items() if row}

    return FilteredComplex(spec, gens,
                           {gid: [(c, t) for t, c in row.items()]
                            for gid, row in matrix.items()})


def perturb_actions(rng: random.Random, cx: FilteredComplex, delta: Fraction
                    ) -> Tuple[FilteredComplex, Fraction]:
    """Move every generator action by at most ``delta`` while keeping the
    complex valid; returns the perturbed complex and the bound actually used
    (clamped below a third of the smallest action drop)."""
    slack = None
    astep = cx.spec.action_step if cx.spec else Fraction(0)
    for gid, terms in cx.differential.items():
        x = cx.by_id[gid]
        for coeff, target in terms:
            y = cx.by_id[target]
            for e in coeff.exponents:
                drop = x.action - y.action - e * astep
                slack = drop if slack is None else min(slack, drop)
    used = Fraction(delta)
    if slack is not None:
        used = min(used, slack / 3)
    gens = []
    for g in cx.generators:
        den = rng.randint(1, 9)
        num = rng.randint(-den, den)
        gens.append(Generator(g.gid, g.degree, g.action + used * Fraction(num, den)))
    return FilteredComplex(cx.spec, gens, cx.differential), used


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def _random_noncrossing_matching(rng: random.Random, points: Sequence[int]
                                 ) -> List[Tuple[int, int]]:
    if not points:
        return []
    first = points[0]
    # partner at odd offset keeps both sides even
    idx = rng.choice(range(1, len(points), 2))
    pairs = [(first, points[idx])]
    pairs += _random_noncrossing_matching(rng, points[1:idx])
    pairs += _random_noncrossing_matching(rng, points[idx + 1:])
    return pairs


def random_meander(rng: random.Random, crossings: int
                   ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Two non-crossing matchings on 1..crossings whose union is one cycle."""
    if crossings < 2 or crossings % 2:
        raise ValueError("the number of crossings must be even and at least 2")
    pts = list(range(1, crossings + 1))
    while True:
        north = {a: b for a, b in _random_noncrossing_matching(rng, pts)}
        north.update({b: a for a, b in list(north.items())})
        south = {a: b for a, b in _random_noncrossing_matching(rng, pts)}
        south.update({b: a for a, b in list(south.items())})
        # single cycle?
        seen = {1}
        cur, use_north = 1, True
        while True:
            cur = north[cur] if use_north else south[cur]
            use_north = not use_north
            if cur == 1 and use_north:
                break
            seen.add(cur)
        if len(seen) == crossings:
            return north, south


def _split_total(rng: random.Random, total: Fraction, parts: int) -> List[Fraction]:
    weights = [rng.randint(1, 99) for _ in range(parts)]
    s = sum(weights)
    return [total * Fraction(w, s) for w in weights]


def random_admissible_areas(rng: random.Random, diagram: TwoCurveDiagram
                            ) -> Dict[str, Fraction]:
    """Exact positive areas making both curves bisect the unit-area sphere."""
    geo = _Geometry(diagram)
    k_sides = sorted(geo.face_components("L"), key=min)
    l_sides = sorted(geo.face_components("K"), key=min)
    if len(k_sides) != 2 or len(l_sides) != 2:
        raise ValueError("each curve must have exactly two sides")
    classes: Dict[Tuple[int, int], List[str]] = {}
    for name in diagram.faces:
        ks = 0 if name in k_sides[0] else 1
        ls = 0 if name in l_sides[0] else 1
        classes.setdefault((ks, ls), []).append(name)
    if len(classes) != 4:
        raise ValueError("expected all four side classes to be nonempty")
    s = Fraction(rng.randint(1, 79), 160)  # in (0, 1/2)
    totals = {(0, 0): s, (0, 1): Fraction(1, 2) - s,
              (1, 0): Fraction(1, 2) - s, (1, 1): s}
    areas: Dict[str, Fraction] = {}
    for key, names in classes.items():
        names.sort()
        for name, part in zip(names, _split_total(rng, totals[key], len(names))):
            areas[name] = part
    return areas


def random_sphere_diagram(rng: random.Random, crossings: int = 4) -> TwoCurveDiagram:
    """Admissible random sphere diagram: random closed meander, random exact
    areas satisfying both bisection constraints."""
    north, south = random_meander(rng, crossings)
    placeholder = {f"F{i}": Fraction(1) for i in range(1, crossings + 3)}
    skeleton = sphere_diagram_from_meander(north, south, areas=placeholder)
    return replace(skeleton, areas=random_admissible_areas(rng, skeleton))


# ---------------------------------------------------------------------------
# radial spectra
# ---------------------------------------------------------------------------

_DISK_AREAS = (PiRational.of(Fraction(1, 2)), PiRational.of(Fraction(3, 5)),
               PiRational.pi(Fraction(1, 7)), PiRational.pi(Fraction(1, 9)),
               PiRational(Fraction(1, 4), Fraction(1, 13)),
               PiRational(Fraction(1, 5), Fraction(1, 11)))


def _random_slope(rng: random.Random) -> Fraction:
    """A slope in (-3, 3) that is not an integer."""
    return rng.choice((1, -1)) * (rng.randint(0, 2) + Fraction(rng.randint(1, 9), 10))


_MAX_TENT_GENERATORS = 8


def random_tent_spectrum(rng: random.Random) -> GeneratorSpectrum:
    """Spectrum of a random one-kink profile with at most
    ``_MAX_TENT_GENERATORS`` generators, a cap that bounds the cost of the
    brute-force feasible-barcode oracle (exponential in that count):
    dimension 1 and Maslov number 2 or dimension 2 and Maslov number 4,
    disk area rational, a multiple of pi or both."""
    dim, maslov = rng.choice(((1, 2), (2, 4)))
    params = LagrangianParams(dim, maslov, rng.choice(_DISK_AREAS))
    while True:
        capacity = rng.choice((Fraction(1, 2), Fraction(3, 4), Fraction(1)))
        mid = capacity * Fraction(rng.randint(2, 3), 5)
        base = Fraction(-rng.randint(0, 20), 20)
        top = base + _random_slope(rng) * mid
        end = top + _random_slope(rng) * (capacity - mid)
        exterior = rng.sample(range(2 * dim), rng.randint(0, 2))
        profile = RadialProfile(
            breakpoints=tuple((PiRational.of(r), PiRational.of(f)) for r, f in
                              ((0, base), (mid, top), (capacity, end))),
            exterior=tuple(exterior))
        spectrum = generators(profile, params)
        if len(spectrum.entries) <= _MAX_TENT_GENERATORS:
            return spectrum


def random_unroll_case(rng: random.Random) -> Tuple[FilteredComplex, Optional[Tuple[Fraction, Fraction]],
                                  Optional[Tuple[int, int]]]:
    """A differential-free complex and windows to unroll it in, returned as
    ``(complex, action_window, degree_window)``.

    The spec is ``None`` or has an action step of denominator 1, 2, 3 or 7.
    Actions may be negative.  Half of them are one of three pool values
    plus -1, 0 or 1 action steps, so copies of different generators often
    share an action, at equal or different copy indices.  The windows are
    an action window, a degree window or both.
    """
    spec, astep = None, Fraction(0)
    if rng.random() < 0.8:
        den = rng.choice((1, 2, 3, 7))
        num = rng.choice([n for n in range(1, 3 * den + 1) if math.gcd(n, den) == 1])
        spec = NovikovSpec("q", rng.randint(1, 3), Fraction(num, den))
        astep = spec.action_step
    pool = [_random_fraction(rng, -3, 3) for _ in range(3)]

    def action() -> Fraction:
        if rng.random() < 0.5:
            return rng.choice(pool) + rng.randint(-1, 1) * astep
        return _random_fraction(rng, -3, 3)

    gens = [Generator(f"g{i}", rng.randint(-2, 3), action())
            for i in range(rng.randint(1, 8))]
    kind = rng.randrange(3)  # 0: action window, 1: degree window, 2: both
    action_window = degree_window = None
    if kind != 1:
        lo = _random_fraction(rng, -4, 3)
        action_window = (lo, lo + _random_fraction(rng, 0, 4) + Fraction(1, 11))
    if kind != 0:
        lo = rng.randint(-4, 3)
        degree_window = (lo, lo + rng.randint(1, 6))
    return FilteredComplex(spec, gens, {}), action_window, degree_window
