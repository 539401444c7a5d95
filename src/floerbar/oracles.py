"""Independent oracles: slow, exhaustive routes to the answers of the fast
code, kept to prove it right.

Tests, ``floerbar check`` and the CLI's ``--oracle`` flags compare against
them; no default code path imports this module.

* ``brute_force_barcode`` reads barcodes off sublevel rank functions,
  independent of the reduction pairing in :mod:`floerbar.complexes`.
* ``brute_force_bottleneck`` exhausts all partial matchings.  It is defined
  in :mod:`floerbar.persistence` and re-exported here.
* ``brute_force_shifted_bottleneck`` scores every candidate shift with one
  full bottleneck computation.
* ``brute_force_lunes`` solves each lune candidate's winding function from
  scratch, where :func:`floerbar.diagrams.enumerate_lunes` solves once per
  diagram.
* ``brute_force_feasible_barcodes`` builds and hashes a ``Barcode`` for every
  matching, where :func:`floerbar.radial.feasible_barcodes` interns bars;
  ``rank_prescriptions`` lists the rank prescriptions the two are compared
  on.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from .complexes import FilteredComplex, _UnrolledWindow
from .diagrams import DiagramError, Lune, TwoCurveDiagram, _Geometry, _validated_geometry
from .exactpi import PiRational
from .f2 import Echelon
from .persistence import (INF, Bar, Barcode, _ShiftCandidates, _abs, _all_endpoints,
                          _halve, bottleneck_distance, brute_force_bottleneck,
                          shift_barcode)
from .radial import GeneratorSpectrum, InfeasibleRanksError, _orbits

__all__ = [
    "OracleSizeError",
    "brute_force_barcode",
    "brute_force_bottleneck",
    "brute_force_shifted_bottleneck",
    "brute_force_lunes",
    "brute_force_feasible_barcodes",
    "rank_prescriptions",
]


# ---------------------------------------------------------------------------
# complexes: sublevel rank functions
# ---------------------------------------------------------------------------


class OracleSizeError(ValueError):
    """The complex unrolls to more generators than the rank oracle accepts."""


def brute_force_barcode(cx: FilteredComplex,
                        degree_window: Optional[Tuple[int, int]] = None,
                        max_unrolled: int = 96) -> Barcode:
    """Barcode read from ranks of sublevel inclusion maps.

    For each degree in the window, compute ``rank(H^{<=s} -> H^{<=t})`` over
    all pairs of spectrum values by Gaussian elimination, and recover bar
    multiplicities by inclusion-exclusion.  Independent of the reduction
    pairing; intended for small complexes.
    """
    win = degree_window or cx.default_degree_window()
    window = _UnrolledWindow(cx, win)
    if len(window.items) > max_unrolled:
        raise OracleSizeError(
            f"oracle size cap exceeded: {len(window.items)} unrolled generators")
    bars = []
    for deg in range(window.lo, window.hi):
        bars.extend(_degree_bars(window, deg))
    return Barcode(bars)


def _degree_bars(window: _UnrolledWindow, deg: int) -> List[Bar]:
    gens_d = [i for i, it in enumerate(window.items) if it[2] == deg]
    gens_up = [i for i, it in enumerate(window.items) if it[2] == deg + 1]
    if not gens_d:
        return []
    levels = sorted({window.action(i) for i in gens_d} |
                    {window.action(i) for i in gens_up})
    n = len(levels)

    def cycles_at(s) -> List[int]:
        pairs = [(1 << i, window.boundary_mask(i))
                 for i in gens_d if window.action(i) <= s]
        return _kernel_basis(pairs)

    def boundaries_at(t) -> List[int]:
        out = []
        for i in gens_up:
            if window.action(i) <= t:
                col = window.boundary_mask(i)
                if col:
                    out.append(col)
        return out

    # rank of H^{<=levels[i]} -> H^{<=levels[j]}: dim Z_i - dim(Z_i cap B_j)
    Z = [cycles_at(s) for s in levels]
    B = [boundaries_at(t) for t in levels]
    B.append(boundaries_at(INF))

    zdims = [ _span_dim(z) for z in Z ]
    bdims = [ _span_dim(b) for b in B ]

    def rk(i: int, j: int) -> int:
        # j == n means "at infinity"
        if i < 0:
            return 0
        zi, bj = Z[i], B[j]
        joint = _span_dim(zi + bj)
        inter = zdims[i] + bdims[j] - joint
        return zdims[i] - inter

    bars = []
    for i in range(n):
        m_inf = rk(i, n) - rk(i - 1, n)
        if m_inf > 0:
            bars.append(Bar(levels[i], INF, deg, m_inf))
        for e in range(i, n):
            # alive on sublevels i..e, dead at e+1 => bar (levels[i], levels[e+1]]
            if e + 1 >= n:
                continue
            m = (rk(i, e) - rk(i, e + 1)) - (rk(i - 1, e) - rk(i - 1, e + 1))
            if m > 0:
                bars.append(Bar(levels[i], levels[e + 1], deg, m))
    return bars


def _span_dim(vectors: List[int]) -> int:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return len(ech)


def _kernel_basis(pairs: List[Tuple[int, int]]) -> List[int]:
    """Kernel combinations of a family of (combo, image) vectors over F2."""
    pivots: Dict[int, Tuple[int, int]] = {}
    kernel = []
    for combo, img in pairs:
        while img:
            p = img.bit_length() - 1
            if p in pivots:
                oimg, ocombo = pivots[p]
                img ^= oimg
                combo ^= ocombo
            else:
                break
        if img == 0:
            kernel.append(combo)
        else:
            pivots[img.bit_length() - 1] = (img, combo)
    return kernel


# ---------------------------------------------------------------------------
# persistence: every candidate shift
# ---------------------------------------------------------------------------


def _ascending_shifts(shifts: _ShiftCandidates) -> List:
    """All candidate shifts, in increasing order."""
    out = dict.fromkeys(shifts.diffs)
    for a, b in itertools.combinations(shifts.diffs, 2):
        out.setdefault(_halve(a + b))
    out.setdefault(shifts.zero)
    return sorted(out)


def brute_force_shifted_bottleneck(b1: Barcode, b2: Barcode,
                                   degree_sensitive: bool = True,
                                   check_slopes: bool = False):
    """Shift-quotient distance by scoring every candidate shift.

    Scores each endpoint difference ``e2 - e1``, each pairwise midpoint of
    two of them, and 0, with one full bottleneck computation, and returns
    the minimum with the smallest shift attaining it.  These exhaust the
    kinks of the piecewise linear shift-to-distance function (slopes -1, 0,
    1).  With ``check_slopes`` the slope bound is asserted by sampling
    between consecutive candidates: the distance there is
    1-Lipschitz-consistent and never undercuts the reported minimum.
    O(E^4) bottleneck computations for E endpoints.
    """
    e1, e2 = _all_endpoints(b1.expand()), _all_endpoints(b2.expand())
    if not e1 or not e2:
        return bottleneck_distance(b1, b2, degree_sensitive), Fraction(0)
    candidates = _ascending_shifts(_ShiftCandidates(e1, e2))

    def dist_at(c):
        return bottleneck_distance(b1, shift_barcode(b2, c), degree_sensitive)

    best = None
    best_c = None
    values = []
    for c in candidates:
        d = dist_at(c)
        values.append(d)
        if best is None or d < best:
            best, best_c = d, c
    if check_slopes:
        for (c0, d0), (c1, d1) in zip(zip(candidates, values),
                                      zip(candidates[1:], values[1:])):
            mid = _halve(c0 + c1)
            dm = dist_at(mid)
            if dm is not INF and best is not INF:
                assert not (dm < best), "shift candidate set missed a minimum"
            if INF not in (d0, dm):
                assert not (_abs(dm - d0) > _abs(mid - c0)), "slope bound violated"
            if INF not in (d1, dm):
                assert not (_abs(d1 - dm) > _abs(c1 - mid)), "slope bound violated"
    return best, best_c


# ---------------------------------------------------------------------------
# diagrams: the per-candidate winding solve
# ---------------------------------------------------------------------------


def _path_traversals(geo: _Geometry, curve: str, start: int, end: int,
                     direction: int, windings: int) -> Dict[int, int]:
    """Net arc traversal counts of the monotone path start -> end."""
    m = geo.m
    pos = geo.pos[curve]
    counts: Dict[int, int] = {}
    i, j = pos[start], pos[end]
    if direction == 1:
        steps = (j - i) % m
        arcs = [(i + t) % m for t in range(steps)]
    else:
        steps = (i - j) % m
        arcs = [(i - 1 - t) % m for t in range(steps)]
    for a in arcs:
        counts[a] = counts.get(a, 0) + direction
    for a in range(m):
        counts[a] = counts.get(a, 0) + direction * windings
    return {a: c for a, c in counts.items() if c}


def _solve_winding(geo: _Geometry, traversals: Dict[Tuple[str, int], int]
                   ) -> Optional[Dict[str, int]]:
    """Solve w(left) - w(right) = net traversal on every arc; None if inconsistent."""
    faces = list(geo.d.faces)
    w: Dict[str, int] = {faces[0]: 0}
    frontier = [faces[0]]
    adjacency: Dict[str, List[Tuple[str, int]]] = {name: [] for name in faces}
    for curve in ("K", "L"):
        for i in range(geo.m):
            n = traversals.get((curve, i), 0)
            lf, rf = geo.left[(curve, i)], geo.right[(curve, i)]
            adjacency[rf].append((lf, n))
            adjacency[lf].append((rf, -n))
    while frontier:
        cur = frontier.pop()
        for nbr, jump in adjacency[cur]:
            val = w[cur] + jump
            if nbr in w:
                if w[nbr] != val:
                    return None
            else:
                w[nbr] = val
                frontier.append(nbr)
    if len(w) != len(faces):
        raise DiagramError("face adjacency graph is disconnected")
    return w


def _lune_index_numerator(geo: _Geometry, w: Dict[str, int], x: int, y: int) -> int:
    """4 * (m_x + m_y): twice the sum of all eight corner windings."""
    return (2 * sum(w[f] for f in geo.corners[x])
            + 2 * sum(w[f] for f in geo.corners[y])) // 2


def brute_force_lunes(d: TwoCurveDiagram, max_wind: int = 2) -> Tuple[Lune, ...]:
    """Oracle for ``enumerate_lunes``: the same candidates, each with its
    winding function solved from scratch.

    For each ordered point pair and each pair of monotone boundary paths
    (along K from x to y, along L from y to x), the arc traversal counts are
    tabulated, the face winding function is solved from the jump conditions
    by a search over the face adjacency graph, and the candidate is accepted
    if a constant offset makes it nonnegative with index one (offset forced
    to zero on the annulus by the boundary faces).
    """
    geo = _validated_geometry(d)
    lunes: List[Lune] = []
    seen = set()
    points = d.points
    for x, y in itertools.permutations(points, 2):
        for dk, dl in itertools.product((1, -1), repeat=2):
            for jk in range(max_wind + 1):
                for jl in range(max_wind + 1 - jk):
                    traversals: Dict[Tuple[str, int], int] = {}
                    for a, c in _path_traversals(geo, "K", x, y, dk, jk).items():
                        traversals[("K", a)] = c
                    for a, c in _path_traversals(geo, "L", y, x, dl, jl).items():
                        traversals[("L", a)] = traversals.get(("L", a), 0) + c
                    w = _solve_winding(geo, traversals)
                    if w is None:
                        continue
                    w = _normalize_offset(d, geo, w, x, y)
                    if w is None:
                        continue
                    key = (x, y, tuple(sorted(w.items())))
                    # the winding function determines the boundary traversal,
                    # so distinct parameters never collide
                    if key in seen:
                        raise AssertionError(f"duplicate lune candidate {key}")
                    seen.add(key)
                    area = sum((d.areas[f] * c for f, c in w.items()), Fraction(0))
                    if area <= 0:
                        raise DiagramError("nonzero nonnegative winding with zero area")
                    lunes.append(Lune(
                        source=x, target=y,
                        k_path=(dk, jk), l_path=(dl, jl),
                        w=tuple(sorted((f, c) for f, c in w.items() if c)),
                        area=area,
                    ))
    lunes.sort(key=lambda l: (l.source, l.target, l.area, l.w))
    return tuple(lunes)


def _normalize_offset(d: TwoCurveDiagram, geo: _Geometry, w: Dict[str, int],
                      x: int, y: int) -> Optional[Dict[str, int]]:
    if d.surface == "annulus":
        bf0, bf1 = d.boundary_faces
        if w[bf0] != w[bf1]:
            return None
        shift = -w[bf0]
    else:
        four_means = _lune_index_numerator(geo, w, x, y)
        # index 2(m_x + m_y) = four_means / 2 + 4*shift must equal 1
        num = 2 - four_means
        if num % 8 != 0:
            return None
        shift = num // 8
    shifted = {f: c + shift for f, c in w.items()}
    if any(c < 0 for c in shifted.values()):
        return None
    if _lune_index_numerator(geo, shifted, x, y) != 2:
        return None
    if all(c == 0 for c in shifted.values()):
        return None
    return shifted


# ---------------------------------------------------------------------------
# radial: one Barcode per emitted matching
# ---------------------------------------------------------------------------


def rank_prescriptions(spectrum: GeneratorSpectrum) -> Iterator[Dict[int, int]]:
    """Every ``ranks`` mapping with at most as many infinite bars per degree
    class as the class has orbits -- the prescriptions on which the search
    and its oracle are compared."""
    maslov = spectrum.params.maslov
    counts = [sum(1 for e in spectrum.entries if e.degree % maslov == d)
              for d in range(maslov)]
    for quotas in itertools.product(*(range(c + 1) for c in counts)):
        yield dict(enumerate(quotas))


def brute_force_feasible_barcodes(spectrum: GeneratorSpectrum, ranks: Mapping[int, int],
                      limit: Optional[int] = None) -> frozenset:
    """All barcodes of action-decreasing differentials on the spectrum.

    ``ranks`` prescribes the number of infinite bars per degree class mod
    the Maslov period.  Enumeration works in the recapping quotient: each
    source contributes one orbit; a pair matches a degree-(d+1) orbit ``y``
    with a degree-d translate of an orbit ``z`` at strictly smaller action.
    Raises InfeasibleRanksError when nothing matches the prescription.
    """
    maslov = spectrum.params.maslov
    area = PiRational.of(spectrum.params.disk_area)
    orbits = _orbits(spectrum)
    quota: Dict[int, int] = {d % maslov: int(c) for d, c in ranks.items() if c}
    counts: Dict[int, int] = {}
    for o in orbits:
        counts[o.degree] = counts.get(o.degree, 0) + 1
    for d, q in quota.items():
        if counts.get(d, 0) < q:
            raise InfeasibleRanksError(
                f"degree class {d} has {counts.get(d, 0)} generators but needs {q} infinite bars")

    # precompute allowed partners: pair (y, z) with deg(y) = deg(z) + 1 after
    # an integral recap shift of z, and action(z translate) < action(y)
    n = len(orbits)
    allowed: Dict[Tuple[int, int], int] = {}
    for iy, y in enumerate(orbits):
        for iz, z in enumerate(orbits):
            diff = y.degree - 1 - z.degree
            if diff % maslov != 0:
                continue
            j = diff // maslov
            if z.action + area * j < y.action:
                allowed[(iy, iz)] = j

    results: Set[Barcode] = set()
    state = ["?"] * n  # "?", "free", or partner index
    pair_list: List[Tuple[int, int]] = []
    unmatched: Dict[int, int] = {d: 0 for d in counts}
    undecided: Dict[int, int] = dict(counts)

    def prune() -> bool:
        for d, q in quota.items():
            if unmatched.get(d, 0) > q:
                return False
            if unmatched.get(d, 0) + undecided.get(d, 0) < q:
                return False
        for d in counts:
            if d not in quota and unmatched.get(d, 0) > 0:
                return False
        return True

    def emit() -> None:
        bars = [Bar(orbits[i].action, INF, orbits[i].degree)
                for i, st in enumerate(state) if st == "free"]
        for (iy, iz) in pair_list:
            y, z = orbits[iy], orbits[iz]
            j = allowed[(iy, iz)]
            # normalize the bar into the fundamental degree window
            raw_deg = z.degree + j * maslov
            t = ((raw_deg % maslov) - raw_deg) // maslov
            left = z.action + area * (j + t)
            right = y.action + area * t
            bars.append(Bar(left, right, raw_deg % maslov))
        results.add(Barcode(bars))
        if limit is not None and len(results) > limit:
            raise ValueError("feasible barcode enumeration exceeded the limit")

    def dfs(start: int) -> None:
        i = start
        while i < n and state[i] != "?":
            i += 1
        if i == n:
            if all(unmatched.get(d, 0) == quota.get(d, 0) for d in counts):
                emit()
            return
        o = orbits[i]
        d = o.degree
        # leave unmatched
        if unmatched.get(d, 0) < quota.get(d, 0):
            state[i] = "free"
            unmatched[d] += 1
            undecided[d] -= 1
            if prune():
                dfs(i + 1)
            unmatched[d] -= 1
            undecided[d] += 1
            state[i] = "?"
        # pair with an undecided partner; both orientations of a pair are
        # distinct matchings (different recap shifts, different bars)
        for j in range(n):
            if j == i or state[j] != "?":
                continue
            for key in ((i, j), (j, i)):
                if key not in allowed:
                    continue
                dj = orbits[j].degree
                state[i] = j
                state[j] = i
                undecided[d] -= 1
                undecided[dj] -= 1
                pair_list.append(key)
                if prune():
                    dfs(i + 1)
                pair_list.pop()
                undecided[d] += 1
                undecided[dj] += 1
                state[i] = "?"
                state[j] = "?"

    dfs(0)
    if not results:
        raise InfeasibleRanksError("no matching leaves the prescribed infinite bars")
    return frozenset(results)
