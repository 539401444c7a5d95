"""Independent oracles: slow, exhaustive routes to the answers of the fast
code, kept to prove it right.

Tests, ``floerbar check`` and the CLI's ``--oracle`` flags compare against
them; no default code path imports this module.

``PROPERTIES`` is the one table of those comparisons, and of exact values
the paper's examples fix: each ``Property`` has a name, a seeded case
sampler and a predicate.  ``floerbar check`` and ``tests/test_properties.py``
both run it; neither has samplers or predicates of its own.

* ``brute_force_barcode`` reads barcodes off sublevel rank functions,
  independent of the reduction pairing in :mod:`floerbar.complexes`.
* ``fraction_unroll`` finds a complex's copies by testing each candidate's
  degree and action against the windows and sorts them on Fraction actions,
  where :meth:`FilteredComplex.unroll` solves for each generator's copy
  range and sorts on int keys over one common denominator.
* ``brute_force_bottleneck`` exhausts all partial matchings.  It is defined
  in :mod:`floerbar.persistence` and re-exported here.
* ``max_bipartite_matching`` is Hopcroft-Karp, a batch maximum matching in
  phases of shortest augmenting paths, where
  :class:`floerbar.matching.CoverMatching` grows one matching by single
  augmenting searches that the caller can repair after edits.
* ``all_pairs_bottleneck`` prices every matchable pair of two barcodes with
  Fraction endpoints as an int key and bisects all the keys, where
  :func:`floerbar.persistence.bottleneck_distance` lists only the pairs in
  a growing window of near left endpoints.
* ``brute_force_shifted_bottleneck`` lists its own candidate shifts and
  scores each with one full bottleneck computation.
* ``scan_shifted_bottleneck`` searches the shift-quotient distance on the
  endpoint values themselves, over the full table of spreads, rebuilding
  the live pairs and one cover test per candidate shift, where
  :func:`floerbar.persistence.shifted_bottleneck` works on int keys, never
  lists the table and repairs two ``CoverMatching``s in one sweep.
* ``brute_force_lunes`` solves each lune candidate's winding function from
  scratch, where :func:`floerbar.diagrams.enumerate_lunes` solves once per
  diagram.
* ``brute_force_feasible_barcodes`` builds and hashes a ``Barcode`` for every
  matching, where :func:`floerbar.radial.feasible_barcodes` interns bars;
  ``rank_prescriptions`` lists the rank prescriptions the two are compared
  on.
* ``pi_rational_cmp`` takes the sign of a difference of values of Q + Q*pi
  through Machin brackets of pi alone, where ``PiRational`` compares cached
  integer brackets first.
* ``power_loop_hypotheses`` multiplies out the powers of a ring element one
  by one, where :func:`floerbar.seidel.verify_hypotheses` solves for them in
  closed form.
* ``term_telescoping_check`` writes out the m shifted spectral norms of the
  averaging bound term by term and cancels their level symbols, where
  :func:`floerbar.seidel.telescoping_check` counts the wrapped terms in
  closed form.
* ``fraction_random_complex`` tries every ``(z, e)`` as a partner of each
  planted generator in Fractions, where
  :func:`floerbar.sampling.random_complex` compares int keys within the
  degree classes that can pair.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .complexes import FilteredComplex, Generator, _UnrolledWindow, barcode, uz_reduce
from .diagrams import (DiagramError, Lune, TwoCurveDiagram, _Geometry, _validated_geometry,
                       annulus_example_areas, diagram_beta, diagram_gamma, enumerate_lunes,
                       equator_pair_annulus, relabel_diagram, validate_diagram)
from .exactpi import PiRational, _compare_with_pi
from .f2 import Echelon
from .novikov import LagrangianParams, NovikovScalar, NovikovSpec
from .persistence import (INF, Bar, Barcode, _abs, _common_denominator, _coverable,
                          _degree_groups, _endpoint_keys, _halve, _infinite_mismatch,
                          _matchable_pairs, _rank, _ShiftCandidates, _smallest_feasible_key,
                          bottleneck_distance, brute_force_bottleneck, shift_barcode,
                          shifted_bottleneck)
from .radial import (GeneratorSpectrum, InfeasibleRanksError, _orbits, feasible_barcodes,
                     fold_profile, forced_bar_bound, generators)
from .sampling import (_planted_barcode, _random_fraction, _scramble, perturb_actions,
                       random_barcode, random_complex, random_sphere_diagram,
                       random_tent_spectrum, random_unroll_case)
from .seidel import (EXAMPLE_CASE_NAMES, HypothesisError, QHPresentation, RingElement,
                     SeidelData, averaging_bound, example_case, qh_mul)

__all__ = [
    "OracleSizeError",
    "brute_force_barcode",
    "fraction_unroll",
    "brute_force_bottleneck",
    "max_bipartite_matching",
    "all_pairs_bottleneck",
    "brute_force_shifted_bottleneck",
    "scan_shifted_bottleneck",
    "brute_force_lunes",
    "brute_force_feasible_barcodes",
    "rank_prescriptions",
    "pi_rational_cmp",
    "power_loop_hypotheses",
    "TermTelescopingReport",
    "term_telescoping_check",
    "fraction_random_complex",
    "Property",
    "PROPERTIES",
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


def fraction_unroll(cx: FilteredComplex,
                    action_window: Optional[Tuple[Fraction, Fraction]] = None,
                    degree_window: Optional[Tuple[int, int]] = None
                    ) -> List[Tuple[str, int, int, Fraction]]:
    """The copies ``(gid, j, degree, action)`` of :meth:`FilteredComplex.unroll`:
    every copy index near the windows is tried, a copy is kept when its
    degree and action lie inside them, and the copies are sorted on
    ``(action, gid, j)`` with Fraction actions."""
    if action_window is None and degree_window is None:
        raise ValueError("unroll needs an action window or a degree window")
    dstep = cx.spec.degree_step if cx.spec else 0
    astep = cx.spec.action_step if cx.spec else Fraction(0)
    out = []
    for g in cx.generators:
        if cx.spec is None:
            candidates = [0]
        elif degree_window is not None:
            candidates = range((degree_window[0] - g.degree) // dstep - 1,
                               (degree_window[1] - g.degree) // dstep + 2)
        else:
            candidates = range(int((action_window[0] - g.action) // astep) - 1,
                               int((action_window[1] - g.action) // astep) + 2)
        for j in candidates:
            deg, act = g.degree + j * dstep, g.action + j * astep
            if degree_window is not None and not degree_window[0] <= deg < degree_window[1]:
                continue
            if action_window is not None and not action_window[0] <= act < action_window[1]:
                continue
            out.append((g.gid, j, deg, act))
    out.sort(key=lambda item: (item[3], item[0], item[1]))
    return out


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
# matching: Hopcroft-Karp
# ---------------------------------------------------------------------------

_NIL = -1


def max_bipartite_matching(num_left: int, num_right: int,
                           adjacency: Sequence[Sequence[int]]) -> List[int]:
    """Return ``match_left`` with ``match_left[u] = v`` (or -1 if unmatched).

    ``adjacency[u]`` lists the right-side neighbours of left vertex ``u``.
    """
    match_left = [_NIL] * num_left
    match_right = [_NIL] * num_right
    inf = num_left + 1
    dist = [0] * num_left

    def bfs() -> bool:
        queue = deque()
        for u in range(num_left):
            if match_left[u] == _NIL:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        reachable_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w == _NIL:
                    reachable_free = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return reachable_free

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w == _NIL or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in range(num_left):
            if match_left[u] == _NIL:
                dfs(u)
    return match_left


# ---------------------------------------------------------------------------
# persistence: every pair priced, every candidate shift, the per-shift scan
# ---------------------------------------------------------------------------


def all_pairs_bottleneck(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """:func:`floerbar.persistence.bottleneck_distance` of barcodes whose
    endpoints are all Fractions, by pricing every matchable pair.

    A pair's key is its cost times twice the common denominator, and a
    deletion's likewise; each degree's sorted keys are bisected from the
    optimum of the degrees before it.  Other endpoint types raise
    ``ValueError``.
    """
    bars1, bars2 = b1.expand(), b2.expand()
    groups = _degree_groups(bars1, bars2, degree_sensitive)
    if _infinite_mismatch(bars1, bars2, groups):
        return INF
    scale = _common_denominator(bars1 + bars2)
    if scale is None:
        raise ValueError("the all-pairs search takes Fraction endpoints only")
    k1, k2 = _endpoint_keys(bars1, scale), _endpoint_keys(bars2, scale)
    del1 = [None if r is None else r - l for l, r in k1]
    del2 = [None if r is None else r - l for l, r in k2]
    rows = [[] for _ in bars1]
    for i, j in _matchable_pairs(bars1, bars2, groups):
        (l1, r1), (l2, r2) = k1[i], k2[j]
        rows[i].append((2 * (abs(l1 - l2) if r1 is None else max(abs(l1 - l2), abs(r1 - r2))), j))
    best = 0
    for idx1, idx2 in groups:
        best = _smallest_feasible_key(idx1, idx2, rows, del1, del2, best)
    return Fraction(best, 2 * scale)


def _endpoints(bars: List[Bar]) -> List:
    return [x for b in bars for x in ((b.left,) if b.is_infinite else (b.left, b.right))]


def _ascending_shifts(e1: List, e2: List) -> List:
    """All candidate shifts, in increasing order: every endpoint difference
    ``y - x``, every midpoint of two distinct differences, and 0.  Of equal
    candidates the first listed is kept."""
    diffs = list(dict.fromkeys(y - x for y in e2 for x in e1))
    out = dict.fromkeys(diffs)
    for a, b in itertools.combinations(diffs, 2):
        out.setdefault(_halve(a + b))
    out.setdefault(e1[0] - e1[0])
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
    e1, e2 = _endpoints(b1.expand()), _endpoints(b2.expand())
    if not e1 or not e2:
        return bottleneck_distance(b1, b2, degree_sensitive), Fraction(0)
    candidates = _ascending_shifts(e1, e2)

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


def scan_shifted_bottleneck(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """:func:`floerbar.persistence.shifted_bottleneck` by a scan over the
    endpoint values themselves, with the full table of spreads.

    A binary search over the ranks of ``2*delta`` in {0, bar lengths, ``top_k
    - bottom_q``}; at each rank every ``top_k`` is tried in turn, rebuilding
    its live pairs and deciding it with one cover test.
    """
    bars1, bars2 = b1.expand(), b2.expand()
    e1, e2 = _endpoints(bars1), _endpoints(bars2)
    if not e1 or not e2:
        return bottleneck_distance(b1, b2, degree_sensitive), Fraction(0)
    shifts = _ShiftCandidates(e1, e2, _halve)
    groups = _degree_groups(bars1, bars2, degree_sensitive)
    if _infinite_mismatch(bars1, bars2, groups):
        return INF, shifts.least()
    return _scan_shift(b1, b2, degree_sensitive, bars1, bars2,
                       _matchable_pairs(bars1, bars2, groups), shifts)


def _scan_shift(b1: Barcode, b2: Barcode, degree_sensitive: bool,
                bars1: List[Bar], bars2: List[Bar], pairs, shifts):
    """``(distance, shift)`` for barcodes whose infinite bars can be matched;
    ``bars1``/``bars2`` are their expansions and ``pairs`` the matchable
    pairs.

    A pair is within ``delta`` at shift ``c`` iff ``top - delta <= c <=
    bottom + delta``, where ``top``/``bottom`` are the larger/smaller of its
    left and right endpoint differences.  So the shifts feasible at
    ``delta`` form a union of closed intervals, each starting at some ``top -
    delta`` unless every bar is deletable, and at ``c = top_k - delta`` the
    pair ``q`` is within ``delta`` iff ``top_q <= top_k`` and ``top_k -
    bottom_q <= 2*delta``.  The search runs over the ranks of ``2*delta`` in
    {0, bar lengths, ``top_k - bottom_q``}, one matching per ``top_k``.
    """
    tops, bottoms = [], []
    for i, j in pairs:
        a, b = bars1[i], bars2[j]
        dl = b.left - a.left
        dr = dl if a.is_infinite else b.right - a.right
        tops.append(max(dl, dr))
        bottoms.append(min(dl, dr))
    top_values, top_rank = _rank(tops)
    spreads = [[t - bottom for bottom in bottoms] for t in top_values]
    zero = Fraction(0)
    lengths = [b.length for b in bars1 + bars2 if not b.is_infinite]
    order, rank = _rank([zero] + lengths + [s for row in spreads for s in row
                                            if not s < zero])
    gaps = [[-1 if s < zero else rank[s] for s in row] for row in spreads]
    pair_top = [top_rank[t] for t in tops]
    len1 = [None if b.is_infinite else rank[b.length] for b in bars1]
    len2 = [None if b.is_infinite else rank[b.length] for b in bars2]

    def leftmost(r):
        """Least ``k`` whose shift ``top_k - delta`` is feasible at rank ``r``
        of ``2*delta``; -1 when every bar is deletable, as then every shift
        is, and None when no shift is feasible."""
        d1 = [k is not None and k <= r for k in len1]
        d2 = [k is not None and k <= r for k in len2]
        if all(d1) and all(d2):
            return -1
        for k, gap in enumerate(gaps):
            live = [p for p, (t, g) in enumerate(zip(pair_top, gap)) if t <= k and g <= r]
            if not any(pair_top[p] == k for p in live):
                continue
            rows = [[] for _ in bars1]
            for p in live:
                rows[pairs[p][0]].append(pairs[p][1])
            if _coverable(rows, d1, d2):
                return k
        return None

    # the largest rank admits every pair at the largest top
    lo, hi = 0, len(order) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if leftmost(mid) is not None:
            hi = mid
        else:
            lo = mid + 1
    delta = _halve(order[lo])
    k = leftmost(lo)
    # each interval of shifts feasible at delta, [max top - delta, min bottom
    # + delta] over its pairs, holds the candidate midpoint of its two
    # bounds, so the first candidate after the leftmost start is optimal
    c = shifts.least() if k == -1 else shifts.first_from(top_values[k] - delta)
    d = bottleneck_distance(b1, shift_barcode(b2, c), degree_sensitive)
    assert d == delta, "the reported shift misses the optimum"
    return d, c


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


# ---------------------------------------------------------------------------
# exactpi: the sign of the difference value
# ---------------------------------------------------------------------------


def pi_rational_cmp(x, y) -> int:
    """-1, 0 or 1 as ``x <, ==, > y`` for ints, Fractions and PiRationals:
    the difference ``a + b*pi`` is built, and for ``b != 0`` the rational
    ``-a/b`` is compared with pi by Machin brackets alone."""
    diff = PiRational.of(x) - PiRational.of(y)
    a, b = diff.rational, diff.pi_coeff
    if b == 0:
        return (a > 0) - (a < 0)
    # a + b*pi > 0  <=>  pi > -a/b when b > 0, and pi < -a/b when b < 0
    side = _compare_with_pi(-a / b)
    return -side if b > 0 else side


# ---------------------------------------------------------------------------
# seidel: the ring powers one by one
# ---------------------------------------------------------------------------


def power_loop_hypotheses(pres: QHPresentation, element: RingElement) -> SeidelData:
    """The power hypotheses found by multiplying ``element`` into an
    accumulator until its powers reach the point class and then the unit
    class, for at most ``power * maslov + 1`` steps."""
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


@dataclass(frozen=True)
class TermTelescopingReport:
    terms: Tuple[Tuple[int, int, bool], ...]  # (j, (k+j) mod m, wrapped)
    residual: Tuple[Tuple[int, int], ...]     # leftover symbol coefficients
    total: Fraction
    bound: Fraction

    @property
    def ok(self) -> bool:
        return not self.residual and self.total == self.bound * len(self.terms)


def term_telescoping_check(k: int, p: int, m: int, r: int,
                           kappa: Fraction) -> TermTelescopingReport:
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
    return TermTelescopingReport(
        terms=tuple(terms),
        residual=residual,
        total=total,
        bound=averaging_bound(k, p, m, r, kappa),
    )


# ---------------------------------------------------------------------------
# sampling: every (z, e) tried in Fractions
# ---------------------------------------------------------------------------


def fraction_random_complex(rng: random.Random, num_generators: int = 8,
                            spec: Optional[NovikovSpec] = None
                            ) -> Tuple[FilteredComplex, Barcode]:
    """:func:`floerbar.sampling.random_complex` by trying every unpaired
    generator ``z`` and exponent ``e`` as a partner of ``y`` in Fractions,
    and by validating the planted complex before it is scrambled."""
    if spec is None:
        spec = NovikovSpec("q", 2, Fraction(1, 2))
    degree_lo, degree_hi = 0, spec.degree_step + 1
    gens = []
    for i in range(num_generators):
        gens.append(Generator(
            f"g{i}", rng.randrange(degree_lo, degree_hi + 1), _random_fraction(rng)))

    diff: Dict[str, List[Tuple[NovikovScalar, str]]] = {}
    paired = set()
    planted: List[Tuple[Generator, Generator, int]] = []
    order = list(range(num_generators))
    rng.shuffle(order)
    for i in order:
        y = gens[i]
        if y.gid in paired:
            continue
        candidates = []
        for j in range(num_generators):
            z = gens[j]
            if z.gid in paired or z.gid == y.gid:
                continue
            for e in (-1, 0, 1):
                if z.degree + e * spec.degree_step == y.degree - 1 and \
                        z.action + e * spec.action_step < y.action:
                    candidates.append((z, e))
        if candidates and rng.random() < 0.75:
            z, e = rng.choice(candidates)
            diff[y.gid] = [(NovikovScalar.monomial(spec, e), z.gid)]
            paired.add(y.gid)
            paired.add(z.gid)
            planted.append((y, z, e))

    expected = _planted_barcode(spec, planted, [g for g in gens if g.gid not in paired])
    cx = FilteredComplex(spec, gens, diff)
    return _scramble(rng, spec, cx.generators, cx.differential), expected


# ---------------------------------------------------------------------------
# the property table: each comparison with an oracle, written once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Property:
    """``cases(rng, n)`` yields the property's fixed, rng-free cases, then
    the first ``n`` cases it draws from ``rng`` (the two fixed tables ignore
    ``n``); ``holds(*case)`` is true when a case passes."""

    name: str
    cases: Callable[[random.Random, int], Iterable[tuple]]
    holds: Callable[..., bool]


def _drawn(draw):
    """The cases function that yields ``draw(rng)`` ``n`` times."""
    return lambda rng, n: (draw(rng) for _ in range(n))


def _same(x, y) -> bool:
    """Equal values of equal types."""
    return type(x) is type(y) and x == y


def _both_modes(fast, slow, same=operator.eq):
    """``holds(a, b)``: ``fast`` and ``slow`` agree in both degree modes."""
    return lambda a, b: all(same(fast(a, b, sensitive), slow(a, b, sensitive))
                            for sensitive in (True, False))


def _shift_agrees(oracle):
    """``holds(a, b, sensitive)``: ``shifted_bottleneck`` and ``oracle`` give
    equal distances and equal shifts, of equal types."""
    return lambda a, b, sensitive: all(map(_same, shifted_bottleneck(a, b, sensitive),
                                           oracle(a, b, sensitive)))


def _complex_agrees(cx: FilteredComplex, planted: Barcode) -> bool:
    """The reduction, the rank-function oracle and the planted barcode agree,
    and the torsion exponents are the planted finite bar lengths."""
    lengths = tuple(sorted(b.length for b in planted.finite_bars()))
    return (barcode(cx) == planted == brute_force_barcode(cx)
            and uz_reduce(cx).torsion_exponents() == lengths)


def _pseudometric(a: Barcode, b: Barcode, c: Barcode) -> bool:
    """Symmetry, and the triangle inequality through ``c`` when finite."""
    dab, dac, dcb = (bottleneck_distance(x, y) for x, y in ((a, b), (a, c), (c, b)))
    return dab == bottleneck_distance(b, a) and (INF in (dab, dac, dcb) or dab <= dac + dcb)


def _beta_bounded(d: TwoCurveDiagram) -> bool:
    """A valid diagram with boundary depth at most 1/4 and at most its
    spectral norm."""
    validate_diagram(d)
    beta = diagram_beta(d)
    return beta <= Fraction(1, 4) and beta <= diagram_gamma(d)


def _small_shift_pair(rng: random.Random, kind: str) -> Tuple[Barcode, Barcode]:
    """A pair of barcodes with at most 7 endpoints each: two random ones,
    short bars far apart ("short": deleting everything is often optimal),
    or a repeated pattern against one bar ("tied": several shifts attain
    the optimum)."""
    while True:
        if kind == "random":
            a, b = random_barcode(rng, max_bars=3), random_barcode(rng, max_bars=3)
        elif kind == "short":
            def short():
                lefts = [Fraction(rng.randint(-20, 20)) for _ in range(rng.randint(1, 3))]
                return Barcode(Bar(x, x + Fraction(1, rng.randint(2, 9)), rng.randint(0, 1))
                               for x in lefts)
            a, b = short(), short()
        else:
            a = Barcode([Bar(Fraction(x), Fraction(x + 1)) for x in (0, 4, 8)][:rng.randint(2, 3)])
            b = Barcode([Bar(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(4, 6)))])
        if len(_endpoints(a.expand())) <= 7 and len(_endpoints(b.expand())) <= 7:
            return a, b


def _small_shift_cases(rng: random.Random, n: int):
    """The kinds random, short and tied in turn; degree-sensitive on even
    cases."""
    for i in range(n):
        yield (*_small_shift_pair(rng, ("random", "short", "tied")[i % 3]), i % 2 == 0)


def _shuffled_labels(rng: random.Random, d: TwoCurveDiagram) -> TwoCurveDiagram:
    """``d`` with its points renamed by a random permutation of 100 + each."""
    points = list(d.points)
    images = [p + 100 for p in points]
    rng.shuffle(images)
    return relabel_diagram(d, dict(zip(points, images)))


def _lune_cases(rng: random.Random, n: int):
    """The bundled annulus at winding cap 2 (fixed); then 196 small sphere
    diagrams at winding caps 0-4, four of 8, 12, 16 and 20 crossings at cap
    2, relabelled copies of the first 30 and of the 8- and 12-crossing
    ones, and small ones again."""
    yield equator_pair_annulus(annulus_example_areas(Fraction(1, 10))), 2
    relabelled = (*range(30), 196, 197)
    drawn = []
    for i in range(n):
        if 196 <= i < 200:
            case = random_sphere_diagram(rng, (8, 12, 16, 20)[i - 196]), 2
        elif 200 <= i < 232:
            d, max_wind = drawn[relabelled[i - 200]]
            case = _shuffled_labels(rng, d), max_wind
        else:
            case = random_sphere_diagram(rng, rng.choice([2, 4, 4, 6])), rng.randint(0, 4)
        drawn.append(case)
        yield case


def _feasible_agrees(spectrum: GeneratorSpectrum) -> bool:
    """``feasible_barcodes`` equals its oracle under every rank prescription
    (both raising ``InfeasibleRanksError`` counts as agreement), and its
    budget counts distinct barcodes: a limit of their number passes, one
    less raises."""
    def outcome(search, ranks, limit=None):
        try:
            return search(spectrum, ranks, limit=limit)
        except InfeasibleRanksError:
            return None
        except ValueError as exc:
            if "exceeded the limit" not in str(exc):
                raise
            return "exceeded the limit"

    for ranks in rank_prescriptions(spectrum):
        slow = outcome(brute_force_feasible_barcodes, ranks)
        if outcome(feasible_barcodes, ranks) != slow or slow is not None and (
                outcome(feasible_barcodes, ranks, len(slow)) != slow
                or outcome(feasible_barcodes, ranks, len(slow) - 1) != "exceeded the limit"):
            return False
    return True


_FOLD_PARAMS = LagrangianParams(dim=1, maslov=2, disk_area=Fraction(1, 2))


def _fold_bound_holds(a: Fraction) -> bool:
    """The forced bound of the fold profile is min(a/4, 1/2 - a/4)."""
    bound = forced_bar_bound(generators(fold_profile(a), _FOLD_PARAMS), {0: 1, 1: 1})
    return bound == PiRational.of(min(a / 4, Fraction(1, 2) - a / 4))


def _telescoping_agrees(name: str, n: int) -> bool:
    """The closed-form telescoping certificate of an example case equals the
    term-by-term one on the same hypotheses."""
    case = example_case(name, n)
    fast, data = case.telescoping, case.seidel
    slow = term_telescoping_check(data.k, data.p, data.m, data.r, case.presentation.kappa)
    return (fast.terms == len(slow.terms)
            and fast.wrapped == sum(wrapped for _j, _tgt, wrapped in slow.terms)
            and fast.residual == slow.residual == ()
            and fast.total == slow.total and fast.bound == slow.bound)


def _scan_pair(rng: random.Random, n: int, pi: bool) -> List[Barcode]:
    """Two barcodes of ``n`` bars each, counted with multiplicity, in degrees
    0 and 1 with the same infinite bars per degree (one fewer on the second
    side now and then); endpoints with a pi part when ``pi``, a few of them
    plain Fractions."""
    def endpoint(lo, hi):
        x = Fraction(rng.randint(lo * 12, hi * 12), rng.choice((1, 2, 3, 4, 6, 12)))
        if pi and rng.random() < 0.8:
            return PiRational(x, Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        return x

    infinite = [rng.randint(0, 1) for _ in range(rng.randint(0, min(n, 3)))]
    sides = []
    for side in range(2):
        degrees = infinite[1:] if side and infinite and rng.random() < 0.1 else infinite
        bars = [Bar(endpoint(-3, 6), INF, d) for d in degrees]
        count = len(bars)
        while count < n:
            left = endpoint(-3, 6)
            mult = 2 if count + 2 <= n and rng.random() < 0.25 else 1
            bars.append(Bar(left, left + abs(endpoint(0, 3)) + Fraction(1, 13),
                            rng.randint(0, 1), mult))
            count += mult
        sides.append(Barcode(bars))
    return sides


def _scan_cases(rng: random.Random, n: int):
    """1 to 10 bars a side in turn, but one pair of each size 11 to 20 at
    cases 200-209; pi endpoints every third case; degree-sensitive on even
    cases."""
    for i in range(n):
        a, b = _scan_pair(rng, i - 189 if 200 <= i < 210 else 1 + i % 10, i % 3 == 2)
        yield a, b, i % 2 == 0


def _near_copy(rng: random.Random, x: Barcode, eps: Fraction) -> Barcode:
    """``x`` with each endpoint moved by at most ``eps``, now and then a bar
    dropped (an infinite one too) or a short bar added."""
    bars = []
    for b in x.bars:
        if rng.random() < 0.05:
            continue
        left = b.left + eps * Fraction(rng.randint(-6, 6), 6)
        right = INF if b.is_infinite else max(b.right + eps * Fraction(rng.randint(-6, 6), 6),
                                              left + Fraction(1, 13))
        bars.append(Bar(left, right, b.degree, b.multiplicity))
    for _ in range(rng.choice((0, 0, 1, 2))):
        left = Fraction(rng.randint(-24, 48), 12)
        bars.append(Bar(left, left + eps * Fraction(rng.randint(1, 30), 6),
                        rng.choice(x.degrees() or (0,))))
    return Barcode(bars)


def _window_pair(rng: random.Random, trial: int) -> Tuple[Barcode, Barcode]:
    """Independent draws every fourth trial (up to 300 bars in the first
    eight), with the infinite bars of the first given to the second most of
    the time; otherwise a draw and a near copy of it.  Either side may have
    a degree the other lacks."""
    degrees = rng.choice(((0,), (0, 1), (0, 1, 2)))
    if trial % 4 == 0:
        n = 300 if trial < 32 else 12
        a = random_barcode(rng, n, degrees)
        b = random_barcode(rng, n, rng.choice((degrees, (1, 2))))
        if rng.random() < 0.8:
            b = Barcode(b.finite_bars() + a.infinite_bars())
        return a, b
    a = random_barcode(rng, rng.choice((6, 20, 60)), degrees)
    return a, _near_copy(rng, a, Fraction(1, rng.choice((1, 10, 100, 1000))))


def _window_cases(rng: random.Random, n: int):
    """Barcodes of planted complexes of 20, 40, 80 and 160 generators in
    turn against a perturbed copy for the first 20 cases, then
    ``_window_pair`` draws."""
    for i in range(n):
        if i < 20:
            cx, _planted = random_complex(rng, (20, 40, 80, 160)[i % 4])
            pert, _used = perturb_actions(rng, cx, Fraction(1, rng.choice((10, 100, 1000))))
            yield barcode(cx), barcode(pert)
        else:
            yield _window_pair(rng, i - 20)


PROPERTIES = (
    Property("complex-oracle-agreement",
             _drawn(lambda rng: random_complex(rng, rng.randint(2, 10))), _complex_agrees),
    Property("bottleneck-pseudometric",
             _drawn(lambda rng: tuple(random_barcode(rng, max_bars=4) for _ in range(3))),
             _pseudometric),
    Property("diagram-beta-bounds",
             _drawn(lambda rng: (random_sphere_diagram(rng, rng.choice([2, 4, 4, 6])),)),
             _beta_bounded),
    Property("bottleneck-oracle-agreement",
             _drawn(lambda rng: (random_barcode(rng, max_bars=3), random_barcode(rng, max_bars=3))),
             _both_modes(bottleneck_distance, brute_force_bottleneck)),
    Property("shift-oracle-agreement", _small_shift_cases,
             _shift_agrees(brute_force_shifted_bottleneck)),
    Property("lune-oracle-agreement", _lune_cases,
             lambda d, max_wind: enumerate_lunes(d, max_wind) == brute_force_lunes(d, max_wind)),
    Property("feasible-oracle-agreement", _drawn(lambda rng: (random_tent_spectrum(rng),)),
             _feasible_agrees),
    Property("radial-fold-bound",
             lambda _rng, _n: ((Fraction(num, 10),) for num in range(1, 10)), _fold_bound_holds),
    Property("seidel-table",
             lambda _rng, _n: ((name, n) for name in EXAMPLE_CASE_NAMES for n in range(1, 6)),
             _telescoping_agrees),
    Property("unroll-oracle-agreement", _drawn(random_unroll_case),
             lambda cx, aw, dw: cx.unroll(aw, dw) == fraction_unroll(cx, aw, dw)),
    Property("shift-scan-agreement", _scan_cases, _shift_agrees(scan_shifted_bottleneck)),
    Property("bottleneck-window-agreement", _window_cases,
             _both_modes(bottleneck_distance, all_pairs_bottleneck, _same)),
)
