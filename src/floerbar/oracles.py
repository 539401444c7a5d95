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
* ``fraction_complex_from_json`` parses a complex file with Fraction
  actions and checks its invariants in Fraction arithmetic
  (``fraction_validated``), where :func:`floerbar.complexes.complex_from_json`
  reads int ratios and a :class:`~floerbar.complexes.FilteredComplex`
  compares int keys over one scale; ``fraction_complex_json`` writes the
  parts back from their Fractions.
* ``brute_force_bottleneck`` exhausts all partial matchings.  It is defined
  in :mod:`floerbar.persistence` and re-exported here.
* ``max_bipartite_matching`` is Hopcroft-Karp, a batch maximum matching in
  phases of shortest augmenting paths, where
  :class:`floerbar.matching.CoverMatching` grows one matching by single
  augmenting searches that the caller can repair after edits.
* ``all_pairs_bottleneck`` prices every matchable pair and deletion of two
  lists of ``Bar``s once, as ints over twice their common denominator when
  every endpoint is a Fraction and as exact values otherwise, and bisects
  the ranks of all the costs, where
  :func:`floerbar.persistence.bottleneck_distance` lists only the pairs in
  a growing window of near left endpoints, on the barcodes' keys.
* ``canonical_bars`` and ``bar_readouts`` are the Bar route: canonical
  order, boundary depth, spectrum, gamma and JSON computed on ``Bar``s and
  their endpoints, where a :class:`floerbar.persistence.Barcode` reads its
  keyed rows.
* ``brute_force_shifted_bottleneck`` lists its own candidate shifts and
  scores each with one full bottleneck computation.
* ``scan_shifted_bottleneck`` searches the shift-quotient distance on the
  endpoint values themselves, over the full table of spreads, rebuilding
  the live pairs and one cover test per candidate shift, where
  :func:`floerbar.persistence.shifted_bottleneck` works on keys, never
  lists the table and repairs two ``CoverMatching``s in one sweep.
* ``brute_force_lunes`` solves each lune candidate's winding function from
  scratch, where :func:`floerbar.diagrams.enumerate_lunes` solves once per
  diagram and tests packed winding vectors.
* ``fraction_build_complex`` grades a diagram's complex in Fractions and
  builds it from :class:`~floerbar.complexes.Generator` objects, where
  :func:`floerbar.diagrams.build_complex` grades on int keys over one scale
  and builds it from reduced ratios.
* ``brute_force_feasible_barcodes`` finds the orbits and their bars in
  ``PiRational`` arithmetic, searches orbits, each partner in both
  orientations, records every matching as a sorted tuple of interned bars
  and builds one ``Barcode`` per distinct tuple, where
  :func:`floerbar.radial.feasible_barcodes` keys the spectrum once,
  searches runs of twin orbits on a table of key rows and reaches each
  barcode once; ``rank_prescriptions`` lists the rank prescriptions the two
  are compared on.
* ``pi_rational_cmp`` takes the sign of a difference of values of Q + Q*pi
  through Machin brackets of pi alone, where ``PiRational`` and the
  barcode keys take the sign of an int encoding ``a*M + b*P`` from the
  convergents of pi (:mod:`floerbar.exactpi`); the property
  ``pi-encoding-agreement`` compares the two on random differences and on
  the neighbours of every convergent up to each code's bound.
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

import copy
import functools
import itertools
import math
import operator
import random
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from .complexes import (ComplexValidationError, FilteredComplex, Generator,
                        GammaUndefinedError, _UnrolledWindow, _generator_id, barcode,
                        complex_from_json, complex_to_json, gamma, uz_reduce)
from .diagrams import (SPHERE_ACTION_STEP, SPHERE_DEGREE_STEP, DiagramError,
                       InadmissibleDiagramError, Lune, TwoCurveDiagram, _Geometry,
                       _validated_geometry, annulus_example_areas, build_complex, diagram_beta,
                       diagram_gamma, enumerate_lunes, equator_pair_annulus, relabel_diagram,
                       sphere_spec, validate_diagram)
from .exactpi import (_MACHIN_START_BITS, SPREAD, PiRational, _convergents, _level_code,
                      _machin_bracket, code_for)
from .f2 import Echelon
from .novikov import (LagrangianParams, NovikovScalar, NovikovSpec, format_rational, parse_int,
                      parse_rational)
from .persistence import (INF, Bar, Barcode, _abs, _coverable, _degree_groups, _feasible_at,
                          _halve, _infinite_mismatch, _least_feasible, _matchable_pairs, _pair,
                          _rank,
                          _ShiftCandidates, _transposed, bar_length_spectrum,
                          bar_length_spectrum_json, bottleneck_distance, boundary_depth,
                          brute_force_bottleneck, shift_barcode, shifted_bottleneck)
from .radial import (GeneratorSpectrum, InfeasibleRanksError, RadialProfile, feasible_barcodes,
                     fold_profile, forced_bar_bound, generators, rank_quotas)
from .sampling import (_planted_barcode, _random_fraction, _scramble, perturb_actions,
                       random_barcode, random_complex, random_sphere_diagram,
                       random_tent_spectrum, random_unroll_case)
from .seidel import (EXAMPLE_CASE_NAMES, HypothesisError, QHPresentation, RingElement,
                     SeidelData, averaging_bound, example_case, qh_mul)

__all__ = [
    "OracleSizeError",
    "brute_force_barcode",
    "fraction_unroll",
    "fraction_complex_from_json",
    "fraction_validated",
    "fraction_complex_json",
    "brute_force_bottleneck",
    "max_bipartite_matching",
    "all_pairs_bottleneck",
    "canonical_bars",
    "bar_readouts",
    "brute_force_shifted_bottleneck",
    "scan_shifted_bottleneck",
    "brute_force_lunes",
    "fraction_build_complex",
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


# ---------------------------------------------------------------------------
# complexes: parsing and validation in Fractions
# ---------------------------------------------------------------------------


ComplexParts = Tuple[Optional[NovikovSpec], Tuple[Generator, ...],
                     Dict[str, Tuple[Tuple[NovikovScalar, str], ...]]]


def fraction_complex_from_json(data: dict) -> ComplexParts:
    """:func:`floerbar.complexes.complex_from_json` in Fractions: actions
    read by ``parse_rational``, each coefficient parsed on its own, and the
    checks of ``fraction_validated``.  Returns the ``(spec, generators,
    differential)`` of the complex, or raises what ``complex_from_json``
    raises."""
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
    return fraction_validated(spec, gens, diff)


def fraction_validated(spec: Optional[NovikovSpec], generators: Sequence[Generator],
                       differential: Mapping[str, Sequence[Tuple[NovikovScalar, str]]]
                       ) -> ComplexParts:
    """The checks of the :class:`~floerbar.complexes.FilteredComplex`
    constructor, each action compared as a Fraction (``act y + e * step <
    act g``) where the constructor compares int keys, in the same order and
    with the same messages.  Returns the generators and the merged
    differential."""
    gens = tuple(generators)
    by_id = {g.gid: g for g in gens}
    if len(by_id) != len(gens):
        raise ValueError("generator ids must be unique")
    diff = {}
    for gid, terms in differential.items():
        if gid not in by_id:
            raise ValueError(f"differential on unknown generator {gid!r}")
        merged: Dict[str, NovikovScalar] = {}
        for coeff, target in terms:
            if target not in by_id:
                raise ValueError(f"differential hits unknown generator {target!r}")
            merged[target] = merged[target] + coeff if target in merged else coeff
        entries = tuple(sorted(((c, t) for t, c in merged.items() if not c.is_zero()),
                               key=lambda item: item[1]))
        if entries:
            diff[gid] = entries
    dstep = spec.degree_step if spec else 0
    astep = spec.action_step if spec else Fraction(0)
    for gid, terms in diff.items():
        g = by_id[gid]
        for coeff, target in terms:
            if coeff.spec != spec:
                raise ComplexValidationError(f"coefficient spec mismatch in d({gid})")
            y = by_id[target]
            for e in coeff.exponents:
                if y.degree + e * dstep != g.degree - 1:
                    raise ComplexValidationError(
                        f"degree mismatch: term of d({gid}) lands in degree "
                        f"{y.degree + e * dstep}, expected {g.degree - 1}")
                if not (y.action + e * astep < g.action):
                    raise ComplexValidationError(
                        f"action does not strictly decrease on d({gid}) term "
                        f"{target} (exponent {e})")
    for gid, terms in diff.items():
        acc: Dict[Tuple[str, int], int] = {}
        for coeff, target in terms:
            for e in coeff.exponents:
                for coeff2, target2 in diff.get(target, ()):
                    for f in coeff2.exponents:
                        acc[(target2, e + f)] = acc.get((target2, e + f), 0) ^ 1
        if any(acc.values()):
            raise ComplexValidationError(f"d squared is nonzero on {gid}")
    return spec, gens, diff


def fraction_complex_json(parts: ComplexParts) -> dict:
    """The JSON of :func:`floerbar.complexes.complex_to_json`, each action
    formatted from its Fraction."""
    spec, gens, diff = parts
    return {
        "spec": spec.to_json() if spec is not None else None,
        "generators": [{"id": g.gid, "degree": g.degree, "action": format_rational(g.action)}
                       for g in gens],
        "differential": {gid: [[str(coeff), target] for coeff, target in terms]
                         for gid, terms in sorted(diff.items())},
    }


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


def _bar_rows(bars: Iterable[Bar]) -> List[Tuple]:
    """``(degree, left, right)`` per bar, repeated by multiplicity; ``right``
    None for an infinite bar."""
    return [(bar.degree, bar.left, None if bar.is_infinite else bar.right)
            for bar in bars for _ in range(bar.multiplicity)]


def all_pairs_bottleneck(bars1: Sequence[Bar], bars2: Sequence[Bar],
                         degree_sensitive: bool = True):
    """:func:`floerbar.persistence.bottleneck_distance` of two lists of bars,
    by pricing every matchable pair and every deletion once, where the fast
    search prices only the pairs of a growing window of near left endpoints.

    Costs are ints over twice the common denominator when every endpoint is
    a Fraction, and the exact values otherwise.  Each cost is named by its
    rank among all of them, and each degree's ranks are bisected from the
    optimum of the degrees before it.  Of several equal costs the value
    returned is the first in the order zero, deletions of ``bars1`` then
    ``bars2``, left then right endpoint difference of each pair.
    """
    rows1, rows2 = _bar_rows(bars1), _bar_rows(bars2)
    groups = _degree_groups(rows1, rows2, degree_sensitive)
    if _infinite_mismatch(rows1, rows2, groups):
        return INF
    ends = [x for _d, l, r in rows1 + rows2 for x in (l, r) if x is not None]
    if all(type(x) is Fraction for x in ends):
        scale = 2 * math.lcm(*(x.denominator for x in ends))

        def key(x):
            return None if x is None else x.numerator * (scale // x.denominator)

        rows1, rows2 = ([(d, key(l), key(r)) for d, l, r in rows] for rows in (rows1, rows2))
        zero, half, value = 0, (lambda n: n // 2), (lambda k: Fraction(k, scale))
    else:
        zero, half, value = Fraction(0), _halve, (lambda v: v)
    dels = [None if r is None else half(r - l) for _d, l, r in rows1 + rows2]
    pairs = _matchable_pairs(rows1, rows2, groups)
    values, costs = [zero] + [d for d in dels if d is not None], []
    for i, j in pairs:
        (_d1, l1, r1), (_d2, l2, r2) = rows1[i], rows2[j]
        diffs = (abs(l1 - l2),) if r1 is None else (abs(l1 - l2), abs(r1 - r2))
        values += diffs
        costs.append(max(diffs))
    order, rank = _rank(values)
    del1, del2 = ([None if d is None else rank[d] for d in side]
                  for side in (dels[:len(rows1)], dels[len(rows1):]))
    rows = [[] for _ in rows1]
    for (i, j), cost in zip(pairs, costs):
        rows[i].append((rank[cost], j))
    best = 0
    for idx1, idx2 in groups:
        local = {j: n for n, j in enumerate(idx2)}
        group_rows = [sorted((k, local[j]) for k, j in rows[i]) for i in idx1]
        cols = _transposed(group_rows, len(idx2))
        d1, d2 = [del1[i] for i in idx1], [del2[j] for j in idx2]
        # a later group often fits within the optimum of the earlier ones;
        # else the largest key admits every pair and every deletion of a
        # finite bar
        if not _feasible_at(group_rows, cols, d1, d2, best):
            keys = {k for row in group_rows for k, _j in row}
            keys.update(k for k in d1 + d2 if k is not None)
            best = _least_feasible(group_rows, cols, d1, d2, sorted(k for k in keys if k > best))
    return value(order[best])


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
    rows1, rows2 = _bar_rows(b1.bars), _bar_rows(b2.bars)
    groups = _degree_groups(rows1, rows2, degree_sensitive)
    if _infinite_mismatch(rows1, rows2, groups):
        return INF, shifts.least()
    return _scan_shift(b1, b2, degree_sensitive, bars1, bars2,
                       _matchable_pairs(rows1, rows2, groups), shifts)


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
# persistence: keyed barcodes read on their Bars
# ---------------------------------------------------------------------------


def canonical_bars(bars: Iterable[Bar]) -> Tuple[Bar, ...]:
    """``bars`` merged and sorted by (degree, left, right) on the endpoints
    themselves, where a keyed :class:`floerbar.persistence.Barcode` merges
    and sorts int keys."""
    merged: Dict[Tuple, Bar] = {}
    for bar in bars:
        key = (bar.degree, bar.left, bar.right)
        prev = merged.get(key)
        merged[key] = bar if prev is None else Bar(
            prev.left, prev.right, prev.degree, prev.multiplicity + bar.multiplicity)
    return tuple(sorted(merged.values(), key=lambda b: (b.degree, b.left, b.right)))


def bar_readouts(bars: Sequence[Bar]) -> tuple:
    """Boundary depth, bar-length spectrum, gamma (degrees 1 and 0; the
    error message when undefined) and JSON of canonical ``bars``, computed
    on the ``Bar``s and their endpoints, where a keyed barcode reads its int
    rows."""
    finite = [b for b in bars if not b.is_infinite]
    lengths = sorted(b.length for b in finite for _ in range(b.multiplicity))
    infinite = sum(b.multiplicity for b in bars if b.is_infinite)

    def left_endpoint(deg: int):
        lefts = [b.left for b in bars if b.degree == deg and b.is_infinite
                 for _ in range(b.multiplicity)]
        if len(lefts) != 1:
            raise GammaUndefinedError(
                f"degree {deg} carries {len(lefts)} infinite bars, need exactly 1")
        return lefts[0]

    try:
        g = left_endpoint(1) - left_endpoint(0)
    except GammaUndefinedError as exc:
        g = str(exc)
    return (max((b.length for b in finite), default=Fraction(0)),
            tuple(lengths) + (INF,) * infinite, g, {"bars": [b.to_json() for b in bars]})


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
                   ) -> Dict[str, int]:
    """Solve w(left) - w(right) = net traversal on every arc.  The traversals
    of a candidate boundary are a closed cycle, and a validated diagram is a
    sphere, so a solution always exists (see ``enumerate_lunes``): an arc
    whose jump condition fails, or a face the search does not reach, raises
    AssertionError."""
    faces = list(geo.faces)
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
                    raise AssertionError(
                        f"inconsistent jump between faces {cur} and {nbr}: {traversals}")
            else:
                w[nbr] = val
                frontier.append(nbr)
    if len(w) != len(faces):
        raise AssertionError("face adjacency graph of a validated diagram is disconnected")
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
    by a search over the face adjacency graph, asserting every one of them,
    and the candidate is accepted if a constant offset makes it nonnegative
    with index one (offset forced to zero on the annulus by the boundary
    faces).  Wherever index one fixes an offset, the winding at that offset
    is asserted to fit the lanes of the packed test of ``enumerate_lunes``.
    """
    geo = _validated_geometry(d)
    limit = 1 << (d._analysis.field.lane_bits(max_wind) - 1)
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
                    _assert_in_lanes(geo, w, x, y, limit)
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


def _assert_in_lanes(geo: _Geometry, w: Dict[str, int], x: int, y: int, limit: int) -> None:
    """Assert ``|w + offset| < limit`` on every face for the offset that
    gives index one, when the corner sum admits one: the windings that the
    packed test of ``enumerate_lunes`` reads, in lanes of ``limit`` each
    way."""
    num = 2 - _lune_index_numerator(geo, w, x, y)
    if num % 8 == 0 and any(abs(c + num // 8) >= limit for c in w.values()):
        raise AssertionError(f"windings {w} at offset {num // 8} leave lanes of {limit} each way")


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


def _fraction_grade(d: TwoCurveDiagram, lunes: Sequence[Lune]
                    ) -> Tuple[Dict[int, int], Dict[int, Fraction]]:
    """The degrees and Fraction actions of ``floerbar.diagrams._grade``:
    the same walk of the lune graph, lunes taken by (area, source, target),
    each drop ``area + exponent * SPHERE_ACTION_STEP`` in Fractions."""
    sphere = d.surface == "sphere"
    adjacency: Dict[int, List[Lune]] = {p: [] for p in d.points}
    for lune in sorted(lunes, key=lambda l: (l.area, l.source, l.target)):
        adjacency[lune.source].append(lune)
        adjacency[lune.target].append(lune)
    degree: Dict[int, int] = {}
    action: Dict[int, Fraction] = {}
    for start in d.points:
        if start in degree:
            continue
        degree[start] = (start - 1) % 2 if sphere else 0
        action[start] = Fraction(0)
        component = [start]
        stack = [start]
        while stack:
            cur = stack.pop()
            for lune in adjacency[cur]:
                forward = lune.source == cur
                nbr = lune.target if forward else lune.source
                if sphere:
                    val = 1 - degree[cur]
                else:
                    val = degree[cur] - 1 if forward else degree[cur] + 1
                if nbr in degree:
                    if degree[nbr] != val:
                        raise InadmissibleDiagramError(
                            "lune graph is not bipartite" if sphere
                            else "lune degrees are inconsistent around a cycle")
                    continue
                degree[nbr] = val
                e = (degree[lune.source] - 1 - degree[lune.target]) // SPHERE_DEGREE_STEP \
                    if sphere else 0
                drop = lune.area + e * SPHERE_ACTION_STEP
                action[nbr] = action[cur] - drop if forward else action[cur] + drop
                component.append(nbr)
                stack.append(nbr)
        if not sphere:
            base = min(degree[p] for p in component)
            for p in component:
                degree[p] -= base
    return degree, action


def fraction_build_complex(d: TwoCurveDiagram, max_wind: int = 2) -> FilteredComplex:
    """Oracle for ``build_complex``: the lunes of ``enumerate_lunes``
    graded in Fractions (``_fraction_grade``), every lune checked against
    "action drop = area + exponent * recap area" in Fractions, and the
    complex built from :class:`~floerbar.complexes.Generator` objects.
    Raises what ``build_complex`` raises, with the same messages."""
    lunes = enumerate_lunes(d, max_wind)
    sphere = d.surface == "sphere"
    spec = sphere_spec() if sphere else None
    degree, action = _fraction_grade(d, lunes)
    entries: Dict[Tuple[int, int], int] = {}
    exponents: Dict[Tuple[int, int], int] = {}
    for lune in lunes:
        e = (degree[lune.source] - 1 - degree[lune.target]) // SPHERE_DEGREE_STEP \
            if sphere else 0
        if action[lune.source] - action[lune.target] != lune.area + e * SPHERE_ACTION_STEP:
            raise InadmissibleDiagramError(
                f"lune {lune.source}->{lune.target} (area {lune.area}) is"
                " incompatible with the action assignment: same-endpoint lunes"
                " must share their area in each recap class")
        key = (lune.source, lune.target)
        entries[key] = entries.get(key, 0) ^ 1
        exponents[key] = e
    differential: Dict[str, List[Tuple[NovikovScalar, str]]] = {}
    for (src, tgt), parity in sorted(entries.items()):
        if parity:
            differential.setdefault(f"a{src}", []).append(
                (NovikovScalar.monomial(spec, exponents[(src, tgt)]), f"a{tgt}"))
    gens = [Generator(f"a{p}", degree[p], action[p]) for p in d.points]
    try:
        return FilteredComplex(spec, gens, differential)
    except ValueError as exc:
        raise InadmissibleDiagramError(f"diagram complex invalid: {exc}") from exc


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


@dataclass(frozen=True)
class _Orbit:
    degree: int          # representative degree in [0, maslov)
    action: PiRational   # action of that representative
    source: Tuple


def _orbits(spectrum: GeneratorSpectrum) -> List[_Orbit]:
    """One orbit per source, in PiRational arithmetic, sorted by degree,
    action and source."""
    maslov = spectrum.params.maslov
    area = PiRational.of(spectrum.params.disk_area)
    seen: Dict[Tuple, _Orbit] = {}
    for e in spectrum.entries:
        rep_deg = e.degree % maslov
        shift = (rep_deg - e.degree) // maslov
        rep_action = e.action + area * shift if shift else e.action
        orbit = _Orbit(rep_deg, rep_action, e.source)
        prev = seen.get(e.source)
        if prev is not None and prev != orbit:
            raise ValueError(f"inconsistent recap copies for source {e.source}")
        seen[e.source] = orbit
    out = list(seen.values())
    out.sort(key=lambda o: (o.degree, o.action, o.source))
    return out


def brute_force_feasible_barcodes(spectrum: GeneratorSpectrum, ranks: Mapping[int, int],
                      limit: Optional[int] = None) -> frozenset:
    """All barcodes of action-decreasing differentials on the spectrum.

    ``ranks`` prescribes the number of infinite bars per degree class mod
    the Maslov period.  Enumeration works in the recapping quotient: each
    source contributes one orbit; a pair matches a degree-(d+1) orbit ``y``
    with a degree-d translate of an orbit ``z`` at strictly smaller action.
    Every orbit and every partner in each orientation is tried; a matching
    is recorded as the sorted tuple of its interned bars, and one
    ``Barcode`` is built per distinct tuple, which ``limit`` counts.
    Raises InfeasibleRanksError when nothing matches the prescription.
    """
    maslov = spectrum.params.maslov
    area = PiRational.of(spectrum.params.disk_area)
    orbits = _orbits(spectrum)
    quota = rank_quotas(ranks, maslov)
    counts: Dict[int, int] = {}
    for o in orbits:
        counts[o.degree] = counts.get(o.degree, 0) + 1
    for d, q in quota.items():
        if counts.get(d, 0) < q:
            raise InfeasibleRanksError(
                f"degree class {d} has {counts.get(d, 0)} generators but needs {q} infinite bars")

    # every bar a matching can use is built once and interned by value: an
    # orbit's infinite bar, and the bar of each allowed pair (y, z), with
    # deg(y) = deg(z) + 1 after an integral recap shift of z and action(z
    # translate) < action(y), normalized into the fundamental degree window
    ids: Dict[Bar, int] = {}
    free_bar = [ids.setdefault(Bar(o.action, INF, o.degree), len(ids)) for o in orbits]
    n = len(orbits)
    allowed: Dict[Tuple[int, int], int] = {}
    for iy, y in enumerate(orbits):
        for iz, z in enumerate(orbits):
            diff = y.degree - 1 - z.degree
            if diff % maslov != 0:
                continue
            j = diff // maslov
            if z.action + area * j < y.action:
                raw_deg = z.degree + j * maslov
                t = ((raw_deg % maslov) - raw_deg) // maslov
                bar = Bar(z.action + area * (j + t), y.action + area * t, raw_deg % maslov)
                allowed[(iy, iz)] = ids.setdefault(bar, len(ids))

    # each matching as the sorted tuple of its bars' ids
    results: Set[Tuple[int, ...]] = set()
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
        results.add(tuple(sorted([free_bar[i] for i, st in enumerate(state) if st == "free"]
                                 + [allowed[key] for key in pair_list])))
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

    try:
        dfs(0)
    finally:
        del dfs  # it refers to itself: break the cycle through its closure
    if not results:
        raise InfeasibleRanksError("no matching leaves the prescribed infinite bars")
    bars = list(ids)
    return frozenset(Barcode(bars[k] for k in picks) for picks in results)


# ---------------------------------------------------------------------------
# exactpi: the sign of the difference value
# ---------------------------------------------------------------------------


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


def _encoding_cases(rng: random.Random, n: int):
    """For each of the first three codes, every convergent ``p/q`` of pi with
    ``q`` up to the code's bound B, as ``(code, a, b)`` for ``a - q*pi`` and
    its negation, ``a`` each of ``p - 1``, ``p`` and ``p + 1``; then ``n``
    drawn pairs of values whose difference is keyed, every third a near tie
    ``x + eps*(pi - c)`` for a convergent ``c`` and ``eps`` below 2**-20."""
    for level in (1, 2, 3):
        code, bits = _level_code(level), 256
        while max(q for _p, q in _convergents(bits)) <= code.bound:
            bits *= 2
        for p, q in _convergents(bits):
            for a in (p - 1, p, p + 1):
                if q <= code.bound:
                    yield code, a, -q
                    yield code, -a, q

    def value():
        return PiRational(_random_fraction(rng, -5, 5),
                          _random_fraction(rng, -5, 5) if rng.random() < 0.7 else 0)

    for i in range(n):
        x = value()
        if i % 3:
            yield x, value()
        else:
            c = rng.choice((Fraction(355, 113), Fraction(103993, 33102)))
            eps = Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), 2 ** rng.randint(20, 90))
            yield x, PiRational(x.rational - eps * c, x.pi_coeff + eps)


def _encoding_agrees(*case) -> bool:
    """``(code, a, b)``: the sign of ``a*M + b*P`` is that of ``a + b*pi``,
    for ``|b|`` up to the bound itself.  ``(x, y)``: the keys of ``x`` and
    ``y`` over their least common scale in the least code that holds their
    pi parts times ``SPREAD`` differ by a key of the sign of ``x - y`` and
    the parts of ``x - y``."""
    if len(case) == 3:
        code, a, b = case
        e = a * code.M + b * code.P
        return (e > 0) - (e < 0) == pi_rational_cmp(PiRational(a, b), 0)
    x, y = case
    scale = math.lcm(x.rational.denominator, x.pi_coeff.denominator, y.rational.denominator,
                     y.pi_coeff.denominator)
    (ax, bx), (ay, by) = _pair(x, scale), _pair(y, scale)
    code = code_for(max(abs(bx), abs(by)), SPREAD)
    e = code.encode(ax, bx) - code.encode(ay, by)
    return (e > 0) - (e < 0) == pi_rational_cmp(x, y) and code.parts(e) == (ax - ay, bx - by)


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
    ``n``; the window agreement draws ``n // 10`` pi pairs after them);
    ``holds(*case)`` is true when a case passes."""

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
    """Fixed: the bundled annulus at winding caps 0-7, and sphere diagrams
    of 10, 12 and 14 crossings (each drawn from the seed of its crossing
    number) at caps 3, 4 and 5, where many point pairs share a residue class
    of ``enumerate_lunes``.  Then drawn: 196 small sphere diagrams at
    winding caps 0-4, four of 8, 12, 16 and 20 crossings at cap 2,
    relabelled copies of the first 30 and of the 8- and 12-crossing ones,
    and small ones again."""
    annulus = equator_pair_annulus(annulus_example_areas(Fraction(1, 10)))
    for max_wind in range(8):
        yield annulus, max_wind
    for crossings, max_wind in ((10, 3), (12, 4), (14, 5)):
        yield random_sphere_diagram(random.Random(crossings), crossings), max_wind
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


def _diagram_complex_cases(rng: random.Random, n: int):
    """The cases of ``_lune_cases``, each followed by a copy with the area
    of one face doubled, the face taken in name order by the case's
    position: on the sphere the copy breaks bisection, and on the annulus a
    doubled square leaves same-endpoint lunes of unequal area."""
    for i, (d, max_wind) in enumerate(_lune_cases(rng, n)):
        yield d, max_wind
        names = sorted(d.areas)
        face = names[i % len(names)]
        yield replace(d, areas=dict(d.areas, **{face: 2 * d.areas[face]})), max_wind


def _diagram_complexes_agree(d: TwoCurveDiagram, max_wind: int) -> bool:
    """``build_complex`` and ``fraction_build_complex`` give the same scale,
    rows and differential, or raise the same exception type and message."""
    fast, slow = (_parsed(functools.partial(build, max_wind=max_wind), d)
                  for build in (build_complex, fraction_build_complex))
    if isinstance(fast, Exception) or isinstance(slow, Exception):
        return type(fast) is type(slow) and str(fast) == str(slow)
    return (fast.scale, fast.rows, fast.differential) == (slow.scale, slow.rows, slow.differential)


# Twin-heavy tents: dimension 1, Maslov number 2 and a rise slope above 2,
# so that each kink level gives two twin orbits; as (capacity, kink
# abscissa, base value, rise slope, fall slope, exterior, disk area).
_TWIN_TENTS = (
    (Fraction(3, 4), Fraction(3, 10), Fraction(-1, 4), Fraction(23, 10), Fraction(13, 10), (0,),
     PiRational.pi(Fraction(1, 40))),
    (Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(21, 10), Fraction(11, 10), (0, 1),
     PiRational(Fraction(1, 20), Fraction(1, 50))),
    (Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(21, 10), Fraction(21, 10), (0,),
     PiRational.of(Fraction(1, 20))),
)


def _twin_tent(capacity, mid, base, rise, fall, exterior, area) -> GeneratorSpectrum:
    top = base + rise * mid
    points = ((0, base), (mid, top), (capacity, top - fall * (capacity - mid)))
    profile = RadialProfile(tuple((PiRational.of(r), PiRational.of(f)) for r, f in points),
                            exterior)
    return generators(profile, LagrangianParams(1, 2, area))


def _feasible_cases(rng: random.Random, n: int):
    """The twin-heavy tents of 10, 11 and 12 generators, then ``n`` drawn
    tents of at most ``sampling._MAX_TENT_GENERATORS``."""
    for tent in _TWIN_TENTS:
        yield (_twin_tent(*tent),)
    for _ in range(n):
        yield (random_tent_spectrum(rng),)


def _feasible_agrees(spectrum: GeneratorSpectrum) -> bool:
    """``feasible_barcodes`` equals its oracle under every rank prescription
    (both raising ``InfeasibleRanksError`` counts as agreement); its budget
    counts distinct barcodes: a limit of their number passes, one less
    raises; and ``forced_bar_bound``, found on keys, is the least
    ``boundary_depth`` over the oracle's barcodes, of equal type."""
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
                or outcome(feasible_barcodes, ranks, len(slow) - 1) != "exceeded the limit"
                or not _same(forced_bar_bound(spectrum, ranks),
                             min(boundary_depth(bc) for bc in slow))):
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
    ``_window_pair`` draws; after those ``n``, ``n // 10`` ``_scan_pair``
    pairs with pi endpoints of 20 to 60 bars a side, or the first side of
    one and a near copy."""
    for i in range(n):
        if i < 20:
            cx, _planted = random_complex(rng, (20, 40, 80, 160)[i % 4])
            pert, _used = perturb_actions(rng, cx, Fraction(1, rng.choice((10, 100, 1000))))
            yield barcode(cx), barcode(pert)
        else:
            yield _window_pair(rng, i - 20)
    for _ in range(n // 10):
        a, b = _scan_pair(rng, rng.randint(20, 60), True)
        if rng.random() < 0.5:
            b = _near_copy(rng, a, Fraction(1, rng.choice((10, 100))))
        yield a, b


def _window_agrees(a: Barcode, b: Barcode) -> bool:
    """``bottleneck_distance`` agrees in value and type, in both degree
    modes, with the all-pairs search on the bars."""
    return _both_modes(bottleneck_distance,
                       lambda x, y, sensitive: all_pairs_bottleneck(x.bars, y.bars, sensitive),
                       _same)(a, b)


def _typed(values) -> list:
    return [(type(v), v) for v in values]


def _typed_bars(bars) -> list:
    return [(b.degree, b.multiplicity, *_typed((b.left, b.right))) for b in bars]


def _pi_typed(bars: Iterable[Bar]) -> List[Bar]:
    """``bars`` with every Fraction endpoint a PiRational of zero pi part."""
    def lift(x):
        return PiRational(x, Fraction(0)) if type(x) is Fraction else x
    return [Bar(lift(b.left), lift(b.right), b.degree, b.multiplicity) for b in bars]


def _keys_agree(a: Barcode, raw_a: List[Bar], b: Barcode, raw_b: List[Bar],
                sensitive: bool) -> bool:
    """``a`` and ``b``, made from the bars ``raw_a`` and ``raw_b``, agree in
    value and type with the Bar route: canonical order; equality and hash
    against ``Barcode(raw)``, the JSON of ``raw``, their own JSON and the
    pi-typed copy, and equality with the halved copy; boundary depth,
    spectrum and its JSON, gamma and JSON; the bottleneck distance."""
    canon_a, canon_b = canonical_bars(raw_a), canonical_bars(raw_b)
    for x, raw, canon in ((a, raw_a, canon_a), (b, raw_b, canon_b)):
        copies = (Barcode(raw), Barcode.from_json({"bars": [bar.to_json() for bar in raw]}),
                  Barcode.from_json(x.to_json()))
        if _typed_bars(x.bars) != _typed_bars(canon) or any(
                y != x or hash(y) != hash(x) or _typed_bars(y.bars) != _typed_bars(canon)
                for y in copies):
            return False
        pi = Barcode(_pi_typed(raw))
        # halving keeps the keys and doubles the scale of most barcodes
        halved = [Bar(_halve(y.left), y.right if y.is_infinite else _halve(y.right), y.degree,
                      y.multiplicity) for y in raw]
        if pi != x or hash(pi) != hash(x) or (
                (Barcode(halved) == x) != (canonical_bars(halved) == canon)):
            return False
        try:
            g = gamma(x, 1, 0)
        except GammaUndefinedError as exc:
            g = str(exc)
        depth, spectrum, g_slow, data = bar_readouts(canon)
        if not (_same(boundary_depth(x), depth) and _same(g, g_slow) and x.to_json() == data
                and _typed(bar_length_spectrum(x)) == _typed(spectrum)
                and bar_length_spectrum_json(x) == [
                    "inf" if v is INF else v.to_json() if type(v) is PiRational
                    else format_rational(v) for v in spectrum]):
            return False
    return (a == b) == (canon_a == canon_b) and _same(
        bottleneck_distance(a, b, sensitive), all_pairs_bottleneck(canon_a, canon_b, sensitive))


def _reduction_bars(cx: FilteredComplex) -> List[Bar]:
    """One ``Bar`` per pair and per singular cycle of the reduction, from its
    Fraction levels, where ``barcode`` hands over int keys."""
    basis = uz_reduce(cx)
    return ([Bar(za, ya, deg) for deg, za, ya in basis.pair_levels]
            + [Bar(act, INF, deg) for deg, act in basis.cycle_levels])


def _key_cases(rng: random.Random, n: int):
    """First, bars that spell 1/2 both as a Fraction and as a PiRational of
    zero pi part, built and read back from JSON in reverse order, so each
    side keeps another spelling of the merged bar.  Then in turn: the
    barcodes of a planted complex of 4, 10, 20 or 40 generators and of a
    perturbed copy; a ``_scan_pair`` pair of Fraction endpoints, one side
    built from its shuffled bars and one read from their JSON; the same with
    pi endpoints.  1 to 10 bars a side in the pairs; degree-sensitive on
    even cases."""
    half, pi_half = Fraction(1, 2), PiRational(Fraction(1, 2), Fraction(0))
    raw = [Bar(half, Fraction(2)), Bar(pi_half, Fraction(2)), Bar(pi_half, INF, 1),
           Bar(Fraction(0), INF, 0), Bar(half, PiRational.pi())]
    yield (Barcode(raw), raw, Barcode.from_json({"bars": [x.to_json() for x in raw[::-1]]}),
           raw[::-1], True)
    for i in range(n):
        if i % 3 == 0:
            cx, _planted = random_complex(rng, (4, 10, 20, 40)[i // 3 % 4])
            pert, _used = perturb_actions(rng, cx, Fraction(1, rng.choice((10, 100))))
            a, b = barcode(cx), barcode(pert)
            raw_a, raw_b = _reduction_bars(cx), _reduction_bars(pert)
        else:
            raw_a, raw_b = (list(x.bars) for x in _scan_pair(rng, 1 + i % 10, i % 3 == 2))
            rng.shuffle(raw_a)
            rng.shuffle(raw_b)
            a, b = Barcode(raw_a), Barcode.from_json({"bars": [x.to_json() for x in raw_b]})
        yield a, raw_a, b, raw_b, i % 2 == 0


def _parsed(parse, doc):
    """``parse(doc)``, or the exception a malformed or invalid ``doc`` raises."""
    try:
        return parse(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return exc


def _complex_keys_agree(doc, planted: Optional[Barcode]) -> bool:
    """``complex_from_json`` and its Fraction oracle accept the same
    documents, raise the same exception types and messages on the others,
    and agree on the parts.  An accepted complex then equals the one built
    from its Fraction generators, row for row; its JSON is the Fraction
    JSON and reads back to itself; it unrolls like ``fraction_unroll`` in
    its default degree window and in an action window; and its barcode is
    the one of the rebuilt complex, and the planted one when given."""
    fast, slow = _parsed(complex_from_json, doc), _parsed(fraction_complex_from_json, doc)
    if isinstance(fast, Exception) or isinstance(slow, Exception):
        return type(fast) is type(slow) and str(fast) == str(slow)
    if (fast.spec, fast.generators, fast.differential) != slow:
        return False
    built = FilteredComplex(*slow)
    data = complex_to_json(fast)
    window = fast.default_degree_window()
    lo = min((g.action for g in slow[1]), default=Fraction(0))
    actions = (lo - Fraction(1, 3), lo + Fraction(3, 2))
    bc = barcode(fast)
    return ((built.scale, built.istep, built.rows) == (fast.scale, fast.istep, fast.rows)
            and data == fraction_complex_json(slow)
            and complex_to_json(complex_from_json(data)) == data
            and fast.unroll(None, window) == fraction_unroll(fast, None, window)
            and fast.unroll(actions) == fraction_unroll(fast, actions)
            and bc == barcode(built) and (planted is None or bc == planted))


_JUNK = (None, True, 0, 1, 0.5, "", "abc", "1/0", "q", "q^x", "1+q", "x", "inf", [0, "1"],
         {"id": None})
_COEFFICIENTS = ("1", "q", "q^-1", "1+q", "q^2", "1+1", "t")


def _json_paths(node, path=()):
    """Every node of a JSON document, as the key path from the root."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _mutated_node(rng: random.Random, doc):
    """``doc`` with one node dropped, wrapped in a list, truncated or
    retyped, as ``tests/test_schema_fuzz.py`` mutates files."""
    path = rng.choice(list(_json_paths(doc)))
    kind = rng.choice(("retype", "drop", "wrap", "truncate"))
    junk = copy.deepcopy(rng.choice(_JUNK))
    if not path:
        return junk if kind == "retype" else [doc]
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "wrap":
        parent[key] = [parent[key]]
    elif kind == "truncate" and isinstance(parent[key], list):
        parent[key] = parent[key][:rng.randrange(len(parent[key]) or 1)]
    else:
        parent[key] = junk
    return doc


def _respelled(rng: random.Random, text: str) -> str:
    """The rational ``text`` written another way."""
    x = Fraction(text)
    k = rng.randint(2, 5)
    spellings = [f"{x.numerator * k}/{x.denominator * k}", f" {text} ",
                 f"{x.numerator:+d}/{x.denominator}"]
    m = next((m for m in range(7) if 10 ** m % x.denominator == 0), None)
    if m is not None:
        spellings.append(f"{x.numerator * 10 ** m // x.denominator}e-{m}")
    return rng.choice(spellings)


def _edited_values(rng: random.Random, doc: dict) -> dict:
    """``doc`` with one value edited: an action respelled or redrawn, an
    action raised to tie with a term of its differential, a degree moved, a
    coefficient replaced, a term added, a generator repeated, or a term
    naming an unknown generator."""
    gens, diff = doc["generators"], doc["differential"]
    g = rng.choice(gens)
    kind = rng.choice(("respell", "action", "tie", "degree", "coefficient", "term", "repeat",
                       "unknown"))
    if kind == "tie" and diff:
        gid = rng.choice(sorted(diff))
        coeff, target = rng.choice(diff[gid])
        spec = NovikovSpec.from_json(doc["spec"]) if doc["spec"] else None
        e = max(NovikovScalar.parse(coeff, spec).exponents)
        level = Fraction(next(x["action"] for x in gens if x["id"] == target)) + \
            e * (spec.action_step if spec else 0)
        next(x for x in gens if x["id"] == gid)["action"] = format_rational(level)
    elif kind == "respell":
        g["action"] = _respelled(rng, g["action"])
    elif kind == "action":
        g["action"] = str(_random_fraction(rng))
    elif kind == "degree":
        g["degree"] += rng.choice((-1, 1))
    elif kind == "coefficient" and diff:
        terms = diff[rng.choice(sorted(diff))]
        rng.choice(terms)[0] = rng.choice(_COEFFICIENTS)
    elif kind in ("term", "coefficient"):
        diff.setdefault(g["id"], []).append([rng.choice(_COEFFICIENTS),
                                             rng.choice(gens)["id"]])
    elif kind == "repeat":
        gens.append(dict(rng.choice(gens)))
    else:
        diff.setdefault(rng.choice((g["id"], "nowhere")), []).append(["1", "nowhere"])
    return doc


_SPECS = (None, NovikovSpec("t", 1, Fraction(1, 3)), NovikovSpec("q", 3, Fraction(2, 5)))


def _complex_key_cases(rng: random.Random, n: int):
    """Fixed: a complex whose d squares to nonzero and one with a repeated
    id.  Then in turn, from planted complexes of 2 to 16 generators over
    three specs: the planted complex with its barcode, a perturbed copy, a
    spec-less unrolled strip, a copy with one node mutated and a copy with
    one value edited."""
    chain = {"spec": {"var": "q", "degree_step": 2, "action_step": "1/2"},
             "generators": [{"id": x, "degree": d, "action": str(d)}
                            for x, d in (("x", 2), ("y", 1), ("z", 0))],
             "differential": {"x": [["1", "y"]], "y": [["1", "z"]]}}
    yield chain, None
    repeated = copy.deepcopy(chain)
    repeated["generators"][2]["id"] = "x"
    yield repeated, None
    for i in range(n):
        cx, planted = random_complex(rng, rng.randint(2, 16), rng.choice(_SPECS))
        kind = i % 5
        if kind == 0:
            yield complex_to_json(cx), planted
            continue
        if kind == 1 or kind == 4 and rng.random() < 0.5:
            cx, _used = perturb_actions(rng, cx, Fraction(1, rng.choice((10, 100, 1000))))
        elif kind == 2 or rng.random() < 0.3:
            lo = rng.randint(-2, 1)
            cx = cx.unroll_complex(degree_window=(lo, lo + rng.randint(1, 4)))
        doc = complex_to_json(cx)
        if kind == 3:
            doc = _mutated_node(rng, doc)
        elif kind == 4 and doc["generators"]:
            doc = _edited_values(rng, doc)
        yield doc, None


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
    Property("feasible-oracle-agreement", _feasible_cases, _feasible_agrees),
    Property("radial-fold-bound",
             lambda _rng, _n: ((Fraction(num, 10),) for num in range(1, 10)), _fold_bound_holds),
    Property("seidel-table",
             lambda _rng, _n: ((name, n) for name in EXAMPLE_CASE_NAMES for n in range(1, 6)),
             _telescoping_agrees),
    Property("unroll-oracle-agreement", _drawn(random_unroll_case),
             lambda cx, aw, dw: cx.unroll(aw, dw) == fraction_unroll(cx, aw, dw)),
    Property("shift-scan-agreement", _scan_cases, _shift_agrees(scan_shifted_bottleneck)),
    Property("bottleneck-window-agreement", _window_cases, _window_agrees),
    Property("barcode-key-agreement", _key_cases, _keys_agree),
    Property("complex-key-agreement", _complex_key_cases, _complex_keys_agree),
    Property("diagram-complex-agreement", _diagram_complex_cases, _diagram_complexes_agree),
    Property("pi-encoding-agreement", _encoding_cases, _encoding_agrees),
)
