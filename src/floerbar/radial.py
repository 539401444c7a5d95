"""Generator spectra of radially symmetric Hamiltonian profiles.

A profile is a piecewise linear function of the radial capacity coordinate
``rho = pi * r**2 / 2``-style (i.e. ``pi`` times the radius parameter), so
that slope comparisons against integer multiples of pi and all generator
actions stay inside the exact module Q + Q*pi.  Its Floer-type generator
spectrum is read off the corners:

* every interior kink ``(rho_i, f_i)`` contributes, for each integer level
  ``l`` strictly between the adjacent slopes (slopes measured in pi units),
  two generators of action ``f_i - l*rho_i``; their degrees are
  ``(-l*n, -l*n + n - 1)`` at a convex corner and ``(-l*n + 1, -l*n + n)``
  at a concave one;
* the origin contributes one generator of degree ``-l*n`` and action
  ``f(0)``, where ``l`` brackets the initial slope;
* each exterior Morse index ``j`` contributes one generator of degree ``j``
  and action ``f(rho_max)``;

all recapped over a range of ``k`` by ``(degree, action) +=
(k*maslov, k*disk_area)``.

``feasible_barcodes`` enumerates every barcode that SOME action-decreasing
differential on a spectrum could produce -- partial matchings pairing a
degree-(d+1) generator with a strictly lower degree-d generator, leaving a
prescribed number of unmatched generators (infinite bars) per degree class
-- and ``forced_bar_bound`` takes the minimum boundary depth over them: a
certified lower bound for the boundary depth of any filtered complex with
that spectrum.  ``homotopy_filter`` prunes the feasible sets along a sampled
family of profiles using barcode continuity with a caller-supplied constant.

The search works on runs of twins -- orbits of equal degree and action,
such as the two kink slots in dimension 1 -- because a bar depends only on
the runs of its orbits.  Profiles, actions and the disk area are read as int
parts over one scale, with no PiRational arithmetic: slopes and the
spectrum are found on them, and each spectrum keys its actions once as ints
of one :class:`~floerbar.exactpi.PiCode`, on which the orbits, runs and
their bars are found: every bar a matching can produce (one infinite bar
per run, one finite bar per allowed ordered pair of runs) is a key row, and
the rows sorted in canonical order and brought to their least scale are the
bar table, each bar named by its rank there.  The search walks the runs in
order and chooses, for each, how many of its orbits stay free and how many
of the rest pair with each later run in each orientation, so every complete
choice is a distinct barcode, reached once, named by the sorted tuple of
its ranks; ``limit`` counts them.  Counting the orbits left in each degree
class prunes choices that no pairing can complete.  One ``Barcode`` is built
per tuple after the search, straight from the ranks: ``Barcode.from_ranks``
picks its rows of the table and hands over its depth key, read off the
table's row lengths, so no barcode sorts, decodes or subtracts endpoints of
its own; a barcode's bars are decoded only when read, through the table's
bars.  ``forced_bar_bound`` compares the barcodes' depths on those keys and
reads out only the least.
The search stays exponential in the number of runs.
``brute_force_feasible_barcodes`` in :mod:`floerbar.oracles`, the
per-matching enumerator that searches orbits rather than runs and builds one
``Barcode`` per distinct sorted tuple of interned bars, is kept as the
oracle that tests and ``check`` compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .exactpi import SPREAD, PiRational, code_for, key_sign
from .novikov import LagrangianParams, parse_int
from .persistence import (INF, Barcode, _denominators, _pair, _PiInt, _row_order, _typed,
                          bottleneck_distance, least_depth)

__all__ = [
    "RadialProfile",
    "SpectrumEntry",
    "GeneratorSpectrum",
    "SlopeDegeneracyError",
    "InfeasibleRanksError",
    "PruningEmptyError",
    "generators",
    "degree_actions",
    "degree_class_actions",
    "rank_quotas",
    "feasible_barcodes",
    "forced_bar_bound",
    "homotopy_filter",
    "sup_difference",
    "fold_profile",
]


class SlopeDegeneracyError(ValueError):
    """A profile slope equals an integer multiple of pi."""


class InfeasibleRanksError(ValueError):
    """No action-decreasing matching realizes the requested infinite-bar counts."""


class PruningEmptyError(ValueError):
    """Continuity pruning eliminated every candidate barcode at some sample."""


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise linear profile in the capacity coordinate ``rho = pi*r``.

    ``breakpoints`` are ``(rho, value)`` with ``rho`` increasing from 0;
    ``exterior`` lists the Morse indices contributing generators at the
    outermost value.
    """

    breakpoints: Tuple[Tuple[PiRational, PiRational], ...]
    exterior: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        pts = tuple((PiRational.of(r), PiRational.of(f)) for r, f in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "exterior", tuple(parse_int(j) for j in self.exterior))
        keys = self._keys[1]  # checked on the int parts that ``generators`` reads
        if len(keys) < 2:
            raise ValueError("a profile needs at least two breakpoints")
        if keys[0][:2] != (0, 0):
            raise ValueError("the first breakpoint must sit at rho = 0")
        for (r0, r0pi, _f, _fpi), (r1, r1pi, _f, _fpi) in zip(keys, keys[1:]):
            if key_sign(r1 - r0, r1pi - r0pi) <= 0:
                raise ValueError("breakpoint abscissae must strictly increase")

    # a cached_property stores its value in the instance __dict__, which a
    # frozen dataclass leaves writable; it is not a field
    @functools.cached_property
    def _keys(self) -> Tuple[int, Tuple[Tuple[int, int, int, int], ...]]:
        """``(scale, points)``: the least common scale of the breakpoints and
        each breakpoint times it, ``(rho, rho_pi, f, f_pi)``, the rational
        and pi parts of both coordinates as ints."""
        scale = math.lcm(*(d for pt in self.breakpoints for x in pt for d in _denominators(x)))
        return scale, tuple(_pair(r, scale) + _pair(f, scale) for r, f in self.breakpoints)

    def to_json(self) -> dict:
        return {
            "R": self.breakpoints[-1][0].to_json(),
            "breakpoints": [[r.to_json(), f.to_json()] for r, f in self.breakpoints],
            "exterior": list(self.exterior),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RadialProfile":
        return cls(
            breakpoints=tuple((PiRational.from_json(r), PiRational.from_json(f))
                              for r, f in data["breakpoints"]),
            exterior=tuple(data.get("exterior", ())),
        )


@dataclass(frozen=True)
class SpectrumEntry:
    degree: int
    action: PiRational
    source: Tuple
    k: int = 0


@dataclass(frozen=True)
class GeneratorSpectrum:
    entries: Tuple[SpectrumEntry, ...]
    params: LagrangianParams

    # a cached_property stores its value in the instance __dict__, which a
    # frozen dataclass leaves writable; it is not a field
    @functools.cached_property
    def _keys(self) -> Tuple[int, Tuple[int, int], List[Tuple[int, int]]]:
        """``(scale, area, actions)``: the least common scale of the disk area
        and the actions, and each of them times it as its rational and pi
        parts, taken once per spectrum."""
        area = PiRational.of(self.params.disk_area)
        scale = math.lcm(*_denominators(area),
                         *(d for e in self.entries for d in _denominators(e.action)))
        return scale, _pair(area, scale), [_pair(e.action, scale) for e in self.entries]


def _slope_floor(df: int, df_pi: int, drho: int, drho_pi: int) -> int:
    """floor(df/drho) for the int parts of ``df`` and ``drho > 0``, raising
    on exact integer slopes."""
    def above(l: int) -> int:  # the sign of l*drho - df, increasing in l
        return key_sign(l * drho - df, l * drho_pi - df_pi)

    lo, hi = -1, 1
    while above(lo) >= 0:
        lo *= 2
    while above(hi) < 0:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) < 0 else (lo, mid)
    if not above(hi):
        raise SlopeDegeneracyError("slope is an integer multiple of pi")
    return lo


def _slope_less(seg_a: Tuple[int, ...], seg_b: Tuple[int, ...]) -> bool:
    """slope(seg_a) < slope(seg_b) for segments ``(df, df_pi, drho,
    drho_pi)`` of positive runs.  The runs must be proportional over Q, so
    that the cross-multiplied comparison stays inside the module."""
    (fa, fa_pi, ra, ra_pi), (fb, fb_pi, rb, rb_pi) = seg_a, seg_b
    # drho_b = (p/q) * drho_a
    if ra and rb_pi * ra == rb * ra_pi:
        p, q = rb, ra
    elif not ra and not rb and ra_pi:
        p, q = rb_pi, ra_pi
    else:
        raise ValueError("profile run lengths are not rationally proportional")
    if q < 0:
        p, q = -p, -q
    return key_sign(fa * p - fb * q, fa_pi * p - fb_pi * q) < 0


def generators(profile: RadialProfile, params: LagrangianParams,
               k_range: Sequence[int] = (0,)) -> GeneratorSpectrum:
    """Generator spectrum of a profile at the levels its slopes require,
    within an explicit recap range.

    The actions are found on the int parts of the profile and the disk area
    over one scale, and read out once.
    """
    n = params.dim
    maslov = params.maslov
    area = PiRational.of(params.disk_area)
    pscale, pts = profile._keys
    scale = math.lcm(pscale, *_denominators(area))
    if scale != pscale:
        pts = [tuple(x * (scale // pscale) for x in pt) for pt in pts]
    area_a, area_pi = _pair(area, scale)
    segs = [(f1 - f0, f1pi - f0pi, r1 - r0, r1pi - r0pi)
            for (r0, r0pi, f0, f0pi), (r1, r1pi, f1, f1pi) in zip(pts, pts[1:])]
    floors = [_slope_floor(*seg) for seg in segs]

    base: List[Tuple] = []  # (degree, action, action_pi, source)

    # origin: initial slope bracketed by (l, l+1)
    l0 = floors[0]
    base.append((-l0 * n, *pts[0][2:], ("origin", l0)))

    # interior kinks
    for i in range(1, len(pts) - 1):
        before, after = floors[i - 1], floors[i]
        concave_up = _slope_less(segs[i - 1], segs[i])
        lo_f, hi_f = (before, after) if concave_up else (after, before)
        rho, rho_pi, f, f_pi = pts[i]
        for l in range(lo_f + 1, hi_f + 1):
            degs = (-l * n, -l * n + n - 1) if concave_up else (-l * n + 1, -l * n + n)
            kind = "up" if concave_up else "down"
            for slot, deg in enumerate(degs):
                base.append((deg, f - l * rho, f_pi - l * rho_pi, ("kink", i, l, kind, slot)))

    # exterior Morse generators at the outermost value
    for j in profile.exterior:
        base.append((j, *pts[-1][2:], ("exterior", j)))

    keyed = [(deg + k * maslov, a + k * area_a, b + k * area_pi, source, k)
             for k in k_range for deg, a, b, source in base]
    code = code_for(max((abs(b) for _d, _a, b, _s, _k in keyed), default=0), SPREAD)
    keyed.sort(key=lambda e: (e[0], code.encode(e[1], e[2]), e[3], e[4]))
    return GeneratorSpectrum(tuple(
        SpectrumEntry(deg, PiRational(Fraction(a, scale), Fraction(b, scale)), source, k)
        for deg, a, b, source, k in keyed), params)


def degree_actions(spectrum: GeneratorSpectrum, degree: int) -> Tuple:
    """Action multiset of the entries of one exact degree, ascending."""
    acts = [e.action for e in spectrum.entries if e.degree == degree]
    acts.sort()
    return tuple(acts)


def degree_class_actions(spectrum: GeneratorSpectrum, degree: int) -> Tuple:
    """Distinct actions over the whole degree class mod the Maslov period,
    ascending; of equal ones the first entry's.  Found on the actions' int
    parts over one scale."""
    maslov = spectrum.params.maslov
    chosen = [(e.action, pair) for e, pair in zip(spectrum.entries, spectrum._keys[2])
              if (e.degree - degree) % maslov == 0]
    code = code_for(max((abs(b) for _x, (_a, b) in chosen), default=0), SPREAD)
    acts = {}
    for x, pair in chosen:
        acts.setdefault(code.encode(*pair), x)
    return tuple(acts[k] for k in sorted(acts))


# ---------------------------------------------------------------------------
# feasible barcodes
# ---------------------------------------------------------------------------


def rank_quotas(ranks: Mapping[int, int], maslov: int) -> Dict[int, int]:
    """The nonzero infinite-bar counts of ``ranks`` per degree class mod the
    Maslov number.  A negative count raises ValueError naming its degree.
    Two keys in one class raise ValueError naming the class: which of their
    counts holds would depend on the order of the keys."""
    key_of: Dict[int, int] = {}
    quota: Dict[int, int] = {}
    for d, c in ranks.items():
        if c < 0:
            raise ValueError(f"degree {d} has a negative infinite-bar count {c}")
        cls = d % maslov
        if cls in key_of:
            raise ValueError(f"rank keys {key_of[cls]} and {d} fall in one degree "
                             f"class {cls} mod {maslov}")
        key_of[cls] = d
        if c:
            quota[cls] = int(c)
    return quota


def _pairable(to_pair: Sequence[int]) -> bool:
    """Whether ``to_pair[d]`` orbits of each degree class d can all be
    paired, counting orbits alone: some pair counts ``p[d] >= 0`` of the
    classes d and d + 1 (mod the Maslov number, the length of ``to_pair``)
    have ``to_pair[d] == p[d] + p[d - 1]``.  Written through ``x = p[-1]``,
    ``p[d] = a[d] - x`` for even d and ``a[d] + x`` for odd d, where
    ``a[d] = to_pair[d] - a[d - 1]``; going round the cycle fixes x when
    its length is odd and asks ``a[-1] == 0`` when it is even."""
    lo, hi, a = 0, to_pair[0], 0  # x lies in [lo, hi]
    for d, c in enumerate(to_pair):
        a = c - a
        if d % 2:
            if -a > lo:
                lo = -a
        elif a < hi:
            hi = a
    if len(to_pair) % 2:
        return a % 2 == 0 and lo <= a // 2 <= hi
    return a == 0 and lo <= hi


def feasible_barcodes(spectrum: GeneratorSpectrum, ranks: Mapping[int, int],
                      limit: Optional[int] = None) -> frozenset:
    """All barcodes of action-decreasing differentials on the spectrum.

    ``ranks`` prescribes the number of infinite bars per degree class mod
    the Maslov period (see ``rank_quotas``).  Enumeration works in the
    recapping quotient: each source contributes one orbit; a pair matches a
    degree-(d+1) orbit ``y`` with a degree-d translate of an orbit ``z`` at
    strictly smaller action.  Twin orbits (equal degree and action) form
    runs, and a bar depends only on the runs of its orbits, so the search
    walks the runs in order and chooses, for each, how many of its orbits
    stay free and the multiset of its pair bars to later runs: every
    complete choice is a distinct barcode, reached once.  More than
    ``limit`` distinct barcodes raise ValueError.  Raises
    InfeasibleRanksError when nothing matches the prescription.
    """
    maslov = spectrum.params.maslov
    quota = rank_quotas(ranks, maslov)
    # every action and the disk area as int parts over one scale
    scale, (area_a, area_pi), actions = spectrum._keys
    # one orbit per source: the degree of its representative in [0, maslov),
    # that representative's action parts, and whether the action reads back
    # as a PiRational (a recapped one does)
    orbits: Dict[Tuple, Tuple] = {}
    for e, (a, b) in zip(spectrum.entries, actions):
        degree = e.degree % maslov
        shift = (degree - e.degree) // maslov
        orbit = (degree, a + area_a * shift, b + area_pi * shift,
                 shift != 0 or type(e.action) is PiRational)
        if orbits.setdefault(e.source, orbit)[:3] != orbit[:3]:
            raise ValueError(f"inconsistent recap copies for source {e.source}")
    # every comparison below is of actions and actions plus the area: one
    # code decides them all
    code = code_for(max((abs(b) for _d, _a, b, _pi in orbits.values()), default=0)
                    + abs(area_pi), SPREAD)
    # sorted by (degree, action), twin orbits are consecutive
    runs: List[List] = []  # [degree, action key, orbits, action parts]
    for d, key, a, b, pi in sorted(((d, code.encode(a, b), a, b, pi)
                                    for d, a, b, pi in orbits.values()), key=lambda o: o[:2]):
        if runs and runs[-1][0] == d and runs[-1][1] == key:
            runs[-1][2] += 1
        else:
            runs.append([d, _PiInt(key) if pi else key, 1, (a, b)])
    counts: Dict[int, int] = {}
    for d, _a, size, _parts in runs:
        counts[d] = counts.get(d, 0) + size
    for d, q in quota.items():
        if counts.get(d, 0) < q:
            raise InfeasibleRanksError(
                f"degree class {d} has {counts.get(d, 0)} generators but needs {q} infinite bars")

    # every bar a matching can produce, as a key row (degree, left, right, 1)
    # with its endpoints' parts: one infinite bar per run, one
    # finite bar (z, y] per allowed ordered pair of runs.  Representatives
    # have degrees in [0, maslov), so z sits one degree below y, or z has
    # degree maslov - 1 and y degree 0 and y is recapped once (action + disk
    # area) to sit above it; the pair is allowed when the bar is nonempty.
    # A bar names the runs of its orbits, so distinct pairs of runs give
    # distinct rows.
    rows = [(d, a, None, 1) for d, a, _size, _parts in runs]
    ends = [(parts, None) for _d, _a, _size, parts in runs]
    n = len(runs)
    rights = [(_PiInt(a + code.encode(area_a, area_pi)), (p[0] + area_a, p[1] + area_pi))
              if d == 0 else (a, p) for d, a, _size, p in runs]
    below = [(run[0] - 1) % maslov for run in runs]  # the degree a partner z must have
    partners: List[List[Tuple[int, List[int]]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ids = []
            for y, z in ((i, j), (j, i)):
                if runs[z][0] == below[y] and runs[z][1] < rights[y][0]:
                    ids.append(len(rows))
                    rows.append((runs[z][0], runs[z][1], rights[y][0], 1))
                    ends.append((runs[z][3], rights[y][1]))
            if ids:
                partners[i].append((j, ids))

    # the rows in canonical order over their least scale and in their
    # canonical code are the table every barcode picks from; rename them by
    # their ranks there, so that a matching's sorted ids list its barcode's
    # rows in order
    order = sorted(range(len(rows)), key=lambda k: _row_order(rows[k]))
    g = math.gcd(scale, *(p for pair in ends for x in pair if x is not None for p in x))
    canon = code_for(max((abs(x[1]) for pair in ends for x in pair if x is not None),
                         default=0) // g)
    table = tuple(map(rows.__getitem__, order))
    if g != 1 or canon is not code:
        table = tuple((d, *(None if x is None else _typed(canon.encode(x[0] // g, x[1] // g), key)
                            for x, key in zip(ends[k], (l, r))), m)
                      for k, (d, l, r, m) in zip(order, table))
    ranked = Barcode._sorted(table, scale // g, canon)
    rank = [0] * len(rows)
    for r, k in enumerate(order):
        rank[k] = r
    free_bar = rank[:n]
    partners = [[(j, [rank[k] for k in ids]) for j, ids in opts] for opts in partners]
    # from run ``tail`` on no run has a later partner (the last class has
    # none): what is left of those runs stays free
    tail = n
    while tail and not partners[tail - 1]:
        tail -= 1

    found: List[Tuple[int, ...]] = []
    remaining = [run[2] for run in runs]  # orbits no earlier run paired
    free_left = [quota.get(d, 0) for d in range(maslov)]  # free bars still owed
    # orbits of each class in runs not yet decided, less those owed free
    to_pair = [counts.get(d, 0) - free_left[d] for d in range(maslov)]
    chosen: List[int] = []  # bar ids of the partial matching

    def decide(i: int) -> None:
        """Choose run i's free orbits, then pair the rest with later runs."""
        if not _pairable(to_pair):
            return
        if i >= tail:
            # nothing is left to pair: each class must owe exactly what its
            # runs have left
            if any(to_pair):
                return
            found.append(tuple(sorted(chosen + [free_bar[j] for j in range(i, n)
                                                for _ in range(remaining[j])])))
            if limit is not None and len(found) > limit:
                raise ValueError("feasible barcode enumeration exceeded the limit")
            return
        d, r = runs[i][0], remaining[i]
        owed = free_left[d]
        room = sum(remaining[j] for j, _ids in partners[i])
        # the partners take at most ``room`` of the orbits not left free
        for f in range(max(0, r - room), min(r, owed) + 1):
            free_left[d] = owed - f
            chosen.extend([free_bar[i]] * f)
            pair(i, 0, r - f, room)
            del chosen[len(chosen) - f:]
        free_left[d] = owed

    def pair(i: int, k: int, need: int, room: int) -> None:
        """Pair ``need`` orbits of run i with its partners from the k-th on,
        which have ``room >= need`` orbits left, taking the partners in
        order; then decide run i + 1."""
        if not need:
            decide(i + 1)
            return
        j, ids = partners[i][k]
        while not remaining[j]:
            k += 1
            j, ids = partners[i][k]
        di, dj, left = runs[i][0], runs[j][0], remaining[j]
        # the partners after the k-th take at most room - left of the need
        for t in range(min(need, left), max(0, need - room + left) - 1, -1):
            remaining[j] = left - t
            to_pair[di] -= t
            to_pair[dj] -= t
            # t pairs with run j, split between its (at most two) bars
            for a in range(t + 1) if len(ids) == 2 else (t,):
                chosen.extend([ids[0]] * a + [ids[-1]] * (t - a))
                pair(i, k + 1, need - t, room - left)
                del chosen[len(chosen) - t:]
            to_pair[di] += t
            to_pair[dj] += t
        remaining[j] = left

    try:
        decide(0)
    finally:
        del decide, pair  # each refers to the other: break the cycle through their closures
    if not found:
        raise InfeasibleRanksError("no matching leaves the prescribed infinite bars")
    return frozenset(Barcode.from_ranks(ranked, found))


def forced_bar_bound(spectrum: GeneratorSpectrum, ranks: Mapping[int, int]):
    """Certified lower bound for the boundary depth of any filtered complex
    with the given generator spectrum: the minimum boundary depth over all
    feasible barcodes."""
    return least_depth(feasible_barcodes(spectrum, ranks))


# ---------------------------------------------------------------------------
# homotopy pruning
# ---------------------------------------------------------------------------


def sup_difference(p1: RadialProfile, p2: RadialProfile) -> PiRational:
    """Exact sup of |p1 - p2| over the common domain (rational abscissae),
    taken at the breakpoints of both on their int parts over one scale."""
    scale = math.lcm(p1._keys[0], p2._keys[0])
    curves = [[tuple(x * (scale // p._keys[0]) for x in pt) for pt in p._keys[1]]
              for p in (p1, p2)]
    if curves[0][-1][:2] != curves[1][-1][:2]:
        raise ValueError("profiles must share their domain")
    for p, curve in zip((p1, p2), curves):
        for i, pt in enumerate(curve):
            if pt[1]:
                raise ValueError(f"{p.breakpoints[i][0]} has a nonzero pi part")
    best = (0, 0, 1)  # the sup so far, as parts over scale * best[2]
    for x in sorted({pt[0] for pt in curves[0] + curves[1]}):
        # each value as parts over scale * d, on the first piece that holds x
        (a1, b1, d1), (a2, b2, d2) = (next(
            (f * (r1 - x) + f1 * (x - r), g * (r1 - x) + g1 * (x - r), r1 - r)
            for (r, _r, f, g), (r1, _r1, f1, g1) in zip(c, c[1:]) if r <= x <= r1) for c in curves)
        a, b, d = a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2
        if key_sign(a, b) < 0:
            a, b = -a, -b
        if key_sign(best[0] * d - a * best[2], best[1] * d - b * best[2]) < 0:
            best = a, b, d
    return PiRational(Fraction(best[0], scale * best[2]), Fraction(best[1], scale * best[2]))


@dataclass(frozen=True)
class HomotopyTrace:
    kept: Tuple[frozenset, ...]


def homotopy_filter(profiles: Sequence[RadialProfile], params: LagrangianParams,
                    ranks: Mapping[int, int], continuity_constant) -> HomotopyTrace:
    """Prune feasible sets along a sampled family by barcode continuity.

    At each sample only barcodes within ``continuity_constant * sup-difference``
    (bottleneck, degree-sensitive) of some barcode retained at the previous
    sample survive; the first sample keeps its full feasible set.  An empty
    pruned set raises PruningEmptyError naming the sample.  Ranks that
    ``rank_quotas`` refuses raise ValueError before any sample is searched.
    """
    C = PiRational.of(continuity_constant)
    if C < PiRational.of(1):
        raise ValueError("the continuity constant must be at least 1")
    rank_quotas(ranks, params.maslov)
    kept: List[frozenset] = []
    for idx, prof in enumerate(profiles):
        feas = feasible_barcodes(generators(prof, params), ranks)
        if idx == 0:
            kept.append(frozenset(feas))
            continue
        eps = sup_difference(profiles[idx - 1], prof)
        tol = C * eps
        survivors = set()
        for bc in feas:
            for prev in kept[-1]:
                dd = bottleneck_distance(bc, prev)
                if not (dd is INF) and not (dd > tol):
                    survivors.add(bc)
                    break
        if not survivors:
            raise PruningEmptyError(
                f"no barcode survives continuity pruning at sample {idx}")
        kept.append(frozenset(survivors))
    return HomotopyTrace(tuple(kept))


# ---------------------------------------------------------------------------
# bundled profile family
# ---------------------------------------------------------------------------


def fold_profile(a: Fraction, capacity: Fraction = Fraction(1, 2)) -> RadialProfile:
    """Tent-shaped profile joining (0, -A*a/2), (A/2, 0), (A, -A*a/2) in the
    capacity coordinate, with one exterior index-0 generator; ``A`` is the
    ball capacity (pi times the outer radius)."""
    a = Fraction(a)
    if not 0 < a < 1:
        raise ValueError("the fold parameter must lie strictly between 0 and 1")
    A = Fraction(capacity)
    h = -A * a / 2
    return RadialProfile(
        breakpoints=(
            (PiRational.of(0), PiRational.of(h)),
            (PiRational.of(A / 2), PiRational.of(0)),
            (PiRational.of(A), PiRational.of(h)),
        ),
        exterior=(0,),
    )
