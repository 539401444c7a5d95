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
bar table, each bar at each multiplicity named by a slot there.  No rank
prescription changes any of this, so a spectrum builds it once, on its
first pass (``GeneratorSpectrum._feasible``), and every later pass reads
it.  The search walks the runs in order and chooses, for each, how many of
its orbits stay free and how many of the rest pair with each later run in
each orientation, so every complete choice is a distinct barcode, reached
once, named by the sorted tuple of its slots; ``limit`` counts them.
Counting the orbits left in each degree class prunes choices that no
pairing can complete.  One ``Barcode`` is built per tuple after the search,
straight from the slots: ``Barcode.from_ranks`` picks its rows of the table
and reads its scale, code and depth key off the table's per-slot data, so
no barcode sorts, merges, decodes or subtracts endpoints of its own; a
barcode's bars are decoded only when read, through the table's bars.
``forced_bar_bound`` compares the barcodes' depths on those keys and reads
out only the least.
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
from .persistence import (INF, Barcode, _denominators, _pair, _PiInt, _RankTable, _row_order,
                          _typed, bottleneck_distance, least_depth)

__all__ = [
    "RadialProfile",
    "SpectrumEntry",
    "GeneratorSpectrum",
    "SlopeDegeneracyError",
    "InfeasibleRanksError",
    "PruningEmptyError",
    "FeasibleCountError",
    "MAX_FEASIBLE_BARCODES",
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


class FeasibleCountError(ValueError):
    """A spectrum has more feasible barcodes than the search accepts."""


# The search's time and memory grow with the number of barcodes it finds.
# The s = 41/10 tent of the CI, ranks (1, 1), has 118,398 of them, found in
# 1.1 s at 64 MiB peak; the 28-generator tent through (1/2, pi) passes the
# cap after 1.9 s at 60 MiB peak (the whole process), where the search
# without one held 3.9 GiB after 5 minutes (Python 3.11, 2-CPU x86-64).
MAX_FEASIBLE_BARCODES = 250_000


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

    @functools.cached_property
    def _feasible(self) -> "_BarTable":
        """The runs, bars and ranked table of the feasible passes, which no
        rank prescription changes, built on the first pass."""
        return _BarTable(self)


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


class _BarTable:
    """The part of a feasible pass over one spectrum that no rank
    prescription changes, built once per spectrum
    (``GeneratorSpectrum._feasible``).

    One orbit per source: the degree of its representative in [0, maslov),
    that representative's action as int parts over the spectrum's scale,
    and whether the action reads back as a PiRational (a recapped one does).
    Sorted by (degree, action), twin orbits are consecutive and form the
    runs, each with its ``degrees`` entry and its ``sizes``, the number of
    its orbits; ``counts`` holds the orbits per degree class.  Every bar a
    matching can produce is one row of the ranked table ``table``, a
    :class:`~floerbar.persistence._RankTable` whose slots name a row at a
    multiplicity up to the largest run size.  Run i's infinite bar at
    multiplicity f is slot ``free[i] + f``.  ``partners[i]`` lists the
    later runs j that run i can pair with, each with ``splits``:
    ``splits[t]`` holds, for each way of splitting t pairs between the (at
    most two) bars of the pair of runs, in the search's order, the slots it
    adds; ``around[i]`` lists those runs j alone.  From run ``tail`` on no
    run has a later partner.
    """

    __slots__ = ("counts", "degrees", "sizes", "free", "partners", "around", "tail", "table")

    def __init__(self, spectrum: "GeneratorSpectrum") -> None:
        maslov = spectrum.params.maslov
        # every action and the disk area as int parts over one scale
        scale, (area_a, area_pi), actions = spectrum._keys
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
        runs: List[List] = []  # [degree, action key, orbits, action parts]
        for d, key, a, b, pi in sorted(((d, code.encode(a, b), a, b, pi)
                                        for d, a, b, pi in orbits.values()),
                                       key=lambda o: o[:2]):
            if runs and runs[-1][0] == d and runs[-1][1] == key:
                runs[-1][2] += 1
            else:
                runs.append([d, _PiInt(key) if pi else key, 1, (a, b)])
        self.degrees = [run[0] for run in runs]
        self.sizes = [run[2] for run in runs]
        self.counts = [0] * maslov
        for d, size in zip(self.degrees, self.sizes):
            self.counts[d] += size

        # every bar as a key row (degree, left, right, 1) with its endpoints'
        # parts: one infinite bar per run, one finite bar (z, y] per allowed
        # ordered pair of runs.  Representatives have degrees in [0, maslov),
        # so z sits one degree below y, or z has degree maslov - 1 and y
        # degree 0 and y is recapped once (action + disk area) to sit above
        # it; the pair is allowed when the bar is nonempty.  A bar names the
        # runs of its orbits, so distinct pairs of runs give distinct rows.
        rows = [(d, a, None, 1) for d, a, _size, _parts in runs]
        ends = [(parts, None) for _d, _a, _size, parts in runs]
        n = len(runs)
        rights = [(_PiInt(a + code.encode(area_a, area_pi)), (p[0] + area_a, p[1] + area_pi))
                  if d == 0 else (a, p) for d, a, _size, p in runs]
        below = [(run[0] - 1) % maslov for run in runs]  # the degree a partner z must have
        pairs: List[List[Tuple[int, List[int]]]] = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                ids = []
                for y, z in ((i, j), (j, i)):
                    if runs[z][0] == below[y] and runs[z][1] < rights[y][0]:
                        ids.append(len(rows))
                        rows.append((runs[z][0], runs[z][1], rights[y][0], 1))
                        ends.append((runs[z][3], rights[y][1]))
                if ids:
                    pairs[i].append((j, ids))

        # the rows in canonical order over their least scale and in their
        # canonical code are the table every barcode picks from; a bar's
        # rank there names it, so sorted slots list a barcode's rows in order
        order = sorted(range(len(rows)), key=lambda k: _row_order(rows[k]))
        g = math.gcd(scale, *(p for pair in ends for x in pair if x is not None for p in x))
        canon = code_for(max((abs(x[1]) for pair in ends for x in pair if x is not None),
                             default=0) // g)
        ranked = tuple(map(rows.__getitem__, order))
        if g != 1 or canon is not code:
            ranked = tuple((d, *(None if x is None else _typed(canon.encode(x[0] // g, x[1] // g),
                                                                 key)
                                 for x, key in zip(ends[k], (l, r))), m)
                           for k, (d, l, r, m) in zip(order, ranked))
        width = max(self.sizes, default=1)
        self.table = _RankTable(Barcode._sorted(ranked, scale // g, canon), width)
        base = [0] * len(rows)  # bar k at multiplicity m is slot base[k] + m
        for r, k in enumerate(order):
            base[k] = r * width - 1
        self.free = base[:n]
        # t pairs of runs i and j split as a on the first bar and t - a on
        # the last, in the order the search takes them
        self.partners = [[(j, [None] + [
            [[base[k] + c for k, c in zip(ids, (a, t - a)) if c]
             for a in (range(t + 1) if len(ids) == 2 else (t,))]
            for t in range(1, min(self.sizes[i], self.sizes[j]) + 1)]) for j, ids in opts]
            for i, opts in enumerate(pairs)]
        self.around = [[j for j, _ids in opts] for opts in pairs]
        tail = n
        while tail and not pairs[tail - 1]:
            tail -= 1
        self.tail = tail


_UNSPLIT = ([],)  # the one way to add nothing


def feasible_barcodes(spectrum: GeneratorSpectrum, ranks: Mapping[int, int],
                      limit: Optional[int] = MAX_FEASIBLE_BARCODES) -> frozenset:
    """All barcodes of action-decreasing differentials on the spectrum.

    ``ranks`` prescribes the number of infinite bars per degree class mod
    the Maslov period (see ``rank_quotas``).  Enumeration works in the
    recapping quotient: each source contributes one orbit; a pair matches a
    degree-(d+1) orbit ``y`` with a degree-d translate of an orbit ``z`` at
    strictly smaller action.  Twin orbits (equal degree and action) form
    runs, and a bar depends only on the runs of its orbits.  The runs, the
    bars and the ranked table are the spectrum's ``_BarTable``, built by its
    first pass and read by every later one.  The search walks the runs in
    order and chooses, for each, how many of its orbits stay free and the
    multiset of its pair bars to later runs: every complete choice is a
    distinct barcode, reached once, and names each bar it holds once, as a
    slot of the table at its multiplicity.  A choice that pairs no orbit
    goes straight on to the next run, and only a choice that pairs some
    asks whether the orbits left can still pair.  More than ``limit``
    distinct barcodes raise FeasibleCountError (``None``: no limit).
    Raises InfeasibleRanksError when nothing matches the prescription.
    """
    maslov = spectrum.params.maslov
    quota = rank_quotas(ranks, maslov)
    bars = spectrum._feasible
    counts = bars.counts
    for d, q in quota.items():
        if counts[d] < q:
            raise InfeasibleRanksError(
                f"degree class {d} has {counts[d]} generators but needs {q} infinite bars")
    degrees, free, partners, around, tail = \
        bars.degrees, bars.free, bars.partners, bars.around, bars.tail
    last = tail - 1
    left_free = range(tail, len(degrees))  # runs whose orbits left stay free
    cap = math.inf if limit is None else limit

    found: List[Tuple[int, ...]] = []
    remaining = list(bars.sizes)  # orbits no earlier run paired
    free_left = [quota.get(d, 0) for d in range(maslov)]  # free bars still owed
    # orbits of each class in runs not yet decided, less those owed free
    to_pair = [c - q for c, q in zip(counts, free_left)]
    chosen: List[int] = []  # slots of the partial matching
    at = remaining.__getitem__

    def close(splits: Sequence[List[int]]) -> None:
        """Record the barcode of each of ``splits`` added to the partial
        matching, once every run before ``tail`` is decided, if each class
        then owes exactly what its runs have left: those stay free."""
        if any(to_pair):
            return
        rest = chosen + [free[j] + remaining[j] for j in left_free if remaining[j]]
        found.extend(tuple(sorted(rest + slots)) for slots in splits)
        if len(found) > cap:
            raise FeasibleCountError(
                f"feasible barcode enumeration exceeded the limit of {limit} barcodes")

    def decide(i: int) -> None:
        """Choose run i's free orbits, then pair the rest with later runs."""
        d, r = degrees[i], remaining[i]
        owed = free_left[d]
        room = sum(map(at, around[i]))
        # the partners take at most ``room`` of the orbits not left free
        for f in range(max(0, r - room), min(r, owed) + 1):
            free_left[d] = owed - f
            if f:
                chosen.append(free[i] + f)
            if f < r:
                pair(i, 0, r - f, room)
            elif i < last:
                decide(i + 1)
            else:
                close(_UNSPLIT)
            if f:
                chosen.pop()
        free_left[d] = owed

    def pair(i: int, k: int, need: int, room: int) -> None:
        """Pair ``need > 0`` orbits of run i with its partners from the k-th
        on, which have ``room >= need`` orbits left: each partner in turn
        takes some, the partners after it the rest; then decide run i + 1
        where the orbits left can still pair."""
        opts, di = partners[i], degrees[i]
        while True:
            j, splits = opts[k]
            left = remaining[j]
            room -= left  # what the partners after this one can take
            k += 1
            if left:
                dj = degrees[j]
                for t in range(min(need, left), max(0, need - room - 1), -1):
                    remaining[j] = left - t
                    to_pair[di] -= t
                    to_pair[dj] -= t
                    # t pairs with run j, split between its (at most two) bars
                    if t < need:
                        for slots in splits[t]:
                            chosen.extend(slots)
                            pair(i, k, need - t, room)
                            del chosen[len(chosen) - len(slots):]
                    elif i == last:
                        close(splits[t])
                    elif _pairable(to_pair):
                        for slots in splits[t]:
                            chosen.extend(slots)
                            decide(i + 1)
                            del chosen[len(chosen) - len(slots):]
                    to_pair[di] += t
                    to_pair[dj] += t
                remaining[j] = left
            if need > room:
                return  # the partners after this one cannot take the need

    try:
        if not tail:
            close(_UNSPLIT)
        elif _pairable(to_pair):
            decide(0)
    finally:
        del decide, pair  # each refers to the other: break the cycle through their closures
    if not found:
        raise InfeasibleRanksError("no matching leaves the prescribed infinite bars")
    return frozenset(Barcode.from_ranks(bars.table, found))


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
    pruned set raises PruningEmptyError naming the sample, and a sample past
    ``MAX_FEASIBLE_BARCODES`` raises FeasibleCountError.  Ranks that
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
