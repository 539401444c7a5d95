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
the runs of its orbits.  Every action and the disk area are keyed once per
call, over one scale, and the orbits, runs and their bars are found on
those keys: every bar a matching can produce (one infinite bar per run,
one finite bar per allowed ordered pair of runs) is a key row, and the rows
sorted in canonical order and brought to their least scale are the bar
table, each bar named by its rank there.  The search walks the runs in
order and chooses, for each, how many of its orbits stay free and how many
of the rest pair with each later run in each orientation, so every
complete choice is a distinct barcode, reached once, named by the sorted
tuple of its ranks; ``limit`` counts them.  Counting the orbits left in
each degree class prunes choices that no pairing can complete.  One
``Barcode`` is built per tuple after the search, straight from the ranks:
``Barcode.from_ranks`` picks its rows of the table and hands over its
depth key, read off the table's row lengths, so no barcode sorts, decodes
or subtracts endpoints of its own; a barcode's bars are decoded only when
read, through the table's bars.  ``forced_bar_bound`` compares the
barcodes' depths on those keys and reads out only the least.
The search stays exponential in the number of runs.
``brute_force_feasible_barcodes`` in :mod:`floerbar.oracles`, the
per-matching enumerator that searches orbits rather than runs and builds one
``Barcode`` per distinct sorted tuple of interned bars, is kept as the
oracle that tests and ``check`` compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .exactpi import PiRational
from .novikov import LagrangianParams, parse_int
from .persistence import (Barcode, INF, _denominators, _key, _parts, _row_order,
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
        if len(pts) < 2:
            raise ValueError("a profile needs at least two breakpoints")
        if pts[0][0] != PiRational.of(0):
            raise ValueError("the first breakpoint must sit at rho = 0")
        for (r0, _), (r1, _) in zip(pts, pts[1:]):
            if not (r0 < r1):
                raise ValueError("breakpoint abscissae must strictly increase")

    @property
    def segments(self) -> List[Tuple[PiRational, PiRational]]:
        """(delta f, delta rho) per linear piece."""
        out = []
        for (r0, f0), (r1, f1) in zip(self.breakpoints, self.breakpoints[1:]):
            out.append((f1 - f0, r1 - r0))
        return out

    def value_at(self, rho: Fraction) -> PiRational:
        """Exact evaluation; needs rational abscissae (as all samples here have)."""
        rho = Fraction(rho)
        pts = self.breakpoints
        if rho < pts[0][0].as_fraction() or rho > pts[-1][0].as_fraction():
            raise ValueError("evaluation point outside the profile domain")
        for (r0, f0), (r1, f1) in zip(pts, pts[1:]):
            a, b = r0.as_fraction(), r1.as_fraction()
            if a <= rho <= b:
                t = (rho - a) / (b - a)
                return f0 + (f1 - f0) * t
        raise AssertionError("unreachable")

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


def _slope_floor(df: PiRational, drho: PiRational) -> int:
    """floor(df/drho) for drho > 0, raising on exact integer slopes."""
    lo, hi = -1, 1
    while not (lo * drho < df):
        lo *= 2
    while not (df < hi * drho):
        if df == hi * drho:
            raise SlopeDegeneracyError("slope is an integer multiple of pi")
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        prod = mid * drho
        if prod == df:
            raise SlopeDegeneracyError("slope is an integer multiple of pi")
        if prod < df:
            lo = mid
        else:
            hi = mid
    return lo


def generators(profile: RadialProfile, params: LagrangianParams,
               l_range: Optional[Sequence[int]] = None,
               k_range: Sequence[int] = (0,)) -> GeneratorSpectrum:
    """Generator spectrum of a profile within explicit level and recap ranges.

    ``l_range = None`` takes exactly the levels the slopes require; an
    explicit range must cover them.
    """
    n = params.dim
    maslov = params.maslov
    area = PiRational.of(params.disk_area)
    segs = profile.segments
    floors = [_slope_floor(df, dr) for df, dr in segs]

    base: List[SpectrumEntry] = []

    def require(l: int) -> None:
        if l_range is not None and l not in l_range:
            raise ValueError(f"l_range does not cover required level {l}")

    # origin: initial slope bracketed by (l, l+1)
    l0 = floors[0]
    require(l0)
    base.append(SpectrumEntry(-l0 * n, profile.breakpoints[0][1], ("origin", l0)))

    # interior kinks
    for i in range(1, len(profile.breakpoints) - 1):
        before, after = floors[i - 1], floors[i]
        sb, sa = segs[i - 1], segs[i]
        concave_up = _slope_less(sb, sa)
        lo_f, hi_f = (before, after) if concave_up else (after, before)
        rho_i, f_i = profile.breakpoints[i]
        for l in range(lo_f + 1, hi_f + 1):
            require(l)
            action = f_i - rho_i * l
            if concave_up:
                degs = (-l * n, -l * n + n - 1)
            else:
                degs = (-l * n + 1, -l * n + n)
            kind = "up" if concave_up else "down"
            for slot, deg in enumerate(degs):
                base.append(SpectrumEntry(deg, action, ("kink", i, l, kind, slot)))

    # exterior Morse generators at the outermost value
    f_last = profile.breakpoints[-1][1]
    for j in profile.exterior:
        base.append(SpectrumEntry(j, f_last, ("exterior", j)))

    entries = []
    for k in k_range:
        # a base entry is its own copy at k = 0
        entries += base if k == 0 else (
            SpectrumEntry(e.degree + k * maslov, e.action + area * k, e.source, k) for e in base)
    entries.sort(key=lambda e: (e.degree, e.action, e.source, e.k))
    return GeneratorSpectrum(tuple(entries), params)


def _run_ratio(drb: PiRational, dra: PiRational) -> Fraction:
    """The rational ratio drb/dra; run lengths must be proportional over Q so
    that cross-multiplied slope comparisons stay inside the module."""
    if dra.rational != 0:
        r = drb.rational / dra.rational
        if drb.pi_coeff == r * dra.pi_coeff:
            return r
    elif drb.rational == 0 and dra.pi_coeff != 0:
        return drb.pi_coeff / dra.pi_coeff
    raise ValueError("profile run lengths are not rationally proportional")


def _slope_less(seg_a: Tuple[PiRational, PiRational],
                seg_b: Tuple[PiRational, PiRational]) -> bool:
    """slope(seg_a) < slope(seg_b); run lengths are positive."""
    (dfa, dra), (dfb, drb) = seg_a, seg_b
    return dfa * _run_ratio(drb, dra) < dfb


def degree_actions(spectrum: GeneratorSpectrum, degree: int) -> Tuple:
    """Action multiset of the entries of one exact degree, ascending."""
    acts = [e.action for e in spectrum.entries if e.degree == degree]
    acts.sort()
    return tuple(acts)


def degree_class_actions(spectrum: GeneratorSpectrum, degree: int) -> Tuple:
    """Distinct actions over the whole degree class mod the Maslov period."""
    maslov = spectrum.params.maslov
    acts = {e.action for e in spectrum.entries if (e.degree - degree) % maslov == 0}
    return tuple(sorted(acts))


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
            lo = max(lo, -a)
        else:
            hi = min(hi, a)
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
    # every action and the disk area as keys over one scale
    area = PiRational.of(spectrum.params.disk_area)
    scale = math.lcm(*_denominators(area),
                     *(d for e in spectrum.entries for d in _denominators(e.action)))
    area = _key(area, scale)
    # one orbit per source: the degree of its representative in [0, maslov)
    # and that representative's action key
    orbits: Dict[Tuple, Tuple] = {}
    for e in spectrum.entries:
        degree = e.degree % maslov
        shift = (degree - e.degree) // maslov
        key = _key(e.action, scale)
        orbit = (degree, key + area * shift if shift else key)
        if orbits.setdefault(e.source, orbit) != orbit:
            raise ValueError(f"inconsistent recap copies for source {e.source}")
    # sorted by (degree, action), twin orbits are consecutive
    runs: List[List] = []  # [degree, action key, orbits]
    for d, a in sorted(orbits.values()):
        if runs and runs[-1][0] == d and runs[-1][1] == a:
            runs[-1][2] += 1
        else:
            runs.append([d, a, 1])
    counts: Dict[int, int] = {}
    for d, _a, size in runs:
        counts[d] = counts.get(d, 0) + size
    for d, q in quota.items():
        if counts.get(d, 0) < q:
            raise InfeasibleRanksError(
                f"degree class {d} has {counts.get(d, 0)} generators but needs {q} infinite bars")

    # every bar a matching can produce, as a key row (degree, left, right, 1):
    # one infinite bar per run, one finite bar (z, y] per allowed ordered pair
    # of runs.  Representatives have degrees in [0, maslov), so z sits one
    # degree below y, or z has degree maslov - 1 and y degree 0 and y is
    # recapped once (action + disk area) to sit above it; the pair is allowed
    # when the bar is nonempty.  A bar names the runs of its orbits, so
    # distinct pairs of runs give distinct rows.
    rows = [(d, a, None, 1) for d, a, _size in runs]
    n = len(runs)
    rights = [a + area if d == 0 else a for d, a, _size in runs]
    partners: List[List[Tuple[int, List[int]]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ids = []
            for y, z in ((i, j), (j, i)):
                dz, az, _size = runs[z]
                if dz == (runs[y][0] - 1) % maslov and az < rights[y]:
                    ids.append(len(rows))
                    rows.append((dz, az, rights[y], 1))
            if ids:
                partners[i].append((j, ids))

    # the rows in canonical order over their least scale are the table every
    # barcode picks from; rename them by their ranks there, so that a
    # matching's sorted ids list its barcode's rows in order
    order = sorted(range(len(rows)), key=lambda k: _row_order(rows[k]))
    g = math.gcd(scale, *(p for row in rows for x in row[1:3] if x is not None
                          for p in _parts(x)))
    table = tuple(map(rows.__getitem__, order))
    if g != 1:
        table = tuple((d, l // g, None if r is None else r // g, m) for d, l, r, m in table)
    ranked = Barcode._sorted(table, scale // g)
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
    remaining = [size for _d, _a, size in runs]  # orbits no earlier run paired
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
    """Exact sup of |p1 - p2| over the common domain (rational abscissae)."""
    r1 = p1.breakpoints[-1][0]
    r2 = p2.breakpoints[-1][0]
    if r1 != r2:
        raise ValueError("profiles must share their domain")
    xs = sorted({r.as_fraction() for r, _ in p1.breakpoints} |
                {r.as_fraction() for r, _ in p2.breakpoints})
    best = PiRational.of(0)
    for x in xs:
        diff = abs(p1.value_at(x) - p2.value_at(x))
        if best < diff:
            best = diff
    return best


@dataclass(frozen=True)
class HomotopyTrace:
    kept: Tuple[frozenset, ...]
    sup_diffs: Tuple[PiRational, ...]


def homotopy_filter(profiles: Sequence[RadialProfile], params: LagrangianParams,
                    ranks: Mapping[int, int], continuity_constant,
                    l_range: Optional[Sequence[int]] = None) -> HomotopyTrace:
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
    diffs: List[PiRational] = []
    for idx, prof in enumerate(profiles):
        feas = feasible_barcodes(generators(prof, params, l_range=l_range), ranks)
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
        diffs.append(tol)
    return HomotopyTrace(tuple(kept), tuple(diffs))


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
