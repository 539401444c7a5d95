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

The search works on interned bars.  Every bar a matching can produce (one
infinite bar per orbit, one finite bar per allowed pair) is built once per
call and named by its rank in canonical order; a matching is the sorted
tuple of its ranks.  The bars are keyed once per call, as one ``Barcode``,
and one ``Barcode`` is built per distinct tuple after the search, straight
from the ranks: ``Barcode.from_ranks`` picks its rows of those keys and
takes the interned bars as its read-out, so no barcode sorts or decodes
endpoints of its own.  Equal tuples are equal barcodes, and ``limit``
counts distinct barcodes.  Twins -- orbits of equal degree and action,
such as the two kink slots in dimension 1 -- give the same bars in either
role, so the search pairs an orbit only with the first undecided member of
each run of twins.  The search stays exponential in the number of orbits.
``brute_force_feasible_barcodes`` in :mod:`floerbar.oracles`, the
per-matching enumerator that builds and hashes a ``Barcode`` for every
matching, is kept as the oracle that tests and ``check`` compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .exactpi import PiRational
from .novikov import LagrangianParams, parse_int
from .persistence import (Bar, Barcode, INF, boundary_depth,
                          bottleneck_distance)

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
        for e in base:
            entries.append(SpectrumEntry(e.degree + k * maslov,
                                         e.action + area * k, e.source, k))
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


@dataclass(frozen=True)
class _Orbit:
    degree: int          # representative degree in [0, maslov)
    action: PiRational   # action of that representative
    source: Tuple


def _orbits(spectrum: GeneratorSpectrum) -> List[_Orbit]:
    maslov = spectrum.params.maslov
    area = PiRational.of(spectrum.params.disk_area)
    seen: Dict[Tuple, _Orbit] = {}
    for e in spectrum.entries:
        rep_deg = e.degree % maslov
        shift = (rep_deg - e.degree) // maslov
        rep_action = e.action + area * shift
        orbit = _Orbit(rep_deg, rep_action, e.source)
        prev = seen.get(e.source)
        if prev is not None and prev != orbit:
            raise ValueError(f"inconsistent recap copies for source {e.source}")
        seen[e.source] = orbit
    out = list(seen.values())
    out.sort(key=lambda o: (o.degree, o.action, o.source))
    return out


def feasible_barcodes(spectrum: GeneratorSpectrum, ranks: Mapping[int, int],
                      limit: Optional[int] = None) -> frozenset:
    """All barcodes of action-decreasing differentials on the spectrum.

    ``ranks`` prescribes the number of infinite bars per degree class mod
    the Maslov period.  Enumeration works in the recapping quotient: each
    source contributes one orbit; a pair matches a degree-(d+1) orbit ``y``
    with a degree-d translate of an orbit ``z`` at strictly smaller action.
    Every bar a matching can use is built once and interned as its rank in
    canonical order, so a matching is a sorted tuple of ints; a partner is
    skipped when an earlier undecided twin (equal degree and action) could
    take its place.  More
    than ``limit`` distinct barcodes raise ValueError.  Raises
    InfeasibleRanksError when nothing matches the prescription.
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

    # orbits are sorted by (degree, action), so twins -- orbits of equal
    # degree and action, such as the two kink slots in dimension 1 -- form
    # runs, and ``run[k]`` is the first orbit of k's run
    n = len(orbits)
    run = list(range(n))
    for k in range(1, n):
        if orbits[k].degree == orbits[k - 1].degree and orbits[k].action == orbits[k - 1].action:
            run[k] = run[k - 1]

    # every bar a matching can produce, built once: one infinite bar per
    # orbit, one finite bar (z, y] per allowed pair (y, z).  Representatives
    # have degrees in [0, maslov), so z sits one degree below y, or z has
    # degree maslov - 1 and y degree 0 and y is recapped once (action + disk
    # area) to sit above it; the pair is allowed when the bar is nonempty.
    # A bar's (degree, left, right) is fixed by the runs of its orbits, so
    # bars are interned by runs: equal ids are exactly equal bars.
    bars: List[Bar] = []
    bar_ids: Dict[Tuple[int, int], int] = {}

    def intern(key: Tuple[int, int], left, right, degree: int) -> int:
        if key not in bar_ids:
            bar_ids[key] = len(bars)
            bars.append(Bar(left, right, degree))
        return bar_ids[key]

    free_bar = [intern((-1, run[k]), o.action, INF, o.degree) for k, o in enumerate(orbits)]
    pair_bar: Dict[Tuple[int, int], int] = {}
    for iy, y in enumerate(orbits):
        right = y.action + area if y.degree == 0 else y.action
        below = (y.degree - 1) % maslov
        for iz, z in enumerate(orbits):
            if z.degree == below and z.action < right:
                pair_bar[(iy, iz)] = intern((run[iy], run[iz]), z.action, right, below)

    # key the bars once, as one barcode in canonical order that keeps the
    # distinct bars as given, and rename them by their ranks there, so that a
    # matching's sorted ids list its barcode's rows in order
    ranked = Barcode(bars)
    place = {id(bar): r for r, bar in enumerate(ranked.bars)}
    rank = [place[id(bar)] for bar in bars]
    free_bar = [rank[k] for k in free_bar]
    pair_bar = {key: rank[k] for key, k in pair_bar.items()}

    found: Set[Tuple[int, ...]] = set()
    undecided_at = [True] * n
    chosen: List[int] = []  # bar ids of the partial matching
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

    def dfs(start: int) -> None:
        i = start
        while i < n and not undecided_at[i]:
            i += 1
        if i == n:
            if all(unmatched.get(d, 0) == quota.get(d, 0) for d in counts):
                found.add(tuple(sorted(chosen)))
                if limit is not None and len(found) > limit:
                    raise ValueError("feasible barcode enumeration exceeded the limit")
            return
        d = orbits[i].degree
        undecided_at[i] = False
        undecided[d] -= 1
        # leave unmatched
        if unmatched.get(d, 0) < quota.get(d, 0):
            unmatched[d] += 1
            chosen.append(free_bar[i])
            if prune():
                dfs(i + 1)
            chosen.pop()
            unmatched[d] -= 1
        # pair with a later undecided partner (every earlier orbit is
        # decided); both orientations of a pair are distinct matchings
        # (different recap shifts, different bars).  Swapping two undecided
        # twins changes no bar, so j is skipped when an earlier twin of j is
        # undecided (i itself is marked decided above).
        for j in range(i + 1, n):
            if not undecided_at[j] or any(undecided_at[t] for t in range(run[j], j)):
                continue
            dj = orbits[j].degree
            undecided_at[j] = False
            undecided[dj] -= 1
            for key in ((i, j), (j, i)):
                if key in pair_bar:
                    chosen.append(pair_bar[key])
                    if prune():
                        dfs(i + 1)
                    chosen.pop()
            undecided[dj] += 1
            undecided_at[j] = True
        undecided[d] += 1
        undecided_at[i] = True

    try:
        dfs(0)
    finally:
        del dfs  # dfs refers to itself: break the cycle through its closure
    if not found:
        raise InfeasibleRanksError("no matching leaves the prescribed infinite bars")
    return frozenset(Barcode.from_ranks(ranked, found))


def forced_bar_bound(spectrum: GeneratorSpectrum, ranks: Mapping[int, int]):
    """Certified lower bound for the boundary depth of any filtered complex
    with the given generator spectrum: the minimum boundary depth over all
    feasible barcodes."""
    return min(boundary_depth(bc) for bc in feasible_barcodes(spectrum, ranks))


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
    pruned set raises PruningEmptyError naming the sample.
    """
    C = PiRational.of(continuity_constant)
    if C < PiRational.of(1):
        raise ValueError("the continuity constant must be at least 1")
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
