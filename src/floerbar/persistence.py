"""Barcodes and the exact metrics between them.

A barcode is a finite multiset of degree-labelled half-open intervals
``(left, right]`` (finite) or ``(left, +inf)``.  Endpoints are exact numbers:
rationals, or rational-plus-pi values from :mod:`floerbar.exactpi`; the code
only ever adds, subtracts, halves and compares them, so any exact linearly
ordered type works.

The bottleneck distance is computed exactly: a tolerance ``delta`` admits a
matching iff, after deleting some bars of length ``<= 2*delta``, the
remaining bars biject so that matched intervals contain each other's
``delta``-shrinkings.  The optimum is the least admissible value among 0, the
half-lengths and the endpoint differences of matchable pairs.
Degree-sensitive, each degree is an independent subproblem.  When every
endpoint is a Fraction, costs are int keys over twice the common denominator
and a subproblem never lists all its pairs: a pair within ``delta`` has left
endpoints within ``delta``, so with one side sorted on left endpoints a
probe takes one bisected window of near partners per bar.  Probes start at a
lower bound (each bar of the other side deleted or matched to its nearest
partner) and grow fourfold until one is feasible; the keys in that last
window are then bisected.  Otherwise each pair and each deletion is priced
once per call as its rank among all the costs, and the ranks are bisected.
Each probe is decided by the Mendelsohn-Dulmage theorem: a matching covers
the undeletable bars of both sides iff one matching covers those of each
side, so each probe is two one-sided cover tests
(:class:`floerbar.matching.CoverMatching`) on graphs of real pairs, built by
comparing ints.

The shift-quotient metric minimises the bottleneck distance over global
translations of one barcode.  It runs on ints, the endpoints times twice
their common denominator, when every endpoint is a Fraction, and on the
endpoints themselves otherwise.  For a fixed ``delta`` the feasible shifts
are a union of closed intervals, each starting at ``d - delta`` for an
endpoint difference ``d`` of a matchable pair (or the whole line when every
bar is deletable).  The possible optima (0, half bar lengths and half
differences of endpoint differences) form a sorted matrix that is searched
without being listed, and each probe sweeps the shifts ``d - delta`` in
order, repairing one ``CoverMatching`` per side as pairs enter and leave.

The exhaustive matcher ``brute_force_bottleneck`` is defined here and
re-exported by :mod:`floerbar.oracles`, which also holds the exhaustive scan
over all endpoint differences and their pairwise midpoints and the earlier
shift search that rebuilds a matching per shift.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .matching import CoverMatching
from .novikov import format_rational, parse_int, parse_rational

__all__ = [
    "INF",
    "NEG_INF",
    "Bar",
    "Barcode",
    "BarCountError",
    "MAX_EXPANDED_BARS",
    "boundary_depth",
    "bar_length_spectrum",
    "shift_barcode",
    "collapse_degrees",
    "bottleneck_distance",
    "interleaving_distance",
    "shifted_bottleneck",
    "brute_force_bottleneck",
]


class _Infinity:
    """Positive infinity sentinel compatible with every exact endpoint type."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("floerbar.INF")

    def __neg__(self):
        return NEG_INF

    def __add__(self, other):
        if other is NEG_INF:
            raise ArithmeticError("inf + (-inf)")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("inf - inf")
        return self

    def __rsub__(self, other):
        return NEG_INF

    def __repr__(self):
        return "inf"


class _NegInfinity:
    """Negative infinity sentinel; marks spectral invariants of the zero class."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("floerbar.NEG_INF")

    def __neg__(self):
        return INF

    def __repr__(self):
        return "-inf"


INF = _Infinity()
NEG_INF = _NegInfinity()


class BarCountError(ValueError):
    """A barcode has more bars than the metrics accept."""


# ``bottleneck_distance`` on Fraction endpoints lists only near pairs: a
# one-degree pair at the cap and its copy moved by 1/100 take 0.1-0.2 s and
# 30 MiB peak.  Pairs far apart, pi endpoints and ``shifted_bottleneck``
# still price about every pair of bars of one degree, so their time and
# memory grow with the product of the bar counts: two independent one-degree
# draws at the cap take about 9 s and 750 MiB peak in ``bottleneck_distance``
# (Python 3.11, 2-CPU x86-64).  A multiplicity of 10**12 would exhaust memory.
MAX_EXPANDED_BARS = 2_000


def _abs(x):
    zero = x - x
    return -x if x < zero else x


def _halve(x):
    return x * Fraction(1, 2)


@dataclass(frozen=True)
class Bar:
    """Half-open interval ``(left, right]`` (or ``(left, inf)``) in one degree."""

    left: object
    right: object
    degree: int = 0
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if not self.is_infinite and not (self.left < self.right):
            raise ValueError(f"empty bar ({self.left}, {self.right}]")

    @property
    def is_infinite(self) -> bool:
        return self.right is INF

    # computed once per bar: interned bars are shared by many barcodes
    @functools.cached_property
    def length(self):
        return INF if self.is_infinite else self.right - self.left

    def shifted(self, c) -> "Bar":
        right = INF if self.is_infinite else self.right - c
        return Bar(self.left - c, right, self.degree, self.multiplicity)

    def to_json(self) -> dict:
        return {
            "left": _endpoint_to_json(self.left),
            "right": "inf" if self.is_infinite else _endpoint_to_json(self.right),
            "degree": self.degree,
            "mult": self.multiplicity,
        }


def _endpoint_to_json(x):
    if isinstance(x, Fraction):
        return format_rational(x)
    if hasattr(x, "to_json"):
        return x.to_json()
    return format_rational(Fraction(x))


def _endpoint_from_json(data):
    if isinstance(data, list):
        from .exactpi import PiRational

        return PiRational.from_json(data)
    return parse_rational(data)


def _bar_sort_key(bar: Bar):
    return (bar.degree, bar.left, bar.right)


class Barcode:
    """Canonical multiset of bars: sorted by (degree, left, right), merged."""

    __slots__ = ("bars",)

    def __init__(self, bars: Iterable[Bar] = ()) -> None:
        merged = {}
        for bar in bars:
            key = (bar.degree, bar.left, bar.right)
            prev = merged.get(key)
            # a bar whose multiplicity the merge leaves alone is kept as given
            merged[key] = bar if prev is None else Bar(
                prev.left, prev.right, prev.degree, prev.multiplicity + bar.multiplicity)
        canon = sorted(merged.values(), key=_bar_sort_key)
        object.__setattr__(self, "bars", tuple(canon))

    def __iter__(self):
        return iter(self.bars)

    def __len__(self) -> int:
        return sum(bar.multiplicity for bar in self.bars)

    def __eq__(self, other) -> bool:
        return isinstance(other, Barcode) and self.bars == other.bars

    def __hash__(self) -> int:
        return hash(self.bars)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"deg {b.degree}: ({b.left}, {b.right}]" + (f" x{b.multiplicity}" if b.multiplicity > 1 else "")
            for b in self.bars
        )
        return f"Barcode[{inner}]"

    def expand(self) -> List[Bar]:
        """Bars with multiplicity one, repeated; a bar of multiplicity one
        is itself."""
        out = []
        for bar in self.bars:
            if bar.multiplicity == 1:
                out.append(bar)
            else:
                out.extend([Bar(bar.left, bar.right, bar.degree)] * bar.multiplicity)
        return out

    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted({b.degree for b in self.bars}))

    def finite_bars(self) -> List[Bar]:
        return [b for b in self.expand() if not b.is_infinite]

    def infinite_bars(self) -> List[Bar]:
        return [b for b in self.expand() if b.is_infinite]

    def to_json(self) -> dict:
        return {"bars": [bar.to_json() for bar in self.bars]}

    @classmethod
    def from_json(cls, data: dict) -> "Barcode":
        if not isinstance(data, dict):
            raise ValueError("a barcode is a JSON object")
        items = data["bars"]
        if not isinstance(items, list):
            raise ValueError("a barcode's bars are a JSON list")
        bars = []
        for item in items:
            left = _endpoint_from_json(item["left"])
            right = INF if item["right"] == "inf" else _endpoint_from_json(item["right"])
            bars.append(Bar(left, right, parse_int(item.get("degree", 0)),
                            parse_int(item.get("mult", 1))))
        return cls(bars)


def boundary_depth(barcode: Barcode):
    """Maximal length of a finite bar; 0 when there is none."""
    lengths = [b.length for b in barcode.bars if not b.is_infinite]
    if not lengths:
        return Fraction(0)
    return max(lengths)


def bar_length_spectrum(barcode: Barcode) -> Tuple:
    """Finite bar lengths in increasing order, then one ``INF`` per infinite bar."""
    bars = barcode.expand()
    finite = sorted(b.length for b in bars if not b.is_infinite)
    return tuple(finite) + tuple(INF for b in bars if b.is_infinite)


def shift_barcode(barcode: Barcode, c) -> Barcode:
    """Translate every endpoint by ``-c``; infinite right endpoints stay put."""
    return Barcode(bar.shifted(c) for bar in barcode.bars)


def collapse_degrees(barcode: Barcode, modulus: int) -> Barcode:
    """Reduce bar degrees mod ``modulus`` (for shift-quotient comparisons of
    one fundamental domain against another)."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    return Barcode(Bar(b.left, b.right, b.degree % modulus, b.multiplicity)
                   for b in barcode.bars)


# ---------------------------------------------------------------------------
# bottleneck distance
# ---------------------------------------------------------------------------


def _expanded(b1: Barcode, b2: Barcode) -> Tuple[List[Bar], List[Bar]]:
    """The bars of both barcodes, repeated by multiplicity; counted first,
    and refused past ``MAX_EXPANDED_BARS`` on either side."""
    for b in (b1, b2):
        count = sum(bar.multiplicity for bar in b.bars)
        if count > MAX_EXPANDED_BARS:
            raise BarCountError(
                f"bar count cap exceeded: {count} bars, at most {MAX_EXPANDED_BARS}")
    return b1.expand(), b2.expand()


def _bar_matching_cost(a: Bar, b: Bar):
    """Smallest delta with ``a`` inside the delta-thickening of ``b`` and vice
    versa; INF when one bar is finite and the other is not."""
    if a.is_infinite != b.is_infinite:
        return INF
    left = _abs(a.left - b.left)
    if a.is_infinite:
        return left
    right = _abs(a.right - b.right)
    return max(left, right)


def _deletion_cost(bar: Bar):
    """Smallest delta allowing ``bar`` to be deleted (length <= 2*delta)."""
    return INF if bar.is_infinite else _halve(bar.length)


def _degree_groups(bars1: Sequence[Bar], bars2: Sequence[Bar],
                   degree_sensitive: bool) -> List[Tuple[List[int], List[int]]]:
    """Index lists of the independent subproblems, by ascending degree (one
    group when degree-blind)."""
    if not degree_sensitive:
        return [(list(range(len(bars1))), list(range(len(bars2))))]
    groups = {}
    for i, a in enumerate(bars1):
        groups.setdefault(a.degree, ([], []))[0].append(i)
    for j, b in enumerate(bars2):
        groups.setdefault(b.degree, ([], []))[1].append(j)
    return [groups[d] for d in sorted(groups)]


def _matchable_pairs(bars1, bars2, groups) -> List[Tuple[int, int]]:
    """Pairs ``(i, j)`` of one group whose bars are both finite or both
    infinite; group by group, row-major."""
    return [(i, j) for idx1, idx2 in groups for i in idx1 for j in idx2
            if bars1[i].is_infinite == bars2[j].is_infinite]


def _infinite_mismatch(bars1, bars2, groups) -> bool:
    """Some group has unequal infinite-bar counts: no tolerance works."""
    return any(sum(bars1[i].is_infinite for i in idx1)
               != sum(bars2[j].is_infinite for j in idx2) for idx1, idx2 in groups)


def _common_denominator(bars: Sequence[Bar]):
    """Least common denominator of the finite endpoints when all of them are
    Fractions, else None."""
    dens = []
    for bar in bars:
        for x in (bar.left, bar.right):
            if type(x) is Fraction:
                dens.append(x.denominator)
            elif x is not INF:
                return None
    return math.lcm(*dens)


def _rank(values: Iterable) -> Tuple[List, dict]:
    """Distinct ``values`` in increasing order, and each one's index there.

    The first of several equal values is the one kept."""
    order = sorted(dict.fromkeys(values))
    return order, {v: k for k, v in enumerate(order)}


def _endpoint_keys(bars: Sequence[Bar], scale) -> List[Tuple]:
    """``(left, right)`` of each bar, as ints times ``scale`` or, when
    ``scale`` is None, as the endpoints themselves; ``right`` is None for an
    infinite bar."""
    if scale is None:
        return [(b.left, None if b.is_infinite else b.right) for b in bars]
    return [(b.left.numerator * (scale // b.left.denominator),
             None if b.is_infinite else b.right.numerator * (scale // b.right.denominator))
            for b in bars]


def _price(bars1: List[Bar], bars2: List[Bar], pairs: Sequence[Tuple[int, int]]):
    """Price every deletion and every pair in ``pairs`` once, as ranks.

    For barcodes with an endpoint that is not a Fraction.  Returns ``(del1,
    del2, cost, value)``: the deletion keys of ``bars1`` and ``bars2`` (None
    for an infinite bar), the matching key of each pair, and ``value(key)``,
    the exact cost a key stands for.  A key is its cost's rank among all the
    costs, so keys order like the costs and the key of zero is 0; ``value``
    gives the first equal value in the order zero, deletions of ``bars1``
    then ``bars2``, left then right endpoint difference of each pair.
    """
    dels = [None if b.is_infinite else _deletion_cost(b) for b in bars1 + bars2]
    values = [Fraction(0)] + [d for d in dels if d is not None]
    cost = []
    for i, j in pairs:
        a, b = bars1[i], bars2[j]
        left = _abs(a.left - b.left)
        values.append(left)
        if a.is_infinite:
            cost.append(left)
        else:
            right = _abs(a.right - b.right)
            values.append(right)
            cost.append(max(left, right))
    order, rank = _rank(values)
    keys = [None if d is None else rank[d] for d in dels]
    return keys[:len(bars1)], keys[len(bars1):], [rank[c] for c in cost], order.__getitem__


def _coverable(rows: Sequence[Iterable[int]], deletable1: Sequence[bool],
               deletable2: Sequence[bool], cols: Sequence[Iterable[int]] = None) -> bool:
    """Can every bar be paired off, ``i`` with a ``j`` in ``rows[i]``, or
    else be deleted when deletable?

    By the Mendelsohn-Dulmage theorem a matching covers the bars that must
    stay on both sides iff one matching covers those of ``bars1`` and
    another covers those of ``bars2``: one ``CoverMatching`` on ``rows``,
    one on their transpose ``cols``, built here when not given.
    """
    if not CoverMatching(rows, [not ok for ok in deletable1], len(deletable2)).covers():
        return False
    if cols is None:
        cols = [[] for _ in deletable2]
        for i, row in enumerate(rows):
            for j in row:
                cols[j].append(i)
    return CoverMatching(cols, [not ok for ok in deletable2], len(deletable1)).covers()


class _Cut:
    """An adjacency for a probe at ``key``: ``lists[u]`` holds ``(k, v)`` in
    increasing order, ``0 <= v < n_other``, and ``u``'s neighbours are the
    ``v`` with ``k <= key``.  A row is cut only when a matching search asks
    for it, as most searches visit few rows."""

    __slots__ = ("lists", "bound")

    def __init__(self, lists: Sequence[List[Tuple[int, int]]], key: int, n_other: int) -> None:
        self.lists, self.bound = lists, (key, n_other)

    def __getitem__(self, u: int):
        row = self.lists[u]
        return (v for _k, v in itertools.islice(row, bisect.bisect_right(row, self.bound)))


def _transposed(rows: Sequence[List[Tuple[int, int]]], n_cols: int) -> List[List[Tuple[int, int]]]:
    """``cols[j]`` lists ``(key, i)`` for each ``(key, j)`` in ``rows[i]``,
    in increasing order."""
    cols = [[] for _ in range(n_cols)]
    for i, row in enumerate(rows):
        for k, j in row:
            cols[j].append((k, i))
    for col in cols:
        col.sort()
    return cols


def _feasible_at(rows, cols, del1, del2, key: int) -> bool:
    """Whether the bars of one group can be matched at ``key``: ``rows[i]``
    lists ``(key, j)`` for the pairs of its ``i``-th bar of the first side
    in increasing order, ``cols[j]`` lists ``(key, i)`` likewise, and
    ``del1``/``del2`` are the deletion keys (None for an infinite bar)."""
    return _coverable(_Cut(rows, key, len(del2)),
                      [k is not None and k <= key for k in del1],
                      [k is not None and k <= key for k in del2],
                      _Cut(cols, key, len(del1)))


def _least_feasible(rows, cols, del1, del2, keys: Sequence[int]) -> int:
    """The least of the sorted ``keys`` at which the group is feasible (see
    ``_feasible_at``); the last one must be."""
    lo, hi = 0, len(keys) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible_at(rows, cols, del1, del2, keys[mid]):
            hi = mid
        else:
            lo = mid + 1
    return keys[lo]


def _smallest_feasible_key(idx1: Sequence[int], idx2: Sequence[int], rows,
                           del1, del2, floor: int) -> int:
    """Least key ``>= floor`` at which the bars of one group can be matched.

    ``rows[i]`` lists ``(key, j)`` for the pairs of ``bars1[i]``; the group
    must have equal infinite-bar counts on both sides.
    """
    local = {j: n for n, j in enumerate(idx2)}
    group_rows = [sorted((k, local[j]) for k, j in rows[i]) for i in idx1]
    cols = _transposed(group_rows, len(idx2))
    d1 = [del1[i] for i in idx1]
    d2 = [del2[j] for j in idx2]
    keys = {floor}
    for row in group_rows:
        keys.update(k for k, _j in row)
    keys.update(k for k in d1 + d2 if k is not None)
    # the largest key admits every pair and every deletion of a finite bar
    keys = sorted(k for k in keys if k >= floor)
    if floor:
        # a later group often fits within the optimum of the earlier ones
        if _feasible_at(group_rows, cols, d1, d2, floor):
            return floor
        keys = keys[1:]
    return _least_feasible(group_rows, cols, d1, d2, keys)


def _window_search(keys1: List[Tuple], keys2: List[Tuple], floor: int) -> int:
    """Least key ``>= floor`` at which the bars of one group can be matched,
    from their int endpoint keys (``right`` None for an infinite bar); the
    group must have equal infinite-bar counts on both sides.

    A pair's key is ``2 * max(|dleft|, |dright|)`` and a deletion's ``right
    - left``.  A pair of key at most ``t`` has ``2*|dleft| <= t``, so with
    the second side sorted on left keys the pairs of a bar that a probe at
    ``t`` admits lie in one bisected window.  Every bar of the first side is
    deleted or matched, so the optimum is at least the largest over them of
    the cheaper of the two; the nearest partner is found by walking out from
    the bar's place until ``2*|dleft|`` passes the best cost seen.  Probes
    start there (or at ``floor``) and grow fourfold until one is feasible,
    each widening the windows and pricing only the pairs it adds.  The last
    windows hold every pair of key up to that probe, so their rows and
    columns are sorted once and the keys since the failed probe before it
    are bisected.
    """
    # finite bars, then infinite ones, each by left key: a bar's possible
    # partners are one run
    keys2 = sorted(keys2, key=lambda k: (k[1] is None, k[0]))
    lefts = [l for l, _r in keys2]
    rights = [r for _l, r in keys2]
    split = sum(r is not None for r in rights)
    runs = [(0, split) if r is not None else (split, len(keys2)) for _l, r in keys1]
    del1 = [None if r is None else r - l for l, r in keys1]
    del2 = [None if r is None else r - l for l, r in keys2]

    # ``places[i]``: the window ``[a, b)`` of partners of the i-th bar priced
    # so far, empty at first at the bar's place
    bound, places = 0, []
    for (l, r), (lo, hi), d in zip(keys1, runs, del1):
        k = bisect.bisect_left(lefts, l, lo, hi)
        places.append((k, k))
        if r is None:
            # the run is not empty, as the infinite-bar counts agree
            best = min(2 * abs(l - lefts[j]) for j in (k - 1, k) if lo <= j < hi)
        else:
            best = d
            j = k - 1
            while j >= lo and 2 * (l - lefts[j]) < best:
                best = min(best, 2 * max(l - lefts[j], abs(r - rights[j])))
                j -= 1
            j = k
            while j < hi and 2 * (lefts[j] - l) < best:
                best = min(best, 2 * max(lefts[j] - l, abs(r - rights[j])))
                j += 1
        bound = max(bound, best)

    # ``priced[i]`` holds ``(key, j)`` for every ``j`` in ``places[i]``;
    # windows only grow, so each pair is priced once
    priced = [[] for _ in keys1]

    def widen(t: int) -> None:
        """Grow each window to the partners ``j`` with ``2*|dleft| <= t``."""
        for i, ((l, r), (lo, hi), (a, b)) in enumerate(zip(keys1, runs, places)):
            a2 = bisect.bisect_left(lefts, l - t // 2, lo, a)
            b2 = bisect.bisect_right(lefts, l + t // 2, b, hi)
            places[i] = (a2, b2)
            new = itertools.chain(range(a2, a), range(b, b2))
            if r is None:
                priced[i] += [(2 * abs(l - lefts[j]), j) for j in new]
            else:
                priced[i] += [(2 * max(abs(l - lefts[j]), abs(r - rights[j])), j) for j in new]

    def covers(t: int) -> bool:
        return _coverable([[j for k, j in row if k <= t] for row in priced],
                          [d is not None and d <= t for d in del1],
                          [d is not None and d <= t for d in del2])

    t = max(bound, floor)
    widen(t)
    if covers(t):
        return t
    while True:
        last, t = t, 4 * t or 1
        widen(t)
        if covers(t):
            break
    rows = [sorted(p for p in row if p[0] <= t) for row in priced]
    cols = _transposed(rows, len(keys2))
    keys = {d for d in del1 + del2 if d is not None and last < d <= t}
    for row in rows:
        keys.update(k for k, _j in row if k > last)
    return _least_feasible(rows, cols, del1, del2, sorted(keys))


def bottleneck_distance(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """Exact bottleneck distance; ``INF`` when no tolerance works (mismatched
    infinite-bar counts).

    Degree-sensitive, each degree is its own subproblem and the distance is
    the largest of theirs.  When every endpoint is a Fraction, a subproblem
    is searched on int keys over probe windows of near pairs
    (``_window_search``).  Otherwise every pair is priced once as its rank,
    and the threshold search over a subproblem's ranks compares only ints.
    More than ``MAX_EXPANDED_BARS`` bars on a side raise
    :class:`BarCountError`.
    """
    bars1, bars2 = _expanded(b1, b2)
    groups = _degree_groups(bars1, bars2, degree_sensitive)
    if _infinite_mismatch(bars1, bars2, groups):
        return INF
    scale = _common_denominator(bars1 + bars2)
    best = 0
    if scale is not None:
        keys1, keys2 = _endpoint_keys(bars1, scale), _endpoint_keys(bars2, scale)
        for idx1, idx2 in groups:
            best = _window_search([keys1[i] for i in idx1], [keys2[j] for j in idx2], best)
        return Fraction(best, 2 * scale)
    pairs = _matchable_pairs(bars1, bars2, groups)
    del1, del2, cost, value = _price(bars1, bars2, pairs)
    rows = [[] for _ in bars1]
    for (i, j), key in zip(pairs, cost):
        rows[i].append((key, j))
    for idx1, idx2 in groups:
        best = _smallest_feasible_key(idx1, idx2, rows, del1, del2, best)
    return value(best)


def interleaving_distance(b1: Barcode, b2: Barcode):
    """The interleaving distance of persistence modules coincides with the
    degree-sensitive bottleneck distance of their barcodes; exposed as an
    alias with its own name."""
    return bottleneck_distance(b1, b2, degree_sensitive=True)


# ---------------------------------------------------------------------------
# shift-quotient distance
# ---------------------------------------------------------------------------


class _ShiftCandidates:
    """The candidate shifts: every endpoint difference ``y - x``, every
    midpoint of two distinct differences, and 0.

    Of several equal candidates the first counts, in that order (differences
    in ``e2``-major order, midpoints in pair order).  Queries bisect the
    sorted differences, so the O(E^4) midpoints are never listed.  ``half``
    halves a sum of two differences exactly.
    """

    def __init__(self, e1: Sequence, e2: Sequence, half) -> None:
        self.diffs = list(dict.fromkeys(y - x for y in e2 for x in e1))
        self.index = {d: i for i, d in enumerate(self.diffs)}
        self.sorted_diffs = sorted(self.diffs)
        self.zero = e1[0] - e1[0]
        self.half = half

    def least(self):
        return self.first_from(min(self.sorted_diffs[0], self.zero))

    def first_from(self, t):
        """The smallest candidate ``>= t``."""
        ds = self.sorted_diffs
        found = [self.zero] if not self.zero < t else []
        k = bisect.bisect_left(ds, t)
        if k < len(ds):
            found.append(ds[k])
        for i, x in enumerate(ds):
            # the least y > x with (x + y)/2 >= t
            j = max(i + 1, bisect.bisect_left(ds, 2 * t - x))
            if j < len(ds):
                found.append(self.half(x + ds[j]))
        return self._first_equal(min(found))

    def _first_equal(self, v):
        """The first candidate equal to ``v``: a difference, else the midpoint
        of the earliest pair, else 0."""
        if v in self.index:
            return self.diffs[self.index[v]]
        for x in self.diffs:
            j = self.index.get(2 * v - x)
            if j is not None:
                return self.half(x + self.diffs[j])
        return self.zero


def _optimal_shift(keys1: List[Tuple], keys2: List[Tuple], pairs, half):
    """``(delta, start)`` for barcodes whose infinite bars can be matched,
    from their endpoint keys and matchable pairs: the optimum, and the least
    shift feasible at it (None when every shift is).

    A pair is within ``delta`` at shift ``c`` iff ``top - delta <= c <=
    bottom + delta``, for ``top``/``bottom`` the larger/smaller of its
    endpoint differences.  So the feasible shifts form closed intervals,
    each starting at some ``top_k - delta`` unless every bar is deletable,
    and there pair ``q`` is live iff ``top_q <= top_k`` and ``top_k -
    bottom_q <= 2*delta``.  ``2*delta`` is searched among 0, the bar lengths
    and the ``top_k - bottom_q``, a matrix sorted along rows and columns that
    is never listed: each probe, the weighted median of the row medians left
    between the bounds (Frederickson-Johnson), drops at least a quarter of
    them.  A probe sweeps ``k`` upward with one adjacency set per bar on
    each side: an entering pair adds its edge, a leaving one drops it and is
    unmatched, and the two ``CoverMatching``s of ``_coverable`` are repaired.
    """
    tops, bottoms = [], []
    for i, j in pairs:
        (l1, r1), (l2, r2) = keys1[i], keys2[j]
        dl = l2 - l1
        dr = dl if r1 is None else r2 - r1
        tops.append(max(dl, dr))
        bottoms.append(min(dl, dr))
    len1 = [None if r is None else r - l for l, r in keys1]
    len2 = [None if r is None else r - l for l, r in keys2]
    top_values, top_rank = _rank(tops)
    entering = [[] for _ in top_values]
    for p, t in enumerate(tops):
        entering[top_rank[t]].append(p)
    leaving = sorted(range(len(pairs)), key=bottoms.__getitem__)

    def leftmost(span):
        """Least ``k`` whose shift ``top_k - span/2`` is feasible at ``2*delta
        = span``; -1 when every bar is deletable, as then every shift is,
        and None when no shift is feasible."""
        stay1 = [n is None or n > span for n in len1]
        stay2 = [n is None or n > span for n in len2]
        if not any(stay1) and not any(stay2):
            return -1
        adj1, adj2 = [set() for _ in keys1], [set() for _ in keys2]
        m1, m2 = CoverMatching(adj1, stay1, len(keys2)), CoverMatching(adj2, stay2, len(keys1))
        out = 0
        for k, top in enumerate(top_values):
            floor = top - span  # the least bottom of a live pair
            while out < len(leaving) and bottoms[leaving[out]] < floor:
                i, j = pairs[leaving[out]]
                adj1[i].discard(j)
                adj2[j].discard(i)
                m1.unmatch(i, j)
                m2.unmatch(j, i)
                out += 1
            fresh = [pairs[p] for p in entering[k] if not bottoms[p] < floor]
            for i, j in fresh:
                adj1[i].add(j)
                adj2[j].add(i)
            if fresh and m1.covers() and m2.covers():
                return k
        return None

    zero = half(0)
    negated = sorted(-b for b in dict.fromkeys(bottoms))
    rows = [(t, negated) for t in top_values]
    rows.append((zero, sorted(dict.fromkeys([zero] + [n for n in len1 + len2 if n is not None]))))
    # entries >= 0 are left; the largest admits every pair at the largest top,
    # so some probe succeeds
    lo = [bisect.bisect_left(cols, -t) for t, cols in rows]
    hi = [len(cols) for _t, cols in rows]
    while True:
        medians = sorted((t + cols[(a + b) // 2], b - a)
                         for (t, cols), a, b in zip(rows, lo, hi) if a < b)
        if not medians:
            span, k = best
            return half(span), None if k == -1 else top_values[k] - half(span)
        total, acc = sum(w for _m, w in medians), 0
        for pivot, w in medians:
            acc += w
            if 2 * acc >= total:
                break
        k = leftmost(pivot)
        if k is None:
            lo = [bisect.bisect_right(cols, pivot - t, a, b)
                  for (t, cols), a, b in zip(rows, lo, hi)]
        else:
            best = pivot, k
            hi = [bisect.bisect_left(cols, pivot - t, a, b)
                  for (t, cols), a, b in zip(rows, lo, hi)]


def shifted_bottleneck(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """Minimise ``bottleneck(b1, shift(b2, c))`` over shifts ``c``.

    Returns ``(distance, best_shift)``.  When every endpoint is a Fraction the
    search runs on ints, the endpoints times twice their common denominator,
    so that differences, midpoints and half spreads stay ints; otherwise on
    the endpoints themselves (see ``_optimal_shift``).  The reported shift is
    the smallest optimal one among the endpoint differences, their pairwise
    midpoints and 0.  Barcodes past the bar count cap raise as in
    ``bottleneck_distance``.
    """
    bars1, bars2 = _expanded(b1, b2)
    if not bars1 or not bars2:
        return bottleneck_distance(b1, b2, degree_sensitive), Fraction(0)
    scale = _common_denominator(bars1 + bars2)
    if scale is None:
        half, value = _halve, (lambda x: x)
    else:
        scale *= 2
        half, value = (lambda x: x // 2), (lambda key: Fraction(key, scale))
    keys1, keys2 = _endpoint_keys(bars1, scale), _endpoint_keys(bars2, scale)
    e1, e2 = ([x for pair in keys for x in pair if x is not None] for keys in (keys1, keys2))
    shifts = _ShiftCandidates(e1, e2, half)
    groups = _degree_groups(bars1, bars2, degree_sensitive)
    if _infinite_mismatch(bars1, bars2, groups):
        return INF, value(shifts.least())
    delta, start = _optimal_shift(keys1, keys2, _matchable_pairs(bars1, bars2, groups), half)
    # each interval of shifts feasible at delta, [max top - delta, min bottom
    # + delta] over its pairs, holds the candidate midpoint of its two
    # bounds, so the first candidate after the leftmost start is optimal
    c = value(shifts.least() if start is None else shifts.first_from(start))
    if scale is not None:
        return value(delta), c
    # pi endpoints: re-read at the shift, which fixes the distance's type,
    # until these endpoints get int keys as well
    d = bottleneck_distance(b1, shift_barcode(b2, c), degree_sensitive)
    assert d == value(delta), "the reported shift misses the optimum"
    return d, c


# ---------------------------------------------------------------------------
# exhaustive oracle (re-exported by floerbar.oracles)
# ---------------------------------------------------------------------------


def brute_force_bottleneck(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """Bottleneck distance by exhausting all partial matchings.

    Independent of the candidate/matching machinery above; practical for
    barcodes with at most ~7 bars.
    """
    bars1, bars2 = b1.expand(), b2.expand()

    def solve(i: int, free2: Tuple[int, ...]):
        if i == len(bars1):
            cost = Fraction(0)
            for j in free2:
                cost = max(cost, _deletion_cost(bars2[j]))
            return cost
        a = bars1[i]
        best = INF
        drop = _deletion_cost(a)
        if not (drop is INF):
            sub = solve(i + 1, free2)
            cand = max(drop, sub) if sub is not INF else INF
            if cand < best:
                best = cand
        for idx, j in enumerate(free2):
            b = bars2[j]
            if degree_sensitive and a.degree != b.degree:
                continue
            pair_cost = _bar_matching_cost(a, b)
            if pair_cost is INF:
                continue
            sub = solve(i + 1, free2[:idx] + free2[idx + 1:])
            if sub is INF:
                continue
            cand = max(pair_cost, sub)
            if cand < best:
                best = cand
        return best

    return solve(0, tuple(range(len(bars2))))
