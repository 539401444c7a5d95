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
half-lengths and the endpoint differences of matchable pairs.  Each pair and
each deletion is priced once per call as an int key: its cost over a common
denominator when every endpoint is a Fraction, else its rank among all the
costs.  Degree-sensitive, each degree is an independent subproblem.  A
binary search over a subproblem's keys then decides each probe with one
maximum bipartite matching whose graph is built by comparing ints.

The shift-quotient metric minimises the bottleneck distance over global
translations of one barcode.  For a fixed ``delta`` the feasible shifts are
a union of closed intervals, each starting at ``d - delta`` for an endpoint
difference ``d`` of a matchable pair (or the whole line when every bar is
deletable).  So a binary search over the possible optima (0, half bar
lengths and half differences of endpoint differences) decides each step
with one matching per such ``d``.

The exhaustive matcher ``brute_force_bottleneck`` is defined here and
re-exported by :mod:`floerbar.oracles`, which also holds the exhaustive scan
over all endpoint differences and their pairwise midpoints.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .matching import max_bipartite_matching
from .novikov import format_rational, parse_int, parse_rational

__all__ = [
    "INF",
    "NEG_INF",
    "Bar",
    "Barcode",
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
        bars = []
        for item in data["bars"]:
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


def _price(bars1: List[Bar], bars2: List[Bar], pairs: Sequence[Tuple[int, int]]):
    """Price every deletion and every pair in ``pairs`` once, as ints.

    Returns ``(del1, del2, cost, value)``: the deletion keys of ``bars1`` and
    ``bars2`` (None for an infinite bar), the matching key of each pair, and
    ``value(key)``, the exact cost a key stands for.  Keys order like the
    costs they stand for and the key of zero is 0.  When every endpoint is a
    Fraction, a key is its cost times twice the common denominator.
    Otherwise it is the cost's rank, and ``value`` gives the first equal
    value in the order zero, deletions of ``bars1`` then ``bars2``, left then
    right endpoint difference of each pair.
    """
    scale = _common_denominator(bars1 + bars2)
    if scale is not None:
        def ints(bars):
            lefts = [b.left.numerator * (scale // b.left.denominator) for b in bars]
            rights = [None if b.is_infinite
                      else b.right.numerator * (scale // b.right.denominator)
                      for b in bars]
            return lefts, rights

        (l1, r1), (l2, r2) = ints(bars1), ints(bars2)
        del1 = [None if r is None else r - l for l, r in zip(l1, r1)]
        del2 = [None if r is None else r - l for l, r in zip(l2, r2)]
        cost = [2 * (abs(l1[i] - l2[j]) if r1[i] is None
                     else max(abs(l1[i] - l2[j]), abs(r1[i] - r2[j])))
                for i, j in pairs]
        return del1, del2, cost, lambda key: Fraction(key, 2 * scale)

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


def _coverable(rows: Sequence[List[int]], deletable1: Sequence[bool],
               deletable2: Sequence[bool]) -> bool:
    """Can every bar be paired off, ``i`` with a ``j`` in ``rows[i]``, or
    else be deleted when deletable?

    Each side gets one diagonal slot per bar of the other side.  A deletable
    bar may take the slot of its own diagonal copy, and the diagonal slots of
    the two sides pair off freely.  The answer is yes iff the matching is
    perfect.
    """
    n1, n2 = len(deletable1), len(deletable2)
    pool = list(range(n2, n2 + n1))
    adjacency = [row + [n2 + i] if deletable1[i] else row for i, row in enumerate(rows)]
    adjacency += [[j] + pool if ok else pool for j, ok in enumerate(deletable2)]
    return -1 not in max_bipartite_matching(n1 + n2, n2 + n1, adjacency)


def _smallest_feasible_key(idx1: Sequence[int], idx2: Sequence[int], rows,
                           del1, del2, floor: int) -> int:
    """Least key ``>= floor`` at which the bars of one group can be matched.

    ``rows[i]`` lists ``(key, j)`` for the pairs of ``bars1[i]``; the group
    must have equal infinite-bar counts on both sides.
    """
    local = {j: n for n, j in enumerate(idx2)}
    sorted_rows = []
    keys = {floor}
    for i in idx1:
        row = sorted(rows[i])
        sorted_rows.append(([k for k, _j in row], [local[j] for _k, j in row]))
        keys.update(k for k, _j in row)
    d1 = [del1[i] for i in idx1]
    d2 = [del2[j] for j in idx2]
    keys.update(k for k in d1 + d2 if k is not None)
    keys = sorted(k for k in keys if k >= floor)

    def feasible(key: int) -> bool:
        return _coverable([js[:bisect.bisect_right(ks, key)] for ks, js in sorted_rows],
                          [k is not None and k <= key for k in d1],
                          [k is not None and k <= key for k in d2])

    # the largest key admits every pair and every deletion of a finite bar
    lo, hi = 0, len(keys) - 1
    if floor:
        # a later group often fits within the optimum of the earlier ones
        if feasible(floor):
            return floor
        lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(keys[mid]):
            hi = mid
        else:
            lo = mid + 1
    return keys[lo]


def bottleneck_distance(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """Exact bottleneck distance; ``INF`` when no tolerance works (mismatched
    infinite-bar counts).

    Degree-sensitive, each degree is its own subproblem and the distance is
    the largest of theirs.  Each bar pair is priced once as an int key, and
    the threshold search over a subproblem's keys compares only ints.
    """
    bars1, bars2 = b1.expand(), b2.expand()
    groups = _degree_groups(bars1, bars2, degree_sensitive)
    if _infinite_mismatch(bars1, bars2, groups):
        return INF
    pairs = _matchable_pairs(bars1, bars2, groups)
    del1, del2, cost, value = _price(bars1, bars2, pairs)
    rows = [[] for _ in bars1]
    for (i, j), key in zip(pairs, cost):
        rows[i].append((key, j))
    best = 0
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


def _all_endpoints(bars: Sequence[Bar]) -> List:
    out = []
    for b in bars:
        out.append(b.left)
        if not b.is_infinite:
            out.append(b.right)
    return out


class _ShiftCandidates:
    """The candidate shifts: every endpoint difference ``y - x``, every
    midpoint of two distinct differences, and 0.

    Of several equal candidates the first counts, in that order (differences
    in ``e2``-major order, midpoints in pair order).  Queries bisect the
    sorted differences, so the O(E^4) midpoints are listed only by the
    oracle in :mod:`floerbar.oracles`.
    """

    def __init__(self, e1: Sequence, e2: Sequence) -> None:
        self.diffs = list(dict.fromkeys(y - x for y in e2 for x in e1))
        self.index = {d: i for i, d in enumerate(self.diffs)}
        self.sorted_diffs = sorted(self.diffs)
        self.zero = e1[0] - e1[0]

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
                found.append(_halve(x + ds[j]))
        return self._first_equal(min(found))

    def _first_equal(self, v):
        """The first candidate equal to ``v``: a difference, else the midpoint
        of the earliest pair, else 0."""
        if v in self.index:
            return self.diffs[self.index[v]]
        for x in self.diffs:
            j = self.index.get(2 * v - x)
            if j is not None:
                return _halve(x + self.diffs[j])
        return self.zero


def _optimal_shift(b1: Barcode, b2: Barcode, degree_sensitive: bool,
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


def shifted_bottleneck(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """Minimise ``bottleneck(b1, shift(b2, c))`` over shifts ``c``.

    Returns ``(distance, best_shift)``.  The optimum ``delta*`` is found by a
    binary search over its finitely many possible values: 0, half bar
    lengths and half differences of endpoint differences.  Each step asks
    whether some shift is feasible, testing the O(E^2) shifts ``d - delta``
    with one matching each, where ``d`` is an endpoint difference of a
    matchable pair.  The reported shift is the smallest optimal one among the
    endpoint differences, their pairwise midpoints and 0.
    """
    bars1, bars2 = b1.expand(), b2.expand()
    e1, e2 = _all_endpoints(bars1), _all_endpoints(bars2)
    if not e1 or not e2:
        return bottleneck_distance(b1, b2, degree_sensitive), Fraction(0)
    shifts = _ShiftCandidates(e1, e2)
    groups = _degree_groups(bars1, bars2, degree_sensitive)
    if _infinite_mismatch(bars1, bars2, groups):
        return INF, shifts.least()
    return _optimal_shift(b1, b2, degree_sensitive, bars1, bars2,
                          _matchable_pairs(bars1, bars2, groups), shifts)


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
