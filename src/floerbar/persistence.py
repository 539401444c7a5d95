"""Barcodes and the exact metrics between them.

A barcode is a finite multiset of degree-labelled half-open intervals
``(left, right]`` (finite) or ``(left, +inf)``.  Endpoints are exact numbers:
rationals, or rational-plus-pi values from :mod:`floerbar.exactpi`.  A
barcode whose endpoints are all Fractions is *keyed*: it is stored as int
rows ``(degree, left, right, mult)``, its endpoints times the least scale
that makes them ints, sorted on ints, and its ``Bar``s and Fractions are
built once, when first read.  Any other barcode stores its ``Bar``s, and the
code only adds, subtracts, halves and compares their endpoints.

The bottleneck distance is the least tolerance ``delta`` at which, after
deleting bars of length ``<= 2*delta``, the rest biject so that matched
intervals contain each other's ``delta``-shrinkings; degree-sensitive, each
degree is an independent subproblem.  Two keyed barcodes are searched on int
keys over twice their common scale, and a subproblem never lists all its
pairs: with one side sorted on left endpoints, the pairs a probe admits are
one bisected window per bar.  Otherwise every pair and deletion is priced
once as its rank among all the costs, and the ranks are bisected.  A probe
is two one-sided cover tests (:class:`floerbar.matching.CoverMatching`), by
the Mendelsohn-Dulmage theorem.

The shift-quotient metric minimises the bottleneck distance over global
translations of one barcode (``_optimal_shift``), on int keys when both
barcodes are keyed.

The exhaustive matcher ``brute_force_bottleneck`` is defined here and
re-exported by :mod:`floerbar.oracles`, which holds the other oracles.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .exactpi import PiRational
from .matching import CoverMatching
from .novikov import format_rational, parse_int, parse_ratio

__all__ = [
    "INF",
    "NEG_INF",
    "Bar",
    "Barcode",
    "BarCountError",
    "MAX_EXPANDED_BARS",
    "KeySizeError",
    "MAX_SCALE_BITS",
    "boundary_depth",
    "bar_length_spectrum",
    "shift_barcode",
    "collapse_degrees",
    "bottleneck_distance",
    "interleaving_distance",
    "shifted_bottleneck",
    "brute_force_bottleneck",
]


class _Infinite:
    """The sentinels ``INF`` (``sign`` 1) and ``NEG_INF`` (-1), above and
    below every exact endpoint; ``NEG_INF`` marks spectral invariants of the
    zero class."""

    __slots__ = ("sign",)

    def __init__(self, sign: int) -> None:
        self.sign = sign

    def __lt__(self, other):
        return self.sign < 0 and other is not self

    def __le__(self, other):
        return self.sign < 0 or other is self

    def __gt__(self, other):
        return self.sign > 0 and other is not self

    def __ge__(self, other):
        return self.sign > 0 or other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("floerbar.INF" if self.sign > 0 else "floerbar.NEG_INF")

    def __neg__(self):
        return NEG_INF if self.sign > 0 else INF

    def __add__(self, other):
        if other is -self:
            raise ArithmeticError("inf + (-inf)")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("inf - inf")
        return self

    def __rsub__(self, other):
        return -self

    def __repr__(self):
        return "inf" if self.sign > 0 else "-inf"


INF = _Infinite(1)
NEG_INF = _Infinite(-1)


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


class KeySizeError(ValueError):
    """Two keyed barcodes have a common scale longer than the metrics accept."""


# Keys over one common scale grow with the number of distinct denominators.
# On 2,000 tiny overlapping bars (1/p, (i+2)/q] whose denominators cycle
# through k primes near 10**6, ``bottleneck_distance`` of the barcode and
# itself took about 3 s up to 2,000 bits of scale (k = 100), 4.1 s at
# 3,000, 5.2 s at 4,000, 7.6 s at 6,000 and 51 s at 80,000 (Python 3.11,
# 2-CPU x86-64).
MAX_SCALE_BITS = 2_048


def _abs(x):
    return -x if x < x - x else x


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
        return {"left": _endpoint_to_json(self.left),
                "right": "inf" if self.is_infinite else _endpoint_to_json(self.right),
                "degree": self.degree, "mult": self.multiplicity}


def _endpoint_to_json(x):
    return x.to_json() if hasattr(x, "to_json") else format_rational(x)


def _key_to_json(key: int, scale: int) -> str:
    """``format_rational(Fraction(key, scale))``, without the Fraction."""
    g = math.gcd(key, scale)
    return str(key // g) if g == scale else f"{key // g}/{scale // g}"


def _endpoint_from_json(data):
    """A rational as ``(numerator, positive denominator)``; a ``[q, q_pi]``
    pair as a PiRational."""
    return PiRational.from_json(data) if isinstance(data, list) else parse_ratio(data)


def _row_order(row):
    """Canonical order of ``(degree, left, right, ...)``: infinite last."""
    return row[0], row[1], row[2] is None, row[2]


class Barcode:
    """Canonical multiset of bars: sorted by (degree, left, right), merged.

    A barcode whose endpoints are all Fractions is keyed: ``scale`` is the
    least positive int that makes every endpoint times it an int, ``rows``
    holds ``(degree, left, right, mult)`` of those ints in canonical order
    (``right`` None for an infinite bar), and ``bars`` is decoded from them
    on first read.  Otherwise ``rows`` and ``scale`` are None.  Equality and
    hashing go by value, across both kinds.
    """

    __slots__ = ("rows", "scale", "_bars")

    def __init__(self, bars: Iterable[Bar] = ()) -> None:
        bars = list(bars)
        ends = [x for bar in bars for x in (bar.left, bar.right) if x is not INF]
        # Fractions are reduced, so the lcm of their denominators is the least
        scale = math.lcm(*(x.denominator for x in ends)) \
            if all(type(x) is Fraction for x in ends) else None
        merged = {}
        for bar in bars:
            key = (bar.degree, bar.left, bar.right) if scale is None else \
                (bar.degree, _key(bar.left, scale), _key(bar.right, scale))
            prev = merged.get(key)
            # a bar whose multiplicity the merge leaves alone is kept as given
            merged[key] = bar if prev is None else Bar(
                prev.left, prev.right, prev.degree, prev.multiplicity + bar.multiplicity)
        order = sorted(merged) if scale is None else sorted(merged, key=_row_order)
        self.rows = None if scale is None else tuple(
            (*key, merged[key].multiplicity) for key in order)
        self.scale, self._bars = scale, tuple(merged[key] for key in order)

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple], scale: int) -> "Barcode":
        """The keyed barcode of int rows ``(degree, left, right, mult)`` over
        ``scale``, in any order and with repeats.  Trusted: merged, sorted and
        brought to the least scale, never checked."""
        rows = list(rows)
        g = math.gcd(scale, *(x for row in rows for x in row[1:3] if x is not None))
        return cls._least(((d, l // g, None if r is None else r // g, m)
                           for d, l, r, m in rows), scale // g)

    @classmethod
    def _least(cls, rows: Iterable[Tuple], scale: int) -> "Barcode":
        """``from_rows`` of rows already over their least scale."""
        merged = {}
        for d, l, r, m in rows:
            merged[d, l, r] = merged.get((d, l, r), 0) + m
        out = object.__new__(cls)
        out.rows, out.scale, out._bars = tuple(
            (*key, merged[key]) for key in sorted(merged, key=_row_order)), scale, None
        return out

    @classmethod
    def from_ranks(cls, ranked: Sequence[Bar], ranks: Iterable[int]) -> "Barcode":
        """The barcode of the bars ``ranked[k]`` for ``k`` in ``ranks``, a
        repeated rank giving a multiplicity.  Trusted: ``ranked`` holds
        distinct bars of multiplicity one in canonical order, not all of
        Fractions, and ``ranks`` is sorted; nothing is checked."""
        out = object.__new__(cls)
        out.rows = out.scale = None
        runs = ((k, sum(1 for _ in run)) for k, run in itertools.groupby(ranks))
        out._bars = tuple(ranked[k] if n == 1 else replace(ranked[k], multiplicity=n)
                          for k, n in runs)
        return out

    @property
    def bars(self) -> Tuple[Bar, ...]:
        if self._bars is None:
            s = self.scale
            self._bars = tuple(Bar(Fraction(l, s), INF if r is None else Fraction(r, s), d, m)
                               for d, l, r, m in self.rows)
        return self._bars

    def __iter__(self):
        return iter(self.bars)

    def __len__(self) -> int:
        return sum(row[3] for row in self.rows) if self.rows is not None else \
            sum(bar.multiplicity for bar in self.bars)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return False
        if self.rows is not None and other.rows is not None:
            return self.scale == other.scale and self.rows == other.rows
        return self.bars == other.bars

    def __hash__(self) -> int:
        return hash(self.bars)

    def __repr__(self) -> str:
        return "Barcode[" + ", ".join(f"deg {b.degree}: ({b.left}, {b.right}]"
                                      + (f" x{b.multiplicity}" if b.multiplicity > 1 else "")
                                      for b in self.bars) + "]"

    def expand(self) -> List[Bar]:
        """Bars with multiplicity one, repeated; a bar of multiplicity one
        is itself."""
        out = []
        for bar in self.bars:
            out += [bar] if bar.multiplicity == 1 else \
                [Bar(bar.left, bar.right, bar.degree)] * bar.multiplicity
        return out

    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted({b.degree for b in self.bars}))

    def finite_bars(self) -> List[Bar]:
        return [b for b in self.expand() if not b.is_infinite]

    def infinite_bars(self) -> List[Bar]:
        return [b for b in self.expand() if b.is_infinite]

    def to_json(self) -> dict:
        if self.rows is None:
            return {"bars": [bar.to_json() for bar in self.bars]}
        s = self.scale
        return {"bars": [{"left": _key_to_json(l, s),
                          "right": "inf" if r is None else _key_to_json(r, s),
                          "degree": d, "mult": m} for d, l, r, m in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Barcode":
        """Read ``{"bars": [...]}``.  Rational endpoints go straight to int
        keys; a pi endpoint anywhere gives a barcode of ``Bar``s.  A bad item
        raises where and as the ``Bar`` of it would."""
        if not isinstance(data, dict):
            raise ValueError("a barcode is a JSON object")
        items = data["bars"]
        if not isinstance(items, list):
            raise ValueError("a barcode's bars are a JSON list")
        rows, pi = [], False  # (degree, left, right, mult); right None for inf
        for item in items:
            left = _endpoint_from_json(item["left"])
            right = None if item["right"] == "inf" else _endpoint_from_json(item["right"])
            row = (parse_int(item.get("degree", 0)), left, right, parse_int(item.get("mult", 1)))
            if isinstance(left, PiRational) or isinstance(right, PiRational):
                _decoded_bar(row)  # checked as the Bar of it
                pi = True
            elif row[3] < 1:
                raise ValueError("multiplicity must be positive")
            elif right is not None and not left[0] * right[1] < right[0] * left[1]:
                raise ValueError(f"empty bar ({Fraction(*left)}, {Fraction(*right)}]")
            rows.append(row)
        if pi:
            return cls(map(_decoded_bar, rows))
        # the lcm of reduced denominators is the least scale
        scale = math.lcm(*(x[1] for row in rows for x in row[1:3] if x is not None))
        return cls._least(((d, l[0] * (scale // l[1]),
                            None if r is None else r[0] * (scale // r[1]), m)
                           for d, l, r, m in rows), scale)


def _decoded_bar(row: Tuple) -> Bar:
    """A row of ``Barcode.from_json`` as a ``Bar``, ``(num, den)`` as a Fraction."""
    d, l, r, m = (Fraction(*x) if isinstance(x, tuple) else x for x in row)
    return Bar(l, INF if r is None else r, d, m)


def _key(x, scale: int):
    """A Fraction endpoint times ``scale``; None for ``INF``."""
    return None if x is INF else x.numerator * (scale // x.denominator)


def boundary_depth(barcode: Barcode):
    """Maximal length of a finite bar; 0 when there is none."""
    if barcode.rows is not None:
        return Fraction(max((r - l for _d, l, r, _m in barcode.rows if r is not None),
                            default=0), barcode.scale)
    return max((b.length for b in barcode.bars if not b.is_infinite), default=Fraction(0))


def bar_length_spectrum(barcode: Barcode) -> Tuple:
    """Finite bar lengths in increasing order, then one ``INF`` per infinite bar."""
    keyed = barcode.rows is not None
    lengths = [INF if r is None else r - l for _d, l, r, m in barcode.rows for _ in range(m)] \
        if keyed else [b.length for b in barcode.expand()]
    finite = sorted(n for n in lengths if n is not INF)
    if keyed:
        finite = [Fraction(n, barcode.scale) for n in finite]
    return tuple(finite) + (INF,) * (len(lengths) - len(finite))


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


def _expanded(b1: Barcode, b2: Barcode, factor: int = 1) -> Tuple[object, List[Tuple], List[Tuple]]:
    """``(scale, rows1, rows2)``: the bars of both barcodes, repeated by
    multiplicity, as ``(degree, left, right, length)`` (``right`` and
    ``length`` None for an infinite bar): int keys over ``scale``, ``factor``
    times the common scale, when both are keyed, else the bars' own values
    and ``scale`` None.  Counted first, and refused past
    ``MAX_EXPANDED_BARS`` on either side; a common scale longer than
    ``MAX_SCALE_BITS`` raises :class:`KeySizeError`."""
    for b in (b1, b2):
        count = len(b)
        if count > MAX_EXPANDED_BARS:
            raise BarCountError(
                f"bar count cap exceeded: {count} bars, at most {MAX_EXPANDED_BARS}")
    if b1.rows is None or b2.rows is None:
        return None, _bar_rows(b1.bars), _bar_rows(b2.bars)
    common = math.lcm(b1.scale, b2.scale)
    if common.bit_length() > MAX_SCALE_BITS:
        raise KeySizeError(
            f"key size cap exceeded: the common scale of the two barcodes has "
            f"{common.bit_length()} bits, at most {MAX_SCALE_BITS}")
    scale = factor * common
    return scale, _key_rows(b1, scale // b1.scale), _key_rows(b2, scale // b2.scale)


def _key_rows(b: Barcode, f: int) -> List[Tuple]:
    out = []
    for d, l, r, m in b.rows:
        out += [(d, l * f, None, None) if r is None else (d, l * f, r * f, (r - l) * f)] * m
    return out


def _bar_rows(bars: Iterable[Bar]) -> List[Tuple]:
    out = []
    for bar in bars:
        row = (bar.degree, bar.left, None, None) if bar.is_infinite else \
            (bar.degree, bar.left, bar.right, bar.length)
        out += [row] * bar.multiplicity
    return out


def _degree_groups(rows1: Sequence[Tuple], rows2: Sequence[Tuple],
                   degree_sensitive: bool) -> List[Tuple[List[int], List[int]]]:
    """Index lists of the independent subproblems of two lists of rows, by
    ascending degree (one group when degree-blind)."""
    if not degree_sensitive:
        return [(list(range(len(rows1))), list(range(len(rows2))))]
    groups = {}
    for i, row in enumerate(rows1):
        groups.setdefault(row[0], ([], []))[0].append(i)
    for j, row in enumerate(rows2):
        groups.setdefault(row[0], ([], []))[1].append(j)
    return [groups[d] for d in sorted(groups)]


def _matchable_pairs(rows1, rows2, groups) -> List[Tuple[int, int]]:
    """Pairs ``(i, j)`` of one group whose bars are both finite or both
    infinite; group by group, row-major."""
    return [(i, j) for idx1, idx2 in groups for i in idx1 for j in idx2
            if (rows1[i][2] is None) == (rows2[j][2] is None)]


def _infinite_mismatch(rows1, rows2, groups) -> bool:
    """Some group has unequal infinite-bar counts: no tolerance works."""
    return any(sum(rows1[i][2] is None for i in idx1)
               != sum(rows2[j][2] is None for j in idx2) for idx1, idx2 in groups)


def _rank(values: Iterable) -> Tuple[List, dict]:
    """Distinct ``values`` in increasing order, the first of equal ones kept,
    and each one's index there."""
    order = sorted(dict.fromkeys(values))
    return order, {v: k for k, v in enumerate(order)}


def _rank_search(rows1: List[Tuple], rows2: List[Tuple], groups) -> object:
    """The bottleneck distance of two lists of rows whose groups have equal
    infinite-bar counts, on the endpoints themselves: every deletion and
    every matchable pair is priced once as its rank among all the costs, and
    each group's ranks are bisected from the optimum of the groups before.

    Of several equal costs the value returned is the first in the order
    zero, deletions of ``rows1`` then ``rows2``, left then right endpoint
    difference of each pair."""
    pairs = _matchable_pairs(rows1, rows2, groups)
    dels = [None if n is None else _halve(n) for _d, _l, _r, n in rows1 + rows2]
    values, cost = [Fraction(0)] + [d for d in dels if d is not None], []
    for i, j in pairs:
        (_d1, l1, r1, _n1), (_d2, l2, r2, _n2) = rows1[i], rows2[j]
        diffs = [_abs(l1 - l2)] if r1 is None else [_abs(l1 - l2), _abs(r1 - r2)]
        values += diffs
        cost.append(max(diffs))
    order, rank = _rank(values)
    keys = [None if d is None else rank[d] for d in dels]
    rows = [[] for _ in rows1]
    for (i, j), c in zip(pairs, cost):
        rows[i].append((rank[c], j))
    best = 0
    for idx1, idx2 in groups:
        best = _smallest_feasible_key(idx1, idx2, rows, keys[:len(rows1)], keys[len(rows1):], best)
    return order[best]


def _coverable(rows: Sequence[Iterable[int]], deletable1: Sequence[bool],
               deletable2: Sequence[bool], cols: Sequence[Iterable[int]] = None) -> bool:
    """Can every bar be paired off, ``i`` with a ``j`` in ``rows[i]``, or
    else be deleted when deletable?  By the Mendelsohn-Dulmage theorem, iff
    one ``CoverMatching`` covers the undeletable bars of the first side on
    ``rows`` and one those of the second on ``cols``, their transpose
    (built when not given)."""
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
    ``v`` with ``k <= key``, cut only when a matching search asks."""

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
    """Least key ``>= floor`` at which the bars of one group, with equal
    infinite-bar counts, can be matched; ``rows[i]`` lists ``(key, j)`` for
    the pairs of the first side's ``i``-th bar."""
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


def _window_search(rows1: List[Tuple], rows2: List[Tuple], floor: int) -> int:
    """Least key ``>= floor`` at which the bars of one group, with equal
    infinite-bar counts on both sides, can be matched, from their int rows.

    A pair's key is ``2 * max(|dleft|, |dright|)`` and a deletion's ``right
    - left``, so with the second side sorted on left keys the pairs a probe
    at ``t`` admits lie in one bisected window per bar.  Probes start at a
    lower bound, the largest over the first side of each bar's cheaper
    choice (deleted, or matched to its nearest partner, found by walking
    out from its place), and grow fourfold until one is feasible, pricing
    only the pairs each adds.  The keys since the failed probe before it are
    then bisected.
    """
    # finite bars, then infinite ones, each by left key: a bar's possible
    # partners are one run
    rows2 = sorted(rows2, key=lambda row: (row[2] is None, row[1]))
    keys1 = [(l, r) for _d, l, r, _n in rows1]
    lefts = [row[1] for row in rows2]
    rights = [row[2] for row in rows2]
    split = sum(r is not None for r in rights)
    runs = [(0, split) if r is not None else (split, len(rows2)) for _l, r in keys1]
    del1 = [row[3] for row in rows1]
    del2 = [row[3] for row in rows2]

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
    cols = _transposed(rows, len(rows2))
    keys = {d for d in del1 + del2 if d is not None and last < d <= t}
    for row in rows:
        keys.update(k for k, _j in row if k > last)
    return _least_feasible(rows, cols, del1, del2, sorted(keys))


def bottleneck_distance(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """Exact bottleneck distance; ``INF`` when no tolerance works (mismatched
    infinite-bar counts).

    Degree-sensitive, each degree is its own subproblem and the distance is
    the largest of theirs.  Two keyed barcodes are searched on their int
    keys over probe windows of near pairs (``_window_search``); otherwise
    every pair is priced once as its rank (``_rank_search``).  More than
    ``MAX_EXPANDED_BARS`` bars on a side raise :class:`BarCountError`, and
    two keyed barcodes whose common scale is longer than ``MAX_SCALE_BITS``
    raise :class:`KeySizeError`.

    The window search run on ``PiRational`` endpoints doubled the time per
    call on radial's homotopy traffic (0.29 -> 0.57 ms a three-bar pi pair),
    so pi barcodes wait for int keys of Q + Q*pi.
    """
    scale, rows1, rows2 = _expanded(b1, b2)
    groups = _degree_groups(rows1, rows2, degree_sensitive)
    if _infinite_mismatch(rows1, rows2, groups):
        return INF
    if scale is None:
        return _rank_search(rows1, rows2, groups)
    best = 0
    for idx1, idx2 in groups:
        best = _window_search([rows1[i] for i in idx1], [rows2[j] for j in idx2], best)
    return Fraction(best, 2 * scale)


def interleaving_distance(b1: Barcode, b2: Barcode):
    """The interleaving distance of persistence modules: the degree-sensitive
    bottleneck distance of their barcodes, under its own name."""
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


def _optimal_shift(rows1: List[Tuple], rows2: List[Tuple], pairs, half):
    """``(delta, start)`` for barcodes whose infinite bars can be matched,
    from their rows and matchable pairs: the optimum, and the least shift
    feasible at it (None when every shift is).

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
        (_d1, l1, r1, _n1), (_d2, l2, r2, _n2) = rows1[i], rows2[j]
        dl = l2 - l1
        dr = dl if r1 is None else r2 - r1
        tops.append(max(dl, dr))
        bottoms.append(min(dl, dr))
    len1 = [row[3] for row in rows1]
    len2 = [row[3] for row in rows2]
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
        adj1, adj2 = [set() for _ in rows1], [set() for _ in rows2]
        m1, m2 = CoverMatching(adj1, stay1, len(rows2)), CoverMatching(adj2, stay2, len(rows1))
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

    Returns ``(distance, best_shift)``.  When both barcodes are keyed the
    search runs on their int keys over twice the common scale, so that
    differences, midpoints and half spreads stay ints; otherwise on the
    endpoints themselves (see ``_optimal_shift``).  The reported shift is
    the smallest optimal one among the endpoint differences, their pairwise
    midpoints and 0.  Barcodes past the bar count or key size cap raise as
    in ``bottleneck_distance``.
    """
    scale, rows1, rows2 = _expanded(b1, b2, 2)
    if not rows1 or not rows2:
        return bottleneck_distance(b1, b2, degree_sensitive), Fraction(0)
    half, value = (_halve, lambda x: x) if scale is None else \
        (lambda x: x // 2, lambda key: Fraction(key, scale))
    e1, e2 = ([x for row in rows for x in row[1:3] if x is not None] for rows in (rows1, rows2))
    shifts = _ShiftCandidates(e1, e2, half)
    groups = _degree_groups(rows1, rows2, degree_sensitive)
    if _infinite_mismatch(rows1, rows2, groups):
        return INF, value(shifts.least())
    delta, start = _optimal_shift(rows1, rows2, _matchable_pairs(rows1, rows2, groups), half)
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


def brute_force_bottleneck(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """Bottleneck distance by exhausting all partial matchings.

    Independent of the candidate/matching machinery above; practical for
    barcodes with at most ~7 bars.
    """
    bars1, bars2 = b1.expand(), b2.expand()

    def solve(i: int, free2: Tuple[int, ...]):
        if i == len(bars1):
            return max([Fraction(0)] + [_deletion_cost(bars2[j]) for j in free2])
        a = bars1[i]
        # (cost, bars of the second side left free) per choice for ``a``
        options = [] if a.is_infinite else [(_deletion_cost(a), free2)]
        options += [(_bar_matching_cost(a, bars2[j]), free2[:idx] + free2[idx + 1:])
                    for idx, j in enumerate(free2)
                    if not (degree_sensitive and a.degree != bars2[j].degree)]
        best = INF
        for cost, rest in options:
            if cost is not INF:
                cand = max(cost, solve(i + 1, rest))
                if cand < best:
                    best = cand
        return best

    return solve(0, tuple(range(len(bars2))))
