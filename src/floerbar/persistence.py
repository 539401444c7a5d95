"""Barcodes and the exact metrics between them.

A barcode is a finite multiset of degree-labelled half-open intervals
``(left, right]`` (finite) or ``(left, +inf)``.  Endpoints are exact numbers:
rationals, or rational-plus-pi values from :mod:`floerbar.exactpi`.  Every
barcode is stored as rows ``(degree, left, right, mult)`` of int keys: its
endpoints times the least scale that makes their parts ``a + b*pi`` ints,
encoded as one int each by a :class:`~floerbar.exactpi.PiCode`, plain ``a``
when every ``b`` is 0.  The rows are sorted on the keys, and the ``Bar``s
are built once, when first read, each endpoint of the type it was given.

The bottleneck distance is the least tolerance ``delta`` at which, after
deleting bars of length ``<= 2*delta``, the rest biject so that matched
intervals contain each other's ``delta``-shrinkings; degree-sensitive, each
degree is an independent subproblem.  Two barcodes are searched on their
keys over twice their common scale, and a subproblem never lists all its
pairs: with one side sorted on left endpoints, the pairs a probe admits are
one bisected window per bar.  A probe is two one-sided cover tests
(:class:`floerbar.matching.CoverMatching`), by the Mendelsohn-Dulmage
theorem.

The shift-quotient metric minimises the bottleneck distance over global
translations of one barcode (``_optimal_shift``), on the same keys.

The searches compare keys as ints, which decides every comparison exactly
while the pi parts compared stay in the code's bound (see
:mod:`floerbar.exactpi`).  With ``beta`` bounding the pi parts of the
endpoint keys a search runs on: an endpoint difference or a bar length has
at most ``2*beta``, half a length ``beta``; ``_window_search``,
``_first_cost``, ``from_ranks`` and ``least_depth`` compare two of those
(``4*beta``); ``_optimal_shift`` compares spreads ``top - bottom`` with each
other and with ``top - span`` (``8*beta``); and ``_ShiftCandidates``
bisects ``2*t - x`` for a start ``t = top - span/2`` against a difference
(``12*beta``).  So ``_common_code`` keeps ``SPREAD = 12`` times ``beta`` in
the bound, and ``PiCode.encode`` asserts it.  The fourfold probes of
``_window_search`` are ints that the search only cuts the sorted costs at,
so their pi parts need no bound.

The exhaustive matcher ``brute_force_bottleneck`` is defined here and
re-exported by :mod:`floerbar.oracles`, which holds the other oracles.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .exactpi import HEAD, PLAIN, SPREAD, PiCode, PiRational, code_for
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
    "least_depth",
    "bar_length_spectrum",
    "bar_length_spectrum_json",
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
    zero class.  They compare, in both operand orders, but take no
    arithmetic."""

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

    def __repr__(self):
        return "inf" if self.sign > 0 else "-inf"


INF = _Infinite(1)
NEG_INF = _Infinite(-1)


class BarCountError(ValueError):
    """A barcode has more bars than the metrics accept."""


# ``bottleneck_distance`` lists only near pairs: a one-degree pair at the cap
# and its copy moved by 1/100 take 0.1-0.2 s and 30 MiB peak.  Pairs far
# apart and ``shifted_bottleneck`` still price about every pair of bars of one
# degree, so their time and memory grow with the product of the bar counts:
# two independent one-degree draws at the cap take about 9 s and 750 MiB peak
# in ``bottleneck_distance`` (Python 3.11, 2-CPU x86-64).  Keys with pi parts
# add and compare in Python, several times slower than ints.  A multiplicity
# of 10**12 would exhaust memory.
MAX_EXPANDED_BARS = 2_000


class KeySizeError(ValueError):
    """Two barcodes have a common scale longer than the metrics accept."""


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

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.left, self.right, self.degree, self.multiplicity))

    def __hash__(self) -> int:
        # the dataclass hash, which a class defining its own keeps
        return self._hash

    def shifted(self, c) -> "Bar":
        right = INF if self.is_infinite else self.right - c
        return Bar(self.left - c, right, self.degree, self.multiplicity)

    def to_json(self) -> dict:
        return {"left": _endpoint_to_json(self.left),
                "right": "inf" if self.is_infinite else _endpoint_to_json(self.right),
                "degree": self.degree, "mult": self.multiplicity}


def _endpoint_to_json(x):
    return x.to_json() if hasattr(x, "to_json") else format_rational(x)


def _part_to_json(key: int, scale: int) -> str:
    """``format_rational(Fraction(key, scale))``, without the Fraction."""
    g = math.gcd(key, scale)
    return str(key // g) if g == scale else f"{key // g}/{scale // g}"


class _PiInt(int):
    """An int key that reads back as a PiRational.  It equals, and hashes
    like, the plain int key of a Fraction of the same value; arithmetic on
    it gives plain ints."""

    __slots__ = ()


def _typed(key: int, *of: int) -> int:
    """``key``, a ``_PiInt`` when one of the keys ``of`` it is made from is."""
    for x in of:
        if type(x) is _PiInt:
            return _PiInt(key)
    return key


def _key_to_json(key: int, scale: int, code: PiCode = PLAIN):
    """An endpoint key over ``scale`` as the JSON of what it reads back as:
    a PiRational's pair for a ``_PiInt``, else a Fraction's string, whose
    key is its rational part times ``M``."""
    if type(key) is not _PiInt:
        return _part_to_json(key // code.M if code.bound else key, scale)
    a, b = code.parts(key)
    return [_part_to_json(a, scale), _part_to_json(b, scale)]


def _endpoint_from_json(data):
    """A rational as ``(numerator, positive denominator)``; a ``[q, q_pi]``
    pair as a PiRational."""
    return PiRational.from_json(data) if isinstance(data, list) else parse_ratio(data)


def _denominators(x) -> Tuple[int, ...]:
    """The denominators of an endpoint's parts: a Fraction's, a PiRational's
    two, or a parsed ``(numerator, denominator)``'s."""
    if type(x) is tuple:
        return x[1:]
    if type(x) is PiRational:
        return x.rational.denominator, x.pi_coeff.denominator
    return (x.denominator,)


def _key(x, scale: int) -> int:
    """A rational times ``scale``: a Fraction, or parsed as ``(numerator,
    denominator)``."""
    if type(x) is tuple:
        return x[0] * (scale // x[1])
    return x.numerator * (scale // x.denominator)


def _pair(x, scale: int) -> Tuple[int, int]:
    """An endpoint times ``scale`` as its rational and pi parts, ints: a
    PiRational, or a rational as ``_key`` reads it."""
    if type(x) is PiRational:
        return _key(x.rational, scale), _key(x.pi_coeff, scale)
    return _key(x, scale), 0


def _value(key: int, scale: int, code: PiCode = PLAIN):
    """What a key over ``scale`` reads back as: a PiRational for a
    ``_PiInt``, else a Fraction, whose key is its rational part times ``M``."""
    if type(key) is not _PiInt:
        return Fraction(key // code.M if code.bound else key, scale)
    a, b = code.parts(key)
    return PiRational(Fraction(a, scale), Fraction(b, scale))


def _row_order(row):
    """Canonical order of ``(degree, left, right, ...)``: infinite last."""
    return row[0], row[1], row[2] is None, row[2]


def _keyed(items: List[Tuple]) -> Tuple[int, PiCode, List[Tuple]]:
    """The least scale, canonical code and key rows of ``(degree, left,
    right, mult)`` items, each endpoint one that ``_pair`` reads, the key of
    a PiRational a ``_PiInt``."""
    scale = math.lcm(*(d for item in items for x in item[1:3] if x is not None
                       for d in _denominators(x)))
    pis = [x for item in items for x in item[1:3] if type(x) is PiRational]
    if not pis:  # every key is the plain int of a rational
        return scale, PLAIN, [(d, _key(l, scale), None if r is None else _key(r, scale), m)
                              for d, l, r, m in items]
    code = code_for(max(abs(_key(x.pi_coeff, scale)) for x in pis))
    M = code.M  # a rational endpoint's key is its rational part times M
    return scale, code, [
        (d, _PiInt(code.encode(*_pair(l, scale))) if type(l) is PiRational else _key(l, scale) * M,
         None if r is None else _PiInt(code.encode(*_pair(r, scale))) if type(r) is PiRational
         else _key(r, scale) * M, m) for d, l, r, m in items]


def _recode(key: int, src: PiCode, dst: PiCode) -> int:
    """A key of the code ``src`` in the code ``dst``, of its type."""
    return key if src is dst else _typed(
        key * dst.M if src is PLAIN else dst.encode(*src.parts(key)), key)


class _RankTable:
    """The bars that the picks of :meth:`Barcode.from_ranks` are made of,
    with what a pick reads of each, taken once per table.  ``ranked`` has
    distinct rows of multiplicity one, in canonical order over their least
    scale and in their canonical code.  Slot ``k * width + n - 1`` names row
    k at multiplicity n, for ``1 <= n <= width``, so that sorted slots list
    their rows in canonical order.  Per slot: ``rows``, its row; ``gcds``,
    the gcd of the scale and the row's key parts (a pick's least scale is
    the scale over the gcd of its slots'); ``betas``, the row's largest pi
    part (a pick whose largest over its least scale falls below
    ``code.least`` takes a lower code); and ``place``, the index of the
    row's length in ``lengths``, the finite rows' lengths in increasing
    order, or -1 for an infinite row (a pick's depth key is the length at
    its greatest place).  A slot's bar is made the first time a pick reads
    it, row k's at multiplicity one being ``ranked.bars[k]``.  A pick over
    the table's scale and code holds the slot rows themselves and finds
    their slots by identity; any other pick finds them by value, its rows
    brought back to the table's scale and code."""

    __slots__ = ("ranked", "width", "rows", "gcds", "betas", "place", "lengths",
                 "_bars", "_by_id", "_by_value")

    def __init__(self, ranked: "Barcode", width: int) -> None:
        scale, code, rows = ranked.scale, ranked.code, ranked.rows
        parts = [[p for x in row[1:3] if x is not None for p in code.parts(x)] for row in rows] \
            if code.bound else [row[1:3] if row[2] is not None else row[1:2] for row in rows]
        finite = sorted(((_typed(r - l, l, r), k) for k, (_d, l, r, _m) in enumerate(rows)
                         if r is not None), key=operator.itemgetter(0))
        place = [-1] * len(rows)
        for p, (_length, k) in enumerate(finite):
            place[k] = p
        columns = ([math.gcd(scale, *row) for row in parts],
                   [max(map(abs, row[1::2])) for row in parts] if code.bound else [], place)
        self.ranked, self.width, self.lengths = ranked, width, [length for length, _k in finite]
        self.rows = [None] * (len(rows) * width)
        self.gcds, self.betas, self.place = by_slot = [[None] * (len(c) * width) for c in columns]
        for n in range(width):  # slot k * width + n is row k at multiplicity n + 1
            self.rows[n::width] = [(d, l, r, n + 1) for d, l, r, _m in rows] if n else rows
            for slots, column in zip(by_slot, columns):
                slots[n::width] = column
        self._bars = self._by_id = self._by_value = None

    def read(self, pick: "Barcode") -> Tuple[Bar, ...]:
        if self._bars is None:
            self._bars = [None] * len(self.rows)
            self._by_id = {id(row): slot for slot, row in enumerate(self.rows)}
        f, src, dst = self.ranked.scale // pick.scale, pick.code, self.ranked.code
        if f == 1 and src is dst:
            return tuple(map(self._bar, map(self._by_id.__getitem__, map(id, pick.rows))))
        if self._by_value is None:
            self._by_value = {row: slot for slot, row in enumerate(self.rows)}
        return tuple(self._bar(self._by_value[d, _recode(l, src, dst) * f,
                                              None if r is None else _recode(r, src, dst) * f, m])
                     for d, l, r, m in pick.rows)

    def _bar(self, slot: int) -> Bar:
        bar = self._bars[slot]
        if bar is None:
            k, n = divmod(slot, self.width)
            bar = self._bars[slot] = self.ranked.bars[k] if not n else \
                replace(self.ranked.bars[k], multiplicity=n + 1)
        return bar


class Barcode:
    """Canonical multiset of bars: sorted by (degree, left, right), merged.

    ``scale`` is the least positive int that makes every endpoint times it
    a value ``a + b*pi`` of int parts, a Fraction's ``b`` being 0, and
    ``code`` the canonical :class:`~floerbar.exactpi.PiCode` of those parts:
    ``PLAIN`` when every ``b`` is 0.  ``rows`` holds ``(degree, left, right,
    mult)`` of their int keys ``code.encode(a, b)`` in canonical order
    (``right`` None for an infinite bar), the key of an endpoint that reads
    back as a PiRational a ``_PiInt``, and equality and hashing go by scale,
    code and rows, that is by value.  ``bars`` is read out on first read,
    each endpoint of the type it was given: a barcode built from bars keeps
    them (of equal bars the first given), a pick of :meth:`from_ranks` reads
    its bars out of its table's, which all its picks share, and any other
    barcode decodes its rows.  The boundary depth's key is taken once per
    barcode, or handed over by :meth:`from_ranks`.
    """

    # ``_bars``: the bars once read; before, None, or for a pick of
    # ``from_ranks`` the ``_RankTable`` it reads them from
    __slots__ = ("rows", "scale", "code", "_bars", "_depth")

    def __init__(self, bars: Iterable[Bar] = ()) -> None:
        bars = list(bars)
        scale, code, keys = _keyed([(bar.degree, bar.left, None if bar.is_infinite else bar.right,
                                     bar.multiplicity) for bar in bars])
        merged = {}
        for bar, (d, l, r, _m) in zip(bars, keys):
            prev = merged.get((d, l, r))
            # a bar whose multiplicity the merge leaves alone is kept as given
            merged[d, l, r] = bar if prev is None else Bar(
                prev.left, prev.right, prev.degree, prev.multiplicity + bar.multiplicity)
        order = sorted(merged.items(), key=lambda item: _row_order(item[0]))
        self.rows = tuple((*key, bar.multiplicity) for key, bar in order)
        self.scale, self.code, self._bars = scale, code, tuple(bar for _key, bar in order)
        self._depth = None

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple], scale: int) -> "Barcode":
        """The barcode of int rows ``(degree, left, right, mult)`` over
        ``scale``, in any order and with repeats, each endpoint a Fraction.
        Trusted: merged, sorted and brought to the least scale, never
        checked."""
        rows = list(rows)
        g = math.gcd(scale, *(x for row in rows for x in row[1:3] if x is not None))
        return cls._least(((d, l // g, None if r is None else r // g, m)
                           for d, l, r, m in rows), scale // g)

    @classmethod
    def _least(cls, rows: Iterable[Tuple], scale: int, code: PiCode = PLAIN) -> "Barcode":
        """``from_rows`` of rows already over their least scale and in their
        canonical code; of equal rows the first keeps its keys."""
        merged = {}
        for d, l, r, m in rows:
            merged[d, l, r] = merged.get((d, l, r), 0) + m
        return cls._sorted(tuple((*key, merged[key]) for key in sorted(merged, key=_row_order)),
                           scale, code)

    @classmethod
    def _sorted(cls, rows: Tuple[Tuple, ...], scale: int, code: PiCode = PLAIN) -> "Barcode":
        """The barcode of distinct rows in canonical order over their least
        scale and in their canonical code.  Trusted: nothing is checked."""
        out = object.__new__(cls)
        out.rows, out.scale, out.code, out._bars, out._depth = rows, scale, code, None, None
        return out

    @classmethod
    def from_ranks(cls, table: _RankTable, picks: Iterable[Sequence[int]]) -> List["Barcode"]:
        """For each sorted sequence of slots of ``table`` in ``picks``, the
        barcode of their rows, over its least scale and in its canonical
        code.  A pick holds only its rows and the table all picks share: it
        reads its bars, the first time they are asked for, out of the
        table's, each made once for all picks, and its scale, code and depth
        key come from the table's per-slot gcds, pi parts and length places.
        Trusted: a pick names each row of ``table.ranked`` at most once;
        nothing is checked."""
        scale, code, lengths = table.ranked.scale, table.ranked.code, table.lengths
        least = code.least
        out, new, row_at, gcd_at, place_at, beta_at = \
            [], object.__new__, table.rows.__getitem__, table.gcds.__getitem__, \
            table.place.__getitem__, table.betas.__getitem__
        for pick in picks:
            g = math.gcd(scale, *map(gcd_at, pick))
            top = max(map(place_at, pick), default=-1)
            barcode = new(cls)
            barcode.rows = tuple(map(row_at, pick)) if g == 1 else tuple(
                (d, _typed(l // g, l), None if r is None else _typed(r // g, r), m)
                for d, l, r, m in map(row_at, pick))
            barcode.scale, barcode.code, barcode._bars = scale // g, code, table
            barcode._depth = 0 if top < 0 else lengths[top] if g == 1 else \
                _typed(lengths[top] // g, lengths[top])
            if least and max(map(beta_at, pick)) < least * g:
                barcode.code = dst = code_for(max(map(beta_at, pick)) // g)
                barcode.rows = tuple((d, _recode(l, code, dst),
                                      None if r is None else _recode(r, code, dst), m)
                                     for d, l, r, m in barcode.rows)
                barcode._depth = _recode(barcode._depth, code, dst)
            out.append(barcode)
        return out

    @property
    def bars(self) -> Tuple[Bar, ...]:
        bars = self._bars
        if bars is None:
            s, code = self.scale, self.code
            bars = self._bars = tuple(Bar(_value(l, s, code), INF if r is None else
                                          _value(r, s, code), d, m) for d, l, r, m in self.rows)
        elif type(bars) is _RankTable:
            bars = self._bars = bars.read(self)
        return bars

    def __iter__(self):
        return iter(self.bars)

    def __len__(self) -> int:
        return sum(row[3] for row in self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Barcode) and self.scale == other.scale and \
            self.code is other.code and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

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
        s, code = self.scale, self.code
        return {"bars": [{"left": _key_to_json(l, s, code),
                          "right": "inf" if r is None else _key_to_json(r, s, code),
                          "degree": d, "mult": m} for d, l, r, m in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> "Barcode":
        """Read ``{"bars": [...]}`` straight to keys.  A bad item raises
        where and as the ``Bar`` of it would."""
        if not isinstance(data, dict):
            raise ValueError("a barcode is a JSON object")
        items = data["bars"]
        if not isinstance(items, list):
            raise ValueError("a barcode's bars are a JSON list")
        rows = []  # (degree, left, right, mult); right None for inf
        for item in items:
            left = _endpoint_from_json(item["left"])
            right = None if item["right"] == "inf" else _endpoint_from_json(item["right"])
            row = (parse_int(item.get("degree", 0)), left, right, parse_int(item.get("mult", 1)))
            if row[3] < 1:
                raise ValueError("multiplicity must be positive")
            if right is not None and not (
                    left[0] * right[1] < right[0] * left[1] if type(left) is type(right) is tuple
                    else _exact(left) < _exact(right)):
                raise ValueError(f"empty bar ({_exact(left)}, {_exact(right)}]")
            rows.append(row)
        scale, code, keys = _keyed(rows)
        return cls._least(keys, scale, code)


def _exact(x):
    """A parsed endpoint as a number: ``(numerator, denominator)`` as a
    Fraction."""
    return Fraction(*x) if type(x) is tuple else x


def _depth_key(barcode: Barcode) -> int:
    """The boundary depth times the barcode's scale, of the type of the
    first longest row's length; taken once per barcode."""
    key = barcode._depth
    if key is None:
        key = barcode._depth = max((_typed(r - l, l, r) for _d, l, r, _m in barcode.rows
                                    if r is not None), default=0)
    return key


def boundary_depth(barcode: Barcode):
    """Maximal length of a finite bar; 0 when there is none."""
    return _value(_depth_key(barcode), barcode.scale, barcode.code)


def least_depth(barcodes: Iterable[Barcode]):
    """``min(boundary_depth(bc) for bc in barcodes)``, of the same value and
    type, found on keys: each depth key is brought to the lcm of the scales
    in one code and only the least is read out.  No barcodes raise
    ValueError."""
    barcodes = list(barcodes)
    if not barcodes:
        raise ValueError("least_depth of no barcodes")
    depths = [_depth_key(bc) for bc in barcodes]
    scale = math.lcm(*{bc.scale for bc in barcodes})
    factors = [scale // bc.scale for bc in barcodes]
    code = _common_code(barcodes, factors)
    keys = [_recode(key, bc.code, code) * f for bc, key, f in zip(barcodes, depths, factors)]
    k = min(range(len(keys)), key=keys.__getitem__)
    return _value(_typed(keys[k], depths[k]), scale, code)


def _common_code(barcodes: Sequence[Barcode], factors: Sequence[int]) -> PiCode:
    """A code whose bound holds ``SPREAD`` times the pi parts of the keys of
    each barcode times its factor: the largest of the barcodes' canonical
    codes for factors up to ``HEAD // SPREAD``."""
    code = max((bc.code for bc in barcodes), key=operator.attrgetter("bound"))
    if not code.bound:
        return code  # no key has a pi part
    beta = max((abs(bc.code.parts(x)[1]) * f for bc, f in zip(barcodes, factors)
                if f > HEAD // SPREAD and bc.code.bound
                for row in bc.rows for x in row[1:3] if x is not None), default=0)
    return code_for(beta, SPREAD) if beta * SPREAD > code.bound else code


def _length_keys(barcode: Barcode) -> Tuple[List, int]:
    """The finite bar lengths times the scale, in increasing order, and the
    number of infinite bars."""
    finite = sorted(_typed(r - l, l, r) for _d, l, r, m in barcode.rows if r is not None
                    for _ in range(m))
    return finite, sum(m for _d, _l, r, m in barcode.rows if r is None)


def bar_length_spectrum(barcode: Barcode) -> Tuple:
    """Finite bar lengths in increasing order, then one ``INF`` per infinite bar."""
    finite, infinite = _length_keys(barcode)
    return tuple(_value(n, barcode.scale, barcode.code) for n in finite) + (INF,) * infinite


def bar_length_spectrum_json(barcode: Barcode) -> List:
    """The JSON of ``bar_length_spectrum``, written from the keys: each
    finite length as its endpoints are written, then ``"inf"`` per infinite
    bar."""
    finite, infinite = _length_keys(barcode)
    return [_key_to_json(n, barcode.scale, barcode.code) for n in finite] + ["inf"] * infinite


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


def _expanded(b1: Barcode, b2: Barcode) -> Tuple[int, PiCode, List[Tuple], List[Tuple]]:
    """``(scale, code, rows1, rows2)``: the bars of both barcodes, repeated
    by multiplicity, as ``(degree, left, right, length)`` keys over
    ``scale``, twice the common scale, so that every key and difference of
    keys halves exactly (``right`` and ``length`` None for an infinite bar),
    in one code that decides the searches (``_common_code``), each endpoint
    key of its type in the barcode's rows.  Counted
    first, and refused past ``MAX_EXPANDED_BARS`` on either side; a common
    scale longer than ``MAX_SCALE_BITS`` raises :class:`KeySizeError`."""
    for b in (b1, b2):
        count = len(b)
        if count > MAX_EXPANDED_BARS:
            raise BarCountError(
                f"bar count cap exceeded: {count} bars, at most {MAX_EXPANDED_BARS}")
    common = math.lcm(b1.scale, b2.scale)
    if common.bit_length() > MAX_SCALE_BITS:
        raise KeySizeError(
            f"key size cap exceeded: the common scale of the two barcodes has "
            f"{common.bit_length()} bits, at most {MAX_SCALE_BITS}")
    scale = 2 * common
    code = _common_code((b1, b2), (scale // b1.scale, scale // b2.scale))
    return scale, code, _key_rows(b1, scale // b1.scale, code), \
        _key_rows(b2, scale // b2.scale, code)


def _key_rows(b: Barcode, f: int, code: PiCode) -> List[Tuple]:
    rows = b.rows if b.code is code else [
        (d, _recode(l, b.code, code), None if r is None else _recode(r, b.code, code), m)
        for d, l, r, m in b.rows]
    out = []  # ``_expanded``'s rows of ``b``, each key of its type: ``_typed`` written out
    for d, l, r, m in rows:
        l2 = l * f if type(l) is int else _PiInt(l * f)
        out += [(d, l2, None, None) if r is None else
                (d, l2, r * f if type(r) is int else _PiInt(r * f), (r - l) * f)] * m
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


def _window_search(rows1: List[Tuple], rows2: List[Tuple], floor: int) -> int:
    """Least key ``>= floor`` at which the bars of one group, with equal
    infinite-bar counts on both sides, can be matched, from their keyed rows
    over twice the common scale.

    A pair's key is ``max(|dleft|, |dright|)`` and a deletion's half its
    length, so with the second side sorted on left keys the pairs a probe
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
    del1, del2 = ([None if row[3] is None else row[3] // 2 for row in rows]
                  for rows in (rows1, rows2))

    # ``places[i]``: the window ``[a, b)`` of partners of the i-th bar priced
    # so far, empty at first at the bar's place
    bound, places = 0, []
    for (l, r), (lo, hi), d in zip(keys1, runs, del1):
        k = bisect.bisect_left(lefts, l, lo, hi)
        places.append((k, k))
        if r is None:
            # the run is not empty, as the infinite-bar counts agree
            best = min(abs(l - lefts[j]) for j in (k - 1, k) if lo <= j < hi)
        else:
            best = d
            j = k - 1
            while j >= lo and l - lefts[j] < best:
                best = min(best, max(l - lefts[j], abs(r - rights[j])))
                j -= 1
            j = k
            while j < hi and lefts[j] - l < best:
                best = min(best, max(lefts[j] - l, abs(r - rights[j])))
                j += 1
        bound = max(bound, best)

    # ``priced[i]`` holds ``(key, j)`` for every ``j`` in ``places[i]``;
    # windows only grow, so each pair is priced once
    priced = [[] for _ in keys1]

    def widen(t: int) -> None:
        """Grow each window to the partners ``j`` with ``|dleft| <= t``."""
        for i, ((l, r), (lo, hi), (a, b)) in enumerate(zip(keys1, runs, places)):
            a2 = bisect.bisect_left(lefts, l - t, lo, a)
            b2 = bisect.bisect_right(lefts, l + t, b, hi)
            places[i] = (a2, b2)
            new = itertools.chain(range(a2, a), range(b, b2))
            if r is None:
                priced[i] += [(abs(l - lefts[j]), j) for j in new]
            else:
                priced[i] += [(max(abs(l - lefts[j]), abs(r - rights[j])), j) for j in new]

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


def _first_cost(v: int, rows1: List[Tuple], rows2: List[Tuple], groups, code: PiCode,
                c: int = 0) -> int:
    """``v``, a least key of the search, of the type it reads back as: that
    of the first cost equal to it, in the order zero, the deletions of
    ``rows1`` then ``rows2`` (half their lengths), then each matchable
    pair's left and right endpoint differences, group by group and
    row-major, the second side moved by ``-c``.  A cost is a ``_PiInt`` when
    one of the keys it is made of (its endpoints, and ``c`` on the second
    side) is, so the distance reads back as a Fraction or a PiRational by
    the endpoints of that cost, whichever key the search ended on."""
    if code.bound and code.parts(v)[1]:
        return _PiInt(v)  # every cost equal to it has its type
    keys = [x for rows in (rows1, rows2) for row in rows for x in row[1:3]] + [c]
    if _PiInt not in map(type, keys) or not v:
        return v  # every cost is a Fraction's, or v is zero
    for rows, s in ((rows1, 0), (rows2, c)):
        for _d, l, r, n in rows:
            if n is not None and n // 2 == v:
                return _typed(v, l, r, s)
    for i, j in _matchable_pairs(rows1, rows2, groups):
        for x, y in zip(rows1[i][1:3], rows2[j][1:3]):
            if x is not None and abs(x - y + c) == v:
                return _typed(v, x, y, c)
    raise AssertionError("no cost equals the optimum")


def bottleneck_distance(b1: Barcode, b2: Barcode, degree_sensitive: bool = True):
    """Exact bottleneck distance; ``INF`` when no tolerance works (mismatched
    infinite-bar counts).

    Degree-sensitive, each degree is its own subproblem and the distance is
    the largest of theirs, searched on the barcodes' keys over probe windows
    of near pairs (``_window_search``).  More than ``MAX_EXPANDED_BARS``
    bars on a side raise :class:`BarCountError`, and a common scale longer
    than ``MAX_SCALE_BITS`` raises :class:`KeySizeError`.  The distance
    reads back as a Fraction or a PiRational by the endpoints of the first
    cost equal to it (``_first_cost``).
    """
    scale, code, rows1, rows2 = _expanded(b1, b2)
    groups = _degree_groups(rows1, rows2, degree_sensitive)
    if _infinite_mismatch(rows1, rows2, groups):
        return INF
    best = 0
    for idx1, idx2 in groups:
        best = _window_search([rows1[i] for i in idx1], [rows2[j] for j in idx2], best)
    return _value(_first_cost(best, rows1, rows2, groups, code), scale, code)


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
    in ``e2``-major order, midpoints in pair order), a ``_PiInt`` when one
    of the endpoint keys it is made of is (0 when ``e1[0]`` is).  Queries
    bisect the sorted differences, so the O(E^4) midpoints are never listed.
    ``half`` halves a sum of two differences exactly.
    """

    def __init__(self, e1: Sequence, e2: Sequence, half) -> None:
        # ``_typed`` written out: a call per difference would cost more than
        # the difference
        self.diffs = list(dict.fromkeys(_PiInt(y - x) if type(y) is _PiInt or type(x) is _PiInt
                                        else y - x for y in e2 for x in e1))
        self.index = {d: i for i, d in enumerate(self.diffs)}
        self.sorted_diffs = sorted(self.diffs)
        self.zero = _typed(e1[0] - e1[0], e1[0])
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
        """The first candidate equal to ``v``: a difference, else the
        earliest midpoint, else 0."""
        k = self.index.get(v)
        if k is not None:
            return self.diffs[k]
        for x in self.diffs:
            j = self.index.get(2 * v - x)
            if j is not None:
                return _typed(self.half(x + self.diffs[j]), x, self.diffs[j])
        return self.zero


def _optimal_shift(rows1: List[Tuple], rows2: List[Tuple], pairs):
    """``(2*delta, start)`` for barcodes whose infinite bars can be matched,
    from their rows over twice their common scale and matchable pairs: twice
    the optimum, and the least shift feasible at it (None when every shift
    is).

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

    negated = sorted(-b for b in dict.fromkeys(bottoms))
    rows = [(t, negated) for t in top_values]
    rows.append((0, sorted(dict.fromkeys([0] + [n for n in len1 + len2 if n is not None]))))
    # entries >= 0 are left; the largest admits every pair at the largest top,
    # so some probe succeeds
    lo = [bisect.bisect_left(cols, -t) for t, cols in rows]
    hi = [len(cols) for _t, cols in rows]
    while True:
        medians = sorted((t + cols[(a + b) // 2], b - a)
                         for (t, cols), a, b in zip(rows, lo, hi) if a < b)
        if not medians:
            span, k = best
            return span, None if k == -1 else top_values[k] - span // 2
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

    Returns ``(distance, best_shift)``.  The search runs on the barcodes'
    keys over twice their common scale, so that differences, midpoints and
    half spreads stay keys (see ``_optimal_shift``).  The reported shift is
    the smallest optimal one among the endpoint differences, their pairwise
    midpoints and 0, and reads back as the first of them equal to it; the
    distance reads back as ``bottleneck_distance`` at that shift would.
    Barcodes past the bar count or key size cap raise as in
    ``bottleneck_distance``.
    """
    scale, code, rows1, rows2 = _expanded(b1, b2)
    if not rows1 or not rows2:
        return bottleneck_distance(b1, b2, degree_sensitive), Fraction(0)
    e1, e2 = ([x for row in rows for x in row[1:3] if x is not None] for rows in (rows1, rows2))
    shifts = _ShiftCandidates(e1, e2, lambda x: x // 2)
    groups = _degree_groups(rows1, rows2, degree_sensitive)
    if _infinite_mismatch(rows1, rows2, groups):
        return INF, _value(shifts.least(), scale, code)
    span, start = _optimal_shift(rows1, rows2, _matchable_pairs(rows1, rows2, groups))
    # each interval of shifts feasible at delta, [max top - delta, min bottom
    # + delta] over its pairs, holds the candidate midpoint of its two
    # bounds, so the first candidate after the leftmost start is optimal
    c = shifts.least() if start is None else shifts.first_from(start)
    return _value(_first_cost(span // 2, rows1, rows2, groups, code, c), scale, code), \
        _value(c, scale, code)


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
