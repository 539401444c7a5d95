"""Independent answers for the benchmark's checks.

Nothing here calls floerbar.  Values are read back from the JSON reports the
CLI prints: rationals as ``"p/q"`` strings, values of Q + Q*pi as
``["q", "q_pi"]`` pairs, infinite right endpoints as ``"inf"``.  A rational
value is a Fraction; a value with a pi part is a :class:`PiValue`.

PiValue orders by a 50-digit rational approximation of pi.  That is exact
for every value the benchmark generates: two distinct values ``q + q_pi*pi``
with denominators below 10**6 differ by far more than 10**-40, and equal
values are caught by exact coefficient equality first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

PI_APPROX = Fraction(314159265358979323846264338327950288419716939937510, 10 ** 50)


@dataclass(frozen=True)
class PiValue:
    """``q + q_pi * pi`` with ``q_pi != 0``; build it with :func:`pi_value`."""

    q: Fraction
    q_pi: Fraction

    def _parts(self, other) -> Tuple[Fraction, Fraction]:
        return (other.q, other.q_pi) if isinstance(other, PiValue) else (Fraction(other), Fraction(0))

    def __add__(self, other):
        q, q_pi = self._parts(other)
        return pi_value(self.q + q, self.q_pi + q_pi)

    __radd__ = __add__

    def __sub__(self, other):
        q, q_pi = self._parts(other)
        return pi_value(self.q - q, self.q_pi - q_pi)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return PiValue(-self.q, -self.q_pi)

    def __mul__(self, scale):
        return pi_value(self.q * scale, self.q_pi * scale)

    __rmul__ = __mul__

    def __truediv__(self, divisor):
        return self * (1 / Fraction(divisor))

    def _approx(self) -> Fraction:
        return self.q + self.q_pi * PI_APPROX

    def __lt__(self, other):
        return self != other and self._approx() < _approx(other)

    def __gt__(self, other):
        return self != other and self._approx() > _approx(other)

    def __abs__(self):
        return -self if self < 0 else self


Number = Union[Fraction, PiValue]


def _approx(x: Number) -> Fraction:
    return x._approx() if isinstance(x, PiValue) else x


def pi_value(q, q_pi) -> Number:
    """``q + q_pi * pi``, a plain Fraction when there is no pi part."""
    q, q_pi = Fraction(q), Fraction(q_pi)
    return PiValue(q, q_pi) if q_pi else q


def val(x) -> Number:
    """A report value (string, int, Fraction or ``[q, q_pi]``) as a number."""
    if isinstance(x, list):
        return pi_value(x[0], x[1])
    if isinstance(x, PiValue):
        return x
    return Fraction(x)


# (degree, left, right); right is None for an infinite bar
RefBar = Tuple[int, Number, Optional[Number]]


# ---------------------------------------------------------------------------
# barcodes
# ---------------------------------------------------------------------------


def _bar_key(bar: RefBar):
    deg, left, right = bar
    return (deg, _approx(left), right is None, 0 if right is None else _approx(right))


def bars_from_report(barcode_json: dict) -> List[RefBar]:
    """Expanded bars (multiplicity one each), sorted."""
    out = []
    for item in barcode_json["bars"]:
        right = None if item["right"] == "inf" else val(item["right"])
        out.extend([(int(item.get("degree", 0)), val(item["left"]), right)]
                   * int(item.get("mult", 1)))
    return sorted(out, key=_bar_key)


def same_bars(a: Iterable[RefBar], b: Iterable[RefBar]) -> bool:
    return sorted(a, key=_bar_key) == sorted(b, key=_bar_key)


def boundary_depth(bars: Sequence[RefBar]) -> Number:
    return max((right - left for _d, left, right in bars if right is not None),
               default=Fraction(0))


def gamma(bars: Sequence[RefBar], fund: int = 1, point: int = 0) -> Optional[Number]:
    """Gap between the unique infinite bars of the two degrees, or None when
    either degree does not carry exactly one."""
    lefts = {}
    for deg in (fund, point):
        inf = [left for d, left, right in bars if d == deg and right is None]
        if len(inf) != 1:
            return None
        lefts[deg] = inf[0]
    return lefts[fund] - lefts[point]


def infinite_counts(bars: Sequence[RefBar]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for deg, _left, right in bars:
        if right is None:
            out[deg] = out.get(deg, 0) + 1
    return out


# ---------------------------------------------------------------------------
# bottleneck distance by threshold tests
# ---------------------------------------------------------------------------


def _pair_cost(a: RefBar, b: RefBar) -> Optional[Number]:
    """Smallest delta matching the two bars; None when one is infinite and
    the other is not."""
    if (a[2] is None) != (b[2] is None):
        return None
    if a[2] is None:
        return abs(a[1] - b[1])
    return max(abs(a[1] - b[1]), abs(a[2] - b[2]))


def _covers(graph: List[List[int]], need: Sequence[int], num_right: int) -> bool:
    """Whether some matching of the bipartite graph covers every left vertex
    in ``need`` (Kuhn's augmenting paths)."""
    owner = [-1] * num_right

    def augment(u: int, seen: List[bool]) -> bool:
        for v in graph[u]:
            if not seen[v]:
                seen[v] = True
                if owner[v] == -1 or augment(owner[v], seen):
                    owner[v] = u
                    return True
        return False

    return all(augment(u, [False] * num_right) for u in need)


class Matcher:
    """Threshold tests for the degree-sensitive bottleneck distance of two
    barcodes, with the pair costs computed once."""

    def __init__(self, bars1: Sequence[RefBar], bars2: Sequence[RefBar]) -> None:
        self.degrees = []
        for deg in sorted({b[0] for b in bars1} | {b[0] for b in bars2}):
            a = [b for b in bars1 if b[0] == deg]
            c = [b for b in bars2 if b[0] == deg]
            self.degrees.append((a, c, [[_pair_cost(x, y) for y in c] for x in a]))

    def within(self, delta: Number) -> bool:
        """Whether the barcodes are within bottleneck distance ``delta``.

        Per degree, a delta-matching exists iff one matching covers every
        bar of the first barcode that must be matched and one covers every
        such bar of the second (Mendelsohn-Dulmage).  Edges join bars of
        pair cost at most ``delta``; a bar may stay unmatched only when it
        is finite and no longer than ``2*delta``.
        """
        def must(bar):
            return bar[2] is None or bar[2] - bar[1] > 2 * delta

        for a, c, costs in self.degrees:
            ok = [[j for j, cost in enumerate(row) if cost is not None and not cost > delta]
                  for row in costs]
            back: List[List[int]] = [[] for _ in c]
            for i, row in enumerate(ok):
                for j in row:
                    back[j].append(i)
            if not _covers(ok, [i for i, x in enumerate(a) if must(x)], len(c)):
                return False
            if not _covers(back, [j for j, y in enumerate(c) if must(y)], len(a)):
                return False
        return True

    def candidates(self) -> set:
        """Every value the distance can take: 0, half bar lengths, and
        endpoint gaps of same-degree, same-kind pairs."""
        out = {Fraction(0)}
        for a, c, _costs in self.degrees:
            out.update((b[2] - b[1]) / 2 for b in a + c if b[2] is not None)
            for x in a:
                for y in c:
                    if (x[2] is None) == (y[2] is None):
                        out.add(abs(x[1] - y[1]))
                        if x[2] is not None:
                            out.add(abs(x[2] - y[2]))
        return out

    def is_distance(self, reported) -> bool:
        """Whether ``reported`` (a report value or "inf") is exactly the
        distance: feasible itself, every smaller candidate infeasible."""
        cands = self.candidates()
        if reported == "inf":
            return not self.within(max(cands))
        d = val(reported)
        below = [c for c in cands if c < d]
        return d in cands and self.within(d) and (not below or not self.within(max(below)))


# ---------------------------------------------------------------------------
# radial profiles: spectrum and forced bar bound
# ---------------------------------------------------------------------------


def _floor(x: Fraction) -> int:
    if x.denominator == 1:
        raise ValueError("integer slope")
    return x.numerator // x.denominator


def radial_orbits(breakpoints: Sequence[Tuple[Fraction, Fraction]],
                  exterior: Sequence[int], area: Number) -> List[Tuple[int, Number]]:
    """Generator orbits ``(degree class, action)`` of a profile with rational
    breakpoints, for dimension 1 and Maslov number 2.

    The origin gives one generator of degree ``-floor(s_0)`` and action
    ``f(0)``; a kink at ``(rho, f)`` between slopes ``s`` and ``s'`` gives two
    generators of action ``f - l*rho`` for each integer ``l`` strictly
    between the slopes, of degree ``-l`` (convex) or ``1 - l`` (concave);
    exterior index ``j`` gives degree ``j`` at the last value.  An orbit is
    represented in degree class ``d % 2`` with its action moved by
    ``area * ((d % 2 - d) // 2)``.
    """
    slopes = [(f1 - f0) / (r1 - r0)
              for (r0, f0), (r1, f1) in zip(breakpoints, breakpoints[1:])]
    floors = [_floor(s) for s in slopes]
    gens: List[Tuple[int, Fraction]] = [(-floors[0], breakpoints[0][1])]
    for i in range(1, len(breakpoints) - 1):
        rho, f = breakpoints[i]
        convex = slopes[i - 1] < slopes[i]
        lo, hi = sorted((floors[i - 1], floors[i]))
        for l in range(lo + 1, hi + 1):
            gens.extend([(-l if convex else 1 - l, f - l * rho)] * 2)
    gens.extend((j, breakpoints[-1][1]) for j in exterior)
    return [(d % 2, area * Fraction((d % 2 - d) // 2) + a) for d, a in gens]


def _edge_costs(orbits: Sequence[Tuple[int, Number]], area: Number):
    """Cheapest bar length of each class-0/class-1 orbit pair that some
    action-decreasing differential can pair, as ``(cost, i, j)``: the
    class-1 orbit over the class-0 one, or the class-0 orbit over the
    class-1 one recapped once downwards."""
    zero = [a for c, a in orbits if c == 0]
    one = [a for c, a in orbits if c == 1]
    edges = []
    for i, u in enumerate(zero):
        for j, v in enumerate(one):
            lengths = [x for x in (v - u, u - v + area) if x > 0]
            if lengths:
                edges.append((min(lengths), i, j))
    edges.sort(key=lambda e: _approx(e[0]))
    return len(zero), len(one), edges


def _max_matching(n0: int, n1: int, edges) -> int:
    graph: List[List[int]] = [[] for _ in range(n0)]
    for _cost, i, j in edges:
        graph[i].append(j)
    owner = [-1] * n1

    def augment(u: int, seen: List[bool]) -> bool:
        for v in graph[u]:
            if not seen[v]:
                seen[v] = True
                if owner[v] == -1 or augment(owner[v], seen):
                    owner[v] = u
                    return True
        return False

    return sum(augment(u, [False] * n1) for u in range(n0))


def max_pairs(orbits: Sequence[Tuple[int, Number]], area: Number) -> int:
    """Largest number of finite bars any feasible barcode can have."""
    return _max_matching(*_edge_costs(orbits, area))


def forced_bar_bound(orbits: Sequence[Tuple[int, Number]], area: Number,
                     pairs: int) -> Number:
    """Minimum over feasible barcodes with ``pairs`` finite bars of the
    longest finite bar: the smallest edge cost at which the pairable graph
    has a matching of that size (a bottleneck matching)."""
    n0, n1, edges = _edge_costs(orbits, area)
    if pairs == 0:
        return Fraction(0)
    for cost, _i, _j in edges:
        if _max_matching(n0, n1, [e for e in edges if not e[0] > cost]) >= pairs:
            return cost
    raise ValueError("no matching of the requested size")


def fold_bound(capacity: Fraction, a: Fraction, area: Number) -> Number:
    """Closed form of the fold profile's bound: min(A*a/2, area - A*a/2)."""
    h = capacity * a / 2
    return min(h, area - h)


def fold_barcodes(capacity: Fraction, a: Fraction, area: Number) -> List[List[RefBar]]:
    """The two feasible barcodes of the fold profile ``fold_profile(a, A)``
    with ranks {0: 1, 1: 1}: the kink pairs down with the origin (a bar of
    length A*a/2 in degree 0) or up, one recap lower (a bar of length
    ``area - A*a/2`` in degree 1)."""
    h = -capacity * a / 2
    zero = Fraction(0)
    rest = [(0, h, None), (1, zero, None)]
    return [sorted([(0, h, zero)] + rest, key=_bar_key),
            sorted([(1, zero, area + h)] + rest, key=_bar_key)]
