"""Combinatorial two-curve diagrams on the sphere or the annulus.

A diagram records two embedded closed curves K and L meeting transversally:
the cyclic order of the crossing points along each curve, the faces of the
arrangement as oriented boundary walks (face on the left of every traversed
arc), and an exact positive area per face.  On the sphere each curve must
bisect the total area; on the annulus two designated faces carry the
boundary circles.  Validation checks that the walks glue to a sphere, the
annulus's boundary faces counted as faces: coherent walks, four corners at
every point, V - E + F = 2 and a connected face adjacency graph, which
refuses crossings that only touch.

Lunes -- index-one bigons between the curves -- are enumerated over boundary
data: a path along K from x to y, a path along L back, each with bounded
winding.  Such a boundary determines a face-wise winding function w up to a
global constant (pinned on the annulus by requiring w = 0 on the boundary
faces); the candidate is a lune iff some constant offset makes w nonnegative
with index one, the index being twice the sum of the mean corner windings at
the two endpoints.  An embedded bigon has w = 1 inside and three zero corners
at each end, hence index 2*(1/4 + 1/4) = 1; that sanity case anchors the
criterion, and the bundled equator examples plus the d*d = 0 requirement
gate it.

The jump conditions are linear in the arc traversal counts, so the winding
solve is done once per diagram (``_WindingField``): along a spanning tree of
the face adjacency graph every face's winding is a signed sum of tree-arc
counts, tabulated per curve as prefix sums over the arc order.  A monotone
path then contributes a cyclic range sum plus windings times the full-cycle
total.  The validated geometry, the face areas as int keys and the winding
solve are built once per diagram and kept on it (``_analysis``), however
many passes read them; ``faces`` and ``areas`` are read-only, so they never
go stale.  A face-winding vector is one int, a lane of bits per face, and
the prefix rows are packed once per diagram: a pair's base winding is three
int additions, and a candidate's index-and-nonnegativity test one addition
of its packed turns, index-one offset folded in, and one mask.  Only
survivors are decoded face by face.  No candidate is checked against the
jump conditions: on the sphere that validation makes of the arrangement
every boundary meets them.  ``enumerate_lunes`` proves that, and that the
lanes never overflow.  The per-candidate breadth-first solve all this
replaces is kept as the oracle ``brute_force_lunes`` in
:mod:`floerbar.oracles`, which asserts both.

The filtered complex of a diagram has the crossing points as generators and
the lunes mod 2, grouped by recapping exponent, as its differential.  One
walk of the lune graph grades it: degrees from a two-colouring on the sphere
(an exact grading on the annulus), and actions propagated along the walk's
spanning forest by "action drop = area + exponent * recap area", as int keys
over one scale.  A final pass over every lune checks that rule off the
forest too.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .complexes import FilteredComplex, barcode, gamma
from .novikov import NovikovScalar, NovikovSpec, format_rational, parse_rational
from .persistence import boundary_depth

__all__ = [
    "TwoCurveDiagram",
    "Lune",
    "DiagramError",
    "InadmissibleDiagramError",
    "LuneCandidateError",
    "MAX_LUNE_CANDIDATES",
    "validate_diagram",
    "enumerate_lunes",
    "build_complex",
    "diagram_beta",
    "diagram_gamma",
    "sphere_spec",
    "sphere_diagram_from_meander",
    "equator_pair_diagram",
    "equator_pair_annulus",
    "symmetric_equator_areas",
    "annulus_example_areas",
    "two_circle_diagram",
    "relabel_diagram",
]

# Quantum variable of the sphere theory: degree 2, action one half of the
# unit total area.
SPHERE_DEGREE_STEP = 2
SPHERE_ACTION_STEP = Fraction(1, 2)


def sphere_spec() -> NovikovSpec:
    return NovikovSpec("q", SPHERE_DEGREE_STEP, SPHERE_ACTION_STEP)


class DiagramError(ValueError):
    """Structural invariant of a diagram failed."""


class InadmissibleDiagramError(ValueError):
    """The diagram admits no consistent filtered complex."""


class LuneCandidateError(ValueError):
    """A winding cap gives more lune candidates than the enumeration accepts."""


# ``enumerate_lunes`` tries m*(m-1)*2*(w+1)*(w+2) candidates for m points at
# winding cap w.  ``combfloer`` on the bundled four-point equator pair took
# 0.6-0.9 s as a whole process at w = 200, 974,448 candidates, just under
# the cap: three passes on the sphere, and 0.5-0.7 s for two on the annulus
# (Python 3.11, shared 2-CPU x86-64); a cap of 10**9 would exhaust memory
# listing the boundary parameters.
MAX_LUNE_CANDIDATES = 1_000_000


Step = Tuple[str, int, int, int]  # (curve "K"/"L", from point, to point, direction +-1)


@dataclass(frozen=True)
class TwoCurveDiagram:
    """A two-curve diagram; ``faces`` and ``areas`` are read-only mappings,
    so that the analysis every pass reads (``_analysis``) never goes stale."""

    surface: str                       # "sphere" | "annulus"
    order_k: Tuple[int, ...]
    order_l: Tuple[int, ...]
    faces: Mapping[str, Tuple[Step, ...]]
    areas: Mapping[str, Fraction]
    boundary_faces: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "order_k", tuple(self.order_k))
        object.__setattr__(self, "order_l", tuple(self.order_l))
        object.__setattr__(self, "faces", MappingProxyType(
            {name: tuple(tuple(s) for s in walk) for name, walk in self.faces.items()}))
        object.__setattr__(self, "areas", MappingProxyType(
            {name: Fraction(a) for name, a in self.areas.items()}))
        object.__setattr__(self, "boundary_faces", tuple(self.boundary_faces))

    @property
    def points(self) -> Tuple[int, ...]:
        return tuple(sorted(self.order_k))

    @functools.cached_property
    def _analysis(self) -> "_Analysis":
        """The validated analysis, built on first use.  A diagram that fails
        validation raises on every read: a failure is never cached."""
        return _Analysis(self)

    def to_json(self) -> dict:
        data = {
            "surface": self.surface,
            "order_k": list(self.order_k),
            "order_l": list(self.order_l),
            "faces": {name: [list(s) for s in walk] for name, walk in self.faces.items()},
            "areas": {name: format_rational(a) for name, a in self.areas.items()},
        }
        if self.boundary_faces:
            data["boundary_faces"] = list(self.boundary_faces)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "TwoCurveDiagram":
        """Parse the JSON schema; a field of the wrong shape or type raises
        ValueError (KeyError for a missing field) before any geometry runs."""
        if not isinstance(data, dict):
            raise ValueError("a diagram is a JSON object")
        surface = data["surface"]
        if not isinstance(surface, str):
            raise ValueError("surface must be a string")
        faces = _json_mapping(data["faces"], "faces")
        areas = _json_mapping(data["areas"], "areas")
        boundary_faces = _json_list(data.get("boundary_faces", []), "boundary_faces")
        if not all(isinstance(name, str) for name in boundary_faces):
            raise ValueError("boundary_faces must list face names")
        for name, area in areas.items():
            if isinstance(area, bool) or not isinstance(area, (str, int)):
                raise ValueError(f"area of face {name} must be a rational string or an int")
        return cls(
            surface=surface,
            order_k=_json_points(data["order_k"], "order_k"),
            order_l=_json_points(data["order_l"], "order_l"),
            faces={name: tuple(_json_step(step, name)
                               for step in _json_list(walk, f"face {name}"))
                   for name, walk in faces.items()},
            areas={name: parse_rational(a) for name, a in areas.items()},
            boundary_faces=tuple(boundary_faces),
        )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _json_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON list")
    return v


def _json_mapping(v, what: str) -> dict:
    if not isinstance(v, dict):
        raise ValueError(f"{what} must be a JSON object")
    return v


def _json_points(v, what: str) -> Tuple[int, ...]:
    if not all(_is_int(p) for p in _json_list(v, what)):
        raise ValueError(f"{what} must list integer points")
    return tuple(v)


def _json_step(step, face: str) -> Step:
    if not (isinstance(step, list) and len(step) == 4 and step[0] in ("K", "L")
            and _is_int(step[1]) and _is_int(step[2]) and step[3] in (1, -1)
            and _is_int(step[3])):
        raise ValueError(f"face {face}: a step is [\"K\" or \"L\", int, int, 1 or -1],"
                         f" got {step!r}")
    return tuple(step)


@dataclass(frozen=True)
class Lune:
    """Index-one bigon from ``source`` to ``target`` with winding data."""

    source: int
    target: int
    k_path: Tuple[int, int]            # (direction, extra full windings)
    l_path: Tuple[int, int]
    w: Tuple[Tuple[str, int], ...]     # face -> winding, sorted, zeros dropped
    area: Fraction

    def winding(self, face: str) -> int:
        return dict(self.w).get(face, 0)


# ---------------------------------------------------------------------------
# geometry cache
# ---------------------------------------------------------------------------


class _Geometry:
    """Arc tables, face incidences and corner lists of a diagram."""

    def __init__(self, d: TwoCurveDiagram):
        # the faces, not the diagram: a diagram keeps its analysis, and a
        # reference back would make a cycle that only the garbage collector
        # frees
        self.faces = d.faces
        self.m = len(d.order_k)
        self.pos = {"K": {p: i for i, p in enumerate(d.order_k)},
                    "L": {p: i for i, p in enumerate(d.order_l)}}
        self.order = {"K": d.order_k, "L": d.order_l}
        # arc i of a curve runs from order[i] to order[i+1]
        self.arcs = {curve: [(seq[i], seq[(i + 1) % self.m]) for i in range(self.m)]
                     for curve, seq in self.order.items()}
        self.left: Dict[Tuple[str, int], str] = {}
        self.right: Dict[Tuple[str, int], str] = {}
        self.corners: Dict[int, List[str]] = {p: [] for p in d.order_k}
        for name, walk in d.faces.items():
            for idx, step in enumerate(walk):
                curve, frm, to, direction = step
                arc = self.step_arc(step)
                side = self.left if direction == 1 else self.right
                if (curve, arc) in side:
                    raise DiagramError(
                        f"arc {curve}{arc} traversed twice in direction {direction}")
                side[(curve, arc)] = name
                nxt = walk[(idx + 1) % len(walk)]
                corner = to
                if nxt[1] != corner:
                    raise DiagramError(
                        f"walk of face {name} breaks at step {step} -> {nxt}")
                self.corners[corner].append(name)

    def step_arc(self, step: Step) -> int:
        curve, frm, to, direction = step
        pos = self.pos[curve]
        if frm not in pos or to not in pos:
            raise DiagramError(f"step {step} uses unknown point")
        if direction == 1:
            arc = pos[frm]
            expected = self.order[curve][(arc + 1) % self.m]
            if expected != to:
                raise DiagramError(f"step {step} is not a positive arc of {curve}")
        elif direction == -1:
            arc = pos[to]
            expected = self.order[curve][(arc + 1) % self.m]
            if expected != frm:
                raise DiagramError(f"step {step} is not a reversed arc of {curve}")
        else:
            raise DiagramError(f"step {step} has invalid direction")
        return arc

    def face_components(self, *across: str) -> List[FrozenSet[str]]:
        """Connected components of faces glued across the arcs of the given
        curves."""
        parent = {name: name for name in self.faces}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for curve, i in itertools.product(across, range(self.m)):
            a, b = self.left.get((curve, i)), self.right.get((curve, i))
            if a is None or b is None:
                raise DiagramError(f"arc {curve}{i} missing a side")
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: Dict[str, set] = {}
        for name in self.faces:
            groups.setdefault(find(name), set()).add(name)
        return [frozenset(g) for g in groups.values()]


def validate_diagram(d: TwoCurveDiagram) -> None:
    """Check all structural invariants; raise DiagramError on the first failure."""
    d._analysis  # built, and so validated, on the first read


def _validated_geometry(d: TwoCurveDiagram, area_keys=None) -> _Geometry:
    """``validate_diagram``, returning the geometry it built; ``area_keys``
    is ``_area_keys(d)`` when the caller has it already."""
    m = len(d.order_k)
    if m < 2 or m % 2 != 0:
        raise DiagramError("transverse closed curves cross an even number >= 2 of times")
    if sorted(d.order_k) != sorted(d.order_l):
        raise DiagramError("the two cyclic orders must visit the same point set")
    if len(set(d.order_k)) != m or len(set(d.order_l)) != m:
        raise DiagramError("each point appears exactly once per cyclic order")
    if d.surface not in ("sphere", "annulus"):
        raise DiagramError(f"unknown surface {d.surface!r}")
    for name, area in d.areas.items():
        if area <= 0:
            raise DiagramError(f"face {name} has non-positive area")
    if set(d.areas) != set(d.faces):
        raise DiagramError("areas and faces must list the same names")
    geo = _Geometry(d)  # walk coherence, arc incidences, corners
    for p, corner_faces in geo.corners.items():
        if len(corner_faces) != 4:
            raise DiagramError(f"point {p} has {len(corner_faces)} corners, expected 4")
    for name, walk in d.faces.items():
        for idx, step in enumerate(walk):
            nxt = walk[(idx + 1) % len(walk)]
            if step[0] == nxt[0]:
                raise DiagramError(f"face {name} has consecutive arcs of one curve")
    # Euler count: crossings - arcs + disk faces
    if d.surface == "sphere":
        if d.boundary_faces:
            raise DiagramError("sphere diagrams have no boundary faces")
        if m - 2 * m + len(d.faces) != 2:
            raise DiagramError("Euler count fails for the sphere")
        _check_bisection(geo, area_keys or _area_keys(d))
    else:
        if len(set(d.boundary_faces)) != 2:
            raise DiagramError("annulus diagrams need two distinct boundary faces")
        for bf in d.boundary_faces:
            if bf not in d.faces:
                raise DiagramError(f"unknown boundary face {bf!r}")
        if m - 2 * m + len(d.faces) - 2 != 0:
            raise DiagramError("Euler count fails for the annulus")
    if len(geo.face_components("K", "L")) != 1:
        raise DiagramError("face adjacency graph is disconnected")
    return geo


def _area_keys(d: TwoCurveDiagram) -> Tuple[int, Dict[str, int]]:
    """The face areas as ints over the lcm of their denominators."""
    scale = math.lcm(*(a.denominator for a in d.areas.values()))
    return scale, {name: a.numerator * (scale // a.denominator) for name, a in d.areas.items()}


def _check_bisection(geo: _Geometry, area_keys: Tuple[int, Dict[str, int]]) -> None:
    scale, keys = area_keys
    total = sum(keys.values())
    for curve, across in (("K", "L"), ("L", "K")):
        comps = geo.face_components(across)
        if len(comps) != 2:
            raise DiagramError(f"curve {curve} does not split the sphere into two sides")
        for comp in comps:
            side = sum(keys[f] for f in comp)
            if 2 * side != total:
                raise DiagramError(
                    f"curve {curve} does not bisect the area: side sums to {Fraction(side, scale)}")


# ---------------------------------------------------------------------------
# lune enumeration
# ---------------------------------------------------------------------------


class _WindingField:
    """The winding solve of a diagram, done once for all candidate boundaries.

    The jump conditions ``w(left) - w(right) = n(arc)`` are linear in the arc
    traversal counts n.  Along a spanning tree of the face adjacency graph,
    rooted at the diagram's first face (w = 0 there), each face's winding is
    the signed sum of the counts of the tree arcs on its root path; faces are
    indexed in name order.  A validated diagram is a sphere, so this meets
    the jump condition on the arcs off the tree too whenever the counts form
    a closed boundary (see ``enumerate_lunes``).  ``windings[curve]`` holds
    those signs per face summed over arcs 0..k-1 of the curve as row k, so a
    forward arc range contributes a difference of two rows, and a full turn
    of the curve contributes row m.  Each row comes with its area (in
    ``areas``), which is linear in the row too.  ``corner_prefix[curve][p]``
    sums the winding rows over the four corner faces of point p, which
    prices a candidate's index in O(1).

    Each table maps a curve to its rows and its wrapped rows: a range that
    wraps past arc m-1 starts a full turn early, at row k less row m.
    ``packed(bits)`` holds the winding rows as ints, face f in bits [bits*f,
    bits*f + bits), and ``lane_bits`` picks the width.
    """

    def __init__(self, geo: _Geometry, area_keys: Mapping[str, int]):
        m = geo.m
        self.m = m
        self.pos = geo.pos
        self.faces = sorted(geo.faces)
        index = {name: i for i, name in enumerate(self.faces)}
        n = len(self.faces)
        adjacency: List[List[Tuple[int, Tuple[str, int], int]]] = [[] for _ in range(n)]
        for arc in itertools.product(("K", "L"), range(m)):
            lf, rf = index[geo.left[arc]], index[geo.right[arc]]
            adjacency[rf].append((lf, arc, 1))
            adjacency[lf].append((rf, arc, -1))
        # face -> {arc: sign} over the tree arcs on its root path; validation
        # makes the adjacency graph connected, so every face is reached
        paths: List[Optional[Dict[Tuple[str, int], int]]] = [None] * n
        root = index[next(iter(geo.faces))]
        paths[root] = {}
        frontier = [root]
        while frontier:
            cur = frontier.pop()
            for nbr, arc, sign in adjacency[cur]:
                if paths[nbr] is None:
                    paths[nbr] = dict(paths[cur])
                    paths[nbr][arc] = sign
                    frontier.append(nbr)
        columns: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
        for f, path in enumerate(paths):
            for arc, sign in path.items():
                columns.setdefault(arc, []).append((f, sign))
        self.face_areas = [area_keys[name] for name in self.faces]
        self.windings: Dict[str, Tuple[List[List[int]], List[List[int]]]] = {}
        self.areas: Dict[str, Tuple[List[int], List[int]]] = {}
        self.corner_prefix: Dict[str, Dict[int, List[int]]] = {}
        spreads, turns = [], []
        for curve in ("K", "L"):
            row = [0] * n
            rows = [list(row)]
            for a in range(m):
                for f, sign in columns.get((curve, a), ()):
                    row[f] += sign
                rows.append(list(row))
            areas = [sum(map(operator.mul, self.face_areas, r)) for r in rows]
            self.windings[curve] = rows, [list(map(operator.sub, r, row)) for r in rows]
            self.areas[curve] = areas, [x - areas[m] for x in areas]
            by_face = list(zip(*rows))
            self.corner_prefix[curve] = {
                p: list(map(sum, zip(*(by_face[index[f]] for f in names))))
                for p, names in geo.corners.items()}
            # each face's spread over the rows and the wrapped rows
            spreads.append([max(c) - min(c) + abs(c[m]) for c in by_face])
            turns += map(abs, row)
        # B and T of the lane bound of ``enumerate_lunes``
        self.base_bound, self.turn_bound = max(map(operator.add, *spreads)), max(turns)
        self._packed: Dict[int, tuple] = {}

    def lane_bits(self, max_wind: int) -> int:
        """The least of 8, 16, 32, ... bits whose lanes hold every candidate
        winding at cap ``max_wind``, by the bound of ``enumerate_lunes``."""
        bound = 2 * (self.base_bound + (max_wind + 2) * self.turn_bound)
        bits = 8
        while bound >= 1 << (bits - 1):
            bits *= 2
        return bits

    def packed(self, bits: int) -> tuple:
        """The K rows, wrapped K rows, L rows and wrapped L rows in lanes of
        ``bits`` bits, and the vector of ones; packed once per lane width."""
        tables = self._packed.get(bits)
        if tables is None:
            shifts = range(0, bits * len(self.faces), bits)
            tables = self._packed[bits] = (
                *([sum(map(operator.lshift, r, shifts)) for r in table]
                  for curve in ("K", "L") for table in self.windings[curve]),
                sum(1 << s for s in shifts))
        return tables

    def range_area(self, seg_k: Tuple[int, int], seg_l: Tuple[int, int]) -> int:
        """The area of the forward ranges ``seg_k`` of K and ``seg_l`` of L,
        as an int key; a range (lo, hi) is the arcs lo, ..., hi-1 cyclically."""
        (lo_k, hi_k), (lo_l, hi_l) = seg_k, seg_l
        rows_k, wrapped_k = self.areas["K"]
        rows_l, wrapped_l = self.areas["L"]
        return (rows_k[hi_k] - (rows_k if lo_k < hi_k else wrapped_k)[lo_k]
                + rows_l[hi_l] - (rows_l if lo_l < hi_l else wrapped_l)[lo_l])


class _Analysis:
    """What every pass over one diagram reads, built once per diagram
    (``TwoCurveDiagram._analysis``): the validated geometry, the face areas
    as ints over ``scale`` and, when a pass first asks for it, the winding
    solve."""

    def __init__(self, d: TwoCurveDiagram):
        area_keys = _area_keys(d)
        self.geometry = _validated_geometry(d, area_keys)
        self.scale, self.area_keys = area_keys

    @functools.cached_property
    def field(self) -> _WindingField:
        return _WindingField(self.geometry, self.area_keys)


def _lune_paths(max_wind: int) -> List[Tuple[Tuple[int, int], Tuple[int, int], int, int]]:
    """Boundary path parameters ((dk, jk), (dl, jl)) with jk + jl <= max_wind,
    each with the full turns it adds to the forward range of its curve: the
    reversed path covers the complement of the forward range, negated, so
    direction -1 with j windings is the forward range with -1 - j turns."""
    return [((dk, jk), (dl, jl), jk if dk == 1 else -1 - jk, jl if dl == 1 else -1 - jl)
            for dk, dl in itertools.product((1, -1), repeat=2)
            for jk in range(max_wind + 1) for jl in range(max_wind + 1 - jk)]


def enumerate_lunes(d: TwoCurveDiagram, max_wind: int = 2) -> Tuple[Lune, ...]:
    """All index-one nonnegative-winding bigons with bounded full windings.

    Candidates are the ordered point pairs (x, y) with a monotone path along
    K from x to y and one along L back, each direction and winding count
    (``jk + jl <= max_wind``).  Every candidate of a pair has the winding
    function ``base + tk * total_K + tl * total_L + offset``, with ``base``
    the forward ranges x -> y on K and y -> x on L read from the diagram's
    ``_WindingField`` and (tk, tl) the full turns of its paths.  The index
    is the corner sum ``corner_base + tk * a + tl * b`` over the eight
    corner faces, with (a, b) the pair's corner turn sums; index one fixes
    the offset (the corner sum plus eight times the offset is 2), and on the
    annulus the offset must also put the boundary faces at zero.

    The test runs on packed vectors: face f takes bits [L*f, L*f + L) of
    one int, so adding ints adds vectors.  With corner_base = 8q + r, 0 <= r
    < 8, and s = tk * a + tl * b, index one needs r = 2 - s mod 8 and gives
    the offset c - q, c = (2 - r - s) / 8.  So under each (a, b) the
    boundaries fall into residue classes, each boundary carrying its packed
    turns plus ``c * ones`` and ``high``, the top bit of every lane.  A pair
    whose residue no boundary needs is skipped.  Otherwise the pair's packed
    base less ``q * ones`` plus a boundary's packed turns holds ``w_f +
    2**(L-1)`` in lane f, so ``& high == high`` tests w >= 0 on every face at
    once; on the annulus the mask also takes the boundary faces' lanes
    whole, which must read ``2**(L-1)``: w = 0.  A survivor is decoded from
    the bytes of that int less ``high``; its area adds the pair's base area
    and the area of its turns and offset.  More than ``MAX_LUNE_CANDIDATES``
    candidates raise :class:`LuneCandidateError`, counted before any is built.

    Linear arithmetic on ints is exact, so the lanes read back right, as the
    base-2**L digits ``w_f + 2**(L-1)``, whenever every ``|w_f| <
    2**(L-1)``.  Let B bound ``|base|`` on each face by its spread over the
    rows and wrapped rows of K plus that of L, and T be the largest
    ``|total_K|`` or ``|total_L|`` of a face.  At cap w, ``|tk| + |tl| <= jk
    + jl + 2 <= w + 2``, so the turns add at most ``(w + 2) * T`` to a face.
    Over the eight corner slots ``|corner_base| <= 8 * B`` and ``|s| <= 8 *
    (w + 2) * T``, so the integer offset is at most ``B + (w + 2) * T`` and
    ``|w_f| <= 2 * (B + (w + 2) * T)``.  L is the least of 8, 16 and 32 bits
    above that (``_WindingField.lane_bits``); 32 always do.  Passing the cap,
    ``m * (m - 1) * 2 * (w + 1) * (w + 2) <= 10**6`` with m >= 2, forces m
    <= 500 and w <= 498.  A root path has at most F - 1 = m + 1 arcs, and a
    row entry, wrapped or not, is a signed sum over its arcs of one curve,
    so B <= 2 * (m + 1), T <= m + 1 and the bound is at most ``2 * (m + 1) *
    (w + 4) <= 503,004 < 2**31``.  ``brute_force_lunes`` asserts the fit.

    Every candidate meets every jump condition ``w(left) - w(right) =
    n(arc)``, so none is checked.  Validation guarantees four things:

    - every arc has exactly one left face and one right face: each arc is
      traversed at most once in each direction, and the 4*m corner slots of
      the m points are filled by the 4*m steps, so the 2*m arcs have 4*m
      sides, each taken at most once and so all taken;
    - the face walks are coherent: each step starts where the one before
      it ends;
    - the face adjacency graph (faces sharing an arc of K or of L) is
      connected;
    - V - E + F = m - 2*m + F = 2, counting the annulus's two boundary
      faces.

    Glue the faces along their arcs.  Each point's corners form one or more
    cycles, each a vertex of the glued surface S; S is closed, connected by
    the third condition and oriented by the walks, so chi(S) <= 2.  S has at
    least one vertex per point, so chi(S) >= V - E + F = 2.  Hence chi(S) =
    2, no point splits into two vertices (a touch), and the arrangement is
    S, a sphere, where H_1 = 0 and H_2 is spanned by the sum of all faces.
    A candidate's arc counts n, along K from x to y and along L back, are a
    closed 1-cycle, and the jump conditions say that the 2-chain w has
    boundary n.  So n bounds a w that is unique up to a constant.  The
    spanning-tree solve fixes that constant by w = 0 at the root and agrees
    with w on the tree arcs, so it is that w and meets every jump condition.
    The solve is linear in n, and ``base`` and the two full turns are
    closed cycles each, so the same holds for every ``base + tk * total_K +
    tl * total_L``.  The oracle ``brute_force_lunes`` asserts it
    candidate by candidate.
    """
    analysis = d._analysis
    points = len(d.points)
    count = points * (points - 1) * 2 * (max_wind + 1) * (max_wind + 2)
    if count > MAX_LUNE_CANDIDATES:
        raise LuneCandidateError(
            f"lune candidate cap exceeded: {points} points at winding cap {max_wind} give "
            f"{count} candidates, more than {MAX_LUNE_CANDIDATES}")
    field = analysis.field
    m, faces, scale = field.m, field.faces, analysis.scale
    total_area = sum(field.face_areas)
    area_k, area_l = field.areas["K"][0][m], field.areas["L"][0][m]
    bits = field.lane_bits(max_wind)
    rows_k, wrapped_k, rows_l, wrapped_l, ones = field.packed(bits)
    high = ones << (bits - 1)
    # the sign bit of every lane, and on the annulus boundary faces' lanes whole
    mask = high | sum(((1 << bits) - 1) << (bits * faces.index(name))
                      for name in d.boundary_faces)
    width, lane_format = bits * len(faces) // 8, {8: "B", 16: "H", 32: "I"}[bits]
    # native items run up from lane 0 on little-endian machines, down on big
    step = 1 if sys.byteorder == "little" else -1
    turns = [(k_path, l_path, tk, tl, tk * rows_k[m] + tl * rows_l[m] + high,
              tk * area_k + tl * area_l)
             for k_path, l_path, tk, tl in _lune_paths(max_wind)]

    def residue_classes(a: int, b: int) -> Dict[int, Tuple[list, list]]:
        """Boundaries by the residue of the corner base they need, offsets in."""
        classes: Dict[int, Tuple[list, list]] = {}
        for k_path, l_path, tk, tl, packed, area in turns:
            c, r = divmod(2 - tk * a - tl * b, 8)
            packed_turns, params = classes.setdefault(r, ([], []))
            packed_turns.append(packed + c * ones)
            params.append((k_path, l_path, area + c * total_area))
        return classes

    corners_k, corners_l = field.corner_prefix["K"], field.corner_prefix["L"]
    pos_k, pos_l = field.pos["K"], field.pos["L"]
    residue_tables: Dict[Tuple[int, int], Dict[int, Tuple[list, list]]] = {}
    lunes: List[Tuple[int, int, int, tuple, Lune]] = []
    seen = set()
    for x, y in itertools.permutations(d.points, 2):
        seg_k = lo_k, hi_k = pos_k[x], pos_k[y]
        seg_l = lo_l, hi_l = pos_l[y], pos_l[x]
        ckx, cky, clx, cly = corners_k[x], corners_k[y], corners_l[x], corners_l[y]
        a, b = ckx[m] + cky[m], clx[m] + cly[m]
        corner_base = (ckx[hi_k] + cky[hi_k] - ckx[lo_k] - cky[lo_k] + (a if lo_k > hi_k else 0)
                       + clx[hi_l] + cly[hi_l] - clx[lo_l] - cly[lo_l] + (b if lo_l > hi_l else 0))
        classes = residue_tables.get((a, b))
        if classes is None:
            classes = residue_tables[(a, b)] = residue_classes(a, b)
        q = corner_base >> 3
        reachable = classes.get(corner_base & 7)
        if reachable is None:
            continue
        packed_turns, params = reachable
        base = (rows_k[hi_k] - (rows_k if lo_k < hi_k else wrapped_k)[lo_k]
                + rows_l[hi_l] - (rows_l if lo_l < hi_l else wrapped_l)[lo_l] - q * ones)
        for packed, param in zip(packed_turns, params):
            w = base + packed
            if w & mask != high:
                continue
            k_path, l_path, turns_area = param
            lanes = memoryview((w - high).to_bytes(width, sys.byteorder)
                               ).cast(lane_format).tolist()[::step]
            support = tuple(zip(itertools.compress(faces, lanes), filter(None, lanes)))
            found = (x, y, support)
            # the winding function determines the boundary traversal,
            # so distinct parameters never collide
            if found in seen:
                raise AssertionError(f"duplicate lune candidate {found}")
            seen.add(found)
            # index one forces a nonzero corner, so w is never all zero
            area = field.range_area(seg_k, seg_l) - q * total_area + turns_area
            if area <= 0:
                raise DiagramError("nonzero nonnegative winding with zero area")
            lunes.append((x, y, area, support, Lune(source=x, target=y, k_path=k_path,
                                                    l_path=l_path, w=support,
                                                    area=Fraction(area, scale))))
    # by (source, target, area, w), the area compared as its int key
    lunes.sort(key=operator.itemgetter(0, 1, 2, 3))
    return tuple(entry[4] for entry in lunes)


# ---------------------------------------------------------------------------
# the filtered complex of a diagram
# ---------------------------------------------------------------------------


def _grade(d: TwoCurveDiagram, lunes: Sequence[Lune], areas: Sequence[int], step: int
           ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Degrees and action keys of the crossing points in one walk of the
    lune graph.  ``areas`` holds each lune's area and ``step`` the recap
    area ``SPHERE_ACTION_STEP`` as ints over one scale, and the actions
    come back as ints over the same scale.

    Each component starts at its smallest point, with action 0 and degree
    its label parity on the sphere (the quantum variable has degree two, so
    a degree is a colour and point 1 sits in degree 0) or 0 on the annulus.
    A newly reached point takes the other colour on the sphere, or on the
    annulus the degree that puts its lune's target one below the source (no
    recapping there), and the action that makes its lune drop by area +
    exponent * step.  A point reached before is only checked against the
    degree rule.  Each point takes its lunes by (area, source, target),
    which fixes the spanning forest and with it the actions.  Annulus
    components are shifted at the end so their smallest degree is 0.
    """
    sphere = d.surface == "sphere"
    adjacency: Dict[int, List[Tuple[int, int, int]]] = {p: [] for p in d.points}
    for edge in sorted(zip(areas, [l.source for l in lunes], [l.target for l in lunes])):
        adjacency[edge[1]].append(edge)
        adjacency[edge[2]].append(edge)
    degree: Dict[int, int] = {}
    action: Dict[int, int] = {}
    for start in d.points:
        if start in degree:
            continue
        degree[start] = (start - 1) % 2 if sphere else 0
        action[start] = 0
        component = [start]
        stack = [start]
        while stack:
            cur = stack.pop()
            for area, source, target in adjacency[cur]:
                forward = source == cur
                nbr = target if forward else source
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
                e = (degree[source] - 1 - degree[target]) // SPHERE_DEGREE_STEP \
                    if sphere else 0
                drop = area + e * step
                action[nbr] = action[cur] - drop if forward else action[cur] + drop
                component.append(nbr)
                stack.append(nbr)
        if not sphere:
            base = min(degree[p] for p in component)
            for p in component:
                degree[p] -= base
    return degree, action


def build_complex(d: TwoCurveDiagram, max_wind: int = 2) -> FilteredComplex:
    """Filtered complex of a diagram; raises InadmissibleDiagramError when no
    consistent degree/action/differential assignment exists.

    The actions, the lune areas and the recap area are ints over one scale,
    the lcm of the face areas' scale and the denominator of
    ``SPHERE_ACTION_STEP``.  One walk of the lune graph (``_grade``) fixes
    the degrees and, along its spanning forest, the actions.  The recapping
    exponent of a lune is then forced by the grading, ``(deg(source) - 1 -
    deg(target)) / 2`` on the sphere and 0 on the annulus; a proper
    two-colouring makes it an integer and a consistent annulus grading
    makes it 0.  Every lune -- including pairs that cancel mod 2 and lunes
    off the spanning forest -- must then satisfy "action drop = area +
    exponent * recap area"; a violation marks the diagram inadmissible
    rather than producing a skewed complex.  The complex is built from the
    actions as reduced ratios (``FilteredComplex.from_ratios``).  The
    Fraction route is kept as the oracle ``fraction_build_complex`` in
    :mod:`floerbar.oracles`.
    """
    lunes = enumerate_lunes(d, max_wind)
    sphere = d.surface == "sphere"
    spec = sphere_spec() if sphere else None
    scale = math.lcm(d._analysis.scale, SPHERE_ACTION_STEP.denominator)
    step = SPHERE_ACTION_STEP.numerator * (scale // SPHERE_ACTION_STEP.denominator)
    areas = [l.area.numerator * (scale // l.area.denominator) for l in lunes]
    degree, action = _grade(d, lunes, areas, step)

    entries: Dict[Tuple[int, int], int] = {}
    exponents: Dict[Tuple[int, int], int] = {}
    for lune, area in zip(lunes, areas):
        key = source, target = lune.source, lune.target
        e = (degree[source] - 1 - degree[target]) // SPHERE_DEGREE_STEP if sphere else 0
        if action[source] - action[target] != area + e * step:
            raise InadmissibleDiagramError(
                f"lune {source}->{target} (area {lune.area}) is"
                " incompatible with the action assignment: same-endpoint lunes"
                " must share their area in each recap class")
        entries[key] = entries.get(key, 0) ^ 1
        exponents[key] = e

    differential: Dict[str, List[Tuple[NovikovScalar, str]]] = {}
    for (src, tgt), parity in sorted(entries.items()):
        if not parity:
            continue
        coeff = NovikovScalar.monomial(spec, exponents[(src, tgt)])
        differential.setdefault(f"a{src}", []).append((coeff, f"a{tgt}"))

    gens = []
    for p in d.points:
        g = math.gcd(action[p], scale)
        gens.append((f"a{p}", degree[p], action[p] // g, scale // g))
    try:
        return FilteredComplex.from_ratios(spec, gens, differential)
    except ValueError as exc:
        raise InadmissibleDiagramError(f"diagram complex invalid: {exc}") from exc


def diagram_beta(d: TwoCurveDiagram, max_wind: int = 2) -> Fraction:
    """Boundary depth of the diagram's filtered complex."""
    return boundary_depth(barcode(build_complex(d, max_wind)))


def diagram_gamma(d: TwoCurveDiagram, max_wind: int = 2) -> Fraction:
    """Spectral norm of the diagram's complex: infinite-bar gap between the
    fundamental degree 1 and the point degree 0.  Sphere only."""
    if d.surface != "sphere":
        raise InadmissibleDiagramError(
            "the spectral norm needs the sphere theory (actions on the annulus"
            " are only defined per component)")
    return gamma(barcode(build_complex(d, max_wind)), 1, 0)


# ---------------------------------------------------------------------------
# constructors: meanders, the bundled examples
# ---------------------------------------------------------------------------


def _face_walks_from_meander(m: int, north: Mapping[int, int], south: Mapping[int, int]
                             ) -> Tuple[Tuple[int, ...], Dict[str, Tuple[Step, ...]], Dict[str, str]]:
    """Trace the faces of the arrangement (K = circle 1..m, L = alternating
    chords) from the rotation system of the planar embedding.

    Returns (order_l, face walks, face hemisphere tags).  Face names are
    F1, F2, ... in a canonical order.
    """
    order_k = tuple(range(1, m + 1))
    # L visits points alternating north/south chords, starting north from 1
    order_l = [1]
    use_north = True
    while True:
        cur = order_l[-1]
        nxt = north[cur] if use_north else south[cur]
        use_north = not use_north
        if nxt == 1:
            break
        order_l.append(nxt)
        if len(order_l) > m:
            raise DiagramError("chord matchings do not close into one curve")
    if len(order_l) != m:
        raise DiagramError("chord matchings do not form a single closed curve")
    order_l = tuple(order_l)

    posk = {p: i for i, p in enumerate(order_k)}
    posl = {p: i for i, p in enumerate(order_l)}
    arcs = {"K": [(order_k[i], order_k[(i + 1) % m]) for i in range(m)],
            "L": [(order_l[i], order_l[(i + 1) % m]) for i in range(m)]}
    # L alternates hemispheres by construction, starting with a north chord
    hemiline = ["N" if i % 2 == 0 else "S" for i in range(m)]
    for i in range(m):
        a, b = arcs["L"][i]
        expected = north if hemiline[i] == "N" else south
        if expected.get(a) != b:
            raise DiagramError("chord matchings do not alternate hemispheres")

    def dart(curve: str, arc: int, orient: int):
        return (curve, arc, orient)

    def head(dartv):
        curve, arc, orient = dartv
        a, b = arcs[curve][arc]
        return b if orient == 1 else a

    def reverse(dartv):
        curve, arc, orient = dartv
        return (curve, arc, -orient)

    # counterclockwise rotation of outgoing darts at each point, with the
    # north hemisphere drawn as the inside of the circle:
    # [L-dart heading south, K forward, L-dart heading north, K backward]
    rotation: Dict[int, List] = {}
    for p in order_k:
        k_fwd = dart("K", posk[p], 1)
        k_bwd = dart("K", (posk[p] - 1) % m, -1)
        l_fwd = dart("L", posl[p], 1)
        l_bwd = dart("L", (posl[p] - 1) % m, -1)
        fwd_hemi = hemiline[posl[p]]
        l_north = l_fwd if fwd_hemi == "N" else l_bwd
        l_south = l_bwd if fwd_hemi == "N" else l_fwd
        # orientation chosen so that the action drops along the differential:
        # the bigon lunes of the equator pair run from the even crossings to
        # the odd ones
        rotation[p] = [l_south, k_bwd, l_north, k_fwd]

    def next_dart(dartv):
        p = head(dartv)
        rot = rotation[p]
        rev = reverse(dartv)
        return rot[(rot.index(rev) + 1) % 4]

    all_darts = [("K", i, o) for i in range(m) for o in (1, -1)]
    all_darts += [("L", i, o) for i in range(m) for o in (1, -1)]
    unvisited = set(all_darts)
    walks = []
    while unvisited:
        start = min(unvisited)
        orbit = []
        cur = start
        while True:
            orbit.append(cur)
            unvisited.discard(cur)
            cur = next_dart(cur)
            if cur == start:
                break
        walks.append(orbit)

    faces: Dict[str, Tuple[Step, ...]] = {}
    hemis: Dict[str, str] = {}
    for idx, orbit in enumerate(sorted(walks), start=1):
        steps = []
        tags = set()
        for curve, arc, orient in orbit:
            a, b = arcs[curve][arc]
            frm, to = (a, b) if orient == 1 else (b, a)
            steps.append((curve, frm, to, orient))
            if curve == "L":
                tags.add(hemiline[arc])
        if len(tags) != 1:
            raise DiagramError("face touches chords of both hemispheres")
        name = f"F{idx}"
        faces[name] = tuple(steps)
        hemis[name] = tags.pop()
    return order_l, faces, hemis


def sphere_diagram_from_meander(north: Mapping[int, int], south: Mapping[int, int],
                                areas: Mapping[str, Fraction]) -> TwoCurveDiagram:
    """Sphere diagram of a closed meander: K the round equator through points
    1..m in order, L the closed curve of alternating non-crossing chords."""
    m = len(north) if isinstance(north, dict) else len(dict(north))
    north, south = dict(north), dict(south)
    order_l, faces, _hemis = _face_walks_from_meander(m, north, south)
    return TwoCurveDiagram(
        surface="sphere",
        order_k=tuple(range(1, m + 1)),
        order_l=order_l,
        faces=faces,
        areas=areas,
    )


def _matching_as_map(pairs: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for a, b in pairs:
        out[a] = b
        out[b] = a
    return out


_EQUATOR_NORTH = _matching_as_map([(1, 4), (2, 3)])
_EQUATOR_SOUTH = _matching_as_map([(1, 2), (3, 4)])


def _equator_face_names(faces: Mapping[str, Tuple[Step, ...]],
                        hemis: Mapping[str, str]) -> Dict[str, str]:
    """Map the traced face names of the equator pair to the conventional
    labels A1..A6 by their boundary signatures: A1/A3 the north bigons at
    corners {4,1}/{2,3}, A5/A6 the south bigons at {1,2}/{3,4}, A2/A4 the
    north/south squares."""
    names = {}
    for name, walk in faces.items():
        corners = frozenset(step[1] for step in walk)
        if len(walk) == 4:
            names[name] = "A2" if hemis[name] == "N" else "A4"
        elif corners == frozenset({4, 1}):
            names[name] = "A1"
        elif corners == frozenset({2, 3}):
            names[name] = "A3"
        elif corners == frozenset({1, 2}):
            names[name] = "A5"
        elif corners == frozenset({3, 4}):
            names[name] = "A6"
        else:
            raise DiagramError("unexpected face signature in the equator pair")
    return names


def equator_pair_diagram(areas: Mapping[str, Fraction]) -> TwoCurveDiagram:
    """The four-crossing equator pair with faces labelled A1..A6.

    ``areas`` maps those labels to positive rationals subject to the four
    half-area constraints (each curve bisects the sphere).
    """
    order_l, faces, hemis = _face_walks_from_meander(4, _EQUATOR_NORTH, _EQUATOR_SOUTH)
    rename = _equator_face_names(faces, hemis)
    faces = {rename[name]: walk for name, walk in faces.items()}
    return TwoCurveDiagram(
        surface="sphere",
        order_k=(1, 2, 3, 4),
        order_l=order_l,
        faces=faces,
        areas={name: Fraction(areas[name]) for name in faces},
    )


def symmetric_equator_areas(eps: Fraction) -> Dict[str, Fraction]:
    """The symmetric area choice: the four bigons get 1/4 - eps, the two
    squares 2*eps."""
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 4):
        raise ValueError("eps must lie strictly between 0 and 1/4")
    p = Fraction(1, 4) - eps
    return {"A1": p, "A3": p, "A5": p, "A6": p, "A2": 2 * eps, "A4": 2 * eps}


def equator_pair_annulus(areas: Mapping[str, Fraction]) -> TwoCurveDiagram:
    """The annulus variant: same arrangement, holes punched inside A1 and A5."""
    return replace(equator_pair_diagram(areas), surface="annulus",
                   boundary_faces=("A1", "A5"))


def annulus_example_areas(eps: Fraction) -> Dict[str, Fraction]:
    """Total area one: the two surviving bigons get 1/2 - 2*eps, the rest eps."""
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 4):
        raise ValueError("eps must lie strictly between 0 and 1/4")
    big = Fraction(1, 2) - 2 * eps
    return {"A3": big, "A6": big, "A1": eps, "A2": eps, "A4": eps, "A5": eps}


def two_circle_diagram(areas: Optional[Mapping[str, Fraction]] = None) -> TwoCurveDiagram:
    """Two great circles crossing twice; default areas all 1/4."""
    north = _matching_as_map([(1, 2)])
    south = _matching_as_map([(1, 2)])
    order_l, faces, _h = _face_walks_from_meander(2, north, south)
    if areas is None:
        areas = {name: Fraction(1, 4) for name in faces}
    return TwoCurveDiagram(
        surface="sphere",
        order_k=(1, 2),
        order_l=order_l,
        faces=faces,
        areas=areas,
    )


def relabel_diagram(d: TwoCurveDiagram, perm: Mapping[int, int]) -> TwoCurveDiagram:
    """Rename points by a bijection; faces and areas keep their names."""
    return TwoCurveDiagram(
        surface=d.surface,
        order_k=tuple(perm[p] for p in d.order_k),
        order_l=tuple(perm[p] for p in d.order_l),
        faces={name: tuple((c, perm[f], perm[t], o) for (c, f, t, o) in walk)
               for name, walk in d.faces.items()},
        areas=d.areas,
        boundary_faces=d.boundary_faces,
    )
