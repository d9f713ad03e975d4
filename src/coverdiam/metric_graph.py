"""Metric graphs treated as compact length spaces.

A metric graph is a finite multigraph (loops and parallel edges allowed)
whose edges carry positive lengths.  Its points are the vertices together
with all interior points of edges; distances are infima of route lengths.
Interior-point distances use the closed-form endpoint decomposition, and
the continuous diameter is maximised over a provably sufficient finite
candidate set, so no mesh appears outside of test oracles.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DisconnectedGraphError, InvariantError

__all__ = [
    "Edge",
    "EdgePoint",
    "RouteLeg",
    "PathRoute",
    "MetricGraph",
    "DiameterResult",
    "point_distance",
    "continuous_diameter",
    "shortest_route",
    "vertex_route",
    "points_coincide",
    "point_vertex",
    "validate_route",
    "concat_routes",
    "load_metric_graph",
    "metric_graph_from_json",
]

_EPS = 1e-12
_TOL = 1e-9


class Edge(NamedTuple):
    """An edge record; as a named tuple it equals the plain (id, u, v, length)."""

    id: str
    u: str
    v: str
    length: float


@dataclass(frozen=True)
class EdgePoint:
    """A point of the graph: an offset along an edge, measured from endpoint u.

    Offsets 0 and length(edge) identify with the endpoint vertices.
    """

    edge: str
    offset: float


@dataclass(frozen=True)
class RouteLeg:
    """A monotone traversal of one edge from offset ``start`` to ``end``."""

    edge: str
    start: float
    end: float

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    def reversed(self) -> "RouteLeg":
        return RouteLeg(self.edge, self.end, self.start)


@dataclass(frozen=True)
class PathRoute:
    """A rectifiable route: a chain of edge-portions with matching endpoints.

    ``anchor`` carries the position of a zero-length route; it is ignored
    when ``legs`` is nonempty.
    """

    legs: tuple[RouteLeg, ...]
    anchor: EdgePoint | None = None

    @staticmethod
    def empty(at: EdgePoint) -> "PathRoute":
        return PathRoute((), at)

    @staticmethod
    def from_legs(legs: Iterable[RouteLeg], anchor_if_empty: EdgePoint | None = None) -> "PathRoute":
        legs = tuple(l for l in legs if l.start != l.end)
        if legs:
            return PathRoute(legs, None)
        if anchor_if_empty is None:
            raise ValueError("an empty route needs an anchor point")
        return PathRoute((), anchor_if_empty)

    @property
    def is_empty(self) -> bool:
        return not self.legs

    @property
    def start(self) -> EdgePoint:
        if self.legs:
            return EdgePoint(self.legs[0].edge, self.legs[0].start)
        return self._anchor()

    @property
    def end(self) -> EdgePoint:
        if self.legs:
            return EdgePoint(self.legs[-1].edge, self.legs[-1].end)
        return self._anchor()

    @property
    def length(self) -> float:
        return float(sum(l.length for l in self.legs))

    def _anchor(self) -> EdgePoint:
        if self.anchor is None:
            raise InvariantError("an empty route has no anchor point")
        return self.anchor

    def reversed(self) -> "PathRoute":
        return PathRoute(tuple(l.reversed() for l in reversed(self.legs)), self.anchor)

    def split_at(self, arclengths: Sequence[float]) -> tuple["PathRoute", ...]:
        """Split into consecutive sub-routes at strictly increasing interior arclengths."""
        cuts = list(arclengths)
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("arclengths must be strictly increasing")
        eps = _EPS * self.length
        if cuts and (cuts[0] <= 0 or cuts[-1] >= self.length + eps):
            raise ValueError("arclengths must lie strictly inside the route")
        pieces: list[PathRoute] = []
        current: list[RouteLeg] = []
        acc = 0.0
        cut_iter = iter(cuts + [math.inf])
        next_cut = next(cut_iter)
        last_point = self.start
        for leg in self.legs:
            pos = 0.0  # consumed portion of this leg
            while next_cut <= acc + leg.length - eps:
                local = next_cut - acc
                frac = local / leg.length
                mid = leg.start + (leg.end - leg.start) * frac
                piece_leg = RouteLeg(leg.edge, leg.start + (leg.end - leg.start) * (pos / leg.length), mid)
                current.append(piece_leg)
                pieces.append(PathRoute.from_legs(current, anchor_if_empty=last_point))
                last_point = EdgePoint(leg.edge, mid)
                current = []
                pos = local
                next_cut = next(cut_iter)
            start_off = leg.start + (leg.end - leg.start) * (pos / leg.length)
            current.append(RouteLeg(leg.edge, start_off, leg.end))
            acc += leg.length
            if abs(next_cut - acc) <= eps:
                pieces.append(PathRoute.from_legs(current, anchor_if_empty=last_point))
                last_point = EdgePoint(leg.edge, leg.end)
                current = []
                next_cut = next(cut_iter)
        pieces.append(PathRoute.from_legs(current, anchor_if_empty=last_point))
        return tuple(pieces)


class MetricGraph:
    """Immutable weighted multigraph with positive edge lengths.

    The core is the sorted vertex names, the sorted edge ids and the arrays
    of `edge_arrays()`; `is_connected` comes from a union-find over them.
    The `Edge` records (`edges`) and the incidence lists are built at their
    first use; `edge`, `vertex_index` and `continuous_diameter` need neither.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Edge | tuple],
        *,
        require_connected: bool = True,
    ):
        vs = [str(v) for v in vertices]
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex ids")
        if not vs:
            raise ValueError("a metric graph needs at least one vertex")
        names = tuple(sorted(vs))
        index = {v: i for i, v in enumerate(names)}

        norm: list[Edge] = []
        for e in edges:
            if not isinstance(e, Edge):
                eid, u, v, length = e
                e = Edge(str(eid), str(u), str(v), float(length))
            if e.u not in index or e.v not in index:
                raise ValueError(f"edge {e.id!r} references an unknown vertex")
            if not (e.length > 0) or not math.isfinite(e.length):
                raise ValueError(f"edge {e.id!r} has nonpositive length {e.length}")
            norm.append(e)
        ids = [e.id for e in norm]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        records = tuple(sorted(norm, key=lambda e: e.id))
        self._core(names, tuple(e.id for e in records),
                   np.array([index[e.u] for e in records], dtype=np.int64),
                   np.array([index[e.v] for e in records], dtype=np.int64),
                   np.array([e.length for e in records], dtype=float), require_connected)
        self._edges = records

    @classmethod
    def _from_arrays(cls, vertices: tuple[str, ...], edge_ids: tuple[str, ...], u, v, length,
                     *, require_connected: bool = True) -> "MetricGraph":
        """The graph whose edge edge_ids[j] runs from vertices[u[j]] to
        vertices[v[j]] with length length[j], names and ids sorted and
        distinct; the constructor's checks, made on the arrays."""
        if not vertices:
            raise ValueError("a metric graph needs at least one vertex")
        for names, kind in ((vertices, "vertex"), (edge_ids, "edge")):
            if not all(map(str.__lt__, names, names[1:])):
                raise ValueError(f"{kind} ids must be sorted and distinct")
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        length = np.asarray(length, dtype=float)
        if not len(edge_ids) == len(u) == len(v) == len(length):
            raise ValueError("edge ids, ends and lengths differ in number")
        if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= len(vertices)):
            raise ValueError("an edge references an unknown vertex")
        if not (length > 0).all() or not np.isfinite(length).all():
            raise ValueError("edge lengths must be positive and finite")
        g = cls.__new__(cls)
        g._core(vertices, edge_ids, u, v, length, require_connected)
        return g

    def _core(self, vertices, edge_ids, u, v, length, require_connected) -> None:
        self.vertices: tuple[str, ...] = vertices
        self._edge_ids: tuple[str, ...] = edge_ids
        self._edge_arrays = (u, v, length)
        # built at first use: records, incidence lists, BFS lists, distances
        self._edges = self._incident = self._neighbours = self._apsp_cache = None
        self._components = _component_roots(len(vertices), u, v)
        self.is_connected = not self._components.any()
        if require_connected and not self.is_connected:
            raise DisconnectedGraphError("metric graph is not connected")

    # -- basic access -------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edge records, in id order; built at the first call."""
        if self._edges is None:
            u, v, length = (x.tolist() for x in self._edge_arrays)
            at = self.vertices.__getitem__
            self._edges = tuple(map(Edge, self._edge_ids, map(at, u), map(at, v), length))
        return self._edges

    def edge(self, eid: str) -> Edge:
        if (j := _position(self._edge_ids, eid)) < 0:
            raise ValueError(f"unknown edge id {eid!r}")
        if self._edges is None:  # one record, from the arrays
            u, v, length = self._edge_arrays
            return Edge(eid, self.vertices[u[j]], self.vertices[v[j]], float(length[j]))
        return self._edges[j]

    def vertex_index(self, v: str) -> int:
        if (i := _position(self.vertices, v)) < 0:
            raise KeyError(v)
        return i

    def incident(self, v: str) -> tuple[tuple[Edge, str], ...]:
        """Edge-ends at v in (edge id, side) order; a loop contributes both
        of its ends.  All lists are built at the first call."""
        if self._incident is None:
            ends: dict[str, list[tuple[Edge, str]]] = {w: [] for w in self.vertices}
            for e in self.edges:
                ends[e.u].append((e, "u"))
                ends[e.v].append((e, "v"))
            self._incident = {w: tuple(x) for w, x in ends.items()}
        return self._incident[v]

    def check_point(self, p: EdgePoint) -> Edge:
        e = self.edge(p.edge)
        if not (-_TOL * e.length <= p.offset <= e.length * (1.0 + _TOL)):
            raise ValueError(
                f"offset {p.offset} out of range [0, {e.length}] on edge {p.edge!r}"
            )
        return e

    def vertex_point(self, v: str) -> EdgePoint:
        """A canonical EdgePoint representation of a vertex."""
        ends = self.incident(v)
        if not ends:
            raise ValueError(f"vertex {v!r} has no incident edge")
        e, side = ends[0]
        return EdgePoint(e.id, 0.0 if side == "u" else e.length)

    # -- shortest paths -----------------------------------------------

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Endpoint vertex indices u, v and lengths of the edges, in edge order."""
        return self._edge_arrays

    def _hop_counts(self, indices) -> np.ndarray:
        """Fewest edges on a path from each vertex of `indices` to every
        vertex, as C-ordered uint16 rows; 65535 marks a vertex out of reach.

        A breadth-first search for 64 sources per machine word: bit s of a
        vertex's words marks source s.  Each level ORs the words of each
        vertex's neighbours (listed at the first call), keeps the bits not
        yet seen, and adds the bits still unseen to the edge counts.
        """
        n = len(self.vertices)
        if n > 65535:
            raise ValueError("hop counts need at most 65535 vertices")
        if self._neighbours is None:
            u, v, _ = self.edge_arrays()
            link = u != v  # a loop reaches nothing new
            pairs = np.concatenate((u[link] * n + v[link], v[link] * n + u[link]))
            ends, others = np.divmod(np.unique(pairs), n)
            # every list also holds row n, all zeros, so that none is empty
            first = np.searchsorted(ends, np.arange(n))
            self._neighbours = (np.insert(others, first, n), first + np.arange(n))
        neighbours, starts = self._neighbours
        src = np.asarray(indices, dtype=np.intp)
        bit = np.arange(len(src), dtype=np.uint64)
        # little-endian words, so that byte b of a word holds sources 8b..8b+7
        seen = np.zeros((n + 1, -(-len(src) // 64)), dtype="<u8")
        np.bitwise_or.at(seen, (src, bit // 64), np.uint64(1) << bit % 64)
        frontier, counts = seen.copy(), np.zeros((n, 64 * seen.shape[1]), dtype=np.uint16)
        while True:
            unseen = ~seen[:n]
            bits = np.unpackbits(unseen.view(np.uint8), axis=1, bitorder="little")
            counts += bits
            gathered = np.take(frontier, neighbours, axis=0)
            reached = np.bitwise_or.reduceat(gathered, starts, axis=0) & unseen
            if not reached.any():
                break
            seen[:n] |= reached
            frontier[:n] = reached
        counts[bits.view(bool)] = 65535
        return np.ascontiguousarray(counts[:, : len(src)].T)

    def _hop_distances(self, indices) -> np.ndarray:
        """Rows of `apsp()` from the vertices `indices` when all links (edges
        that are not loops) have one length h: the least edge count k reads
        as S_k = fl(S_{k-1} + h), summed one step at a time, the least float
        sum over walks as S_k grows with k; 65535, out of reach, reads inf."""
        u, v, length = self.edge_arrays()
        h = length[u != v].max(initial=0.0)
        sums = np.cumsum(np.concatenate(([0.0], np.full(len(self.vertices) - 1, h), [np.inf])))
        return np.take(sums, self._hop_counts(indices), mode="clip")

    def apsp(self) -> np.ndarray:
        """All-pairs distances as a cached float64 (N, N) array, rows and
        columns in `vertices` order.  A float Dijkstra returns the least
        left-to-right float sum over all walks (rounding is monotone and
        fl(x + w) >= x): the one fixed point of relaxing every arc, which
        any relaxation reaches bit for bit.  Graphs whose links have one
        length read hop counts; others relax all arcs at once, both ways
        along each link, in blocks of sources whose D[s, p] + w over the
        arcs p -> v hold at most _PAIR_CHUNK numbers, or one source's.  A
        round costs sources x arcs; the rounds number one more than the
        most edges on a shortest path."""
        if self._apsp_cache is None:
            u, v, length = self.edge_arrays()
            n, link = len(self.vertices), u != v
            own, lengths = np.arange(n), length[link]
            if (lengths == lengths[:1]).all():
                values = self._hop_distances(own)
            else:
                src, dst = np.concatenate((u[link], v[link])), np.concatenate((v[link], u[link]))
                w = np.concatenate((lengths, lengths))[:, None]
                values, step = np.empty((n, n)), max(1, _PAIR_CHUNK // len(src))
                for lo in range(0, n, step):
                    # a column per source and a row per vertex; heads index it flat
                    block = np.where(own[:, None] == own[lo : lo + step], 0.0, np.inf)
                    heads = (dst[:, None] * block.shape[1] + np.arange(block.shape[1])).ravel()
                    while True:
                        before = block.copy()
                        np.minimum.at(block.reshape(-1), heads, (before.take(src, axis=0) + w).ravel())
                        if np.array_equal(block, before):
                            break
                    values[lo : lo + step] = block.T
            self._apsp_cache = values
        return self._apsp_cache

    def single_source(self, source: str) -> tuple[dict[str, float], dict[str, tuple[str, str]]]:
        """Distances and a shortest-path tree from one vertex, from its row of
        `apsp()`: dist holds the reachable vertices; parent[v] = (edge id, p)
        is the first tight end (dist[p] + length == dist[v]) to a new vertex
        in a breadth-first search over ends in edge-id order.  A Dijkstra on
        these floats settles each vertex through a tight end, so the tree
        spans dist, acyclic even where a sub-ulp edge is tight both ways."""
        if (i := _position(self.vertices, source)) < 0:
            raise ValueError(f"unknown vertex {source!r}")
        row = self.apsp()[i].tolist()
        dist = {v: d for v, d in zip(self.vertices, row) if d < math.inf}
        parent, queue = {}, [source]
        for p in queue:
            for e, side in self.incident(p):
                w = e.v if side == "u" else e.u
                if w not in parent and w != source and dist[p] + e.length == dist[w]:
                    parent[w] = (e.id, p)
                    queue.append(w)
        return dist, parent


def _position(names: tuple[str, ...], name) -> int:
    """The index of `name` in the sorted, distinct `names`, or -1."""
    i = bisect.bisect_left(names, name) if isinstance(name, str) else len(names)
    return i if i < len(names) and names[i] == name else -1


def _sorted(names: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """`names` in sorted order, and that order as positions in `names`."""
    order = sorted(range(len(names)), key=names.__getitem__)
    return tuple(map(names.__getitem__, order)), np.array(order, dtype=np.intp)


def _component_roots(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least vertex index of each vertex's component, by a union-find on
    integers whose roots are their trees' least members: each round hooks
    the larger root of each edge's ends onto the smaller, then jumps
    pointers until each vertex points at a root."""
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            return root
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(up := root[root], root):
            root = up


# -- point utilities ---------------------------------------------------


def endpoint_side(offset: float, length: float) -> str | None:
    """"u" or "v" for an offset at that end of an edge of the given length,
    None inside it; the slack is ``_TOL`` of the length."""
    if abs(offset) <= _TOL * length:
        return "u"
    if abs(offset - length) <= _TOL * length:
        return "v"
    return None


def point_vertex(g: MetricGraph, p: EdgePoint) -> str | None:
    """The vertex a point sits on, or None for interior points.

    The slack is ``_TOL`` of the length of the point's edge.
    """
    e = g.check_point(p)
    side = endpoint_side(p.offset, e.length)
    return None if side is None else getattr(e, side)


def points_coincide(g: MetricGraph, p: EdgePoint, q: EdgePoint) -> bool:
    """Whether two edge points denote the same point of the length space,
    up to ``_TOL`` times the length of their edges."""
    if p.edge == q.edge and abs(p.offset - q.offset) <= _TOL * g.edge(p.edge).length:
        return True
    vp, vq = point_vertex(g, p), point_vertex(g, q)
    return vp is not None and vp == vq


def _shortest_way(g: MetricGraph, x: EdgePoint, y: EdgePoint) -> tuple[float, int]:
    """(distance, kind) of the shortest way between two points.

    Kind -1 runs along their shared edge; kind 2i + j leaves x by end i of
    its edge and reaches y by end j of its edge (0 for u, 1 for v).  The
    first strict minimum in that order wins.
    """
    ex = g.check_point(x)
    ey = g.check_point(y)
    # on distinct edges with every exit at inf, kind 0 stays, and its
    # vertex route raises DisconnectedGraphError
    best, kind = (abs(x.offset - y.offset), -1) if x.edge == y.edge else (math.inf, 0)
    dm = g.apsp()
    for i, (vx, cx) in enumerate(((ex.u, x.offset), (ex.v, ex.length - x.offset))):
        for j, (vy, cy) in enumerate(((ey.u, y.offset), (ey.v, ey.length - y.offset))):
            cand = cx + float(dm[g.vertex_index(vx), g.vertex_index(vy)]) + cy
            if cand < best:
                best, kind = cand, 2 * i + j
    return best, kind


def point_distance(g: MetricGraph, x: EdgePoint, y: EdgePoint) -> float:
    """Exact length-space distance between two points of the graph."""
    return _shortest_way(g, x, y)[0]


# -- routes ------------------------------------------------------------


def validate_route(g: MetricGraph, route: PathRoute) -> None:
    """Check that a route is a well-chained sequence of edge portions of g."""
    if route.is_empty:
        g.check_point(route.start)
        return
    prev_end: EdgePoint | None = None
    for leg in route.legs:
        g.check_point(EdgePoint(leg.edge, leg.start))
        g.check_point(EdgePoint(leg.edge, leg.end))
        here = EdgePoint(leg.edge, leg.start)
        if prev_end is not None and not points_coincide(g, prev_end, here):
            raise ValueError(f"route legs do not chain at {prev_end} -> {here}")
        prev_end = EdgePoint(leg.edge, leg.end)


def concat_routes(g: MetricGraph, *routes: PathRoute) -> PathRoute:
    """Concatenate routes whose consecutive endpoints coincide."""
    routes = tuple(r for r in routes)
    if not routes:
        raise ValueError("nothing to concatenate")
    legs: list[RouteLeg] = []
    for prev, nxt in zip(routes, routes[1:]):
        if not points_coincide(g, prev.end, nxt.start):
            raise ValueError(f"routes do not chain: {prev.end} -> {nxt.start}")
    for r in routes:
        legs.extend(r.legs)
    return PathRoute.from_legs(legs, anchor_if_empty=routes[0].start)


def tree_legs(g: MetricGraph, parent: dict[str, tuple[str, str]], root: str, v: str) -> list[RouteLeg]:
    """Full-edge legs from root to v along the parent tree of `single_source(root)`.

    A parent edge is never a loop (the tree adds only new vertices), so
    the edge runs forward exactly when its u end is the parent vertex.
    """
    legs: list[RouteLeg] = []
    while v != root:
        eid, prev = parent[v]
        e = g.edge(eid)
        legs.append(RouteLeg(eid, 0.0, e.length) if e.u == prev else RouteLeg(eid, e.length, 0.0))
        v = prev
    legs.reverse()
    return legs


def vertex_route(g: MetricGraph, a: str, b: str) -> PathRoute:
    """A shortest route between two vertices, as explicit full-edge legs."""
    dist, parent = g.single_source(a)
    if b not in dist:
        raise DisconnectedGraphError(f"no route from {a!r} to {b!r}")
    legs = tree_legs(g, parent, a, b)
    anchor = g.vertex_point(a) if not legs else None
    return PathRoute.from_legs(legs, anchor_if_empty=anchor)


def shortest_route(g: MetricGraph, x: EdgePoint, y: EdgePoint) -> PathRoute:
    """An explicit shortest route between two points; length equals point_distance."""
    _, kind = _shortest_way(g, x, y)
    if kind == -1:
        return PathRoute.from_legs([RouteLeg(x.edge, x.offset, y.offset)], anchor_if_empty=x)
    ex, ey = g.edge(x.edge), g.edge(y.edge)
    i, j = divmod(kind, 2)
    legs = [RouteLeg(x.edge, x.offset, (0.0, ex.length)[i])]
    legs.extend(vertex_route(g, (ex.u, ex.v)[i], (ey.u, ey.v)[j]).legs)
    legs.append(RouteLeg(y.edge, (0.0, ey.length)[j], y.offset))
    return PathRoute.from_legs(legs, anchor_if_empty=x)


# -- continuous diameter ------------------------------------------------


@dataclass(frozen=True)
class DiameterResult:
    value: float
    witness: tuple[EdgePoint, EdgePoint] | None


# Crossings of two of the lines p*s + q*t = r (r in _cross_candidates) hold
# every breakpoint of the min of the four corner-route pieces: the pieces'
# equality lines, then the rectangle sides.  _CROSS_A and _CROSS_B list
# the 33 non-parallel line pairs.
_LINE_P = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
_LINE_Q = np.array([1.0, 1.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 1.0])
_CROSS_A, _CROSS_B = np.array([
    (a, b)
    for a in range(len(_LINE_P))
    for b in range(a + 1, len(_LINE_P))
    if _LINE_P[a] * _LINE_Q[b] != _LINE_P[b] * _LINE_Q[a]
]).T


def _cross_candidates(A, B, C, E, Li, Lj):
    """(s, t, value) of every crossing candidate of the edge pairs, each of
    shape (33, pairs); crossings outside the offset rectangle get -inf."""
    zeros = np.zeros_like(Li)
    r = np.stack([
        (B + Lj - A) / 2.0,
        (E + Lj - C) / 2.0,
        (C + Li - A) / 2.0,
        (E + Li - B) / 2.0,
        (E - A + Li + Lj) / 2.0,
        (C - B + Li - Lj) / 2.0,
        zeros,
        Li,
        zeros,
        Lj,
    ])
    r1, r2 = r[_CROSS_A], r[_CROSS_B]
    p1, q1 = _LINE_P[_CROSS_A, None], _LINE_Q[_CROSS_A, None]
    p2, q2 = _LINE_P[_CROSS_B, None], _LINE_Q[_CROSS_B, None]
    det = p1 * q2 - p2 * q1
    s = (r1 * q2 - r2 * q1) / det
    t = (p1 * r2 - p2 * r1) / det
    inside = (s >= -_TOL) & (s <= Li + _TOL) & (t >= -_TOL) & (t <= Lj + _TOL)
    s = np.clip(s, 0.0, Li)
    t = np.clip(t, 0.0, Lj)
    f1 = s + t + A
    f2 = s - t + B + Lj
    f3 = -s + t + C + Li
    f4 = -s - t + E + Li + Lj
    val = np.minimum(np.minimum(f1, f2), np.minimum(f3, f4))
    return s, t, np.where(inside, val, -np.inf)


def _pair_maxima(A, B, C, E, Li, Lj):
    """Exact maximum distance over each edge pair's offset rectangle.

    At offset s on edge i, the distances to u_j and v_j are the tents
    a(s) = min(s + A, Li - s + C) and b(s) = min(s + B, Li - s + E).  They
    differ by at most d(u_j, v_j) <= Lj, so the best t gives (a + b + Lj)/2.
    a + b is concave and bends only at the two apexes, so its maximum is
    at s = 0, s = Li or an apex.
    """
    ab = None
    for s in (0.0, Li, (C + Li - A) / 2.0, (E + Li - B) / 2.0):
        here = np.minimum(s + A, Li - s + C) + np.minimum(s + B, Li - s + E)
        ab = here if ab is None else np.maximum(ab, here)
    return (ab + Lj) / 2.0


_PAIR_CHUNK = 200_000
# candidates within this share of the best value are ties for the witness
_NEAR_BEST = 1e-12
# a bound rounded in floats may sit a few ulps under the candidates it
# bounds, so pruning by bounds other than the corner bound leaves this slack
_BOUND_SLACK = 4e-12
# on fewer than _SEED_FROM live edges a separate seed block costs more
# than it prunes, and so does the far-corner filter: run on every graph,
# it made the 800 sweep graphs' diameters (at most 72 edges, APSP given)
# about 7% slower on a 2-core machine
_SEED_ROWS = 8
_SEED_FROM = 100


def continuous_diameter(g: MetricGraph) -> DiameterResult:
    """Maximum distance over all point pairs, edge interiors included.

    Two points on one edge see a cycle of length L + d_uv, and d_uv <= L,
    so the edge's maximum is (L + d_uv)/2, attained at offsets
    (0, (L + d_uv)/2).  For offsets s, t on distinct edges i < j the
    distance is the min of four linear pieces through the corner distances
    A = d(u_i, u_j), B = d(u_i, v_j), C = d(v_i, u_j), E = d(v_i, v_j).
    The best value `top` starts at the largest vertex or same-edge
    distance, both attained, and the pairs are then cut down in four
    stages:

    1. Edge bound.  min(A + E, B + C) <= (A + B + C + E)/2 <= H_i, where
       H_i = max_w d(u_i, w) + d(v_i, w); no pair holding an edge whose
       (H_i + Li + max L)/2 is below `top` survives.  Edges are taken in
       descending order of that bound, so the live edges are a prefix of
       that order, and the prefix shrinks as `top` rises.
    2. Corner bound.  The min of the four pieces is at most the mean of
       either opposite two, so a pair of live edges whose
       (min(A + E, B + C) + Li + Lj)/2 is below `top` is skipped.  From
       _SEED_FROM live edges on, most such pairs are never formed.  A
       corner is within Li + Lj of its opposite one (E <= Li + A + Lj), so
       the corner bound is at most any corner plus Li + Lj, and a pair
       with a corner below top - Li - Lj fails it.  Each block's row edge
       r marks the vertices at least top - (_NEAR_BEST + _BOUND_SLACK)*top
       - Lr - max L from both of its ends, and is paired only with edges
       whose two ends are marked.  Max L stands in for Lj, which only
       lowers the floor.  The floor's _BOUND_SLACK covers rounding: the
       APSP matrix need not be symmetric to the last bit, so the filter
       may read a corner from the other side than the corner bound does.
       A distance summed over k edges is off by at most about k ulps of
       `top`, and the bound and the floor by a few more, which stays
       under 4e-12 of `top` on shortest paths of up to about 10,000 edges.
    3. Exact pair maximum.  Over t the maximum is (a(s) + b(s) + Lj)/2 for
       the tents a, b of _pair_maxima, so four evaluations in s give it,
       and `top` is raised to each block's largest.  From _SEED_FROM live
       edges on, the first block pairs only the _SEED_ROWS edges of the
       largest bounds with the others, which seeds `top` with an attained
       value near the diameter before most pairs are formed; the later
       blocks prune against it.  Each edge keeps the largest maximum of
       the pairs it is the lower edge of.
    4. Crossing candidates.  The maximum over a pair's rectangle lies at a
       corner or at a crossing of two of the pieces' defining lines.
       Candidates within _NEAR_BEST of `top` are ties, broken by the least
       (edge id, offset); the least one's first edge is the lower edge of
       its pair.  So the edges whose kept maximum is within _BOUND_SLACK
       of `top` are taken in id order, and each one's row of pairs is
       formed again, cut by the corner bound and evaluated in chunks of
       _PAIR_CHUNK numbers, stopping past the least edge with a tie, or
       with a same-edge tie.

    A block holds at most _PAIR_CHUNK pairs, or one row of them, and its
    rows over all vertices, in stage 1 and in the filter, at most
    _PAIR_CHUNK numbers, or one row.  The state kept between the stages is
    one float per edge, and stage 4 holds one row of pairs and one chunk.
    """
    if not g.is_connected:
        raise DisconnectedGraphError("continuous diameter needs a connected graph")
    ids = g._edge_ids
    m = len(ids)
    if m == 0:
        return DiameterResult(0.0, None)

    dm = g.apsp()
    u, v, Lall = g.edge_arrays()

    half = (Lall + dm[u, v]) / 2.0
    top = max(float(dm.max()), float(half.max()))

    def corners(i, j):
        return dm[u[i], u[j]], dm[u[i], v[j]], dm[v[i], u[j]], dm[v[i], v[j]], Lall[i], Lall[j]

    # stage 1: the edge bound, over blocks of APSP rows; edges in descending
    # order of it.  The blocks reuse two buffers: fresh ones each block would
    # be mapped and faulted anew whenever the allocator's thresholds are low
    H = np.empty(m)
    rows = min(m, max(1, _PAIR_CHUNK // len(dm)))
    du, dv = np.empty((rows, len(dm))), np.empty((rows, len(dm)))
    for lo in range(0, m, rows):
        k = min(rows, m - lo)
        np.take(dm, u[lo : lo + k], axis=0, out=du[:k], mode="clip")
        np.take(dm, v[lo : lo + k], axis=0, out=dv[:k], mode="clip")
        np.add(du[:k], dv[:k], out=du[:k]).max(axis=1, out=H[lo : lo + k])
    del du, dv
    Lmax = Lall.max()
    bound = (H + Lall + Lmax) / 2.0
    order = np.argsort(-bound, kind="stable")
    bound = bound[order]

    # stages 2 and 3 over the pairs a < b of the live prefix, in blocks of
    # rows a; each pair as (i, j) with i < j, its maximum folded into best[i]
    best = np.full(m, -np.inf)
    lo = 0
    while True:
        n_live = int(np.count_nonzero(bound >= top - _BOUND_SLACK * top))
        if lo >= n_live - 1:
            break
        # the filter's masks span a row per vertex
        rows = max(1, _PAIR_CHUNK // max(n_live, len(dm)))
        if lo == 0 and n_live >= _SEED_FROM:
            rows = min(rows, _SEED_ROWS)
        hi = min(lo + rows, n_live)
        # row positions lo..hi-1 against the later positions lo..n_live-1
        pairs = np.arange(lo, hi)[:, None] < np.arange(lo, n_live)
        if n_live >= _SEED_FROM:
            # far corner filter: a row edge's partner needs both ends far
            # from both of its ends
            r, later = order[lo:hi], order[lo:n_live]
            floor = (top - (_NEAR_BEST + _BOUND_SLACK) * top - Lall[r] - Lmax)[:, None]
            far = (dm[u[r]] >= floor) & (dm[v[r]] >= floor)
            pairs &= far[:, u[later]] & far[:, v[later]]
        a, b = np.nonzero(pairs)
        a, b = order[lo + a], order[lo + b]
        lo = hi
        ii, jj = np.minimum(a, b), np.maximum(a, b)
        A, B, C, E, Li, Lj = corners(ii, jj)
        near = (np.minimum(A + E, B + C) + Li + Lj) / 2.0 >= top - _NEAR_BEST * top
        if not near.any():
            continue
        pmax = _pair_maxima(A[near], B[near], C[near], E[near], Li[near], Lj[near])
        top = max(top, float(pmax.max()))
        np.maximum.at(best, ii[near], pmax)

    # stage 4: near-best points as (edge, offset, edge, offset), each pair
    # in (edge id, offset) order.  Edges are sorted by id, so the least
    # point pair, the witness, has the least first edge of them all.
    thresh = top - _NEAR_BEST * top
    same = np.nonzero(half >= thresh)[0]
    ends = [(same, np.zeros(len(same)), same, half[same])]
    first = same[0] if len(same) else m
    step = max(1, _PAIR_CHUNK // len(_CROSS_A))
    for r in np.nonzero(best >= top - _BOUND_SLACK * top)[0]:
        if r > first:
            break
        # row r's partners j > r that pass the corner bound
        du, dv, j = dm[u[r]], dm[v[r]], np.arange(r + 1, m)
        cb = (np.minimum(du[u[j]] + dv[v[j]], du[v[j]] + dv[u[j]]) + Lall[r] + Lall[j]) / 2.0
        j = j[cb >= thresh]
        for lo in range(0, len(j), step):
            jc = j[lo : lo + step]
            i = np.full(len(jc), r)
            s, t, val = _cross_candidates(*corners(i, jc))
            hits = np.nonzero(val >= thresh)
            if len(hits[1]):
                ends.append((i[hits[1]], s[hits], jc[hits[1]], t[hits]))
                first = r
    e1, o1, e2, o2 = (np.concatenate(x) for x in zip(*ends))
    if not len(e1):
        raise InvariantError(f"no candidate reaches the pair maximum {top!r}")
    least = np.ones(len(e1), dtype=bool)
    for key in (e1, o1, e2, o2):
        least &= key == key[least].min()
    w = int(np.argmax(least))
    witness = (
        EdgePoint(ids[e1[w]], float(o1[w]) + 0.0),
        EdgePoint(ids[e2[w]], float(o2[w]) + 0.0),
    )
    value = point_distance(g, witness[0], witness[1])
    if abs(value - top) > 1e-9 * top:
        raise InvariantError(
            f"witness distance {value!r} differs from the candidate maximum {top!r}"
        )
    return DiameterResult(value, witness)


# -- file format ---------------------------------------------------------


def metric_graph_from_json(obj: dict) -> MetricGraph:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ValueError("graph file must contain 'vertices' and 'edges'")
    edges = []
    for rec in obj["edges"]:
        try:
            edges.append(Edge(str(rec["id"]), str(rec["u"]), str(rec["v"]), float(rec["length"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed edge record {rec!r}: {exc}") from None
    return MetricGraph(obj["vertices"], edges)


def load_metric_graph(path) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return metric_graph_from_json(json.load(fh))
