"""Simplicial 2-complexes: fundamental groups, nerves, and short loop generators.

Complexes are stored by their vertex/edge/triangle sets (downward closure
enforced).  Fundamental groups come from the spanning-tree presentation:
one generator per non-tree edge, one relator per triangle boundary.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Hashable, Iterable, Sequence

from ._search import bfs
from .errors import DisconnectedGraphError
from .groups import CayleyGraph, Presentation, TrivialityResult, free_reduce, is_trivial
from .metric_graph import MetricGraph, PathRoute, RouteLeg, tree_legs, validate_route

__all__ = [
    "SimplicialComplex2",
    "SpanningTreeData",
    "LoopWitness",
    "pi1_presentation",
    "spanning_tree_presentation",
    "is_simply_connected",
    "flag_triangles",
    "nerve2",
    "short_loop_generators",
    "complex_from_json",
    "complex_to_json",
    "load_complex",
]


class SimplicialComplex2:
    """Vertices, edges (2-sets) and triangles (3-sets), downward closed."""

    def __init__(
        self,
        vertices: Iterable[Hashable],
        triangles: Iterable[Sequence[Hashable]] = (),
        edges: Iterable[Sequence[Hashable]] = (),
        edge_lengths: dict | None = None,
    ):
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        tris = set()
        for t in triangles:
            t = tuple(sorted(t))
            if len(set(t)) != 3:
                raise ValueError(f"triangle {t!r} must have three distinct vertices")
            if not set(t) <= vset:
                raise ValueError(f"triangle {t!r} references unknown vertices")
            tris.add(t)
        self.triangles = tuple(sorted(tris))
        edge_set = set()
        for t in self.triangles:
            edge_set.update({(t[0], t[1]), (t[0], t[2]), (t[1], t[2])})
        for e in edges:
            e = tuple(sorted(e))
            if len(set(e)) != 2:
                raise ValueError(f"edge {e!r} must have two distinct vertices")
            if not set(e) <= vset:
                raise ValueError(f"edge {e!r} references unknown vertices")
            edge_set.add(e)
        self.edges = tuple(sorted(edge_set))
        if edge_lengths is not None:
            normalized = {tuple(sorted(k)): float(v) for k, v in edge_lengths.items()}
            if set(normalized) - set(self.edges):
                raise ValueError("edge_lengths mentions unknown edges")
            if any(v <= 0 for v in normalized.values()):
                raise ValueError("edge lengths must be positive")
            self.edge_lengths = normalized
        else:
            self.edge_lengths = None

        adj: dict[Hashable, set] = {v: set() for v in self.vertices}
        for u, w in self.edges:
            adj[u].add(w)
            adj[w].add(u)
        self._adj = {v: tuple(sorted(s)) for v, s in adj.items()}

    def neighbors(self, v) -> tuple:
        return self._adj[v]

    @property
    def f_vector(self) -> tuple[int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.triangles))

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        return len(bfs(self.vertices[0], self.neighbors)) == len(self.vertices)


def complex_from_json(obj: dict) -> SimplicialComplex2:
    try:
        vertices = obj["vertices"]
        triangles = obj.get("triangles", [])
        extra = obj.get("extra_edges", [])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex file: {exc}") from None
    return SimplicialComplex2(vertices, triangles, extra)


def complex_to_json(k: SimplicialComplex2) -> dict:
    tri_edges = set()
    for t in k.triangles:
        tri_edges.update({(t[0], t[1]), (t[0], t[2]), (t[1], t[2])})
    extra = [list(e) for e in k.edges if e not in tri_edges]
    return {
        "vertices": list(k.vertices),
        "triangles": [list(t) for t in k.triangles],
        "extra_edges": extra,
    }


def load_complex(path) -> SimplicialComplex2:
    with open(path, "r", encoding="utf-8") as fh:
        return complex_from_json(json.load(fh))


# -------------------------------------------------------- fundamental group


@dataclass(frozen=True)
class SpanningTreeData:
    """Spanning-tree presentation of the fundamental group, with edge bookkeeping."""

    presentation: Presentation
    basepoint: Hashable
    tree_edges: frozenset
    generator_edges: tuple  # generator k+1 <-> generator_edges[k], oriented (min, max)


def spanning_tree_presentation(k: SimplicialComplex2, basepoint=None) -> SpanningTreeData:
    if not k.is_connected():
        raise DisconnectedGraphError("complex is not connected")
    if basepoint is None:
        basepoint = k.vertices[0]
    if basepoint not in set(k.vertices):
        raise ValueError(f"unknown basepoint {basepoint!r}")

    tree: set[tuple] = set()
    seen = {basepoint}
    queue = deque([basepoint])
    while queue:
        v = queue.popleft()
        for w in k.neighbors(v):
            if w not in seen:
                seen.add(w)
                tree.add(tuple(sorted((v, w))))
                queue.append(w)

    gen_edges = tuple(e for e in k.edges if e not in tree)
    gen_index = {e: i + 1 for i, e in enumerate(gen_edges)}

    def letter(a, b) -> tuple[int, ...]:
        e = tuple(sorted((a, b)))
        if e in tree:
            return ()
        g = gen_index[e]
        return (g,) if (a, b) == e else (-g,)

    relators = []
    for a, b, c in k.triangles:
        relators.append(free_reduce(letter(a, b) + letter(b, c) + letter(c, a)))
    presentation = Presentation(len(gen_edges), relators)
    return SpanningTreeData(presentation, basepoint, frozenset(tree), gen_edges)


def pi1_presentation(k: SimplicialComplex2, basepoint=None) -> Presentation:
    """Spanning-tree presentation: one generator per non-tree edge, one relator per triangle."""
    return spanning_tree_presentation(k, basepoint).presentation


def is_simply_connected(k: SimplicialComplex2, budget: int) -> TrivialityResult:
    """Triviality of the fundamental group, certified by coset enumeration."""
    return is_trivial(pi1_presentation(k), budget)


# --------------------------------------------------------------- flag filling


def flag_triangles(c: CayleyGraph) -> SimplicialComplex2:
    """The complex on the Cayley graph with every 3-clique filled."""
    edges = []
    neighbor_sets = [set(ns) for ns in c.neighbors]
    triangles = []
    for u in range(c.element_count):
        for v in c.neighbors[u]:
            if v <= u:
                continue
            edges.append((u, v))
            for w in c.neighbors[v]:
                if w > v and w in neighbor_sets[u]:
                    triangles.append((u, v, w))
    return SimplicialComplex2(range(c.element_count), triangles, edges)


# --------------------------------------------------------------------- nerve


def nerve2(
    centers: Sequence,
    radius: float,
    samples: Sequence,
    dist: Callable[[object, object], float],
) -> SimplicialComplex2:
    """2-skeleton of the nerve of balls around the centers, tested by sampling.

    A face enters iff some sample lies strictly within `radius` of all of
    its centers; denser samples only ever add faces.
    """
    if not samples:
        raise ValueError("samples must be nonempty")
    n = len(centers)
    masks = []
    for i in range(n):
        m = 0
        for s_idx, x in enumerate(samples):
            if dist(x, centers[i]) < radius:
                m |= 1 << s_idx
        masks.append(m)
    edges = [
        (i, j) for i, j in combinations(range(n), 2) if masks[i] & masks[j]
    ]
    triangles = [
        (i, j, k)
        for i, j, k in combinations(range(n), 3)
        if masks[i] & masks[j] & masks[k]
    ]
    return SimplicialComplex2(range(n), triangles, edges)


# ---------------------------------------------------------- short generators


@dataclass(frozen=True)
class LoopWitness:
    """A closed route at the basepoint, one per edge off a shortest-path tree."""

    route: PathRoute
    basepoint: str
    length: float


def short_loop_generators(g: MetricGraph, basepoint: str) -> tuple[LoopWitness, ...]:
    """Spanning-tree loop generators of the fundamental group, all short.

    A shortest-path tree is grown from the basepoint on g itself, and each
    edge e = (u, v) off the tree yields the loop (tree path to u) * e *
    (tree path v back), in edge-id order.  As |d(u) - d(v)| <= L, the two
    tree paths meet at the point of e at distance (d(u) + L + d(v)) / 2,
    which is at most the basepoint's eccentricity, so every loop is at most
    2 * ecc(basepoint) <= 2 * diameter long.  Raises DisconnectedGraphError
    when some vertex is out of the basepoint's reach.
    """
    if not g.has_vertex(basepoint):
        raise ValueError(f"unknown basepoint {basepoint!r}")
    dist, parent = g.single_source(basepoint)
    if len(dist) < len(g.vertices):
        raise DisconnectedGraphError(
            f"{len(g.vertices) - len(dist)} vertices are unreachable from {basepoint!r}"
        )
    tree_edges = {eid for eid, _ in parent.values()}

    witnesses = []
    for e in g.edges:
        if e.id in tree_edges:
            continue
        legs = tree_legs(g, parent, basepoint, e.u)
        legs.append(RouteLeg(e.id, 0.0, e.length))
        back = tree_legs(g, parent, basepoint, e.v)
        legs.extend(l.reversed() for l in reversed(back))
        route = PathRoute.from_legs(legs)
        validate_route(g, route)
        witnesses.append(
            LoopWitness(route, basepoint, dist[e.u] + e.length + dist[e.v])
        )
    return tuple(witnesses)
