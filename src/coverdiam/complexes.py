"""Simplicial 2-complexes: fundamental groups, flag fillings and nerves.

Complexes are stored by their vertex/edge/triangle sets (downward closure
enforced).  Fundamental groups come from the spanning-tree presentation:
one generator per non-tree edge, one relator per triangle boundary.  The
proof step that loops of length at most 2d generate the fundamental group
(short loop generators) is run by the test suite, not shipped here.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from operator import lt
from typing import Callable, Hashable, Iterable, Sequence

from ._search import bfs
from .errors import DisconnectedGraphError
from .groups import CayleyGraph, Presentation, TrivialityResult, is_trivial

__all__ = [
    "SimplicialComplex2",
    "SpanningTreeData",
    "pi1_presentation",
    "spanning_tree_presentation",
    "is_simply_connected",
    "flag_triangles",
    "nerve2",
    "complex_from_json",
    "load_complex",
]


class SimplicialComplex2:
    """Vertices, edges (2-sets) and triangles (3-sets), downward closed."""

    def __init__(
        self,
        vertices: Iterable[Hashable],
        triangles: Iterable[Sequence[Hashable]] = (),
        edges: Iterable[Sequence[Hashable]] = (),
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
        edge_set = {e for a, b, c in self.triangles for e in ((a, b), (a, c), (b, c))}
        for e in edges:
            e = tuple(sorted(e))
            if len(set(e)) != 2:
                raise ValueError(f"edge {e!r} must have two distinct vertices")
            if not set(e) <= vset:
                raise ValueError(f"edge {e!r} references unknown vertices")
            edge_set.add(e)
        self.edges = tuple(sorted(edge_set))
        self._adj = dict(zip(self.vertices, _sorted_neighbours(self.vertices, self.edges)))

    @classmethod
    def _from_sorted(cls, vertices, triangles, edges, adjacency) -> "SimplicialComplex2":
        """The complex of sorted, distinct vertices, triangles and edges, with
        adjacency[i] the sorted neighbours of vertices[i], checked at C speed.
        Callers guarantee the rest: their triangles (u, v, w) have u < v < w,
        and each triangle's edges are among their edges."""
        for xs, kind in ((vertices, "vertices"), (triangles, "triangles"), (edges, "edges")):
            if not all(map(lt, xs, xs[1:])):
                raise ValueError(f"{kind} must be sorted and distinct")
        if len(adjacency) != len(vertices) or sum(map(len, adjacency)) != 2 * len(edges):
            raise ValueError("adjacency does not match the vertices and edges")
        k = cls.__new__(cls)
        k.vertices, k.triangles, k.edges = vertices, tuple(triangles), tuple(edges)
        k._adj = dict(zip(vertices, adjacency))
        return k

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


def _sorted_neighbours(vertices, edges) -> list[tuple]:
    """The sorted neighbours of each of `vertices`, from sorted edges (u, w),
    u < w, in one pass: the edges (u, v) come before the edges (v, w), each
    run in order, so every list is appended to in sorted order."""
    adj: dict[Hashable, list] = {v: [] for v in vertices}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    return [tuple(adj[v]) for v in vertices]


def complex_from_json(obj: dict) -> SimplicialComplex2:
    try:
        vertices = obj["vertices"]
        triangles = obj.get("triangles", [])
        extra = obj.get("extra_edges", [])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed complex file: {exc}") from None
    return SimplicialComplex2(vertices, triangles, extra)


def load_complex(path) -> SimplicialComplex2:
    with open(path, "r", encoding="utf-8") as fh:
        return complex_from_json(json.load(fh))


# -------------------------------------------------------- fundamental group


@dataclass(frozen=True)
class SpanningTreeData:
    """Spanning-tree presentation of the fundamental group, with edge bookkeeping."""

    presentation: Presentation
    tree_edges: frozenset
    generator_edges: tuple  # generator k+1 <-> generator_edges[k], oriented (min, max)


def spanning_tree_presentation(k: SimplicialComplex2) -> SpanningTreeData:
    """The tree is grown breadth-first from k.vertices[0], and must reach every
    vertex.  Tree edges number 0, and sorted triangle (a, b, c) gives the
    reduced word (g_ab, g_bc, -g_ac) without zeros: distinct nonzero letters."""
    if not k.vertices:
        raise ValueError("complex has no vertices")
    tree: list[tuple] = []
    seen = {k.vertices[0]}
    queue = deque([k.vertices[0]])
    while queue:
        v = queue.popleft()
        for w in k.neighbors(v):
            if w not in seen:
                seen.add(w)
                tree.append((v, w) if v < w else (w, v))
                queue.append(w)
    if len(seen) != len(k.vertices):
        raise DisconnectedGraphError("complex is not connected")

    number = dict.fromkeys(tree, 0)
    gen_edges = tuple(e for e in k.edges if e not in number)
    number.update((e, i + 1) for i, e in enumerate(gen_edges))
    relators = [tuple(filter(None, (number[a, b], number[b, c], -number[a, c])))
                for a, b, c in k.triangles]
    presentation = Presentation._reduced(len(gen_edges), relators)
    return SpanningTreeData(presentation, frozenset(tree), gen_edges)


def pi1_presentation(k: SimplicialComplex2) -> Presentation:
    """Spanning-tree presentation: one generator per non-tree edge, one relator per triangle."""
    return spanning_tree_presentation(k).presentation


def is_simply_connected(k: SimplicialComplex2, budget: int) -> TrivialityResult:
    """Triviality of the fundamental group, certified by coset enumeration."""
    return is_trivial(pi1_presentation(k), budget)


# --------------------------------------------------------------- flag filling


def flag_triangles(c: CayleyGraph) -> SimplicialComplex2:
    """The complex on the Cayley graph with every 3-clique filled; edges
    (u, v) and triangles (u, v, w), u < v < w, come out sorted."""
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
    return SimplicialComplex2._from_sorted(tuple(range(c.element_count)), triangles, edges, c.neighbors)


# --------------------------------------------------------------------- nerve


def nerve2(
    centers: Sequence,
    radius: float,
    samples: Sequence,
    dist: Callable[[object, object], float],
) -> SimplicialComplex2:
    """2-skeleton of the nerve of balls around the centers, tested by sampling.

    A face enters iff some sample lies strictly within `radius` of all of
    its centers, so its edges enter with it; denser samples only add faces.
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
    vertices = tuple(range(n))
    return SimplicialComplex2._from_sorted(vertices, triangles, edges, _sorted_neighbours(vertices, edges))
