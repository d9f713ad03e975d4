"""Simplicial 2-complexes: fundamental groups, flag fillings and nerves.

A complex is its sorted vertex names plus sorted integer rows into them
(downward closure enforced).  Fundamental groups come from the spanning-tree
presentation: one generator per non-tree edge, one relator per triangle
boundary.  The proof step that loops of length at most 2d generate the
fundamental group (short loop generators) is run by the test suite, not
shipped here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, compress, starmap
from operator import itemgetter, lt, mul, neg, not_
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraphError
from .groups import CayleyGraph, Presentation, TrivialityResult, is_trivial
from .metric_graph import _component_roots

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
    """Vertices, edges (2-sets) and triangles (3-sets), downward closed.

    Held as the sorted vertex names and sorted integer rows into them:
    `_edge_rows` (i, j), i < j, `_triangle_rows` (a, b, c), a < b < c, and
    `_sides`, the columns (ab, ac, bc) of each triangle's edge indices.  The
    name views `edges`, `triangles` and `neighbors` are built at first use.
    """

    def __init__(
        self,
        vertices: Iterable[Hashable],
        triangles: Iterable[Sequence[Hashable]] = (),
        edges: Iterable[Sequence[Hashable]] = (),
    ):
        vertices = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(vertices)}
        tris = set()
        for t in triangles:
            t = tuple(sorted(t))
            if len(set(t)) != 3:
                raise ValueError(f"triangle {t!r} must have three distinct vertices")
            if not set(t) <= index.keys():
                raise ValueError(f"triangle {t!r} references unknown vertices")
            tris.add(tuple(map(index.__getitem__, t)))
        rows = {e for a, b, c in tris for e in ((a, b), (a, c), (b, c))}
        for e in edges:
            e = tuple(sorted(e))
            if len(set(e)) != 2:
                raise ValueError(f"edge {e!r} must have two distinct vertices")
            if not set(e) <= index.keys():
                raise ValueError(f"edge {e!r} references unknown vertices")
            rows.add(tuple(map(index.__getitem__, e)))
        self._set_rows(vertices, tuple(sorted(tris)), tuple(sorted(rows)))

    @classmethod
    def _from_sorted(cls, vertices, triangles, edges) -> "SimplicialComplex2":
        """The complex of sorted, distinct vertex names and sorted, distinct
        rows, checked at C speed: edges (i, j), 0 <= i < j < len(vertices),
        and triangles whose sides are among the edges."""
        for xs, kind in ((vertices, "vertices"), (triangles, "triangles"), (edges, "edges")):
            if not all(map(lt, xs, xs[1:])):
                raise ValueError(f"{kind} must be sorted and distinct")
        if edges and not (edges[0][0] >= 0 and all(starmap(lt, edges))
                          and max(map(itemgetter(1), edges)) < len(vertices)):
            raise ValueError("edges must be rows (i, j) with 0 <= i < j < len(vertices)")
        k = cls.__new__(cls)
        k._set_rows(vertices, tuple(triangles), tuple(edges))
        return k

    def _set_rows(self, vertices: tuple, triangles: tuple, edges: tuple) -> None:
        self.vertices, self._triangle_rows, self._edge_rows = vertices, triangles, edges
        get = dict(zip(edges, range(len(edges)))).__getitem__
        a, b, c = zip(*triangles) if triangles else ((), (), ())
        try:
            self._sides = tuple(tuple(map(get, zip(x, y))) for x, y in ((a, b), (a, c), (b, c)))
        except KeyError as exc:
            raise ValueError(f"a triangle's side {exc.args[0]} is not among the edges") from None

    def _names(self, rows) -> tuple:
        at = self.vertices.__getitem__
        return tuple(zip(*(map(at, col) for col in zip(*rows))))

    @cached_property
    def edges(self) -> tuple:
        """The edges (u, w), u < w, in sorted order."""
        return self._names(self._edge_rows)

    @cached_property
    def triangles(self) -> tuple:
        """The triangles (a, b, c), a < b < c, in sorted order."""
        return self._names(self._triangle_rows)

    @cached_property
    def _adj(self) -> dict:
        at = self.vertices.__getitem__
        adj = _sorted_neighbours(len(self.vertices), self._edge_rows)
        return {u: tuple(map(at, ns)) for u, ns in zip(self.vertices, adj)}

    def neighbors(self, v) -> tuple:
        return self._adj[v]

    @property
    def f_vector(self) -> tuple[int, int, int]:
        return (len(self.vertices), len(self._edge_rows), len(self._triangle_rows))

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self._edge_rows) + len(self._triangle_rows)

    def is_connected(self) -> bool:
        u, v = np.array(self._edge_rows, dtype=np.intp).reshape(-1, 2).T
        return not _component_roots(len(self.vertices), u, v).any()


def _sorted_neighbours(n: int, edges) -> list[list[int]]:
    """The sorted neighbours of each of vertices 0 .. n-1, from sorted edge
    rows (i, j), i < j, in one pass: the rows (i, v) come before the rows
    (v, j), each run in order, so every list is appended to in sorted order."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    return adj


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


def _spanning_tree(k: SimplicialComplex2) -> tuple[Presentation, list[bool]]:
    """The spanning-tree presentation on the rows, and which edge rows are
    generators.  The tree is grown breadth-first from vertex 0 and must reach
    every vertex; a row is a tree edge when one end is the other's parent.
    The other rows number 1, 2, .. in order, tree rows 0, and triangle
    (a, b, c) gives the reduced word (g_ab, g_bc, -g_ac) without zeros:
    distinct nonzero letters."""
    nv = len(k.vertices)
    if not nv:
        raise ValueError("complex has no vertices")
    adj = _sorted_neighbours(nv, k._edge_rows)
    parent = [0] + [-1] * (nv - 1)  # the root is its own parent
    order = [0]
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    if len(order) != nv:
        raise DisconnectedGraphError("complex is not connected")
    gen = [parent[j] != i and parent[i] != j for i, j in k._edge_rows]
    at = list(map(mul, gen, accumulate(gen))).__getitem__
    ab, ac, bc = k._sides
    relators = [tuple(filter(None, w)) for w in zip(map(at, ab), map(at, bc), map(neg, map(at, ac)))]
    return Presentation._reduced(sum(gen), relators), gen


def spanning_tree_presentation(k: SimplicialComplex2) -> SpanningTreeData:
    """The spanning-tree presentation of `_spanning_tree`, with its tree and
    generator edges named: generator k+1 is generator_edges[k]."""
    presentation, gen = _spanning_tree(k)
    return SpanningTreeData(presentation, frozenset(compress(k.edges, map(not_, gen))),
                            tuple(compress(k.edges, gen)))


def pi1_presentation(k: SimplicialComplex2) -> Presentation:
    """Spanning-tree presentation: one generator per non-tree edge, one relator per triangle."""
    return _spanning_tree(k)[0]


def is_simply_connected(k: SimplicialComplex2, budget: int) -> TrivialityResult:
    """Triviality of the fundamental group, certified by coset enumeration."""
    return is_trivial(pi1_presentation(k), budget)


# --------------------------------------------------------------- flag filling


def flag_triangles(c: CayleyGraph) -> SimplicialComplex2:
    """The complex on the Cayley graph with every 3-clique filled; edges
    (u, v) and triangles (u, v, w), u < v < w, come out sorted."""
    n, nbrs = c.element_count, c.neighbors
    near = [set(ns) for ns in nbrs]
    edges = [(u, v) for u in range(n) for v in nbrs[u] if v > u]
    triangles = [(u, v, w) for u, v in edges for w in nbrs[v] if w > v and w in near[u]]
    return SimplicialComplex2._from_sorted(tuple(range(n)), triangles, edges)


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
    # bit s of masks[i]: sample s lies within the radius of centre i
    masks = [sum(1 << s for s, x in enumerate(samples) if dist(x, c) < radius) for c in centers]
    edges = [(i, j) for i, j in combinations(range(n), 2) if masks[i] & masks[j]]
    triangles = [(i, j, k) for i, j, k in combinations(range(n), 3) if masks[i] & masks[j] & masks[k]]
    return SimplicialComplex2._from_sorted(tuple(range(n)), triangles, edges)
