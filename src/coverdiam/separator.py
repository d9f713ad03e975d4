"""Sphere decompositions of Cayley graphs and the square-root diameter bound.

Along a geodesic from the identity to a farthest element h, layer i is the
set of elements at word distance i and T_i is the connected component of
the geodesic vertex inside that layer.  When the flag filling of the graph
is simply connected, removing any interior T_i separates the identity from
h, each |T_i| is at least min(i+1, m-i+1), and summing the disjoint T_i
forces diam <= sqrt(4|G|+1) - 2.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._search import bfs
from .complexes import flag_triangles, is_simply_connected
from .errors import InvariantError
from .groups import (
    CayleyGraph,
    CosetTable,
    Presentation,
    TrivialityResult,
    bfs_distances,
    cayley_graph,
    todd_coxeter,
    word_metric_diameter,
)

__all__ = [
    "SphereDecomposition",
    "SizeBoundReport",
    "CayleyBoundReport",
    "ZooInstance",
    "sphere_decomposition",
    "check_separation",
    "check_size_bounds",
    "translated_copy",
    "left_multiplication",
    "left_multiplications",
    "cayley_diameter_bound",
    "cayley_cap_holds",
    "verify_cayley_bound",
    "zoo_instances",
    "layer_sum_inequality_holds",
]


@dataclass(frozen=True)
class SphereDecomposition:
    """Layers and geodesic components of a Cayley graph, from the identity."""

    element_count: int
    geodesic: tuple[int, ...]  # g_0 = identity .. g_m = farthest
    layers: tuple[frozenset, ...]  # S_i = elements at distance i
    components: tuple[frozenset, ...]  # T_i = component of g_i inside S_i

    @property
    def diameter(self) -> int:
        return len(self.geodesic) - 1


def sphere_decomposition(c: CayleyGraph) -> SphereDecomposition:
    """Deterministic decomposition: farthest element and geodesic ties go to
    the smallest element index."""
    dist = bfs_distances(c, c.identity)
    m = max(dist)
    h = dist.index(m)
    geodesic = [h]
    while geodesic[-1] != c.identity:
        g = geodesic[-1]
        prev = min(w for w in c.neighbors[g] if dist[w] == dist[g] - 1)
        geodesic.append(prev)
    geodesic.reverse()

    layers = tuple(frozenset(g for g, d in enumerate(dist) if d == i) for i in range(m + 1))
    components = tuple(
        frozenset(bfs(g_i, lambda x: (y for y in c.neighbors[x] if y in layer)))
        for g_i, layer in zip(geodesic, layers)
    )
    return SphereDecomposition(c.element_count, tuple(geodesic), layers, components)


def check_separation(c: CayleyGraph, d: SphereDecomposition, i: int) -> bool:
    """Whether removing T_i puts the identity and the farthest element in
    different components."""
    m = d.diameter
    if not (0 < i < m):
        raise IndexError(f"index {i} must be interior to 0..{m}")
    removed = d.components[i]
    reached = bfs(d.geodesic[0], lambda x: (y for y in c.neighbors[x] if y not in removed))
    return d.geodesic[m] not in reached


@dataclass(frozen=True)
class SizeBoundReport:
    per_index: tuple[tuple[int, int, int, bool], ...]  # (i, |T_i|, min(i+1, m-i+1), ok)
    disjoint: bool
    total: int
    group_order: int
    sum_ok: bool

    @property
    def all_bounds_hold(self) -> bool:
        return all(ok for *_, ok in self.per_index)


def check_size_bounds(d: SphereDecomposition) -> SizeBoundReport:
    m = d.diameter
    rows = []
    for i, t in enumerate(d.components):
        lower = min(i + 1, m - i + 1)
        rows.append((i, len(t), lower, len(t) >= lower))
    seen: set[int] = set()
    disjoint = True
    for t in d.components:
        if seen & t:
            disjoint = False
        seen |= t
    total = sum(len(t) for t in d.components)
    return SizeBoundReport(
        per_index=tuple(rows),
        disjoint=disjoint,
        total=total,
        group_order=d.element_count,
        sum_ok=total <= d.element_count,
    )


def _identity_tree(t: CosetTable) -> list[tuple[int, int, int]]:
    """(h, g, letter) with h = g*letter for every element h but the
    identity, in the visit order of a BFS from it, so g comes before h."""
    n = t.coset_count
    seen = [True] + [False] * (n - 1)
    tree = []
    queue = deque([0])
    while queue:
        g = queue.popleft()
        for k in range(1, t.generator_count + 1):
            for letter in (k, -k):
                h = t.act(g, letter)
                if not seen[h]:
                    seen[h] = True
                    tree.append((h, g, letter))
                    queue.append(h)
    if len(tree) != n - 1:
        raise InvariantError("left multiplication missed an element")
    return tree


def _along_tree(t: CosetTable, tree: list[tuple[int, int, int]], a: int) -> tuple[int, ...]:
    # left and right multiplication commute: a*(g*letter) = (a*g)*letter.
    # The tree sets every entry but the identity's, which is a.
    image = [a] * t.coset_count
    for h, g, letter in tree:
        image[h] = t.act(image[g], letter)
    return tuple(image)


def left_multiplication(t: CosetTable, a: int) -> tuple[int, ...]:
    """The permutation g -> a*g, propagated from the identity along the
    right action (left and right multiplication commute)."""
    return _along_tree(t, _identity_tree(t), a)


def left_multiplications(t: CosetTable) -> tuple[tuple[int, ...], ...]:
    """Every left multiplication g -> a*g, in the order of a; one BFS tree
    from the identity serves them all."""
    tree = _identity_tree(t)
    return tuple(_along_tree(t, tree, a) for a in range(t.coset_count))


def translated_copy(c: CayleyGraph, t: CosetTable, a: int, s: Iterable[int]) -> frozenset:
    """The image a*s of a vertex set, verified to induce an isomorphic subgraph."""
    lam = left_multiplication(t, a)
    s = frozenset(s)
    image = frozenset(lam[g] for g in s)
    if len(image) != len(s):
        raise InvariantError("left multiplication is not injective")
    for g in s:
        for h in s:
            if h in c.neighbors[g] and lam[h] not in c.neighbors[lam[g]]:
                raise InvariantError("left multiplication broke an edge")
    return image


def cayley_diameter_bound(n: int) -> float:
    """sqrt(4n + 1) - 2: the diameter cap for simply connected flag fillings."""
    if n < 1:
        raise ValueError("group order must be positive")
    return math.sqrt(4 * n + 1) - 2


def cayley_cap_holds(diameter, n):
    """Whether diameter <= sqrt(4n + 1) - 2, decided in integers as
    (diameter + 2)^2 <= 4n + 1; elementwise on integer arrays."""
    return (diameter + 2) ** 2 <= 4 * n + 1


@dataclass(frozen=True)
class CayleyBoundReport:
    order: int
    gens: tuple[int, ...]
    simply_connected: TrivialityResult
    diameter: int
    bound: float
    verdict: str  # holds | hypothesis_failed | inconclusive | violated
    cayley: CayleyGraph
    table: CosetTable

    def to_row(self) -> dict:
        return {
            "order": self.order,
            "gens": ";".join(str(g) for g in self.gens),
            "sc_status": self.simply_connected.status,
            "diam": self.diameter,
            "bound": self.bound,
            "verdict": self.verdict,
        }


def verify_cayley_bound(
    p: Presentation, gens: Iterable[int], budget: int
) -> CayleyBoundReport:
    """Check diam <= sqrt(4|G|+1) - 2 whenever the flag filling is certified
    simply connected; otherwise report why the hypothesis is unavailable."""
    table = todd_coxeter(p, budget)
    gens = tuple(sorted(set(int(g) for g in gens)))
    c = cayley_graph(table, gens)
    flag = flag_triangles(c)
    sc = is_simply_connected(flag, budget)
    diam = word_metric_diameter(c).diameter
    bound = cayley_diameter_bound(table.coset_count)
    if sc.status == "yes":
        verdict = "holds" if cayley_cap_holds(diam, table.coset_count) else "violated"
    elif sc.status == "no":
        verdict = "hypothesis_failed"
    else:
        verdict = "inconclusive"
    return CayleyBoundReport(
        order=table.coset_count,
        gens=gens,
        simply_connected=sc,
        diameter=diam,
        bound=bound,
        verdict=verdict,
        cayley=c,
        table=table,
    )


# ------------------------------------------------------------------- zoo


@dataclass(frozen=True)
class ZooInstance:
    name: str
    presentation: Presentation
    gens: tuple[int, ...]


def _cyclic_with_powers(k: int) -> Presentation:
    # generators a, b, c with b = a^2, c = a^3
    return Presentation(3, [(1,) * k, (2, -1, -1), (3, -1, -1, -1)])


def zoo_instances() -> tuple[ZooInstance, ...]:
    """The verification zoo: cyclic groups with one, two and three residue
    generators, dihedral groups, two symmetric groups, and the quaternions."""
    out: list[ZooInstance] = []
    for k in range(2, 25):
        pres = _cyclic_with_powers(k)
        out.append(ZooInstance(f"Z{k}|1", pres, (0,)))
        out.append(ZooInstance(f"Z{k}|1,2", pres, (0, 1)))
        out.append(ZooInstance(f"Z{k}|1,2,3", pres, (0, 1, 2)))
    for k in range(3, 9):  # dihedral groups of orders 6..16
        pres = Presentation(2, [(1,) * k, (2, 2), (1, 2, 1, 2)])
        out.append(ZooInstance(f"D{2 * k}", pres, (0, 1)))
    out.append(
        ZooInstance("S3", Presentation(2, [(1, 1), (2, 2), (1, 2) * 3]), (0, 1))
    )
    out.append(
        ZooInstance(
            "S4",
            Presentation(3, [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2]),
            (0, 1, 2),
        )
    )
    out.append(
        ZooInstance(
            "Q8", Presentation(2, [(1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)]), (0, 1)
        )
    )
    return tuple(out)


# ------------------------------------------------------- arithmetic check


def layer_sum_inequality_holds(m_max: int) -> bool:
    """For every m <= m_max: m <= sqrt(4 * sum_i min(i+1, m-i+1) + 1) - 2.

    The sum telescopes to t(t+1) for m = 2t-1 and (t+1)^2 for m = 2t.
    """
    m = np.arange(0, m_max + 1, dtype=np.int64)
    t = (m + 1) // 2
    s = np.where(m % 2 == 1, t * (t + 1), (t + 1) * (t + 1))
    return bool(np.all(cayley_cap_holds(m, s)))
