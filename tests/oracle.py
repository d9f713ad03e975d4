"""Brute-force mesh oracles and predecessor algorithms, kept independent of
the code paths they check."""

from fractions import Fraction

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from coverdiam.groups import Presentation
from coverdiam.metric_graph import EdgePoint, MetricGraph, subdivide


def _csr(g: MetricGraph):
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    best = {}
    for e in g.edges:
        i, j = idx[e.u], idx[e.v]
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key not in best or e.length < best[key]:
            best[key] = e.length
    if not best:
        return csr_matrix((n, n)), idx
    rows, cols, data = zip(*((i, j, l) for (i, j), l in best.items()))
    return csr_matrix((data, (rows, cols)), shape=(n, n)), idx


def mesh_diameter(g: MetricGraph, mesh: float, chunk: int = 512) -> float:
    """Max vertex-pair distance on a mesh-`mesh` subdivision.

    Differs from the continuous diameter by at most `mesh`.
    """
    sub, _ = subdivide(g, mesh)
    mat, _ = _csr(sub)
    n = mat.shape[0]
    best = 0.0
    for lo in range(0, n, chunk):
        d = dijkstra(mat, directed=False, indices=list(range(lo, min(lo + chunk, n))))
        best = max(best, float(d.max()))
    return best


def mesh_point_distance(g: MetricGraph, x: EdgePoint, y: EdgePoint, mesh: float) -> float:
    """Dijkstra distance between the nearest subdivision vertices to x and y.

    Each snap moves a point by at most mesh/2, so the result is within
    `mesh` of the true distance.
    """
    sub, smap = subdivide(g, mesh)

    def snap(p):
        q = smap.map_point(p)
        e = sub.edge(q.edge)
        return e.u if q.offset <= e.length / 2 else e.v

    mat, idx = _csr(sub)
    d = dijkstra(mat, directed=False, indices=[idx[snap(x)]])
    return float(d[0, idx[snap(y)]])


def exponent_rank_fraction(p: Presentation) -> int:
    """Rank over Q of the relator exponent-sum matrix, by dense exact
    elimination over Fraction: the reference for the sparse integer path."""
    rows = []
    for w in p.relators:
        row = [0] * p.generator_count
        for letter in w:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append([Fraction(x) for x in row])
    rank = 0
    col = 0
    while rank < len(rows) and col < p.generator_count:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank
