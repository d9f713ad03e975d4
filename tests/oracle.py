"""Brute-force mesh oracles and predecessor algorithms, kept independent of
the code paths they check.  The last section holds the proof steps of the
paper's bounds that no command runs, shared by the test modules that check
them."""

import heapq
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from coverdiam._search import bfs
from coverdiam.complexes import SimplicialComplex2, is_simply_connected, spanning_tree_presentation
from coverdiam.covering import CoveringGraph, Voltage
from coverdiam.errors import DisconnectedGraphError, EnumerationOverflow, InvariantError, NotGeneratingError
from coverdiam.groups import (
    CayleyGraph,
    CosetTable,
    Presentation,
    TietzeReduction,
    TrivialityResult,
    Word,
    _cyclic_reduce,
    _enumerate,
    _exponent_matrix_rank,
    _invert_word,
    bfs_distances,
    free_reduce,
    todd_coxeter,
)
from coverdiam.metric_graph import (
    DiameterResult,
    Edge,
    EdgePoint,
    MetricGraph,
    PathRoute,
    RouteLeg,
    point_distance,
    tree_legs,
    validate_route,
)
from coverdiam.separator import cayley_cap_holds
from coverdiam.universal_cover import CoveringComplex


class SubdivisionMap:
    """Point correspondence between a graph and its subdivision."""

    def __init__(self, base: MetricGraph, refined: MetricGraph,
                 pieces: dict[str, tuple[str, ...]], piece_length: dict[str, float]):
        self.base = base
        self.refined = refined
        self._pieces = pieces
        self._piece_length = piece_length
        self._parent: dict[str, tuple[str, int]] = {}
        for eid, subs in pieces.items():
            for k, sub in enumerate(subs):
                self._parent[sub] = (eid, k)

    def map_point(self, p: EdgePoint) -> EdgePoint:
        """The same point, in coordinates of the refined graph."""
        self.base.check_point(p)
        subs = self._pieces[p.edge]
        if len(subs) == 1:
            return EdgePoint(subs[0], p.offset)
        h = self._piece_length[p.edge]
        k = min(int(p.offset / h), len(subs) - 1)
        return EdgePoint(subs[k], min(max(p.offset - k * h, 0.0), h))

    def point_to_base(self, p: EdgePoint) -> EdgePoint:
        """The same point, in coordinates of the base graph."""
        self.refined.check_point(p)
        eid, k = self._parent[p.edge]
        h = self._piece_length[eid]
        return EdgePoint(eid, k * h + p.offset)


def subdivide(g: MetricGraph, max_piece: float) -> tuple[MetricGraph, SubdivisionMap]:
    """Split every edge into pieces of length at most max_piece.

    Distances between corresponding points are preserved exactly.
    """
    if not (max_piece > 0):
        raise ValueError("max_piece must be positive")
    vertices = list(g.vertices)
    used = set(vertices)
    new_edges: list[Edge] = []
    pieces: dict[str, tuple[str, ...]] = {}
    piece_length: dict[str, float] = {}
    for e in g.edges:
        k = max(1, math.ceil(e.length / max_piece - 1e-12))
        piece_length[e.id] = e.length / k
        if k == 1:
            new_edges.append(e)
            pieces[e.id] = (e.id,)
            continue
        h = e.length / k
        chain = [e.u]
        for i in range(1, k):
            name = f"{e.id}:v{i}"
            while name in used:
                name += "+"
            used.add(name)
            vertices.append(name)
            chain.append(name)
        chain.append(e.v)
        sub_ids = []
        for i in range(k):
            sub_ids.append(f"{e.id}:{i}")
            new_edges.append(Edge(sub_ids[-1], chain[i], chain[i + 1], h))
        pieces[e.id] = tuple(sub_ids)
    refined = MetricGraph(vertices, new_edges, require_connected=g.is_connected)
    return refined, SubdivisionMap(g, refined, pieces, piece_length)


def _csr(g: MetricGraph):
    """The vertex adjacency of g in CSR form, both directions of each link,
    weighted by the shortest edge of each vertex pair, and the vertex index."""
    n = len(g.vertices)
    u, v, length = g.edge_arrays()
    link = u != v
    rows = np.concatenate((u[link], v[link]))
    cols = np.concatenate((v[link], u[link]))
    w = np.concatenate((length[link], length[link]))
    # one entry per ordered vertex pair, the shortest parallel edge
    order = np.lexsort((w, cols, rows))
    rows, cols, w = rows[order], cols[order], w[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[first], minlength=n), out=indptr[1:])
    mat = csr_matrix((w[first], cols[first], indptr), shape=(n, n))
    return mat, {x: i for i, x in enumerate(g.vertices)}


def mesh_diameter(g: MetricGraph, mesh: float, chunk: int = 512) -> float:
    """Max vertex-pair distance on a mesh-`mesh` subdivision.

    Differs from the continuous diameter by at most `mesh`.
    """
    sub, _ = subdivide(g, mesh)
    mat, _ = _csr(sub)
    n = mat.shape[0]
    best = 0.0
    for lo in range(0, n, chunk):
        d = dijkstra(mat, indices=list(range(lo, min(lo + chunk, n))))
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
    d = dijkstra(mat, indices=[idx[snap(x)]])
    return float(d[0, idx[snap(y)]])


def single_source_heapq(g: MetricGraph, source: str):
    """Pure-Python heapq Dijkstra with parent edges, parent[v] = (edge id,
    previous vertex); the predecessor of MetricGraph.single_source."""
    dist = {source: 0.0}
    parent = {}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for e, side in g.incident(v):
            w = e.v if side == "u" else e.u
            nd = d + e.length
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                parent[w] = (e.id, v)
                heapq.heappush(heap, (nd, w))
    return dist, parent


def short_loop_generators_subdivided(g: MetricGraph, basepoint: str, mesh: float):
    """Spanning-tree loops grown on a mesh-`mesh` subdivision and rewritten
    in base coordinates, in sub-edge id order; the predecessor of
    `short_loop_generators`."""
    sub, smap = subdivide(g, mesh)
    dist, parent = single_source_heapq(sub, basepoint)
    tree_edges = {eid for eid, _ in parent.values()}
    loops = []
    for e in sub.edges:
        if e.id in tree_edges:
            continue
        legs = tree_legs(sub, parent, basepoint, e.u) + [RouteLeg(e.id, 0.0, e.length)]
        legs += [l.reversed() for l in reversed(tree_legs(sub, parent, basepoint, e.v))]
        base_legs = []
        for leg in legs:
            a = smap.point_to_base(EdgePoint(leg.edge, leg.start))
            b = smap.point_to_base(EdgePoint(leg.edge, leg.end))
            last = base_legs[-1] if base_legs else None
            if last and last.edge == a.edge and last.end == a.offset and (
                (last.end - last.start) * (b.offset - a.offset) > 0
            ):
                base_legs[-1] = RouteLeg(a.edge, last.start, b.offset)
            else:
                base_legs.append(RouteLeg(a.edge, a.offset, b.offset))
        route = PathRoute.from_legs(base_legs)
        loops.append(LoopWitness(route, basepoint, dist[e.u] + e.length + dist[e.v]))
    return tuple(loops)


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


def todd_coxeter_unreduced(p: Presentation, max_cosets: int) -> CosetTable:
    """HLT enumeration of p with every generator, no Tietze reduction: the
    predecessor of groups.todd_coxeter."""
    table = _enumerate(p, max_cosets)
    if not table.satisfies(p):
        raise InvariantError("completed coset table violates a relator")
    return table


def is_trivial_unreduced(p: Presentation, max_cosets: int) -> TrivialityResult:
    """Exponent rank of p, then enumeration of p, no Tietze reduction: the
    predecessor of groups.is_trivial."""
    if p.generator_count > 0:
        rank = _exponent_matrix_rank(p)
        if rank < p.generator_count:
            return TrivialityResult(
                "no",
                f"abelianization infinite: exponent matrix rank {rank} < {p.generator_count}",
            )
    try:
        table = todd_coxeter_unreduced(p, max_cosets)
    except EnumerationOverflow:
        return TrivialityResult("unknown", f"budget {max_cosets} exhausted")
    if table.coset_count == 1:
        return TrivialityResult("yes")
    return TrivialityResult("no", f"completed, order {table.coset_count}")


def _allpairs_cross_candidates(A, B, C, E, Li, Lj):
    """Yield (s, t, value) arrays for every candidate point of the edge pairs."""
    zeros = np.zeros_like(Li)
    # Equality lines of the four corner-route linear pieces, plus the
    # rectangle sides; every breakpoint of the min lies on two of these.
    lines = [
        (0.0, 1.0, (B + Lj - A) / 2.0),
        (0.0, 1.0, (E + Lj - C) / 2.0),
        (1.0, 0.0, (C + Li - A) / 2.0),
        (1.0, 0.0, (E + Li - B) / 2.0),
        (1.0, 1.0, (E - A + Li + Lj) / 2.0),
        (1.0, -1.0, (C - B + Li - Lj) / 2.0),
        (1.0, 0.0, zeros),
        (1.0, 0.0, Li),
        (0.0, 1.0, zeros),
        (0.0, 1.0, Lj),
    ]
    for a in range(len(lines)):
        p1, q1, r1 = lines[a]
        for b in range(a + 1, len(lines)):
            p2, q2, r2 = lines[b]
            det = p1 * q2 - p2 * q1
            if abs(det) < 1e-14:
                continue
            s = (r1 * q2 - r2 * q1) / det
            t = (p1 * r2 - p2 * r1) / det
            mask = (s >= -1e-9) & (s <= Li + 1e-9) & (t >= -1e-9) & (t <= Lj + 1e-9)
            if not mask.any():
                continue
            s = np.clip(s, 0.0, Li)
            t = np.clip(t, 0.0, Lj)
            f1 = s + t + A
            f2 = s - t + B + Lj
            f3 = -s + t + C + Li
            f4 = -s - t + E + Li + Lj
            val = np.minimum(np.minimum(f1, f2), np.minimum(f3, f4))
            yield s, t, np.where(mask, val, -np.inf)


def continuous_diameter_allpairs(g: MetricGraph, chunk: int = 200_000) -> DiameterResult:
    """The chunked all-pairs candidate search that preceded the edge-bounded
    one: every edge pair is gathered, pruned only by its corner bound, and
    run through the line crossings one at a time.  Same value, witness and
    tie-break contract as ``continuous_diameter``."""
    m = len(g.edges)
    if m == 0:
        return DiameterResult(0.0, None)
    dm = g.apsp()
    edges = g.edges
    u = np.array([g.vertex_index(e.u) for e in edges])
    v = np.array([g.vertex_index(e.v) for e in edges])
    Lall = np.array([e.length for e in edges])

    half = (Lall + dm[u, v]) / 2.0
    best = max(float(dm.max()), float(half.max()))
    found = []
    ii_all, jj_all = np.triu_indices(m, k=1)
    for lo in range(0, len(ii_all), chunk):
        ii = ii_all[lo : lo + chunk]
        jj = jj_all[lo : lo + chunk]
        A = dm[u[ii], u[jj]]
        B = dm[u[ii], v[jj]]
        C = dm[v[ii], u[jj]]
        E = dm[v[ii], v[jj]]
        Li, Lj = Lall[ii], Lall[jj]
        keep = (np.minimum(A + E, B + C) + Li + Lj) / 2.0 >= best - 1e-12 * best
        if not keep.any():
            continue
        ii, jj = ii[keep], jj[keep]
        for s, t, val in _allpairs_cross_candidates(
            A[keep], B[keep], C[keep], E[keep], Li[keep], Lj[keep]
        ):
            best = max(best, float(val.max()))
            hits = val >= best - 1e-12 * best
            if hits.any():
                found.append((val[hits], ii[hits], s[hits], jj[hits], t[hits]))

    thresh = best - 1e-12 * best
    witnesses = [
        ((edges[k].id, 0.0), (edges[k].id, float(half[k]) + 0.0))
        for k in np.nonzero(half >= thresh)[0]
    ]
    for val, ii, s, jj, t in found:
        for k in np.nonzero(val >= thresh)[0]:
            a = (edges[ii[k]].id, float(s[k]) + 0.0)
            b = (edges[jj[k]].id, float(t[k]) + 0.0)
            witnesses.append((a, b) if a <= b else (b, a))

    wa, wb = min(witnesses)
    witness = (EdgePoint(wa[0], wa[1]), EdgePoint(wb[0], wb[1]))
    value = point_distance(g, witness[0], witness[1])
    if abs(value - best) > 1e-9 * best:
        raise InvariantError(f"witness distance {value!r} differs from {best!r}")
    return DiameterResult(value, witness)


def left_multiplication_bfs(t: CosetTable, a: int) -> tuple[int, ...]:
    """g -> a*g by a BFS over every letter from the identity, one BFS per
    element: the predecessor of `separator.left_multiplications`."""
    n = t.coset_count
    image = [-1] * n
    image[0] = a
    queue = deque([0])
    while queue:
        g = queue.popleft()
        for k in range(1, t.generator_count + 1):
            for letter in (k, -k):
                h = t.act(g, letter)
                if image[h] < 0:
                    image[h] = t.act(image[g], letter)
                    queue.append(h)
    if min(image) < 0:
        raise InvariantError("left multiplication missed an element")
    return tuple(image)


def full_dijkstra(g: MetricGraph) -> np.ndarray:
    """All-pairs distances of g by scipy's Dijkstra from every vertex; the
    reference for `MetricGraph.apsp()`, which reads no scipy."""
    return dijkstra(_csr(g)[0])


class StringKeyedCover(CoveringGraph):
    """A cover whose lifts and projections are read from the string-keyed
    dicts it was built with: `maps` = (vertex lifts, edge lifts, vertex
    projections, edge projections)."""

    def __init__(self, base, voltage, graph, *maps):
        super().__init__(base, voltage, graph)
        self.maps = maps

    def lift_vertex(self, v, sheet):
        return self.maps[0][(v, sheet)]

    def lift_edge(self, e, sheet):
        return self.maps[1][(e, sheet)]

    def project_vertex(self, dv):
        return self.maps[2][dv]

    def project_edge(self, de):
        return self.maps[3][de]


def derive_cover_string_keyed(g: MetricGraph, v: Voltage) -> StringKeyedCover:
    """The derived graph of (g, v) built through string name maps, with the
    star of every derived vertex checked by sorting its projected ends."""
    n = v.sheets
    vlift, vproj, vertices = {}, {}, []
    for base_v in g.vertices:
        for s in range(n):
            name = f"{base_v}@{s}"
            vlift[(base_v, s)] = name
            vproj[name] = (base_v, s)
            vertices.append(name)
    elift, eproj, edges = {}, {}, []
    for e in g.edges:
        perm = v.perm(e.id)
        for s in range(n):
            name = f"{e.id}@{s}"
            elift[(e.id, s)] = name
            eproj[name] = (e.id, s)
            edges.append(Edge(name, vlift[(e.u, s)], vlift[(e.v, perm[s])], e.length))
    derived = MetricGraph(vertices, edges, require_connected=False)
    c = StringKeyedCover(g, v, derived, vlift, elift, vproj, eproj)
    if len(c.graph.vertices) != n * len(g.vertices):
        raise InvariantError("derived graph does not have n vertices per base vertex")
    if len(c.graph.edges) != n * len(g.edges):
        raise InvariantError("derived graph does not have n edges per base edge")
    for e in c.graph.edges:
        if e.length != g.edge(c.project_edge(e.id)[0]).length:
            raise InvariantError(f"lifted edge {e.id} changes length")
    for dv in c.graph.vertices:
        base_v, _ = c.project_vertex(dv)
        derived_star = sorted((c.project_edge(e.id)[0], side) for e, side in c.graph.incident(dv))
        base_star = sorted((e.id, side) for e, side in g.incident(base_v))
        if derived_star != base_star:
            raise InvariantError(f"star at {dv} does not project bijectively")
    return c


def pe_subdivision_graph_records(k: SimplicialComplex2, level: int) -> tuple[MetricGraph, dict, dict]:
    """Subdivision graph of the unit-equilateral model, built from `Edge`
    records: the reference for `universal_cover.pe_subdivision_graph`.
    Returns the graph, the graph vertex name of each complex vertex, and
    the complex vertex that carries each graph vertex, by name.

    A vertex carries itself, an edge point is carried by its edge's smaller
    endpoint and a triangle's interior point by its smallest corner.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    L = level
    h = 1.0 / L

    vert_ids = {v: f"v{i}" for i, v in enumerate(k.vertices)}
    edge_index = {e: j for j, e in enumerate(k.edges)}
    carrier = {name: v for v, name in vert_ids.items()}  # vertex name -> its carrier
    edges_out: list[Edge] = []

    def edge_point(e: tuple, t: int) -> str:
        # t steps from the smaller endpoint along edge e
        if t == 0:
            return vert_ids[e[0]]
        if t == L:
            return vert_ids[e[1]]
        return f"e{edge_index[e]}:{t}"

    for e, j in edge_index.items():
        carrier.update((f"e{j}:{t}", e[0]) for t in range(1, L))
        for t in range(L):
            edges_out.append(
                Edge(f"E{j}:{t}", edge_point(e, t), edge_point(e, t + 1), h)
            )

    for m, (a, b, c) in enumerate(k.triangles):
        e_ab = (a, b)
        e_ac = (a, c)
        e_bc = (b, c)

        def corner_name(x: int, y: int, z: int) -> str:
            # barycentric steps (x, y, z) summing to L; a = (L,0,0) etc.
            if z == 0:
                return edge_point(e_ab, y)
            if y == 0:
                return edge_point(e_ac, z)
            if x == 0:
                return edge_point(e_bc, z)
            return f"t{m}:{x},{y}"

        for x in range(L - 2, 0, -1):
            for y in range(1, L - x):
                carrier[f"t{m}:{x},{y}"] = a

        count = 0
        for x in range(L + 1):
            for y in range(L + 1 - x):
                z = L - x - y
                # each step keeps one coordinate, and lies on a boundary chain,
                # whose edges already exist, exactly when that coordinate is 0
                for dx, dy, dz, kept in ((-1, 1, 0, z), (-1, 0, 1, y), (0, -1, 1, x)):
                    nx, ny, nz = x + dx, y + dy, z + dz
                    if kept == 0 or nx < 0 or ny < 0:
                        continue
                    edges_out.append(
                        Edge(
                            f"T{m}:{x},{y},{z}-{nx},{ny},{nz}",
                            corner_name(x, y, z),
                            corner_name(nx, ny, nz),
                            h,
                        )
                    )
                    count += 1
        if count != 3 * L * (L - 1) // 2:
            raise InvariantError(f"triangle {m} subdivided into {count} edges")

    graph = MetricGraph(carrier, edges_out, require_connected=k.is_connected())
    nv, ne, nf = k.f_vector
    if len(graph.vertices) != nv + (L - 1) * ne + ((L - 1) * (L - 2) // 2) * nf:
        raise InvariantError("PE subdivision has the wrong vertex count")
    if len(graph.edges) != L * ne + (3 * L * (L - 1) // 2) * nf:
        raise InvariantError("PE subdivision has the wrong edge count")
    return graph, vert_ids, carrier


def pe_voltage(cover, pe_base) -> Voltage:
    """Per PE edge P->Q of a universal cover's base model, the transport
    from carrier(P) to carrier(Q) as a voltage."""
    carrier = dict(zip(pe_base.graph.vertices, (cover.base.vertices[c] for c in pe_base.carrier)))
    transport = dict(zip(cover.base.edges, map(tuple, cover.moves.tolist())))
    transport.update({(v, v): tuple(range(cover.sheets)) for v in cover.base.vertices})
    return Voltage(cover.sheets, {
        e.id: transport[(carrier[e.u], carrier[e.v])] for e in pe_base.graph.edges
    })


def subdivided_total_lift(cover, base: MetricGraph, total: MetricGraph) -> np.ndarray:
    """lift[b, s]: the index in `total`, a subdivision of `cover.total`
    itself, of base-model vertex b's point on sheet s.

    A subdivision point lies on the lift of its carrier's simplex that
    starts at the carrier on sheet s, and has the same place in it, since
    lifted simplices keep the order of their base corners.
    """
    k, tot, n = cover.base, cover.total, cover.sheets
    moves = dict(zip(k.edges, cover.moves.tolist()))
    sheet_edge = {}
    for j, (u, w) in enumerate(k.edges):
        perm = moves[u, w]
        for s in range(n):
            sheet_edge[j, s] = tot.edges.index(((u, s), (w, perm[s])))
    sheet_triangle = {}
    for m, (a, b, c) in enumerate(k.triangles):
        p_ab, p_ac = moves[a, b], moves[a, c]
        for s in range(n):
            sheet_triangle[m, s] = tot.triangles.index(((a, s), (b, p_ab[s]), (c, p_ac[s])))

    def over(name: str, s: int) -> str:
        kind, rest = name[0], name[1:]
        if kind == "v":
            return f"v{tot.vertices.index((k.vertices[int(rest)], s))}"
        index, place = rest.split(":")
        lifted = (sheet_edge if kind == "e" else sheet_triangle)[int(index), s]
        return f"{kind}{lifted}:{place}"

    return np.array([[total.vertex_index(over(v, s)) for s in range(n)] for v in base.vertices])


def universal_cover_tuple_loops(k: SimplicialComplex2, budget: int) -> CoveringComplex:
    """The universal cover lifted simplex by simplex and sheet by sheet as
    (vertex, sheet) tuples, through the validating `SimplicialComplex2`, with
    every lifted star projected onto its base star through sets, and its
    deck from the per-element `left_multiplication_bfs`: the reference for
    `universal_cover.build_universal_cover`."""
    data = spanning_tree_presentation(k)
    table = todd_coxeter(data.presentation, budget)
    n = table.coset_count
    perms = {e: tuple(range(n)) for e in data.tree_edges}
    for i, e in enumerate(data.generator_edges):
        perms[e] = tuple(table.act(s, i + 1) for s in range(n))
    vertices = [(v, s) for v in k.vertices for s in range(n)]
    edges = [((u, s), (v, perms[u, v][s])) for u, v in k.edges for s in range(n)]
    triangles = []
    for a, b, c in k.triangles:
        p_ab, p_ac, p_bc = perms[a, b], perms[a, c], perms[b, c]
        for s in range(n):
            if p_bc[p_ab[s]] != p_ac[s]:
                raise InvariantError("triangle boundary fails to close over the cover")
            triangles.append(((a, s), (b, p_ab[s]), (c, p_ac[s])))
    total = SimplicialComplex2(vertices, triangles, edges)
    if total.f_vector != tuple(n * x for x in k.f_vector):
        raise InvariantError("cover f-vector is not n times the base f-vector")
    if not total.is_connected():
        raise InvariantError("regular-representation cover is disconnected")
    for tv in total.vertices:
        star = [tuple(sorted((tv[0], w[0]))) for w in total.neighbors(tv)]
        if sorted(star) != sorted(e for e in k.edges if tv[0] in e):
            raise InvariantError(f"star at {tv} does not project bijectively")
    sc = is_simply_connected(total, budget)
    if sc.status != "yes":
        raise InvariantError("universal cover failed its simple-connectivity check")
    moves = np.array([perms[e] for e in k.edges], dtype=np.intp).reshape(len(k.edges), n)
    deck = np.array([left_multiplication_bfs(table, a) for a in range(n)], dtype=np.intp)
    return CoveringComplex(k, total, n, moves, deck, sc)


def adjacency_by_sets(k: SimplicialComplex2) -> list[tuple]:
    """Each vertex's neighbours, gathered in sets and sorted: the
    predecessor of `complexes._sorted_neighbours`."""
    adj: dict = {v: set() for v in k.vertices}
    for u, w in k.edges:
        adj[u].add(w)
        adj[w].add(u)
    return [tuple(sorted(adj[v])) for v in k.vertices]


def nerve_diameter_all_sources(k: SimplicialComplex2) -> int:
    """Hop diameter by a search from every vertex, -1 when disconnected:
    the predecessor of `universal_cover._nerve_bfs_diameter`, which
    searches from one vertex of a vertex-transitive nerve."""
    best = 0
    for src in k.vertices:
        dist = bfs(src, k.neighbors)
        if len(dist) < len(k.vertices):
            return -1
        best = max(best, max(dist.values()))
    return best


# ------------------------------------------- proof steps the tests run


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
    if basepoint not in g.vertices:
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


def layer_sum_inequality_holds(m_max: int) -> bool:
    """For every m <= m_max: m <= sqrt(4 * sum_i min(i+1, m-i+1) + 1) - 2.

    The sum telescopes to t(t+1) for m = 2t-1 and (t+1)^2 for m = 2t.
    """
    m = np.arange(0, m_max + 1, dtype=np.int64)
    t = (m + 1) // 2
    s = np.where(m % 2 == 1, t * (t + 1), (t + 1) * (t + 1))
    return bool(np.all(cayley_cap_holds(m, s)))


def final_inequality_holds(n_max: int) -> bool:
    """For 1 <= n <= n_max: 2 + 2(sqrt(4n+1) - 2) < 4 sqrt(n).

    Equivalent to 4n + 1 < (2 sqrt(n) + 1)^2, i.e. 0 < 4 sqrt(n).
    """
    n = np.arange(1, n_max + 1, dtype=np.float64)
    lhs = 2.0 + 2.0 * (np.sqrt(4.0 * n + 1.0) - 2.0)
    return bool(np.all(lhs < 4.0 * np.sqrt(n)))


def tietze_reduce_heap(p: Presentation) -> TietzeReduction:
    """Eliminate generators that occur once in a short relator.

    While some cyclically reduced relator of length <= 3 contains a
    generator g exactly once, the relator is solved for g (a word of at
    most 2 letters), dropped, and g's word is substituted into the
    relators that an occurrence index lists for g; those are then freely
    and cyclically reduced, and empty ones dropped.  The shortest, then
    lowest-numbered, relator goes first, and within it the generator that
    occurs in the fewest relators (the least number among equals), so the
    result depends only on p.  Each step is a Tietze move, so the group is
    unchanged; a relator equal to an earlier one or to its inverse is
    dropped at the end.
    """
    relators: dict[int, Word] = {}
    # generator -> ids of the relators holding it; None once eliminated
    index: list[set[int] | None] = [set() for _ in range(p.generator_count + 1)]
    short: list[tuple[int, int]] = []  # (length, relator id), entries may be stale

    def store(i: int, word: Word) -> None:
        if word:
            relators[i] = word
            for x in word:
                index[abs(x)].add(i)
            if len(word) <= 3:
                heappush(short, (len(word), i))

    def drop(i: int) -> Word:
        word = relators.pop(i)
        for x in word:
            holding = index[abs(x)]
            if holding is not None:
                holding.discard(i)
        return word

    for i, w in enumerate(p.relators):
        store(i, _cyclic_reduce(w))

    eliminated: list[tuple[int, Word]] = []
    while short:
        length, i = heappop(short)
        word = relators.get(i)
        if word is None or len(word) != length:
            continue
        gens = [abs(x) for x in word]
        once = [h for h in gens if gens.count(h) == 1]
        if not once:
            continue
        g = min(once, key=lambda h: (len(index[h]), h))
        drop(i)
        k = gens.index(g)
        rest = word[k + 1:] + word[:k]  # word is a rotation of word[k] * rest
        sub = rest if word[k] < 0 else _invert_word(rest)
        inverse = _invert_word(sub)
        eliminated.append((g, sub))
        holding, index[g] = index[g], None
        for j in holding:
            new: list[int] = []
            for x in drop(j):
                if x == g:
                    new += sub
                elif x == -g:
                    new += inverse
                else:
                    new.append(x)
            store(j, _cyclic_reduce(free_reduce(new)))

    kept = tuple(g for g in range(1, p.generator_count + 1) if index[g] is not None)
    number = {g: i + 1 for i, g in enumerate(kept)}
    seen: set[Word] = set()
    reduced = []
    for i in sorted(relators):
        w = tuple(number[x] if x > 0 else -number[-x] for x in relators[i])
        key = min(w, _invert_word(w))
        if key not in seen:
            seen.add(key)
            reduced.append(w)
    return TietzeReduction(Presentation(len(kept), reduced), kept, tuple(eliminated))


def tietze_reduce_stepwise(p: Presentation) -> TietzeReduction:
    """Eliminate generators that occur once in a short relator.

    First, while a relator has one letter left whose generator g is not
    eliminated, the lowest-numbered such relator eliminates g as (g, ()),
    and eliminated letters are deleted.  Then, while some cyclically
    reduced relator of length <= 3 contains a generator g exactly once, the
    relator is solved for g (a word of at most 2 letters), dropped, and g's
    word is substituted into the relators that an occurrence index lists
    for g, which are then freely and cyclically reduced, empty ones
    dropped.  The shortest, then lowest-numbered, relator goes first, and
    within it the generator in the fewest relators (the least number among
    equals), so the result depends only on p.  Each step is a Tietze move,
    so the group is unchanged; a relator equal to an earlier one or to its
    inverse is dropped at the end.
    """
    words = [_cyclic_reduce(w) for w in p.relators]
    eliminated: list[tuple[int, Word]] = []
    # generator -> ids of the relators holding it; None once eliminated
    index: list[set[int] | None] = [set() for _ in range(p.generator_count + 1)]
    if any(len(w) == 1 for w in words):
        live = [len(w) for w in words]  # letters of generators not yet eliminated
        holders: list[list[int]] = [[] for _ in index]  # with multiplicity
        for i, w in enumerate(words):
            for x in w:
                holders[abs(x)].append(i)
        ones = [i for i, n in enumerate(live) if n == 1]
        while ones:
            i = heappop(ones)
            if live[i] == 1:
                g = next(abs(x) for x in words[i] if index[abs(x)] is not None)
                index[g] = None
                eliminated.append((g, ()))
                for j in holders[g]:
                    live[j] -= 1
                    if live[j] == 1:
                        heappush(ones, j)
        # one generator at a time, as substitution does: the rotations match
        for g, _ in eliminated:
            for j in dict.fromkeys(holders[g]):
                words[j] = _cyclic_reduce(free_reduce([x for x in words[j] if abs(x) != g]))

    relators: dict[int, Word] = {}
    short: list[tuple[int, int]] = []  # (length, relator id), entries may be stale

    def store(i: int, word: Word) -> None:
        if word:
            relators[i] = word
            for x in word:
                index[abs(x)].add(i)
            if len(word) <= 3:
                heappush(short, (len(word), i))

    def drop(i: int) -> Word:
        word = relators.pop(i)
        for x in word:
            holding = index[abs(x)]
            if holding is not None:
                holding.discard(i)
        return word

    for i, w in enumerate(words):
        store(i, w)

    while short:
        length, i = heappop(short)
        word = relators.get(i)
        if word is None or len(word) != length:
            continue
        gens = [abs(x) for x in word]
        once = [h for h in gens if gens.count(h) == 1]
        if not once:
            continue
        g = min(once, key=lambda h: (len(index[h]), h))
        drop(i)
        k = gens.index(g)
        rest = word[k + 1:] + word[:k]  # word is a rotation of word[k] * rest
        sub = rest if word[k] < 0 else _invert_word(rest)
        inverse = _invert_word(sub)
        eliminated.append((g, sub))
        holding, index[g] = index[g], None
        for j in holding:
            new: list[int] = []
            for x in drop(j):
                if x == g:
                    new += sub
                elif x == -g:
                    new += inverse
                else:
                    new.append(x)
            store(j, _cyclic_reduce(free_reduce(new)))

    kept = tuple(g for g in range(1, p.generator_count + 1) if index[g] is not None)
    number = {g: i + 1 for i, g in enumerate(kept)}
    seen: set[Word] = set()
    reduced = []
    for i in sorted(relators):
        w = tuple(number[x] if x > 0 else -number[-x] for x in relators[i])
        key = min(w, _invert_word(w))
        if key not in seen:
            seen.add(key)
            reduced.append(w)
    return TietzeReduction(Presentation._reduced(len(kept), reduced), kept, tuple(eliminated))


def cayley_graph_by_act(t: CosetTable, generating_subset) -> CayleyGraph:
    """`groups.cayley_graph` with one `CosetTable.act` call per element and
    signed letter: the predecessor of reading the action rows."""
    chosen = sorted(set(int(i) for i in generating_subset))
    for i in chosen:
        if not (0 <= i < t.generator_count):
            raise ValueError(f"generator index {i} out of range")
    n = t.coset_count

    signed = []
    for i in chosen:
        for letter in (i + 1, -(i + 1)):
            if t.act(0, letter) != 0:  # identity-acting generators are excluded
                signed.append(letter)

    neighbor_sets = [{t.act(g, letter) for letter in signed} for g in range(n)]

    # the identity's orbit must be everything; word_metric_diameter reads its hops
    seen = bfs(0, neighbor_sets.__getitem__)
    if len(seen) != n:
        raise NotGeneratingError(
            f"generators {chosen} reach only {len(seen)} of {n} elements"
        )

    c = CayleyGraph(element_count=n, neighbors=tuple(tuple(sorted(s)) for s in neighbor_sets))
    object.__setattr__(c, "_hops", tuple(seen[g] for g in range(n)))
    return c


def closed_find_per_letter(enum, relators: list[list[int]]) -> bool:
    """`_Enumerator._closed` with a `find` call per letter: the predecessor
    of reading the table entry and finding only non-roots."""
    table, find = enum.table, enum.find
    for a in range(len(table)):
        if enum.parent[a] != a:
            continue
        if min(table[a]) < 0:
            return False
        for cols in relators:
            x = a
            for c in cols:
                x = find(table[x][c])
            if x != a:
                return False
    return True
