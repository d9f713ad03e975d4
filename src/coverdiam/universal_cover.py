"""Universal covers of 2-complexes and the 4*sqrt(n) diameter pipeline.

The cover is built from the regular representation: coset enumeration of
the spanning-tree presentation supplies a sheet permutation per non-tree
edge (tree edges stay put), and vertices, edges and triangles lift
accordingly.  Metric questions are asked of the piecewise-equilateral
model via edgewise subdivision graphs.  The cover's subdivision graph is
the permutation-voltage cover of the base's: each subdivision edge carries
the transport between the base vertices that carry its endpoints, so the
total model is lifted from the base model by those sheet permutations
(`covering._lift`), with the lift's index array as its projection.
"""

from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Hashable, NamedTuple

import numpy as np

from ._search import bfs
from .complexes import (
    SimplicialComplex2,
    _sorted_neighbours,
    is_simply_connected,
    nerve2,
    spanning_tree_presentation,
)
from .covering import _lift, _not_permutations
from .errors import CoverNotCovering, DisconnectedGraphError, EnumerationOverflow, InvariantError
from .groups import TrivialityResult, todd_coxeter
from .metric_graph import (
    _PAIR_CHUNK,
    DiameterResult,
    MetricGraph,
    _sorted,
    continuous_diameter,
)
from .separator import cayley_cap_holds, cayley_diameter_bound, left_multiplications

__all__ = [
    "CoveringComplex",
    "PEApprox",
    "UniversalBoundReport",
    "NerveReport",
    "build_universal_cover",
    "pe_subdivision_graph",
    "verify_universal_bound",
    "fiber_ball_nerve",
    "rp2_complex",
]

_STAIRCASE_FACTOR = 2.0 / math.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class CoveringComplex:
    """A simplicial covering built over a base complex.

    Total-complex vertices are pairs (base vertex, sheet).  The cover keeps
    the integer arrays it is built from: row j of `moves` maps the sheets
    along base.edges[j], and `deck[a, s]` = a*s, the left multiplications
    of the regular representation.  The deck acts freely and transitively
    on every fiber and commutes with every edge map, so it acts by
    isometries on the total PE model, which `pe` lifts from the base model
    by the edge maps.  Each level's distances therefore come from one
    breadth-first search out of the sheet-0 lifts alone (`_sheet0_distances`),
    which fills the all-pairs matrices of both PE models.  The cover keeps no
    model: for every level asked for it keeps one `_Level` record, the two
    diameters and the sheet-0 rows of the complex's own vertices, so a
    later check or nerve at such a level builds no model and computes no
    distance.
    """

    base: SimplicialComplex2
    total: SimplicialComplex2
    sheets: int
    moves: np.ndarray  # E x n: moves[j, s] is sheet s carried along base.edges[j] from its first end
    deck: np.ndarray  # n x n: deck[a, s] = a*s
    simply_connected: TrivialityResult
    _levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def diameters(self, level: int) -> tuple[DiameterResult, DiameterResult]:
        """Continuous diameters of the (base, total) PE models at `level`."""
        if level not in self._levels:
            pe_base, total, lift = self.pe(level)
            diameters = (continuous_diameter(pe_base.graph), continuous_diameter(total))
            # copied past both diameters' peaks; the models go when this returns
            rows = total.apsp()[lift[pe_base.own, 0]]
            self._levels[level] = _Level(diameters, rows, lift, pe_base.own)
        return self._levels[level].diameters

    def pe(self, level: int) -> tuple[PEApprox, MetricGraph, np.ndarray]:
        """The base PE model at `level`, the total model's graph, both APSP
        filled, and `lift`, where `lift[b, s]` is the total index of
        base-model vertex b on sheet s; the cover keeps none of them.

        The total model is lifted from the base model: a subdivision edge
        P->Q carries the transport from carrier(P) to carrier(Q), which is
        the identity or the permutation of a sorted base edge, because
        subdivision edges run from the smaller carrier to the larger.
        """
        pe_base = pe_subdivision_graph(self.base, level)
        base, carrier = pe_base.graph, pe_base.carrier
        pos = {v: i for i, v in enumerate(self.base.vertices)}
        # row code[a, b] of moves carries the sheets from carrier a to carrier b
        moves = np.vstack((np.arange(self.sheets), self.moves))
        code = np.full((len(pos), len(pos)), -1)
        np.fill_diagonal(code, 0)
        for j, (a, b) in enumerate(self.base.edges, start=1):
            code[pos[a], pos[b]] = j
        u, v, _ = base.edge_arrays()
        rows = code[carrier[u], carrier[v]]
        if (rows < 0).any():
            raise InvariantError("a subdivision edge joins carriers that share no edge")
        total, lift = _lift(base, moves[rows], self.sheets)
        _sheet0_distances(base, total, lift, self.deck)
        return pe_base, total, lift


def _by_first(first: np.ndarray, *cols: np.ndarray) -> list[np.ndarray]:
    """Index columns of lifts (row: base simplex, column: sheet), flattened
    in the order of `first`, stably, so the base order holds within each."""
    order = np.argsort(first.ravel(), kind="stable")
    return [c.ravel()[order] for c in (first, *cols)]


def build_universal_cover(k: SimplicialComplex2, budget: int) -> CoveringComplex:
    """Construct the universal cover; raises EnumerationOverflow when the
    fundamental group cannot be realised within the budget.

    The lifts are made on indices, (k.vertices[i], s) being i n + s, ordered
    by first vertex and then the base's order: the sorted order, which
    `_from_sorted` checks and `_sorted_neighbours` reads.  Edge maps must
    permute the sheets, so that every star projects bijectively, and
    triangle boundaries must close; the total's pi_1 certificate grows a
    spanning tree, so it is connected.
    """
    data = spanning_tree_presentation(k)
    table = todd_coxeter(data.presentation, budget)
    n = table.coset_count
    pos = {v: i for i, v in enumerate(k.vertices)}
    epos = {e: j for j, e in enumerate(k.edges)}
    ends = np.array([(pos[u], pos[w]) for u, w in k.edges], dtype=np.intp).reshape(-1, 2)
    sheet = np.arange(n)
    # tree edges keep the sheets, a generator's edge moves them by its row of the table
    moves = np.tile(sheet, (len(ends), 1))
    rows = np.reshape(table.action, (-1, n))
    if len(rows) != len(data.generator_edges):
        raise InvariantError("coset table has a row count other than the generator count")
    moves[[epos[e] for e in data.generator_edges]] = rows
    bad = _not_permutations(moves)
    if bad.any():
        j = int(bad.argmax())
        t = int(((moves[j, :, None] == sheet).sum(axis=0) != 1).argmax())
        raise InvariantError(f"star at {(k.edges[j][1], t)} does not project bijectively")
    ab, ac, bc = np.array([(epos[a, b], epos[a, c], epos[b, c]) for a, b, c in k.triangles],
                          dtype=np.intp).reshape(-1, 3).T
    if (np.take_along_axis(moves[bc], moves[ab], axis=1) != moves[ac]).any():
        raise InvariantError("triangle boundary fails to close over the cover")

    vertices = tuple(product(k.vertices, range(n)))

    def simplices(*cols):
        return list(zip(*(map(vertices.__getitem__, c.tolist()) for c in cols)))

    edges = simplices(*_by_first(ends[:, :1] * n + sheet, ends[:, 1:] * n + moves))
    total = SimplicialComplex2._from_sorted(
        vertices,
        simplices(*_by_first(ends[ab, :1] * n + sheet, ends[ab, 1:] * n + moves[ab],
                             ends[ac, 1:] * n + moves[ac])),
        edges, _sorted_neighbours(vertices, edges))

    try:
        sc = is_simply_connected(total, budget)
    except DisconnectedGraphError:
        raise InvariantError("regular-representation cover is disconnected") from None
    if sc.status == "unknown":
        raise EnumerationOverflow(budget, "budget too small to certify the cover simply connected")
    if sc.status != "yes":
        raise InvariantError("universal cover failed its simple-connectivity check")
    deck = left_multiplications(table)
    moves.flags.writeable = deck.flags.writeable = False  # read-only: every cached level derives from both
    cover = CoveringComplex(base=k, total=total, sheets=n, moves=moves, deck=deck, simply_connected=sc)
    _check_cover_complex(cover)
    return cover


def _check_cover_complex(c: CoveringComplex) -> None:
    """The deck group: sheet permutations that commute with every edge map
    and act freely and transitively."""
    n, deck = c.sheets, c.deck
    if _not_permutations(deck).any():
        raise InvariantError("deck transformation is not a permutation of the sheets")
    # lam(perm_e(t)) = perm_e(lam(t)): the deck then acts on every model lifted
    # by the edge maps, and the sheet-0 distances give all others.  Each
    # distinct map is checked once, for its first edge in base.edges order
    perms, first = np.unique(c.moves, axis=0, return_index=True)
    for lam in deck:
        moved = (lam[perms] != perms[:, lam]).any(axis=1)
        if moved.any():
            e = c.base.edges[int(first[moved].min())]
            raise InvariantError(f"a deck transformation does not commute with edge {e}")
    if deck[(deck == np.arange(n)).any(axis=1)].tolist() != [list(range(n))]:
        raise InvariantError("deck group does not act freely")
    if set(deck[:, 0].tolist()) != set(range(n)):
        raise InvariantError("deck group does not act transitively")


# ------------------------------------------------- piecewise-flat metric


@dataclass(frozen=True, eq=False)
class PEApprox:
    """Edgewise level-k subdivision graph of a unit-equilateral complex.

    Triangles split into level^2 sub-triangles of side 1/level; shared
    sub-edges are identified.  The graph metric dominates the flat metric
    by at most 2/sqrt(3).  `carrier[i]` is the position in `k.vertices` of
    the complex vertex that carries graph vertex i, and `own[j]` is the
    graph index of complex vertex k.vertices[j].
    """

    graph: MetricGraph
    carrier: np.ndarray
    own: np.ndarray


def pe_subdivision_graph(k: SimplicialComplex2, level: int) -> PEApprox:
    """Subdivision graph of the unit-equilateral model.

    A vertex carries itself, an edge point is carried by its edge's smaller
    endpoint and a triangle's interior point by its smallest corner.  Points
    are numbered by kind, each name is formatted once, and the graph is made
    from index arrays, so it builds no `Edge` record until one is asked for.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    L = level
    nv, ne, nf = k.f_vector
    vpos = {v: i for i, v in enumerate(k.vertices)}
    epos = {e: j for j, e in enumerate(k.edges)}
    # point numbers: vertex i is i, point t (0 < t < L steps from the smaller
    # end) of edge j is nv + j (L - 1) + t - 1, and interior point p of
    # triangle m is nv + ne (L - 1) + m len(inner) + p
    inner = [(x, y) for x in range(1, L) for y in range(1, L - x)]
    names = ([f"v{i}" for i in range(nv)]
             + [f"e{j}:{t}" for j in range(ne) for t in range(1, L)]
             + [f"t{m}:{x},{y}" for m in range(nf) for x, y in inner])
    chain = nv + np.arange(ne)[:, None] * (L - 1) + np.arange(-1, L)
    chain[:, [0, L]] = np.array([(vpos[a], vpos[b]) for a, b in k.edges], dtype=np.intp).reshape(ne, 2)

    def spot(x, y, z):
        # a triangle's lattice point (x, y, z), a = (L, 0, 0) etc., is point
        # `at` of column `kind` of `cols`: corners a, b, c, edge ab at y
        # steps, edges ac and bc at z steps, and the interior points
        if z == 0:
            return (0, 0) if y == 0 else (1, 0) if y == L else (3, y)
        if y == 0:
            return (2, 0) if z == L else (4, z)
        return (5, z) if x == 0 else (6, inner.index((x, y)))

    # each step keeps one coordinate, and lies on a boundary chain, whose
    # edges already exist, exactly when that coordinate is 0
    steps = [((x, y, z), (x + dx, y + dy, z + dz))
             for x in range(L + 1) for y in range(L + 1 - x) for z in [L - x - y]
             for dx, dy, dz, kept in ((-1, 1, 0, z), (-1, 0, 1, y), (0, -1, 1, x))
             if kept and x + dx >= 0 and y + dy >= 0]
    kind, at, kind2, at2 = np.array([spot(*p) + spot(*q) for p, q in steps],
                                    dtype=np.intp).reshape(-1, 4).T
    tri = np.array([(vpos[a], vpos[b], vpos[c], epos[a, b], epos[a, c], epos[b, c])
                    for a, b, c in k.triangles], dtype=np.intp).reshape(nf, 6)
    carrier = np.concatenate((np.arange(nv), np.repeat(chain[:, 0], L - 1),
                              np.repeat(tri[:, 0], len(inner))))
    cols = np.column_stack((tri[:, :3], nv + tri[:, 3:] * (L - 1) - 1,  # edge point t: + t
                            nv + ne * (L - 1) + np.arange(nf) * len(inner)))
    u = np.concatenate((chain[:, :-1].ravel(), (cols[:, kind] + at).ravel()))
    v = np.concatenate((chain[:, 1:].ravel(), (cols[:, kind2] + at2).ravel()))
    ids = ([f"E{j}:{t}" for j in range(ne) for t in range(L)]
           + [f"T{m}:{x},{y},{z}-{nx},{ny},{nz}" for m in range(nf) for (x, y, z), (nx, ny, nz) in steps])

    vertices, order = _sorted(names)
    rank = np.argsort(order)
    ids, by_id = _sorted(ids)
    graph = MetricGraph._from_arrays(vertices, ids, rank[u[by_id]], rank[v[by_id]],
                                     np.full(len(ids), 1.0 / L), require_connected=k.is_connected())
    if len(graph.vertices) != nv + (L - 1) * ne + ((L - 1) * (L - 2) // 2) * nf:
        raise InvariantError("PE subdivision has the wrong vertex count")
    if len(ids) != L * ne + (3 * L * (L - 1) // 2) * nf:
        raise InvariantError("PE subdivision has the wrong edge count")
    return PEApprox(graph, carrier[order], rank[:nv])


class _Level(NamedTuple):
    """What a cover keeps of one level.

    `rows[i]` holds the total-model distances from (base.vertices[i],
    sheet 0) to every total-model vertex; `lift[b, s]` is the total-model
    index of base-model vertex b on sheet s, and `own[i]` the base-model
    index of base.vertices[i].
    """

    diameters: tuple[DiameterResult, DiameterResult]
    rows: np.ndarray
    lift: np.ndarray
    own: np.ndarray


def _deck_columns(lift: np.ndarray, deck: np.ndarray) -> np.ndarray:
    """Column maps that turn a sheet-0 row into the row of each sheet.

    With lam the deck row taking sheet 0 to s, lam maps (w, t) to
    (w, lam(t)) isometrically, so D[(b, s), j] = D[(b, 0), cols[s, j]].
    """
    cols = np.empty((len(deck), lift.size), dtype=np.intp)
    for lam in deck:
        cols[lam[0], lift[:, lam]] = lift
    return cols


def _sheet0_distances(base: MetricGraph, total: MetricGraph, lift: np.ndarray,
                      deck: np.ndarray) -> None:
    """Both models' all-pairs distances from a breadth-first search out of
    the sheet-0 lifts alone, stored as the arrays their `apsp()` returns.

    `total` covers `base`: `lift[b, s]` is the total index of base vertex b
    on sheet s, and each deck row lam maps (w, t) to (w, lam(t)) as a
    graph automorphism (it commutes with the edge maps).  Row (b, lam(0))
    of the total matrix is then row (b, 0) with its columns moved by lam
    (`_deck_columns`).  A base path lifts to a path from (b, 0) with as
    many edges, and a total path projects to one, so the base matrix is
    D_base[b, b'] = min over t of D[(b, 0), (b', t)], one gather-min.

    Every edge has one length h, so the least edge count k reads as
    S_k = fl(S_{k-1} + h) (`_hop_distances`), which the deck keeps and the
    projection minimises: both matrices are `apsp()`'s, bit for bit.  Edges
    of different lengths raise ValueError.

    Sources run in blocks of whole 64-source words, whose rows and base
    columns hold at most _PAIR_CHUNK numbers, or one word's, and the total
    matrix is filled a sheet of the block at a time: the blocks and one
    gathered or moved copy are the only temporaries.
    """
    if len(np.unique(total.edge_arrays()[2])) > 1:
        raise ValueError("deck-reduced distances need edges of one length")
    nb, n = lift.shape
    N = len(total.vertices)
    cols = _deck_columns(lift, deck)
    dist = np.empty((N, N))
    dist_base = np.empty((nb, nb))
    step = 64 * max(1, _PAIR_CHUNK // (N + nb) // 64)  # whole words of sources
    for lo in range(0, nb, step):
        hi = min(lo + step, nb)
        rows = total._hop_distances(lift[lo:hi, 0])
        dist_base[lo:hi] = rows[:, lift].min(axis=2)
        dist[lift[lo:hi, 0]] = rows  # sheet 0's deck row is the identity
        for s in range(1, n):
            dist[lift[lo:hi, s]] = np.take(rows, cols[s], axis=1)
        del rows  # before the next block's search makes its own
    base._apsp_cache, total._apsp_cache = dist_base, dist


def _fiber_rows(c: CoveringComplex, level: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Total-model distances from the lifts (p, 0), .., (p, n-1) to every
    total-model vertex, one row per sheet, and those lifts' indices; read
    from the level's sheet-0 rows, so no model is built."""
    rec = c._levels[level]
    i = c.base.vertices.index(p)
    return rec.rows[i][_deck_columns(rec.lift, c.deck)], rec.lift[rec.own[i]]


# ------------------------------------------------------------ bound check


@dataclass(frozen=True)
class UniversalBoundReport:
    sheets: int
    level: int
    d_base: float
    d_cover: float
    bound: float
    ratio: float | None
    corrected_ratio: float | None
    holds: bool
    tol: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_universal_bound(
    k: SimplicialComplex2, level: int, budget: int, tol: float = 1e-9,
    cover: CoveringComplex | None = None,
) -> UniversalBoundReport:
    """Check d(cover) < 4 sqrt(n) d(base) on level-k subdivision graphs.

    The corrected ratio multiplies by 2/sqrt(3), the worst-case factor by
    which the graph metric overestimates flat distances.
    """
    if cover is None:
        cover = build_universal_cover(k, budget)
    elif (cover.base.vertices, cover.base.edges, cover.base.triangles) != (
            k.vertices, k.edges, k.triangles):
        raise ValueError("cover was built over a different base complex")
    d_base, d_cover = (d.value for d in cover.diameters(level))
    bound = 4.0 * math.sqrt(cover.sheets) * d_base
    ratio = d_cover / d_base if d_base else None  # a one-point base has no ratio
    return UniversalBoundReport(
        sheets=cover.sheets,
        level=level,
        d_base=d_base,
        d_cover=d_cover,
        bound=bound,
        ratio=ratio,
        corrected_ratio=None if ratio is None else ratio * _STAIRCASE_FACTOR,
        holds=d_cover < bound + tol,
        tol=tol,
    )


# ------------------------------------------------------------ fiber nerve


@dataclass(frozen=True)
class NerveReport:
    sheets: int
    level: int
    epsilon: float
    radius: float
    d_base: float
    d_cover: float
    nerve: SimplicialComplex2
    nerve_connected: bool
    generator_set: tuple[int, ...]  # deck elements within 2(d + eps) of the basepoint lift
    matches_deck_cayley: bool
    nerve_simply_connected: TrivialityResult
    nerve_diameter: int
    nerve_diameter_bound: float
    nerve_diameter_ok: bool
    fiber_distances: tuple[tuple[float, ...], ...]
    fiber_pair_bound: float
    fiber_pairs_ok: bool
    chain_bound: float  # 2 d + (sqrt(4n+1) - 2) * 2 (d + eps)
    chain_ok: bool
    chain_below_sqrt_bound: bool
    mesh_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "sheets": self.sheets,
            "level": self.level,
            "epsilon": self.epsilon,
            "radius": self.radius,
            "d_base": self.d_base,
            "d_cover": self.d_cover,
            "nerve_edges": [list(e) for e in self.nerve.edges],
            "nerve_triangles": [list(t) for t in self.nerve.triangles],
            "nerve_connected": self.nerve_connected,
            "generator_set": list(self.generator_set),
            "matches_deck_cayley": self.matches_deck_cayley,
            "nerve_simply_connected": self.nerve_simply_connected.status,
            "nerve_diameter": self.nerve_diameter,
            "nerve_diameter_bound": self.nerve_diameter_bound,
            "nerve_diameter_ok": self.nerve_diameter_ok,
            "fiber_pair_bound": self.fiber_pair_bound,
            "fiber_pairs_ok": self.fiber_pairs_ok,
            "chain_bound": self.chain_bound,
            "chain_ok": self.chain_ok,
            "chain_below_sqrt_bound": self.chain_below_sqrt_bound,
            "mesh_ok": self.mesh_ok,
        }


def _nerve_bfs_diameter(k: SimplicialComplex2) -> int:
    """Hop diameter of a fiber-ball nerve, -1 if disconnected, from one
    search: the fiber rows are exact column permutations of one row by the
    deck, so each deck row maps the nerve onto itself, and the deck permutes
    the centres transitively, so every centre has centre 0's eccentricity."""
    dist = bfs(k.vertices[0], k.neighbors)
    return max(dist.values()) if len(dist) == len(k.vertices) else -1


def fiber_ball_nerve(
    c: CoveringComplex,
    p: Hashable,
    epsilon: float,
    level: int,
    budget: int = 100_000,
) -> NerveReport:
    """Nerve of the fiber-centred ball cover of the total space.

    Centres are the lifts of the base vertex p, the radius is d(base) +
    epsilon, and samples are the subdivision vertices of the total space.
    Raises CoverNotCovering when some sample is out of reach of every
    centre.
    """
    if p not in set(c.base.vertices):
        raise ValueError(f"unknown base vertex {p!r}")
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    n = c.sheets
    d, d_cover = (res.value for res in c.diameters(level))
    r = d + epsilon
    mesh_ok = epsilon >= 1.0 / level - 1e-12

    dists, sources = _fiber_rows(c, level, p)

    nearest = dists.min(axis=0)
    worst = int(nearest.argmax())
    if not (nearest[worst] < r):
        raise CoverNotCovering(
            f"sample {worst} of the level-{level} total model at distance "
            f"{nearest[worst]} >= radius {r}"
        )

    rows = dists.tolist()  # Python floats: one list index per pair, not a numpy scalar
    nerve = nerve2(centers=list(range(n)), radius=r, samples=list(range(dists.shape[1])),
                   dist=lambda x, i: rows[i][x])

    nerve_diam = _nerve_bfs_diameter(nerve)
    nerve_connected = nerve_diam >= 0
    # deck elements moving the basepoint lift by less than 2r = 2(d + eps)
    fdist = dists[:, sources]
    gen_set = tuple(a for a in range(1, n) if fdist[0, c.deck[a, 0]] < 2 * r)
    # centres g_i x0 and g_j x0 meet when g_i^-1 g_j moves x0 by less than
    # 2r, so the nerve is the right Cayley graph: g_i joins g_i a = deck[i, a].
    # The deck group acts freely, so a generator moves every sheet: no loops
    cayley_edges = {tuple(sorted((i, c.deck[i, a]))) for a in gen_set for i in range(n)}
    matches = set(nerve.edges) == cayley_edges

    sc = (
        is_simply_connected(nerve, budget)
        if nerve_connected
        else TrivialityResult("no", "nerve 1-skeleton disconnected")
    )
    diam_bound = cayley_diameter_bound(n)
    pair_bound = diam_bound * 2 * (d + epsilon)
    pairs_ok = bool((fdist[~np.eye(n, dtype=bool)] < pair_bound).all())
    chain_bound = 2 * d + diam_bound * 2 * (d + epsilon)
    return NerveReport(
        sheets=n,
        level=level,
        epsilon=epsilon,
        radius=r,
        d_base=d,
        d_cover=d_cover,
        nerve=nerve,
        nerve_connected=nerve_connected,
        generator_set=gen_set,
        matches_deck_cayley=matches,
        nerve_simply_connected=sc,
        nerve_diameter=nerve_diam,
        nerve_diameter_bound=diam_bound,
        nerve_diameter_ok=nerve_diam >= 0 and cayley_cap_holds(nerve_diam, n),
        fiber_distances=tuple(map(tuple, fdist.tolist())),
        fiber_pair_bound=pair_bound,
        fiber_pairs_ok=pairs_ok,
        chain_bound=chain_bound,
        chain_ok=d_cover < chain_bound,
        chain_below_sqrt_bound=chain_bound < 4 * math.sqrt(n) * d if n > 1 else True,
        mesh_ok=mesh_ok,
    )


# --------------------------------------------------------------- bundled


def rp2_complex() -> SimplicialComplex2:
    """The six-vertex projective plane (antipodal icosahedron quotient)."""
    path = importlib.resources.files("coverdiam").joinpath("data/rp2_complex.json")
    with path.open("r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return SimplicialComplex2(obj["vertices"], obj["triangles"], obj.get("extra_edges", []))
