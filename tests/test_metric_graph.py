import functools
import itertools
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdiam import universal_cover
from coverdiam._search import bfs
from coverdiam.cli import sweep_base_graph, sweep_instance
from coverdiam.errors import DisconnectedGraphError, InvariantError
from coverdiam.metric_graph import (
    EdgePoint,
    MetricGraph,
    PathRoute,
    RouteLeg,
    concat_routes,
    continuous_diameter,
    metric_graph_from_json,
    point_distance,
    points_coincide,
    shortest_route,
    validate_route,
    vertex_route,
)

from .conftest import pseudo_projective_plane, random_connected_graph
from .oracle import (
    continuous_diameter_allpairs,
    full_dijkstra,
    mesh_diameter,
    mesh_point_distance,
    single_source_heapq,
    subdivide,
)


# ---------------------------------------------------------- incidence


def test_incident_ends_in_id_then_side_order(theta, figure_eight):
    rng = random.Random(31)
    graphs = [theta, figure_eight]
    for _ in range(200):
        g = random_connected_graph(rng)
        edges = list(g.edges)
        rng.shuffle(edges)  # the constructor, not the input, must give the order
        graphs.append(MetricGraph(reversed(g.vertices), edges))
    loops = parallel = 0
    for g in graphs:
        for v in g.vertices:
            ends = g.incident(v)
            want = [(e, "u") for e in g.edges if e.u == v] + [(e, "v") for e in g.edges if e.v == v]
            assert list(ends) == sorted(want, key=lambda t: (t[0].id, t[1]))
            loops += sum(e.u == e.v for e, side in ends if side == "u")
            parallel += len(ends) - len({(e.u, e.v) for e, _ in ends})
    assert loops and parallel


# ---------------------------------------------------------------- apsp


def test_apsp_unit_triangle(unit_triangle):
    dm = unit_triangle.apsp()
    n = len(unit_triangle.vertices)
    for u in range(n):
        for v in range(n):
            expected = 0.0 if u == v else 1.0
            assert dm[u, v] == pytest.approx(expected, abs=1e-12)


def test_apsp_path(path_graph):
    dm = path_graph.apsp()
    at = path_graph.vertex_index
    assert dm[at("p0"), at("p2")] == pytest.approx(3.0, abs=1e-12)


def test_apsp_single_loop(loop6):
    dm = loop6.apsp()
    assert dm[loop6.vertex_index("v0"), loop6.vertex_index("v0")] == 0.0


def test_apsp_is_metric(theta):
    dm = theta.apsp()
    vs = range(len(theta.vertices))
    for a in vs:
        assert dm[a, a] == 0.0
        for b in vs:
            assert dm[a, b] == dm[b, a]
            for c in vs:
                assert dm[a, c] <= dm[a, b] + dm[b, c] + 1e-9


def _sweep_graphs(seed: int, i: int):
    g, _, cover, _ = sweep_instance(seed, i)
    return g, cover.graph


def test_apsp_is_one_cached_matrix_in_vertex_order():
    weighted = next(g for i in range(20) for g in _sweep_graphs(7, i) if len(set(g.edge_arrays()[2])) > 1)
    rp2_cover = universal_cover.build_universal_cover(universal_cover.rp2_complex(), 100_000)
    pe_base, total, _ = rp2_cover.pe(3)  # both filled by the deck-reduced search
    for g in (weighted, pe_base.graph, total):
        dm = g.apsp()
        assert dm is g.apsp()
        assert type(dm) is np.ndarray and dm.dtype == np.float64 and dm.flags.c_contiguous
        assert dm.shape == (len(g.vertices), len(g.vertices))
        # scipy's rows and columns follow g.vertex_index, the order of g.vertices
        assert np.array_equal(dm, full_dijkstra(g))


def _adversarial_graph(rng: random.Random) -> MetricGraph:
    """A random multigraph of up to 40 vertices and 120 edges, loops and
    parallel edges allowed, connected or not, whose lengths stress the
    float sums: spread over 1e9, mixed with 1e-17 edges, or u**8 + 1e-300."""
    nv = rng.randint(1, 40)
    connected = rng.random() < 0.7
    ends = [(rng.randrange(i), i) for i in range(1, nv)] if connected else []
    ends += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 120 - len(ends)))]
    kind = rng.randrange(3)
    lengths = []
    for _ in ends:
        x = rng.random()
        if kind == 0:
            lengths.append(x * 1e9 + 1e-3)
        elif kind == 1:
            lengths.append(1e-17 if x < 0.3 else x + 0.1)
        else:
            lengths.append(x**8 + 1e-300)
    return MetricGraph([f"v{i}" for i in range(nv)],
                       [(f"e{j}", f"v{a}", f"v{b}", w) for j, ((a, b), w) in enumerate(zip(ends, lengths))],
                       require_connected=connected)


def _equal_length_graphs():
    rp2_cover = universal_cover.build_universal_cover(universal_cover.rp2_complex(), 100_000)
    for level in range(1, 7):
        pe_base, total, _ = rp2_cover.pe(level)
        # fresh copies: pe() fills both matrices by the deck-reduced search
        yield from (MetricGraph(g.vertices, g.edges) for g in (pe_base.graph, total))
    for n, h in ((1, 1.0), (2, 0.1), (7, 1.0), (64, 0.1), (65, 1 / 3)):
        yield MetricGraph([f"c{i}" for i in range(n)],
                          [(f"e{i}", f"c{i}", f"c{(i + 1) % n}", h) for i in range(n)])
    yield MetricGraph(["x"], [("loop", "x", "x", 0.7)])


def test_apsp_matches_scipy_dijkstra_bit_for_bit():
    sweep = (g for seed in (1, 7, 9002) for i in range(200) for g in _sweep_graphs(seed, i))
    rng = random.Random(2021)
    adversarial = (_adversarial_graph(rng) for _ in range(3000))
    unreached = 0
    for g in itertools.chain(sweep, adversarial, _equal_length_graphs()):
        got = g.apsp()
        assert np.array_equal(got, full_dijkstra(g))
        unreached += int(np.isinf(got).any())
    assert unreached > 100


def test_hop_counts_match_unweighted_dijkstra():
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    rng = random.Random(2020)
    for _ in range(200):
        nv = rng.randint(1, 40)
        # loops, parallel edges, and often vertices that no edge reaches
        ends = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 2 * nv))]
        g = MetricGraph([f"v{i}" for i in range(nv)],
                        [(f"e{j}", f"v{a}", f"v{b}", 1.0) for j, (a, b) in enumerate(ends)],
                        require_connected=False)
        u, v, _ = g.edge_arrays()
        adjacency = coo_matrix((np.ones(len(u)), (u, v)), shape=(nv, nv)).tocsr()
        for k in (1, 63, 64, 65, 130):
            sources = [rng.randrange(nv) for _ in range(k)]
            sources[-1] = sources[0]  # one source twice
            counts = g._hop_counts(sources)
            assert counts.dtype == np.uint16 and counts.flags.c_contiguous
            want = dijkstra(adjacency, directed=False, unweighted=True, indices=sources)
            assert np.array_equal(np.where(counts == 65535, np.inf, counts), want)


# ------------------------------------------------------ point distance


def test_point_distance_on_loop(loop6):
    assert point_distance(loop6, EdgePoint("e0", 1.0), EdgePoint("e0", 4.0)) == pytest.approx(3.0)


def test_point_distance_same_point(theta):
    p = EdgePoint("c", 0.7)
    assert point_distance(theta, p, p) == 0.0


def test_point_distance_theta_midpoints(theta):
    x, y = EdgePoint("a", 0.5), EdgePoint("c", 1.0)
    d = point_distance(theta, x, y)
    assert d == pytest.approx(1.5, abs=1e-12)
    assert abs(d - mesh_point_distance(theta, x, y, 0.01)) <= 0.02


def test_point_distance_errors(theta):
    with pytest.raises(ValueError):
        point_distance(theta, EdgePoint("zz", 0.1), EdgePoint("a", 0.1))
    with pytest.raises(ValueError):
        point_distance(theta, EdgePoint("a", 1.5), EdgePoint("a", 0.1))
    with pytest.raises(ValueError):
        point_distance(theta, EdgePoint("a", -0.5), EdgePoint("a", 0.1))


def test_point_distance_matches_mesh_oracle():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=5, max_edges=8)
        edges = g.edges
        h = 0.05
        for _ in range(5):
            e1, e2 = rng.choice(edges), rng.choice(edges)
            x = EdgePoint(e1.id, rng.uniform(0, e1.length))
            y = EdgePoint(e2.id, rng.uniform(0, e2.length))
            exact = point_distance(g, x, y)
            approx = mesh_point_distance(g, x, y, h)
            assert abs(exact - approx) <= 2 * h


def test_metric_axioms_sampled(theta, unit_triangle, figure_eight):
    rng = random.Random(12345)
    graphs = [theta, unit_triangle, figure_eight]
    checked = coincide = 0
    while checked < 10_000:
        g = rng.choice(graphs)
        pts = []
        for _ in range(3):
            e = rng.choice(g.edges)
            pts.append(EdgePoint(e.id, rng.uniform(0.0, e.length)))
        x, y, z = pts
        share = rng.random()
        if share < 0.05:
            # one point, given twice or a fraction of the tolerance apart
            e = g.edge(x.edge)
            y = EdgePoint(x.edge, min(e.length, x.offset + rng.choice((0.0, 1e-10)) * e.length))
        elif share < 0.10:
            # one vertex, as an end of two of its edges
            v = rng.choice(g.vertices)
            (e1, s1), (e2, s2) = rng.choice(g.incident(v)), rng.choice(g.incident(v))
            x = EdgePoint(e1.id, 0.0 if s1 == "u" else e1.length)
            y = EdgePoint(e2.id, 0.0 if s2 == "u" else e2.length)
        dxy = point_distance(g, x, y)
        dyx = point_distance(g, y, x)
        dxz = point_distance(g, x, z)
        dyz = point_distance(g, y, z)
        assert abs(dxy - dyx) <= 1e-9
        assert dxz <= dxy + dyz + 1e-9
        assert point_distance(g, x, x) <= 1e-9
        if points_coincide(g, x, y):
            coincide += 1
            assert dxy <= 1e-9 * max(e.length for e in g.edges)
        checked += 1
    assert coincide >= 500


# ------------------------------------------------- continuous diameter


def test_diameter_single_loop(loop6):
    res = continuous_diameter(loop6)
    assert res.value == pytest.approx(3.0, abs=1e-12)
    x, y = res.witness
    assert point_distance(loop6, x, y) == pytest.approx(3.0, abs=1e-12)
    # ties broken lexicographically by (edge id, offset): all antipodal
    # pairs attain 3.0 and (e0, 0) -> (e0, 3) is the smallest
    assert (x, y) == (EdgePoint("e0", 0.0), EdgePoint("e0", 3.0))


def test_diameter_unit_triangle(unit_triangle):
    assert continuous_diameter(unit_triangle).value == pytest.approx(1.5, abs=1e-12)


def test_diameter_theta_against_mesh_oracle(theta):
    res = continuous_diameter(theta)
    approx = mesh_diameter(theta, 1e-3)
    assert abs(res.value - approx) <= 2e-3
    assert res.value == pytest.approx(1.5, abs=1e-12)
    x, y = res.witness
    assert point_distance(theta, x, y) == pytest.approx(res.value, abs=1e-12)


def test_diameter_dominates_vertex_distances(theta, unit_triangle, path_graph):
    for g in (theta, unit_triangle, path_graph):
        vmax = float(g.apsp().max())
        res = continuous_diameter(g)
        assert res.value >= vmax - 1e-12
        # equality exactly when the witness is a vertex pair
        from coverdiam.metric_graph import point_vertex

        x, y = res.witness
        both_vertices = point_vertex(g, x) is not None and point_vertex(g, y) is not None
        assert both_vertices == (abs(res.value - vmax) <= 1e-12)


def test_diameter_witness_deterministic(theta):
    r1 = continuous_diameter(theta)
    r2 = continuous_diameter(theta)
    assert r1 == r2


@pytest.mark.parametrize("scale", [1e-6, 1e6, 1e9])
def test_diameter_scales_linearly_on_rescaled_sweep(scale):
    for i in range(60):
        g = sweep_base_graph(7, i)
        scaled = MetricGraph(g.vertices, [(e.id, e.u, e.v, e.length * scale) for e in g.edges])
        res, res_scaled = continuous_diameter(g), continuous_diameter(scaled)
        assert res_scaled.value == pytest.approx(res.value * scale, rel=1e-9), i
        assert [p.edge for p in res_scaled.witness] == [p.edge for p in res.witness], i


# (graph, value, witness) as computed by the two-pass candidate search
# that preceded the one-pass, pruned one; ties must break the same way.
_PINNED = [
    ('rp2/L3', 3.0, ('E0:0', 0.0), ('E5:0', 0.0)),
    ('rp2/L4', 3.0, ('E0:0', 0.0), ('E5:0', 0.0)),
    ('lens3/base', 3.0, ('E30:0', 0.5), ('E34:0', 0.5)),
    ('lens3/cover', 5.0, ('E100:0', 0.5), ('E104:0', 0.5)),
    ('sweep/0/base', 1.8377629653102379, ('e0', 0.0), ('e0', 1.8377629653102379)),
    ('sweep/0/cover', 1.8377629653102379, ('e0@0', 0.0), ('e0@0', 1.8377629653102379)),
    ('sweep/1/base', 2.116012592472135, ('e2', 0.4751825351616604), ('e5', 0.9645818177446343)),
    ('sweep/1/cover', 2.8771761078121325, ('e5@0', 0.9645818177446341), ('e5@1', 0.5563417070535605)),
    ('sweep/2/base', 2.3711100678428787, ('e5', 0.8144437536579945), ('e6', 0.888309578678719)),
    ('sweep/2/cover', 3.397595298147302, ('e6@2', 0.8883095786787188), ('e8@0', 1.1603220020680616)),
    ('sweep/3/base', 2.0111635847290725, ('e2', 0.6859405815122386), ('e6', 0.9211289641430449)),
    ('sweep/3/cover', 3.205603812735361, ('e6@0', 0.9211289641430449), ('e6@2', 0.9211289641430449)),
    ('sweep/4/base', 1.624467338351612, ('e3', 0.7952666789696136), ('e9', 0.8292006593819984)),
    ('sweep/4/cover', 2.143989528197464, ('e9@0', 0.8292006593819983), ('e9@1', 0.6480957693161594)),
    ('sweep/5/base', 1.0656836192753643, ('e1', 0.495815111609626), ('e3', 0.5698685076657383)),
    ('sweep/5/cover', 3.8485608332196604, ('e3@1', 0.5698685076657379), ('e3@5', 0.15569486378394193)),
    ('sweep/6/base', 2.5429055192919607, ('e4', 1.2197111590617293), ('e8', 0.6577074654938619)),
    ('sweep/6/cover', 4.423416253526046, ('e4@1', 0.9719078321986048), ('e4@2', 1.2197111590617293)),
    ('sweep/7/base', 1.4100588724927836, ('e0', 0.8143950758089078), ('e2', 0.5956637966838758)),
    ('sweep/7/cover', 3.1558761744573895, ('e0@0', 0.8143950758089077), ('e0@1', 0.8143950758089078)),
    ('sweep/8/base', 3.716885213550968, ('e3', 1.933701806013731), ('e5', 0.44723881925582587)),
    ('sweep/8/cover', 9.82575126122617, ('e3@0', 1.9337018060137305), ('e3@2', 1.933701806013731)),
    ('sweep/9/base', 2.8444100232529763, ('e1', 1.5150129997399695), ('e2', 1.3293970235130068)),
    ('sweep/9/cover', 7.621011622043765, ('e1@2', 1.515012999739969), ('e1@4', 1.5150129997399697)),
    ('sweep/10/base', 1.751756532326574, ('e1', 0.8392132647552395), ('e5', 0.9125432675713345)),
    ('sweep/10/cover', 2.9634044481150936, ('e1@1', 0.8392132647552394), ('e5@2', 0.9016317880993509)),
    ('sweep/11/base', 2.7565044010205737, ('e0', 0.0), ('e1', 1.3183985433535117)),
    ('sweep/11/cover', 2.7565044010205737, ('e0@0', 0.0), ('e1@0', 1.3183985433535117)),
    ('sweep/12/base', 1.3441693329244444, ('e6', 0.7007848133821553), ('e7', 0.643384519542289)),
    ('sweep/12/cover', 2.239928473029686, ('e2@2', 0.6241499495220191), ('e6@1', 0.7007848133821551)),
    ('sweep/13/base', 4.669692170219655, ('e1', 1.878240333634142), ('e2', 1.7797991561520534)),
    ('sweep/13/cover', 4.669692170219655, ('e1@0', 1.878240333634142), ('e2@0', 1.7797991561520534)),
    ('sweep/14/base', 2.749968184198117, ('e5', 0.9837624954489794), ('e7', 0.8992219261621435)),
    ('sweep/14/cover', 5.499936368396234, ('e5@2', 0.9837624954489794), ('e5@4', 0.9837624954489794)),
    ('sweep/15/base', 8.394948776542217, ('e1', 1.2642953543339954), ('e6', 1.4481560021250726)),
    ('sweep/15/cover', 8.394948776542217, ('e1@0', 1.2642953543339954), ('e6@0', 1.4481560021250726)),
    ('sweep/16/base', 0.8561656455073962, ('e0', 0.0), ('e1', 0.2824971722818229)),
    ('sweep/16/cover', 0.8561656455073962, ('e0@0', 0.0), ('e1@0', 0.2824971722818229)),
    ('sweep/17/base', 3.2012936181913463, ('e1', 1.0609060427524262), ('e5', 0.8858079027728789)),
    ('sweep/17/cover', 5.400396461305258, ('e5@1', 1.0291093314075097), ('e5@4', 0.8858079027728791)),
    ('sweep/18/base', 1.9008315391265418, ('e1', 0.8558310956636779), ('e2', 1.045000443462864)),
    ('sweep/18/cover', 3.424183943805336, ('e1@0', 0.8558310956636779), ('e1@4', 0.8549715345130536)),
    ('sweep/19/base', 2.7087126160834494, ('e2', 1.3755728185046956), ('e3', 1.3331397975787538)),
    ('sweep/19/cover', 10.749984422481914, ('e2@0', 1.3755728185046951), ('e2@5', 1.3755728185046951)),
]


@functools.lru_cache(maxsize=None)
def _pinned_graphs() -> dict:
    graphs = {}
    rp2 = universal_cover.build_universal_cover(universal_cover.rp2_complex(), 100_000)
    for level in (3, 4):
        graphs[f"rp2/L{level}"] = universal_cover.pe_subdivision_graph(rp2.total, level).graph
    lens = universal_cover.build_universal_cover(pseudo_projective_plane(3), 100_000)
    graphs["lens3/base"] = universal_cover.pe_subdivision_graph(lens.base, 1).graph
    graphs["lens3/cover"] = universal_cover.pe_subdivision_graph(lens.total, 1).graph
    for i in range(20):
        g, _, cover, _ = sweep_instance(1, i)
        graphs[f"sweep/{i}/base"] = g
        graphs[f"sweep/{i}/cover"] = cover.graph
    return graphs


def test_diameter_pinned_witnesses():
    graphs = _pinned_graphs()
    for key, value, a, b in _PINNED:
        res = continuous_diameter(graphs[key])
        assert (res.value, res.witness) == (value, (EdgePoint(*a), EdgePoint(*b))), key


def _pe_graphs(cover, levels):
    return [
        (f"{side}/L{level}", universal_cover.pe_subdivision_graph(c, level).graph)
        for side, c in (("base", cover.base), ("cover", cover.total))
        for level in levels
    ]


@functools.lru_cache(maxsize=None)
def _differential_graphs(family: str) -> tuple:
    """(name, graph) pairs on which the search must match the all-pairs one."""
    graphs = []
    if family == "sweep":
        for seed in (1, 7):
            for i in range(100):
                g, _, cover, _ = sweep_instance(seed, i)
                graphs += [(f"{seed}/{i}/base", g), (f"{seed}/{i}/cover", cover.graph)]
    elif family == "rescaled":
        for scale in (1e-6, 1e6, 1e9):
            for i in range(60):
                g = sweep_base_graph(7, i)
                edges = [(e.id, e.u, e.v, e.length * scale) for e in g.edges]
                graphs.append((f"{scale}/{i}", MetricGraph(g.vertices, edges)))
    elif family == "rp2":
        rp2 = universal_cover.build_universal_cover(universal_cover.rp2_complex(), 100_000)
        graphs = _pe_graphs(rp2, range(1, 9))
    elif family == "lens":
        for k, levels in ((3, (1, 2)), (4, (1, 2)), (6, (1, 2)), (8, (1,))):
            cover = universal_cover.build_universal_cover(pseudo_projective_plane(k), 100_000)
            graphs += [(f"k{k}/{name}", g) for name, g in _pe_graphs(cover, levels)]
    elif family == "ties":
        # every loop pair of the bouquet ties; the cycle's antipodes all tie
        loops = [(f"e{i}", "v", "v", 1.0) for i in range(40)]
        graphs.append(("bouquet40", MetricGraph(["v"], loops)))
        cycle = [(f"e{i}", f"v{i}", f"v{(i + 1) % 200}", 1.0) for i in range(200)]
        graphs.append(("cycle200", MetricGraph([f"v{i}" for i in range(200)], cycle)))
        # u is the float midpoint of the path w..z, and edge k is as long as
        # the path's float sum, one ulp over twice d(u, w): the 1e-20 loop at
        # u ties with k's same-edge maximum, yet its eccentricity screen
        # rounds under `top` and only the slack keeps it
        path = [("e1", "w", "p1", 0.01), ("e2", "p1", "u", 0.02),
                ("e3", "u", "p2", 0.02), ("e4", "p2", "z", 0.01)]
        extra = [("a", "u", "u", 1e-20), ("k", "w", "z", 0.01 + 0.02 + 0.02 + 0.01)]
        graphs.append(("midloop", MetricGraph(["p1", "p2", "u", "w", "z"], path + extra)))
    elif family == "large":
        for seed in range(6):
            g = _large_graph(random.Random(seed))
            for scale in (1e-6, 1.0, 1e9):
                edges = [(e.id, e.u, e.v, e.length * scale) for e in g.edges]
                graphs.append((f"{seed}/{scale}", MetricGraph(g.vertices, edges)))
    return tuple(graphs)


def _large_graph(rng: random.Random) -> MetricGraph:
    """A connected multigraph of 100-300 edges, loops and parallel edges
    allowed, whose lengths mix unit, short, mid and long edges."""
    m = rng.randint(100, 300)
    nv = rng.randint(m // 6, m // 2)
    ends = [(rng.randrange(i), i) for i in range(1, nv)]
    ends += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(m - len(ends))]
    draws = (lambda: 1.0, lambda: rng.uniform(0.01, 0.1), lambda: rng.uniform(0.2, 2.0),
             lambda: rng.uniform(2.0, 8.0))
    edges = [(f"e{k}", f"v{a}", f"v{b}", round(rng.choice(draws)(), 6))
             for k, (a, b) in enumerate(ends)]
    return MetricGraph([f"v{i}" for i in range(nv)], edges)


_FAMILIES = ["sweep", "rescaled", "rp2", "lens", "ties", "large"]


@pytest.mark.parametrize("family", _FAMILIES)
def test_diameter_matches_allpairs_search(family, monkeypatch):
    import coverdiam.metric_graph as mg

    for name, g in _differential_graphs(family):
        ref = continuous_diameter_allpairs(g)
        res = continuous_diameter(g)
        assert (res.value, res.witness) == (ref.value, ref.witness), name
        # the far-corner filter, the seed block and the eccentricity screen
        # then run on every graph
        with monkeypatch.context() as m:
            m.setattr(mg, "_SEED_FROM", 1)
            res = continuous_diameter(g)
        assert (res.value, res.witness) == (ref.value, ref.witness), name
        # a larger slack only prunes less; it makes the witness stage walk
        # rows that hold no tie
        with monkeypatch.context() as m:
            m.setattr(mg, "_BOUND_SLACK", 0.05)
            res = continuous_diameter(g)
        assert (res.value, res.witness) == (ref.value, ref.witness), name


@pytest.mark.parametrize("chunk", [33, 100, 1000, 1200])
def test_diameter_independent_of_chunk_size(chunk, monkeypatch):
    import coverdiam.metric_graph as mg

    # the lens covers' witness stage splits a row into chunks, the sweep
    # graphs' live prefixes span several blocks, and on the RP^2 covers the
    # rows that the eccentricity screen keeps span several stage-1 blocks.
    # Every edge of the RP^2 base at L6 (540) and of the order-6 lens base at
    # L2 (312) stays live, and a chunk of 1200 gives them far-filter blocks of
    # 2 and 3 rows, so the triangle i < j is cut in the top square of each of
    # hundreds of blocks past the first
    graphs = (
        _differential_graphs("rp2")[:4]
        + tuple(item for item in _differential_graphs("rp2")
                if item[0] in ("base/L6", "cover/L4", "cover/L6"))
        + tuple(item for item in _differential_graphs("lens") if item[0] == "k6/base/L2")
        + _differential_graphs("ties")
        + tuple(item for item in _differential_graphs("lens") if item[0].startswith("k6/cover/"))
        + tuple(item for item in _differential_graphs("sweep") if item[0].startswith("7/"))
    )
    expected = [continuous_diameter(g) for _, g in graphs]
    monkeypatch.setattr(mg, "_PAIR_CHUNK", chunk)
    for (name, g), res in zip(graphs, expected):
        assert continuous_diameter(g) == res, name


def _edge_pair_corners(g):
    """Per ordered edge pair i < j: corner distances A, B, C, E, lengths and
    H_i = max_w d(u_i, w) + d(v_i, w)."""
    dm = g.apsp()
    idx = {v: k for k, v in enumerate(g.vertices)}
    u = np.array([idx[e.u] for e in g.edges])
    v = np.array([idx[e.v] for e in g.edges])
    L = np.array([e.length for e in g.edges])
    i, j = np.triu_indices(len(g.edges), k=1)
    H = (dm[u] + dm[v]).max(axis=1)
    return dm[u[i], u[j]], dm[u[i], v[j]], dm[v[i], u[j]], dm[v[i], v[j]], L[i], L[j], H[i], H[j]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pair_maximum_is_the_best_crossing_candidate(seed):
    from coverdiam.metric_graph import _cross_candidates, _pair_maxima

    g = random_connected_graph(random.Random(seed), max_vertices=6, max_edges=10)
    A, B, C, E, Li, Lj, _, _ = _edge_pair_corners(g)
    _, _, val = _cross_candidates(A, B, C, E, Li, Lj)
    np.testing.assert_allclose(_pair_maxima(A, B, C, E, Li, Lj), val.max(axis=0), rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_edge_bound_dominates_corner_bound(seed):
    g = random_connected_graph(random.Random(seed), max_vertices=6, max_edges=10)
    A, B, C, E, Li, Lj, Hi, Hj = _edge_pair_corners(g)
    corner = (np.minimum(A + E, B + C) + Li + Lj) / 2.0
    slack = 1e-12 * corner
    assert np.all((Hi + Li + Lj) / 2.0 >= corner - slack)
    assert np.all((Hj + Li + Lj) / 2.0 >= corner - slack)
    # the eccentricity screen bounds the edge bound in floats, with no slack
    dm = g.apsp()
    u, v, _ = g.edge_arrays()
    ecc = dm.max(axis=1)
    assert np.all(ecc[u] + ecc[v] >= (dm[u] + dm[v]).max(axis=1))


def test_diameter_witness_mismatch_raises_typed_error(theta, monkeypatch):
    import coverdiam.metric_graph as mg

    monkeypatch.setattr(mg, "point_distance", lambda g, x, y: 2.0)  # true value is 1.5
    with pytest.raises(InvariantError):
        continuous_diameter(theta)


def test_diameter_requires_connected():
    g = MetricGraph(
        ["a", "b"], [("e0", "a", "a", 1.0), ("e1", "b", "b", 1.0)], require_connected=False
    )
    with pytest.raises(DisconnectedGraphError):
        continuous_diameter(g)


def test_disconnected_rejected_at_load():
    with pytest.raises(DisconnectedGraphError):
        MetricGraph(["a", "b"], [("e0", "a", "a", 1.0)])


# ------------------------------------------------- subdivide (oracle)


def test_subdivide_loop(loop6):
    sub, smap = subdivide(loop6, 1.0)
    assert len(sub.vertices) == 6
    assert len(sub.edges) == 6
    assert all(e.length == pytest.approx(1.0) for e in sub.edges)
    assert continuous_diameter(sub).value == pytest.approx(3.0, abs=1e-12)


def test_subdivide_identity_case():
    g = MetricGraph(["a", "b"], [("e", "a", "b", 1.0)])
    sub, smap = subdivide(g, 1.0)
    assert sub.edges == g.edges
    assert smap.map_point(EdgePoint("e", 0.25)) == EdgePoint("e", 0.25)


def test_subdivide_triangle_half(unit_triangle):
    sub, _ = subdivide(unit_triangle, 0.5)
    assert len(sub.vertices) == 6
    vmax = float(sub.apsp().max())
    assert vmax == pytest.approx(1.5, abs=1e-12)


def test_subdivision_preserves_distances(theta):
    rng = random.Random(3)
    sub, smap = subdivide(theta, 0.3)
    for _ in range(50):
        e1, e2 = rng.choice(theta.edges), rng.choice(theta.edges)
        x = EdgePoint(e1.id, rng.uniform(0, e1.length))
        y = EdgePoint(e2.id, rng.uniform(0, e2.length))
        d0 = point_distance(theta, x, y)
        d1 = point_distance(sub, smap.map_point(x), smap.map_point(y))
        assert d0 == pytest.approx(d1, abs=1e-9)


@pytest.mark.parametrize("h", [0.3, 0.7, 1.0])
def test_subdivision_diameter_invariance(theta, loop6, h):
    for g in (theta, loop6):
        sub, _ = subdivide(g, h)
        assert continuous_diameter(sub).value == pytest.approx(
            continuous_diameter(g).value, abs=1e-9
        )


def test_subdivide_point_roundtrip(theta):
    sub, smap = subdivide(theta, 0.3)
    p = EdgePoint("c", 1.37)
    q = smap.map_point(p)
    back = smap.point_to_base(q)
    assert back.edge == "c" and back.offset == pytest.approx(1.37, abs=1e-12)


# -------------------------------------------------------------- routes


def test_route_split_and_length(theta):
    route = PathRoute.from_legs([RouteLeg("a", 0.0, 1.0), RouteLeg("c", 2.0, 0.0)])
    validate_route(theta, route)
    assert route.length == pytest.approx(3.0)
    pieces = route.split_at([0.5, 1.5, 2.5])
    assert len(pieces) == 4
    assert sum(p.length for p in pieces) == pytest.approx(3.0)
    assert pieces[0].end == EdgePoint("a", 0.5)
    assert pieces[1].end.edge == "c"
    assert points_coincide(theta, pieces[-1].end, route.end)


def test_route_split_at_leg_boundary(theta):
    route = PathRoute.from_legs([RouteLeg("a", 0.0, 1.0), RouteLeg("c", 2.0, 0.0)])
    pieces = route.split_at([1.0])
    assert len(pieces) == 2
    assert pieces[0].length == pytest.approx(1.0)
    assert pieces[1].length == pytest.approx(2.0)


def test_route_reversed(theta):
    route = PathRoute.from_legs([RouteLeg("a", 0.2, 1.0), RouteLeg("b", 1.0, 0.4)])
    rev = route.reversed()
    assert rev.start == route.end and rev.end == route.start
    assert rev.length == pytest.approx(route.length)


def test_anchorless_empty_route_raises_invariant_error():
    route = PathRoute((), None)
    for read in (lambda r: r.start, lambda r: r.end):
        with pytest.raises(InvariantError, match="no anchor"):
            read(route)


def test_bad_route_rejected(theta):
    bad = PathRoute.from_legs([RouteLeg("a", 0.0, 0.5), RouteLeg("b", 0.5, 1.0)])
    with pytest.raises(ValueError):
        validate_route(theta, bad)


def test_shortest_route_matches_point_distance():
    rng = random.Random(11)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=6, max_edges=9)
        for _ in range(5):
            e1, e2 = rng.choice(g.edges), rng.choice(g.edges)
            x = EdgePoint(e1.id, rng.uniform(0, e1.length))
            y = EdgePoint(e2.id, rng.uniform(0, e2.length))
            r = shortest_route(g, x, y)
            validate_route(g, r)
            assert points_coincide(g, r.start, x)
            assert points_coincide(g, r.end, y)
            assert r.length == pytest.approx(point_distance(g, x, y), abs=1e-9)


def _single_source_graphs():
    for seed in (1, 7):
        for i in range(60):
            yield from _sweep_graphs(seed, i)
    rp2_cover = universal_cover.build_universal_cover(universal_cover.rp2_complex(), 100_000)
    for level in (1, 2, 3):
        pe_base, total, _ = rp2_cover.pe(level)
        yield from (pe_base.graph, total)
    rng = random.Random(4242)
    for _ in range(200):
        yield random_connected_graph(rng)


def test_single_source_matches_heapq_oracle():
    for g in _single_source_graphs():
        for source in g.vertices[:: max(1, len(g.vertices) // 4)]:
            dist, parent = g.single_source(source)
            want, _ = single_source_heapq(g, source)
            assert dist.keys() == want.keys()
            assert dist == want
            assert parent.keys() == dist.keys() - {source}
            for v, (eid, p) in parent.items():
                e = g.edge(eid)
                assert {e.u, e.v} == {p, v}
                assert abs(dist[p] + e.length - dist[v]) <= 1e-12 * dist[v]


def test_single_source_crosses_an_edge_under_half_an_ulp():
    # 1 + 1e-17 rounds to 1, so b-c is tight both ways
    g = MetricGraph(["a", "b", "c"], [("e1", "a", "b", 1.0), ("e2", "b", "c", 1e-17)])
    assert g.single_source("a") == ({"a": 0.0, "b": 1.0, "c": 1.0}, {"b": ("e1", "a"), "c": ("e2", "b")})
    assert [leg.edge for leg in vertex_route(g, "a", "c").legs] == ["e1", "e2"]


def test_single_source_parallel_tie_takes_least_id():
    g = MetricGraph(["x", "y"], [("c", "x", "y", 1.0), ("a", "x", "y", 2.0), ("b", "y", "x", 1.0)])
    assert g.single_source("x") == ({"x": 0.0, "y": 1.0}, {"y": ("b", "x")})
    assert g.single_source("y")[1] == {"x": ("b", "y")}


def test_shortest_route_across_components_raises():
    g = MetricGraph(
        ["a", "b", "c", "d"],
        [("e", "a", "b", 1.0), ("f", "c", "d", 1.0)],
        require_connected=False,
    )
    x, y = EdgePoint("e", 0.5), EdgePoint("f", 0.25)
    assert point_distance(g, x, y) == math.inf
    with pytest.raises(DisconnectedGraphError):
        shortest_route(g, x, y)
    assert shortest_route(g, x, EdgePoint("e", 0.75)).legs == (RouteLeg("e", 0.5, 0.75),)


def test_concat_routes(theta):
    r1 = PathRoute.from_legs([RouteLeg("a", 0.0, 1.0)])
    r2 = PathRoute.from_legs([RouteLeg("c", 2.0, 1.0)])
    r = concat_routes(theta, r1, r2)
    assert r.length == pytest.approx(2.0)
    r3 = PathRoute.from_legs([RouteLeg("b", 0.0, 1.0)])
    with pytest.raises(ValueError):
        concat_routes(theta, r1, r3)


# -------------------------------------------------------- file format


def test_json_roundtrip(theta):
    obj = {
        "vertices": list(theta.vertices),
        "edges": [{"id": e.id, "u": e.u, "v": e.v, "length": e.length} for e in theta.edges],
    }
    g2 = metric_graph_from_json(json.loads(json.dumps(obj)))
    assert g2.vertices == theta.vertices
    assert g2.edges == theta.edges


def test_nonpositive_length_rejected():
    obj = {
        "vertices": ["a", "b"],
        "edges": [{"id": "bad", "u": "a", "v": "b", "length": 0.0}],
    }
    with pytest.raises(ValueError, match="bad"):
        metric_graph_from_json(obj)


def test_unknown_vertex_named_in_error():
    obj = {
        "vertices": ["a"],
        "edges": [{"id": "e9", "u": "a", "v": "ghost", "length": 1.0}],
    }
    with pytest.raises(ValueError, match="e9"):
        metric_graph_from_json(obj)


# ------------------------------------------------ the index constructor


def _index_built(vertices, edges, require_connected=True):
    """The graph of (vertices, edges) made by the index constructor, with
    the names and ids sorted here."""
    names = tuple(sorted(vertices))
    at = {v: i for i, v in enumerate(names)}
    edges = sorted(edges)
    return MetricGraph._from_arrays(
        names, tuple(e[0] for e in edges), [at[e[1]] for e in edges], [at[e[2]] for e in edges],
        [e[3] for e in edges], require_connected=require_connected)


def _least_member_of_component(g):
    roots = {}
    for i, v in enumerate(g.vertices):
        if v not in roots:
            ends = lambda x: [e.v if side == "u" else e.u for e, side in g.incident(x)]
            roots.update(dict.fromkeys(bfs(v, ends), i))
    return [roots[v] for v in g.vertices]


def test_index_built_graph_matches_record_built():
    rng = random.Random(2022)
    seen = Counter()
    for _ in range(600):
        nv = rng.randint(1, 12)
        names = [f"n{x}" for x in rng.sample(range(1000), nv)]
        edges = [(f"e{x}", rng.choice(names), rng.choice(names), rng.choice((1.0, 0.5, rng.uniform(0.1, 3))))
                 for x in rng.sample(range(1000), rng.randint(0, 2 * nv))]
        want = MetricGraph(names, edges, require_connected=False)
        got = _index_built(names, edges, require_connected=False)
        for eid, *_ in edges:  # records made one at a time from the arrays
            assert got.edge(eid) == want.edge(eid)
        assert got._edges is None
        with pytest.raises(ValueError, match="unknown edge id"):
            got.edge("e-1")
        assert got.vertices == want.vertices
        assert all(np.array_equal(a, b) for a, b in zip(got.edge_arrays(), want.edge_arrays()))
        assert got.is_connected == want.is_connected
        assert list(got._components) == _least_member_of_component(want)
        assert got.edges == want.edges
        assert all(got.edge(e.id) is e for e in got.edges)  # once built, records are kept
        for v in names:
            assert got.incident(v) == want.incident(v)
            assert got.single_source(v) == want.single_source(v)
        seen["loops"] += any(u == v for _, u, v, _ in edges)
        seen["parallel"] += len({frozenset((u, v)) for _, u, v, _ in edges}) < len(edges)
        seen["disconnected"] += not want.is_connected
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize("vertices,ids,u,v,length,match", [
    ((), (), [], [], [], "at least one vertex"),
    (("b", "a"), ("x",), [0], [1], [1.0], "vertex ids must be sorted and distinct"),
    (("a", "a"), ("x",), [0], [1], [1.0], "vertex ids must be sorted and distinct"),
    (("a", "b"), ("y", "x"), [0, 0], [1, 1], [1.0, 1.0], "edge ids must be sorted and distinct"),
    (("a", "b"), ("x", "x"), [0, 0], [1, 1], [1.0, 1.0], "edge ids must be sorted and distinct"),
    (("a", "b"), ("x",), [0], [2], [1.0], "unknown vertex"),
    (("a", "b"), ("x",), [-1], [1], [1.0], "unknown vertex"),
    (("a", "b"), ("x",), [0, 1], [1], [1.0], "differ in number"),
    (("a", "b"), ("x",), [0], [1], [0.0], "positive and finite"),
    (("a", "b"), ("x",), [0], [1], [-1.0], "positive and finite"),
    (("a", "b"), ("x",), [0], [1], [math.nan], "positive and finite"),
    (("a", "b"), ("x",), [0], [1], [math.inf], "positive and finite"),
])
def test_index_constructor_rejects(vertices, ids, u, v, length, match):
    with pytest.raises(ValueError, match=match):
        MetricGraph._from_arrays(vertices, ids, u, v, length)


def test_index_constructor_checks_connectivity():
    with pytest.raises(DisconnectedGraphError):
        MetricGraph._from_arrays(("a", "b"), ("x",), [0], [0], [1.0])
    assert not MetricGraph._from_arrays(("a", "b"), ("x",), [0], [0], [1.0], require_connected=False).is_connected


# ------------------------------------------------------------ property


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_diameter_vs_mesh_on_random_graphs(seed):
    rng = random.Random(seed)
    _check_diameter_against_mesh(random_connected_graph(rng, max_vertices=5, max_edges=7))


@pytest.mark.parametrize("key", [key for key, *_ in _PINNED])
def test_diameter_vs_mesh_on_pinned_graphs(key):
    _check_diameter_against_mesh(_pinned_graphs()[key])


def _check_diameter_against_mesh(g, mesh=0.05):
    res = continuous_diameter(g)
    approx = mesh_diameter(g, mesh)
    assert approx - 1e-9 <= res.value <= approx + mesh + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_diameter_invariant_under_renaming_and_input_order(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_vertices=6, max_edges=10)
    # numeric names sort differently as strings, so the internal order changes
    vname = dict(zip(g.vertices, (f"w{x}" for x in rng.sample(range(1000), len(g.vertices)))))
    ename = dict(zip((e.id for e in g.edges), (f"f{x}" for x in rng.sample(range(1000), len(g.edges)))))
    vertices = list(vname.values())
    edges = [(ename[e.id], vname[e.u], vname[e.v], e.length) for e in g.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    # the renamed graph sums its distances in another order: values may
    # differ in the last bit (3.7e-16 relative at worst over 3000 graphs)
    renamed = continuous_diameter(MetricGraph(vertices, edges)).value
    assert renamed == pytest.approx(continuous_diameter(g).value, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_shortest_route_never_beats_distance(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng, max_vertices=6, max_edges=9)
    e1, e2 = rng.choice(g.edges), rng.choice(g.edges)
    x = EdgePoint(e1.id, rng.uniform(0, e1.length))
    y = EdgePoint(e2.id, rng.uniform(0, e2.length))
    assert shortest_route(g, x, y).length >= point_distance(g, x, y) - 1e-9
