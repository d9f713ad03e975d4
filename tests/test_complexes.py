import json
import random
import re

import pytest

from coverdiam import universal_cover
from coverdiam._search import bfs
from coverdiam.cli import sweep_base_graph
from coverdiam.complexes import (
    SimplicialComplex2,
    _sorted_neighbours,
    complex_from_json,
    flag_triangles,
    is_simply_connected,
    nerve2,
    pi1_presentation,
    spanning_tree_presentation,
)
from coverdiam.errors import DisconnectedGraphError
from coverdiam.groups import Presentation, cayley_graph, tietze_reduce, todd_coxeter
from coverdiam.metric_graph import (
    EdgePoint,
    MetricGraph,
    continuous_diameter,
    point_distance,
    points_coincide,
    validate_route,
)
from coverdiam.separator import zoo_instances

from .conftest import cyclic_powers, pseudo_projective_plane, random_connected_graph
from .oracle import (
    adjacency_by_sets,
    short_loop_generators,
    short_loop_generators_subdivided,
    spanning_tree_presentation_by_names,
)

RP2_FACES = [
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
    (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6),
]


@pytest.fixture(scope="module")
def rp2():
    return SimplicialComplex2(range(1, 7), RP2_FACES)


@pytest.fixture(scope="module")
def hex_cycle():
    return MetricGraph(
        [f"w{i}" for i in range(6)],
        [(f"h{i}", f"w{i}", f"w{(i + 1) % 6}", 1.0) for i in range(6)],
    )


# ----------------------------------------------------------- complexes


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


def test_downward_closure():
    k = SimplicialComplex2([0, 1, 2, 3], [(0, 1, 2)], [(2, 3)])
    assert k.edges == ((0, 1), (0, 2), (1, 2), (2, 3))
    assert k.f_vector == (4, 4, 1)


def test_rp2_is_a_surface(rp2):
    assert rp2.f_vector == (6, 15, 10)
    assert rp2.euler_characteristic == 1
    # every edge lies in exactly two triangles
    count = {e: 0 for e in rp2.edges}
    for a, b, c in rp2.triangles:
        for e in ((a, b), (a, c), (b, c)):
            count[e] += 1
    assert set(count.values()) == {2}


def test_complex_json_roundtrip(rp2):
    obj = complex_to_json(rp2)
    k2 = complex_from_json(json.loads(json.dumps(obj)))
    assert k2.vertices == rp2.vertices
    assert k2.edges == rp2.edges
    assert k2.triangles == rp2.triangles


# ------------------------------------------------------------------ pi1


def test_pi1_filled_triangle_is_trivial():
    k = SimplicialComplex2([0, 1, 2], [(0, 1, 2)])
    p = pi1_presentation(k)
    assert p.generator_count == len(k.edges) - (len(k.vertices) - 1) == 1
    assert todd_coxeter(p, 100).coset_count == 1


def test_pi1_empty_cycle_is_free_rank_one():
    k = SimplicialComplex2([0, 1, 2], [], [(0, 1), (1, 2), (0, 2)])
    p = pi1_presentation(k)
    assert p.generator_count == 1
    assert p.relators == ()


def test_pi1_rp2_has_order_two(rp2):
    p = pi1_presentation(rp2)
    assert todd_coxeter(p, 1000).coset_count == 2


def test_pi1_counts(rp2):
    p = pi1_presentation(rp2)
    assert p.generator_count == len(rp2.edges) - (len(rp2.vertices) - 1)
    assert len(p.relators) == len(rp2.triangles)


def test_pi1_disconnected_rejected():
    k = SimplicialComplex2([0, 1, 2, 3], [], [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        pi1_presentation(k)


def test_spanning_tree_errors_match_the_name_keyed_build():
    for k, error in ((SimplicialComplex2([]), ValueError),
                     (SimplicialComplex2([0, 1, 2, 3], [], [(0, 1), (2, 3)]), DisconnectedGraphError)):
        for build in (spanning_tree_presentation, spanning_tree_presentation_by_names):
            with pytest.raises(error):
                build(k)
    point = SimplicialComplex2(["p"])
    assert spanning_tree_presentation(point) == spanning_tree_presentation_by_names(point)


def test_spanning_tree_data(rp2):
    data = spanning_tree_presentation(rp2)
    assert len(data.tree_edges) == len(rp2.vertices) - 1
    assert len(data.generator_edges) == data.presentation.generator_count
    assert all(e not in data.tree_edges for e in data.generator_edges)


# ------------------------------------------------------ simply connected


def test_simply_connected_examples(rp2):
    tri = SimplicialComplex2([0, 1, 2], [(0, 1, 2)])
    assert is_simply_connected(tri, 100).status == "yes"
    cyc = SimplicialComplex2([0, 1, 2], [], [(0, 1), (1, 2), (0, 2)])
    res = is_simply_connected(cyc, 100)
    assert res.status == "no"
    assert "abelianization" in res.certificate
    res2 = is_simply_connected(rp2, 1000)
    assert res2.status == "no"
    assert "order 2" in res2.certificate


def test_is_connected_matches_a_search_over_names(rp2):
    # the union-find over the edge rows, against a breadth-first search over
    # the names; the PE model of each nonempty complex is connected with it
    cases = [SimplicialComplex2([]), SimplicialComplex2(["p"]), SimplicialComplex2("ab"),
             SimplicialComplex2([0, 1, 2, 3], [], [(0, 1), (2, 3)]),
             SimplicialComplex2([0, 1, 2, 3], [(1, 2, 3)]), rp2,
             SimplicialComplex2(range(5), [], [(3, 4), (1, 3), (0, 4), (2, 1)]),
             SimplicialComplex2(range(6), [(0, 4, 5), (1, 2, 3)], [(2, 5)])]
    cases += [flag_triangles(cayley_graph(todd_coxeter(inst.presentation, 100_000), inst.gens))
              for inst in zoo_instances()]
    assert {k.is_connected() for k in cases} == {True, False}
    for k in cases:
        want = not k.vertices or len(bfs(k.vertices[0], k.neighbors)) == len(k.vertices)
        assert k.is_connected() is want
        if k.vertices:
            assert universal_cover.pe_subdivision_graph(k, 2).graph.is_connected is want


# -------------------------------------------------------- flag triangles


def test_flag_k2_has_no_triangles():
    c = cayley_graph(todd_coxeter(Presentation(1, [(1, 1)]), 10), {0})
    k = flag_triangles(c)
    assert k.triangles == ()
    assert k.edges == ((0, 1),)


def test_flag_k5_has_all_triples():
    z5 = Presentation(2, [(1,) * 5, (2, -1, -1)])
    c = cayley_graph(todd_coxeter(z5, 100), {0, 1})
    k = flag_triangles(c)
    # clique-enumeration oracle: all C(5,3) triples
    from itertools import combinations

    assert set(k.triangles) == set(combinations(range(5), 3))


def test_flag_six_cycle_no_triangles():
    c = cayley_graph(todd_coxeter(Presentation(1, [(1,) * 6]), 100), {0})
    assert flag_triangles(c).triangles == ()


def test_flag_filling_keeps_the_cayley_neighbours():
    # the spanning tree and the name view read the Cayley graph's rows in
    # place of the rows rebuilt from the edges, so the two must agree
    for inst in zoo_instances():
        c = cayley_graph(todd_coxeter(inst.presentation, 100_000), inst.gens)
        k = flag_triangles(c)
        assert k._neighbour_rows is c.neighbors
        rebuilt = _sorted_neighbours(len(k.vertices), k._edge_rows)
        assert list(map(list, c.neighbors)) == rebuilt, inst.name


# ---------------------------------------------------------------- nerve


def test_nerve_antipodal_edge_midpoints(hex_cycle):
    centers = [EdgePoint("h0", 0.5), EdgePoint("h3", 0.5)]
    assert point_distance(hex_cycle, centers[0], centers[1]) == pytest.approx(3.0)
    samples = list(hex_cycle.vertices)

    def dist(x, c):
        return point_distance(hex_cycle, hex_cycle.vertex_point(x), c)

    n_wide = nerve2(centers, 2.0, samples, dist)
    assert n_wide.edges == ((0, 1),)
    n_tight = nerve2(centers, 1.0, samples, dist)
    assert n_tight.edges == ()


def test_nerve_coincident_centers():
    n = nerve2(["a", "a", "a"], 0.25, ["s"], lambda x, c: 0.0)
    assert n.triangles == ((0, 1, 2),)


def test_nerve_monotone_in_radius_and_samples(hex_cycle):
    rng = random.Random(17)
    pts = [EdgePoint(e.id, rng.uniform(0, e.length)) for e in hex_cycle.edges for _ in range(2)]
    centers = pts[:4]

    def dist_fn(x, c):
        return point_distance(hex_cycle, x, c)

    few = [EdgePoint(e.id, 0.25) for e in hex_cycle.edges[:3]]
    many = few + [EdgePoint(e.id, 0.75) for e in hex_cycle.edges]
    for r1, r2 in [(1.0, 1.5), (0.5, 2.5)]:
        small = nerve2(centers, r1, few, dist_fn)
        grown_r = nerve2(centers, r2, few, dist_fn)
        assert set(small.edges) <= set(grown_r.edges)
        assert set(small.triangles) <= set(grown_r.triangles)
        grown_s = nerve2(centers, r1, many, dist_fn)
        assert set(small.edges) <= set(grown_s.edges)
        assert set(small.triangles) <= set(grown_s.triangles)


# ------------------------------------------------ canonical constructors


def _same_fields(new, ref):
    """Equal field by field, each field of the same type; a complex builds
    its name views at first use, so both build them first."""
    for k in (new, ref) if isinstance(ref, SimplicialComplex2) else ():
        k.edges, k.triangles, [k.neighbors(v) for v in k.vertices]
    assert type(new) is type(ref) and vars(new) == vars(ref)
    assert {f: type(x) for f, x in vars(new).items()} == {f: type(x) for f, x in vars(ref).items()}


def _check_neighbours(k):
    # the one-pass neighbours from sorted edge rows, against sets sorted per vertex
    want = adjacency_by_sets(k)
    assert [tuple(map(k.vertices.__getitem__, ns))
            for ns in _sorted_neighbours(len(k.vertices), k._edge_rows)] == want
    assert [k.neighbors(v) for v in k.vertices] == want


def _check_pi1(k):
    # spanning-tree relators and their Tietze reduction, reduced and in range,
    # and the integer core against its name-keyed predecessor
    data, want = spanning_tree_presentation(k), spanning_tree_presentation_by_names(k)
    assert data == want and data.presentation.relators == want.presentation.relators
    p = data.presentation
    for q in (p, tietze_reduce(p).presentation):
        _same_fields(q, Presentation(q.generator_count, q.relators))


def _check_flag(p, gens):
    q = tietze_reduce(p).presentation
    _same_fields(q, Presentation(q.generator_count, q.relators))
    flag = flag_triangles(cayley_graph(todd_coxeter(p, 100_000), gens))
    _same_fields(flag, SimplicialComplex2(flag.vertices, flag.triangles, flag.edges))
    _check_neighbours(flag)
    _check_pi1(flag)


def _renumbered(p, rng):
    """p with its generators renumbered and its relators shuffled, as the
    benchmark's Z_n|1..k instances are."""
    number = list(range(1, p.generator_count + 1))
    rng.shuffle(number)
    words = [tuple(number[x - 1] if x > 0 else -number[-x - 1] for x in w) for w in p.relators]
    rng.shuffle(words)
    return Presentation(p.generator_count, words)


_CYCLIC_FAMILIES = [(3 * k, k) for k in range(3, 8)] + [(36, 4), (30, 5), (40, 5)]


def _check_nerves(monkeypatch, base, levels, epsilon):
    made = []

    def recording(*args, **kwargs):
        made.append(nerve2(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(universal_cover, "nerve2", recording)
    cover = universal_cover.build_universal_cover(base, 100_000)
    for level in levels:
        universal_cover.fiber_ball_nerve(cover, base.vertices[0], epsilon, level)
    assert len(made) == len(levels)
    for k in made:
        _same_fields(k, SimplicialComplex2(k.vertices, k.triangles, k.edges))
        _check_neighbours(k)


def test_canonical_constructors_on_zoo_flag_fillings():
    for inst in zoo_instances():
        _check_flag(inst.presentation, inst.gens)


def test_canonical_constructors_on_cyclic_power_flag_fillings():
    rng = random.Random(9001)
    for n, k in _CYCLIC_FAMILIES:
        _check_flag(cyclic_powers(n, k), range(k))
        _check_flag(_renumbered(cyclic_powers(n, k), rng), range(k))


def test_canonical_constructors_on_planes_and_totals():
    for order in range(3, 13):
        plane = pseudo_projective_plane(order)
        total = universal_cover.build_universal_cover(plane, 100_000).total
        for k in (plane, total):
            _check_pi1(k)
            _check_neighbours(k)


def test_canonical_constructors_on_rp2_and_plane_nerves(monkeypatch):
    _check_nerves(monkeypatch, universal_cover.rp2_complex(), (3, 4, 6), 0.25)
    for order in (3, 4, 6):
        _check_nerves(monkeypatch, pseudo_projective_plane(order), (1,), 1.0)


def test_canonical_constructors_on_small_nerves(hex_cycle):
    rng = random.Random(3)
    pts = [EdgePoint(e.id, rng.uniform(0, e.length)) for e in hex_cycle.edges for _ in range(2)]

    def dist(x, c):
        return point_distance(hex_cycle, x, c)

    for radius in (0.5, 1.0, 1.5, 2.5, 4.0):
        k = nerve2(pts[:6], radius, pts[6:], dist)
        _same_fields(k, SimplicialComplex2(range(6), k.triangles, k.edges))
        _check_neighbours(k)


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
NAMES = ("a", "b", "c", "d")


def test_from_sorted_matches_the_constructor_on_k4():
    k = SimplicialComplex2._from_sorted((0, 1, 2, 3), [(0, 1, 2), (0, 1, 3)], K4_EDGES)
    _same_fields(k, SimplicialComplex2(range(4), [(0, 1, 2), (3, 1, 0)], K4_EDGES[::-1]))
    # rows index the names, whatever the names are
    k = SimplicialComplex2._from_sorted(NAMES, [(0, 1, 2), (0, 1, 3)], K4_EDGES)
    _same_fields(k, SimplicialComplex2(NAMES, [("a", "b", "c"), ("d", "b", "a")], [("d", "c")]))
    assert k.edges[-1] == ("c", "d") and k._sides == ((0, 0), (1, 2), (3, 4))


@pytest.mark.parametrize("vertices,triangles,edges,message", [
    ((0, 1, 2, 3), [(0, 1, 3), (0, 1, 2)], K4_EDGES, "triangles must be sorted"),
    ((0, 1, 2, 3), [(0, 1, 2), (0, 1, 2)], K4_EDGES, "triangles must be sorted"),
    ((0, 1, 2, 3), [], K4_EDGES[::-1], "edges must be sorted"),
    ((0, 1, 2, 3), [], K4_EDGES + [(2, 3)], "edges must be sorted"),
    ((0, 2, 1, 3), [], K4_EDGES, "vertices must be sorted"),
    ((0, 1, 2, 3), [(1, 2, 3)], K4_EDGES[:-1], r"side \(2, 3\) is not among the edges"),
    ((0, 1, 2), [], K4_EDGES, r"edges must be rows \(i, j\) with 0 <= i < j < len"),
    ((0, 1, 2), [], [(0, 1), (0, 2), (2, 1)], "edges must be rows"),
    ((0, 1, 2), [], [(-1, 0), (0, 1)], "edges must be rows"),
    ((0, 1, 2), [(0, 2, 1)], [(0, 1), (0, 2), (1, 2)], r"side \(2, 1\) is not among"),
])
def test_from_sorted_rejects_unsorted_or_repeated_input(vertices, triangles, edges, message):
    with pytest.raises(ValueError, match=message):
        SimplicialComplex2._from_sorted(vertices, triangles, edges)


def test_from_sorted_rejects_a_triangle_side_missing_from_the_edges():
    # a flag-filling-like complex with one edge row dropped: each of the
    # triangle's three sides in turn, as ab, ac and bc
    for missing in ((0, 1), (0, 2), (1, 2)):
        edges = [e for e in K4_EDGES if e != missing]
        with pytest.raises(ValueError, match=re.escape(f"a triangle's side {missing} is not among the edges")):
            SimplicialComplex2._from_sorted((0, 1, 2, 3), [(0, 1, 2)], edges)
        assert SimplicialComplex2._from_sorted((0, 1, 2, 3), [], edges).f_vector == (4, 5, 0)


# ------------------------------------------------- short loop generators


def test_short_loops_figure_eight(figure_eight):
    loops = short_loop_generators(figure_eight, "v")
    assert len(loops) == 2
    assert all(w.length == pytest.approx(1.0) for w in loops)
    for w in loops:
        validate_route(figure_eight, w.route)
        assert points_coincide(
            figure_eight, w.route.start, figure_eight.vertex_point("v")
        )
        assert points_coincide(figure_eight, w.route.end, w.route.start)


def test_short_loops_tree_is_empty():
    tree = MetricGraph(["x", "y", "z"], [("e0", "x", "y", 1.0), ("e1", "y", "z", 0.5)])
    assert short_loop_generators(tree, "x") == ()


def test_short_loops_unreachable_edge_is_disconnected_error():
    g = MetricGraph(
        ["a", "b", "c"], [("e0", "a", "b", 1.0), ("e1", "c", "c", 1.0)], require_connected=False
    )
    with pytest.raises(DisconnectedGraphError):
        short_loop_generators(g, "a")


def test_short_loops_theta(theta):
    d = continuous_diameter(theta).value
    loops = short_loop_generators(theta, "u")
    assert len(loops) == 2  # rank of the theta graph
    for w in loops:
        assert w.length <= 2 * d * (1 + 1e-12)
        assert w.route.length == pytest.approx(w.length, rel=1e-12)


def test_short_loops_random_graphs_bound_and_rank():
    rng = random.Random(404)
    for _ in range(8):
        g = random_connected_graph(rng, max_vertices=6, max_edges=9)
        basepoint = g.vertices[0]
        rank = len(g.edges) - len(g.vertices) + 1
        d = continuous_diameter(g).value
        loops = short_loop_generators(g, basepoint)
        assert len(loops) == rank
        for w in loops:
            assert w.length <= 2 * d * (1 + 1e-12)
            validate_route(g, w.route)
            assert points_coincide(g, w.route.start, g.vertex_point(basepoint))
            assert points_coincide(g, w.route.end, g.vertex_point(basepoint))


def test_short_loops_match_subdivided_oracle():
    for i in range(200):
        g = sweep_base_graph(7, i)
        for basepoint in g.vertices[:2]:
            loops = short_loop_generators(g, basepoint)
            want = short_loop_generators_subdivided(g, basepoint, 0.1)
            assert len(loops) == len(want)
            for a, b in zip(sorted(w.length for w in loops), sorted(w.length for w in want)):
                assert a == pytest.approx(b, abs=1e-9)


def test_short_loops_have_exact_legs_in_edge_order():
    for i in range(200):
        g = sweep_base_graph(7, i)
        basepoint = g.vertices[0]
        tree = {eid for eid, _ in g.single_source(basepoint)[1].values()}
        loops = short_loop_generators(g, basepoint)
        off_tree = [e.id for e in g.edges if e.id not in tree]
        assert [{l.edge for l in w.route.legs} - tree for w in loops] == [{e} for e in off_tree]
        for w in loops:
            assert w.route.length == pytest.approx(w.length, rel=1e-12)
            for leg in w.route.legs:
                assert sorted((leg.start, leg.end)) == [0.0, g.edge(leg.edge).length], i
