import dataclasses
import functools
import gc
import json
import math
import random
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from coverdiam.complexes import (
    SimplicialComplex2,
    _sorted_neighbours,
    is_simply_connected,
    load_complex,
    spanning_tree_presentation,
)
from coverdiam.covering import Voltage, derive_cover
from coverdiam.errors import CoverNotCovering, EnumerationOverflow, InvariantError
from coverdiam.groups import CosetTable, TrivialityResult, todd_coxeter
from coverdiam.metric_graph import MetricGraph, continuous_diameter
from coverdiam.separator import left_multiplications
from coverdiam.universal_cover import (
    _check_cover_complex,
    _fiber_rows,
    _nerve_bfs_diameter,
    _Level,
    _sheet0_distances,
    build_universal_cover,
    fiber_ball_nerve,
    pe_subdivision_graph,
    rp2_complex,
    verify_universal_bound,
)

from .conftest import A5, NON_ABELIAN, assert_same_lift, presentation_complex, pseudo_projective_plane
from .oracle import (
    adjacency_by_sets,
    derive_cover_string_keyed,
    final_inequality_holds,
    full_dijkstra,
    nerve_diameter_all_sources,
    pe_subdivision_graph_records,
    pe_voltage,
    spanning_tree_presentation_by_names,
    subdivided_total_lift,
    universal_cover_tuple_loops,
)


@pytest.fixture(scope="module")
def rp2():
    return rp2_complex()


@pytest.fixture(scope="module")
def rp2_cover(rp2):
    return build_universal_cover(rp2, 10_000)


@pytest.fixture(scope="module")
def filled_triangle():
    return SimplicialComplex2([0, 1, 2], [(0, 1, 2)])


# --------------------------------------------------------------- build


def test_build_trivial_cover(filled_triangle):
    cover = build_universal_cover(filled_triangle, 100)
    assert cover.sheets == 1
    assert cover.total.f_vector == filled_triangle.f_vector
    assert cover.simply_connected.status == "yes"


def test_build_one_vertex_cover():
    # no edges: the deck checks run on empty arrays of edge permutations
    cover = build_universal_cover(SimplicialComplex2([0]), 100)
    assert (cover.sheets, cover.total.f_vector, cover.total.neighbors((0, 0))) == (1, (1, 0, 0), ())


def test_build_infinite_group_overflows():
    cyc = SimplicialComplex2([0, 1, 2], [], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(EnumerationOverflow):
        build_universal_cover(cyc, 500)


def test_build_check_raises_invariant_error(rp2, monkeypatch):
    import coverdiam.universal_cover as uc

    monkeypatch.setattr(uc, "is_simply_connected", lambda k, budget: TrivialityResult("no"))
    with pytest.raises(InvariantError, match="simple-connectivity check"):
        build_universal_cover(rp2, 10_000)


def _with_first_generator_acting_by(monkeypatch, row):
    """Make `build_universal_cover` lift through a coset table whose first
    generator acts by `row`: the edge map of the first generator edge."""
    import coverdiam.universal_cover as uc

    real = uc.todd_coxeter

    def edited(p, budget):
        return CosetTable(action=(tuple(row), *real(p, budget).action[1:]))

    monkeypatch.setattr(uc, "todd_coxeter", edited)


def test_build_rejects_an_edge_map_off_the_sheets(rp2, monkeypatch):
    edge = spanning_tree_presentation(rp2).generator_edges[0]
    _with_first_generator_acting_by(monkeypatch, (0, 0))
    with pytest.raises(InvariantError, match=rf"^star at \({edge[1]}, 0\) does not project bijectively$"):
        build_universal_cover(rp2, 10_000)


def test_build_rejects_a_triangle_that_does_not_close(rp2, monkeypatch):
    # a generator edge's swap made the identity: still a permutation of the
    # sheets, but every triangle through the edge now fails to close
    _with_first_generator_acting_by(monkeypatch, (0, 1))
    with pytest.raises(InvariantError, match="^triangle boundary fails to close over the cover$"):
        build_universal_cover(rp2, 10_000)


def test_build_rejects_a_table_without_a_row_per_generator(rp2, monkeypatch):
    import coverdiam.universal_cover as uc

    real = uc.todd_coxeter

    def one_row(p, budget):
        assert p.generator_count > 1
        return CosetTable(action=real(p, budget).action[:1])

    monkeypatch.setattr(uc, "todd_coxeter", one_row)
    with pytest.raises(InvariantError, match="^coset table has a row count other than the generator count$"):
        build_universal_cover(rp2, 10_000)


def test_build_rejects_a_disconnected_regular_representation(rp2, monkeypatch):
    import coverdiam.universal_cover as uc

    def trivial_action(p, budget):
        return CosetTable(action=((0, 1),) * p.generator_count)

    monkeypatch.setattr(uc, "todd_coxeter", trivial_action)
    with pytest.raises(InvariantError, match="^regular-representation cover is disconnected$"):
        build_universal_cover(rp2, 10_000)


def test_build_rp2_cover(rp2_cover):
    assert rp2_cover.sheets == 2
    assert rp2_cover.total.f_vector == (12, 30, 20)
    assert rp2_cover.total.euler_characteristic == 2
    assert rp2_cover.simply_connected.status == "yes"


def test_rp2_cover_is_certified_directly(rp2_cover):
    assert is_simply_connected(rp2_cover.total, 10_000).status == "yes"


def test_deck_group_free_transitive(rp2_cover):
    n = rp2_cover.sheets
    assert rp2_cover.deck.shape == (n, n) and rp2_cover.moves.shape == (len(rp2_cover.base.edges), n)
    # read-only, as every cached level derives from both
    assert not rp2_cover.deck.flags.writeable and not rp2_cover.moves.flags.writeable
    assert {rp2_cover.deck[a][0] for a in range(n)} == set(range(n))
    for a, lam in enumerate(rp2_cover.deck):
        if a != 0:
            assert all(lam[s] != s for s in range(n))


def test_deck_maps_are_simplicial(rp2_cover):
    tri_set = set(rp2_cover.total.triangles)
    for lam in rp2_cover.deck:
        for (a, sa), (b, sb), (c, sc) in rp2_cover.total.triangles:
            image = tuple(sorted(((a, lam[sa]), (b, lam[sb]), (c, lam[sc]))))
            assert image in tri_set


# ------------------------------------------------------- pe subdivision


def test_pe_level_one_is_the_one_skeleton(filled_triangle):
    pe = pe_subdivision_graph(filled_triangle, 1)
    assert len(pe.graph.vertices) == 3
    assert len(pe.graph.edges) == 3
    assert all(e.length == 1.0 for e in pe.graph.edges)


def test_pe_level_two_counts(filled_triangle):
    pe = pe_subdivision_graph(filled_triangle, 2)
    assert len(pe.graph.vertices) == 6
    assert len(pe.graph.edges) == 9
    assert all(e.length == pytest.approx(0.5) for e in pe.graph.edges)


def test_pe_rp2_level_two_vertex_count(rp2):
    pe = pe_subdivision_graph(rp2, 2)
    assert len(pe.graph.vertices) == 6 + 15  # no interior points at level 2


def test_pe_count_formulas(rp2):
    for level in (3, 4):
        pe = pe_subdivision_graph(rp2, level)
        nv, ne, nf = rp2.f_vector
        assert len(pe.graph.vertices) == nv + (level - 1) * ne + (level - 1) * (level - 2) // 2 * nf
        assert len(pe.graph.edges) == level * ne + 3 * level * (level - 1) // 2 * nf


@pytest.mark.parametrize("key", ["rp2", 3, 6, 24, "apart"])
def test_pe_graph_matches_record_built_oracle(key, rp2):
    k = {"rp2": rp2, "apart": SimplicialComplex2(range(7), [(0, 1, 2)], [(3, 4)])}.get(key)
    k = k or pseudo_projective_plane(key)
    for level in range(1, 9):
        got = pe_subdivision_graph(k, level)
        w, vertex_ids, carriers = pe_subdivision_graph_records(k, level)
        g = got.graph
        assert g.vertices == w.vertices
        assert all(np.array_equal(a, b) for a, b in zip(g.edge_arrays(), w.edge_arrays()))
        assert g.edges == w.edges
        assert all(g.incident(v) == w.incident(v) for v in w.vertices)
        # vertex by vertex: the index arrays name what the oracle's dicts name
        assert sorted(carriers) == list(g.vertices) and list(vertex_ids) == list(k.vertices)
        assert [k.vertices[c] for c in got.carrier] == [carriers[v] for v in g.vertices]
        assert [g.vertices[i] for i in got.own] == [vertex_ids[v] for v in k.vertices]
        assert g.is_connected == w.is_connected == (key != "apart")


def test_pe_and_diameters_build_no_edge_records(rp2_cover):
    pe_base, total, _ = rp2_cover.pe(6)
    continuous_diameter(pe_base.graph)
    continuous_diameter(total)
    for g in (pe_base.graph, total):
        # no id-to-edge map exists at all: edge(id) bisects the sorted ids
        assert g._edges is None and g._incident is None


def test_pe_vertex_distances_nonincreasing_under_refinement(rp2):
    pe2 = pe_subdivision_graph(rp2, 2)
    pe4 = pe_subdivision_graph(rp2, 4)
    d2 = pe2.graph.apsp()[np.ix_(pe2.own, pe2.own)]
    d4 = pe4.graph.apsp()[np.ix_(pe4.own, pe4.own)]
    assert d2.shape == d4.shape == (len(rp2.vertices),) * 2
    assert (d4 <= d2 + 1e-9).all()


def test_pe_projection_n_to_one(rp2_cover):
    base_pe, total, _ = rp2_cover.pe(3)
    # a total-model vertex "v3@1" lies over base vertex "v3"
    mapping = {dv: dv.rsplit("@", 1)[0] for dv in total.vertices}
    assert set(mapping) == set(total.vertices)
    assert Counter(mapping.values()) == {v: rp2_cover.sheets for v in base_pe.graph.vertices}
    # every cover edge lands on a base edge of its own length
    base_edges = {frozenset((e.u, e.v)): e.length for e in base_pe.graph.edges}
    for e in total.edges:
        assert base_edges[frozenset((mapping[e.u], mapping[e.v]))] == e.length


def test_monotone_refinement(rp2_cover):
    d2 = continuous_diameter(pe_subdivision_graph(rp2_cover.total, 2).graph).value
    d4 = continuous_diameter(pe_subdivision_graph(rp2_cover.total, 4).graph).value
    assert d4 <= d2 + 1e-9


# ----------------------------------------------------------- bound check


def test_bound_on_a_one_vertex_complex_has_no_ratio():
    # d_base = 0: no ratio, and d_cover = 0 < 0 + tol holds
    rep = verify_universal_bound(SimplicialComplex2(["a"]), 6, 100)
    assert (rep.sheets, rep.d_base, rep.d_cover, rep.bound) == (1, 0.0, 0.0, 0.0)
    assert rep.ratio is None and rep.corrected_ratio is None and rep.holds
    assert rep.to_json_dict()["ratio"] is None


def test_bound_trivial_instance(filled_triangle):
    rep = verify_universal_bound(filled_triangle, 4, 100)
    assert rep.sheets == 1
    assert rep.d_cover == pytest.approx(rep.d_base, abs=1e-12)
    assert rep.bound == pytest.approx(4 * rep.d_base)
    assert rep.holds


def test_bound_rp2_level_four(rp2, rp2_cover):
    rep = verify_universal_bound(rp2, 4, 10_000, cover=rp2_cover)
    assert rep.holds
    assert rep.ratio < 4 * math.sqrt(2)
    assert rep.corrected_ratio == pytest.approx(rep.ratio * 2 / math.sqrt(3))


def test_bound_ratio_stable_under_refinement(rp2, rp2_cover):
    ratios = [
        verify_universal_bound(rp2, level, 10_000, cover=rp2_cover).ratio
        for level in (2, 4)
    ]
    assert max(ratios) / min(ratios) <= 1.15


def test_bound_rejects_cover_of_another_complex(rp2, rp2_cover, filled_triangle):
    renamed = SimplicialComplex2([v + 10 for v in rp2.vertices],
                                 [tuple(v + 10 for v in t) for t in rp2.triangles])
    unfilled = SimplicialComplex2(rp2.vertices, rp2.triangles[1:], rp2.edges)
    assert unfilled.edges == rp2.edges
    for other in (filled_triangle, renamed, unfilled):
        with pytest.raises(ValueError, match="different base complex"):
            verify_universal_bound(other, 2, 10_000, cover=rp2_cover)


# ------------------------------------------------------------ fiber nerve


def test_nerve_rp2(rp2_cover):
    rep = fiber_ball_nerve(rp2_cover, p=1, epsilon=0.05, level=6, budget=10_000)
    assert rep.sheets == 2
    assert rep.nerve.edges == ((0, 1),)
    assert rep.nerve_connected
    assert rep.generator_set == (1,)
    assert rep.matches_deck_cayley
    assert rep.nerve_simply_connected.status == "yes"
    assert rep.nerve_diameter == 1
    assert rep.nerve_diameter_bound == pytest.approx(1.0)
    assert rep.nerve_diameter_ok
    assert rep.fiber_pairs_ok
    assert rep.chain_ok and rep.chain_below_sqrt_bound


def test_nerve_trivial_cover(filled_triangle):
    cover = build_universal_cover(filled_triangle, 100)
    rep = fiber_ball_nerve(cover, p=0, epsilon=0.5, level=3)
    assert rep.nerve.f_vector == (1, 0, 0)
    assert rep.nerve_diameter == 0
    assert rep.matches_deck_cayley
    assert rep.nerve_simply_connected.status == "yes"
    assert rep.fiber_pairs_ok and rep.chain_ok


def test_nerve_is_the_right_cayley_graph_of_a5():
    # at L1, p = 52, eps = 1 the generating set is proper and not closed
    # under conjugation, so left and right Cayley graphs differ
    _, cover = _cover_of("A5")
    rep = fiber_ball_nerve(cover, p=52, epsilon=1.0, level=1)
    deck, n = cover.deck, cover.sheets
    assert (n, len(rep.generator_set), rep.nerve.f_vector[1]) == (60, 54, 1620)
    right = {tuple(sorted((i, deck[i][a]))) for a in rep.generator_set for i in range(n)}
    left = {tuple(sorted((i, deck[a][i]))) for a in rep.generator_set for i in range(n)}
    assert set(rep.nerve.edges) == right != left
    assert rep.matches_deck_cayley
    assert rep.to_json_dict()["matches_deck_cayley"] is True
    assert rep.nerve_diameter == nerve_diameter_all_sources(rep.nerve) > 0


# (cover, base vertex, epsilon, level): nerves of several deck groups
_NERVE_CASES = ([("rp2-1", None, 0.05, level) for level in (3, 4, 6)]
                + [(key, None, 1.0, 1) for key in ("plane3", "plane4", "plane6", *NON_ABELIAN)]
                + [("A5", 52, 1.0, 1)])


@pytest.mark.parametrize("key,p,epsilon,level", _NERVE_CASES)
def test_deck_maps_the_nerve_onto_itself(key, p, epsilon, level):
    # the fact behind the one-search nerve diameter: each deck row is an
    # automorphism of the nerve, and the deck is transitive on its vertices
    k, cover = _cover_of(key)
    n = cover.sheets
    nerve = fiber_ball_nerve(cover, k.vertices[0] if p is None else p, epsilon, level).nerve
    assert nerve.vertices == tuple(range(n))
    for faces, width in ((nerve.edges, 2), (nerve.triangles, 3)):
        faces = np.array(faces, dtype=np.intp).reshape(-1, width)
        place = n ** np.arange(width)  # a face's sorted corners as one number

        def codes(f):
            return np.sort(np.sort(f, axis=1) @ place)

        for lam in cover.deck:
            assert np.array_equal(codes(lam[faces]), codes(faces))


def test_nerve_hop_diameter():
    # one search is exact on vertex-transitive nerves, such as cycles
    for m in (5, 8):
        cycle = SimplicialComplex2(range(m), [], [(i, (i + 1) % m) for i in range(m)])
        assert _nerve_bfs_diameter(cycle) == nerve_diameter_all_sources(cycle) == m // 2
    # any source finds a disconnected nerve
    assert _nerve_bfs_diameter(SimplicialComplex2(range(3), [], [(0, 1)])) == -1
    # the reference searches from every vertex, so a path's middle does not fool it
    path = SimplicialComplex2(range(5), [], [(i, i + 1) for i in range(4)])
    assert nerve_diameter_all_sources(path) == 4
    assert nerve_diameter_all_sources(SimplicialComplex2(range(3), [], [(0, 1)])) == -1


def _nerve_with_a_sample_at(cover, distance, monkeypatch):
    """The level-3 nerve at vertex 1 with the last sample moved to
    `distance` from every centre; the radius is d(base) + 0.05."""
    import coverdiam.universal_cover as uc

    def moved(c, level, p):
        rows, sources = _fiber_rows(c, level, p)
        rows = rows.copy()
        rows[:, -1] = distance(c.diameters(level)[0].value)
        return rows, sources

    monkeypatch.setattr(uc, "_fiber_rows", moved)
    return fiber_ball_nerve(cover, p=1, epsilon=0.05, level=3)


def test_nerve_radius_too_tight_raises(rp2_cover, monkeypatch):
    with pytest.raises(CoverNotCovering, match="level-3 total model"):
        _nerve_with_a_sample_at(rp2_cover, lambda d: 2 * d, monkeypatch)


def test_nerve_boundary_radius_check(rp2_cover, monkeypatch):
    # a sample exactly at the radius is out of reach: strictness must trip
    with pytest.raises(CoverNotCovering):
        _nerve_with_a_sample_at(rp2_cover, lambda d: d + 0.05, monkeypatch)
    rep = _nerve_with_a_sample_at(rp2_cover, lambda d: np.nextafter(d + 0.05, 0), monkeypatch)
    assert rep.radius == rep.d_base + 0.05


def test_nerve_epsilon_validation(rp2_cover):
    with pytest.raises(ValueError):
        fiber_ball_nerve(rp2_cover, p=1, epsilon=0.0, level=3)
    with pytest.raises(ValueError):
        fiber_ball_nerve(rp2_cover, p=99, epsilon=0.1, level=3)


# ------------------------------------------- PE models shared by one level

# (base, operations on one cover): ("verify", level) or ("nerve", level, eps)
_REUSE_CASES = {
    "rp2": ("rp2", [("verify", 3), ("verify", 4), ("verify", 6), ("nerve", 4, 0.05)]),
    "rp2-nerve-first": ("rp2", [("nerve", 4, 0.05), ("verify", 4)]),
    "lens3": (3, [("verify", 1), ("nerve", 1, 1.0)]),
    "lens4": (4, [("verify", 1), ("nerve", 1, 1.0)]),
    "lens6": (6, [("verify", 1), ("nerve", 1, 1.0)]),
    "lens6-nerve-first": (6, [("nerve", 1, 1.0), ("verify", 1)]),
}


def _report_bytes(k, cover, op) -> str:
    if op[0] == "verify":
        rep = verify_universal_bound(k, op[1], 100_000, cover=cover)
    else:
        rep = fiber_ball_nerve(cover, k.vertices[0], op[2], op[1])
    return json.dumps(rep.to_json_dict())


@pytest.mark.parametrize("case", sorted(_REUSE_CASES))
def test_shared_pe_models_match_a_fresh_cover(case):
    key, ops = _REUSE_CASES[case]
    k = rp2_complex() if key == "rp2" else pseudo_projective_plane(key)
    shared = build_universal_cover(k, 100_000)
    for op in ops:
        fresh = build_universal_cover(k, 100_000)
        assert _report_bytes(k, shared, op) == _report_bytes(k, fresh, op), op


def test_nerve_after_verify_reuses_both_diameters(rp2, monkeypatch):
    import coverdiam.universal_cover as uc

    calls = []
    diameter = uc.continuous_diameter

    def counted(g):
        calls.append(g)
        return diameter(g)

    monkeypatch.setattr(uc, "continuous_diameter", counted)
    cover = build_universal_cover(rp2, 10_000)
    verify_universal_bound(rp2, 4, 10_000, cover=cover)
    fiber_ball_nerve(cover, p=1, epsilon=0.05, level=4)
    assert len(calls) == 2


def test_nerve_at_an_earlier_level_recomputes_no_diameter(rp2, monkeypatch):
    import coverdiam.universal_cover as uc

    calls, apsp_calls = [], []
    diameter, apsp = uc.continuous_diameter, MetricGraph.apsp

    def counted(g):
        calls.append(g)
        return diameter(g)

    def counted_apsp(self):
        apsp_calls.append(self)
        return apsp(self)

    hop_counts, builds = MetricGraph._hop_counts, []

    def counted_hop_counts(self, indices):
        builds.append(("search", len(self.vertices), len(indices)))
        return hop_counts(self, indices)

    def counted_build(fn):
        def build(*args):
            builds.append((fn.__name__,))
            return fn(*args)
        return build

    monkeypatch.setattr(uc, "continuous_diameter", counted)
    monkeypatch.setattr(MetricGraph, "apsp", counted_apsp)
    monkeypatch.setattr(MetricGraph, "_hop_counts", counted_hop_counts)
    for fn in (uc.pe_subdivision_graph, uc._lift):
        monkeypatch.setattr(uc, fn.__name__, counted_build(fn))
    cover = build_universal_cover(rp2, 10_000)
    for level in (3, 4, 6):
        verify_universal_bound(rp2, level, 10_000, cover=cover)
    # one hop-count search per level, from the sheet-0 lifts only
    runs = [b for b in builds if b[0] == "search"]
    assert len(builds) == 9 and len(runs) == 3
    assert [b[0] for b in builds].count("_lift") == 3
    assert all(sources == size // 2 for _, size, sources in runs)
    before, built = len(apsp_calls), len(builds)
    rep = fiber_ball_nerve(cover, p=1, epsilon=0.05, level=4)
    assert len(calls) == 6
    assert len(apsp_calls) == before
    assert len(builds) == built
    monkeypatch.undo()
    fresh = fiber_ball_nerve(build_universal_cover(rp2, 10_000), p=1, epsilon=0.05, level=4)
    assert rep.fiber_distances == fresh.fiber_distances
    assert (rep.d_base, rep.d_cover) == (fresh.d_base, fresh.d_cover)


def test_cover_keeps_no_pe_model(rp2, monkeypatch):
    import coverdiam.universal_cover as uc

    made = []
    pe = uc.CoveringComplex.pe

    def recorded(self, level):
        pe_base, total, lift = pe(self, level)
        made.extend(weakref.ref(x) for x in (pe_base, pe_base.graph, total))
        return pe_base, total, lift

    monkeypatch.setattr(uc.CoveringComplex, "pe", recorded)
    cover = build_universal_cover(rp2, 10_000)
    for level in range(1, 7):
        verify_universal_bound(rp2, level, 10_000, cover=cover)
    fiber_ball_nerve(cover, p=1, epsilon=0.05, level=4)
    gc.collect()
    assert len(made) == 18
    assert all(ref() is None for ref in made)
    assert sorted(cover._levels) == list(range(1, 7))


# ------------------------------- derived PE cover against the subdivided total

_DERIVED_CASES = (
    [("triangle", level) for level in (1, 2, 3)]
    + [("rp2", level) for level in range(1, 9)]
    + [(k, level) for k in (3, 4, 6) for level in (1, 2)]
)


def _subdivided_total_cover(k, level):
    """A cover whose level record comes from subdividing `cover.total`
    itself, its sheet-0 rows read from a full Dijkstra on that model; and
    that model."""
    cover = build_universal_cover(k, 100_000)
    pe_base, pe_total = pe_subdivision_graph(k, level), pe_subdivision_graph(cover.total, level)
    lift = subdivided_total_lift(cover, pe_base.graph, pe_total.graph)
    diameters = (continuous_diameter(pe_base.graph), continuous_diameter(pe_total.graph))
    rows = full_dijkstra(pe_total.graph)[lift[pe_base.own, 0]]
    cover._levels[level] = _Level(diameters, rows, lift, pe_base.own)
    return cover, pe_total


def _edge_list(g, rename):
    return sorted(tuple(sorted((int(rename[g.vertex_index(e.u)]), int(rename[g.vertex_index(e.v)]))))
                  + (e.length,) for e in g.edges)


@pytest.mark.parametrize("key,level", _DERIVED_CASES)
def test_derived_pe_cover_matches_subdivided_total(key, level, rp2, filled_triangle):
    k = {"rp2": rp2, "triangle": filled_triangle}.get(key) or pseudo_projective_plane(key)
    cover = build_universal_cover(k, 100_000)
    reference, old = _subdivided_total_cover(k, level)
    _, derived, lift = cover.pe(level)
    # one graph: the lifts of each (base vertex, sheet) carry the same edges
    to_old = np.empty(len(derived.vertices), dtype=int)
    to_old[lift] = reference._levels[level].lift
    assert _edge_list(derived, to_old) == _edge_list(old.graph, range(len(old.graph.vertices)))
    assert continuous_diameter(derived).value == reference.diameters(level)[1].value
    assert (_report_bytes(k, cover, ("verify", level))
            == _report_bytes(k, reference, ("verify", level)))
    eps = 1.0 / level
    got = fiber_ball_nerve(cover, k.vertices[0], eps, level)
    want = fiber_ball_nerve(reference, k.vertices[0], eps, level)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert got.fiber_distances == want.fiber_distances


# ---------------------------------- deck-reduced distances against Dijkstra


def _relabelled_rp2(seed):
    k = rp2_complex()
    labels = list(range(1, len(k.vertices) + 1))
    random.Random(seed).shuffle(labels)
    name = dict(zip(k.vertices, labels))
    return SimplicialComplex2([name[v] for v in k.vertices],
                              [[name[v] for v in t] for t in k.triangles])


_COMPLEXES = {
    **{f"rp2-{seed}": functools.partial(_relabelled_rp2, seed) for seed in (1, 2, 3)},
    **{f"plane{k}": functools.partial(pseudo_projective_plane, k) for k in range(3, 25)},
    "plane5-relabelled": functools.partial(
        load_complex, Path(__file__).parent / "data" / "plane5_relabelled.json"),
    **{name: functools.partial(presentation_complex, *spec[:2]) for name, spec in NON_ABELIAN.items()},
    "A5": functools.partial(presentation_complex, *A5[:2]),
}
_DECK_CASES = (
    [(f"rp2-{seed}", level) for seed in (1, 2, 3) for level in range(1, 9)]
    + [(f"plane{k}", level) for k in range(3, 9) for level in (1, 2)]
    + [("plane5-relabelled", 1)]
    + [(name, level) for name in NON_ABELIAN for level in (1, 2)]
)


@functools.lru_cache(maxsize=None)
def _cover_of(key):
    k = _COMPLEXES[key]()
    return k, build_universal_cover(k, 100_000)


@pytest.mark.parametrize("key,level", _DECK_CASES)
def test_deck_reduced_distances_match_full_dijkstra(key, level):
    k, cover = _cover_of(key)
    pe_base, total, lift = cover.pe(level)
    cover.diameters(level)  # fills the level record that _fiber_rows reads
    assert np.array_equal(pe_base.graph.apsp(), full_dijkstra(pe_base.graph))
    full = full_dijkstra(total)
    assert np.array_equal(total.apsp(), full)
    for i, p in enumerate(k.vertices):
        fiber = list(lift[pe_base.graph.vertex_index(f"v{i}")])
        rows, sources = _fiber_rows(cover, level, p)
        assert list(sources) == fiber
        assert np.array_equal(rows, full[fiber])


@pytest.mark.parametrize("key,level", _DECK_CASES)
def test_pe_lift_matches_string_keyed_oracle(key, level):
    _, cover = _cover_of(key)
    pe_base, total, lift = cover.pe(level)
    reference = derive_cover_string_keyed(pe_base.graph, pe_voltage(cover, pe_base))
    assert_same_lift(total, lift, reference)


def test_deck_reduced_distances_need_one_edge_length():
    g = MetricGraph(["a", "b", "c"], [("x", "a", "b", 1.0), ("y", "b", "c", 1.0), ("z", "c", "a", 2.0)])
    derived = derive_cover(g, Voltage(2, {"x": (0, 1), "y": (0, 1), "z": (1, 0)}))
    lift = np.array([[derived.graph.vertex_index(derived.lift_vertex(v, s)) for s in range(2)]
                     for v in g.vertices])
    with pytest.raises(ValueError, match="one length"):
        _sheet0_distances(g, derived.graph, lift, ((0, 1), (1, 0)))


@pytest.mark.parametrize("name", NON_ABELIAN)
def test_presentation_complex_has_a_non_abelian_deck(name):
    *_, order, f_vector = NON_ABELIAN[name]
    k, cover = _cover_of(name)
    assert (k.f_vector, cover.sheets) == (f_vector, order)
    deck = cover.deck  # deck[a, 0] = a, so deck[a, deck[b, 0]] is the product ab
    assert any(deck[a][deck[b][0]] != deck[b][deck[a][0]] for a in range(order) for b in range(order))


@pytest.mark.parametrize("name", NON_ABELIAN)
def test_cover_check_rejects_a_deck_of_right_multiplications(name):
    k, cover = _cover_of(name)
    table, n = todd_coxeter(spanning_tree_presentation(k).presentation, 100_000), cover.sheets
    assert np.array_equal(left_multiplications(table), cover.deck)  # the cover's own table
    # a word for every element, along a breadth-first tree from the identity
    words, queue = {0: ()}, [0]
    letters = [x for g in range(1, len(table.action) + 1) for x in (g, -g)]
    for s in queue:
        for x in letters:
            if table.act(s, x) not in words:
                words[table.act(s, x)] = words[s] + (x,)
                queue.append(table.act(s, x))
    right = np.array([[table.trace(s, words[a]) for s in range(n)] for a in range(n)])
    assert right[:, 0].tolist() == list(range(n)) and not np.array_equal(right, cover.deck)
    with pytest.raises(InvariantError, match="does not commute"):
        _check_cover_complex(dataclasses.replace(cover, deck=right))


def test_cover_check_rejects_a_deck_map_off_the_edge_permutations():
    cover = build_universal_cover(pseudo_projective_plane(3), 100_000)
    _check_cover_complex(cover)
    deck = cover.deck.copy()
    deck[1, [0, 1]] = deck[1, [1, 0]]  # still a permutation of the sheets
    # the message names the first edge, in base.edges order, whose map the
    # first failing deck row does not commute with
    lam, moves = deck[1].tolist(), cover.moves.tolist()
    first = next(e for e, m in zip(cover.base.edges, moves) if [lam[t] for t in m] != [m[t] for t in lam])
    message = f"a deck transformation does not commute with edge {first}"
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        _check_cover_complex(dataclasses.replace(cover, deck=deck))


# ----------------------------------------- lift against the tuple-loop build


@pytest.mark.parametrize("key", [*(f"rp2-{seed}" for seed in (1, 2, 3)),
                                 *(f"plane{k}" for k in range(3, 25)), "plane5-relabelled",
                                 *NON_ABELIAN, "A5"])
def test_lift_matches_the_tuple_loop_build(key):
    k, cover = _cover_of(key)
    want = universal_cover_tuple_loops(k, 100_000)
    total, ref = cover.total, want.total
    assert total.vertices == ref.vertices
    assert total.edges == ref.edges
    assert total.triangles == ref.triangles
    assert all(total.neighbors(v) == ref.neighbors(v) for v in ref.vertices)
    assert total.f_vector == ref.f_vector == tuple(cover.sheets * x for x in k.f_vector)
    assert cover.moves.dtype == cover.deck.dtype == np.intp
    assert np.array_equal(cover.moves, want.moves) and np.array_equal(cover.deck, want.deck)
    assert (cover.sheets, cover.simply_connected) == (want.sheets, want.simply_connected)
    # the one-pass neighbours from sorted edge rows, against sets sorted per vertex
    for c in (k, total):
        assert [tuple(map(c.vertices.__getitem__, ns))
                for ns in _sorted_neighbours(len(c.vertices), c._edge_rows)] == adjacency_by_sets(c)
        assert [c.neighbors(v) for v in c.vertices] == adjacency_by_sets(c)


@pytest.mark.parametrize("key", ["rp2", *_COMPLEXES])
def test_spanning_tree_matches_the_name_keyed_build(key):
    # the integer core against its name-keyed predecessor, on the base and on
    # the total, whose vertices are (vertex, sheet) pairs
    k, cover = (rp2_complex(), None) if key == "rp2" else _cover_of(key)
    for c in (k, (cover or build_universal_cover(k, 100_000)).total):
        data, want = spanning_tree_presentation(c), spanning_tree_presentation_by_names(c)
        assert data.presentation == want.presentation
        assert data.presentation.relators == want.presentation.relators
        assert (data.tree_edges, data.generator_edges) == (want.tree_edges, want.generator_edges)
        assert type(data.generator_edges) is tuple and type(data.tree_edges) is frozenset


# ----------------------------------------------------------- arithmetic


def test_final_inequality_small_values():
    assert 2 + 2 * (math.sqrt(5) - 2) == pytest.approx(2 * math.sqrt(5) - 2)
    assert 2 * math.sqrt(5) - 2 < 4  # n = 1
    assert 2 + 2 * (math.sqrt(9) - 2) == pytest.approx(4.0)
    assert 4.0 < 4 * math.sqrt(2)  # n = 2


def test_final_inequality_sweep():
    assert final_inequality_holds(100_000)
