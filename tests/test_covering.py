import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverdiam.cli import sweep_instance, sweep_voltage
from coverdiam.errors import DisconnectedCoverError, InvariantError, PathNotLongEnough
from coverdiam.covering import (
    CoveringGraph,
    ShorteningTrace,
    Voltage,
    _lift,
    _lift_route_at,
    derive_cover,
    is_connected_cover,
    lift_path_ending_at,
    pigeonhole_shorten,
    verify_diameter_bound,
    voltage_from_json,
)
from coverdiam.metric_graph import (
    EdgePoint,
    MetricGraph,
    PathRoute,
    RouteLeg,
    continuous_diameter,
    point_distance,
    points_coincide,
    validate_route,
)

from .conftest import assert_same_lift, random_connected_graph
from .oracle import derive_cover_string_keyed


@pytest.fixture(scope="module")
def shift6_voltage():
    return Voltage(6, {"e0": list(range(6)), "e1": list(range(6)), "e2": [1, 2, 3, 4, 5, 0]})


@pytest.fixture(scope="module")
def cycle18(unit_triangle, shift6_voltage):
    return derive_cover(unit_triangle, shift6_voltage)


@pytest.fixture(scope="module")
def fig8_cover(figure_eight):
    return derive_cover(figure_eight, Voltage(2, {"a": [1, 0], "b": [0, 1]}))


def random_voltage(rng: random.Random, g: MetricGraph, sheets: int) -> Voltage:
    assignment = {}
    for e in g.edges:
        perm = list(range(sheets))
        rng.shuffle(perm)
        assignment[e.id] = perm
    return Voltage(sheets, assignment)


def random_cover_walk(rng: random.Random, cover, min_length: float) -> PathRoute:
    at = rng.choice(cover.graph.vertices)
    legs = []
    length = 0.0
    while length < min_length:
        ends = cover.graph.incident(at)
        e, side = rng.choice(ends)
        if side == "u":
            legs.append(RouteLeg(e.id, 0.0, e.length))
            at = e.v
        else:
            legs.append(RouteLeg(e.id, e.length, 0.0))
            at = e.u
        length += e.length
    return PathRoute.from_legs(legs)


# ------------------------------------------------------------ derive


def test_derive_cyclic_shift_is_single_18_cycle(cycle18):
    g = cycle18.graph
    assert len(g.vertices) == 18
    assert len(g.edges) == 18
    # brute-force: connected and every vertex has exactly two edge-ends
    assert is_connected_cover(cycle18).connected
    for v in g.vertices:
        assert len(g.incident(v)) == 2
    assert all(e.length == 1.0 for e in g.edges)


def test_derive_identity_voltage_gives_disjoint_copies(theta):
    volt = Voltage(3, {e.id: [0, 1, 2] for e in theta.edges})
    cover = derive_cover(theta, volt)
    rep = is_connected_cover(cover)
    assert not rep.connected
    assert rep.orbits == ((0,), (1,), (2,))


def test_orbits_numbered_by_first_derived_vertex():
    # "v00@0" sorts before "v0@0", so the orbit of sheet 2 comes first
    g = MetricGraph(["v0", "v00"], [("a", "v0", "v00", 1.0), ("b", "v0", "v0", 1.0)])
    rep = is_connected_cover(derive_cover(g, Voltage(3, {"a": [1, 2, 0], "b": [1, 0, 2]})))
    assert not rep.connected
    assert rep.orbits == ((2,), (0, 1))


def test_cover_names_outside_the_cover_raise_key_error(fig8_cover):
    assert fig8_cover.lift_vertex("v", 1) == "v@1" and fig8_cover.project_edge("a@1") == ("a", 1)
    for call, args in [
        (fig8_cover.lift_vertex, ("w", 0)), (fig8_cover.lift_vertex, ("v", 2)),
        (fig8_cover.lift_vertex, ("v", -1)), (fig8_cover.lift_vertex, (0, 0)),
        (fig8_cover.lift_edge, ("v", 0)), (fig8_cover.lift_edge, ("a", 0.5)),
        (fig8_cover.project_vertex, ("v@2",)), (fig8_cover.project_vertex, ("a@0",)),
        (fig8_cover.project_edge, ("a@01",)), (fig8_cover.project_edge, ("b",)),
    ]:
        with pytest.raises(KeyError):
            call(*args)


def test_derive_figure_eight(fig8_cover):
    g = fig8_cover.graph
    assert len(g.vertices) == 2
    assert len(g.edges) == 4
    # two a-edges joining the sheets, one b-loop per sheet
    a_edges = [e for e in g.edges if fig8_cover.project_edge(e.id)[0] == "a"]
    b_edges = [e for e in g.edges if fig8_cover.project_edge(e.id)[0] == "b"]
    assert all(e.u != e.v for e in a_edges)
    assert all(e.u == e.v for e in b_edges)
    assert is_connected_cover(fig8_cover).connected


def test_derive_missing_assignment(unit_triangle):
    with pytest.raises(ValueError, match="missing"):
        derive_cover(unit_triangle, Voltage(2, {"e0": [0, 1]}))


def test_derive_unknown_assignment(unit_triangle):
    assignment = {e.id: [0, 1] for e in unit_triangle.edges}
    assignment["e9"] = [1, 0]
    with pytest.raises(ValueError, match=r"unknown edges \['e9'\]"):
        derive_cover(unit_triangle, Voltage(2, assignment))


def test_voltage_validation():
    with pytest.raises(ValueError):
        Voltage(3, {"e0": [0, 0, 1]})
    with pytest.raises(ValueError):
        Voltage(0, {})


def voltage_to_json(v: Voltage) -> dict:
    return {"sheets": v.sheets, "voltages": {e: list(p) for e, p in sorted(v.assignment.items())}}


def test_voltage_json_roundtrip(shift6_voltage):
    obj = voltage_to_json(shift6_voltage)
    v2 = voltage_from_json(obj)
    assert v2.sheets == 6 and v2.assignment == shift6_voltage.assignment


# ------------------------------------------------------------ lifting


def lift_path(c: CoveringGraph, base: PathRoute, start_sheet: int) -> PathRoute:
    """The unique lift starting on the derived copy (first edge, start_sheet).

    Projects back to the input with identical length.
    """
    if not (0 <= start_sheet < c.sheets):
        raise ValueError(f"sheet {start_sheet} out of range")
    c.base.check_point(base.start)
    start = EdgePoint(c.lift_edge(base.start.edge, start_sheet), base.start.offset)
    return _lift_route_at(c, base, start)


def test_lift_loop_a_crosses_sheets(fig8_cover):
    loop_a = PathRoute.from_legs([RouteLeg("a", 0.0, 1.0)])
    lifted = lift_path(fig8_cover, loop_a, 0)
    assert fig8_cover.fiber_sheet(lifted.end) == 1
    assert lifted.length == 1.0


def test_lift_loop_b_stays(fig8_cover):
    loop_b = PathRoute.from_legs([RouteLeg("b", 0.0, 1.0)])
    lifted = lift_path(fig8_cover, loop_b, 0)
    assert fig8_cover.fiber_sheet(lifted.end) == 0
    assert lifted.length == 1.0


def test_lift_empty_route(fig8_cover):
    p = EdgePoint("a", 0.25)
    lifted = lift_path(fig8_cover, PathRoute.empty(p), 1)
    assert lifted.is_empty
    assert lifted.start == EdgePoint("a@1", 0.25)


def test_lift_project_roundtrip(cycle18, fig8_cover):
    rng = random.Random(21)
    for cover in (cycle18, fig8_cover):
        for _ in range(25):
            walk = random_cover_walk(rng, cover, rng.uniform(0.5, 6.0))
            base = cover.project_route(walk)
            validate_route(cover.base, base)
            # the lift is indexed by the sheet of the first leg's edge copy
            start_edge_sheet = cover.project_edge(walk.legs[0].edge)[1]
            relift = lift_path(cover, base, start_edge_sheet)
            assert relift.legs == walk.legs
            assert relift.length == walk.length
            assert cover.project_route(relift).legs == base.legs


def test_lift_ending_at(cycle18):
    walk = PathRoute.from_legs([RouteLeg("e0@0", 0.0, 1.0), RouteLeg("e1@0", 0.0, 1.0)])
    base = cycle18.project_route(walk)
    lifted = lift_path_ending_at(cycle18, base, walk.end)
    assert lifted.legs == walk.legs


# ------------------------------------------------- deck transformations


@dataclass(frozen=True)
class DeckTransformation:
    """A cover self-isomorphism over the base, as vertex and edge relabelings."""

    vertex_map: dict
    edge_map: dict

    def apply_vertex(self, dv: str) -> str:
        return self.vertex_map[dv]


def deck_transformations(c: CoveringGraph) -> tuple[DeckTransformation, ...]:
    """All automorphisms of the derived graph commuting with the projection.

    Determined by the image of one fiber point and propagated along edges;
    inconsistent candidates are discarded.  For regular covers the count
    equals the sheet number.
    """
    report = is_connected_cover(c)
    if not report.connected:
        raise DisconnectedCoverError("deck transformations need a connected cover")
    root = c.base.vertices[0]
    found: list[DeckTransformation] = []
    for target in range(c.sheets):
        image: dict[str, int] = {c.lift_vertex(root, 0): target}
        queue = [c.lift_vertex(root, 0)]
        ok = True
        while queue and ok:
            dv = queue.pop()
            base_v, _ = c.project_vertex(dv)
            for e, side in c.base.incident(base_v):
                perm = c.voltage.perm(e.id)
                inv = c.voltage.inverse_perm(e.id)
                s_here = c.project_vertex(dv)[1]
                if side == "u":
                    other = c.lift_vertex(e.v, perm[s_here])
                    other_image = perm[image[dv]]
                else:
                    other = c.lift_vertex(e.u, inv[s_here])
                    other_image = inv[image[dv]]
                if other in image:
                    if image[other] != other_image:
                        ok = False
                        break
                else:
                    image[other] = other_image
                    queue.append(other)
        if not ok:
            continue
        vertex_map = {}
        for dv, sheet in image.items():
            base_v, _ = c.project_vertex(dv)
            vertex_map[dv] = c.lift_vertex(base_v, sheet)
        if sorted(vertex_map.values()) != sorted(c.graph.vertices):
            continue
        edge_map = {}
        consistent = True
        for de in c.graph.edges:
            base_e, s = c.project_edge(de.id)
            u_img = vertex_map[de.u]
            img_sheet = c.project_vertex(u_img)[1]
            de_img = c.lift_edge(base_e, img_sheet)
            if vertex_map[de.v] != c.graph.edge(de_img).v:
                consistent = False
                break
            edge_map[de.id] = de_img
        if consistent:
            found.append(DeckTransformation(vertex_map, edge_map))
    return tuple(found)


def test_deck_cycle18_is_cyclic_of_order_six(cycle18):
    decks = deck_transformations(cycle18)
    assert len(decks) == 6
    # the group is cyclic: some element has full orbit on the fiber over v0
    fiber = [cycle18.lift_vertex("v0", s) for s in range(6)]
    orders = []
    for t in decks:
        x = fiber[0]
        k = 0
        while True:
            x = t.apply_vertex(x)
            k += 1
            if x == fiber[0]:
                break
            assert k <= 6
        orders.append(k)
    assert max(orders) == 6


def test_deck_double_cover_of_loop():
    loop = MetricGraph(["v"], [("e", "v", "v", 1.0)])
    cover = derive_cover(loop, Voltage(2, {"e": [1, 0]}))
    decks = deck_transformations(cover)
    assert len(decks) == 2


def test_deck_figure_eight(fig8_cover):
    decks = deck_transformations(fig8_cover)
    assert len(decks) == 2
    swap = [t for t in decks if t.apply_vertex("v@0") == "v@1"]
    assert len(swap) == 1


def test_deck_transformations_are_isometries(cycle18):
    g = cycle18.graph
    dm, at = g.apsp(), g.vertex_index
    for t in deck_transformations(cycle18):
        for u in g.vertices:
            for v in g.vertices:
                assert dm[at(u), at(v)] == pytest.approx(
                    dm[at(t.apply_vertex(u)), at(t.apply_vertex(v))], abs=1e-9
                )


def test_deck_requires_connected(theta):
    cover = derive_cover(theta, Voltage(2, {e.id: [0, 1] for e in theta.edges}))
    with pytest.raises(DisconnectedCoverError):
        deck_transformations(cover)


# ------------------------------------------------------------- bound


def test_bound_sharp_on_cyclic_cover(unit_triangle, shift6_voltage):
    rep = verify_diameter_bound(unit_triangle, shift6_voltage)
    assert rep.d_base == pytest.approx(1.5, abs=1e-9)
    assert rep.d_cover == pytest.approx(9.0, abs=1e-9)
    assert rep.holds


def test_bound_trivial_cover(theta):
    volt = Voltage(1, {e.id: [0] for e in theta.edges})
    rep = verify_diameter_bound(theta, volt)
    assert rep.d_cover == pytest.approx(rep.d_base, abs=1e-12)
    assert rep.holds


def test_bound_figure_eight(figure_eight):
    rep = verify_diameter_bound(figure_eight, Voltage(2, {"a": [1, 0], "b": [0, 1]}))
    assert rep.d_base == pytest.approx(1.0, abs=1e-9)
    assert rep.d_cover <= 2.0 + 1e-9
    assert rep.holds


def test_bound_disconnected_cover_rejected(theta):
    volt = Voltage(2, {e.id: [0, 1] for e in theta.edges})
    with pytest.raises(DisconnectedCoverError):
        verify_diameter_bound(theta, volt)


def test_bound_random_sweep_small():
    rng = random.Random(99)
    done = 0
    while done < 25:
        g = random_connected_graph(rng, max_vertices=6, max_edges=9)
        rank = len(g.edges) - len(g.vertices) + 1
        sheets = 1 if rank == 0 else rng.randint(1, 4)
        volt = random_voltage(rng, g, sheets)
        cover = derive_cover(g, volt)
        if not is_connected_cover(cover).connected:
            continue
        d_base = continuous_diameter(g).value
        d_cover = continuous_diameter(cover.graph).value
        assert d_cover <= sheets * d_base + 1e-9
        done += 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), instance=st.integers(0, 99))
def test_bound_invariant_under_sheet_relabelling(seed, instance):
    g, volt, _, _ = sweep_instance(seed, instance)
    n = volt.sheets
    pi = list(range(n))
    random.Random(seed).shuffle(pi)
    # pi sigma pi^-1: sheet pi[s] goes where sheet s went, renamed by pi
    conjugated = {}
    for eid, sigma in volt.assignment.items():
        perm = [0] * n
        for s in range(n):
            perm[pi[s]] = pi[sigma[s]]
        conjugated[eid] = perm
    before = verify_diameter_bound(g, volt)
    after = verify_diameter_bound(g, Voltage(n, conjugated))
    assert after.holds == before.holds
    assert after.d_cover == pytest.approx(before.d_cover, rel=1e-12)


# --------------------------------------------------------- shortening


def shorten_until_bound(
    c: CoveringGraph, route: PathRoute, max_steps: int = 1000
) -> tuple[PathRoute, tuple[ShorteningTrace, ...]]:
    """Iterate pigeonhole_shorten until the route is within sheets * d(base)."""
    traces = []
    current = route
    for _ in range(max_steps):
        try:
            trace = pigeonhole_shorten(c, current)
        except PathNotLongEnough:
            return current, tuple(traces)
        traces.append(trace)
        current = trace.shortened
    raise RuntimeError(f"no convergence within {max_steps} shortening steps")


def cycle_walk(cover, steps):
    legs = []
    at = cover.lift_vertex("v0", 0)
    for _ in range(steps):
        nxt = next(e for e in cover.graph.edges if e.u == at)
        legs.append(RouteLeg(nxt.id, 0.0, nxt.length))
        at = nxt.v
    return PathRoute.from_legs(legs)


def test_shorten_cycle_route(cycle18):
    route = cycle_walk(cycle18, 10)
    assert route.length == pytest.approx(10.0)
    trace = pigeonhole_shorten(cycle18, route)
    sigma = trace.shortened
    assert sigma.length < 10.0
    assert points_coincide(cycle18.graph, sigma.start, route.start)
    assert points_coincide(cycle18.graph, sigma.end, route.end)
    # shortest possible comparison: Dijkstra-style exact distance in the cover
    assert sigma.length >= point_distance(cycle18.graph, route.start, route.end) - 1e-9


def test_cover_check_raises_invariant_error(unit_triangle, shift6_voltage, monkeypatch):
    # past the voltage's own check: the lift of e2 on sheet 5 ends on sheet 5,
    # so one sheet's star over e2's far end gets two ends of it and another none
    monkeypatch.setitem(shift6_voltage.assignment, "e2", (1, 2, 3, 4, 5, 5))
    with pytest.raises(InvariantError, match="does not project bijectively onto edge e2"):
        derive_cover(unit_triangle, shift6_voltage)


def test_lift_matches_string_keyed_oracle_on_every_sweep_attempt():
    attempts = 0
    for instance in range(200):
        g, volt, _, resamples = sweep_instance(7, instance)
        for attempt in range(resamples + 1):
            v = sweep_voltage(7, instance, g, volt.sheets, attempt)
            reference = derive_cover_string_keyed(g, v)
            assert_same_lift(*_lift(g, [v.perm(e.id) for e in g.edges], v.sheets), reference)
            cover = derive_cover(g, v)
            assert cover.graph.edges == reference.graph.edges
            vlift, elift, vproj, eproj = reference.maps
            assert all(cover.lift_vertex(*key) == name for key, name in vlift.items())
            assert all(cover.lift_edge(*key) == name for key, name in elift.items())
            assert all(cover.project_vertex(name) == key for name, key in vproj.items())
            assert all(cover.project_edge(name) == key for name, key in eproj.items())
            attempts += 1
    assert attempts > 200  # some rows resample


def test_shorten_boundary_length_rejected(cycle18):
    route = cycle_walk(cycle18, 9)
    with pytest.raises(PathNotLongEnough):
        pigeonhole_shorten(cycle18, route)


def test_shorten_figure_eight_word(fig8_cover):
    legs = [
        RouteLeg("a@0", 0.0, 1.0),
        RouteLeg("a@1", 0.0, 1.0),
        RouteLeg("b@0", 0.0, 1.0),
        RouteLeg("b@0", 0.0, 1.0),
    ]
    route = PathRoute.from_legs(legs)
    trace = pigeonhole_shorten(fig8_cover, route)
    assert trace.shortened.length < 4.0
    assert points_coincide(fig8_cover.graph, trace.shortened.start, route.start)
    assert points_coincide(fig8_cover.graph, trace.shortened.end, route.end)
    assert trace.shortened.length >= point_distance(
        fig8_cover.graph, route.start, route.end
    ) - 1e-9


def test_shorten_replacements_within_diameter(cycle18):
    trace = pigeonhole_shorten(cycle18, cycle_walk(cycle18, 12))
    d = cycle18.base_diameter().value
    for alpha, piece in zip(trace.replacements, trace.pieces):
        assert alpha.length <= d + 1e-9
        assert piece.length > d - 1e-9


def test_shorten_trace_is_deterministic(cycle18):
    route = cycle_walk(cycle18, 11)
    t1 = pigeonhole_shorten(cycle18, route)
    t2 = pigeonhole_shorten(cycle18, route)
    assert t1.match == t2.match
    assert t1.shortened.legs == t2.shortened.legs


def test_shorten_iteration_terminates(cycle18, fig8_cover):
    rng = random.Random(1234)
    for cover in (cycle18, fig8_cover):
        n, d = cover.sheets, cover.base_diameter().value
        for _ in range(5):
            route = random_cover_walk(rng, cover, n * d + rng.uniform(0.5, 3.0))
            final, traces = shorten_until_bound(cover, route, max_steps=80)
            assert final.length <= n * d + 1e-9
            lengths = [route.length] + [t.shortened.length for t in traces]
            assert all(b < a for a, b in zip(lengths, lengths[1:]))
            assert points_coincide(cover.graph, final.start, route.start)
            assert points_coincide(cover.graph, final.end, route.end)


def test_shorten_interior_start(cycle18):
    # route starting and ending mid-edge
    legs = [RouteLeg("e0@0", 0.5, 1.0)]
    legs += [RouteLeg(e, 0.0, 1.0) for e in ["e1@0", "e2@0", "e0@1", "e1@1", "e2@1", "e0@2", "e1@2", "e2@2", "e0@3"]]
    legs += [RouteLeg("e1@3", 0.0, 0.75)]
    route = PathRoute.from_legs(legs)
    assert route.length == pytest.approx(10.25)
    trace = pigeonhole_shorten(cycle18, route)
    assert trace.shortened.length < route.length
    assert points_coincide(cycle18.graph, trace.shortened.start, route.start)
    assert points_coincide(cycle18.graph, trace.shortened.end, route.end)
