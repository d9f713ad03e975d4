"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``) and
enforces its wall-time budget alongside the numeric tolerances.
"""

import math
import random
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

from coverdiam.cli import ExperimentConfig, run
from coverdiam.complexes import (
    SimplicialComplex2,
    load_complex,
    pi1_presentation,
)
from coverdiam.covering import (
    Voltage,
    derive_cover,
    pigeonhole_shorten,
    verify_diameter_bound,
)
from coverdiam.errors import PathNotLongEnough
from coverdiam.groups import Presentation, todd_coxeter
from coverdiam.metric_graph import (
    EdgePoint,
    MetricGraph,
    PathRoute,
    RouteLeg,
    continuous_diameter,
    points_coincide,
)
from coverdiam.separator import verify_cayley_bound, zoo_instances
from coverdiam.universal_cover import (
    build_universal_cover,
    fiber_ball_nerve,
    pe_subdivision_graph,
    rp2_complex,
    verify_universal_bound,
)

from .conftest import pseudo_projective_plane, random_connected_graph
from .oracle import (
    check_separation,
    check_size_bounds,
    final_inequality_holds,
    layer_sum_inequality_holds,
    short_loop_generators,
    sphere_decomposition,
)


@contextmanager
def criterion(name: str, limit_seconds: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[PASS] {name} ({elapsed:.2f}s, limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds, f"{name} exceeded {limit_seconds}s: {elapsed:.2f}s"


# shared zoo results: computed once, used by the zoo and separator criteria
_zoo_cache: dict = {}


def _zoo_reports():
    if "reports" not in _zoo_cache:
        t0 = time.perf_counter()
        _zoo_cache["reports"] = [
            (inst, verify_cayley_bound(inst.presentation, inst.gens, 100_000))
            for inst in zoo_instances()
        ]
        _zoo_cache["elapsed"] = time.perf_counter() - t0
    return _zoo_cache["reports"], _zoo_cache["elapsed"]


def test_sharpness_of_six_sheet_cyclic_cover(unit_triangle):
    with criterion("sharpness: 6-sheet cyclic cover attains sheets * diameter", 1.0):
        voltage = Voltage(
            6, {"e0": list(range(6)), "e1": list(range(6)), "e2": [1, 2, 3, 4, 5, 0]}
        )
        rep = verify_diameter_bound(unit_triangle, voltage)
        assert abs(rep.d_base - 1.5) <= 1e-9
        assert abs(rep.d_cover - 9.0) <= 1e-9
        assert abs(rep.d_cover - 6 * rep.d_base) <= 1e-9
        assert rep.holds


def test_cover_diameter_bound_on_seeded_sweep():
    with criterion("cover bound sweep: 100 seeded connected covers", 60.0):
        report = run(ExperimentConfig(command="sweep-cover", seed=42, count=100, tol=1e-9))
        assert len(report.rows) == 100
        assert report.summary["fail"] == 0
        assert report.summary["error"] == 0
        for row in report.rows:
            assert row["d_cover"] <= row["sheets"] * row["d_base"] + 1e-9


def _shipped_covers(scale: float = 1.0):
    def graph(vertices, edges):
        return MetricGraph(vertices, [(e, a, b, length * scale) for e, a, b, length in edges])

    triangle = graph(
        ["v0", "v1", "v2"],
        [("e0", "v0", "v1", 1.0), ("e1", "v1", "v2", 1.0), ("e2", "v2", "v0", 1.0)],
    )
    fig8 = graph(["v"], [("a", "v", "v", 1.0), ("b", "v", "v", 1.0)])
    theta = graph(
        ["u", "v"], [("a", "u", "v", 1.0), ("b", "u", "v", 1.0), ("c", "u", "v", 2.0)]
    )
    return [
        derive_cover(triangle, Voltage(6, {"e0": list(range(6)), "e1": list(range(6)), "e2": [1, 2, 3, 4, 5, 0]})),
        derive_cover(fig8, Voltage(2, {"a": [1, 0], "b": [0, 1]})),
        derive_cover(theta, Voltage(2, {"a": [0, 1], "b": [1, 0], "c": [0, 1]})),
    ]


def _seeded_walk(rng, cover, min_length):
    at = rng.choice(cover.graph.vertices)
    legs = []
    total = 0.0
    while total < min_length:
        e, side = rng.choice(cover.graph.incident(at))
        if side == "u":
            legs.append(RouteLeg(e.id, 0.0, e.length))
            at = e.v
        else:
            legs.append(RouteLeg(e.id, e.length, 0.0))
            at = e.u
        total += e.length
    return PathRoute.from_legs(legs)


def _shorten_seeded_routes(scale: float) -> None:
    rng = random.Random(2024)
    covers = _shipped_covers(scale)
    for k in range(25):
        cover = covers[k % len(covers)]
        n, d = cover.sheets, cover.base_diameter().value
        route = _seeded_walk(rng, cover, n * d + rng.uniform(0.5, 4.0) * scale)
        current = route
        steps = 0
        while True:
            try:
                trace = pigeonhole_shorten(cover, current)
            except PathNotLongEnough:
                break
            assert trace.shortened.length < current.length, k
            assert points_coincide(cover.graph, trace.shortened.start, current.start)
            assert points_coincide(cover.graph, trace.shortened.end, current.end)
            current = trace.shortened
            steps += 1
            assert steps <= 50
        assert current.length <= n * d * (1 + 1e-12), k
        assert points_coincide(cover.graph, current.start, route.start)
        assert points_coincide(cover.graph, current.end, route.end)


def test_constructive_shortening_converges():
    with criterion("shortening: 25 seeded routes reach the bound in <= 50 steps", 30.0):
        _shorten_seeded_routes(1.0)


@pytest.mark.parametrize("scale", [1e-6, 1e6, 1e9])
def test_constructive_shortening_converges_at_any_scale(scale):
    # a route exactly at sheets * d(base), which rounding leaves an ulp
    # above the computed bound, is within the bound and not shortened
    with criterion(f"shortening: the 25 seeded routes, lengths scaled by {scale:g}", 30.0):
        _shorten_seeded_routes(scale)


def test_cayley_bound_zoo():
    reports, elapsed = _zoo_reports()
    with criterion("zoo: square-root bound on every certified instance", max(1.0, 120.0 - elapsed)):
        names = {inst.name for inst, _ in reports}
        assert len(reports) == len(names) == 78
        for inst, rep in reports:
            assert rep.verdict != "violated", inst.name
            if rep.simply_connected.status == "yes":
                assert rep.diameter <= rep.bound + 1e-9, inst.name
        by_name = {inst.name: rep for inst, rep in reports}
        z12 = by_name["Z12|1"]
        assert z12.verdict == "hypothesis_failed"
        assert z12.diameter == 6
        assert abs(z12.bound - 5.0) <= 1e-9
        assert z12.diameter > z12.bound  # necessity of the hypothesis
        assert any(rep.verdict == "holds" for _, rep in reports)
    assert elapsed < 120.0


def test_cayley_rank_certificate_on_z160():
    with criterion("cayley: Z160 on a, a^2, .., a^8 certified by the exponent rank", 1.0):
        p = Presentation(8, [(1,) * 160] + [(j,) + (-1,) * j for j in range(2, 9)])
        rep = verify_cayley_bound(p, range(8), 100_000)
        assert rep.verdict == "hypothesis_failed"
        assert rep.simply_connected.certificate == (
            "abelianization infinite: exponent matrix rank 1120 < 1121"
        )


def test_separator_structure_on_certified_instances():
    reports, elapsed = _zoo_reports()
    with criterion("separator: layer components on certified instances", max(1.0, 120.0 - elapsed)):
        certified = [
            (inst, rep) for inst, rep in reports if rep.simply_connected.status == "yes"
        ]
        assert certified
        interior_seen = False
        for inst, rep in certified:
            d = sphere_decomposition(rep.cayley)
            for i in range(1, d.diameter):
                interior_seen = True
                assert check_separation(rep.cayley, d, i), (inst.name, i)
            sb = check_size_bounds(d)
            assert sb.all_bounds_hold, inst.name
            assert sb.disjoint, inst.name
            assert sb.sum_ok, inst.name
        assert interior_seen  # at least one instance exercises interior layers


def test_arithmetic_closures():
    with criterion("arithmetic: layer-sum and constant-composition sweeps to 1e6", 5.0):
        assert layer_sum_inequality_holds(10**6)
        assert final_inequality_holds(10**6)


def test_universal_cover_pipeline_on_projective_plane():
    with criterion("universal cover: double cover of the 6-vertex projective plane", 120.0):
        k = rp2_complex()
        cover = build_universal_cover(k, 100_000)
        assert cover.sheets == 2
        assert cover.total.f_vector == (12, 30, 20)
        assert cover.total.euler_characteristic == 2
        assert cover.simply_connected.status == "yes"
        ratios = {}
        for level in (3, 4, 5, 6):
            rep = verify_universal_bound(k, level, 100_000, tol=1e-9, cover=cover)
            assert rep.holds, f"level {level}"
            ratios[level] = rep.ratio
        assert ratios[6] < 4 * math.sqrt(2)
        assert max(ratios.values()) / min(ratios.values()) <= 1.15
        print(
            "  ratio by level:",
            {k_: round(v, 6) for k_, v in ratios.items()},
            "(cap 4*sqrt(2) ~ 5.657)",
        )


def _relabelled(k: SimplicialComplex2, rng: random.Random) -> SimplicialComplex2:
    labels = list(range(1, len(k.vertices) + 1))
    rng.shuffle(labels)
    name = dict(zip(k.vertices, labels))
    return SimplicialComplex2(labels, [[name[v] for v in t] for t in k.triangles])


def test_relabelled_order_five_plane_enumerates():
    # this renumbering of the order-5 plane once ran for minutes
    p = pi1_presentation(load_complex(Path(__file__).parent / "data" / "plane5_relabelled.json"))
    assert p.generator_count == 45
    with criterion("groups: relabelled order-5 plane enumerates", 0.1):
        assert todd_coxeter(p, 100_000).coset_count == 5


def test_relabelled_planes_build():
    for order in range(3, 13):
        plane = pseudo_projective_plane(order)
        for seed in range(16):
            k = _relabelled(plane, random.Random(f"plane:{order}:{seed}"))
            with criterion(f"universal cover: order-{order} plane, relabelling {seed}", 1.0):
                cover = build_universal_cover(k, 100_000)
            assert cover.sheets == order and cover.simply_connected.status == "yes"


def test_order_24_plane_builds():
    with criterion("universal cover: order-24 pseudo-projective plane", 1.0):
        cover = build_universal_cover(pseudo_projective_plane(24), 100_000)
    assert cover.sheets == 24 and cover.simply_connected.status == "yes"


def test_continuous_diameter_on_rp2_level_twelve():
    cover = build_universal_cover(rp2_complex(), 100_000)
    g = pe_subdivision_graph(cover.total, 12).graph
    assert len(g.edges) == 4320  # 9,329,040 edge pairs
    g.apsp()
    tracemalloc.start()
    try:
        with criterion("diameter: RP^2 cover at level 12, APSP given, peak < 32 MB", 0.5):
            res = continuous_diameter(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.value == pytest.approx(3.0, rel=1e-12)
    assert peak < 32 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_continuous_diameter_on_rp2_base_level_twelve():
    # every base vertex has eccentricity 1.5, so the edge bound prunes no
    # edge: the far-corner filter decides which pairs are formed
    g = pe_subdivision_graph(rp2_complex(), 12).graph
    assert len(g.edges) == 2160  # 2,331,720 edge pairs
    g.apsp()
    tracemalloc.start()
    try:
        with criterion("diameter: RP^2 base at level 12, APSP given, peak < 8 MB", 0.15):
            res = continuous_diameter(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.value == pytest.approx(37 / 24, rel=1e-12)
    assert peak < 8 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_continuous_diameter_on_order_twelve_plane_level_two():
    cover = build_universal_cover(pseudo_projective_plane(12), 100_000)
    g = cover.pe(2)[1]
    assert len(g.edges) == 7416  # 27,494,820 edge pairs, 612,612 tied at the diameter
    g.apsp()
    tracemalloc.start()
    try:
        with criterion("diameter: order-12 plane cover at level 2, APSP given, peak < 64 MB", 1.0):
            res = continuous_diameter(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.value, res.witness) == (4.5, (EdgePoint("E0:0@0", 0.25), EdgePoint("E0:0@10", 0.25)))
    assert peak < 64 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_continuous_diameter_on_order_twelve_plane_level_three():
    cover = build_universal_cover(pseudo_projective_plane(12), 100_000)
    g = cover.pe(3)[1]
    assert len(g.edges) == 16956
    g.apsp()
    tracemalloc.start()
    try:
        with criterion("diameter: order-12 plane cover at level 3, APSP given, peak < 32 MB", 4.0):
            res = continuous_diameter(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    offset = 0.16666666666666652
    assert (res.value, res.witness) == (
        4.333333333333332, (EdgePoint("E0:0@0", offset), EdgePoint("E0:0@10", offset)))
    assert peak < 32 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_fiber_ball_nerve_pipeline():
    with criterion("nerve: fiber balls over the projective plane cover", 60.0):
        cover = build_universal_cover(rp2_complex(), 100_000)
        rep = fiber_ball_nerve(cover, p=1, epsilon=0.05, level=6, budget=100_000)
        assert rep.sheets == 2
        assert rep.nerve.edges == ((0, 1),)
        assert rep.generator_set == (1,)
        assert rep.matches_deck_cayley
        assert rep.nerve_simply_connected.status == "yes"
        assert rep.nerve_diameter == 1
        assert abs(rep.nerve_diameter_bound - (math.sqrt(4 * 2 + 1) - 2)) <= 1e-12
        assert rep.nerve_diameter <= rep.nerve_diameter_bound + 1e-9
        pair_cap = (math.sqrt(9) - 2) * 2 * (rep.d_base + 0.05)
        for i in range(2):
            for j in range(2):
                if i != j:
                    assert rep.fiber_distances[i][j] < pair_cap
        assert rep.chain_ok and rep.chain_below_sqrt_bound


def test_fiber_ball_nerve_reuses_the_verified_level():
    plane = pseudo_projective_plane(6)
    cover = build_universal_cover(plane, 100_000)
    verify_universal_bound(plane, 2, 100_000, cover=cover)
    with criterion("nerve: order-6 plane cover at level 2, after its verify", 0.05):
        rep = fiber_ball_nerve(cover, p=0, epsilon=0.5, level=2, budget=100_000)
    assert (rep.sheets, rep.d_base, rep.d_cover) == (6, 2.5, 4.5)
    assert rep.nerve.f_vector == (6, 15, 20)
    assert rep.matches_deck_cayley and rep.nerve_simply_connected.status == "yes"
    assert rep.fiber_pairs_ok and rep.chain_ok


def test_short_generators_bound_and_rank(figure_eight, theta):
    with criterion("short generators: loop length <= 2d, full rank", 10.0):
        graphs = [figure_eight, theta]
        rng = random.Random(777)
        graphs.extend(random_connected_graph(rng, 6, 9) for _ in range(10))
        for g in graphs:
            d = continuous_diameter(g).value
            rank = len(g.edges) - len(g.vertices) + 1
            loops = short_loop_generators(g, g.vertices[0])
            assert len(loops) == rank
            for w in loops:
                assert w.length <= 2 * d * (1 + 1e-12)
                assert abs(w.route.length - w.length) <= 1e-12 * w.length
