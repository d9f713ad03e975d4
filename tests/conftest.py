import random

import pytest

from coverdiam.complexes import SimplicialComplex2
from coverdiam.covering import CoveringGraph
from coverdiam.groups import Presentation
from coverdiam.metric_graph import MetricGraph


@pytest.fixture(autouse=True)
def nerve_diameters_checked(monkeypatch):
    """Every nerve diameter that `fiber_ball_nerve` computes in a test is
    compared with the all-sources search it replaced."""
    from coverdiam import universal_cover

    from .oracle import nerve_diameter_all_sources

    one_search = universal_cover._nerve_bfs_diameter

    def checked(k):
        got, want = one_search(k), nerve_diameter_all_sources(k)
        if got != want:
            raise AssertionError(f"nerve diameter {got} from one search, {want} from all")
        return got

    monkeypatch.setattr(universal_cover, "_nerve_bfs_diameter", checked)


@pytest.fixture(scope="session")
def unit_triangle():
    return MetricGraph(
        ["v0", "v1", "v2"],
        [("e0", "v0", "v1", 1.0), ("e1", "v1", "v2", 1.0), ("e2", "v2", "v0", 1.0)],
    )


@pytest.fixture(scope="session")
def loop6():
    return MetricGraph(["v0"], [("e0", "v0", "v0", 6.0)])


@pytest.fixture(scope="session")
def theta():
    return MetricGraph(
        ["u", "v"],
        [("a", "u", "v", 1.0), ("b", "u", "v", 1.0), ("c", "u", "v", 2.0)],
    )


@pytest.fixture(scope="session")
def figure_eight():
    return MetricGraph(["v"], [("a", "v", "v", 1.0), ("b", "v", "v", 1.0)])


@pytest.fixture(scope="session")
def path_graph():
    return MetricGraph(
        ["p0", "p1", "p2"], [("e0", "p0", "p1", 1.0), ("e1", "p1", "p2", 2.0)]
    )


def random_connected_graph(rng: random.Random, max_vertices=8, max_edges=12) -> MetricGraph:
    """Random connected multigraph: a spanning tree plus extra edges (loops allowed)."""
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    for i in range(1, nv):
        p = rng.randint(0, i - 1)
        edges.append((f"e{len(edges)}", f"v{p}", f"v{i}", round(rng.uniform(0.2, 2.0), 6)))
    extra_budget = max_edges - len(edges)
    n_extra = rng.randint(1 if nv == 1 else 0, extra_budget)
    for _ in range(n_extra):
        u = rng.randrange(nv)
        v = rng.randrange(nv)
        edges.append((f"e{len(edges)}", f"v{u}", f"v{v}", round(rng.uniform(0.2, 2.0), 6)))
    return MetricGraph(vertices, edges)


def pseudo_projective_plane(k: int) -> SimplicialComplex2:
    """Order-k pseudo-projective plane, pi_1 = Z_k: a ring of 3k vertices
    wraps k times around the triangle 0 1 2 and is coned off at vertex 3."""
    m = 3 * k
    triangles = []
    for i in range(m):
        a, b = i % 3, (i + 1) % 3
        r, r_next = 4 + i, 4 + (i + 1) % m
        triangles += [(a, b, r), (b, r, r_next), (r, r_next, 3)]
    return SimplicialComplex2(range(m + 4), triangles)


def presentation_complex(generators: int, relators) -> SimplicialComplex2:
    """A triangulated presentation complex, pi_1 = <generators | relators>.

    Vertex 0 is the base point, and generator g (letters g + 1 and -(g + 1))
    is the 3-edge loop 0, 1 + 2g, 2 + 2g.  A relator of length l is a disk:
    its boundary walk of 3l vertices, a ring of 3l fresh vertices inside it
    and a cone point over the ring, as in `pseudo_projective_plane`.
    """
    loops = [(0, 1 + 2 * g, 2 + 2 * g, 0) for g in range(generators)]
    triangles, fresh = [], 1 + 2 * generators
    for word in relators:
        walk = [x for letter in word
                for x in (loops[letter - 1][1:] if letter > 0 else loops[-letter - 1][-2::-1])]
        m = len(walk)
        cone = fresh + m
        for i in range(m):
            r, r_next = fresh + i, fresh + (i + 1) % m
            triangles += [(walk[i - 1], walk[i], r), (walk[i], r, r_next), (r, r_next, cone)]
        fresh = cone + 1
    return SimplicialComplex2(range(fresh), triangles)


# non-abelian deck groups: (generators, relators, order, f-vector of the complex)
NON_ABELIAN = {
    "S3": (2, [(1, 1), (2, 2, 2), (1, 2, 1, 2)], 6, (35, 114, 81)),
    "Q8": (2, [(1, 1, 1, 1), (1, 1, -2, -2), (1, 2, 1, -2)], 8, (44, 150, 108)),
    "A4": (2, [(1, 1, 1), (2, 2, 2), (1, 2, 1, 2)], 12, (38, 126, 90)),
}
# A5 = <a, b | a^2, b^3, (ab)^5>, in the same form; its level-1 nerves pick
# generating sets that are not closed under conjugation
A5 = (2, [(1, 1), (2, 2, 2), (1, 2) * 5], 60, (53, 186, 135))


def cyclic_powers(n: int, k: int) -> Presentation:
    """Z_n on generators a, a^2, .., a^k: relators a^n and b_j a^-j."""
    return Presentation(k, [(1,) * n] + [(j,) + (-1,) * j for j in range(2, k + 1)])


def assert_same_lift(total: MetricGraph, lift, reference: CoveringGraph) -> None:
    """`total` and `lift[b, s]` name, order and place every vertex and edge
    as the string-keyed reference cover does."""
    base, sheets = reference.base, reference.sheets
    assert total.vertices == reference.graph.vertices
    assert total.edges == reference.graph.edges
    want = [[reference.graph.vertex_index(reference.lift_vertex(b, s)) for s in range(sheets)]
            for b in base.vertices]
    assert lift.tolist() == want
