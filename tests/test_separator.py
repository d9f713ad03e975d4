import math
from typing import Iterable

import numpy as np
import pytest

from coverdiam.complexes import spanning_tree_presentation
from coverdiam.errors import InvariantError
from coverdiam.groups import (
    CayleyGraph,
    CosetTable,
    Presentation,
    cayley_graph,
    todd_coxeter,
    word_metric_diameter,
)
from coverdiam.separator import (
    cayley_cap_holds,
    cayley_diameter_bound,
    left_multiplication,
    left_multiplications,
    verify_cayley_bound,
    zoo_instances,
)

from .conftest import cyclic_powers, pseudo_projective_plane
from .oracle import (
    check_separation,
    check_size_bounds,
    layer_sum_inequality_holds,
    left_multiplication_bfs,
    sphere_decomposition,
)


@pytest.fixture(scope="module")
def k2():
    return cayley_graph(todd_coxeter(Presentation(1, [(1, 1)]), 10), {0})


@pytest.fixture(scope="module")
def six_cycle():
    return cayley_graph(todd_coxeter(Presentation(1, [(1,) * 6]), 100), {0})


@pytest.fixture(scope="module")
def k5():
    z5 = Presentation(2, [(1,) * 5, (2, -1, -1)])
    return cayley_graph(todd_coxeter(z5, 100), {0, 1})


# ------------------------------------------------------- decomposition


def test_decomposition_k2(k2):
    d = sphere_decomposition(k2)
    assert d.diameter == 1
    assert d.geodesic == (0, 1)
    assert d.components == (frozenset({0}), frozenset({1}))


def test_decomposition_six_cycle(six_cycle):
    d = sphere_decomposition(six_cycle)
    assert d.diameter == 3
    assert d.geodesic == (0, 1, 2, 3)
    for i in (1, 2):
        assert len(d.layers[i]) == 2
        assert d.components[i] == frozenset({d.geodesic[i]})


def test_decomposition_k5(k5):
    d = sphere_decomposition(k5)
    assert d.diameter == 1
    assert d.layers[1] == frozenset({1, 2, 3, 4})
    assert d.components[1] == d.layers[1]


def test_layers_partition_group(six_cycle, k5):
    for c in (six_cycle, k5):
        d = sphere_decomposition(c)
        assert sum(len(s) for s in d.layers) == c.element_count
        union = set()
        for s in d.layers:
            assert not (union & s)
            union |= s


def test_decomposition_deterministic(six_cycle):
    assert sphere_decomposition(six_cycle) == sphere_decomposition(six_cycle)


# ----------------------------------------------------------- separation


def test_six_cycle_interior_does_not_separate(six_cycle):
    # the flag complex of a 6-cycle is not simply connected, and indeed
    # removing the one-vertex component leaves a path around the far side
    d = sphere_decomposition(six_cycle)
    assert check_separation(six_cycle, d, 1) is False
    assert check_separation(six_cycle, d, 2) is False


def test_k5_has_no_interior_index(k5):
    d = sphere_decomposition(k5)
    with pytest.raises(IndexError):
        check_separation(k5, d, 1)


def test_separation_on_certified_instances():
    # simply connected flag fillings with an interior layer
    cases = [
        (Presentation(3, [(1,) * 6, (2, -1, -1), (3, -1, -1, -1)]), (0, 1)),   # Z6 {1,2}
        (Presentation(3, [(1,) * 8, (2, -1, -1), (3, -1, -1, -1)]), (0, 1, 2)),  # Z8 {1,2,3}
        (Presentation(3, [(1,) * 9, (2, -1, -1), (3, -1, -1, -1)]), (0, 1, 2)),  # Z9 {1,2,3}
    ]
    for pres, gens in cases:
        rep = verify_cayley_bound(pres, gens, 100000)
        assert rep.simply_connected.status == "yes"
        assert rep.verdict == "holds"
        d = sphere_decomposition(rep.cayley)
        assert d.diameter >= 2
        for i in range(1, d.diameter):
            assert check_separation(rep.cayley, d, i) is True
        sb = check_size_bounds(d)
        assert sb.all_bounds_hold and sb.disjoint and sb.sum_ok


# ---------------------------------------------------------- size bounds


def test_size_bounds_k2(k2):
    sb = check_size_bounds(sphere_decomposition(k2))
    assert sb.per_index == ((0, 1, 1, True), (1, 1, 1, True))
    assert sb.total == 2 and sb.sum_ok


def test_size_bounds_fail_on_six_cycle(six_cycle):
    sb = check_size_bounds(sphere_decomposition(six_cycle))
    assert not sb.all_bounds_hold  # |T_1| = 1 < min(2, 3): hypothesis really needed
    assert sb.per_index[1] == (1, 1, 2, False)
    assert sb.disjoint and sb.sum_ok


def test_size_bounds_k5(k5):
    sb = check_size_bounds(sphere_decomposition(k5))
    assert sb.per_index == ((0, 1, 1, True), (1, 4, 1, True))
    assert sb.total == 5 and sb.sum_ok


# ---------------------------------------------------------- translation


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


def test_translation_identity(k5):
    t = todd_coxeter(Presentation(2, [(1,) * 5, (2, -1, -1)]), 100)
    s = {0, 2, 3}
    assert translated_copy(k5, t, 0, s) == frozenset(s)


def test_translation_in_cyclic_group():
    t = todd_coxeter(Presentation(1, [(1,) * 6]), 100)
    c = cayley_graph(t, {0})
    assert translated_copy(c, t, 2, {0, 1}) == frozenset({2, 3})


def test_translation_preserves_size_and_edges():
    zoo = {inst.name: inst for inst in zoo_instances()}
    for name in ("Z6|1,2", "D8", "Q8", "S4"):
        inst = zoo[name]
        t = todd_coxeter(inst.presentation, 100000)
        c = cayley_graph(t, inst.gens)
        assert t.coset_count <= 24
        s = frozenset(range(0, t.coset_count, 2))
        for a in range(t.coset_count):
            image = translated_copy(c, t, a, s)
            assert len(image) == len(s)
            edges_s = sum(1 for g in s for h in s if h in c.neighbors[g])
            lam = left_multiplication(t, a)
            edges_img = sum(
                1 for g in s for h in s if lam[h] in c.neighbors[lam[g]]
            )
            assert edges_s == edges_img


def test_left_multiplications_match_the_bfs_per_element():
    tables = [todd_coxeter(inst.presentation, 100_000) for inst in zoo_instances()]
    families = [(3 * k, k) for k in range(3, 8)] + [(36, 4), (30, 5), (40, 5)]
    tables += [todd_coxeter(cyclic_powers(n, k), 100_000) for n, k in families]
    tables += [todd_coxeter(spanning_tree_presentation(pseudo_projective_plane(k)).presentation,
                            100_000) for k in range(3, 13)]
    for t in tables:
        want = tuple(left_multiplication_bfs(t, a) for a in range(t.coset_count))
        deck = left_multiplications(t)
        assert deck.dtype == np.intp and np.array_equal(deck, want)
        assert left_multiplication(t, t.coset_count - 1) == want[-1]


def test_left_multiplication_is_group_action():
    t = todd_coxeter(Presentation(2, [(1,) * 4, (2, 2), (2, 1, 2, 1)]), 100)  # D4
    lams = [left_multiplication(t, a) for a in range(t.coset_count)]
    assert lams[0] == tuple(range(t.coset_count))
    for a in range(t.coset_count):
        assert sorted(lams[a]) == list(range(t.coset_count))
        assert lams[a][0] == a


# -------------------------------------------------------------- bounds


def test_bound_values():
    assert cayley_diameter_bound(2) == pytest.approx(1.0)
    assert cayley_diameter_bound(12) == pytest.approx(5.0)
    assert cayley_diameter_bound(5) == pytest.approx(math.sqrt(21) - 2)


def test_cap_is_decided_in_integers():
    # at n = k(k+1) the cap sqrt(4n + 1) - 2 is the integer 2k - 1
    for k in range(1, 1001):
        n = k * (k + 1)
        assert cayley_cap_holds(2 * k - 1, n)
        assert not cayley_cap_holds(2 * k, n)


def test_verify_z2_holds_with_equality():
    rep = verify_cayley_bound(Presentation(1, [(1, 1)]), (0,), 100)
    assert rep.order == 2
    assert rep.simply_connected.status == "yes"
    assert rep.diameter == 1 == rep.bound
    assert rep.verdict == "holds"


def test_verify_z12_single_generator_needs_hypothesis():
    rep = verify_cayley_bound(Presentation(1, [(1,) * 12]), (0,), 1000)
    assert rep.verdict == "hypothesis_failed"
    assert rep.diameter == 6
    assert rep.bound == pytest.approx(5.0)
    assert rep.diameter > rep.bound


def test_verify_k5_flag_holds():
    rep = verify_cayley_bound(Presentation(2, [(1,) * 5, (2, -1, -1)]), (0, 1), 1000)
    assert rep.simply_connected.status == "yes"
    assert rep.diameter == 1
    assert rep.verdict == "holds"


def test_zoo_never_violates():
    for inst in zoo_instances():
        rep = verify_cayley_bound(inst.presentation, inst.gens, 100000)
        assert rep.verdict != "violated", inst.name
        if rep.simply_connected.status == "yes":
            assert rep.diameter <= rep.bound + 1e-9


def test_verify_searches_the_cayley_graph_once(monkeypatch):
    import coverdiam.groups as groups

    sources = []
    search = groups.bfs
    monkeypatch.setattr(groups, "bfs", lambda source, nbrs: sources.append(source) or search(source, nbrs))
    for inst in zoo_instances():
        sources.clear()
        rep = verify_cayley_bound(inst.presentation, inst.gens, 100000)
        assert sources == [0], inst.name
        # a hand-made graph holds no distances and is searched afresh
        fresh = word_metric_diameter(CayleyGraph(rep.cayley.element_count, rep.cayley.neighbors))
        assert word_metric_diameter(rep.cayley) == fresh and rep.diameter == fresh.diameter, inst.name
        assert sources == [0, 0]


# ----------------------------------------------------------- arithmetic


def test_layer_sum_closed_form_matches_direct_sum():
    for m in range(0, 200):
        direct = sum(min(i + 1, m - i + 1) for i in range(m + 1))
        t = (m + 1) // 2
        closed = t * (t + 1) if m % 2 == 1 else (t + 1) ** 2
        assert direct == closed


def test_layer_sum_inequality_small_and_large():
    assert layer_sum_inequality_holds(1000)
    # odd m attains equality: m = sqrt(4 t(t+1) + 1) - 2 for m = 2t - 1
    for m in (1, 3, 9, 101):
        t = (m + 1) // 2
        assert m == pytest.approx(math.sqrt(4 * t * (t + 1) + 1) - 2)
