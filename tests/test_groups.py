import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coverdiam.complexes import flag_triangles, pi1_presentation
from coverdiam.errors import EnumerationOverflow, InvariantError, NotGeneratingError
from coverdiam.groups import (
    CosetTable,
    Presentation,
    _Enumerator,
    _exponent_matrix_rank,
    bfs_distances,
    cayley_graph,
    free_reduce,
    is_trivial,
    parse_word,
    presentation_from_json,
    tietze_reduce,
    todd_coxeter,
    word_metric_diameter,
    word_to_string,
)
from coverdiam.separator import zoo_instances
from coverdiam.universal_cover import build_universal_cover, rp2_complex

from .conftest import cyclic_powers, pseudo_projective_plane
from .oracle import (
    exponent_rank_fraction,
    is_trivial_unreduced,
    tietze_reduce_heap,
    todd_coxeter_unreduced,
)


def cyclic(k: int) -> Presentation:
    return Presentation(1, [(1,) * k])


# ------------------------------------------------------------- words


def test_parse_word():
    assert parse_word("ABab", 2) == (-1, -2, 1, 2)
    assert parse_word("aa", 1) == (1, 1)
    with pytest.raises(ValueError):
        parse_word("c", 2)
    with pytest.raises(ValueError):
        parse_word("a b", 2)


def test_free_reduction():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 1)) == (1,)
    assert word_to_string((-1, -2, 1, 2)) == "ABab"


def test_presentation_reduces_on_load():
    p = Presentation(2, [(1, 2, -2, 1)])
    assert p.relators == ((1, 1),)


@pytest.mark.parametrize("count,words", [
    (2, [(1, 2), (1, 3)]), (2, [(-3,)]), (2, [(1, 0)]), (0, [(1,)]), (-1, []),
])
def test_reduced_presentation_rejects_letters_out_of_range(count, words):
    with pytest.raises(ValueError, match="letters must lie in|must be nonnegative"):
        Presentation._reduced(count, words)
    with pytest.raises(ValueError):
        Presentation(count, words)


# ------------------------------------------------------- todd_coxeter


def test_enumerate_cyclic_5():
    assert todd_coxeter(cyclic(5), 100).coset_count == 5


def test_enumerate_trivial():
    assert todd_coxeter(Presentation(1, [(1,)]), 10).coset_count == 1


def brute_force_symmetric_group_order():
    # permutation model a=(1 2), b=(2 3) generating S3
    a = (1, 0, 2)
    b = (0, 2, 1)

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    seen = {(0, 1, 2)}
    frontier = [(0, 1, 2)]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in (a, b):
                q = mul(gen, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def test_enumerate_s3_matches_permutation_model():
    expected = brute_force_symmetric_group_order()
    p = Presentation(2, [(1, 1), (2, 2), (1, 2, 1, 2, 1, 2)])
    assert todd_coxeter(p, 100).coset_count == expected == 6


def test_unsatisfied_relator_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(CosetTable, "satisfies", lambda self, p: False)
    with pytest.raises(InvariantError):
        todd_coxeter(cyclic(5), 100)


def test_enumeration_overflow():
    free = Presentation(2, [])
    with pytest.raises(EnumerationOverflow):
        todd_coxeter(free, 50)


def test_table_satisfies_relators():
    for p in [
        cyclic(7),
        Presentation(2, [(1, 1), (2, 2), (1, 2) * 3]),
        Presentation(2, [(1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)]),  # Q8
    ]:
        t = todd_coxeter(p, 1000)
        assert t.satisfies(p)
        # every generator acts as a bijection
        for perm in t.action:
            assert sorted(perm) == list(range(t.coset_count))
    # and not a relator that moves some coset: (ab)^2 is not 1 in S3
    assert not todd_coxeter(cyclic(6), 100).satisfies(cyclic(3))
    s3 = todd_coxeter(Presentation(2, [(1, 1), (2, 2), (1, 2) * 3]), 100)
    assert not s3.satisfies(Presentation(2, [(1, 2) * 2]))


def test_enumeration_deterministic():
    p = Presentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    t1 = todd_coxeter(p, 100)
    t2 = todd_coxeter(p, 100)
    assert t1.action == t2.action


def test_zero_generator_presentation():
    t = todd_coxeter(Presentation(0, []), 10)
    assert t.coset_count == 1


def test_enumeration_survives_heavy_collapse():
    # b^-1 a b = a^2 and a^-1 b a = b^2 force the trivial group, reached
    # only after long coincidence cascades
    p = Presentation(2, [(-2, 1, 2, -1, -1), (-1, 2, 1, -2, -2)])
    assert todd_coxeter(p, 5000).coset_count == 1


def test_enumeration_keeps_inverse_entries_through_coincidences():
    # collapsing a^4 onto a = 1 used to lose the entry 0*a^-1 = 0 while
    # keeping 0*a = 0; every pass then defined one coset that collapsed
    # again, and enumeration never ended
    assert todd_coxeter_unreduced(Presentation(1, [(1,) * 4, (1,) * 4, (1,)]), 10).coset_count == 1
    assert todd_coxeter(Presentation(1, [(1,) * 3, (1,) * 5]), 10).coset_count == 1


class _CoincideWithoutReverseCarry(_Enumerator):
    """The coincidence step as it was before the reverse-entry carry: the
    entry g*x = d moves to the representatives as mu*x = nu only."""

    def coincide(self, a: int, b: int) -> None:
        dead: deque = deque()
        self._union(a, b, dead)
        while dead:
            g = dead.popleft()
            row = self.table[g]
            for c in range(self.ncols):
                d = row[c]
                if d < 0:
                    continue
                row[c] = -1
                if self.table[d][c ^ 1] == g:
                    self.table[d][c ^ 1] = -1
                mu, nu = self.find(g), self.find(d)
                e = self.table[mu][c]
                if e >= 0:
                    self._union(e, nu, dead)
                else:
                    self.table[mu][c] = nu


def test_faulty_coincidence_overflows_instead_of_looping():
    # each pass defines one coset that collapses again: the live count stays
    # at 1 and only the cap on definitions ends the enumeration
    enum = _CoincideWithoutReverseCarry(1, 10)
    with pytest.raises(EnumerationOverflow, match="cosets defined"):
        enum.run(Presentation(1, [(1,) * 4, (1,) * 4, (1,)]).relators)
    assert enum.live <= 10 and len(enum.table) - 1 == enum.max_definitions


def test_coincided_rows_share_one_read_only_row():
    # the largest budget-500 overflow of the unreduced oracle on the random
    # family: 10,049 rows without the definitions cap, 8,001 with it, and of
    # those only the live cosets' rows are lists
    p = Presentation(4, [parse_word(w, 4) for w in ["BCB", "bbbbb", "dddddddd", "dddd", "Cd", "cc"]])
    assert p in _random_small_presentations()
    enum = _Enumerator(p.generator_count, 500)
    with pytest.raises(EnumerationOverflow, match="8000 cosets defined"):
        enum.run(p.relators)
    assert len(enum.table) == 8001
    assert sum(row is not enum.dead_row for row in enum.table) == enum.live <= 500
    assert all(type(row) is list for a, row in enumerate(enum.table) if enum.parent[a] == a)
    assert enum.dead_row == (-1,) * 8
    with pytest.raises(TypeError):
        enum.dead_row[0] = 0


def test_enumeration_against_permutation_models():
    # random quotient presentations checked against the permutation groups
    # their relators were harvested from
    from itertools import product

    def mul(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    def inv(p):
        out = [0] * len(p)
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    def group_order(gens, n):
        ident = tuple(range(n))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = mul(g, p)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return len(seen)

    def elem_order(p):
        q, k = p, 1
        while q != tuple(range(len(p))):
            q, k = mul(p, q), k + 1
        return k

    rng = random.Random(2718)
    completed = 0
    for _ in range(12):
        n = rng.randint(3, 5)
        a = tuple(rng.sample(range(n), n))
        b = tuple(rng.sample(range(n), n))
        order = group_order([a, b], n)
        letters = {1: a, -1: inv(a), 2: b, -2: inv(b)}

        def acts_trivially(word):
            cur = tuple(range(n))
            for letter in word:
                cur = mul(cur, letters[letter])
            return cur == tuple(range(n))

        relators = [(1,) * elem_order(a), (2,) * elem_order(b)]
        for length in range(2, 7):
            relators.extend(
                w for w in product([1, -1, 2, -2], repeat=length) if acts_trivially(w)
            )
        try:
            t = todd_coxeter(Presentation(2, relators), 5000)
        except EnumerationOverflow:
            continue
        # the presented group surjects onto the permutation group
        assert t.coset_count % order == 0 and t.coset_count >= order
        completed += 1
    assert completed >= 5


# ------------------------------------------------------- cayley_graph


def test_cayley_z2_is_single_edge():
    c = cayley_graph(todd_coxeter(cyclic(2), 10), {0})
    assert c.element_count == 2
    assert c.neighbors == ((1,), (0,))


def test_cayley_z6_is_cycle():
    c = cayley_graph(todd_coxeter(cyclic(6), 100), {0})
    assert c.element_count == 6
    assert all(len(c.neighbors[v]) == 2 for v in range(6))
    assert word_metric_diameter(c).diameter == 3


def z5_two_residue_presentation():
    # generators a, b with b = a^2 in Z/5
    return Presentation(2, [(1,) * 5, (2, -1, -1)])


def test_cayley_z5_two_gens_is_complete_graph():
    t = todd_coxeter(z5_two_residue_presentation(), 100)
    c = cayley_graph(t, {0, 1})
    # brute-force adjacency: every nonzero residue is +-1 or +-2 mod 5
    assert c.element_count == 5
    for g in range(5):
        assert set(c.neighbors[g]) == set(range(5)) - {g}


def test_cayley_not_generating():
    # subgroup <a^2> in Z/4 is proper
    p = Presentation(2, [(1,) * 4, (2, -1, -1)])
    t = todd_coxeter(p, 100)
    with pytest.raises(NotGeneratingError):
        cayley_graph(t, {1})


def test_cayley_excludes_identity_generator():
    # b = a^2 is the identity in Z/2
    p = Presentation(2, [(1, 1), (2, -1, -1)])
    t = todd_coxeter(p, 100)
    c = cayley_graph(t, {0, 1})
    assert c.element_count == 2
    assert c.neighbors == ((1,), (0,))
    assert all(g not in c.neighbors[g] for g in range(c.element_count))


def test_cayley_degree_equals_symmetric_set_size():
    for pres, gens in [
        (z5_two_residue_presentation(), {0, 1}),
        (Presentation(2, [(1, 1), (2, 2), (1, 2) * 3]), {0, 1}),
        (cyclic(7), {0}),
    ]:
        t = todd_coxeter(pres, 500)
        c = cayley_graph(t, gens)
        symmetric = {t.act(0, x) for i in gens for x in (i + 1, -(i + 1))} - {0}
        for v in range(c.element_count):
            assert len(c.neighbors[v]) == len(symmetric)


def test_cayley_labels_consistent():
    t = todd_coxeter(Presentation(2, [(1, 1), (2, 2), (1, 2) * 3]), 100)
    c = cayley_graph(t, {0, 1})
    for g in range(c.element_count):
        assert c.neighbors[g] == tuple(sorted({t.act(g, x) for x in (1, -1, 2, -2)}))


# ---------------------------------------------- word_metric_diameter


def test_diameter_k2():
    c = cayley_graph(todd_coxeter(cyclic(2), 10), {0})
    assert word_metric_diameter(c).diameter == 1


def test_diameter_six_cycle():
    c = cayley_graph(todd_coxeter(cyclic(6), 100), {0})
    res = word_metric_diameter(c)
    assert res.diameter == 3
    assert res.layer_sizes == (1, 2, 2, 1)
    assert res.farthest == 3


def test_diameter_s3_all_transpositions():
    # a, b, c = three transpositions: c = aba
    p = Presentation(
        3, [(1, 1), (2, 2), (1, 2) * 3, (3, -1, -2, -1)]
    )
    t = todd_coxeter(p, 100)
    c = cayley_graph(t, {0, 1, 2})
    # brute-force BFS oracle over the 6 elements
    res = word_metric_diameter(c)
    brute = max(max(bfs_distances(c, s)) for s in range(c.element_count))
    assert res.diameter == brute == 2


def test_identity_eccentricity_equals_all_pairs_max():
    cases = [
        (cyclic(12), {0}),
        (z5_two_residue_presentation(), {0, 1}),
        (Presentation(2, [(1,) * 8, (2, 2), (2, 1, 2, 1)]), {0, 1}),  # D8
        (Presentation(3, [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2]), {0, 1, 2}),
    ]
    for pres, gens in cases:
        c = cayley_graph(todd_coxeter(pres, 1000), gens)
        assert c.element_count <= 200
        res = word_metric_diameter(c)
        allpairs = max(max(bfs_distances(c, s)) for s in range(c.element_count))
        assert res.diameter == allpairs


def test_vertex_transitivity_spot_check():
    p = Presentation(2, [(1,) * 4, (2, 2), (2, 1, 2, 1)])  # D4, order 8
    c = cayley_graph(todd_coxeter(p, 100), {0, 1})
    ecc0 = max(bfs_distances(c, 0))
    rng = random.Random(5)
    for _ in range(5):
        v = rng.randrange(c.element_count)
        assert max(bfs_distances(c, v)) == ecc0


# ----------------------------------------------------------- triviality


def test_is_trivial_yes():
    assert is_trivial(Presentation(1, [(1,)]), 10).status == "yes"


def test_is_trivial_order_two():
    res = is_trivial(Presentation(1, [(1, 1)]), 10)
    assert res.status == "no"
    assert "order 2" in res.certificate


def test_is_trivial_commutator_rank_certificate():
    res = is_trivial(Presentation(2, [(1, 2, -1, -2)]), 100)
    assert res.status == "no"
    assert "abelianization infinite" in res.certificate


def test_is_trivial_unknown_on_budget():
    # infinite dihedral group: finite abelianization, so the rank shortcut
    # stays silent and enumeration must overflow
    p = Presentation(2, [(1, 1), (2, 2)])
    res = is_trivial(p, 500)
    assert res.status == "unknown"
    assert "budget" in res.certificate


# ------------------------------------------------------ Tietze reduction


def test_tietze_reduce_eliminates_and_records_substitutions():
    # Z6 on a, b = a^2, c = b a: c and then b go, a stays
    p = Presentation(3, [(1,) * 6, (-3, 2, 1), (2, -1, -1)])
    r = tietze_reduce(p)
    assert r.kept == (1,)
    assert r.presentation == Presentation(1, [(1,) * 6])
    assert r.eliminated == ((3, (2, 1)), (2, (1, 1)))
    t = todd_coxeter(p, 100)
    assert t.coset_count == 6 and t.satisfies(p)
    for g, word in r.eliminated:
        assert all(t.act(c, g) == t.trace(c, word) for c in range(6))


def test_tietze_reduce_keeps_generators_without_short_relators():
    p = Presentation(2, [(1, 1), (2, 2)])  # every generator occurs twice
    r = tietze_reduce(p)
    assert r.kept == (1, 2) and r.eliminated == () and r.presentation == p


def test_tietze_reduce_drops_duplicate_relators():
    p = Presentation(2, [(1, 2, 1, 2), (1, 2, 1, 2), (-2, -1, -2, -1), (1, 1, 1)])
    assert tietze_reduce(p).presentation == Presentation(2, [(1, 2, 1, 2), (1, 1, 1)])


def _one_letter_entries_unordered(eliminated):
    """The eliminations with a word, in order, and the (g, ()) ones as a set."""
    return [e for e in eliminated if e[1]], sorted(e for e in eliminated if not e[1])


def test_tietze_reduce_one_letter_order_after_free_cancellation():
    # dropping c leaves dbD, freely the one letter b: the heap pops it at
    # once, the counting closure first finishes a, so only the order moves
    p = Presentation(5, [parse_word(w, 5) for w in ["C", "cdbD", "caCA", "a", "acAC", "dd"]])
    new, old = tietze_reduce(p), tietze_reduce_heap(p)
    assert (new.presentation, new.kept) == (old.presentation, old.kept)
    assert new.eliminated == ((3, ()), (1, ()), (2, ())) != old.eliminated
    assert _one_letter_entries_unordered(new.eliminated) == _one_letter_entries_unordered(old.eliminated)


def test_tietze_reduce_keeps_rotations_of_the_one_letter_phase():
    # deleting d, then b, leaves Abbcc; both at once would leave bbccA
    p = Presentation(5, [parse_word(w, 5) for w in ["d", "b", "abAcceeAd"]])
    new, old = tietze_reduce(p), tietze_reduce_heap(p)
    assert new == old and new.presentation == Presentation(3, [(-1, 2, 2, 3, 3)])


def test_is_trivial_yes_certificate_counts_eliminations():
    res = is_trivial(Presentation(3, [(1, 2), (2,), (3, -1)]), 10)
    assert res.status == "yes"
    assert res.certificate == "Tietze moves eliminated all 3 generators"


def _cayley_presentations():
    """(presentation, generator subset) of the zoo and the cyclic-power families."""
    out = [(inst.presentation, inst.gens) for inst in zoo_instances()]
    families = [(3 * k, k) for k in range(3, 8)] + [(36, 4), (30, 5), (40, 5), (160, 8)]
    out += [(cyclic_powers(n, k), tuple(range(k))) for n, k in families]
    return out


def _random_small_presentations():
    """300 seeded presentations on 1..5 generators with short relators,
    most of them finite, plus infinite ones that must stay unknown."""
    rng = random.Random(5150)
    out = [Presentation(2, [(1, 1), (2, 2)])]  # infinite dihedral group
    for _ in range(300):
        n = rng.randint(1, 5)
        relators = []
        for _ in range(rng.randint(0, n + 2)):
            kind = rng.randrange(4)
            if kind == 0:
                relators.append([rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 6))])
            elif kind == 1:
                relators.append([rng.randint(1, n)] * rng.randint(1, 8))
            elif kind == 2:
                a, b = rng.randint(1, n), rng.randint(1, n)
                relators.append([a, b, -a, -b])
            else:  # a candidate for elimination
                relators.append([rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(2, 3))])
        out.append(Presentation(n, relators))
    return out


def _plane_presentations():
    out = []
    for k in range(3, 13):
        plane = pseudo_projective_plane(k)
        out += [pi1_presentation(plane), pi1_presentation(build_universal_cover(plane, 100_000).total)]
    return out


_ORACLE_CASES = {
    "cayley groups": lambda: [p for p, _ in _cayley_presentations()],
    "cayley flag fillings": lambda: [_flag_presentation(p, gens) for p, gens in _cayley_presentations()],
    "planes and their totals": _plane_presentations,
    "random": _random_small_presentations,
}


def _order_or_overflow(enumerate_, p, budget):
    try:
        table = enumerate_(p, budget)
    except EnumerationOverflow:
        return None
    assert table.satisfies(p)
    return table.coset_count


@pytest.mark.parametrize("family", sorted(_ORACLE_CASES))
def test_reduced_path_matches_unreduced_oracle(family):
    budget = 500 if family == "random" else 100_000
    statuses = set()
    for p in _ORACLE_CASES[family]():
        new, old = is_trivial(p, budget), is_trivial_unreduced(p, budget)
        assert new.status == old.status, p
        if new.status != "yes":
            assert new.certificate == old.certificate, p
        statuses.add(new.status)
        if family != "cayley flag fillings":  # their orders are not needed and can be large
            assert _order_or_overflow(todd_coxeter, p, budget) == _order_or_overflow(
                todd_coxeter_unreduced, p, budget
            ), p
    if family == "random":
        assert statuses == {"yes", "no", "unknown"}


def test_infinite_dihedral_stays_unknown():
    p = Presentation(2, [(1, 1), (2, 2)])
    assert is_trivial(p, 500).status == is_trivial_unreduced(p, 500).status == "unknown"


# ------------------------------------------------------- exponent rank


def _flag_presentation(p: Presentation, gens) -> Presentation:
    c = cayley_graph(todd_coxeter(p, 100_000), gens)
    return pi1_presentation(flag_triangles(c))


def _random_presentations():
    rng = random.Random(4242)
    out = [Presentation(0, []), Presentation(0, [(), ()]), Presentation(3, [])]
    for _ in range(300):
        n = rng.randint(0, 7)
        relators = []
        for _ in range(rng.randint(0, 9)):
            kind = rng.randrange(4) if n else 3
            if kind == 0:  # random word, letters repeat
                relators.append([rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 10))])
            elif kind == 1:  # a power: an entry beyond +-1
                relators.append([rng.choice((1, -1)) * rng.randint(1, n)] * rng.randint(2, 12))
            elif kind == 2:  # a commutator: a zero row
                a, b = rng.randint(1, n), rng.randint(1, n)
                relators.append([a, b, -a, -b])
            else:
                relators.append([])
        out.append(Presentation(n, relators))
    return out


_RANK_CASES = {
    "zoo flag fillings": lambda: [
        _flag_presentation(inst.presentation, inst.gens) for inst in zoo_instances()
    ],
    "cyclic powers": lambda: [
        _flag_presentation(cyclic_powers(n, k), range(k))
        for n, k in [(3 * k, k) for k in range(3, 8)] + [(36, 4), (30, 5), (40, 5)]
    ],
    "rp2 total": lambda: [pi1_presentation(build_universal_cover(rp2_complex(), 100_000).total)],
    "projective planes": lambda: [
        pi1_presentation(complex_)
        for order in (3, 4, 6)
        for complex_ in (
            pseudo_projective_plane(order),
            build_universal_cover(pseudo_projective_plane(order), 100_000).total,
        )
    ],
    "random": _random_presentations,
}


@pytest.mark.parametrize("family", sorted(_RANK_CASES))
def test_exponent_rank_matches_fraction_elimination(family):
    for p in _RANK_CASES[family]():
        assert _exponent_matrix_rank(p) == exponent_rank_fraction(p), p


@pytest.mark.parametrize("cases,family", [("oracle", f) for f in sorted(_ORACLE_CASES)]
                         + [("rank", f) for f in sorted(_RANK_CASES)])
def test_tietze_reduce_matches_heap_only_reduction(cases, family):
    for p in {"oracle": _ORACLE_CASES, "rank": _RANK_CASES}[cases][family]():
        new, old = tietze_reduce(p), tietze_reduce_heap(p)
        assert (new.presentation, new.kept) == (old.presentation, old.kept), p
        assert _one_letter_entries_unordered(new.eliminated) == (
            _one_letter_entries_unordered(old.eliminated)), p


@given(st.data())
def test_exponent_rank_invariant_under_relabelling(data):
    n = data.draw(st.integers(1, 6))
    letter = st.integers(-n, n).filter(bool)
    relators = data.draw(st.lists(st.lists(letter, max_size=8), max_size=8))
    order = data.draw(st.permutations(range(len(relators))))
    number = data.draw(st.permutations(range(1, n + 1)))
    flip = data.draw(st.integers(1, n))
    rank = _exponent_matrix_rank(Presentation(n, relators))
    reordered = [relators[i] for i in order]
    renumbered = [[number[x - 1] if x > 0 else -number[-x - 1] for x in w] for w in relators]
    inverted = [[-x if abs(x) == flip else x for x in w] for w in relators]
    for variant in (reordered, renumbered, inverted):
        assert _exponent_matrix_rank(Presentation(n, variant)) == rank


# ------------------------------------------------------------- files


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": p.generator_count,
        "relators": [word_to_string(w) for w in p.relators],
    }


def test_presentation_json_roundtrip():
    p = Presentation(2, [(1, 1), (2, 2), (1, 2) * 3])
    obj = presentation_to_json(p)
    assert obj == {"generators": 2, "relators": ["aa", "bb", "ababab"]}
    assert presentation_from_json(obj) == p
