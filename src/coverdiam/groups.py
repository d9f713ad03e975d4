"""Finite group presentations, coset enumeration, and Cayley graphs.

Words are tuples of signed 1-based generator numbers: +k is generator k-1,
-k its inverse.  In files, words are strings over a..z with uppercase
meaning inverse ("ABab" is a^-1 b^-1 a b).  Presentations are first
Tietze-reduced (Havas, ISSAC 1991; Holt-Eick-O'Brien, Handbook of
Computational Group Theory, 2.9).  Enumeration is HLT-style relator
scanning of the reduced presentation over the trivial subgroup with a
deterministic first-free-coset definition order, so completed tables are
reproducible; the table is then lifted back to every original generator.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from math import gcd
from typing import Iterable, Literal, Sequence

from ._search import bfs
from .errors import EnumerationOverflow, InvariantError, NotGeneratingError

__all__ = [
    "Word",
    "Presentation",
    "CosetTable",
    "CayleyGraph",
    "WordDiameter",
    "TrivialityResult",
    "TietzeReduction",
    "parse_word",
    "word_to_string",
    "free_reduce",
    "tietze_reduce",
    "todd_coxeter",
    "cayley_graph",
    "word_metric_diameter",
    "is_trivial",
    "presentation_from_json",
    "load_presentation",
]

Word = tuple[int, ...]


def free_reduce(word: Sequence[int]) -> Word:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _invert_word(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


def _cyclic_reduce(word: Word) -> Word:
    """A freely reduced word with its cancelling ends stripped (a conjugate)."""
    i, j = 0, len(word)
    while j - i > 1 and word[i] == -word[j - 1]:
        i, j = i + 1, j - 1
    return word[i:j]


def parse_word(text: str, generator_count: int) -> Word:
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"invalid character {ch!r} in word {text!r}")
        if abs(letters[-1]) > generator_count:
            raise ValueError(f"word {text!r} uses generator beyond count {generator_count}")
    return free_reduce(letters)


def word_to_string(word: Sequence[int]) -> str:
    out = []
    for letter in word:
        if letter > 0:
            out.append(chr(ord("a") + letter - 1))
        else:
            out.append(chr(ord("A") - letter - 1))
    return "".join(out)


class Presentation:
    """A finite presentation; relator words are freely reduced on construction."""

    def __init__(self, generator_count: int, relators: Iterable[Sequence[int]]):
        self._adopt(generator_count, [free_reduce(tuple(map(int, w))) for w in relators])

    @classmethod
    def _reduced(cls, generator_count: int, words: Sequence[Word]) -> "Presentation":
        """Freely reduced words, not reduced again: spanning-tree relators hold
        distinct nonzero edge numbers, and Tietze output is cyclically reduced."""
        p = cls.__new__(cls)
        p._adopt(generator_count, words)
        return p

    def _adopt(self, generator_count: int, words: Sequence[Word]) -> None:
        if generator_count < 0:
            raise ValueError("generator_count must be nonnegative")
        sizes = list(map(abs, chain.from_iterable(words)))  # the range, checked at C speed
        if min(sizes, default=1) < 1 or max(sizes, default=0) > generator_count:
            raise ValueError(f"relator letters must lie in 1..{generator_count} up to sign")
        self.generator_count, self.relators = int(generator_count), tuple(words)

    def __repr__(self) -> str:
        rels = ", ".join(word_to_string(w) for w in self.relators)
        return f"Presentation({self.generator_count}, [{rels}])"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.generator_count == other.generator_count
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.generator_count, self.relators))


def presentation_from_json(obj: dict) -> Presentation:
    try:
        count = int(obj["generators"])
        words = [parse_word(w, count) for w in obj["relators"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed presentation file: {exc}") from None
    return Presentation(count, words)


def load_presentation(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return presentation_from_json(json.load(fh))


# ------------------------------------------------------------ enumeration

# completed enumerations of the test corpora define at most 1.4 per budget coset
_DEFINITIONS_PER_COSET = 16


class _Enumerator:
    """HLT scan-and-fill with immediate coincidence handling.

    Table columns alternate generator/inverse: column 2k is generator k+1,
    column 2k+1 its inverse; relators are scanned as lists of columns, and
    backwards through column ^ 1.  Merges keep the smaller coset index, so
    the surviving numbering only depends on the deterministic definition
    order.  More than max_cosets live cosets, or more than
    _DEFINITIONS_PER_COSET times max_cosets definitions, raise
    EnumerationOverflow, so a coincidence fault cannot loop forever.
    """

    def __init__(self, ngens: int, max_cosets: int):
        self.ngens = ngens
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.max_definitions = _DEFINITIONS_PER_COSET * max_cosets
        self.table: list[list[int]] = [[-1] * self.ncols]
        self.dead_row = (-1,) * self.ncols  # every coincided coset's row: a write raises
        self.parent = [0]
        self.live = 1

    def find(self, c: int) -> int:
        root = c
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[c] != root:
            self.parent[c], c = root, self.parent[c]
        return root

    def define(self) -> int:
        if self.live + 1 > self.max_cosets:
            raise EnumerationOverflow(self.max_cosets)
        if len(self.table) > self.max_definitions:
            raise EnumerationOverflow(self.max_cosets, f"{self.max_definitions} cosets defined")
        c = len(self.table)
        self.table.append([-1] * self.ncols)
        self.parent.append(c)
        self.live += 1
        return c

    def _union(self, a: int, b: int, dead: deque) -> None:
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.parent[b] = a
        self.live -= 1
        dead.append(b)

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
                # g*x = d carries over to the representatives in both
                # directions: the entry of d cleared above may have been
                # the only record of nu*x^-1 = mu
                mu, nu = self.find(g), self.find(d)
                e = self.table[mu][c]
                if e >= 0:
                    self._union(e, nu, dead)
                else:
                    self.table[mu][c] = nu
                e2 = self.table[nu][c ^ 1]
                if e2 >= 0:
                    self._union(e2, mu, dead)
                else:
                    self.table[nu][c ^ 1] = mu
            self.table[g] = self.dead_row

    def set_entry(self, x: int, c: int, y: int) -> None:
        ex = self.table[x][c]
        if ex >= 0:
            if self.find(ex) != self.find(y):
                self.coincide(ex, y)
            return
        self.table[x][c] = y
        ey = self.table[y][c ^ 1]
        if ey >= 0:
            if self.find(ey) != self.find(x):
                self.coincide(ey, x)
        else:
            self.table[y][c ^ 1] = x

    def scan_and_fill(self, a: int, cols: list[int]) -> None:
        table, parent = self.table, self.parent
        f = b = a
        i, j = 0, len(cols) - 1
        while True:
            while i <= j:
                t = table[f][cols[i]]
                if t < 0:
                    break
                f = t if parent[t] == t else self.find(t)
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return
            while j >= i:
                t = table[b][cols[j] ^ 1]
                if t < 0:
                    break
                b = t if parent[t] == t else self.find(t)
                j -= 1
            if j < i:
                self.coincide(f, b)
                return
            if j == i:
                self.set_entry(f, cols[i], b)
                return
            nxt = self.define()
            self.set_entry(f, cols[i], nxt)
            f = self.find(nxt)
            i += 1

    def run(self, relators: Sequence[Word]) -> None:
        # Each pass scans every live coset (chasing growth within the pass),
        # until the table closes or EnumerationOverflow ends the loop.
        relators = [[2 * x - 2 if x > 0 else -2 * x - 1 for x in w] for w in relators]
        parent = self.parent
        while True:
            a = 0
            while a < len(self.table):
                if parent[a] != a:
                    a += 1
                    continue
                for cols in relators:
                    self.scan_and_fill(a, cols)
                    if parent[a] != a:
                        break
                if parent[a] == a:
                    for c in range(self.ncols):
                        if parent[a] != a:
                            break
                        if self.table[a][c] < 0:
                            self.set_entry(a, c, self.define())
                a += 1
            if self._closed(relators):
                return

    def _closed(self, relators: list[list[int]]) -> bool:
        table, find = self.table, self.find
        for a in range(len(table)):
            if self.parent[a] != a:
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

    def compress(self) -> list[list[int]]:
        """Renumber live cosets in increasing order; returns generator permutations."""
        live = [a for a in range(len(self.table)) if self.find(a) == a]
        renum = {a: i for i, a in enumerate(live)}
        return [[renum[self.find(self.table[a][2 * g])] for a in live] for g in range(self.ngens)]


@dataclass(frozen=True)
class CosetTable:
    """Completed coset table: one permutation of cosets per generator.

    Coset 0 is the identity coset; for the trivial subgroup the table is the
    regular representation and coset_count is the group order.
    """

    action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        inverse = []
        for perm in self.action:
            inv = [0] * len(perm)
            for i, img in enumerate(perm):
                inv[img] = i
            inverse.append(tuple(inv))
        object.__setattr__(self, "_inverse", tuple(inverse))

    @property
    def coset_count(self) -> int:
        return len(self.action[0]) if self.action else 1

    @property
    def generator_count(self) -> int:
        return len(self.action)

    def act(self, coset: int, letter: int) -> int:
        if letter > 0:
            return self.action[letter - 1][coset]
        return self._inverse[-letter - 1][coset]

    def trace(self, coset: int, word: Sequence[int]) -> int:
        for letter in word:
            coset = self.act(coset, letter)
        return coset

    def satisfies(self, p: Presentation) -> bool:
        identity = list(range(self.coset_count))
        for w in p.relators:
            perm = identity
            for x in w:
                image = self.action[x - 1] if x > 0 else self._inverse[-x - 1]
                perm = list(map(image.__getitem__, perm))
            if perm != identity:
                return False
        return True


@dataclass(frozen=True)
class TietzeReduction:
    """A presentation of the same group on fewer generators.

    ``presentation`` is on the ``kept`` original generators, renumbered
    1..len(kept) in increasing order.  ``eliminated`` lists (generator,
    word) in elimination order: the word, over original generator numbers,
    equals the generator in the group and uses only generators still
    present when it was eliminated, so tracing the words in reverse order
    expresses every eliminated generator in the kept ones.
    """

    presentation: Presentation
    kept: tuple[int, ...]
    eliminated: tuple[tuple[int, Word], ...]


def tietze_reduce(p: Presentation) -> TietzeReduction:
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


def _enumerate(p: Presentation, max_cosets: int) -> CosetTable:
    """HLT enumeration of p itself; the completed table satisfies p's relators."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    if p.generator_count == 0:
        return CosetTable(action=())
    enum = _Enumerator(p.generator_count, max_cosets)
    enum.run(p.relators)
    return CosetTable(action=tuple(tuple(perm) for perm in enum.compress()))


def _lift(reduction: TietzeReduction, table: CosetTable) -> CosetTable:
    """The table of the reduced presentation, acting by every original generator.

    An eliminated generator acts as its substitution word; the words are
    traced in reverse order of elimination, so each uses only generators
    whose action is already known.
    """
    identity = tuple(range(table.coset_count))
    # generator -> (its permutation, its inverse's)
    perms = {g: (table.action[i], table._inverse[i]) for i, g in enumerate(reduction.kept)}

    def trace(word: Word) -> tuple[int, ...]:
        perm = identity
        for x in word:
            image = perms[abs(x)][x < 0]
            perm = tuple(image[c] for c in perm)
        return perm

    for g, word in reversed(reduction.eliminated):
        perms[g] = (trace(word), trace(_invert_word(word)))
    return CosetTable(action=tuple(perms[g][0] for g in sorted(perms)))


def todd_coxeter(p: Presentation, max_cosets: int) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; coset_count is the group order.

    The Tietze-reduced presentation is enumerated and its table lifted to
    every generator of p, then checked against p's own relators.  Raises
    EnumerationOverflow when more than max_cosets cosets would be live at
    once (infinite group or budget too small).
    """
    reduction = tietze_reduce(p)
    table = _lift(reduction, _enumerate(reduction.presentation, max_cosets))
    if not table.satisfies(p):
        raise InvariantError("completed coset table violates a relator")
    return table


# ------------------------------------------------------------ Cayley graphs


@dataclass(frozen=True)
class CayleyGraph:
    """Cayley graph on the cosets of a completed table.

    Vertices g and h are adjacent iff h = g*s for s in the symmetric set of
    group elements (identity excluded) of the chosen presentation
    generators.
    """

    element_count: int
    neighbors: tuple[tuple[int, ...], ...]
    identity: int = 0
    # hop distances from element 0, kept from the search in `cayley_graph`
    _hops: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)


def cayley_graph(t: CosetTable, generating_subset: Iterable[int]) -> CayleyGraph:
    """Build the Cayley graph for the chosen generator indices (0-based).

    The symmetric closure is always taken; generators representing the
    identity are dropped.  Raises NotGeneratingError when the orbit of the
    identity under the chosen set is proper.
    """
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


def bfs_distances(c: CayleyGraph, source: int) -> list[int]:
    dist = [-1] * c.element_count
    for g, hops in bfs(source, c.neighbors.__getitem__).items():
        dist[g] = hops
    return dist


@dataclass(frozen=True)
class WordDiameter:
    diameter: int
    farthest: int
    layer_sizes: tuple[int, ...]
    distances: tuple[int, ...]


def word_metric_diameter(c: CayleyGraph) -> WordDiameter:
    """Word-metric diameter = eccentricity of the identity (vertex-transitivity)."""
    dist = c._hops if c._hops is not None else bfs_distances(c, c.identity)
    if min(dist) < 0:
        raise NotGeneratingError("Cayley graph is disconnected")
    m = max(dist)
    layers = Counter(dist)
    return WordDiameter(m, dist.index(m), tuple(layers[d] for d in range(m + 1)), tuple(dist))


# ------------------------------------------------------------ triviality


@dataclass(frozen=True)
class TrivialityResult:
    status: Literal["yes", "no", "unknown"]
    certificate: str | None = None


def _exponent_matrix_rank(p: Presentation) -> int:
    """Rank over Q of the relator exponent-sum matrix, by exact sparse
    fraction-free elimination over the integers.

    Each relator is a row {column: exponent sum} without zeros.  While its
    leading (smallest) column has a pivot row, with pivot entry a and row
    entry b, the row becomes (a/g)*row - (b/g)*pivot, g = gcd(a, b); rows are
    kept primitive.  Integer scaling and adding integer multiples of other
    rows keep the row space over Q, so the rank is exact.
    """
    pivots: dict[int, dict[int, int]] = {}  # leading column -> primitive row
    for w in p.relators:
        if len(pivots) == p.generator_count:
            break
        row = Counter(abs(x) - 1 for x in w if x > 0)
        row.subtract(-x - 1 for x in w if x < 0)
        while row := {c: x for c, x in row.items() if x}:
            g = gcd(*row.values())
            row = {c: x // g for c, x in row.items()}
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            pivot = pivots[lead]
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            row = {c: a * row.get(c, 0) - b * pivot.get(c, 0) for c in row.keys() | pivot.keys()}
    return len(pivots)


def is_trivial(p: Presentation, max_cosets: int) -> TrivialityResult:
    """Decide triviality of the presented group, if the budget allows.

    The presentation is Tietze-reduced first; eliminating every generator
    proves the group trivial.  Otherwise the cheap No-path certifies an
    infinite abelianization from the rational rank of the reduced
    exponent-sum matrix, computed exactly by sparse integer elimination.
    Tietze moves keep generators - rank, so the rank is reported in p's
    own counts.  Otherwise enumeration of the reduced presentation
    decides, with Unknown on overflow.
    """
    q = tietze_reduce(p).presentation
    if q.generator_count == 0:
        return TrivialityResult(
            "yes", f"Tietze moves eliminated all {p.generator_count} generators"
        )
    rank = _exponent_matrix_rank(q)
    if rank < q.generator_count:
        rank += p.generator_count - q.generator_count
        return TrivialityResult(
            "no",
            f"abelianization infinite: exponent matrix rank {rank} < {p.generator_count}",
        )
    try:
        table = _enumerate(q, max_cosets)
    except EnumerationOverflow:
        return TrivialityResult("unknown", f"budget {max_cosets} exhausted")
    if table.coset_count == 1:
        return TrivialityResult("yes")
    return TrivialityResult("no", f"completed, order {table.coset_count}")
