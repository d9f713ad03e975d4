"""Finite group presentations, coset enumeration, and Cayley graphs.

Words are tuples of signed 1-based generator numbers: +k is generator k-1,
-k its inverse.  In files, words are strings over a..z with uppercase
meaning inverse ("ABab" is a^-1 b^-1 a b).  Enumeration is HLT-style
relator scanning over the trivial subgroup with a deterministic
first-free-coset definition order, so completed tables are reproducible.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
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
    "parse_word",
    "word_to_string",
    "free_reduce",
    "todd_coxeter",
    "cayley_graph",
    "word_metric_diameter",
    "is_trivial",
    "presentation_from_json",
    "presentation_to_json",
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
        if generator_count < 0:
            raise ValueError("generator_count must be nonnegative")
        self.generator_count = int(generator_count)
        reduced = []
        for w in relators:
            w = free_reduce(tuple(int(x) for x in w))
            for letter in w:
                if letter == 0 or abs(letter) > self.generator_count:
                    raise ValueError(f"letter {letter} out of range in relator")
            reduced.append(w)
        self.relators: tuple[Word, ...] = tuple(reduced)

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


def presentation_to_json(p: Presentation) -> dict:
    return {
        "generators": p.generator_count,
        "relators": [word_to_string(w) for w in p.relators],
    }


def load_presentation(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return presentation_from_json(json.load(fh))


# ------------------------------------------------------------ enumeration


class _Enumerator:
    """HLT scan-and-fill with immediate coincidence handling.

    Table columns alternate generator/inverse: column 2k is generator k+1,
    column 2k+1 its inverse.  Merges keep the smaller coset index, so the
    surviving numbering only depends on the deterministic definition order.
    """

    def __init__(self, ngens: int, max_cosets: int):
        self.ngens = ngens
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[-1] * self.ncols]
        self.parent = [0]
        self.live = 1

    @staticmethod
    def col(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

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
                mu, nu = self.find(g), self.find(d)
                e = self.table[mu][c]
                if e >= 0:
                    if self.find(e) != nu:
                        self._union(e, nu, dead)
                else:
                    self.table[mu][c] = nu
                    e2 = self.table[nu][c ^ 1]
                    if e2 >= 0:
                        if self.find(e2) != mu:
                            self._union(e2, mu, dead)
                    else:
                        self.table[nu][c ^ 1] = mu

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

    def scan_and_fill(self, a: int, word: Word) -> None:
        if not word:
            return
        f = b = a
        i, j = 0, len(word) - 1
        while True:
            while i <= j:
                t = self.table[f][self.col(word[i])]
                if t < 0:
                    break
                f = self.find(t)
                i += 1
            if i > j:
                if f != b:
                    self.coincide(f, b)
                return
            while j >= i:
                t = self.table[b][self.col(-word[j])]
                if t < 0:
                    break
                b = self.find(t)
                j -= 1
            if j < i:
                self.coincide(f, b)
                return
            if j == i:
                self.set_entry(f, self.col(word[i]), b)
                return
            nxt = self.define()
            self.set_entry(f, self.col(word[i]), nxt)
            f = self.find(nxt)
            i += 1

    def run(self, relators: Sequence[Word]) -> None:
        # Each pass scans every live coset (chasing growth within the pass).
        # A pass that ends without closing must have processed at least one
        # coincidence, strictly decreasing the live count, so the number of
        # passes is bounded by the definitions, which the budget bounds.
        while True:
            a = 0
            while a < len(self.table):
                if self.find(a) != a:
                    a += 1
                    continue
                for w in relators:
                    self.scan_and_fill(a, w)
                    if self.find(a) != a:
                        break
                if self.find(a) == a:
                    for c in range(self.ncols):
                        if self.find(a) != a:
                            break
                        if self.table[a][c] < 0:
                            self.set_entry(a, c, self.define())
                a += 1
            if self._closed(relators):
                return

    def _closed(self, relators: Sequence[Word]) -> bool:
        for a in range(len(self.table)):
            if self.find(a) != a:
                continue
            row = self.table[a]
            for c in range(self.ncols):
                if row[c] < 0:
                    return False
            for w in relators:
                x = a
                for letter in w:
                    x = self.find(self.table[x][self.col(letter)])
                if x != a:
                    return False
        return True

    def compress(self) -> list[list[int]]:
        """Renumber live cosets in increasing order; returns generator permutations."""
        live = [a for a in range(len(self.table)) if self.find(a) == a]
        renum = {a: i for i, a in enumerate(live)}
        action = []
        for g in range(self.ngens):
            perm = [renum[self.find(self.table[a][2 * g])] for a in live]
            action.append(perm)
        return action


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
        return all(
            self.trace(c, w) == c for w in p.relators for c in range(self.coset_count)
        )


def todd_coxeter(p: Presentation, max_cosets: int) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; coset_count is the group order.

    Raises EnumerationOverflow when more than max_cosets cosets would be
    live at once (infinite group or budget too small).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    if p.generator_count == 0:
        return CosetTable(action=())
    enum = _Enumerator(p.generator_count, max_cosets)
    enum.run(p.relators)
    action = tuple(tuple(perm) for perm in enum.compress())
    table = CosetTable(action=action)
    if not table.satisfies(p):
        raise InvariantError("completed coset table violates a relator")
    return table


# ------------------------------------------------------------ Cayley graphs


@dataclass(frozen=True)
class CayleyGraph:
    """Cayley graph on the cosets of a completed table.

    ``generator_elements`` is the symmetric set of group elements (as coset
    indices, identity excluded) induced by the chosen presentation
    generators; vertices g and h are adjacent iff h = g*s for one of them.
    """

    element_count: int
    generator_elements: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...]
    labeled_edges: tuple[tuple[int, int, int], ...]  # (g, signed generator, g*s)
    identity: int = 0

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])


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

    elements = sorted({t.act(0, letter) for letter in signed})
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    labeled: list[tuple[int, int, int]] = []
    for g in range(n):
        for letter in signed:
            h = t.act(g, letter)
            neighbor_sets[g].add(h)
            labeled.append((g, letter, h))

    # orbit of the identity must be everything
    seen = bfs(0, neighbor_sets.__getitem__)
    if len(seen) != n:
        raise NotGeneratingError(
            f"generators {chosen} reach only {len(seen)} of {n} elements"
        )

    return CayleyGraph(
        element_count=n,
        generator_elements=tuple(elements),
        neighbors=tuple(tuple(sorted(s)) for s in neighbor_sets),
        labeled_edges=tuple(labeled),
    )


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
    dist = bfs_distances(c, c.identity)
    if min(dist) < 0:
        raise NotGeneratingError("Cayley graph is disconnected")
    m = max(dist)
    farthest = dist.index(m)
    layers = [0] * (m + 1)
    for d in dist:
        layers[d] += 1
    return WordDiameter(m, farthest, tuple(layers), tuple(dist))


# ------------------------------------------------------------ triviality


@dataclass(frozen=True)
class TrivialityResult:
    status: Literal["yes", "no", "unknown"]
    certificate: str | None = None

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"


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

    The cheap No-path certifies an infinite abelianization from the rational
    rank of the exponent-sum matrix, computed exactly by sparse integer
    elimination; otherwise enumeration decides, with Unknown on overflow.
    """
    if p.generator_count > 0:
        rank = _exponent_matrix_rank(p)
        if rank < p.generator_count:
            return TrivialityResult(
                "no",
                f"abelianization infinite: exponent matrix rank {rank} < {p.generator_count}",
            )
    try:
        table = todd_coxeter(p, max_cosets)
    except EnumerationOverflow:
        return TrivialityResult("unknown", f"budget {max_cosets} exhausted")
    if table.coset_count == 1:
        return TrivialityResult("yes")
    return TrivialityResult("no", f"completed, order {table.coset_count}")
