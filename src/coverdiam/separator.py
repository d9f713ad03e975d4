"""The square-root diameter cap for Cayley graphs, checked on a zoo.

When the flag filling of a Cayley graph is simply connected, its word
diameter is at most sqrt(4|G|+1) - 2.  `verify_cayley_bound` certifies
the hypothesis by coset enumeration and decides the cap in integers; the
left multiplications serve the deck group of universal covers.  The
cap's proof steps (sphere decompositions with their separating layer
components T_i, the size bounds |T_i| >= min(i+1, m-i+1) and the layer
sum) are run by the test suite, not shipped here.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .complexes import flag_triangles, is_simply_connected
from .errors import InvariantError
from .groups import (
    CayleyGraph,
    CosetTable,
    Presentation,
    TrivialityResult,
    cayley_graph,
    todd_coxeter,
    word_metric_diameter,
)

__all__ = [
    "CayleyBoundReport",
    "ZooInstance",
    "left_multiplication",
    "left_multiplications",
    "cayley_diameter_bound",
    "cayley_cap_holds",
    "verify_cayley_bound",
    "zoo_instances",
]


def left_multiplication(t: CosetTable, a: int) -> tuple[int, ...]:
    """The permutation g -> a*g: row a of `left_multiplications`."""
    return tuple(left_multiplications(t)[a].tolist())


def left_multiplications(t: CosetTable) -> np.ndarray:
    """Every left multiplication as an n x n array, deck[a, g] = a*g, filled
    column by column along one BFS from the identity, whose column is the
    identity: left and right multiplication commute, a*(g*letter) =
    (a*g)*letter, so column g*letter is the letter's row read at column g."""
    n = t.coset_count
    rows = [row for pair in zip(t.action, t._inverse) for row in pair]  # letters 1, -1, 2, ..
    deck = np.empty((n, n), dtype=np.intp)
    deck[:, 0] = np.arange(n)
    seen = [True] + [False] * (n - 1)
    queue = deque([0])
    while queue:
        g = queue.popleft()
        for row in rows:
            h = row[g]
            if not seen[h]:
                seen[h] = True
                deck[:, h] = np.take(row, deck[:, g])
                queue.append(h)
    if not all(seen):
        raise InvariantError("left multiplication missed an element")
    return deck


def cayley_diameter_bound(n: int) -> float:
    """sqrt(4n + 1) - 2: the diameter cap for simply connected flag fillings."""
    if n < 1:
        raise ValueError("group order must be positive")
    return math.sqrt(4 * n + 1) - 2


def cayley_cap_holds(diameter, n):
    """Whether diameter <= sqrt(4n + 1) - 2, decided in integers as
    (diameter + 2)^2 <= 4n + 1; elementwise on integer arrays."""
    return (diameter + 2) ** 2 <= 4 * n + 1


@dataclass(frozen=True)
class CayleyBoundReport:
    order: int
    gens: tuple[int, ...]
    simply_connected: TrivialityResult
    diameter: int
    bound: float
    verdict: str  # holds | hypothesis_failed | inconclusive | violated
    cayley: CayleyGraph
    table: CosetTable

    def to_row(self) -> dict:
        return {
            "order": self.order,
            "gens": ";".join(str(g) for g in self.gens),
            "sc_status": self.simply_connected.status,
            "diam": self.diameter,
            "bound": self.bound,
            "verdict": self.verdict,
        }


def verify_cayley_bound(
    p: Presentation, gens: Iterable[int], budget: int
) -> CayleyBoundReport:
    """Check diam <= sqrt(4|G|+1) - 2 whenever the flag filling is certified
    simply connected; otherwise report why the hypothesis is unavailable."""
    table = todd_coxeter(p, budget)
    gens = tuple(sorted(set(int(g) for g in gens)))
    c = cayley_graph(table, gens)
    flag = flag_triangles(c)
    sc = is_simply_connected(flag, budget)
    diam = word_metric_diameter(c).diameter
    bound = cayley_diameter_bound(table.coset_count)
    if sc.status == "yes":
        verdict = "holds" if cayley_cap_holds(diam, table.coset_count) else "violated"
    elif sc.status == "no":
        verdict = "hypothesis_failed"
    else:
        verdict = "inconclusive"
    return CayleyBoundReport(
        order=table.coset_count,
        gens=gens,
        simply_connected=sc,
        diameter=diam,
        bound=bound,
        verdict=verdict,
        cayley=c,
        table=table,
    )


# ------------------------------------------------------------------- zoo


@dataclass(frozen=True)
class ZooInstance:
    name: str
    presentation: Presentation
    gens: tuple[int, ...]


def _cyclic_with_powers(k: int) -> Presentation:
    # generators a, b, c with b = a^2, c = a^3
    return Presentation(3, [(1,) * k, (2, -1, -1), (3, -1, -1, -1)])


def zoo_instances() -> tuple[ZooInstance, ...]:
    """The verification zoo: cyclic groups with one, two and three residue
    generators, dihedral groups, two symmetric groups, and the quaternions."""
    out: list[ZooInstance] = []
    for k in range(2, 25):
        pres = _cyclic_with_powers(k)
        out.append(ZooInstance(f"Z{k}|1", pres, (0,)))
        out.append(ZooInstance(f"Z{k}|1,2", pres, (0, 1)))
        out.append(ZooInstance(f"Z{k}|1,2,3", pres, (0, 1, 2)))
    for k in range(3, 9):  # dihedral groups of orders 6..16
        pres = Presentation(2, [(1,) * k, (2, 2), (1, 2, 1, 2)])
        out.append(ZooInstance(f"D{2 * k}", pres, (0, 1)))
    out.append(
        ZooInstance("S3", Presentation(2, [(1, 1), (2, 2), (1, 2) * 3]), (0, 1))
    )
    out.append(
        ZooInstance(
            "S4",
            Presentation(3, [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2]),
            (0, 1, 2),
        )
    )
    out.append(
        ZooInstance(
            "Q8", Presentation(2, [(1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)]), (0, 1)
        )
    )
    return tuple(out)
