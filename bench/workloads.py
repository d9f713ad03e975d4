"""Seeded inputs and one round of each benchmark workload.

Every workload drives coverdiam through its public functions only, and
reaches them through module attributes (``cli.run``, not a bare ``run``),
so that the tracer in ``layers.py`` sees every call it wraps.  A round is
a fixed list of operations, each timed on its own; it returns the time of
every operation, how many of them failed, the verdicts themselves, and a
canonical serialisation of them (two rounds on the same seed must give
the same bytes).
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field

from coverdiam import cli, separator, universal_cover
from coverdiam.complexes import SimplicialComplex2
from coverdiam.groups import Presentation

BUDGET = 100_000


@dataclass
class RoundResult:
    times: dict  # operation label -> seconds
    failed: int
    canonical: bytes
    outputs: dict = field(repr=False)


def _timed_round(operations) -> tuple[dict, list, int]:
    """Run (label, call) pairs in order; call() returns (row, failed count).

    An operation that raises counts as one failed operation.
    """
    times, rows, failed = {}, [], 0
    for label, call in operations:
        t0 = time.perf_counter()
        try:
            row, bad = call()
        except Exception as exc:  # counted as a failed operation
            row, bad = f"{type(exc).__name__}: {exc}", 1
        times[label] = time.perf_counter() - t0
        failed += bad
        rows.append([label, row])
    return times, rows, failed


def _relabel(k: SimplicialComplex2, rng: random.Random) -> SimplicialComplex2:
    """The same complex with its vertices renamed by a seeded permutation."""
    labels = list(range(1, len(k.vertices) + 1))
    rng.shuffle(labels)
    name = dict(zip(k.vertices, labels))
    tri_edges = {e for t in k.triangles for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))}
    return SimplicialComplex2(
        [name[v] for v in k.vertices],
        [[name[v] for v in t] for t in k.triangles],
        [[name[v] for v in e] for e in k.edges if e not in tri_edges],
    )


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


# ------------------------------------------------------------------ sweep


class Sweep:
    """``coverdiam sweep cover``: cli.run on many small random voltage covers.

    The rows are drawn from the seed's sweep by cover size, a fixed number
    per band of cover edges (sheets x base edges), so every seed gives a
    round of about the same work.  Each row runs as ``coverdiam sweep
    cover --start i --count 1`` does: cli.run, then cli.emit.
    """

    name = "sweep"
    # (fewest, most cover edges, rows); the last band is the largest instance
    BANDS = ((1, 12, 20), (13, 24, 20), (25, 36, 20), (37, 48, 15), (49, 60, 15), (61, 72, 10))
    MAX_SCAN = 5000

    def __init__(self, seed: int):
        self.seed = seed
        need = [n for *_, n in self.BANDS]
        self.bands: list[list[int]] = [[] for _ in self.BANDS]
        for i in range(self.MAX_SCAN):
            if not any(need):
                break
            g, _, cover, _ = cli.sweep_instance(seed, i)
            m = cover.sheets * len(g.edges)
            for b, (lo, hi, _) in enumerate(self.BANDS):
                if lo <= m <= hi and need[b]:
                    need[b] -= 1
                    self.bands[b].append(i)
        if any(need):
            raise RuntimeError(f"sweep seed {seed}: bands not filled in {self.MAX_SCAN} rows")
        self.rows = sorted(i for band in self.bands for i in band)
        self.largest = self.bands[-1]
        self.ops = len(self.rows)

    def warm_up(self) -> None:
        """One small row, untimed, so lazy set-up is done before timing."""
        report = cli.run(cli.ExperimentConfig("sweep-cover", seed=self.seed, start=self.bands[0][0], count=1))
        cli.emit(report, "json")

    def round(self) -> RoundResult:
        reports = {}

        def row(i):
            def call():
                report = cli.run(cli.ExperimentConfig("sweep-cover", seed=self.seed, start=i, count=1))
                reports[i] = report
                payload = cli.emit(report, "json").decode("utf-8")
                return payload, report.summary["error"] + report.summary["fail"]
            return call

        times, rows, failed = _timed_round([(i, row(i)) for i in self.rows])
        return RoundResult(times, failed, _dumps(rows), {"reports": reports})

    def largest_s(self, times: dict) -> float:
        """Mean time of the rows in the largest band."""
        return statistics.mean(times[i] for i in self.largest)


# ----------------------------------------------------------------- cayley


@dataclass(frozen=True)
class CayleyInstance:
    name: str
    presentation: Presentation
    gens: tuple[int, ...]
    expect: str | None  # verdict the instance was chosen for, or None for the zoo


def cyclic_powers(n: int, k: int, rng: random.Random) -> Presentation:
    """Z_n on generators a, a^2, .., a^k, numbered and ordered by the seed."""
    number = list(range(1, k + 1))
    rng.shuffle(number)
    a = number[0]
    relators = [(a,) * n] + [(number[j - 1],) + (-a,) * j for j in range(2, k + 1)]
    rng.shuffle(relators)
    return Presentation(k, relators)


class Cayley:
    """separator.verify_cayley_bound over the zoo and two generated families."""

    name = "cayley"
    # Z_{3k} with steps 1..k: full rank, so Todd-Coxeter decides ("holds")
    HOLDS = tuple((3 * k, k) for k in range(3, 8))
    # rank deficient: the exponent-matrix certificate decides
    HYPOTHESIS_FAILED = ((36, 4), (30, 5), (40, 5))
    LARGEST = "Z40|1..5"

    def __init__(self, seed: int):
        rng = random.Random(f"cayley:{seed}")
        self.instances = [
            CayleyInstance(z.name, z.presentation, z.gens, None)
            for z in separator.zoo_instances()
        ]
        for family, expect in ((self.HOLDS, "holds"), (self.HYPOTHESIS_FAILED, "hypothesis_failed")):
            for n, k in family:
                self.instances.append(
                    CayleyInstance(f"Z{n}|1..{k}", cyclic_powers(n, k, rng), tuple(range(k)), expect)
                )
        self.ops = len(self.instances)

    def warm_up(self) -> None:
        """The first zoo instance, untimed, so lazy set-up is done before timing."""
        inst = self.instances[0]
        separator.verify_cayley_bound(inst.presentation, inst.gens, BUDGET)

    def round(self) -> RoundResult:
        reports = {}

        def check(inst):
            def call():
                rep = separator.verify_cayley_bound(inst.presentation, inst.gens, BUDGET)
                reports[inst.name] = rep
                return rep.to_row(), 0
            return call

        times, rows, failed = _timed_round([(inst.name, check(inst)) for inst in self.instances])
        return RoundResult(times, failed, _dumps(rows), {"reports": reports})

    def largest_s(self, times: dict) -> float:
        return times[self.LARGEST]


# -------------------------------------------------------- universal covers


@dataclass(frozen=True)
class CoverInstance:
    key: object
    base: SimplicialComplex2
    levels: tuple[int, ...]  # verify_universal_bound at each
    nerve_level: int  # one of levels
    epsilon: float
    basepoint: object


def _cover_round(instances) -> RoundResult:
    """Build, verify at each level and nerve-check each instance.

    Operations are labelled "<key>/build", "<key>/L<level>" and
    "<key>/nerve"; after a failed build the instance's other operations
    fail too.
    """
    outputs = {}

    def operations(inst):
        out = outputs.setdefault(inst.key, {})

        def build():
            out["cover"] = universal_cover.build_universal_cover(inst.base, BUDGET)
            return [out["cover"].sheets, list(out["cover"].total.f_vector)], 0

        def verify(lv):
            def call():
                out[lv] = universal_cover.verify_universal_bound(inst.base, lv, BUDGET, cover=out["cover"])
                return out[lv].to_json_dict(), 0
            return call

        def nerve():
            out["nerve"] = universal_cover.fiber_ball_nerve(
                out["cover"], inst.basepoint, inst.epsilon, inst.nerve_level, BUDGET)
            return out["nerve"].to_json_dict(), 0

        return ([(f"{inst.key}/build", build)]
                + [(f"{inst.key}/L{lv}", verify(lv)) for lv in inst.levels]
                + [(f"{inst.key}/nerve", nerve)])

    times, rows, failed = _timed_round([op for inst in instances for op in operations(inst)])
    return RoundResult(times, failed, _dumps(rows), outputs)


class RP2:
    """The universal (double) cover of the six-vertex RP^2, as in ``ucover``."""

    name = "rp2"
    LEVELS = (3, 4, 6)
    NERVE_LEVEL = 4
    EPSILON = 0.05
    # the level-6 check on the 1080-edge cover graph
    LARGEST = "rp2/L6"

    def __init__(self, seed: int):
        base = _relabel(universal_cover.rp2_complex(), random.Random(f"rp2:{seed}"))
        self.instances = [CoverInstance("rp2", base, self.LEVELS, self.NERVE_LEVEL,
                                        self.EPSILON, base.vertices[0])]
        self.ops = 2 + len(self.LEVELS)

    def warm_up(self) -> None:
        """The same pipeline at level 2, untimed, so lazy set-up is done before timing."""
        inst = self.instances[0]
        _cover_round([CoverInstance(inst.key, inst.base, (2,), 2, inst.epsilon, inst.basepoint)])

    def round(self) -> RoundResult:
        return _cover_round(self.instances)

    def largest_s(self, times: dict) -> float:
        return times[self.LARGEST]


def pseudo_projective_plane(k: int) -> SimplicialComplex2:
    """Order-k pseudo-projective plane: f = (3k+4, 12k+3, 9k), chi = 1, pi_1 = Z_k.

    Vertices x0, x1, x2 are numbered 0..2, the cone point c is 3 and the
    ring r_0 .. r_{3k-1} is 4 .. 3k+3.  The ring wraps k times around the
    triangle x0 x1 x2 and is coned off at c, so the loop x0 x1 x2 has
    order k in the fundamental group.
    """
    m = 3 * k
    ring = [4 + i for i in range(m)]
    triangles = []
    for i in range(m):
        a, b = i % 3, (i + 1) % 3
        r, r_next = ring[i], ring[(i + 1) % m]
        triangles += [(a, b, r), (b, r, r_next), (r, r_next, 3)]
    return SimplicialComplex2(range(m + 4), triangles)


class Lens:
    """Universal covers of generated pseudo-projective planes, pi_1 = Z_k.

    The planes keep their own vertex numbers: coset enumeration on some
    renumberings runs for minutes (see CHANGES.md).  The seed picks the
    base vertex whose lifts centre the nerve.
    """

    name = "lens"
    # orders k, each checked at level 1 and nerve-checked with eps = 1
    ORDERS = (3, 4, 6)
    LEVEL = 1
    LARGEST = 6

    def __init__(self, seed: int):
        rng = random.Random(f"lens:{seed}")
        self.instances = []
        for k in self.ORDERS:
            plane = pseudo_projective_plane(k)
            p = rng.choice(plane.vertices)
            self.instances.append(CoverInstance(k, plane, (self.LEVEL,), self.LEVEL, 1.0 / self.LEVEL, p))
        self.ops = 3 * len(self.instances)

    def warm_up(self) -> None:
        """The smallest plane's pipeline, untimed, so lazy set-up is done before timing."""
        _cover_round(self.instances[:1])

    def round(self) -> RoundResult:
        return _cover_round(self.instances)

    def largest_s(self, times: dict) -> float:
        """Build, check and nerve of the order-6 plane."""
        return sum(t for label, t in times.items() if label.startswith(f"{self.LARGEST}/"))


WORKLOADS = {w.name: w for w in (Sweep, RP2, Cayley, Lens)}
