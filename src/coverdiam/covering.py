"""Finite covers of metric graphs via permutation voltages.

Traversing a base edge e from u to v sends sheet s to sigma_e(s); the
derived graph has vertices (v, s) and edges (e, s) of the same length as
e, named "v@s" and "e@s".  Unique path lifting, the n-times-diameter
bound check and the constructive route shortening live here.  Deck
transformations and shortening iterated down to the bound are run by the
test suite, not shipped here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DisconnectedCoverError, InvariantError, PathNotLongEnough
from .metric_graph import (
    _position,
    _sorted,
    DiameterResult,
    EdgePoint,
    MetricGraph,
    PathRoute,
    RouteLeg,
    concat_routes,
    continuous_diameter,
    endpoint_side,
    points_coincide,
    point_vertex,
    shortest_route,
    validate_route,
)

__all__ = [
    "Voltage",
    "CoveringGraph",
    "ConnectivityReport",
    "CoverBoundReport",
    "ShorteningTrace",
    "derive_cover",
    "is_connected_cover",
    "lift_path_ending_at",
    "verify_diameter_bound",
    "pigeonhole_shorten",
    "voltage_from_json",
    "load_voltage",
]

_TOL = 1e-9
# a route within this share of sheets * d(base) is at the bound up to rounding
_ROUNDING = 1e-12


class Voltage:
    """A permutation of {0..n-1} per base edge."""

    def __init__(self, sheets: int, assignment: Mapping[str, Sequence[int]]):
        if sheets < 1:
            raise ValueError("sheet count must be at least 1")
        self.sheets = int(sheets)
        perms: dict[str, tuple[int, ...]] = {}
        for eid, perm in assignment.items():
            perm = tuple(int(x) for x in perm)
            if sorted(perm) != list(range(self.sheets)):
                raise ValueError(f"voltage for edge {eid!r} is not a permutation of 0..{self.sheets - 1}")
            perms[str(eid)] = perm
        self.assignment = perms

    def perm(self, eid: str) -> tuple[int, ...]:
        return self.assignment[eid]

    def inverse_perm(self, eid: str) -> tuple[int, ...]:
        perm = self.assignment[eid]
        inv = [0] * self.sheets
        for i, img in enumerate(perm):
            inv[img] = i
        return tuple(inv)


def voltage_from_json(obj: dict) -> Voltage:
    try:
        return Voltage(int(obj["sheets"]), obj["voltages"])
    except KeyError as exc:
        raise ValueError(f"malformed voltage file: missing {exc}") from None


def load_voltage(path) -> Voltage:
    with open(path, "r", encoding="utf-8") as fh:
        return voltage_from_json(json.load(fh))


class CoveringGraph:
    """Derived graph of a voltage assignment, with projection and lifts.

    Base ids hold no "@", so "b@s" names b on sheet s and `rpartition("@")`
    inverts it; the maps raise KeyError on a name or sheet outside the cover.
    """

    def __init__(self, base: MetricGraph, voltage: Voltage, graph: MetricGraph):
        self.base = base
        self.voltage = voltage
        self.sheets = voltage.sheets
        self.graph = graph
        self._base_diameter: DiameterResult | None = None

    # -- naming and projection ---------------------------------------

    def lift_vertex(self, v: str, sheet: int) -> str:
        return self._lifted(self.base.vertices, v, sheet)

    def lift_edge(self, e: str, sheet: int) -> str:
        return self._lifted(self.base._edge_ids, e, sheet)

    def project_vertex(self, dv: str) -> tuple[str, int]:
        return _projected(self.graph.vertices, dv)

    def project_edge(self, de: str) -> tuple[str, int]:
        return _projected(self.graph._edge_ids, de)

    def _lifted(self, names: tuple[str, ...], b: str, sheet: int) -> str:
        if _position(names, b) < 0 or sheet not in range(self.sheets):
            raise KeyError((b, sheet))
        return f"{b}@{int(sheet)}"

    def project_point(self, p: EdgePoint) -> EdgePoint:
        self.graph.check_point(p)
        return EdgePoint(self.project_edge(p.edge)[0], p.offset)

    def project_route(self, route: PathRoute) -> PathRoute:
        legs = [RouteLeg(self.project_edge(l.edge)[0], l.start, l.end) for l in route.legs]
        anchor = self.project_point(route.anchor) if route.anchor is not None else None
        return PathRoute(tuple(legs), anchor)

    def fiber_sheet(self, p: EdgePoint) -> int:
        """Index of a derived point within the fiber of its projection.

        Interior points are indexed by the sheet of their derived edge,
        vertex points by the sheet of their derived vertex; either way, two
        points in one fiber coincide iff their indices agree.
        """
        v = point_vertex(self.graph, p)
        if v is not None:
            return self.project_vertex(v)[1]
        return self.project_edge(p.edge)[1]

    def base_diameter(self) -> DiameterResult:
        if self._base_diameter is None:
            self._base_diameter = continuous_diameter(self.base)
        return self._base_diameter


def _projected(names: tuple[str, ...], name: str) -> tuple[str, int]:
    if _position(names, name) < 0:
        raise KeyError(name)
    b, _, s = name.rpartition("@")
    return b, int(s)


def derive_cover(g: MetricGraph, v: Voltage) -> CoveringGraph:
    """Build the derived graph; connectivity is reported separately."""
    ids = g._edge_ids
    missing = [e for e in ids if e not in v.assignment]
    if missing:
        raise ValueError(f"voltage missing assignment for edges {missing}")
    unknown = sorted(v.assignment.keys() - set(ids))
    if unknown:
        raise ValueError(f"voltage assigns unknown edges {unknown}")
    for name in g.vertices + ids:
        if "@" in name:
            raise ValueError(f"base id {name!r} must not contain '@'")

    derived, _ = _lift(g, [v.perm(e) for e in ids], v.sheets)
    return CoveringGraph(g, v, derived)


def _lift(g: MetricGraph, perms, sheets: int) -> tuple[MetricGraph, np.ndarray]:
    """The derived graph of one sheet permutation per edge of `g` (rows in
    edge-id order), and `lift`, where `lift[b, s]` is its index of vertex b
    of `g` on sheet s, named "b@s".  Lifted edge j on sheet s, "e@s" after
    e = g.edges[j], runs from (e.u, s) to (e.v, perms[j][s]) with the length
    of e.  Both are made from `g`'s index arrays, each name formatted and
    sorted once, and the derived graph builds no `Edge` record until asked.
    """
    gu, gv, length = g.edge_arrays()
    perms = np.asarray(perms, dtype=np.intp).reshape(len(gu), sheets)
    bad = _not_permutations(perms)
    if bad.any():
        j = int(bad.argmax())
        raise InvariantError(f"star at a lift of {g.vertices[gv[j]]} does not project "
                             f"bijectively onto edge {g._edge_ids[j]}")
    vertices, order = _sorted([f"{b}@{s}" for b in g.vertices for s in range(sheets)])
    lift = np.argsort(order).reshape(len(g.vertices), sheets)
    ids, by_id = _sorted([f"{e}@{s}" for e in g._edge_ids for s in range(sheets)])
    derived = MetricGraph._from_arrays(
        vertices, ids, lift[gu].ravel()[by_id], lift[gv[:, None], perms].ravel()[by_id],
        np.repeat(length, sheets)[by_id], require_connected=False)
    return derived, lift


def _not_permutations(perms: np.ndarray) -> np.ndarray:
    """Rows of `perms`, sheet maps, that do not permute the sheets: a lift's
    stars project bijectively exactly when none does (its edges leave each
    sheet over their first end once, and must reach each over the other)."""
    return (np.sort(perms, axis=1) != np.arange(perms.shape[1])).any(axis=1)


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    orbits: tuple[tuple[int, ...], ...]


def is_connected_cover(c: CoveringGraph) -> ConnectivityReport:
    """Connectivity of the derived graph, with the sheet orbit structure.

    Sheets s, t share an orbit iff the fiber points over the root vertex
    lie in one component; the cover is connected iff there is one orbit
    (the monodromy action is transitive).
    """
    roots = c.graph._components  # the least vertex index of each component
    fiber = [roots[c.graph.vertex_index(c.lift_vertex(c.base.vertices[0], s))] for s in range(c.sheets)]
    orbits: dict[int, list[int]] = {}
    for s in sorted(range(c.sheets), key=fiber.__getitem__):
        orbits.setdefault(fiber[s], []).append(s)
    return ConnectivityReport(c.graph.is_connected, tuple(map(tuple, orbits.values())))


# ------------------------------------------------------------- lifting


def _lift_route_at(c: CoveringGraph, route: PathRoute, start: EdgePoint) -> PathRoute:
    """The unique lift of a base route beginning at the given derived point."""
    validate_route(c.base, route)
    c.graph.check_point(start)
    if not points_coincide(c.base, c.project_point(start), route.start):
        raise ValueError("start point does not project to the route's start")
    if route.is_empty:
        return PathRoute.empty(start)

    # position state: either inside a specific derived edge, or at a derived vertex
    at_vertex = point_vertex(c.graph, start)
    on_edge = start.edge if at_vertex is None else None

    legs: list[RouteLeg] = []
    for leg in route.legs:
        base_edge = c.base.edge(leg.edge)
        if on_edge is not None:
            derived_id = on_edge
            if c.project_edge(derived_id)[0] != leg.edge:
                raise ValueError("route leaves an edge interior inconsistently")
        else:
            if at_vertex is None:
                raise InvariantError("lift lost its vertex between legs")
            entry = endpoint_side(leg.start, base_edge.length)
            if entry is None:
                raise ValueError("route jumps to an edge interior")
            sheet = c.project_vertex(at_vertex)[1]
            if entry == "u":
                derived_id = c.lift_edge(leg.edge, sheet)
            else:
                derived_id = c.lift_edge(leg.edge, c.voltage.inverse_perm(leg.edge)[sheet])
        legs.append(RouteLeg(derived_id, leg.start, leg.end))
        exit_side = endpoint_side(leg.end, base_edge.length)
        if exit_side is None:
            on_edge, at_vertex = derived_id, None
        else:
            on_edge, at_vertex = None, getattr(c.graph.edge(derived_id), exit_side)
    return PathRoute.from_legs(legs, anchor_if_empty=start)


def lift_path_ending_at(c: CoveringGraph, base: PathRoute, end: EdgePoint) -> PathRoute:
    """The unique lift whose endpoint is the given derived point."""
    return _lift_route_at(c, base.reversed(), end).reversed()


# ---------------------------------------------------------- bound check


@dataclass(frozen=True)
class CoverBoundReport:
    sheets: int
    d_base: float
    d_cover: float
    bound: float
    holds: bool
    tol: float
    base_witness: tuple[EdgePoint, EdgePoint] | None
    cover_witness: tuple[EdgePoint, EdgePoint] | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_diameter_bound(g: MetricGraph, v: Voltage, tol: float = 1e-9) -> CoverBoundReport:
    """Check d(cover) <= sheets * d(base) on the derived graph of (g, v)."""
    cover = derive_cover(g, v)
    if not is_connected_cover(cover).connected:
        raise DisconnectedCoverError("derived graph is disconnected")
    return cover_bound_report(cover, tol)


def cover_bound_report(cover: CoveringGraph, tol: float) -> CoverBoundReport:
    """The d(cover) <= sheets * d(base) verdict on a cover known to be connected."""
    base_res = cover.base_diameter()
    cover_res = continuous_diameter(cover.graph)
    bound = cover.sheets * base_res.value
    return CoverBoundReport(
        sheets=cover.sheets,
        d_base=base_res.value,
        d_cover=cover_res.value,
        bound=bound,
        holds=cover_res.value <= bound + tol,
        tol=tol,
        base_witness=base_res.witness,
        cover_witness=cover_res.witness,
    )


# ------------------------------------------------------------ shortening


@dataclass(frozen=True)
class ShorteningTrace:
    """Everything produced while shortening one over-long route."""

    partition_arclengths: tuple[float, ...]
    partition_points: tuple[EdgePoint, ...]
    pieces: tuple[PathRoute, ...]
    replacements: tuple[PathRoute, ...]
    lifted_betas: tuple[PathRoute, ...]
    match: tuple[int, int]  # (0, j): input route matches lift j; else lifts (i, j)
    shortened: PathRoute


def pigeonhole_shorten(c: CoveringGraph, route: PathRoute) -> ShorteningTrace:
    """Strictly shorten a route of length > sheets * d(base), same endpoints.

    A route within _ROUNDING of the bound is at it, since the bound is
    rounded: it raises PathNotLongEnough like one below it.

    The route is cut into equal n-ths (each piece longer than the base
    diameter d); each projected piece gets a shortest-path replacement of
    length <= d, giving n strictly shorter comparison curves re-lifted to
    end at the route's endpoint.  Their n+1 start points live in one
    n-element fiber, so two coincide, and splicing at the match yields a
    strictly shorter route with the same endpoints.
    """
    validate_route(c.graph, route)
    n = c.sheets
    d = c.base_diameter().value
    total = route.length
    if not (total > n * d * (1.0 + _ROUNDING)):
        raise PathNotLongEnough(
            f"route length {total} is within the bound {n} * {d} = {n * d}"
        )

    cuts = [total * i / n for i in range(1, n)]
    pieces = route.split_at(cuts) if cuts else (route,)
    partition_points = (route.start,) + tuple(p.end for p in pieces)
    arclengths = (0.0,) + tuple(total * i / n for i in range(1, n)) + (total,)

    proj_points = [c.project_point(p) for p in partition_points]
    proj_pieces = [c.project_route(p) for p in pieces]
    alphas = [
        shortest_route(c.base, proj_points[k], proj_points[k + 1]) for k in range(n)
    ]
    for k in range(n):
        if alphas[k].length > d * (1.0 + _TOL):
            raise InvariantError(f"shortcut {k} is longer than the base diameter")
        if pieces[k].length <= d:
            raise InvariantError(f"piece {k} is not longer than the base diameter")

    q = route.end
    betas = []
    lifted = []
    for i in range(1, n + 1):
        parts = alphas[:i] + proj_pieces[i:]
        beta = concat_routes(c.base, *parts)
        betas.append(beta)
        lifted.append(lift_path_ending_at(c, beta, q))

    start_sheets = [c.fiber_sheet(route.start)] + [c.fiber_sheet(b.start) for b in lifted]
    match = None
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if start_sheets[i] == start_sheets[j]:
                match = (i, j)
                break
        if match:
            break
    if match is None:
        raise InvariantError(
            "pigeonhole failure: fiber has n points but no two of n+1 starts agree"
        )

    i, j = match
    if i == 0:
        sigma = lifted[j - 1]
    else:
        parts = proj_pieces[:i] + alphas[i:j] + proj_pieces[j:]
        sigma_base = concat_routes(c.base, *parts)
        sigma = lift_path_ending_at(c, sigma_base, q)

    if c.fiber_sheet(sigma.start) != c.fiber_sheet(route.start):
        raise InvariantError("shortened route starts on another sheet")
    if not points_coincide(c.graph, sigma.end, route.end):
        raise InvariantError("shortened route ends elsewhere")
    if sigma.length >= total:
        raise InvariantError("shortened route is not shorter")
    return ShorteningTrace(
        partition_arclengths=arclengths,
        partition_points=partition_points,
        pieces=tuple(pieces),
        replacements=tuple(alphas),
        lifted_betas=tuple(lifted),
        match=match,
        shortened=sigma,
    )
