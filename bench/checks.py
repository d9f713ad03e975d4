"""Checks of the program's outputs against computations made apart from it.

Nothing here compares with a stored copy of earlier output.  Diameters
are checked against the mesh sandwich ``D_h <= D <= D_h + h``: ``D_h`` is
the largest vertex distance, computed with ``scipy.sparse.csgraph``, in
the benchmark's own subdivision of the graph into pieces of length at
most ``h``; every point lies within ``h/2`` of a subdivision vertex.
Floats are compared with a tolerance relative to the graph's total
length.  Group orders and diameters come from closed forms and from
Cayley graphs the benchmark builds itself; first Betti numbers come from
numpy ranks of boundary matrices, on 3-cliques that networkx finds.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from coverdiam import cli, complexes, universal_cover

REL_TOL = 1e-9
SOURCE_CHUNK = 256


# ---------------------------------------------------------------- metrics


def mesh_diameter(edges, pieces_per_unit: float) -> tuple[float, float, float]:
    """(D_h, h, total length) for a graph given as (u, v, length) triples.

    Every edge is cut into at least three pieces, so the subdivision has
    neither loops nor parallel edges.
    """
    index: dict = {}

    def node(key):
        return index.setdefault(key, len(index))

    rows, cols, data = [], [], []
    h = 0.0
    total = 0.0
    for j, (u, v, length) in enumerate(edges):
        k = max(3, math.ceil(length * pieces_per_unit))
        piece = length / k
        h = max(h, piece)
        total += length
        chain = [node(("v", u))] + [node(("e", j, t)) for t in range(1, k)] + [node(("v", v))]
        rows += chain[:-1]
        cols += chain[1:]
        data += [piece] * k
    n = len(index)
    graph = coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    best = 0.0
    for lo in range(0, n, SOURCE_CHUNK):
        d = dijkstra(graph, directed=False, indices=range(lo, min(n, lo + SOURCE_CHUNK)))
        best = max(best, float(d.max()))
    return best, h, total


def in_sandwich(label: str, value: float, edges, pieces_per_unit: float) -> list[str]:
    d_h, h, total = mesh_diameter(edges, pieces_per_unit)
    tol = REL_TOL * total
    if not (d_h - tol <= value <= d_h + h + tol):
        return [f"{label}: diameter {value!r} outside mesh sandwich [{d_h}, {d_h + h}]"]
    return []


def pe_graph(k: complexes.SimplicialComplex2, level: int):
    """The level-L subdivision graph of the unit-equilateral model of k.

    A lattice point is named by its barycentric weights on the vertices of
    the smallest simplex holding it, so points on shared edges coincide.
    Returns (vertex set, edge set); every edge has length 1/level.
    """
    def point(weights):
        return tuple(sorted((v, w) for v, w in weights if w))

    edges = set()
    in_triangle = set()
    for a, b, c in k.triangles:
        in_triangle.update({(a, b), (a, c), (b, c)})
        for x in range(level + 1):
            for y in range(level + 1 - x):
                z = level - x - y
                here = point(((a, x), (b, y), (c, z)))
                for dx, dy, dz in ((-1, 1, 0), (-1, 0, 1), (0, -1, 1)):
                    nxt = (x + dx, y + dy, z + dz)
                    if min(nxt) < 0:
                        continue
                    there = point(((a, nxt[0]), (b, nxt[1]), (c, nxt[2])))
                    edges.add((min(here, there), max(here, there)))
    for u, v in k.edges:
        if (u, v) not in in_triangle:
            chain = [point(((u, level - t), (v, t))) for t in range(level + 1)]
            edges.update(zip(chain[:-1], chain[1:]))
    vertices = {p for e in edges for p in e} | {((v, level),) for v in k.vertices}
    return vertices, edges


def pe_sizes(f_vector, level: int) -> tuple[int, int]:
    nv, ne, nf = f_vector
    L = level
    return nv + (L - 1) * ne + (L - 1) * (L - 2) // 2 * nf, L * ne + 3 * L * (L - 1) // 2 * nf


def betti1(vertices, edges, triangles) -> int:
    """First Betti number over Q: dim ker d1 - rank d2."""
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    rank_d1 = len(vertices) - nx.number_connected_components(g)
    if not triangles:
        return len(edges) - rank_d1
    col = {tuple(sorted(e)): j for j, e in enumerate(edges)}
    d2 = np.zeros((len(edges), len(triangles)))
    for m, t in enumerate(triangles):
        a, b, c = sorted(t)
        d2[col[(b, c)], m] += 1
        d2[col[(a, c)], m] -= 1
        d2[col[(a, b)], m] += 1
    return len(edges) - rank_d1 - int(np.linalg.matrix_rank(d2))


def clique_triangles(g: nx.Graph) -> list[tuple]:
    out = []
    for clique in nx.enumerate_all_cliques(g):
        if len(clique) > 3:
            break
        if len(clique) == 3:
            out.append(tuple(sorted(clique)))
    return out


# ------------------------------------------------------------------ sweep


def check_sweep(workload, result) -> list[str]:
    problems = []
    for i in workload.rows:
        report = result.outputs["reports"].get(i)
        if report is None:
            continue  # a failed operation, counted apart
        summary = report.summary
        if not summary["rows"] == summary["pass"] + summary["fail"] + summary["error"] == 1:
            problems.append(f"row {i}: summary {summary} does not count one row")
        if [r["instance"] for r in report.rows] != [i]:
            problems.append(f"row {i}: report holds instances {[r['instance'] for r in report.rows]}")
            continue
        row = report.rows[0]
        if row["status"] != "PASS":
            continue  # a failed operation, counted apart
        g = cli.sweep_base_graph(workload.seed, i)
        if (row["vertices"], row["edges"]) != (len(g.vertices), len(g.edges)):
            problems.append(f"row {i}: sizes {row['vertices']}, {row['edges']} do not match the base graph")
        n = row["sheets"]
        base_edges = [(e.u, e.v, e.length) for e in g.edges]
        for attempt in range(row["resamples"] + 1):
            volt = cli.sweep_voltage(workload.seed, i, g, n, attempt)
            cover = nx.MultiGraph()
            cover.add_nodes_from((v, s) for v in g.vertices for s in range(n))
            cover_edges = []
            for e in g.edges:
                perm = volt.perm(e.id)
                cover_edges += [((e.u, s), (e.v, perm[s]), e.length) for s in range(n)]
            cover.add_edges_from((u, v) for u, v, _ in cover_edges)
            if nx.is_connected(cover) != (attempt == row["resamples"]):
                problems.append(f"row {i}: voltage attempt {attempt} connectivity disagrees with "
                                f"{row['resamples']} resamples")
        total = sum(l for *_, l in base_edges)
        tol = REL_TOL * n * total
        if abs(row["bound"] - n * row["d_base"]) > tol:
            problems.append(f"row {i}: bound {row['bound']} != sheets * d_base")
        if not row["d_cover"] <= n * row["d_base"] + tol:
            problems.append(f"row {i}: d_cover {row['d_cover']} exceeds {n} * d_base")
        # pieces of at most ~1/24 of the base diameter
        per_unit = 24.0 / row["d_base"] if row["d_base"] > 0 else 24.0
        problems += in_sandwich(f"row {i} base", row["d_base"], base_edges, per_unit)
        problems += in_sandwich(f"row {i} cover", row["d_cover"], cover_edges, per_unit)
    return problems


# ----------------------------------------------------------------- cayley


def _compose_closure(gens, mul, identity) -> nx.Graph:
    """Cayley graph of the group generated by gens (and their inverses)."""
    g = nx.Graph()
    g.add_node(identity)
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = mul(x, s)
                if y not in g:
                    nxt.append(y)
                if y != x:
                    g.add_edge(x, y)
        frontier = nxt
    return g


def _perm_mul(p, q):
    return tuple(p[i] for i in q)


def _quat_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def expected_group(name: str) -> tuple[nx.Graph, int, int]:
    """(own Cayley graph, order, closed-form diameter) for an instance name."""
    if name.startswith("Z"):
        n_text, steps_text = name[1:].split("|")
        n = int(n_text)
        if ".." in steps_text:
            lo, hi = steps_text.split("..")
            steps = list(range(int(lo), int(hi) + 1))
        else:
            steps = [int(s) for s in steps_text.split(",")]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((x, (x + s) % n) for x in range(n) for s in steps if s % n)
        # steps are 1..k: an element j needs ceil(min(j, n-j) / k) of them
        return g, n, math.ceil((n // 2) / max(steps))
    if name.startswith("D"):
        m = int(name[1:]) // 2
        r = tuple((i + 1) % m for i in range(m))
        s = tuple((-i) % m for i in range(m))
        return _compose_closure([r, s], _perm_mul, tuple(range(m))), 2 * m, m // 2 + 1
    if name in ("S3", "S4"):
        n = int(name[1])
        gens = [tuple(i + 1 if i == j else i - 1 if i == j + 1 else i for i in range(n))
                for j in range(n - 1)]
        return _compose_closure(gens, _perm_mul, tuple(range(n))), math.factorial(n), n * (n - 1) // 2
    if name == "Q8":
        i, j = (0, 1, 0, 0), (0, 0, 1, 0)
        inv = [(0, -1, 0, 0), (0, 0, -1, 0)]
        return _compose_closure([i, j] + inv, _quat_mul, (1, 0, 0, 0)), 8, 2
    raise ValueError(f"no closed form for instance {name!r}")


def check_cayley(workload, result) -> list[str]:
    problems = []
    reports = result.outputs["reports"]
    for inst in workload.instances:
        rep = reports.get(inst.name)
        if rep is None:
            continue  # a failed operation, counted apart
        own, order, diam = expected_group(inst.name)
        label = inst.name
        if own.number_of_nodes() != order or nx.eccentricity(own, next(iter(own))) != diam:
            problems.append(f"{label}: the benchmark's own Cayley graph disagrees with the closed form")
        if rep.order != order:
            problems.append(f"{label}: order {rep.order} != {order}")
        if rep.diameter != diam:
            problems.append(f"{label}: diameter {rep.diameter} != {diam}")
        if abs(rep.bound - (math.sqrt(4 * order + 1) - 2)) > 1e-12 * order:
            problems.append(f"{label}: bound {rep.bound} != sqrt(4n+1)-2")
        degrees = sorted(d for _, d in own.degree())
        if sorted(len(ns) for ns in rep.cayley.neighbors) != degrees:
            problems.append(f"{label}: Cayley graph degrees differ from the benchmark's own")
        triangles = clique_triangles(own)
        if len(complexes.flag_triangles(rep.cayley).triangles) != len(triangles):
            problems.append(f"{label}: flag filling has a different triangle count than networkx finds")
        b1 = betti1(list(own.nodes), list(own.edges), triangles)
        sc = rep.simply_connected.status
        if sc == "yes" and b1 != 0:
            problems.append(f"{label}: simply connected but b1 = {b1}")
        if b1 > 0 and sc != "no":
            problems.append(f"{label}: b1 = {b1} but sc status {sc}")
        expected_verdict = {"yes": "holds", "no": "hypothesis_failed"}.get(sc, "inconclusive")
        if rep.verdict != expected_verdict:  # so never "violated"
            problems.append(f"{label}: verdict {rep.verdict} with sc status {sc}")
        if rep.verdict == "holds" and not rep.diameter <= rep.bound:
            problems.append(f"{label}: holds with diameter {rep.diameter} above {rep.bound}")
        if inst.expect is not None and rep.verdict != inst.expect:
            problems.append(f"{label}: verdict {rep.verdict}, generated for {inst.expect}")
    return problems


# -------------------------------------------------------- universal covers


def _check_pe(label, k, level, value):
    """Sizes of the program's and the benchmark's PE graphs, and the sandwich.

    Returns the problems and the benchmark's own PE graph.
    """
    problems = []
    vertices, edges = pe_graph(k, level)
    sizes = pe_sizes(k.f_vector, level)
    program = universal_cover.pe_subdivision_graph(k, level).graph
    if (len(vertices), len(edges)) != sizes:
        problems.append(f"{label}: own PE graph has sizes {len(vertices)}, {len(edges)}, not {sizes}")
    if (len(program.vertices), len(program.edges)) != sizes:
        problems.append(f"{label}: PE graph has sizes {len(program.vertices)}, "
                        f"{len(program.edges)}, not {sizes}")
    # three pieces per PE edge: h = 1/(3 level)
    problems += in_sandwich(label, value, [(u, v, 1.0 / level) for u, v in edges], 1.5 * level)
    return problems, vertices, edges


def check_covers(workload, result, sheets_of) -> list[str]:
    """Shared checks of the rp2 and lens workloads; sheets_of(key) is the expected n."""
    problems = []
    for inst in workload.instances:
        key, k = inst.key, inst.base
        out = result.outputs.get(key, {})
        if "cover" not in out:
            continue  # failed operations, counted apart
        cover = out["cover"]
        n = sheets_of(key)
        label = f"{workload.name}[{key}]"
        if cover.sheets != n:
            problems.append(f"{label}: {cover.sheets} sheets, expected {n}")
        total = cover.total
        if total.f_vector != tuple(n * x for x in k.f_vector):
            problems.append(f"{label}: total f-vector {total.f_vector} != {n} x {k.f_vector}")
        if total.euler_characteristic != n * k.euler_characteristic:
            problems.append(f"{label}: chi(total) {total.euler_characteristic} != {n} chi(base)")
        projected = sorted(tuple(sorted(v for v, _ in t)) for t in total.triangles)
        if projected != sorted(t for t in k.triangles for _ in range(n)):
            problems.append(f"{label}: total triangles do not project {n}-to-1 onto the base")
        g = nx.Graph(list(total.edges))
        if not nx.is_connected(g):
            problems.append(f"{label}: total complex is disconnected")
        b1 = betti1(total.vertices, total.edges, total.triangles)
        if cover.simply_connected.status == "yes" and b1 != 0:
            problems.append(f"{label}: total complex certified simply connected but b1 = {b1}")
        if b1 > 0 and cover.simply_connected.status != "no":
            problems.append(f"{label}: b1 = {b1} but sc status {cover.simply_connected.status}")
        own_pe = {}
        for lv in inst.levels:
            rep = out.get(lv)
            if rep is None:
                continue  # a failed operation, counted apart
            pl, _, _ = _check_pe(f"{label} base L{lv}", k, lv, rep.d_base)
            problems += pl
            pl, tv, te = _check_pe(f"{label} cover L{lv}", total, lv, rep.d_cover)
            own_pe[lv] = tv, te
            problems += pl
            tol = REL_TOL * len(te) / lv
            if rep.sheets != n:
                problems.append(f"{label} L{lv}: report has {rep.sheets} sheets")
            if not rep.d_cover <= n * rep.d_base + tol:
                problems.append(f"{label} L{lv}: d_cover {rep.d_cover} > n d_base")
            bound = 4 * math.sqrt(n) * rep.d_base
            if abs(rep.bound - bound) > tol or not rep.d_cover < bound or not rep.holds:
                problems.append(f"{label} L{lv}: 4 sqrt(n) bound fails or is misreported")
        lv = inst.nerve_level
        if "nerve" in out and lv in out:
            problems += _check_nerve(label, cover, inst.basepoint, inst.epsilon, lv,
                                     out["nerve"], out[lv], *own_pe[lv])
    return problems


def _check_nerve(label, cover, p, eps, level, nerve, rep, vertices, edges) -> list[str]:
    problems = []
    n, d = cover.sheets, rep.d_base
    if nerve.sheets != cover.sheets or nerve.nerve.f_vector[0] != cover.sheets:
        problems.append(f"{label} nerve: does not have one centre per sheet")
    if nerve.d_base != rep.d_base or nerve.d_cover != rep.d_cover:
        problems.append(f"{label} nerve: diameters differ from the bound check at level {level}")
    # fiber distances from the benchmark's own PE graph of the total complex
    index = {v: i for i, v in enumerate(sorted(vertices))}
    rows = [index[u] for u, _ in edges]
    cols = [index[v] for _, v in edges]
    graph = coo_matrix(([1.0 / level] * len(edges), (rows, cols)), shape=(len(index),) * 2).tocsr()
    fiber = [index[(((p, s), level),)] for s in range(cover.sheets)]
    own = dijkstra(graph, directed=False, indices=fiber)[:, fiber]
    if not np.allclose(own, np.array(nerve.fiber_distances), rtol=0, atol=REL_TOL * len(edges) / level):
        problems.append(f"{label} nerve: fiber distances differ from the benchmark's own")
    for flag in ("nerve_connected", "matches_deck_cayley", "nerve_diameter_ok",
                 "fiber_pairs_ok", "chain_ok"):
        if not getattr(nerve, flag):
            problems.append(f"{label} nerve: {flag} is false")
    # these two depend on epsilon and the level, not on the theorem
    chain = 2 * d + (math.sqrt(4 * n + 1) - 2) * 2 * (d + eps)
    if abs(nerve.chain_bound - chain) > REL_TOL * chain:
        problems.append(f"{label} nerve: chain bound {nerve.chain_bound} != {chain}")
    if nerve.chain_below_sqrt_bound != (chain < 4 * math.sqrt(n) * d):
        problems.append(f"{label} nerve: chain_below_sqrt_bound misreported")
    if nerve.mesh_ok != (eps >= 1.0 / level - 1e-12):
        problems.append(f"{label} nerve: mesh_ok misreported")
    nk = nerve.nerve
    b1 = betti1(nk.vertices, nk.edges, nk.triangles)
    if nerve.nerve_simply_connected.status == "yes" and b1 != 0:
        problems.append(f"{label} nerve: simply connected but b1 = {b1}")
    return problems


def check_rp2(workload, result) -> list[str]:
    return check_covers(workload, result, lambda key: 2)


def check_lens(workload, result) -> list[str]:
    problems = check_covers(workload, result, lambda key: key)
    for inst in workload.instances:
        key, k = inst.key, inst.base
        if k.f_vector != (3 * key + 4, 12 * key + 3, 9 * key) or k.euler_characteristic != 1:
            problems.append(f"lens[{key}]: generated plane has f-vector {k.f_vector}")
    return problems


CHECKS = {"sweep": check_sweep, "cayley": check_cayley, "rp2": check_rp2, "lens": check_lens}
