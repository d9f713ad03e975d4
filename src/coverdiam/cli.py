"""Command-line experiment runner and report emission.

Reports are deterministic: a fixed config and seed produce byte-identical
output (wall time goes to stderr, never into the report).  Random sweep
instances come from counter-keyed generators, so any row can be reproduced
from its index alone.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass

import click

from .complexes import load_complex
from .covering import (
    Voltage,
    cover_bound_report,
    derive_cover,
    is_connected_cover,
    load_voltage,
    pigeonhole_shorten,
    verify_diameter_bound,
)
from .errors import (
    CoverNotCovering,
    DisconnectedCoverError,
    DisconnectedGraphError,
    EnumerationOverflow,
    NotGeneratingError,
    PathNotLongEnough,
)
from .groups import cayley_graph, load_presentation, todd_coxeter, word_metric_diameter
from .metric_graph import (
    EdgePoint,
    MetricGraph,
    PathRoute,
    RouteLeg,
    continuous_diameter,
    load_metric_graph,
)
from .separator import verify_cayley_bound, zoo_instances
from .universal_cover import build_universal_cover, fiber_ball_nerve, verify_universal_bound

__all__ = ["ExperimentConfig", "Report", "run", "emit", "main"]


# --------------------------------------------------------------- reports


def _f12(x):
    """Normalise floats to 12 significant digits for stable emission."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _f12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_f12(v) for v in x]
    return x


@dataclass
class Report:
    columns: tuple[str, ...]
    rows: list[dict]
    summary: dict
    wall_time: float = 0.0  # informational only; excluded from emitted bytes

    @property
    def fail_count(self) -> int:
        return sum(1 for r in self.rows if r.get("status") == "FAIL")


def emit(report: Report, fmt: str = "json") -> bytes:
    """Serialise a report with stable field order and 12-significant-digit floats."""
    if fmt == "json":
        obj = {
            "columns": list(report.columns),
            "rows": [
                {c: _f12(row.get(c)) for c in report.columns} for row in report.rows
            ],
            "summary": _f12(report.summary),
        }
        return (json.dumps(obj, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        def cell(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return f"{v:.12g}"
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)

        lines = [",".join(report.columns)]
        for row in report.rows:
            lines.append(",".join(cell(row.get(c)) for c in report.columns))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------- config


@dataclass(frozen=True)
class ExperimentConfig:
    command: str  # sweep-cover | cayley-zoo | ucover-verify
    seed: int = 0
    count: int = 100
    start: int = 0
    tol: float = 1e-9
    budget: int = 100_000
    levels: tuple[int, ...] = (6,)
    complex_path: str | None = None

    def __post_init__(self):
        if self.count < 0 or self.start < 0:
            raise ValueError("count and start must be nonnegative")
        if self.tol < 0 or self.budget < 1:
            raise ValueError("tol must be nonnegative and budget positive")
        if any(l < 1 for l in self.levels):
            raise ValueError("levels must be positive")


# ------------------------------------------------- seeded sweep instances


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def sweep_base_graph(seed: int, instance: int) -> MetricGraph:
    """Deterministic random connected base graph, |V| <= 8, |E| <= 12."""
    rng = _rng(seed, instance, "base")
    nv = rng.randint(1, 8)
    vertices = [f"v{i}" for i in range(nv)]
    edges = []
    for i in range(1, nv):
        p = rng.randint(0, i - 1)
        edges.append((f"e{len(edges)}", f"v{p}", f"v{i}", rng.uniform(0.2, 2.0)))
    lo = 1 if nv == 1 else 0
    n_extra = rng.randint(lo, 12 - len(edges))
    for _ in range(n_extra):
        u, v = rng.randrange(nv), rng.randrange(nv)
        edges.append((f"e{len(edges)}", f"v{u}", f"v{v}", rng.uniform(0.2, 2.0)))
    return MetricGraph(vertices, edges)


def sweep_voltage(seed: int, instance: int, g: MetricGraph, sheets: int, attempt: int) -> Voltage:
    """Uniform permutation per edge, keyed by (seed, instance, edge, attempt)."""
    assignment = {}
    for e in g.edges:
        perm = list(range(sheets))
        _rng(seed, instance, e.id, attempt).shuffle(perm)
        assignment[e.id] = perm
    return Voltage(sheets, assignment)


_MAX_RESAMPLES = 200


def sweep_instance(seed: int, instance: int):
    """Connected random cover; disconnected voltages are resampled and counted."""
    g = sweep_base_graph(seed, instance)
    rank = len(g.edges) - len(g.vertices) + 1
    sheets = 1 if rank == 0 else _rng(seed, instance, "sheets").randint(1, 6)
    for attempt in range(_MAX_RESAMPLES):
        volt = sweep_voltage(seed, instance, g, sheets, attempt)
        cover = derive_cover(g, volt)
        if is_connected_cover(cover).connected:
            return g, volt, cover, attempt
    raise RuntimeError(f"no connected cover found for instance {instance} "
                       f"after {_MAX_RESAMPLES} resamples")


# -------------------------------------------------------------------- run


_SWEEP_COLUMNS = (
    "instance", "vertices", "edges", "sheets", "resamples",
    "d_base", "d_cover", "bound", "margin", "status", "error", "repro",
)
_ZOO_COLUMNS = (
    "name", "order", "gens", "sc_status", "diam", "bound", "verdict",
    "status", "error", "repro",
)
_UCOVER_COLUMNS = (
    "level", "sheets", "d_base", "d_cover", "bound", "ratio",
    "corrected_ratio", "status", "error", "repro",
)


def _run_sweep_cover(config: ExperimentConfig) -> Report:
    rows = []
    for i in range(config.start, config.start + config.count):
        repro = f"coverdiam sweep cover --seed {config.seed} --start {i} --count 1"
        row = {"instance": i, "repro": repro, "error": None}
        try:
            g, volt, cover, resamples = sweep_instance(config.seed, i)
            rep = cover_bound_report(cover, config.tol)
            row.update(
                vertices=len(g.vertices),
                edges=len(g.edges),
                sheets=rep.sheets,
                resamples=resamples,
                d_base=rep.d_base,
                d_cover=rep.d_cover,
                bound=rep.bound,
                margin=rep.bound + rep.tol - rep.d_cover,
                status="PASS" if rep.holds else "FAIL",
            )
        except Exception as exc:  # surfaced per row, sweep continues
            row.update(status="ERROR", error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return _finish(Report(_SWEEP_COLUMNS, rows, {}), config)


def _run_cayley_zoo(config: ExperimentConfig) -> Report:
    rows = []
    for inst in zoo_instances():
        repro = f"coverdiam cayley verify --zoo {inst.name} --budget {config.budget}"
        row = {"name": inst.name, "repro": repro, "error": None}
        try:
            rep = verify_cayley_bound(inst.presentation, inst.gens, config.budget)
            row.update(rep.to_row())
            row["status"] = "FAIL" if rep.verdict == "violated" else "PASS"
        except Exception as exc:
            row.update(status="ERROR", error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return _finish(Report(_ZOO_COLUMNS, rows, {}), config)


def _run_ucover_verify(config: ExperimentConfig) -> Report:
    if not config.complex_path:
        raise ValueError("ucover-verify needs a complex file")
    k = load_complex(config.complex_path)
    cover = build_universal_cover(k, config.budget)
    rows = []
    for level in config.levels:
        repro = (
            f"coverdiam ucover verify-bound --complex {config.complex_path} "
            f"--levels {level} --budget {config.budget}"
        )
        row = {"level": level, "repro": repro, "error": None}
        try:
            rep = verify_universal_bound(k, level, config.budget, config.tol, cover=cover)
            row.update(
                sheets=rep.sheets,
                d_base=rep.d_base,
                d_cover=rep.d_cover,
                bound=rep.bound,
                ratio=rep.ratio,
                corrected_ratio=rep.corrected_ratio,
                status="PASS" if rep.holds else "FAIL",
            )
        except Exception as exc:
            row.update(status="ERROR", error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return _finish(Report(_UCOVER_COLUMNS, rows, {}), config)


def _finish(report: Report, config: ExperimentConfig) -> Report:
    key = report.columns[0]
    report.rows.sort(key=lambda r: r[key])
    counts = {"PASS": 0, "FAIL": 0, "ERROR": 0}
    for r in report.rows:
        counts[r["status"]] += 1
    ratios = [
        r["d_cover"] / r["d_base"]
        for r in report.rows
        if r.get("d_cover") is not None and r.get("d_base")
    ]
    report.summary = {
        "command": config.command,
        "seed": config.seed,
        "rows": len(report.rows),
        "pass": counts["PASS"],
        "fail": counts["FAIL"],
        "error": counts["ERROR"],
        "max_ratio": max(ratios) if ratios else None,
    }
    return report


_RUNNERS = {
    "sweep-cover": _run_sweep_cover,
    "cayley-zoo": _run_cayley_zoo,
    "ucover-verify": _run_ucover_verify,
}


def run(config: ExperimentConfig) -> Report:
    """Dispatch an experiment; identical config and seed give identical rows."""
    if config.command not in _RUNNERS:
        raise ValueError(f"unknown command {config.command!r}")
    t0 = time.perf_counter()
    report = _RUNNERS[config.command](config)
    report.wall_time = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------- helpers


def _echo_report(report: Report, fmt: str, out: str | None) -> None:
    payload = emit(report, fmt)
    if out:
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    click.echo(f"wall-time: {report.wall_time:.3f}s", err=True)
    # exit 1 if any row FAILs, else 3 if any row is an ERROR (2 is click's usage error)
    if report.fail_count:
        sys.exit(1)
    if any(r.get("status") == "ERROR" for r in report.rows):
        sys.exit(3)


def _print_json(obj) -> None:
    click.echo(json.dumps(_f12(obj), indent=2))


def _parse_ints(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise click.UsageError(f"{option} expects comma-separated integers, got {text!r}")


def _load_route(path) -> PathRoute:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    legs = [RouteLeg(str(l["edge"]), float(l["start"]), float(l["end"]))
            for l in obj.get("legs", [])]
    anchor = obj.get("anchor")
    anchor_pt = EdgePoint(str(anchor["edge"]), float(anchor["offset"])) if anchor else None
    return PathRoute.from_legs(legs, anchor_if_empty=anchor_pt)


def _route_json(route: PathRoute) -> dict:
    return {
        "legs": [{"edge": l.edge, "start": l.start, "end": l.end} for l in route.legs],
        "anchor": None
        if route.legs
        else {"edge": route.start.edge, "offset": route.start.offset},
        "length": route.length,
    }


_USER_ERRORS = (
    ValueError,
    DisconnectedGraphError,
    DisconnectedCoverError,
    EnumerationOverflow,
    NotGeneratingError,
    PathNotLongEnough,
    CoverNotCovering,
    OSError,
    json.JSONDecodeError,
)


# -------------------------------------------------------------------- cli


class _Main(click.Group):
    """Reports a user error as ``Error: <type>: <message>`` with exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _USER_ERRORS as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc


@click.group(cls=_Main)
def main():
    """Diameter bounds for covering spaces, checked on computable models."""


@main.command("diam")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
def diam_cmd(graph_path):
    """Continuous diameter of a metric graph file."""
    g = load_metric_graph(graph_path)
    res = continuous_diameter(g)
    witness = None if res.witness is None else [
        {"edge": p.edge, "offset": p.offset} for p in res.witness
    ]
    _print_json({"diameter": res.value, "witness": witness})


@main.group("cover")
def cover_grp():
    """Voltage covers of metric graphs."""


@cover_grp.command("derive")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--voltage", "voltage_path", required=True, type=click.Path(exists=True))
def cover_derive(graph_path, voltage_path):
    """Derive a cover and report its connectivity and orbit structure."""
    cover = derive_cover(load_metric_graph(graph_path), load_voltage(voltage_path))
    rep = is_connected_cover(cover)
    _print_json(
        {
            "sheets": cover.sheets,
            "vertices": len(cover.graph.vertices),
            "edges": len(cover.graph.edges),
            "connected": rep.connected,
            "orbits": [list(o) for o in rep.orbits],
        }
    )


@cover_grp.command("verify-bound")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--voltage", "voltage_path", required=True, type=click.Path(exists=True))
@click.option("--tol", default=1e-9, show_default=True, type=click.FloatRange(min=0))
def cover_verify(graph_path, voltage_path, tol):
    """Check d(cover) <= sheets * d(base)."""
    rep = verify_diameter_bound(
        load_metric_graph(graph_path), load_voltage(voltage_path), tol
    )
    _print_json(rep.to_json_dict())
    if not rep.holds:
        sys.exit(1)


@cover_grp.command("shorten")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--voltage", "voltage_path", required=True, type=click.Path(exists=True))
@click.option("--route", "route_path", required=True, type=click.Path(exists=True))
def cover_shorten(graph_path, voltage_path, route_path):
    """Shorten an over-long route in the derived cover."""
    cover = derive_cover(load_metric_graph(graph_path), load_voltage(voltage_path))
    route = _load_route(route_path)
    trace = pigeonhole_shorten(cover, route)
    _print_json(
        {
            "input_length": route.length,
            "match": list(trace.match),
            "partition_arclengths": list(trace.partition_arclengths),
            "replacement_lengths": [r.length for r in trace.replacements],
            "shortened": _route_json(trace.shortened),
        }
    )


@main.group("groups")
def groups_grp():
    """Finite group presentations."""


@groups_grp.command("enumerate")
@click.option("--presentation", "pres_path", required=True, type=click.Path(exists=True))
@click.option("--budget", default=100_000, show_default=True, type=click.IntRange(min=1))
def groups_enumerate(pres_path, budget):
    """Coset enumeration over the trivial subgroup; reports the group order."""
    table = todd_coxeter(load_presentation(pres_path), budget)
    _print_json({"order": table.coset_count})


@groups_grp.command("diameter")
@click.option("--presentation", "pres_path", required=True, type=click.Path(exists=True))
@click.option("--gens", required=True, help="comma-separated generator indices")
@click.option("--budget", default=100_000, show_default=True, type=click.IntRange(min=1))
def groups_diameter(pres_path, gens, budget):
    """Word-metric diameter of a Cayley graph."""
    table = todd_coxeter(load_presentation(pres_path), budget)
    c = cayley_graph(table, _parse_ints(gens, "--gens"))
    res = word_metric_diameter(c)
    _print_json(
        {
            "order": table.coset_count,
            "diameter": res.diameter,
            "farthest": res.farthest,
            "layer_sizes": list(res.layer_sizes),
        }
    )


@main.group("cayley")
def cayley_grp():
    """Square-root diameter bound on Cayley graphs with filled triangles."""


@cayley_grp.command("verify")
@click.option("--presentation", "pres_path", type=click.Path(exists=True))
@click.option("--gens", default=None, help="comma-separated generator indices")
@click.option("--zoo", "zoo_name", default=None, help="preset instance name")
@click.option("--budget", default=100_000, show_default=True, type=click.IntRange(min=1))
def cayley_verify(pres_path, gens, zoo_name, budget):
    """Verify the bound for one presentation (or one zoo preset)."""
    if zoo_name is not None:
        match = [z for z in zoo_instances() if z.name == zoo_name]
        if not match:
            raise ValueError(f"unknown zoo instance {zoo_name!r}")
        pres, gen_tuple = match[0].presentation, match[0].gens
    else:
        if pres_path is None or gens is None:
            raise click.UsageError("need --presentation and --gens, or --zoo")
        pres, gen_tuple = load_presentation(pres_path), _parse_ints(gens, "--gens")
    rep = verify_cayley_bound(pres, gen_tuple, budget)
    _print_json(rep.to_row())
    if rep.verdict == "violated":
        sys.exit(1)


@cayley_grp.command("zoo")
@click.option("--budget", default=100_000, show_default=True, type=click.IntRange(min=1))
@click.option("--out", default=None, type=click.Path())
@click.option("--format", "fmt", default="csv", type=click.Choice(["csv", "json"]), show_default=True)
def cayley_zoo(budget, out, fmt):
    """Run the whole verification zoo."""
    report = run(ExperimentConfig(command="cayley-zoo", budget=budget))
    _echo_report(report, fmt, out)


@main.group("ucover")
def ucover_grp():
    """Universal covers of simplicial 2-complexes."""


@ucover_grp.command("build")
@click.option("--complex", "complex_path", required=True, type=click.Path(exists=True))
@click.option("--budget", default=100_000, show_default=True, type=click.IntRange(min=1))
def ucover_build(complex_path, budget):
    """Build the universal cover and report its combinatorics."""
    cover = build_universal_cover(load_complex(complex_path), budget)
    _print_json(
        {
            "sheets": cover.sheets,
            "f_vector": list(cover.total.f_vector),
            "euler_characteristic": cover.total.euler_characteristic,
            "simply_connected": cover.simply_connected.status,
        }
    )


@ucover_grp.command("verify-bound")
@click.option("--complex", "complex_path", required=True, type=click.Path(exists=True))
@click.option("--levels", default="6", show_default=True, help="comma-separated subdivision levels")
@click.option("--budget", default=100_000, show_default=True, type=click.IntRange(min=1))
@click.option("--tol", default=1e-9, show_default=True, type=click.FloatRange(min=0))
@click.option("--out", default=None, type=click.Path())
@click.option("--format", "fmt", default="json", type=click.Choice(["csv", "json"]), show_default=True)
def ucover_verify(complex_path, levels, budget, tol, out, fmt):
    """Check d(cover) < 4 sqrt(n) d(base) on subdivision graphs."""
    level_tuple = _parse_ints(levels, "--levels")
    if not level_tuple or min(level_tuple) < 1:
        raise click.UsageError(f"--levels expects positive levels, got {levels!r}")
    report = run(
        ExperimentConfig(
            command="ucover-verify",
            budget=budget,
            tol=tol,
            levels=level_tuple,
            complex_path=complex_path,
        )
    )
    _echo_report(report, fmt, out)


@ucover_grp.command("nerve")
@click.option("--complex", "complex_path", required=True, type=click.Path(exists=True))
@click.option("--basepoint", default=None, help="base vertex (default: first)")
@click.option("--epsilon", default=0.05, show_default=True,
              type=click.FloatRange(min=0, min_open=True))
@click.option("--level", default=6, show_default=True, type=click.IntRange(min=1))
@click.option("--budget", default=100_000, show_default=True, type=click.IntRange(min=1))
def ucover_nerve(complex_path, basepoint, epsilon, level, budget):
    """Fiber-ball nerve checks for the universal cover."""
    k = load_complex(complex_path)
    cover = build_universal_cover(k, budget)
    p = k.vertices[0] if basepoint is None else type(k.vertices[0])(basepoint)
    rep = fiber_ball_nerve(cover, p, epsilon, level, budget)
    _print_json(rep.to_json_dict())


@main.group("sweep")
def sweep_grp():
    """Randomised property sweeps."""


@sweep_grp.command("cover")
@click.option("--seed", default=0, show_default=True)
@click.option("--count", default=100, show_default=True, type=click.IntRange(min=0))
@click.option("--start", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--tol", default=1e-9, show_default=True, type=click.FloatRange(min=0))
@click.option("--out", default=None, type=click.Path())
@click.option("--format", "fmt", default="json", type=click.Choice(["csv", "json"]), show_default=True)
def sweep_cover(seed, count, start, tol, out, fmt):
    """Seeded random connected covers: check d(cover) <= sheets * d(base)."""
    report = run(
        ExperimentConfig(command="sweep-cover", seed=seed, count=count, start=start, tol=tol)
    )
    _echo_report(report, fmt, out)


if __name__ == "__main__":
    main()
