import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import coverdiam
from coverdiam.cli import (
    ExperimentConfig,
    Report,
    emit,
    main,
    run,
    sweep_base_graph,
    sweep_instance,
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def data_dir():
    import importlib.resources

    return importlib.resources.files("coverdiam").joinpath("data")


# ------------------------------------------------------------ emit/run


def test_emit_empty_report_csv():
    rep = Report(("a", "b"), [], {})
    assert emit(rep, "csv") == b"a,b\n"


def test_emit_single_row():
    rep = Report(("a", "b"), [{"a": 1, "b": 0.123456789012345}], {})
    assert emit(rep, "csv") == b"a,b\n1,0.123456789012\n"


def test_emit_json_roundtrip():
    config = ExperimentConfig(command="sweep-cover", seed=7, count=5)
    rep = run(config)
    parsed = json.loads(emit(rep, "json").decode())
    assert parsed["columns"] == list(rep.columns)
    assert len(parsed["rows"]) == 5
    # reparsing and re-serialising is stable
    again = json.dumps(parsed, indent=2) + "\n"
    assert again.encode() == emit(rep, "json")


def test_run_deterministic_bytes():
    config = ExperimentConfig(command="sweep-cover", seed=42, count=10)
    b1 = emit(run(config), "json")
    b2 = emit(run(config), "json")
    assert b1 == b2
    c1 = emit(run(config), "csv")
    c2 = emit(run(config), "csv")
    assert c1 == c2


def test_sweep_no_silent_skips():
    rep = run(ExperimentConfig(command="sweep-cover", seed=3, count=17))
    assert len(rep.rows) == 17
    assert all(r["status"] in ("PASS", "FAIL", "ERROR") for r in rep.rows)
    assert all(r["repro"] for r in rep.rows)


def test_sweep_rows_all_pass_and_sorted():
    rep = run(ExperimentConfig(command="sweep-cover", seed=11, count=15))
    assert [r["instance"] for r in rep.rows] == list(range(15))
    assert rep.summary["pass"] == 15
    assert rep.summary["fail"] == 0


def test_sweep_instances_reproducible_by_index():
    g1 = sweep_base_graph(5, 9)
    g2 = sweep_base_graph(5, 9)
    assert (g1.vertices, g1.edges) == (g2.vertices, g2.edges)
    _, v1, _, r1 = sweep_instance(5, 9)
    _, v2, _, r2 = sweep_instance(5, 9)
    assert v1.assignment == v2.assignment
    assert r1 == r2


def test_sweep_respects_size_limits():
    for i in range(30):
        g = sweep_base_graph(123, i)
        assert 1 <= len(g.vertices) <= 8
        assert len(g.edges) <= 12
        assert g.is_connected


def test_zoo_report_flags_hypothesis_failures():
    rep = run(ExperimentConfig(command="cayley-zoo", budget=100_000))
    rows = {r["name"]: r for r in rep.rows}
    z12 = rows["Z12|1"]
    assert z12["verdict"] == "hypothesis_failed"
    assert z12["status"] == "PASS"  # never counted as a bound violation
    assert z12["diam"] == 6
    assert z12["bound"] == pytest.approx(5.0)
    assert rep.summary["fail"] == 0
    assert rep.summary["error"] == 0


def test_unknown_command_rejected():
    with pytest.raises(ValueError):
        run(ExperimentConfig(command="nope"))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(command="sweep-cover", count=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(command="sweep-cover", budget=0)


# ------------------------------------------------------------- commands


def test_diam_command(runner, data_dir):
    result = runner.invoke(main, ["diam", "--graph", str(data_dir / "unit_triangle.json")])
    assert result.exit_code == 0
    assert json.loads(result.output)["diameter"] == 1.5


def test_diam_command_on_edgeless_graph(runner, tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": ["v0"], "edges": []}))
    result = runner.invoke(main, ["diam", "--graph", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"diameter": 0.0, "witness": None}


def test_cover_verify_command(runner, data_dir):
    result = runner.invoke(
        main,
        [
            "cover",
            "verify-bound",
            "--graph",
            str(data_dir / "unit_triangle.json"),
            "--voltage",
            str(data_dir / "triangle_shift6_voltage.json"),
        ],
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["d_cover"] == 9.0 and obj["holds"]


def test_cover_derive_command(runner, data_dir):
    result = runner.invoke(
        main,
        [
            "cover",
            "derive",
            "--graph",
            str(data_dir / "figure_eight.json"),
            "--voltage",
            str(data_dir / "figure_eight_voltage.json"),
        ],
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["vertices"] == 2 and obj["edges"] == 4 and obj["connected"]


def test_cover_shorten_command(runner, data_dir, tmp_path):
    route = {
        "legs": [
            {"edge": "a@0", "start": 0.0, "end": 1.0},
            {"edge": "a@1", "start": 0.0, "end": 1.0},
            {"edge": "b@0", "start": 0.0, "end": 1.0},
            {"edge": "b@0", "start": 0.0, "end": 1.0},
        ]
    }
    route_path = tmp_path / "route.json"
    route_path.write_text(json.dumps(route))
    result = runner.invoke(
        main,
        [
            "cover",
            "shorten",
            "--graph",
            str(data_dir / "figure_eight.json"),
            "--voltage",
            str(data_dir / "figure_eight_voltage.json"),
            "--route",
            str(route_path),
        ],
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["shortened"]["length"] < obj["input_length"]


def test_shorten_rejects_short_route(runner, data_dir, tmp_path):
    route = {"legs": [{"edge": "a@0", "start": 0.0, "end": 1.0}]}
    route_path = tmp_path / "route.json"
    route_path.write_text(json.dumps(route))
    result = runner.invoke(
        main,
        [
            "cover",
            "shorten",
            "--graph",
            str(data_dir / "figure_eight.json"),
            "--voltage",
            str(data_dir / "figure_eight_voltage.json"),
            "--route",
            str(route_path),
        ],
    )
    assert result.exit_code == 1
    assert "Error: PathNotLongEnough: " in result.output


def test_malformed_graph_names_offending_edge(runner, tmp_path):
    bad = {
        "vertices": ["a", "b"],
        "edges": [{"id": "edge7", "u": "a", "v": "b", "length": -2.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    result = runner.invoke(main, ["diam", "--graph", str(path)])
    assert result.exit_code == 1
    assert "Error: ValueError: edge 'edge7' has nonpositive length -2.0" in result.output


def test_groups_commands(runner, tmp_path):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"generators": 2, "relators": ["aa", "bb", "ababab"]}))
    result = runner.invoke(main, ["groups", "enumerate", "--presentation", str(pres)])
    assert result.exit_code == 0
    assert json.loads(result.output)["order"] == 6
    result = runner.invoke(
        main, ["groups", "diameter", "--presentation", str(pres), "--gens", "0,1"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["diameter"] == 3


def test_cayley_verify_zoo_preset(runner):
    result = runner.invoke(main, ["cayley", "verify", "--zoo", "Z12|1"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["verdict"] == "hypothesis_failed" and obj["diam"] == 6


S3_FILE = Path(__file__).resolve().parent / "data" / "s3_presentation.json"


def test_cayley_verify_presentation_file_matches_zoo_row(runner):
    by_file = runner.invoke(main, ["cayley", "verify", "--presentation", str(S3_FILE), "--gens", "0,1"])
    by_zoo = runner.invoke(main, ["cayley", "verify", "--zoo", "S3"])
    assert by_file.exit_code == by_zoo.exit_code == 0
    assert by_file.output == by_zoo.output
    row = json.loads(by_file.output)
    assert (row["order"], row["diam"], row["verdict"]) == (6, 3, "hypothesis_failed")


def test_cayley_verify_presentation_needs_gens(runner):
    result = runner.invoke(main, ["cayley", "verify", "--presentation", str(S3_FILE)])
    assert result.exit_code == 2
    assert "need --presentation and --gens, or --zoo" in result.output


def test_cayley_verify_generator_out_of_range_is_a_user_error(runner):
    result = runner.invoke(main, ["cayley", "verify", "--presentation", str(S3_FILE), "--gens", "5"])
    assert result.exit_code == 1
    assert "Error: ValueError: generator index 5 out of range" in result.output
    assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)


def test_cayley_zoo_csv_output(runner, tmp_path):
    out = tmp_path / "zoo.csv"
    result = runner.invoke(main, ["cayley", "zoo", "--out", str(out)])
    assert result.exit_code == 0
    text = out.read_text()
    header = text.splitlines()[0]
    assert header.startswith("name,order,gens,sc_status,diam,bound,verdict")
    assert "Z12|1," in text and "hypothesis_failed" in text


def test_cayley_zoo_error_rows_exit_3(runner, tmp_path):
    # a 5-coset budget overflows on most instances: ERROR rows but no FAIL.
    # The Tietze-reduced Z4 (one generator, a^4) fits a budget of 5, where
    # enumerating all three generators needed 7
    out = tmp_path / "zoo.json"
    result = runner.invoke(
        main, ["cayley", "zoo", "--budget", "5", "--format", "json", "--out", str(out)]
    )
    summary = json.loads(out.read_text())["summary"]
    assert summary["error"] == 69 and summary["fail"] == 0
    assert result.exit_code == 3


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    src = str(Path(coverdiam.__file__).resolve().parents[1])
    code += "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cayley_check_never_imports_scipy():
    # the package imports no scipy; the check runs in a fresh interpreter,
    # where no test module has loaded it
    assert _scipy_modules_after(
        "import sys, coverdiam.cli\n"
        "from coverdiam.separator import verify_cayley_bound, zoo_instances\n"
        "z = zoo_instances()[-1]\n"
        "assert verify_cayley_bound(z.presentation, z.gens, 100000).verdict\n"
    ) == "[]"


def test_graph_commands_never_import_scipy():
    # weighted distances come from an edge relaxation, routes from its rows
    assert _scipy_modules_after(
        "import sys, importlib.resources\n"
        "from coverdiam.cli import ExperimentConfig, run\n"
        "from coverdiam.covering import (\n"
        "    cover_bound_report, derive_cover, load_voltage, pigeonhole_shorten)\n"
        "from coverdiam.metric_graph import (\n"
        "    PathRoute, RouteLeg, continuous_diameter, load_metric_graph)\n"
        "data = importlib.resources.files('coverdiam').joinpath('data')\n"
        "assert run(ExperimentConfig(command='sweep-cover', count=20)).summary['fail'] == 0\n"
        "assert continuous_diameter(load_metric_graph(data / 'unit_triangle.json')).value == 1.5\n"
        "cover = derive_cover(load_metric_graph(data / 'figure_eight.json'),\n"
        "                     load_voltage(data / 'figure_eight_voltage.json'))\n"
        "assert cover_bound_report(cover, 1e-9).holds\n"
        "# the route of the CI step for cover shorten\n"
        "route = PathRoute.from_legs(RouteLeg(e, 0.0, 1.0) for e in ('a@0', 'a@1', 'b@0', 'b@0'))\n"
        "assert pigeonhole_shorten(cover, route).shortened.length < route.length\n"
    ) == "[]"


def test_universal_cover_checks_never_import_scipy():
    # PE-model distances are hop counts of a breadth-first search
    assert _scipy_modules_after(
        "import sys, coverdiam.cli\n"
        "from coverdiam.universal_cover import (\n"
        "    build_universal_cover, fiber_ball_nerve, rp2_complex, verify_universal_bound)\n"
        "k = rp2_complex()\n"
        "cover = build_universal_cover(k, 100000)\n"
        "assert all(verify_universal_bound(k, level, 100000, cover=cover).holds for level in (3, 4, 6))\n"
        "assert fiber_ball_nerve(cover, k.vertices[0], 0.25, 4).chain_ok\n"
    ) == "[]"


def test_ucover_build_rejects_an_empty_complex(runner, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "triangles": []}))
    result = runner.invoke(main, ["ucover", "build", "--complex", str(path)])
    assert result.exit_code == 1
    assert "Error: ValueError: complex has no vertices" in result.output


def test_ucover_verify_on_a_one_vertex_complex_passes_with_null_ratios(runner, tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": ["a"]}))
    result = runner.invoke(main, ["ucover", "verify-bound", "--complex", str(path)])
    assert result.exit_code == 0, result.output
    obj = json.loads(result.stdout)
    assert len(obj["rows"]) == 1 and obj["summary"]["pass"] == 1
    row = obj["rows"][0]
    assert (row["status"], row["error"], row["d_base"], row["d_cover"]) == ("PASS", None, 0.0, 0.0)
    assert row["ratio"] is None and row["corrected_ratio"] is None


def test_ucover_commands(runner, data_dir, tmp_path):
    result = runner.invoke(
        main, ["ucover", "build", "--complex", str(data_dir / "rp2_complex.json")]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["f_vector"] == [12, 30, 20] and obj["simply_connected"] == "yes"
    out = tmp_path / "u.json"
    result = runner.invoke(
        main,
        [
            "ucover",
            "verify-bound",
            "--complex",
            str(data_dir / "rp2_complex.json"),
            "--levels",
            "2,3",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0
    obj = json.loads(out.read_text())
    assert all(r["status"] == "PASS" for r in obj["rows"])


def test_ucover_verify_repro_lines_rerun_their_rows(runner, data_dir, tmp_path):
    complex_path = str(data_dir / "rp2_complex.json")
    rep = run(ExperimentConfig(command="ucover-verify", levels=(2, 3), complex_path=complex_path))
    rows = json.loads(emit(rep, "json"))["rows"]
    for i, row in enumerate(rows):
        out = tmp_path / f"{i}.json"
        result = runner.invoke(main, row["repro"].split()[1:] + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["rows"] == [row]


@pytest.mark.parametrize("levels", ["3,x", ",", "0", "0,3", "-2"])
def test_ucover_verify_rejects_malformed_levels(runner, data_dir, levels):
    result = runner.invoke(
        main,
        ["ucover", "verify-bound", "--complex", str(data_dir / "rp2_complex.json"), "--levels", levels],
    )
    assert result.exit_code == 2
    assert "--levels" in result.output


@pytest.mark.parametrize("command", ["nerve"])
@pytest.mark.parametrize("level", ["0", "-2"])
def test_ucover_rejects_nonpositive_level(runner, data_dir, command, level):
    result = runner.invoke(
        main,
        ["ucover", command, "--complex", str(data_dir / "rp2_complex.json"), "--level", level],
    )
    assert result.exit_code == 2
    assert "--level" in result.output


@pytest.mark.parametrize(
    "args",
    [
        "sweep cover --count 1 --tol -1",
        "sweep cover --count -1",
        "cayley zoo --budget 0",
        "cover verify-bound --graph {data}/unit_triangle.json"
        " --voltage {data}/triangle_shift6_voltage.json --tol -1",
        "ucover nerve --complex {data}/rp2_complex.json --level 1 --epsilon 0",
        "ucover nerve --complex {data}/rp2_complex.json --level 1 --epsilon -1",
    ],
)
def test_out_of_range_option_is_a_usage_error(runner, data_dir, args):
    result = runner.invoke(main, args.format(data=data_dir).split())
    assert result.exit_code == 2
    assert "is not in the range" in result.output


def test_ucover_nerve_command(runner, data_dir):
    result = runner.invoke(
        main,
        [
            "ucover",
            "nerve",
            "--complex",
            str(data_dir / "rp2_complex.json"),
            "--basepoint",
            "1",
            "--epsilon",
            "0.1",
            "--level",
            "3",
        ],
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["nerve_edges"] == [[0, 1]]
    assert obj["matches_deck_cayley"] and obj["nerve_simply_connected"] == "yes"


def test_sweep_command_writes_deterministic_file(runner, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        result = runner.invoke(
            main,
            ["sweep", "cover", "--seed", "9", "--count", "6", "--out", str(out)],
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
