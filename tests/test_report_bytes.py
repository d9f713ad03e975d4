"""Report bytes pinned by sha256, so a faster path cannot move a digit.

The digests were taken from the code before the deck-reduced distances
went in, the sweep's before the pair stage kept one maximum per edge, and
the non-abelian covers' before the graphs were built from index arrays;
any change to them is a change of reported values.  The ucover-verify
digest was retaken when its repro lines went from ``--level N`` to
``--levels N``, the one level option of ``ucover verify-bound``; with that
text swapped back the bytes hash to the digest taken before.  The
cayley-zoo report, the coset tables of the cayley and plane presentations
and the spanning-tree presentations were pinned before the pi_1 pipeline
went to integer words: the one-letter Tietze phase as a counting closure,
relators scanned as precomputed table columns and relators read from an
edge-to-generator map.
"""

import hashlib
import json
from pathlib import Path

import pytest

from coverdiam import cli
from coverdiam.complexes import flag_triangles, spanning_tree_presentation
from coverdiam.groups import cayley_graph, todd_coxeter
from coverdiam.separator import zoo_instances
from coverdiam.universal_cover import (
    build_universal_cover,
    fiber_ball_nerve,
    rp2_complex,
    verify_universal_bound,
)

from .conftest import NON_ABELIAN, presentation_complex, pseudo_projective_plane
from .test_groups import _ORACLE_CASES

ROOT = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_ucover_verify_levels_1_to_12_bytes(monkeypatch):
    # the report's repro lines hold the path as given, so it is given relative
    monkeypatch.chdir(ROOT)
    report = cli.run(cli.ExperimentConfig(
        "ucover-verify", levels=tuple(range(1, 13)),
        complex_path="src/coverdiam/data/rp2_complex.json"))
    assert _sha(cli.emit(report, "json")) == (
        "dadb0b66a256c2ef021da7f464eb31d720a886edd125b2773118cd042483bfcd")


def test_nerve_after_checks_at_3_4_6_bytes():
    k = rp2_complex()
    cover = build_universal_cover(k, 100_000)
    for level in (3, 4, 6):
        verify_universal_bound(k, level, 100_000, cover=cover)
    rep = fiber_ball_nerve(cover, k.vertices[0], 0.05, 4)
    assert _sha(json.dumps(rep.to_json_dict(), sort_keys=True).encode()) == (
        "90d31b02fa54bafb1cf566040681bb92a014e52a20d8d24f1744f35517eb9ba9")


@pytest.mark.parametrize("order,digest", [
    (3, "0d3a258176a109a26405389014a550fc2c8db3d2f5ae2d8d38e1d5d8926cf17f"),
    (4, "6f2694917cc183e38c04d479ab1957e68f70de5045127505649277d55caec06f"),
    (6, "c84231895c9af912f0ea078ea34ede6e50dfcfd9a4fa2817057ea5d46304f7f9"),
])
def test_lens_plane_level_1_bytes(order, digest):
    k = pseudo_projective_plane(order)
    cover = build_universal_cover(k, 100_000)
    check = verify_universal_bound(k, 1, 100_000, cover=cover)
    nerve = fiber_ball_nerve(cover, k.vertices[0], 1.0, 1)
    payload = json.dumps([check.to_json_dict(), nerve.to_json_dict()], sort_keys=True)
    assert _sha(payload.encode()) == digest


@pytest.mark.parametrize("name,digest", [
    ("S3", "e6afe3897babcce04633b414f2c2feb8d36f7e60a6c274a2d9126fc8eea01486"),
    ("Q8", "7ae93f95093a63ce776c93fb7ec72ed4e27cbc930b3c1c1284de943d5022d332"),
    ("A4", "79d9ac6a76b797626f10b3d01c21422e916439af64c5ab0ddbde7c3847bf8cef"),
])
def test_non_abelian_cover_levels_1_2_bytes(name, digest):
    k = presentation_complex(*NON_ABELIAN[name][:2])
    cover = build_universal_cover(k, 100_000)
    checks = [verify_universal_bound(k, level, 100_000, cover=cover).to_json_dict() for level in (1, 2)]
    nerve = fiber_ball_nerve(cover, k.vertices[0], 1.0, 1)
    payload = json.dumps([checks, nerve.to_json_dict()], sort_keys=True)
    assert _sha(payload.encode()) == digest


@pytest.mark.parametrize("fmt,digest", [
    ("json", "341769afa59f67d40cc397f15207d2fd7fbf61555d361d8da7f0382532336b03"),
    ("csv", "8d64c9bf25836d3b4b0507e297ea3906a141f4e3c1d787ead17a5db42c12a0ab"),
])
def test_sweep_cover_seed_7_bytes(fmt, digest):
    # every sweep graph's diameter runs the witness stage
    report = cli.run(cli.ExperimentConfig("sweep-cover", seed=7, count=200))
    assert _sha(cli.emit(report, fmt)) == digest


def test_cayley_zoo_bytes():
    report = cli.run(cli.ExperimentConfig("cayley-zoo"))
    assert _sha(cli.emit(report, "json")) == (
        "84d5858e54b5fc2fedc1532d7a92ed7fc180d8988508db38a9ec51cfa49caa17")


@pytest.mark.parametrize("family,digest", [
    ("cayley groups", "b142b0648dd58dc3a47ecc1bc8e37bb6b805f13e3d47c58514a6314ec91d6dc7"),
    ("planes and their totals", "70e97e90befe60523c672512db24ac592bf1779fb708240e04f3392411bab1e8"),
])
def test_coset_table_bytes(family, digest):
    tables = [todd_coxeter(p, 100_000).action for p in _ORACLE_CASES[family]()]
    assert _sha(json.dumps(tables).encode()) == digest


def _zoo_flag_fillings():
    return [flag_triangles(cayley_graph(todd_coxeter(inst.presentation, 100_000), inst.gens))
            for inst in zoo_instances()]


def _planes_and_totals():
    planes = [pseudo_projective_plane(order) for order in range(3, 13)]
    return planes + [build_universal_cover(k, 100_000).total for k in planes]


@pytest.mark.parametrize("complexes,digest", [
    (_zoo_flag_fillings, "94a1fa377f71ee030182dd1dd0ac38048d3d647bb8e076315ce4f7950306ac0a"),
    (_planes_and_totals, "21a9dca6f9c6ac32199958418e96d896c54cb5e40bb6d5c4fb248c64ed4f9f27"),
])
def test_spanning_tree_presentation_bytes(complexes, digest):
    outputs = []
    for k in complexes():
        data = spanning_tree_presentation(k)
        outputs.append([data.presentation.generator_count, data.presentation.relators,
                        sorted(data.tree_edges), data.generator_edges])
    assert _sha(json.dumps(outputs).encode()) == digest
