"""End-to-end checks of the command-line interface."""

import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from morava_k2 import answer, cli, graded_algebra, km2, numerology, ss_engine
from morava_k2.cli import main
from morava_k2.graded_algebra import replace

from helpers import clear_caches, closed_pages, package_caches


def test_compute_json_schema_key_order(capsys):
    assert main(["compute", "--p", "3", "--n", "1", "--max-degree", "40", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, object_pairs_hook=list)
    assert [k for k, _v in doc] == [
        "p", "n", "variance", "window", "free", "torsion", "zp_family",
        "poincare", "names_nominal", "localized",
    ]
    doc = dict(doc)
    assert doc["names_nominal"] is True
    assert doc["localized"] is False
    free = [dict(pairs) for pairs in doc["free"]]
    assert list(free[0]) == ["factor_kind", "generator", "degree"]
    assert free[0] == {"factor_kind": "P", "generator": "v", "degree": -4}
    first_torsion = dict(doc["torsion"][0])
    assert list(first_torsion) == ["order", "generator_degree", "cofactor", "count_in_window"]
    assert first_torsion["order"] == 2
    assert first_torsion["generator_degree"] == 20


# sha256 of the stdout of `compute --format json` per (p, n, variance, max
# degree, localize).  These bytes are the published answer: a change to any
# of them must be deliberate and come with new digests.
COMPUTE_JSON_SHA256 = {
    (3, 1, "cohomology", 60, False):
        "c3e426e50736d984b5dd3ef0e887d6b6f821a01da87ec6a559558491d7f0fbfa",
    (3, 1, "homology", 60, False):
        "9bb96dbed3b85e39ae548c4e9cf4ae8f453ba044bd66870301301b811fa3029c",
    (2, 1, "cohomology", 60, False):
        "6ed7d7d344eab3d990453a8fa2fe0a57613f46a03f5bf4e3398b3081aaf62c38",
    (2, 1, "homology", 60, False):
        "0eb938d983c3bcd8a5d54d5c7a4995a0bb39da57c523227b475ff0f32e94301d",
    (2, 2, "cohomology", 80, False):
        "bdab4aa48c9558e5173fd55d2facfdac5527f1eedd5fd248839ccb3711a81b07",
    (2, 2, "homology", 80, False):
        "1136c34c45d8ffaa5faec42372686f44fed3b4180e1c4b09903ef50baa293bc8",
    (3, 2, "cohomology", 60, False):
        "b01768dbba986f7bad1cb521ad65f8c90f8eafaf3c6f8f7f7a534046d30e99cc",
    (5, 1, "homology", 100, False):
        "f1e6583672bd25dfe75e436c4eeec9d71e4d56fa0a594268a6ac50573a9314a9",
    (2, 3, "cohomology", 40, False):
        "c9763fa6c7f63d34b5629a0a764fa6fc4c639be434a68f02fe1d1b293d529a02",
    (2, 1, "cohomology", 60, True):
        "75148a805f85c76ab208ec7c73e052be98683709d8567c5b4ad1588eace0fac2",
}


def _job_id(job) -> str:
    return "-".join(map(str, job[:4])) + ("-localize" if job[4] else "")


def _compute_json(capsys, job) -> str:
    p, n, variance, hi, localize = job
    argv = [
        "compute", "--p", str(p), "--n", str(n), "--variance", variance,
        "--max-degree", str(hi), "--format", "json",
    ]
    assert main(argv + ["--localize"] * localize) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("job", COMPUTE_JSON_SHA256, ids=_job_id)
def test_compute_json_bytes_match_parent(capsys, job):
    out = _compute_json(capsys, job).encode()
    assert hashlib.sha256(out).hexdigest() == COMPUTE_JSON_SHA256[job]


# The same guard per full argument list: the five perfbench `compute` jobs,
# spelt as perfbench/jobs.py spells them, and a window that reaches below
# degree 0.
WIDE_COMPUTE_JSON_SHA256 = {
    "compute --p 3 --n 1 --format json":
        "e069694e22030ba4ca716c4d9967d237c7e4908a85042a30e88cde149f1e8de6",
    "compute --p 5 --n 1 --variance homology --format json":
        "7d80f9566d7f9b5d872e891386b26116760fd4faab069bd51641cd85b9f9b022",
    "compute --p 2 --n 1 --format json":
        "4d78697fb42c9488180a71553f5833f9b4f8e295c6bc88641578dc598658472c",
    "compute --p 3 --n 2 --max-degree 900 --variance homology --format json":
        "133367990745aff4c111c362696c010dd6c5c443de2e9ac641b2b8dc69e421a4",
    "compute --p 2 --n 2 --max-degree 400 --format json":
        "46df16b121eaef1ecb582bff960b354e28d3e2db2a73310b8c818de73a67b649",
    "compute --p 3 --n 1 --max-degree 120 --min-degree -8 --format json":
        "dffc8356c95780440d4b2988ac3289fde31114eb7c625e21a9df39897b29f5ec",
}


@pytest.mark.parametrize("command", WIDE_COMPUTE_JSON_SHA256)
def test_wide_compute_json_bytes_match_parent(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == WIDE_COMPUTE_JSON_SHA256[command]


# The perfbench `verify` and `table` jobs, spelt as perfbench/jobs.py spells
# them (mostly without --variance, which STDOUT_SHA256 below always passes).
BENCHMARK_STDOUT_SHA256 = {
    "verify --p 3 --n 1 --max-degree 400":
        "37313a9b25aba9cd65f5e176ad32adced8b475a45eb2d3c7b9a117cf7c72766f",
    "verify --p 5 --n 1 --max-degree 400 --variance homology":
        "ab971039c42c776a497c7294501ae87adfe27d5e01b06efc0d18484913a711c9",
    "verify --p 2 --n 1 --max-degree 300":
        "a42d5697a1014bcb66041402bc2afe1a5126f9513532d1a03dfcd4a9cf5598f6",
    "verify --p 3 --n 2 --max-degree 300":
        "237c8fc835e0276c918fcc038408336522f466af16be5b6fa840e27ecd27906a",
    "verify --p 2 --n 2 --max-degree 200":
        "65a452d2eaa494ba37249a3e96b065a91a29d7c78491350a692db9d9bd1f0809",
    "table --p 3 --n 1 --max-degree 60":
        "f8d825ebdf86a525055fa76fc9352bba26b00b4809287fd9abd1dd55a4d20b94",
    "table --p 5 --n 1 --max-degree 600 --variance homology":
        "34b3b4271027ae2a5564ca5f109510f24d37b43a1d15df28a423b46337795654",
    "table --p 2 --n 2 --max-degree 300":
        "330895c5159f83faa129b1e8dcd68ab5e4854d903f459a18758584037c1027ec",
    "table --p 3 --n 2 --max-degree 600":
        "7d8a113f2601ae876a56c62a0460466589308af70512d7fcc7159966f325d7f4",
}


@pytest.mark.parametrize("command", BENCHMARK_STDOUT_SHA256)
def test_benchmark_job_bytes_match_parent(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BENCHMARK_STDOUT_SHA256[command]


# sha256 of the stdout of `verify` (every suite) and `table` per (command,
# p, n, variance, max degree): the verdict lines and the charts, guarded the
# same way as the compute bytes above.  A table window of 90 or less is a
# chart_dims grid; the wider ones are chart_series rows.
STDOUT_SHA256 = {
    ("verify", 3, 1, "cohomology", 60):
        "ddc59a42bcdcda781f1c7be8e4643adecdd8b0599888c8943f0a49382de7a139",
    ("verify", 2, 1, "cohomology", 60):
        "cbe2e5f212b504a7db7173e6851d78649d301aef4553f181ee79eaf8d1786354",
    ("verify", 2, 2, "homology", 100):
        "c518beb51586e4946f50b249e0ccbd6feacb2bb65cebe390bc2c4ccce2391bd6",
    # the five perfbench `verify` jobs, whose reference holds only the
    # PASS-line count
    ("verify", 3, 1, "cohomology", 400):
        "37313a9b25aba9cd65f5e176ad32adced8b475a45eb2d3c7b9a117cf7c72766f",
    ("verify", 5, 1, "homology", 400):
        "ab971039c42c776a497c7294501ae87adfe27d5e01b06efc0d18484913a711c9",
    ("verify", 2, 1, "cohomology", 300):
        "a42d5697a1014bcb66041402bc2afe1a5126f9513532d1a03dfcd4a9cf5598f6",
    ("verify", 3, 2, "cohomology", 300):
        "237c8fc835e0276c918fcc038408336522f466af16be5b6fa840e27ecd27906a",
    ("verify", 2, 2, "cohomology", 200):
        "65a452d2eaa494ba37249a3e96b065a91a29d7c78491350a692db9d9bd1f0809",
    ("table", 3, 1, "cohomology", 40):
        "227b3ace6816fa2b82114f6c5c261c263f9a9581549c4b226e4b86b6ee7b0d13",
    ("table", 2, 2, "cohomology", 90):
        "b9e769416c97299236d2e31cabb193c0d4755d43a6ec7e0949d6ef201acf8760",
    ("table", 3, 2, "cohomology", 600):
        "7d8a113f2601ae876a56c62a0460466589308af70512d7fcc7159966f325d7f4",
    ("table", 5, 1, "homology", 600):
        "34b3b4271027ae2a5564ca5f109510f24d37b43a1d15df28a423b46337795654",
    ("table", 2, 2, "homology", 300):
        "29653e88c5d41e0523fdb5eff303840f7206b5ae0c20b94b5be939e1f528efd6",
    # homology grids, drawn by chart_dims
    ("table", 3, 1, "homology", 80):
        "bc967e5f2ddbd64533f11c6d9835ef6b2f66200109d28e049c0a336649c0a45e",
    ("table", 2, 1, "homology", 60):
        "a86ff0f1474fc2307ee6c8cb55dd8553fe29712fe36c9b50bec67b0ab3c6cc15",
    ("table", 2, 2, "homology", 90):
        "1e9e221c9afa7a4da0acd30d4a02f4772dd1fa4c661434c89d7c81bc4d339a66",
    ("table", 3, 2, "homology", 90):
        "e1247973e033ce0e84ea9b5a0baa38916111de3419146204a954d032c001ec26",
    # windows whose schedule is not empty but draws no stage: the one grid
    # is the state after every stage, all of which lie above the window
    ("table", 3, 1, "cohomology", 4):
        "82929b677c31b8da10965611702ae9bcb98e271f637762fec07ce4628d409d2f",
    ("table", 3, 1, "homology", 4):
        "c7b566b2f536d34b9fa604569869e42257357baf5be8eda70d7712a270d81549",
    ("table", 7, 1, "cohomology", 5):
        "e058e7bc06f84a5215ae84f5b75821bf48314c71c7d96ee65d044ce05657909c",
    ("table", 7, 1, "homology", 5):
        "931d237939af3de361bbfce503c3599b3ed13505277cd61dd91281f3f346112e",
    ("table", 2, 1, "homology", 2):
        "5076c20983450e41e3fa83bf1b6e766c1181c4b0d810f222ee13ee0de0490104",
}


@pytest.mark.parametrize("job", STDOUT_SHA256, ids=lambda job: "-".join(map(str, job)))
def test_verify_and_table_stdout_bytes(capsys, job):
    command, p, n, variance, hi = job
    argv = [command, "--p", str(p), "--n", str(n), "--variance", variance, "--max-degree", str(hi)]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[job]


def test_table_computes_each_chart_once(capsys, monkeypatch):
    """A window wider than 90 degrees prints its dims row from one
    chart_series call per rendered page and places no spot; a grid it
    draws comes from one chart_dims call per page and no series."""
    calls = Counter()
    for name in ("chart_dims", "chart_series"):
        real = getattr(ss_engine.Page, name)
        monkeypatch.setattr(
            ss_engine.Page,
            name,
            lambda page, lo, hi, real=real, name=name: calls.update([name]) or real(page, lo, hi),
        )
    assert main(["table", "--p", "3", "--n", "1", "--max-degree", "200"]) == 0
    out = capsys.readouterr().out
    assert out.count("window too wide for a grid") == calls["chart_series"] > 1
    assert calls["chart_dims"] == 0
    calls.clear()
    assert main(["table", "--p", "3", "--n", "1", "--max-degree", "60"]) == 0
    out = capsys.readouterr().out
    assert out.count("left to right") == calls["chart_dims"] > 1
    assert calls["chart_series"] == 0


def test_table_builds_one_page_per_grid_or_row(capsys, monkeypatch):
    """Over the four perfbench chart jobs, table snapshots the rewrite once
    per grid or row it prints, builds no E2 page and one schedule a job,
    and prints the pinned bytes."""
    jobs = [command for command in BENCHMARK_STDOUT_SHA256 if command.startswith("table")]
    assert len(jobs) == 4
    snapshots = _count_calls(monkeypatch, ss_engine._PageState, "snapshot")
    e2_pages = _count_calls(monkeypatch, ss_engine, "e2_closed_form")
    schedules = _count_calls(monkeypatch, ss_engine, "window_schedule")
    drawn = 0
    for command in jobs:
        assert main(command.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_STDOUT_SHA256[command]
        drawn += out.count("left to right") + out.count("window too wide for a grid")
    assert drawn == len(snapshots) == 32
    assert (len(e2_pages), len(schedules)) == (0, 4)


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(1, 3),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(2, 90),
)
@settings(deadline=None, max_examples=60)
def test_every_page_table_draws_has_the_unit_spot(p, n, variance, top):
    """_render_grid has no empty-grid case: every page of the rewrite walk,
    which table draws from, holds the unit's free tower at (0, 0)."""
    for page in closed_pages(p, n, variance, top):
        assert page.chart_dims(0, top)[(0, 0)] >= 1, page.stage


@pytest.mark.parametrize("job", COMPUTE_JSON_SHA256, ids=_job_id)
def test_compute_json_round_trips(capsys, job):
    p, n, variance, hi, localize = job
    rebuilt = cli.parse_answer(json.loads(_compute_json(capsys, job)))
    want = answer.closed_form(p, n, variance, hi)
    assert rebuilt == (answer.localize(want) if localize else want)
    # records compare as tuples; the repr also names every nested record class
    assert repr(rebuilt) == repr(answer.localize(want) if localize else want)


@pytest.mark.parametrize("localize", [False, True])
@settings(deadline=None, max_examples=100)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 3),
    variance=st.sampled_from(["cohomology", "homology"]),
    hi=st.integers(2, 80),
)
@example(p=3, n=1, variance="cohomology", hi=4)
def test_compute_json_round_trips_small_window(localize, p, n, variance, hi):
    """compute --format json reads back to the same module on small windows.
    At (3, 1) on [0, 4] the module has no torsion and no Z_p class yet, which
    must not read back as a localized module."""
    argv = [
        "compute", "--p", str(p), "--n", str(n), "--variance", variance,
        "--max-degree", str(hi), "--format", "json",
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv + ["--localize"] * localize) == 0
    rebuilt = cli.parse_answer(json.loads(out.getvalue()))
    want = answer.closed_form(p, n, variance, hi)
    assert rebuilt == (answer.localize(want) if localize else want)
    assert repr(rebuilt) == repr(answer.localize(want) if localize else want)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _compute_doc(doc):
    """The document compute --format json writes for the p, n, variance,
    window and localized that doc names, or None where it writes none."""
    try:
        p, n, variance, (lo, hi), localized = (
            doc[k] for k in ("p", "n", "variance", "window", "localized")
        )
    except (KeyError, TypeError, ValueError):
        return None
    if {type(x) for x in (p, n, lo, hi)} != {int} or type(variance) is not str:
        return None
    if type(localized) is not bool:
        return None
    argv = [
        "compute", "--p", str(p), "--n", str(n), "--variance", variance,
        "--min-degree", str(lo), "--max-degree", str(hi), "--format", "json",
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv + ["--localize"] * localized)
    return json.loads(out.getvalue()) if code == 0 else None


def _edits(node, path=()):
    """Every one-step edit of the JSON value node as (path, op): an integer
    leaf moved by op = 1 or -1, a string leaf given an "x", a boolean
    flipped, a list entry dropped or duplicated, a key added to an object."""
    if isinstance(node, bool):
        yield path, "flip"
    elif isinstance(node, int):
        yield path, 1
        yield path, -1
    elif isinstance(node, str):
        yield path, "x"
    elif isinstance(node, list):
        for i, x in enumerate(node):
            yield (*path, i), "drop"
            yield (*path, i), "dup"
            yield from _edits(x, (*path, i))
    else:
        yield path, "add"
        for k, x in node.items():
            yield from _edits(x, (*path, k))


def _edited(doc, path, op):
    """A copy of doc with the edit (path, op) of _edits made."""
    doc = json.loads(json.dumps(doc))
    if op == "add":
        target = doc
        for k in path:
            target = target[k]
        target["added"] = 0
        return doc
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "dup":
        parent.insert(key, parent[key])
    elif op == "flip":
        parent[key] = not parent[key]
    else:
        parent[key] += op
    return doc


@settings(deadline=None, max_examples=300)
@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 3),
    variance=st.sampled_from(["cohomology", "homology"]),
    lo=st.integers(-8, 2),
    hi=st.integers(2, 60),
    localize=st.booleans(),
    data=st.data(),
)
def test_parse_answer_accepts_only_what_compute_writes(p, n, variance, lo, hi, localize, data):
    """One edit of a compute document (a leaf changed, a list entry dropped
    or duplicated, a key added) is refused with a ConfigError, unless the
    edited document is exactly the one compute writes for the p, n,
    variance, window and localized it now names; then it reads back as
    that module."""
    doc = _compute_doc(
        {"p": p, "n": n, "variance": variance, "window": [lo, hi], "localized": localize}
    )
    edited = _edited(doc, *data.draw(st.sampled_from(list(_edits(doc)))))
    want = _compute_doc(edited)
    if want is not None and _dump(edited) == _dump(want):
        module = answer.closed_form(want["p"], want["n"], want["variance"], want["window"][1])
        if want["localized"]:
            module = answer.localize(module)
        assert cli.parse_answer(edited) == module
    else:
        with pytest.raises(cli.ConfigError):
            cli.parse_answer(edited)


def test_parse_answer_accepts_an_edit_compute_also_writes():
    """At (3, 1) on [0, 4] the module has no torsion and no Z_p class, so
    flipping localized gives the document compute --localize writes."""
    doc = _compute_doc(
        {"p": 3, "n": 1, "variance": "cohomology", "window": [0, 4], "localized": False}
    )
    edited = _edited(doc, ("localized",), "flip")
    assert _dump(edited) == _dump(_compute_doc(edited))
    assert cli.parse_answer(edited) == answer.localize(answer.closed_form(3, 1, "cohomology", 4))


def test_compute_output_is_deterministic(capsys):
    argv = ["compute", "--p", "3", "--n", "2", "--max-degree", "60", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_compute_tsv_one_row_per_degree(capsys):
    assert main([
        "compute", "--p", "3", "--n", "2", "--variance", "homology",
        "--max-degree", "25", "--format", "tsv",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "degree\tdim"
    assert len(lines) == 27
    a = answer.closed_form(3, 2, "homology", 25)
    series = answer.poincare_answer(a).total
    for line in lines[1:]:
        d, dim = line.split("\t")
        assert series.dim(int(d)) == int(dim)


def test_compute_localize_strips_torsion(capsys):
    assert main(["compute", "--p", "2", "--n", "1", "--localize", "--max-degree", "30"]) == 0
    out = capsys.readouterr().out
    assert "after inverting v" in out
    assert "free part: P[v]" in out
    assert "v-torsion" not in out


def test_compute_negative_min_degree_shows_v_tower(capsys):
    assert main([
        "compute", "--p", "3", "--n", "1", "--min-degree", "-8",
        "--max-degree", "4", "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    dims = {e["degree"]: e["dim"] for e in doc["poincare"]}
    assert [dims[d] for d in range(-8, 1)] == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_compute_positive_min_degree(capsys):
    argv = ["compute", "--p", "3", "--n", "1", "--max-degree", "60", "--format", "json"]
    assert main(argv + ["--min-degree", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["window"] == [4, 60]
    assert [e["degree"] for e in doc["poincare"]] == list(range(4, 61))
    assert main(argv) == 0
    full = json.loads(capsys.readouterr().out)
    assert doc["poincare"] == full["poincare"][4:]
    assert cli.parse_answer(doc) == cli.parse_answer(full)
    assert main(argv[:-2] + ["--min-degree", "40"]) == 0
    zp = sum(e["count"] for e in full["zp_family"] if e["degree"] >= 40)
    assert capsys.readouterr().out.endswith(f"Z_p family: {zp} classes in window\n")


@pytest.mark.parametrize("command", ["table", "verify"])
def test_min_degree_is_compute_only(capsys, command):
    assert main([command, "--p", "3", "--n", "1", "--min-degree", "4", "--max-degree", "60"]) == 2
    assert "unrecognized arguments: --min-degree 4" in capsys.readouterr().err


@pytest.mark.parametrize("variance", ["cohomology", "homology"])
def test_verify_height_three(capsys, variance):
    assert main(["verify", "--p", "2", "--n", "3", "--max-degree", "60", "--variance", variance]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS\t") == 8
    assert "PASS\tlocalization\tinverting v leaves rank p^C(n,2) = 8 over P[v]" in out


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "numerology", "--p", "5", "--n", "1", "--j-max", "100"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS\tnumerology\t")
    assert out.count("\n") == 1


def test_verify_reports_first_failure(capsys, monkeypatch):
    # exercise the failure path without breaking a real suite
    monkeypatch.setattr(
        cli.numerology, "identity_suite", lambda p, n, j_max: ["j=3: staged"]
    )
    code = main(["verify", "--suite", "all", "--p", "3", "--n", "1", "--max-degree", "40"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("FAIL\tnumerology\t")
    assert "PASS\toracle" in captured.out
    assert "verification failed in numerology" in captured.err


def test_internal_assertion_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("planted invariant failure")

    monkeypatch.setattr(cli.km2, "build", broken)
    assert main(["compute", "--p", "3", "--n", "1", "--max-degree", "40"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal consistency failure: planted invariant failure" in captured.err


def test_series_readers_see_a_planted_tower_defect(capsys, monkeypatch):
    """With the answer's page holding one class too many on every torsion
    tower, its chart no longer counts what poincare_answer counts, and
    compute refuses to print: the two readers share no tower arithmetic,
    and poincare_answer reads the families, never the page."""
    real = answer._summands

    def planted(expr, order, hi):
        return [t._replace(order=t.order + 1) for t in real(expr, order, hi)]

    monkeypatch.setattr(answer, "_summands", planted)
    a = answer.closed_form(3, 1, "cohomology", 600)
    assert answer.poincare_answer(a).total != answer.to_page(a).chart_series(0, 600)
    assert main(["compute", "--p", "3", "--n", "1", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "series readers disagree" in captured.err



def test_series_readers_compare_below_degree_zero(capsys, monkeypatch):
    """compute compares the two series readers over the whole printed range:
    a poincare_answer defect that shows only below degree 0, where the
    cohomology free tower lives, makes it refuse to print."""
    real = answer.poincare_answer

    def planted(a, window=None):
        series = real(a, window)
        total = series.total
        if total.lo < 0:
            total = replace(total, dims=(total.dims[0] + 1,) + total.dims[1:])
        return series._replace(total=total)

    monkeypatch.setattr(answer, "poincare_answer", planted)
    assert main(["compute", "--p", "3", "--n", "1", "--max-degree", "60"]) == 0
    capsys.readouterr()
    assert main(["compute", "--p", "3", "--n", "1", "--min-degree", "-20"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "series readers disagree" in captured.err

@pytest.mark.parametrize(
    "exc, code",
    [(ValueError, 3), (km2.WindowError, 2), (cli.ConfigError, 2)],
)
def test_exit_code_follows_error_kind(capsys, monkeypatch, exc, code):
    """Only configuration and window errors mean bad input (2); any other
    ValueError raised inside the package is an internal failure (3)."""

    def broken(*args, **kwargs):
        raise exc("planted")

    monkeypatch.setattr(cli.answer, "closed_form", broken)
    assert main(["compute", "--p", "3", "--n", "1", "--max-degree", "40"]) == code
    err = capsys.readouterr().err
    prefix = "internal consistency failure" if code == 3 else "error"
    assert err == f"{prefix}: planted\n"


VERIFY_31 = ["verify", "--p", "3", "--n", "1", "--max-degree", "40"]


def _count_calls(monkeypatch, module, name, tamper=lambda result: result):
    """The argument tuples of every call to module.name from now on, each
    result passed through tamper."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return tamper(real(*args))

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_brute_runs(monkeypatch, tamper=lambda page: page):
    return _count_calls(monkeypatch, ss_engine, "run_bruteforce", tamper)


def test_verify_builds_each_brute_page_once(capsys, monkeypatch):
    assert main(VERIFY_31) == 0
    want = capsys.readouterr().out
    calls = _count_brute_runs(monkeypatch)
    assert main(VERIFY_31) == 0
    assert capsys.readouterr().out == want
    assert len(calls) == 2  # one per variance, shared by oracle, pairing and uct


@pytest.mark.parametrize("suite", ["all", "bockstein", "localization"])
def test_verify_builds_the_closed_module_once(capsys, monkeypatch, suite):
    """bockstein and localization read one closed-form module per run, and
    either suite alone still builds it."""
    argv = VERIFY_31 + ["--suite", suite]
    assert main(argv) == 0
    want = capsys.readouterr().out
    calls = []
    real = answer.closed_form

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(answer, "closed_form", counted)
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert calls == [(3, 1, "cohomology", 40)]


def test_shared_brute_page_keeps_pairing_and_uct_honest(capsys, monkeypatch):
    """A wrong homology tower order on the shared page fails both suites."""

    def bump_first_homology_tower(page):
        if page.variance != "homology":
            return page
        torsion = list(page.torsion)
        i = next(k for k, t in enumerate(torsion) if t.order != ss_engine.INF)
        torsion[i] = replace(torsion[i], order=torsion[i].order + 1)
        return replace(page, torsion=tuple(torsion))

    calls = _count_brute_runs(monkeypatch, bump_first_homology_tower)
    assert main(VERIFY_31) == 1
    out = capsys.readouterr().out
    assert "PASS\toracle" in out
    assert "FAIL\tpairing" in out and "FAIL\tuct" in out
    assert len(calls) == 2


def test_verify_refuses_predicted_fold_work_over_the_cap(capsys, monkeypatch):
    """verify --p 2 --n 1 at window 6000 would fold about 1.7e6 units of
    work: refused with exit 2 in under a second, naming the predicted work,
    before any lattice is built.  A suite that builds no brute-force page
    still runs."""

    def no_lattice(*args, **kwargs):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(ss_engine, "_Lattice", no_lattice)
    work = sum(ss_engine.fold_work(2, 1, v, 6000) for v in ("cohomology", "homology"))
    assert work > cli._FOLD_WORK_CAP
    wide = ["verify", "--p", "2", "--n", "1", "--max-degree", "6000"]
    start = time.perf_counter()
    assert main(wide) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f" {work} units" in captured.err
    assert main(wide + ["--suite", "numerology"]) == 0


def test_fold_work_cap_passes_every_default_window_up_to_height_3():
    """The cap leaves verify every default window with n <= 3 (p < 200),
    and so every narrower window too: fold_work grows with the window."""
    for p in (q for q in range(2, 200) if km2._is_prime(q)):
        for n in (1, 2, 3):
            top = km2.default_window(n)
            works = [
                sum(ss_engine.fold_work(p, n, v, hi) for v in ("cohomology", "homology"))
                for hi in (top // 4, top // 2, top)
            ]
            assert works == sorted(works) and works[-1] <= cli._FOLD_WORK_CAP, (p, n, works)


@pytest.mark.parametrize("suite", ["qn", "e2"])
def test_verify_refuses_a_sweep_over_the_cap(capsys, monkeypatch, suite):
    """verify --p 2 --n 1 at window 4000 would sweep 1.6e6 monomials of
    degree <= 4000: the qn and e2 suites, which fold no lattice, are
    refused with exit 2, naming the figure, before any Q_n block is built."""

    def no_block(*args, **kwargs):
        raise AssertionError("a Q_n block was built")

    monkeypatch.setattr(km2, "_qn_block", no_block)
    assert km2.sweep_monomials(2, 1, 4000, 10**9) == 1599984
    # the count stops at the first component that passes the cap
    monomials = km2.sweep_monomials(2, 1, 4000, cli._SWEEP_CAP)
    assert monomials == 1596409
    assert main(["verify", "--p", "2", "--n", "1", "--max-degree", "4000", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f" {monomials} monomials" in captured.err
    # the suites that read no Q_n sweep are offered as the way round the cap
    assert captured.err.endswith("pick the suite numerology, bockstein or localization\n")


def test_sweep_cap_passes_the_default_windows():
    """The cap leaves verify every default window with p < 200 and n <= 4,
    the largest being (2, 2) at 3.4e5 monomials, and so every narrower
    window too: a narrower window sweeps a subset of the monomials.  Past
    p = 2 no default window sweeps more than 4325 ((3, 2))."""
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    counts = {
        (p, n): km2.sweep_monomials(p, n, km2.default_window(n), cli._SWEEP_CAP)
        for p in primes
        for n in (1, 2, 3, 4)
    }
    assert len(counts) == 184
    assert max(counts.values()) == counts[2, 2] == 342893
    assert max(c for (p, _n), c in counts.items() if p > 2) == counts[3, 2] == 4325


def test_verify_runs_the_windows_the_whole_walk_refused(capsys):
    """Two runs the cap refused while the sweep walked every monomial up to
    top + 2(2p^n - 1), each counted by its window now: all eight suites at
    p = 1000003 (2.0e6 walked, 28 swept), and the qn suite at the default
    window of (71, 3) (1.1e6 walked, 1273 swept)."""
    assert main(["verify", "--p", "1000003", "--n", "1", "--max-degree", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(line.startswith("PASS\t") for line in lines)
    assert main(["verify", "--p", "71", "--n", "3", "--suite", "qn"]) == 0
    assert capsys.readouterr().out == "PASS\tqn\tQ_n squared to zero on 1773 monomials\n"


@pytest.mark.parametrize("suite", ["bockstein", "localization", "all"])
def test_verify_refuses_a_window_over_the_cap(capsys, monkeypatch, suite):
    """bockstein and localization build their series on [0, top] as compute
    does, so they take the compute window cap: one degree over it is refused
    with exit 2 before any series is built, and the cap itself runs."""

    def no_series(*args, **kwargs):
        raise AssertionError("a series was built")

    monkeypatch.setattr(graded_algebra, "_times_exponent_range", no_series)
    monkeypatch.setattr(km2, "total_dims", no_series)
    top = cli._WINDOW_CAP + 1
    assert main(["verify", "--max-degree", str(top), "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the window [0, {top}] spans {top} degrees, over the limit of "
        f"{cli._WINDOW_CAP}; narrow it\n"
    )
    monkeypatch.undo()
    if suite != "all":
        assert main(["verify", "--max-degree", str(cli._WINDOW_CAP), "--suite", suite]) == 0


def test_window_cap_passes_every_default_window():
    """Every default window with p < 200 and n <= 4 passes the guards of
    bockstein and localization, whose series stay on [0, top] at every p:
    (199, 4) and (67, 3), where bockstein once built a series to degree
    4e7, run."""
    for p in (q for q in range(2, 200) if km2._is_prime(q)):
        for n in (1, 2, 3, 4):
            cfg = cli._build_config("verify", {"p": p, "n": n})
            cli._refuse_costly(cfg, ("bockstein", "localization"))
    for p, n in ((199, 4), (67, 3)):
        for suite in ("bockstein", "localization"):
            assert main(["verify", "--p", str(p), "--n", str(n), "--suite", suite]) == 0


def test_verify_computes_each_shared_result_once(capsys, monkeypatch):
    """pairing and uct read one UCT transport, and only the e2 suite builds
    the E2 page; the output is unchanged."""
    argv = ["verify", "--p", "3", "--n", "2", "--max-degree", "300"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    transports = _count_calls(monkeypatch, ss_engine, "uct_transport")
    e2_pages = _count_calls(monkeypatch, ss_engine, "e2_closed_form")
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert len(transports) == 1 and len(e2_pages) == 1


def test_shared_uct_transport_keeps_pairing_and_uct_honest(capsys, monkeypatch):
    """The Z_p family moved by 2p^n + 1 instead of 2p^n - 1 in the one
    shared transport fails both suites that read it."""

    def shift_zp_by_two(page):
        return replace(page, zp_family=tuple((d + 2, c) for d, c in page.zp_family))

    _count_calls(monkeypatch, ss_engine, "uct_transport", shift_zp_by_two)
    assert main(VERIFY_31) == 1
    out = capsys.readouterr().out
    assert "PASS\toracle" in out
    assert "FAIL\tpairing\tZ_p families differ at degree " in out
    assert "FAIL\tuct\tZ_p families differ at degree " in out


def test_a_plant_in_the_shared_e2_page_reaches_oracle(capsys, monkeypatch):
    """A Z_p class dropped from the closed cohomology family, which every
    snapshot of the rewrite reads, fails oracle in a full run as in the
    oracle suite alone, and bockstein, which reads it through the answer
    module.  The e2 suite compares no Z_p family and passes."""
    real = ss_engine.zp_family_closed

    def drop_first_zp(p, n, variance, hi):
        family = real(p, n, variance, hi)
        return family[1:] if variance == "cohomology" else family

    monkeypatch.setattr(ss_engine, "zp_family_closed", drop_first_zp)
    assert main(VERIFY_31) == 1
    out = capsys.readouterr().out
    assert [line.split("\t")[1] for line in out.splitlines() if line.startswith("FAIL")] == [
        "oracle",
        "bockstein",
    ]
    assert main(VERIFY_31 + ["--suite", "oracle"]) == 1
    assert capsys.readouterr().out.startswith("FAIL\toracle\tZ_p families differ at degree ")
    assert main(VERIFY_31 + ["--suite", "e2"]) == 0
    assert capsys.readouterr().out.startswith("PASS\te2\t")


@pytest.mark.parametrize(
    "p, code, failing, passing, err",
    [
        (
            "3",
            1,
            ["numerology", "e2", "oracle", "pairing", "uct"],
            ["qn", "bockstein", "localization"],
            "verification failed in numerology: first failure: IdentityFailure(identity='r_bounds', "
            "j=1, detail='')\n",
        ),
        (
            "2",
            3,
            ["numerology", "e2"],
            ["qn"],
            "internal consistency failure: a p = 2 paired stage needs exactly its two entries\n",
        ),
    ],
    ids=["p3-n2", "p2-n2"],
)
def test_a_planted_stage_number_is_seen(capsys, monkeypatch, p, code, failing, passing, err):
    """numerology.r(1) one too high is theorem data that both routes read:
    the numerology suite sees it, e2 sees the E2 page it moves, and at
    (3, 2) oracle, pairing and uct see the pages the two routes build from
    it; at (2, 2) the closed rewrite meets a paired stage without its
    partner and stops with exit 3.  Run on empty caches, as every test is:
    a schedule kept from a clean run of the same job hides the plant from
    the rewrite, and (2, 2) then exits 1."""
    real = numerology.r
    monkeypatch.setattr(numerology, "r", lambda j, p_, n: real(j, p_, n) + (j == 1))
    assert main(["verify", "--p", p, "--n", "2", "--max-degree", "300"]) == code
    captured = capsys.readouterr()
    lines = [line.split("\t") for line in captured.out.splitlines()]
    assert [name for verdict, name, _ in lines if verdict == "FAIL"] == failing
    assert [name for verdict, name, _ in lines if verdict == "PASS"] == passing
    assert captured.err == err


def _fold_without_tor(monkeypatch):
    """_fold with no Tor term: two towers meet only at their degree sum."""

    def fold(a, b, p, n, variance, limit):
        out = Counter()
        for (g1, o1), c1 in a.items():
            for (g2, o2), c2 in b.items():
                if g1 + g2 <= limit:
                    out[(g1 + g2, min(o1, o2))] += c1 * c2
        return out

    monkeypatch.setattr(ss_engine, "_fold", fold)


def _key_floor_two_higher(monkeypatch):
    """Every cohomology torsion tower keyed 2 below its source degree."""
    real = ss_engine._key_floor
    monkeypatch.setattr(ss_engine, "_key_floor", lambda order, p, n, variance: real(
        order, p, n, variance) + 2 * (variance == "cohomology" and order != ss_engine.INF))


def _lattice_cut_at_half_a_step(monkeypatch):
    """The cohomology class lattices enumerated to top + delta / 2 only."""
    real = ss_engine._plan

    def plan(p, n, variance, top):
        got = real(p, n, variance, top)
        if variance != "cohomology":
            return got
        return got._replace(enum_limit=top + ss_engine.degree_step(got.max_stage, p, n) // 2)

    monkeypatch.setattr(ss_engine, "_plan", plan)


def _rank_one_short(monkeypatch):
    """rank_modp one short on every block of rank 2 or more."""
    real = km2.rank_modp
    monkeypatch.setattr(km2, "rank_modp", lambda a, p: (lambda r: r - (r >= 2))(real(a, p)))


def _total_dims_one_high_at_40(monkeypatch):
    """km2.total_dims, dim H per degree, one too high at degree 40."""
    real = km2.total_dims

    def total_dims(pres, hi):
        dims = real(pres, hi)
        dims[40] += 1
        return dims

    monkeypatch.setattr(km2, "total_dims", total_dims)


def _zp_family_count_one_high(monkeypatch):
    """The first count of the brute route's Z_p family one too high."""
    real = ss_engine.zp_family_counts

    def zp_family_counts(p, n, variance, hi):
        (degree, count), *rest = real(p, n, variance, hi)
        return ((degree, count + 1), *rest)

    monkeypatch.setattr(ss_engine, "zp_family_counts", zp_family_counts)


def _family_order_one_high(monkeypatch):
    """The first torsion family of _families one order too high."""
    real = ss_engine._families

    def families(p, n, variance, hi):
        first, *rest = real(p, n, variance, hi)
        return [first._replace(order=first.order + 1), *rest]

    monkeypatch.setattr(ss_engine, "_families", families)


_DEFECT_WINDOWS = [("3", "2", "300"), ("2", "2", "200"), ("3", "1", "300")]
# (plant, the suites it fails, the suite that stops the run with exit 3 or
# None when all eight run)
_DEFECT_MATRIX = [
    (_fold_without_tor, ["oracle"], None),
    (_key_floor_two_higher, ["oracle", "pairing", "uct"], None),
    (_lattice_cut_at_half_a_step, ["oracle", "pairing", "uct"], None),
    # every Q_n block at (3, 2)/300 and (3, 1)/300 has rank 0 or 1, so the
    # plant is blind there: those rows pin the blind spot
    (_rank_one_short, {"2": ["e2", "oracle"], "3": []}, None),
    (_total_dims_one_high_at_40, ["oracle", "bockstein"], None),
    (_zp_family_count_one_high, ["oracle"], None),
    # the E-infinity pages differ, then bockstein meets the family whose
    # order disagrees with its schedule entry
    (_family_order_one_high, ["oracle"], "bockstein"),
]


@pytest.mark.parametrize(
    "plant, failing, stop, window",
    [(*row, w) for row in _DEFECT_MATRIX for w in _DEFECT_WINDOWS],
    ids=[f"{row[0].__name__[1:]}-{'-'.join(w)}" for row in _DEFECT_MATRIX for w in _DEFECT_WINDOWS],
)
def test_a_planted_defect_fails_its_suites(capsys, monkeypatch, plant, failing, stop, window):
    """Each planted defect in the brute route, the Q_n sweep or the theorem
    data fails exactly the verify suites named in its row, at each window
    (a dict row names them per p), and the rest pass; a row with a stop
    ends in an internal consistency failure at that suite, after the
    suites before it printed their lines."""
    p, n, top = window
    failing = failing[p] if isinstance(failing, dict) else failing
    plant(monkeypatch)
    code = main(["verify", "--p", p, "--n", n, "--max-degree", top])
    captured = capsys.readouterr()
    lines = [line.split("\t") for line in captured.out.splitlines()]
    assert [name for verdict, name, _ in lines if verdict == "FAIL"] == failing
    if stop is None:
        assert code == (1 if failing else 0)
        assert len(lines) == 8
    else:
        assert code == 3
        assert captured.err.startswith("internal consistency failure: ")
        assert [name for _, name, _ in lines] == list(cli._SUITES[: cli._SUITES.index(stop)])


def _reordering_sign_flipped(monkeypatch):
    """Every Leibniz term that moves an odd image past odd slots takes the
    opposite sign, whichever factors are present: Q_n(i2) = -u_n at odd p.
    That is Q_n conjugated by i2 -> -i2, so Q_n^2 stays 0 and no rank
    moves; at p = 2 every sign is + and the plant changes nothing."""
    real = km2.DerivationContext.__init__

    def init(self, pres, max_degree, gens=None):
        real(self, pres, max_degree, gens)
        odd = {k for k, g in enumerate(self.gens) if g.degree % 2 and self.p != 2}
        self.terms = [
            t._replace(odd=lambda m, get=t.odd: (*get(m), 1))
            if t.tpos in odd and any(t.k < s < t.tpos for s in odd) else t
            for t in self.terms
        ]

    monkeypatch.setattr(km2.DerivationContext, "__init__", init)


def _towers_one_stage_late(monkeypatch):
    """_PageState.apply_stage adds each stage's family towers at the next
    stage: every page in between misses them, and E-infinity does not, as
    the last stage adds none in these windows."""
    real = ss_engine._PageState.apply_stage

    def apply_stage(self, group):
        start = len(self.torsion)
        real(self, group)
        added = self.torsion[start:]
        self.torsion[start:] = getattr(self, "held", [])
        self.held = added

    monkeypatch.setattr(ss_engine._PageState, "apply_stage", apply_stage)


class _BlindSpot(Exception):
    """verify passed all eight suites on a planted defect."""


# plants that every suite passes today, each with the ROADMAP item whose
# check is to see it; when that check lands the row moves to _DEFECT_MATRIX
_BLIND_PLANTS = [
    # odd p only: at p = 2 the plant changes nothing
    (
        _reordering_sign_flipped,
        "item 10: the qn suite checks the Leibniz rule",
        [w for w in _DEFECT_WINDOWS if w[0] != "2"],
    ),
    (_towers_one_stage_late, "items 2 and 3: every E_r page compared and checked", _DEFECT_WINDOWS),
]


@pytest.mark.parametrize(
    "plant, window",
    [
        pytest.param(plant, w, marks=pytest.mark.xfail(
            raises=_BlindSpot, strict=True, reason=f"blind until {item}"
        ))
        for plant, item, windows in _BLIND_PLANTS
        for w in windows
    ],
    ids=[f"{plant.__name__[1:]}-{'-'.join(w)}" for plant, _, windows in _BLIND_PLANTS for w in windows],
)
def test_a_blind_plant_fails_verify(capsys, monkeypatch, plant, window):
    """A planted defect that verify should fail and does not yet: it passes
    all eight suites, and any other outcome but exit 1 is an error, not
    the expected failure."""
    p, n, top = window
    plant(monkeypatch)
    code = main(["verify", "--p", p, "--n", n, "--max-degree", top])
    if code == 0 and capsys.readouterr().out.count("PASS\t") == 8:
        raise _BlindSpot(plant.__name__)
    assert code == 1


def test_oracle_suite_builds_no_e2_page(capsys, monkeypatch):
    """The oracle suite snapshots the rewrite's last state alone: it builds
    no E2 page and snapshots one page."""
    e2_pages = _count_calls(monkeypatch, ss_engine, "e2_closed_form")
    snapshots = _count_calls(monkeypatch, ss_engine._PageState, "snapshot")
    assert main(VERIFY_31 + ["--suite", "oracle"]) == 0
    assert capsys.readouterr().out.startswith("PASS\toracle\t")
    assert (len(e2_pages), len(snapshots)) == (0, 1)


def test_verify_builds_each_qn_block_once(capsys, monkeypatch):
    """One verify run sweeps the Q_n blocks once: the qn suite builds them,
    and e2 and both brute-force pages read its ranks.  A block's source
    lies at most dq = 17 past the window, and a basis it is given as rows
    lies inside it; past the window the rows are the targets reached."""
    built = Counter()
    real = km2._qn_block

    def counted(ctx, src, tgt):
        built[tuple(g.name for g in ctx.gens), ctx.degree(src[0])] += 1
        assert tgt is None or ctx.degree(tgt[0]) <= 300
        return real(ctx, src, tgt)

    monkeypatch.setattr(km2, "_qn_block", counted)
    assert main(["verify", "--p", "3", "--n", "2", "--max-degree", "300"]) == 0
    assert built and max(built.values()) == 1
    assert 300 < max(d for _gens, d in built) <= 300 + 17


def test_verify_computes_each_shared_input_once(capsys, monkeypatch):
    """One verify run counts dim H twice, once for the Q_n-homology report
    that e2 and both brute-force pages read and once for bockstein, and
    computes each window plan, schedule and closed Z_p family once per
    argument tuple, however often its suites read them: the cohomology
    family is read three times, by the answer module, the E2 page and the
    E-infinity page of oracle, and computed once."""
    argv = ["verify", "--p", "3", "--n", "2", "--max-degree", "300"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    real_plan, real_schedule = ss_engine._plan, ss_engine.schedule
    real_zp = ss_engine.zp_family_closed
    clear_caches()
    totals = _count_calls(monkeypatch, km2, "total_dims")
    plans = _count_calls(monkeypatch, ss_engine, "_plan")
    schedules = _count_calls(monkeypatch, ss_engine, "schedule")
    zps = _count_calls(monkeypatch, ss_engine, "zp_family_closed")
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert len(totals) == 2
    assert real_plan.cache_info().misses == len(set(plans)) < len(plans)
    assert real_schedule.cache_info().misses == len(set(schedules)) < len(schedules)
    assert real_zp.cache_info().misses == len(set(zps)) < len(zps)
    cohomology = [args for args in zps if args[2] == "cohomology"]
    assert len(cohomology) == 3 and len(set(cohomology)) == 1
    assert real_zp.cache_info().misses == len(set(zps)) == 2


def test_clear_caches_finds_every_cache(capsys, monkeypatch):
    """After a verify run the package's caches hold entries; clear_caches
    empties each one it can find, the Q_n-homology memo and every
    functools cache of a package module or class, a cache added to
    ss_engine included."""

    @functools.lru_cache(maxsize=None)
    def added(x):
        return x

    monkeypatch.setattr(ss_engine, "added", added, raising=False)
    added(1)
    assert main(["verify", "--p", "3", "--n", "2", "--max-degree", "300"]) == 0
    capsys.readouterr()
    caches = package_caches()
    known = [
        graded_algebra.TensorExpression.poincare,
        ss_engine._plan,
        ss_engine.schedule,
        ss_engine.zp_family_closed,
        added,
    ]
    assert all(any(cache is c for c in caches) for cache in known)
    assert all(cache.cache_info().currsize for cache in known) and km2._TRIVIAL_MEMO
    clear_caches()
    assert [cache for cache in caches if cache.cache_info().currsize] == []
    assert km2._TRIVIAL_MEMO == {}


def test_composite_p_rejected(capsys):
    assert main(["verify", "--p", "4", "--n", "1"]) == 2
    assert "p must be prime" in capsys.readouterr().err


def test_invalid_config_values(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"variance": "sideways"}')
    assert main(["compute", "--config", str(cfg)]) == 2
    assert "variance" in capsys.readouterr().err
    assert main(["compute", "--p", "3", "--max-degree", "1"]) == 2
    capsys.readouterr()
    assert main(["compute", "--format", "xml"]) == 2
    assert "format must be json, tsv or text" in capsys.readouterr().err
    # a value of the wrong JSON type names its key and exits 2, never 1, in
    # each command that reads the key
    for key, value in [
        ("max_degree", "400"),
        ("max_degree", 40.5),
        ("min_degree", True),
        ("j_max", None),
        ("localize", "no"),
        ("localize", 1),
        ("n", True),
        ("p", 3.0),
        ("variance", 1),
        ("format", None),
        ("suite", ["qn"]),
    ]:
        cfg.write_text(json.dumps({key: value}))
        commands = [c for c, keys in cli._COMMAND_OPTIONS.items() if key in keys]
        for command in commands:
            assert main([command, "--config", str(cfg)]) == 2, (command, key, value)
            err = capsys.readouterr().err
            assert err.startswith(f"error: config key {key!r} must be a JSON "), err


# A flag that its command does not read is refused (exit 2) and named, never
# accepted and dropped.
_IGNORED_FLAGS = [
    (["compute", "--max-degree", "40"], ["--v-cap", "1"]),
    (["compute", "--max-degree", "40"], ["--suite", "qn"]),
    (["compute", "--max-degree", "40"], ["--j-max", "9"]),
    (["table", "--max-degree", "40"], ["--format", "json"]),
    (["table", "--max-degree", "40"], ["--localize"]),
    (["verify", "--max-degree", "40", "--suite", "numerology"], ["--format", "tsv"]),
    (["verify", "--max-degree", "40", "--suite", "numerology"], ["--localize"]),
]


@pytest.mark.parametrize("argv, flag", _IGNORED_FLAGS, ids=lambda x: " ".join(x))
def test_flag_a_command_ignores_exits_2(capsys, argv, flag):
    assert main(argv + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize("command", ["compute", "verify", "table"])
@pytest.mark.parametrize("key", ["max_degre", "v_cap"])
def test_config_key_a_command_ignores_exits_2(capsys, tmp_path, command, key):
    """A key the command does not read is refused and named: dropped, a
    misspelt key would leave the run on its default window."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: 40}))
    assert main([command, "--config", str(cfg), "--max-degree", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key {key!r} is not a {command} option\n"


def test_config_file_supplies_defaults_but_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"p": 5, "max_degree": 12, "format": "tsv"}))
    assert main(["compute", "--config", str(cfg), "--max-degree", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert lines[1] == "0\t1"
    # q2 = 8 at p=5, so nothing else lives this low
    assert all(line.endswith("\t0") for line in lines[2:])


# Each accepted argv with the RunConfig that the argparse reader it replaced
# gave for it; {config} is a file holding {"p": 5, "max_degree": 12,
# "format": "tsv"}.
_ACCEPTED_ARGV = [
    ("compute --p 5 --n 2 --max-degree 40",
     ("compute", 5, 2, "cohomology", 0, 40, 5, "text", "all", False)),
    ("compute --p=5 --n=2 --max-degree=40",
     ("compute", 5, 2, "cohomology", 0, 40, 5, "text", "all", False)),
    ("compute --min-degree -10 --max-degree 20",
     ("compute", 3, 1, "cohomology", -10, 20, 4, "text", "all", False)),
    ("compute --min-degree=-10 --max-degree=20",
     ("compute", 3, 1, "cohomology", -10, 20, 4, "text", "all", False)),
    ("compute --p 2 --localize --format json",
     ("compute", 2, 1, "cohomology", 0, 600, 4, "json", "all", True)),
    ("table --p 3 --p 5",
     ("table", 5, 1, "cohomology", 0, 600, 4, "text", "all", False)),
    ("verify --variance homology --suite qn --j-max 7 --max-degree 60",
     ("verify", 3, 1, "homology", 0, 60, 7, "text", "qn", False)),
    ("verify",
     ("verify", 3, 1, "cohomology", 0, 600, 4, "text", "all", False)),
    ("compute --config {config} --max-degree 6",
     ("compute", 5, 1, "cohomology", 0, 6, 4, "tsv", "all", False)),
    ("compute --max-degree 6 --config={config}",
     ("compute", 5, 1, "cohomology", 0, 6, 4, "tsv", "all", False)),
]

# Each refused argv with a piece of its one stderr line, which names the
# token the reader could not place.
_REFUSED_ARGV = [
    ("compute --v-cap 1", "error: unrecognized arguments: --v-cap 1"),
    ("compute --bogus --p 3", "error: unrecognized arguments: --bogus"),
    ("table --min-degree 4", "error: unrecognized arguments: --min-degree 4"),
    ("compute --max 60", "error: unrecognized arguments: --max 60"),
    ("compute --max_degree 60", "error: unrecognized arguments: --max_degree 60"),
    ("compute --localize=1", "error: unrecognized arguments: --localize=1"),
    ("compute --p 3 extra", "error: unrecognized arguments: extra"),
    ("compute --max-degree 60 --p", "error: --p expects a value"),
    ("compute --p --n 2", "error: --p expects a value"),
    ("compute --p x", "error: --p takes an integer, not 'x'"),
    ("compute --variance=sideways", "error: variance must be cohomology or homology"),
    ("", "error: a command is required"),
    ("frobnicate --p 3", "error: unknown command 'frobnicate'"),
    ("compute --p 3 --n 1 --max-degree 8 --config {config}.missing",
     "error: cannot read config file: "),
    # an empty path is unreadable too, never a missing --config
    ("compute --p 3 --n 1 --max-degree 8 --config=", "error: cannot read config file: "),
    ("compute --p 3 --n 1 --max-degree 8 --config ''", "error: cannot read config file: "),
]


@pytest.fixture
def read_config(monkeypatch, tmp_path):
    """main on an argv string, split as a shell would, returning (exit code,
    the RunConfig the command received or None); {config} in the string
    names a config file."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"p": 5, "max_degree": 12, "format": "tsv"}))
    seen = []
    for name in ("cmd_compute", "cmd_verify", "cmd_table"):
        monkeypatch.setattr(cli, name, lambda cfg, out: seen.append(cfg) or 0)

    def run(argv: str):
        seen.clear()
        code = main(shlex.split(argv.format(config=path)))
        return code, (seen[0] if seen else None)

    return run


@pytest.mark.parametrize("argv, want", _ACCEPTED_ARGV, ids=[a for a, _ in _ACCEPTED_ARGV])
def test_argv_reader_accepts(capsys, read_config, argv, want):
    assert read_config(argv) == (0, cli.RunConfig(*want))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", _REFUSED_ARGV, ids=[a for a, _ in _REFUSED_ARGV])
def test_argv_reader_refuses(capsys, read_config, argv, message):
    assert read_config(argv) == (2, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err, captured.err


@pytest.mark.parametrize(
    "argv", [["--help"], ["-h"], ["verify", "--help"], ["table", "--p", "3", "-h"]]
)
def test_help_lists_each_command_flags(capsys, argv):
    """--help lists every command's flags, and COMMAND --help that command's,
    exactly as _COMMAND_OPTIONS has them, each command taking --config too."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    listed, command = {}, None
    for line in captured.out.splitlines():
        if line.endswith(":") and line[:-1] in cli._COMMAND_OPTIONS:
            command = line[:-1]
            listed[command] = []
        elif command and line.startswith("  --"):
            listed[command].append(line.split()[0])
    commands = [argv[0]] if argv[0] in cli._COMMAND_OPTIONS else list(cli._COMMAND_OPTIONS)
    assert listed == {
        c: ["--" + key.replace("_", "-") for key in cli._COMMAND_OPTIONS[c]] + ["--config"]
        for c in commands
    }


@pytest.mark.parametrize(
    "argv, top",
    [
        ("compute --p 3 --n 1 --format tsv --max-degree {}", 10**4),
        ("compute --p 3 --n 1 --format tsv --min-degree -9000 --max-degree {}", 1000),
        ("table --p 3 --n 1 --max-degree {}", 10**4),
    ],
)
def test_compute_and_table_refuse_a_window_over_the_cap(capsys, monkeypatch, argv, top):
    """A compute or table window that spans more than _WINDOW_CAP degrees,
    counted from the lower of 0 and --min-degree, is refused with exit 2
    before any series is built; one degree less runs.  The default windows
    pass."""
    assert max(km2.default_window(n) for n in (1, 2, 3)) < cli._WINDOW_CAP == 10**4
    real = graded_algebra._times_exponent_range

    def no_series(*args, **kwargs):
        raise AssertionError("a series was built")

    monkeypatch.setattr(graded_algebra, "_times_exponent_range", no_series)
    assert main(argv.format(top + 1).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"limit of {cli._WINDOW_CAP}" in captured.err
    monkeypatch.setattr(graded_algebra, "_times_exponent_range", real)
    assert main(argv.format(top).split()) == 0
    capsys.readouterr()


def _forbid_computing(monkeypatch):
    """Make every command's first computation raise, so that a run that the
    caps on n and j-max should refuse exits 3 at once instead of running."""

    def ran(*args, **kwargs):
        raise AssertionError("a refused run started computing")

    for module, name in ((answer, "closed_form"), (ss_engine, "window_schedule"),
                         (cli.numerology, "identity_suite")):
        monkeypatch.setattr(module, name, ran)


@pytest.mark.parametrize(
    "argv, message",
    [
        # each took seconds to minutes, or failed with exit 3, before the caps
        ("compute --p 3 --n 2000 --max-degree 100", "n must be at most 16"),
        ("compute --p 3 --n 5000 --max-degree 100", "n must be at most 16"),
        ("compute --p 3 --n 10000 --max-degree 100", "n must be at most 16"),
        ("compute --p 3 --n 100000 --max-degree 100", "n must be at most 16"),
        ("table --p 3 --n 10000 --max-degree 100", "n must be at most 16"),
        ("verify --suite numerology --p 3 --n 20000", "n must be at most 16"),
        ("verify --suite localization --p 11 --n 100 --max-degree 100", "n must be at most 16"),
        ("verify --suite numerology --p 5 --n 1 --j-max 4000", "j-max must be at most 500"),
        ("verify --suite numerology --p 5 --n 1 --j-max 8000", "j-max must be at most 500"),
        ("verify --suite numerology --p 5 --n 1 --j-max 16000", "j-max must be at most 500"),
    ],
)
def test_costly_n_and_j_max_are_refused_before_any_work(capsys, monkeypatch, argv, message):
    _forbid_computing(monkeypatch)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_parse_answer_refuses_an_n_over_the_cap(capsys, monkeypatch):
    doc = json.loads(_compute_json(capsys, (3, 1, "cohomology", 40, False)))
    _forbid_computing(monkeypatch)
    with pytest.raises(cli.ConfigError, match="n must be at most 16"):
        cli.parse_answer({**doc, "n": 10000})


def test_the_n_and_j_max_caps_admit_their_limits(capsys):
    """n = _N_CAP with its default j-max, and j-max = _J_MAX_CAP, pass the
    checks; at the largest admitted p the localization suite prints
    p^C(n,2) for n = _N_CAP, within Python's int-to-str digit limit."""
    assert (cli._N_CAP, cli._J_MAX_CAP) == (16, 500)
    cli._build_config("verify", {"n": cli._N_CAP})
    cli._build_config("verify", {"j_max": cli._J_MAX_CAP})
    p = 3317044064679887385961813  # the largest prime below km2.PRIME_BOUND
    assert km2._is_prime(p) and not any(map(km2._is_prime, range(p + 1, km2.PRIME_BOUND)))
    argv = ["verify", "--suite", "localization", "--p", str(p), "--n", str(cli._N_CAP)]
    assert main(argv + ["--max-degree", "100"]) == 0
    assert str(p ** (cli._N_CAP * (cli._N_CAP - 1) // 2)) in capsys.readouterr().out


def test_table_annotates_differentials(capsys):
    assert main(["table", "--p", "3", "--n", "1", "--max-degree", "24"]) == 0
    out = capsys.readouterr().out
    assert "d^2(w_3/2) = v^2 z_2   [11 -> 20]" in out
    assert "d^3(y_1) = v^3 w_2   [6 -> 19]" in out
    assert "E_2 page, stage r=2:" in out
    assert "final page:" in out


def test_table_shows_paired_p2_arrows(capsys):
    assert main(["table", "--p", "2", "--n", "1", "--max-degree", "18"]) == 0
    out = capsys.readouterr().out
    assert "d^2(y_1) = v^2 w_2   [4 -> 9]" in out
    assert "d^2(y_1 w_2) = v^2 z_3   [13 -> 18]" in out


def test_table_homology_arrows_descend(capsys):
    assert main([
        "table", "--p", "3", "--n", "1", "--variance", "homology", "--max-degree", "24",
    ]) == 0
    assert "d_2(z_2*) = v^2 w_3/2*   [20 -> 11]" in capsys.readouterr().out


def test_table_window_below_first_differential(capsys):
    assert main(["table", "--p", "3", "--n", "1", "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "no differentials reach the window" in out


@pytest.mark.parametrize("p, variance, top", [
    (3, "cohomology", 4), (3, "homology", 4), (7, "cohomology", 5), (7, "homology", 5),
    (2, "homology", 2),
])
def test_table_draws_no_stage_of_a_nonempty_schedule(capsys, p, variance, top):
    """The windows pinned in STDOUT_SHA256 as drawing no stage do have a
    schedule: its stages all lie above the window, and table draws one grid."""
    assert ss_engine.window_schedule(p, 1, variance, top)
    assert main(["table", "--p", str(p), "--n", "1", "--variance", variance,
                 "--max-degree", str(top)]) == 0
    out = capsys.readouterr().out
    assert "no differentials reach the window" in out
    assert out.count("left to right") == 1 and "stage r=" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--p", "3", "--n", "1", "--max-degree", "120", "--format", "json"],
        ["compute", "--p", "2", "--n", "2", "--max-degree", "90", "--format", "json"],
        ["compute", "--p", "2", "--n", "2", "--max-degree", "90",
         "--variance", "homology", "--format", "json"],
        ["table", "--p", "3", "--n", "1", "--max-degree", "60"],
        ["table", "--p", "2", "--n", "2", "--max-degree", "90"],
    ],
)
def test_answer_path_runs_no_linear_algebra(capsys, monkeypatch, argv):
    """compute and table read everything off closed-form series: with the
    F_p rank route disabled they print exactly what they print without."""
    assert main(argv) == 0
    want = capsys.readouterr().out

    def forbidden(*args, **kwargs):
        raise AssertionError("F_p linear algebra on the answer path")

    for name in ("qn_homology", "rref_modp", "nullspace_modp", "rank_modp", "_qn_block"):
        monkeypatch.setattr(cli.km2, name, forbidden)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == want


SRC = Path(__file__).resolve().parents[1] / "src"
# runs the CLI on argv[2:]; argv[1] == "block" first makes `import numpy`
# raise, and the last stderr line says whether numpy was loaded.  With
# argv[1] == "count" the line before it names each collections.namedtuple
# and eval call made while morava_k2.cli is imported, and says whether the
# run loaded array
_CLI_SCRIPT = """
import builtins, collections, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
made, real = [], (collections.namedtuple, builtins.eval)
if sys.argv[1] == "count":
    collections.namedtuple = lambda *a, **k: made.append("namedtuple") or real[0](*a, **k)
    builtins.eval = lambda *a: made.append("eval") or real[1](*a)
from morava_k2.cli import main
collections.namedtuple, builtins.eval = real
code = main(sys.argv[2:])
if sys.argv[1] == "count":
    print("import made:", *made, "| array loaded:", "array" in sys.modules, file=sys.stderr)
print("numpy loaded:", sys.modules.get("numpy") is not None, file=sys.stderr)
sys.exit(code)
"""


# a child's environment: the package from SRC, and stdout block-buffered as
# a user's pipe is, so that what reaches the pipe last rests on run()'s flush
_CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
_CHILD_ENV["PYTHONPATH"] = str(SRC)


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=_CHILD_ENV, timeout=120
    )


def _cli_subprocess(argv, block_numpy):
    return _python("-c", _CLI_SCRIPT, "block" if block_numpy else "allow", *argv)


def _cli_into_closed_pipe(argv, env=_CHILD_ENV):
    """`python -m morava_k2.cli argv` with stdout a pipe whose reader has
    already closed it."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "morava_k2.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)


def test_closed_stdout_exits_141_without_traceback():
    """A reader that closes stdout before the output is written (as
    `compute ... | head -1` can) gets exit 141, 128 + SIGPIPE, and an empty
    stderr: no traceback and no "Exception ignored" line."""
    done = _cli_into_closed_pipe(
        ["compute", "--p", "3", "--n", "1", "--max-degree", "60", "--format", "tsv"]
    )
    assert done.stderr == b""
    assert done.returncode == 141


# runs `cli.run()` on argv[1:] after the plant, a line that may monkeypatch
# the package and register an exit handler; run() never returns
_RUN_SCRIPT = """
import atexit, os
from morava_k2 import cli
{plant}
cli.run()
"""
_ATEXIT = "atexit.register(os.write, 2, b'atexit ran\\n')"


def _run_cli(argv, plant=""):
    return _python("-c", _RUN_SCRIPT.format(plant=plant), *argv)


def test_closed_stdout_after_help_exits_141():
    """--help into a closed stdout exits 141 with an empty stderr, buffered
    or not: buffered, the write fails in run()'s own flush; unbuffered
    (PYTHONUNBUFFERED=1), in the print inside main, which handles it as it
    does a command's."""
    for env in (_CHILD_ENV, dict(_CHILD_ENV, PYTHONUNBUFFERED="1")):
        done = _cli_into_closed_pipe(["--help"], env)
        assert (done.returncode, done.stderr) == (141, b""), env.get("PYTHONUNBUFFERED")


def test_output_larger_than_a_pipe_buffer_arrives_whole(capsys):
    """Nothing is lost to os._exit (main flushes stdout after a command and
    run() again): 1.3 MB, many pipe buffers, arrives as the bytes main
    prints in-process."""
    argv = ["table", "--p", "3", "--n", "1", "--max-degree", "9000"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    assert len(want) > 16 * 65536
    done = _python("-m", "morava_k2.cli", *argv)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == want


_PLANTED_EXITS = [
    (
        "",
        ["verify", "--suite", "numerology", "--p", "5", "--n", "1", "--j-max", "10"],
        0,
        b"PASS\tnumerology\tstage identities hold through j = 10\n",
        b"",
    ),
    (
        "cli.numerology.identity_suite = lambda p, n, j_max: ['j=3: staged']",
        ["verify", "--suite", "numerology", "--p", "3", "--n", "1"],
        1,
        b"FAIL\tnumerology\tfirst failure: j=3: staged\n",
        b"verification failed in numerology: first failure: j=3: staged\n",
    ),
    (
        "",
        ["verify", "--p", "4", "--n", "1"],
        2,
        b"",
        b"error: p must be prime\n",
    ),
    (
        "def broken(*args):\n    raise AssertionError('planted invariant failure')\n"
        "cli.km2.build = broken",
        ["compute", "--p", "3", "--n", "1", "--max-degree", "40"],
        3,
        b"",
        b"internal consistency failure: planted invariant failure\n",
    ),
]


@pytest.mark.parametrize(
    "plant, argv, code, out, err", _PLANTED_EXITS, ids=[f"exit-{c[2]}" for c in _PLANTED_EXITS]
)
def test_run_keeps_each_exit_code_and_skips_exit_handlers(plant, argv, code, out, err):
    """Through run(), exits 0 to 3 keep main's code, stdout and stderr, and
    an exit handler registered before run() never runs: the process leaves
    through os._exit, not through interpreter teardown."""
    done = _run_cli(argv, plant + "\n" + _ATEXIT)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_an_exception_escaping_main_takes_the_normal_exit():
    """An exception main does not turn into a code leaves run() as it came:
    traceback, exit 1, and the interpreter's teardown with its exit
    handlers."""
    plant = (
        "def broken(cfg, out):\n    raise KeyError('planted')\n"
        f"cli.cmd_compute = broken\n{_ATEXIT}"
    )
    done = _run_cli(["compute", "--p", "3", "--n", "1", "--max-degree", "40"], plant)
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr.startswith(b"Traceback")
    assert done.stderr.endswith(b"KeyError: 'planted'\natexit ran\n")


@pytest.mark.parametrize(
    "argv, code",
    [(["compute", "--p", "3", "--n", "1", "--max-degree", "40"], 0),
     (["verify", "--p", "4", "--n", "1"], 2)],
)
def test_run_with_stderr_closed_exits_with_mains_code(capsys, argv, code):
    """Started with fd 2 closed, the interpreter sets sys.stderr to None;
    run() skips that stream and still exits with main's code, and no error
    line falls back to stdout: stdout holds main's output alone."""
    assert main(argv) == code
    want = capsys.readouterr().out.encode()
    script = "import sys; print(sys.stderr is None, flush=True)\n" + _RUN_SCRIPT.format(plant="")
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" 2>&-', sys.executable, "-c", script, *argv],
        capture_output=True, env=_CHILD_ENV, timeout=120,
    )
    assert done.returncode == code
    assert done.stdout == b"True\n" + want


def test_installed_command_takes_the_fast_exit():
    """The morava-k2 script calls run(), not main, so the installed command
    also skips interpreter teardown."""
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"morava-k2": "morava_k2.cli:run"}


def test_demos_run():
    """Each demo script runs to exit 0, so its imports and its `assert ok`
    checks hold on every tier-1 run."""
    demos = sorted((SRC.parent / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        done = _python(str(demo))
        assert done.returncode == 0, (demo.name, done.stderr.decode())


def test_cli_import_leaves_numpy_unloaded():
    """Neither numpy nor dataclasses (about 40 ms of every CLI run) loads.
    Without site (-S), whose .pth files may import typing themselves,
    neither typing, json, argparse, gettext nor locale loads either, and
    none of them is loaded by a verify, a table or a tsv compute run."""
    done = _python(
        "-c",
        "import sys, morava_k2.cli; print('numpy' in sys.modules, 'dataclasses' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"False False\n"
    absent = ("typing", "json", "argparse", "gettext", "locale")
    done = _python(
        "-S", "-c",
        f"import sys, morava_k2.cli; print([m for m in {absent!r} if m in sys.modules])",
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"[]\n"
    runs = [
        ["verify", "--p", "3", "--n", "1", "--max-degree", "40"],
        ["table", "--p", "3", "--n", "1", "--max-degree", "40"],
        ["compute", "--p", "3", "--n", "1", "--max-degree", "40", "--format", "tsv"],
    ]
    done = _python(
        "-S", "-c",
        "import sys; from morava_k2.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        f"print(codes, [m for m in {absent!r} if m in sys.modules], file=sys.stderr)",
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b"[0, 0, 0] []\n"


_NUMPY_FREE_JOBS = [
    ["compute", "--p", str(p), "--n", str(n), "--variance", variance,
     "--max-degree", str(hi), "--format", "json"]
    for p, n, hi in [(3, 1, 60), (2, 2, 80), (3, 2, 60)]
    for variance in ("cohomology", "homology")
] + [
    ["table", "--p", "3", "--n", "1", "--max-degree", "60"],
    ["table", "--p", "2", "--n", "2", "--max-degree", "120"],
]


@pytest.mark.parametrize("argv", _NUMPY_FREE_JOBS, ids=" ".join)
def test_answer_path_runs_without_numpy(capsys, argv):
    """compute and table print the same bytes when numpy cannot be imported."""
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    done = _cli_subprocess(argv, block_numpy=True)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b"numpy loaded: False\n"
    assert done.stdout == want


_VERIFY_SHAPES = [
    ["verify", "--p", "3", "--n", "1", "--max-degree", "60"],
    ["verify", "--p", "5", "--n", "1", "--max-degree", "60", "--variance", "homology"],
    ["verify", "--p", "2", "--n", "1", "--max-degree", "40"],
    ["verify", "--p", "3", "--n", "2", "--max-degree", "60"],
    ["verify", "--p", "2", "--n", "2", "--max-degree", "60"],
]


@pytest.mark.parametrize("argv", _VERIFY_SHAPES, ids=" ".join)
def test_verify_runs_without_numpy(capsys, argv):
    """verify, all eight suites, prints the same bytes when numpy cannot be
    imported: the rank route and the fold are plain Python."""
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    assert want.count(b"PASS\t") == 8
    done = _cli_subprocess(argv, block_numpy=True)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b"numpy loaded: False\n"
    assert done.stdout == want


@pytest.mark.parametrize(
    "argv, array_loaded",
    [
        (["compute", "--p", "3", "--n", "2", "--max-degree", "60", "--format", "json"], False),
        (["table", "--p", "2", "--n", "2", "--max-degree", "120"], False),
        (["verify", "--p", "3", "--n", "1", "--max-degree", "60"], True),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_cold_start_generates_no_code(argv, array_loaded):
    """Importing morava_k2.cli calls neither collections.namedtuple nor eval:
    every record's constructor is in its module's .pyc.  array is loaded
    only by the fold, so compute and table end without it and verify, whose
    brute route folds, loads it."""
    done = _python("-c", _CLI_SCRIPT, "count", *argv)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr.decode() == (
        f"import made: | array loaded: {array_loaded}\nnumpy loaded: False\n"
    )


_HASH_SEED_JOBS = [
    ["compute", "--p", "3", "--n", "2", "--max-degree", "60", "--format", "json"],
    ["compute", "--p", "2", "--n", "1", "--max-degree", "60", "--variance", "homology",
     "--format", "json"],
    ["table", "--p", "2", "--n", "1", "--max-degree", "60"],
    ["verify", "--p", "3", "--n", "1", "--max-degree", "60"],
]


@pytest.mark.parametrize("argv", _HASH_SEED_JOBS, ids=" ".join)
def test_output_does_not_depend_on_the_hash_seed(argv):
    """compute, table and verify print the same bytes under two string-hash
    seeds: no output follows the iteration order of a set or dict keyed by
    strings."""
    outs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "morava_k2.cli", *argv], capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed), timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        outs.append(done.stdout)
    assert outs[0] == outs[1]

def test_parse_answer_requires_canonical_factor_kinds():
    """A factor_kind must be spelled as Factor.label spells it; "TPbar_03"
    once parsed as TPbar_3.  The refusal names the torsion entry."""
    a = answer.closed_form(3, 1, "cohomology", 30)
    text = json.dumps(cli.serialize_answer(a, answer.poincare_answer(a)))
    for kind in ("TPbar_03", "TPbar_+3", "TPbar_3 ", "GammaTrunc_3", "TPbar_1", "TPbar", "E_2"):
        doc = json.loads(text)
        i, entry = next(
            (i, x)
            for i, f in enumerate(doc["torsion"])
            for x in f["cofactor"]
            if x["factor_kind"] == "TPbar_3"
        )
        entry["factor_kind"] = kind
        words = f"torsion entries disagree with the 3 of the module from entry {i} on"
        with pytest.raises(cli.ConfigError, match=re.escape(words)):
            cli.parse_answer(doc)


def _entries_disagree(key, size, i):
    return f"{key} entries disagree with the {size} of the module from entry {i} on"


def test_parse_answer_rejects_unknown_generator(monkeypatch):
    """Every edit of a compute document is refused, and the refusal names
    the key, and for a list the first entry, where the document leaves the
    one compute writes."""
    a = answer.closed_form(3, 1, "cohomology", 30)
    text = json.dumps(cli.serialize_answer(a, answer.poincare_answer(a)))
    # an unknown name, an unknown factor kind, a degree other than the
    # name's (|v| = -4 at (3, 1)) and a homology name inside a cohomology
    # module
    edits = [
        ("free", "generator", "q_1"),
        ("free", "factor_kind", "Q"),
        ("free", "degree", 4),
        ("torsion", "generator", "y_1*"),
    ]
    for where, key, value in edits:
        doc = json.loads(text)
        entry = doc["free"][0] if where == "free" else doc["torsion"][0]["cofactor"][0]
        entry[key] = value
        size = 1 if where == "free" else 3
        with pytest.raises(cli.ConfigError, match=re.escape(_entries_disagree(where, size, 0))):
            cli.parse_answer(doc)
    # names outside the registry's spelling, in a p = 3 and a p = 2 module
    a2 = answer.closed_form(2, 1, "cohomology", 30)
    text2 = json.dumps(cli.serialize_answer(a2, answer.poincare_answer(a2)))
    for name, p in [
        ("y_1 w_2", 3),  # products name sources only at p = 2
        ("y_3 w_4", 2),  # j = 3 lies past the p = 2 special range
        ("y_1 w_3", 2),  # the product pairs y_j with w_{n+j}
        ("w_1/2", 3),  # w indices start at n
        ("w_4/2", 3),  # w_2 has an even doubled index
        ("y_01", 3),
        ("y_0", 3),
        ("z_0", 3),
        ("v*", 3),
        ("x_1", 3),
    ]:
        doc = json.loads(text if p == 3 else text2)
        doc["free"][0]["generator"] = name
        with pytest.raises(cli.ConfigError, match=re.escape(_entries_disagree("free", 1, 0))):
            cli.parse_answer(doc)
    # the module around the entries: a variance that is neither, a family
    # base no family of that order has, a window the poincare entries do
    # not cover (at top 31 the module has a fourth family), a Z_p count that
    # is not positive, and an edited dimension or family count
    module_edits = [
        (lambda doc: doc.update(variance="sideways"),
         "variance must be cohomology or homology, not 'sideways'"),
        (lambda doc: doc["torsion"][0].update(generator_degree=22),
         _entries_disagree("torsion", 3, 0)),
        (lambda doc: doc.update(window=[0, 31]), _entries_disagree("torsion", 4, 2)),
        (lambda doc: doc["zp_family"][0].update(count=-3), _entries_disagree("zp_family", 23, 0)),
        (lambda doc: doc["poincare"][12].update(dim=2), _entries_disagree("poincare", 31, 12)),
        (lambda doc: doc["torsion"][0].update(count_in_window=3),
         _entries_disagree("torsion", 3, 0)),
    ]
    for edit, words in module_edits:
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(cli.ConfigError, match=re.escape(words)):
            cli.parse_answer(doc)
    # the order-8 family has no generator in the window, so neither a second
    # copy of it nor its loss moves a poincare entry or a count; nor does a
    # Z_p entry above the window top or a second P[v].  Each part must be
    # the module's
    assert [(f["order"], f["count_in_window"]) for f in json.loads(text)["torsion"]][2] == (8, 0)
    for edit, words in [
        (lambda doc: doc["torsion"].append(dict(doc["torsion"][2])),
         "torsion entries disagree with the 3 of the module from entry 3 on"),
        (lambda doc: doc["torsion"].pop(2),
         "torsion entries disagree with the 3 of the module from entry 2 on"),
        (lambda doc: doc["torsion"].insert(0, doc["torsion"].pop(2)),
         "torsion entries disagree with the 3 of the module from entry 0 on"),
        (lambda doc: doc["zp_family"].append({"degree": 45, "count": 1}),
         "zp_family entries disagree with the 23 of the module from entry 23 on"),
        (lambda doc: doc["free"].append(dict(doc["free"][0])),
         "free entries disagree with the 1 of the module from entry 1 on"),
        # a localized module has no family
        (lambda doc: doc.update(localized=True),
         "torsion entries disagree with the 0 of the module from entry 0 on"),
        # keys and values compute never writes: JSON false is not 0, 1.0
        # is not 1
        (lambda doc: doc.update(names_nominal=False),
         "answer key 'names_nominal' must be true, not false"),
        (lambda doc: doc.update(comment="edited"), "answer key 'comment' is not one compute writes"),
        (lambda doc: doc["torsion"][2].update(count_in_window=False),
         _entries_disagree("torsion", 3, 2)),
        (lambda doc: doc["poincare"][4].update(dim=1.0), _entries_disagree("poincare", 31, 4)),
        (lambda doc: doc["zp_family"][5].update(note=None), _entries_disagree("zp_family", 23, 5)),
    ]:
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(cli.ConfigError, match=re.escape(words)):
            cli.parse_answer(doc)
    # a key missing or of the wrong JSON type is a ConfigError, not a KeyError
    # or TypeError
    for edit, words in [
        (lambda doc: doc.update(p="3"), "answer key 'p' must be a JSON integer, not \"3\""),
        (lambda doc: doc.pop("n"), "answer has no key 'n'"),
        (lambda doc: doc.update(window=[0, 15, 30]), "window must be a pair [lo, hi], not [0, 15, 30]"),
        (lambda doc: doc.update(window=30), "answer key 'window' must be a JSON array, not 30"),
        (lambda doc: doc.update(window=[0, 30.0]), "a window bound must be a JSON integer, not 30.0"),
        (lambda doc: doc.update(localized=0), "answer key 'localized' must be a JSON boolean, not 0"),
        (lambda doc: doc.pop("free"), "answer has no key 'free'"),
        (lambda doc: doc.update(torsion={}), "answer key 'torsion' must be a JSON array, not {}"),
        (lambda doc: doc["poincare"][3].pop("dim"), _entries_disagree("poincare", 31, 3)),
        (lambda doc: doc["zp_family"].append(7), _entries_disagree("zp_family", 23, 23)),
        (lambda doc: doc["torsion"][1].update(order=True), _entries_disagree("torsion", 3, 1)),
        (lambda doc: doc["free"][0].update(degree="-4"), _entries_disagree("free", 1, 0)),
        (lambda doc: doc["free"].append([]), _entries_disagree("free", 1, 1)),
    ]:
        doc = json.loads(text)
        edit(doc)
        with pytest.raises(cli.ConfigError, match=re.escape(words)):
            cli.parse_answer(doc)
    with pytest.raises(cli.ConfigError, match="an answer must be a JSON object"):
        cli.parse_answer([])
    # a huge stated window is refused before any module or series is
    # recomputed, and so are a p that is not prime, an n below 1 and a
    # window top below 2, which closed_form refuses with a ValueError

    def forbidden(*args, **kwargs):
        raise AssertionError("module recomputed for a document the checks refuse")

    monkeypatch.setattr(answer, "closed_form", forbidden)
    monkeypatch.setattr(answer, "poincare_answer", forbidden)
    doc = json.loads(text)
    doc["window"] = [0, 10**9]
    words = "the window [0, 1000000000] spans 1000000000 degrees, over the limit of 10000"
    with pytest.raises(cli.ConfigError, match=re.escape(words)):
        cli.parse_answer(doc)
    for key, value, words in [
        ("p", 4, "p must be prime"),
        ("n", 0, "n must be a positive integer"),
        ("window", [0, 1], "window top 1 is below 2"),
    ]:
        doc = json.loads(text)
        doc[key] = value
        with pytest.raises(cli.ConfigError, match=re.escape(words)):
            cli.parse_answer(doc)
    # so is a window whose bottom lies above its top, even with no entries
    doc = json.loads(text)
    doc.update(window=[31, 30], poincare=[])
    with pytest.raises(cli.ConfigError, match=re.escape("window [31, 30] is empty")):
        cli.parse_answer(doc)
