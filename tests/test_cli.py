"""End-to-end checks of the command-line interface."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from morava_k2 import answer, cli, km2, ss_engine
from morava_k2.cli import main
from morava_k2.graded_algebra import replace


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


# The same guard per full argument list, at a benchmark width and on a
# window that reaches below degree 0.
WIDE_COMPUTE_JSON_SHA256 = {
    "compute --p 3 --n 2 --max-degree 900 --variance homology --format json":
        "133367990745aff4c111c362696c010dd6c5c443de2e9ac641b2b8dc69e421a4",
    "compute --p 3 --n 1 --max-degree 120 --min-degree -8 --format json":
        "dffc8356c95780440d4b2988ac3289fde31114eb7c625e21a9df39897b29f5ec",
}


@pytest.mark.parametrize("command", WIDE_COMPUTE_JSON_SHA256)
def test_wide_compute_json_bytes_match_parent(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == WIDE_COMPUTE_JSON_SHA256[command]


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
    assert out.count("left to right") + out.count("(empty grid)") == calls["chart_dims"] > 1
    assert calls["chart_series"] == 0


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
    with pytest.raises(SystemExit) as info:
        main([command, "--p", "3", "--n", "1", "--min-degree", "4", "--max-degree", "60"])
    assert info.value.code == 2
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
    """With Page._towers reading one class too many on every torsion tower,
    the chart of the answer's page no longer counts what poincare_answer
    counts, and compute refuses to print: the two readers share no tower
    arithmetic, and poincare_answer reads the families, never the page."""
    real = ss_engine.Page._towers

    def planted(page):
        return [(g, order + 1, c) for g, order, c in real(page)]

    monkeypatch.setattr(ss_engine.Page, "_towers", planted)
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


def _count_brute_runs(monkeypatch, tamper=lambda page: page):
    calls = []
    real = ss_engine.run_bruteforce

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return tamper(real(*args, **kwargs))

    monkeypatch.setattr(ss_engine, "run_bruteforce", counted)
    return calls


def test_verify_builds_each_brute_page_once(capsys, monkeypatch):
    assert main(VERIFY_31) == 0
    want = capsys.readouterr().out
    calls = _count_brute_runs(monkeypatch)
    assert main(VERIFY_31) == 0
    assert capsys.readouterr().out == want
    assert len(calls) == 2  # one per variance, shared by oracle, pairing and uct


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
    """verify --p 2 --n 1 at window 4000 would sweep 1.6e6 monomials: the
    qn and e2 suites, which fold no lattice, are refused with exit 2,
    naming the figure, before any Q_n block is built."""

    def no_block(*args, **kwargs):
        raise AssertionError("a Q_n block was built")

    monkeypatch.setattr(km2, "_TRIVIAL_MEMO", {})
    monkeypatch.setattr(km2, "_qn_block", no_block)
    assert km2.sweep_monomials(2, 1, 4000, 10**9) == 1604786
    # the count stops at the first component that passes the cap
    monomials = km2.sweep_monomials(2, 1, 4000, cli._SWEEP_CAP)
    assert monomials > cli._SWEEP_CAP
    assert main(["verify", "--p", "2", "--n", "1", "--max-degree", "4000", "--suite", suite]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f" {monomials} monomials" in captured.err


def test_sweep_cap_passes_the_default_windows():
    """The cap leaves verify the default windows with n <= 3 at small p,
    the largest with n <= 2 ((2, 2), 3.5e5 monomials), p = 199 at n <= 2,
    and n = 3 up to p = 67 (9.2e5), and so every narrower window too: a
    narrower window sweeps a subset of the monomials.  (71, 3) would sweep
    1.1e6."""
    cases = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in (1, 2, 3)]
    for p, n in cases + [(199, 1), (199, 2), (67, 3)]:
        count = km2.sweep_monomials(p, n, km2.default_window(n), cli._SWEEP_CAP)
        assert count <= cli._SWEEP_CAP, (p, n, count)
    assert km2.sweep_monomials(2, 2, 2500, cli._SWEEP_CAP) == 346772
    assert km2.sweep_monomials(71, 3, 2500, cli._SWEEP_CAP) > cli._SWEEP_CAP


def test_verify_builds_each_qn_block_once(capsys, monkeypatch):
    """One verify run sweeps the Q_n blocks once: the qn suite builds them,
    and e2 and both brute-force pages read its ranks."""
    built = Counter()
    real = km2._qn_block

    def counted(ctx, src, tgt):
        built[tuple(g.name for g in ctx.gens), ctx.degree(src[0])] += 1
        return real(ctx, src, tgt)

    monkeypatch.setattr(km2, "_TRIVIAL_MEMO", {})
    monkeypatch.setattr(km2, "_qn_block", counted)
    assert main(["verify", "--p", "3", "--n", "2", "--max-degree", "300"]) == 0
    assert built and max(built.values()) == 1


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
    with pytest.raises(SystemExit):
        main(["compute", "--format", "xml"])
    capsys.readouterr()
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
    with pytest.raises(SystemExit) as info:
        main(argv + flag)
    assert info.value.code == 2
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
# raise, and the last stderr line says whether numpy was loaded
_CLI_SCRIPT = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from morava_k2.cli import main
code = main(sys.argv[2:])
print("numpy loaded:", sys.modules.get("numpy") is not None, file=sys.stderr)
sys.exit(code)
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def _cli_subprocess(argv, block_numpy):
    return _python("-c", _CLI_SCRIPT, "block" if block_numpy else "allow", *argv)


def test_closed_stdout_exits_141_without_traceback():
    """A reader that closes stdout before the output is written (as
    `compute ... | head -1` can) gets exit 141, 128 + SIGPIPE, and an empty
    stderr: no traceback and no "Exception ignored" line."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "morava_k2.cli", "compute", "--p", "3", "--n", "1",
             "--max-degree", "60", "--format", "tsv"],
            stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 141


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
    neither typing nor json loads either, and json stays out through a
    verify, a table and a tsv compute run."""
    done = _python(
        "-c",
        "import sys, morava_k2.cli; print('numpy' in sys.modules, 'dataclasses' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"False False\n"
    done = _python(
        "-S", "-c",
        "import sys, morava_k2.cli; print('typing' in sys.modules, 'json' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"False False\n"
    runs = [
        ["verify", "--p", "3", "--n", "1", "--max-degree", "40"],
        ["table", "--p", "3", "--n", "1", "--max-degree", "40"],
        ["compute", "--p", "3", "--n", "1", "--max-degree", "40", "--format", "tsv"],
    ]
    done = _python(
        "-S", "-c",
        "import sys; from morava_k2.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "print(codes, 'json' in sys.modules, file=sys.stderr)",
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b"[0, 0, 0] False\n"


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
    once parsed as TPbar_3."""
    a = answer.closed_form(3, 1, "cohomology", 30)
    text = json.dumps(cli.serialize_answer(a, answer.poincare_answer(a)))
    for kind in ("TPbar_03", "TPbar_+3", "TPbar_3 ", "GammaTrunc_3", "TPbar_1", "TPbar", "E_2"):
        doc = json.loads(text)
        entry = next(
            x for f in doc["torsion"] for x in f["cofactor"] if x["factor_kind"] == "TPbar_3"
        )
        entry["factor_kind"] = kind
        with pytest.raises(cli.ConfigError, match=re.escape(repr(kind))) as info:
            cli.parse_answer(doc)
        assert str(entry) in str(info.value)


def test_parse_answer_rejects_unknown_generator(monkeypatch):
    a = answer.closed_form(3, 1, "cohomology", 30)
    text = json.dumps(cli.serialize_answer(a, answer.poincare_answer(a)))
    # (where, key, value, words of the message): an unknown name, an unknown
    # factor kind, a degree other than the name's (|v| = -4 at (3, 1)) and a
    # homology name inside a cohomology module
    edits = [
        ("free", "generator", "q_1", "'q_1'"),
        ("free", "factor_kind", "Q", "'Q'"),
        ("free", "degree", 4, "v has degree -4, not 4"),
        ("torsion", "generator", "y_1*", "'y_1*'"),
    ]
    for where, key, value, words in edits:
        doc = json.loads(text)
        entry = doc["free"][0] if where == "free" else doc["torsion"][0]["cofactor"][0]
        entry[key] = value
        with pytest.raises(cli.ConfigError, match=re.escape(words)) as info:
            cli.parse_answer(doc)
        assert str(entry) in str(info.value)
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
        words = f"no cohomology generator is named {name!r} at p={p}, n=1"
        with pytest.raises(cli.ConfigError, match=re.escape(words)):
            cli.parse_answer(doc)
    # the module around the entries: a variance that is neither, a window the
    # poincare entries do not cover, a Z_p count that is not positive, a
    # family base no family of that order has, and an edited dimension or
    # family count
    module_edits = [
        (lambda doc: doc.update(variance="sideways"),
         "variance must be cohomology or homology, not 'sideways'"),
        (lambda doc: doc["torsion"][0].update(generator_degree=22),
         "torsion entry 0: no cohomology family at p=3, n=1 has order 2 and base degree 22"),
        (lambda doc: doc.update(window=[0, 31]), "poincare entries do not cover the window [0, 31]"),
        (lambda doc: doc["zp_family"][0].update(count=-3), "Z_p family counts must be positive"),
        (lambda doc: doc["poincare"][12].update(dim=2),
         "poincare entry {'degree': 12, 'dim': 2} disagrees with the module"),
        (lambda doc: doc["torsion"][0].update(count_in_window=3),
         "count_in_window 3 disagrees with the module"),
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
        (lambda doc: doc["poincare"][3].pop("dim"), "poincare entry {'degree': 3} has no key 'dim'"),
        (lambda doc: doc["zp_family"].append(7), "a zp_family entry must be a JSON object, not 7"),
        (lambda doc: doc["torsion"][1].update(order=True), "key 'order' must be a JSON integer, not true"),
        (lambda doc: doc["free"][0].update(degree="-4"), "key 'degree' must be a JSON integer, not \"-4\""),
        (lambda doc: doc["free"].append([]), "a factor must be a JSON object, not []"),
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
    with pytest.raises(cli.ConfigError, match=re.escape("[0, 1000000000]")):
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
