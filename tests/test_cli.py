"""End-to-end checks of the command-line interface."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
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
# same way as the compute bytes above.
STDOUT_SHA256 = {
    ("verify", 3, 1, "cohomology", 60):
        "ddc59a42bcdcda781f1c7be8e4643adecdd8b0599888c8943f0a49382de7a139",
    ("verify", 2, 1, "cohomology", 60):
        "cbe2e5f212b504a7db7173e6851d78649d301aef4553f181ee79eaf8d1786354",
    ("verify", 2, 2, "homology", 100):
        "c518beb51586e4946f50b249e0ccbd6feacb2bb65cebe390bc2c4ccce2391bd6",
    ("table", 3, 1, "cohomology", 40):
        "227b3ace6816fa2b82114f6c5c261c263f9a9581549c4b226e4b86b6ee7b0d13",
    ("table", 2, 2, "cohomology", 90):
        "b9e769416c97299236d2e31cabb193c0d4755d43a6ec7e0949d6ef201acf8760",
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
            ss_engine.Page, name, lambda page, real=real, name=name: calls.update([name]) or real(page)
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
    want = answer.closed_form(p, n, variance, (0, hi))
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
    want = answer.closed_form(p, n, variance, (0, hi))
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
    a = answer.closed_form(3, 2, "homology", (0, 25))
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
    """With ss_engine._tower_powers keeping one class too many on every
    torsion tower, wherever the package binds it, the chart of the answer's
    page no longer counts what poincare_answer counts, and compute refuses
    to print: the two readers share no tower arithmetic."""
    real = ss_engine._tower_powers

    def planted(g, order, dv, lo, hi):
        return real(g, order + 1, dv, lo, hi)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "morava_k2" and vars(module).get("_tower_powers") is real:
            monkeypatch.setattr(module, "_tower_powers", planted)
    a = answer.closed_form(3, 1, "cohomology", (0, 600))
    assert answer.poincare_answer(a).total != answer.to_page(a).chart_series()
    assert main(["compute", "--p", "3", "--n", "1", "--format", "json"]) == 3
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
    """Neither numpy nor dataclasses (about 40 ms of every CLI run) loads."""
    done = _python(
        "-c",
        "import sys, morava_k2.cli; print('numpy' in sys.modules, 'dataclasses' in sys.modules)",
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"False False\n"


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


def test_parse_answer_requires_canonical_factor_kinds():
    """A factor_kind must be spelled as Factor.label spells it; "TPbar_03"
    once parsed as TPbar_3."""
    a = answer.closed_form(3, 1, window=30)
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
    a = answer.closed_form(3, 1, window=30)
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
    # the module around the entries: a variance that is neither, a window the
    # poincare entries do not cover, a Z_p count that is not positive, and an
    # edited dimension or family count
    module_edits = [
        (lambda doc: doc.update(variance="sideways"),
         "variance must be cohomology or homology, not 'sideways'"),
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
    # a huge stated window is refused before any series is recomputed

    def forbidden(*args, **kwargs):
        raise AssertionError("series recomputed for a window the entries do not cover")

    monkeypatch.setattr(answer, "poincare_answer", forbidden)
    doc = json.loads(text)
    doc["window"] = [0, 10**9]
    with pytest.raises(cli.ConfigError, match=re.escape("[0, 1000000000]")):
        cli.parse_answer(doc)
    # so is a window whose bottom lies above its top, even with no entries
    doc = json.loads(text)
    doc.update(window=[31, 30], poincare=[])
    with pytest.raises(cli.ConfigError, match=re.escape("window [31, 30] is empty")):
        cli.parse_answer(doc)
