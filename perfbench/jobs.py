"""Workload job lists and the output check applied to every job.

Each job is one `python -m morava_k2.cli ...` invocation.  The job set of a
workload is fixed; the benchmark seed only permutes job order within a pass.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS: dict[str, tuple[str, list[list[str]]]] = {
    "answer": (
        "compute --format json: the answer a user waits for, mixing p=2 with "
        "odd p, n=1 with n=2, both variances and wide windows",
        [
            ["compute", "--p", "3", "--n", "1", "--format", "json"],
            ["compute", "--p", "5", "--n", "1", "--variance", "homology", "--format", "json"],
            ["compute", "--p", "2", "--n", "1", "--format", "json"],
            ["compute", "--p", "3", "--n", "2", "--max-degree", "900",
             "--variance", "homology", "--format", "json"],
            ["compute", "--p", "2", "--n", "2", "--max-degree", "400", "--format", "json"],
        ],
    ),
    "verify": (
        "verify, all suites at the acceptance windows: the two-route "
        "cross-check the package exists for",
        [
            ["verify", "--p", "3", "--n", "1", "--max-degree", "400"],
            ["verify", "--p", "5", "--n", "1", "--max-degree", "400", "--variance", "homology"],
            ["verify", "--p", "2", "--n", "1", "--max-degree", "300"],
            ["verify", "--p", "3", "--n", "2", "--max-degree", "300"],
            ["verify", "--p", "2", "--n", "2", "--max-degree", "200"],
        ],
    ),
    "chart": (
        "table: the same algebra and closed-form rewrite replayed once per "
        "stage to draw the chart; km2 barely runs",
        [
            ["table", "--p", "3", "--n", "1", "--max-degree", "60"],
            ["table", "--p", "5", "--n", "1", "--max-degree", "600", "--variance", "homology"],
            ["table", "--p", "2", "--n", "2", "--max-degree", "300"],
            ["table", "--p", "3", "--n", "2", "--max-degree", "600"],
        ],
    ),
}

VERIFY_SUITES = 8
_COMPUTE_FIELDS = ("free", "torsion", "zp_family", "poincare")


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def _digest(obj) -> str:
    if isinstance(obj, bytes):
        data = obj
    else:
        data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def fingerprint(argv: list[str], stdout: bytes) -> dict:
    """The parts of a job's stdout that the check compares, in reference form.

    compute: one digest per compared JSON field, so that a key added to the
    JSON object does not count as a failure; verify: the PASS line count;
    table: a digest of the whole stdout.
    """
    if argv[0] == "compute":
        data = json.loads(stdout)
        return {f: _digest(data[f]) for f in _COMPUTE_FIELDS}
    if argv[0] == "verify":
        return {"pass_lines": len(re.findall(rb"^PASS\t", stdout, re.M))}
    return {"stdout": _digest(stdout)}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["jobs"]


def check(argv: list[str], returncode: int, stdout: bytes, reference: dict) -> str | None:
    """None when the job's output is correct, else a one-line reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        got = fingerprint(argv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
    if argv[0] == "verify" and got["pass_lines"] != VERIFY_SUITES:
        return f"{got['pass_lines']} PASS lines, expected {VERIFY_SUITES}"
    want = reference.get(job_key(argv))
    if want is None:
        return "no reference output recorded for this job"
    bad = sorted(k for k in want if got.get(k) != want[k])
    return f"output differs from reference in {', '.join(bad)}" if bad else None
