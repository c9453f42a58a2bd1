"""Run one morava-k2 CLI job with spans recorded around each layer's entry points.

    python3 perfbench/tracer.py SPANS_FILE JOB_ID CLI_ARG...

The program is not edited: each callable in TARGETS is wrapped at every module
attribute of the package that binds it (methods at their class).  Each call
records a span (id, parent id, name, start, end, work, key); spans stay in
memory and are written to SPANS_FILE as JSON when the job ends.  `work` is the
per-call count named in WORK, `key` the argument tuple for callables whose
distinct calls are counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

TARGETS = {
    "graded_algebra": ("PoincareSeries.mul", "TensorExpression.poincare"),
    "km2": ("qn_homology", "rref_modp", "nullspace_modp", "total_dims", "qn_square_check"),
    "ss_engine": (
        "run_bruteforce",
        "run_closed_form",
        "e2_closed_form",
        "zp_family_counts",
        "Page.chart_dims",
        "oracle_match",
        "pairing_check",
        "uct_matches",
    ),
    "answer": ("closed_form", "poincare_answer", "to_page", "bockstein_check"),
    "numerology": ("identity_suite",),
    "cli": ("serialize_answer", "cmd_compute", "cmd_verify", "cmd_table"),
}

# Per-call work counts, computed from (args, result).
WORK = {
    # Σ len × len of the operands' coefficient tuples.
    "graded_algebra.PoincareSeries.mul": lambda a, r: len(a[0].dims) * len(a[1].dims),
    # Σ rows × cols of the input matrix.
    "km2.rref_modp": lambda a, r: math.prod(a[0].shape),
    "km2.nullspace_modp": lambda a, r: math.prod(a[0].shape),
    # Σ of the returned per-degree dimensions.
    "km2.total_dims": lambda a, r: sum(r),
    # Number of tower summands on the returned page.
    "ss_engine.run_bruteforce": lambda a, r: len(r.torsion),
}

# Callables whose distinct argument tuples (defaults applied) are counted.
KEYED = ("km2.qn_homology",)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        sig = inspect.signature(fn) if name in KEYED else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            key = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = repr(tuple(bound.arguments.values()))
            spans.append(
                (sid, parent, name, t0, t1, work(args, result) if work else None, key)
            )
            return result

        return traced


def install(rec: Recorder) -> None:
    """Wrap every target at each module attribute that binds it."""
    importlib.import_module("morava_k2.cli")
    modules = [m for k, m in sys.modules.items() if k == "morava_k2" or k.startswith("morava_k2.")]
    for modname, quals in TARGETS.items():
        mod = sys.modules[f"morava_k2.{modname}"]
        for qual in quals:
            name = f"{modname}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, rec.wrap(name, cls.__dict__[attr]))
                continue
            orig = getattr(mod, qual)
            traced = rec.wrap(name, orig)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, traced)


def main(argv: list[str]) -> int:
    spans_file, job_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder()
    install(rec)
    from morava_k2 import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump({"job": job_id, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
