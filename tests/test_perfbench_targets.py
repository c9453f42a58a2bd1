"""Every callable that perfbench/tracer.py wraps by name resolves in the
package, and its per-call work counts and keys read real results, so
renaming or deleting a target, or changing a record its counts read, fails
here and not only under `perfbench/run.py --trace 1`.  The tracer file is
loaded by path and not edited."""

import importlib
import importlib.util
from pathlib import Path

from morava_k2 import graded_algebra, km2, ss_engine

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets() -> dict[str, tuple[str, ...]]:
    return _tracer().TARGETS


def unresolved(targets: dict[str, tuple[str, ...]]) -> list[str]:
    """'module.qual' of each target that tracer.install could not wrap: a
    plain name must be a callable module attribute, a 'Class.method' an
    entry of the class __dict__ (what install reads)."""
    out = []
    for modname, quals in targets.items():
        mod = importlib.import_module(f"morava_k2.{modname}")
        for qual in quals:
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name, None)
                found = isinstance(cls, type) and attr in cls.__dict__
            else:
                found = callable(getattr(mod, qual, None))
            if not found:
                out.append(f"{modname}.{qual}")
    return out


def test_every_tracer_target_resolves():
    targets = _targets()
    assert "run_closed_form" in targets["ss_engine"]
    assert unresolved(targets) == []


def test_a_removed_tracer_target_is_reported(monkeypatch):
    monkeypatch.delattr(ss_engine, "e2_closed_form")
    monkeypatch.delattr(ss_engine.Page, "chart_dims")
    assert unresolved(_targets()) == ["ss_engine.e2_closed_form", "ss_engine.Page.chart_dims"]


def test_tracer_work_counts_and_keys_read_real_calls():
    """Each WORK count and KEYED key, through the tracer's own wrapper, on
    one real small call of its target."""
    tracer = _tracer()

    def matrix():
        return km2.Matrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]], 3, 3)

    series = graded_algebra.PoincareSeries(0, 2, (1, 1, 2))
    calls = {
        "graded_algebra.PoincareSeries.mul": (graded_algebra.PoincareSeries.mul, (series, series)),
        "km2.rref_modp": (km2.rref_modp, (matrix(), 3)),
        "km2.nullspace_modp": (km2.nullspace_modp, (matrix(), 3)),
        "km2.total_dims": (km2.total_dims, (km2.build(3, 1), 40)),
        "ss_engine.run_bruteforce": (ss_engine.run_bruteforce, (3, 1, "cohomology", 40)),
        "km2.qn_homology": (km2.qn_homology, (3, 1, "cohomology", 40)),
    }
    assert set(tracer.WORK) | set(tracer.KEYED) == set(calls)
    rec = tracer.Recorder()
    results = {name: rec.wrap(name, fn)(*args) for name, (fn, args) in calls.items()}
    spans = {name: (work, key) for _sid, _parent, name, _t0, _t1, work, key in rec.spans}
    page = results["ss_engine.run_bruteforce"]
    assert spans == {
        "graded_algebra.PoincareSeries.mul": (9, None),
        "km2.rref_modp": (9, None),
        "km2.nullspace_modp": (9, None),
        "km2.total_dims": (sum(results["km2.total_dims"]), None),
        "ss_engine.run_bruteforce": (len(page.torsion), None),
        "km2.qn_homology": (None, "(3, 1, 'cohomology', 40)"),
    }
    assert len(page.torsion) > 1 and sum(results["km2.total_dims"]) > 40
