"""Every callable that perfbench/tracer.py wraps by name resolves in the
package, so renaming or deleting one fails here and not only under
`perfbench/run.py --trace 1`.  The tracer file is loaded by path and not
edited."""

import importlib
import importlib.util
from pathlib import Path

from morava_k2 import ss_engine

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


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
