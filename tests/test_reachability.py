"""Every function and method defined in src/ runs when the commands run.

The commands below run in-process under sys.setprofile on small windows:
compute in each format, with --localize, with a negative --min-degree and
from a --config file; table as a grid, as rows and with no stage drawn;
verify with every suite at p = 2 and at an odd p; --help; and one refused
input, each in both variances where it takes one.  A function that none of
them calls must be named in DECLARED with the reason it stays in src/.
test_unused_names.py keeps what a trace cannot see: unread imports and
module-level names.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

import morava_k2
from morava_k2.cli import main

from helpers import clear_caches

SRC = Path(morava_k2.__file__).resolve().parent

_W_ELEMENTS = "the w-elements: criterion 2 and the qn_homology_tour demo"
_RECORD_API = "named-tuple API of every record, which the tests read"

# "module.qualname" of each function no traced command runs: why it stays.
DECLARED = {
    "cli.parse_answer": "public API: reads back the document compute --format json writes",
    "cli.parse_answer.<locals>.dump": "parse_answer's",
    "cli._field": "parse_answer's key reader",
    "cli.run": "public API: the installed command, which leaves through os._exit",
    "graded_algebra.PoincareSeries.mul": "a target of perfbench/tracer.py",
    "graded_algebra.Record.__init_subclass__": "runs at import, as each record class is made",
    "graded_algebra.Record.__getnewargs__": _RECORD_API,
    "graded_algebra.Record.__repr__": _RECORD_API,
    "graded_algebra.Record._make": _RECORD_API,
    "graded_algebra.Record._replace": _RECORD_API,
    "km2.nullspace_modp": "a target of perfbench/tracer.py",
    "km2.QnHomologyReport.trivial_series": "criterion 3 and the qn_homology_tour demo",
    "km2.DerivationContext._square_slot": "failure only: a square beyond the window",
    "numerology.IdentityFailure.__new__": "failure only: a schedule identity that fails",
    "ss_engine._first_difference": "failure only: where two pages disagree",
    "ss_engine.advisory_scan": "criterion 8",
    "ss_engine.advisory_scan.<locals>.add": "advisory_scan's",
    "km2.DerivationContext.degree": _W_ELEMENTS,
    "km2.DerivationContext.mul_poly": _W_ELEMENTS,
    "km2.DerivationContext.qn_poly": _W_ELEMENTS,
    "km2.WElement.__new__": _W_ELEMENTS,
    "km2.WFactory.__init__": _W_ELEMENTS,
    "km2.WFactory._mono": _W_ELEMENTS,
    "km2.WFactory.element": _W_ELEMENTS,
    "km2.WFactory.w_half_poly": _W_ELEMENTS,
    "km2.WFactory.w_poly": _W_ELEMENTS,
    "km2._poly_add": _W_ELEMENTS,
    "km2.w_elements": _W_ELEMENTS,
}


def _runs(config: Path) -> list[tuple[list[str], int]]:
    """(argv, exit code) of each traced command."""
    runs = [
        (["compute", "--p", "3", "--n", "1", "--max-degree", "40"], 0),
        (["compute", "--p", "2", "--n", "2", "--max-degree", "40", "--format", "tsv"], 0),
        (["compute", "--p", "3", "--n", "2", "--max-degree", "40", "--format", "json",
          "--localize"], 0),
        (["compute", "--p", "3", "--n", "1", "--max-degree", "30", "--min-degree", "-8",
          "--variance", "homology"], 0),
        (["compute", "--config", str(config)], 0),
        (["verify", "--p", "4"], 2),
        (["table", "--help"], 0),
    ]
    for variance in ("cohomology", "homology"):
        v = ["--variance", variance]
        runs += [
            (["table", "--p", "3", "--n", "1", "--max-degree", "30"] + v, 0),
            (["table", "--p", "2", "--n", "2", "--max-degree", "120"] + v, 0),
            (["table", "--p", "3", "--n", "1", "--max-degree", "4"] + v, 0),
            (["verify", "--p", "2", "--n", "1", "--max-degree", "40"] + v, 0),
            (["verify", "--p", "3", "--n", "1", "--max-degree", "40"] + v, 0),
        ]
    return runs


def _defined(path: str, source: str) -> dict[tuple, str]:
    """(file, first line, name) -> "module.qualname" of each function and
    method that source defines, nested ones included; lambdas,
    comprehensions and class bodies are not functions here."""
    out = {}
    module = Path(path).stem

    def walk(code: types.CodeType, qualname: str, in_class: bool) -> None:
        for c in code.co_consts:
            if not isinstance(c, types.CodeType) or c.co_name.startswith("<"):
                continue
            is_function = bool(c.co_flags & 0x2)  # CO_NEWLOCALS: a class body has none
            if not qualname:
                name = c.co_name
            elif in_class:
                name = f"{qualname}.{c.co_name}"
            else:
                name = f"{qualname}.<locals>.{c.co_name}"
            if is_function:
                out[(c.co_filename, c.co_firstlineno, c.co_name)] = f"{module}.{name}"
            walk(c, name, not is_function)

    walk(compile(source, path, "exec"), "", False)
    return out


def _sources() -> dict[str, str]:
    """Each package module's file, as its code objects name it, to its source."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        name = "morava_k2" if path.stem == "__init__" else f"morava_k2.{path.stem}"
        out[importlib.import_module(name).__file__] = path.read_text()
    return out


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    """(file, first line, name) of every function the traced commands call."""
    config = tmp_path_factory.mktemp("reach") / "config.json"
    config.write_text('{"p": 2, "n": 1, "max_degree": 30, "format": "tsv"}')
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            c = frame.f_code
            seen.add((c.co_filename, c.co_firstlineno, c.co_name))

    runs = _runs(config)
    # the package's caches may hold what earlier tests computed: empty
    # them, so that each command computes everything it reads
    clear_caches()
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv, _code in runs]
    finally:
        sys.setprofile(before)
    assert codes == [code for _argv, code in runs]
    return seen


def _unreached(sources: dict[str, str], called: set) -> list[str]:
    return sorted(
        name
        for path, source in sources.items()
        for key, name in _defined(path, source).items()
        if key not in called
    )


def test_every_function_runs_or_is_declared(called):
    unreached = _unreached(_sources(), called)
    assert [name for name in unreached if name not in DECLARED] == []
    # a declared function that runs, or no longer exists, leaves the list
    assert sorted(DECLARED) == [name for name in unreached if name in DECLARED]


def test_a_planted_function_nothing_calls_is_found(called):
    """A function, and a method, appended to a module and never called are
    reported, and nothing else is."""
    sources = _sources()
    path = next(p for p in sources if Path(p).stem == "ss_engine")
    sources[path] += (
        "\n\ndef _planted():\n    pass\n\n\nclass _Plant:\n    def m(self):\n        pass\n"
    )
    unreached = _unreached(sources, called)
    assert [name for name in unreached if name not in DECLARED] == [
        "ss_engine._Plant.m",
        "ss_engine._planted",
    ]
