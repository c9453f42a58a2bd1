"""Command-line front end: compute module answers, verify, print charts.

The argv grammar is `<command> (--key value | --key=value | --localize)*`.
Each command takes only the options it reads (see _COMMAND_OPTIONS), as
flags or as the keys of a --config JSON file; any other flag or key is
refused, and _build_config checks flags and keys alike.  -h or --help prints
the usage, read off the same table.

Exit codes: 0 success (--help included), 1 verification failure, 2 invalid
configuration (any ConfigError: a token the argv reader cannot place, an
unknown config key, a bad value, an n over _N_CAP, a j-max over _J_MAX_CAP,
a window over _WINDOW_CAP for compute, table or the verify suites bockstein
and localization, a verify run over _FOLD_WORK_CAP or _SWEEP_CAP; or a
WindowError), 3 internal consistency failure (any other ValueError,
RuntimeError or AssertionError from inside the package), 141 (128 +
SIGPIPE) stdout closed by its reader before the output was written, --help
included.  Diagnostics go through _warn, which drops them when the process
has no stderr.

Reading argv takes no argument-parsing library, so a run loads neither one
nor the gettext and locale it would bring; json loads only where JSON is
read or written: --config, --format json, parse_answer, and the message of
a value of the wrong JSON type.

The process (`morava-k2`, `python -m morava_k2.cli`) ends in run(): it
flushes stdout and stderr and leaves through os._exit, skipping the
interpreter's teardown (a full GC and the freeing of every module and
object, 6-8 ms a process).  So nothing a run does may depend on
finalization: no atexit handler, no __del__ with a side effect, and every
file a run opens (a future --trace FILE included) closed by `with` before
main returns.  main(argv) itself returns its code and is what in-process
callers use.
"""

from __future__ import annotations

import os
import sys

from . import answer, km2, numerology, ss_engine
from .graded_algebra import Factor, Record


class ConfigError(ValueError):
    pass


class RunConfig(Record):
    __slots__ = ()

    def __new__(cls, command, p, n, variance, lo, hi, j_max, fmt, suite, localize):
        return tuple.__new__(cls, (command, p, n, variance, lo, hi, j_max, fmt, suite, localize))


_JSON_TYPE = {int: "integer", str: "string", bool: "boolean", list: "array", dict: "object"}

_SUITES = (
    "numerology",
    "qn",
    "e2",
    "oracle",
    "pairing",
    "uct",
    "bockstein",
    "localization",
)

# The kind of each option's value.  The flag is --key with - for _ (an int
# flag's value converted by int, a bool flag taking no value) and the config
# file key is key itself, holding a JSON value of the kind.
_OPTIONS = {
    "p": int,
    "n": int,
    "variance": str,
    "min_degree": int,
    "max_degree": int,
    "format": str,
    "localize": bool,
    "suite": str,
    "j_max": int,
}

# The values a str option may take.
_CHOICES = {
    "variance": ("cohomology", "homology"),
    "format": ("json", "tsv", "text"),
    "suite": _SUITES + ("all",),
}

# The options each command reads, and no others.
_COMMAND_OPTIONS = {
    "compute": ("p", "n", "variance", "min_degree", "max_degree", "format", "localize"),
    "verify": ("p", "n", "variance", "max_degree", "suite", "j_max"),
    "table": ("p", "n", "variance", "max_degree"),
}


def _usage(command: str | None) -> str:
    """The --help text: every command's flags, or command's alone."""
    commands = [command] if command else list(_COMMAND_OPTIONS)
    lines = [
        f"usage: morava-k2 {command or 'COMMAND'} [--flag VALUE | --flag=VALUE]...",
        "",
        "Connective Morava K-theory of K(Z_p, 2).  Each command reads only the",
        "flags listed for it.  --config FILE reads the same options from a JSON",
        "object, keyed with _ for - (max_degree for --max-degree); a flag wins.",
    ]
    for name in commands:
        lines += ["", f"{name}:"]
        for key in _COMMAND_OPTIONS[name] + ("config",):
            value = "|".join(_CHOICES.get(key, ())) or {int: "INT", bool: "", None: "FILE"}[
                _OPTIONS.get(key)
            ]
            lines.append(f"  --{key.replace('_', '-')} {value}".rstrip())
    return "\n".join(lines)


def _read_argv(argv: list[str]) -> tuple[str, dict]:
    """The command of argv and the flags it gives, keyed as _OPTIONS is,
    with "config" for --config; int values are converted.  A token that fits
    no place in the grammar is refused."""
    if not argv:
        raise ConfigError(f"a command is required: {', '.join(_COMMAND_OPTIONS)}")
    command, tokens = argv[0], iter(argv[1:])
    keys = _COMMAND_OPTIONS.get(command)
    if keys is None:
        raise ConfigError(f"unknown command {command!r}; choose {', '.join(_COMMAND_OPTIONS)}")
    flags, unplaced = {}, []
    for token in tokens:
        name, eq, value = token.partition("=")
        key = name[2:].replace("-", "_")
        kind = _OPTIONS.get(key, str)  # str: the --config path
        placed = name.startswith("--") and "_" not in name and key in keys + ("config",)
        if not placed or (eq and kind is bool):
            unplaced.append(token)
            continue
        if kind is bool:
            value = True
        elif not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise ConfigError(f"{name} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"{name} takes an integer, not {value!r}") from None
        flags[key] = value
    if unplaced:
        raise ConfigError(f"unrecognized arguments: {' '.join(unplaced)}")
    return command, flags


def _typed(value, kind, what: str):
    """value, which must be a JSON value of kind; a bool, though an int
    subclass, does not pass for an integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        import json

        raise ConfigError(f"{what} must be a JSON {_JSON_TYPE[kind]}, not {json.dumps(value)}")
    return value


def _field(obj: dict, key: str, kind, where: str):
    """obj[key], present and a JSON value of kind; where names obj."""
    if key not in obj:
        raise ConfigError(f"{where} has no key {key!r}")
    return _typed(obj[key], kind, f"{where} key {key!r}")


def _check_pn(p: int, n: int) -> None:
    if p >= km2.PRIME_BOUND:
        raise ConfigError(f"p must be below {km2.PRIME_BOUND}, where the primality test is exact")
    if not km2._is_prime(p):
        raise ConfigError("p must be prime")
    if n < 1:
        raise ConfigError("n must be a positive integer")
    if n > _N_CAP:
        raise ConfigError(f"n must be at most {_N_CAP}")


def _check_span(lo: int, hi: int) -> None:
    """Refuse a window [lo, hi] over _WINDOW_CAP: compute's, table's, or the
    verify window of bockstein and localization."""
    if hi - min(lo, 0) > _WINDOW_CAP:
        raise ConfigError(
            f"the window [{min(lo, 0)}, {hi}] spans {hi - min(lo, 0)} degrees, over the limit "
            f"of {_WINDOW_CAP}; narrow it"
        )


def _build_config(command: str, flags: dict) -> RunConfig:
    """The run that command asks for, each option read from flags, else
    from the --config file, else its default; flag and key values pass the
    same checks."""
    keys = _COMMAND_OPTIONS[command]
    data = {}
    if "config" in flags:
        import json

        try:
            with open(flags["config"]) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = next((key for key in data if key not in keys), None)
        if unknown is not None:
            raise ConfigError(f"config key {unknown!r} is not a {command} option")

    def pick(key, default):
        if key in flags:
            return flags[key]
        if key not in data:
            return default
        return _typed(data[key], _OPTIONS[key], f"config key {key!r}")

    p = pick("p", 3)
    n = pick("n", 1)
    _check_pn(p, n)
    variance = pick("variance", "cohomology")
    if variance not in _CHOICES["variance"]:
        raise ConfigError("variance must be cohomology or homology")
    hi = pick("max_degree", km2.default_window(n))
    lo = pick("min_degree", 0)
    if lo > hi:
        raise ConfigError("min-degree exceeds max-degree")
    if hi < 2:
        raise ConfigError("max-degree must be at least 2")
    if command != "verify":
        _check_span(lo, hi)
    j_max = pick("j_max", n + 3)
    if j_max < n + 2:
        raise ConfigError("j-max must be at least n + 2")
    if j_max > _J_MAX_CAP:
        raise ConfigError(f"j-max must be at most {_J_MAX_CAP}")
    fmt = pick("format", "text")
    if fmt not in _CHOICES["format"]:
        raise ConfigError("format must be json, tsv or text")
    suite = pick("suite", "all")
    if suite not in _CHOICES["suite"]:
        raise ConfigError(f"unknown suite {suite!r}")
    localize = pick("localize", False)
    return RunConfig(command, p, n, variance, lo, hi, j_max, fmt, suite, localize)


# ---------------------------------------------------------------------------
# answer serialization


def _factor_dict(f: Factor) -> dict:
    kind = f.label().split("[", 1)[0]
    return {"factor_kind": kind, "generator": f.gen.name, "degree": f.gen.degree}


def serialize_answer(a: answer.AnswerModule, series: answer.AnswerSeries) -> dict:
    """The JSON form of a, with series = poincare_answer(a, window) supplying
    the window, the poincare entries on it and each family's count."""
    torsion = [
        {
            "order": f.order,
            "generator_degree": f.base_degree,
            "cofactor": [_factor_dict(x) for x in f.expression.factors],
            "count_in_window": count,
        }
        for f, count in zip(a.torsion_families, series.family_counts)
    ]
    total = series.total
    return {
        "p": a.p,
        "n": a.n,
        "variance": a.variance,
        "window": [total.lo, total.hi],
        "free": [_factor_dict(x) for x in a.free_part.factors],
        "torsion": torsion,
        "zp_family": [{"degree": d, "count": c} for d, c in a.zp_family],
        "poincare": [{"degree": d, "dim": c} for d, c in enumerate(total.dims, total.lo)],
        "names_nominal": True,
        "localized": a.localized,
    }


def parse_answer(data: dict) -> answer.AnswerModule:
    """The module of a document that compute --format json writes, which
    is refused with a ConfigError unless it is exactly that document.

    The header (p, n, variance, window, localized) is checked before
    anything is recomputed.  Then the module is computed on [0, window top],
    localized if the document says so, and serialize_answer of it on the
    window must hold the same JSON value in every key, and no other key.
    """
    import json

    _typed(data, dict, "an answer")
    p, n = _field(data, "p", int, "answer"), _field(data, "n", int, "answer")
    variance = _field(data, "variance", str, "answer")
    window = _field(data, "window", list, "answer")
    if len(window) != 2:
        raise ConfigError(f"window must be a pair [lo, hi], not {json.dumps(window)}")
    lo, hi = (_typed(x, int, "a window bound") for x in window)
    localized = _field(data, "localized", bool, "answer")
    # before anything is recomputed, so that a huge stated window costs
    # nothing and closed_form meets no p, n or top it refuses
    if variance not in _CHOICES["variance"]:
        raise ConfigError(f"variance must be cohomology or homology, not {variance!r}")
    _check_pn(p, n)
    if hi < 2:
        raise ConfigError(f"window top {hi} is below 2")
    if lo > hi:
        raise ConfigError(f"window [{lo}, {hi}] is empty")
    _check_span(lo, hi)

    a = answer.closed_form(p, n, variance, hi)
    if localized:
        a = answer.localize(a)
    want = serialize_answer(a, answer.poincare_answer(a, (lo, hi)))
    extra = next((key for key in data if key not in want), None)
    if extra is not None:
        raise ConfigError(f"answer key {extra!r} is not one compute writes")

    def dump(value) -> str:
        return json.dumps(value, sort_keys=True)

    for key, value in want.items():
        got = _field(data, key, type(value), "answer")
        if dump(got) == dump(value):
            continue
        if not isinstance(value, list):
            raise ConfigError(f"answer key {key!r} must be {dump(value)}, not {dump(got)}")
        pairs = enumerate(zip(got, value))
        i = next((i for i, (x, y) in pairs if dump(x) != dump(y)), min(len(got), len(value)))
        raise ConfigError(
            f"{key} entries disagree with the {len(value)} of the module from entry {i} on"
        )
    return a


# ---------------------------------------------------------------------------
# commands


def cmd_compute(cfg: RunConfig, out) -> int:
    a = answer.closed_form(cfg.p, cfg.n, cfg.variance, cfg.hi)
    if cfg.localize:
        a = answer.localize(a)
    series = answer.poincare_answer(a, (cfg.lo, cfg.hi))
    if series.total != answer.to_page(a).chart_series(cfg.lo, cfg.hi):
        _warn("internal consistency failure: series readers disagree")
        return 3
    if cfg.fmt == "json":
        import json

        print(json.dumps(serialize_answer(a, series)), file=out)
    elif cfg.fmt == "tsv":
        print("degree\tdim", file=out)
        for d in range(cfg.lo, cfg.hi + 1):
            print(f"{d}\t{series.total.dim(d)}", file=out)
    else:
        name = "k(n)_*" if cfg.variance == "homology" else "k(n)^*"
        print(
            f"{name}(K_2) at p={cfg.p}, n={cfg.n} on [{cfg.lo}, {cfg.hi}]"
            + (" after inverting v" if a.localized else ""),
            file=out,
        )
        print(f"free part: {a.free_part.label()}", file=out)
        for f in a.torsion_families:
            print(
                f"v-torsion of order {f.order} from degree {f.base_degree}: "
                f"{f.expression.label()}",
                file=out,
            )
        zp_total = sum(c for d, c in a.zp_family if d >= cfg.lo)
        print(f"Z_p family: {zp_total} classes in window", file=out)
    return 0


def _run_suite(name: str, cfg: RunConfig, pages: dict):
    """One suite's (ok, detail).  Every result that two suites read is
    built once per run and held in pages: the brute-force page of each
    variance (oracle, pairing, uct), the UCT comparison (pairing, uct) and
    the closed-form module (bockstein, localization)."""
    p, n, variance, hi = cfg.p, cfg.n, cfg.variance, cfg.hi

    def once(key, build, *args):
        if key not in pages:
            pages[key] = build(*args)
        return pages[key]

    def brute(v: str):
        return once(v, ss_engine.run_bruteforce, p, n, v, hi)

    def uct():
        return once("uct", ss_engine.uct_matches, brute("homology"), brute("cohomology"))

    def closed():
        return once("closed", answer.closed_form, p, n, variance, hi)

    if name == "numerology":
        failures = numerology.identity_suite(p, n, cfg.j_max)
        return not failures, (
            f"stage identities hold through j = {cfg.j_max}"
            if not failures
            else f"first failure: {failures[0]}"
        )
    if name == "qn":
        checked, failures = km2.qn_square_check(p, n, hi, mixed_samples=500)
        return not failures, (
            f"Q_n squared to zero on {checked} monomials"
            if not failures
            else f"Q_n^2 != 0 on exponent vector {failures[0]}"
        )
    if name == "e2":
        free = ss_engine.e2_closed_form(p, n, variance, hi).free_by_degree()
        trivial = km2.qn_homology(p, n, variance, hi).trivial
        bad = [d for d in range(hi + 1) if free[d] != trivial[d]]
        return not bad, (
            f"E2 matches the Q_n-homology on [0, {hi}]"
            if not bad
            else f"E2 dimension differs at degree {bad[0]}"
        )
    if name == "oracle":
        rewritten = ss_engine.run_closed_form(p, n, variance, hi)
        return ss_engine.oracle_match(rewritten, brute(variance))
    if name == "pairing":
        return ss_engine.pairing_check(brute("cohomology"), brute("homology"), uct())
    if name == "uct":
        return uct()
    if name == "bockstein":
        return answer.bockstein_check(closed())
    if name == "localization":
        return answer.localization_check(closed())
    raise ConfigError(f"unknown suite {name!r}")


# The most predicted fold work (ss_engine.fold_work, summed over the
# variances whose brute-force pages the chosen suites read) that verify
# takes on; above it the run is refused before any lattice is built.  The
# largest default window with n <= 3 predicts 6.1e5, at (p, n) = (2, 2).
_FOLD_WORK_CAP = 10**6

# The most monomials (km2.sweep_monomials, those of degree <= top) that the
# Q_n sweep of the suites qn, e2, oracle, pairing and uct may enumerate;
# above it the run is refused before any Q_n block is built.  Every default
# window with p < 200 and n <= 4 passes, the largest at (p, n) = (2, 2)
# with 342,893; window 4000 at (2, 1) counts 1.6e6 and is refused.
_SWEEP_CAP = 10**6

# The most degrees, from the lower of 0 and --min-degree up to --max-degree,
# that compute and table take on, and the verify suites bockstein and
# localization, which build their series on [0, top] as compute does; above
# it the run is refused before any series is built.  Each grows linearly in
# the window: at 10^4 the costliest measured, table --p 2 --n 3, takes 1.5 s
# and 40 MB, and at 10^5 table --p 3 --n 2 took 14 s.  Every default window
# (2500 at most) passes.
_WINDOW_CAP = 10**4

# The largest n of every command and of parse_answer.  compute --p 3
# --max-degree 100 took 2.9 s at n = 5000 and exited 3 after 14 s at 10000,
# on Python's 4300-digit int-to-str limit (the label TP_{3^9999}[z_1]), as
# the localization suite did on p^C(n,2) at (p, n) = (11, 100).  At n = 16,
# p^C(n,2) has at most 2943 digits and |v| is past every admitted window.
_N_CAP = 16

# The largest j-max of the numerology suite: at p = 5, n = 1 it took 5.3 s
# at 8000 and 31 s at 16000, and 1.9 s at 500 with n = 16 and the largest p.
_J_MAX_CAP = 500


def _refuse_costly(cfg: RunConfig, names) -> None:
    """Refuse, with a ConfigError naming the figure, a verify run of the
    suites names that would pass one of the caps above, before any series,
    lattice or Q_n block is built."""
    if {"bockstein", "localization"} & set(names):
        _check_span(0, cfg.hi)
    variances = {cfg.variance} if "oracle" in names else set()
    if {"pairing", "uct"} & set(names):
        variances = {"cohomology", "homology"}
    work = sum(ss_engine.fold_work(cfg.p, cfg.n, v, cfg.hi) for v in variances)
    if work > _FOLD_WORK_CAP:
        raise ConfigError(
            f"the brute-force folds on [0, {cfg.hi}] would take {work} units of predicted "
            f"work, over the limit of {_FOLD_WORK_CAP}; lower --max-degree or pick a suite "
            "other than oracle, pairing and uct"
        )
    if {"qn", "e2", "oracle", "pairing", "uct"} & set(names):
        monomials = km2.sweep_monomials(cfg.p, cfg.n, cfg.hi, _SWEEP_CAP)
        if monomials > _SWEEP_CAP:
            raise ConfigError(
                f"the Q_n sweep on [0, {cfg.hi}] would enumerate at least {monomials} "
                f"monomials, over the limit of {_SWEEP_CAP}; lower --max-degree or pick "
                "the suite numerology, bockstein or localization"
            )


def cmd_verify(cfg: RunConfig, out) -> int:
    names = _SUITES if cfg.suite == "all" else (cfg.suite,)
    _refuse_costly(cfg, names)
    first_failure = None
    pages: dict = {}
    for name in names:
        ok, detail = _run_suite(name, cfg, pages)
        print(f"{'PASS' if ok else 'FAIL'}\t{name}\t{detail}", file=out)
        if not ok and first_failure is None:
            first_failure = (name, detail)
    if first_failure:
        _warn(f"verification failed in {first_failure[0]}: {first_failure[1]}")
        return 1
    return 0


def _render_grid(page, out) -> None:
    """The page's (degree, filtration) grid on [0, top], or for a top above
    90 one row of dimensions by degree, read from chart_series."""
    lo, hi = 0, page.top
    if hi - lo > 90:
        row = " ".join(map(str, page.chart_series(lo, hi).dims))
        print(f"window too wide for a grid; dims by degree: {row}", file=out)
        return
    chart = page.chart_dims(lo, hi)  # never empty: the unit's free tower sits at (0, 0)
    smax = max(s for _d, s in chart)
    width = max(len(str(c)) for c in chart.values())
    for s in range(smax, -1, -1):
        cells = [
            str(chart.get((d, s), 0)).rjust(width) if chart.get((d, s)) else "." * width
            for d in range(lo, hi + 1)
        ]
        print(f"s={s:>3} | " + " ".join(cells), file=out)
    print("      +" + "-" * ((width + 1) * (hi - lo + 1)), file=out)
    print(f"        degrees {lo} through {hi}, left to right", file=out)


def cmd_table(cfg: RunConfig, out) -> int:
    arrow = "d^" if cfg.variance == "cohomology" else "d_"
    print(
        f"Adams chart for {cfg.variance} at p={cfg.p}, n={cfg.n}, window [0, {cfg.hi}]",
        file=out,
    )
    drawn = False
    for group, state in ss_engine.rewrite(cfg.p, cfg.n, cfg.variance, cfg.hi):
        entries = [e for e in group if min(e.source_degree, e.target_degree) <= cfg.hi]
        if group and not entries:
            continue  # applied, not drawn: it adds and moves nothing in [0, top]
        if entries:
            print(f"\nE_{group[0].stage} page, stage r={group[0].stage}:", file=out)
        elif drawn:
            print("\nfinal page:", file=out)
        else:
            print("no differentials reach the window; the E2 grid is final", file=out)
        _render_grid(state.snapshot(), out)
        for e in entries:
            print(
                f"  {arrow}{e.stage}({e.source}) = v^{e.stage} {e.target}"
                f"   [{e.source_degree} -> {e.target_degree}]",
                file=out,
            )
        drawn = True
    return 0


def _warn(line: str) -> None:
    """line on stderr; none when the process has no stderr, where print
    would fall back to stdout."""
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            print(_usage(argv[0] if argv[0] in _COMMAND_OPTIONS else None))
            return 0
        cfg = _build_config(*_read_argv(argv))
        command = {"compute": cmd_compute, "verify": cmd_verify, "table": cmd_table}[cfg.command]
        code = command(cfg, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): point stdout at devnull
        # so that a later flush (run()'s, or the interpreter's final one
        # for an in-process caller) has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, km2.WindowError) as exc:
        _warn(f"error: {exc}")
        return 2
    except (ValueError, RuntimeError, AssertionError) as exc:
        _warn(f"internal consistency failure: {exc}")
        return 3
    return code


def run() -> None:
    """main on sys.argv, then the fast exit the module docstring describes.
    An exception that escapes main propagates, so it takes the normal exit
    with a traceback and exit 1."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        code = 141
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
