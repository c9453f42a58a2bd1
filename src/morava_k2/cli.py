"""Command-line front end: compute module answers, verify, print charts.

Each command takes only the options it reads (see _COMMAND_OPTIONS), as
flags or as the keys of a --config JSON file; any other flag or key is refused.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
(an unknown flag or config key, ConfigError, WindowError, a verify run over
_FOLD_WORK_CAP or _SWEEP_CAP), 3 internal consistency failure (any other ValueError,
RuntimeError or AssertionError from inside the package), 141 (128 + SIGPIPE)
stdout closed by its reader before the output was written.

json is imported only where JSON is read or written (--config, --format
json and two error messages), so that verify, table and a text or tsv
compute do not pay for loading it.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from itertools import groupby, zip_longest

from . import answer, km2, numerology, ss_engine
from .graded_algebra import GAMMA, GAMMA_TRUNC, Factor, Generator, TensorExpression


class ConfigError(ValueError):
    pass


class RunConfig(
    namedtuple("RunConfig", "command p n variance lo hi j_max fmt suite localize")
):
    __slots__ = ()


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

# Each option as argparse reads it; the flag is --key with - for _, and the
# config file key is key itself.
_OPTIONS = {
    "p": dict(type=int),
    "n": dict(type=int),
    "variance": dict(choices=("cohomology", "homology")),
    "min_degree": dict(type=int),
    "max_degree": dict(type=int),
    "format": dict(choices=("json", "tsv", "text")),
    "localize": dict(action="store_true", default=None),
    "suite": dict(choices=_SUITES + ("all",)),
    "j_max": dict(type=int),
}

# The options each command reads, and no others.
_COMMAND_OPTIONS = {
    "compute": ("p", "n", "variance", "min_degree", "max_degree", "format", "localize"),
    "verify": ("p", "n", "variance", "max_degree", "suite", "j_max"),
    "table": ("p", "n", "variance", "max_degree"),
}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="morava-k2",
        description="Connective Morava K-theory of K(Z_p, 2).",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, keys in _COMMAND_OPTIONS.items():
        cmd = sub.add_parser(name)
        for key in keys:
            cmd.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key])
        cmd.add_argument("--config", help="JSON file with the same keys; flags win")
    return top


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


def _build_config(args: argparse.Namespace) -> RunConfig:
    keys = _COMMAND_OPTIONS[args.command]
    data = {}
    if args.config:
        import json

        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = next((key for key in data if key not in keys), None)
        if unknown is not None:
            raise ConfigError(f"config key {unknown!r} is not a {args.command} option")

    def pick(key, default, kind=int):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key not in data:
            return default
        return _typed(data[key], kind, f"config key {key!r}")

    p = pick("p", 3)
    n = pick("n", 1)
    _check_pn(p, n)
    variance = pick("variance", "cohomology", str)
    if variance not in ("cohomology", "homology"):
        raise ConfigError("variance must be cohomology or homology")
    hi = pick("max_degree", km2.default_window(n))
    lo = pick("min_degree", 0)
    if lo > hi:
        raise ConfigError("min-degree exceeds max-degree")
    if hi < 2:
        raise ConfigError("max-degree must be at least 2")
    j_max = pick("j_max", n + 3)
    if j_max < n + 2:
        raise ConfigError("j-max must be at least n + 2")
    fmt = pick("format", "text", str)
    if fmt not in ("json", "tsv", "text"):
        raise ConfigError("format must be json, tsv or text")
    suite = pick("suite", "all", str)
    if suite not in _SUITES + ("all",):
        raise ConfigError(f"unknown suite {suite!r}")
    localize = pick("localize", False, bool)
    return RunConfig(args.command, p, n, variance, lo, hi, j_max, fmt, suite, localize)


# ---------------------------------------------------------------------------
# answer serialization


def _factor_dict(f: Factor) -> dict:
    kind = f.label().split("[", 1)[0]
    return {"factor_kind": kind, "generator": f.gen.name, "degree": f.gen.degree}


def _parse_factor(entry: dict, names: dict[str, Generator], ref: answer.AnswerModule) -> Factor:
    """One factor entry of the JSON form, its generator looked up in names,
    the generators of the closed-form module ref by name.  The kind must be
    spelled as Factor.label spells it."""
    where = f"factor {_typed(entry, dict, 'a factor')}"
    kind = _field(entry, "factor_kind", str, where)
    name = _field(entry, "generator", str, where)
    gen = names.get(name)
    if gen is None:
        raise ConfigError(
            f"no {ref.variance} generator is named {name!r} at p={ref.p}, n={ref.n}: {entry}"
        )
    if gen.degree != _field(entry, "degree", int, where):
        raise ConfigError(f"{name} has degree {gen.degree}, not {entry['degree']}: {entry}")
    base, _, height = kind.partition("_")
    try:
        if height:
            f = Factor(GAMMA_TRUNC if base == GAMMA else base, gen, int(height))
        else:
            f = Factor(base, gen)
    except ValueError as exc:
        raise ConfigError(f"bad factor_kind {kind!r} in {entry}: {exc}")
    if f.label() != f"{kind}[{name}]":
        raise ConfigError(f"factor_kind {kind!r} is not canonical (label {f.label()!r}): {entry}")
    return f


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
    """Rebuild an AnswerModule from its JSON form.

    The document's window is the range its poincare entries cover; the
    module itself is computed on [0, window top].  Every key must be
    present with its JSON type.  The free factors, torsion families and
    Z_p entries must be that module's (localized, once the document says
    so), and the poincare entries must agree with poincare_answer of the
    rebuilt module, degree by degree and family by family.
    """

    def entries(key: str, fields: tuple[tuple[str, type], ...]) -> list[dict]:
        """data[key], an array of objects each holding fields."""
        out = _field(data, key, list, "answer")
        for e in out:
            _typed(e, dict, f"a {key} entry")
            for name, kind in fields:
                _field(e, name, kind, f"{key} entry {e}")
        return out

    _typed(data, dict, "an answer")
    p, n = _field(data, "p", int, "answer"), _field(data, "n", int, "answer")
    variance = _field(data, "variance", str, "answer")
    window = _field(data, "window", list, "answer")
    if len(window) != 2:
        import json

        raise ConfigError(f"window must be a pair [lo, hi], not {json.dumps(window)}")
    lo, hi = (_typed(x, int, "a window bound") for x in window)
    localized = _field(data, "localized", bool, "answer")
    poincare = entries("poincare", (("degree", int), ("dim", int)))
    zp_family = entries("zp_family", (("degree", int), ("count", int)))
    torsion = entries(
        "torsion",
        (("order", int), ("generator_degree", int), ("cofactor", list), ("count_in_window", int)),
    )
    free = _field(data, "free", list, "answer")
    # before anything is recomputed, so that a huge stated window costs
    # nothing and closed_form meets no p, n or top it refuses
    if variance not in ("cohomology", "homology"):
        raise ConfigError(f"variance must be cohomology or homology, not {variance!r}")
    _check_pn(p, n)
    if hi < 2:
        raise ConfigError(f"window top {hi} is below 2")
    if lo > hi:
        raise ConfigError(f"window [{lo}, {hi}] is empty")
    if len(poincare) != hi - lo + 1 or any(
        e["degree"] != d for d, e in zip(range(lo, hi + 1), poincare)
    ):
        raise ConfigError(f"poincare entries do not cover the window [{lo}, {hi}] exactly")
    bad_zp = next((e for e in zp_family if e["count"] < 1), None)
    if bad_zp is not None:
        raise ConfigError(f"Z_p family counts must be positive: {bad_zp}")

    # the names and families of the module as the registry builds them
    ref = answer.closed_form(p, n, variance, hi)
    exprs = [ref.free_part] + [f.expression for f in ref.torsion_families]
    names = {x.gen.name: x.gen for e in exprs for x in e.factors}
    identity = {(f.order, f.base_degree): (f.j, f.kind) for f in ref.torsion_families}

    def factors(items: list) -> TensorExpression:
        return TensorExpression(tuple(_parse_factor(x, names, ref) for x in items))

    families = []
    for i, entry in enumerate(torsion):
        order, base = entry["order"], entry["generator_degree"]
        if (order, base) not in identity:
            raise ConfigError(
                f"torsion entry {i}: no {variance} family at p={p}, n={n} has order {order} "
                f"and base degree {base}"
            )
        families.append(
            answer.TorsionFamily(*identity[order, base], order, base, factors(entry["cofactor"]))
        )
    a = answer.AnswerModule(
        p=p,
        n=n,
        variance=variance,
        top=hi,
        free_part=factors(free),
        torsion_families=tuple(families),
        zp_family=tuple((e["degree"], e["count"]) for e in zp_family),
        localized=localized,
    )
    # parts with no generator in the window move no poincare entry or count
    want = answer.localize(ref) if localized else ref
    for key, got, items in (
        ("free", a.free_part.factors, want.free_part.factors),
        ("torsion", a.torsion_families, want.torsion_families),
        ("zp_family", a.zp_family, want.zp_family),
    ):
        if got != items:
            i = next(i for i, (x, y) in enumerate(zip_longest(got, items)) if x != y)
            raise ConfigError(
                f"{key} entries disagree with the {len(items)} of the module from entry {i} on"
            )
    series = answer.poincare_answer(a, (lo, hi))
    bad = next((e for e in poincare if e["dim"] != series.total.dim(e["degree"])), None)
    if bad is not None:
        raise ConfigError(
            f"poincare entry {bad} disagrees with the module, which has dimension "
            f"{series.total.dim(bad['degree'])} there"
        )
    for entry, count in zip(torsion, series.family_counts):
        if entry["count_in_window"] != count:
            raise ConfigError(
                f"count_in_window {entry['count_in_window']} disagrees with the module, "
                f"which has {count} generators in the family of order {entry['order']}"
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
        print("internal consistency failure: series readers disagree", file=sys.stderr)
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


def _brute_page(cfg: RunConfig, pages: dict, variance: str):
    """The brute-force page of cfg in this variance, built at most once and
    shared through pages by the suites of one run."""
    if variance not in pages:
        pages[variance] = ss_engine.run_bruteforce(cfg.p, cfg.n, variance, cfg.hi)
    return pages[variance]


def _run_suite(name: str, cfg: RunConfig, pages: dict):
    p, n, variance, hi = cfg.p, cfg.n, cfg.variance, cfg.hi
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
        page = ss_engine.e2_closed_form(p, n, variance, hi)
        series = ss_engine._without_v(page.v_free).poincare(hi)
        trivial = km2.qn_homology(p, n, variance, hi).trivial_series()
        bad = [d for d in range(hi + 1) if series.dim(d) != trivial.dim(d)]
        return not bad, (
            f"E2 matches the Q_n-homology on [0, {hi}]"
            if not bad
            else f"E2 dimension differs at degree {bad[0]}"
        )
    if name == "oracle":
        closed = ss_engine.run_closed_form(p, n, variance, hi)
        return ss_engine.oracle_match(closed, _brute_page(cfg, pages, variance))
    if name == "pairing":
        return ss_engine.pairing_check(
            _brute_page(cfg, pages, "cohomology"), _brute_page(cfg, pages, "homology")
        )
    if name == "uct":
        return ss_engine.uct_matches(
            _brute_page(cfg, pages, "homology"), _brute_page(cfg, pages, "cohomology")
        )
    if name == "bockstein":
        return answer.bockstein_check(answer.closed_form(p, n, variance, hi))
    if name == "localization":
        return answer.localization_check(answer.closed_form(p, n, variance, hi))
    raise ConfigError(f"unknown suite {name!r}")


# The most predicted fold work (ss_engine.fold_work, summed over the
# variances whose brute-force pages the chosen suites read) that verify
# takes on; above it the run is refused before any lattice is built.  The
# largest default window with n <= 3 predicts 6.1e5, at (p, n) = (2, 2).
_FOLD_WORK_CAP = 10**6

# The most monomials (km2.sweep_monomials) that the Q_n sweep of the suites
# qn, e2, oracle, pairing and uct may enumerate; above it the run is refused
# before any Q_n block is built.  The largest default window with n <= 2
# predicts 3.5e5, at (p, n) = (2, 2); at n = 3 the default windows pass up
# to p = 67 (9.2e5).
_SWEEP_CAP = 10**6


def cmd_verify(cfg: RunConfig, out) -> int:
    names = _SUITES if cfg.suite == "all" else (cfg.suite,)
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
    first_failure = None
    pages: dict = {}
    for name in names:
        ok, detail = _run_suite(name, cfg, pages)
        print(f"{'PASS' if ok else 'FAIL'}\t{name}\t{detail}", file=out)
        if not ok and first_failure is None:
            first_failure = (name, detail)
    if first_failure:
        print(f"verification failed in {first_failure[0]}: {first_failure[1]}", file=sys.stderr)
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
    chart = page.chart_dims(lo, hi)
    if not chart:
        print("(empty grid)", file=out)
        return
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
    full = ss_engine.window_schedule(cfg.p, cfg.n, cfg.variance, cfg.hi)
    sched = [e for e in full if min(e.source_degree, e.target_degree) <= cfg.hi]
    pages = ss_engine.closed_form_pages(cfg.p, cfg.n, cfg.variance, cfg.hi)
    page = next(pages)
    arrow = "d^" if cfg.variance == "cohomology" else "d_"
    print(
        f"Adams chart for {cfg.variance} at p={cfg.p}, n={cfg.n}, window [0, {cfg.hi}]",
        file=out,
    )
    if not sched:
        print("no differentials reach the window; the E2 grid is final", file=out)
        _render_grid(page, out)
        return 0
    for stage, group in groupby(sched, key=lambda e: e.stage):
        entries = list(group)
        print(f"\nE_{stage} page, stage r={stage}:", file=out)
        _render_grid(page, out)
        for e in entries:
            print(
                f"  {arrow}{stage}({e.source}) = v^{stage} {e.target}"
                f"   [{e.source_degree} -> {e.target_degree}]",
                file=out,
            )
        # every scheduled stage up to this one, shown or not; a page after
        # stage r has page.stage r + 1
        while page.stage <= stage:
            page = next(pages)
    print("\nfinal page:", file=out)
    _render_grid(page, out)
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _build_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    command = {"compute": cmd_compute, "verify": cmd_verify, "table": cmd_table}[cfg.command]
    try:
        code = command(cfg, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): point stdout at devnull
        # so that the interpreter's final flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, km2.WindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, AssertionError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
