"""Acceptance gate: eight exact checks at the full verification windows.

Run with -v for one pass/fail line per criterion; add -s for the numeric
details.  Every comparison is integer equality, no tolerances anywhere.
Criterion 8 rewrites advisory.json at the repository root.
"""

import json
from functools import lru_cache
from pathlib import Path

from morava_k2 import answer, km2, numerology
from morava_k2 import ss_engine as ss

WINDOW = {1: 400, 2: 1200}
ALL_PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1))
ENGINE_PAIRS = ((2, 1), (3, 1), (2, 2), (3, 2))
VARIANCES = ("cohomology", "homology")


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@lru_cache(maxsize=None)
def _brute(p: int, n: int, variance: str) -> ss.Page:
    return ss.run_bruteforce(p, n, variance, WINDOW[n])


@lru_cache(maxsize=None)
def _closed(p: int, n: int, variance: str) -> ss.Page:
    return ss.run_closed_form(p, n, variance, WINDOW[n])


@lru_cache(maxsize=None)
def _module(p: int, n: int, variance: str) -> answer.AnswerModule:
    return answer.closed_form(p, n, variance, WINDOW[n])


def test_criterion_1_stage_identities():
    bad = []
    for p, n in ALL_PAIRS:
        bad += numerology.identity_suite(p, n, 100)
    _verdict(
        1, "numerology", not bad,
        f"{len(ALL_PAIRS)} (p, n) pairs, indices to 100" if not bad else f"first: {bad[0]}",
    )


def test_criterion_2_qn_squares_to_zero():
    checked = cycles = 0
    bad = []
    for p, n in ALL_PAIRS:
        got, failures = km2.qn_square_check(p, n, WINDOW[n])
        checked += got
        bad += [(p, n, f) for f in failures]
        factory, ws = km2.w_elements(p, n, WINDOW[n])
        for w in ws:
            if w.index2 % 2 == 0:
                if factory.ctx.qn_poly(dict(w.poly)):
                    bad.append((p, n, w.name))
                cycles += 1
    _verdict(
        2, "Q_n differential", not bad,
        f"{checked} monomials, {cycles} w-cycles" if not bad else f"first: {bad[0]}",
    )


def test_criterion_3_e2_closed_form_matches_brute_force():
    bad = None
    degrees = 0
    for p, n in ALL_PAIRS:
        w = WINDOW[n]
        for variance in VARIANCES:
            trivial = km2.qn_homology(p, n, variance, w).trivial_series()
            page = ss.e2_closed_form(p, n, variance, w)
            rest = ss.TensorExpression(
                tuple(f for f in page.v_free.factors if f.gen.name != "v")
            )
            series = rest.poincare(w)
            for d in range(w + 1):
                if series.dim(d) != trivial.dim(d):
                    bad = bad or (p, n, variance, d)
                degrees += 1
    _verdict(
        3, "E2 match", bad is None,
        f"{degrees} degree comparisons" if bad is None else f"first mismatch: {bad}",
    )


def test_criterion_4_oracle_equivalence():
    details = []
    ok = True
    for p, n in ENGINE_PAIRS:
        for variance in VARIANCES:
            good, msg = ss.oracle_match(_closed(p, n, variance), _brute(p, n, variance))
            ok = ok and good
            if not good:
                details.append(f"({p},{n}) {variance}: {msg}")
    _verdict(
        4, "oracle equivalence", ok,
        f"{len(ENGINE_PAIRS) * 2} runs agree" if ok else "; ".join(details),
    )


def test_criterion_5_duality():
    details = []
    ok = True
    for p, n in ENGINE_PAIRS:
        paired, why = ss.pairing_check(_brute(p, n, "cohomology"), _brute(p, n, "homology"))
        good, msg = ss.uct_matches(_brute(p, n, "homology"), _brute(p, n, "cohomology"))
        ok = ok and paired and good
        if not paired:
            details.append(f"({p},{n}) pairing: {why}")
        if not good:
            details.append(f"({p},{n}) transport: {msg}")
    _verdict(
        5, "duality", ok,
        "pairing and transport agree" if ok else "; ".join(details),
    )


def test_criterion_6_bockstein_bookkeeping():
    details = []
    ok = True
    for p, n in ALL_PAIRS:
        for variance in VARIANCES:
            good, msg = answer.bockstein_check(_module(p, n, variance))
            ok = ok and good
            if not good:
                details.append(f"({p},{n}) {variance}: {msg}")
    _verdict(
        6, "Bockstein bookkeeping", ok,
        f"coker/ker counts match over {len(ALL_PAIRS) * 2} runs" if ok else "; ".join(details),
    )


def test_criterion_7_localization():
    bad = []
    for p, n in ALL_PAIRS:
        for variance in VARIANCES:
            ok, msg = answer.localization_check(_module(p, n, variance))
            if not ok:
                bad.append((p, n, variance, msg))
    _verdict(
        7, "localization", not bad,
        "inverting v leaves rank p^C(n,2) over P[v]" if not bad else f"first: {bad[0]}",
    )


def test_criterion_8_no_unscheduled_differentials():
    scans = []
    leftover = []
    for p, n in ENGINE_PAIRS:
        scan = ss.advisory_scan(p, n, WINDOW[n])
        scans.append(scan)
        leftover += [(p, n, c) for c in scan["unexcluded"]]
    out = Path(__file__).resolve().parents[1] / "advisory.json"
    out.write_text(json.dumps({"scans": scans}, indent=2) + "\n")
    pairs = sum(s["pairs"] for s in scans)
    _verdict(
        8, "advisory exhaustiveness", not leftover,
        f"{pairs} source/class pairs all excluded" if not leftover else f"first: {leftover[0]}",
    )
