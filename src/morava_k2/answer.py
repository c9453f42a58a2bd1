"""Closed-form module answers for k(n) of K(Z_p, 2).

closed_form writes the final k(n)^*- resp. k(n)_*-module down directly as a
free part, a list of v-torsion families and the filtration-0 Z_p family,
without running the spectral sequence.  The families come from
ss_engine._families, the same rule the closed-form rewrite adds its towers
from.  to_page converts the result so the ss_engine comparators can check it
against an actual run.  poincare_answer, localize, bockstein_check and
localization_check read dimensions off the module description.

poincare_answer sums whole families, never single classes: each family's
generator series is one run, ended r|v| further on for a family of order
r, and one prefix sum with stride |v| counts the classes of every tower.
Page.chart_series of the answer's page counts the same classes from the
same family series (TensorExpression.poincare), but with its own run code:
it enters each tower of the page as two run ends and sums in its own loop,
where poincare_answer shifts whole series (_add_shifted) and sums each
strand with accumulate.  So cli's comparison of the two can catch a defect
in either.  The per-filtration rows of a module have one reader,
to_page(a).chart_dims.

Both variances are written down directly at every p, p = 2 homology
included, from the generator registry in ss_engine; in homology each
family's towers start on the dual of its differential's source.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, sub

from . import km2, numerology, ss_engine
from .graded_algebra import PoincareSeries, Record, replace
from .km2 import WindowError
from .ss_engine import (
    INF,
    Page,
    TorsionFamily,
    _head_factors,
    _summands,
    _v_free,
    _without_v,
    degree_step,
    v_degree,
)


class AnswerModule(Record):
    """The module on [0, top]: free_part a TensorExpression, torsion_families
    a tuple of TorsionFamily whose orders the schedule fixes, zp_family
    (degree, count) pairs."""

    __slots__ = ()

    def __new__(
        cls, p, n, variance, top, free_part, torsion_families, zp_family, localized=False
    ):
        for f in torsion_families:
            want = numerology.r(f.j, p, n) if f.kind == "y" else numerology.rprime(f.j, p, n)
            if f.order != want:
                raise ValueError(f"family ({f.kind}, {f.j}) must have order {want}, got {f.order}")
        return tuple.__new__(
            cls, (p, n, variance, top, free_part, torsion_families, zp_family, localized)
        )


def closed_form(p: int, n: int, variance: str, top: int) -> AnswerModule:
    """The k(n) module of K(Z_p, 2) on [0, top], assembled from its displayed
    summands.

    A family enters the list while its differential's source degree is at
    most top; the infinite z tensor tails are cut once their generator
    degree passes it.
    """
    km2.build(p, n, variance)  # validates p prime, n >= 1, variance spelling
    km2.check_top(top)
    return AnswerModule(
        p=p,
        n=n,
        variance=variance,
        top=top,
        free_part=_v_free(p, n, variance, _head_factors(p, n, variance), top),
        torsion_families=tuple(ss_engine._families(p, n, variance, top)),
        zp_family=ss_engine.zp_family_closed(p, n, variance, top),
    )


def localize(a: AnswerModule) -> AnswerModule:
    """Invert v: every torsion family and the Z_p family die."""
    return replace(a, torsion_families=(), zp_family=(), localized=True)


def to_page(a: AnswerModule) -> Page:
    """Expand the family description into a per-degree tower page so the
    ss_engine comparators (oracle_match, pairing_check, uct_matches) apply;
    free_part's towers join the families' and free_part is the v_free label."""
    summands = []
    for f in a.torsion_families:
        summands += _summands(f.expression, f.order, a.top)
    summands += _summands(_without_v(a.free_part), INF, a.top)
    stage = max((f.order for f in a.torsion_families), default=1) + 1
    return Page(
        p=a.p,
        n=a.n,
        variance=a.variance,
        stage=stage,
        top=a.top,
        v_free=a.free_part,
        torsion=tuple(summands),
        zp_family=a.zp_family,
    )


class AnswerSeries(Record):
    """The module's dimensions on a window [lo, hi] (total, a
    PoincareSeries), and each torsion family's generator count on
    [0, module top]."""

    __slots__ = ()

    def __new__(cls, total, family_counts):
        return tuple.__new__(cls, (total, family_counts))


def _add_shifted(dims: list[int], lo: int, series: PoincareSeries, shift: int, op) -> None:
    """dims[d - lo] = op(dims[d - lo], series.dim(d - shift)) wherever dims
    and the shifted series overlap, as one slice."""
    a = max(lo, series.lo + shift)
    b = min(lo + len(dims), series.hi + shift + 1)
    if a < b:
        run = series.dims[a - shift - series.lo : b - shift - series.lo]
        dims[a - lo : b - lo] = map(op, dims[a - lo : b - lo], run)


def poincare_answer(a: AnswerModule, window=None) -> AnswerSeries:
    """Per-degree F_p dimensions of the module on a window.

    A TP_r[v] tower on a degree-d generator counts r classes at d, d + |v|,
    ..., d + (r-1)|v|.  The towers are counted a family at a time: each
    family's generator series enters as a run of +1 at its own degrees and,
    for finite order r, of -1 at those degrees shifted by r|v|; one prefix
    sum with stride |v| in the direction of v then counts every class.  The
    window is a (lo, hi) pair, [0, top] by default; it may reach
    into negative degrees, where only the v-free part lives in cohomology.
    """
    top = a.top
    lo, hi = (0, top) if window is None else window
    if lo > hi:
        raise WindowError(f"empty window [{lo}, {hi}]")
    if hi > top:
        raise WindowError(f"window top {hi} exceeds the computed range {top}")
    dv = v_degree(a.p, a.n, a.variance)
    towers = [(INF, _without_v(a.free_part).poincare(top))]
    towers += [(f.order, f.expression.poincare(top)) for f in a.torsion_families]

    # runs on [base, top]: every generator lies in [0, top], and a run end
    # that falls outside only touches degrees outside [lo, hi]
    base = min(lo, 0)
    runs = [0] * (top - base + 1)
    for order, gens in towers:
        _add_shifted(runs, base, gens, 0, add)
        if order != INF:
            _add_shifted(runs, base, gens, order * dv, sub)
    s = abs(dv)
    for r in range(min(s, len(runs))):
        # each residue class mod |v| that meets the array, in the direction of v
        strand = slice(r, None, s) if dv > 0 else slice(-1 - r, None, -s)
        runs[strand] = accumulate(runs[strand])
    total = runs[lo - base : hi - base + 1]
    for d, c in a.zp_family:
        if lo <= d <= hi:
            total[d - lo] += c
    return AnswerSeries(
        total=PoincareSeries(lo, hi, tuple(total)),
        family_counts=tuple(sum(gens.dims) for _order, gens in towers[1:]),
    )


def _kernel_slots(a: AnswerModule) -> tuple[list[int], str]:
    """The bottom classes of the v-torsion towers, which v kills, where
    bockstein_check reads them against dim H^d: entry d counts those in
    degree d + dq in cohomology, d - dq in homology (dq = 2p^n - 1); and
    why they cannot be read, or ''.

    An order-r tower on g has its bottom class at g + (r-1)q2 in homology
    (q2 = 2(p^n - 1)), entry g + 1 + r*q2.  In cohomology it lies at
    g - (r-1)q2, under a generator far above the window, so it is read
    through the UCT: the homology tower on h pairs with the cohomology
    tower on h + 1 + r*q2, whose bottom class is entry h.  Each cohomology
    family must have the homology partner of its (kind, j), of its order.
    """
    p, n, hi = a.p, a.n, a.top
    slots = [0] * (hi + 1)
    if a.variance == "homology":
        for f in a.torsion_families:
            _add_shifted(slots, 0, f.expression.poincare(hi), degree_step(f.order, p, n), add)
        return slots, ""
    dual = ss_engine._families(p, n, "homology", hi)
    partners = {(f.kind, f.j): f for f in dual}
    for f in a.torsion_families:
        partner = partners.pop((f.kind, f.j), None)
        if partner is None:
            return slots, f"family ({f.kind}, {f.j}) has no homology partner"
        if partner.order != f.order:
            return slots, (
                f"family ({f.kind}, {f.j}) has order {f.order}, its homology partner "
                f"order {partner.order}"
            )
    if partners:
        kind, j = next(iter(partners))
        return slots, f"homology family ({kind}, {j}) has no cohomology partner"
    for f in dual:
        _add_shifted(slots, 0, f.expression.poincare(hi), 0, add)
    return slots, ""


def bockstein_check(a: AnswerModule) -> tuple[bool, str]:
    """Mod-p cohomology dimensions from the module, degree by degree.

    The cofiber sequence of multiplication by v gives, for every degree d,
    dim H^d(K_2) = dim coker(v)_d + dim ker(v)_{d'} with d' offset from d by
    2p^n - 1: upward in cohomology, downward in homology.  Only that derived
    orientation is tried, so a module of the wrong variance fails at its
    first bad degree instead of passing under the opposite one.  ker(v)
    comes from _kernel_slots and the Z_p classes; every series stays on
    [0, top].  In cohomology the kernel slots are read through the UCT off
    the homology families, so of each cohomology family only its (kind, j)
    and order enter ker(v): its generators above top, which ker(v) once
    read off its own series, are no longer checked against dim H.  Its
    generators on [0, top] still enter coker(v).
    """
    if a.localized:
        raise ValueError("bockstein_check needs the torsion the localized module drops")
    p, n = a.p, a.n
    hi = a.top
    dq = 2 * p**n - 1
    coh = a.variance == "cohomology"
    ker, refusal = _kernel_slots(a)
    if refusal:
        return False, refusal

    cok = list(_without_v(a.free_part).poincare(hi).dims)
    for f in a.torsion_families:
        _add_shifted(cok, 0, f.expression.poincare(hi), 0, add)
    # the Z_p classes die under v and miss its image; cohomology kernels
    # reach one Q_n-degree above the module's top, to the Z_p at d + dq over
    # each free generator d <= hi, where the homology family has its Z_p
    offset = dq if coh else -dq
    zp = list(a.zp_family)
    if coh:
        zp += [
            (d + dq, c)
            for d, c in ss_engine.zp_family_closed(p, n, "homology", hi)
            if d + dq > hi
        ]
    for d, c in zp:
        if d <= hi:
            cok[d] += c
        if 0 <= d - offset <= hi:
            ker[d - offset] += c

    h_dims = km2.total_dims(km2.build(p, n, a.variance), hi)
    for d in range(hi + 1):
        predicted = cok[d] + ker[d]
        if predicted != h_dims[d]:
            return False, (
                f"degree {d}: H has dimension {h_dims[d]} but coker(v) + ker(v) "
                f"gives {predicted}"
            )
    return True, f"coker/ker counts match dim H^d for all d in [0, {hi}]"


def localization_check(a: AnswerModule) -> tuple[bool, str]:
    """The v-localized module against the Ravenel-Wilson count.

    Inverting v leaves P[v] on the tensor product over i = 1..n-1 of the
    truncated factors of height p^(n-i) on z_i (their duals in homology), of
    total rank p^C(n,2).  The expected series is built here from numerology
    degrees alone and compared degree by degree with the localized module:
    the series of its free part without P[v] against the generators, and
    poincare_answer's total against their v-towers.  No factor label is read.
    """
    p, n, hi = a.p, a.n, a.top
    base = [1] + [0] * hi
    top = 0
    for i in range(1, n):
        d, h = numerology.degree_z(i, p), p ** (n - i)
        top += (h - 1) * d
        # times (1 - t^(hd)) / (1 - t^d) = 1 + t^d + ... + t^((h-1)d)
        for e in range(hi, h * d - 1, -1):
            base[e] -= base[e - h * d]
        for e in range(d, hi + 1):
            base[e] += base[e - d]
    step = 2 * (p**n - 1)
    total = list(base)
    if a.variance == "homology":
        for e in range(step, hi + 1):
            total[e] += total[e - step]
    else:
        for e in range(hi - step, -1, -1):
            total[e] += total[e + step]

    gens = _without_v(a.free_part).poincare(hi)
    towers = poincare_answer(localize(a), (0, hi)).total
    rank, want_rank = sum(gens.dims), p ** (n * (n - 1) // 2)
    if top <= hi and rank != want_rank:
        return False, f"localized rank {rank}, expected p^C(n,2) = {want_rank}"
    for name, got, want in (("generators", gens, base), ("towers", towers, total)):
        bad = next((d for d in range(hi + 1) if got.dim(d) != want[d]), None)
        if bad is not None:
            return False, (
                f"localized {name} have dimension {got.dim(bad)} in degree {bad}, "
                f"expected {want[bad]}"
            )
    if top > hi:
        return True, (
            f"inverting v leaves the expected series on [0, {hi}], with {rank} of "
            f"the p^C(n,2) = {want_rank} generators in the window"
        )
    return True, f"inverting v leaves rank p^C(n,2) = {rank} over P[v]"
