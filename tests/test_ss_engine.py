"""Adams spectral sequence runs: schedule, closed form, brute force.

The frozen E-infinity values below were established by the two independent
routes (tensor rewriting and monomial sweep) agreeing before freezing.
"""

import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from morava_k2 import answer, km2, numerology, ss_engine as ss
from morava_k2.graded_algebra import TensorExpression, replace

from helpers import (
    arcs_full_scan,
    bruteforce_full_reference,
    bruteforce_full_towers,
    bruteforce_single_limit_reference,
    closed_pages,
    reference_plan,
)


def test_degree_step():
    assert ss.degree_step(2, 3, 1) == 9
    assert ss.degree_step(3, 3, 1) == 13
    assert ss.degree_step(1, 2, 2) == 7
    assert ss.v_degree(3, 1, "cohomology") == -4
    assert ss.v_degree(3, 1, "homology") == 4


def test_schedule_31_first_entries():
    got = [
        (e.stage, e.source, e.target, e.source_degree, e.target_degree)
        for e in ss.schedule(3, 1, 3)
    ]
    assert got == [
        (2, "w_3/2", "z_2", 11, 20),
        (3, "y_1", "w_2", 6, 19),
        (6, "w_5/2", "z_3", 31, 56),
        (8, "y_2", "w_3", 18, 51),
        (19, "w_7/2", "z_4", 87, 164),
        (22, "y_3", "w_4", 54, 143),
        (59, "w_9/2", "z_5", 251, 488),
    ]


def test_schedule_21_paired_entries():
    got = [
        (e.stage, e.source, e.target, e.paired) for e in ss.schedule(2, 1, 4)
    ]
    assert got == [
        (2, "y_1", "w_2", True),
        (2, "y_1 w_2", "z_3", True),
        (4, "y_2", "w_3", True),
        (4, "y_2 w_3", "z_4", True),
        (7, "y_3", "w_4", False),
        (9, "w_9/2", "z_5", False),
        (13, "y_4", "w_5", False),
        (19, "w_11/2", "z_6", False),
    ]
    # at n = 2 the doubled range extends through j = n + 1 = 3
    flags = [(e.stage, e.paired) for e in ss.schedule(2, 2, 5)]
    assert flags[:6] == [(2, True), (2, True), (4, True), (4, True), (8, True), (8, True)]
    assert flags[6:] == [(15, False), (17, False), (29, False), (35, False)]


@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(min_value=1, max_value=3),
    top=st.integers(min_value=2, max_value=400),
)
@settings(deadline=None, max_examples=60)
def test_schedule_homology_swaps_roles(p, n, top):
    """Each homology differential is the cohomology one with source and
    target, and their degrees, swapped and starred, at every window."""
    got = [
        (e.stage, e.source, e.target, e.source_degree, e.target_degree)
        for e in ss.schedule(3, 1, 1, "homology")
    ]
    assert got == [
        (2, "z_2*", "w_3/2*", 20, 11),
        (3, "w_2*", "y_1*", 19, 6),
        (6, "z_3*", "w_5/2*", 56, 31),
    ]
    mirrored = [
        e._replace(
            source=e.target + "*", target=e.source + "*",
            source_degree=e.target_degree, target_degree=e.source_degree,
        )
        for e in ss.window_schedule(p, n, "cohomology", top)
    ]
    assert list(ss.window_schedule(p, n, "homology", top)) == mirrored


def test_schedule_degree_identity():
    for p, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        for e in ss.schedule(p, n, 6):
            lo, hi = e.source_degree, e.target_degree
            assert hi - lo == ss.degree_step(e.stage, p, n), (p, n, e)
            assert numerology.divisibility_check(lo, hi, p, n) == e.stage


def test_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        ss.schedule(3, 1, 0)
    with pytest.raises(ValueError):
        ss.schedule(4, 1, 2)


nice_pn = st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])


@given(nice_pn, st.integers(min_value=1, max_value=9))
@settings(deadline=None)
def test_schedule_sources_unique_and_sorted(pn, j_max):
    p, n = pn
    sched = ss.schedule(p, n, j_max)
    sources = [e.source for e in sched]
    assert len(set(sources)) == len(sources)
    assert [e.stage for e in sched] == sorted(e.stage for e in sched)
    assert not any(e.source.startswith("z") for e in sched)


@given(
    st.integers(min_value=-60, max_value=200),
    st.one_of(st.integers(min_value=1, max_value=9), st.just(ss.INF)),
    st.sampled_from([-8, -4, -2, 2, 4, 8]),
    st.integers(min_value=-40, max_value=120),
    st.integers(min_value=0, max_value=120),
)
@settings(deadline=None, max_examples=300)
def test_tower_powers_matches_the_walk(g, order, dv, lo, width):
    """The closed-form exponent range that Page.chart_dims walks (and the
    test references in helpers read), against a cell-by-cell walk."""
    hi = lo + width
    walked = []
    e = 0
    while order == ss.INF or e < order:
        d = g + e * dv
        if (dv < 0 and d < lo) or (dv > 0 and d > hi):
            break
        if lo <= d <= hi:
            walked.append(e)
        e += 1
    assert list(ss._tower_powers(g, order, dv, lo, hi)) == walked


def test_e2_labels():
    assert (
        ss.e2_closed_form(3, 1, "cohomology", 60).v_free.label()
        == "P[v] @ P[y_1] @ E[w_3/2] @ E[w_2] @ TP_3[z_2] @ TP_3[z_3]"
    )
    assert (
        ss.e2_closed_form(2, 1, "cohomology", 40).v_free.label()
        == "P[v] @ P[y_1] @ TP_4[w_2] @ TP_4[w_3]"
    )
    # n = 2 keeps a truncated head factor below the schedule's reach
    assert (
        ss.e2_closed_form(2, 2, "cohomology", 70).v_free.label()
        == "P[v] @ TP_2[z_1] @ P[y_1] @ TP_8[w_3] @ TP_8[w_4] @ TP_8[w_5]"
    )
    assert ss.e2_closed_form(3, 2, "cohomology", 60).v_free.label().startswith("P[v] @ TP_3[z_1]")


def test_e2_homology_uses_divided_power_duals():
    lab = ss.e2_closed_form(3, 1, "homology", 60).v_free.label()
    assert lab == "P[v] @ Gamma[y_1*] @ E[w_3/2*] @ E[w_2*] @ Gamma_3[z_2*] @ Gamma_3[z_3*]"


def test_e2_matches_trivial_qn_homology():
    """The non-v part of E2 has the dimensions of the trivial Q_n-homology."""
    for p, n, top in [(2, 1, 80), (3, 1, 80), (5, 1, 80), (2, 2, 90), (3, 2, 90)]:
        page = ss.e2_closed_form(p, n, "cohomology", top)
        rest = TensorExpression(
            tuple(f for f in page.v_free.factors if f.gen.name != "v")
        )
        series = rest.poincare(top)
        trivial = km2.qn_homology(p, n, "cohomology", top).trivial_series()
        assert all(series.dim(d) == trivial.dim(d) for d in range(top + 1)), (p, n)


def test_zp_family_tracks_free_rank():
    rep = km2.qn_homology(3, 1, "cohomology", 40)
    hom = dict(ss.zp_family_counts(3, 1, "homology", 40))
    assert hom == {d: r for d, r in enumerate(rep.free_rank) if r}
    coh = dict(ss.zp_family_counts(3, 1, "cohomology", 40))
    # cohomology sees the top cell of each free summand, 2p^n - 1 higher
    assert coh == {d + 5: r for d, r in hom.items() if d + 5 <= 40}
    assert coh[7] == 1 and 2 not in coh


def _forbidden(*args, **kwargs):
    raise AssertionError("this route must not be called here")


@pytest.mark.parametrize("variance", ["cohomology", "homology"])
@pytest.mark.parametrize(
    "p, n, top",
    [(2, 1, 120), (3, 1, 120), (5, 1, 160), (7, 1, 200),
     (2, 2, 90), (3, 2, 120), (5, 2, 200), (7, 2, 300)],
)
def test_zp_family_closed_matches_rank_route(monkeypatch, p, n, top, variance):
    """The series route to the Z_p family equals the F_p rank route, and it
    reads neither the ranks nor km2's own dimension count."""
    want = ss.zp_family_counts(p, n, variance, top)
    assert want
    monkeypatch.setattr(km2, "qn_homology", _forbidden)
    monkeypatch.setattr(km2, "total_dims", _forbidden)
    monkeypatch.setattr(ss, "zp_family_counts", _forbidden)
    assert ss.zp_family_closed(p, n, variance, top) == want


def test_closed_form_31_families():
    sched = ss.window_schedule(3, 1, "cohomology", 60)
    assert sorted({e.stage for e in sched}) == [2, 3, 6, 8, 19, 22, 59]
    # a page after stage r has page.stage r + 1
    pages = {page.stage: page for page in closed_pages(3, 1, "cohomology", 60)}
    assert sorted(pages) == [2, 3, 4, 7, 9, 20, 23, 60]

    families = {f.order: f.expression for f in ss._families(3, 1, "cohomology", 60)}
    assert families[2].label() == "P[y_1] @ TPbar_3[z_2] @ E[w_2] @ TP_3[z_3]"
    assert families[3].label() == "P[y_2] @ TP_2[y_1] @ Ebar[w_2] @ E[w_3] @ TP_3[z_3]"

    after2 = pages[3]
    torsion2 = [t for t in after2.torsion if t.order != ss.INF]
    assert torsion2 == ss._summands(families[2], 2, 60)

    after3 = pages[4]
    torsion3 = [t for t in after3.torsion if t.order != ss.INF]
    assert torsion3 == torsion2 + ss._summands(families[3], 3, 60)


def test_closed_form_31_frozen_window():
    einf = ss.run_closed_form(3, 1, "cohomology", 60)
    assert einf.v_free.label() == "P[v]"
    assert dict(einf.free_by_degree()) == {0: 1}
    by_order: dict = {}
    for (d, o), c in einf.torsion_by_degree().items():
        by_order.setdefault(o, []).extend([d] * c)
    assert sorted(by_order[3]) == [19, 25, 37, 43, 55]
    assert sorted(by_order[2]) == [
        20, 26, 32, 38, 39, 40, 44, 45, 46, 50, 51, 52, 56, 57, 58, 59,
    ]
    assert by_order[8] == [51]
    assert by_order[6] == [56]
    assert set(by_order) == {2, 3, 6, 8}
    assert einf.zp_family[:3] == ((7, 1), (8, 1), (9, 1))


def test_closed_form_32_keeps_head():
    einf = ss.run_closed_form(3, 2, "cohomology", 120)
    assert einf.v_free.label() == "P[v] @ TP_3[z_1]"


def test_empty_schedule_returns_e2(monkeypatch):
    """The rewrite starts from e2_closed_form's page and yields it first; with
    no stage scheduled it is also E-infinity."""
    e2 = ss.e2_closed_form(3, 1, "cohomology", 60)
    assert closed_pages(3, 1, "cohomology", 60)[0] == e2
    monkeypatch.setattr(ss, "window_schedule", lambda *args: [])
    assert ss.run_closed_form(3, 1, "cohomology", 60) == e2


_window_schedule = ss.window_schedule


def _planted_schedule(monkeypatch, edit):
    """Make window_schedule return edit(the real schedule)."""
    monkeypatch.setattr(ss, "window_schedule", lambda *args: edit(_window_schedule(*args)))


def test_closed_form_preconditions(monkeypatch):
    """Each stage checks the page it rewrites.  Stage 3 consumes E[w_2] but
    needs the half generator slot free, which only the stage-2 rewrite
    vacates; unrelated entries cannot share a stage; a p = 2 paired stage
    needs both of its entries."""
    _planted_schedule(monkeypatch, lambda sched: [e for e in sched if e.stage != 2])
    with pytest.raises(RuntimeError, match=r"does not carry P\[y_1\] \(x\) E\[w_2\]"):
        ss.run_closed_form(3, 1, "cohomology", 60)
    # d^3(y_1) moved onto stage 2, next to d^2(w_3/2)
    _planted_schedule(monkeypatch, lambda sched: [sched[0], sched[1]._replace(stage=2)])
    with pytest.raises(RuntimeError, match="unrelated differentials share stage 2"):
        ss.run_closed_form(3, 1, "cohomology", 60)
    _planted_schedule(monkeypatch, lambda sched: [e for e in sched if e.family == "y"])
    with pytest.raises(RuntimeError, match="paired stage needs exactly its two entries"):
        ss.run_closed_form(2, 1, "cohomology", 60)


def test_bruteforce_full_names_generators():
    towers = bruteforce_full_towers(3, 1, "cohomology", 60)
    named = {(g, order): name for name, g, order in towers if order != ss.INF}
    assert named[(20, 2)] == "z_2"
    assert named[(19, 3)] == "w_2"
    assert named[(51, 8)] == "w_3/2 z_2^2"
    assert [name for name, _g, order in towers if order == ss.INF] == ["1"]


def test_routes_agree_small_windows():
    for p, n, top in [(2, 1, 60), (3, 1, 60), (5, 1, 100), (2, 2, 100), (3, 2, 100)]:
        for variance in ("cohomology", "homology"):
            closed = ss.run_closed_form(p, n, variance, top)
            grouped = ss.run_bruteforce(p, n, variance, top)
            ok, msg = ss.oracle_match(closed, grouped)
            assert ok, (p, n, variance, msg)


@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 2),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(8, 50),
)
@example(p=3, n=1, variance="cohomology", top=60)
@example(p=3, n=1, variance="homology", top=60)
@settings(deadline=None, max_examples=40)
def test_grouped_matches_full_lattice_reference(p, n, variance, top):
    """run_bruteforce, one lattice per residue class joined by _fold, gives
    the towers of one sweep over the whole lattice."""
    ok, msg = ss.oracle_match(
        ss.run_bruteforce(p, n, variance, top), bruteforce_full_reference(p, n, variance, top)
    )
    assert ok, msg


def test_homology_window_sees_distant_sources():
    """d^22 starts at degree 143 yet bounds the tower on y_3* at degree 54."""
    hinf = ss.run_closed_form(3, 1, "homology", 60)
    assert hinf.torsion_by_degree()[(54, 22)] == 1
    assert hinf.free_by_degree().get(54, 0) == 0
    grouped = ss.run_bruteforce(3, 1, "homology", 60)
    assert grouped.torsion_by_degree()[(54, 22)] == 1


@pytest.mark.parametrize("variance", ["cohomology", "homology"])
@pytest.mark.parametrize(
    "p, n, top",
    [(3, 1, 6), (3, 1, 10), (5, 1, 10), (5, 1, 18), (7, 1, 14), (7, 1, 26),
     (3, 2, 6), (3, 2, 22), (5, 2, 10), (5, 2, 58), (3, 3, 6), (3, 3, 58)],
)
def test_window_plan_reaches_past_the_half_source(p, n, top, variance):
    """At odd p family index 0 has only the half source w_{n+1/2}, in degree
    2p^n + 2p - 1, above y_1 in degree 2p.  On the tops from 2p up to one
    below that source the plan still scans the indices past 0: every
    differential whose lowest degree lies in [0, top] is scheduled, and the
    brute route sees y_1's tower bounded, as the rewrite does."""
    reach = {
        (e.family, e.index)
        for e in ss.schedule(p, n, 4, variance)
        if min(e.source_degree, e.target_degree) <= top
    }
    got = {(e.family, e.index) for e in ss.window_schedule(p, n, variance, top)}
    assert ("y", 1) in reach and reach <= got
    ok, msg = ss.oracle_match(
        ss.run_closed_form(p, n, variance, top), ss.run_bruteforce(p, n, variance, top)
    )
    assert ok, msg


def test_every_fold_cuts_at_the_window(monkeypatch):
    """run_bruteforce folds on [0, top] alone: each fold, one per class part
    after the first and one for the head when it has coordinates, cuts at
    top, by the homology rule (cohomology towers keyed by source degree),
    on keys that never pass top, and fold_work bounds the (limit + 1) x
    order pairs it multiplies.  A single cut at top + (n + 1) * delta, or one
    staged per class, would read limits such as [3951] * 4 or
    [2734, 2734, 1517, 300] at (3, 2) on [0, 300]."""
    calls = []
    real = ss._fold

    def recording(a, b, p, n, variance, limit):
        keys = max(g for g, _o in a | b)
        calls.append((variance, limit, keys, {o for _g, o in a}, {o for _g, o in b}))
        return real(a, b, p, n, variance, limit)

    monkeypatch.setattr(ss, "_fold", recording)
    for variance in ("cohomology", "homology"):
        for p, n, top in [(3, 2, 300), (2, 1, 60), (2, 3, 200)]:
            calls.clear()
            ss.run_bruteforce(p, n, variance, top)
            folds = n + (1 if ss._head_coords(p, n, top) else 0)
            assert [c[:2] for c in calls] == [("homology", top)] * folds
            assert max(c[2] for c in calls) <= top
            work = sum((top + 1) * len(oa) * len(ob) for _v, _l, _g, oa, ob in calls)
            assert work <= ss.fold_work(p, n, variance, top)
    assert ss.fold_work(3, 2, "cohomology", 300) == 12341


@pytest.mark.parametrize("p, n, top", [(2, 1, 400), (3, 1, 400), (5, 1, 400), (2, 2, 300),
                                       (3, 2, 300), (2, 3, 200), (3, 3, 200), (2, 4, 200)])
def test_no_class_monomial_lies_on_two_arcs(p, n, top):
    """Every class tower is hit by one arc at most, so its order is the
    stage of that arc and it sits one degree step above a monomial divisible
    by the arc's source: why a tower of order above max_stage has its key
    above the window (see run_bruteforce)."""
    plan = ss._plan(p, n, "cohomology", top)
    sched = ss.schedule(p, n, plan.j_ext)
    arcs = 0
    for cls in range(n + 1):
        lat = ss._Lattice(p, n, ss._class_coords(p, n, cls, plan.enum_limit), plan.enum_limit)
        seen = Counter()
        for e in sched:
            if e.index % (n + 1) != cls:
                continue
            for s, t, _c in lat.arcs_for(e):
                seen.update((s, t))
                assert lat.monomials[t] == lat.monomials[s] + ss.degree_step(e.stage, p, n)
                assert lat.monomials[s] >= e.source_degree
        assert max(seen.values(), default=1) == 1, (cls, seen.most_common(1))
        arcs += len(seen) // 2
    assert arcs > 0


@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 3),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(2, 200),
)
@example(p=2, n=1, variance="cohomology", top=200)
@example(p=2, n=2, variance="homology", top=200)
@example(p=3, n=2, variance="cohomology", top=200)
@settings(deadline=None, max_examples=40)
def test_indexed_arcs_match_the_full_scan(p, n, variance, top):
    """arcs_for, visiting only the monomials that carry the source
    coordinate, finds the arcs of a scan over every monomial, in the same
    order, for every entry of every class lattice that run_bruteforce
    builds, the p = 2 paired stages included."""
    plan = ss._plan(p, n, variance, top)
    sched = ss.schedule(p, n, plan.j_ext, variance)
    assert p != 2 or any(e.paired for e in sched)
    for cls in range(n + 1):
        lat = ss._Lattice(p, n, ss._class_coords(p, n, cls, plan.enum_limit), plan.enum_limit)
        for e in sched:
            if e.index % (n + 1) == cls:
                assert lat.arcs_for(e) == arcs_full_scan(lat, e), e


@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 4),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(8, 60),
)
@example(p=2, n=1, variance="cohomology", top=20)
@settings(deadline=None, max_examples=60)
def test_window_folds_match_single_limit_reference(p, n, variance, top):
    """Every fold cut at top, cohomology towers keyed by source degree,
    gives the page of every fold cut at top + (n + 1) * delta."""
    assert ss.run_bruteforce(p, n, variance, top) == bruteforce_single_limit_reference(
        p, n, variance, top
    )


@pytest.mark.parametrize("top", [30, 100, 200, 300])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cut_cohomology_lattices_match_the_reference_plan(monkeypatch, p, n, top):
    """Class lattices enumerated to top + delta give the page of lattices
    enumerated to top + (n + 2) * delta, and the same fold_work, the
    refusal guard's prediction."""
    key = (p, n, "cohomology", top)
    ref = reference_plan(*key)
    assert ss._plan(*key).enum_limit < ref.enum_limit
    page, work = ss.run_bruteforce(*key), ss.fold_work(*key)
    real = ss._plan
    monkeypatch.setattr(ss, "_plan", lambda *args: ref if args == key else real(*args))
    assert ss.run_bruteforce(*key) == page
    assert ss.fold_work(*key) == work


class _ArcLattice:
    """A stand-in for _Lattice whose arcs are given per entry."""

    def arcs_for(self, e):
        return e.arcs


class _Entry:
    def __init__(self, stage, arcs):
        self.stage, self.arcs = stage, arcs


def test_sweep_fires_free_towers_once():
    """A stage pairs a source that has not fired with a target no arc has
    bounded; a later arc from a fired source or onto a bounded target
    fires nothing, and one from a bounded source is refused.  In homology
    each arc runs backwards."""
    entries = [
        _Entry(3, [("a", "b", 1)]),
        _Entry(1, [("c", "d", 1)]),
        _Entry(3, [("c", "e", 1), ("f", "d", 1)]),
    ]
    fired, bound = ss._sweep(_ArcLattice(), entries, "cohomology")
    assert fired == {"a", "c"} and bound == {"b": 3, "d": 1}
    fired, bound = ss._sweep(_ArcLattice(), entries[:1] + entries[2:], "homology")
    assert fired == {"b", "e", "d"} and bound == {"a": 3, "c": 3, "f": 3}
    with pytest.raises(RuntimeError, match="fires a torsion tower"):
        ss._sweep(_ArcLattice(), [_Entry(1, [("a", "b", 1)]), _Entry(2, [("b", "c", 1)])],
                  "cohomology")


@pytest.mark.parametrize(
    "floor",
    [
        # each key one v-degree too high
        lambda order, p, n, variance: 0 if order == ss.INF else ss.degree_step(order - 1, p, n),
        # every tower keyed by its degree, still folded on [0, top]
        lambda order, p, n, variance: 0,
    ],
)
def test_misplaced_fold_keys_fail_the_reference(monkeypatch, floor):
    """Cohomology towers keyed one v-degree off their source, or by their
    own degree, give pages that the single-limit reference does not."""
    monkeypatch.setattr(ss, "_key_floor", floor)
    with pytest.raises(AssertionError):
        test_window_folds_match_single_limit_reference()


def test_a_tower_keyed_below_zero_is_refused(monkeypatch):
    """A key below 0 would index its slot from the top of the fold's int;
    run_bruteforce refuses it instead."""
    monkeypatch.setattr(
        ss,
        "_key_floor",
        lambda order, p, n, variance: 0 if order == ss.INF else 2 * ss.degree_step(order, p, n),
    )
    with pytest.raises(RuntimeError, match="sits below its source"):
        ss.run_bruteforce(3, 1, "cohomology", 60)


def _pairwise_fold(a, b, p, n, variance, limit):
    """The Kunneth fold written pair by pair, as the reference for ss._fold."""
    out = Counter()
    sign = -1 if variance == "cohomology" else 1
    for (g1, o1), c1 in a.items():
        for (g2, o2), c2 in b.items():
            g = g1 + g2
            if g > limit:
                continue
            c = c1 * c2
            if o1 == math.inf and o2 == math.inf:
                out[(g, math.inf)] += c
            elif o1 == math.inf or o2 == math.inf:
                out[(g, o1 if o2 == math.inf else o2)] += c
            else:
                out[(g, min(o1, o2))] += c
                gt = g + sign * ss.degree_step(max(o1, o2), p, n)
                if 0 <= gt <= limit:
                    out[(gt, min(o1, o2))] += c
    return out


# degree steps 3..13 at (2, 1) land Tor terms both inside and outside [0, limit];
# at (3, 2) every step (17 and up) pushes most of them out
_towers = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=45),
        st.one_of(st.integers(min_value=1, max_value=6), st.just(math.inf)),
    ),
    st.integers(min_value=1, max_value=1000),
    max_size=25,
).map(Counter)


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    st.sampled_from(["cohomology", "homology"]),
    st.integers(min_value=0, max_value=40),
    _towers,
    _towers,
)
@settings(deadline=None, max_examples=300)
def test_fold_matches_pairwise_reference(pn, variance, limit, a, b):
    p, n = pn
    want = _pairwise_fold(a, b, p, n, variance, limit)
    for x, y in ((a, b), (b, a)):
        got = ss._fold(x, y, p, n, variance, limit)
        assert got == want
        assert set(got) == set(want)
        for (g, order), c in got.items():
            assert type(g) is int and type(c) is int
            assert order == math.inf or type(order) is int


def test_fold_is_exact_past_64_bits():
    """Counts whose products pass 2**64 fold to exactly the pairwise sums."""
    a = Counter({(0, math.inf): 2**70 + 1, (3, 2): 3**50, (5, 4): 2**64 - 1})
    b = Counter({(0, 3): 2**66 + 5, (2, math.inf): 7**30, (4, 1): 2**63})
    for p, n, variance, limit in ((3, 1, "cohomology", 9), (2, 1, "homology", 12)):
        want = _pairwise_fold(a, b, p, n, variance, limit)
        assert max(want.values()) > 2**128
        assert ss._fold(a, b, p, n, variance, limit) == want
        assert ss._fold(b, a, p, n, variance, limit) == want


def test_oracle_match_reports_mismatch():
    a = ss.run_bruteforce(3, 1, "cohomology", 40)
    b = bruteforce_full_reference(3, 1, "cohomology", 40)
    ok, msg = ss.oracle_match(a, b)
    assert ok and "[0, 40]" in msg
    ok, _ = ss.oracle_match(a, ss.run_bruteforce(3, 1, "homology", 40))
    assert not ok
    gutted = replace(a, torsion=())
    ok, msg = ss.oracle_match(a, gutted)
    assert not ok and "degree 0" in msg


@pytest.mark.parametrize("variance", ["cohomology", "homology"])
def test_oracle_match_sees_a_planted_rank_route_defect(monkeypatch, variance):
    """One extra free rank on the km2 side moves only the brute route's Z_p
    family, so oracle_match must fail and name the degree of that Z_p."""
    p, n, top, d0 = 3, 1, 60, 12
    real = km2.qn_homology

    def bumped(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.free_rank[d0] += 1
        return rep

    monkeypatch.setattr(km2, "qn_homology", bumped)
    closed = ss.run_closed_form(p, n, variance, top)
    monkeypatch.setattr(ss, "zp_family_closed", _forbidden)
    brute = ss.run_bruteforce(p, n, variance, top)
    ok, msg = ss.oracle_match(closed, brute)
    cell = d0 + 2 * p**n - 1 if variance == "cohomology" else d0
    assert not ok
    assert msg.startswith(f"Z_p families differ at degree {cell}:"), msg


def test_pairing_named_degrees():
    """The homology towers on y_1* and w_3/2* pair with the cohomology
    towers one differential-length higher."""
    hom = ss.run_closed_form(3, 1, "homology", 60)
    coh = ss.run_closed_form(3, 1, "cohomology", 60)
    ht, ct = hom.torsion_by_degree(), coh.torsion_by_degree()
    assert ht[(6, 3)] == ct[(6 + ss.degree_step(3, 3, 1), 3)] == 1
    assert ht[(11, 2)] == ct[(11 + ss.degree_step(2, 3, 1), 2)] == 1
    ok, msg = ss.pairing_check(coh, hom)
    assert ok, msg


def test_pairing_and_transport_all_pairs():
    for p, n, top in [(2, 1, 60), (3, 1, 60), (2, 2, 100), (3, 2, 100)]:
        coh = ss.run_bruteforce(p, n, "cohomology", top)
        hom = ss.run_bruteforce(p, n, "homology", top)
        ok, msg = ss.pairing_check(coh, hom)
        assert ok, (p, n, msg)
        ok, msg = ss.uct_matches(hom, coh)
        assert ok, (p, n, msg)


def test_uct_transport_shifts():
    hom = ss.run_bruteforce(3, 1, "homology", 60)
    moved = ss.uct_transport(hom)
    assert (moved.variance, moved.top) == ("cohomology", 60)
    assert moved.torsion_by_degree()[(6 + 13, 3)] == 1
    assert dict(moved.zp_family)[2 + 5] == 1
    assert moved.free_by_degree()[0] == 1
    with pytest.raises(ValueError):
        ss.uct_transport(ss.run_bruteforce(3, 1, "cohomology", 40))


def _plant_free_tower(hom):
    return hom._replace(torsion=hom.torsion + (ss.TowerSummand(4, ss.INF),))


def _plant_wrong_order(hom):
    """The order-3 tower on y_1* (degree 6) made order 2."""
    return hom._replace(
        torsion=tuple(
            t._replace(order=2) if (t.generator_degree, t.order) == (6, 3) else t
            for t in hom.torsion
        )
    )


def _plant_zp_class(hom):
    return hom._replace(zp_family=tuple(sorted(hom.zp_family + ((6, 1),))))


@pytest.mark.parametrize(
    "plant, uct_message, pairing_message",
    [
        (_plant_free_tower, "free ranks differ at degree 4: 1 vs 0", None),
        # the order-2 tower moves up by degree_step(2) = 9, not 13
        (_plant_wrong_order, "torsion differs at degree 15 order 2: 1 vs 0", None),
        # the Z_p family moves up by 2p^n - 1 = 5
        (_plant_zp_class, "Z_p families differ at degree 11: 1 vs 0", None),
        (
            lambda hom: ss.run_bruteforce(2, 1, "homology", 60),
            "pages disagree on (p, n, variance)",
            "need cohomology and homology pages at one (p, n)",
        ),
    ],
    ids=["free", "order", "zp", "other_pn"],
)
def test_comparators_name_the_first_planted_mismatch(plant, uct_message, pairing_message):
    """uct_matches and pairing_check report a defect planted in the
    homology page at its transported degree, in oracle_match's words."""
    hom = ss.run_bruteforce(3, 1, "homology", 60)
    coh = ss.run_bruteforce(3, 1, "cohomology", 60)
    assert ss.uct_matches(hom, coh)[0] and ss.pairing_check(coh, hom)[0]
    planted = plant(hom)
    assert ss.uct_matches(planted, coh) == (False, uct_message)
    assert ss.pairing_check(coh, planted) == (False, pairing_message or uct_message)


def test_chart_dims_places_towers():
    einf = ss.run_closed_form(3, 1, "cohomology", 60)
    chart = einf.chart_dims(0, 60)
    # cohomological v lowers degree by 4: the order-3 tower on degree 19
    # occupies (19,0), (15,1), (11,2) and stops
    assert chart[(15, 1)] == 1 and chart[(11, 2)] == 1
    assert (7, 3) not in chart
    assert chart[(19, 0)] == 1 + dict(einf.zp_family)[19]
    assert chart[(7, 0)] == 1  # the first Z_p class
    # the free v-tower on 1 leaves the window below degree 0
    assert chart[(0, 0)] == 1 and (0, 1) not in chart
    series = einf.chart_series(0, 60)
    assert series.dim(0) == sum(c for (d, _s), c in chart.items() if d == 0)
    # homological v raises degree, so the same tower climbs in steps of 4
    hom = ss.run_closed_form(3, 1, "homology", 60)
    hchart = hom.chart_dims(0, 60)
    assert hchart[(0, 0)] == 1 and hchart[(4, 1)] == 1 and hchart[(40, 10)] == 1


def _charted_pages(p, n, variance, top):
    """Every kind of page the chart readers see: each closed-form stage, the
    brute E-infinity, and the answer module's page, plain and localized."""
    yield from closed_pages(p, n, variance, top)
    yield ss.run_bruteforce(p, n, variance, top)
    a = answer.closed_form(p, n, variance, top)
    yield answer.to_page(a)
    yield answer.to_page(answer.localize(a))


def _spots_by_degree(page, lo, hi):
    dims = [0] * (hi - lo + 1)
    for (d, _s), c in page.chart_dims(lo, hi).items():
        dims[d - lo] += c
    return dims


@given(
    pn=st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(2, 120),
    lo=st.integers(-40, 80),
    width=st.integers(0, 160),
)
# the edges of the run array: a cohomology range reaching below degree 0;
# a homology range above 0 whose tower generators lie below it; pages whose
# free towers run past hi (homology) or come down into the range from
# generators above hi (cohomology)
@example(pn=(3, 1), variance="cohomology", top=60, lo=-30, width=100)
@example(pn=(3, 1), variance="homology", top=100, lo=40, width=30)
@example(pn=(2, 3), variance="homology", top=60, lo=0, width=20)
@example(pn=(2, 3), variance="cohomology", top=60, lo=0, width=20)
@settings(deadline=None, max_examples=40)
def test_chart_series_sums_chart_dims(pn, variance, top, lo, width):
    """The strided runs of chart_series count what chart_dims places, degree
    by degree, on [0, top] and on a shifted range (towers then run off
    either end, also below degree 0)."""
    for page in _charted_pages(*pn, variance, top):
        for a, b in ((0, page.top), (lo, lo + width)):
            assert list(page.chart_series(a, b).dims) == _spots_by_degree(page, a, b), (
                page.stage, a, b,
            )


def test_routes_chart_alike_on_a_narrower_range():
    """Two runs that agree on [0, top] chart alike on any range: every reader
    counts the towers on all generators in [0, top].  At (2,3) cohomology
    the free towers on 22 and 28 come down into [0, 20]."""
    closed = ss.run_closed_form(2, 3, "cohomology", 60)
    brute = ss.run_bruteforce(2, 3, "cohomology", 60)
    assert ss.oracle_match(closed, brute)[0]
    assert closed.chart_series(0, 20) == brute.chart_series(0, 20)
    assert [closed.chart_series(0, 20).dim(d) for d in (0, 8, 14)] == [2, 1, 1]
    assert closed.chart_dims(0, 20) == brute.chart_dims(0, 20)


def test_comparators_refuse_pages_with_different_tops():
    """Pages computed to different tops are not compared on the narrower
    one: at (2,3) cohomology the top-60 page charts free towers from 22 and
    28 into [0, 20] that the top-20 page cannot see."""
    wide = ss.run_closed_form(2, 3, "cohomology", 60)
    narrow = ss.run_bruteforce(2, 3, "cohomology", 20)
    hom = ss.run_bruteforce(2, 3, "homology", 20)
    assert ss.oracle_match(wide, narrow) == (False, "pages end at different tops: 60 vs 20")
    assert ss.oracle_match(narrow, wide) == (False, "pages end at different tops: 20 vs 60")
    assert ss.pairing_check(wide, hom) == (False, "pages end at different tops: 60 vs 20")
    assert ss.uct_matches(hom, wide) == (False, "pages end at different tops: 20 vs 60")
    assert ss.pairing_check(narrow, hom)[0] and ss.uct_matches(hom, narrow)[0]

def test_window_validation():
    """Every entry point computes on [0, top] and refuses a top below 2."""
    entry_points = [
        lambda top: ss.e2_closed_form(3, 1, "cohomology", top),
        lambda top: ss.run_closed_form(3, 1, "homology", top),
        lambda top: ss.run_bruteforce(3, 1, "homology", top),
        lambda top: ss.advisory_scan(3, 1, top),
        lambda top: answer.closed_form(3, 1, "cohomology", top),
        lambda top: km2.qn_homology(3, 1, "cohomology", top),
    ]
    for run in entry_points:
        for top in (1, 0, -5):
            with pytest.raises(ValueError, match=f"top must be at least 2, got {top}"):
                run(top)
        assert run(2) is not None


def test_free_tower_order_is_inf():
    page = ss.run_bruteforce(3, 1, "cohomology", 30)
    orders = {t.order for t in page.torsion}
    assert math.inf in orders
    assert all(o == math.inf or isinstance(o, int) for o in orders)


def test_advisory_scan_finds_only_scheduled_differentials():
    scan = ss.advisory_scan(3, 1, 60)
    assert scan["unexcluded"] == []
    assert scan["scheduled_recovered"] == 4  # targets 20, 19, 56, 51
    assert scan["excluded"] == {
        "dimension_conservation": 1,
        "divisibility": 536,
        "interval": 392,
        "target_dead": 276,
    }
    assert scan["pairs"] == sum(scan["excluded"].values()) + 4


def test_advisory_scan_p2_skips_divisibility():
    # q2 = 2 at (2,1): every opposite-parity degree step passes the congruence
    scan = ss.advisory_scan(2, 1, 60)
    assert scan["unexcluded"] == []
    assert "divisibility" not in scan["excluded"]
    assert scan["scheduled_recovered"] == 6


def test_advisory_scan_n2_head_targets_need_global_argument():
    # free z_1-power targets survive the local reasons; only the pinned
    # total dimensions rule those differentials out
    scan = ss.advisory_scan(3, 2, 120)
    assert scan["unexcluded"] == []
    assert scan["excluded"]["dimension_conservation"] == 3


@pytest.mark.parametrize("order, bucket", [(8, "torsion_counting"), (7, "dimension_conservation")])
def test_advisory_scan_torsion_counting(monkeypatch, order, bucket):
    """A d_r out of a w whose tower the schedule cuts to length s, into a
    class x of order above s + r, is excluded by v-linearity: v^s d_r(w) =
    d_r(v^s w) = 0 would need v^(s+r) x = 0.  No page in reach offers such a
    pair (none for p <= 7, n <= 3 and tops up to 400), so one class is
    planted.  At (3, 1), d^3(y_1) = v^3 w_2 cuts w_2 (degree 19) to length
    3, and a d_4 from it lands in degree 19 + 1 + 4 q2 = 36: a class of order
    8 there is excluded by this count, one of order 3 + 4 = 7 is not.  The
    other two new pairs, from sources that fire, fall in "interval"."""
    base = ss.advisory_scan(3, 1, 60)
    assert "torsion_counting" not in base["excluded"]
    real = ss.Page.torsion_by_degree
    monkeypatch.setattr(
        ss.Page, "torsion_by_degree", lambda page: real(page) + Counter({(36, order): 1})
    )
    scan = ss.advisory_scan(3, 1, 60)
    assert scan["unexcluded"] == [] and scan["pairs"] == base["pairs"] + 3
    grown = Counter(scan["excluded"])
    grown.subtract(base["excluded"])
    assert +grown == Counter({bucket: 1, "interval": 2})
