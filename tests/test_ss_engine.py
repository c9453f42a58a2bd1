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

from helpers import bruteforce_full_reference


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


def test_schedule_homology_swaps_roles():
    got = [
        (e.stage, e.source, e.target, e.source_degree, e.target_degree)
        for e in ss.schedule(3, 1, 1, "homology")
    ]
    assert got == [
        (2, "z_2*", "w_3/2*", 20, 11),
        (3, "w_2*", "y_1*", 19, 6),
        (6, "z_3*", "w_5/2*", 56, 31),
    ]


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


@given(nice_pn, st.integers(min_value=1, max_value=9), st.sampled_from(["cohomology", "homology"]))
@settings(deadline=None)
def test_generator_named_inverts_the_builders(pn, j_max, variance):
    """Every name the schedule and the E2 page print resolves back to a
    generator of the same name and degree, in its own variance only."""
    p, n = pn
    named = {(e.source, e.source_degree) for e in ss.schedule(p, n, j_max, variance)}
    named |= {(e.target, e.target_degree) for e in ss.schedule(p, n, j_max, variance)}
    named |= {
        (f.gen.name, f.gen.degree)
        for f in ss.e2_closed_form(p, n, variance, 200).v_free.factors
    }
    other = "homology" if variance == "cohomology" else "cohomology"
    for name, degree in named:
        gen = ss._generator_named(name, p, n, variance)
        assert (gen.name, gen.degree) == (name, degree)
        if name != "v":
            assert ss._generator_named(name, p, n, other) is None


def test_generator_named_rejects_names_outside_the_registry():
    for name, p, n in [
        ("y_1 w_2", 3, 1),  # products name sources only at p = 2
        ("y_3 w_4", 2, 1),  # j = 3 lies past the p = 2 special range
        ("y_1 w_3", 2, 1),  # the product pairs y_j with w_{n+j}
        ("w_1/2", 3, 1),  # w indices start at n
        ("w_4/2", 3, 1),  # w_2 has an even doubled index
        ("y_01", 3, 1),
        ("y_0", 3, 1),
        ("z_0", 3, 1),
        ("v*", 3, 1),
        ("x_1", 3, 1),
    ]:
        assert ss._generator_named(name, p, n, "cohomology") is None, name
    assert ss._generator_named("y_2 w_3", 2, 1, "cohomology").degree == 8 + 17


@given(
    st.integers(min_value=-60, max_value=200),
    st.one_of(st.integers(min_value=1, max_value=9), st.just(ss.INF)),
    st.sampled_from([-8, -4, -2, 2, 4, 8]),
    st.integers(min_value=-40, max_value=120),
    st.integers(min_value=0, max_value=120),
)
@settings(deadline=None, max_examples=300)
def test_tower_powers_matches_the_walk(g, order, dv, lo, width):
    """The closed-form exponent range that Page.chart_dims and
    Page.chart_series read, against a cell-by-cell walk."""
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
        ss.e2_closed_form(3, 1, window=60).v_free.label()
        == "P[v] @ P[y_1] @ E[w_3/2] @ E[w_2] @ TP_3[z_2] @ TP_3[z_3]"
    )
    assert (
        ss.e2_closed_form(2, 1, window=40).v_free.label()
        == "P[v] @ P[y_1] @ TP_4[w_2] @ TP_4[w_3]"
    )
    # n = 2 keeps a truncated head factor below the schedule's reach
    assert (
        ss.e2_closed_form(2, 2, window=70).v_free.label()
        == "P[v] @ TP_2[z_1] @ P[y_1] @ TP_8[w_3] @ TP_8[w_4] @ TP_8[w_5]"
    )
    assert ss.e2_closed_form(3, 2, window=60).v_free.label().startswith("P[v] @ TP_3[z_1]")


def test_e2_homology_uses_divided_power_duals():
    lab = ss.e2_closed_form(3, 1, "homology", 60).v_free.label()
    assert lab == "P[v] @ Gamma[y_1*] @ E[w_3/2*] @ E[w_2*] @ Gamma_3[z_2*] @ Gamma_3[z_3*]"


def test_e2_matches_trivial_qn_homology():
    """The non-v part of E2 has the dimensions of the trivial Q_n-homology."""
    for p, n, top in [(2, 1, 80), (3, 1, 80), (5, 1, 80), (2, 2, 90), (3, 2, 90)]:
        page = ss.e2_closed_form(p, n, window=top)
        rest = TensorExpression(
            tuple(f for f in page.v_free.factors if f.gen.name != "v")
        )
        series = rest.poincare(0, top)
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
    e2 = ss.e2_closed_form(3, 1, window=60)
    sched = ss.window_schedule(3, 1, 60)
    assert sorted({e.stage for e in sched}) == [2, 3, 6, 8, 19, 22, 59]

    after2 = ss.run_closed_form(e2, [e for e in sched if e.stage <= 2])
    labels2 = {t.generator_expression.label() for t in after2.torsion}
    assert labels2 == {"P[y_1] @ TPbar_3[z_2] @ E[w_2] @ TP_3[z_3]"}
    assert {t.order for t in after2.torsion} == {2}

    after3 = ss.run_closed_form(e2, [e for e in sched if e.stage <= 3])
    labels3 = {t.generator_expression.label() for t in after3.torsion}
    assert labels3 == labels2 | {"P[y_2] @ TP_2[y_1] @ Ebar[w_2] @ E[w_3] @ TP_3[z_3]"}
    assert {t.order for t in after3.torsion} == {2, 3}


def test_closed_form_31_frozen_window():
    e2 = ss.e2_closed_form(3, 1, window=60)
    einf = ss.run_closed_form(e2, ss.window_schedule(3, 1, 60))
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
    einf = ss.run_closed_form(
        ss.e2_closed_form(3, 2, window=120), ss.window_schedule(3, 2, 120)
    )
    assert einf.v_free.label() == "P[v] @ TP_3[z_1]"


def test_empty_schedule_returns_e2():
    e2 = ss.e2_closed_form(3, 1, window=60)
    assert ss.run_closed_form(e2, []) == e2


def test_closed_form_preconditions():
    e2 = ss.e2_closed_form(3, 1, window=60)
    sched = ss.window_schedule(3, 1, 60)
    with pytest.raises(RuntimeError, match="E2"):
        ss.run_closed_form(ss.run_closed_form(e2, sched), sched)
    # stage 3 consumes E[w_2] but needs the half generator slot free,
    # which only the stage-2 rewrite vacates
    with pytest.raises(RuntimeError, match="does not carry"):
        ss.run_closed_form(e2, [e for e in sched if e.stage == 3])
    hom = ss.window_schedule(3, 1, 60, "homology")
    with pytest.raises(RuntimeError, match="variance"):
        ss.run_closed_form(e2, hom)


def test_bruteforce_full_names_generators():
    full = bruteforce_full_reference(3, 1, "cohomology", 60)
    named = {
        (t.generator_degree, t.order): t.generator_expression
        for t in full.torsion
        if t.order != ss.INF
    }
    assert named[(20, 2)] == "z_2"
    assert named[(19, 3)] == "w_2"
    assert named[(51, 8)] == "w_3/2 z_2^2"
    assert [t.generator_expression for t in full.torsion if t.order == ss.INF] == ["1"]


def test_routes_agree_small_windows():
    for p, n, top in [(2, 1, 60), (3, 1, 60), (5, 1, 100), (2, 2, 100), (3, 2, 100)]:
        for variance in ("cohomology", "homology"):
            closed = ss.run_closed_form(
                ss.e2_closed_form(p, n, variance, top),
                ss.window_schedule(p, n, top, variance),
            )
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
    hinf = ss.run_closed_form(
        ss.e2_closed_form(3, 1, "homology", 60), ss.window_schedule(3, 1, 60, "homology")
    )
    assert hinf.torsion_by_degree()[(54, 22)] == 1
    assert hinf.free_by_degree().get(54, 0) == 0
    grouped = ss.run_bruteforce(3, 1, "homology", 60)
    assert grouped.torsion_by_degree()[(54, 22)] == 1


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
    a = ss.run_bruteforce(3, 1, window=40)
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
    closed = ss.run_closed_form(
        ss.e2_closed_form(p, n, variance, top), ss.window_schedule(p, n, top, variance)
    )
    monkeypatch.setattr(ss, "zp_family_closed", _forbidden)
    brute = ss.run_bruteforce(p, n, variance, top)
    ok, msg = ss.oracle_match(closed, brute)
    cell = d0 + 2 * p**n - 1 if variance == "cohomology" else d0
    assert not ok
    assert msg.startswith(f"Z_p families differ at degree {cell}:"), msg


def test_pairing_named_degrees():
    """The homology towers on y_1* and w_3/2* pair with the cohomology
    towers one differential-length higher."""
    hom = ss.run_closed_form(
        ss.e2_closed_form(3, 1, "homology", 60), ss.window_schedule(3, 1, 60, "homology")
    )
    coh = ss.run_closed_form(
        ss.e2_closed_form(3, 1, window=60), ss.window_schedule(3, 1, 60)
    )
    ht, ct = hom.torsion_by_degree(), coh.torsion_by_degree()
    assert ht[(6, 3)] == ct[(6 + ss.degree_step(3, 3, 1), 3)] == 1
    assert ht[(11, 2)] == ct[(11 + ss.degree_step(2, 3, 1), 2)] == 1
    report = ss.pairing_check(coh, hom)
    assert report.ok, report.detail


def test_pairing_and_transport_all_pairs():
    for p, n, top in [(2, 1, 60), (3, 1, 60), (2, 2, 100), (3, 2, 100)]:
        coh = ss.run_bruteforce(p, n, "cohomology", top)
        hom = ss.run_bruteforce(p, n, "homology", top)
        assert ss.pairing_check(coh, hom).ok, (p, n)
        ok, msg = ss.uct_matches(hom, coh)
        assert ok, (p, n, msg)


def test_uct_transport_shifts():
    hom = ss.run_bruteforce(3, 1, "homology", 60)
    moved = ss.uct_transport(hom)
    assert moved["torsion"][(6 + 13, 3)] == 1
    assert moved["zp"][2 + 5] == 1
    assert moved["free"][0] == 1
    with pytest.raises(ValueError):
        ss.uct_transport(ss.run_bruteforce(3, 1, window=40))


def test_chart_dims_places_towers():
    einf = ss.run_closed_form(
        ss.e2_closed_form(3, 1, window=60), ss.window_schedule(3, 1, 60)
    )
    chart = einf.chart_dims()
    # cohomological v lowers degree by 4: the order-3 tower on degree 19
    # occupies (19,0), (15,1), (11,2) and stops
    assert chart[(15, 1)] == 1 and chart[(11, 2)] == 1
    assert (7, 3) not in chart
    assert chart[(19, 0)] == 1 + dict(einf.zp_family)[19]
    assert chart[(7, 0)] == 1  # the first Z_p class
    # the free v-tower on 1 leaves the window below degree 0
    assert chart[(0, 0)] == 1 and (0, 1) not in chart
    series = einf.chart_series()
    assert series.dim(0) == sum(c for (d, _s), c in chart.items() if d == 0)
    # homological v raises degree, so the same tower climbs in steps of 4
    hom = ss.run_closed_form(
        ss.e2_closed_form(3, 1, "homology", 60), ss.window_schedule(3, 1, 60, "homology")
    )
    hchart = hom.chart_dims()
    assert hchart[(0, 0)] == 1 and hchart[(4, 1)] == 1 and hchart[(40, 10)] == 1


def _charted_pages(p, n, variance, top):
    """Every kind of page the chart readers see: each closed-form stage, the
    brute E-infinity, and the answer module's page, plain and localized."""
    e2 = ss.e2_closed_form(p, n, variance, top)
    yield from ss.closed_form_pages(e2, ss.window_schedule(p, n, top, variance))
    yield ss.run_bruteforce(p, n, variance, top)
    a = answer.closed_form(p, n, variance, (0, top))
    yield answer.to_page(a)
    yield answer.to_page(answer.localize(a))


def _spots_by_degree(page):
    lo, hi = page.window
    dims = [0] * (hi - lo + 1)
    for (d, _s), c in page.chart_dims().items():
        dims[d - lo] += c
    return dims


@given(
    pn=st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(2, 120),
    lo=st.integers(-40, 80),
    width=st.integers(0, 160),
)
@settings(deadline=None, max_examples=40)
def test_chart_series_sums_chart_dims(pn, variance, top, lo, width):
    """The strided runs of chart_series count what chart_dims places, degree
    by degree, on the page's own window and on a shifted one (towers then
    run off either end, also below degree 0)."""
    for page in _charted_pages(*pn, variance, top):
        for window in (page.window, (lo, lo + width)):
            moved = page._replace(window=window)
            assert list(moved.chart_series().dims) == _spots_by_degree(moved), (page.stage, window)


def test_window_validation():
    with pytest.raises(ValueError):
        ss.e2_closed_form(3, 1, window=(3, 60))
    assert ss.e2_closed_form(3, 1).window == (0, km2.default_window(1))


def test_free_tower_order_is_inf():
    page = ss.run_bruteforce(3, 1, window=30)
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
