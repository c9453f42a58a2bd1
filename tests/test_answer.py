"""Module answers: displayed summands, dimensions, localization, Bockstein."""

import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morava_k2 import answer, cli, graded_algebra, km2, numerology, ss_engine as ss
from morava_k2.graded_algebra import E, TensorExpression, replace

from helpers import poincare_answer_reference


def test_free_part_labels():
    assert answer.closed_form(3, 1, "cohomology", 60).free_part.label() == "P[v]"
    assert answer.closed_form(3, 2, "cohomology", 120).free_part.label() == "P[v] @ TP_3[z_1]"
    assert answer.closed_form(2, 2, "cohomology", 90).free_part.label() == "P[v] @ TP_2[z_1]"
    assert (
        answer.closed_form(3, 2, "homology", 90).free_part.label()
        == "P[v] @ Gamma_3[z_1*]"
    )


def test_families_31_frozen():
    a = answer.closed_form(3, 1, "cohomology", 60)
    got = [
        (f.j, f.kind, f.order, f.base_degree, f.expression.label())
        for f in a.torsion_families[:4]
    ]
    assert got == [
        (0, "half", 2, 20, "P[y_1] @ TPbar_3[z_2] @ E[w_2] @ TP_3[z_3]"),
        (1, "y", 3, 19, "P[y_2] @ TP_2[y_1] @ Ebar[w_2] @ E[w_3] @ TP_3[z_3]"),
        (1, "half", 6, 56, "P[y_2] @ TPbar_3[z_3] @ E[w_3]"),
        (2, "y", 8, 51, "P[y_3] @ TP_2[y_2] @ Ebar[w_3] @ E[w_4]"),
    ]


def test_families_31_homology_frozen():
    h = answer.closed_form(3, 1, "homology", 60)
    got = [
        (f.kind, f.order, f.base_degree, f.expression.label())
        for f in h.torsion_families[:3]
    ]
    assert got == [
        ("half", 2, 11, "Gamma[y_1*] @ Ebar[w_3/2*] @ Gamma_2[z_2*] @ E[w_2*] @ Gamma_3[z_3*]"),
        ("y", 3, 6, "Gamma[y_2*] @ TPbar_3[y_1*] @ E[w_3*] @ Gamma_3[z_3*]"),
        ("half", 6, 31, "Gamma[y_2*] @ Ebar[w_5/2*] @ Gamma_2[z_3*] @ E[w_3*]"),
    ]


def test_families_p2():
    c = answer.closed_form(2, 1, "cohomology", 60)
    got = [(f.kind, f.order, f.base_degree) for f in c.torsion_families[:4]]
    assert got == [("y", 2, 9), ("half", 2, 18), ("y", 4, 17), ("half", 4, 34)]
    # no TP_1[y_j] factor survives the p = 2 degeneration
    assert c.torsion_families[0].expression.label() == (
        "P[y_2] @ Ebar[w_2] @ E[w_3] @ TP_2[z_3] @ TP_2[z_4]"
    )
    # the transported homology pairs each order-r family with the dual of
    # its differential's source, one degree step down
    h = answer.closed_form(2, 1, "homology", 60)
    got = [
        (f.kind, f.order, f.base_degree, f.expression.label())
        for f in h.torsion_families[:2]
    ]
    assert got == [
        ("y", 2, 4, "Gamma[y_2*] @ TPbar_2[y_1*] @ E[w_3*] @ Gamma_2[z_3*] @ Gamma_2[z_4*]"),
        ("half", 2, 13, "Gamma[y_2*] @ Ebar[y_1 w_2*] @ E[w_3*] @ Gamma_2[z_4*]"),
    ]
    for cf, hf in zip(c.torsion_families, h.torsion_families):
        assert (cf.j, cf.kind, cf.order) == (hf.j, hf.kind, hf.order)
        assert cf.base_degree - hf.base_degree == ss.degree_step(cf.order, 2, 1)


def test_family_source_in_window_rule():
    """A family appears once its source enters the window, even when its
    generators all sit above it."""
    a = answer.closed_form(3, 1, "cohomology", 300)
    f59 = next(f for f in a.torsion_families if f.order == 59)
    assert f59.base_degree == 488
    assert answer.to_page(a).torsion_by_degree().get((488, 59)) is None
    small = answer.closed_form(3, 1, "cohomology", 200)
    assert all(f.order != 59 for f in small.torsion_families)


def _tp_factor(a):
    return next(f for f in a.torsion_families[0].expression.factors if f.height)


@pytest.mark.parametrize(
    "change, match",
    [
        (
            lambda a: replace(a, torsion_families=(replace(a.torsion_families[0], order=5),)),
            "order",
        ),
        (lambda a: replace(answer.poincare_answer(a).total, hi=61), "dims length"),
        (lambda a: replace(a.free_part.factors[0], kind="Q"), "unknown factor kind"),
        (lambda a: replace(_tp_factor(a), height=1), "needs height >= 2"),
        (lambda a: replace(a.free_part.factors[0], height=3), "takes no height"),
        (lambda a: replace(a.free_part.factors[0].gen, degree=0), "has degree 0"),
    ],
    ids=[
        "AnswerModule-order",
        "PoincareSeries-dims",
        "Factor-kind",
        "Factor-height",
        "Factor-no-height",
        "Generator-degree",
    ],
)
def test_order_invariant_enforced(change, match):
    """replace rebuilds a record through its constructor, so every
    constructor check runs on the changed copy."""
    a = answer.closed_form(3, 1, "cohomology", 60)
    with pytest.raises(ValueError, match=match):
        change(a)


RECORD_MODULES = (graded_algebra, km2, numerology, ss, answer, cli)


def _record_classes() -> list[type]:
    """Every record class the package defines: a tuple subclass with
    _fields bound in the module that defines it (answer's re-export of
    ss_engine.TorsionFamily is counted once)."""
    return [
        obj
        for mod in RECORD_MODULES
        for obj in vars(mod).values()
        if isinstance(obj, type)
        and issubclass(obj, tuple)
        and hasattr(obj, "_fields")
        and obj.__module__ == mod.__name__
    ]


def _unslotted(record: type) -> list[type]:
    """The classes between record and tuple that do not declare
    __slots__ = (); any one of them gives the instances a __dict__."""
    between = record.__mro__[: record.__mro__.index(tuple)]
    return [c for c in between if c.__dict__.get("__slots__") != ()]


def test_records_are_immutable():
    """Every record class is a named tuple whose classes all declare
    __slots__ = (): no field can be set and no attribute added, on one
    value of each class and on the records of a real answer."""
    records = _record_classes()
    assert sorted(r.__name__ for r in records) == sorted([
        "Generator", "Factor", "PoincareSeries", "TensorExpression",
        "PresGenerator", "Presentation", "_LeibnizTerm", "QnHomologyReport", "WElement",
        "IndexSplit", "IdentityFailure",
        "TorsionFamily", "Differential", "TowerSummand", "Page", "_WindowPlan", "_Coord",
        "AnswerModule", "AnswerSeries", "RunConfig",
    ])
    assert [r for r in records if _unslotted(r)] == []
    # _make skips the constructor checks, so any values will do
    values = [(r._make(range(len(r._fields))), r._fields[0]) for r in records]
    a = answer.closed_form(3, 1, "cohomology", 60)
    f = a.torsion_families[0]
    series = answer.poincare_answer(a).total
    page = answer.to_page(a)
    for record, field in values + [
        (a, "localized"),
        (f, "order"),
        (f.expression, "factors"),
        (f.expression.factors[0], "height"),
        (f.expression.factors[0].gen, "degree"),
        (series, "dims"),
        (page, "torsion"),
        (page.torsion[0], "count"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_a_record_without_slots_is_found():
    """A subclass that forgets __slots__ = () gains an instance __dict__,
    and the shape check names it."""

    class Loose(answer.AnswerSeries):
        pass

    assert _unslotted(Loose) == [Loose]
    value = Loose._make((1, 2))
    value.extra = 1
    assert value.__dict__ == {"extra": 1}


def test_answer_matches_engine_run():
    """The answer module against the brute-force sweep, which shares no
    family rule with it (the closed-form rewrite takes its families from
    the same ss_engine._families as closed_form)."""
    for p, n, top in [(2, 1, 60), (3, 1, 60), (5, 1, 100), (2, 2, 100), (3, 2, 100)]:
        for variance in ("cohomology", "homology"):
            page = answer.to_page(answer.closed_form(p, n, variance, top))
            ok, msg = ss.oracle_match(page, ss.run_bruteforce(p, n, variance, top))
            assert ok, (p, n, variance, msg)


def _summand_key(t):
    return t.generator_degree, t.order, t.generator_expression.label(), t.count


@given(
    pn=st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(2, 90),
)
# odd p, tops in [2p, 2p^n + 2p - 2] that take in y_2's stage as well
@example(pn=(3, 2), variance="cohomology", top=20)
@example(pn=(3, 3), variance="homology", top=40)
@example(pn=(5, 2), variance="cohomology", top=55)
@settings(deadline=None, max_examples=40)
def test_answer_page_is_the_rewrite_e_infinity(pn, variance, top):
    """The answer module lists the families that the rewrite reaches stage by
    stage, so its page is the rewrite's E-infinity: the same v-free part,
    towers and Z_p family (the stage fields differ by design)."""
    page = answer.to_page(answer.closed_form(*pn, variance, top))
    einf = ss.run_closed_form(*pn, variance, top)
    assert page.v_free == einf.v_free
    assert sorted(page.torsion, key=_summand_key) == sorted(einf.torsion, key=_summand_key)
    assert page.zp_family == einf.zp_family


def _drop_first_exterior_of_first_y_family(real):
    def planted(p, n, variance, hi):
        out = real(p, n, variance, hi)
        k = next(i for i, f in enumerate(out) if f.kind == "y")
        factors = out[k].expression.factors
        e = next(i for i, f in enumerate(factors) if f.kind == E)
        out[k] = replace(out[k], expression=TensorExpression(factors[:e] + factors[e + 1 :]))
        return out

    return planted


@pytest.mark.parametrize("variance", ["cohomology", "homology"])
@pytest.mark.parametrize("p, n, top", [(2, 1, 60), (2, 2, 100)])
def test_checks_see_a_planted_family_defect(monkeypatch, p, n, top, variance):
    """One family rule feeds both closed-route readers, so a defect planted
    in it must be caught by the checks that do not read it: the brute sweep
    through oracle_match and the Bockstein count against dim H^d."""
    monkeypatch.setattr(
        ss, "_families", _drop_first_exterior_of_first_y_family(ss._families)
    )
    a = answer.closed_form(p, n, variance, top)
    page = ss.run_closed_form(p, n, variance, top)
    assert ss.oracle_match(answer.to_page(a), page)[0]  # the planted rule reaches both
    ok, msg = ss.oracle_match(answer.to_page(a), ss.run_bruteforce(p, n, variance, top))
    assert not ok and re.search(r"degree \d+|\(degree, filtration\) = \(\d+", msg), msg
    ok, msg = answer.bockstein_check(a)
    assert not ok and re.search(r"degree \d+", msg), msg


def test_pairing_and_uct_through_answers():
    for p, n, top in [(2, 1, 60), (3, 1, 60), (2, 2, 100), (3, 2, 100)]:
        coh = answer.to_page(answer.closed_form(p, n, "cohomology", top))
        hom = answer.to_page(answer.closed_form(p, n, "homology", top))
        ok, msg = ss.pairing_check(coh, hom)
        assert ok, (p, n, msg)
        ok, msg = ss.uct_matches(hom, coh)
        assert ok, (p, n, msg)


def test_poincare_free_tower_negative_window():
    a = answer.closed_form(3, 1, "cohomology", 60)
    s = answer.poincare_answer(a, (-8, 0)).total
    assert [s.dim(d) for d in range(-8, 1)] == [1, 0, 0, 0, 1, 0, 0, 0, 1]


@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 3),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(2, 150),
    lo=st.integers(-30, 0),
    localized=st.booleans(),
)
@example(p=3, n=1, variance="cohomology", top=60, lo=0, localized=False)
@example(p=3, n=1, variance="homology", top=60, lo=0, localized=False)
@example(p=2, n=2, variance="cohomology", top=90, lo=0, localized=False)
@example(p=2, n=2, variance="homology", top=90, lo=0, localized=False)
@settings(deadline=None, max_examples=60)
def test_poincare_matches_chart_series(p, n, variance, top, lo, localized):
    """The chart of the answer's page and poincare_answer count the same
    classes in every degree, also below degree 0."""
    a = answer.closed_form(p, n, variance, top)
    if localized:
        a = answer.localize(a)
    total = answer.poincare_answer(a, (lo, top)).total
    chart = answer.to_page(a).chart_series(lo, top)
    assert chart == total


@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 3),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(2, 150),
    lo=st.integers(-30, 0),
    localized=st.booleans(),
)
@example(p=3, n=1, variance="cohomology", top=60, lo=-8, localized=False)
@example(p=2, n=2, variance="homology", top=90, lo=-3, localized=False)
@settings(deadline=None, max_examples=60)
def test_poincare_matches_class_by_class_reference(p, n, variance, top, lo, localized):
    """The strided family sums count what walking every tower class by class
    counts: the total and each family's generator count; the chart of the
    answer's page holds every v-power row of the walk, spot by spot."""
    a = answer.closed_form(p, n, variance, top)
    if localized:
        a = answer.localize(a)
    lo = min(lo, top)
    series = answer.poincare_answer(a, (lo, top))
    total, rows, family_counts = poincare_answer_reference(a, (lo, top))
    assert series.total == total
    assert series.family_counts == family_counts
    walked = {(d, s): c for s, row in rows.items() for d, c in enumerate(row.dims, lo) if c}
    assert answer.to_page(a).chart_dims(lo, top) == Counter(walked)


def test_poincare_by_v_power():
    a = answer.closed_form(3, 1, "cohomology", 60)
    chart = answer.to_page(a).chart_dims(0, 60)
    # filtration 0 carries one class per torsion generator, the Z_p family
    # and the unit
    zp = dict(a.zp_family)
    assert chart[(7, 0)] == zp[7]
    assert chart[(0, 0)] == 1
    assert chart[(19, 0)] == 1 + zp.get(19, 0)
    # the order-3 tower on degree 19 reaches filtration 2 at degree 11
    assert chart[(11, 2)] == 1
    assert chart[(0, 77)] == 0


@pytest.mark.parametrize("variance", ["cohomology", "homology"])
def test_poincare_answer_sums_only_the_strands_in_its_array(monkeypatch, variance):
    """At p = 1000003, |v| = 2(p - 1) dwarfs the window [0, 50]: one prefix
    sum per strand that starts inside the 51-entry run array, not one per
    residue class mod |v|."""
    sums = []
    real = answer.accumulate

    def counted(strand):
        sums.append(1)
        return real(strand)

    monkeypatch.setattr(answer, "accumulate", counted)
    a = answer.closed_form(1000003, 1, variance, 50)
    total = answer.poincare_answer(a).total
    assert len(sums) <= 51
    assert total == answer.to_page(a).chart_series(0, 50)


def test_poincare_window_errors():
    a = answer.closed_form(3, 1, "cohomology", 60)
    with pytest.raises(km2.WindowError):
        answer.poincare_answer(a, (0, 100))
    with pytest.raises(km2.WindowError):
        answer.poincare_answer(a, (10, 5))


def test_localize():
    a = answer.closed_form(3, 1, "cohomology", 60)
    loc = answer.localize(a)
    assert loc.localized and not loc.torsion_families and not loc.zp_family
    assert answer.localize(loc) == loc
    s = answer.poincare_answer(loc, (1, 60)).total
    assert all(s.dim(d) == 0 for d in range(1, 61))
    # at n = 2 the truncated head survives localization
    loc32 = answer.localize(answer.closed_form(3, 2, "cohomology", 120))
    assert loc32.free_part.label() == "P[v] @ TP_3[z_1]"
    # z_1 powers at 0, 8, 16 with |v| = -16 folding 16 back onto 0
    s32 = answer.poincare_answer(loc32, (0, 20)).total
    assert [s32.dim(d) for d in (0, 8, 16)] == [2, 1, 1]
    assert sum(s32.dim(d) for d in range(21)) == 4


@pytest.mark.parametrize("variance", ["cohomology", "homology"])
@pytest.mark.parametrize("p, n, top", [(2, 1, 80), (3, 2, 90), (2, 3, 60), (3, 3, 120)])
def test_localization_check_passes(p, n, top, variance):
    ok, msg = answer.localization_check(answer.closed_form(p, n, variance, top))
    assert ok, (p, n, variance, msg)
    assert f"rank p^C(n,2) = {p ** (n * (n - 1) // 2)} over P[v]" in msg


def _replant_heights(a, heights):
    """a with the height of each free factor named in heights replaced."""
    free = tuple(
        replace(f, height=heights.get(f.gen.name, f.height))
        for f in a.free_part.factors
    )
    return replace(a, free_part=ss.TensorExpression(free))


@pytest.mark.parametrize("variance", ["cohomology", "homology"])
def test_localization_check_sees_a_wrong_truncation_height(variance):
    """At (2, 3) the localized module is P[v] on TP_4[z_1] and TP_2[z_2]:
    a height off by a factor of p fails the rank, and heights swapped between
    z_1 and z_2 keep rank 8 but fail the series degree by degree."""
    star = "*" if variance == "homology" else ""
    a = answer.closed_form(2, 3, variance, 60)
    ok, msg = answer.localization_check(_replant_heights(a, {f"z_1{star}": 2}))
    assert not ok
    assert msg == "localized rank 4, expected p^C(n,2) = 8"
    swapped = _replant_heights(a, {f"z_1{star}": 2, f"z_2{star}": 4})
    ok, msg = answer.localization_check(swapped)
    assert not ok
    assert msg.startswith("localized generators have dimension 0 in degree 12"), msg
    # below the top generator (degree 28) the rank is not visible, the series is
    ok, msg = answer.localization_check(
        _replant_heights(answer.closed_form(2, 3, variance, 20), {f"z_1{star}": 2})
    )
    assert not ok
    assert msg.startswith("localized generators have dimension 0 in degree 12"), msg


def test_localization_check_sees_towers_running_the_wrong_way(monkeypatch):
    """The v^0 row can match while the towers do not: with |v| = -16 in
    homology, the tower on z_1^2 (degree 16) runs down onto the unit."""
    real = ss.v_degree
    monkeypatch.setattr(answer, "v_degree", lambda p, n, variance: -real(p, n, variance))
    ok, msg = answer.localization_check(answer.closed_form(3, 2, "homology", 90))
    assert not ok
    assert msg == "localized towers have dimension 2 in degree 0, expected 1"


def test_bockstein_all_pairs():
    for p, n, top in [(2, 1, 80), (3, 1, 80), (5, 1, 80), (2, 2, 90), (3, 2, 90)]:
        for variance in ("cohomology", "homology"):
            ok, msg = answer.bockstein_check(answer.closed_form(p, n, variance, top))
            assert ok, (p, n, variance, msg)
            assert "flipped" not in msg


def test_bockstein_sees_tampering():
    a = answer.closed_form(3, 1, "cohomology", 60)
    bad = replace(a, zp_family=a.zp_family[1:])
    ok, _ = answer.bockstein_check(bad)
    assert not ok
    gutted = replace(a, torsion_families=a.torsion_families[1:])
    ok, msg = answer.bockstein_check(gutted)
    assert not ok


def test_bockstein_keeps_the_derived_orientation():
    """A homology module relabelled as cohomology fits [0, 2p^n] only with
    the kernel offset reversed; the check tries no other orientation, so
    the relabelled module fails at its first bad degree."""
    a = replace(answer.closed_form(3, 1, "homology", 60), variance="cohomology")
    ok, msg = answer.bockstein_check(a)
    assert not ok
    assert msg.startswith("degree 0: "), msg


@pytest.mark.parametrize("variance", ["cohomology", "homology"])
def test_bockstein_sees_a_planted_closed_route_rank(monkeypatch, variance):
    """One extra free rank at degree d0 on the closed side adds a Z_p at its
    top (cohomology) or bottom (homology) cell; the Bockstein count against
    km2.total_dims must fail first at d0."""
    p, n, top, d0 = 3, 1, 60, 12
    cell = d0 + 2 * p**n - 1 if variance == "cohomology" else d0
    real = ss.zp_family_closed

    def bumped(p_, n_, variance_, hi):
        counts = dict(real(p_, n_, variance_, hi))
        if cell <= hi:
            counts[cell] = counts.get(cell, 0) + 1
        return tuple(sorted(counts.items()))

    monkeypatch.setattr(ss, "zp_family_closed", bumped)
    ok, msg = answer.bockstein_check(answer.closed_form(p, n, variance, top))
    assert not ok
    assert msg.startswith(f"degree {d0}: "), msg


def test_bockstein_reads_zp_classes_above_the_window_off_its_free_ranks(monkeypatch, capsys):
    """The cohomology Z_p classes above the window sit one Q_n-degree over
    free generators in [0, top], so the bockstein suite builds no Z_p series
    past top, even at p = 1000003 where that degree is 2000005."""
    tops = []
    real = ss.zp_family_closed

    def recorded(p, n, variance, hi):
        tops.append(hi)
        return real(p, n, variance, hi)

    monkeypatch.setattr(ss, "zp_family_closed", recorded)
    argv = ["verify", "--suite", "bockstein", "--p", "1000003", "--n", "1", "--max-degree", "50"]
    assert cli.main(argv) == 0
    assert "PASS\tbockstein" in capsys.readouterr().out
    assert tops and max(tops) <= 50


def test_bockstein_reads_total_dims(monkeypatch):
    """dim H^d comes from km2.total_dims, not from the series the module is
    built on: a planted count there must fail at its degree."""
    real = km2.total_dims

    def bumped(pres, hi):
        dims = real(pres, hi)
        dims[30] += 1
        return dims

    monkeypatch.setattr(km2, "total_dims", bumped)
    ok, msg = answer.bockstein_check(answer.closed_form(3, 1, "cohomology", 60))
    assert not ok
    assert msg.startswith("degree 30: "), msg


def test_bockstein_input_errors():
    a = answer.closed_form(3, 1, "cohomology", 60)
    with pytest.raises(ValueError):
        answer.bockstein_check(answer.localize(a))
