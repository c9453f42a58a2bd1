"""Module answers: displayed summands, dimensions, localization, Bockstein."""

import inspect
import pickle
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morava_k2 import answer, cli, graded_algebra, km2, numerology, ss_engine as ss
from morava_k2.graded_algebra import E, TensorExpression, replace

from helpers import closed_pages, kernel_slots_reference, poincare_answer_reference


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


# a value of each record that its constructor accepts: a real one where the
# constructor checks its fields or the repr is pinned, else _make's
_SAMPLES = {
    "Generator": lambda: graded_algebra.Generator("y_1", 6),
    "Factor": lambda: graded_algebra.Factor("TP", graded_algebra.Generator("y_1", 6), 3),
    "PoincareSeries": lambda: graded_algebra.PoincareSeries(0, 2, (1, 0, 1)),
    "Page": lambda: ss.run_closed_form(2, 1, "cohomology", 8),
    "AnswerModule": lambda: answer.closed_form(3, 1, "cohomology", 60),
}
# the changes that a record's constructor check refuses
_REFUSED = {
    "Generator": lambda g: {"degree": 0},
    "Factor": lambda f: {"height": None},
    "PoincareSeries": lambda s: {"dims": s.dims[1:]},
    "AnswerModule": lambda a: {
        "torsion_families": tuple(f._replace(order=f.order + 1) for f in a.torsion_families)
    },
}
_DEFAULTS = {
    "Factor": {"height": None},
    "TowerSummand": {"count": 1},
    "Differential": {"paired": False},
    "AnswerModule": {"localized": False},
}
# the reprs the records printed as collections.namedtuple subclasses
_REPRS = {
    "Factor": "Factor(kind='TP', gen=Generator(name='y_1', degree=6), height=3)",
    "Page": (
        "Page(p=2, n=1, variance='cohomology', stage=5, top=8, v_free=TensorExpression("
        "factors=(Factor(kind='P', gen=Generator(name='v', degree=-2), height=None),)), "
        "torsion=(TowerSummand(generator_degree=0, order=inf, count=1),), "
        "zp_family=((5, 1), (6, 1), (8, 1)))"
    ),
}


@pytest.mark.parametrize("record", _record_classes(), ids=lambda r: r.__name__)
def test_records_keep_the_named_tuple_contract(record):
    """Each record keeps what it had as a named tuple: _fields are its
    constructor's parameters in order, its defaults stand, _make, _replace,
    _asdict and pickling round-trip, replace runs the constructor check that
    _replace skips, a value equals and hashes as the plain tuple of its
    fields, and the repr is unchanged."""
    params = inspect.signature(record).parameters
    assert record._fields == tuple(params)
    defaults = {k: v.default for k, v in params.items() if v.default is not v.empty}
    assert defaults == _DEFAULTS.get(record.__name__, {})
    name = record.__name__
    value = _SAMPLES[name]() if name in _SAMPLES else record._make(range(len(params)))
    assert type(value) is record
    assert record._make(list(value)) == value
    with pytest.raises(TypeError):
        record._make(tuple(value) + (None,))
    assert value._asdict() == dict(zip(record._fields, value))
    assert value._replace() == value
    first = record._fields[0]
    assert value._replace(**{first: "x"}) == ("x", *value[1:])
    with pytest.raises(ValueError):
        value._replace(missing=1)
    assert replace(value) == value
    if name in _REFUSED:
        changes = _REFUSED[name](value)
        value._replace(**changes)
        with pytest.raises(ValueError):
            replace(value, **changes)
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is record and back == value
    assert value == tuple(value) and hash(value) == hash(tuple(value))
    if name in _REPRS:
        assert repr(value) == _REPRS[name]


def test_answer_matches_engine_run():
    """The answer module against the brute-force sweep, which shares no
    family rule with it (the closed-form rewrite takes its families from
    the same ss_engine._families as closed_form)."""
    for p, n, top in [(2, 1, 60), (3, 1, 60), (5, 1, 100), (2, 2, 100), (3, 2, 100)]:
        for variance in ("cohomology", "homology"):
            page = answer.to_page(answer.closed_form(p, n, variance, top))
            ok, msg = ss.oracle_match(page, ss.run_bruteforce(p, n, variance, top))
            assert ok, (p, n, variance, msg)


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
    assert sorted(page.torsion) == sorted(einf.torsion)
    assert page.zp_family == einf.zp_family


@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 3),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(2, 120),
)
@settings(deadline=None, max_examples=60)
def test_closed_pages_hold_the_free_towers_of_their_label(p, n, variance, top):
    """A closed page's free towers, which its torsion table holds, are one
    per basis element of its v_free label without P[v]: on E2 (the first of
    closed_pages), on every page of the rewrite, on run_closed_form's
    E-infinity and on the answer module's page."""
    pages = [
        *closed_pages(p, n, variance, top),
        ss.run_closed_form(p, n, variance, top),
        answer.to_page(answer.closed_form(p, n, variance, top)),
    ]
    for page in pages:
        dims = ss._without_v(page.v_free).poincare(top).dims
        want = {d: c for d, c in enumerate(dims) if c}
        assert page.free_by_degree() == want, page.stage


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


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(1, 3),
    variance=st.sampled_from(["cohomology", "homology"]),
    top=st.integers(2, 400),
)
@example(p=3, n=1, variance="cohomology", top=400)
@example(p=2, n=3, variance="cohomology", top=400)
@example(p=7, n=2, variance="cohomology", top=400)
@settings(deadline=None, max_examples=40)
def test_kernel_slots_through_the_uct_match_the_family_series(p, n, variance, top):
    """On the degrees bockstein_check reads, the kernel slots read through
    the UCT (cohomology) equal the bottom classes placed from each family's
    own series, built far past the window."""
    a = answer.closed_form(p, n, variance, top)
    slots, refusal = answer._kernel_slots(a)
    assert refusal == ""
    dq = 2 * p**n - 1
    offset = dq if variance == "cohomology" else -dq
    want = kernel_slots_reference(a)
    assert slots == [want[d + offset] if d + offset >= 0 else 0 for d in range(top + 1)]


def _bump_first_order(families):
    """families with the first one's order raised by one."""
    first, *rest = families
    return (replace(first, order=first.order + 1), *rest)


@pytest.mark.parametrize(
    "variance, plant, message",
    [
        ("cohomology", _bump_first_order, "family (half, 0) has order 3, its homology partner order 2"),
        ("homology", _bump_first_order, "degree "),
        ("cohomology", lambda fs: fs[1:], "homology family (half, 0) has no cohomology partner"),
        ("cohomology", lambda fs: fs + fs[:1], "family (half, 0) has no homology partner"),
    ],
    ids=["order-cohomology", "order-homology", "dropped", "extra"],
)
def test_bockstein_sees_an_order_defect_in_the_closed_module_only(
    monkeypatch, capsys, variance, plant, message
):
    """A defect in the torsion families of answer.closed_form's module, and
    not in the families the closed rewrite reads, fails bockstein alone: in
    homology the kernel slots move; in cohomology a family loses its
    homology partner of the same order, or a family on either side has no
    partner.  The module is edited with _replace, past the order check of
    AnswerModule's constructor."""
    real = answer.closed_form

    def planted(*args):
        a = real(*args)
        return a._replace(torsion_families=plant(a.torsion_families))

    monkeypatch.setattr(answer, "closed_form", planted)
    argv = ["verify", "--p", "3", "--n", "1", "--max-degree", "60", "--variance", variance]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    fails = [line.split("\t") for line in out.splitlines() if line.startswith("FAIL")]
    assert [line[:2] for line in fails] == [["FAIL", "bockstein"]], out
    assert fails[0][2].startswith(message), out


def test_bockstein_builds_no_series_past_the_window(monkeypatch):
    """At (67, 3) with the default window 2500 the cohomology check builds
    every family series, the free part's and dim H^d on [0, 2500], where
    placing the kernel slots from the cohomology families took a series to
    degree 40,302,409 (300 + dq + 66 q2 at a window of 300)."""
    tops = Counter()
    real = TensorExpression.poincare

    def recorded(self, hi):
        tops[hi] += 1
        return real(self, hi)

    real_total = km2.total_dims

    def recorded_total(pres, hi):
        tops[hi] += 1
        return real_total(pres, hi)

    monkeypatch.setattr(TensorExpression, "poincare", recorded)
    monkeypatch.setattr(km2, "total_dims", recorded_total)
    a = answer.closed_form(67, 3, "cohomology", 2500)
    tops.clear()
    ok, msg = answer.bockstein_check(a)
    assert ok, msg
    assert set(tops) == {2500}
    # the free part, each family in both variances, the homology Z_p
    # family's two series and dim H^d
    assert sum(tops.values()) <= 1 + 2 * len(a.torsion_families) + 3


def test_bockstein_input_errors():
    a = answer.closed_form(3, 1, "cohomology", 60)
    with pytest.raises(ValueError):
        answer.bockstein_check(answer.localize(a))
