import pytest
from hypothesis import example, given, settings, strategies as st

from morava_k2 import answer, graded_algebra
from morava_k2.graded_algebra import (
    E,
    E_BAR,
    Factor,
    GAMMA,
    GAMMA_TRUNC,
    Generator,
    P,
    PoincareSeries,
    TP,
    TP_BAR,
    TensorExpression,
)

from helpers import restrict, series_one, tensor, times_exponent_range_prefix


def test_generator_rejects_degree_zero():
    with pytest.raises(ValueError):
        Generator("x", 0)


def test_factor_height_validation():
    x = Generator("x", 4)
    with pytest.raises(ValueError):
        Factor(TP, x)
    with pytest.raises(ValueError):
        Factor(TP, x, height=1)
    with pytest.raises(ValueError):
        Factor(P, x, height=3)


def test_exterior_series():
    x = Generator("x", 7)
    s = TensorExpression((Factor(E, x),)).poincare(10)
    assert s.dims == (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)


def test_truncated_series():
    x = Generator("x", 4)
    s = TensorExpression((Factor(TP, x, height=3),)).poincare(10)
    assert [s.dim(d) for d in (0, 4, 8)] == [1, 1, 1]
    assert s.dim(12) == 0


def test_reduced_kinds_drop_exponent_zero():
    x = Generator("x", 4)
    s = TensorExpression((Factor(TP_BAR, x, height=3),)).poincare(10)
    assert [s.dim(d) for d in (0, 4, 8)] == [0, 1, 1]
    y = Generator("y", 5)
    t = TensorExpression((Factor(E_BAR, y),)).poincare(10)
    assert [t.dim(d) for d in (0, 5)] == [0, 1]


def test_poincare_refuses_a_factor_of_nonpositive_degree():
    """Series are taken over positive-degree factors on [0, hi]: a free part
    that still carries the cohomology P[v], |v| = -4, is refused by name."""
    free = answer.closed_form(3, 1, "cohomology", 60).free_part
    with pytest.raises(ValueError, match=r"P\[v\] has degree -4"):
        free.poincare(60)


def test_divided_power_two_routes():
    """A divided power algebra has the series of the polynomial algebra on
    the same generator, and its height-h truncation that of TP_h."""
    for deg in (2, 3, 5):
        a = Generator("a", deg)
        for hi in (0, 12, 40):
            assert TensorExpression((Factor(GAMMA, a),)).poincare(hi) == TensorExpression(
                (Factor(P, a),)
            ).poincare(hi)
            for h in (2, 6, 9):
                assert TensorExpression((Factor(GAMMA_TRUNC, a, h),)).poincare(
                    hi
                ) == TensorExpression((Factor(TP, a, h),)).poincare(hi)


def test_series_window_arithmetic():
    a = PoincareSeries(0, 2, (1, 1, 0))
    b = PoincareSeries(0, 2, (1, 0, 1))
    assert restrict(a.mul(b), 0, 4).dims == (1, 1, 1, 1, 0)
    assert series_one(-2, 2).dim(0) == 1


@st.composite
def small_expressions(draw):
    k = draw(st.integers(1, 4))
    factors = []
    for i in range(k):
        deg = draw(st.integers(1, 9))
        kind = draw(st.sampled_from([P, E, TP]))
        h = draw(st.integers(2, 5)) if kind == TP else None
        factors.append(Factor(kind, Generator(f"g{i}", deg), height=h))
    return TensorExpression(tuple(factors))


@given(small_expressions(), small_expressions())
@settings(deadline=None)
def test_poincare_multiplicative(a, b):
    # relabel b's generators so names do not collide
    b2 = TensorExpression(
        tuple(
            Factor(f.kind, Generator(f.gen.name + "'", f.gen.degree), height=f.height)
            for f in b.factors
        )
    )
    lhs = tensor(a, b2).poincare(24)
    rhs = restrict(a.poincare(24).mul(b2.poincare(24)), 0, 24)
    assert lhs.dims == rhs.dims


def _schoolbook_poincare(expr: TensorExpression, hi: int) -> PoincareSeries:
    """Reference: each factor's own series, folded in with PoincareSeries.mul."""
    out = series_one(0, hi)
    for f in expr.factors:
        dims = [0] * (hi + 1)
        for e in f.exponent_range(hi // f.gen.degree):
            dims[e * f.gen.degree] += 1
        out = restrict(out.mul(PoincareSeries(0, hi, tuple(dims))), 0, hi)
    return out


@st.composite
def positive_expressions(draw):
    factors = []
    for i in range(draw(st.integers(0, 5))):
        deg = draw(st.integers(1, 12))
        kind = draw(st.sampled_from([P, E, E_BAR, TP, TP_BAR, GAMMA, GAMMA_TRUNC]))
        h = draw(st.integers(2, 6)) if kind in (TP, TP_BAR, GAMMA_TRUNC) else None
        factors.append(Factor(kind, Generator(f"g{i}", deg), height=h))
    return TensorExpression(tuple(factors))


@given(positive_expressions(), st.integers(0, 40))
@settings(deadline=None, max_examples=300)
def test_poincare_matches_schoolbook_fold(expr, hi):
    assert expr.poincare(hi) == _schoolbook_poincare(expr, hi)


@given(
    dims=st.lists(st.integers(0, 9), min_size=1, max_size=40),
    d=st.integers(1, 50),
    start=st.integers(0, 8),
    length=st.integers(0, 8),
    unbounded=st.booleans(),
)
@example(dims=[1, 2, 3], d=1, start=0, length=0, unbounded=False)  # empty range
@example(dims=[1] * 20, d=3, start=1, length=3, unbounded=False)  # three shifts
@example(dims=[1] * 20, d=3, start=1, length=4, unbounded=False)  # four: prefix sums
@example(dims=[1] * 20, d=6, start=0, length=0, unbounded=True)  # P: 0..19 // 6
@example(dims=[2, 1, 1], d=5, start=0, length=2, unbounded=False)  # d above the window
@settings(deadline=None, max_examples=300)
def test_shifted_slices_match_prefix_sums(dims, d, start, length, unbounded):
    """The product by a range of exponents, added as shifted slices when at
    most three exponents land in the window, equals the prefix-sum formula
    for empty, bounded and unbounded ranges, d above the window included;
    an unbounded range runs to the last exponent the window holds, as a
    polynomial factor's does."""
    stop = max(start, (len(dims) - 1) // d + 1) if unbounded else start + length
    exps = range(start, stop)
    before = list(dims)
    got = graded_algebra._times_exponent_range(dims, d, exps)
    assert dims == before
    assert got == times_exponent_range_prefix(dims, d, exps)
