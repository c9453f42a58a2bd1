"""Reference code that only the tests read: series arithmetic for the
schoolbook Poincare fold, the Q_n matrix on the full monomial basis, the
E[Q_n] split invariant of a report, the degree of u_i, and the Q_n-square
sweep one monomial at a time.
"""

import random

from morava_k2 import km2
from morava_k2.graded_algebra import PoincareSeries, TensorExpression


def restrict(series: PoincareSeries, lo: int, hi: int) -> PoincareSeries:
    """series on the window [lo, hi], zero outside its own window."""
    return PoincareSeries(lo, hi, tuple(series.dim(d) for d in range(lo, hi + 1)))


def series_one(lo: int, hi: int) -> PoincareSeries:
    """The unit series on [lo, hi]: 1 in degree 0 when the window holds it."""
    dims = [0] * (hi - lo + 1)
    if lo <= 0 <= hi:
        dims[-lo] = 1
    return PoincareSeries(lo, hi, tuple(dims))


def tensor(a: TensorExpression, b: TensorExpression) -> TensorExpression:
    return TensorExpression(a.factors + b.factors)


def degree_u(i: int, p: int) -> int:
    if i < 0:
        raise ValueError("u indices start at 0")
    return 2 * p**i + 1


def qn_matrix(pres: km2.Presentation, d: int, max_degree: int) -> km2.Matrix:
    """Matrix of Q_n out of degree d over the full monomial basis.

    Cohomology maps degree d to d + (2p^n - 1); homology is the transpose
    going down.  Both endpoint degrees must lie in [0, max_degree].
    """
    dq = pres.qn_degree
    ctx = km2.DerivationContext(pres, max_degree)
    buckets = km2.window_bases(ctx.gens, max_degree)
    if pres.variance == "cohomology":
        return km2._qn_block(ctx, buckets[d], buckets[d + dq])
    if d < dq:
        return km2.Matrix.zeros(0, len(buckets[d]), pres.p)
    return km2._qn_block(ctx, buckets[d - dq], buckets[d]).T


def check_invariant(rep: km2.QnHomologyReport) -> bool:
    """total(d) = trivial(d) + free_rank(d) + free_rank(d - (2p^n - 1)) on the
    report's window, with no negative count."""
    dq = 2 * rep.p**rep.n - 1
    for d in range(rep.max_degree + 1):
        lower = rep.free_rank[d - dq] if d >= dq else 0
        if rep.total[d] != rep.trivial[d] + rep.free_rank[d] + lower:
            return False
        if rep.free_rank[d] < 0 or rep.trivial[d] < 0:
            return False
    return True


def qn_square_reference(
    p: int,
    n: int,
    max_degree: int,
    mixed_samples: int = 2000,
    component_budget: int = 1_000_000,
    seed: int = 0,
) -> tuple[int, list[tuple[int, ...]]]:
    """km2.qn_square_check with every swept monomial pushed through the
    derivation on its own: Q_n of the monomial, then Q_n of that polynomial
    term by term.  Same monomials, same order, same (checked, failures)."""
    pres = km2.build(p, n)
    dq = pres.qn_degree
    rng = random.Random(seed)
    checked = 0
    failures: list[tuple[int, ...]] = []

    def run(ctx: km2.DerivationContext, m: tuple[int, ...]) -> None:
        nonlocal checked
        q1 = ctx.qn_monomial(m)
        if q1 and ctx.qn_poly(q1):
            failures.append(m)
        checked += 1

    for comp in km2.components(pres, max_degree + 2 * dq):
        ctx = km2.DerivationContext(pres, max_degree + 2 * dq, gens=comp, missing_as_zero=True)
        if sum(km2._prefix_sum_series(comp, max_degree)) <= component_budget:
            for bucket in km2.window_bases(comp, max_degree):
                for m in bucket:
                    run(ctx, m)
        else:
            km2.each_monomial(
                [g.degree for g in comp],
                [2 * p - 1] * len(comp),
                max_degree,
                lambda m, _d: run(ctx, m),
            )
            for _ in range(10 * mixed_samples):
                run(ctx, km2._random_monomial(rng, ctx, list(comp), max_degree))
    ctx = km2.DerivationContext(pres, max_degree + 2 * dq, missing_as_zero=True)
    full_gens = [g for g in ctx.gens if g.degree <= max_degree]
    for _ in range(mixed_samples):
        run(ctx, km2._random_monomial(rng, ctx, full_gens, max_degree))
    return checked, failures
