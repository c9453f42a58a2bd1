"""Reference code that only the tests read: series arithmetic for the
schoolbook Poincare fold, the Q_n matrix on the full monomial basis, the
E[Q_n] split invariant of a report, the degree of u_i, the derivation one
monomial at a time, and the Q_n-square sweep one monomial at a time.
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


def qn_monomial_reference(
    ctx: km2.DerivationContext, exps: tuple[int, ...], missing_as_zero: bool = False
) -> dict[tuple[int, ...], int]:
    """Q_n of one monomial, read off the presentation generator by generator
    with no term table: the Koszul sign from the degree of the prefix, the
    reordering sign from the odd factors the inserted one moves past.
    missing_as_zero must be the flag the context was built with."""
    p = ctx.p
    out: dict[tuple[int, ...], int] = {}
    prefix = 0
    for k, g in enumerate(ctx.gens):
        e = exps[k]
        img = ctx.pres.qn_on_generator(g.name)
        if e and img is not None and (img[0] in ctx.index or not missing_as_zero):
            c = e % p
            if c and p != 2 and prefix % 2 == 1:
                c = p - c
            if c:
                tname, texp = img
                if tname not in ctx.index:
                    raise km2.WindowError(f"image of {g.name} needs {tname}")
                tpos = ctx.index[tname]
                ne = list(exps)
                ne[k] -= 1
                ne[tpos] += texp
                tg = ctx.gens[tpos]
                if not (tg.exp_kind == "E" and ne[tpos] > 1):
                    if p != 2 and tg.degree % 2 == 1:
                        assert tpos > k, "odd image inserted leftward"
                        s = sum(
                            1 for t in range(k + 1, tpos) if ne[t] and ctx.gens[t].degree % 2 == 1
                        )
                        if s % 2:
                            c = p - c
                    key = tuple(ne)
                    v = (out.get(key, 0) + c) % p
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
        prefix += e * g.degree
    return out


def qn_block_reference(
    ctx: km2.DerivationContext,
    src: list[tuple[int, ...]],
    tgt: list[tuple[int, ...]],
    missing_as_zero: bool = False,
) -> km2.Matrix:
    """The Q_n block from src to tgt, one column per qn_monomial_reference."""
    pos = {m: i for i, m in enumerate(tgt)}
    a = km2.Matrix.zeros(len(tgt), len(src), ctx.p)
    for j, m in enumerate(src):
        for t, c in qn_monomial_reference(ctx, m, missing_as_zero).items():
            if ctx.p == 2:
                a.rows[pos[t]] |= 1 << j
            else:
                a.rows[pos[t]][j] = c
    return a


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
