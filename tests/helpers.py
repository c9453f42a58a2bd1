"""Reference code that only the tests read: series arithmetic for the
schoolbook Poincare fold, the Q_n matrix on the full monomial basis, the
trivial Q_n-homology ranked on the whole basis at once, the E[Q_n] split
invariant of a report, the degree of u_i, the derivation one monomial at a
time (at p = 2 over polynomial u_i, through the basis bijection), the
Q_n-square sweep one monomial at a time, the brute-force sweep over the
whole E2 lattice at once, and the answer's Poincare series one tower class
at a time.
"""

import random
from collections import Counter

from morava_k2 import km2, ss_engine
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
    return transpose(km2._qn_block(ctx, buckets[d - dq], buckets[d]))


def transpose(m: km2.Matrix) -> km2.Matrix:
    rows, cols = m.shape
    if m.p != 2:
        return km2.Matrix([[r[j] for r in m.rows] for j in range(cols)], rows, m.p)
    return km2.Matrix(
        [sum((r >> j & 1) << i for i, r in enumerate(m.rows)) for j in range(cols)], rows, 2
    )


def whole_basis_trivial(p: int, n: int, hi: int) -> list[int]:
    """Trivial Q_n-homology dimensions on [0, hi] from the Q_n blocks of the
    whole monomial basis, with no split into components."""
    pres = km2.build(p, n)
    return km2.ExplicitHomology(pres, pres.generators(hi + pres.qn_degree), hi).dims


# ---- p = 2 over polynomial u_i
#
# H*K(Z_2, 2) is F_2[i2, u_0, u_1, ...] with every u_i polynomial.  A monomial
# there is a dict {name: exponent}; the bijection u_i^(2k+e) <-> u_i^e z_{i+1}^k
# carries it to the presentation's basis.


def polynomial_basis_p2(hi: int) -> list[tuple[dict[str, int], int]]:
    """(monomial, degree) for every monomial of degree <= hi over i2 and the
    polynomial u_i of degree 2^(i+1) + 1."""
    gens = [("i2", 2)]
    while 2 ** len(gens) + 1 <= hi:
        gens.append((f"u_{len(gens) - 1}", 2 ** len(gens) + 1))
    out = [({}, 0)]
    for name, deg in gens:
        out = [
            ({**mono, name: e} if e else mono, d + e * deg)
            for mono, d in out
            for e in range((hi - d) // deg + 1)
        ]
    return out


def polynomial_qn_p2(n: int, mono: dict[str, int]) -> set[frozenset[tuple[str, int]]]:
    """Q_n of one monomial over polynomial u_i, as the set of its terms mod 2:
    Q_n(i2) = u_n, and Q_n(u_i) = u_{n-i-1}^(2^(i+1)) for i < n, 0 for i = n,
    u_{i-n-1}^(2^(n+1)) for i > n, extended as a derivation."""
    out: set[frozenset[tuple[str, int]]] = set()
    for name, e in mono.items():
        if e % 2 == 0:
            continue
        if name == "i2":
            tname, texp = f"u_{n}", 1
        else:
            i = int(name[2:])
            if i == n:
                continue
            tname, texp = (f"u_{n - i - 1}", 2 ** (i + 1)) if i < n else (f"u_{i - n - 1}", 2 ** (n + 1))
        t = dict(mono)
        t[name] -= 1
        if not t[name]:
            del t[name]
        t[tname] = t.get(tname, 0) + texp
        out ^= {frozenset(t.items())}
    return out


def to_polynomial_basis(ctx: km2.DerivationContext, exps: tuple[int, ...]) -> dict[str, int]:
    """u_i^e z_{i+1}^k -> u_i^(2k+e)."""
    out: dict[str, int] = {}
    for e, g in zip(exps, ctx.gens):
        if e:
            name, x = (f"u_{g.index - 1}", 2 * e) if g.family == "z" else (g.name, e)
            out[name] = out.get(name, 0) + x
    return out


def from_polynomial_basis(ctx: km2.DerivationContext, mono: dict[str, int]) -> tuple[int, ...]:
    """u_i^(2k+e) -> u_i^e z_{i+1}^k; KeyError names a generator the
    image needs and ctx lacks."""
    exps = [0] * len(ctx.gens)
    for name, e in mono.items():
        if name != "i2":
            e, k = e % 2, e // 2
            if k:
                exps[ctx.index[f"z_{int(name[2:]) + 1}"]] += k
        if e:
            exps[ctx.index[name]] += e
    return tuple(exps)


def qn_monomial_reference(
    ctx: km2.DerivationContext, exps: tuple[int, ...], missing_as_zero: bool = False
) -> dict[tuple[int, ...], int]:
    """Q_n of one monomial, read off the presentation generator by generator
    with no term table: the Koszul sign from the degree of the prefix, the
    reordering sign from the odd factors the inserted one moves past.  At
    p = 2 the monomial goes to polynomial u_i and back instead, so no
    carry into u_i^2 is involved.  missing_as_zero must be the flag the
    context was built with."""
    p = ctx.p
    out: dict[tuple[int, ...], int] = {}
    if p == 2:
        for key in polynomial_qn_p2(ctx.pres.n, to_polynomial_basis(ctx, exps)):
            try:
                out[from_polynomial_basis(ctx, dict(key))] = 1
            except KeyError as exc:
                if not missing_as_zero:
                    raise km2.WindowError(f"Q_n of {exps} needs {exc}") from None
        return out
    prefix = 0
    for k, g in enumerate(ctx.gens):
        e = exps[k]
        img = ctx.pres.qn_on_generator(g.name)
        if e and img is not None and (img[0] in ctx.index or not missing_as_zero):
            c = e % p
            if c and prefix % 2 == 1:
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
                    if tg.degree % 2 == 1:
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
    p: int, n: int, max_degree: int, mixed_samples: int = 2000
) -> tuple[int, list[tuple[int, ...]]]:
    """km2.qn_square_check with every swept monomial pushed through the
    derivation on its own: Q_n of the monomial, then Q_n of that polynomial.
    Same monomials, same order, same (checked, failures)."""
    pres = km2.build(p, n)
    dq = pres.qn_degree
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
        for bucket in km2.window_bases(comp, max_degree):
            for m in bucket:
                run(ctx, m)
    rng = random.Random(km2.SQUARE_SEED)
    ctx = km2.DerivationContext(pres, max_degree + 2 * dq, missing_as_zero=True)
    full_gens = [g for g in ctx.gens if g.degree <= max_degree]
    for _ in range(mixed_samples):
        run(ctx, km2._random_monomial(rng, ctx, full_gens, max_degree))
    return checked, failures


# ---- the brute-force sweep over the whole E2 lattice


def lattice_name(lat: ss_engine._Lattice, mono: tuple) -> str:
    """A lattice monomial in the E2 generator names: y_j, w, z_i."""
    parts = []
    for c, e in zip(lat.coords, mono):
        if not e:
            continue
        if c.tag == "digit":
            name = f"y_{c.index}"
        elif c.tag == "half":
            name = km2.w_name(2 * lat.n + 1)
        elif c.tag == "w":
            name = km2.w_name(2 * c.index)
        else:
            name = f"z_{c.index}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def bruteforce_full_reference(p: int, n: int, variance: str, top: int) -> ss_engine.Page:
    """ss_engine.run_bruteforce on [0, top] with one lattice over every
    residue class and the head at once, so no _fold; each tower is named by
    its lattice monomial.

    The lattice is cut where a value in [0, top] stops depending on arcs:
    at top + enum_limit - fold_limit, which is top plus the largest degree
    step in cohomology and top plus the stacked downward steps in homology.
    """
    plan = ss_engine._plan(p, n, top, variance)
    limit = top + plan.enum_limit - plan.fold_limit
    coords = ss_engine._head_coords(p, n, limit)
    for cls in range(n + 1):
        coords += ss_engine._class_coords(p, n, cls, limit)
    lat = ss_engine._Lattice(p, n, coords, limit)
    fired, bound = ss_engine._sweep(lat, ss_engine.schedule(p, n, plan.j_ext, variance), variance)
    summands = []
    for mono, g in sorted(lat.monomials.items(), key=lambda kv: kv[1]):
        if g > top:
            continue
        f = fired.get(mono, 0)
        b = bound.get(mono, ss_engine.INF)
        if b <= f:
            continue  # the whole tower cancels
        if f != 0:
            raise RuntimeError(
                f"tower over {lattice_name(lat, mono)} survives only above filtration {f}"
            )
        order = ss_engine.INF if b == ss_engine.INF else int(b)
        summands.append(ss_engine.TowerSummand(lattice_name(lat, mono), g, order))
    return ss_engine.Page(
        p=p,
        n=n,
        variance=variance,
        stage=plan.max_stage + 1 if plan.max_stage else 2,
        window=(0, top),
        v_free=None,
        torsion=tuple(summands),
        zp_family=ss_engine.zp_family_counts(p, n, variance, top),
    )


# ---- the answer's series class by class


def poincare_answer_reference(a, window=None):
    """answer.poincare_answer one class at a time: every tower is walked
    through ss_engine._tower_powers and each class lands in its v-power row.
    Returns (total, rows, family_counts), rows[s] the v^s row for every s
    with a class in the window."""
    lo, hi = a.window if window is None else window
    dv = ss_engine.v_degree(a.p, a.n, a.variance)
    rows: dict[int, Counter] = {}

    def tower(g: int, count: int, order) -> None:
        for e in ss_engine._tower_powers(g, order, dv, lo, hi):
            rows.setdefault(e, Counter())[g + e * dv] += count

    series = ss_engine._without_v(a.free_part).poincare(0, a.window[1])
    for d in range(series.lo, series.hi + 1):
        if series.dim(d):
            tower(d, series.dim(d), ss_engine.INF)
    family_counts = []
    for f in a.torsion_families:
        fs = f.expression.poincare(0, a.window[1])
        family_counts.append(sum(fs.dims))
        for d in range(fs.lo, fs.hi + 1):
            if fs.dim(d):
                tower(d, fs.dim(d), f.order)
    for d, c in a.zp_family:
        if lo <= d <= hi:
            rows.setdefault(0, Counter())[d] += c

    total = [0] * (hi - lo + 1)
    out = {}
    for s, row in rows.items():
        dims = [0] * (hi - lo + 1)
        for d, c in row.items():
            dims[d - lo] += c
            total[d - lo] += c
        out[s] = PoincareSeries(lo, hi, tuple(dims))
    return PoincareSeries(lo, hi, tuple(total)), out, tuple(family_counts)
