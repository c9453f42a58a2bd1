"""Adams spectral sequence engine for the connective Morava K-theories of K(Z_p, 2).

The E2 page over E[Q_n] is run to E-infinity in two independent ways:

* ``run_closed_form(p, n, variance, top)`` builds the E2 page and the
  window's schedule itself and applies each scheduled differential as a
  tensor rewrite of the page's v-free factors; each stage adds the towers
  of the torsion families (``_families``, the rule the answer module is
  built from) whose order is that stage,
* ``run_bruteforce`` replays the same schedule monomial by monomial over the
  E2 lattice and reads tower orders off a matching sweep.

Both report per-degree free ranks, v-torsion towers and the filtration-0 Z_p
family; ``oracle_match`` compares the two degree for degree on [0, top], and
``pairing_check`` / ``uct_transport`` verify the duality between the homology
and cohomology runs.

The Z_p family, too, comes two ways: the closed route reads it off the
total and E2 Poincare series (``zp_family_closed``, no linear algebra), the
brute route off the F_p ranks of ``km2.qn_homology`` (``zp_family_counts``).
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import groupby

from . import km2, numerology
from .graded_algebra import (
    E,
    E_BAR,
    GAMMA,
    GAMMA_TRUNC,
    P,
    TP,
    TP_BAR,
    Factor,
    Generator,
    PoincareSeries,
    TensorExpression,
)

INF = math.inf


def degree_step(stage: int, p: int, n: int) -> int:
    """Topological degree crossed by a stage-r differential: 1 + 2r(p^n - 1)."""
    return 1 + 2 * stage * (p**n - 1)


def v_degree(p: int, n: int, variance: str) -> int:
    d = 2 * (p**n - 1)
    return -d if variance == "cohomology" else d


# ---------------------------------------------------------------------------
# the generator registry: ids, names and degrees of v, y_j, w, z_i and the
# p = 2 products y_j w_{n+j}, each homology dual starred, and the factors
# built from them.  Every E2 page, rewrite, schedule and answer module takes
# its generators from here.

_ID_V = 1
_ID_Y = 100
_ID_W = 1000
_ID_Z = 5000
_ID_PROD = 9000  # the p = 2 product sources y_j w_{n+j}


def _star(variance: str) -> str:
    return "" if variance == "cohomology" else "*"


def _gen_v(p: int, n: int, variance: str) -> Generator:
    return Generator(_ID_V, "v", v_degree(p, n, variance))


def _gen_y(j: int, p: int, star: str) -> Generator:
    return Generator(_ID_Y + j, f"y_{j}{star}", numerology.degree_y(j, p))


def _gen_w(index2: int, p: int, n: int, star: str) -> Generator:
    return Generator(_ID_W + index2, km2.w_name(index2) + star, numerology.degree_w(index2, p, n))


def _gen_z(i: int, p: int, star: str) -> Generator:
    return Generator(_ID_Z + i, f"z_{i}{star}", numerology.degree_z(i, p))


def _half_source(j: int, p: int, n: int, star: str) -> Generator:
    """The cohomology source of the differential hitting z_{n+j+1}: the
    product y_j w_{n+j} in the p = 2 special range, otherwise w_{n+j+1/2}."""
    if numerology.p2_special_range(j, p, n):
        w = _gen_w(2 * (n + j), p, n, "")
        return Generator(
            _ID_PROD + j, f"y_{j} {w.name}{star}", numerology.degree_y(j, p) + w.degree
        )
    return _gen_w(2 * (n + j) + 1, p, n, star)


def _without_v(expr: TensorExpression) -> TensorExpression:
    """expr with its P[v] factor dropped: the generators of the v-towers."""
    return TensorExpression(tuple(f for f in expr.factors if f.gen.name != "v"))


def _poly_factor(gen: Generator, variance: str) -> Factor:
    return Factor(P, gen) if variance == "cohomology" else Factor(GAMMA, gen)


def _trunc_factor(gen: Generator, height: int, variance: str) -> Factor | None:
    if height < 2:  # a height-1 truncation is the unit factor
        return None
    kind = TP if variance == "cohomology" else GAMMA_TRUNC
    return Factor(kind, gen, height)


def _head_factors(p: int, n: int, variance: str) -> list[Factor]:
    """The first-line factors TP_{p^i}[z_{n-i}], 1 <= i < n, that no
    differential touches."""
    out = []
    for i in range(1, n):
        f = _trunc_factor(_gen_z(n - i, p, _star(variance)), p**i, variance)
        if f is not None:
            out.append(f)
    return out


def _z_tail(p: int, n: int, start: int, hi: int, variance: str) -> list[Factor]:
    """TP_{p^n}[z_i] for i = start, start + 1, ... while |z_i| <= hi."""
    out = []
    i = start
    while numerology.degree_z(i, p) <= hi:
        f = _trunc_factor(_gen_z(i, p, _star(variance)), p**n, variance)
        if f is not None:
            out.append(f)
        i += 1
    return out


def _v_free(p: int, n: int, variance: str, factors, hi: int) -> TensorExpression:
    """P[v] tensored with those factors whose generator degree is at most hi."""
    return TensorExpression(
        (Factor(P, _gen_v(p, n, variance)), *(f for f in factors if f.gen.degree <= hi))
    )


class TorsionFamily(namedtuple("TorsionFamily", "j kind order base_degree expression")):
    """One v-torsion summand family TP_order[v] (x) expression.

    kind "y" families are indexed by the differential on y_j (order r(j)),
    kind "half" families by the one hitting z_{n+j+1} (order r'(j)).  The
    expression contains every non-v tensor cofactor, with its lowest basis
    element in degree base_degree; families whose base lies above top still
    appear when their differential's source is at most top, carrying no
    generators in [0, top].
    """

    __slots__ = ()


def _families(p: int, n: int, variance: str, hi: int) -> list[TorsionFamily]:
    """The torsion families whose differential's source degree is at most hi,
    sorted by order, y before half.  The answer module lists them and the
    closed-form rewrite adds their towers stage by stage."""
    star = _star(variance)
    head = _head_factors(p, n, variance)
    out: list[TorsionFamily] = []

    def add(j: int, kind: str, order: int, base: int, factors: list[Factor], z0: int) -> None:
        # then E[w_{n+j+i}] for i = 1..n, the z tail from z_{z0} and the head
        factors += [Factor(E, _gen_w(2 * (n + j + i), p, n, star)) for i in range(1, n + 1)]
        factors += _z_tail(p, n, z0, hi, variance) + head
        out.append(TorsionFamily(j, kind, order, base, TensorExpression(tuple(factors))))

    j = 1
    while numerology.degree_y(j, p) <= hi:
        y = _gen_y(j, p, star)
        factors = [_poly_factor(_gen_y(j + 1, p, star), variance)]
        if variance == "cohomology":
            t = _trunc_factor(y, p - 1, variance)
            if t is not None:
                factors.append(t)
            w = _gen_w(2 * (n + j), p, n, star)
            factors.append(Factor(E_BAR, w))
            base = w.degree
        else:
            factors.append(Factor(TP_BAR, y, p))
            base = y.degree
        add(j, "y", numerology.r(j, p, n), base, factors, n + j + 1)
        j += 1

    j = 0 if p != 2 else 1
    while (src := _half_source(j, p, n, star)).degree <= hi:
        z = _gen_z(n + j + 1, p, star)
        factors = [_poly_factor(_gen_y(j + 1, p, star), variance)]
        if variance == "cohomology":
            factors.append(Factor(TP_BAR, z, p**n))
            base = z.degree
        else:
            factors.append(Factor(E_BAR, src))
            t = _trunc_factor(z, p**n - 1, variance)
            if t is not None:
                factors.append(t)
            base = src.degree
        add(j, "half", numerology.rprime(j, p, n), base, factors, n + j + 2)
        j += 1

    out.sort(key=lambda f: (f.order, 0 if f.kind == "y" else 1, f.j))
    return out


# ---------------------------------------------------------------------------
# the differential schedule


class Differential(
    namedtuple(
        "Differential",
        "stage source target source_degree target_degree family index paired",
        defaults=(False,),
    )
):
    """One scheduled differential d(source) = v^stage * target.

    family "y" entries follow the d^{r(j)}(y_j) = v^{r(j)} w_{n+j} pattern and
    family "half" the d^{r'(j)}(w_{n+j+1/2}) = v^{r'(j)} z_{n+j+1} pattern;
    index holds the j.  At p = 2 the stages with j <= n+1 coincide in pairs
    (r = r' = 2^j) and both entries carry paired=True.
    """

    __slots__ = ()


def schedule(p: int, n: int, j_max: int, variance: str = "cohomology") -> list[Differential]:
    """All differentials with family index <= j_max, ordered by stage.

    Every entry is checked against the degree identity
    |target| = |source| + 1 + 2r(p^n - 1), with the roles of source and
    target swapped in homology where differentials lower degree.
    """
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    km2.build(p, n, variance)  # validates p prime, n >= 1, variance spelling
    star = _star(variance)
    entries: list[Differential] = []

    def add(stage: int, family: str, j: int, source: Generator, target: Generator) -> None:
        # source and target as in cohomology; homology swaps the roles
        if variance == "homology":
            source, target = target, source
        paired = numerology.p2_special_range(j, p, n)
        entries.append(
            Differential(
                stage, source.name, target.name, source.degree, target.degree,
                family, j, paired,
            )
        )

    for j in range(1, j_max + 1):
        add(numerology.r(j, p, n), "y", j, _gen_y(j, p, star), _gen_w(2 * (n + j), p, n, star))
    for j in range(0 if p != 2 else 1, j_max + 1):
        add(
            numerology.rprime(j, p, n), "half", j,
            _half_source(j, p, n, star), _gen_z(n + j + 1, p, star),
        )

    for e in entries:
        lo_d, hi_d = e.source_degree, e.target_degree
        if variance == "homology":
            lo_d, hi_d = hi_d, lo_d
        got = numerology.divisibility_check(lo_d, hi_d, p, n)
        if got != e.stage:
            raise RuntimeError(
                f"scheduled d^{e.stage}({e.source}) = v^r {e.target} fails the "
                f"degree identity (divisibility gives {got})"
            )
        if variance == "cohomology" and e.source.startswith("z"):
            raise RuntimeError(f"{e.source} is a permanent cycle and cannot be a source")
    sources = [e.source for e in entries]
    if len(set(sources)) != len(sources):
        raise RuntimeError("two scheduled differentials share a source")

    entries.sort(key=lambda e: (e.stage, 0 if e.family == "y" else 1))
    return entries


# ---------------------------------------------------------------------------
# pages


class TowerSummand(
    namedtuple(
        "TowerSummand", "generator_expression generator_degree order count", defaults=(1,)
    )
):
    """A P[v]-tower over a generator: order-r torsion (v^r kills it) or free.

    generator_expression is a TensorExpression for closed-form families and
    None on a brute-force page, whose towers are counted per degree and
    order, not named.  order is a positive int, or math.inf for a free
    tower.  count collapses equal towers.
    """

    __slots__ = ()


def _summands(expr: TensorExpression, order, hi: int) -> list[TowerSummand]:
    """One order-`order` tower per basis element of expr in [0, hi], collapsed
    per degree."""
    return [TowerSummand(expr, d, order, c) for d, c in enumerate(expr.poincare(hi).dims) if c]


def _tower_powers(g: int, order, dv: int, lo: int, hi: int) -> range:
    """The v-powers e < order whose class g + e*dv, in a P[v]-tower on a
    degree-g generator with |v| = dv, lies in [lo, hi]; order is a positive
    int or INF for a free tower."""
    s = abs(dv)
    if dv < 0:
        first, last = -((hi - g) // s), (g - lo) // s
    else:
        first, last = -((g - lo) // s), (hi - g) // s
    if order != INF:
        last = min(last, order - 1)
    return range(max(first, 0), last + 1)


class Page(namedtuple("Page", "p n variance stage top v_free torsion zp_family")):
    """A page on [0, top]: v_free is a TensorExpression or None, torsion a
    tuple of TowerSummands and zp_family (degree, count) pairs."""

    __slots__ = ()

    def free_by_degree(self) -> Counter:
        """Generator degrees of the v-free part, all in [0, top]."""
        out: Counter = Counter()
        if self.v_free is not None:
            for d, c in enumerate(_without_v(self.v_free).poincare(self.top).dims):
                if c:
                    out[d] += c
        for t in self.torsion:
            if t.order == INF:
                out[t.generator_degree] += t.count
        return out

    def torsion_by_degree(self) -> Counter:
        out: Counter = Counter()
        for t in self.torsion:
            if t.order != INF:
                out[(t.generator_degree, t.order)] += t.count
        return out

    def _towers(self) -> list[tuple[int, object, int]]:
        """(generator degree, order, count) of each summand in torsion: the
        v-torsion towers and, on a brute-force page, the free ones."""
        return [(g, order, c) for _expr, g, order, c in self.torsion]

    def chart_dims(self, lo: int, hi: int) -> Counter:
        """Dimension of each (degree, filtration) spot in [lo, hi], from the
        towers on every generator in [0, top]."""
        dv = v_degree(self.p, self.n, self.variance)
        towers = [(g, INF, c) for g, c in self.free_by_degree().items()]
        towers += [t for t in self._towers() if t[1] != INF]
        out: Counter = Counter()
        for g, order, c in towers:
            for e in _tower_powers(g, order, dv, lo, hi):
                out[(g + e * dv, e)] += c
        for d, c in self.zp_family:
            if lo <= d <= hi:
                out[(d, 0)] += c
        return out

    def chart_series(self, lo: int, hi: int) -> PoincareSeries:
        """Dimension of each degree in [lo, hi]: chart_dims(lo, hi) summed
        over the filtrations, without visiting a spot.

        The towers are runs in one array that spans [lo, hi] and [0, top],
        where every tower generator lies.  A tower on a degree-g generator
        enters as +c at g and, for finite order r, as -c at g + r*dv
        (dv = v_degree, negative in cohomology); a run end past the array
        in the direction of v touches no degree of [lo, hi] and is dropped.
        The v-free generators enter as their series.  One prefix sum with
        stride |v|, taken in the direction of v, then counts each degree
        once per tower covering it.
        """
        dv = v_degree(self.p, self.n, self.variance)
        base, end = min(lo, 0), max(hi, self.top)
        runs = [0] * (end - base + 1)
        if self.v_free is not None:
            runs[-base : self.top - base + 1] = _without_v(self.v_free).poincare(self.top).dims
        for g, order, c in self._towers():
            runs[g - base] += c
            if order != INF and base <= g + order * dv <= end:
                runs[g + order * dv - base] -= c
        for i in range(dv, len(runs)) if dv > 0 else range(len(runs) - 1 + dv, -1, -1):
            runs[i] += runs[i - dv]
        for d, c in self.zp_family:
            if lo <= d <= hi:
                runs[d - base] += c
        return PoincareSeries(lo, hi, tuple(runs[lo - base : hi - base + 1]))


def zp_family_counts(p: int, n: int, variance: str, hi: int) -> tuple[tuple[int, int], ...]:
    """Per-degree counts of the filtration-0 Z_p family on [0, hi], read off
    the F_p ranks of km2.qn_homology (the brute route's source).

    Each free E[Q_n]-summand of the mod-p cohomology on a degree-d generator
    contributes one Z_p: at the top cell d + 2p^n - 1 in cohomology, at the
    bottom cell d in homology.
    """
    ranks = km2.qn_homology(p, n, "cohomology", hi).free_rank
    dq = 2 * p**n - 1
    if variance == "cohomology":
        pairs = [(d + dq, ranks[d]) for d in range(hi + 1) if ranks[d] and d + dq <= hi]
    else:
        pairs = [(d, ranks[d]) for d in range(hi + 1) if ranks[d]]
    return tuple(pairs)


# ---------------------------------------------------------------------------
# the closed-form page and its rewrites


class _PageState:
    """The v-free factor list of the closed-form run, rewritten stage by stage.

    Each stage checks that the page carries its source and target factors,
    moves them on, and appends the towers of the torsion families whose
    order is that stage; the families themselves come from _families.
    """

    def __init__(self, p: int, n: int, variance: str, top: int, families=()):
        self.p, self.n, self.variance = p, n, variance
        self.top = top
        self.star = _star(variance)
        self.head = _head_factors(p, n, variance)
        self.jy = 1
        if p == 2:
            self.half: int | None = None
            self.wlist: list[int] = []
            self.tpw = list(range(n + 1, 2 * n + 2))
            self.zlo = 2 * n + 3
        else:
            self.half = 2 * n + 1  # doubled index of w_{n+1/2}
            self.wlist = list(range(n + 1, 2 * n + 1))
            self.tpw = []
            self.zlo = n + 1
        self.families = families
        self.torsion: list[TowerSummand] = []
        self.stage = 2

    def _base_factors(self) -> list[Factor]:
        p, n = self.p, self.n
        out = list(self.head)
        out.append(_poly_factor(_gen_y(self.jy, p, self.star), self.variance))
        if self.half is not None:
            out.append(Factor(E, _gen_w(self.half, p, n, self.star)))
        for m in sorted(self.wlist):
            out.append(Factor(E, _gen_w(2 * m, p, n, self.star)))
        for m in sorted(self.tpw):
            f = _trunc_factor(_gen_w(2 * m, p, n, self.star), 2 ** (n + 1), self.variance)
            if f is not None:
                out.append(f)
        return out + _z_tail(p, n, self.zlo, self.top, self.variance)

    def snapshot(self, zp: tuple[tuple[int, int], ...]) -> Page:
        return Page(
            p=self.p,
            n=self.n,
            variance=self.variance,
            stage=self.stage,
            top=self.top,
            v_free=_v_free(self.p, self.n, self.variance, self._base_factors(), self.top),
            torsion=tuple(self.torsion),
            zp_family=zp,
        )

    def apply_stage(self, group: list[Differential]) -> None:
        st = group[0].stage
        if any(e.paired for e in group):
            if len(group) != 2 or {e.family for e in group} != {"y", "half"}:
                raise RuntimeError("a p = 2 paired stage needs exactly its two entries")
            self._apply_p2_paired(group[0].index)
        else:
            if len(group) != 1:
                raise RuntimeError(f"unrelated differentials share stage {st}")
            e = group[0]
            if e.family == "y":
                self._apply_y(e.index)
            else:
                self._apply_half(e.index)
        for f in self.families:
            if f.order == st:
                self.torsion += _summands(f.expression, st, self.top)
        self.stage = st + 1

    def _apply_y(self, j: int) -> None:
        """d(y_j) = v^r w_{n+j} on P[y_j] (x) E[w_{n+j}]: free survivors are
        P[y_{j+1}] (x) E[y_j^{p-1} w_{n+j}], the latter renamed w_{n+j+1/2}."""
        n = self.n
        if self.jy != j or (n + j) not in self.wlist or self.half is not None:
            raise RuntimeError(f"page does not carry P[y_{j}] (x) E[{km2.w_name(2 * (n + j))}]")
        self.jy = j + 1
        self.wlist.remove(n + j)
        self.half = 2 * (n + j) + 1

    def _apply_half(self, j: int) -> None:
        """d(w_{n+j+1/2}) = v^r z_{n+j+1} on E[w] (x) TP_{p^n}[z]: the free
        survivor w z^{p^n - 1} is renamed w_{2n+j+1}."""
        n = self.n
        if self.half != 2 * (n + j) + 1 or self.zlo != n + j + 1:
            raise RuntimeError(
                f"page does not carry E[{km2.w_name(2 * (n + j) + 1)}] (x) TP[z_{n + j + 1}]"
            )
        self.half = None
        self.zlo = n + j + 2
        self.wlist.append(2 * n + j + 1)

    def _apply_p2_paired(self, j: int) -> None:
        """The p = 2 doubled rule at stage 2^j: d(y_j w^c) = v^r w^{c+1} inside
        P[y_j] (x) TP_{2^{n+1}}[w_{n+j}]; survivors P[y_{j+1}] (x) E[y_j w^{2^{n+1}-1}]."""
        n = self.n
        if self.jy != j or (n + j) not in self.tpw:
            raise RuntimeError(f"page does not carry P[y_{j}] (x) TP[{km2.w_name(2 * (n + j))}]")
        self.jy = j + 1
        self.tpw.remove(n + j)
        self.wlist.append(2 * n + j + 1)


def zp_family_closed(p: int, n: int, variance: str, hi: int) -> tuple[tuple[int, int], ...]:
    """The filtration-0 Z_p family on [0, hi] from two closed-form series.

    total is the Poincare series of H*K(Z_p, 2) over the presentation's
    generators and trivial that of the E2 page without v.  A free
    E[Q_n]-summand on a degree-d generator spans d and d + 2p^n - 1, so
    free[d] = total[d] - trivial[d] - free[d - (2p^n - 1)]; each free
    summand gives one Z_p at its top cell in cohomology and at its bottom
    cell in homology.  No F_p rank is computed here.
    """
    pres = km2.build(p, n, variance)
    total = TensorExpression(
        tuple(
            Factor(P if g.exp_kind == "P" else E, Generator(k + 1, g.name, g.degree))
            for k, g in enumerate(pres.generators(hi))
        )
    ).poincare(hi)
    base = _PageState(p, n, variance, hi)._base_factors()
    trivial = TensorExpression(tuple(base)).poincare(hi)
    dq = pres.qn_degree
    free = [0] * (hi + 1)
    for d in range(hi + 1):
        free[d] = total.dim(d) - trivial.dim(d) - (free[d - dq] if d >= dq else 0)
        if free[d] < 0:
            raise AssertionError(f"negative free rank at degree {d}")
    if variance == "cohomology":
        return tuple((d + dq, r) for d, r in enumerate(free) if r and d + dq <= hi)
    return tuple((d, r) for d, r in enumerate(free) if r)


def e2_closed_form(p: int, n: int, variance: str, top: int) -> Page:
    """The E2 page on [0, top]: P[v] tensored with the trivial part of the
    Q_n-homology, written as the closed-form factor list of the rewrite,
    plus the filtration-0 Z_p family from zp_family_closed.  No F_p linear
    algebra runs; criterion 3 and the verify e2 suite compare this page
    with km2.qn_homology."""
    km2.check_top(top)
    return _PageState(p, n, variance, top).snapshot(zp_family_closed(p, n, variance, top))


def closed_form_pages(p: int, n: int, variance: str, top: int) -> Iterator[Page]:
    """The E2 page, then the page after each stage of window_schedule in
    turn, from one tensor rewrite of the E2 page; each stage adds the towers
    of the _families entries of its order."""
    e2 = e2_closed_form(p, n, variance, top)
    yield e2
    state = _PageState(p, n, variance, top, tuple(_families(p, n, variance, top)))
    for _, group in groupby(window_schedule(p, n, variance, top), key=lambda e: e.stage):
        state.apply_stage(list(group))
        yield state.snapshot(e2.zp_family)


def run_closed_form(p: int, n: int, variance: str, top: int) -> Page:
    """E-infinity on [0, top] by tensor rewriting, one scheduled stage at a time."""
    for out in closed_form_pages(p, n, variance, top):
        pass
    return out


# ---------------------------------------------------------------------------
# window planning shared by both runs


class _WindowPlan(namedtuple("_WindowPlan", "j_top j_ext max_stage enum_limit")):
    """j_top is the widest family index whose action reaches into [0, top],
    j_ext the widest used for lattice arcs, max_stage the largest stage
    among in-window stages and enum_limit the per-class lattice
    enumeration bound."""

    __slots__ = ()


def _stage_relevance(p: int, n: int, j: int) -> list[tuple[int, int]]:
    """(stage, lowest degree touched) of the index-j differentials.

    The low end of a stage's action is its cohomology source degree: in
    cohomology the torsion it creates sits at and above the target, in
    homology at and above that same source degree (the towers land on
    gamma_1 of the dual class).
    """
    out = []
    if j >= 1:
        out.append((numerology.r(j, p, n), numerology.degree_y(j, p)))
    if j >= 1 or p != 2:
        out.append((numerology.rprime(j, p, n), _half_source(j, p, n, "").degree))
    return out


def _plan(p: int, n: int, variance: str, top: int) -> _WindowPlan:
    # at odd p index 0 has only the half source w_{n+1/2}, which lies above
    # y_1, so the scan stops only at an index j >= 1 with no source in
    # [0, top]; j_top ends at 1 or above either way
    j_top = 1
    max_stage = 0
    j = 0 if p != 2 else 1
    while True:
        stages = [st for st, src in _stage_relevance(p, n, j) if src <= top]
        if j >= 1 and not stages:
            break
        if stages:
            j_top = j
            max_stage = max(max_stage, *stages)
        j += 1
    if variance == "cohomology":
        # a value at degree g only depends on arcs reaching up to g + the
        # degree step of max_stage
        enum_limit = top + (n + 2) * degree_step(max_stage, p, n)
    else:
        # downward arcs chain: a value can depend on strictly descending
        # stages stacked above it, so allow the sum of their degree steps
        span = 0
        j = 0 if p != 2 else 1
        while True:
            stages = [st for st, _src in _stage_relevance(p, n, j)]
            if min(stages) > max_stage:
                break
            span += sum(degree_step(st, p, n) for st in stages if st <= max_stage)
            j += 1
        enum_limit = top + span
    j_ext = j_top
    while min(src for _st, src in _stage_relevance(p, n, j_ext + 1)) <= enum_limit:
        j_ext += 1
    return _WindowPlan(j_top, j_ext, max_stage, enum_limit)


def fold_work(p: int, n: int, variance: str, top: int) -> int:
    """The work of run_bruteforce's folds on [0, top], predicted from _plan
    before any lattice is built: the sum over folds of (top + 1), the slots
    of each key, times the order pairs multiplied.  A class part holds the
    free order and the stages of its scheduled differentials that start in
    [0, top]; the running product holds every order folded in so far."""
    sched = schedule(p, n, _plan(p, n, variance, top).j_ext, variance)
    running = {INF}
    work = 0
    for cls in range(n + 1):
        orders = {INF} | {
            e.stage
            for e in sched
            if e.index % (n + 1) == cls and min(e.source_degree, e.target_degree) <= top
        }
        work += (top + 1) * len(running) * len(orders)
        running |= orders
    return work + (top + 1) * len(running)


def window_schedule(p: int, n: int, variance: str, top: int) -> list[Differential]:
    """The schedule truncated to the families visible inside [0, top]."""
    return schedule(p, n, _plan(p, n, variance, top).j_top, variance)


# ---------------------------------------------------------------------------
# the brute-force lattice


class _Coord(namedtuple("_Coord", "tag index degree cap")):
    """One E2 coordinate: tag "digit", "w", "half" or "z", and cap the
    largest allowed exponent."""

    __slots__ = ()


def _class_coords(p: int, n: int, cls: int, limit: int) -> list[_Coord]:
    """E2 coordinates in one residue class of the family index mod n+1.

    Class c owns the base-p digits of the y_1 exponent at places j-1 with
    j = c mod n+1, the exterior (at p = 2, truncated) w column tied to those
    digits, and every tail generator z_{n+s} with s = c+1 mod n+1.
    """
    coords: list[_Coord] = []
    j = cls if cls >= 1 else n + 1
    while numerology.degree_y(j, p) <= limit:
        coords.append(_Coord("digit", j, numerology.degree_y(j, p), p - 1))
        j += n + 1
    if p == 2:
        m = n + cls if cls >= 1 else 2 * n + 1
        d = numerology.degree_w(2 * m, p, n)
        if d <= limit:
            coords.append(_Coord("w", m, d, 2 ** (n + 1) - 1))
    elif cls == 0:
        d = numerology.degree_w(2 * n + 1, p, n)
        if d <= limit:
            coords.append(_Coord("half", 0, d, 1))
    else:
        m = n + cls
        d = numerology.degree_w(2 * m, p, n)
        if d <= limit:
            coords.append(_Coord("w", m, d, 1))
    s = cls + 1
    if p == 2:
        while s < n + 3:
            s += n + 1
    while numerology.degree_z(n + s, p) <= limit:
        coords.append(_Coord("z", n + s, numerology.degree_z(n + s, p), p**n - 1))
        s += n + 1
    return coords


def _head_coords(p: int, n: int, limit: int) -> list[_Coord]:
    out = []
    for i in range(1, n):
        d = numerology.degree_z(n - i, p)
        if d <= limit:
            out.append(_Coord("z", n - i, d, p**i - 1))
    return out


def _w_delta(p: int, n: int, j: int) -> dict[tuple[str, int], int]:
    """The lattice exponents of w_{n+j}, written in E2 coordinates."""
    out: Counter = Counter()

    def rec(j: int) -> None:
        if p == 2:
            if j <= n + 1:
                out[("w", n + j)] += 1
                return
            jj = j - (n + 1)
            out[("digit", jj)] += 1
            rec(jj)
            if jj <= n + 1:
                out[("w", n + jj)] += 2 * (2**n - 1)  # z_{n+jj+1} = w_{n+jj}^2
            else:
                out[("z", n + jj + 1)] += 2**n - 1
            return
        if 1 <= j <= n:
            out[("w", n + j)] += 1
            return
        jj = j - (n + 1)
        if jj == 0:
            out[("half", 0)] += 1
            out[("z", n + 1)] += p**n - 1
            return
        out[("digit", jj)] += p - 1
        rec(jj)
        out[("z", n + jj + 1)] += p**n - 1

    rec(j)
    return dict(out)


class _Lattice:
    """Monomials over a coordinate list, with the scheduled stage operators.

    Each stage operator is a weighted matching: a monomial has at most one
    image and at most one preimage, so kernel and image bookkeeping reduces
    to two cursors per monomial tower (how far it has fired as a source, and
    from which v-power it is a boundary).
    """

    def __init__(self, p: int, n: int, coords: list[_Coord], limit: int):
        self.p, self.n = p, n
        self.coords = coords
        self.pos = {(c.tag, c.index): k for k, c in enumerate(coords)}
        self.monomials: dict[tuple, int] = {}
        km2.each_monomial(
            [c.degree for c in coords], [c.cap for c in coords], limit, self.monomials.__setitem__
        )

    def _shift(self, mono: tuple, delta: list[tuple[int, int]]) -> tuple | None:
        exps = list(mono)
        for k, amt in delta:
            e = exps[k] + amt
            if e < 0 or e > self.coords[k].cap:
                return None  # truncation (or a digit carry): the image vanishes
            exps[k] = e
        return tuple(exps)

    def arcs_for(self, e: Differential) -> list[tuple[tuple, tuple, int]]:
        """Cohomology-oriented arcs (source, target, coefficient) for one entry."""
        p, n = self.p, self.n
        j = e.index
        if e.paired and e.family == "half":
            return []  # folded into the paired "y" entry at the same stage
        if e.family == "y":
            delta = dict(_w_delta(p, n, j))
            delta[("digit", j)] = delta.get(("digit", j), 0) - 1
            need: dict[tuple[str, int], int] = {}
        else:
            if j == 0:
                need = {("half", 0): 1}
            else:
                need = dict(_w_delta(p, n, j))
                need[("digit", j)] = need.get(("digit", j), 0) + (p - 1)
            delta = {k: -amt for k, amt in need.items()}
            delta[("z", n + j + 1)] = delta.get(("z", n + j + 1), 0) + 1
        compiled = []
        for key, amt in delta.items():
            if amt == 0:
                continue
            if key not in self.pos:
                return []  # a coordinate beyond the window: every image is out of range
            compiled.append((self.pos[key], amt))
        need_pos = []
        for key, amt in need.items():
            if key not in self.pos:
                return []
            need_pos.append((self.pos[key], amt))
        digit_pos = self.pos.get(("digit", j))
        if e.family == "y" and digit_pos is None:
            return []
        out = []
        for mono in self.monomials:
            if e.family == "y":
                a = mono[digit_pos]
                if a == 0:
                    continue
                coeff = a % p
            else:
                if any(mono[k] < amt for k, amt in need_pos):
                    continue
                coeff = 1
            tgt = self._shift(mono, compiled)
            if tgt is None or tgt not in self.monomials:
                continue
            out.append((mono, tgt, coeff))
        return out


def _sweep(
    lattice: _Lattice, entries: list[Differential], variance: str
) -> tuple[dict[tuple, object], dict[tuple, object]]:
    """Run the matching sweep; returns the fired and boundary cursors."""
    staged: dict[int, list[tuple[tuple, tuple, int]]] = {}
    for e in entries:
        arcs = lattice.arcs_for(e)
        if variance == "homology":
            arcs = [(t, s, c) for (s, t, c) in arcs]
        if arcs:
            staged.setdefault(e.stage, []).extend(arcs)
    fired: dict[tuple, object] = {}
    bound: dict[tuple, object] = {}
    for stage in sorted(staged):
        arcs = staged[stage]
        sources = {s for s, _t, _c in arcs}
        targets = {t for _s, t, _c in arcs}
        if sources & targets:
            raise RuntimeError(f"stage-{stage} operator does not square to zero")
        for s, t, _c in arcs:
            bs = bound.get(s, INF)
            bt = bound.get(t, INF)
            hi = min(bs, bt - stage)
            fs = fired.get(s, 0)
            if hi > fs:
                bound[t] = min(bt, fs + stage)
                fired[s] = hi
    return fired, bound


def _fold(a: Counter, b: Counter, p: int, n: int, variance: str, limit: int) -> Counter:
    """Kunneth product over P[v] of two tower collections, cut at degree limit.

    Keys are (degree >= 0, order), order INF for a free tower. free (x) free
    is free; free (x) order-r is order-r at the degree sum; order-a (x)
    order-b contributes order-min twice, at the degree sum and shifted by the
    degree step of the larger order (downward in cohomology, upward in
    homology) for the Tor term of the product complex. A term counts only if
    the degree sum is at most limit, and the Tor term only if its shifted
    degree also lies in [0, limit].  run_bruteforce folds both variances by
    the homology rule, cohomology towers keyed by their source degree.

    Computed as an exact convolution by Kronecker substitution: each
    operand becomes one int per order whose slot g, `width` bytes wide (a
    power of two, so that slots of up to 8 bytes convert through `array`),
    holds the count at degree g.  An output slot holds at most
    2 * sum(a) * sum(b), and an input slot at most its own sum, so no slot
    carries into the next.  Each pair of orders costs one big-int product,
    masked to [0, limit]; the Tor term is that product shifted by the
    degree step and masked again.
    """
    sa, sb = sum(a.values()), sum(b.values())
    width = 1 << ((max(2 * sa * sb, sa, sb).bit_length() + 7) // 8 - 1).bit_length()
    bits = 8 * width
    mask = (1 << bits * (limit + 1)) - 1

    def pack(side: Counter) -> dict:
        slots: dict = {}
        for (g, o), c in side.items():
            if g <= limit:
                if o not in slots:
                    slots[o] = [0] * (limit + 1)
                slots[o][g] = c
        return {o: _join_slots(v, width) for o, v in slots.items()}

    big, small = (a, b) if len(a) >= len(b) else (b, a)
    rows = pack(big)
    out: dict = {}
    sign = -1 if variance == "cohomology" else 1
    for o2, x2 in pack(small).items():
        for o1, x1 in rows.items():
            om = min(o1, o2)
            prod = x1 * x2 & mask
            acc = out.get(om, 0) + prod
            if o1 != INF and o2 != INF:
                # Tor term at g1 + g2 + s, for g1 + g2 <= limit and 0 <= g1 + g2 + s <= limit
                s = sign * degree_step(max(o1, o2), p, n)
                acc += (prod << bits * s if s >= 0 else prod >> -bits * s) & mask
            out[om] = acc
    folded: Counter = Counter()
    for o, acc in out.items():
        for g, c in enumerate(_split_slots(acc, width, limit + 1)):
            if c:
                folded[(g, o)] = c
    return folded


# array typecodes by item size, for slots of 1, 2, 4 and 8 bytes
_SLOT_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _join_slots(values: list[int], width: int) -> int:
    """The int whose width-byte slots, lowest first, hold values."""
    code = _SLOT_CODES.get(width)
    if code:
        data = array(code, values).tobytes()
    else:
        data = b"".join(v.to_bytes(width, sys.byteorder) for v in values)
    return int.from_bytes(data, sys.byteorder)


def _split_slots(x: int, width: int, count: int):
    """The first count width-byte slots of x, lowest first."""
    data = x.to_bytes(width * count, sys.byteorder)
    code = _SLOT_CODES.get(width)
    if code:
        return memoryview(data).cast(code)
    return [int.from_bytes(data[i : i + width], sys.byteorder) for i in range(0, len(data), width)]


def _key_floor(order, p: int, n: int, variance: str) -> int:
    """What run_bruteforce subtracts from a tower's degree to key it: the
    degree step of its order for a cohomology torsion tower, else 0."""
    if variance == "cohomology" and order != INF:
        return degree_step(order, p, n)
    return 0


def run_bruteforce(p: int, n: int, variance: str, top: int) -> Page:
    """E-infinity by monomial bookkeeping over the E2 lattice.

    One lattice runs per residue class of the family index modulo n+1 (no
    differential couples distinct classes), and the per-class towers are
    combined over P[v] by _fold.  The schedule runs to the widest stage
    that reaches the window, so no v-power bound is needed.  The page holds
    only towers, unnamed and counted per degree and order (v_free is None),
    and the Z_p family read off the F_p ranks of km2.qn_homology.

    Every fold cuts at top, in both variances, and here is why that is
    exact.  In homology Tor terms shift up, so no degree comes down.  In
    cohomology a tower of order o at degree g is keyed by
    h = g - degree_step(o) (_key_floor; a free tower by g): the degree of
    the source whose differential bounded it, so h >= 0, which is checked
    as each class part is read.  In these keys the product over P[v] is
    the homology one.  Two torsion towers at h1 and h2 give order
    min(o1, o2) at h1 + h2 (the Tor term, g1 + g2 shifted down by
    degree_step(max(o1, o2))) and at h1 + h2 + degree_step(max(o1, o2))
    (the product term); a free tower adds its degree.  So no key ever
    comes down: a Tor shift of any size is paid for by the tower it uses
    up, which sits that step above its own key, and a key above top never
    reaches [0, top].  Arcs run to j_ext > j_top, so towers of order above
    max_stage exist; but such a tower sits over a monomial divisible by
    the source of its stage, which lies above top, so its key does too and
    it is cut before any fold.  Hence no Tor shift that reaches the window
    exceeds the degree step of max_stage.
    """
    km2.build(p, n, variance)
    km2.check_top(top)
    plan = _plan(p, n, variance, top)
    sched = schedule(p, n, plan.j_ext, variance)
    folded: Counter = Counter({(0, INF): 1})
    for cls in range(n + 1):
        lat = _Lattice(p, n, _class_coords(p, n, cls, plan.enum_limit), plan.enum_limit)
        fired, bound = _sweep(lat, [e for e in sched if e.index % (n + 1) == cls], variance)
        part: Counter = Counter()
        for mono, g in lat.monomials.items():
            f = fired.get(mono, 0)
            b = bound.get(mono, INF)
            if b <= f:
                continue
            if f != 0:
                raise RuntimeError(
                    f"class-{cls} tower over degree {g} survives only above filtration {f}"
                )
            order = INF if b == INF else int(b)
            h = g - _key_floor(order, p, n, variance)
            if h < 0:
                raise RuntimeError(f"class-{cls} tower of order {order} sits below its source")
            if h <= top:
                part[(h, order)] += 1
        folded = _fold(folded, part, p, n, "homology", top)
    head = _Lattice(p, n, _head_coords(p, n, top), top)
    head_towers: Counter = Counter()
    for _mono, g in head.monomials.items():
        head_towers[(g, INF)] += 1
    folded = _fold(folded, head_towers, p, n, "homology", top)
    towers = sorted(
        (h + _key_floor(order, p, n, variance), order, c) for (h, order), c in folded.items()
    )
    return Page(
        p=p,
        n=n,
        variance=variance,
        stage=plan.max_stage + 1 if plan.max_stage else 2,
        top=top,
        v_free=None,
        torsion=tuple(TowerSummand(None, g, o, c) for g, o, c in towers if g <= top and c),
        zp_family=zp_family_counts(p, n, variance, top),
    )


# ---------------------------------------------------------------------------
# comparisons


def _first_difference(a, b):
    """The least key on which the mappings a and b disagree."""
    return min(set(a) ^ set(b) | {k for k in a if a[k] != b.get(k)})


def _tops_differ(a: Page, b: Page) -> str:
    """Why two pages computed to different tops cannot be compared, or ''."""
    return f"pages end at different tops: {a.top} vs {b.top}" if a.top != b.top else ""


def oracle_match(a: Page, b: Page) -> tuple[bool, str]:
    """Degree-for-degree comparison of two runs on [0, top].

    Free ranks, torsion towers and the Z_p family are compared.  Every
    class of both pages then sits on a generator in [0, top], and the chart
    is a function of these three counts, so it agrees too.
    """
    if (a.p, a.n, a.variance) != (b.p, b.n, b.variance):
        return False, "pages disagree on (p, n, variance)"
    if refusal := _tops_differ(a, b):
        return False, refusal
    fa, fb = a.free_by_degree(), b.free_by_degree()
    if fa != fb:
        d = _first_difference(fa, fb)
        return False, f"free ranks differ at degree {d}: {fa.get(d, 0)} vs {fb.get(d, 0)}"
    ta, tb = a.torsion_by_degree(), b.torsion_by_degree()
    if ta != tb:
        k = _first_difference(ta, tb)
        return False, (
            f"torsion differs at degree {k[0]} order {k[1]}: "
            f"{ta.get(k, 0)} vs {tb.get(k, 0)}"
        )
    za, zb = dict(a.zp_family), dict(b.zp_family)
    if za != zb:
        d = _first_difference(za, zb)
        return False, f"Z_p families differ at degree {d}: {za.get(d, 0)} vs {zb.get(d, 0)}"
    return True, f"runs agree on [0, {a.top}]"


def pairing_check(coh: Page, hom: Page) -> tuple[bool, str]:
    """The cohomology and homology runs determine each other.

    Schedules match with source and target roles swapped; the pages pair
    as uct_matches transports them: an order-r torsion tower generated in
    homology degree d pairs with one generated in cohomology degree
    d + 1 + 2r(p^n - 1), free parts pair degree for degree and the Z_p
    family under the shift 2p^n - 1 of its order-1 step.
    """
    if (coh.p, coh.n) != (hom.p, hom.n) or (coh.variance, hom.variance) != (
        "cohomology",
        "homology",
    ):
        return False, "need cohomology and homology pages at one (p, n)"
    if refusal := _tops_differ(coh, hom):
        return False, refusal
    p, n, top = coh.p, coh.n, coh.top
    direct = sorted(
        (e.stage, e.source_degree, e.target_degree)
        for e in window_schedule(p, n, "cohomology", top)
    )
    swapped = sorted(
        (e.stage, e.target_degree, e.source_degree)
        for e in window_schedule(p, n, "homology", top)
    )
    if direct != swapped:
        bad = next(x for x, y in zip(direct, swapped) if x != y)
        return False, f"schedule triple {bad} has no mirror"

    ok, msg = uct_matches(hom, coh)
    if not ok:
        return False, msg
    orders = {o for _d, o in coh.torsion_by_degree()} | {o for _d, o in hom.torsion_by_degree()}
    return True, f"pairing verified on [0, {top}] across {len(orders)} tower orders"


def uct_transport(hom: Page) -> dict:
    """Transport a homology answer to cohomology degrees.

    Free summands keep their degree, an order-r tower moves up by
    1 + 2r(p^n - 1), and the Z_p family moves up by 2p^n - 1.
    """
    if hom.variance != "homology":
        raise ValueError("uct_transport starts from a homology page")
    p, n = hom.p, hom.n
    torsion: Counter = Counter()
    for (d, r), c in hom.torsion_by_degree().items():
        torsion[(d + degree_step(r, p, n), r)] += c
    dq = 2 * p**n - 1
    return {
        "free": Counter(hom.free_by_degree()),
        "torsion": torsion,
        "zp": Counter({d + dq: c for d, c in hom.zp_family}),
    }


def uct_matches(hom: Page, coh: Page) -> tuple[bool, str]:
    """Transported homology must equal the directly computed cohomology;
    what the transport moves above top is cut."""
    if refusal := _tops_differ(hom, coh):
        return False, refusal
    moved = uct_transport(hom)
    top = coh.top
    if coh.free_by_degree() != moved["free"]:
        return False, "free parts disagree after transport"
    want = coh.torsion_by_degree()
    got = Counter({k: c for k, c in moved["torsion"].items() if k[0] <= top})
    if want != got:
        k = _first_difference(want, got)
        return False, f"torsion disagrees after transport at (degree, order) = {k}"
    if dict(coh.zp_family) != {d: c for d, c in moved["zp"].items() if d <= top}:
        return False, "Z_p family disagrees after transport"
    return True, f"transport matches cohomology on [0, {top}]"


# ---------------------------------------------------------------------------
# exhaustiveness scan


def advisory_scan(p: int, n: int, top: int) -> dict:
    """Search [0, top] for differentials the schedule does not list.

    Candidate sources are the indecomposable page generators (the y's, the
    half-index w's or their p = 2 product stand-ins, and the integer-index
    w's); z's admit no differential and products reduce to their factors by
    the Leibniz rule, and a class in filtration zero would need a homology
    mirror whose source classes this same sweep already covers.  Every
    opposite-parity pair (source, surviving class above it) determines at
    most one stage through the degree step; each pair is excluded for a
    recorded reason.  A pair surviving the local reasons would strictly
    change some total dimension inside the window, which the rank
    computation pins independently, so the returned tally has an empty
    "unexcluded" list exactly when the scheduled differentials are the only
    ones possible.
    """
    km2.check_top(top)
    q2 = 2 * (p**n - 1)
    sched = window_schedule(p, n, "cohomology", top)
    page = run_closed_form(p, n, "cohomology", top)

    classes: dict[int, list[tuple[float, int]]] = {}

    def add(degree: int, order, count: int) -> None:
        if count and degree <= top:
            classes.setdefault(degree, []).append((order, count))

    for d, c in page.free_by_degree().items():
        add(d, INF, c)
    for (d, order), c in page.torsion_by_degree().items():
        add(d, order, c)
    for d, c in page.zp_family:
        add(d, 1, c)  # dies under v, so it can never sit in filtration >= 2

    sources = []
    for e in sched:
        if e.source_degree <= top:
            sources.append((e.source, e.source_degree, e.stage, True))
        if e.target.startswith("w") and e.target_degree <= top:
            # integer-index w: free until its tower is cut to length e.stage
            sources.append((e.target, e.target_degree, e.stage, False))

    tally = Counter()
    recovered = 0
    for name, a, f_stage, fires in sources:
        seen_scheduled = False
        for b in sorted(classes):
            if b <= a or (b - a) % 2 == 0:
                continue
            step = b - a - 1
            if step % q2:
                tally["divisibility"] += sum(c for _o, c in classes[b])
                continue
            r = step // q2
            if r < 2:
                tally["interval"] += sum(c for _o, c in classes[b])
                continue
            for order, count in classes[b]:
                c = count
                if fires and r == f_stage and order == f_stage and not seen_scheduled:
                    c -= 1  # the scheduled differential itself
                    seen_scheduled = True
                    recovered += 1
                if c <= 0:
                    continue
                if fires and r > f_stage:
                    tally["interval"] += c
                elif order != INF and r > order:
                    tally["target_dead"] += c
                elif not fires and r > f_stage and (order == INF or order > f_stage + r):
                    tally["torsion_counting"] += c
                else:
                    tally["dimension_conservation"] += c

    in_window_targets = sum(1 for e in sched if e.target_degree <= top)
    if recovered != in_window_targets:
        raise RuntimeError(
            f"scan recovered {recovered} scheduled differentials, "
            f"expected {in_window_targets}"
        )
    return {
        "p": p,
        "n": n,
        "variance": "cohomology",
        "window": [0, top],
        "sources": len(sources),
        "surviving_classes": sum(c for group in classes.values() for _o, c in group),
        "pairs": sum(tally.values()) + recovered,
        "scheduled_recovered": recovered,
        "excluded": {k: tally[k] for k in sorted(tally)},
        "unexcluded": [],
    }
