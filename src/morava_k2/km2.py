"""H*K(Z_p, 2) with the Milnor primitive Q_n, and its Q_n-homology.

The presentation is one formula at every prime: ι₂ (written i2) and the even
classes z_i are polynomial, the odd classes u_i exterior.  At p = 2 the u_i
are polynomial in H*K(Z_2, 2); there z_{i+1} stands for u_i² and the product
keeps the one relation u_i · u_i = z_{i+1}.  Since Q_n(u_i²) = 0, F_2[u_i] is
E[u_i] ⊗ F_2[z_{i+1}] as a Q_n-complex, so the monomials u^ε z^k are a basis
and Q_n is the same table on generators as at odd p, extended as a
derivation with Koszul signs.  The only Leibniz term that meets the relation
is Q_n(i2) = u_n landing on a u_n already present: it carries into z_{n+1}.

Q_n-homology splits the algebra into the tensor components coupled by Q_n,
the carry joining z_{n+1} to i2 and u_n, ranks each component's Q_n blocks
with one ExplicitHomology, and multiplies the component series.  Every
component has at most four generators.  The rank of the whole basis at once,
which needs no split, is a reference that only the tests run.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from typing import NamedTuple

from .graded_algebra import PoincareSeries


class WindowError(ValueError):
    """A computation needs basis data beyond the configured degree window."""


# ---------------------------------------------------------------------------
# linear algebra over F_p
#
# A Matrix is a list of rows.  At p = 2 a row is a Python int used as a bit
# vector, bit j holding column j, so one XOR adds a whole row; at odd p a row
# is a list of residues.  Every routine below works by row operations.


class Matrix:
    """A matrix over F_p: shape (rows, cols) and the list of its rows."""

    __slots__ = ("rows", "shape", "p")

    def __init__(self, rows: list, cols: int, p: int):
        self.rows = rows
        self.shape = (len(rows), cols)
        self.p = p

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> Matrix:
        if p == 2:
            return cls([0] * rows, cols, p)
        return cls([[0] * cols for _ in range(rows)], cols, p)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b over F_p: each row of a combines the rows of b it selects."""
    brows = b.rows
    out = []
    if a.p == 2:
        for x in a.rows:
            acc = 0
            while x:
                low = x & -x
                acc ^= brows[low.bit_length() - 1]
                x ^= low
            out.append(acc)
        return Matrix(out, b.shape[1], 2)
    p, cols = a.p, b.shape[1]
    for x in a.rows:
        acc = [0] * cols
        for k, c in enumerate(x):
            if c:
                acc = [(u + c * v) % p for u, v in zip(acc, brows[k])]
        out.append(acc)
    return Matrix(out, cols, p)


def _rref2(rows: list[int]) -> tuple[list[int], list[int]]:
    """Nonzero RREF rows and pivot columns over F_2.

    Each row is reduced against a basis keyed by lowest set bit, so a sparse
    row touches only the pivots it meets; the basis is then back-substituted
    from the highest pivot down.
    """
    basis: dict[int, int] = {}
    for x in rows:
        while x:
            low = x & -x
            y = basis.get(low)
            if y is None:
                basis[low] = x
                break
            x ^= y
    pivmask = sum(basis)
    done: dict[int, int] = {}
    for low in sorted(basis, reverse=True):
        x = basis[low]
        m = (x & pivmask) ^ low
        while m:
            b = m & -m
            x ^= done[b]
            m ^= b
        done[low] = x
    order = sorted(done)
    return [done[b] for b in order], [b.bit_length() - 1 for b in order]


def _rref_odd(rows: list[list[int]], cols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Nonzero RREF rows and pivot columns over F_p, p odd, by Gauss-Jordan."""
    a = [[x % p for x in r] for r in rows]
    piv: list[int] = []
    r = 0
    for c in range(cols):
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], p - 2, p)
        row = a[r] = [x * inv % p for x in a[r]]
        for j, other in enumerate(a):
            f = other[c]
            if f and j != r:
                a[j] = [(x - f * y) % p for x, y in zip(other, row)]
        piv.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], piv


def rref_modp(a: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over F_p; returns (new matrix, pivot columns)."""
    if a.p != p:
        raise ValueError(f"matrix over F_{a.p} reduced over F_{p}")
    rows, cols = a.shape
    if p == 2:
        red, piv = _rref2(a.rows)
        return Matrix(red + [0] * (rows - len(red)), cols, p), piv
    red, piv = _rref_odd(a.rows, cols, p)
    return Matrix(red + [[0] * cols for _ in range(rows - len(red))], cols, p), piv


def rank_modp(a: Matrix, p: int) -> int:
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return len(rref_modp(a, p)[1])


def nullspace_modp(a: Matrix, p: int) -> Matrix:
    """Columns form a basis of ker(a) over F_p, one per free column.

    No route in the package calls it; perfbench/tracer.py wraps it by name.
    """
    rows, cols = a.shape
    if cols == 0:
        return Matrix.zeros(0, 0, p)
    r, piv = rref_modp(a, p)
    pivots = set(piv)
    free = [c for c in range(cols) if c not in pivots]
    out = Matrix.zeros(cols, len(free), p)
    if p == 2:
        # a pivot row holds its pivot bit and free bits only
        for k, c in enumerate(free):
            out.rows[c] = 1 << k
        slot = {1 << c: 1 << k for k, c in enumerate(free)}
        for i, pc in enumerate(piv):
            m = r.rows[i] ^ (1 << pc)
            x = 0
            while m:
                low = m & -m
                x |= slot[low]
                m ^= low
            out.rows[pc] = x
        return out
    for k, c in enumerate(free):
        out.rows[c][k] = 1
        for i, pc in enumerate(piv):
            out.rows[pc][k] = -r.rows[i][c] % p
    return out


# ---------------------------------------------------------------------------
# presentation


class PresGenerator(NamedTuple):
    name: str
    degree: int
    exp_kind: str  # "P" unbounded exponent, "E" exponent at most 1
    family: str  # "i2", "z" or "u"
    index: int


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Presentation(NamedTuple):
    """Generators and Q_n images for H*K(Z_p, 2) (or its homology dual).

    The homology variant has the same per-degree dimensions (graded dual)
    and its Q_n matrices are the transposes of the cohomology ones, so the
    generator list, the blocks and their ranks are shared; only the
    variance tag differs.
    """

    p: int
    n: int
    variance: str

    @property
    def qn_degree(self) -> int:
        return 2 * self.p**self.n - 1

    def generators(self, max_degree: int) -> list[PresGenerator]:
        p = self.p
        gens = [PresGenerator("i2", 2, "P", "i2", 0)]
        i = 1
        while 2 * (p**i + 1) <= max_degree:
            gens.append(PresGenerator(f"z_{i}", 2 * (p**i + 1), "P", "z", i))
            i += 1
        i = 0
        while 2 * p**i + 1 <= max_degree:
            gens.append(PresGenerator(f"u_{i}", 2 * p**i + 1, "E", "u", i))
            i += 1
        return gens

    def qn_on_generator(self, name: str) -> tuple[str, int] | None:
        """Image of a generator as (target name, exponent), or None for zero."""
        p, n = self.p, self.n
        if name == "i2":
            return (f"u_{n}", 1)
        family, idx = name.split("_")
        i = int(idx)
        if family == "z":
            return None
        if family != "u":
            raise ValueError(f"unknown generator {name!r}")
        if i < n:
            return (f"z_{n - i}", p**i)
        if i == n:
            return None
        return (f"z_{i - n}", p**n)


def build(p: int, n: int, variance: str = "cohomology") -> Presentation:
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if variance not in ("cohomology", "homology"):
        raise ValueError(f"variance must be cohomology or homology, got {variance!r}")
    return Presentation(p, n, variance)


# ---------------------------------------------------------------------------
# the derivation on monomials


class _LeibnizTerm(NamedTuple):
    """The Leibniz term of one generator k with a Q_n image x_t^texp."""

    k: int
    tpos: int  # target slot, -1 when the target lies outside the context
    texp: int
    exterior: bool  # the target is exterior: once present, the term dies or carries
    before: tuple[int, ...]  # odd slots before k: the Koszul sign
    between: tuple[int, ...]  # odd slots strictly between k and an odd target


class DerivationContext:
    """Q_n on exponent tuples over a fixed ordered generator list.

    Monomials are written in list order; a Leibniz term that inserts an odd
    generator picks up, besides the (-1)^(prefix degree) of the Koszul rule,
    the reordering sign for moving the inserted factor to its canonical slot.
    The terms are tabulated once per context; leibniz_terms is the one
    place the derivation is applied.  square holds the one relation that
    differs between the primes: at p = 2 it maps the slot of u_i to that of
    z_{i+1} = u_i · u_i (-1 when z_{i+1} lies outside the context), and at
    odd p it is empty, so an exterior square is 0.  leibniz_terms and
    mul_poly both read it.
    """

    def __init__(
        self,
        pres: Presentation,
        max_degree: int,
        gens: list[PresGenerator] | None = None,
        missing_as_zero: bool = False,
    ):
        self.pres = pres
        self.p = pres.p
        self.max_degree = max_degree
        self.gens = list(gens) if gens is not None else pres.generators(max_degree)
        self.index = {g.name: k for k, g in enumerate(self.gens)}
        self.missing_as_zero = missing_as_zero
        self.square = {
            k: self.index.get(f"z_{g.index + 1}", -1)
            for k, g in enumerate(self.gens)
            if self.p == 2 and g.family == "u"
        }
        # the odd slots, which carry the signs; at p = 2 every sign is +
        odd = [k for k, g in enumerate(self.gens) if g.degree % 2 == 1 and self.p != 2]
        self.terms: list[_LeibnizTerm] = []
        for k, g in enumerate(self.gens):
            img = pres.qn_on_generator(g.name)
            if img is None:
                continue
            tname, texp = img
            tpos = self.index.get(tname, -1)
            if tpos < 0:
                if missing_as_zero:
                    # sources whose image needs the absent generator all sit
                    # above the degrees the caller reads, so drop the image
                    continue
                # target generator outside this context: flagged when a
                # monomial reaches the term
                self.terms.append(_LeibnizTerm(k, -1, texp, False, (), ()))
                continue
            between: tuple[int, ...] = ()
            if tpos in odd:
                if tpos < k:
                    raise AssertionError("odd image inserted leftward")
                between = tuple(t for t in odd if k < t < tpos)
            before = tuple(t for t in odd if t < k)
            exterior = self.gens[tpos].exp_kind == "E"
            self.terms.append(_LeibnizTerm(k, tpos, texp, exterior, before, between))

    def degree(self, exps: tuple[int, ...]) -> int:
        return sum(e * g.degree for e, g in zip(exps, self.gens))

    def _square_slot(self, k: int) -> int:
        """The slot of u · u for the exterior generator in slot k: -1 where
        the square is 0 (odd p) or, with missing_as_zero, lies outside."""
        s = self.square.get(k, -1)
        if s < 0 and k in self.square and not self.missing_as_zero:
            raise WindowError(
                f"square of {self.gens[k].name} needs a generator beyond degree {self.max_degree}"
            )
        return s

    def leibniz_terms(self, bucket: list[tuple[int, ...]]) -> Iterator[tuple[int, tuple[int, ...], int]]:
        """Yield (column, target, coefficient) for every nonzero Leibniz
        term of Q_n on the monomials of bucket, one generator at a time.

        Two generators of one monomial never reach the same target, so the
        terms of a column need no summing.  A term whose exterior target is
        already present dies, or at p = 2 carries into its square.
        """
        p = self.p
        for k, tpos, texp, exterior, before, between in self.terms:
            if tpos < 0:
                if any(m[k] % p for m in bucket):
                    raise WindowError(
                        f"image of {self.gens[k].name} needs a generator beyond degree "
                        f"{self.max_degree}"
                    )
                continue
            for j, m in enumerate(bucket):
                c = m[k] % p
                if not c:
                    continue
                carry = -1
                if exterior and m[tpos] + texp > 1:
                    carry = self._square_slot(tpos)
                    if carry < 0:
                        continue
                if p != 2 and (sum(m[t] for t in before) + sum(1 for t in between if m[t])) % 2:
                    c = p - c
                t = list(m)
                t[k] -= 1
                if carry < 0:
                    t[tpos] += texp
                else:
                    t[tpos] += texp - 2
                    t[carry] += 1
                yield j, tuple(t), c

    def qn_monomial(self, exps: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Q_n of one monomial as {target: coefficient}: the one-column case."""
        return {t: c for _j, t, c in self.leibniz_terms([exps])}

    def qn_poly(self, poly: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
        """Q_n of a polynomial: its monomials go through the kernel as one bucket."""
        mons = list(poly)
        out: dict[tuple[int, ...], int] = {}
        for j, m, c in self.leibniz_terms(mons):
            v = (out.get(m, 0) + poly[mons[j]] * c) % self.p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def mul_poly(
        self, a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]
    ) -> dict[tuple[int, ...], int]:
        p = self.p
        odd_pos = [k for k, g in enumerate(self.gens) if g.degree % 2 == 1]
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                sign = 1
                if p != 2:
                    # merge sign: odd factors of the left monomial hop over
                    # odd factors of the right one sitting at earlier slots
                    for s in odd_pos:
                        if ea[s]:
                            for t in odd_pos:
                                if t < s and eb[t]:
                                    sign = -sign
                ne = [x + y for x, y in zip(ea, eb)]
                dead = False
                for k in odd_pos:
                    if ne[k] > 1:
                        s = self._square_slot(k)
                        if s < 0:
                            dead = True
                            break
                        ne[k] -= 2
                        ne[s] += 1
                if dead:
                    continue
                key = tuple(ne)
                v = (out.get(key, 0) + sign * ca * cb) % p
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return out

    def render(self, exps: tuple[int, ...]) -> str:
        parts = []
        for e, g in zip(exps, self.gens):
            if e == 1:
                parts.append(g.name)
            elif e:
                parts.append(f"{g.name}^{e}")
        return " ".join(parts) if parts else "1"


def each_monomial(degrees: list[int], caps: list[int], hi: int, emit) -> None:
    """Call emit(exps, degree) once for every exponent vector with
    exps[k] <= caps[k] and degree = sum of exps[k] * degrees[k] <= hi, all
    degrees positive.  Depth first: the first generator is outermost and
    every exponent runs upwards.  A vector whose remaining generators no
    longer fit is emitted in the loop that reaches it, not one level down."""
    if hi < 0:
        return
    exps = [0] * len(degrees)
    # floor[k]: no generator from k on fits into less room than this
    floor = [hi + 1] * (len(degrees) + 1)
    for k in range(len(degrees) - 1, -1, -1):
        floor[k] = min(degrees[k], floor[k + 1])

    def rec(k: int, deg: int) -> None:
        step, rest = degrees[k], floor[k + 1]
        for e in range(min(caps[k], (hi - deg) // step) + 1):
            exps[k] = e
            d = deg + e * step
            if hi - d < rest:
                emit(tuple(exps), d)
            else:
                rec(k + 1, d)
        exps[k] = 0

    if hi < floor[0]:
        emit(tuple(exps), 0)
    else:
        rec(0, 0)


def window_bases(gens: list[PresGenerator], hi: int) -> list[list[tuple[int, ...]]]:
    """Monomial bases for every degree 0..hi, in deterministic order."""
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(hi + 1)]
    caps = [1 if g.exp_kind == "E" else hi for g in gens]
    each_monomial([g.degree for g in gens], caps, hi, lambda m, d: buckets[d].append(m))
    return buckets


def _qn_block(
    ctx: DerivationContext,
    src: list[tuple[int, ...]],
    tgt: list[tuple[int, ...]],
) -> Matrix:
    pos = {m: i for i, m in enumerate(tgt)}
    a = Matrix.zeros(len(tgt), len(src), ctx.p)
    rows = a.rows
    if ctx.p == 2:
        for j, t, _c in ctx.leibniz_terms(src):
            rows[pos[t]] |= 1 << j
    else:
        for j, t, c in ctx.leibniz_terms(src):
            rows[pos[t]][j] = c
    return a


# ---------------------------------------------------------------------------
# homology: tensor components coupled by Q_n


def components(pres: Presentation, max_degree: int) -> list[list[PresGenerator]]:
    """Partition of the generators up to max_degree into Q_n-coupled pieces.

    Callers computing homology on [0, hi] must pass hi + (2p^n - 1) so that
    every Q_n-target of an in-window monomial has its generator present.
    A generator is coupled to its Q_n target and, where that target is
    exterior with a square (p = 2), to the square as well.
    """
    ctx = DerivationContext(pres, max_degree, missing_as_zero=True)
    gens = ctx.gens
    parent = list(range(len(gens)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for t in ctx.terms:
        union(t.k, t.tpos)
        if t.exterior and ctx.square.get(t.tpos, -1) >= 0:
            union(t.k, ctx.square[t.tpos])
    groups: dict[int, list[PresGenerator]] = {}
    for i, g in enumerate(gens):
        groups.setdefault(find(i), []).append(g)
    return sorted(groups.values(), key=lambda c: min(g.degree for g in c))


class ExplicitHomology:
    """Q_n-homology dimensions of the sub-algebra on a generator subset.

    qn_homology builds one per component; on the full generator list it is
    the whole-basis rank the tests compare against.  dims on [0, top] comes
    from the ranks of the Q_n blocks, ranked one at a time.  The homology
    blocks are the transposes of the cohomology ones, so the ranks, and
    with them dims, serve either variance.
    """

    def __init__(self, pres: Presentation, gens: list[PresGenerator], top: int):
        dq = pres.qn_degree
        ctx = DerivationContext(pres, top + dq, gens=gens)
        buckets = window_bases(gens, top + dq)
        ranks = [
            rank_modp(_qn_block(ctx, buckets[d], buckets[d + dq]), pres.p)
            for d in range(top + 1)
        ]
        self.dims = [
            len(buckets[d]) - ranks[d] - (ranks[d - dq] if d >= dq else 0)
            for d in range(top + 1)
        ]


# ---------------------------------------------------------------------------
# reports


class QnHomologyReport(NamedTuple):
    """Trivial/free split of H* as a module over E[Q_n].

    total, trivial and free_rank are per-degree lists on [0, max_degree];
    each free summand spans its generator degree d and d + (2p^n - 1), so
    total(d) = trivial(d) + free_rank(d) + free_rank(d - (2p^n - 1)).
    """

    p: int
    n: int
    variance: str
    max_degree: int
    total: list[int]
    trivial: list[int]
    free_rank: list[int]

    def trivial_series(self) -> PoincareSeries:
        return PoincareSeries(0, self.max_degree, tuple(self.trivial))


def total_dims(pres: Presentation, hi: int) -> list[int]:
    """Per-degree dimensions of the full (co)homology of K(Z_p, 2)."""
    return _prefix_sum_series(pres.generators(hi), hi)


def _prefix_sum_series(gens, hi: int) -> list[int]:
    """Per-degree dimensions on [0, hi] of the free graded-commutative
    algebra on gens (polynomial and exterior generators)."""
    dims = [0] * (hi + 1)
    dims[0] = 1
    for g in gens:
        if g.exp_kind == "P":
            # multiply by 1/(1 - t^deg): running prefix sums with stride
            for d in range(g.degree, hi + 1):
                dims[d] += dims[d - g.degree]
        else:
            for d in range(hi, g.degree - 1, -1):
                dims[d] += dims[d - g.degree]
    return dims


def default_window(n: int) -> int:
    return 600 if n == 1 else 2500


_FACTORED_TRIVIAL: dict[tuple[int, int, int], tuple[int, ...]] = {}


def _factored_trivial(p: int, n: int, hi: int) -> tuple[int, ...]:
    """Trivial Q_n-homology dimensions on [0, hi], one component at a time.

    Memoised per (p, n, hi): the homology matrices are the transposes of the
    cohomology ones, so the ranks, and with them this series, do not depend
    on the variance.  The component series are folded over their nonzero
    coefficients only.
    """
    key = (p, n, hi)
    if key not in _FACTORED_TRIVIAL:
        pres = build(p, n)
        series = [1] + [0] * hi
        for comp in components(pres, hi + pres.qn_degree):
            if len(comp) > 4:
                raise AssertionError("components have at most 4 generators")
            cd = ExplicitHomology(pres, comp, hi).dims
            terms = [(d2, c) for d2, c in enumerate(cd) if c]
            out = [0] * (hi + 1)
            for d1, a in enumerate(series):
                if a:
                    for d2, c in terms:
                        if d1 + d2 > hi:
                            break
                        out[d1 + d2] += a * c
            series = out
        _FACTORED_TRIVIAL[key] = tuple(series)
    return _FACTORED_TRIVIAL[key]


def qn_homology(
    p: int,
    n: int,
    variance: str = "cohomology",
    max_degree: int | None = None,
) -> QnHomologyReport:
    pres = build(p, n, variance)
    hi = default_window(n) if max_degree is None else max_degree
    if hi < 2:
        raise ValueError("max_degree must be at least 2")
    total = total_dims(pres, hi)
    triv = list(_factored_trivial(p, n, hi))
    dq = pres.qn_degree
    free = [0] * (hi + 1)
    for d in range(hi + 1):
        lower = free[d - dq] if d >= dq else 0
        free[d] = total[d] - triv[d] - lower
        if free[d] < 0:
            raise AssertionError(f"negative free rank at degree {d}")
    return QnHomologyReport(p, n, variance, hi, total, triv, free)


# ---------------------------------------------------------------------------
# the w-elements


class WElement(NamedTuple):
    index2: int  # doubled index: 2(n+j) or 2(n+j)+1
    name: str
    degree: int
    poly: tuple[tuple[tuple[int, ...], int], ...]


def w_name(index2: int) -> str:
    if index2 % 2 == 0:
        return f"w_{index2 // 2}"
    return f"w_{index2}/2"


class WFactory:
    """Builds the w-elements as explicit cycles in the presentation."""

    def __init__(self, pres: Presentation, max_degree: int):
        from . import numerology

        self.pres = pres
        self.numerology = numerology
        self.ctx = DerivationContext(pres, max_degree + 2 * pres.qn_degree)
        self.max_degree = max_degree

    def _mono(self, terms: dict[str, int], coeff: int = 1) -> dict[tuple[int, ...], int]:
        exps = [0] * len(self.ctx.gens)
        for nm, e in terms.items():
            exps[self.ctx.index[nm]] += e
        return {tuple(exps): coeff % self.pres.p}

    def w_poly(self, m: int) -> dict[tuple[int, ...], int]:
        """The cycle w_m (integer index), for m >= n."""
        p, n = self.pres.p, self.pres.n
        j = m - n
        if j < 0:
            raise ValueError("w indices start at n")
        if j == 0:
            return self._mono({f"u_{n}": 1})
        if j <= n:
            first = self._mono({f"u_{n + j}": 1})
            tail = self._mono({f"u_{n - j}": 1, f"z_{j}": p**n - p ** (n - j)}, -1)
            # the sign makes the two Leibniz images cancel; at p = 2 it is +
            return _poly_add(first, tail, p)
        jj = j - (n + 1)
        y = self._mono({"i2": (p - 1) * p**jj})
        zpart = self._mono({f"z_{n + jj + 1}": p**n - 1})
        w = self.ctx.mul_poly(self.ctx.mul_poly(y, self.w_poly(n + jj)), zpart)
        if p == 2 and jj == 0:
            # Q_n(i2 u_n) = u_n u_n = z_{n+1}, so i2 u_n z_{n+1}^(2^n - 1) is
            # no cycle at p = 2; u_{2n+1} cancels its image
            w = _poly_add(self._mono({f"u_{2 * n + 1}": 1}), w, p)
        return w

    def w_half_poly(self, m2: int) -> dict[tuple[int, ...], int]:
        """The cycle w_{m + 1/2} for odd doubled index m2 = 2m + 1."""
        p = self.pres.p
        m = m2 // 2
        j = m - self.pres.n
        y = self._mono({"i2": (p - 1) * p**j})
        return self.ctx.mul_poly(y, self.w_poly(m))

    def element(self, index2: int) -> WElement:
        deg = self.numerology.degree_w(index2, self.pres.p, self.pres.n)
        poly = (
            self.w_poly(index2 // 2) if index2 % 2 == 0 else self.w_half_poly(index2)
        )
        for exps in poly:
            if self.ctx.degree(exps) != deg:
                raise AssertionError(f"degree mismatch building {w_name(index2)}")
        return WElement(index2, w_name(index2), deg, tuple(sorted(poly.items())))


def _poly_add(
    a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int], p: int
) -> dict[tuple[int, ...], int]:
    out = dict(a)
    for k, v in b.items():
        s = (out.get(k, 0) + v) % p
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _random_monomial(rng, ctx: DerivationContext, gens: list[PresGenerator], room: int) -> tuple[int, ...]:
    exps = [0] * len(ctx.gens)
    for g in rng.sample(gens, len(gens)):
        cap = room // g.degree
        if g.exp_kind == "E":
            cap = min(cap, 1)
        e = rng.randint(0, cap)
        exps[ctx.index[g.name]] = e
        room -= e * g.degree
    return tuple(exps)


def _square_failures(ctx: DerivationContext, buckets, hi: int) -> Iterator[tuple[int, ...]]:
    """The monomials of degree <= hi on which Q_n∘Q_n is nonzero, in bucket
    order, read off the products of consecutive Q_n blocks.

    Blocks are built one source degree at a time and only the next dq of
    them are held; a degree whose first block is zero needs no product.
    """
    dq = ctx.pres.qn_degree
    ahead: dict[int, Matrix] = {}
    for d in range(hi + 1):
        src = buckets[d]
        if not src:
            continue
        first = ahead.pop(d, None) or _qn_block(ctx, src, buckets[d + dq])
        if not any(first.rows):
            continue
        second = _qn_block(ctx, buckets[d + dq], buckets[d + 2 * dq])
        if d + dq <= hi:
            ahead[d + dq] = second
        square = _matmul(second, first)
        if ctx.p == 2:
            bad = functools.reduce(int.__or__, square.rows, 0)
            yield from (m for j, m in enumerate(src) if bad >> j & 1)
        else:
            yield from (m for j, m in enumerate(src) if any(r[j] for r in square.rows))


SQUARE_SEED = 0  # the seed of the mixed samples of qn_square_check


def qn_square_check(
    p: int, n: int, max_degree: int, mixed_samples: int = 2000
) -> tuple[int, list[tuple[int, ...]]]:
    """Check Q_n(Q_n(m)) = 0 through the implemented derivation.

    Every Q_n-coupled tensor component is swept whole, every monomial up
    to max_degree: degree by degree, the product of the Q_n block out of
    d + dq with the block out of d (the blocks ExplicitHomology ranks) must
    vanish, and each nonzero column is a failing monomial.  Products across
    components satisfy the identity once each factor does (the cross terms
    of a derivation square cancel), but seeded random mixed monomials are
    pushed through the code path as well, one at a time.  Returns
    (monomials checked, failures).
    """
    import random

    pres = build(p, n)
    dq = pres.qn_degree
    checked = 0
    failures: list[tuple[int, ...]] = []
    for comp in components(pres, max_degree + 2 * dq):
        ctx = DerivationContext(pres, max_degree + 2 * dq, gens=comp, missing_as_zero=True)
        failures += _square_failures(ctx, window_bases(comp, max_degree + 2 * dq), max_degree)
        checked += sum(_prefix_sum_series(comp, max_degree))
    rng = random.Random(SQUARE_SEED)
    ctx = DerivationContext(pres, max_degree + 2 * dq, missing_as_zero=True)
    full_gens = [g for g in ctx.gens if g.degree <= max_degree]
    for _ in range(mixed_samples):
        m = _random_monomial(rng, ctx, full_gens, max_degree)
        q1 = ctx.qn_monomial(m)
        if q1 and ctx.qn_poly(q1):
            failures.append(m)
        checked += 1
    return checked, failures


def w_elements(p: int, n: int, max_degree: int) -> tuple[WFactory, list[WElement]]:
    """All w-elements (integer and half index) with degree inside the window."""
    from . import numerology

    pres = build(p, n)
    factory = WFactory(pres, max_degree)
    out = []
    index2 = 2 * n
    while numerology.degree_w(index2, p, n) <= max_degree:
        out.append(factory.element(index2))
        index2 += 1
    return factory, out
