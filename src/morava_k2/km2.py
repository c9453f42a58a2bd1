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
the carry joining z_{n+1} to i2 and u_n, and multiplies the component series.
One sweep per component builds each of its Q_n blocks once: it ranks the
blocks out of the window for the homology dimensions and multiplies
consecutive blocks for the square check, in the same pass.  Every component
has at most four generators.  The pass over all components stores the
trivial series in one memo entry per (p, n, top), and qn_homology adds the
total and free lists to it on its first read, for both variances.  The rank
of the whole basis at once, which needs no split, is a reference that only
the tests run.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable, Iterator

from . import numerology
from .graded_algebra import PoincareSeries, Record


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


class PresGenerator(Record):
    """One generator of the presentation: exp_kind "P" for an unbounded
    exponent, "E" for an exponent at most 1; family "i2", "z" or "u", with
    index its subscript."""

    __slots__ = ()

    def __new__(cls, name, degree, exp_kind, family, index):
        return tuple.__new__(cls, (name, degree, exp_kind, family, index))


# Miller-Rabin over the first thirteen primes as bases is exact below
# PRIME_BOUND, the least strong pseudoprime to all of them; twelve bases
# already fail at 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin; a p at or above
    PRIME_BOUND, where the bases no longer decide, is a ValueError."""
    if p >= PRIME_BOUND:
        raise ValueError(f"p = {p} is not below {PRIME_BOUND}, where the primality test is exact")
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Presentation(Record):
    """Generators and Q_n images for H*K(Z_p, 2) (or its homology dual).

    The homology variant has the same per-degree dimensions (graded dual)
    and its Q_n matrices are the transposes of the cohomology ones, so the
    generator list, the blocks and their ranks are shared; only the
    variance tag differs.
    """

    __slots__ = ()

    def __new__(cls, p, n, variance):
        return tuple.__new__(cls, (p, n, variance))

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


class _LeibnizTerm(Record):
    """The Leibniz term of one generator k with a Q_n image x_t^texp.

    tpos is the target slot, -1 when the target lies outside the context;
    exterior says the target is exterior, so that once present the term
    dies or carries.  odd reads the odd factors before k (the Koszul sign)
    and strictly between k and an odd target (the reordering sign) as one
    getter whose values sum to their count, odd slots being exterior; it is
    None where there are none.
    """

    __slots__ = ()

    def __new__(cls, k, tpos, texp, exterior, odd):
        return tuple.__new__(cls, (k, tpos, texp, exterior, odd))


def _odd_getter(slots: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]] | None:
    """The exponents at slots as a tuple (one slot is a one-wide slice)."""
    if not slots:
        return None
    if len(slots) == 1:
        return operator.itemgetter(slice(slots[0], slots[0] + 1))
    return operator.itemgetter(*slots)


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

    def __init__(self, pres: Presentation, max_degree: int, gens: list[PresGenerator] | None = None):
        self.pres = pres
        self.p = pres.p
        self.max_degree = max_degree
        self.gens = list(gens) if gens is not None else pres.generators(max_degree)
        self.index = {g.name: k for k, g in enumerate(self.gens)}
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
                # target generator outside this context: flagged when a
                # monomial reaches the term
                self.terms.append(_LeibnizTerm(k, -1, texp, False, None))
                continue
            between: tuple[int, ...] = ()
            if tpos in odd:
                if tpos < k:
                    raise AssertionError("odd image inserted leftward")
                between = tuple(t for t in odd if k < t < tpos)
            before = tuple(t for t in odd if t < k)
            exterior = self.gens[tpos].exp_kind == "E"
            self.terms.append(_LeibnizTerm(k, tpos, texp, exterior, _odd_getter(before + between)))

    def degree(self, exps: tuple[int, ...]) -> int:
        return sum(e * g.degree for e, g in zip(exps, self.gens))

    def _square_slot(self, k: int) -> int:
        """The slot of u · u for the exterior generator in slot k: -1 where
        the square is 0 (odd p); a square outside the context is a WindowError."""
        s = self.square.get(k, -1)
        if s < 0 and k in self.square:
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
        for k, tpos, texp, exterior, odd in self.terms:
            if tpos < 0:
                if any(m[k] % p for m in bucket):
                    raise WindowError(
                        f"image of {self.gens[k].name} needs a generator beyond degree "
                        f"{self.max_degree}"
                    )
                continue
            square = self.square.get(tpos)  # None at odd p, where an exterior square is 0
            for j, m in enumerate(bucket):
                c = m[k] % p
                if not c:
                    continue
                carry = -1
                if exterior and m[tpos] + texp > 1:
                    if square is None:
                        continue
                    # -1: the square lies outside the context, a WindowError
                    carry = square if square >= 0 else self._square_slot(tpos)
                if odd is not None and sum(odd(m)) % 2:
                    c = p - c
                t = list(m)
                t[k] -= 1
                if carry < 0:
                    t[tpos] += texp
                else:
                    t[tpos] += texp - 2
                    t[carry] += 1
                yield j, tuple(t), c

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
    # rec refers to itself: without this the cycle, and emit with whatever
    # it holds, would wait for the garbage collector
    del rec


def degree_bases(
    gens: list[PresGenerator], hi: int, keep: Callable[[int], bool] | None = None
) -> dict[int, list[tuple[int, ...]]]:
    """The nonempty monomial bases of the degrees 0..hi that keep accepts
    (all of them without keep), keyed by degree.  Each basis lists its
    monomials in the order each_monomial emits them: exponent vectors
    ordered lexicographically, the first generator's exponent most
    significant.  Every monomial of degree <= hi is enumerated, but one of a
    refused degree is dropped at once, and that degree gets no list."""
    buckets: dict[int, list[tuple[int, ...]]] = {}
    caps = [1 if g.exp_kind == "E" else hi for g in gens]

    def emit(m: tuple[int, ...], d: int) -> None:
        bucket = buckets.get(d)
        if bucket is None:
            if keep is not None and not keep(d):
                return
            bucket = buckets[d] = []
        bucket.append(m)

    each_monomial([g.degree for g in gens], caps, hi, emit)
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
    ctx = DerivationContext(pres, max_degree)
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
        if t.tpos >= 0:  # else t's image lies beyond max_degree
            union(t.k, t.tpos)
        if t.exterior and ctx.square.get(t.tpos, -1) >= 0:
            union(t.k, ctx.square[t.tpos])
    groups: dict[int, list[PresGenerator]] = {}
    for i, g in enumerate(gens):
        groups.setdefault(find(i), []).append(g)
    return sorted(groups.values(), key=lambda c: min(g.degree for g in c))


def _nonzero(a: Matrix) -> bool:
    return any(a.rows) if a.p == 2 else any(map(any, a.rows))


def _sweep_component(ctx: DerivationContext, top: int, failures: list) -> tuple[int, list[int]]:
    """The number of the component's monomials of degree <= top and its
    trivial Q_n-homology dims on [0, top], with the monomials on which
    Q_n∘Q_n is nonzero appended to failures in bucket order.

    Only the bases of the degrees read, d, d + dq and d + 2dq for d in
    [0, top], are kept: as top + 2dq < 3dq unless every degree is read,
    they are the degrees whose remainder mod dq is at most top.  Each block
    is built once: block d is ranked, and when it is nonzero the block out
    of d + dq is built, multiplied onto it unless it is zero, and held
    until its own turn.  A block where no Leibniz term lands has rank 0
    without a reduction, and a degree whose source or target bucket is
    empty is skipped.
    """
    p, dq = ctx.p, ctx.pres.qn_degree
    buckets = degree_bases(ctx.gens, top + 2 * dq, lambda d: d % dq <= top)
    ranks = [0] * (top + 1)
    ahead: dict[int, Matrix] = {}
    for d in range(top + 1):
        src, tgt = buckets.get(d), buckets.get(d + dq)
        if not src or not tgt:
            continue
        first = ahead.pop(d, None) or _qn_block(ctx, src, tgt)
        if not _nonzero(first):
            continue
        ranks[d] = rank_modp(first, p)
        if not ranks[d] or d + 2 * dq not in buckets:
            continue
        second = _qn_block(ctx, tgt, buckets[d + 2 * dq])
        if d + dq <= top:
            ahead[d + dq] = second
        if not _nonzero(second):
            continue
        square = _matmul(second, first)
        if p == 2:
            bad = functools.reduce(int.__or__, square.rows, 0)
            failures += (m for j, m in enumerate(src) if bad >> j & 1)
        else:
            failures += (m for j, m in enumerate(src) if any(r[j] for r in square.rows))
    dims = [
        len(buckets.get(d, ())) - ranks[d] - (ranks[d - dq] if d >= dq else 0)
        for d in range(top + 1)
    ]
    return sum(len(b) for d, b in buckets.items() if d <= top), dims


# The Q_n-homology lists on [0, top] per (p, n, top).  Every sweep stores a
# fresh entry that holds the trivial series alone, and qn_homology adds the
# total and free lists on its first read, so a sweep never leaves lists
# that an earlier one derived.  The homology blocks are the transposes of
# the cohomology ones and total_dims reads only degrees, so one entry
# serves either variance.
_TRIVIAL_MEMO: dict[tuple[int, int, int], dict[str, tuple[int, ...]]] = {}


def _qn_sweep(pres: Presentation, top: int) -> tuple[int, list[tuple[int, ...]]]:
    """One pass over every Q_n-coupled component on [0, top]: stores the
    trivial series in _TRIVIAL_MEMO and returns (monomials checked, square
    failures).  The component series are folded over their nonzero
    coefficients only."""
    dq = pres.qn_degree
    hi = top + 2 * dq
    series = [1] + [0] * top
    checked = 0
    failures: list[tuple[int, ...]] = []
    for comp in components(pres, hi):
        if len(comp) > 4:
            raise AssertionError("components have at most 4 generators")
        count, dims = _sweep_component(DerivationContext(pres, hi, gens=comp), top, failures)
        checked += count
        terms = [(d, c) for d, c in enumerate(dims) if c]
        out = [0] * (top + 1)
        for d1, a in enumerate(series):
            if a:
                for d2, c in terms:
                    if d1 + d2 > top:
                        break
                    out[d1 + d2] += a * c
        series = out
    _TRIVIAL_MEMO[pres.p, pres.n, top] = {"trivial": tuple(series)}
    return checked, failures


def sweep_monomials(p: int, n: int, top: int, cap: int) -> int:
    """The monomials the sweep on [0, top] enumerates, every monomial of
    degree <= top + 2(2p^n - 1) of every component, or, once the count
    passes cap, a partial count above cap.  The powers of i2 alone number
    hi // 2 + 1, which bounds the count before any series is built."""
    pres = build(p, n)
    hi = top + 2 * pres.qn_degree
    count = hi // 2 + 1
    if count > cap:
        return count
    count = 0
    for comp in components(pres, hi):
        count += sum(_prefix_sum_series(comp, hi))
        if count > cap:
            break
    return count


# ---------------------------------------------------------------------------
# reports


class QnHomologyReport(Record):
    """Trivial/free split of H* as a module over E[Q_n].

    total, trivial and free_rank are per-degree lists on [0, max_degree];
    each free summand spans its generator degree d and d + (2p^n - 1), so
    total(d) = trivial(d) + free_rank(d) + free_rank(d - (2p^n - 1)).
    """

    __slots__ = ()

    def __new__(cls, p, n, variance, max_degree, total, trivial, free_rank):
        return tuple.__new__(cls, (p, n, variance, max_degree, total, trivial, free_rank))

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


def check_top(top: int) -> None:
    """Every computation runs on [0, top]; the entry points refuse a top
    below 2."""
    if top < 2:
        raise ValueError(f"top must be at least 2, got {top}")


def qn_homology(p: int, n: int, variance: str, top: int) -> QnHomologyReport:
    """The report on [0, top], its lists computed once per (p, n, top) and
    kept in _TRIVIAL_MEMO; each report holds its own copies."""
    pres = build(p, n, variance)
    check_top(top)
    if (p, n, top) not in _TRIVIAL_MEMO:
        _qn_sweep(pres, top)
    entry = _TRIVIAL_MEMO[p, n, top]
    if "free" not in entry:
        total, triv = total_dims(pres, top), entry["trivial"]
        dq = pres.qn_degree
        free = [0] * (top + 1)
        for d in range(top + 1):
            lower = free[d - dq] if d >= dq else 0
            free[d] = total[d] - triv[d] - lower
            if free[d] < 0:
                raise AssertionError(f"negative free rank at degree {d}")
        entry["total"], entry["free"] = tuple(total), tuple(free)
    return QnHomologyReport(
        p, n, variance, top, list(entry["total"]), list(entry["trivial"]), list(entry["free"])
    )


# ---------------------------------------------------------------------------
# the w-elements


class WElement(Record):
    """A w-element: index2 is the doubled index 2(n+j) or 2(n+j)+1, poly
    the sorted (exponents, coefficient) pairs of its cycle."""

    __slots__ = ()

    def __new__(cls, index2, name, degree, poly):
        return tuple.__new__(cls, (index2, name, degree, poly))


def w_name(index2: int) -> str:
    if index2 % 2 == 0:
        return f"w_{index2 // 2}"
    return f"w_{index2}/2"


class WFactory:
    """Builds the w-elements as explicit cycles in the presentation."""

    def __init__(self, pres: Presentation, max_degree: int):
        self.pres = pres
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
        deg = numerology.degree_w(index2, self.pres.p, self.pres.n)
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


def _draw_monomials(
    rng, ctx: DerivationContext, gens: list[PresGenerator], room: int, count: int
) -> list[tuple[int, ...]]:
    """count seeded monomials of degree <= room over gens, in ctx's slots.

    For each, rng.sample(gens, len(gens)) orders the generators and
    rng.randint(0, cap) then draws each exponent, cap being the most the
    room left allows (at most 1 for an exterior generator).  Both are
    replayed straight from rng.getrandbits, so the sequence is theirs:
    sample's pool algorithm, which a full-length sample always takes, and
    the rejection loop of _randbelow, which draws w.bit_length() bits until
    the value falls below w.  Each generator's slot, degree and exterior
    flag are read once.
    """
    getrandbits = rng.getrandbits
    table = [(ctx.index[g.name], g.degree, g.exp_kind == "E") for g in gens]
    widths = [(w, w.bit_length()) for w in range(len(table), 0, -1)]
    out = []
    for _ in range(count):
        pool = table[:]
        order = []
        for w, bits in widths:
            j = getrandbits(bits)
            while j >= w:
                j = getrandbits(bits)
            order.append(pool[j])
            pool[j] = pool[w - 1]
        exps = [0] * len(ctx.gens)
        left = room
        for slot, degree, exterior in order:
            w = left // degree + 1
            if exterior and w > 2:
                w = 2
            bits = w.bit_length()
            e = getrandbits(bits)
            while e >= w:
                e = getrandbits(bits)
            exps[slot] = e
            left -= e * degree
        out.append(tuple(exps))
    return out


def _square_failures(ctx: DerivationContext, bucket: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The monomials of bucket on which Q_n∘Q_n is nonzero, in bucket order.

    The bucket goes through the kernel once and the distinct targets it
    reaches once more; each column's composed image is summed mod p.
    """
    p = ctx.p
    pos: dict[tuple[int, ...], int] = {}
    first: list[list[tuple[int, int]]] = [[] for _ in bucket]
    for j, t, c in ctx.leibniz_terms(bucket):
        first[j].append((pos.setdefault(t, len(pos)), c))
    second: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in pos]
    for i, t, c in ctx.leibniz_terms(list(pos)):
        second[i].append((t, c))
    failures = []
    for m, terms in zip(bucket, first):
        image: dict[tuple[int, ...], int] = {}
        for i, c in terms:
            for t, c2 in second[i]:
                image[t] = (image.get(t, 0) + c * c2) % p
        if any(image.values()):
            failures.append(m)
    return failures


SQUARE_SEED = 0  # the seed of the mixed samples of qn_square_check


def qn_square_check(
    p: int, n: int, max_degree: int, mixed_samples: int = 2000
) -> tuple[int, list[tuple[int, ...]]]:
    """Check Q_n(Q_n(m)) = 0 through the implemented derivation.

    Every Q_n-coupled tensor component is swept whole, every monomial up
    to max_degree: degree by degree, the product of the Q_n block out of
    d + dq with the block out of d must vanish, and each nonzero column is
    a failing monomial.  The sweep that multiplies the blocks also ranks
    them and stores the trivial series that qn_homology reads; the check
    itself never reads that memo.  Products across components satisfy the
    identity once each factor does (the cross terms of a derivation square
    cancel), but seeded random mixed monomials over all generators are
    pushed through the kernel as well, as one bucket, and their failures
    follow the sweep's in draw order.  Returns (monomials checked,
    failures).
    """
    import random

    pres = build(p, n)
    dq = pres.qn_degree
    checked, failures = _qn_sweep(pres, max_degree)
    ctx = DerivationContext(pres, max_degree + 2 * dq)
    full_gens = [g for g in ctx.gens if g.degree <= max_degree]
    samples = _draw_monomials(random.Random(SQUARE_SEED), ctx, full_gens, max_degree, mixed_samples)
    failures += _square_failures(ctx, samples)
    return checked + len(samples), failures


def w_elements(p: int, n: int, max_degree: int) -> tuple[WFactory, list[WElement]]:
    """All w-elements (integer and half index) with degree inside the window."""
    pres = build(p, n)
    factory = WFactory(pres, max_degree)
    out = []
    index2 = 2 * n
    while numerology.degree_w(index2, p, n) <= max_degree:
        out.append(factory.element(index2))
        index2 += 1
    return factory, out
