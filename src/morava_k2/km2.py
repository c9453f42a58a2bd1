"""H*K(Z_p, 2) with the Milnor primitive Q_n, and its Q_n-homology.

The presentation is polynomial-tensor-exterior on ι₂ (written i2), the even
classes z_i and the odd classes u_i at odd primes; at p = 2 everything is
polynomial on i2 and the u_i, with u_i² playing the role of z_{i+1}.  Q_n is
the tabulated map on generators extended as a derivation with Koszul signs.

Q_n-homology is computed two independent ways: a direct per-degree
kernel/image computation on the full monomial basis (small windows), and a
factored route that splits the algebra into the tensor components coupled by
Q_n and handles each separately (large windows).  One ExplicitHomology turns
Q_n blocks into homology for both: the full basis in direct mode, each
component at odd p, and the core of each component at p = 2.  There the
components are infinite polynomial chains, processed by repeatedly adjoining
one generator at a time: adjoining u with Q_n(u) = m turns homology into
cokernel and kernel blocks of multiplication by m on the previous stage, and
the needed multiplication operators are carried along through each stage.
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

    @classmethod
    def identity(cls, n: int, p: int) -> Matrix:
        if p == 2:
            return cls([1 << i for i in range(n)], n, p)
        return cls([[int(i == j) for j in range(n)] for i in range(n)], n, p)

    def column(self, j: int) -> list[int]:
        if self.p == 2:
            return [(r >> j) & 1 for r in self.rows]
        return [r[j] for r in self.rows]

    @property
    def T(self) -> Matrix:
        rows, cols = self.shape
        if self.p != 2:
            return Matrix([[r[j] for r in self.rows] for j in range(cols)], rows, self.p)
        out = [0] * cols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= bit
                r ^= low
        return Matrix(out, rows, 2)

    def take(self, cols: list[int]) -> Matrix:
        """The given columns, in that order."""
        if self.p != 2:
            return Matrix([[r[c] for c in cols] for r in self.rows], len(cols), self.p)
        slot = {1 << c: 1 << k for k, c in enumerate(cols)}
        out = []
        for r in self.rows:
            x = 0
            while r:
                low = r & -r
                x |= slot.get(low, 0)
                r ^= low
            out.append(x)
        return Matrix(out, len(cols), 2)


def hstack(blocks: list[Matrix]) -> Matrix:
    """The columns of the blocks side by side."""
    p = blocks[0].p
    nrows = blocks[0].shape[0]
    if any(b.shape[0] != nrows for b in blocks):
        raise ValueError("hstack blocks differ in row count")
    cols = sum(b.shape[1] for b in blocks)
    if p != 2:
        return Matrix([sum(rs, []) for rs in zip(*(b.rows for b in blocks))], cols, p)
    rows = list(blocks[0].rows)
    off = blocks[0].shape[1]
    for b in blocks[1:]:
        rows = [x | y << off for x, y in zip(rows, b.rows)]
        off += b.shape[1]
    return Matrix(rows, cols, 2)


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
    """Columns form a basis of ker(a) over F_p, one per free column."""
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


def solve_modp(a: Matrix, b: Matrix, p: int) -> Matrix:
    """One solution x of a @ x = b (columns of b); free variables are 0."""
    cols = a.shape[1]
    r, piv = rref_modp(hstack([a, b]), p)
    x = Matrix.zeros(cols, b.shape[1], p)
    for i, pc in enumerate(piv):
        if pc >= cols:
            raise ValueError("inconsistent linear system")
        x.rows[pc] = r.rows[i] >> cols if p == 2 else r.rows[i][cols:]
    return x


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
    generator list is shared; only the variance tag and the direction of
    the matrices differ downstream.
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
        if p == 2:
            i = 0
            while 2 * 2**i + 1 <= max_degree:
                gens.append(PresGenerator(f"u_{i}", 2 * 2**i + 1, "P", "u", i))
                i += 1
        else:
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
        if p == 2:
            if i < n:
                return (f"u_{n - i - 1}", 2 ** (i + 1))
            if i == n:
                return None
            return (f"u_{i - n - 1}", 2 ** (n + 1))
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
    exterior: bool  # the target is exterior: the term dies once it is present
    before: tuple[int, ...]  # odd slots before k: the Koszul sign
    between: tuple[int, ...]  # odd slots strictly between k and an odd target


class DerivationContext:
    """Q_n on exponent tuples over a fixed ordered generator list.

    Monomials are written in list order; a Leibniz term that inserts an odd
    generator picks up, besides the (-1)^(prefix degree) of the Koszul rule,
    the reordering sign for moving the inserted factor to its canonical slot.
    The terms are tabulated once per context; leibniz_terms is the one
    place the derivation is applied.
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

    def leibniz_terms(self, bucket: list[tuple[int, ...]]) -> Iterator[tuple[int, tuple[int, ...], int]]:
        """Yield (column, target, coefficient) for every nonzero Leibniz
        term of Q_n on the monomials of bucket, one generator at a time.

        Two generators of one monomial never reach the same target, so the
        terms of a column need no summing.
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
                if not c or exterior and m[tpos] + texp > 1:
                    continue
                if p != 2 and (sum(m[t] for t in before) + sum(1 for t in between if m[t])) % 2:
                    c = p - c
                t = list(m)
                t[k] -= 1
                t[tpos] += texp
                yield j, tuple(t), c

    def qn_monomial(self, exps: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Q_n of one monomial as {target: coefficient}: the one-column case."""
        return {t: c for _j, t, c in self.leibniz_terms([exps])}

    def qn_poly(self, poly: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in poly.items():
            for m, c in self.qn_monomial(exps).items():
                v = (out.get(m, 0) + coeff * c) % self.p
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
                dead = False
                sign = 1
                if p != 2:
                    # merge sign: odd factors of the left monomial hop over
                    # odd factors of the right one sitting at earlier slots
                    for s in odd_pos:
                        if ea[s]:
                            for t in odd_pos:
                                if t < s and eb[t]:
                                    sign = -sign
                ne = []
                for k, g in enumerate(self.gens):
                    tot = ea[k] + eb[k]
                    if g.exp_kind == "E" and tot > 1:
                        dead = True
                        break
                    ne.append(tot)
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
# factored-mode homology: tensor components coupled by Q_n


def components(pres: Presentation, max_degree: int) -> list[list[PresGenerator]]:
    """Partition of the generators up to max_degree into Q_n-coupled pieces.

    Callers computing homology on [0, hi] must pass hi + (2p^n - 1) so that
    every Q_n-target of an in-window monomial has its generator present.
    """
    gens = pres.generators(max_degree)
    index = {g.name: i for i, g in enumerate(gens)}
    parent = list(range(len(gens)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for i, g in enumerate(gens):
        img = pres.qn_on_generator(g.name)
        if img is not None and img[0] in index:
            union(i, index[img[0]])
    groups: dict[int, list[PresGenerator]] = {}
    for i, g in enumerate(gens):
        groups.setdefault(find(i), []).append(g)
    return sorted(groups.values(), key=lambda c: min(g.degree for g in c))


class ExplicitHomology:
    """Q_n-homology of the sub-algebra on a generator subset, with operators.

    Serves direct mode (the full generator list), the odd-p components and
    the core of each p = 2 adjunction chain, in either variance.  Ranks give
    the dimension in every degree; representative vectors, and at p = 2 the
    matrices of multiplication by a fixed cycle monomial on homology, are
    built only in the degrees that ask for them.
    """

    def __init__(self, pres: Presentation, gens: list[PresGenerator], top: int):
        self.pres = pres
        dq = pres.qn_degree
        self.ctx = DerivationContext(pres, top + dq, gens=gens)
        self.buckets = window_bases(gens, top + dq)
        self.mats = [_qn_block(self.ctx, self.buckets[d], self.buckets[d + dq]) for d in range(top + 1)]
        ranks = [rank_modp(m, pres.p) for m in self.mats]
        self.dims = [
            len(self.buckets[d]) - ranks[d] - (ranks[d - dq] if d >= dq else 0)
            for d in range(top + 1)
        ]
        self._bases: dict[int, tuple[Matrix, Matrix]] = {}

    def _basis(self, d: int) -> tuple[Matrix, Matrix]:
        """(representatives, [representatives | image basis]) at degree d.

        The representatives are the cycles that extend the image of the
        incoming Q_n, taken greedily: single cycle monomials first, then the
        kernel vectors in nullspace order.
        """
        if d not in self._bases:
            p, dq = self.pres.p, self.pres.qn_degree
            dim = len(self.buckets[d])
            out = self.mats[d]
            im = self.mats[d - dq] if d >= dq else Matrix.zeros(dim, 0, p)
            if self.pres.variance == "homology":
                # homology runs Q_n downward: the blocks are the transposes
                out, im = im.T, out.T
            if p == 2:
                used = functools.reduce(int.__or__, out.rows, 0)
                units = [i for i in range(dim) if not used >> i & 1]
            else:
                units = [i for i in range(dim) if not any(out.column(i))]
            cand = hstack([im, Matrix.identity(dim, p).take(units), nullspace_modp(out, p)])
            _, piv = rref_modp(cand, p)
            k0 = im.shape[1]
            reps = cand.take([c for c in piv if c >= k0])
            if reps.shape[1] != self.dims[d]:
                raise AssertionError(f"representatives disagree with the rank count at degree {d}")
            self._bases[d] = reps, hstack([reps, im.take([c for c in piv if c < k0])])
        return self._bases[d]

    def labels(self, d: int) -> list[str]:
        """The representatives at degree d as sums of monomials, starred in homology."""
        reps = self._basis(d)[0]
        out = []
        for k in range(reps.shape[1]):
            terms = [(self.ctx.render(m), x) for m, x in zip(self.buckets[d], reps.column(k)) if x]
            s = " + ".join(t if c == 1 else f"{c}*{t}" for t, c in terms)
            out.append(f"({s})*" if self.pres.variance == "homology" else s)
        return out

    def reduce(self, d: int, vecs: Matrix) -> Matrix:
        """Coordinates of cycle vectors in the homology basis at degree d (p = 2)."""
        h = self.dims[d]
        if vecs.shape[1] == 0:
            return Matrix.zeros(h, 0, 2)
        basis = self._basis(d)[1]
        if basis.shape[1] == 0:
            if any(vecs.rows):
                raise AssertionError("nonzero cycle in a degree with no cycles")
            return Matrix.zeros(h, vecs.shape[1], 2)
        return Matrix(solve_modp(basis, vecs, 2).rows[:h], vecs.shape[1], 2)

    def mult_matrices(self, mono: dict[str, int], valid_to: int) -> list[Matrix]:
        """Matrices of multiplication by the cycle monomial on homology.

        Entry d maps H(d) -> H(d + deg(mono)); defined for d <= valid_to.
        Bitset rows, so p = 2 only: the adjunction chain is its one caller.
        """
        if self.pres.p != 2:
            raise AssertionError("multiplication operators are built at p = 2 only")
        deg = sum(self.ctx.gens[self.ctx.index[nm]].degree * e for nm, e in mono.items())
        shift = [0] * len(self.ctx.gens)
        for nm, e in mono.items():
            shift[self.ctx.index[nm]] += e
        out = []
        for d in range(valid_to + 1):
            if not self.dims[d]:
                out.append(Matrix.zeros(self.dims[d + deg], 0, 2))
                continue
            src = self._basis(d)[0]
            pos = {m: i for i, m in enumerate(self.buckets[d + deg])}
            img = Matrix.zeros(len(pos), src.shape[1], 2)
            for m, row in zip(self.buckets[d], src.rows):
                if row:
                    key = pos.get(tuple(a + b for a, b in zip(m, shift)))
                    if key is not None:
                        img.rows[key] ^= row
            out.append(self.reduce(d + deg, img))
        return out


# ---- p = 2 adjunction chain ----


class _Level:
    """Homology of a partial component, with pending multiplication operators.

    basis entries at degree d are blocks (i, tag, e): the class of
    u^(2i) x (tag "c", x a cokernel representative at degree e) or
    u^(2i+1) x (tag "k", x a kernel vector), for the most recently adjoined
    generator u.  ops maps a token (name, exponent) to per-degree matrices.
    """

    def __init__(self, dims: list[int], window: int):
        self.dims = dims
        self.window = window
        self.ops: dict[tuple[str, int], tuple[int, list[Matrix]]] = {}


def _core_level(
    pres: Presentation,
    core: list[PresGenerator],
    window: int,
    tokens: list[tuple[str, int]],
) -> _Level:
    eh = ExplicitHomology(pres, core, window)
    level = _Level(list(eh.dims), window)
    for name, exp in tokens:
        gen = next(g for g in core if g.name == name)
        deg = gen.degree * exp
        level.ops[(name, exp)] = (deg, eh.mult_matrices({name: exp}, window - deg))
    return level


def _cone_level(prev: _Level, du: int, op_key: tuple[str, int] | None) -> tuple["_ConeData", _Level]:
    """Adjoin a polynomial generator u of degree du with Q_n(u) = m (p = 2).

    op_key indexes multiplication by m among prev.ops (None means m = 0).
    Valid degrees shrink by the operator degree, since kernels at the top
    of the window would need image data beyond it.
    """
    if op_key is None:
        dm = 0
        mats = None
        window = prev.window
    else:
        dm, mats = prev.ops[op_key]
        window = min(prev.window - dm, len(mats) - 1)
    ker: list[Matrix] = []
    nonpiv: list[list[int]] = []
    proj_rows: list[Matrix] = []
    for e in range(window + 1):
        dim = prev.dims[e]
        if mats is None:
            ker.append(Matrix.identity(dim, 2))
            nonpiv.append(list(range(dim)))
            proj_rows.append(Matrix.zeros(0, dim, 2))
            continue
        ker.append(nullspace_modp(mats[e], 2))
        if e >= dm:
            r, piv = rref_modp(mats[e - dm].T, 2)
            pivots = set(piv)
            nonpiv.append([c for c in range(dim) if c not in pivots])
            proj_rows.append(Matrix(r.rows[: len(piv)], dim, 2))
        else:
            nonpiv.append(list(range(dim)))
            proj_rows.append(Matrix.zeros(0, dim, 2))
    # dim(d) sums coker(d - 2i du) + ker(d - (2i + 1) du) over i >= 0: a
    # running sum with stride 2 du
    dims = [len(nonpiv[e]) + (ker[e - du].shape[1] if e >= du else 0) for e in range(window + 1)]
    for d in range(2 * du, window + 1):
        dims[d] += dims[d - 2 * du]
    return _ConeData(du, window, ker, nonpiv, proj_rows, mats is None, dims), _Level(dims, window)


class _ConeData:
    """Layout and transition data of one adjunction stage."""

    def __init__(self, du, window, ker, nonpiv, proj_rows, zero_op, dims):
        self.du = du
        self.window = window
        self.ker = ker
        self.nonpiv = nonpiv
        self.proj_rows = proj_rows
        self.zero_op = zero_op
        self.dims = dims  # the new level's dims
        self._layout: dict[int, list[tuple[int, str, int, int, int]]] = {}

    def layout(self, d: int) -> list[tuple[int, str, int, int, int]]:
        """Blocks (i, tag, e, offset, size) of the level basis at degree d."""
        if d not in self._layout:
            blocks = []
            off = 0
            i = 0
            while True:
                e_c = d - 2 * i * self.du
                if e_c < 0:
                    break
                size = len(self.nonpiv[e_c])
                if size:
                    blocks.append((i, "c", e_c, off, size))
                off += size
                e_k = d - (2 * i + 1) * self.du
                if e_k >= 0:
                    size = self.ker[e_k].shape[1]
                    if size:
                        blocks.append((i, "k", e_k, off, size))
                    off += size
                i += 1
            self._layout[d] = blocks
        return self._layout[d]

    def block_offset(self, d: int, i: int, tag: str) -> tuple[int, int] | None:
        """(offset, size) of block (i, tag) at degree d, None where it is
        empty.  The blocks before (i, "c") are the whole basis at d less
        the basis at d - 2i du, and (i, "k") follows (i, "c")."""
        e = d - 2 * i * self.du
        if e < 0:
            return None
        off = self.dims[d] - self.dims[e]
        if tag == "c":
            size = len(self.nonpiv[e])
        else:
            if e < self.du:
                return None
            off += len(self.nonpiv[e])
            size = self.ker[e - self.du].shape[1]
        return (off, size) if size else None

    def coker_project(self, e: int, vecs: Matrix) -> Matrix:
        """Coordinates of prev-homology vectors in the cokernel basis at e."""
        v = list(vecs.rows)
        for row in self.proj_rows[e].rows:
            lead = v[(row & -row).bit_length() - 1]
            if lead:
                while row:
                    low = row & -row
                    v[low.bit_length() - 1] ^= lead
                    row ^= low
        return Matrix([v[c] for c in self.nonpiv[e]], vecs.shape[1], 2)

    def propagate(self, prev_level: _Level, key: tuple[str, int], new_level: _Level) -> tuple[int, list[Matrix]]:
        """Express a pending prev-level operator on the new level's basis."""
        deg, mats = prev_level.ops[key]
        valid = min(self.window - deg, len(mats) - 1)
        out = []
        for d in range(valid + 1):
            a = Matrix.zeros(new_level.dims[d + deg], new_level.dims[d], 2)
            for i, tag, e, off, size in self.layout(d):
                tgt = self.block_offset(d + deg, i, tag)
                if tgt is None:
                    continue
                toff, tsize = tgt
                if tag == "c":
                    coords = self.coker_project(e + deg, mats[e].take(self.nonpiv[e]))
                else:
                    img = _matmul(mats[e], self.ker[e])
                    kb = self.ker[e + deg]
                    coords = solve_modp(kb, img, 2) if kb.shape[1] else Matrix.zeros(0, size, 2)
                if coords.shape != (tsize, size):
                    raise AssertionError(f"block of shape {coords.shape} placed in a {tsize} x {size} slot")
                for k, x in enumerate(coords.rows):
                    a.rows[toff + k] |= x << off
            out.append(a)
        return deg, out

    def materialize_power(self, exp: int, new_level: _Level) -> tuple[int, list[Matrix]]:
        """Multiplication by u^exp on this level (u the adjoined generator).

        Even powers shift the block index; the odd unit step is only valid
        when the cone differential was zero (then every u^a x is a cycle).
        """
        deg = exp * self.du
        half, odd = divmod(exp, 2)
        if odd and not self.zero_op:
            raise AssertionError("odd power of a cone generator with nonzero differential")
        valid = self.window - deg
        out = []
        for d in range(valid + 1):
            a = Matrix.zeros(new_level.dims[d + deg], new_level.dims[d], 2)
            for i, tag, e, off, size in self.layout(d):
                if not odd:
                    tgt = self.block_offset(d + deg, i + half, tag)
                else:
                    # with zero differential, coker and ker bases are both
                    # the identity, so the unit step swaps the tag directly
                    if tag == "c":
                        tgt = self.block_offset(d + deg, i + half, "k")
                    else:
                        tgt = self.block_offset(d + deg, i + half + 1, "c")
                if tgt is None:
                    continue
                toff, tsize = tgt
                for j in range(min(size, tsize)):
                    a.rows[toff + j] |= 1 << (off + j)
            out.append(a)
        return deg, out


def _p2_component_dims(pres: Presentation, comp: list[PresGenerator], hi: int) -> list[int]:
    if pres.p != 2:
        raise AssertionError("adjunction chain is the p = 2 route")
    names = {g.name for g in comp}
    deg_of = {g.name: g.degree for g in comp}
    img: dict[str, tuple[str, int] | None] = {}
    for g in comp:
        im = pres.qn_on_generator(g.name)
        # a target beyond the generator horizon only matters above hi
        img[g.name] = im if im is not None and im[0] in names else None
    # generators on a Q_n-cycle (mutual or self coupling) form the core
    core_names: set[str] = set()
    for g in comp:
        seen: list[str] = []
        cur: str | None = g.name
        while cur is not None and cur not in seen:
            seen.append(cur)
            nxt = img.get(cur)
            cur = nxt[0] if nxt else None
        if cur is not None:
            core_names.update(seen[seen.index(cur) :])
    core = sorted((g for g in comp if g.name in core_names), key=lambda g: g.degree)
    placed = set(core_names)
    order: list[PresGenerator] = []
    pool = sorted((g for g in comp if g.name not in core_names), key=lambda g: g.degree)
    while pool:
        for k, g in enumerate(pool):
            base = img[g.name][0] if img[g.name] else None
            if base is None or base in placed:
                order.append(pool.pop(k))
                placed.add(g.name)
                break
        else:
            raise AssertionError("adjunction order blocked")
    steps: list[tuple[PresGenerator, tuple[str, int] | None]] = [
        (g, img[g.name]) for g in order
    ]
    budget = sum(deg_of[t[0]] * t[1] for _g, t in steps if t is not None)
    window = hi + budget
    core_tokens = [t for _g, t in steps if t is not None and t[0] in core_names]
    level = _core_level(pres, core, window, core_tokens)
    for idx, (g, token) in enumerate(steps):
        data, new_level = _cone_level(level, g.degree, token)
        # carry the operators still needed by later steps
        for _g2, t2 in steps[idx + 1 :]:
            if t2 is None or t2 in new_level.ops:
                continue
            if t2[0] == g.name:
                new_level.ops[t2] = data.materialize_power(t2[1], new_level)
            elif t2 in level.ops:
                new_level.ops[t2] = data.propagate(level, t2, new_level)
        level = new_level
    if level.window < hi:
        raise WindowError("adjunction chain ran out of degree window")
    return level.dims[: hi + 1]


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
    mode: str
    total: list[int]
    trivial: list[int]
    free_rank: list[int]
    trivial_reps: dict[int, list[str]] | None

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
            if p == 2:
                cd = _p2_component_dims(pres, comp, hi)
            else:
                if len(comp) > 3:
                    raise AssertionError("odd-prime components have at most 3 generators")
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
    mode: str = "factored",
) -> QnHomologyReport:
    pres = build(p, n, variance)
    hi = default_window(n) if max_degree is None else max_degree
    if hi < 2:
        raise ValueError("max_degree must be at least 2")
    total = total_dims(pres, hi)
    if mode == "direct":
        eh = ExplicitHomology(pres, pres.generators(hi + pres.qn_degree), hi)
        triv = eh.dims
        reps = {d: eh.labels(d) if triv[d] else [] for d in range(hi + 1)}
    elif mode == "factored":
        triv = list(_factored_trivial(p, n, hi))
        reps = None
    else:
        raise ValueError(f"mode must be direct or factored, got {mode!r}")
    dq = pres.qn_degree
    free = [0] * (hi + 1)
    for d in range(hi + 1):
        lower = free[d - dq] if d >= dq else 0
        free[d] = total[d] - triv[d] - lower
        if free[d] < 0:
            raise AssertionError(f"negative free rank at degree {d}")
    return QnHomologyReport(p, n, variance, hi, mode, total, triv, free, reps)


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

    def _z_power(self, i: int, k: int) -> dict[str, int]:
        # at p = 2 the presentation has no z generators; z_i = u_{i-1}^2
        if k == 0:
            return {}
        if self.pres.p == 2:
            return {f"u_{i - 1}": 2 * k}
        return {f"z_{i}": k}

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
            tail = {f"u_{n - j}": 1}
            for nm, e in self._z_power(j, p**n - p ** (n - j)).items():
                tail[nm] = tail.get(nm, 0) + e
            # the sign makes the two Leibniz images cancel; at p = 2 it is +
            return _poly_add(first, self._mono(tail, -1), p)
        jj = j - (n + 1)
        if p == 2 and jj == 0:
            tail = {"i2": 1, f"u_{n}": 2 ** (n + 1) - 1}
            return _poly_add(self._mono({f"u_{2 * n + 1}": 1}), self._mono(tail), p)
        y = self._mono({"i2": (p - 1) * p**jj})
        zpart = self._mono(self._z_power(n + jj + 1, p**n - 1))
        return self.ctx.mul_poly(self.ctx.mul_poly(y, self.w_poly(n + jj)), zpart)

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


def qn_square_check(
    p: int,
    n: int,
    max_degree: int,
    mixed_samples: int = 2000,
    component_budget: int = 1_000_000,
    seed: int = 0,
) -> tuple[int, list[tuple[int, ...]]]:
    """Check Q_n(Q_n(m)) = 0 through the implemented derivation.

    Per Q_n-coupled tensor component, every monomial up to max_degree is
    swept when the count fits component_budget: degree by degree, the
    product of the Q_n block out of d + dq with the block out of d (the
    blocks ExplicitHomology ranks) must vanish, and each nonzero column is
    a failing monomial.  One p=2 component grows to tens of millions of
    monomials; there the sweep covers all monomials with every exponent
    <= 2p-1 (the Leibniz coefficients read exponents only mod p, and
    exterior caps only read presence, so these exhaust every cancellation
    class) plus seeded full-range samples, one monomial at a time.
    Products across components satisfy the identity once each factor does
    (the cross terms of a derivation square cancel), but random mixed
    monomials are pushed through the code path as well.  Returns (monomials
    checked, failures).
    """
    import random

    pres = build(p, n)
    dq = pres.qn_degree
    rng = random.Random(seed)
    checked = 0
    failures: list[tuple[int, ...]] = []

    def run(ctx: DerivationContext, m: tuple[int, ...]) -> None:
        nonlocal checked
        q1 = ctx.qn_monomial(m)
        if q1 and ctx.qn_poly(q1):
            failures.append(m)
        checked += 1

    for comp in components(pres, max_degree + 2 * dq):
        ctx = DerivationContext(pres, max_degree + 2 * dq, gens=comp, missing_as_zero=True)
        count = sum(_prefix_sum_series(comp, max_degree))
        if count <= component_budget:
            buckets = window_bases(comp, max_degree + 2 * dq)
            failures += _square_failures(ctx, buckets, max_degree)
            checked += count
        else:
            each_monomial(
                [g.degree for g in comp],
                [2 * p - 1] * len(comp),
                max_degree,
                lambda m, _d: run(ctx, m),
            )
            for _ in range(10 * mixed_samples):
                run(ctx, _random_monomial(rng, ctx, list(comp), max_degree))
    ctx = DerivationContext(pres, max_degree + 2 * dq, missing_as_zero=True)
    full_gens = [g for g in ctx.gens if g.degree <= max_degree]
    for _ in range(mixed_samples):
        run(ctx, _random_monomial(rng, ctx, full_gens, max_degree))
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
