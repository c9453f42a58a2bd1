"""Presentation, Q_n derivation and Q_n-homology checks.

Frozen dimension prefixes come from two in-repo routes (the rank of the
whole monomial basis, helpers.whole_basis_trivial, and the tensor-component
factorization) agreeing before freezing.
"""

import contextlib
import functools
import gc
import itertools
import math
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morava_k2 import cli, km2
from morava_k2.graded_algebra import E, Factor, Generator, P, TensorExpression

from helpers import (
    check_invariant,
    from_polynomial_basis,
    polynomial_basis_p2,
    polynomial_qn_p2,
    qn_block_reference,
    qn_matrix,
    qn_monomial,
    qn_monomial_reference,
    qn_square_reference,
    random_monomial,
    render,
    transpose,
    whole_basis_total,
    whole_basis_trivial,
    window_bases,
)


def count_nonzero(m):
    return sum(1 for r in m.rows for x in r if x)


def gen_degrees(p, n, top):
    pres = km2.build(p, n)
    return {g.name: g.degree for g in pres.generators(top)}


def test_generator_degrees_odd_p():
    assert gen_degrees(3, 1, 30) == {
        "i2": 2, "z_1": 8, "z_2": 20, "u_0": 3, "u_1": 7, "u_2": 19,
    }
    d32 = gen_degrees(3, 2, 60)
    assert d32["u_2"] == 19
    assert d32["z_1"] == 8
    assert d32["z_2"] == 20
    assert d32["z_3"] == 56


def test_generator_degrees_p2():
    # the odd-p formula at p = 2: z_{i+1} stands for u_i^2, in degree 2(2^(i+1) + 1)
    assert gen_degrees(2, 1, 20) == {
        "i2": 2, "z_1": 6, "z_2": 10, "z_3": 18, "u_0": 3, "u_1": 5, "u_2": 9, "u_3": 17,
    }
    pres = km2.build(2, 1)
    assert all(g.exp_kind == ("E" if g.family == "u" else "P") for g in pres.generators(40))


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        km2.build(4, 1)
    with pytest.raises(ValueError):
        km2.build(1, 1)
    with pytest.raises(ValueError):
        km2.build(3, 0)
    with pytest.raises(ValueError):
        km2.build(3, 1, "both")


def _trial_division(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [q for q in range(-3, 10**5) if km2._is_prime(q)] == [
        q for q in range(-3, 10**5) if _trial_division(q)
    ]


# Carmichael numbers, the last also a strong pseudoprime to bases 2, 3, 5, 7
_CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 3215031751)


def test_is_prime_decides_large_p():
    """A 17- and a 20-digit prime pass; Carmichael numbers fail, and so does
    318665857834031151167461, a strong pseudoprime to the first twelve prime
    bases that the thirteenth, 41, exposes."""
    assert km2._is_prime(10000000000000061)
    assert km2._is_prime(2**64 - 59)
    for c in _CARMICHAEL:
        assert not _trial_division(c)
        assert all(pow(a, c - 1, c) == 1 for a in range(2, 100) if math.gcd(a, c) == 1), c
        assert not km2._is_prime(c), c
    assert not km2._is_prime(399165290221 * 798330580441)


def test_is_prime_refuses_p_at_or_above_its_bound(capsys):
    """The bound is itself composite, a strong pseudoprime to all thirteen
    bases, so _is_prime refuses it and every p above it."""
    assert km2.PRIME_BOUND == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="primality test is exact"):
        km2._is_prime(km2.PRIME_BOUND)
    with pytest.raises(ValueError):
        km2.build(km2.PRIME_BOUND + 2, 1)
    assert cli.main(["compute", "--p", str(km2.PRIME_BOUND), "--n", "1"]) == 2
    assert f"p must be below {km2.PRIME_BOUND}" in capsys.readouterr().err


def test_qn_on_generator_odd_p():
    pres = km2.build(3, 1)
    assert pres.qn_on_generator("i2") == ("u_1", 1)
    assert pres.qn_on_generator("u_0") == ("z_1", 1)
    assert pres.qn_on_generator("u_1") is None
    assert pres.qn_on_generator("u_2") == ("z_1", 3)
    assert pres.qn_on_generator("z_1") is None
    pres2 = km2.build(3, 2)
    assert pres2.qn_on_generator("u_1") == ("z_1", 3)
    assert pres2.qn_on_generator("u_4") == ("z_2", 9)


def test_qn_on_generator_p2():
    # u_0 -> u_1^2 = z_2, u_1 -> u_0^4 = z_1^2, u_5 -> u_2^8 = z_3^4
    pres = km2.build(2, 2)
    assert pres.qn_on_generator("i2") == ("u_2", 1)
    assert pres.qn_on_generator("u_0") == ("z_2", 1)
    assert pres.qn_on_generator("u_1") == ("z_1", 2)
    assert pres.qn_on_generator("u_2") is None
    assert pres.qn_on_generator("u_5") == ("z_3", 4)
    assert pres.qn_on_generator("z_3") is None


def test_qn_matrix_single_generator_degrees():
    """Degree 2 holds only i2, mapping to u_1 with coefficient 1."""
    pres = km2.build(3, 1)
    m = qn_matrix(pres, 2, 40)
    gens = pres.generators(40)
    basis7 = window_bases(gens, 40)[7]
    assert m.shape == (len(basis7), 1)
    u1 = next(i for i, g in enumerate(gens) if g.name == "u_1")
    expected_row = basis7.index(tuple(1 if k == u1 else 0 for k in range(len(gens))))
    assert m.rows[expected_row][0] == 1
    assert count_nonzero(m) == 1

    m3 = qn_matrix(pres, 3, 40)
    basis8 = window_bases(gens, 40)[8]
    z1 = next(i for i, g in enumerate(gens) if g.name == "z_1")
    row = basis8.index(tuple(1 if k == z1 else 0 for k in range(len(gens))))
    assert m3.rows[row][0] == 1
    assert count_nonzero(m3) == 1


def test_qn_matrix_exterior_square_kill():
    # Q_1(i2 u_1) = u_1 u_1 - 0 = 0
    pres = km2.build(3, 1)
    gens = pres.generators(40)
    basis9 = window_bases(gens, 40)[9]
    i2 = next(i for i, g in enumerate(gens) if g.name == "i2")
    u1 = next(i for i, g in enumerate(gens) if g.name == "u_1")
    exps = [0] * len(gens)
    exps[i2] = 1
    exps[u1] = 1
    col = basis9.index(tuple(exps))
    m = qn_matrix(pres, 9, 40)
    assert not any(r[col] for r in m.rows)


def test_qn_matrix_homology_is_transpose():
    pres_c = km2.build(3, 1, "cohomology")
    pres_h = km2.build(3, 1, "homology")
    up = qn_matrix(pres_c, 8, 40)
    down = qn_matrix(pres_h, 13, 40)
    assert down.shape == (up.shape[1], up.shape[0])
    assert down.rows == [list(c) for c in zip(*up.rows)]
    # below the derivation degree the homology target space is empty
    low = qn_matrix(pres_h, 3, 40)
    assert low.shape[0] == 0


def test_derivation_reorder_sign():
    """Inserting u_1 past u_0 anticommutes: Q(i2 u_0) = -u_0 u_1 + i2 z_1."""
    pres = km2.build(3, 1)
    ctx = km2.DerivationContext(pres, 30)
    i2 = ctx.index["i2"]
    u0 = ctx.index["u_0"]
    u1 = ctx.index["u_1"]
    z1 = ctx.index["z_1"]
    exps = [0] * len(ctx.gens)
    exps[i2] = 1
    exps[u0] = 1
    out = qn_monomial(ctx, tuple(exps))
    e1 = [0] * len(ctx.gens)
    e1[u0] = 1
    e1[u1] = 1
    e2 = [0] * len(ctx.gens)
    e2[i2] = 1
    e2[z1] = 1
    assert out == {tuple(e1): 2, tuple(e2): 1}


def test_derivation_window_error_when_image_gen_missing():
    pres = km2.build(3, 1)
    ctx = km2.DerivationContext(pres, 4)
    exps = tuple(1 if g.name == "i2" else 0 for g in ctx.gens)
    with pytest.raises(km2.WindowError):
        qn_monomial(ctx, exps)
    # a block raises it too, before any target is looked up
    with pytest.raises(km2.WindowError):
        km2._qn_block(ctx, [exps], [])


def test_p2_carry_needs_its_square_in_the_window():
    """Q_1(i2 u_1) = u_1 u_1 = z_2 in degree 10, through the kernel and
    through mul_poly; below that window the carry is a WindowError."""
    pres = km2.build(2, 1)

    def mono(ctx, **exps):
        return tuple(exps.get(g.name, 0) for g in ctx.gens)

    ctx = km2.DerivationContext(pres, 10)
    assert qn_monomial(ctx, mono(ctx, i2=1, u_1=1)) == {mono(ctx, z_2=1): 1}
    u1 = {mono(ctx, u_1=1): 1}
    assert ctx.mul_poly(u1, u1) == {mono(ctx, z_2=1): 1}
    short = km2.DerivationContext(pres, 8)
    with pytest.raises(km2.WindowError):
        qn_monomial(short, mono(short, i2=1, u_1=1))
    with pytest.raises(km2.WindowError):
        short.mul_poly({mono(short, u_1=1): 1}, {mono(short, u_1=1): 1})


@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 3), hi=st.integers(2, 80))
@example(p=3, n=1, hi=80)
@example(p=5, n=3, hi=80)
@settings(deadline=None, max_examples=30)
def test_leibniz_kernel_matches_per_monomial_reference(p, n, hi):
    """_qn_block and qn_monomial, both read off the one term table, agree
    with the derivation applied one monomial at a time: on every component
    as the square check builds it, for every
    source degree the check reads, and on the whole generator list for the
    degrees the whole-basis reference reads."""
    pres = km2.build(p, n)
    dq = pres.qn_degree
    cases = [(comp, hi + 2 * dq) for comp in km2.components(pres, hi + 2 * dq)]
    cases.append((pres.generators(hi + dq), hi + dq))
    for gens, top in cases:
        ctx = km2.DerivationContext(pres, top, gens=gens)
        buckets = window_bases(gens, top)
        for d in range(top - dq + 1):
            got = km2._qn_block(ctx, buckets[d], buckets[d + dq])
            want = qn_block_reference(ctx, buckets[d], buckets[d + dq])
            assert (got.shape, got.rows) == (want.shape, want.rows)
            for m in buckets[d]:
                assert qn_monomial(ctx, m) == qn_monomial_reference(ctx, m)


@pytest.mark.parametrize("n, hi", [(1, 80), (2, 120), (3, 120)])
def test_p2_basis_rewrites_the_polynomial_basis(n, hi):
    """u_i^(2k+e) -> u_i^e z_{i+1}^k maps the monomials of degree <= hi over
    polynomial u_i one to one onto the presentation's basis, degree for
    degree, and carries Q_n of each to qn_monomial of its image."""
    pres = km2.build(2, n)
    ctx = km2.DerivationContext(pres, hi + pres.qn_degree)
    images = []
    for mono, deg in polynomial_basis_p2(hi):
        exps = from_polynomial_basis(ctx, mono)
        assert ctx.degree(exps) == deg, mono
        images.append(exps)
        want = {from_polynomial_basis(ctx, dict(t)): 1 for t in polynomial_qn_p2(n, mono)}
        assert qn_monomial(ctx, exps) == want, mono
    basis = [m for bucket in window_bases(ctx.gens, hi) for m in bucket]
    assert sorted(images) == sorted(basis)


@contextlib.contextmanager
def _fresh_memo(*keys):
    """Run a planted defect against a fresh Q_n-homology memo.  Once the
    plant is undone, qn_homology at every (p, n, hi) in keys must equal the
    whole-basis references again, total, trivial and free lists alike: no
    entry the plant computed survives."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km2, "_TRIVIAL_MEMO", {})
        yield mp
    for p, n, hi in keys:
        rep = km2.qn_homology(p, n, "cohomology", hi)
        assert rep.trivial == whole_basis_trivial(p, n, hi)
        assert rep.total == whole_basis_total(p, n, hi)
        # with total and trivial right, the invariant pins every free rank
        assert check_invariant(rep)


def test_qn_square_zero_small_windows():
    for p, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        checked, failures = km2.qn_square_check(p, n, 60, mixed_samples=200)
        assert failures == []
        assert checked > 100


SQUARE_WINDOWS = [(2, 1, 60), (3, 1, 60), (2, 2, 60), (3, 2, 80), (5, 1, 80)]
# failures the planted defect below leaves on each window
PLANTED_FAILURES = {(2, 1, 60): 3, (3, 1, 60): 40, (2, 2, 60): 3, (3, 2, 80): 60, (5, 1, 80): 30}


def _drop_first_term_at_cube(monkeypatch, only=lambda ctx, m: True):
    """Plant a derivation defect in the one Leibniz kernel: on a monomial
    whose first exponent is 3 (and, if given, that only(ctx, m) accepts),
    Q_n loses the term of its lowest generator.  Every surviving term keeps
    its degree, so only Q_n∘Q_n can see it."""
    real = km2.DerivationContext.leibniz_terms

    def planted(self, bucket):
        out = []
        hit = set()
        for j, t, c in real(self, bucket):
            m = bucket[j]
            if m and m[0] == 3 and j not in hit and only(self, m):
                hit.add(j)
                continue
            out.append((j, t, c))
        return out

    monkeypatch.setattr(km2.DerivationContext, "leibniz_terms", planted)


@functools.cache
def _component_index(pres, max_degree):
    """{generator name: index of its Q_n-coupled component} on [0, max_degree]."""
    return {g.name: i for i, c in enumerate(km2.components(pres, max_degree)) for g in c}


def _meets_two_components(ctx, m):
    index = _component_index(ctx.pres, ctx.max_degree)
    return len({index[g.name] for e, g in zip(m, ctx.gens) if e}) > 1


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
@pytest.mark.parametrize("p, n, hi", SQUARE_WINDOWS)
def test_square_check_matches_per_monomial_sweep(p, n, hi, planted):
    """The block products report exactly what pushing each monomial through
    the derivation twice reports: the count, and every failure in order."""
    with _fresh_memo((p, n, hi)) as mp:
        if planted:
            _drop_first_term_at_cube(mp)
        checked, failures = km2.qn_square_check(p, n, hi)
        assert (checked, failures) == qn_square_reference(p, n, hi)
        assert len(failures) == (PLANTED_FAILURES[p, n, hi] if planted else 0)


@pytest.mark.parametrize("p, n, hi", SQUARE_WINDOWS)
def test_square_check_is_never_served_from_the_memo(p, n, hi):
    """A clean check stores its trivial series; a planted defect at the same
    (p, n, hi) is still swept afresh and reports every failure, and its
    entry keeps no total or free list derived from the clean series."""
    with _fresh_memo((p, n, hi)) as mp:
        assert km2.qn_square_check(p, n, hi)[1] == []
        assert (p, n, hi) in km2._TRIVIAL_MEMO
        km2.qn_homology(p, n, "cohomology", hi)
        _drop_first_term_at_cube(mp)
        assert len(km2.qn_square_check(p, n, hi)[1]) == PLANTED_FAILURES[p, n, hi]
        assert list(km2._TRIVIAL_MEMO[p, n, hi]) == ["trivial"]


@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 3), top=st.integers(2, 80))
@example(p=2, n=1, top=60)
@example(p=5, n=3, top=80)
@example(p=3, n=2, top=12)  # dq = 17 > top: the sweep keeps no basis in 13..16 or 30..33
@settings(deadline=None, max_examples=40)
def test_sweep_matches_the_references(p, n, top):
    """One sweep gives the whole-basis trivial series and exactly the
    per-monomial square sweep's (checked, failures); its components,
    restricted to the generators of degree <= top + dq, are the partition
    at top + dq."""
    pres = km2.build(p, n)
    dq = pres.qn_degree
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km2, "_TRIVIAL_MEMO", {})
        assert km2.qn_square_check(p, n, top, 50) == qn_square_reference(p, n, top, 50)
        assert list(km2._TRIVIAL_MEMO[p, n, top]["trivial"]) == whole_basis_trivial(p, n, top)
    # under the cube plant the batched failure list is the per-sample one
    with _fresh_memo() as mp:
        _drop_first_term_at_cube(mp)
        assert km2.qn_square_check(p, n, top, 50) == qn_square_reference(p, n, top, 50)
    wide = [[g for g in c if g.degree <= top + dq] for c in km2.components(pres, top + 2 * dq)]
    assert [c for c in wide if c] == km2.components(pres, top + dq)


# the five perfbench `verify` windows
VERIFY_WINDOWS = [(3, 1, 400), (5, 1, 400), (2, 1, 300), (3, 2, 300), (2, 2, 200)]


@pytest.mark.parametrize("p, n, hi", VERIFY_WINDOWS)
def test_sweep_reduces_only_nonzero_blocks(p, n, hi):
    """A Q_n block where no Leibniz term lands has rank 0 without a
    reduction, and no product is formed with one: every block the sweep
    ranks or multiplies has a nonzero entry, some blocks are zero, and the
    square check and the trivial series are those of a sweep that ranks
    and multiplies every block."""
    reduced, multiplied, built = [], [], []
    real_block, real_rank, real_matmul = km2._qn_block, km2.rank_modp, km2._matmul

    def zero(m):
        return not any(m.rows if m.p == 2 else (x for row in m.rows for x in row))

    def sweep(mp):
        mp.setattr(km2, "_TRIVIAL_MEMO", {})
        result = km2.qn_square_check(p, n, hi, 0)
        return result, km2._TRIVIAL_MEMO[p, n, hi]["trivial"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km2, "_qn_block", lambda *a: built.append(real_block(*a)) or built[-1])
        mp.setattr(km2, "rank_modp", lambda m, q: reduced.append(zero(m)) or real_rank(m, q))
        mp.setattr(km2, "_matmul", lambda a, b: multiplied.append(zero(a)) or real_matmul(a, b))
        got = sweep(mp)
    assert reduced and not any(reduced) and multiplied and not any(multiplied)
    assert any(zero(m) for m in built)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km2, "_nonzero", lambda m: True)
        assert sweep(mp) == got



@pytest.mark.parametrize("p, n, hi", VERIFY_WINDOWS + SQUARE_WINDOWS)
def test_mixed_draws_replay_the_stdlib_sequence(p, n, hi):
    """_draw_monomials, straight from getrandbits, draws what rng.sample
    and rng.randint draw, 2000 monomials in a row from the check's seed."""
    pres = km2.build(p, n)
    ctx = km2.DerivationContext(pres, hi + 2 * pres.qn_degree)
    gens = [g for g in ctx.gens if g.degree <= hi]
    got = km2._draw_monomials(random.Random(km2.SQUARE_SEED), ctx, gens, hi, 2000)
    rng = random.Random(km2.SQUARE_SEED)
    assert got == [random_monomial(rng, ctx, gens, hi) for _ in range(2000)]


# failures the cube plant leaves when it reaches only monomials whose support
# meets two components.  The sweep, one component per context, never meets
# one.  The plant does not reach p = 2 either: a Leibniz term keeps the
# components a monomial meets, so both pushes are planted, and at p = 2 the
# first term of i2^3 x is always i2's (a u_n already present carries, it
# does not kill the term), so what is left is i2^3 Q_n(Q_n(x)) = 0.
SPREAD_PLANT_FAILURES = {(2, 1, 60): 0, (3, 1, 60): 13, (2, 2, 60): 0, (3, 2, 80): 11, (5, 1, 80): 8}


@pytest.mark.parametrize("p, n, hi", SQUARE_WINDOWS)
def test_a_plant_only_the_mixed_samples_see(p, n, hi):
    """The sweep alone passes; 500 mixed samples see the plant, failure for
    failure as when each is pushed on its own."""
    with _fresh_memo((p, n, hi)) as mp:
        _drop_first_term_at_cube(mp, only=_meets_two_components)
        assert km2.qn_square_check(p, n, hi, 0)[1] == []
        checked, failures = km2.qn_square_check(p, n, hi, 500)
        assert (checked, failures) == qn_square_reference(p, n, hi, 500)
        assert len(failures) == SPREAD_PLANT_FAILURES[p, n, hi]


def test_verify_qn_fails_on_a_plant_only_the_mixed_samples_see(capsys):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km2, "_TRIVIAL_MEMO", {})
        _drop_first_term_at_cube(mp, only=_meets_two_components)
        assert cli.main(["verify", "--p", "3", "--n", "1", "--max-degree", "400", "--suite", "qn"]) == 1
    assert capsys.readouterr().out.startswith("FAIL\tqn")


@given(
    gens=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 4)), max_size=5),
    hi=st.integers(-3, 30),
)
@example(gens=[], hi=0)
@example(gens=[(4, 1), (2, 1)], hi=1)
@settings(deadline=None, max_examples=300)
def test_each_monomial_is_the_capped_product_in_order(gens, hi):
    """Every exponent vector under the caps with degree <= hi, emitted in
    lexicographic order, first generator outermost (_Lattice arc order and
    the bucket order of degree_bases read this order)."""
    degrees = [d for d, _ in gens]
    caps = [c for _, c in gens]
    got = []
    km2.each_monomial(degrees, caps, hi, lambda m, d: got.append((m, d)))
    want = []
    for exps in itertools.product(*(range(c + 1) for c in caps)):
        deg = sum(e * d for e, d in zip(exps, degrees))
        if deg <= hi:
            want.append((exps, deg))
    assert got == want


def test_each_monomial_lets_go_of_emit():
    """Once each_monomial returns it holds no reference to emit, so the
    bases an emit fills die with their last user and do not wait for the
    cyclic garbage collector."""

    class Sink(list):
        def __call__(self, m, d):
            self.append(m)

    sink = Sink()
    alive = weakref.ref(sink)
    gc.disable()
    try:
        km2.each_monomial([1, 2], [3, 3], 5, sink)
        assert len(sink) == 10
        del sink
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("p, n, top", [(3, 2, 12), (5, 1, 3), (2, 2, 30)])
def test_degree_bases_keep_only_the_degrees_the_sweep_reads(p, n, top):
    """The bases the sweep keeps are window_bases' nonempty buckets at the
    degrees d, d + dq and d + 2dq for d <= top, and nothing else."""
    pres = km2.build(p, n)
    dq = pres.qn_degree
    hi = top + 2 * dq
    read = {d + k * dq for k in range(3) for d in range(top + 1)}
    for comp in km2.components(pres, hi):
        kept = km2.degree_bases(comp, hi, lambda d: d % dq <= top)
        full = window_bases(comp, hi)
        assert kept == {d: b for d, b in enumerate(full) if b and d in read}


def test_trivial_homology_31_reference_degrees():
    """The first trivial classes at (3,1) are 1, y_1, y_1 w-half, y_1^2."""
    rep = km2.qn_homology(3, 1, "cohomology", 20)
    assert [rep.trivial[d] for d in (0, 6, 11, 12)] == [1, 1, 1, 1]
    assert sum(rep.trivial[:13]) == 4
    assert rep.free_rank[2] == 1
    assert check_invariant(rep)


def test_homology_variance_same_dims_starred_reps():
    """Both variances read one memoised trivial series; here the homology
    one is ranked afresh from the transposed Q_n blocks of each component,
    which map the starred classes down by 2p^n - 1, and folded over the
    components."""
    p, n, hi = 3, 1, 20
    pres = km2.build(p, n)
    dq = pres.qn_degree
    want = [1] + [0] * hi
    for comp in km2.components(pres, hi + dq):
        ctx = km2.DerivationContext(pres, hi + dq, gens=comp)
        buckets = window_bases(comp, hi + dq)
        # down[d]: rank of homology Q_n from degree d + dq to d
        down = [
            km2.rank_modp(transpose(km2._qn_block(ctx, buckets[d], buckets[d + dq])), p)
            for d in range(hi + 1)
        ]
        dims = [len(buckets[d]) - down[d] - (down[d - dq] if d >= dq else 0) for d in range(hi + 1)]
        want = [sum(want[a] * dims[d - a] for a in range(d + 1)) for d in range(hi + 1)]
    c = km2.qn_homology(p, n, "cohomology", hi)
    h = km2.qn_homology(p, n, "homology", hi)
    assert h.trivial == want
    assert c.trivial == h.trivial
    assert c.free_rank == h.free_rank


def _assert_factored_matches_whole_basis():
    for p, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        fact = km2.qn_homology(p, n, "cohomology", 55)
        assert fact.trivial == whole_basis_trivial(p, n, 55), (p, n)
        assert check_invariant(fact)


def test_factored_matches_whole_basis():
    """The component split and the product of the component series agree
    with one rank of the whole monomial basis.  Both sides read the same
    DerivationContext, so a wrong derivation (a Q_n image, a sign, the
    p = 2 carry) moves both alike and this test cannot see it; the
    per-monomial and p = 2 polynomial references check the derivation."""
    _assert_factored_matches_whole_basis()


def test_factored_matches_whole_basis_sees_a_lost_generator():
    """A split that loses u_0, which lies below the window, must fail the
    comparison with the whole basis."""
    real = km2.components

    def lossy(pres, max_degree):
        comps = [[g for g in c if g.name != "u_0"] for c in real(pres, max_degree)]
        return [c for c in comps if c]

    with _fresh_memo((2, 1, 55)) as mp:
        mp.setattr(km2, "components", lossy)
        with pytest.raises(AssertionError, match=r"^\(2, 1\)"):
            _assert_factored_matches_whole_basis()


def test_trivial_prefix_frozen():
    f21 = km2.qn_homology(2, 1, "cohomology", 19)
    assert f21.trivial == [1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 2, 1, 0]
    f22 = km2.qn_homology(2, 2, "cohomology", 19)
    assert f22.trivial == [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0]
    f32 = km2.qn_homology(3, 2, "cohomology", 19)
    assert f32.trivial == [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0]


def test_total_dims_matches_series_route():
    pres = km2.build(3, 1)
    factors = []
    for g in pres.generators(40):
        kind = P if g.exp_kind == "P" else E
        factors.append(Factor(kind, Generator(g.name, g.degree)))
    series = TensorExpression(tuple(factors)).poincare(40)
    assert km2.total_dims(pres, 40) == [series.dim(d) for d in range(41)]


def test_default_window():
    assert km2.default_window(1) == 600
    assert km2.default_window(2) == 2500


def test_report_invariant_is_checked():
    rep = km2.qn_homology(5, 1, "cohomology", 40)
    assert check_invariant(rep)
    rep.free_rank[3] += 1
    assert not check_invariant(rep)


def test_factored_memo_is_shared_and_immutable(monkeypatch):
    """Both variances read one total, trivial and free list per (p, n, hi),
    and a caller that edits its report cannot edit the next caller's."""
    c = km2.qn_homology(3, 2, "cohomology", 70)
    want = (list(c.total), list(c.trivial), list(c.free_rank))
    c.total[16] += 1
    c.trivial[16] += 1
    c.free_rank[16] += 1
    monkeypatch.setattr(km2, "rref_modp", lambda *a: pytest.fail("memo missed"))
    monkeypatch.setattr(km2, "total_dims", lambda *a: pytest.fail("memo missed"))
    h = km2.qn_homology(3, 2, "homology", 70)
    assert h.variance == "homology"
    assert (h.total, h.trivial, h.free_rank) == want


def test_w_element_degrees_and_names():
    _, ws = km2.w_elements(3, 1, 400)
    assert [(w.name, w.degree) for w in ws[:6]] == [
        ("w_1", 7), ("w_3/2", 11), ("w_2", 19), ("w_5/2", 31),
        ("w_3", 51), ("w_7/2", 87),
    ]
    _, ws21 = km2.w_elements(2, 1, 30)
    assert [(w.name, w.degree) for w in ws21] == [
        ("w_1", 5), ("w_3/2", 7), ("w_2", 9), ("w_5/2", 13),
        ("w_3", 17), ("w_7/2", 25),
    ]
    _, ws32 = km2.w_elements(3, 2, 200)
    assert [(w.name, w.degree) for w in ws32] == [
        ("w_2", 19), ("w_5/2", 23), ("w_3", 55), ("w_7/2", 67), ("w_4", 163), ("w_9/2", 199),
    ]


def test_integer_w_elements_are_cycles():
    for p, n, hi in [(2, 1, 120), (3, 1, 300), (5, 1, 250), (2, 2, 130), (3, 2, 500)]:
        factory, ws = km2.w_elements(p, n, hi)
        for w in ws:
            if w.index2 % 2 == 0:
                assert factory.ctx.qn_poly(dict(w.poly)) == {}, (p, n, w.name)


def test_half_w_cycles_and_the_p2_exception():
    # at odd p every y_j^{p-1} w is a cycle; at p=2 only j=0 fails, with
    # Q(i2 u_n) landing on u_n^2
    for p, n, hi in [(3, 1, 300), (5, 1, 250), (3, 2, 500)]:
        factory, ws = km2.w_elements(p, n, hi)
        for w in ws:
            if w.index2 % 2 == 1:
                assert factory.ctx.qn_poly(dict(w.poly)) == {}, (p, n, w.name)
    factory, ws = km2.w_elements(2, 1, 120)
    for w in ws:
        if w.index2 % 2 == 1:
            out = factory.ctx.qn_poly(dict(w.poly))
            if w.index2 == 3:
                (key,) = out
                assert render(factory.ctx, key) == "z_2"
            else:
                assert out == {}


def test_w_first_family_shape():
    # w_2 at (3,1) is u_2 - u_0 z_1^2
    factory, ws = km2.w_elements(3, 1, 60)
    w2 = next(w for w in ws if w.name == "w_2")
    terms = {render(factory.ctx, m): c for m, c in w2.poly}
    assert terms == {"u_2": 1, "z_1^2 u_0": 2}


def test_components_partition():
    pres = km2.build(3, 2)
    comps = km2.components(pres, 180)
    names = [sorted(g.name for g in c) for c in comps]
    assert ["i2", "u_2"] in names
    assert ["u_1", "u_3", "z_1"] in names
    assert ["u_0", "u_4", "z_2"] in names
    assert all(len(c) <= 3 for c in comps)
    total = sum(len(c) for c in comps)
    assert total == len(pres.generators(180))


def _matrix(entries, cols, p):
    """A km2.Matrix from lists of residues: at p = 2 bit j of a row is column j."""
    if p == 2:
        return km2.Matrix([sum(x << j for j, x in enumerate(row)) for row in entries], cols, p)
    return km2.Matrix([list(row) for row in entries], cols, p)


def _entries(m):
    if m.p == 2:
        return [[(row >> j) & 1 for j in range(m.shape[1])] for row in m.rows]
    return [list(row) for row in m.rows]


def _schoolbook_rref(entries, cols, p):
    """Gauss-Jordan on lists of residues, column by column: the reference
    for km2.rref_modp.  Returns all rows (zero rows last) and the pivots."""
    a = [[x % p for x in row] for row in entries]
    piv = []
    for c in range(cols):
        r = len(piv)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for j in range(len(a)):
            if j != r and a[j][c]:
                f = a[j][c]
                a[j] = [(x - f * y) % p for x, y in zip(a[j], a[r])]
        piv.append(c)
    return a, piv


def _matmul(x, y, inner, cols, p):
    return [[sum(row[k] * y[k][j] for k in range(inner)) % p for j in range(cols)] for row in x]


@st.composite
def _matrices(draw):
    """(p, rows, cols, entries): random, or a product through a thin middle
    so that low rank and dependent rows are common; 0-row and 0-column
    shapes included."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9))

    def grid(r, c):
        return draw(st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if draw(st.booleans()):
        inner = draw(st.integers(0, 4))
        return p, rows, cols, _matmul(grid(rows, inner), grid(inner, cols), inner, cols, p)
    return p, rows, cols, grid(rows, cols)


@given(_matrices())
@settings(deadline=None, max_examples=400)
def test_fp_kernel_matches_schoolbook(mat):
    p, rows, cols, entries = mat
    a = _matrix(entries, cols, p)
    assert a.shape == (rows, cols)
    want_rows, want_piv = _schoolbook_rref(entries, cols, p)
    red, piv = km2.rref_modp(a, p)
    assert red.shape == (rows, cols)
    assert (_entries(red), piv) == (want_rows, want_piv)
    assert km2.rank_modp(a, p) == len(want_piv)

    null = km2.nullspace_modp(a, p)
    nullity = null.shape[1]
    assert null.shape[0] == cols
    assert len(want_piv) + nullity == cols
    assert _matmul(entries, _entries(null), cols, nullity, p) == [[0] * nullity] * rows
    assert len(_schoolbook_rref(_entries(null), nullity, p)[1]) == nullity

