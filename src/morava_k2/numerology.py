"""Integer bookkeeping for the differential schedule.

Differentials on the y_j family happen at stage r(j), those on the half-index
w family at stage r'(j), and the degrees of everything in sight are rigid
functions of (p, n, j).  All of that is pinned down here, together with an
identity suite that rechecks the relations the spectral sequence run relies
on.
"""

from __future__ import annotations

from collections import namedtuple


def _check_pn(p: int, n: int) -> None:
    if p < 2 or n < 1:
        raise ValueError(f"need a prime p >= 2 and n >= 1, got p={p}, n={n}")


def q(k: int, p: int, n: int) -> int:
    """Partial geometric sum 1 + p^(n+1) + ... + p^((k-1)(n+1)); q(0) = 0."""
    if k < 0:
        raise ValueError("q is only defined for k >= 0")
    b = p ** (n + 1)
    return (b**k - 1) // (b - 1)


class IndexSplit(namedtuple("IndexSplit", "j i k")):
    """j = i + k*(n+1) with 0 <= i < n+1."""

    __slots__ = ()


def split(j: int, n: int) -> IndexSplit:
    if j < 0:
        raise ValueError("index must be nonnegative")
    return IndexSplit(j, j % (n + 1), j // (n + 1))


def r(j: int, p: int, n: int) -> int:
    """Stage of the differential supported on y_j (j >= 1); r(0) = 1.

    At p = 2 the stages through j = n+1 are the powers 2^j.  That agrees
    with the closed form, but it is kept as an explicit branch so the
    special range is visible.
    """
    _check_pn(p, n)
    if j < 0:
        raise ValueError("index must be nonnegative")
    if p == 2 and j <= n + 1:
        return 2**j
    s = split(j, n)
    return p ** (s.i + 1) * (p**n - 1) * q(s.k, p, n) + s.k + p**s.i


def rprime(j: int, p: int, n: int) -> int:
    """Stage of the differential killing z_{n+j+1}; complements r via p^(j+1) = r + r'."""
    _check_pn(p, n)
    return p ** (j + 1) - r(j, p, n)


def p2_special_range(j: int, p: int, n: int) -> bool:
    """True when (p, j) falls in the p = 2 branch of r and rprime."""
    return p == 2 and 0 <= j <= n + 1


def degree_y(j: int, p: int) -> int:
    return 2 * p**j


def degree_z(i: int, p: int) -> int:
    if i < 1:
        raise ValueError("z indices start at 1")
    return 2 * (p**i + 1)


def degree_w(index2: int, p: int, n: int) -> int:
    """Degree of w indexed by index2/2; index2 is twice the written index.

    Even index2 = 2(n+j) is the w_{n+j} family, odd index2 = 2(n+j)+1 the
    half-index family w_{n+j+1/2}.  Indices below n are not defined.
    """
    _check_pn(p, n)
    if index2 < 2 * n:
        raise ValueError(f"w indices start at n={n}, got doubled index {index2}")
    j = index2 // 2 - n
    base = 2 * (p**n - 1) * r(j, p, n) + 2 * p**j + 1
    if index2 % 2 == 0:
        return base
    return base + 2 * p**j * (p - 1)


def divisibility_check(source_degree: int, target_degree: int, p: int, n: int) -> int | None:
    """Stage at which a class in source_degree could hit one in target_degree.

    A stage-r differential raises degree by 1 and costs r powers of v, each
    of degree 2(p^n - 1); so target - source - 1 must be a positive multiple
    of 2(p^n - 1).  Returns the unique stage, or None.
    """
    _check_pn(p, n)
    gap = target_degree - source_degree - 1
    step = 2 * (p**n - 1)
    if gap <= 0 or gap % step != 0:
        return None
    return gap // step


class IdentityFailure(namedtuple("IdentityFailure", "identity j detail")):
    __slots__ = ()


def identity_suite(p: int, n: int, j_max: int) -> list[IdentityFailure]:
    """Recheck the schedule identities for 1 <= j <= j_max.

    Returns the failures (empty list = all pass).  Requires j_max >= n+2 so
    the p = 2 special range and at least one generic index are both covered.
    """
    _check_pn(p, n)
    if j_max < n + 2:
        raise ValueError(f"j_max must be at least n+2={n + 2} to cover both stage regimes")
    step = 2 * (p**n - 1)
    failures: list[IdentityFailure] = []

    def check(name: str, j: int, ok: bool, detail: str = "") -> None:
        if not ok:
            failures.append(IdentityFailure(name, j, detail))

    for j in range(1, j_max + 1):
        rj, rpj = r(j, p, n), rprime(j, p, n)
        check("sum", j, rj + rpj == p ** (j + 1))
        check("r_bounds", j, p ** (j - 1) < rj <= p**j)
        check("rprime_bounds", j, p ** (j + 1) - p**j <= rpj < p ** (j + 1) - p ** (j - 1))
        if p == 2:
            check("interleave", j, r(j + 1, p, n) >= rpj >= rj)
        else:
            check("interleave", j, r(j + 1, p, n) > rpj > rj)
        check("r_recurrence", j, r(j + n + 1, p, n) == rj + p ** (j + 1) * (p**n - 1) + 1)
        check(
            "rprime_recurrence",
            j,
            rprime(j + n + 1, p, n) == rpj + p ** (j + n + 1) * (p - 1) - 1,
        )
        # A stage-r(j) differential carries y_j onto w_{n+j}, and a stage
        # r'(j) one carries w_{n+j+1/2} onto z_{n+j+1}; both must satisfy
        # the degree/stage divisibility constraint exactly.
        check(
            "w_degree",
            j,
            degree_w(2 * (n + j), p, n) == degree_y(j, p) + 1 + step * rj,
        )
        check(
            "z_degree",
            j,
            degree_z(n + j + 1, p) == degree_w(2 * (n + j) + 1, p, n) + 1 + step * rpj,
        )
        check(
            "divisibility_r",
            j,
            divisibility_check(degree_y(j, p), degree_w(2 * (n + j), p, n), p, n) == rj,
        )
        check(
            "divisibility_rprime",
            j,
            divisibility_check(degree_w(2 * (n + j) + 1, p, n), degree_z(n + j + 1, p), p, n)
            == rpj,
        )
    return failures
