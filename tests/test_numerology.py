import pytest

from morava_k2 import km2
from morava_k2.numerology import (
    degree_w,
    degree_y,
    degree_z,
    divisibility_check,
    identity_suite,
    q,
    r,
    rprime,
    split,
)

from helpers import degree_u

PAIRS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]


def test_q_values():
    assert q(0, 3, 1) == 0
    assert q(1, 3, 1) == 1
    assert q(2, 3, 1) == 10
    assert q(3, 3, 1) == 91
    assert q(2, 2, 2) == 9


def test_split():
    s = split(7, 2)
    assert (s.i, s.k) == (1, 2)
    assert split(3, 1).i == 1 and split(3, 1).k == 1


def test_r_tables():
    assert [r(j, 3, 1) for j in range(8)] == [1, 3, 8, 22, 63, 185, 550, 1644]
    assert [r(j, 2, 1) for j in range(8)] == [1, 2, 4, 7, 13, 24, 46, 89]
    assert [r(j, 2, 2) for j in range(8)] == [1, 2, 4, 8, 15, 29, 57, 112]
    assert [r(j, 3, 2) for j in range(8)] == [1, 3, 9, 26, 76, 226, 675, 2021]
    assert [r(j, 5, 1) for j in range(6)] == [1, 5, 22, 106, 523, 2607]


def test_rprime_tables():
    assert [rprime(j, 3, 1) for j in range(6)] == [2, 6, 19, 59, 180, 544]
    assert [rprime(j, 2, 1) for j in range(8)] == [1, 2, 4, 9, 19, 40, 82, 167]
    assert [rprime(j, 2, 2) for j in range(6)] == [1, 2, 4, 8, 17, 35]


def test_r_recurrence_matches_closed_form():
    # r(j + n + 1) = r(j) + p^(j+1)(p^n - 1) + 1 reproduces the table values
    for p, n in PAIRS:
        for j in range(1, 12):
            assert r(j + n + 1, p, n) == r(j, p, n) + p ** (j + 1) * (p**n - 1) + 1


def test_p2_special_range_is_powers_of_two():
    for n in (1, 2, 3):
        for j in range(0, n + 2):
            assert r(j, 2, n) == 2**j
            if j >= 1:
                assert rprime(j, 2, n) == 2**j


def test_degrees():
    assert degree_y(1, 3) == 6
    assert degree_z(1, 3) == 8
    assert degree_z(2, 3) == 20
    assert degree_u(1, 3) == 7
    # the presentation's u_i sit in degree 2p^i + 1
    for p in (2, 3, 5):
        us = [g for g in km2.build(p, 1).generators(200) if g.name.startswith("u_")]
        assert [g.degree for g in us] == [degree_u(i, p) for i in range(len(us))]
    # (3,1) w-degrees by doubled index: w_1, w_3/2, w_2, w_5/2, w_3
    assert [degree_w(k, 3, 1) for k in range(2, 7)] == [7, 11, 19, 31, 51]
    # (2,1): w_1=u_1, w_2, w_3 and the half-index steps
    assert [degree_w(k, 2, 1) for k in range(2, 8)] == [5, 7, 9, 13, 17, 25]
    # (2,2): w_2..w_5
    assert [degree_w(2 * m, 2, 2) for m in range(2, 6)] == [9, 17, 33, 65]


def test_degree_w_rejects_low_index():
    with pytest.raises(ValueError):
        degree_w(1, 3, 1)
    with pytest.raises(ValueError):
        degree_w(3, 2, 2)


def test_divisibility_check():
    assert divisibility_check(6, 19, 3, 1) == 3
    assert divisibility_check(11, 20, 3, 1) == 2
    assert divisibility_check(6, 20, 3, 1) is None
    assert divisibility_check(19, 6, 3, 1) is None


def test_identity_suite_all_pairs():
    for p, n in PAIRS:
        assert identity_suite(p, n, 100) == []


def test_identity_suite_requires_covering_range():
    with pytest.raises(ValueError):
        identity_suite(3, 2, 3)
