"""A fixed reference job that measures how fast the machine is right now.

    python3 perfbench/calibrate.py

It starts like a morava-k2 job (a fresh interpreter that imports numpy) and
then does a fixed amount of the two kinds of work the package spends its time
in: a pure-Python schoolbook convolution of integer coefficient lists, like
`PoincareSeries.mul`, and row reduction of small integer matrices mod p with
numpy, like `km2.rref_modp`.  It does not import the package, so no change to
the package changes its time; only the machine does.
"""

from __future__ import annotations

import numpy as np


def convolve(a: list[int], b: list[int], limit: int) -> list[int]:
    out = [0] * limit
    for i, x in enumerate(a):
        if x:
            for j in range(min(len(b), limit - i)):
                out[i + j] += x * b[j]
    return out


def rref_rank(m: np.ndarray, p: int) -> int:
    m = m % p
    rank = 0
    for col in range(m.shape[1]):
        rows = np.nonzero(m[rank:, col])[0]
        if rows.size == 0:
            continue
        piv = rank + rows[0]
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        others = np.nonzero(m[:, col])[0]
        others = others[others != rank]
        m[others] = (m[others] - np.outer(m[others, col], m[rank])) % p
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def main() -> int:
    series = [1] * 700
    for _ in range(3):
        series = convolve(series, [(k * 7 + 1) % 5 for k in range(700)], 700)
    rng = np.random.default_rng(0)
    ranks = [rref_rank(rng.integers(0, 3, size=(90, 120), dtype=np.int64), 3) for _ in range(6)]
    print(series[-1] % 1000003, sum(ranks))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
