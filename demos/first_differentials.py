"""
A first walk through the spectral sequence at p = 3, n = 1
==========================================================

The connective Morava K-theory of K(Z_3, 2) is computed by an Adams
spectral sequence whose E2 page is a free module over P[v] on the
Q_1-homology of H*(K(Z_3, 2); F_3).  Differentials multiply by powers
of v, and every one of them is forced by degree arithmetic.  This
script prints the first few and watches them act on a small window.
"""

from morava_k2 import ss_engine as ss

# The schedule lists each differential with its stage r, the class that
# supports it, and the class it hits (times v^r).
print("scheduled differentials, families 1..3:")
for e in ss.schedule(3, 1, 3):
    print(
        f"  d^{e.stage}({e.source}) = v^{e.stage} {e.target}"
        f"   degrees {e.source_degree} -> {e.target_degree}"
    )
print()

# Stage 2 is the first: w_3/2 in degree 11 hits v^2 z_2 in degree 20.
# The degree step 1 + 2r(p^n - 1) = 9 pins r = 2; no other stage fits.
page = ss.e2_closed_form(3, 1, "cohomology", 24)
print("E2 v-free part:", page.v_free.label())

# run_closed_form walks the rewrite of that page through the window's
# schedule, which it builds itself.
final = ss.run_closed_form(3, 1, "cohomology", 24)
print("after all in-window differentials, the surviving torsion is:")
for (degree, order), count in sorted(final.torsion_by_degree().items()):
    print(f"  degree {degree}: {count} tower(s) of order {order}")
print()

# The independent route sweeps the same window monomial by monomial and
# reads off towers from kernels and cokernels, with no schedule in sight.
brute = ss.run_bruteforce(3, 1, "cohomology", 24)
ok, msg = ss.oracle_match(final, brute)
print("rewrite route vs sweep route:", msg)
assert ok

# Degree 7 carries the first member of the family of Z_3's: classes in
# filtration zero killed by v, one for (almost) every degree from 7 on.
print("start of the Z_3 family:", final.zp_family[:5])
