"""
From the Milnor primitive to the E2 page
========================================

Everything starts with H*(K(Z_p, 2); F_p), a tensor product of
polynomial and exterior generators, and the Milnor primitive Q_n
acting on it as an exterior derivation with Q_n^2 = 0.  The E2 page of
the Adams spectral sequence is P[v] tensored with the homology of this
differential.  This script computes that homology by honest linear
algebra over F_p and checks the structural facts the later pages rely
on.
"""

from morava_k2 import km2

pres = km2.build(3, 1)
print("generators of H*(K(Z_3, 2)) up to degree 30:")
for g in pres.generators(30):
    print(f"  {g.name:5} degree {g.degree:2}  ({g.exp_kind})")
print()

# Q_1 in matrix form: one block per degree, entries from the Leibniz
# rule.  Rank/nullity per degree gives the Q_1-homology dimensions.
checked, failures = km2.qn_square_check(3, 1, 60)
print(f"Q_1 applied twice vanished on {checked} monomials, {len(failures)} failures")
assert not failures

# The w-elements are the corrected u's: cycles under Q_n, one for each
# index, and the sources and targets of every differential later on.
factory, ws = km2.w_elements(3, 1, 60)
for w in ws:
    image = factory.ctx.qn_poly(dict(w.poly))
    tag = "cycle" if not image else "not a cycle"
    print(f"  {w.name:6} degree {w.degree:3}  {tag}")
print()

# The trivial part of the Q_1-action is exactly what survives to E2.
report = km2.qn_homology(3, 1, "cohomology", 40)
series = report.trivial_series()
print("Q_1-homology dims, degrees 0..20:", [series.dim(d) for d in range(21)])

from morava_k2 import ss_engine as ss

page = ss.e2_closed_form(3, 1, "cohomology", 40)
rest = ss.TensorExpression(
    tuple(f for f in page.v_free.factors if f.gen.name != "v")
)
match = all(rest.poincare(40).dim(d) == series.dim(d) for d in range(41))
print("closed-form E2 series agrees with the rank computation:", match)
assert match
