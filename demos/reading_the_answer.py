"""
Reading the closed-form answer
==============================

The E-infinity page assembles into a compact description of
k(n)^*(K_2): one v-free factor, a family of v-torsion summands whose
orders follow the stage numbers r(j) and r'(j), and a family of Z_p's
in filtration zero.  This script unpacks that description at two
(p, n) points and shows the checks it has to survive.
"""

from morava_k2 import answer

# p = 3, n = 1, cohomology.  The free part is the coefficient ring
# alone; every other class is v-torsion.
a = answer.closed_form(3, 1, "cohomology", 80)
print("free part:", a.free_part.label())
for f in a.torsion_families:
    print(
        f"  order {f.order:2} torsion from degree {f.base_degree:3}:"
        f"  {f.expression.label()}"
    )
print()

# The same module in homology pairs with it degree for degree: orders
# match, and generator degrees sit one degree step lower.
h = answer.closed_form(3, 1, "homology", 80)
for f in h.torsion_families:
    print(
        f"  order {f.order:2} torsion from degree {f.base_degree:3}:"
        f"  {f.expression.label()}"
    )
print()

# Counting check: dim H^d of the underlying space equals the number of
# towers v kills plus the number it misses, degree by degree.  This is
# what pins the Z_p family.
ok, msg = answer.bockstein_check(a)
print("Bockstein bookkeeping:", msg)
assert ok

# At n = 2 the free part keeps a truncated polynomial factor, so the
# periodic theory is no longer trivial on this space.
b = answer.closed_form(2, 2, "cohomology", 120)
loc = answer.localize(b)
print("p=2, n=2 localized free part:", loc.free_part.label())
series = answer.poincare_answer(loc).total
print("localized dims in degrees 0..12:", [series.dim(d) for d in range(13)])

# In contrast n = 1 loses everything: K(1)-theory of this space is
# trivial in positive degrees.
loc1 = answer.localize(a)
s1 = answer.poincare_answer(loc1).total
assert all(s1.dim(d) == 0 for d in range(1, 81))
print("p=3, n=1 localized positive degrees: all zero")
