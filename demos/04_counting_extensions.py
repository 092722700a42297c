"""
From surface counts to Galois extensions
========================================

The same one-relator counts that the handle operators encode answer concrete
arithmetic questions: how many continuous surjections a local field's
maximal pro-p quotient admits, and hence how many extensions with a given
Galois group sit above it.
"""

from fractions import Fraction

from arith_tqft.dw import (
    FREE,
    RelatorSpec,
    counting_summary,
    epi_count,
    extension_count,
    general_gauge_count,
    hall_mobius,
    hom_count,
    yamagishi_count,
)
from arith_tqft.pgroup import cyclic, elementary_abelian, gl2, heisenberg
from arith_tqft.units import INF

C3 = cyclic(3)
E9 = elementary_abelian(3, 2)
HEIS = heisenberg(3)

# ---------------------------------------------------------------------------
# Hom counts from the character formula (exact: the characters the handle fixes, summed in ℤ; genus 1 reads no table).

for n, r in ((1, 1), (1, INF), (2, 1)):
    print(f"hom(surface n={n} r={r} -> C_3)  =", hom_count(RelatorSpec(n, r), C3))
print("hom(surface n=1 r=1 -> heis(3)) =", hom_count(RelatorSpec(1, 1), HEIS))
print("hom(free rank 2 -> heis(3))     =", hom_count(FREE(2), HEIS))

# ---------------------------------------------------------------------------
# The subgroup Möbius function converts hom counts to epimorphism counts.

mu = hall_mobius(E9)
print("\nMöbius values on the subgroup lattice of C_3 x C_3:",
      sorted(mu.values(), reverse=True))
print("generating pairs of C_3 x C_3:", epi_count(FREE(2), E9))

# ---------------------------------------------------------------------------
# Extensions: epimorphisms up to automorphisms of the Galois group.  Over the
# 3-adic rationals the pro-3 quotient is free of rank 2, so C_3 leaves 4
# extensions; over the field with the cube roots of unity (degree 2, level 1)
# it is a one-relator group and C_3 leaves 40.

print("\nC_3 extensions of the rank-2 free base:   ", extension_count(FREE(2), C3))
print("C_3 extensions of the degree-2 level-1 base:", extension_count(RelatorSpec(2, 1), C3))
print("the degree-2 count arrives via hom count", yamagishi_count(2, 1, C3),
      "and", epi_count(RelatorSpec(2, 1), C3), "epimorphisms over |Aut(C_3)| = 2")

# ---------------------------------------------------------------------------
# Arbitrary finite gauge groups reduce to their p-subgroups.  For GL_2(F_3)
# at p = 3 the count collapses to a Sylow computation with a clean closed
# form for the homotopy cardinality.

count, cardinality = general_gauge_count(gl2(3), 3, RelatorSpec(1, 1))
print(f"\nGL_2(F_3), one relator at level 1: {count} solutions,",
      f"homotopy cardinality {cardinality}")
p = 3
print("closed form (p^2 + p - 1)/((p-1)^2 (p+1)) =",
      Fraction(p**2 + p - 1, (p - 1) ** 2 * (p + 1)))

# ---------------------------------------------------------------------------
# One-call summary used by the command line.

print("\nsummary for (n=1, r=1) into C_3:", counting_summary(RelatorSpec(1, 1), C3))
