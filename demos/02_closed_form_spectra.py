"""Closed-form spectra of walk supports versus brute-force computation.

For a connected k-regular graph the spectrum of S+(U) is determined by the
adjacency spectrum: k-1 once, a quadratic pair per adjacency eigenvalue
lambda != k, and +-1 with multiplicities n(k-2)/2 + 1 and n(k-2)/2.  For
k > 2 the spectrum of S+(U^2) is its image under theta -> theta^2 + 1.

(The +-1 multiplicities follow the proof's count, n(k-2)/2; the commonly
quoted n(k-1)/2 fails the dimension count nk and the zero-trace constraint,
as the exact comparison below certifies.)
"""

import numpy as np

import qwalkspec as q

g = q.petersen_graph()
a = q.build_arc_space(g)

# %% Closed form for S+(U) ---------------------------------------------------
spec = q.closed_form_spectrum_su(g)
print(f"Petersen: n={spec.n}, k={spec.k}, total multiplicity {len(spec.numeric_values())}")
for entry in spec.entries:
    print(" ", entry)

# %% Exact certification -----------------------------------------------------
# Expand the closed form into an integer polynomial straight from the
# adjacency char poly and compare with the exact (modular CRT) char poly of
# the actual 30x30 support matrix.  Equality is exact, coefficient by
# coefficient.
brute = q.char_poly(q.support_u_power(a, 1))
closed = q.closed_form_charpoly_su(g)
print("\nchar poly of S+(U):", brute)
print("closed form equals brute force:", brute == closed)
print("Ihara-style factorization holds:", brute.coeffs == q.ihara_style_charpoly(g).coeffs)

# %% Numeric roots -----------------------------------------------------------
# The exact equality above already certifies the closed-form spectrum.  Root
# extraction goes through an exact squarefree decomposition first, so the
# 6-fold and 5-fold eigenvalues at +1 and -1 come out clean.
roots = q.poly_roots(brute.coeffs)
at = {v: sum(abs(r - v) < 1e-9 for r in roots) for v in (1, -1)}
print(f"numeric roots: {len(roots)}, of which {at[1]} at +1 and {at[-1]} at -1")

# %% S+(U^2) via the squared-support identity --------------------------------
# For k > 2, S+(U^2) = S+(U)^2 + I entrywise, and its spectrum is the image
# of the S+(U) spectrum under theta -> theta^2 + 1.  support_u_power reads
# S+(U^2) off its entry formula; su2_via_identity squares S+(U) by two arc
# steps, so the two sides share no code.
print("\nS+(U^2) = S+(U)^2 + I:", np.array_equal(q.support_u_power(a, 2), q.su2_via_identity(a)))
spec2 = q.closed_form_spectrum_su2(g)
for entry in spec2.entries:
    print(" ", entry)
print("closed form for S+(U^2) equals brute force:",
      q.char_poly(q.support_u_power(a, 2)) == q.closed_form_charpoly_su2(g))

# %% Where the identity fails: valency 2 -------------------------------------
# At k = 2 the walk matrix coincides with its support (backtracking entries
# are 2 - k = 0), so S+(U^2) is exactly S+(U)^2 with no +I term.
c6 = q.build_arc_space(q.cycle_graph(6))
s1 = q.support_u_power(c6, 1)
print("\nC6: S+(U^2) == S+(U)^2 (no +I at k=2):",
      np.array_equal(q.support_u_power(c6, 2), s1 @ s1))
