"""Tour of the arc-space matrices of a small regular graph.

Builds the directed-arc indexing of C3 and K4, prints the incidence and
reversal matrices, and checks the defining identities exactly over the
integers.  Each graph gets one arc space: it holds the arcs' index arrays,
multiplies by every arc matrix, and keeps its scaled walk matrix W once.
Everything here is sign-exact: the walk matrix is scaled by the valency k so
no floating point ever appears.
"""

import qwalkspec as q

# %% The arc space of a triangle -------------------------------------------
g = q.cycle_graph(3)
a = q.build_arc_space(g)
print(f"C3: n={g.n}, k={a.k}, arcs={a.size}")
print("canonical arc order:", a.arcs)
print("reversal permutation:", a.rev.tolist())
print("arcs into each vertex (one row per vertex):", a.into.tolist())

print("\nins (rows = vertices, cols = arcs; marks heads):")
print(q.ins_matrix(a))
print("\nouts (marks tails):")
print(q.outs_matrix(a))

# %% The scaled walk matrix W = k*U ----------------------------------------
# Entries: 2 for a non-backtracking continuation, 2-k for a backtracking
# one, 0 otherwise.  At k=2 the backtracking entries vanish.
w = a.walk
print("\nW = k*U for C3 (entries 0 and 2 only at k=2):")
print(w)

k4 = q.build_arc_space(q.complete_graph(4))
w4 = k4.walk
print("\nW entry values for K4 (k=3):", sorted({int(x) for x in w4.flat}))

# %% Exact identities --------------------------------------------------------
# ins*outs^T recovers the adjacency matrix; the incidence Gram matrices are
# k*I; P is an involution; W is orthogonal after rescaling: W W^T = k^2 I.
# The suite reads K4's arc space, whose W is the one printed above.
for name, ok in q.identity_suite(k4):
    print(f"{'ok ' if ok else 'FAIL'} {name}")
print("W is formed once per arc space:", k4.walk is w4)

# %% The walk support is the non-backtracking matrix ------------------------
# support_u_power builds S+(U), S+(U^2) and S+(U^3) from the entry formulas of
# W, W^2 and W^3, never from W itself: W[j, i] = 2[head i = tail j] - k[i = rev j].
s1 = q.support_u_power(a, 1)
print("\nS+(U) for C3 (two disjoint directed 3-cycles):")
print(s1)
print("equals the support of W:", q.mat_equal(s1, q.positive_support(w)))
print("char poly:", q.char_poly(s1))  # (t^3 - 1)^2
