"""The strongly-regular-graph cospectrality experiment.

The Shrikhande graph and the 4x4 rook's graph are both SRG(16, 6, 2, 2) but
are not isomorphic.  Sharing SRG parameters forces identical adjacency
spectra, and therefore identical S+(U) and S+(U^2) spectra (both are
functions of the adjacency spectrum, n and k).  The question is whether the
S+(U^3) spectrum separates them -- spectra of cubed supports are the
proposed isomorphism invariant for strongly regular graphs, and no pair of
SRGs sharing it is currently known.

The comparison below is exact: two 96x96 integer characteristic polynomials
are compared coefficient by coefficient.
"""

import os
import tempfile

import qwalkspec as q

# %% Build the pair ----------------------------------------------------------
shr = q.shrikhande_graph()
rook = q.rook_graph(4)
print("shrikhande:", q.srg_params(shr))
print("rook(4,4): ", q.srg_params(rook))

# %% Profiles: all four invariants, exactly ----------------------------------
p_shr = q.profile(shr, "shrikhande")
p_rook = q.profile(rook, "rook44")
report = q.compare(p_shr, p_rook)
for which in ("a", "s1", "s2", "s3"):
    print(f"  {which:<3} {report.verdicts[which]}")
print("first distinguishing invariant:", report.distinguishing_invariant)

# %% The distinguishing coefficients ------------------------------------------
diff = [
    (i, x, y)
    for i, (x, y) in enumerate(zip(p_shr.charpoly_s3.coeffs, p_rook.charpoly_s3.coeffs))
    if x != y
]
print(f"\nchar polys of S+(U^3) differ in {len(diff)} of 97 coefficients; first few:")
for i, x, y in diff[:3]:
    print(f"  t^{i}: {x} vs {y}")

# %% Corpus runs through graph6 files ----------------------------------------
# batch_compare prunes to pairs sharing (n, k) and reports verdicts for each;
# graphs that fail the walk hypotheses are listed as skipped.
with tempfile.NamedTemporaryFile("w", suffix=".g6", delete=False) as fh:
    path = fh.name
q.write_graph6_file(path, [shr, rook, q.paley_graph(13)])
corpus = q.read_graph6_file(path)
result = q.batch_compare(corpus)
os.unlink(path)
print("\nbatch over a .g6 corpus:")
for r in result.pairs:
    verdicts = " ".join(f"{which}={r.verdicts[which]}" for which in ("a", "s1", "s2", "s3"))
    print(f"  {r.pair[0]} vs {r.pair[1]}: {verdicts}")
for gid, reason in result.skipped:
    print(f"  skipped {gid}: {reason}")
