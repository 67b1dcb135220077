"""Arc space of a regular graph and its walk matrices, exactly over Z.

Every undirected edge {u, v} contributes the two opposite arcs (u, v) and
(v, u).  The canonical arc order lists edges lexicographically (u < v) and
places each arc immediately before its reversal, so the reversal permutation
is block diagonal with 2x2 swaps and fixtures stay readable.

The walk transition matrix of a k-regular graph has entries 2/k and 2/k - 1;
to keep every downstream support computation sign-exact, this module only
ever materializes the integer scalings W = k*U and kQ.  Sign patterns of
powers are unchanged by the positive scaling, so supports of U^m and W^m
coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import intmat
from .errors import ValencyError
from .graphs import Graph, is_regular
from .intmat import int_eye, int_zeros, mat_mul


@dataclass(frozen=True)
class ArcSpace:
    """Canonical arc indexing of a k-regular graph."""

    graph: Graph
    k: int
    arcs: tuple  # nk ordered (tail, head) pairs
    reverse: tuple  # reverse[i] = index of the reversed arc

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def size(self) -> int:
        return len(self.arcs)


def build_arc_space(g: Graph) -> ArcSpace:
    """Index the nk arcs of a regular graph (valency >= 1)."""
    k = is_regular(g)
    if k is None:
        raise ValencyError("graph is not regular")
    if k < 1:
        raise ValencyError(f"valency {k} < 1: no arcs to index")
    arcs = tuple(arc for u, v in g.sorted_edges() for arc in ((u, v), (v, u)))
    return ArcSpace(g, k, arcs, tuple(i ^ 1 for i in range(len(arcs))))  # 2j <-> 2j + 1


def _incidence(a: ArcSpace, end: int) -> np.ndarray:
    """n x nk 0/1 matrix marking the tail (end 0) or head (end 1) of each arc."""
    m = int_zeros(a.n, a.size)
    m[np.array(a.arcs)[:, end], np.arange(a.size)] = 1
    return m


def ins_matrix(a: ArcSpace) -> np.ndarray:
    """n x nk 0/1 matrix: entry (i, j) = 1 iff vertex i is the head of arc j."""
    return _incidence(a, 1)


def outs_matrix(a: ArcSpace) -> np.ndarray:
    """n x nk 0/1 matrix: entry (i, j) = 1 iff vertex i is the tail of arc j."""
    return _incidence(a, 0)


def reversal_matrix(a: ArcSpace) -> np.ndarray:
    """The arc-reversal permutation P: symmetric, P^2 = I, zero diagonal."""
    m = int_zeros(a.size, a.size)
    m[list(a.reverse), np.arange(a.size)] = 1
    return m


def scaled_transition_matrix(a: ArcSpace) -> np.ndarray:
    """W = k*U = 2*outs^T*ins - k*P.

    Entry (j, i) is 2 when arc i can continue into arc j without
    backtracking, 2 - k when j is the reversal of i, and 0 otherwise.
    """
    return 2 * mat_mul(outs_matrix(a).T, ins_matrix(a)) - a.k * reversal_matrix(a)


def scaled_reflection_q(a: ArcSpace) -> np.ndarray:
    """kQ = 2*ins^T*ins - k*I; satisfies (kQ)^2 = k^2 I."""
    ins = ins_matrix(a)
    return 2 * mat_mul(ins.T, ins) - a.k * int_eye(a.size)


def _walk_powers(a: ArcSpace, m: int) -> list:
    """[W, W^2, ..., W^m], each W times the last, from the arc structure in O((nk)^2) per power.

    (W M)[j] = 2 sum_{head(i) = tail(j)} M[i] - k M[rev(j)].  Each row of W has 1-norm
    2(k-1) + |k-2| <= 3k, so no entry met reaches (3k)^m, checked against 2^62 first.
    """
    if (3 * a.k) ** m >= intmat._INT64_SAFE:
        raise OverflowError(f"W^{m} at k={a.k} may reach 2^62 in magnitude")
    tail, head = np.array(a.arcs).T
    into, rev = np.argsort(head, kind="stable"), np.array(a.reverse)
    powers = [int_eye(a.size)]
    for _ in range(m):  # sums[v]: the rows of the k arcs into v
        sums = powers[-1][into].reshape(a.n, a.k, a.size).sum(axis=1)
        powers.append(2 * sums[tail] - a.k * powers[-1][rev])
    return powers[1:]
