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

W, S+(U), kQ and every product by them come from the arc structure
(``_ArcStep``): index gathers and a sum over the k arcs into each vertex,
O(nk) per column.  Their dense definitions 2*outs^T*ins - k*P,
outs^T*ins - P and 2*ins^T*ins - k*I are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import intmat
from .errors import ValencyError
from .graphs import Graph, is_regular
from .intmat import int_eye


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


class _ArcStep:
    """Products M -> X*M by the arc-space matrices X, from the index arrays of one arc space.

    With ins*M the n rows summing M over the k arcs into each vertex:
    W*M = 2(ins*M)[tail] - k*M[rev], S+(U)*M = (ins*M)[tail] - M[rev],
    kQ*M = 2(ins*M)[head] - k*M and P*M = M[rev].  Entries grow by at most
    3k per product; ``_walk_powers`` checks its chain against 2^62.
    """

    def __init__(self, a: ArcSpace):
        self.k, self.rev = a.k, np.array(a.reverse)
        self.tail, self.head = np.array(a.arcs).T
        self.into = np.argsort(self.head, kind="stable").reshape(a.n, a.k)  # row v: the arcs into v

    def ins(self, m: np.ndarray) -> np.ndarray:
        return m[self.into].sum(axis=1)

    def w(self, m: np.ndarray) -> np.ndarray:
        return 2 * self.ins(m)[self.tail] - self.k * m[self.rev]

    def s1(self, m: np.ndarray) -> np.ndarray:
        return self.ins(m)[self.tail] - m[self.rev]

    def kq(self, m: np.ndarray) -> np.ndarray:
        return 2 * self.ins(m)[self.head] - self.k * m

    def p(self, m: np.ndarray) -> np.ndarray:
        return m[self.rev]


def ins_matrix(a: ArcSpace) -> np.ndarray:
    """n x nk 0/1 matrix: entry (i, j) = 1 iff vertex i is the head of arc j."""
    return int_eye(a.n)[:, [h for _, h in a.arcs]]


def outs_matrix(a: ArcSpace) -> np.ndarray:
    """n x nk 0/1 matrix: entry (i, j) = 1 iff vertex i is the tail of arc j."""
    return int_eye(a.n)[:, [t for t, _ in a.arcs]]


def reversal_matrix(a: ArcSpace) -> np.ndarray:
    """The arc-reversal permutation P = P*I: symmetric, P^2 = I, zero diagonal."""
    return int_eye(a.size)[np.array(a.reverse)]


def scaled_transition_matrix(a: ArcSpace) -> np.ndarray:
    """W = k*U = W*I, by the arc step ``_walk_powers`` repeats.

    Entry (j, i) is 2 when arc i can continue into arc j without
    backtracking, 2 - k when j is the reversal of i, and 0 otherwise.
    """
    return _walk_powers(a, 1)[0]


def scaled_reflection_q(a: ArcSpace) -> np.ndarray:
    """kQ = kQ*I = 2*ins[head] - k*I; satisfies (kQ)^2 = k^2 I."""
    return _ArcStep(a).kq(int_eye(a.size))


def _walk_powers(a: ArcSpace, m: int) -> list:
    """[W, W^2, ..., W^m], each W times the last, by the arc step in O((nk)^2) per power.

    Each row of W has 1-norm 2(k-1) + |k-2| <= 3k, so no entry met reaches
    (3k)^m, checked against 2^62 first.
    """
    if (3 * a.k) ** m >= intmat._INT64_SAFE:
        raise OverflowError(f"W^{m} at k={a.k} may reach 2^62 in magnitude")
    step, powers = _ArcStep(a), [int_eye(a.size)]
    for _ in range(m):
        powers.append(step.w(powers[-1]))
    return powers[1:]
