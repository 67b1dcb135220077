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

``build_arc_space`` builds the index arrays of the arcs once, and the
``ArcSpace`` applies every arc-space matrix from them: W, S+(U), kQ, P and
``ins`` act by index gathers and a sum over the k arcs into each vertex,
O(nk) per column; outs = ins*P, so outs*M = ins*(P*M).  An arc matrix X
itself is X*I, formed only where a caller needs it.  No walk support is
formed here: ``supports.support_u_power`` builds S+(U), S+(U^2) and S+(U^3)
from the entry formulas of W, W^2 and W^3 over A = ins*I[tail] and
A^2 = ins*A[tail], in int32 row blocks whose entries it bounds by
16k + 2k^2 + k^3 < 2^31.  The dense definitions 2*outs^T*ins - k*P,
outs^T*ins - P and 2*ins^T*ins - k*I, and the chain W, W*W, W*W*W by the
arc step, are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValencyError
from .graphs import Graph
from .intmat import int_eye


@dataclass(frozen=True, eq=False)
class ArcSpace:
    """Canonical arc indexing of a k-regular graph, and the products M -> X*M by its arc matrices X.

    Arc j runs from ``tail[j]`` to ``head[j]``, ``rev[j]`` is its reversal,
    and row v of ``into`` (n x k) lists the arcs into vertex v.  With ins*M
    the n rows summing M over the k arcs into each vertex:
    W*M = 2(ins*M)[tail] - k*M[rev], S+(U)*M = (ins*M)[tail] - M[rev],
    kQ*M = 2(ins*M)[head] - k*M and P*M = M[rev].  Entries grow by at most
    3k per product.
    """

    graph: Graph
    k: int
    tail: np.ndarray
    head: np.ndarray
    rev: np.ndarray
    into: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def size(self) -> int:
        return len(self.tail)

    @property
    def arcs(self) -> tuple:
        """The nk (tail, head) pairs, in arc order."""
        return tuple(zip(self.tail.tolist(), self.head.tolist()))

    def ins(self, m: np.ndarray) -> np.ndarray:
        return m[self.into].sum(axis=1)

    def w(self, m: np.ndarray) -> np.ndarray:
        out = (2 * self.ins(m))[self.tail]
        out -= self.k * m[self.rev]
        return out

    def s1(self, m: np.ndarray) -> np.ndarray:
        out = self.ins(m)[self.tail]
        out -= m[self.rev]
        return out

    def kq(self, m: np.ndarray) -> np.ndarray:
        return 2 * self.ins(m)[self.head] - self.k * m

    def p(self, m: np.ndarray) -> np.ndarray:
        return m[self.rev]


def build_arc_space(g: Graph) -> ArcSpace:
    """Index the nk arcs of a regular graph (valency >= 1)."""
    k = g.valency
    if k is None:
        raise ValencyError("graph is not regular")
    if k < 1:
        raise ValencyError(f"valency {k} < 1: no arcs to index")
    edges = np.array(sorted(g.edges), dtype=np.int64)  # row j: arcs 2j = (u, v) and 2j + 1 = (v, u)
    head = edges[:, ::-1].ravel()
    into = np.argsort(head, kind="stable").reshape(g.n, k)
    return ArcSpace(g, k, edges.ravel(), head, np.arange(len(head)) ^ 1, into)


def ins_matrix(a: ArcSpace) -> np.ndarray:
    """n x nk 0/1 matrix: entry (i, j) = 1 iff vertex i is the head of arc j."""
    return int_eye(a.n)[:, a.head]


def outs_matrix(a: ArcSpace) -> np.ndarray:
    """n x nk 0/1 matrix: entry (i, j) = 1 iff vertex i is the tail of arc j."""
    return int_eye(a.n)[:, a.tail]
