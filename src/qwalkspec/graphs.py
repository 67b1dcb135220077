"""Simple undirected graphs, their structural predicates and isomorphism witnesses.

Graphs are immutable: a vertex count ``n`` and a frozenset of edges, each
edge a pair ``(u, v)`` with ``0 <= u < v < n``.  Loops are rejected at
construction time, and a repeated edge, in either orientation, is merged
into one: ``Graph(3, [(0, 1), (1, 0)])`` has one edge.  The walk machinery
downstream is only defined on simple graphs.

A graph owns the two facts every theorem's hypotheses read: ``valency`` (its
common degree, or None if it is not regular) and ``connected``, and the one
polynomial every closed form reads: ``charpoly``, the exact adjacency
characteristic polynomial chi_A.  Each is decided on first use and kept, so
a graph is checked, and chi_A formed, at most once however many arc spaces,
closed forms and checks read it.

``find_isomorphism`` searches for a vertex map by individualization and
refinement, the scheme of McKay and Piperno, "Practical graph isomorphism,
II" (arXiv:1301.1493), without their automorphism pruning.  It returns a
map only after checking it on the adjacency matrices, so a map it returns
is a proof of isomorphism; None proves nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from .intmat import char_poly
from .polynomials import CharPoly


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices ``0 .. n-1``, with its valency, connectivity and chi_A."""

    n: int
    edges: frozenset

    def __init__(self, n: int, edges: Iterable[tuple]):
        n = index(n)  # a float is a TypeError, a numpy integer becomes an int
        if n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        norm = set()
        for e in edges:
            u, v = map(index, e)
            if u == v:
                raise ValueError(f"loop edge ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has endpoint outside [0, {n})")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def valency(self) -> Optional[int]:
        """The common degree if the graph is regular, else None."""
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        k = d[0]
        return k if all(x == k for x in d) else None

    @cached_property
    def connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0."""
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        return all(seen)

    @cached_property
    def charpoly(self) -> CharPoly:
        """chi_A, the exact characteristic polynomial of the adjacency matrix."""
        return char_poly(adjacency_matrix(self))


@dataclass(frozen=True)
class SrgParams:
    """Parameters (n, k, lambda, mu) of a strongly regular graph."""

    n: int
    k: int
    lam: int
    mu: int

    def __post_init__(self):
        # standard feasibility identity
        if self.k * (self.k - self.lam - 1) != (self.n - self.k - 1) * self.mu:
            raise ValueError(
                f"infeasible SRG parameters ({self.n},{self.k},{self.lam},{self.mu}):"
                f" k(k-lambda-1) != (n-k-1)mu"
            )


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix (exact integer entries)."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    u, v = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2).T
    a[u, v] = a[v, u] = 1
    return a


def srg_params(g: Graph) -> Optional[SrgParams]:
    """SRG parameters, or None if g is not strongly regular.

    Reads (n, k, lambda, mu) off the defining identity
    ``A^2 = kI + lambda A + mu (J - I - A)`` over Z: g is strongly regular iff
    it is regular and ``A^2`` takes a single value lambda on the edges and a
    single value mu on the non-adjacent pairs of distinct vertices.  Complete
    and edgeless graphs are degenerate (one of the pair classes is empty) and
    yield None.  Otherwise the parameters found are feasible: counting the
    2-walks from a vertex to its non-neighbours gives k(k - lambda - 1) =
    (n - k - 1) mu, so ``SrgParams`` accepts them.
    """
    k = g.valency
    if k is None:
        return None
    a = adjacency_matrix(g)
    a2 = a @ a  # int64: every entry counts common neighbours, so is at most n
    lam = np.unique(a2[a == 1])
    mu = np.unique(a2[(a == 0) & ~np.eye(g.n, dtype=bool)])
    if len(lam) != 1 or len(mu) != 1:
        return None
    return SrgParams(g.n, k, int(lam[0]), int(mu[0]))


ISOMORPHISM_BUDGET = 512  # search nodes find_isomorphism visits before it gives up


def _refine(adj: np.ndarray, colours: np.ndarray, n: int) -> Optional[np.ndarray]:
    """Stable colour refinement of two n-vertex graphs at once, or None once they disagree.

    ``adj`` is the block-diagonal adjacency matrix of g then h, ``colours``
    one colour per vertex of both.  Every round recolours each vertex by its
    colour and the number of its neighbours of each colour, named the same
    way in both graphs, and compares the cell signatures: a colour that g and
    h hold on different numbers of vertices means that no isomorphism maps
    the current colouring of g onto that of h.
    """
    cells = int(colours.max()) + 1
    while True:
        counts = adj @ np.eye(cells)[colours]  # neighbours of each colour, exact small integers
        keys = np.column_stack((colours, counts))
        order = np.lexsort(keys.T[::-1])  # vertices by key, compared column by column
        ranks = np.cumsum(np.any(keys[order[1:]] != keys[order[:-1]], axis=1))
        colours = np.zeros(len(keys), dtype=np.int64)
        colours[order[1:]] = ranks  # the rank of a vertex's key among the distinct keys
        found = int(ranks[-1]) + 1
        if not np.array_equal(np.bincount(colours[:n], minlength=found),
                              np.bincount(colours[n:], minlength=found)):
            return None
        if found == cells:  # each round splits cells, so no new cell means stable
            return colours
        cells = found


def find_isomorphism(g: Graph, h: Graph, stats: Optional[dict] = None) -> Optional[np.ndarray]:
    """A vertex map pi with ``relabel(g, pi) == h``, checked exactly, or None.

    Refines the colourings of g and h in lockstep, individualizes the first
    vertex of g's smallest non-singleton cell against each vertex of h's
    matching cell in turn, and recurses until the colouring is discrete.  A
    discrete colouring pairs each vertex of g with one of h; the pairing is
    returned only if ``A_h[pi][:, pi] == A_g`` holds entry by entry.  None
    means no map was found within ``ISOMORPHISM_BUDGET`` search nodes, not
    that g and h are non-isomorphic.  ``stats``, if given, receives the
    number of nodes visited under ``"nodes"``; it is the only way to learn
    how much of the budget a search used.
    """
    budget = ISOMORPHISM_BUDGET  # read per call, so that it can be patched
    nodes = 0
    found = None
    if g.n == h.n and g.edge_count == h.edge_count:
        n = g.n
        a_g, a_h = adjacency_matrix(g), adjacency_matrix(h)
        adj = np.zeros((2 * n, 2 * n))
        adj[:n, :n], adj[n:, n:] = a_g, a_h

        def search(colours: np.ndarray) -> Optional[np.ndarray]:
            nonlocal nodes
            nodes += 1
            colours = _refine(adj, colours, n)
            if colours is None:
                return None
            sizes = np.bincount(colours[:n])
            if sizes.max() == 1:
                pi = np.empty(n, dtype=np.int64)
                pi[colours[n:]] = np.arange(n)  # pi[c] = the vertex of h coloured c
                pi = pi[colours[:n]]
                return pi if np.array_equal(a_h[np.ix_(pi, pi)], a_g) else None
            cell = int(np.flatnonzero(sizes == sizes[sizes > 1].min())[0])
            v = int(np.flatnonzero(colours[:n] == cell)[0])
            for w in np.flatnonzero(colours[n:] == cell):
                if nodes >= budget:
                    return None
                branch = colours.copy()
                branch[v] = branch[n + w] = sizes.size  # a colour of their own
                pi = search(branch)
                if pi is not None:
                    return pi
            return None

        if budget >= 1:
            found = search(np.zeros(2 * n, dtype=np.int64))
    if stats is not None:
        stats["nodes"] = nodes
    return found


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Graph with vertex i renamed to perm[i]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return Graph(g.n, {(perm[u], perm[v]) for (u, v) in g.edges})
