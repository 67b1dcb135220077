"""Simple undirected graphs and their structural predicates.

Graphs are immutable: a vertex count ``n`` and a frozenset of edges, each
edge a pair ``(u, v)`` with ``0 <= u < v < n``.  Loops and multi-edges are
rejected at construction time; the walk machinery downstream is only
defined on simple graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from .intmat import int_matrix, mat_mul


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices ``0 .. n-1``."""

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

    def sorted_edges(self) -> list:
        """Edges as (u, v) with u < v, in lexicographic order."""
        return sorted(self.edges)


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


def adjacency_lists(g: Graph) -> list:
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix (exact integer entries)."""
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = 1
        a[v][u] = 1
    return int_matrix(a)


def is_regular(g: Graph) -> Optional[int]:
    """The common degree if g is regular, else None."""
    d = [0] * g.n
    for u, v in g.edges:
        d[u] += 1
        d[v] += 1
    k = d[0]
    return k if all(x == k for x in d) else None


def is_connected(g: Graph) -> bool:
    adj = adjacency_lists(g)
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def srg_params(g: Graph) -> Optional[SrgParams]:
    """SRG parameters, or None if g is not strongly regular.

    Reads (n, k, lambda, mu) off the defining identity
    ``A^2 = kI + lambda A + mu (J - I - A)`` over Z: g is strongly regular iff
    it is regular and ``A^2`` takes a single value lambda on the edges and a
    single value mu on the non-adjacent pairs of distinct vertices.  Complete
    and edgeless graphs are degenerate (one of the pair classes is empty) and
    yield None.
    """
    k = is_regular(g)
    if k is None:
        return None
    a = adjacency_matrix(g)
    a2 = mat_mul(a, a)
    lam = np.unique(a2[a == 1])
    mu = np.unique(a2[(a == 0) & ~np.eye(g.n, dtype=bool)])
    if len(lam) != 1 or len(mu) != 1:
        return None
    try:
        return SrgParams(g.n, k, int(lam[0]), int(mu[0]))
    except ValueError:
        return None


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Graph with vertex i renamed to perm[i]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return Graph(g.n, {(perm[u], perm[v]) for (u, v) in g.edges})
