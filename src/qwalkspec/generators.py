"""Named graph families with fixed, documented vertex numbering.

The numbering per family is part of the contract so test fixtures and
command-line experiments are reproducible.  cycle, complete, circulant,
hypercube, rook, shrikhande and paley are Cayley graphs of
Z_m1 x ... x Z_mr, built by ``_cayley``: x ~ x + c for each c in a
connection set, with x numbered row-major, so x_r varies fastest.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ParameterError
from .graphs import Graph
from .intmat import _is_prime


def _cayley(moduli: tuple, connection: Iterable[tuple]) -> Graph:
    """The Cayley graph of Z_m1 x ... x Z_mr: x ~ x + c for each c in ``connection``.

    Vertex (x_1, ..., x_r) is numbered row-major, ((x_1 m_2 + x_2) m_3 + ...) m_r + x_r.
    """
    x = np.indices(moduli).reshape(len(moduli), -1)  # column v holds the element numbered v
    ends = (np.ravel_multi_index(x + np.reshape(c, (-1, 1)), moduli, mode="wrap") for c in connection)
    return Graph(x.shape[1], {(u, v) for w in ends for u, v in enumerate(w.tolist())})


def cycle_graph(n: int) -> Graph:
    """C_n: vertices 0..n-1, edges {i, i+1 mod n}.  Requires n >= 3."""
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    return _cayley((n,), [(1,)])


def complete_graph(n: int) -> Graph:
    """K_n on vertices 0..n-1."""
    if n < 1:
        raise ParameterError(f"complete needs n >= 1, got {n}")
    return _cayley((n,), [(c,) for c in range(1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b}: left part 0..a-1, right part a..a+b-1."""
    if a < 1 or b < 1:
        raise ParameterError(f"complete_bipartite needs parts >= 1, got ({a},{b})")
    return Graph(a + b, {(i, a + j) for i in range(a) for j in range(b)})


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9 (5+i ~ 5+(i+2 mod 5)), spokes i ~ i+5."""
    edges = {(i, (i + 1) % 5) for i in range(5)}
    edges |= {(5 + i, 5 + (i + 2) % 5) for i in range(5)}
    edges |= {(i, i + 5) for i in range(5)}
    return Graph(10, edges)


def hypercube_graph(d: int) -> Graph:
    """Q_d: vertices are the integers 0..2^d-1, edges join words at Hamming distance 1."""
    if d < 1:
        raise ParameterError(f"hypercube needs d >= 1, got {d}")
    return _cayley((2,) * d, [tuple(int(i == b) for i in range(d)) for b in range(d)])


def circulant_graph(n: int, connections: Iterable[int]) -> Graph:
    """Circulant on Z_n: i ~ i+c for each c in the connection set (c and n-c identified)."""
    if n < 3:
        raise ParameterError(f"circulant needs n >= 3, got {n}")
    conn = {c % n for c in connections}
    if 0 in conn:
        raise ParameterError("connection 0 mod n would create loops")
    if not conn:
        raise ParameterError("empty connection set")
    return _cayley((n,), [(c,) for c in conn])


def shrikhande_graph() -> Graph:
    """The Shrikhande graph as a Cayley graph of Z_4 x Z_4.

    Vertex (a, b) is numbered 4a + b; (a, b) ~ (c, d) iff the difference is
    one of +-(1,0), +-(0,1), +-(1,1).  This is an SRG(16, 6, 2, 2) that is
    not isomorphic to the 4x4 rook's graph.
    """
    return _cayley((4, 4), [(1, 0), (0, 1), (1, 1)])


def rook_graph(m: int, m2: int = None) -> Graph:
    """The m x m rook's graph: vertices (r, c) = m*r + c, adjacent iff same row or column."""
    if m2 is not None and m2 != m:
        raise ParameterError(f"only square rook graphs are supported, got ({m},{m2})")
    if m < 2:
        raise ParameterError(f"rook needs m >= 2, got {m}")
    return _cayley((m, m), [(0, c) for c in range(1, m)] + [(c, 0) for c in range(1, m)])


def paley_graph(q: int) -> Graph:
    """Paley graph on Z_q (q prime, q = 1 mod 4): i ~ j iff i-j is a nonzero square."""
    if not _is_prime(q):
        raise ParameterError(f"paley needs a prime, got {q}")
    if q % 4 != 1:
        raise ParameterError(f"paley needs q = 1 mod 4, got {q}")
    return _cayley((q,), {(x * x % q,) for x in range(1, q)})


_FAMILIES = {
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite_graph, 2),
    "petersen": (petersen_graph, 0),
    "hypercube": (hypercube_graph, 1),
    "circulant": (circulant_graph, None),  # n followed by the connection set
    "shrikhande": (shrikhande_graph, 0),
    "rook": (rook_graph, None),  # m or m,m
    "paley": (paley_graph, 1),
}


def generate(name: str, *params: int) -> Graph:
    """Build a named family member, e.g. generate('cycle', 6)."""
    if name not in _FAMILIES:
        raise ParameterError(
            f"unknown family {name!r}; known: {', '.join(sorted(_FAMILIES))}"
        )
    fn, arity = _FAMILIES[name]
    if name == "circulant":
        if len(params) < 2:
            raise ParameterError("circulant needs n and at least one connection")
        return fn(params[0], params[1:])
    if name == "rook":
        if len(params) not in (1, 2):
            raise ParameterError("rook needs m (or m,m)")
        return fn(*params)
    if arity != len(params):
        raise ParameterError(f"{name} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


def parse_generator_spec(spec: str) -> Graph:
    """Parse 'name' or 'name:p1,p2,...' into a graph, e.g. 'cycle:6', 'rook:4'."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if not rest:
        return generate(name)
    try:
        params = tuple(int(tok) for tok in rest.split(","))
    except ValueError:
        raise ParameterError(f"non-integer parameter in generator spec {spec!r}")
    return generate(name, *params)
