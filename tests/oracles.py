"""Independent oracles and numeric helpers for the test suite.

The oracles deliberately avoid the library's polynomial and charpoly code
paths so that agreement between oracle and implementation is meaningful:

* ``cofactor_charpoly`` and ``naive_determinant``: Laplace expansion, for
  dimensions up to about 8;
* ``berkowitz_charpoly``: the division-free Berkowitz algorithm over the
  integers (O(n^4)), the reference ``char_poly`` is compared against at any
  size.  It returns the library's ``CharPoly`` container only so results
  compare directly.
* ``int_product``: the matrix product over Python ints, which cannot
  overflow, the reference where an int64 product might.
* ``dense_arc_matrices``: ins, outs, P and the dense incidence products
  W = 2 outs^T ins - kP, S+(U) = outs^T ins - P and kQ = 2 ins^T ins - kI,
  the reference for the arc-step matrices of ``arcspace`` and ``supports``.
* ``arc_step_walk_powers``: the walk-product chain W, W^2, ..., W^m, each
  W times the last by the arc step, the reference for the entry formulas
  that build S+(U^2) and S+(U^3) in ``supports``.
* ``pairwise_srg_params``: SRG parameters by intersecting neighbour sets
  pair by pair, the reference for ``srg_params``.
* ``nested_list_adjacency_matrix``: the adjacency matrix filled entry by
  entry in nested lists, the reference for ``adjacency_matrix``.
* ``schoolbook_compose``, ``schoolbook_graeffe`` and
  ``schoolbook_closed_forms``: homogeneous composition, Graeffe
  root-squaring and the closed-form S+(U), Ihara-style and S+(U^2) char
  polys, expanded term by term with quadratic list convolutions, the
  reference for the Kronecker-substitution route in ``polynomials`` and
  ``supports``.

``max_matching_distance`` compares numeric root multisets for the
cross-checks against the closed-form spectra; it is the only user of scipy.
"""

import numpy as np

from qwalkspec import CharPoly, int_matrix


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ppow(p, e):
    out = [1]
    for _ in range(e):
        out = _pmul(out, p)
    return out


def schoolbook_compose(p, x, y):
    """y^d p(x/y) = sum_j p_j x^j y^(d-j) for p of degree d, summed term by term."""
    d = len(p) - 1
    out = [0]
    for j, c in enumerate(p):
        out = _padd(out, [c * v for v in _pmul(_ppow(x, j), _ppow(y, d - j))])
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def schoolbook_graeffe(p):
    """q with q(x^2) = (-1)^d p(x) p(-x): the even coefficients of one convolution."""
    d = len(p) - 1
    even = _pmul(p, [-c if i % 2 else c for i, c in enumerate(p)])
    assert not any(even[1::2])
    return [(-1) ** d * c for c in even[0::2]]


def _divide_by_root(p, r):
    """p / (x - r) by synthetic division; the remainder p(r) must be 0."""
    q = [0] * (len(p) - 1)
    acc = 0
    for i in range(len(p) - 1, 0, -1):
        acc = p[i] + r * acc
        q[i - 1] = acc
    assert p[0] + r * acc == 0
    return q


def schoolbook_closed_forms(n, k, a):
    """(S+(U), Ihara-style, S+(U^2)) char polys of an n-vertex connected k-regular graph.

    ``a`` holds the adjacency char poly's coefficients, ascending.  At k = 2
    the S+(U^2) polynomial is the Graeffe square of the S+(U) one.
    """
    psi = _divide_by_root(list(a), k)
    e = n * (k - 2) // 2
    quad = [k - 1, 0, 1]
    su = _pmul(_pmul([-(k - 1), 1], schoolbook_compose(psi, quad, [0, 1])),
               _pmul(_ppow([-1, 1], e + 1), _ppow([1, 1], e)))
    ihara = _pmul(schoolbook_compose(list(a), quad, [0, 1]), _ppow([-1, 0, 1], e))
    if k == 2:
        return su, ihara, schoolbook_graeffe(su)
    body = schoolbook_compose(schoolbook_graeffe(psi), _ppow([k - 2, 1], 2), [-1, 1])
    su2 = _pmul(_pmul([-(k * k - 2 * k + 2), 1], body), _ppow([-2, 1], n * (k - 2) + 1))
    return su, ihara, su2


def cofactor_charpoly(m):
    """det(tI - M) by Laplace expansion over Z[t]; coefficients ascending.

    Exponential-time; only meant for dimensions <= 8 or so.
    """
    n = len(m)
    entries = [
        [([-int(m[i][j]), 1] if i == j else [-int(m[i][j])]) for j in range(n)]
        for i in range(n)
    ]
    memo = {}

    def det(row, colmask):
        if row == n:
            return [1]
        key = colmask
        if key in memo:
            return memo[key]
        acc = [0]
        sign = 1
        for j in range(n):
            if not (colmask >> j) & 1:
                continue
            e = entries[row][j]
            if any(e):
                sub = det(row + 1, colmask & ~(1 << j))
                term = _pmul(e, sub)
                if sign < 0:
                    term = [-c for c in term]
                acc = _padd(acc, term)
            sign = -sign
        memo[key] = acc
        return acc

    out = det(0, (1 << n) - 1)
    while len(out) < n + 1:
        out.append(0)
    return out


def naive_determinant(m):
    """Determinant by the same Laplace machinery, specialized to integers."""
    cp = cofactor_charpoly(m)
    n = len(m)
    # det(M) = (-1)^n * charpoly(0)
    return (-1) ** n * cp[0]


def int_product(a, b):
    """a @ b as nested lists of Python ints, which cannot overflow."""
    rows, inner, cols = a.shape[0], b.shape[0], b.shape[1]
    a, b = a.tolist(), b.tolist()
    return [[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)] for i in range(rows)]


def dense_arc_matrices(a):
    """{"ins", "outs", "P", "W", "S1", "kQ"} of an arc space, by their dense definitions.

    The incidence matrices and P are set entry by entry from ``a.arcs`` (P
    looks up each reversed arc rather than trusting ``a.rev``); the rest
    are plain numpy products of them.
    """
    nk, index = len(a.arcs), {arc: j for j, arc in enumerate(a.arcs)}
    ins, outs = np.zeros((a.n, nk), dtype=np.int64), np.zeros((a.n, nk), dtype=np.int64)
    p = np.zeros((nk, nk), dtype=np.int64)
    for j, (t, h) in enumerate(a.arcs):
        outs[t, j] = ins[h, j] = p[index[h, t], j] = 1
    x = outs.T @ ins
    return {"ins": ins, "outs": outs, "P": p, "W": 2 * x - a.k * p, "S1": x - p,
            "kQ": 2 * ins.T @ ins - a.k * np.eye(nk, dtype=np.int64)}


def arc_step_walk_powers(a, m):
    """[W, W^2, ..., W^m] of an arc space, each W times the last by the arc step ``a.w``, in int64.

    Each row of W has 1-norm 2(k-1) + |k-2| <= 3k, so no entry reaches (3k)^m.
    """
    assert (3 * a.k) ** m < 2**62, (a.k, m)
    powers = [a.w(np.eye(a.size, dtype=np.int64))]
    for _ in range(m - 1):
        powers.append(a.w(powers[-1]))
    return powers


def nested_list_adjacency_matrix(g):
    """The 0/1 adjacency matrix of g, set entry by entry in nested lists."""
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = 1
        a[v][u] = 1
    return int_matrix(a)


def pairwise_srg_params(g):
    """(n, k, lambda, mu) of a strongly regular g from common-neighbour counts, else None."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    if len({len(s) for s in adj}) != 1:
        return None
    counts = {True: set(), False: set()}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            counts[v in adj[u]].add(len(adj[u] & adj[v]))
    if len(counts[True]) != 1 or len(counts[False]) != 1:
        return None
    (lam,), (mu,), k = counts[True], counts[False], len(adj[0])
    return (g.n, k, lam, mu) if k * (k - lam - 1) == (g.n - k - 1) * mu else None


def berkowitz_charpoly(m):
    """char poly det(tI - M) by the Berkowitz algorithm, exact over Z."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix not square: {m.shape}")
    n = m.shape[0]
    if n == 0:
        return CharPoly((1,))
    a = m.astype(object)
    # c holds the coefficients of det(tI - leading submatrix), descending.
    c = [1, -int(a[0, 0])]
    for i in range(1, n):
        row = a[i, :i]
        col = a[:i, i]
        sub = a[:i, :i]
        s = [1, -int(a[i, i])]
        v = col
        for _ in range(i):
            s.append(-int(np.dot(row, v)))
            v = np.dot(sub, v)
        # apply the lower-triangular Toeplitz matrix built from s
        cn = [0] * (i + 2)
        for q, cq in enumerate(c):
            for d, sd in enumerate(s):
                p = q + d
                if p < i + 2:
                    cn[p] += sd * cq
        c = cn
    return CharPoly(tuple(c[::-1]))


def max_matching_distance(computed, expected):
    """Largest pointwise distance under an optimal matching of two root multisets."""
    from scipy.optimize import linear_sum_assignment

    if len(computed) != len(expected):
        raise ValueError(f"multiset sizes differ: {len(computed)} vs {len(expected)}")
    a = np.array(computed, dtype=complex)
    b = np.array(expected, dtype=complex)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
