"""Dense exact integer matrices and their exact characteristic polynomials.

An exact matrix is an ``int64`` array with entries below 2^62 in magnitude,
and no other matrix type exists.  Every public function that computes on a
matrix runs one check, ``_int64``: bool and integer arrays are range-checked
and converted, an entry at or above 2^62 raises ``OverflowError``, and float,
complex and object arrays raise ``TypeError`` rather than be truncated.
``mat_mul`` raises ``OverflowError`` when its a-priori bound on the product
(the inner dimension times the largest entries of both factors) reaches 2^62,
so nothing wraps silently.  Below 2^53 that bound keeps every partial sum an
integer float64 holds exactly, so the product runs in float64, through BLAS;
from 2^53 to 2^62 it runs in int64.  Python ints remain only as scalars,
where big integers really arise: the coefficient bound, Bareiss and the CRT
step.

``char_poly`` has one exact engine, ``modular_charpoly``, the one-matrix
case of ``char_polys``, with four routes, tried in order.  Let r be the
larger of M's largest absolute row and column sums (``_row_col_bound``),
computed once per matrix: r^i bounds every entry of M^i and every partial
sum forming it.

The permutation route (``_permutation_route``) takes every matrix with
r <= 1: a signed partial permutation matrix, with at most one nonzero entry,
+-1, in each row and column, such as S+(U) of a cycle.  It follows
i -> (the column of row i's nonzero) once: a cycle of length L whose entries
multiply to s contributes t^L - s, and every index on a chain that ends in a
zero row contributes t.  No float, prime, mu or certificate is needed.

The trace route (``_trace_route``) takes every other n x n matrix with
r^n < 2^53 (so r >= 2 and n <= 52).  The float64 chain M, M^2, ..., M^n
(``_powers``) is then exact, each diagonal is summed in int64 (tr(M^n) may
pass 2^53, but n r^n < 2^59 does not), and Newton's identities turn the
traces into chi in Python ints: ``_charpoly_from_traces`` with rho = 1.
Cayley-Hamilton makes the n + 1 traces enough, so no prime, mu or
certificate is needed.

Every other matrix tries the minimal-polynomial route (``_minpoly_route``),
built for matrices with few distinct eigenvalues, such as the walk supports
of strongly regular graphs:

* mu, the minimal polynomial of a Krylov sequence u^T M^i v (fixed
  pseudo-random u, v), by Berlekamp-Massey modulo one prime, run online: it
  stops once its length L has held for ``_KRYLOV_MARGIN`` terms past 2L, so
  degree d costs about 2d terms.  d must stay at most n/2, and r^d below
  2^52: the route forms no power past M^d, so every entry it forms, and
  every partial sum, is at most r^d, exact in float64 and within the
  2^53 - p that ``_reduce`` asks of what it reduces.  mu is lifted from that
  prime alone, and by CRT over as many primes as its coefficient bound asks
  for only if the one-prime lift fails the certificate.
  When that bound asks for more than one prime, the one-prime lift may be
  wrong, so mu(M) v = 0 for one pseudo-random 0/1 vector v is checked first,
  exactly and in O(d n^2), to reject a wrong lift before mu(M) is formed;
* the certificate mu(M) = 0, checked exactly: the powers M^i, from the same
  ``_powers`` chain, are exact in float64.  mu(M) is formed in float64 too
  while its bound B = sum |mu_i| r^i is below 2^53, and is reduced modulo
  primes whose product exceeds 2B above it.  The exact traces p_i = tr(M^i)
  of those powers come free;
* chi from mu and p_0, ..., p_(d-1) by one integer recurrence
  (``_charpoly_from_traces``): mu(M) = 0 makes sum_i p_i t^i a rational
  function with denominator t^d mu(1/t), and t E'/E = p_0 - sum_i p_i t^i
  for E(t) = det(I - tM) then gives E's coefficients one by one, in O(n d)
  integer steps.  No prime, gcd or CRT is needed, and Jordan blocks (mu not
  squarefree) need nothing special.

A matrix whose degree or bound rules this route out, or whose certificate
fails, takes the Hessenberg route unchanged: Hessenberg reduction and the
Hessenberg determinant recurrence modulo word-sized primes, recombined by one
CRT step per matrix.  The primes are taken, largest first, until their
product exceeds 2^(B+1), with B a rigorous Hadamard-style coefficient bound
plus guard bits.  Every route is exact, not probabilistic: a pseudo-random
choice, an early stop or a wrong one-prime lift can only send a matrix to the
Hessenberg route.  The tests hold all four equal to an independent
reference, the division-free Berkowitz algorithm in ``tests/oracles.py``.

One kernel serves many primes, and several same-size matrices, at once.  It
holds S residues, each of one matrix modulo one of that matrix's primes, as
an (S, n, n) float64 stack, and reduces it by Gauss transforms in panels of
``_PANEL`` columns: inside a panel each step keeps its update as
H = h + c E^T - u r and costs one stacked matrix-vector product, and the end
of the panel writes all the updates back with one stacked matrix product and
one modular reduction (see ``_hessenberg_stack``).  ``char_polys`` plans
each matrix's primes as if it were alone and puts the residues of all its
matrices of one size into the same stacks, so they share the kernel's fixed
cost per step.  A stack holds as many residues as fit in ``_STACK_BYTES``,
at least one; more run the kernel once per group of them, so its memory
stays a small multiple of the larger of that budget and one n x n matrix,
however many primes and matrices there are.  The arithmetic is exact by
construction.  Residues are symmetric, at most (p + 1) / 2 in magnitude,
and every sum has at most n + ``_PANEL`` products of them, so
``_prime_ceiling`` caps the primes to keep every sum an integer below 2^53,
where float64 is exact; the order of summation, and whether BLAS fuses a
multiply-add, then cannot change a result.  ``_reduce`` maps such a sum
back to a residue exactly, so a zero test on a residue is exact.
"""

from __future__ import annotations

import logging
import math
import threading
from operator import index, mul
from time import perf_counter
from typing import Iterable

import numpy as np

from .polynomials import CharPoly, poly_mul

_INT64_SAFE = 1 << 62
_FLOAT_EXACT = 1 << 53  # float64 holds every integer of smaller magnitude exactly

log = logging.getLogger(__name__)


def int_matrix(rows: Iterable[Iterable[int]]) -> np.ndarray:
    """Exact int64 matrix from nested iterables of integers; floats are rejected, not truncated."""
    data = [[index(x) for x in row] for row in rows]
    cols = len(data[0]) if data else 0
    if any(len(row) != cols for row in data):
        raise ValueError("ragged rows")
    return _int64(np.array(data, dtype=np.int64).reshape(len(data), cols))


def int_eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _int64(m: np.ndarray) -> np.ndarray:
    """m as an exact int64 matrix: the one check at every public entry point."""
    m = np.asarray(m)
    if m.dtype.kind not in "biu":
        raise TypeError(f"exact matrices are integer arrays, not {m.dtype}; see int_matrix")
    if m.size and max(int(m.max()), -int(m.min())) >= _INT64_SAFE:
        raise OverflowError("matrix entry at or above 2^62 in magnitude")
    return m.astype(np.int64, copy=False)


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact int64 matrix product; ``OverflowError`` unless a bound proves it fits."""
    a, b = _int64(a), _int64(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    bound = a.shape[1] * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    if bound >= _INT64_SAFE:  # |entries| < 2^62 here, so np.abs cannot wrap
        raise OverflowError("matrix product may reach 2^62 in magnitude")
    if bound < _FLOAT_EXACT:  # every partial sum is an integer below 2^53, exact in float64
        return np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
    return np.matmul(a, b)


def positive_support(m: np.ndarray) -> np.ndarray:
    """0/1 int64 matrix marking the strictly positive entries of m."""
    return (_int64(m) > 0).astype(np.int64)


def mat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


# ---------------------------------------------------------------------------
# Bareiss fraction-free determinant (independent cross-check oracle)
# ---------------------------------------------------------------------------


def bareiss_determinant(m: np.ndarray) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    m, n = _int64_square(m)
    if n == 0:
        return 1
    a = m.tolist()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Modular charpoly: one blocked float64 Hessenberg kernel over every CRT prime
# ---------------------------------------------------------------------------

_PANEL = 32  # columns per panel of the blocked Hessenberg reduction
_STACK_BYTES = 1 << 23  # float64 bytes of one stack of residues: caps the primes reduced at once
_primes_lock = threading.Lock()
_primes_cache: dict = {}  # ceiling -> primes at or below it, descending


def _is_prime(m: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact for every m < 3.1e23."""
    if m < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % q == 0:
            return m == q
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _sum_terms(n: int) -> int:
    """Products of residues one float64 sum of the kernel may hold, for dimension n.

    The kernel's sums have at most n + b products (b = _PANEL); b + 2 more leave
    far more than p of headroom below 2^53 for ``_reduce``.  n is rounded up to
    a power of two so that few distinct ceilings, and prime lists, exist.
    """
    return (1 << max(n - 1, 0).bit_length()) + 2 * _PANEL + 2


def _prime_ceiling(n: int) -> int:
    """Largest odd c with _sum_terms(n) * ((c + 1) / 2)^2 < 2^53.

    Residues are symmetric, |r| <= (p + 1) / 2, so below this ceiling every
    sum the kernel forms is an integer float64 represents exactly.
    """
    half = math.isqrt((_FLOAT_EXACT - 1) // _sum_terms(n))
    return 2 * half - 1


def _primes(count: int, ceiling: int) -> list:
    """The ``count`` largest primes at or below the odd number ``ceiling``."""
    with _primes_lock:
        found = _primes_cache.setdefault(ceiling, [])
        x = found[-1] - 2 if found else ceiling
        while len(found) < count:
            if _is_prime(x):
                found.append(x)
            x -= 2
        return found[:count]


def _coefficient_bound_bits(m: np.ndarray) -> float:
    """log2 bound on |coefficients| of det(tI - M).

    The coefficient of t^(n-i) is (up to sign) the sum of the C(n, i)
    principal i x i minors; each minor is Hadamard-bounded by the product of
    the i largest row norms of M.
    """
    n = m.shape[0]
    row_sq = [max(sum(map(mul, row, row)), 1) for row in m.tolist()]  # exact Python ints
    half_logs = sorted((0.5 * math.log2(r) for r in row_sq), reverse=True)
    acc = 0.0
    best = 0.0
    for i in range(1, n + 1):
        acc += half_logs[i - 1]
        log_binom = (
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        ) / math.log(2)
        best = max(best, log_binom + acc)
    return best


def _reduce(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Symmetric residues of the float64 integers x modulo the odd primes p, in place.

    For |x| <= 2^53 - p the result is exact, congruent to x and at most
    (p + 1) / 2 in magnitude, so below p, and a residue is 0 exactly when x is
    divisible by p.  x / p is correctly rounded, so it lies within
    |x / p| * 2^-53 < 1 / p of the true quotient.  ``rint`` therefore picks
    the integer nearest x / p unless x / p lies within 1 / p of a
    half-integer, which for odd p means x = +-(p +- 1) / 2 mod p; either
    neighbour then leaves |r| <= (p + 1) / 2.  The quotient times p equals
    x - r, below 2^53 in magnitude, so that product and the difference are
    exact.  Multiplying by a rounded 1 / p instead doubles the quotient's
    error and can leave |r| = (p + 3) / 2 for |x| near 2^53.
    """
    q = x / p
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _residue_stack(slots: list) -> np.ndarray:
    """Symmetric residues of one (S, n, n) float64 stack: slot s holds M_s mod p_s.

    ``slots`` lists (M_s, p_s) for matrices of one dimension n.  Slots are
    filled one by one, so no temporary is larger than one n x n matrix.
    """
    n = slots[0][0].shape[0]
    h = np.empty((len(slots), n, n))
    buf = np.empty((n, n), dtype=np.int64)
    for hs, (m, p) in zip(h, slots):
        hs[...] = np.remainder(m, p, out=buf)
        _reduce(hs, p)
    return h


def _hessenberg_stack(h: np.ndarray, primes: list) -> np.ndarray:
    """Upper Hessenberg forms of a residue stack, in place: slot s modulo primes[s].

    Column j is cleared by the Gauss transform L = I + u e_{j+1}^T, where u
    holds the multipliers below row j + 1: H <- L^-1 H L.  Within a panel of
    up to ``_PANEL`` columns the transforms are kept, not applied: after t of
    them the current matrix is H = h + c E^T - u r, with h the matrix at the
    start of the panel, E the unit columns e_{j+1} of the steps so far, r
    their pivot rows and c = h u - u (r u) their updated columns.  A step
    forms only its column j and pivot row of H, and costs one stacked gemv
    ``h @ u``; the end of the panel applies all of them with one stacked gemm
    and one ``_reduce``.  Every sum has at most n + _PANEL products of
    residues (c is left unreduced), which ``_prime_ceiling`` keeps exact.

    The pivot is the first nonzero entry of the column, per slot: slots
    whose pivot is not already in place swap its row and column in.  Slots
    are independent, so they may hold different matrices and repeat primes.
    """
    count, n = h.shape[0], h.shape[1]
    p3 = np.array(primes, dtype=np.float64)[:, None, None]
    p2 = p3[:, :, 0]
    # Every panel reuses these buffers, through contiguous views of its width.
    buf_u, buf_c, buf_r = (np.empty(count * n * min(_PANEL, n)) for _ in range(3))
    for j0 in range(0, n - 2, _PANEL):
        w = min(_PANEL, n - 2 - j0)
        u = buf_u[: count * n * w].reshape(count, n, w)
        c = buf_c[: count * n * w].reshape(count, n, w)
        r = buf_r[: count * w * n].reshape(count, w, n)
        u.fill(0)  # c is written column by column before it is read; u and r start at 0
        r.fill(0)
        for t in range(w):
            j = j0 + t
            col = h[:, j + 1 :, j] - (u[:, j + 1 :, :t] @ r[:, :t, j, None])[:, :, 0]
            if t:
                col += c[:, j + 1 :, t - 1]
            _reduce(col, p2)
            first = (col != 0).argmax(axis=1)  # 0 also when the column is zero
            q = np.flatnonzero(first)
            if q.size:
                f, k = first[q], j + 1 + first[q]
                for x in (h, c, u):
                    x[q, j + 1], x[q, k] = x[q, k], x[q, j + 1]
                for x in (h, r):
                    x[q, :, j + 1], x[q, :, k] = x[q, :, k], x[q, :, j + 1]
                col[q, 0], col[q, f] = col[q, f], col[q, 0]
            r[:, t, j] = col[:, 0]
            row = h[:, j + 1, j + 1 :] - (u[:, j + 1, None, :t] @ r[:, :t, j + 1 :])[:, 0]
            r[:, t, j + 1 :] = _reduce(row, p2)
            # A zero pivot means a zero column: no transform, u stays 0.
            inv = [pow(int(x), -1, p) if x else 0 for x, p in zip(col[:, 0].tolist(), primes)]
            mult = _reduce(col[:, 1:, None] * np.array(inv, dtype=np.float64)[:, None, None], p3)
            u[:, j + 2 :, t] = mult[:, :, 0]
            ru = _reduce(r[:, : t + 1, j + 2 :] @ mult, p3)
            c[:, :, t] = (h[:, :, j + 2 :] @ mult - u[:, :, : t + 1] @ ru)[:, :, 0]
        h[:, :, j0 + 1 : j0 + 1 + w] += c
        for hs, us, rs, ps in zip(h, u, r, p3):  # slot by slot: temporaries of one n x n matrix
            hs[j0 + 2 :, j0:] -= us[j0 + 2 :] @ rs[:, j0:]
            _reduce(hs[:, j0:], ps)
    return h


def _charpoly_stack(h: np.ndarray, primes: list) -> np.ndarray:
    """Coefficients (ascending) of det(tI - H) modulo each prime, one row per prime.

    The Hessenberg determinant recurrence: with p_i the char poly of the
    leading i x i block,
    p_i = (t - H[i-1, i-1]) p_{i-1} - sum_{m >= 1} H[i-1-m, i-1] beta_m p_{i-1-m},
    where beta_m is the product of the m subdiagonal entries between.
    """
    count, n = h.shape[0], h.shape[1]
    p2 = np.array(primes, dtype=np.float64)[:, None]
    polys = np.zeros((count, n + 1, n + 1))  # polys[:, n - i] holds p_i, so p_{i-1}..p_0 are contiguous
    polys[:, n, 0] = 1
    beta = np.ones((count, n))
    for i in range(1, n + 1):
        if i > 1:
            beta[:, 1:i] = _reduce(h[:, i - 1, i - 2, None] * beta[:, : i - 1], p2)
        weights = _reduce(h[:, i - 1 :: -1, i - 1] * beta[:, :i], p2)
        cur = polys[:, n - i, : i + 1]
        cur[:, 1:] = polys[:, n - i + 1, :i]
        cur[:, :i] -= (weights[:, None, :] @ polys[:, n - i + 1 :, :i])[:, 0]
        _reduce(cur, p2)
    return polys[:, 0].copy()  # not a view, which would keep all of polys alive


def char_polys(matrices: Iterable[np.ndarray]) -> list:
    """Exact char polys det(tI - M) of several matrices, in order, from one kernel pass per size."""
    return _char_polys([_int64_square(m)[0] for m in matrices])


def _char_polys(ms: list) -> list:
    """The engine of ``char_polys`` and ``modular_charpoly``, on checked int64 matrices.

    Each matrix tries the permutation route (``_permutation_route``), the
    trace route (``_trace_route``), then the minimal-polynomial route
    (``_minpoly_route``), each given its ``_row_col_bound``, computed once.
    Each one that falls back gets its own prime plan, as if alone.  Every
    (matrix, prime) slot of one dimension goes into the same residue stacks
    (``_kernel``), so matrices of one size share the kernel's fixed per-step
    cost; one CRT step per matrix then recombines its own slots.
    """
    out: list = [CharPoly((1,))] * len(ms)
    for n, members in _by_dim(ms).items():
        reasons = {}  # _minpoly_route's reason (None when it succeeds) for each matrix it is given
        for i in members:
            r = _row_col_bound(ms[i])
            out[i] = _permutation_route(ms[i], r)
            if out[i] is None:
                out[i] = _trace_route(ms[i], r)
            if out[i] is None:
                out[i], reasons[i] = _minpoly_route(ms[i], r)
        members = [i for i, reason in reasons.items() if reason]
        if not members:
            continue
        start = perf_counter()
        bits = {i: _coefficient_bound_bits(ms[i]) + 12 for i in members}  # guard bits
        plans = {i: _plan_primes(n, bits[i]) for i in members}
        residues = _kernel([(ms[i], p) for i in members for p in plans[i]])
        residues = residues.astype(np.int64).astype(object)
        at = 0
        for i in members:
            primes = plans[i]
            out[i] = _crt(residues[at : at + len(primes)], primes)
            at += len(primes)
        if log.isEnabledFor(logging.DEBUG):
            pass_ms = (perf_counter() - start) * 1e3
            for i in members:
                log.debug(
                    "charpoly route=hessenberg reason=%s n=%d primes=%d bound_bits=%.0f"
                    " actual_bits=%d pass_matrices=%d pass_ms=%.1f",
                    reasons[i], n, len(plans[i]), bits[i],
                    max(abs(c).bit_length() for c in out[i].coeffs), len(members), pass_ms,
                )
    return out


# ---------------------------------------------------------------------------
# The permutation, trace and minimal-polynomial routes (see the module docstring)
# ---------------------------------------------------------------------------

_KRYLOV_SEED = 2005  # seeds the Krylov vectors u, v of ``_krylov_relation``
_KRYLOV_MARGIN = 2  # terms past 2L for which Berlekamp-Massey must keep its length L before it stops


def _row_col_bound(m: np.ndarray) -> int:
    """r, the larger of M's largest absolute row and column sums, or 2^53 if an entry reaches 2^27.

    r bounds every |eigenvalue| and every entry of M^i, r^i, and every partial
    sum forming it.  An entry of 2^27 makes r^2 >= 2^53 anyway; smaller ones
    keep these int64 sums exact.
    """
    a = np.abs(m)
    return max(int(a.sum(axis=0).max()), int(a.sum(axis=1).max())) if a.max() < 1 << 27 else _FLOAT_EXACT


def _permutation_route(m: np.ndarray, r: int) -> CharPoly | None:
    """det(tI - M) of a signed partial permutation matrix from its cycles, or None unless r <= 1.

    r <= 1 leaves at most one nonzero entry, +-1, in each row and column, so
    i -> (the column of row i's nonzero) is injective: a walk along it from
    an index not yet seen ends in a zero row, in an index seen on an earlier
    walk (a chain, since no walk enters a cycle from outside), or back at
    its start (a cycle).  A cycle of length L whose entries multiply to s
    contributes t^L - s, and every index on a chain contributes t.  The c
    equal factors of one (L, s) are expanded at once by the binomial theorem,
    and the distinct ones, at most 2 sqrt(2n) since distinct lengths sum to
    at most n, are multiplied by Kronecker products (``poly_mul``), so an
    n-cycle and the n x n identity both stay near-linear in n.
    """
    if r > 1:
        return None
    start = perf_counter()
    n = m.shape[0]
    cols = np.abs(m).argmax(axis=1)
    sign = m[np.arange(n), cols].tolist()  # 0 on a zero row
    succ = [j if s else -1 for j, s in zip(cols.tolist(), sign)]
    seen, chained, cycles = [False] * n, 0, {}  # cycles: (L, s) -> how many
    for i in range(n):
        if seen[i]:
            continue
        j, length, s = i, 0, 1
        while j >= 0 and not seen[j]:
            seen[j], length, s, j = True, length + 1, s * sign[j], succ[j]
        if j == i:
            cycles[length, s] = cycles.get((length, s), 0) + 1
        else:
            chained += length
    product = [1]
    for (length, s), c in cycles.items():  # times (t^L - s)^c
        f = [0] * (length * c + 1)
        for e in range(c + 1):
            f[length * e] = math.comb(c, e) * (-s) ** (c - e)
        product = poly_mul(product, f)
    chi = CharPoly(tuple([0] * chained + product))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("charpoly route=permutation n=%d cycles=%d ms=%.1f", n, sum(cycles.values()),
                  (perf_counter() - start) * 1e3)
    return chi


def _trace_route(m: np.ndarray, r: int) -> CharPoly | None:
    """det(tI - M) from the exact traces of M, ..., M^n by Newton's identities, or None.

    The route needs r^n < 2^53 (r from ``_row_col_bound``), so every power up
    to M^n is exact in float64 (``_powers``).  ``_char_polys`` gives it only
    matrices with r >= 2, which caps n at 52, so the chain is at most 52
    small products.  Newton's identities are ``_charpoly_from_traces`` with
    rho = 1 (mu = t^(n+1)): Cayley-Hamilton makes the n + 1 traces enough, so
    no prime, mu or certificate is needed.
    """
    n = m.shape[0]
    if r**n >= _FLOAT_EXACT:
        return None
    start = perf_counter()
    diagonals = np.array([np.diagonal(power) for power in _powers(m.astype(np.float64), n)])
    # summed in int64, not float64: tr(M^n) may pass 2^53, but n r^n < 2^59
    traces = diagonals.astype(np.int64).sum(axis=1).tolist()
    chi = _charpoly_from_traces([0] * (n + 1) + [1], traces, n)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("charpoly route=traces n=%d ms=%.1f", n, (perf_counter() - start) * 1e3)
    return chi


def _powers(mf: np.ndarray, d: int):
    """M^0, M^1, ..., M^d of the float64 matrix mf, by a chain of products.

    Exact whenever r^d < 2^53: r^i bounds every entry of M^i and every
    partial sum forming it (``_row_col_bound``).
    """
    power = np.eye(mf.shape[0])
    yield power
    for i in range(1, d + 1):
        power = mf if i == 1 else mf @ power
        yield power


def _minpoly_route(m: np.ndarray, r: int) -> tuple:
    """(det(tI - M), None) by the minimal-polynomial route, or (None, "degree" | "bound" | "certificate").

    With r from ``_row_col_bound``, the Krylov degree d may reach neither
    2d > n ("degree") nor r^d >= 2^52 ("bound").  The route forms no power
    past M^d: ``_certify_minpoly``'s chain stops at M^d and ``_kills_vector``'s
    vectors at M^d v, so every entry and partial sum is at most r^d < 2^52.
    That is exact in float64, and within the |x| <= 2^53 - p that ``_reduce``
    needs, since every prime is far below 2^52.
    """
    start = perf_counter()
    n = m.shape[0]
    cap = 0  # the largest degree the loop may reach
    while cap < n // 2 and r ** (cap + 1) < _FLOAT_EXACT // 2:
        cap += 1
    primes = _primes(1, _prime_ceiling(n))
    rel, terms = _krylov_relation(_residues(m, r, primes[0]), primes[0], cap) if cap else (None, 0)
    if rel is None:
        return None, "degree" if cap == n // 2 else "bound"
    d, rels = len(rel) - 1, [rel]
    bound_bits = d * math.log2(r + 1)  # |mu_i| <= C(d, i) r^(d - i) <= (1 + r)^d
    mu = list(_crt(np.array(rels, dtype=object), primes).coeffs)
    # the one-prime lift may be wrong only if the bound asks for more primes (``_plan_primes``)
    traces, cert_primes = _certify_minpoly(m, mu, r, bound_bits + 1 >= math.log2(primes[0]))
    if traces is None:  # the one-prime lift is wrong once some |mu_i| reaches half the prime
        primes = _plan_primes(n, bound_bits)
        for p in primes[1:]:
            rel, more = _krylov_relation(_residues(m, r, p), p, d)
            terms += more
            if rel is None or len(rel) != d + 1:
                return None, "certificate"
            rels.append(rel)
        if len(primes) > 1:
            mu = list(_crt(np.array(rels, dtype=object), primes).coeffs)
            traces, cert_primes = _certify_minpoly(m, mu, r)
    if traces is None:
        return None, "certificate"
    chi = _charpoly_from_traces(mu, traces, n)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("charpoly route=minpoly n=%d krylov_degree=%d krylov_terms=%d mu_primes=%d"
                  " cert_primes=%d bound_bits=%.0f ms=%.1f", n, d, terms, len(primes), cert_primes,
                  bound_bits, (perf_counter() - start) * 1e3)
    return chi, None


def _residues(m: np.ndarray, r: int, p: int) -> np.ndarray:
    """M's symmetric residues modulo p, as float64: M itself when 2r < p, since every |M_ij| <= r."""
    return m.astype(np.float64) if 2 * r < p else _residue_stack([(m, p)])[0]


def _krylov_relation(mq: np.ndarray, q: int, cap: int) -> tuple:
    """(mu, terms): mu the minimal polynomial mod q (monic, ascending) of s_i = u^T M^i v, or None.

    ``mq`` holds M's symmetric residues.  Berlekamp-Massey reads s_0, s_1, ...
    online, from Krylov vectors formed in doubling blocks, and stops once its
    length L has held for ``_KRYLOV_MARGIN`` terms past 2L (Kaltofen-Lee,
    J. Symb. Comp. 36, 2003), or once L passes ``cap`` (mu None); ``terms``
    counts the terms read.  An early stop can only give a wrong mu, which the
    certificate rejects.  Every float64 sum has at most n products of
    residues, exact below ``_prime_ceiling(n)``.
    """
    n = mq.shape[0]
    most = cap + _KRYLOV_MARGIN // 2  # vectors that give s_0, ..., s_(2 cap + margin - 1)
    vecs = np.empty((most + 1, 2, n))  # vecs[i] = (M^i v, (M^T)^i u): s_(i+j) = vecs[i, 1] . vecs[j, 0]
    # u and v: the top 20 bits of splitmix64 of 0, ..., 2n - 1
    vecs[0] = _reduce((_splitmix(2 * n, _KRYLOV_SEED) >> np.uint64(44)).astype(np.float64).reshape(2, n), q)
    seq, top = [], 0  # s_0, s_1, ... in [0, q) as Python ints, from vecs[: top + 1]
    # Berlekamp-Massey on Python ints: the connection polynomial c has degree at most length < len(c)
    c, b, length, gap, inv, i = [1], [1], 0, 1, 1, 0
    while length <= cap and i < 2 * length + _KRYLOV_MARGIN:
        if i == len(seq):  # form the next block of vectors, and the terms they give
            new = min(max(2 * top, 4), most)
            for t in range(top, new):
                np.matmul(mq, vecs[t, 0], out=vecs[t + 1, 0])
                np.matmul(vecs[t, 1], mq, out=vecs[t + 1, 1])
                _reduce(vecs[t + 1], q)
            k = np.arange(len(seq), 2 * new + 1)
            s = np.einsum("ij,ij->i", vecs[k // 2, 1], vecs[(k + 1) // 2, 0])
            seq += np.mod(_reduce(s, q), q).astype(np.int64).tolist()
            top = new
        d = sum(map(mul, c, seq[i::-1])) % q
        if d:  # c <- c - d / d_b t^gap b, with d_b = 1 / inv the discrepancy when b was c
            scale, by, shift = d * inv % q, b, gap
            if 2 * length <= i:  # the length grows: the old c becomes b
                b, length, inv, gap = c[:], i + 1 - length, pow(d, -1, q), 0
            c += [0] * (shift + len(by) - len(c))
            for j, y in enumerate(by, shift):
                c[j] = (c[j] - scale * y) % q
        gap += 1
        i += 1
    return (c[length::-1] if length <= cap else None), i


def _splitmix(count: int, seed: int) -> np.ndarray:
    """splitmix64 of seed + 0, ..., count - 1 as uint64 (importing numpy.random costs 6 MB)."""
    x = np.arange(count, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _certify_minpoly(m: np.ndarray, mu: list, r: int, screen: bool = False) -> tuple:
    """(traces, primes): traces [tr(M^0), ..., tr(M^d)] if mu(M) = 0 exactly, else None.

    M^i and every partial sum forming it are at most r^i <= r^d < 2^52, so
    exact in float64 and fit for ``_reduce``.  So are mu(M) and its partial
    sums while their bound B = sum |mu_i| r^i is below 2^53 (``primes`` 0).
    Above it, mu(M) is zero if it is zero modulo primes whose product
    exceeds 2B.  A power at most (p - 1) / 2 is its own residue, a larger one
    is reduced once, and the accumulator, d + 1 < ``_sum_terms(n)`` products
    of residues, at the end.  With ``screen``, ``_kills_vector`` runs first:
    it rejects a wrong mu, such as a wrong one-prime lift, by d
    matrix-vector products instead of d matrix products.
    """
    n = m.shape[0]
    bound = sum(abs(c) * r**i for i, c in enumerate(mu))
    primes = _plan_primes(n, bound.bit_length()) if bound >= _FLOAT_EXACT else []
    mf = m.astype(np.float64)
    if screen and not _kills_vector(mf, mu, primes):
        return None, len(primes)
    if primes:
        q3 = np.array(primes, dtype=np.float64)[:, None, None]
        coef = _reduce(np.array([[c % q for c in mu] for q in primes], dtype=np.float64), q3[:, :, 0]).T
        coef, acc = coef[:, :, None, None], np.zeros((len(primes), n, n))
    else:
        coef, acc = [float(c) for c in mu], np.zeros((n, n))
    traces = []
    for i, (c, power) in enumerate(zip(coef, _powers(mf, len(mu) - 1))):
        traces.append(sum(np.diagonal(power).astype(np.int64).tolist()))  # as Python ints: n may be large
        if primes and 2 * r**i >= primes[-1]:  # reduced once, into a stack of its residues
            acc += c * _reduce(np.broadcast_to(power, acc.shape).copy(), q3)
        else:
            acc += c * power
    if primes:
        _reduce(acc, q3)
    return None if acc.any() else traces, len(primes)


def _kills_vector(mf: np.ndarray, mu: list, primes: list) -> bool:
    """Whether mu(M) v = 0, exactly, for one pseudo-random 0/1 vector v: a necessary condition for mu(M) = 0.

    The Krylov vectors M^i v are exact in float64, as the powers of
    ``_certify_minpoly`` are, and mu(M) v is bounded by the same B.  So it is
    one float64 product without ``primes``, and with them one product of the
    vectors' residues per prime, d + 1 < ``_sum_terms(n)`` terms a sum.
    """
    n, d = mf.shape[0], len(mu) - 1
    k = np.empty((d + 1, n))
    k[0] = _splitmix(n, _KRYLOV_SEED + 1) >> np.uint64(63)
    for i in range(d):
        np.matmul(mf, k[i], out=k[i + 1])
    if not primes:
        return not (np.array(mu, dtype=np.float64) @ k).any()
    q = np.array(primes, dtype=np.float64)
    coef = _reduce(np.array([[c % p for c in mu] for p in primes], dtype=np.float64), q[:, None])
    residues = _reduce(np.broadcast_to(k, (len(primes), d + 1, n)).copy(), q[:, None, None])
    return not _reduce(np.einsum("pi,pin->pn", coef, residues), q[:, None]).any()


def _charpoly_from_traces(mu: list, traces: list, n: int) -> CharPoly:
    """det(tI - M) of an n x n M from mu, monic of degree d with mu(M) = 0, and traces[i] = tr(M^i).

    Only p_i = traces[i], i < d, are read.  mu(M) = 0 gives tr(M^i mu(M)) = 0
    for every i, so sum_i p_i t^i = A / rho, with rho(t) = t^d mu(1/t)
    (rho_0 = 1) and A = (p_0 + ... + p_(d-1) t^(d-1)) rho cut below t^d.
    E(t) = det(I - tM) then has t E'/E = -sum_(i>=1) p_i t^i = C / rho, with
    C = p_0 rho - A and C_0 = 0, so e_0 = 1 and
    k e_k = sum_(j=1..min(d,k)) (C_j - (k - j) rho_j) e_(k-j).  The division
    by k is exact for the true traces; a remainder raises ``ArithmeticError``.
    det(tI - M) is e reversed.

    rho's trailing zeros (mu divisible by t) are dropped, so every sum runs
    over rho's true degree.  mu = t^d with d > n gives rho = 1 whatever M is:
    C is then -sum_(i=1..d-1) p_i t^i, the series itself up to t^n, and the
    recurrence is Newton's identities k e_k = -sum_(i<=k) p_i e_(k-i).
    """
    d = len(mu) - 1
    rho = mu[::-1]
    while not rho[-1]:
        rho.pop()
    c = [traces[0] * x for x in rho] + [0] * (d + 1 - len(rho))
    for k in range(d):
        c[k] -= sum(map(mul, traces[k::-1], rho))
    a = c[1:]  # a_j - k rho_j = C_j - (k - j) rho_j
    for j in range(1, len(rho)):
        a[j - 1] += j * rho[j]
    e, rho = [1], rho[1:]
    for k in range(1, n + 1):
        back = e[: -d - 1 : -1]  # e_(k-1), ..., e_(k-min(d,k))
        q, rest = divmod(sum(map(mul, a, back)) - k * sum(map(mul, rho, back)), k)
        if rest:
            raise ArithmeticError(f"traces inconsistent with the minimal polynomial at t^{k}")
        e.append(q)
    return CharPoly(tuple(e[::-1]))


def _by_dim(ms: list) -> dict:
    """Indices of the nonempty matrices, by dimension, in order of first appearance."""
    by_dim: dict = {}
    for i, m in enumerate(ms):
        if m.shape[0]:
            by_dim.setdefault(m.shape[0], []).append(i)
    return by_dim


def _stack_slots(n: int) -> int:
    """Residues of dimension n one stack holds: as many as fit in ``_STACK_BYTES``, at least one."""
    return max(1, _STACK_BYTES // (8 * (n + 1) ** 2))


def _kernel(slots: list) -> np.ndarray:
    """Symmetric residues of det(tI - M_s) mod p_s, one row per (M_s, p_s) slot of one dimension.

    The slots run through the kernel in stacks of ``_stack_slots(n)``, so its
    memory stays bounded however many slots there are.
    """
    step = _stack_slots(slots[0][0].shape[0])
    parts = []
    for s in range(0, len(slots), step):
        group = slots[s : s + step]
        primes = [p for _, p in group]
        parts.append(_charpoly_stack(_hessenberg_stack(_residue_stack(group), primes), primes))
    return np.concatenate(parts)


def _plan_primes(n: int, bits: float) -> list:
    """The largest primes below ``_prime_ceiling(n)`` whose product exceeds 2^(bits + 1)."""
    ceiling = _prime_ceiling(n)
    primes: list = []
    while sum(map(math.log2, primes)) <= bits + 1:
        primes = _primes(len(primes) + 1, ceiling)
    assert _sum_terms(n) * ((primes[0] + 1) // 2) ** 2 < _FLOAT_EXACT, "float64 sums could round"
    return primes


def _crt(residues: np.ndarray, primes: list) -> CharPoly:
    """The char poly whose coefficients have the given residues, one row per prime.

    e_p = 1 mod p and 0 mod every other prime, so sum e_p r_p is the
    coefficient mod M, lifted to the symmetric range (-M/2, M/2].
    """
    big_m = math.prod(primes)
    basis = np.array([big_m // p * pow(big_m // p, -1, p) for p in primes], dtype=object)
    return CharPoly(tuple(c - big_m if c > big_m // 2 else c for c in (basis @ residues) % big_m))


def modular_charpoly(m: np.ndarray) -> CharPoly:
    """char poly det(tI - M) via CRT over word-sized primes, exact: ``char_polys`` of one matrix."""
    return _char_polys([_int64_square(m)[0]])[0]


def char_poly(m: np.ndarray) -> CharPoly:
    """Exact characteristic polynomial det(tI - M), monic, integer coefficients."""
    return modular_charpoly(m)


def _int64_square(m: np.ndarray) -> tuple:
    """``_int64(m)`` and its dimension; ValueError unless it is square."""
    m = _int64(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix not square: {m.shape}")
    return m, m.shape[0]
