"""Dense exact integer matrices and division-free characteristic polynomials.

One representation rule holds throughout: an exact matrix is an ``int64``
array when its entries are known to lie below ``_INT64_SAFE = 2^62`` in
magnitude, and an ``object`` array of Python ints otherwise.  The
constructors check the entries; ``mat_mul`` checks an a-priori bound on the
product (the inner dimension times the largest entries of both factors), runs
int64 ``@`` below it and exact object ``np.dot`` above it, so nothing ever
wraps silently.  The arc and walk matrices of this package are therefore all
int64.  Object ints remain only where big integers really arise: user input
at or above 2^62, the Berkowitz recurrence, Bareiss elimination and the CRT
recombination.  Every function accepts either representation.

``char_poly`` has one exact engine, ``modular_charpoly``: Hessenberg
reduction and the Hessenberg determinant recurrence modulo word-sized primes,
recombined by one CRT step.  The primes are taken, largest first, until their
product exceeds 2^(B+1), with B a rigorous Hadamard-style coefficient bound
plus guard bits, so the result is exact, not probabilistic; they are capped
from the dimension so no int64 dot product in the kernels can wrap.

``berkowitz_charpoly``, the division-free Berkowitz algorithm over the
integers (O(n^4)), is not on any product path: it is the independent
reference the tests compare ``char_poly`` against.
"""

from __future__ import annotations

import math
import threading
from operator import index
from typing import Iterable

import numpy as np

from .polynomials import CharPoly

_INT64_SAFE = 1 << 62


def int_matrix(rows: Iterable[Iterable[int]]) -> np.ndarray:
    """Build an exact integer matrix from nested iterables.

    Entries must be integral (floats are rejected, not truncated).  The
    result is int64 when every entry is below 2^62 in magnitude, object
    otherwise.
    """
    data = [[index(x) for x in row] for row in rows]
    cols = len(data[0]) if data else 0
    if any(len(row) != cols for row in data):
        raise ValueError("ragged rows")
    big = any(abs(x) >= _INT64_SAFE for row in data for x in row)
    return np.array(data, dtype=object if big else np.int64).reshape(len(data), cols)


def int_zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def int_eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def _max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min()))


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact matrix product: int64 when a bound proves it fits, object otherwise."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if a.shape[1] * _max_abs(a) * _max_abs(b) < _INT64_SAFE:
        return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return np.dot(a.astype(object), b.astype(object))


def mat_pow(a: np.ndarray, e: int) -> np.ndarray:
    """Exact e-th power of a square matrix, e >= 1."""
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix not square: {a.shape}")
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    out = a
    for _ in range(e - 1):
        out = mat_mul(out, a)
    return out


def positive_support(m: np.ndarray) -> np.ndarray:
    """0/1 int64 matrix marking the strictly positive entries of m."""
    return (m > 0).astype(np.int64)


def mat_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a, b))


def mat_trace(a: np.ndarray) -> int:
    return sum(int(x) for x in a.diagonal())


def format_matrix(a: np.ndarray) -> str:
    """Debug text format: one row per line, entries space-separated."""
    return "\n".join(" ".join(str(x) for x in row) for row in a)


# ---------------------------------------------------------------------------
# Berkowitz (division-free, arbitrary precision)
# ---------------------------------------------------------------------------


def berkowitz_charpoly(m: np.ndarray) -> CharPoly:
    """char poly det(tI - M) by the Berkowitz algorithm, exact over Z.

    The reference that tests compare ``char_poly`` against; no product path
    calls it.
    """
    n = _require_square(m)
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


# ---------------------------------------------------------------------------
# Bareiss fraction-free determinant (independent cross-check oracle)
# ---------------------------------------------------------------------------


def bareiss_determinant(m: np.ndarray) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = _require_square(m)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
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
# Modular charpoly: Hessenberg mod p + CRT, exact via Hadamard bound
# ---------------------------------------------------------------------------

_PRIME_CEILING = (1 << 26) - 1
_INT64_MAX = (1 << 63) - 1
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


def _prime_ceiling(n: int) -> int:
    """Odd bound on the CRT primes for an n x n matrix, so no int64 kernel can wrap.

    The Hessenberg update and the determinant recurrence each sum fewer than
    n products of residues below p, so n * (p - 1)^2 <= 2^63 - 1 suffices.
    Up to n = 2048 this is the fixed 2^26 - 1; larger matrices get smaller primes.
    """
    c = min(_PRIME_CEILING, math.isqrt(_INT64_MAX // max(n, 1)) + 1)
    return c if c % 2 else c - 1


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
    a = m.astype(object)
    row_sq = np.maximum((a * a).sum(axis=1), 1)
    half_logs = sorted((0.5 * math.log2(int(r)) for r in row_sq), reverse=True)
    acc = 0.0
    best = 0.0
    for i in range(1, n + 1):
        acc += half_logs[i - 1]
        log_binom = (
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        ) / math.log(2)
        best = max(best, log_binom + acc)
    return best


def _hessenberg_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Reduce to upper Hessenberg form mod p by a similarity transform."""
    h = np.mod(a, p).astype(np.int64)  # a may be int64 or object
    n = h.shape[0]
    for j in range(n - 2):
        col = h[j + 1 :, j]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv], :] = h[[piv, j + 1], :]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        inv = pow(int(h[j + 1, j]), p - 2, p)
        if j + 2 < n:
            mults = (h[j + 2 :, j] * inv) % p
            # Row j + 1 is zero left of column j, and column j below it cancels.
            h[j + 2 :, j + 1 :] = (h[j + 2 :, j + 1 :] - np.outer(mults, h[j + 1, j + 1 :])) % p
            h[j + 2 :, j] = 0
            h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ mults) % p
    return h


def _charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Coefficients (ascending) of det(tI - A) mod p."""
    h = _hessenberg_mod(a, p)
    n = h.shape[0]
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    beta = np.zeros(0, dtype=np.int64)  # running subdiagonal products
    for i in range(1, n + 1):
        prev = polys[i - 1, :i]
        cur = np.zeros(i + 1, dtype=np.int64)
        cur[1:] = prev
        cur[:i] = (cur[:i] - h[i - 1, i - 1] * prev) % p
        if i >= 2:
            sub = int(h[i - 1, i - 2])
            grown = np.empty(i - 1, dtype=np.int64)
            grown[0] = sub
            if i > 2:
                grown[1:] = (sub * beta) % p
            beta = grown
            # weight for p_{i-1-j} is H[i-1-j, i-1] * prod of subdiagonals
            w = (h[i - 2 :: -1, i - 1] * beta) % p
            contrib = (w @ polys[i - 2 :: -1, :i]) % p
            cur[:i] = (cur[:i] - contrib) % p
        polys[i, : i + 1] = cur % p
    return polys[n]


def modular_charpoly(m: np.ndarray) -> CharPoly:
    """char poly det(tI - M) via CRT over word-sized primes, exact."""
    n = _require_square(m)
    if n == 0:
        return CharPoly((1,))
    bits = _coefficient_bound_bits(m) + 12  # guard bits
    ceiling = _prime_ceiling(n)
    primes: list = []
    while sum(map(math.log2, primes)) <= bits + 1:
        primes = _primes(len(primes) + 1, ceiling)
    assert n * (primes[0] - 1) ** 2 <= _INT64_MAX, "int64 dot products could wrap"

    residues = np.stack([_charpoly_mod(m, p) for p in primes]).astype(object)

    # CRT: e_p = 1 mod p and 0 mod every other prime, so sum e_p r_p is the
    # coefficient mod M, lifted to the symmetric range (-M/2, M/2].
    big_m = math.prod(primes)
    basis = np.array([big_m // p * pow(big_m // p, -1, p) for p in primes], dtype=object)
    coeffs = (basis @ residues) % big_m
    return CharPoly(tuple(c - big_m if c > big_m // 2 else c for c in coeffs))


def char_poly(m: np.ndarray) -> CharPoly:
    """Exact characteristic polynomial det(tI - M), monic, integer coefficients."""
    return modular_charpoly(m)


def _require_square(m: np.ndarray) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix not square: {m.shape}")
    return m.shape[0]
