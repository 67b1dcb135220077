"""Exact integer polynomial arithmetic and characteristic-polynomial values.

Polynomials are lists of Python ints in ascending order: ``p[i]`` is the
coefficient of ``t^i``.  ``CharPoly`` wraps the coefficient vector of a monic
characteristic polynomial; it is the exact cospectrality certificate, so its
JSON form keeps coefficients as decimal strings (arbitrary precision survives
JSON round trips).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivisibilityError


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial; coeffs[i] multiplies t^i."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, t0: int) -> int:
        """Exact value at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t0 + c
        return acc

    def to_json_list(self) -> list:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        terms = []  # never empty: the leading coefficient is 1
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append(("- " if c < 0 else "+ ") + body)
        head = terms[0].replace("+ ", "").replace("- ", "-")
        return " ".join([head] + terms[1:])


# ---------------------------------------------------------------------------
# plain list-of-int polynomial helpers (ascending coefficients)
# ---------------------------------------------------------------------------


def poly_trim(p: Sequence[int]) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_sub(p: Sequence[int], q: Sequence[int]) -> list:
    out = list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] -= c
    return poly_trim(out)


def poly_mul(p: Sequence[int], q: Sequence[int]) -> list:
    """p * q as one product of Python ints, their values at 2^B (Kronecker substitution)."""
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return []
    bits = _kron_bits(sum(map(abs, p)) * sum(map(abs, q)))
    return _kron_read(_kron_eval(p, bits) * _kron_eval(q, bits), len(p) + len(q) - 2, bits)


def poly_graeffe(p: Sequence[int]) -> list:
    """Graeffe root-squaring: the monic q whose roots are the squares of p's.

    For monic p of degree d, q(x^2) = (-1)^d p(x) p(-x); the product is even,
    so q is read off its even-index coefficients, exactly over Z.
    """
    p = poly_trim(p)
    d = len(p) - 1
    even = poly_mul(p, [(-1) ** i * c for i, c in enumerate(p)])
    assert not any(even[1::2]), "p(x)p(-x) must be even"
    return [(-1) ** d * c for c in even[0::2]]


def poly_divide_exact(p: Sequence[int], q: Sequence[int]) -> list:
    """Quotient p/q when q divides p exactly over Z, else DivisibilityError."""
    p, q = poly_trim(p), poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return []
    if len(p) < len(q):
        raise DivisibilityError("degree of dividend below divisor")
    rem = list(p)
    lead = q[-1]
    quot = [0] * (len(p) - len(q) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(q) - 1]
        if c % lead != 0:
            raise DivisibilityError("non-exact polynomial division")
        quot[i] = c // lead
        if quot[i]:
            for j, b in enumerate(q):
                rem[i + j] -= quot[i] * b
    if any(rem):
        raise DivisibilityError("non-exact polynomial division (remainder != 0)")
    return poly_trim(quot)


def poly_derivative(p: Sequence[int]) -> list:
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_primitive(p: Sequence[int]) -> list:
    p = poly_trim(p)
    if not p:
        return []
    c = math.gcd(*p)
    if p[-1] < 0:
        c = -c
    return [x // c for x in p]


def poly_gcd(p: Sequence[int], q: Sequence[int]) -> list:
    """Primitive gcd over Z via the primitive pseudo-remainder sequence."""
    a, b = poly_trim(p), poly_trim(q)
    if not a:
        return poly_primitive(b)
    if not b:
        return poly_primitive(a)
    if len(a) < len(b):
        a, b = b, a
    a, b = poly_primitive(a), poly_primitive(b)
    while True:
        delta = len(a) - len(b)
        # pseudo-remainder of lc(b)^(delta+1) * a by b
        rem = [x * b[-1] ** (delta + 1) for x in a]
        for i in range(len(rem) - len(b), -1, -1):
            factor, r = divmod(rem[i + len(b) - 1], b[-1])
            assert r == 0
            if factor:
                for j, c in enumerate(b):
                    rem[i + j] -= factor * c
        rem = poly_trim(rem)
        if not rem:
            return b
        a, b = b, poly_primitive(rem)
        if len(b) == 1:
            return [1]


def squarefree_decomposition(p: Sequence[int]) -> list:
    """Yun's algorithm: [(factor, multiplicity)] with factors squarefree.

    The product of factor^multiplicity recovers the primitive part of p.
    """
    p = poly_primitive(p)
    if len(p) <= 1:
        return []
    dp = poly_derivative(p)
    g = poly_gcd(p, dp)
    c = poly_divide_exact(p, g)
    d = poly_sub(poly_divide_exact(dp, g), poly_derivative(c))
    out = []
    mult = 1
    while len(c) > 1:
        a = poly_gcd(c, d)
        if len(a) > 1:
            out.append((a, mult))
        c = poly_divide_exact(c, a)
        d = poly_sub(poly_divide_exact(d, a), poly_derivative(c))
        mult += 1
    return out


def poly_roots(p: Sequence[int]) -> list:
    """Numeric root multiset of an integer polynomial.

    High-multiplicity roots make direct floating-point root extraction
    hopeless (perturbations of size eps scatter an m-fold root over a disc of
    radius eps^(1/m)), so the multiplicity structure is first resolved
    exactly by a squarefree decomposition; numpy then only ever sees simple,
    well-separated roots.
    """
    p = poly_trim(p)
    if len(p) <= 1:
        return []
    roots: list = []
    for factor, mult in squarefree_decomposition(p):
        vals = np.roots(np.array(factor[::-1], dtype=float))
        for v in vals:
            roots.extend([complex(v)] * mult)
    return roots


# Kronecker substitution: evaluation at t = 2^B is a ring map; a result whose coefficients lie
# below 2^(B-1) in magnitude reads back exactly as signed B-bit digits.  B comes from a bound on
# the result's 1-norm, never the inputs': ||fg||_1 <= ||f||_1 ||g||_1, ``_homogeneous`` at 1-norms.


def _kron_bits(bound: int) -> int:
    """The digit width B, in whole bytes, that holds every integer of magnitude <= bound signed."""
    return (bound.bit_length() + 8) // 8 * 8


def _kron_eval(p: Sequence[int], bits: int) -> int:
    """p(2^bits), for |p_i| < 2^bits: its positive and negative parts as two byte strings."""
    width = bits // 8
    pos = b"".join(max(c, 0).to_bytes(width, "little") for c in p)
    neg = b"".join(max(-c, 0).to_bytes(width, "little") for c in p)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kron_read(value: int, degree: int, bits: int) -> list:
    """c_0..c_degree of value = sum_i c_i 2^(bits*i), |c_i| < 2^(bits-1): one to_bytes, offset."""
    width = bits // 8
    half = 1 << (bits - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * (degree + 1), "little")
    raw = (value + offset).to_bytes(width * (degree + 1), "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]


def _homogeneous(p: Sequence[int], x: int, y: int) -> int:
    """sum_j p_j x^j y^(d-j), p of degree d: y^d p(x/y) at integers x, y, by Horner."""
    acc, y_pow = 0, 1
    for c in reversed(p):
        acc = acc * x + c * y_pow
        y_pow *= y
    return acc
