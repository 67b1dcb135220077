"""Positive supports of walk powers and their closed-form spectra.

For a connected k-regular graph (k >= 2) the support of the walk matrix is
the non-backtracking arc matrix B = outs^T ins - P, and its spectrum is a
function of the adjacency spectrum alone:

* k - 1, simple;
* the two roots of t^2 - lambda*t + (k-1) for each adjacency eigenvalue
  lambda != k, with lambda's multiplicity;
* +1 and -1 with multiplicities n(k-2)/2 + 1 and n(k-2)/2.

For k > 2 the support of the squared walk is B^2 + I, so its eigenvalues are
the images theta -> theta^2 + 1 of the list above.  At k = 2 the +I term
vanishes: the scaled walk matrix W equals k*B exactly (the backtracking
entries 2 - k are zero), so supports of walk powers are simply supports of
powers of B.

``closed_form_charpoly_su``/``_su2`` expand these eigenvalue lists into exact
integer polynomials without ever computing an individual eigenvalue: the
product over adjacency eigenvalues is a polynomial composition of the
adjacency characteristic polynomial.  Floating point appears only in the
report-oriented ``ClosedFormSpectrum``, never in an identity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .arcspace import (
    ArcSpace,
    build_arc_space,
    ins_matrix,
    outs_matrix,
    reversal_matrix,
    scaled_reflection_q,
    scaled_transition_matrix,
)
from .errors import HypothesisError, ValencyError
from .graphs import Graph, adjacency_matrix, is_connected, is_regular
from .intmat import char_poly, int_eye, mat_equal, mat_mul, mat_pow, positive_support
from .jacobi import symmetric_eigenvalues
from .polynomials import (
    CharPoly,
    poly_compose_homogeneous,
    poly_divide_exact,
    poly_graeffe,
    poly_mul,
    poly_pow,
    poly_roots,
)

EIGENVALUE_CLUSTER_TOL = 1e-6


def support_u(a: ArcSpace) -> np.ndarray:
    """S+(U) = outs^T ins - P: the non-backtracking arc matrix (k >= 2)."""
    if a.k < 2:
        raise ValencyError(f"support of the walk needs valency >= 2, got k={a.k}")
    return mat_mul(outs_matrix(a).T, ins_matrix(a)) - reversal_matrix(a)


def support_u_power(a: ArcSpace, m: int) -> np.ndarray:
    """S+(U^m) for m in {2, 3}, computed sign-exactly as the support of W^m."""
    if a.k < 2:
        raise ValencyError(f"support of the walk needs valency >= 2, got k={a.k}")
    if m not in (2, 3):
        raise ValueError(f"only powers 2 and 3 are supported, got {m}")
    return positive_support(mat_pow(scaled_transition_matrix(a), m))


def su2_via_identity(a: ArcSpace) -> np.ndarray:
    """S+(U)^2 + I, which equals S+(U^2) exactly when k > 2."""
    if a.k <= 2:
        raise HypothesisError(f"S+(U^2) = S+(U)^2 + I requires k > 2, got k={a.k}")
    b = support_u(a)
    return mat_mul(b, b) + int_eye(a.size)


@dataclass(frozen=True)
class SupportSet:
    """The three invariant matrices S+(U), S+(U^2), S+(U^3)."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray


def build_support_set(a: ArcSpace) -> SupportSet:
    if a.k < 2:
        raise ValencyError(f"support set needs valency >= 2, got k={a.k}")
    w = scaled_transition_matrix(a)
    w2 = mat_mul(w, w)
    return SupportSet(
        s1=support_u(a),
        s2=positive_support(w2),
        s3=positive_support(mat_mul(w2, w)),
    )


# ---------------------------------------------------------------------------
# Closed-form spectra (reporting / numeric view)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalEigenvalue:
    value: int
    multiplicity: int

    def numeric_values(self) -> list:
        return [complex(self.value)] * self.multiplicity

    def to_json(self) -> dict:
        return {
            "type": "rational",
            "value": self.value,
            "multiplicity": self.multiplicity,
        }


@dataclass(frozen=True)
class QuadraticPair:
    """The two roots of t^2 - root_sum*t + root_product, counted together.

    root_product is exact (an integer for the walk-support spectrum, where it
    always equals k - 1); root_sum may be irrational and is carried as a
    float in that case.  conjugate indicates a complex-conjugate pair; a
    degenerate discriminant (double real root) has conjugate False.
    """

    root_sum: float
    root_product: float
    multiplicity: int
    conjugate: bool

    def discriminant(self) -> float:
        return self.root_sum**2 - 4 * self.root_product

    def numeric_values(self) -> list:
        disc = complex(self.discriminant()) ** 0.5
        r1 = (self.root_sum + disc) / 2
        r2 = (self.root_sum - disc) / 2
        return [r1, r2] * self.multiplicity

    def to_json(self) -> dict:
        return {
            "type": "quadratic-pair",
            "root_sum": self.root_sum,
            "root_product": self.root_product,
            "multiplicity": self.multiplicity,
            "conjugate": self.conjugate,
        }


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Eigenvalue list of a walk-support matrix in closed form."""

    n: int
    k: int
    entries: tuple

    def total_multiplicity(self) -> int:
        total = 0
        for e in self.entries:
            total += e.multiplicity * (2 if isinstance(e, QuadraticPair) else 1)
        return total

    def numeric_values(self) -> list:
        vals: list = []
        for e in self.entries:
            vals.extend(e.numeric_values())
        return vals

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "entries": [e.to_json() for e in self.entries],
        }


def _snap_int(x: float, tol: float = EIGENVALUE_CLUSTER_TOL):
    r = round(x)
    return int(r) if abs(x - r) <= tol else float(x)


def _adjacency_eigenvalue_clusters(g: Graph) -> List[tuple]:
    """[(value, multiplicity)] for the adjacency spectrum, by Jacobi + clustering."""
    vals = symmetric_eigenvalues(adjacency_matrix(g))
    clusters: List[list] = []
    for v in vals:
        if clusters and abs(v - clusters[-1][-1]) <= EIGENVALUE_CLUSTER_TOL:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def _require_walk_hypotheses(g: Graph, min_k: int) -> int:
    k = is_regular(g)
    if k is None:
        raise HypothesisError("graph is not regular")
    if k < min_k:
        raise HypothesisError(f"valency k >= {min_k} required, got k={k}")
    if not is_connected(g):
        raise HypothesisError("graph is not connected")
    return k


def closed_form_spectrum_su(g: Graph) -> ClosedFormSpectrum:
    """Closed-form spectrum of S+(U) for a connected regular graph, k >= 2."""
    k = _require_walk_hypotheses(g, 2)
    n = g.n
    entries: list = [RationalEigenvalue(k - 1, 1)]
    clusters = _adjacency_eigenvalue_clusters(g)
    top_val, top_mult = clusters[-1]
    if abs(top_val - k) > EIGENVALUE_CLUSTER_TOL or top_mult != 1:
        raise HypothesisError("adjacency spectrum inconsistent with a connected regular graph")
    for lam, mult in clusters[:-1]:
        lam = _snap_int(lam)
        disc = lam * lam - 4 * (k - 1)
        entries.append(
            QuadraticPair(lam, k - 1, mult, bool(disc < -EIGENVALUE_CLUSTER_TOL))
        )
    plus = n * (k - 2) // 2 + 1
    minus = n * (k - 2) // 2
    entries.append(RationalEigenvalue(1, plus))
    if minus:
        entries.append(RationalEigenvalue(-1, minus))
    return ClosedFormSpectrum(n, k, tuple(entries))


def closed_form_spectrum_su2(g: Graph) -> ClosedFormSpectrum:
    """Closed-form spectrum of S+(U^2) for k > 2: the image theta -> theta^2 + 1."""
    _require_walk_hypotheses(g, 3)
    su = closed_form_spectrum_su(g)
    n, k = su.n, su.k
    entries: list = []
    two_mult = 0
    for e in su.entries:
        if isinstance(e, RationalEigenvalue):
            if e.value in (1, -1):
                two_mult += e.multiplicity
            else:
                entries.append(RationalEigenvalue(e.value**2 + 1, e.multiplicity))
        else:
            lam2 = e.root_sum**2
            entries.append(
                QuadraticPair(lam2 - 2 * k + 4, lam2 + (k - 2) ** 2, e.multiplicity, e.conjugate)
            )
    entries.append(RationalEigenvalue(2, two_mult))
    return ClosedFormSpectrum(n, k, tuple(entries))


# ---------------------------------------------------------------------------
# Exact closed-form characteristic polynomials (identity checks)
# ---------------------------------------------------------------------------


def _compose_quadratic(coeffs: Sequence[int], k: int) -> list:
    """sum_j c_j * t^(deg-j) * (t^2 + k - 1)^j for c_j the coefficient of x^j.

    This is t^deg * p((t^2 + k - 1)/t): the product of t^2 - lambda*t + (k-1)
    over the roots lambda of p, expanded exactly.
    """
    return poly_compose_homogeneous(coeffs, [k - 1, 0, 1], [0, 1])


def adjacency_charpoly(g: Graph) -> CharPoly:
    return char_poly(adjacency_matrix(g))


def closed_form_charpoly_su(g: Graph, cp_a: Optional[CharPoly] = None) -> CharPoly:
    """char poly of S+(U) built from the adjacency char poly, exactly.

    (t - (k-1)) * prod_{lambda != k} (t^2 - lambda t + (k-1))^{m_lambda}
                * (t - 1)^{n(k-2)/2 + 1} * (t + 1)^{n(k-2)/2}
    """
    k = _require_walk_hypotheses(g, 2)
    n = g.n
    if cp_a is None:
        cp_a = adjacency_charpoly(g)
    psi = poly_divide_exact(cp_a.coeffs, [-k, 1])  # k is a simple root: connected
    body = _compose_quadratic(psi, k)
    e = n * (k - 2) // 2
    rhs = poly_mul([-(k - 1), 1], body)
    rhs = poly_mul(rhs, poly_pow([-1, 1], e + 1))
    rhs = poly_mul(rhs, poly_pow([1, 1], e))
    return CharPoly(tuple(rhs))


def ihara_style_charpoly(g: Graph, cp_a: Optional[CharPoly] = None) -> CharPoly:
    """The factorized form of the non-backtracking char poly, expanded over Z.

    [sum_i a_i t^(n-i) (t^2 + k - 1)^i] * (t^2 - 1)^(n(k-2)/2), with a_i the
    adjacency char poly coefficients.
    """
    k = _require_walk_hypotheses(g, 2)
    if cp_a is None:
        cp_a = adjacency_charpoly(g)
    rhs = poly_mul(
        _compose_quadratic(cp_a.coeffs, k),
        poly_pow([-1, 0, 1], g.n * (k - 2) // 2),
    )
    return CharPoly(tuple(rhs))


def closed_form_charpoly_su2(g: Graph, cp_a: Optional[CharPoly] = None) -> CharPoly:
    """char poly of S+(U^2) for k > 2, from the adjacency char poly, exactly.

    Applies theta -> theta^2 + 1 to the closed-form S+(U) spectrum at the
    polynomial level.  Each adjacency eigenvalue family lambda != k maps to
    the monic quadratic with root sum lambda^2 - 2k + 4 and root product
    lambda^2 + (k-2)^2, i.e. (t+k-2)^2 - (t-1) lambda^2.  With q the Graeffe
    square of psi (the adjacency char poly without the x - k factor), whose
    roots are the lambda^2, their product is

        prod_{lambda != k} [(t+k-2)^2 - (t-1) lambda^2]
            = (t-1)^(n-1) q((t+k-2)^2 / (t-1)).
    """
    k = _require_walk_hypotheses(g, 3)
    n = g.n
    if cp_a is None:
        cp_a = adjacency_charpoly(g)
    psi = poly_divide_exact(cp_a.coeffs, [-k, 1])
    body = poly_compose_homogeneous(poly_graeffe(psi), poly_pow([k - 2, 1], 2), [-1, 1])
    rhs = poly_mul([-(k * k - 2 * k + 2), 1], body)
    rhs = poly_mul(rhs, poly_pow([-2, 1], n * (k - 2) + 1))
    return CharPoly(tuple(rhs))


# ---------------------------------------------------------------------------
# Exact identity suite over the arc matrices
# ---------------------------------------------------------------------------


def identity_suite(g: Graph) -> List[tuple]:
    """[(identity name, holds exactly)] for the arc-matrix identities.

    Covers the incidence/reversal/orthogonality identities of the walk
    construction plus, for k >= 2, the two support intertwining relations
    S+(U) ins^T = (k-1) outs^T and S+(U) outs^T = outs^T A - ins^T.
    """
    a = build_arc_space(g)
    k, nk = a.k, a.size
    ins = ins_matrix(a)
    outs = outs_matrix(a)
    p = reversal_matrix(a)
    w = scaled_transition_matrix(a)
    kq = scaled_reflection_q(a)
    adj = adjacency_matrix(g)
    eye_n = int_eye(g.n)
    eye_nk = int_eye(nk)
    checks = [
        ("ins*outs^T = A", mat_equal(mat_mul(ins, outs.T), adj)),
        ("outs*outs^T = kI", mat_equal(mat_mul(outs, outs.T), k * eye_n)),
        ("ins*ins^T = kI", mat_equal(mat_mul(ins, ins.T), k * eye_n)),
        ("P^2 = I", mat_equal(mat_mul(p, p), eye_nk)),
        ("P*ins^T = outs^T", mat_equal(mat_mul(p, ins.T), outs.T)),
        ("P*outs^T = ins^T", mat_equal(mat_mul(p, outs.T), ins.T)),
        ("W*W^T = k^2 I", mat_equal(mat_mul(w, w.T), k * k * eye_nk)),
        ("(kQ)^2 = k^2 I", mat_equal(mat_mul(kq, kq), k * k * eye_nk)),
    ]
    if k >= 2:
        s1 = support_u(a)
        checks.append(
            ("S+(U)*ins^T = (k-1)outs^T", mat_equal(mat_mul(s1, ins.T), (k - 1) * outs.T))
        )
        checks.append(
            (
                "S+(U)*outs^T = outs^T A - ins^T",
                mat_equal(mat_mul(s1, outs.T), mat_mul(outs.T, adj) - ins.T),
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Numeric cross-check helpers
# ---------------------------------------------------------------------------


def charpoly_root_multiset(cp: CharPoly) -> list:
    """Numeric roots of a characteristic polynomial, with multiplicity."""
    return poly_roots(list(cp.coeffs))


def max_matching_distance(computed: Sequence[complex], expected: Sequence[complex]) -> float:
    """Largest pointwise distance under an optimal matching of two root multisets."""
    from scipy.optimize import linear_sum_assignment

    if len(computed) != len(expected):
        raise ValueError(f"multiset sizes differ: {len(computed)} vs {len(expected)}")
    a = np.array(computed, dtype=complex)
    b = np.array(expected, dtype=complex)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())

