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

Every function here that builds an arc-space matrix takes the graph's
``ArcSpace``, so one arc space serves a graph's every check.  No walk
support forms W.  With t, h the arc tails and heads, W's entry (j, i) is
2[h_i = t_j] - k[i = rev j]; summing over the middle arcs gives

    W^2[j, i] = 4A[t_j, h_i] - 2k([t_j = t_i] + [h_j = h_i]) + k^2 [i = j]
    W^3[j, i] = 8A^2[t_j, h_i] - 4k(A[t_j, t_i] + A[h_j, h_i]) + 2k^2 [h_j = t_i] - k^3 [i = rev j]

and ``support_u_power`` reads all three from one table of terms,
``_POWER_TERMS``, in int32 row blocks, with A^2 = ins*A[t].  No entry
exceeds 16k + 2k^2 + k^3 in magnitude, which it checks against 2^31 before
it builds anything.  Every walk support needs k >= 2.  The walk-product
chain W, W*W, W*W*W by the arc step is the test oracle
(``tests/oracles.py``).  ``support_u_power`` and ``build_support_set`` are
the only builders of supports: the CLI's ``spectrum`` and ``verify`` and
``invariants`` all call them by these names.  The identity suite multiplies
by P, W, kQ and S+(U) through the same ``ArcSpace``, never by a dense
product, and ``su2_via_identity`` squares S+(U) by the arc step alone, so
thm41 checks the entry formula of S+(U^2) against a product that shares no
code with it.  The dense incidence definitions are test oracles
(``tests/oracles.py``).

``closed_form_charpoly_su``, ``ihara_style_charpoly`` and
``closed_form_charpoly_su2`` expand these eigenvalue lists into exact
integer polynomials without ever computing an individual eigenvalue: the
product over adjacency eigenvalues is a polynomial composition of the
graph's own chi_A (``Graph.charpoly``), evaluated once at t = 2^B as a
Python int and read back as B-bit digits, with B from a bound on the
result's 1-norm.  Their unchecked kernels ``_charpoly_su``,
``_ihara_charpoly`` and ``_charpoly_su2`` take (n, k, chi_A), so tests can
feed them polynomials of no graph.  Floating point appears only in the
report-oriented ``ClosedFormSpectrum``, never in an identity check.

Every closed form checks its hypotheses through ``_require_walk_hypotheses``,
which reads the graph's own ``valency`` and ``connected``: a graph decides
them once, however many closed forms and checks ask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import intmat
from .arcspace import ArcSpace, ins_matrix, outs_matrix, reversal_matrix, scaled_reflection_q
from .errors import HypothesisError, ValencyError
from .graphs import Graph, adjacency_matrix
from .intmat import int_eye, mat_equal, mat_mul, positive_support
from .jacobi import symmetric_eigenvalues
from .polynomials import CharPoly, poly_divide_exact, poly_graeffe
from .polynomials import _homogeneous, _kron_bits, _kron_read

EIGENVALUE_CLUSTER_TOL = 1e-6


def _walk_valency(a: ArcSpace) -> int:
    """The arc space's valency k; ``ValencyError`` unless k >= 2, which every walk support needs."""
    if a.k < 2:
        raise ValencyError(f"support of the walk needs valency >= 2, got k={a.k}")
    return a.k


# Entry (j, i) of W^m is (-k)^m at i = rev j if the flag is set, else at i = j, plus c k^e (A^p)[x_j, y_i]
# for each term (c, e, p, "xy"), where x and y, t or h, pick the tail or head of arcs j and i.
_POWER_TERMS = {1: (True, ((2, 0, 0, "th"),)),
                2: (False, ((4, 0, 1, "th"), (-2, 1, 0, "tt"), (-2, 1, 0, "hh"))),
                3: (True, ((8, 0, 2, "th"), (-4, 1, 1, "tt"), (-4, 1, 1, "hh"), (2, 2, 0, "ht")))}


def support_u_power(a: ArcSpace, m: int) -> np.ndarray:
    """S+(U^m) for m in {1, 2, 3}: the support of W^m, from its entry formula in int32 row blocks.

    S+(U), the support of W, is the non-backtracking arc matrix.  An entry
    of A^p is at most 1 for p < 2 and k for p = 2, so no entry of W^m
    exceeds k^m plus the sum over the terms of |c| k^e times that: k + 2
    for m = 1, 4 + 4k + k^2 for m = 2, 16k + 2k^2 + k^3 for m = 3.  That
    bound is checked against 2^31 before anything is built.  Each term's columns
    c k^e (A^p)[:, y] are gathered once, n x nk; each row block then gathers
    their rows x_j and sums them.  The rows come in as few near-equal blocks
    as keep each block's int32 entries within ``intmat._STACK_BYTES``.
    """
    if m not in _POWER_TERMS:
        raise ValueError(f"only powers 1, 2 and 3 are supported, got {m}")
    k, (reversed_diagonal, terms) = _walk_valency(a), _POWER_TERMS[m]
    if k**m + sum(abs(c) * k**e * (k if p == 2 else 1) for c, e, p, _ in terms) >= 1 << 31:
        raise OverflowError(f"W^{m} at k={k} may reach 2^31 in magnitude")
    adj, ends = adjacency_matrix(a.graph), {"t": a.tail, "h": a.head}
    powers = [x.astype(np.int32) for x in (int_eye(a.n), adj, a.ins(adj[a.tail]))]
    columns = [(c * k**e * powers[p][:, ends[y]], ends[x]) for c, e, p, (x, y) in terms]
    out = np.empty((a.size, a.size), dtype=np.int64)
    for j in np.array_split(np.arange(a.size), -(-4 * a.size**2 // intmat._STACK_BYTES)):
        block = sum(column[x[j]] for column, x in columns)
        block[np.arange(len(j)), a.rev[j] if reversed_diagonal else j] += (-k) ** m
        out[j] = positive_support(block)
    return out


def su2_via_identity(a: ArcSpace) -> np.ndarray:
    """S+(U)^2 + I, which equals S+(U^2) exactly when k > 2, by the arc step alone."""
    if a.k <= 2:
        raise HypothesisError(f"S+(U^2) = S+(U)^2 + I requires k > 2, got k={a.k}")
    eye = int_eye(a.size)
    return a.s1(a.s1(eye)) + eye


@dataclass(frozen=True)
class SupportSet:
    """The three invariant matrices S+(U), S+(U^2), S+(U^3)."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray


def build_support_set(a: ArcSpace) -> SupportSet:
    """S+(U), S+(U^2) and S+(U^3) (k >= 2), each from its entry formula."""
    return SupportSet(*(support_u_power(a, m) for m in (1, 2, 3)))


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

    def numeric_values(self) -> list:
        disc = complex(self.root_sum**2 - 4 * self.root_product) ** 0.5
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


def _snap_int(x: float):
    r = round(x)
    return int(r) if abs(x - r) <= EIGENVALUE_CLUSTER_TOL else float(x)


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
    """g's valency k, if g is k-regular with k >= min_k and connected; else ``HypothesisError``
    naming the first hypothesis that fails.  Connectivity is asked for only after the degrees pass."""
    k = g.valency
    if k is None:
        raise HypothesisError("graph is not regular")
    if k < min_k:
        raise HypothesisError(f"valency k >= {min_k} required, got k={k}")
    if not g.connected:
        raise HypothesisError("graph is not connected")
    return k


def closed_form_spectrum_su(g: Graph) -> ClosedFormSpectrum:
    """Closed-form spectrum of S+(U) for a connected regular graph, k >= 2."""
    n, k = g.n, _require_walk_hypotheses(g, 2)
    entries: list = [RationalEigenvalue(k - 1, 1)]
    clusters = _adjacency_eigenvalue_clusters(g)
    top_val, top_mult = clusters[-1]
    # g is connected and k-regular, so k is simple: only float clustering can merge it with lambda_2
    if abs(top_val - k) > EIGENVALUE_CLUSTER_TOL or top_mult != 1:
        raise HypothesisError(f"float eigenvalues cannot resolve the simple adjacency eigenvalue k={k} at cluster"
                              f" tolerance {EIGENVALUE_CLUSTER_TOL:g}: top cluster {top_val:.12g} of"
                              f" multiplicity {top_mult}")
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


def closed_form_charpoly_su(g: Graph) -> CharPoly:
    """char poly of S+(U) built from the adjacency char poly, exactly.

    (t - (k-1)) * prod_{lambda != k} (t^2 - lambda t + (k-1))^{m_lambda}
                * (t - 1)^{n(k-2)/2 + 1} * (t + 1)^{n(k-2)/2}
    """
    k = _require_walk_hypotheses(g, 2)
    return _charpoly_su(g.n, k, g.charpoly)


def _charpoly_su(n: int, k: int, cp_a: CharPoly) -> CharPoly:
    """``closed_form_charpoly_su`` unchecked: psi = cp_a / (x - k), the product over lambda != k
    is t^(n-1) psi((t^2 + k - 1)/t), and (t - 1)^(e+1) (t + 1)^e = (t^2 - 1)^e (t - 1)."""
    psi = poly_divide_exact(cp_a.coeffs, [-k, 1])
    e = n * (k - 2) // 2
    bits = _kron_bits(k * _homogeneous([abs(c) for c in psi], k, 1) * 2 ** (e + 1))
    t = 1 << bits
    value = (t - k + 1) * _homogeneous(psi, t * t + k - 1, t) * (t * t - 1) ** e * (t - 1)
    return CharPoly(tuple(_kron_read(value, n * k, bits)))


def ihara_style_charpoly(g: Graph) -> CharPoly:
    """The factorized form of the non-backtracking char poly, expanded over Z.

    [sum_i a_i t^(n-i) (t^2 + k - 1)^i] * (t^2 - 1)^(n(k-2)/2), with a_i the
    adjacency char poly coefficients.
    """
    k = _require_walk_hypotheses(g, 2)
    return _ihara_charpoly(g.n, k, g.charpoly)


def _ihara_charpoly(n: int, k: int, cp_a: CharPoly) -> CharPoly:
    """``ihara_style_charpoly`` unchecked."""
    a = cp_a.coeffs
    e = n * (k - 2) // 2
    bits = _kron_bits(_homogeneous([abs(c) for c in a], k, 1) * 2**e)
    t = 1 << bits
    value = _homogeneous(a, t * t + k - 1, t) * (t * t - 1) ** e
    return CharPoly(tuple(_kron_read(value, n * k, bits)))


def closed_form_charpoly_su2(g: Graph) -> CharPoly:
    """char poly of S+(U^2) for k >= 2, from the adjacency char poly, exactly.

    For k > 2 it applies theta -> theta^2 + 1 to the closed-form S+(U)
    spectrum at the polynomial level.  Each adjacency eigenvalue family
    lambda != k maps to the monic quadratic with root sum lambda^2 - 2k + 4
    and root product lambda^2 + (k-2)^2, i.e. (t+k-2)^2 - (t-1) lambda^2.
    With q the Graeffe square of psi (the adjacency char poly without the
    x - k factor), whose roots are the lambda^2, their product is

        prod_{lambda != k} [(t+k-2)^2 - (t-1) lambda^2]
            = (t-1)^(n-1) q((t+k-2)^2 / (t-1)).

    At k = 2, where S+(U^2) = S+(U)^2, it squares the S+(U) eigenvalues
    (``_charpoly_su2``).
    """
    k = _require_walk_hypotheses(g, 2)
    return _charpoly_su2(g.n, k, g.charpoly)


def _charpoly_su2(n: int, k: int, cp_a: CharPoly) -> CharPoly:
    """``closed_form_charpoly_su2`` unchecked, for every k >= 2.

    S+(U^2) has the eigenvalues theta^2 + c of S+(U), with c = 1 for k > 2
    and c = 0 at k = 2, where W = 2 S+(U) makes S+(U^2) = S+(U)^2.  The pair
    of each lambda != k maps to the roots of (t + k - 1 - c)^2 - (t - c) lambda^2,
    and k - 1 and the +-1 to (k - 1)^2 + c and 1 + c, so with q = Graeffe(psi)

        (t - (k-1)^2 - c) (t - c)^(n-1) q((t + k - 1 - c)^2 / (t - c)) (t - 1 - c)^(n(k-2)+1).

    No coefficient exceeds the product of the three factors' 1-norms:
    (k-1)^2 + c + 1, sum_j |q_j| (k - c)^(2j) (1 + c)^(n-1-j) and (2 + c)^(n(k-2)+1).
    """
    q = poly_graeffe(poly_divide_exact(cp_a.coeffs, [-k, 1]))
    c = 1 if k > 2 else 0
    top, e = (k - 1) ** 2 + c, n * (k - 2) + 1
    bits = _kron_bits((top + 1) * _homogeneous([abs(x) for x in q], (k - c) ** 2, 1 + c) * (2 + c) ** e)
    t = 1 << bits
    value = (t - top) * _homogeneous(q, (t + k - 1 - c) ** 2, t - c) * (t - 1 - c) ** e
    return CharPoly(tuple(_kron_read(value, n * k, bits)))


# ---------------------------------------------------------------------------
# Exact identity suite over the arc matrices
# ---------------------------------------------------------------------------


def identity_suite(a: ArcSpace) -> List[tuple]:
    """[(identity name, holds exactly)] for the arc-matrix identities of an arc space.

    Covers the incidence/reversal/orthogonality identities of the walk
    construction plus, for k >= 2, the two support intertwining relations
    S+(U) ins^T = (k-1) outs^T and S+(U) outs^T = outs^T A - ins^T.  Every
    left factor of size nk x nk acts by the arc step, in O((nk)^2), and W is
    the arc space's own.
    """
    k, eye_n, eye_nk = a.k, int_eye(a.n), int_eye(a.size)
    ins, outs, adj = ins_matrix(a), outs_matrix(a), adjacency_matrix(a.graph)
    p, w, kq = reversal_matrix(a), a.walk, scaled_reflection_q(a)
    checks = [
        ("ins*outs^T = A", mat_equal(mat_mul(ins, outs.T), adj)),
        ("outs*outs^T = kI", mat_equal(mat_mul(outs, outs.T), k * eye_n)),
        ("ins*ins^T = kI", mat_equal(mat_mul(ins, ins.T), k * eye_n)),
        ("P^2 = I", mat_equal(a.p(p), eye_nk)),
        ("P*ins^T = outs^T", mat_equal(a.p(ins.T), outs.T)),
        ("P*outs^T = ins^T", mat_equal(a.p(outs.T), ins.T)),
        ("W*W^T = k^2 I", mat_equal(a.w(w.T), k * k * eye_nk)),
        ("(kQ)^2 = k^2 I", mat_equal(a.kq(kq), k * k * eye_nk)),
    ]
    if k >= 2:
        checks += [
            ("S+(U)*ins^T = (k-1)outs^T", mat_equal(a.s1(ins.T), (k - 1) * outs.T)),
            ("S+(U)*outs^T = outs^T A - ins^T", mat_equal(a.s1(outs.T), adj[a.tail] - ins.T)),
        ]
    return checks
