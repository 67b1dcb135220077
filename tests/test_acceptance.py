"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
with timings.  All algebraic comparisons are exact (integer coefficient
equality); the only tolerances are the stated 1e-6 numeric matching bound of
criterion 8 and the per-criterion runtime budgets.
"""

import time

import numpy as np

import qwalkspec as q
from qwalkspec.supports import _charpoly_su, _charpoly_su2, _ihara_charpoly
from conftest import corpus_graphs
from oracles import berkowitz_charpoly, cofactor_charpoly, max_matching_distance

CORPUS = corpus_graphs()

# shared lazy caches so later criteria can reuse exact results computed earlier
_cp_s1 = {}
_cp_a = {}


def cp_s1(gid, g):
    if gid not in _cp_s1:
        _cp_s1[gid] = q.char_poly(q.support_u_power(q.build_arc_space(g), 1))
    return _cp_s1[gid]


def cp_a(gid, g):
    if gid not in _cp_a:
        _cp_a[gid] = q.char_poly(q.adjacency_matrix(g))
    return _cp_a[gid]


def _finish(num, desc, t0, failures, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        failures = list(failures) + [f"runtime {elapsed:.1f}s exceeds {budget}s budget"]
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} [{status}] {desc} ({elapsed:.1f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    failures = []
    for gid, g in CORPUS:
        for name, ok in q.identity_suite(q.build_arc_space(g)):
            if not ok:
                failures.append(f"{gid}: {name}")
    _finish(1, "exact arc-matrix identity suite on the 13-graph corpus", t0, failures,
            budget=10)


def test_criterion_2_support_spectrum_closed_form():
    t0 = time.perf_counter()
    failures = []
    for gid, g in CORPUS:
        if cp_s1(gid, g) != _charpoly_su(g.n, g.valency, cp_a(gid, g)):
            failures.append(gid)
    _finish(2, "char poly of S+(U) equals its closed form (corrected multiplicities)",
            t0, failures)


def test_criterion_3_ihara_style_identity():
    t0 = time.perf_counter()
    failures = []
    for gid, g in CORPUS:
        if cp_s1(gid, g) != _ihara_charpoly(g.n, g.valency, cp_a(gid, g)):
            failures.append(gid)
    _finish(3, "Ihara-style factorization of char poly of S+(U)", t0, failures,
            budget=30)


def test_criterion_4_squared_support_identity():
    t0 = time.perf_counter()
    failures = []
    for gid, g in CORPUS:
        a = q.build_arc_space(g)
        s2 = q.support_u_power(a, 2)
        if a.k > 2:
            if not np.array_equal(s2, q.su2_via_identity(a)):
                failures.append(f"{gid}: S+(U^2) != S+(U)^2 + I")
        else:
            # k = 2 (cycles): the identity's +I does not apply.  The scaled
            # walk matrix is exactly 2*S+(U) here, so the true relation is
            # S+(U^2) = S+(U)^2, strictly smaller than the support of
            # (outs^T ins)^2 wherever a backtracking 2-walk exists.
            s1 = q.support_u_power(a, 1)
            b2 = s1 @ s1
            if not np.array_equal(s2, b2):
                failures.append(f"{gid}: S+(U^2) != S+(U)^2 at k=2")
            if np.array_equal(s2, b2 + q.int_eye(a.size)):
                failures.append(f"{gid}: +I unexpectedly holds at k=2")
            x = q.outs_matrix(a).T @ q.ins_matrix(a)
            if np.array_equal(s2, q.positive_support(x @ x)):
                failures.append(f"{gid}: support of (outs^T ins)^2 unexpectedly equals S+(U^2)")
    _finish(4, "S+(U^2) = S+(U)^2 + I for k>2; documented k=2 behavior", t0, failures)


def test_criterion_5_squared_support_spectrum():
    t0 = time.perf_counter()
    failures = []
    for gid, g in CORPUS:
        a = q.build_arc_space(g)
        if a.k <= 2:
            continue
        lhs = q.char_poly(q.support_u_power(a, 2))
        if lhs != _charpoly_su2(g.n, a.k, cp_a(gid, g)):
            failures.append(gid)
    _finish(5, "char poly of S+(U^2) equals the theta -> theta^2 + 1 closed form",
            t0, failures)


def test_criterion_6_relabeling_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    failures = []
    for gid, g in CORPUS:
        base = q.profile(g, gid)
        for trial in range(50):
            h = q.relabel(g, list(rng.permutation(g.n)))
            p = q.profile(h, f"{gid}#{trial}")
            for which in ("a", "s1", "s2", "s3"):
                if p.charpoly(which).coeffs != base.charpoly(which).coeffs:
                    failures.append(f"{gid} trial {trial}: {which} changed")
            # profile takes s1 and s2 from closed forms; brute force must agree
            a = q.build_arc_space(h)
            brute = {"s1": q.support_u_power(a, 1), "s2": q.support_u_power(a, 2)}
            for which, m in brute.items():
                if q.char_poly(m).coeffs != base.charpoly(which).coeffs:
                    failures.append(f"{gid} trial {trial}: brute-force {which} differs")
    _finish(6, "char polys of A, S+(U), S+(U^2), S+(U^3) invariant under 50 relabelings,"
            " brute-force S+(U), S+(U^2) equal to the profile's", t0, failures, budget=60)


def test_criterion_7_srg_conjecture_experiment():
    t0 = time.perf_counter()
    failures = []
    shr = q.profile(q.shrikhande_graph(), "shrikhande")
    rook = q.profile(q.rook_graph(4), "rook44")
    rep = q.compare(shr, rook)
    if rep.verdicts["a"] != "cospectral":
        failures.append("adjacency char polys differ for SRG(16,6,2,2) pair")
    if rep.verdicts["s1"] != "cospectral":
        failures.append("S+(U) char polys differ (forced equal by the closed form)")
    if rep.verdicts["s2"] != "cospectral":
        failures.append("S+(U^2) char polys differ (forced equal by the closed form)")
    # The S+(U^3) verdict is the experimental observation, recorded not asserted.
    print(f"criterion 7 observation: S+(U^3) verdict for shrikhande vs rook44 = "
          f"{rep.verdicts['s3']}")
    _finish(7, "SRG(16,6,2,2) experiment: A, S+(U), S+(U^2) cospectral; s3 recorded",
            t0, failures, budget=120)


def test_criterion_8_oracle_cross_checks():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(8086)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        m = q.int_matrix(rng.integers(-9, 10, size=(n, n)).tolist())
        if list(berkowitz_charpoly(m).coeffs) != cofactor_charpoly(m.tolist()):
            failures.append(f"random matrix trial {trial} (n={n})")
    for gid, g in CORPUS:
        roots = q.poly_roots(cp_s1(gid, g).coeffs)
        expected = q.closed_form_spectrum_su(g).numeric_values()
        dist = max_matching_distance(roots, expected)
        if dist > 1e-6:
            failures.append(f"{gid}: root matching distance {dist:.2e}")
    _finish(8, "Berkowitz vs cofactor oracle; numeric roots vs closed form at 1e-6",
            t0, failures)
