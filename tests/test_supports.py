import math
import random

import networkx as nx
import numpy as np
import pytest

from qwalkspec import (
    Graph,
    HypothesisError,
    QuadraticPair,
    RationalEigenvalue,
    ValencyError,
    adjacency_matrix,
    build_arc_space,
    build_support_set,
    char_poly,
    closed_form_charpoly_su,
    closed_form_charpoly_su2,
    closed_form_spectrum_su,
    closed_form_spectrum_su2,
    circulant_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    ihara_style_charpoly,
    int_eye,
    outs_matrix,
    parse_generator_spec,
    petersen_graph,
    poly_divide_exact,
    poly_roots,
    positive_support,
    su2_via_identity,
    support_u_power,
)
from qwalkspec.arcspace import ins_matrix

from oracles import dense_arc_matrices, max_matching_distance, schoolbook_closed_forms


def test_support_u_c3_is_two_directed_triangles():
    a = build_arc_space(cycle_graph(3))
    s1 = support_u_power(a, 1)
    # arcs: (0,1),(1,0),(0,2),(2,0),(1,2),(2,1); rows mark feeders
    expected = [
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
    ]
    assert s1.tolist() == expected
    # a permutation of order 3: s1^3 = I
    assert np.array_equal(s1 @ s1 @ s1, int_eye(6))


def test_support_u_row_sums(corpus):
    for gid, g in corpus:
        a = build_arc_space(g)
        s1 = support_u_power(a, 1)
        for i in range(a.size):
            assert sum(s1[i, :]) == a.k - 1, gid
            assert sum(s1[:, i]) == a.k - 1, gid


def test_support_u_matches_sign_of_walk_matrix(corpus):
    # S+(U) comes from W's entry formula, so the reference is the dense oracle W
    for gid, g in corpus:
        a = build_arc_space(g)
        dense = dense_arc_matrices(a)
        assert np.array_equal(support_u_power(a, 1), positive_support(dense["W"])), gid
        assert np.array_equal(support_u_power(a, 1), dense["S1"]), gid


def test_support_u_requires_k2():
    with pytest.raises(ValencyError):
        support_u_power(build_arc_space(Graph(2, [(0, 1)])), 1)
    with pytest.raises(ValencyError):
        support_u_power(build_arc_space(Graph(2, [(0, 1)])), 2)


def test_support_power_rejects_bad_exponent():
    a = build_arc_space(cycle_graph(4))
    for m in (0, 4):
        with pytest.raises(ValueError, match="only powers 1, 2 and 3"):
            support_u_power(a, m)


def test_squared_support_identity_k_gt_2(corpus):
    for gid, g in corpus:
        a = build_arc_space(g)
        if a.k <= 2:
            continue
        assert np.array_equal(support_u_power(a, 2), su2_via_identity(a)), gid


def test_su2_identity_hypothesis_gate():
    with pytest.raises(HypothesisError, match="k > 2"):
        su2_via_identity(build_arc_space(cycle_graph(4)))


def test_squared_support_at_k2_is_square_of_support():
    # At k = 2 the scaled walk matrix is exactly 2*S+(U) (backtracking
    # entries are 2 - k = 0), so supports of powers are powers of the
    # non-backtracking permutation.  In particular the "+ I" of the k > 2
    # identity fails, and the support of (outs^T ins)^2 strictly contains
    # the true support of U^2.
    for n in (3, 4, 5, 6):
        a = build_arc_space(cycle_graph(n))
        s1 = support_u_power(a, 1)
        s2 = support_u_power(a, 2)
        b2 = s1 @ s1
        assert np.array_equal(s2, b2)  # B is a permutation at k=2, so B^2 is 0/1
        assert not np.array_equal(s2, b2 + int_eye(a.size))
        x = outs_matrix(a).T @ ins_matrix(a)
        assert not np.array_equal(s2, positive_support(x @ x))


def test_squared_support_row_sums_k_gt_2(corpus):
    for gid, g in corpus:
        a = build_arc_space(g)
        if a.k <= 2:
            continue
        s2 = support_u_power(a, 2)
        expected = (a.k - 1) ** 2 + 1
        for i in range(a.size):
            assert sum(s2[i, :]) == expected, gid


def test_support_set_consistency():
    a = build_arc_space(petersen_graph())
    ss = build_support_set(a)
    assert np.array_equal(ss.s1, support_u_power(a, 1))
    assert np.array_equal(ss.s2, support_u_power(a, 2))
    assert np.array_equal(ss.s3, support_u_power(a, 3))


def test_cubed_support_relabeling_invariance():
    from qwalkspec import relabel

    g = petersen_graph()
    base = char_poly(support_u_power(build_arc_space(g), 3))
    rng = np.random.default_rng(17)
    for _ in range(3):
        h = relabel(g, list(rng.permutation(10)))
        assert char_poly(support_u_power(build_arc_space(h), 3)) == base


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------


def _entry_map(spec):
    rationals = {}
    pairs = {}
    for e in spec.entries:
        if isinstance(e, RationalEigenvalue):
            rationals[e.value] = rationals.get(e.value, 0) + e.multiplicity
        else:
            pairs[(e.root_sum, e.root_product)] = (e.multiplicity, e.conjugate)
    return rationals, pairs


def test_closed_form_su_k4():
    spec = closed_form_spectrum_su(complete_graph(4))
    rationals, pairs = _entry_map(spec)
    assert rationals == {2: 1, 1: 3, -1: 2}  # k-1=2; n(k-2)/2+1=3; n(k-2)/2=2
    assert pairs == {(-1, 2): (3, True)}  # lambda=-1 thrice, conjugate
    assert len(spec.numeric_values()) == 12


def test_closed_form_su_petersen():
    spec = closed_form_spectrum_su(petersen_graph())
    rationals, pairs = _entry_map(spec)
    assert rationals == {2: 1, 1: 6, -1: 5}
    assert pairs == {(1, 2): (5, True), (-2, 2): (4, True)}
    assert len(spec.numeric_values()) == 30


def test_closed_form_su_c3():
    spec = closed_form_spectrum_su(cycle_graph(3))
    rationals, pairs = _entry_map(spec)
    # k=2: eigenvalue -1 has multiplicity n(k-2)/2 = 0 and is omitted
    assert rationals == {1: 2}
    assert pairs == {(-1, 1): (2, True)}
    assert len(spec.numeric_values()) == 6


def test_closed_form_su_bipartite_real_pair():
    # lambda = -k on a bipartite graph: real pair {-1, -(k-1)}, no special case
    spec = closed_form_spectrum_su(hypercube_graph(3))
    _, pairs = _entry_map(spec)
    assert (-3, 2) in pairs
    mult, conjugate = pairs[(-3, 2)]
    assert mult == 1 and conjugate is False


def test_closed_form_su_degenerate_discriminant():
    # C4: lambda = -2, k = 2 gives discriminant 0: double real root -1
    spec = closed_form_spectrum_su(cycle_graph(4))
    _, pairs = _entry_map(spec)
    mult, conjugate = pairs[(-2, 1)]
    assert mult == 1 and conjugate is False


def test_closed_form_conjugate_pairs_product_exact(corpus):
    for gid, g in corpus:
        a = build_arc_space(g)
        if a.k < 2:
            continue
        spec = closed_form_spectrum_su(g)
        for e in spec.entries:
            if isinstance(e, QuadraticPair):
                assert e.root_product == a.k - 1, gid
                if e.conjugate:
                    r1, r2 = e.numeric_values()[:2]
                    assert abs(abs(r1) ** 2 - (a.k - 1)) < 1e-6


def test_closed_form_multiplicities_sum(corpus):
    for gid, g in corpus:
        nk = 2 * g.edge_count
        spec = closed_form_spectrum_su(g)
        assert len(spec.numeric_values()) == nk, gid
        if spec.k > 2:
            spec2 = closed_form_spectrum_su2(g)
            assert len(spec2.numeric_values()) == nk, gid


def test_closed_form_su2_k4():
    spec = closed_form_spectrum_su2(complete_graph(4))
    rationals, pairs = _entry_map(spec)
    assert rationals == {5: 1, 2: 5}  # k^2-2k+2 = 5; both +-1 families map to 2
    # (lambda,k)=(-1,3) maps to root sum lambda^2-2k+4 = -1, product lambda^2+(k-2)^2 = 2
    assert pairs == {(-1, 2): (3, True)}
    assert len(spec.numeric_values()) == 12


def test_closed_form_su2_eigenvalue_of_two_multiplicity(corpus):
    for gid, g in corpus:
        spec_k = closed_form_spectrum_su(g).k
        if spec_k <= 2:
            continue
        spec2 = closed_form_spectrum_su2(g)
        rationals, _ = _entry_map(spec2)
        assert rationals[2] == g.n * (spec_k - 2) + 1, gid


def test_closed_form_su2_hypothesis_gate():
    with pytest.raises(HypothesisError):
        closed_form_spectrum_su2(cycle_graph(5))  # k=2


def test_closed_form_rejects_disconnected_and_irregular():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(HypothesisError, match="connected"):
        closed_form_spectrum_su(two_triangles)
    with pytest.raises(HypothesisError, match="regular"):
        closed_form_spectrum_su(Graph(3, [(0, 1)]))
    with pytest.raises(HypothesisError):
        closed_form_spectrum_su(Graph(2, [(0, 1)]))  # k=1


def test_trace_zero_exact(corpus):
    # trace of the support is zero, and the closed-form eigenvalue sum is
    # zero exactly: (k-1) + sum_{lambda != k} m_lambda lambda + 1 = 0, with
    # the middle sum read off the psi = phi_A/(x-k) coefficients.
    for gid, g in corpus:
        a = build_arc_space(g)
        assert int(support_u_power(a, 1).trace()) == 0, gid
        cp_a = char_poly(adjacency_matrix(g))
        psi = poly_divide_exact(list(cp_a.coeffs), [-a.k, 1])
        lambda_sum = -psi[-2] if len(psi) >= 2 else 0  # sum of roots of psi
        plus = g.n * (a.k - 2) // 2 + 1
        minus = g.n * (a.k - 2) // 2
        assert (a.k - 1) + lambda_sum + plus - minus == 0, gid


# ---------------------------------------------------------------------------
# exact closed-form characteristic polynomials
# ---------------------------------------------------------------------------


def test_closed_form_charpoly_su_c3():
    cp = closed_form_charpoly_su(cycle_graph(3))
    assert cp.coeffs == (1, 0, 0, -2, 0, 0, 1)  # (t^3 - 1)^2


def test_closed_form_charpoly_su_matches_brute_force(small_corpus):
    for gid, g in small_corpus:
        lhs = char_poly(support_u_power(build_arc_space(g), 1))
        assert lhs == closed_form_charpoly_su(g), gid


def test_ihara_identity_small(small_corpus):
    for gid, g in small_corpus:
        lhs = char_poly(support_u_power(build_arc_space(g), 1))
        assert lhs.coeffs == ihara_style_charpoly(g).coeffs, gid


def test_ihara_equals_closed_form(corpus):
    for gid, g in corpus:
        assert ihara_style_charpoly(g) == closed_form_charpoly_su(g), gid


def test_closed_form_charpoly_su2_matches_brute_force(small_corpus):
    for gid, g in small_corpus:
        a = build_arc_space(g)
        if a.k <= 2:
            continue
        lhs = char_poly(support_u_power(a, 2))
        assert lhs == closed_form_charpoly_su2(g), gid


def test_one_s_plus_u_squared_closed_form_at_k_2_matches_brute_force():
    """theta -> theta^2 with c = 0: the same closed form as for k > 2, on cycles and 2-regular
    graphs with several cycles, where chi_A has repeated roots."""
    from qwalkspec.supports import _charpoly_su2

    two_cycles = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    for g in [cycle_graph(n) for n in (3, 4, 5, 8, 12)] + [two_cycles]:
        cp_s2 = char_poly(support_u_power(build_arc_space(g), 2))
        assert _charpoly_su2(g.n, 2, char_poly(adjacency_matrix(g))) == cp_s2, g.n


def test_closed_form_charpoly_su2_accepts_every_k_from_2_and_checks_the_rest():
    """The public closed form runs at k = 2 too, where it equals the brute-force S+(U^2) of a
    cycle; k = 1, irregular and disconnected graphs still raise, naming the failed hypothesis."""
    for n in (3, 4, 5, 8, 12):
        g = cycle_graph(n)
        assert closed_form_charpoly_su2(g) == char_poly(support_u_power(build_arc_space(g), 2)), n
    k4 = complete_graph(4).edges
    for g, message in [
        (Graph(6, [(0, 1), (2, 3), (4, 5)]), "valency k >= 2 required, got k=1"),
        (Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), "graph is not regular"),
        (Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]), "graph is not connected"),
        (Graph(8, list(k4) + [(u + 4, v + 4) for u, v in k4]), "graph is not connected"),
    ]:
        with pytest.raises(HypothesisError, match=f"^{message}$"):
            closed_form_charpoly_su2(g)


def test_closed_form_spectrum_su_names_float_clustering_when_it_merges_k(monkeypatch, capsys):
    """The exact checks pass, so a top cluster of multiplicity 2 can only come from float
    clustering: two eigenvalues 5e-7 apart fall inside EIGENVALUE_CLUSTER_TOL = 1e-6."""
    from qwalkspec import cli, supports

    monkeypatch.setattr(supports, "symmetric_eigenvalues",
                        lambda a: np.array([-2.0] * 4 + [1.0] * 4 + [3 - 5e-7, 3.0]))
    with pytest.raises(HypothesisError, match="^float eigenvalues cannot resolve the simple adjacency eigenvalue"
                                              " k=3 at cluster tolerance 1e-06: top cluster 2.99999975 of"
                                              " multiplicity 2$"):
        closed_form_spectrum_su(petersen_graph())
    with pytest.raises(HypothesisError, match="eigenvalue k=3"):
        closed_form_spectrum_su2(petersen_graph())
    assert cli.main(["spectrum", "--which", "s1", "--form", "closed", "--generate", "petersen"]) == 1
    assert capsys.readouterr().err.startswith("error: petersen: float eigenvalues cannot resolve the simple")


CLOSED_FORM_SPECS = (
    "cycle:3", "cycle:7", "cycle:12", "complete:4", "complete:7", "complete_bipartite:3,3",
    "complete_bipartite:5,5", "petersen", "hypercube:3", "hypercube:5", "paley:13", "paley:29",
    "rook:3", "rook:5", "shrikhande", "circulant:40,1,3,7",
)


def _closed_form_cases():
    """Generator specs, batch-style 24-vertex circulants (k = 4, 6) and random regular graphs."""
    cases = [(spec, parse_generator_spec(spec)) for spec in CLOSED_FORM_SPECS]
    rng = random.Random(7)
    for size in (2, 2, 2, 3, 3):
        conn = tuple(rng.sample(range(1, 12), size))
        if math.gcd(24, *conn) == 1:
            cases.append((f"circulant:24,{conn}", circulant_graph(24, conn)))
    for n, k, seed in ((9, 2, 1), (11, 2, 2), (12, 3, 3), (14, 5, 4), (16, 6, 5), (20, 7, 6)):
        h = nx.random_regular_graph(k, n, seed=seed)
        cases.append((f"rr({n},{k},{seed})", Graph(n, [tuple(e) for e in h.edges()])))
    return [(gid, g) for gid, g in cases if g.connected]


def test_closed_forms_match_the_schoolbook_route():
    from qwalkspec.supports import _charpoly_su, _charpoly_su2, _ihara_charpoly

    ks = set()
    for gid, g in _closed_form_cases():
        k = g.valency
        ks.add(k)
        cp_a = char_poly(adjacency_matrix(g))
        su, ihara, su2 = (tuple(p) for p in schoolbook_closed_forms(g.n, k, cp_a.coeffs))
        assert _charpoly_su(g.n, k, cp_a).coeffs == su, gid
        assert _ihara_charpoly(g.n, k, cp_a).coeffs == ihara, gid
        assert _charpoly_su2(g.n, k, cp_a).coeffs == su2, gid  # every k, k = 2 included
    assert {2, 3, 4, 6, 14}.issubset(ks)


def test_numeric_roots_match_closed_form(small_corpus):
    for gid, g in small_corpus:
        cp = char_poly(support_u_power(build_arc_space(g), 1))
        roots = poly_roots(cp.coeffs)
        expected = closed_form_spectrum_su(g).numeric_values()
        assert max_matching_distance(roots, expected) < 1e-6, gid


def test_matching_distance_validates_sizes():
    with pytest.raises(ValueError):
        max_matching_distance([1 + 0j], [1 + 0j, 2 + 0j])
