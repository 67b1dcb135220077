import json

import numpy as np
import pytest

from qwalkspec import (
    Graph,
    HypothesisError,
    batch_compare,
    batch_to_csv,
    batch_to_json,
    build_arc_space,
    char_poly,
    compare,
    complete_graph,
    cycle_graph,
    petersen_graph,
    poly_mul,
    poly_pow,
    profile,
    relabel,
    rook_graph,
    shrikhande_graph,
    support_u,
    support_u_power,
)


def test_profile_petersen_adjacency_charpoly():
    # (t-3)(t-1)^5 (t+2)^4, expanded independently
    expected = poly_mul(poly_mul([-3, 1], poly_pow([-1, 1], 5)), poly_pow([2, 1], 4))
    p = profile(petersen_graph(), "petersen")
    assert list(p.charpoly_a.coeffs) == expected
    assert (p.n, p.k) == (10, 3)
    assert p.charpoly_a.degree == 10
    assert p.charpoly_s1.degree == 30
    assert p.charpoly_s2.degree == 30
    assert p.charpoly_s3.degree == 30


def test_profile_c3_support_charpoly():
    p = profile(cycle_graph(3), "C3")
    assert p.charpoly_s1.coeffs == (1, 0, 0, -2, 0, 0, 1)


def test_profile_closed_forms_match_brute_force(small_corpus):
    # odd and even cycles take the k = 2 Graeffe route for s2
    extra = [(f"C{n}", cycle_graph(n)) for n in (7, 8, 11)]
    for gid, g in small_corpus + extra:
        a = build_arc_space(g)
        p = profile(g, gid)
        assert p.charpoly_s1 == char_poly(support_u(a)), gid
        assert p.charpoly_s2 == char_poly(support_u_power(a, 2)), gid


def test_profile_hypothesis_errors_carry_id():
    with pytest.raises(HypothesisError, match="badgraph"):
        profile(Graph(3, [(0, 1)]), "badgraph")
    with pytest.raises(HypothesisError, match="matching"):
        profile(Graph(2, [(0, 1)]), "matching")
    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(HypothesisError, match="connected"):
        profile(two, "twotriangles")


def test_relabeled_profile_identical():
    g = complete_graph(4)
    p = profile(g, "K4")
    h = relabel(g, [2, 0, 3, 1])
    q = profile(h, "K4-relabeled")
    for which in ("a", "s1", "s2", "s3"):
        assert p.charpoly(which).coeffs == q.charpoly(which).coeffs


def test_compare_isomorphic_pair_cospectral_everywhere():
    g = petersen_graph()
    rng = np.random.default_rng(23)
    h = relabel(g, list(rng.permutation(10)))
    rep = compare(profile(g, "pet"), profile(h, "pet-relabeled"))
    assert all(v == "cospectral" for v in rep.verdicts.values())
    assert rep.distinguishing_invariant is None


def test_compare_different_nk_distinguished_by_a():
    rep = compare(profile(cycle_graph(6), "C6"), profile(complete_graph(4), "K4"))
    assert rep.verdicts["a"] == "distinguished"
    assert rep.distinguishing_invariant == "a"


def test_compare_is_symmetric():
    p = profile(shrikhande_graph(), "shr")
    q = profile(rook_graph(4), "rook")
    r1 = compare(p, q)
    r2 = compare(q, p)
    assert r1.verdicts == r2.verdicts
    assert r1.distinguishing_invariant == r2.distinguishing_invariant


def test_srg_pair_verdicts():
    # A-cospectral regular pair: s1 and s2 must agree too (their spectra are
    # functions of spec(A), n, k), so only s3 can ever distinguish.
    p = profile(shrikhande_graph(), "shr")
    q = profile(rook_graph(4), "rook")
    rep = compare(p, q)
    assert rep.verdicts["a"] == "cospectral"
    assert rep.verdicts["s1"] == "cospectral"
    assert rep.verdicts["s2"] == "cospectral"
    assert rep.distinguishing_invariant in (None, "s3")


def test_a_agreement_implies_nk_agreement():
    profiles = [
        profile(g, gid)
        for gid, g in [
            ("C5", cycle_graph(5)),
            ("K4", complete_graph(4)),
            ("shr", shrikhande_graph()),
            ("rook", rook_graph(4)),
        ]
    ]
    for p in profiles:
        for q in profiles:
            if p.charpoly_a.coeffs == q.charpoly_a.coeffs:
                assert (p.n, p.k) == (q.n, q.k)


def test_batch_compare_srg_pair():
    corpus = [("shrikhande", shrikhande_graph()), ("rook44", rook_graph(4))]
    result = batch_compare(corpus)
    assert len(result.pairs) == 1
    assert result.pairs[0].verdicts["a"] == "cospectral"
    assert result.skipped == []


def test_batch_compare_single_graph_empty():
    result = batch_compare([("pet", petersen_graph())])
    assert result.pairs == []


def test_batch_compare_skips_with_diagnostics():
    two = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    corpus = [("good", cycle_graph(4)), ("bad", two)]
    result = batch_compare(corpus)
    assert [gid for gid, _ in result.skipped] == ["bad"]
    assert "connected" in result.skipped[0][1]


def test_batch_skip_reasons_do_not_repeat_the_id():
    corpus = [
        ("irregular", Graph(4, [(0, 1), (1, 2), (2, 3)])),
        ("disconnected", Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        ("k1", Graph(4, [(0, 1), (2, 3)])),
        ("C4", cycle_graph(4)),
    ]
    skipped = batch_compare(corpus, threads=1).skipped
    assert not any(reason.startswith(gid) for gid, reason in skipped)
    assert skipped == [
        ("irregular", "graph is not regular"),
        ("disconnected", "graph is not connected"),
        ("k1", "valency k >= 2 required, got k=1"),
    ]


def test_batch_compare_prunes_by_nk():
    corpus = [
        ("C4", cycle_graph(4)),
        ("C6", cycle_graph(6)),
        ("K4", complete_graph(4)),
    ]
    assert batch_compare(corpus).pairs == []
    crossed = batch_compare(corpus, include_cross_class=True)
    assert len(crossed.pairs) == 3
    assert all(r.distinguishing_invariant == "a" for r in crossed.pairs)


def test_batch_compare_deterministic_order_and_threads():
    # Two (n, k) classes, k = 2 cycles, and an irregular, a disconnected and a k = 1 graph.
    corpus = [
        ("b", cycle_graph(5)),
        ("irregular", Graph(4, [(0, 1), (1, 2), (2, 3)])),
        ("a", relabel(cycle_graph(5), [4, 3, 2, 1, 0])),
        ("k4", complete_graph(4)),
        ("disconnected", Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        ("c", Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
        ("k1", Graph(4, [(0, 1), (2, 3)])),
        ("k4'", relabel(complete_graph(4), [2, 0, 3, 1])),
    ]
    results = {t: batch_compare(corpus, threads=t) for t in (1, 2, 4)}
    r1 = results[1]
    assert [r.pair for r in r1.pairs] == sorted(r.pair for r in r1.pairs)
    assert len(r1.pairs) == 4  # three C5 pairs and the two K4
    assert [gid for gid, _ in r1.skipped] == ["irregular", "disconnected", "k1"]
    for t in (2, 4):
        assert batch_to_json(results[t]) == batch_to_json(r1)
        assert results[t].skipped == r1.skipped


def test_batch_compare_worker_exception_reaches_caller(monkeypatch):
    import qwalkspec.invariants as inv

    real_profile = inv.profile

    def failing_profile(g, gid):
        if gid == "bad":
            raise RuntimeError("boom in bad")
        return real_profile(g, gid)

    monkeypatch.setattr(inv, "profile", failing_profile)
    corpus = [("good", cycle_graph(5)), ("bad", cycle_graph(6)), ("k4", complete_graph(4))]
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="boom in bad"):
            batch_compare(corpus, threads=threads)


def test_batch_compare_no_pool_for_one_worker_or_one_graph(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    two = [("C5", cycle_graph(5)), ("C5'", relabel(cycle_graph(5), [1, 0, 2, 3, 4]))]
    assert len(batch_compare(two, threads=1).pairs) == 1
    assert batch_compare(two[:1], threads=4).pairs == []
    assert batch_compare(two[:1]).pairs == []
    with pytest.raises(AssertionError, match="process pool"):
        batch_compare(two, threads=2)


def test_batch_json_and_csv_schemas():
    corpus = [("shrikhande", shrikhande_graph()), ("rook44", rook_graph(4))]
    result = batch_compare(corpus)
    blob = json.loads(batch_to_json(result))
    assert set(blob) == {"pairs", "skipped"}
    assert blob["pairs"][0]["ids"] == ["rook44", "shrikhande"]
    assert set(blob["pairs"][0]["verdicts"]) == {"a", "s1", "s2", "s3"}
    csv_text = batch_to_csv(result)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "id1,id2,a,s1,s2,s3,distinguishing_invariant"
    assert len(lines) == 2
