import functools
import itertools
import json
import logging
import os
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from qwalkspec import (
    Graph,
    HypothesisError,
    adjacency_matrix,
    batch_compare,
    batch_to_csv,
    batch_to_json,
    build_arc_space,
    char_poly,
    circulant_graph,
    compare,
    complete_graph,
    cycle_graph,
    is_connected,
    is_regular,
    parse_generator_spec,
    petersen_graph,
    poly_mul,
    profile,
    read_graph6_file,
    relabel,
    rook_graph,
    shrikhande_graph,
    support_u,
    support_u_power,
    write_graph6_file,
)
from qwalkspec.graph6 import parse_graph6
from qwalkspec.invariants import Fingerprint, _s3, certify, fingerprints
from qwalkspec.polynomials import CharPoly, poly_divide_exact, poly_graeffe

from oracles import _ppow, dense_arc_matrices, int_product

GOLDEN_DIR = Path(__file__).parent / "data" / "cli"


def test_profile_petersen_adjacency_charpoly():
    # (t-3)(t-1)^5 (t+2)^4, expanded independently
    expected = poly_mul(poly_mul([-3, 1], _ppow([-1, 1], 5)), _ppow([2, 1], 4))
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

    real_fingerprints = inv._fingerprints

    def failing_fingerprints(checked):
        if any(gid == "bad" for gid, _, _ in checked):
            raise RuntimeError("boom in bad")
        return real_fingerprints(checked)

    monkeypatch.setattr(inv, "_fingerprints", failing_fingerprints)
    corpus = [("good", cycle_graph(5)), ("bad", cycle_graph(6)), ("k4", complete_graph(4))]
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="boom in bad"):
            batch_compare(corpus, threads=threads)


def test_batch_compare_no_pool_for_one_worker_or_one_graph(monkeypatch):
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    two = [("C5", cycle_graph(5)), ("C5'", relabel(cycle_graph(5), [1, 0, 2, 3, 4]))]
    assert len(batch_compare(two, threads=1).pairs) == 1
    assert batch_compare(two[:1], threads=4).pairs == []
    assert batch_compare(two[:1]).pairs == []
    with pytest.raises(AssertionError, match="process was forked"):
        batch_compare(two, threads=2)


def _in_children(monkeypatch, name, child_fn):
    """Runs ``child_fn(task)`` instead of ``invariants.<name>`` in forked children only."""
    import qwalkspec.invariants as inv

    parent, real = os.getpid(), getattr(inv, name)
    monkeypatch.setattr(inv, name, lambda task: real(task) if os.getpid() == parent else child_fn(task))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Largest edge count first, dealt into two tasks: [c7, k4] in the calling process, [bad] in a child.
_CHILD_CORPUS = [("c7", cycle_graph(7)), ("bad", cycle_graph(6)), ("k4", complete_graph(4))]


def test_an_error_raised_only_in_a_child_reaches_the_caller_with_its_type_and_message(monkeypatch):
    import qwalkspec.invariants as inv

    real = inv._build

    def failing(task):
        if any(gid == "bad" for gid, _ in task):
            raise KeyError("bad is in a child's task")
        return real(task)

    _in_children(monkeypatch, "_build", failing)
    assert len(batch_compare(_CHILD_CORPUS, threads=1).pairs) == 0  # no error in this process
    with pytest.raises(KeyError, match="^\"bad is in a child's task\"$"):
        batch_compare(_CHILD_CORPUS, threads=2)
    _no_child_left()


def test_a_child_that_dies_without_a_result_names_its_task_and_exit_status(monkeypatch):
    _in_children(monkeypatch, "_build", lambda task: os._exit(3))
    with pytest.raises(RuntimeError, match="^batch task 1 ended with exit status 3 and no result$"):
        batch_compare(_CHILD_CORPUS, threads=2)
    _no_child_left()


def test_children_still_running_after_an_error_are_killed_and_reaped(monkeypatch):
    import qwalkspec.invariants as inv

    def slow_or_dying(task):
        if any(gid == "k4" for gid, _ in task):
            time.sleep(60)
        os._exit(3)

    # three tasks: [c7] here, [bad] dies, [k4] would sleep
    _in_children(monkeypatch, "_build", slow_or_dying)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="^batch task 1 ended with exit status 3"):
        batch_compare(_CHILD_CORPUS, threads=3)
    _no_child_left()

    # an error in the calling process's own task, while both children sleep
    parent, real = os.getpid(), inv._build

    def failing_here(task):
        if os.getpid() == parent:
            raise ValueError("the calling process's task")
        time.sleep(60)
        return real(task)

    monkeypatch.setattr(inv, "_build", failing_here)
    with pytest.raises(ValueError, match="calling process's task"):
        batch_compare(_CHILD_CORPUS, threads=3)
    _no_child_left()
    assert time.perf_counter() - start < 30


def test_no_phase_forks_more_than_workers_minus_one_children(monkeypatch):
    import qwalkspec.invariants as inv

    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    rng = np.random.default_rng(8)
    corpus = [(f"shr{i}", relabel(shrikhande_graph(), list(rng.permutation(16)))) for i in range(3)]
    corpus.append(("rook44", rook_graph(4)))  # the three twins need exact polys
    forks, real_fork, real_map = [], os.fork, inv._fork_map
    phases = []

    def counting_fork():
        forks.append(None)
        return real_fork()

    def counting_map(fn, tasks, **kwargs):
        before = len(forks)
        try:
            return real_map(fn, tasks, **kwargs)
        finally:
            phases.append((fn.__name__, len(forks) - before))

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(inv, "_fork_map", counting_map)
    expected = batch_compare(corpus, threads=1)
    assert forks == [] and phases == []
    for threads in (2, 3, 8):
        workers = min(threads, len(corpus))
        phases.clear()
        assert batch_compare(corpus, threads=threads) == expected
        assert [name for name, _ in phases] == ["_build", "_exact_s3"]
        assert phases[0][1] == workers - 1  # one child per task after the first
        assert all(count <= workers - 1 for _, count in phases), phases
    _no_child_left()


def _fail_in_a_child(task):
    raise ValueError("a child's task failed")


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("fail", [None, "_build", "_exact_s3"])
def test_every_forked_child_is_reaped_before_batch_compare_returns_or_raises(threads, fail, monkeypatch):
    """A child whose result was read is reaped once the pairs are certified, so its teardown
    overlaps the work that follows; on an error in a child's task (in the first phase, or in the
    last, with the earlier phases' children still unreaped) every child is reaped all the same."""
    import qwalkspec.invariants as inv

    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    rng = np.random.default_rng(8)
    corpus = [(f"shr{i}", relabel(shrikhande_graph(), list(rng.permutation(16)))) for i in range(3)]
    corpus.append(("rook44", rook_graph(4)))  # the three twins need exact polys
    expected = batch_compare(corpus, threads=1)
    events, real_fork, real_waitpid, real_certify = [], os.fork, os.waitpid, inv._certify

    def fork():
        pid = real_fork()
        if pid:
            events.append(("fork", pid))
        return pid

    def waitpid(pid, options):
        out = real_waitpid(pid, options)
        events.append(("reap", pid))
        return out

    def certify(*args):
        out = real_certify(*args)
        events.append(("certified", None))
        return out

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    monkeypatch.setattr(inv, "_certify", certify)
    if fail is None:
        assert batch_compare(corpus, threads=threads) == expected
        certified = events.index(("certified", None))
        assert "reap" not in [e for e, _ in events[:certified]]
        assert all(e == "reap" for e, _ in events[certified + 1 :]) and events[-1][0] == "reap"
    else:
        _in_children(monkeypatch, fail, _fail_in_a_child)
        with pytest.raises(ValueError, match="a child's task failed"):
            batch_compare(corpus, threads=threads)
        assert ("certified", None) not in events
    forked = [pid for e, pid in events if e == "fork"]
    assert len(forked) >= threads - 1
    assert sorted(pid for e, pid in events if e == "reap") == sorted(forked)
    _no_child_left()


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


def _random_regular(n, k, seed):
    h = nx.random_regular_graph(k, n, seed=seed)
    return Graph(n, [tuple(e) for e in h.edges()])


def _verdict_corpus():
    """The batch golden corpus, random regular graphs and relabelled or multiplied twins."""
    rng = np.random.default_rng(3)
    corpus = read_graph6_file(str(GOLDEN_DIR / "mixed.g6"))
    corpus += [(spec, parse_generator_spec(spec))
               for spec in ("complete:4", "petersen", "cycle:5", "shrikhande", "rook:4")]
    corpus.append(("shrikhande~", relabel(shrikhande_graph(), list(rng.permutation(16)))))
    # multiplying the connections by the unit 5 gives an isomorphic circulant
    corpus += [(f"circulant:12,{a},{b}", circulant_graph(12, [a, b]))
               for a, b in ((1, 4), (4, 5), (1, 5))]
    for n, k, seed in ((10, 3, 1), (10, 3, 2), (12, 4, 3), (12, 4, 4)):
        g = _random_regular(n, k, seed)
        if is_connected(g):
            corpus.append((f"rr{n}.{k}.{seed}", g))
            corpus.append((f"rr{n}.{k}.{seed}~", relabel(g, list(rng.permutation(n)))))
    # cospectral only in S+(U^2): their A eigenvalues other than 3 differ, but not their squares
    corpus += [(line, parse_graph6(line)) for line in ("IUHDOHDEO", "ISOXKPoOo")]
    return corpus


def test_batch_verdicts_equal_compare_of_exact_profiles():
    corpus = _verdict_corpus()
    profiles = {}
    for gid, g in corpus:
        try:
            profiles[gid] = profile(g, gid)
        except HypothesisError:
            pass
    result = batch_compare(corpus, include_cross_class=True, threads=1)
    assert len(result.pairs) == len(profiles) * (len(profiles) - 1) // 2
    kinds = set()
    for report in result.pairs:
        expected = compare(*(profiles[gid] for gid in report.pair))
        assert report == expected, report.pair
        kinds.add(tuple(report.verdicts.values()))
    # twins, shrikhande/rook44, graphs that A already distinguishes, and the S+(U^2)-only pair
    assert ("cospectral",) * 4 in kinds
    assert ("cospectral",) * 3 + ("distinguished",) in kinds
    assert ("distinguished",) * 4 in kinds
    assert ("distinguished", "distinguished", "cospectral", "distinguished") in kinds


def _stub_fingerprint(gid, n, k, cp_a, traces):
    """A fingerprint of the char poly ``cp_a``, on an edgeless stand-in graph with n vertices."""
    psi = poly_divide_exact(cp_a.coeffs, [-k, 1])
    return Fingerprint(gid, Graph(n, []), k, cp_a, tuple(poly_graeffe(psi)), traces)


@pytest.mark.parametrize("k, roots, signs", [
    (3, [1, 1, 2, -2, 0], [-1, 1, 1, 1, 1]),
    (3, [0, 1, 2, 2, -1], [1, -1, -1, 1, 1]),
    (4, [1, 2, 3, 0, -1, -2], [-1, -1, -1, 1, 1, 1]),
    (5, [2, 2, 4, -1, -1, 0, 3], [-1, 1, -1, 1, -1, 1, -1]),
])
def test_psi_roots_that_differ_in_sign_split_s_plus_u_but_not_s_plus_u_squared(k, roots, signs):
    from qwalkspec.supports import _charpoly_su, _charpoly_su2

    psis = [functools.reduce(poly_mul, ([-r, 1] for r in rs), [1])
            for rs in (roots, [s * r for s, r in zip(signs, roots)])]
    # an irrational pair too: x^2 - x - 1 against x^2 + x - 1, the roots negated
    psis += [poly_mul(psi, [-1, c, 1]) for psi, c in zip(psis, (-1, 1))]

    def chi(valency, psi):
        return CharPoly(tuple(poly_mul([-valency, 1], psi)))

    for psi, phi in (psis[:2], psis[2:]):
        n = len(psi)
        assert _charpoly_su(n, k, chi(k, psi)) != _charpoly_su(n, k, chi(k, phi))
        assert _charpoly_su2(n, k, chi(k, psi)) == _charpoly_su2(n, k, chi(k, phi))
    # the rule of ``Fingerprint`` agrees with the expanded closed forms on every pair; the
    # first psi comes once more at valency k + 2, with equal n and psi_squares but not k
    cases = [(k, psi) for psi in psis] + [(k + 2, psis[0])]
    prints = [_stub_fingerprint(f"g{i}", len(psi), valency, chi(valency, psi), (i, 0, 0, 0))
              for i, (valency, psi) in enumerate(cases)]
    for p, q in itertools.combinations(prints, 2):
        report = certify(p, q)
        for which, closed_form in (("s1", _charpoly_su), ("s2", _charpoly_su2)):
            same = closed_form(p.n, p.k, p.charpoly_a) == closed_form(q.n, q.k, q.charpoly_a)
            assert report.verdicts[which] == ("cospectral" if same else "distinguished"), (which, p, q)


@pytest.mark.parametrize("first, second", [
    ("complete:4", "cycle:6"), ("petersen", "complete:6"), ("hypercube:4", "cycle:32"),
])
def test_equal_nk_with_different_n_and_k_distinguishes_s_plus_u_and_its_square(first, second):
    corpus = [(spec, parse_generator_spec(spec)) for spec in (first, second)]
    (_, g), (_, h) = corpus
    assert g.n * is_regular(g) == h.n * is_regular(h) and g.n != h.n
    expected = compare(*(profile(g, gid) for gid, g in corpus))
    assert certify(*fingerprints(corpus)) == expected
    assert [expected.verdicts[w] for w in ("a", "s1", "s2")] == ["distinguished"] * 3


def test_cli_compare_verdicts_equal_compare_of_exact_profiles(tmp_path, capsys):
    from qwalkspec.cli import main

    corpus = _verdict_corpus()
    by_id = dict(corpus)
    pairs = [("shrikhande", "rook:4"), ("shrikhande", "shrikhande~"), ("petersen", "cycle:5"),
             ("circulant:12,1,4", "circulant:12,4,5"), ("circulant:12,1,4", "circulant:12,1,5"),
             ("rr12.4.3", "rr12.4.3~"), ("rr12.4.3", "rr12.4.4"), ("rr10.3.1", "rr10.3.2"),
             ("IUHDOHDEO", "ISOXKPoOo")]
    for first, second in pairs:
        paths = []
        for gid in (first, second):
            path = tmp_path / f"{len(paths)}.g6"
            write_graph6_file(str(path), [by_id[gid]])
            paths.append(str(path))
        assert main(["compare", *paths, "--format", "json"]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        expected = compare(profile(by_id[first], first), profile(by_id[second], second))
        assert verdicts == expected.verdicts, (first, second)


def _spy_exact_s3(monkeypatch, nk):
    """Records the graphs whose exact S+(U^3) char poly (dimension nk) is computed."""
    import qwalkspec.invariants as inv

    seen, real = [], inv.char_poly

    def spy(m):
        if m.shape[0] == nk:
            seen.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(inv, "char_poly", spy)
    return seen


def test_twins_without_a_witness_are_decided_by_the_exact_char_poly(monkeypatch, caplog):
    import qwalkspec.invariants as inv

    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    seen = _spy_exact_s3(monkeypatch, 96)
    rng = np.random.default_rng(8)
    corpus = [(f"shr{i}", relabel(shrikhande_graph(), list(rng.permutation(16)))) for i in range(3)]
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.invariants"):
        result = batch_compare(corpus, threads=1)
    assert [r.distinguishing_invariant for r in result.pairs] == [None] * 3
    assert len(seen) == 3  # once per graph, not once per pair
    certificates = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("certificate")]
    assert len(certificates) == 3
    assert all(": s3 cospectral by exact char poly bits=" in line for line in certificates)


def test_workers_compute_the_exact_char_polys_that_pairs_need(monkeypatch, tmp_path):
    import qwalkspec.invariants as inv

    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    rng = np.random.default_rng(8)
    corpus = [(f"shr{i}", relabel(shrikhande_graph(), list(rng.permutation(16)))) for i in range(3)]
    corpus.append(("rook44", rook_graph(4)))
    expected = batch_compare(corpus, threads=1)
    ids = {_s3(g).tobytes(): gid for gid, g in corpus}
    assert len(ids) == 4
    calls, real = tmp_path / "exact.log", inv.char_poly

    def spy(m):  # one line per exact S+(U^3) char poly, from whichever process computes it
        if m.shape[0] == 96:
            with open(calls, "a") as fh:
                fh.write(f"{os.getpid()} {ids[m.tobytes()]}\n")
        return real(m)

    monkeypatch.setattr(inv, "char_poly", spy)
    assert batch_compare(corpus, threads=2) == expected
    by_process: dict = {}
    for line in calls.read_text().splitlines():
        pid, gid = line.split()
        by_process.setdefault(int(pid), []).append(gid)
    # the three twins are open, dealt [shr0, shr2] to task 0 and [shr1] to task 1
    assert by_process.pop(os.getpid()) == ["shr0", "shr2"]
    assert list(by_process.values()) == [["shr1"]]
    assert [r.distinguishing_invariant for r in expected.pairs] == ["s3"] * 3 + [None] * 3


def _equal_traces(monkeypatch):
    """Gives every fingerprint the same S+(U^3) traces, so that no trace proof can apply."""
    import qwalkspec.invariants as inv

    monkeypatch.setattr(inv, "_power_traces", lambda s: (0, 0, 0, 0))


def test_a_trace_tie_without_a_witness_is_split_by_the_exact_char_polys(monkeypatch, caplog):
    _equal_traces(monkeypatch)
    seen = _spy_exact_s3(monkeypatch, 96)
    corpus = [("shrikhande", shrikhande_graph()), ("rook44", rook_graph(4))]
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.invariants"):
        [report] = batch_compare(corpus, threads=1).pairs
    assert report.distinguishing_invariant == "s3"
    assert len(seen) == 2
    bits = max(abs(c).bit_length() for gid, g in corpus for c in profile(g, gid).charpoly_s3.coeffs)
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("certificate")] == [
        f"certificate rook44 vs shrikhande: s3 distinguished by exact char poly bits={bits}"
    ]


def test_each_pair_logs_the_certificate_of_its_s3_verdict(caplog):
    rng = np.random.default_rng(9)
    corpus = [("shrikhande", shrikhande_graph()), ("rook44", rook_graph(4)),
              ("shrikhande~", relabel(shrikhande_graph(), list(rng.permutation(16)))),
              ("petersen", petersen_graph())]
    with caplog.at_level(logging.INFO, logger="qwalkspec.invariants"):
        quiet = batch_compare(corpus, include_cross_class=True, threads=1)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.invariants"):
        result = batch_compare(corpus, include_cross_class=True, threads=1)
    assert result == quiet
    certificates = sorted(r.getMessage() for r in caplog.records
                          if r.getMessage().startswith("certificate"))
    assert len(certificates) == len(result.pairs) == 6
    proofs = [line.split(": s3 ", 1)[1].split("=")[0] for line in certificates]
    assert proofs == [
        "distinguished by degree nk",  # petersen vs rook44
        "distinguished by degree nk",  # petersen vs shrikhande
        "distinguished by degree nk",  # petersen vs shrikhande~
        "distinguished by trace mismatch i",  # rook44 vs shrikhande
        "distinguished by trace mismatch i",  # rook44 vs shrikhande~
        "cospectral by isomorphism witness nodes",  # shrikhande vs shrikhande~
    ]
    assert certificates[0] == "certificate petersen vs rook44: s3 distinguished by degree nk=30/96"
    assert certificates[3] == "certificate rook44 vs shrikhande: s3 distinguished by trace mismatch i=3"


def test_equal_traces_alone_never_decide_s3(monkeypatch, caplog):
    # with the traces forced equal and no witness, the exact polys decide every pair
    import qwalkspec.invariants as inv

    _equal_traces(monkeypatch)
    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    rng = np.random.default_rng(9)
    corpus = [("shrikhande", shrikhande_graph()), ("rook44", rook_graph(4)),
              ("shrikhande~", relabel(shrikhande_graph(), list(rng.permutation(16))))]
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.invariants"):
        result = batch_compare(corpus, threads=1)
    profiles = {gid: profile(g, gid) for gid, g in corpus}
    assert [r.pair for r in result.pairs] == [("rook44", "shrikhande"), ("rook44", "shrikhande~"),
                                             ("shrikhande", "shrikhande~")]
    for report in result.pairs:
        assert report == compare(*(profiles[gid] for gid in report.pair)), report.pair
    certificates = sorted(r.getMessage() for r in caplog.records
                          if r.getMessage().startswith("certificate"))
    assert [line.split(": s3 ", 1)[1].split("=")[0] for line in certificates] == [
        "distinguished by exact char poly bits",  # rook44 vs shrikhande
        "distinguished by exact char poly bits",  # rook44 vs shrikhande~
        "cospectral by exact char poly bits",  # shrikhande vs shrikhande~
    ]


def test_certify_decides_a_trace_tie_by_one_exact_char_poly_per_graph(monkeypatch, caplog):
    import qwalkspec.invariants as inv

    _equal_traces(monkeypatch)
    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    corpus = [("shrikhande", shrikhande_graph()), ("rook44", rook_graph(4))]
    p, q = fingerprints(corpus)
    seen = _spy_exact_s3(monkeypatch, 96)
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.invariants"):
        report = certify(p, q)
    assert seen == [96, 96]  # one exact poly per graph, in the calling process
    assert report.distinguishing_invariant == "s3"
    bits = max(abs(c).bit_length() for gid, g in corpus for c in profile(g, gid).charpoly_s3.coeffs)
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("certificate")] == [
        f"certificate shrikhande vs rook44: s3 distinguished by exact char poly bits={bits}"]


def test_a_fingerprint_holds_no_s3_support_and_pickles_below_its_packed_bits():
    # what a batch parent holds and each worker pickles: the graph, its polys and four traces
    import dataclasses
    import pickle

    [f] = fingerprints([("paley:29", parse_generator_spec("paley:29"))])
    assert [field.name for field in dataclasses.fields(f)] == [
        "graph_id", "graph", "k", "charpoly_a", "psi_squares", "s3_traces"]
    nk = f.n * f.k
    s = _s3(f.graph).astype(np.int64)
    assert nk == 406 and f.s3_traces[:2] == (np.trace(s), int((s * s.T).sum()))
    assert len(pickle.dumps(f)) < nk * nk // 8  # S+(U^3) packed into bits alone would take 20.6 KB


def test_certifying_leaves_every_fingerprint_as_it_was_built(monkeypatch):
    # twins without a witness need the exact polys of S+(U^3)
    import qwalkspec.invariants as inv

    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    rng = np.random.default_rng(8)
    corpus = [(f"shr{i}", relabel(shrikhande_graph(), list(rng.permutation(16)))) for i in range(3)]
    built, real = [], inv._fingerprints

    def spy(checked):
        prints = real(checked)
        built.extend((f, dict(vars(f))) for f in prints)
        return prints

    monkeypatch.setattr(inv, "_fingerprints", spy)
    p, q = fingerprints(corpus[:2])
    assert certify(p, q).distinguishing_invariant is None
    result = batch_compare(corpus, threads=1)
    assert [r.distinguishing_invariant for r in result.pairs] == [None] * 3
    assert len(built) == 5
    for f, before in built:
        assert vars(f).keys() == before.keys(), f.graph_id
        assert all(vars(f)[key] is value for key, value in before.items()), f.graph_id


def _oracle_power_traces(s):
    """(tr S, ..., tr S^4) of an integer matrix, from products of Python ints."""
    s = np.array(s.tolist(), dtype=object)
    powers = [s]
    for _ in range(3):
        powers.append(powers[-1] @ s)
    return tuple(sum(m[i, i] for i in range(len(m))) for m in powers)


def test_s3_traces_are_the_exact_traces_of_the_oracle_w_cubed():
    # nk = 30, 14 and 18 are not multiples of 8 or 64: the packed rows end in padding
    for gid, g in (("petersen", petersen_graph()), ("C7", cycle_graph(7)),
                   ("K33", parse_generator_spec("complete_bipartite:3,3"))):
        w = dense_arc_matrices(build_arc_space(g))["W"]
        w3 = np.array(int_product(np.array(int_product(w, w), dtype=object), w), dtype=object)
        s3 = (w3 > 0).astype(np.int64)
        [f] = fingerprints([(gid, g)])
        assert f.s3_traces == _oracle_power_traces(s3), gid
        assert all(type(t) is int for t in f.s3_traces)
        assert np.array_equal(_s3(g), s3), gid


def test_power_traces_of_random_zero_one_matrices():
    import qwalkspec.invariants as inv

    rng = np.random.default_rng(5)
    for n, density in ((1, 0.5), (7, 0.5), (63, 0.3), (64, 0.9), (65, 0.5), (130, 0.2)):
        s = (rng.random((n, n)) < density).astype(np.int64)
        assert inv._power_traces(s) == _oracle_power_traces(s), n
    full = np.ones((200, 200), dtype=np.int64)  # tr J^i = 200^i, the largest traces of any 0/1 matrix
    assert inv._power_traces(full) == (200, 200**2, 200**3, 200**4)


def _kernel_dims(monkeypatch):
    """Records the dimension of every Hessenberg kernel pass."""
    from qwalkspec import intmat

    dims, kernel = [], intmat._hessenberg_stack

    def spy(h, primes):
        dims.append(h.shape[1])
        return kernel(h, primes)

    monkeypatch.setattr(intmat, "_hessenberg_stack", spy)
    return dims


def test_compare_and_the_batch_benchmark_corpus_run_no_kernel_pass_on_s3(
        monkeypatch, capsys, tmp_path):
    from qwalkspec.cli import main

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    import workloads

    dims = _kernel_dims(monkeypatch)
    assert main(["compare", "shrikhande", "rook:4"]) == 0
    assert "distinguished" in capsys.readouterr().out
    assert 96 not in dims
    corpus = [(f"g{i}", g) for i, (_, g) in enumerate(workloads.BatchCli(7, {}, str(tmp_path)).members)]
    arc_dims = {2 * g.edge_count for _, g in corpus}
    assert arc_dims == {96, 144}
    dims.clear()
    result = batch_compare(corpus, threads=1)
    assert len(result.pairs) == 25
    assert not arc_dims & set(dims)  # no pass: the adjacency polys take the trace or minpoly route
    # the spy sees a pass where one runs: cycle:54's A is outside the trace route's gate
    char_poly(adjacency_matrix(cycle_graph(54)))
    assert dims == [54]


def test_the_batch_benchmark_corpus_adjacency_polys_take_the_trace_route_inside_its_gate(
        monkeypatch, tmp_path, caplog):
    """The 16-vertex 6-regular and 24-vertex 4-regular graphs have k^n < 2^53; the
    24-vertex 6-regular ones (6^24 >= 2^53) take the minimal-polynomial route."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    import workloads

    corpus = [(f"g{i}", g) for i, (_, g) in enumerate(workloads.BatchCli(7, {}, str(tmp_path)).members)]
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.intmat"):
        batch_compare(corpus, threads=1)
    routes = sorted(r.getMessage().split()[1:3] for r in caplog.records if r.getMessage().startswith("charpoly "))
    inside = sorted(["route=traces", f"n={g.n}"] for _, g in corpus if is_regular(g) ** g.n < 2**53)
    outside = [["route=minpoly", f"n={g.n}"] for _, g in corpus if is_regular(g) ** g.n >= 2**53]
    assert len(inside) == 10 and routes == sorted(inside + outside)


def _latin_square_graph(table):
    """Cells of a Latin square, adjacent when they share a row, a column or a symbol."""
    m = len(table)
    cells = [(r, c, table[r][c]) for r in range(m) for c in range(m)]
    return Graph(m * m, [(i, j) for i in range(m * m) for j in range(i + 1, m * m)
                         if any(x == y for x, y in zip(cells[i], cells[j]))])


def _complement(g):
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if (u, v) not in g.edges])


def test_latin_square_srg_16_9_4_6_pair(monkeypatch, caplog):
    from qwalkspec import find_isomorphism, srg_params

    z4 = _latin_square_graph([[(i + j) % 4 for j in range(4)] for i in range(4)])
    z22 = _latin_square_graph([[i ^ j for j in range(4)] for i in range(4)])
    for g in (z4, z22):
        assert (srg_params(g).n, srg_params(g).k, srg_params(g).lam, srg_params(g).mu) == (16, 9, 4, 6)
    # their complements are the Shrikhande graph and the 4 x 4 rook's graph, by checked maps
    for g, h in ((z4, shrikhande_graph()), (z22, rook_graph(4))):
        pi = find_isomorphism(_complement(g), h)
        assert pi is not None and relabel(_complement(g), pi.tolist()) == h
    corpus = [("latin:Z2^2", z22), ("latin:Z4", z4)]
    expected = compare(*(profile(g, gid) for gid, g in corpus))
    assert [expected.verdicts[w] for w in ("a", "s1", "s2")] == ["cospectral"] * 3
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.invariants"):
        report = certify(*fingerprints(corpus))
        _equal_traces(monkeypatch)
        forced = [certify(*fingerprints(corpus))] + batch_compare(corpus, threads=1).pairs
    assert report == expected and forced == [expected] * 2
    assert expected.distinguishing_invariant == "s3"
    bits = max(abs(c).bit_length() for gid, g in corpus for c in profile(g, gid).charpoly_s3.coeffs)
    exact = f"certificate latin:Z2^2 vs latin:Z4: s3 distinguished by exact char poly bits={bits}"
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("certificate")] == [
        "certificate latin:Z2^2 vs latin:Z4: s3 distinguished by trace mismatch i=2", exact, exact]


def _gq33_point_graphs():
    """The point graphs of GQ(3,3): W(3) and Q(4,3), both SRG(40,12,2,4)."""
    def points(dim):
        return [v for v in itertools.product(range(3), repeat=dim) if any(v)
                and next(x for x in v if x) == 1]

    def graph(pts, form):
        return Graph(len(pts), [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
                                if form(pts[i], pts[j]) % 3 == 0])

    w3 = graph(points(4), lambda x, y: x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2])
    quadric = [v for v in points(5) if (v[0] ** 2 + v[1] * v[2] + v[3] * v[4]) % 3 == 0]
    q43 = graph(quadric, lambda x, y: 2 * x[0] * y[0] + x[1] * y[2] + x[2] * y[1]
                + x[3] * y[4] + x[4] * y[3])
    return w3, q43


def test_gq33_point_graphs_are_distinguished_by_the_fourth_trace(caplog):
    from qwalkspec import srg_params

    w3, q43 = _gq33_point_graphs()
    for g in (w3, q43):
        assert (srg_params(g).n, srg_params(g).k, srg_params(g).lam, srg_params(g).mu) == (40, 12, 2, 4)
    p, q = fingerprints([("W(3)", w3), ("Q(4,3)", q43)])
    assert p.s3_traces[:3] == q.s3_traces[:3] and p.s3_traces[3] != q.s3_traces[3]
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.invariants"):
        report = certify(p, q)
    assert report.verdicts == {"a": "cospectral", "s1": "cospectral", "s2": "cospectral",
                               "s3": "distinguished"}
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("certificate")] == [
        "certificate W(3) vs Q(4,3): s3 distinguished by trace mismatch i=4"]


def test_fingerprints_make_no_arc_space_mat_mul(mat_mul_shapes):
    # W^3 comes from the arc structure: no nk x nk product, in any module
    import qwalkspec.invariants as inv

    graphs = [("petersen", petersen_graph()), ("rook44", rook_graph(4)), ("C7", cycle_graph(7))]
    assert [f.graph_id for f in inv.fingerprints(graphs)] == ["petersen", "rook44", "C7"]
    arc_dims = {30, 96, 14}
    assert not [s for s in mat_mul_shapes if arc_dims & set(s)]


def _spy_s3_builds(monkeypatch):
    """Records the n of each graph whose S+(U^3) support is built."""
    import qwalkspec.invariants as inv

    seen, real = [], inv.support_u_power

    def spy(a, m):
        if m == 3:
            seen.append(a.n)
        return real(a, m)

    monkeypatch.setattr(inv, "support_u_power", spy)
    return seen


def test_the_exact_route_builds_each_open_graphs_s3_support_once_more(monkeypatch, capsys):
    """A fingerprint keeps only the traces of S+(U^3): a graph whose pair needs the exact poly
    builds its support once more, however many pairs it is in, and a decided graph does not."""
    import qwalkspec.invariants as inv
    from qwalkspec.cli import main

    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    seen = _spy_s3_builds(monkeypatch)
    assert main(["compare", "shrikhande", "shrikhande", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",cospectral,cospectral,")
    assert seen == [16, 16, 16, 16]  # two fingerprints, then two exact polys
    seen.clear()
    rng = np.random.default_rng(8)
    corpus = [(f"shr{i}", relabel(shrikhande_graph(), list(rng.permutation(16)))) for i in range(3)]
    corpus.append(("petersen", petersen_graph()))
    result = batch_compare(corpus, threads=1)
    assert [r.distinguishing_invariant for r in result.pairs] == [None] * 3
    assert sorted(seen) == [10] + [16] * 6  # petersen, decided by degree, is built once


def _task_corpus():
    """Four nk classes; the nk = 12 class mixes C6, K4, an irregular and a disconnected graph."""
    rng = np.random.default_rng(21)
    return [
        ("c6", cycle_graph(6)),
        ("irregular", Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])),
        ("triangles", Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
        ("k4", complete_graph(4)),
        ("c6~", relabel(cycle_graph(6), [3, 5, 0, 1, 4, 2])),
        ("k4~", relabel(complete_graph(4), [2, 0, 3, 1])),
        ("c5", cycle_graph(5)),
        ("shrikhande", shrikhande_graph()),
        ("c7", cycle_graph(7)),
        ("rook44", rook_graph(4)),
        ("c5~", relabel(cycle_graph(5), [4, 2, 0, 3, 1])),
        ("shrikhande~", relabel(shrikhande_graph(), list(rng.permutation(16)))),
    ]


def test_batch_tasks_give_the_verdicts_of_compare_at_every_thread_count():
    import qwalkspec.invariants as inv

    corpus = _task_corpus()
    # largest edge count first, dealt round-robin into one task per worker;
    # the skipped graphs share their tasks with regular ones
    by_size = ["shrikhande", "rook44", "shrikhande~", "c7", "c6", "irregular", "triangles",
               "k4", "c6~", "k4~", "c5", "c5~"]
    built = []

    def recording_map(fn, tasks):
        tasks = list(tasks)
        if fn is inv._build:
            built.append([[gid for gid, _ in task] for task in tasks])
        return map(fn, tasks)

    layouts = {1: [by_size], 3: [["shrikhande", "c7", "triangles", "k4~"], ["rook44", "c6", "k4", "c5"],
                                 ["shrikhande~", "irregular", "c6~", "c5~"]]}
    for workers, tasks in layouts.items():
        built.clear()
        inv._batch(corpus, True, recording_map, workers)
        assert built == [tasks], workers
    results = [batch_compare(corpus, include_cross_class=True, threads=t) for t in (1, 2, 3)]
    assert results[1] == results[0] and results[2] == results[0]
    assert results[0].skipped == [("irregular", "graph is not regular"),
                                  ("triangles", "graph is not connected")]
    profiles = {gid: profile(g, gid) for gid, g in corpus if gid not in ("irregular", "triangles")}
    assert len(results[0].pairs) == len(profiles) * (len(profiles) - 1) // 2
    for report in results[0].pairs:
        assert report == compare(*(profiles[gid] for gid in report.pair)), report.pair


def test_a_batch_task_computes_one_exact_poly_per_open_graph_largest_nk_first(monkeypatch):
    import qwalkspec.invariants as inv

    _equal_traces(monkeypatch)
    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    corpus = _task_corpus()
    dims, real = [], inv.char_poly

    def spy(m):
        dims.append(m.shape[0])
        return real(m)

    monkeypatch.setattr(inv, "char_poly", spy)
    result = batch_compare(corpus, threads=1)
    # nk 96, 12 and 10 hold 3, 4 and 2 graphs of open pairs, largest nk
    # first; c7, alone at nk = 14, is in no pair and gets no exact poly
    assert dims == [96] * 3 + [12] * 4 + [10] * 2
    assert [r.distinguishing_invariant for r in result.pairs] == [None, None, None, "s3", "s3", None]


def test_a_one_nk_corpus_deals_its_exact_polys_into_one_task_per_worker(monkeypatch):
    import qwalkspec.invariants as inv

    _equal_traces(monkeypatch)
    monkeypatch.setattr(inv, "find_isomorphism", lambda g, h, **kwargs: None)
    rng = np.random.default_rng(12)
    corpus = [(f"shr{i}", relabel(shrikhande_graph(), list(rng.permutation(16)))) for i in range(3)]
    corpus.append(("rook44", rook_graph(4)))  # all four at nk = 96, every pair open
    calls, exact = [], inv._exact_s3

    def spy(prints):
        calls.append([f.graph_id for f in prints])
        return exact(prints)

    monkeypatch.setattr(inv, "_exact_s3", spy)
    result = inv._batch(corpus, False, map, 2)
    assert calls == [["shr0", "shr2"], ["shr1", "rook44"]]
    calls.clear()
    assert batch_compare(corpus, threads=1) == result
    assert calls == [["shr0", "shr1", "shr2", "rook44"]]
    assert [r.distinguishing_invariant for r in result.pairs] == ["s3", "s3", "s3", None, None, None]
