import networkx as nx
import numpy as np
import pytest
from oracles import nested_list_adjacency_matrix, pairwise_srg_params

from qwalkspec import (
    Graph,
    ParameterError,
    SrgParams,
    adjacency_matrix,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    find_isomorphism,
    generate,
    hypercube_graph,
    paley_graph,
    parse_generator_spec,
    petersen_graph,
    relabel,
    rook_graph,
    shrikhande_graph,
    srg_params,
    write_graph6,
)


def test_graph_normalizes_and_validates():
    g = Graph(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edges == frozenset({(1, 2), (0, 3)})
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(0, [])


def test_graph_takes_integers_only_and_stores_python_ints():
    for n, edges in ((3, [(0.5, 1), (1, 2), (0, 2)]), (3.0, [(0, 1)]), (3, [(0, 1.0)])):
        with pytest.raises(TypeError):
            Graph(n, edges)
    g = Graph(np.int64(3), [(np.int64(0), np.int32(1)), (np.uint8(2), 1)])
    assert g == Graph(3, [(0, 1), (1, 2)])
    assert type(g.n) is int and {type(x) for e in g.edges for x in e} == {int}


def test_cycle3_edges():
    assert cycle_graph(3).edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_petersen_shape():
    g = petersen_graph()
    assert g.n == 10
    assert g.edge_count == 15
    assert g.valency == 3
    assert g.connected


def test_adjacency_matrix_c3_and_empty():
    a = adjacency_matrix(cycle_graph(3))
    assert a.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    z = adjacency_matrix(Graph(3, []))
    assert z.tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_adjacency_matrix_equals_the_nested_list_builder():
    specs = ("cycle:7", "complete:5", "complete_bipartite:2,3", "petersen", "hypercube:4",
             "circulant:12,1,5", "shrikhande", "rook:4", "paley:13")
    graphs = [parse_generator_spec(spec) for spec in specs] + [Graph(1, []), Graph(5, [])]
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = int(rng.integers(0, len(pairs) + 1))
        graphs.append(Graph(n, [pairs[i] for i in rng.choice(len(pairs), m, replace=False)]))
    for g in graphs:
        a = adjacency_matrix(g)
        assert a.dtype == np.int64 and a.shape == (g.n, g.n)
        assert np.array_equal(a, nested_list_adjacency_matrix(g))


def test_adjacency_matrix_structure(corpus):
    for _, g in corpus:
        a = adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert all(a[i, i] == 0 for i in range(g.n))
        assert sum(int(x) for x in a.flat) == 2 * g.edge_count


def test_petersen_adjacency_row_sums():
    a = adjacency_matrix(petersen_graph())
    assert all(sum(row) == 3 for row in a.tolist())


def test_is_regular_cases():
    assert cycle_graph(6).valency == 2
    assert Graph(3, [(0, 1)]).valency is None
    assert Graph(2, []).valency == 0


def test_disjoint_cycles_regular_not_connected():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert g.valency == 2
    assert not g.connected


def test_srg_params_examples():
    assert srg_params(petersen_graph()) == SrgParams(10, 3, 0, 1)
    assert srg_params(cycle_graph(6)) is None  # mu not constant
    assert srg_params(cycle_graph(5)) == SrgParams(5, 2, 0, 1)
    assert srg_params(Graph(3, [(0, 1)])) is None  # not regular
    assert srg_params(complete_graph(5)) is None  # no non-adjacent pair
    assert srg_params(Graph(4, [])) is None  # no edge
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert srg_params(prism) is None  # 3-regular, but lambda is 1 on triangles, 0 on rungs


def test_srg_params_match_pairwise_reference(corpus):
    rng = np.random.default_rng(5)
    graphs = [g for _, g in corpus]
    for _ in range(60):
        n = int(rng.integers(1, 10))
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.5]))
    graphs += [paley_graph(17), rook_graph(3), Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]
    for g in graphs:
        p = srg_params(g)
        assert (None if p is None else (p.n, p.k, p.lam, p.mu)) == pairwise_srg_params(g)


@pytest.mark.parametrize(
    "spec, expected",
    [("paley:61", (61, 30, 14, 15)), ("rook:5,5", (25, 8, 3, 2)), ("complete_bipartite:4,4", (8, 4, 0, 4)),
     ("hypercube:4", None)],
    ids=["paley:61", "rook:5,5", "complete_bipartite:4,4", "hypercube:4"],
)
def test_srg_params_of_larger_generated_graphs_match_pairwise_reference(spec, expected):
    # A^2 is a plain int64 product: its entries count common neighbours, at most n
    g = parse_generator_spec(spec)
    p = srg_params(g)
    assert (None if p is None else (p.n, p.k, p.lam, p.mu)) == pairwise_srg_params(g) == expected


def test_srg_shrikhande_and_rook():
    s = srg_params(shrikhande_graph())
    r = srg_params(rook_graph(4))
    assert s == SrgParams(16, 6, 2, 2)
    assert r == SrgParams(16, 6, 2, 2)
    assert shrikhande_graph() != rook_graph(4)


def test_srg_paley13():
    assert srg_params(paley_graph(13)) == SrgParams(13, 6, 2, 3)


def test_srg_feasibility_enforced():
    with pytest.raises(ValueError):
        SrgParams(10, 3, 0, 2)


def test_generated_srgs_satisfy_feasibility():
    for g in (petersen_graph(), shrikhande_graph(), rook_graph(4), paley_graph(13)):
        p = srg_params(g)
        assert p is not None
        assert p.k * (p.k - p.lam - 1) == (p.n - p.k - 1) * p.mu


def test_generator_errors():
    with pytest.raises(ParameterError):
        cycle_graph(2)
    with pytest.raises(ParameterError):
        paley_graph(7)  # 7 = 3 mod 4
    # prime powers and Carmichael numbers, all = 1 mod 4
    for q in (9, 25, 561, 1105):
        with pytest.raises(ParameterError):
            paley_graph(q)
    with pytest.raises(ParameterError):
        rook_graph(4, 5)
    with pytest.raises(ParameterError):
        circulant_graph(6, [6])
    with pytest.raises(ParameterError):
        generate("moebius", 5)


def test_circulant_needs_a_connection():
    with pytest.raises(ParameterError, match="empty connection set"):
        circulant_graph(5, [])


@pytest.mark.parametrize("g", [
    Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),  # 2K3: mu = 0
    Graph(6, [(0, 1), (2, 3), (4, 5)]),  # 3K2: k = 1, lambda = mu = 0
    complete_bipartite_graph(3, 3),  # lambda = 0, mu = 3
    cycle_graph(4),
], ids=["2K3", "3K2", "K33", "C4"])
def test_one_lambda_and_one_mu_are_always_feasible(g):
    """k(k - lambda - 1) = (n - k - 1) mu counts the 2-walks from a vertex to its non-neighbours,
    so ``srg_params`` needs no check of its own: disconnected and bipartite cases included."""
    p = srg_params(g)
    assert p is not None and (p.n, p.k, p.lam, p.mu) == pairwise_srg_params(g)


def test_generate_dispatch_and_spec_parsing():
    assert generate("cycle", 5) == cycle_graph(5)
    assert generate("rook", 4, 4) == rook_graph(4)
    assert parse_generator_spec("complete_bipartite:3,3") == complete_bipartite_graph(3, 3)
    assert parse_generator_spec("circulant:8,1,2") == circulant_graph(8, [1, 2])
    assert parse_generator_spec("petersen") == petersen_graph()
    with pytest.raises(ParameterError):
        parse_generator_spec("cycle:x")


# graph6 of each family member as built before the group families shared one Cayley builder
_PINNED_GRAPH6 = {
    "cycle:5": "Dhc",
    "complete:4": "C~",
    "complete_bipartite:2,3": "D]o",
    "petersen": "IheA@GUAo",
    "hypercube:3": "Gr`HOk",
    "circulant:10,1,4": "IhdLIchdG",
    "circulant:10,-1,13": "IlSgkTDgg",
    "shrikhande": "OlfJHsHBGK_\\oHWKeBK_\\",
    "rook:3": "H{S{aSf",
    "paley:13": "LlthgsL`mEkLkL",
}


@pytest.mark.parametrize("spec", _PINNED_GRAPH6)
def test_every_family_keeps_its_vertex_numbering(spec):
    """The numbering of each family is part of its contract: the graph6 string, which encodes
    the adjacency matrix in vertex order, stays as pinned."""
    assert write_graph6(parse_generator_spec(spec)) == _PINNED_GRAPH6[spec]


def test_hypercube():
    q3 = hypercube_graph(3)
    assert q3.n == 8
    assert q3.valency == 3
    assert q3.connected


def test_circulant_matches_cycle():
    assert circulant_graph(7, [1]) == cycle_graph(7)


def test_relabel_preserves_predicates(corpus):
    rng = np.random.default_rng(42)
    for _, g in corpus:
        perm = list(rng.permutation(g.n))
        h = relabel(g, perm)
        assert h.valency == g.valency
        assert h.connected == g.connected
        assert srg_params(h) == srg_params(g)
        isolated_h, isolated_g = ((adjacency_matrix(x).sum(axis=1) == 0).sum() for x in (h, g))
        assert isolated_h == isolated_g


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValueError):
        relabel(cycle_graph(3), [0, 0, 1])


def _twins():
    """(name, g, h): h is g under a random relabelling or, for the circulant, a multiplier."""
    rng = np.random.default_rng(11)
    out = []
    for spec in ("petersen", "shrikhande", "paley:13", "hypercube:4"):
        g = parse_generator_spec(spec)
        out.append((spec, g, relabel(g, list(rng.permutation(g.n)))))
    connections = (1, 4, 9)
    out.append(("circulant:24,1,4,9", circulant_graph(24, connections),
                circulant_graph(24, [5 * c % 24 for c in connections])))
    return out


@pytest.mark.parametrize("name, g, h", _twins(), ids=[t[0] for t in _twins()])
def test_find_isomorphism_returns_a_checked_map_on_twins(name, g, h):
    stats = {}
    pi = find_isomorphism(g, h, stats=stats)
    assert pi is not None, name
    assert sorted(pi.tolist()) == list(range(g.n))
    a_g, a_h = adjacency_matrix(g), adjacency_matrix(h)
    assert np.array_equal(a_h[pi][:, pi], a_g)
    assert relabel(g, pi.tolist()) == h
    assert 1 <= stats["nodes"] < 20


def test_find_isomorphism_rejects_shrikhande_against_rook44(monkeypatch):
    from qwalkspec import graphs

    # Same SRG parameters, so refinement of the whole graphs cannot tell them apart.
    g, h = shrikhande_graph(), rook_graph(4)
    assert srg_params(g) == srg_params(h)
    assert find_isomorphism(g, h) is None
    # Without refinement every branch reaches a discrete colouring, a bijection that
    # only the final adjacency check can reject.
    monkeypatch.setattr(graphs, "_refine", lambda adj, colours, n: colours)
    monkeypatch.setattr(graphs, "ISOMORPHISM_BUDGET", 200)
    stats = {}
    assert find_isomorphism(g, h, stats=stats) is None
    assert stats["nodes"] == 200
    assert find_isomorphism(g, g) is not None  # and the check passes a true isomorphism


def test_find_isomorphism_gives_up_when_the_budget_runs_out(monkeypatch):
    from qwalkspec import graphs

    g = petersen_graph()
    h = relabel(g, [3, 7, 1, 9, 0, 2, 8, 4, 6, 5])
    assert find_isomorphism(g, h) is not None
    monkeypatch.setattr(graphs, "ISOMORPHISM_BUDGET", 1)
    stats = {}
    assert find_isomorphism(g, h, stats=stats) is None  # one cell: must branch
    assert stats["nodes"] == 1


def test_find_isomorphism_needs_equal_vertex_and_edge_counts():
    stats = {}
    assert find_isomorphism(cycle_graph(5), cycle_graph(6), stats=stats) is None
    assert stats["nodes"] == 0
    assert find_isomorphism(cycle_graph(4), Graph(4, [(0, 1), (1, 2), (2, 3)]), stats=stats) is None
    assert stats["nodes"] == 0


def test_find_isomorphism_agrees_with_networkx_on_small_graphs():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(120):
        n = int(rng.integers(2, 8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = int(rng.integers(0, len(pairs) + 1))
        g, h = (Graph(n, [pairs[i] for i in rng.choice(len(pairs), m, replace=False)])
                for _ in range(2))
        stats = {}
        pi = find_isomorphism(g, h, stats=stats)
        assert stats["nodes"] < 512  # the search finished inside its budget
        nx_g, nx_h = (nx.Graph(list(x.edges)) for x in (g, h))
        nx_g.add_nodes_from(range(n))
        nx_h.add_nodes_from(range(n))
        assert (pi is not None) == nx.is_isomorphic(nx_g, nx_h)
        if pi is not None:
            assert relabel(g, pi.tolist()) == h
            found += 1
    assert 10 < found < 110
