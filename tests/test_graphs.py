import numpy as np
import pytest

from qwalkspec import (
    Graph,
    ParameterError,
    SrgParams,
    adjacency_matrix,
    circulant_graph,
    complete_bipartite_graph,
    cycle_graph,
    degrees,
    generate,
    hypercube_graph,
    is_connected,
    is_regular,
    paley_graph,
    parse_generator_spec,
    petersen_graph,
    relabel,
    rook_graph,
    shrikhande_graph,
    srg_params,
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


def test_cycle3_edges():
    assert cycle_graph(3).edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_petersen_shape():
    g = petersen_graph()
    assert g.n == 10
    assert g.edge_count == 15
    assert is_regular(g) == 3
    assert is_connected(g)


def test_adjacency_matrix_c3_and_empty():
    a = adjacency_matrix(cycle_graph(3))
    assert a.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    z = adjacency_matrix(Graph(3, []))
    assert z.tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


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
    assert is_regular(cycle_graph(6)) == 2
    assert is_regular(Graph(3, [(0, 1)])) is None
    assert is_regular(Graph(2, [])) == 0


def test_disjoint_cycles_regular_not_connected():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert is_regular(g) == 2
    assert not is_connected(g)


def test_srg_params_examples():
    assert srg_params(petersen_graph()) == SrgParams(10, 3, 0, 1)
    assert srg_params(cycle_graph(6)) is None  # mu not constant
    assert srg_params(cycle_graph(5)) == SrgParams(5, 2, 0, 1)
    assert srg_params(Graph(3, [(0, 1)])) is None  # not regular


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


def test_generate_dispatch_and_spec_parsing():
    assert generate("cycle", 5) == cycle_graph(5)
    assert generate("rook", 4, 4) == rook_graph(4)
    assert parse_generator_spec("complete_bipartite:3,3") == complete_bipartite_graph(3, 3)
    assert parse_generator_spec("circulant:8,1,2") == circulant_graph(8, [1, 2])
    assert parse_generator_spec("petersen") == petersen_graph()
    with pytest.raises(ParameterError):
        parse_generator_spec("cycle:x")


def test_hypercube():
    q3 = hypercube_graph(3)
    assert q3.n == 8
    assert is_regular(q3) == 3
    assert is_connected(q3)


def test_circulant_matches_cycle():
    assert circulant_graph(7, [1]) == cycle_graph(7)


def test_relabel_preserves_predicates(corpus):
    rng = np.random.default_rng(42)
    for _, g in corpus:
        perm = list(rng.permutation(g.n))
        h = relabel(g, perm)
        assert is_regular(h) == is_regular(g)
        assert is_connected(h) == is_connected(g)
        assert srg_params(h) == srg_params(g)
        assert degrees(h).count(0) == degrees(g).count(0)


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValueError):
        relabel(cycle_graph(3), [0, 0, 1])
