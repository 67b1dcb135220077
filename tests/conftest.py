import pytest

from qwalkspec import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    paley_graph,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
)


def corpus_graphs():
    """The named test corpus: (id, graph) in a fixed order."""
    return [
        ("C3", cycle_graph(3)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("K6", complete_graph(6)),
        ("K33", complete_bipartite_graph(3, 3)),
        ("petersen", petersen_graph()),
        ("Q3", hypercube_graph(3)),
        ("paley13", paley_graph(13)),
        ("shrikhande", shrikhande_graph()),
        ("rook44", rook_graph(4)),
    ]


@pytest.fixture(scope="session")
def corpus():
    return corpus_graphs()


@pytest.fixture(scope="session")
def small_corpus():
    """Corpus members cheap enough for per-test exact recomputation."""
    return [(gid, g) for gid, g in corpus_graphs() if 2 * g.edge_count <= 30]
