import importlib
import pkgutil

import pytest

import qwalkspec
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


@pytest.fixture
def mat_mul_shapes(monkeypatch):
    """Operand shapes of every ``mat_mul`` call from any qwalkspec module, as a + b tuples."""
    shapes = []
    for info in pkgutil.iter_modules(qwalkspec.__path__):
        module = importlib.import_module(f"qwalkspec.{info.name}")
        real = getattr(module, "mat_mul", None)
        if real is not None:
            def spy(a, b, real=real):
                shapes.append(a.shape + b.shape)
                return real(a, b)
            monkeypatch.setattr(module, "mat_mul", spy)
    return shapes
