import numpy as np
import pytest

from qwalkspec import (
    adjacency_matrix,
    bareiss_determinant,
    complete_graph,
    int_matrix,
    petersen_graph,
    symmetric_eigenvalues,
)


def test_k4_spectrum():
    vals = symmetric_eigenvalues(adjacency_matrix(complete_graph(4)))
    assert np.allclose(vals, [-1, -1, -1, 3], atol=1e-9)


def test_petersen_spectrum():
    vals = symmetric_eigenvalues(adjacency_matrix(petersen_graph()))
    expected = [-2] * 4 + [1] * 5 + [3]
    assert np.allclose(vals, expected, atol=1e-9)


def test_zero_matrix():
    vals = symmetric_eigenvalues(np.zeros((4, 4), dtype=np.int64))
    assert np.array_equal(vals, np.zeros(4))


def test_non_symmetric_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eigenvalues(int_matrix([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="square"):
        symmetric_eigenvalues(np.zeros((2, 3), dtype=np.int64))


def test_sum_matches_trace_product_matches_det():
    rng = np.random.default_rng(11)
    for n in (2, 4, 7, 10):
        m = rng.integers(-5, 6, size=(n, n))
        m = m + m.T
        mi = int_matrix(m.tolist())
        vals = symmetric_eigenvalues(mi)
        assert abs(vals.sum() - int(mi.trace())) < 1e-8
        det = bareiss_determinant(mi)
        if det != 0:
            assert abs(np.prod(vals) - det) < 1e-6 * abs(det) + 1e-8


def test_matches_numpy_eigvalsh():
    rng = np.random.default_rng(12)
    for n in (3, 6, 12):
        m = rng.integers(-4, 5, size=(n, n))
        m = m + m.T
        mine = symmetric_eigenvalues(int_matrix(m.tolist()))
        ref = np.sort(np.linalg.eigvalsh(m.astype(float)))
        assert np.allclose(mine, ref, atol=1e-9)


def test_multiplicities_preserved():
    # diag(2, 2, 2, 7) rotated by a similarity stays {2,2,2,7}
    vals = symmetric_eigenvalues(int_matrix([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 7]]))
    assert np.allclose(vals, [2, 2, 2, 7])
