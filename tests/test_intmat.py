import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalkspec import (
    adjacency_matrix,
    bareiss_determinant,
    berkowitz_charpoly,
    build_arc_space,
    char_poly,
    cycle_graph,
    format_matrix,
    int_eye,
    int_matrix,
    int_zeros,
    mat_equal,
    mat_mul,
    mat_pow,
    mat_trace,
    modular_charpoly,
    positive_support,
    scaled_transition_matrix,
)

from oracles import cofactor_charpoly, naive_determinant


def rand_int_matrix(rng, n, lo=-9, hi=9):
    return int_matrix(rng.integers(lo, hi + 1, size=(n, n)).tolist())


def test_int_matrix_constructors():
    m = int_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.int64
    assert mat_equal(int_eye(2), int_matrix([[1, 0], [0, 1]]))
    assert int_eye(2).dtype == np.int64
    assert int_zeros(2, 3).shape == (2, 3)
    assert int_zeros(2, 3).dtype == np.int64
    with pytest.raises(ValueError):
        int_matrix([[1, 2], [3]])


def test_int_matrix_int64_below_2_62_object_from_2_62():
    edge = 2**62
    for x in (edge - 1, -(edge - 1)):
        m = int_matrix([[x, 0]])
        assert m.dtype == np.int64 and m[0, 0] == x
    for x in (edge, -edge):
        m = int_matrix([[x, 0]])
        assert m.dtype == object and m[0, 0] == x and isinstance(m[0, 0], int)
    with pytest.raises(TypeError):
        int_matrix([[1.0, 2]])


def test_mat_mul_int64_inputs_past_the_bound_stay_exact():
    a = int_matrix([[2**40]])
    assert a.dtype == np.int64
    c = mat_mul(a, a)
    assert c.dtype == object and c[0, 0] == 2**80
    # 2 * (2^31)^2 = 2^63 would wrap an int64 accumulator
    b = int_matrix([[2**31, 2**31]])
    assert mat_mul(b, b.T)[0, 0] == 2**63
    small = mat_mul(int_matrix([[3, 1]]), int_matrix([[2], [5]]))
    assert small.dtype == np.int64 and small[0, 0] == 11


def test_mat_mul_identity_and_dims():
    m = int_matrix([[1, 2], [3, 4]])
    assert mat_equal(mat_mul(int_eye(2), m), m)
    with pytest.raises(ValueError):
        mat_mul(m, int_zeros(3, 2))


def test_mat_mul_huge_entries_exact():
    big = 10**50
    a = int_matrix([[big, 1], [0, big]])
    b = int_matrix([[big, 0], [1, big]])
    c = mat_mul(a, b)
    assert c[0, 0] == big * big + 1
    assert c[0, 1] == big
    assert isinstance(c[0, 0], int)


def test_mat_mul_int64_path_matches_object_path():
    rng = np.random.default_rng(0)
    a = rand_int_matrix(rng, 7)
    b = rand_int_matrix(rng, 7)
    fast = mat_mul(a, b)
    slow = np.dot(a, b)
    assert mat_equal(fast, slow)


def test_mat_pow():
    from qwalkspec import complete_graph

    w = scaled_transition_matrix(build_arc_space(complete_graph(4)))
    assert mat_equal(mat_pow(w, 3), mat_mul(w, mat_mul(w, w)))
    assert mat_equal(mat_pow(w, 1), w)
    with pytest.raises(ValueError):
        mat_pow(w, 0)


def test_backends_agree_at_dimension_96():
    # the 96x96 squared-support matrix of an SRG(16,6,2,2) is the largest
    # matrix the experiments meet; both charpoly backends must agree on it
    from qwalkspec import shrikhande_graph, support_u_power

    s2 = support_u_power(build_arc_space(shrikhande_graph()), 2)
    assert berkowitz_charpoly(s2).coeffs == modular_charpoly(s2).coeffs


def test_positive_support_examples():
    z = int_zeros(2, 2)
    assert mat_equal(positive_support(z), z)
    m = int_matrix([[-1, 0], [2, -5]])
    assert positive_support(m).tolist() == [[0, 0], [1, 0]]
    assert positive_support(m).dtype == np.int64
    huge = positive_support(int_matrix([[2**70, -(2**70)]]))
    assert huge.tolist() == [[1, 0]] and huge.dtype == np.int64
    # idempotent
    s = positive_support(m)
    assert mat_equal(positive_support(s), s)


def test_positive_support_of_scaled_walk_c3():
    # at k=2 the scaled walk matrix has entries 0 and 2 only
    w = scaled_transition_matrix(build_arc_space(cycle_graph(3)))
    vals = {int(x) for x in w.flat}
    assert vals == {0, 2}
    assert mat_equal(2 * positive_support(w), w)


def test_sign_pattern_invariant_under_scaling():
    w = scaled_transition_matrix(build_arc_space(cycle_graph(4)))
    for c in (2, 3):
        for m in (2, 3):
            assert mat_equal(
                positive_support(mat_pow(w, m)), positive_support(mat_pow(c * w, m))
            )


def test_charpoly_identity_matrix():
    cp = char_poly(int_eye(3))
    assert cp.coeffs == (-1, 3, -3, 1)  # (t-1)^3


def test_charpoly_adjacency_c3():
    cp = char_poly(adjacency_matrix(cycle_graph(3)))
    assert cp.coeffs == (-2, -3, 0, 1)  # t^3 - 3t - 2


def test_charpoly_reversal_matrix_squares_to_identity():
    a = build_arc_space(cycle_graph(4))
    from qwalkspec import reversal_matrix

    p = reversal_matrix(a)
    assert mat_equal(mat_mul(p, p), int_eye(a.size))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_berkowitz_vs_cofactor_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(8):
        m = rand_int_matrix(rng, n)
        assert list(berkowitz_charpoly(m).coeffs) == cofactor_charpoly(m.tolist())


@pytest.mark.parametrize(
    "n, scale",
    [pytest.param(n, 1, id=str(n)) for n in (1, 2, 5, 9, 17, 30)]
    + [pytest.param(6, 2**62, id="6-entries-from-2^62")],
)
def test_berkowitz_vs_modular(n, scale):
    rng = np.random.default_rng(200 + n)
    m = int_matrix((rng.integers(-20, 21, size=(n, n)).astype(object) * scale).tolist())
    assert (m.dtype == object) == (scale > 1)
    assert berkowitz_charpoly(m).coeffs == modular_charpoly(m).coeffs


def test_modular_handles_structured_matrices():
    # permutation-like and nilpotent matrices exercise the pivot-skip paths
    p = int_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert modular_charpoly(p).coeffs == (-1, 0, 0, 1)  # t^3 - 1
    nil = int_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert modular_charpoly(nil).coeffs == (0, 0, 0, 1)  # t^3
    z = int_zeros(4, 4)
    assert modular_charpoly(z).coeffs == (0, 0, 0, 0, 1)


def test_modular_huge_entries():
    big = 10**30
    m = int_matrix([[big, 1], [1, -big]])
    cp = modular_charpoly(m)
    # det = -big^2 - 1, trace = 0
    assert cp.coeffs == (-(big * big) - 1, 0, 1)


def test_charpoly_methods_agree_on_support_matrices(corpus):
    from qwalkspec import support_u

    for gid, g in corpus:
        nk = 2 * g.edge_count
        if nk > 30:
            continue
        s1 = support_u(build_arc_space(g))
        assert berkowitz_charpoly(s1).coeffs == modular_charpoly(s1).coeffs, gid


def test_charpoly_similarity_invariance():
    rng = np.random.default_rng(5)
    for n in (3, 5, 8):
        m = rand_int_matrix(rng, n)
        perm = rng.permutation(n)
        p = int_zeros(n, n)
        for i, j in enumerate(perm):
            p[j, i] = 1
        conj = mat_mul(p.T, mat_mul(m, p))
        assert char_poly(m).coeffs == char_poly(conj).coeffs


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
def test_charpoly_evaluation_matches_bareiss(n, t0, seed):
    rng = np.random.default_rng(seed)
    m = rand_int_matrix(rng, n)
    shifted = t0 * int_eye(n) - m
    assert char_poly(m).evaluate(t0) == bareiss_determinant(shifted)


def test_bareiss_vs_naive_oracle():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4, 5):
        for _ in range(5):
            m = rand_int_matrix(rng, n)
            assert bareiss_determinant(m) == naive_determinant(m.tolist())


def test_bareiss_singular():
    m = int_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert bareiss_determinant(m) == 0


def test_charpoly_monic_and_det_sign(corpus):
    for gid, g in corpus[:4]:
        a = adjacency_matrix(g)
        cp = char_poly(a)
        assert cp.coeffs[-1] == 1
        assert cp.degree == g.n
        # constant term = (-1)^n det
        assert cp.coeffs[0] == (-1) ** g.n * bareiss_determinant(a)


def test_trace_and_format():
    m = int_matrix([[1, 2], [3, 4]])
    assert mat_trace(m) == 5
    assert format_matrix(m) == "1 2\n3 4"


def test_prime_ceiling_keeps_int64_dots_exact():
    from qwalkspec.intmat import _PRIME_CEILING, _prime_ceiling, _primes

    limit = 2**63 - 1
    # unchanged primes up to dimension 2048, where n * (2^26 - 2)^2 still fits
    for n in (1, 24, 406, 2047, 2048):
        assert _prime_ceiling(n) == _PRIME_CEILING
    for n in (2049, 5050, 10**6):
        c = _prime_ceiling(n)
        assert c < _PRIME_CEILING and c % 2 == 1
        assert n * (c - 1) ** 2 <= limit < n * (c + 1) ** 2
        primes = _primes(4, c)
        assert primes == sorted(set(primes), reverse=True) and primes[0] <= c


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    from qwalkspec.intmat import _is_prime

    def trial_division(q):
        return q >= 2 and all(q % f for f in range(2, int(q**0.5) + 1))

    assert [q for q in range(-2, 20000) if _is_prime(q) != trial_division(q)] == []
    # strong pseudoprimes to every base up to 17, and up to 23; 2^61 - 1 is prime
    assert not _is_prime(341550071728321)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2**61 - 1)
