import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qwalkspec import (
    adjacency_matrix,
    bareiss_determinant,
    build_arc_space,
    char_poly,
    cycle_graph,
    int_eye,
    int_matrix,
    mat_equal,
    mat_mul,
    modular_charpoly,
    positive_support,
    scaled_transition_matrix,
)

from oracles import berkowitz_charpoly, cofactor_charpoly, int_product, naive_determinant


def rand_int_matrix(rng, n, lo=-9, hi=9):
    return int_matrix(rng.integers(lo, hi + 1, size=(n, n)).tolist())


def _permutation_sum(rng, n, outside_gate=True):
    """The sum of three random n x n permutation matrices, times the least c with (3c)^n >= 2^53.

    Row and column sums 3c, so ``outside_gate`` keeps it off the trace route (which needs
    r^n < 2^53), and (for these seeds) a minimal polynomial of degree above n / 2, so
    the char poly takes the kernel.  Without ``outside_gate``, c = 1 and the trace route takes it.
    """
    c = 1
    while outside_gate and (3 * c) ** n < 2**53:
        c += 1
    return c * sum(int_eye(n)[rng.permutation(n)] for _ in range(3))


def test_int_matrix_constructors():
    m = int_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.int64
    assert mat_equal(int_eye(2), int_matrix([[1, 0], [0, 1]]))
    assert int_eye(2).dtype == np.int64
    with pytest.raises(ValueError):
        int_matrix([[1, 2], [3]])


def test_int_matrix_int64_below_2_62_overflow_from_2_62():
    edge = 2**62
    for x in (edge - 1, -(edge - 1)):
        m = int_matrix([[x, 0]])
        assert m.dtype == np.int64 and m[0, 0] == x
    for x in (edge, -edge, 2**63, -(2**63), 10**50):
        with pytest.raises(OverflowError):
            int_matrix([[x, 0]])
    with pytest.raises(TypeError):
        int_matrix([[1.0, 2]])


def test_mat_mul_raises_overflow_when_its_bound_reaches_2_62():
    a = int_matrix([[2**40]])
    with pytest.raises(OverflowError):
        mat_mul(a, a)
    # 2 * (2^31)^2 = 2^63 would wrap an int64 accumulator
    b = int_matrix([[2**31, 2**31]])
    with pytest.raises(OverflowError):
        mat_mul(b, b.T)
    small = mat_mul(int_matrix([[3, 1]]), int_matrix([[2], [5]]))
    assert small.dtype == np.int64 and small[0, 0] == 11


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: char_poly(np.array([[0.5, 1.0], [2.0, 3.0]])), TypeError, id="float"),
        pytest.param(lambda: char_poly(np.array([[1.9]])), TypeError, id="float-1x1"),
        pytest.param(
            lambda: char_poly(np.array([[2**63 + 5, 1], [1, 0]], dtype=np.uint64)),
            OverflowError,
            id="uint64-from-2^63",
        ),
        pytest.param(lambda: mat_mul(np.array([[0.5]]), np.array([[0.5]])), TypeError, id="mat_mul"),
        pytest.param(
            lambda: bareiss_determinant(np.array([[0.5, 1], [2, 3]])), TypeError, id="bareiss"
        ),
        pytest.param(lambda: positive_support(np.array([[1j]])), TypeError, id="complex-support"),
        pytest.param(
            lambda: modular_charpoly(np.array([[1, 2], [3, 4]], dtype=object)),
            TypeError,
            id="object",
        ),
        pytest.param(lambda: int_matrix([[2**62]]), OverflowError, id="int_matrix-2^62"),
    ],
)
def test_inexact_or_oversized_matrices_are_rejected_not_truncated(call, error):
    with pytest.raises(error, match="int_matrix" if error is TypeError else "2\\^62"):
        call()


def test_mat_mul_identity_and_dims():
    m = int_matrix([[1, 2], [3, 4]])
    assert mat_equal(mat_mul(int_eye(2), m), m)
    with pytest.raises(ValueError):
        mat_mul(m, np.zeros((3, 2), dtype=np.int64))


def test_mat_mul_rejects_entries_from_2_62():
    one, zero = int_matrix([[1]]), np.zeros((1, 1), dtype=np.int64)
    assert mat_mul(int_matrix([[2**62 - 1]]), one)[0, 0] == 2**62 - 1
    # the entry check, not the product bound (which is 0 here), rejects these
    for big in (np.array([[x]]) for x in (2**62, -(2**62), -(2**63))):
        with pytest.raises(OverflowError):
            mat_mul(big, zero)
        with pytest.raises(OverflowError):
            mat_mul(zero, big)
    with pytest.raises(OverflowError):
        mat_mul(np.array([[2**63 + 5]], dtype=np.uint64), zero)


@st.composite
def _mat_mul_operands(draw):
    rows, inner, cols = draw(st.tuples(*[st.integers(0, 4)] * 3))

    def matrix(r, c):
        hi = 2 ** draw(st.integers(0, 62)) - 1
        entry = st.one_of(st.sampled_from([-hi, hi]), st.integers(-hi, hi))
        flat = draw(st.lists(entry, min_size=r * c, max_size=r * c))
        return np.array(flat, dtype=np.int64).reshape(r, c)

    return matrix(rows, inner), matrix(inner, cols)


@settings(max_examples=200, deadline=None)
@given(_mat_mul_operands())
@example((int_matrix([[2**61 - 1]]), int_matrix([[2]])))  # bound 2^62 - 2: fits
@example((int_matrix([[2**61]]), int_matrix([[2]])))  # bound exactly 2^62
@example((int_matrix([[2**31, -(2**31)]]), int_matrix([[2**30], [2**30]])))  # 2^62, true product 0
def test_mat_mul_equals_the_int_product_or_raises_exactly_when_its_bound_reaches_2_62(operands):
    a, b = operands
    top = [max((abs(int(x)) for x in m.flat), default=0) for m in (a, b)]
    if a.shape[1] * top[0] * top[1] >= 2**62:
        with pytest.raises(OverflowError):
            mat_mul(a, b)
    else:
        c = mat_mul(a, b)
        assert c.dtype == np.int64 and c.tolist() == int_product(a, b)


def test_backends_agree_at_dimension_96():
    # the 96x96 squared-support matrix of an SRG(16,6,2,2) is the largest
    # matrix the experiments meet; both charpoly backends must agree on it
    from qwalkspec import shrikhande_graph, support_u_power

    s2 = support_u_power(build_arc_space(shrikhande_graph()), 2)
    assert berkowitz_charpoly(s2).coeffs == modular_charpoly(s2).coeffs


def _debug_fields(records) -> list:
    """The key=value fields of each ``charpoly`` debug line."""
    assert all(r.getMessage().startswith("charpoly ") for r in records)
    return [dict(part.split("=") for part in r.getMessage().split()[1:]) for r in records]


def test_modular_charpoly_logs_one_debug_line_only_when_enabled(caplog):
    from qwalkspec import char_polys, intmat, petersen_graph, support_u, support_u_power

    a = build_arc_space(petersen_graph())
    s1, s2, s3 = support_u(a), support_u_power(a, 2), support_u_power(a, 3)
    with caplog.at_level(logging.INFO, logger="qwalkspec.intmat"):
        quiet = modular_charpoly(s3)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.intmat"):
        cp = modular_charpoly(s3)
    assert cp == quiet == berkowitz_charpoly(s3)
    [fields] = _debug_fields(caplog.records)
    assert sorted(fields) == ["bound_bits", "cert_primes", "krylov_degree", "krylov_terms", "ms",
                              "mu_primes", "n", "route"]
    assert fields["route"] == "minpoly" and int(fields["n"]) == 30
    assert 1 <= int(fields["krylov_degree"]) <= 15
    # Berlekamp-Massey stops once its length d has held for the margin past 2d
    assert int(fields["krylov_terms"]) == 2 * int(fields["krylov_degree"]) + intmat._KRYLOV_MARGIN
    assert int(fields["mu_primes"]) == 1 and fields["cert_primes"] == "0"  # one-prime lift, float64 check
    assert float(fields["bound_bits"]) > 0
    assert float(fields["ms"]) >= 0

    # Matrices that fall back get the kernel's line, one per matrix, with the reason; the two
    # 30 x 30 ones share a pass, the 10 x 10 one does not.
    rng = np.random.default_rng(3)
    r30, r10, r30b = (_permutation_sum(rng, n) for n in (30, 10, 30))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.intmat"):
        polys = char_polys([r30, r10, r30b])
    lines = _debug_fields(caplog.records)
    assert all(sorted(f) == ["actual_bits", "bound_bits", "n", "pass_matrices", "pass_ms", "primes",
                             "reason", "route"] for f in lines)
    assert [(f["n"], f["pass_matrices"], f["route"], f["reason"]) for f in lines] == [
        ("30", "2", "hessenberg", "degree"), ("30", "2", "hessenberg", "degree"),
        ("10", "1", "hessenberg", "degree"),
    ]
    assert lines[0]["pass_ms"] == lines[1]["pass_ms"]
    assert [int(f["actual_bits"]) for f in lines] == [
        max(abs(c).bit_length() for c in p.coeffs) for p in (polys[0], polys[2], polys[1])
    ]
    assert all(int(f["actual_bits"]) < float(f["bound_bits"]) and int(f["primes"]) >= 1 for f in lines)

    # Matrices of three routes in one call: each gets its own line, in order within a dimension.
    # S+(U) has r = 2 and 2^30 < 2^53, so the trace route takes it, and its line has n and ms only.
    expected = [char_poly(s1), char_poly(s2), polys[1], cp]
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.intmat"):
        assert char_polys([s1, s2, r10, s3]) == expected
    lines = _debug_fields(caplog.records)
    assert [(f["n"], f["route"]) for f in lines] == [
        ("30", "traces"), ("30", "minpoly"), ("30", "minpoly"), ("10", "hessenberg"),
    ]
    assert sorted(lines[0]) == ["ms", "n", "route"] and float(lines[0]["ms"]) >= 0


def test_positive_support_examples():
    z = np.zeros((2, 2), dtype=np.int64)
    assert mat_equal(positive_support(z), z)
    m = int_matrix([[-1, 0], [2, -5]])
    assert positive_support(m).tolist() == [[0, 0], [1, 0]]
    assert positive_support(m).dtype == np.int64
    edge = positive_support(int_matrix([[2**62 - 1, -(2**62 - 1)]]))
    assert edge.tolist() == [[1, 0]] and edge.dtype == np.int64
    flags = positive_support(np.array([[True, False]]))
    assert flags.tolist() == [[1, 0]] and flags.dtype == np.int64
    # idempotent
    s = positive_support(m)
    assert mat_equal(positive_support(s), s)


def test_positive_support_of_scaled_walk_c3():
    # at k=2 the scaled walk matrix has entries 0 and 2 only
    w = scaled_transition_matrix(build_arc_space(cycle_graph(3)))
    vals = {int(x) for x in w.flat}
    assert vals == {0, 2}
    assert mat_equal(2 * positive_support(w), w)


def _power(m, e):
    """m^e by a chain of e - 1 mat_mul calls."""
    out = m
    for _ in range(e - 1):
        out = mat_mul(out, m)
    return out


def test_sign_pattern_invariant_under_scaling():
    w = scaled_transition_matrix(build_arc_space(cycle_graph(4)))
    for c in (2, 3):
        for m in (2, 3):
            assert mat_equal(
                positive_support(_power(w, m)), positive_support(_power(c * w, m))
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
    + [pytest.param(6, 2**56, id="6-entries-multiples-of-2^56")],
)
def test_berkowitz_vs_modular(n, scale):
    rng = np.random.default_rng(200 + n)
    m = int_matrix((rng.integers(-20, 21, size=(n, n)).astype(object) * scale).tolist())
    assert m.dtype == np.int64
    assert berkowitz_charpoly(m).coeffs == modular_charpoly(m).coeffs


def test_modular_handles_structured_matrices():
    # permutation-like and nilpotent matrices exercise the pivot-skip paths
    p = int_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert modular_charpoly(p).coeffs == (-1, 0, 0, 1)  # t^3 - 1
    nil = int_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert modular_charpoly(nil).coeffs == (0, 0, 0, 1)  # t^3
    z = np.zeros((4, 4), dtype=np.int64)
    assert modular_charpoly(z).coeffs == (0, 0, 0, 0, 1)


def test_modular_huge_entries():
    big = 2**61 - 1
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
        p = np.zeros((n, n), dtype=np.int64)
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
    assert int(m.trace()) == 5
    assert str(m) == "[[1 2]\n [3 4]]"


def test_prime_ceiling_is_tight_for_float64_sums():
    from qwalkspec.intmat import _PANEL, _prime_ceiling, _primes

    for n in (1, 2, 24, 96, 128, 406, 2048, 2049, 10**6):
        rounded = 1 << (n - 1).bit_length()
        terms = rounded + 2 * _PANEL + 2
        c = _prime_ceiling(n)
        assert c % 2 == 1 and _prime_ceiling(rounded) == c
        # c is the largest odd number whose symmetric residues keep every sum below 2^53
        assert terms * ((c + 1) // 2) ** 2 < 2**53 <= terms * ((c + 3) // 2) ** 2
        primes = _primes(6, c)
        assert primes == sorted(set(primes), reverse=True)
        assert primes[0] <= c and all(q % 2 for q in primes)


def _ceiling_primes():
    from qwalkspec.intmat import _prime_ceiling, _primes

    return sorted({q for n in (1, 96, 406, 2048) for q in _primes(20, _prime_ceiling(n))})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ceiling_primes()), st.integers(-(2**53), 2**53))
# Rounding x * (1/p) in place of x / p gives |r| = (p + 3) / 2 on this one.
@example(4128193, 9007199237995862)
@example(13627741, 2**53 - 13627741)
@example(13627741, -(2**53 - 13627741))
def test_reduce_gives_exact_symmetric_residues(p, x):
    from qwalkspec.intmat import _reduce

    assume(abs(x) <= 2**53 - p)  # the precondition of _reduce
    r = _reduce(np.array([float(x)]), np.float64(p))[0]
    assert r == int(r) and (x - int(r)) % p == 0
    assert abs(r) <= (p + 1) // 2


def _pivot_split_matrix(n, seed, big):
    """A matrix whose second Hessenberg pivot is divisible by exactly one prime of its CRT plan.

    With M[1, 0] = 1 the first Gauss transform is integral, so the entry H[2, 1]
    it leaves is an integer; M[2, 1] is shifted to make it the largest prime
    below the ceiling, times 2^37 when ``big``: a power of two adds no odd
    prime, and 2^37 keeps the entry below 2^62 where 2^38 would not.  That
    prime is always in the plan, and only it divides the entry.
    """
    from qwalkspec.intmat import _prime_ceiling, _primes

    rng = np.random.default_rng(seed)
    m = rng.integers(-9, 10, size=(n, n)).astype(object)
    m[1, 0] = 1
    lower = [int(m[i, 0]) for i in range(2, n)]
    # H[2, 1] of L^-1 M L with L = I + u e_1^T, u = (0, 0, M[2, 0], ..., M[n-1, 0])
    h21 = m[2, 1] - lower[0] * m[1, 1] + sum(
        (m[2, k] - lower[0] * m[1, k]) * lower[k - 2] for k in range(2, n)
    )
    h31 = m[3, 1] - lower[1] * m[1, 1] + sum(
        (m[3, k] - lower[1] * m[1, k]) * lower[k - 2] for k in range(2, n)
    )
    primes = _primes(200, _prime_ceiling(n))
    target = primes[0] * (2**37 if big else 1)
    m[2, 1] += target - h21
    assert [q for q in primes if target % q == 0] == [primes[0]]
    assert all(h31 % q for q in primes)
    return int_matrix(m.tolist())


@pytest.mark.parametrize(
    "n, big",
    [pytest.param(n, False, id=str(n)) for n in (4, 7, 20, 40)]
    + [pytest.param(n, True, id=f"{n}-big") for n in (5, 20)],
)
def test_primes_that_disagree_on_the_pivot_swap_alone(n, big):
    m = _pivot_split_matrix(n, 300 + n, big)
    assert m.dtype == np.int64 and (abs(m).max() > 2**60) == big
    assert modular_charpoly(m).coeffs == berkowitz_charpoly(m).coeffs


@pytest.mark.parametrize("per_group", [1, 2])
def test_primes_are_reduced_in_groups_that_fit_the_stack_budget(per_group, monkeypatch):
    from qwalkspec import intmat, petersen_graph, support_u_power

    s3 = support_u_power(build_arc_space(petersen_graph()), 3)
    n = s3.shape[0]
    whole = modular_charpoly(s3)
    groups = []
    stack = intmat._hessenberg_stack

    def spy(m, primes):
        groups.append(primes)
        return stack(m, primes)

    monkeypatch.setattr(intmat, "_hessenberg_stack", spy)
    monkeypatch.setattr(intmat, "_STACK_BYTES", per_group * 8 * (n + 1) ** 2)
    monkeypatch.setattr(intmat, "_minpoly_route", lambda m, r: (None, "degree"))  # s3 takes the kernel
    assert modular_charpoly(s3) == whole
    assert len(groups) > 1 and all(len(g) <= per_group for g in groups)
    primes = [q for g in groups for q in g]
    assert primes == sorted(set(primes), reverse=True)


def _mixed_matrices():
    """Matrices of sizes 0, 1, 5, 7 and 30, in mixed order, with repeats."""
    from qwalkspec import petersen_graph, support_u, support_u_power

    rng = np.random.default_rng(41)
    a = build_arc_space(petersen_graph())
    five, seven = rand_int_matrix(rng, 5), rand_int_matrix(rng, 7, -2**40, 2**40)
    return [
        five, np.zeros((0, 0), dtype=np.int64), support_u(a), int_matrix([[-3]]), seven,
        support_u_power(a, 2), five, rand_int_matrix(rng, 5), int_matrix([[7]]), support_u(a),
    ]


def _residue_edges():
    """1 x 1 matrices at the residues with two symmetric representatives, and at +-p."""
    from qwalkspec.intmat import _prime_ceiling, _primes

    p1 = _primes(1, _prime_ceiling(1))[0]
    half = (p1 + 1) // 2  # the residue with two symmetric representatives
    return [int_matrix([[x]]) for x in (half, -half, half - 1, 1 - half, p1, -p1)]


def test_residue_stack_holds_symmetric_residues_of_each_slot():
    from qwalkspec.intmat import _prime_ceiling, _primes, _residue_stack

    rng = np.random.default_rng(17)
    big = int_matrix(rng.integers(-(2**61), 2**61, size=(6, 6)).tolist())
    small = rand_int_matrix(rng, 6)
    primes = _primes(3, _prime_ceiling(6))
    slots = [(big, primes[0]), (small, primes[0]), (big, primes[2]), (small, primes[1])]
    h = _residue_stack(slots)
    assert h.dtype == np.float64 and h.shape == (4, 6, 6)
    for hs, (m, p) in zip(h, slots):
        r = hs.astype(np.int64)
        assert (r == hs).all() and (np.abs(r) <= (p + 1) // 2).all()
        assert ((r - m) % p == 0).all()


def test_char_polys_equals_char_poly_and_berkowitz_on_mixed_sizes():
    from qwalkspec import char_polys

    ms = _mixed_matrices()
    polys = char_polys(ms)
    assert polys == [char_poly(m) for m in ms]
    assert [p.coeffs for p in polys] == [berkowitz_charpoly(m).coeffs for m in ms]
    assert char_polys([]) == [] and char_polys(iter(ms[:2])) == polys[:2]


@pytest.mark.parametrize("per_stack", [1, 3, 4])
def test_char_polys_routes_each_residue_to_its_matrix_across_stacks(per_stack, monkeypatch):
    from qwalkspec import char_polys, intmat

    ms = _mixed_matrices() + _residue_edges()
    alone = [char_poly(m) for m in ms]
    stacks = []
    kernel = intmat._hessenberg_stack

    def spy(h, primes):
        stacks.append((h.shape[1], len(primes)))
        return kernel(h, primes)

    monkeypatch.setattr(intmat, "_hessenberg_stack", spy)
    monkeypatch.setattr(intmat, "_STACK_BYTES", per_stack * 8 * (30 + 1) ** 2)
    monkeypatch.setattr(intmat, "_permutation_route", lambda m, r: None)  # all take the kernel
    monkeypatch.setattr(intmat, "_trace_route", lambda m, r: None)
    monkeypatch.setattr(intmat, "_minpoly_route", lambda m, r: (None, "degree"))
    assert char_polys(ms) == alone
    # the seven 30 x 30 slots of three matrices (2, 3 and 2 primes) fill
    # several stacks, whose edges cut a matrix's slots at 3 and 4 per stack;
    # every other size fits in one stack
    dim30 = [count for n, count in stacks if n == 30]
    assert sum(dim30) == 7 and len(dim30) == -(-7 // per_stack)
    assert sorted({n for n, _ in stacks}) == [1, 5, 7, 30]


def test_char_polys_stacks_slots_that_disagree_on_the_pivot_swap(monkeypatch):
    """One stack holds a matrix whose largest prime swaps a pivot and matrices whose primes do not."""
    from qwalkspec import char_polys, intmat

    split = _pivot_split_matrix(20, 320, False)
    rng = np.random.default_rng(9)
    plain = [rand_int_matrix(rng, 20) for _ in range(2)]
    ms = [plain[0], split, plain[1], split]
    stacks = []
    kernel = intmat._hessenberg_stack

    def spy(h, primes):
        stacks.append(primes)
        return kernel(h, primes)

    monkeypatch.setattr(intmat, "_hessenberg_stack", spy)
    polys = char_polys(ms)
    [primes] = stacks
    assert primes.count(primes[0]) == len(ms)  # each plan starts at the largest prime
    assert [p.coeffs for p in polys] == [berkowitz_charpoly(m).coeffs for m in ms]


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    from qwalkspec.intmat import _is_prime

    def trial_division(q):
        return q >= 2 and all(q % f for f in range(2, int(q**0.5) + 1))

    assert [q for q in range(-2, 20000) if _is_prime(q) != trial_division(q)] == []
    # strong pseudoprimes to every base up to 17, and up to 23; 2^61 - 1 is prime
    assert not _is_prime(341550071728321)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2**61 - 1)


# ---------------------------------------------------------------------------
# The minimal-polynomial route and its fallbacks
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_dims(monkeypatch):
    """The dimension of every stack the Hessenberg kernel reduces."""
    from qwalkspec import intmat

    dims, kernel = [], intmat._hessenberg_stack

    def spy(h, primes):
        dims.append(h.shape[1])
        return kernel(h, primes)

    monkeypatch.setattr(intmat, "_hessenberg_stack", spy)
    return dims


def _logged_char_poly(caplog, m):
    """(char_poly(m), the fields of its one debug line)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.intmat"):
        cp = char_poly(m)
    [fields] = _debug_fields(caplog.records)
    return cp, fields


def _logged_minpoly_route(caplog, m):
    """(the char poly of m by the minimal-polynomial route, the fields of its debug line).

    The route is called directly, so matrices that ``char_poly`` gives to the trace route
    still test it."""
    from qwalkspec import intmat

    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.intmat"):
        cp, reason = intmat._minpoly_route(m, intmat._row_col_bound(m))
    assert reason is None
    [fields] = _debug_fields(caplog.records)
    return cp, fields


def _srg_matrix(spec, which):
    from qwalkspec import generators, support_u, support_u_power

    g = generators.parse_generator_spec(spec)
    if which == "a":
        return adjacency_matrix(g)
    a = build_arc_space(g)
    return support_u(a) if which == "s1" else support_u_power(a, int(which[1]))


_SRG_ROUTES = {("petersen", "s1"): "traces", ("petersen", "s2"): "minpoly", ("petersen", "s3"): "minpoly",
               ("shrikhande", "a"): "traces", ("complete:7", "s2"): "minpoly", ("paley:13", "s1"): "minpoly",
               ("rook:4", "s1"): "minpoly"}


@pytest.mark.parametrize("spec, which", _SRG_ROUTES)
def test_srg_supports_take_the_minpoly_route_and_equal_berkowitz(spec, which, caplog, kernel_dims):
    m = _srg_matrix(spec, which)
    cp, fields = _logged_minpoly_route(caplog, m)
    assert fields["route"] == "minpoly" and kernel_dims == []
    assert int(fields["krylov_degree"]) <= m.shape[0] // 2
    assert cp.coeffs == berkowitz_charpoly(m).coeffs


@pytest.mark.parametrize("spec, which", _SRG_ROUTES)
def test_srg_supports_take_the_trace_route_inside_its_gate_and_the_minpoly_route_outside(
        spec, which, caplog, kernel_dims):
    """petersen's S+(U) (r = 2, n = 30) and shrikhande's A (r = 6, n = 16) have r^n < 2^53."""
    from qwalkspec import intmat

    m = _srg_matrix(spec, which)
    inside = intmat._row_col_bound(m) ** m.shape[0] < 2**53
    cp, fields = _logged_char_poly(caplog, m)
    assert fields["route"] == _SRG_ROUTES[spec, which] == ("traces" if inside else "minpoly")
    assert kernel_dims == [] and (not inside or cp.coeffs == berkowitz_charpoly(m).coeffs)


def _elementary(n, i, j, c):
    e = int_eye(n)
    e[i, j] = c
    return e


def _jordan(blocks):
    """The direct sum of the Jordan blocks J_size(lam), (size, lam) in ``blocks``."""
    n = sum(size for size, _ in blocks)
    jordan, at = np.zeros((n, n), dtype=np.int64), 0
    for size, lam in blocks:
        for i in range(at, at + size):
            jordan[i, i] = lam
            if i + 1 < at + size:
                jordan[i, i + 1] = 1
        at += size
    return jordan


def _unimodular_conjugate(m, rng, steps):
    """P M P^-1, with P a product of ``steps`` random elementary matrices I +- E_ij."""
    n = m.shape[0]
    p, p_inv = int_eye(n), int_eye(n)
    for _ in range(steps):
        i, j = rng.choice(n, 2, replace=False)
        c = int(rng.choice([-1, 1]))
        p, p_inv = mat_mul(p, _elementary(n, i, j, c)), mat_mul(_elementary(n, i, j, -c), p_inv)
    assert mat_equal(mat_mul(p, p_inv), int_eye(n))
    return mat_mul(mat_mul(p, m), p_inv)


def test_a_non_diagonalizable_matrix_takes_the_route(caplog, kernel_dims):
    """Jordan blocks J_2(2)^2 J_1(2) J_2(-1) J_1(-1)^3 J_1(3)^3, conjugated by a unimodular matrix."""
    jordan = _jordan([(2, 2), (2, 2), (1, 2), (2, -1), (1, -1), (1, -1), (1, -1), (1, 3), (1, 3), (1, 3)])
    m = _unimodular_conjugate(jordan, np.random.default_rng(3), 12)
    cp, fields = _logged_minpoly_route(caplog, m)
    assert fields["route"] == "minpoly" and kernel_dims == []
    assert fields["krylov_degree"] == "5"  # mu = (t-2)^2 (t+1)^2 (t-3)
    assert cp.coeffs == berkowitz_charpoly(m).coeffs == berkowitz_charpoly(jordan).coeffs


def test_repeated_blocks_take_the_route_with_multiplied_multiplicities(caplog, kernel_dims):
    from qwalkspec import petersen_graph

    a = adjacency_matrix(petersen_graph())
    m = np.kron(int_eye(3), a)
    cp, fields = _logged_minpoly_route(caplog, m)
    assert fields["route"] == "minpoly" and kernel_dims == []
    assert cp.coeffs == berkowitz_charpoly(m).coeffs
    # (t-3)(t-1)^5(t+2)^4 cubed
    assert cp.evaluate(10) == berkowitz_charpoly(a).evaluate(10) ** 3


def _divide_by_root(p, root, q):
    """p / (t - root) mod q by synthetic division, p ascending; the remainder is dropped."""
    out, acc = [], 0
    for c in reversed(p):
        acc = (acc * root + c) % q
        out.append(acc)
    return out[-2::-1]


def test_a_planted_mu_with_a_missing_factor_fails_the_certificate(caplog, kernel_dims, monkeypatch):
    from qwalkspec import intmat, shrikhande_graph, support_u

    m = support_u(build_arc_space(shrikhande_graph()))
    relation, certify, verdicts = intmat._krylov_relation, intmat._certify_minpoly, []

    def planted(mq, q, cap):  # mu / (t - (k - 1)): a proper factor of the true mu
        rel, terms = relation(mq, q, cap)
        return _divide_by_root(rel, 5, q), terms

    def certify_spy(*args):
        verdicts.append(certify(*args))
        return verdicts[-1]

    monkeypatch.setattr(intmat, "_krylov_relation", planted)
    monkeypatch.setattr(intmat, "_certify_minpoly", certify_spy)
    cp, fields = _logged_char_poly(caplog, m)
    # mu(M) != 0 rejects the planted mu in float64: its bound is below 2^53, and one prime already
    # covers mu's coefficient bound, so no CRT lift is tried
    assert verdicts == [(None, 0)]
    assert (fields["route"], fields["reason"]) == ("hessenberg", "certificate") and kernel_dims == [96]
    assert cp == berkowitz_charpoly(m)


@pytest.mark.parametrize("which", ["shrikhande-s1", "jordan"])
def test_a_premature_berlekamp_massey_stop_falls_back_on_the_certificate(which, caplog, kernel_dims,
                                                                         monkeypatch):
    """With no margin, Berlekamp-Massey stops at once with mu = 1: the certificate rejects it.
    The Jordan matrix is scaled by 20 to r = 260, so 260^7 >= 2^53 keeps it off the trace route."""
    from qwalkspec import intmat

    if which == "jordan":
        m = 20 * _unimodular_conjugate(_jordan([(2, 2), (1, 2), (2, -1), (1, 3), (1, 3)]),
                                       np.random.default_rng(3), 10)
        assert intmat._row_col_bound(m) ** 7 >= 2**53
    else:
        m = _srg_matrix("shrikhande", "s1")
    monkeypatch.setattr(intmat, "_KRYLOV_MARGIN", 0)
    cp, fields = _logged_char_poly(caplog, m)
    assert (fields["route"], fields["reason"]) == ("hessenberg", "certificate")
    assert kernel_dims == [m.shape[0]]
    assert cp.coeffs == berkowitz_charpoly(m).coeffs


def test_a_wrong_one_prime_lift_is_lifted_again_by_crt(caplog, kernel_dims):
    """mu = (t-97)(t-98)(t-99)(t-100) has constant term 94,109,400, more than half the first
    prime of n = 8, so the one-prime lift fails its certificate and two primes lift it."""
    from qwalkspec import intmat

    m = _unimodular_conjugate(_jordan([(1, x) for x in (97, 98, 99, 100) * 2]), np.random.default_rng(0), 6)
    assert 2 * 94_109_400 > intmat._primes(1, intmat._prime_ceiling(8))[0]
    cp, fields = _logged_char_poly(caplog, m)
    assert fields["route"] == "minpoly" and kernel_dims == []
    assert (fields["krylov_degree"], fields["mu_primes"], fields["cert_primes"]) == ("4", "2", "0")
    assert cp.coeffs == berkowitz_charpoly(m).coeffs


def _spy_screen(monkeypatch):
    """The verdict of each one-vector screen, ``_kills_vector``, in order."""
    from qwalkspec import intmat

    verdicts, real = [], intmat._kills_vector

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(intmat, "_kills_vector", spy)
    return verdicts


def test_a_wrong_one_prime_lift_is_rejected_by_one_vector_before_mu_of_m(caplog, kernel_dims, monkeypatch):
    """paley:29's S+(U^2) (n = 406, d = 6): mu's coefficient bound needs two primes, the one-prime
    lift is wrong, and mu(M) v != 0 rejects it by d matrix-vector products; only the CRT lift,
    not screened, reaches mu(M) = 0."""
    from qwalkspec import generators
    from qwalkspec.supports import closed_form_charpoly_su2

    screens = _spy_screen(monkeypatch)
    cp, fields = _logged_char_poly(caplog, _srg_matrix("paley:29", "s2"))
    assert fields["route"] == "minpoly" and kernel_dims == []
    assert (fields["krylov_degree"], fields["mu_primes"]) == ("6", "2")
    assert screens == [False]
    assert cp == closed_form_charpoly_su2(generators.parse_generator_spec("paley:29"))


def test_a_krylov_relation_that_a_later_prime_does_not_give_refuses_the_route(caplog, kernel_dims,
                                                                              monkeypatch):
    """paley:29's S+(U^2): the vector screen rejects the one-prime lift of mu (d = 6), so the route
    forms a Krylov relation modulo a second prime for the CRT lift.  If that prime gives no
    relation, or one of another degree, the route ends with "certificate" and the kernel gives
    the char poly."""
    from qwalkspec import generators, intmat
    from qwalkspec.supports import closed_form_charpoly_su2

    m = _srg_matrix("paley:29", "s2")
    relation, primes = intmat._krylov_relation, []

    def at_the_second_prime(wrong):
        def krylov(mq, q, cap):
            primes.append(q)
            rel, terms = relation(mq, q, cap)
            return (rel if len(primes) == 1 else wrong(rel)), terms
        return krylov

    for wrong in (lambda rel: None, lambda rel: rel[1:]):  # no relation; one of degree d - 1
        primes.clear()
        monkeypatch.setattr(intmat, "_krylov_relation", at_the_second_prime(wrong))
        assert intmat._minpoly_route(m, intmat._row_col_bound(m)) == (None, "certificate")
        assert len(primes) == 2 and primes[0] != primes[1]
    primes.clear()
    cp, fields = _logged_char_poly(caplog, m)
    assert (fields["route"], fields["reason"]) == ("hessenberg", "certificate")
    assert kernel_dims and set(kernel_dims) == {406}
    assert cp == closed_form_charpoly_su2(generators.parse_generator_spec("paley:29"))


def test_correct_one_prime_lifts_keep_one_prime(caplog, monkeypatch):
    """Every routed A, S+(U) and S+(U^2) of these graphs keeps its one-prime lift.  One vector
    screens the lift only when mu's coefficient bound needs more than one prime.  cycle:30's S+(U)
    and S+(U^2) (r = 1) take the permutation route, so the minimal-polynomial route is also called
    on them directly."""
    screens = _spy_screen(monkeypatch)
    screened = 0
    for spec in ("cycle:12", "cycle:30", "complete:7", "complete_bipartite:3,3", "petersen",
                 "hypercube:4", "paley:13", "shrikhande", "rook:4"):
        for which in ("a", "s1", "s2"):
            m = _srg_matrix(spec, which)
            screens.clear()
            cp, fields = _logged_char_poly(caplog, m)
            if spec == "cycle:30" and which != "a":
                assert fields["route"] == "permutation" and screens == []
                routed, fields = _logged_minpoly_route(caplog, m)
                assert routed == cp
            if fields["route"] == "minpoly":
                assert fields["mu_primes"] == "1" and screens in ([], [True]), (spec, which)
                screened += len(screens)
    assert screened == 2  # cycle:30's S+(U) and paley:13's S+(U^2)


def test_the_vector_screen_is_exact_in_float64_and_modulo_primes():
    from qwalkspec import intmat

    # float64: mu = (t - 2)^2 (t + 1), conjugated, so B = sum |mu_i| r^i stays small
    m = _unimodular_conjugate(_jordan([(2, 2), (1, -1), (1, 2), (1, -1)]), np.random.default_rng(2), 4)
    mu = [4, 0, -3, 1]
    assert intmat._kills_vector(m.astype(np.float64), mu, [])
    assert not intmat._kills_vector(m.astype(np.float64), [5, 0, -3, 1], [])
    # modulo three primes: mu + p_1 p_2 differs from mu modulo the third prime alone
    m = _jordan([(10, 25), (10, 25)]).astype(np.float64)
    mu = [math.comb(10, i) * (-25) ** (10 - i) for i in range(11)]
    p = intmat._primes(3, intmat._prime_ceiling(20))
    assert intmat._kills_vector(m, mu, p)
    assert not intmat._kills_vector(m, [mu[0] + p[0] * p[1]] + mu[1:], p)


def test_a_bound_above_2_53_takes_the_modular_certificate(caplog, kernel_dims):
    """J_10(25) twice: r = 26 and r^11 < 2^53, but mu = (t - 25)^10 has sum |mu_i| r^i = 51^10,
    so mu(M) is checked modulo primes.  Terms such as mu_7 M^7 pass 2^53, so the powers above the
    primes must be reduced before they are summed."""
    from qwalkspec import intmat

    m = _jordan([(10, 25), (10, 25)])
    cp, fields = _logged_char_poly(caplog, m)
    assert fields["route"] == "minpoly" and kernel_dims == []
    assert fields["krylov_degree"] == "10" and fields["cert_primes"] == "3"
    assert cp.coeffs == berkowitz_charpoly(m).coeffs
    mu = [math.comb(10, i) * (-25) ** (10 - i) for i in range(11)]
    assert intmat._certify_minpoly(m, mu, 26) == ([20 * 25**i for i in range(11)], 3)
    # 2 * 51^10 is about 2^58: three primes of about 2^24 exceed it.  mu + p_1 p_2 differs from mu
    # modulo the third prime alone.
    p = intmat._primes(3, intmat._prime_ceiling(20))
    assert intmat._certify_minpoly(m, [mu[0] + p[0] * p[1]] + mu[1:], 26) == (None, 3)


_NILPOTENT = {"zero": [(1, 0)] * 6, "J4(0)": [(4, 0)], "J3(0)^2 J1(0)": [(3, 0), (3, 0), (1, 0)]}


@pytest.mark.parametrize("blocks", _NILPOTENT.values(), ids=_NILPOTENT)
def test_the_trace_recurrence_gives_t_to_the_n_for_nilpotent_matrices(blocks):
    from qwalkspec import intmat

    m = _jordan(blocks)
    n, d = m.shape[0], max(size for size, _ in blocks)
    chi = intmat._charpoly_from_traces([0] * d + [1], [n] + [0] * d, n)  # mu = t^d, tr(M^i) = 0 for i > 0
    assert chi.coeffs == (0,) * n + (1,) == berkowitz_charpoly(m).coeffs


@pytest.mark.parametrize("name", ["zero", "J3(0)^2 J1(0)"])  # J4(0) has 2d > n: no route
def test_nilpotent_matrices_take_the_route(name, caplog, kernel_dims):
    m = _unimodular_conjugate(_jordan(_NILPOTENT[name]), np.random.default_rng(4), 8)
    cp, fields = _logged_minpoly_route(caplog, m)
    assert fields["route"] == "minpoly" and kernel_dims == []
    assert cp.coeffs == (0,) * m.shape[0] + (1,)


def test_traces_inconsistent_with_mu_raise_rather_than_round():
    from qwalkspec import intmat

    # mu = t^2 forces tr(M) = 0; with tr(M) = 1 the recurrence asks for 2 e_2 = 1
    with pytest.raises(ArithmeticError, match="inconsistent"):
        intmat._charpoly_from_traces([0, 0, 1], [2, 1], 2)


def test_the_route_raises_on_inconsistent_traces_instead_of_falling_back(monkeypatch, kernel_dims):
    from qwalkspec import intmat

    m = _unimodular_conjugate(_jordan([(2, 0), (2, 0)]), np.random.default_rng(5), 6)
    certify = intmat._certify_minpoly

    def skewed(*args):
        traces, primes = certify(*args)
        return [x + (i == 1) for i, x in enumerate(traces)], primes

    monkeypatch.setattr(intmat, "_certify_minpoly", skewed)
    with pytest.raises(ArithmeticError, match="inconsistent"):
        intmat._minpoly_route(m, intmat._row_col_bound(m))
    assert kernel_dims == []


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=3),
    st.integers(0, 8),
    st.integers(0, 2**32),
)
def test_unimodular_conjugates_of_jordan_matrices_equal_berkowitz_on_the_route(kinds, steps, seed):
    """Blocks J_size(lam) repeated ``count`` times, (size, lam, count) in ``kinds``: repeats keep the
    minimal polynomial's degree low, so most take the route, Jordan blocks of size > 1 included."""
    from qwalkspec import intmat

    jordan = _jordan([(size, lam) for size, lam, count in kinds for _ in range(count)])
    assume(jordan.shape[0] >= 2)
    m = _unimodular_conjugate(jordan, np.random.default_rng(seed), steps)
    cp, _ = intmat._minpoly_route(m, intmat._row_col_bound(m))
    if cp is not None:
        assert cp.coeffs == berkowitz_charpoly(m).coeffs == berkowitz_charpoly(jordan).coeffs


@pytest.mark.parametrize(
    "make, reason",
    [
        pytest.param(lambda: _permutation_sum(np.random.default_rng(5), 24), "degree", id="sparse"),
        pytest.param(lambda: rand_int_matrix(np.random.default_rng(6), 30), "bound", id="random"),
        pytest.param(lambda: _srg_matrix("shrikhande", "s3"), "bound", id="shrikhande-s3"),
        pytest.param(lambda: int_matrix([[1 << 27, 0, 0], [0, 1, 0], [0, 0, 1]]), "bound",
                     id="r^2>=2^53"),
    ],
)
def test_matrices_outside_the_route_fall_back_to_the_kernel(make, reason, caplog, kernel_dims):
    m = make()
    cp, fields = _logged_char_poly(caplog, m)
    assert (fields["route"], fields["reason"]) == ("hessenberg", reason)
    assert kernel_dims and set(kernel_dims) == {m.shape[0]}
    if m.shape[0] <= 30:
        assert cp.coeffs == berkowitz_charpoly(m).coeffs


@pytest.mark.parametrize("c, route", [(2**26 - 1, "minpoly"), (2**26, "hessenberg")])
def test_the_route_takes_krylov_degree_d_exactly_while_r_to_the_d_is_below_2_52(c, route, caplog,
                                                                                 kernel_dims):
    """Three copies of [[0, c], [c, 0]]: r = c and mu = t^2 - c^2, so d = 2.  The route forms no
    power past M^d, so r^2 < 2^52 admits it although r^3 passes 2^53; r^2 = 2^52 does not."""
    from qwalkspec import intmat

    m = np.kron(int_eye(3), int_matrix([[0, c], [c, 0]]))
    r = intmat._row_col_bound(m)
    assert r == c and r**3 >= 2**53 and (r**2 < 2**52) == (route == "minpoly")
    cp, fields = _logged_char_poly(caplog, m)
    if route == "minpoly":
        assert fields["route"] == "minpoly" and fields["krylov_degree"] == "2" and kernel_dims == []
    else:
        assert (fields["route"], fields["reason"]) == ("hessenberg", "bound") and kernel_dims == [6]
    assert cp.coeffs == berkowitz_charpoly(m).coeffs


def test_chi_a_of_6_regular_24_vertex_circulant_twins_falls_back_for_degree(caplog, kernel_dims):
    """circulant:24,1,5,11 and its image under the multiplier 5, circulant:24,1,5,7, as a batch
    corpus may hold them: A has 13 distinct eigenvalues, one past n/2 = 12, so chi_A of each
    takes the Hessenberg pass, and char_polys gives both to one pass."""
    from qwalkspec import char_polys, circulant_graph

    a, b = (adjacency_matrix(circulant_graph(24, conn)) for conn in ([1, 5, 11], [1, 5, 7]))
    assert len(np.unique(np.round(np.linalg.eigvalsh(a.astype(float)), 6))) == 13
    with caplog.at_level(logging.DEBUG, logger="qwalkspec.intmat"):
        polys = char_polys([a, b])
    fields = _debug_fields(caplog.records)
    assert [(f["route"], f["reason"], f["n"], f["pass_matrices"]) for f in fields] == [
        ("hessenberg", "degree", "24", "2")] * 2
    assert kernel_dims and set(kernel_dims) == {24}
    assert polys[0] == polys[1] and polys[0].coeffs == berkowitz_charpoly(a).coeffs


def test_entries_whose_row_sums_would_wrap_int64_fall_back(caplog, kernel_dims):
    """|entries| below 2^62 whose row sums pass 2^63: r must not wrap, so the route is refused."""
    big = 2**62 - 1
    m = int_matrix([[big, big, big], [big, -big, 0], [0, big, -big]])
    cp, fields = _logged_char_poly(caplog, m)
    assert (fields["route"], fields["reason"]) == ("hessenberg", "bound") and kernel_dims == [3]
    assert cp.coeffs == berkowitz_charpoly(m).coeffs


# ---------------------------------------------------------------------------
# The trace route: Newton's identities on tr(M), ..., tr(M^n) while r^n < 2^53
# ---------------------------------------------------------------------------


def _inside_gate(m):
    """Whether the trace route's own gate, r^n < 2^53, admits m (r <= 1 included)."""
    from qwalkspec import intmat

    return intmat._row_col_bound(m) ** m.shape[0] < 2**53


def _route(m):
    """The route ``char_poly`` gives m first: "permutation" (r <= 1), "traces" or "other"."""
    from qwalkspec import intmat

    return "permutation" if intmat._row_col_bound(m) <= 1 else "traces" if _inside_gate(m) else "other"


def _takes(route, fields):
    """Whether the debug line ``fields`` shows ``route``; "other" is the minpoly or Hessenberg route."""
    return fields["route"] in (("minpoly", "hessenberg") if route == "other" else (route,))


_MINPOLY_TWINS = {
    "jordan": lambda: _unimodular_conjugate(
        _jordan([(2, 2), (2, 2), (1, 2), (2, -1), (1, -1), (1, -1), (1, -1), (1, 3), (1, 3), (1, 3)]),
        np.random.default_rng(3), 12),
    "repeated-blocks": lambda: np.kron(int_eye(3), _srg_matrix("petersen", "a")),
    "premature-jordan": lambda: _unimodular_conjugate(_jordan([(2, 2), (1, 2), (2, -1), (1, 3), (1, 3)]),
                                                      np.random.default_rng(3), 10),
    "nilpotent-zero": lambda: _unimodular_conjugate(_jordan(_NILPOTENT["zero"]), np.random.default_rng(4), 8),
    "nilpotent-J3(0)^2 J1(0)": lambda: _unimodular_conjugate(_jordan(_NILPOTENT["J3(0)^2 J1(0)"]),
                                                             np.random.default_rng(4), 8),
    "inconsistent-traces": lambda: _unimodular_conjugate(_jordan([(2, 0), (2, 0)]), np.random.default_rng(5), 6),
    "sparse": lambda: _permutation_sum(np.random.default_rng(5), 24, outside_gate=False),
}


@pytest.mark.parametrize("name", _MINPOLY_TWINS)
def test_the_matrices_of_the_route_tests_take_the_trace_route(name, caplog, kernel_dims):
    """The matrices that the minimal-polynomial and kernel tests above used before the trace route
    existed: char_poly now gives each to the trace route, with the same polynomial, except the
    zero matrix (r = 0), which the permutation route takes.  The trace route, called directly,
    gives it the same polynomial."""
    from qwalkspec import intmat

    m = _MINPOLY_TWINS[name]()
    assert _inside_gate(m) and _route(m) == ("permutation" if name == "nilpotent-zero" else "traces")
    cp, fields = _logged_char_poly(caplog, m)
    assert (fields["route"], fields["n"]) == (_route(m), str(m.shape[0])) and kernel_dims == []
    assert cp.coeffs == berkowitz_charpoly(m).coeffs
    assert intmat._trace_route(m, intmat._row_col_bound(m)) == cp


def test_seeded_random_signed_matrices_take_the_trace_route_inside_its_gate(caplog, kernel_dims):
    """Draws with r <= 1 take the permutation route, and the trace route, called directly, gives
    them the same polynomial."""
    from qwalkspec import intmat

    inside = permutations = 0
    for seed in range(40):
        rng = np.random.default_rng(500 + seed)
        n, hi = int(rng.integers(1, 17)), int(rng.integers(1, 4))
        m = rand_int_matrix(rng, n, -hi, hi)
        cp, fields = _logged_char_poly(caplog, m)
        assert _takes(_route(m), fields), seed
        assert cp.coeffs == berkowitz_charpoly(m).coeffs, seed
        if _route(m) == "permutation":
            assert intmat._trace_route(m, intmat._row_col_bound(m)) == cp, seed
            permutations += 1
        inside += _inside_gate(m)
    assert 10 <= inside <= 35 and permutations >= 1


@pytest.mark.parametrize(
    "m",
    [pytest.param(np.zeros((n, n), dtype=np.int64), id=f"zero-{n}") for n in (1, 2, 9)]
    + [pytest.param(int_matrix([[x]]), id=f"1x1-{x}") for x in (-7, 0, 1, 2**26 + 3, -(2**27 - 1))]
    + [pytest.param(_jordan(blocks), id=name) for name, blocks in _NILPOTENT.items()]
    + [pytest.param(_jordan(blocks), id=name) for name, blocks in {
        "J5(3)": [(5, 3)], "J3(-2)^2 J1(1)": [(3, -2), (3, -2), (1, 1)], "J12(1)": [(12, 1)]}.items()],
)
def test_zero_nilpotent_jordan_and_1x1_matrices_take_the_trace_route(m, caplog, kernel_dims):
    """Those with r <= 1 (zero, nilpotent shifts, [[0]] and [[1]]) take the permutation route.  The
    trace route, called directly, gives them the same polynomial, and char_poly gives it their
    twin 2M when M is nonzero (r = 2)."""
    from qwalkspec import intmat

    r = intmat._row_col_bound(m)
    cp, fields = _logged_char_poly(caplog, m)
    assert fields["route"] == ("permutation" if r <= 1 else "traces") and kernel_dims == []
    assert cp.coeffs == berkowitz_charpoly(m).coeffs
    if r <= 1:
        assert intmat._trace_route(m, r) == cp
    if r == 1:
        twin, fields = _logged_char_poly(caplog, 2 * m)
        assert fields["route"] == "traces" and kernel_dims == []
        assert twin.coeffs == berkowitz_charpoly(2 * m).coeffs


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=3),
    st.integers(0, 8),
    st.integers(0, 2**32),
)
def test_unimodular_conjugates_of_jordan_matrices_equal_berkowitz_on_the_trace_route(kinds, steps, seed):
    from qwalkspec import intmat

    jordan = _jordan([(size, lam) for size, lam, count in kinds for _ in range(count)])
    m = _unimodular_conjugate(jordan, np.random.default_rng(seed), steps) if jordan.shape[0] >= 2 else jordan
    cp = intmat._trace_route(m, intmat._row_col_bound(m))
    assert (cp is not None) == _inside_gate(m)
    if cp is not None:
        assert cp.coeffs == berkowitz_charpoly(m).coeffs == berkowitz_charpoly(jordan).coeffs


def _with_row_col_bound(n, r, seed):
    """A random signed n x n matrix whose largest absolute row or column sum is exactly r."""
    rng = np.random.default_rng(seed)
    m = rng.integers(-3, 4, size=(n, n))
    m[0, 0] = 0
    rest = max(int(np.abs(m[0]).sum()), int(np.abs(m[:, 0]).sum()))
    m[0, 0] = (r - rest) * (1 if seed % 2 else -1)
    m = int_matrix(m.tolist())
    from qwalkspec import intmat

    assert intmat._row_col_bound(m) == r
    return m


@pytest.mark.parametrize(
    "m, route",
    [
        # 9^16 < 2^53 <= 10^16, so the gate admits r = 9 at n = 16 and refuses r = 10
        pytest.param(np.diag([9] * 5 + [8] * 3 + [0] * 8), "traces", id="diag-9-at-16"),
        pytest.param(np.diag([10] + [9] * 4 + [8] * 3 + [0] * 8), "other", id="diag-10-at-16"),
        # 98^8 < 2^53 <= 99^8
        pytest.param(_with_row_col_bound(8, 98, 1), "traces", id="r98-at-8"),
        pytest.param(_with_row_col_bound(8, 99, 2), "other", id="r99-at-8"),
        # 2^52 < 2^53 = 2^53: r = 2 admits n = 52, not 53
        pytest.param(adjacency_matrix(cycle_graph(52)), "traces", id="cycle-52"),
        pytest.param(adjacency_matrix(cycle_graph(53)), "other", id="cycle-53"),
        pytest.param(2 * np.roll(int_eye(52), 1, axis=1), "traces", id="2-permutation-52"),
        pytest.param(2 * np.roll(int_eye(53), 1, axis=1), "other", id="2-permutation-53"),
        # r <= 1 never reaches the gate: the permutation route takes it at any n
        pytest.param(np.roll(int_eye(53), 1, axis=1), "permutation", id="permutation-53"),
    ],
)
def test_the_trace_gate_is_r_to_the_n_below_2_53(m, route, caplog):
    m = int_matrix(np.asarray(m).tolist())
    assert _route(m) == route
    cp, fields = _logged_char_poly(caplog, m)
    assert _takes(route, fields)
    assert cp.coeffs == berkowitz_charpoly(m).coeffs


def test_diagonal_sums_are_exact_where_a_float_trace_would_round(caplog):
    """diag(9^5, 8^3, 0^8): 9^16 < 2^53, but tr(M^16) = 5 9^16 + 3 8^16 > 2^53 is odd, so a float
    sum of the diagonal rounds it; summed as integers it is exact."""
    from qwalkspec import intmat

    m = int_matrix(np.diag([9] * 5 + [8] * 3 + [0] * 8).tolist())
    top = 5 * 9**16 + 3 * 8**16
    assert top > 2**53 and float(top) != top
    read = []
    real = intmat._charpoly_from_traces

    def spy(mu, traces, n):
        read.append(traces)
        return real(mu, traces, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(intmat, "_charpoly_from_traces", spy)
        assert intmat._trace_route(m, intmat._row_col_bound(m)) is not None
    assert read == [[5 * 9**i + 3 * 8**i + 8 * (i == 0) for i in range(17)]] and read[0][16] == top
    cp, fields = _logged_char_poly(caplog, m)
    assert fields["route"] == "traces"
    assert cp.coeffs == berkowitz_charpoly(m).coeffs
    assert cp.evaluate(3) == 3**8 * (3 - 9) ** 5 * (3 - 8) ** 3


def test_the_trace_route_raises_on_inconsistent_traces(monkeypatch, kernel_dims):
    """tr(M) off by one makes 2 e_2 = p_1^2 - p_2 odd: Newton's division leaves a remainder."""
    from qwalkspec import intmat

    real = intmat._charpoly_from_traces

    def skewed(mu, traces, n):
        return real(mu, [x + (i == 1) for i, x in enumerate(traces)], n)

    monkeypatch.setattr(intmat, "_charpoly_from_traces", skewed)
    with pytest.raises(ArithmeticError, match="inconsistent"):
        char_poly(_MINPOLY_TWINS["inconsistent-traces"]())
    assert kernel_dims == []


# ---------------------------------------------------------------------------
# The permutation route: signed partial permutation matrices (r <= 1) from their cycles
# ---------------------------------------------------------------------------


@st.composite
def _signed_partial_permutations(draw):
    """A random n x n permutation matrix, n <= 40, with random signs and about a quarter of its
    rows zeroed: a zeroed row ends a chain, so cycles and chains both arise."""
    n = draw(st.integers(1, 40))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    kept = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        m[i, perm[i]] = signs[i] if kept[i] else 0
    return m


@settings(max_examples=150, deadline=None)
@given(_signed_partial_permutations())
def test_signed_partial_permutations_take_the_permutation_route_and_equal_berkowitz(m):
    from qwalkspec import intmat

    r = intmat._row_col_bound(m)
    assert r <= 1
    cp = intmat._permutation_route(m, r)
    assert cp.coeffs == berkowitz_charpoly(m).coeffs
    assert char_poly(m) == cp


def test_the_permutation_route_refuses_every_r_above_1():
    from qwalkspec import intmat

    for m in (2 * int_eye(3), int_matrix([[1, 1], [0, 0]]), int_matrix([[1, 0], [1, 0]])):
        assert intmat._row_col_bound(m) == 2 and intmat._permutation_route(m, 2) is None


_PERMUTATIONS = {
    "zero-7": (np.zeros((7, 7), dtype=np.int64), 0),
    "J6(0)": (_jordan([(6, 0)]), 0),  # one chain
    "J3(0)^2 J1(0)": (_jordan(_NILPOTENT["J3(0)^2 J1(0)"]), 0),
    "[[-1]]": (int_matrix([[-1]]), 1),
    "reversal-9": (np.fliplr(int_eye(9)), 5),  # four 2-cycles and a fixed point
    "reversal-10": (np.fliplr(int_eye(10)), 5),
    "signed-reversal-10": (np.fliplr(int_eye(10)) * np.array([1, -1] * 5)[:, None], 5),
    "signed-cycle-12": (np.roll(int_eye(12), 1, axis=1) * np.array([-1] * 3 + [1] * 9)[:, None], 1),
}


@pytest.mark.parametrize("name", _PERMUTATIONS)
def test_named_signed_permutations_take_the_permutation_route(name, caplog, kernel_dims):
    m, cycles = _PERMUTATIONS[name]
    cp, fields = _logged_char_poly(caplog, m)
    assert sorted(fields) == ["cycles", "ms", "n", "route"] and float(fields["ms"]) >= 0
    assert (fields["route"], fields["n"], fields["cycles"]) == ("permutation", str(m.shape[0]), str(cycles))
    assert kernel_dims == [] and cp.coeffs == berkowitz_charpoly(m).coeffs


def test_the_200_identity_and_reversal_take_the_permutation_route(caplog, kernel_dims):
    """(t - 1)^200 and (t^2 - 1)^100: one group of 200 equal factors and one of 100."""
    cp, fields = _logged_char_poly(caplog, int_eye(200))
    assert (fields["route"], fields["cycles"]) == ("permutation", "200")
    assert list(cp.coeffs) == [math.comb(200, j) * (-1) ** (200 - j) for j in range(201)]
    cp, fields = _logged_char_poly(caplog, np.fliplr(int_eye(200)))
    assert (fields["route"], fields["cycles"]) == ("permutation", "100")
    assert list(cp.coeffs) == [0 if j % 2 else math.comb(100, j // 2) * (-1) ** (100 - j // 2)
                               for j in range(201)]
    assert kernel_dims == []


@pytest.mark.parametrize("n", [3, 4, 30, 53, 200])
def test_su_of_a_cycle_takes_the_permutation_route(n, caplog, kernel_dims):
    """S+(U) of C_n is the arc-successor permutation: two directed n-cycles, chi = (t^n - 1)^2."""
    from qwalkspec import support_u
    from qwalkspec.supports import _charpoly_su

    g = cycle_graph(n)
    cp, fields = _logged_char_poly(caplog, support_u(build_arc_space(g)))
    assert (fields["route"], fields["n"], fields["cycles"]) == ("permutation", str(2 * n), "2")
    assert kernel_dims == []
    assert cp.coeffs == tuple(1 if j in (0, 2 * n) else -2 if j == n else 0 for j in range(2 * n + 1))
    assert cp == _charpoly_su(n, 2, char_poly(adjacency_matrix(g)))


_VERIFY_CORPUS = ("cycle:12", "cycle:30", "complete:7", "complete_bipartite:3,3", "petersen",
                  "hypercube:4", "paley:13", "shrikhande", "rook:4")


def test_krylov_relations_of_m_itself_equal_those_of_its_residues(monkeypatch):
    """Every S+(U) and S+(U^2) of verify's benchmark corpus has 2r below the first prime, so M is
    its own symmetric residue: the minimal-polynomial route hands M itself to _krylov_relation,
    which gives the relation and term count of M's residue stack, and forms no residue stack."""
    from qwalkspec import intmat

    for spec in _VERIFY_CORPUS:
        for which in ("s1", "s2"):
            m = _srg_matrix(spec, which)
            n, r = m.shape[0], intmat._row_col_bound(m)
            p = intmat._primes(1, intmat._prime_ceiling(n))[0]
            direct = intmat._residues(m, r, p)
            assert 2 * r < p and direct.dtype == np.float64 and (direct == m).all()
            stacked = intmat._residue_stack([(m, p)])[0]
            assert intmat._krylov_relation(direct, p, n // 2) == intmat._krylov_relation(stacked, p, n // 2)
    # 2r >= p: M is reduced first
    p = intmat._primes(1, intmat._prime_ceiling(2))[0]
    m = int_matrix([[p + 3, 1], [-p, 2]])
    assert intmat._residues(m, intmat._row_col_bound(m), p).tolist() == [[3, 1], [0, 2]]
    stacks = []
    monkeypatch.setattr(intmat, "_residue_stack", lambda slots: stacks.append(slots))
    for spec in _VERIFY_CORPUS:
        for which in ("s1", "s2"):
            char_poly(_srg_matrix(spec, which))
    assert stacks == []


def test_mat_mul_runs_in_float64_below_2_53_and_in_int64_from_it(monkeypatch):
    calls, real = [], np.matmul

    def spy(a, b):
        calls.append((a.dtype.name, b.dtype.name))
        return real(a, b)

    monkeypatch.setattr(np, "matmul", spy)
    x, y = 69431, 20394401
    assert 6361 * x * y == 2**53 - 1  # inner dimension 6361: the bound is 2^53 - 1
    a = int_matrix([[x] * 6361, [x, -x] * 3180 + [x - 1], [-x] * 6361])
    b = int_matrix([[y, -y, 1]] * 6361)
    c = mat_mul(a, b)
    assert calls == [("float64", "float64")] and c.dtype == np.int64
    assert c.tolist() == int_product(a, b) and c[0, 0] == 2**53 - 1
    calls.clear()
    a = int_matrix([[2**26, 2**26 - 1]])  # bound 2 * 2^26 * 2^26 = 2^53
    b = int_matrix([[2**26], [-(2**26) + 1]])
    c = mat_mul(a, b)
    assert calls == [("int64", "int64")] and c.tolist() == int_product(a, b)
