import dataclasses

import networkx as nx
import numpy as np
import pytest

from qwalkspec import (
    Graph,
    ValencyError,
    adjacency_matrix,
    build_arc_space,
    build_support_set,
    complete_graph,
    cycle_graph,
    identity_suite,
    ins_matrix,
    int_eye,
    outs_matrix,
    parse_generator_spec,
    petersen_graph,
    positive_support,
    su2_via_identity,
    support_u_power,
)

from oracles import arc_step_walk_powers, dense_arc_matrices


def test_canonical_arc_order_c3():
    a = build_arc_space(cycle_graph(3))
    assert a.arcs == ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))
    assert a.k == 2


def test_arc_counts():
    assert build_arc_space(complete_graph(4)).size == 12
    assert build_arc_space(petersen_graph()).size == 30


def test_k2_single_edge():
    a = build_arc_space(Graph(2, [(0, 1)]))
    assert a.size == 2
    assert a.rev.tolist() == [1, 0]
    assert a.p(int_eye(2)).tolist() == [[0, 1], [1, 0]]


def test_reverse_is_fixed_point_free_involution(corpus):
    for _, g in corpus:
        a = build_arc_space(g)
        assert a.size == g.n * a.k == 2 * g.edge_count
        for i, r in enumerate(a.rev.tolist()):
            assert r != i
            assert a.rev[r] == i
            t, h = a.arcs[i]
            assert a.arcs[r] == (h, t)


def test_non_regular_rejected():
    with pytest.raises(ValencyError):
        build_arc_space(Graph(3, [(0, 1)]))
    with pytest.raises(ValencyError):
        build_arc_space(Graph(2, []))  # 0-regular: no arcs


def test_incidence_structure_k2():
    a = build_arc_space(Graph(2, [(0, 1)]))
    # arc 0 = (0,1), arc 1 = (1,0): heads are 1,0; tails are 0,1
    assert ins_matrix(a).tolist() == [[0, 1], [1, 0]]
    assert outs_matrix(a).tolist() == [[1, 0], [0, 1]]


def test_incidence_columns_single_one(corpus):
    for _, g in corpus[:5]:
        a = build_arc_space(g)
        ins = ins_matrix(a)
        outs = outs_matrix(a)
        for j in range(a.size):
            assert sum(ins[:, j]) == 1
            assert sum(outs[:, j]) == 1


def test_reversal_block_diagonal_c3():
    p = build_arc_space(cycle_graph(3)).p(int_eye(6))
    swap = [[0, 1], [1, 0]]
    for b in range(3):
        block = [[int(p[2 * b + i, 2 * b + j]) for j in range(2)] for i in range(2)]
        assert block == swap
    assert all(p[i, i] == 0 for i in range(6))


def test_scaled_walk_entries_k4():
    a = build_arc_space(complete_graph(4))
    w = a.w(int_eye(a.size))
    assert {int(x) for x in w.flat} == {2, -1, 0}  # k=3: 2, 2-k, 0
    assert int(w.trace()) == 0


def test_scaled_walk_entries_c3():
    w = build_arc_space(cycle_graph(3)).w(int_eye(6))
    assert {int(x) for x in w.flat} == {2, 0}


def test_walk_orthogonality(corpus):
    for _, g in corpus[:6]:
        a = build_arc_space(g)
        w = a.w(int_eye(a.size))
        assert np.array_equal(w @ w.T, a.k * a.k * int_eye(a.size))


def test_arc_adjacency_row_col_sums(corpus):
    for _, g in corpus[:6]:
        a = build_arc_space(g)
        x = outs_matrix(a).T @ ins_matrix(a)
        for j in range(a.size):
            assert sum(x[j, :]) == a.k
            assert sum(x[:, j]) == a.k
        # entry (j, i) is 1 iff head of arc i is the tail of arc j
        for i in range(a.size):
            for j in range(a.size):
                expected = 1 if a.arcs[i][1] == a.arcs[j][0] else 0
                assert x[j, i] == expected


def test_reflection_k2_diagonal():
    a = build_arc_space(Graph(2, [(0, 1)]))
    kq = a.kq(int_eye(2))
    assert kq[0, 0] == 1 and kq[1, 1] == 1  # k=1: 2*ins^T*ins - I has diagonal 1


def test_reflection_squares(corpus):
    for _, g in corpus[:6]:
        a = build_arc_space(g)
        kq = a.kq(int_eye(a.size))
        assert np.array_equal(kq @ kq, a.k * a.k * int_eye(a.size))


def test_support_from_reflection_identity(corpus):
    # 2*S+(U) = P * (kQ + (k-2) I)
    for _, g in corpus:
        a = build_arc_space(g)
        if a.k < 2:
            continue
        lhs = 2 * support_u_power(a, 1)
        eye = int_eye(a.size)
        rhs = a.p(eye) @ (a.kq(eye) + (a.k - 2) * eye)
        assert np.array_equal(lhs, rhs)


def test_identity_suite_all_pass(corpus):
    for gid, g in corpus:
        for name, ok in identity_suite(build_arc_space(g)):
            assert ok, f"{gid}: {name}"


def test_trace_of_walk_matrix_zero(corpus):
    for _, g in corpus:
        a = build_arc_space(g)
        assert int(a.w(int_eye(a.size)).trace()) == 0


def test_ins_outs_reconstruct_adjacency(corpus):
    for _, g in corpus:
        a = build_arc_space(g)
        assert np.array_equal(ins_matrix(a) @ outs_matrix(a).T, adjacency_matrix(g))


def test_arc_matrices_are_int64(corpus):
    for gid, g in corpus:
        a = build_arc_space(g)
        eye = int_eye(a.size)
        built = {"ins": ins_matrix(a), "outs": outs_matrix(a), "P": a.p(eye), "W": a.w(eye), "kQ": a.kq(eye)}
        for name, m in built.items():
            assert m.dtype == np.int64, (gid, name)
        for m in (1, 2, 3):
            assert support_u_power(a, m).dtype == np.int64, (gid, m)


def _walk_cases():
    specs = ("cycle:3", "cycle:4", "cycle:7", "complete:5", "petersen", "paley:13", "shrikhande",
             "rook:4")
    cases = [(spec, parse_generator_spec(spec)) for spec in specs]
    for n, k, seed in ((10, 3, 1), (12, 4, 2), (9, 4, 3), (14, 5, 4), (12, 2, 5)):
        h = nx.random_regular_graph(k, n, seed=seed)
        cases.append((f"rr({n},{k},{seed})", Graph(n, [tuple(e) for e in h.edges()])))
    return cases


def _edge_cases():
    """k = 1 (K2, 3K2), disconnected (2K4), k = 2 (cycles) and nk = 406 (paley:29)."""
    k4 = complete_graph(4).edges
    return [("K2", Graph(2, [(0, 1)])), ("3K2", Graph(6, [(0, 1), (2, 3), (4, 5)])),
            ("2K4", Graph(8, list(k4) + [(u + 4, v + 4) for u, v in k4])),
            ("C3", cycle_graph(3)), ("C8", cycle_graph(8)),
            ("paley:29", parse_generator_spec("paley:29"))]


def test_arc_matrices_equal_their_dense_oracles():
    for gid, g in _walk_cases() + _edge_cases():
        a = build_arc_space(g)
        dense = dense_arc_matrices(a)
        eye = int_eye(a.size)
        built = {"ins": ins_matrix(a), "outs": outs_matrix(a), "P": a.p(eye), "W": a.w(eye), "kQ": a.kq(eye)}
        if a.k >= 2:
            built["S1"] = support_u_power(a, 1)
        for name, m in built.items():
            assert m.dtype == np.int64 and np.array_equal(m, dense[name]), (gid, name)
        if a.k > 2:
            s1 = dense["S1"]
            assert np.array_equal(su2_via_identity(a), s1 @ s1 + eye), gid
        assert [name for name, ok in identity_suite(a) if not ok] == [], gid


def test_arc_step_products_equal_the_dense_products():
    rng = np.random.default_rng(11)
    for gid, g in _walk_cases() + _edge_cases():
        a = build_arc_space(g)
        dense = dense_arc_matrices(a)
        m = rng.integers(-9, 10, size=(a.size, 5))
        products = {"W": a.w, "S1": a.s1, "kQ": a.kq, "P": a.p}
        for name, product in products.items():
            assert np.array_equal(product(m), dense[name] @ m), (gid, name)
        assert np.array_equal(a.ins(m), dense["ins"] @ m), gid
        assert np.array_equal(a.ins(a.p(m)), dense["outs"] @ m), gid  # outs = ins*P


def _built_walk_power(monkeypatch, a, m):
    """W^m as ``support_u_power`` builds it, with its support step taken out, and the rows of each block."""
    from qwalkspec import supports

    rows = []

    def keep(block):
        rows.append(len(block))
        return block

    with monkeypatch.context() as patch:
        patch.setattr(supports, "positive_support", keep)
        return support_u_power(a, m), rows


def test_walk_powers_equal_the_dense_product_chain(monkeypatch):
    # the chain starts from the dense oracle W, not from the arc step or the entry formulas under test
    for gid, g in _walk_cases() + _edge_cases():
        a = build_arc_space(g)
        if a.k < 2:
            for m in (1, 2, 3):
                with pytest.raises(ValencyError, match="valency >= 2"):
                    support_u_power(a, m)
            continue
        w = dense_arc_matrices(a)["W"]
        chain = [w, w @ w]  # no entry reaches (3k)^3 < 2^62: int64 is exact
        chain.append(chain[1] @ w)
        assert all(np.array_equal(p, c) for p, c in zip(arc_step_walk_powers(a, 3), chain)), gid
        for m in (1, 2, 3):
            assert np.array_equal(_built_walk_power(monkeypatch, a, m)[0], chain[m - 1]), (gid, m)
            support = support_u_power(a, m)
            assert support.dtype == np.int64 and np.array_equal(support, positive_support(chain[m - 1])), (gid, m)
        assert int(np.abs(chain[2]).max()) <= 16 * a.k + 2 * a.k**2 + a.k**3, gid


def _formula_corpus():
    """Every generator family, and seeded random regular graphs with k = 2..6."""
    specs = ("cycle:5", "complete:6", "complete_bipartite:3,3", "petersen", "hypercube:4",
             "circulant:12,1,5", "shrikhande", "rook:3,3", "paley:13")
    cases = [(spec, parse_generator_spec(spec)) for spec in specs]
    for n, k, seed in ((11, 2, 1), (10, 3, 2), (9, 4, 3), (12, 5, 4), (11, 6, 5)):
        h = nx.random_regular_graph(k, n, seed=seed)
        cases.append((f"rr({n},{k},{seed})", Graph(n, [tuple(e) for e in h.edges()])))
    return cases


def test_walk_powers_equal_the_arc_step_chain_on_every_family_in_any_blocks(monkeypatch):
    from qwalkspec import intmat

    for gid, g in _formula_corpus():
        a = build_arc_space(g)
        chain = arc_step_walk_powers(a, 3)
        for stack_bytes in (intmat._STACK_BYTES, 4 * a.size * 7):  # one block, then at most 7 int32 rows each
            monkeypatch.setattr(intmat, "_STACK_BYTES", stack_bytes)
            for m in (1, 2, 3):
                built, rows = _built_walk_power(monkeypatch, a, m)
                assert np.array_equal(built, chain[m - 1]) and sum(rows) == a.size, (gid, m, rows)
                assert np.array_equal(support_u_power(a, m), positive_support(chain[m - 1])), (gid, m, rows)
        assert max(rows) <= 7 and len(rows) == -(-a.size // 7), (gid, rows)
    monkeypatch.undo()
    a = build_arc_space(cycle_graph(1024))  # nk = 2048: two blocks at the real block size
    chain = arc_step_walk_powers(a, 3)
    for m in (1, 2, 3):
        built, rows = _built_walk_power(monkeypatch, a, m)
        assert rows == [1024, 1024] and np.array_equal(built, chain[m - 1]), m


def _single_term_mutants(table):
    """(m, what, mutated entry) for each term of each power zeroed, negated or with t and h swapped,
    and each (-k)^m put on the other diagonal.  A zeroed term stands for a dropped one, so that the
    one term of W can go too."""
    for m, (reversed_diagonal, terms) in table.items():
        yield m, "diagonal", (not reversed_diagonal, terms)
        for i, (c, e, p, xy) in enumerate(terms):
            for what, mutant in (("zeroed", (0, e, p, xy)), ("negated", (-c, e, p, xy)),
                                 ("t and h swapped", (c, e, p, xy.translate(str.maketrans("th", "ht"))))):
                yield m, f"term {i} {what}", (reversed_diagonal, terms[:i] + (mutant,) + terms[i + 1:])


def test_every_single_term_mutant_of_the_power_table_disagrees_with_the_oracle(monkeypatch):
    from qwalkspec import supports

    cases = [(gid, build_arc_space(g)) for gid, g in _formula_corpus()]
    chains = {gid: arc_step_walk_powers(a, 3) for gid, a in cases}
    mutants = list(_single_term_mutants(supports._POWER_TERMS))
    assert len(mutants) == 3 + 3 * (1 + 3 + 4)
    for m, what, entry in mutants:
        with monkeypatch.context() as patch:
            patch.setitem(supports._POWER_TERMS, m, entry)
            assert any(not np.array_equal(_built_walk_power(monkeypatch, a, m)[0], chains[gid][m - 1])
                       for gid, a in cases), (m, what)


def test_identity_suite_fails_when_two_reversals_are_swapped():
    # the gathered products see a wrong arc structure, so a PASS means something
    a = build_arc_space(petersen_graph())
    rev = a.rev.copy()
    assert a.tail[1] != a.tail[2]  # a swap between arcs of one tail would keep W orthogonal
    rev[1], rev[2] = rev[2], rev[1]
    bad, eye = dataclasses.replace(a, rev=rev), int_eye(a.size)
    w = bad.w(eye)
    assert bad.rev.tolist() != a.rev.tolist() and not np.array_equal(w, a.w(eye))
    assert not np.array_equal(bad.w(w.T), a.k * a.k * eye)
    assert "W*W^T = k^2 I" in [name for name, ok in identity_suite(bad) if not ok]


def test_identity_suite_fails_when_two_arcs_are_swapped_between_rows_of_into():
    """ins*X and outs*X read ``into``, while ins^T and outs^T read ``head`` and ``tail``, so the
    three n x n products check one against the other."""
    a = build_arc_space(petersen_graph())
    into = a.into.copy()
    x, y = into[0, 0], into[1, 0]
    assert a.tail[x] != a.tail[y]  # arcs of one tail swapped between rows would keep ins*outs^T = A
    into[0, 0], into[1, 0] = y, x
    failed = [name for name, ok in identity_suite(dataclasses.replace(a, into=into)) if not ok]
    assert {"ins*outs^T = A", "outs*outs^T = kI", "ins*ins^T = kI"} <= set(failed), failed
    assert [name for name, ok in identity_suite(a) if not ok] == []


@pytest.mark.parametrize(
    "field, must_fail",
    [("head", {"ins*ins^T = kI", "P*ins^T = outs^T", "(kQ)^2 = k^2 I"}),
     ("tail", {"ins*outs^T = A", "outs*outs^T = kI", "P*outs^T = ins^T", "W*W^T = k^2 I"})],
    ids=["head", "tail"],
)
def test_identity_suite_fails_when_two_arcs_swap_their_head_or_tail(field, must_fail):
    """ins^T reads ``head`` and outs^T reads ``tail``, while ins*X and outs*X read ``into`` and
    ``rev``, so a swap in either array shows in the products that read it."""
    a = build_arc_space(petersen_graph())
    y = next(j for j in range(a.size) if {a.tail[j], a.head[j]}.isdisjoint({a.tail[0], a.head[0]}))
    ends = getattr(a, field).copy()
    ends[0], ends[y] = ends[y], ends[0]
    failed = [name for name, ok in identity_suite(dataclasses.replace(a, **{field: ends})) if not ok]
    assert must_fail <= set(failed), failed


def test_index_arrays_follow_the_canonical_arc_order():
    for gid, g in _walk_cases() + _edge_cases():
        a = build_arc_space(g)
        arcs = [arc for u, v in sorted(g.edges) for arc in ((u, v), (v, u))]
        assert a.arcs == tuple(arcs) and a.rev.tolist() == [j ^ 1 for j in range(len(arcs))], gid
        into = [[j for j, (_, h) in enumerate(arcs) if h == v] for v in range(g.n)]
        assert a.into.tolist() == into, gid


def test_walk_supports_never_apply_w_and_read_only_the_powers_of_a_they_need(monkeypatch):
    """The entry formulas apply no arc step but ``ins``: none for S+(U), which reads only I, one for
    A = ins*I[tail] in S+(U^2), and a second for A^2 = ins*A[tail] in S+(U^3).  None calls
    ``adjacency_matrix``."""
    from qwalkspec import ArcSpace, supports

    calls = []

    def spy(name, real):
        return lambda self, m: calls.append(name) or real(self, m)

    for name in ("ins", "w", "s1", "kq", "p"):
        monkeypatch.setattr(ArcSpace, name, spy(name, getattr(ArcSpace, name)))
    monkeypatch.setattr(supports, "adjacency_matrix", None)
    for spec in ("petersen", "shrikhande", "paley:13", "circulant:12,1,5", "cycle:7"):
        a = build_arc_space(parse_generator_spec(spec))
        chain = arc_step_walk_powers(a, 3)
        for m in (1, 2, 3):
            calls.clear()
            assert np.array_equal(support_u_power(a, m), positive_support(chain[m - 1])), (spec, m)
            assert calls == ["ins"] * (m - 1), (spec, m, calls)


def test_s_plus_u_peaks_below_twice_and_a_quarter_its_int64_result():
    """S+(U) of paley:61 (nk = 1830, two int32 row blocks) forms no int64 W and no int64 copy of a
    block: W alone is as large as the 26.8 MB result, and W plus its support peak at 3.0 times it."""
    import tracemalloc

    a = build_arc_space(parse_generator_spec("paley:61"))
    tracemalloc.start()
    try:
        s1 = support_u_power(a, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s1.nbytes == 8 * 1830**2 and peak < 2.25 * s1.nbytes, peak / s1.nbytes


def test_su2_via_identity_peaks_below_three_and_a_quarter_its_int64_result():
    """S+(U)^2 + I of paley:61 (nk = 1830) frees I before the second arc step, which subtracts
    M[rev] in place, and adds I to the diagonal in place: S+(U), its square and one gathered
    M[rev] peak at 3.0 times the 26.8 MB result."""
    import tracemalloc

    a = build_arc_space(parse_generator_spec("paley:61"))
    tracemalloc.start()
    try:
        s2 = su2_via_identity(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s2.nbytes == 8 * 1830**2 and peak < 3.25 * s2.nbytes, peak / s2.nbytes
    assert np.array_equal(s2, support_u_power(a, 2))


def test_walk_powers_refuse_a_bound_at_the_int32_limit(monkeypatch):
    """An explicit raise, so ``python -O`` keeps it, before anything is built.

    The least k with k + 2 >= 2^31 is 2^31 - 2, with 4 + 4k + k^2 >= 2^31 it is 46339, and with
    16k + 2k^2 + k^3 >= 2^31 it is 1290.
    """
    from qwalkspec import supports

    a = build_arc_space(petersen_graph())
    bounds = {1: lambda k: k + 2, 2: lambda k: 4 + 4 * k + k**2, 3: lambda k: 16 * k + 2 * k**2 + k**3}
    for m, k in ((1, 2**31 - 2), (2, 46339), (3, 1290)):
        assert bounds[m](k - 1) < 2**31 <= bounds[m](k)
        assert support_u_power(dataclasses.replace(a, k=k - 1), m).shape == (a.size, a.size)
        with monkeypatch.context() as patch:
            patch.setattr(supports, "int_eye", None)  # the first thing built
            with pytest.raises(OverflowError, match=f"W\\^{m} at k={k} may reach 2\\^31"):
                support_u_power(dataclasses.replace(a, k=k), m)
