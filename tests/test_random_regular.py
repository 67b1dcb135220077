"""Randomized sweep: the exact identities must hold on arbitrary connected
regular graphs, not just the named corpus.  networkx supplies the random
regular graphs; everything checked here goes through the exact integer
pipeline (no eigenvalue clustering involved)."""

import networkx as nx
import numpy as np
import pytest

from qwalkspec import (
    Graph,
    build_arc_space,
    char_poly,
    closed_form_charpoly_su,
    closed_form_charpoly_su2,
    identity_suite,
    ihara_style_charpoly,
    mat_equal,
    su2_via_identity,
    support_u_power,
)


def random_regular(n, k, seed):
    h = nx.random_regular_graph(k, n, seed=seed)
    return Graph(n, [tuple(e) for e in h.edges()])


CASES = [
    (8, 3, 1),
    (10, 3, 2),
    (12, 3, 3),
    (10, 4, 4),
    (12, 4, 5),
    (9, 4, 6),
    (12, 5, 7),
    (10, 2, 8),  # union of cycles unless connected; filtered below
    (14, 3, 9),
]


@pytest.fixture(scope="module")
def random_graphs():
    out = []
    for n, k, seed in CASES:
        g = random_regular(n, k, seed)
        if g.connected:
            out.append((f"rr(n={n},k={k},seed={seed})", g))
    assert len(out) >= 6
    return out


def test_identity_suite_random(random_graphs):
    for gid, g in random_graphs:
        for name, ok in identity_suite(build_arc_space(g)):
            assert ok, f"{gid}: {name}"


def test_support_spectrum_closed_form_random(random_graphs):
    from qwalkspec import support_u_power

    for gid, g in random_graphs:
        cp = char_poly(support_u_power(build_arc_space(g), 1))
        assert cp == closed_form_charpoly_su(g), gid
        assert cp.coeffs == ihara_style_charpoly(g).coeffs, gid


def test_squared_support_random(random_graphs):
    for gid, g in random_graphs:
        a = build_arc_space(g)
        if a.k <= 2:
            continue
        assert mat_equal(support_u_power(a, 2), su2_via_identity(a)), gid
        assert char_poly(support_u_power(a, 2)) == closed_form_charpoly_su2(g), gid


def test_relabeling_random(random_graphs):
    from qwalkspec import profile, relabel

    rng = np.random.default_rng(77)
    for gid, g in random_graphs[:3]:
        base = profile(g, gid)
        h = relabel(g, list(rng.permutation(g.n)))
        other = profile(h, gid + "-relabeled")
        for which in ("a", "s1", "s2", "s3"):
            assert base.charpoly(which).coeffs == other.charpoly(which).coeffs, gid
