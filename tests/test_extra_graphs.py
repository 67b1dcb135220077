"""Named graphs beyond the main corpus, including a 136-arc Paley graph.

Everything here runs through the exact integer pipeline only; it is the
breadth counterpart to the depth of the acceptance suite.
"""

import numpy as np
import pytest

from qwalkspec import (
    SrgParams,
    build_arc_space,
    char_poly,
    closed_form_charpoly_su,
    closed_form_charpoly_su2,
    complete_bipartite_graph,
    complete_graph,
    hypercube_graph,
    identity_suite,
    ihara_style_charpoly,
    paley_graph,
    srg_params,
    su2_via_identity,
    support_u_power,
)

EXTRA = [
    ("K7", complete_graph(7)),
    ("K44", complete_bipartite_graph(4, 4)),
    ("Q4", hypercube_graph(4)),
    ("paley17", paley_graph(17)),
]


def test_paley17_is_srg():
    assert srg_params(paley_graph(17)) == SrgParams(17, 8, 3, 4)


@pytest.mark.parametrize("gid,g", EXTRA, ids=[gid for gid, _ in EXTRA])
def test_identities_hold(gid, g):
    for name, ok in identity_suite(build_arc_space(g)):
        assert ok, f"{gid}: {name}"


@pytest.mark.parametrize("gid,g", EXTRA, ids=[gid for gid, _ in EXTRA])
def test_closed_forms_hold(gid, g):
    a = build_arc_space(g)
    assert char_poly(support_u_power(a, 1)) == closed_form_charpoly_su(g)
    assert char_poly(support_u_power(a, 1)).coeffs == ihara_style_charpoly(g).coeffs
    assert np.array_equal(support_u_power(a, 2), su2_via_identity(a))
    assert char_poly(support_u_power(a, 2)) == closed_form_charpoly_su2(g)
