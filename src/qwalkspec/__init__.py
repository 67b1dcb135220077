"""Exact positive-support spectra of discrete-time quantum walks on regular graphs.

The package builds the walk transition matrix on a graph's arc space, takes
positive supports of its powers with sign-exact integer arithmetic, evaluates
their closed-form spectra, and compares exact characteristic polynomials as
graph-isomorphism invariants.
"""

from .arcspace import (
    ArcSpace,
    build_arc_space,
    ins_matrix,
    outs_matrix,
    reversal_matrix,
    scaled_reflection_q,
)
from .errors import (
    DivisibilityError,
    Graph6Error,
    HypothesisError,
    ParameterError,
    ValencyError,
)
from .generators import (
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    generate,
    hypercube_graph,
    paley_graph,
    parse_generator_spec,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
)
from .graph6 import (
    parse_graph6,
    parse_graph6_file,
    read_graph6_file,
    write_graph6,
    write_graph6_file,
)
from .graphs import (
    Graph,
    SrgParams,
    adjacency_matrix,
    find_isomorphism,
    relabel,
    srg_params,
)
from .intmat import (
    bareiss_determinant,
    char_poly,
    char_polys,
    int_eye,
    int_matrix,
    mat_equal,
    mat_mul,
    positive_support,
)
from .invariants import (
    BatchResult,
    CompareReport,
    InvariantProfile,
    batch_compare,
    compare,
    profile,
)
from .jacobi import symmetric_eigenvalues
from .polynomials import (
    CharPoly,
    poly_divide_exact,
    poly_gcd,
    poly_mul,
    poly_roots,
    squarefree_decomposition,
)
from .supports import (
    ClosedFormSpectrum,
    QuadraticPair,
    RationalEigenvalue,
    SupportSet,
    build_support_set,
    closed_form_charpoly_su,
    closed_form_charpoly_su2,
    closed_form_spectrum_su,
    closed_form_spectrum_su2,
    identity_suite,
    ihara_style_charpoly,
    su2_via_identity,
    support_u_power,
)

__version__ = "0.1.0"
