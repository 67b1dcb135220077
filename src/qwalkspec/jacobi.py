"""Numeric eigenvalues of exact symmetric integer matrices, by LAPACK.

Used for reporting only: the adjacency spectrum behind the closed-form
spectra and ``spectrum --which a --form numeric``.  Non-symmetric spectra
are never computed in floating point here; they go through exact
characteristic polynomials instead.
"""

from __future__ import annotations

import numpy as np


def symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, with multiplicity.

    Raises ValueError if the input is not square and exactly symmetric.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix not square: {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix not symmetric")
    return np.linalg.eigvalsh(m.astype(float))
