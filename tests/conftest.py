import numpy as np
import pytest

from moilab.linalg import spectral_measure

SEED = 20240501


def column_form(ops):
    """Operators as the rank checks draw them: the eigenvalue of every frame
    column (k, d), the frames (k, d, d) and the matrices (k, d, d)."""
    measures = [spectral_measure(op) for op in ops]
    return (
        np.array([E.eigenvalues[E.column_atom_index] for E in measures]),
        np.array([E.frame for E in measures]),
        np.array([op.matrix for op in ops]),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)
