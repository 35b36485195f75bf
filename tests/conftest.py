import numpy as np
import pytest

from moilab.linalg import hermitian_from_spectrum, random_unitary, spectral_measure

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


def _reference_draw(rng, dim, rank):
    """One rank-limited operator drawn alone, as the rank checks draw each
    of theirs: its own QR, then its values, grouped into atoms and built
    from its spectrum."""
    Q = random_unitary(rng, dim)
    drawn = rng.uniform(-1.0, 1.0, size=rank)
    keys = np.append(drawn, 0.0) if rank < dim else drawn
    order = np.argsort(keys, kind="stable")
    blocks = [[i] for i in range(rank)] + [list(range(rank, dim))]
    frame = Q[:, [col for k in order for col in blocks[k]]]
    return hermitian_from_spectrum(keys[order], frame, [len(blocks[k]) for k in order])


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)
