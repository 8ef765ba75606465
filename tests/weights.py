"""Shepard weights as a dense (P, N) array, for tests that index them by landmark."""

import numpy as np

from landreg.landmarks import k_nearest
from landreg.shepard import _weights_matrix


def scattered_weights(landmarks, cfg, rho, pts):
    """Wbar at pts, shape (P, N): the (P, N_W) neighbour-list weights scattered by index."""
    pts = np.asarray(pts, dtype=float)
    near, d2 = k_nearest(landmarks.sources, pts, cfg.n_w)
    wbar = np.zeros((len(pts), landmarks.n))
    wbar[np.arange(len(pts))[:, None], near] = _weights_matrix(landmarks, cfg, rho, pts, near, d2)
    return wbar
