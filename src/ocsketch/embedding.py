"""Explicit kernel embeddings: Nystrom and Gaussian-sketch (KJL) projections.

Both map x in R^D to phi'(x) = P . K(x) in R^d, where K(x) is the vector of
kernel values against m landmark points. Only P (d x m) and the landmarks
(m x D) are retained, so model size and scoring cost are independent of the
training size.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import gram, require_finite

NYSTROM = "nystrom"
KJL = "kjl"

# eigenvalues below EIG_RTOL * lambda_max are treated as rank deficiency:
# their projection rows are zeroed instead of inverted
EIG_RTOL = 1e-12


@dataclass
class EmbeddingModel:
    """Landmark subsample plus projection matrix."""

    kind: str  # NYSTROM or KJL
    landmarks: np.ndarray  # (m, D)
    P: np.ndarray  # (d, m)
    h: float

    @property
    def m(self):
        return self.landmarks.shape[0]

    @property
    def d(self):
        return self.P.shape[0]

    @property
    def input_dim(self):
        return self.landmarks.shape[1]


def _draw_landmarks(X, m, rng):
    idx = rng.choice(X.shape[0], size=m, replace=False)
    return np.array(X[idx], dtype=float)


def _check_fit_args(X, m, d, h):
    n = X.shape[0]
    if m > n:
        raise ValueError(f"m={m} exceeds training size n={n}")
    if d > m:
        raise ValueError(f"d={d} exceeds m={m}")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")


def fit_nystrom(X, m, d, h, seed=None):
    """Fit a Nystrom embedding: P = Lambda^(-1/2) V^T over the top-d eigenpairs.

    Parameters
    ----------
    X : array-like, shape (n, D)
        Training data; m landmarks are drawn uniformly without replacement.
    m, d : int
        Landmark count and output dimension, d <= m <= n.
    h : float
        Gaussian kernel bandwidth.
    seed : int or None
        Seeds the landmark draw.

    Returns
    -------
    EmbeddingModel
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _check_fit_args(X, m, d, h)
    rng = np.random.default_rng(seed)
    landmarks = _draw_landmarks(X, m, rng)
    K = gram(landmarks, landmarks, h)
    eigvals, eigvecs = np.linalg.eigh(K)
    # eigh is ascending; take the d largest, descending
    order = np.arange(m - 1, m - 1 - d, -1)
    lam = eigvals[order]
    V = eigvecs[:, order]
    P = np.zeros((d, m))
    keep = lam >= EIG_RTOL * lam[0]
    P[keep] = V[:, keep].T / np.sqrt(lam[keep])[:, None]
    return EmbeddingModel(NYSTROM, landmarks, P, float(h))


def fit_kjl(X, m, d, h, seed=None):
    """Fit a Gaussian-sketch embedding: P = Z . K_II with iid N(0,1) Z.

    Same contract as fit_nystrom; the seed drives both the landmark draw and
    the sketch matrix Z, in that order.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _check_fit_args(X, m, d, h)
    rng = np.random.default_rng(seed)
    landmarks = _draw_landmarks(X, m, rng)
    K = gram(landmarks, landmarks, h)
    Z = rng.standard_normal((d, m))
    return EmbeddingModel(KJL, landmarks, Z @ K, float(h))


def embed(model, X):
    """Map rows of X to the embedded space: row i = P . K(X_i).

    Parameters
    ----------
    model : EmbeddingModel
    X : array-like, shape (n, D) or (D,)

    Returns
    -------
    ndarray, shape (n, d) (a single vector comes back as (1, d)).

    Raises
    ------
    ValueError
        On a dimension mismatch, or naming the row and column of the first
        non-finite entry of X.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.input_dim:
        raise ValueError(
            f"input dim {X.shape[1]} != landmark dim {model.input_dim}"
        )
    require_finite(X)
    K = gram(X, model.landmarks, model.h)
    return K @ model.P.T
