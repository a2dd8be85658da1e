"""Explicit kernel embeddings: Nystrom and Gaussian-sketch (KJL) projections.

Both map x in R^D to phi'(x) = P . K(x) in R^d, where K(x) is the vector of
kernel values against m landmark points. Only P (d x m) and the landmarks
(m x D) are retained, so model size and scoring cost are independent of the
training size.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernel import check_bandwidth, gaussian, gram, require_finite

NYSTROM = "nystrom"
KJL = "kjl"

# eigenvalues below EIG_RTOL * lambda_max are treated as rank deficiency:
# their projection rows are zeroed instead of inverted
EIG_RTOL = 1e-12

# embed expands ||x - l||^2 about the landmark mean, and the expansion
# overflows for points ~1e154 from it: a model whose landmarks lie more than
# sqrt(MAX_SQ_SPREAD) = 1e150 from their mean is rejected when it is built
MAX_SQ_SPREAD = 1e300


@dataclass(frozen=True)
class EmbeddingModel:
    """Landmark subsample plus projection matrix.

    Construction centres the landmarks on their mean and keeps what embed
    needs, so a model is frozen: build a new one instead of changing its
    arrays. Landmarks more than 1e150 from their mean raise ValueError, and
    so does a bandwidth that kernel.check_bandwidth rejects.
    """

    kind: str  # NYSTROM or KJL
    landmarks: np.ndarray  # (m, D)
    P: np.ndarray  # (d, m)
    h: float
    # Derived in __post_init__, never serialized (C-ordered for the products):
    _centre: np.ndarray = field(init=False, repr=False, compare=False)  # (D,) landmark mean c
    _neg2_lc_t: np.ndarray = field(init=False, repr=False, compare=False)  # (D, m) -2 (l - c)^T
    _lc_sq: np.ndarray = field(init=False, repr=False, compare=False)  # (m,) ||l - c||^2
    _p_t: np.ndarray = field(init=False, repr=False, compare=False)  # (m, d) P^T

    def __post_init__(self):
        check_bandwidth(self.h)
        centre = self.landmarks.mean(axis=0)
        lc = self.landmarks - centre
        lc_sq = np.einsum("ij,ij->i", lc, lc)
        if not np.all(lc_sq <= MAX_SQ_SPREAD):  # also false for inf and nan
            raise ValueError(
                f"a landmark lies {np.sqrt(lc_sq.max()):.3g} from the landmark mean; "
                f"the limit is {np.sqrt(MAX_SQ_SPREAD):.0e}"
            )
        object.__setattr__(self, "_centre", centre)
        # scaling by -2 is exact, so this is -2 (l - c)^T to the last bit
        object.__setattr__(self, "_neg2_lc_t", np.ascontiguousarray(-2.0 * lc.T))
        object.__setattr__(self, "_lc_sq", lc_sq)
        object.__setattr__(self, "_p_t", np.ascontiguousarray(self.P.T))

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


def _check_fit_args(X, m, d):
    n = X.shape[0]
    if m > n:
        raise ValueError(f"m={m} exceeds training size n={n}")
    if not 1 <= d <= m:
        raise ValueError(f"need 1 <= d <= m, got d={d}, m={m}")


def fit_nystrom(X, m, d, h, seed=None):
    """Fit a Nystrom embedding: P = Lambda^(-1/2) V^T over the top-d eigenpairs.

    Parameters
    ----------
    X : array-like, shape (n, D)
        Training data; m landmarks are drawn uniformly without replacement.
    m, d : int
        Landmark count and output dimension, 1 <= d <= m <= n.
    h : float
        Gaussian kernel bandwidth.
    seed : int or None
        Seeds the landmark draw.

    Returns
    -------
    EmbeddingModel
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _check_fit_args(X, m, d)
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
    _check_fit_args(X, m, d)
    rng = np.random.default_rng(seed)
    landmarks = _draw_landmarks(X, m, rng)
    K = gram(landmarks, landmarks, h)
    Z = rng.standard_normal((d, m))
    return EmbeddingModel(KJL, landmarks, Z @ K, float(h))


def embed(model, X):
    """Map rows of X to the embedded space: row i = P . K(X_i).

    The squared distances come from one matrix product against the centred
    landmarks, ||x_c||^2 + ||l_c||^2 - 2 l_c . x_c, with x_c = x - c and
    l_c = l - c for the landmark mean c. Translation leaves distances
    unchanged, and centring keeps the cancellation small: the rounding error
    of a squared distance is O(D eps (||x_c||^2 + ||l_c||^2)), so each kernel
    value is within that over h^2 of exp(-||x - l||^2 / h^2). The kernel
    values come from kernel.gaussian, the rule gram uses too: round-off below
    0 is clamped to 0 and every exponent is floored at kernel.EXP_FLOOR, so
    every kernel value lies in [e^-600, 1]. The floor keeps a query far from
    every landmark on exp's fast path (below about -708 numpy's exp costs
    ~14 ns per element, 94-149 ns for a subnormal result, against ~1 ns
    above -707), and keeps the product with P free of subnormals. (A query
    ~1e157 or more from the landmark mean, far beyond any feature scale, can
    overflow the expansion to nan, which log_pdf then rejects.)

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
    Xc = X - model._centre
    K = Xc @ model._neg2_lc_t  # (n, m): squared distances, then kernel values, in place
    K += np.einsum("ij,ij->i", Xc, Xc)[:, None]
    K += model._lc_sq
    gaussian(K, model.h)
    return np.dot(K, model._p_t)  # less per-call overhead than @ for one row
