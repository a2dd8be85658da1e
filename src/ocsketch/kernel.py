"""Gaussian gram matrices, nearest-rank quantiles, distance-quantile bandwidths."""

import math

import numpy as np
from scipy.spatial.distance import cdist, pdist


def require_finite(X):
    """Raise ValueError naming the first non-finite entry of a 2-D array."""
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite value {X[row, col]} at row {row}, column {col}")


def nearest_rank(count, q):
    """1-based index ceil(q*count) of the nearest-rank q-quantile of count values."""
    if not 0 < q <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    # guard against float products landing epsilon above an exact integer
    return max(1, math.ceil(q * count - 1e-9))


def percentile(values, q):
    """Nearest-rank percentile: the value at 1-based index ceil(q*M).

    Parameters
    ----------
    values : nonempty iterable of reals
    q : float in (0, 1]
    """
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of empty input")
    return vals[nearest_rank(len(vals), q) - 1]


def quantile_bandwidth(X, q):
    """Bandwidth as the nearest-rank q-quantile of pairwise distances.

    A zero quantile value falls back to the smallest strictly positive
    distance; an all-identical dataset is an error.

    Parameters
    ----------
    X : array-like, shape (n, D), n >= 2
    q : float in (0, 1]

    Returns
    -------
    float > 0
    """
    return quantile_bandwidths(X, [q])[0]


def quantile_bandwidths(X, qs):
    """quantile_bandwidth of X at each of the quantiles qs, from one set of
    pairwise distances and one partition; returns a list of floats."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 points, got {X.shape[0]}")
    dists = pdist(X)
    ranks = [nearest_rank(len(dists), q) - 1 for q in qs]
    dists.partition(sorted(set(ranks)))  # in place: a copy would double the n(n-1)/2 floats
    hs = [float(dists[rank]) for rank in ranks]
    if 0.0 in hs:
        positive = dists[dists > 0]
        if positive.size == 0:
            raise ValueError("degenerate dataset: all points identical")
        hs = [h or float(positive.min()) for h in hs]
    return hs


def gram(X, Y, h):
    """Gram matrix G[i, j] = exp(-||X_i - Y_j||^2 / h^2).

    Parameters
    ----------
    X : array-like, shape (n, D)
    Y : array-like, shape (m, D)
    h : float > 0

    Returns
    -------
    ndarray, shape (n, m)
    """
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    # cdist evaluates each pair elementwise, so identical rows give exactly 0
    # and gram(X, X, h) comes out exactly symmetric with a unit diagonal
    return np.exp(-cdist(X, Y, "sqeuclidean") / h**2)
