"""The Gaussian kernel rule and gram matrices, nearest-rank quantiles, distance-quantile bandwidths."""

import sys

import numpy as np
from scipy.spatial.distance import cdist, pdist

# gaussian floors every exponent here. Below about -708 numpy's exp leaves
# its vector path: it costs ~14 ns per element there, and 94-149 ns when the
# result is subnormal, against ~1 ns above -707. e^-600 ~ 2.7e-261, so
# products of kernel values with a projection or dual weights stay normal.
EXP_FLOOR = -600.0

# Training stages whose cost grows quadratically in the rows they see (the
# bandwidth's pairwise distances, auto-k's kNN table) see at most this many.
MAX_QUADRATIC_ROWS = 2500


def quadratic_rows(n):
    """Sorted indices of the rows a quadratic-cost stage uses: all n rows when
    n <= MAX_QUADRATIC_ROWS, else a uniform subset of that many rows drawn
    with a fixed seed, so the subset depends on n only."""
    if n <= MAX_QUADRATIC_ROWS:
        return np.arange(n)
    return np.sort(np.random.default_rng(0).choice(n, MAX_QUADRATIC_ROWS, replace=False))


def require_finite(X):
    """Raise ValueError naming the first non-finite entry of a 2-D array."""
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite value {X[row, col]} at row {row}, column {col}")


def nearest_rank(count, q):
    """1-based index ceil(q*count) of the nearest-rank q-quantile of count
    values; count may be an integer array, giving one index per entry."""
    if not 0 < q <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    # guard against float products landing epsilon above an exact integer
    rank = np.maximum(np.ceil(q * np.asarray(count) - 1e-9), 1).astype(np.int64)
    return rank[()]  # a scalar for a scalar count


def percentile(values, q):
    """Nearest-rank percentile: the value at 1-based index ceil(q*M).

    Parameters
    ----------
    values : nonempty 1-D array-like of reals
    q : float in (0, 1]
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("percentile of empty input")
    rank = nearest_rank(values.size, q) - 1
    return np.partition(values, rank)[rank]


def quantile_bandwidth(X, q):
    """Bandwidth as the nearest-rank q-quantile of pairwise distances.

    The distances are those among quadratic_rows(n): every pair for n up to
    MAX_QUADRATIC_ROWS, else the pairs of a fixed-seed subset of rows, so the
    bandwidth then depends on the row order. A zero quantile value falls back
    to the smallest strictly positive distance among those rows or, when
    they are all one point, from that point to every row; an all-identical
    dataset is an error.

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
    rows = quadratic_rows(X.shape[0])
    dists = pdist(X[rows])
    ranks = [nearest_rank(len(dists), q) - 1 for q in qs]
    dists.partition(sorted(set(ranks)))  # in place: a copy would double the N(N-1)/2 floats
    hs = [float(dists[rank]) for rank in ranks]
    if 0.0 in hs:
        positive = dists[dists > 0]
        if positive.size == 0:  # every sampled row is one point: look at all rows
            positive = cdist(X[rows[:1]], X)[0]
            positive = positive[positive > 0]
        if positive.size == 0:
            raise ValueError("degenerate dataset: all points identical")
        hs = [h or float(positive.min()) for h in hs]
    return hs


def check_bandwidth(h):
    """Raise ValueError unless h > 0 and h**2 is a finite, normal float, so
    that dividing by -h**2 neither overflows nor divides by zero."""
    h = float(h)
    if not (h > 0 and sys.float_info.min <= h * h < np.inf):  # also false for nan
        raise ValueError(
            f"bandwidth must be positive, with h**2 a finite, normal float; got h={h}"
        )


def gaussian(sq_dists, h):
    """Gaussian kernel values exp(-sq_dists / h^2), computed in place in the
    float array sq_dists, which is returned.

    Round-off below 0 is clamped to 0 and the exponent is floored at
    EXP_FLOOR, so every value lies in [e^-600, 1]. It divides by -h**2
    rather than multiplying by a reciprocal, which would round differently.
    Each step is one ufunc: np.clip would do two of them in one call, but
    costs about 3 us more on one row of 100.
    """
    np.maximum(sq_dists, 0.0, out=sq_dists)  # round-off below 0 would give a value above 1
    sq_dists /= -h**2
    np.maximum(sq_dists, EXP_FLOOR, out=sq_dists)
    return np.exp(sq_dists, out=sq_dists)


def gram(X, Y, h):
    """Gram matrix G[i, j] = exp(-||X_i - Y_j||^2 / h^2), floored at
    exp(EXP_FLOOR) (see gaussian).

    Parameters
    ----------
    X : array-like, shape (n, D)
    Y : array-like, shape (m, D)
    h : float > 0 with h**2 a finite, normal float (check_bandwidth)

    Returns
    -------
    ndarray, shape (n, m)
    """
    check_bandwidth(h)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    # cdist evaluates each pair elementwise, so identical rows give exactly 0
    # and gram(X, X, h) comes out exactly symmetric with a unit diagonal
    return gaussian(cdist(X, Y, "sqeuclidean"), h)
