"""Gaussian-kernel one-class SVM baseline: SMO dual solver and scoring.

Solves min 0.5 a'Qa subject to 0 <= a_i <= 1/(nu*n), sum a = 1 with
maximal-violating-pair two-variable updates. Kernel rows are computed on
demand and kept in a byte-budgeted LRU cache.
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .kernel import gram, require_finite

SV_EPS = 1e-12  # alpha above this counts as a support vector
CACHE_BYTES = 512 * 2**20  # kernel-row cache budget of one training


@dataclass
class OcsvmModel:
    support_vectors: np.ndarray  # (n_sv, D)
    alpha: np.ndarray  # (n_sv,)
    rho: float
    h: float
    nu: float
    converged: bool = True

    @property
    def n_sv(self):
        return self.support_vectors.shape[0]


class _RowCache:
    """LRU cache of gram-matrix rows bounded by a byte budget."""

    def __init__(self, X, h, budget_bytes):
        self.X = X
        self.h = h
        self.rows = OrderedDict()
        self.max_rows = max(1, int(budget_bytes // (X.shape[0] * 8)))
        self.evals = 0

    def row(self, i):
        if i in self.rows:
            self.rows.move_to_end(i)
            return self.rows[i]
        r = gram(self.X[i : i + 1], self.X, self.h)[0]
        self.evals += self.X.shape[0]
        self.rows[i] = r
        if len(self.rows) > self.max_rows:
            self.rows.popitem(last=False)
        return r


def _initial_alpha(n, C, rng):
    """Feasible start: a random floor(1/C) subset at the box bound."""
    alpha = np.zeros(n)
    full = int(np.floor(1.0 / C + 1e-12))
    order = rng.permutation(n)
    alpha[order[:full]] = C
    remainder = 1.0 - full * C
    if remainder > 1e-15 and full < n:
        alpha[order[full]] = remainder
    return alpha


def train_ocsvm(X, h, nu=0.5, tol=1e-3, max_kernel_evals=10_000_000, seed=None):
    """Train a nu-OCSVM by sequential minimal optimization.

    Parameters
    ----------
    X : array-like, shape (n, D), n >= 2
    h : float > 0
        Gaussian kernel bandwidth; kernel.gram rejects any other value.
    nu : float in (0, 1]
        Upper bound on the flagged-training fraction, lower bound on the
        support-vector fraction.
    tol : float
        Stop when the maximal violating-pair gap drops below tol.
    max_kernel_evals : int
        Kernel-evaluation budget (a cache-miss row costs n); exceeded budget
        returns the best iterate with converged=False.
    seed : int or None
        Seeds the initial feasible point.

    Returns
    -------
    OcsvmModel holding only the support vectors (alpha > 1e-12).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 training points, got {n}")
    require_finite(X)
    if not 0 < nu <= 1:
        raise ValueError(f"nu must be in (0, 1], got {nu}")

    C = 1.0 / (nu * n)
    rng = np.random.default_rng(seed)
    alpha = _initial_alpha(n, C, rng)
    # the row cache is freed when _smo returns, before the model's arrays are
    # allocated: an array placed above the cached rows on the heap would keep
    # their freed memory resident under the next large allocation
    grad, converged = _smo(_RowCache(X, h, CACHE_BYTES), alpha, C, tol, max_kernel_evals)
    rho = _offset(grad, alpha, C)
    sv = alpha > SV_EPS
    return OcsvmModel(
        support_vectors=np.array(X[sv]),
        alpha=alpha[sv].copy(),
        rho=rho,
        h=float(h),
        nu=float(nu),
        converged=converged,
    )


def _smo(cache, alpha, C, tol, max_kernel_evals):
    """Maximal-violating-pair SMO from a feasible alpha, updated in place;
    returns the gradient Q alpha and whether the gap fell below tol."""
    n = alpha.shape[0]
    # grad = Q alpha, built once from the initially active rows; any feasible
    # start has >= nu*n nonzero alphas, so this build is mandatory work and
    # the eval budget only meters the optimization loop after it
    grad = np.zeros(n)
    for i in np.flatnonzero(alpha > 0):
        grad += alpha[i] * cache.row(i)
    cache.evals = 0

    max_sweeps = 200 * n  # float-stall safety net on top of the eval budget
    for _ in range(max_sweeps):
        up = alpha < C
        down = alpha > 0
        if not up.any() or not down.any():
            return grad, True  # box fully saturated (nu = 1)
        i = int(np.flatnonzero(up)[np.argmin(grad[up])])
        j = int(np.flatnonzero(down)[np.argmax(grad[down])])
        gap = grad[j] - grad[i]
        if gap <= tol:
            return grad, True
        if cache.evals >= max_kernel_evals:
            break
        qi = cache.row(i)
        qj = cache.row(j)
        eta = qi[i] + qj[j] - 2.0 * qi[j]
        room_i = C - alpha[i]
        room_j = alpha[j]
        delta = min(room_i, room_j) if eta <= 1e-15 else min(gap / eta, room_i, room_j)
        if delta <= 0:
            break
        alpha[i] = C if delta == room_i else alpha[i] + delta
        alpha[j] = 0.0 if delta == room_j else alpha[j] - delta
        grad += delta * (qi - qj)
    return grad, False


def _offset(grad, alpha, C):
    """Decision offset rho from the KKT conditions.

    Mean of f(x_i) over unbounded support vectors; midpoint of the feasible
    KKT interval when none exist.
    """
    free = (alpha > SV_EPS) & (alpha < C * (1 - 1e-9))
    if free.any():
        return float(np.mean(grad[free]))
    at_upper = alpha >= C * (1 - 1e-9)
    at_zero = alpha <= SV_EPS
    lo = np.max(grad[at_upper]) if at_upper.any() else None
    hi = np.min(grad[at_zero]) if at_zero.any() else None
    if lo is not None and hi is not None:
        return float((lo + hi) / 2)
    return float(lo if lo is not None else hi)


def score(model, x):
    """Decision score f(x) - rho; novel iff negative at the default threshold.

    Accepts a single D-vector (returns float) or an (n, D) batch
    (returns (n,) array). A non-finite entry raises ValueError, and so does
    (from kernel.gram) a query whose dimension differs from the model's.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    Xq = np.atleast_2d(x)
    require_finite(Xq)
    vals = gram(Xq, model.support_vectors, model.h) @ model.alpha - model.rho
    return float(vals[0]) if single else vals
