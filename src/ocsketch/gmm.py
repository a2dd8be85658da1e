"""Full-covariance Gaussian mixture fitting by EM and log-density scoring."""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lapack
from scipy.special import logsumexp


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture: weights pi, means mu, full covariances sigma.

    Construction factors every covariance once and keeps what scoring needs,
    so a model is frozen: build a new one instead of changing its arrays. A
    covariance that is not positive definite raises ValueError naming it.
    """

    pi: np.ndarray  # (k,)
    mu: np.ndarray  # (k, d)
    sigma: np.ndarray  # (k, d, d)
    diagnostics: dict = field(default_factory=dict)
    # Derived in __post_init__, never serialized:
    _cho: list = field(init=False, repr=False, compare=False)  # cho_factor of each sigma[l]
    _logdet: np.ndarray = field(init=False, repr=False, compare=False)  # (k,) log det sigma[l]
    _inv_t: np.ndarray = field(init=False, repr=False, compare=False)  # (k, d, d) L_l^-T
    _log_norm: np.ndarray = field(init=False, repr=False, compare=False)  # (k,)

    def __post_init__(self):
        k, d = self.mu.shape
        cho, logdet, inv = [], np.empty(k), np.empty((k, d, d))
        for l in range(k):
            try:
                factor = cho_factor(self.sigma[l], lower=True)
            except LinAlgError as exc:
                raise ValueError(f"covariance sigma[{l}] is not positive definite: {exc}") from None
            cho.append(factor)
            logdet[l] = 2.0 * np.sum(np.log(np.diag(factor[0])))
            inv[l] = lapack.dtrtri(factor[0], lower=1)[0]  # L^-1; info is 0, L has no zero pivot
        with np.errstate(divide="ignore"):  # zero-weight components
            log_norm = np.log(self.pi) - 0.5 * (d * np.log(2 * np.pi) + logdet)
        # cho_factor leaves sigma's entries above the diagonal, and so does dtrtri
        inv_t = np.triu(inv.transpose(0, 2, 1))
        derived = {"_cho": cho, "_logdet": logdet, "_inv_t": inv_t, "_log_norm": log_norm}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def k(self):
        return self.pi.shape[0]

    @property
    def d(self):
        return self.mu.shape[1]


def default_reg(X):
    """Covariance ridge: 1e-6 times the mean per-dimension data variance."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mean_var = float(np.mean(np.var(X, axis=0)))
    return 1e-6 * mean_var if mean_var > 0 else 1e-6


def log_pdf(model, z):
    """Mixture log density log sum_l pi_l N(z; mu_l, sigma_l).

    One stacked matmul whitens z against every component's cached inverse
    Cholesky factor, then a max-shifted log-sum-exp combines the components.
    The result is finite unless z lies ~1e154 or more (in whitened units) from
    every mean, where each squared distance overflows and the density is
    -inf. Accepts a single d-vector (returns float) or an (n, d) batch
    (returns (n,) array); both take the same path.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    Z = np.atleast_2d(z)
    if not np.isfinite(Z).all():
        raise ValueError("non-finite input to log_pdf")
    if Z.shape[1] != model.d:
        raise ValueError(f"dimension mismatch: {Z.shape[1]} != {model.d}")
    # Centre on each mean before whitening: Z @ L^-T - mu @ L^-T would cancel
    # digits for points near a mean that lies far from the origin.
    Y = (Z[None, :, :] - model.mu[:, None, :]) @ model._inv_t  # (k, n, d)
    with np.errstate(over="ignore", divide="ignore"):  # far from every mean: -inf
        joint = model._log_norm[:, None] - 0.5 * np.square(Y).sum(axis=2)  # (k, n)
        top = joint.max(axis=0)
        top[np.isneginf(top)] = 0.0  # every term is 0, so the log of their sum is -inf
        vals = np.log(np.exp(joint - top).sum(axis=0)) + top
    return float(vals[0]) if single else vals


def e_step(model, X):
    """Responsibilities (rows sum to 1) and the mean log-likelihood.

    Solves against each cached Cholesky factor instead of using log_pdf's
    whitening, which rounds differently: EM's arithmetic, and so every fitted
    model's bytes, stay as they were.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    comp = np.empty((n, model.k))
    for l in range(model.k):
        diff = (X - model.mu[l]).T  # (d, n)
        maha = np.sum(diff * cho_solve(model._cho[l], diff), axis=0)
        comp[:, l] = -0.5 * (d * np.log(2 * np.pi) + model._logdet[l] + maha)
    with np.errstate(divide="ignore"):
        joint = comp + np.log(model.pi)
    norm = logsumexp(joint, axis=1, keepdims=True)
    resp = np.exp(joint - norm)
    return resp, float(np.mean(norm))


def m_step(X, resp, reg):
    """Weighted-moment parameter update.

    A component whose total responsibility collapses below 1e-10 * n is
    reinitialized at the point the surviving components explain worst; the
    event is flagged in the returned model's diagnostics.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    k = resp.shape[1]
    weights = resp.sum(axis=0)  # (k,)
    collapsed = np.flatnonzero(weights < 1e-10 * n)
    healthy = np.flatnonzero(weights >= 1e-10 * n)

    pi = weights / n
    mu = np.zeros((k, d))
    sigma = np.zeros((k, d, d))
    eye = reg * np.eye(d)
    for l in healthy:
        w = resp[:, l]
        mu[l] = w @ X / weights[l]
        diff = X - mu[l]
        sigma[l] = (diff.T * w) @ diff / weights[l] + eye

    if collapsed.size:
        if healthy.size == 0:
            raise ValueError("all components collapsed")
        probe = GmmModel(pi[healthy] / pi[healthy].sum(), mu[healthy],
                         sigma[healthy])
        worst = int(np.argmin(log_pdf(probe, X)))
        global_cov = np.cov(X, rowvar=False, bias=True).reshape(d, d)
        for l in collapsed:
            mu[l] = X[worst]
            sigma[l] = global_cov + eye
            pi[l] = 1.0 / n
        pi = pi / pi.sum()

    model = GmmModel(pi, mu, sigma)
    if collapsed.size:
        model.diagnostics["reinitialized_components"] = collapsed.tolist()
    return model


def _kmeanspp_centers(X, k, rng):
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = X.shape[0]
    centers = [X[rng.integers(n)]]
    sq = np.sum((X - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = sq.sum()
        if total <= 0:
            centers.append(X[rng.integers(n)])
            continue
        idx = rng.choice(n, p=sq / total)
        centers.append(X[idx])
        sq = np.minimum(sq, np.sum((X - centers[-1]) ** 2, axis=1))
    return np.array(centers)


def _init_model(X, k, init, reg, rng):
    if init is not None:
        pi, mu, sigma = init
        return GmmModel(np.array(pi, dtype=float), np.array(mu, dtype=float),
                        np.array(sigma, dtype=float))
    centers = _kmeanspp_centers(X, k, rng)
    assign = np.argmin(
        np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1
    )
    resp = np.zeros((X.shape[0], k))
    resp[np.arange(X.shape[0]), assign] = 1.0
    # guarantee every component owns at least its own center point
    for l in range(k):
        if resp[:, l].sum() == 0:
            nearest = int(np.argmin(np.sum((X - centers[l]) ** 2, axis=1)))
            resp[nearest] = 0.0
            resp[nearest, l] = 1.0
    return m_step(X, resp, reg)


def fit_em(X, k, init=None, tol=1e-4, max_iter=200, seed=None, reg=None):
    """Fit a k-component full-covariance GMM by EM.

    Parameters
    ----------
    X : array-like, shape (n, d)
    k : int, k <= n
    init : optional (pi, mu, sigma) triple, e.g. from mode-seeking clustering;
        when absent, k-means++ seeding (seeded) is used.
    tol : float
        Stop when the mean log-likelihood improves by less than tol.
    max_iter : int
    seed : int or None
    reg : float or None
        Covariance ridge; defaults to 1e-6 times the mean data variance.

    Returns
    -------
    GmmModel with diagnostics["loglik_history"] recording the EM trajectory.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    if reg is None:
        reg = default_reg(X)
    rng = np.random.default_rng(seed)
    model = _init_model(X, k, init, reg, rng)

    history = []
    reinits = []
    prev = -np.inf
    for _ in range(max_iter):
        resp, loglik = e_step(model, X)
        history.append(loglik)
        if abs(loglik - prev) < tol:
            break
        prev = loglik
        model = m_step(X, resp, reg)
        reinits.extend(model.diagnostics.get("reinitialized_components", []))
    model.diagnostics["loglik_history"] = history
    if reinits:
        model.diagnostics["reinitialized_components"] = reinits
    return model
