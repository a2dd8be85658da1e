"""Full-covariance Gaussian mixture fitting by EM and log-density scoring."""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp


@dataclass
class GmmModel:
    """Gaussian mixture: weights pi, means mu, full covariances sigma."""

    pi: np.ndarray  # (k,)
    mu: np.ndarray  # (k, d)
    sigma: np.ndarray  # (k, d, d)
    reg: float
    diagnostics: dict = field(default_factory=dict)

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


def _component_log_densities(model, Z):
    """Per-component Gaussian log densities, shape (n, k)."""
    n, d = Z.shape
    out = np.empty((n, model.k))
    for l in range(model.k):
        chol, lower = cho_factor(model.sigma[l], lower=True)
        diff = (Z - model.mu[l]).T  # (d, n)
        sol = cho_solve((chol, lower), diff)
        maha = np.sum(diff * sol, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, l] = -0.5 * (d * np.log(2 * np.pi) + logdet + maha)
    return out


def log_pdf(model, z):
    """Mixture log density log sum_l pi_l N(z; mu_l, sigma_l).

    Computed with log-sum-exp, so it is finite for any finite z. Accepts a
    single d-vector (returns float) or an (n, d) batch (returns (n,) array).
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    Z = np.atleast_2d(z)
    if not np.all(np.isfinite(Z)):
        raise ValueError("non-finite input to log_pdf")
    if Z.shape[1] != model.d:
        raise ValueError(f"dimension mismatch: {Z.shape[1]} != {model.d}")
    with np.errstate(divide="ignore"):  # zero-weight components
        joint = _component_log_densities(model, Z) + np.log(model.pi)
    vals = logsumexp(joint, axis=1)
    return float(vals[0]) if single else vals


def e_step(model, X):
    """Responsibilities (rows sum to 1) and the mean log-likelihood."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with np.errstate(divide="ignore"):
        joint = _component_log_densities(model, X) + np.log(model.pi)
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
                         sigma[healthy], reg)
        worst = int(np.argmin(log_pdf(probe, X)))
        global_cov = np.cov(X, rowvar=False, bias=True).reshape(d, d)
        for l in collapsed:
            mu[l] = X[worst]
            sigma[l] = global_cov + eye
            pi[l] = 1.0 / n
        pi = pi / pi.sum()

    model = GmmModel(pi, mu, sigma, reg)
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
                        np.array(sigma, dtype=float), reg)
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
