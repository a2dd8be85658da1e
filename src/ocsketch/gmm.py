"""Full-covariance Gaussian mixture fitting by EM and log-density scoring."""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, lapack

from .kernel import require_finite

EM_MAX_ITER = 200  # E-steps of one fit at most
EM_TOL = 1e-4  # stop once the recorded objective improves by less


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
    _inv_t: np.ndarray = field(init=False, repr=False, compare=False)  # (k, d, d) L_l^-T
    _log_norm: np.ndarray = field(init=False, repr=False, compare=False)  # (k,)

    def __post_init__(self):
        k, d = self.mu.shape
        logdet, inv = np.empty(k), np.empty((k, d, d))
        for l in range(k):
            try:
                factor = cho_factor(self.sigma[l], lower=True)
            except LinAlgError as exc:
                raise ValueError(f"covariance sigma[{l}] is not positive definite: {exc}") from None
            logdet[l] = 2.0 * np.sum(np.log(np.diag(factor[0])))
            inv[l] = lapack.dtrtri(factor[0], lower=1)[0]  # L^-1; info is 0, L has no zero pivot
        with np.errstate(divide="ignore"):  # zero-weight components
            log_norm = np.log(self.pi) - 0.5 * (d * np.log(2 * np.pi) + logdet)
        # cho_factor leaves sigma's entries above the diagonal, and so does dtrtri
        object.__setattr__(self, "_inv_t", np.triu(inv.transpose(0, 2, 1)))
        object.__setattr__(self, "_log_norm", log_norm)

    @property
    def k(self):
        return self.pi.shape[0]

    @property
    def d(self):
        return self.mu.shape[1]


def default_reg(X):
    """Covariance prior strength: 1e-6 times the mean per-dimension data
    variance (m_step adds reg/W_l to the covariance of a component of mass W_l)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mean_var = float(np.mean(np.var(X, axis=0)))
    return 1e-6 * mean_var if mean_var > 0 else 1e-6


def _log_terms(model, Z):
    """(k, n) joint terms log pi_l + log N(z; mu_l, sigma_l) and their (n,)
    log-sum-exp over components.

    One stacked matmul whitens Z against every component's cached inverse
    Cholesky factor, then np.logaddexp.reduce combines the components. The
    log-sum-exp is finite unless a point lies ~1e154 or more (in whitened
    units) from every mean, where each squared distance overflows and it is
    -inf; neither step warns there (einsum sets no floating-point flags, and
    logaddexp of -inf terms is -inf).
    """
    # Centre on each mean before whitening: Z @ L^-T - mu @ L^-T would cancel
    # digits for points near a mean that lies far from the origin.
    Y = (Z[None, :, :] - model.mu[:, None, :]) @ model._inv_t  # (k, n, d)
    joint = model._log_norm[:, None] - 0.5 * np.einsum("knd,knd->kn", Y, Y)  # (k, n)
    return joint, np.logaddexp.reduce(joint, axis=0)


def log_pdf(model, z):
    """Mixture log density log sum_l pi_l N(z; mu_l, sigma_l).

    Accepts a single d-vector (returns float) or an (n, d) batch (returns
    (n,) array); both take the same path, the one EM's e_step takes. A
    non-finite entry raises ValueError naming its row and column.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    Z = np.atleast_2d(z)
    require_finite(Z)
    if Z.shape[1] != model.d:
        raise ValueError(f"dimension mismatch: {Z.shape[1]} != {model.d}")
    vals = _log_terms(model, Z)[1]
    return float(vals[0]) if single else vals


def e_step(model, X):
    """Responsibilities (n, k), rows summing to 1, and the mean log-likelihood."""
    joint, vals = _log_terms(model, np.atleast_2d(np.asarray(X, dtype=float)))
    return np.exp(joint - vals).T, float(np.mean(vals))


def m_step(X, resp, reg):
    """MAP parameter update under the covariance penalty -(reg/2) sum_l tr sigma_l^-1.

    Weights and means are the weighted moments; component l, of mass W_l and
    weighted scatter S_l about its mean, gets sigma_l = (S_l + reg I) / W_l
    (Fraley & Raftery 2007), so EM ascends the penalised log-likelihood that
    fit_em records. A component whose total responsibility collapses below
    1e-10 * n is reinitialized at the point the surviving components explain
    worst; the event is flagged in the returned model's diagnostics.
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
        sigma[l] = ((diff.T * w) @ diff + eye) / weights[l]

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


def _init_model(X, k, labels, reg, rng):
    """m_step on a one-hot assignment: cluster labels (rows labelled below 0
    are left out) or, without labels, each row's nearest k-means++ center."""
    if labels is None:
        centers = _kmeanspp_centers(X, k, rng)
        labels = np.argmin(
            np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1
        )
        # guarantee every component owns at least its own center point
        for l in range(k):
            if not np.any(labels == l):
                labels[np.argmin(np.sum((X - centers[l]) ** 2, axis=1))] = l
    else:
        labels = np.asarray(labels)
        if labels.shape != (X.shape[0],) or labels.max() >= k:
            raise ValueError(f"init needs one label below k={k} per row of X")
        X, labels = X[labels >= 0], labels[labels >= 0]
    resp = np.zeros((X.shape[0], k))
    resp[np.arange(X.shape[0]), labels] = 1.0
    return m_step(X, resp, reg)


def fit_em(X, k, init=None, seed=None):
    """Fit a k-component full-covariance GMM by EM.

    Each M-step is m_step's MAP update with reg = default_reg(X), which
    keeps every covariance positive definite where the plain likelihood is
    unbounded. EM runs at most EM_MAX_ITER E-steps and stops at the first
    that improves the recorded objective by less than EM_TOL.

    Parameters
    ----------
    X : array-like, shape (n, d)
    k : int, 1 <= k <= n
    init : optional (n,) cluster labels 0..k-1, negative (NOISE) for rows
        left out of the initial mixture, e.g. quickshift.auto_k's; when
        absent, k-means++ seeding (seeded) is used.
    seed : int or None

    Returns
    -------
    GmmModel. diagnostics["loglik_history"] holds, per E-step, the penalised
    mean log-likelihood that EM ascends: mean_i log p(x_i) minus
    (reg / 2n) sum_l tr sigma_l^-1.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    reg = default_reg(X)
    rng = np.random.default_rng(seed)
    model = _init_model(X, k, init, reg, rng)

    history = []
    reinits = []
    prev = -np.inf
    for _ in range(EM_MAX_ITER):
        resp, loglik = e_step(model, X)
        # tr sigma^-1 = ||L^-1||_F^2 for sigma = L L^T
        objective = loglik - reg / (2 * n) * float(np.sum(model._inv_t ** 2))
        history.append(objective)
        if abs(objective - prev) < EM_TOL:
            break
        prev = objective
        model = m_step(X, resp, reg)
        reinits.extend(model.diagnostics.get("reinitialized_components", []))
    model.diagnostics["loglik_history"] = history
    if reinits:
        model.diagnostics["reinitialized_components"] = reinits
    return model
