"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: the QP oracle
enumerates KKT partitions, the AUC oracle counts pairs, the density oracles
sum Gaussians directly or factor every covariance on every call, the kNN
oracle argsorts whole distance rows and the core oracle runs the union-find
sweep over every kNN edge.
"""

import itertools

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist
from scipy.special import logsumexp


def gaussian_gram(X, Y, h):
    """Elementwise gram matrix via the scalar kernel definition."""
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    G = np.empty((len(X), len(Y)))
    for i, x in enumerate(X):
        for j, y in enumerate(Y):
            G[i, j] = np.exp(-np.sum((x - y) ** 2) / h**2)
    return G


def ocsvm_qp(Q, nu):
    """Global minimum of 0.5 a'Qa s.t. 0 <= a <= 1/(nu n), sum a = 1.

    Enumerates all zero/box/free partitions; each candidate solves the
    equality-constrained stationarity system, keeps box-feasible solutions,
    and the best objective over candidates is the global optimum of the
    convex QP. Exponential in n; use only for n <= 10.
    """
    n = Q.shape[0]
    C = 1.0 / (nu * n)
    best_obj, best_alpha = None, None
    for assign in itertools.product((0, 1, 2), repeat=n):
        upper = [i for i, a in enumerate(assign) if a == 1]
        free = [i for i, a in enumerate(assign) if a == 2]
        alpha = np.zeros(n)
        alpha[upper] = C
        target = 1.0 - C * len(upper)
        if target < -1e-12:
            continue
        if not free:
            if abs(target) > 1e-12:
                continue
        else:
            k = len(free)
            A = np.zeros((k + 1, k + 1))
            A[:k, :k] = Q[np.ix_(free, free)]
            A[:k, -1] = -1.0  # stationarity multiplier for the sum constraint
            A[-1, :k] = 1.0
            b = np.zeros(k + 1)
            if upper:
                b[:k] = -C * Q[np.ix_(free, upper)].sum(axis=1)
            b[-1] = target
            sol, *_ = np.linalg.lstsq(A, b, rcond=None)
            if np.abs(A @ sol - b).max() > 1e-9:
                continue
            a_free = sol[:k]
            if np.any(a_free < -1e-12) or np.any(a_free > C + 1e-12):
                continue
            alpha[free] = np.clip(a_free, 0.0, C)
        obj = 0.5 * alpha @ Q @ alpha
        if best_obj is None or obj < best_obj:
            best_obj, best_alpha = obj, alpha
    return best_obj, best_alpha


def pairwise_auc(scores_normal, scores_novel):
    """O(n*m) pairwise AUC with half-credit ties."""
    wins = 0.0
    for a in scores_normal:
        for b in scores_novel:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(scores_normal) * len(scores_novel))


def naive_mixture_log_density(pi, mu, sigma, z):
    """Direct (non-log) mixture density, for points where it cannot underflow."""
    total = 0.0
    d = len(z)
    for w, m, S in zip(pi, mu, sigma):
        diff = z - m
        quad = diff @ np.linalg.solve(S, diff)
        norm = np.sqrt((2 * np.pi) ** d * np.linalg.det(S))
        total += w * np.exp(-0.5 * quad) / norm
    return np.log(total)


def _cholesky_log_terms(model, X):
    """(n, k) terms log pi_l + log N(x; mu_l, sigma_l), with cho_factor of
    every covariance on every call: solve against the Cholesky factor for the
    Mahalanobis term, log det from the factor's diagonal."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    comp = np.empty((n, len(model.pi)))
    for l in range(len(model.pi)):
        chol, lower = cho_factor(model.sigma[l], lower=True)
        diff = (X - model.mu[l]).T  # (d, n)
        maha = np.sum(diff * cho_solve((chol, lower), diff), axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        comp[:, l] = -0.5 * (d * np.log(2 * np.pi) + logdet + maha)
    with np.errstate(divide="ignore"):
        return comp + np.log(model.pi)


def log_pdf_cholesky(model, z):
    """Mixture log density: scipy's logsumexp over _cholesky_log_terms.
    Same signature and return type as gmm.log_pdf."""
    vals = logsumexp(_cholesky_log_terms(model, z), axis=1)
    return float(vals[0]) if np.ndim(z) == 1 else vals


def e_step_cholesky(model, X):
    """EM responsibilities and mean log-likelihood from _cholesky_log_terms
    and scipy's logsumexp. Same signature and return values as gmm.e_step."""
    joint = _cholesky_log_terms(model, X)
    norm = logsumexp(joint, axis=1, keepdims=True)
    return np.exp(joint - norm), float(np.mean(norm))


def nystrom_target_gram(K_II, K_IJ, d, eig_rtol=1e-12):
    """K_IJ' V Lambda^-1 V' K_IJ over the d largest retained eigenpairs."""
    eigvals, eigvecs = np.linalg.eigh(K_II)
    order = np.argsort(eigvals)[::-1][:d]
    lam, V = eigvals[order], eigvecs[:, order]
    keep = lam >= eig_rtol * lam[0]
    inv = V[:, keep] @ np.diag(1.0 / lam[keep]) @ V[:, keep].T
    return K_IJ.T @ inv @ K_IJ


def knn_table_argsort(X, k_n):
    """kNN table from a full stable argsort of every distance row.

    Same contract as quickshift.knn_table: neighbors in ascending distance,
    ties by index, a point never its own neighbor, radius the k_n-th distance.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = cdist(X, X)
    order = np.argsort(d, axis=1, kind="stable")
    nbrs = np.empty((len(X), k_n), dtype=np.int64)
    for i, row in enumerate(order):
        nbrs[i] = row[row != i][:k_n]
    return nbrs, d[np.arange(len(X)), nbrs[:, -1]]


def cluster_cores_sweep(densities, nbrs, beta):
    """Cluster cores from the full union-find sweep over every kNN edge.

    Visits points in decreasing density (ties by index) and each point's
    processed neighbors in table order; on a merge below log(1 - beta) of the
    absorbed component's peak, rescans all points to freeze that component's
    unfrozen members as a core. Same contract as quickshift.cluster_cores.
    """
    dens = np.asarray(densities, dtype=float)
    n = len(dens)
    order = np.lexsort((np.arange(n), -dens))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    log_gap = np.log(1.0 - beta)
    parent = np.full(n, -1)
    peak = np.full(n, -1)
    core_id = np.full(n, -1)
    n_cores = 0

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for step in range(n):
        i = order[step]
        parent[i] = i
        peak[i] = i
        for j in nbrs[i]:
            if pos[j] >= step:
                continue
            ra, rb = find(i), find(j)
            if ra == rb:
                continue
            da, db = dens[peak[ra]], dens[peak[rb]]
            if db > da or (db == da and peak[rb] < peak[ra]):
                ra, rb = rb, ra
            if dens[i] < dens[peak[rb]] + log_gap and core_id[peak[rb]] == -1:
                members = [p for p in range(n) if pos[p] <= step
                           and core_id[p] == -1 and find(p) == rb]
                core_id[members] = n_cores
                n_cores += 1
            parent[rb] = ra

    roots = {}
    for p in range(n):
        roots.setdefault(find(p), []).append(p)
    for r in sorted(roots, key=lambda r: (-dens[peak[r]], peak[r])):
        fresh = [p for p in roots[r]
                 if core_id[p] == -1 and dens[p] >= dens[peak[r]] + log_gap]
        if fresh:
            core_id[fresh] = n_cores
            n_cores += 1
    return [np.flatnonzero(core_id == c) for c in range(n_cores)]
