"""Mode-seeking clustering on embedded data; picks the mixture size k.

kNN log-density estimation, a persistence-filtered union-find pass that
freezes cluster cores, density hill-climbing assignment, and size-based
retention of the largest clusters. All tie-breaking is by point index, so
the whole pipeline is deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

NOISE = -1

_BLOCK_ROWS = 256


@dataclass
class QsConfig:
    beta: float = 0.9
    k_neighbors: int | None = None  # default ceil(n^(2/3)), clamped below n
    coverage: float = 0.95
    max_clusters: int = 20


@dataclass
class ClusterSummary:
    size: int
    mean: np.ndarray
    covariance: np.ndarray
    weight: float  # member fraction of the full dataset


@dataclass
class Clustering:
    """Per-point labels (NOISE for dropped clusters) plus retained summaries."""

    labels: np.ndarray
    clusters: list

    @property
    def k(self):
        return len(self.clusters)

    def gmm_init(self):
        """(pi, mu, sigma) triple, pi renormalized over retained clusters."""
        sizes = np.array([c.size for c in self.clusters], dtype=float)
        pi = sizes / sizes.sum()
        mu = np.array([c.mean for c in self.clusters])
        sigma = np.array([c.covariance for c in self.clusters])
        return pi, mu, sigma


def knn_table(X, k_n):
    """Neighbor indices (n, k_n) and k_n-th neighbor distance per point.

    Neighbors are in ascending distance order with ties broken by index
    (stable sort); a point is never its own neighbor.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if not 0 < k_n < n:
        raise ValueError(f"k_n must be in [1, n), got {k_n} for n={n}")
    nbrs = np.empty((n, k_n), dtype=np.int64)
    radii = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        d = cdist(X[start:stop], X)
        order = np.argsort(d, axis=1, kind="stable")
        for local, i in enumerate(range(start, stop)):
            row = order[local]
            row = row[row != i][:k_n]
            nbrs[i] = row
            radii[i] = d[local, row[-1]]
    return nbrs, radii


def knn_log_density(X, k_n, table=None):
    """Per-point log-density -d * log(r_i), r_i the k_n-th neighbor distance.

    Zero radii (duplicated points) fall back to 1e-3 times the smallest
    positive radius; zero radii everywhere (every point with k_n or more exact
    duplicates) is an error.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    if table is None:
        table = knn_table(X, k_n)
    _, radii = table
    radii = radii.copy()
    if np.any(radii == 0):
        positive = radii[radii > 0]
        if positive.size == 0:
            raise ValueError(
                f"degenerate dataset: every point has at least {k_n} exact duplicates")
        radii[radii == 0] = 1e-3 * positive.min()
    return -d * np.log(radii)


def _core_pass(order, nbrs, pos, dens, log_gap):
    """Union-find sweep in decreasing density; freezes persistent clusters.

    Returns (core_id per point, number of frozen cores, parent, peak).
    Plain loops so the numba-jitted twin shares this exact code.
    """
    n = order.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    peak = np.full(n, -1, dtype=np.int64)
    core_id = np.full(n, -1, dtype=np.int64)
    n_cores = 0

    for step in range(n):
        i = order[step]
        parent[i] = i
        peak[i] = i
        for t in range(nbrs.shape[1]):
            j = nbrs[i, t]
            if pos[j] >= step:  # not yet processed
                continue
            ra = i
            while parent[ra] != ra:
                parent[ra] = parent[parent[ra]]
                ra = parent[ra]
            rb = j
            while parent[rb] != rb:
                parent[rb] = parent[parent[rb]]
                rb = parent[rb]
            if ra == rb:
                continue
            # ra keeps the higher peak (ties: smaller peak index)
            da, db = dens[peak[ra]], dens[peak[rb]]
            if db > da or (db == da and peak[rb] < peak[ra]):
                ra, rb = rb, ra
            # persistence test: freeze rb if the merge level sits far enough
            # below its peak and its peak is not already inside a core
            if dens[i] < dens[peak[rb]] + log_gap and core_id[peak[rb]] == -1:
                fresh = 0
                for p in range(n):
                    if pos[p] > step or core_id[p] != -1:
                        continue
                    rp = p
                    while parent[rp] != rp:
                        rp = parent[rp]
                    if rp == rb:
                        fresh += 1
                if fresh > 0:
                    for p in range(n):
                        if pos[p] > step or core_id[p] != -1:
                            continue
                        rp = p
                        while parent[rp] != rp:
                            parent[rp] = parent[parent[rp]]
                            rp = parent[rp]
                        if rp == rb:
                            core_id[p] = n_cores
                    n_cores += 1
            parent[rb] = ra
    return core_id, n_cores, parent, peak


try:  # pragma: no cover - exercised implicitly wherever numba is present
    from numba import njit

    _core_pass_fast = njit(cache=True)(_core_pass)
except ImportError:  # pragma: no cover
    _core_pass_fast = _core_pass


def cluster_cores(X, densities, k_n, beta, table=None):
    """Detect cluster cores by persistence-filtered union-find.

    Points are processed in decreasing log-density (ties by index); each
    point links to its already-processed k_n nearest neighbors. A component
    absorbed at a level more than log(1-beta) below its own peak freezes its
    members as a core first; after the sweep every surviving root component
    contributes a final core from its members within log(1-beta) of the peak.

    Returns a list of index arrays, one per core, in creation order.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    dens = np.asarray(densities, dtype=float)
    n = X.shape[0]
    if table is None:
        table = knn_table(X, k_n)
    nbrs, _ = table
    order = np.lexsort((np.arange(n), -dens)).astype(np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    log_gap = math.log(1.0 - beta)

    core_id, n_cores, parent, peak = _core_pass_fast(order, nbrs, pos, dens, log_gap)

    core_id = np.array(core_id)
    # final cores: one per surviving root, highest peak first
    roots = {}
    for p in range(n):
        r = p
        while parent[r] != r:
            r = parent[r]
        roots.setdefault(r, []).append(p)
    root_order = sorted(roots, key=lambda r: (-dens[peak[r]], peak[r]))
    next_id = n_cores
    for r in root_order:
        threshold = dens[peak[r]] + log_gap
        fresh = [p for p in roots[r] if core_id[p] == -1 and dens[p] >= threshold]
        if fresh:
            core_id[fresh] = next_id
            next_id += 1
    return [np.flatnonzero(core_id == c) for c in range(next_id)]


def quickshift_assign(X, densities, cores, k_n, table=None):
    """Label every point by hill-climbing to a core.

    Core points keep their core's label; every other point hops to its
    nearest strictly-higher-density neighbor (k_n-NN list first, then a
    global search) until it reaches a labeled point.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dens = np.asarray(densities, dtype=float)
    n = X.shape[0]
    if not cores:
        raise ValueError("no cores to assign to")
    if table is None:
        table = knn_table(X, k_n)
    nbrs, _ = table

    labels = np.full(n, NOISE, dtype=np.int64)
    for c, members in enumerate(cores):
        labels[members] = c

    higher = dens[nbrs] > dens[:, None]
    has_local = higher.any(axis=1)
    first = np.argmax(higher, axis=1)
    hop = np.where(has_local, nbrs[np.arange(n), first], -1)

    order = np.lexsort((np.arange(n), -dens))
    for i in order:
        if labels[i] != NOISE:
            continue
        j = hop[i]
        if j < 0:
            candidates = np.flatnonzero(dens > dens[i])
            if candidates.size == 0:
                raise RuntimeError(
                    f"point {i} has no higher-density neighbor and no core label"
                )
            dist = cdist(X[i : i + 1], X[candidates])[0]
            j = int(candidates[np.argmin(dist)])
        # processing in decreasing density guarantees the target is labeled
        labels[i] = labels[j]
    return labels


def select_components(labels, X, coverage=0.95, cap=20):
    """Retain the largest clusters covering the requested data fraction.

    Clusters are sorted by size (descending, ties by label); the shortest
    prefix reaching coverage * n is kept, capped at `cap`. Retained clusters
    are relabeled 0..k-1; everything else becomes NOISE. Each retained
    cluster carries its member mean and ridged population covariance.
    """
    labels = np.asarray(labels)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    ids = [c for c in np.unique(labels) if c != NOISE]
    if not ids:
        raise ValueError("no clusters to select from")
    sizes = {c: int(np.sum(labels == c)) for c in ids}
    ranked = sorted(ids, key=lambda c: (-sizes[c], c))

    retained = []
    covered = 0
    for c in ranked:
        if covered >= coverage * n or len(retained) >= cap:
            break
        retained.append(c)
        covered += sizes[c]

    global_cov = np.cov(X, rowvar=False, bias=True).reshape(d, d)
    ridge = 1e-6 * np.trace(global_cov) / d * np.eye(d)
    new_labels = np.full(n, NOISE, dtype=np.int64)
    clusters = []
    for new_id, c in enumerate(retained):
        members = labels == c
        new_labels[members] = new_id
        pts = X[members]
        cov = np.cov(pts, rowvar=False, bias=True).reshape(d, d) if len(pts) > 1 \
            else np.zeros((d, d))
        clusters.append(ClusterSummary(
            size=sizes[c],
            mean=pts.mean(axis=0),
            covariance=cov + ridge,
            weight=sizes[c] / n,
        ))
    return Clustering(new_labels, clusters)


def auto_k(X, config=None):
    """Full pipeline: density -> cores -> assignment -> retention.

    Returns a Clustering; its .k and .gmm_init() seed the mixture fit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if config is None:
        config = QsConfig()
    k_n = config.k_neighbors
    if k_n is None:
        k_n = min(math.ceil(n ** (2 / 3)), n - 1)
    table = knn_table(X, k_n)
    dens = knn_log_density(X, k_n, table=table)
    cores = cluster_cores(X, dens, k_n, config.beta, table=table)
    labels = quickshift_assign(X, dens, cores, k_n, table=table)
    return select_components(labels, X, config.coverage, config.max_clusters)
