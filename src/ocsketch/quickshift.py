"""Mode-seeking clustering on embedded data; picks the mixture size k.

kNN log-density estimation, a persistence-filtered union-find pass that
freezes cluster cores, density hill-climbing assignment, and size-based
retention of the largest clusters. All tie-breaking is by point index, so
the whole pipeline is deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import cdist

from .kernel import quadratic_rows

NOISE = -1

_BLOCK_ROWS = 256

BETA = 0.9  # persistence: a core's peak must stand log(1/(1-BETA)) above its merge
COVERAGE = 0.95  # retained clusters cover this fraction of the clustered rows
MAX_CLUSTERS = 20  # and number at most this many


@dataclass
class Clustering:
    """Per-point labels 0..k-1 for retained clusters, NOISE for the rest."""

    labels: np.ndarray
    k: int


def knn_table(X, k_n):
    """Neighbor indices (n, k_n) and k_n-th neighbor distance per point.

    Neighbors are in ascending distance order with ties broken by index;
    a point is never its own neighbor. Each block of rows takes its k_n
    nearest candidates with one argpartition and sorts their distances with
    one argsort. That is exact unless a tie lets the partition choose among
    equal distances, so a row is repaired by an exact stable selection when a
    distance repeats inside its list, or when more than k_n distances are at
    or below its k_n-th distance.
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
        rows = np.arange(stop - start)
        d[rows, rows + start] = np.inf
        cand = np.argpartition(d, k_n - 1, axis=1)[:, :k_n]
        dist = np.take_along_axis(d, cand, axis=1)
        by_dist = np.argsort(dist, axis=1)
        cand = np.take_along_axis(cand, by_dist, axis=1)
        dist = np.take_along_axis(dist, by_dist, axis=1)
        kth = dist[:, -1]
        tied = (dist[:, 1:] == dist[:, :-1]).any(axis=1)
        tied |= np.count_nonzero(d <= kth[:, None], axis=1) > k_n
        for local in np.flatnonzero(tied).tolist():
            # candidates come in index order, so a stable sort breaks ties by index
            near = np.flatnonzero(d[local] <= kth[local])
            cand[local] = near[np.argsort(d[local, near], kind="stable")[:k_n]]
        nbrs[start:stop] = cand
        radii[start:stop] = kth
    return nbrs, radii


def knn_log_density(radii, d):
    """Per-point log-density -d * log(r_i) in d dimensions.

    r_i is point i's k_n-th neighbor distance, as knn_table returns it. Zero
    radii (duplicated points) fall back to 1e-3 times the smallest positive
    radius; zero radii everywhere (every point with k_n or more exact
    duplicates) is an error.
    """
    radii = np.array(radii, dtype=float)
    if np.any(radii == 0):
        positive = radii[radii > 0]
        if positive.size == 0:
            raise ValueError(
                "degenerate dataset: every point has at least k_n exact duplicates")
        radii[radii == 0] = 1e-3 * positive.min()
    return -d * np.log(radii)


def _merge_events(nbrs, pos):
    """(step, t) of every edge on which the sweep merges two components, in order.

    The sweep visits edges (i, nbrs[i, t]) to already-processed neighbors in
    key order pos[i]*k_n + t, and merges on exactly the edges Kruskal's
    algorithm keeps under those distinct keys: the minimum spanning forest
    (0-dimensional persistence, as in ToMATo). Two facts shrink the graph:

    - a point's first edge to an earlier neighbor always merges, because every
      edge with a smaller key joins two points processed before it, so the
      point is still a singleton;
    - following those first edges gives a forest whose roots are the points
      with no earlier neighbor, and an edge whose endpoints share a root never
      merges, because every edge on both ancestor paths has a smaller key.

    So the events are all first edges plus Kruskal's forest over the edges
    between different roots, each root pair reduced to its smallest key.
    """
    n, k_n = nbrs.shape
    earlier = pos[nbrs] < pos[:, None]
    has_first = earlier.any(axis=1)
    first_t = np.argmax(earlier, axis=1)
    root = np.where(has_first, nbrs[np.arange(n), first_t], np.arange(n))
    while True:  # pointer jumping up the first-edge forest
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    first_keys = pos[has_first] * k_n + first_t[has_first]

    rows, t = np.nonzero(earlier & (root[nbrs] != root[:, None]))
    kept = np.empty(0, dtype=np.int64)
    if rows.size:
        root_ids = np.flatnonzero(~has_first)
        r = root_ids.size
        compact = np.empty(n, dtype=np.int64)
        compact[root_ids] = np.arange(r)
        a, b = compact[root[rows]], compact[root[nbrs[rows, t]]]
        keys = pos[rows] * k_n + t
        # keep the smallest key per root pair: coo_matrix sums duplicate entries
        by_key = np.argsort(keys)
        lo, hi = np.minimum(a, b)[by_key], np.maximum(a, b)[by_key]
        _, first = np.unique(lo * r + hi, return_index=True)
        keys, lo, hi = keys[by_key][first], lo[first], hi[first]
        # +1: csgraph drops zero weights
        forest = minimum_spanning_tree(coo_matrix((keys + 1.0, (lo, hi)), shape=(r, r)))
        kept = forest.data.astype(np.int64) - 1
    events = np.sort(np.concatenate([first_keys, kept]))
    return events // k_n, events % k_n


def cluster_cores(densities, nbrs, beta):
    """Detect cluster cores by persistence-filtered union-find.

    Points are processed in decreasing log-density (ties by index); each
    point links to its already-processed neighbors in nbrs, knn_table's
    neighbor lists. A component absorbed at a level more than log(1-beta)
    below its own peak freezes its members as a core first; after the sweep
    every surviving root component contributes a final core from its members
    within log(1-beta) of the peak.
    Only the merge events change any of this state, so the sweep replays just
    those (at most n-1 edges).

    Returns a list of index arrays, one per core, in creation order.
    """
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    dens = np.asarray(densities, dtype=float)
    n = dens.shape[0]
    order = np.lexsort((np.arange(n), -dens)).astype(np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    log_gap = math.log(1.0 - beta)

    steps, ts = _merge_events(nbrs, pos)
    level = dens.tolist()
    parent = list(range(n))
    peak = list(range(n))  # per root
    unfrozen = [[p] for p in range(n)]  # per root: members not yet in a core
    frozen = [False] * n
    cores = []

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    merging = order[steps]
    for i, j in zip(merging.tolist(), nbrs[merging, ts].tolist()):
        ra, rb = find(i), find(j)
        # ra keeps the higher peak (ties: smaller peak index)
        pa, pb = peak[ra], peak[rb]
        if level[pb] > level[pa] or (level[pb] == level[pa] and pb < pa):
            ra, rb, pb = rb, ra, pa
        # persistence test: freeze rb if the merge level sits far enough
        # below its peak and its peak is not already inside a core
        if level[i] < level[pb] + log_gap and not frozen[pb]:
            for p in unfrozen[rb]:
                frozen[p] = True
            cores.append(unfrozen[rb])
            unfrozen[rb] = []
        parent[rb] = ra
        if len(unfrozen[ra]) < len(unfrozen[rb]):
            unfrozen[ra], unfrozen[rb] = unfrozen[rb], unfrozen[ra]
        unfrozen[ra].extend(unfrozen[rb])
        unfrozen[rb] = []

    # final cores: one per surviving root, highest peak first
    roots = sorted((r for r in range(n) if parent[r] == r),
                   key=lambda r: (-level[peak[r]], peak[r]))
    for r in roots:
        threshold = level[peak[r]] + log_gap
        fresh = [p for p in unfrozen[r] if level[p] >= threshold]
        if fresh:
            cores.append(fresh)
    return [np.sort(np.array(c, dtype=np.intp)) for c in cores]


def quickshift_assign(X, densities, cores, nbrs):
    """Label every point by hill-climbing to a core.

    Core points keep their core's label; every other point hops to its
    nearest strictly-higher-density neighbor (its knn_table row first, then
    a global search over X) until it reaches a labeled point.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dens = np.asarray(densities, dtype=float)
    n = X.shape[0]
    if not cores:
        raise ValueError("no cores to assign to")

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


def select_components(labels, coverage=COVERAGE, cap=MAX_CLUSTERS):
    """Retain the largest clusters covering the requested data fraction.

    Clusters are sorted by size (descending, ties by label); the shortest
    prefix reaching coverage * n is kept, capped at `cap`. Retained clusters
    are relabeled 0..k-1; everything else becomes NOISE.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
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

    new_labels = np.full(n, NOISE, dtype=np.int64)
    for new_id, c in enumerate(retained):
        new_labels[labels == c] = new_id
    return Clustering(new_labels, len(retained))


def auto_k(X):
    """Full pipeline: density -> cores -> assignment -> retention.

    The pipeline runs on kernel.quadratic_rows(n): every row up to
    kernel.MAX_QUADRATIC_ROWS, else a fixed-seed subset of that many, and
    the rows outside it are labelled NOISE. On its N rows the kNN table
    takes k_n = min(ceil(N^(2/3)), N - 1) neighbors. They are one cluster
    (k = 1) when they are all one point, which no density can rank.
    Returns a Clustering; gmm.fit_em(X, k, init=labels) seeds the mixture
    with the retained clusters' moments and refines it on every row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    rows = quadratic_rows(n)
    S = X[rows]
    if (S == S[0]).all():
        kept = Clustering(np.zeros(len(rows), dtype=np.int64), 1)
    else:
        k_n = min(math.ceil(len(rows) ** (2 / 3)), len(rows) - 1)
        nbrs, radii = knn_table(S, k_n)
        dens = knn_log_density(radii, S.shape[1])
        cores = cluster_cores(dens, nbrs, BETA)
        labels = quickshift_assign(S, dens, cores, nbrs)
        kept = select_components(labels)
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[rows] = kept.labels
    return Clustering(labels, kept.k)
