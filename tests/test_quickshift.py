import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocsketch import gmm, quickshift
from ocsketch.evaluate import synth_blobs
from ocsketch.gmm import default_reg, fit_em
from ocsketch.kernel import MAX_QUADRATIC_ROWS, quadratic_rows
from ocsketch.quickshift import (
    BETA,
    COVERAGE,
    MAX_CLUSTERS,
    NOISE,
    _merge_events,
    auto_k,
    cluster_cores,
    knn_log_density,
    knn_table,
    quickshift_assign,
    select_components,
)

from oracles import cluster_cores_sweep, knn_table_argsort, merge_events_mst

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def two_blob_1d(seed=0, n_per=50, gap=100.0):
    rng = np.random.default_rng(seed)
    pts = np.concatenate([rng.standard_normal(n_per), gap + rng.standard_normal(n_per)])
    return pts.reshape(-1, 1)


def test_knn_log_density_by_hand():
    X = np.array([[0.0], [1.0], [3.0]])
    dens = knn_log_density(knn_table(X, 1)[1], 1)
    assert np.allclose(dens, [0.0, 0.0, -np.log(2)], atol=1e-12)


def test_knn_log_density_uniform_grid_interior():
    X = np.arange(20.0).reshape(-1, 1)
    dens = knn_log_density(knn_table(X, 2)[1], 1)
    interior = dens[2:-2]
    assert np.allclose(interior, interior[0])


def test_knn_log_density_duplicate_fallback():
    X = np.array([[0.0], [0.0], [1.0], [2.0]])
    dens = knn_log_density(knn_table(X, 1)[1], 1)
    assert np.all(np.isfinite(dens))
    # duplicated pair uses radius 1e-3 * smallest positive -> highest density
    assert dens[0] == dens.max()


def test_knn_log_density_all_identical():
    with pytest.raises(ValueError):
        knn_log_density(knn_table(np.zeros((5, 2)), 2)[1], 2)


def test_knn_table_tie_break_by_index():
    X = np.array([[0.0], [1.0], [-1.0], [1.0]])  # points 1 and 3 tie from 0
    nbrs, _ = knn_table(X, 3)
    assert list(nbrs[0]) == [1, 2, 3]


def test_two_blobs_two_cores():
    X = two_blob_1d()
    k_n = int(np.ceil(len(X) ** (2 / 3)))
    nbrs, radii = knn_table(X, k_n)
    dens = knn_log_density(radii, 1)
    cores = cluster_cores(dens, nbrs, 0.9)
    assert len(cores) == 2


def test_single_blob_one_core():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((100, 2))
    k_n = int(np.ceil(100 ** (2 / 3)))
    nbrs, radii = knn_table(X, k_n)
    dens = knn_log_density(radii, 2)
    assert len(cluster_cores(dens, nbrs, 0.9)) == 1


def test_core_count_non_increasing_in_beta():
    for seed in range(5):
        X, _ = synth_blobs(300, 3, 2, 8.0, seed=seed)
        k_n = int(np.ceil(300 ** (2 / 3)))
        nbrs, radii = knn_table(X, k_n)
        dens = knn_log_density(radii, 2)
        counts = [len(cluster_cores(dens, nbrs, b))
                  for b in (0.5, 0.9, 0.99)]
        assert counts[0] >= counts[1] >= counts[2]


def test_cores_are_disjoint():
    X, _ = synth_blobs(400, 4, 2, 6.0, seed=7)
    k_n = int(np.ceil(400 ** (2 / 3)))
    nbrs, radii = knn_table(X, k_n)
    dens = knn_log_density(radii, 2)
    cores = cluster_cores(dens, nbrs, 0.9)
    all_pts = np.concatenate(cores)
    assert len(all_pts) == len(set(all_pts.tolist()))


def test_assign_labels_partition():
    X = two_blob_1d(seed=2)
    k_n = int(np.ceil(len(X) ** (2 / 3)))
    nbrs, radii = knn_table(X, k_n)
    dens = knn_log_density(radii, 1)
    cores = cluster_cores(dens, nbrs, 0.9)
    labels = quickshift_assign(X, dens, cores, nbrs)
    assert np.all(labels >= 0)
    # every point in the right half joins the right blob's core
    assert len(np.unique(labels[:50])) == 1
    assert len(np.unique(labels[50:])) == 1
    assert labels[0] != labels[-1]


def test_assign_core_points_keep_label():
    X = two_blob_1d(seed=3)
    k_n = 20
    nbrs, radii = knn_table(X, k_n)
    dens = knn_log_density(radii, 1)
    cores = cluster_cores(dens, nbrs, 0.9)
    labels = quickshift_assign(X, dens, cores, nbrs)
    for cid, members in enumerate(cores):
        assert np.all(labels[members] == cid)


def test_assign_single_hop_to_adjacent_core():
    # densities increase towards 0; point 3 hops to its denser neighbor
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    dens = np.array([3.0, 2.0, 1.0, 0.0])
    cores = [np.array([0, 1, 2])]
    labels = quickshift_assign(X, dens, cores, knn_table(X, 2)[0])
    assert labels[3] == 0


def test_select_components_prefix_by_hand():
    # sizes {960, 30, 10}: the 960 cluster alone covers 95% of n=1000
    labels = np.array([0] * 960 + [1] * 30 + [2] * 10)
    clustering = select_components(labels, coverage=0.95, cap=20)
    assert clustering.k == 1
    assert np.sum(clustering.labels == 0) == 960
    assert np.sum(clustering.labels == NOISE) == 40


def test_select_components_even_split():
    labels = np.array([0] * 500 + [1] * 500)
    assert select_components(labels).k == 2


def test_select_components_cap():
    labels = np.repeat(np.arange(25), 10)
    clustering = select_components(labels, coverage=0.95, cap=20)
    assert clustering.k == 20


def test_select_components_labels_seed_em_moments(monkeypatch):
    # coverage 0.85 keeps the 60 and 30 clusters; the 10 rows of label 2 are NOISE
    labels = np.array([0] * 60 + [1] * 30 + [2] * 10)
    X = np.random.default_rng(7).standard_normal((100, 2))
    clustering = select_components(labels, coverage=0.85, cap=20)
    assert clustering.k == 2
    monkeypatch.setattr(gmm, "EM_MAX_ITER", 0)  # the initial mixture, no EM step
    model = fit_em(X, clustering.k, init=clustering.labels)
    assert np.allclose(model.pi, [60 / 90, 30 / 90], rtol=0, atol=1e-15)
    for l, rows in enumerate((slice(0, 60), slice(60, 90))):
        pts = X[rows]
        assert np.allclose(model.mu[l], pts.mean(axis=0), rtol=0, atol=1e-14)
        cov = np.cov(pts, rowvar=False, bias=True) + default_reg(X) / len(pts) * np.eye(2)
        assert np.allclose(model.sigma[l], cov, rtol=0, atol=1e-14)


def test_auto_k_three_blobs():
    X, y = synth_blobs(900, 3, 2, 10.0, seed=12)
    clustering = auto_k(X)
    assert clustering.k == 3
    centers = np.array([X[y == i].mean(axis=0) for i in range(3)])
    for l in range(clustering.k):
        m = X[clustering.labels == l].mean(axis=0)
        assert np.min(np.linalg.norm(centers - m, axis=1)) < 0.5


def test_auto_k_single_blob():
    X, _ = synth_blobs(200, 1, 3, 5.0, seed=13)
    assert auto_k(X).k == 1


def test_auto_k_deterministic():
    X, _ = synth_blobs(300, 2, 2, 8.0, seed=14)
    a = auto_k(X)
    b = auto_k(X)
    assert np.array_equal(a.labels, b.labels)
    assert a.k == b.k


@pytest.mark.parametrize("n", [MAX_QUADRATIC_ROWS, MAX_QUADRATIC_ROWS + 500])
def test_auto_k_runs_the_stages_on_the_capped_rows_only(n):
    X, _ = synth_blobs(n, 3, 2, 10.0, seed=15)
    rows = quadratic_rows(n)
    clustering = auto_k(X)
    off = np.ones(n, dtype=bool)
    off[rows] = False
    assert np.all(clustering.labels[off] == NOISE)

    S = X[rows]
    nbrs, radii = knn_table(S, math.ceil(len(S) ** (2 / 3)))
    dens = knn_log_density(radii, S.shape[1])
    labels = quickshift_assign(S, dens, cluster_cores(dens, nbrs, BETA), nbrs)
    want = select_components(labels, COVERAGE, MAX_CLUSTERS)
    assert np.array_equal(clustering.labels[rows], want.labels)
    assert clustering.k == want.k == 3


def test_auto_k_one_point_sample_is_one_cluster():
    # every sampled row at the origin, 50 Gaussian rows outside the sample
    n = MAX_QUADRATIC_ROWS + 550
    rows = quadratic_rows(n)
    X = np.zeros((n, 4))
    X[np.setdiff1d(np.arange(n), rows)[:50]] = np.random.default_rng(0).standard_normal((50, 4))
    clustering = auto_k(X)
    assert clustering.k == 1
    assert np.all(clustering.labels[rows] == 0)
    assert np.count_nonzero(clustering.labels == NOISE) == n - len(rows)


def test_k_search_grid_constant():
    # grid used when tuning k instead of the automatic choice
    from ocsketch.evaluate import K_GRID

    assert K_GRID == (1, 4, 6, 8, 10, 12, 14, 16, 18, 20)


def test_qsconfig_defaults():
    assert BETA == 0.9
    assert COVERAGE == 0.95
    assert MAX_CLUSTERS == 20


@st.composite
def point_sets(draw):
    """Blobs, rounded (tie-heavy) or duplicate-heavy point sets, with a k_n."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, D = draw(st.integers(3, 250)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["blobs", "rounded", "duplicates"]))
    if kind == "blobs":
        X, _ = synth_blobs(n, draw(st.integers(1, 4)), D, 6.0,
                           seed=draw(st.integers(0, 1000)))
    elif kind == "rounded":
        X = np.round(2 * rng.standard_normal((n, D)))
    else:
        X = rng.standard_normal((n, D))[rng.integers(0, max(2, n // 8), n)]
    default = min(int(np.ceil(n ** (2 / 3))), n - 1)
    k_n = draw(st.one_of(st.just(default), st.integers(1, n - 1)))
    return X, k_n


@PROPERTY
@given(point_sets())
def test_knn_table_matches_argsort_oracle(case):
    X, k_n = case
    nbrs, radii = knn_table(X, k_n)
    want_nbrs, want_radii = knn_table_argsort(X, k_n)
    assert np.array_equal(nbrs, want_nbrs)
    assert np.array_equal(radii, want_radii)


@PROPERTY
@given(point_sets(), st.sampled_from([0.5, 0.9, 0.99]))
def test_cluster_cores_match_sweep_oracle(case, beta):
    X, k_n = case
    nbrs, radii = knn_table(X, k_n)
    try:
        dens = knn_log_density(radii, X.shape[1])
    except ValueError:  # every point has k_n exact duplicates
        return
    cores = cluster_cores(dens, nbrs, beta)
    want = cluster_cores_sweep(dens, nbrs, beta)
    assert len(cores) == len(want)
    for got, expected in zip(cores, want):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@PROPERTY
@given(point_sets(), st.sampled_from([1, 3, 17]))
def test_knn_table_matches_argsort_oracle_across_blocks(case, block_rows):
    X, k_n = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quickshift, "_BLOCK_ROWS", block_rows)
        nbrs, radii = knn_table(X, k_n)
    want_nbrs, want_radii = knn_table_argsort(X, k_n)
    assert np.array_equal(nbrs, want_nbrs)
    assert np.array_equal(radii, want_radii)


def grid_3x3():
    """Integer grid in reverse row-major order: the centre is row 4."""
    return np.array([(x, y) for x in range(2, -1, -1) for y in range(2, -1, -1)], float)


@pytest.mark.parametrize("k_n, centre_row", [
    (2, [1, 3]),  # four neighbors tie at the k_n-th distance 1
    (4, [1, 3, 5, 7]),  # the tie fills the list exactly
    (6, [1, 3, 5, 7, 0, 2]),  # tie inside the list and at the k_n-th distance
])
@pytest.mark.parametrize("block_rows", [1, 3, 256])
def test_knn_table_grid_ties_by_index(monkeypatch, k_n, centre_row, block_rows):
    monkeypatch.setattr(quickshift, "_BLOCK_ROWS", block_rows)
    X = grid_3x3()
    nbrs, radii = knn_table(X, k_n)
    assert list(nbrs[4]) == centre_row
    want_nbrs, want_radii = knn_table_argsort(X, k_n)
    assert np.array_equal(nbrs, want_nbrs)
    assert np.array_equal(radii, want_radii)


@pytest.mark.parametrize("line, k_n, row, want", [
    ([0, 3, -1, 1], 1, 0, [2]),  # points 2 and 3 tie at the only distance
    ([3, -3, -1, 2, 0], 3, 4, [2, 3, 0]),  # points 0 and 1 tie at the 3rd
])
def test_knn_table_tie_only_at_kth_distance(line, k_n, row, want):
    # the distances inside each list are distinct; only the k_n-th is tied
    X = np.array(line, float).reshape(-1, 1)
    nbrs, _ = knn_table(X, k_n)
    assert list(nbrs[row]) == want
    assert np.array_equal(nbrs, knn_table_argsort(X, k_n)[0])


def processing_order(dens):
    """pos[i]: the step at which cluster_cores processes point i."""
    order = np.lexsort((np.arange(len(dens)), -dens))
    pos = np.empty(len(dens), dtype=np.int64)
    pos[order] = np.arange(len(dens))
    return pos


def assert_same_events(nbrs, pos):
    steps, ts = _merge_events(nbrs, pos)
    want_steps, want_ts = merge_events_mst(nbrs, pos)
    assert steps.dtype == want_steps.dtype and ts.dtype == want_ts.dtype
    assert np.array_equal(steps, want_steps)
    assert np.array_equal(ts, want_ts)
    return steps


@PROPERTY
@given(point_sets(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_merge_events_match_mst_oracle(case, levels, seed):
    # few density levels: many points tie and are ordered by index
    X, k_n = case
    dens = np.random.default_rng(seed).integers(0, levels, len(X)).astype(float)
    assert_same_events(knn_table(X, k_n)[0], processing_order(dens))


def test_merge_events_single_root():
    # density falls away from the middle of a line: every point but the
    # first processed has an earlier neighbor, so no edge crosses roots
    X = np.arange(12.0).reshape(-1, 1)
    pos = processing_order(-np.abs(X[:, 0] - 5.5))
    steps = assert_same_events(knn_table(X, 2)[0], pos)
    assert len(steps) == len(X) - 1


def test_merge_events_all_but_one_root():
    # k_n = 1 and every point's neighbor is the last one processed
    n = 9
    nbrs = np.full((n, 1), n - 1, dtype=np.int64)
    nbrs[-1] = 0
    steps = assert_same_events(nbrs, np.arange(n, dtype=np.int64))
    assert list(steps) == [n - 1]


def test_merge_events_half_roots_dense_cross_edges():
    # the first m points see only later points and are all roots; later point
    # m + j sees root j first, then every other root, so each root pair has
    # cross edges from two points
    m = 7
    nbrs = np.empty((2 * m, m), dtype=np.int64)
    nbrs[:m] = np.arange(m, 2 * m)
    for j in range(m):
        nbrs[m + j] = np.roll(np.arange(m), -j)
    steps = assert_same_events(nbrs, np.arange(2 * m, dtype=np.int64))
    assert len(steps) == 2 * m - 1


@pytest.mark.parametrize("seed", range(3))
def test_merge_events_k_n_all_others(seed):
    X, _ = synth_blobs(40, 2, 2, 6.0, seed=seed)
    nbrs, radii = knn_table(X, len(X) - 1)
    assert_same_events(nbrs, processing_order(knn_log_density(radii, 2)))
