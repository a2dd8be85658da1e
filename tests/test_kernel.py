import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from ocsketch import flows
from ocsketch.embedding import fit_kjl, fit_nystrom
from ocsketch.kernel import (
    MAX_QUADRATIC_ROWS,
    gram,
    nearest_rank,
    percentile,
    quantile_bandwidth,
    quantile_bandwidths,
    quadratic_rows,
    require_finite,
)
from ocsketch.ocsvm import train_ocsvm

from oracles import gaussian_gram, quantile_bandwidth_one
from oracles import percentile as sorted_percentile

# includes 0.28, whose product with 25 lands just above 7 in floats
Q_GRID = [i / 100 for i in range(1, 101)]


def test_kernel_at_zero_distance():
    x = np.array([1.0, 2.0, 3.0])
    for kernel in (gram, gaussian_gram):
        assert kernel([x], [x], 0.7)[0, 0] == 1.0


def test_kernel_closed_form():
    # ||x - y||^2 == h^2 gives exactly exp(-1)
    for kernel in (gram, gaussian_gram):
        assert kernel([[0.0]], [[2.0]], 2.0)[0, 0] == pytest.approx(np.exp(-1), abs=1e-12)


def test_kernel_large_bandwidth_limit():
    x, y = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    h = 1e6 * np.linalg.norm(x - y)
    for kernel in (gram, gaussian_gram):
        assert kernel([x], [y], h)[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_kernel_errors():
    with pytest.raises(ValueError, match="dimension mismatch"):
        gram([[0.0]], [[0.0, 1.0]], 1.0)
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        gram([[0.0]], [[1.0]], 0.0)


@pytest.mark.parametrize("h", [0.0, -1.0])
def test_trainings_reject_bandwidth_through_gram(h):
    X = np.random.default_rng(0).standard_normal((10, 2))
    for train in (lambda: fit_kjl(X, 4, 2, h), lambda: fit_nystrom(X, 4, 2, h),
                  lambda: train_ocsvm(X, h)):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            train()


def test_quantile_bandwidth_every_rank_by_hand():
    # distances {1, 1, 2}: ranks 1 and 2 give 1, rank 3 gives 2
    X = [[0.0], [1.0], [2.0]]
    assert [quantile_bandwidth(X, q) for q in (0.2, 0.5, 0.7)] == [1.0, 1.0, 2.0]


def test_quantile_bandwidth_identical_pair_is_degenerate():
    for q in (0.5, 1.0):
        with pytest.raises(ValueError):
            quantile_bandwidth([[3.0], [3.0]], q)


def test_quantile_bandwidth_extremes_and_single_point():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        X = rng.standard_normal((n, 3))
        assert quantile_bandwidth(X, 1.0) == pdist(X).max()
        assert quantile_bandwidth(X, 1e-6) == pdist(X).min()
    with pytest.raises(ValueError):
        quantile_bandwidth([[0.0]], 0.5)


def test_quantile_bandwidth_by_hand():
    X = [[0.0], [1.0], [2.0]]
    assert quantile_bandwidth(X, 0.5) == 1.0  # second of {1, 1, 2}
    assert quantile_bandwidth(X, 1.0) == 2.0


def test_quantile_bandwidth_zero_fallback():
    assert quantile_bandwidth([[0.0], [0.0], [1.0]], 0.1) == 1.0


def test_quantile_bandwidth_degenerate():
    with pytest.raises(ValueError):
        quantile_bandwidth([[2.0], [2.0]], 0.5)


def test_quantile_bandwidth_scales_linearly():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 4))
    for q in (0.1, 0.5, 0.95):
        h = quantile_bandwidth(X, q)
        assert quantile_bandwidth(3.5 * X, q) == pytest.approx(3.5 * h, rel=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(2, 40), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([1e-6, 0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 1.0]), min_size=1,
                max_size=12))
def test_quantile_bandwidths_match_one_partition_per_quantile(n, levels, seed, qs):
    # integer coordinates on few levels: many tied and zero distances
    X = np.random.default_rng(seed).integers(0, levels + 1, size=(n, 2)).astype(float)
    if np.all(X == X[0]):
        X[0, 0] += 1.0
    want = [quantile_bandwidth_one(X, q) for q in qs]
    assert quantile_bandwidths(X, qs) == want
    assert [quantile_bandwidth(X, q) for q in qs] == want


def test_quadratic_rows_every_row_up_to_the_cap_a_fixed_subset_above():
    assert np.array_equal(quadratic_rows(MAX_QUADRATIC_ROWS), np.arange(MAX_QUADRATIC_ROWS))
    rows = quadratic_rows(6000)
    assert rows.shape == (MAX_QUADRATIC_ROWS,)
    assert np.all(np.diff(rows) > 0) and rows[0] >= 0 and rows[-1] < 6000
    assert np.array_equal(rows, quadratic_rows(6000))


def test_quantile_bandwidths_match_the_oracle_on_the_capped_rows():
    rng = np.random.default_rng(6)
    qs = [1e-6, 0.25, 0.5, 1.0]
    X = rng.standard_normal((MAX_QUADRATIC_ROWS, 3))
    assert quantile_bandwidths(X, qs) == [quantile_bandwidth_one(X, q) for q in qs]
    X = rng.standard_normal((MAX_QUADRATIC_ROWS + 700, 3))
    rows = quadratic_rows(len(X))
    assert quantile_bandwidths(X, qs) == [quantile_bandwidth_one(X[rows], q) for q in qs]


def test_quantile_bandwidth_above_the_cap_looks_past_one_sampled_point():
    # every sampled row is the origin; two unsampled rows are not
    n = MAX_QUADRATIC_ROWS + 500
    X = np.zeros((n, 2))
    unsampled = np.setdiff1d(np.arange(n), quadratic_rows(n))
    X[unsampled[:2]] = [[3.0, 4.0], [0.0, 0.5]]
    assert quantile_bandwidths(X, [0.5, 1.0]) == [0.5, 0.5]


def test_quantile_bandwidth_above_the_cap_all_identical_is_degenerate():
    with pytest.raises(ValueError, match="all points identical"):
        quantile_bandwidth(np.full((MAX_QUADRATIC_ROWS + 500, 2), 7.0), 0.5)


def test_gram_unit_diagonal_and_symmetry():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((15, 3))
    G = gram(X, X, 0.8)
    assert np.array_equal(np.diag(G), np.ones(15))
    assert np.array_equal(G, G.T)


def test_gram_1x1_reduces_to_kernel():
    x, y = np.array([0.5, 1.0]), np.array([-0.2, 0.3])
    assert gram([x], [y], 1.3)[0, 0] == gaussian_gram([x], [y], 1.3)[0, 0]


def test_gram_matches_elementwise_oracle():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((3, 4))
    Y = rng.standard_normal((5, 4))
    assert np.allclose(gram(X, Y, 0.9), gaussian_gram(X, Y, 0.9), atol=1e-12)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(4)
    for seed in range(5):
        X = np.random.default_rng(seed).standard_normal((30, 5))
        G = gram(X, X, 1.0)
        eigvals = np.linalg.eigvalsh(G)
        assert eigvals.min() >= -1e-8 * len(X)


def test_kernel_scale_invariance():
    rng = np.random.default_rng(5)
    X, Y = rng.standard_normal((4, 3)), rng.standard_normal((6, 3))
    for c in (0.1, 2.0, 40.0):
        assert gram(c * X, c * Y, c * 1.2) == pytest.approx(gram(X, Y, 1.2), rel=1e-12)


def test_nearest_rank_by_hand():
    assert nearest_rank(10, 0.9) == 9
    assert nearest_rank(10, 0.91) == 10
    assert nearest_rank(3, 0.01) == 1
    assert nearest_rank(25, 0.28) == 7  # 0.28 * 25 lands just above 7 in floats
    with pytest.raises(ValueError):
        nearest_rank(5, 0.0)
    with pytest.raises(ValueError):
        nearest_rank(5, 1.5)


def test_nearest_rank_of_count_array_is_elementwise():
    counts = np.arange(1, 301)
    for q in Q_GRID:
        ranks = nearest_rank(counts, q)
        assert ranks.dtype == np.int64
        scalar = [nearest_rank(c, q) for c in counts.tolist()]
        assert ranks.tolist() == scalar == [max(1, math.ceil(q * c - 1e-9)) for c in counts]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=60),
    st.lists(st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 2.0]),
                       st.floats(allow_nan=False)), min_size=1, max_size=60)))
@example(list(range(25)))
@example([2.5, 1.0, 1.0, 2.5, -3.0] * 5)
def test_percentile_matches_sorted_list(values):
    arr = np.array(values)
    for q in Q_GRID:
        assert percentile(arr, q) == sorted_percentile(values, q)


def test_quantile_bandwidth_uses_the_percentile_rank():
    X = np.random.default_rng(4).standard_normal((30, 3))
    for q in (0.1, 0.25, 0.3, 0.5, 1.0):
        assert quantile_bandwidth(X, q) == percentile(pdist(X), q)


@st.composite
def tie_heavy_points(draw):
    """Random, rounded or duplicate-heavy point sets, with a quantile."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, D = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    X = rng.standard_normal((n, D))
    kind = draw(st.sampled_from(["random", "rounded", "duplicates"]))
    if kind == "rounded":
        X = np.round(X)
    elif kind == "duplicates":
        X = X[rng.integers(0, draw(st.integers(1, n)), n)]
    q = draw(st.one_of(st.sampled_from([0.01, 0.25, 0.5, 1.0]),
                       st.floats(1e-6, 1.0)))
    return X, q


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(tie_heavy_points())
def test_quantile_bandwidth_matches_percentile_or_smallest_positive(case):
    X, q = case
    dists = pdist(X)
    expected = sorted_percentile(dists, q)
    if expected == 0.0:
        if not np.any(dists > 0):
            with pytest.raises(ValueError):
                quantile_bandwidth(X, q)
            return
        expected = dists[dists > 0].min()
    assert quantile_bandwidth(X, q) == expected


def test_percentile_reexported_by_flows():
    assert flows.percentile is percentile


def test_require_finite_names_first_entry():
    X = np.zeros((4, 3))
    X[2, 1] = np.nan
    X[3, 0] = np.inf
    with pytest.raises(ValueError, match="row 2, column 1"):
        require_finite(X)
    require_finite(np.ones((2, 2)))
