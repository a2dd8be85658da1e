import numpy as np
import pytest
from scipy.spatial.distance import pdist

from ocsketch import flows
from ocsketch.kernel import (
    gaussian_kernel,
    gram,
    nearest_rank,
    pairwise_distances,
    percentile,
    quantile_bandwidth,
    require_finite,
)

from oracles import gaussian_gram


def test_kernel_at_zero_distance():
    x = np.array([1.0, 2.0, 3.0])
    assert gaussian_kernel(x, x, 0.7) == 1.0


def test_kernel_closed_form():
    # ||x - y||^2 == h^2 gives exactly exp(-1)
    assert gaussian_kernel([0.0], [2.0], 2.0) == pytest.approx(np.exp(-1), abs=1e-12)


def test_kernel_large_bandwidth_limit():
    x, y = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    h = 1e6 * np.linalg.norm(x - y)
    assert gaussian_kernel(x, y, h) == pytest.approx(1.0, abs=1e-9)


def test_kernel_errors():
    with pytest.raises(ValueError):
        gaussian_kernel([0.0], [0.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        gaussian_kernel([0.0], [1.0], 0.0)


def test_pairwise_distances_by_hand():
    assert np.array_equal(pairwise_distances([[0.0], [1.0], [2.0]]), [1.0, 1.0, 2.0])


def test_pairwise_distances_identical_points():
    assert np.array_equal(pairwise_distances([[3.0], [3.0]]), [0.0])


def test_pairwise_distances_count():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        assert len(pairwise_distances(rng.standard_normal((n, 3)))) == n * (n - 1) // 2
    with pytest.raises(ValueError):
        pairwise_distances([[0.0]])


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


def test_gram_unit_diagonal_and_symmetry():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((15, 3))
    G = gram(X, X, 0.8)
    assert np.array_equal(np.diag(G), np.ones(15))
    assert np.array_equal(G, G.T)


def test_gram_1x1_reduces_to_kernel():
    x, y = np.array([0.5, 1.0]), np.array([-0.2, 0.3])
    assert gram([x], [y], 1.3)[0, 0] == gaussian_kernel(x, y, 1.3)


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
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    for c in (0.1, 2.0, 40.0):
        assert gaussian_kernel(c * x, c * y, c * 1.2) == pytest.approx(
            gaussian_kernel(x, y, 1.2), rel=1e-12
        )


def test_nearest_rank_by_hand():
    assert nearest_rank(10, 0.9) == 9
    assert nearest_rank(10, 0.91) == 10
    assert nearest_rank(3, 0.01) == 1
    assert nearest_rank(25, 0.28) == 7  # 0.28 * 25 lands just above 7 in floats
    with pytest.raises(ValueError):
        nearest_rank(5, 0.0)
    with pytest.raises(ValueError):
        nearest_rank(5, 1.5)


def test_quantile_bandwidth_uses_the_percentile_rank():
    X = np.random.default_rng(4).standard_normal((30, 3))
    for q in (0.1, 0.25, 0.3, 0.5, 1.0):
        assert quantile_bandwidth(X, q) == percentile(pdist(X), q)


def test_percentile_reexported_by_flows():
    assert flows.percentile is percentile


def test_require_finite_names_first_entry():
    X = np.zeros((4, 3))
    X[2, 1] = np.nan
    X[3, 0] = np.inf
    with pytest.raises(ValueError, match="row 2, column 1"):
        require_finite(X)
    require_finite(np.ones((2, 2)))
