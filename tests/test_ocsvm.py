import numpy as np
import pytest

from ocsketch.kernel import gram, quantile_bandwidth
from ocsketch.detector import serialize
from ocsketch.ocsvm import SV_EPS, OcsvmModel, score, train_ocsvm

from oracles import ocsvm_qp


def full_alpha(model, X):
    """Scatter the model's support-vector alphas back onto the training rows."""
    alpha = np.zeros(len(X))
    used = set()
    for sv, a in zip(model.support_vectors, model.alpha):
        for i in np.flatnonzero((X == sv).all(axis=1)):
            if i not in used:
                alpha[i] = a
                used.add(i)
                break
    return alpha


def test_two_point_nu_one_closed_form():
    X = np.array([[0.0], [1.0]])
    model = train_ocsvm(X, 1.0, nu=1.0, seed=0)
    assert np.allclose(model.alpha, [0.5, 0.5])
    K12 = np.exp(-1.0)
    assert model.rho == pytest.approx(0.5 * (1 + K12), abs=1e-12)
    assert score(model, X[0]) == pytest.approx(0.0, abs=1e-12)


def test_matches_brute_force_qp():
    rng = np.random.default_rng(0)
    for trial in range(15):
        n = int(rng.integers(3, 9))
        X = rng.standard_normal((n, 2))
        h = quantile_bandwidth(X, 0.5)
        nu = float(rng.uniform(0.15, 0.95))
        model = train_ocsvm(X, h, nu=nu, seed=trial)
        Q = gram(X, X, h)
        alpha = full_alpha(model, X)
        obj = 0.5 * alpha @ Q @ alpha
        obj_oracle, _ = ocsvm_qp(Q, nu)
        assert abs(obj - obj_oracle) < 1e-5


def test_constraints_hold_at_solution():
    rng = np.random.default_rng(1)
    for trial in range(5):
        n = 50
        X = np.random.default_rng(trial).standard_normal((n, 3))
        h = quantile_bandwidth(X, 0.3)
        nu = 0.4
        model = train_ocsvm(X, h, nu=nu, seed=trial)
        C = 1.0 / (nu * n)
        assert model.alpha.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(model.alpha > SV_EPS)
        assert np.all(model.alpha <= C + 1e-15)


def test_kkt_gap_at_convergence():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((80, 2))
    h = quantile_bandwidth(X, 0.3)
    nu = 0.5
    tol = 1e-3
    model = train_ocsvm(X, h, nu=nu, tol=tol, seed=0)
    assert model.converged
    C = 1.0 / (nu * len(X))
    alpha = full_alpha(model, X)
    grad = gram(X, X, h) @ alpha
    up = alpha < C - 1e-12
    down = alpha > 1e-12
    gap = grad[down].max() - grad[up].min()
    assert gap <= tol + 1e-12


def test_nu_property():
    X = np.random.default_rng(3).standard_normal((500, 4))
    h = quantile_bandwidth(X, 0.25)
    model = train_ocsvm(X, h, nu=0.2, seed=0)
    flagged = np.mean(score(model, X) < 0)
    assert flagged <= 0.23
    assert model.n_sv / len(X) >= 0.17


def test_score_far_from_support_vectors():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 2))
    h = quantile_bandwidth(X, 0.5)
    model = train_ocsvm(X, h, nu=0.5, seed=0)
    far = np.full(2, 1e8)
    assert score(model, far) == pytest.approx(-model.rho, abs=1e-12)


def test_score_continuity():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    h = quantile_bandwidth(X, 0.5)
    model = train_ocsvm(X, h, nu=0.5, seed=0)
    x = rng.standard_normal(3)
    eps = 1e-9 * h
    assert abs(score(model, x + eps) - score(model, x)) < 1e-6


def test_score_batch_matches_single():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((25, 2))
    model = train_ocsvm(X, 1.0, nu=0.5, seed=0)
    Q = rng.standard_normal((7, 2))
    batch = score(model, Q)
    # BLAS may choose different summation kernels per shape; values agree
    # to roundoff
    assert np.allclose(batch, [score(model, q) for q in Q], rtol=1e-12, atol=1e-14)


def test_score_dimension_mismatch():
    model = train_ocsvm(np.zeros((4, 3)) + np.arange(12).reshape(4, 3), 5.0, seed=0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        score(model, np.zeros(2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_score_rejects_non_finite(bad):
    rng = np.random.default_rng(8)
    model = train_ocsvm(rng.standard_normal((20, 2)), 1.0, seed=0)
    Q = rng.standard_normal((5, 2))
    Q[3, 1] = bad
    with pytest.raises(ValueError, match="row 3, column 1"):
        score(model, Q)
    with pytest.raises(ValueError, match="non-finite"):
        score(model, Q[3])


def test_eval_budget_returns_flagged_iterate():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((100, 2))
    model = train_ocsvm(X, 0.5, nu=0.5, max_kernel_evals=300, seed=0)
    assert not model.converged
    assert model.alpha.sum() == pytest.approx(1.0, abs=1e-8)


def test_argument_validation():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError):
        train_ocsvm(X[:1], 1.0)
    with pytest.raises(ValueError):
        train_ocsvm(X, 1.0, nu=0.0)
    with pytest.raises(ValueError):
        train_ocsvm(X, 0.0)


def test_ocsvm_bytes():
    def mk(n_sv, D):
        return OcsvmModel(np.zeros((n_sv, D)), np.ones(n_sv) / n_sv, 0.5, 1.0, 0.5)

    assert len(serialize(mk(2500, 20))) == 13 + 8 * (2500 * 21 + 2)
    assert len(serialize(mk(1, 1))) == 13 + 16 + 16
    # linear growth in the support vector count
    sizes = [len(serialize(mk(n, 4))) for n in (10, 20, 40)]
    assert sizes[2] - sizes[1] == 2 * (sizes[1] - sizes[0])
