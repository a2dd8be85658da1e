import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocsketch.gmm import (
    GmmModel,
    default_reg,
    e_step,
    fit_em,
    log_pdf,
    m_step,
)

from oracles import e_step_cholesky, log_pdf_cholesky, naive_mixture_log_density

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def standard_normal_model(d=2):
    return GmmModel(np.array([1.0]), np.zeros((1, d)), np.eye(d)[None])


def random_model(rng, k, d):
    pi = rng.dirichlet(np.ones(k))
    mu = rng.standard_normal((k, d))
    A = rng.standard_normal((k, d, d))
    sigma = A @ A.transpose(0, 2, 1) + 0.5 * np.eye(d)
    return GmmModel(pi, mu, sigma)


def test_log_pdf_standard_normal():
    assert log_pdf(standard_normal_model(), np.zeros(2)) == pytest.approx(
        -np.log(2 * np.pi), abs=1e-12
    )


def test_log_pdf_duplicate_components():
    single = standard_normal_model()
    double = GmmModel(np.array([0.5, 0.5]), np.zeros((2, 2)),
                      np.stack([np.eye(2)] * 2))
    z = np.array([0.3, -1.2])
    assert log_pdf(double, z) == pytest.approx(log_pdf(single, z), abs=1e-12)


def test_log_pdf_matches_naive_oracle():
    rng = np.random.default_rng(0)
    model = random_model(rng, 3, 2)
    for z in rng.standard_normal((10, 2)):
        direct = naive_mixture_log_density(model.pi, model.mu, model.sigma, z)
        assert log_pdf(model, z) == pytest.approx(direct, abs=1e-10)


def test_log_pdf_finite_far_away():
    model = standard_normal_model()
    assert np.isfinite(log_pdf(model, np.array([1e3, 1e3])))


def test_log_pdf_every_component_underflows_to_neg_inf():
    model = GmmModel(np.array([0.5, 0.5]), np.array([[-1.0, 0.0], [1.0, 0.0]]),
                     np.stack([np.eye(2)] * 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_pdf(model, np.array([1e160, 0.0])) == -np.inf
        batch = log_pdf(model, np.array([[0.0, 0.0], [1e160, 0.0]]))
    assert np.isfinite(batch[0]) and batch[1] == -np.inf


def test_log_pdf_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite value nan at row 0, column 0"):
        log_pdf(standard_normal_model(), np.array([np.nan, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_log_pdf_batch_names_non_finite_row_and_column(bad):
    Z = np.zeros((4, 2))
    Z[2, 1] = bad
    with pytest.raises(ValueError, match=f"non-finite value {bad} at row 2, column 1"):
        log_pdf(standard_normal_model(), Z)


def test_e_step_single_component():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 2))
    resp, _ = e_step(standard_normal_model(), X)
    assert np.array_equal(resp, np.ones((20, 1)))


def test_e_step_symmetric_point():
    model = GmmModel(np.array([0.5, 0.5]),
                     np.array([[-1.0, 0.0], [1.0, 0.0]]),
                     np.stack([np.eye(2)] * 2))
    resp, _ = e_step(model, np.array([[0.0, 5.0]]))
    assert resp[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_e_step_rows_sum_to_one():
    rng = np.random.default_rng(2)
    model = random_model(rng, 4, 3)
    X = rng.standard_normal((50, 3))
    resp, _ = e_step(model, X)
    assert np.abs(resp.sum(axis=1) - 1).max() < 1e-12


def test_m_step_uniform_responsibilities():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 3)) + 2.0
    reg = 1e-6
    model = m_step(X, np.ones((40, 1)), reg)
    assert np.allclose(model.mu[0], X.mean(axis=0), atol=1e-12)
    expected = np.cov(X, rowvar=False, bias=True) + reg * np.eye(3)
    assert np.allclose(model.sigma[0], expected, atol=1e-12)


def test_m_step_hard_assignment():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])
    resp = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float)
    model = m_step(X, resp, 1e-9)
    assert np.allclose(model.mu[0], [0.5, 0.0])
    assert np.allclose(model.mu[1], [10.5, 10.0])
    assert np.allclose(model.pi, [0.5, 0.5])


def test_m_step_weighted_moment_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 2))
    raw = rng.uniform(0.01, 1.0, size=(20, 2))
    resp = raw / raw.sum(axis=1, keepdims=True)
    reg = 1e-8
    model = m_step(X, resp, reg)
    for l in range(2):
        w = resp[:, l]
        mu = (w[:, None] * X).sum(axis=0) / w.sum()
        diff = X - mu
        sigma = (diff.T * w) @ diff / w.sum() + reg * np.eye(2)
        assert np.allclose(model.mu[l], mu, atol=1e-12)
        assert np.allclose(model.sigma[l], sigma, atol=1e-12)
        assert model.pi[l] == pytest.approx(w.mean(), abs=1e-12)


def test_m_step_collapsed_component_reinitialized():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 2))
    resp = np.ones((30, 2))
    resp[:, 1] = 0.0  # dead component
    model = m_step(X, resp / resp.sum(axis=1, keepdims=True), 1e-6)
    assert model.diagnostics["reinitialized_components"] == [1]
    assert np.all(np.isfinite(model.sigma))
    assert model.pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_fit_k1_closed_form():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((60, 3)) * 1.5 + 4.0
    model = fit_em(X, 1, seed=0)
    reg = default_reg(X)
    assert np.abs(model.mu[0] - X.mean(axis=0)).max() < 1e-10
    # MAP ridge: (S + reg I) / n for the single component's scatter S
    expected = np.cov(X, rowvar=False, bias=True) + reg / len(X) * np.eye(3)
    assert np.abs(model.sigma[0] - expected).max() < 1e-10
    assert len(model.diagnostics["loglik_history"]) <= 3


def test_fit_two_blob_recovery():
    rng = np.random.default_rng(7)
    X = np.vstack([rng.standard_normal((250, 2)),
                   rng.standard_normal((250, 2)) + [7.0, 0.0]])
    model = fit_em(X, 2, seed=1)
    mus = model.mu[np.argsort(model.mu[:, 0])]
    assert np.linalg.norm(mus[0] - [0, 0]) < 0.3
    assert np.linalg.norm(mus[1] - [7, 0]) < 0.3


def test_fit_loglik_monotone():
    rng = np.random.default_rng(8)
    for seed in range(5):
        X = np.random.default_rng(seed).standard_normal((100, 2))
        model = fit_em(X, 3, seed=seed)
        h = model.diagnostics["loglik_history"]
        assert all(h[i + 1] >= h[i] - 1e-9 for i in range(len(h) - 1))


def test_fit_with_init_params():
    rng = np.random.default_rng(9)
    X = np.vstack([rng.standard_normal((100, 2)),
                   rng.standard_normal((100, 2)) + 10.0])
    init = np.repeat([0, 1], 100)
    init[[0, 100]] = -1  # left out of the initial mixture
    model = fit_em(X, 2, init=init, seed=0)
    assert sorted(np.round(model.mu[:, 0])) == [0, 10]


def test_fit_rejects_bad_init_labels():
    X = np.random.default_rng(9).standard_normal((10, 2))
    for labels in (np.zeros(9, dtype=int), np.repeat([0, 2], 5)):
        with pytest.raises(ValueError, match="one label below k=2"):
            fit_em(X, 2, init=labels)


def test_fit_translation_equivariance():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((80, 2))
    shift = np.array([100.0, -50.0])
    a = fit_em(X, 2, seed=5)
    b = fit_em(X + shift, 2, seed=5)
    order_a = np.lexsort(a.mu.T)
    order_b = np.lexsort(b.mu.T)
    assert np.allclose(b.mu[order_b] - shift, a.mu[order_a], atol=1e-6)
    assert np.allclose(b.sigma[order_b], a.sigma[order_a], atol=1e-6)
    assert np.allclose(np.sort(b.pi), np.sort(a.pi), atol=1e-8)


def test_log_pdf_component_permutation_invariant():
    rng = np.random.default_rng(11)
    model = random_model(rng, 3, 2)
    perm = [2, 0, 1]
    permuted = GmmModel(model.pi[perm], model.mu[perm], model.sigma[perm])
    z = rng.standard_normal(2)
    assert log_pdf(model, z) == pytest.approx(log_pdf(permuted, z), abs=1e-12)


def test_fit_covariances_respect_ridge_floor():
    rng = np.random.default_rng(12)
    X = np.vstack([rng.standard_normal((80, 3)),
                   rng.standard_normal((80, 3)) + 5.0])
    model = fit_em(X, 3, seed=2)
    assert model.pi.min() >= 0
    assert model.pi.sum() == pytest.approx(1.0, abs=1e-12)
    for S in model.sigma:
        assert np.allclose(S, S.T, atol=0)
        assert np.linalg.eigvalsh(S).min() >= default_reg(X) * (1 - 1e-9)


def test_fit_k_exceeds_n():
    with pytest.raises(ValueError):
        fit_em(np.zeros((3, 2)), 4)


@pytest.mark.parametrize("k", [0, -1])
def test_fit_k_below_one(k):
    with pytest.raises(ValueError, match=f"got k={k}"):
        fit_em(np.zeros((3, 2)), k)


@st.composite
def mixtures_and_points(draw):
    """k in 1..6, d in 1..8, covariances up to condition 1e8, some weights 0,
    and 1..20 points up to 1e3 from a mean."""
    k, d = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_cond = draw(st.floats(0.0, 8.0))
    sigma = np.empty((k, d, d))
    for l in range(k):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eig = 10.0 ** rng.uniform(-2, 2) * np.logspace(0, -log_cond, d)
        S = (Q * eig) @ Q.T
        sigma[l] = (S + S.T) / 2
    pi = rng.dirichlet(np.ones(k))
    dead = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    dead[rng.integers(k)] = False
    pi[dead] = 0.0
    mu = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-1, 1)
    n = draw(st.integers(1, 20))
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    Z = mu[rng.integers(k, size=n)] + u * 10.0 ** rng.uniform(-3, 3, (n, 1))
    return GmmModel(pi / pi.sum(), mu, sigma), Z, rng


def _relative_error(actual, expected):
    return np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))


@PROPERTY
@given(mixtures_and_points())
def test_log_pdf_matches_cholesky_oracle(case):
    model, Z, _ = case
    assert _relative_error(log_pdf(model, Z), log_pdf_cholesky(model, Z)).max() <= 1e-10


@PROPERTY
@given(mixtures_and_points())
def test_log_pdf_batch_follows_row_order(case):
    model, Z, rng = case
    perm = rng.permutation(len(Z))
    assert _relative_error(log_pdf(model, Z[perm]), log_pdf(model, Z)[perm]).max() <= 1e-12


@PROPERTY
@given(mixtures_and_points())
def test_log_pdf_single_point_equals_batch_row(case):
    model, Z, _ = case
    batch = log_pdf(model, Z)
    single = np.array([log_pdf(model, z) for z in Z])
    assert _relative_error(single, batch).max() <= 1e-12


@PROPERTY
@given(mixtures_and_points())
def test_e_step_matches_cholesky_oracle(case):
    model, Z, _ = case
    resp, loglik = e_step(model, Z)
    resp_ref, loglik_ref = e_step_cholesky(model, Z)
    assert np.abs(resp - resp_ref).max() <= 1e-10
    assert _relative_error(loglik, loglik_ref) <= 1e-10
