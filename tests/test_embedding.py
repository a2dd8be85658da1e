import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocsketch.embedding import (
    KJL,
    NYSTROM,
    EmbeddingModel,
    embed,
    fit_kjl,
    fit_nystrom,
)
from ocsketch.kernel import EXP_FLOOR, gram, quantile_bandwidth

from oracles import embed_cdist, nystrom_target_gram

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
EPS = np.finfo(float).eps


def test_nystrom_identical_landmarks_hand_case():
    # K_II is the 2x2 all-ones matrix: lambda_1 = 2, v_1 = (1,1)/sqrt(2),
    # so P = (0.5, 0.5) and the landmark embeds to exactly 1
    X = np.array([[7.0], [7.0]])
    model = fit_nystrom(X, 2, 1, 1.0, seed=0)
    assert np.allclose(np.abs(model.P), [[0.5, 0.5]], atol=1e-12)
    assert abs(abs(embed(model, [[7.0]])[0, 0]) - 1.0) < 1e-12


def test_nystrom_full_rank_recovers_gram():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((15, 4))
    h = quantile_bandwidth(X, 0.25)
    model = fit_nystrom(X, 15, 15, h, seed=0)
    Z = embed(model, X)
    assert np.abs(Z @ Z.T - gram(X, X, h)).max() < 1e-6


def test_nystrom_matches_pseudoinverse_oracle():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((25, 3))
        h = quantile_bandwidth(X, 0.25)
        for d in (2, 6, 25):
            model = fit_nystrom(X, 25, d, h, seed=seed)
            Z = embed(model, X)
            K_IJ = gram(model.landmarks, X, h)
            K_II = gram(model.landmarks, model.landmarks, h)
            target = nystrom_target_gram(K_II, K_IJ, d)
            assert np.abs(Z @ Z.T - target).max() < 1e-8


def test_paper_defaults_shape():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((200, 8))
    model = fit_nystrom(X, 100, 5, 1.0, seed=0)
    assert (model.m, model.d) == (100, 5)
    assert embed(model, X).shape == (200, 5)


def test_kjl_single_landmark_closed_form():
    X = np.array([[2.0, 0.0]])
    model = fit_kjl(X, 1, 1, 1.5, seed=3)
    z = model.P[0, 0]  # K(x1, x1) = 1 so P = z
    q = np.array([2.5, 0.5])
    kq = gram([q], X, 1.5)[0, 0]
    assert embed(model, [q])[0, 0] == pytest.approx(z * kq, rel=1e-12)


def test_kjl_deterministic_under_seed():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 3))
    a = fit_kjl(X, 10, 4, 0.9, seed=99)
    b = fit_kjl(X, 10, 4, 0.9, seed=99)
    assert np.array_equal(a.P, b.P)
    assert np.array_equal(a.landmarks, b.landmarks)
    c = fit_kjl(X, 10, 4, 0.9, seed=100)
    assert not np.array_equal(a.P, c.P)


def test_kjl_gram_unbiasedness():
    # E_Z[phi'(x)' phi'(y)] = d K(x)' K_II^2 K(y); with m = n the landmark
    # set is fixed (order varies, the quadratic form does not)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 2))
    h = quantile_bandwidth(X, 0.5)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    d = 5
    K_II = gram(X, X, h)
    target = d * gram([x], X, h)[0] @ K_II @ K_II @ gram([y], X, h)[0]
    vals = []
    for seed in range(500):
        model = fit_kjl(X, 8, d, h, seed=seed)
        vals.append(embed(model, [x])[0] @ embed(model, [y])[0])
    assert abs(np.mean(vals) - target) / abs(target) < 0.05


def test_embed_far_point_collapses_to_zero():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((20, 3))
    model = fit_nystrom(X, 10, 4, 0.5, seed=0)
    far = np.full(3, 1e6)
    assert np.abs(embed(model, [far])).max() < 1e-9


def test_embed_shapes_and_dim_check():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 6))
    model = fit_kjl(X, 12, 3, 1.0, seed=0)
    assert embed(model, rng.standard_normal((17, 6))).shape == (17, 3)
    with pytest.raises(ValueError):
        embed(model, rng.standard_normal((5, 4)))


def test_fit_argument_errors():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError):
        fit_nystrom(X, 6, 2, 1.0)
    with pytest.raises(ValueError):
        fit_kjl(X, 4, 5, 1.0)
    with pytest.raises(ValueError):
        fit_nystrom(X, 4, 2, -1.0)
    for fit in (fit_nystrom, fit_kjl):
        with pytest.raises(ValueError, match="got d=0"):
            fit(X, 4, 0, 1.0)


def test_embed_affine_in_projection():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((25, 3))
    model = fit_kjl(X, 8, 2, 1.0, seed=1)
    scaled = EmbeddingModel(model.kind, model.landmarks, 3.0 * model.P, model.h)
    Q = rng.standard_normal((6, 3))
    assert np.allclose(embed(scaled, Q), 3.0 * embed(model, Q), rtol=1e-12)
    # a power of two scales every product and sum without rounding
    quadrupled = EmbeddingModel(model.kind, model.landmarks, 4.0 * model.P, model.h)
    assert np.array_equal(embed(quadrupled, Q), 4.0 * embed(model, Q))


def test_embedding_model_is_frozen():
    model = fit_kjl(np.random.default_rng(10).standard_normal((12, 3)), 6, 2, 1.0, seed=0)
    for name, value in [("landmarks", np.zeros((6, 3))), ("P", np.zeros((2, 6))), ("h", 2.0)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value)


def test_landmarks_too_far_from_their_mean_rejected():
    with pytest.raises(ValueError, match="from the landmark mean"):
        EmbeddingModel(KJL, np.array([[0.0], [1e160]]), np.ones((1, 2)), 1.0)


def test_rank_deficient_rows_zeroed():
    # duplicated landmark data makes K_II rank 1; rows past the first
    # retained eigenpair must be zero, not blown up
    X = np.tile([[1.0, 2.0]], (6, 1))
    model = fit_nystrom(X, 6, 3, 1.0, seed=0)
    assert np.all(np.isfinite(model.P))
    assert np.abs(model.P[1:]).max() == 0.0


def test_kind_tags():
    X = np.random.default_rng(9).standard_normal((10, 2))
    assert fit_nystrom(X, 5, 2, 1.0, seed=0).kind == NYSTROM
    assert fit_kjl(X, 5, 2, 1.0, seed=0).kind == KJL


# A-priori bound on |K - K_cdist| for the expansion ||x_c||^2 + ||l_c||^2 -
# 2 l_c . x_c about the landmark mean, with S = ||x_c||^2 + ||l_c||^2. The
# squared distance moves by at most 4 eps S from rounding the centred
# coordinates, 2 D eps S from the two squared norms and the doubled D-term
# product, 4 eps S from the two additions, and 2 (D + 2) eps S from cdist's
# own roundings; dividing by h^2 on both sides adds 4 eps S. That is
# (4 D + 16) eps S / h^2, and c = 4 D + 20 leaves room for the O(eps^2)
# terms; each side's exp adds one more ulp of a value <= 1.
def kernel_error_bound(D, S, h):
    c = 4 * D + 20
    return c * EPS * S / h**2 + 2 * EPS


@st.composite
def landmark_sets(draw):
    """Rows whose columns have their own offset and spread, each 1 to 1e7 (like
    stats_header's), landmarks drawn from them with repeats (or all one row),
    h at a 0.1-0.5 distance quantile, and queries that are the landmarks, points
    within 1e-9 spreads of them, the rows, and points 1e3 spreads away."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = draw(st.integers(1, 8))
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 20))
    spread = 10.0 ** rng.uniform(0, 7, D)
    offset = 10.0 ** rng.uniform(0, 7, D) * rng.choice([-1, 0, 1], D)
    X = offset + spread * rng.standard_normal((n, D))
    identical = draw(st.booleans()) and draw(st.booleans())
    rows = np.zeros(m, dtype=int) if identical else rng.integers(0, n, m)
    landmarks = X[rows]
    h = quantile_bandwidth(X, draw(st.floats(0.1, 0.5)))
    Q = np.vstack([
        landmarks,
        landmarks + 1e-9 * spread * rng.standard_normal((m, D)),
        X,
        X.mean(axis=0) + 1e3 * spread * rng.choice([-1.0, 1.0], (3, D)),
    ])
    return landmarks, h, Q, identical


@PROPERTY
@given(landmark_sets())
def test_embed_kernel_matches_cdist_oracle(case):
    landmarks, h, Q, identical = case
    m, D = landmarks.shape
    model = EmbeddingModel(KJL, landmarks, np.eye(m), h)  # P = I: embed returns K
    K, K_oracle = embed(model, Q), embed_cdist(model, Q)
    centre = landmarks.mean(axis=0)
    S = np.sum((Q - centre) ** 2, axis=1)[:, None] + np.sum((landmarks - centre) ** 2, axis=1)
    assert np.all(np.abs(K - K_oracle) <= kernel_error_bound(D, S, h))
    assert K.min() >= np.exp(EXP_FLOOR) and K.max() <= 1.0
    if identical:  # every landmark is the query: exactly 1
        assert np.all(K[:m] == 1.0)
