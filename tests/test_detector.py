import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocsketch.detector import (
    AUTO,
    NORMAL,
    NOVEL,
    DetectorConfig,
    choose_threshold,
    classify,
    deserialize,
    detect_score,
    detect_scores,
    serialize,
    train_detector,
)
from ocsketch.embedding import EmbeddingModel, embed, fit_kjl
from ocsketch.evaluate import auc, synth_blobs, synth_cluster_in_cluster
from ocsketch.gmm import GmmModel, fit_em, log_pdf
from ocsketch.kernel import quadratic_rows
from ocsketch.ocsvm import OcsvmModel, train_ocsvm
from ocsketch.quickshift import (
    QsConfig,
    cluster_cores,
    knn_log_density,
    knn_table,
    quickshift_assign,
    select_components,
)

from ocsketch.detector import DetectorModel

from oracles import quantile_bandwidth_one


def ring_data(n=1200, seed=0):
    X, y = synth_cluster_in_cluster(2 * n, seed=seed)
    return X[y == 0][:n], X[y == 1][:n]


def small_config(**kw):
    defaults = dict(kind="kjl", m=50, d=4, h_quantile=0.5, k=AUTO, seed=0)
    defaults.update(kw)
    return DetectorConfig(**defaults)


def test_train_fixed_one_is_single_gaussian():
    Xn, _ = ring_data(300)
    cfg = small_config(k=1)
    model = train_detector(Xn, cfg)
    Z = embed(model.embedding, Xn)
    direct = fit_em(Z, 1, seed=0)
    assert np.allclose(model.gmm.mu, direct.mu, atol=1e-10)
    assert np.allclose(model.gmm.sigma, direct.sigma, atol=1e-10)


def test_train_deterministic_model_file():
    Xn, _ = ring_data(400)
    cfg = small_config()
    a = serialize(train_detector(Xn, cfg))
    b = serialize(train_detector(Xn, cfg))
    assert a == b


def test_train_explicit_bandwidth_wins():
    Xn, _ = ring_data(200)
    model = train_detector(Xn, small_config(h=2.5, h_quantile=0.1, k=1))
    assert model.embedding.h == 2.5


def test_train_nystrom_kind():
    Xn, _ = ring_data(200)
    model = train_detector(Xn, small_config(kind="nystrom", k=2))
    assert model.embedding.kind == "nystrom"
    with pytest.raises(ValueError):
        train_detector(Xn, small_config(kind="rff"))


@pytest.mark.parametrize("kind", ["kjl", "nystrom"])
def test_power_of_two_scaling_leaves_scores_bit_identical(kind):
    # the bandwidth quantile scales with the data, and scaling by 2^j is
    # exact, so every kernel value and everything after it is unchanged
    Xn, Xv = ring_data(400)
    X_test = np.vstack([Xn[:50], Xv[:50]])
    cfg = small_config(kind=kind)
    want = detect_scores(train_detector(Xn, cfg), X_test)
    for c in (2.0**-20, 0.25, 8.0, 2.0**30):
        got = detect_scores(train_detector(c * Xn, cfg), c * X_test)
        assert np.array_equal(got, want), c


def test_detect_score_composition():
    Xn, Xv = ring_data(300)
    model = train_detector(Xn, small_config(k=2))
    x = Xv[0]
    expected = log_pdf(model.gmm, embed(model.embedding, [x])[0])
    assert detect_score(model, x) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_names_row_and_column(bad):
    Xn, Xv = ring_data(300)
    model = train_detector(Xn, small_config(k=2))
    X = Xv[:4].copy()
    X[2, 1] = bad
    with pytest.raises(ValueError, match=f"non-finite value {bad} at row 2, column 1"):
        detect_scores(model, X)
    with pytest.raises(ValueError, match=f"non-finite value {bad} at row 0, column 1"):
        detect_score(model, X[2])


def test_far_point_scores_like_origin_embedding():
    Xn, _ = ring_data(300)
    model = train_detector(Xn, small_config(k=2))
    far = np.full(2, 1e7)
    expected = log_pdf(model.gmm, np.zeros(model.gmm.d))
    assert detect_score(model, far) == pytest.approx(expected, abs=1e-9)


def test_batch_scores_match_single():
    Xn, Xv = ring_data(250)
    model = train_detector(Xn, small_config(k=1))
    batch = detect_scores(model, Xv[:20])
    singles = [detect_score(model, x) for x in Xv[:20]]
    assert np.allclose(batch, singles, rtol=1e-12, atol=1e-14)


def test_choose_threshold_rank_arithmetic():
    Xn, _ = ring_data(300)
    model = train_detector(Xn, small_config(k=1))
    scores = detect_scores(model, Xn)
    # distinct scores: the 0.05 quantile leaves strictly fewer than 5% below
    t = choose_threshold(model, Xn, 0.05)
    below = np.sum(scores < t)
    assert below <= 0.05 * len(Xn)
    assert t == np.sort(scores)[int(np.ceil(0.05 * len(Xn))) - 1]


def test_choose_threshold_hand_ranks():
    # 100 distinct scores at target 0.05: t is the 5th smallest, 4 flagged
    Xn, _ = ring_data(100)
    model = train_detector(Xn, small_config(k=1, m=40))
    scores = detect_scores(model, Xn)
    assert len(np.unique(scores)) == 100
    t = choose_threshold(model, Xn, 0.05)
    assert t == np.sort(scores)[4]
    assert np.sum(scores < t) == 4


@functools.cache
def calibration_model():
    Xn, _ = ring_data(300)
    return train_detector(Xn, small_config(k=1))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 200),
       st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.5, 1.0]), st.floats(0.0, 1.0)))
def test_choose_threshold_flags_at_most_fpr_share(seed, n, distinct, fpr):
    # rows drawn from `distinct` points, so few distinct rows give tied scores
    model = calibration_model()
    rng = np.random.default_rng(seed)
    D = model.embedding.input_dim
    X = 3 * rng.standard_normal((distinct, D))[rng.integers(0, distinct, n)]
    t = choose_threshold(model, X, fpr)
    assert np.sum(detect_scores(model, X) < t) <= fpr * len(X)


def test_choose_threshold_all_equal_scores():
    Xn, _ = ring_data(100)
    model = train_detector(Xn, small_config(k=1, m=40))
    same = np.tile(Xn[0], (30, 1))
    t = choose_threshold(model, same, 0.2)
    assert np.sum(detect_scores(model, same) < t) == 0  # strict comparison


def test_choose_threshold_zero_fpr():
    Xn, _ = ring_data(150)
    model = train_detector(Xn, small_config(k=1))
    t = choose_threshold(model, Xn, 0.0)
    assert np.sum(detect_scores(model, Xn) < t) == 0


def test_classify_boundary_strict():
    Xn, _ = ring_data(200)
    model = train_detector(Xn, small_config(k=1))
    x = Xn[0]
    model.threshold = detect_score(model, x)
    assert classify(model, x) == NORMAL  # score == threshold
    model.threshold = np.nextafter(model.threshold, np.inf)
    assert classify(model, x) == NOVEL


def test_classify_requires_threshold():
    Xn, _ = ring_data(150)
    model = train_detector(Xn, small_config(k=1))
    with pytest.raises(ValueError):
        classify(model, Xn[0])


def test_classify_consistent_with_scores():
    Xn, Xv = ring_data(400)
    model = train_detector(Xn, small_config(k=2))
    model.threshold = choose_threshold(model, Xn, 0.05)
    pts = np.vstack([Xn[:50], Xv[:50]])
    for x in pts:
        want = NOVEL if detect_score(model, x) < model.threshold else NORMAL
        assert classify(model, x) == want


def test_serialize_roundtrip_bit_exact():
    Xn, _ = ring_data(300)
    model = train_detector(Xn, small_config(k=3))
    data = serialize(model)
    assert serialize(deserialize(data)) == data
    model.threshold = -4.5
    data_t = serialize(model)
    assert len(data_t) == len(data) + 8
    assert deserialize(data_t).threshold == -4.5


def test_serialized_size_formula():
    Xn, _ = ring_data(300)
    model = train_detector(Xn, small_config(k=3))
    m, d, D, k = 50, 4, 2, 3
    expected = 22 + 8 * (m * (D + d) + 1 + k * (1 + d + d * d))
    assert len(serialize(model)) == expected
    model.threshold = 1.0
    assert len(serialize(model)) == expected + 8


def test_deserialize_rejects_corruption():
    Xn, _ = ring_data(200)
    data = serialize(train_detector(Xn, small_config(k=1)))
    with pytest.raises(ValueError):
        deserialize(b"XXXX" + data[4:])
    with pytest.raises(ValueError):
        deserialize(data[:-4])  # truncated payload
    bad_version = data[:4] + bytes([99]) + data[5:]
    with pytest.raises(ValueError):
        deserialize(bad_version)


def test_roundtrip_preserves_scores():
    Xn, Xv = ring_data(300)
    model = train_detector(Xn, small_config(k=2))
    restored = deserialize(serialize(model))
    assert np.array_equal(detect_scores(model, Xv[:40]),
                          detect_scores(restored, Xv[:40]))


def test_ocsvm_serialization_roundtrip():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3))
    model = train_ocsvm(X, 1.0, nu=0.5, seed=0)
    data = serialize(model)
    restored = deserialize(data)
    assert serialize(restored) == data
    with pytest.raises(ValueError):
        deserialize(data[:-1])


def test_deserialize_dispatches_on_magic():
    Xn, _ = ring_data(150)
    det = train_detector(Xn, small_config(k=1))
    svm = train_ocsvm(Xn[:50], 1.0, seed=0)
    assert isinstance(deserialize(serialize(det)), DetectorModel)
    assert isinstance(deserialize(serialize(svm)), OcsvmModel)
    with pytest.raises(ValueError):
        deserialize(b"ZZZZ" + b"\x00" * 40)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("trainer", ["detector", "ocsvm"])
def test_trainers_reject_non_finite_rows(trainer, bad):
    X = np.random.default_rng(0).standard_normal((200, 4))
    X[37, 2] = bad
    X[90, 1] = bad
    with pytest.raises(ValueError, match="row 37, column 2"):
        if trainer == "detector":
            train_detector(X, small_config(m=20))
        else:
            train_ocsvm(X, 1.0, seed=0)


def test_train_rejects_duplicate_heavy_data():
    X = np.tile(np.random.default_rng(1).standard_normal((3, 2)), (40, 1))
    with pytest.raises(ValueError, match="exact duplicates"):
        train_detector(X, small_config(m=20, d=2))


def test_train_auto_k_on_one_point_sample():
    # 3000 rows at the origin and 50 Gaussian rows, none of them sampled: the
    # bandwidth reaches past the sample, and auto-k finds one cluster
    n = 3050
    outside = np.setdiff1d(np.arange(n), quadratic_rows(n))
    X = np.zeros((n, 4))
    X[outside[:50]] = np.random.default_rng(2).standard_normal((50, 4))
    model = train_detector(X, small_config())
    assert model.gmm.k == 1
    assert np.all(np.isfinite(detect_scores(model, X)))
    assert train_detector(X, small_config(k=1)).gmm.k == 1


def test_deserialize_rejects_non_positive_definite_covariance():
    Xn, _ = ring_data(300)
    raw = bytearray(serialize(train_detector(Xn, small_config(k=2))))
    m, d, D, k = 50, 4, 2, 2
    first_sigma = 22 + 8 * (m * (D + d) + 1 + k + k * d)
    raw[first_sigma:first_sigma + 8] = np.float64(-5.0).astype("<f8").tobytes()
    with pytest.raises(ValueError, match=r"sigma\[0\]"):
        deserialize(bytes(raw))


def _uncapped_detector(X, config):
    """train_detector with the bandwidth and auto-k on every row, run
    through the stage functions."""
    emb = fit_kjl(X, config.m, config.d, quantile_bandwidth_one(X, config.h_quantile),
                  seed=config.seed)
    Z = embed(emb, X)
    nbrs, radii = knn_table(Z, math.ceil(len(Z) ** (2 / 3)))
    dens = knn_log_density(radii, Z.shape[1])
    qs = QsConfig()
    labels = quickshift_assign(Z, dens, cluster_cores(dens, nbrs, qs.beta), nbrs)
    kept = select_components(labels, qs.coverage, qs.max_clusters)
    return DetectorModel(emb, fit_em(Z, kept.k, init=kept.labels, seed=config.seed))


def _blob_split(clusters):
    normal, _ = synth_blobs(6300, clusters, 20, 30.0, seed=0)
    novel, _ = synth_blobs(300, clusters, 20, 30.0, seed=1)
    perm = np.random.default_rng(0).permutation(len(normal))
    return normal[perm[:6000]], normal[perm[6000:]], novel + 60.0


def _ring_split():
    X, y = synth_cluster_in_cluster(12600, seed=0)
    normal, novel = X[y == 0], X[y == 1]
    return normal[:6000], normal[6000:6300], novel[:300]


@pytest.mark.parametrize("split, h_quantile", [
    (lambda: _blob_split(3), 0.25),
    (lambda: _blob_split(10), 0.25),
    (_ring_split, 0.5),
], ids=["blobs3", "blobs10", "ring"])
def test_row_cap_keeps_the_uncapped_k_and_auc(split, h_quantile):
    train, test_normal, test_novel = split()
    config = DetectorConfig(kind="kjl", m=100, d=5, h_quantile=h_quantile, seed=0)
    full = _uncapped_detector(train, config)
    capped = train_detector(train, config)
    assert capped.gmm.k == full.gmm.k
    full_auc, capped_auc = (auc(detect_scores(m, test_normal), detect_scores(m, test_novel))
                            for m in (full, capped))
    assert abs(capped_auc - full_auc) <= 0.002


def test_training_memory_is_bounded_by_the_row_cap():
    # pairwise distances over all 50k rows alone would take 10 GB
    X, _ = synth_blobs(50_000, 3, 20, 30.0, seed=3)
    tracemalloc.start()
    try:
        model = train_detector(X, DetectorConfig(kind="kjl", m=100, d=5, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.gmm.k == 3
    assert peak < 150e6
