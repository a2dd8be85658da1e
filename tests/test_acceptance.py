"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end and
efficiency criteria train real models and take a couple of minutes combined;
every tolerance is pinned in the assertions below.
"""

import time

import numpy as np
import pytest

from ocsketch.detector import (
    AUTO,
    DetectorConfig,
    DetectorModel,
    deserialize,
    detect_scores,
    serialize,
    train_detector,
)
from ocsketch.embedding import EmbeddingModel, embed, fit_kjl, fit_nystrom
from ocsketch.evaluate import (
    MINIMAL_TUNING,
    ExperimentProtocol,
    auc,
    run_experiment,
    synth_blobs,
    synth_cluster_in_cluster,
)
from ocsketch.gmm import GmmModel, default_reg, fit_em
from ocsketch.kernel import gram, quantile_bandwidth
from ocsketch.ocsvm import OcsvmModel, score, train_ocsvm
from ocsketch.quickshift import auto_k, cluster_cores, knn_log_density, knn_table

from oracles import nystrom_target_gram, ocsvm_qp, pairwise_auc


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS -- {detail}")


def test_criterion_1_nystrom_oracle():
    t0 = time.perf_counter()
    worst_oracle, worst_full = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 6))
        h = quantile_bandwidth(X, 0.25)
        for d in (2, 5, 40):
            model = fit_nystrom(X, 40, d, h, seed=seed)
            Z = embed(model, X)
            K_II = gram(model.landmarks, model.landmarks, h)
            K_IJ = gram(model.landmarks, X, h)
            target = nystrom_target_gram(K_II, K_IJ, d)
            worst_oracle = max(worst_oracle, np.abs(Z @ Z.T - target).max())
            if d == 40:
                worst_full = max(worst_full, np.abs(Z @ Z.T - gram(X, X, h)).max())
    elapsed = time.perf_counter() - t0
    assert worst_oracle < 1e-8
    assert worst_full < 1e-6
    assert elapsed < 5.0
    report(1, f"pseudo-inverse oracle max err {worst_oracle:.2e}, "
              f"full-gram max err {worst_full:.2e}, {elapsed:.2f}s")


def test_criterion_2_kjl_unbiasedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 2))
    h = quantile_bandwidth(X, 0.5)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    d = 5
    K_II = gram(X, X, h)
    target = d * gram([x], X, h)[0] @ K_II @ K_II @ gram([y], X, h)[0]
    vals = [embed(m, [x])[0] @ embed(m, [y])[0]
            for m in (fit_kjl(X, 8, d, h, seed=s) for s in range(500))]
    rel = abs(np.mean(vals) - target) / abs(target)
    elapsed = time.perf_counter() - t0
    assert rel < 0.05
    assert elapsed < 10.0
    report(2, f"empirical mean within {rel:.2%} of d*K(x)'K_II^2 K(y), {elapsed:.2f}s")


def test_criterion_3_ocsvm_oracle_and_nu_property():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(3, 11))
        X = rng.standard_normal((n, 2))
        h = quantile_bandwidth(X, 0.5)
        nu = float(rng.uniform(0.15, 0.95))
        # tight tolerance: the criterion compares objectives at 1e-5
        model = train_ocsvm(X, h, nu=nu, tol=1e-7, seed=trial)
        C = 1.0 / (nu * n)
        assert model.alpha.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.all(model.alpha > 0)
        assert np.all(model.alpha <= C + 1e-12)
        alpha = np.zeros(n)
        for sv, a in zip(model.support_vectors, model.alpha):
            idx = np.flatnonzero((X == sv).all(axis=1))
            alpha[idx[0]] += a
        Q = gram(X, X, h)
        obj = 0.5 * alpha @ Q @ alpha
        obj_oracle, _ = ocsvm_qp(Q, nu)
        worst = max(worst, abs(obj - obj_oracle))
    assert worst < 1e-5

    X500 = np.random.default_rng(77).standard_normal((500, 4))
    model = train_ocsvm(X500, quantile_bandwidth(X500, 0.25), nu=0.2, seed=0)
    flagged = float(np.mean(score(model, X500) < 0))
    sv_frac = model.n_sv / 500
    elapsed = time.perf_counter() - t0
    assert flagged <= 0.23
    assert sv_frac >= 0.17
    assert elapsed < 60.0
    report(3, f"dual objective gap {worst:.2e} over 50 instances; "
              f"flagged {flagged:.3f} <= 0.23, SV fraction {sv_frac:.3f} >= 0.17, "
              f"{elapsed:.1f}s")


def _assert_monotone(model, label):
    h = model.diagnostics["loglik_history"]
    drops = [h[i] - h[i + 1] for i in range(len(h) - 1)]
    worst = max(drops) if drops else 0.0
    assert worst <= 1e-9, f"{label}: log-likelihood dropped by {worst}"
    return worst


def test_criterion_4_gmm():
    worst_drop = 0.0

    # monotonicity across a spread of fits
    for seed in range(6):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((150, 3)) * (1 + seed % 3)
        for k in (1, 2, 4):
            worst_drop = max(worst_drop, _assert_monotone(
                fit_em(X, k, seed=seed), f"random fit seed={seed} k={k}"))
    Xc, yc = synth_cluster_in_cluster(1000, seed=3)
    emb = fit_kjl(Xc[yc == 0], 50, 5, quantile_bandwidth(Xc[yc == 0], 0.5), seed=0)
    worst_drop = max(worst_drop, _assert_monotone(
        fit_em(embed(emb, Xc[yc == 0]), 3, seed=1), "embedded ring fit"))

    # k = 1 closed form
    rng = np.random.default_rng(9)
    X1 = rng.standard_normal((80, 3)) * 2 + 1
    m1 = fit_em(X1, 1, seed=0)
    mu_err = np.abs(m1.mu[0] - X1.mean(axis=0)).max()
    cov = np.cov(X1, rowvar=False, bias=True) + default_reg(X1) / len(X1) * np.eye(3)
    sig_err = np.abs(m1.sigma[0] - cov).max()
    assert mu_err < 1e-10 and sig_err < 1e-10

    # two-blob recovery within 0.3 sigma
    X2 = np.vstack([rng.standard_normal((300, 2)),
                    rng.standard_normal((300, 2)) + [6.0, 0.0]])
    m2 = fit_em(X2, 2, seed=0)
    mus = m2.mu[np.argsort(m2.mu[:, 0])]
    d0 = np.linalg.norm(mus[0] - [0, 0])
    d1 = np.linalg.norm(mus[1] - [6, 0])
    assert d0 < 0.3 and d1 < 0.3
    report(4, f"worst loglik drop {worst_drop:.2e} <= 1e-9; k=1 moment err "
              f"{max(mu_err, sig_err):.1e}; blob mean errs {d0:.3f}/{d1:.3f} sigma")


def test_criterion_5_auc_oracle():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sn = np.round(rng.standard_normal(int(rng.integers(1, 40))), 1)
        sv = np.round(rng.standard_normal(int(rng.integers(1, 40))), 1)
        assert auc(sn, sv) == pairwise_auc(sn, sv)
    report(5, "rank AUC equals pairwise brute force exactly on 100 tied score sets")


def test_criterion_6_quickshift():
    hits = 0
    for seed in range(20):
        X, _ = synth_blobs(900, 3, 2, 10.0, seed=seed)
        if auto_k(X).k == 3:
            hits += 1
        k_n = int(np.ceil(900 ** (2 / 3)))
        nbrs, radii = knn_table(X, k_n)
        dens = knn_log_density(radii, X.shape[1])
        counts = [len(cluster_cores(dens, nbrs, b))
                  for b in (0.5, 0.9, 0.99)]
        assert counts[0] >= counts[1] >= counts[2], f"seed {seed}: {counts}"
    assert hits >= 19  # >= 95% of 20 seeds
    report(6, f"auto_k found k=3 on {hits}/20 seeds; core count monotone in beta")


def test_criterion_7_detection_quality():
    t0 = time.perf_counter()
    X, y = synth_cluster_in_cluster(6500, seed=11)
    protocol = ExperimentProtocol(n_train=2500, n_test_per_class=300, n_val=150,
                                  reps=5, timing_repeats=1, seed=7)
    rep = run_experiment(X[y == 0], X[y == 1],
                         ["ocsvm", "kjl-qs", "nystrom-qs"],
                         protocol, MINIMAL_TUNING)
    elapsed = time.perf_counter() - t0
    ocsvm_auc = rep.summary["ocsvm"]["auc"]["mean"]
    kjl_ret = rep.ratios["kjl-qs"]["auc_retained"]["mean"]
    nys_ret = rep.ratios["nystrom-qs"]["auc_retained"]["mean"]
    assert ocsvm_auc >= 0.95
    assert kjl_ret >= 0.95
    assert nys_ret >= 0.95
    assert elapsed < 180.0
    report(7, f"OCSVM AUC {ocsvm_auc:.3f}; retained: kjl-qs {kjl_ret:.3f}, "
              f"nystrom-qs {nys_ret:.3f}; {elapsed:.0f}s < 180s")


def _blob_pools(n_normal, n_novel, d=20, seed=21):
    normal, _ = synth_blobs(n_normal, 3, d, 30.0, seed=seed)
    novel, _ = synth_blobs(n_novel, 3, d, 30.0, seed=seed + 1)
    novel += 60.0  # keep the novel blobs away from the normal ones
    return normal, novel


def _timed_scoring(fn, X, passes=20, rounds=7):
    """Best-of-rounds aggregate wall time of `passes` batch scores.

    The minimum is the noise-immune statistic here: scheduler spikes only
    ever add time.
    """
    totals = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(passes):
            fn(X)
        totals.append(time.perf_counter() - t0)
    return min(totals)


def _paired_time_ratio(fn_base, fn_other, X, passes=20, rounds=15):
    """Median over rounds of the ratio of `passes` batch-score wall times.

    Each round times both scorers back to back, so the pair sees the same
    machine load; the median drops the rounds a scheduler spike hit.
    """
    ratios = []
    for _ in range(rounds):
        totals = []
        for fn in (fn_base, fn_other):
            t0 = time.perf_counter()
            for _ in range(passes):
                fn(X)
            totals.append(time.perf_counter() - t0)
        ratios.append(totals[1] / totals[0])
    return float(np.median(ratios))


def test_criterion_8_efficiency():
    t0 = time.perf_counter()
    normal, novel = _blob_pools(5600, 600)
    rng = np.random.default_rng(0)
    train = normal[rng.choice(len(normal), 5000, replace=False)]
    X_test = np.vstack([normal[:300], novel[:300]])

    h = quantile_bandwidth(train, 0.25)
    svm = train_ocsvm(train, h, nu=0.5, seed=0)
    det = train_detector(train, DetectorConfig(kind="kjl", m=100, d=5,
                                               h_quantile=0.25, k=AUTO, seed=0))
    assert det.gmm.k <= 20
    assert svm.n_sv >= 2000

    t_svm = _timed_scoring(lambda X: score(svm, X), X_test)
    t_det = _timed_scoring(lambda X: detect_scores(det, X), X_test)
    speedup = t_svm / t_det

    svm_bytes = len(serialize(svm))
    det_bytes = len(serialize(det))
    reduction = svm_bytes / det_bytes
    elapsed = time.perf_counter() - t0
    assert speedup >= 5.0
    assert reduction >= 10.0
    assert elapsed < 600.0
    report(8, f"test-time speedup {speedup:.1f}x >= 5x; space reduction "
              f"{reduction:.1f}x >= 10x (svm {svm_bytes}B vs detector {det_bytes}B); "
              f"n_sv={svm.n_sv} >= 2000; {elapsed:.0f}s")


def test_criterion_9_scoring_cost_scaling():
    normal, novel = _blob_pools(5600 + 2500, 600, seed=31)
    rng = np.random.default_rng(1)
    X_test = np.vstack([normal[:300], novel[:300]])
    rest = normal[600:]
    svms, dets = {}, {}
    for n_train in (2500, 5000):
        train = rest[rng.choice(len(rest), n_train, replace=False)]
        h = quantile_bandwidth(train, 0.25)
        svms[n_train] = train_ocsvm(train, h, nu=0.5, seed=0)
        dets[n_train] = train_detector(train, DetectorConfig(kind="kjl", m=100, d=5,
                                                             h_quantile=0.25, k=AUTO, seed=0))

    svm_growth = _paired_time_ratio(lambda X: score(svms[2500], X),
                                    lambda X: score(svms[5000], X), X_test, rounds=7)
    det_variation = abs(_paired_time_ratio(lambda X: detect_scores(dets[2500], X),
                                           lambda X: detect_scores(dets[5000], X),
                                           X_test) - 1.0)
    assert svm_growth >= 1.5
    assert det_variation < 0.2
    report(9, f"OCSVM scoring grew {svm_growth:.2f}x >= 1.5x when n doubled; "
              f"detector scoring varied {det_variation:.1%} < 20%")


def _random_detector_model(rng):
    m = int(rng.integers(1, 30))
    d = int(rng.integers(1, min(m, 6) + 1))
    D = int(rng.integers(1, 8))
    k = int(rng.integers(1, 6))
    emb = EmbeddingModel("kjl" if rng.integers(2) else "nystrom",
                         rng.standard_normal((m, D)),
                         rng.standard_normal((d, m)),
                         float(rng.uniform(0.1, 5.0)))
    A = rng.standard_normal((k, d, d))
    mix = GmmModel(rng.dirichlet(np.ones(k)), rng.standard_normal((k, d)),
                   A @ A.transpose(0, 2, 1) + np.eye(d))
    threshold = float(rng.standard_normal()) if rng.integers(2) else None
    return DetectorModel(emb, mix, threshold)


def test_criterion_10_serialization():
    rng = np.random.default_rng(42)
    for _ in range(50):
        model = _random_detector_model(rng)
        data = serialize(model)
        assert serialize(deserialize(data)) == data
        emb, mix = model.embedding, model.gmm
        expected = 22 + 8 * (emb.m * (emb.input_dim + emb.d) + 1
                             + mix.k * (1 + mix.d + mix.d**2)
                             + (1 if model.threshold is not None else 0))
        assert len(data) == expected
    for _ in range(50):
        n_sv = int(rng.integers(1, 40))
        D = int(rng.integers(1, 8))
        alpha = rng.uniform(0.01, 1.0, n_sv)
        model = OcsvmModel(rng.standard_normal((n_sv, D)), alpha / alpha.sum(),
                           float(rng.standard_normal()), float(rng.uniform(0.1, 3)),
                           nu=0.5)
        data = serialize(model)
        assert serialize(deserialize(data)) == data
        assert len(data) == 13 + 8 * (n_sv * (D + 1) + 2)
    report(10, "100 random models round-trip bit-exactly; sizes match field sums")
