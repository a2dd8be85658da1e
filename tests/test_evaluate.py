import json
import re

import numpy as np
import pytest

from ocsketch.detector import serialize
from ocsketch.evaluate import (
    H_QUANTILE_GRID,
    K_GRID,
    MINIMAL_TUNING,
    NO_TUNING,
    EvalReport,
    ExperimentProtocol,
    MethodConfig,
    auc,
    emit_report,
    run_experiment,
    score_method,
    synth_blobs,
    synth_cluster_in_cluster,
    train_method,
    tune_minimal,
    tuning_grid,
)

from oracles import pairwise_auc, quantile_bandwidth_one


def test_auc_perfect_separation():
    assert auc([3, 2], [1, 0]) == 1.0


def test_auc_all_ties():
    assert auc([1], [1]) == 0.5


def test_auc_half_by_hand():
    assert auc([2, 0], [1, 1]) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for seed in range(30):
        r = np.random.default_rng(seed)
        # quantize to force ties
        sn = np.round(r.standard_normal(r.integers(1, 40)), 1)
        sv = np.round(r.standard_normal(r.integers(1, 40)), 1)
        assert auc(sn, sv) == pairwise_auc(sn, sv)


def test_auc_complement_without_ties():
    rng = np.random.default_rng(1)
    sn = rng.standard_normal(25)
    sv = rng.standard_normal(30)
    assert auc(sn, sv) == pytest.approx(1 - auc(sv, sn), abs=1e-12)


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(2)
    sn = rng.standard_normal(20)
    sv = rng.standard_normal(20)
    base = auc(sn, sv)
    for f in (np.exp, np.tanh, lambda s: 3 * s + 7):
        assert auc(f(sn), f(sv)) == base


def test_auc_empty_side():
    with pytest.raises(ValueError):
        auc([], [1.0])


def test_default_configs():
    assert MethodConfig(method="kjl").h_quantile == 0.25
    assert MethodConfig(method="kjl").k == "auto"
    assert MethodConfig(method="ocsvm").nu == 0.5
    cfg = MethodConfig(method="nystrom")
    assert (cfg.m, cfg.d) == (100, 5)
    with pytest.raises(ValueError, match="unknown method 'svdd'"):
        MethodConfig(method="svdd")
    X, _ = synth_blobs(40, 1, 2, 1.0, seed=0)
    with pytest.raises(ValueError, match="unknown method 'svdd'"):
        run_experiment(X, X, ["kjl-qs", "svdd"])


@pytest.mark.parametrize("field, value, least", [
    ("n_train", 1, 2), ("n_test_per_class", 0, 1), ("n_val", -2, 0), ("reps", 0, 1),
    ("timing_repeats", 0, 1), ("reps", 1.5, 1), ("n_train", "300", 2),
])
def test_protocol_rejects_settings_it_cannot_run(field, value, least):
    with pytest.raises(ValueError, match=re.escape(
            f"{field} must be an integer of at least {least}, got {value!r}")):
        ExperimentProtocol(**{field: value})


@pytest.mark.parametrize("seed", ["x", -1, 1.5])
def test_protocol_rejects_a_seed_rng_cannot_take(seed):
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be None or a non-negative integer, got {seed!r}")):
        ExperimentProtocol(seed=seed)


def test_grid_sizes():
    assert len(tuning_grid("kjl-qs")) == 10
    assert len(tuning_grid("ocsvm")) == 10
    assert len(tuning_grid("kjl")) == 100
    assert H_QUANTILE_GRID == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    assert K_GRID == (1, 4, 6, 8, 10, 12, 14, 16, 18, 20)


def test_tune_minimal_single_point_grid():
    X, y = synth_cluster_in_cluster(900, seed=3)
    grid = [MethodConfig(method="kjl-qs", h_quantile=0.5)]
    best = tune_minimal(X[y == 0][:300], X[y == 0][300:360], X[y == 1][:60],
                        "kjl-qs", grid=grid, seed=0)
    assert best is grid[0]


def test_tune_minimal_matches_exhaustive_re_evaluation():
    X, y = synth_cluster_in_cluster(1200, seed=4)
    train = X[y == 0][:400]
    vn, vv = X[y == 0][400:470], X[y == 1][:70]
    grid = [MethodConfig(method="kjl-qs", h_quantile=q) for q in (0.1, 0.5, 0.9)]
    best = tune_minimal(train, vn, vv, "kjl-qs", grid=grid, seed=5)
    scores = []
    for cfg in grid:
        m = train_method(train, cfg, seed=5)
        scores.append(auc(score_method(m, vn), score_method(m, vv)))
    assert best.h_quantile == grid[int(np.argmax(scores))].h_quantile


@pytest.mark.parametrize("method", ["ocsvm", "kjl-qs", "nystrom", "nystrom-qs"])
def test_tuning_bandwidths_train_the_models_of_per_config_bandwidths(method):
    X, y = synth_cluster_in_cluster(700, seed=8)
    train, vn, vv = X[y == 0][:200], X[y == 0][200:260], X[y == 1][:60]
    grid = [cfg for cfg in tuning_grid(method) if cfg.k in (1, 4, "auto")][::3]
    best, best_auc = None, -1.0
    for cfg in grid:
        h = quantile_bandwidth_one(train, cfg.h_quantile)
        model = train_method(train, cfg, seed=2, h=h)
        assert serialize(model) == serialize(train_method(train, cfg, seed=2))
        a = auc(score_method(model, vn), score_method(model, vv))
        if a > best_auc:
            best, best_auc = cfg, a
    assert tune_minimal(train, vn, vv, method, grid=grid, seed=2) is best


def small_pools(seed=6):
    X, y = synth_cluster_in_cluster(2600, seed=seed)
    return X[y == 0], X[y == 1]


SMALL_PROTO = ExperimentProtocol(n_train=400, n_test_per_class=100, n_val=60,
                                 reps=2, timing_repeats=2, seed=9)


def test_run_experiment_reproducible():
    normal, novel = small_pools()
    a = run_experiment(normal, novel, ["ocsvm", "kjl-qs"], SMALL_PROTO, NO_TUNING)
    b = run_experiment(normal, novel, ["ocsvm", "kjl-qs"], SMALL_PROTO, NO_TUNING)
    assert a.per_rep["ocsvm"]["auc"] == b.per_rep["ocsvm"]["auc"]
    assert a.per_rep["kjl-qs"]["model_bytes"] == b.per_rep["kjl-qs"]["model_bytes"]


def test_run_experiment_self_ratio():
    normal, novel = small_pools(seed=7)
    rep = run_experiment(normal, novel, ["ocsvm"], SMALL_PROTO, NO_TUNING)
    assert rep.ratios == {}
    assert len(rep.per_rep["ocsvm"]["auc"]) == 2
    # single-rep, single-timing run has zero stds
    proto1 = ExperimentProtocol(n_train=300, n_test_per_class=80, n_val=60,
                                reps=1, timing_repeats=1, seed=1)
    rep1 = run_experiment(normal, novel, ["ocsvm"], proto1, NO_TUNING)
    assert rep1.summary["ocsvm"]["auc"]["std"] == 0.0


def test_run_experiment_self_ratios_center_on_one():
    # baseline compared against itself: per-rep values over their own mean
    normal, novel = small_pools(seed=12)
    rep = run_experiment(normal, novel, ["ocsvm"], SMALL_PROTO, NO_TUNING)
    for metric in ("auc", "train_ms_per100", "model_bytes"):
        vals = np.asarray(rep.per_rep["ocsvm"][metric], dtype=float)
        ratios = vals / vals.mean()
        assert ratios.mean() == pytest.approx(1.0, abs=1e-12)


def test_run_experiment_ratio_definition():
    normal, novel = small_pools(seed=8)
    rep = run_experiment(normal, novel, ["ocsvm", "kjl-qs"], SMALL_PROTO, NO_TUNING)
    base = np.mean(rep.per_rep["ocsvm"]["auc"])
    expected = [a / base for a in rep.per_rep["kjl-qs"]["auc"]]
    assert rep.ratios["kjl-qs"]["auc_retained"]["per_rep"] == pytest.approx(expected)


def test_run_experiment_tuned_scenario():
    normal, novel = small_pools(seed=10)
    proto = ExperimentProtocol(n_train=300, n_test_per_class=80, n_val=60,
                               reps=1, timing_repeats=1, seed=3)
    grid_methods = ["ocsvm", "kjl-qs"]
    rep = run_experiment(normal, novel, grid_methods, proto, MINIMAL_TUNING)
    # tuning on this geometry finds a separating bandwidth
    assert rep.per_rep["ocsvm"]["auc"][0] > 0.95
    assert rep.per_rep["kjl-qs"]["auc"][0] > 0.9
    assert rep.per_rep["kjl-qs"]["h_quantile"][0] in H_QUANTILE_GRID


def test_tuned_scenario_needs_a_validation_row_per_class():
    normal, novel = small_pools(seed=10)
    proto = ExperimentProtocol(n_train=300, n_test_per_class=80, n_val=1,
                               reps=1, timing_repeats=1, seed=3)
    with pytest.raises(ValueError, match="n_val must be at least 2 under minimal_tuning"):
        run_experiment(normal, novel, ["kjl-qs"], proto, MINIMAL_TUNING)


def test_run_experiment_pool_too_small():
    normal, novel = small_pools(seed=11)
    with pytest.raises(ValueError):
        run_experiment(normal[:100], novel, ["ocsvm"], SMALL_PROTO, NO_TUNING)


def test_synth_cluster_in_cluster_geometry():
    X, y = synth_cluster_in_cluster(5000, seed=12)
    assert X.shape == (5000, 2)
    assert np.sum(y == 0) == 2500 and np.sum(y == 1) == 2500
    radii_normal = np.linalg.norm(X[y == 0], axis=1)
    radii_novel = np.linalg.norm(X[y == 1], axis=1)
    assert np.mean((radii_normal > 1.8) & (radii_normal < 4.2)) >= 0.99
    assert np.mean(radii_novel < 1.8) >= 0.99
    a = synth_cluster_in_cluster(500, seed=1)[0]
    b = synth_cluster_in_cluster(500, seed=1)[0]
    assert np.array_equal(a, b)


def test_synth_blobs_properties():
    X, y = synth_blobs(600, 3, 4, 9.0, seed=13)
    assert X.shape == (600, 4)
    assert [np.sum(y == i) for i in range(3)] == [200, 200, 200]
    centers = np.array([X[y == i].mean(axis=0) for i in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(centers[i] - centers[j]) > 9.0 - 1.0
    X1, y1 = synth_blobs(100, 1, 2, 5.0, seed=14)
    assert np.all(y1 == 0)
    assert np.array_equal(synth_blobs(100, 2, 2, 5.0, seed=2)[0],
                          synth_blobs(100, 2, 2, 5.0, seed=2)[0])


def test_synth_blobs_infeasible_separation():
    # a box smaller than the separation cannot hold two centers
    with pytest.raises(RuntimeError):
        synth_blobs(50, 3, 2, 10.0, seed=0, half_box=1.0)


FIXTURE = EvalReport(
    scenario="no_tuning",
    methods=["ocsvm", "kjl-qs"],
    protocol={"n_train": 100, "seed": 0},
    per_rep={
        "ocsvm": {"auc": [0.9, 1.0], "train_ms_per100": [10.0, 12.0],
                  "test_ms_per100": [5.0, 5.5], "model_bytes": [40000, 40000]},
        "kjl-qs": {"auc": [0.95, 0.95], "train_ms_per100": [8.0, 9.0],
                   "test_ms_per100": [0.5, 0.5], "model_bytes": [2000, 2000]},
    },
    summary={
        "ocsvm": {"auc": {"mean": 0.95, "std": 0.05},
                  "train_ms_per100": {"mean": 11.0, "std": 1.0},
                  "test_ms_per100": {"mean": 5.25, "std": 0.25},
                  "model_bytes": {"mean": 40000.0, "std": 0.0}},
        "kjl-qs": {"auc": {"mean": 0.95, "std": 0.0},
                   "train_ms_per100": {"mean": 8.5, "std": 0.5},
                   "test_ms_per100": {"mean": 0.5, "std": 0.0},
                   "model_bytes": {"mean": 2000.0, "std": 0.0}},
    },
    ratios={
        "kjl-qs": {
            "auc_retained": {"mean": 1.0, "std": 0.0, "per_rep": [1.0, 1.0]},
            "train_speedup": {"mean": 1.29, "std": 0.07, "per_rep": [1.375, 1.222]},
            "test_speedup": {"mean": 10.5, "std": 0.0, "per_rep": [10.5, 10.5]},
            "space_reduction": {"mean": 20.0, "std": 0.0, "per_rep": [20.0, 20.0]},
        }
    },
)

GOLDEN_MARKDOWN = """## Benchmark (no_tuning)

| method | AUC | train ms/100 | test ms/100 | size kB | AUC retained | train speedup | test speedup | space reduction |
|---|---|---|---|---|---|---|---|---|
| ocsvm | 0.95 ± 0.05 | 11.00 ± 1.00 | 5.25 ± 0.25 | 40.00 ± 0.00 | - | - | - | - |
| kjl-qs | 0.95 ± 0.00 | 8.50 ± 0.50 | 0.50 ± 0.00 | 2.00 ± 0.00 | 1.00 ± 0.00 | 1.29 ± 0.07 | 10.50 ± 0.00 | 20.00 ± 0.00 |
"""


def test_emit_report_markdown_golden():
    assert emit_report(FIXTURE, "markdown") == GOLDEN_MARKDOWN


def test_emit_report_json_roundtrip():
    data = json.loads(emit_report(FIXTURE, "json"))
    assert data["summary"]["kjl-qs"]["auc"]["mean"] == 0.95
    assert data["ratios"]["kjl-qs"]["space_reduction"]["per_rep"] == [20.0, 20.0]


def test_emit_report_empty_methods():
    empty = EvalReport(scenario="no_tuning", methods=[], protocol={},
                       per_rep={}, summary={}, ratios={})
    out = emit_report(empty, "markdown")
    assert out.count("\n") == 4  # header lines only
    with pytest.raises(ValueError):
        emit_report(empty, "yaml")
