"""Benchmark harness: AUC, tuning scenarios, timing/space protocol, synthetic data.

Mirrors the evaluation protocol used for the detectors: one shared test set,
repeated train (and optional validation) draws, timed training, serialized
model sizes, and repeated batch scoring on a monotonic clock. Ratios against
the OCSVM baseline are per-rep values divided by the baseline mean.
"""

import dataclasses
import json
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .detector import DetectorConfig, DetectorModel, detect_scores, serialize, train_detector
from .embedding import KJL, NYSTROM
from .kernel import quantile_bandwidth, quantile_bandwidths
from .ocsvm import OcsvmModel, train_ocsvm
from .ocsvm import score as ocsvm_score

MINIMAL_TUNING = "minimal_tuning"
NO_TUNING = "no_tuning"

H_QUANTILE_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
K_GRID = (1, 4, 6, 8, 10, 12, 14, 16, 18, 20)

OCSVM = "ocsvm"
METHODS = (OCSVM, "kjl", "nystrom", "kjl-qs", "nystrom-qs")


@dataclass
class ExperimentProtocol:
    n_train: int = 5000
    n_test_per_class: int = 300
    n_val: int = 150  # split evenly between normal and novel
    reps: int = 5
    timing_repeats: int = 20
    seed: int | None = None

    def __post_init__(self):
        for name, least in (("n_train", 2), ("n_test_per_class", 1), ("n_val", 0),
                            ("reps", 1), ("timing_repeats", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if self.seed is not None and not (isinstance(self.seed, numbers.Integral)
                                          and self.seed >= 0):
            raise ValueError(f"seed must be None or a non-negative integer, got {self.seed!r}")


@dataclass
class MethodConfig:
    """One method's settings; the defaults are its no-tuning configuration."""

    method: str
    h_quantile: float = DetectorConfig.h_quantile
    k: int | str = DetectorConfig.k
    nu: float = 0.5  # ocsvm only
    m: int = DetectorConfig.m
    d: int = DetectorConfig.d

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class EvalReport:
    scenario: str
    methods: list
    protocol: dict
    per_rep: dict  # method -> metric -> list over reps
    summary: dict  # method -> metric -> {"mean": .., "std": ..}
    ratios: dict = field(default_factory=dict)  # vs the OCSVM mean


def auc(scores_normal, scores_novel):
    """Area under the ROC curve as an exact rank statistic.

    Fraction of (normal, novel) pairs where the normal point scores higher,
    ties counted half; integer pair counting, so it matches the O(n^2)
    pairwise definition exactly.
    """
    sn = np.asarray(scores_normal, dtype=float)
    sv = np.sort(np.asarray(scores_novel, dtype=float))
    if sn.size == 0 or sv.size == 0:
        raise ValueError("auc needs scores on both sides")
    below = np.searchsorted(sv, sn, side="left")
    below_or_equal = np.searchsorted(sv, sn, side="right")
    wins_doubled = int(np.sum(below + below_or_equal))
    return wins_doubled / (2 * sn.size * sv.size)


def tuning_grid(method):
    """Candidate configs for validation tuning, in tie-break order.

    Bandwidth quantiles ascending; for the fixed-k variants the k grid nests
    inside, so the first argmax is the smallest (h, k).
    """
    if method == OCSVM or method.endswith("-qs"):
        return [MethodConfig(method=method, h_quantile=q) for q in H_QUANTILE_GRID]
    return [
        MethodConfig(method=method, h_quantile=q, k=k)
        for q in H_QUANTILE_GRID
        for k in K_GRID
    ]


def train_method(X_train, cfg, seed=None, h=None):
    """Train one method on X_train; returns the fitted model.

    h, when given, is the bandwidth at cfg.h_quantile, already resolved.
    """
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    if cfg.method == OCSVM:
        if h is None:
            h = quantile_bandwidth(X_train, cfg.h_quantile)
        return train_ocsvm(X_train, h, nu=cfg.nu, seed=seed)
    kind = NYSTROM if cfg.method.startswith("nystrom") else KJL
    dc = DetectorConfig(kind=kind, m=cfg.m, d=cfg.d, h=h, h_quantile=cfg.h_quantile,
                        k=cfg.k, seed=seed)
    return train_detector(X_train, dc)


def score_method(model, X):
    """Batch scores for either model kind; higher = more normal."""
    if isinstance(model, OcsvmModel):
        return ocsvm_score(model, X)
    return detect_scores(model, X)


def tune_minimal(train, val_normal, val_novel, method, grid=None, seed=None):
    """Pick the config maximizing validation AUC.

    Ties go to the earlier grid entry (smaller h-quantile, then smaller k).
    Every entry's bandwidth comes from one set of pairwise distances.
    """
    if grid is None:
        grid = tuning_grid(method)
    if not grid:
        raise ValueError("empty tuning grid")
    train = np.atleast_2d(np.asarray(train, dtype=float))
    bandwidths = quantile_bandwidths(train, [cfg.h_quantile for cfg in grid])
    best_cfg, best_auc = None, -1.0
    for cfg, h in zip(grid, bandwidths):
        model = train_method(train, cfg, seed=seed, h=h)
        a = auc(score_method(model, val_normal), score_method(model, val_novel))
        if a > best_auc:
            best_cfg, best_auc = cfg, a
    return best_cfg


def _draw(rng, available, count):
    idx = rng.choice(len(available), size=count, replace=False)
    chosen = available[idx]
    rest = np.delete(available, idx)
    return chosen, rest


def run_experiment(normal_pool, novel_pool, methods, protocol=None,
                   scenario=NO_TUNING):
    """Full benchmark: shared test set, repeated train draws, timed scoring.

    Per rep and method: (tune if requested,) train with a wall-clock timer,
    serialize for the exact byte count, score the test set timing_repeats
    times on a monotonic clock, and compute AUC. Ratios against OCSVM use
    per-rep values over the baseline mean.
    """
    normal_pool = np.atleast_2d(np.asarray(normal_pool, dtype=float))
    novel_pool = np.atleast_2d(np.asarray(novel_pool, dtype=float))
    if protocol is None:
        protocol = ExperimentProtocol()
    if scenario not in (MINIMAL_TUNING, NO_TUNING):
        raise ValueError(f"unknown scenario {scenario!r}")
    if scenario == MINIMAL_TUNING and protocol.n_val < 2:
        raise ValueError(f"n_val must be at least 2 under {MINIMAL_TUNING}, one validation "
                         f"row per class, got {protocol.n_val}")
    defaults = {m: MethodConfig(method=m) for m in methods}  # rejects unknown methods

    p = protocol
    val_half = p.n_val // 2
    need_normal = p.n_test_per_class + p.n_train + (val_half if scenario == MINIMAL_TUNING else 0)
    need_novel = p.n_test_per_class + (p.n_val - val_half if scenario == MINIMAL_TUNING else 0)
    if len(normal_pool) < need_normal:
        raise ValueError(f"normal pool too small: {len(normal_pool)} < {need_normal}")
    if len(novel_pool) < need_novel:
        raise ValueError(f"novel pool too small: {len(novel_pool)} < {need_novel}")

    rng = np.random.default_rng(p.seed)
    test_n_idx, rest_normal = _draw(rng, np.arange(len(normal_pool)), p.n_test_per_class)
    test_v_idx, rest_novel = _draw(rng, np.arange(len(novel_pool)), p.n_test_per_class)
    test_normal = normal_pool[test_n_idx]
    test_novel = novel_pool[test_v_idx]
    X_test = np.vstack([test_normal, test_novel])
    n_test = len(X_test)

    per_rep = {m: {"auc": [], "train_ms_per100": [], "test_ms_per100": [],
                   "model_bytes": [], "h_quantile": [], "k": []}
               for m in methods}

    for _rep in range(p.reps):
        train_idx, avail_normal = _draw(rng, rest_normal, p.n_train)
        X_train = normal_pool[train_idx]
        if scenario == MINIMAL_TUNING:
            vn_idx, _ = _draw(rng, avail_normal, val_half)
            vv_idx, _ = _draw(rng, rest_novel, p.n_val - val_half)
            val_normal = normal_pool[vn_idx]
            val_novel = novel_pool[vv_idx]
        seed = int(rng.integers(2**31))

        for method in methods:
            if scenario == MINIMAL_TUNING:
                cfg = tune_minimal(X_train, val_normal, val_novel, method, seed=seed)
            else:
                cfg = defaults[method]

            t0 = time.perf_counter()
            model = train_method(X_train, cfg, seed=seed)
            train_seconds = time.perf_counter() - t0

            nbytes = len(serialize(model))

            t0 = time.perf_counter()
            for _ in range(p.timing_repeats):
                scores = score_method(model, X_test)
            test_seconds = (time.perf_counter() - t0) / p.timing_repeats

            rec = per_rep[method]
            rec["auc"].append(auc(scores[: len(test_normal)], scores[len(test_normal):]))
            rec["train_ms_per100"].append(train_seconds * 1000 / (p.n_train / 100))
            rec["test_ms_per100"].append(test_seconds * 1000 / (n_test / 100))
            rec["model_bytes"].append(nbytes)
            rec["h_quantile"].append(cfg.h_quantile)
            rec["k"].append(model.gmm.k if isinstance(model, DetectorModel) else None)

    summary = {
        m: {metric: _mean_std(vals)
            for metric, vals in per_rep[m].items()
            if metric in ("auc", "train_ms_per100", "test_ms_per100", "model_bytes")}
        for m in methods
    }
    ratios = {}
    if OCSVM in methods:
        base = {metric: float(np.mean(per_rep[OCSVM][metric]))
                for metric in ("auc", "train_ms_per100", "test_ms_per100", "model_bytes")}
        for m in methods:
            if m == OCSVM:
                continue
            rec = per_rep[m]
            ratios[m] = {
                "auc_retained": _ratio_stats([a / base["auc"] for a in rec["auc"]]),
                "train_speedup": _ratio_stats(
                    [base["train_ms_per100"] / t for t in rec["train_ms_per100"]]),
                "test_speedup": _ratio_stats(
                    [base["test_ms_per100"] / t for t in rec["test_ms_per100"]]),
                "space_reduction": _ratio_stats(
                    [base["model_bytes"] / b for b in rec["model_bytes"]]),
            }

    return EvalReport(
        scenario=scenario,
        methods=list(methods),
        protocol=dataclasses.asdict(p),
        per_rep=per_rep,
        summary=summary,
        ratios=ratios,
    )


def _mean_std(vals):
    arr = np.asarray(vals, dtype=float)
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def _ratio_stats(vals):
    return {**_mean_std(vals), "per_rep": [float(v) for v in vals]}


def synth_cluster_in_cluster(n, seed=None):
    """Ring of normal data around a central novel blob, in 2-D.

    Normal: radius 3 with sigma 0.3 radial noise, uniform angle. Novel:
    isotropic Gaussian at the origin, sigma 0.5. Returns (X, y) with y=0
    normal / y=1 novel, split 50/50.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    n_novel = n // 2
    n_normal = n - n_novel
    angle = rng.uniform(0, 2 * np.pi, n_normal)
    radius = 3.0 + 0.3 * rng.standard_normal(n_normal)
    ring = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    blob = 0.5 * rng.standard_normal((n_novel, 2))
    X = np.vstack([ring, blob])
    y = np.concatenate([np.zeros(n_normal, dtype=int), np.ones(n_novel, dtype=int)])
    return X, y


def synth_blobs(n, k, d, separation, seed=None, half_box=None):
    """k equal-size isotropic Gaussian blobs with centers >= separation apart.

    Centers are rejection-sampled from [-half_box, half_box]^d (the default
    box scales with k so placement stays easy). Returns (X, y) with y the
    blob index. Raises after bounded retries if the centers cannot be placed.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    rng = np.random.default_rng(seed)
    if half_box is None:
        half_box = separation * max(1.0, k ** (1.0 / d))
    centers = []
    for _ in range(k):
        for _attempt in range(1000):
            c = rng.uniform(-half_box, half_box, size=d)
            if all(np.linalg.norm(c - prev) >= separation for prev in centers):
                centers.append(c)
                break
        else:
            raise RuntimeError(
                f"could not place {k} centers {separation} apart after 1000 tries"
            )
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    parts, labels = [], []
    for i, (c, s) in enumerate(zip(centers, sizes)):
        parts.append(c + rng.standard_normal((s, d)))
        labels.append(np.full(s, i, dtype=int))
    return np.vstack(parts), np.concatenate(labels)


def emit_report(report, fmt="json"):
    """Render a report as full-precision JSON or a mean +/- std markdown table."""
    if fmt == "json":
        return json.dumps(dataclasses.asdict(report), indent=2) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown report format {fmt!r}")

    lines = [
        f"## Benchmark ({report.scenario})",
        "",
        "| method | AUC | train ms/100 | test ms/100 | size kB |"
        " AUC retained | train speedup | test speedup | space reduction |",
        "|---|---|---|---|---|---|---|---|---|",
    ]

    def ms(stats):
        return f"{stats['mean']:.2f} ± {stats['std']:.2f}"

    for m in report.methods:
        s = report.summary[m]
        size_kb = {k: v / 1000 for k, v in s["model_bytes"].items()}
        row = [m, ms(s["auc"]), ms(s["train_ms_per100"]), ms(s["test_ms_per100"]),
               ms(size_kb)]
        if m in report.ratios:
            r = report.ratios[m]
            row += [ms(r["auc_retained"]), ms(r["train_speedup"]),
                    ms(r["test_speedup"]), ms(r["space_reduction"])]
        else:
            row += ["-", "-", "-", "-"]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"
