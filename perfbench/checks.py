"""Correctness checks on the program's outputs, independent of its code.

Each check either recomputes what it verifies with plain numpy/scipy (never
through an ocsketch function) or tests a property the method must have. A
check raises CheckError with a message naming what disagreed; the runner
counts the operation whose output failed as failed. Tolerances are set from
float64 rounding of the recomputation, far below the perturbations the
self-test applies.
"""

import numpy as np
from scipy.special import logsumexp

# relative agreement between two float64 evaluations of the same formula
# along different summation orders
SCORE_RTOL = 1e-9
# an EM step may lose this much mean log-likelihood to rounding
EM_DROP_TOL = 1e-9
AUC_RETAINED = 0.95


class CheckError(Exception):
    """An output of the program disagrees with its independent recomputation."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(actual, expected, what, rtol=SCORE_RTOL):
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    _require(actual.shape == expected.shape,
             f"{what}: shape {actual.shape} != {expected.shape}")
    err = np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))
    worst = float(err.max()) if err.size else 0.0
    _require(np.isfinite(worst) and worst <= rtol,
             f"{what}: worst relative error {worst:.3e} > {rtol:.0e}")


def _sq_dists(X, Y, chunk=64):
    """Squared distances by explicit differences, chunked over rows of X."""
    out = np.empty((len(X), len(Y)))
    for s in range(0, len(X), chunk):
        diff = X[s:s + chunk, None, :] - Y[None, :, :]
        out[s:s + chunk] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def reference_scores(model, X):
    """log sum_l pi_l N(P K(x); mu_l, Sigma_l) from the model's arrays."""
    emb, mix = model.embedding, model.gmm
    K = np.exp(-_sq_dists(np.asarray(X, float), emb.landmarks) / emb.h**2)
    Z = K @ emb.P.T
    d = Z.shape[1]
    comp = np.empty((len(Z), len(mix.pi)))
    for l, (mu, sigma) in enumerate(zip(mix.mu, mix.sigma)):
        diff = Z - mu
        maha = np.einsum("ij,ij->i", diff, np.linalg.solve(sigma, diff.T).T)
        _, logdet = np.linalg.slogdet(sigma)
        comp[:, l] = -0.5 * (d * np.log(2 * np.pi) + logdet + maha)
    with np.errstate(divide="ignore"):
        return logsumexp(comp + np.log(mix.pi), axis=1)


def check_scores(model, X, scores):
    """Batch scores equal the mixture log-density recomputed from the arrays."""
    _close(scores, reference_scores(model, X), "detector scores vs recomputation")


def check_single(single, batch_row, index):
    """A single-point score equals its row of the batch scores."""
    _close([single], [batch_row], f"single-point score of row {index} vs batch")


def check_roundtrip(data, X, scores, deserialize, detect_scores):
    """Deserializing the model bytes gives identical scores and identical bytes."""
    try:
        restored = deserialize(data)
    except ValueError as exc:
        raise CheckError(f"model bytes do not load: {exc}") from None
    again = detect_scores(restored, X)
    _require(np.array_equal(again, scores),
             "scores of the deserialized model differ from the original's")


def expected_model_bytes(m, d, D, k, has_threshold):
    """The README's closed form for the detector file size."""
    return 22 + 8 * (m * (D + d) + 1 + k * (1 + d + d * d) + (1 if has_threshold else 0))


def check_model_bytes(model, nbytes):
    emb, mix = model.embedding, model.gmm
    want = expected_model_bytes(emb.landmarks.shape[0], emb.P.shape[0],
                                emb.landmarks.shape[1], len(mix.pi),
                                model.threshold is not None)
    _require(nbytes == want, f"model is {nbytes} bytes, closed form gives {want}")


def pairwise_auc(s_normal, s_novel):
    """(normal, novel) pairs where normal scores higher, ties half, by counting."""
    sn = np.asarray(s_normal, float)[:, None]
    sv = np.asarray(s_novel, float)[None, :]
    doubled = 2 * int(np.sum(sn > sv)) + int(np.sum(sn == sv))
    return doubled / (2 * sn.size * sv.size)


def check_auc(s_normal, s_novel, value):
    want = pairwise_auc(s_normal, s_novel)
    _require(value == want, f"AUC {value!r} != pairwise count {want!r}")


def check_auc_retained(detector_auc, ocsvm_auc):
    _require(detector_auc >= AUC_RETAINED * ocsvm_auc,
             f"detector AUC {detector_auc:.4f} < {AUC_RETAINED} x OCSVM AUC {ocsvm_auc:.4f}")


def check_em_history(history):
    """EM never lowers the mean log-likelihood (beyond rounding)."""
    h = np.asarray(history, float)
    _require(h.size >= 1 and np.all(np.isfinite(h)), "empty or non-finite EM history")
    drops = h[:-1] - h[1:]
    worst = float(drops.max()) if drops.size else 0.0
    _require(worst <= EM_DROP_TOL, f"EM log-likelihood dropped by {worst:.3e}")


def reference_ocsvm_scores(sv, alpha, rho, h, X):
    return np.exp(-_sq_dists(np.asarray(X, float), sv) / h**2) @ alpha - rho


def check_ocsvm(sv, alpha, rho, h, n_train, nu, X, scores):
    """Dual feasibility (sum alpha = 1, 0 < alpha <= 1/(nu n)) and the
    decision function as the support-vector sum."""
    alpha = np.asarray(alpha, float)
    C = 1.0 / (nu * n_train)
    _require(abs(alpha.sum() - 1.0) <= 1e-8, f"sum alpha = {float(alpha.sum())!r} != 1")
    _require(np.all(alpha > 0), "a stored support vector has alpha <= 0")
    _require(np.all(alpha <= C * (1 + 1e-12)),
             f"max alpha {float(alpha.max())!r} exceeds the box 1/(nu n) = {C!r}")
    _close(scores, reference_ocsvm_scores(sv, alpha, rho, h, X),
           "OCSVM scores vs support-vector sum")


def check_threshold(threshold, calibration_scores, target):
    """The threshold flags at most the target fraction of its calibration data."""
    flagged = float(np.mean(np.asarray(calibration_scores) < threshold))
    _require(flagged <= target,
             f"threshold flags {flagged:.4f} of calibration rows > {target}")


def check_flows(expected, flows):
    """assemble_flows output against the capture generator's packet table."""
    ids, counts, sums, durations = expected
    got_ids = [f.flow_id() for f in flows]
    _require(len(got_ids) == len(ids), f"{len(got_ids)} flows, generator made {len(ids)}")
    _require(got_ids == ids, "flow ids or their order differ from the generator's")
    got = np.array([(len(f.packets), sum(p.size_bytes for p in f.packets),
                     f.packets[-1].timestamp_us - f.packets[0].timestamp_us)
                    for f in flows], dtype=np.int64).reshape(-1, 3)
    for col, want, what in ((0, counts, "packet count"), (1, sums, "byte sum"),
                            (2, durations, "duration")):
        bad = np.flatnonzero(got[:, col] != want)
        _require(bad.size == 0, f"{what} differs on {bad.size} flows, "
                                f"first {ids[bad[0]] if bad.size else ''}")


def check_features(ids, matrices):
    """Every feature matrix has one finite row per flow, in flow order."""
    for fm in matrices:
        _require(list(fm.flow_ids) == ids, f"{fm.feature_kind}: flow ids differ")
        _require(fm.values.shape[0] == len(ids) and np.all(np.isfinite(fm.values)),
                 f"{fm.feature_kind}: wrong row count or non-finite values")


def check_report(report, D, m=100, d=5):
    """The protocol's report: AUCs in [0, 1], each detector's recorded size
    equal to the closed form at its k, and each detector retaining the
    OCSVM's AUC."""
    for method in report.methods:
        rec = report.per_rep[method]
        _require(all(0.0 <= a <= 1.0 for a in rec["auc"]), f"{method}: AUC outside [0, 1]")
        if method == "ocsvm":
            continue
        for k, nbytes in zip(rec["k"], rec["model_bytes"]):
            want = expected_model_bytes(m, d, D, k, False)
            _require(nbytes == want, f"{method}: {nbytes} bytes, closed form gives {want}")
        retained = report.ratios[method]["auc_retained"]["mean"]
        _require(retained >= AUC_RETAINED,
                 f"{method}: retains {retained:.4f} of the OCSVM's AUC < {AUC_RETAINED}")
