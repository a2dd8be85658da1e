"""Show that every correctness check accepts clean output and rejects a
deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Builds a small instance of each kind of output (a detector on 3 blobs, an
OCSVM, a protocol report, a capture's flows and features), runs each check
on it as produced, then on copies with one defect each: scores off by 1e-6,
a flipped bit in the model bytes, a byte count off by 8, a dropped flow, and
so on. Prints one line per case and exits non-zero if any check accepts a
corruption or rejects the clean output.
"""

import copy
import dataclasses
import sys

import run  # noqa: F401  (fixes the BLAS threads and puts src/ on the path)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from capture import flow_table, make_capture  # noqa: E402
from ocsketch import detector, evaluate, kernel, ocsvm  # noqa: E402
from ocsketch import flows as fl  # noqa: E402
from ocsketch import pcap  # noqa: E402


def _bump_last_float(data):
    """Flip the lowest mantissa bit of the last float64 in the model bytes."""
    raw = bytearray(data)
    raw[-8] ^= 1
    return bytes(raw)


def _resize_packet(flows, index, delta):
    flows = list(flows)
    f = flows[index]
    pkts = list(f.packets)
    pkts[0] = dataclasses.replace(pkts[0], size_bytes=pkts[0].size_bytes + delta)
    flows[index] = fl.Flow(f.key, pkts)
    return flows


def _shift_last_packet(flows, index, us):
    flows = list(flows)
    f = flows[index]
    pkts = list(f.packets)
    pkts[-1] = dataclasses.replace(pkts[-1], timestamp_us=pkts[-1].timestamp_us + us)
    flows[index] = fl.Flow(f.key, pkts)
    return flows


def _drop_row(fm, index):
    keep = np.arange(fm.rows) != index
    return fl.FeatureMatrix(fm.values[keep], fm.feature_kind,
                            [f for i, f in enumerate(fm.flow_ids) if i != index])


def _report_with(report, method, key, fn):
    bad = copy.deepcopy(report)
    if key == "auc_retained":
        bad.ratios[method][key]["mean"] = fn(bad.ratios[method][key]["mean"])
    else:
        bad.per_rep[method][key] = [fn(v) for v in bad.per_rep[method][key]]
    return bad


def build():
    """Small real outputs of every kind the benchmark checks."""
    normal, _ = evaluate.synth_blobs(900, 3, 5, 30.0, seed=0)
    novel, _ = evaluate.synth_blobs(300, 3, 5, 30.0, seed=1)
    novel += 60.0
    train, X = normal[:500], np.vstack([normal[500:600], novel[:100]])
    model = detector.train_detector(train, detector.DetectorConfig(kind="kjl", m=50, d=5, seed=0))
    scores = detector.detect_scores(model, X)
    single = detector.detect_score(model, X[7])
    svm = ocsvm.train_ocsvm(train, kernel.quantile_bandwidth(train, 0.25), nu=0.5, seed=0)
    svm_scores = ocsvm.score(svm, X)
    report = evaluate.run_experiment(normal, novel, ["ocsvm", "kjl-qs"],
                                     evaluate.ExperimentProtocol(n_train=400, n_test_per_class=100,
                                                                 reps=1, timing_repeats=1, seed=0))
    cap = make_capture(0, scale=0.05)
    flows = fl.assemble_flows(pcap.parse_pcap(cap.data))
    cut = fl.truncate_flows(flows)
    mats = [fl.iat_size_features(cut), fl.stats_header_features(cut), fl.samp_size_features(cut)]
    return locals()


def cases(o):
    """(check name, clean call, [(corruption, corrupted call), ...])."""
    model, X, scores, svm = o["model"], o["X"], o["scores"], o["svm"]
    data = detector.serialize(model)
    sn, sv = scores[:100], scores[100:]
    a = evaluate.auc(sn, sv)
    history = model.gmm.diagnostics["loglik_history"]
    C = 1.0 / (0.5 * len(o["train"]))
    alpha = svm.alpha
    at_box = int(np.argmax(alpha))
    donor = int(np.argmax(np.where(np.arange(len(alpha)) == at_box, -1, alpha)))
    moved = alpha.copy()
    moved[at_box] += 1e-3 * C
    moved[donor] -= 1e-3 * C
    t = detector.choose_threshold(model, X[:100], 0.05)
    cal = detector.detect_scores(model, X[:100])
    expected = flow_table(o["cap"])
    flows, mats, report = o["flows"], o["mats"], o["report"]
    D = X.shape[1]

    def svm_check(alpha_=alpha, scores_=o["svm_scores"]):
        return checks.check_ocsvm(svm.support_vectors, alpha_, svm.rho, svm.h,
                                  len(o["train"]), 0.5, X, scores_)

    return [
        ("scores recomputed", lambda: checks.check_scores(model, X, scores),
         [("scores off by 1e-6", lambda: checks.check_scores(model, X, scores + 1e-6))]),
        ("single equals batch", lambda: checks.check_single(o["single"], scores[7], 7),
         [("single score off by 1e-6",
           lambda: checks.check_single(o["single"] + 1e-6, scores[7], 7))]),
        ("serialize round trip",
         lambda: checks.check_roundtrip(data, X, scores, detector.deserialize,
                                        detector.detect_scores),
         [("one bit flipped in a covariance",
           lambda: checks.check_roundtrip(_bump_last_float(data), X, scores,
                                          detector.deserialize, detector.detect_scores))]),
        ("model bytes closed form", lambda: checks.check_model_bytes(model, len(data)),
         [("byte count off by 8", lambda: checks.check_model_bytes(model, len(data) + 8))]),
        ("AUC pairwise count", lambda: checks.check_auc(sn, sv, a),
         [("AUC off by one tie", lambda: checks.check_auc(sn, sv, a - 1 / (2 * 100 * 100))),
          ("one score changed", lambda: checks.check_auc(sn, np.r_[sv[:-1], sn.max()], a))]),
        ("AUC retained", lambda: checks.check_auc_retained(a, a),
         [("detector at 0.94 x OCSVM", lambda: checks.check_auc_retained(0.94 * a, a))]),
        ("EM monotone", lambda: checks.check_em_history(history),
         [("log-likelihood drop of 1e-6",
           lambda: checks.check_em_history(history + [history[-1] - 1e-6]))]),
        ("OCSVM dual and scores", svm_check,
         [("sum alpha off by 1%", lambda: svm_check(alpha_=alpha * 1.01)),
          ("alpha above 1/(nu n)", lambda: svm_check(alpha_=moved)),
          ("scores off by 1e-6", lambda: svm_check(scores_=o["svm_scores"] + 1e-6))]),
        ("threshold FPR", lambda: checks.check_threshold(t, cal, 0.05),
         [("threshold at the 10% quantile",
           lambda: checks.check_threshold(np.quantile(cal, 0.1), cal, 0.05))]),
        ("flows vs packet table", lambda: checks.check_flows(expected, flows),
         [("dropped flow", lambda: checks.check_flows(expected, flows[:3] + flows[4:])),
          ("byte count off by 8", lambda: checks.check_flows(expected, _resize_packet(flows, 5, 8))),
          ("duration off by 1 us",
           lambda: checks.check_flows(expected, _shift_last_packet(flows, 5, 1)))]),
        ("features per flow", lambda: checks.check_features(expected[0], mats),
         [("dropped row", lambda: checks.check_features(expected[0],
                                                        [mats[0], _drop_row(mats[1], 2), mats[2]]))]),
        ("protocol report", lambda: checks.check_report(report, D),
         [("detector size off by 8",
           lambda: checks.check_report(_report_with(report, "kjl-qs", "model_bytes",
                                                    lambda v: v + 8), D)),
          ("AUC retained 0.9",
           lambda: checks.check_report(_report_with(report, "kjl-qs", "auc_retained",
                                                    lambda v: 0.9), D))]),
    ]


def main():
    bad = 0
    for name, clean, corruptions in cases(build()):
        try:
            clean()
            print(f"ok    {name}: clean output accepted")
        except checks.CheckError as exc:
            bad += 1
            print(f"FAIL  {name}: clean output rejected: {exc}")
        for what, corrupted in corruptions:
            try:
                corrupted()
                bad += 1
                print(f"FAIL  {name}: {what} accepted")
            except checks.CheckError as exc:
                print(f"ok    {name}: {what} rejected ({exc})")
    print("self-test " + ("passed" if bad == 0 else f"failed: {bad} cases wrong"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
