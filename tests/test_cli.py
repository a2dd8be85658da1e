import json
import re

import numpy as np
import pytest

from ocsketch.cli import main, read_feature_csv
from ocsketch.detector import DetectorConfig, serialize, train_detector
from ocsketch.pcap import CSV_HEADER, parse_pcap, write_packet_csv
from test_pcap import snapped_capture


def packets_csv(tmp_path):
    lines = [CSV_HEADER]
    # two flows: a 3-packet UDP flow and a 2-packet TCP flow
    lines += [
        "0,10.0.0.1,53,10.0.0.2,4000,UDP,60,64,0",
        "2,10.0.0.2,4000,10.0.0.1,53,UDP,100,64,0",
        "5,10.0.0.1,53,10.0.0.2,4000,UDP,80,64,0",
        "1,10.0.0.3,1234,10.0.0.4,80,TCP,52,63,2",
        "3,10.0.0.4,80,10.0.0.3,1234,TCP,52,60,18",
    ]
    path = tmp_path / "packets.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_featurize_iat_size(tmp_path, capsys):
    out = tmp_path / "features.csv"
    rc = main(["featurize", "--in", str(packets_csv(tmp_path)),
               "--feature", "iat_size", "--out", str(out)])
    assert rc == 0
    ids, X, labels = read_feature_csv(out)
    assert len(ids) == 2
    assert labels is None
    assert X.shape[1] % 2 == 1


def test_featurize_all_kinds(tmp_path):
    src = packets_csv(tmp_path)
    for kind, dim_check in [("stats_header", lambda d: d == 19),
                            ("samp_size", lambda d: d >= 1)]:
        out = tmp_path / f"{kind}.csv"
        assert main(["featurize", "--in", str(src), "--feature", kind,
                     "--out", str(out)]) == 0
        _, X, _ = read_feature_csv(out)
        assert dim_check(X.shape[1])


def test_featurize_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    out = tmp_path / "out.csv"
    assert main(["featurize", "--in", str(bad), "--feature", "iat_size",
                 "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["iat_size", "stats_header", "samp_size"])
def test_featurize_pcap_matches_its_packet_csv(tmp_path, kind):
    cap = snapped_capture(3, n_packets=40)
    pcap_path, csv_path = tmp_path / "capture.pcap", tmp_path / "packets.csv"
    pcap_path.write_bytes(cap)
    csv_path.write_text(write_packet_csv(parse_pcap(cap)))
    outs = []
    for src in (pcap_path, csv_path):
        out = tmp_path / f"{src.stem}.{kind}.csv"
        assert main(["featurize", "--in", str(src), "--feature", kind, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) > 2


def test_featurize_rejects_binary_that_is_neither_format(tmp_path, capsys):
    bad = tmp_path / "random.bin"
    bad.write_bytes(bytes([0x89, 0x50, 0x4E, 0x47, 0xFF, 0x00, 0xFE]))
    out = tmp_path / "out.csv"
    assert main(["featurize", "--in", str(bad), "--feature", "iat_size",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "neither a libpcap capture (no pcap magic) nor a UTF-8 packet CSV" in err
    assert "byte 0x89 at offset 0" in err
    assert not out.exists()


def synth_pools(tmp_path):
    npath, vpath = tmp_path / "normal.csv", tmp_path / "novel.csv"
    rc = main(["synth", "--kind", "cic", "--n", "1600", "--seed", "3",
               "--out-normal", str(npath), "--out-novel", str(vpath)])
    assert rc == 0
    return npath, vpath


def test_synth_split_outputs(tmp_path):
    npath, vpath = synth_pools(tmp_path)
    _, Xn, _ = read_feature_csv(npath)
    _, Xv, _ = read_feature_csv(vpath)
    assert Xn.shape == (800, 2)
    assert Xv.shape == (800, 2)


def test_synth_blobs_labeled(tmp_path):
    out = tmp_path / "blobs.csv"
    assert main(["synth", "--kind", "blobs", "--n", "90", "--k", "3",
                 "--d", "2", "--separation", "8", "--seed", "1",
                 "--out", str(out)]) == 0
    _, X, labels = read_feature_csv(out)
    assert X.shape == (90, 2)
    assert sorted(set(labels)) == ["0", "1", "2"]


def test_train_detect_roundtrip(tmp_path):
    npath, vpath = synth_pools(tmp_path)
    model_path = tmp_path / "model.bin"
    rc = main(["train", "--features", str(npath), "--kind", "kjl",
               "--m", "60", "--d", "4", "--h-quantile", "0.5",
               "--k", "auto", "--seed", "0",
               "--threshold-fpr", "0.05", "--out", str(model_path)])
    assert rc == 0
    assert model_path.read_bytes()[:4] == b"OCKJ"

    scores_path = tmp_path / "scores.csv"
    rc = main(["detect", "--model", str(model_path), "--features", str(vpath),
               "--out", str(scores_path)])
    assert rc == 0
    rows = scores_path.read_text().strip().split("\n")
    assert rows[0] == "row_id,score,label"
    labels = [r.split(",")[2] for r in rows[1:]]
    # novelty pool against a ring-trained model: nearly everything flagged
    assert np.mean([l == "NOVEL" for l in labels]) > 0.9


def test_train_ocsvm_kind(tmp_path):
    npath, _ = synth_pools(tmp_path)
    model_path = tmp_path / "ocsvm.bin"
    rc = main(["train", "--features", str(npath), "--kind", "ocsvm",
               "--h-quantile", "0.2", "--nu", "0.5", "--seed", "0",
               "--out", str(model_path)])
    assert rc == 0
    assert model_path.read_bytes()[:4] == b"OSVM"

    scores_path = tmp_path / "scores.csv"
    assert main(["detect", "--model", str(model_path), "--features", str(npath),
                 "--threshold-fpr", "0.1", "--out", str(scores_path)]) == 0
    rows = scores_path.read_text().strip().split("\n")[1:]
    flagged = np.mean([r.split(",")[2] == "NOVEL" for r in rows])
    assert flagged <= 0.1  # calibrated on the scored data itself


def test_detect_fixed_k(tmp_path):
    npath, _ = synth_pools(tmp_path)
    model_path = tmp_path / "m.bin"
    assert main(["train", "--features", str(npath), "--kind", "nystrom",
                 "--m", "50", "--d", "3", "--k", "2", "--seed", "1",
                 "--out", str(model_path)]) == 0


def test_evaluate_command(tmp_path):
    npath, vpath = synth_pools(tmp_path)
    proto_path = tmp_path / "protocol.json"
    proto_path.write_text(json.dumps({
        "n_train": 300, "n_test_per_class": 80, "n_val": 60,
        "reps": 1, "timing_repeats": 1, "seed": 5,
    }))
    report_path = tmp_path / "report.json"
    md_path = tmp_path / "report.md"
    rc = main(["evaluate", "--normal", str(npath), "--novel", str(vpath),
               "--methods", "ocsvm,kjl-qs", "--scenario", "default",
               "--protocol", str(proto_path),
               "--report", str(report_path), "--markdown", str(md_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["scenario"] == "no_tuning"
    assert "kjl-qs" in report["ratios"]
    assert md_path.read_text().startswith("## Benchmark")


def test_evaluate_rejects_unknown_protocol_field(tmp_path, capsys):
    npath, vpath = synth_pools(tmp_path)
    proto_path = tmp_path / "p.json"
    proto_path.write_text('{"bogus": 1}')
    rc = main(["evaluate", "--normal", str(npath), "--novel", str(vpath),
               "--protocol", str(proto_path), "--report", str(tmp_path / "r.json")])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("reps", 0), ("timing_repeats", 0), ("reps", "2")])
def test_evaluate_rejects_a_protocol_it_cannot_run(tmp_path, capsys, field, value):
    npath, vpath = synth_pools(tmp_path)
    proto_path = tmp_path / "p.json"
    proto_path.write_text(json.dumps({field: value}))
    report_path = tmp_path / "r.json"
    rc = main(["evaluate", "--normal", str(npath), "--novel", str(vpath),
               "--protocol", str(proto_path), "--report", str(report_path)])
    assert rc == 1
    assert f"{field} must be an integer of at least 1, got {value!r}" in capsys.readouterr().err
    assert not report_path.exists()


def test_evaluate_rejects_a_seed_it_cannot_draw_with(tmp_path, capsys):
    npath, vpath = synth_pools(tmp_path)
    proto_path = tmp_path / "p.json"
    proto_path.write_text('{"seed": "x"}')
    rc = main(["evaluate", "--normal", str(npath), "--novel", str(vpath),
               "--protocol", str(proto_path), "--report", str(tmp_path / "r.json")])
    assert rc == 1
    assert "seed must be None or a non-negative integer, got 'x'" in capsys.readouterr().err


def test_train_defaults_are_the_library_defaults(tmp_path):
    npath, _ = synth_pools(tmp_path)
    model_path = tmp_path / "m.bin"
    assert main(["train", "--features", str(npath), "--kind", "kjl", "--seed", "0",
                 "--out", str(model_path)]) == 0
    _, X, _ = read_feature_csv(npath)
    assert model_path.read_bytes() == serialize(train_detector(X, DetectorConfig(seed=0)))


def test_train_ocsvm_rejects_threshold_fpr(tmp_path, capsys):
    npath, _ = synth_pools(tmp_path)
    rc = main(["train", "--features", str(npath), "--kind", "ocsvm",
               "--threshold-fpr", "0.05", "--out", str(tmp_path / "m.bin")])
    assert rc == 1
    assert "--threshold-fpr" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("kind, flag", [("kjl", "--k"), ("nystrom", "--k"),
                                        ("kjl", "--d"), ("nystrom", "--d")])
def test_train_rejects_zero_k_or_d(tmp_path, capsys, kind, flag):
    npath, _ = synth_pools(tmp_path)
    rc = main(["train", "--features", str(npath), "--kind", kind, "--m", "20",
               flag, "0", "--seed", "0", "--out", str(tmp_path / "m.bin")])
    assert rc == 1
    assert f"got {flag[2:]}=0" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_detect_zero_fpr_flags_nothing(tmp_path):
    npath, _ = synth_pools(tmp_path)
    model_path = tmp_path / "ocsvm.bin"
    assert main(["train", "--features", str(npath), "--kind", "ocsvm",
                 "--seed", "0", "--out", str(model_path)]) == 0
    scores_path = tmp_path / "scores.csv"
    assert main(["detect", "--model", str(model_path), "--features", str(npath),
                 "--threshold-fpr", "0", "--out", str(scores_path)]) == 0
    rows = scores_path.read_text().strip().split("\n")[1:]
    assert all(r.split(",")[2] == "NORMAL" for r in rows)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_feature_csv_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "f.csv"
    path.write_text(f"flow_id,label,f0,f1\na,0,1.0,2.0\nb,1,3.0,{bad}\n")
    with pytest.raises(ValueError, match="line 3, column f1"):
        read_feature_csv(path)


@pytest.mark.parametrize("body, match", [
    ("a,0,1.0,2.0\nb,1,3.0\n", "line 3: expected 4 fields, got 3"),
    ("a,0,1.0,2.0\nb,1,3.0,4.0,5.0\n", "line 3: expected 4 fields, got 5"),
    ("a,0,1.0,2.0\n\nb,1,3.0,4.0\n", "line 3: expected 4 fields, got 1"),
    ("a,0,1.0,2.0\nb,1,3.0,x1\n", "line 3, column f1: not a number: 'x1'"),
    ("a,0,,2.0\n", "line 2, column f0: not a number: ''"),
])
def test_read_feature_csv_names_malformed_line(tmp_path, body, match):
    path = tmp_path / "f.csv"
    path.write_text("flow_id,label,f0,f1\n" + body)
    with pytest.raises(ValueError, match=re.escape(match)):
        read_feature_csv(path)


def test_read_feature_csv_rejects_rows_all_shorter_than_header(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("flow_id,f0,f1,f2\na,1.0,2.0\nb,3.0,4.0\n")
    with pytest.raises(ValueError, match="line 2: expected 4 fields, got 3"):
        read_feature_csv(path)


def test_read_feature_csv_shapes(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("flow_id,f0,f1,f2\n")
    assert read_feature_csv(path)[1].shape == (0, 3)
    path.write_text("flow_id,label,f0\na,1,2.5\n")
    ids, X, labels = read_feature_csv(path)
    assert (ids, X.tolist(), labels) == (["a"], [[2.5]], ["1"])


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_detect_rejects_non_finite_features(tmp_path, capsys, bad):
    npath, _ = synth_pools(tmp_path)
    model_path = tmp_path / "ocsvm.bin"
    assert main(["train", "--features", str(npath), "--kind", "ocsvm",
                 "--seed", "0", "--out", str(model_path)]) == 0
    lines = npath.read_text().split("\n")
    row = lines[5].split(",")
    lines[5] = ",".join(row[:-1] + [bad])
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text("\n".join(lines))
    scores_path = tmp_path / "scores.csv"
    assert main(["detect", "--model", str(model_path), "--features", str(bad_path),
                 "--threshold-fpr", "0.1", "--out", str(scores_path)]) == 1
    assert "line 6, column f1" in capsys.readouterr().err
    assert not scores_path.exists()
