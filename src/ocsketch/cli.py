"""Command-line interface: featurize, train, detect, evaluate, synth."""

import argparse
import dataclasses
import json
import struct
import sys

import numpy as np

from . import evaluate as ev
from . import flows as fl
from .detector import (
    AUTO,
    DetectorModel,
    NORMAL,
    NOVEL,
    choose_threshold,
    deserialize,
    score_threshold,
    serialize,
)
from .pcap import PCAP_MAGICS, parse_packet_csv, parse_pcap


def write_feature_csv(path, matrix, labels=None):
    """Feature CSV: flow_id[,label],f0..f{D-1}."""
    cols = ["flow_id"] + (["label"] if labels is not None else []) \
        + [f"f{i}" for i in range(matrix.dim)]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for i in range(matrix.rows):
            row = [matrix.flow_ids[i]]
            if labels is not None:
                row.append(str(labels[i]))
            row.extend(repr(float(v)) for v in matrix.values[i])
            f.write(",".join(row) + "\n")


def read_feature_csv(path):
    """Returns (ids, X, labels-or-None) from a feature CSV.

    A row whose field count differs from the header's raises ValueError
    naming its line; a feature that is not a finite number also names its
    column.
    """
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        if not header or header[0] != "flow_id":
            raise ValueError(f"{path}: expected a flow_id column first")
        has_label = len(header) > 1 and header[1] == "label"
        start = 2 if has_label else 1
        ids, labels, rows = [], [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields, "
                                 f"got {len(parts)}")
            ids.append(parts[0])
            if has_label:
                labels.append(parts[1])
            rows.append(_feature_row(parts[start:], header[start:], f"{path}: line {lineno}"))
    X = np.array(rows, dtype=float).reshape(len(rows), len(header) - start)
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}: line {row + 2}, column {header[start + col]}: "
                         f"non-finite value {X[row, col]}")
    return ids, X, (labels if has_label else None)


def _feature_row(cells, names, where):
    row = []
    for name, cell in zip(names, cells):
        try:
            row.append(float(cell))
        except ValueError:
            raise ValueError(f"{where}, column {name}: not a number: {cell!r}") from None
    return row


def _read_packets(path):
    """The packets of a classic libpcap capture or of a packet CSV, told
    apart by the libpcap magic at the start of the file."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) >= 4 and struct.unpack_from("<I", data)[0] in PCAP_MAGICS:
        return parse_pcap(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: neither a libpcap capture (no pcap magic) nor a "
                         f"UTF-8 packet CSV (byte 0x{data[exc.start]:02x} at offset "
                         f"{exc.start})") from None
    return parse_packet_csv(text)


def _cmd_featurize(args):
    flows = fl.truncate_flows(fl.assemble_flows(_read_packets(args.infile)), args.truncate_q)
    if args.feature == fl.IAT_SIZE:
        matrix = fl.iat_size_features(flows)
    elif args.feature == fl.STATS_HEADER:
        matrix = fl.stats_header_features(flows)
    else:
        matrix = fl.samp_size_features(flows, args.samp_q)
    write_feature_csv(args.out, matrix)
    print(f"wrote {matrix.rows} flows x {matrix.dim} features to {args.out}")


def _cmd_train(args):
    if args.kind == ev.OCSVM and args.threshold_fpr is not None:
        raise ValueError("--threshold-fpr needs --kind kjl or nystrom: "
                         "OCSVM model files store no threshold")
    _, X, _ = read_feature_csv(args.features)
    cfg = ev.MethodConfig(
        method=args.kind,
        h_quantile=args.h_quantile,
        k=AUTO if args.k == AUTO else int(args.k),
        nu=args.nu, m=args.m, d=args.d,
    )
    model = ev.train_method(X, cfg, seed=args.seed)
    if args.threshold_fpr is not None:
        model.threshold = choose_threshold(model, X, args.threshold_fpr)
    data = serialize(model)
    with open(args.out, "wb") as f:
        f.write(data)
    print(f"wrote {len(data)} byte model to {args.out}")


def _cmd_detect(args):
    with open(args.model, "rb") as f:
        model = deserialize(f.read())
    ids, X, _ = read_feature_csv(args.features)
    scores = ev.score_method(model, X)
    if isinstance(model, DetectorModel) and model.threshold is not None:
        threshold = model.threshold
    else:
        # calibrate on the scored data itself
        threshold = score_threshold(scores, args.threshold_fpr) if len(scores) else 0.0
    with open(args.out, "w") as f:
        f.write("row_id,score,label\n")
        for rid, s in zip(ids, scores):
            label = NOVEL if s < threshold else NORMAL
            f.write(f"{rid},{repr(float(s))},{label}\n")
    print(f"scored {len(ids)} rows to {args.out} (threshold {threshold:.6g})")


def _cmd_evaluate(args):
    _, normal, _ = read_feature_csv(args.normal)
    _, novel, _ = read_feature_csv(args.novel)
    protocol = ev.ExperimentProtocol()
    if args.protocol:
        with open(args.protocol) as f:
            fields = json.load(f)
        known = {f.name for f in dataclasses.fields(ev.ExperimentProtocol)}
        bad = set(fields) - known
        if bad:
            raise ValueError(f"unknown protocol fields: {sorted(bad)}")
        protocol = ev.ExperimentProtocol(**fields)
    scenario = ev.MINIMAL_TUNING if args.scenario == "tuned" else ev.NO_TUNING
    methods = args.methods.split(",")
    report = ev.run_experiment(normal, novel, methods, protocol, scenario)
    with open(args.report, "w") as f:
        f.write(ev.emit_report(report, "json"))
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(ev.emit_report(report, "markdown"))
    print(ev.emit_report(report, "markdown"))


def _cmd_synth(args):
    if args.kind == "cic":
        X, y = ev.synth_cluster_in_cluster(args.n, seed=args.seed)
    else:
        X, y = ev.synth_blobs(args.n, args.k, args.d, args.separation, seed=args.seed)
    kind_name = "synthetic"
    ids = [str(i) for i in range(len(X))]

    def as_matrix(mask):
        return fl.FeatureMatrix(X[mask], kind_name, [ids[i] for i in np.flatnonzero(mask)])

    if args.out_normal or args.out_novel:
        if not (args.out_normal and args.out_novel):
            raise SystemExit("--out-normal and --out-novel must be given together")
        write_feature_csv(args.out_normal, as_matrix(y == 0))
        write_feature_csv(args.out_novel, as_matrix(y != 0))
        print(f"wrote {int((y == 0).sum())} normal rows to {args.out_normal}, "
              f"{int((y != 0).sum())} novel rows to {args.out_novel}")
    elif args.out:
        matrix = fl.FeatureMatrix(X, kind_name, ids)
        write_feature_csv(args.out, matrix, labels=[str(v) for v in y])
        print(f"wrote {len(X)} labeled rows to {args.out}")
    else:
        raise SystemExit("give --out, or --out-normal with --out-novel")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ocsketch",
        description="Fast one-class novelty detection for network flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="pcap capture or packet CSV -> flow feature CSV")
    p.add_argument("--in", dest="infile", required=True,
                   help="classic libpcap capture or packet CSV")
    p.add_argument("--feature", required=True,
                   choices=[fl.IAT_SIZE, fl.STATS_HEADER, fl.SAMP_SIZE])
    p.add_argument("--samp-q", type=float, default=0.9,
                   help="duration quantile for samp_size bins")
    p.add_argument("--truncate-q", type=float, default=0.9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("train", help="fit a model on normal feature rows")
    p.add_argument("--features", required=True)
    p.add_argument("--kind", required=True, choices=["kjl", "nystrom", "ocsvm"])
    p.add_argument("--m", type=int, default=ev.MethodConfig.m)
    p.add_argument("--d", type=int, default=ev.MethodConfig.d)
    p.add_argument("--h-quantile", type=float, default=ev.MethodConfig.h_quantile)
    p.add_argument("--k", default=ev.MethodConfig.k, help="'auto' or a component count")
    p.add_argument("--nu", type=float, default=ev.MethodConfig.nu)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threshold-fpr", type=float, default=None,
                   help="store a threshold calibrated on the training scores")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("detect", help="score feature rows with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--threshold-fpr", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="benchmark methods on normal/novel pools")
    p.add_argument("--normal", required=True)
    p.add_argument("--novel", required=True)
    p.add_argument("--methods", default="ocsvm,kjl-qs,nystrom-qs")
    p.add_argument("--scenario", choices=["tuned", "default"], default="default")
    p.add_argument("--protocol", default=None, help="JSON protocol overrides")
    p.add_argument("--report", required=True)
    p.add_argument("--markdown", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate synthetic datasets")
    p.add_argument("--kind", required=True, choices=["cic", "blobs"])
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--out-normal", default=None)
    p.add_argument("--out-novel", default=None)
    p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
