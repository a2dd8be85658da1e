"""Per-layer timers and counters around calls into each ocsketch module.

The wrappers live here, not in the program: each replaces a public function
at the name its caller looks up (a module attribute, or the name a caller
imported with `from ... import`), times the call and records counts taken
from its arguments and result. Timing accumulates only while the tracer is
active, so set-up and the correctness checks are not counted.
"""

import time
from collections import defaultdict

import ocsketch.detector as detector
import ocsketch.evaluate as evaluate
import ocsketch.flows as flows
import ocsketch.ocsvm as ocsvm
import ocsketch.pcap as pcap
import ocsketch.quickshift as quickshift


def _rows(x):
    shape = getattr(x, "shape", None)
    return 1 if shape is None or len(shape) < 2 else shape[0]


def _count(key, fn=lambda a, r: 1):
    def record(acc, args, result, seconds=None):
        acc[key] += fn(args, result)
    return record


def _per_row(time_key, rows_key):
    def record(acc, args, result, seconds):
        acc[time_key] += seconds
        acc[rows_key] += _rows(args[1])
    return record


def _log_pdf(acc, args, result, seconds):
    n = _rows(args[1])
    if n == 1:
        acc["gmm.log_pdf_one.s"] += seconds
        acc["gmm.log_pdf_one.calls"] += 1
    else:
        acc["gmm.log_pdf.s"] += seconds
        acc["gmm.log_pdf.rows"] += n


def _fit_em(acc, args, result, seconds):
    acc["gmm.fit_em_s"] += seconds
    acc["gmm.fits"] += 1
    acc["gmm.em_iters.sum"] += len(result.diagnostics["loglik_history"])
    acc["gmm.k.sum"] += result.k


def _train_ocsvm(acc, args, result, seconds):
    acc["ocsvm.train_s"] += seconds
    acc["ocsvm.trainings"] += 1
    acc["ocsvm.n_sv.sum"] += result.n_sv


def _knn_table(acc, args, result, seconds):
    acc["quickshift.knn_table_s"] += seconds
    acc["quickshift.tables"] += 1
    acc["quickshift.k_n.sum"] += args[1]


def _cluster_cores(acc, args, result, seconds):
    acc["quickshift.cores_s"] += seconds
    acc["quickshift.cores.sum"] += len(result)


def _timed(key, extra=None):
    def record(acc, args, result, seconds):
        acc[key] += seconds
        if extra is not None:
            extra(acc, args, result)
    return record


# Every caller's lookup is covered: detector imports quantile_bandwidth,
# fit_kjl, fit_nystrom, embed, fit_em and log_pdf by name; evaluate imports
# quantile_bandwidth, train_ocsvm and the OCSVM score by name; quickshift
# calls its own stages through its module globals.
_WRAPPED = [
    (detector, "quantile_bandwidth",
     _timed("kernel.bandwidth_s", _count("kernel.bandwidth_calls"))),
    (evaluate, "quantile_bandwidth",
     _timed("kernel.bandwidth_s", _count("kernel.bandwidth_calls"))),
    (detector, "fit_kjl", _timed("embedding.fit_s")),
    (detector, "fit_nystrom", _timed("embedding.fit_s")),
    (detector, "embed", _per_row("embedding.embed.s", "embedding.embed.rows")),
    (quickshift, "knn_table", _knn_table),
    (quickshift, "cluster_cores", _cluster_cores),
    (quickshift, "quickshift_assign", _timed("quickshift.assign_s")),
    (quickshift, "select_components", _timed("quickshift.select_s")),
    (detector, "fit_em", _fit_em),
    (detector, "log_pdf", _log_pdf),
    (evaluate, "train_ocsvm", _train_ocsvm),
    (ocsvm, "gram", _count("ocsvm.kernel_rows", lambda a, r: _rows(a[0]))),
    (evaluate, "ocsvm_score", _per_row("ocsvm.score.s", "ocsvm.score.rows")),
    (evaluate, "tune_minimal", _timed("evaluate.tune_s")),
    (evaluate, "train_method", _count("evaluate.models_trained")),
    (pcap, "parse_pcap", _timed("pcap.parse_s",
                                _count("pcap.records", lambda a, r: len(r)))),
    (flows, "assemble_flows", _timed("flows.assemble_s",
                                     _count("flows.flows", lambda a, r: len(r)))),
    (flows, "truncate_flows", _timed("flows.truncate_s")),
    (flows, "iat_size_features", _timed("flows.iat_size_s")),
    (flows, "stats_header_features", _timed("flows.stats_header_s")),
    (flows, "samp_size_features", _timed("flows.samp_size_s")),
]


class Tracer:
    """Installs the wrappers; `active` gates whether calls are recorded."""

    def __init__(self):
        self.acc = defaultdict(float)
        self.active = False

    def install(self):
        for module, name, record in _WRAPPED:
            setattr(module, name, self._wrap(getattr(module, name), record))

    def _wrap(self, fn, record):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            record(self.acc, args, result, time.perf_counter() - t0)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, rounds):
        """Per-layer metrics: seconds and counts per round, per-row and
        per-call costs, and per-call means of structural sizes."""
        a = self.acc

        def per(num, den, scale=1.0):
            return scale * a[num] / a[den] if a[den] else 0.0

        out = {}
        for key in ("kernel.bandwidth_s", "kernel.bandwidth_calls", "embedding.fit_s",
                    "quickshift.knn_table_s", "quickshift.cores_s",
                    "quickshift.assign_s", "quickshift.select_s", "gmm.fit_em_s",
                    "ocsvm.train_s", "ocsvm.kernel_rows", "evaluate.tune_s",
                    "evaluate.models_trained", "pcap.parse_s", "pcap.records",
                    "flows.assemble_s", "flows.truncate_s", "flows.iat_size_s",
                    "flows.stats_header_s", "flows.samp_size_s", "flows.flows"):
            out[key] = a[key] / rounds
        out["embedding.embed_us_per_row"] = per("embedding.embed.s", "embedding.embed.rows", 1e6)
        out["quickshift.k_n"] = per("quickshift.k_n.sum", "quickshift.tables")
        out["quickshift.cores"] = per("quickshift.cores.sum", "quickshift.tables")
        out["gmm.em_iters"] = per("gmm.em_iters.sum", "gmm.fits")
        out["gmm.k"] = per("gmm.k.sum", "gmm.fits")
        out["gmm.log_pdf_us_per_row"] = per("gmm.log_pdf.s", "gmm.log_pdf.rows", 1e6)
        out["gmm.log_pdf_one_us"] = per("gmm.log_pdf_one.s", "gmm.log_pdf_one.calls", 1e6)
        out["ocsvm.n_sv"] = per("ocsvm.n_sv.sum", "ocsvm.trainings")
        out["ocsvm.score_us_per_row"] = per("ocsvm.score.s", "ocsvm.score.rows", 1e6)
        return out
