"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload blobs5k --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. One process calls the library in a closed loop with one caller. A
run is a fixed number of rounds of the same operations, `--seconds` over
the workload's nominal round length (at least one), so how many operations
a run attempts never depends on how fast the host was. Every operation's
output is checked outside the timed regions (checks.py); a failed check
counts its operation as failed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics (layers.py) with `--trace 1`. The full
record of the run, with the environment, goes to perfbench/out/.
"""

import os
import sys

# Fixed before numpy loads: one BLAS/OpenMP thread, the single caller's own.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "ocsketch" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source under {SRC}; run from a source checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import ocsketch  # noqa: E402
from layers import Tracer  # noqa: E402
from ocsketch import detector, evaluate, kernel, ocsvm, pcap  # noqa: E402
from ocsketch import flows as fl  # noqa: E402
from workloads import DETECTOR, WORKLOADS  # noqa: E402

# import probes before and after the measured loop (plus one warm-up)
SETUP_SAMPLES = 3
# per scoring burst: timed detect_scores calls over the test set, and passes
# that score every test row alone twice (1200 calls, so that a pass's p99
# has 12 calls beyond it)
BATCH_CALLS = 60
SINGLE_PASSES = 2
SINGLE_SWEEPS = 2
TARGET_FPR = 0.05

_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import ocsketch; "
                 "print(repr(time.perf_counter() - t0))")


def import_times(count):
    """Import times of the program, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return times


def _blas_threads():
    """Thread count OpenBLAS reports in this process, or None if unreadable."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _nearest_rank(values, q):
    ranked = sorted(values)
    return ranked[max(1, math.ceil(q * len(ranked))) - 1]


class Ledger:
    """Counts operations and runs each one's checks with tracing paused.

    An operation given a `known_fault` fails for that documented fault of
    the program on inputs that do not depend on the seed: it counts as
    failed, but does not make the run incorrect."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.unexpected = 0
        # (operation number, name, peak MB) whenever the peak grew by 1 MB,
        # so the run record shows which operation set the memory peak
        self.peak_growth = []

    def op(self, name, check, known_fault=None):
        self.attempted += 1
        active, self.tracer.active = self.tracer.active, False
        try:
            check()
        except checks.CheckError as exc:
            self.failed += 1
            self.unexpected += known_fault is None
            self.errors.append(f"{name}: {exc}" + (f" (known: {known_fault})"
                                                    if known_fault else ""))
        finally:
            self.tracer.active = active
        peak = _peak_rss_mb()
        if not self.peak_growth or peak >= self.peak_growth[-1][2] + 1:
            self.peak_growth.append((self.attempted, name, peak))


class Runner:
    """One workload's closed loop and the measurements it collects.

    A round trains the detector, alternates ingesting the capture with
    short bursts of batch and single-row scoring, and runs the protocol
    once, so the samples of every timing are spread through the run rather
    than taken in one stretch.
    """

    def __init__(self, inputs, ledger):
        self.inp = inputs
        self.ledger = ledger
        self.ingest_s, self.protocol_s, self.train_s = [], [], []
        self.batch_us = []
        self.single_p50, self.single_p99 = [], []  # per pass over the test rows
        self.auc = self.model_bytes = self.ocsvm_auc = self.baseline_error = None
        self.ratios = None  # the paper's four ratios, from the last protocol run

    def baseline(self):
        """The OCSVM on the detector's training set: its AUC is what the
        detector must retain. Trained and checked once per run, untimed; a
        failed check fails every batch-scoring operation that relies on it,
        so each round still attempts and fails the same operations."""
        inp, n = self.inp, self.inp.n_test_normal
        h = kernel.quantile_bandwidth(inp.X_train, 0.25)
        svm = ocsvm.train_ocsvm(inp.X_train, h, nu=0.5, seed=inp.model_seed)
        scores = ocsvm.score(svm, inp.X_test)
        self.ocsvm_auc = evaluate.auc(scores[:n], scores[n:])
        try:
            checks.check_ocsvm(svm.support_vectors, svm.alpha, svm.rho, svm.h,
                               len(inp.X_train), 0.5, inp.X_test, scores)
            checks.check_auc(scores[:n], scores[n:], self.ocsvm_auc)
        except checks.CheckError as exc:
            self.baseline_error = exc

    def round(self):
        inp = self.inp
        model = self.train()
        for _ in range(inp.steps):
            self.ingest()
            self.score(model)
        t0 = time.perf_counter()
        report = evaluate.run_experiment(inp.normal_pool, inp.novel_pool, list(inp.methods),
                                         inp.protocol, inp.scenario)
        self.protocol_s.append(time.perf_counter() - t0)
        self.ratios = report.ratios
        self.ledger.op("protocol", lambda: checks.check_report(
            report, inp.normal_pool.shape[1]))

    def train(self):
        inp = self.inp
        config = detector.DetectorConfig(seed=inp.model_seed, **DETECTOR)
        for _ in range(inp.train_repeats):
            t0 = time.perf_counter()
            model = detector.train_detector(inp.X_train, config)
            self.train_s.append(time.perf_counter() - t0)
            history = model.gmm.diagnostics["loglik_history"]
            self.ledger.op("train", lambda: checks.check_em_history(history),
                           known_fault=inp.known_em_fault)
        return model

    def ingest(self):
        inp = self.inp
        t0 = time.perf_counter()
        flows = fl.assemble_flows(pcap.parse_pcap(inp.capture.data))
        cut = fl.truncate_flows(flows)
        mats = [fl.iat_size_features(cut), fl.stats_header_features(cut),
                fl.samp_size_features(cut)]
        self.ingest_s.append(time.perf_counter() - t0)
        self.ledger.op("ingest", lambda: (checks.check_flows(inp.expected_flows, flows),
                                          checks.check_features(inp.expected_flows[0], mats)))

    def score(self, model):
        inp, op, n = self.inp, self.ledger.op, self.inp.n_test_normal
        for _ in range(BATCH_CALLS):
            t0 = time.perf_counter()
            scores = detector.detect_scores(model, inp.X_test)
            self.batch_us.append((time.perf_counter() - t0) * 1e6 / len(inp.X_test))
        self.auc = evaluate.auc(scores[:n], scores[n:])
        calibration = inp.X_test[:n]
        model.threshold = detector.choose_threshold(model, calibration, TARGET_FPR)
        data = detector.serialize(model)
        self.model_bytes = len(data)

        def check_batch():
            if self.baseline_error is not None:
                raise self.baseline_error
            checks.check_scores(model, inp.X_test, scores)
            checks.check_auc(scores[:n], scores[n:], self.auc)
            checks.check_auc_retained(self.auc, self.ocsvm_auc)
            checks.check_threshold(model.threshold, detector.detect_scores(model, calibration),
                                   TARGET_FPR)
            checks.check_model_bytes(model, self.model_bytes)
            checks.check_roundtrip(data, inp.X_test, scores, detector.deserialize,
                                   detector.detect_scores)
        op("score_batch", check_batch)

        rows = len(inp.X_test)
        for _ in range(SINGLE_PASSES):
            singles, times = [], []
            for _ in range(SINGLE_SWEEPS):
                for x in inp.X_test:
                    t0 = time.perf_counter()
                    singles.append(detector.detect_score(model, x))
                    times.append(time.perf_counter() - t0)
            self.single_p50.append(_nearest_rank(times, 0.50))
            self.single_p99.append(_nearest_rank(times, 0.99))
            for i, s in enumerate(singles):
                op("score_one", lambda: checks.check_single(s, scores[i % rows], i % rows))

    def samples(self):
        """Every timing sample of the run, in seconds, for the run record."""
        return {"train_s": self.train_s, "protocol_s": self.protocol_s,
                "ingest_s": self.ingest_s, "batch_us_per_row": self.batch_us,
                "single_pass_p50_s": self.single_p50, "single_pass_p99_s": self.single_p99}

    def end_to_end(self, setup_s):
        """The end-to-end metrics by name: each timing is the median of its
        samples over the run (single-point percentiles are taken over the
        1200 calls of one pass, then the median pass), the rest as measured."""
        med = statistics.median
        return {
            "setup_s": setup_s,
            "train_s": med(self.train_s),
            "score_batch_us_per_row": med(self.batch_us),
            "score_one_p50_us": med(self.single_p50) * 1e6,
            "score_one_p99_us": med(self.single_p99) * 1e6,
            "protocol_s": med(self.protocol_s),
            "ingest_pkts_per_s": self.inp.capture.n_packets / med(self.ingest_s),
            "auc": self.auc,
            "model_bytes": self.model_bytes,
            "peak_rss_mb": _peak_rss_mb(),
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(ocsketch.__file__).resolve().parent != SRC / "ocsketch":
        sys.exit(f"perfbench: imported ocsketch from {ocsketch.__file__}, not {SRC}")

    inputs = WORKLOADS[args.workload](args.seed)
    # the first probe compiles bytecode and warms the file cache; every later
    # CLI call finds both warm, so it is not counted
    import_times(1)
    setup = import_times(SETUP_SAMPLES)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    ledger = Ledger(tracer)
    runner = Runner(inputs, ledger)
    runner.baseline()

    rounds = max(1, int(args.seconds // inputs.round_s))
    start = time.perf_counter()
    for _ in range(rounds):
        tracer.active = True
        runner.round()
        tracer.active = False
    measured_s = time.perf_counter() - start
    setup_s = statistics.median(setup + import_times(SETUP_SAMPLES))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def named(values, kind):
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    e2e = named(runner.end_to_end(setup_s), "end_to_end")
    layers = named(tracer.metrics(rounds), "per_layer") if args.trace else {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "measured_s": measured_s,
        "attempted": ledger.attempted, "failed": ledger.failed, "errors": ledger.errors[:20],
        "environment": environment(), "end_to_end": e2e, "per_layer": layers,
        "protocol_ratios": runner.ratios, "samples": runner.samples(),
        "peak_growth": ledger.peak_growth,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for line in ledger.errors[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": ledger.unexpected == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": layers if args.trace else e2e}))


if __name__ == "__main__":
    main()
