"""The benchmark's workloads: seeded inputs handed to the program.

Every workload ingests a capture, trains the `kjl` detector (m=100, d=5,
automatic k), scores a test set of normal and novel rows with it, and runs
the benchmark protocol against the OCSVM. They differ in which layers carry
the work:

* blobs5k    -- one large training (n=5000, D=20): auto-k's kNN table and
                core sweep dominate, and the OCSVM keeps >= 2000 support
                vectors. Untuned protocol.
* pcap-flows -- a ~100k-packet IoT capture: parsing, flow assembly and the
                feature families dominate; the detector trains on 700 flows
                of 19-D heavy-tailed stats_header features. Minimal-tuning
                protocol over ocsvm, kjl-qs and nystrom-qs: many trainings on
                one training set at different bandwidths.

blobs5k ingests a capture at a twentieth of the size (~5k packets), so that
every end-to-end metric has a value on every workload; its features are not
used further.

pcap-flows' own detector trains and scores on the flows of one fixed
capture (that of seed EM_FAULT_SEED), whatever the seed: EM's log-likelihood
drops there by 8.1e-4 in one step, so its EM check fails on every run and
the failure is one operation per training in every run. On seeded captures
the same check fails on some seeds and not others (see CHANGES.md). The
ingested capture and the protocol's flows follow the seed.
"""

from dataclasses import dataclass

import numpy as np

from capture import flow_table, make_capture

from ocsketch import flows as flows_mod
from ocsketch import pcap as pcap_mod
from ocsketch.evaluate import MINIMAL_TUNING, NO_TUNING, ExperimentProtocol, synth_blobs

# h at the median pairwise distance, as in the README's library tour, not
# the library's 0.25 quantile: at 0.25 the detector's AUC on pcap-flows falls
# below 0.95 x the OCSVM's on 9 of seeds 1-20 (see CHANGES.md)
DETECTOR = {"kind": "kjl", "m": 100, "d": 5, "k": "auto", "h_quantile": 0.5}
# the pcap-flows seed whose detector rows are used on every pcap-flows run
EM_FAULT_SEED = 10


@dataclass
class Inputs:
    capture: object  # capture.Capture
    expected_flows: tuple  # capture.flow_table(capture)
    X_train: np.ndarray
    X_test: np.ndarray  # normal rows first, then novel rows
    n_test_normal: int
    normal_pool: np.ndarray
    novel_pool: np.ndarray
    protocol: ExperimentProtocol
    methods: tuple
    scenario: str
    model_seed: int
    round_s: float  # nominal length of one round on the reference host
    train_repeats: int  # trainings per round
    steps: int  # ingest + scoring steps per round
    # what makes every training's EM check fail on these inputs, if it does
    known_em_fault: str = None


def _seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _split(rng, normal, novel, n_train, n_test):
    """Disjoint train rows and a test set of n_test normal + n_test novel."""
    perm = rng.permutation(len(normal))
    novel_rows = novel[rng.permutation(len(novel))[:n_test]]
    X_test = np.vstack([normal[perm[n_train:n_train + n_test]], novel_rows])
    return normal[perm[:n_train]], X_test


def _capture(seed, scale):
    cap = make_capture(seed, scale)
    return cap, flow_table(cap)


def blobs5k(seed):
    """Criterion-8 data: 3 normal blobs in D=20, novel blobs shifted by 60."""
    s_normal, s_novel, s_split, s_model, s_cap = _seeds(seed, 5)
    normal, _ = synth_blobs(5600, 3, 20, 30.0, seed=s_normal)
    novel, _ = synth_blobs(600, 3, 20, 30.0, seed=s_novel)
    novel += 60.0
    X_train, X_test = _split(np.random.default_rng(s_split), normal, novel, 5000, 300)
    cap, expected = _capture(s_cap, 0.05)
    return Inputs(cap, expected, X_train, X_test, 300, normal, novel,
                  ExperimentProtocol(n_train=5000, n_test_per_class=300, reps=1,
                                     timing_repeats=5, seed=s_split),
                  ("ocsvm", "kjl-qs"), NO_TUNING, s_model,
                  round_s=14.0, train_repeats=1, steps=4)


def _flow_rows(seed):
    """The capture of `seed`, its table, and its stats_header rows split into
    normal and novel by the generator's labels."""
    s_cap, s_split, s_model = _seeds(seed, 3)
    cap, expected = _capture(s_cap, 1.0)
    flows = flows_mod.truncate_flows(flows_mod.assemble_flows(pcap_mod.parse_pcap(cap.data)))
    fm = flows_mod.stats_header_features(flows)
    novel_ids = {f.flow_id() for f in cap.flows if f.novel}
    is_novel = np.array([fid in novel_ids for fid in fm.flow_ids])
    return cap, expected, fm.values[~is_novel], fm.values[is_novel], s_split, s_model


def pcap_flows(seed):
    """The seeded capture for ingest and protocol; the detector's rows from
    the capture of EM_FAULT_SEED."""
    cap, expected, normal, novel, s_split, _ = _flow_rows(seed)
    _, _, f_normal, f_novel, f_split, f_model = _flow_rows(EM_FAULT_SEED)
    X_train, X_test = _split(np.random.default_rng(f_split), f_normal, f_novel, 700, 300)
    return Inputs(cap, expected, X_train, X_test, 300, normal, novel,
                  ExperimentProtocol(n_train=700, n_test_per_class=300, n_val=100,
                                     reps=1, timing_repeats=5, seed=s_split),
                  ("ocsvm", "kjl-qs", "nystrom-qs"), MINIMAL_TUNING, f_model,
                  round_s=7.0, train_repeats=4, steps=1,
                  known_em_fault=f"EM is not monotone on the flows of seed {EM_FAULT_SEED}")


WORKLOADS = {"blobs5k": blobs5k, "pcap-flows": pcap_flows}
