"""Fast one-class novelty detection for network flows.

Kernel embeddings (Nystrom / Gaussian sketch) followed by GMM density
scoring with automatic component selection, benchmarked against a
Gaussian-kernel OCSVM baseline.
"""

from .detector import (
    DetectorConfig,
    DetectorModel,
    choose_threshold,
    classify,
    detect_score,
    detect_scores,
    deserialize,
    serialize,
    train_detector,
)
from .embedding import EmbeddingModel, embed, fit_kjl, fit_nystrom
from .evaluate import (
    ExperimentProtocol,
    auc,
    run_experiment,
    synth_blobs,
    synth_cluster_in_cluster,
)
from .flows import (
    assemble_flows,
    iat_size_features,
    samp_size_features,
    stats_header_features,
    truncate_flows,
)
from .gmm import GmmModel, fit_em, log_pdf
from .kernel import gram, quantile_bandwidth
from .ocsvm import OcsvmModel, train_ocsvm
from .pcap import PacketRecord, PacketTable, parse_packet_csv, parse_pcap, write_packet_csv
from .quickshift import auto_k

__version__ = "0.1.0"
