"""Embedding + GMM novelty detectors: train, score, threshold, model files.

Training embeds the normal data, picks the component count (mode-seeking
clustering or a fixed k), and fits the mixture; scoring is the mixture
log-density of the embedded query, so higher means more normal. serialize and
deserialize read and write the files of both model kinds (this detector and
the OCSVM baseline); they are little-endian float64 regardless of host, and a
model's size is the length of its file.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import quickshift as qs_mod
from .embedding import KJL, NYSTROM, EmbeddingModel, embed, fit_kjl, fit_nystrom
from .gmm import GmmModel, fit_em, log_pdf
from .kernel import percentile, quantile_bandwidth, require_finite
from .ocsvm import OcsvmModel

NORMAL = "NORMAL"
NOVEL = "NOVEL"

DETECTOR_MAGIC = b"OCKJ"
OCSVM_MAGIC = b"OSVM"
FORMAT_VERSION = 1

_KIND_CODES = {NYSTROM: 0, KJL: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

AUTO = "auto"


@dataclass
class DetectorConfig:
    kind: str = KJL
    m: int = 100
    d: int = 5
    h: float | None = None  # explicit bandwidth wins over the quantile
    h_quantile: float = 0.25
    k: int | str = AUTO  # AUTO uses mode-seeking clustering
    qs: qs_mod.QsConfig = field(default_factory=qs_mod.QsConfig)
    seed: int | None = None


@dataclass
class DetectorModel:
    embedding: EmbeddingModel
    gmm: GmmModel
    threshold: float | None = None


def train_detector(X_normal, config):
    """Train an embedding+GMM detector on normal data.

    Resolves the bandwidth (explicit or distance-quantile), fits the chosen
    embedding, embeds the training data, picks k (clustering or fixed), and
    fits the mixture. The returned model has no threshold yet.
    """
    X = np.atleast_2d(np.asarray(X_normal, dtype=float))
    require_finite(X)
    h = config.h if config.h is not None else quantile_bandwidth(X, config.h_quantile)
    if config.kind == NYSTROM:
        emb = fit_nystrom(X, config.m, config.d, h, seed=config.seed)
    elif config.kind == KJL:
        emb = fit_kjl(X, config.m, config.d, h, seed=config.seed)
    else:
        raise ValueError(f"unknown embedding kind {config.kind!r}")
    Z = embed(emb, X)
    if config.k == AUTO:
        clustering = qs_mod.auto_k(Z, config.qs)
        model = fit_em(Z, clustering.k, init=clustering.labels, seed=config.seed)
    else:
        model = fit_em(Z, int(config.k), seed=config.seed)
    return DetectorModel(emb, model)


def detect_scores(model, X):
    """Batch log-density scores; higher = more normal.

    A non-finite entry of X raises ValueError naming its row and column.
    """
    return log_pdf(model.gmm, embed(model.embedding, X))


def detect_score(model, x):
    """Score a single D-vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("detect_score takes a single vector; use detect_scores")
    return float(detect_scores(model, x)[0])


def choose_threshold(model, X_normal, target_fpr=0.05):
    """score_threshold of the model's scores on normal calibration data.

    At most a target_fpr fraction of the calibration data is flagged, and
    target_fpr = 0 flags nothing.
    """
    X = np.atleast_2d(np.asarray(X_normal, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("empty calibration data")
    return score_threshold(detect_scores(model, X), target_fpr)


def score_threshold(scores, target_fpr):
    """The nearest-rank target_fpr quantile of scores, or their minimum at 0.

    Under the strict rule (score < t is novel) this flags at most a
    target_fpr fraction of the scores, and target_fpr = 0 flags none.
    """
    if not 0 <= target_fpr <= 1:
        raise ValueError(f"target_fpr must be in [0, 1], got {target_fpr}")
    if target_fpr == 0:
        return float(np.min(scores))
    return float(percentile(scores, target_fpr))


def classify(model, x):
    """NOVEL iff the score falls strictly below the model threshold."""
    if model.threshold is None:
        raise ValueError("model has no threshold; call choose_threshold first")
    return NOVEL if detect_score(model, x) < model.threshold else NORMAL


def _floats(a):
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def serialize(model):
    """File bytes of a DetectorModel or an OcsvmModel; exact inverse of deserialize."""
    if isinstance(model, OcsvmModel):
        n_sv, D = model.support_vectors.shape
        return b"".join([
            OCSVM_MAGIC,
            struct.pack("<B2I", FORMAT_VERSION, n_sv, D),
            _floats(model.support_vectors),
            _floats(model.alpha),
            struct.pack("<dd", model.rho, model.h),
        ])
    emb, mix = model.embedding, model.gmm
    parts = [
        DETECTOR_MAGIC,
        struct.pack("<BB", FORMAT_VERSION, _KIND_CODES[emb.kind]),
        struct.pack("<4I", emb.m, emb.d, emb.input_dim, mix.k),
        _floats(emb.landmarks),
        _floats(emb.P),
        struct.pack("<d", emb.h),
        _floats(mix.pi),
        _floats(mix.mu),
        _floats(mix.sigma),
    ]
    if model.threshold is not None:
        parts.append(struct.pack("<d", model.threshold))
    return b"".join(parts)


class _Reader:
    """Sequential little-endian reads that name the field on failure."""

    def __init__(self, buf):
        self.buf = buf
        self.off = 0

    def _take(self, name, size):
        if self.off + size > len(self.buf):
            raise ValueError(f"truncated model file: {name} at byte {self.off}")
        self.off += size
        return self.off - size

    def unpack(self, fmt):
        return struct.unpack_from(fmt, self.buf, self._take("header", struct.calcsize(fmt)))

    def floats(self, name, *shape):
        count = math.prod(shape)
        out = np.frombuffer(self.buf, dtype="<f8", count=count,
                            offset=self._take(name, 8 * count))
        if not np.all(np.isfinite(out)):
            raise ValueError(f"non-finite value in {name}")
        return out.reshape(shape).copy()

    def remaining(self):
        return len(self.buf) - self.off


def _require(ok, message):
    if not ok:
        raise ValueError(message)


def deserialize(data):
    """Restore the DetectorModel or OcsvmModel whose bytes serialize produced.

    The magic picks the format. Every field is checked, so a corrupted file
    raises ValueError naming the field instead of loading a model that fails
    when it scores.
    """
    r = _Reader(data)
    magic, version = r.unpack("<4sB")
    _require(magic in (DETECTOR_MAGIC, OCSVM_MAGIC), "unrecognized model file magic")
    _require(version == FORMAT_VERSION, f"unsupported format version {version}")
    if magic == OCSVM_MAGIC:
        n_sv, D = r.unpack("<2I")
        _require(n_sv >= 1, f"n_sv must be >= 1, got {n_sv}")
        _require(D >= 1, f"D must be >= 1, got {D}")
        sv = r.floats("support vectors", n_sv, D)
        alpha = r.floats("alpha", n_sv)
        rho, h = r.floats("offset rho and bandwidth h", 2).tolist()
        _require(h > 0, f"bandwidth h must be positive, got {h}")
        _require(r.remaining() == 0, f"trailing bytes after payload: {r.remaining()}")
        return OcsvmModel(sv, alpha, rho, h, nu=float("nan"))

    kind_code, m, d, D, k = r.unpack("<B4I")
    _require(kind_code in _KIND_NAMES, f"unknown embedding kind code {kind_code}")
    _require(1 <= d <= m, f"need 1 <= d <= m, got d={d}, m={m}")
    _require(D >= 1, f"D must be >= 1, got {D}")
    _require(k >= 1, f"k must be >= 1, got {k}")
    landmarks = r.floats("landmarks", m, D)
    P = r.floats("projection P", d, m)
    h = float(r.floats("bandwidth h", 1)[0])
    _require(h > 0, f"bandwidth h must be positive, got {h}")
    pi = r.floats("weights pi", k)
    _require(np.all(pi >= 0) and abs(pi.sum() - 1) <= 1e-9,
             "weights pi must be >= 0 and sum to 1")
    mu = r.floats("means mu", k, d)
    mix = GmmModel(pi, mu, r.floats("covariances sigma", k, d, d))  # checks each sigma[l]
    threshold = None
    if r.remaining() >= 8:
        threshold = float(r.floats("threshold", 1)[0])
    _require(r.remaining() == 0, f"trailing bytes after payload: {r.remaining()}")
    emb = EmbeddingModel(_KIND_NAMES[kind_code], landmarks, P, h)
    return DetectorModel(emb, mix, threshold)
