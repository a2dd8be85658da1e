"""Model files of both kinds: field validation and property tests of deserialize.

The property tests draw random detector and OCSVM models (the shapes of the
acceptance suite's random models) and check that deserialize either rejects a
truncated or overwritten file with ValueError or returns a model that writes
back exactly those bytes and scores a probe. Examples are derandomized, so
every run tests the same models.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ocsketch.detector import DetectorModel, deserialize, serialize
from ocsketch.embedding import EmbeddingModel, embed
from ocsketch.evaluate import score_method
from ocsketch.gmm import GmmModel
from ocsketch.ocsvm import OcsvmModel

DETECTOR_HEADER = 22
OCSVM_HEADER = 13

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                    suppress_health_check=[HealthCheck.too_slow])


def detector_model(rng, m, d, D, k, with_threshold):
    emb = EmbeddingModel("kjl" if rng.integers(2) else "nystrom",
                         rng.standard_normal((m, D)),
                         rng.standard_normal((d, m)),
                         float(rng.uniform(0.1, 5.0)))
    A = rng.standard_normal((k, d, d))
    mix = GmmModel(rng.dirichlet(np.ones(k)), rng.standard_normal((k, d)),
                   A @ A.transpose(0, 2, 1) + np.eye(d))
    threshold = float(rng.standard_normal()) if with_threshold else None
    return DetectorModel(emb, mix, threshold)


def ocsvm_model(rng, n_sv, D):
    alpha = rng.uniform(0.01, 1.0, n_sv)
    return OcsvmModel(rng.standard_normal((n_sv, D)), alpha / alpha.sum(),
                      float(rng.standard_normal()), float(rng.uniform(0.1, 3)), nu=0.5)


@st.composite
def detector_models(draw):
    m = draw(st.integers(1, 29))
    d = draw(st.integers(1, min(m, 6)))
    D = draw(st.integers(1, 7))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return detector_model(rng, m, d, D, k, draw(st.booleans()))


@st.composite
def ocsvm_models(draw):
    n_sv = draw(st.integers(1, 39))
    D = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ocsvm_model(rng, n_sv, D)


any_model = st.one_of(detector_models(), ocsvm_models())


def input_dim(model):
    if isinstance(model, OcsvmModel):
        return model.support_vectors.shape[1]
    return model.embedding.input_dim


def check_loads_exactly_or_rejects(data):
    """deserialize raises ValueError, or its model writes back data and scores."""
    try:
        model = deserialize(data)
    except ValueError:
        return
    assert serialize(model) == data
    probe = np.linspace(-1.0, 1.0, input_dim(model))
    with np.errstate(all="ignore"):
        score_method(model, probe[None, :])


@PROPERTY
@given(any_model)
def test_roundtrip_is_bit_exact(model):
    data = serialize(model)
    assert serialize(deserialize(data)) == data


@PROPERTY
@given(detector_models())
def test_deserialized_embedding_rebuilds_scoring_state(model):
    """The centred landmarks and their norms are derived, never stored: a
    loaded model rebuilds them bit for bit, so it embeds bit for bit."""
    emb = model.embedding
    restored = deserialize(serialize(model)).embedding
    for name in ("_centre", "_neg2_lc_t", "_lc_sq", "_p_t"):
        assert np.array_equal(getattr(restored, name), getattr(emb, name)), name
    probe = np.random.default_rng(emb.m).standard_normal((5, emb.input_dim))
    assert np.array_equal(embed(restored, probe), embed(emb, probe))


@PROPERTY
@given(any_model, st.data())
def test_truncated_file_rejected_or_exact(model, data):
    raw = serialize(model)
    cut = data.draw(st.integers(0, len(raw) - 1))
    check_loads_exactly_or_rejects(raw[:cut])


@PROPERTY
@given(any_model, st.data())
def test_overwritten_byte_rejected_or_exact(model, data):
    raw = bytearray(serialize(model))
    pos = data.draw(st.integers(0, len(raw) - 1))
    raw[pos] = data.draw(st.integers(0, 255).filter(lambda v: v != raw[pos]))
    check_loads_exactly_or_rejects(bytes(raw))


def patched(data, fmt, offset, value):
    raw = bytearray(data)
    struct.pack_into(fmt, raw, offset, value)
    return bytes(raw)


def with_float(data, header, index, value):
    """Copy of data with the index-th float64 after the header set to value."""
    return patched(data, "<d", header + 8 * index, value)


# detector with m=4, d=2, D=3, k=2 and a threshold: float indices of each field
M, d, D, K = 4, 2, 3, 2
H_AT = M * D + d * M
PI_AT = H_AT + 1
SIGMA_AT = PI_AT + K + K * d
THRESHOLD_AT = SIGMA_AT + K * d * d


def small_detector_file():
    model = detector_model(np.random.default_rng(5), M, d, D, K, with_threshold=True)
    return serialize(model)


@pytest.mark.parametrize("index, value, field", [
    (0, float("nan"), "landmarks"),
    (0, 1e200, "from the landmark mean"),
    (M * D, float("inf"), "projection P"),
    (H_AT, 0.0, "bandwidth h"),
    (H_AT, -1.0, "bandwidth h"),
    (H_AT, 1e-170, "bandwidth"),  # EmbeddingModel: h**2 is 0
    (PI_AT, 1.5, "weights pi"),
    (SIGMA_AT, -5.0, r"sigma\[0\]"),
    (SIGMA_AT + d * d + d, 50.0, r"sigma\[1\]"),  # lower off-diagonal entry
    (THRESHOLD_AT, float("-inf"), "threshold"),
])
def test_detector_file_field_rejected(index, value, field):
    with pytest.raises(ValueError, match=field):
        deserialize(with_float(small_detector_file(), DETECTOR_HEADER, index, value))


def test_detector_negative_weight_rejected():
    data = with_float(small_detector_file(), DETECTOR_HEADER, PI_AT, -0.5)
    data = with_float(data, DETECTOR_HEADER, PI_AT + 1, 1.5)
    with pytest.raises(ValueError, match="weights pi"):
        deserialize(data)


@pytest.mark.parametrize("fmt, offset, value, field", [
    ("<B", 4, 2, "format version"),
    ("<B", 5, 7, "kind code"),
    ("<I", 10, M + 1, "d <= m"),
    ("<I", 10, 0, "d <= m"),
    ("<I", 14, 0, "D must be"),
    ("<I", 18, 0, "k must be"),
])
def test_detector_header_field_rejected(fmt, offset, value, field):
    with pytest.raises(ValueError, match=field):
        deserialize(patched(small_detector_file(), fmt, offset, value))


@pytest.mark.parametrize("index, value, field", [
    (0, float("nan"), "support vectors"),
    (6, float("inf"), "alpha"),
    (8, float("nan"), "offset rho"),
    (9, 0.0, "bandwidth h"),
])
def test_ocsvm_file_field_rejected(index, value, field):
    data = serialize(ocsvm_model(np.random.default_rng(6), 2, 3))
    with pytest.raises(ValueError, match=field):
        deserialize(with_float(data, OCSVM_HEADER, index, value))


def test_ocsvm_file_without_support_vectors_rejected():
    data = serialize(ocsvm_model(np.random.default_rng(6), 2, 3))
    with pytest.raises(ValueError, match="n_sv"):
        deserialize(patched(data, "<I", 5, 0))
