"""Bidirectional flow assembly, duration truncation, and flow featurization.

Three feature families are produced from truncated flows:

* IAT_SIZE     -- inter-arrival times (us) and packet sizes, zero-padded to a
                  dataset-wide packet budget L; D = 2L - 1.
* STATS_HEADER -- 19 summary statistics: duration, rates, size statistics,
                  mean TTL, and the eight TCP flag counts.
* SAMP_SIZE    -- byte counts over L equal time bins whose width comes from a
                  duration quantile; D = L.
"""

from dataclasses import dataclass, field
from socket import inet_aton

import numpy as np

from .kernel import percentile
from .pcap import PacketRecord

IAT_SIZE = "iat_size"
STATS_HEADER = "stats_header"
SAMP_SIZE = "samp_size"

# bit masks in appearance order of the STATS_HEADER flag-count block
TCP_FLAG_BITS = (
    ("FIN", 0x01), ("SYN", 0x02), ("RST", 0x04), ("PSH", 0x08),
    ("ACK", 0x10), ("URG", 0x20), ("ECE", 0x40), ("CWR", 0x80),
)

_FLAG_MASKS = np.array([bit for _name, bit in TCP_FLAG_BITS])

STATS_HEADER_DIM = 19


@dataclass
class Flow:
    """Time-ordered packets under one canonical bidirectional 5-tuple key."""

    key: tuple  # (ip_lo, port_lo, ip_hi, port_hi, proto)
    packets: list = field(default_factory=list)

    @property
    def duration_us(self):
        return self.packets[-1].timestamp_us - self.packets[0].timestamp_us

    def flow_id(self):
        ip_lo, port_lo, ip_hi, port_hi, proto = self.key
        return f"{ip_lo}:{port_lo}-{ip_hi}:{port_hi}-{proto}"


@dataclass
class FeatureMatrix:
    """n x D real feature matrix with aligned flow ids."""

    values: np.ndarray
    feature_kind: str
    flow_ids: list

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]


def canonical_key(record: PacketRecord):
    """Direction-independent 5-tuple: endpoints ordered by (address, port).

    inet_aton's 4 bytes order as the octets do, for the canonical dotted
    quads that parse_pcap and parse_packet_csv produce.
    """
    src, dst = record.src_ip, record.dst_ip
    if (inet_aton(src), record.src_port) <= (inet_aton(dst), record.dst_port):
        return (src, record.src_port, dst, record.dst_port, record.proto)
    return (dst, record.dst_port, src, record.src_port, record.proto)


def assemble_flows(records):
    """Partition records into bidirectional flows.

    Flows are emitted in order of their first packet; within a flow the
    original order is kept on timestamp ties (stable sort).
    """
    flows = {}  # insertion order is first-packet order
    for rec in records:
        key = canonical_key(rec)
        if key not in flows:
            flows[key] = Flow(key)
        flows[key].packets.append(rec)
    for f in flows.values():
        f.packets.sort(key=lambda r: r.timestamp_us)
    return list(flows.values())


def truncate_flows(flows, q=0.9):
    """Cut each flow at the q-percentile of flow durations.

    Every flow keeps at least its first packet, so no flow is emptied.
    """
    if not flows:
        raise ValueError("truncate_flows needs at least one flow")
    cutoff = percentile([f.duration_us for f in flows], q)
    out = []
    for f in flows:
        start = f.packets[0].timestamp_us
        kept = [p for p in f.packets if p.timestamp_us <= start + cutoff]
        out.append(Flow(f.key, kept))
    return out


def _packet_budget(flows):
    """Dataset-wide packet count budget L: the 0.9 percentile of flow lengths."""
    return percentile([len(f.packets) for f in flows], 0.9)


def iat_size_features(flows):
    """IAT+SIZE features: D = 2L - 1 per flow.

    The first L-1 columns hold inter-arrival times in microseconds and the
    last L columns hold packet sizes in bytes, each block zero-padded; flows
    longer than L packets use their first L.
    """
    if not flows:
        raise ValueError("no flows to featurize")
    L = _packet_budget(flows)
    D = 2 * L - 1
    X = np.zeros((len(flows), D))
    for i, f in enumerate(flows):
        pkts = f.packets[:L]
        X[i, : len(pkts) - 1] = np.diff([p.timestamp_us for p in pkts])
        X[i, L - 1 : L - 1 + len(pkts)] = [p.size_bytes for p in pkts]
    return FeatureMatrix(X, IAT_SIZE, [f.flow_id() for f in flows])


def stats_header_features(flows):
    """STATS+HEADER features: 19 columns per flow.

    [duration_s, pkts/s, bytes/s, mean/std/q1/q2/q3/min/max of sizes,
    mean TTL, count(FIN..CWR)]. Rates floor the duration at 1 us so
    single-packet flows stay finite; std is the population std.
    """
    if not flows:
        raise ValueError("no flows to featurize")
    X = np.zeros((len(flows), STATS_HEADER_DIM))
    for i, f in enumerate(flows):
        sizes = np.array([p.size_bytes for p in f.packets], dtype=float)
        duration_s = f.duration_us / 1e6
        rate_denom = max(f.duration_us, 1) / 1e6
        X[i, 0] = duration_s
        X[i, 1] = len(f.packets) / rate_denom
        X[i, 2] = sizes.sum() / rate_denom
        X[i, 3] = sizes.mean()
        X[i, 4] = sizes.std()
        X[i, 5] = percentile(sizes, 0.25)
        X[i, 6] = percentile(sizes, 0.5)
        X[i, 7] = percentile(sizes, 0.75)
        X[i, 8] = sizes.min()
        X[i, 9] = sizes.max()
        X[i, 10] = np.mean([p.ttl for p in f.packets])
        flags = np.array([p.tcp_flags for p in f.packets])
        X[i, 11:] = np.count_nonzero(flags[:, None] & _FLAG_MASKS, axis=0)
    return FeatureMatrix(X, STATS_HEADER, [f.flow_id() for f in flows])


def samp_size_features(flows, q=0.9):
    """SAMP-SIZE features: byte counts over L equal time bins; D = L.

    The bin width is the q-percentile of flow durations divided by L
    (floored at 1 us); flows spanning more than L bins are truncated and
    shorter flows are zero-padded.
    """
    if not flows:
        raise ValueError("no flows to featurize")
    L = _packet_budget(flows)
    delta = max(percentile([f.duration_us for f in flows], q) / L, 1.0)
    X = np.zeros((len(flows), L))
    for i, f in enumerate(flows):
        start = f.packets[0].timestamp_us
        for p in f.packets:
            b = int((p.timestamp_us - start) / delta)
            if b < L:
                X[i, b] += p.size_bytes
    return FeatureMatrix(X, SAMP_SIZE, [f.flow_id() for f in flows])
