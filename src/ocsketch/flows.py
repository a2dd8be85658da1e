"""Bidirectional flow assembly, duration truncation, and flow featurization.

Three feature families are produced from truncated flows:

* IAT_SIZE     -- inter-arrival times (us) and packet sizes, zero-padded to a
                  dataset-wide packet budget L; D = 2L - 1.
* STATS_HEADER -- 19 summary statistics: duration, rates, size statistics,
                  mean TTL, and the eight TCP flag counts.
* SAMP_SIZE    -- byte counts over L equal time bins whose width comes from a
                  duration quantile; D = L.

A flow is a segment of one flow-ordered PacketTable: assemble_flows groups
the packets with one sort, and truncation and the three families work on
whole columns by segment.
"""

from dataclasses import dataclass

import numpy as np

from .kernel import nearest_rank, percentile
from .pcap import PacketTable, _ip_str

IAT_SIZE = "iat_size"
STATS_HEADER = "stats_header"
SAMP_SIZE = "samp_size"

# bit masks in appearance order of the STATS_HEADER flag-count block
TCP_FLAG_BITS = (
    ("FIN", 0x01), ("SYN", 0x02), ("RST", 0x04), ("PSH", 0x08),
    ("ACK", 0x10), ("URG", 0x20), ("ECE", 0x40), ("CWR", 0x80),
)

STATS_HEADER_DIM = 19


class Flow:
    """Time-ordered packets under one canonical bidirectional 5-tuple key.

    The packets are rows start:stop of `table`, and `packets` is that slice
    of the table, so their PacketRecords are built only when read.
    Flow(key, records) keeps a list of records as a table of its own.
    """

    __slots__ = ("key", "table", "start", "stop")

    def __init__(self, key, packets=(), start=0, stop=None):
        self.key = key  # (ip_lo, port_lo, ip_hi, port_hi, proto)
        self.table = packets if isinstance(packets, PacketTable) \
            else PacketTable.from_records(packets)
        self.start = start
        self.stop = len(self.table) if stop is None else stop

    @property
    def packets(self):
        return self.table[self.start:self.stop]

    @property
    def duration_us(self):
        ts = self.table.timestamp_us
        return int(ts[self.stop - 1] - ts[self.start])

    def flow_id(self):
        ip_lo, port_lo, ip_hi, port_hi, proto = self.key
        return f"{ip_lo}:{port_lo}-{ip_hi}:{port_hi}-{proto}"

    def __eq__(self, other):
        if not isinstance(other, Flow):
            return NotImplemented
        return self.key == other.key and self.packets == other.packets

    __hash__ = None


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


def assemble_flows(packets):
    """Partition packets (a PacketTable, or PacketRecords) into bidirectional flows.

    A flow's key orders its two endpoints by (address, port), an address by
    its octets. Flows are emitted in order of their first packet in the
    input; within a flow packets are in timestamp order, ties in input order.
    All flows are segments of one flow-ordered table.
    """
    t = packets if isinstance(packets, PacketTable) else PacketTable.from_records(packets)
    n = len(t)
    if n == 0:
        return []
    src, dst = t.src_ip.astype(np.uint64), t.dst_ip.astype(np.uint64)
    sport, dport = t.src_port.astype(np.uint64), t.dst_port.astype(np.uint64)
    src_first = (src < dst) | ((src == dst) & (sport <= dport))
    addresses = np.where(src_first, src << 32 | dst, dst << 32 | src)
    ports = np.where(src_first, sport << 17 | dport << 1, dport << 17 | sport << 1) | t.is_tcp
    order = np.lexsort((t.timestamp_us, ports, addresses))  # stable
    addresses, ports = addresses[order], ports[order]
    new_key = np.ones(n, dtype=bool)
    new_key[1:] = (addresses[1:] != addresses[:-1]) | (ports[1:] != ports[:-1])
    group_starts = np.flatnonzero(new_key)
    # flows are the groups in order of their first input row
    by_first = np.argsort(np.minimum.reduceat(order, group_starts))
    lengths = np.diff(group_starts, append=n)[by_first]
    firsts = group_starts[by_first]  # each flow's first position in `order`
    starts = np.cumsum(lengths) - lengths
    table = t[order[np.repeat(firsts - starts, lengths) + np.arange(n)]]

    keys = zip((addresses[firsts] >> 32).tolist(), (ports[firsts] >> 17).tolist(),
               (addresses[firsts] & 0xFFFFFFFF).tolist(),
               (ports[firsts] >> 1 & 0xFFFF).tolist(), (ports[firsts] & 1).tolist())
    return [Flow((_ip_str(ip_lo), port_lo, _ip_str(ip_hi), port_hi, "TCP" if tcp else "UDP"),
                 table, start, start + length)
            for (ip_lo, port_lo, ip_hi, port_hi, tcp), start, length
            in zip(keys, starts.tolist(), lengths.tolist())]


def _segments(flows):
    """(table, starts, lengths): flow i's packets are table rows
    starts[i]:starts[i] + lengths[i], and the flows tile the table in order.

    Flows from assemble_flows or truncate_flows already tile their shared
    table; any other list of flows is copied into a new one.
    """
    table = flows[0].table
    starts = np.array([f.start for f in flows], dtype=np.int64)
    lengths = np.array([f.stop for f in flows], dtype=np.int64) - starts
    ends = starts + lengths
    if not (starts[0] == 0 and ends[-1] == len(table) and np.array_equal(starts[1:], ends[:-1])
            and all(f.table is table for f in flows)):
        table = PacketTable.concat([f.table[f.start:f.stop] for f in flows])
        starts = np.cumsum(lengths) - lengths
    return table, starts, lengths


def _flow_of_row(lengths):
    """Each row's flow index."""
    return np.repeat(np.arange(len(lengths)), lengths)


def _durations(ts, starts, lengths):
    return ts[starts + lengths - 1] - ts[starts]


def truncate_flows(flows, q=0.9):
    """Cut each flow at the q-percentile of flow durations.

    Every flow keeps at least its first packet, so no flow is emptied.
    """
    if not flows:
        raise ValueError("truncate_flows needs at least one flow")
    table, starts, lengths = _segments(flows)
    ts = table.timestamp_us
    cutoff = percentile(_durations(ts, starts, lengths), q)
    keep = ts - np.repeat(ts[starts], lengths) <= cutoff
    kept = np.add.reduceat(keep.astype(np.int64), starts)
    table = table[keep]
    kept_starts = np.cumsum(kept) - kept
    return [Flow(f.key, table, start, start + count)
            for f, start, count in zip(flows, kept_starts.tolist(), kept.tolist())]


def _packet_budget(lengths):
    """Dataset-wide packet count budget L: the 0.9 percentile of flow lengths."""
    return percentile(lengths, 0.9)


def iat_size_features(flows):
    """IAT+SIZE features: D = 2L - 1 per flow.

    The first L-1 columns hold inter-arrival times in microseconds and the
    last L columns hold packet sizes in bytes, each block zero-padded; flows
    longer than L packets use their first L.
    """
    if not flows:
        raise ValueError("no flows to featurize")
    table, starts, lengths = _segments(flows)
    L = _packet_budget(lengths)
    flow = _flow_of_row(lengths)
    pos = np.arange(len(flow)) - starts[flow]  # each row's position within its flow
    X = np.zeros((len(flows), 2 * L - 1))
    head = pos < L
    X[flow[head], L - 1 + pos[head]] = table.size_bytes[head]
    gap = head[1:] & (pos[1:] > 0)  # row r + 1 and its predecessor r in one flow
    X[flow[1:][gap], pos[1:][gap] - 1] = np.diff(table.timestamp_us)[gap]
    return FeatureMatrix(X, IAT_SIZE, [f.flow_id() for f in flows])


def stats_header_features(flows):
    """STATS+HEADER features: 19 columns per flow.

    [duration_s, pkts/s, bytes/s, mean/std/q1/q2/q3/min/max of sizes,
    mean TTL, count(FIN..CWR)]. Rates floor the duration at 1 us so
    single-packet flows stay finite; std is the population std.
    """
    if not flows:
        raise ValueError("no flows to featurize")
    table, starts, lengths = _segments(flows)
    n = len(flows)
    flow = _flow_of_row(lengths)
    sizes = table.size_bytes.astype(float)
    duration_us = _durations(table.timestamp_us, starts, lengths)
    rate_denom = np.maximum(duration_us, 1) / 1e6
    # sums of integers below 2**53: exact in any order
    size_sums = np.bincount(flow, weights=sizes, minlength=n)
    X = np.zeros((n, STATS_HEADER_DIM))
    X[:, 0] = duration_us / 1e6
    X[:, 1] = lengths / rate_denom
    X[:, 2] = size_sums / rate_denom
    X[:, 3] = size_sums / lengths
    # numpy's pairwise sum inside std: a segment sum would round differently
    X[:, 4] = [sizes[s:e].std() for s, e in zip(starts.tolist(), (starts + lengths).tolist())]
    ranked = sizes[np.lexsort((sizes, flow))]  # each flow's sizes, ascending
    for col, q in ((5, 0.25), (6, 0.5), (7, 0.75)):
        X[:, col] = ranked[starts + nearest_rank(lengths, q) - 1]
    X[:, 8] = ranked[starts]
    X[:, 9] = ranked[starts + lengths - 1]
    X[:, 10] = np.bincount(flow, weights=table.ttl, minlength=n) / lengths
    for j, (_name, bit) in enumerate(TCP_FLAG_BITS):
        X[:, 11 + j] = np.bincount(flow, weights=(table.tcp_flags & bit) != 0, minlength=n)
    return FeatureMatrix(X, STATS_HEADER, [f.flow_id() for f in flows])


def samp_size_features(flows, q=0.9):
    """SAMP-SIZE features: byte counts over L equal time bins; D = L.

    The bin width is the q-percentile of flow durations divided by L
    (floored at 1 us); flows spanning more than L bins are truncated and
    shorter flows are zero-padded.
    """
    if not flows:
        raise ValueError("no flows to featurize")
    table, starts, lengths = _segments(flows)
    n = len(flows)
    L = _packet_budget(lengths)
    ts = table.timestamp_us
    delta = max(percentile(_durations(ts, starts, lengths), q) / L, 1.0)
    flow = _flow_of_row(lengths)
    offset = (ts - np.repeat(ts[starts], lengths)) / delta
    inside = offset < L  # the bin int(offset) exists
    bins = flow[inside] * L + offset[inside].astype(np.int64)
    X = np.bincount(bins, weights=table.size_bytes[inside], minlength=n * L)
    return FeatureMatrix(X.reshape(n, L), SAMP_SIZE, [f.flow_id() for f in flows])
