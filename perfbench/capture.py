"""Seeded synthetic IoT capture in classic libpcap bytes, with its packet table.

Normal traffic is long-lived UDP telemetry (device -> collector messages,
each acknowledged) and short TCP request/response sessions. Novel traffic is
SYN scans (one flow per probed port) and UDP floods. Every frame is captured
with a 54-byte snap length, which holds the Ethernet, IPv4 and a full TCP
header (or a UDP header plus 12 payload bytes), so all records have the same
size and the file is written as one numpy structured array. The IPv4 total
length carries the packet size, as on the wire.

The packet table kept beside the bytes is what the correctness checks use:
per-flow ids, packet counts, byte sums and durations are computed from it
without the library.
"""

from dataclasses import dataclass

import numpy as np

SNAPLEN = 54
UDP, TCP = 17, 6

FIN, SYN, RST, PSH, ACK = 0x01, 0x02, 0x04, 0x08, 0x10

_RECORD = np.dtype([
    ("ts_sec", "<u4"), ("ts_usec", "<u4"), ("incl_len", "<u4"), ("orig_len", "<u4"),
    ("eth_dst", "V6"), ("eth_src", "V6"), ("ethertype", ">u2"),
    ("ver_ihl", "u1"), ("tos", "u1"), ("total_len", ">u2"), ("ident", ">u2"),
    ("flags_frag", ">u2"), ("ttl", "u1"), ("proto", "u1"), ("ip_csum", ">u2"),
    ("src", ">u4"), ("dst", ">u4"),
    # transport: TCP header layout; for UDP the first word after the ports
    # holds length and checksum and the rest is payload
    ("sport", ">u2"), ("dport", ">u2"), ("w1", ">u4"), ("w2", ">u4"),
    ("off", "u1"), ("tcp_flags", "u1"), ("tail", "V6"),
])
assert _RECORD.itemsize == 16 + SNAPLEN

_GLOBAL_HEADER = np.array(
    [(0xA1B2C3D4, 2, 4, 0, 0, SNAPLEN, 1)],
    dtype=[("magic", "<u4"), ("vmaj", "<u2"), ("vmin", "<u2"), ("zone", "<i4"),
           ("sigfigs", "<u4"), ("snaplen", "<u4"), ("linktype", "<u4")],
).tobytes()


@dataclass
class FlowSpec:
    """One generated flow: its endpoints and whether it is normal traffic."""

    a_ip: int
    a_port: int
    b_ip: int
    b_port: int
    proto: int
    novel: bool

    def flow_id(self):
        """Canonical bidirectional id: the endpoint with the smaller
        (address octets, port) first, as `ip:port-ip:port-PROTO`."""
        a, b = (_octets(self.a_ip), self.a_port), (_octets(self.b_ip), self.b_port)
        lo, hi = (a, b) if a <= b else (b, a)
        name = "TCP" if self.proto == TCP else "UDP"
        return f"{_dotted(lo[0])}:{lo[1]}-{_dotted(hi[0])}:{hi[1]}-{name}"


@dataclass
class Capture:
    """The pcap bytes, the flows, and one row per packet in file order."""

    data: bytes
    flows: list  # FlowSpec per flow index
    flow: np.ndarray  # flow index per packet
    ts_us: np.ndarray
    size: np.ndarray  # IPv4 total length

    @property
    def n_packets(self):
        return len(self.ts_us)


def _octets(ip):
    return tuple((ip >> s) & 0xFF for s in (24, 16, 8, 0))


def _dotted(octets):
    return ".".join(str(o) for o in octets)


def _ip(a, b, c, d):
    return (a << 24) | (b << 16) | (c << 8) | d


class _Builder:
    """Accumulates packets as parallel lists of arrays, one call per flow."""

    def __init__(self):
        self.flows = []
        self.cols = {k: [] for k in ("flow", "ts", "fwd", "size", "ttl", "flags")}

    def add(self, spec, ts, fwd, size, ttl, flags):
        n = len(ts)
        idx = len(self.flows)
        self.flows.append(spec)
        for key, val in (("flow", np.full(n, idx)), ("ts", ts), ("fwd", fwd),
                         ("size", size), ("ttl", ttl), ("flags", flags)):
            self.cols[key].append(np.broadcast_to(np.asarray(val), (n,)))


def _telemetry(b, rng, n_flows, collector):
    """Device -> collector UDP messages at a per-device period, each acked."""
    # message counts on a fixed grid, shuffled: the flow-length quantiles
    # that size the iat_size and samp_size matrices are then the same for
    # every seed, and so is the ingest work per packet
    counts = rng.permutation(np.linspace(40, 160, n_flows).round().astype(int))
    for i, count in enumerate(counts):
        dev = _ip(10, 1, i // 200, i % 200 + 1)
        spec = FlowSpec(dev, int(rng.integers(20000, 60000)), collector, 5683, UDP, False)
        period = rng.uniform(0.5, 2.0) * 1e6
        start = rng.uniform(0, 100e6)
        sends = start + period * np.arange(count) + rng.uniform(0, 2e3, count)
        acks = sends + rng.uniform(1e3, 5e3, count)
        ts = np.column_stack([sends, acks]).ravel()
        fwd = np.tile([True, False], count)
        size = np.column_stack([np.clip(rng.normal(120, 15, count), 40, 400),
                                np.full(count, 60.0)]).ravel()
        b.add(spec, ts, fwd, size, np.where(fwd, 64, 63), 0)


def _sessions(b, rng, n_flows, server):
    """Client TCP sessions: handshake, request/response pairs, FIN close."""
    exchanges = rng.permutation(1 + np.arange(n_flows) % 8)
    for i, r in enumerate(exchanges):
        client = _ip(10, 2, i // 200, i % 200 + 1)
        spec = FlowSpec(client, int(rng.integers(30000, 60000)), server, 443, TCP, False)
        fwd = [True, False, True] + [True, False] * r + [True, False, False, True]
        flags = [SYN, SYN | ACK, ACK] + [PSH | ACK] * (2 * r) + [FIN | ACK, ACK, FIN | ACK, ACK]
        size = np.concatenate([[60, 60, 52],
                               np.column_stack([rng.integers(200, 600, r),
                                                rng.integers(400, 1500, r)]).ravel(),
                               [52, 52, 52, 52]])
        gaps = rng.exponential(20e3, len(fwd))
        ts = rng.uniform(0, 250e6) + np.cumsum(gaps)
        fwd = np.array(fwd)
        b.add(spec, ts, fwd, size, np.where(fwd, 64, 62), np.array(flags))


def _scans(b, rng, n_flows, targets):
    """SYN probes to successive ports; closed ports answer RST|ACK."""
    for i in range(n_flows):
        scanner = _ip(10, 9, 0, i % 4 + 1)
        target = targets[i % len(targets)]
        spec = FlowSpec(scanner, int(rng.integers(40000, 41000)), target,
                        1 + i // len(targets), TCP, True)
        t0 = rng.uniform(0, 250e6)
        b.add(spec, t0 + np.array([0.0, rng.uniform(100, 400)]), np.array([True, False]),
              np.array([44, 40]), np.array([48, 64]), np.array([SYN, RST | ACK]))


def _floods(b, rng, n_flows, victim, packets):
    """One-way UDP bursts of large datagrams at sub-millisecond spacing."""
    for i in range(n_flows):
        spec = FlowSpec(_ip(10, 9, 1, i + 1), int(rng.integers(1024, 65535)),
                        victim, 5683, UDP, True)
        ts = rng.uniform(0, 250e6) + np.cumsum(rng.uniform(50, 200, packets))
        b.add(spec, ts, True, rng.integers(512, 1400, packets), 52, 0)


def make_capture(seed, scale=1.0):
    """Build the capture for `seed`; `scale` multiplies every flow count.

    At scale 1: 400 telemetry flows and 700 TCP sessions (1100 normal flows),
    400 SYN-scan flows and 10 floods of 1000 packets, about 100k packets.
    """
    rng = np.random.default_rng(seed)
    collector, server = _ip(10, 0, 0, 1), _ip(10, 0, 0, 2)
    b = _Builder()
    _telemetry(b, rng, round(400 * scale), collector)
    _sessions(b, rng, round(700 * scale), server)
    _scans(b, rng, round(400 * scale), [collector, server])
    _floods(b, rng, max(1, round(10 * scale)), collector, 1000)

    col = {k: np.concatenate(v) for k, v in b.cols.items()}
    ts = np.round(col["ts"]).astype(np.int64)
    order = np.argsort(ts, kind="stable")
    flow, ts = col["flow"][order], ts[order]
    fwd, size = col["fwd"][order], np.round(col["size"][order]).astype(np.int64)
    ttl, flags = col["ttl"][order], col["flags"][order]

    a_ip = np.array([f.a_ip for f in b.flows], dtype=np.uint32)[flow]
    b_ip = np.array([f.b_ip for f in b.flows], dtype=np.uint32)[flow]
    a_port = np.array([f.a_port for f in b.flows])[flow]
    b_port = np.array([f.b_port for f in b.flows])[flow]
    proto = np.array([f.proto for f in b.flows])[flow]

    rec = np.zeros(len(ts), dtype=_RECORD)
    rec["ts_sec"], rec["ts_usec"] = ts // 1_000_000, ts % 1_000_000
    rec["incl_len"], rec["orig_len"] = SNAPLEN, 14 + size
    rec["eth_dst"] = b"\x02\x00\x00\x00\x00\x01"
    rec["eth_src"] = b"\x02\x00\x00\x00\x00\x02"
    rec["ethertype"] = 0x0800
    rec["ver_ihl"], rec["total_len"] = 0x45, size
    rec["ident"] = np.arange(len(ts)) & 0xFFFF
    rec["ttl"], rec["proto"] = ttl, proto
    rec["src"], rec["dst"] = np.where(fwd, a_ip, b_ip), np.where(fwd, b_ip, a_ip)
    rec["sport"], rec["dport"] = np.where(fwd, a_port, b_port), np.where(fwd, b_port, a_port)
    is_tcp = proto == TCP
    rec["w1"] = np.where(is_tcp, np.arange(len(ts)), (size - 20) << 16)
    rec["off"] = np.where(is_tcp, 0x50, 0)
    rec["tcp_flags"] = np.where(is_tcp, flags, 0)
    data = _GLOBAL_HEADER + rec.tobytes()
    return Capture(data, b.flows, flow, ts, size)


def flow_table(cap):
    """Expected assemble_flows output, from the packet table alone.

    Returns (flow ids in order of first packet, packet counts, byte sums,
    durations in microseconds), all aligned.
    """
    n = len(cap.flows)
    first = np.full(n, cap.n_packets)
    np.minimum.at(first, cap.flow, np.arange(cap.n_packets))
    order = np.argsort(first, kind="stable")
    counts = np.bincount(cap.flow, minlength=n)
    sums = np.bincount(cap.flow, weights=cap.size, minlength=n).astype(np.int64)
    t_min = np.full(n, np.iinfo(np.int64).max)
    t_max = np.full(n, np.iinfo(np.int64).min)
    np.minimum.at(t_min, cap.flow, cap.ts_us)
    np.maximum.at(t_max, cap.flow, cap.ts_us)
    ids = [cap.flows[i].flow_id() for i in order]
    return ids, counts[order], sums[order], (t_max - t_min)[order]
