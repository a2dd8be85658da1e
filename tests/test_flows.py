import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import canonical_key, iat_size_loops, samp_size_loops, stats_header_loops
from ocsketch.flows import (
    IAT_SIZE,
    SAMP_SIZE,
    STATS_HEADER,
    assemble_flows,
    iat_size_features,
    samp_size_features,
    stats_header_features,
    truncate_flows,
)
from ocsketch.kernel import percentile
from ocsketch.pcap import PacketRecord


def pkt(ts, src="10.0.0.1", dst="10.0.0.2", sport=100, dport=200, proto="UDP",
        size=60, ttl=64, flags=0):
    return PacketRecord(ts, src, dst, sport, dport, proto, size, ttl, flags)


def test_percentile_by_hand():
    assert percentile(range(1, 11), 0.9) == 9
    assert percentile([5], 0.5) == 5
    assert percentile([1, 1, 2], 0.25) == 1


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


# octets 9 / 10 and 99 / 100 order one way as integers and the other as strings
_octet = st.one_of(st.sampled_from([0, 9, 10, 99, 100, 255]), st.integers(0, 255))
_endpoint = st.tuples(st.tuples(_octet, _octet, _octet, _octet), st.sampled_from([9, 10, 80]))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_endpoint, _endpoint)
def test_canonical_key_orders_endpoints_by_octets(a, b):
    (lo_ip, lo_port), (hi_ip, hi_port) = sorted([a, b])
    want = (".".join(map(str, lo_ip)), lo_port, ".".join(map(str, hi_ip)), hi_port, "UDP")
    for (src, sport), (dst, dport) in ((a, b), (b, a)):
        rec = pkt(0, ".".join(map(str, src)), ".".join(map(str, dst)), sport, dport)
        assert canonical_key(rec) == want
        assert assemble_flows([rec])[0].key == want


def test_assemble_bidirectional():
    records = [pkt(0), pkt(5, src="10.0.0.2", dst="10.0.0.1", sport=200, dport=100)]
    flows = assemble_flows(records)
    assert len(flows) == 1
    assert len(flows[0].packets) == 2


def test_assemble_proto_in_key():
    records = [pkt(0, proto="TCP", flags=0x10), pkt(1, proto="UDP")]
    assert len(assemble_flows(records)) == 2


def test_assemble_empty():
    assert assemble_flows([]) == []


def test_assemble_partitions_input():
    rng = np.random.default_rng(0)
    records = [
        pkt(int(rng.integers(0, 100)), sport=int(rng.integers(1, 4)),
            dport=int(rng.integers(1, 4)))
        for _ in range(50)
    ]
    flows = assemble_flows(records)
    regrouped = [p for f in flows for p in f.packets]
    assert sorted(regrouped, key=lambda r: (r.timestamp_us, r.src_port, r.dst_port)) == \
        sorted(records, key=lambda r: (r.timestamp_us, r.src_port, r.dst_port))
    for f in flows:
        times = [p.timestamp_us for p in f.packets]
        assert times == sorted(times)


def test_assemble_flow_order_by_first_packet():
    records = [pkt(0, sport=2), pkt(1, sport=1), pkt(2, sport=2)]
    flows = assemble_flows(records)
    assert [f.packets[0].timestamp_us for f in flows] == [0, 1]


def test_truncate_by_hand():
    # 10 flows with durations 1..10 s; cutoff is the 9 s duration
    flows = []
    for i in range(1, 11):
        flows.append(assemble_flows(
            [pkt(0, sport=i), pkt(i * 1_000_000, sport=i)])[0])
    out = truncate_flows(flows, 0.9)
    # the 10 s flow loses its last packet; all others unchanged
    assert [len(f.packets) for f in out] == [2] * 9 + [1]


def test_truncate_same_duration_unchanged():
    flows = assemble_flows([pkt(0, sport=1), pkt(10, sport=1),
                            pkt(0, sport=2), pkt(10, sport=2)])
    out = truncate_flows(flows, 0.9)
    assert [len(f.packets) for f in out] == [2, 2]


def test_truncate_single_packet_flows():
    flows = assemble_flows([pkt(0, sport=1), pkt(5, sport=2)])
    assert [len(f.packets) for f in truncate_flows(flows, 0.9)] == [1, 1]


def test_truncate_idempotent():
    rng = np.random.default_rng(1)
    records = [pkt(int(rng.integers(0, 10**7)), sport=int(rng.integers(1, 6)))
               for _ in range(60)]
    once = truncate_flows(assemble_flows(records), 0.9)
    twice = truncate_flows(once, 0.9)
    assert [f.packets for f in once] == [f.packets for f in twice]


def test_iat_size_by_hand():
    flows = assemble_flows([pkt(0, size=100), pkt(2, size=200), pkt(5, size=150)])
    fm = iat_size_features(flows)
    assert fm.feature_kind == IAT_SIZE
    assert fm.dim == 5
    assert np.array_equal(fm.values[0], [2, 3, 100, 200, 150])


def test_iat_size_dim_is_odd():
    # Table-1 style consistency: D = 23 implies a 12-packet budget
    assert 2 * 12 - 1 == 23
    rng = np.random.default_rng(2)
    records = [pkt(int(rng.integers(0, 1000)), sport=int(rng.integers(1, 5)))
               for _ in range(40)]
    fm = iat_size_features(assemble_flows(records))
    assert fm.dim % 2 == 1


def test_iat_size_padding():
    # L = 3 from the longer flow; the 1-packet flow pads to [0,0,size,0,0]
    records = [pkt(0, sport=1, size=10), pkt(1, sport=1, size=20),
               pkt(2, sport=1, size=30), pkt(0, sport=2, size=99)]
    fm = iat_size_features(assemble_flows(records))
    assert np.array_equal(fm.values[1], [0, 0, 99, 0, 0])


def test_iat_size_truncates_long_flows():
    # budget L = 2 comes from percentile({2, 2, 2, 2, 2, 2, 2, 2, 2, 5}) = 2
    records = []
    for i in range(1, 10):
        records += [pkt(0, sport=i), pkt(1, sport=i)]
    records += [pkt(j, sport=99, size=10 * (j + 1)) for j in range(5)]
    fm = iat_size_features(assemble_flows(records))
    assert fm.dim == 3
    assert np.array_equal(fm.values[-1], [1, 10, 20])


def test_stats_header_single_udp_packet():
    fm = stats_header_features(assemble_flows([pkt(0, size=60, ttl=64)]))
    assert fm.feature_kind == STATS_HEADER
    expected = [0, 1e6, 6e7, 60, 0, 60, 60, 60, 60, 60, 64] + [0] * 8
    assert np.array_equal(fm.values[0], expected)


def test_stats_header_two_packets():
    flows = assemble_flows([pkt(0), pkt(1_000_000)])
    v = stats_header_features(flows).values[0]
    assert v[0] == 1.0  # duration in seconds
    assert v[1] == 2.0  # packets per second
    assert v[4] == 0.0  # identical sizes


def test_stats_header_flag_counts():
    flows = assemble_flows([
        pkt(0, proto="TCP", flags=0x02),  # SYN
        pkt(1, proto="TCP", flags=0x10),  # ACK
    ])
    v = stats_header_features(flows).values[0]
    fin, syn, rst, psh, ack, urg, ece, cwr = v[11:19]
    assert (syn, ack) == (1, 1)
    assert (fin, rst, psh, urg, ece, cwr) == (0, 0, 0, 0, 0, 0)


def test_samp_size_one_packet_per_bin():
    # three 2-packet flows of duration 40 us set delta = 40/L; the probe
    # flow's 4 packets at 0,10,20,30 then land one per bin
    records = []
    for s in range(1, 4):
        records += [pkt(0, sport=s), pkt(40, sport=s)]
    records += [pkt(t * 10, sport=9, size=100 + t) for t in range(4)]
    flows = assemble_flows(records)
    fm = samp_size_features(flows, 0.9)
    assert fm.feature_kind == SAMP_SIZE
    assert fm.dim == 4  # packet-count budget L = 4
    assert np.array_equal(fm.values[-1], [100, 101, 102, 103])


def test_samp_size_padding_and_truncation():
    records = [pkt(t * 10, sport=1, size=10) for t in range(4)]  # 30 us span
    records += [pkt(t * 20, sport=2, size=10) for t in range(4)]  # 60 us span
    flows = assemble_flows(records)
    fm = samp_size_features(flows, 0.9)
    assert fm.dim == 4
    # delta = 60/4 = 15: flow 1 fits bins {0,0,1,2} -> [20,10,10,0] (padded);
    # flow 2 hits bins {0,1,2,4} -> last packet truncated
    assert np.array_equal(fm.values[0], [20, 10, 10, 0])
    assert np.array_equal(fm.values[1], [10, 10, 10, 0])


def test_featurization_deterministic():
    rng = np.random.default_rng(3)
    records = [pkt(int(rng.integers(0, 10**6)), sport=int(rng.integers(1, 6)),
                   size=int(rng.integers(20, 1500)))
               for _ in range(80)]
    flows = truncate_flows(assemble_flows(records), 0.9)
    for fn in (iat_size_features, stats_header_features, samp_size_features):
        assert np.array_equal(fn(flows).values, fn(flows).values)


# one flow: 1-40 packets of (timestamp, size, ttl, TCP flags)
_flow_packets = st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(20, 65535), st.integers(0, 255),
              st.integers(0, 255)),
    min_size=1, max_size=40,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(_flow_packets, min_size=1, max_size=12))
def test_features_match_packet_loops(specs):
    records = [pkt(ts, sport=i + 1, proto="TCP", size=size, ttl=ttl, flags=flags)
               for i, spec in enumerate(specs) for ts, size, ttl, flags in spec]
    flows = assemble_flows(records)
    assert np.array_equal(iat_size_features(flows).values, iat_size_loops(flows))
    assert np.array_equal(stats_header_features(flows).values, stats_header_loops(flows))
    assert np.array_equal(samp_size_features(flows).values, samp_size_loops(flows))
