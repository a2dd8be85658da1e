import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assemble_flows_dict,
    iat_size_loops,
    parse_pcap_fieldwise,
    samp_size_loops,
    stats_header_loops,
    truncate_flows_lists,
)
from ocsketch.flows import (
    assemble_flows,
    iat_size_features,
    samp_size_features,
    stats_header_features,
    truncate_flows,
)
from ocsketch.pcap import (
    CSV_HEADER,
    PacketRecord,
    PacketTable,
    PcapParseError,
    parse_packet_csv,
    parse_pcap,
    write_packet_csv,
)


def global_header(endian="<", magic=0xA1B2C3D4, linktype=1):
    return struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)


def ipv4_frame(src="10.0.0.1", dst="10.0.0.2", sport=53, dport=4000, proto=17,
               total_length=60, ttl=64, tcp_flags=0, frag=0):
    eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x0800)
    src_b = bytes(int(p) for p in src.split("."))
    dst_b = bytes(int(p) for p in dst.split("."))
    ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total_length, 1, frag, ttl,
                     proto, 0, src_b, dst_b)
    if proto == 6:
        transport = struct.pack(">HHIIBBHHH", sport, dport, 0, 0, 0x50,
                                tcp_flags, 8192, 0, 0)
    else:
        transport = struct.pack(">HHHH", sport, dport, total_length - 20, 0)
    payload = b"\x00" * max(0, total_length - 20 - len(transport))
    return eth + ip + transport + payload


def record_header(frame, ts_sec, ts_frac, endian="<"):
    return struct.pack(endian + "IIII", ts_sec, ts_frac, len(frame), len(frame))


def one_udp_capture(endian="<", magic=0xA1B2C3D4, ts_frac=0):
    frame = ipv4_frame()
    return global_header(endian, magic) + record_header(frame, 1, ts_frac, endian) + frame


EXAMPLE_RECORD = PacketRecord(
    timestamp_us=1_000_000, src_ip="10.0.0.1", dst_ip="10.0.0.2",
    src_port=53, dst_port=4000, proto="UDP", size_bytes=60, ttl=64, tcp_flags=0,
)


def test_parse_single_udp_packet():
    assert parse_pcap(one_udp_capture()) == [EXAMPLE_RECORD]


def test_parse_empty_capture():
    assert parse_pcap(global_header()) == []


def test_byte_swapped_magic_gives_identical_output():
    # the same capture re-serialized big-endian: reading the magic
    # little-endian yields the swapped constant
    swapped = one_udp_capture(endian=">", magic=0xA1B2C3D4)
    assert struct.unpack("<I", swapped[:4])[0] == 0xD4C3B2A1
    assert parse_pcap(swapped) == parse_pcap(one_udp_capture())


def test_nanosecond_magic_truncates_to_microseconds():
    cap = one_udp_capture(magic=0xA1B23C4D, ts_frac=123_456_789)
    rec = parse_pcap(cap)[0]
    assert rec.timestamp_us == 1_000_000 + 123_456


def test_tcp_flags_extracted():
    frame = ipv4_frame(proto=6, tcp_flags=0x12, total_length=40)  # SYN+ACK
    cap = global_header() + record_header(frame, 2, 500, "<") + frame
    rec = parse_pcap(cap)[0]
    assert rec.proto == "TCP"
    assert rec.tcp_flags == 0x12
    assert rec.timestamp_us == 2_000_500


def test_non_ipv4_frames_skipped_silently():
    arp = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x0806) + b"\x00" * 28
    udp = ipv4_frame()
    cap = (global_header()
           + record_header(arp, 1, 0) + arp
           + record_header(udp, 2, 0) + udp)
    records = parse_pcap(cap)
    assert len(records) == 1
    assert records[0].timestamp_us == 2_000_000


def test_fragments_and_icmp_skipped():
    frag = ipv4_frame(frag=0x2000)  # MF set
    icmp = ipv4_frame(proto=1)
    cap = (global_header()
           + record_header(frag, 1, 0) + frag
           + record_header(icmp, 2, 0) + icmp)
    assert parse_pcap(cap) == []


def test_ipv4_options_honored_via_ihl():
    # IHL = 6 words: 4 bytes of options between header and UDP
    src_b, dst_b = bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])
    ip = struct.pack(">BBHHHBBH4s4s", 0x46, 0, 64, 1, 0, 64, 17, 0, src_b, dst_b)
    ip += b"\x01\x01\x01\x00"  # options
    udp = struct.pack(">HHHH", 7, 9, 40, 0) + b"\x00" * 32
    frame = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack(">H", 0x0800) + ip + udp
    rec = parse_pcap(global_header() + record_header(frame, 1, 0) + frame)[0]
    assert (rec.src_port, rec.dst_port) == (7, 9)
    assert rec.size_bytes == 64


def test_bad_magic_fatal():
    with pytest.raises(PcapParseError):
        parse_pcap(struct.pack("<IHHiIII", 0xDEADBEEF, 2, 4, 0, 0, 65535, 1))
    with pytest.raises(PcapParseError):
        parse_pcap(b"\x00" * 10)


@pytest.mark.parametrize("endian", ["<", ">"])
@pytest.mark.parametrize("linktype", [101, 113, 228])  # raw IP, Linux cooked, raw IPv4
def test_non_ethernet_link_type_fatal(endian, linktype):
    frame = ipv4_frame()[14:]  # what a raw-IP capture holds
    cap = (global_header(endian, linktype=linktype)
           + record_header(frame, 1, 0, endian) + frame)
    with pytest.raises(PcapParseError, match=f"unsupported link type {linktype}"):
        parse_pcap(cap)


def test_ethernet_with_fcs_bits_in_link_type_field():
    # bits 26-31 of the field say a 4-byte FCS ends each frame; the link
    # type in the lower bits is still Ethernet
    frame = ipv4_frame() + b"\xde\xad\xbe\xef"
    cap = (global_header(linktype=(1 << 28) | (1 << 26) | 1)
           + record_header(frame, 1, 0) + frame)
    assert parse_pcap(cap) == [EXAMPLE_RECORD]


def test_truncated_record_names_offset():
    cap = one_udp_capture()[:-5]
    with pytest.raises(PcapParseError, match="byte offset 40"):
        parse_pcap(cap)
    with pytest.raises(PcapParseError, match="byte offset 24"):
        parse_pcap(global_header() + b"\x00" * 7)


def test_csv_example_line():
    text = CSV_HEADER + "\n1000000,10.0.0.1,53,10.0.0.2,4000,UDP,60,64,0\n"
    assert parse_packet_csv(text) == [EXAMPLE_RECORD]
    assert write_packet_csv([EXAMPLE_RECORD]) == text


def test_csv_header_only():
    assert parse_packet_csv(CSV_HEADER + "\n") == []
    assert write_packet_csv([]) == CSV_HEADER + "\n"


def test_csv_unknown_proto_names_line():
    text = (CSV_HEADER + "\n"
            "1000000,10.0.0.1,53,10.0.0.2,4000,UDP,60,64,0\n"
            "1000001,10.0.0.1,53,10.0.0.2,4000,ICMP,60,64,0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_packet_csv(text)


# "10.0.0.١" ends in an Arabic-Indic digit, which int() reads
@pytest.mark.parametrize("address", ["010.0.0.1", " 10.0.0.1", "1_0.0.0.1", "10.0.0.+1",
                                     "10.0.0.256", "10.0.0.-1", "10.0.0", "10.0..1",
                                     "10.0.0.x", "10.0.0.١"])
def test_csv_non_canonical_address_names_line(address):
    text = (CSV_HEADER + "\n"
            "1000000,10.0.0.1,53,10.0.0.2,4000,UDP,60,64,0\n"
            f"1000001,10.0.0.2,4000,{address},53,UDP,60,64,0\n")
    with pytest.raises(ValueError, match="line 3: bad IPv4 .*" + re.escape(repr(address))):
        parse_packet_csv(text)


@pytest.mark.parametrize("address", ["010.0.0.1", "10.1", "1.2.3.256", "10.0.0.x", "10.0.0.١"])
def test_from_records_rejects_non_canonical_address(address):
    for field in ("src_ip", "dst_ip"):
        record = dataclasses.replace(EXAMPLE_RECORD, **{field: address})
        with pytest.raises(ValueError, match=re.escape(repr(address))):
            PacketTable.from_records([record])


def test_from_records_roundtrips_through_csv():
    records = [dataclasses.replace(EXAMPLE_RECORD, src_ip="0.0.0.0", dst_ip="255.255.255.255"),
               dataclasses.replace(EXAMPLE_RECORD, src_ip="192.168.10.100", timestamp_us=7)]
    table = PacketTable.from_records(records)
    assert parse_packet_csv(write_packet_csv(table)) == table
    assert list(table) == records


def test_csv_bad_field_names_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_packet_csv(CSV_HEADER + "\nnot_a_number,10.0.0.1,53,10.0.0.2,4000,UDP,60,64,0\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_packet_csv("wrong,header\n")
    # the table's fixed-width columns: an IPv4 total length and a signed 64-bit timestamp
    with pytest.raises(ValueError, match="line 2: size_bytes above IPv4 maximum"):
        parse_packet_csv(CSV_HEADER + "\n0,10.0.0.1,53,10.0.0.2,4000,UDP,65536,64,0\n")
    with pytest.raises(ValueError, match="line 2: timestamp above"):
        parse_packet_csv(CSV_HEADER + f"\n{2**63},10.0.0.1,53,10.0.0.2,4000,UDP,60,64,0\n")
    assert parse_packet_csv(CSV_HEADER + f"\n{2**63 - 1},10.0.0.1,53,10.0.0.2,4000,UDP,65535,64,0\n")[0] \
        == PacketRecord(2**63 - 1, "10.0.0.1", "10.0.0.2", 53, 4000, "UDP", 65535, 64, 0)


def random_record(rng):
    proto = "TCP" if rng.integers(2) else "UDP"
    return PacketRecord(
        timestamp_us=int(rng.integers(0, 2**40)),
        src_ip=".".join(str(rng.integers(0, 256)) for _ in range(4)),
        dst_ip=".".join(str(rng.integers(0, 256)) for _ in range(4)),
        src_port=int(rng.integers(0, 65536)),
        dst_port=int(rng.integers(0, 65536)),
        proto=proto,
        size_bytes=int(rng.integers(20, 65536)),
        ttl=int(rng.integers(0, 256)),
        tcp_flags=int(rng.integers(0, 256)) if proto == "TCP" else 0,
    )


def test_csv_roundtrip_property():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        records = [random_record(rng) for _ in range(rng.integers(1, 8))]
        assert parse_packet_csv(write_packet_csv(records)) == records


def test_pcap_parse_deterministic():
    frames = [ipv4_frame(sport=p) for p in (1, 2, 3)]
    cap = global_header() + b"".join(
        record_header(f, i, 0) + f for i, f in enumerate(frames)
    )
    assert parse_pcap(cap) == parse_pcap(cap)
    assert len(parse_pcap(cap)) == 3


def snapped_capture(seed, n_packets=12):
    """TCP and UDP frames cut to a 54-byte snap length, as perfbench/capture.py writes.

    The IPv4 total length keeps each packet's size on the wire, so it exceeds
    the captured frame, as in a real snap-length capture.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_packets):
        tcp = bool(rng.integers(2))
        frame = ipv4_frame(sport=int(rng.integers(1024, 65536)), dport=5683,
                           proto=6 if tcp else 17,
                           total_length=int(rng.integers(40, 1400)),
                           tcp_flags=int(rng.integers(0, 256)) if tcp else 0)[:54]
        records.append(record_header(frame, i, int(rng.integers(0, 10**6))) + frame)
    return global_header() + b"".join(records)


def odd_frames():
    """Frames the parser must skip or decode through a non-default path."""
    eth = b"\xaa" * 6 + b"\xbb" * 6
    udp, tcp = ipv4_frame(), ipv4_frame(proto=6, tcp_flags=0x18, total_length=40)
    ip_opts = struct.pack(">BBHHHBBH4s4s", 0x46, 0, 64, 1, 0, 64, 6, 0,
                          bytes([10, 0, 0, 3]), bytes([10, 0, 0, 4])) + b"\x01" * 4
    tcp_opts = eth + b"\x08\x00" + ip_opts + tcp[34:]
    vlan = eth + b"\x81\x00\x00\x05" + udp[12:]
    ipv6 = (eth + b"\x86\xdd" + struct.pack(">IHBB", 6 << 28, 8, 17, 64)
            + bytes(range(32)) + udp[34:42])
    return [
        udp, tcp, tcp_opts, tcp_opts[:14 + 24 + 13], vlan, ipv6,
        ipv4_frame(frag=0x2000), ipv4_frame(frag=0x0010), ipv4_frame(proto=6, frag=0x4000),
        tcp[:14 + 20 + 13], tcp[:14 + 20 + 3], udp[:14 + 20 + 3], udp[:14 + 19], udp[:13],
    ]


def mixed_capture(seed, linktype):
    """snapped_capture's frames plus odd_frames, under the given link type."""
    cap = bytearray(snapped_capture(seed))
    cap[20:24] = struct.pack("<I", linktype)
    for i, frame in enumerate(odd_frames()):
        cap += record_header(frame, 100 + i, 0) + frame
    return cap


def header_link_type(cap):
    """The link type an intact global header declares, or None."""
    endian = {0xA1B2C3D4: "<", 0xA1B23C4D: "<", 0xD4C3B2A1: ">", 0x4D3CB2A1: ">"}.get(
        struct.unpack_from("<I", cap)[0] if len(cap) >= 24 else None)
    return None if endian is None else struct.unpack_from(endian + "I", cap, 20)[0] & 0x03FFFFFF


def parse_or_error(parse, cap):
    try:
        return parse(cap)
    except PcapParseError as exc:
        return str(exc)


def test_odd_frames_by_hand():
    cap = global_header() + b"".join(record_header(f, 1, 0) + f for f in odd_frames())
    # plain UDP, plain TCP, TCP behind 4 bytes of IPv4 options and TCP with
    # only DF set; VLAN, IPv6, fragments and short headers are skipped
    assert [(r.src_ip, r.proto, r.tcp_flags) for r in parse_pcap(cap)] == [
        ("10.0.0.1", "UDP", 0), ("10.0.0.1", "TCP", 0x18),
        ("10.0.0.3", "TCP", 0x18), ("10.0.0.1", "TCP", 0),
    ]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 1, 1, 101, 113]), st.data())
def test_damaged_capture_parses_or_raises_parse_error(seed, linktype, data):
    cap = mixed_capture(seed, linktype)
    cut = data.draw(st.one_of(st.just(len(cap)), st.integers(0, len(cap))))
    del cap[cut:]
    for _ in range(data.draw(st.integers(0, 4)) if cap else 0):
        cap[data.draw(st.integers(0, len(cap) - 1))] = data.draw(st.integers(0, 255))
    cap = bytes(cap)
    got = parse_or_error(parse_pcap, cap)
    declared = header_link_type(cap)
    if declared in (None, 1):
        # the old field-at-a-time decoder gives the same records or error text
        assert got == parse_or_error(parse_pcap_fieldwise, cap)
        assert isinstance(got, str) or all(isinstance(r, PacketRecord) for r in got)
    else:
        assert got == f"unsupported link type {declared}: only Ethernet (1) is read"


def endpoint_frame(src, dst, sport, dport, tcp, total_length, ttl, tcp_flags, ihl_words):
    """An Ethernet-II / IPv4 frame with ihl_words - 5 words of IPv4 options."""
    ip = struct.pack(">BBHHHBBH4s4s", 0x40 | ihl_words, 0, total_length, 1, 0, ttl,
                     6 if tcp else 17, 0, src, dst) + b"\x01" * (4 * (ihl_words - 5))
    transport = (struct.pack(">HHIIBBHHH", sport, dport, 0, 0, 0x50, tcp_flags, 8192, 0, 0)
                 if tcp else struct.pack(">HHHH", sport, dport, 8, 0))
    return b"\xaa" * 6 + b"\xbb" * 6 + b"\x08\x00" + ip + transport


# few addresses and ports, so flows hold several packets in both directions;
# equal addresses make a flow whose endpoints differ only by port
_address = st.sampled_from([bytes([10, 0, 0, 1]), bytes([9, 0, 0, 200]), bytes([10, 0, 0, 10])])
_port = st.sampled_from([53, 40000])
# few distinct (second, fraction) pairs, so timestamps repeat inside a flow
_endpoint_packet = st.tuples(
    _address, _address, _port, _port, st.booleans(), st.integers(0, 3),
    st.sampled_from([0, 1, 999_999]), st.integers(60, 1500), st.integers(0, 255),
    st.integers(0, 255), st.sampled_from([5, 5, 6, 15]))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1), st.lists(_endpoint_packet, max_size=80),
       st.sampled_from([0, 2**40 // 10**6, 2**32 - 4]), st.randoms(use_true_random=False))
def test_ingest_matches_object_path_oracles(seed, packets, base_sec, rnd):
    """parse -> assemble -> truncate -> the three families equal the
    per-packet oracles: records, flow ids, each flow's records, matrices."""
    parts = _records_of(snapped_capture(seed, n_packets=4))
    parts += [record_header(f, 100, 0) + f for f in odd_frames()]
    for src, dst, sport, dport, tcp, sec, frac, size, ttl, flags, ihl in packets:
        frame = endpoint_frame(src, dst, sport, dport, tcp, size, ttl, flags if tcp else 0, ihl)
        parts.append(record_header(frame, base_sec + sec, frac) + frame)
    rnd.shuffle(parts)  # file order is not time order
    cap = global_header() + b"".join(parts)

    table = parse_pcap(cap)
    records = parse_pcap_fieldwise(cap)
    assert table == records
    flows, want = assemble_flows(table), assemble_flows_dict(records)
    assert [f.flow_id() for f in flows] == [f.flow_id() for f in want]
    assert [f.packets for f in flows] == [f.packets for f in want]
    assert [f.packets for f in assemble_flows(records)] == [f.packets for f in want]
    cut, cut_want = truncate_flows(flows), truncate_flows_lists(want)
    assert [f.packets for f in cut] == [f.packets for f in cut_want]
    assert np.array_equal(iat_size_features(cut).values, iat_size_loops(cut_want))
    assert np.array_equal(stats_header_features(cut).values, stats_header_loops(cut_want))
    assert np.array_equal(samp_size_features(cut).values, samp_size_loops(cut_want))


def _records_of(cap):
    """The (record header + frame) byte strings of a little-endian capture."""
    out, offset = [], 24
    while offset < len(cap):
        incl_len = struct.unpack_from("<I", cap, offset + 8)[0]
        out.append(cap[offset:offset + 16 + incl_len])
        offset += 16 + incl_len
    return out
