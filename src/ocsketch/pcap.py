"""Classic libpcap parsing and the canonical packet-record CSV format.

Only Ethernet captures are read (any other link type is an error), and only
Ethernet-II / IPv4 / {TCP, UDP} frames become records; everything else (VLAN,
IPv6, fragments, truncated frames) is skipped silently.
Packet size is the IPv4 total-length field, so link-layer padding does not
leak into features.
"""

import struct
from dataclasses import dataclass

CSV_HEADER = "timestamp_us,src_ip,src_port,dst_ip,dst_port,proto,size_bytes,ttl,tcp_flags"

# magic -> (endianness, ticks per second of the fractional field)
_MAGICS = {
    0xA1B2C3D4: ("<", 1_000_000),
    0xD4C3B2A1: (">", 1_000_000),
    0xA1B23C4D: ("<", 1_000_000_000),
    0x4D3CB2A1: (">", 1_000_000_000),
}

_LINKTYPE_ETHERNET = 1
_ETHERTYPE_IPV4 = 0x0800
_PROTO_TCP = 6
_PROTO_UDP = 17

# Ethernet-II and fixed IPv4 header in one read: ethertype, version/IHL, total
# length, flags/fragment offset, TTL, protocol, source and destination address
_ETH_IPV4 = struct.Struct(">12xHBxH2xHBB2x4s4s")
_PORTS = struct.Struct(">HH")


class PcapParseError(ValueError):
    """Malformed or truncated capture data."""


@dataclass(frozen=True)
class PacketRecord:
    """One parsed packet."""

    timestamp_us: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: str  # "TCP" or "UDP"
    size_bytes: int  # IPv4 total length
    ttl: int
    tcp_flags: int  # 8-bit mask; 0 for UDP


def parse_pcap(data):
    """Parse a classic libpcap byte stream into packet records.

    Parameters
    ----------
    data : bytes
        Full capture file contents. Microsecond and nanosecond magics are
        accepted in either byte order; nanoseconds are truncated to
        microseconds.

    Returns
    -------
    list of PacketRecord, in file order.

    Raises
    ------
    PcapParseError
        On a malformed global header, a link type other than Ethernet, or a
        record truncated mid-file (the error names the byte offset).
    """
    if len(data) < 24:
        raise PcapParseError(f"global header truncated: {len(data)} bytes < 24")
    magic = struct.unpack_from("<I", data)[0]
    if magic not in _MAGICS:
        raise PcapParseError(f"bad magic 0x{magic:08x}")
    endian, tick = _MAGICS[magic]
    # bits 26-31 of the field say whether frames end in an FCS, as in libpcap
    linktype = struct.unpack_from(endian + "I", data, 20)[0] & 0x03FFFFFF
    if linktype != _LINKTYPE_ETHERNET:
        raise PcapParseError(f"unsupported link type {linktype}: only Ethernet (1) is read")

    record_header = struct.Struct(endian + "IIII")
    view = memoryview(data)
    records = []
    offset = 24
    total = len(data)
    while offset < total:
        if offset + 16 > total:
            raise PcapParseError(f"record header truncated at byte offset {offset}")
        ts_sec, ts_frac, incl_len, _orig_len = record_header.unpack_from(data, offset)
        start = offset + 16
        offset = start + incl_len
        if offset > total:
            raise PcapParseError(f"packet data truncated at byte offset {start}")

        ts_us = ts_sec * 1_000_000 + (ts_frac if tick == 1_000_000 else ts_frac // 1000)
        record = _parse_frame(view[start:offset], ts_us)
        if record is not None:
            records.append(record)
    return records


def _parse_frame(frame, ts_us):
    """Decode one Ethernet-II frame; return None for anything unsupported."""
    if len(frame) < _ETH_IPV4.size:
        return None
    ethertype, version_ihl, total_length, flags_frag, ttl, proto, src, dst = (
        _ETH_IPV4.unpack_from(frame)
    )
    ihl = (version_ihl & 0x0F) * 4
    if (ethertype != _ETHERTYPE_IPV4 or version_ihl >> 4 != 4 or ihl < 20 or total_length < ihl
            or flags_frag & 0x3FFF  # MF set or nonzero fragment offset
            or proto not in (_PROTO_TCP, _PROTO_UDP)):
        return None
    transport = 14 + ihl
    if len(frame) < transport + (14 if proto == _PROTO_TCP else 4):
        return None
    src_port, dst_port = _PORTS.unpack_from(frame, transport)
    tcp = proto == _PROTO_TCP
    return PacketRecord(
        timestamp_us=ts_us,
        src_ip=_ip_str(src),
        dst_ip=_ip_str(dst),
        src_port=src_port,
        dst_port=dst_port,
        proto="TCP" if tcp else "UDP",
        size_bytes=total_length,
        ttl=ttl,
        tcp_flags=frame[transport + 13] if tcp else 0,
    )


def _ip_str(raw):
    return ".".join(str(b) for b in raw)


def _check_ip(text):
    """Require a dotted quad of canonical decimal octets, as pcap parsing writes."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {text!r}")
    for p in parts:
        v = int(p)
        # int() also takes leading zeros, spaces and "_"
        if str(v) != p or not 0 <= v <= 255:
            raise ValueError(f"bad IPv4 octet {p!r} in {text!r}")


def parse_packet_csv(text):
    """Parse the canonical packet CSV into records.

    The header line must match CSV_HEADER exactly; each data line maps
    field-for-field onto a PacketRecord. Errors name the (1-based) line.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"line 1: expected header {CSV_HEADER!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 9:
            raise ValueError(f"line {lineno}: expected 9 fields, got {len(fields)}")
        try:
            ts = int(fields[0])
            _check_ip(fields[1])
            src_port = int(fields[2])
            _check_ip(fields[3])
            dst_port = int(fields[4])
            proto = fields[5]
            size_bytes = int(fields[6])
            ttl = int(fields[7])
            tcp_flags = int(fields[8])
            if proto not in ("TCP", "UDP"):
                raise ValueError(f"unknown proto {proto!r}")
            if ts < 0:
                raise ValueError("negative timestamp")
            if not 0 <= src_port <= 65535 or not 0 <= dst_port <= 65535:
                raise ValueError("port out of range")
            if size_bytes < 20:
                raise ValueError("size_bytes below IPv4 minimum")
            if not 0 <= ttl <= 255:
                raise ValueError("ttl out of range")
            if not 0 <= tcp_flags <= 255:
                raise ValueError("tcp_flags out of range")
            if proto == "UDP" and tcp_flags != 0:
                raise ValueError("nonzero tcp_flags on UDP packet")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        records.append(
            PacketRecord(ts, fields[1], fields[3], src_port, dst_port, proto,
                         size_bytes, ttl, tcp_flags)
        )
    return records


def write_packet_csv(records):
    """Serialize records to the canonical CSV; exact inverse of parse_packet_csv."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.timestamp_us},{r.src_ip},{r.src_port},{r.dst_ip},{r.dst_port},"
            f"{r.proto},{r.size_bytes},{r.ttl},{r.tcp_flags}"
        )
    return "\n".join(lines) + "\n"
