"""Classic libpcap parsing and the canonical packet-record CSV format.

Only Ethernet captures are read (any other link type is an error), and only
Ethernet-II / IPv4 / {TCP, UDP} frames become records; everything else (VLAN,
IPv6, fragments, truncated frames) is skipped silently.
Packet size is the IPv4 total-length field, so link-layer padding does not
leak into features.

Parsed packets are a PacketTable: one frozen numpy column per field, decoded
from the whole capture at once. A PacketRecord is built only when a row is
read.
"""

import struct
from dataclasses import dataclass
from socket import inet_ntoa

import numpy as np

CSV_HEADER = "timestamp_us,src_ip,src_port,dst_ip,dst_port,proto,size_bytes,ttl,tcp_flags"

# magic -> (endianness, ticks per second of the fractional field)
PCAP_MAGICS = {
    0xA1B2C3D4: ("<", 1_000_000),
    0xD4C3B2A1: (">", 1_000_000),
    0xA1B23C4D: ("<", 1_000_000_000),
    0x4D3CB2A1: (">", 1_000_000_000),
}

_LINKTYPE_ETHERNET = 1
_ETHERTYPE_IPV4 = 0x0800
_PROTO_TCP = 6
_PROTO_UDP = 17
# Ethernet-II header plus the fixed 20-byte IPv4 header
_FIXED_HEADERS = 34


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


# PacketTable columns in PacketRecord field order; an address is the integer
# of its four octets, big-endian, and `is_tcp` stands for `proto`
_COLUMNS = {
    "timestamp_us": np.int64,
    "src_ip": np.uint32,
    "dst_ip": np.uint32,
    "src_port": np.uint16,
    "dst_port": np.uint16,
    "is_tcp": np.bool_,
    "size_bytes": np.uint16,
    "ttl": np.uint8,
    "tcp_flags": np.uint8,
}


class PacketTable:
    """Packets as frozen numpy columns, one row per packet.

    An integer index builds that row's PacketRecord and iteration builds every
    row's; any other index (a slice, a mask, an index array) gives a table of
    those rows. A table equals a table with the same columns, and a list or
    tuple of the records it holds.
    """

    __slots__ = tuple(_COLUMNS)

    def __init__(self, **columns):
        for name, dtype in _COLUMNS.items():
            col = np.asarray(columns[name], dtype=dtype)
            col.flags.writeable = False
            setattr(self, name, col)

    @classmethod
    def from_records(cls, records):
        """The table of a sequence of PacketRecords; an address that is not
        a canonical dotted quad raises ValueError naming it."""
        rows = [(r.timestamp_us, _check_ip(r.src_ip), _check_ip(r.dst_ip), r.src_port,
                 r.dst_port, _is_tcp(r.proto), r.size_bytes, r.ttl, r.tcp_flags)
                for r in records]
        return cls._from_rows(rows)

    @classmethod
    def _from_rows(cls, rows):
        columns = list(zip(*rows)) or [()] * len(_COLUMNS)
        return cls(**dict(zip(_COLUMNS, columns)))

    @classmethod
    def concat(cls, tables):
        """One table holding the rows of each table in turn."""
        return cls(**{name: np.concatenate([getattr(t, name) for t in tables])
                      for name in _COLUMNS})

    def __len__(self):
        return len(self.timestamp_us)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self[[index]]._records()[0]
        return PacketTable(**{name: getattr(self, name)[index] for name in _COLUMNS})

    def _records(self):
        """Every row as a PacketRecord, in order."""
        columns = [getattr(self, name).tolist() for name in _COLUMNS]
        text = {ip: _ip_str(ip) for ip in {*columns[1], *columns[2]}}
        columns[1] = [text[ip] for ip in columns[1]]
        columns[2] = [text[ip] for ip in columns[2]]
        columns[5] = ["TCP" if tcp else "UDP" for tcp in columns[5]]
        return [PacketRecord(*row) for row in zip(*columns)]

    def __iter__(self):
        return iter(self._records())

    def __eq__(self, other):
        if isinstance(other, PacketTable):
            return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _COLUMNS)
        if isinstance(other, (list, tuple)):
            return self._records() == list(other)
        return NotImplemented

    __hash__ = None


def _check_ip(text):
    """The integer of a dotted quad of canonical decimal octets, as pcap
    parsing writes them."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {text!r}")
    value = 0
    for p in parts:
        v = int(p)
        # int() also takes leading zeros, spaces and "_"
        if str(v) != p or not 0 <= v <= 255:
            raise ValueError(f"bad IPv4 octet {p!r} in {text!r}")
        value = value << 8 | v
    return value


def _ip_str(value):
    return inet_ntoa(value.to_bytes(4, "big"))


def _is_tcp(proto):
    if proto not in ("TCP", "UDP"):
        raise ValueError(f"unknown proto {proto!r}")
    return proto == "TCP"


def parse_pcap(data):
    """Parse a classic libpcap byte stream into a packet table.

    Parameters
    ----------
    data : bytes
        Full capture file contents. Microsecond and nanosecond magics are
        accepted in either byte order; nanoseconds are truncated to
        microseconds.

    Returns
    -------
    PacketTable, rows in file order.

    Raises
    ------
    PcapParseError
        On a malformed global header, a link type other than Ethernet, or a
        record truncated mid-file (the error names the byte offset).
    """
    if len(data) < 24:
        raise PcapParseError(f"global header truncated: {len(data)} bytes < 24")
    magic = struct.unpack_from("<I", data)[0]
    if magic not in PCAP_MAGICS:
        raise PcapParseError(f"bad magic 0x{magic:08x}")
    endian, tick = PCAP_MAGICS[magic]
    # bits 26-31 of the field say whether frames end in an FCS, as in libpcap
    linktype = struct.unpack_from(endian + "I", data, 20)[0] & 0x03FFFFFF
    if linktype != _LINKTYPE_ETHERNET:
        raise PcapParseError(f"unsupported link type {linktype}: only Ethernet (1) is read")

    return _decode_frames(data, _frame_starts(data, endian), endian, tick)


def _frame_starts(data, endian):
    """Byte offset of every frame, from one walk over the record headers."""
    incl_len = struct.Struct(endian + "I").unpack_from
    starts = []
    offset = 24
    total = len(data)
    while offset < total:
        if offset + 16 > total:
            raise PcapParseError(f"record header truncated at byte offset {offset}")
        start = offset + 16
        offset = start + incl_len(data, offset + 8)[0]
        if offset > total:
            raise PcapParseError(f"packet data truncated at byte offset {start}")
        starts.append(start)
    return np.array(starts, dtype=np.int64)


def _field(data, dtype):
    """A view of `data` whose element i is the `dtype` value at byte offset i,
    so one fancy index with an offset column gathers a header field."""
    dtype = np.dtype(dtype)
    return np.ndarray((len(data) - dtype.itemsize + 1,), dtype, buffer=data, strides=(1,))


def _decode_frames(data, starts, endian, tick):
    """Decode the frames at `starts`, one header field at a time over every
    frame. The skip rules are masks: a row is kept for each Ethernet-II IPv4
    TCP/UDP frame, not a fragment, that holds its transport header."""
    lengths = np.diff(starts, append=len(data) + 16) - 16
    u8 = np.frombuffer(data, dtype=np.uint8)
    be16, be32 = _field(data, ">u2"), _field(data, ">u4")
    whole = lengths >= _FIXED_HEADERS
    pos, lengths = starts[whole], lengths[whole]
    version_ihl = u8[pos + 14]
    ihl = (version_ihl & 0x0F).astype(np.int64) * 4
    total_length = be16[pos + 16]
    proto = u8[pos + 23]
    tcp = proto == _PROTO_TCP
    keep = ((be16[pos + 12] == _ETHERTYPE_IPV4) & (version_ihl >> 4 == 4) & (ihl >= 20)
            & (total_length >= ihl)
            & ((be16[pos + 20] & 0x3FFF) == 0)  # neither MF nor a fragment offset
            & (tcp | (proto == _PROTO_UDP))
            & (lengths >= 14 + ihl + np.where(tcp, 14, 4)))
    pos, tcp, total_length = pos[keep], tcp[keep], total_length[keep]
    transport = pos + 14 + ihl[keep]
    tcp_flags = np.zeros(len(pos), dtype=np.uint8)
    tcp_flags[tcp] = u8[transport[tcp] + 13]

    record_u32 = _field(data, endian + "u4")
    ts_frac = record_u32[pos - 12].astype(np.int64)
    timestamp_us = record_u32[pos - 16].astype(np.int64) * 1_000_000 + (
        ts_frac if tick == 1_000_000 else ts_frac // 1000)
    return PacketTable(timestamp_us=timestamp_us, src_ip=be32[pos + 26], dst_ip=be32[pos + 30],
                       src_port=be16[transport], dst_port=be16[transport + 2], is_tcp=tcp,
                       size_bytes=total_length, ttl=u8[pos + 22], tcp_flags=tcp_flags)


def parse_packet_csv(text):
    """Parse the canonical packet CSV into a packet table.

    The header line must match CSV_HEADER exactly; each data line maps
    field-for-field onto a PacketRecord. Errors name the (1-based) line.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"line 1: expected header {CSV_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 9:
            raise ValueError(f"line {lineno}: expected 9 fields, got {len(fields)}")
        try:
            ts = int(fields[0])
            src_ip = _check_ip(fields[1])
            src_port = int(fields[2])
            dst_ip = _check_ip(fields[3])
            dst_port = int(fields[4])
            proto = fields[5]
            size_bytes = int(fields[6])
            ttl = int(fields[7])
            tcp_flags = int(fields[8])
            is_tcp = _is_tcp(proto)
            if ts < 0:
                raise ValueError("negative timestamp")
            if ts >= 2**63:
                raise ValueError("timestamp above 2**63 - 1")
            if not 0 <= src_port <= 65535 or not 0 <= dst_port <= 65535:
                raise ValueError("port out of range")
            if size_bytes < 20:
                raise ValueError("size_bytes below IPv4 minimum")
            if size_bytes > 65535:
                raise ValueError("size_bytes above IPv4 maximum")
            if not 0 <= ttl <= 255:
                raise ValueError("ttl out of range")
            if not 0 <= tcp_flags <= 255:
                raise ValueError("tcp_flags out of range")
            if not is_tcp and tcp_flags != 0:
                raise ValueError("nonzero tcp_flags on UDP packet")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        rows.append((ts, src_ip, dst_ip, src_port, dst_port, is_tcp, size_bytes, ttl, tcp_flags))
    return PacketTable._from_rows(rows)


def write_packet_csv(records):
    """Serialize records (a PacketTable or PacketRecords) to the canonical
    CSV; exact inverse of parse_packet_csv."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.timestamp_us},{r.src_ip},{r.src_port},{r.dst_ip},{r.dst_port},"
            f"{r.proto},{r.size_bytes},{r.ttl},{r.tcp_flags}"
        )
    return "\n".join(lines) + "\n"
