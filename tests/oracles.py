"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: the percentile
oracle sorts a Python list, the QP oracle enumerates KKT partitions, the AUC
oracle counts pairs, the embedding oracle takes every kernel distance from
cdist, the density oracles sum Gaussians directly or factor every covariance
on every call, the kNN oracle argsorts whole distance rows, the merge-event
oracle runs one minimum spanning tree over every earlier-neighbor edge, the
core oracle runs the union-find sweep over every kNN edge, the pcap oracle
decodes a frame one field at a time, the flow oracles group PacketRecords in
a dict under a per-packet key and truncate flow by flow, and the
flow-feature oracles fill each row one packet at a time, taking their
quantiles from the percentile oracle.
"""

import itertools
import struct
from socket import inet_aton

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import cdist, pdist
from scipy.special import logsumexp

from ocsketch.flows import STATS_HEADER_DIM, TCP_FLAG_BITS, Flow
from ocsketch.kernel import nearest_rank, require_finite
from ocsketch.pcap import PacketRecord, PcapParseError


def gaussian_gram(X, Y, h):
    """Elementwise gram matrix via the scalar kernel definition."""
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)
    G = np.empty((len(X), len(Y)))
    for i, x in enumerate(X):
        for j, y in enumerate(Y):
            G[i, j] = np.exp(-np.sum((x - y) ** 2) / h**2)
    return G


def percentile(values, q):
    """kernel.percentile by sorting a Python list."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of empty input")
    return vals[nearest_rank(len(vals), q) - 1]


def quantile_bandwidth_one(X, q):
    """kernel.quantile_bandwidth as one pdist and one partition per quantile."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dists = pdist(X)
    rank = nearest_rank(len(dists), q) - 1
    dists.partition(rank)
    h = float(dists[rank])
    if h == 0.0:
        h = float(dists[dists > 0].min())
    return h


def ocsvm_qp(Q, nu):
    """Global minimum of 0.5 a'Qa s.t. 0 <= a <= 1/(nu n), sum a = 1.

    Enumerates all zero/box/free partitions; each candidate solves the
    equality-constrained stationarity system, keeps box-feasible solutions,
    and the best objective over candidates is the global optimum of the
    convex QP. Exponential in n; use only for n <= 10.
    """
    n = Q.shape[0]
    C = 1.0 / (nu * n)
    best_obj, best_alpha = None, None
    for assign in itertools.product((0, 1, 2), repeat=n):
        upper = [i for i, a in enumerate(assign) if a == 1]
        free = [i for i, a in enumerate(assign) if a == 2]
        alpha = np.zeros(n)
        alpha[upper] = C
        target = 1.0 - C * len(upper)
        if target < -1e-12:
            continue
        if not free:
            if abs(target) > 1e-12:
                continue
        else:
            k = len(free)
            A = np.zeros((k + 1, k + 1))
            A[:k, :k] = Q[np.ix_(free, free)]
            A[:k, -1] = -1.0  # stationarity multiplier for the sum constraint
            A[-1, :k] = 1.0
            b = np.zeros(k + 1)
            if upper:
                b[:k] = -C * Q[np.ix_(free, upper)].sum(axis=1)
            b[-1] = target
            sol, *_ = np.linalg.lstsq(A, b, rcond=None)
            if np.abs(A @ sol - b).max() > 1e-9:
                continue
            a_free = sol[:k]
            if np.any(a_free < -1e-12) or np.any(a_free > C + 1e-12):
                continue
            alpha[free] = np.clip(a_free, 0.0, C)
        obj = 0.5 * alpha @ Q @ alpha
        if best_obj is None or obj < best_obj:
            best_obj, best_alpha = obj, alpha
    return best_obj, best_alpha


def pairwise_auc(scores_normal, scores_novel):
    """O(n*m) pairwise AUC with half-credit ties."""
    wins = 0.0
    for a in scores_normal:
        for b in scores_novel:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(scores_normal) * len(scores_novel))


def naive_mixture_log_density(pi, mu, sigma, z):
    """Direct (non-log) mixture density, for points where it cannot underflow."""
    total = 0.0
    d = len(z)
    for w, m, S in zip(pi, mu, sigma):
        diff = z - m
        quad = diff @ np.linalg.solve(S, diff)
        norm = np.sqrt((2 * np.pi) ** d * np.linalg.det(S))
        total += w * np.exp(-0.5 * quad) / norm
    return np.log(total)


def _cholesky_log_terms(model, X):
    """(n, k) terms log pi_l + log N(x; mu_l, sigma_l), with cho_factor of
    every covariance on every call: solve against the Cholesky factor for the
    Mahalanobis term, log det from the factor's diagonal."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    comp = np.empty((n, len(model.pi)))
    for l in range(len(model.pi)):
        chol, lower = cho_factor(model.sigma[l], lower=True)
        diff = (X - model.mu[l]).T  # (d, n)
        maha = np.sum(diff * cho_solve((chol, lower), diff), axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        comp[:, l] = -0.5 * (d * np.log(2 * np.pi) + logdet + maha)
    with np.errstate(divide="ignore"):
        return comp + np.log(model.pi)


def log_pdf_cholesky(model, z):
    """Mixture log density: scipy's logsumexp over _cholesky_log_terms.
    Same signature and return type as gmm.log_pdf."""
    vals = logsumexp(_cholesky_log_terms(model, z), axis=1)
    return float(vals[0]) if np.ndim(z) == 1 else vals


def e_step_cholesky(model, X):
    """EM responsibilities and mean log-likelihood from _cholesky_log_terms
    and scipy's logsumexp. Same signature and return values as gmm.e_step."""
    joint = _cholesky_log_terms(model, X)
    norm = logsumexp(joint, axis=1, keepdims=True)
    return np.exp(joint - norm), float(np.mean(norm))


def nystrom_target_gram(K_II, K_IJ, d, eig_rtol=1e-12):
    """K_IJ' V Lambda^-1 V' K_IJ over the d largest retained eigenpairs."""
    eigvals, eigvecs = np.linalg.eigh(K_II)
    order = np.argsort(eigvals)[::-1][:d]
    lam, V = eigvals[order], eigvecs[:, order]
    keep = lam >= eig_rtol * lam[0]
    inv = V[:, keep] @ np.diag(1.0 / lam[keep]) @ V[:, keep].T
    return K_IJ.T @ inv @ K_IJ


def embed_cdist(model, X):
    """embed as a cdist gram against the landmarks, then P, with the kernel's
    exponent unfloored (so a far query's kernel values underflow to 0 or a
    subnormal). Same contract as embedding.embed."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.input_dim:
        raise ValueError(
            f"input dim {X.shape[1]} != landmark dim {model.input_dim}"
        )
    require_finite(X)
    K = np.exp(-cdist(X, model.landmarks, "sqeuclidean") / model.h**2)
    return K @ model.P.T


def knn_table_argsort(X, k_n):
    """kNN table from a full stable argsort of every distance row.

    Same contract as quickshift.knn_table: neighbors in ascending distance,
    ties by index, a point never its own neighbor, radius the k_n-th distance.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = cdist(X, X)
    order = np.argsort(d, axis=1, kind="stable")
    nbrs = np.empty((len(X), k_n), dtype=np.int64)
    for i, row in enumerate(order):
        nbrs[i] = row[row != i][:k_n]
    return nbrs, d[np.arange(len(X)), nbrs[:, -1]]


def merge_events_mst(nbrs, pos):
    """(step, t) of every merging edge from one MST over every earlier-neighbor edge.

    Same contract as quickshift._merge_events: edge (i, nbrs[i, t]) to a
    neighbor with smaller pos has key pos[i]*k_n + t, and the merging edges
    are the minimum spanning forest under those keys, in key order.
    """
    n, k_n = nbrs.shape
    rows, t = np.nonzero(pos[nbrs] < pos[:, None])
    keys = (pos[rows] * k_n + t + 1).astype(float)  # +1: csgraph drops zero weights
    forest = minimum_spanning_tree(coo_matrix((keys, (rows, nbrs[rows, t])), shape=(n, n)))
    events = np.sort(forest.data).astype(np.int64) - 1
    return events // k_n, events % k_n


def cluster_cores_sweep(densities, nbrs, beta):
    """Cluster cores from the full union-find sweep over every kNN edge.

    Visits points in decreasing density (ties by index) and each point's
    processed neighbors in table order; on a merge below log(1 - beta) of the
    absorbed component's peak, rescans all points to freeze that component's
    unfrozen members as a core. Same contract as quickshift.cluster_cores.
    """
    dens = np.asarray(densities, dtype=float)
    n = len(dens)
    order = np.lexsort((np.arange(n), -dens))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    log_gap = np.log(1.0 - beta)
    parent = np.full(n, -1)
    peak = np.full(n, -1)
    core_id = np.full(n, -1)
    n_cores = 0

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for step in range(n):
        i = order[step]
        parent[i] = i
        peak[i] = i
        for j in nbrs[i]:
            if pos[j] >= step:
                continue
            ra, rb = find(i), find(j)
            if ra == rb:
                continue
            da, db = dens[peak[ra]], dens[peak[rb]]
            if db > da or (db == da and peak[rb] < peak[ra]):
                ra, rb = rb, ra
            if dens[i] < dens[peak[rb]] + log_gap and core_id[peak[rb]] == -1:
                members = [p for p in range(n) if pos[p] <= step
                           and core_id[p] == -1 and find(p) == rb]
                core_id[members] = n_cores
                n_cores += 1
            parent[rb] = ra

    roots = {}
    for p in range(n):
        roots.setdefault(find(p), []).append(p)
    for r in sorted(roots, key=lambda r: (-dens[peak[r]], peak[r])):
        fresh = [p for p in roots[r]
                 if core_id[p] == -1 and dens[p] >= dens[peak[r]] + log_gap]
        if fresh:
            core_id[fresh] = n_cores
            n_cores += 1
    return [np.flatnonzero(core_id == c) for c in range(n_cores)]


# magic -> (endianness, ticks per second of the fractional field)
_MAGICS = {
    0xA1B2C3D4: ("<", 1_000_000),
    0xD4C3B2A1: (">", 1_000_000),
    0xA1B23C4D: ("<", 1_000_000_000),
    0x4D3CB2A1: (">", 1_000_000_000),
}

_ETHERTYPE_IPV4 = 0x0800
_PROTO_TCP = 6
_PROTO_UDP = 17


def parse_pcap_fieldwise(data):
    """pcap.parse_pcap before frames were decoded with one fixed-layout read.

    Same records and the same PcapParseError texts, except that it never
    reads the global header's link type.
    """
    if len(data) < 24:
        raise PcapParseError(f"global header truncated: {len(data)} bytes < 24")
    magic = struct.unpack("<I", data[:4])[0]
    if magic not in _MAGICS:
        raise PcapParseError(f"bad magic 0x{magic:08x}")
    endian, tick = _MAGICS[magic]

    records = []
    offset = 24
    total = len(data)
    while offset < total:
        if offset + 16 > total:
            raise PcapParseError(f"record header truncated at byte offset {offset}")
        ts_sec, ts_frac, incl_len, _orig_len = struct.unpack(
            endian + "IIII", data[offset : offset + 16]
        )
        if offset + 16 + incl_len > total:
            raise PcapParseError(f"packet data truncated at byte offset {offset + 16}")
        frame = data[offset + 16 : offset + 16 + incl_len]
        offset += 16 + incl_len

        ts_us = ts_sec * 1_000_000 + (ts_frac if tick == 1_000_000 else ts_frac // 1000)
        record = _parse_frame_fieldwise(frame, ts_us)
        if record is not None:
            records.append(record)
    return records


def _parse_frame_fieldwise(frame, ts_us):
    """Decode one Ethernet-II frame; return None for anything unsupported."""
    if len(frame) < 14:
        return None
    ethertype = struct.unpack(">H", frame[12:14])[0]
    if ethertype != _ETHERTYPE_IPV4:
        return None
    ip = frame[14:]
    if len(ip) < 20:
        return None
    version_ihl = ip[0]
    if version_ihl >> 4 != 4:
        return None
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl:
        return None
    total_length = struct.unpack(">H", ip[2:4])[0]
    if total_length < ihl:
        return None
    flags_frag = struct.unpack(">H", ip[6:8])[0]
    if flags_frag & 0x3FFF:  # MF set or nonzero fragment offset
        return None
    ttl = ip[8]
    proto = ip[9]
    if proto not in (_PROTO_TCP, _PROTO_UDP):
        return None
    transport = ip[ihl:]
    if len(transport) < 4:
        return None
    src_port, dst_port = struct.unpack(">HH", transport[:4])
    if proto == _PROTO_TCP:
        if len(transport) < 14:
            return None
        tcp_flags = transport[13]
        proto_name = "TCP"
    else:
        tcp_flags = 0
        proto_name = "UDP"
    return PacketRecord(
        timestamp_us=ts_us,
        src_ip=_ip_str(ip[12:16]),
        dst_ip=_ip_str(ip[16:20]),
        src_port=src_port,
        dst_port=dst_port,
        proto=proto_name,
        size_bytes=total_length,
        ttl=ttl,
        tcp_flags=tcp_flags,
    )


def _ip_str(raw):
    return ".".join(str(b) for b in raw)


def canonical_key(record):
    """Direction-independent 5-tuple: endpoints ordered by (address, port).

    inet_aton's 4 bytes order as the octets do, for the canonical dotted
    quads that parse_pcap and parse_packet_csv produce.
    """
    src, dst = record.src_ip, record.dst_ip
    if (inet_aton(src), record.src_port) <= (inet_aton(dst), record.dst_port):
        return (src, record.src_port, dst, record.dst_port, record.proto)
    return (dst, record.dst_port, src, record.src_port, record.proto)


def assemble_flows_dict(records):
    """flows.assemble_flows: a dict from canonical_key to a list of records.

    Flows come out in order of their first packet; each flow's list is
    sorted stably by timestamp.
    """
    groups = {}  # insertion order is first-packet order
    for rec in records:
        groups.setdefault(canonical_key(rec), []).append(rec)
    return [Flow(key, sorted(pkts, key=lambda r: r.timestamp_us))
            for key, pkts in groups.items()]


def truncate_flows_lists(flows, q=0.9):
    """flows.truncate_flows, one list comprehension per flow."""
    cutoff = percentile([f.duration_us for f in flows], q)
    out = []
    for f in flows:
        pkts = f.packets
        start = pkts[0].timestamp_us
        out.append(Flow(f.key, [p for p in pkts if p.timestamp_us <= start + cutoff]))
    return out


def _packet_budget(flows):
    return percentile([len(f.packets) for f in flows], 0.9)


def iat_size_loops(flows):
    """flows.iat_size_features' values, filled one packet at a time."""
    L = _packet_budget(flows)
    X = np.zeros((len(flows), 2 * L - 1))
    for i, f in enumerate(flows):
        pkts = f.packets[:L]
        times = [p.timestamp_us for p in pkts]
        for j in range(len(pkts) - 1):
            X[i, j] = times[j + 1] - times[j]
        for j, p in enumerate(pkts):
            X[i, L - 1 + j] = p.size_bytes
    return X


def stats_header_loops(flows):
    """flows.stats_header_features' values, flags counted one bit at a time."""
    X = np.zeros((len(flows), STATS_HEADER_DIM))
    for i, f in enumerate(flows):
        pkts = f.packets
        sizes = np.array([p.size_bytes for p in pkts], dtype=float)
        duration_s = f.duration_us / 1e6
        rate_denom = max(f.duration_us, 1) / 1e6
        X[i, 0] = duration_s
        X[i, 1] = len(pkts) / rate_denom
        X[i, 2] = sizes.sum() / rate_denom
        X[i, 3] = sizes.mean()
        X[i, 4] = sizes.std()
        X[i, 5] = percentile(sizes, 0.25)
        X[i, 6] = percentile(sizes, 0.5)
        X[i, 7] = percentile(sizes, 0.75)
        X[i, 8] = sizes.min()
        X[i, 9] = sizes.max()
        X[i, 10] = np.mean([p.ttl for p in pkts])
        for j, (_name, bit) in enumerate(TCP_FLAG_BITS):
            X[i, 11 + j] = sum(1 for p in pkts if p.tcp_flags & bit)
    return X


def samp_size_loops(flows, q=0.9):
    """flows.samp_size_features' values, binned one packet at a time."""
    L = _packet_budget(flows)
    delta = max(percentile([f.duration_us for f in flows], q) / L, 1.0)
    X = np.zeros((len(flows), L))
    for i, f in enumerate(flows):
        pkts = f.packets
        start = pkts[0].timestamp_us
        for p in pkts:
            b = int((p.timestamp_us - start) / delta)
            if b < L:
                X[i, b] += p.size_bytes
    return X
