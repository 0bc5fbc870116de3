"""Independent reference implementations used as test oracles.

Everything here recomputes model quantities with plain Python loops straight
from their definitions, or with scipy's sparse matrices and graph routines,
sharing no code paths with the library internals, so the vectorized
implementations are checked against a second derivation.
"""

import csv
import io
import itertools
import json
import math
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from cloudcut import (
    AffinityTable,
    Assignment,
    CloudModel,
    ParseError,
    PricingMatrix,
    SocialGraph,
    ValidationError,
    default_profiles,
)
from cloudcut import partition
from cloudcut.cloud import normalize_rows, preference_matrix
from cloudcut.graph import load_graph


def traced_peak(fn, *args):
    """(fn(*args), the most bytes tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def edge_weight(graph, u, v):
    """Weight of the directed edge u->v, 0.0 if absent."""
    src, dst, w = graph.edge_arrays()
    hit = (src == u) & (dst == v)
    return float(w[hit][0]) if hit.any() else 0.0


def friend_arrays(graph, u):
    """(neighbors, weight u->nbr, weight nbr->u) of u, neighbors ascending:
    u's row of the friend CSR."""
    off, nbr, wout, win = graph.friend_csr()
    sl = slice(off[u], off[u + 1])
    return nbr[sl], wout[sl], win[sl]


def naive_download_index(u, c, graph, model):
    total = 0.0
    for v in graph.friends(u):
        best = 0.0
        for s in range(model.n_regions):
            if model.region_cloud[s] == c:
                best = max(best, model.affinity.download[v, s])
        total += best
    return total


def naive_upload_index(u, c, model):
    best = 0.0
    for s in range(model.n_regions):
        if model.region_cloud[s] == c:
            best = max(best, model.affinity.upload[u, s])
    return best * float(model.upload_volume[u])


def naive_preference(u, c, graph, model):
    return (naive_download_index(u, c, graph, model)
            + float(model.blend_weight[u]) * naive_upload_index(u, c, model))


def naive_preference_row(u, graph, model, normalized):
    row = [naive_preference(u, c, graph, model) for c in range(model.n_clouds)]
    if not normalized:
        return row
    total = sum(row)
    if total <= 0.0:
        return [1.0 / model.n_clouds] * model.n_clouds
    return [x / total for x in row]


def friend_adjacency(graph):
    """The friend CSR as a scipy (users x users) matrix of ones."""
    off, nbr, _, _ = graph.friend_csr()
    n = graph.n_users
    return sparse.csr_matrix((np.ones(nbr.size), nbr, off), shape=(n, n))


def scipy_preference_matrix(graph, model):
    """The raw preference table with the download index as the sparse product
    friend adjacency @ best download table."""
    upload = model.best_upload * model.upload_volume[:, None]
    return friend_adjacency(graph) @ model.best_download + model.blend_weight[:, None] * upload


def scipy_least_member(graph):
    """The least user id in each user's connected component, from scipy's
    connected_components."""
    n_comp, comp = connected_components(friend_adjacency(graph), directed=False)
    least = np.full(n_comp, graph.n_users)
    np.minimum.at(least, comp, np.arange(graph.n_users))
    return least[comp]


def naive_upload_volumes(graph):
    """Mean outgoing edge weight per user (0.0 without out-edges), the
    default upload volume, summed exactly with math.fsum."""
    src, _, weight = graph.edge_arrays()
    out = [[] for _ in range(graph.n_users)]
    for s, w in zip(src, weight):
        out[int(s)].append(float(w))
    return [math.fsum(ws) / len(ws) if ws else 0.0 for ws in out]


def naive_transfer_cost(host, graph, model):
    P = model.pricing.matrix
    return sum(float(P[host[s], host[d]]) * float(w)
               for s, d, w in zip(*graph.edge_arrays()))


def replication_cost(u, assignment, graph, model):
    """User u's half-share of the priced traffic on its connections."""
    P = model.pricing.matrix
    h = assignment.host
    total = 0.0
    for s, d, w in zip(*graph.edge_arrays()):
        if u in (s, d):
            total += 0.5 * float(P[h[s], h[d]]) * float(w)
    return total


def naive_inter_cloud_cost(host, graph, model):
    P = model.pricing.matrix
    return sum(float(P[host[s], host[d]]) * float(w)
               for s, d, w in zip(*graph.edge_arrays()) if host[s] != host[d])


def naive_total_objective(host, graph, model, alpha, cost_weight=1.0, normalized=True):
    pref = 0.0
    for u in range(graph.n_users):
        pref += naive_preference_row(u, graph, model, normalized)[host[u]]
    return alpha * pref - (1.0 - alpha) * cost_weight * naive_transfer_cost(host, graph, model)


_CASES = ("keep", "move_u", "move_v", "move_both")


@dataclass(frozen=True)
class RehostMove:
    """One candidate re-hosting of a cross-cloud pair.

    case "move_u" sends u to v's cloud, "move_v" sends v to u's cloud,
    "move_both" sends both to target (a cloud distinct from either side).
    """

    u: int
    v: int
    case: str
    target: int | None = None

    def __post_init__(self):
        if self.case not in _CASES[1:]:
            raise ValidationError(f"case must be one of {_CASES[1:]}")
        if self.case == "move_both" and self.target is None:
            raise ValidationError("move_both requires a target cloud")


def apply_move(host, move):
    """New host array with a re-hosting move applied."""
    out = np.asarray(host).copy()
    if move.case == "move_u":
        out[move.u] = out[move.v]
    elif move.case == "move_v":
        out[move.v] = out[move.u]
    else:
        out[move.u] = out[move.v] = move.target
    return out


def naive_move_cost_delta(move, host, graph, model):
    """Change in total priced traffic caused by a move, by full recompute."""
    return (naive_transfer_cost(apply_move(host, move), graph, model)
            - naive_transfer_cost(host, graph, model))


def kernel_pair_gains(u, v, host, graph, model, alpha, cost_weight=1.0, normalized=True):
    """(move_u, move_v, move_both row over clouds) of one pair: not an oracle,
    but the walk's own kernel, partition._batch_gains, with a batch of one."""
    psi = preference_matrix(graph, model)
    if normalized:
        psi = normalize_rows(psi)
    gain_u, gain_v, joint = partition._batch_gains(
        np.array([u]), np.array([v]),
        np.array([edge_weight(graph, u, v)]), np.array([edge_weight(graph, v, u)]),
        np.asarray(host), psi, graph.friend_csr(), model.pricing.matrix,
        alpha, (1.0 - alpha) * cost_weight)
    return float(gain_u[0]), float(gain_v[0]), joint[0]


# -- instance builders -------------------------------------------------------

def two_user_instance(pricing=None):
    """Mutual pair with hand-checked preferences.

    psi(u0) = (3.8, 1.2), psi(u1) = (1.3, 1.7); upload volumes default to the
    mean outgoing weight (4 and 2), blend weight 1.  Under alpha = 0.5 and
    0/1 pricing the best assignment co-hosts both users on cloud 0.
    """
    graph = load_graph([("u0", "u1", 4.0), ("u1", "u0", 2.0)])
    download = [[0.9, 0.5], [0.6, 0.4]]
    upload = [[0.8, 0.2], [0.2, 0.6]]
    vol, blend = default_profiles(graph)
    model = CloudModel(["A", "B"], ["rA", "rB"], [0, 1],
                       pricing or PricingMatrix.uniform(2),
                       AffinityTable(download, upload), vol, blend)
    return graph, model

def make_instance(seed, n_users=10, n_clouds=3, n_edges=20, pricing="uniform",
                  weight_scale=1.0, regions_per_cloud=1, weight_levels=None):
    """Random small instance with exact directed edge count.

    pricing is "uniform" (flat 0/1), "random" (random inter-cloud prices,
    free intra-cloud traffic) or "random_intra" (random prices on the
    diagonal too).  weight_levels, when given, is the set the edge weights
    are drawn from, so that weights tie.
    """
    rng = np.random.default_rng(seed)
    codes = rng.choice(n_users * (n_users - 1), size=n_edges, replace=False)
    src = codes // (n_users - 1)
    rem = codes % (n_users - 1)
    dst = rem + (rem >= src)
    w = rng.uniform(0.0, weight_scale, size=n_edges)
    if weight_levels is not None:
        w = rng.choice(np.asarray(weight_levels, dtype=np.float64), size=n_edges)
    graph = SocialGraph([f"u{i}" for i in range(n_users)], src, dst, w)

    R = n_clouds * regions_per_cloud
    affinity = AffinityTable(rng.uniform(0, 1, (n_users, R)),
                             rng.uniform(0, 1, (n_users, R)))
    if pricing == "uniform":
        pm = PricingMatrix.uniform(n_clouds)
    else:
        m = rng.uniform(0.2, 3.0, (n_clouds, n_clouds))
        if pricing == "random":
            np.fill_diagonal(m, 0.0)
        pm = PricingMatrix(m)
    vol, blend = default_profiles(graph)
    model = CloudModel(
        [f"c{k}" for k in range(n_clouds)],
        [f"r{j}" for j in range(R)],
        np.arange(R, dtype=np.int64) % n_clouds,
        pm, affinity, vol, blend,
    )
    return graph, model


# -- the per-pair re-hosting walk --------------------------------------------

def naive_pair_gains(u, v, host, psi, graph, P, alpha, cost_scale):
    """(move_u, move_v, move_both, third cloud) gains of one cross-cloud pair,
    from per-user flow vectors built on the spot."""
    C = P.shape[0]
    c, d = int(host[u]), int(host[v])
    seats = []
    for x in (u, v):
        nbrs, wout, win = friend_arrays(graph, x)
        cn = host[nbrs]
        a_out = np.bincount(cn, weights=wout, minlength=C)
        a_in = np.bincount(cn, weights=win, minlength=C)
        seats.append(P @ a_out + P.T @ a_in)
    seat_u, seat_v = seats
    delta_u = seat_u[d] - seat_u[c]
    delta_v = seat_v[c] - seat_v[d]
    e_uv = edge_weight(graph, u, v)
    e_vu = edge_weight(graph, v, u)
    seat_u_solo = seat_u - (P[:, d] * e_uv + P[d, :] * e_vu)
    seat_v_solo = seat_v - (P[:, c] * e_vu + P[c, :] * e_uv)
    pair_delta = np.diag(P) * (e_uv + e_vu) - (P[c, d] * e_uv + P[d, c] * e_vu)
    delta_joint = (seat_u_solo - seat_u_solo[c]) + (seat_v_solo - seat_v_solo[d]) + pair_delta

    gain_u = alpha * (psi[u, d] - psi[u, c]) - cost_scale * delta_u
    gain_v = alpha * (psi[v, c] - psi[v, d]) - cost_scale * delta_v
    if C > 2:
        pref_joint = psi[u, :] + psi[v, :] - psi[u, c] - psi[v, d]
        joint = alpha * pref_joint - cost_scale * delta_joint
        joint[c] = -np.inf
        joint[d] = -np.inf
        f = int(np.argmax(joint))
        gain_joint = float(joint[f])
    else:
        f = None
        gain_joint = -np.inf
    return float(gain_u), float(gain_v), gain_joint, f


def naive_walk(graph, model, params, telemetry=None):
    """The re-hosting walk one pair at a time: every examined pair is scored
    from scratch, and each telemetry line is written as soon as it is known."""
    psi = preference_matrix(graph, model)
    if params.objective.use_normalized:
        psi = normalize_rows(psi)
    host = np.argmax(psi, axis=1)
    P = model.pricing.matrix
    alpha = params.objective.alpha
    cost_scale = (1.0 - alpha) * params.objective.cost_weight

    ca, cb, e_ab, e_ba = graph.connection_arrays()
    cw = e_ab + e_ba
    total_connections = ca.size
    order = np.lexsort((cb, ca, -cw))
    cross = order[host[ca[order]] != host[cb[order]]]
    cap = math.ceil(params.touched_budget * total_connections)

    touched = examined = moves = 0
    stop_reason = "exhausted"
    for idx in cross:
        if touched >= cap:
            stop_reason = "budget"
            break
        touched += 1
        u, v = int(ca[idx]), int(cb[idx])
        c, d = int(host[u]), int(host[v])
        if c == d:
            continue
        examined += 1
        gain_u, gain_v, gain_both, f = naive_pair_gains(u, v, host, psi, graph, P,
                                                        alpha, cost_scale)
        case, gain = "keep", 0.0
        for option, g in (("move_u", gain_u), ("move_v", gain_v), ("move_both", gain_both)):
            if g > gain:
                case, gain = option, g
        target = None
        if case == "move_u":
            host[u] = target = d
        elif case == "move_v":
            host[v] = target = c
        elif case == "move_both":
            target = f
            host[u] = host[v] = target
        if case != "keep":
            moves += 1
        if telemetry is not None:
            telemetry.write(json.dumps({
                "event": "examine", "u": u, "v": v, "weight": float(cw[idx]),
                "case": case, "gain": gain,
                "target": target,
            }) + "\n")
        if gain < params.min_gain:
            stop_reason = "gain_threshold"
            break
    if telemetry is not None:
        telemetry.write(json.dumps({
            "event": "summary", "touched": touched, "examined": examined,
            "moves": moves, "stop_reason": stop_reason,
            "total_connections": int(total_connections),
        }) + "\n")
    return Assignment(host)


# -- the per-row loaders -------------------------------------------------------
#
# The CSV loaders as they were before they read whole columns, one row at a
# time.  The changes: naive_load_graph strips surrounding whitespace from
# labels, as the other loaders always did, and every loader reads its file
# through naive_csv_rows, which reads all rows before any is checked.

def naive_csv_rows(path):
    """csv.reader's rows of a file.  Text that is not UTF-8 raises ParseError
    naming the first line that does not decode on its own, and text csv
    cannot split raises ParseError naming csv's line."""
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("text is not valid UTF-8", lineno) from None
    reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None


def naive_load_graph(source):
    records = naive_csv_rows(source) if isinstance(source, (str, Path)) else source
    labels = []
    ids = {}

    def intern(lab, rownum):
        if not isinstance(lab, str) or not lab:
            raise ParseError("user label must be a non-empty string", rownum)
        i = ids.get(lab)
        if i is None:
            i = len(labels)
            ids[lab] = i
            labels.append(lab)
        return i

    src, dst, wt = [], [], []
    for rownum, rec in enumerate(records, start=1):
        if len(rec) != 3:
            raise ParseError(f"expected 3 fields, got {len(rec)}", rownum)
        a, b, w = rec
        a = a.strip() if isinstance(a, str) else a
        b = b.strip() if isinstance(b, str) else b
        ia = intern(a, rownum)
        ib = intern(b, rownum)
        if ia == ib:
            raise ParseError(f"self-loop on user {a!r}", rownum)
        try:
            w = float(w)
        except (TypeError, ValueError):
            raise ParseError(f"bad weight {w!r}", rownum) from None
        if not np.isfinite(w) or w < 0:
            raise ParseError(f"weight must be finite and non-negative, got {w}", rownum)
        src.append(ia)
        dst.append(ib)
        wt.append(w)
    return SocialGraph(labels, src, dst, wt)


def naive_load_affinities(path, graph, region_labels, ignore_unknown_users=False):
    user_ids = {lab: i for i, lab in enumerate(graph.labels)}
    region_ids = {lab: i for i, lab in enumerate(region_labels)}
    table = np.zeros((2, graph.n_users, len(region_labels)))  # download, upload
    for lineno, row in enumerate(naive_csv_rows(path), start=1):
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", lineno)
        ulab, rlab = row[0].strip(), row[1].strip()
        u = user_ids.get(ulab)
        if u is None:
            if ignore_unknown_users:
                continue
            raise ParseError(f"unknown user {ulab!r}", lineno)
        if rlab not in region_ids:
            raise ParseError(f"unknown region {rlab!r}", lineno)
        try:
            dl, ul = float(row[2]), float(row[3])
        except ValueError:
            raise ParseError("bad affinity value", lineno) from None
        if not (math.isfinite(dl) and math.isfinite(ul) and dl >= 0 and ul >= 0):
            raise ParseError(f"affinities must be finite and non-negative, got {dl}, {ul}",
                             lineno)
        table[:, u, region_ids[rlab]] = dl, ul
    return AffinityTable(*table)


def naive_load_profiles(path, graph, region_labels=None, ignore_unknown_users=False):
    vol, blend = default_profiles(graph)
    vol = vol.copy()
    blend = blend.copy()
    home = np.full(graph.n_users, -1, dtype=np.int64)
    user_ids = {lab: i for i, lab in enumerate(graph.labels)}
    region_ids = {lab: i for i, lab in enumerate(region_labels or ())}
    for lineno, row in enumerate(naive_csv_rows(path), start=1):
        if len(row) not in (3, 4):
            raise ParseError(f"expected 3 or 4 fields, got {len(row)}", lineno)
        ulab = row[0].strip()
        u = user_ids.get(ulab)
        if u is None:
            if ignore_unknown_users:
                continue
            raise ParseError(f"unknown user {ulab!r}", lineno)
        try:
            vol[u] = float(row[1])
            blend[u] = float(row[2])
        except ValueError:
            raise ParseError("bad profile value", lineno) from None
        if vol[u] < 0 or blend[u] < 0 or not (math.isfinite(vol[u]) and math.isfinite(blend[u])):
            raise ParseError("profile values must be finite and non-negative", lineno)
        if len(row) == 4:
            rlab = row[3].strip()
            if rlab not in region_ids:
                raise ParseError(f"unknown region {rlab!r}", lineno)
            home[u] = region_ids[rlab]
    return vol, blend, home


def naive_load_regions(path):
    cloud_labels, region_labels, region_cloud, coords = [], [], [], []
    cloud_index, region_index = {}, {}
    for lineno, row in enumerate(naive_csv_rows(path), start=1):
        if len(row) not in (2, 4):
            raise ParseError(f"expected 2 or 4 fields, got {len(row)}", lineno)
        region, cloud = row[0].strip(), row[1].strip()
        if not region or not cloud:
            raise ParseError("empty label", lineno)
        if region in region_index:
            raise ParseError(f"duplicate region {region!r}", lineno)
        if cloud not in cloud_index:
            cloud_index[cloud] = len(cloud_labels)
            cloud_labels.append(cloud)
        region_index[region] = len(region_labels)
        region_labels.append(region)
        region_cloud.append(cloud_index[cloud])
        if len(row) == 4:
            try:
                x, y = float(row[2]), float(row[3])
            except ValueError:
                raise ParseError("bad coordinate", lineno) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"coordinates must be finite, got {x}, {y}", lineno)
            coords.append((x, y))
    if not region_labels:
        raise ParseError("region file has no rows")
    if coords and len(coords) != len(region_labels):
        raise ParseError("coordinates must be given for all regions or none")
    xy = np.array(coords) if coords else None
    return tuple(cloud_labels), tuple(region_labels), np.array(region_cloud, dtype=np.int64), xy


def naive_load_pricing(path):
    rows = naive_csv_rows(path)
    if not rows or len(rows[0]) < 2:
        raise ParseError("pricing matrix needs a header row of cloud labels", 1)
    header = [c.strip() for c in rows[0][1:]]
    n = len(header)
    if len(set(header)) != n:
        raise ParseError("duplicate cloud label in pricing header", 1)
    if len(rows) - 1 != n:
        raise ParseError(f"expected {n} price rows, one per header cloud, "
                         f"got {len(rows) - 1}", len(rows))
    m = np.zeros((n, n))
    row_labels = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise ParseError(f"expected {n + 1} fields, got {len(row)}", lineno)
        row_labels.append(row[0].strip())
        for j, cell in enumerate(row[1:]):
            try:
                m[lineno - 2, j] = float(cell)
            except ValueError:
                raise ParseError(f"bad price {cell!r}", lineno) from None
        if not np.all((m[lineno - 2] >= 0) & (m[lineno - 2] < math.inf)):
            raise ParseError("prices must be finite and non-negative", lineno)
    if row_labels != header:
        raise ParseError("pricing row labels must match header order", len(rows))
    return tuple(header), PricingMatrix(m)


def naive_read_assignment(path, graph, model):
    host = np.full(graph.n_users, -1, dtype=np.int64)
    user_ids = {lab: i for i, lab in enumerate(graph.labels)}
    cloud_ids = {lab: c for c, lab in enumerate(model.cloud_labels)}
    for lineno, row in enumerate(naive_csv_rows(path), start=1):
        if len(row) != 2:
            raise ValidationError(f"line {lineno}: expected 2 fields")
        ulab, clab = row[0].strip(), row[1].strip()
        if ulab not in user_ids:
            raise ValidationError(f"line {lineno}: unknown user label {ulab!r}")
        u = user_ids[ulab]
        if host[u] >= 0:
            raise ValidationError(f"line {lineno}: duplicate user {row[0]!r}")
        if clab not in cloud_ids:
            raise ValidationError(f"line {lineno}: unknown cloud label {clab!r}")
        host[u] = cloud_ids[clab]
    if np.any(host < 0):
        missing = graph.label_of(int(np.nonzero(host < 0)[0][0]))
        raise ValidationError(f"assignment missing user {missing!r}")
    return Assignment(host)


def naive_graph_arrays(n_users, src, dst, weight):
    """The arrays a SocialGraph derives from its edge records, by dict and
    sort: (edges, friend CSR, connections).

    Duplicate pairs are summed in record order starting from 0.0; friend
    slots and connections hold the weight of each direction (0.0 when
    absent).
    """
    merged = {}
    for s, d, w in zip(src, dst, weight):
        merged[(s, d)] = merged.get((s, d), 0.0) + w
    edges = sorted(merged)
    slots = {}
    for (s, d) in edges:
        slots.setdefault((s, d), [0.0, 0.0])[0] = merged[(s, d)]
        slots.setdefault((d, s), [0.0, 0.0])[1] = merged[(s, d)]
    friend = sorted(slots)
    friend_off = [0] * (n_users + 1)
    for r, _ in friend:
        friend_off[r + 1] += 1
    pairs = sorted({(min(s, d), max(s, d)) for s, d in edges})
    return {
        "src": [s for s, _ in edges],
        "dst": [d for _, d in edges],
        "weight": [merged[e] for e in edges],
        "friend_offsets": list(itertools.accumulate(friend_off)),
        "friend_col": [c for _, c in friend],
        "friend_out": [slots[k][0] for k in friend],
        "friend_in": [slots[k][1] for k in friend],
        "conn_a": [a for a, _ in pairs],
        "conn_b": [b for _, b in pairs],
        "conn_ab": [merged.get((a, b), 0.0) for a, b in pairs],
        "conn_ba": [merged.get((b, a), 0.0) for a, b in pairs],
    }


def naive_decay_affinity(user_xy, region_xy, scale):
    """(users x regions) rows of 1 / (1 + dist / scale), dist the Euclidean
    distance summed coordinate by coordinate from 0.0."""
    table = []
    for ux in user_xy:
        row = []
        for rx in region_xy:
            sq = 0.0
            for a, b in zip(ux, rx):
                sq += (a - b) * (a - b)
            row.append(1.0 / (1.0 + math.sqrt(sq) / scale))
        table.append(row)
    return table


def naive_best_per_cloud(table, region_cloud, n_clouds):
    """(users x clouds) rows: each user's largest entry over each cloud's
    regions, starting from 0.0 (so a cloud without regions, or whose entries
    are all zeros, gets 0.0)."""
    out = []
    for row in table:
        best = [0.0] * n_clouds
        for s, x in enumerate(row):
            if x > best[region_cloud[s]]:
                best[region_cloud[s]] = x
        out.append(best)
    return out
