"""Independent reference implementations used as test oracles.

Everything here recomputes model quantities with plain Python loops straight
from their definitions, sharing no code paths with the library internals, so
the vectorized implementations are checked against a second derivation.
"""

import json
import math

import numpy as np

from cloudcut import (
    AffinityTable,
    Assignment,
    CloudModel,
    PricingMatrix,
    SocialGraph,
    default_profiles,
    load_graph,
    preference_matrix,
)


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


def naive_upload_volumes(graph):
    """Mean outgoing edge weight per user (0.0 without out-edges), the
    default upload volume, summed exactly with math.fsum."""
    src, _, weight = graph.edge_arrays()
    out = [[] for _ in range(graph.n_users)]
    for s, w in zip(src, weight):
        out[int(s)].append(float(w))
    return [math.fsum(ws) / len(ws) if ws else 0.0 for ws in out]


def naive_replication_cost(u, host, graph, model):
    cost = 0.0
    for e in graph.edges():
        if e.src == u:
            cost += 0.5 * model.pricing.rate(host[e.src], host[e.dst]) * e.weight
        if e.dst == u:
            cost += 0.5 * model.pricing.rate(host[e.src], host[e.dst]) * e.weight
    return cost


def naive_transfer_cost(host, graph, model):
    return sum(model.pricing.rate(host[e.src], host[e.dst]) * e.weight
               for e in graph.edges())


def naive_inter_cloud_cost(host, graph, model):
    return sum(model.pricing.rate(host[e.src], host[e.dst]) * e.weight
               for e in graph.edges() if host[e.src] != host[e.dst])


def naive_total_objective(host, graph, model, alpha, cost_weight=1.0, normalized=True):
    pref = 0.0
    for u in range(graph.n_users):
        pref += naive_preference_row(u, graph, model, normalized)[host[u]]
    return alpha * pref - (1.0 - alpha) * cost_weight * naive_transfer_cost(host, graph, model)


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
                  weight_scale=1.0, regions_per_cloud=1):
    """Random small instance with exact directed edge count."""
    rng = np.random.default_rng(seed)
    codes = rng.choice(n_users * (n_users - 1), size=n_edges, replace=False)
    src = codes // (n_users - 1)
    rem = codes % (n_users - 1)
    dst = rem + (rem >= src)
    w = rng.uniform(0.0, weight_scale, size=n_edges)
    graph = SocialGraph([f"u{i}" for i in range(n_users)], src, dst, w)

    R = n_clouds * regions_per_cloud
    affinity = AffinityTable(rng.uniform(0, 1, (n_users, R)),
                             rng.uniform(0, 1, (n_users, R)))
    if pricing == "uniform":
        pm = PricingMatrix.uniform(n_clouds)
    else:
        m = rng.uniform(0.2, 3.0, (n_clouds, n_clouds))
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
        nbrs, wout, win = graph.friend_arrays(x)
        cn = host[nbrs]
        a_out = np.bincount(cn, weights=wout, minlength=C)
        a_in = np.bincount(cn, weights=win, minlength=C)
        seats.append(P @ a_out + P.T @ a_in)
    seat_u, seat_v = seats
    delta_u = seat_u[d] - seat_u[c]
    delta_v = seat_v[c] - seat_v[d]
    e_uv = graph.edge_weight(u, v)
    e_vu = graph.edge_weight(v, u)
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
    psi = preference_matrix(graph, model, normalized=params.objective.use_normalized)
    host = np.argmax(psi, axis=1)
    P = model.pricing.matrix
    alpha = params.objective.alpha
    cost_scale = (1.0 - alpha) * params.objective.cost_weight

    ca, cb, cw = graph.connection_arrays()
    total_connections = ca.size
    order = np.lexsort((cb, ca, -cw))
    cross = order[host[ca[order]] != host[cb[order]]]

    budget_capped = params.termination_mode in ("budget", "both")
    threshold_capped = params.termination_mode in ("gain_threshold", "both")
    cap = math.ceil(params.touched_budget * total_connections) if budget_capped else None

    touched = examined = moves = 0
    stop_reason = "exhausted"
    for idx in cross:
        if cap is not None and touched >= cap:
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
        if threshold_capped and gain < params.min_gain:
            stop_reason = "gain_threshold"
            break
    if telemetry is not None:
        telemetry.write(json.dumps({
            "event": "summary", "touched": touched, "examined": examined,
            "moves": moves, "stop_reason": stop_reason,
            "total_connections": int(total_connections),
        }) + "\n")
    return Assignment(host)
