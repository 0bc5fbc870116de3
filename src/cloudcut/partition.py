"""Two-phase placement heuristic, exhaustive oracle, and reference baselines.

Phase one hosts every user on the cloud it prefers most.  Phase two walks the
cross-cloud social connections once, heaviest combined propagation weight
first, and for each pair (u, v) hosted on clouds (c, d) scores four options:

  keep       leave both users where they are (gain 0 by definition)
  move_u     re-host u onto d
  move_v     re-host v onto c
  move_both  re-host both onto the best third cloud f

The gain of a move is the preference change it buys minus the weighted change
in priced traffic it causes over every edge incident to the moved user(s),
neighbors on third clouds included, so an applied gain equals the change in
the placement score.  The option with the largest gain is applied (ties keep
users put), and the walk stops when a touched-connection budget is spent or
the best gain falls below a threshold, whichever comes first.

The walk reads at most a budget's worth of cross pairs, so only those are
ordered: np.partition finds the weight of the last pair it can reach, and
one stable sort orders the pairs at least that heavy.  connection_arrays()
lists pairs by (a, b), so equal weights keep that order, and a run of equal
weights at the cut comes in whole, so the prefix is exactly that of a full
sort by (-weight, a, b).

The walk is windowed.  It takes the next _WINDOW pairs of that order,
scores every pair of the window that is still cross-cloud in one batched
kernel call, then visits the pairs one by one exactly as an unwindowed walk
would.  A pair's gains depend only on the clouds of its two users and of
their friends, so they go stale only when one of these users moves (the
gain-locality argument of Fiduccia and Mattheyses, DAC 1982).  When a user
moves, it and its friends are marked dirty.  At the first pair examined with
a dirty endpoint, one round rescores, in one kernel call, every pair left in
the window that is still cross-cloud and has a dirty endpoint, and clears
the marks.  A pair rescored in a round is rescored again if a later move
dirties it, and a pair that turns cross-cloud later has a mover as an
endpoint, so no pair is decided on stale gains.  The kernel gives every
element the same operations in the same order whatever the batch, so the
walk makes the same choices, with bit-identical gains, as one that scores
each pair just before it decides.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cloud import preference_matrix
from .errors import SearchSpaceError, ValidationError
from .objective import Assignment, ObjectiveParams

_WINDOW = 256  # sorted pairs scored per batched kernel call


@dataclass(frozen=True)
class HeuristicParams:
    """Knobs of the re-hosting walk, which stops at whichever stop comes first.

    min_gain is the stop threshold on the per-connection best gain (score
    units); the best gain is never below keep's 0.0, so min_gain <= 0 never
    stops the walk.  touched_budget is the fraction of all connections the
    walk may pop before stopping; 1.0 lets it reach every cross pair.
    """

    objective: ObjectiveParams
    min_gain: float = 0.0
    touched_budget: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.touched_budget <= 1.0:
            raise ValidationError("touched_budget must lie in [0, 1]")
        if not math.isfinite(self.min_gain):
            raise ValidationError("min_gain must be finite")


def _batch_gains(us, vs, e_uv, e_vu, host, psi, friends, P, alpha, cost_scale):
    """Gains of B candidate pairs (us[i], vs[i]) under the hosting host.

    Returns (move_u, move_v, move_both): two length-B vectors and a B x C
    matrix whose entry f is the gain of moving both users onto cloud f (-inf
    where f is either user's current cloud).  e_uv / e_vu are the weights of
    the directed edges u->v and v->u.  friends is the graph's friend CSR.
    cost_scale folds (1 - alpha) * cost_weight into one factor.

    Every element is computed with the same operations in the same order as
    when the pair is scored on its own, so a gain does not depend on which
    batch it was scored in.
    """
    off, nbr, wout, win = friends
    B, C = us.size, P.shape[0]
    # both endpoints side by side: row i is us[i], row B + i is vs[i]
    users = np.concatenate([us, vs])
    r = np.arange(2 * B)
    own = host[users]
    other = np.concatenate([own[B:], own[:B]])
    e_out = np.concatenate([e_uv, e_vu])[:, None]  # user -> partner
    e_in = np.concatenate([e_vu, e_uv])[:, None]   # partner -> user

    # gather all 2B friend lists in order; bincount sums each user's flows in
    # neighbor order, like one bincount per user
    starts = off[users]
    lens = off[users + 1] - starts
    slot = np.repeat(r, lens)
    pos = np.arange(slot.size) + (starts - (np.cumsum(lens) - lens))[slot]
    key = slot * C + host[nbr[pos]]
    a_out = np.bincount(key, weights=wout[pos], minlength=2 * B * C).reshape(2 * B, C, 1)
    a_in = np.bincount(key, weights=win[pos], minlength=2 * B * C).reshape(2 * B, C, 1)
    # seat[i, x]: priced traffic on the user's edges if it sat on x; the
    # stacked products run one gemv per user, as for a single pair
    seat = (np.matmul(P, a_out) + np.matmul(P.T, a_in))[:, :, 0]
    delta = seat[r, other] - seat[r, own]
    # score both single moves with the mutual edge removed, then re-add it
    solo = seat - (P.T[other] * e_out + P[other] * e_in)
    rel = solo - solo[r, own][:, None]
    c, d = own[:B], other[:B]
    pair_delta = (P.diagonal() * (e_uv + e_vu)[:, None]
                  - (P[c, d] * e_uv + P[d, c] * e_vu)[:, None])
    delta_joint = rel[:B] + rel[B:] + pair_delta

    pref = psi[users]
    pref_own = pref[r, own]
    gain = alpha * (pref[r, other] - pref_own) - cost_scale * delta
    joint = (alpha * (pref[:B] + pref[B:] - pref_own[:B, None] - pref_own[B:, None])
             - cost_scale * delta_joint)
    joint[r % B, own] = -np.inf
    return gain[:B], gain[B:], joint


def initial_hosting(graph, model):
    """Host every user on its most-preferred cloud (lowest id wins ties)."""
    psi = preference_matrix(graph, model, normalized=False)
    return Assignment(np.argmax(psi, axis=1))


def run_heuristic(graph, model, params, telemetry=None):
    """Preference-first hosting followed by one cost-aware re-hosting walk.

    Walks the cross-cloud connections of the initial hosting once, in
    non-increasing combined-weight order, applying the best-gain move per
    pair.  telemetry, when given, is a writable text stream receiving one
    JSON line per examined connection and a final summary line.
    """
    if model.n_users != graph.n_users:
        raise ValidationError("model and graph disagree on user count")
    psi = preference_matrix(graph, model, normalized=params.objective.use_normalized)
    host = np.argmax(psi, axis=1)
    P = model.pricing.matrix
    alpha = params.objective.alpha
    cost_scale = (1.0 - alpha) * params.objective.cost_weight

    ca, cb, e_ab, e_ba = graph.connection_arrays()
    cw = e_ab + e_ba
    friends = graph.friend_csr()
    total_connections = ca.size
    # the cross pairs in (a, b) order; every pair the walk reaches is
    # touched, so the budget caps the prefix it can read
    cross = np.flatnonzero(host[ca] != host[cb])
    n_cross = cross.size
    end = min(n_cross, math.ceil(params.touched_budget * total_connections))
    # sort only the pairs at least as heavy as the end-th heaviest, stably,
    # so equal weights keep (a, b) order (see the module docstring)
    key = -cw[cross]
    if 0 < end < n_cross:
        heavy = key <= np.partition(key, end - 1)[end - 1]
        cross, key = cross[heavy], key[heavy]
    cross = cross[np.argsort(key, kind="stable")[:end]]

    def score(idx):
        """[(move_u, move_v, move_both, third cloud)] per connection in idx."""
        gain_u, gain_v, joint = _batch_gains(ca[idx], cb[idx], e_ab[idx], e_ba[idx], host,
                                             psi, friends, P, alpha, cost_scale)
        f = np.argmax(joint, axis=1)
        both = joint[np.arange(idx.size), f]
        return list(zip(gain_u.tolist(), gain_v.tolist(), both.tolist(), f.tolist()))

    off, nbr = friends[0].tolist(), friends[1]
    hosts = host.tolist()  # scalar reads; host stays the array the kernel reads
    # movers and their friends since the last scoring; only the marks of the
    # window's endpoints are read, and these are cleared whenever scored
    mark = np.zeros(graph.n_users, dtype=bool)
    dirty = memoryview(mark)  # scalar reads and writes of mark
    rows = []  # telemetry
    touched = examined = moves = 0
    stop_reason = "exhausted"
    while touched < end and stop_reason == "exhausted":
        window = cross[touched:min(touched + _WINDOW, end)]
        wa, wb = ca[window], cb[window]
        mark[wa] = mark[wb] = False
        live = window[host[wa] != host[wb]]
        gains = dict(zip(live.tolist(), score(live)))
        for i, (idx, u, v) in enumerate(zip(window.tolist(), wa.tolist(), wb.tolist())):
            touched += 1
            c, d = hosts[u], hosts[v]
            if c == d:
                continue
            examined += 1
            if dirty[u] or dirty[v]:
                # one round: rescore every pair left in the window, this one
                # included, that is still cross-cloud and has a dirty endpoint
                ra, rb = wa[i:], wb[i:]
                stale = window[i:][(mark[ra] | mark[rb]) & (host[ra] != host[rb])]
                mark[ra] = mark[rb] = False
                gains.update(zip(stale.tolist(), score(stale)))
            gain_u, gain_v, gain_both, f = gains[idx]
            # strict > from keep = 0.0: ties keep users put
            case, gain, target, movers = "keep", 0.0, None, ()
            if gain_u > gain:
                case, gain, target, movers = "move_u", gain_u, d, (u,)
            if gain_v > gain:
                case, gain, target, movers = "move_v", gain_v, c, (v,)
            if gain_both > gain:
                case, gain, target, movers = "move_both", gain_both, f, (u, v)
            for w in movers:
                host[w] = hosts[w] = target
                dirty[w] = True
                mark[nbr[off[w]:off[w + 1]]] = True
            if movers:
                moves += 1
            if telemetry is not None:
                rows.append((u, v, float(cw[idx]), case, gain, target))
            if gain < params.min_gain:
                stop_reason = "gain_threshold"
                break
    if stop_reason == "exhausted" and touched < n_cross:
        stop_reason = "budget"
    if telemetry is not None:
        telemetry.write("".join(json.dumps({
            "event": "examine", "u": u, "v": v, "weight": weight,
            "case": case, "gain": gain, "target": target,
        }) + "\n" for u, v, weight, case, gain, target in rows))
        telemetry.write(json.dumps({
            "event": "summary", "touched": touched, "examined": examined,
            "moves": moves, "stop_reason": stop_reason,
            "total_connections": int(total_connections),
        }) + "\n")
    return Assignment(host)


def brute_force_optimal(graph, model, params, cap=10_000_000):
    """Exhaustive search over all cloud assignments.

    Refuses instances whose search space n_clouds ** n_users exceeds cap.
    Ties return the lexicographically smallest assignment vector.
    """
    n = graph.n_users
    C = model.n_clouds
    if n == 0:
        return Assignment(np.empty(0, dtype=np.int64))
    space = C ** n
    if space > cap:
        raise SearchSpaceError(
            f"search space {C}^{n} = {space} exceeds cap {cap}"
        )
    psi = preference_matrix(graph, model, normalized=params.use_normalized)
    src, dst, w = graph.edge_arrays()
    P = model.pricing.matrix
    alpha = params.alpha
    cost_scale = (1.0 - alpha) * params.cost_weight
    powers = C ** np.arange(n - 1, -1, -1, dtype=np.int64)
    users = np.arange(n)

    best_val = -np.inf
    best = None
    chunk = 1 << 16
    for start in range(0, space, chunk):
        idx = np.arange(start, min(start + chunk, space), dtype=np.int64)
        digits = (idx[:, None] // powers) % C
        pref = psi[users[None, :], digits].sum(axis=1)
        cost = np.zeros(idx.size)
        for s, t, we in zip(src, dst, w):
            cost += P[digits[:, s], digits[:, t]] * we
        vals = alpha * pref - cost_scale * cost
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best = digits[i]
    return Assignment(best)


def baseline_random(graph, model, rng_seed):
    """Uniform random cloud per user; deterministic for a fixed seed."""
    rng = np.random.default_rng(rng_seed)
    return Assignment(rng.integers(0, model.n_clouds, size=graph.n_users, dtype=np.int64))


def baseline_max_preference(graph, model):
    """Every user on its most-preferred cloud, replication cost ignored."""
    return initial_hosting(graph, model)


def baseline_min_propagation(graph, model):
    """Zero cross-cloud traffic: co-host each connected social component.

    Every component lands on the cloud with the largest summed normalized
    preference of its members (lowest cloud id on ties), so no connection
    ever crosses clouds.
    """
    a, b, _, _ = graph.connection_arrays()
    comp = _least_member(graph.n_users, a, b)
    psi = preference_matrix(graph, model, normalized=True)
    totals = np.zeros_like(psi)
    np.add.at(totals, comp, psi)
    return Assignment(np.argmax(totals, axis=1)[comp])


def _least_member(n, a, b):
    """The least user id in each user's connected component, for n users
    joined by the undirected edges (a[i], b[i]).

    Shiloach-Vishkin style root hooking and pointer jumping.  No label
    exceeds its user's id, so a root is the least id of its tree, and at the
    start of each round every user's label is its root.  A round drops the
    edges inside one tree, hooks each root onto the least lesser root across
    its remaining edges, and jumps pointers until every label is a root
    again.  Every round but the last lowers some root's label, so the loop
    ends.
    """
    label = np.arange(n)
    while a.size:
        la, lb = label[a], label[b]
        cross = la != lb
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]
    return label
