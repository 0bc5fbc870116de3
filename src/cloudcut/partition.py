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

The cross pairs are read in place off the friend CSR, a block of rows at a
time, as the slots (a, b) with a < b, and slot order is (a, b) order.  The
walk reads the prefix its budget lets it touch of their full sort by
(-weight, a, b).  Two passes select that prefix without sorting the rest: the
first partitions one weight per pair in place to find the prefix's cut
weight, the second keeps the heavier pairs and the first pairs of the cut
weight, and one stable sort on weight orders them.  Only the pairs of that
prefix have their endpoints and weights gathered.

The walk is windowed.  It takes the next _WINDOW pairs of that order and
visits them one by one exactly as an unwindowed walk would.  A pair's gains
depend only on the clouds of its two users and of their friends, so they go
stale only when one of these users moves (the gain-locality argument of
Fiduccia and Mattheyses, DAC 1982).  When a user moves, it and its friends
are marked dirty, and every pair of a new window starts dirty.  At the first
pair examined with a dirty endpoint, one round scores, in one batched kernel
call, every pair left in the window that is still cross-cloud and has a
dirty endpoint, and clears the marks; so the window's first examined pair
scores all of its cross pairs from there on.  A pair scored in a round is
rescored if a later move dirties it, and a pair that turns cross-cloud later
has a mover as an endpoint, so no pair is decided on stale gains.  The
kernel gives every element the same operations in the same order whatever
the batch: each endpoint's flows are one bincount in neighbor order, and
einsum reduces each endpoint's row alone in numpy's own loops, never in
BLAS.  So the walk makes the same choices, with bit-identical gains, as one
that scores each pair just before it decides.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cloud import normalize_rows, preference_matrix
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


def _pair_table(P):
    """A[c*C + d, f] = P[f, d] + P[c, f] - P[f, f] - P[c, d]: per unit weight
    of an edge from cloud c to d whose two users both move onto f, the price
    change their score rows count, less the true change P[f, f] - P[c, d]."""
    C = P.shape[0]
    return (P.T + P[:, None] - P.diagonal() - P[:, :, None]).reshape(C * C, C)


def _batch_gains(us, vs, e_uv, e_vu, host, psi, friends, P, A, alpha, cost_scale):
    """[(move_u, move_v, move_both, f)] of B candidate pairs (us[i], vs[i])
    under the hosting host, f the best third cloud.

    Each endpoint gets one score row: its preference for each cloud x minus
    the priced traffic on its edges if it sat on x, its friends where they
    are.  A single move's gain is the mover's score on the partner's cloud
    minus its score at home.  Moving both onto f adds both rows' gains on f
    and corrects the mutual edges' price by the pair table A; f is never
    either user's cloud (-inf there, so move_both is -inf when C = 2).
    e_uv / e_vu weigh the directed edges u->v and v->u, friends is the
    graph's friend CSR, and cost_scale is (1 - alpha) * cost_weight.

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

    # gather all 2B friend lists in order; bincount sums each user's flows in
    # neighbor order, like one bincount per user
    starts = off[users]
    lens = off[users + 1] - starts
    slot = np.repeat(r, lens)
    pos = np.arange(slot.size) + (starts - (np.cumsum(lens) - lens))[slot]
    key = slot * C + host[nbr[pos]]
    a_out = np.bincount(key, weights=wout[pos], minlength=2 * B * C).reshape(2 * B, C)
    a_in = np.bincount(key, weights=win[pos], minlength=2 * B * C).reshape(2 * B, C)
    # numpy's own einsum loops reduce each row alone, without BLAS
    seat = np.einsum("ic,xc->ix", a_out, P) + np.einsum("ic,cx->ix", a_in, P)
    score = alpha * psi[users] - cost_scale * seat
    rel = score - score[r, own][:, None]
    c, d = own[:B], other[:B]
    joint = rel[:B] + rel[B:] + cost_scale * (e_uv[:, None] * A[c * C + d]
                                              + e_vu[:, None] * A[d * C + c])
    joint[r % B, own] = -np.inf
    f = np.argmax(joint, axis=1)
    move = rel[r, other].tolist()
    return list(zip(move[:B], move[B:], joint[r[:B], f].tolist(), f.tolist()))


def initial_hosting(graph, model, *, psi=None):
    """Host every user on its most-preferred cloud (lowest id wins ties).

    psi, when given, is the raw preference_matrix(graph, model); otherwise
    it is built here, as in every function that takes it.
    """
    psi = preference_matrix(graph, model) if psi is None else psi
    return Assignment(np.argmax(psi, axis=1))


def run_heuristic(graph, model, params, telemetry=None, *, psi=None):
    """Preference-first hosting followed by one cost-aware re-hosting walk.

    Walks the cross-cloud connections of the initial hosting once, in
    non-increasing combined-weight order, applying the best-gain move per
    pair.  telemetry, when given, is a writable text stream receiving one
    JSON line per examined connection and a final summary line.  psi, when
    given, is the raw preference table (see initial_hosting).
    """
    psi = preference_matrix(graph, model) if psi is None else psi
    host = np.argmax(psi, axis=1)  # initial_hosting's, without its copy
    P = model.pricing.matrix
    A = _pair_table(P)
    alpha = params.objective.alpha
    cost_scale = (1.0 - alpha) * params.objective.cost_weight

    friends = graph.friend_csr()
    off, nbr, wout, win = friends
    total_connections = graph.n_connections
    # every pair the walk reaches is touched, so the budget caps the prefix
    # of the cross pairs it can read; each window gathers the endpoints and
    # both directions' weights of its pairs
    n_cross, cross = _walk_prefix(graph, host, math.ceil(params.touched_budget * total_connections))
    end = cross.size
    # the kernel's table, made once the prefix is chosen, so that the choice
    # does not hold it
    psi = normalize_rows(psi) if params.objective.use_normalized else psi

    row_start = memoryview(off)  # scalar reads
    hosts = host.tolist()  # scalar reads; host stays the array the kernel reads
    # movers and their friends since the last scoring, and the users of a new
    # window; only the marks of the window's endpoints are read, and these
    # are cleared whenever scored
    mark = np.zeros(graph.n_users, dtype=bool)
    dirty = memoryview(mark)  # scalar reads and writes of mark
    rows = []  # telemetry
    touched = examined = moves = 0
    stop_reason = "exhausted"
    while touched < end and stop_reason == "exhausted":
        slots = cross[touched:touched + _WINDOW]
        wa = np.searchsorted(off, slots, side="right") - 1
        wb, we_ab, we_ba = nbr[slots], wout[slots], win[slots]
        # every pair of a new window starts dirty, so its first examined pair
        # scores all of the window's cross pairs from there on
        mark[wa] = mark[wb] = True
        gains = {}
        for i, (u, v) in enumerate(zip(wa.tolist(), wb.tolist())):
            touched += 1
            c, d = hosts[u], hosts[v]
            if c == d:
                continue
            examined += 1
            if dirty[u] or dirty[v]:
                # one round: score every pair left in the window, this one
                # included, that is still cross-cloud and has a dirty endpoint
                ra, rb = wa[i:], wb[i:]
                stale = np.flatnonzero((mark[ra] | mark[rb]) & (host[ra] != host[rb])) + i
                mark[ra] = mark[rb] = False
                gains.update(zip(stale.tolist(), _batch_gains(
                    wa[stale], wb[stale], we_ab[stale], we_ba[stale],
                    host, psi, friends, P, A, alpha, cost_scale)))
            gain_u, gain_v, gain_both, f = gains[i]
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
                mark[nbr[row_start[w]:row_start[w + 1]]] = True
            if movers:
                moves += 1
            if telemetry is not None:
                rows.append((u, v, float(we_ab[i] + we_ba[i]), case, gain, target))
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
    del hosts  # the copy below takes the list's place on the heap
    return Assignment(host)


def _walk_prefix(graph, host, limit):
    """(the number of cross-cloud pairs under host, the slots of the first
    min(limit, that number) of them in walk order).

    Walk order is non-increasing combined weight, equal weights in (a, b)
    order, as one stable sort of all the pairs would give.  One pass writes
    every pair's weight to one array, whose in-place partition finds the
    cut weight t of the prefix and how many pairs weigh more; a second pass
    keeps those pairs and the first of the pairs weighing t, in slot order,
    and only the kept pairs are sorted.
    """
    weight = np.empty(graph.n_connections)
    n_cross = 0
    for _, w in _cross_pairs(graph, host):
        weight[n_cross:n_cross + w.size] = w
        n_cross += w.size
    end = min(n_cross, limit)
    if end == 0:
        return n_cross, np.empty(0, dtype=np.int64)
    weight = weight[:n_cross]
    weight.partition(n_cross - end)
    t = weight[n_cross - end]
    ties = end - int(np.count_nonzero(weight[n_cross - end:] > t))
    del weight
    slots, weight = np.empty(end, dtype=np.int64), np.empty(end)
    k = 0
    for picks, w in _cross_pairs(graph, host):
        keep = w > t
        tied = np.flatnonzero(w == t)[:ties]
        keep[tied] = True
        ties -= tied.size
        picks, w = picks[keep], w[keep]
        slots[k:k + picks.size] = picks
        weight[k:k + picks.size] = w
        k += picks.size
    order = np.argsort(np.negative(weight, out=weight), kind="stable")
    del weight
    return n_cross, slots[order]


def _cross_pairs(graph, host):
    """Per block of the friend CSR's rows: the slots of the cross-cloud pairs
    (a, b), a < b, under host, in slot order, which is (a, b) order, and
    their combined weights."""
    _, nbr, wout, win = graph.friend_csr()
    for rows, slots, row in graph.row_blocks():
        b = nbr[slots]
        cross = host[rows][row] != host[b]
        row += rows.start
        cross &= row < b
        picks = np.flatnonzero(cross) + slots.start
        yield picks, wout[picks] + win[picks]


def brute_force_optimal(graph, model, params, cap=10_000_000, *, psi=None):
    """Exhaustive search over all cloud assignments.

    Refuses instances whose search space n_clouds ** n_users exceeds cap.
    Ties return the lexicographically smallest assignment vector.  psi, when
    given, is the raw preference table (see initial_hosting).
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
    psi = preference_matrix(graph, model) if psi is None else psi
    if params.use_normalized:
        psi = normalize_rows(psi)
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


def baseline_max_preference(graph, model, *, psi=None):
    """Every user on its most-preferred cloud, replication cost ignored."""
    return initial_hosting(graph, model, psi=psi)


def baseline_min_propagation(graph, model, *, psi=None):
    """Zero cross-cloud traffic: co-host each connected social component.

    Every component lands on the cloud with the largest summed normalized
    preference of its members (lowest cloud id on ties), so no connection
    ever crosses clouds.  psi, when given, is the raw preference table (see
    initial_hosting).
    """
    a, b, _, _ = graph.connection_arrays()
    comp = _least_member(graph.n_users, a, b)
    psi = normalize_rows(preference_matrix(graph, model) if psi is None else psi)
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
