"""Placement objective: preference satisfaction minus weighted transfer cost.

An assignment maps every user to exactly one cloud.  Each social connection
whose endpoints land on different clouds forces cross-cloud replication of
the propagated content, priced per direction by the pricing matrix.  The
transfer cost of an assignment is the plain directed total

    cost = sum over directed edges (u, v) of price[cloud(u), cloud(v)] * weight(u, v)

which counts nothing twice (splitting every connection's cost evenly
between its two endpoints gives per-user costs with the same sum).  The
score an assignment maximizes is

    alpha * (sum over users u of pref(u, cloud(u)))  -  (1 - alpha) * cost_weight * cost

where pref is the normalized preference by default (raw preference on
request) and cost_weight calibrates propagation volume units against
preference units.

evaluate is the one scorer: it computes the score and every reported metric
in one pass over the friend CSR, a block of rows at a time, and
total_objective is its objective_value.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._table import LabelIndex, read_table, refuse, repeats, write_table
from .cloud import normalize_rows, preference_matrix
from .errors import ValidationError


@dataclass(frozen=True)
class ObjectiveParams:
    """alpha in [0, 1] trades preference (1) against transfer cost (0);
    cost_weight scales the cost term; use_normalized selects normalized or
    raw preference inside the score."""

    alpha: float
    cost_weight: float = 1.0
    use_normalized: bool = True

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")
        if not 0.0 < self.cost_weight < math.inf:
            raise ValidationError(f"cost_weight must be finite and > 0, got {self.cost_weight!r}")


class Assignment:
    """Total map user id -> cloud id, backed by an int array."""

    def __init__(self, host):
        self.host = np.asarray(host, dtype=np.int64).copy()
        if self.host.ndim != 1:
            raise ValidationError("assignment must be a flat user->cloud array")

    def validate(self, n_users, n_clouds):
        if self.host.size != n_users:
            raise ValidationError(f"assignment covers {self.host.size} users, expected {n_users}")
        if self.host.size and (self.host.min() < 0 or self.host.max() >= n_clouds):
            raise ValidationError("assignment references an unknown cloud")

    def __eq__(self, other):
        return isinstance(other, Assignment) and np.array_equal(self.host, other.host)

    def __repr__(self):
        return f"Assignment({self.host.tolist()})"

    def to_csv(self, path, graph, model):
        """Headerless user_label,cloud_label rows in user id order."""
        self.validate(graph.n_users, model.n_clouds)
        write_table(path, [graph.labels, np.array(model.cloud_labels, dtype=object)[self.host]])

    @classmethod
    def from_csv(cls, path, graph, model):
        """Inverse of to_csv: every user exactly once, labels stripped."""
        table = read_table(path)
        n = table.prefix(2)
        user = table.ids(0, n, graph.label_index)
        cloud = table.ids(1, n, LabelIndex(model.cloud_labels))
        refuse(table, n, [
            (user < 0, lambda row: f"unknown user label {row[0].strip()!r}"),
            (repeats(user), lambda row: f"duplicate user {row[0]!r}"),
            (cloud < 0, lambda row: f"unknown cloud label {row[1].strip()!r}"),
        ], lambda row: "expected 2 fields", ValidationError)
        host = np.full(graph.n_users, -1, dtype=np.int64)
        host[user] = cloud
        if np.any(host < 0):
            missing = graph.label_of(int(np.nonzero(host < 0)[0][0]))
            raise ValidationError(f"assignment missing user {missing!r}")
        return cls(host)


def total_objective(assignment, graph, model, params, *, psi=None):
    """Score of a full assignment under the given trade-off parameters."""
    return evaluate(assignment, graph, model, params, psi=psi).objective_value


@dataclass
class EvaluationReport:
    """Headline metrics of one assignment.

    preference_satisfaction always uses normalized preference so values are
    comparable across model scales; objective_value follows the params.
    per_cloud_user_counts is keyed by cloud label.
    """

    objective_value: float
    preference_satisfaction: float
    inter_cloud_cost: float
    inter_cloud_edge_count: int
    per_cloud_user_counts: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def evaluate(assignment, graph, model, params, *, psi=None):
    """Full metric sweep of an assignment, and the only scorer.

    One pass over the friend CSR's blocks of rows writes each directed
    edge's priced traffic, price times weight, and its cross-cloud mark, in
    (src, dst) order, and counts the cross-cloud slots.  The priced traffic
    sums to the score's cost term and, masked, to inter_cloud_cost, which
    sums priced traffic on cross-cloud directed edges only (each directed
    edge counted once, no halving).
    inter_cloud_edge_count counts cross-cloud unordered connections, each of
    which fills two slots.  psi, when given, is the raw
    preference_matrix(graph, model); otherwise it is built here.
    """
    assignment.validate(graph.n_users, model.n_clouds)
    h = assignment.host
    _, nbr, wout, _ = graph.friend_csr()
    is_edge = graph.edge_mask()
    m = graph.n_edges
    priced, cross = np.empty(m), np.empty(m, dtype=bool)
    edge_count = e = 0
    for rows, slots, row in graph.row_blocks():
        hs, hd = h[rows][row], h[nbr[slots]]
        differ = hs != hd
        edge_count += int(np.count_nonzero(differ))
        edges = np.flatnonzero(is_edge[slots])
        span = slice(e, e + edges.size)
        np.multiply(model.pricing.matrix[hs.take(edges), hd.take(edges)],
                    wout[slots].take(edges), out=priced[span])
        cross[span] = differ.take(edges)
        e = span.stop
    edge_count //= 2
    # np.sum adds in numpy's pairwise order, the same whatever the BLAS
    # kernel and the block size
    cost = float(np.sum(priced))
    priced *= cross
    inter_cost = float(np.sum(priced))
    del priced, cross
    psi = preference_matrix(graph, model) if psi is None else psi
    psi_norm = normalize_rows(psi)
    users = np.arange(graph.n_users)
    pref_sat = float(psi_norm[users, h].sum())
    pref = pref_sat if params.use_normalized else float(psi[users, h].sum())
    value = params.alpha * pref - (1.0 - params.alpha) * params.cost_weight * cost
    if not math.isfinite(value):  # NaN and +-Infinity are not JSON
        raise ValidationError(f"objective value {value} is not finite: preferences, "
                              "prices, edge weights or cost_weight too large")
    counts = np.bincount(h, minlength=model.n_clouds)
    return EvaluationReport(
        objective_value=value,
        preference_satisfaction=pref_sat,
        inter_cloud_cost=inter_cost,
        inter_cloud_edge_count=edge_count,
        per_cloud_user_counts={model.cloud_labels[c]: int(counts[c]) for c in range(model.n_clouds)},
    )
