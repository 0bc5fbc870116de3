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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._table import first, ids_of, read_table, repeats, write_table
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

    @property
    def n_users(self):
        return int(self.host.size)

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
        user = table.ids(0, n, graph.user_ids)
        cloud_index = {lab: c for c, lab in enumerate(model.cloud_labels)}
        cloud = table.ids(1, n, partial(ids_of, cloud_index))
        seen = repeats(user)
        i = first((user < 0) | seen | (cloud < 0))
        if i < table.n_rows:
            row, line = table.row(i), i + 1
            if len(row) != 2:
                raise ValidationError(f"line {line}: expected 2 fields")
            if user[i] < 0:
                raise ValidationError(f"line {line}: unknown user label {row[0].strip()!r}")
            if seen[i]:
                raise ValidationError(f"line {line}: duplicate user {row[0]!r}")
            raise ValidationError(f"line {line}: unknown cloud label {row[1].strip()!r}")
        host = np.full(graph.n_users, -1, dtype=np.int64)
        host[user] = cloud
        if np.any(host < 0):
            missing = graph.label_of(int(np.nonzero(host < 0)[0][0]))
            raise ValidationError(f"assignment missing user {missing!r}")
        return cls(host)


def transfer_cost_total(assignment, graph, model):
    """Directed priced traffic total over every edge."""
    src, dst, w = graph.edge_arrays()
    if src.size == 0:
        return 0.0
    P = model.pricing.matrix
    h = assignment.host
    return float(np.dot(P[h[src], h[dst]], w))


def total_objective(assignment, graph, model, params):
    """Score of a full assignment under the given trade-off parameters."""
    assignment.validate(graph.n_users, model.n_clouds)
    psi = preference_matrix(graph, model, normalized=params.use_normalized)
    return _score(psi, assignment, graph, model, params)


def _score(psi, assignment, graph, model, params):
    pref = float(psi[np.arange(graph.n_users), assignment.host].sum())
    cost = transfer_cost_total(assignment, graph, model)
    value = params.alpha * pref - (1.0 - params.alpha) * params.cost_weight * cost
    if not math.isfinite(value):  # NaN and +-Infinity are not JSON
        raise ValidationError(f"objective value {value} is not finite: preferences, "
                              "prices, edge weights or cost_weight too large")
    return value


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
        return {
            "objective_value": self.objective_value,
            "preference_satisfaction": self.preference_satisfaction,
            "inter_cloud_cost": self.inter_cloud_cost,
            "inter_cloud_edge_count": self.inter_cloud_edge_count,
            "per_cloud_user_counts": dict(self.per_cloud_user_counts),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def evaluate(assignment, graph, model, params):
    """Full metric sweep of an assignment.

    inter_cloud_cost sums priced traffic on cross-cloud directed edges only
    (each directed edge counted once, no halving); inter_cloud_edge_count
    counts cross-cloud unordered connections.
    """
    assignment.validate(graph.n_users, model.n_clouds)
    h = assignment.host
    src, dst, w = graph.edge_arrays()
    P = model.pricing.matrix
    if src.size:
        cross = h[src] != h[dst]
        inter_cost = float(np.dot(P[h[src], h[dst]] * cross, w))
    else:
        inter_cost = 0.0
    ca, cb, _, _ = graph.connection_arrays()
    edge_count = int(np.count_nonzero(h[ca] != h[cb]))
    psi = preference_matrix(graph, model)
    psi_norm = normalize_rows(psi)
    pref_sat = float(psi_norm[np.arange(graph.n_users), h].sum())
    counts = np.bincount(h, minlength=model.n_clouds)
    return EvaluationReport(
        objective_value=_score(psi_norm if params.use_normalized else psi,
                               assignment, graph, model, params),
        preference_satisfaction=pref_sat,
        inter_cloud_cost=inter_cost,
        inter_cloud_edge_count=edge_count,
        per_cloud_user_counts={model.cloud_labels[c]: int(counts[c]) for c in range(model.n_clouds)},
    )
