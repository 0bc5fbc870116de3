"""Cloud-side model: providers, regions, pricing, affinities, user profiles.

A cloud provider owns a disjoint set of regions.  Per-user, per-region
affinities measure expected delivery quality: the download affinity of (v, s)
scores how well region s serves content consumed near v, the upload affinity
scores how well s ingests content published near v.  Affinities default to 0
where unstated.

From these the model derives the two hosting indices of a user u for cloud c:

  download index: sum over u's friends v of the best download affinity v
      has to any region of c             (how well c serves u's audience)
  upload index:   best upload affinity of u to any region of c, scaled by
      u's upload volume                  (how well c ingests u's content)

and the hosting preference, their blend:

  preference(u, c) = download_index + blend_weight(u) * upload_index

preference_matrix computes it for every user and cloud at once.  The download
index sums each user's friends' best download rows in neighbor order, one
np.bincount per cloud over the friend CSR, so it matches a sparse
adjacency-matrix product bit for bit.  Normalized, each user's row sums to 1
over the clouds (uniform when all are zero), so per-user satisfaction is
comparable across users and model scales.

An AffinityTable holds its affinities as entries (row, region, download,
upload), unlisted pairs being 0, over distinct rows, plus the row index of each
user.  A loaded table keeps the entries its file lists, one row per user;
affinities derived from coordinates have one row per distinct user position,
with an entry for each region.  The model reduces the entries to its
best-per-cloud tables over the distinct rows in one pass, and
preference_matrix reads them through each user's row.
AffinityTable.download / .upload, the (users x regions) arrays, are built on
each read; the pipeline never reads them.
"""

from __future__ import annotations

import numpy as np

from ._table import LabelIndex, last_of_each, read_table, refuse, repeats, write_table
from .errors import ParseError, ValidationError


class PricingMatrix:
    """Per-GB transfer price between clouds; entry (c, d) prices traffic c->d.

    Diagonal entries price intra-cloud replication (usually 0).
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("pricing matrix must be square")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValidationError("prices must be finite and non-negative")
        self._m = m
        self._m.setflags(write=False)

    @property
    def matrix(self):
        return self._m

    @property
    def n_clouds(self):
        return self._m.shape[0]

    @classmethod
    def uniform(cls, n_clouds, inter_price=1.0, intra_price=0.0):
        m = np.full((n_clouds, n_clouds), float(inter_price))
        np.fill_diagonal(m, float(intra_price))
        return cls(m)

    @classmethod
    def from_csv(cls, path):
        """Parse a matrix CSV with cloud labels as header row and column.

        Returns (cloud_labels, PricingMatrix); row label order defines cloud
        id order.
        """
        table = read_table(path)
        if not table.n_rows or table.widths[0] < 2:
            raise ParseError("pricing matrix needs a header row of cloud labels", 1)
        header = [c.strip() for c in table.row(0)[1:]]
        n = len(header)
        if len(set(header)) != n:
            raise ParseError("duplicate cloud label in pricing header", 1)
        if table.n_rows - 1 != n:
            raise ParseError(f"expected {n} price rows, one per header cloud, "
                             f"got {table.n_rows - 1}", table.n_rows)
        # the header, row 0, has n + 1 fields and breaks no rule; a rule per
        # price column, in column order, names a row's first bad price
        k = table.prefix(n + 1)
        rows = np.arange(1, k)
        prices, bad = table.floats(range(1, n + 1), rows)
        broken = np.zeros((n + 1, k), dtype=bool)
        broken[:n, 1:] = bad
        broken[n, 1:] = ~((prices >= 0) & (prices < np.inf)).all(axis=0)
        messages = [lambda row, j=j: f"bad price {row[j]!r}" for j in range(1, n + 1)]
        messages.append(lambda row: "prices must be finite and non-negative")
        refuse(table, k, list(zip(broken, messages)),
               lambda row: f"expected {n + 1} fields, got {len(row)}")
        order = table.ids(0, rows, LabelIndex(header))
        if not np.array_equal(order, np.arange(n)):
            raise ParseError("pricing row labels must match header order", table.n_rows)
        return tuple(header), cls(prices.T.copy())

    def to_csv(self, path, cloud_labels):
        write_table(path, [cloud_labels, *self._m.T], header=("cloud", *cloud_labels))


class AffinityTable:
    """Per-(user, region) download/upload affinities, stored as entries.

    Rows are users, columns regions; unlisted pairs are 0.  The table keeps
    entries (row, region, download, upload) over n_rows distinct rows, at
    most one per (row, region), and user_row, the int64 row index of each
    user (np.arange when each user is its own row).  The (users x regions)
    arrays download and upload are built from the entries on each read; the
    model reduces the entries themselves.  Built once and treated as
    immutable.
    """

    def __init__(self, download, upload):
        d = np.array(download, dtype=np.float64)
        u = np.array(upload, dtype=np.float64)
        if d.shape != u.shape or d.ndim != 2:
            raise ValidationError("affinity arrays must share one (users x regions) shape")
        self._set_entries(*_cells(d, u), np.arange(len(d)))

    @classmethod
    def _from_entries(cls, n_rows, n_regions, row, region, download, upload, user_row):
        table = cls.__new__(cls)
        table._set_entries(n_rows, n_regions, row, region, download, upload, user_row)
        return table

    def _set_entries(self, n_rows, n_regions, row, region, download, upload, user_row):
        if not (np.all(np.isfinite(download)) and np.all(np.isfinite(upload))):
            raise ValidationError("affinities must be finite")
        if np.any(download < 0) or np.any(upload < 0):
            raise ValidationError("affinities must be non-negative")
        self.n_rows = n_rows
        self.n_regions = n_regions
        self.entries = (row, region, download, upload)
        self.user_row = user_row
        for arr in (*self.entries, user_row):
            arr.setflags(write=False)

    @property
    def download(self):
        """(users x regions) download affinities, built on each read."""
        return self._per_user(self.entries[2])

    @property
    def upload(self):
        """(users x regions) upload affinities, built on each read."""
        return self._per_user(self.entries[3])

    def _per_user(self, values):
        row, region = self.entries[:2]
        rows = np.zeros((self.n_rows, self.n_regions))
        rows[row, region] = values
        dense = rows[self.user_row]
        dense.setflags(write=False)
        return dense

    @property
    def n_users(self):
        return self.user_row.size

    def take_regions(self, regions):
        """Table over the given distinct regions only, numbered in the given
        order; same users and rows."""
        new = np.full(self.n_regions, -1, dtype=np.int64)
        new[regions] = np.arange(len(regions))
        row, region, download, upload = self.entries
        keep = np.flatnonzero(new[region] >= 0)
        return AffinityTable._from_entries(
            self.n_rows, len(regions), row[keep], new[region[keep]], download[keep],
            upload[keep], self.user_row)

    @classmethod
    def from_coordinates(cls, user_xy, region_xy, scale):
        """Distance-decayed affinities: 1 / (1 + dist / scale).

        A user sitting exactly on a region gets affinity 1 there; affinity
        halves at distance == scale.  Download and upload use the same decay,
        held once; it is computed once per distinct user position.
        """
        if not scale > 0:
            raise ValidationError("scale must be positive")
        user_xy = np.asarray(user_xy, dtype=np.float64)
        region_xy = np.asarray(region_xy, dtype=np.float64)
        if user_xy.ndim != 2 or region_xy.ndim != 2 or user_xy.shape[1] != region_xy.shape[1]:
            raise ValidationError("coordinates must be (points x dims) arrays of one width")
        xy, user_row = _distinct_rows(user_xy)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = xy[:, None, :] - region_xy[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            if not np.all(np.isfinite(dist)):
                raise ValidationError("user-region distances must be finite")
            aff = 1.0 / (1.0 + dist / scale)
        return cls._from_entries(*_cells(aff, aff), user_row)


def _cells(download, upload):
    """(n_rows, n_regions, row, region, download, upload): every cell of two
    (rows x regions) arrays as an entry, row after row."""
    n_rows, n_regions = download.shape
    row, region = np.divmod(np.arange(download.size), n_regions)
    return n_rows, n_regions, row, region, download.ravel(), upload.ravel()


def _distinct_rows(a):
    """(rows, inverse): the distinct rows of a 2-D array in lexicographic order
    and each row's index among them, as np.unique(a, axis=0,
    return_inverse=True) gives them, from one lexsort (np.unique sorts the rows
    as structured records, about 7x slower at 1e6 rows)."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    starts = np.ones(len(a), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


class CloudModel:
    """Everything cloud-side the optimizer needs, bound to one user universe.

    Holds cloud/region label tables, the region->cloud map, transfer pricing,
    the affinity table, and per-user profiles (upload volume, blend weight,
    optional home region).  Precomputes best_download and best_upload, per
    distinct affinity row and cloud, the best affinity over the cloud's
    regions, from the affinity table's entries; user u's are on row
    affinity.user_row[u].  It never reads the (users x regions) arrays.
    """

    def __init__(self, cloud_labels, region_labels, region_cloud, pricing,
                 affinity, upload_volume, blend_weight, home_region=None):
        self.cloud_labels = tuple(cloud_labels)
        self.region_labels = tuple(region_labels)
        if len(set(self.cloud_labels)) != len(self.cloud_labels):
            raise ValidationError("cloud labels must be unique")
        if len(set(self.region_labels)) != len(self.region_labels):
            raise ValidationError("region labels must be unique")
        self.region_cloud = np.asarray(region_cloud, dtype=np.int64)
        if self.region_cloud.shape != (len(self.region_labels),):
            raise ValidationError("region_cloud must map every region")
        if self.region_cloud.size and (
            self.region_cloud.min() < 0 or self.region_cloud.max() >= len(self.cloud_labels)
        ):
            raise ValidationError("region mapped to unknown cloud")
        if pricing.n_clouds != len(self.cloud_labels):
            raise ValidationError("pricing matrix size must match cloud count")
        self.pricing = pricing
        if affinity.n_regions != len(self.region_labels):
            raise ValidationError("affinity table region count mismatch")
        self.affinity = affinity

        n_users = affinity.n_users
        self.upload_volume = np.asarray(upload_volume, dtype=np.float64)
        self.blend_weight = np.asarray(blend_weight, dtype=np.float64)
        if self.upload_volume.shape != (n_users,) or self.blend_weight.shape != (n_users,):
            raise ValidationError("profile arrays must cover every user")
        if np.any(self.upload_volume < 0) or np.any(self.blend_weight < 0):
            raise ValidationError("profile values must be non-negative")
        if home_region is None:
            home_region = np.full(n_users, -1, dtype=np.int64)
        self.home_region = np.asarray(home_region, dtype=np.int64)
        if self.home_region.shape != (n_users,):
            raise ValidationError("home_region must cover every user")
        if np.any((self.home_region < -1) | (self.home_region >= len(self.region_labels))):
            raise ValidationError("home_region must hold region ids or -1")

        row, region, download, upload = affinity.entries
        at = row * self.n_clouds + self.region_cloud[region]
        self.best_download = self._best_per_cloud(at, download)
        self.best_upload = self._best_per_cloud(at, upload)
        for arr in (self.upload_volume, self.blend_weight, self.home_region,
                    self.best_download, self.best_upload):
            arr.setflags(write=False)

    def _best_per_cloud(self, at, values):
        """(rows x clouds) best affinity of each of the table's distinct rows,
        the max over each cloud's regions (0 if none): the entries' values
        reduced at at, their flat (row, cloud) index."""
        best = np.zeros((self.affinity.n_rows, self.n_clouds))
        # a flat index takes np.maximum.at's fast path, a tuple its slow one
        np.maximum.at(best.reshape(-1), at, values)
        best += 0.0  # a max of zeros may keep -0.0; the best is then 0.0
        return best

    @property
    def n_clouds(self):
        return len(self.cloud_labels)

    @property
    def n_regions(self):
        return len(self.region_labels)

    @property
    def n_users(self):
        return self.affinity.n_users

    def restrict(self, n_active):
        """Model over the first n_active clouds only (deterministic order).

        Regions of dropped clouds vanish; users homed there keep home -1.
        """
        if not 1 <= n_active <= self.n_clouds:
            raise ValidationError("n_active out of range")
        if n_active == self.n_clouds:
            return self
        keep_regions = np.nonzero(self.region_cloud < n_active)[0]
        # old region id -> new one, -1 for a dropped region; the extra last
        # slot maps an unset home (-1) to -1
        remap = np.full(self.n_regions + 1, -1, dtype=np.int64)
        remap[keep_regions] = np.arange(keep_regions.size)
        home = remap[self.home_region]
        return CloudModel(
            self.cloud_labels[:n_active],
            tuple(self.region_labels[r] for r in keep_regions),
            self.region_cloud[keep_regions],
            PricingMatrix(self.pricing.matrix[:n_active, :n_active]),
            self.affinity.take_regions(keep_regions),
            self.upload_volume,
            self.blend_weight,
            home,
        )


def default_profiles(graph):
    """Default per-user profile arrays: upload volume is the mean outgoing
    edge weight (a proxy for how much of u's content propagates per follower),
    blend weight is 1.  A zero-weight edge counts towards the mean:
    the edges are the friend CSR's slots whose own direction has a record of
    any weight, summed in slot order from 0.0 a block of rows at a time."""
    n = graph.n_users
    w_out = graph.friend_csr()[2]
    is_edge = graph.edge_mask()
    total = np.empty(n)
    count = np.empty(n, dtype=np.int64)
    for rows, slots, row in graph.row_blocks():
        edges = np.flatnonzero(is_edge[slots])
        src = row.take(edges)
        size = rows.stop - rows.start
        total[rows] = np.bincount(src, weights=w_out[slots].take(edges), minlength=size)
        count[rows] = np.bincount(src, minlength=size)
    vol = np.divide(total, count, out=np.zeros(n), where=count > 0)
    return vol, np.ones(n)


# -- preference table ------------------------------------------------------

def preference_matrix(graph, model):
    """(n_users x n_clouds) raw preference table; normalize_rows gives its
    row-normalized form."""
    if model.n_users != graph.n_users:
        raise ValidationError("model and graph disagree on user count")
    nbr = graph.friend_csr()[1]
    user_row = model.affinity.user_row
    # each user's friends' best download rows, summed in neighbor order from
    # 0.0: one bincount per cloud per block of the friend CSR's rows, reading
    # the friends' affinity rows, gathered once per block
    per_cloud = np.ascontiguousarray(model.best_download.T)
    download = np.empty((graph.n_users, model.n_clouds))
    for rows, slots, row in graph.row_blocks():
        friend_rows = user_row[nbr[slots]]
        for c in range(len(per_cloud)):
            download[rows, c] = np.bincount(row, weights=per_cloud[c][friend_rows],
                                            minlength=rows.stop - rows.start)
        # then the block's upload term, in place, so that no temporary is as
        # long as the table; the products commute, so the bits are those of
        # download + blend * upload
        upload = model.best_upload[user_row[rows]]
        upload *= model.upload_volume[rows, None]
        upload *= model.blend_weight[rows, None]
        download[rows] += upload
    return download


def normalize_rows(psi):
    """Preference table rescaled so each row sums to 1; rows of all-zero
    preference become uniform."""
    totals = psi.sum(axis=1)
    # one table-sized array: every row is divided, a row of no preference by
    # 1.0, and then made uniform
    flat = ~(totals > 0)
    totals[flat] = 1.0
    out = psi / totals[:, None]
    out[flat] = 1.0 / psi.shape[1]
    return out


# -- tabular loaders -------------------------------------------------------

def load_regions(path):
    """Headerless CSV region_label,cloud_label[,x,y].

    Returns (cloud_labels, region_labels, region_cloud, region_xy or None).
    Cloud ids follow first appearance; coordinates must be all-or-none.
    """
    table = read_table(path)
    n = table.prefix(2, 4)
    region, region_labels = table.intern((0,), n)
    cloud, cloud_labels = table.intern((1,), n)
    with_xy = np.flatnonzero(table.widths[:n] == 4)
    xy, bad = table.floats((2, 3), with_xy)
    blank = [np.array([not lab for lab in labels], dtype=bool)
             for labels in (region_labels, cloud_labels)]
    bad_xy, unfit_xy = np.zeros((2, n), dtype=bool)
    bad_xy[with_xy] = bad.any(axis=0)
    unfit_xy[with_xy] = ~np.isfinite(xy).all(axis=0)
    refuse(table, n, [
        (blank[0][region] | blank[1][cloud], lambda row: "empty label"),
        (repeats(region), lambda row: f"duplicate region {row[0].strip()!r}"),
        (bad_xy, lambda row: "bad coordinate"),
        (unfit_xy, lambda row: ("coordinates must be finite, "
                                f"got {float(row[2])}, {float(row[3])}")),
    ], lambda row: f"expected 2 or 4 fields, got {len(row)}")
    if not n:
        raise ParseError("region file has no rows")
    if with_xy.size not in (0, n):
        raise ParseError("coordinates must be given for all regions or none")
    xy = xy.T.copy() if with_xy.size else None
    return tuple(cloud_labels), tuple(region_labels), cloud, xy


def load_affinities(path, graph, region_labels, ignore_unknown_users=False):
    """Headerless CSV user_label,region_label,download,upload -> AffinityTable.

    Unlisted pairs default to 0; of duplicate rows for one pair, the last
    wins.  A bad row raises ParseError naming its line.  With
    ignore_unknown_users, rows for users outside the graph are dropped
    unchecked, which a sampled graph needs when the file covers its parent;
    an unknown region in any other row is still refused.
    """
    table = read_table(path)
    n = table.prefix(4)
    user = table.ids(0, n, graph.label_index)
    region = table.ids(1, n, LabelIndex(region_labels))
    (download, upload), (bad_download, bad_upload) = table.floats((2, 3), n)
    known = user >= 0
    refuse(table, n, _user_rules(known, [
        (region < 0, lambda row: f"unknown region {row[1].strip()!r}"),
        (bad_download | bad_upload, lambda row: "bad affinity value"),
        (~(np.isfinite(download) & np.isfinite(upload) & (download >= 0) & (upload >= 0)),
         lambda row: ("affinities must be finite and non-negative, "
                      f"got {float(row[2])}, {float(row[3])}")),
    ], ignore_unknown_users), lambda row: f"expected 4 fields, got {len(row)}")
    del table
    R = len(region_labels)
    rows = np.flatnonzero(known)
    rows = rows[last_of_each((user * R + region)[rows])]
    return AffinityTable._from_entries(graph.n_users, R, user[rows], region[rows],
                                       download[rows], upload[rows], np.arange(graph.n_users))


def load_profiles(path, graph, region_labels=None, ignore_unknown_users=False):
    """Headerless CSV user_label,upload_volume,blend_weight[,region_label].

    Unlisted users fall back to defaults (mean outgoing weight, blend 1); of
    duplicate rows for one user, the last wins (the last one with a region,
    for the home region).  Returns (upload_volume, blend_weight, home_region)
    arrays.  A bad row raises ParseError naming its line.  With
    ignore_unknown_users, rows for users outside the graph are dropped
    unchecked; an unknown region in any other row is still refused.
    """
    home = np.full(graph.n_users, -1, dtype=np.int64)
    table = read_table(path)
    n = table.prefix(3, 4)
    user = table.ids(0, n, graph.label_index)
    (volume, weight), (bad_volume, bad_weight) = table.floats((1, 2), n)
    with_region = np.flatnonzero(table.widths[:n] == 4)
    region = np.zeros(n, dtype=np.int64)
    region[with_region] = table.ids(3, with_region, LabelIndex(region_labels or ()))
    known = user >= 0
    refuse(table, n, _user_rules(known, [
        (bad_volume | bad_weight, lambda row: "bad profile value"),
        (~(np.isfinite(volume) & np.isfinite(weight) & (volume >= 0) & (weight >= 0)),
         lambda row: "profile values must be finite and non-negative"),
        (region < 0, lambda row: f"unknown region {row[3].strip()!r}"),
    ], ignore_unknown_users), lambda row: f"expected 3 or 4 fields, got {len(row)}")
    rows = np.flatnonzero(known)
    rows = rows[last_of_each(user[rows])]
    # the defaults take a pass over the friend CSR, needed only when some
    # user has no row
    if rows.size < graph.n_users:
        vol, blend = default_profiles(graph)
    else:
        vol, blend = np.empty(graph.n_users), np.empty(graph.n_users)
    vol[user[rows]] = volume[rows]
    blend[user[rows]] = weight[rows]
    rows = with_region[known[with_region]]
    rows = rows[last_of_each(user[rows])]
    home[user[rows]] = region[rows]
    return vol, blend, home


def _user_rules(known, rules, ignore_unknown_users):
    """A side table's rules, led by the unknown-user rule; or, when rows of
    unknown users are dropped, each mask narrowed in place to known users."""
    if not ignore_unknown_users:
        return [(~known, lambda row: f"unknown user {row[0].strip()!r}"), *rules]
    for mask, _ in rules:
        mask &= known
    return rules
