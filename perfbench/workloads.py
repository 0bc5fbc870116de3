"""The benchmark's workloads: CLI argument lists, generated inputs, and output
checks that do not rely on cloudcut's own scoring.

Each workload is one `cloudcut` command.  Why each was chosen, and which layers
it exercises or bypasses, is recorded next to it (and, shortened, in
BENCHMARK.json) so that a later performance change can state its prediction
per workload before it is measured:

partition_synth_3e5
    `partition` on a synthetic 3e4-user, ~3e5-edge graph.  The re-hosting walk
    does most of the work, then synth_graph and default_profiles.  Exercises
    graph.synth/build/connections, cloud.profiles/affinity/model/pref,
    partition.walk, objective.evaluate/write.  Bypasses the bulk CSV loaders
    (only the 80-row regions file is read), restrict and the baselines.  Walk
    and kernel changes, and synth / model build changes, show here in job_s
    and peak_rss_mb; objective_gain guards placement quality.
evaluate_csv_3e5
    `evaluate` of a seeded assignment over CSV inputs of the same scale,
    written by this benchmark's own numpy generator.  CSV ingest does most of
    the work.  Exercises graph.load/build/connections, cloud.load_tables/
    load_profiles/profiles/load_affinities/model/pref, objective.read_assignment/
    evaluate/write.  Bypasses the walk (partition.walk_s stays 0) and
    synthesis: the prediction for a walk change is no change.  Loader and
    ingest-side data-layer changes show here.

The graphs have about 3e5 edges rather than 1e6, and there are two workloads,
not three: on a shared 2-core machine one job's wall time varies by 10-20%
between back-to-back repeats, so a steady median needs a dozen jobs or more in
a run of about a minute.  A `sweep-providers` workload (dense graph, cloud
counts 1..6, the only caller of CloudModel.restrict and the baselines) was
dropped to make room for that.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

ALPHA = 0.5
REL_TOL = 1e-9
FIXTURES_KEPT = 3  # generated input sets kept on disk, most recently used first


class Mismatch(Exception):
    """An output file disagrees with what the benchmark expects."""


def close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


# -- independent scoring -----------------------------------------------------

def best_per_cloud(affinity, region_cloud, n_clouds):
    """(users x clouds) best affinity over each cloud's regions, 0 if none."""
    best = np.zeros((affinity.shape[0], n_clouds))
    for c in range(n_clouds):
        cols = np.flatnonzero(region_cloud == c)
        if cols.size:
            best[:, c] = affinity[:, cols].max(axis=1)
    return best


def preference_table(n, src, dst, best_dl, best_ul, vol, blend):
    """Raw (users x clouds) preference: friends' best download affinity summed,
    plus the blended, volume-scaled best upload affinity."""
    key = np.unique(np.concatenate([src * n + dst, dst * n + src]))
    row, col = key // n, key % n
    download = np.stack([np.bincount(row, weights=best_dl[col, c], minlength=n)
                         for c in range(best_dl.shape[1])], axis=1)
    return download + (blend * vol)[:, None] * best_ul


def score(psi, src, dst, w, price, host, alpha=ALPHA):
    """Objective and report fields of one assignment, from plain arrays."""
    n, n_clouds = psi.shape
    totals = psi.sum(axis=1)
    norm = np.full_like(psi, 1.0 / n_clouds)
    pos = totals > 0
    norm[pos] = psi[pos] / totals[pos, None]
    satisfaction = float(norm[np.arange(n), host].sum())
    priced = price[host[src], host[dst]] * w
    cross = host[src] != host[dst]
    a, b = np.minimum(src, dst), np.maximum(src, dst)
    pairs = np.unique(a * n + b)
    return {
        "objective_value": alpha * satisfaction - (1.0 - alpha) * float(priced.sum()),
        "preference_satisfaction": satisfaction,
        "inter_cloud_cost": float(priced[cross].sum()),
        "inter_cloud_edge_count": int(np.count_nonzero(host[pairs // n] != host[pairs % n])),
        "counts": np.bincount(host, minlength=n_clouds).tolist(),
    }


def check_report(path, expected, cloud_labels):
    """Compare a report.json with an independently computed score."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        for key in ("objective_value", "preference_satisfaction", "inter_cloud_cost"):
            if not (math.isfinite(report[key]) and close(report[key], expected[key])):
                raise Mismatch(f"{key} {report[key]!r} != recomputed {expected[key]!r}")
        if report["inter_cloud_edge_count"] != expected["inter_cloud_edge_count"]:
            raise Mismatch(f"inter_cloud_edge_count {report['inter_cloud_edge_count']} "
                           f"!= recomputed {expected['inter_cloud_edge_count']}")
        counts = dict(zip(cloud_labels, expected["counts"]))
        if report["per_cloud_user_counts"] != counts:
            raise Mismatch("per_cloud_user_counts disagree with the assignment")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise Mismatch(f"unreadable report {path}: {exc!r}") from None
    return report


def read_assignment(path, user_ids, cloud_labels):
    """host array from a user_label,cloud_label CSV: every user exactly once,
    every cloud known."""
    cloud_ids = {lab: k for k, lab in enumerate(cloud_labels)}
    host = np.full(len(user_ids), -1, dtype=np.int64)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if len(row) != 2 or row[0] not in user_ids or row[1] not in cloud_ids:
                    raise Mismatch(f"{path} line {lineno}: bad row {row!r}")
                u = user_ids[row[0]]
                if host[u] >= 0:
                    raise Mismatch(f"{path} line {lineno}: user {row[0]!r} listed twice")
                host[u] = cloud_ids[row[1]]
    except OSError as exc:
        raise Mismatch(f"unreadable assignment {path}: {exc!r}") from None
    if np.any(host < 0):
        raise Mismatch(f"{path} misses {int(np.count_nonzero(host < 0))} users")
    return host


# -- workloads ---------------------------------------------------------------

def world_map(n_regions, n_clouds):
    """The fixed provider side every workload uses: (region_cloud, region_xy,
    price).

    Drawn once, from a constant, the way cloudcut synthesizes regions (unit
    square, one region per cloud first, the rest on random clouds), plus a
    non-uniform price matrix with small intra-cloud prices.  It does not follow
    the run's seed: with a seeded layout the walk examined between 45k and
    134k pairs at 1e6 edges, a 3x spread in job time between seeds that no run
    length averages out.  Users, edges, homes, profiles and affinities still
    follow the seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(0))
    xy = rng.random((n_regions, 2))
    region_cloud = np.concatenate([np.arange(n_clouds),
                                   rng.integers(0, n_clouds, size=n_regions - n_clouds)])
    price = rng.uniform(0.5, 1.5, size=(n_clouds, n_clouds))
    np.fill_diagonal(price, rng.uniform(0.0, 0.1, size=n_clouds))
    return region_cloud, xy, price


def write_regions(path, region_cloud, region_xy):
    Path(path).write_text("".join(
        f"r{j},c{c},{x!r},{y!r}\n" for j, (c, (x, y)) in
        enumerate(zip(region_cloud.tolist(), region_xy.tolist()))),
        encoding="utf-8", newline="")


def relative_gain(score, base):
    """Score gained over max-preference hosting, as a share of the latter's
    magnitude: absolute gains follow the heaviest edge weights and vary 2x
    between seeds, the share by a few percent."""
    return (score - base) / abs(base)


class Workload:
    name = ""
    why = ""
    outputs = ()           # files every job writes, compared byte for byte
    needs_dataset = False  # check() takes the dataset cloudcut builds for argv

    def __init__(self, size):
        self.size = size

    def prepare(self, seed, fixture_root):
        """Write the job's input files; return their directory."""
        s = self.SIZES[self.size]
        target = Path(fixture_root) / f"world-{self.size}"
        target.mkdir(parents=True, exist_ok=True)
        write_regions(target / "regions.csv", *world_map(s["regions"], s["clouds"])[:2])
        return target

    def argv(self, seed, out, fixtures):
        raise NotImplementedError

    def cloud_counts(self):
        """Cloud counts the command runs the walk at (empty: no walk)."""
        return []

    def check(self, seed, out, fixtures, dataset):
        """Raise Mismatch unless out holds correct outputs; return objective_gain."""
        raise NotImplementedError


class PartitionSynth(Workload):
    name = "partition_synth_3e5"
    why = ("partition, 3e4 users, ~3e5 edges, walk-dominated. Exercises graph.synth/build, "
           "cloud.profiles/affinity/model/pref, partition.walk, objective; bypasses bulk loaders")
    outputs = ("assignment.csv", "report.json")
    needs_dataset = True
    SIZES = {"full": dict(users=30_000, degree=10, clouds=6, regions=80),
             "tiny": dict(users=400, degree=6, clouds=4, regions=10)}

    def argv(self, seed, out, fixtures):
        s = self.SIZES[self.size]
        return ["partition", "--users", str(s["users"]), "--mean-degree", str(s["degree"]),
                "--regions", str(Path(fixtures) / "regions.csv"),
                "--alpha", str(ALPHA), "--seed", str(seed), "--output-dir", str(out)]

    def cloud_counts(self):
        return [self.SIZES[self.size]["clouds"]]

    def check(self, seed, out, fixtures, dataset):
        graph, model = dataset
        src, dst, w = graph.edge_arrays()
        n, C = graph.n_users, model.n_clouds
        host = read_assignment(Path(out) / "assignment.csv",
                               {lab: i for i, lab in enumerate(graph.labels)},
                               model.cloud_labels)
        psi = preference_table(
            n, src, dst,
            best_per_cloud(model.affinity.download, model.region_cloud, C),
            best_per_cloud(model.affinity.upload, model.region_cloud, C),
            model.upload_volume, model.blend_weight)
        price = model.pricing.matrix
        got = score(psi, src, dst, w, price, host)
        check_report(Path(out) / "report.json", got, model.cloud_labels)
        base = score(psi, src, dst, w, price, np.argmax(psi, axis=1))
        gain = relative_gain(got["objective_value"], base["objective_value"])
        if gain < -REL_TOL:
            raise Mismatch(f"heuristic scores {gain!r} below max-preference hosting")
        return gain


class EvaluateCsv(Workload):
    name = "evaluate_csv_3e5"
    why = ("evaluate of generated CSVs, 3e4 users, ~3e5 edges, ingest-dominated. Exercises "
           "graph.load/build, cloud loaders/model/pref, objective; bypasses the walk")
    outputs = ("report.json",)
    SIZES = {"full": dict(users=30_000, degree=10, clouds=6, regions=80, aff_rows=4),
             "tiny": dict(users=400, degree=6, clouds=4, regions=10, aff_rows=4)}

    def inputs(self, seed):
        """The generated dataset as arrays; same seed, same arrays.

        Users fall into one community per cloud and 80% of edges stay inside
        a community.  The evaluated assignment hosts each community on its own
        cloud, with 10% of users re-drawn uniformly at random.
        """
        s = self.SIZES[self.size]
        n, C, R, k = s["users"], s["clouds"], s["regions"], s["aff_rows"]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
        community = rng.integers(0, C, size=n)
        members = np.argsort(community, kind="stable")
        starts = np.searchsorted(community[members], np.arange(C))
        sizes = np.bincount(community, minlength=C)
        m = n * s["degree"]
        src = np.concatenate([np.arange(n), rng.integers(0, n, size=m - n)])
        home = community[src]
        inside = members[starts[home] + (rng.random(m) * sizes[home]).astype(np.int64)]
        dst = np.where(rng.random(m) < 0.8, inside, rng.integers(0, n, size=m))
        loops = dst == src
        dst[loops] = (src[loops] + rng.integers(1, n, size=int(loops.sum()))) % n
        region_cloud, region_xy, price = world_map(R, C)
        host = np.where(rng.random(n) < 0.1, rng.integers(0, C, size=n), community)
        return {
            "n": n, "clouds": C,
            "src": src, "dst": dst, "w": rng.zipf(3.0, size=m).astype(np.float64),
            "region_cloud": region_cloud,
            "region_xy": region_xy,
            "price": price,
            "vol": rng.uniform(0.5, 3.0, size=n),
            "blend": rng.uniform(0.5, 1.5, size=n),
            "home": rng.integers(0, R, size=n),
            "aff_region": np.argpartition(rng.random((n, R), dtype=np.float32), k, axis=1)[:, :k],
            "aff_download": rng.random((n, k)),
            "aff_upload": rng.random((n, k)),
            "host": host,
        }

    def prepare(self, seed, fixture_root):
        fixture_root = Path(fixture_root)
        target = fixture_root / f"{self.name}-{self.size}-{seed}"
        if not (target / "complete").exists():
            shutil.rmtree(target, ignore_errors=True)
            tmp = fixture_root / f".tmp-{target.name}"
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            write_inputs(self.inputs(seed), tmp)
            (tmp / "complete").write_text("", encoding="utf-8")
            tmp.rename(target)
        os.utime(target)
        old = sorted((p for p in fixture_root.glob(f"{self.name}-*") if p != target),
                     key=lambda p: p.stat().st_mtime, reverse=True)
        for p in old[FIXTURES_KEPT - 1:]:
            shutil.rmtree(p, ignore_errors=True)
        return target

    def argv(self, seed, out, fixtures):
        f = Path(fixtures)
        return ["evaluate", str(f / "assignment.csv"), "--edges", str(f / "edges.csv"),
                "--regions", str(f / "regions.csv"), "--pricing", str(f / "pricing.csv"),
                "--profiles", str(f / "profiles.csv"),
                "--affinities", str(f / "affinities.csv"),
                "--alpha", str(ALPHA), "--output-dir", str(out)]

    def check(self, seed, out, fixtures, dataset):
        d = self.inputs(seed)
        n, C = d["n"], d["clouds"]
        users = np.repeat(np.arange(n), d["aff_region"].shape[1])
        clouds = d["region_cloud"][d["aff_region"].ravel()]
        best_dl = np.zeros((n, C))
        best_ul = np.zeros((n, C))
        np.maximum.at(best_dl, (users, clouds), d["aff_download"].ravel())
        np.maximum.at(best_ul, (users, clouds), d["aff_upload"].ravel())
        psi = preference_table(n, d["src"], d["dst"], best_dl, best_ul, d["vol"], d["blend"])
        labels = [f"c{k}" for k in range(C)]
        got = score(psi, d["src"], d["dst"], d["w"], d["price"], d["host"])
        report = check_report(Path(out) / "report.json", got, labels)
        base = score(psi, d["src"], d["dst"], d["w"], d["price"], np.argmax(psi, axis=1))
        return relative_gain(report["objective_value"], base["objective_value"])


def write_inputs(d, directory):
    """The CSV files of one generated dataset, in cloudcut's documented formats.

    Floats are written as repr(float(x)): numpy 2 scalars print as
    np.float64(...), which the loaders reject.
    """
    directory = Path(directory)
    n, C = d["n"], d["clouds"]

    def write(name, text):
        (directory / name).write_text(text, encoding="utf-8", newline="")

    write("edges.csv", "".join(map("u{},u{},{!r}\n".format, d["src"].tolist(),
                                   d["dst"].tolist(), d["w"].tolist())))
    write_regions(directory / "regions.csv", d["region_cloud"], d["region_xy"])
    write("pricing.csv", "cloud," + ",".join(f"c{k}" for k in range(C)) + "\n" + "".join(
        f"c{k}," + ",".join(map(repr, row)) + "\n" for k, row in enumerate(d["price"].tolist())))
    write("profiles.csv", "".join(map("u{},{!r},{!r},r{}\n".format, range(n), d["vol"].tolist(),
                                      d["blend"].tolist(), d["home"].tolist())))
    k = d["aff_region"].shape[1]
    write("affinities.csv", "".join(map(
        "u{},r{},{!r},{!r}\n".format, np.repeat(np.arange(n), k).tolist(),
        d["aff_region"].ravel().tolist(), d["aff_download"].ravel().tolist(),
        d["aff_upload"].ravel().tolist())))
    write("assignment.csv", "".join(map("u{},c{}\n".format, range(n), d["host"].tolist())))


WORKLOADS = {cls.name: cls for cls in (PartitionSynth, EvaluateCsv)}
