import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcut import (
    AffinityTable,
    Assignment,
    CloudModel,
    ExperimentConfig,
    HeuristicParams,
    ObjectiveParams,
    PricingMatrix,
    SocialGraph,
    ValidationError,
    build_dataset,
    default_profiles,
    evaluate,
    run_heuristic,
)
from cloudcut import graph as graph_module
from cloudcut.cloud import (
    load_affinities,
    load_profiles,
    load_regions,
    normalize_rows,
    preference_matrix,
)
from cloudcut.errors import ParseError
from cloudcut.graph import load_graph, synth_graph
from oracles import (
    make_instance,
    naive_best_per_cloud,
    naive_decay_affinity,
    naive_preference_row,
    naive_upload_volumes,
    scipy_preference_matrix,
    traced_peak,
)


def frozen_model(blend_weight=(2.0, 1.0, 1.0)):
    """3 users, cloud c0 = {r0, r1}, cloud c1 = {r2}; hand-checked below."""
    graph = load_graph([("u", "v1", 1.0), ("v2", "u", 2.0)])
    download = [[0.1, 0.1, 0.2],
                [0.9, 0.4, 0.2],
                [0.3, 0.7, 0.6]]
    upload = [[0.8, 0.5, 0.3],
              [0.1, 0.1, 0.1],
              [0.2, 0.2, 0.2]]
    model = CloudModel(
        ["c0", "c1"], ["r0", "r1", "r2"], [0, 0, 1],
        PricingMatrix.uniform(2),
        AffinityTable(download, upload),
        upload_volume=[5.0, 1.0, 1.0],
        blend_weight=blend_weight,
    )
    return graph, model


def test_download_index_takes_best_region_per_friend():
    # v1 best in c0 is 0.9 (r0), v2 best is 0.7 (r1); with blend weight 0 the
    # preference is the download index alone
    graph, model = frozen_model(blend_weight=(0.0, 0.0, 0.0))
    assert model.best_download[1:, 0].tolist() == [0.9, 0.7]
    assert preference_matrix(graph, model)[0].tolist() == pytest.approx([1.6, 0.8])


def test_upload_index_scales_by_volume():
    _, model = frozen_model()
    assert model.best_upload[0].tolist() == [0.8, 0.3]
    assert (model.best_upload[0] * model.upload_volume[0]).tolist() == [4.0, 1.5]  # times 5


def test_preference_blends_download_and_upload():
    graph, model = frozen_model()
    # 1.6 + 2*4 and 0.8 + 2*1.5
    assert preference_matrix(graph, model)[0].tolist() == pytest.approx([9.6, 3.8])
    norm = normalize_rows(preference_matrix(graph, model))
    assert norm[0, 0] == pytest.approx(9.6 / 13.4)


def test_normalized_rows_sum_to_one():
    graph = load_graph([("a", "b", 1.0)], )
    model = CloudModel(
        ["c0", "c1", "c2"], ["r0", "r1", "r2"], [0, 1, 2],
        PricingMatrix.uniform(3),
        AffinityTable(np.zeros((2, 3)), [[2.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
        upload_volume=[1.0, 1.0],
        blend_weight=[1.0, 1.0],
    )
    psi = normalize_rows(preference_matrix(graph, model))
    assert psi[0].tolist() == pytest.approx([0.5, 0.25, 0.25])
    # user b has zero preference everywhere: uniform fallback
    assert psi[1].tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(psi.sum(axis=1), 1.0)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(2, 40), n_clouds=st.integers(1, 5),
       density=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_preference_matrix_is_bit_identical_to_the_sparse_product(seed, n_users, n_clouds,
                                                                  density):
    # density 0 gives an edgeless graph, and low densities leave users isolated
    graph, model = make_instance(seed, n_users=n_users, n_clouds=n_clouds,
                                 n_edges=int(density * n_users * (n_users - 1)),
                                 regions_per_cloud=2)
    assert_same_bits(preference_matrix(graph, model), scipy_preference_matrix(graph, model))


def test_preference_matrix_is_bit_identical_to_the_sparse_product_on_a_synthetic_graph():
    # heavy-tailed degrees, isolated users, and one affinity row per position
    graph, model = build_dataset(ExperimentConfig(synth_users=3000, synth_mean_degree=2.0,
                                                  synth_regions=12, synth_clouds=4))
    assert np.any(np.diff(graph.friend_csr()[0]) == 0)
    assert model.affinity.n_rows < graph.n_users
    assert_same_bits(preference_matrix(graph, model), scipy_preference_matrix(graph, model))


def test_preference_matrix_matches_scalar_definitions():
    for seed in range(6):
        graph, model = make_instance(seed, n_users=12, n_clouds=4, n_edges=30,
                                     pricing="random", regions_per_cloud=2)
        psi = preference_matrix(graph, model)
        norm = normalize_rows(preference_matrix(graph, model))
        for u in range(graph.n_users):
            assert psi[u].tolist() == pytest.approx(
                naive_preference_row(u, graph, model, normalized=False))
            assert norm[u].tolist() == pytest.approx(
                naive_preference_row(u, graph, model, normalized=True))


def test_adding_a_region_never_lowers_preference():
    graph, model = frozen_model()
    base = preference_matrix(graph, model)[0, 0]
    grown = CloudModel(
        ["c0", "c1"], ["r0", "r1", "r2", "r3"], [0, 0, 1, 0],
        model.pricing,
        AffinityTable(np.hstack([model.affinity.download, [[0.5], [0.95], [0.1]]]),
                      np.hstack([model.affinity.upload, [[0.9], [0.0], [0.0]]])),
        model.upload_volume, model.blend_weight,
    )
    assert preference_matrix(graph, grown)[0, 0] >= base
    # r3 improves both v1's download (0.95) and u's upload (0.9)
    assert preference_matrix(graph, grown)[0, 0] == pytest.approx(0.95 + 0.7 + 2 * 0.9 * 5)


def test_normalized_preference_is_scale_invariant():
    graph, model = frozen_model()
    doubled = CloudModel(
        model.cloud_labels, model.region_labels, model.region_cloud,
        model.pricing,
        AffinityTable(2 * model.affinity.download, 2 * model.affinity.upload),
        model.upload_volume, model.blend_weight,
    )
    assert normalize_rows(preference_matrix(graph, doubled))[0].tolist() == pytest.approx(
        normalize_rows(preference_matrix(graph, model))[0].tolist())


def test_default_profiles_use_mean_outgoing_weight():
    graph = load_graph([("a", "b", 2.0), ("a", "c", 4.0), ("b", "a", 1.0)])
    vol, blend = default_profiles(graph)
    assert vol.tolist() == pytest.approx([3.0, 1.0, 0.0])
    assert blend.tolist() == [1.0, 1.0, 1.0]
    # a zero-weight edge is an edge: it counts towards its user's mean
    graph = load_graph([("a", "b", 0.0), ("a", "c", 2.0), ("c", "a", 1.0)])
    vol, _ = default_profiles(graph)
    assert vol.tolist() == [1.0, 0.0, 1.0]


def test_default_profiles_match_the_loop_oracle():
    # integer weights sum exactly in any order
    graph = synth_graph(300, 3.0, 2.0, rng_seed=3)
    vol, _ = default_profiles(graph)
    assert vol.tolist() == naive_upload_volumes(graph)
    assert np.count_nonzero(vol == 0.0) > 0  # users without out-edges
    # float weights: users with many out-edges sum in another order
    rng = np.random.default_rng(4)
    src = rng.integers(0, 40, 2000)
    dst = rng.integers(0, 40, 2000)
    keep = src != dst
    graph = SocialGraph([f"u{i}" for i in range(41)], src[keep], dst[keep],
                        rng.uniform(0.0, 3.0, int(keep.sum())))
    vol, _ = default_profiles(graph)
    assert vol[40] == 0.0
    np.testing.assert_allclose(vol, naive_upload_volumes(graph), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 9), data=st.data())
def test_default_profiles_match_the_loop_oracle_on_zero_weights_and_idle_users(block, n, data):
    # 0.0 and small integers sum exactly in any order; users may have only
    # zero-weight out-edges, a mean of 0.0 over a count above 0, or no
    # out-edge at all; blocks of a few friend-CSR slots cut rows apart
    records = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                           st.sampled_from((0.0, 0.0, 1.0, 2.0, 5.0))),
                                 max_size=20))
    src = [s for s, _, _ in records]
    dst = [(s + k) % n for s, k, _ in records]
    graph = SocialGraph([f"u{i}" for i in range(n)], src, dst, [w for *_, w in records])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_BLOCK", block)
        vol, _ = default_profiles(graph)
    assert vol.dtype == np.float64 and vol.shape == (n,)
    assert vol.tolist() == naive_upload_volumes(graph)


def test_affinity_from_coordinates():
    # users at distance 0, twice, once and three times the scale
    table = AffinityTable.from_coordinates([[0.0, 0.0], [1.0, 0.0], [0.0, 0.5], [1.5, 0.0]],
                                           [[0.0, 0.0]], scale=0.5)
    assert table.download[0, 0] == 1.0
    assert table.download[1:, 0].tolist() == pytest.approx([1.0 / 3.0, 0.5, 0.25])
    assert np.array_equal(table.download, table.upload)
    with pytest.raises(ValidationError):
        AffinityTable.from_coordinates([[0.0, 0.0]], [[0.0, 0.0]], scale=0.0)


@pytest.mark.parametrize("download, upload, message", [
    ([[0.5, 0.5]], [[0.5]], "affinity arrays must share one (users x regions) shape"),
    ([0.5, 0.5], [0.5, 0.5], "affinity arrays must share one (users x regions) shape"),
    ([[0.5, float("nan")]], [[0.5, 0.5]], "affinities must be finite"),
    ([[0.5, 0.5]], [[0.5, float("inf")]], "affinities must be finite"),
    ([[0.5, -0.5]], [[0.5, 0.5]], "affinities must be non-negative"),
], ids=["shapes-differ", "flat", "nan", "inf", "negative"])
def test_affinity_table_refuses_bad_arrays(download, upload, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        AffinityTable(download, upload)


@pytest.mark.parametrize("user_xy, region_xy", [
    ([0.0, 0.0], [[0.0, 0.0]]),
    ([[0.0, 0.0]], [0.0, 0.0]),
    ([[0.0, 0.0]], [[0.0, 0.0, 0.0]]),
], ids=["flat-users", "flat-regions", "widths-differ"])
def test_affinity_from_coordinates_refuses_bad_shapes(user_xy, region_xy):
    message = "coordinates must be (points x dims) arrays of one width"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        AffinityTable.from_coordinates(user_xy, region_xy, scale=1.0)


def test_affinity_from_coordinates_rejects_distances_that_overflow():
    with pytest.raises(ValidationError, match="distances must be finite"):
        AffinityTable.from_coordinates([[0.0, 0.0]], [[1e308, -1e308]], scale=0.3)
    with pytest.raises(ValidationError, match="distances must be finite"):
        AffinityTable.from_coordinates([[float("nan"), 0.0]], [[0.0, 0.0]], scale=0.3)


def same_bits(got, want):
    """Equal shape and equal float64 bit patterns (so 0.0 differs from -0.0)."""
    want = np.asarray(want, dtype=np.float64).reshape(np.shape(got))
    return np.asarray(got).tobytes() == want.tobytes()


# few distinct values, so users share positions and rows; -0.0 sits next to 0.0
COORD = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0]),
                  st.floats(-10.0, 10.0, allow_subnormal=False))
AFFINITY = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(0.0, 2.0))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_users=st.integers(1, 12), n_regions=st.integers(1, 5),
       n_clouds=st.integers(1, 3), source=st.sampled_from(["coordinates", "dense", "csv"]))
def test_factored_affinity_table_matches_the_dense_loop_oracle(tmp_path_factory, data,
                                                               n_users, n_regions,
                                                               n_clouds, source):
    region_cloud = data.draw(st.lists(st.integers(0, n_clouds - 1),
                                      min_size=n_regions, max_size=n_regions))
    if source == "coordinates":
        user_xy = data.draw(st.lists(st.tuples(COORD, COORD), min_size=n_users,
                                     max_size=n_users))
        region_xy = data.draw(st.lists(st.tuples(COORD, COORD), min_size=n_regions,
                                       max_size=n_regions))
        scale = data.draw(st.floats(0.01, 10.0))
        table = AffinityTable.from_coordinates(user_xy, region_xy, scale)
        download = upload = naive_decay_affinity(user_xy, region_xy, scale)
        # one row per distinct position (0.0 and -0.0 are one), as np.unique finds them
        assert table.n_rows == len(set(user_xy))
        _, inverse = np.unique(np.array(user_xy), axis=0, return_inverse=True)
        assert table.user_row.tolist() == inverse.ravel().tolist()
    elif source == "dense":
        download, upload = (data.draw(st.lists(st.lists(AFFINITY, min_size=n_regions,
                                                        max_size=n_regions),
                                               min_size=n_users, max_size=n_users))
                            for _ in range(2))
        table = AffinityTable(download, upload)
    else:
        # a file that leaves pairs unlisted and lists some twice (the last wins)
        lines = data.draw(st.lists(st.tuples(st.integers(0, n_users - 1),
                                             st.integers(0, n_regions - 1), AFFINITY, AFFINITY),
                                   max_size=2 * n_users * n_regions))
        download = [[0.0] * n_regions for _ in range(n_users)]
        upload = [[0.0] * n_regions for _ in range(n_users)]
        for u, s, d, up in lines:
            download[u][s], upload[u][s] = d, up
        path = tmp_path_factory.mktemp("affinities") / "affinities.csv"
        path.write_text("".join(f"u{u},r{s},{d!r},{up!r}\n" for u, s, d, up in lines))
        users = SocialGraph([f"u{i}" for i in range(n_users)], [], [], [])
        table = load_affinities(path, users, [f"r{j}" for j in range(n_regions)])
    model = CloudModel([f"c{k}" for k in range(n_clouds)],
                       [f"r{j}" for j in range(n_regions)], region_cloud,
                       PricingMatrix.uniform(n_clouds), table,
                       np.ones(n_users), np.ones(n_users))
    # every table maps each user to its row; the model's best tables are per row
    assert table.user_row.dtype == np.int64 and table.user_row.shape == (n_users,)
    assert model.best_download.shape == model.best_upload.shape == (table.n_rows, n_clouds)
    for k in range(1, n_clouds + 1):
        small = model.restrict(k)
        keep = [s for s in range(n_regions) if region_cloud[s] < k]
        kept_cloud = [region_cloud[s] for s in keep]
        for got, want in ((small.affinity.download, download),
                          (small.affinity.upload, upload)):
            want = [[row[s] for s in keep] for row in want]
            assert same_bits(got, want)
        user_row = small.affinity.user_row
        assert same_bits(small.best_download[user_row], naive_best_per_cloud(
            [[row[s] for s in keep] for row in download], kept_cloud, k))
        assert same_bits(small.best_upload[user_row], naive_best_per_cloud(
            [[row[s] for s in keep] for row in upload], kept_cloud, k))


# -- pricing -----------------------------------------------------------------

def test_pricing_validation():
    with pytest.raises(ValidationError):
        PricingMatrix([[0.0, 1.0]])
    with pytest.raises(ValidationError):
        PricingMatrix([[0.0, -1.0], [1.0, 0.0]])


def test_uniform_pricing():
    pm = PricingMatrix.uniform(3, inter_price=2.0, intra_price=0.5)
    assert pm.matrix[0, 0] == 0.5
    assert pm.matrix[0, 2] == 2.0
    assert pm.n_clouds == 3


def test_pricing_csv_round_trip(tmp_path):
    pm = PricingMatrix([[0.0, 1.5, 2.0], [0.5, 0.0, 1.0], [2.5, 3.0, 0.0]])
    p = tmp_path / "pricing.csv"
    pm.to_csv(p, ["aws", "gcp", "az"])
    labels, again = PricingMatrix.from_csv(p)
    assert labels == ("aws", "gcp", "az")
    assert np.array_equal(again.matrix, pm.matrix)


# -- model validation and restriction ----------------------------------------

def test_model_rejects_shape_mismatches():
    aff = AffinityTable(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        CloudModel(["c0"], ["r0", "r1"], [0, 1], PricingMatrix.uniform(1),
                   aff, [1.0, 1.0], [1.0, 1.0])  # region maps to cloud 1
    with pytest.raises(ValidationError):
        CloudModel(["c0", "c1"], ["r0", "r1"], [0, 1],
                   PricingMatrix.uniform(3), aff, [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        CloudModel(["c0", "c1"], ["r0", "r1"], [0, 1],
                   PricingMatrix.uniform(2), aff, [1.0], [1.0, 1.0])
    with pytest.raises(ValidationError):  # home region r2 does not exist
        CloudModel(["c0", "c1"], ["r0", "r1"], [0, 1],
                   PricingMatrix.uniform(2), aff, [1.0, 1.0], [1.0, 1.0], [0, 2])


@pytest.mark.parametrize("change, message", [
    ({"cloud_labels": ["c0", "c0"]}, "cloud labels must be unique"),
    ({"region_labels": ["r0", "r0"]}, "region labels must be unique"),
    ({"region_cloud": [0]}, "region_cloud must map every region"),
    ({"affinity": AffinityTable(np.zeros((2, 3)), np.zeros((2, 3)))},
     "affinity table region count mismatch"),
    ({"upload_volume": [1.0, -1.0]}, "profile values must be non-negative"),
    ({"blend_weight": [-1.0, 1.0]}, "profile values must be non-negative"),
    ({"home_region": [0]}, "home_region must cover every user"),
], ids=["cloud-labels", "region-labels", "region-cloud", "affinity-regions", "volume",
        "blend", "home-region"])
def test_model_refuses_bad_input(change, message):
    args = {"cloud_labels": ["c0", "c1"], "region_labels": ["r0", "r1"], "region_cloud": [0, 1],
            "pricing": PricingMatrix.uniform(2),
            "affinity": AffinityTable(np.zeros((2, 2)), np.zeros((2, 2))),
            "upload_volume": [1.0, 1.0], "blend_weight": [1.0, 1.0]}
    CloudModel(**args)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        CloudModel(**{**args, **change})


@pytest.mark.parametrize("n_model_users", [6, 10])
def test_a_model_of_another_user_count_is_refused_when_no_table_is_given(n_model_users):
    graph, _ = make_instance(0, n_users=8)
    _, model = make_instance(0, n_users=n_model_users)
    host = Assignment(np.zeros(graph.n_users, dtype=np.int64))
    params = ObjectiveParams(alpha=0.5)
    for call in (lambda: preference_matrix(graph, model),
                 lambda: run_heuristic(graph, model, HeuristicParams(params)),
                 lambda: evaluate(host, graph, model, params)):
        with pytest.raises(ValidationError, match="^model and graph disagree on user count$"):
            call()


def test_restrict_drops_trailing_clouds():
    graph, model = make_instance(0, n_users=8, n_clouds=4, n_edges=16,
                                 regions_per_cloud=2)
    small = model.restrict(2)
    assert small.n_clouds == 2
    assert small.cloud_labels == model.cloud_labels[:2]
    keep = [s for s in range(model.n_regions) if model.region_cloud[s] < 2]
    assert list(small.region_labels) == [model.region_labels[s] for s in keep]
    assert np.array_equal(small.affinity.download,
                          model.affinity.download[:, keep])
    assert np.array_equal(small.pricing.matrix, model.pricing.matrix[:2, :2])
    # regions 0..7 on clouds 3, 2, 1, 0, 3, 2, 1, 0: regions 2, 3, 6 and 7 stay
    # as 0..3, and users homed on clouds 2 and 3 lose their home
    homed = CloudModel(model.cloud_labels, model.region_labels, model.region_cloud[::-1],
                       model.pricing, model.affinity, model.upload_volume,
                       model.blend_weight, [-1, 0, 1, 2, 3, 4, 5, 7])
    assert homed.restrict(2).home_region.tolist() == [-1, -1, -1, 0, 1, -1, -1, 3]
    with pytest.raises(ValidationError):
        model.restrict(0)
    with pytest.raises(ValidationError):
        model.restrict(5)


# -- tabular loaders ---------------------------------------------------------

def test_region_loader_with_coordinates(tmp_path):
    p = tmp_path / "regions.csv"
    p.write_text("us-east,aws,0.1,0.2\nus-west,aws,0.8,0.3\neurope,gcp,0.4,0.9\n")
    clouds, regions, region_cloud, xy = load_regions(p)
    assert clouds == ("aws", "gcp")
    assert regions == ("us-east", "us-west", "europe")
    assert region_cloud.tolist() == [0, 0, 1]
    assert xy.shape == (3, 2)
    assert xy[2].tolist() == [0.4, 0.9]


def test_region_loader_rejects_partial_coordinates(tmp_path):
    p = tmp_path / "regions.csv"
    p.write_text("r0,aws,0.1,0.2\nr1,gcp\n")
    with pytest.raises(ValidationError):
        load_regions(p)


def test_affinity_loader(tmp_path):
    graph = load_graph([("a", "b", 1.0)])
    p = tmp_path / "aff.csv"
    p.write_text("a,r0,0.9,0.8\nb,r1,0.5,0.4\n")
    table = load_affinities(p, graph, ("r0", "r1"))
    assert table.download[0, 0] == 0.9
    assert table.upload[1, 1] == 0.4
    assert table.download[0, 1] == 0.0

    bad = tmp_path / "bad.csv"
    bad.write_text("nobody,r0,0.9,0.8\n")
    with pytest.raises(ValidationError):
        load_affinities(bad, graph, ("r0", "r1"))
    # sampled graphs may drop users present in the sidecar tables
    table = load_affinities(bad, graph, ("r0", "r1"), ignore_unknown_users=True)
    assert table.download.sum() == 0.0
    # an unknown user's row is dropped whatever else it breaks, and without
    # the flag the unknown user is the error it names
    bad.write_text("nobody,rX,abc,-1\n")
    table = load_affinities(bad, graph, ("r0", "r1"), ignore_unknown_users=True)
    assert table.download.sum() == 0.0
    with pytest.raises(ParseError, match=r"^line 1: unknown user 'nobody'$"):
        load_affinities(bad, graph, ("r0", "r1"))
    # a known user's unknown region is refused even with the flag
    bad.write_text("nobody,rX,abc,-1\na,rX,0.9,0.8\n")
    with pytest.raises(ParseError, match=r"^line 2: unknown region 'rX'$"):
        load_affinities(bad, graph, ("r0", "r1"), ignore_unknown_users=True)


def test_affinity_loader_never_builds_the_users_by_regions_arrays(tmp_path):
    # two users x regions float64 arrays would take 2 * 2e4 * 200 * 8 B = 64 MB
    n, R = 20_000, 200
    regions = [f"r{j}" for j in range(R)]
    p = tmp_path / "aff.csv"
    p.write_text("".join(f"u{u},r{u % R},0.5,0.25\n" for u in range(n)))
    graph = SocialGraph([f"u{i}" for i in range(n)], [], [], [])
    table, peak = traced_peak(load_affinities, p, graph, regions)
    assert peak < 16 << 20, f"loading peaked at {peak / 2**20:.1f} MB"
    assert table.n_users == n
    assert table.download[7, 7] == 0.5 and table.upload[7, 7] == 0.25
    assert table.download.sum() == 0.5 * n


def test_profile_loader(tmp_path):
    graph = load_graph([("a", "b", 1.0)])
    p = tmp_path / "profiles.csv"
    p.write_text("a,5.0,2.0,r1\nb,1.0,1.0,r0\n")
    vol, blend, home = load_profiles(p, graph, region_labels=("r0", "r1"))
    assert vol.tolist() == [5.0, 1.0]
    assert blend.tolist() == [2.0, 1.0]
    assert home.tolist() == [1, 0]

    # unlisted users keep the defaults; home region stays unset
    partial = tmp_path / "partial.csv"
    partial.write_text("a,5.0,2.0\n")
    vol, blend, home = load_profiles(partial, graph)
    assert vol.tolist() == [5.0, 0.0]   # b has no outgoing edges
    assert blend.tolist() == [2.0, 1.0]
    assert home.tolist() == [-1, -1]

    bad = tmp_path / "bad.csv"
    bad.write_text("a,-5.0,2.0\n")
    with pytest.raises(ValidationError):
        load_profiles(bad, graph)

    # as for affinities: an unknown user's row is dropped with the flag
    # whatever else it breaks, and is refused as an unknown user without it
    bad.write_text("nobody,abc,-1,rX\n")
    vol, blend, home = load_profiles(bad, graph, ("r0", "r1"), ignore_unknown_users=True)
    assert (vol.tolist(), blend.tolist(), home.tolist()) == ([1.0, 0.0], [1.0, 1.0], [-1, -1])
    with pytest.raises(ParseError, match=r"^line 1: unknown user 'nobody'$"):
        load_profiles(bad, graph, ("r0", "r1"))
    bad.write_text("nobody,abc,-1,rX\na,5.0,2.0,rX\n")
    with pytest.raises(ParseError, match=r"^line 2: unknown region 'rX'$"):
        load_profiles(bad, graph, ("r0", "r1"), ignore_unknown_users=True)
