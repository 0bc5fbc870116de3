import numpy as np
import pytest

from cloudcut import (
    AffinityTable,
    CloudModel,
    PricingMatrix,
    SocialGraph,
    ValidationError,
    default_profiles,
    geo_affinity,
    load_affinities,
    load_graph,
    load_profiles,
    load_regions,
    local_download_index,
    local_upload_index,
    normalized_preference,
    preference,
    preference_matrix,
    synth_graph,
)
from oracles import make_instance, naive_preference_row, naive_upload_volumes


def frozen_model():
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
        blend_weight=[2.0, 1.0, 1.0],
    )
    return graph, model


def test_download_index_takes_best_region_per_friend():
    graph, model = frozen_model()
    # v1 best in c0 is 0.9 (r0), v2 best is 0.7 (r1)
    assert local_download_index(0, 0, graph, model) == pytest.approx(1.6)
    assert local_download_index(0, 1, graph, model) == pytest.approx(0.8)


def test_upload_index_scales_by_volume():
    graph, model = frozen_model()
    assert local_upload_index(0, 0, model) == pytest.approx(4.0)   # 0.8 * 5
    assert local_upload_index(0, 1, model) == pytest.approx(1.5)   # 0.3 * 5


def test_preference_blends_download_and_upload():
    graph, model = frozen_model()
    assert preference(0, 0, graph, model) == pytest.approx(9.6)    # 1.6 + 2*4
    assert preference(0, 1, graph, model) == pytest.approx(3.8)    # 0.8 + 2*1.5
    assert normalized_preference(0, 0, graph, model) == pytest.approx(9.6 / 13.4)


def test_normalized_rows_sum_to_one():
    graph = load_graph([("a", "b", 1.0)], )
    model = CloudModel(
        ["c0", "c1", "c2"], ["r0", "r1", "r2"], [0, 1, 2],
        PricingMatrix.uniform(3),
        AffinityTable.from_entries(2, 3, [(0, 0, 0.0, 2.0),
                                          (0, 1, 0.0, 1.0),
                                          (0, 2, 0.0, 1.0)]),
        upload_volume=[1.0, 1.0],
        blend_weight=[1.0, 1.0],
    )
    psi = preference_matrix(graph, model, normalized=True)
    assert psi[0].tolist() == pytest.approx([0.5, 0.25, 0.25])
    # user b has zero preference everywhere: uniform fallback
    assert psi[1].tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(psi.sum(axis=1), 1.0)


def test_preference_matrix_matches_scalar_definitions():
    for seed in range(6):
        graph, model = make_instance(seed, n_users=12, n_clouds=4, n_edges=30,
                                     pricing="random", regions_per_cloud=2)
        psi = preference_matrix(graph, model)
        norm = preference_matrix(graph, model, normalized=True)
        for u in range(graph.n_users):
            assert psi[u].tolist() == pytest.approx(
                naive_preference_row(u, graph, model, normalized=False))
            assert norm[u].tolist() == pytest.approx(
                naive_preference_row(u, graph, model, normalized=True))


def test_adding_a_region_never_lowers_preference():
    graph, model = frozen_model()
    base = preference(0, 0, graph, model)
    grown = CloudModel(
        ["c0", "c1"], ["r0", "r1", "r2", "r3"], [0, 0, 1, 0],
        model.pricing,
        AffinityTable(np.hstack([model.affinity.download, [[0.5], [0.95], [0.1]]]),
                      np.hstack([model.affinity.upload, [[0.9], [0.0], [0.0]]])),
        model.upload_volume, model.blend_weight,
    )
    assert preference(0, 0, graph, grown) >= base
    # r3 improves both v1's download (0.95) and u's upload (0.9)
    assert preference(0, 0, graph, grown) == pytest.approx(0.95 + 0.7 + 2 * 0.9 * 5)


def test_normalized_preference_is_scale_invariant():
    graph, model = frozen_model()
    doubled = CloudModel(
        model.cloud_labels, model.region_labels, model.region_cloud,
        model.pricing,
        AffinityTable(2 * model.affinity.download, 2 * model.affinity.upload),
        model.upload_volume, model.blend_weight,
    )
    for c in range(2):
        assert normalized_preference(0, c, graph, doubled) == pytest.approx(
            normalized_preference(0, c, graph, model))


def test_default_profiles_use_mean_outgoing_weight():
    graph = load_graph([("a", "b", 2.0), ("a", "c", 4.0), ("b", "a", 1.0)])
    vol, blend = default_profiles(graph, blend=0.5)
    assert vol.tolist() == pytest.approx([3.0, 1.0, 0.0])
    assert blend.tolist() == [0.5, 0.5, 0.5]


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


def test_geo_affinity_decay():
    assert geo_affinity(0.0, 0.3) == 1.0
    assert geo_affinity(0.3, 0.3) == pytest.approx(0.5)
    assert geo_affinity(0.9, 0.3) == pytest.approx(0.25)
    with pytest.raises(ValidationError):
        geo_affinity(-1.0, 0.3)
    with pytest.raises(ValidationError):
        geo_affinity(1.0, 0.0)


def test_affinity_from_coordinates():
    table = AffinityTable.from_coordinates([[0.0, 0.0], [1.0, 0.0]],
                                           [[0.0, 0.0]], scale=0.5)
    assert table.download_affinity(0, 0) == 1.0
    assert table.download_affinity(1, 0) == pytest.approx(1.0 / 3.0)
    assert np.array_equal(table.download, table.upload)


# -- pricing -----------------------------------------------------------------

def test_pricing_validation():
    with pytest.raises(ValidationError):
        PricingMatrix([[0.0, 1.0]])
    with pytest.raises(ValidationError):
        PricingMatrix([[0.0, -1.0], [1.0, 0.0]])


def test_uniform_pricing():
    pm = PricingMatrix.uniform(3, inter_price=2.0, intra_price=0.5)
    assert pm.rate(0, 0) == 0.5
    assert pm.rate(0, 2) == 2.0
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
    assert table.download_affinity(0, 0) == 0.9
    assert table.upload_affinity(1, 1) == 0.4
    assert table.download_affinity(0, 1) == 0.0

    bad = tmp_path / "bad.csv"
    bad.write_text("nobody,r0,0.9,0.8\n")
    with pytest.raises(ValidationError):
        load_affinities(bad, graph, ("r0", "r1"))
    # sampled graphs may drop users present in the sidecar tables
    table = load_affinities(bad, graph, ("r0", "r1"), ignore_unknown_users=True)
    assert table.download.sum() == 0.0


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
