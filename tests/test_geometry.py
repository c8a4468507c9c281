"""Geometry layer: clouds, rotations, kNN, initial features, shapes, IO."""

import numpy as np
import pytest

from svpoint.errors import ParameterError
from svpoint.geometry import (KnnGraph, PointCloud, Rotation, SVFeature,
                              apply_rotation, extract_initial_features,
                              knn_graphs, random_rotation, read_off, read_xyz,
                              rotate_feature, rotate_vectors,
                              signed_permutation_rotation, synthesize_shapes,
                              write_xyz, z_rotation)
from svpoint.svcore import LinearParams


def frame22():
    rng = np.random.default_rng(7)
    return LinearParams(weight=rng.standard_normal((2, 3)))


def knn_one(cloud, k):
    return knn_graphs([cloud], k)[0]


def extract_one(cloud, graph, frame_params):
    return extract_initial_features([cloud], [graph], frame_params)


# ---------------------------------------------------------------------------
# containers


def test_cloud_validation():
    with pytest.raises(ParameterError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ParameterError):
        PointCloud(np.zeros((4, 2)))
    with pytest.raises(ParameterError):
        PointCloud(np.array([[0.0, np.nan, 0.0]]))
    cloud = PointCloud([[1, 2, 3]], label=2)
    assert cloud.n == 1 and cloud.label == 2
    assert cloud.points.dtype == np.float64


def test_rotation_validation():
    with pytest.raises(ParameterError):
        Rotation(np.eye(3) * 2.0)
    with pytest.raises(ParameterError):
        Rotation(np.diag([1.0, 1.0, -1.0]))  # reflection
    Rotation(np.eye(3))


def test_feature_validation():
    with pytest.raises(ParameterError):
        SVFeature(scalars=np.zeros((2, 5)), vectors=np.zeros((3, 1, 4)))
    with pytest.raises(ParameterError):
        SVFeature(scalars=np.zeros((0, 5)), vectors=np.zeros((3, 0, 5)))
    f = SVFeature(scalars=np.zeros((2, 5)), vectors=np.zeros((3, 0, 5)))
    assert (f.p, f.q, f.n_sites) == (2, 0, 5)


# ---------------------------------------------------------------------------
# rotations


def test_random_rotation_orthogonal():
    for seed in range(50):
        m = random_rotation(seed).matrix
        assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_random_rotation_deterministic():
    assert np.array_equal(random_rotation(11).matrix, random_rotation(11).matrix)


def test_random_rotation_uniform_mean_trace():
    # uniform rotations have expected trace 0
    rng = np.random.default_rng(0)
    total = 0.0
    trials = 100_000
    for _ in range(trials):
        total += np.trace(random_rotation(rng).matrix)
    assert abs(total / trials) < 0.02


def test_z_rotation_fixes_axis():
    for seed in range(10):
        m = z_rotation(seed).matrix
        assert np.array_equal(m[2], [0.0, 0.0, 1.0])
        assert np.array_equal(m[:, 2], [0.0, 0.0, 1.0])


def test_signed_permutations_basics():
    assert np.array_equal(signed_permutation_rotation(0).matrix, np.eye(3))
    seen = set()
    for i in range(24):
        m = signed_permutation_rotation(i).matrix
        assert np.linalg.det(m) == 1.0
        assert set(np.unique(m)) <= {-1.0, 0.0, 1.0}
        seen.add(m.tobytes())
    assert len(seen) == 24
    for bad in (-1, 24):
        with pytest.raises(ParameterError):
            signed_permutation_rotation(bad)


def test_signed_permutations_closed_under_composition():
    mats = [signed_permutation_rotation(i).matrix for i in range(24)]
    keys = {m.tobytes() for m in mats}
    for a in mats:
        for b in mats:
            assert (a @ b).tobytes() in keys


def test_apply_rotation():
    cloud = PointCloud([[1.0, 0.0, 0.0]], label=3)
    ident = apply_rotation(cloud, Rotation(np.eye(3)))
    assert np.array_equal(ident.points, cloud.points) and ident.label == 3

    quarter = Rotation(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert np.array_equal(apply_rotation(cloud, quarter).points, [[0.0, 1.0, 0.0]])

    rng = np.random.default_rng(3)
    for seed in range(20):
        pts = rng.standard_normal((17, 3))
        rot = random_rotation(seed)
        back = apply_rotation(apply_rotation(PointCloud(pts), rot),
                              Rotation(rot.matrix.T))
        assert np.abs(back.points - pts).max() < 1e-12


# ---------------------------------------------------------------------------
# kNN


def test_knn_collinear():
    cloud = PointCloud([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    assert knn_one(cloud, 1).neighbors.tolist() == [[1], [0], [1]]


def test_knn_exhaustive_rows():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.standard_normal((12, 3)))
    graph = knn_one(cloud, 11)
    for i in range(12):
        assert sorted(graph.neighbors[i]) == [j for j in range(12) if j != i]
        d = np.linalg.norm(cloud.points[graph.neighbors[i]] - cloud.points[i], axis=1)
        assert (np.diff(d) >= -1e-15).all()


def test_knn_matches_brute_force():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((64, 3))
        graph = knn_one(PointCloud(pts), 8)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        oracle = np.argsort(d2, axis=1, kind="stable")[:, :8]
        assert np.array_equal(graph.neighbors, oracle)


def test_knn_k_range():
    cloud = PointCloud(np.random.default_rng(0).standard_normal((5, 3)))
    for bad in (0, 5):
        with pytest.raises(ParameterError):
            knn_one(cloud, bad)


def test_knn_graphs_batch_input_checks():
    rng = np.random.default_rng(3)
    mixed = [PointCloud(rng.standard_normal((6, 3))), PointCloud(rng.standard_normal((7, 3)))]
    with pytest.raises(ParameterError, match="equal point counts"):
        knn_graphs(mixed, 2)
    with pytest.raises(ParameterError):
        knn_graphs([], 2)


def test_knn_graphs_batch_matches_single_clouds():
    rng = np.random.default_rng(4)
    clouds = [PointCloud(rng.standard_normal((20, 3))) for _ in range(3)]
    for cloud, graph in zip(clouds, knn_graphs(clouds, 5)):
        assert np.array_equal(graph.neighbors, knn_one(cloud, 5).neighbors)


def test_knn_permutation_consistent():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((30, 3))
    graph = knn_one(PointCloud(pts), 6)
    perm = rng.permutation(30)
    inv = np.argsort(perm)
    shuffled = knn_one(PointCloud(pts[perm]), 6)
    for new_i in range(30):
        old_i = perm[new_i]
        assert set(perm[shuffled.neighbors[new_i]]) == set(graph.neighbors[old_i])


def test_knn_graph_type_checks():
    with pytest.raises(ParameterError):
        KnnGraph(k=3, neighbors=np.zeros((4, 2), dtype=int))


# ---------------------------------------------------------------------------
# initial features


def test_extract_vector_columns():
    cloud = PointCloud([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [5.0, 5.0, 5.0]])
    graph = KnnGraph(k=1, neighbors=np.array([[1], [0], [0]]))
    feat = extract_one(cloud, graph, frame22())
    vecs = np.asarray(feat.vectors.data)
    # edge (0, 1): columns o_0 and o_1 - o_0
    assert np.array_equal(vecs[:, 0, 0], [1.0, 0.0, 0.0])
    assert np.array_equal(vecs[:, 1, 0], [0.0, 1.0, 0.0])
    assert (feat.p, feat.q, feat.n_sites) == (6, 2, 3)


def test_extract_center_column_zero_at_origin():
    cloud = PointCloud([[0.0, 0, 0], [0.0, 0, 1], [0.0, 1, 0]])
    graph = knn_one(cloud, 2)
    feat = extract_one(cloud, graph, frame22())
    vecs = np.asarray(feat.vectors.data)
    assert np.array_equal(vecs[:, 0, :2], np.zeros((3, 2)))  # o_0 = origin


def test_extract_equivariance():
    params = frame22()
    rng = np.random.default_rng(5)
    for seed in range(30):
        cloud = PointCloud(rng.standard_normal((20, 3)))
        graph = knn_one(cloud, 4)
        feat = extract_one(cloud, graph, params)
        rot = random_rotation(seed)
        feat_rot = extract_one(apply_rotation(cloud, rot), graph, params)
        assert np.abs(
            np.asarray(feat_rot.vectors.data)
            - rotate_vectors(np.asarray(feat.vectors.data), rot)
        ).max() < 1e-12
        assert np.abs(
            np.asarray(feat_rot.scalars.data) - np.asarray(feat.scalars.data)
        ).max() < 1e-12


def test_extract_bit_exact_under_signed_perms():
    params = frame22()
    cloud = PointCloud(np.random.default_rng(2).standard_normal((16, 3)))
    graph = knn_one(cloud, 3)
    base = np.asarray(extract_one(cloud, graph, params).scalars.data)
    for i in range(24):
        rot = signed_permutation_rotation(i)
        rotated = extract_one(apply_rotation(cloud, rot), graph, params)
        assert np.array_equal(np.asarray(rotated.scalars.data), base), f"rotation {i}"


def test_extract_mismatch_errors():
    cloud = PointCloud(np.random.default_rng(0).standard_normal((8, 3)))
    graph = knn_one(cloud, 2)
    with pytest.raises(ParameterError):
        extract_one(PointCloud(np.zeros((3, 3)) + np.eye(3)), graph, frame22())
    with pytest.raises(ParameterError):
        extract_one(cloud, graph, LinearParams(weight=np.zeros((3, 3))))
    with pytest.raises(ParameterError):
        extract_initial_features([cloud, cloud], [graph], frame22())
    # indices outside [0, n) would read another cloud's points in a batch
    for bad in (8, -1):
        table = graph.neighbors.copy()
        table[3, 1] = bad
        with pytest.raises(ParameterError, match="neighbor indices"):
            extract_one(cloud, KnnGraph(k=2, neighbors=table), frame22())
    # a hand-made table may hold in-range indices yet have k >= n
    tiny = PointCloud(np.eye(3))
    for k in (3, 4):
        full = KnnGraph(k=k, neighbors=np.arange(3 * k).reshape(3, k) % 3)
        with pytest.raises(ParameterError, match=r"k=\d must be in \[1, 2\]"):
            extract_one(tiny, full, frame22())


def test_extract_batch_concatenates_clouds():
    rng = np.random.default_rng(6)
    clouds = [PointCloud(rng.standard_normal((10, 3))) for _ in range(3)]
    graphs = knn_graphs(clouds, 3)
    batch = extract_initial_features(clouds, graphs, frame22())
    singles = [extract_one(c, g, frame22()) for c, g in zip(clouds, graphs)]
    assert np.array_equal(batch.scalars.data,
                          np.concatenate([f.scalars.data for f in singles], axis=1))
    assert np.array_equal(batch.vectors.data,
                          np.concatenate([f.vectors.data for f in singles], axis=2))


def test_extract_raw_coordinates_without_frame():
    cloud = PointCloud([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [5.0, 5.0, 5.0]])
    graph = KnnGraph(k=1, neighbors=np.array([[1], [0], [0]]))
    feat = extract_one(cloud, graph, None)
    assert (feat.p, feat.q, feat.n_sites) == (6, 0, 3)
    # edge (0, 1): o_0 then o_1 - o_0
    assert np.asarray(feat.scalars.data)[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# synthetic shapes


def test_sphere_on_unit_surface():
    cloud = synthesize_shapes(0, 200, 0)
    assert np.abs(np.linalg.norm(cloud.points, axis=1) - 1.0).max() < 1e-9
    assert cloud.label == 0


def test_cube_on_surface():
    cloud = synthesize_shapes(1, 200, 1)
    assert np.abs(np.abs(cloud.points).max(axis=1) - 0.5).max() < 1e-9
    assert np.abs(cloud.points).max() <= 0.5 + 1e-12


def test_torus_tube_radius():
    cloud = synthesize_shapes(2, 500, 2)
    x, y, z = cloud.points.T
    ring = np.sqrt(x * x + y * y) - 1.0
    tube = np.sqrt(ring * ring + z * z)
    assert np.abs(tube - 0.35).max() < 1e-6


def test_cylinder_on_surface():
    cloud = synthesize_shapes(3, 400, 3)
    x, y, z = cloud.points.T
    rad = np.sqrt(x * x + y * y)
    on_side = np.abs(rad - 0.5) < 1e-9
    on_cap = np.abs(np.abs(z) - 1.0) < 1e-9
    assert (on_side | on_cap).all()
    assert (rad <= 0.5 + 1e-9).all()
    assert (np.abs(z) <= 1.0 + 1e-9).all()


def test_shapes_deterministic_and_validated():
    a = synthesize_shapes(2, 64, 42)
    b = synthesize_shapes(2, 64, 42)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(ParameterError):
        synthesize_shapes(4, 64, 0)
    with pytest.raises(ParameterError):
        synthesize_shapes(0, 15, 0)


# ---------------------------------------------------------------------------
# file IO


def test_xyz_round_trip(tmp_path):
    cloud = PointCloud(np.random.default_rng(0).standard_normal((33, 3)))
    path = tmp_path / "c.xyz"
    write_xyz(cloud, path)
    again = read_xyz(path)
    assert np.array_equal(again.points, cloud.points)
    write_xyz(cloud, tmp_path / "c2.xyz")
    assert (tmp_path / "c.xyz").read_bytes() == (tmp_path / "c2.xyz").read_bytes()


def test_xyz_comments_and_errors(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n\n1 2 3\n")
    assert np.array_equal(read_xyz(path).points, [[1.0, 2.0, 3.0]])

    path.write_text("1 2\n")
    with pytest.raises(ParameterError, match=":1"):
        read_xyz(path)
    path.write_text("1 2 x\n")
    with pytest.raises(ParameterError, match="malformed"):
        read_xyz(path)
    path.write_text("# only comments\n")
    with pytest.raises(ParameterError, match="no points"):
        read_xyz(path)


def test_off_reader(tmp_path):
    path = tmp_path / "m.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    cloud = read_off(path)
    assert cloud.n == 3
    assert np.array_equal(cloud.points[1], [1.0, 0.0, 0.0])

    path.write_text("NOT-OFF\n")
    with pytest.raises(ParameterError, match="OFF header"):
        read_off(path)
    path.write_text("OFF\n5 0 0\n0 0 0\n")
    with pytest.raises(ParameterError, match="expected 5 vertices"):
        read_off(path)
    path.write_text("OFF\n1 0 0\n0 zero 0\n")
    with pytest.raises(ParameterError, match="malformed vertex"):
        read_off(path)


def test_rotate_feature_action():
    rng = np.random.default_rng(4)
    feat = SVFeature(scalars=rng.standard_normal((2, 5)),
                     vectors=rng.standard_normal((3, 2, 5)))
    rot = random_rotation(0)
    out = rotate_feature(feat, rot)
    assert np.array_equal(np.asarray(out.scalars), np.asarray(feat.scalars))
    assert np.abs(
        np.asarray(out.vectors) - np.einsum("ij,jqn->iqn", rot.matrix, feat.vectors)
    ).max() == 0.0
