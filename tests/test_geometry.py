"""Geometry layer: clouds, rotations, kNN, shapes, IO; and the initial edge
features that `netbuild` builds from clouds and kNN tables."""

import re
import warnings

import numpy as np
import pytest

from helpers import rotate_feature, rotate_vectors, traced_peak
from svpoint.autodiff import sorted_coord_sum
from svpoint.errors import ParameterError
from svpoint.geometry import (PointCloud, Rotation, apply_rotation, batch_graph,
                              neighbor_tables, random_rotation, read_xyz,
                              signed_permutation_rotation, synthesize_shapes, write_xyz,
                              z_rotation)
from svpoint.netbuild import extract_initial_features
from svpoint.svcore import LinearParams, SVFeature


def frame22():
    rng = np.random.default_rng(7)
    return LinearParams(weight=rng.standard_normal((2, 3)))


def knn_one(cloud, k):
    return neighbor_tables([cloud], k)[0]


def extract_one(cloud, table, frame_params):
    return extract_initial_features([cloud], batch_graph([cloud], [table], table.shape[1]),
                                    frame_params)


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
    assert (f.scalars.shape, f.vectors.shape) == ((2, 5), (3, 0, 5))


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
    table = knn_one(cloud, 1)
    assert table.dtype == np.intp and table.tolist() == [[1], [0], [1]]


def test_knn_exhaustive_rows():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.standard_normal((12, 3)))
    table = knn_one(cloud, 11)
    for i in range(12):
        assert sorted(table[i]) == [j for j in range(12) if j != i]
        d = np.linalg.norm(cloud.points[table[i]] - cloud.points[i], axis=1)
        assert (np.diff(d) >= -1e-15).all()


def test_knn_matches_brute_force():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((64, 3))
        table = knn_one(PointCloud(pts), 8)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        oracle = np.argsort(d2, axis=1, kind="stable")[:, :8]
        assert np.array_equal(table, oracle)


def test_knn_k_range():
    cloud = PointCloud(np.random.default_rng(0).standard_normal((5, 3)))
    for bad in (0, 5):
        with pytest.raises(ParameterError):
            knn_one(cloud, bad)


def test_knn_graphs_batch_input_checks():
    rng = np.random.default_rng(3)
    mixed = [PointCloud(rng.standard_normal((6, 3))), PointCloud(rng.standard_normal((7, 3)))]
    with pytest.raises(ParameterError, match="equal point counts"):
        neighbor_tables(mixed, 2)
    with pytest.raises(ParameterError, match="no clouds given"):
        neighbor_tables([], 2)


def test_knn_graphs_batch_matches_single_clouds():
    rng = np.random.default_rng(4)
    clouds = [PointCloud(rng.standard_normal((20, 3))) for _ in range(3)]
    for cloud, table in zip(clouds, neighbor_tables(clouds, 5)):
        assert np.array_equal(table, knn_one(cloud, 5))


def stable_argsort_tables(clouds, k):
    """The oracle: full stable argsort of last-axis network distances."""
    pts = np.stack([c.points for c in clouds])
    n = pts.shape[1]
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    d2 = sorted_coord_sum(np.moveaxis(diff * diff, 3, 0))
    d2[:, np.arange(n), np.arange(n)] = np.inf
    return np.argsort(d2, axis=2, kind="stable")[:, :, :k]


def assert_tables_match_oracle(clouds, k):
    n = clouds[0].n
    for got, want in zip(neighbor_tables(clouds, k), stable_argsort_tables(clouds, k)):
        assert np.array_equal(got, want), k
        assert not (got == np.arange(n)[:, None]).any()  # self excluded
        ordered = np.sort(got, axis=1)
        assert (ordered[:, 1:] != ordered[:, :-1]).all()  # distinct entries


def test_knn_tables_match_last_axis_network_with_ties():
    """The coordinate-first distance sum orders neighbors as the network over a
    trailing coordinate axis did, ties by index included."""
    grid = np.stack(np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    perm = np.random.default_rng(10).permutation(27)
    clouds = [PointCloud(grid * 0.1), PointCloud(grid[perm] * 0.3 - 0.2)]
    for k in (6, 26):
        assert_tables_match_oracle(clouds, k)


def test_knn_partial_selection_matches_stable_argsort_on_heavy_ties():
    """Partial selection keeps the stable argsort's first k columns where
    ties straddle the k-th place: lattices, repeated and coincident points."""
    lattice = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    cube = signed_permutation_rotation(7).matrix
    upright_and_turned = [PointCloud(lattice), PointCloud(lattice @ cube.T)]
    for k in range(1, 64):
        assert_tables_match_oracle(upright_and_turned, k)
    shape = synthesize_shapes(1, 64, 5).points
    repeated = [PointCloud(np.repeat(shape, 4, axis=0)), PointCloud(np.tile(shape, (4, 1)))]
    assert_tables_match_oracle(repeated, 16)
    rng = np.random.default_rng(13)
    assert_tables_match_oracle([PointCloud(rng.standard_normal((17, 3)))], 16)  # n = k + 1
    assert_tables_match_oracle([PointCloud(lattice[:8])], 7)
    assert_tables_match_oracle([PointCloud(np.full((20, 3), 0.25))], 19)


def test_knn_rejects_distances_that_overflow():
    """Squared distances that overflow to inf would tie with the inf that
    masks each point itself, and list points as their own neighbors."""
    pts = np.random.default_rng(14).standard_normal((20, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="^squared distances overflow float64 in "
                                                 "cloud 1; .*range$"):
            neighbor_tables([PointCloud(pts), PointCloud(pts * 1e160)], 5)
        assert_tables_match_oracle([PointCloud(pts * 1e150)], 5)


def test_knn_tables_hold_only_their_own_entries():
    """A cached table keeps alive its own n*k entries, whatever `chunk` says."""
    rng = np.random.default_rng(12)
    clouds = [PointCloud(rng.standard_normal((30, 3))) for _ in range(5)]
    for chunk in (1, 2, 32):
        for table in neighbor_tables(clouds, 4, chunk=chunk):
            assert table.flags.c_contiguous
            held = table if table.base is None else table.base
            assert held.size == 30 * 4


def test_knn_memory_stays_at_one_cloud():
    """Distances are built one cloud at a time: 32 clouds of 256 points peak
    far below the 50 MB of a batch-wide (3, 32, 256, 256) difference tensor."""
    clouds = [synthesize_shapes(i % 4, 256, i) for i in range(32)]
    peak, tables = traced_peak(neighbor_tables, clouds, 16)
    held = sum(t.nbytes for t in tables)
    assert peak - held < 8 * 2**20, (peak, held)


def test_knn_permutation_consistent():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((30, 3))
    table = knn_one(PointCloud(pts), 6)
    perm = rng.permutation(30)
    shuffled = knn_one(PointCloud(pts[perm]), 6)
    for new_i in range(30):
        old_i = perm[new_i]
        assert set(perm[shuffled[new_i]]) == set(table[old_i])


def test_batch_graph_rejects_malformed_tables():
    clouds = [PointCloud(np.random.default_rng(0).standard_normal((4, 3)))]
    good = neighbor_tables(clouds, 2)[0]
    cases = [
        (good.astype(np.float64), "must be a 2-D integer array, got 2-D float64"),
        (good.ravel(), "must be a 2-D integer array, got 1-D int64"),
        (good[:, :1], r"neighbor table of shape \(4, 1\) for clouds of 4 points and k=2"),
    ]
    for table, message in cases:
        with pytest.raises(ParameterError, match=message):
            batch_graph(clouds, [table], 2)
    assert np.array_equal(batch_graph(clouds, [good.astype(np.int32)], 2), good)


# ---------------------------------------------------------------------------
# initial features


def test_extract_vector_columns():
    cloud = PointCloud([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [5.0, 5.0, 5.0]])
    feat = extract_one(cloud, np.array([[1], [0], [0]]), frame22())
    vecs = np.asarray(feat.vectors.data)
    # edge (0, 1): columns o_0 and o_1 - o_0
    assert np.array_equal(vecs[:, 0, 0], [1.0, 0.0, 0.0])
    assert np.array_equal(vecs[:, 1, 0], [0.0, 1.0, 0.0])
    assert (feat.scalars.data.shape, feat.vectors.data.shape) == ((6, 3), (3, 2, 3))


def test_extract_center_column_zero_at_origin():
    cloud = PointCloud([[0.0, 0, 0], [0.0, 0, 1], [0.0, 1, 0]])
    feat = extract_one(cloud, knn_one(cloud, 2), frame22())
    vecs = np.asarray(feat.vectors.data)
    assert np.array_equal(vecs[:, 0, :2], np.zeros((3, 2)))  # o_0 = origin


def test_extract_equivariance():
    params = frame22()
    rng = np.random.default_rng(5)
    for seed in range(30):
        cloud = PointCloud(rng.standard_normal((20, 3)))
        table = knn_one(cloud, 4)
        feat = extract_one(cloud, table, params)
        rot = random_rotation(seed)
        feat_rot = extract_one(apply_rotation(cloud, rot), table, params)
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
    table = knn_one(cloud, 3)
    base = np.asarray(extract_one(cloud, table, params).scalars.data)
    for i in range(24):
        rot = signed_permutation_rotation(i)
        rotated = extract_one(apply_rotation(cloud, rot), table, params)
        assert np.array_equal(np.asarray(rotated.scalars.data), base), f"rotation {i}"


def test_extract_mismatch_errors():
    cloud = PointCloud(np.random.default_rng(0).standard_normal((8, 3)))
    table = knn_one(cloud, 2)
    with pytest.raises(ParameterError):
        extract_one(PointCloud(np.zeros((3, 3)) + np.eye(3)), table, frame22())
    with pytest.raises(ParameterError):
        extract_one(cloud, table, LinearParams(weight=np.zeros((3, 3))))
    with pytest.raises(ParameterError, match="1 neighbor tables for 2 clouds"):
        batch_graph([cloud, cloud], [table], 2)
    with pytest.raises(ParameterError, match=r"neighbor table of shape \(8, 2\) for 16 nodes"):
        extract_initial_features([cloud, cloud], batch_graph([cloud], [table], 2), frame22())
    # indices outside [0, n) would read another cloud's points in a batch
    for bad in (8, -1):
        damaged = table.copy()
        damaged[3, 1] = bad
        with pytest.raises(ParameterError, match="neighbor indices"):
            extract_one(cloud, damaged, frame22())
    # a hand-made table may hold in-range indices yet have k >= n
    tiny = PointCloud(np.eye(3))
    for k in (3, 4):
        full = np.arange(3 * k).reshape(3, k) % 3
        with pytest.raises(ParameterError, match=r"k=\d must be in \[1, 2\]"):
            extract_one(tiny, full, frame22())


def test_batch_graph_offsets_each_table():
    rng = np.random.default_rng(8)
    clouds = [PointCloud(rng.standard_normal((10, 3))) for _ in range(3)]
    tables = neighbor_tables(clouds, 3)
    joined = batch_graph(clouds, tables, 3)
    assert joined.shape == (30, 3) and joined.dtype == np.intp
    for i, table in enumerate(tables):
        assert np.array_equal(joined[10 * i: 10 * (i + 1)], table + 10 * i)
    # tables of another k than the model's
    with pytest.raises(ParameterError, match=r"neighbor table of shape \(10, 3\) for clouds "
                                             r"of 10 points and k=4"):
        batch_graph(clouds, tables, 4)


def test_extract_batch_concatenates_clouds():
    rng = np.random.default_rng(6)
    clouds = [PointCloud(rng.standard_normal((10, 3))) for _ in range(3)]
    tables = neighbor_tables(clouds, 3)
    batch = extract_initial_features(clouds, batch_graph(clouds, tables, 3), frame22())
    singles = [extract_one(c, t, frame22()) for c, t in zip(clouds, tables)]
    assert np.array_equal(batch.scalars.data,
                          np.concatenate([f.scalars.data for f in singles], axis=1))
    assert np.array_equal(batch.vectors.data,
                          np.concatenate([f.vectors.data for f in singles], axis=2))


def test_extract_raw_coordinates_without_frame():
    cloud = PointCloud([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [5.0, 5.0, 5.0]])
    feat = extract_one(cloud, np.array([[1], [0], [0]]), None)
    assert (feat.scalars.data.shape, feat.vectors.data.shape) == ((6, 3), (3, 0, 3))
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
    for bad in ("nan", "inf", "-inf", "1e999"):
        path.write_text(f"1 2 3\n0 {bad} 0\n")
        message = f"^{re.escape(str(path))}:2: non-finite coordinate$"
        with pytest.raises(ParameterError, match=message):
            read_xyz(path)
    path.write_text("# only comments\n")
    with pytest.raises(ParameterError, match="no points"):
        read_xyz(path)


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
