"""Point clouds, rotations, kNN graphs, initial features, synthetic shapes.

Vector data is laid out coordinate-axis first: V has shape (3, q, N).
Distance and projection sums over the 3 coordinates go through
order-insensitive summation so that axis-permuting rotations reproduce
every derived scalar bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ParameterError
from .svcore import SVFeature, _data, coordinate_frame, invariant_projection

# ---------------------------------------------------------------------------
# containers


@dataclass
class PointCloud:
    points: np.ndarray  # (n, 3)
    label: int | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or self.points.shape[0] < 1:
            raise ParameterError(f"points must be (n>=1, 3), got {self.points.shape}")
        if not np.isfinite(self.points).all():
            raise ParameterError("point coordinates must be finite")

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class Rotation:
    matrix: np.ndarray  # (3, 3)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.shape != (3, 3):
            raise ParameterError("rotation matrix must be 3x3")
        if not np.allclose(self.matrix @ self.matrix.T, np.eye(3), atol=1e-12):
            raise ParameterError("rotation matrix is not orthogonal")
        if abs(np.linalg.det(self.matrix) - 1.0) > 1e-12:
            raise ParameterError("rotation matrix must have determinant +1")


@dataclass
class KnnGraph:
    k: int
    neighbors: np.ndarray  # (n, k) indices into the same cloud

    def __post_init__(self):
        self.neighbors = np.asarray(self.neighbors, dtype=np.intp)
        if self.neighbors.ndim != 2 or self.neighbors.shape[1] != self.k:
            raise ParameterError(f"neighbor table must be (n, {self.k})")

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]


# ---------------------------------------------------------------------------
# rotations


def random_rotation(rng_seed) -> Rotation:
    """Uniform rotation via a normalized Gaussian quaternion; seed or Generator."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    while True:
        quat = rng.standard_normal(4)
        norm = np.linalg.norm(quat)
        if norm > 1e-12:
            break
    w, x, y, z = quat / norm
    return Rotation(np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]))


def z_rotation(rng_seed) -> Rotation:
    """Rotation about the z axis by a uniform angle in [0, 2pi)."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    a = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(a), np.sin(a)
    return Rotation(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))


def _signed_permutations() -> list[np.ndarray]:
    mats = []
    for perm in itertools.permutations((0, 1, 2)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            if round(np.linalg.det(m)) == 1:
                mats.append(m)
    return mats


_SIGNED_PERMS = _signed_permutations()


def signed_permutation_rotation(index: int) -> Rotation:
    """One of the 24 proper rotations of the cube; index 0 is the identity."""
    if not 0 <= index < 24:
        raise ParameterError(f"signed-permutation index {index} out of range 0..23")
    return Rotation(_SIGNED_PERMS[index].copy())


def apply_rotation(cloud: PointCloud, rot: Rotation) -> PointCloud:
    return PointCloud(cloud.points @ rot.matrix.T, label=cloud.label)


def rotate_vectors(vectors: np.ndarray, rot: Rotation) -> np.ndarray:
    """Rotate a (3, q, N) vector tensor coordinate-wise: V -> R.V."""
    vectors = np.asarray(vectors, dtype=np.float64)
    return np.einsum("ij,jqn->iqn", rot.matrix, vectors)


def rotate_feature(feat: SVFeature, rot: Rotation) -> SVFeature:
    """The group action on a feature: scalars untouched, vectors rotated."""
    return SVFeature(_data(feat.scalars), rotate_vectors(_data(feat.vectors), rot))


# ---------------------------------------------------------------------------
# kNN graph


def _equal_point_count(clouds) -> int:
    if not clouds:
        raise ParameterError("no clouds given")
    n = clouds[0].n
    if any(c.n != n for c in clouds):
        raise ParameterError(
            f"all clouds must have equal point counts, got {sorted({c.n for c in clouds})}"
        )
    return n


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n - 1:
        raise ParameterError(f"k={k} must be in [1, {n - 1}]")


def knn_graphs(clouds, k: int) -> list[KnnGraph]:
    """Exact Euclidean k nearest neighbors of each cloud, self excluded,
    ties by index. The clouds must share a point count n > k.

    One distance tensor serves the whole batch. Squared distances go
    through the order-insensitive coordinate sum, so a signed permutation
    of a cloud leaves its table unchanged.
    """
    n = _equal_point_count(clouds)
    _check_k(k, n)
    pts = np.stack([c.points for c in clouds])  # (B, n, 3)
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    d2 = ad.sorted_coord_sum(diff * diff, axis=3)
    idx = np.arange(n)
    d2[:, idx, idx] = np.inf
    order = np.argsort(d2, axis=2, kind="stable")[:, :, :k]  # stable: equal distances by index
    return [KnnGraph(k=k, neighbors=order[i]) for i in range(len(clouds))]


# ---------------------------------------------------------------------------
# initial features


def extract_initial_features(clouds, graphs, frame_params) -> SVFeature:
    """Edge features for the first block, all clouds on one site axis.

    Per edge (i, j): two vector channels, the site position o_i and the
    relative offset o_j - o_i; six scalar channels, the flattened
    projection of those vectors onto the learned equivariant frame they
    generate. Output has p=6, q=2, N=B*n*k, edges of one site contiguous,
    sites of one cloud contiguous. With frame_params None (the baseline
    model) the six raw coordinates are the scalars and there are no
    vector channels.
    """
    n = _equal_point_count(clouds)
    if len(graphs) != len(clouds):
        raise ParameterError(f"{len(graphs)} graphs for {len(clouds)} clouds")
    k = graphs[0].k
    _check_k(k, n)
    for g in graphs:
        if g.n != n or g.k != k:
            raise ParameterError(f"graph of {g.n} nodes x {g.k} neighbors for clouds of {n} "
                                 f"points and k={k}")
        if not 0 <= g.neighbors.min() <= g.neighbors.max() < n:
            raise ParameterError(f"neighbor indices must lie in [0, {n})")
    b = len(clouds)
    pts_all = np.concatenate([c.points for c in clouds], axis=0)  # (B*n, 3)
    centers_idx = np.repeat(np.arange(b * n), k)
    neigh_idx = np.concatenate([g.neighbors.reshape(-1) + i * n for i, g in enumerate(graphs)])
    centers = pts_all[centers_idx]
    rel = pts_all[neigh_idx] - centers
    if frame_params is None:
        # raw coordinates as scalars: deliberately rotation-sensitive
        scalars = ad.as_tensor(np.concatenate([centers.T, rel.T], axis=0))
        return SVFeature(scalars=scalars, vectors=ad.as_tensor(np.zeros((3, 0, b * n * k))))
    v = ad.as_tensor(np.stack([centers.T, rel.T], axis=1))  # (3, 2, N)
    return SVFeature(scalars=invariant_projection(coordinate_frame(v, frame_params), v), vectors=v)


# ---------------------------------------------------------------------------
# synthetic shapes

SHAPE_NAMES = ("sphere", "cube", "torus", "cylinder")


def synthesize_shapes(class_id: int, n_points: int, rng_seed) -> PointCloud:
    """Sample one labeled shape surface, centered at the origin.

    Classes: 0 unit sphere, 1 unit cube, 2 torus (R=1, r=0.35),
    3 capped cylinder (r=0.5, h=2). Sampling is area-uniform per surface.
    """
    if not 0 <= class_id < len(SHAPE_NAMES):
        raise ParameterError(f"unknown shape class {class_id}")
    if n_points < 16:
        raise ParameterError(f"need at least 16 points, got {n_points}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)

    if class_id == 0:  # sphere
        g = rng.standard_normal((n_points, 3))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-9
        while bad.any():
            g[bad] = rng.standard_normal((int(bad.sum()), 3))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            bad = norms[:, 0] < 1e-9
        pts = g / norms

    elif class_id == 1:  # cube, six equal-area faces
        face = rng.integers(0, 6, n_points)
        uv = rng.uniform(-0.5, 0.5, (n_points, 2))
        pts = np.empty((n_points, 3))
        axis = face // 2
        side = np.where(face % 2 == 0, 0.5, -0.5)
        others = np.array([[1, 2], [0, 2], [0, 1]])[axis]  # (n, 2)
        rows = np.arange(n_points)
        pts[rows, axis] = side
        pts[rows, others[:, 0]] = uv[:, 0]
        pts[rows, others[:, 1]] = uv[:, 1]

    elif class_id == 2:  # torus R=1, r=0.35; tube angle needs rejection
        big_r, small_r = 1.0, 0.35
        theta = np.empty(n_points)
        filled = 0
        while filled < n_points:
            cand = rng.uniform(0.0, 2.0 * np.pi, n_points)
            accept = rng.uniform(0.0, 1.0, n_points) < (
                (big_r + small_r * np.cos(cand)) / (big_r + small_r)
            )
            take = cand[accept][: n_points - filled]
            theta[filled: filled + take.size] = take
            filled += take.size
        phi = rng.uniform(0.0, 2.0 * np.pi, n_points)
        ring = big_r + small_r * np.cos(theta)
        pts = np.stack([ring * np.cos(phi), ring * np.sin(phi), small_r * np.sin(theta)], axis=1)

    else:  # cylinder r=0.5, h=2, caps included, area-proportional
        r, h = 0.5, 2.0
        side_area = 2.0 * np.pi * r * h
        cap_area = np.pi * r * r
        probs = np.array([side_area, cap_area, cap_area])
        probs /= probs.sum()
        part = rng.choice(3, n_points, p=probs)
        ang = rng.uniform(0.0, 2.0 * np.pi, n_points)
        pts = np.empty((n_points, 3))
        on_side = part == 0
        pts[on_side, 0] = r * np.cos(ang[on_side])
        pts[on_side, 1] = r * np.sin(ang[on_side])
        pts[on_side, 2] = rng.uniform(-h / 2, h / 2, int(on_side.sum()))
        for cap, zval in ((1, h / 2), (2, -h / 2)):
            m = part == cap
            rad = r * np.sqrt(rng.uniform(0.0, 1.0, int(m.sum())))
            pts[m, 0] = rad * np.cos(ang[m])
            pts[m, 1] = rad * np.sin(ang[m])
            pts[m, 2] = zval

    return PointCloud(pts, label=class_id)


# ---------------------------------------------------------------------------
# file formats


def write_xyz(cloud: PointCloud, path) -> None:
    # repr of a Python float is the shortest string that parses back to
    # the same bits, so write/read round-trips exactly
    with open(path, "w") as fh:
        for x, y, z in cloud.points:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


def read_xyz(path) -> PointCloud:
    pts = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParameterError(f"{path}:{lineno}: expected three coordinates")
            try:
                pts.append([float(p) for p in parts])
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: malformed real number") from None
    if not pts:
        raise ParameterError(f"{path}: no points")
    return PointCloud(np.array(pts))


def read_off(path) -> PointCloud:
    """Vertex cloud from an OFF file; faces are ignored."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    if not lines or lines[0] != "OFF":
        raise ParameterError(f"{path}:1: missing OFF header")
    body = [(i + 1, ln) for i, ln in enumerate(lines[1:], 1) if ln and not ln.startswith("#")]
    if not body:
        raise ParameterError(f"{path}: missing counts line")
    lineno, counts = body[0]
    try:
        nv = int(counts.split()[0])
    except (ValueError, IndexError):
        raise ParameterError(f"{path}:{lineno}: malformed counts line") from None
    verts = body[1: 1 + nv]
    if len(verts) < nv:
        raise ParameterError(f"{path}: expected {nv} vertices, found {len(verts)}")
    pts = []
    for lineno, ln in verts:
        parts = ln.split()
        if len(parts) < 3:
            raise ParameterError(f"{path}:{lineno}: vertex needs three coordinates")
        try:
            pts.append([float(p) for p in parts[:3]])
        except ValueError:
            raise ParameterError(f"{path}:{lineno}: malformed vertex coordinate") from None
    return PointCloud(np.array(pts))
