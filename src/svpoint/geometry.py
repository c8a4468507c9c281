"""Point clouds, rotations, kNN tables, synthetic shapes and point-file IO.

kNN distances sum the 3 coordinates order-insensitively, so that
axis-permuting rotations reproduce every neighbor table bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ParameterError, decode_utf8

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


# ---------------------------------------------------------------------------
# rotations


def random_rotation(rng_seed) -> Rotation:
    """Uniform rotation via a normalized Gaussian quaternion; seed or Generator."""
    rng = np.random.default_rng(rng_seed)
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
    rng = np.random.default_rng(rng_seed)
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


# ---------------------------------------------------------------------------
# kNN tables


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


def _first_k(d2: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of `np.argsort(d2, axis=1, kind="stable")` for a
    (rows, n) array without NaN, by partial selection: every entry below
    its row's k-th smallest value, then the first entries equal to it in
    index order, sorted stably by value."""
    rows, n = d2.shape
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1: k]
    keep = d2 < kth
    tied = d2 == kth
    room = k - np.count_nonzero(keep, axis=1, keepdims=True)
    keep |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= room)
    cols = (np.flatnonzero(keep) % n).reshape(rows, k)  # each row's winners in index order
    near = np.take_along_axis(d2, cols, axis=1)
    return np.take_along_axis(cols, np.argsort(near, axis=1, kind="stable"), axis=1)


def neighbor_tables(clouds, k: int, chunk: int = 32) -> list[np.ndarray]:
    """Exact Euclidean k nearest neighbors of each cloud, self excluded,
    ties by index: one C-contiguous (n, k) intp table per cloud. The clouds
    must share a point count n > k.

    Distances are built one cloud at a time and each row's k nearest are
    picked by partial selection, so memory stays at one cloud's (3, n, n)
    differences; `chunk` bounds nothing and is kept (>= 1) only because
    callers still pass it. Squared distances go through the
    order-insensitive coordinate sum, so a signed permutation of a cloud
    leaves its table unchanged. A cloud whose squared distances overflow
    float64 is rejected.
    """
    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1, got {chunk}")
    n = _equal_point_count(clouds)
    _check_k(k, n)
    idx = np.arange(n)
    tables: list[np.ndarray] = []
    for i, cloud in enumerate(clouds):
        pts = cloud.points.T.copy()  # (3, n)
        with np.errstate(over="ignore"):
            diff = pts[:, :, None] - pts[:, None, :]  # (3, n, n), coordinate first
            diff *= diff
            d2 = ad.sorted_coord_sum(diff)
        if not np.isfinite(d2).all():
            raise ParameterError(f"squared distances overflow float64 in cloud {i}; "
                                 f"its coordinates span too wide a range")
        d2[idx, idx] = np.inf
        tables.append(_first_k(d2, k))
    return tables


# ---------------------------------------------------------------------------
# batch graph


def batch_graph(clouds, tables, k: int) -> np.ndarray:
    """The (B*n, k) neighbor table over the B*n sites of a batch, cloud i's
    sites at [i*n, (i+1)*n), from its per-cloud table. Each table must be a
    2-D integer array with one row per point, k columns (1 <= k <= n-1) and
    indices in [0, n): any other index would reach into another cloud's
    sites. Tables a caller passes in are checked here and nowhere else.
    """
    n = _equal_point_count(clouds)
    if len(tables) != len(clouds):
        raise ParameterError(f"{len(tables)} neighbor tables for {len(clouds)} clouds")
    _check_k(k, n)
    tables = [np.asarray(t) for t in tables]
    for t in tables:
        if t.ndim != 2 or t.dtype.kind not in "iu":
            raise ParameterError(f"a neighbor table must be a 2-D integer array, "
                                 f"got {t.ndim}-D {t.dtype}")
        if t.shape != (n, k):
            raise ParameterError(f"neighbor table of shape {t.shape} for clouds of {n} "
                                 f"points and k={k}")
        if not 0 <= t.min() <= t.max() < n:
            raise ParameterError(f"neighbor indices must lie in [0, {n})")
    return np.vstack([t.astype(np.intp, copy=False) + i * n for i, t in enumerate(tables)])


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
    rng = np.random.default_rng(rng_seed)

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
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), str(path), ParameterError)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParameterError(f"{path}:{lineno}: expected three coordinates")
        try:
            xyz = [float(p) for p in parts]
        except ValueError:
            raise ParameterError(f"{path}:{lineno}: malformed real number") from None
        if not all(map(math.isfinite, xyz)):
            raise ParameterError(f"{path}:{lineno}: non-finite coordinate")
        pts.append(xyz)
    if not pts:
        raise ParameterError(f"{path}: no points")
    return PointCloud(np.array(pts))
