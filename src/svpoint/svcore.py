"""The scalar-vector block algebra.

Scalars are rotation-invariant (p, N) tensors, vectors rotation-equivariant
(3, q, N) tensors. Every op here preserves that split: rotations act on
the vector coordinate axis only, and all scalar quantities derive from
vectors through frame projections or norms, never raw coordinates.

Sites of one cloud are contiguous along N, so batched forwards pass
`groups` = number of clouds for the per-cloud poolings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ParameterError

MODES = ("full_precision", "binary_weight", "binary_full")


def _data(x):
    return x.data if isinstance(x, ad.Tensor) else np.asarray(x)


@dataclass
class SVFeature:
    """Paired invariant scalars (p, N) and equivariant vectors (3, q, N).

    Fields may hold plain arrays or autodiff Tensors; shapes are checked
    either way. p or q may be zero (size-0 tensors), not both.
    """

    scalars: object
    vectors: object

    def __post_init__(self):
        s, v = _data(self.scalars), _data(self.vectors)
        if s.ndim != 2 or v.ndim != 3 or v.shape[0] != 3:
            raise ParameterError(f"bad feature shapes scalars {s.shape}, vectors {v.shape}")
        if s.shape[1] != v.shape[2]:
            raise ParameterError(f"site counts differ: {s.shape[1]} vs {v.shape[2]}")
        if s.shape[0] == 0 and v.shape[1] == 0:
            raise ParameterError("feature needs at least one scalar or vector channel")

    @property
    def p(self) -> int:
        return _data(self.scalars).shape[0]

    @property
    def q(self) -> int:
        return _data(self.vectors).shape[1]

    @property
    def n_sites(self) -> int:
        return _data(self.scalars).shape[1]


@dataclass
class LinearParams:
    """A weight matrix (in_dim, out_dim) with its precision mode.

    beta shifts input channels before activation binarization (scalar
    path only), gamma rescales output channels of a binarized product,
    bias is a plain additive term for full-precision scalar layers.
    Fields may be Tensors (trainable) or arrays (frozen).
    """

    weight: object
    mode: str = "full_precision"
    beta: object | None = None
    gamma: object | None = None
    bias: object | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown precision mode {self.mode!r}")
        w = _data(self.weight)
        if w.ndim != 2:
            raise ParameterError(f"weight must be 2-d, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ParameterError("weight entries must be finite")
        if self.gamma is not None and not np.isfinite(_data(self.gamma)).all():
            raise ParameterError("gamma entries must be finite")

    @property
    def in_dim(self) -> int:
        return _data(self.weight).shape[0]

    @property
    def out_dim(self) -> int:
        return _data(self.weight).shape[1]


@dataclass
class BlockToggles:
    scalar_concat: bool = True
    vector_reweight: bool = True


@dataclass
class NormParams:
    """Normalization state for one block: affine scalar stats, vector norm scale."""

    scalar_gain: object
    scalar_bias: object
    vector_log_scale: object
    running_mean: np.ndarray
    running_var: np.ndarray
    running_norm: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def create(cls, p: int, q: int) -> "NormParams":
        return cls(
            scalar_gain=ad.parameter(np.ones(p)),
            scalar_bias=ad.parameter(np.zeros(p)),
            vector_log_scale=ad.parameter(np.zeros(q)),
            running_mean=np.zeros(p),
            running_var=np.ones(p),
            running_norm=np.ones(q),
        )


@dataclass
class SVBlockParams:
    frame: LinearParams  # (q_in, 3)
    scalar_mlp: list[tuple[LinearParams, str]]  # (layer, nonlinearity tag)
    vector_map: LinearParams  # (q_in, q_out)
    gate_mlp: list[tuple[LinearParams, str]]  # ends with a sigmoid tag
    toggles: BlockToggles = field(default_factory=BlockToggles)
    norm: NormParams | None = None


# ---------------------------------------------------------------------------
# core equivariant ops


def vector_mapping(v, params: LinearParams) -> ad.Tensor:
    """Mix vector channels with one shared weight per coordinate: (3,q,N) -> (3,q',N)."""
    v = ad.as_tensor(v)
    if v.data.ndim != 3 or v.data.shape[0] != 3:
        raise ParameterError(f"vector tensor must be (3, q, N), got {v.data.shape}")
    if params.in_dim != v.data.shape[1]:
        raise ParameterError(
            f"weight rows {params.in_dim} do not match vector channels {v.data.shape[1]}"
        )
    return ad.vector_linear(v, params)


def coordinate_frame(v, frame: LinearParams) -> ad.Tensor:
    """Generate the per-site equivariant frame (3, 3, N) from vector features."""
    if frame.out_dim != 3:
        raise ParameterError(f"frame weight must map to 3 columns, got {frame.out_dim}")
    return vector_mapping(v, frame)


def invariant_projection(v_c, v) -> ad.Tensor:
    """Project vectors onto a frame: (3,3,N) x (3,q,N) -> (3q, N) scalars.

    Row-major in the frame axis: output row a*q + j is frame column a
    against vector channel j. Invariant because the frame co-rotates.
    """
    v_c, v = ad.as_tensor(v_c), ad.as_tensor(v)
    if v_c.data.ndim != 3 or v_c.data.shape[1] != 3:
        raise ParameterError(f"frame tensor must be (3, 3, N), got {v_c.data.shape}")
    prod = ad.pair_contract(v_c, v)  # (3, q, N)
    q, n = prod.data.shape[1], prod.data.shape[2]
    return ad.reshape(prod, (3 * q, n))


def _activate(x, tag: str):
    if tag == "relu":
        return ad.relu(x)
    if tag == "sigmoid":
        return ad.sigmoid(x)
    if tag != "none":
        raise ParameterError(f"unknown nonlinearity tag {tag!r}")
    return x


def _run_mlp(x, layers: list[tuple[LinearParams, str]], skip_nonlin_last: bool = False):
    for i, (lin, tag) in enumerate(layers):
        x = ad.scalar_linear(x, lin)
        if not (skip_nonlin_last and i == len(layers) - 1):
            x = _activate(x, tag)
    return x


def scalar_update(s, v_in, params: SVBlockParams) -> ad.Tensor:
    """Scalar path up to the last linear: optional concat with the projected
    vectors, then the MLP without its final nonlinearity. The block
    normalizes the result before applying that nonlinearity."""
    s = ad.as_tensor(s)
    x = ad.concat([s, ad.as_tensor(v_in)], axis=0) if params.toggles.scalar_concat else s
    return _run_mlp(x, params.scalar_mlp, skip_nonlin_last=True)


def reweighting_factors(s, params: SVBlockParams, groups: int = 1) -> ad.Tensor:
    """Per-cloud gating factors in (0,1): average-pool scalars over sites,
    then the small MLP ending in a sigmoid. Returns (q_out, groups)."""
    s = ad.as_tensor(s)
    n = s.data.shape[-1]
    if n == 0:
        raise ParameterError("cannot pool zero sites")
    if groups < 1 or n % groups != 0:
        raise ParameterError(f"{n} sites do not split into {groups} groups")
    s_com = ad.pool_groups(s, n // groups, "mean")  # (p, groups)
    return _run_mlp(s_com, params.gate_mlp)


def vector_update(v, factors) -> ad.Tensor:
    """Vector path gating: scale each channel by its factor in (0, 1).

    factors may be (q,) or (q, groups); sites split evenly across groups.
    """
    v, factors = ad.as_tensor(v), ad.as_tensor(factors)
    f = factors if factors.data.ndim == 2 else ad.reshape(factors, (-1, 1))
    q, n = v.data.shape[1], v.data.shape[2]
    if f.data.shape[0] != q:
        raise ParameterError(f"{f.data.shape[0]} factors for {q} vector channels")
    groups = f.data.shape[1]
    if n % groups != 0:
        raise ParameterError(f"{n} sites do not split into {groups} groups")
    per_site = ad.expand_groups(f, n // groups)  # (q, N)
    return ad.mul(v, ad.reshape(per_site, (1, q, n)))


# ---------------------------------------------------------------------------
# normalization


def _normalize_scalars(s: ad.Tensor, norm: NormParams, stats_mode: str) -> ad.Tensor:
    if stats_mode not in ("train", "eval"):
        raise ParameterError(f"stats_mode must be train or eval, got {stats_mode!r}")
    if s.data.shape[0] == 0:
        return s
    if stats_mode == "train":
        out, mean, var = ad.batch_norm_train(s, norm.scalar_gain, norm.scalar_bias, norm.eps)
        m = norm.momentum
        norm.running_mean *= 1 - m
        norm.running_mean += m * mean
        norm.running_var *= 1 - m
        norm.running_var += m * var
        return out
    centered = ad.sub(s, ad.as_tensor(norm.running_mean[:, None]))
    inv = ad.div(1.0, ad.sqrt(ad.add(ad.as_tensor(norm.running_var[:, None]), norm.eps)))
    out = ad.mul(centered, inv)
    gain = ad.reshape(ad.as_tensor(norm.scalar_gain), (-1, 1))
    bias = ad.reshape(ad.as_tensor(norm.scalar_bias), (-1, 1))
    return ad.add(ad.mul(out, gain), bias)


def _normalize_vectors(v: ad.Tensor, norm: NormParams, stats_mode: str) -> ad.Tensor:
    if stats_mode not in ("train", "eval"):
        raise ParameterError(f"stats_mode must be train or eval, got {stats_mode!r}")
    if v.data.shape[1] == 0:
        return v
    if stats_mode == "train":
        out, mean_norm = ad.vector_norm_scale_train(v, norm.vector_log_scale, norm.eps)
        m = norm.momentum
        norm.running_norm *= 1 - m
        norm.running_norm += m * mean_norm
        return out
    scale = ad.exp(ad.as_tensor(norm.vector_log_scale))  # learned positive scale
    per_channel = ad.div(scale, ad.add(ad.as_tensor(norm.running_norm), norm.eps))
    return ad.mul(v, ad.reshape(per_channel, (1, -1, 1)))


def equivariant_norm(x: SVFeature, stats_mode: str, norm: NormParams) -> SVFeature:
    """Normalize a feature pair; scalar channels standardized, vector
    channels divided by their batch-mean norm so directions are untouched."""
    s = _normalize_scalars(ad.as_tensor(x.scalars), norm, stats_mode)
    v = _normalize_vectors(ad.as_tensor(x.vectors), norm, stats_mode)
    return SVFeature(scalars=s, vectors=v)


# ---------------------------------------------------------------------------
# the block


def svblock_forward(
    x: SVFeature, params: SVBlockParams, stats_mode: str = "train", groups: int = 1
) -> SVFeature:
    """One scalar-vector block.

    Scalar path: frame projection, concat, linear, normalize, ReLU.
    Vector path: channel map, norm-normalize, then gate by factors pooled
    from the input scalars. Gating comes after normalization; the other
    order would cancel the factors exactly (each channel's batch-mean
    norm scales linearly with its gate).
    """
    s, v = ad.as_tensor(x.scalars), ad.as_tensor(x.vectors)
    v_in = invariant_projection(coordinate_frame(v, params.frame), v)
    out = SVFeature(scalars=scalar_update(s, v_in, params),
                    vectors=vector_mapping(v, params.vector_map))
    if params.norm is not None:
        out = equivariant_norm(out, stats_mode, params.norm)
    s_out = _activate(out.scalars, params.scalar_mlp[-1][1] if params.scalar_mlp else "none")
    v_out = out.vectors

    if params.toggles.vector_reweight and v_out.data.shape[1] > 0:
        v_out = vector_update(v_out, reweighting_factors(s, params, groups=groups))
    return SVFeature(scalars=s_out, vectors=v_out)


# ---------------------------------------------------------------------------
# aggregation and regrouping


def aggregate(x: SVFeature, k: int) -> SVFeature:
    """Pool each contiguous run of k sites down to one site.

    Scalars pool by max, vectors by mean: a coordinate-wise max would
    pick coordinates from different vectors and break equivariance.
    """
    s = ad.pool_groups(ad.as_tensor(x.scalars), k, "max")
    v = ad.pool_groups(ad.as_tensor(x.vectors), k, "mean")
    return SVFeature(scalars=s, vectors=v)


def regroup_edges(x_node: SVFeature, graph) -> SVFeature:
    """Expand per-node features back to per-edge pairs.

    Edge (i, j) carries [f_i ; f_j - f_i] for both scalars and vectors,
    doubling the channel counts; N goes from n to k*n with node i's edges
    contiguous. Requires node features over the graph's base sites.
    """
    if x_node.n_sites != graph.n:
        raise ParameterError(f"{x_node.n_sites} node sites for a graph of {graph.n} nodes")
    return SVFeature(scalars=ad.edge_pairs(x_node.scalars, graph.neighbors),
                     vectors=ad.edge_pairs(x_node.vectors, graph.neighbors))


# ---------------------------------------------------------------------------
# head


def invariant_head(x: SVFeature, frame: LinearParams) -> ad.Tensor:
    """Collapse a feature pair to pure invariants: concat(S, frame-projected V)."""
    s, v = ad.as_tensor(x.scalars), ad.as_tensor(x.vectors)
    if v.data.shape[1] == 0:
        return s
    vc = coordinate_frame(v, frame)
    v_in = invariant_projection(vc, v)
    return ad.concat([s, v_in], axis=0)
