"""The scalar-vector block algebra.

Scalars are rotation-invariant (p, N) tensors, vectors rotation-equivariant
(3, q, N) tensors. Every op here preserves that split: rotations act on
the vector coordinate axis only, and all scalar quantities derive from
vectors through frame projections or norms, never raw coordinates.

Sites of one cloud are contiguous along N, so batched forwards pass
`groups` = number of clouds for the per-cloud poolings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import binkernel
from .errors import ParameterError, StateError

MODES = ("full_precision", "binary_weight", "binary_full")


@dataclass
class SVFeature:
    """Paired invariant scalars (p, N) and equivariant vectors (3, q, N).

    Fields may hold plain arrays or autodiff Tensors; shapes are checked
    either way. p or q may be zero (size-0 tensors), not both.
    """

    scalars: object
    vectors: object

    def __post_init__(self):
        s, v = ad.as_tensor(self.scalars).data, ad.as_tensor(self.vectors).data
        if s.ndim != 2 or v.ndim != 3 or v.shape[0] != 3:
            raise ParameterError(f"bad feature shapes scalars {s.shape}, vectors {v.shape}")
        if s.shape[1] != v.shape[2]:
            raise ParameterError(f"site counts differ: {s.shape[1]} vs {v.shape[2]}")
        if s.shape[0] == 0 and v.shape[1] == 0:
            raise ParameterError("feature needs at least one scalar or vector channel")


@dataclass
class LinearParams:
    """A weight matrix (in_dim, out_dim) with its precision mode.

    beta shifts input channels before activation binarization (scalar
    path only), gamma rescales output channels of a binarized product,
    bias is a plain additive term for full-precision scalar layers. A
    binary_full layer reads beta and gamma, a binary_weight layer gamma.
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
        w = ad.as_tensor(self.weight).data
        if w.ndim != 2:
            raise ParameterError(f"weight must be 2-d, got shape {w.shape}")
        if self.gamma is not None and not np.isfinite(ad.as_tensor(self.gamma).data).all():
            raise ParameterError("gamma entries must be finite")

    @property
    def in_dim(self) -> int:
        return ad.as_tensor(self.weight).data.shape[0]

    @property
    def out_dim(self) -> int:
        return ad.as_tensor(self.weight).data.shape[1]


# each training batch moves the running statistics by this share
NORM_MOMENTUM = 0.1
NORM_EPS = 1e-5


@dataclass
class NormParams:
    """Normalization state for one block: affine scalar stats, vector norm scale."""

    scalar_gain: object
    scalar_bias: object
    vector_log_scale: object
    running_mean: np.ndarray
    running_var: np.ndarray
    running_norm: np.ndarray

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
    """One block's layers, which are its wiring: a frame only where the block
    projects its input vectors, and a non-empty `gate_mlp` only where it gates."""

    frame: LinearParams | None  # (q_in, 3); None when the scalars read no projection
    scalar_mlp: list[tuple[LinearParams, str]]  # (layer, nonlinearity tag)
    vector_map: LinearParams  # (q_in, q_out)
    gate_mlp: list[tuple[LinearParams, str]]  # ends with a sigmoid tag; [] for no gating
    norm: NormParams


# ---------------------------------------------------------------------------
# precision-mode linear layers
#
# The binary forwards run sign_ste, so they train with straight-through
# gradients. A binary_full layer is `binkernel.linear`, on packed bits in
# training and in eval alike.


def scalar_linear(x, params: LinearParams, finish=None) -> ad.Tensor:
    """Linear layer on scalar features (in, N) -> (out, N), full_precision or
    binary_full; weight-only binarization belongs to the vector path.

    `finish`, an in-place step such as eval's normalization, runs on each
    tile of sites of a binary_full product and on the whole fp product. It
    writes over the layer's output, so it needs a forward that records
    nothing.
    """
    x = ad.as_tensor(x)
    w = ad.as_tensor(params.weight)
    if x.data.shape[0] != w.data.shape[0]:
        raise ParameterError(
            f"input channels {x.data.shape[0]} do not match weight rows {w.data.shape[0]}"
        )
    if finish is not None and ad.recording():
        raise StateError("an in-place finish runs only where nothing records")
    if params.mode == "full_precision":
        out = ad.matmul(ad.transpose(w), x, params.bias)
        if finish is not None:
            finish(out.data)
        return out
    if params.mode != "binary_full":
        raise ParameterError(f"scalar features cannot use precision mode {params.mode!r}")
    return binkernel.linear(x, params, finish)


def vector_mapping(v, params: LinearParams) -> ad.Tensor:
    """Mix vector channels with one shared weight per coordinate: (3,q,N) -> (3,q',N).

    Only full_precision and binary_weight are legal here: shifting or
    binarizing the activations themselves would break equivariance, and a
    bias would translate vectors. A binary_weight layer maps by its signs
    times γ, one scale per output channel (W ≈ γ·sign(W), as in XNOR-Net):
    the (q, q') weight is scaled, not the (3, q', N) output.
    """
    v = ad.as_tensor(v)
    if v.data.ndim != 3 or v.data.shape[0] != 3:
        raise ParameterError(f"vector tensor must be (3, q, N), got {v.data.shape}")
    w = ad.as_tensor(params.weight)
    if params.mode == "full_precision":
        return ad.vector_map_raw(v, w)
    if params.mode != "binary_weight":
        raise ParameterError(f"vector features cannot use precision mode {params.mode!r}")
    gamma = ad.as_tensor(params.gamma)
    if gamma.data.shape != w.data.shape[1:]:  # mul would broadcast a (1,) γ in silence
        raise ParameterError(f"gamma of shape {gamma.data.shape} for {w.data.shape[1]} channels")
    return ad.vector_map_raw(v, ad.mul(ad.sign_ste(w), gamma))


# ---------------------------------------------------------------------------
# the block


def invariant_projection(v, frame: LinearParams) -> ad.Tensor:
    """Project vectors (3,q,N) onto the frame they generate through `frame`
    (q, 3): (3q, N) scalars.

    Row-major in the frame axis: output row a*q + j is frame column a
    against vector channel j. Invariant because the frame co-rotates.
    """
    if frame.out_dim != 3:
        raise ParameterError(f"frame weight must map to 3 columns, got {frame.out_dim}")
    v = ad.as_tensor(v)
    prod = ad.pair_contract(vector_mapping(v, frame), v)  # (3, q, N)
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


def _run_mlp(x, layers: list[tuple[LinearParams, str]]):
    for lin, tag in layers:
        x = _activate(scalar_linear(x, lin), tag)
    return x


def eval_norm(norm: NormParams, relu: bool):
    """Eval's scalar normalization by the running statistics, then ReLU when
    `relu`, in place on a layer's output or one tile of it:
    (x - mean) * (1 / sqrt(var + eps)) * gain + bias by `ad.norm_affine`."""
    mean = norm.running_mean[:, None]
    gain, bias = ad.as_tensor(norm.scalar_gain).data, ad.as_tensor(norm.scalar_bias).data

    def finish(tile):
        tile -= mean
        ad.norm_affine(tile, norm.running_var, NORM_EPS, gain, bias, out=tile)
        if relu:
            np.maximum(tile, 0.0, out=tile)

    return finish


def _update_running(running: tuple[np.ndarray, ...], batch: tuple[np.ndarray, ...]) -> None:
    """Move running statistics toward a training batch's, in place."""
    for run, stat in zip(running, batch):
        run *= 1 - NORM_MOMENTUM
        run += NORM_MOMENTUM * stat


def svblock_forward(x: SVFeature, params: SVBlockParams, train: bool, groups: int) -> SVFeature:
    """One scalar-vector block over `groups` clouds of equal site count.

    Scalar path: frame projection and concat (when the block has a
    frame), the scalar layers, normalize, then the last layer's
    nonlinearity. Vector path: channel map, then one scaling: each channel
    divided by its mean site norm (directions stay), then times per-cloud
    factors in (0, 1), the input scalars mean-pooled per cloud through the
    gate MLP (when the block has one). Gating follows normalization: the
    other order would cancel the factors (a mean norm scales with them).

    Training normalizes by the batch statistics and folds them into the
    running ones. Eval records nothing (it raises under a Tape) and scales
    both paths' outputs in place by the running statistics.
    """
    if not train and ad.recording():
        raise StateError("an eval forward records nothing; run it outside a Tape")
    s, v = ad.as_tensor(x.scalars), ad.as_tensor(x.vectors)
    n = s.data.shape[1]
    if groups < 1 or n % groups != 0:
        raise ParameterError(f"{n} sites do not split into {groups} groups")
    # v_in lives to the end of the block: freed before the scalar layers, it
    # raises glibc's dynamic mmap threshold early, and the binary pointnet
    # eval benchmark's peak RSS went from 245 to 271 MB
    v_in = None if params.frame is None else invariant_projection(v, params.frame)
    s_out = s if v_in is None else ad.concat([s, v_in])
    *hidden, (last, last_tag) = params.scalar_mlp
    s_out = _run_mlp(s_out, hidden)
    norm = params.norm
    relu = last_tag == "relu"
    # the last layer's ReLU runs inside the norm: in eval in place on the product
    # (on each cache-resident packed tile), in training in the norm's node
    s_out = scalar_linear(s_out, last, None if train else eval_norm(norm, relu))
    v_out = vector_mapping(v, params.vector_map)
    if train:
        s_out, *batch = ad.batch_norm_train(s_out, norm.scalar_gain, norm.scalar_bias, NORM_EPS,
                                            relu=relu)
        _update_running((norm.running_mean, norm.running_var), batch)
    if not relu:
        s_out = _activate(s_out, last_tag)

    factors = (_run_mlp(ad.pool_groups(s, n // groups, "mean"), params.gate_mlp)
               if params.gate_mlp else None)  # (q_out, groups)
    if train:
        v_out, mean_norm = ad.vector_norm_scale_train(v_out, norm.vector_log_scale, NORM_EPS,
                                                      factors)
        _update_running((norm.running_norm,), (mean_norm,))
    else:  # eval: the map's output is fresh, so scale it in place
        coef = np.exp(ad.as_tensor(norm.vector_log_scale).data) / (norm.running_norm + NORM_EPS)
        ad.vector_scale(v_out.data, coef, None if factors is None else factors.data, v_out.data)
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


def regroup_edges(x_node: SVFeature, neighbors: np.ndarray) -> SVFeature:
    """Expand per-node features back to per-edge pairs.

    Edge (i, j) carries [f_i ; f_j - f_i] for both scalars and vectors,
    doubling the channel counts; N goes from n to k*n with node i's edges
    contiguous. `neighbors` is the (n, k) table over the node sites.
    """
    return SVFeature(scalars=ad.edge_pairs(x_node.scalars, neighbors),
                     vectors=ad.edge_pairs(x_node.vectors, neighbors))


# ---------------------------------------------------------------------------
# head


def invariant_head(x: SVFeature, frame: LinearParams | None) -> ad.Tensor:
    """Collapse a feature pair to pure invariants: concat(S, frame-projected V).
    A model with no vectors left has no head frame and passes S through."""
    s = ad.as_tensor(x.scalars)
    if frame is None:
        return s
    return ad.concat([s, invariant_projection(x.vectors, frame)])
