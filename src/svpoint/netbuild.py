"""Model assembly, the input stage, operation accounting, and checkpoints.

A model is a stack of scalar-vector blocks over kNN edge features with a
global pooling head. Configs come from INI-style text ([model] section);
checkpoints store the config's canonical text so a file fully describes
its weights.
"""

from __future__ import annotations

import configparser
import io
import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .errors import CheckpointError, ConfigError, ParameterError, StateError, decode_utf8
from .geometry import PointCloud, batch_graph, neighbor_tables
from .svcore import (LinearParams, NormParams, SVBlockParams, SVFeature, _run_mlp, aggregate,
                     invariant_head, invariant_projection, regroup_edges, svblock_forward)

BACKBONES = ("pointnet_like", "dgcnn_like")
BINARIZE_MODES = ("none", "vanilla", "two_step")
DEFAULT_PLANS = {"pointnet_like": (64, 128, 256), "dgcnn_like": (64, 64, 128, 256)}


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ModelConfig:
    backbone: str = "pointnet_like"
    k: int = 16
    channels: tuple[int, ...] = ()
    sv_ratio: float = 0.5
    scalar_concat: bool = True
    vector_reweight: bool = True
    binarize: str = "none"
    keep_first_last_fp: bool = True
    classes: int = 4
    head_dim: int = 512
    baseline: bool = False

    def __post_init__(self):
        if not self.channels:
            self.channels = DEFAULT_PLANS.get(self.backbone, ())
        self.channels = tuple(int(c) for c in self.channels)
        self.validate()

    def validate(self) -> None:
        if self.backbone not in BACKBONES:
            raise ConfigError(f"unknown backbone {self.backbone!r}")
        if self.binarize not in BINARIZE_MODES:
            raise ConfigError(f"unknown binarize setting {self.binarize!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not self.channels or any(c < 1 for c in self.channels):
            raise ConfigError(f"bad channel plan {self.channels}")
        if not 0.0 <= self.sv_ratio <= 1.0:
            raise ConfigError(f"sv_ratio must be in [0, 1], got {self.sv_ratio}")
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if self.head_dim < 1:
            raise ConfigError(f"head_dim must be positive, got {self.head_dim}")

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse failure: {exc}") from None
        extra = [name for name in parser.sections() if name != "model"]
        if extra or parser.defaults():
            raise ConfigError(f"config section [{(extra or ['DEFAULT'])[0]}] is not allowed; "
                              f"every key goes under [model]")
        if "model" not in parser:
            raise ConfigError("config needs a [model] section")
        sec = parser["model"]
        known = {f.name: type(f.default) for f in fields(cls)}
        for key in sec:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        kwargs = {}
        try:
            for key in sec:
                kind = known[key]
                if kind is tuple:
                    kwargs[key] = tuple(int(c) for c in sec[key].replace(",", " ").split())
                elif kind is bool:
                    kwargs[key] = sec.getboolean(key)
                elif kind is str:
                    kwargs[key] = sec[key].strip()
                else:
                    kwargs[key] = kind(sec[key])
        except ValueError as exc:
            raise ConfigError(f"config value error: {exc}") from None
        if kwargs.get("channels") == ():  # () would mean the backbone's default plan
            raise ConfigError("channels is empty; list the block widths or drop the key")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_text(decode_utf8(raw, f"config {path}", ConfigError))

    def to_text(self) -> str:
        lines = ["[model]"]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, tuple):
                value = ",".join(str(c) for c in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def split_channels(c: int, ratio: float) -> tuple[int, int]:
    """Split a width C into p scalar and q vector channels with p + 3q = C.

    q gets floor((C - round(ratio*C)) / 3) and the remainder stays scalar,
    so the identity holds exactly for every C and ratio.
    """
    if c < 1:
        raise ParameterError(f"channel width must be positive, got {c}")
    p_target = round(ratio * c)
    q = (c - p_target) // 3
    return c - 3 * q, q


def block_schedule(cfg: ModelConfig) -> list[tuple[bool, bool]]:
    """(regroup, pool) per block: rebuild edges before it, k-pool after it.
    Block 0 takes the initial edges; a DGCNN rebuilds EdgeConv's
    [f_i ; f_j - f_i] before each later block, a PointNet runs them on nodes."""
    dgcnn = cfg.backbone == "dgcnn_like"
    return [(dgcnn and i > 0, dgcnn or i == 0) for i in range(len(cfg.channels))]


# ---------------------------------------------------------------------------
# op accounting


@dataclass
class OpCounter:
    per_layer: list[tuple[str, dict[str, int]]] = field(default_factory=list)

    def add_layer(self, name: str, macs: int = 0, adds: int = 0, bops: int = 0) -> None:
        self.per_layer.append((name, {"macs": int(macs), "adds": int(adds), "bops": int(bops)}))

    def _total(self, kind: str) -> int:
        return sum(entry[kind] for _, entry in self.per_layer)

    @property
    def macs(self) -> int:
        return self._total("macs")

    @property
    def adds(self) -> int:
        return self._total("adds")

    @property
    def bops(self) -> int:
        return self._total("bops")


def count_block_ops(c1: int, c2: int, n: int, mode: str) -> OpCounter:
    """Cost of one feature update from width C1 to C2 over N sites.

    Modes: 'vanilla' is a plain dense layer (N*C1*C2 MACs); 'sv_fp' and
    'sv_binary' follow the five-term scalar-vector breakdown, with the
    binary variant's kinds: frame ADDs, projection MACs, scalar update
    BOPs, gating MACs, vector update ADDs. Fractional terms round per term.
    """
    if c1 < 0 or c2 < 0 or n < 0:
        raise ParameterError("dimensions must be nonnegative")
    ctr = OpCounter()
    if mode == "vanilla":
        ctr.add_layer("dense", macs=n * c1 * c2)
        return ctr
    frame = round(1.5 * n * c1)
    proj = round(1.5 * n * c1)
    scalar = n * c1 * c2 // 2
    gate = round(c1 * c2 / 12)
    vector = round(n * c1 * c2 / 12)
    if mode == "sv_fp":
        ctr.add_layer("frame", macs=frame)
        ctr.add_layer("projection", macs=proj)
        ctr.add_layer("scalar_update", macs=scalar)
        ctr.add_layer("gating", macs=gate)
        ctr.add_layer("vector_update", macs=vector)
    elif mode == "sv_binary":
        ctr.add_layer("frame", adds=frame)
        ctr.add_layer("projection", macs=proj)
        ctr.add_layer("scalar_update", bops=scalar)
        ctr.add_layer("gating", macs=gate)
        ctr.add_layer("vector_update", adds=vector)
    else:
        raise ParameterError(f"unknown cost mode {mode!r}")
    return ctr


def count_model_ops(model: "Model", n_points: int) -> OpCounter:
    """Per-layer cost of one single-cloud forward pass at the built dims,
    in build order; each frame is followed by its `.projection`.

    Pooling, normalization, and nonlinearities are omitted as negligible
    next to the linear maps, matching the five-term accounting.
    """
    cfg = model.cfg
    if n_points < cfg.k + 1:
        raise ParameterError(f"k={cfg.k} neighbors need {cfg.k + 1} points, got {n_points}")
    per_cloud = {"edge": n_points * cfg.k, "node": n_points, "cloud": 1}
    ctr = OpCounter()
    for name, lin, kind, sites in model.layers:
        if kind == "vector" and not lin.out_dim:
            continue
        n = per_cloud[sites]
        total = lin.in_dim * lin.out_dim * n * (1 if kind in ("scalar", "gate") else 3)
        unit = {"binary_full": "bops", "binary_weight": "adds"}.get(lin.mode, "macs")
        ctr.add_layer(name, **{unit: total})
        if kind == "frame":
            ctr.add_layer(f"{name.removesuffix('.frame')}.projection", macs=9 * lin.in_dim * n)
    return ctr


def param_bits(model: "Model") -> int:
    """Storage cost of the parameter store, which holds exactly the tensors
    the forward reads: 1 bit per binarized weight entry, 32 per other entry."""
    binary = {f"{name}.weight" for name, lin, _, _ in model.layers
              if lin.mode != "full_precision"}
    return sum(tensor.data.size * (1 if name in binary else 32)
               for name, tensor in model.store.items())


# ---------------------------------------------------------------------------
# input stage

# extract_initial_features gives each edge six scalars, and two vectors unless baseline
EXTRACT_SCALARS = 6


def extract_initial_features(clouds, neighbors: np.ndarray, frame_params) -> SVFeature:
    """Edge features for the first block, all clouds on one site axis.

    The points, node features over the B*n sites of `neighbors` (the
    table from `batch_graph`), go through `regroup_edges`: edge (i, j)
    carries o_i and o_j - o_i, N = B*n*k. As one vector channel they give
    q=2 and p=6 scalars, their projection onto the learned equivariant
    frame they generate. With frame_params None (the baseline model) they are
    three scalar channels: six raw-coordinate scalars, no vectors.
    """
    pts = np.concatenate([c.points for c in clouds], axis=0).T  # (3, B*n)
    if frame_params is None:
        # raw coordinates as scalars: deliberately rotation-sensitive
        return regroup_edges(SVFeature(pts, np.zeros((3, 0, pts.shape[1]))), neighbors)
    v = regroup_edges(SVFeature(np.zeros((0, pts.shape[1])), pts[:, None, :]), neighbors).vectors
    return SVFeature(scalars=invariant_projection(v, frame_params), vectors=v)


# ---------------------------------------------------------------------------
# model


class Model:
    """A built network: parameter store plus the layer structure.

    `layers` lists every linear layer once, in build order, as
    (name, LinearParams, kind, sites). Kinds: 'frame' and 'vector' act on
    vectors, 'scalar' and 'gate' on scalars. Sites say where a layer runs:
    on each 'edge', each 'node', or once per 'cloud'. Binarization,
    `param_bits` and `count_model_ops` read this list.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.store = ad.ParamStore()
        self.layers: list[tuple[str, LinearParams, str, str]] = []
        self.blocks: list[SVBlockParams] = []
        self.extract_frame: LinearParams | None = None
        self.head_frame: LinearParams | None = None
        self.final_mlp: list[tuple[LinearParams, str]] = []
        self.binarized = False

    # -- parameter bookkeeping

    def _param(self, name: str, data: np.ndarray) -> ad.Tensor:
        return self.store.add(name, ad.parameter(data))

    def state_arrays(self):
        """All persistent arrays in deterministic order: params, then each
        block's running statistics."""
        for name, tensor in self.store.items():
            yield name, tensor.data
        for i, blk in enumerate(self.blocks):
            for key in ("running_mean", "running_var", "running_norm"):
                yield f"block{i}.norm.{key}", getattr(blk.norm, key)

    # -- forward

    def forward(self, clouds: list[PointCloud], stats_mode: str = "eval",
                graphs: list[np.ndarray] | None = None) -> ad.Tensor:
        """Class logits (classes, B) for a batch of equal-size clouds.

        `graphs` may carry precomputed `neighbor_tables` (one per cloud, same
        order); callers that reuse fixed clouds across epochs can build the
        tables once since kNN depends only on geometry, not on parameters.
        Each table must be an integer (n, k) array for the model's k, with
        indices in [0, n).
        """
        if stats_mode not in ("train", "eval"):
            raise ParameterError(f"stats_mode must be train or eval, got {stats_mode!r}")
        train = stats_mode == "train"
        k = self.cfg.k
        if graphs is None:
            graphs = neighbor_tables(clouds, k)
        neighbors = batch_graph(clouds, graphs, k)
        x = extract_initial_features(clouds, neighbors, self.extract_frame)
        for blk, (regroup, pool) in zip(self.blocks, block_schedule(self.cfg)):
            if regroup:
                x = regroup_edges(x, neighbors)
            x = svblock_forward(x, blk, train, len(clouds))
            if pool:
                x = aggregate(x, k)
        x = aggregate(x, clouds[0].n)  # global pooling, one site per cloud
        return _run_mlp(invariant_head(x, self.head_frame), self.final_mlp)

    def eval_logits(self, clouds: list[PointCloud]) -> np.ndarray:
        """Eval-mode logits (classes, B); raises StateError if any is not finite."""
        logits = self.forward(clouds, stats_mode="eval").data
        if not np.isfinite(logits).all():
            raise StateError("model gives non-finite logits; its weights overflow the forward pass")
        return logits

    def predict(self, clouds: list[PointCloud]) -> np.ndarray:
        return self.eval_logits(clouds).argmax(axis=0)


# ---------------------------------------------------------------------------
# building


def _glorot(rng, d_in: int, d_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / max(d_in + d_out, 1))
    return rng.uniform(-limit, limit, (d_in, d_out))


def _build_linear(model: Model, name: str, rng, d_in: int, d_out: int,
                  kind: str, sites: str) -> LinearParams:
    """A Glorot layer, listed in `model.layers`; scalar and gate layers get a bias."""
    lin = LinearParams(weight=model._param(f"{name}.weight", _glorot(rng, d_in, d_out)))
    if kind in ("scalar", "gate"):
        lin.bias = model._param(f"{name}.bias", np.zeros(d_out))
    model.layers.append((name, lin, kind, sites))
    return lin


def _build_block(model: Model, idx: int, rng, p_in: int, q_in: int,
                 p_out: int, q_out: int, cfg: ModelConfig, sites: str) -> SVBlockParams:
    """The config's two interaction switches decide which layers exist (the
    frame, the gate MLP); the block reads its wiring back from those layers."""
    name = f"block{idx}"
    project = cfg.scalar_concat and q_in > 0
    frame = _build_linear(model, f"{name}.frame", rng, q_in, 3, "frame", sites) if project else None
    s_in = p_in + 3 * q_in if project else p_in
    scalar_mlp = [(_build_linear(model, f"{name}.scalar0", rng, s_in, p_out, "scalar", sites),
                   "relu")]
    vector_map = _build_linear(model, f"{name}.vector_map", rng, q_in, q_out, "vector", sites)
    gate_mlp = []
    if cfg.vector_reweight and q_out:
        gate_mlp = [(_build_linear(model, f"{name}.gate0", rng, p_in, q_out, "gate", "cloud"),
                     "sigmoid")]
    norm = NormParams.create(p_out, q_out)
    for key in ("scalar_gain", "scalar_bias", "vector_log_scale"):
        model.store.add(f"{name}.norm.{key}", getattr(norm, key))
    return SVBlockParams(frame=frame, scalar_mlp=scalar_mlp, vector_map=vector_map,
                         gate_mlp=gate_mlp, norm=norm)


def build_model(cfg: ModelConfig, rng_seed=0) -> Model:
    """Assemble a fresh model; weights Glorot-uniform from the seed."""
    cfg.validate()
    rng = np.random.default_rng(rng_seed)
    model = Model(cfg)

    p, q = EXTRACT_SCALARS, (0 if cfg.baseline else 2)
    if not cfg.baseline:
        model.extract_frame = _build_linear(model, "extract.frame", rng, 2, 3, "frame", "edge")

    for i, (width, (regroup, _)) in enumerate(zip(cfg.channels, block_schedule(cfg))):
        if cfg.baseline:
            p_out, q_out = width, 0
        else:
            p_out, q_out = split_channels(width, cfg.sv_ratio)
        if regroup:
            p, q = 2 * p, 2 * q  # edge regrouping doubles both channel sets
        sites = "edge" if i == 0 or regroup else "node"
        model.blocks.append(_build_block(model, i, rng, p, q, p_out, q_out, cfg, sites))
        p, q = p_out, q_out

    if q:
        model.head_frame = _build_linear(model, "head.frame", rng, q, 3, "frame", "cloud")
    head_in = p + 3 * q
    model.final_mlp = [
        (_build_linear(model, "final0", rng, head_in, cfg.head_dim, "scalar", "cloud"), "relu"),
        (_build_linear(model, "final1", rng, cfg.head_dim, cfg.classes, "scalar", "cloud"),
         "none"),
    ]

    if cfg.binarize == "vanilla":
        binarize_plan(model)
    return model


# ---------------------------------------------------------------------------
# binarization planning


def binarize_plan(model: Model) -> Model:
    """Switch the model's layers to their binary modes, in place.

    Scalar layers binarize fully (activations and weights); frames and
    vector maps binarize their weights only, which keeps equivariance.
    Gates stay full-precision (their cost is negligible), and so do the
    extraction frame and the last layer under `keep_first_last_fp`.

    Weights are preserved; beta starts at 0 and gamma at 1, both
    trainable. A binarized scalar layer reads them instead of its bias, so
    the bias leaves the store. The optimizer is reset, so a model binarized
    after full-precision training (two-step) starts its binary phase with
    clean moments; on a fresh model that is a no-op.
    """
    if model.binarized:
        raise StateError("model is already binarized")
    kept = {"extract.frame", model.layers[-1][0]} if model.cfg.keep_first_last_fp else set()
    for name, lin, kind, _ in model.layers:
        if kind == "gate" or name in kept:
            continue
        if kind == "scalar":
            lin.mode = "binary_full"
            del model.store.params[f"{name}.bias"]
            lin.bias = None
            lin.beta = model._param(f"{name}.beta", np.zeros(lin.in_dim))
        else:
            lin.mode = "binary_weight"
        lin.gamma = model._param(f"{name}.gamma", np.ones(lin.out_dim))
    model.binarized = True
    model.store.reset_optimizer()
    return model


# ---------------------------------------------------------------------------
# checkpoints

MAGIC = b"SVNC"
CKPT_VERSION = 2
_DTYPE_TAGS = {0: "<f8"}
# ends the echoed config of a model that two-step training binarized later
_BINARIZED_MARKER = "\n[state]\nbinarized = true\n"


class _Cursor:
    """Reads a checkpoint's bytes in order; its errors name the file."""

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise CheckpointError(
                f"{self.path}: truncated checkpoint: wanted {count} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.pos: self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, count: int, what: str) -> str:
        return decode_utf8(self.take(count), f"{self.path}: {what}", CheckpointError,
                           self.pos - count)


def save_checkpoint(model: Model, path) -> None:
    """Serialize the canonical config text and every persistent array,
    little-endian."""
    cfg_text = model.cfg.to_text()
    if model.binarized and model.cfg.binarize != "vanilla":
        cfg_text += _BINARIZED_MARKER
    cfg_bytes = cfg_text.encode("utf-8")
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<I", CKPT_VERSION))
    out.write(struct.pack("<I", len(cfg_bytes)))
    out.write(cfg_bytes)
    entries = list(model.state_arrays())
    for name, arr in entries:
        # load_checkpoint rejects such files, so never write one
        if not np.isfinite(arr).all():
            raise StateError(f"not saving {path}: tensor {name!r} holds non-finite values")
    out.write(struct.pack("<I", len(entries)))
    for name, arr in entries:
        name_b = name.encode("utf-8")
        out.write(struct.pack("<H", len(name_b)))
        out.write(name_b)
        out.write(struct.pack("<BB", 0, arr.ndim))
        out.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        out.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(out.getvalue())
    os.replace(tmp, path)


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint; bit-exact parameter restore."""
    try:
        with open(path, "rb") as fh:
            cur = _Cursor(fh.read(), path)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from None
    if cur.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    (version,) = cur.unpack("<I")
    if version != CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = cur.unpack("<I")
    cfg_text = cur.text(cfg_len, "config text")
    phase2 = cfg_text.endswith(_BINARIZED_MARKER)
    cfg_text = cfg_text.removesuffix(_BINARIZED_MARKER)
    try:
        cfg = ModelConfig.from_text(cfg_text)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: embedded config invalid: {exc}") from None
    model = build_model(cfg, rng_seed=0)
    if phase2 and not model.binarized:
        binarize_plan(model)
    registry = dict(model.state_arrays())

    (count,) = cur.unpack("<I")
    seen = set()
    for _ in range(count):
        (name_len,) = cur.unpack("<H")
        name = cur.text(name_len, "tensor name")
        if name in seen:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        tag, ndim = cur.unpack("<BB")
        if tag not in _DTYPE_TAGS:
            raise CheckpointError(f"{path}: unknown dtype tag {tag} for {name!r}")
        shape = cur.unpack(f"<{ndim}Q")
        payload = cur.take(math.prod(shape) * 8)  # Python ints: a huge shape cannot wrap
        if name not in registry:
            raise CheckpointError(f"{path}: unknown tensor name {name!r}")
        target = registry[name]
        if target.shape != shape:  # checked before the reshape, which rejects huge empty shapes
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {shape}, model wants {target.shape}"
            )
        arr = np.frombuffer(payload, dtype=_DTYPE_TAGS[tag]).reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        target[...] = arr
        seen.add(name)
    if cur.pos != len(cur.blob):
        raise CheckpointError(
            f"{path}: {len(cur.blob) - cur.pos} trailing bytes after the last tensor "
            f"at offset {cur.pos}"
        )
    missing = set(registry) - seen
    if missing:
        raise CheckpointError(f"{path}: checkpoint missing tensors: {sorted(missing)[:4]}")
    return model
