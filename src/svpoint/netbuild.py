"""Model assembly, operation accounting, and checkpoint persistence.

A model is a stack of scalar-vector blocks over kNN edge features with a
global pooling head. Configs come from INI-style text ([model] section)
that is echoed into checkpoints so a file fully describes its weights.
"""

from __future__ import annotations

import configparser
import io
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .errors import CheckpointError, ConfigError, ParameterError, StateError
from .geometry import KnnGraph, PointCloud, extract_initial_features, knn_graphs
from .svcore import (BlockToggles, LinearParams, NormParams, SVBlockParams,
                     _run_mlp, aggregate, invariant_head, regroup_edges,
                     svblock_forward)

BACKBONES = ("pointnet_like", "dgcnn_like")
BINARIZE_MODES = ("none", "vanilla", "two_step")
DEFAULT_PLANS = {"pointnet_like": (64, 128, 256), "dgcnn_like": (64, 64, 128, 256)}


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ModelConfig:
    backbone: str = "pointnet_like"
    k: int = 16
    channel_plan: tuple[int, ...] = ()
    sv_ratio: float = 0.5
    scalar_concat: bool = True
    vector_reweight: bool = True
    binarize: str = "none"
    keep_first_last_fp: bool = True
    classes: int = 4
    head_dim: int = 512
    baseline: bool = False
    raw_text: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.channel_plan:
            self.channel_plan = DEFAULT_PLANS.get(self.backbone, ())
        self.channel_plan = tuple(int(c) for c in self.channel_plan)
        self.validate()

    def validate(self) -> None:
        if self.backbone not in BACKBONES:
            raise ConfigError(f"unknown backbone {self.backbone!r}")
        if self.binarize not in BINARIZE_MODES:
            raise ConfigError(f"unknown binarize setting {self.binarize!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not self.channel_plan or any(c < 1 for c in self.channel_plan):
            raise ConfigError(f"bad channel plan {self.channel_plan}")
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
        if "model" not in parser:
            raise ConfigError("config needs a [model] section")
        sec = parser["model"]
        known = {f.name for f in fields(cls)} - {"raw_text", "channel_plan"} | {"channels"}
        for key in sec:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs = {}
            if "backbone" in sec:
                kwargs["backbone"] = sec["backbone"].strip()
            if "k" in sec:
                kwargs["k"] = sec.getint("k")
            if "channels" in sec:
                kwargs["channel_plan"] = tuple(
                    int(c) for c in sec["channels"].replace(",", " ").split()
                )
            if "sv_ratio" in sec:
                kwargs["sv_ratio"] = sec.getfloat("sv_ratio")
            for flag in ("scalar_concat", "vector_reweight", "keep_first_last_fp", "baseline"):
                if flag in sec:
                    kwargs[flag] = sec.getboolean(flag)
            if "binarize" in sec:
                kwargs["binarize"] = sec["binarize"].strip()
            if "classes" in sec:
                kwargs["classes"] = sec.getint("classes")
            if "head_dim" in sec:
                kwargs["head_dim"] = sec.getint("head_dim")
        except ValueError as exc:
            raise ConfigError(f"config value error: {exc}") from None
        cfg = cls(**kwargs)
        cfg.raw_text = text
        return cfg

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        try:
            with open(path) as fh:
                return cls.from_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None

    def to_text(self) -> str:
        lines = [
            "[model]",
            f"backbone = {self.backbone}",
            f"k = {self.k}",
            f"channels = {','.join(str(c) for c in self.channel_plan)}",
            f"sv_ratio = {self.sv_ratio!r}",
            f"scalar_concat = {str(self.scalar_concat).lower()}",
            f"vector_reweight = {str(self.vector_reweight).lower()}",
            f"binarize = {self.binarize}",
            f"keep_first_last_fp = {str(self.keep_first_last_fp).lower()}",
            f"classes = {self.classes}",
            f"head_dim = {self.head_dim}",
            f"baseline = {str(self.baseline).lower()}",
        ]
        return "\n".join(lines) + "\n"

    def text_for_echo(self) -> str:
        return self.raw_text if self.raw_text is not None else self.to_text()


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


def _linear_cost(lin: LinearParams, n_sites: int, vector: bool) -> dict[str, int]:
    per_site = lin.in_dim * lin.out_dim * (3 if vector else 1)
    total = per_site * n_sites
    if lin.mode == "binary_full":
        return {"bops": total}
    if lin.mode == "binary_weight":
        return {"adds": total}
    return {"macs": total}


def count_model_ops(model: "Model", n_points: int) -> OpCounter:
    """Per-layer cost of one single-cloud forward pass at the built dims.

    Pooling, normalization, and nonlinearities are omitted as negligible
    next to the linear maps, matching the five-term accounting.
    """
    cfg = model.cfg
    ctr = OpCounter()
    n_edges = n_points * cfg.k
    if not cfg.baseline:
        ctr.add_layer("extract.frame", **_linear_cost(model.extract_frame, n_edges, True))
        ctr.add_layer("extract.projection", macs=9 * 2 * n_edges)
    sites = n_edges
    for i, blk in enumerate(model.blocks):
        if cfg.backbone == "dgcnn_like" and i > 0:
            sites = n_edges  # regrouped back to edges
        name = f"block{i}"
        q_in = blk.frame.in_dim
        if q_in:
            ctr.add_layer(f"{name}.frame", **_linear_cost(blk.frame, sites, True))
            ctr.add_layer(f"{name}.projection", macs=9 * q_in * sites)
        for j, (lin, _) in enumerate(blk.scalar_mlp):
            ctr.add_layer(f"{name}.scalar{j}", **_linear_cost(lin, sites, False))
        for j, (lin, _) in enumerate(blk.gate_mlp):
            ctr.add_layer(f"{name}.gate{j}", **_linear_cost(lin, 1, False))
        if blk.vector_map.out_dim:
            ctr.add_layer(f"{name}.vector_map", **_linear_cost(blk.vector_map, sites, True))
        if i == 0 or cfg.backbone == "dgcnn_like":
            sites = n_points  # aggregation back to nodes
    q_last = model.head_frame.in_dim
    if q_last:
        ctr.add_layer("head.frame", **_linear_cost(model.head_frame, 1, True))
        ctr.add_layer("head.projection", macs=9 * q_last)
    for j, (lin, _) in enumerate(model.final_mlp):
        ctr.add_layer(f"final{j}", **_linear_cost(lin, 1, False))
    return ctr


def param_bits(model: "Model") -> int:
    """Storage cost: 1 bit per binarized weight entry, 32 otherwise."""
    bits = 0
    for name, tensor in model.store.items():
        lin = model._owner_linear.get(name)
        binary_weight_entry = (
            lin is not None and name.endswith("weight") and lin.mode != "full_precision"
        )
        bits += tensor.data.size * (1 if binary_weight_entry else 32)
    return bits


# ---------------------------------------------------------------------------
# model


def neighbor_tables(clouds, k: int, chunk: int = 32) -> list[KnnGraph]:
    """Per-cloud kNN tables, batched in chunks to bound memory.

    Useful when the same clouds are fed repeatedly (e.g. un-augmented
    training): the tables depend only on geometry, never on parameters.
    """
    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1, got {chunk}")
    out: list[KnnGraph] = []
    for lo in range(0, len(clouds), chunk):
        out.extend(knn_graphs(clouds[lo: lo + chunk], k))
    return out


class Model:
    """A built network: parameter store plus the layer structure."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.store = ad.ParamStore()
        self.blocks: list[SVBlockParams] = []
        self.extract_frame: LinearParams | None = None
        self.head_frame: LinearParams | None = None
        self.final_mlp: list[tuple[LinearParams, str]] = []
        self.binarized = False
        self._owner_linear: dict[str, LinearParams] = {}
        self._running: list[tuple[str, np.ndarray]] = []

    # -- parameter bookkeeping

    def _param(self, name: str, data: np.ndarray) -> ad.Tensor:
        return self.store.add(name, ad.parameter(data))

    def _register_running(self, prefix: str, norm: NormParams) -> None:
        self._running.append((f"{prefix}.running_mean", norm.running_mean))
        self._running.append((f"{prefix}.running_var", norm.running_var))
        self._running.append((f"{prefix}.running_norm", norm.running_norm))

    def state_arrays(self):
        """All persistent arrays in deterministic order: params then stats."""
        for name, tensor in self.store.items():
            yield name, tensor.data
        for name, arr in self._running:
            yield name, arr

    # -- forward

    def forward(self, clouds: list[PointCloud], stats_mode: str = "eval",
                graphs: list[KnnGraph] | None = None) -> ad.Tensor:
        """Class logits (classes, B) for a batch of equal-size clouds.

        `graphs` may carry precomputed neighbor tables (one per cloud, same
        order); callers that reuse fixed clouds across epochs can build the
        tables once since kNN depends only on geometry, not on parameters.
        Each table must have one row per point and indices in [0, n).
        """
        k = self.cfg.k
        if graphs is None:
            graphs = knn_graphs(clouds, k)
        elif any(g.k != k for g in graphs):
            raise ParameterError(f"precomputed graphs do not match model k={k}")
        x = extract_initial_features(clouds, graphs, self.extract_frame)
        n, b = clouds[0].n, len(clouds)

        if self.cfg.backbone == "pointnet_like" or self.cfg.baseline:
            x = svblock_forward(x, self.blocks[0], stats_mode, groups=b)
            x = aggregate(x, k)
            for blk in self.blocks[1:]:
                x = svblock_forward(x, blk, stats_mode, groups=b)
        else:
            batch_graph = KnnGraph(
                k=k,
                neighbors=np.vstack([g.neighbors + i * n for i, g in enumerate(graphs)]),
            )
            x = svblock_forward(x, self.blocks[0], stats_mode, groups=b)
            for blk in self.blocks[1:]:
                x = aggregate(x, k)
                x = regroup_edges(x, batch_graph)
                x = svblock_forward(x, blk, stats_mode, groups=b)
            x = aggregate(x, k)

        x = aggregate(x, n)  # global pooling, one site per cloud
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
                  bias: bool) -> LinearParams:
    lin = LinearParams(weight=model._param(f"{name}.weight", _glorot(rng, d_in, d_out)))
    if bias:
        lin.bias = model._param(f"{name}.bias", np.zeros(d_out))
    model._owner_linear[f"{name}.weight"] = lin
    return lin


def _build_block(model: Model, idx: int, rng, p_in: int, q_in: int,
                 p_out: int, q_out: int, cfg: ModelConfig) -> SVBlockParams:
    name = f"block{idx}"
    toggles = BlockToggles(cfg.scalar_concat, cfg.vector_reweight)
    frame = _build_linear(model, f"{name}.frame", rng, q_in, 3, bias=False)
    s_in = p_in + 3 * q_in if toggles.scalar_concat else p_in
    scalar_mlp = [(_build_linear(model, f"{name}.scalar0", rng, s_in, p_out, bias=True), "relu")]
    vector_map = _build_linear(model, f"{name}.vector_map", rng, q_in, q_out, bias=False)
    gate_mlp = []
    if toggles.vector_reweight and q_out:
        gate_mlp = [(_build_linear(model, f"{name}.gate0", rng, p_in, q_out, bias=True), "sigmoid")]
    norm = NormParams.create(p_out, q_out)
    for key in ("scalar_gain", "scalar_bias", "vector_log_scale"):
        model.store.add(f"{name}.norm.{key}", getattr(norm, key))
    model._register_running(f"{name}.norm", norm)
    return SVBlockParams(frame=frame, scalar_mlp=scalar_mlp, vector_map=vector_map,
                         gate_mlp=gate_mlp, toggles=toggles, norm=norm)


def build_model(cfg: ModelConfig, rng_seed=0) -> Model:
    """Assemble a fresh model; weights Glorot-uniform from the seed."""
    cfg.validate()
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    model = Model(cfg)

    p, q = (6, 0) if cfg.baseline else (6, 2)
    if not cfg.baseline:
        model.extract_frame = _build_linear(model, "extract.frame", rng, 2, 3, bias=False)

    for i, width in enumerate(cfg.channel_plan):
        if cfg.baseline:
            p_out, q_out = width, 0
        else:
            p_out, q_out = split_channels(width, cfg.sv_ratio)
        if cfg.backbone == "dgcnn_like" and i > 0:
            p, q = 2 * p, 2 * q  # edge regrouping doubles both channel sets
        model.blocks.append(_build_block(model, i, rng, p, q, p_out, q_out, cfg))
        p, q = p_out, q_out

    model.head_frame = _build_linear(model, "head.frame", rng, q, 3, bias=False)
    head_in = p + 3 * q
    model.final_mlp = [
        (_build_linear(model, "final0", rng, head_in, cfg.head_dim, bias=True), "relu"),
        (_build_linear(model, "final1", rng, cfg.head_dim, cfg.classes, bias=True), "none"),
    ]

    if cfg.binarize == "vanilla":
        binarize_plan(model, "vanilla")
    return model


# ---------------------------------------------------------------------------
# binarization planning


def _eligible_layers(model: Model):
    """(name, LinearParams, kind) for every layer binarization may touch.

    Kinds: 'scalar' layers binarize fully (activations and weights),
    'vector' layers weight-only. The gate MLPs never appear: their cost
    is negligible and they stay full-precision.
    """
    first_fp = model.cfg.keep_first_last_fp
    if model.extract_frame is not None and not first_fp:
        yield "extract.frame", model.extract_frame, "vector"
    for i, blk in enumerate(model.blocks):
        yield f"block{i}.frame", blk.frame, "vector"
        yield f"block{i}.vector_map", blk.vector_map, "vector"
        for j, (lin, _) in enumerate(blk.scalar_mlp):
            yield f"block{i}.scalar{j}", lin, "scalar"
    yield "head.frame", model.head_frame, "vector"
    for j, (lin, _) in enumerate(model.final_mlp[:-1]):
        yield f"final{j}", lin, "scalar"
    if not first_fp:
        yield f"final{len(model.final_mlp) - 1}", model.final_mlp[-1][0], "scalar"


def binarize_plan(model: Model, scheme: str) -> Model:
    """Switch eligible layers to their binary modes.

    'vanilla' binarizes a fresh model in place; 'two_step_phase2' does
    the same to a trained full-precision model and resets the optimizer
    so the binary phase starts with clean moments. Weights are preserved;
    beta starts at 0 and gamma at 1, both trainable.
    """
    if scheme not in ("vanilla", "two_step_phase2"):
        raise ParameterError(f"unknown binarization scheme {scheme!r}")
    if model.binarized:
        raise StateError("model is already binarized")
    for name, lin, kind in _eligible_layers(model):
        if kind == "scalar":
            lin.mode = "binary_full"
            lin.bias = None
            lin.beta = model._param(f"{name}.beta", np.zeros(lin.in_dim))
            lin.gamma = model._param(f"{name}.gamma", np.ones(lin.out_dim))
        else:
            lin.mode = "binary_weight"
            lin.gamma = model._param(f"{name}.gamma", np.ones(lin.out_dim))
    model.binarized = True
    if scheme == "two_step_phase2":
        model.store.reset_optimizer()
    return model


# ---------------------------------------------------------------------------
# checkpoints

MAGIC = b"SVNC"
CKPT_VERSION = 1
_DTYPE_TAGS = {0: "<f8"}


class _Cursor:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise CheckpointError(
                f"truncated checkpoint: wanted {count} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.pos: self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def save_checkpoint(model: Model, path) -> None:
    """Serialize config text and every persistent array, little-endian."""
    cfg_text = model.cfg.text_for_echo()
    if model.binarized and model.cfg.binarize != "vanilla" and "[state]" not in cfg_text:
        cfg_text += "\n[state]\nbinarized = true\n"
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


def load_checkpoint(path, expect_cfg: ModelConfig | None = None) -> Model:
    """Rebuild a model from a checkpoint; bit-exact parameter restore."""
    try:
        with open(path, "rb") as fh:
            cur = _Cursor(fh.read())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if cur.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    (version,) = cur.unpack("<I")
    if version != CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = cur.unpack("<I")
    cfg_text = cur.take(cfg_len).decode("utf-8")
    try:
        cfg = ModelConfig.from_text(cfg_text)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: embedded config invalid: {exc}") from None
    if expect_cfg is not None and cfg != expect_cfg:
        raise CheckpointError(
            f"{path}: checkpoint config ({cfg.backbone}, channels {cfg.channel_plan}) "
            f"does not match the requested config ({expect_cfg.backbone}, "
            f"channels {expect_cfg.channel_plan})"
        )
    parser = configparser.ConfigParser()
    parser.read_string(cfg_text)
    phase2 = parser.has_section("state") and parser["state"].getboolean("binarized", False)

    model = build_model(cfg, rng_seed=0)
    if phase2 and not model.binarized:
        binarize_plan(model, "vanilla")
    registry = dict(model.state_arrays())

    (count,) = cur.unpack("<I")
    seen = set()
    for _ in range(count):
        (name_len,) = cur.unpack("<H")
        name = cur.take(name_len).decode("utf-8")
        tag, ndim = cur.unpack("<BB")
        if tag not in _DTYPE_TAGS:
            raise CheckpointError(f"{path}: unknown dtype tag {tag} for {name!r}")
        shape = cur.unpack(f"<{ndim}Q")
        payload = cur.take(int(np.prod(shape, dtype=np.int64)) * 8 if ndim else 8)
        arr = np.frombuffer(payload, dtype=_DTYPE_TAGS[tag]).reshape(shape)
        if name not in registry:
            raise CheckpointError(f"{path}: unknown tensor name {name!r}")
        target = registry[name]
        if target.shape != arr.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {arr.shape}, model wants {target.shape}"
            )
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
