"""Model assembly, the input stage, operation accounting, and checkpoints.

A model is a stack of scalar-vector blocks over kNN edge features with a
global pooling head. Configs come from INI-style text ([model] section);
checkpoints store the config's canonical text so a file fully describes
its weights.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import math
import os
import zipfile
from dataclasses import dataclass, field, fields
from tokenize import TokenError

import numpy as np

from . import autodiff as ad
from .errors import CheckpointError, ConfigError, ParameterError, StateError, decode_utf8
from .geometry import PointCloud, batch_graph, neighbor_tables
from .svcore import (LinearParams, NormParams, SVBlockParams, SVFeature, aggregate, invariant_head,
                     invariant_projection, regroup_edges, scalar_linear, svblock_forward)

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
    def from_text(cls, text: str, source: str = "config") -> "ModelConfig":
        """Parse INI text; a syntax error is one line naming `source` and the line."""
        parser = configparser.ConfigParser(interpolation=None)  # a '%' is just a character
        try:
            parser.read_string(text)
        except configparser.Error as exc:  # each kind read_string raises has a line number
            lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
            line = text.split("\n")[lineno - 1].strip()  # the lines configparser counts
            raise ConfigError(f"{source} line {lineno}: cannot read {line!r} "
                              f"({type(exc).__name__})") from None
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
        return cls.from_text(decode_utf8(raw, f"config {path}", ConfigError), f"config {path}")

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


def _run_mlp(x, layers: list[tuple[LinearParams, str]]):
    for lin, tag in layers:
        x = scalar_linear(x, lin)
        if tag == "relu":
            x = ad.relu(x)
        elif tag != "none":
            raise ParameterError(f"unknown nonlinearity tag {tag!r}")
    return x


class Model:
    """A built network: parameter store plus the layer structure.

    `layers` lists every linear layer once, in build order, as
    (name, LinearParams, kind, sites). Kinds: 'frame' and 'vector' act on
    vectors, 'scalar' and 'gate' on scalars. Sites say where a layer runs:
    on each 'edge', each 'node', or once per 'cloud'. Glorot
    initialisation (`build_model`), binarization, `param_bits` and
    `count_model_ops` read this list.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.store = ad.ParamStore()
        self.layers: list[tuple[str, LinearParams, str, str]] = []
        self.blocks: list[SVBlockParams] = []
        self.extract_frame: LinearParams | None = None
        self.head_frame: LinearParams | None = None
        self.final_mlp: list[tuple[LinearParams, str]] = []

    @property
    def binarized(self) -> bool:
        """Whether any layer runs in a binary mode."""
        return any(lin.mode != "full_precision" for _, lin, _, _ in self.layers)

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


def _build_linear(model: Model, name: str, d_in: int, d_out: int,
                  kind: str, sites: str) -> LinearParams:
    """A zero-weight layer, listed in `model.layers`; scalar and gate layers get a bias."""
    lin = LinearParams(weight=model._param(f"{name}.weight", np.zeros((d_in, d_out))))
    if kind in ("scalar", "gate"):
        lin.bias = model._param(f"{name}.bias", np.zeros(d_out))
    model.layers.append((name, lin, kind, sites))
    return lin


def _build_block(model: Model, idx: int, p_in: int, q_in: int,
                 p_out: int, q_out: int, cfg: ModelConfig, sites: str) -> SVBlockParams:
    """The config's two interaction switches decide which layers exist (the
    frame, the gate); the block reads its wiring back from those layers."""
    name = f"block{idx}"
    project = cfg.scalar_concat and q_in > 0
    frame = _build_linear(model, f"{name}.frame", q_in, 3, "frame", sites) if project else None
    s_in = p_in + 3 * q_in if project else p_in
    scalar_mlp = [(_build_linear(model, f"{name}.scalar0", s_in, p_out, "scalar", sites), "relu")]
    vector_map = _build_linear(model, f"{name}.vector_map", q_in, q_out, "vector", sites)
    gate = (_build_linear(model, f"{name}.gate0", p_in, q_out, "gate", "cloud")
            if cfg.vector_reweight and q_out else None)
    norm = NormParams.create(p_out, q_out)
    for key in ("scalar_gain", "scalar_bias", "vector_log_scale"):
        model.store.add(f"{name}.norm.{key}", getattr(norm, key))
    return SVBlockParams(frame=frame, scalar_mlp=scalar_mlp, vector_map=vector_map,
                         gate=gate, norm=norm)


def layout_model(cfg: ModelConfig) -> Model:
    """The model a config describes, every weight zero: names, shapes, modes,
    `Model.layers` and the store are final, and no value is drawn."""
    cfg.validate()
    model = Model(cfg)

    p, q = EXTRACT_SCALARS, (0 if cfg.baseline else 2)
    if not cfg.baseline:
        model.extract_frame = _build_linear(model, "extract.frame", 2, 3, "frame", "edge")

    for i, (width, (regroup, _)) in enumerate(zip(cfg.channels, block_schedule(cfg))):
        if cfg.baseline:
            p_out, q_out = width, 0
        else:
            p_out, q_out = split_channels(width, cfg.sv_ratio)
        if regroup:
            p, q = 2 * p, 2 * q  # edge regrouping doubles both channel sets
        sites = "edge" if i == 0 or regroup else "node"
        model.blocks.append(_build_block(model, i, p, q, p_out, q_out, cfg, sites))
        p, q = p_out, q_out

    if q:
        model.head_frame = _build_linear(model, "head.frame", q, 3, "frame", "cloud")
    head_in = p + 3 * q
    model.final_mlp = [
        (_build_linear(model, "final0", head_in, cfg.head_dim, "scalar", "cloud"), "relu"),
        (_build_linear(model, "final1", cfg.head_dim, cfg.classes, "scalar", "cloud"), "none"),
    ]

    if cfg.binarize == "vanilla":
        binarize_plan(model)
    return model


def build_model(cfg: ModelConfig, rng_seed=0) -> Model:
    """A fresh model: the config's layout, each weight Glorot-uniform from
    the seed, drawn in `Model.layers` order."""
    model = layout_model(cfg)
    rng = np.random.default_rng(rng_seed)
    for _, lin, _, _ in model.layers:
        limit = np.sqrt(6.0 / max(lin.in_dim + lin.out_dim, 1))
        lin.weight.data[...] = rng.uniform(-limit, limit, (lin.in_dim, lin.out_dim))
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
    model.store.reset_optimizer()
    return model


# ---------------------------------------------------------------------------
# checkpoints: numpy's .npz layout, uncompressed. One .npy member per state
# array, named as it, and `config`, the canonical config text as UTF-8 uint8;
# a two-step model switched to binary is told apart by its `*.gamma` members.


def save_checkpoint(model: Model, path) -> None:
    """Write the config text and every persistent array as one archive; each
    member carries zip's fixed 1980 date, so equal models give equal bytes."""
    entries = [("config", np.frombuffer(model.cfg.to_text().encode("utf-8"), dtype=np.uint8))]
    for name, arr in model.state_arrays():
        if not np.isfinite(arr).all():  # load_checkpoint rejects such files, so never write one
            raise StateError(f"not saving {path}: tensor {name!r} holds non-finite values")
        entries.append((name, np.asarray(arr, dtype="<f8")))
    tmp = f"{path}.tmp"
    try:
        with zipfile.ZipFile(tmp, "w") as zf:
            for name, arr in entries:
                with zf.open(zipfile.ZipInfo(name), "w") as fh:
                    np.lib.format.write_array(fh, arr, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:  # a failed write leaves no partial file behind
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _member(zf: zipfile.ZipFile, info: zipfile.ZipInfo, dtype: str, shape) -> np.ndarray:
    """A finite .npy member, read only once its header declares `dtype` in C
    order and `shape` (None: any 1-d shape), so the file sizes no allocation.
    Reading to the member's end makes zipfile check its CRC-32."""
    with zf.open(info) as fh:
        if np.lib.format.read_magic(fh) != (1, 0):  # write_array's for headers under 64 KiB
            raise CheckpointError(f"member {info.filename!r} is not a version 1.0 .npy array")
        got_shape, fortran, got_dtype = np.lib.format.read_array_header_1_0(fh)
        shape = got_shape[:1] if shape is None else shape
        if (got_shape, fortran, got_dtype) != (shape, False, np.dtype(dtype)):
            raise CheckpointError(f"member {info.filename!r} holds {got_dtype.str} {got_shape}"
                                  f"{' in Fortran order' * fortran}, model wants {dtype} {shape}")
        size = math.prod(shape) * got_dtype.itemsize
        data = fh.read(size)
        if len(data) != size or fh.read(1):
            raise CheckpointError(f"member {info.filename!r} does not end with its array")
    arr = np.frombuffer(data, dtype=got_dtype).reshape(shape)
    if not np.isfinite(arr).all():
        raise CheckpointError(f"tensor {info.filename!r} holds non-finite values")
    return arr


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint; bit-exact parameter restore. Every
    failure is one CheckpointError line that starts with the path."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        # the 22-byte end record, with no comment: zipfile reads trailing bytes as one
        if blob[-22:-18] != b"PK\x05\x06" or blob[-2:] != b"\0\0":
            raise CheckpointError("not a checkpoint archive, or bytes after its end record")
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            members = {}
            for info in zf.infolist():
                # stored as written: no decompressor, decryption or patch data ever runs
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits:
                    raise CheckpointError(f"member {info.filename!r} is compressed or flagged")
                if info.filename in members:
                    raise CheckpointError(f"member {info.filename!r} appears twice")
                members[info.filename] = info
            if "config" not in members:
                raise CheckpointError("no config member")
            raw = _member(zf, members.pop("config"), "|u1", None).tobytes()
            try:
                cfg = ModelConfig.from_text(decode_utf8(raw, "config", CheckpointError))
            except ConfigError as exc:
                raise CheckpointError(f"embedded config invalid: {exc}") from None
            model = layout_model(cfg)
            if cfg.binarize == "two_step" and any(name.endswith(".gamma") for name in members):
                binarize_plan(model)  # switched after its fp phase by two-step training
            registry = dict(model.state_arrays())
            if set(members) != set(registry):
                raise CheckpointError(f"tensors unknown: {sorted(set(members) - set(registry))[:4]}"
                                      f", missing: {sorted(set(registry) - set(members))[:4]}")
            for name, target in registry.items():
                target[...] = _member(zf, members[name], "<f8", target.shape)
        return model
    # the messages above name no file, so the path is added here, once; numpy's
    # .npy header parser can also raise TokenError and TypeError
    except (OSError, ValueError, EOFError, MemoryError, RuntimeError, TypeError, TokenError,
            zipfile.BadZipFile) as exc:
        msg = " ".join(str(exc).split()) or type(exc).__name__
        raise CheckpointError(f"{path}: {msg}") from None
