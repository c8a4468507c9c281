"""Reverse-mode differentiation over the small op set the network needs.

Tensors wrap float64 numpy arrays. Recording happens only inside a Tape
context; outside of one, ops run as plain numpy with no graph overhead.
Each tensor's gradient, backward closure and requires_grad flag live in
a `GradSlot` apart from its data. A closure holds its parents' slots and
only the arrays its backward reads (a shape where it reads only a
shape), so backward keeps an output alive only where a closure reads
it. The tape holds its output tensors until backward starts, then only
their slots. Backward traverses the recorded forward order reversed,
accumulates gradients additively at fan-out points, and lets go of each
slot as soon as it is consumed, so a tape sweeps once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, StateError

# ---------------------------------------------------------------------------
# order-insensitive coordinate sums
#
# Sums along a 3-long coordinate axis are the one place where a signed
# permutation of the axes would reorder floating-point additions and break
# bit-level reproducibility.  Sorting the three summands first makes the sum
# a function of the summand multiset only; the trailing +0.0 canonicalizes
# the sign of a zero result.


def sorted_coord_sum(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum `arr` along its first axis, of length 3, insensitive to axis order.

    A three-element min/median/max network (cheaper than a generic sort)
    fixes the addition order by value, so any permutation of the three
    summands produces the same bits. The network needs two temporaries
    beside `out` (allocated when None, and not overlapping `arr`).
    """
    if arr.shape[0] != 3:
        raise ParameterError(f"coordinate axis must have length 3, got {arr.shape[0]}")
    a, b, c = arr
    lo_ab = np.asarray(np.minimum(a, b))  # arrays even for a 3-vector, so they take out=
    hi_ab = np.asarray(np.maximum(a, b))
    out = np.minimum(lo_ab, c, out=out)  # lo
    mid = np.minimum(hi_ab, np.maximum(lo_ab, c, out=lo_ab), out=lo_ab)
    hi = np.maximum(hi_ab, c, out=hi_ab)
    out += mid
    out += hi
    out += 0.0
    return out


# Sums of coordinate products run over the site axis in chunks of this many
# sites, so their (3, q, chunk) product is the only full-width temporary.
CHUNK_SITES = 4096


def _coord_dot(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = sorted_coord_sum(x * y): (3,1|q,N),(3,q,N) -> (q,N), chunked over sites."""
    n = y.shape[2]
    buf = np.empty(y.shape[:2] + (min(n, CHUNK_SITES),))
    for lo in range(0, n, CHUNK_SITES):
        hi = min(lo + CHUNK_SITES, n)
        part = buf[:, :, : hi - lo]
        np.multiply(x[:, :, lo:hi], y[:, :, lo:hi], out=part)
        sorted_coord_sum(part, out=out[:, lo:hi])
    return out


def _site_norms(v: np.ndarray) -> np.ndarray:
    """Order-insensitive Euclidean norms per channel and site: (3,q,N) -> (q,N)."""
    norms = _coord_dot(v, v, np.empty(v.shape[1:]))
    return np.sqrt(norms, out=norms)


# ---------------------------------------------------------------------------
# tape and tensor

_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Records primitive applications in forward order for reverse sweep."""

    def __init__(self):
        # the recorded outputs; from the start of backward, their slots
        self.nodes: list[Tensor | GradSlot] = []
        self.swept = False

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPES.pop()
        return False

    def backward(self, loss: "Tensor") -> None:
        """Seed d(loss) and sweep the recorded nodes in reverse.

        Gradients land in the .grad of every leaf tensor with
        requires_grad, parameters included. The sweep starts by trading
        the recorded output tensors for their slots, so every output that
        no closure saved and the caller does not hold is freed then; the
        caller's tensors keep their data. Each slot lets go of its
        gradient and its backward closure (with the arrays that closure
        saved) as soon as the sweep passes it, and the tape ends empty,
        so a tape sweeps once.
        """
        if self.swept:
            raise StateError("backward already ran on this tape; record a new forward")
        if not self.nodes:
            raise StateError("backward on a tape with no recorded forward")
        if loss._grad_fn is None and not loss.requires_grad:
            raise StateError("loss tensor was not recorded on this tape")
        self.swept = True
        nodes = self.nodes
        for i in range(len(nodes)):  # in place, so the swap itself allocates nothing
            nodes[i] = nodes[i].slot
        loss.grad = np.ones_like(loss.data)
        while nodes:
            slot = nodes.pop()
            grad, grad_fn = slot.grad, slot.grad_fn
            slot.grad = slot.grad_fn = None
            if grad is not None and grad_fn is not None:
                grad_fn(grad)


def recording() -> bool:
    """Whether a Tape is active, so that ops on parameters record."""
    return bool(_ACTIVE_TAPES)


class GradSlot:
    """A tensor's part in the sweep: its gradient, its backward closure and
    whether it takes a gradient. Closures hold their parents' slots, so
    holding a slot keeps no data alive."""

    __slots__ = ("grad", "grad_fn", "requires_grad")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.grad_fn = None
        self.requires_grad = requires_grad


def _slot_field(name: str) -> property:
    return property(lambda t: getattr(t.slot, name),
                    lambda t, value: setattr(t.slot, name, value))


class Tensor:
    __slots__ = ("data", "slot")

    # read and assigned through the slot, which closures and the sweep share
    grad = _slot_field("grad")
    requires_grad = _slot_field("requires_grad")
    _grad_fn = _slot_field("grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.slot = GradSlot(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: GradSlot | Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _make(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    tape = _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None
    out = Tensor(data)
    if tape is not None and any(p.requires_grad for p in parents):
        out.slot.requires_grad = True
        out.slot.grad_fn = grad_fn
        tape.nodes.append(out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise primitives


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    sa, sb, a_shape, b_shape = a.slot, b.slot, a.data.shape, b.data.shape
    # each factor's gradient reads the other factor
    a_data = a.data if sb.requires_grad else None
    b_data = b.data if sa.requires_grad else None

    def bw(g):
        if sa.requires_grad:
            _accumulate(sa, _unbroadcast(g * b_data, a_shape))
        if sb.requires_grad:
            _accumulate(sb, _unbroadcast(g * a_data, b_shape))

    return _make(out, (a, b), bw)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)
    sx, x_data = x.slot, x.data

    def bw(g):
        _accumulate(sx, g * (x_data > 0))  # subgradient 0 at the kink

    return _make(out, (x,), bw)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.data))
    sx = x.slot

    def bw(g):
        _accumulate(sx, g * s * (1.0 - s))

    return _make(s, (x,), bw)


STE_CLIP = 1.2  # the straight-through gradient passes for |x| < STE_CLIP


def ste_band(x: np.ndarray) -> np.ndarray:
    """Where the straight-through gradient of sign passes: the strict clip
    band -STE_CLIP < x < STE_CLIP, as booleans."""
    band = x > -STE_CLIP
    band &= x < STE_CLIP  # in place: one boolean temporary beside the band
    return band


def sign_ste(x) -> Tensor:
    """Elementwise Sign with the clipped straight-through backward rule."""
    x = as_tensor(x)
    out = np.where(x.data >= 0, 1.0, -1.0)  # sign's predicate
    # NaN has no sign: it stays NaN, so the loss shows the divergence
    out[np.isnan(x.data)] = np.nan
    sx, saved = x.slot, x.data

    def bw(g):
        _accumulate(sx, g * ste_band(saved))

    return _make(out, (x,), bw)


# ---------------------------------------------------------------------------
# shape / reduction primitives


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)
    sx, old = x.slot, x.data.shape

    def bw(g):
        _accumulate(sx, g.reshape(old))

    return _make(out, (x,), bw)


def concat(parts) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])
    slots = [p.slot for p in parts]

    def bw(g):
        for sp, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            _accumulate(sp, g[lo:hi])

    return _make(out, tuple(parts), bw)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, each column with the bits it gets beside other columns: BLAS
    sums a matrix-vector product in another order than a column of a
    matrix product, so a lone column is multiplied as two copies of itself
    (a cloud's per-cloud features get the same bits alone as in a batch)."""
    if b.ndim < 2 or b.shape[-1] != 1:
        return a @ b
    return np.ascontiguousarray((a @ np.repeat(b, 2, axis=-1))[..., :1])


def matmul(a, b, bias=None) -> Tensor:
    """a @ b, plus a (p,) `bias` added in place to each row of a (p, N) product."""
    a, b = as_tensor(a), as_tensor(b)
    # BLAS rounds C and F order differently; C order makes the bits depend on values only
    b_data = np.ascontiguousarray(b.data)
    out = _product(a.data, b_data)
    parents = (a, b)
    if bias is not None:
        bias = as_tensor(bias)
        if out.ndim != 2 or bias.data.shape != out.shape[:1]:
            raise ParameterError(f"bias of shape {bias.data.shape} for a product of {out.shape}")
        out += bias.data[:, None]
        parents += (bias,)
    sa, sb, s_bias = a.slot, b.slot, None if bias is None else bias.slot
    # each factor's gradient reads the other factor
    a_data = a.data if sb.requires_grad else None
    b_data = b_data if sa.requires_grad else None

    def bw(g):
        if sa.requires_grad:
            _accumulate(sa, g @ b_data.T)
        if sb.requires_grad:
            _accumulate(sb, a_data.T @ g)
        if s_bias is not None and s_bias.requires_grad:
            _accumulate(s_bias, g.sum(axis=1))

    return _make(out, parents, bw)


def pool_groups(x, size: int, mode: str) -> Tensor:
    """Pool contiguous groups of `size` along the last axis.

    (..., G*size) -> (..., G);  mode 'mean' or 'max'.
    """
    x = as_tensor(x)
    n = x.data.shape[-1]
    if size < 1 or n % size != 0:
        raise ParameterError(f"site count {n} not divisible by group size {size}")
    grouped = x.data.reshape(x.data.shape[:-1] + (n // size, size))
    sx, x_shape, grouped_shape = x.slot, x.data.shape, grouped.shape
    if mode == "mean":
        out = grouped.mean(axis=-1)

        def bw(g):
            _accumulate(sx, np.repeat(g / size, size, axis=-1))

    elif mode == "max":
        arg = grouped.argmax(axis=-1)
        out = np.take_along_axis(grouped, arg[..., None], axis=-1)[..., 0]

        def bw(g):
            gg = np.zeros(grouped_shape)
            np.put_along_axis(gg, arg[..., None], g[..., None], axis=-1)
            _accumulate(sx, gg.reshape(x_shape))

    else:
        raise ParameterError(f"unknown pooling mode {mode!r}")
    return _make(out, (x,), bw)


def _scatter_sites(g: np.ndarray, idx: np.ndarray, n_cols: int) -> np.ndarray:
    """Scatter-add the last axis of g onto n_cols columns at non-negative idx.

    One bincount over (row, column) keys; it adds in index order, so the
    result is deterministic and each row is summed independently.
    """
    lead = g.shape[:-1]
    rows = math.prod(lead)
    keys = (np.arange(rows) * n_cols)[:, None] + idx
    acc = np.bincount(keys.ravel(), weights=g.ravel(), minlength=rows * n_cols)
    return acc.reshape(lead + (n_cols,))


def take_sites(x, idx: np.ndarray) -> Tensor:
    """Gather columns of the last axis; backward scatter-adds."""
    x = as_tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    out = x.data[..., idx]  # raises on out-of-range indices
    n_cols = x.data.shape[-1]
    idx = np.where(idx < 0, idx + n_cols, idx)  # negative indices count from the end
    sx = x.slot

    def bw(g):
        _accumulate(sx, _scatter_sites(g, idx, n_cols))

    return _make(out, (x,), bw)


def edge_pairs(x, neighbors: np.ndarray) -> Tensor:
    """Edge features [x_i ; x_j - x_i] over a neighbor table: (..., c, n) -> (..., 2c, n*k).

    `neighbors` is (n, k); edge i*k + s pairs node i with neighbors[i, s],
    so node i's edges are contiguous. The output is sites-major in memory
    (the edge axis has the largest stride), the layout a gather along the
    last axis gives.
    """
    x = as_tensor(x)
    neighbors = np.asarray(neighbors)
    n = x.data.shape[-1]
    if neighbors.ndim != 2 or neighbors.shape[0] != n:
        raise ParameterError(f"neighbor table of shape {neighbors.shape} for {n} nodes")
    if neighbors.size and not 0 <= neighbors.min() <= neighbors.max() < n:
        raise ParameterError(f"neighbor indices outside [0, {n})")
    k = neighbors.shape[1]
    c = x.data.shape[-2]
    neigh_idx = neighbors.reshape(-1).astype(np.intp, copy=False)
    center_idx = np.repeat(np.arange(n), k)
    lead = x.data.shape[:-2]
    out = np.moveaxis(np.empty((n * k,) + lead + (2 * c,)), 0, -1)
    x_i = out[..., :c, :]
    x_i[...] = x.data[..., center_idx]
    np.subtract(x.data[..., neigh_idx], x_i, out=out[..., c:, :])
    sx = x.slot

    def bw(g):
        g_diff = g[..., c:, :]
        _accumulate(sx, _scatter_sites(g_diff, neigh_idx, n))
        # a - b is a + (-b) exactly, so this equals the unfused center gradient
        _accumulate(sx, _scatter_sites(g[..., :c, :] - g_diff, center_idx, n))

    return _make(out, (x,), bw)


def transpose(x) -> Tensor:
    """Reverse the axes; a matrix's transpose."""
    x = as_tensor(x)
    out = np.transpose(x.data)
    sx = x.slot

    def bw(g):
        _accumulate(sx, np.transpose(g))

    return _make(out, (x,), bw)


# ---------------------------------------------------------------------------
# vector-feature primitives (coordinate axis first, length 3)


def vector_map_raw(v, w) -> Tensor:
    """Channel-mixing map shared across coordinates: (3,q,N),(q,p) -> (3,p,N).

    A binary_weight layer passes its signs already scaled by γ (see
    `svcore.vector_mapping`), so this one map serves every precision mode.
    """
    v, w = as_tensor(v), as_tensor(w)
    if v.data.shape[1] != w.data.shape[0]:
        raise ParameterError(
            f"vector channels {v.data.shape[1]} do not match weight rows {w.data.shape[0]}"
        )
    # one GEMM per coordinate slice, all with the same shape: a signed
    # permutation of the coordinates only moves and negates whole slices,
    # so rotated inputs give bit-identical (rotated) outputs
    out = _product(w.data.T, v.data)
    sv, sw = v.slot, w.slot
    # each factor's gradient reads the other factor
    v_data = v.data if sw.requires_grad else None
    w_data = w.data if sv.requires_grad else None

    def bw(g):
        if sv.requires_grad:
            _accumulate(sv, np.matmul(w_data, g))
        if sw.requires_grad:
            _accumulate(sw, np.matmul(v_data, g.swapaxes(1, 2)).sum(axis=0))  # sum of v[c] @ g[c].T

    return _make(out, (v, w), bw)


def pair_contract(a, b) -> Tensor:
    """Per-site contraction over the coordinate axis: (3,a,N),(3,q,N) -> (a,q,N).

    The 3-term sums are order-insensitive so that signed-permutation
    rotations of both factors reproduce the output bit for bit.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[0] != 3 or b.data.shape[0] != 3 or a.data.shape[2] != b.data.shape[2]:
        raise ParameterError(f"bad contraction shapes {a.data.shape} x {b.data.shape}")
    # one frame column at a time, so no (3, a, q, N) product is built
    out = np.empty(a.data.shape[1:2] + b.data.shape[1:])
    for i in range(out.shape[0]):
        _coord_dot(a.data[:, i : i + 1], b.data, out[i])
    sa, sb = a.slot, b.slot
    # each factor's gradient reads the other factor
    a_data = a.data if sb.requires_grad else None
    b_data = b.data if sa.requires_grad else None

    def bw(g):
        if sa.requires_grad:
            _accumulate(sa, np.einsum("aqn,cqn->can", g, b_data))
        if sb.requires_grad:
            _accumulate(sb, np.einsum("aqn,can->cqn", g, a_data))

    return _make(out, (a, b), bw)


# ---------------------------------------------------------------------------
# fused normalization
#
# Composing normalization from elementwise primitives works but costs a
# dozen full-size passes per call; these fused forms do the textbook
# backward in a few. Eval runs `norm_affine` and `vector_scale` in place.


def norm_affine(xhat: np.ndarray, var: np.ndarray, eps: float, gain: np.ndarray,
                bias: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = xhat * (1 / sqrt(var + eps)) * gain + bias, per channel row:
    the arithmetic of every scalar normalization, in one order.

    xhat (p, N) holds x - mean on entry and is scaled in place; `out` may
    be xhat itself. var, gain and bias are (p,). Returns the (p, 1)
    inverse deviation.
    """
    inv = 1.0 / np.sqrt(var + eps)[:, None]
    xhat *= inv
    np.multiply(xhat, gain[:, None], out=out)
    out += bias[:, None]
    return inv


# batch_norm_train works on tiles of at most this many bytes of channel rows
# (one row when a row is larger), so its temporaries stay cache-sized
TILE_BYTES = 256 * 1024


def batch_norm_train(x, gain, bias, eps: float, *, relu: bool = False):
    """Standardize scalar channels over the site axis by their batch
    statistics, with learned affine: (x - mean) * (1 / sqrt(var + eps)) *
    gain + bias, then max(., 0) when `relu`, with ReLU's subgradient 0 at
    the kink. Returns (out, mean, var), the stats as plain (p,) arrays.

    Forward and backward run one tile of channel rows at a time. Every
    reduction is along a row, so the bits are those of the whole-array
    textbook formulas; only xhat and the output stay for backward.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    p, count = x.data.shape
    rows = max(1, min(p, TILE_BYTES // max(1, 8 * count)))
    tiles = [slice(lo, min(lo + rows, p)) for lo in range(0, p, rows)]
    xhat, out = np.empty((p, count)), np.empty((p, count))
    mean, var, inv = np.empty(p), np.empty(p), np.empty((p, 1))
    for t in tiles:
        x_t, xhat_t, out_t = x.data[t], xhat[t], out[t]
        mean[t] = x_t.mean(axis=1)
        np.subtract(x_t, mean[t, None], out=xhat_t)  # centered here, standardized below
        var[t] = np.multiply(xhat_t, xhat_t, out=out_t).mean(axis=1)
        inv[t] = norm_affine(xhat_t, var[t], eps, gain.data[t], bias.data[t], out_t)
        if relu:
            np.maximum(out_t, 0.0, out=out_t)
    sx, s_gain, s_bias, gain_data = x.slot, gain.slot, bias.slot, gain.data
    relu_out = out if relu else None  # ReLU's mask is read from the output

    def bw(g):
        buf, g_relu = np.empty((2, rows, count))
        gx = np.empty((p, count))
        g_gain, g_bias = np.empty(p), np.empty(p)
        for t in tiles:
            n = t.stop - t.start
            g_t, xhat_t, gx_t, buf_t = g[t], xhat[t], gx[t], buf[:n]
            if relu:
                g_t = np.multiply(g_t, relu_out[t] > 0, out=g_relu[:n])
            g_gain[t] = np.multiply(g_t, xhat_t, out=buf_t).sum(axis=1)
            g_bias[t] = g_t.sum(axis=1)
            # the batch statistics depend on x too: inv / count * (count * gx
            # - sum(gx) - xhat * sum(gx * xhat)), in place in the textbook order
            np.multiply(g_t, gain_data[t, None], out=gx_t)
            sum_gx = gx_t.sum(axis=1, keepdims=True)
            np.multiply(gx_t, xhat_t, out=buf_t)
            sum_gx_xhat = buf_t.sum(axis=1, keepdims=True)
            gx_t *= count
            gx_t -= sum_gx
            gx_t -= np.multiply(xhat_t, sum_gx_xhat, out=buf_t)
            gx_t *= inv[t] / count
        _accumulate(s_gain, g_gain)
        _accumulate(s_bias, g_bias)
        _accumulate(sx, gx)

    return _make(out, (x, gain, bias), bw), mean, var


def vector_scale(v: np.ndarray, coef: np.ndarray, gate, out: np.ndarray) -> np.ndarray:
    """out = v * coef per channel of (3, q, N) vectors, then each group of
    sites times its factor in a (q, groups) `gate`, in place through a view:
    every vector normalization's arithmetic, in one order. out may be v."""
    np.multiply(v, coef[None, :, None], out=out)
    if gate is not None and out.size:
        sites = out.reshape(out.shape[:2] + gate.shape[1:] + (-1,))
        assert np.shares_memory(sites, out), "the gate would scale a copy"
        sites *= gate[:, :, None]
    return out


def vector_norm_scale_train(v, log_scale, eps: float, gate=None):
    """`vector_scale` by exp(log_scale) / (batch mean site norm + eps) and a
    `gate` if given, in training alone; equivariant, since no direction
    changes. Returns (out, mean_norm). Gradients have the bits of the
    ungated op followed by `mul` by the factors repeated over the sites.

    Backward builds one full-size array, the gradient of v, and works one
    (q, N) coordinate slab at a time beside it. Slab sums add in numpy's
    own order: from +0.0, coordinates 0, 1, 2, each row summed whole."""
    v, log_scale = as_tensor(v), as_tensor(log_scale)
    gate = None if gate is None else as_tensor(gate)
    norms = _site_norms(v.data)  # (q, N)
    mean_norm = norms.mean(axis=1)
    denom = mean_norm + eps
    coef = np.exp(log_scale.data) / denom  # (q,)
    gate_data = None if gate is None else gate.data
    out = vector_scale(v.data, coef, gate_data, np.empty(v.data.shape))
    count = v.data.shape[2]
    v_data, sv, s_log_scale = v.data, v.slot, log_scale.slot
    s_gate = None if gate is None else gate.slot

    def bw(g):
        buf = np.empty(v_data.shape[1:])
        if s_gate is not None:
            sites = (3,) + gate_data.shape + (count // gate_data.shape[1],)
            if s_gate.requires_grad:
                g_gate = np.zeros(buf.shape)  # the ungated output times g, summed over axis 0
                for vi, gi in zip(v_data, g):
                    np.multiply(vi, coef[:, None], out=buf)
                    buf *= gi
                    g_gate += buf
                _accumulate(s_gate, g_gate.reshape(sites[1:]).sum(axis=-1))
                del g_gate
            g = np.multiply(g.reshape(sites), gate_data[:, :, None]).reshape(v_data.shape)
        a = np.zeros(coef.shape)  # (q,) inner product with the output direction
        for vi, gi in zip(v_data, g):
            a += np.multiply(gi, vi, out=buf).sum(axis=1)
        _accumulate(s_log_scale, a * coef)
        # a gated g is ours, so it becomes the gradient of v in place
        gv = np.multiply(g, coef[None, :, None], out=None if s_gate is None else g)
        through_mean = (a * coef / denom / count)[:, None]  # the mean norm depends on v
        safe = np.where(norms > 0, norms, 1.0)
        for vi, gvi in zip(v_data, gv):
            np.divide(vi, safe, out=buf)
            buf *= through_mean
            gvi -= buf
        _accumulate(sv, gv)

    return _make(out, (v, log_scale) + (() if gate is None else (gate,)), bw), mean_norm


# ---------------------------------------------------------------------------
# loss


def cross_entropy_logits(logits, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over a batch; logits (C, B), labels (B,)."""
    logits = as_tensor(logits)
    z = logits.data
    labels = np.asarray(labels, dtype=np.intp)
    if z.ndim != 2 or labels.shape != (z.shape[1],):
        raise ParameterError(f"logits {z.shape} incompatible with labels {labels.shape}")
    zmax = z.max(axis=0, keepdims=True)
    ez = np.exp(z - zmax)
    log_probs = (z - zmax) - np.log(ez.sum(axis=0, keepdims=True))
    batch = z.shape[1]
    loss = -log_probs[labels, np.arange(batch)].mean()
    softmax = ez / ez.sum(axis=0, keepdims=True)
    s_logits = logits.slot

    def bw(g):
        gz = softmax.copy()
        gz[labels, np.arange(batch)] -= 1.0
        _accumulate(s_logits, g * gz / batch)

    return _make(np.float64(loss), (logits,), bw)


# ---------------------------------------------------------------------------
# parameters and optimization


class ParamStore:
    """Named parameter tensors plus Adam state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self.params:
            raise ParameterError(f"duplicate parameter name {name!r}")
        self.params[name] = tensor
        return tensor

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def reset_optimizer(self) -> None:
        self.moment1.clear()
        self.moment2.clear()
        self.step_count = 0

    def items(self):
        return self.params.items()


def adam_step(store: ParamStore, lr: float = 1e-3) -> None:
    """One bias-corrected Adam update over every parameter in the store.

    Gradients are the .grad fields populated by Tape.backward; a
    parameter with no gradient contributes a zero gradient.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    store.step_count += 1
    t = store.step_count
    for name, p in store.params.items():
        g = np.zeros_like(p.data) if p.grad is None else np.asarray(p.grad, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ParameterError(
                f"gradient shape {g.shape} does not match parameter {name!r} {p.data.shape}"
            )
        if name not in store.moment1:  # a parameter's first step
            store.moment1[name] = np.zeros_like(p.data)
            store.moment2[name] = np.zeros_like(p.data)
        m, v = store.moment1[name], store.moment2[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def lr_schedule(epoch: int, total: int, base_lr: float) -> float:
    """Cosine annealing from base_lr toward 0 over `total` epochs."""
    if epoch > total:
        raise ParameterError(f"epoch {epoch} past schedule total {total}")
    return base_lr * (1.0 + math.cos(math.pi * epoch / total)) / 2.0
