"""Reverse-mode differentiation over the small op set the network needs.

Tensors wrap float64 numpy arrays. Recording happens only inside a Tape
context; outside of one, ops run as plain numpy with no graph overhead.
Backward traverses the recorded forward order reversed, accumulates
gradients additively at fan-out points, and frees each node's gradient
as soon as it is consumed, so a tape sweeps once.
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


def sorted_coord_sum(arr: np.ndarray, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Sum `arr` along an axis of length 3, insensitive to axis order.

    A three-element min/median/max network (cheaper than a generic sort)
    fixes the addition order by value, so any permutation of the three
    summands produces the same bits. The network needs two temporaries
    beside `out` (allocated when None, and not overlapping `arr`).
    """
    if arr.shape[axis] != 3:
        raise ParameterError(f"coordinate axis must have length 3, got {arr.shape[axis]}")
    a, b, c = np.moveaxis(arr, axis, 0)
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
        self.nodes: list[Tensor] = []
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
        requires_grad, parameters included. Each recorded node lets go of
        its gradient and its backward closure (with the arrays that
        closure saved) as soon as the sweep passes it, so a tape sweeps
        once; node data stays.
        """
        if self.swept:
            raise StateError("backward already ran on this tape; record a new forward")
        if not self.nodes:
            raise StateError("backward on a tape with no recorded forward")
        if loss._grad_fn is None and not loss.requires_grad:
            raise StateError("loss tensor was not recorded on this tape")
        self.swept = True
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            grad, grad_fn = node.grad, node._grad_fn
            node.grad = node._grad_fn = None
            if grad is not None and grad_fn is not None:
                grad_fn(grad)


def recording() -> bool:
    """Whether a Tape is active, so that ops on parameters record."""
    return bool(_ACTIVE_TAPES)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _make(data: np.ndarray, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    tape = _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None
    out = Tensor(data)
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._grad_fn = grad_fn
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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bw)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def bw(g):
        _accumulate(x, g * (x.data > 0))  # subgradient 0 at the kink

    return _make(out, (x,), bw)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.data))

    def bw(g):
        _accumulate(x, g * s * (1.0 - s))

    return _make(s, (x,), bw)


STE_CLIP = 1.2  # the straight-through gradient passes for |x| < STE_CLIP


def sign(x: np.ndarray) -> np.ndarray:
    """Elementwise two-valued sign: +1 for x >= 0, -1 otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ParameterError("sign of NaN is undefined")
    return np.where(x >= 0, 1.0, -1.0)


def ste_backward(grad_out: np.ndarray, x_saved: np.ndarray) -> np.ndarray:
    """Straight-through gradient for sign: pass inside the strict clip band, else zero."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    x_saved = np.asarray(x_saved, dtype=np.float64)
    if grad_out.shape != x_saved.shape:
        raise ParameterError(
            f"gradient shape {grad_out.shape} does not match saved input {x_saved.shape}"
        )
    return grad_out * ((x_saved > -STE_CLIP) & (x_saved < STE_CLIP))


def sign_ste(x) -> Tensor:
    """Elementwise Sign with the clipped straight-through backward rule."""
    x = as_tensor(x)
    try:
        out = sign(x.data)
    except ParameterError:  # NaN has no sign: it stays NaN, so the loss shows the divergence
        nan = np.isnan(x.data)
        out = sign(np.where(nan, 0.0, x.data))
        out[nan] = np.nan
    saved = x.data

    def bw(g):
        _accumulate(x, ste_backward(g, saved))

    return _make(out, (x,), bw)


# ---------------------------------------------------------------------------
# shape / reduction primitives


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)
    old = x.data.shape

    def bw(g):
        _accumulate(x, g.reshape(old))

    return _make(out, (x,), bw)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(sl)])

    return _make(out, tuple(parts), bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    # BLAS rounds C and F order differently; C order makes the bits depend on values only
    b_data = np.ascontiguousarray(b.data)
    out = a.data @ b_data

    def bw(g):
        _accumulate(a, g @ b_data.T)
        _accumulate(b, a.data.T @ g)

    return _make(out, (a, b), bw)


def pool_groups(x, size: int, mode: str) -> Tensor:
    """Pool contiguous groups of `size` along the last axis.

    (..., G*size) -> (..., G);  mode 'mean' or 'max'.
    """
    x = as_tensor(x)
    n = x.data.shape[-1]
    if size < 1 or n % size != 0:
        raise ParameterError(f"site count {n} not divisible by group size {size}")
    grouped = x.data.reshape(x.data.shape[:-1] + (n // size, size))
    if mode == "mean":
        out = grouped.mean(axis=-1)

        def bw(g):
            _accumulate(x, np.repeat(g / size, size, axis=-1))

    elif mode == "max":
        arg = grouped.argmax(axis=-1)
        out = np.take_along_axis(grouped, arg[..., None], axis=-1)[..., 0]

        def bw(g):
            gg = np.zeros_like(grouped)
            np.put_along_axis(gg, arg[..., None], g[..., None], axis=-1)
            _accumulate(x, gg.reshape(x.data.shape))

    else:
        raise ParameterError(f"unknown pooling mode {mode!r}")
    return _make(out, (x,), bw)


def expand_groups(x, size: int) -> Tensor:
    """Repeat each entry of the last axis `size` times: (..., G) -> (..., G*size)."""
    x = as_tensor(x)
    out = np.repeat(x.data, size, axis=-1)

    def bw(g):
        _accumulate(x, g.reshape(g.shape[:-1] + (x.data.shape[-1], size)).sum(axis=-1))

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

    def bw(g):
        _accumulate(x, _scatter_sites(g, idx, n_cols))

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

    def bw(g):
        g_diff = g[..., c:, :]
        _accumulate(x, _scatter_sites(g_diff, neigh_idx, n))
        # a - b is a + (-b) exactly, so this equals the unfused center gradient
        _accumulate(x, _scatter_sites(g[..., :c, :] - g_diff, center_idx, n))

    return _make(out, (x,), bw)


def transpose(x) -> Tensor:
    """Reverse the axes; a matrix's transpose."""
    x = as_tensor(x)
    out = np.transpose(x.data)

    def bw(g):
        _accumulate(x, np.transpose(g))

    return _make(out, (x,), bw)


# ---------------------------------------------------------------------------
# vector-feature primitives (coordinate axis first, length 3)


def vector_map_raw(v, w) -> Tensor:
    """Channel-mixing map shared across coordinates: (3,q,N),(q,p) -> (3,p,N)."""
    v, w = as_tensor(v), as_tensor(w)
    if v.data.shape[1] != w.data.shape[0]:
        raise ParameterError(
            f"vector channels {v.data.shape[1]} do not match weight rows {w.data.shape[0]}"
        )
    # one GEMM per coordinate slice, all with the same shape: a signed
    # permutation of the coordinates only moves and negates whole slices,
    # so rotated inputs give bit-identical (rotated) outputs
    out = np.matmul(w.data.T, v.data)

    def bw(g):
        _accumulate(v, np.matmul(w.data, g))
        _accumulate(w, np.matmul(v.data, g.swapaxes(1, 2)).sum(axis=0))  # sum of v[c] @ g[c].T

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

    def bw(g):
        _accumulate(a, np.einsum("aqn,cqn->can", g, b.data))
        _accumulate(b, np.einsum("aqn,can->cqn", g, a.data))

    return _make(out, (a, b), bw)


# ---------------------------------------------------------------------------
# fused normalization
#
# Composing normalization from elementwise primitives works but costs a
# dozen full-size passes per call; these fused forms do the textbook
# backward in a few. Given a statistic (eval's running one), an op uses it
# as is, in the same arithmetic, and holds it fixed in backward.


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


def batch_norm_train(x, gain, bias, eps: float, stats=None):
    """Standardize scalar channels over the site axis with learned affine:
    (x - mean) * (1 / sqrt(var + eps)) * gain + bias.

    `stats`, a (mean, var) pair of (p,) arrays, replaces the batch
    statistics. Returns (out, mean, var), the stats as plain (p,) arrays.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if stats is None:
        mu = x.data.mean(axis=1, keepdims=True)
        xhat = x.data - mu  # centered here, standardized in place below
        out = xhat * xhat
        var = out.mean(axis=1)
    else:
        mu, var = stats[0][:, None], stats[1]
        xhat = x.data - mu
        out = np.empty_like(xhat)
    inv = norm_affine(xhat, var, eps, gain.data, bias.data, out)
    count = x.data.shape[1]

    def bw(g):
        buf = g * xhat
        _accumulate(gain, buf.sum(axis=1))
        _accumulate(bias, g.sum(axis=1))
        gx = g * gain.data[:, None]
        if stats is None:  # the batch statistics depend on x too
            # two full-size buffers; the in-place steps keep the textbook order
            # inv / count * (count * gx - sum(gx) - xhat * sum(gx * xhat))
            sum_gx = gx.sum(axis=1, keepdims=True)
            np.multiply(gx, xhat, out=buf)
            sum_gx_xhat = buf.sum(axis=1, keepdims=True)
            gx *= count
            gx -= sum_gx
            gx -= np.multiply(xhat, sum_gx_xhat, out=buf)
            gx *= inv / count
        else:
            gx *= inv
        _accumulate(x, gx)

    return _make(out, (x, gain, bias), bw), mu[:, 0], var


def vector_norm_scale_train(v, log_scale, eps: float, mean_norm=None):
    """Scale each vector channel by exp(log_scale) / (mean site norm + eps).

    Directions never change, so the op is equivariant. A (q,) `mean_norm`
    replaces the batch's mean site norms. Returns (out, mean_norm).
    """
    v, log_scale = as_tensor(v), as_tensor(log_scale)
    norms = None
    if mean_norm is None:
        norms = _site_norms(v.data)  # (q, N)
        mean_norm = norms.mean(axis=1)
    denom = mean_norm + eps
    coef = np.exp(log_scale.data) / denom  # (q,)
    out = v.data * coef[None, :, None]
    count = v.data.shape[2]

    def bw(g):
        buf = g * v.data
        a = buf.sum(axis=(0, 2))  # (q,) inner product with the output direction
        _accumulate(log_scale, a * coef)
        gv = g * coef[None, :, None]
        if norms is not None:  # the batch mean norm depends on v too
            through_mean = (a * coef / denom / count)[None, :, None]
            safe = np.where(norms > 0, norms, 1.0)[None, :, :]
            np.divide(v.data, safe, out=buf)
            buf *= through_mean
            gv -= buf
        _accumulate(v, gv)

    return _make(out, (v, log_scale), bw), mean_norm


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

    def bw(g):
        gz = softmax.copy()
        gz[labels, np.arange(batch)] -= 1.0
        _accumulate(logits, g * gz / batch)

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
        m = store.moment1.setdefault(name, np.zeros_like(p.data))
        v = store.moment2.setdefault(name, np.zeros_like(p.data))
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
