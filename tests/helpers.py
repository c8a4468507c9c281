"""Helpers the tests share: scalar losses, finite differences, bit
comparisons, reference compositions, the group action.

A scalar loss reduces with primitives the model runs: the flattened output
times a fixed weight column (`ad.matmul`), reshaped to a 0-d tensor.
"""

import tracemalloc
from collections import Counter

import numpy as np

import svpoint.autodiff as ad
import svpoint.binkernel as bk
import svpoint.svcore as sv
from svpoint.svcore import SVFeature


def weighted_sum(x, weights) -> ad.Tensor:
    """sum(x * weights) as a 0-d tensor: a (1, size) by (size, 1) matmul."""
    return ad.reshape(ad.matmul(ad.reshape(x, (1, -1)), np.reshape(weights, (-1, 1))), ())


def total(x) -> ad.Tensor:
    """The sum of every entry of x, as a 0-d tensor: the sums along the
    last axis, then their sum. Each matmul adds fewer terms than one flat
    dot would, so the loss rounds less and FD checks of linear ops stay
    near their floor."""
    rows = ad.reshape(x, (-1, x.shape[-1]))
    row_sums = ad.matmul(rows, np.ones((x.shape[-1], 1)))
    return ad.reshape(ad.matmul(np.ones((1, rows.shape[0])), row_sums), ())


def weighted(op, seed=0):
    """Wrap an array-valued op into a scalar one with fixed random weights,
    drawn from `seed` at the shape of the op's output."""
    cache = {}

    def scalar_op(*inputs):
        out = op(*inputs)
        if "w" not in cache:
            cache["w"] = np.random.default_rng(seed).standard_normal(out.data.shape)
        return weighted_sum(out, cache["w"])

    return scalar_op


def finite_difference_check(op, inputs: list[ad.Tensor], h: float = 1e-6) -> float:
    """Max deviation between tape gradients and central differences.

    `op` maps the input tensors to a scalar Tensor. The deviation is the
    largest elementwise |ad - fd| normalized by the largest gradient
    magnitude seen, so a 1e-4 bound means 4 matching leading digits on
    unit-scale problems.
    """
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    with ad.Tape() as tape:
        loss = op(*inputs)
    tape.backward(loss)
    worst = 0.0
    for t in inputs:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        fd = np.zeros_like(t.data)
        for ix in np.ndindex(*t.data.shape):
            orig = t.data[ix]
            t.data[ix] = orig + h
            hi = float(op(*inputs).data)
            t.data[ix] = orig - h
            lo = float(op(*inputs).data)
            t.data[ix] = orig
            fd[ix] = (hi - lo) / (2 * h)
        scale = max(np.abs(grad).max(initial=0.0), np.abs(fd).max(initial=0.0), 1e-12)
        worst = max(worst, float(np.abs(grad - fd).max(initial=0.0)) / scale)
    return worst


def traced_peak(fn, *args):
    """Run fn(*args) with tracemalloc on. Returns (peak, result): the
    largest traced memory, in bytes, that the call held at once (numpy
    arrays included), and what fn returned."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: tells -0.0 from 0.0 and compares NaNs."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bits_but_nan(a, b) -> bool:
    """NaN at the same positions and equal bytes everywhere else; the sign
    and payload of a NaN may differ."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan])


def _sub(a, b) -> ad.Tensor:
    """a - b as the elementwise primitive the STE chain recorded."""

    def bw(g):
        if a.requires_grad:
            ad._accumulate(a, ad._unbroadcast(g, a.data.shape))
        if b.requires_grad:
            ad._accumulate(b, ad._unbroadcast(-g, b.data.shape))

    return ad._make(a.data - b.data, (a, b), bw)


def _repeat_sites(x, size: int) -> ad.Tensor:
    """Each entry of the last axis `size` times, as the primitive the gate
    chain recorded: (q, groups) -> (q, groups * size)."""

    def bw(g):
        ad._accumulate(x, g.reshape(g.shape[:-1] + (x.data.shape[-1], size)).sum(axis=-1))

    return ad._make(np.repeat(x.data, size, axis=-1), (x,), bw)


def gated_norm_chain(v, log_scale, eps, gate):
    """The gated `vector_norm_scale_train`'s oracle, as a training block
    composed it: the ungated op, then `mul` by the factors repeated over
    each group's sites (and reshaped to (1, q, N)). Returns (out, mean_norm)."""
    v, gate = ad.as_tensor(v), ad.as_tensor(gate)
    (q, groups), n = gate.data.shape, v.data.shape[2]
    out, mean_norm = ad.vector_norm_scale_train(v, log_scale, eps)
    return ad.mul(out, ad.reshape(_repeat_sites(gate, n // groups), (1, q, n))), mean_norm


def vector_norm_textbook(v, log_scale, eps, g):
    """Whole-array forward and backward of the ungated
    `vector_norm_scale_train`: the output, the mean norm and the gradients
    of v and the log-scale, with every temporary full-size."""
    norms = np.sqrt(ad.sorted_coord_sum(v * v))
    mean_norm = norms.mean(axis=1)
    denom = mean_norm + eps
    coef = np.exp(log_scale) / denom
    out = v * coef[None, :, None]
    a = (g * v).sum(axis=(0, 2))
    gv = g * coef[None, :, None]
    safe = np.where(norms > 0, norms, 1.0)[None, :, :]
    gv -= v / safe * (a * coef / denom / v.shape[2])[None, :, None]
    return out, mean_norm, gv, a * coef


def identity_norm(p: int, q: int) -> sv.NormParams:
    """An eval norm that is exactly the identity: running mean 0, running
    variance and mean norm 1 - NORM_EPS, gain 1, bias 0, log-scale 0, so
    that every coefficient is 1.0 and a block's eval output has the bits of
    its layers' outputs."""
    norm = sv.NormParams.create(p, q)
    norm.running_var[...] = norm.running_norm[...] = 1 - sv.NORM_EPS
    return norm


def xnor_product(a, b) -> np.ndarray:
    """The whole int64 product of two packed sign matrices, collected from
    the tiles `bk.xnor_popcount_gemm` passes to its finish."""
    out = np.empty((a.rows, b.rows), dtype=np.int64)

    def finish(counts, lo, hi):
        out[:, lo:hi] = counts

    bk.xnor_popcount_gemm(a, b, finish)
    return out


def ste_chain(x, beta, w_signs, gamma) -> ad.Tensor:
    """A binary_full layer's float oracle, `bk.linear` after W's sign_ste,
    as five nodes: sub, sign_ste, transpose, matmul and mul (with the
    reshapes of beta and gamma)."""
    x, beta, gamma = ad.as_tensor(x), ad.as_tensor(beta), ad.as_tensor(gamma)
    xs = ad.sign_ste(_sub(x, ad.reshape(beta, (-1, 1))))
    out = ad.matmul(ad.transpose(w_signs), xs)
    return ad.mul(out, ad.reshape(gamma, (-1, 1)))


def ste_operands(rng, in_dim, out_dim, n, sites_major, nans):
    """x, beta, W and gamma of a binarized layer with x - beta = 0, -0.0,
    ±STE_CLIP exactly and ±inf, and, given `nans`, a NaN in x - beta and
    one in W; x sites-major (F order) as edge features come, if asked."""
    x = rng.standard_normal((in_dim, n)) * 1.5
    beta = rng.standard_normal(in_dim)
    w = rng.standard_normal((in_dim, out_dim))
    x[:, 0] = beta  # d = 0
    beta[1:3] = 0.0
    x[1, 1::4] = -0.0  # d = -0.0 - 0.0 = -0.0
    x[2, 2::5], x[2, 3::5] = ad.STE_CLIP, -ad.STE_CLIP  # the band's open edges
    x[3, 4], x[3, 5] = np.inf, -np.inf
    w[0, :2] = 0.0, -0.0
    if nans:
        x[4, 6] = np.nan
        w[1, out_dim - 1] = np.nan
    return (np.asfortranarray(x) if sites_major else x), beta, w, rng.standard_normal(out_dim)


def batch_norm_textbook(x, gain, bias, eps, g, stats=None):
    """Whole-array forward and backward of a scalar normalization: the
    output, the stats and the gradients of x, gain and bias. With a
    (mean, var) `stats` pair it is eval's normalization by running
    statistics, held fixed in backward; without, `ad.batch_norm_train`."""
    if stats is None:
        mu = x.mean(axis=1, keepdims=True)
        xhat = x - mu
        var = (xhat * xhat).mean(axis=1)
    else:
        mu, var = stats[0][:, None], stats[1]
        xhat = x - mu
    inv = 1.0 / np.sqrt(var + eps)[:, None]
    xhat = xhat * inv
    out = xhat * gain[:, None] + bias[:, None]
    gx = g * gain[:, None]
    if stats is None:
        count = x.shape[1]
        gx = (gx * count - gx.sum(axis=1, keepdims=True)
              - xhat * (gx * xhat).sum(axis=1, keepdims=True)) * (inv / count)
    else:
        gx = gx * inv
    return out, mu[:, 0], var, gx, (g * xhat).sum(axis=1), g.sum(axis=1)


def _float_linear(x, params, finish=None) -> ad.Tensor:
    out = ste_chain(x, params.beta, ad.sign_ste(params.weight), params.gamma)
    if finish is not None:
        finish(out.data)
    return out


def _textbook_eval_norm(norm):
    stats = (norm.running_mean, norm.running_var)
    gain, bias = ad.as_tensor(norm.scalar_gain).data, ad.as_tensor(norm.scalar_bias).data

    def finish(out):
        y = batch_norm_textbook(out, gain, bias, sv.NORM_EPS, np.zeros_like(out), stats)[0]
        out[...] = np.maximum(y, 0.0)

    return finish


def patch_eval_oracle(monkeypatch) -> None:
    """Turn the untaped eval forward into its float oracle: each
    binary_full layer's `binkernel.linear` becomes `ste_chain` with the
    finish run once on the whole product, and `svcore.eval_norm` the
    textbook running-statistics formula and ReLU, computed out of place and
    written back, so that fp layers face an independent formula too."""
    monkeypatch.setattr(bk, "linear", _float_linear)
    monkeypatch.setattr(sv, "eval_norm", _textbook_eval_norm)


def node_kinds(tape) -> Counter:
    """How many nodes each primitive recorded on a tape not yet swept, by
    the name of the function that made each node's backward closure."""
    return Counter(node._grad_fn.__qualname__.split(".")[0] for node in tape.nodes)


def rotate_vectors(vectors, rot) -> np.ndarray:
    """Rotate a (3, q, N) vector tensor coordinate-wise: V -> R.V."""
    vectors = np.asarray(vectors, dtype=np.float64)
    return np.einsum("ij,jqn->iqn", rot.matrix, vectors)


def rotate_feature(feat: SVFeature, rot) -> SVFeature:
    """The group action on a feature: scalars untouched, vectors rotated."""
    return SVFeature(ad.as_tensor(feat.scalars).data,
                     rotate_vectors(ad.as_tensor(feat.vectors).data, rot))
