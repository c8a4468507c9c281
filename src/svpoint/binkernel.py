"""XNOR-popcount linear algebra for the fully binarized scalar layers.

The kernel sits below `svcore`, whose `scalar_linear` picks one of its two
routes for a `binary_full` layer. The STE route (`ste_linear`) is a float
±1 product on autodiff primitives (`autodiff.ste_matmul`, which keeps
bits, not floats, for its backward): it records on a tape and trains with
straight-through gradients. The packed route (`packed_linear`) runs when
nothing records: it packs the booleans `x - beta >= 0` and `W >= 0`,
`sign`'s own predicate, straight into bits, and writes no float ±1
matrix. Both routes give the same bits, since ±1 dot products are exact
integers either way. `autodiff.sign` is re-exported for callers that
binarize by hand.

Sign matrices are packed one bit per element (bit set means +1),
little-endian within each 64-bit word, rows padded with zero bits, which
never differ between two rows and so drop out of every dot product. The
GEMM tiles the right operand's rows (the layer's sites) by `GEMM_BLOCK`.
Within a tile it takes one word at a time: XOR into a reused uint64
buffer, popcount into a reused uint8 buffer, double it in place, and
subtract it from the int64 tile, which the first word sets to
`cols - 2·popcount`. The packed layer finishes each tile while it is in
cache (γ, then an optional in-place step such as eval's normalization)
and writes it into its float64 output, so no temporary grows with the
product's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import sign  # noqa: F401  (re-exported as binkernel.sign)
from .errors import ParameterError

WORD_BITS = 64
# right-operand rows (sites) per tile: the XOR and popcount buffers are
# (left rows, GEMM_BLOCK), reused across tiles and words
GEMM_BLOCK = 4096


def _arr(v) -> np.ndarray:
    # accept raw arrays or Tensor-like objects with a .data field
    return np.asarray(getattr(v, "data", v), dtype=np.float64)


@dataclass
class PackedSignMatrix:
    """Bit-packed ±1 matrix, one row per logical row, packed along columns."""

    rows: int
    cols: int
    words: np.ndarray  # (rows, ceil(cols/64)) uint64

    def __post_init__(self):
        expect = (self.rows, (self.cols + WORD_BITS - 1) // WORD_BITS)
        if self.words.shape != expect or self.words.dtype != np.uint64:
            raise ParameterError(f"packed words must be uint64 of shape {expect}")
        rem = self.cols % WORD_BITS
        if rem and (self.words[:, -1] >> np.uint64(rem)).any():
            raise ParameterError("padding bits past the last column must be zero")


def bitpack(signs: np.ndarray) -> PackedSignMatrix:
    """Pack a ±1 matrix, or a boolean one (True means +1), row-major;
    padding bits are forced to zero."""
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ParameterError("bitpack expects a 2-d matrix")
    if signs.dtype != np.bool_:
        signs = np.asarray(signs, dtype=np.float64)
        if not np.isin(signs, (-1.0, 1.0)).all():
            raise ParameterError("bitpack input must contain only +1 and -1")
        signs = signs > 0
    rows, cols = signs.shape
    # C order, padded to whole words: the packed bytes are reinterpreted as words row-wise
    bits = np.empty((rows, cols + (-cols) % WORD_BITS), dtype=np.bool_)
    bits[:, :cols] = signs
    bits[:, cols:] = False
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = packed.view("<u8").astype(np.uint64, copy=False)
    return PackedSignMatrix(rows=rows, cols=cols, words=words)


def xnor_popcount_gemm(a: PackedSignMatrix, b: PackedSignMatrix, finish=None):
    """All-pairs ±1 dot products via XOR and popcount.

    Both operands pack the shared reduction axis, so for a logical
    product (m×n)·(n×p) the right operand is packed from its transpose.
    Entry [i, j] = n - 2*popcount(XOR(row_i(a), row_j(b))), which equals
    2*popcount(XNOR) - n, the exact integer dot product of the two ±1
    rows: the zero padding bits never differ. The right operand's rows
    are taken `GEMM_BLOCK` at a time, one word at a time.

    Returns the int64 (a.rows, b.rows) products. Given `finish`, it builds
    no such array and returns None: it calls finish(counts, lo, hi) on
    each tile, whose int64 (a.rows, hi - lo) counts are those of right
    rows lo:hi, in a buffer the next tile reuses.
    """
    if a.cols != b.cols:
        raise ParameterError(f"inner dimensions differ: {a.cols} vs {b.cols}")
    n = np.int64(a.cols)
    tile = min(GEMM_BLOCK, b.rows)
    out = None if finish else np.empty((a.rows, b.rows), dtype=np.int64)
    counts = np.empty((a.rows, tile), dtype=np.int64) if finish else None
    xor = np.empty((a.rows, tile), dtype=np.uint64)
    twice = np.empty((a.rows, tile), dtype=np.uint8)
    b_words = np.ascontiguousarray(b.words.T)  # (words, b.rows): each word's sites contiguous
    for lo in range(0, b.rows, GEMM_BLOCK):
        hi = min(lo + GEMM_BLOCK, b.rows)
        acc = counts[:, :hi - lo] if finish else out[:, lo:hi]
        x, c = xor[:, :hi - lo], twice[:, :hi - lo]
        if not len(b_words):  # no columns: every dot product is empty
            acc.fill(0)
        for w in range(len(b_words)):
            np.bitwise_xor(a.words[:, w, None], b_words[w, lo:hi], out=x)
            np.bitwise_count(x, out=c)
            c <<= 1  # 2·popcount of one word is at most 128, so it stays a byte
            if w:
                acc -= c
            else:
                np.subtract(n, c, out=acc, dtype=np.int64)
        if finish:
            finish(acc, lo, hi)
    return out


def _operands(x, params):
    """A binary_full layer's checked operands: x (in, N), W (in, out), beta, gamma."""
    x = np.asarray(x, dtype=np.float64)
    w = _arr(params.weight)
    if params.mode != "binary_full":
        raise ParameterError(f"a binary_full layer is needed, got mode {params.mode!r}")
    if x.ndim != 2 or w.ndim != 2 or x.shape[0] != w.shape[0]:
        raise ParameterError(f"shape mismatch: x {x.shape} vs weight {w.shape}")
    beta, gamma = _arr(params.beta), _arr(params.gamma)
    if beta.shape != (x.shape[0],) or gamma.shape != (w.shape[1],):
        raise ParameterError("beta must be per input channel, gamma per output channel")
    return x, w, beta, gamma


def _nan_columns(m: np.ndarray) -> np.ndarray:
    """Which columns of a 2-d array hold a NaN: min propagates NaN, and a
    column holding both infinities has a finite minimum."""
    return np.isnan(m.min(axis=0, initial=0.0))


def ste_linear(x, params) -> ad.Tensor:
    """y = gamma * (Sign(x - beta) . Sign(W)) as two autodiff nodes,
    `sign_ste` on W and `ste_matmul`, with straight-through gradients
    through both signs.

    x is (in_dim, N) with sites along columns. A NaN in x - beta keeps no
    sign, so it fills its site's column with NaN; a NaN in W fills its
    output channel's row.
    """
    return ad.ste_matmul(x, params.beta, ad.sign_ste(params.weight), params.gamma)


def packed_linear(x, params, finish=None) -> np.ndarray:
    """`ste_linear`'s bits on packed signs, for a forward that records nothing.

    One `xnor_popcount_gemm` call; each tile of sites is copied into the
    float64 (out_dim, N) output and scaled by gamma there, while it is in
    cache, and then `finish(tile)`, if given, runs in place on it. NaN
    lines come out as on the STE route: a NaN in x - beta fills its
    site's column, a NaN in W its output channel's row, before gamma.
    """
    x, w, beta, gamma = _operands(x, params)
    d = x - beta[:, None]
    nan_sites = _nan_columns(d)
    sites = bitpack(d.T >= 0)  # `sign`'s predicate d >= 0, so -0.0 and d = 0 pack as +1
    del d  # freed before the output, which is larger
    nan_outs = _nan_columns(w)
    any_nan = nan_sites.any() or nan_outs.any()
    out = np.empty((w.shape[1], x.shape[1]))
    scale = gamma[:, None]

    def tile(counts, lo, hi):
        y = out[:, lo:hi]
        np.copyto(y, counts)
        if any_nan:
            y[:, nan_sites[lo:hi]] = np.nan
            y[nan_outs] = np.nan
        y *= scale
        if finish:
            finish(y)

    xnor_popcount_gemm(bitpack(w.T >= 0), sites, tile)
    return out


def binary_linear_full(x: np.ndarray, params, use_packed: bool = True) -> np.ndarray:
    """Fully binarized linear layer: y = gamma * (Sign(x - beta) . Sign(W)).

    x is (in_dim, N) with sites along columns; `params` is a binary_full
    `svcore.LinearParams` whose W is (in_dim, out_dim), whose beta shifts
    input channels and whose gamma scales output channels. The packed
    route is `packed_linear`, the float route `ste_linear`: two
    computations that give the same bits. NaN has no sign, so an input
    that holds one raises on either route.
    """
    x = _operands(x, params)[0]
    out = packed_linear(x, params) if use_packed else ste_linear(x, params).data
    # a NaN input fills a whole row or column, so row 0 and column 0 show it
    if out.size and (np.isnan(out[0]).any() or np.isnan(out[:, 0]).any()):
        raise ParameterError("sign of NaN is undefined")
    return out
