"""XNOR-popcount linear algebra for the fully binarized scalar layers.

The kernel sits above `svcore`: its float route is the model's own layer,
`svcore.scalar_linear`, and it re-exports `autodiff.sign` for callers that
binarize by hand. The packed route works on plain float64/uint64 numpy
arrays. Sign matrices are packed one bit per element (bit set means +1),
little-endian within each 64-bit word, rows padded with zero bits, which
never differ between two rows and so drop out of every dot product.

The packed layer writes no float ±1 matrix: it packs the booleans
`x - beta >= 0` and `W >= 0`, `sign`'s own predicate, straight into bits.
The GEMM tiles the right operand's rows (the layer's sites) by
`GEMM_BLOCK`. Within a tile it takes one word at a time: XOR into a
reused uint64 buffer, popcount into a reused uint8 buffer, double it in
place, and subtract it from the int64 output slice, which the first word
sets to `cols - 2·popcount`. No temporary grows with the product's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import sign  # noqa: F401  (re-exported as binkernel.sign)
from .errors import ParameterError
from .svcore import scalar_linear

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


def xnor_popcount_gemm(a: PackedSignMatrix, b: PackedSignMatrix) -> np.ndarray:
    """All-pairs ±1 dot products via XOR and popcount.

    Both operands pack the shared reduction axis, so for a logical
    product (m×n)·(n×p) the right operand is packed from its transpose.
    Entry [i, j] = n - 2*popcount(XOR(row_i(a), row_j(b))), which equals
    2*popcount(XNOR) - n, the exact integer dot product of the two ±1
    rows: the zero padding bits never differ. The right operand's rows
    are taken `GEMM_BLOCK` at a time, one word at a time.
    """
    if a.cols != b.cols:
        raise ParameterError(f"inner dimensions differ: {a.cols} vs {b.cols}")
    if not a.words.shape[1]:  # no columns: every dot product is empty
        return np.zeros((a.rows, b.rows), dtype=np.int64)
    n = np.int64(a.cols)
    out = np.empty((a.rows, b.rows), dtype=np.int64)
    tile = min(GEMM_BLOCK, b.rows)
    xor = np.empty((a.rows, tile), dtype=np.uint64)
    twice = np.empty((a.rows, tile), dtype=np.uint8)
    b_words = np.ascontiguousarray(b.words.T)  # (words, b.rows): each word's sites contiguous
    for lo in range(0, b.rows, GEMM_BLOCK):
        hi = min(lo + GEMM_BLOCK, b.rows)
        acc, x, c = out[:, lo:hi], xor[:, :hi - lo], twice[:, :hi - lo]
        for w in range(a.words.shape[1]):
            np.bitwise_xor(a.words[:, w, None], b_words[w, lo:hi], out=x)
            np.bitwise_count(x, out=c)
            c <<= 1  # 2·popcount of one word is at most 128, so it stays a byte
            if w:
                acc -= c
            else:
                np.subtract(n, c, out=acc, dtype=np.int64)
    return out


def binary_linear_full(x: np.ndarray, params, use_packed: bool = True) -> np.ndarray:
    """Fully binarized linear layer: y = gamma * (Sign(x - beta) . Sign(W)).

    x is (in_dim, N) with sites along columns; `params` is a binary_full
    `svcore.LinearParams` whose W is (in_dim, out_dim), whose beta shifts
    input channels and whose gamma scales output channels. The packed
    XNOR route gives the same bits as the float route, which is the
    model's own layer, `svcore.scalar_linear`: ±1 dot products are exact
    integers either way.
    """
    x = np.asarray(x, dtype=np.float64)
    w = _arr(params.weight)
    if params.mode != "binary_full":
        raise ParameterError(f"binary_linear_full needs mode binary_full, got {params.mode!r}")
    if x.ndim != 2 or w.ndim != 2 or x.shape[0] != w.shape[0]:
        raise ParameterError(f"shape mismatch: x {x.shape} vs weight {w.shape}")
    beta, gamma = _arr(params.beta), _arr(params.gamma)
    if beta.shape != (x.shape[0],) or gamma.shape != (w.shape[1],):
        raise ParameterError("beta must be per input channel, gamma per output channel")
    if use_packed:
        d = x - beta[:, None]
        if np.isnan(d).any() or np.isnan(w).any():
            raise ParameterError("sign of NaN is undefined")
        # `sign`'s predicate d >= 0, so -0.0 and d = 0 pack as +1
        sites = bitpack(d.T >= 0)
        del d  # freed before the product, which is larger
        return gamma[:, None] * xnor_popcount_gemm(bitpack(w.T >= 0), sites)
    out = scalar_linear(x, params).data  # lets NaN through: NaN in x - beta fills its column
    if np.isnan(out).any():
        raise ParameterError("sign of NaN is undefined: the layer output holds NaN")
    return out

