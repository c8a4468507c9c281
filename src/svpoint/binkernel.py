"""XNOR-popcount linear algebra for the fully binarized scalar layers.

The kernel sits above `svcore`: it takes `sign` from `autodiff`, and its
float route is the model's own layer, `svcore.scalar_linear`. The packed
route works on plain float64/uint64 numpy arrays. Sign matrices are
packed one bit per element (bit set means +1), little-endian within each
64-bit word, rows padded with zero bits, which never differ between two
rows and so drop out of every dot product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import sign
from .errors import ParameterError
from .svcore import scalar_linear

WORD_BITS = 64
GEMM_BLOCK = 512  # left-operand rows per step, bounding the XNOR temporary


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
    """Pack a ±1 matrix row-major; padding bits are forced to zero."""
    signs = np.asarray(signs, dtype=np.float64)
    if signs.ndim != 2:
        raise ParameterError("bitpack expects a 2-d matrix")
    if not np.isin(signs, (-1.0, 1.0)).all():
        raise ParameterError("bitpack input must contain only +1 and -1")
    rows, cols = signs.shape
    # C order required: the packed bytes are reinterpreted as words row-wise
    bits = np.ascontiguousarray(signs > 0, dtype=np.uint8)
    pad = (-cols) % WORD_BITS
    if pad:
        bits = np.concatenate([bits, np.zeros((rows, pad), dtype=np.uint8)], axis=1)
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = packed.view("<u8").astype(np.uint64, copy=False)
    return PackedSignMatrix(rows=rows, cols=cols, words=np.ascontiguousarray(words))


def xnor_popcount_gemm(a: PackedSignMatrix, b: PackedSignMatrix) -> np.ndarray:
    """All-pairs ±1 dot products via XOR and popcount.

    Both operands pack the shared reduction axis, so for a logical
    product (m×n)·(n×p) the right operand is packed from its transpose.
    Entry [i, j] = n - 2*popcount(XOR(row_i(a), row_j(b))), which equals
    2*popcount(XNOR) - n, the exact integer dot product of the two ±1
    rows: the zero padding bits never differ.
    """
    if a.cols != b.cols:
        raise ParameterError(f"inner dimensions differ: {a.cols} vs {b.cols}")
    out = np.empty((a.rows, b.rows), dtype=np.int64)
    n = np.int64(a.cols)
    for lo in range(0, a.rows, GEMM_BLOCK):
        hi = min(lo + GEMM_BLOCK, a.rows)
        x = np.bitwise_xor(a.words[lo:hi, None, :], b.words[None, :, :])
        out[lo:hi] = n - 2 * np.bitwise_count(x).sum(axis=-1, dtype=np.int64)
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
        sx = sign(x - beta[:, None])  # rejects NaN
        return gamma[:, None] * xnor_popcount_gemm(bitpack(sign(w).T), bitpack(sx.T))
    out = scalar_linear(x, params).data  # lets NaN through: NaN in x - beta fills its column
    if np.isnan(out).any():
        raise ParameterError("sign of NaN is undefined: the layer output holds NaN")
    return out

