"""Binarization primitives and XNOR-popcount linear algebra.

Everything here works on plain float64/uint64 numpy arrays; the
differentiable wrappers live one layer up. Sign matrices are packed one
bit per element (bit set means +1), little-endian within each 64-bit
word, rows padded with zero bits that are masked out of every dot
product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

WORD_BITS = 64
STE_CLIP = 1.2  # the straight-through gradient passes for |x| < STE_CLIP


def _arr(v) -> np.ndarray:
    # accept raw arrays or Tensor-like objects with a .data field
    return np.asarray(getattr(v, "data", v), dtype=np.float64)


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


def bitunpack(packed: PackedSignMatrix) -> np.ndarray:
    """Inverse of bitpack: recover the float ±1 matrix."""
    raw = packed.words.astype("<u8", copy=False).view(np.uint8)
    bits = np.unpackbits(raw.reshape(packed.rows, -1), axis=1, bitorder="little")
    return bits[:, : packed.cols].astype(np.float64) * 2.0 - 1.0


def _tail_mask(cols: int, n_words: int) -> np.ndarray:
    mask = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    rem = cols % WORD_BITS
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def xnor_popcount_gemm(
    a: PackedSignMatrix, b: PackedSignMatrix, block: int = 512
) -> np.ndarray:
    """All-pairs ±1 dot products via XNOR and popcount.

    Both operands pack the shared reduction axis, so for a logical
    product (m×n)·(n×p) the right operand is packed from its transpose.
    Entry [i, j] = 2*popcount(XNOR(row_i(a), row_j(b))) - n, which equals
    the exact integer dot product of the two ±1 rows.
    """
    if a.cols != b.cols:
        raise ParameterError(f"inner dimensions differ: {a.cols} vs {b.cols}")
    mask = _tail_mask(a.cols, a.words.shape[1])
    out = np.empty((a.rows, b.rows), dtype=np.int64)
    n = np.int64(a.cols)
    for lo in range(0, a.rows, block):
        hi = min(lo + block, a.rows)
        x = np.bitwise_xor(a.words[lo:hi, None, :], b.words[None, :, :])
        np.invert(x, out=x)
        np.bitwise_and(x, mask, out=x)
        counts = np.bitwise_count(x).sum(axis=-1, dtype=np.int64)
        out[lo:hi] = 2 * counts - n
    return out


def binary_linear_full(x: np.ndarray, params, use_packed: bool = True) -> np.ndarray:
    """Fully binarized linear layer: y = gamma * (Sign(x - beta) . Sign(W)).

    x is (in_dim, N) with sites along columns; W is (in_dim, out_dim);
    beta shifts input channels, gamma scales output channels. The packed
    XNOR route and the unpacked float route produce bit-identical output.
    """
    x = np.asarray(x, dtype=np.float64)
    w = _arr(params.weight)
    mode = getattr(params, "mode", "binary_full")
    if mode != "binary_full":
        raise ParameterError(f"binary_linear_full needs mode binary_full, got {mode!r}")
    if x.ndim != 2 or w.ndim != 2 or x.shape[0] != w.shape[0]:
        raise ParameterError(f"shape mismatch: x {x.shape} vs weight {w.shape}")
    beta = params.beta
    beta = np.zeros(x.shape[0]) if beta is None else _arr(beta)
    gamma = params.gamma
    gamma = np.ones(w.shape[1]) if gamma is None else _arr(gamma)
    if beta.shape != (x.shape[0],) or gamma.shape != (w.shape[1],):
        raise ParameterError("beta must be per input channel, gamma per output channel")
    sx = sign(x - beta[:, None])
    sw = sign(w)
    if use_packed:
        prod = xnor_popcount_gemm(bitpack(sw.T), bitpack(sx.T)).astype(np.float64)
        return gamma[:, None] * prod
    # ±1 dot products are small integers, so the float path is exact too
    return gamma[:, None] * (sw.T @ sx)


def bench_gemm(n: int, trials: int, seed: int = 0) -> list[dict]:
    """Time the packed XNOR kernel against a dense float matmul and a
    sign-weight product (sign matrix times real input) at size n.

    Returns one record per kernel: {kernel, n, trials, ns_per_op}, where
    an op is one n*n*n GEMM.
    """
    if n < 1 or trials < 1:
        raise ParameterError("n and trials must be positive")
    rng = np.random.default_rng(seed)
    a = sign(rng.standard_normal((n, n)))
    b = sign(rng.standard_normal((n, n)))
    pa, pb = bitpack(a), bitpack(b.T)
    x = rng.standard_normal((n, n))

    def clock(fn) -> float:
        fn()  # warm up
        t0 = time.perf_counter()
        for _ in range(trials):
            fn()
        return (time.perf_counter() - t0) / trials * 1e9

    return [
        {"kernel": "xnor_packed", "n": n, "trials": trials,
         "ns_per_op": clock(lambda: xnor_popcount_gemm(pa, pb))},
        {"kernel": "float_matmul", "n": n, "trials": trials,
         "ns_per_op": clock(lambda: a @ b)},
        {"kernel": "signadd", "n": n, "trials": trials,
         "ns_per_op": clock(lambda: a @ x)},
    ]
