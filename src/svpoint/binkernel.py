"""XNOR-popcount linear algebra for the fully binarized scalar layers.

The kernel sits below `svcore`, whose `scalar_linear` runs a `binary_full`
layer as `linear`, in training and in eval alike. It packs the booleans
`x - beta >= 0` and `W >= 0`, `sign`'s own predicate, straight into bits,
multiplies them by XOR and popcount, and writes no float ±1 matrix; under
a tape it keeps bits for a straight-through backward. `binary_linear_full`
checks it against a float ±1 product by `sign`, which gives the same bits,
since ±1 dot products are exact integers either way.

`bitpack` takes boolean matrices only, one bit per element (True means +1),
little-endian within each 64-bit word, rows padded with zero bits, which
never differ between two rows and so drop out of every dot product. A
layer's sites are the columns of its (in, N) activations, so `bitpack`
packs the transpose of its input, by 8×8 bit-block transposes. The GEMM
tiles the right operand's rows (the layer's sites) by `GEMM_BLOCK` and
hands each tile to the caller's finish; it builds no whole product.
Within a tile it takes one word at a time: XOR into a reused uint64
buffer, popcount into a reused uint8 buffer, double it in place, and
subtract it from the int64 tile, which the first word sets to
`cols - 2·popcount`. The layer finishes each tile while it is in cache
(γ, then an optional in-place step such as eval's normalization) and
writes it into its float64 output, so no temporary grows with the
product's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ParameterError

WORD_BITS = 64
# right-operand rows (sites) per tile: the XOR and popcount buffers are
# (left rows, GEMM_BLOCK), reused across tiles and words
GEMM_BLOCK = 4096


def sign(x: np.ndarray) -> np.ndarray:
    """Elementwise two-valued sign: +1 for x >= 0, -1 otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ParameterError("sign of NaN is undefined")
    return np.where(x >= 0, 1.0, -1.0)


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
    """Pack a 2-d boolean matrix (True means +1) row-major; padding bits
    are forced to zero.

    Packing runs on m = signs.T, C-ordered when signs is a layer's
    (sites, in) view of its activations, whose bytewise copy into C order
    took 45 ms at 256 × 32768 on 2 vCPUs. m's rows are packed along their
    contiguous axis, the bytes of 8 rows at one byte column gather into a
    word, and each word's 8×8 bit block is transposed in place
    (transpose8, Hacker's Delight section 7-3): 5 ms.
    """
    signs = np.asarray(signs)
    if signs.ndim != 2 or signs.dtype != np.bool_:
        raise ParameterError(f"bitpack packs 2-d booleans, not {signs.dtype}{signs.shape}")
    rows, cols = signs.shape
    kb, nb = -(-cols // 8), -(-rows // 8)  # whole bytes along each axis
    m = np.zeros((8 * kb, 8 * nb), dtype=np.bool_)
    m[:cols, :rows] = signs.T
    # word (g, j) holds byte j of m's rows 8g..8g + 7, one row per byte
    row_bytes = np.packbits(m, axis=1, bitorder="little").reshape(kb, 8, nb)
    blocks = np.ascontiguousarray(row_bytes.transpose(0, 2, 1)).view("<u8")
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0xF0F0F0F0)):
        t = ((blocks >> np.uint64(shift)) ^ blocks) & np.uint64(mask)
        blocks ^= t ^ (t << np.uint64(shift))
    # byte c of word (g, j) now holds the bits 8g..8g + 7 of signs' row 8j + c
    words = np.zeros((rows, -(-cols // WORD_BITS) * 8), dtype=np.uint8)
    words[:, :kb] = blocks.view(np.uint8).reshape(kb, 8 * nb).T[:rows]
    return PackedSignMatrix(rows=rows, cols=cols,
                            words=words.view("<u8").astype(np.uint64, copy=False))


def xnor_popcount_gemm(a: PackedSignMatrix, b: PackedSignMatrix, finish) -> None:
    """All-pairs ±1 dot products via XOR and popcount, one tile at a time.

    Both operands pack the shared reduction axis, so for a logical
    product (m×n)·(n×p) the right operand is packed from its transpose.
    Entry [i, j] = n - 2*popcount(XOR(row_i(a), row_j(b))), which equals
    2*popcount(XNOR) - n, the exact integer dot product of the two ±1
    rows: the zero padding bits never differ. The right operand's rows
    are taken `GEMM_BLOCK` at a time, one word at a time.

    No product array is built: finish(counts, lo, hi) is called on each
    tile in order, whose int64 (a.rows, hi - lo) counts are those of
    right rows lo:hi, in a buffer the next tile reuses.
    """
    if a.cols != b.cols:
        raise ParameterError(f"inner dimensions differ: {a.cols} vs {b.cols}")
    n = np.int64(a.cols)
    tile = min(GEMM_BLOCK, b.rows)
    counts = np.empty((a.rows, tile), dtype=np.int64)
    xor = np.empty((a.rows, tile), dtype=np.uint64)
    twice = np.empty((a.rows, tile), dtype=np.uint8)
    b_words = np.ascontiguousarray(b.words.T)  # (words, b.rows): each word's sites contiguous
    for lo in range(0, b.rows, GEMM_BLOCK):
        hi = min(lo + GEMM_BLOCK, b.rows)
        acc = counts[:, :hi - lo]
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
        finish(acc, lo, hi)


def _operands(x, params):
    """A binary_full layer's checked operands: x (in, N), W (in, out), beta, gamma."""
    x, w = ad.as_tensor(x).data, ad.as_tensor(params.weight).data
    if params.mode != "binary_full":
        raise ParameterError(f"a binary_full layer is needed, got mode {params.mode!r}")
    if x.ndim != 2 or w.ndim != 2 or x.shape[0] != w.shape[0]:
        raise ParameterError(f"shape mismatch: x {x.shape} vs weight {w.shape}")
    beta, gamma = ad.as_tensor(params.beta).data, ad.as_tensor(params.gamma).data
    if beta.shape != (x.shape[0],) or gamma.shape != (w.shape[1],):
        raise ParameterError("beta must be per input channel, gamma per output channel")
    return x, w, beta, gamma


def linear(x, params, finish=None) -> ad.Tensor:
    """A binary_full layer, y = gamma * (Sign(W)^T . Sign(x - beta)), on
    packed bits, with straight-through gradients through both signs.

    x is (in_dim, N) with sites along columns. W's signs are their own
    `ad.sign_ste` node; the booleans x - beta >= 0 (`sign`'s predicate, so
    -0.0 and 0 count as +1) and W's signs are packed and multiplied by one
    `xnor_popcount_gemm` call. Each tile of sites is copied into the
    float64 (out_dim, N) output while it is in cache, its NaN lines filled
    (a NaN in x - beta fills its site's column, a NaN in W its output
    channel's row), scaled by gamma, and then passed to `finish(tile)`, an
    optional in-place step such as eval's normalization.

    Under a tape the node keeps bits, not floats: the booleans, the clip
    band, the products as int32 (written by the same tile pass; exact,
    since |product| <= in_dim) and, only where x - beta holds a NaN, its
    NaN positions. Backward rebuilds the float ±1 activations as a
    temporary, sums γ's and β's gradients one tile of rows at a time (each
    row whole) and multiplies the band into x's gradient in place; its
    ufuncs are those of the chain sub -> sign_ste ->
    transpose -> matmul -> mul, in its order, so every gradient carries
    that chain's bits. Outside a tape the layer keeps nothing.
    """
    _operands(x, params)
    x, beta, gamma = (ad.as_tensor(t) for t in (x, params.beta, params.gamma))
    w_signs = ad.sign_ste(params.weight)
    parents = (x, beta, w_signs, gamma)
    records = ad.recording() and any(p.requires_grad for p in parents)
    ws = w_signs.data
    d = x.data - beta.data[:, None]
    nan = np.isnan(d) if np.isnan(d.min(initial=0.0)) else None  # min propagates NaN
    nan_sites = None if nan is None else nan.any(axis=0)
    nan_outs = np.isnan(ws).any(axis=0)
    # sign's predicate, so -0.0 and d = 0 count as +1; C order, as backward rebuilds it
    pos = np.greater_equal(d, 0.0, out=np.empty(d.shape, dtype=np.bool_))
    band = ad.ste_band(d) if records else None
    del d  # freed before the output, which is larger
    sites = bitpack(pos.T)
    out = np.empty((ws.shape[1], x.data.shape[1]))
    counts = np.empty(out.shape, dtype=np.int32) if records else None
    scale = gamma.data[:, None]

    def tile(acc, lo, hi):
        y = out[:, lo:hi]
        np.copyto(y, acc)
        if records:
            counts[:, lo:hi] = acc
        if nan_sites is not None:
            y[:, nan_sites[lo:hi]] = np.nan
        y[nan_outs] = np.nan
        y *= scale
        if finish:
            finish(y)

    xnor_popcount_gemm(bitpack(ws.T >= 0), sites, tile)
    if not records:
        return ad.Tensor(out)
    sx, s_beta, s_w, s_gamma = (p.slot for p in parents)
    gamma_data, n_sites = gamma.data, out.shape[1]

    def signs() -> np.ndarray:
        # C order, the layout matmul gives its right operand
        xs = pos.astype(np.float64)
        xs *= 2
        xs -= 1
        if nan is not None:
            xs[nan] = np.nan
        return xs

    def tile_buffers(p):  # the γ and β sums run over `ad.row_tiles`, in one buffer
        rows, tiles = ad.row_tiles(p, n_sites)
        buf = np.empty((rows, n_sites))
        return ((t, buf[:t.stop - t.start]) for t in tiles)

    def bw(g):
        g_prod = g * gamma_data[:, None]
        if s_gamma.requires_grad:
            g_gamma = np.empty(gamma_data.shape)
            for t, prod in tile_buffers(len(g_gamma)):
                np.copyto(prod, counts[t])
                if nan is not None:  # a NaN activation fills its site's column
                    prod[:, nan_sites] = np.nan
                prod[nan_outs[t]] = np.nan  # a NaN weight its output's row
                g_gamma[t] = np.multiply(g[t], prod, out=prod).sum(axis=1)
            ad._accumulate(s_gamma, g_gamma)
        if s_w.requires_grad:
            ad._accumulate(s_w, np.transpose(g_prod @ signs().T))
        if sx.requires_grad or s_beta.requires_grad:
            gx = ws @ g_prod
            del g_prod
            gx *= band
            ad._accumulate(sx, gx)
            if s_beta.requires_grad:
                g_beta = np.empty(len(gx))
                for t, neg in tile_buffers(len(g_beta)):
                    g_beta[t] = np.negative(gx[t], out=neg).sum(axis=1)
                ad._accumulate(s_beta, g_beta)

    return ad._make(out, parents, bw)


def binary_linear_full(x: np.ndarray, params, use_packed: bool = True) -> np.ndarray:
    """Fully binarized linear layer: y = gamma * (Sign(x - beta) . Sign(W)).

    x is (in_dim, N) with sites along columns; `params` is a binary_full
    `svcore.LinearParams` whose W is (in_dim, out_dim), whose beta shifts
    input channels and whose gamma scales output channels. The packed
    route is `linear`, for a forward that records nothing; the float route
    multiplies the ±1 matrices in float64, an independent computation that
    gives the same bits, since ±1 dot products are exact integers either
    way. NaN has no sign, so an input that holds one raises on either
    route.
    """
    x, w, beta, gamma = _operands(x, params)
    if not use_packed:
        out = sign(w).T @ sign(x - beta[:, None])
        out *= gamma[:, None]
        return out
    out = linear(x, params).data
    # a NaN input fills a whole row or column, so row 0 and column 0 show it
    if out.size and (np.isnan(out[0]).any() or np.isnan(out[:, 0]).any()):
        raise ParameterError("sign of NaN is undefined")
    return out
