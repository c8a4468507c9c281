"""Binary kernels: sign/STE, bit packing, XNOR GEMM, binarized linears."""

import tracemalloc

import numpy as np
import pytest

from helpers import (same_bits_but_nan, ste_chain, ste_operands, traced_peak, weighted_sum,
                     xnor_product)
from svpoint import autodiff as ad
from svpoint import binkernel as bk
from svpoint.errors import ParameterError
from svpoint.svcore import LinearParams, scalar_linear, vector_mapping


def naive_pm1_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # integer oracle: exact for any +-1 operands
    return (a.astype(np.int64) @ b.T.astype(np.int64))


def packed_pm1_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The XNOR product of two ±1 matrices, packed as their booleans a > 0."""
    return xnor_product(bk.bitpack(a > 0), bk.bitpack(b > 0))


# ---------------------------------------------------------------------------
# sign, and the straight-through band that lives in autodiff beside sign_ste


def test_sign_values():
    x = np.array([0.0, -0.0, -0.3, 1.2, -1e-300, 5.0])
    assert bk.sign(x).tolist() == [1.0, 1.0, -1.0, 1.0, -1.0, 1.0]


def test_sign_nan_rejected():
    with pytest.raises(ParameterError):
        bk.sign(np.array([1.0, np.nan]))


def test_sign_scale_invariant():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40,))
    for c in (0.5, 2.0, 1e6, 1e-6):
        assert np.array_equal(bk.sign(c * x), bk.sign(x))


def test_ste_pointwise():
    # band edges excluded on both sides
    assert ad.ste_band(np.array([0.5, 1.3, -1.2, 1.2])).tolist() == [True, False, False, False]
    assert ad.ste_band(np.array(0.5)) and not ad.ste_band(np.array(-1.2))  # 0-d inputs too


def test_ste_grid_matches_piecewise_definition():
    x = ad.parameter(np.arange(-2.0, 2.0001, 0.01))
    g = np.random.default_rng(1).standard_normal(x.data.shape)
    expect = np.where((x.data > -1.2) & (x.data < 1.2), g, 0.0)
    with ad.Tape() as tape:
        loss = weighted_sum(ad.sign_ste(x), g)
    tape.backward(loss)
    assert np.array_equal(x.grad, expect)


# ---------------------------------------------------------------------------
# packing


def test_bitpack_low_bits():
    packed = bk.bitpack(np.array([[True, True, False, False]]))
    # bit i set iff entry i is True (+1), little-endian within the word
    assert packed.words[0, 0] & np.uint64(0xF) == np.uint64(0b0011)
    assert packed.rows == 1 and packed.cols == 4


def test_bitpack_full_word():
    packed = bk.bitpack(np.ones((1, 64), dtype=bool))
    assert packed.words[0, 0] == np.uint64(0xFFFFFFFFFFFFFFFF)


def test_bitpack_round_trip():
    rng = np.random.default_rng(2)
    for rows in (1, 7, 8, 13, 130):
        for cols in (1, 7, 63, 64, 65, 1000):
            signs = bk.sign(rng.standard_normal((rows, cols)))
            raw = bk.bitpack(signs > 0).words.astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(raw.reshape(rows, -1), axis=1, bitorder="little")
            assert np.array_equal(bits[:, :cols] * 2.0 - 1.0, signs), (rows, cols)


def test_bitpack_padding_zero():
    packed = bk.bitpack(np.ones((2, 65), dtype=bool))
    assert packed.words.shape == (2, 2)
    assert (packed.words[:, 1] == np.uint64(1)).all()  # only bit 64 set


def test_packed_matrix_rejects_set_padding_bits():
    """The kernel counts XOR bits over whole words, so a set padding bit
    would shift a dot product; such words are refused."""
    good = bk.bitpack(np.ones((2, 65), dtype=bool))
    bad = good.words.copy()
    bad[1, 1] |= np.uint64(1 << 5)
    with pytest.raises(ParameterError, match="padding bits"):
        bk.PackedSignMatrix(rows=2, cols=65, words=bad)
    full = bk.bitpack(np.ones((1, 64), dtype=bool))  # no padding: every bit may be set
    assert bk.PackedSignMatrix(rows=1, cols=64, words=full.words).cols == 64


def test_bitpack_bool_matches_pm1():
    """A boolean matrix packs True as +1, one bit per element: the words
    of `np.packbits` on its rows, zero-padded to whole words. A transposed
    (Fortran-ordered) view, which packs by 8×8 bit-block transposes, gives
    the words of a C-ordered copy, for row and column counts on both sides
    of a byte and of a word."""
    rng = np.random.default_rng(12)
    for rows in (1, 7, 8, 13, 130):
        for cols in (1, 7, 63, 64, 65, 1000):
            mask = rng.standard_normal((rows, cols)) >= 0
            got = bk.bitpack(mask)
            assert (got.rows, got.cols) == (rows, cols)
            raw = np.zeros((rows, 8 * got.words.shape[1]), dtype=np.uint8)
            raw[:, :-(-cols // 8)] = np.packbits(mask, axis=1, bitorder="little")
            assert np.array_equal(got.words, raw.view("<u8")), (rows, cols)
            transposed = bk.bitpack(mask.T.copy().T)
            assert np.array_equal(transposed.words, got.words), (rows, cols)


def test_bitpack_bool_padding_zero():
    packed = bk.bitpack(np.ones((3, 65), dtype=bool))
    assert packed.words.shape == (3, 2)
    assert (packed.words[:, 1] == np.uint64(1)).all()  # only bit 64 set
    assert (bk.bitpack(np.zeros((2, 70), dtype=bool)).words == 0).all()


def test_bitpack_rejects_other_values():
    with pytest.raises(ParameterError):
        bk.bitpack(np.array([[1.0, 0.0]]))
    with pytest.raises(ParameterError):
        bk.bitpack(np.array([[1.0, -1.0], [-1.0, 1.0]]))  # ±1 floats: only booleans pack
    with pytest.raises(ParameterError):
        bk.bitpack(np.ones(4))  # 1-d
    with pytest.raises(ParameterError):
        bk.bitpack(np.ones(4, dtype=bool))  # 1-d boolean


# ---------------------------------------------------------------------------
# XNOR GEMM


def test_gemm_hand_cases():
    assert packed_pm1_gemm(np.array([[1.0, 1.0, -1.0, -1.0]]),
                           np.array([[1.0, -1.0, -1.0, 1.0]]))[0, 0] == 0

    row = bk.sign(np.random.default_rng(3).standard_normal((1, 130)))
    assert packed_pm1_gemm(row, row)[0, 0] == 130


def test_gemm_matches_naive_large():
    rng = np.random.default_rng(4)
    a = bk.sign(rng.standard_normal((256, 256)))
    b = bk.sign(rng.standard_normal((256, 256)))
    got = packed_pm1_gemm(a, b)
    assert np.array_equal(got, naive_pm1_gemm(a, b))


def test_gemm_matches_naive_odd_dims():
    rng = np.random.default_rng(5)
    for trial in range(200):
        m = int(rng.integers(1, 20))
        n = int(rng.integers(1, 200))
        p = int(rng.integers(1, 20))
        a = bk.sign(rng.standard_normal((m, n)))
        b = bk.sign(rng.standard_normal((p, n)))
        got = packed_pm1_gemm(a, b)
        assert np.array_equal(got, naive_pm1_gemm(a, b)), f"trial {trial} ({m}x{n}x{p})"


def test_gemm_small_block_path():
    # an operand of more rows than one block spans a full and a partial block:
    # the right operand's rows are tiled, the left operand's are not
    rng = np.random.default_rng(6)
    long = bk.sign(rng.standard_normal((bk.GEMM_BLOCK + 77, 65)))
    short = bk.sign(rng.standard_normal((30, 65)))
    for a, b in ((long, short), (short, long)):
        got = packed_pm1_gemm(a, b)
        assert np.array_equal(got, naive_pm1_gemm(a, b))


def test_gemm_finish_sees_every_tile_once():
    """Each tile's counts reach the finish once, in site order, and equal
    the naive product's columns; an empty inner dimension gives zeros."""
    rng = np.random.default_rng(14)
    for cols in (0, 1, 65):
        a = bk.sign(rng.standard_normal((5, cols)))
        b = bk.sign(rng.standard_normal((2 * bk.GEMM_BLOCK + 17, cols)))
        want = naive_pm1_gemm(a, b)
        seen = []

        def finish(counts, lo, hi):
            assert counts.dtype == np.int64 and counts.shape == (5, hi - lo)
            seen.append((lo, hi))
            assert np.array_equal(counts, want[:, lo:hi])

        assert bk.xnor_popcount_gemm(bk.bitpack(a > 0), bk.bitpack(b > 0), finish) is None
        assert [lo for lo, _ in seen] == list(range(0, b.shape[0], bk.GEMM_BLOCK))
        assert seen[-1][1] == b.shape[0]


def test_gemm_dim_mismatch():
    with pytest.raises(ParameterError):
        bk.xnor_popcount_gemm(bk.bitpack(np.ones((2, 5), dtype=bool)),
                              bk.bitpack(np.ones((2, 6), dtype=bool)), lambda *tile: None)


# ---------------------------------------------------------------------------
# binarized linear layers


def test_binary_full_hand_example():
    params = LinearParams(weight=np.array([[1.0], [-1.0]]), mode="binary_full",
                          beta=np.zeros(2), gamma=np.ones(1))
    x = np.array([[2.0], [-3.0]])
    assert bk.binary_linear_full(x, params)[0, 0] == 2.0


def test_binary_full_gamma_zero():
    rng = np.random.default_rng(7)
    params = LinearParams(weight=rng.standard_normal((6, 4)), mode="binary_full",
                          beta=rng.standard_normal(6), gamma=np.zeros(4))
    assert (bk.binary_linear_full(rng.standard_normal((6, 9)), params) == 0.0).all()


def test_binary_full_matches_sign_multiply_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        params = LinearParams(weight=rng.standard_normal((64, 64)), mode="binary_full",
                              beta=rng.standard_normal(64) * 0.1,
                              gamma=rng.standard_normal(64))
        x = rng.standard_normal((64, 32))
        w = np.asarray(params.weight.data)
        beta = np.asarray(params.beta.data)
        gamma = np.asarray(params.gamma.data)
        oracle = gamma[:, None] * (bk.sign(w).T @ bk.sign(x - beta[:, None]))
        assert np.array_equal(bk.binary_linear_full(x, params), oracle)


def test_binary_full_packed_equals_unpacked():
    rng = np.random.default_rng(9)
    for in_dim, out_dim, n in ((64, 64, 64), (65, 3, 17), (1, 5, 1), (130, 70, 33)):
        params = LinearParams(weight=rng.standard_normal((in_dim, out_dim)),
                              mode="binary_full", beta=rng.standard_normal(in_dim),
                              gamma=rng.standard_normal(out_dim))
        x = rng.standard_normal((in_dim, n))
        assert np.array_equal(
            bk.binary_linear_full(x, params, use_packed=True),
            bk.binary_linear_full(x, params, use_packed=False),
        )


def test_binary_full_packed_equals_scalar_linear_across_tiles():
    """The packed layer, untaped and as `svcore.scalar_linear` runs it in
    training (under a tape), gives the bits of the float ±1 chain at site
    counts on both sides of a tile edge, over one to three words, with
    d = 0, -0.0 and infinite inputs, which all take sign's x >= 0
    predicate."""
    rng = np.random.default_rng(13)
    for n in (bk.GEMM_BLOCK - 1, bk.GEMM_BLOCK, 2 * bk.GEMM_BLOCK + 17):
        for in_dim in (12, 64, 65, 128, 130):
            w = rng.standard_normal((in_dim, 7))
            w[0, :3] = (0.0, -0.0, -1e-300)
            beta = rng.standard_normal(in_dim)
            beta[1] = 0.0
            x = rng.standard_normal((in_dim, n))
            x[:, 0] = beta  # d = 0
            x[1, 1::3] = -0.0  # d = -0.0
            x[2:, 2] = np.inf
            x[2:, 3] = -np.inf
            x[rng.integers(0, in_dim, 50), rng.integers(0, n, 50)] = np.inf
            params = LinearParams(weight=w, mode="binary_full", beta=beta,
                                  gamma=rng.standard_normal(7))
            got = bk.binary_linear_full(x, params, use_packed=True)
            with ad.Tape():
                trained = scalar_linear(ad.parameter(x), params).data
                want = ste_chain(ad.parameter(x), beta, ad.sign_ste(w), params.gamma).data
            assert np.array_equal(got, want), (n, in_dim)
            assert np.array_equal(trained, want), (n, in_dim)


def test_binary_full_mode_and_shape_checks():
    good = LinearParams(weight=np.ones((2, 2)), mode="binary_full",
                        beta=np.zeros(2), gamma=np.ones(2))
    with pytest.raises(ParameterError):
        bk.binary_linear_full(np.ones((3, 4)), good)  # in_dim mismatch
    fp = LinearParams(weight=np.ones((2, 2)))
    with pytest.raises(ParameterError):
        bk.binary_linear_full(np.ones((2, 4)), fp)  # wrong mode
    nan_beta = LinearParams(weight=np.ones((2, 2)), mode="binary_full",
                            beta=np.array([0.0, np.nan]), gamma=np.ones(2))
    for use_packed in (True, False):  # NaN has no sign on either route
        with pytest.raises(ParameterError, match="NaN"):
            bk.binary_linear_full(np.array([[1.0], [np.nan]]), good, use_packed=use_packed)
        with pytest.raises(ParameterError, match="NaN"):
            bk.binary_linear_full(np.ones((2, 3)), nan_beta, use_packed=use_packed)
        nan_weight = LinearParams(weight=np.ones((2, 2)), mode="binary_full",
                                  beta=np.zeros(2), gamma=np.ones(2))
        nan_weight.weight[1, 0] = np.nan  # as a diverging update would leave it
        with pytest.raises(ParameterError, match="NaN"):
            bk.binary_linear_full(np.ones((2, 3)), nan_weight, use_packed=use_packed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_packed_and_ste_routes_fill_the_same_nan_lines():
    """A NaN in x - beta fills its site's column and a NaN in W its output
    channel's row, in the packed layer and in the float ±1 chain alike;
    infinities, 0 and -0.0 have signs and stay finite. A finish runs on the
    filled tile as on any other."""
    rng = np.random.default_rng(15)
    for in_dim, n in ((5, 11), (70, bk.GEMM_BLOCK + 3)):
        w = rng.standard_normal((in_dim, 6))
        w[0, :3] = (np.inf, -np.inf, -0.0)
        w[1, 4] = np.nan
        beta = rng.standard_normal(in_dim)
        x = rng.standard_normal((in_dim, n))
        x[:, 0] = beta  # d = 0
        x[2, 1] = -0.0
        x[0, 2], x[1, 3] = np.inf, -np.inf  # one column holds both infinities
        x[3, 5] = np.nan
        x[1, n - 1] = np.inf
        x[4, 7] = np.nan
        params = LinearParams(weight=w, mode="binary_full", beta=beta,
                              gamma=rng.standard_normal(6))
        packed = bk.linear(x, params).data
        ste = ste_chain(x, beta, ad.sign_ste(w), params.gamma).data
        nan = np.isnan(ste)
        assert np.array_equal(np.isnan(packed), nan)
        assert nan[:, [5, 7]].all() and nan[4].all() and nan.sum() == 2 * 6 + n - 2
        assert not nan[np.ix_([0, 1, 2, 3, 5], [0, 1, 2, 3, n - 1])].any()
        assert np.array_equal(packed, ste, equal_nan=True)
        finished = bk.linear(x, params, lambda tile: np.maximum(tile, 0.0, out=tile)).data
        assert np.array_equal(finished, np.maximum(ste, 0.0), equal_nan=True)
        for use_packed in (True, False):
            with pytest.raises(ParameterError, match="sign of NaN is undefined"):
                bk.binary_linear_full(x, params, use_packed=use_packed)


def test_linear_matches_the_chain_bit_for_bit():
    """The layer gives the output and the x, beta, W and gamma gradients of
    the sub → sign_ste → transpose → matmul → mul chain after W's
    sign_ste, bit for bit and with NaN at the same positions, on ragged
    shapes and sites-major (edge) inputs, with every operand or only one
    of them trained."""
    rng = np.random.default_rng(71)
    for in_dim, out_dim, n, sites_major, nans in ((7, 3, 9, False, False),
                                                  (65, 7, 130, True, False),
                                                  (13, 4, 33, False, True),
                                                  (70, 9, 301, True, True)):
        arrays = ste_operands(rng, in_dim, out_dim, n, sites_major, nans)
        g = rng.standard_normal((out_dim, n))
        for trained in ((0, 1, 2, 3), (0,), (1,), (2,), (3,)):
            results = linear_and_chain(arrays, g, trained)
            case = (in_dim, n, trained)
            for name, a, b in zip(("out", "x", "beta", "w", "gamma"), *results):
                if a is None or b is None:
                    assert a is None and b is None, (case, name)
                else:
                    assert same_bits_but_nan(a, b), (case, name)
            if nans:
                assert np.isnan(results[0][0][:, 6]).all() and np.isnan(results[0][0][-1]).all()


def test_ste_linear_is_the_chain_bit_for_bit():
    """The layer under a tape, the STE route the model trains, gives the
    output and the x, beta, W and gamma gradients of the sub → sign_ste →
    transpose → matmul → mul chain bit for bit, with NaN at the same
    positions, at site counts on both sides of a tile edge and on
    sites-major (edge) inputs."""
    rng = np.random.default_rng(17)
    for in_dim, out_dim, n, sites_major, nans in ((12, 7, bk.GEMM_BLOCK - 1, False, True),
                                                  (130, 64, bk.GEMM_BLOCK + 17, True, False),
                                                  (65, 5, 2 * bk.GEMM_BLOCK + 3, True, True)):
        arrays = ste_operands(rng, in_dim, out_dim, n, sites_major, nans)
        g = rng.standard_normal((out_dim, n))
        results = linear_and_chain(arrays, g, (0, 1, 2, 3))
        for name, a, b in zip(("out", "x", "beta", "w", "gamma"), *results):
            assert same_bits_but_nan(a, b), (in_dim, n, name)


def linear_and_chain(arrays: list, g: np.ndarray, trained: tuple) -> list:
    """The output and operand gradients of `bk.linear` and of the float
    chain on the same (x, beta, W, gamma), with only `trained` as
    parameters, under a weighted-sum loss with weights `g`."""
    results = []
    for packed in (True, False):
        ops = [ad.parameter(a) if i in trained else ad.as_tensor(a)
               for i, a in enumerate(arrays)]
        x, beta, w, gamma = ops
        with ad.Tape() as tape:
            if packed:
                out = bk.linear(x, LinearParams(weight=w, mode="binary_full",
                                                beta=beta, gamma=gamma))
            else:
                out = ste_chain(x, beta, ad.sign_ste(w), gamma)
            loss = weighted_sum(out, g)
        tape.backward(loss)
        results.append([out.data] + [t.grad for t in ops])
    return results


def test_linear_saves_bits_only_under_a_tape():
    """Under a tape the node keeps bools, int32 products, W's signs and its
    output, no float ±1 matrix; outside a tape it keeps nothing but its
    output."""
    rng = np.random.default_rng(72)
    in_dim, out_dim, n = 130, 64, 8192
    x = ad.parameter(rng.standard_normal((in_dim, n)))
    params = LinearParams(weight=rng.standard_normal((in_dim, out_dim)), mode="binary_full",
                          beta=ad.parameter(rng.standard_normal(in_dim)),
                          gamma=ad.parameter(np.ones(out_dim)))
    out_bytes = 8 * out_dim * n
    kept_taped = out_bytes + 2 * in_dim * n + 4 * out_dim * n + 8 * in_dim * out_dim

    def run(taped):
        if taped:
            with ad.Tape():
                out = bk.linear(x, params)
        else:
            out = bk.linear(x, params)
        return out, tracemalloc.get_traced_memory()[0]

    for taped, kept in ((False, out_bytes), (True, kept_taped)):
        _, (out, retained) = traced_peak(run, taped)
        assert (out._grad_fn is not None) == taped
        assert retained <= kept + 64 * 1024, (taped, retained)
        del out


def test_linear_taped_peak():
    """A taped 256→130 forward over 32768 sites peaks under 96 MiB of
    traced memory: x - beta, the booleans and the packed bits, then the
    output and its int32 counts, with no float ±1 activations or product
    beside them (the float ±1 product peaked at 112.8 MiB)."""
    rng = np.random.default_rng(19)
    in_dim, out_dim, n = 256, 130, 32768
    x = ad.parameter(rng.standard_normal((in_dim, n)))
    params = LinearParams(weight=ad.parameter(rng.standard_normal((in_dim, out_dim))),
                          mode="binary_full", beta=ad.parameter(rng.standard_normal(in_dim)),
                          gamma=ad.parameter(rng.standard_normal(out_dim)))

    def taped_forward():
        with ad.Tape():
            return bk.linear(x, params)

    peak, out = traced_peak(taped_forward)
    assert out._grad_fn is not None
    assert peak < 96 * 2**20, peak


def test_linear_backward_peak():
    """The 256→130 backward over 32768 sites holds x's gradient beside the
    whole-matrix products' operands and tile-sized buffers only: it peaks
    under 1.75 times x's bytes (2.51 times with whole-array γ and β sums,
    an out-of-place band and the γ-scaled gradient kept to the end)."""
    rng = np.random.default_rng(20)
    in_dim, out_dim, n = 256, 130, 32768
    x = ad.parameter(rng.standard_normal((in_dim, n)))
    params = LinearParams(weight=ad.parameter(rng.standard_normal((in_dim, out_dim))),
                          mode="binary_full", beta=ad.parameter(rng.standard_normal(in_dim)),
                          gamma=ad.parameter(rng.standard_normal(out_dim)))
    with ad.Tape() as tape:
        out = bk.linear(x, params)
    peak, _ = traced_peak(out._grad_fn, rng.standard_normal(out.data.shape))
    assert x.grad is not None and tape.nodes[0].grad is not None
    assert peak <= 1.75 * x.data.nbytes, peak / x.data.nbytes


def test_float_route_untaped_peak():
    """The float route peaks no higher than x - beta, the ±1 activations,
    the product and the output together: the check of the xnor benchmark
    keeps no backward state."""
    rng = np.random.default_rng(18)
    in_dim, out_dim, n = 130, 64, 32768
    x = rng.standard_normal((in_dim, n))
    params = LinearParams(weight=ad.parameter(rng.standard_normal((in_dim, out_dim))),
                          mode="binary_full", beta=ad.parameter(rng.standard_normal(in_dim)),
                          gamma=ad.parameter(rng.standard_normal(out_dim)))
    peak, out = traced_peak(lambda: bk.binary_linear_full(x, params, use_packed=False))
    assert out.shape == (out_dim, n)
    assert peak <= 8 * (2 * in_dim * n + 2 * out_dim * n), peak


def test_packed_route_empty_layers():
    """0-row and 0-column layers give the float chain's (out, N) shape and bits."""
    rng = np.random.default_rng(16)
    for in_dim, out_dim in ((0, 4), (6, 0), (0, 0)):
        params = LinearParams(weight=rng.standard_normal((in_dim, out_dim)), mode="binary_full",
                              beta=rng.standard_normal(in_dim), gamma=rng.standard_normal(out_dim))
        x = rng.standard_normal((in_dim, bk.GEMM_BLOCK + 5))
        ste = ste_chain(x, params.beta, ad.sign_ste(params.weight), params.gamma).data
        for finish in (None, lambda tile: np.maximum(tile, 0.0, out=tile)):
            got = bk.linear(x, params, finish).data
            assert got.shape == (out_dim, x.shape[1])
            assert np.array_equal(got, ste if finish is None else np.maximum(ste, 0.0))


# weight-only binarization is the vector path's mode: svcore.vector_mapping
# applies one (in_dim, out_dim) sign weight to each coordinate slice


def test_binary_weight_all_positive_is_column_sum():
    params = LinearParams(weight=np.full((3, 1), 0.7), mode="binary_weight",
                          gamma=np.array([2.0]))
    v = np.zeros((3, 3, 1))
    v[0, :, 0] = [1.0, 2.0, 4.0]
    out = vector_mapping(v, params).data
    assert out[0, 0, 0] == 14.0  # 2 * (1+2+4)
    assert (out[1:] == 0.0).all()


def test_binary_weight_zero_input():
    params = LinearParams(weight=np.random.default_rng(10).standard_normal((5, 3)),
                          mode="binary_weight", gamma=np.ones(3))
    assert (vector_mapping(np.zeros((3, 5, 8)), params).data == 0.0).all()


def test_binary_weight_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = LinearParams(weight=rng.standard_normal((12, 7)), mode="binary_weight",
                              gamma=rng.standard_normal(7))
        v = rng.standard_normal((3, 12, 30))
        w = np.asarray(params.weight.data)
        gamma = np.asarray(params.gamma.data)
        got = vector_mapping(v, params).data
        for c in range(3):
            oracle = gamma[:, None] * (bk.sign(w).T @ v[c])
            assert np.abs(got[c] - oracle).max() < 1e-12

