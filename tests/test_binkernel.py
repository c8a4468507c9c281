"""Binary kernels: sign/STE, bit packing, XNOR GEMM, binarized linears."""

import numpy as np
import pytest

from svpoint import autodiff as ad
from svpoint import binkernel as bk
from svpoint.errors import ParameterError
from svpoint.svcore import LinearParams, scalar_linear, vector_mapping


def naive_pm1_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # integer oracle: exact for any +-1 operands
    return (a.astype(np.int64) @ b.T.astype(np.int64))


# ---------------------------------------------------------------------------
# sign and STE, which live in autodiff beside sign_ste


def test_sign_values():
    x = np.array([0.0, -0.0, -0.3, 1.2, -1e-300, 5.0])
    assert ad.sign(x).tolist() == [1.0, 1.0, -1.0, 1.0, -1.0, 1.0]


def test_sign_nan_rejected():
    with pytest.raises(ParameterError):
        ad.sign(np.array([1.0, np.nan]))


def test_sign_scale_invariant():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40,))
    for c in (0.5, 2.0, 1e6, 1e-6):
        assert np.array_equal(ad.sign(c * x), ad.sign(x))


def test_ste_pointwise():
    assert ad.ste_backward(np.array(2.0), np.array(0.5)) == 2.0
    assert ad.ste_backward(np.array(2.0), np.array(1.3)) == 0.0
    # band edges excluded on both sides
    assert ad.ste_backward(np.array(1.0), np.array(-1.2)) == 0.0
    assert ad.ste_backward(np.array(1.0), np.array(1.2)) == 0.0


def test_ste_grid_matches_piecewise_definition():
    x = np.arange(-2.0, 2.0001, 0.01)
    g = np.random.default_rng(1).standard_normal(x.shape)
    expect = np.where((x > -1.2) & (x < 1.2), g, 0.0)
    assert np.array_equal(ad.ste_backward(g, x), expect)


def test_ste_shape_mismatch():
    with pytest.raises(ParameterError):
        ad.ste_backward(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# packing


def test_bitpack_low_bits():
    packed = bk.bitpack(np.array([[1.0, 1.0, -1.0, -1.0]]))
    # bit i set iff entry i is +1, little-endian within the word
    assert packed.words[0, 0] & np.uint64(0xF) == np.uint64(0b0011)
    assert packed.rows == 1 and packed.cols == 4


def test_bitpack_full_word():
    packed = bk.bitpack(np.ones((1, 64)))
    assert packed.words[0, 0] == np.uint64(0xFFFFFFFFFFFFFFFF)


def test_bitpack_round_trip():
    rng = np.random.default_rng(2)
    for cols in (1, 63, 64, 65, 1000):
        signs = bk.sign(rng.standard_normal((7, cols)))
        raw = bk.bitpack(signs).words.astype("<u8", copy=False).view(np.uint8)
        bits = np.unpackbits(raw.reshape(7, -1), axis=1, bitorder="little")
        assert np.array_equal(bits[:, :cols] * 2.0 - 1.0, signs)


def test_bitpack_padding_zero():
    packed = bk.bitpack(np.ones((2, 65)))
    assert packed.words.shape == (2, 2)
    assert (packed.words[:, 1] == np.uint64(1)).all()  # only bit 64 set


def test_packed_matrix_rejects_set_padding_bits():
    """The kernel counts XOR bits over whole words, so a set padding bit
    would shift a dot product; such words are refused."""
    good = bk.bitpack(np.ones((2, 65)))
    bad = good.words.copy()
    bad[1, 1] |= np.uint64(1 << 5)
    with pytest.raises(ParameterError, match="padding bits"):
        bk.PackedSignMatrix(rows=2, cols=65, words=bad)
    full = bk.bitpack(np.ones((1, 64)))  # no padding: every bit may be set
    assert bk.PackedSignMatrix(rows=1, cols=64, words=full.words).cols == 64


def test_bitpack_bool_matches_pm1():
    """A boolean matrix packs True as +1: the same words as its ±1 twin."""
    rng = np.random.default_rng(12)
    for cols in (1, 63, 64, 65, 1000):
        mask = rng.standard_normal((7, cols)) >= 0
        got = bk.bitpack(mask)
        assert (got.rows, got.cols) == (7, cols)
        assert np.array_equal(got.words, bk.bitpack(np.where(mask, 1.0, -1.0)).words)
        # a transposed (Fortran-ordered) view packs the same as a C-ordered copy
        assert np.array_equal(bk.bitpack(mask.T.copy().T).words, got.words)


def test_bitpack_bool_padding_zero():
    packed = bk.bitpack(np.ones((3, 65), dtype=bool))
    assert packed.words.shape == (3, 2)
    assert (packed.words[:, 1] == np.uint64(1)).all()  # only bit 64 set
    assert (bk.bitpack(np.zeros((2, 70), dtype=bool)).words == 0).all()


def test_bitpack_rejects_other_values():
    with pytest.raises(ParameterError):
        bk.bitpack(np.array([[1.0, 0.0]]))
    with pytest.raises(ParameterError):
        bk.bitpack(np.ones(4))  # 1-d
    with pytest.raises(ParameterError):
        bk.bitpack(np.ones(4, dtype=bool))  # 1-d boolean


# ---------------------------------------------------------------------------
# XNOR GEMM


def test_gemm_hand_cases():
    a = bk.bitpack(np.array([[1.0, 1.0, -1.0, -1.0]]))
    b = bk.bitpack(np.array([[1.0, -1.0, -1.0, 1.0]]))
    assert bk.xnor_popcount_gemm(a, b)[0, 0] == 0

    row = bk.sign(np.random.default_rng(3).standard_normal((1, 130)))
    same = bk.bitpack(row)
    assert bk.xnor_popcount_gemm(same, same)[0, 0] == 130


def test_gemm_matches_naive_large():
    rng = np.random.default_rng(4)
    a = bk.sign(rng.standard_normal((256, 256)))
    b = bk.sign(rng.standard_normal((256, 256)))
    got = bk.xnor_popcount_gemm(bk.bitpack(a), bk.bitpack(b))
    assert np.array_equal(got, naive_pm1_gemm(a, b))


def test_gemm_matches_naive_odd_dims():
    rng = np.random.default_rng(5)
    for trial in range(200):
        m = int(rng.integers(1, 20))
        n = int(rng.integers(1, 200))
        p = int(rng.integers(1, 20))
        a = bk.sign(rng.standard_normal((m, n)))
        b = bk.sign(rng.standard_normal((p, n)))
        got = bk.xnor_popcount_gemm(bk.bitpack(a), bk.bitpack(b))
        assert np.array_equal(got, naive_pm1_gemm(a, b)), f"trial {trial} ({m}x{n}x{p})"


def test_gemm_small_block_path():
    # an operand of more rows than one block spans a full and a partial block:
    # the right operand's rows are tiled, the left operand's are not
    rng = np.random.default_rng(6)
    long = bk.sign(rng.standard_normal((bk.GEMM_BLOCK + 77, 65)))
    short = bk.sign(rng.standard_normal((30, 65)))
    for a, b in ((long, short), (short, long)):
        got = bk.xnor_popcount_gemm(bk.bitpack(a), bk.bitpack(b))
        assert np.array_equal(got, naive_pm1_gemm(a, b))


def test_gemm_finish_sees_every_tile_once():
    """With a finish, each tile's counts reach it in site order and equal
    the plain product's columns; an empty inner dimension gives zeros."""
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

        assert bk.xnor_popcount_gemm(bk.bitpack(a), bk.bitpack(b), finish) is None
        assert [lo for lo, _ in seen] == list(range(0, b.shape[0], bk.GEMM_BLOCK))
        assert seen[-1][1] == b.shape[0]
        assert np.array_equal(bk.xnor_popcount_gemm(bk.bitpack(a), bk.bitpack(b)), want)


def test_gemm_dim_mismatch():
    with pytest.raises(ParameterError):
        bk.xnor_popcount_gemm(bk.bitpack(np.ones((2, 5))), bk.bitpack(np.ones((2, 6))))


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
    """The packed route gives the bits of `svcore.scalar_linear` as the
    model trains it (under a tape, on the STE route) at site counts on
    both sides of a tile edge, over one to three words, with d = 0, -0.0
    and infinite inputs, which all take sign's x >= 0 predicate."""
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
                trained = scalar_linear(x, params).data
            assert np.array_equal(got, trained), (n, in_dim)


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
    channel's row, on both routes; infinities, 0 and -0.0 have signs and
    stay finite. A finish runs on the filled tile as on any other."""
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
        packed = bk.packed_linear(x, params)
        ste = bk.ste_linear(x, params).data
        nan = np.isnan(ste)
        assert np.array_equal(np.isnan(packed), nan)
        assert nan[:, [5, 7]].all() and nan[4].all() and nan.sum() == 2 * 6 + n - 2
        assert not nan[np.ix_([0, 1, 2, 3, 5], [0, 1, 2, 3, n - 1])].any()
        assert np.array_equal(packed, ste, equal_nan=True)
        finished = bk.packed_linear(x, params, lambda tile: np.maximum(tile, 0.0, out=tile))
        assert np.array_equal(finished, np.maximum(ste, 0.0), equal_nan=True)
        for use_packed in (True, False):
            with pytest.raises(ParameterError, match="sign of NaN is undefined"):
                bk.binary_linear_full(x, params, use_packed=use_packed)


def test_packed_route_empty_layers():
    """0-row and 0-column layers give the STE route's (out, N) shape and bits."""
    rng = np.random.default_rng(16)
    for in_dim, out_dim in ((0, 4), (6, 0), (0, 0)):
        params = LinearParams(weight=rng.standard_normal((in_dim, out_dim)), mode="binary_full",
                              beta=rng.standard_normal(in_dim), gamma=rng.standard_normal(out_dim))
        x = rng.standard_normal((in_dim, bk.GEMM_BLOCK + 5))
        ste = bk.ste_linear(x, params).data
        for finish in (None, lambda tile: np.maximum(tile, 0.0, out=tile)):
            got = bk.packed_linear(x, params, finish)
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

