"""Binary kernels: sign/STE, bit packing, XNOR GEMM, binarized linears."""

import numpy as np
import pytest

import svpoint.autodiff as ad
from svpoint import binkernel as bk
from svpoint.errors import ParameterError
from svpoint.svcore import LinearParams


def naive_pm1_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # integer oracle: exact for any +-1 operands
    return (a.astype(np.int64) @ b.T.astype(np.int64))


# ---------------------------------------------------------------------------
# sign and STE


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
    assert bk.ste_backward(np.array(2.0), np.array(0.5)) == 2.0
    assert bk.ste_backward(np.array(2.0), np.array(1.3)) == 0.0
    # band edges excluded on both sides
    assert bk.ste_backward(np.array(1.0), np.array(-1.2)) == 0.0
    assert bk.ste_backward(np.array(1.0), np.array(1.2)) == 0.0


def test_ste_grid_matches_piecewise_definition():
    x = np.arange(-2.0, 2.0001, 0.01)
    g = np.random.default_rng(1).standard_normal(x.shape)
    expect = np.where((x > -1.2) & (x < 1.2), g, 0.0)
    assert np.array_equal(bk.ste_backward(g, x), expect)


def test_ste_shape_mismatch():
    with pytest.raises(ParameterError):
        bk.ste_backward(np.zeros(3), np.zeros(4))


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
        assert np.array_equal(bk.bitunpack(bk.bitpack(signs)), signs)


def test_bitpack_padding_zero():
    packed = bk.bitpack(np.ones((2, 65)))
    assert packed.words.shape == (2, 2)
    assert (packed.words[:, 1] == np.uint64(1)).all()  # only bit 64 set


def test_bitpack_rejects_other_values():
    with pytest.raises(ParameterError):
        bk.bitpack(np.array([[1.0, 0.0]]))
    with pytest.raises(ParameterError):
        bk.bitpack(np.ones(4))  # 1-d


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
    rng = np.random.default_rng(6)
    a = bk.sign(rng.standard_normal((40, 65)))
    b = bk.sign(rng.standard_normal((30, 65)))
    got = bk.xnor_popcount_gemm(bk.bitpack(a), bk.bitpack(b), block=7)
    assert np.array_equal(got, naive_pm1_gemm(a, b))


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


def test_binary_full_mode_and_shape_checks():
    good = LinearParams(weight=np.ones((2, 2)), mode="binary_full",
                        beta=np.zeros(2), gamma=np.ones(2))
    with pytest.raises(ParameterError):
        bk.binary_linear_full(np.ones((3, 4)), good)  # in_dim mismatch
    fp = LinearParams(weight=np.ones((2, 2)))
    with pytest.raises(ParameterError):
        bk.binary_linear_full(np.ones((2, 4)), fp)  # wrong mode


# weight-only binarization is the vector path's mode: ad.vector_linear
# applies one (in_dim, out_dim) sign weight to each coordinate slice


def test_binary_weight_all_positive_is_column_sum():
    params = LinearParams(weight=np.full((3, 1), 0.7), mode="binary_weight",
                          gamma=np.array([2.0]))
    v = np.zeros((3, 3, 1))
    v[0, :, 0] = [1.0, 2.0, 4.0]
    out = ad.vector_linear(v, params).data
    assert out[0, 0, 0] == 14.0  # 2 * (1+2+4)
    assert (out[1:] == 0.0).all()


def test_binary_weight_zero_input():
    params = LinearParams(weight=np.random.default_rng(10).standard_normal((5, 3)),
                          mode="binary_weight", gamma=np.ones(3))
    assert (ad.vector_linear(np.zeros((3, 5, 8)), params).data == 0.0).all()


def test_binary_weight_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = LinearParams(weight=rng.standard_normal((12, 7)), mode="binary_weight",
                              gamma=rng.standard_normal(7))
        v = rng.standard_normal((3, 12, 30))
        w = np.asarray(params.weight.data)
        gamma = np.asarray(params.gamma.data)
        got = ad.vector_linear(v, params).data
        for c in range(3):
            oracle = gamma[:, None] * (bk.sign(w).T @ v[c])
            assert np.abs(got[c] - oracle).max() < 1e-12


# ---------------------------------------------------------------------------
# benchmark harness


def test_bench_gemm_reports_rows():
    rows = bk.bench_gemm(64, trials=1, seed=0)
    kernels = {r["kernel"] for r in rows}
    assert "xnor_packed" in kernels and "float_matmul" in kernels
    for r in rows:
        assert r["n"] == 64 and r["trials"] == 1 and r["ns_per_op"] > 0
