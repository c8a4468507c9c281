"""Equivariant block algebra: maps, frames, projections, blocks, pooling."""

import numpy as np
import pytest

import svpoint.autodiff as ad
from helpers import rotate_feature, rotate_vectors
from svpoint.errors import ParameterError
from svpoint.geometry import random_rotation, signed_permutation_rotation
from svpoint.svcore import (LinearParams, NormParams, SVBlockParams, SVFeature, aggregate,
                            invariant_head, invariant_projection, regroup_edges,
                            svblock_forward, vector_mapping)


def arr(x):
    return np.asarray(x.data if isinstance(x, ad.Tensor) else x)


def make_block(p_in, q_in, p_out, q_out, seed=0, concat=True, reweight=True,
               with_norm=True):
    # the layers are the wiring: concat adds the frame and widens the first
    # scalar layer by the 3*q_in projected rows, reweight adds the gate MLP
    rng = np.random.default_rng(seed)
    frame = LinearParams(weight=rng.standard_normal((q_in, 3)))
    s_in = p_in + 3 * q_in if concat else p_in
    return SVBlockParams(
        frame=frame if concat else None,
        scalar_mlp=[(LinearParams(weight=rng.standard_normal((s_in, p_out)),
                                  bias=np.zeros(p_out)), "relu")],
        vector_map=LinearParams(weight=rng.standard_normal((q_in, q_out))),
        gate_mlp=[(LinearParams(weight=rng.standard_normal((p_in, q_out)),
                                bias=np.zeros(q_out)), "sigmoid")] if reweight else [],
        norm=NormParams.create(p_out, q_out) if with_norm else None,
    )


def rand_feature(p, q, n, seed):
    rng = np.random.default_rng(seed)
    return SVFeature(scalars=rng.standard_normal((p, n)),
                     vectors=rng.standard_normal((3, q, n)))


# ---------------------------------------------------------------------------
# vector mapping and frames


def test_vector_mapping_identity():
    v = np.random.default_rng(0).standard_normal((3, 4, 6))
    out = vector_mapping(v, LinearParams(weight=np.eye(4)))
    assert np.array_equal(arr(out), v)


def test_vector_mapping_combines_channels():
    v = np.zeros((3, 2, 1))
    v[:, 0, 0] = [1.0, 0.0, 0.0]
    v[:, 1, 0] = [0.0, 1.0, 0.0]
    out = vector_mapping(v, LinearParams(weight=np.array([[2.0], [3.0]])))
    assert arr(out)[:, 0, 0].tolist() == [2.0, 3.0, 0.0]


def test_vector_mapping_equivariant():
    rng = np.random.default_rng(1)
    for seed in range(100):
        v = rng.standard_normal((3, 3, 5))
        params = LinearParams(weight=rng.standard_normal((3, 4)))
        rot = random_rotation(seed)
        lhs = arr(vector_mapping(rotate_vectors(v, rot), params))
        rhs = rotate_vectors(arr(vector_mapping(v, params)), rot)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_vector_mapping_binary_weight_equivariant():
    rng = np.random.default_rng(2)
    params = LinearParams(weight=rng.standard_normal((3, 4)), mode="binary_weight",
                          gamma=rng.standard_normal(4))
    v = rng.standard_normal((3, 3, 5))
    base = arr(vector_mapping(v, params))
    for seed in range(50):
        rot = random_rotation(seed)
        lhs = arr(vector_mapping(rotate_vectors(v, rot), params))
        assert np.abs(lhs - rotate_vectors(base, rot)).max() < 1e-12
    for i in range(24):
        rot = signed_permutation_rotation(i)
        lhs = arr(vector_mapping(rotate_vectors(v, rot), params))
        assert np.array_equal(lhs, rotate_vectors(base, rot))


def test_vector_mapping_shape_errors():
    with pytest.raises(ParameterError):
        vector_mapping(np.ones((3, 2, 4)), LinearParams(weight=np.ones((3, 2))))
    with pytest.raises(ParameterError):
        vector_mapping(np.ones((2, 4)), LinearParams(weight=np.ones((2, 2))))


def test_coordinate_frame_cases():
    # a frame is a vector mapping onto 3 channels, which the projection checks
    eye = np.eye(3).reshape(3, 3, 1)
    assert np.array_equal(arr(vector_mapping(eye, LinearParams(weight=np.eye(3)))), eye)
    zero = np.zeros((3, 2, 4))
    assert (arr(vector_mapping(zero, LinearParams(weight=np.ones((2, 3))))) == 0.0).all()
    assert (arr(invariant_projection(zero, LinearParams(weight=np.ones((2, 3))))) == 0.0).all()
    with pytest.raises(ParameterError, match="frame weight must map to 3 columns, got 2"):
        invariant_projection(np.ones((3, 2, 4)), LinearParams(weight=np.ones((2, 2))))


def test_coordinate_frame_equivariant():
    # a block's frame is a vector mapping onto 3 channels
    rng = np.random.default_rng(3)
    frame = LinearParams(weight=rng.standard_normal((5, 3)))
    v = rng.standard_normal((3, 5, 7))
    base = arr(vector_mapping(v, frame))
    for seed in range(100):
        rot = random_rotation(seed)
        got = arr(vector_mapping(rotate_vectors(v, rot), frame))
        assert np.abs(got - rotate_vectors(base, rot)).max() < 1e-12


# ---------------------------------------------------------------------------
# invariant projection


def test_projection_identity_case():
    eye = np.eye(3).reshape(3, 3, 1)
    out = arr(invariant_projection(eye, LinearParams(weight=np.eye(3))))
    assert np.array_equal(out[:, 0], np.eye(3).reshape(-1))


def test_projection_rotation_cancels():
    rng = np.random.default_rng(4)
    frame = LinearParams(weight=rng.standard_normal((4, 3)))
    v = rng.standard_normal((3, 4, 6))
    base = arr(invariant_projection(v, frame))
    for seed in range(100):
        rot = random_rotation(seed)
        got = arr(invariant_projection(rotate_vectors(v, rot), frame))
        assert np.abs(got - base).max() < 1e-11


def test_projection_factorization_identity():
    # frame W projection equals W^T (v^T v) evaluated the long way
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 3))
    v = rng.standard_normal((3, 4, 5))
    got = arr(invariant_projection(v, LinearParams(weight=w)))
    for site in range(5):
        gram = v[:, :, site].T @ v[:, :, site]  # (q, q)
        expect = (w.T @ gram)  # (3, q)
        assert np.abs(got[:, site].reshape(3, 4) - expect).max() < 1e-11


def test_projection_flatten_is_frame_axis_major():
    v = np.zeros((3, 2, 1))
    v[0, 0, 0] = 7.0  # vector channel 0 = 7 e_x
    w = np.zeros((2, 3))
    w[0, 1] = 1.0  # frame column 1 = channel 0
    out = arr(invariant_projection(v, LinearParams(weight=w)))[:, 0]
    # row a*q + j: frame 1 against channel 0 lands at 1*2 + 0
    assert out.tolist() == [0.0, 0.0, 49.0, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# scalar path


def test_scalar_update_passthrough():
    # the last layer's nonlinearity belongs to the block, after normalization
    params = make_block(3, 2, 3, 2, concat=False, with_norm=False)
    s = np.array([[1.0, -2.0], [0.5, 3.0], [-0.1, 0.0]])
    feat = SVFeature(scalars=s, vectors=np.zeros((3, 2, 2)))
    params.scalar_mlp = [(LinearParams(weight=np.eye(3)), "none")]
    assert np.array_equal(arr(svblock_forward(feat, params, True, 1).scalars), s)
    params.scalar_mlp = [(LinearParams(weight=np.eye(3)), "relu")]
    assert np.array_equal(arr(svblock_forward(feat, params, True, 1).scalars),
                          np.maximum(s, 0.0))


def test_block_rejects_unknown_last_scalar_tag():
    # the block applies the last scalar nonlinearity itself, after the norm
    params = make_block(3, 2, 3, 2, concat=False)
    params.scalar_mlp = [(LinearParams(weight=np.eye(3)), "tanh")]
    feat = SVFeature(scalars=np.ones((3, 4)), vectors=np.ones((3, 2, 4)))
    with pytest.raises(ParameterError, match="unknown nonlinearity tag 'tanh'"):
        svblock_forward(feat, params, True, 1)


def test_scalar_update_zero_weights():
    params = make_block(3, 2, 4, 2, with_norm=False)
    params.scalar_mlp = [(LinearParams(weight=np.zeros((9, 4)), bias=np.zeros(4)), "relu")]
    feat = SVFeature(scalars=np.ones((3, 5)), vectors=np.ones((3, 2, 5)))
    assert (arr(svblock_forward(feat, params, True, 1).scalars) == 0.0).all()


def test_scalar_update_standard_split_dims():
    # a 256-channel block splits 130 scalar + 42 vector, so concat input
    # is exactly 130 + 3*42 = 256 rows
    params = make_block(130, 42, 130, 42, with_norm=False)
    feat = SVFeature(scalars=np.ones((130, 4)), vectors=np.ones((3, 42, 4)))
    out = arr(svblock_forward(feat, params, True, 1).scalars)
    assert params.scalar_mlp[0][0].in_dim == 256
    assert out.shape == (130, 4)


# ---------------------------------------------------------------------------
# gate


def gate_probe(params, scalars, groups):
    """The gate factors (q_out, N) a block applies at each site: with an
    identity vector map and unit vectors its output vectors are the factors."""
    (p, n), q = np.shape(scalars), params.vector_map.out_dim
    probe = SVBlockParams(frame=None, scalar_mlp=[(LinearParams(weight=np.eye(p)), "none")],
                          vector_map=LinearParams(weight=np.eye(q)),
                          gate_mlp=params.gate_mlp, norm=None)
    feat = SVFeature(scalars=scalars, vectors=np.ones((3, q, n)))
    return arr(svblock_forward(feat, probe, False, groups).vectors)[0]


def test_reweighting_factors_values():
    params = make_block(3, 2, 3, 2, concat=False)
    params.gate_mlp = [(LinearParams(weight=np.zeros((3, 2)), bias=np.zeros(2)), "sigmoid")]
    out = gate_probe(params, np.random.default_rng(6).standard_normal((3, 9)), 1)
    assert np.array_equal(out, np.full((2, 9), 0.5))

    rng = np.random.default_rng(7)
    w = rng.standard_normal((3, 2))
    params.gate_mlp = [(LinearParams(weight=w, bias=np.zeros(2)), "sigmoid")]
    s = rng.standard_normal((3, 9))
    expect = 1.0 / (1.0 + np.exp(-(w.T @ s.mean(axis=1, keepdims=True))))
    factors = gate_probe(params, s, 1)
    assert np.abs(factors - expect).max() < 1e-12
    assert ((factors > 0) & (factors < 1)).all()


def test_reweighting_factors_groups_and_errors():
    params = make_block(2, 2, 2, 2, concat=False)
    s = np.random.default_rng(8).standard_normal((2, 6))
    per_cloud = gate_probe(params, s, 3).reshape(2, 3, 2)
    assert (per_cloud == per_cloud[:, :, :1]).all()  # one factor per cloud and channel
    w = arr(params.gate_mlp[0][0].weight)
    expect = 1.0 / (1.0 + np.exp(-(w.T @ s.reshape(2, 3, 2).mean(axis=2))))
    assert np.abs(per_cloud[:, :, 0] - expect).max() < 1e-12
    feat = SVFeature(scalars=s, vectors=np.ones((3, 2, 6)))
    with pytest.raises(ParameterError, match="6 sites do not split into 4 groups"):
        svblock_forward(feat, params, False, 4)
    empty = SVFeature(scalars=np.zeros((2, 0)), vectors=np.zeros((3, 2, 0)))
    with pytest.raises(ParameterError):
        svblock_forward(empty, params, False, 1)


def test_vector_update_toggle_and_factors():
    feat = rand_feature(2, 2, 5, 9)
    params = make_block(2, 2, 2, 3, reweight=False, with_norm=False)
    pure = arr(vector_mapping(feat.vectors, params.vector_map))
    assert np.array_equal(arr(svblock_forward(feat, params, True, 1).vectors), pure)

    params.gate_mlp = make_block(2, 2, 2, 3, with_norm=False).gate_mlp
    for groups in (1, 5):  # one cloud, then one cloud per site
        factors = gate_probe(params, feat.scalars, groups)
        gated = arr(svblock_forward(feat, params, True, groups).vectors)
        assert np.array_equal(gated, pure * factors[None])
    params.gate_mlp = [(LinearParams(weight=np.zeros((2, 3)), bias=np.zeros(3)), "sigmoid")]
    halved = arr(svblock_forward(feat, params, True, 1).vectors)
    assert np.abs(halved - 0.5 * pure).max() < 1e-15
    with pytest.raises(ParameterError):
        svblock_forward(feat, params, True, 2)


def test_vector_update_equivariant():
    rng = np.random.default_rng(10)
    params = make_block(2, 3, 2, 2, concat=False, with_norm=False)
    feat = SVFeature(scalars=rng.standard_normal((2, 6)), vectors=rng.standard_normal((3, 3, 6)))
    base = arr(svblock_forward(feat, params, True, 1).vectors)
    for seed in range(100):
        rot = random_rotation(seed)
        got = arr(svblock_forward(rotate_feature(feat, rot), params, True, 1).vectors)
        assert np.abs(got - rotate_vectors(base, rot)).max() < 1e-12


# ---------------------------------------------------------------------------
# normalization


def norm_block(norm):
    """A block that only normalizes: identity maps, no frame, no gate, and
    no nonlinearity after the norm."""
    p, q = len(norm.running_mean), len(norm.running_norm)
    return SVBlockParams(frame=None, scalar_mlp=[(LinearParams(weight=np.eye(p)), "none")],
                         vector_map=LinearParams(weight=np.eye(q)), gate_mlp=[], norm=norm)


def test_norm_identity_when_stats_are_neutral():
    q = 3
    rng = np.random.default_rng(11)
    v = rng.standard_normal((3, q, 40))
    norms = np.linalg.norm(v, axis=0)
    v = v / norms.mean(axis=1)[None, :, None]  # unit batch-mean norm per channel
    feat = SVFeature(scalars=np.zeros((0, 40)), vectors=v)
    out = svblock_forward(feat, norm_block(NormParams.create(0, q)), True, 1)
    assert np.abs(arr(out.vectors) - v).max() < 1e-4  # eps in the denominator


def test_norm_absorbs_vector_scale():
    feat = rand_feature(2, 2, 30, 12)
    out_a = svblock_forward(feat, norm_block(NormParams.create(2, 2)), True, 1)
    scaled = SVFeature(scalars=arr(feat.scalars), vectors=10.0 * arr(feat.vectors))
    out_b = svblock_forward(scaled, norm_block(NormParams.create(2, 2)), True, 1)
    assert np.abs(arr(out_b.vectors) - arr(out_a.vectors)).max() < 1e-4


def test_norm_scalar_standardizes():
    feat = SVFeature(scalars=np.random.default_rng(13).standard_normal((2, 200)) * 5 + 3,
                     vectors=np.zeros((3, 0, 200)))
    out = arr(svblock_forward(feat, norm_block(NormParams.create(2, 0)), True, 1).scalars)
    assert np.abs(out.mean(axis=1)).max() < 1e-12
    assert np.abs(out.std(axis=1) - 1.0).max() < 1e-4


def test_norm_rotation_commutes():
    feat = rand_feature(2, 3, 25, 14)
    for seed in range(30):
        rot = random_rotation(seed)
        base = svblock_forward(feat, norm_block(NormParams.create(2, 3)), True, 1)
        rotated = svblock_forward(rotate_feature(feat, rot),
                                  norm_block(NormParams.create(2, 3)), True, 1)
        assert np.array_equal(arr(rotated.scalars), arr(base.scalars))
        assert np.abs(arr(rotated.vectors) - rotate_vectors(arr(base.vectors), rot)).max() < 1e-12


def test_norm_eval_uses_running_stats():
    block = norm_block(NormParams.create(2, 2))
    feat = rand_feature(2, 2, 50, 15)
    for _ in range(200):
        svblock_forward(feat, block, True, 1)
    train_out = svblock_forward(feat, block, True, 1)
    eval_out = svblock_forward(feat, block, False, 1)
    # after convergence of the running stats both paths agree closely
    assert np.abs(arr(eval_out.scalars) - arr(train_out.scalars)).max() < 1e-4
    assert np.abs(arr(eval_out.vectors) - arr(train_out.vectors)).max() < 1e-4


def test_norm_eval_is_the_explicit_affine_bit_for_bit():
    """Eval normalizes by the running statistics with the formulas written
    out, operation for operation, at the size of the first block of a
    pointnet batch (32 clouds of 256 points, k=16, width 64 split 34 + 3*10),
    and leaves the running statistics alone."""
    p, q, n = 34, 10, 32 * 256 * 16
    rng = np.random.default_rng(16)
    norm = NormParams.create(p, q)
    norm.scalar_gain.data[...] = rng.standard_normal(p)
    norm.scalar_bias.data[...] = rng.standard_normal(p)
    norm.vector_log_scale.data[...] = rng.standard_normal(q) * 0.3
    norm.running_mean[...] = rng.standard_normal(p)
    norm.running_var[...] = rng.random(p) * 3
    norm.running_norm[...] = rng.random(q) * 2
    running = [a.copy() for a in (norm.running_mean, norm.running_var, norm.running_norm)]
    s, v = rng.standard_normal((p, n)) * 4, rng.standard_normal((3, q, n))
    out = svblock_forward(SVFeature(scalars=s, vectors=v), norm_block(norm), False, 32)

    gamma, beta = norm.scalar_gain.data[:, None], norm.scalar_bias.data[:, None]
    inv = 1.0 / np.sqrt(running[1][:, None] + 1e-5)
    assert np.array_equal(arr(out.scalars), (s - running[0][:, None]) * inv * gamma + beta)
    coef = np.exp(norm.vector_log_scale.data) / (running[2] + 1e-5)
    assert np.array_equal(arr(out.vectors), v * coef[None, :, None])
    for kept, now in zip(running, (norm.running_mean, norm.running_var, norm.running_norm)):
        assert np.array_equal(kept, now)


def binary_block(p_in, q_in, p_out, q_out, concat, seed):
    """A block whose scalar layer is binary_full, with random running
    statistics and affine norm parameters."""
    rng = np.random.default_rng(seed)
    block = make_block(p_in, q_in, p_out, q_out, seed=seed, concat=concat)
    lin = block.scalar_mlp[0][0]
    lin.mode, lin.bias = "binary_full", None
    lin.beta, lin.gamma = rng.standard_normal(lin.in_dim) * 0.3, rng.standard_normal(p_out)
    norm = block.norm
    norm.scalar_gain.data[...] = rng.standard_normal(p_out)
    norm.scalar_bias.data[...] = rng.standard_normal(p_out)
    norm.running_mean[...] = rng.standard_normal(p_out)
    norm.running_var[...] = rng.random(p_out) * 3
    return block


def test_block_eval_packed_route_is_the_taped_route_bit_for_bit():
    """With nothing recording, an eval block runs its binary_full layer's
    norm and ReLU on each tile of the packed product; the taped forward
    takes the STE route and the batch_norm_train op. Both give the same
    bits at site counts around the tile width, for 0-row and 0-column
    scalar layers too."""
    from svpoint.binkernel import GEMM_BLOCK

    shapes = ((4, 2, 5, 3, True), (0, 2, 3, 2, False), (3, 2, 0, 2, True))
    for n in (GEMM_BLOCK - 1, GEMM_BLOCK, 2 * GEMM_BLOCK + 17):
        for i, (p_in, q_in, p_out, q_out, concat) in enumerate(shapes):
            block = binary_block(p_in, q_in, p_out, q_out, concat, seed=i)
            feat = rand_feature(p_in, q_in, n, seed=i)
            got = svblock_forward(feat, block, False, 1)
            with ad.Tape():
                want = svblock_forward(feat, block, False, 1)
            assert np.array_equal(arr(got.scalars), arr(want.scalars)), (n, i)
            assert np.array_equal(arr(got.vectors), arr(want.vectors)), (n, i)
            assert arr(got.scalars).shape == (p_out, n)


# ---------------------------------------------------------------------------
# the block


def test_block_zero_vectors_stay_zero():
    params = make_block(2, 2, 3, 2)
    feat = SVFeature(scalars=np.random.default_rng(16).standard_normal((2, 8)),
                     vectors=np.zeros((3, 2, 8)))
    out = svblock_forward(feat, params, True, 1)
    assert (arr(out.vectors) == 0.0).all()


def test_block_equivariance_fp():
    params = make_block(2, 3, 4, 3, seed=17)
    feat = rand_feature(2, 3, 12, 18)
    base = svblock_forward(feat, params, False, 1)
    worst_s = worst_v = 0.0
    for seed in range(100):
        rot = random_rotation(seed)
        got = svblock_forward(rotate_feature(feat, rot), params, False, 1)
        worst_s = max(worst_s, np.abs(arr(got.scalars) - arr(base.scalars)).max())
        worst_v = max(worst_v, np.abs(
            arr(got.vectors) - rotate_vectors(arr(base.vectors), rot)).max())
    assert worst_s < 1e-11, worst_s
    assert worst_v < 1e-11, worst_v


def test_block_bit_exact_under_signed_perms():
    params = make_block(2, 3, 4, 3, seed=19)
    feat = rand_feature(2, 3, 12, 20)
    base = svblock_forward(feat, params, False, 1)
    for i in range(24):
        rot = signed_permutation_rotation(i)
        got = svblock_forward(rotate_feature(feat, rot), params, False, 1)
        assert np.array_equal(arr(got.scalars), arr(base.scalars)), f"rotation {i}"
        assert np.array_equal(arr(got.vectors),
                              rotate_vectors(arr(base.vectors), rot)), f"rotation {i}"


def test_block_stack_equivariance():
    # composition keeps the property at the same tolerance scale
    blocks = [make_block(2, 2, 3, 3, seed=21), make_block(3, 3, 4, 2, seed=22)]
    feat = rand_feature(2, 2, 10, 23)

    def run(f):
        for b in blocks:
            f = svblock_forward(f, b, False, 1)
        return f

    base = run(feat)
    for seed in range(50):
        rot = random_rotation(seed)
        got = run(rotate_feature(feat, rot))
        assert np.abs(arr(got.scalars) - arr(base.scalars)).max() < 1e-11
        assert np.abs(arr(got.vectors) - rotate_vectors(arr(base.vectors), rot)).max() < 1e-11


def test_block_permutation_equivariance():
    params = make_block(2, 2, 3, 2, seed=24)
    feat = rand_feature(2, 2, 9, 25)
    base = svblock_forward(feat, params, False, 1)
    perm = np.random.default_rng(26).permutation(9)
    shuffled = SVFeature(scalars=arr(feat.scalars)[:, perm],
                         vectors=arr(feat.vectors)[:, :, perm])
    got = svblock_forward(shuffled, params, False, 1)
    assert np.abs(arr(got.scalars) - arr(base.scalars)[:, perm]).max() < 1e-12
    assert np.abs(arr(got.vectors) - arr(base.vectors)[:, :, perm]).max() < 1e-12


def test_block_gate_uses_input_scalars_per_group():
    params = make_block(2, 2, 3, 2, seed=27)
    feat = rand_feature(2, 2, 12, 28)
    grouped = svblock_forward(feat, params, False, 3)
    whole = svblock_forward(feat, params, False, 1)
    # different pooling extents must change the gating
    assert not np.allclose(arr(grouped.vectors), arr(whole.vectors))
    with pytest.raises(ParameterError):
        svblock_forward(feat, params, False, 5)


# ---------------------------------------------------------------------------
# aggregation, regrouping, head


def test_aggregate_k1_identity():
    feat = rand_feature(2, 2, 6, 29)
    out = aggregate(feat, 1)
    assert np.array_equal(arr(out.scalars), arr(feat.scalars))
    assert np.array_equal(arr(out.vectors), arr(feat.vectors))


def test_aggregate_values_and_modes():
    feat = SVFeature(scalars=np.array([[1.0, 5.0, 3.0]]),
                     vectors=np.ones((3, 1, 3)))
    assert arr(aggregate(feat, 3).scalars)[0, 0] == 5.0
    with pytest.raises(ParameterError):
        aggregate(feat, 2)


def test_aggregate_commutes_with_rotation():
    feat = rand_feature(2, 3, 12, 30)
    for seed in range(30):
        rot = random_rotation(seed)
        before = arr(aggregate(rotate_feature(feat, rot), 4).vectors)
        after = rotate_vectors(arr(aggregate(feat, 4).vectors), rot)
        assert np.abs(before - after).max() < 1e-12


def test_regroup_edges_formula():
    rng = np.random.default_rng(31)
    feat = rand_feature(2, 2, 4, 32)
    neighbors = np.array([[1, 2], [0, 3], [3, 0], [2, 1]])
    out = regroup_edges(feat, neighbors)
    assert (arr(out.scalars).shape, arr(out.vectors).shape) == ((4, 8), (3, 4, 8))
    s = arr(feat.scalars)
    got = arr(out.scalars)
    for i in range(4):
        for slot in range(2):
            j = neighbors[i, slot]
            edge = i * 2 + slot
            assert np.array_equal(got[:2, edge], s[:, i])
            assert np.array_equal(got[2:, edge], s[:, j] - s[:, i])
    # node features of another site count than the table's (a one-cloud
    # table given a batch) would gather silently misaligned edges
    with pytest.raises(ParameterError, match=r"neighbor table of shape \(4, 2\) for 5 nodes"):
        regroup_edges(rand_feature(2, 2, 5, 32), neighbors)


def test_regroup_same_features_zero_difference():
    feat = SVFeature(scalars=np.ones((2, 3)), vectors=np.ones((3, 1, 3)))
    out = regroup_edges(feat, np.array([[1], [2], [0]]))
    assert (arr(out.scalars)[2:] == 0.0).all()
    assert (arr(out.vectors)[:, 1:] == 0.0).all()


def test_regroup_equivariant():
    feat = rand_feature(2, 2, 5, 33)
    neighbors = np.array([[1, 2], [0, 3], [4, 0], [2, 1], [3, 0]])
    base = regroup_edges(feat, neighbors)
    for seed in range(20):
        rot = random_rotation(seed)
        got = regroup_edges(rotate_feature(feat, rot), neighbors)
        assert np.abs(arr(got.vectors) - rotate_vectors(arr(base.vectors), rot)).max() < 1e-12


def test_invariant_head():
    rng = np.random.default_rng(34)
    frame = LinearParams(weight=rng.standard_normal((2, 3)))
    zero_v = SVFeature(scalars=rng.standard_normal((3, 4)), vectors=np.zeros((3, 2, 4)))
    out = arr(invariant_head(zero_v, frame))
    assert np.array_equal(out[:3], arr(zero_v.scalars))
    assert (out[3:] == 0.0).all()

    feat = rand_feature(3, 2, 6, 35)
    base = arr(invariant_head(feat, frame))
    for seed in range(100):
        rot = random_rotation(seed)
        got = arr(invariant_head(rotate_feature(feat, rot), frame))
        assert np.abs(got - base).max() < 1e-11
    for i in range(24):
        got = arr(invariant_head(rotate_feature(feat, signed_permutation_rotation(i)), frame))
        assert np.array_equal(got, base), f"rotation {i}"


def test_linear_params_validation():
    with pytest.raises(ParameterError):
        LinearParams(weight=np.ones((2, 2)), mode="int8")
    with pytest.raises(ParameterError):
        LinearParams(weight=np.array([1.0, 2.0]))
    with pytest.raises(ParameterError):
        LinearParams(weight=np.ones((2, 2)), gamma=np.array([np.nan, 1.0]))
