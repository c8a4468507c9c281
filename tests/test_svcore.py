"""Equivariant block algebra: maps, frames, projections, blocks, pooling."""

import numpy as np
import pytest

import svpoint.autodiff as ad
from svpoint.errors import ParameterError
from svpoint.geometry import (KnnGraph, SVFeature, random_rotation,
                              rotate_feature, rotate_vectors,
                              signed_permutation_rotation)
from svpoint.svcore import (BlockToggles, LinearParams, NormParams,
                            SVBlockParams, aggregate, coordinate_frame,
                            equivariant_norm, invariant_head,
                            invariant_projection, regroup_edges,
                            reweighting_factors, scalar_update, svblock_forward,
                            vector_mapping, vector_update)


def arr(x):
    return np.asarray(x.data if isinstance(x, ad.Tensor) else x)


def make_block(p_in, q_in, p_out, q_out, seed=0, concat=True, reweight=True,
               with_norm=True):
    rng = np.random.default_rng(seed)
    s_in = p_in + 3 * q_in if concat else p_in
    return SVBlockParams(
        frame=LinearParams(weight=rng.standard_normal((q_in, 3))),
        scalar_mlp=[(LinearParams(weight=rng.standard_normal((s_in, p_out)),
                                  bias=np.zeros(p_out)), "relu")],
        vector_map=LinearParams(weight=rng.standard_normal((q_in, q_out))),
        gate_mlp=[(LinearParams(weight=rng.standard_normal((p_in, q_out)),
                                bias=np.zeros(q_out)), "sigmoid")],
        toggles=BlockToggles(scalar_concat=concat, vector_reweight=reweight),
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
    eye = np.eye(3).reshape(3, 3, 1)
    out = coordinate_frame(eye, LinearParams(weight=np.eye(3)))
    assert np.array_equal(arr(out), eye)
    zero = coordinate_frame(np.zeros((3, 2, 4)), LinearParams(weight=np.ones((2, 3))))
    assert (arr(zero) == 0.0).all()
    with pytest.raises(ParameterError):
        coordinate_frame(np.ones((3, 2, 4)), LinearParams(weight=np.ones((2, 2))))


def test_coordinate_frame_equivariant():
    rng = np.random.default_rng(3)
    frame = LinearParams(weight=rng.standard_normal((5, 3)))
    v = rng.standard_normal((3, 5, 7))
    base = arr(coordinate_frame(v, frame))
    for seed in range(100):
        rot = random_rotation(seed)
        got = arr(coordinate_frame(rotate_vectors(v, rot), frame))
        assert np.abs(got - rotate_vectors(base, rot)).max() < 1e-12


# ---------------------------------------------------------------------------
# invariant projection


def test_projection_identity_case():
    eye = np.eye(3).reshape(3, 3, 1)
    out = arr(invariant_projection(eye, eye))
    assert np.array_equal(out[:, 0], np.eye(3).reshape(-1))


def test_projection_rotation_cancels():
    rng = np.random.default_rng(4)
    vc = rng.standard_normal((3, 3, 6))
    v = rng.standard_normal((3, 4, 6))
    base = arr(invariant_projection(vc, v))
    for seed in range(100):
        rot = random_rotation(seed)
        got = arr(invariant_projection(rotate_vectors(vc, rot), rotate_vectors(v, rot)))
        assert np.abs(got - base).max() < 1e-11


def test_projection_factorization_identity():
    # frame W projection equals W^T (v^T v) evaluated the long way
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 3))
    v = rng.standard_normal((3, 4, 5))
    vc = arr(coordinate_frame(v, LinearParams(weight=w)))
    got = arr(invariant_projection(vc, v))
    for site in range(5):
        gram = v[:, :, site].T @ v[:, :, site]  # (q, q)
        expect = (w.T @ gram)  # (3, q)
        assert np.abs(got[:, site].reshape(3, 4) - expect).max() < 1e-11


def test_projection_flatten_is_frame_axis_major():
    vc = np.zeros((3, 3, 1))
    v = np.zeros((3, 2, 1))
    vc[0, 1, 0] = 1.0  # frame column 1 = e_x
    v[0, 0, 0] = 7.0  # vector channel 0 = 7 e_x
    out = arr(invariant_projection(vc, v))[:, 0]
    # row a*q + j: frame 1 against channel 0 lands at 1*2 + 0
    assert out.tolist() == [0.0, 0.0, 7.0, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# scalar path, gate, vector path


def test_scalar_update_passthrough():
    # the last layer's ReLU belongs to the block, after normalization
    params = make_block(3, 2, 3, 2, concat=False, with_norm=False)
    params.scalar_mlp = [(LinearParams(weight=np.eye(3)), "relu")]
    s = np.array([[1.0, -2.0], [0.5, 3.0], [-0.1, 0.0]])
    out = arr(scalar_update(s, np.zeros((6, 2)), params))
    assert np.array_equal(out, s)
    block = svblock_forward(SVFeature(scalars=s, vectors=np.zeros((3, 2, 2))), params)
    assert np.array_equal(arr(block.scalars), np.maximum(s, 0.0))


def test_block_rejects_unknown_last_scalar_tag():
    # the block applies the last scalar nonlinearity itself, after the norm
    params = make_block(3, 2, 3, 2, concat=False)
    params.scalar_mlp = [(LinearParams(weight=np.eye(3)), "tanh")]
    feat = SVFeature(scalars=np.ones((3, 4)), vectors=np.ones((3, 2, 4)))
    with pytest.raises(ParameterError, match="unknown nonlinearity tag 'tanh'"):
        svblock_forward(feat, params)


def test_scalar_update_zero_weights():
    params = make_block(3, 2, 4, 2, with_norm=False)
    params.scalar_mlp = [(LinearParams(weight=np.zeros((9, 4)), bias=np.zeros(4)), "relu")]
    out = arr(scalar_update(np.ones((3, 5)), np.ones((6, 5)), params))
    assert (out == 0.0).all()


def test_scalar_update_standard_split_dims():
    # a 256-channel block splits 130 scalar + 42 vector, so concat input
    # is exactly 130 + 3*42 = 256 rows
    params = make_block(130, 42, 130, 42, with_norm=False)
    out = arr(scalar_update(np.ones((130, 4)), np.ones((126, 4)), params))
    assert params.scalar_mlp[0][0].in_dim == 256
    assert out.shape == (130, 4)


def test_reweighting_factors_values():
    params = make_block(3, 2, 3, 2)
    params.gate_mlp = [(LinearParams(weight=np.zeros((3, 2)), bias=np.zeros(2)), "sigmoid")]
    out = arr(reweighting_factors(np.random.default_rng(6).standard_normal((3, 9)), params))
    assert np.array_equal(out, np.full((2, 1), 0.5))

    rng = np.random.default_rng(7)
    w = rng.standard_normal((3, 2))
    params.gate_mlp = [(LinearParams(weight=w, bias=np.zeros(2)), "sigmoid")]
    s = rng.standard_normal((3, 9))
    expect = 1.0 / (1.0 + np.exp(-(w.T @ s.mean(axis=1, keepdims=True))))
    assert np.abs(arr(reweighting_factors(s, params)) - expect).max() < 1e-12
    assert ((arr(reweighting_factors(s, params)) > 0)
            & (arr(reweighting_factors(s, params)) < 1)).all()


def test_reweighting_factors_groups_and_errors():
    params = make_block(2, 2, 2, 2)
    s = np.random.default_rng(8).standard_normal((2, 6))
    per_cloud = arr(reweighting_factors(s, params, groups=3))
    assert per_cloud.shape == (2, 3)
    w = arr(params.gate_mlp[0][0].weight)
    expect = 1.0 / (1.0 + np.exp(-(w.T @ s.reshape(2, 3, 2).mean(axis=2))))
    assert np.abs(per_cloud - expect).max() < 1e-12
    with pytest.raises(ParameterError):
        reweighting_factors(s, params, groups=4)
    with pytest.raises(ParameterError):
        reweighting_factors(np.zeros((2, 0)), params)


def test_vector_update_toggle_and_factors():
    rng = np.random.default_rng(9)
    feat = rand_feature(2, 2, 5, 9)
    params = make_block(2, 2, 2, 3, reweight=False, with_norm=False)
    pure = arr(vector_mapping(feat.vectors, params.vector_map))
    assert np.array_equal(arr(svblock_forward(feat, params).vectors), pure)

    params.toggles.vector_reweight = True
    gated = vector_update(pure, reweighting_factors(feat.scalars, params))
    assert np.array_equal(arr(svblock_forward(feat, params).vectors), arr(gated))
    halved = arr(vector_update(pure, np.full(3, 0.5)))
    assert np.abs(halved - 0.5 * pure).max() < 1e-15
    per_group = rng.uniform(0.1, 0.9, (3, 5))  # one group per site
    assert np.array_equal(arr(vector_update(pure, per_group)), pure * per_group[None])
    with pytest.raises(ParameterError):
        vector_update(pure, np.ones(4))
    with pytest.raises(ParameterError):
        vector_update(pure, np.ones((3, 2)))


def test_vector_update_equivariant():
    rng = np.random.default_rng(10)
    params = make_block(2, 3, 2, 2)
    v = rng.standard_normal((3, 3, 6))
    factors = rng.uniform(0.1, 0.9, 2)
    base = arr(vector_update(vector_mapping(v, params.vector_map), factors))
    for seed in range(100):
        rot = random_rotation(seed)
        got = arr(vector_update(vector_mapping(rotate_vectors(v, rot), params.vector_map),
                                factors))
        assert np.abs(got - rotate_vectors(base, rot)).max() < 1e-12


# ---------------------------------------------------------------------------
# normalization


def test_norm_identity_when_stats_are_neutral():
    q = 3
    norm = NormParams.create(0, q)
    rng = np.random.default_rng(11)
    v = rng.standard_normal((3, q, 40))
    norms = np.linalg.norm(v, axis=0)
    v = v / norms.mean(axis=1)[None, :, None]  # unit batch-mean norm per channel
    feat = SVFeature(scalars=np.zeros((0, 40)), vectors=v)
    out = equivariant_norm(feat, "train", norm)
    assert np.abs(arr(out.vectors) - v).max() < 1e-4  # eps in the denominator


def test_norm_absorbs_vector_scale():
    norm_a = NormParams.create(2, 2)
    norm_b = NormParams.create(2, 2)
    feat = rand_feature(2, 2, 30, 12)
    out_a = equivariant_norm(feat, "train", norm_a)
    scaled = SVFeature(scalars=arr(feat.scalars), vectors=10.0 * arr(feat.vectors))
    out_b = equivariant_norm(scaled, "train", norm_b)
    assert np.abs(arr(out_b.vectors) - arr(out_a.vectors)).max() < 1e-4


def test_norm_scalar_standardizes():
    norm = NormParams.create(2, 0)
    feat = SVFeature(scalars=np.random.default_rng(13).standard_normal((2, 200)) * 5 + 3,
                     vectors=np.zeros((3, 0, 200)))
    out = arr(equivariant_norm(feat, "train", norm).scalars)
    assert np.abs(out.mean(axis=1)).max() < 1e-12
    assert np.abs(out.std(axis=1) - 1.0).max() < 1e-4


def test_norm_rotation_commutes():
    feat = rand_feature(2, 3, 25, 14)
    for seed in range(30):
        rot = random_rotation(seed)
        na, nb = NormParams.create(2, 3), NormParams.create(2, 3)
        base = equivariant_norm(feat, "train", na)
        rotated = equivariant_norm(rotate_feature(feat, rot), "train", nb)
        assert np.array_equal(arr(rotated.scalars), arr(base.scalars))
        assert np.abs(arr(rotated.vectors) - rotate_vectors(arr(base.vectors), rot)).max() < 1e-12


def test_norm_eval_uses_running_stats():
    norm = NormParams.create(2, 2)
    feat = rand_feature(2, 2, 50, 15)
    for _ in range(200):
        equivariant_norm(feat, "train", norm)
    train_out = equivariant_norm(feat, "train", norm)
    eval_out = equivariant_norm(feat, "eval", norm)
    # after convergence of the running stats both paths agree closely
    assert np.abs(arr(eval_out.scalars) - arr(train_out.scalars)).max() < 1e-4
    assert np.abs(arr(eval_out.vectors) - arr(train_out.vectors)).max() < 1e-4
    with pytest.raises(ParameterError):
        equivariant_norm(feat, "test", norm)


# ---------------------------------------------------------------------------
# the block


def test_block_zero_vectors_stay_zero():
    params = make_block(2, 2, 3, 2)
    feat = SVFeature(scalars=np.random.default_rng(16).standard_normal((2, 8)),
                     vectors=np.zeros((3, 2, 8)))
    out = svblock_forward(feat, params, stats_mode="train")
    assert (arr(out.vectors) == 0.0).all()


def test_block_equivariance_fp():
    params = make_block(2, 3, 4, 3, seed=17)
    feat = rand_feature(2, 3, 12, 18)
    base = svblock_forward(feat, params, stats_mode="eval")
    worst_s = worst_v = 0.0
    for seed in range(100):
        rot = random_rotation(seed)
        got = svblock_forward(rotate_feature(feat, rot), params, stats_mode="eval")
        worst_s = max(worst_s, np.abs(arr(got.scalars) - arr(base.scalars)).max())
        worst_v = max(worst_v, np.abs(
            arr(got.vectors) - rotate_vectors(arr(base.vectors), rot)).max())
    assert worst_s < 1e-11, worst_s
    assert worst_v < 1e-11, worst_v


def test_block_bit_exact_under_signed_perms():
    params = make_block(2, 3, 4, 3, seed=19)
    feat = rand_feature(2, 3, 12, 20)
    base = svblock_forward(feat, params, stats_mode="eval")
    for i in range(24):
        rot = signed_permutation_rotation(i)
        got = svblock_forward(rotate_feature(feat, rot), params, stats_mode="eval")
        assert np.array_equal(arr(got.scalars), arr(base.scalars)), f"rotation {i}"
        assert np.array_equal(arr(got.vectors),
                              rotate_vectors(arr(base.vectors), rot)), f"rotation {i}"


def test_block_stack_equivariance():
    # composition keeps the property at the same tolerance scale
    blocks = [make_block(2, 2, 3, 3, seed=21), make_block(3, 3, 4, 2, seed=22)]
    feat = rand_feature(2, 2, 10, 23)

    def run(f):
        for b in blocks:
            f = svblock_forward(f, b, stats_mode="eval")
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
    base = svblock_forward(feat, params, stats_mode="eval")
    perm = np.random.default_rng(26).permutation(9)
    shuffled = SVFeature(scalars=arr(feat.scalars)[:, perm],
                         vectors=arr(feat.vectors)[:, :, perm])
    got = svblock_forward(shuffled, params, stats_mode="eval")
    assert np.abs(arr(got.scalars) - arr(base.scalars)[:, perm]).max() < 1e-12
    assert np.abs(arr(got.vectors) - arr(base.vectors)[:, :, perm]).max() < 1e-12


def test_block_gate_uses_input_scalars_per_group():
    params = make_block(2, 2, 3, 2, seed=27)
    feat = rand_feature(2, 2, 12, 28)
    grouped = svblock_forward(feat, params, stats_mode="eval", groups=3)
    whole = svblock_forward(feat, params, stats_mode="eval", groups=1)
    # different pooling extents must change the gating
    assert not np.allclose(arr(grouped.vectors), arr(whole.vectors))
    with pytest.raises(ParameterError):
        svblock_forward(feat, params, stats_mode="eval", groups=5)


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
    graph = KnnGraph(k=2, neighbors=np.array([[1, 2], [0, 3], [3, 0], [2, 1]]))
    out = regroup_edges(feat, graph)
    assert (out.p, out.q, out.n_sites) == (4, 4, 8)
    s = arr(feat.scalars)
    got = arr(out.scalars)
    for i in range(4):
        for slot in range(2):
            j = graph.neighbors[i, slot]
            edge = i * 2 + slot
            assert np.array_equal(got[:2, edge], s[:, i])
            assert np.array_equal(got[2:, edge], s[:, j] - s[:, i])


def test_regroup_same_features_zero_difference():
    feat = SVFeature(scalars=np.ones((2, 3)), vectors=np.ones((3, 1, 3)))
    graph = KnnGraph(k=1, neighbors=np.array([[1], [2], [0]]))
    out = regroup_edges(feat, graph)
    assert (arr(out.scalars)[2:] == 0.0).all()
    assert (arr(out.vectors)[:, 1:] == 0.0).all()


def test_regroup_equivariant():
    feat = rand_feature(2, 2, 5, 33)
    graph = KnnGraph(k=2, neighbors=np.array([[1, 2], [0, 3], [4, 0], [2, 1], [3, 0]]))
    base = regroup_edges(feat, graph)
    for seed in range(20):
        rot = random_rotation(seed)
        got = regroup_edges(rotate_feature(feat, rot), graph)
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
        LinearParams(weight=np.full((2, 2), np.inf))
    with pytest.raises(ParameterError):
        LinearParams(weight=np.ones((2, 2)), gamma=np.array([np.nan, 1.0]))
