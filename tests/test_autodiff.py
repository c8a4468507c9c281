"""Reverse-mode engine: primitives, tape semantics, optimizer, finite-difference checks."""

import numpy as np
import pytest

import svpoint.autodiff as ad
from helpers import (batch_norm_textbook, finite_difference_check, gated_norm_chain, same_bits,
                     total, traced_peak, vector_norm_textbook, weighted, weighted_sum)
from svpoint.errors import ParameterError, StateError
from svpoint.svcore import LinearParams, NormParams, eval_norm, scalar_linear, vector_mapping


# ---------------------------------------------------------------------------
# order-insensitive 3-sum


def test_sorted_coord_sum_permutation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(300):
        triple = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4)
        base = ad.sorted_coord_sum(triple.reshape(3, 1))[0]
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert ad.sorted_coord_sum(triple[list(perm)].reshape(3, 1))[0] == base


def test_sorted_coord_sum_correct_value():
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((5, 3, 7))
    got = ad.sorted_coord_sum(np.moveaxis(arr, 1, 0))
    assert np.abs(got - arr.sum(axis=1)).max() < 1e-12
    assert ad.sorted_coord_sum(np.array([1.0, -2.0, 4.0])) == 3.0


def test_sorted_coord_sum_needs_length_three():
    with pytest.raises(ParameterError):
        ad.sorted_coord_sum(np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_linear_gradient():
    w = ad.parameter(np.zeros((3, 2)))
    x = ad.as_tensor(np.random.default_rng(2).standard_normal((3, 5)))
    with ad.Tape() as tape:
        loss = total(ad.matmul(ad.transpose(w), x))
    tape.backward(loss)
    # d/dW of sum(W^T x) distributes each row sum of x across output columns
    expect = np.repeat(x.data.sum(axis=1)[:, None], 2, axis=1)
    assert np.abs(w.grad - expect).max() < 1e-12


def test_backward_fanout_accumulates():
    x = ad.parameter(np.array([3.0]))
    with ad.Tape() as tape:
        loss = total(ad.concat([x, x]))
    tape.backward(loss)
    assert x.grad[0] == 2.0


def test_backward_requires_recording():
    with pytest.raises(StateError):
        ad.Tape().backward(ad.as_tensor(1.0))
    x = ad.parameter(np.ones(2))
    with ad.Tape() as tape:
        _ = ad.mul(x, 1.0)
    loose = ad.mul(np.ones(2), 1.0)  # built outside any tape
    with pytest.raises(StateError):
        tape.backward(loose)


def test_tape_is_single_use():
    x = ad.parameter(np.array([3.0]))
    with ad.Tape() as tape:
        loss = total(ad.mul(x, x))
    tape.backward(loss)
    assert x.grad[0] == 6.0
    with pytest.raises(StateError, match="backward already ran on this tape"):
        tape.backward(loss)
    assert x.grad[0] == 6.0


def test_backward_releases_every_node():
    """The sweep lets go of every recorded node, so the tape ends empty,
    and leaves no gradient or closure on a node the caller holds; leaf
    gradients are those of the analytic formula, fan-out included."""
    rng = np.random.default_rng(4)
    w = ad.parameter(rng.standard_normal(5))
    b = ad.parameter(rng.standard_normal(5))
    x = ad.as_tensor(rng.standard_normal(5))
    with ad.Tape() as tape:
        y = ad.mul(ad.mul(w, x), b)
        loss = total(ad.concat([ad.mul(y, y), w]))
    assert len(tape.nodes) == 8  # three products, a concat; total's reshape, two matmuls, reshape
    tape.backward(loss)
    assert tape.nodes == []
    assert all(t.grad is None and t._grad_fn is None for t in (y, loss))
    y_ref = w.data * x.data * b.data
    assert np.abs(w.grad - (2.0 * y_ref * x.data * b.data + 1.0)).max() < 1e-12
    assert np.abs(b.grad - 2.0 * y_ref * w.data * x.data).max() < 1e-12


def test_backward_peak_memory_frees_consumed_gradients():
    """A chain of 12 products sweeps in a few live arrays, not one per node."""
    p = ad.parameter(np.random.default_rng(5).standard_normal(10**6))
    with ad.Tape() as tape:
        y = p
        for _ in range(12):
            y = ad.mul(y, 1.001)
        loss = total(y)
    peak, _ = traced_peak(tape.backward, loss)
    assert np.abs(p.grad - 1.001**12).max() < 1e-12
    assert peak <= 4 * p.data.nbytes


def test_no_tape_means_no_recording():
    x = ad.parameter(np.ones(3))
    y = total(ad.mul(x, 2.0))
    assert y._grad_fn is None and not y.requires_grad


def test_relu_zero_subgradient():
    x = ad.parameter(np.array([-1.0, 0.0, 2.0]))
    with ad.Tape() as tape:
        loss = total(ad.relu(x))
    tape.backward(loss)
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_sign_ste_band_exact():
    x = ad.parameter(np.arange(-2.0, 2.0001, 0.05))
    g = np.random.default_rng(3).standard_normal(x.data.shape)
    with ad.Tape() as tape:
        out = ad.sign_ste(x)
        loss = weighted_sum(out, g)
    tape.backward(loss)
    expect = np.where((x.data > -1.2) & (x.data < 1.2), g, 0.0)
    assert np.array_equal(x.grad, expect)
    assert np.array_equal(out.data, np.where(x.data >= 0, 1.0, -1.0))


def test_sign_ste_outside_clip_blocks():
    # NaN has no sign: it stays NaN in the forward and passes no gradient
    x = ad.parameter(np.array([2.0, np.nan]))
    with ad.Tape() as tape:
        out = ad.sign_ste(x)
        loss = total(out)
    tape.backward(loss)
    assert out.data[0] == 1.0 and np.isnan(out.data[1])
    assert x.grad.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# finite differences on every smooth primitive


def rand_t(shape, seed):
    return ad.parameter(np.random.default_rng(seed).standard_normal(shape))


def test_fd_elementwise_ops():
    x = rand_t((4, 6), 10)
    y = rand_t((4, 6), 11)
    shifted = ad.parameter(np.random.default_rng(15).standard_normal(6) + 0.3)
    cases = [
        (lambda a, b: total(ad.mul(a, b)), [x, y], 1e-7),
        (lambda a: total(ad.sigmoid(a)), [rand_t((5,), 12)], 1e-6),
        (lambda a: total(ad.relu(a)), [shifted], 1e-6),
    ]
    for i, (op, inputs, tol) in enumerate(cases):
        rel = finite_difference_check(op, inputs)
        assert rel <= tol, f"case {i}: {rel}"


def test_fd_linear_is_tight():
    # linear in each input, so central differences have no truncation error
    # at any step; a large step keeps the rounding noise eps*|loss|/h well
    # under the bound, which is much tighter than the smooth-op 1e-4
    w = rand_t((3, 4), 16)
    x = rand_t((3, 7), 17)
    rel = finite_difference_check(lambda w, x: total(ad.matmul(ad.transpose(w), x)), [w, x],
                                  h=1e-3)
    assert rel <= 1e-9


def test_fd_structural_ops():
    x = rand_t((4, 6), 20)
    cases = [
        lambda a: total(ad.reshape(a, (2, 12))),
        lambda a: total(ad.concat([a, ad.mul(a, 2.0)])),
        weighted(ad.transpose, 26),
    ]
    for i, op in enumerate(cases):
        rel = finite_difference_check(op, [x])
        assert rel <= 1e-8, f"case {i}: {rel}"


def test_fd_pooling_ops():
    x = rand_t((3, 12), 21)
    w6 = np.random.default_rng(22).standard_normal((3, 6))
    rel = finite_difference_check(lambda a: weighted_sum(ad.pool_groups(a, 2, "mean"), w6), [x])
    assert rel <= 1e-8
    rel = finite_difference_check(lambda a: weighted_sum(ad.pool_groups(a, 2, "max"), w6), [x])
    assert rel <= 1e-6
    idx = np.array([5, 0, 0, 7, 2, 11])
    wt = np.random.default_rng(25).standard_normal((3, 6))
    rel = finite_difference_check(lambda a: weighted_sum(ad.take_sites(a, idx), wt), [x])
    assert rel <= 1e-8


def test_take_sites_backward_matches_add_at():
    rng = np.random.default_rng(26)
    cases = [
        ((9,), np.array([4, 1, 4, 8, 0, 4, 1])),
        ((3, 9), np.array([7, 7, 2, 0, 8, 2, 2, 5, 7, 1])),
        ((3, 5, 9), rng.integers(0, 9, 40)),
        ((3, 5, 9), np.array([-1, 3, 8, -9, 0])),  # negative indices count from the end
        ((2, 9), np.array([], dtype=np.intp)),
    ]
    for shape, idx in cases:
        x = ad.parameter(rng.standard_normal(shape))
        g = rng.standard_normal(shape[:-1] + (idx.size,))
        with ad.Tape() as tape:
            loss = weighted_sum(ad.take_sites(x, idx), g)
        tape.backward(loss)
        ref = np.zeros(shape)
        np.add.at(ref, (..., idx), g)
        assert x.grad.shape == shape
        scale = max(float(np.abs(ref).max(initial=0.0)), 1.0)
        assert np.abs(x.grad - ref).max() <= 1e-12 * scale, (shape, idx)


def edge_pairs_unfused(x, neighbors, axis, g):
    """Reference in numpy for what edge_pairs fuses: the gathers, the
    difference and the concat, then the gradient of x for an output
    gradient g, scatter-added in index order (the neighbors' part first)."""
    n, k = neighbors.shape
    center, neigh = np.repeat(np.arange(n), k), neighbors.reshape(-1)
    x_i = x[..., center]
    out = np.concatenate([x_i, x[..., neigh] - x_i], axis=axis)
    c = x.shape[-2]
    g_diff = g[..., c:, :]
    grad = np.zeros(x.shape)
    np.add.at(grad, (..., neigh), g_diff)
    at_center = np.zeros(x.shape)
    np.add.at(at_center, (..., center), g[..., :c, :] + -g_diff)
    return out, grad + at_center


def test_edge_pairs_matches_unfused_composition():
    """Forward values and strides and the backward gradient equal the
    gathers/difference/concat composition bit for bit, across repeated
    neighbors, on sites-major inputs as the model produces them."""
    rng = np.random.default_rng(60)
    n, q, k = 2 * ad.CHUNK_SITES + 17, 42, 4
    neighbors = rng.integers(0, n, (n, k))
    neighbors[::7, 1] = neighbors[::7, 0]  # the same neighbor twice
    neighbors[::5, 2] = np.arange(0, n, 5)  # a node as its own neighbor
    cases = [(rng.standard_normal((n, 3, q)).transpose(1, 2, 0), 1),
             (rng.standard_normal((n, q)).T, 0)]
    for data, axis in cases:
        x_fused = ad.parameter(data.copy())
        g = rng.standard_normal(data.shape[:-2] + (2 * q, n * k))
        with ad.Tape() as tape:
            fused = ad.edge_pairs(x_fused, neighbors)
            loss = weighted_sum(fused, g)
        tape.backward(loss)
        ref, ref_grad = edge_pairs_unfused(data, neighbors, axis, g)
        assert np.array_equal(fused.data, ref)
        assert fused.data.strides == ref.strides
        assert same_bits(x_fused.grad, ref_grad)


def test_fd_edge_pairs():
    x = rand_t((3, 2, 6), 61)
    neighbors = np.array([[1, 1], [0, 5], [2, 3], [5, 0], [4, 4], [3, 1]])
    rel = finite_difference_check(weighted(lambda a: ad.edge_pairs(a, neighbors), 62), [x])
    assert rel <= 1e-8


def test_edge_pairs_rejects_bad_neighbors():
    x = np.zeros((2, 4))
    for bad in ([[1], [2], [3], [-1]], [[1], [2], [3], [4]]):
        with pytest.raises(ParameterError, match=r"outside \[0, 4\)"):
            ad.edge_pairs(x, np.array(bad))
    with pytest.raises(ParameterError, match="for 4 nodes"):
        ad.edge_pairs(x, np.array([[1], [2], [3]]))


def cube_act(matrix, arr):
    """R . arr for a signed permutation R, by slice indexing and negation (no float product)."""
    cols = np.abs(matrix).argmax(axis=1)
    return np.stack([arr[j] if matrix[i, j] > 0 else -arr[j] for i, j in enumerate(cols)])


def test_vector_map_raw_exact_under_cube_rotations_at_scale():
    """Signed permutations of the coordinates commute with the map bit for bit
    at benchmark scale, where BLAS blocks and threads the GEMMs."""
    from svpoint.geometry import signed_permutation_rotation

    rng = np.random.default_rng(27)
    v = rng.standard_normal((3, 42, 32768))
    w = rng.standard_normal((42, 42))
    out = ad.vector_map_raw(v, w).data
    for index in range(24):
        matrix = signed_permutation_rotation(index).matrix
        rotated = ad.vector_map_raw(cube_act(matrix, v), w).data
        assert np.array_equal(rotated, cube_act(matrix, out)), f"rotation {index}"


def test_pair_contract_exact_at_scale():
    """Across site-chunk boundaries the chunked contraction equals the unfused
    product-then-sum bit for bit, on sites-major edge vectors as `take_sites`
    lays them out, and is unchanged by the cube's rotations. (The fingerprint
    configs have too few sites to fill one chunk.)"""
    from svpoint.geometry import signed_permutation_rotation

    rng = np.random.default_rng(28)
    n, q = 2 * ad.CHUNK_SITES + 17, 42
    a = rng.standard_normal((3, 3, n))
    b = rng.standard_normal((n, 3, q)).transpose(1, 2, 0)
    out = ad.pair_contract(a, b).data
    assert np.array_equal(out, ad.sorted_coord_sum(a[:, :, None] * b[:, None]))
    for index in range(24):
        matrix = signed_permutation_rotation(index).matrix
        rotated = ad.pair_contract(cube_act(matrix, a), cube_act(matrix, b)).data
        assert np.array_equal(rotated, out), f"rotation {index}"

    v = rng.standard_normal((3, q, n))
    log_scale = rng.standard_normal(q) * 0.1
    norms = np.sqrt(ad.sorted_coord_sum(v * v))
    mean_norm = norms.mean(axis=1)
    scaled, got_mean = ad.vector_norm_scale_train(v, log_scale, 1e-5)
    assert np.array_equal(got_mean, mean_norm)
    assert np.array_equal(scaled.data, v * (np.exp(log_scale) / (mean_norm + 1e-5))[None, :, None])


def test_gated_vector_norm_scale_is_the_mul_chain_bit_for_bit():
    """Given gate factors, `vector_norm_scale_train` gives the bits of the
    ungated op followed by `mul` by the factors repeated over each group's
    sites (`helpers.gated_norm_chain`): output, mean norm, and the gradients
    of the map's input and weight, the log-scale and the factors, behind fp
    and binary_weight (γ) maps, over 1, 4 and one-site groups."""
    n, q_in, q = 96, 5, 4
    for binary in (False, True):
        for groups in (1, 4, n):
            rng = np.random.default_rng(70 + groups + binary)
            w0, gamma0 = rng.standard_normal((q_in, q)), rng.standard_normal(q)
            v0, log_scale0 = rng.standard_normal((3, q_in, n)), rng.standard_normal(q) * 0.3
            factors0, weights = rng.random((q, groups)), rng.standard_normal((3, q, n))
            runs = []
            for op in (ad.vector_norm_scale_train, gated_norm_chain):
                v, log_scale, factors = (ad.parameter(a) for a in (v0, log_scale0, factors0))
                params = LinearParams(weight=ad.parameter(w0))
                if binary:
                    params.mode, params.gamma = "binary_weight", ad.parameter(gamma0)
                with ad.Tape() as tape:
                    out, mean_norm = op(vector_mapping(v, params), log_scale, 1e-5, factors)
                    loss = weighted_sum(out, weights)
                tape.backward(loss)
                grads = [t.grad for t in (v, params.weight, log_scale, factors)]
                runs.append([out.data, mean_norm] + grads
                            + ([params.gamma.grad] if binary else []))
            for i, (got, want) in enumerate(zip(*runs)):
                assert same_bits(got, want), (binary, groups, i)


def test_vector_norm_scale_is_the_whole_array_formula_bit_for_bit():
    """The ungated op gives the whole-array formulas' output, mean norm and
    gradients of v and the log-scale bit for bit (`helpers.
    vector_norm_textbook`): with a zero-norm site, past numpy's 8192-item
    buffer, and with gradient rows that are all -0.0 in one coordinate and
    in a whole channel, whose sums start from +0.0."""
    rng = np.random.default_rng(39)
    for q, n in ((5, 96), (1, 7), (4, 9000)):
        v0, log_scale0 = rng.standard_normal((3, q, n)), rng.standard_normal(q) * 0.3
        v0[:, 0, 2] = 0.0
        v0[1, 0], v0[:, -1] = np.abs(v0[1, 0]), np.abs(v0[:, -1])  # so g * v rows are -0.0
        g = rng.standard_normal((3, q, n))
        g[1, 0] = -0.0
        g[:, -1] = -0.0
        v, log_scale = ad.parameter(v0), ad.parameter(log_scale0)
        with ad.Tape():
            out, mean_norm = ad.vector_norm_scale_train(v, log_scale, 1e-5)
        out._grad_fn(g)
        got = (out.data, mean_norm, v.grad, log_scale.grad)
        ref = vector_norm_textbook(v0, log_scale0, 1e-5, g)
        for name, a, b in zip(("out", "mean_norm", "v", "log_scale"), got, ref):
            assert same_bits(a, b), (q, n, name)
        assert same_bits(log_scale.grad[-1], 0.0)


def test_vector_norm_scale_backward_peak():
    """At (3, 42, 32768) the backward, gated by (42, 8) factors or not,
    builds the gradient of v and slab-sized buffers only: it peaks under
    twice v's bytes (the whole-array backward took 3.38 and 2.38 times)."""
    rng = np.random.default_rng(37)
    v = ad.parameter(rng.standard_normal((3, 42, 32768)))
    log_scale, g = ad.parameter(np.zeros(42)), rng.standard_normal(v.data.shape)
    for gate in (ad.parameter(rng.random((42, 8))), None):
        with ad.Tape():
            out, _ = ad.vector_norm_scale_train(v, log_scale, 1e-5, gate)
        v.grad = log_scale.grad = None
        peak, _ = traced_peak(out._grad_fn, g)
        assert peak <= 2 * v.data.nbytes, (gate is None, peak / v.data.nbytes)


def test_batch_norm_tiles_match_textbook_bit_for_bit():
    """Across several row tiles with a ragged last one, and across one-row
    tiles, the tiled op gives the whole-array formula's output, stats and
    three gradients bit for bit."""
    rng = np.random.default_rng(35)
    rows = ad.TILE_BYTES // (8 * 1000)
    assert 1 < rows < 37 and 37 % rows  # several tiles, the last one ragged
    assert 8 * 40000 > ad.TILE_BYTES  # one row per tile
    for p, n in ((37, 1000), (5, 40000)):
        data = rng.standard_normal((p, n)) * 3.0 + rng.standard_normal((p, 1))
        gain0, bias0 = rng.standard_normal(p) * 0.3 + 1.0, rng.standard_normal(p) * 0.2
        g = rng.standard_normal((p, n))
        x, gain, bias = ad.parameter(data), ad.parameter(gain0), ad.parameter(bias0)
        with ad.Tape() as tape:
            out, mean, var = ad.batch_norm_train(x, gain, bias, 1e-5)
            loss = weighted_sum(out, g)
        tape.backward(loss)
        ref = batch_norm_textbook(data, gain0, bias0, 1e-5, g)
        got = (out.data, mean, var, x.grad, gain.grad, bias.grad)
        for name, a, b in zip(("out", "mean", "var", "x", "gain", "bias"), got, ref):
            assert same_bits(a, b), (p, n, name)


def test_batch_norm_relu_is_relu_of_batch_norm_bit_for_bit():
    """relu=True gives `ad.relu` of the norm's output and its gradients bit
    for bit, with inputs at 0, -0.0 and NaN."""
    rng = np.random.default_rng(36)
    p, n = 6, 50
    data = rng.standard_normal((p, n))
    data[:, :2] = [0.0, -0.0]
    data[5, 2] = np.nan  # row 5's batch stats, and so its whole batch-norm row, are NaN
    data[:, 3] = 0.0
    gain0 = rng.standard_normal(p) * 0.3 + 1.0
    gain0[1::2] *= -1.0
    bias0 = rng.standard_normal(p) * 0.2
    bias0[:4] = [0.0, -0.0, 0.0, -0.0]
    g = rng.standard_normal((p, n))
    results = []
    for fused in (True, False):
        x, gain, bias = ad.parameter(data), ad.parameter(gain0), ad.parameter(bias0)
        with ad.Tape() as tape:
            out = ad.batch_norm_train(x, gain, bias, 1e-5, relu=fused)[0]
            if not fused:
                out = ad.relu(out)
            loss = weighted_sum(out, g)
        tape.backward(loss)
        results.append((out.data, x.grad, gain.grad, bias.grad))
    for name, a, b in zip(("out", "x", "gain", "bias"), *results):
        assert same_bits(a, b), name
    assert np.isnan(results[0][0][5]).all() and not np.isnan(results[0][0][:5]).any()


def test_eval_norm_is_the_textbook_running_norm_bit_for_bit():
    """`svcore.eval_norm`, in place on a whole product or on tiles of its
    sites, gives the textbook normalization by the running statistics bit
    for bit, then its ReLU when asked: with outputs of 0.0 and -0.0 at the
    kink, a NaN input and a NaN running mean, which fills its row."""
    rng = np.random.default_rng(39)
    p, n = 6, 50
    data = rng.standard_normal((p, n))
    data[:, 3] = 0.0  # the running mean below: xhat is 0, the output gain * 0 + bias
    data[4, 2] = np.nan
    norm = NormParams.create(p, 0)
    norm.scalar_gain.data[...] = rng.standard_normal(p) * 0.3 + 1.0
    norm.scalar_gain.data[1::2] *= -1.0
    norm.scalar_bias.data[...] = rng.standard_normal(p) * 0.2
    norm.scalar_bias.data[:4] = [0.0, -0.0, 0.0, -0.0]
    norm.running_var[...] = rng.random(p) + 0.5
    norm.running_mean[5] = np.nan
    stats = (norm.running_mean, norm.running_var)
    ref = batch_norm_textbook(data, norm.scalar_gain.data, norm.scalar_bias.data, 1e-5,
                              np.zeros((p, n)), stats)[0]
    assert same_bits(ref[:4, 3], [0.0, -0.0, 0.0, -0.0])  # the kink, at both zeros
    assert np.isnan(ref).sum(axis=1).tolist() == [0] * 4 + [1, n]
    for relu in (False, True):
        finish = eval_norm(norm, relu)
        whole, tiled = data.copy(), data.copy()
        finish(whole)
        for lo in range(0, n, 16):
            finish(tiled[:, lo:lo + 16])
        want = np.maximum(ref, 0.0) if relu else ref
        assert same_bits(whole, want) and same_bits(tiled, want), relu


def test_matmul_bias_matches_add_composition():
    """The bias added inside `matmul` gives the product-then-add result and
    every gradient bit for bit (the numpy of `transpose`, `matmul` and an
    added bias column), and a frozen operand gets none."""
    rng = np.random.default_rng(37)
    w0, x0, b0 = rng.standard_normal((7, 5)), rng.standard_normal((7, 300)), rng.standard_normal(5)
    g = rng.standard_normal((5, 300))
    w, x, b = ad.parameter(w0), ad.parameter(x0), ad.parameter(b0)
    with ad.Tape() as tape:
        out = ad.matmul(ad.transpose(w), x, b)
        loss = weighted_sum(out, g)
    tape.backward(loss)
    ref = (np.transpose(w0) @ x0 + b0[:, None], np.transpose(g @ x0.T), w0 @ g, g.sum(axis=1))
    for name, a, c in zip(("out", "w", "x", "bias"), (out.data, w.grad, x.grad, b.grad), ref):
        assert same_bits(a, c), name
    w, x = ad.parameter(w0), ad.as_tensor(x0)
    with ad.Tape() as tape:
        loss = weighted_sum(ad.matmul(ad.transpose(w), x, b0), g)
    tape.backward(loss)
    assert same_bits(w.grad, ref[1]) and x.grad is None
    with pytest.raises(ParameterError, match="bias of shape"):
        ad.matmul(w0.T, x0, np.zeros(7))


def test_fused_primitive_peak_allocations():
    """The chunked contraction never builds its (3, a, q, N) product, and the
    batch-norm backward works in two full-size buffers."""
    rng = np.random.default_rng(29)
    a = rng.standard_normal((3, 3, 32768))
    b = rng.standard_normal((3, 42, 32768))
    out_bytes = 3 * 42 * 32768 * 8
    assert traced_peak(ad.pair_contract, a, b)[0] <= 1.5 * out_bytes

    x = ad.parameter(rng.standard_normal((130, 32768)))
    gain, bias = ad.parameter(np.ones(130)), ad.parameter(np.zeros(130))
    with ad.Tape():
        out, _, _ = ad.batch_norm_train(x, gain, bias, 1e-5)
    g = rng.standard_normal(out.data.shape)
    assert traced_peak(out._grad_fn, g)[0] <= 2.25 * x.data.nbytes


def test_batch_norm_tiled_backward_peak():
    """The tiled backward allocates the input gradient and tile-sized
    buffers only, with and without ReLU."""
    rng = np.random.default_rng(38)
    x = ad.parameter(rng.standard_normal((130, 32768)))
    gain, bias = ad.parameter(np.ones(130)), ad.parameter(np.zeros(130))
    g = rng.standard_normal(x.data.shape)
    for relu in (False, True):
        with ad.Tape():
            out, _, _ = ad.batch_norm_train(x, gain, bias, 1e-5, relu=relu)
        x.grad = gain.grad = bias.grad = None
        peak, _ = traced_peak(out._grad_fn, g)
        assert peak <= 1.25 * x.data.nbytes, (relu, peak)


def test_fd_vector_feature_ops():
    v = rand_t((3, 4, 9), 30)
    w = rand_t((4, 5), 31)
    rel = finite_difference_check(weighted(ad.vector_map_raw, 32), [v, w])
    assert rel <= 1e-7
    a = rand_t((3, 3, 9), 33)
    rel = finite_difference_check(weighted(ad.pair_contract, 34), [a, v])
    assert rel <= 1e-7


def test_fd_fused_normalization():
    x = rand_t((5, 40), 40)
    gain = ad.parameter(np.random.default_rng(41).standard_normal(5) * 0.3 + 1.0)
    bias = ad.parameter(np.random.default_rng(42).standard_normal(5) * 0.2)
    rel = finite_difference_check(
        weighted(lambda x, g, b: ad.batch_norm_train(x, g, b, 1e-5)[0], 43),
        [x, gain, bias],
    )
    assert rel <= 1e-6
    rel = finite_difference_check(
        weighted(lambda x, g, b: ad.batch_norm_train(x, g, b, 1e-5, relu=True)[0], 48),
        [x, gain, bias],
    )
    assert rel <= 1e-6
    v = rand_t((3, 4, 30), 44)
    ls = ad.parameter(np.random.default_rng(45).standard_normal(4) * 0.1)
    rel = finite_difference_check(
        weighted(lambda v, s: ad.vector_norm_scale_train(v, s, 1e-5)[0], 46),
        [v, ls],
    )
    assert rel <= 1e-6


def test_fd_mode_aware_linears():
    params = LinearParams(weight=ad.parameter(np.random.default_rng(50).standard_normal((4, 3))),
                          bias=ad.parameter(np.zeros(3)))
    x = rand_t((4, 8), 51)
    rel = finite_difference_check(
        weighted(lambda x, *_: scalar_linear(x, params), 52),
        [x, params.weight, params.bias],
    )
    assert rel <= 1e-7
    rng = np.random.default_rng(56)
    biased = LinearParams(weight=ad.parameter(rng.standard_normal((4, 3))),
                          bias=ad.parameter(rng.standard_normal(3)))
    rel = finite_difference_check(
        weighted(lambda x, *_: scalar_linear(x, biased), 57),
        [x, biased.weight, biased.bias],
    )
    assert rel <= 1e-7
    frozen = LinearParams(weight=ad.parameter(rng.standard_normal((4, 3))),
                          bias=rng.standard_normal(3))
    rel = finite_difference_check(
        weighted(lambda x, *_: scalar_linear(x, frozen), 58), [x, frozen.weight]
    )
    assert rel <= 1e-7
    vparams = LinearParams(weight=ad.parameter(np.random.default_rng(53).standard_normal((4, 2))))
    v = rand_t((3, 4, 8), 54)
    rel = finite_difference_check(
        weighted(lambda v, *_: vector_mapping(v, vparams), 55), [v, vparams.weight]
    )
    assert rel <= 1e-7


def test_fd_cross_entropy():
    logits = rand_t((4, 6), 60)
    labels = np.array([0, 1, 2, 3, 1, 2])
    rel = finite_difference_check(lambda z: ad.cross_entropy_logits(z, labels), [logits])
    assert rel <= 1e-6


def test_cross_entropy_value():
    z = np.zeros((3, 2))
    loss = ad.cross_entropy_logits(ad.as_tensor(z), np.array([0, 2]))
    assert abs(loss.item() - np.log(3.0)) < 1e-12
    with pytest.raises(ParameterError):
        ad.cross_entropy_logits(ad.as_tensor(z), np.array([0, 1, 2]))


def test_vector_linear_rejects_binary_full():
    params = LinearParams(weight=np.ones((2, 2)), mode="binary_full",
                          beta=np.zeros(2), gamma=np.ones(2))
    with pytest.raises(ParameterError):
        vector_mapping(ad.as_tensor(np.ones((3, 2, 4))), params)


def test_pool_groups_validation():
    with pytest.raises(ParameterError):
        ad.pool_groups(ad.as_tensor(np.ones((2, 7))), 3, "mean")
    with pytest.raises(ParameterError):
        ad.pool_groups(ad.as_tensor(np.ones((2, 6))), 3, "median")


# ---------------------------------------------------------------------------
# optimizer


def make_store(value):
    store = ad.ParamStore()
    store.add("w", ad.parameter(np.array(value)))
    return store


def step_with_grad(store, grad, lr):
    store.params["w"].grad = np.array(grad)
    ad.adam_step(store, lr=lr)


def test_adam_zero_gradient_no_move():
    store = make_store([1.0, -2.0])
    step_with_grad(store, np.zeros(2), lr=0.1)
    assert store.params["w"].data.tolist() == [1.0, -2.0]


def test_adam_constant_gradient_step_size():
    store = make_store([0.0])
    for _ in range(300):
        step_with_grad(store, [1.0], lr=0.01)
    # with a constant gradient the normalized update settles at lr
    delta = store.params["w"].data[0]
    assert abs(delta + 300 * 0.01) < 0.05


def test_adam_matches_hand_recursion():
    store = make_store([0.5])
    grads = [0.3, -0.2, 0.7]
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    m = v = 0.0
    w = 0.5
    for t, g in enumerate(grads, 1):
        step_with_grad(store, [g], lr=lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert abs(store.params["w"].data[0] - w) < 1e-12


def test_adam_uses_tape_grads_and_checks_shapes():
    store = make_store([1.0])
    with ad.Tape() as tape:
        loss = total(ad.mul(store.params["w"], 3.0))
    tape.backward(loss)
    ad.adam_step(store, lr=0.1)
    assert store.params["w"].data[0] != 1.0
    with pytest.raises(ParameterError):
        step_with_grad(store, np.zeros(5), lr=0.1)


def test_adam_creates_each_moment_once(monkeypatch):
    """Adam allocates a parameter's two moments on its first step alone."""
    store = make_store([1.0, 2.0])
    step_with_grad(store, [0.5, -0.5], lr=0.1)
    moments = store.moment1["w"], store.moment2["w"]
    made = []
    monkeypatch.setattr(ad.np, "zeros_like", lambda a: made.append(a) or np.zeros(a.shape))
    step_with_grad(store, [0.5, -0.5], lr=0.1)
    assert made == []
    assert store.moment1["w"] is moments[0] and store.moment2["w"] is moments[1]


def test_param_store_unique_names():
    store = make_store([0.0])
    with pytest.raises(ParameterError):
        store.add("w", ad.parameter(np.zeros(1)))
    store.reset_optimizer()
    assert store.step_count == 0 and not store.moment1


# ---------------------------------------------------------------------------
# schedules


def test_lr_schedule_cosine_endpoints():
    assert ad.lr_schedule(0, 60, 1e-3) == 1e-3
    assert ad.lr_schedule(60, 60, 1e-3) == 0.0
    mid = ad.lr_schedule(30, 60, 1e-3)
    assert abs(mid - 5e-4) < 1e-18


def test_lr_schedule_validation():
    with pytest.raises(ParameterError, match="epoch 61 past schedule total 60"):
        ad.lr_schedule(61, 60, 1e-3)


# ---------------------------------------------------------------------------
# determinism


def test_training_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(7)
        store = ad.ParamStore()
        w = store.add("w", ad.parameter(rng.standard_normal((4, 3))))
        b = store.add("b", ad.parameter(np.zeros(3)))
        x = ad.as_tensor(rng.standard_normal((4, 10)))
        labels = rng.integers(0, 3, 10)
        losses = []
        for _ in range(5):
            store.zero_grad()
            with ad.Tape() as tape:
                z = ad.matmul(ad.transpose(w), x, b)
                loss = ad.cross_entropy_logits(z, labels)
            tape.backward(loss)
            ad.adam_step(store, lr=1e-2)
            losses.append(loss.item())
        return losses

    assert run() == run()
