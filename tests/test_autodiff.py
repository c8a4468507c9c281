"""Reverse-mode engine: primitives, tape semantics, optimizer, FD harness."""

import numpy as np
import pytest

import svpoint.autodiff as ad
from svpoint.errors import ParameterError, StateError
from svpoint.svcore import LinearParams


def weighted(op, seed=0):
    """Wrap an array-valued op into a scalar one with fixed random weights."""
    rng = np.random.default_rng(seed)
    cache = {}

    def scalar_op(*inputs):
        out = op(*inputs)
        if "w" not in cache:
            cache["w"] = ad.as_tensor(rng.standard_normal(out.data.shape))
        return (out * cache["w"]).sum()

    return scalar_op


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
    got = ad.sorted_coord_sum(arr, axis=1)
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
        loss = (ad.transpose(w) @ x).sum()
    tape.backward(loss)
    # d/dW of sum(W^T x) distributes each row sum of x across output columns
    expect = np.repeat(x.data.sum(axis=1)[:, None], 2, axis=1)
    assert np.abs(w.grad - expect).max() < 1e-12


def test_backward_fanout_accumulates():
    x = ad.parameter(np.array([3.0]))
    with ad.Tape() as tape:
        y = x + x
        loss = y.sum()
    tape.backward(loss)
    assert x.grad[0] == 2.0


def test_backward_requires_recording():
    with pytest.raises(StateError):
        ad.Tape().backward(ad.as_tensor(1.0))
    x = ad.parameter(np.ones(2))
    with ad.Tape() as tape:
        _ = x + 1.0
    loose = ad.as_tensor(np.ones(2)) + 0.0  # built outside any tape
    with pytest.raises(StateError):
        tape.backward(loose)


def test_tape_is_single_use():
    x = ad.parameter(np.array([3.0]))
    with ad.Tape() as tape:
        loss = (x * x).sum()
    tape.backward(loss)
    assert x.grad[0] == 6.0
    with pytest.raises(StateError, match="backward already ran on this tape"):
        tape.backward(loss)
    assert x.grad[0] == 6.0


def test_backward_releases_every_node():
    """The sweep leaves no gradient or closure on a recorded node; leaf
    gradients are those of the analytic formula, fan-out included."""
    rng = np.random.default_rng(4)
    w = ad.parameter(rng.standard_normal(5))
    b = ad.parameter(rng.standard_normal(5))
    x = ad.as_tensor(rng.standard_normal(5))
    with ad.Tape() as tape:
        y = w * x + b
        loss = (y * y + w).sum()
    tape.backward(loss)
    assert len(tape.nodes) == 5
    assert all(node.grad is None and node._grad_fn is None for node in tape.nodes)
    y_ref = w.data * x.data + b.data
    assert np.abs(w.grad - (2.0 * y_ref * x.data + 1.0)).max() < 1e-12
    assert np.abs(b.grad - 2.0 * y_ref).max() < 1e-12


def test_backward_peak_memory_frees_consumed_gradients():
    """A chain of 12 products sweeps in a few live arrays, not one per node."""
    import tracemalloc

    p = ad.parameter(np.random.default_rng(5).standard_normal(10**6))
    with ad.Tape() as tape:
        y = p
        for _ in range(12):
            y = y * 1.001
        loss = y.sum()
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(p.grad - 1.001**12).max() < 1e-12
    assert peak <= 4 * p.data.nbytes


def test_no_tape_means_no_recording():
    x = ad.parameter(np.ones(3))
    y = (x * 2.0).sum()
    assert y._grad_fn is None and not y.requires_grad


def test_relu_zero_subgradient():
    x = ad.parameter(np.array([-1.0, 0.0, 2.0]))
    with ad.Tape() as tape:
        loss = ad.relu(x).sum()
    tape.backward(loss)
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_sign_ste_band_exact():
    x = ad.parameter(np.arange(-2.0, 2.0001, 0.05))
    g = np.random.default_rng(3).standard_normal(x.data.shape)
    with ad.Tape() as tape:
        out = ad.sign_ste(x)
        loss = (out * ad.as_tensor(g)).sum()
    tape.backward(loss)
    expect = np.where((x.data > -1.2) & (x.data < 1.2), g, 0.0)
    assert np.array_equal(x.grad, expect)
    assert np.array_equal(out.data, np.where(x.data >= 0, 1.0, -1.0))


def test_sign_ste_outside_clip_blocks():
    x = ad.parameter(np.array([2.0]))
    with ad.Tape() as tape:
        loss = ad.sign_ste(x).sum()
    tape.backward(loss)
    assert x.grad[0] == 0.0


# ---------------------------------------------------------------------------
# finite differences on every smooth primitive


def rand_t(shape, seed):
    return ad.parameter(np.random.default_rng(seed).standard_normal(shape))


def test_fd_elementwise_ops():
    x = rand_t((4, 6), 10)
    y = rand_t((4, 6), 11)
    cases = [
        (lambda a, b: (a + b).sum(), [x, y], 1e-8),
        (lambda a, b: (a - b).sum(), [x, y], 1e-8),
        (lambda a, b: (a * b).sum(), [x, y], 1e-7),
        (lambda a, b: (a / (b * b + 1.0)).sum(), [x, y], 1e-6),
        (lambda a: ad.sigmoid(a).sum(), [rand_t((5,), 12)], 1e-6),
        (lambda a: ad.exp(a).sum(), [rand_t((5,), 13)], 1e-6),
        (lambda a: ad.sqrt(a * a + 1.0).sum(), [rand_t((5,), 14)], 1e-6),
        (lambda a: ad.relu(a + 0.3).sum(), [rand_t((6,), 15)], 1e-6),
    ]
    for i, (op, inputs, tol) in enumerate(cases):
        rel = ad.finite_difference_check(op, inputs)
        assert rel <= tol, f"case {i}: {rel}"


def test_fd_linear_is_tight():
    # linearity admits a much tighter bound than the smooth-op 1e-4
    w = rand_t((3, 4), 16)
    x = rand_t((3, 7), 17)
    rel = ad.finite_difference_check(lambda w, x: (ad.transpose(w) @ x).sum(), [w, x])
    assert rel <= 1e-9


def test_fd_structural_ops():
    x = rand_t((4, 6), 20)
    cases = [
        lambda a: ad.reshape(a, (2, 12)).sum(),
        lambda a: ad.concat([a, a * 2.0], axis=0).sum(),
        lambda a: ad.transpose(a).mean(),
        lambda a: (ad.tsum(a, axis=1) * ad.as_tensor(np.arange(4.0))).sum(),
        lambda a: (ad.tmean(a, axis=0) * ad.as_tensor(np.arange(6.0))).sum(),
    ]
    for i, op in enumerate(cases):
        rel = ad.finite_difference_check(op, [x])
        assert rel <= 1e-8, f"case {i}: {rel}"


def test_fd_pooling_ops():
    x = rand_t((3, 12), 21)
    w6 = ad.as_tensor(np.random.default_rng(22).standard_normal((3, 6)))
    w12 = ad.as_tensor(np.random.default_rng(23).standard_normal((3, 12)))
    rel = ad.finite_difference_check(lambda a: (ad.pool_groups(a, 2, "mean") * w6).sum(), [x])
    assert rel <= 1e-8
    rel = ad.finite_difference_check(lambda a: (ad.pool_groups(a, 2, "max") * w6).sum(), [x])
    assert rel <= 1e-6
    y = rand_t((3, 4), 24)
    rel = ad.finite_difference_check(lambda a: (ad.expand_groups(a, 3) * w12).sum(), [y])
    assert rel <= 1e-8
    idx = np.array([5, 0, 0, 7, 2, 11])
    wt = ad.as_tensor(np.random.default_rng(25).standard_normal((3, 6)))
    rel = ad.finite_difference_check(lambda a: (ad.take_sites(a, idx) * wt).sum(), [x])
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
            out = ad.take_sites(x, idx)
            loss = (out * ad.as_tensor(g)).sum()
        tape.backward(loss)
        ref = np.zeros(shape)
        np.add.at(ref, (..., idx), g)
        assert x.grad.shape == shape
        scale = max(float(np.abs(ref).max(initial=0.0)), 1.0)
        assert np.abs(x.grad - ref).max() <= 1e-12 * scale, (shape, idx)


def edge_pairs_unfused(x, neighbors, axis):
    """Reference composition that edge_pairs fuses: gathers, a difference, a concat."""
    n, k = neighbors.shape
    x_i = ad.take_sites(x, np.repeat(np.arange(n), k))
    x_j = ad.take_sites(x, neighbors.reshape(-1))
    return ad.concat([x_i, ad.sub(x_j, x_i)], axis=axis)


def test_edge_pairs_matches_unfused_composition():
    """Forward values and strides and the backward gradient equal the
    take_sites/sub/concat composition bit for bit, across repeated
    neighbors, on sites-major inputs as the model produces them."""
    rng = np.random.default_rng(60)
    n, q, k = 2 * ad.CHUNK_SITES + 17, 42, 4
    neighbors = rng.integers(0, n, (n, k))
    neighbors[::7, 1] = neighbors[::7, 0]  # the same neighbor twice
    neighbors[::5, 2] = np.arange(0, n, 5)  # a node as its own neighbor
    cases = [(rng.standard_normal((n, 3, q)).transpose(1, 2, 0), 1),
             (rng.standard_normal((n, q)).T, 0)]
    for data, axis in cases:
        x_fused, x_ref = ad.parameter(data.copy()), ad.parameter(data.copy())
        g = rng.standard_normal(data.shape[:-2] + (2 * q, n * k))
        with ad.Tape() as tape:
            fused = ad.edge_pairs(x_fused, neighbors)
            loss = (fused * ad.as_tensor(g)).sum()
        tape.backward(loss)
        with ad.Tape() as tape:
            ref = edge_pairs_unfused(x_ref, neighbors, axis)
            loss = (ref * ad.as_tensor(g)).sum()
        tape.backward(loss)
        assert np.array_equal(fused.data, ref.data)
        assert fused.data.strides == ref.data.strides
        assert np.array_equal(x_fused.grad, x_ref.grad)


def test_fd_edge_pairs():
    x = rand_t((3, 2, 6), 61)
    neighbors = np.array([[1, 1], [0, 5], [2, 3], [5, 0], [4, 4], [3, 1]])
    rel = ad.finite_difference_check(weighted(lambda a: ad.edge_pairs(a, neighbors), 62), [x])
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
    assert np.array_equal(out, ad.sorted_coord_sum(a[:, :, None] * b[:, None], axis=0))
    for index in range(24):
        matrix = signed_permutation_rotation(index).matrix
        rotated = ad.pair_contract(cube_act(matrix, a), cube_act(matrix, b)).data
        assert np.array_equal(rotated, out), f"rotation {index}"

    v = rng.standard_normal((3, q, n))
    log_scale = rng.standard_normal(q) * 0.1
    norms = np.sqrt(ad.sorted_coord_sum(v * v, axis=0))
    mean_norm = norms.mean(axis=1)
    scaled, got_mean = ad.vector_norm_scale_train(v, log_scale, 1e-5)
    assert np.array_equal(got_mean, mean_norm)
    assert np.array_equal(scaled.data, v * (np.exp(log_scale) / (mean_norm + 1e-5))[None, :, None])
    assert np.array_equal(ad.vector_norms(v).data, norms)


def test_fused_primitive_peak_allocations():
    """The chunked contraction never builds its (3, a, q, N) product, and the
    batch-norm backward works in two full-size buffers."""
    import tracemalloc

    rng = np.random.default_rng(29)

    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    a = rng.standard_normal((3, 3, 32768))
    b = rng.standard_normal((3, 42, 32768))
    out_bytes = 3 * 42 * 32768 * 8
    assert traced_peak(ad.pair_contract, a, b) <= 1.5 * out_bytes

    x = ad.parameter(rng.standard_normal((130, 32768)))
    gain, bias = ad.parameter(np.ones(130)), ad.parameter(np.zeros(130))
    with ad.Tape():
        out, _, _ = ad.batch_norm_train(x, gain, bias, 1e-5)
    g = rng.standard_normal(out.data.shape)
    assert traced_peak(out._grad_fn, g) <= 2.25 * x.data.nbytes


def test_fd_vector_feature_ops():
    v = rand_t((3, 4, 9), 30)
    w = rand_t((4, 5), 31)
    rel = ad.finite_difference_check(weighted(ad.vector_map_raw, 32), [v, w])
    assert rel <= 1e-7
    a = rand_t((3, 3, 9), 33)
    rel = ad.finite_difference_check(weighted(ad.pair_contract, 34), [a, v])
    assert rel <= 1e-7
    rel = ad.finite_difference_check(weighted(ad.vector_norms, 35), [v])
    assert rel <= 1e-6


def test_fd_fused_normalization():
    x = rand_t((5, 40), 40)
    gain = ad.parameter(np.random.default_rng(41).standard_normal(5) * 0.3 + 1.0)
    bias = ad.parameter(np.random.default_rng(42).standard_normal(5) * 0.2)
    rel = ad.finite_difference_check(
        weighted(lambda x, g, b: ad.batch_norm_train(x, g, b, 1e-5)[0], 43),
        [x, gain, bias],
    )
    assert rel <= 1e-6
    v = rand_t((3, 4, 30), 44)
    ls = ad.parameter(np.random.default_rng(45).standard_normal(4) * 0.1)
    rel = ad.finite_difference_check(
        weighted(lambda v, s: ad.vector_norm_scale_train(v, s, 1e-5)[0], 46),
        [v, ls],
    )
    assert rel <= 1e-6


def test_fd_mode_aware_linears():
    params = LinearParams(weight=ad.parameter(np.random.default_rng(50).standard_normal((4, 3))),
                          bias=ad.parameter(np.zeros(3)))
    x = rand_t((4, 8), 51)
    rel = ad.finite_difference_check(
        weighted(lambda x, *_: ad.scalar_linear(x, params), 52),
        [x, params.weight, params.bias],
    )
    assert rel <= 1e-7
    vparams = LinearParams(weight=ad.parameter(np.random.default_rng(53).standard_normal((4, 2))))
    v = rand_t((3, 4, 8), 54)
    rel = ad.finite_difference_check(
        weighted(lambda v, *_: ad.vector_linear(v, vparams), 55), [v, vparams.weight]
    )
    assert rel <= 1e-7


def test_fd_cross_entropy():
    logits = rand_t((4, 6), 60)
    labels = np.array([0, 1, 2, 3, 1, 2])
    rel = ad.finite_difference_check(lambda z: ad.cross_entropy_logits(z, labels), [logits])
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
        ad.vector_linear(ad.as_tensor(np.ones((3, 2, 4))), params)


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
        loss = (store.params["w"] * 3.0).sum()
    tape.backward(loss)
    ad.adam_step(store, lr=0.1)
    assert store.params["w"].data[0] != 1.0
    with pytest.raises(ParameterError):
        step_with_grad(store, np.zeros(5), lr=0.1)


def test_param_store_unique_names():
    store = make_store([0.0])
    with pytest.raises(ParameterError):
        store.add("w", ad.parameter(np.zeros(1)))
    store.reset_optimizer()
    assert store.step_count == 0 and not store.moment1


# ---------------------------------------------------------------------------
# schedules


def test_lr_schedule_cosine_endpoints():
    assert ad.lr_schedule("cosine", 0, 60, 1e-3) == 1e-3
    assert ad.lr_schedule("cosine", 60, 60, 1e-3) == 0.0
    mid = ad.lr_schedule("cosine", 30, 60, 1e-3)
    assert abs(mid - 5e-4) < 1e-18


def test_lr_schedule_multistep():
    got = ad.lr_schedule("multistep", 40, 100, 0.001)
    assert abs(got - 0.00049) < 1e-15
    assert ad.lr_schedule("multistep", 19, 100, 0.001) == 0.001


def test_lr_schedule_validation():
    with pytest.raises(ParameterError):
        ad.lr_schedule("cosine", 61, 60, 1e-3)
    with pytest.raises(ParameterError):
        ad.lr_schedule("linear", 0, 60, 1e-3)


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
                z = ad.add(ad.transpose(w) @ x, ad.reshape(b, (3, 1)))
                loss = ad.cross_entropy_logits(z, labels)
            tape.backward(loss)
            ad.adam_step(store, lr=1e-2)
            losses.append(loss.item())
        return losses

    assert run() == run()
