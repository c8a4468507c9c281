"""Model assembly, op accounting, binarization planning, checkpoints."""

import errno
import io
import os
import struct
import time
import tracemalloc
import zipfile

import numpy as np
import pytest

import svpoint.autodiff as ad
import svpoint.binkernel as bk
import svpoint.cli as cli
import svpoint.netbuild as nb
from helpers import node_kinds, patch_eval_oracle, traced_peak
from svpoint.errors import CheckpointError, ConfigError, ParameterError, StateError
from svpoint.geometry import PointCloud


def small_cfg(**kw):
    base = dict(backbone="pointnet_like", k=4, channels=(16, 24),
                classes=3, head_dim=32)
    base.update(kw)
    return nb.ModelConfig(**base)


def random_clouds(count, n, seed):
    rng = np.random.default_rng(seed)
    return [PointCloud(points=rng.standard_normal((n, 3)), label=int(i % 3))
            for i in range(count)]


# ---------------------------------------------------------------------------
# channel splitting and op counting


def test_split_channels_standard_widths():
    assert nb.split_channels(64, 0.5) == (34, 10)
    assert nb.split_channels(128, 0.5) == (65, 21)
    assert nb.split_channels(256, 0.5) == (130, 42)
    assert nb.split_channels(64, 1.0) == (64, 0)
    assert nb.split_channels(64, 0.0) == (1, 21)


def test_split_channels_identity_property():
    for c in range(1, 300):
        for ratio in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            p, q = nb.split_channels(c, ratio)
            assert p + 3 * q == c
            assert p >= 0 and q >= 0
    with pytest.raises(ParameterError):
        nb.split_channels(0, 0.5)


def test_count_block_ops_vanilla():
    ctr = nb.count_block_ops(64, 128, 1024, "vanilla")
    assert ctr.macs == 1024 * 64 * 128
    assert ctr.adds == 0 and ctr.bops == 0


def test_count_block_ops_five_terms():
    fp = nb.count_block_ops(64, 128, 1024, "sv_fp")
    names = [name for name, _ in fp.per_layer]
    assert names == ["frame", "projection", "scalar_update", "gating", "vector_update"]
    frame = round(1.5 * 1024 * 64)
    scalar = 1024 * 64 * 128 // 2
    gate = round(64 * 128 / 12)
    vector = round(1024 * 64 * 128 / 12)
    assert fp.macs == frame + frame + scalar + gate + vector
    assert fp.adds == 0 and fp.bops == 0

    bi = nb.count_block_ops(64, 128, 1024, "sv_binary")
    assert bi.bops == scalar
    assert bi.adds == frame + vector
    assert bi.macs == frame + gate  # projection plus gating stay multiplies
    assert fp.macs == bi.macs + bi.adds + bi.bops


def test_count_block_ops_validation():
    with pytest.raises(ParameterError):
        nb.count_block_ops(-1, 4, 4, "vanilla")
    with pytest.raises(ParameterError):
        nb.count_block_ops(4, 4, 4, "int8")


def test_op_counter_totals_are_layer_sums():
    ctr = nb.count_block_ops(32, 48, 100, "sv_binary")
    for kind in ("macs", "adds", "bops"):
        assert getattr(ctr, kind) == sum(e[kind] for _, e in ctr.per_layer)


# ---------------------------------------------------------------------------
# configs


def test_config_defaults_per_backbone():
    assert nb.ModelConfig().channels == (64, 128, 256)
    assert nb.ModelConfig(backbone="dgcnn_like").channels == (64, 64, 128, 256)


def test_config_text_round_trip():
    cfg = small_cfg(sv_ratio=0.25, binarize="vanilla", scalar_concat=False)
    again = nb.ModelConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()


def test_config_rejects_bad_input():
    with pytest.raises(ConfigError):
        nb.ModelConfig(backbone="transformer")
    with pytest.raises(ConfigError):
        small_cfg(k=0)
    with pytest.raises(ConfigError):
        small_cfg(sv_ratio=1.5)
    with pytest.raises(ConfigError):
        small_cfg(classes=1)
    with pytest.raises(ConfigError):
        small_cfg(binarize="sometimes")
    with pytest.raises(ConfigError):
        nb.ModelConfig.from_text("[model]\nbackbone = pointnet_like\nwidth = 3\n")
    with pytest.raises(ConfigError):
        nb.ModelConfig.from_text("[net]\nbackbone = pointnet_like\n")
    with pytest.raises(ConfigError):
        nb.ModelConfig.from_text("[model]\nk = three\n")
    # an explicit empty plan once silently became the backbone's default
    for empty in ("", " ", ","):
        with pytest.raises(ConfigError, match="channels is empty"):
            nb.ModelConfig.from_text(f"[model]\nchannels ={empty}\n")
    with pytest.raises(ConfigError):
        nb.ModelConfig.from_file("/no/such/file.ini")
    # a user [state] section once steered how checkpoints were read back
    for extra in ("[state]\nbinarized = true\n", "[state]\nbinarized = false\n",
                  "[other]\n", "[DEFAULT]\nk = 8\n"):
        with pytest.raises(ConfigError, match=r"section \[\w+\] is not allowed") as info:
            nb.ModelConfig.from_text("[model]\nk = 4\n" + extra)
        assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# building


def test_build_is_deterministic_per_seed():
    a = nb.build_model(small_cfg(), rng_seed=0)
    b = nb.build_model(small_cfg(), rng_seed=0)
    c = nb.build_model(small_cfg(), rng_seed=1)
    names = [n for n, _ in a.store.items()]
    assert names == [n for n, _ in b.store.items()]
    for (_, ta), (_, tb) in zip(a.store.items(), b.store.items()):
        assert np.array_equal(ta.data, tb.data)
    assert any(not np.array_equal(ta.data, tc.data)
               for (_, ta), (_, tc) in zip(a.store.items(), c.store.items()))


def test_build_draws_glorot_in_layer_order():
    """Each weight is Glorot-uniform from one stream, drawn in `Model.layers`
    order, zero-width layers included; the layout alone is all zeros."""
    cases = [small_cfg(), small_cfg(backbone="dgcnn_like"), small_cfg(baseline=True),
             small_cfg(sv_ratio=1.0), small_cfg(scalar_concat=False, vector_reweight=False)]
    for seed, cfg in enumerate(cases):
        model = nb.build_model(cfg, rng_seed=seed)
        rng = np.random.default_rng(seed)
        for name, lin, _, _ in model.layers:
            shape = lin.weight.data.shape
            limit = np.sqrt(6.0 / max(sum(shape), 1))
            assert np.array_equal(lin.weight.data, rng.uniform(-limit, limit, shape)), (cfg, name)
        layout = nb.layout_model(cfg)
        assert [(name, lin.weight.data.shape, lin.mode) for name, lin, _, _ in layout.layers] == [
            (name, lin.weight.data.shape, lin.mode) for name, lin, _, _ in model.layers]
        assert not any(lin.weight.data.any() for _, lin, _, _ in layout.layers)


def test_build_pure_scalar_and_pure_vector():
    scalar = nb.build_model(small_cfg(sv_ratio=1.0))
    for blk in scalar.blocks:
        assert blk.vector_map.out_dim == 0
        assert blk.gate_mlp == []
    p, q = nb.split_channels(24, 1.0)
    assert (p, q) == (24, 0)

    vector = nb.build_model(small_cfg(sv_ratio=0.0))
    p, q = nb.split_channels(24, 0.0)
    assert q == 8
    assert vector.blocks[-1].vector_map.out_dim == 8


def test_build_baseline_has_no_vector_path():
    model = nb.build_model(small_cfg(baseline=True))
    assert model.extract_frame is None and model.head_frame is None
    for blk in model.blocks:
        assert blk.frame is None and blk.vector_map.out_dim == 0
    assert not [name for name, _ in model.store.items() if "frame" in name]
    logits = model.forward(random_clouds(2, 12, 0))
    assert logits.data.shape == (3, 2)


def test_forward_shapes_and_predict():
    for backbone in ("pointnet_like", "dgcnn_like"):
        model = nb.build_model(small_cfg(backbone=backbone))
        clouds = random_clouds(3, 12, 1)
        logits = model.forward(clouds)
        assert logits.data.shape == (3, 3)
        assert np.isfinite(logits.data).all()
        labels = model.predict(clouds)
        assert labels.shape == (3,)
        assert np.array_equal(labels, logits.data.argmax(axis=0))


def test_forward_batch_matches_single():
    model = nb.build_model(small_cfg())
    clouds = random_clouds(4, 12, 2)
    batch = model.forward(clouds).data
    for i, cloud in enumerate(clouds):
        single = model.forward([cloud]).data[:, 0]
        assert np.abs(batch[:, i] - single).max() < 1e-12


def test_forward_input_validation(monkeypatch):
    model = nb.build_model(small_cfg())
    clouds = random_clouds(2, 12, 3)
    built = []
    monkeypatch.setattr(nb, "neighbor_tables", lambda *args: built.append(args))
    # the mode is checked first, before any neighbor table is built
    with pytest.raises(ParameterError, match="^stats_mode must be train or eval, got 'test'$"):
        model.forward(clouds, stats_mode="test")
    assert built == []
    monkeypatch.undo()
    with pytest.raises(ParameterError):
        model.forward([])
    mixed = [PointCloud(points=np.zeros((12, 3))), PointCloud(points=np.zeros((10, 3)))]
    with pytest.raises(ParameterError):
        model.forward(mixed)
    with pytest.raises(ParameterError):
        model.forward([PointCloud(points=np.zeros((4, 3)))])  # n <= k


def test_precomputed_graphs_match_default_path():
    clouds = random_clouds(5, 14, 3)
    for backbone, plan in (("pointnet_like", (16, 24)), ("dgcnn_like", (12, 18, 24))):
        for binarize in ("none", "vanilla"):
            model = nb.build_model(small_cfg(backbone=backbone, channels=plan,
                                             binarize=binarize), rng_seed=4)
            tables = nb.neighbor_tables(clouds, model.cfg.k, chunk=2)
            assert np.array_equal(model.forward(clouds, graphs=tables).data,
                                  model.forward(clouds).data), (backbone, binarize)
    with pytest.raises(ParameterError, match="4 neighbor tables for 5 clouds"):
        model.forward(clouds, graphs=tables[:-1])
    bad_k = nb.neighbor_tables(clouds, model.cfg.k + 1)
    with pytest.raises(ParameterError, match="neighbor table of shape"):
        model.forward(clouds, graphs=bad_k)


def test_neighbor_tables_match_per_cloud_search():
    # `chunk` bounds nothing: any chunk size gives the same tables
    clouds = random_clouds(9, 20, 4)
    whole = nb.neighbor_tables(clouds, 5, chunk=len(clouds))
    for chunk in (1, 4):
        tables = nb.neighbor_tables(clouds, 5, chunk=chunk)
        assert len(tables) == len(clouds)
        for cloud, table, ref in zip(clouds, tables, whole):
            assert np.array_equal(table, ref)
            assert np.array_equal(table, nb.neighbor_tables([cloud], 5)[0])


def test_neighbor_tables_reject_bad_requests():
    five = random_clouds(2, 5, 5)
    for bad_k in (5, 0):  # k=5 would list each point as its own neighbor
        with pytest.raises(ParameterError, match="k="):
            nb.neighbor_tables(five, bad_k)
    mixed = five + random_clouds(1, 6, 6)
    with pytest.raises(ParameterError, match="equal point counts"):
        nb.neighbor_tables(mixed, 2)
    with pytest.raises(ParameterError):
        nb.neighbor_tables(five, 2, chunk=0)


@pytest.mark.parametrize("backbone", ["pointnet_like", "dgcnn_like"])
def test_precomputed_graphs_validated(backbone):
    cfg = small_cfg(backbone=backbone, channels=(16, 24) if backbone == "pointnet_like"
                    else (12, 18, 24))
    model = nb.build_model(cfg)
    clouds = random_clouds(3, 16, 7)
    tables = nb.neighbor_tables(clouds, model.cfg.k)
    # an out-of-range index used to read the next (or, for -1, the
    # previous) cloud's points without complaint
    for bad in (16, 17, -1):
        table = tables[0].copy()
        table[5, 2] = bad
        graphs = [table] + tables[1:]
        with pytest.raises(ParameterError, match="neighbor indices"):
            model.forward(clouds, graphs=graphs)
    for rows in (15, 17):
        graphs = [tables[0], np.resize(tables[1], (rows, 4)), tables[2]]
        with pytest.raises(ParameterError, match="neighbor table of shape"):
            model.forward(clouds, graphs=graphs)


@pytest.mark.parametrize("baseline", [False, True])
@pytest.mark.parametrize("backbone", ["pointnet_like", "dgcnn_like"])
def test_block_sites_follow_the_counted_schedule(backbone, baseline, monkeypatch):
    """Each block receives the site axis that count_model_ops charges it
    for, in a train step and an eval forward, on both backbones with and
    without the baseline's raw-coordinate features."""
    cfg = small_cfg(backbone=backbone, baseline=baseline, channels=(12, 18, 24))
    model = nb.build_model(cfg, rng_seed=1)
    clouds = random_clouds(3, 16, 4)
    received = []
    block = nb.svblock_forward

    def spy(x, params, *args, **kw):
        received.append(ad.as_tensor(x.scalars).data.shape[1])
        return block(x, params, *args, **kw)

    monkeypatch.setattr(nb, "svblock_forward", spy)
    model.store.zero_grad()
    with ad.Tape() as tape:
        loss = ad.cross_entropy_logits(model.forward(clouds, stats_mode="train"),
                                       np.array([c.label for c in clouds]))
    tape.backward(loss)
    ad.adam_step(model.store, lr=1e-2)
    logits = model.forward(clouds, stats_mode="eval").data
    assert logits.shape == (3, 3) and np.isfinite(logits).all()

    costs = dict(nb.count_model_ops(model, 16).per_layer)
    counted = []
    for i, blk in enumerate(model.blocks):
        lin = blk.scalar_mlp[0][0]
        cost = sum(costs[f"block{i}.scalar0"].values())
        assert cost % (lin.in_dim * lin.out_dim) == 0
        counted.append(cost // (lin.in_dim * lin.out_dim) * len(clouds))
    later = 16 * 4 if backbone == "dgcnn_like" else 16  # edges or nodes, per cloud
    assert counted == [3 * 16 * 4, 3 * later, 3 * later]
    assert received == counted * 2


def test_binary_dgcnn_training_deterministic_bitwise():
    """Two Adam steps through the edge-regrouped binary backbone (vector
    maps, site gathers and pair contractions) repeat bit for bit."""
    clouds = random_clouds(2, 24, 31)
    labels = np.array([c.label for c in clouds])

    def run():
        model = nb.build_model(small_cfg(backbone="dgcnn_like", binarize="vanilla"), rng_seed=5)
        for _ in range(2):
            model.store.zero_grad()
            with ad.Tape() as tape:
                loss = ad.cross_entropy_logits(model.forward(clouds, stats_mode="train"), labels)
            tape.backward(loss)
            ad.adam_step(model.store, lr=1e-2)
        return dict(model.state_arrays())

    first, second = run(), run()
    assert first.keys() == second.keys()
    for name in first:
        assert np.array_equal(first[name], second[name]), name


def _eval_model(cfg, seed=6):
    """A model as it is evaluated: built, binarized (the two-step
    switch for `two_step`), with running statistics moved by a train-mode
    forward and norm gains and biases moved off 1 and 0 as training moves
    them."""
    model = nb.build_model(cfg, rng_seed=seed)
    if cfg.binarize == "two_step":
        nb.binarize_plan(model)
    model.forward(random_clouds(3, 16, seed), stats_mode="train")
    rng = np.random.default_rng(seed)
    for blk in model.blocks:
        for affine in (blk.norm.scalar_gain, blk.norm.scalar_bias):
            affine.data += rng.standard_normal(affine.data.shape) * 0.3
    return model


@pytest.mark.parametrize("backbone", ["pointnet_like", "dgcnn_like"])
def test_eval_forward_matches_the_float_oracle_bit_for_bit(backbone, monkeypatch):
    """An eval forward runs every binary_full layer on packed bits (with
    each block's norm and ReLU on the product's tiles) and each fp block's
    norm and ReLU in place on its product. The logits equal those of the
    float oracle (the float ±1 chain and the textbook running-statistics norm)
    bit for bit across precisions and binarize modes, with the boundary
    layers binary or not, for 0-row and 0-column scalar layers (sv_ratio
    0, both interaction toggles off), and where block 0 has GEMM_BLOCK - 1
    and GEMM_BLOCK edge sites."""
    shapes = [dict(), dict(sv_ratio=0.0, channels=(3, 6)),
              dict(sv_ratio=0.0, channels=(3, 6), scalar_concat=False, vector_reweight=False),
              dict(scalar_concat=False, vector_reweight=False)]
    cases = [(small_cfg(backbone=backbone, binarize=mode, keep_first_last_fp=keep, **shape), 3, 12)
             for mode in ("vanilla", "two_step") for keep in (True, False) for shape in shapes]
    cases += [(small_cfg(backbone=backbone, **shape), 3, 12) for shape in shapes]
    for mode in ("none", "vanilla"):
        cases += [(small_cfg(backbone=backbone, binarize=mode, k=5), 3, 273),  # 4095 edges
                  (small_cfg(backbone=backbone, binarize=mode, k=4), 4, 256)]  # 4096 edges
    for cfg, count, n in cases:
        model = _eval_model(cfg)
        clouds = random_clouds(count, n, 7)
        logits = model.forward(clouds).data
        with monkeypatch.context() as m:
            patch_eval_oracle(m)
            want = model.forward(clouds).data
        assert np.isfinite(logits).all()
        assert np.array_equal(logits, want), cfg


def test_eval_forward_runs_the_xnor_kernel_only_untaped(monkeypatch):
    """The binary pointnet's four binary_full layers (three blocks and
    final0) each make one XNOR GEMM call per forward, in eval and in
    training alike. Under a tape an eval forward raises one StateError
    line."""
    calls = []
    gemm = bk.xnor_popcount_gemm

    def spy(*args):
        calls.append(args[0].rows)
        return gemm(*args)

    monkeypatch.setattr(bk, "xnor_popcount_gemm", spy)
    model = nb.build_model(nb.ModelConfig(binarize="vanilla", k=8), rng_seed=2)
    clouds = random_clouds(2, 32, 8)
    model.forward(clouds)
    assert calls == [34, 65, 130, 512]
    calls.clear()
    with ad.Tape():
        with pytest.raises(StateError, match="outside a Tape") as raised:
            model.forward(clouds)
        assert calls == []
        model.forward(clouds, stats_mode="train")
    assert "\n" not in str(raised.value)
    assert calls == [34, 65, 130, 512]


def test_eval_logits_do_not_depend_on_the_batch():
    """Each cloud's eval logits are bit-identical alone and in batches of
    2, 3, 5 and 32, on pointnet and dgcnn, fp and binary, with running
    statistics and norm affines off their initial values."""
    clouds = random_clouds(32, 12, 11)
    for backbone in ("pointnet_like", "dgcnn_like"):
        for mode in ("none", "vanilla"):
            model = _eval_model(small_cfg(backbone=backbone, binarize=mode))
            batched = model.forward(clouds).data
            for size in (1, 2, 3, 5):
                for lo in range(0, len(clouds) - size + 1, size):
                    got = model.forward(clouds[lo:lo + size]).data
                    assert np.array_equal(got, batched[:, lo:lo + size]), (backbone, mode, lo)


def test_binary_eval_forward_memory_bound():
    """One binary pointnet eval forward (8 clouds of 256 points, k=16)
    peaks under fp's 25 MB of traced numpy memory: block 0's (34, 32768)
    output is written once, with no int64 product, γ, norm or ReLU array
    beside it (the float chain peaked at 39.9 MB), each block scales its
    vectors in place (32.5 MB when eval ran the training vector norm and
    the gate's `mul`), and each binary frame and vector map scales its
    signs by γ, not its output (29.9 MB when γ scaled a copy of the
    (3, q, N) output)."""
    model = nb.build_model(nb.ModelConfig(binarize="vanilla"), rng_seed=1)
    clouds = random_clouds(8, 256, 9)
    peak, _ = traced_peak(model.forward, clouds)
    assert peak < 25e6, peak


def test_fp_eval_forward_memory_bound():
    """One fp pointnet eval forward (8 clouds of 256 points, k=16) peaks
    under 25 MB of traced numpy memory: each block normalizes its layer's
    product and scales its vectors in place, with no xhat, output or
    scaled-vector array beside them (39.9 MB when eval ran the training
    scalar norm, 32.5 MB when it ran the training vector norm and the
    gate's `mul`)."""
    model = nb.build_model(nb.ModelConfig(), rng_seed=1)
    clouds = random_clouds(8, 256, 9)
    peak, _ = traced_peak(model.forward, clouds)
    assert peak < 25e6, peak


def test_layout_allocates_no_temporary_beside_a_weight(monkeypatch):
    """Laying out a wide config checks no weight's values: a layer's
    `LinearParams` allocates nothing, where a finiteness scan took a bool
    array an eighth of each weight (2.4 MB for block 0's here)."""
    excess = []
    make = nb.LinearParams

    def traced(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lin = make(*args, **kwargs)
        excess.append(tracemalloc.get_traced_memory()[1] - before)
        return lin

    monkeypatch.setattr(nb, "LinearParams", traced)
    config = nb.ModelConfig(channels=(400000,), head_dim=1, classes=2)
    _, model = traced_peak(nb.layout_model, config)
    assert len(excess) == len(model.layers)
    assert max(excess) < 64 * 1024, excess


# ---------------------------------------------------------------------------
# whole-model accounting


def test_count_model_ops_fp_vs_binary():
    fp = nb.build_model(small_cfg())
    bi = nb.build_model(small_cfg(binarize="vanilla"))
    ops_fp = nb.count_model_ops(fp, 32)
    ops_bi = nb.count_model_ops(bi, 32)
    assert ops_fp.bops == 0 and ops_fp.adds == 0
    assert ops_bi.bops > 0 and ops_bi.adds > 0
    # binarization relabels work, never changes the totals
    assert ops_fp.macs == ops_bi.macs + ops_bi.adds + ops_bi.bops
    nb.count_model_ops(fp, fp.cfg.k + 1)
    for points in (fp.cfg.k, -5):  # a cloud needs k neighbors besides each point
        with pytest.raises(ParameterError, match="neighbors need"):
            nb.count_model_ops(fp, points)


def test_blocks_without_projection_rows_skip_the_frame(monkeypatch):
    """A block that projects no input vectors (no scalar concat, or no
    vectors at all) has no frame and runs no pair contraction, and
    count_model_ops charges neither; a model with no vectors has no head frame."""
    calls = []
    pair_contract = ad.pair_contract
    monkeypatch.setattr(ad, "pair_contract", lambda *a: calls.append(1) or pair_contract(*a))
    clouds = random_clouds(2, 12, 3)
    for kw in (dict(scalar_concat=True), dict(scalar_concat=False), dict(baseline=True)):
        model = nb.build_model(small_cfg(vector_reweight=False, **kw))
        calls.clear()
        model.store.zero_grad()
        with ad.Tape() as tape:
            loss = ad.cross_entropy_logits(model.forward(clouds, stats_mode="train"),
                                           np.array([0, 1]))
        tape.backward(loss)
        vectors = not model.cfg.baseline
        projecting = len(model.blocks) if model.cfg.scalar_concat and vectors else 0
        # the extraction's and the head's, plus the blocks'
        assert len(calls) == 2 * vectors + projecting, kw
        frames = [blk.frame is not None for blk in model.blocks]
        assert frames == [projecting > 0] * len(model.blocks)
        assert all(blk.frame.weight.grad is not None for blk in model.blocks if blk.frame)
        names = [name for name, _ in nb.count_model_ops(model, 16).per_layer]
        charged = [n for n in names if n.startswith("block") and n.split(".")[1]
                   in ("frame", "projection")]
        assert len(charged) == 2 * projecting
        assert ({"extract.frame", "head.frame"} & set(names)) == (
            {"extract.frame", "head.frame"} if vectors else set())


def test_fp_training_step_records_no_separate_bias_or_relu():
    """An fp pointnet training step adds each fp scalar layer's bias inside
    its `matmul` and applies each normed block's ReLU inside
    `batch_norm_train`: one `matmul` node per biased layer, and a `relu`
    node for the head's un-normed layer only."""
    model = nb.build_model(small_cfg(channels=(12, 18, 24)), rng_seed=2)
    clouds = random_clouds(2, 12, 5)
    with ad.Tape() as tape:
        loss = ad.cross_entropy_logits(model.forward(clouds, stats_mode="train"),
                                       np.array([0, 1]))
    kinds = node_kinds(tape)
    tape.backward(loss)
    biased = [lin for _, lin, _, _ in model.layers if lin.bias is not None]
    assert (kinds["relu"], kinds["matmul"], kinds["batch_norm_train"]) == (
        1, len(biased), len(model.blocks))


def test_binary_training_step_records_one_node_per_binary_layer():
    """A binary dgcnn training step (the fingerprint's dg_vanilla) records
    each binary_full layer as one `binkernel.linear` node beside its weight's
    `sign_ste`, scales each binary_weight layer's signs by γ in one `mul`
    node before its `vector_map_raw`, and normalizes and gates each block's
    vectors in one `vector_norm_scale_train` node."""
    from fingerprint import BASE, CONFIGS

    model = nb.build_model(nb.ModelConfig(**BASE, **CONFIGS["dg_vanilla"]), rng_seed=3)
    clouds = random_clouds(4, 12, 6)
    with ad.Tape() as tape:
        loss = ad.cross_entropy_logits(model.forward(clouds, stats_mode="train"),
                                       np.array([c.label for c in clouds]))
    kinds = node_kinds(tape)
    tape.backward(loss)
    modes = [lin.mode for _, lin, _, _ in model.layers]
    gated = [blk for blk in model.blocks if blk.gate_mlp]
    assert modes.count("binary_full") > 0 and modes.count("binary_weight") > 0 and gated
    assert kinds["linear"] == modes.count("binary_full")
    assert kinds["sign_ste"] == len(modes) - modes.count("full_precision")
    assert kinds["mul"] == modes.count("binary_weight")
    assert kinds["vector_norm_scale_train"] == len(model.blocks)
    vector_layers = [kind for _, _, kind, _ in model.layers if kind in ("frame", "vector")]
    assert kinds["vector_map_raw"] == len(vector_layers)


def test_every_stored_tensor_gets_a_gradient():
    """The store holds only tensors the forward reads: after one Adam step
    on each fingerprint config, and on a two-step model after binarization,
    every stored tensor of nonzero size has a gradient."""
    from fingerprint import BASE, CONFIGS

    cases = [(name, nb.build_model(nb.ModelConfig(**BASE, **kw)))
             for name, kw in CONFIGS.items()]
    two_step = nb.build_model(nb.ModelConfig(**BASE, binarize="two_step"))
    nb.binarize_plan(two_step)
    cases.append(("two_step", two_step))
    clouds = random_clouds(4, 12, 4)
    labels = np.array([c.label for c in clouds])
    for name, model in cases:
        model.store.zero_grad()
        with ad.Tape() as tape:
            loss = ad.cross_entropy_logits(model.forward(clouds, stats_mode="train"), labels)
        tape.backward(loss)
        ad.adam_step(model.store, lr=1e-3)
        unread = [key for key, t in model.store.items() if t.data.size and t.grad is None]
        assert not unread, (name, unread)


def test_layer_list_is_the_one_inventory():
    """`model.layers` names every stored weight in build order; op counting
    charges exactly those layers (a projection after each frame) and
    binarization switches exactly the non-gate ones outside the kept
    boundary, on each fingerprint config and on a two-step model after
    binarization."""
    from fingerprint import BASE, CONFIGS

    cases = [nb.build_model(nb.ModelConfig(**BASE, **kw)) for kw in CONFIGS.values()]
    two_step = nb.build_model(nb.ModelConfig(**BASE, binarize="two_step"))
    nb.binarize_plan(two_step)
    cases.append(two_step)
    for model in cases:
        names = [name for name, _, _, _ in model.layers]
        weights = [key.removesuffix(".weight") for key, _ in model.store.items()
                   if key.endswith(".weight")]
        assert names == weights, model.cfg
        expect = []
        for name, lin, kind, _ in model.layers:
            if kind == "vector" and not lin.out_dim:
                continue
            expect.append(name)
            if kind == "frame":
                expect.append(name.removesuffix(".frame") + ".projection")
        assert [name for name, _ in nb.count_model_ops(model, 16).per_layer] == expect
        switched = {name for name, lin, _, _ in model.layers if lin.mode != "full_precision"}
        if not model.binarized:
            assert not switched
            continue
        kept = {"extract.frame", names[-1]} if model.cfg.keep_first_last_fp else set()
        assert switched == {name for name, _, kind, _ in model.layers
                            if kind != "gate"} - kept, model.cfg


def test_param_bits_exact():
    fp = nb.build_model(small_cfg())
    dense = sum(t.data.size for _, t in fp.store.items())
    assert nb.param_bits(fp) == 32 * dense

    bi = nb.build_model(small_cfg(binarize="vanilla"))
    dense = sum(t.data.size for _, t in bi.store.items())
    packed = sum(lin.weight.data.size for _, lin, _, _ in bi.layers
                 if lin.mode != "full_precision")
    assert nb.param_bits(bi) == 32 * dense - 31 * packed
    assert packed > 0
    # the store holds the layers' tensors and nothing else: no detached bias
    held = sum(t.data.size for _, lin, _, _ in bi.layers
               for t in (lin.weight, lin.bias, lin.beta, lin.gamma) if t is not None)
    held += sum(getattr(blk.norm, key).data.size for blk in bi.blocks
                for key in ("scalar_gain", "scalar_bias", "vector_log_scale"))
    assert held == dense


# ---------------------------------------------------------------------------
# binarization planning


def test_binarize_plan_layer_modes():
    model = nb.build_model(small_cfg(binarize="vanilla"))
    assert model.binarized
    assert model.extract_frame.mode == "full_precision"  # boundary kept
    assert model.final_mlp[-1][0].mode == "full_precision"
    assert model.final_mlp[0][0].mode == "binary_full"
    assert model.head_frame.mode == "binary_weight"
    for blk in model.blocks:
        assert blk.frame.mode == "binary_weight"
        assert blk.vector_map.mode == "binary_weight"
        for lin, _ in blk.scalar_mlp:
            assert lin.mode == "binary_full"
            assert lin.bias is None and lin.beta is not None and lin.gamma is not None
        for lin, _ in blk.gate_mlp:
            assert lin.mode == "full_precision"


def test_binarize_plan_can_include_boundary():
    model = nb.build_model(small_cfg(binarize="vanilla", keep_first_last_fp=False))
    assert model.extract_frame.mode == "binary_weight"
    assert model.final_mlp[-1][0].mode == "binary_full"


def test_two_step_phase_preserves_weights_and_resets_optimizer():
    model = nb.build_model(small_cfg())
    before = {n: t.data.copy() for n, t in model.store.items()}
    for _, t in model.store.items():
        t.grad = np.ones_like(t.data)
    ad.adam_step(model.store, lr=0.01)
    assert model.store.step_count == 1

    nb.binarize_plan(model)
    assert model.binarized
    assert model.store.step_count == 0 and not model.store.moment1
    for name, old in before.items():
        if name.endswith("weight"):
            stepped = model.store.params[name].data
            assert np.abs(stepped - old).max() > 0  # the step happened
    assert model.blocks[0].scalar_mlp[0][0].mode == "binary_full"
    with pytest.raises(StateError):
        nb.binarize_plan(model)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_fp(tmp_path):
    model = nb.build_model(small_cfg(), rng_seed=5)
    clouds = random_clouds(3, 12, 6)
    model.forward(clouds, stats_mode="train")  # move the running stats
    expect = model.forward(clouds).data
    path = tmp_path / "m.ckpt"
    nb.save_checkpoint(model, path)
    loaded = nb.load_checkpoint(path)
    assert np.array_equal(loaded.forward(clouds).data, expect)
    for (na, a), (nb_, b) in zip(model.state_arrays(), loaded.state_arrays()):
        assert na == nb_
        assert np.array_equal(a, b)


def test_checkpoint_round_trip_binary(tmp_path):
    model = nb.build_model(small_cfg(binarize="vanilla"), rng_seed=7)
    clouds = random_clouds(3, 12, 8)
    expect = model.forward(clouds).data
    path = tmp_path / "b.ckpt"
    nb.save_checkpoint(model, path)
    loaded = nb.load_checkpoint(path)
    assert loaded.binarized
    assert np.array_equal(loaded.forward(clouds).data, expect)


def test_save_checkpoint_refuses_non_finite(tmp_path):
    model = nb.build_model(small_cfg())
    model.store.params["block0.scalar0.weight"].data[0, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    with pytest.raises(StateError, match="block0.scalar0.weight"):
        nb.save_checkpoint(model, path)
    assert not path.exists()


def test_failed_save_leaves_no_file(tmp_path, monkeypatch):
    """A write that fails part-way re-raises, removes its temporary file,
    and leaves an earlier checkpoint at the path byte for byte."""
    model = nb.build_model(small_cfg())
    nb.save_checkpoint(nb.build_model(small_cfg(), rng_seed=1), tmp_path / "earlier.ckpt")
    path, tmp = tmp_path / "x.ckpt", tmp_path / "x.ckpt.tmp"
    real, calls = np.lib.format.write_array, []

    def disk_full_at_third_member(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", disk_full_at_third_member)
    for earlier in (None, (tmp_path / "earlier.ckpt").read_bytes()):
        if earlier is not None:
            path.write_bytes(earlier)
        calls.clear()
        with pytest.raises(OSError):
            nb.save_checkpoint(model, path)
        assert len(calls) == 3 and not tmp.exists()
        assert (path.read_bytes() if path.exists() else None) == earlier


def _npy(arr) -> bytes:
    out = io.BytesIO()
    np.lib.format.write_array(out, np.asarray(arr), allow_pickle=False)
    return out.getvalue()


def _npy_header(shape, descr="<f8") -> bytes:
    """A .npy header declaring `shape`, with no data after it."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {"descr": descr, "fortran_order": False,
                                               "shape": shape})
    return out.getvalue()


def _archive(path, members, compressed=()) -> None:
    """Write `members` (name, bytes) as a zip; the named ones deflated."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members:
            info = zipfile.ZipInfo(name)
            if name in compressed:
                info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, data)


def _two_step_checkpoint(path):
    """A small two-step model after its switch to binary, saved to `path`."""
    model = nb.build_model(small_cfg(binarize="two_step"), rng_seed=2)
    nb.binarize_plan(model)
    nb.save_checkpoint(model, path)
    return model


def _rejects(damaged, match=None) -> None:
    # every failure is one CheckpointError line that leads with the file
    with pytest.raises(CheckpointError, match=match) as info:
        nb.load_checkpoint(damaged)
    assert str(info.value).startswith(f"{damaged}: "), info.value
    assert "\n" not in str(info.value), info.value


def _same_model(a, b) -> bool:
    x, y = dict(a.state_arrays()), dict(b.state_arrays())
    return (a.cfg == b.cfg and a.binarized == b.binarized and x.keys() == y.keys()
            and all(np.array_equal(x[name], y[name]) for name in x))


def test_checkpoint_rejects_damage(tmp_path):
    path = tmp_path / "m.ckpt"
    model = nb.build_model(small_cfg())
    nb.save_checkpoint(model, path)
    blob = path.read_bytes()

    for cut in (2, len(blob) // 3, len(blob) - 5):
        short = tmp_path / "cut.ckpt"
        short.write_bytes(blob[:cut])
        _rejects(short)

    wrong = tmp_path / "magic.ckpt"
    wrong.write_bytes(b"SVNC\x02\x00\x00\x00" + bytes(64))  # the earlier byte format
    _rejects(wrong, "not a checkpoint archive")

    # the name sits in the member's local header and in the central directory
    assert blob.count(b"head.frame.weight") == 2
    renamed = tmp_path / "name.ckpt"
    renamed.write_bytes(blob.replace(b"head.frame.weight", b"head.frame.wei__t"))
    _rejects(renamed, r"tensors unknown: \['head.frame.wei__t'\], "
                      r"missing: \['head.frame.weight'\]$")

    _rejects(tmp_path / "absent.ckpt", "No such file")

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(blob + b"garbage")  # zipfile alone would read it as a comment
    _rejects(trailing, "bytes after its end record")

    # zip's CRC-32 covers each member's header and data
    name = b"block0.norm.running_var"
    flipped = bytearray(blob)
    flipped[blob.index(name) + len(name) + 100] ^= 1
    crc = tmp_path / "crc.ckpt"
    crc.write_bytes(bytes(flipped))
    _rejects(crc, "Bad CRC-32 for file 'block0.norm.running_var'")

    # hand-built archives whose members all carry matching CRCs
    cfg_text = model.cfg.to_text().encode()
    arrays = dict(model.state_arrays())

    def members(**replace):
        out = [("config", _npy(np.frombuffer(cfg_text, dtype=np.uint8)))]
        out += [(key, _npy(arr)) for key, arr in arrays.items()]
        return [(key, replace.get(key, data)) for key, data in out if replace.get(key) != b""]

    crafted = tmp_path / "crafted.ckpt"
    _archive(crafted, members())
    assert _same_model(nb.load_checkpoint(crafted), model)

    garbled = np.frombuffer(cfg_text + b"# \xff\n", dtype=np.uint8)
    _archive(crafted, members(config=_npy(garbled)))
    _rejects(crafted, f"config is not UTF-8: byte 0xff at offset {len(cfg_text) + 2}$")

    stray = np.frombuffer(cfg_text + b"stray line\n", dtype=np.uint8)
    _archive(crafted, members(config=_npy(stray)))
    n_lines = cfg_text.count(b"\n")
    _rejects(crafted, f"embedded config invalid: config line {n_lines + 1}: "
                      rf"cannot read 'stray line' \(ParsingError\)$")

    _archive(crafted, members(config=b""))
    _rejects(crafted, "no config member$")

    for key in ("extract.frame.weight", "block0.norm.running_var"):
        poisoned = arrays[key].copy()
        poisoned.flat[0] = np.nan
        _archive(crafted, members(**{key: _npy(poisoned)}))
        _rejects(crafted, f"tensor '{key}' holds non-finite values$")

    _archive(crafted, members(**{"block0.norm.running_var": b""}))
    _rejects(crafted, r"tensors unknown: \[\], missing: \['block0.norm.running_var'\]$")

    # shapes are checked against the model's before any payload is read, so
    # no allocation is sized by the file
    key = "extract.frame.weight"
    assert arrays[key].shape == (2, 3)
    for shape in ((2**62, 4), (0, 2**62), (2**28, 4)):
        _archive(crafted, members(**{key: _npy_header(shape)}))
        _rejects(crafted, rf"member '{key}' holds <f8 \({shape[0]}, {shape[1]}\), "
                          rf"model wants <f8 \(2, 3\)$")
    # header text numpy's parser fails on with TokenError and TypeError
    for text in (b"{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3, }",
                 b"{'descr': '<f8', 1: 2}"):
        raw = text.ljust(118) + b"\n"
        _archive(crafted, members(**{key: b"\x93NUMPY\x01\x00" + struct.pack("<H", 119) + raw}))
        _rejects(crafted)
    for bad, held in ((arrays[key].astype(">f8"), ">f8 "), (arrays[key].astype("<f4"), "<f4 "),
                      (np.asfortranarray(arrays[key]), "<f8 .* in Fortran order")):
        _archive(crafted, members(**{key: _npy(bad)}))
        _rejects(crafted, rf"member '{key}' holds {held}.*, model wants <f8 \(2, 3\)$")
    out = io.BytesIO()  # numpy writes version 2.0 only for headers over 64 KiB
    np.lib.format.write_array(out, arrays[key], version=(2, 0))
    _archive(crafted, members(**{key: out.getvalue()}))
    _rejects(crafted, f"member '{key}' is not a version 1.0 .npy array$")
    _archive(crafted, members(**{key: _npy(arrays[key]) + b"\0"}))
    _rejects(crafted, f"member '{key}' does not end with its array$")

    # a compressed member would run a decompressor on the file's bytes
    _archive(crafted, members(), compressed=(key,))
    _rejects(crafted, f"member '{key}' is compressed or flagged$")

    with pytest.warns(UserWarning, match="Duplicate name"):
        _archive(crafted, members() + [(key, _npy(arrays[key]))])
    _rejects(crafted, f"member '{key}' appears twice$")


def test_checkpoint_bit_flips_are_caught(tmp_path):
    """Any one flipped bit either fails in one line naming the file or, in
    zip metadata that no read depends on, loads the identical model."""
    path = tmp_path / "p2.ckpt"
    model = _two_step_checkpoint(path)
    blob = path.read_bytes()
    bits = np.random.default_rng(19).integers(0, 8 * len(blob), 400).tolist()
    bits += range(8 * (len(blob) - 22), 8 * len(blob))  # every bit of the end record
    damaged = tmp_path / "flip.ckpt"
    identical = 0
    for bit in bits:
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged.write_bytes(bytes(flipped))
        try:
            loaded = nb.load_checkpoint(damaged)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{damaged}: ") and "\n" not in str(exc), (bit, exc)
            continue
        assert _same_model(loaded, model), f"bit {bit} loads a different model"
        identical += 1
    assert identical < len(bits) // 2  # most flips land in CRC-covered bytes


def test_checkpoint_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    model = nb.build_model(small_cfg(binarize="vanilla"))
    nb.save_checkpoint(model, tmp_path / "a.ckpt")
    later = time.time() + 400 * 86400
    real_localtime = time.localtime
    monkeypatch.setattr(time, "time", lambda: later)
    monkeypatch.setattr(time, "localtime",
                        lambda secs=None: real_localtime(later if secs is None else secs))
    nb.save_checkpoint(model, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_echoes_the_canonical_config(tmp_path):
    """A checkpoint stores cfg.to_text(), not the text the config was read
    from, and that text reads back to an equal config."""
    from fingerprint import BASE, CONFIGS

    cases = [(name, nb.ModelConfig(**BASE, **kw)) for name, kw in CONFIGS.items()]
    cases.append(("two_step", nb.ModelConfig(**BASE, binarize="two_step")))
    for name, cfg in cases:
        # the same keys as hand-written text: reordered, spaced, commented
        lines = cfg.to_text().splitlines()[1:]
        hand = "[model]\n# hand-written\n" + "\n".join(
            line.replace("=", " =  ").replace(",", ", ") for line in reversed(lines)) + "\n"
        read = nb.ModelConfig.from_text(hand)
        assert read == cfg, name
        model = nb.build_model(read)
        if cfg.binarize == "two_step":
            nb.binarize_plan(model)
        path = tmp_path / f"{name}.ckpt"
        nb.save_checkpoint(model, path)
        with np.load(path, allow_pickle=False) as archive:
            assert archive["config"].tobytes().decode() == cfg.to_text(), name
        loaded = nb.load_checkpoint(path)
        assert loaded.cfg == cfg and loaded.binarized == model.binarized, name


def test_checkpoint_phase_two_state_flag(tmp_path):
    """A model switched to binary after its fp phase is told apart by its
    `*.gamma` members."""
    path = tmp_path / "p2.ckpt"
    model = _two_step_checkpoint(path)
    clouds = random_clouds(2, 12, 9)
    expect = model.forward(clouds).data
    binary = {f"{name}.gamma" for name, lin, _, _ in model.layers
              if lin.mode != "full_precision"}
    with np.load(path, allow_pickle=False) as archive:
        assert binary and {name for name in archive.files if name.endswith(".gamma")} == binary

    loaded = nb.load_checkpoint(path)
    assert loaded.binarized
    assert np.array_equal(loaded.forward(clouds).data, expect)

    again = tmp_path / "p2b.ckpt"
    nb.save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()

    fp = tmp_path / "fp.ckpt"
    nb.save_checkpoint(nb.build_model(small_cfg(binarize="two_step")), fp)
    assert not nb.load_checkpoint(fp).binarized


def test_checkpoint_gamma_members_switch_only_a_two_step_model(tmp_path):
    """`*.gamma` members switch a model to binary only when its config says
    `two_step`: a binary checkpoint whose config member says `none` fails
    in one line naming the tensors the fp model does not know, where it
    once loaded as a binarized model."""
    vanilla = nb.build_model(small_cfg(binarize="vanilla"), rng_seed=4)
    two_step = nb.build_model(small_cfg(binarize="two_step"), rng_seed=4)
    nb.binarize_plan(two_step)
    fp_text = small_cfg(binarize="none").to_text().encode()
    crafted = tmp_path / "crafted.ckpt"
    for model in (vanilla, two_step):
        members = [("config", _npy(np.frombuffer(fp_text, dtype=np.uint8)))]
        members += [(key, _npy(arr)) for key, arr in model.state_arrays()]
        _archive(crafted, members)
        _rejects(crafted, r"tensors unknown: \['block0\.frame\.gamma', "
                          r"'block0\.scalar0\.beta', 'block0\.scalar0\.gamma', "
                          r"'block0\.vector_map\.gamma'\], missing: \['block0\.scalar0\.bias'")


def test_loading_and_counting_draw_nothing(tmp_path, monkeypatch):
    """A checkpoint's model and `count-ops`' come from the config alone:
    with no random generator to be had, both still work."""
    two_step = _two_step_checkpoint(tmp_path / "p2.ckpt")
    vanilla = nb.build_model(small_cfg(binarize="vanilla"), rng_seed=4)
    nb.save_checkpoint(vanilla, tmp_path / "v.ckpt")

    def no_draw(*args, **kwargs):
        raise AssertionError("a random generator was asked for")

    monkeypatch.setattr(nb.np.random, "default_rng", no_draw)
    for name, model in (("p2", two_step), ("v", vanilla)):
        assert _same_model(nb.load_checkpoint(tmp_path / f"{name}.ckpt"), model), name
        config = tmp_path / f"{name}.ini"
        config.write_text(model.cfg.to_text())
        assert cli.main(["count-ops", "--config", str(config)]) == 0, name
