"""Model assembly, op accounting, binarization planning, checkpoints."""

import numpy as np
import pytest

import svpoint.autodiff as ad
import svpoint.netbuild as nb
from svpoint.errors import CheckpointError, ConfigError, ParameterError, StateError
from svpoint.geometry import KnnGraph, PointCloud, knn_graphs


def small_cfg(**kw):
    base = dict(backbone="pointnet_like", k=4, channel_plan=(16, 24),
                classes=3, head_dim=32)
    base.update(kw)
    return nb.ModelConfig(**base)


def random_clouds(count, n, seed):
    rng = np.random.default_rng(seed)
    return [PointCloud(points=rng.standard_normal((n, 3)), label=int(i % 3))
            for i in range(count)]


def iter_linears(model):
    if model.extract_frame is not None:
        yield model.extract_frame
    for blk in model.blocks:
        yield blk.frame
        yield blk.vector_map
        for lin, _ in blk.scalar_mlp:
            yield lin
        for lin, _ in blk.gate_mlp:
            yield lin
    yield model.head_frame
    for lin, _ in model.final_mlp:
        yield lin


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
    assert nb.ModelConfig().channel_plan == (64, 128, 256)
    assert nb.ModelConfig(backbone="dgcnn_like").channel_plan == (64, 64, 128, 256)


def test_config_text_round_trip():
    cfg = small_cfg(sv_ratio=0.25, binarize="vanilla", scalar_concat=False)
    again = nb.ModelConfig.from_text(cfg.to_text())
    assert again == cfg
    assert again.raw_text is not None


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
    with pytest.raises(ConfigError):
        nb.ModelConfig.from_file("/no/such/file.ini")


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
    assert model.extract_frame is None
    for blk in model.blocks:
        assert blk.frame.in_dim == 0 and blk.vector_map.out_dim == 0
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


def test_forward_input_validation():
    model = nb.build_model(small_cfg())
    with pytest.raises(ParameterError):
        model.forward([])
    mixed = [PointCloud(points=np.zeros((12, 3))), PointCloud(points=np.zeros((10, 3)))]
    with pytest.raises(ParameterError):
        model.forward(mixed)
    with pytest.raises(ParameterError):
        model.forward([PointCloud(points=np.zeros((4, 3)))])  # n <= k


def test_precomputed_graphs_match_default_path():
    model = nb.build_model(small_cfg())
    clouds = random_clouds(5, 14, 3)
    tables = nb.neighbor_tables(clouds, model.cfg.k, chunk=2)
    assert np.array_equal(model.forward(clouds, graphs=tables).data,
                          model.forward(clouds).data)
    with pytest.raises(ParameterError):
        model.forward(clouds, graphs=tables[:-1])
    bad_k = nb.neighbor_tables(clouds, model.cfg.k + 1)
    with pytest.raises(ParameterError):
        model.forward(clouds, graphs=bad_k)


def test_neighbor_tables_match_per_cloud_search():
    # chunking bounds memory only: any chunk size gives the same tables
    clouds = random_clouds(9, 20, 4)
    whole = nb.neighbor_tables(clouds, 5, chunk=len(clouds))
    for chunk in (1, 4):
        tables = nb.neighbor_tables(clouds, 5, chunk=chunk)
        assert len(tables) == len(clouds)
        for cloud, table, ref in zip(clouds, tables, whole):
            assert np.array_equal(table.neighbors, ref.neighbors)
            assert np.array_equal(table.neighbors, knn_graphs([cloud], 5)[0].neighbors)


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
    cfg = small_cfg(backbone=backbone, channel_plan=(16, 24) if backbone == "pointnet_like"
                    else (12, 18, 24))
    model = nb.build_model(cfg)
    clouds = random_clouds(3, 16, 7)
    tables = nb.neighbor_tables(clouds, model.cfg.k)
    # an out-of-range index used to read the next (or, for -1, the
    # previous) cloud's points without complaint
    for bad in (16, 17, -1):
        table = tables[0].neighbors.copy()
        table[5, 2] = bad
        graphs = [KnnGraph(k=4, neighbors=table)] + tables[1:]
        with pytest.raises(ParameterError, match="neighbor indices"):
            model.forward(clouds, graphs=graphs)
    for rows in (15, 17):
        table = np.resize(tables[1].neighbors, (rows, 4))
        graphs = [tables[0], KnnGraph(k=4, neighbors=table), tables[2]]
        with pytest.raises(ParameterError, match="graph of"):
            model.forward(clouds, graphs=graphs)


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


def test_param_bits_exact():
    fp = nb.build_model(small_cfg())
    dense = sum(t.data.size for _, t in fp.store.items())
    assert nb.param_bits(fp) == 32 * dense

    bi = nb.build_model(small_cfg(binarize="vanilla"))
    dense = sum(t.data.size for _, t in bi.store.items())
    packed = sum(lin.weight.data.size for lin in iter_linears(bi)
                 if lin.mode != "full_precision")
    assert nb.param_bits(bi) == 32 * dense - 31 * packed
    assert packed > 0


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

    nb.binarize_plan(model, "two_step_phase2")
    assert model.binarized
    assert model.store.step_count == 0 and not model.store.moment1
    for name, old in before.items():
        if name.endswith("weight"):
            stepped = model.store.params[name].data
            assert np.abs(stepped - old).max() > 0  # the step happened
    assert model.blocks[0].scalar_mlp[0][0].mode == "binary_full"
    with pytest.raises(StateError):
        nb.binarize_plan(model, "two_step_phase2")
    with pytest.raises(ParameterError):
        nb.binarize_plan(nb.build_model(small_cfg()), "one_shot")


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


def test_checkpoint_expect_cfg(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "m.ckpt"
    nb.save_checkpoint(nb.build_model(cfg), path)
    nb.load_checkpoint(path, expect_cfg=small_cfg())
    with pytest.raises(CheckpointError):
        nb.load_checkpoint(path, expect_cfg=small_cfg(channel_plan=(16, 32)))


def test_save_checkpoint_refuses_non_finite(tmp_path):
    model = nb.build_model(small_cfg())
    model.store.params["block0.scalar0.weight"].data[0, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    with pytest.raises(StateError, match="block0.scalar0.weight"):
        nb.save_checkpoint(model, path)
    assert not path.exists()


def test_checkpoint_rejects_damage(tmp_path):
    path = tmp_path / "m.ckpt"
    nb.save_checkpoint(nb.build_model(small_cfg()), path)
    blob = path.read_bytes()

    for cut in (2, len(blob) // 3, len(blob) - 5):
        short = tmp_path / "cut.ckpt"
        short.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            nb.load_checkpoint(short)

    wrong = tmp_path / "magic.ckpt"
    wrong.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError):
        nb.load_checkpoint(wrong)

    import struct
    vers = tmp_path / "vers.ckpt"
    vers.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(CheckpointError):
        nb.load_checkpoint(vers)

    assert blob.count(b"head.frame.weight") == 1
    renamed = tmp_path / "name.ckpt"
    renamed.write_bytes(blob.replace(b"head.frame.weight", b"head.frame.wei__t"))
    with pytest.raises(CheckpointError):
        nb.load_checkpoint(renamed)

    with pytest.raises(CheckpointError):
        nb.load_checkpoint(tmp_path / "absent.ckpt")

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(blob + b"garbage")
    with pytest.raises(CheckpointError, match=f"offset {len(blob)}"):
        nb.load_checkpoint(trailing)

    # a payload follows its name, dtype tag, rank and shape; poison its first entry
    arrays = dict(nb.build_model(small_cfg()).state_arrays())
    for name in ("extract.frame.weight", "block0.norm.running_var"):
        start = blob.index(name.encode()) + len(name) + 2 + 8 * arrays[name].ndim
        poisoned = tmp_path / "nan.ckpt"
        poisoned.write_bytes(blob[:start] + struct.pack("<d", np.nan) + blob[start + 8:])
        with pytest.raises(CheckpointError, match=name):
            nb.load_checkpoint(poisoned)


def test_checkpoint_phase_two_state_flag(tmp_path):
    model = nb.build_model(small_cfg())
    nb.binarize_plan(model, "two_step_phase2")
    clouds = random_clouds(2, 12, 9)
    expect = model.forward(clouds).data

    path = tmp_path / "p2.ckpt"
    nb.save_checkpoint(model, path)
    assert path.read_bytes().count(b"[state]") == 1

    loaded = nb.load_checkpoint(path)
    assert loaded.binarized
    assert np.array_equal(loaded.forward(clouds).data, expect)

    again = tmp_path / "p2b.ckpt"
    nb.save_checkpoint(loaded, again)
    assert again.read_bytes().count(b"[state]") == 1  # the flag never duplicates
    assert nb.load_checkpoint(again).binarized
