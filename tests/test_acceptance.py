"""Acceptance gate: nine pass/fail checks, each printing one verdict line.

Run plainly with pytest; the [PASS]/[FAIL] lines bypass output capture so
the verdicts always show. Tolerances live next to each check.
"""

import dataclasses
import io
import re
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import svpoint.autodiff as ad
import svpoint.binkernel as bk
import svpoint.cli as cli
import svpoint.netbuild as nb
import svpoint.svcore as sv
from helpers import finite_difference_check, rotate_feature, rotate_vectors, weighted
from svpoint import geometry as geo

REPO = Path(__file__).resolve().parent.parent


def verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} {label}: {detail}"


def quiet(argv):
    """Run a CLI command, swallowing its stdout; returns (rc, text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# shared training runs (built once, reused by criteria 6-8)


@pytest.fixture(scope="session")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    rc, _ = quiet(["gen-data", "--train", "160", "--test", "40",
                   "--points", "256", "--seed", "0", "--out", str(root / "data")])
    assert rc == 0
    (root / "fp.ini").write_text("[model]\nbackbone = pointnet_like\n")
    (root / "bin.ini").write_text("[model]\nbackbone = pointnet_like\nbinarize = vanilla\n")
    (root / "base.ini").write_text("[model]\nbackbone = pointnet_like\nbaseline = true\n")
    return root


@pytest.fixture(scope="session")
def trained(dataset):
    data = str(dataset / "data")
    t0 = time.perf_counter()
    rc, _ = quiet(["train", "--config", str(dataset / "fp.ini"), "--data", data,
                   "--protocol", "I/SO3", "--epochs", "15",
                   "--out", str(dataset / "fp.ckpt")])
    assert rc == 0
    rc, _ = quiet(["train", "--config", str(dataset / "bin.ini"), "--data", data,
                   "--protocol", "I/SO3", "--epochs", "30",
                   "--out", str(dataset / "bin.ckpt")])
    assert rc == 0
    budget = time.perf_counter() - t0
    rc, _ = quiet(["train", "--config", str(dataset / "base.ini"),
                   "--data", data, "--protocol", "I/z", "--epochs", "15",
                   "--out", str(dataset / "base.ckpt")])
    assert rc == 0
    return {"dir": dataset, "train_seconds": budget, "fp_epochs": 15, "bin_epochs": 30}


def accuracy_trials(ckpt, dataset, kind, trials=5, seed=7):
    model = nb.load_checkpoint(ckpt)
    clouds = cli.load_split(dataset / "data", "test")
    rng = np.random.default_rng(seed)
    upright = cli._accuracy(model, clouds)
    accs = [cli._accuracy(model, cli._rotate_batch(clouds, kind, rng))
            for _ in range(trials)]
    return upright, accs


# ---------------------------------------------------------------------------
# 1. cost table totals


def test_criterion_1_cost_table(capsys):
    t0 = time.perf_counter()
    rc, out = quiet(["count-ops", "--table1"])
    elapsed = time.perf_counter() - t0
    assert rc == 0

    def grab(label):
        m = re.search(rf"table1 {label}: macs=(\d+) adds=(\d+) bops=(\d+)", out)
        return tuple(int(g) for g in m.groups())

    vanilla, fp, binary = grab("vanilla"), grab("sv_fp"), grab("sv_binary")
    window = 100_000
    ok = (
        abs(vanilla[0] - 67_100_000) <= window and vanilla[1] == vanilla[2] == 0
        and abs(fp[0] - 39_900_000) <= window and fp[1] == fp[2] == 0
        and abs(binary[0] - 400_000) <= window
        and abs(binary[1] - 6_000_000) <= window
        and abs(binary[2] - 33_600_000) <= window
        and binary[2] == 33_554_432
        and elapsed < 1.0
    )
    verdict(capsys, 1, "cost table", ok,
            f"vanilla={vanilla[0]} fp={fp[0]} binary={binary} "
            f"(windows +/-0.1M, bops exact) in {elapsed:.3f}s (<1s)")


# ---------------------------------------------------------------------------
# 2. equivariance within float tolerance


def rotations(count=100):
    return [geo.random_rotation(seed) for seed in range(count)]


def test_criterion_2_equivariance_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    rots = rotations(100)
    devs = {}

    def track(name, value):
        devs[name] = max(devs.get(name, 0.0), value)

    v = rng.standard_normal((3, 3, 6))
    p_map = sv.LinearParams(weight=rng.standard_normal((3, 4)))
    base = vmap_base = sv.vector_mapping(v, p_map).data
    for rot in rots:
        got = sv.vector_mapping(rotate_vectors(v, rot), p_map).data
        track("vector_mapping", np.abs(got - rotate_vectors(vmap_base, rot)).max())

    # a coordinate frame is a vector mapping onto 3 channels
    frame = sv.LinearParams(weight=rng.standard_normal((3, 3)))
    frame_base = sv.vector_mapping(v, frame).data
    proj_base = sv.invariant_projection(v, frame).data
    for rot in rots:
        vr = rotate_vectors(v, rot)
        fr = sv.vector_mapping(vr, frame).data
        track("coordinate_frame", np.abs(fr - rotate_vectors(frame_base, rot)).max())
        track("invariant_projection", np.abs(sv.invariant_projection(vr, frame).data
                                             - proj_base).max())

    blk = sv.SVBlockParams(
        frame=sv.LinearParams(weight=rng.standard_normal((3, 3))),
        scalar_mlp=[(sv.LinearParams(weight=rng.standard_normal((11, 4)),
                                     bias=np.zeros(4)), "relu")],
        vector_map=sv.LinearParams(weight=rng.standard_normal((3, 2))),
        gate_mlp=[(sv.LinearParams(weight=rng.standard_normal((2, 2)),
                                   bias=np.zeros(2)), "sigmoid")],
        norm=sv.NormParams.create(4, 2),
    )
    feat = sv.SVFeature(scalars=rng.standard_normal((2, 8)),
                         vectors=rng.standard_normal((3, 3, 8)))
    # the vector update is the vectors of the gated block without its norm
    gated = dataclasses.replace(blk, norm=None)
    upd_base = sv.svblock_forward(feat, gated, False, 1).vectors.data
    blk_base = sv.svblock_forward(feat, blk, False, 1)
    for rot in rots:
        rf = rotate_feature(feat, rot)
        got = sv.svblock_forward(rf, gated, False, 1).vectors.data
        track("vector_update", np.abs(got - rotate_vectors(upd_base, rot)).max())
        out = sv.svblock_forward(rf, blk, False, 1)
        track("svblock.scalars", np.abs(out.scalars.data - blk_base.scalars.data).max())
        track("svblock.vectors", np.abs(
            out.vectors.data - rotate_vectors(blk_base.vectors.data, rot)).max())

    neighbors = np.array([[1, 2], [0, 3], [3, 0], [2, 1]])
    feat4 = sv.SVFeature(scalars=rng.standard_normal((2, 4)),
                          vectors=rng.standard_normal((3, 2, 4)))
    agg_base = sv.aggregate(feat4, 2).vectors.data
    re_base = sv.regroup_edges(feat4, neighbors).vectors.data
    # the equivariant norm is the vectors of an eval-mode block with identity
    # maps and no gate
    nrm = sv.SVBlockParams(frame=None, scalar_mlp=[(sv.LinearParams(weight=np.eye(2)), "none")],
                           vector_map=sv.LinearParams(weight=np.eye(2)), gate_mlp=[],
                           norm=sv.NormParams.create(2, 2))
    nrm_base = sv.svblock_forward(feat4, nrm, False, 1).vectors.data
    head_frame = sv.LinearParams(weight=rng.standard_normal((2, 3)))
    head_base = sv.invariant_head(feat4, head_frame).data
    cloud = geo.PointCloud(rng.standard_normal((16, 3)))
    t16 = geo.neighbor_tables([cloud], 4)
    ext_frame = sv.LinearParams(weight=rng.standard_normal((2, 3)))
    ext_base = nb.extract_initial_features([cloud], geo.batch_graph([cloud], t16, 4), ext_frame)
    for rot in rots:
        rf = rotate_feature(feat4, rot)
        track("aggregate", np.abs(
            sv.aggregate(rf, 2).vectors.data - rotate_vectors(agg_base, rot)).max())
        track("regroup_edges", np.abs(
            sv.regroup_edges(rf, neighbors).vectors.data - rotate_vectors(re_base, rot)).max())
        track("equivariant_norm", np.abs(
            sv.svblock_forward(rf, nrm, False, 1).vectors.data
            - rotate_vectors(nrm_base, rot)).max())
        track("invariant_head", np.abs(sv.invariant_head(rf, head_frame).data - head_base).max())
        rc = [geo.apply_rotation(cloud, rot)]
        ext = nb.extract_initial_features(rc, geo.batch_graph(rc, geo.neighbor_tables(rc, 4), 4),
                                          ext_frame)
        track("extract.scalars", np.abs(ext.scalars.data - ext_base.scalars.data).max())
        track("extract.vectors", np.abs(
            ext.vectors.data - rotate_vectors(ext_base.vectors.data, rot)).max())

    per_op_worst = max(devs.values())

    end_to_end = {}
    big = geo.PointCloud(np.random.default_rng(1).standard_normal((64, 3)))
    for backbone in ("pointnet_like", "dgcnn_like"):
        model = nb.build_model(nb.ModelConfig(backbone=backbone), rng_seed=2)
        logits = model.forward([big]).data
        worst = 0.0
        for rot in rots:
            out = model.forward([geo.apply_rotation(big, rot)]).data
            worst = max(worst, float(np.abs(out - logits).max()))
        end_to_end[backbone] = worst

    elapsed = time.perf_counter() - t0
    ok = (per_op_worst < 1e-11 and max(end_to_end.values()) < 1e-10
          and elapsed < 120.0)
    verdict(capsys, 2, "equivariance", ok,
            f"per-op worst {per_op_worst:.2e} (<1e-11) over {len(devs)} ops, "
            f"end-to-end pointnet {end_to_end['pointnet_like']:.2e} / "
            f"dgcnn {end_to_end['dgcnn_like']:.2e} (<1e-10), "
            f"100 rotations, {elapsed:.1f}s (<120s)")


# ---------------------------------------------------------------------------
# 3. bit-exact invariance under signed permutations


def test_criterion_3_exact_invariance(capsys):
    cloud = geo.PointCloud(np.random.default_rng(3).standard_normal((32, 3)))
    results = {}
    for backbone in ("pointnet_like", "dgcnn_like"):
        for binarize in ("none", "vanilla"):
            model = nb.build_model(
                nb.ModelConfig(backbone=backbone, binarize=binarize), rng_seed=4)
            base = model.forward([cloud]).data
            hits = sum(
                int(np.array_equal(
                    model.forward([geo.apply_rotation(
                        cloud, geo.signed_permutation_rotation(i))]).data, base))
                for i in range(24))
            results[f"{backbone.split('_')[0]}/{binarize}"] = hits
    ok = all(h == 24 for h in results.values())
    verdict(capsys, 3, "exact invariance", ok,
            " ".join(f"{k}={v}/24" for k, v in results.items()))


# ---------------------------------------------------------------------------
# 4. kernel bit-exactness


def test_criterion_4_kernel_exactness(capsys):
    rng = np.random.default_rng(5)
    forced_inner = [1, 63, 64, 65, 127, 128, 129]
    gemm_fail = 0
    non_multiple = 0
    for trial in range(10_000):
        m, n = rng.integers(1, 7, 2)
        inner = forced_inner[trial % len(forced_inner)] if trial % 5 == 0 \
            else int(rng.integers(1, 97))
        if inner % 64:
            non_multiple += 1
        sa = np.where(rng.random((m, inner)) < 0.5, -1.0, 1.0)
        sb = np.where(rng.random((n, inner)) < 0.5, -1.0, 1.0)
        got = bk.xnor_popcount_gemm(bk.bitpack(sa), bk.bitpack(sb))
        oracle = sa.astype(np.int64) @ sb.astype(np.int64).T
        gemm_fail += int(not np.array_equal(got, oracle))

    packed_fail = 0
    for _ in range(100):
        m, inner, n = (int(v) for v in rng.integers(1, 90, 3))
        x = rng.standard_normal((inner, m))
        params = sv.LinearParams(weight=rng.standard_normal((inner, n)),
                                 mode="binary_full",
                                 beta=rng.standard_normal(inner),
                                 gamma=rng.standard_normal(n))
        a = bk.binary_linear_full(x, params, use_packed=True)
        with ad.Tape():  # the layer as the model trains it: the STE route
            b = sv.scalar_linear(x, params).data
        packed_fail += int(not np.array_equal(a, b))

    ok = gemm_fail == 0 and packed_fail == 0 and non_multiple > 9000
    verdict(capsys, 4, "kernel bit-exactness", ok,
            f"xnor==naive on 10000/10000 instances ({non_multiple} with "
            f"non-word-multiple inner dim), packed==scalar_linear on 100/100")


# ---------------------------------------------------------------------------
# 5. gradient checks


def test_criterion_5_gradients(capsys):
    rng = np.random.default_rng(6)
    t = lambda a: ad.parameter(np.asarray(a, dtype=np.float64))
    x34 = t(rng.standard_normal((3, 4)))
    y34 = t(rng.standard_normal((3, 4)) + 2.5)
    pos = t(np.abs(rng.standard_normal((3, 4))) + 0.5)
    off0 = t(np.where(np.abs(z := rng.standard_normal((3, 4))) < 0.2, 0.5, z))
    v3 = t(rng.standard_normal((3, 3, 4)))
    wmap = t(rng.standard_normal((3, 2)))
    lin = sv.LinearParams(weight=t(rng.standard_normal((3, 2))),
                          bias=t(np.zeros(2)))
    vlin = sv.LinearParams(weight=t(rng.standard_normal((3, 2))))
    logits = t(rng.standard_normal((3, 5)))
    labels = np.array([0, 2, 1, 1, 0])
    # a repeated neighbor and a node paired with itself, as kNN tables of
    # duplicate points give
    edge_table = np.array([[1, 2], [0, 0], [3, 2], [2, 3]])
    # running statistics as eval passes them, held fixed; taken from `pos`
    # so that the other cases keep their inputs
    fixed_mv = (pos.data[:, 0] - 1.0, pos.data[:, 1].copy())
    fixed_n = pos.data[:, 2].copy()

    cases = [
        ("add", weighted(ad.add, 1), (x34, y34)),
        ("sub", weighted(ad.sub, 2), (x34, y34)),
        ("mul", weighted(ad.mul, 3), (x34, y34)),
        ("relu", weighted(ad.relu, 5), (off0,)),
        ("sigmoid", weighted(ad.sigmoid, 6), (x34,)),
        ("batch_norm_fixed",
         weighted(lambda a, g, b: ad.batch_norm_train(a, g, b, 1e-5, stats=fixed_mv)[0], 7),
         (x34, t(np.ones(3) - 0.2), t(np.full(3, 0.1)))),
        ("vector_norm_scale_fixed",
         weighted(lambda a, s: ad.vector_norm_scale_train(a, s, 1e-5, mean_norm=fixed_n)[0], 8),
         (v3, t(np.full(3, 0.2)))),
        ("matmul", weighted(ad.matmul, 9), (x34, t(rng.standard_normal((4, 2))))),
        ("reshape", weighted(lambda a: ad.reshape(a, (4, 3)), 10), (x34,)),
        ("concat", weighted(lambda a, b: ad.concat([a, b], axis=0), 11), (x34, y34)),
        ("transpose", weighted(ad.transpose, 12), (x34,)),
        ("pool_mean", weighted(lambda a: ad.pool_groups(a, 2, "mean"), 14), (x34,)),
        ("pool_max", weighted(lambda a: ad.pool_groups(a, 2, "max"), 15), (off0,)),
        ("expand", weighted(lambda a: ad.expand_groups(a, 3), 16), (x34,)),
        ("take", weighted(lambda a: ad.take_sites(a, np.array([2, 0, 1, 3, 3])), 17), (x34,)),
        ("edge_pairs", weighted(lambda a: ad.edge_pairs(a, edge_table), 25), (v3,)),
        ("vector_map", weighted(ad.vector_map_raw, 18), (v3, wmap)),
        ("pair_contract", weighted(ad.pair_contract, 19), (v3, t(rng.standard_normal((3, 3, 4))))),
        ("batch_norm", weighted(lambda a, g, b: ad.batch_norm_train(a, g, b, 1e-5)[0], 21),
         (x34, t(np.ones(3) + 0.3), t(np.zeros(3)))),
        ("vector_norm_scale",
         weighted(lambda a, s: ad.vector_norm_scale_train(a, s, 1e-5)[0], 22),
         (v3, t(np.zeros(3)))),
        ("scalar_linear", weighted(lambda a, *_: sv.scalar_linear(a, lin), 23),
         (x34, lin.weight, lin.bias)),
        ("vector_linear", weighted(lambda a, *_: sv.vector_mapping(a, vlin), 24),
         (v3, vlin.weight)),
        ("cross_entropy", lambda a: ad.cross_entropy_logits(a, labels), (logits,)),
    ]
    prim_rel = {}
    for name, op, inputs in cases:
        prim_rel[name] = finite_difference_check(op, inputs, h=1e-6)
    worst_prim = max(prim_rel.values())
    worst_name = max(prim_rel, key=prim_rel.get)

    # a 2-block network end to end against central differences
    model = nb.build_model(
        nb.ModelConfig(channels=(16, 24), k=4, head_dim=32), rng_seed=7)
    clouds = [geo.PointCloud(np.random.default_rng(s).standard_normal((12, 3)))
              for s in range(3)]
    net_labels = np.array([0, 1, 2])

    def loss_value():
        out = model.forward(clouds, stats_mode="train")
        return float(ad.cross_entropy_logits(out, net_labels).data)

    model.store.zero_grad()
    with ad.Tape() as tape:
        out = model.forward(clouds, stats_mode="train")
        loss = ad.cross_entropy_logits(out, net_labels)
    tape.backward(loss)

    h = 1e-6
    coord_rng = np.random.default_rng(8)
    diffs, mags = [], []
    kinked = checked = 0
    for name, tensor in model.store.items():
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        candidates = list(dict.fromkeys(
            [int(np.abs(grad).argmax())]
            + coord_rng.integers(0, grad.size, 6).tolist()))
        taken = 0
        for fi in candidates:
            if taken == 4:
                break
            idx = np.unravel_index(fi, grad.shape)
            keep = tensor.data[idx]

            def fd_at(step):
                tensor.data[idx] = keep + step
                up = loss_value()
                tensor.data[idx] = keep - step
                down = loss_value()
                tensor.data[idx] = keep
                return (up - down) / (2 * step)

            fd = fd_at(h)
            # pooling and relu make the loss piecewise smooth; a probe that
            # straddles a kink invalidates the difference quotient itself, so
            # detect it from the FD values alone (slope must be stable under
            # step halving) and sample a different coordinate instead
            if abs(fd - fd_at(h / 2)) > 1e-6 * max(1.0, abs(fd)):
                kinked += 1
                continue
            taken += 1
            checked += 1
            diffs.append(abs(grad[idx] - fd))
            mags.append(max(abs(grad[idx]), abs(fd)))
    net_rel = max(diffs) / max(max(mags), 1e-12)
    coverage_ok = checked >= 60 and kinked <= checked // 10

    grid = np.concatenate([np.linspace(-2.0, 2.0, 401),
                           [-1.2, 1.2, np.nextafter(-1.2, 0), np.nextafter(1.2, 0)]])
    g = np.random.default_rng(9).standard_normal(grid.shape)
    expect = np.where((grid > -1.2) & (grid < 1.2), g, 0.0)
    ste_exact = np.array_equal(ad.ste_backward(g, grid), expect)

    ok = worst_prim <= 1e-4 and net_rel <= 1e-4 and coverage_ok and ste_exact
    verdict(capsys, 5, "gradients", ok,
            f"{len(cases)} primitives worst rel {worst_prim:.2e} ({worst_name}), "
            f"2-block net rel {net_rel:.2e} over {checked} coords "
            f"({kinked} kink-adjacent resampled) (<=1e-4, h=1e-6), "
            f"ste exact on [-2,2] grid: {ste_exact}")


# ---------------------------------------------------------------------------
# 6. desk-scale learning


def test_criterion_6_learning(capsys, trained):
    root = trained["dir"]
    fp_up, fp_so3 = accuracy_trials(root / "fp.ckpt", root, "so3")
    _, fp_z = accuracy_trials(root / "fp.ckpt", root, "z")
    bin_up, bin_so3 = accuracy_trials(root / "bin.ckpt", root, "so3")
    _, bin_z = accuracy_trials(root / "bin.ckpt", root, "z")
    fp_acc = float(np.mean(fp_so3))
    bin_acc = float(np.mean(bin_so3))
    rotation_blind = (fp_z == fp_so3 == [fp_up] * 5
                      and bin_z == bin_so3 == [bin_up] * 5)

    log = REPO / "reports" / "pilot_i_so3.log"
    logged = re.findall(r"test_rot=so3 trials=5 accuracy=([01]\.\d{4})",
                        log.read_text()) if log.is_file() else []
    log_ok = (len(logged) >= 2 and float(logged[0]) >= 0.90
              and float(logged[1]) >= 0.70)

    ok = (fp_acc >= 0.90 and bin_acc >= 0.70
          and trained["fp_epochs"] <= 60 and trained["bin_epochs"] <= 60
          and trained["train_seconds"] < 600.0
          and rotation_blind and log_ok)
    verdict(capsys, 6, "desk-scale learning", ok,
            f"fp so3 acc {fp_acc:.4f} (>=0.90, {trained['fp_epochs']} epochs), "
            f"binary so3 acc {bin_acc:.4f} (>=0.70, {trained['bin_epochs']} epochs), "
            f"both trainings {trained['train_seconds']:.0f}s (<600s), "
            f"z==so3 exactly: {rotation_blind}, pilot log confirms: {log_ok}")


# ---------------------------------------------------------------------------
# 7. rotation-sensitivity contrast


def test_criterion_7_rotation_contrast(capsys, trained):
    root = trained["dir"]
    base_up, base_so3 = accuracy_trials(root / "base.ckpt", root, "so3")
    base_drop = base_up - float(np.mean(base_so3))
    fp_up, fp_so3 = accuracy_trials(root / "fp.ckpt", root, "so3")
    fp_drop = fp_up - float(np.mean(fp_so3))
    ok = base_drop >= 0.20 and fp_drop == 0.0
    verdict(capsys, 7, "rotation contrast", ok,
            f"baseline upright {base_up:.4f} -> so3 {np.mean(base_so3):.4f}, "
            f"drop {base_drop * 100:.1f} points (>=20); "
            f"equivariant model drop {fp_drop * 100:.1f} points (==0)")


# ---------------------------------------------------------------------------
# 8. ablation machinery


def test_criterion_8_ablations(capsys, dataset):
    data = str(dataset / "data")

    def one_epoch(cfg_text, tag):
        ini = dataset / f"abl_{tag}.ini"
        ini.write_text(cfg_text)
        rc, _ = quiet(["train", "--config", str(ini), "--data", data,
                       "--epochs", "1", "--out", str(dataset / f"abl_{tag}.ckpt")])
        return rc == 0

    ratio_profiles = {}
    trained_ok = True
    for ratio in (1.0, 2 / 3, 0.5, 0.0):
        cfg = nb.ModelConfig(binarize="vanilla", sv_ratio=ratio)
        ops = nb.count_model_ops(nb.build_model(cfg), 1024)
        ratio_profiles[ratio] = (ops.macs, ops.adds, ops.bops)
        trained_ok &= one_epoch(
            f"[model]\nbackbone = pointnet_like\nbinarize = vanilla\n"
            f"sv_ratio = {ratio!r}\n", f"r{ratio:.2f}")

    toggle_profiles = {}
    for sc, vr in ((True, True), (True, False), (False, True), (False, False)):
        cfg = nb.ModelConfig(scalar_concat=sc, vector_reweight=vr)
        ops = nb.count_model_ops(nb.build_model(cfg), 1024)
        toggle_profiles[(sc, vr)] = (ops.macs, ops.adds, ops.bops)
        trained_ok &= one_epoch(
            f"[model]\nbackbone = pointnet_like\n"
            f"scalar_concat = {str(sc).lower()}\n"
            f"vector_reweight = {str(vr).lower()}\n", f"t{int(sc)}{int(vr)}")

    def bop_share(profile):
        macs, adds, bops = profile
        return bops / (macs + adds + bops)

    pure_scalar, mid, pure_vector = (
        ratio_profiles[1.0], ratio_profiles[0.5], ratio_profiles[0.0])
    scalar_dominant = pure_scalar[2] > pure_scalar[0] and pure_scalar[2] > pure_scalar[1]
    vector_dominant = pure_vector[1] > pure_vector[0] and pure_vector[1] > pure_vector[2]
    ordered = bop_share(pure_scalar) > bop_share(mid) > bop_share(pure_vector)
    distinct = (len(set(ratio_profiles.values())) == 4
                and len(set(toggle_profiles.values())) == 4)

    ok = trained_ok and scalar_dominant and vector_dominant and ordered and distinct
    verdict(capsys, 8, "ablations", ok,
            f"8/8 configs trained one epoch: {trained_ok}; pure-scalar "
            f"BOPs-dominant {pure_scalar}, pure-vector ADDs-dominant {pure_vector}, "
            f"bop-share ordering {ordered}, all profiles distinct: {distinct}")


# ---------------------------------------------------------------------------
# 9. checkpoint round-trip


def test_criterion_9_checkpoint_round_trip(capsys, tmp_path):
    clouds = [geo.PointCloud(np.random.default_rng(s).standard_normal((16, 3)))
              for s in range(100)]

    def batched_logits(model):
        return np.concatenate(
            [model.forward(clouds[lo: lo + 25]).data for lo in range(0, 100, 25)],
            axis=1)

    results = {}
    for tag, binarize in (("fp", "none"), ("binary", "vanilla")):
        model = nb.build_model(
            nb.ModelConfig(channels=(16, 24), k=4, head_dim=32,
                           binarize=binarize), rng_seed=10)
        model.forward(clouds[:8], stats_mode="train")  # move the running stats
        before = batched_logits(model)
        path = tmp_path / f"{tag}.ckpt"
        nb.save_checkpoint(model, path)
        after = batched_logits(nb.load_checkpoint(path))
        results[tag] = np.array_equal(before, after)
    ok = all(results.values())
    verdict(capsys, 9, "checkpoint round-trip", ok,
            f"bit-identical logits on 100 inputs: fp={results['fp']} "
            f"binary={results['binary']}")
