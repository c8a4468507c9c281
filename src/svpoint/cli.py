"""Command-line surface: data generation, training, evaluation, checks.

Every command exits 0 on success and nonzero with a one-line diagnostic
on failure; all randomness flows from --seed (default 0).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import netbuild
from .errors import CheckpointError, ConfigError, ParameterError, StateError, decode_utf8
from .geometry import (SHAPE_NAMES, PointCloud, apply_rotation, random_rotation,
                       read_xyz, signed_permutation_rotation, synthesize_shapes,
                       write_xyz, z_rotation)

_ERRORS = (ParameterError, ConfigError, CheckpointError, StateError, OSError,
           MemoryError)


# ---------------------------------------------------------------------------
# protocols


def _parse_protocol(text: str) -> tuple[str, str]:
    """(train_rot, test_rot) from text like I/SO3: I (none), z, or so3 at
    train time; z or so3 at test time."""
    parts = text.lower().split("/")
    if len(parts) != 2:
        raise ParameterError(f"protocol {text!r} must look like I/SO3")
    train, test = parts
    if train in ("i", "none"):
        train = "none"
    if train not in ("none", "z", "so3"):
        raise ParameterError(f"unknown train rotation {parts[0]!r}")
    if test not in ("z", "so3"):
        raise ParameterError(f"unknown test rotation {parts[1]!r}")
    return train, test


def _rotate_batch(clouds: list[PointCloud], kind: str, rng) -> list[PointCloud]:
    if kind == "none":
        return clouds
    maker = z_rotation if kind == "z" else random_rotation
    return [apply_rotation(c, maker(rng)) for c in clouds]


# ---------------------------------------------------------------------------
# dataset plumbing


def _gen_split(out_dir: Path, split: str, count: int, points: int, seeds) -> None:
    sub = out_dir / split
    sub.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(count):
        class_id = i % len(SHAPE_NAMES)
        cloud = synthesize_shapes(class_id, points, np.random.default_rng(seeds[i]))
        name = f"{split}/c{class_id}_{i:04d}.xyz"
        write_xyz(cloud, out_dir / name)
        lines.append(f"{name}\t{class_id}")
    (out_dir / f"{split}.tsv").write_text("\n".join(lines) + "\n")


def _manifest(data_dir, split: str):
    """Yield (manifest:line, file name, class id) for each entry of a split."""
    manifest = Path(data_dir) / f"{split}.tsv"
    if not manifest.is_file():
        raise ParameterError(f"no manifest {manifest}; run gen-data first")
    lines = decode_utf8(manifest.read_bytes(), str(manifest), ParameterError).splitlines()
    if not any(line.strip() for line in lines):
        raise ParameterError(f"{manifest}: empty split")
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            name, _, class_id = line.partition("\t")
            if not class_id.isdecimal():
                raise ParameterError(f"{manifest}:{lineno}: expected filename<TAB>class id "
                                     f"(an integer >= 0), got {line!r}")
            yield f"{manifest}:{lineno}", name, int(class_id)


def load_split(data_dir, split: str) -> list[PointCloud]:
    clouds = []
    for _, name, label in _manifest(data_dir, split):
        clouds.append(read_xyz(Path(data_dir) / name))
        clouds[-1].label = label
    return clouds


def _check_classes(data_dir, split: str, classes: int) -> None:
    """Reject a class id the model has no logit for, naming its manifest line."""
    for where, _, label in _manifest(data_dir, split):
        if label >= classes:
            raise ParameterError(f"{where}: class id {label} is outside the model's "
                                 f"{classes} classes")


def cmd_gen_data(args) -> int:
    if args.train < 1 or args.test < 1 or args.points < 16:
        raise ParameterError("train/test counts must be >= 1 and points >= 16")
    out_dir = Path(args.out)
    seeds = np.random.SeedSequence(args.seed).spawn(args.train + args.test)
    _gen_split(out_dir, "train", args.train, args.points, seeds[: args.train])
    _gen_split(out_dir, "test", args.test, args.points, seeds[args.train:])
    print(f"wrote {args.train}+{args.test} clouds of {args.points} points to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# training and evaluation


def _accuracy(model: netbuild.Model, clouds: list[PointCloud], batch: int = 32) -> float:
    # the model batches equal-size clouds: bucket by point count, keep split order
    buckets: dict[int, list[PointCloud]] = {}
    for cloud in clouds:
        buckets.setdefault(cloud.n, []).append(cloud)
    hits = 0
    for bucket in buckets.values():
        for lo in range(0, len(bucket), batch):
            part = bucket[lo: lo + batch]
            pred = model.predict(part)
            hits += int(sum(p == c.label for p, c in zip(pred, part)))
    return hits / len(clouds)


def cmd_train(args) -> int:
    if args.epochs < 1 or args.batch < 1:
        raise ParameterError("epochs and batch must be >= 1")
    if not 0 < args.lr < np.inf:  # also false for NaN
        raise ParameterError(f"--lr must be finite and > 0, got {args.lr}")
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():  # checked now, not after the first epoch
        raise ParameterError(f"--out directory {out_dir} does not exist")
    if Path(args.out).is_dir():
        raise ParameterError(f"--out {args.out} is a directory, not a checkpoint file")
    cfg = netbuild.ModelConfig.from_file(args.config)
    train_rot, test_rot = _parse_protocol(args.protocol)
    for split in ("train", "test"):
        _check_classes(args.data, split, cfg.classes)
    train_clouds = load_split(args.data, "train")
    test_clouds = load_split(args.data, "test")

    init_seed, aug_seed = np.random.SeedSequence(args.seed).spawn(2)
    model = netbuild.build_model(cfg, np.random.default_rng(init_seed))
    aug_rng = np.random.default_rng(aug_seed)

    labels_all = np.array([c.label for c in train_clouds])
    n_train = len(train_clouds)
    # without train-time rotation the clouds never change, so their
    # neighbor tables can be built once instead of once per step
    table = None
    if train_rot == "none":
        table = netbuild.neighbor_tables(train_clouds, cfg.k)
    phase, best = 1, -1.0
    for epoch in range(args.epochs):
        if cfg.binarize == "two_step" and epoch == args.epochs // 2:
            netbuild.binarize_plan(model)
            phase, best = 2, -1.0  # checkpoint selection restarts: modes changed
        lr = ad.lr_schedule(epoch, args.epochs, args.lr)
        order = aug_rng.permutation(n_train)
        losses, hits = [], 0
        for step, lo in enumerate(range(0, n_train, args.batch)):
            idx = order[lo: lo + args.batch]
            batch = _rotate_batch([train_clouds[i] for i in idx], train_rot, aug_rng)
            labels = labels_all[idx]
            graphs = None if table is None else [table[i] for i in idx]
            model.store.zero_grad()
            with ad.Tape() as tape:
                logits = model.forward(batch, stats_mode="train", graphs=graphs)
                loss = ad.cross_entropy_logits(logits, labels)
            if not np.isfinite(loss.item()):
                raise StateError(
                    f"training diverged: loss {loss.item()} at epoch {epoch} step {step}; "
                    f"try a lower --lr"
                )
            tape.backward(loss)
            ad.adam_step(model.store, lr=lr)
            losses.append(loss.item())
            hits += int((logits.data.argmax(axis=0) == labels).sum())
        try:
            test_acc = _accuracy(model, _rotate_batch(test_clouds, test_rot, aug_rng))
        except StateError:  # finite but huge weights: the loss has not shown it yet
            raise StateError(f"training diverged: non-finite test logits at epoch {epoch}; "
                             f"try a lower --lr") from None
        print(
            f"epoch={epoch} phase={phase} lr={lr:.6g} "
            f"loss={np.mean(losses):.4f} acc={hits / n_train:.4f} test_acc={test_acc:.4f}",
            flush=True,
        )
        if test_acc > best:
            best = test_acc
            netbuild.save_checkpoint(model, args.out)
    print(f"best test_acc={best:.4f} saved={args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.trials < 1:
        raise ParameterError("trials must be >= 1")
    model = netbuild.load_checkpoint(args.ckpt)
    _check_classes(args.data, args.split, model.cfg.classes)
    clouds = load_split(args.data, args.split)
    rng = np.random.default_rng(args.seed)
    accs = []
    for _ in range(args.trials):
        rotated = _rotate_batch(clouds, args.test_rot, rng)
        accs.append(_accuracy(model, rotated))
    accs = np.array(accs)
    print(
        f"test_rot={args.test_rot} trials={args.trials} "
        f"accuracy={accs.mean():.4f} spread={accs.max() - accs.min():.4f}"
    )
    return 0


# ---------------------------------------------------------------------------
# property checks


def cmd_equiv_check(args) -> int:
    if args.mode == "fp" and args.trials < 1:
        raise ParameterError("trials must be >= 1")
    model = netbuild.load_checkpoint(args.ckpt)
    rng = np.random.default_rng(args.seed)
    cloud = PointCloud(rng.standard_normal((args.points, 3)))
    base = model.eval_logits([cloud])

    if args.mode == "fp":
        worst = 0.0
        scale = max(np.abs(base).max(), 1e-12)
        for _ in range(args.trials):
            rotated = apply_rotation(cloud, random_rotation(rng))
            out = model.eval_logits([rotated])
            worst = max(worst, float(np.abs(out - base).max()) / scale)
        print(f"mode=fp trials={args.trials} max_rel_deviation={worst:.3e}")
        if worst > 1e-10:
            print(f"error: logit deviation {worst:.3e} exceeds 1e-10", file=sys.stderr)
            return 1
        return 0

    matches = 0
    for idx in range(24):
        rotated = apply_rotation(cloud, signed_permutation_rotation(idx))
        out = model.eval_logits([rotated])
        matches += int(np.array_equal(out, base))
    print(f"mode=exact bit_identical={matches}/24")
    if matches != 24:
        print(f"error: only {matches}/24 rotations bit-identical", file=sys.stderr)
        return 1
    return 0


def cmd_count_ops(args) -> int:
    if args.table1:
        for mode in ("vanilla", "sv_fp", "sv_binary"):
            ctr = netbuild.count_block_ops(256, 256, 1024, mode)
            print(
                f"table1 {mode}: macs={ctr.macs} adds={ctr.adds} bops={ctr.bops} "
                f"({ctr.macs / 1e6:.1f}M / {ctr.adds / 1e6:.1f}M / {ctr.bops / 1e6:.1f}M)"
            )
    if args.config:
        cfg = netbuild.ModelConfig.from_file(args.config)
        model = netbuild.layout_model(cfg)
        ctr = netbuild.count_model_ops(model, args.points)
        for name, entry in ctr.per_layer:
            print(f"{name}: macs={entry['macs']} adds={entry['adds']} bops={entry['bops']}")
        print(f"total: macs={ctr.macs} adds={ctr.adds} bops={ctr.bops}")
        print(f"param_bits={netbuild.param_bits(model)}")
    elif not args.table1:
        raise ParameterError("pass --config and/or --table1")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="svpoint", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the synthetic labeled dataset")
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--train", type=int, default=160)
    p.add_argument("--test", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--protocol", default="I/SO3")
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy under a test-time rotation regime")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--test-rot", choices=("z", "so3", "none"), default="so3")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--split", default="test")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("equiv-check", help="verify logit invariance under rotation")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mode", choices=("fp", "exact"), default="fp")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_equiv_check)

    p = sub.add_parser("count-ops", help="per-layer MAC/ADD/BOP accounting")
    p.add_argument("--config")
    p.add_argument("--points", type=int, default=1024)
    p.add_argument("--table1", action="store_true",
                   help="print the reference C1=C2=256, N=1024 block costs")
    p.set_defaults(func=cmd_count_ops)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # a diverging run overflows in numpy long before the explicit checks
    # on loss, logits and saved tensors report it in one line
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
