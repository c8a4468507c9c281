"""Bit-identity fingerprint of training and inference, one sha256 per config.

Not collected by pytest (no `test_` prefix). It exists to show that a
refactor changes no bit: run it in two trees on the same machine and
compare the outputs line by line.

    PYTHONPATH=src python tests/fingerprint.py > new.txt
    (cd ../other-tree && PYTHONPATH=src python tests/fingerprint.py) > old.txt
    diff old.txt new.txt

Each config prints two digests. The first covers three Adam steps (the
loss, every gradient and the post-Adam parameters and running statistics
of each step; the second step is fed precomputed `neighbor_tables`) and
then the eval logits on the upright and on SO(3)-rotated clouds. The
second covers only the numbers a user sees: each step's training logits
and loss, then the same eval logits. A change that only drops tensors
(an unread weight, a zero-size gradient) changes the first digest and
keeps the second. The digests depend on the numpy and BLAS build, so
compare two trees on one machine, never against stored values.

    --save DIR   also write each trained model to DIR/<config>.svnc
    --load DIR   instead print one digest per checkpoint in DIR: every
                 persistent array of the loaded model in name order, then
                 its eval logits on the upright and rotated clouds

`--save` in one tree and `--load` in both shows that checkpoints written
by one tree load to the same logits in the other. `--save` in two trees
and `--load` of both directories in one tree shows that the trained state
is equal tensor by tensor, even where the two trees store it in another
order. Neither can span a change of the checkpoint format, since a tree
reads only its own format: then run `--save D` and `--load D` in each
tree, and diff the two `--load` outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import traceback
from pathlib import Path

import numpy as np

from svpoint import autodiff as ad
from svpoint import netbuild as nb
from svpoint.geometry import PointCloud, apply_rotation, random_rotation

BASE = dict(k=4, channels=(12, 18, 24), classes=4, head_dim=32)
CONFIGS = {
    "pn_none": dict(backbone="pointnet_like"),
    "pn_vanilla": dict(backbone="pointnet_like", binarize="vanilla"),
    "dg_none": dict(backbone="dgcnn_like"),
    "dg_vanilla": dict(backbone="dgcnn_like", binarize="vanilla"),
    "baseline": dict(backbone="pointnet_like", baseline=True),
    "toggles_off": dict(backbone="pointnet_like", scalar_concat=False, vector_reweight=False),
    "dg_bin_sv0": dict(backbone="dgcnn_like", binarize="vanilla", sv_ratio=0.0),
    "sv1": dict(backbone="pointnet_like", sv_ratio=1.0),
    "baseline_dg": dict(backbone="dgcnn_like", baseline=True),
}
CLOUDS, POINTS, STEPS, LR = 4, 24, 3, 1e-2


def _clouds():
    rng = np.random.default_rng(11)
    clouds = [PointCloud(rng.standard_normal((POINTS, 3)), label=i % 4) for i in range(CLOUDS)]
    rotated = [apply_rotation(c, random_rotation(rng)) for c in clouds]
    return clouds, rotated


def _feed(h, arr) -> None:
    if arr is None:
        h.update(b"none")
        return
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())


def _eval_logits(hashes, model, clouds, rotated) -> None:
    for batch in (clouds, rotated):
        logits = model.forward(batch, stats_mode="eval").data
        for h in hashes:
            _feed(h, logits)


def train_digest(name: str, save_dir: Path | None) -> str:
    """The full digest and the value digest, space-separated."""
    clouds, rotated = _clouds()
    labels = np.array([c.label for c in clouds])
    model = nb.build_model(nb.ModelConfig(**BASE, **CONFIGS[name]), rng_seed=3)
    h, values = hashlib.sha256(), hashlib.sha256()
    for step in range(STEPS):
        graphs = nb.neighbor_tables(clouds, BASE["k"]) if step == 1 else None
        model.store.zero_grad()
        with ad.Tape() as tape:
            logits = model.forward(clouds, stats_mode="train", graphs=graphs)
            loss = ad.cross_entropy_logits(logits, labels)
        _feed(values, logits.data)
        _feed(values, loss.data)
        tape.backward(loss)
        _feed(h, loss.data)
        for _, tensor in model.store.items():
            _feed(h, tensor.grad)
        ad.adam_step(model.store, lr=LR)
        for _, arr in model.state_arrays():
            _feed(h, arr)
    _eval_logits((h, values), model, clouds, rotated)
    if save_dir is not None:
        nb.save_checkpoint(model, save_dir / f"{name}.svnc")
    return f"{h.hexdigest()} {values.hexdigest()}"


def load_digest(name: str, load_dir: Path) -> str:
    clouds, rotated = _clouds()
    model = nb.load_checkpoint(load_dir / f"{name}.svnc")
    h = hashlib.sha256()
    for key, arr in sorted(model.state_arrays(), key=lambda item: item[0]):
        h.update(key.encode())
        _feed(h, arr)
    _eval_logits((h,), model, clouds, rotated)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--save", type=Path)
    group.add_argument("--load", type=Path)
    args = parser.parse_args(argv)
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name in CONFIGS:
        try:
            if args.load is not None:
                digest = load_digest(name, args.load)
            else:
                digest = train_digest(name, args.save)
        except Exception as exc:  # report and go on: a config may fail in one tree only
            traceback.print_exc()
            failed += 1
            digest = f"error {type(exc).__name__}: {exc}"
        print(f"{name} {digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
