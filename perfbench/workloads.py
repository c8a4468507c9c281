"""The four benchmark workloads, driven through svpoint's public API.

Each workload builds its inputs from the seed in `setup`, runs one batch
per `step`, checks each step's output in `check`, and runs its
end-of-run gates in `finish`. The runner times `setup` and `step` only.
`rotate_batch` and `float_route` are module attributes so that the tracer
can wrap them like the svpoint functions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from svpoint import autodiff as ad
from svpoint import binkernel, cli, netbuild
from svpoint.geometry import apply_rotation, random_rotation

POINTS = 256
K = 16
LR = 1e-3
EVAL_RTOL = 1e-10  # the `equiv-check --mode fp` bound


def rotate_batch(clouds, rng):
    """A fresh uniform SO(3) rotation per cloud, as `svpoint eval` does."""
    return [apply_rotation(c, random_rotation(rng)) for c in clouds]


def float_route(x, lin):
    return binkernel.binary_linear_full(x, lin, use_packed=False)


def _config(backbone: str, binarize: str) -> netbuild.ModelConfig:
    return netbuild.ModelConfig.from_text(
        f"[model]\nbackbone = {backbone}\nk = {K}\nbinarize = {binarize}\n")


def _gen_data(out: Path, train: int, test: int, seed: int):
    argv = ["gen-data", "--train", str(train), "--test", str(test),
            "--points", str(POINTS), "--seed", str(seed), "--out", str(out)]
    if cli.main(argv) != 0:
        raise RuntimeError(f"svpoint {' '.join(argv)} failed")
    return cli.load_split(out, "train"), cli.load_split(out, "test")


def _round_trip(model, path: Path):
    netbuild.save_checkpoint(model, path)
    return netbuild.load_checkpoint(path)


def _finite(*arrays) -> bool:
    return all(bool(np.isfinite(a).all()) for a in arrays)


class Workload:
    batch: int

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        data, model, run = np.random.SeedSequence(seed).spawn(3)
        self.data_seed = int(data.generate_state(1)[0])
        self.model_seed = int(model.generate_state(1)[0])
        self.run_rng = np.random.default_rng(run)  # batch order, rotations, probe seed

    def bops(self) -> int:
        """BOPs per step from the model's own op accounting."""
        return netbuild.count_model_ops(self.model, POINTS).bops * self.batch

    def finish(self) -> list[bool]:
        """`svpoint equiv-check --mode exact`: 24/24 bit-identical logits
        under the cube's rotations, on the model as the steps left it."""
        path = self.workdir / "final.svnc"
        netbuild.save_checkpoint(self.model, path)
        seed = str(self.run_rng.integers(2**31))
        return [cli.main(["equiv-check", "--ckpt", str(path), "--mode", "exact",
                          "--seed", seed]) == 0]


class Train(Workload):
    """Adam steps over a fixed, un-augmented training set (protocol I/...).

    Neighbor tables are built once in set-up, as `svpoint train` does when
    the training rotation is none.
    """

    def __init__(self, seed, workdir, backbone, binarize, batch, n_train, loss_gate):
        super().__init__(seed, workdir)
        self.cfg_args = (backbone, binarize)
        self.batch = batch
        self.n_train = n_train
        self.loss_gate = loss_gate
        self.losses: list[float] = []
        self.tape_nodes = 0
        self.tape_output_bytes = 0

    def setup(self) -> None:
        train, _ = _gen_data(self.workdir / "data", self.n_train, 4, self.data_seed)
        model = netbuild.build_model(_config(*self.cfg_args), self.model_seed)
        self.model = _round_trip(model, self.workdir / "model.svnc")
        self.train = train
        self.labels = np.array([c.label for c in train])
        self.tables = netbuild.neighbor_tables(train, K, chunk=self.batch)
        self.order = np.empty(0, dtype=np.intp)

    def _next_batch(self) -> np.ndarray:
        if self.order.size < self.batch:
            self.order = np.concatenate([self.order, self.run_rng.permutation(self.n_train)])
        idx, self.order = self.order[: self.batch], self.order[self.batch:]
        return idx

    def step(self):
        idx = self._next_batch()
        model = self.model
        model.store.zero_grad()
        with ad.Tape() as tape:
            logits = model.forward([self.train[i] for i in idx], stats_mode="train",
                                   graphs=[self.tables[i] for i in idx])
            loss = ad.cross_entropy_logits(logits, self.labels[idx])
        self.tape_nodes = len(tape.nodes)
        self.tape_output_bytes = sum(node.data.nbytes for node in tape.nodes)
        tape.backward(loss)
        ad.adam_step(model.store, lr=LR)
        return loss.item(), logits.data

    def check(self, out) -> bool:
        loss, logits = out
        self.losses.append(loss)
        return _finite(loss, logits)

    def finish(self) -> list[bool]:
        gates = super().finish()
        if self.loss_gate:
            gates.append(len(self.losses) > 1 and self.losses[-1] < self.losses[0])
        return gates


class EvalSO3(Workload):
    """Binarized pointnet inference on freshly rotated test batches."""

    batch = 32

    def setup(self) -> None:
        _, test = _gen_data(self.workdir / "data", 4, self.batch, self.data_seed)
        model = netbuild.build_model(_config("pointnet_like", "vanilla"), self.model_seed)
        self.model = _round_trip(model, self.workdir / "model.svnc")
        self.test = test
        upright = netbuild.neighbor_tables(test, K)
        self.reference = self.model.forward(test, stats_mode="eval", graphs=upright).data
        self.scale = max(float(np.abs(self.reference).max()), 1e-12)

    def step(self):
        clouds = rotate_batch(self.test, self.run_rng)
        graphs = netbuild.neighbor_tables(clouds, K)
        return self.model.forward(clouds, stats_mode="eval", graphs=graphs).data

    def check(self, logits) -> bool:
        deviation = float(np.abs(logits - self.reference).max()) / self.scale
        return _finite(logits) and deviation <= EVAL_RTOL


class XnorLayers(Workload):
    """The binary pointnet's four `binary_full` layers on the packed route.

    Inputs have the layers' real shapes for one batch of 32 clouds; each
    step's output is checked bit for bit against the float route.
    """

    batch = 32
    input_sets = 2

    def setup(self) -> None:
        model = netbuild.build_model(_config("pointnet_like", "vanilla"), self.model_seed)
        self.model = _round_trip(model, self.workdir / "model.svnc")
        blk = self.model.blocks
        n_edges = self.batch * POINTS * K
        n_nodes = self.batch * POINTS
        self.layers = [(blk[0].scalar_mlp[0][0], n_edges), (blk[1].scalar_mlp[0][0], n_nodes),
                       (blk[2].scalar_mlp[0][0], n_nodes), (self.model.final_mlp[0][0], self.batch)]
        if any(lin.mode != "binary_full" for lin, _ in self.layers):
            raise RuntimeError("expected four binary_full layers in the binary pointnet")
        self._bops = sum(lin.in_dim * lin.out_dim * sites for lin, sites in self.layers)
        if self._bops != super().bops():
            raise RuntimeError("layer shapes disagree with count_model_ops")
        rng = np.random.default_rng(self.data_seed)
        self.inputs = [[rng.standard_normal((lin.in_dim, sites)) for lin, sites in self.layers]
                       for _ in range(self.input_sets)]
        self.calls = 0

    def bops(self) -> int:
        return self._bops

    def step(self):
        xs = self.inputs[self.calls % self.input_sets]
        self.calls += 1
        return xs, [binkernel.binary_linear_full(x, lin, use_packed=True)
                    for x, (lin, _) in zip(xs, self.layers)]

    def check(self, out) -> bool:
        xs, packed = out
        return all(_finite(y) and np.array_equal(y, float_route(x, lin))
                   for x, y, (lin, _) in zip(xs, packed, self.layers))

    def finish(self) -> list[bool]:
        return []


WORKLOADS = {
    "train_pointnet_fp": lambda seed, wd: Train(seed, wd, "pointnet_like", "none",
                                                batch=32, n_train=64, loss_gate=True),
    "train_dgcnn_binary": lambda seed, wd: Train(seed, wd, "dgcnn_like", "vanilla",
                                                 batch=8, n_train=16, loss_gate=False),
    "eval_pointnet_binary_so3": EvalSO3,
    "xnor_layers": XnorLayers,
}
