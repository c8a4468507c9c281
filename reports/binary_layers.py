"""Eval time of each binary_full layer of the binary pointnet, packed and float.

    python3 reports/binary_layers.py --out BENCH_22.json

Builds the vanilla binary pointnet with the benchmark's config (`k` and
points per cloud from `perfbench/workloads.py`) and reads its
`binary_full` layers by name from `Model.layers`. Each layer runs two
ways, as an eval forward with nothing recording runs it and as a float
±1 chain in numpy:

- model: `binkernel.linear`, which finishes each tile of sites with γ
  and, for a block's layer, `svcore.eval_norm` (the running-statistics
  norm and ReLU); `final0` gets its ReLU afterwards;
- float: Sign(W)ᵀ · Sign(x − β) · γ as float64 ±1 matrices, then for a
  block's layer the running-statistics norm in `autodiff.norm_affine`'s
  order, each step writing a fresh array, then the ReLU.

Each layer gets one standard-normal input of its real shape for a batch
of clouds, and random norm parameters and running statistics, and the
two outputs are checked bit for bit. Each route is then timed `REPEATS`
times in a row after one warm-up, the model route first: timing the two
in turn would time each in the glibc heap state the other left (which
pages are mapped, where the mmap threshold sits). Writes each layer's
medians beside its BOP count from `count_model_ops`, with host facts, as
JSON. Run it alone: the times are wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 11
SEED = 0


def _time(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.batch < 1:
        print("error: --batch must be positive", file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import run
    import workloads
    from svpoint import autodiff as ad
    from svpoint import binkernel, netbuild, svcore

    cfg = netbuild.ModelConfig.from_text(
        f"[model]\nbackbone = pointnet_like\nk = {workloads.K}\nbinarize = vanilla\n")
    model = netbuild.build_model(cfg, rng_seed=SEED)
    bops = dict(netbuild.count_model_ops(model, workloads.POINTS).per_layer)
    per_cloud = {"edge": workloads.POINTS * workloads.K, "node": workloads.POINTS, "cloud": 1}
    rng = np.random.default_rng(SEED)
    # a block's scalar layer is followed by its norm; final0 by ReLU alone
    norms = {id(blk.scalar_mlp[0][0]): blk.norm for blk in model.blocks}
    for norm in norms.values():
        p = len(norm.running_mean)
        norm.scalar_gain.data[...] = rng.standard_normal(p)
        norm.scalar_bias.data[...] = rng.standard_normal(p)
        norm.running_mean[...] = rng.standard_normal(p)
        norm.running_var[...] = rng.random(p) * 3

    def model_route(x, lin, norm):
        if norm is None:
            return ad.relu(binkernel.linear(x, lin)).data
        return binkernel.linear(x, lin, svcore.eval_norm(norm)).data

    def float_route(x, lin, norm):
        signs = np.where(x - lin.beta.data[:, None] >= 0, 1.0, -1.0)
        out = np.where(lin.weight.data >= 0, 1.0, -1.0).T @ signs * lin.gamma.data[:, None]
        if norm is not None:
            inv = 1.0 / np.sqrt(norm.running_var + svcore.NORM_EPS)[:, None]
            out = ((out - norm.running_mean[:, None]) * inv * norm.scalar_gain.data[:, None]
                   + norm.scalar_bias.data[:, None])
        return np.maximum(out, 0.0)

    routes = {"model": model_route, "float": float_route}
    layers = []
    for name, lin, _, sites in model.layers:
        if lin.mode != "binary_full":
            continue
        n = args.batch * per_cloud[sites]
        x = rng.standard_normal((lin.in_dim, n))
        norm = norms.get(id(lin))
        if not np.array_equal(model_route(x, lin, norm), float_route(x, lin, norm)):
            print(f"error: {name}: the model's eval route differs from the float route",
                  file=sys.stderr)
            return 1
        times = {}
        for route, fn in routes.items():
            fn(x, lin, norm)  # warm-up
            times[route] = [_time(fn, x, lin, norm) for _ in range(REPEATS)]
        model_s, float_s = statistics.median(times["model"]), statistics.median(times["float"])
        layer_bops = args.batch * bops[name]["bops"]
        layers.append({
            "name": name,
            "in_dim": lin.in_dim,
            "out_dim": lin.out_dim,
            "sites": n,
            "finish": "gamma, running-stat norm, relu" if norm else "gamma; relu after",
            "bops": layer_bops,
            "model_s_p50": model_s,
            "float_s_p50": float_s,
            "float_over_model": float_s / model_s,
            "model_bops_per_s": layer_bops / model_s,
            "model_s": times["model"],
            "float_s": times["float"],
        })

    result = {
        "workload": "eval route of each binary_full layer of pointnet_like, vanilla, "
                    "with its norm and ReLU",
        "batch": args.batch,
        "points": workloads.POINTS,
        "k": workloads.K,
        "seed": SEED,
        "repeats": REPEATS,
        "gemm_block": binkernel.GEMM_BLOCK,
        "layers": layers,
        "model_s_total": sum(layer["model_s_p50"] for layer in layers),
        "float_s_total": sum(layer["float_s_p50"] for layer in layers),
        "host": {
            **run.host_facts(),
            "machine": platform.machine(),
            "ram_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        },
    }
    text = json.dumps(result, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
