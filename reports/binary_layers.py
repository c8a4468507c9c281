"""Packed and float time of each binary_full layer of the binary pointnet.

    python3 reports/binary_layers.py --out BENCH_21.json

Builds the vanilla binary pointnet with the benchmark's config (`k` and
points per cloud from `perfbench/workloads.py`) and reads its
`binary_full` layers by name from `Model.layers`. Each layer gets one
standard-normal input of its real shape for a batch of clouds, and its
`binkernel.binary_linear_full` output on the packed route is checked bit
for bit against the float route. Each route is then timed `REPEATS`
times in a row after one warm-up, the packed route first. A model runs
one route, and timing the two in turn would time each in the glibc heap
state the other left (which pages are mapped, where the mmap threshold
sits). Writes each layer's medians beside its BOP count from
`count_model_ops`, with host facts, as JSON. Run it alone: the times are
wall time.
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
    from svpoint import binkernel, netbuild

    cfg = netbuild.ModelConfig.from_text(
        f"[model]\nbackbone = pointnet_like\nk = {workloads.K}\nbinarize = vanilla\n")
    model = netbuild.build_model(cfg, rng_seed=SEED)
    bops = dict(netbuild.count_model_ops(model, workloads.POINTS).per_layer)
    per_cloud = {"edge": workloads.POINTS * workloads.K, "node": workloads.POINTS, "cloud": 1}
    rng = np.random.default_rng(SEED)

    layers = []
    for name, lin, _, sites in model.layers:
        if lin.mode != "binary_full":
            continue
        n = args.batch * per_cloud[sites]
        x = rng.standard_normal((lin.in_dim, n))
        if not np.array_equal(binkernel.binary_linear_full(x, lin, use_packed=True),
                              binkernel.binary_linear_full(x, lin, use_packed=False)):
            print(f"error: {name}: the packed route differs from the float route",
                  file=sys.stderr)
            return 1
        times = {}
        for route in ("packed", "float"):
            binkernel.binary_linear_full(x, lin, route == "packed")  # warm-up
            times[route] = [_time(binkernel.binary_linear_full, x, lin, route == "packed")
                            for _ in range(REPEATS)]
        packed_s, float_s = statistics.median(times["packed"]), statistics.median(times["float"])
        layer_bops = args.batch * bops[name]["bops"]
        layers.append({
            "name": name,
            "in_dim": lin.in_dim,
            "out_dim": lin.out_dim,
            "sites": n,
            "bops": layer_bops,
            "packed_s_p50": packed_s,
            "float_s_p50": float_s,
            "float_over_packed": float_s / packed_s,
            "packed_bops_per_s": layer_bops / packed_s,
            "packed_s": times["packed"],
            "float_s": times["float"],
        })

    result = {
        "workload": "binary_linear_full on each binary_full layer of pointnet_like, vanilla",
        "batch": args.batch,
        "points": workloads.POINTS,
        "k": workloads.K,
        "seed": SEED,
        "repeats": REPEATS,
        "gemm_block": binkernel.GEMM_BLOCK,
        "layers": layers,
        "packed_s_total": sum(layer["packed_s_p50"] for layer in layers),
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
