"""Step time, peak RSS and tape size of binary dgcnn training at a chosen batch.

    python3 reports/train_step_memory.py --batch 32 --out BENCH_7.json

Drives the `Train` workload of `perfbench/workloads.py` unchanged (data
generation, model build, checkpoint round trip and cached neighbor tables
in set-up; Adam steps over a training set of twice the batch) under a
7 GiB address-space limit, so that a batch too large for the machine
fails with MemoryError instead of starving other processes. After one
warm-up step it times three steps and writes their median, the peak RSS
of the process, the tape of the last step and host facts as JSON. Run it
alone: the step time is wall time.

`tape_output_mb` counts the tape's node outputs only, not the arrays that
backward closures hold beside them: the `binary_full` layers'
`binkernel.linear` nodes keep their booleans and int32 products there,
49 MiB in all at B=8.
So peak RSS, not the tape size, is the figure to compare across changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
LIMIT_GIB = 7
STEPS = 3
SEED = 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batch", type=int, default=32)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.batch < 1:
        print("error: --batch must be positive", file=sys.stderr)
        return 2

    limit = LIMIT_GIB * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.Train(SEED, Path(tmp), "dgcnn_like", "vanilla", batch=args.batch,
                             n_train=2 * args.batch, loss_gate=False)
        try:
            t0 = perf_counter()
            wl.setup()
            setup_s = perf_counter() - t0
            wl.step()  # warm-up
            times = []
            for _ in range(STEPS):
                t0 = perf_counter()
                out = wl.step()
                times.append(perf_counter() - t0)
        except MemoryError as exc:
            print(f"error: batch {args.batch} exceeds the {LIMIT_GIB} GiB address-space "
                  f"limit: {exc}", file=sys.stderr)
            return 1
    if not wl.check(out):
        print("error: non-finite loss or logits", file=sys.stderr)
        return 1

    result = {
        "workload": "train_dgcnn_binary at another batch: Train(dgcnn_like, vanilla)",
        "batch": args.batch,
        "points": workloads.POINTS,
        "k": workloads.K,
        "seed": SEED,
        "step_s_p50": statistics.median(times),
        "step_s": times,
        "clouds_per_s": args.batch / statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
        "address_space_limit_gib": LIMIT_GIB,
        "tape_nodes": wl.tape_nodes,
        "tape_output_mb": wl.tape_output_bytes / 2**20,
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
