"""svpoint benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

svpoint is imported from the `src` directory next to `perfbench`. Set-up
(data generation, write and read, model build, checkpoint round trip,
cached neighbor tables or reference outputs) runs SETUP_REPEATS times and
is followed by one untimed warm-up step; `setup_s` is the median set-up
plus that warm-up. Then steps run back to back for S seconds, each
checked for correctness, and the workload's end-of-run gates follow.
With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 the first half of the time runs untraced
and the second half traced, and it reports the per-layer metrics,
including the tracing overhead. Spans, host facts and the result are
written under .perfbench/. Exit status is 0 only when every step and
gate passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


class Runner:
    """Runs and checks the steps of one workload, counting failures."""

    def __init__(self, wl):
        self.wl = wl
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failed = 0

    def op(self, op_id: int) -> float | None:
        """One step, then its check; the step's wall time, None if it raised."""
        tr = self.tracer
        self.attempted += 1
        try:
            if tr is None:
                t0 = perf_counter()
                out = self.wl.step()
                dt = perf_counter() - t0
            else:
                tr.op = op_id
                t0 = perf_counter()
                out = tr.region("op", self.wl.step)
                dt = perf_counter() - t0
                tr.op = tracing.CHECK
        except Exception:  # a raising step is a failed operation, not a crash
            traceback.print_exc()
            self.failed += 1
            return None
        try:
            ok = self.wl.check(out)
        except Exception:
            traceback.print_exc()
            ok = False
        self.failed += not ok
        return dt

    def loop(self, seconds: float) -> list[float]:
        times: list[float] = []
        end = perf_counter() + seconds
        while perf_counter() < end:
            dt = self.op(len(times))
            if dt is not None:
                times.append(dt)
        if not times:
            raise RuntimeError("every step raised")
        return times

    def finish(self) -> None:
        try:
            gates = self.wl.finish()
        except Exception:
            traceback.print_exc()
            gates = [False]
        self.attempted += len(gates)
        self.failed += gates.count(False)


def _rate(wl, times: list[float]) -> float:
    return wl.batch * len(times) / sum(times)


def measure(wl, seconds: float):
    """Untraced run: (end-to-end metrics, runner, step times)."""
    runner = Runner(wl)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    t0 = perf_counter()
    runner.op(tracing.UNTIMED)  # warm-up: the first step runs markedly slower
    warm_up = perf_counter() - t0
    times = runner.loop(seconds)
    runner.finish()
    metrics = {
        "clouds_per_s": _rate(wl, times),
        "step_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
        "setup_s": statistics.median(setups) + warm_up,
        "ok_share": 1.0 - runner.failed / runner.attempted,
    }
    return metrics, runner, times


def measure_traced(wl, tracer: tracing.Tracer, bench_module, seconds: float):
    """Traced run: (per-layer metrics, runner, traced step times)."""
    runner = Runner(wl)
    tracer.install(bench_module)
    tracer.op = tracing.SETUP
    try:
        tracer.region("setup", wl.setup)
    finally:
        tracer.uninstall()
    runner.op(tracing.UNTIMED)
    plain = runner.loop(seconds / 2)

    runner.tracer = tracer
    tracer.install(bench_module)
    try:
        traced = runner.loop(seconds / 2)
    finally:
        tracer.uninstall()
        runner.tracer = None
    runner.finish()

    layers = tracer.summarize(len(traced))
    plain_rate, traced_rate = _rate(wl, plain), _rate(wl, traced)
    bops = wl.bops()
    metrics = {
        "trace.untraced_clouds_per_s": plain_rate,
        "trace.clouds_per_s": traced_rate,
        "trace.overhead_share": 1.0 - traced_rate / plain_rate,
        "trace.step_s_p50": statistics.median(traced),
        "trace.attributed_share": 1.0 - layers["op_self_s"] / layers["op_s"],
        "netbuild.save_checkpoint_s": layers.get("setup:netbuild.save_checkpoint_s", 0.0),
        "netbuild.load_checkpoint_s": layers.get("setup:netbuild.load_checkpoint_s", 0.0),
        "cli.load_split_s": layers.get("setup:cli.load_split_s", 0.0),
        "binkernel.float_route_s": layers.get("check:binkernel.float_route_s", 0.0),
        "binkernel.bops": float(bops),
        "binkernel.bops_per_s": bops / statistics.median(plain),
        "autodiff.tape_nodes": float(getattr(wl, "tape_nodes", 0)),
        "autodiff.tape_output_bytes": float(getattr(wl, "tape_output_bytes", 0)),
    }
    for name in ("netbuild.neighbor_tables", "geometry.rotate", "netbuild.forward",
                 "svcore.aggregate", "svcore.regroup_edges", "autodiff.backward",
                 "autodiff.adam_step", "binkernel.bitpack", "binkernel.xnor_popcount_gemm",
                 "binkernel.sign"):
        metrics[f"{name}_s"] = layers.get(f"{name}_s", 0.0)
        metrics[f"{name}.calls"] = layers.get(f"{name}.calls", 0.0)
    for name in ("netbuild.forward", "svcore.svblock_forward", "svcore.invariant_head"):
        metrics[f"{name}_self_s"] = layers.get(f"{name}_self_s", 0.0)
    for prim in tracing.AUTODIFF_PRIMS:
        for part in ("fwd", "bwd"):
            metrics[f"autodiff.{prim}.{part}_s"] = layers.get(f"autodiff.{prim}.{part}_s", 0.0)
        metrics[f"autodiff.{prim}.calls"] = layers.get(f"autodiff.{prim}.fwd.calls", 0.0)
    return metrics, runner, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import svpoint
    except ImportError as exc:
        print(f"error: cannot import svpoint from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(svpoint.__file__).resolve().parent != src / "svpoint":
        print(f"error: svpoint was imported from {svpoint.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if tracer is None:
            metrics, runner, steps = measure(wl, args.seconds)
        else:
            metrics, runner, steps = measure_traced(wl, tracer, workloads, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "timed_steps": len(steps), "host": host_facts(),
              "step_s": steps, "result": result}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{tag}.jsonl")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "timed_steps", "host")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
