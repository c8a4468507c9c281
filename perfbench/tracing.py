"""In-memory span tracing of svpoint, installed from outside the package.

A `Tracer` replaces module and class attributes with wrappers that record
one span per call: name, start, end, parent span and operation id. Each
attribute is wrapped at the name its callers look up at run time, so
`svcore` functions are wrapped where `netbuild` imported them, and
autodiff primitives as `autodiff` module attributes (callers inside
autodiff and in other modules reach them through that namespace).

A wrapped autodiff primitive also wraps the `_grad_fn` of the tensor it
returns, so backward time lands in a `<prim>.bwd` span under the
`Tape.backward` span. `binkernel.sign` is bound into autodiff as
`_sign_forward` at import, so inside the model its time stays in the
`autodiff.sign_ste` span.

Spans live in a list until `write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# operation ids for spans outside the timed operations
SETUP = -1
CHECK = -2
UNTIMED = -3

AUTODIFF_PRIMS = (
    "vector_map_raw", "pair_contract", "sorted_coord_sum", "batch_norm_train",
    "vector_norm_scale_train", "take_sites", "pool_groups", "concat", "mul",
    "matmul", "sign_ste",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = UNTIMED
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def region(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own."""
        return self.wrap(name, fn)(*args)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return traced

    def wrap_primitive(self, name: str, fn):
        fwd, bwd = f"{name}.fwd", f"{name}.bwd"

        def traced(*args, **kwargs):
            idx = self._enter(fwd)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            # fused normalizations return (tensor, stats...)
            out = result[0] if isinstance(result, tuple) else result
            grad_fn = getattr(out, "_grad_fn", None)
            if grad_fn is not None:
                out._grad_fn = self.wrap(bwd, grad_fn)
            return result

        return traced

    # -- installation

    def patch(self, owner, attr: str, name: str, primitive: bool = False) -> None:
        original = getattr(owner, attr)
        wrapper = self.wrap_primitive(name, original) if primitive else self.wrap(name, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, bench_module) -> None:
        """Wrap every traced svpoint entry point and the benchmark's helpers."""
        from svpoint import autodiff, binkernel, cli, netbuild

        self.patch(netbuild, "neighbor_tables", "netbuild.neighbor_tables")
        self.patch(netbuild.Model, "forward", "netbuild.forward")
        self.patch(netbuild, "save_checkpoint", "netbuild.save_checkpoint")
        self.patch(netbuild, "load_checkpoint", "netbuild.load_checkpoint")
        self.patch(cli, "load_split", "cli.load_split")
        for fn in ("svblock_forward", "aggregate", "regroup_edges", "invariant_head"):
            self.patch(netbuild, fn, f"svcore.{fn}")
        self.patch(autodiff.Tape, "backward", "autodiff.backward")
        self.patch(autodiff, "adam_step", "autodiff.adam_step")
        for prim in AUTODIFF_PRIMS:
            self.patch(autodiff, prim, f"autodiff.{prim}", primitive=True)
        for fn in ("bitpack", "xnor_popcount_gemm", "sign"):
            self.patch(binkernel, fn, f"binkernel.{fn}")
        self.patch(bench_module, "rotate_batch", "geometry.rotate")
        self.patch(bench_module, "float_route", "binkernel.float_route")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction

    def summarize(self, n_ops: int) -> dict[str, float]:
        """Per-layer totals from the recorded spans.

        `<name>_s` is inclusive seconds per timed operation, `<name>_self_s`
        the same minus the time covered by child spans, and `<name>.calls`
        calls per timed operation. Spans recorded during set-up are
        reported per set-up under `setup:<name>_s`, and spans recorded
        during output checks per timed operation under `check:<name>_s`.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        setups = max(1, sum(1 for s in self.spans if s[0] == "setup"))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            dur = end - start
            if op >= 0:
                total[f"{name}_s"] += dur / n_ops
                total[f"{name}_self_s"] += (dur - child[i]) / n_ops
                calls[f"{name}.calls"] += 1
            elif op == SETUP:
                total[f"setup:{name}_s"] += dur / setups
            elif op == CHECK:
                total[f"check:{name}_s"] += dur / n_ops
        out = dict(total)
        out.update({k: v / n_ops for k, v in calls.items()})
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
