"""The benchmark's own workloads run against the package as it stands.

`perfbench/workloads.py` reaches into the package by fixed paths: a
block's `scalar_mlp[0][0]`, `Model.forward(stats_mode=, graphs=)`,
`neighbor_tables(chunk=)` and `node.data` on a live tape's nodes. A change
that breaks one fails here, not only as a failed step in a benchmark run.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_benchmark_workload_sets_up_and_runs_one_checked_step(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for name, make in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        wl = make(0, workdir)
        wl.setup()
        assert wl.check(wl.step()), name
        del wl  # one workload's arrays at a time
