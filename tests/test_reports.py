"""The report scripts run end to end on a small input."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_binary_layers_report_runs(tmp_path):
    """`reports/binary_layers.py` checks the model's eval route against the
    float route on each binary_full layer and writes one timed row each."""
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(ROOT / "reports" / "binary_layers.py"),
                           "--batch", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["batch"] == 1
    assert [layer["name"] for layer in result["layers"]] == [
        "block0.scalar0", "block1.scalar0", "block2.scalar0", "final0"]
    for layer in result["layers"]:
        assert len(layer["model_s"]) == len(layer["float_s"]) == result["repeats"]
        assert layer["model_s_p50"] > 0 and layer["float_s_p50"] > 0
        assert layer["bops"] == layer["in_dim"] * layer["out_dim"] * layer["sites"]


def test_train_step_memory_report_runs(tmp_path):
    """`reports/train_step_memory.py` drives the binary dgcnn training
    workload at a chosen batch and writes its step times, peak RSS and tape."""
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(ROOT / "reports" / "train_step_memory.py"),
                           "--batch", "1", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["batch"] == 1
    assert len(result["step_s"]) == 3 and result["step_s_p50"] > 0
    assert result["clouds_per_s"] == 1 / result["step_s_p50"]
    assert result["peak_rss_mb"] > 0
    assert result["tape_nodes"] > 0 and result["tape_output_mb"] > 0
