"""End-to-end command-line coverage on a tiny synthetic workspace."""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

import svpoint.cli as cli
import svpoint.netbuild as nb
from svpoint.errors import ConfigError, ParameterError
from svpoint.geometry import PointCloud, synthesize_shapes, write_xyz

README = Path(__file__).resolve().parent.parent / "README.md"

TINY_CFG = "[model]\nbackbone = pointnet_like\nk = 4\nchannels = 16,24\nhead_dim = 32\n"

EPOCH_LINE = re.compile(
    r"^epoch=(\d+) phase=(\d) lr=[0-9.e+-]+ "
    r"loss=\d+\.\d{4} acc=[01]\.\d{4} test_acc=[01]\.\d{4}$"
)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = cli.main(["gen-data", "--train", "8", "--test", "4",
                   "--points", "32", "--out", str(data)])
    assert rc == 0
    (root / "net.ini").write_text(TINY_CFG)
    (root / "bin.ini").write_text(TINY_CFG + "binarize = vanilla\n")
    (root / "two_step.ini").write_text(TINY_CFG + "binarize = two_step\n")
    (root / "base.ini").write_text(TINY_CFG + "baseline = true\n")
    return root


@pytest.fixture(scope="module")
def fp_ckpt(ws):
    out = ws / "fp.ckpt"
    rc = cli.main(["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
                   "--epochs", "1", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def base_ckpt(ws):
    out = ws / "base.ckpt"
    rc = cli.main(["train", "--config", str(ws / "base.ini"), "--data", str(ws / "data"),
                   "--epochs", "1", "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# data generation and loading


def test_gen_data_layout(ws, capsys):
    data = ws / "data"
    train_lines = (data / "train.tsv").read_text().splitlines()
    test_lines = (data / "test.tsv").read_text().splitlines()
    assert len(train_lines) == 8 and len(test_lines) == 4
    hist = {}
    for line in train_lines:
        name, class_id = line.split("\t")
        assert (data / name).is_file()
        hist[class_id] = hist.get(class_id, 0) + 1
    assert hist == {"0": 2, "1": 2, "2": 2, "3": 2}  # round-robin labels


def test_gen_data_is_reproducible(ws, tmp_path, capsys):
    again = tmp_path / "data2"
    assert cli.main(["gen-data", "--train", "8", "--test", "4",
                     "--points", "32", "--out", str(again)]) == 0
    assert (again / "train.tsv").read_bytes() == (ws / "data" / "train.tsv").read_bytes()
    sample = (ws / "data" / "train.tsv").read_text().splitlines()[0].split("\t")[0]
    assert (again / sample).read_bytes() == (ws / "data" / sample).read_bytes()


def test_gen_data_rejects_bad_requests(tmp_path, capsys):
    assert cli.main(["gen-data", "--classes", "3", "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["gen-data", "--points", "8", "--out", str(tmp_path / "y")]) == 1
    assert "error:" in capsys.readouterr().err


def test_load_split_diagnostics(tmp_path):
    with pytest.raises(ParameterError, match="gen-data first"):
        cli.load_split(tmp_path, "train")
    (tmp_path / "train.tsv").write_text("cloud.xyz 2\n")
    with pytest.raises(ParameterError, match="filename<TAB>class"):
        cli.load_split(tmp_path, "train")
    (tmp_path / "train.tsv").write_text("\n  \n")
    with pytest.raises(ParameterError, match="empty split"):
        cli.load_split(tmp_path, "train")


def test_protocol_parsing():
    proto = cli.EvalProtocol.from_string("I/SO3")
    assert (proto.train_rot, proto.test_rot) == ("none", "so3")
    assert cli.EvalProtocol.from_string("z/z").train_rot == "z"
    assert cli.EvalProtocol.from_string("SO3/so3").train_rot == "so3"
    for bad in ("I", "x/so3", "I/flip", "a/b/c"):
        with pytest.raises(ParameterError):
            cli.EvalProtocol.from_string(bad)


# ---------------------------------------------------------------------------
# training


def test_train_log_format_and_determinism(ws, tmp_path, capsys):
    argv = ["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
            "--epochs", "2"]
    assert cli.main(argv + ["--out", str(tmp_path / "a.ckpt")]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("epoch=")]
    assert len(lines) == 2
    for i, line in enumerate(lines):
        m = EPOCH_LINE.match(line)
        assert m, line
        assert int(m.group(1)) == i and m.group(2) == "1"
    assert re.search(r"best test_acc=[01]\.\d{4} saved=", out)

    assert cli.main(argv + ["--out", str(tmp_path / "b.ckpt")]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def error_lines(text):
    return [line for line in text.splitlines() if line.startswith("error:")]


def test_train_mixed_point_counts_fails_cleanly(ws, tmp_path, capsys):
    # I/SO3 builds the neighbor tables of the whole split up front
    data = tmp_path / "mixed"
    assert cli.main(["gen-data", "--train", "4", "--test", "4",
                     "--points", "32", "--out", str(data)]) == 0
    first = (data / "train.tsv").read_text().splitlines()[0].split("\t")[0]
    write_xyz(synthesize_shapes(0, 40, 0), data / first)
    capsys.readouterr()
    out = tmp_path / "mixed.ckpt"
    assert cli.main(["train", "--config", str(ws / "net.ini"), "--data", str(data),
                     "--protocol", "I/SO3", "--epochs", "1", "--out", str(out)]) == 1
    errors = error_lines(capsys.readouterr().err)
    assert len(errors) == 1 and "equal point counts" in errors[0]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_stops(ws, tmp_path, capsys):
    # at batch 2 the loss turns NaN mid-epoch; with the whole set in one
    # batch the weights turn finite but huge, and the test logits show it first
    for batch, reason in (("2", r"loss nan at epoch \d+ step \d+"),
                          ("32", r"non-finite test logits at epoch 0")):
        out = tmp_path / f"diverged{batch}.ckpt"
        assert cli.main(["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
                         "--epochs", "2", "--batch", batch, "--lr", "1e6",
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        errors = error_lines(captured.err)
        assert len(errors) == 1 and captured.err.splitlines() == errors
        assert re.search(reason, errors[0]), errors[0]
        assert "loss=nan" not in captured.out
        assert not out.exists()


def test_train_binary_config(ws, tmp_path, capsys):
    out = tmp_path / "bin.ckpt"
    assert cli.main(["train", "--config", str(ws / "bin.ini"), "--data", str(ws / "data"),
                     "--epochs", "1", "--out", str(out)]) == 0
    assert nb.load_checkpoint(out).binarized


def test_train_two_step_phases(ws, tmp_path, capsys):
    out = tmp_path / "ts.ckpt"
    assert cli.main(["train", "--config", str(ws / "two_step.ini"), "--data", str(ws / "data"),
                     "--epochs", "2", "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
    phases = [EPOCH_LINE.match(l).group(2) for l in lines]
    assert phases == ["1", "2"]
    model = nb.load_checkpoint(out)
    assert model.binarized
    assert model.cfg.binarize == "two_step"


def test_train_rejects_a_state_section(ws, tmp_path, capsys):
    # only checkpoints carry [state]; from a config it made unloadable checkpoints
    out = tmp_path / "state.ckpt"
    for extra in ("[state]\nbinarized = true\n",
                  "binarize = two_step\n[state]\nbinarized = false\n"):
        (tmp_path / "state.ini").write_text(TINY_CFG + extra)
        assert cli.main(["train", "--config", str(tmp_path / "state.ini"),
                         "--data", str(ws / "data"), "--epochs", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: config section [state] is not allowed; "
                                             "every key goes under [model]"]
        assert not out.exists()


def test_train_baseline_config_is_echoed(base_ckpt):
    assert nb.load_checkpoint(base_ckpt).cfg.baseline


# ---------------------------------------------------------------------------
# evaluation and property checks


def test_eval_fixed_rotation_has_zero_spread(ws, fp_ckpt, capsys):
    assert cli.main(["eval", "--ckpt", str(fp_ckpt), "--data", str(ws / "data"),
                     "--test-rot", "none", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"test_rot=none trials=3 accuracy=([01]\.\d{4}) spread=0\.0000", out)
    assert m, out
    assert 0.0 <= float(m.group(1)) <= 1.0


def test_eval_rotated_split_runs(ws, fp_ckpt, capsys):
    assert cli.main(["eval", "--ckpt", str(fp_ckpt), "--data", str(ws / "data"),
                     "--test-rot", "so3", "--trials", "2", "--split", "train"]) == 0
    assert "test_rot=so3 trials=2" in capsys.readouterr().out


def test_accuracy_batches_by_point_count():
    class Recorder:
        def __init__(self):
            self.batches = []

        def predict(self, part):
            self.batches.append([c.label for c in part])
            return np.array([0] * len(part))

    def clouds(counts):  # labelled by their place in the split
        return [PointCloud(synthesize_shapes(0, n, i).points, label=i)
                for i, n in enumerate(counts)]

    model = Recorder()
    assert cli._accuracy(model, clouds([16] * 70)) == 1 / 70  # only cloud 0 has label 0
    assert model.batches == [list(range(0, 32)), list(range(32, 64)), list(range(64, 70))]
    model = Recorder()
    assert cli._accuracy(model, clouds([16, 20, 16, 20, 16]), batch=2) == 1 / 5
    assert model.batches == [[0, 2], [4], [1, 3]]


def test_eval_scores_a_split_of_mixed_point_counts(ws, fp_ckpt, tmp_path, capsys):
    data = tmp_path / "mixed"
    assert cli.main(["gen-data", "--train", "4", "--test", "6",
                     "--points", "32", "--out", str(data)]) == 0
    name = (data / "test.tsv").read_text().splitlines()[2].split("\t")[0]
    write_xyz(synthesize_shapes(2, 40, 0), data / name)
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(fp_ckpt), "--data", str(data),
                     "--test-rot", "none", "--trials", "1"]) == 0
    model = nb.load_checkpoint(fp_ckpt)
    split = cli.load_split(data, "test")
    hits = sum(int(model.predict([c])[0] == c.label) for c in split)
    assert f"accuracy={hits / len(split):.4f}" in capsys.readouterr().out


def test_equiv_check_passes_for_invariant_model(fp_ckpt, capsys):
    assert cli.main(["equiv-check", "--ckpt", str(fp_ckpt), "--mode", "fp",
                     "--trials", "10", "--points", "32"]) == 0
    assert re.search(r"mode=fp trials=10 max_rel_deviation=\d\.\d{3}e-\d+",
                     capsys.readouterr().out)
    assert cli.main(["equiv-check", "--ckpt", str(fp_ckpt), "--mode", "exact",
                     "--points", "32"]) == 0
    assert "bit_identical=24/24" in capsys.readouterr().out


@pytest.fixture(scope="module")
def overflow_ckpt(ws, fp_ckpt):
    # finite weights, so the checkpoint loads, but the forward overflows
    model = nb.load_checkpoint(fp_ckpt)
    model.store.params["final0.weight"].data[...] = 1e308
    out = ws / "overflow.ckpt"
    nb.save_checkpoint(model, out)
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["eval", "--test-rot", "none", "--trials", "1"],
    ["equiv-check", "--mode", "fp", "--trials", "2", "--points", "32"],
    ["equiv-check", "--mode", "exact", "--points", "32"],
], ids=["eval", "equiv_fp", "equiv_exact"])
def test_non_finite_logits_fail_loudly(ws, overflow_ckpt, argv, capsys):
    if argv[0] == "eval":
        argv = argv + ["--data", str(ws / "data")]
    assert cli.main(argv + ["--ckpt", str(overflow_ckpt)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite logits" in err[0]
    assert captured.out == ""


def test_equiv_check_flags_baseline(base_ckpt, capsys):
    assert cli.main(["equiv-check", "--ckpt", str(base_ckpt), "--mode", "fp",
                     "--trials", "5", "--points", "32"]) == 1
    captured = capsys.readouterr()
    assert "exceeds 1e-10" in captured.err
    assert cli.main(["equiv-check", "--ckpt", str(base_ckpt), "--mode", "exact",
                     "--points", "32"]) == 1
    assert "bit-identical" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# accounting and benchmarks


def test_count_ops_reference_table(capsys):
    assert cli.main(["count-ops", "--table1"]) == 0
    out = capsys.readouterr().out
    grab = lambda label: re.search(
        rf"table1 {label}: macs=(\d+) adds=(\d+) bops=(\d+)", out).groups()
    assert grab("vanilla") == ("67108864", "0", "0")
    macs, adds, bops = (int(v) for v in grab("sv_fp"))
    assert (macs, adds, bops) == (39938730, 0, 0)
    macs, adds, bops = (int(v) for v in grab("sv_binary"))
    assert bops == 33554432
    assert macs + adds + bops == 39938730


def test_count_ops_per_layer_sums(ws, capsys):
    assert cli.main(["count-ops", "--config", str(ws / "net.ini"),
                     "--points", "64"]) == 0
    out = capsys.readouterr().out
    layers = re.findall(r"^(?!total)(\S+): macs=(\d+) adds=(\d+) bops=(\d+)$",
                        out, re.M)
    totals = re.search(r"^total: macs=(\d+) adds=(\d+) bops=(\d+)$", out, re.M)
    assert layers and totals
    for pos, kind in enumerate(("macs", "adds", "bops")):
        assert sum(int(l[pos + 1]) for l in layers) == int(totals.group(pos + 1))
    assert int(re.search(r"param_bits=(\d+)", out).group(1)) > 0


def test_count_ops_needs_a_request(capsys):
    assert cli.main(["count-ops"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bench_csv(capsys):
    assert cli.main(["bench", "--kernel", "all", "--n", "64", "--trials", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kernel,n,trials,ns_per_op"
    rows = [l.split(",") for l in out[1:] if l and not l.startswith("#")]
    assert {r[0] for r in rows} == {"xnor_packed", "float_matmul", "signadd"}
    for r in rows:
        assert r[1] == "64" and r[2] == "1" and float(r[3]) > 0


# ---------------------------------------------------------------------------
# failure modes surface as one-line errors


def test_command_error_paths(ws, tmp_path, capsys):
    cases = [
        ["train", "--config", "/no/net.ini", "--data", str(ws / "data"),
         "--epochs", "1", "--out", str(tmp_path / "x.ckpt")],
        ["train", "--config", str(ws / "net.ini"), "--data", str(tmp_path / "void"),
         "--epochs", "1", "--out", str(tmp_path / "x.ckpt")],
        ["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
         "--protocol", "spin/so3", "--epochs", "1", "--out", str(tmp_path / "x.ckpt")],
        ["eval", "--ckpt", str(tmp_path / "absent.ckpt"), "--data", str(ws / "data")],
        ["equiv-check", "--ckpt", str(tmp_path / "absent.ckpt")],
        ["count-ops", "--config", "/no/net.ini"],
        ["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
         "--epochs", "0", "--out", str(tmp_path / "x.ckpt")],
        ["eval", "--ckpt", str(tmp_path / "absent.ckpt"), "--data", str(ws / "data"),
         "--trials", "0"],
        ["equiv-check", "--ckpt", str(tmp_path / "absent.ckpt"), "--trials", "0"],
        ["bench", "--n", "0"],
        ["bench", "--n", "64", "--trials", "0"],
    ]
    for argv in cases:
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), argv
        assert captured.out == "", argv  # nothing on stdout before the diagnostic


# ---------------------------------------------------------------------------
# the README documents the surface that exists


def test_readme_commands_use_existing_flags():
    """README code blocks and the `$ svpoint` lines of the logs under reports/
    use only subcommands and flags the parser has."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [("README", line.split()) for block in blocks for line in block.splitlines()
                if line.startswith("svpoint ")]
    assert len(commands) >= 6
    logs = sorted((README.parent / "reports").glob("*.log"))
    logged = [(log.name, line.split()[1:]) for log in logs
              for line in log.read_text().splitlines() if line.startswith("$ svpoint ")]
    assert logs and len(logged) >= len(logs)
    for source, words in commands + logged:
        assert words[1] in sub.choices, f"{source}: no subcommand `svpoint {words[1]}`"
        options = sub.choices[words[1]]._option_string_actions
        for flag in (w for w in words if w.startswith("--")):
            assert flag in options, f"{source}: `svpoint {words[1]}` has no {flag}"


def test_readme_config_keys_match_parser():
    text = README.read_text()
    section = text.split("`[model]` keys:", 1)[1].split("\n## ", 1)[0]
    documented = {key for names in re.findall(r"^- ((?:`\w+`(?:, )?)+):", section, re.M)
                  for key in re.findall(r"`(\w+)`", names)}
    printed = nb.ModelConfig().to_text()
    accepted = set(re.findall(r"^(\w+) = ", printed, re.M))
    assert documented == accepted
    assert nb.ModelConfig.from_text(printed) == nb.ModelConfig()
    with pytest.raises(ConfigError, match="unknown config key"):
        nb.ModelConfig.from_text("[model]\nchannel_plan = 8\n")
