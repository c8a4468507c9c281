"""End-to-end command-line coverage on a tiny synthetic workspace."""

import argparse
import itertools
import re
import shutil
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
    write_xyz(PointCloud(np.eye(3)), tmp_path / "a.xyz")
    for label in ("x", "-1", "1.0", ""):
        (tmp_path / "train.tsv").write_text(f"a.xyz\t0\n\na.xyz\t{label}\n")
        with pytest.raises(ParameterError, match=r"train\.tsv:3: expected filename<TAB>class"):
            cli.load_split(tmp_path, "train")
    (tmp_path / "train.tsv").write_text("a.xyz\t0\n\na.xyz\t7\n")
    assert [c.label for c in cli.load_split(tmp_path, "train")] == [0, 7]


def test_protocol_parsing():
    assert cli._parse_protocol("I/SO3") == ("none", "so3")
    assert cli._parse_protocol("z/z")[0] == "z"
    assert cli._parse_protocol("SO3/so3")[0] == "so3"
    for bad in ("I", "x/so3", "I/flip", "a/b/c"):
        with pytest.raises(ParameterError):
            cli._parse_protocol(bad)


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
    # a binary run's sign of NaN stays NaN, so it diverges the same way
    for config, (batch, reason) in itertools.product(
            ("net.ini", "bin.ini"), (("2", r"loss nan at epoch \d+ step \d+"),
                                     ("32", r"non-finite test logits at epoch 0"))):
        out = tmp_path / f"diverged{batch}.ckpt"
        assert cli.main(["train", "--config", str(ws / config), "--data", str(ws / "data"),
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


def test_train_builds_neighbor_tables_once(ws, tmp_path, capsys, monkeypatch):
    """An unrotated two-step run reuses one set of training-split tables
    across both phases; one epoch is all phase 2. The test-accuracy forwards
    build their own tables, which are not counted."""
    train = [c.points.tobytes() for c in cli.load_split(ws / "data", "train")]
    calls = []
    real = nb.neighbor_tables

    def spy(clouds, *args, **kw):
        if [c.points.tobytes() for c in clouds] == train:
            calls.append(1)
        return real(clouds, *args, **kw)

    monkeypatch.setattr(nb, "neighbor_tables", spy)
    for epochs, phases in (("2", ["1", "2"]), ("1", ["2"])):
        calls.clear()
        assert cli.main(["train", "--config", str(ws / "two_step.ini"), "--data",
                         str(ws / "data"), "--protocol", "I/SO3", "--epochs", epochs,
                         "--out", str(tmp_path / "ts.ckpt")]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch=")]
        assert [EPOCH_LINE.match(l).group(2) for l in lines] == phases
        assert len(calls) == 1
        assert nb.load_checkpoint(tmp_path / "ts.ckpt").binarized


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
# operation accounting


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


# ---------------------------------------------------------------------------
# failure modes surface as one-line errors


def test_command_error_paths(ws, tmp_path, capsys):
    # a 364 TiB allocation: past the 128 TiB user address space, so the
    # allocation fails at once instead of filling memory
    huge = tmp_path / "huge.ini"
    huge.write_text("[model]\nchannels = 10000000,10000000\n")
    stray = tmp_path / "stray.ini"
    stray.write_text("[model]\nk = 4\nstray line\n")
    headless = tmp_path / "headless.ini"
    headless.write_text("k = 4\n")
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
        ["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
         "--batch", "0", "--protocol", "z/SO3", "--epochs", "1", "--out", str(tmp_path / "x.ckpt")],
        ["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
         "--batch", "-1", "--epochs", "1", "--out", str(tmp_path / "x.ckpt")],
        ["count-ops", "--config", str(ws / "net.ini"), "--points", "-5"],
        ["eval", "--ckpt", str(tmp_path / "absent.ckpt"), "--data", str(ws / "data"),
         "--trials", "0"],
        ["equiv-check", "--ckpt", str(tmp_path / "absent.ckpt"), "--trials", "0"],
        ["count-ops", "--config", str(huge)],
        ["count-ops", "--config", str(stray)],
        ["count-ops", "--config", str(headless)],
        ["train", "--config", str(huge), "--data", str(ws / "data"),
         "--epochs", "1", "--out", str(tmp_path / "x.ckpt")],
    ] + [["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
          "--lr", lr, "--epochs", "1", "--out", str(tmp_path / "x.ckpt")]
         for lr in ("nan", "inf", "-1", "0")]
    for argv in cases:
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), argv
        assert captured.out == "", argv  # nothing on stdout before the diagnostic
    assert not (tmp_path / "x.ckpt").exists()
    # an --out in a missing directory fails before any epoch runs, naming it
    missing = tmp_path / "missing"
    err = _one_error_line(["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
                           "--epochs", "1", "--out", str(missing / "m.svnc")], capsys)
    assert str(missing) in err and "m.svnc" not in err, err
    assert not missing.exists()
    # so does an --out that names an existing directory (no epoch= line on stdout)
    folder = tmp_path / "folder"
    folder.mkdir()
    err = _one_error_line(["train", "--config", str(ws / "net.ini"), "--data", str(ws / "data"),
                           "--epochs", "1", "--out", str(folder)], capsys)
    assert err == f"error: --out {folder} is a directory, not a checkpoint file", err
    assert list(folder.iterdir()) == []


@pytest.mark.parametrize("label", ["x", "-1", "7"])
def test_damaged_manifest_label_fails_in_one_line(ws, fp_ckpt, tmp_path, capsys, label):
    """A class id that is no integer, is negative, or has no logit in the
    4-class model stops train and eval in one line naming its manifest line."""
    data = tmp_path / "data"
    shutil.copytree(ws / "data", data)
    for split in ("train", "test"):
        lines = (data / f"{split}.tsv").read_text().splitlines()
        lines[1] = lines[1].split("\t")[0] + "\t" + label
        (data / f"{split}.tsv").write_text("\n".join(lines) + "\n")
    for argv, split in (
        (["train", "--config", str(ws / "net.ini"), "--data", str(data), "--epochs", "1",
          "--out", str(tmp_path / "x.ckpt")], "train"),
        (["eval", "--ckpt", str(fp_ckpt), "--data", str(data)], "test"),
    ):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1, argv
        assert err[0].startswith(f"error: {data / split}.tsv:2: "), err[0]
    assert not (tmp_path / "x.ckpt").exists()


def _one_error_line(argv, capsys) -> str:
    assert cli.main(argv) == 1, argv
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1, captured.err
    return err[0]


def test_config_that_is_not_utf8_fails_in_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(TINY_CFG.encode() + b"# \xff\n")
    err = _one_error_line(["count-ops", "--config", str(bad)], capsys)
    assert err == f"error: config {bad} is not UTF-8: byte 0xff at offset {len(TINY_CFG) + 2}"


def test_config_parse_error_names_file_and_line(tmp_path, capsys):
    stray = tmp_path / "stray.ini"
    stray.write_text("[model]\nk = 4\nstray line\n")
    err = _one_error_line(["count-ops", "--config", str(stray)], capsys)
    assert err == f"error: config {stray} line 3: cannot read 'stray line' (ParsingError)"
    headless = tmp_path / "headless.ini"
    headless.write_text("k = 4\n")
    err = _one_error_line(["count-ops", "--config", str(headless)], capsys)
    assert err == (f"error: config {headless} line 1: cannot read 'k = 4' "
                   f"(MissingSectionHeaderError)")


def test_manifest_that_is_not_utf8_fails_in_one_line(ws, fp_ckpt, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(ws / "data", data)
    manifest = data / "test.tsv"
    size = manifest.stat().st_size
    manifest.write_bytes(manifest.read_bytes() + b"\xff\t0\n")
    err = _one_error_line(["eval", "--ckpt", str(fp_ckpt), "--data", str(data)], capsys)
    assert err == f"error: {manifest} is not UTF-8: byte 0xff at offset {size}"


def test_point_file_that_is_not_utf8_fails_in_one_line(ws, fp_ckpt, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(ws / "data", data)
    cloud = data / (data / "test.tsv").read_text().splitlines()[1].split("\t")[0]
    cloud.write_bytes(b"# \xff\n" + cloud.read_bytes())
    err = _one_error_line(["eval", "--ckpt", str(fp_ckpt), "--data", str(data)], capsys)
    assert err == f"error: {cloud} is not UTF-8: byte 0xff at offset 2"


# ---------------------------------------------------------------------------
# the README documents the surface that exists


def test_readme_commands_use_existing_flags():
    """README code blocks and the `$ svpoint` lines of the logs under reports/
    use only subcommands and flags the parser has, and the README shows
    every subcommand."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [("README", line.split()) for block in blocks for line in block.splitlines()
                if line.startswith("svpoint ")]
    assert len(commands) >= 6
    undocumented = set(sub.choices) - {words[1] for _, words in commands}
    assert not undocumented, f"README has no example of: {', '.join(sorted(undocumented))}"
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
