"""The bit-identity fingerprint script runs, is deterministic, and its
checkpoint round trip prints one digest per config."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "fingerprint.py"
HEX = "[0-9a-f]{64}"


def _fingerprint(*args) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(SCRIPT), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_fingerprint_is_deterministic_and_round_trips(tmp_path):
    first = _fingerprint()
    lines = first.splitlines()
    assert len(lines) == 9, first
    for line in lines:
        assert re.fullmatch(rf"\w+ {HEX} {HEX}", line), line
    # the second run also saves each model; saving changes no digest
    assert _fingerprint("--save", str(tmp_path)) == first
    names = [line.split()[0] for line in lines]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.svnc" for n in names)
    loaded = _fingerprint("--load", str(tmp_path)).splitlines()
    assert [line.split()[0] for line in loaded] == names
    for line in loaded:
        assert re.fullmatch(rf"\w+ {HEX}", line), line
