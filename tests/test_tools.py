"""Smoke tests of the scripts under tools/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def replay_kernel(*args):
    env = dict(os.environ, VDTPTUNE_DISABLE_NUMBA="1")
    return subprocess.run([sys.executable, str(ROOT / "tools" / "replay_kernel.py"), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_replay_kernel_smoke():
    """One repetition of campaign_urban's recorded kernel calls: without the
    scalar tail, and with clean-run blocks open at every width (the block
    gate's _CLEAN_RUN_YIELD), the outputs are base's, bit for bit; with the
    uniforms' bit shift changed (_R11) they are not, and the tool says where
    and exits 1."""
    same = replay_kernel("campaign_urban", "--reps", "1", "_TAIL_LANES=0", "_CLEAN_RUN_YIELD=0")
    assert same.returncode == 0, same.stderr
    assert same.stdout.startswith("campaign_urban: 27 run_lanes calls")
    lines = same.stdout.splitlines()
    assert [line.split()[0] for line in lines[2:5]] == ["base", "_TAIL_LANES=0", "_CLEAN_RUN_YIELD=0"]
    assert lines[-1] == "every variant's outputs equal base's, bit for bit and dtype for dtype"
    bent = replay_kernel("campaign_urban", "--reps", "1", "_R11=12")
    assert bent.returncode == 1
    assert "_R11=12: outputs differ from base's at call 0" in bent.stderr
