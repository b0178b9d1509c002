"""Tests of the scripts under tools/: smoke runs, and unit tests of their functions."""

import importlib.util
import os
import re
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


def test_replay_kernel_against_another_copy(tmp_path):
    """--against replays through another kernels.py: a copy of the module
    itself gives base's outputs; a copy whose splitmix64 finaliser shifts by
    one bit more does not, and the tool names that copy and exits 1."""
    source = (ROOT / "src" / "vdtptune" / "sim" / "kernels.py").read_text()
    same, bent = tmp_path / "same.py", tmp_path / "bent.py"
    same.write_text(source)
    assert "    z ^= z >> _R31\n" in source
    bent.write_text(source.replace("    z ^= z >> _R31\n", "    z ^= z >> _R30\n"))
    ok = replay_kernel("score_highway", "--reps", "1", "--against", str(same))
    assert ok.returncode == 0, ok.stderr
    rows = ok.stdout.splitlines()[2:4]
    assert (rows[0].split()[0], rows[1].split()[:2]) == ("base", ["against", str(same)])
    bad = replay_kernel("score_highway", "--reps", "1", "--against", str(bent))
    assert bad.returncode == 1
    assert f"against {bent}: outputs differ from base's at call 0" in bad.stderr
    missing = replay_kernel("score_highway", "--against", str(tmp_path / "none.py"))
    assert missing.returncode == 2 and "no such file" in missing.stderr


def test_replay_kernel_top_counts_steps_blocks_and_crossings(tmp_path):
    """--top 24 lists every one of score_highway's calls (200 lanes of one
    chunk size each), costliest first, with every variant's single steps,
    blocks and _cross calls in it. Counts repeat exactly: a copy of the
    module counts what base counts. With blocks shut no call makes a block,
    none makes fewer single steps and each crosses the same switches; base
    makes blocks in some calls, where the shut variant takes more steps."""
    same = tmp_path / "same.py"
    same.write_text((ROOT / "src" / "vdtptune" / "sim" / "kernels.py").read_text())
    out = replay_kernel("score_highway", "--reps", "1", "--top", "24", "_CLEAN_RUN_YIELD=1e9", "--against", str(same))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    at = lines.index("costliest 24 calls by base's median; single steps, blocks and _cross calls per variant")
    assert lines[at + 97] == "every variant's outputs equal base's, bit for bit and dtype for dtype"
    listed, blocks, extra_steps = [], 0, 0
    for k in range(at + 1, at + 97, 4):
        head = re.fullmatch(r"call (\d+): lanes 200, chunk sizes 1, base \d+\.\d\d ms", lines[k])
        assert head, lines[k]
        listed.append(int(head[1]))
        counts = [re.fullmatch(r"  (.+?) +steps +(\d+) +blocks +(\d+) +_cross +(\d+)", row).groups()
                  for row in lines[k + 1 : k + 4]]
        assert [label for label, *_ in counts] == ["base", "_CLEAN_RUN_YIELD=1000000000.0", f"against {same}"]
        base, shut, copy = ([int(c) for c in row[1:]] for row in counts)
        assert copy == base
        assert shut[1] == 0 and shut[0] >= base[0] and shut[2] == base[2] > 0
        blocks += base[1]
        extra_steps += shut[0] - base[0]
    assert sorted(listed) == list(range(24))
    assert blocks > 0 and extra_steps > 0
    assert replay_kernel("score_highway", "--top", "-1").returncode == 2


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WALL = {"unit": "s", "better": "lower", "bound": 0.25}
RATE = {"unit": "1/s", "better": "higher", "bound": 0.25}


def test_bench_pairs_verdicts():
    """A metric is worse past its bound, unresolved while the parent's runs
    spread wider than the bound (unless the sides do not overlap), and ok
    otherwise; the sign follows the metric's better direction."""
    compare = load_bench_pairs().compare
    parent = [1.0, 1.01, 0.99, 1.02, 0.98]
    ok = compare(WALL, parent, [1.1, 1.12, 1.08, 1.11, 1.09])
    assert (ok["verdict"], ok["worse_by"], ok["change_wins"]) == ("ok", 0.1, "0/5")
    worse = compare(WALL, parent, [1.3, 1.31, 1.29, 1.32, 1.28])
    assert (worse["verdict"], worse["worse_by"]) == ("worse", 0.3)
    assert compare(RATE, parent, [0.7, 0.71, 0.69, 0.72, 0.68])["verdict"] == "worse"
    assert compare(RATE, parent, [1.3, 1.31, 1.29, 1.32, 1.28])["verdict"] == "ok"
    wide = [0.6, 0.8, 1.0, 1.2, 1.4]  # IQR 0.4 of a median of 1.0
    spread = compare(WALL, wide, [0.9, 1.0, 1.1, 1.0, 0.95])
    assert (spread["verdict"], spread["worse_by"]) == ("unresolved", 0.0)
    assert compare(WALL, wide, [0.5, 0.55, 0.45, 0.5, 0.52])["verdict"] == "ok"
    assert compare(RATE, wide, [1.5, 1.6, 1.7, 1.5, 1.55])["verdict"] == "ok"
    assert compare(WALL, wide, [1.5, 1.6, 1.7, 1.5, 1.55])["verdict"] == "worse"


def test_bench_pairs_claim():
    """A claim is met at nine tenths of the pairs won and a median gain
    larger than the parent's interquartile range."""
    bench = load_bench_pairs()
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.02, 0.98]

    def claim(change):
        summary = {"w": {"metrics": {"wall_s": bench.compare(WALL, parent, change)}}}
        return bench.claim(summary, "w", "wall_s")

    met = claim([0.9] * 9 + [1.05])
    assert met["met"] and met["change_wins"] == "9/10" and met["parent_iqr"] == 0.02
    assert not claim([0.9] * 8 + [1.05, 1.05])["met"]  # 8/10 pairs
    assert not claim([0.99] * 10)["met"]  # a gain of 0.01 inside the IQR of 0.02
