import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, *args):
    """Run one of `scripts/` from the repo root without `PYTHONPATH`: each puts the checkout's `src` on its own path."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                            cwd=ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


@pytest.mark.parametrize("script", ["bench_frame.py", "bench_assignment.py"])
def test_script_starts_without_pythonpath(script):
    assert run_script(script, "--help")[0].startswith("usage:")


def test_frame_ab_against_this_checkout_reads_identical():
    lines = run_script("bench_frame.py", "--workload", "parade", "--passes", "1", "--against", str(ROOT))
    rows = [line.split() for line in lines[1:]]
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        ("parade", "selective", "identical"), ("parade", "always_extract", "identical")]


def test_stages_time_both_modes():
    lines = run_script("bench_frame.py", "--stages", "--workload", "parade", "--passes", "1")
    assert lines[0].split() == ["parade", "parade"]
    assert lines[1].split() == ["stage", "selective", "µs", "always_extract", "µs"]
    labels = [line[:20].strip() for line in lines[2:]]
    assert labels == ["1. prediction", "2. confidence split", "3. gating", "4. features", "5. association",
                      "6. kalman update", "7. births", "8. appearance", "9. emit",
                      "stage sum", "frame mean", "frame p50"]
    assert all(len(line[20:].split()) == 2 for line in lines[2:])
