"""The deterministic demos print exactly their recorded transcripts; the timing demo runs cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "name", ["01_surfaces_and_counts", "02_universal_invariants", "03_gauge_theories", "04_counting_extensions"]
)
def test_demo_prints_its_transcript(name):
    run = _run(name)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "transcripts" / f"{name}.txt").read_text()


def test_timing_demo_runs():
    # it prints timings, so there is no transcript to compare
    run = _run("05_oracle_and_bench")
    assert run.returncode == 0, run.stderr
