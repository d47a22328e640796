"""Every demo runs to completion.

demo_benchmarks.py learns a small generated benchmark suite, in about a
second on a 2-core VM.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.mark.parametrize("demo", ["demo_set_cover.py", "demo_learning.py", "demo_benchmarks.py"])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if demo == "demo_learning.py":
        # The rows of X! a on the worked sample, position 1 leftmost.
        rows = re.findall(r"trace \d, bits \d+\.\.\d+: ([01]+)$", proc.stdout, re.M)
        assert rows == ["10110", "1110", "0100", "100"]
