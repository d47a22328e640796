"""The committed answer digests, checked on the first two task seeds of each workload.

tools/answer_digests.json holds the sha256 of every universe task's
record (status, method, formula, witness and counts) as
tools/answer_digest.py makes it. Re-deriving the first two per workload
catches a change of answers or counts in a plain test run;
`python tools/answer_digest.py --check` re-derives all 416.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("answer_digest", ROOT / "tools" / "answer_digest.py")
answer_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answer_digest)

WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
COMMITTED = json.loads(answer_digest.DIGESTS.read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1])
def test_answers_match_the_committed_digests(name, seed):
    workload = WORKLOADS[name]
    line = answer_digest.line_of(answer_digest.record(workload["spec"], workload["config"], seed))
    assert hashlib.sha256(line).hexdigest() == COMMITTED[name]["tasks"][seed]
