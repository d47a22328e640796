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


def test_check_names_every_task_that_differs(tmp_path, monkeypatch, capsys):
    # A copy of the digests with three task lines tampered, in two
    # workloads, checked on the first three task seeds of each workload:
    # every workload is checked, each difference named, then exit 1.
    digests = json.loads(answer_digest.DIGESTS.read_text())
    for name, seed in [("enum-wide", 1), ("cover-beam", 0), ("cover-beam", 2)]:
        digests[name]["tasks"][seed] = "0" * 64
    workloads = {name: {**workload, "universe": 3} for name, workload in WORKLOADS.items()}
    monkeypatch.setattr(answer_digest, "DIGESTS", tmp_path / "answer_digests.json")
    monkeypatch.setattr(answer_digest, "WORKLOADS", tmp_path / "workloads.json")
    answer_digest.DIGESTS.write_text(json.dumps(digests))
    answer_digest.WORKLOADS.write_text(json.dumps({"workloads": workloads}))
    assert answer_digest.main(["--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "enum-wide", "enum-wide:", "nosol-long", "cover-beam", "cover-beam:", "cover-split"]
    assert [line for line in lines if "differ" in line] == [
        "enum-wide: 1 of 3 tasks differ from answer_digests.json, task seeds 1",
        "cover-beam: 2 of 3 tasks differ from answer_digests.json, task seeds 0 2",
    ]
    assert answer_digest.main(["--check", "nosol-long", "cover-split"]) == 0
    assert "differ" not in capsys.readouterr().out
