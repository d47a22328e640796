"""Print one sha256 per benchmark workload over the answers of its universe tasks.

A workload's universe (perfbench/workloads.json) is the tasks
`benchgen.gen_task` makes from task seeds 0..universe-1 with the
workload's spec. Each is learned under the workload's config, with no
timeout so that the answers do not depend on the machine's speed, and
reduced to one record: status, method, the rendered formula, the
witness and every `stats` key except `elapsed_s`. A workload's digest is
the sha256 of its records, one JSON line each, in seed order, so equal
digests on two commits mean the same answers and counts on every task.

    python tools/answer_digest.py                     # every workload, about 30 s
    python tools/answer_digest.py --tasks cover-beam  # one workload, one line per task

The sources are those of the checkout the script sits in; only
perfbench/workloads.json is read from perfbench/.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ltlflearn import (  # noqa: E402
    LearnerConfig,
    TaskSpec,
    gen_task,
    learn,
    parse_task,
    render_formula,
    serialize_sample,
)


def record(spec: dict, config: dict, seed: int) -> dict:
    """The answer and counts of one universe task, as plain JSON values."""
    sample = parse_task(serialize_sample(gen_task(TaskSpec(seed=seed, **spec)))).sample
    result = learn(sample, LearnerConfig(**{**config, "timeout": None}))
    witness = result.witness
    return {
        "status": result.status,
        "method": result.method,
        "formula": None if result.formula is None
        else render_formula(result.formula, sample.alphabet),
        "witness": None if witness is None else [witness.pos_index, witness.neg_index],
        "stats": {key: value for key, value in sorted(result.stats.items())
                  if key != "elapsed_s"},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", help="workload names (default: all)")
    ap.add_argument("--tasks", action="store_true",
                    help="also print each task's record, to locate a difference")
    args = ap.parse_args()
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    for name in args.workloads or workloads:
        workload = workloads[name]
        digest = hashlib.sha256()
        for seed in range(workload["universe"]):
            line = json.dumps(record(workload["spec"], workload["config"], seed), sort_keys=True)
            digest.update(line.encode() + b"\n")
            if args.tasks:
                print(f"{name} {seed} {line}", flush=True)
        print(f"{name} {workload['universe']} tasks sha256 {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
