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
    python tools/answer_digest.py --check             # against tools/answer_digests.json
    python tools/answer_digest.py --write             # re-commit that file

tools/answer_digests.json holds each workload's digest and the sha256
of each task's line. `--check` learns every task of each workload it
checks; after a workload whose lines differ from the file's, it prints
how many do and their task seeds. It exits 1 once every workload is
checked, if any line differed. The sources are those of the checkout
the script sits in; only perfbench/workloads.json is read from
perfbench/.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tools" / "answer_digests.json"
WORKLOADS = ROOT / "perfbench" / "workloads.json"
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


def line_of(rec: dict) -> bytes:
    """A record's line, as the workload digest reads it."""
    return json.dumps(rec, sort_keys=True).encode() + b"\n"


def main(argv=None) -> int:
    """Run the command line in argv (default: sys.argv[1:]); the exit code."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", help="workload names (default: all)")
    ap.add_argument("--tasks", action="store_true",
                    help="also print each task's record, to locate a difference")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help=f"name every task whose line differs from {DIGESTS.name}; "
                      "then exit 1 if any did")
    mode.add_argument("--write", action="store_true", help=f"write the digests to {DIGESTS.name}")
    args = ap.parse_args(argv)
    workloads = json.loads(WORKLOADS.read_text())["workloads"]
    committed = json.loads(DIGESTS.read_text()) if args.check or DIGESTS.exists() else {}
    differed = False
    for name in args.workloads or workloads:
        workload = workloads[name]
        digest = hashlib.sha256()
        tasks = []
        for seed in range(workload["universe"]):
            line = line_of(record(workload["spec"], workload["config"], seed))
            digest.update(line)
            tasks.append(hashlib.sha256(line).hexdigest())
            if args.tasks:
                print(f"{name} {seed} {line.decode()}", end="", flush=True)
        print(f"{name} {workload['universe']} tasks sha256 {digest.hexdigest()}", flush=True)
        if args.check:
            seeds = [seed for seed, task in enumerate(tasks) if task != committed[name]["tasks"][seed]]
            if seeds:
                differed = True
                print(f"{name}: {len(seeds)} of {len(tasks)} tasks differ from {DIGESTS.name},"
                      f" task seeds {' '.join(map(str, seeds))}", flush=True)
        committed[name] = {"sha256": digest.hexdigest(), "tasks": tasks}
    if args.write:
        DIGESTS.write_text(json.dumps(committed, indent=1) + "\n")
    return 1 if differed else 0


if __name__ == "__main__":
    sys.exit(main())
